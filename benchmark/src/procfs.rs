//! A process's own peak memory and CPU time, read from `/proc/self`.

/// `/proc/<pid>/stat` reports CPU time in USER_HZ ticks, which Linux
/// fixes at 100 per second on every architecture it exposes to users.
const USER_HZ: f64 = 100.0;

/// Peak resident set size (`VmHWM`) in KiB and CPU seconds (user plus
/// system, all threads, including exited ones) of the calling process.
pub fn self_usage() -> std::io::Result<(u64, f64)> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let hwm = parse_vm_hwm_kib(&status).ok_or_else(|| bad("no VmHWM in /proc/self/status"))?;
    let ticks = parse_cpu_ticks(&stat).ok_or_else(|| bad("malformed /proc/self/stat"))?;
    Ok((hwm, ticks as f64 / USER_HZ))
}

/// The `VmHWM:` line of `/proc/<pid>/status`, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(value)
}

/// `utime + stime` (fields 14 and 15) of `/proc/<pid>/stat`, in ticks.
/// The command name in field 2 may hold spaces and parentheses, so the
/// fields are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field N sits at index N - 3.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tbyc\nVmPeak:\t  300000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kib("Name:\tbyc\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn parses_cpu_ticks_past_odd_command_names() {
        let stat = "4242 (byc (bench) x) R 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    250 17 0 0 20 0 43 0 1000 1000000 500 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(267));
        assert_eq!(parse_cpu_ticks("4242 (byc) R 1"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn reads_own_usage() {
        let (hwm, cpu) = self_usage().expect("/proc/self is readable on Linux");
        assert!(hwm > 0);
        assert!(cpu >= 0.0);
    }
}
