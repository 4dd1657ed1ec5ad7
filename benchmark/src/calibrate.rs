//! A fixed reference kernel, timed on each CPU right before and right
//! after every measured child process, that says how fast the shared
//! host runs then.
//!
//! On a shared host each virtual CPU flips, on its own, between a fast
//! and a slow state (about 1.4× apart). A state lasts from half a second
//! to minutes, and the two CPUs' states are nearly uncorrelated. Every
//! part of `byc` slows with its CPU, so raw times of the same code spread
//! past any useful bound from one run to the next. So a single-threaded
//! child is pinned to the CPU that is fastest when it starts, and each
//! timing metric of a repetition is scaled by [`REFERENCE_S`] ÷ the
//! kernel's mean time around it on the CPUs the child ran on. It reads as
//! the time the repetition would have taken on a host that runs the
//! kernel in [`REFERENCE_S`]. The kernel uses only `std` and the code
//! below, so no change to the workspace moves it, and it does the kinds
//! of work `byc` does: text formatting and parsing, hashing, sorting and
//! a heap.

use std::collections::{BinaryHeap, HashMap};
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one kernel run takes on a quiet host (a 2.1 GHz Xeon vCPU in
/// its fast state).
pub const REFERENCE_S: f64 = 0.0045;

/// Kernel runs per CPU in a sample around a child: many short runs
/// cover more of the host's state flips than one long one.
const RUNS: usize = 6;

/// Records each kernel run makes, formats and parses.
const RECORDS: u64 = 13_000;

/// Words in a Linux `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on; `0..available_parallelism`
/// if the OS does not say.
pub fn cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } == 0;
    let cpus: Vec<usize> = (0..MASK_WORDS * 64)
        .filter(|c| ok && mask[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if cpus.is_empty() {
        (0..std::thread::available_parallelism().map_or(1, usize::from)).collect()
    } else {
        cpus
    }
}

/// Pin the calling thread, and the processes it starts from then on, to
/// `cpu`; false if the OS refused.
pub fn pin(cpu: usize) -> bool {
    if cpu >= MASK_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// `(cpu, seconds)`: mean seconds of one kernel run over [`RUNS`] runs,
/// made now on every CPU at once by one thread pinned to each.
pub fn per_cpu_sample() -> Vec<(usize, f64)> {
    let cpus = cpus();
    std::thread::scope(|scope| {
        let threads: Vec<_> = cpus
            .iter()
            .map(|&cpu| {
                scope.spawn(move || {
                    pin(cpu);
                    host_sample(RUNS)
                })
            })
            .collect();
        cpus.iter()
            .zip(threads)
            .map(|(&cpu, t)| (cpu, t.join().unwrap_or(f64::NAN)))
            .collect()
    })
}

/// Mean seconds of one kernel run, over `runs` runs made now on the
/// calling thread.
pub fn host_sample(runs: usize) -> f64 {
    let start = Instant::now();
    for run in 0..runs {
        black_box(kernel(black_box(0x9e37_79b9_7f4a_7c15 + run as u64)));
    }
    start.elapsed().as_secs_f64() / runs as f64
}

/// The reference work; returns a checksum so none of it is optimized away.
fn kernel(seed: u64) -> u64 {
    let mut x = seed;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut text = String::with_capacity(RECORDS as usize * 48);
    for i in 0..RECORDS {
        let v = next();
        // Writing to a String cannot fail.
        let _ = writeln!(
            text,
            "{{\"id\":{i},\"bytes\":{},\"obj\":\"t{}\"}}",
            v >> 20,
            v % 977
        );
    }
    let mut sizes: HashMap<String, u64> = HashMap::new();
    let mut values = Vec::with_capacity(RECORDS as usize);
    for line in text.lines() {
        let field = |key: &str| {
            let at = line.find(key).map_or(line.len(), |a| a + key.len());
            let rest = &line[at..];
            &rest[..rest.find([',', '}']).unwrap_or(rest.len())]
        };
        let bytes: u64 = field("\"bytes\":").parse().unwrap_or(0);
        *sizes
            .entry(field("\"obj\":").trim_matches('"').to_string())
            .or_default() += bytes;
        values.push(bytes);
    }
    values.sort_unstable();
    let mut heap = BinaryHeap::new();
    let mut sum = 0u64;
    for (i, v) in values.iter().enumerate() {
        heap.push((v ^ next() >> 40, i));
        if heap.len() > 4096 {
            sum = sum.wrapping_add(heap.pop().map_or(0, |e| e.0));
        }
    }
    // Summed: a HashMap's iteration order differs from run to run.
    sizes.values().fold(sum, |a, v| a.wrapping_add(*v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_takes_time() {
        assert_eq!(kernel(7), kernel(7));
        assert_ne!(kernel(7), kernel(8));
        assert!(host_sample(1) > 0.0);
        let sample = per_cpu_sample();
        assert_eq!(sample.len(), cpus().len());
        assert!(sample.iter().all(|&(_, s)| s > 0.0));
    }

    #[test]
    fn a_thread_pins_to_each_of_its_cpus() {
        let all = cpus();
        assert!(!all.is_empty());
        for &cpu in &all {
            let on = std::thread::spawn(move || pin(cpu).then(cpus))
                .join()
                .unwrap();
            assert_eq!(on, Some(vec![cpu]));
        }
        assert!(!pin(MASK_WORDS * 64));
    }
}
