//! The intra-workspace call graph and reachability.
//!
//! Nodes are every non-test function definition in the workspace
//! (free functions, inherent and trait methods, trait default bodies).
//! Edges come from the call sites [`crate::ast::scan::calls_in`]
//! extracts, resolved by name with this precision ladder:
//!
//! * `.method(...)` — resolves to **every** workspace function of that
//!   name defined inside an `impl` or `trait` block. Dynamic dispatch
//!   (`&mut dyn CachePolicy`) makes anything tighter unsound, and the
//!   over-approximation is exactly what a panic-*reachability* gate
//!   wants: if any implementation can panic, the replay loop can.
//! * `Qualifier::name(...)` — resolves to functions of that name whose
//!   impl target or enclosing module matches `Qualifier`. A qualifier
//!   the workspace has never defined (e.g. `Vec`, `Instant`) resolves
//!   to nothing: the call is external.
//! * `name(...)` — free functions of that name, preferring the same
//!   file, then the same crate, then the workspace.
//!
//! Known blind spot, documented in DESIGN.md §14: operator overloads
//! (`+`, `+=` on `Bytes`) do not produce edges — operator `impl`s are
//! covered instead by the direct `no-panic` scan over `byc-types`.
//! Closure bodies belong to their enclosing named function, so calls
//! made inside a closure are attributed to the function that wrote it.

use crate::ast::parse::FnDef;
use crate::ast::scan::{calls_in, CallRef};
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// One function node: where it lives and what it is.
#[derive(Clone, Debug)]
pub struct FnNode {
    /// Index into the analyzed file list.
    pub file: usize,
    /// The parsed definition.
    pub def: FnDef,
    /// Resolved callee node indexes, deduplicated, in call order.
    pub callees: Vec<usize>,
}

impl FnNode {
    /// `Qualifier::name` or plain `name`, for messages.
    pub fn display_name(&self) -> String {
        match &self.def.qualifier {
            Some(q) => format!("{q}::{}", self.def.name),
            None => self.def.name.clone(),
        }
    }
}

/// The workspace call graph.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    /// All nodes. Indexes are stable and used everywhere.
    pub nodes: Vec<FnNode>,
}

/// A replay entry point: `(type or trait qualifier, function name)`.
pub type EntryPoint = (&'static str, &'static str);

/// The replay entry points every panic/determinism reachability pass
/// starts from. These are the public mouths of the replay machinery;
/// anything transitively callable from them runs inside sweeps that may
/// be hours long. The trace reader's mouths are among them: they take
/// untrusted bytes off disk, ahead of every streamed replay.
pub const REPLAY_ENTRY_POINTS: &[EntryPoint] = &[
    ("ReplayEngine", "serve"),
    ("ReplaySession", "run"),
    ("ReplaySession", "sweep"),
    ("Mediator", "serve_trace_query"),
    ("TraceReader", "open"),
    ("TraceReader", "next_chunk"),
];

/// Per-file inputs the builder needs beyond the parse.
pub struct GraphFile<'a> {
    /// The scanned file.
    pub source: &'a SourceFile,
    /// Its non-test function definitions.
    pub fns: &'a [FnDef],
    /// Inline module names declared in the file (for qualifier
    /// resolution).
    pub qualifiers: &'a BTreeSet<String>,
}

impl CallGraph {
    /// Build the graph over every non-test function of `files`.
    pub fn build(files: &[GraphFile<'_>]) -> CallGraph {
        let mut nodes: Vec<FnNode> = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            for def in file.fns {
                nodes.push(FnNode {
                    file: fi,
                    def: def.clone(),
                    callees: Vec::new(),
                });
            }
        }

        // Name → node indexes.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, node) in nodes.iter().enumerate() {
            by_name.entry(&node.def.name).or_default().push(i);
        }
        // Every qualifier the workspace defines: impl targets, traits,
        // inline modules, file module names, crate names.
        let mut known_qualifiers: BTreeSet<String> = BTreeSet::new();
        for file in files {
            known_qualifiers.extend(file.qualifiers.iter().cloned());
            known_qualifiers.insert(file.source.module_name().to_string());
            known_qualifiers.insert(file.source.crate_name.clone());
        }
        for node in &nodes {
            if let Some(q) = &node.def.qualifier {
                known_qualifiers.insert(q.clone());
            }
            known_qualifiers.extend(node.def.module_path.iter().cloned());
        }

        let resolve = |caller: usize, call: &CallRef, nodes: &[FnNode]| -> Vec<usize> {
            let name = call.path.last().map(String::as_str).unwrap_or("");
            let Some(candidates) = by_name.get(name) else {
                return Vec::new();
            };
            if call.is_method {
                return candidates
                    .iter()
                    .copied()
                    .filter(|&i| nodes[i].def.qualifier.is_some())
                    .collect();
            }
            // Qualified path: match the segment before the name.
            let qual = call
                .path
                .len()
                .checked_sub(2)
                .map(|i| call.path[i].as_str())
                .filter(|q| !matches!(*q, "crate" | "self" | "super"));
            if let Some(q) = qual {
                if !known_qualifiers.contains(q) {
                    return Vec::new(); // external (Vec::new, Instant::now, …)
                }
                return candidates
                    .iter()
                    .copied()
                    .filter(|&i| {
                        let d = &nodes[i].def;
                        d.qualifier.as_deref() == Some(q)
                            || d.module_path.iter().any(|m| m == q)
                            || files[nodes[i].file].source.module_name() == q
                            || files[nodes[i].file].source.crate_name == q
                    })
                    .collect();
            }
            // Bare call: free functions, nearest scope wins.
            let free: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&i| nodes[i].def.qualifier.is_none())
                .collect();
            let caller_file = nodes[caller].file;
            let same_file: Vec<usize> = free
                .iter()
                .copied()
                .filter(|&i| nodes[i].file == caller_file)
                .collect();
            if !same_file.is_empty() {
                return same_file;
            }
            let caller_crate = &files[caller_file].source.crate_name;
            let same_crate: Vec<usize> = free
                .iter()
                .copied()
                .filter(|&i| &files[nodes[i].file].source.crate_name == caller_crate)
                .collect();
            if !same_crate.is_empty() {
                return same_crate;
            }
            free
        };

        let mut all_callees: Vec<Vec<usize>> = Vec::with_capacity(nodes.len());
        for i in 0..nodes.len() {
            let mut callees: Vec<usize> = Vec::new();
            if let Some(body) = &nodes[i].def.body {
                for call in calls_in(body) {
                    for target in resolve(i, &call, &nodes) {
                        if target != i && !callees.contains(&target) {
                            callees.push(target);
                        }
                    }
                }
            }
            all_callees.push(callees);
        }
        drop(by_name);
        for (node, callees) in nodes.iter_mut().zip(all_callees) {
            node.callees = callees;
        }
        CallGraph { nodes }
    }

    /// Node indexes matching `(qualifier, name)` entry points.
    pub fn entry_nodes(&self, entries: &[EntryPoint]) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                entries
                    .iter()
                    .any(|(q, f)| n.def.name == *f && n.def.qualifier.as_deref() == Some(*q))
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Breadth-first reachability from `roots`. Returns, per node, the
    /// predecessor on a shortest path from a root (roots point to
    /// themselves). Unreachable nodes are `None`.
    pub fn reachable_from(&self, roots: &[usize]) -> Vec<Option<usize>> {
        let mut pred: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &r in roots {
            if pred[r].is_none() {
                pred[r] = Some(r);
                queue.push_back(r);
            }
        }
        while let Some(i) = queue.pop_front() {
            for &c in &self.nodes[i].callees {
                if pred[c].is_none() {
                    pred[c] = Some(i);
                    queue.push_back(c);
                }
            }
        }
        pred
    }

    /// The shortest call chain from a root to `node`, as display names
    /// (`ReplayEngine::serve → … → DenseMap::get`).
    pub fn chain_to(&self, pred: &[Option<usize>], node: usize) -> String {
        let mut path = vec![node];
        let mut cur = node;
        let mut hops = 0;
        while let Some(p) = pred[cur] {
            if p == cur {
                break;
            }
            path.push(p);
            cur = p;
            hops += 1;
            if hops > self.nodes.len() {
                break; // defensive: malformed predecessor table
            }
        }
        path.reverse();
        let names: Vec<String> = path.iter().map(|&i| self.nodes[i].display_name()).collect();
        names.join(" → ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_file;
    use crate::source::{FileKind, SourceFile};

    fn src(rel: &str, crate_name: &str, text: &str) -> SourceFile {
        SourceFile {
            rel_path: rel.into(),
            crate_name: crate_name.into(),
            kind: FileKind::Library,
            text: text.into(),
        }
    }

    /// Build a graph from (rel_path, crate, src) triples.
    fn graph(sources: &[(&str, &str, &str)]) -> CallGraph {
        let files: Vec<SourceFile> = sources.iter().map(|(r, c, t)| src(r, c, t)).collect();
        let parsed: Vec<_> = files
            .iter()
            .map(|f| parse_file(&f.text).expect("fixture parses"))
            .collect();
        let quals: Vec<BTreeSet<String>> = parsed
            .iter()
            .map(|p| {
                let mut q: BTreeSet<String> = BTreeSet::new();
                for t in &p.types {
                    q.insert(t.name.clone());
                }
                for i in &p.impls {
                    q.insert(i.self_type.clone());
                }
                q
            })
            .collect();
        let fns: Vec<Vec<_>> = parsed
            .iter()
            .map(|p| p.fns.iter().filter(|f| !f.is_test).cloned().collect())
            .collect();
        let graph_files: Vec<GraphFile<'_>> = files
            .iter()
            .zip(fns.iter())
            .zip(quals.iter())
            .map(|((source, fns), qualifiers)| GraphFile {
                source,
                fns,
                qualifiers,
            })
            .collect();
        CallGraph::build(&graph_files)
    }

    fn idx(g: &CallGraph, qual: Option<&str>, name: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.def.name == name && n.def.qualifier.as_deref() == qual)
            .unwrap_or_else(|| panic!("no node {qual:?}::{name}"))
    }

    #[test]
    fn method_calls_resolve_to_all_impls() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "core",
            "struct A; struct B;\n\
             impl A { fn hit(&self) {} }\n\
             impl B { fn hit(&self) {} }\n\
             fn driver(x: &A) { x.hit(); }",
        )]);
        let d = idx(&g, None, "driver");
        assert_eq!(
            g.nodes[d].callees.len(),
            2,
            "dyn-dispatch over-approximation"
        );
    }

    #[test]
    fn qualified_calls_filter_by_type() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "core",
            "struct A; struct B;\n\
             impl A { fn make() {} }\n\
             impl B { fn make() {} }\n\
             fn driver() { A::make(); Vec::new(); }",
        )]);
        let d = idx(&g, None, "driver");
        assert_eq!(g.nodes[d].callees, vec![idx(&g, Some("A"), "make")]);
    }

    #[test]
    fn external_qualifiers_resolve_to_nothing() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "core",
            "fn driver() { Instant::now(); std::process::exit(1); }",
        )]);
        let d = idx(&g, None, "driver");
        assert!(g.nodes[d].callees.is_empty());
    }

    #[test]
    fn free_calls_prefer_same_file_then_crate() {
        let g = graph(&[
            (
                "crates/core/src/a.rs",
                "core",
                "fn helper() {} fn driver() { helper(); }",
            ),
            ("crates/core/src/b.rs", "core", "fn helper() {}"),
            ("crates/engine/src/c.rs", "engine", "fn helper() {}"),
        ]);
        let d = idx(&g, None, "driver");
        assert_eq!(g.nodes[d].callees.len(), 1);
        assert_eq!(g.nodes[g.nodes[d].callees[0]].file, 0);
    }

    #[test]
    fn module_qualified_free_fns_resolve() {
        let g = graph(&[
            (
                "crates/core/src/inline.rs",
                "core",
                "pub mod make { pub fn gds() {} }",
            ),
            (
                "crates/federation/src/p.rs",
                "federation",
                "fn driver() { make::gds(); }",
            ),
        ]);
        let d = idx(&g, None, "driver");
        assert_eq!(g.nodes[d].callees.len(), 1);
    }

    #[test]
    fn reachability_and_chain() {
        let g = graph(&[(
            "crates/federation/src/engine.rs",
            "federation",
            "struct ReplayEngine;\n\
             impl ReplayEngine { pub fn serve(&self) { step(); } }\n\
             fn step() { deep(); }\n\
             fn deep() {}\n\
             fn unrelated() {}",
        )]);
        let roots = g.entry_nodes(REPLAY_ENTRY_POINTS);
        assert_eq!(roots.len(), 1);
        let pred = g.reachable_from(&roots);
        let deep = idx(&g, None, "deep");
        assert!(pred[deep].is_some());
        assert!(pred[idx(&g, None, "unrelated")].is_none());
        let chain = g.chain_to(&pred, deep);
        assert_eq!(chain, "ReplayEngine::serve → step → deep");
    }

    #[test]
    fn test_fns_stay_out_of_the_graph() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "core",
            "fn lib() {}\n#[cfg(test)]\nmod tests { fn t() { super::lib(); } }",
        )]);
        assert_eq!(g.nodes.len(), 1);
    }
}
