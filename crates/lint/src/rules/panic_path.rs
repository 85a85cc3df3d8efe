//! Transitive panic-path analysis for serve request handling and exec
//! queue hot paths.
//!
//! A worker thread that panics takes its queue (and every in-flight
//! request parked on it) down with it. The roots are every fn defined in
//! [`crate::LintConfig::panic_files`]; anything they reach through the
//! workspace call graph may not use panicking idioms: `.unwrap()` /
//! `.expect()` (including the `_err` variants) or the panic macro
//! family. Poisoned-mutex recovery is
//! `lock().unwrap_or_else(|e| e.into_inner())`; fallible lookups use
//! `.get()`.
//!
//! `container[index]` sugar is held to the tighter standard only inside
//! the panic-scoped files themselves. The kernels the handlers reach
//! (`pop-nn` convolutions, tensor accessors) index by construction —
//! shapes are validated at model load — and rewriting their inner loops
//! to `.get()` would trade a provable invariant for branch pressure, so
//! transitive reach does not flag indexing outside the scope.
//!
//! Two escape hatches, both deliberate:
//!
//! * edges inside a `catch_unwind(…)` argument are not traversed — the
//!   worker converts a caught forward-pass panic into per-request errors,
//!   so the model stack below the shield is out of scope; a fn whose
//!   every precise workspace caller shields it is not a root either, even
//!   when it is defined in a panic-scoped file;
//! * startup-only panics (thread spawn, replica construction) carry
//!   `// lint: allow(panic_path)` with a rationale and are inventoried.

use crate::context::AllowLedger;
use crate::graph::{CallGraph, Verdict};
use crate::report::Finding;
use crate::symtab::FnId;
use crate::LintConfig;
use std::collections::BTreeMap;

pub fn check(
    g: &CallGraph,
    cfg: &LintConfig,
    ledgers: &mut [(String, AllowLedger)],
    out: &mut Vec<Finding>,
) {
    // Precise incoming edges per fn: (total, shielded). Approx edges are
    // ignored here — a name-collision caller must not re-rootify a fn
    // that is really only entered through a shield.
    let mut precise_in: BTreeMap<FnId, (usize, usize)> = BTreeMap::new();
    for node in &g.nodes {
        for call in &node.calls {
            if call.verdict != Verdict::Precise {
                continue;
            }
            for &t in &call.targets {
                let e = precise_in.entry(t).or_insert((0, 0));
                e.0 += 1;
                if call.shielded {
                    e.1 += 1;
                }
            }
        }
    }
    let roots: Vec<FnId> = g
        .tab
        .fns
        .iter()
        .enumerate()
        .filter(|(id, def)| {
            if !cfg.in_panic_scope(&def.file) {
                return false;
            }
            match precise_in.get(id) {
                Some(&(total, shielded)) => total == 0 || shielded < total,
                None => true,
            }
        })
        .map(|(id, _)| id)
        .collect();
    let rule = "panic_path";
    let parents = g.reachable(&roots, true);
    for &id in parents.keys() {
        let def = &g.tab.fns[id];
        let node = &g.nodes[id];
        if node.facts.panic_sites.is_empty() {
            continue;
        }
        let chain = g.chain(&parents, id);
        let root = chain.first().cloned().unwrap_or_default();
        let display = def.display();
        let ledger = &mut ledgers[def.file_idx].1;
        let in_scope = cfg.in_panic_scope(&def.file);
        for s in &node.facts.panic_sites {
            if s.what.contains("indexing") && !in_scope {
                continue;
            }
            if ledger.suppresses(rule, s.line) {
                continue;
            }
            let hint = if s.what.contains("indexing") {
                "use `.get()`"
            } else if s.what.contains('!') {
                "return an error instead"
            } else {
                "recover (`unwrap_or_else`) or route the error"
            };
            let msg = if chain.len() > 1 {
                format!("{} reachable from hot-path root `{root}`; {hint}", s.what)
            } else {
                format!("{} on a hot path; {hint}", s.what)
            };
            out.push(
                Finding::new(rule, &def.file, s.line, Some(&display), msg)
                    .with_chain(chain.clone()),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::report::Finding;
    use crate::{fixture_findings, LintConfig};

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        fixture_findings(files, &LintConfig::workspace(), &["panic_path"])
    }

    const SCOPED: &str = "crates/serve/src/engine.rs";

    #[test]
    fn unwrap_expect_macros_and_indexing_fire() {
        let out = run(&[(
            SCOPED,
            "impl Engine {\n  fn handle(&self, i: usize) {\n    self.q.pop().expect(\"boom\");\n    if i > 9 { panic!(\"bad\"); }\n    let x = self.slots[i];\n  }\n}",
        )]);
        assert_eq!(out.len(), 3, "{out:?}");
        assert!(out.iter().all(|f| f.rule == "panic_path"));
        assert_eq!(out[0].context, "Engine::handle");
    }

    #[test]
    fn two_hop_unwrap_outside_scope_fires_with_chain() {
        // The panic lives in core — out of the old file-scoped rule's
        // reach — but a serve handler calls into it.
        let out = run(&[
            (
                SCOPED,
                "use pop_core::features::risky_decode;\nimpl Engine {\n  pub fn handle(&self) { risky_decode(7); }\n}",
            ),
            (
                "crates/core/src/features.rs",
                "pub fn risky_decode(x: usize) -> usize { inner(x) }\nfn inner(x: usize) -> usize { SOME.get(x).unwrap() }",
            ),
        ]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].file, "crates/core/src/features.rs");
        assert_eq!(
            out[0].chain,
            vec!["Engine::handle", "risky_decode", "inner"]
        );
        assert!(out[0].message.contains("hot-path root `Engine::handle`"));
    }

    #[test]
    fn near_miss_indexing_in_a_reached_kernel_is_silent() {
        // Explicit panics travel, indexing does not: kernels index by
        // construction and stay out of the transitive net.
        let out = run(&[
            (
                SCOPED,
                "use pop_nn::conv::dot;\nimpl Engine {\n  pub fn handle(&self) { dot(7); }\n}",
            ),
            (
                "crates/nn/src/conv.rs",
                "pub fn dot(x: usize) -> f32 { KERNEL[x] }",
            ),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn near_miss_shielded_forward_and_its_callee_are_silent() {
        // `catch_unwind` converts a forward panic into an error: neither
        // the shielded edge nor the shield-only callee may fire.
        let out = run(&[(
            SCOPED,
            "impl Replica {\n  fn run(&self) { let r = std::panic::catch_unwind(|| self.step()); consume(r); }\n  fn step(&self) { self.x.unwrap(); }\n}\nfn consume(r: usize) {}",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn near_miss_recovery_idioms_do_not_fire() {
        let out = run(&[(
            SCOPED,
            r#"fn handle(q: Q) {
                let g = inner.lock().unwrap_or_else(|e| e.into_inner());
                let v = slots.get(3);
                let arr = [0u8; 4];
                let v2 = vec![1, 2];
                drop((g, v, arr, v2));
            }
            struct Q;"#,
        )]);
        assert!(out.is_empty(), "unexpected findings: {out:?}");
    }

    #[test]
    fn near_miss_out_of_scope_and_test_code_are_silent() {
        assert!(run(&[(
            "crates/place/src/anneal.rs",
            "fn f(v: &[u32]) { v.first().unwrap(); }"
        )])
        .is_empty());
        assert!(run(&[(
            SCOPED,
            "#[test]\nfn t() { let v: Vec<u32> = vec![]; v.first().unwrap(); }"
        )])
        .is_empty());
    }

    #[test]
    fn allow_annotation_suppresses_startup_panics() {
        let out = run(&[(
            SCOPED,
            "fn start() {\n  // lint: allow(panic_path) — startup, documented # Panics\n  spawn().expect(\"spawn failed\");\n}",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn attributes_and_slice_types_do_not_fire_as_indexing() {
        let out = run(&[(
            SCOPED,
            "#[derive(Debug)]\nstruct S;\nfn f(x: &[u8], m: [f32; 2]) -> Vec<[u8; 2]> { let _ = (x, m); vec![] }",
        )]);
        assert!(out.is_empty(), "unexpected findings: {out:?}");
    }
}
