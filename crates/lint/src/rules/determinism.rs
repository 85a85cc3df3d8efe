//! Determinism taint: reachability from fingerprint/checksum roots.
//!
//! Cache fingerprints (`core::dataset::fingerprint`, the eval baseline
//! checksums) must be pure functions of their inputs: a wall-clock read
//! folded into an FNV accumulator, or a `HashMap` iterated while hashing,
//! silently forks the cache key across runs. The roots are every fn named
//! in [`crate::LintConfig::determinism_roots`] plus any fn that folds a
//! `Fnv1a` accumulator; anything they reach (through the workspace call
//! graph, shields included — a caught panic does not un-read a clock) may
//! not mention `Instant`/`SystemTime` (`wall_clock`) or
//! `HashMap`/`HashSet` (`map_order`), except where an explicit
//! `// lint: allow(wall_clock)` records intentional provenance/timing.

use crate::context::AllowLedger;
use crate::graph::CallGraph;
use crate::report::Finding;
use crate::symtab::FnId;
use crate::LintConfig;

pub fn check(
    g: &CallGraph,
    cfg: &LintConfig,
    ledgers: &mut [(String, AllowLedger)],
    out: &mut Vec<Finding>,
) {
    let roots: Vec<FnId> = g
        .tab
        .fns
        .iter()
        .enumerate()
        .filter(|(id, def)| {
            cfg.determinism_roots.contains(&def.item.name) || g.nodes[*id].facts.uses_fnv
        })
        .map(|(id, _)| id)
        .collect();
    let parents = g.reachable(&roots, false);
    for &id in parents.keys() {
        let def = &g.tab.fns[id];
        let node = &g.nodes[id];
        if node.facts.wall_clock.is_empty() && node.facts.map_order.is_empty() {
            continue;
        }
        let chain = g.chain(&parents, id);
        let root = chain.first().cloned().unwrap_or_default();
        let display = def.display();
        let ledger = &mut ledgers[def.file_idx].1;
        for (sites, rule, what) in [
            (&node.facts.wall_clock, "wall_clock", "wall-clock source"),
            (
                &node.facts.map_order,
                "map_order",
                "iteration-order-sensitive collection",
            ),
        ] {
            for s in sites {
                if ledger.suppresses(rule, s.line) {
                    continue;
                }
                let msg = if chain.len() > 1 {
                    format!(
                        "{what} {} reachable from determinism root `{root}`; fingerprints must be pure functions of their inputs",
                        s.what
                    )
                } else {
                    format!(
                        "{what} {} in determinism root `{root}`; fingerprints must be pure functions of their inputs",
                        s.what
                    )
                };
                out.push(
                    Finding::new(rule, &def.file, s.line, Some(&display), msg)
                        .with_chain(chain.clone()),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::report::Finding;
    use crate::{fixture_findings, LintConfig};

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        fixture_findings(
            files,
            &LintConfig::workspace(),
            &["wall_clock", "map_order"],
        )
    }

    const SCOPED: &str = "crates/core/src/dataset.rs";

    #[test]
    fn wall_clock_in_fingerprint_root_fires() {
        let out = run(&[(
            SCOPED,
            "pub fn fingerprint() -> u64 { let t = std::time::Instant::now(); 0 }",
        )]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "wall_clock");
        assert_eq!(out[0].context, "fingerprint");
        assert_eq!(out[0].chain, vec!["fingerprint"]);
    }

    #[test]
    fn hashmap_reachable_two_hops_from_fnv_fold_fires_with_chain() {
        let out = run(&[
            (
                SCOPED,
                "pub fn digest() -> u64 { let h = Fnv1a::new(); helper(); 0 }\n\
                 fn helper() { deep(); }",
            ),
            (
                "crates/core/src/baseline.rs",
                "pub fn deep() { let m: std::collections::HashMap<u32, u32> = Default::default(); }",
            ),
        ]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "map_order");
        assert_eq!(out[0].file, "crates/core/src/baseline.rs");
        assert_eq!(out[0].chain, vec!["digest", "helper", "deep"]);
        assert!(out[0].message.contains("reachable from determinism root"));
    }

    #[test]
    fn near_miss_unreachable_helper_is_silent() {
        // An `Instant` in a fn nothing fingerprint-rooted calls is fine —
        // even in a file that used to be blanket-scoped.
        let out = run(&[(
            SCOPED,
            "pub fn fingerprint() -> u64 { 0 }\n\
             pub fn stamp() { let t = std::time::Instant::now(); use1(t); }\n\
             fn use1(t: usize) {}",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn near_miss_test_code_and_imports_are_silent() {
        let out = run(&[(
            SCOPED,
            "use std::time::Instant;\npub fn fingerprint() -> u64 { 0 }\n#[cfg(test)]\nmod tests {\n  fn t() { let x = Instant::now(); }\n}\n",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn allow_annotation_suppresses_at_the_fact_site() {
        let out = run(&[(
            SCOPED,
            "pub fn fingerprint() -> u64 {\n  // lint: allow(wall_clock) — provenance stamp\n  let t = std::time::SystemTime::now();\n  0\n}\n",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }
}
