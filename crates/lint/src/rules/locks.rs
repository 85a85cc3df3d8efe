//! Lock-order check for the lock-scoped files
//! ([`crate::LintConfig::lock_prefixes`]: `pop-exec` and `pop-serve`).
//!
//! [`crate::graph`]'s body scan records every mutex acquisition — a
//! `….lock()` site, or a precise call to a guard-returning helper — and
//! every acquisition made while another guard of the same fn is live.
//! Receivers map to canonical lock names through a small alias table
//! (e.g. `self.state` and `self` in `exec/src/queue.rs` are
//! `exec.queue.state`, the latter through `BoundedQueue::lock`), and
//! nested acquisitions are checked against the declared outer→inner
//! order in [`crate::LintConfig::lock_order`], within one fn and across
//! call edges. An inversion — or a nested acquisition involving a lock
//! the order doesn't declare, or re-locking a lock already held — is a
//! deadlock waiting for the right interleaving, and fires `lock_order`.

use crate::context::AllowLedger;
use crate::graph::{CallGraph, Verdict};
use crate::report::Finding;
use crate::LintConfig;
use std::collections::{BTreeMap, BTreeSet};

/// Reports nested acquisitions that break the declared order: those one
/// fn's body makes, then those split across fns — a call made while
/// holding a lock is charged with every lock its (transitive) callees
/// acquire.
///
/// Only `Precise` call edges participate: an over-approximated
/// name-match edge would manufacture deadlock reports between unrelated
/// types. Guards acquired *at* the checked call site itself (a helper
/// that returns the guard, `fn lock(&self) -> MutexGuard<'_, T>`) are
/// skipped — the acquisition and the call are the same event, not a
/// nesting.
pub fn check(
    g: &CallGraph,
    cfg: &LintConfig,
    ledgers: &mut [(String, AllowLedger)],
    out: &mut Vec<Finding>,
) {
    for (def, node) in g.tab.fns.iter().zip(&g.nodes) {
        for ((held, hline), (acq, line)) in &node.facts.nested_locks {
            let Some(msg) = order_verdict(cfg, held, acq) else {
                continue;
            };
            if !ledgers[def.file_idx].1.suppresses("lock_order", *line) {
                out.push(Finding::new(
                    "lock_order",
                    &def.file,
                    *line,
                    Some(&def.display()),
                    format!("{msg} (holding `{held}` since line {hline})"),
                ));
            }
        }
    }

    let n = g.tab.fns.len();
    // Transitive acquisitions per fn: canonical → (direct acquirer, line).
    let mut trans: Vec<BTreeMap<String, (usize, u32)>> = (0..n)
        .map(|id| {
            g.nodes[id]
                .facts
                .lock_acquires
                .iter()
                .map(|(name, line)| (name.clone(), (id, *line)))
                .collect()
        })
        .collect();
    loop {
        let mut changed = false;
        for f in 0..n {
            let mut add: Vec<(String, (usize, u32))> = Vec::new();
            for call in &g.nodes[f].calls {
                if call.verdict != Verdict::Precise {
                    continue;
                }
                for &t in &call.targets {
                    for (name, site) in &trans[t] {
                        if !trans[f].contains_key(name) {
                            add.push((name.clone(), *site));
                        }
                    }
                }
            }
            for (name, site) in add {
                if trans[f].insert(name, site).is_none() {
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let mut seen: BTreeSet<(String, u32, String, String)> = BTreeSet::new();
    for f in 0..n {
        let def = &g.tab.fns[f];
        for call in &g.nodes[f].calls {
            if call.verdict != Verdict::Precise || call.held.is_empty() {
                continue;
            }
            for &t in &call.targets {
                for (acq, &(owner, oline)) in &trans[t] {
                    for (held, hline) in &call.held {
                        if *hline == call.line {
                            continue; // acquired at this very call
                        }
                        let Some(msg) = order_verdict(cfg, held, acq) else {
                            continue;
                        };
                        if !seen.insert((def.file.clone(), call.line, held.clone(), acq.clone()))
                            || ledgers[def.file_idx].1.suppresses("lock_order", call.line)
                        {
                            continue;
                        }
                        let owner_def = &g.tab.fns[owner];
                        let parents = g.reachable(&[t], false);
                        let mut chain = vec![def.display()];
                        chain.extend(g.chain(&parents, owner));
                        out.push(
                            Finding::new(
                                "lock_order",
                                &def.file,
                                call.line,
                                Some(&def.display()),
                                format!(
                                    "{msg} (holding `{held}` since line {hline}; `{acq}` acquired in `{}` at {}:{oline})",
                                    owner_def.display(),
                                    owner_def.file
                                ),
                            )
                            .with_chain(chain),
                        );
                    }
                }
            }
        }
    }
}

fn order_verdict(cfg: &LintConfig, holding: &str, acquiring: &str) -> Option<String> {
    if holding == acquiring {
        return Some(format!("re-entrant acquisition of `{acquiring}`"));
    }
    let idx = |name: &str| cfg.lock_order.iter().position(|l| l == name);
    match (idx(holding), idx(acquiring)) {
        (Some(h), Some(a)) if h > a => Some(format!(
            "acquiring `{acquiring}` while holding `{holding}` inverts the declared lock order"
        )),
        (Some(_), Some(_)) => None,
        _ => Some(format!(
            "nested acquisition involving undeclared lock (`{holding}` → `{acquiring}`); declare both in the lock order"
        )),
    }
}

#[cfg(test)]
mod tests {
    use crate::report::Finding;
    use crate::{fixture_findings, lock_fixture_config, LintConfig};

    fn run(path: &str, src: &str) -> Vec<Finding> {
        run_cross(&[(path, src)])
    }

    const REGISTRY: &str = "crates/serve/src/registry.rs";

    #[test]
    fn declared_outer_to_inner_nesting_is_clean() {
        // serve.registry.inner → core.forecaster.model is the declared order.
        let out = run(
            REGISTRY,
            "fn get(&self) { let g = self.inner.lock(); let m = model.lock(); use2(g, m); }",
        );
        assert!(out.is_empty(), "unexpected findings: {out:?}");
    }

    #[test]
    fn inverted_nesting_fires() {
        let out = run(
            REGISTRY,
            "fn get(&self) { let m = model.lock(); let g = self.inner.lock(); use2(g, m); }",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "lock_order");
        assert!(out[0].message.contains("inverts the declared lock order"));
    }

    #[test]
    fn reentrant_acquisition_fires() {
        let out = run(
            REGISTRY,
            "fn get(&self) { let a = self.inner.lock(); let b = self.inner.lock(); use2(a, b); }",
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("re-entrant"));
    }

    #[test]
    fn near_miss_sequential_acquisitions_are_clean() {
        // Guard dropped (block close / drop()) before the next lock.
        let out = run(
            REGISTRY,
            r#"fn a(&self) { { let g = self.inner.lock(); touch(g); } let m = model.lock(); touch(m); }
               fn b(&self) { let g = self.inner.lock(); drop(g); let g2 = self.inner.lock(); touch(g2); }
               fn c(&self) { self.inner.lock().len(); model.lock().len(); }"#,
        );
        assert!(out.is_empty(), "unexpected findings: {out:?}");
    }

    #[test]
    fn undeclared_lock_in_nest_fires() {
        let out = run(
            REGISTRY,
            "fn get(&self) { let g = self.inner.lock(); let x = mystery.lock(); use2(g, x); }",
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("undeclared lock"));
    }

    #[test]
    fn near_miss_out_of_scope_file_is_silent() {
        let out = run(
            "crates/place/src/anneal.rs",
            "fn f(&self) { let a = x.lock(); let b = y.lock(); use2(a, b); }",
        );
        assert!(out.is_empty());
    }

    fn run_cross(files: &[(&str, &str)]) -> Vec<Finding> {
        fixture_findings(files, &lock_fixture_config(), &["lock_order"])
    }

    #[test]
    fn cross_fn_inversion_split_across_two_fns_fires_with_chain() {
        // `outer` holds the model lock and calls `inner_path`, which
        // acquires the registry lock — an inversion no single fn shows.
        let out = run_cross(&[(
            REGISTRY,
            "impl Registry {\n  fn outer(&self) {\n    let m = model.lock();\n    self.inner_path();\n    drop(m);\n  }\n  fn inner_path(&self) { let g = self.inner.lock(); touch(g); }\n}\nfn touch(g: usize) {}",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "lock_order");
        assert!(out[0].message.contains("inverts the declared lock order"));
        assert!(out[0].message.contains("Registry::inner_path"));
        assert_eq!(
            out[0].chain,
            vec!["Registry::outer", "Registry::inner_path"]
        );
    }

    #[test]
    fn near_miss_declared_order_through_a_callee_is_clean() {
        // Outer→inner through a call edge follows the declared order.
        let out = run_cross(&[(
            REGISTRY,
            "impl Registry {\n  fn outer(&self) {\n    let g = self.inner.lock();\n    self.with_model();\n    drop(g);\n  }\n  fn with_model(&self) { let m = model.lock(); touch(m); }\n}\nfn touch(g: usize) {}",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn near_miss_guard_helper_call_is_not_reentrant() {
        // `self.lock()` IS the acquisition; charging the helper's internal
        // `.lock()` against the caller would be a self-inflicted
        // re-entrancy report.
        let out = run_cross(&[(
            REGISTRY,
            "impl Registry {\n  fn lock(&self) -> MutexGuard<'_, Inner> { self.inner.lock() }\n  fn get(&self) { let g = self.lock(); touch2(g); }\n}\nfn touch2(g: usize) {}",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn near_miss_queue_guard_helper_is_one_acquisition() {
        // The workspace's own queue shape: `self.lock()` is both a
        // `.lock()` site and a call to the `BoundedQueue::lock` guard
        // helper — one acquisition, not a nesting of the two.
        let out = fixture_findings(
            &[(
                "crates/exec/src/queue.rs",
                "impl<T> BoundedQueue<T> {\n  fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {\n    self.state.lock().unwrap_or_else(|e| e.into_inner())\n  }\n  pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {\n    let mut st = self.lock();\n    st.deque.push_back(item);\n    self.not_empty.notify_one();\n    Ok(())\n  }\n  pub fn len(&self) -> usize {\n    self.lock().deque.len()\n  }\n}",
            )],
            &LintConfig::workspace(),
            &["lock_order"],
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn reentrant_acquisition_through_a_helper_fires() {
        let out = run_cross(&[(
            REGISTRY,
            "impl Registry {\n  fn get(&self) {\n    let g = self.inner.lock();\n    self.also_locks();\n    drop(g);\n  }\n  fn also_locks(&self) { let h = self.inner.lock(); touch(h); }\n}\nfn touch(g: usize) {}",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("re-entrant"));
    }

    #[test]
    fn receiver_chains_resolve_through_aliases() {
        // `self.inner` and bare `inner` both canonicalize to
        // serve.registry.inner; a held-across-fns false positive would
        // appear if fn boundaries didn't reset.
        let out = run(
            REGISTRY,
            "fn a(&self) { let g = self.inner.lock(); touch(g); }\nfn b(&self) { let g = inner.lock(); touch(g); }",
        );
        assert!(out.is_empty(), "unexpected findings: {out:?}");
    }
}
