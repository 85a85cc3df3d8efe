//! Blocking-in-hot-path: reachability from engine worker inner loops.
//!
//! A `ForecastEngine` worker that blocks — a mutex, a condvar wait, a
//! channel `recv`, file I/O, a sleep — stalls every request coalesced
//! behind it, so the worker inner loop and everything it reaches must
//! stay on the CPU. The roots come from
//! [`crate::LintConfig::hot_loop_roots`] (`(file suffix, fn name)`
//! pairs); shields are not honored — a caught panic does not unblock a
//! thread. The queue rendezvous itself (the bounded pop the loop parks
//! on) is the sanctioned exception and carries
//! `// lint: allow(blocking)` with a rationale.

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
        .filter(|(_, def)| {
            cfg.hot_loop_roots
                .iter()
                .any(|(file, name)| def.file.ends_with(file) && *name == def.item.name)
        })
        .map(|(id, _)| id)
        .collect();
    if roots.is_empty() {
        return;
    }
    let rule = "blocking";
    let parents = g.reachable(&roots, false);
    for &id in parents.keys() {
        let def = &g.tab.fns[id];
        let node = &g.nodes[id];
        if node.facts.blocking.is_empty() {
            continue;
        }
        let chain = g.chain(&parents, id);
        let root = chain.first().cloned().unwrap_or_default();
        let display = def.display();
        let ledger = &mut ledgers[def.file_idx].1;
        for s in &node.facts.blocking {
            if ledger.suppresses(rule, s.line) {
                continue;
            }
            let msg = if chain.len() > 1 {
                format!(
                    "{} reachable from hot loop `{root}`; workers must not block mid-batch",
                    s.what
                )
            } else {
                format!(
                    "{} in hot loop `{root}`; workers must not block mid-batch",
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

#[cfg(test)]
mod tests {
    use crate::report::Finding;
    use crate::{fixture_findings, LintConfig};

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        fixture_findings(files, &LintConfig::workspace(), &["blocking"])
    }

    const ENGINE: &str = "crates/serve/src/engine.rs";

    #[test]
    fn sleep_in_the_loop_and_lock_one_hop_below_fire() {
        let out = run(&[
            (
                ENGINE,
                "fn worker_loop(q: Q) { std::thread::sleep(d); helper(); }",
            ),
            (
                "crates/core/src/model.rs",
                "pub fn helper() { shared.lock().step(); }",
            ),
        ]);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().any(|f| f.message.contains("thread::sleep")));
        let lock = out
            .iter()
            .find(|f| f.message.contains("`.lock()`"))
            .expect("lock finding");
        assert_eq!(lock.chain, vec!["worker_loop", "helper"]);
    }

    #[test]
    fn near_miss_blocking_outside_the_loop_is_silent() {
        // Same file, but `submit` is not a hot-loop root and nothing the
        // loop reaches calls it.
        let out = run(&[(
            ENGINE,
            "fn worker_loop(q: Q) { step(); }\nfn step() {}\nfn submit(ch: C) { ch.recv(); }",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn allow_annotation_sanctions_the_rendezvous() {
        let out = run(&[(
            ENGINE,
            "fn worker_loop(q: Q) {\n  // lint: allow(blocking) — bounded-queue rendezvous, by design\n  q.recv();\n}",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }
}
