//! Lock-order check for `pop-exec` and `pop-serve`.
//!
//! Mutex acquisition sites (`….lock()`) are recorded per function.
//! Receivers map to canonical lock names through a small alias table
//! (e.g. `self.inner` in `serve/src/registry.rs` is
//! `serve.registry.inner`), and nested acquisitions are checked against
//! the declared outer→inner order in [`crate::LintConfig::lock_order`].
//! An inversion — or a nested acquisition involving a lock the order
//! doesn't declare, or re-locking a lock already held — is a deadlock
//! waiting for the right interleaving, and fires `lock_order`.
//!
//! Guard liveness is approximated without an AST: a `let`-bound guard
//! lives until its enclosing block closes or an explicit `drop(name)`;
//! a temporary guard (`self.inner.lock().…;`) lives to the end of its
//! statement.

use crate::context::{AllowLedger, FileCx};
use crate::lexer::Kind;
use crate::report::Finding;
use crate::LintConfig;

/// A currently-held guard during the scan.
struct Held {
    canonical: String,
    line: u32,
    /// `let`-bound name, if any (enables `drop(name)` release).
    bound: Option<String>,
    /// Brace depth at acquisition; a `}` closing below this releases it.
    depth: usize,
    /// Temporaries die at the next `;`.
    temp: bool,
}

pub fn check(cx: &FileCx, cfg: &LintConfig, ledger: &mut AllowLedger, out: &mut Vec<Finding>) {
    if !cfg.in_lock_scope(&cx.file.rel_path) {
        return;
    }
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0usize;
    let mut current_fn: Option<u32> = None;
    for (pos, &i) in cx.code.iter().enumerate() {
        let tok = &cx.toks[i];
        // Reset at function boundaries: held guards never cross fns.
        let fn_id = cx.fn_id(i);
        if fn_id != current_fn {
            current_fn = fn_id;
            held.clear();
        }
        if cx.is_test(i) {
            continue;
        }
        match (tok.kind, cx.text(tok)) {
            (Kind::Punct, "{") => depth += 1,
            (Kind::Punct, "}") => {
                depth = depth.saturating_sub(1);
                held.retain(|h| h.depth <= depth);
            }
            (Kind::Punct, ";") => held.retain(|h| !h.temp),
            (Kind::Ident, "drop") => {
                // `drop(name)` releases a bound guard early.
                if let (Some("("), Some(arg), Some(")")) = (
                    cx.code.get(pos + 1).map(|&n| cx.text(&cx.toks[n])),
                    cx.code.get(pos + 2).map(|&n| cx.text(&cx.toks[n])),
                    cx.code.get(pos + 3).map(|&n| cx.text(&cx.toks[n])),
                ) {
                    held.retain(|h| h.bound.as_deref() != Some(arg));
                }
            }
            (Kind::Ident, "lock") => {
                let prev = pos.checked_sub(1).map(|p| cx.text(&cx.toks[cx.code[p]]));
                let next = cx.code.get(pos + 1).map(|&n| cx.text(&cx.toks[n]));
                let next2 = cx.code.get(pos + 2).map(|&n| cx.text(&cx.toks[n]));
                if prev != Some(".") || next != Some("(") || next2 != Some(")") {
                    continue;
                }
                let receiver = receiver_chain(cx, pos - 1);
                let canonical = cfg.canonical_lock(&cx.file.rel_path, &receiver);
                for h in &held {
                    let verdict = order_verdict(cfg, &h.canonical, &canonical);
                    if let Some(msg) = verdict {
                        if !ledger.suppresses("lock_order", tok.line) {
                            out.push(Finding::new(
                                "lock_order",
                                &cx.file.rel_path,
                                tok.line,
                                cx.enclosing_fn(i),
                                format!("{msg} (holding `{}` since line {})", h.canonical, h.line),
                            ));
                        }
                    }
                }
                let bound = let_binding(cx, pos);
                held.push(Held {
                    canonical,
                    line: tok.line,
                    temp: bound.is_none(),
                    bound,
                    depth,
                });
            }
            _ => {}
        }
    }
}

/// Cross-function lock-order check on the call graph: a call made while
/// holding a lock is charged with every lock its (transitive) callees
/// acquire, and the held→acquired pair is checked against the declared
/// order — catching an inversion split across two fns, which the
/// intra-fn scan above cannot see.
///
/// Only `Precise` call edges participate: an over-approximated
/// name-match edge would manufacture deadlock reports between unrelated
/// types. Guards acquired *at* the checked call site itself (a helper
/// that returns the guard, `fn lock(&self) -> MutexGuard<'_, T>`) are
/// skipped — the acquisition and the call are the same event, not a
/// nesting.
pub fn check_cross(
    g: &crate::graph::CallGraph,
    cfg: &LintConfig,
    ledgers: &mut [(String, AllowLedger)],
    out: &mut Vec<Finding>,
) {
    use std::collections::BTreeMap;
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
                if call.verdict != crate::graph::Verdict::Precise {
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
    let mut seen: std::collections::BTreeSet<(String, u32, String, String)> =
        std::collections::BTreeSet::new();
    for f in 0..n {
        let def = &g.tab.fns[f];
        for call in &g.nodes[f].calls {
            if call.verdict != crate::graph::Verdict::Precise || call.held.is_empty() {
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

pub(crate) fn order_verdict(cfg: &LintConfig, holding: &str, acquiring: &str) -> Option<String> {
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

/// The dotted receiver chain ending at the `.` before `lock`, e.g.
/// `self.inner` for `self.inner.lock()`. Call results (`registry().lock()`)
/// reduce to the called name.
pub(crate) fn receiver_chain(cx: &FileCx, dot_pos: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut p = dot_pos; // points at the `.` in `code`
    while let Some(prev) = p.checked_sub(1) {
        let tok = &cx.toks[cx.code[prev]];
        match (tok.kind, cx.text(tok)) {
            (Kind::Ident, name) => {
                parts.push(name.to_string());
                // Continue only through a `.` chain.
                match prev.checked_sub(1).map(|q| cx.text(&cx.toks[cx.code[q]])) {
                    Some(".") => p = prev - 1,
                    _ => break,
                }
            }
            (Kind::Punct, ")") | (Kind::Punct, "]") => {
                // Skip the balanced group, then take the name before it.
                let mut depth = 0isize;
                let mut q = prev;
                loop {
                    match cx.text(&cx.toks[cx.code[q]]) {
                        ")" | "]" => depth += 1,
                        "(" | "[" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    let Some(qq) = q.checked_sub(1) else { break };
                    q = qq;
                }
                let Some(before) = q.checked_sub(1) else {
                    break;
                };
                let t = &cx.toks[cx.code[before]];
                if t.kind == Kind::Ident {
                    parts.push(cx.text(t).to_string());
                }
                break;
            }
            _ => break,
        }
    }
    parts.reverse();
    parts.join(".")
}

/// Looks back from `lock` at `code[pos]` for a `let [mut] name = receiver…`
/// statement head; returns the bound name.
pub(crate) fn let_binding(cx: &FileCx, pos: usize) -> Option<String> {
    // Walk back to the statement boundary.
    let mut p = pos;
    let mut eq: Option<usize> = None;
    while let Some(prev) = p.checked_sub(1) {
        let t = &cx.toks[cx.code[prev]];
        match (t.kind, cx.text(t)) {
            (Kind::Punct, ";") | (Kind::Punct, "{") | (Kind::Punct, "}") => {
                p = prev;
                break;
            }
            (Kind::Punct, "=") => eq = Some(prev),
            _ => {}
        }
        p = prev;
        if p == 0 {
            break;
        }
    }
    let eq = eq?;
    // Statement head is at `p` (just after the boundary); expect
    // `let [mut] name =` ending at `eq`.
    let head = if cx.text(&cx.toks[cx.code[p]]) == ";"
        || cx.text(&cx.toks[cx.code[p]]) == "{"
        || cx.text(&cx.toks[cx.code[p]]) == "}"
    {
        p + 1
    } else {
        p
    };
    if cx.text(&cx.toks[cx.code[head]]) != "let" {
        return None;
    }
    let mut n = head + 1;
    if cx.text(&cx.toks[cx.code[n]]) == "mut" {
        n += 1;
    }
    let name_tok = &cx.toks[cx.code[n]];
    if name_tok.kind == Kind::Ident && n < eq {
        Some(cx.text(name_tok).to_string())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SourceFile;
    use crate::LintConfig;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let file = SourceFile::new(path, src);
        let cx = FileCx::new(&file);
        let mut ledger = AllowLedger::new(&cx.allows);
        let mut out = Vec::new();
        check(&cx, &LintConfig::workspace(), &mut ledger, &mut out);
        out
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
        let sources: Vec<SourceFile> = files.iter().map(|(p, s)| SourceFile::new(*p, *s)).collect();
        let cxs: Vec<FileCx> = sources.iter().map(FileCx::new).collect();
        let mut ledgers: Vec<(String, AllowLedger)> = cxs
            .iter()
            .map(|cx| (cx.file.rel_path.clone(), AllowLedger::new(&cx.allows)))
            .collect();
        let parsed: Vec<(String, crate::parser::FileItems)> = cxs
            .iter()
            .map(|cx| (cx.file.rel_path.clone(), crate::parser::parse(cx)))
            .collect();
        let tab = crate::symtab::SymTab::build(&parsed);
        let g = crate::graph::CallGraph::build(&cxs, &parsed, tab, &LintConfig::workspace());
        let mut out = Vec::new();
        check_cross(&g, &LintConfig::workspace(), &mut ledgers, &mut out);
        out
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
