//! `pop-lint`: workspace-aware static analysis for the invariants no
//! compiler checks — determinism of fingerprint/cache-key code, a
//! documented-and-inventoried `unsafe` surface, panic-free serve/exec hot
//! paths, a canonical metric/span name registry, and a declared mutex
//! order.
//!
//! Zero dependencies beyond `pop-obs` (whose hand-rolled JSON writer and
//! parser serialize and self-validate the [`report::LintReport`]). Runs
//! as `cargo run -p pop-lint` and as a library (`lint_files`) for
//! fixture tests.

pub mod context;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod symtab;

use context::{AllowLedger, FileCx, SourceFile};
use report::{AllowEntry, Finding, LintReport};
use std::io;
use std::path::{Path, PathBuf};

/// A lock-receiver alias: in files ending with `file_suffix`, a `.lock()`
/// receiver whose final segment is one of `receivers` is the lock named
/// `canonical`.
#[derive(Debug, Clone)]
pub struct LockAlias {
    pub file_suffix: String,
    pub receivers: Vec<String>,
    pub canonical: String,
}

impl LockAlias {
    pub(crate) fn new(file_suffix: &str, receivers: &[&str], canonical: &str) -> Self {
        LockAlias {
            file_suffix: file_suffix.to_string(),
            receivers: receivers.iter().map(|r| r.to_string()).collect(),
            canonical: canonical.to_string(),
        }
    }
}

/// Rule scoping: which files each rule family applies to, the declared
/// lock order, and the receiver→lock alias table.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Determinism roots by fn name: anything these fns reach (plus any fn
    /// folding a `Fnv1a`) may not read wall clocks or iterate
    /// order-sensitive collections.
    pub determinism_roots: Vec<String>,
    /// Hot-loop roots `(file suffix, fn name)`: anything these fns reach
    /// may not block (locks, condvar waits, channel recv, file I/O).
    pub hot_loop_roots: Vec<(String, String)>,
    /// Request-handling / queue hot-path files (suffix match): fns defined
    /// here are panic-rule roots — nothing they reach may panic.
    pub panic_files: Vec<String>,
    /// Path prefixes whose `.lock()` sites feed the lock-order check.
    pub lock_prefixes: Vec<String>,
    /// Path prefixes excluded from metric/span name extraction (the obs
    /// substrate itself, and this crate's fixtures).
    pub names_exclude_prefixes: Vec<String>,
    /// Declared outer→inner lock order, by canonical name.
    pub lock_order: Vec<String>,
    pub lock_aliases: Vec<LockAlias>,
}

impl LintConfig {
    /// The workspace's own scoping — the config `cargo run -p pop-lint`
    /// uses.
    pub fn workspace() -> Self {
        LintConfig {
            determinism_roots: vec!["fingerprint".into(), "baseline_fingerprint".into()],
            hot_loop_roots: vec![("crates/serve/src/engine.rs".into(), "worker_loop".into())],
            panic_files: vec![
                "crates/serve/src/engine.rs".into(),
                "crates/serve/src/queue.rs".into(),
                "crates/serve/src/lib.rs".into(),
                "crates/exec/src/queue.rs".into(),
                "crates/exec/src/parked.rs".into(),
                // The HTTP connection handlers: a panic here kills a
                // connection worker, so the whole request path is rooted.
                "crates/http/src/server.rs".into(),
                "crates/http/src/service.rs".into(),
                // The on-disk codec every cache and checkpoint load decodes
                // through: hostile bytes must come back as an error.
                "crates/core/src/codec.rs".into(),
            ],
            lock_prefixes: vec!["crates/exec/src/".into(), "crates/serve/src/".into()],
            names_exclude_prefixes: vec!["crates/obs/".into(), "crates/lint/".into()],
            // Outer→inner: serve may reach into exec primitives, never the
            // reverse. No two of these nest today (the engine drops its
            // caller count before it looks at the queue).
            lock_order: vec![
                "serve.engine.callers".into(),
                "exec.queue.state".into(),
                "exec.parked.mutex".into(),
                "exec.scoped.slot".into(),
            ],
            lock_aliases: vec![
                // `BoundedQueue::lock(&self)` wraps `self.state.lock()`, so
                // a bare `self.lock()` in this file takes the same mutex.
                LockAlias::new(
                    "crates/exec/src/queue.rs",
                    &["state", "self"],
                    "exec.queue.state",
                ),
                // Every mutex here (the pool state, a fork's two slots) is
                // taken through the one `lock(mutex)` helper: one name.
                LockAlias::new("crates/exec/src/parked.rs", &["mutex"], "exec.parked.mutex"),
                LockAlias::new("crates/exec/src/scoped.rs", &["slots"], "exec.scoped.slot"),
                LockAlias::new(
                    "crates/serve/src/engine.rs",
                    &["callers"],
                    "serve.engine.callers",
                ),
            ],
        }
    }

    pub fn in_panic_scope(&self, rel_path: &str) -> bool {
        self.panic_files.iter().any(|f| rel_path.ends_with(f))
    }

    pub fn in_lock_scope(&self, rel_path: &str) -> bool {
        self.lock_prefixes.iter().any(|p| rel_path.starts_with(p))
    }

    pub fn in_names_scope(&self, rel_path: &str) -> bool {
        !self
            .names_exclude_prefixes
            .iter()
            .any(|p| rel_path.starts_with(p))
    }

    /// Canonical lock name for a `.lock()` receiver chain in `rel_path`.
    pub fn canonical_lock(&self, rel_path: &str, receiver: &str) -> String {
        let last = receiver.rsplit('.').next().unwrap_or(receiver);
        for a in &self.lock_aliases {
            if rel_path.ends_with(&a.file_suffix)
                && a.receivers.iter().any(|r| r == last || r == receiver)
            {
                return a.canonical.clone();
            }
        }
        if receiver.is_empty() {
            "unknown".to_string()
        } else {
            receiver.to_string()
        }
    }
}

/// The committed inventories the lint diffs against.
#[derive(Debug, Clone, Default)]
pub struct Inventories {
    pub unsafe_sites: Vec<String>,
    pub obs_names: Vec<String>,
}

impl Inventories {
    /// Parses an inventory markdown file: entries are `- ` bullet lines,
    /// everything else is prose.
    pub fn parse_md(text: &str) -> Vec<String> {
        text.lines()
            .filter_map(|l| l.strip_prefix("- "))
            .map(|l| l.trim().to_string())
            .filter(|l| !l.is_empty())
            .collect()
    }
}

/// Lints a set of in-memory files. The library entry point fixture tests
/// and [`run_workspace`] both go through.
pub fn lint_files(files: &[SourceFile], cfg: &LintConfig, inv: &Inventories) -> LintReport {
    lint_files_graph(files, cfg, inv).0
}

/// [`lint_files`] plus the call graph it was computed on (for
/// `--graph-out` dumps and the lint bench).
pub fn lint_files_graph(
    files: &[SourceFile],
    cfg: &LintConfig,
    inv: &Inventories,
) -> (LintReport, graph::CallGraph) {
    let mut report = LintReport::default();
    let mut unsafe_sites: Vec<rules::unsafe_audit::UnsafeSite> = Vec::new();
    let mut obs_names: Vec<rules::names::ObsName> = Vec::new();

    // The front end: each file lexed, marked and parsed once.
    let cxs: Vec<FileCx> = files.iter().map(FileCx::new).collect();
    let mut ledgers: Vec<(String, AllowLedger)> = cxs
        .iter()
        .map(|cx| (cx.file.rel_path.clone(), AllowLedger::new(&cx.allows)))
        .collect();

    // Per-file syntactic passes.
    for cx in &cxs {
        rules::unsafe_audit::check(cx, &mut report.findings, &mut unsafe_sites);
        rules::names::extract(cx, cfg, &mut obs_names);
        for a in &cx.allows {
            report.allows.push(AllowEntry {
                rule: a.rule.clone(),
                file: cx.file.rel_path.clone(),
                line: a.line,
            });
        }
    }

    // Interprocedural passes: build the symbol table and the call graph,
    // then run the reachability rules on it.
    let graph = {
        let _span = pop_obs::span!("lint_graph_build");
        graph::CallGraph::build(&cxs, cfg)
    };
    {
        let _span = pop_obs::span!("lint_graph_rules");
        rules::determinism::check(&graph, cfg, &mut ledgers, &mut report.findings);
        rules::panic_path::check(&graph, cfg, &mut ledgers, &mut report.findings);
        rules::blocking::check(&graph, cfg, &mut ledgers, &mut report.findings);
        rules::locks::check(&graph, cfg, &mut ledgers, &mut report.findings);
    }

    rules::unsafe_audit::diff_inventory(&unsafe_sites, &inv.unsafe_sites, &mut report.findings);
    {
        let mut lookup = rules::names::ledger_adapter(&mut ledgers);
        rules::names::diff_inventory(
            &obs_names,
            &inv.obs_names,
            &mut lookup,
            &mut report.findings,
        );
    }

    // An allow that suppressed nothing is itself a finding: stale escape
    // hatches re-open holes silently.
    for (cx, (file, ledger)) in cxs.iter().zip(&ledgers) {
        for (a, &used) in cx.allows.iter().zip(&ledger.used) {
            if !used {
                report.findings.push(Finding::new(
                    "unused_allow",
                    file,
                    a.line,
                    None,
                    format!("`lint: allow({})` suppresses nothing; remove it", a.rule),
                ));
            }
        }
    }

    report.unsafe_sites = unsafe_sites
        .iter()
        .map(rules::unsafe_audit::UnsafeSite::entry)
        .collect();
    report.unsafe_sites.sort();
    report.obs_names = rules::names::regenerate(&obs_names);
    report.files_scanned = files.len();
    report.finalize();
    (report, graph)
}

/// Collects the workspace's lintable sources: `crates/*/{src,tests,benches}`
/// plus the facade's `src/`, `examples/` and `tests/`. Shims and `target/`
/// are out of scope.
pub fn workspace_files(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let dir = entry?.path();
            for sub in ["src", "tests", "benches"] {
                collect_rs(&dir.join(sub), &mut paths)?;
            }
        }
    }
    for sub in ["src", "examples", "tests"] {
        collect_rs(&root.join(sub), &mut paths)?;
    }
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push(SourceFile::new(rel, std::fs::read_to_string(&p)?));
    }
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Reads the committed inventories from `root` (absent files mean empty).
pub fn read_inventories(root: &Path) -> Inventories {
    let read = |name: &str| {
        std::fs::read_to_string(root.join(name))
            .map(|t| Inventories::parse_md(&t))
            .unwrap_or_default()
    };
    Inventories {
        unsafe_sites: read("UNSAFE_INVENTORY.md"),
        obs_names: read("OBS_NAMES.md"),
    }
}

/// Full workspace run with the workspace config and committed inventories.
pub fn run_workspace(root: &Path) -> io::Result<LintReport> {
    Ok(run_workspace_graph(root)?.0)
}

/// [`run_workspace`] plus the call graph (for `--graph-out`).
pub fn run_workspace_graph(root: &Path) -> io::Result<(LintReport, graph::CallGraph)> {
    let files = workspace_files(root)?;
    Ok(lint_files_graph(
        &files,
        &LintConfig::workspace(),
        &read_inventories(root),
    ))
}

/// Regenerates `UNSAFE_INVENTORY.md` and `OBS_NAMES.md` from a report.
pub fn write_inventories(root: &Path, report: &LintReport) -> io::Result<()> {
    let mut unsafe_md = String::from(
        "# Unsafe inventory\n\n\
         Every `unsafe` site in non-test workspace code, regenerated by\n\
         `cargo run -p pop-lint -- --write-inventories` and diffed on every\n\
         lint run. Entries are `file · context · SAFETY summary`; a new or\n\
         vanished site fails the lint until this file is re-committed.\n\n",
    );
    for entry in &report.unsafe_sites {
        unsafe_md.push_str(&format!("- {entry}\n"));
    }
    std::fs::write(root.join("UNSAFE_INVENTORY.md"), unsafe_md)?;

    let mut names_md = String::from(
        "# Observability name registry\n\n\
         The canonical metric/span name surface: every `counter`/`gauge`/\n\
         `histogram` registration and `span!` literal in the workspace,\n\
         regenerated by `cargo run -p pop-lint -- --write-inventories`.\n\
         `*` is a one-segment wildcard for `format!`-templated names. A\n\
         name not in this file is a typo until proven otherwise — dashboards\n\
         and downstream consumers key off these exact strings.\n\n",
    );
    for entry in &report.obs_names {
        names_md.push_str(&format!("- {entry}\n"));
    }
    std::fs::write(root.join("OBS_NAMES.md"), names_md)
}

/// Lints in-memory `(path, source)` fixtures under `cfg` and keeps the
/// findings of `rules`: the rule modules' tests run the whole lint.
#[cfg(test)]
pub(crate) fn fixture_findings(
    files: &[(&str, &str)],
    cfg: &LintConfig,
    rules: &[&str],
) -> Vec<Finding> {
    let files: Vec<SourceFile> = files.iter().map(|(p, s)| SourceFile::new(*p, *s)).collect();
    let mut report = lint_files(&files, cfg, &Inventories::default());
    report.findings.retain(|f| rules.contains(&f.rule.as_str()));
    report.findings
}

/// The workspace config with the lock fixtures' `serve/src/registry.rs`
/// order: its `inner` mutex (also taken through a `self.lock()` helper)
/// before a model's.
#[cfg(test)]
pub(crate) fn lock_fixture_config() -> LintConfig {
    const REGISTRY: &str = "crates/serve/src/registry.rs";
    let mut cfg = LintConfig::workspace();
    cfg.lock_order = vec![
        "serve.registry.inner".into(),
        "core.forecaster.model".into(),
    ];
    cfg.lock_aliases.extend([
        LockAlias::new(REGISTRY, &["inner", "self"], "serve.registry.inner"),
        LockAlias::new(REGISTRY, &["model"], "core.forecaster.model"),
    ]);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_md_parses_bullets_only() {
        let entries = Inventories::parse_md(
            "# Title\nprose line\n- counter pipeline.jobs\n-not a bullet\n- \n- span place\n",
        );
        assert_eq!(entries, vec!["counter pipeline.jobs", "span place"]);
    }

    #[test]
    fn unused_allow_is_a_finding() {
        let files = vec![SourceFile::new(
            "crates/place/src/anneal.rs",
            "// lint: allow(wall_clock)\nfn f() {}\n",
        )];
        let report = lint_files(&files, &LintConfig::workspace(), &Inventories::default());
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "unused_allow");
        assert_eq!(report.allows.len(), 1, "allow still inventoried");
    }

    #[test]
    fn used_allow_is_inventoried_but_not_a_finding() {
        let files = vec![SourceFile::new(
            "crates/core/src/dataset.rs",
            "pub fn fingerprint() -> u64 {\n  // lint: allow(wall_clock) — provenance\n  let t = std::time::SystemTime::now();\n  0\n}\n",
        )];
        let report = lint_files(&files, &LintConfig::workspace(), &Inventories::default());
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.allows.len(), 1);
    }

    #[test]
    fn cross_file_inventory_diffs_reach_the_report() {
        let files = vec![SourceFile::new(
            "crates/nn/src/quant.rs",
            "fn f(p: *const u8) -> u8 {\n  // SAFETY: caller checked.\n  unsafe { *p }\n}\n",
        )];
        let inv = Inventories {
            unsafe_sites: vec![],
            obs_names: vec!["counter ghost.metric".into()],
        };
        let report = lint_files(&files, &LintConfig::workspace(), &inv);
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"unsafe_inventory"), "{rules:?}");
        assert!(rules.contains(&"obs_name"), "{rules:?}");
        assert_eq!(report.unsafe_sites.len(), 1);
    }
}
