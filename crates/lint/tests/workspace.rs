//! The lint's own acceptance gates: the workspace must lint clean, and a
//! deliberately injected nondeterminism leak in `core::dataset::fingerprint`
//! must fail the lint (proving the CI gate is live, not vacuous).

use pop_lint::context::SourceFile;
use pop_lint::{lint_files, read_inventories, run_workspace, run_workspace_graph, LintConfig};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn workspace_self_run_is_clean() {
    let report = run_workspace(&workspace_root()).expect("scan succeeds");
    assert!(
        report.findings.is_empty(),
        "workspace must lint clean:\n{}",
        report.render()
    );
    assert!(report.files_scanned > 100, "the walker saw the workspace");
    assert!(
        !report.unsafe_sites.is_empty() && !report.obs_names.is_empty(),
        "inventories are populated"
    );
    // The summary line is the exact string CI greps for.
    assert!(report.summary().starts_with("pop-lint: 0 findings"));
}

#[test]
fn every_scoped_path_exists() {
    // A rule scoped to a deleted file checks nothing and says so nowhere:
    // the file and prefix scopes must name paths in the workspace.
    let root = workspace_root();
    let config = LintConfig::workspace();
    let scoped = config
        .panic_files
        .iter()
        .chain(config.hot_loop_roots.iter().map(|(file, _)| file))
        .chain(&config.lock_prefixes)
        .chain(config.lock_aliases.iter().map(|a| &a.file_suffix));
    let missing: Vec<&String> = scoped.filter(|p| !root.join(p).exists()).collect();
    assert!(
        missing.is_empty(),
        "scoped paths that do not exist: {missing:?}"
    );
}

#[test]
fn every_declared_lock_is_taken() {
    // A lock order over names no acquisition produces checks nothing: the
    // config must describe the workspace's actual mutexes, each of them.
    let config = LintConfig::workspace();
    let (_, graph) = run_workspace_graph(&workspace_root()).expect("scan succeeds");
    let acquisitions: Vec<(&str, &str)> = graph
        .tab
        .fns
        .iter()
        .zip(&graph.nodes)
        .flat_map(|(def, node)| {
            let file = def.file.as_str();
            node.facts
                .lock_acquires
                .iter()
                .map(move |(lock, _)| (file, lock.as_str()))
        })
        .filter(|(file, _)| config.in_lock_scope(file))
        .collect();
    let untaken: Vec<&String> = config
        .lock_order
        .iter()
        .filter(|l| !acquisitions.iter().any(|(_, a)| a == l))
        .collect();
    assert!(
        untaken.is_empty(),
        "declared locks nothing acquires: {untaken:?}"
    );
    let undeclared: Vec<&(&str, &str)> = acquisitions
        .iter()
        .filter(|(_, a)| !config.lock_order.iter().any(|l| l == a))
        .collect();
    assert!(
        undeclared.is_empty(),
        "acquisitions outside the lock order: {undeclared:?}"
    );
    let empty: Vec<&String> = config
        .lock_prefixes
        .iter()
        .filter(|p| !acquisitions.iter().any(|(f, _)| f.starts_with(p.as_str())))
        .collect();
    assert!(
        empty.is_empty(),
        "lock prefixes without an acquisition: {empty:?}"
    );
}

#[test]
fn injected_wall_clock_in_fingerprint_fails_the_lint() {
    let root = workspace_root();
    let rel = "crates/core/src/dataset.rs";
    let original = std::fs::read_to_string(root.join(rel)).expect("dataset.rs readable");

    // Inject an `Instant::now()` into the body of `fn fingerprint` — the
    // exact leak the determinism rule exists to catch.
    let needle = "pub fn fingerprint(";
    let at = original.find(needle).expect("fingerprint fn present");
    let brace = original[at..].find('{').expect("fingerprint has a body") + at + 1;
    let mut poisoned = original.clone();
    poisoned.insert_str(brace, "\n    let _leak = std::time::Instant::now();\n");

    let report = lint_files(
        &[SourceFile::new(rel, poisoned)],
        &LintConfig::workspace(),
        &read_inventories(&root),
    );
    let wall_clock: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "wall_clock" && f.context == "fingerprint")
        .collect();
    assert!(
        !wall_clock.is_empty(),
        "an Instant::now() inside fingerprint() must fire wall_clock; got:\n{}",
        report.render()
    );
    // And the unpoisoned file must not fire it — the test isn't tautological.
    let clean = lint_files(
        &[SourceFile::new(rel, original)],
        &LintConfig::workspace(),
        &read_inventories(&root),
    );
    assert!(
        !clean
            .findings
            .iter()
            .any(|f| f.rule == "wall_clock" && f.context == "fingerprint"),
        "baseline fingerprint() must be clean"
    );
}

#[test]
fn injected_two_hop_system_time_helper_fails_the_lint() {
    // The acceptance shape for the transitive determinism rule: the leak
    // is NOT in `fingerprint` itself but in a helper it calls — the old
    // file-scoped rule would still have caught this (same file), the real
    // point is the chain in the finding.
    let root = workspace_root();
    let rel = "crates/core/src/dataset.rs";
    let original = std::fs::read_to_string(root.join(rel)).expect("dataset.rs readable");

    let needle = "pub fn fingerprint(";
    let at = original.find(needle).expect("fingerprint fn present");
    let brace = original[at..].find('{').expect("fingerprint has a body") + at + 1;
    let mut poisoned = original.clone();
    poisoned.insert_str(brace, "\n    let _salt = stamp_helper();\n");
    poisoned.push_str(
        "\nfn stamp_helper() -> u64 {\n    let _t = std::time::SystemTime::now();\n    0\n}\n",
    );

    let report = lint_files(
        &[SourceFile::new(rel, poisoned)],
        &LintConfig::workspace(),
        &read_inventories(&root),
    );
    let hit = report
        .findings
        .iter()
        .find(|f| f.rule == "wall_clock" && f.context == "stamp_helper")
        .unwrap_or_else(|| {
            panic!(
                "SystemTime::now() in a helper of fingerprint() must fire; got:\n{}",
                report.render()
            )
        });
    assert_eq!(
        hit.chain,
        vec!["fingerprint", "stamp_helper"],
        "the finding names the call chain"
    );
}

#[test]
fn injected_two_hop_unwrap_under_a_serve_handler_fails_the_lint() {
    // The acceptance shape for the transitive panic rule: the `.unwrap()`
    // lives in core — invisible to the old file-scoped rule — but a serve
    // handler newly calls into it.
    let root = workspace_root();
    let engine_rel = "crates/serve/src/engine.rs";
    let features_rel = "crates/core/src/features.rs";
    let engine = std::fs::read_to_string(root.join(engine_rel)).expect("engine.rs readable");
    let features = std::fs::read_to_string(root.join(features_rel)).expect("features.rs readable");

    let needle = "pub fn submit(";
    let at = engine.find(needle).expect("submit handler present");
    let brace = engine[at..].find('{').expect("submit has a body") + at + 1;
    let mut engine_poisoned = engine.clone();
    engine_poisoned.insert_str(brace, "\n        freshly_risky();\n");
    let mut features_poisoned = features.clone();
    features_poisoned.push_str(
        "\npub fn freshly_risky() {\n    let v: Option<u32> = None;\n    v.unwrap();\n}\n",
    );

    let report = lint_files(
        &[
            SourceFile::new(engine_rel, engine_poisoned),
            SourceFile::new(features_rel, features_poisoned),
        ],
        &LintConfig::workspace(),
        &read_inventories(&root),
    );
    let hit = report
        .findings
        .iter()
        .find(|f| f.rule == "panic_path" && f.file == features_rel && f.context == "freshly_risky")
        .unwrap_or_else(|| {
            panic!(
                "an unwrap() newly called from a serve handler must fire; got:\n{}",
                report.render()
            )
        });
    assert!(
        hit.chain.len() >= 2 && hit.chain.last().map(String::as_str) == Some("freshly_risky"),
        "the finding names the call chain ending at the helper: {:?}",
        hit.chain
    );
    // The unpoisoned pair stays free of that finding — not tautological.
    let clean = lint_files(
        &[
            SourceFile::new(engine_rel, engine),
            SourceFile::new(features_rel, features),
        ],
        &LintConfig::workspace(),
        &read_inventories(&root),
    );
    assert!(
        !clean.findings.iter().any(|f| f.context == "freshly_risky"),
        "baseline must not contain the injected helper"
    );
}

#[test]
fn report_json_round_trips_on_the_real_workspace() {
    let report = run_workspace(&workspace_root()).expect("scan succeeds");
    let json = report.to_validated_json().expect("self-validating JSON");
    assert!(json.contains("\"files_scanned\""));
}
