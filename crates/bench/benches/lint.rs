//! Lint self-benchmark: how long the interprocedural pass takes on this
//! workspace and how much of its call graph resolves to typed verdicts.
//!
//! Emits `BENCH_lint.json` (files/fns/call-site/edge counts, wall-clock
//! seconds, and the resolution rate) and asserts two floors: the
//! workspace lints clean, and the resolution rate stays above 0.65 —
//! the level where the transitive rules stay useful. A front-end
//! regression (parser misses items, symtab loses `use` edges) shows up
//! here as a rate drop before it shows up as silently-missed findings.
//!
//! Run with `cargo bench -p pop-bench --bench lint [-- --smoke]`.

use std::time::Instant;

/// The resolution-rate floor. Today's workspace resolves 71.2% of call
/// sites to a Precise workspace target or a proven-external method; the
/// floor leaves headroom for new code while catching wholesale breakage.
/// CI holds the rate tighter: a smoke run more than 0.01 below the
/// committed `BENCH_lint.json` fails.
const RESOLUTION_FLOOR: f64 = 0.65;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");

    let reps = if smoke { 1 } else { 3 };
    let mut best_secs = f64::INFINITY;
    let mut report = None;
    let mut graph = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let (r, g) = pop_lint::run_workspace_graph(&root).expect("workspace scans");
        best_secs = best_secs.min(t0.elapsed().as_secs_f64());
        report = Some(r);
        graph = Some(g);
    }
    let report = report.expect("at least one rep ran");
    let graph = graph.expect("at least one rep ran");
    let s = graph.stats;
    let rate = s.resolution_rate();

    println!(
        "lint bench ({}): {} files, {} fns, {} call sites, {} edges",
        if smoke { "smoke" } else { "full" },
        s.files,
        s.fns,
        s.call_sites,
        s.edges
    );
    println!(
        "lint pass: {best_secs:.3}s best of {reps}, resolution {:.1}%, {} findings",
        100.0 * rate,
        report.findings.len()
    );

    assert!(
        report.findings.is_empty(),
        "the workspace must lint clean inside the bench:\n{}",
        report.render()
    );
    assert!(
        rate >= RESOLUTION_FLOOR,
        "call-graph resolution rate {rate:.3} fell below the {RESOLUTION_FLOOR} floor — \
         the front end is losing type information"
    );

    let json = format!(
        "{{\n  \"bench\": \"lint\",\n  \"files\": {},\n  \"fns\": {},\n  \
         \"call_sites\": {},\n  \"edges\": {},\n  \"precise\": {},\n  \
         \"external\": {},\n  \"approx\": {},\n  \"approx_external\": {},\n  \
         \"resolution_rate\": {:.4},\n  \"resolution_floor\": {RESOLUTION_FLOOR},\n  \
         \"lint_seconds\": {best_secs:.4},\n  \"findings\": {},\n  \"allows\": {}\n}}\n",
        s.files,
        s.fns,
        s.call_sites,
        s.edges,
        s.precise,
        s.external,
        s.approx,
        s.approx_external,
        rate,
        report.findings.len(),
        report.allows.len(),
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_lint.json");
    std::fs::write(&out, &json).expect("write BENCH_lint.json");
    println!("wrote {}", out.display());
}
