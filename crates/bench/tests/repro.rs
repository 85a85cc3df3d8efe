//! The whole `repro` suite at the test scale: every section writes its
//! files, `table2.csv` is the committed artefact byte for byte, and the
//! `aware_placement` section answers the same whether it reuses
//! `fig8_losses`' model or trains its own.

use pop_bench::repro;
use pop_core::ExperimentConfig;
use std::path::{Path, PathBuf};

/// Every file under `dir`, relative to it, sorted.
fn files_under(dir: &Path) -> Vec<String> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(at) = pending.pop() {
        for entry in std::fs::read_dir(&at).expect("readable dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let rel = path.strip_prefix(dir).expect("under dir");
                files.push(rel.to_string_lossy().into_owned());
            }
        }
    }
    files.sort();
    files
}

#[test]
#[ignore = "about 150 s in debug, about 10 s in release: cargo test --release -p pop-bench -- --ignored"]
fn the_suite_writes_every_artefact_and_the_committed_table2() {
    let root: PathBuf =
        std::env::temp_dir().join(format!("pop_repro_suite_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (cache, all, alone) = (root.join("cache"), root.join("all"), root.join("alone"));
    let config = ExperimentConfig::test();
    repro::run(&config, &cache, &all, &[] as &[&str]).expect("every section");

    let mut expected: Vec<String> = [
        "table2.csv",
        "speedup.csv",
        "baseline_rudy.csv",
        "fig7/truth.ppm",
        "fig8_l1_all_skip.csv",
        "fig8_no_l1.csv",
        "fig8_single_skip.csv",
        "fig9.csv",
        "sec52.csv",
        "realtime.csv",
        "aware_placement.csv",
        "figure2/a_img_floor.ppm",
        "figure2/b_img_place.ppm",
        "figure2/c_routing_result.ppm",
        "figure2/d_img_route.ppm",
        "figure2/e_difference.ppm",
        "figure2/fig4_connectivity_a.pgm",
        "figure2/fig4_connectivity_b.pgm",
    ]
    .map(String::from)
    .into();
    for variant in ["l1_all_skip", "no_l1", "single_skip"] {
        expected.push(format!("fig7/{variant}.ppm"));
    }
    for objective in [
        "Overall-Max",
        "Overall-Min",
        "Upper-Min",
        "Lower-Min",
        "Right-Min",
    ] {
        expected.push(format!("fig9/{objective}_output.ppm"));
        expected.push(format!("fig9/{objective}_truth.ppm"));
    }
    expected.sort();
    assert_eq!(expected.len(), 31);
    assert_eq!(files_under(&all), expected);

    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results/table2.csv");
    let read = |path: &Path| std::fs::read(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    assert!(
        read(&all.join("table2.csv")) == read(&committed),
        "table2.csv drifted from bench_results/table2.csv"
    );

    // Alone, aware_placement trains its own OR1200 model.
    repro::run(&config, &cache, &alone, &["aware_placement"]).expect("one section");
    assert_eq!(files_under(&alone), ["aware_placement.csv"]);
    assert_eq!(
        String::from_utf8(read(&alone.join("aware_placement.csv"))).unwrap(),
        String::from_utf8(read(&all.join("aware_placement.csv"))).unwrap(),
        "the shared fig8 model must answer as a model trained for aware_placement"
    );
    let _ = std::fs::remove_dir_all(&root);
}
