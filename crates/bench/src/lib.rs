//! The paper's evaluation, reproduced: one suite ([`repro`], run by the
//! `repro` binary) with a section per artefact of the paper's evaluation,
//! plus the scenario matrix (`eval_matrix`), the HTTP demo server
//! (`http_serve`), its load generator (`http_load`) and the Criterion
//! benches.
//!
//! | section            | paper artefact                                  |
//! |--------------------|--------------------------------------------------|
//! | `table2`           | Table 2 (Acc.1 / Acc.2 / Top10)                  |
//! | `speedup`          | §5.1 (routing vs inference runtime)              |
//! | `baseline_rudy`    | RUDY analytical baseline under Table 2's metrics |
//! | `fig7_ablation`    | Figure 7 (ablation heat maps)                    |
//! | `fig8_losses`      | Figure 8 (training-loss curves)                  |
//! | `fig9_constrained` | Figure 9 (constrained exploration)               |
//! | `sec52_grayscale`  | §5.2 (colour scheme vs grayscale)                |
//! | `realtime`         | §5.4 (forecast during annealing)                 |
//! | `aware_placement`  | §1 motivation (forecast-guided placement)        |
//! | `figure2`          | Figures 2 and 4 (motivating images)              |
//!
//! `cargo run --release --bin repro -- [section ...]` runs the named
//! sections (every one when none is named), always in the order above.
//! The experiment scale is selected with the `POP_SCALE` environment
//! variable: `test` (seconds), `quick` (default; minutes) or `paper`
//! (the paper-exact configuration — GPU-scale budgets required).
//! Datasets are cached under `POP_CACHE_DIR` (default `target/pop-cache`)
//! and outputs land in `POP_OUT_DIR` (default `bench_results/`).

use pop_core::ExperimentConfig;
use std::path::PathBuf;

pub mod repro;

/// Resolves the experiment configuration from `POP_SCALE`.
pub fn config_from_env() -> ExperimentConfig {
    match std::env::var("POP_SCALE").as_deref() {
        Ok("test") => ExperimentConfig::test(),
        Ok("paper") => ExperimentConfig::paper(),
        Ok("quick") | Err(_) => ExperimentConfig::quick(),
        Ok(other) => {
            eprintln!("unknown POP_SCALE '{other}', using quick");
            ExperimentConfig::quick()
        }
    }
}

/// Dataset cache directory (`POP_CACHE_DIR`, default `target/pop-cache`).
pub fn cache_dir() -> PathBuf {
    std::env::var("POP_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/pop-cache"))
}

/// Output directory for CSVs and images (`POP_OUT_DIR`, default
/// `bench_results`). Created on demand.
pub fn out_dir() -> PathBuf {
    let dir = std::env::var("POP_OUT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("bench_results"));
    std::fs::create_dir_all(&dir).expect("create output dir");
    dir
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f32) -> String {
    format!("{:.1}%", x * 100.0)
}

/// One paper-reported Table 2 row:
/// `(design, luts, ffs, nets, pairs, acc1, acc2, top10)`.
pub type PaperRow = (&'static str, usize, usize, usize, usize, f32, f32, f32);

/// Paper-reported Table 2 values for side-by-side printing.
pub const PAPER_TABLE2: [PaperRow; 8] = [
    ("diffeq1", 563, 193, 2_059, 200, 0.672, 0.689, 0.50),
    ("diffeq2", 419, 96, 1_560, 200, 0.653, 0.659, 0.40),
    ("raygentop", 1_920, 1_047, 5_023, 200, 0.681, 0.771, 0.70),
    ("SHA", 2_501, 911, 10_910, 200, 0.433, 0.610, 0.40),
    ("OR1200", 2_823, 670, 12_336, 200, 0.646, 0.676, 0.90),
    ("ode", 5_488, 1_316, 20_981, 200, 0.749, 0.759, 0.80),
    ("dcsg", 9_088, 1_618, 36_912, 200, 0.714, 0.854, 0.80),
    ("bfly", 9_503, 1_748, 38_582, 200, 0.715, 0.765, 0.70),
];

#[cfg(test)]
mod tests {
    use super::*;
    use pop_netlist::presets;

    #[test]
    fn env_config_defaults_to_quick() {
        std::env::remove_var("POP_SCALE");
        assert_eq!(config_from_env(), ExperimentConfig::quick());
    }

    #[test]
    fn paper_table_matches_preset_names() {
        let names: Vec<&str> = PAPER_TABLE2.iter().map(|r| r.0).collect();
        for n in names {
            assert!(presets::by_name(n).is_some(), "{n}");
        }
    }
}
