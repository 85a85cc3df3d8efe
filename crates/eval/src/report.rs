//! The results side of the harness: per-cell metric statistics, the K×K
//! matrix, the diagonal-vs-off-diagonal generalization gap and a
//! dependency-free JSON emitter for `BENCH_eval.json`.

use pop_core::EvalReport;
use pop_obs::json::str_lit;
use pop_pipeline::GenStats;

/// The metric names of one matrix cell, in [`CellMetrics::to_array`]
/// order — the canonical key order of the JSON output.
pub const METRIC_NAMES: [&str; 7] = [
    "acc1",
    "acc2",
    "chan_acc1",
    "top",
    "pearson",
    "spearman",
    "nrms",
];

/// One cell's metrics (one train-scenario → eval-scenario pairing, one
/// replicate): the Table 2 quantities generalised across scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CellMetrics {
    /// Per-pixel accuracy of the as-trained model on the eval split
    /// (Table 2 "Acc.1", strategy 1).
    pub acc1: f32,
    /// Per-pixel accuracy after fine-tuning on a few eval-split pairs,
    /// measured on the remaining pairs (Table 2 "Acc.2", strategy 2).
    pub acc2: f32,
    /// Strategy-1 accuracy over routing-channel pixels only — the
    /// like-for-like detail comparison against the RUDY baseline (whose
    /// full-image accuracy gets every block tile free).
    pub chan_acc1: f32,
    /// Top-k min-congestion retrieval overlap of the strategy-2 model
    /// over the full eval split (the paper computes Top10 the same way).
    pub top: f32,
    /// Pearson correlation of predicted vs routed congestion (strategy 2).
    pub pearson: f32,
    /// Spearman rank correlation (strategy 2).
    pub spearman: f32,
    /// NRMS pixel error of the as-trained model (lower is better — the
    /// one matrix metric where the generalization gap is negative).
    pub nrms: f32,
}

impl CellMetrics {
    /// The metrics in [`METRIC_NAMES`] order.
    pub fn to_array(self) -> [f32; 7] {
        [
            self.acc1,
            self.acc2,
            self.chan_acc1,
            self.top,
            self.pearson,
            self.spearman,
            self.nrms,
        ]
    }

    /// Rebuilds from [`METRIC_NAMES`] order.
    pub fn from_array(a: [f32; 7]) -> Self {
        CellMetrics {
            acc1: a[0],
            acc2: a[1],
            chan_acc1: a[2],
            top: a[3],
            pearson: a[4],
            spearman: a[5],
            nrms: a[6],
        }
    }

    /// Whether every metric is a finite number.
    pub fn is_finite(&self) -> bool {
        self.to_array().iter().all(|v| v.is_finite())
    }
}

/// Seed-replicated statistics of one matrix cell: the metric means and
/// their 95 % confidence half-widths (normal approximation,
/// `1.96·s/√n`; zero for a single replicate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellStats {
    /// Per-metric mean over the replicates.
    pub mean: CellMetrics,
    /// Per-metric 95 % confidence half-width over the replicates.
    pub ci95: CellMetrics,
    /// How many replicates the statistics summarise.
    pub replicates: usize,
}

impl CellStats {
    /// Aggregates one cell's replicate outcomes.
    ///
    /// # Panics
    ///
    /// Panics on an empty replicate slice (the harness always evaluates
    /// at least one replicate per cell).
    pub fn from_replicates(outcomes: &[CellMetrics]) -> Self {
        assert!(!outcomes.is_empty(), "a cell needs at least one replicate");
        let n = outcomes.len();
        let mut mean = [0.0f64; 7];
        for o in outcomes {
            for (m, v) in mean.iter_mut().zip(o.to_array()) {
                *m += v as f64;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }
        let mut ci = [0.0f64; 7];
        if n > 1 {
            for o in outcomes {
                for ((c, m), v) in ci.iter_mut().zip(&mean).zip(o.to_array()) {
                    *c += (v as f64 - m).powi(2);
                }
            }
            for c in &mut ci {
                // Sample std dev → normal-approximation 95 % half-width.
                *c = 1.96 * (*c / (n - 1) as f64).sqrt() / (n as f64).sqrt();
            }
        }
        CellStats {
            mean: CellMetrics::from_array(mean.map(|v| v as f32)),
            ci95: CellMetrics::from_array(ci.map(|v| v as f32)),
            replicates: n,
        }
    }

    /// Whether both the means and the confidence widths are finite.
    pub fn is_finite(&self) -> bool {
        self.mean.is_finite() && self.ci95.is_finite()
    }
}

/// The K×K cross-scenario generalization matrix: every per-scenario model
/// scored against every scenario's held-out split, with seed-replicated
/// confidence intervals per cell.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalMatrix {
    /// Scenario names, indexing both matrix axes (row = trained-on,
    /// column = evaluated-on).
    pub scenarios: Vec<String>,
    /// Image resolution shared by every scenario in the matrix.
    pub resolution: usize,
    /// Training epochs each model streamed through the prefetcher.
    pub train_epochs: usize,
    /// Held-out placements per design variant in each eval split.
    pub eval_pairs: usize,
    /// Seed replicates behind each cell's statistics.
    pub replicates: usize,
    /// `cells[i][j]` = model trained on scenario `i`, evaluated on
    /// scenario `j`'s held-out split.
    pub cells: Vec<Vec<CellStats>>,
    /// Per-eval-scenario RUDY baseline (`None` when disabled), scored
    /// with the *same* [`MetricSet`](pop_core::MetricSet) as the learned
    /// cells — same tolerance, same retrieval-set size, same rank
    /// correlations — so every comparison against it is like-for-like.
    /// Its `accuracy` is still structurally inflated (RUDY renders block
    /// tiles through the ground-truth pipeline); `channel_accuracy` and
    /// the rank metrics are the fair fields.
    pub baseline: Vec<Option<EvalReport>>,
    /// Accumulated generation counters over every training epoch and
    /// every hold-out split — [`GenStats::fully_warm`] on a warm re-run.
    pub corpus: GenStats,
}

impl EvalMatrix {
    /// Number of scenarios (the matrix is `k() × k()`).
    pub fn k(&self) -> usize {
        self.scenarios.len()
    }

    /// Per-metric mean over the diagonal cells (train = eval: the
    /// classic single-distribution Table 2 setting).
    pub fn diagonal_mean(&self) -> CellMetrics {
        self.mean_where(|i, j| i == j)
            .expect("a matrix always has a diagonal")
    }

    /// Per-metric mean over the off-diagonal cells (train ≠ eval: the
    /// distribution-shift setting); `None` for a 1×1 matrix.
    pub fn off_diagonal_mean(&self) -> Option<CellMetrics> {
        self.mean_where(|i, j| i != j)
    }

    /// The generalization gap: diagonal mean − off-diagonal mean, per
    /// metric. Positive for the accuracy/rank metrics means models score
    /// higher on their own distribution than on foreign ones (for `nrms`,
    /// lower is better, so in-distribution advantage shows as a
    /// *negative* gap). `None` for a 1×1 matrix.
    pub fn generalization_gap(&self) -> Option<CellMetrics> {
        let diag = self.diagonal_mean().to_array();
        let off = self.off_diagonal_mean()?.to_array();
        let mut gap = [0.0f32; 7];
        for ((g, d), o) in gap.iter_mut().zip(diag).zip(off) {
            *g = d - o;
        }
        Some(CellMetrics::from_array(gap))
    }

    fn mean_where(&self, select: impl Fn(usize, usize) -> bool) -> Option<CellMetrics> {
        let mut sum = [0.0f64; 7];
        let mut n = 0usize;
        for (i, row) in self.cells.iter().enumerate() {
            for (j, cell) in row.iter().enumerate() {
                if select(i, j) {
                    for (s, v) in sum.iter_mut().zip(cell.mean.to_array()) {
                        *s += v as f64;
                    }
                    n += 1;
                }
            }
        }
        (n > 0).then(|| CellMetrics::from_array(sum.map(|v| (v / n as f64) as f32)))
    }

    /// Whether the matrix is complete and NaN-free: `k×k` cells, every
    /// mean and confidence width finite — the invariant the CI smoke
    /// asserts before trusting any aggregate.
    pub fn is_complete(&self) -> bool {
        let k = self.k();
        self.cells.len() == k
            && self
                .cells
                .iter()
                .all(|row| row.len() == k && row.iter().all(CellStats::is_finite))
    }

    /// Serialises the matrix as the `BENCH_eval.json` document:
    /// scenario axis, per-cell `mean`/`ci95` per metric, the
    /// diagonal/off-diagonal aggregates with the generalization gap, the
    /// RUDY baselines and the corpus-generation counters. Deterministic
    /// formatting (fixed key order, six decimals), so identical matrices
    /// serialise byte-for-byte identically.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"bench\": \"eval_matrix\",\n");
        out.push_str(&format!(
            "  \"scenarios\": [{}],\n",
            self.scenarios
                .iter()
                .map(|s| str_lit(s))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!("  \"resolution\": {},\n", self.resolution));
        out.push_str(&format!("  \"train_epochs\": {},\n", self.train_epochs));
        out.push_str(&format!("  \"eval_pairs\": {},\n", self.eval_pairs));
        out.push_str(&format!("  \"replicates\": {},\n", self.replicates));
        out.push_str(&format!(
            "  \"corpus\": {{ \"jobs\": {}, \"cache_hits\": {}, \"place_stage_runs\": {}, \"route_stage_runs\": {} }},\n",
            self.corpus.jobs,
            self.corpus.cache_hits,
            self.corpus.place_stage_runs,
            self.corpus.route_stage_runs,
        ));
        out.push_str("  \"cells\": [\n");
        for (i, row) in self.cells.iter().enumerate() {
            for (j, cell) in row.iter().enumerate() {
                let mut fields = vec![
                    format!("\"train\": {}", str_lit(&self.scenarios[i])),
                    format!("\"eval\": {}", str_lit(&self.scenarios[j])),
                    format!("\"diagonal\": {}", i == j),
                ];
                let mean = cell.mean.to_array();
                let ci = cell.ci95.to_array();
                for ((name, m), c) in METRIC_NAMES.iter().zip(mean).zip(ci) {
                    fields.push(format!(
                        "\"{name}\": {{ \"mean\": {}, \"ci95\": {} }}",
                        num(m),
                        num(c)
                    ));
                }
                let last = i + 1 == self.cells.len() && j + 1 == row.len();
                out.push_str(&format!(
                    "    {{ {} }}{}\n",
                    fields.join(", "),
                    if last { "" } else { "," }
                ));
            }
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"diagonal\": {},\n",
            json_metrics(Some(self.diagonal_mean()))
        ));
        out.push_str(&format!(
            "  \"off_diagonal\": {},\n",
            json_metrics(self.off_diagonal_mean())
        ));
        out.push_str(&format!(
            "  \"generalization_gap\": {},\n",
            json_metrics(self.generalization_gap())
        ));
        out.push_str("  \"baseline_rudy\": [\n");
        for (j, b) in self.baseline.iter().enumerate() {
            let body = match b {
                Some(b) => format!(
                    "{{ \"scenario\": {}, \"accuracy\": {}, \"channel_accuracy\": {}, \
                     \"top\": {}, \"pearson\": {}, \"spearman\": {}, \"nrms\": {} }}",
                    str_lit(&self.scenarios[j]),
                    num(b.accuracy),
                    num(b.channel_accuracy),
                    num(b.top_overlap),
                    num(b.pearson),
                    num(b.spearman),
                    num(b.nrms)
                ),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "    {body}{}\n",
                if j + 1 == self.baseline.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The shared six-decimal float writer (`null` for non-finite values,
/// which [`EvalMatrix::is_complete`] catches upstream).
fn num(v: f32) -> String {
    pop_obs::json::num(f64::from(v))
}

fn json_metrics(m: Option<CellMetrics>) -> String {
    match m {
        Some(m) => {
            let fields: Vec<String> = METRIC_NAMES
                .iter()
                .zip(m.to_array())
                .map(|(name, v)| format!("\"{name}\": {}", num(v)))
                .collect();
            format!("{{ {} }}", fields.join(", "))
        }
        None => "null".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(base: f32) -> CellMetrics {
        CellMetrics {
            acc1: base,
            acc2: base + 0.1,
            chan_acc1: base - 0.05,
            top: base + 0.2,
            pearson: base - 0.2,
            spearman: base - 0.1,
            nrms: 1.0 - base,
        }
    }

    fn tiny_matrix() -> EvalMatrix {
        let cell = |v: f32| CellStats::from_replicates(&[metrics(v)]);
        EvalMatrix {
            scenarios: vec!["a".into(), "b".into()],
            resolution: 16,
            train_epochs: 2,
            eval_pairs: 3,
            replicates: 1,
            cells: vec![vec![cell(0.8), cell(0.5)], vec![cell(0.4), cell(0.6)]],
            baseline: vec![
                Some(EvalReport {
                    pairs: 3,
                    accuracy: 0.5,
                    channel_accuracy: 0.4,
                    top_overlap: 0.5,
                    pearson: 0.1,
                    spearman: 0.2,
                    nrms: 0.3,
                }),
                None,
            ],
            corpus: GenStats::default(),
        }
    }

    #[test]
    fn replicate_stats_mean_and_ci() {
        let outcomes = [metrics(0.4), metrics(0.6)];
        let stats = CellStats::from_replicates(&outcomes);
        assert!((stats.mean.acc1 - 0.5).abs() < 1e-6);
        assert!((stats.mean.acc2 - 0.6).abs() < 1e-6);
        // Two replicates at ±0.1: s = 0.1414, ci = 1.96·s/√2 ≈ 0.196.
        assert!(
            (stats.ci95.acc1 - 0.196).abs() < 1e-3,
            "{}",
            stats.ci95.acc1
        );
        assert_eq!(stats.replicates, 2);
        // A single replicate has zero width, not NaN.
        let one = CellStats::from_replicates(&[metrics(0.4)]);
        assert_eq!(one.ci95, CellMetrics::default());
        assert!(one.is_finite());
    }

    #[test]
    fn gap_is_diagonal_minus_off_diagonal() {
        let m = tiny_matrix();
        let diag = m.diagonal_mean();
        assert!((diag.acc1 - 0.7).abs() < 1e-6);
        let off = m.off_diagonal_mean().unwrap();
        assert!((off.acc1 - 0.45).abs() < 1e-6);
        let gap = m.generalization_gap().unwrap();
        assert!((gap.acc1 - 0.25).abs() < 1e-6);
        // nrms is inverted (lower = better): in-distribution advantage
        // shows as a negative gap.
        assert!(gap.nrms < 0.0);
        assert!(m.is_complete());
    }

    #[test]
    fn one_by_one_matrix_has_no_off_diagonal() {
        let mut m = tiny_matrix();
        m.scenarios.truncate(1);
        m.cells.truncate(1);
        m.cells[0].truncate(1);
        m.baseline.truncate(1);
        assert!(m.off_diagonal_mean().is_none());
        assert!(m.generalization_gap().is_none());
        assert!(m.is_complete());
        assert!(m.to_json().contains("\"generalization_gap\": null"));
    }

    #[test]
    fn incomplete_or_nan_matrices_are_detected() {
        let mut m = tiny_matrix();
        m.cells[1].pop();
        assert!(!m.is_complete(), "a missing cell is incomplete");
        let mut m = tiny_matrix();
        m.cells[0][1].mean.pearson = f32::NAN;
        assert!(!m.is_complete(), "a NaN cell is incomplete");
    }

    #[test]
    fn json_is_deterministic_and_structured() {
        let m = tiny_matrix();
        let json = m.to_json();
        assert_eq!(json, m.clone().to_json(), "byte-for-byte deterministic");
        for key in [
            "\"bench\": \"eval_matrix\"",
            "\"scenarios\": [\"a\", \"b\"]",
            "\"train\": \"a\", \"eval\": \"b\", \"diagonal\": false",
            "\"generalization_gap\"",
            "\"baseline_rudy\"",
            "\"corpus\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // Exactly k*k cell objects.
        assert_eq!(json.matches("\"train\": ").count(), 4);
    }

    #[test]
    fn json_escapes_hostile_scenario_names() {
        let mut m = tiny_matrix();
        m.scenarios[0] = "quo\"te\\name".into();
        let json = m.to_json();
        assert!(json.contains(r#""quo\"te\\name""#), "{json}");
        // Control characters are escaped, never raw bytes.
        m.scenarios[1] = "tab\there".into();
        let json = m.to_json();
        assert!(json.contains("tab\\there"), "{json}");
        assert!(!json.contains('\t'));
    }
}
