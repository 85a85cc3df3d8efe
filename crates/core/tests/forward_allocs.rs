//! A steady-state inference forward allocates the tensors it returns and
//! next to nothing else: the weights were laid out when the plan was
//! built, and activations, lowering matrices and GEMM layout buffers come
//! out of `pop-nn`'s per-thread workspace, which stops growing after the
//! first forwards. Counted with a `#[global_allocator]`, which is why this
//! test has a binary to itself (the counters are the calling thread's).

use pop_core::{ExperimentConfig, Pix2Pix, SkipMode, UNetGenerator};
use pop_nn::Tensor;

mod common;
use common::{heap_use, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What a steady-state forward may allocate beyond the tensors it returns
/// (the `Vec` that holds them, mostly).
const SLACK: usize = 4096;

#[test]
fn steady_state_forward_allocates_its_outputs_and_little_else() {
    // The `explore` generator: 64×64 input, 12 filters, depth 6, all skips.
    let mut gen = UNetGenerator::new(4, 3, 12, 6, SkipMode::All, 11);
    let parameter_bytes = 4 * gen.parameter_count();
    let (bytes, _, plan) = heap_use(|| gen.plan());
    assert!(
        2 * bytes <= 3 * parameter_bytes,
        "building the plan allocated {bytes} bytes for {parameter_bytes} bytes of parameters"
    );
    for batch in [1usize, 8] {
        let xs: Vec<Tensor> = (0..batch as u64)
            .map(|i| Tensor::randn([1, 4, 64, 64], 0.0, 0.5, 40 + i))
            .collect();
        let refs: Vec<&Tensor> = xs.iter().collect();
        let answers = 4 * batch * 3 * 64 * 64;
        // The first forwards at a batch size grow the workspace (and pack
        // the transposed-convolution weights that batch width asks for).
        let first = plan.forecast_batch(&refs);
        let _ = plan.forecast_batch(&refs);
        for round in 3..=5 {
            let (bytes, _, ys) = heap_use(|| plan.forecast_batch(&refs));
            assert_eq!(ys, first, "batch {batch}, forward {round}");
            assert!(
                (answers..=answers + SLACK).contains(&bytes),
                "batch {batch}, forward {round}: {bytes} bytes allocated for {answers} bytes \
                 of answers"
            );
        }
    }
    // `Pix2Pix` keeps its plan: a forecast after the first allocates what
    // the plan's own forward allocates, call for call.
    let config = ExperimentConfig::quick();
    let mut model = Pix2Pix::new(&config, 7).expect("quick config");
    let res = config.resolution;
    let x = Tensor::randn([1, config.input_channels(), res, res], 0.0, 0.5, 9);
    let first = model.forecast(&x);
    let _ = model.forecast(&x);
    let plan = model.plan();
    let (plan_bytes, plan_calls, y) = heap_use(|| plan.forward(&x));
    assert_eq!(y, first);
    let (bytes, calls, y) = heap_use(|| model.forecast(&x));
    assert_eq!(y, first);
    assert_eq!(
        (bytes, calls),
        (plan_bytes, plan_calls),
        "a warm `Pix2Pix::forecast` is its plan's forward"
    );
    assert!(plan_bytes <= 4 * y.len() + SLACK, "{plan_bytes} bytes");
}
