//! Criterion bench: neural-network layer kernels (the substrate replacing
//! TensorFlow).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pop_nn::{Adam, BatchNorm2d, Conv2d, ConvTranspose2d, Layer, Param, Tensor};

fn bench_nn_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("nn_ops");
    group.sample_size(20);

    let x = Tensor::randn([1, 16, 32, 32], 0.0, 1.0, 1);
    let mut conv = Conv2d::new(16, 32, 4, 2, 1, 2);
    group.bench_function("conv2d_fwd_16x32x32", |b| b.iter(|| conv.forward(&x)));
    let y = conv.forward(&x);
    group.bench_function("conv2d_fwd_bwd_16x32x32", |b| {
        b.iter(|| {
            let _ = conv.forward(&x);
            conv.backward(&y)
        })
    });

    let xt = Tensor::randn([1, 32, 16, 16], 0.0, 1.0, 3);
    let mut deconv = ConvTranspose2d::new(32, 16, 4, 2, 1, 4);
    group.bench_function("deconv_fwd_32x16x16", |b| b.iter(|| deconv.forward(&xt)));

    let mut bn = BatchNorm2d::new(16);
    group.bench_function("batchnorm_fwd_16x32x32", |b| b.iter(|| bn.forward(&x)));

    group.bench_function("matmul_64x256x256", |b| {
        let a = vec![0.5f32; 64 * 256];
        let bm = vec![0.25f32; 256 * 256];
        b.iter(|| {
            let mut out = vec![0.0f32; 64 * 256];
            pop_nn::linalg::matmul_nn(&a, &bm, &mut out, 64, 256, 256);
            out
        })
    });

    // One optimiser step over ~1 M scalars — the quick model's generator
    // is 1.03 M — in a few tensors, as `train_step` issues it twice. The
    // step clears the gradients it reads, so each one gets a fresh set,
    // swapped in outside the clock (the cleared set is dropped outside it).
    let mut params: Vec<Param> = (0..4)
        .map(|i| Param::randn([64, 64, 8, 8], 0.02, 10 + i))
        .collect();
    let grads: Vec<Tensor> = (0..4)
        .map(|i| Tensor::randn([64, 64, 8, 8], 0.0, 0.1, 20 + i))
        .collect();
    let mut adam = Adam::paper();
    group.bench_function("adam_step_1m", |b| {
        b.iter_batched(
            || grads.clone(),
            |mut fresh| {
                for (p, g) in params.iter_mut().zip(&mut fresh) {
                    std::mem::swap(&mut p.grad, g);
                }
                adam.step(&mut params.iter_mut().collect::<Vec<_>>());
                fresh
            },
            BatchSize::LargeInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_nn_ops);
criterion_main!(benches);
