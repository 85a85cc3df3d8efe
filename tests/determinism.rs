//! Integration: every stage of the pipeline is deterministic in its seeds
//! — the property that makes experiments reproducible bit-for-bit.

use painting_on_placement as pop;
use pop::arch::Arch;
use pop::core::{dataset, ExperimentConfig, Pix2Pix};
use pop::netlist::{generate, presets};
use pop::nn::{Layer, Tensor};
use pop::place::{place, PlaceOptions};
use pop::route::{route, RouteOptions};

#[test]
fn netlist_generation_is_deterministic() {
    let spec = presets::by_name("ode").unwrap().scaled(0.02);
    assert_eq!(generate(&spec), generate(&spec));
}

#[test]
fn placement_and_routing_are_deterministic() {
    let netlist = generate(&presets::by_name("diffeq1").unwrap().scaled(0.02));
    let (c, i, m, x) = netlist.site_demand();
    let arch = Arch::auto_size(c, i, m, x, 16, 1.3).unwrap();
    let opts = PlaceOptions {
        seed: 123,
        ..Default::default()
    };
    let p1 = place(&arch, &netlist, &opts).unwrap();
    let p2 = place(&arch, &netlist, &opts).unwrap();
    assert_eq!(p1, p2);
    let r1 = route(&arch, &netlist, &p1, &RouteOptions::default()).unwrap();
    let r2 = route(&arch, &netlist, &p1, &RouteOptions::default()).unwrap();
    assert_eq!(r1, r2);
}

#[test]
fn model_training_is_deterministic() {
    let config = ExperimentConfig {
        pairs_per_design: 4,
        epochs: 2,
        ..ExperimentConfig::test()
    };
    let ds = dataset::build_design_dataset(&presets::by_name("diffeq2").unwrap(), &config).unwrap();

    let mut m1 = Pix2Pix::new(&config, 77).unwrap();
    let h1 = m1.train(&ds.pairs, 2);
    let mut m2 = Pix2Pix::new(&config, 77).unwrap();
    let h2 = m2.train(&ds.pairs, 2);
    assert_eq!(h1, h2, "identical seeds give identical training");

    let f1 = m1.forecast(&ds.pairs[0].x);
    let f2 = m2.forecast(&ds.pairs[0].x);
    assert_eq!(f1, f2, "identical models forecast identically");

    // A different seed diverges.
    let mut m3 = Pix2Pix::new(&config, 78).unwrap();
    let h3 = m3.train(&ds.pairs, 2);
    assert_ne!(h1, h3);
}

#[test]
fn dataset_tensors_are_bit_identical_across_builds() {
    let config = ExperimentConfig {
        pairs_per_design: 3,
        ..ExperimentConfig::test()
    };
    let spec = presets::by_name("diffeq1").unwrap();
    let a = dataset::build_design_dataset(&spec, &config).unwrap();
    let b = dataset::build_design_dataset(&spec, &config).unwrap();
    for (pa, pb) in a.pairs.iter().zip(&b.pairs) {
        assert_eq!(pa.x.data(), pb.x.data());
        assert_eq!(pa.y.data(), pb.y.data());
    }
}

/// FNV-1a over `f32` bit patterns — one number that moves if any value
/// moves by one ulp.
fn fnv<'a>(values: impl IntoIterator<Item = &'a f32>) -> u64 {
    let mut h = pop::core::codec::Fnv1a::new();
    for v in values {
        h.eat(v.to_bits() as u64);
    }
    h.finish()
}

/// [`fnv`] over every weight and both Adam moments of a parameter set.
fn fnv_params(params: Vec<&mut pop::nn::Param>) -> u64 {
    fnv(params
        .iter()
        .flat_map(|p| [&p.value, &p.m, &p.v])
        .flat_map(|t| t.data()))
}

/// What the weights do not show: the generator's and the discriminator's
/// batch-norm running statistics (FNV over every buffer's bits, in
/// `buffers_mut` order) and the discriminator's readout on `pair`.
fn running_state(model: &mut Pix2Pix, pair: &Tensor) -> (u64, u64, u32) {
    let fnv_buffers = |buffers: Vec<&mut Vec<f32>>| fnv(buffers.iter().flat_map(|b| b.iter()));
    (
        fnv_buffers(model.generator_mut().buffers_mut()),
        fnv_buffers(model.discriminator_mut().buffers_mut()),
        model.discriminator_mut().probability(pair).to_bits(),
    )
}

fn randn_inputs(config: &ExperimentConfig, count: u64, seed: u64) -> Vec<Tensor> {
    let shape = [
        1,
        config.input_channels(),
        config.resolution,
        config.resolution,
    ];
    (0..count)
        .map(|i| Tensor::randn(shape, 0.0, 0.5, seed + i))
        .collect()
}

/// The six steps of the cross-commit golden below, on a fresh model:
/// `StepLosses` bits per step, then the generator's and the
/// discriminator's weight + Adam-moment FNVs.
fn six_golden_steps() -> (Vec<[u32; 3]>, u64, u64) {
    let config = ExperimentConfig::test();
    let mut model = Pix2Pix::new(&config, 4242).unwrap();
    let xs = randn_inputs(&config, 2, 900);
    let res = config.resolution;
    let ys: Vec<Tensor> = (0..2)
        .map(|i| Tensor::randn([1, 3, res, res], 0.0, 0.5, 950 + i))
        .collect();
    let losses = (0..6)
        .map(|step| {
            let l = model.train_step(&xs[step % 2], &ys[step % 2]);
            [l.d_loss.to_bits(), l.g_gan.to_bits(), l.g_l1.to_bits()]
        })
        .collect();
    (
        losses,
        fnv_params(model.generator_mut().params_mut()),
        fnv_params(model.discriminator_mut().params_mut()),
    )
}

/// A train step forks through `pop_exec::join` at five kinds of place: D's
/// real pass beside the G forward (then D's fake forward), the row-split
/// training conv GEMMs, the input-gradient `Wᵀ·dY` strips, each conv /
/// deconv backward's dX beside its dW, and Adam's two halves. Whether a
/// given join forks depends on what else the process is doing.
/// None of that may reach the numbers: the same steps run plainly (forks
/// wherever the helper is free), from inside the caller half of an outer
/// join (the helper is taken: every join runs inline — the serial path,
/// reached without a switch) and on four threads at once (the helper
/// contended, each join going either way) must agree bit for bit.
#[test]
fn training_bits_do_not_depend_on_who_ran_which_half() {
    let plain = six_golden_steps();
    assert_eq!(
        plain.0[0],
        [1060360060, 1059928462, 1053526775],
        "the sequence the cross-commit golden pins"
    );
    let ((), inline) = pop::exec::join(|| (), six_golden_steps);
    assert_eq!(inline, plain, "every join inline");
    let contended: Vec<_> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..4).map(|_| scope.spawn(six_golden_steps)).collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("training thread"))
            .collect()
    });
    for (thread, result) in contended.iter().enumerate() {
        assert_eq!(result, &plain, "thread {thread} of 4");
    }
}

/// Thirty steps of a depth-5 model — whose bottleneck is 1×1, like the
/// quick model's — pinned across commits. The constants were captured at
/// the commit before `Adam::step` began clearing gradients and dropping a
/// bias-correction divide that has rounded to 1.0 (`f93b8a7`), in debug
/// and in release alike. Thirty steps reach that exact-1.0 correction
/// (β₁ = 0.5 from step 25), which the six steps below never do. Both
/// networks' batch-norm running statistics and the discriminator's readout
/// were added later, captured from the step as it stood then.
#[test]
fn thirty_deep_steps_match_the_cross_commit_golden() {
    let config = ExperimentConfig {
        depth: 5,
        ..ExperimentConfig::test()
    };
    let mut model = Pix2Pix::new(&config, 5151).unwrap();
    let res = config.resolution;
    let xs = randn_inputs(&config, 3, 1100);
    let ys: Vec<Tensor> = (0..3)
        .map(|i| Tensor::randn([1, 3, res, res], 0.0, 0.5, 1150 + i))
        .collect();
    let losses: Vec<[u32; 3]> = (0..30)
        .map(|step| {
            let l = model.train_step(&xs[step % 3], &ys[step % 3]);
            [l.d_loss.to_bits(), l.g_gan.to_bits(), l.g_l1.to_bits()]
        })
        .collect();
    assert_eq!(
        losses,
        [
            [1060675330, 1060427594, 1053905117],
            [1060278972, 1060551815, 1053945706],
            [1060684704, 1060925100, 1053730122],
            [1059592282, 1060889154, 1053844742],
            [1059249422, 1061381312, 1053908153],
            [1059922700, 1061417854, 1053658597],
            [1058833038, 1061649763, 1053837017],
            [1058502674, 1062089801, 1053930804],
            [1059314990, 1061970311, 1053679999],
            [1058211190, 1062357488, 1053888537],
            [1057662598, 1063184166, 1053921831],
            [1058655684, 1062910294, 1053690560],
            [1057601388, 1063167098, 1053859826],
            [1056944452, 1064149215, 1053891060],
            [1058036522, 1063764139, 1053672183],
            [1056988788, 1064088051, 1053830228],
            [1055521858, 1065200638, 1053865981],
            [1057433530, 1064663419, 1053669154],
            [1055907232, 1064890063, 1053814180],
            [1053999340, 1066002256, 1053813756],
            [1056373005, 1065682720, 1053599281],
            [1054746272, 1065764227, 1053830222],
            [1052695781, 1066609405, 1053849392],
            [1054964166, 1066311752, 1053610550],
            [1053586699, 1066344523, 1053788857],
            [1051439724, 1067391056, 1053839766],
            [1053495862, 1067019984, 1053586138],
            [1052521588, 1066967982, 1053830720],
            [1050532014, 1067978910, 1053808718],
            [1052253690, 1067607544, 1053596478],
        ],
        "StepLosses bits (d_loss, g_gan, g_l1) per step"
    );
    assert_eq!(
        fnv_params(model.generator_mut().params_mut()),
        0x0df6_6b5d_d706_d8f6,
        "generator weights + Adam moments"
    );
    assert_eq!(
        fnv_params(model.discriminator_mut().params_mut()),
        0xc33a_260e_ad57_bd01,
        "discriminator weights + Adam moments"
    );
    let pair = xs[0].concat_channels(&ys[0]);
    assert_eq!(
        running_state(&mut model, &pair),
        (0x5dae_fac1_416b_3bb2, 0x286c_f2b6_9cca_bd34, 0x3f17_ad5a),
        "running statistics (generator, discriminator) and D's readout, \
         captured before the discriminator's passes kept their activations \
         apart from its layers"
    );
}

/// Training is pinned **across commits**, not just across two runs of one
/// build: the constants below were captured at the commit before the GEMM
/// tail / packed `nt` / fused Adam rewrite (PR 13's tree) and every later
/// kernel change must reproduce them bit for bit — losses, generator and
/// discriminator weights, Adam `m`/`v`, and the forecasts of the trained
/// model at batch sizes whose GEMM `n` has a `< 8` tail at some level.
/// Both networks' batch-norm running statistics and the discriminator's
/// readout were added later, captured from the step as it stood then: the
/// weights alone would not notice running statistics committed out of
/// order.
#[test]
fn training_and_forecasts_match_the_cross_commit_golden() {
    let config = ExperimentConfig::test();
    let mut model = Pix2Pix::new(&config, 4242).unwrap();
    let xs = randn_inputs(&config, 2, 900);
    let res = config.resolution;
    let ys: Vec<Tensor> = (0..2)
        .map(|i| Tensor::randn([1, 3, res, res], 0.0, 0.5, 950 + i))
        .collect();
    let mut losses = Vec::new();
    for step in 0..6 {
        let l = model.train_step(&xs[step % 2], &ys[step % 2]);
        losses.push([l.d_loss.to_bits(), l.g_gan.to_bits(), l.g_l1.to_bits()]);
    }
    assert_eq!(
        losses,
        [
            [1060360060, 1059928462, 1053526775],
            [1060779065, 1060412084, 1053851225],
            [1059582356, 1060409672, 1053537309],
            [1059818363, 1061361196, 1053827402],
            [1059040668, 1061023352, 1053435164],
            [1059010528, 1062095947, 1053877717],
        ],
        "StepLosses bits (d_loss, g_gan, g_l1) per step"
    );
    assert_eq!(
        fnv_params(model.generator_mut().params_mut()),
        0x6132_c449_55e0_4044,
        "generator weights + Adam moments"
    );
    assert_eq!(
        fnv_params(model.discriminator_mut().params_mut()),
        0x4873_8ccc_908c_f9c5,
        "discriminator weights + Adam moments"
    );
    let pair = xs[0].concat_channels(&ys[0]);
    assert_eq!(
        running_state(&mut model, &pair),
        (0xba64_a6af_5fb4_6180, 0x2501_86a5_8b77_3f56, 0x3efc_8e58),
        "running statistics (generator, discriminator) and D's readout, \
         captured before the discriminator's passes kept their activations \
         apart from its layers"
    );

    // Forecasts: the trained model (GEMM n = 4·b at the bottleneck), and a
    // fresh depth-5 model whose bottleneck is 1×1 like the quick model's
    // (n = b, then 4·b) — batch 1, 3 and 5 leave a tail at every such level.
    let deep_config = ExperimentConfig {
        depth: 5,
        ..ExperimentConfig::test()
    };
    let mut deep = Pix2Pix::new(&deep_config, 4243).unwrap();
    let inputs = randn_inputs(&config, 5, 1000);
    let mut got = Vec::new();
    for batch in [1, 3, 5] {
        let refs: Vec<&Tensor> = inputs[..batch].iter().collect();
        for m in [&mut model, &mut deep] {
            got.push(fnv(m.forecast_batch(&refs).iter().flat_map(|t| t.data())));
        }
    }
    assert_eq!(
        got,
        [
            0x6108_da22_9ac2_fcd2,
            0xe4de_eec7_561b_dc15,
            0x9cc3_b867_1040_ef98,
            0xa1f6_88b0_550d_a79d,
            0x4161_32ca_9fff_3c78,
            0x1a33_0950_7744_1d76,
        ],
        "forecast_batch FNV: (trained, deep) at batch 1, 3, 5"
    );
}
