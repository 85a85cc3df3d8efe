//! Property-based tests over the public APIs: structural invariants that
//! must hold for arbitrary (bounded) inputs.

use painting_on_placement as pop;
use pop::arch::{Arch, SiteKind};
use pop::netlist::{generate, SyntheticSpec};
use pop::place::{place, PlaceAlgorithm, PlaceOptions};
use pop::raster::color::{utilization_color, utilization_from_color};
use pop::route::{route, verify_routes, RouteOptions};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = SyntheticSpec> {
    (
        10usize..80, // luts
        0usize..30,  // ffs
        10usize..60, // nets
        2usize..6,   // inputs
        2usize..6,   // outputs
        0usize..2,   // memories
        0usize..3,   // multipliers
        0u64..1000,  // seed
        0.0f64..1.0, // locality
    )
        .prop_map(
            |(luts, ffs, nets, inputs, outputs, memories, multipliers, seed, locality)| {
                SyntheticSpec {
                    name: format!("prop_{seed}"),
                    luts,
                    ffs,
                    nets,
                    inputs,
                    outputs,
                    memories,
                    multipliers,
                    luts_per_clb: 10,
                    mean_fanout: 2.5,
                    locality,
                    seed,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The generator always produces a structurally valid netlist whose
    /// counts match the spec.
    #[test]
    fn generated_netlists_match_spec(spec in arb_spec()) {
        let nl = generate(&spec);
        let stats = nl.stats();
        prop_assert_eq!(stats.nets, spec.nets);
        prop_assert_eq!(stats.luts, spec.luts);
        prop_assert_eq!(stats.ios, spec.inputs + spec.outputs);
        for net in nl.nets() {
            prop_assert!(!net.sinks.is_empty());
            // No repeated terminals.
            let mut terms: Vec<_> = net.terminals().collect();
            terms.sort();
            let before = terms.len();
            terms.dedup();
            prop_assert_eq!(terms.len(), before);
        }
    }

    /// Placement is always legal: every block on a kind-compatible site,
    /// no sharing.
    #[test]
    fn placements_are_always_legal(spec in arb_spec(), seed in 0u64..500) {
        let nl = generate(&spec);
        let (c, i, m, x) = nl.site_demand();
        let arch = Arch::auto_size(c, i, m, x, 12, 1.3).unwrap();
        let opts = PlaceOptions {
            seed,
            inner_num: 0.05,
            algorithm: if seed % 2 == 0 {
                PlaceAlgorithm::BoundingBox
            } else {
                PlaceAlgorithm::PathTiming
            },
            ..Default::default()
        };
        let placement = place(&arch, &nl, &opts).unwrap();
        prop_assert!(placement.verify(&arch, &nl).is_ok());
    }

    /// Routed trees connect all terminals of every net, and a successful
    /// route never exceeds capacity.
    #[test]
    fn routes_connect_everything(spec in arb_spec()) {
        let nl = generate(&spec);
        let (c, i, m, x) = nl.site_demand();
        let arch = Arch::auto_size(c, i, m, x, 48, 1.3).unwrap();
        let placement = place(&arch, &nl, &PlaceOptions {
            inner_num: 0.05,
            ..Default::default()
        }).unwrap();
        let result = route(&arch, &nl, &placement, &RouteOptions::default()).unwrap();
        prop_assert!(verify_routes(&arch, &nl, &placement, &result).is_ok());
        if result.success {
            prop_assert!(result.congestion().max_utilization() <= 1.0 + 1e-6);
        }
    }

    /// The utilisation colour bar decodes back to the encoded value.
    #[test]
    fn colorbar_roundtrip(u in 0.0f32..1.0) {
        let decoded = utilization_from_color(utilization_color(u));
        prop_assert!((decoded - u).abs() < 0.01);
    }

    /// Architecture capacities always match the enumerated sites, and the
    /// channel index is a bijection.
    #[test]
    fn arch_invariants(w in 4usize..20, h in 4usize..20, cw in 1usize..64) {
        let arch = Arch::builder().interior(w, h).channel_width(cw).build().unwrap();
        let clb = arch.sites().iter().filter(|s| s.kind == SiteKind::Clb).count();
        prop_assert_eq!(clb, arch.clb_capacity());
        let mut seen = vec![false; arch.channel_count()];
        for ch in arch.channels() {
            let idx = arch.channel_index(ch);
            prop_assert!(!seen[idx]);
            seen[idx] = true;
        }
        prop_assert!(seen.into_iter().all(|b| b));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Per-pixel accuracy is symmetric, bounded, and 1.0 on identical
    /// images (checked through the public raster API on random images).
    #[test]
    fn accuracy_metric_properties(values in proptest::collection::vec(0.0f32..1.0, 48), tol in 0.01f32..0.5) {
        use pop::raster::{metrics::per_pixel_accuracy, Image};
        let a = Image::from_data(4, 4, 3, values.clone());
        let b = Image::from_data(4, 4, 3, values.iter().map(|v| 1.0 - v).collect());
        let ab = per_pixel_accuracy(&a, &b, tol).unwrap();
        let ba = per_pixel_accuracy(&b, &a, tol).unwrap();
        prop_assert_eq!(ab, ba);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert_eq!(per_pixel_accuracy(&a, &a, tol).unwrap(), 1.0);
    }

    /// NN building blocks: conv ∘ deconv restores spatial dims for the
    /// pix2pix geometry at any power-of-two size and channel count.
    #[test]
    fn conv_deconv_shape_inverse(pow in 3u32..7, cin in 1usize..5, cout in 1usize..5) {
        use pop::nn::{Conv2d, ConvTranspose2d, Layer, Tensor};
        let size = 1usize << pow;
        let mut conv = Conv2d::new(cin, cout, 4, 2, 1, 1);
        let mut deconv = ConvTranspose2d::new(cout, cin, 4, 2, 1, 2);
        let x = Tensor::randn([1, cin, size, size], 0.0, 1.0, 3);
        let y = conv.forward(&x);
        prop_assert_eq!(y.shape(), [1, cout, size / 2, size / 2]);
        let z = deconv.forward(&y);
        prop_assert_eq!(z.shape(), x.shape());
    }
}
