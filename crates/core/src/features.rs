//! Feature assembly: images → NCHW tensors and back.
//!
//! §4.2: "the input feature `x = stack(img_place, λ·img_connect)`,
//! `x ∈ R^{256×256×4}`". Image channels are mapped to the `[-1, 1]` range
//! (the generator ends in `tanh`); the connectivity channel is scaled by
//! `λ` (paper: 0.1) before stacking.

use crate::config::ExperimentConfig;
use pop_arch::Arch;
use pop_netlist::Netlist;
use pop_nn::Tensor;
use pop_place::Placement;
use pop_raster::{grayscale, render_connectivity, render_placement, Image};

/// The generator input of one placement: `img_place` and `img_connect`
/// rendered at `config.resolution` and stacked as [`assemble_input`] stacks
/// them, bit for bit — the one call every in-tree forecast and generated
/// pair makes. The placement image's planes *become* the tensor's (mapped
/// in place, the connectivity channel appended): at 256×256 the three-call
/// spelling holds 2.3 MB of short-lived buffers and spends most of its
/// time faulting them in.
pub fn placement_input(
    arch: &Arch,
    netlist: &Netlist,
    placement: &Placement,
    config: &ExperimentConfig,
) -> Tensor {
    let side = config.resolution;
    let img_place = render_placement(arch, netlist, placement, side);
    let place = if config.grayscale_input {
        grayscale(&img_place)
    } else {
        img_place
    };
    let channels = place.channels() + 1;
    let mut data = place.into_data();
    // Grown before anything is allocated behind it, so it grows in place.
    data.reserve_exact(side * side);
    for v in &mut data {
        *v = *v * 2.0 - 1.0;
    }
    let lambda = config.lambda_connect;
    let img_connect = render_connectivity(arch, netlist, placement, side);
    data.extend(img_connect.data().iter().map(|&v| lambda * v));
    Tensor::from_vec([1, channels, side, side], data)
}

/// Builds the generator input from the placement and connectivity images.
///
/// `img_place` must be RGB; it is converted to grayscale here when the
/// config's §5.2 ablation flag is set. `img_connect` must be 1-channel and
/// of the same resolution.
///
/// Images are CHW and tensors NCHW, so assembly is two flat slice maps —
/// no per-pixel triple indexing and no copy of `img_place` unless the
/// grayscale ablation actually needs one. This is the hot loop of dataset
/// generation (once per placement) and of every serving request.
///
/// # Panics
///
/// Panics on resolution mismatch between images and config.
pub fn assemble_input(img_place: &Image, img_connect: &Image, config: &ExperimentConfig) -> Tensor {
    assert_eq!(img_place.width(), config.resolution, "place image width");
    assert_eq!(
        img_connect.width(),
        config.resolution,
        "connect image width"
    );
    assert_eq!(img_connect.channels(), 1, "connectivity is one channel");
    let gray;
    let place: &Image = if config.grayscale_input {
        gray = grayscale(img_place);
        &gray
    } else {
        img_place
    };
    let w = config.resolution;
    let pc = place.channels();
    let lambda = config.lambda_connect;
    let mut data = Vec::with_capacity((pc + 1) * w * w);
    // Place channels → [-1, 1].
    data.extend(place.data().iter().map(|&v| v * 2.0 - 1.0));
    // Connectivity channel scaled by λ (kept in [0, λ] as in the paper's
    // `λ · img_connect`).
    data.extend(img_connect.data().iter().map(|&v| lambda * v));
    Tensor::from_vec([1, pc + 1, w, w], data)
}

/// Converts the ground-truth heat map image into the generator target
/// (`[-1, 1]` per channel). Flat CHW→NCHW map, like [`assemble_input`].
pub fn assemble_target(img_route: &Image) -> Tensor {
    let (w, h, c) = (img_route.width(), img_route.height(), img_route.channels());
    let data = img_route.data().iter().map(|&v| v * 2.0 - 1.0).collect();
    Tensor::from_vec([1, c, h, w], data)
}

/// Converts a generator output tensor back into an image (values clamped
/// into `[0, 1]`). Only batch element 0 is decoded.
pub fn tensor_to_image(t: &Tensor) -> Image {
    let [_, c, h, w] = t.shape();
    let data = t.data()[..c * h * w]
        .iter()
        .map(|&v| ((v + 1.0) * 0.5).clamp(0.0, 1.0))
        .collect();
    Image::from_data(w, h, c, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn images(res: usize) -> (Image, Image) {
        let mut place = Image::zeros(res, res, 3);
        place.set(1, 2, 0, 1.0);
        place.set(1, 2, 1, 0.5);
        let mut connect = Image::zeros(res, res, 1);
        connect.set(3, 3, 0, 1.0);
        (place, connect)
    }

    #[test]
    fn rgb_input_has_four_channels() {
        let cfg = ExperimentConfig {
            resolution: 8,
            ..ExperimentConfig::test()
        };
        let (p, c) = images(8);
        let x = assemble_input(&p, &c, &cfg);
        assert_eq!(x.shape(), [1, 4, 8, 8]);
        // Place pixel mapped to [-1, 1].
        assert_eq!(x.at(0, 0, 2, 1), 1.0);
        assert_eq!(x.at(0, 1, 2, 1), 0.0);
        // Background is -1.
        assert_eq!(x.at(0, 0, 0, 0), -1.0);
        // Connectivity scaled by lambda.
        assert!((x.at(0, 3, 3, 3) - cfg.lambda_connect).abs() < 1e-6);
    }

    #[test]
    fn grayscale_input_has_two_channels() {
        let cfg = ExperimentConfig {
            resolution: 8,
            grayscale_input: true,
            ..ExperimentConfig::test()
        };
        let (p, c) = images(8);
        let x = assemble_input(&p, &c, &cfg);
        assert_eq!(x.shape(), [1, 2, 8, 8]);
    }

    #[test]
    fn target_roundtrip_through_image() {
        let mut img = Image::zeros(4, 4, 3);
        img.set(1, 2, 0, 0.75);
        img.set(0, 0, 2, 0.25);
        let t = assemble_target(&img);
        assert!((t.at(0, 0, 2, 1) - 0.5).abs() < 1e-6);
        let back = tensor_to_image(&t);
        assert!(back.mean_abs_diff(&img).unwrap() < 1e-6);
    }

    #[test]
    fn tensor_to_image_clamps() {
        let t = Tensor::from_vec([1, 1, 1, 2], vec![-5.0, 5.0]);
        let img = tensor_to_image(&t);
        assert_eq!(img.get(0, 0, 0), 0.0);
        assert_eq!(img.get(1, 0, 0), 1.0);
    }
}
