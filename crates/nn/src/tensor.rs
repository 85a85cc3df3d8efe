use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A dense `f32` tensor in NCHW layout.
///
/// The only tensor rank this workload needs is 4 (batch, channels, height,
/// width); vectors and matrices are expressed with singleton dimensions.
/// The default is the empty `0×0×0×0` tensor.
#[derive(Clone, Default, PartialEq)]
pub struct Tensor {
    shape: [usize; 4],
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor[{}x{}x{}x{}]",
            self.shape[0], self.shape[1], self.shape[2], self.shape[3]
        )
    }
}

impl Tensor {
    /// Creates a zero tensor.
    pub fn zeros(shape: [usize; 4]) -> Self {
        let len = shape.iter().product();
        Tensor {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor filled with `v`.
    pub fn full(shape: [usize; 4], v: f32) -> Self {
        let len = shape.iter().product();
        Tensor {
            shape,
            data: vec![v; len],
        }
    }

    /// Wraps existing data.
    ///
    /// # Panics
    ///
    /// Panics when `data.len()` does not match the shape volume.
    pub fn from_vec(shape: [usize; 4], data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "data length vs shape"
        );
        Tensor { shape, data }
    }

    /// Gaussian-initialised tensor (`mean`, `std`), deterministic in `seed`.
    /// pix2pix initialises all weights from `N(0, 0.02)`.
    pub fn randn(shape: [usize; 4], mean: f32, std: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let len: usize = shape.iter().product();
        let mut data = Vec::with_capacity(len);
        // Box–Muller.
        while data.len() < len {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(mean + std * r * theta.cos());
            if data.len() < len {
                data.push(mean + std * r * theta.sin());
            }
        }
        Tensor { shape, data }
    }

    /// The NCHW shape.
    #[inline]
    pub fn shape(&self) -> [usize; 4] {
        self.shape
    }

    /// Batch size.
    #[inline]
    pub fn n(&self) -> usize {
        self.shape[0]
    }

    /// Channel count.
    #[inline]
    pub fn c(&self) -> usize {
        self.shape[1]
    }

    /// Height.
    #[inline]
    pub fn h(&self) -> usize {
        self.shape[2]
    }

    /// Width.
    #[inline]
    pub fn w(&self) -> usize {
        self.shape[3]
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable element storage.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable element storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn at(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        let [_, cc, hh, ww] = self.shape;
        self.data[((n * cc + c) * hh + h) * ww + w]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
        let [_, cc, hh, ww] = self.shape;
        self.data[((n * cc + c) * hh + h) * ww + w] = v;
    }

    /// Reinterprets the tensor with a new shape of identical volume.
    ///
    /// # Panics
    ///
    /// Panics when the volumes differ.
    pub fn reshaped(mut self, shape: [usize; 4]) -> Tensor {
        assert_eq!(
            self.data.len(),
            shape.iter().product::<usize>(),
            "reshape volume"
        );
        self.shape = shape;
        self
    }

    /// Concatenates two tensors along the channel axis — the skip-connection
    /// primitive of the U-Net ("concatenate one layer in the downsampling
    /// path and one layer in the upsampling path").
    ///
    /// # Panics
    ///
    /// Panics when batch or spatial dimensions differ.
    pub fn concat_channels(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.n(), other.n(), "batch mismatch");
        assert_eq!(self.h(), other.h(), "height mismatch");
        assert_eq!(self.w(), other.w(), "width mismatch");
        let (n, h, w) = (self.n(), self.h(), self.w());
        let (c1, c2) = (self.c(), other.c());
        let mut out = Tensor::zeros([n, c1 + c2, h, w]);
        let plane = h * w;
        for b in 0..n {
            let dst = &mut out.data_mut()[b * (c1 + c2) * plane..];
            dst[..c1 * plane].copy_from_slice(&self.data[b * c1 * plane..(b + 1) * c1 * plane]);
        }
        for b in 0..n {
            let start = b * (c1 + c2) * plane + c1 * plane;
            out.data_mut()[start..start + c2 * plane]
                .copy_from_slice(&other.data[b * c2 * plane..(b + 1) * c2 * plane]);
        }
        out
    }

    /// Splits a tensor along channels into `(first c1 channels, rest)` —
    /// the backward counterpart of [`Tensor::concat_channels`].
    ///
    /// # Panics
    ///
    /// Panics when `c1 > self.c()`.
    pub fn split_channels(&self, c1: usize) -> (Tensor, Tensor) {
        assert!(c1 <= self.c(), "split point beyond channel count");
        let (n, h, w) = (self.n(), self.h(), self.w());
        let c2 = self.c() - c1;
        let mut a = Tensor::zeros([n, c1, h, w]);
        // `c2 == 0` yields a one-channel zero placeholder (unused).
        let mut b = Tensor::zeros([n, c2.max(1), h, w]);
        let plane = h * w;
        for bi in 0..n {
            let src = &self.data[bi * self.c() * plane..];
            a.data_mut()[bi * c1 * plane..(bi + 1) * c1 * plane]
                .copy_from_slice(&src[..c1 * plane]);
            if c2 > 0 {
                b.data_mut()[bi * c2 * plane..(bi + 1) * c2 * plane]
                    .copy_from_slice(&src[c1 * plane..(c1 + c2) * plane]);
            }
        }
        (a, b)
    }

    /// Concatenates tensors along the batch axis — the micro-batching
    /// primitive of the serving engine: per-request `[1, C, H, W]` inputs
    /// become one `[N, C, H, W]` forward pass.
    ///
    /// Parts may themselves be batched (`n ≥ 1`); batch sizes are summed.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty or any part's channel/spatial
    /// dimensions differ from the first part's.
    pub fn stack_batch(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "stack_batch needs at least one tensor");
        let [_, c, h, w] = parts[0].shape;
        let mut n_total = 0usize;
        for (i, p) in parts.iter().enumerate() {
            assert_eq!(
                [p.c(), p.h(), p.w()],
                [c, h, w],
                "stack_batch: part {i} has shape {:?}, expected [_, {c}, {h}, {w}]",
                p.shape
            );
            n_total += p.n();
        }
        let mut data = Vec::with_capacity(n_total * c * h * w);
        for p in parts {
            data.extend_from_slice(p.data());
        }
        Tensor::from_vec([n_total, c, h, w], data)
    }

    /// Splits a batched tensor into `n()` single-sample `[1, C, H, W]`
    /// tensors — the inverse of [`Tensor::stack_batch`] over singleton
    /// parts, used to hand each serving request its own output.
    pub fn split_batch(&self) -> Vec<Tensor> {
        let [n, c, h, w] = self.shape;
        let stride = c * h * w;
        (0..n)
            .map(|b| {
                Tensor::from_vec(
                    [1, c, h, w],
                    self.data[b * stride..(b + 1) * stride].to_vec(),
                )
            })
            .collect()
    }

    /// Element-wise addition into `self`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Scales all elements in place.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Returns the tensor mirrored along the width axis (horizontal image
    /// flip — the pix2pix-style augmentation primitive).
    pub fn flipped_w(&self) -> Tensor {
        let [n, c, h, w] = self.shape;
        let mut out = Tensor::zeros(self.shape);
        for b in 0..n {
            for ci in 0..c {
                for y in 0..h {
                    let row = ((b * c + ci) * h + y) * w;
                    for x in 0..w {
                        out.data[row + x] = self.data[row + (w - 1 - x)];
                    }
                }
            }
        }
        out
    }

    /// Returns the tensor mirrored along the height axis (vertical flip).
    pub fn flipped_h(&self) -> Tensor {
        let [n, c, h, w] = self.shape;
        let mut out = Tensor::zeros(self.shape);
        for b in 0..n {
            for ci in 0..c {
                for y in 0..h {
                    let src = ((b * c + ci) * h + (h - 1 - y)) * w;
                    let dst = ((b * c + ci) * h + y) * w;
                    out.data[dst..dst + w].copy_from_slice(&self.data[src..src + w]);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut t = Tensor::zeros([2, 3, 4, 5]);
        assert_eq!(t.len(), 120);
        t.set(1, 2, 3, 4, 7.0);
        assert_eq!(t.at(1, 2, 3, 4), 7.0);
        assert_eq!(t.at(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn randn_statistics() {
        let t = Tensor::randn([1, 1, 100, 100], 0.0, 0.02, 3);
        let mean = t.mean();
        assert!(mean.abs() < 0.002, "mean {mean}");
        let var: f32 = t
            .data()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / t.len() as f32;
        assert!((var.sqrt() - 0.02).abs() < 0.002, "std {}", var.sqrt());
    }

    #[test]
    fn randn_deterministic() {
        let a = Tensor::randn([1, 2, 3, 4], 0.0, 1.0, 9);
        let b = Tensor::randn([1, 2, 3, 4], 0.0, 1.0, 9);
        assert_eq!(a, b);
        let c = Tensor::randn([1, 2, 3, 4], 0.0, 1.0, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn concat_then_split_roundtrip() {
        let a = Tensor::randn([2, 3, 4, 4], 0.0, 1.0, 1);
        let b = Tensor::randn([2, 5, 4, 4], 0.0, 1.0, 2);
        let cat = a.concat_channels(&b);
        assert_eq!(cat.shape(), [2, 8, 4, 4]);
        let (a2, b2) = cat.split_channels(3);
        assert_eq!(a, a2);
        assert_eq!(b, b2);
    }

    #[test]
    fn concat_preserves_values_at_positions() {
        let mut a = Tensor::zeros([1, 1, 2, 2]);
        a.set(0, 0, 1, 1, 5.0);
        let mut b = Tensor::zeros([1, 1, 2, 2]);
        b.set(0, 0, 0, 0, 9.0);
        let cat = a.concat_channels(&b);
        assert_eq!(cat.at(0, 0, 1, 1), 5.0);
        assert_eq!(cat.at(0, 1, 0, 0), 9.0);
    }

    #[test]
    #[should_panic(expected = "height mismatch")]
    fn concat_rejects_mismatched_spatial() {
        let a = Tensor::zeros([1, 1, 2, 2]);
        let b = Tensor::zeros([1, 1, 3, 2]);
        let _ = a.concat_channels(&b);
    }

    #[test]
    fn reshape_keeps_data() {
        let t = Tensor::from_vec([1, 1, 2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let r = t.clone().reshaped([1, 2, 3, 1]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    fn flips_are_involutions() {
        let t = Tensor::randn([2, 3, 4, 5], 0.0, 1.0, 11);
        assert_eq!(t.flipped_w().flipped_w(), t);
        assert_eq!(t.flipped_h().flipped_h(), t);
        assert_ne!(t.flipped_w(), t);
    }

    #[test]
    fn flip_moves_expected_elements() {
        let mut t = Tensor::zeros([1, 1, 2, 3]);
        t.set(0, 0, 0, 0, 1.0);
        let fw = t.flipped_w();
        assert_eq!(fw.at(0, 0, 0, 2), 1.0);
        assert_eq!(fw.at(0, 0, 0, 0), 0.0);
        let fh = t.flipped_h();
        assert_eq!(fh.at(0, 0, 1, 0), 1.0);
    }

    #[test]
    fn stack_then_split_roundtrip() {
        let a = Tensor::randn([1, 3, 4, 4], 0.0, 1.0, 1);
        let b = Tensor::randn([1, 3, 4, 4], 0.0, 1.0, 2);
        let c = Tensor::randn([2, 3, 4, 4], 0.0, 1.0, 3);
        let batch = Tensor::stack_batch(&[&a, &b, &c]);
        assert_eq!(batch.shape(), [4, 3, 4, 4]);
        let parts = batch.split_batch();
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
        let c_parts = c.split_batch();
        assert_eq!(parts[2], c_parts[0]);
        assert_eq!(parts[3], c_parts[1]);
    }

    #[test]
    fn stack_batch_preserves_element_positions() {
        let mut a = Tensor::zeros([1, 2, 2, 2]);
        a.set(0, 1, 1, 0, 5.0);
        let mut b = Tensor::zeros([1, 2, 2, 2]);
        b.set(0, 0, 0, 1, 9.0);
        let batch = Tensor::stack_batch(&[&a, &b]);
        assert_eq!(batch.at(0, 1, 1, 0), 5.0);
        assert_eq!(batch.at(1, 0, 0, 1), 9.0);
        assert_eq!(batch.at(1, 1, 1, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "stack_batch needs at least one tensor")]
    fn stack_batch_rejects_empty() {
        let _ = Tensor::stack_batch(&[]);
    }

    #[test]
    #[should_panic(expected = "stack_batch: part 1")]
    fn stack_batch_rejects_shape_mismatch() {
        let a = Tensor::zeros([1, 2, 4, 4]);
        let b = Tensor::zeros([1, 2, 4, 8]);
        let _ = Tensor::stack_batch(&[&a, &b]);
    }

    #[test]
    fn add_and_scale() {
        let mut a = Tensor::full([1, 1, 1, 3], 1.0);
        let b = Tensor::full([1, 1, 1, 3], 2.0);
        a.add_assign(&b);
        a.scale(0.5);
        assert_eq!(a.data(), &[1.5, 1.5, 1.5]);
        assert_eq!(a.mean(), 1.5);
    }
}
