//! The generator frozen for inference.
//!
//! [`UNetGenerator`](crate::UNetGenerator) is a training graph: batch
//! statistics, dropout, every layer caching what its backward pass needs
//! (so `&mut self`), each handing the next a fresh tensor. The one
//! inference path, [`InferencePlan`], is what
//! [`UNetGenerator::plan`](crate::UNetGenerator::plan) reads out of it
//! once — per block the weights laid out for their GEMM, the running-stat
//! batch-norm scalars and the activation — behind a `&self` forward that
//! any number of threads share.
//!
//! A forward keeps its activations in the thread's `pop-nn` workspace,
//! channel-major over the batch (`[C, N·H·W]`), the layout a transposed
//! convolution multiplies in place. Level `j` of the U owns one buffer,
//! the input of the decoder block on its way back up: the levels below
//! write that block's first channels (the previous decoder block's
//! output), the level's own encoder block wrote the rest (the skip) on the
//! way down — no concatenation, and requests are read from, and answers
//! written to, their own tensors. Every element goes through the layers'
//! arithmetic in their order (batch-norm by running statistics, no
//! dropout), so the output is theirs, bit for bit.

use pop_nn::{scratch, Batch, BatchMut, ForwardSplit, PlannedConv, PlannedDeconv, Tensor};

/// An inference-only snapshot of a [`UNetGenerator`](crate::UNetGenerator)
/// — same topology and weights, `&self` forward, no gradients, optimiser
/// state or activation caches. It does not follow later training of the
/// generator it was read from.
#[derive(Debug)]
pub struct InferencePlan {
    enc: Vec<PlannedConv>,
    dec: Vec<PlannedDeconv>,
    skip_at: Vec<bool>,
}

impl InferencePlan {
    pub(crate) fn from_parts(
        enc: Vec<PlannedConv>,
        dec: Vec<PlannedDeconv>,
        skip_at: Vec<bool>,
    ) -> Self {
        InferencePlan { enc, dec, skip_at }
    }

    /// Paints `[N, C, H, W]` features into `[N, 3, H, W]` heat maps — the
    /// generator's inference forward (no dropout, batch-norm by running
    /// statistics).
    ///
    /// # Panics
    ///
    /// Panics when `x`'s channels disagree with the generator, or its
    /// spatial size does not survive the encoder and the skip connections.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let [n, c, h, w] = x.shape();
        let (out_c, (ho, wo)) = self.output(c, (h, w));
        let mut y = Tensor::zeros([n, out_c, ho, wo]);
        let out = &mut BatchMut::nchw(y.data_mut(), out_c, ho * wo);
        self.level(0, Batch::nchw(x), (h, w), n, out, None);
        y
    }

    /// [`InferencePlan::forward`] over one `[1, C, H, W]` tensor per
    /// request: all of them go through the network as one batch, each read
    /// from its own tensor and answered in a tensor of its own. Inference
    /// treats batch elements independently, so every answer is
    /// bitwise-identical to forwarding its request alone.
    ///
    /// # Panics
    ///
    /// Panics when the inputs are not all the same `[1, C, H, W]` shape,
    /// and as [`InferencePlan::forward`].
    pub fn forecast_batch(&self, xs: &[&Tensor]) -> Vec<Tensor> {
        self.forecast_batch_with(xs, None)
    }

    /// [`InferencePlan::forecast_batch`], with where each block's time
    /// went: one [`ForwardSplit`] per block, the encoder's from the input
    /// down (`enc0`, `enc1`, …), then the decoder's from the bottleneck up
    /// (`dec0`, …). The answers are the same bits.
    ///
    /// # Panics
    ///
    /// As [`InferencePlan::forecast_batch`].
    pub fn forecast_batch_split(&self, xs: &[&Tensor]) -> (Vec<Tensor>, Vec<ForwardSplit>) {
        let mut splits = vec![ForwardSplit::default(); self.enc.len() + self.dec.len()];
        let ys = self.forecast_batch_with(xs, Some(&mut splits));
        (ys, splits)
    }

    fn forecast_batch_with(
        &self,
        xs: &[&Tensor],
        splits: Option<&mut [ForwardSplit]>,
    ) -> Vec<Tensor> {
        let Some(first) = xs.first() else {
            return Vec::new();
        };
        let [_, c, h, w] = first.shape();
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(
                x.shape(),
                [1, c, h, w],
                "forecast_batch: input {i} differs from input 0 or is itself a batch"
            );
        }
        let (out_c, (ho, wo)) = self.output(c, (h, w));
        let mut ys: Vec<Tensor> = xs
            .iter()
            .map(|_| Tensor::zeros([1, out_c, ho, wo]))
            .collect();
        self.level(
            0,
            Batch::Tensors(xs),
            (h, w),
            xs.len(),
            &mut BatchMut::Tensors(&mut ys),
            splits,
        );
        ys
    }

    /// Output channels and spatial size for `in_c`-channel `dims` inputs.
    fn output(&self, in_c: usize, dims: (usize, usize)) -> (usize, (usize, usize)) {
        assert_eq!(in_c, self.enc[0].geom().in_c, "generator input channels");
        let out_c = self.dec[self.dec.len() - 1].geom().out_c;
        (
            out_c,
            self.decoded(self.dec.len(), self.bottleneck(0, dims)),
        )
    }

    /// The spatial size encoder blocks `from..` reduce `dims` to.
    fn bottleneck(&self, from: usize, dims: (usize, usize)) -> (usize, usize) {
        self.enc[from..]
            .iter()
            .fold(dims, |d, e| e.geom().conv_out(d))
    }

    /// The spatial size after the first `blocks` decoder blocks.
    fn decoded(&self, blocks: usize, bottleneck: (usize, usize)) -> (usize, usize) {
        self.dec[..blocks]
            .iter()
            .fold(bottleneck, |d, dec| dec.geom().deconv_out(d))
    }

    /// Level `j` of the U: encoder block `j` on `x`, the levels below it,
    /// then the decoder block at this resolution, its output into `y`;
    /// each block's [`ForwardSplit`] into `splits` when asked for.
    fn level(
        &self,
        j: usize,
        x: Batch<'_>,
        dims: (usize, usize),
        n: usize,
        y: &mut BatchMut<'_>,
        mut splits: Option<&mut [ForwardSplit]>,
    ) {
        let i = self.enc.len() - 1 - j;
        let (enc, dec) = (&self.enc[j], &self.dec[i]);
        let e_dims = enc.geom().conv_out(dims);
        // What comes back up from below: nothing at the bottleneck, else
        // the previous decoder block's output.
        let (up_c, up_dims) = match i {
            0 => (0, e_dims),
            _ => (
                self.dec[i - 1].geom().out_c,
                self.decoded(i, self.bottleneck(j + 1, e_dims)),
            ),
        };
        let (up_plane, e_plane) = (up_dims.0 * up_dims.1, e_dims.0 * e_dims.1);
        let (up, skip) = (up_c * n * up_plane, enc.geom().out_c * n * e_plane);
        scratch(up + skip, |buf| {
            let (u, e) = buf.split_at_mut(up);
            let skip_out = &mut BatchMut::channel_major(e, n, e_plane);
            match splits.as_deref_mut() {
                Some(s) => s[j] = enc.forward_split(x, dims, n, skip_out),
                None => enc.forward(x, dims, n, skip_out),
            }
            if i > 0 {
                let below = &mut BatchMut::channel_major(u, n, up_plane);
                let e = Batch::channel_major(e, n, e_plane);
                self.level(j + 1, e, e_dims, n, below, splits.as_deref_mut());
            }
            // The decoder block multiplies `[u; e]` as one matrix when it
            // takes the skip, `u` alone otherwise (at the bottleneck `u` is
            // empty and `e` is its whole input).
            let takes_skip = i == 0 || self.skip_at[i];
            if takes_skip {
                assert_eq!(up_dims, e_dims, "skip connection joins maps of one size");
            }
            let input = &buf[..if takes_skip { up + skip } else { up }];
            debug_assert_eq!(input.len(), dec.geom().in_c * n * up_plane);
            let input = Batch::channel_major(input, n, up_plane);
            match splits {
                Some(s) => s[self.enc.len() + i] = dec.forward_split(input, up_dims, n, y),
                None => dec.forward(input, up_dims, n, y),
            }
        });
    }
}
