//! Pure-Rust neural-network substrate for the cGAN forecaster.
//!
//! The paper trains its model in TensorFlow on a GPU; neither is available
//! here, so this crate implements the required subset of a deep-learning
//! framework in plain Rust:
//!
//! * [`Tensor`] — dense `f32` NCHW tensors;
//! * [`Layer`] — the training forward/backward contract, with
//!   implementations for [`Conv2d`], [`ConvTranspose2d`], [`BatchNorm2d`],
//!   [`LeakyRelu`], [`Relu`], [`Tanh`] and [`Dropout`] — exactly the
//!   blocks of the paper's Figure 5 architecture (the discriminator's
//!   sigmoid lives in its loss, [`loss::bce_with_logits`]);
//! * [`PlannedConv`] / [`PlannedDeconv`] — a convolution block frozen for
//!   inference by [`Conv2d::plan`] / [`ConvTranspose2d::plan`]: its
//!   batch-norm by running statistics ([`BatchNorm2d::inference_norm`])
//!   and its activation applied in the GEMM's epilogue, dropout dropped;
//! * [`tanh_in_place`] — the generator's output `tanh` over a slice:
//!   glibc's fdlibm `tanhf`, which `f32::tanh` calls on glibc hosts,
//!   rewritten so that each lane computes every path and selects one. Its
//!   contract is bitwise, like the GEMM's ([`linalg`]): for every one of
//!   the 2³² `f32` inputs it stores the bits glibc 2.36's `tanhf` returns
//!   (NaN to the same NaN, quieted), in both instantiations (baseline and
//!   AVX2, never `fma`), whatever libm the host links. The [`Tanh`] layer,
//!   the plans' `tanh` epilogue ([`Activation::Tanh`]) and the quantized
//!   decoder all call it;
//! * [`loss`] — the stable binary-cross-entropy-with-logits of the GAN
//!   objective (Equation 2) and the L1 term of §4.4/§5.3;
//! * [`Adam`] — the optimiser with the paper's hyper-parameters
//!   (`lr = 2e-4`, `β₁ = 0.5`, `β₂ = 0.999`, `ε = 1e-8`) as defaults;
//! * [`gradcheck`] — finite-difference gradient verification used
//!   throughout the test suite.
//!
//! Backpropagation is implemented manually per layer (no autograd tape):
//! each layer caches what its backward pass needs, and composite models
//! (the U-Net in [`pop-core`](../pop_core/index.html)) call `backward` in
//! reverse order, routing gradients through skip connections explicitly.
//! [`Conv2d`], [`BatchNorm2d`] and [`LeakyRelu`] also expose the pass
//! functions their [`Layer`] impls wrap (`forward_pass` / `backward_pass`,
//! and [`BatchNorm2d::commit`] for the running statistics), which keep that
//! cache in a value the caller owns ([`ConvCache`], [`NormCache`]), read
//! only the weights, and take the gradients to add onto as an argument —
//! none, for a backward that wants only the input gradient. The
//! discriminator runs its real and fake passes side by side through them.
//!
//! # Example
//!
//! ```
//! use pop_nn::{Conv2d, Layer, Tensor, Adam};
//!
//! let mut conv = Conv2d::new(3, 8, 4, 2, 1, 7);
//! let x = Tensor::randn([1, 3, 16, 16], 0.0, 1.0, 42);
//! let y = conv.forward(&x);
//! assert_eq!(y.shape(), [1, 8, 8, 8]);
//! let dx = conv.backward(&y); // pretend dL/dy = y
//! assert_eq!(dx.shape(), x.shape());
//! let mut adam = Adam::paper();
//! adam.step(&mut conv.params_mut());
//! ```

mod act;
mod adam;
mod conv;
mod dropout;
pub mod gradcheck;
mod im2col;
pub mod linalg;
pub mod loss;
mod lower;
mod norm;
mod param;
pub mod quant;
mod tanh;
mod tensor;
mod workspace;

pub use act::{LeakyRelu, Relu, Tanh};
pub use adam::Adam;
pub use conv::{Conv2d, ConvCache, ConvTranspose2d};
pub use dropout::Dropout;
pub use lower::{Activation, Batch, BatchMut, ConvGeom, Norm, PlannedConv, PlannedDeconv};
pub use norm::{BatchNorm2d, NormCache};
pub use param::Param;
pub use tanh::tanh_in_place;
pub use tensor::Tensor;
pub use workspace::scratch;

/// The layer contract: the training forward (caching activations) and
/// backward (consuming the cache, accumulating parameter gradients,
/// returning the input gradient).
///
/// A forward is always the training forward: batch-norm normalises by the
/// batch's statistics (and moves its running ones), dropout drops.
/// Inference is a plan read out of the layers ([`Conv2d::plan`],
/// [`ConvTranspose2d::plan`]), which needs only `&self`.
pub trait Layer {
    /// Computes the layer output, caching whatever `backward` will need.
    fn forward(&mut self, x: &Tensor) -> Tensor;

    /// Propagates `grad_out` (dL/d-output) to dL/d-input, accumulating
    /// parameter gradients internally.
    ///
    /// # Panics
    ///
    /// Implementations may panic when called before `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// The layer's trainable parameters (empty for activations).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Non-trainable state that checkpoints must carry (batch-norm running
    /// statistics). Empty for stateless layers.
    fn buffers_mut(&mut self) -> Vec<&mut Vec<f32>> {
        Vec::new()
    }

    /// Zeroes all accumulated parameter gradients. `backward` adds onto
    /// them, so they must be zero before an accumulation starts;
    /// [`Adam::step`] leaves the gradients it reads at zero, so this is
    /// needed only after a backward pass whose gradients no optimiser
    /// consumes.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }
}
