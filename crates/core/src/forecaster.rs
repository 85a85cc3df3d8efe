//! Shared, non-exclusive inference entry points.
//!
//! [`Pix2Pix`] is a trainer: its methods take `&mut self`, and a forecast
//! must not race a training step. Serving and evaluation want the
//! opposite — forecasts through a shared receiver. This module provides
//! the seam between the two worlds:
//!
//! * [`Forecaster`] — the object-safe "give me a heat map" contract that
//!   the §5.4 applications ([`crate::apps`]) consume, implemented both by
//!   an exclusively borrowed model and by `pop-serve`'s batching client;
//! * [`ExclusiveForecaster`] — the model's [`InferencePlan`] behind that
//!   contract, the model itself borrowed for as long so that it cannot
//!   train away from the plan. Sharing one model between threads is
//!   `pop-serve`'s job (every worker runs the same plan, no model mutex).

use crate::error::CoreError;
use crate::features::tensor_to_image;
use crate::plan::InferencePlan;
use crate::trainer::Pix2Pix;
use pop_nn::Tensor;
use pop_raster::Image;
use std::marker::PhantomData;
use std::sync::Arc;

/// The inference contract: paint a routing heat map for one input feature
/// tensor, through a shared (`&self`) receiver.
pub trait Forecaster {
    /// Paints the heat map for `x` (inference mode — dropout off,
    /// batch-norm running statistics).
    ///
    /// # Errors
    ///
    /// Implementations report transport or model failures as
    /// [`CoreError::Pipeline`].
    fn forecast(&self, x: &Tensor) -> Result<Tensor, CoreError>;

    /// [`Forecaster::forecast`] decoded into an image.
    ///
    /// # Errors
    ///
    /// Propagates [`Forecaster::forecast`] failures.
    fn forecast_image(&self, x: &Tensor) -> Result<Image, CoreError> {
        Ok(tensor_to_image(&self.forecast(x)?))
    }

    /// Paints heat maps for many inputs. The default implementation loops
    /// [`Forecaster::forecast`]; implementations backed by a model override
    /// it with one stacked forward pass
    /// ([`Pix2Pix::forecast_batch`] is bitwise-identical to per-sample
    /// inference), which is what lets an evaluation compute *every* metric
    /// from a single batched inference sweep.
    ///
    /// # Errors
    ///
    /// Propagates [`Forecaster::forecast`] failures.
    fn forecast_batch(&self, xs: &[&Tensor]) -> Result<Vec<Tensor>, CoreError> {
        xs.iter().map(|x| self.forecast(x)).collect()
    }
}

/// Adapts an exclusively-borrowed model to the shared [`Forecaster`]
/// contract for the duration of a single-threaded evaluation loop — the
/// seam that lets `&mut Pix2Pix` entry points (the Table 2 binaries, the
/// classic `metrics` helpers) drive the same batched single-pass
/// evaluation code the serving/eval layers use, without a mutex.
pub struct ExclusiveForecaster<'a> {
    plan: Arc<InferencePlan>,
    model: PhantomData<&'a mut Pix2Pix>,
}

impl<'a> ExclusiveForecaster<'a> {
    /// Borrows `model` exclusively for forecasting.
    pub fn new(model: &'a mut Pix2Pix) -> Self {
        ExclusiveForecaster {
            plan: model.plan(),
            model: PhantomData,
        }
    }
}

impl Forecaster for ExclusiveForecaster<'_> {
    fn forecast(&self, x: &Tensor) -> Result<Tensor, CoreError> {
        Ok(self.plan.forward(x))
    }

    fn forecast_batch(&self, xs: &[&Tensor]) -> Result<Vec<Tensor>, CoreError> {
        Ok(self.plan.forecast_batch(xs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;

    fn tiny_model(seed: u64) -> Pix2Pix {
        let config = ExperimentConfig {
            resolution: 16,
            base_filters: 4,
            depth: 3,
            ..ExperimentConfig::test()
        };
        Pix2Pix::new(&config, seed).unwrap()
    }

    #[test]
    fn exclusive_forecaster_matches_the_model_and_batches() {
        let mut model = tiny_model(7);
        let xs: Vec<Tensor> = (0..3)
            .map(|s| Tensor::randn([1, 4, 16, 16], 0.0, 0.5, 20 + s))
            .collect();
        let direct: Vec<Tensor> = xs.iter().map(|x| model.forecast(x)).collect();
        let f = ExclusiveForecaster::new(&mut model);
        let refs: Vec<&Tensor> = xs.iter().collect();
        assert_eq!(f.forecast_batch(&refs).unwrap(), direct);
        assert_eq!(f.forecast(&xs[0]).unwrap(), direct[0]);
    }

    #[test]
    fn default_forecast_batch_loops_forecast() {
        // A Forecaster that only implements `forecast` still batches via
        // the default method — one result per input, in order.
        struct Doubler;
        impl Forecaster for Doubler {
            fn forecast(&self, x: &Tensor) -> Result<Tensor, CoreError> {
                let mut out = x.clone();
                out.scale(2.0);
                Ok(out)
            }
        }
        let xs: Vec<Tensor> = (0..2)
            .map(|s| Tensor::randn([1, 1, 4, 4], 0.0, 1.0, s))
            .collect();
        let refs: Vec<&Tensor> = xs.iter().collect();
        let out = Doubler.forecast_batch(&refs).unwrap();
        assert_eq!(out.len(), 2);
        for (o, x) in out.iter().zip(&xs) {
            let mut want = x.clone();
            want.scale(2.0);
            assert_eq!(o, &want);
        }
    }
}
