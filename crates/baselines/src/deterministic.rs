//! GraphCast-class deterministic baseline: the identical Swin backbone
//! trained to regress the (standardized) residual with the physically
//! weighted MSE. Section IV-A of the paper: such models deliver competitive
//! medium-range skill but blur at long leads and have no ensemble spread.

use aeris_core::forecast::{add_residual, rollout};
use aeris_core::training::batch_mean;
use aeris_core::{AerisModel, TrainSample};
use aeris_earthsim::NormStats;
use aeris_nn::{AdamW, AdamWConfig};
use aeris_tensor::Tensor;

/// A deterministic residual-regression forecaster on the AERIS backbone.
/// The diffusion-conditioning slot (`x_t`) is fed zeros at `t = 0`.
pub struct DeterministicForecaster {
    pub model: AerisModel,
    pub stats: NormStats,
    /// Residual statistics (prediction targets are residual-standardized).
    pub res_stats: NormStats,
}

impl DeterministicForecaster {
    /// Wrap a freshly initialized model.
    pub fn new(model: AerisModel, stats: NormStats, res_stats: NormStats) -> Self {
        DeterministicForecaster { model, stats, res_stats }
    }

    /// One training step over a batch: weighted MSE on the standardized
    /// residual. Returns the mean loss.
    pub fn train_step(
        &mut self,
        opt: &mut AdamW,
        batch: &[&TrainSample],
        weights: &Tensor,
        lr: f32,
    ) -> f64 {
        let zeros = Tensor::zeros(&[self.model.cfg.tokens(), self.model.cfg.channels]);
        let model = &self.model;
        let (loss, grads) = batch_mean(
            model.store.len(),
            batch.iter().map(|s| {
                model.loss_and_grads(&zeros, &s.x_prev, &s.forcings, 0.0, &s.residual, weights)
            }),
        );
        opt.step(&mut self.model.store, &grads, lr);
        loss
    }

    /// Train for `epochs` shuffled passes.
    pub fn fit(
        &mut self,
        samples: &[TrainSample],
        weights: &Tensor,
        batch: usize,
        epochs: usize,
        lr: f32,
        seed: u64,
    ) -> Vec<f64> {
        let opt = AdamW::new(&self.model.store, AdamWConfig::default());
        crate::fit(opt, samples, batch, epochs, seed, |opt, b, _| {
            self.train_step(opt, b, weights, lr)
        })
    }

    /// One deterministic forecast step in physical units.
    pub fn forecast_step(&self, x_prev: &Tensor, forcings: &Tensor) -> Tensor {
        let prev_std = self.stats.standardize(x_prev);
        let zeros = Tensor::zeros(prev_std.shape());
        let pred = self.model.velocity(&zeros, &prev_std, forcings, 0.0);
        add_residual(x_prev, &pred, &self.res_stats)
    }

    /// Deterministic autoregressive rollout.
    pub fn rollout(&self, x0: &Tensor, forcings: &dyn Fn(usize) -> Tensor, steps: usize) -> Vec<Tensor> {
        rollout(x0, forcings, steps, |x, f| self.forecast_step(x, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeris_core::AerisConfig;
    use aeris_diffusion::loss_weights;
    use aeris_earthsim::Grid;
    use aeris_tensor::Rng;

    fn setup() -> (DeterministicForecaster, Vec<TrainSample>, Tensor) {
        let cfg = AerisConfig::test_tiny();
        let grid = Grid::new(cfg.grid_h, cfg.grid_w);
        let weights = loss_weights(&grid.token_lat_weights(), &vec![1.0; cfg.channels]);
        let mut rng = Rng::seed_from(3);
        let samples: Vec<TrainSample> = (0..6)
            .map(|_| {
                let x_prev = Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng);
                // Learnable rule: residual = 0.5 * prev (plus noise).
                let residual = x_prev.scale(0.5);
                TrainSample { x_prev, residual, forcings: Tensor::zeros(&[cfg.tokens(), 3]) }
            })
            .collect();
        let stats = NormStats { mean: vec![0.0; cfg.channels], std: vec![1.0; cfg.channels] };
        (
            DeterministicForecaster::new(AerisModel::new(cfg), stats.clone(), stats),
            samples,
            weights,
        )
    }

    #[test]
    fn training_reduces_loss() {
        let (mut f, samples, weights) = setup();
        let losses = f.fit(&samples, &weights, 2, 6, 3e-3, 1);
        let head = losses[0];
        let tail = *losses.last().unwrap();
        assert!(tail < head * 0.8, "no learning: {head:.4} -> {tail:.4}");
    }

    #[test]
    fn rollout_is_deterministic_with_zero_spread() {
        let (f, samples, _) = setup();
        let forc = |_k: usize| Tensor::zeros(&[128, 3]);
        let a = f.rollout(&samples[0].x_prev, &forc, 3);
        let b = f.rollout(&samples[0].x_prev, &forc, 3);
        assert_eq!(a[2], b[2], "deterministic model must have zero ensemble spread");
    }
}
