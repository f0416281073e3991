//! Baseline forecast systems for the AERIS evaluation (§VII-B).
//!
//! - [`simple`]: persistence and climatology (the WeatherBench floor),
//! - [`deterministic`]: a GraphCast-class deterministic model — the same
//!   Swin backbone trained with weighted MSE; exhibits the blurring and
//!   zero-spread ensembles that motivate diffusion,
//! - [`gencast`]: the GenCast analog — the same backbone under the EDM
//!   σ-space parameterization with a stochastic Heun sampler,
//! - [`numerical`]: the IFS ENS analog — the toy dynamical core integrated
//!   from perturbed initial conditions with per-member stochastic physics.

// Numerical kernels here frequently walk several arrays with one shared
// index; explicit indexed loops are clearer than zipped iterator chains in
// that style, so the pedantic range-loop lint is disabled crate-wide.
#![allow(clippy::needless_range_loop)]

pub mod deterministic;
pub mod gencast;
pub mod numerical;
pub mod simple;

pub use deterministic::DeterministicForecaster;
pub use gencast::GenCastAnalog;
pub use numerical::numerical_ensemble;
pub use simple::{climatology_forecast, persistence_forecast};

use aeris_core::TrainSample;
use aeris_nn::AdamW;
use aeris_tensor::Rng;

/// The baselines' epoch loop: `epochs` shuffled passes over `samples`, one
/// `step(opt, batch, rng)` per batch of `batch` samples. The shuffle and the
/// step draw from one RNG seeded with `seed`. Returns the per-step losses.
pub(crate) fn fit(
    mut opt: AdamW,
    samples: &[TrainSample],
    batch: usize,
    epochs: usize,
    seed: u64,
    mut step: impl FnMut(&mut AdamW, &[&TrainSample], &mut Rng) -> f64,
) -> Vec<f64> {
    let mut rng = Rng::seed_from(seed);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut losses = Vec::new();
    for _ in 0..epochs {
        rng.shuffle(&mut order);
        for chunk in order.chunks(batch.max(1)) {
            let b: Vec<&TrainSample> = chunk.iter().map(|&i| &samples[i]).collect();
            losses.push(step(&mut opt, &b, &mut rng));
        }
    }
    losses
}
