//! Shared harness for the experiment binaries that regenerate the paper's
//! tables and figures (see DESIGN.md for the experiment index).
//!
//! Every repeated timing in the bench binaries goes through [`measure`],
//! which returns a [`Measurement`]: the sorted per-call seconds, from which
//! the binaries read their median (or best-of), spread and overheads.
//!
//! Every binary honors `AERIS_FULL=1` for a longer, higher-fidelity run;
//! the default "quick" settings finish in minutes on a laptop while
//! preserving the qualitative shapes (who wins, where crossovers fall).

// Numerical kernels here frequently walk several arrays with one shared
// index; explicit indexed loops are clearer than zipped iterator chains in
// that style, so the pedantic range-loop lint is disabled crate-wide.
#![allow(clippy::needless_range_loop)]

use aeris_core::{
    prepare_samples, AerisConfig, AerisModel, Forecaster, TrainSample, Trainer, TrainerConfig,
};
use aeris_diffusion::{SamplerConfig, TrigFlow, TrigFlowSampler};
use aeris_earthsim::{Dataset, NormStats, Scenario, ToyParams, VariableSet};
use aeris_nn::LrSchedule;
use aeris_swipe::data::InMemorySource;
use aeris_tensor::{Rng, Tensor};
use std::time::Instant;

/// The per-call wall times of one repeated timing.
#[derive(Debug)]
pub struct Measurement {
    /// Seconds per timed call, ascending (only [`measure`] builds one).
    secs: Vec<f64>,
    /// Rayon worker threads in effect while timing.
    pub threads: usize,
}

/// Time `reps` calls of `f` after one untimed warmup call.
pub fn measure(reps: usize, mut f: impl FnMut()) -> Measurement {
    assert!(reps > 0, "measure needs at least one timed call");
    f();
    let mut secs: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    Measurement { secs, threads: rayon::current_num_threads() }
}

impl Measurement {
    /// Seconds per timed call, ascending.
    pub fn secs(&self) -> &[f64] {
        &self.secs
    }

    /// The `k`-th quartile (`k` in 0..=3) by index into the sorted times.
    fn quartile(&self, k: usize) -> f64 {
        self.secs[self.secs.len() * k / 4]
    }

    /// Median seconds per call (the upper median for an even count).
    pub fn median(&self) -> f64 {
        self.quartile(2)
    }

    /// Fastest call, in seconds.
    pub fn min(&self) -> f64 {
        self.secs[0]
    }

    /// Interquartile range q3 − q1, in seconds.
    pub fn spread(&self) -> f64 {
        self.quartile(3) - self.quartile(1)
    }

    /// How much slower this is than `baseline`, in percent of the baseline's
    /// median time: positive means slower.
    pub fn overhead_pct(&self, baseline: &Measurement) -> f64 {
        (self.median() / baseline.median() - 1.0) * 100.0
    }
}

/// Scale knobs for an experiment run.
#[derive(Clone, Copy, Debug)]
pub struct RunScale {
    /// Training images for learned models.
    pub train_images: u64,
    /// Ensemble members.
    pub members: usize,
    /// Initial conditions for skill curves.
    pub initial_conditions: usize,
    /// Sampler solver steps.
    pub sampler_steps: usize,
}

impl RunScale {
    /// Read from the environment: quick by default, `AERIS_FULL=1` for the
    /// full-fidelity run.
    pub fn from_env() -> Self {
        if std::env::var("AERIS_FULL").map(|v| v == "1").unwrap_or(false) {
            RunScale { train_images: 6000, members: 16, initial_conditions: 6, sampler_steps: 10 }
        } else {
            RunScale { train_images: 1600, members: 5, initial_conditions: 2, sampler_steps: 6 }
        }
    }
}

/// The standard toy experiment setup: 16×32 grid, Z/T/U/V/Q on
/// {850, 700, 500} hPa (20 channels), 4-block pixel-level Swin.
pub fn toy_vars() -> VariableSet {
    VariableSet::with_levels(&[850, 700, 500])
}

/// Simulator parameters for the experiment grid.
pub fn toy_sim_params(seed: u64, scenario: Scenario) -> ToyParams {
    ToyParams { nlat: 16, nlon: 32, seed, scenario, ..Default::default() }
}

/// Model config matched to the toy grid.
pub fn toy_model_config(vars: &VariableSet) -> AerisConfig {
    AerisConfig {
        grid_h: 16,
        grid_w: 32,
        channels: vars.len(),
        forcing_channels: 3,
        dim: 48,
        n_heads: 4,
        ffn: 96,
        n_layers: 2,
        blocks_per_layer: 2,
        window: (4, 4),
        time_feat_dim: 32,
        cond_dim: 48,
        pos_amp: 0.1,
        seed: 0,
    }
}

/// The small SWiPe/trainer model the recovery and tracing benches share.
pub fn toy_model() -> AerisConfig {
    AerisConfig { seed: 3, ..AerisConfig::test_tiny() }
}

/// Eight seeded random training samples for [`toy_model`] and the loss
/// weights of its grid (uniform channel weights).
pub fn toy_swipe_data() -> (InMemorySource, Tensor) {
    let cfg = toy_model();
    let mut rng = Rng::seed_from(9);
    let samples: Vec<TrainSample> = (0..8)
        .map(|_| TrainSample {
            x_prev: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng),
            residual: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng).scale(0.3),
            forcings: Tensor::randn(&[cfg.tokens(), 3], &mut rng),
        })
        .collect();
    let lat = aeris_earthsim::Grid::new(cfg.grid_h, cfg.grid_w).token_lat_weights();
    (InMemorySource { samples }, aeris_diffusion::loss_weights(&lat, &vec![1.0; cfg.channels]))
}

/// An untrained forecaster over [`toy_model_config`] with unit statistics.
/// Serving and guidance cost depend on the architecture and the sampler,
/// not on the weights, so the bench bins skip training.
pub fn untrained_forecaster(sampler: SamplerConfig) -> Forecaster {
    let cfg = toy_model_config(&toy_vars());
    let channels = cfg.channels;
    let stats = NormStats { mean: vec![0.0; channels], std: vec![1.0; channels] };
    Forecaster {
        model: AerisModel::new(cfg),
        res_stats: stats.clone(),
        stats,
        sampler: TrigFlowSampler::new(TrigFlow::default(), sampler),
    }
}

/// Generate the standard train/val/test dataset (chronological splits,
/// §VI-B protocol in miniature).
pub fn build_dataset(seed: u64, scenario: Scenario, n_steps: usize) -> Dataset {
    Dataset::generate(toy_sim_params(seed, scenario), &toy_vars(), n_steps, 60, 0.8, 0.1)
}

/// Train an AERIS forecaster on the dataset's training split and return the
/// EMA inference model.
pub fn train_aeris(ds: &Dataset, scale: &RunScale, seed: u64) -> Forecaster {
    let vars = &ds.vars;
    let cfg = AerisConfig { seed, ..toy_model_config(vars) };
    let mut model = AerisModel::new(cfg);
    let tcfg = TrainerConfig {
        schedule: LrSchedule {
            peak: 2e-3,
            warmup: scale.train_images / 10,
            decay: scale.train_images / 5,
            total: scale.train_images,
        },
        batch: 2,
        ema_halflife: scale.train_images as f64 / 8.0,
        ..TrainerConfig::paper_scaled(scale.train_images, 2)
    };
    let mut trainer = Trainer::new(&model, ds.grid, &vars.kappa(), tcfg);
    let samples = prepare_samples(ds, ds.split_ranges().0);
    trainer.fit(&mut model, &samples, scale.train_images);
    let ema = trainer.ema_model(&model);
    Forecaster {
        model: ema,
        stats: ds.stats.clone(),
        res_stats: ds.res_stats.clone(),
        sampler: TrigFlowSampler::new(
            TrigFlow::default(),
            SamplerConfig { n_steps: scale.sampler_steps, churn: 0.1, second_order: true },
        ),
    }
}

/// Format a row of floats for the report tables.
pub fn fmt_row(label: &str, values: &[f64], width: usize, prec: usize) -> String {
    let mut s = format!("{label:<16}");
    for v in values {
        s.push_str(&format!("{v:>width$.prec$}"));
    }
    s
}

/// Print a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

use aeris_earthsim::{CycloneSeed, HeatwaveSeed, ToyAtmosphere};

/// The standard experiment scenario: events in the training window (so the
/// learned models see examples) and a held-out cyclone + heatwave in the test
/// window, under a decaying warm ENSO (the 2020-like setting of the paper's
/// case studies).
pub fn standard_scenario() -> Scenario {
    // Storm genesis points sit in open tropical ocean for this seed's
    // procedural continents (central Pacific; the 300E Atlantic analog is
    // land at 16x32 for seed 2020).
    Scenario {
        cyclones: vec![
            CycloneSeed { lat: 16.0, lon: 190.0, ..CycloneSeed::laura_like(10.0 * 24.0) },
            CycloneSeed { lat: 16.0, lon: 190.0, ..CycloneSeed::laura_like(40.0 * 24.0) },
            CycloneSeed { lat: -14.0, lon: 80.0, ..CycloneSeed::laura_like(60.0 * 24.0) },
            // Held-out test cyclone.
            CycloneSeed { lat: 16.0, lon: 190.0, ..CycloneSeed::laura_like(95.0 * 24.0) },
        ],
        heatwaves: vec![
            HeatwaveSeed::europe_like(25.0 * 24.0),
            HeatwaveSeed::europe_like(70.0 * 24.0),
            // Held-out test heatwave.
            HeatwaveSeed::europe_like(100.0 * 24.0),
        ],
        enso_init: Some((0.9, 1.1)),
    }
}

/// Recreate the truth simulator at dataset step `i` (dataset generation spins
/// up 60 steps and then records; this replays the identical trajectory).
pub fn sim_at(seed: u64, scenario: Scenario, step: usize) -> ToyAtmosphere {
    let mut sim = ToyAtmosphere::new(toy_sim_params(seed, scenario));
    sim.spinup(60);
    for _ in 0..step {
        sim.step();
    }
    sim
}

/// Forcing provider closure for rollouts starting at dataset step `i0`.
pub fn forcing_provider(
    seed: u64,
    i0_hours: f64,
) -> impl Fn(usize) -> aeris_tensor::Tensor + Sync {
    let grid = aeris_earthsim::Grid::new(16, 32);
    let clim = aeris_earthsim::Climate::new(grid, seed ^ 0xEA57);
    move |k: usize| {
        aeris_earthsim::forcings_at(&clim, (i0_hours + k as f64 * 6.0) / 24.0)
    }
}

/// The Climate matching `toy_sim_params(seed, ..)`.
pub fn toy_climate(seed: u64) -> aeris_earthsim::Climate {
    aeris_earthsim::Climate::new(aeris_earthsim::Grid::new(16, 32), seed ^ 0xEA57)
}

/// Train the deterministic (GraphCast-class) baseline.
pub fn train_deterministic(
    ds: &Dataset,
    scale: &RunScale,
    seed: u64,
) -> aeris_baselines::DeterministicForecaster {
    let cfg = AerisConfig { seed: seed ^ 0xD, ..toy_model_config(&ds.vars) };
    let mut f = aeris_baselines::DeterministicForecaster::new(
        AerisModel::new(cfg),
        ds.stats.clone(),
        ds.res_stats.clone(),
    );
    let samples = prepare_samples(ds, ds.split_ranges().0);
    let weights =
        aeris_diffusion::loss_weights(&ds.grid.token_lat_weights(), &ds.vars.kappa());
    let epochs = (scale.train_images as usize / samples.len()).max(1);
    f.fit(&samples, &weights, 2, epochs, 2e-3, seed);
    f
}

/// Train the GenCast-analog (EDM) baseline.
pub fn train_gencast(ds: &Dataset, scale: &RunScale, seed: u64) -> aeris_baselines::GenCastAnalog {
    let cfg = AerisConfig { seed: seed ^ 0xE, ..toy_model_config(&ds.vars) };
    let mut g = aeris_baselines::GenCastAnalog::new(
        AerisModel::new(cfg),
        ds.stats.clone(),
        ds.res_stats.clone(),
    );
    g.n_sample_steps = scale.sampler_steps;
    let samples = prepare_samples(ds, ds.split_ranges().0);
    let weights =
        aeris_diffusion::loss_weights(&ds.grid.token_lat_weights(), &ds.vars.kappa());
    let epochs = (scale.train_images as usize / samples.len()).max(1);
    g.fit(&samples, &weights, 2, epochs, 2e-3, seed);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(secs: &[f64]) -> Measurement {
        Measurement { secs: secs.to_vec(), threads: 1 }
    }

    #[test]
    fn measurement_statistics_on_a_fixed_sample() {
        let m = sample(&[1.0, 2.0, 3.0, 4.0, 10.0]);
        assert_eq!(m.median(), 3.0);
        assert_eq!(m.min(), 1.0);
        // q1 = secs[1], q3 = secs[3].
        assert_eq!(m.spread(), 2.0);
    }

    #[test]
    fn overhead_is_positive_when_slower() {
        let base = sample(&[1.0, 2.0, 3.0]);
        assert!((sample(&[2.0, 3.0, 4.0]).overhead_pct(&base) - 50.0).abs() < 1e-12);
        assert!((sample(&[1.0, 1.5, 2.0]).overhead_pct(&base) + 25.0).abs() < 1e-12);
        assert_eq!(base.overhead_pct(&base), 0.0);
    }

    #[test]
    fn measure_warms_up_once_then_times_each_rep() {
        let mut calls = 0;
        let m = measure(4, || calls += 1);
        assert_eq!(calls, 5);
        assert_eq!(m.secs().len(), 4);
        assert!(m.secs().windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(m.threads, rayon::current_num_threads());
    }
}
