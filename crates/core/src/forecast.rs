//! Autoregressive ensemble forecasting (Fig. 1c/d of the paper).
//!
//! Each forecast step integrates the PFODE with the DPMSolver++ 2S sampler to
//! draw a residual, adds it to the previous state, and feeds the result back
//! autoregressively. New ensemble members resample the initial noise (and
//! churn noise) with different seeds.
//!
//! The skeleton every forecaster on the backbone shares lives here too: the
//! member-seed rule ([`member_rng`]), the autoregressive loop ([`rollout`]),
//! the parallel member loop ([`ensemble`]), the un-standardizing step finish
//! ([`add_residual`]) and the weights + `.stats` checkpoint pair.

use crate::config::AerisConfig;
use crate::model::AerisModel;
use aeris_diffusion::{Guidance, NoGuidance, TrigFlowSampler};
use aeris_earthsim::NormStats;
use aeris_tensor::{sweeps, Rng, Tensor};
use rayon::prelude::*;
use std::io::{self, Write};
use std::path::Path;

/// Member `m`'s noise stream under ensemble seed `seed`. Every ensemble,
/// nowcast and served request derives its members this way, which is what
/// lets a served forecast reproduce a direct call bit for bit.
pub fn member_rng(seed: u64, m: usize) -> Rng {
    Rng::seed_from(seed).stream(m as u64 + 1)
}

/// Autoregressive rollout: `steps` applications of `step(x, forcings(k))`
/// from `x0`, keeping every state. `forcings(k)` is valid at the *input* of
/// step `k` (solar radiation moves with the clock; orography and land-sea
/// mask are static).
pub fn rollout(
    x0: &Tensor,
    forcings: &dyn Fn(usize) -> Tensor,
    steps: usize,
    mut step: impl FnMut(&Tensor, &Tensor) -> Tensor,
) -> Vec<Tensor> {
    let mut states = Vec::with_capacity(steps);
    let mut x = x0.clone();
    for k in 0..steps {
        x = step(&x, &forcings(k));
        states.push(x.clone());
    }
    states
}

/// `member(m, member_rng(seed, m))` for every member, in parallel. Each
/// member owns its stream, so the thread count never changes the numbers.
pub fn ensemble<T: Send>(
    n_members: usize,
    seed: u64,
    member: impl Fn(usize, Rng) -> T + Sync,
) -> Vec<T> {
    (0..n_members).into_par_iter().map(|m| member(m, member_rng(seed, m))).collect()
}

/// `x_prev` plus the un-standardized residual: one unrolled unit-stride
/// sweep per row (no per-element multi-index lookups). Every forecaster's
/// step finishes through here.
pub fn add_residual(x_prev: &Tensor, residual_std: &Tensor, stats: &NormStats) -> Tensor {
    let mut next = x_prev.clone();
    for r in 0..next.shape()[0] {
        sweeps::add_scale_shift(next.row_mut(r), residual_std.row(r), &stats.std, &stats.mean);
    }
    next
}

/// One sampled forecast step of `model`: draw a standardized residual with
/// `sampler` conditioned on the standardized `x_prev`, then add it back in
/// physical units. [`Forecaster::forecast_step_guided`] and rollout
/// fine-tuning both step through here.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sampled_step(
    model: &AerisModel,
    stats: &NormStats,
    res_stats: &NormStats,
    sampler: &TrigFlowSampler,
    x_prev: &Tensor,
    forcings: &Tensor,
    rng: &mut Rng,
    guidance: &mut dyn Guidance,
) -> Tensor {
    let prev_std = stats.standardize(x_prev);
    let shape = prev_std.shape().to_vec();
    let mut velocity = |x_t: &Tensor, t: f32| model.velocity(x_t, &prev_std, forcings, t);
    let residual_std = sampler.sample_guided(&shape, &mut velocity, rng, guidance);
    add_residual(x_prev, &residual_std, res_stats)
}

/// Save a checkpoint: `<path>` gets the weights, `<path>.stats` the field
/// and residual statistics, each block a `u32` channel count followed by the
/// means and the stds as little-endian f32.
pub(crate) fn save_checkpoint(
    model: &AerisModel,
    stats: &NormStats,
    res_stats: &NormStats,
    path: &Path,
) -> io::Result<()> {
    aeris_nn::save_params(&model.store, path)?;
    let mut f = io::BufWriter::new(std::fs::File::create(path.with_extension("stats"))?);
    for stats in [stats, res_stats] {
        f.write_all(&(stats.mean.len() as u32).to_le_bytes())?;
        for &v in stats.mean.iter().chain(&stats.std) {
            f.write_all(&v.to_le_bytes())?;
        }
    }
    f.flush()
}

/// Load a checkpoint written by [`save_checkpoint`] into a model built from
/// `cfg`: the model, then the field and residual statistics. A `.stats` file
/// that is not exactly two blocks of `cfg.channels` channels is
/// [`io::ErrorKind::InvalidData`] here, not a panic in the first step.
pub(crate) fn load_checkpoint(
    cfg: AerisConfig,
    path: &Path,
) -> io::Result<(AerisModel, NormStats, NormStats)> {
    let c = cfg.channels;
    let mut model = AerisModel::new(cfg);
    aeris_nn::load_params(&mut model.store, path)?;
    let bytes = std::fs::read(path.with_extension("stats"))?;
    let corrupt = |detail: String| {
        io::Error::new(io::ErrorKind::InvalidData, format!("corrupt .stats file: {detail}"))
    };
    let block = 4 + 8 * c;
    if bytes.len() != 2 * block {
        let len = bytes.len();
        return Err(corrupt(format!("{len} bytes, expected {} for {c} channels", 2 * block)));
    }
    let mut blocks = bytes.chunks_exact(block).map(|b| {
        let n = u32::from_le_bytes(b[..4].try_into().expect("4-byte header")) as usize;
        if n != c {
            return Err(corrupt(format!("a block claims {n} channels, the model has {c}")));
        }
        let vals: Vec<f32> = b[4..]
            .chunks_exact(4)
            .map(|v| f32::from_le_bytes(v.try_into().expect("4-byte value")))
            .collect();
        Ok(NormStats { mean: vals[..c].to_vec(), std: vals[c..].to_vec() })
    });
    let stats = blocks.next().expect("length checked: two blocks")?;
    let res_stats = blocks.next().expect("length checked: two blocks")?;
    Ok((model, stats, res_stats))
}

/// A trained model packaged for inference.
pub struct Forecaster {
    /// The (EMA) model.
    pub model: AerisModel,
    /// Normalization statistics of the full fields (for conditioning).
    pub stats: NormStats,
    /// Normalization statistics of the one-step residuals (for the sampled
    /// diffusion targets).
    pub res_stats: NormStats,
    /// Sampler configuration.
    pub sampler: TrigFlowSampler,
}

/// One unit of work for [`Forecaster::forecast_step_batch`]: an independent
/// (state, forcings, RNG) triple to advance by a single forecast step.
pub struct StepJob<'a> {
    /// Physical state at the input of the step.
    pub x_prev: &'a Tensor,
    /// Forcings valid at the input of the step.
    pub forcings: &'a Tensor,
    /// The job's private noise stream (advanced by the step).
    pub rng: &'a mut Rng,
}

/// A [`StepJob`] with an optional observation-guidance hook: the assimilation
/// path through [`Forecaster::forecast_step_batch_guided`]. The hook is
/// `Send` (not `Sync`) because each job owns its guidance exclusively, the
/// same way it owns its RNG — jobs can migrate across worker threads but are
/// never shared between them.
pub struct GuidedStepJob<'a> {
    /// Physical state at the input of the step.
    pub x_prev: &'a Tensor,
    /// Forcings valid at the input of the step.
    pub forcings: &'a Tensor,
    /// The job's private noise stream (advanced by the step).
    pub rng: &'a mut Rng,
    /// Observation guidance, or `None` for a plain forecast step.
    pub guidance: Option<&'a mut (dyn Guidance + Send)>,
}

/// An ensemble of autoregressive rollouts: `members[m][k]` is member `m`'s
/// state after `k+1` forecast steps, in physical units.
pub struct EnsembleForecast {
    pub members: Vec<Vec<Tensor>>,
}

impl EnsembleForecast {
    /// Number of members.
    pub fn n_members(&self) -> usize {
        self.members.len()
    }

    /// Number of forecast steps.
    pub fn n_steps(&self) -> usize {
        self.members.first().map_or(0, |m| m.len())
    }

    /// All member states at step `k`, or `None` for an empty ensemble or a
    /// step beyond the rollout horizon.
    pub fn at_step(&self, k: usize) -> Option<Vec<&Tensor>> {
        if self.members.is_empty() || k >= self.n_steps() {
            return None;
        }
        Some(self.members.iter().map(|m| &m[k]).collect())
    }
}

impl Forecaster {
    /// Save the model weights and normalization statistics next to each
    /// other: `<path>` gets the weights, `<path>.stats` the statistics.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        save_checkpoint(&self.model, &self.stats, &self.res_stats, path)
    }

    /// Load weights + statistics saved by [`Forecaster::save`] into a
    /// forecaster built from the same config.
    pub fn load(cfg: AerisConfig, sampler: TrigFlowSampler, path: &Path) -> io::Result<Forecaster> {
        let (model, stats, res_stats) = load_checkpoint(cfg, path)?;
        Ok(Forecaster { model, stats, res_stats, sampler })
    }

    /// A bitwise-identical copy with its own parameter storage.
    pub fn replicate(&self) -> Forecaster {
        Forecaster {
            model: self.model.replicate(),
            stats: self.stats.clone(),
            res_stats: self.res_stats.clone(),
            sampler: self.sampler,
        }
    }

    /// One forecast step: physical `x_prev` + forcings → physical `x_next`,
    /// by sampling a standardized residual from the diffusion model.
    pub fn forecast_step(&self, x_prev: &Tensor, forcings: &Tensor, rng: &mut Rng) -> Tensor {
        self.forecast_step_guided(x_prev, forcings, rng, &mut NoGuidance)
    }

    /// [`Self::forecast_step`] with an observation-consistency guidance hook
    /// threaded into the sampler (generative data assimilation). A hook that
    /// never fires leaves this bitwise identical to the plain step.
    pub fn forecast_step_guided(
        &self,
        x_prev: &Tensor,
        forcings: &Tensor,
        rng: &mut Rng,
        guidance: &mut dyn Guidance,
    ) -> Tensor {
        let (model, sampler) = (&self.model, &self.sampler);
        sampled_step(model, &self.stats, &self.res_stats, sampler, x_prev, forcings, rng, guidance)
    }

    /// Batched forecast step: advance several independent states by one step
    /// each. Every job carries its own RNG, so the result of a job is a pure
    /// function of that job alone — batching order and batch composition can
    /// never change the numbers, which is what lets the serving engine
    /// coalesce requests freely while staying bitwise deterministic.
    pub fn forecast_step_batch(&self, jobs: &mut [StepJob<'_>]) -> Vec<Tensor> {
        jobs.iter_mut()
            .into_par_iter()
            .map(|job| self.forecast_step(job.x_prev, job.forcings, job.rng))
            .collect()
    }

    /// Batched guided step: like [`Self::forecast_step_batch`] but each job
    /// may carry its own guidance hook, so the serving engine can mix plain
    /// forecast and nowcast member-steps in one batch. The purity argument is
    /// unchanged — guidance state, like the RNG, is private to its job.
    pub fn forecast_step_batch_guided(&self, jobs: &mut [GuidedStepJob<'_>]) -> Vec<Tensor> {
        jobs.iter_mut()
            .into_par_iter()
            .map(|job| match job.guidance.as_deref_mut() {
                Some(g) => self.forecast_step_guided(job.x_prev, job.forcings, job.rng, g),
                None => self.forecast_step(job.x_prev, job.forcings, job.rng),
            })
            .collect()
    }

    /// Autoregressive rollout for `steps` steps (see [`rollout`]).
    pub fn rollout(
        &self,
        x0: &Tensor,
        forcings: &dyn Fn(usize) -> Tensor,
        steps: usize,
        rng: &mut Rng,
    ) -> Vec<Tensor> {
        rollout(x0, forcings, steps, |x, f| self.forecast_step(x, f, rng))
    }

    /// Generate an ensemble of rollouts (members parallelized with rayon).
    /// Member `m` draws from [`member_rng`]`(base_seed, m)`.
    pub fn ensemble(
        &self,
        x0: &Tensor,
        forcings: &(dyn Fn(usize) -> Tensor + Sync),
        steps: usize,
        n_members: usize,
        base_seed: u64,
    ) -> EnsembleForecast {
        let member = |_, mut rng| self.rollout(x0, forcings, steps, &mut rng);
        EnsembleForecast { members: ensemble(n_members, base_seed, member) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AerisConfig;
    use aeris_diffusion::{SamplerConfig, TrigFlow};

    fn tiny_forecaster() -> Forecaster {
        let cfg = AerisConfig::test_tiny();
        let channels = cfg.channels;
        let model = AerisModel::new(cfg);
        let stats = NormStats { mean: vec![0.0; channels], std: vec![1.0; channels] };
        Forecaster {
            model,
            res_stats: stats.clone(),
            stats,
            sampler: TrigFlowSampler::new(
                TrigFlow::default(),
                SamplerConfig { n_steps: 3, churn: 0.1, second_order: true },
            ),
        }
    }

    #[test]
    fn forecast_step_shape_and_finiteness() {
        let f = tiny_forecaster();
        let mut rng = Rng::seed_from(1);
        let x0 = Tensor::randn(&[128, 4], &mut rng);
        let forc = Tensor::zeros(&[128, 3]);
        let x1 = f.forecast_step(&x0, &forc, &mut rng);
        assert_eq!(x1.shape(), &[128, 4]);
        assert!(x1.all_finite());
        // Untrained (zero-velocity) model: the sampled residual is driven to
        // the denoised estimate of pure noise; the state must still change.
        assert!(x1.max_abs_diff(&x0) > 0.0);
    }

    #[test]
    fn rollout_produces_requested_steps() {
        let f = tiny_forecaster();
        let mut rng = Rng::seed_from(2);
        let x0 = Tensor::randn(&[128, 4], &mut rng);
        let forc = |_k: usize| Tensor::zeros(&[128, 3]);
        let states = f.rollout(&x0, &forc, 5, &mut rng);
        assert_eq!(states.len(), 5);
        for s in &states {
            assert!(s.all_finite());
        }
    }

    #[test]
    fn ensemble_members_are_distinct_and_deterministic() {
        let f = tiny_forecaster();
        let mut rng = Rng::seed_from(3);
        let x0 = Tensor::randn(&[128, 4], &mut rng);
        let forc = |_k: usize| Tensor::zeros(&[128, 3]);
        let ens = f.ensemble(&x0, &forc, 2, 3, 99);
        assert_eq!(ens.n_members(), 3);
        assert_eq!(ens.n_steps(), 2);
        assert!(ens.members[0][0].max_abs_diff(&ens.members[1][0]) > 1e-6);
        // Deterministic reproduction with the same base seed.
        let ens2 = f.ensemble(&x0, &forc, 2, 3, 99);
        assert_eq!(ens.members[2][1], ens2.members[2][1]);
    }

    #[test]
    fn empty_or_out_of_range_accessors_return_none() {
        let empty = EnsembleForecast { members: vec![] };
        assert!(empty.at_step(0).is_none());
        let f = tiny_forecaster();
        let mut rng = Rng::seed_from(4);
        let x0 = Tensor::randn(&[128, 4], &mut rng);
        let forc = |_k: usize| Tensor::zeros(&[128, 3]);
        let ens = f.ensemble(&x0, &forc, 2, 2, 5);
        assert!(ens.at_step(1).is_some());
        assert!(ens.at_step(2).is_none(), "step beyond horizon must be None");
    }

    #[test]
    fn batched_step_matches_sequential_bitwise() {
        let f = tiny_forecaster();
        let mut rng = Rng::seed_from(6);
        let states: Vec<Tensor> =
            (0..3).map(|_| Tensor::randn(&[128, 4], &mut rng)).collect();
        let forc = Tensor::zeros(&[128, 3]);
        // Sequential reference, one private RNG stream per job.
        let root = Rng::seed_from(77);
        let expect: Vec<Tensor> = states
            .iter()
            .enumerate()
            .map(|(i, x)| f.forecast_step(x, &forc, &mut root.stream(i as u64)))
            .collect();
        // Batched evaluation with identically-seeded streams.
        let mut rngs: Vec<Rng> = (0..3).map(|i| root.stream(i as u64)).collect();
        let mut jobs: Vec<StepJob> = states
            .iter()
            .zip(&mut rngs)
            .map(|(x, rng)| StepJob { x_prev: x, forcings: &forc, rng })
            .collect();
        let got = f.forecast_step_batch(&mut jobs);
        assert_eq!(expect, got, "batching must not change the numbers");
    }

    #[test]
    fn save_load_round_trip_is_bitwise() {
        let f = tiny_forecaster();
        let dir = std::env::temp_dir().join(format!("aeris_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fc.params");
        f.save(&path).unwrap();
        let g = Forecaster::load(AerisConfig::test_tiny(), f.sampler, &path).unwrap();
        assert_eq!(f.stats.mean, g.stats.mean);
        assert_eq!(f.stats.std, g.stats.std);
        assert_eq!(f.res_stats.mean, g.res_stats.mean);
        assert_eq!(f.res_stats.std, g.res_stats.std);
        // Identical forecasts, bit for bit, before and after the round trip.
        let mut rng = Rng::seed_from(9);
        let x0 = Tensor::randn(&[128, 4], &mut rng);
        let forc = |_k: usize| Tensor::zeros(&[128, 3]);
        let a = f.ensemble(&x0, &forc, 2, 2, 41);
        let b = g.ensemble(&x0, &forc, 2, 2, 41);
        for (ma, mb) in a.members.iter().zip(&b.members) {
            for (sa, sb) in ma.iter().zip(mb) {
                assert_eq!(sa, sb, "round-tripped forecaster diverged");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_corrupt_stats_files() {
        let f = tiny_forecaster();
        let dir = std::env::temp_dir().join(format!("aeris_corrupt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fc.params");
        f.save(&path).unwrap();
        let stats_path = path.with_extension("stats");
        let good = std::fs::read(&stats_path).unwrap();

        // Truncated mid-block: a proper error, not a panic.
        std::fs::write(&stats_path, &good[..good.len() / 2]).unwrap();
        let err = Forecaster::load(AerisConfig::test_tiny(), f.sampler, &path)
            .err().expect("truncated stats must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // Absurd channel count in the header.
        let mut huge = good.clone();
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&stats_path, &huge).unwrap();
        let err = Forecaster::load(AerisConfig::test_tiny(), f.sampler, &path)
            .err().expect("absurd header must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // Trailing garbage after both blocks.
        let mut long = good.clone();
        long.extend_from_slice(&[0u8; 3]);
        std::fs::write(&stats_path, &long).unwrap();
        let err = Forecaster::load(AerisConfig::test_tiny(), f.sampler, &path)
            .err().expect("trailing bytes must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // Two well-formed blocks for one channel too few: refused at load by
        // both loaders, not left to panic in the first `standardize`.
        let n = AerisConfig::test_tiny().channels - 1;
        let mut short = Vec::new();
        for _ in 0..2 {
            short.extend_from_slice(&(n as u32).to_le_bytes());
            for v in [vec![0.0f32; n], vec![1.0; n]].concat() {
                short.extend_from_slice(&v.to_le_bytes());
            }
        }
        std::fs::write(&stats_path, &short).unwrap();
        let err = Forecaster::load(AerisConfig::test_tiny(), f.sampler, &path)
            .err().expect("wrong channel count must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let err = crate::ConsistencyStudent::load(AerisConfig::test_tiny(), f.sampler.tf, &path)
            .err().expect("wrong channel count must fail for the student too");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        std::fs::remove_dir_all(&dir).ok();
    }
}
