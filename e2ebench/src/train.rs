//! The `train` workload: back-to-back `Trainer::train_step` calls.

use crate::models::train_config;
use crate::plan;
use crate::report::{Ledger, Metrics, PER_LAYER};
use crate::{stats, traces_unit, RunCtx, UnitSplit, WorkloadRun, MIX_FAMILIES};
use aeris_core::{AerisConfig, AerisModel, TrainSample, Trainer, TrainerConfig};
use aeris_earthsim::Grid;
use aeris_obs::SpanCategory;
use aeris_tensor::{Rng, Tensor};
use std::time::{Duration, Instant};

/// Samples per optimizer step.
pub(crate) const BATCH: usize = 2;
/// Distinct training samples a run draws its batches from.
const POOL: usize = 16;
/// Percentile reported as `latency_tail_ms` (train-step time).
const TAIL_Q: f64 = 75.0;
/// In-process set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Seeded standardized samples at the training geometry.
pub(crate) fn samples(cfg: &AerisConfig, seed: u64) -> Vec<TrainSample> {
    let mut rng = Rng::seed_from(seed ^ 0x7EA1);
    (0..POOL)
        .map(|_| TrainSample {
            x_prev: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng),
            residual: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng).scale(0.3),
            forcings: Tensor::randn(&[cfg.tokens(), cfg.forcing_channels], &mut rng),
        })
        .collect()
}

/// A fresh model and trainer; both are pure functions of `seed`.
pub(crate) fn fresh(seed: u64) -> (AerisModel, Trainer) {
    let cfg = AerisConfig {
        seed,
        ..train_config()
    };
    let model = AerisModel::new(cfg.clone());
    let grid = Grid::new(cfg.grid_h, cfg.grid_w);
    let tcfg = TrainerConfig {
        seed,
        ..TrainerConfig::paper_scaled(1 << 20, BATCH)
    };
    let trainer = Trainer::new(&model, grid, &vec![1.0; cfg.channels], tcfg);
    (model, trainer)
}

/// The next batch: sample indices drawn from the seeded stream.
fn batch_of<'a>(pool: &'a [TrainSample], rng: &mut Rng) -> Vec<&'a TrainSample> {
    (0..BATCH).map(|_| &pool[rng.below(pool.len())]).collect()
}

pub fn train(ctx: &RunCtx) -> Result<WorkloadRun, String> {
    let tracer = &ctx.tracer;
    let mut ledger = Ledger::default();
    let pool = samples(&train_config(), ctx.seed);
    let first_batch = batch_of(&pool, &mut plan::rng(ctx.seed));

    // Set-up: build the model and trainer and complete the first step.
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let (mut model, mut trainer) = {
            let _span = tracer.span(SpanCategory::Forward, 0).label("setup.build");
            fresh(ctx.seed)
        };
        let loss0 = {
            let _span = tracer
                .span(SpanCategory::Forward, 0)
                .label("setup.first_unit");
            trainer.train_step(&mut model, &first_batch)
        };
        times.push(t0.elapsed().as_secs_f64());
        kept = Some((model, trainer, loss0));
    }
    let (mut model, mut trainer, loss0) = kept.expect("SETUPS >= 1");
    let setup_s = stats::median(&times).expect("non-empty");

    // Timed loop, lengthened until the tail percentile is supported.
    let mut rng = plan::rng(ctx.seed ^ 0xBA7C);
    let span = Duration::from_secs_f64(ctx.seconds);
    let min_steps = stats::MIN_BEYOND * 4;
    let mut step_ms = Vec::new();
    let mut losses = Vec::new();
    let mut split = UnitSplit::default();
    let t0 = Instant::now();
    while t0.elapsed() < span || step_ms.len() < min_steps {
        let unit = step_ms.len() as u64 + 1;
        let batch = batch_of(&pool, &mut rng);
        let s0 = Instant::now();
        let loss = {
            let _span = traces_unit(unit).then(|| {
                tracer
                    .span(SpanCategory::OptimizerStep, 0)
                    .label("core.train_step")
                    .step(unit)
            });
            trainer.train_step(&mut model, &batch)
        };
        let dt = s0.elapsed().as_secs_f64() * 1e3;
        step_ms.push(dt);
        split.push(unit, dt);
        losses.push(loss);
    }
    let wall = t0.elapsed().as_secs_f64();

    for (k, loss) in losses.iter().enumerate() {
        ledger.check(loss.is_finite(), || {
            format!("step {k}: loss {loss} is not finite")
        });
    }
    // The first step is reproducible: a second fresh trainer on the same
    // seed and batch gives the same loss, bit for bit.
    let (mut model2, mut trainer2) = fresh(ctx.seed);
    let again = {
        let _span = tracer
            .span(SpanCategory::Forward, 0)
            .label("verify.first_step");
        trainer2.train_step(&mut model2, &first_batch)
    };
    ledger.check(again.to_bits() == loss0.to_bits(), || {
        format!("first-step loss {loss0:e} != fresh same-seed trainer's {again:e}")
    });

    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set("throughput_per_s", (BATCH * step_ms.len()) as f64 / wall);
    m.set(
        "latency_p50_ms",
        stats::median(&step_ms).expect("at least one step"),
    );
    m.set(
        "latency_tail_ms",
        stats::percentile(&step_ms, TAIL_Q).expect("at least one step"),
    );
    // The training loop makes no serving calls: the mix's families read 0.
    for &(name, _) in PER_LAYER {
        if MIX_FAMILIES.iter().any(|f| name.starts_with(f)) {
            m.set(name, 0.0);
        }
    }
    m.set("loadgen.sent", step_ms.len() as f64);
    Ok(WorkloadRun {
        ledger,
        metrics: m,
        split: Some(split),
    })
}
