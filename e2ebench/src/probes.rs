//! Per-layer probes of the traced run. Each probe calls only the top-level
//! public entry point of its layer and reports the median of repeated calls.

use crate::models::{serve_config, train_config, SavedWeights};
use crate::report::Metrics;
use crate::train;
use aeris_assim::{nowcast_member_fast, GuidanceSchedule, ObsGuidance, ObsOperator};
use aeris_autodiff::{Tape, WindowAttnPlan};
use aeris_core::{AerisConfig, AerisModel, StepJob};
use aeris_diffusion::{loss_weights, Guidance};
use aeris_earthsim::Grid;
use aeris_nn::RopeTable;
use aeris_obs::{SpanCategory, Tracer};
use aeris_swipe::data::InMemorySource;
use aeris_swipe::{DistributedTrainer, SwipeConfig, SwipeTopology};
use aeris_tensor::{matmul, matmul_nt, Rng, Tensor};
use rayon::prelude::*;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Median wall time of `f` in ms: one warm-up call, then at least `reps`
/// calls and until `budget` is spent.
fn median_ms(
    tracer: &Tracer,
    name: &'static str,
    reps: usize,
    budget: Duration,
    mut f: impl FnMut(),
) -> f64 {
    f();
    let mut times = Vec::new();
    let t0 = Instant::now();
    while times.len() < reps || t0.elapsed() < budget {
        let s = Instant::now();
        {
            let _span = tracer.span(SpanCategory::Forward, 2).label(name);
            f();
        }
        times.push(s.elapsed().as_secs_f64() * 1e3);
        if times.len() >= 1000 {
            break;
        }
    }
    crate::stats::median(&times).expect("at least one rep")
}

/// One GEMM hot shape: `C[m,n] = A[m,k]·B` (or `A·Bᵀ`).
struct Gemm {
    name: &'static str,
    m: usize,
    n: usize,
    k: usize,
    nt: bool,
    /// Calls per timed sample (tiny shapes are batched to resolve them).
    batch: usize,
}

const GEMMS: &[Gemm] = &[
    Gemm {
        name: "tensor.gemm_gflops.serve_proj",
        m: 512,
        n: 48,
        k: 48,
        nt: false,
        batch: 8,
    },
    Gemm {
        name: "tensor.gemm_gflops.serve_mlp",
        m: 512,
        n: 192,
        k: 48,
        nt: false,
        batch: 4,
    },
    Gemm {
        name: "tensor.gemm_gflops.train_proj",
        m: 2048,
        n: 64,
        k: 64,
        nt: false,
        batch: 2,
    },
    Gemm {
        name: "tensor.gemm_gflops.train_mlp",
        m: 2048,
        n: 256,
        k: 64,
        nt: false,
        batch: 1,
    },
    Gemm {
        name: "tensor.gemm_gflops.train_scores_nt",
        m: 64,
        n: 64,
        k: 16,
        nt: true,
        batch: 64,
    },
];

fn gemm_probes(tracer: &Tracer, m: &mut Metrics, rng: &mut Rng) {
    for g in GEMMS {
        let a = Tensor::randn(&[g.m, g.k], rng);
        let b_shape = if g.nt { [g.n, g.k] } else { [g.k, g.n] };
        let b = Tensor::randn(&b_shape, rng);
        let per_sample = median_ms(tracer, "probe.gemm", 20, Duration::from_millis(120), || {
            for _ in 0..g.batch {
                black_box(if g.nt {
                    matmul_nt(&a, &b)
                } else {
                    matmul(&a, &b)
                });
            }
        });
        let flop = 2.0 * (g.m * g.n * g.k) as f64;
        let secs = per_sample / 1e3 / g.batch as f64;
        m.set(g.name, flop / secs / 1e9);
        // Computed, not measured: operand + result bytes of one f32 call.
        let bytes = 4 * (g.m * g.k + g.k * g.n + g.m * g.n);
        eprintln!(
            "  {:<38} {}x{}x{}{}: {:.3} MFLOP/call, {} computed bytes/call",
            g.name,
            g.m,
            g.n,
            g.k,
            if g.nt { " (A·Bᵀ)" } else { "" },
            flop / 1e6,
            bytes
        );
    }
}

/// Fused window attention at a config's window × head geometry.
fn attention_plan(cfg: &AerisConfig) -> WindowAttnPlan {
    let (wh, ww) = cfg.window;
    let rope = RopeTable::new(wh, ww, cfg.head_dim(), 0, 0);
    let n_windows = cfg.tokens() / (wh * ww);
    WindowAttnPlan::new(
        n_windows,
        wh * ww,
        cfg.n_heads,
        cfg.head_dim(),
        rope.cos,
        rope.sin,
    )
}

/// (forward ms, backward ms) of `Tape::window_attention`.
fn attention(tracer: &Tracer, cfg: &AerisConfig, rng: &mut Rng, backward: bool) -> (f64, f64) {
    let plan = attention_plan(cfg);
    let x = Tensor::randn(&[cfg.tokens(), cfg.dim], rng);
    let w: Vec<Tensor> = (0..4)
        .map(|_| Tensor::randn(&[cfg.dim, cfg.dim], rng).scale(0.1))
        .collect();
    let mut fwd = Vec::new();
    let mut bwd = Vec::new();
    for rep in 0..6 {
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let ws: Vec<_> = w.iter().map(|t| tape.leaf(t.clone())).collect();
        let s = Instant::now();
        let y = {
            let _span = tracer
                .span(SpanCategory::Forward, 2)
                .label("probe.window_attention");
            tape.window_attention(xv, ws[0], ws[1], ws[2], ws[3], &plan)
        };
        let f = s.elapsed().as_secs_f64() * 1e3;
        if backward {
            let loss = tape.sum(y);
            let s = Instant::now();
            let _span = tracer
                .span(SpanCategory::Backward, 2)
                .label("probe.window_attention_bwd");
            black_box(tape.backward(loss));
            if rep > 0 {
                bwd.push(s.elapsed().as_secs_f64() * 1e3);
            }
        }
        if rep > 0 {
            fwd.push(f);
        }
    }
    let med = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
    (med(&fwd), med(&bwd))
}

/// Times every `Guidance::nudge` call of the guidance it wraps.
struct TimedGuidance {
    inner: ObsGuidance,
    spent: Duration,
}

impl Guidance for TimedGuidance {
    fn nudge(&mut self, x_hat: &Tensor, step: usize, t: f32) -> Option<Tensor> {
        let t0 = Instant::now();
        let out = self.inner.nudge(x_hat, step, t);
        self.spent += t0.elapsed();
        out
    }
}

/// Exact traffic counts of a small SWiPe run: (bytes, comm ops) per step.
fn swipe_counts() -> Result<(f64, f64), String> {
    // 2 blocks ⇒ 4 pipeline stages (blocks + I/O and embedding stages).
    let cfg = AerisConfig::test_tiny();
    let topo = SwipeTopology::new(1, 4, 1, 2, 2);
    let (gas, n_steps) = (2usize, 2usize);
    let mut rng = Rng::seed_from(77);
    let samples = (0..4)
        .map(|_| aeris_core::TrainSample {
            x_prev: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng),
            residual: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng).scale(0.3),
            forcings: Tensor::randn(&[cfg.tokens(), cfg.forcing_channels], &mut rng),
        })
        .collect();
    let source = InMemorySource { samples };
    let grid = Grid::new(cfg.grid_h, cfg.grid_w);
    let weights = loss_weights(&grid.token_lat_weights(), &vec![1.0; cfg.channels]);
    let schedule: Vec<Vec<Vec<usize>>> = (0..n_steps)
        .map(|s| vec![(0..gas).map(|g| (s * gas + g) % 4).collect()])
        .collect();
    let swipe_cfg = SwipeConfig {
        gas,
        n_steps,
        ..SwipeConfig::new(topo)
    };
    let reference = AerisModel::new(cfg);
    let report = DistributedTrainer::train(&reference, &swipe_cfg, &source, &schedule, &weights)
        .map_err(|e| format!("SWiPe probe run failed: {e}"))?;
    let b = report.traffic.comm_bytes();
    let bytes = b.p2p + b.alltoall + b.allreduce + b.allgather + b.broadcast;
    let ops: u64 = report.comm_ops.iter().sum();
    Ok((bytes as f64 / n_steps as f64, ops as f64 / n_steps as f64))
}

/// Run every probe and set its per-layer metrics.
pub fn run(
    tracer: &Tracer,
    weights: &SavedWeights,
    seed: u64,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut rng = Rng::seed_from(seed ^ 0x9B0B);
    let budget = Duration::from_millis(300);

    m.set(
        "rayon.dispatch_us",
        1e3 * median_ms(
            tracer,
            "probe.rayon",
            200,
            Duration::from_millis(50),
            || {
                let v: Vec<usize> = black_box(0..2usize)
                    .into_par_iter()
                    .map(|i| i * 2)
                    .collect();
                black_box(v);
            },
        ),
    );
    gemm_probes(tracer, m, &mut rng);

    let (scfg, tcfg) = (serve_config(), train_config());
    m.set(
        "autodiff.window_attention_ms.serve",
        attention(tracer, &scfg, &mut rng, false).0,
    );
    let (fwd, bwd) = attention(tracer, &tcfg, &mut rng, true);
    m.set("autodiff.window_attention_ms.train", fwd);
    m.set("autodiff.window_attention_bwd_ms.train", bwd);

    let fc = weights
        .load_forecaster()
        .map_err(|e| format!("probe load: {e}"))?;
    let student = weights
        .load_student()
        .map_err(|e| format!("probe load: {e}"))?;
    let shape = [scfg.tokens(), scfg.channels];
    let x = Tensor::randn(&shape, &mut rng);
    let forcing = Tensor::zeros(&[scfg.tokens(), scfg.forcing_channels]);
    let v_serve = median_ms(tracer, "probe.velocity.serve", 8, budget, || {
        black_box(fc.model.velocity(&x, &x, &forcing, 0.8));
    });
    m.set("core.velocity_ms.serve", v_serve);
    let train_model = AerisModel::new(tcfg.clone());
    let tx = Tensor::randn(&[tcfg.tokens(), tcfg.channels], &mut rng);
    let tforcing = Tensor::zeros(&[tcfg.tokens(), tcfg.forcing_channels]);
    m.set(
        "core.velocity_ms.train",
        median_ms(tracer, "probe.velocity.train", 4, budget, || {
            black_box(train_model.velocity(&tx, &tx, &tforcing, 0.8));
        }),
    );

    let step = median_ms(tracer, "probe.forecast_step", 4, budget, || {
        black_box(fc.forecast_step(&x, &forcing, &mut Rng::seed_from(1)));
    });
    m.set("core.forecast_step_ms", step);
    let batch4 = median_ms(tracer, "probe.forecast_step_batch4", 2, budget, || {
        let mut rngs: Vec<Rng> = (0..4).map(|j| Rng::seed_from(10 + j)).collect();
        let mut jobs: Vec<StepJob<'_>> = rngs
            .iter_mut()
            .map(|r| StepJob {
                x_prev: &x,
                forcings: &forcing,
                rng: r,
            })
            .collect();
        black_box(fc.forecast_step_batch(&mut jobs));
    });
    m.set("core.batch4_ms_per_job", batch4 / 4.0);
    m.set(
        "core.fast_step_ms",
        median_ms(tracer, "probe.fast_step", 8, budget, || {
            black_box(student.forecast_step(&x, &forcing, &mut Rng::seed_from(2)));
        }),
    );

    let (mut model, mut trainer) = train::fresh(seed);
    let pool = train::samples(&tcfg, seed);
    let batch: Vec<_> = pool.iter().take(train::BATCH).collect();
    m.set(
        "core.train_step_ms",
        median_ms(tracer, "probe.train_step", 2, Duration::ZERO, || {
            black_box(trainer.train_step(&mut model, &batch));
        }),
    );

    // Sampler: count network evaluations, then time the solver around a
    // zero-cost velocity.
    let mut nfe = 0usize;
    fc.sampler.sample(
        &shape,
        &mut |x_t, _| {
            nfe += 1;
            Tensor::zeros(x_t.shape())
        },
        &mut Rng::seed_from(3),
    );
    m.set("diffusion.nfe_per_step", nfe as f64);
    let self_ms = median_ms(
        tracer,
        "probe.sampler_self",
        10,
        Duration::from_millis(100),
        || {
            black_box(fc.sampler.sample(
                &shape,
                &mut |x_t, _| Tensor::zeros(x_t.shape()),
                &mut Rng::seed_from(3),
            ));
        },
    );
    m.set("diffusion.sampler_self_ms", self_ms);
    m.set(
        "core.step_coverage",
        (nfe as f64 * v_serve + self_ms) / step,
    );

    // Assimilation at the serving mix's station network and guidance.
    let grid = Grid::new(scfg.grid_h, scfg.grid_w);
    let op = ObsOperator::stations(
        &grid,
        scfg.tokens() / 4,
        &[0, 1],
        &vec![0.5; scfg.channels],
        seed ^ 0x57A7,
    );
    let obs = Arc::new(op.observe(&Tensor::randn(&shape, &mut rng), 0.05, seed));
    let bg = Arc::new(x.clone());
    let schedule = GuidanceSchedule::Constant(0.05);
    let guidance = || {
        ObsGuidance::new(
            Arc::clone(&obs),
            Arc::clone(&bg),
            &fc.res_stats,
            schedule,
            fc.sampler.cfg.n_steps,
        )
    };
    m.set(
        "assim.guided_step_ms",
        median_ms(tracer, "probe.guided_step", 4, budget, || {
            black_box(fc.forecast_step_guided(
                &bg,
                &forcing,
                &mut Rng::seed_from(4),
                &mut guidance(),
            ));
        }),
    );
    let mut nudge = Vec::new();
    for _ in 0..3 {
        let mut g = TimedGuidance {
            inner: guidance(),
            spent: Duration::ZERO,
        };
        black_box(fc.forecast_step_guided(&bg, &forcing, &mut Rng::seed_from(5), &mut g));
        nudge.push(g.spent.as_secs_f64() * 1e3);
    }
    m.set(
        "assim.nudge_ms_per_step",
        crate::stats::median(&nudge).expect("three reps"),
    );
    m.set(
        "assim.fast_nowcast_ms",
        median_ms(tracer, "probe.fast_nowcast", 8, budget, || {
            black_box(nowcast_member_fast(
                &student, &bg, &forcing, &obs, schedule, seed, 0,
            ));
        }),
    );

    let (bytes, ops) = {
        let _span = tracer.span(SpanCategory::AllToAll, 2).label("probe.swipe");
        swipe_counts()?
    };
    m.set("swipe.bytes_per_step", bytes);
    m.set("swipe.comm_ops_per_step", ops);
    Ok(())
}
