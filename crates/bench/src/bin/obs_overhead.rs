//! Tracing-overhead benchmark: what does `aeris-obs` cost?
//!
//! Five measurements, emitted to `BENCH_obs.json`:
//!
//! 1. **Span-site microbenchmark** — ns per `Tracer::span()` call with the
//!    tracer disabled (the steady-state production configuration: one relaxed
//!    atomic load) and enabled (seq fetch + record on drop).
//! 2. **Histogram record path** — ns per `MetricSeries::record` on the
//!    lock-free log-linear histogram, single-threaded and with 4 threads
//!    hammering one shared series, against the old implementation's shape
//!    (lock a mutex, push into an unbounded `Vec`). Also pins the fixed
//!    per-series memory footprint and the documented quantile error bound.
//! 3. **SLO observe path** — ns per `SloTracker::observe` (ring write +
//!    window recount under a short critical section).
//! 4. **End-to-end SWiPe training** — ms/step for the same distributed run
//!    with the tracer disabled vs enabled, plus how many spans the enabled
//!    run recorded. This is the number the "<2% disabled overhead" contract
//!    is about.
//! 5. **Serving engine** — requests/s through `aeris-serve` disabled vs
//!    enabled.
//!
//! ```bash
//! cargo run --release -p aeris-bench --bin obs_overhead
//! ```

use aeris_bench::{toy_model_config, toy_vars};
use aeris_core::{AerisConfig, AerisModel, Forecaster, TrainSample};
use aeris_diffusion::{loss_weights, SamplerConfig, TrigFlow, TrigFlowSampler};
use aeris_earthsim::{Grid, NormStats};
use aeris_nn::AdamWConfig;
use aeris_obs::histogram::MAX_QUANTILE_REL_ERROR;
use aeris_obs::{Histogram, MetricSeries, SloConfig, SloTracker, Tracer};
use aeris_serve::{ForecastRequest, Forcings, ServeConfig, ServeEngine};
use aeris_swipe::data::InMemorySource;
use aeris_swipe::{DistributedTrainer, SwipeConfig, SwipeTopology};
use aeris_tensor::{Rng, Tensor};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Median seconds per call of `f` over `reps` timed calls (one warmup).
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

fn span_site_ns(tracer: &Tracer, iters: u64) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        let _g = tracer.span(aeris_obs::SpanCategory::Forward, 0);
        std::hint::black_box(i);
    }
    t0.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// ns per `MetricSeries::record` on the lock-free histogram path.
fn series_record_ns(iters: u64) -> f64 {
    let s = MetricSeries::new();
    let t0 = Instant::now();
    for i in 0..iters {
        s.record(std::hint::black_box((i % 1000) as f64 + 0.5));
    }
    std::hint::black_box(s.count());
    t0.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// ns per record for the old implementation's shape: lock a mutex, push the
/// raw sample into an unbounded `Vec`.
fn mutex_vec_record_ns(iters: u64) -> f64 {
    let v: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let t0 = Instant::now();
    for i in 0..iters {
        v.lock().unwrap().push(std::hint::black_box((i % 1000) as f64 + 0.5));
    }
    std::hint::black_box(v.lock().unwrap().len());
    t0.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// ns per record with `threads` writers hammering one shared series — the
/// contended case the sharded atomic buckets exist for.
fn concurrent_record_ns(threads: u64, iters: u64) -> f64 {
    let s = Arc::new(MetricSeries::new());
    let t0 = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for i in 0..iters {
                    s.record(std::hint::black_box(((i + t * 17) % 1000) as f64 + 0.5));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("recorder thread");
    }
    std::hint::black_box(s.count());
    t0.elapsed().as_secs_f64() * 1e9 / (threads * iters) as f64
}

/// ns per `SloTracker::observe` on a default-window tracker.
fn slo_observe_ns(iters: u64) -> f64 {
    let t = SloTracker::new(SloConfig::default());
    let t0 = Instant::now();
    for i in 0..iters {
        t.observe(std::hint::black_box(i % 100 != 0));
    }
    std::hint::black_box(t.state().total);
    t0.elapsed().as_secs_f64() * 1e9 / iters as f64
}

fn toy_model() -> AerisConfig {
    AerisConfig {
        grid_h: 8,
        grid_w: 16,
        channels: 4,
        forcing_channels: 3,
        dim: 16,
        n_heads: 2,
        ffn: 32,
        n_layers: 2,
        blocks_per_layer: 1,
        window: (4, 4),
        time_feat_dim: 16,
        cond_dim: 24,
        pos_amp: 0.1,
        seed: 3,
    }
}

/// Median ms/step of the distributed trainer under the given tracer; returns
/// `(ms_per_step, spans_recorded_in_last_run)`.
fn bench_train(tracer: &Tracer) -> (f64, usize) {
    let cfg = toy_model();
    let mut rng = Rng::seed_from(9);
    let samples: Vec<TrainSample> = (0..8)
        .map(|_| TrainSample {
            x_prev: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng),
            residual: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng).scale(0.3),
            forcings: Tensor::randn(&[cfg.tokens(), 3], &mut rng),
        })
        .collect();
    let source = InMemorySource { samples };
    let grid = Grid::new(cfg.grid_h, cfg.grid_w);
    let weights = loss_weights(&grid.token_lat_weights(), &vec![1.0; cfg.channels]);
    let topo = SwipeTopology::new(2, 4, 1, 2, 2);
    let n_steps = 2usize;
    let swipe_cfg = SwipeConfig {
        topo,
        gas: 2,
        n_steps,
        lr: 1e-3,
        seed: 5,
        adamw: AdamWConfig::default(),
        tracer: tracer.clone(),
        ..SwipeConfig::new(topo)
    };
    let schedule: Vec<Vec<Vec<usize>>> =
        (0..n_steps).map(|s| (0..2).map(|d| vec![2 * s + d, (2 * s + d + 3) % 8]).collect()).collect();
    let reference = AerisModel::new(cfg);
    let mut spans = 0usize;
    let secs = time_median(5, || {
        let _ = tracer.take_spans();
        let report =
            DistributedTrainer::train(&reference, &swipe_cfg, &source, &schedule, &weights)
                .expect("fault-free run");
        std::hint::black_box(&report.losses);
        spans = tracer.span_count();
    });
    (secs * 1e3 / n_steps as f64, spans)
}

/// Median requests/s through the serving engine, with its tracer on or off.
fn bench_serve(traced: bool) -> f64 {
    // Untrained weights: serving cost is architecture-dependent only.
    let cfg = toy_model_config(&toy_vars());
    let channels = cfg.channels;
    let tokens = cfg.tokens();
    let stats = NormStats { mean: vec![0.0; channels], std: vec![1.0; channels] };
    let fc = Arc::new(Forecaster {
        model: AerisModel::new(cfg),
        res_stats: stats.clone(),
        stats,
        sampler: TrigFlowSampler::new(
            TrigFlow::default(),
            SamplerConfig { n_steps: 4, churn: 0.1, second_order: false },
        ),
    });
    let n_reqs = 6usize;
    let secs = time_median(3, || {
        let engine = ServeEngine::start(
            Arc::clone(&fc),
            ServeConfig { workers: 2, max_batch: 4, ..ServeConfig::default() },
        );
        engine.tracer().set_enabled(traced);
        let tickets: Vec<_> = (0..n_reqs)
            .map(|i| {
                let seed = i as u64;
                engine
                    .submit(ForecastRequest {
                        init: Tensor::randn(&[tokens, channels], &mut Rng::seed_from(seed ^ 0xA15)),
                        forcings: Forcings::Zeros { channels: 3 },
                        steps: 2,
                        n_members: 2,
                        seed,
                        deadline: None,
                        tenant: None,
                        tier: None,
                    })
                    .expect("admitted")
            })
            .collect();
        for t in tickets {
            t.wait().expect("forecast ok");
        }
        engine.shutdown();
    });
    n_reqs as f64 / secs
}

fn overhead_pct(off: f64, on: f64) -> f64 {
    (on - off) / off * 100.0
}

fn main() {
    println!("AERIS observability overhead benchmark");

    let disabled = Tracer::default();
    let enabled = Tracer::new(true);

    // 1. span-site cost
    let iters = 5_000_000u64;
    let site_off = span_site_ns(&disabled, iters);
    let site_on_t = Tracer::new(true);
    let site_on = span_site_ns(&site_on_t, 1_000_000);
    println!("span site: disabled {site_off:6.2} ns/call, enabled {site_on:6.2} ns/call");

    // 2. histogram record path (median of 3 runs per variant)
    let med3 = |f: &dyn Fn() -> f64| {
        let mut v = [f(), f(), f()];
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[1]
    };
    let iters = 2_000_000u64;
    let rec = med3(&|| series_record_ns(iters));
    let rec_mutex = med3(&|| mutex_vec_record_ns(iters));
    let rec_mt = med3(&|| concurrent_record_ns(4, iters / 4));
    println!(
        "series record: histogram {rec:6.2} ns, mutex+vec baseline {rec_mutex:6.2} ns, \
         4-thread shared {rec_mt:6.2} ns/record ({} B fixed/series)",
        Histogram::MEMORY_BYTES
    );

    // 3. SLO observe path
    let slo_ns = med3(&|| slo_observe_ns(1_000_000));
    println!("slo observe: {slo_ns:6.2} ns/outcome");

    // 4. trainer
    let (train_off, _) = bench_train(&disabled);
    let (train_on, train_spans) = bench_train(&enabled);
    let train_pct = overhead_pct(train_off, train_on);
    println!(
        "swipe train: disabled {train_off:7.2} ms/step, enabled {train_on:7.2} ms/step \
         ({train_pct:+.2}%, {train_spans} spans/run)"
    );

    // 5. serving
    let serve_off = bench_serve(false);
    let serve_on = bench_serve(true);
    let serve_pct = overhead_pct(serve_off, serve_on);
    println!(
        "serve: disabled {serve_off:7.1} req/s, enabled {serve_on:7.1} req/s ({serve_pct:+.2}%)"
    );

    let out = format!(
        "{{\n  \"span_site_ns\": {{\"disabled\": {site_off:.3}, \"enabled\": {site_on:.3}}},\n  \
         \"histogram\": {{\"record_ns\": {rec:.3}, \"mutex_vec_record_ns\": {rec_mutex:.3}, \
         \"concurrent_record_ns\": {rec_mt:.3}, \"memory_bytes\": {mem}, \
         \"quantile_rel_error_bound\": {bound}}},\n  \
         \"slo\": {{\"observe_ns\": {slo_ns:.3}}},\n  \
         \"swipe_train\": {{\"disabled_ms_per_step\": {train_off:.3}, \"enabled_ms_per_step\": {train_on:.3}, \
         \"overhead_pct\": {train_pct:.3}, \"spans_per_run\": {train_spans}}},\n  \
         \"serve\": {{\"disabled_req_per_s\": {serve_off:.3}, \"enabled_req_per_s\": {serve_on:.3}, \
         \"overhead_pct\": {serve_pct:.3}}}\n}}\n",
        mem = Histogram::MEMORY_BYTES,
        bound = MAX_QUANTILE_REL_ERROR,
    );
    std::fs::write("BENCH_obs.json", &out).expect("write BENCH_obs.json");
    println!("wrote BENCH_obs.json");
}
