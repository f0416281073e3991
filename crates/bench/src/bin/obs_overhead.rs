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
//! Every probe is timed with [`aeris_bench::measure`]; stdout adds each
//! row's interquartile spread. Overheads are computed on median times, so
//! a slowdown is always a positive overhead.
//!
//! ```bash
//! cargo run --release -p aeris-bench --bin obs_overhead
//! ```

use aeris_bench::{measure, toy_model, toy_swipe_data, untrained_forecaster, Measurement};
use aeris_core::AerisModel;
use aeris_diffusion::SamplerConfig;
use aeris_nn::AdamWConfig;
use aeris_obs::histogram::MAX_QUANTILE_REL_ERROR;
use aeris_obs::{Histogram, MetricSeries, SloConfig, SloTracker, Tracer};
use aeris_serve::{ForecastRequest, Forcings, ServeConfig, ServeEngine};
use aeris_swipe::{DistributedTrainer, SwipeConfig, SwipeTopology};
use aeris_tensor::{Rng, Tensor};
use std::sync::{Arc, Mutex};

/// Timed calls per microbenchmark probe; each call runs `iters` iterations.
const PROBE_REPS: usize = 3;
/// Steps per timed distributed-training run.
const TRAIN_STEPS: usize = 2;
/// Forecasts per timed serving run.
const SERVE_REQUESTS: usize = 6;

fn span_site(tracer: &Tracer, iters: u64) -> Measurement {
    measure(PROBE_REPS, || {
        // An enabled tracer keeps every span; hold one call's worth at most.
        drop(tracer.take_spans());
        for i in 0..iters {
            let _g = tracer.span(aeris_obs::SpanCategory::Forward, 0);
            std::hint::black_box(i);
        }
    })
}

/// `MetricSeries::record` on the lock-free histogram path.
fn series_record(iters: u64) -> Measurement {
    measure(PROBE_REPS, || {
        let s = MetricSeries::new();
        for i in 0..iters {
            s.record(std::hint::black_box((i % 1000) as f64 + 0.5));
        }
        std::hint::black_box(s.count());
    })
}

/// The old implementation's shape: lock a mutex, push the raw sample into
/// an unbounded `Vec`.
fn mutex_vec_record(iters: u64) -> Measurement {
    measure(PROBE_REPS, || {
        let v: Mutex<Vec<f64>> = Mutex::new(Vec::new());
        for i in 0..iters {
            v.lock().unwrap().push(std::hint::black_box((i % 1000) as f64 + 0.5));
        }
        std::hint::black_box(v.lock().unwrap().len());
    })
}

/// `threads` writers hammering one shared series, `iters` records each —
/// the contended case the sharded atomic buckets exist for.
fn concurrent_record(threads: u64, iters: u64) -> Measurement {
    measure(PROBE_REPS, || {
        let s = Arc::new(MetricSeries::new());
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
    })
}

/// `SloTracker::observe` on a default-window tracker.
fn slo_observe(iters: u64) -> Measurement {
    measure(PROBE_REPS, || {
        let t = SloTracker::new(SloConfig::default());
        for i in 0..iters {
            t.observe(std::hint::black_box(i % 100 != 0));
        }
        std::hint::black_box(t.state().total);
    })
}

/// The distributed trainer under the given tracer, one call per run of
/// `TRAIN_STEPS` steps; also returns the spans recorded in the last run.
fn bench_train(tracer: &Tracer) -> (Measurement, usize) {
    let (source, weights) = toy_swipe_data();
    let topo = SwipeTopology::new(2, 4, 1, 2, 2);
    let swipe_cfg = SwipeConfig {
        topo,
        gas: 2,
        n_steps: TRAIN_STEPS,
        lr: 1e-3,
        seed: 5,
        adamw: AdamWConfig::default(),
        tracer: tracer.clone(),
        ..SwipeConfig::new(topo)
    };
    let schedule: Vec<Vec<Vec<usize>>> = (0..TRAIN_STEPS)
        .map(|s| (0..2).map(|d| vec![2 * s + d, (2 * s + d + 3) % 8]).collect())
        .collect();
    let reference = AerisModel::new(toy_model());
    let mut spans = 0usize;
    let m = measure(5, || {
        let _ = tracer.take_spans();
        let report =
            DistributedTrainer::train(&reference, &swipe_cfg, &source, &schedule, &weights)
                .expect("fault-free run");
        std::hint::black_box(&report.losses);
        spans = tracer.span_count();
    });
    (m, spans)
}

/// `SERVE_REQUESTS` forecasts through the serving engine per call, with its
/// tracer on or off.
fn bench_serve(traced: bool) -> Measurement {
    let fc = Arc::new(untrained_forecaster(SamplerConfig {
        n_steps: 4,
        churn: 0.1,
        second_order: false,
    }));
    let (tokens, channels) = (fc.model.cfg.tokens(), fc.model.cfg.channels);
    measure(3, || {
        let engine = ServeEngine::start(
            Arc::clone(&fc),
            ServeConfig { workers: 2, max_batch: 4, ..ServeConfig::default() },
        );
        engine.tracer().set_enabled(traced);
        let tickets: Vec<_> = (0..SERVE_REQUESTS)
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
    })
}

/// Median and spread of `m` in nanoseconds per iteration.
fn ns_per_iter(m: &Measurement, iters: u64) -> (f64, f64) {
    let scale = 1e9 / iters as f64;
    (m.median() * scale, m.spread() * scale)
}

fn main() {
    println!("AERIS observability overhead benchmark");

    let disabled = Tracer::default();
    let enabled = Tracer::new(true);

    // 1. span-site cost
    let (site_off, site_off_sd) = ns_per_iter(&span_site(&disabled, 5_000_000), 5_000_000);
    let site_on_t = Tracer::new(true);
    let (site_on, site_on_sd) = ns_per_iter(&span_site(&site_on_t, 1_000_000), 1_000_000);
    println!(
        "span site: disabled {site_off:6.2} ± {site_off_sd:.2} ns/call, \
         enabled {site_on:6.2} ± {site_on_sd:.2} ns/call"
    );

    // 2. histogram record path
    let iters = 2_000_000u64;
    let (rec, rec_sd) = ns_per_iter(&series_record(iters), iters);
    let (rec_mutex, rec_mutex_sd) = ns_per_iter(&mutex_vec_record(iters), iters);
    let (rec_mt, rec_mt_sd) = ns_per_iter(&concurrent_record(4, iters / 4), iters);
    println!(
        "series record: histogram {rec:6.2} ± {rec_sd:.2} ns, \
         mutex+vec baseline {rec_mutex:6.2} ± {rec_mutex_sd:.2} ns, \
         4-thread shared {rec_mt:6.2} ± {rec_mt_sd:.2} ns/record ({} B fixed/series)",
        Histogram::MEMORY_BYTES
    );

    // 3. SLO observe path
    let (slo_ns, slo_sd) = ns_per_iter(&slo_observe(1_000_000), 1_000_000);
    println!("slo observe: {slo_ns:6.2} ± {slo_sd:.2} ns/outcome");

    // 4. trainer
    let (train_off_m, _) = bench_train(&disabled);
    let (train_on_m, train_spans) = bench_train(&enabled);
    let train_pct = train_on_m.overhead_pct(&train_off_m);
    let ms_per_step = |secs: f64| secs * 1e3 / TRAIN_STEPS as f64;
    let train_off = ms_per_step(train_off_m.median());
    let train_on = ms_per_step(train_on_m.median());
    println!(
        "swipe train: disabled {train_off:7.2} ± {:.2} ms/step, enabled {train_on:7.2} ± {:.2} \
         ms/step ({train_pct:+.2}%, {train_spans} spans/run)",
        ms_per_step(train_off_m.spread()),
        ms_per_step(train_on_m.spread()),
    );

    // 5. serving: req/s from the median time; overhead on times, so a
    //    slowdown is a positive overhead.
    let serve_off_m = bench_serve(false);
    let serve_on_m = bench_serve(true);
    let serve_pct = serve_on_m.overhead_pct(&serve_off_m);
    let req_per_s = |m: &Measurement| SERVE_REQUESTS as f64 / m.median();
    let (serve_off, serve_on) = (req_per_s(&serve_off_m), req_per_s(&serve_on_m));
    println!(
        "serve: disabled {serve_off:7.1} req/s (run ± {:.0} ms), enabled {serve_on:7.1} req/s \
         (run ± {:.0} ms) ({serve_pct:+.2}%)",
        serve_off_m.spread() * 1e3,
        serve_on_m.spread() * 1e3,
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
