//! Serving-engine throughput: requests/s and latency percentiles as a
//! function of micro-batch size and cache-hit rate, per-tier capacity and
//! latency for the two-tier (full sampler vs distilled one-step student)
//! engine under a mixed multi-tenant load, plus the un-standardize kernel
//! comparison (scalar indexing vs row-slice sweep) that motivates the
//! row-major hot loop in `Forecaster::forecast_step`.
//!
//! Emits `BENCH_serve.json` with the throughput sweeps, a `tiers` object
//! (per-tier req/s, p50/p99 ms, completed/shed counts, read off the
//! engine's own per-tier latency series and report counters), and a
//! `tenants` array from the same report.
//!
//! Run: `cargo run --release -p aeris-bench --bin serve_throughput`
//! (`AERIS_FULL=1` for more requests per configuration).

use aeris_assim::{GuidanceSchedule, ObsOperator, ObservationSet};
use aeris_bench::{fmt_row, header, measure, untrained_forecaster};
use aeris_core::{ConsistencyStudent, Forecaster};
use aeris_diffusion::SamplerConfig;
use aeris_earthsim::{Grid, NormStats};
use aeris_obs::{Histogram, MetricSeries};
use aeris_serve::{
    ForecastRequest, Forcings, NowcastRequest, QuotaConfig, ServeConfig, ServeEngine,
    TenantPolicy, Tier,
};
use aeris_tensor::{sweeps, Rng, Tensor};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The fast tier's one-step model. Teacher-copy weights (zero distillation
/// steps): throughput depends on the NFE count and architecture, not on how
/// well the student was trained, so the copy measures exactly the serving
/// cost a distilled student would have.
fn student_of(fc: &Forecaster) -> Arc<ConsistencyStudent> {
    Arc::new(ConsistencyStudent {
        model: fc.replicate().model,
        stats: fc.stats.clone(),
        res_stats: fc.res_stats.clone(),
        tf: fc.sampler.tf,
    })
}

fn forecast_request(tokens: usize, channels: usize, seed: u64) -> ForecastRequest {
    ForecastRequest {
        init: Tensor::randn(&[tokens, channels], &mut Rng::seed_from(seed ^ 0xA15)),
        forcings: Forcings::Zeros { channels: 3 },
        steps: 2,
        n_members: 2,
        seed,
        deadline: None,
        tenant: None,
        tier: None,
    }
}

struct LoadResult {
    req_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    mean_batch: f64,
    hit_rate: f64,
}

/// Drive `n_requests` through a fresh engine from 4 client threads.
/// `distinct` controls cache pressure: request `i` uses seed `i % distinct`,
/// so smaller `distinct` means more repeated rollouts (higher hit rate).
fn drive(
    fc: &Arc<Forecaster>,
    tokens: usize,
    max_batch: usize,
    n_requests: usize,
    distinct: usize,
) -> LoadResult {
    let engine = Arc::new(ServeEngine::start(
        Arc::clone(fc),
        ServeConfig {
            workers: 4,
            queue_capacity: n_requests,
            max_batch,
            max_wait: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    ));
    let channels = fc.model.cfg.channels;
    let t0 = Instant::now();
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                for i in (c..n_requests).step_by(4) {
                    let seed = (i % distinct) as u64;
                    let ticket = engine
                        .submit(forecast_request(tokens, channels, seed))
                        .expect("admitted");
                    ticket.wait().expect("served");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client panicked");
    }
    let wall = t0.elapsed().as_secs_f64();
    let engine = Arc::try_unwrap(engine).unwrap_or_else(|_| panic!("clients done"));
    let report = engine.shutdown();
    LoadResult {
        req_per_s: n_requests as f64 / wall,
        p50_ms: report.metrics.latency_ms.percentile(50.0).unwrap_or(f64::NAN),
        p99_ms: report.metrics.latency_ms.percentile(99.0).unwrap_or(f64::NAN),
        mean_batch: report.metrics.batch_size.mean().unwrap_or(f64::NAN),
        hit_rate: report.cache.hit_rate(),
    }
}

/// Per-tier capacity: `n_requests` pinned to one tier through a fresh
/// two-tier engine (same worker count per tier, all-distinct seeds, no
/// caching help), 4 client threads.
fn tier_capacity(
    fc: &Arc<Forecaster>,
    student: &Arc<ConsistencyStudent>,
    tier: Tier,
    n_requests: usize,
) -> f64 {
    let engine = Arc::new(ServeEngine::start_two_tier(
        Arc::clone(fc),
        Arc::clone(student),
        ServeConfig {
            workers: 4,
            fast_workers: 4,
            queue_capacity: n_requests,
            max_batch: 8,
            max_wait: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    ));
    let tokens = fc.model.cfg.tokens();
    let channels = fc.model.cfg.channels;
    let t0 = Instant::now();
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                for i in (c..n_requests).step_by(4) {
                    let mut req = forecast_request(tokens, channels, i as u64);
                    req.tier = Some(tier);
                    engine.submit(req).expect("admitted").wait().expect("served");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client panicked");
    }
    let wall = t0.elapsed().as_secs_f64();
    drop(engine);
    n_requests as f64 / wall
}

struct TierRow {
    req_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    completed: u64,
    shed: u64,
}

struct TenantRow {
    tenant: String,
    completed: u64,
    shed: u64,
    quota_denied: u64,
}

struct TieredResult {
    mixed_req_per_s: f64,
    tiers: [TierRow; 2], // [fast, quality]
    tenants: Vec<TenantRow>,
    nowcast_p50_ms: f64,
    nowcast_p99_ms: f64,
}

/// The headline mixed load: two tenants (an "ops" desk with 4× weight and a
/// quota-capped "research" tenant) driving an even forecast/nowcast mix,
/// half of it pinned fast and half quality, plus a slice of zero-deadline
/// requests that the engine sheds at admission. Per-tier latency comes off
/// the engine's own split series; per-tier/per-tenant counters off the
/// shutdown report.
fn drive_tiered(
    fc: &Arc<Forecaster>,
    student: &Arc<ConsistencyStudent>,
    n_requests: usize,
    capacities: [f64; 2],
) -> TieredResult {
    let engine = Arc::new(ServeEngine::start_two_tier(
        Arc::clone(fc),
        Arc::clone(student),
        ServeConfig {
            workers: 4,
            fast_workers: 2,
            queue_capacity: 2 * n_requests,
            max_batch: 8,
            max_wait: Duration::from_millis(1),
            quota: Some(QuotaConfig {
                default: TenantPolicy { weight: 1.0, rate: 0.0, burst: 0.0 },
                overrides: vec![
                    (Arc::from("ops"), TenantPolicy { weight: 4.0, rate: 0.0, burst: 0.0 }),
                    // Research demands ~1.5 member-steps per request of the
                    // whole mix; a burst of n_requests covers about 2/3 of
                    // that, so the tail is refused at admission.
                    (
                        Arc::from("research"),
                        TenantPolicy { weight: 1.0, rate: 1e-9, burst: n_requests as f64 },
                    ),
                ],
            }),
            ..ServeConfig::default()
        },
    ));
    let cfg = &fc.model.cfg;
    let tokens = cfg.tokens();
    let channels = cfg.channels;
    let grid = Grid::new(cfg.grid_h, cfg.grid_w);
    // One observation network shared by all nowcasts (realistic: a fixed
    // station network observed at many analysis times).
    let op = ObsOperator::stations(&grid, tokens / 4, &[0, 1], &vec![0.5; channels], 17);
    let observations: Vec<Arc<ObservationSet>> = (0..4)
        .map(|i| {
            let truth = Tensor::randn(&[tokens, channels], &mut Rng::seed_from(0xBE5 + i as u64));
            Arc::new(op.observe(&truth, 0.05, 0x0B5 + i as u64))
        })
        .collect();
    let t0 = Instant::now();
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let engine = Arc::clone(&engine);
            let observations = observations.clone();
            std::thread::spawn(move || {
                let tenant: Arc<str> = if c % 2 == 0 { Arc::from("ops") } else { Arc::from("research") };
                let mut quota_denied = 0usize;
                for i in (c..n_requests).step_by(4) {
                    let seed = i as u64;
                    let tier = Some(if i % 2 == 0 { Tier::Fast } else { Tier::Quality });
                    // Every 8th request carries a spent deadline: it is shed
                    // at admission, exercising the deadline path under load.
                    let deadline =
                        if i % 8 == 7 { Some(Duration::ZERO) } else { None };
                    let outcome = if i % 4 < 2 {
                        let mut req = forecast_request(tokens, channels, seed);
                        req.tier = tier;
                        req.tenant = Some(Arc::clone(&tenant));
                        req.deadline = deadline;
                        engine.submit(req).map(|t| t.wait())
                    } else {
                        engine
                            .submit_nowcast(NowcastRequest {
                                background: Tensor::randn(
                                    &[tokens, channels],
                                    &mut Rng::seed_from(seed ^ 0xA15),
                                ),
                                forcings: Forcings::Zeros { channels: 3 },
                                observations: Arc::clone(&observations[i % 4]),
                                schedule: GuidanceSchedule::Constant(0.05),
                                n_members: 2,
                                seed,
                                deadline,
                                tenant: Some(Arc::clone(&tenant)),
                                tier,
                            })
                            .map(|t| t.wait())
                    };
                    match outcome {
                        Ok(Ok(_)) => {}
                        Ok(Err(e)) => panic!("serve failed: {e}"),
                        Err(aeris_serve::ServeError::DeadlineExceeded { .. }) => {}
                        Err(aeris_serve::ServeError::QuotaExceeded { .. }) => quota_denied += 1,
                        Err(e) => panic!("admission failed: {e}"),
                    }
                }
                quota_denied
            })
        })
        .collect();
    let mut denied = 0usize;
    for c in clients {
        denied += c.join().expect("client panicked");
    }
    let wall = t0.elapsed().as_secs_f64();
    let engine = Arc::try_unwrap(engine).unwrap_or_else(|_| panic!("clients done"));
    let report = engine.shutdown();
    assert_eq!(denied as u64, report.quota_denied, "client/report quota accounting disagrees");
    let p = |series: &MetricSeries, q: f64| series.percentile(q).unwrap_or(f64::NAN);
    let m = &report.metrics;
    let tiers = [Tier::Fast, Tier::Quality].map(|t| {
        // Per-tier latency under the mix: forecast + nowcast samples pooled.
        let latency = if t == Tier::Fast {
            pooled(&m.fast_latency_ms, &m.fast_nowcast_latency_ms)
        } else {
            pooled(&m.latency_ms, &m.nowcast_latency_ms)
        };
        TierRow {
            req_per_s: capacities[if t == Tier::Fast { 0 } else { 1 }],
            p50_ms: latency.percentile(50.0).unwrap_or(f64::NAN),
            p99_ms: latency.percentile(99.0).unwrap_or(f64::NAN),
            completed: report.tier(t).completed,
            shed: report.tier(t).shed,
        }
    });
    TieredResult {
        mixed_req_per_s: report.completed as f64 / wall,
        tiers,
        tenants: report
            .tenants
            .iter()
            .map(|(name, c)| TenantRow {
                tenant: name.clone(),
                completed: c.completed,
                shed: c.shed,
                quota_denied: c.quota_denied,
            })
            .collect(),
        nowcast_p50_ms: p(&report.metrics.nowcast_latency_ms, 50.0),
        nowcast_p99_ms: p(&report.metrics.nowcast_latency_ms, 99.0),
    }
}

/// The union of two latency series, as one histogram.
fn pooled(a: &MetricSeries, b: &MetricSeries) -> Histogram {
    let h = Histogram::new();
    h.merge_from(a.histogram());
    h.merge_from(b.histogram());
    h
}

/// The pre-optimization un-standardize inner loop: scalar `at()` indexing
/// with per-element bounds/offset arithmetic. Kept here as the baseline the
/// row-slice sweep in `forecast_step` is measured against.
fn unstandardize_scalar(residual_std: &Tensor, next: &mut Tensor, stats: &NormStats) {
    let shape = residual_std.shape();
    for r in 0..shape[0] {
        for c in 0..shape[1] {
            let v = residual_std.at(&[r, c]);
            let cur = next.at(&[r, c]);
            next.row_mut(r)[c] = cur + v * stats.std[c] + stats.mean[c];
        }
    }
}

/// The shipped row-slice sweep (the one `forecast_step` runs).
fn unstandardize_rows(residual_std: &Tensor, next: &mut Tensor, stats: &NormStats) {
    for r in 0..residual_std.shape()[0] {
        sweeps::add_scale_shift(next.row_mut(r), residual_std.row(r), &stats.std, &stats.mean);
    }
}

fn main() {
    let full = std::env::var("AERIS_FULL").map(|v| v == "1").unwrap_or(false);
    let n_requests = if full { 96 } else { 32 };
    // 6 solver steps with the second-order corrector = 12 network evals per
    // member-step on the quality tier, vs 1 for the distilled student.
    let fc = Arc::new(untrained_forecaster(SamplerConfig {
        n_steps: 6,
        churn: 0.1,
        second_order: true,
    }));
    let student = student_of(&fc);
    let tokens = fc.model.cfg.tokens();

    header("Serving throughput vs micro-batch size");
    println!("{n_requests} requests x 2 members x 2 steps, 4 workers, 4 clients, all-distinct seeds");
    println!("{:<16}{:>10}{:>10}{:>10}{:>12}", "max_batch", "req/s", "p50 ms", "p99 ms", "mean batch");
    let mut batch_rows = Vec::new();
    for max_batch in [1usize, 2, 4, 8, 16] {
        let r = drive(&fc, tokens, max_batch, n_requests, n_requests);
        println!(
            "{:<16}{:>10.2}{:>10.1}{:>10.1}{:>12.2}",
            max_batch, r.req_per_s, r.p50_ms, r.p99_ms, r.mean_batch
        );
        batch_rows.push(format!(
            "{{\"max_batch\": {max_batch}, \"req_per_s\": {:.3}, \"p50_ms\": {:.3}, \
             \"p99_ms\": {:.3}, \"mean_batch\": {:.3}}}",
            r.req_per_s, r.p50_ms, r.p99_ms, r.mean_batch
        ));
    }

    header("Serving throughput vs cache-hit rate");
    println!("max_batch 8; `distinct` = number of unique rollouts among {n_requests} requests");
    println!("{:<16}{:>10}{:>10}{:>10}{:>12}", "distinct", "req/s", "p50 ms", "p99 ms", "hit rate");
    let mut cache_rows = Vec::new();
    for distinct in [n_requests, n_requests / 2, n_requests / 8, 1] {
        let r = drive(&fc, tokens, 8, n_requests, distinct.max(1));
        println!(
            "{:<16}{:>10.2}{:>10.1}{:>10.1}{:>11.0}%",
            distinct.max(1),
            r.req_per_s,
            r.p50_ms,
            r.p99_ms,
            100.0 * r.hit_rate
        );
        cache_rows.push(format!(
            "{{\"distinct\": {}, \"req_per_s\": {:.3}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"hit_rate\": {:.4}}}",
            distinct.max(1),
            r.req_per_s,
            r.p50_ms,
            r.p99_ms,
            r.hit_rate
        ));
    }

    header("Per-tier capacity: distilled fast tier vs full-sampler quality tier");
    println!("{n_requests} requests pinned per tier, 4 workers each, 12 vs 1 network evals/step");
    let fast_cap = tier_capacity(&fc, &student, Tier::Fast, n_requests);
    let quality_cap = tier_capacity(&fc, &student, Tier::Quality, n_requests);
    println!("{:<16}{:>10}{:>12}", "tier", "req/s", "speedup");
    println!("{:<16}{:>10.2}{:>12}", "quality", quality_cap, "1.0x");
    println!("{:<16}{:>10.2}{:>11.1}x", "fast", fast_cap, fast_cap / quality_cap);

    header("Mixed two-tier multi-tenant load");
    println!(
        "{n_requests} requests, 50% nowcasts, 50% pinned fast, 2 tenants, \
         1/8 spent deadlines, quota-capped research tenant"
    );
    let m = drive_tiered(&fc, &student, n_requests, [fast_cap, quality_cap]);
    println!("{:<16}{:>10}{:>10}{:>12}{:>8}", "tier", "p50 ms", "p99 ms", "completed", "shed");
    for (t, row) in [Tier::Fast, Tier::Quality].iter().zip(&m.tiers) {
        println!(
            "{:<16}{:>10.1}{:>10.1}{:>12}{:>8}",
            t.name(),
            row.p50_ms,
            row.p99_ms,
            row.completed,
            row.shed
        );
    }
    println!("{:<16}{:>12}{:>8}{:>14}", "tenant", "completed", "shed", "quota denied");
    for t in &m.tenants {
        println!(
            "{:<16}{:>12}{:>8}{:>14}",
            t.tenant, t.completed, t.shed, t.quota_denied
        );
    }
    println!("mixed load: {:.2} req/s completed", m.mixed_req_per_s);

    header("Un-standardize kernel: scalar at() vs row-slice sweep (µs/sweep ± spread)");
    let channels = fc.model.cfg.channels;
    let stats = NormStats { mean: vec![0.1; channels], std: vec![1.3; channels] };
    let mut rng = Rng::seed_from(7);
    let residual = Tensor::randn(&[tokens, channels], &mut rng);
    let base = Tensor::randn(&[tokens, channels], &mut rng);
    // Each timed call sweeps `iters` times; rows report µs per sweep.
    let iters = if full { 4_000 } else { 800 };
    let mut sink = 0.0f32;
    let mut scratch = base.clone();
    let mut kernel_us = |kernel: fn(&Tensor, &mut Tensor, &NormStats)| {
        let m = measure(5, || {
            for _ in 0..iters {
                scratch.data_mut().copy_from_slice(base.data());
                kernel(&residual, &mut scratch, &stats);
                sink += scratch.at(&[0, 0]);
            }
        });
        (m.median() * 1e6 / iters as f64, m.spread() * 1e6 / iters as f64)
    };
    let (scalar_us, scalar_sd) = kernel_us(unstandardize_scalar);
    let (rows_us, rows_sd) = kernel_us(unstandardize_rows);
    println!("{}", fmt_row("scalar at()", &[scalar_us, scalar_sd], 12, 2));
    println!("{}", fmt_row("row slices", &[rows_us, rows_sd], 12, 2));
    println!("{}", fmt_row("speedup", &[scalar_us / rows_us], 12, 2));
    assert!(sink.is_finite());

    let tier_json = |row: &TierRow| {
        format!(
            "{{\"req_per_s\": {:.3}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"completed\": {}, \"shed\": {}}}",
            row.req_per_s, row.p50_ms, row.p99_ms, row.completed, row.shed
        )
    };
    let tenant_rows: Vec<String> = m
        .tenants
        .iter()
        .map(|t| {
            format!(
                "{{\"tenant\": \"{}\", \"completed\": {}, \"shed\": {}, \"quota_denied\": {}}}",
                t.tenant, t.completed, t.shed, t.quota_denied
            )
        })
        .collect();
    let out = format!(
        "{{\n  \"batch_sweep\": [\n    {}\n  ],\n  \"cache_sweep\": [\n    {}\n  ],\n  \
         \"tiers\": {{\n    \"fast\": {},\n    \"quality\": {},\n    \
         \"fast_speedup\": {:.3}\n  }},\n  \
         \"tenants\": [\n    {}\n  ],\n  \
         \"mixed_load\": {{\n    \"req_per_s\": {:.3},\n    \
         \"nowcast\": {{\"p50_ms\": {:.3}, \"p99_ms\": {:.3}}}\n  }},\n  \
         \"unstandardize_kernel\": {{\"scalar_us\": {scalar_us:.3}, \"rows_us\": {rows_us:.3}, \
         \"speedup\": {:.3}}}\n}}\n",
        batch_rows.join(",\n    "),
        cache_rows.join(",\n    "),
        tier_json(&m.tiers[0]),
        tier_json(&m.tiers[1]),
        fast_cap / quality_cap,
        tenant_rows.join(",\n    "),
        m.mixed_req_per_s,
        m.nowcast_p50_ms,
        m.nowcast_p99_ms,
        scalar_us / rows_us,
    );
    std::fs::write("BENCH_serve.json", &out).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeris_obs::histogram::MAX_QUANTILE_REL_ERROR;

    #[test]
    fn pooled_percentile_is_the_percentile_of_the_union() {
        let (a, b) = (MetricSeries::new(), MetricSeries::new());
        for _ in 0..99 {
            a.record(1.0);
        }
        a.record(2.0);
        for _ in 0..10 {
            b.record(100.0);
        }
        let union = pooled(&a, &b);
        assert_eq!(union.count(), 110);
        // Rank 109 of the 110 pooled samples is one of b's 100s, while the
        // average of the two series' p99s is about 50.
        let close = |v: f64, want: f64| (v - want).abs() <= want * MAX_QUANTILE_REL_ERROR;
        assert!(close(union.percentile(99.0).unwrap(), 100.0));
        let p99 = |s: &MetricSeries| s.percentile(99.0).unwrap();
        assert!(close(0.5 * (p99(&a) + p99(&b)), 50.5));
    }
}
