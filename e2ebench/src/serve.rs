//! Serving load: the `serve_capacity` closed loop (quality tier) and the
//! open-loop mix its traced run adds (two tiers, two tenants, nowcasts,
//! replays and spent deadlines).

use crate::models::{serve_config, SavedWeights};
use crate::plan::{self, mixed_plan, Lateness, MixSpec, MixedPlan, Outcome, PlanTenant, PlanTier};
use crate::report::{Ledger, Metrics};
use crate::{stats, RunCtx, WorkloadRun};
use aeris_assim::{
    nowcast_ensemble, nowcast_member_fast, GuidanceSchedule, ObsOperator, ObservationSet,
};
use aeris_core::{ConsistencyStudent, Forecaster};
use aeris_earthsim::Grid;
use aeris_obs::{SpanCategory, SpanGuard, Tracer};
use aeris_serve::{
    Forcings, ForecastRequest, ForecastResponse, NowcastRequest, QuotaConfig, ServeConfig,
    ServeEngine, ServeError, TenantPolicy, Ticket, Tier,
};
use aeris_tensor::{Rng, Tensor};
use std::collections::VecDeque;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Ensemble members per request.
const MEMBERS: usize = 2;
/// Forecast steps per `serve_capacity` request.
const STEPS: usize = 2;
/// Requests `serve_capacity` keeps outstanding.
const OUTSTANDING: usize = 8;
/// In-process set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Latency limits behind `loadgen.slo_met_share`.
const FAST_LIMIT: Duration = Duration::from_millis(250);
const QUALITY_LIMIT: Duration = Duration::from_secs(2);
/// Percentile reported as `latency_tail_ms`: the highest the closed loop's
/// sample count supports.
const CAPACITY_TAIL_Q: f64 = 75.0;

/// The open-loop mix. Its forecasts are one step, like
/// its nowcasts, so both kinds cost one member-step per member and the
/// fast tier's latency is one population rather than two. One request in
/// 16 is pinned to the quality tier, which keeps that tier busy for about a
/// fifth of the run: the fast tier's median then falls among uncontended
/// requests and its p90 among contended ones, instead of either sitting on
/// the boundary between the two.
pub const MIX: MixSpec = MixSpec {
    rate_per_s: 9.0,
    members: MEMBERS,
    forecast_steps: 1,
    quality_one_in: 16,
    replay_one_in: 4,
    replay_min_gap: 20,
    spent_one_in: 16,
    research_budget_share: 0.75,
};

/// Nowcast guidance of the mix.
const SCHEDULE: GuidanceSchedule = GuidanceSchedule::Constant(0.05);
/// Observation sets drawn from the one shared station network.
const OBS_SETS: usize = 4;
/// Seeds of set-up warm requests: disjoint from plan seeds (`< 2^63`).
const WARM_SEED: u64 = 1 << 63;

fn tokens_channels() -> (usize, usize) {
    let cfg = serve_config();
    (cfg.tokens(), cfg.channels)
}

fn state(seed: u64) -> Tensor {
    let (tokens, channels) = tokens_channels();
    Tensor::randn(&[tokens, channels], &mut Rng::seed_from(seed ^ 0xA15))
}

fn zero_forcings() -> Forcings {
    Forcings::Zeros {
        channels: serve_config().forcing_channels,
    }
}

fn forecast_request(seed: u64, tier: Tier, steps: usize) -> ForecastRequest {
    ForecastRequest {
        init: state(seed),
        forcings: zero_forcings(),
        steps,
        n_members: MEMBERS,
        seed,
        deadline: None,
        tenant: None,
        tier: Some(tier),
    }
}

fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_members(a: &[Vec<Tensor>], b: &[Vec<Tensor>]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same_bits(p, q)))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A running engine with the models it serves.
struct Served {
    engine: ServeEngine,
    fc: Arc<Forecaster>,
    student: Arc<ConsistencyStudent>,
}

/// One set-up: load both tiers' weights, start the engine, and complete the
/// warm requests. Returns the engine and the set-up time.
fn set_up(
    weights: &SavedWeights,
    cfg: &ServeConfig,
    warm: &[ForecastRequest],
    tracer: &Tracer,
    ledger: &mut Ledger,
) -> Result<(Served, Duration), String> {
    let t0 = Instant::now();
    let (fc, student) = {
        let _span = tracer.span(SpanCategory::Checkpoint, 0).label("setup.load");
        let load = || -> std::io::Result<_> {
            Ok((
                Arc::new(weights.load_forecaster()?),
                Arc::new(weights.load_student()?),
            ))
        };
        load().map_err(|e| format!("loading saved weights: {e}"))?
    };
    let engine = {
        let _span = tracer
            .span(SpanCategory::Forward, 0)
            .label("setup.engine_start");
        ServeEngine::start_two_tier(Arc::clone(&fc), Arc::clone(&student), cfg.clone())
    };
    {
        let _span = tracer
            .span(SpanCategory::Forward, 0)
            .label("setup.first_unit");
        let tickets: Vec<_> = warm.iter().map(|r| engine.submit(r.clone())).collect();
        for t in tickets {
            let res = t.and_then(|t| t.wait());
            ledger.check(res.is_ok(), || {
                format!("set-up warm request failed: {:?}", res.err())
            });
        }
    }
    Ok((
        Served {
            engine,
            fc,
            student,
        },
        t0.elapsed(),
    ))
}

/// [`SETUPS`] set-ups; all but the last are shut down (and their accounting
/// checked). Returns the last engine and the median set-up time.
fn set_up_median(
    weights: &SavedWeights,
    cfg: &ServeConfig,
    warm: &[ForecastRequest],
    tracer: &Tracer,
    ledger: &mut Ledger,
) -> Result<(Served, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        let (served, dt) = set_up(weights, cfg, warm, tracer, ledger)?;
        times.push(dt.as_secs_f64());
        if let Some(old) = kept.replace(served) {
            let report = old.engine.shutdown();
            let acc = report.verify_accounting();
            ledger.check(acc.is_ok(), || format!("set-up engine accounting: {acc:?}"));
        }
    }
    let served = kept.expect("SETUPS >= 1");
    Ok((served, stats::median(&times).expect("non-empty")))
}

/// Shut the engine down and gate its conservation identities.
fn shut_down(served: Served, ledger: &mut Ledger) -> aeris_serve::ServeReport {
    let report = served.engine.shutdown();
    let acc = report.verify_accounting();
    ledger.check(acc.is_ok(), || {
        format!("ServeReport::verify_accounting: {acc:?}")
    });
    report
}

/// `serve_capacity`: one thread keeps [`OUTSTANDING`] quality-tier
/// forecasts in flight, refilling as each completes.
pub fn capacity(ctx: &RunCtx, weights: &SavedWeights) -> Result<WorkloadRun, String> {
    let tracer = &ctx.tracer;
    let mut ledger = Ledger::default();
    let warm = [forecast_request(WARM_SEED, Tier::Quality, STEPS)];
    let (served, setup_s) =
        set_up_median(weights, &ServeConfig::default(), &warm, tracer, &mut ledger)?;

    struct InFlight {
        unit: u64,
        seed: u64,
        ticket: Ticket,
        sent: Instant,
        /// Open from submission until the loop sees the response.
        _span: SpanGuard,
    }
    struct Done {
        unit: u64,
        seed: u64,
        sent: Instant,
        latency: Duration,
        response: Option<ForecastResponse>,
    }
    let mut rng = plan::rng(ctx.seed);
    // Completed requests whose responses are re-checked against direct
    // ensemble calls after timing.
    let verify_units = [
        rng.below(16) as u64 + OUTSTANDING as u64,
        rng.below(16) as u64 + 24,
    ];
    let engine = &served.engine;
    let mut next_unit = 0u64;
    let mut submit = |inflight: &mut VecDeque<InFlight>, rng: &mut Rng, ledger: &mut Ledger| {
        let seed = rng.next_u64() >> 1;
        let unit = next_unit;
        next_unit += 1;
        let req = forecast_request(seed, Tier::Quality, STEPS);
        let request_span = tracer
            .span(SpanCategory::Forward, 0)
            .label("serve.request")
            .step(unit);
        let sent = Instant::now();
        let submitted = {
            let _span = tracer
                .span(SpanCategory::Admission, 0)
                .label("serve.submit")
                .step(unit);
            engine.submit(req)
        };
        match submitted {
            Ok(ticket) => inflight.push_back(InFlight {
                unit,
                seed,
                ticket,
                sent,
                _span: request_span,
            }),
            Err(e) => ledger.check(false, || format!("capacity request {unit} refused: {e}")),
        }
    };

    let mut inflight = VecDeque::new();
    for _ in 0..OUTSTANDING {
        submit(&mut inflight, &mut rng, &mut ledger);
    }
    // The window opens at the first completion (the pipeline is full) and
    // is lengthened until it holds enough completions for the tail.
    let span = Duration::from_secs_f64(ctx.seconds);
    let min_done = stats::MIN_BEYOND * 4;
    let mut window: Option<(Instant, Instant)> = None;
    let mut done: Vec<Done> = Vec::new();
    let mut in_window = 0usize;
    while !inflight.is_empty() {
        let mut finished = Vec::new();
        let mut i = 0;
        while i < inflight.len() {
            match inflight[i].ticket.wait_for(Duration::ZERO) {
                Err(ServeError::WaitTimeout { .. }) => i += 1,
                res => finished.push((inflight.remove(i).expect("index in range"), res)),
            }
        }
        if finished.is_empty() {
            let _ = inflight[0].ticket.wait_for(Duration::from_millis(1));
            continue;
        }
        let now = Instant::now();
        let (w0, w1) = *window.get_or_insert((now, now + span));
        for (f, res) in finished {
            match res {
                Ok(resp) => {
                    ledger.op();
                    let complete = f.sent + resp.latency;
                    if complete >= w0 && complete <= w1 {
                        in_window += 1;
                    }
                    let keep = verify_units.contains(&f.unit);
                    done.push(Done {
                        unit: f.unit,
                        seed: f.seed,
                        sent: f.sent,
                        latency: resp.latency,
                        response: keep.then_some(resp),
                    });
                }
                Err(e) => {
                    ledger.check(false, || format!("capacity request {} failed: {e}", f.unit))
                }
            }
        }
        if now >= w1 && in_window >= min_done {
            continue; // draining: no refills
        }
        if now >= w1 {
            window = Some((w0, now + Duration::from_millis(500)));
        }
        while inflight.len() < OUTSTANDING {
            submit(&mut inflight, &mut rng, &mut ledger);
        }
    }
    let (w0, w1) = window.ok_or("capacity run completed no request")?;
    let mut latencies = Vec::new();
    for d in &done {
        let end = d.sent + d.latency;
        if end >= w0 && end <= w1 {
            latencies.push(ms(d.latency));
        }
    }
    // Little's law: the loop holds OUTSTANDING requests in the system at all
    // times, so throughput is OUTSTANDING over the mean latency. Counting
    // completions instead would quantize the rate, since requests that share
    // batches complete in waves.
    let mean_latency_s = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64 / 1e3;

    // Bitwise gate: sampled responses equal direct ensemble calls.
    let forcing = Tensor::zeros(&[tokens_channels().0, serve_config().forcing_channels]);
    for d in done.iter().filter(|d| d.response.is_some()) {
        let resp = d.response.as_ref().expect("filtered");
        let direct = {
            let _span = tracer
                .span(SpanCategory::Forward, 0)
                .label("verify.ensemble")
                .step(d.unit);
            served
                .fc
                .ensemble(&state(d.seed), &|_| forcing.clone(), STEPS, MEMBERS, d.seed)
        };
        ledger.check(
            same_members(&resp.forecast.members, &direct.members),
            || {
                format!(
                    "capacity request {}: served forecast differs from Forecaster::ensemble",
                    d.unit
                )
            },
        );
    }
    shut_down(served, &mut ledger);
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set("throughput_per_s", OUTSTANDING as f64 / mean_latency_s);
    m.set("latency_p50_ms", stats::median(&latencies).unwrap_or(0.0));
    let tail = tail_percentile(&[&latencies], CAPACITY_TAIL_Q, "quality latency")?;
    m.set("latency_tail_ms", tail);
    Ok(WorkloadRun {
        ledger,
        metrics: m,
        split: None,
    })
}

/// The reported tail percentile, or an error when the run holds too few
/// samples to support it.
fn tail_percentile(series: &[&[f64]], q: f64, what: &str) -> Result<f64, String> {
    let n: usize = series.iter().map(|s| s.len()).sum();
    if !stats::supports(n, q) {
        return Err(format!(
            "{n} {what} samples cannot support p{q}: fewer than {} beyond it",
            stats::MIN_BEYOND
        ));
    }
    Ok(stats::pooled_percentile(series, q).expect("non-empty"))
}

/// A fully built request of the open-loop mix.
enum Built {
    Forecast(ForecastRequest),
    Nowcast(NowcastRequest),
}

/// The shared station network's observation sets.
fn observation_sets(seed: u64) -> Vec<Arc<ObservationSet>> {
    let cfg = serve_config();
    let grid = Grid::new(cfg.grid_h, cfg.grid_w);
    let op = ObsOperator::stations(
        &grid,
        cfg.tokens() / 4,
        &[0, 1],
        &vec![0.5; cfg.channels],
        seed ^ 0x57A7,
    );
    (0..OBS_SETS as u64)
        .map(|k| {
            let truth = state(seed ^ (0xBE5 + k));
            Arc::new(op.observe(&truth, 0.05, seed ^ (0x0B5 + k)))
        })
        .collect()
}

fn build(plan: &MixedPlan, obs: &[Arc<ObservationSet>]) -> Vec<Built> {
    let ops: Arc<str> = Arc::from("ops");
    let research: Arc<str> = Arc::from("research");
    plan.requests
        .iter()
        .map(|p| {
            let tenant = Some(Arc::clone(match p.tenant {
                PlanTenant::Ops => &ops,
                PlanTenant::Research => &research,
            }));
            let tier = match p.tier {
                PlanTier::Fast => Tier::Fast,
                PlanTier::Quality => Tier::Quality,
            };
            let deadline = p.spent_deadline.then_some(Duration::ZERO);
            if p.nowcast {
                Built::Nowcast(NowcastRequest {
                    background: state(p.seed),
                    forcings: zero_forcings(),
                    observations: Arc::clone(&obs[(p.seed % OBS_SETS as u64) as usize]),
                    schedule: SCHEDULE,
                    n_members: MEMBERS,
                    seed: p.seed,
                    deadline,
                    tenant,
                    tier: Some(tier),
                })
            } else {
                Built::Forecast(ForecastRequest {
                    deadline,
                    tenant,
                    ..forecast_request(p.seed, tier, MIX.forecast_steps)
                })
            }
        })
        .collect()
}

/// What the collector keeps of one response: the members only where a
/// gate compares them later, so memory does not grow with the run.
struct Kept {
    latency: Duration,
    cache_hits: usize,
    computed_steps: usize,
    members: Option<Vec<Vec<Tensor>>>,
}

/// What the collector learned about one sent request.
struct Sent {
    sent: Duration,
    submit: Duration,
    result: Result<Kept, ServeError>,
}

/// The seeded sample of served originals re-run as direct calls after
/// timing: `(request, nowcast, tier)`.
fn verify_sample(seed: u64, plan: &MixedPlan) -> Vec<(usize, bool, PlanTier)> {
    let mut rng = plan::rng(seed ^ 0x5A3F);
    let mut out = Vec::new();
    for (nowcast, tier, take) in [
        (false, PlanTier::Quality, 1),
        (false, PlanTier::Fast, 2),
        (true, PlanTier::Quality, 1),
        (true, PlanTier::Fast, 1),
    ] {
        let mut pool: Vec<usize> = (0..plan.requests.len())
            .filter(|&i| {
                let p = &plan.requests[i];
                p.nowcast == nowcast
                    && p.tier == tier
                    && p.replay_of.is_none()
                    && p.outcome == Outcome::Served
            })
            .collect();
        rng.shuffle(&mut pool);
        out.extend(pool.into_iter().take(take).map(|i| (i, nowcast, tier)));
    }
    out
}

/// The open-loop mix: Poisson arrivals at a fixed rate from one generator
/// thread; one collector thread resolves every ticket. It exercises what
/// the closed loop bypasses (tiers, tenants, quotas, deadline shedding, the
/// rollout cache and assimilation) and reports the per-layer `serve.*`,
/// `sched.*` and `loadgen.*` metrics of `serve_capacity`'s traced run.
/// Its fast-tier latency is a per-layer metric, not an end-to-end one:
/// requests of ~20 ms inflate two- to fourfold when the hypervisor steals
/// 5–25% of the machine's CPU time, too much to hold within a bound.
pub fn mixed(ctx: &RunCtx, weights: &SavedWeights) -> Result<WorkloadRun, String> {
    let tracer = &ctx.tracer;
    let mut ledger = Ledger::default();
    let span = Duration::from_secs_f64(ctx.seconds);
    let plan = mixed_plan(&MIX, span, ctx.seed);
    let obs = observation_sets(ctx.seed);
    let cfg = ServeConfig {
        quota: Some(QuotaConfig {
            default: TenantPolicy::default(),
            overrides: vec![
                (
                    Arc::from("ops"),
                    TenantPolicy {
                        weight: 4.0,
                        rate: 0.0,
                        burst: 0.0,
                    },
                ),
                // A negligible refill: the bucket only drains, so which
                // requests it refuses is fixed by the plan.
                (
                    Arc::from("research"),
                    TenantPolicy {
                        weight: 1.0,
                        rate: 1e-9,
                        burst: plan.research_burst as f64,
                    },
                ),
            ],
        }),
        ..ServeConfig::default()
    };
    let warm = [
        forecast_request(WARM_SEED, Tier::Fast, MIX.forecast_steps),
        forecast_request(WARM_SEED + 1, Tier::Quality, MIX.forecast_steps),
    ];
    let (served, _) = set_up(weights, &cfg, &warm, tracer, &mut ledger)?;
    let built = build(&plan, &obs);
    let n = built.len();
    let sample = verify_sample(ctx.seed, &plan);
    let mut keep = vec![false; n];
    for (i, p) in plan.requests.iter().enumerate() {
        if let Some(j) = p.replay_of {
            keep[i] = true;
            keep[j] = true;
        }
    }
    for &(i, _, _) in &sample {
        keep[i] = true;
    }

    let engine = &served.engine;
    let (tx, rx) = mpsc::channel::<(usize, Duration, Duration, Result<Ticket, ServeError>)>();
    let start = Instant::now() + Duration::from_millis(20);
    let mut results: Vec<Option<Sent>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let plan = &plan;
        let gen = s.spawn(move || {
            for (i, req) in built.into_iter().enumerate() {
                let due = start + plan.requests[i].at;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let res = {
                    let _span = tracer
                        .span(SpanCategory::Admission, 1)
                        .label("serve.submit")
                        .step(i as u64);
                    match req {
                        Built::Forecast(r) => engine.submit(r),
                        Built::Nowcast(r) => engine.submit_nowcast(r),
                    }
                };
                let submit = sent.elapsed();
                if tx.send((i, sent - start, submit, res)).is_err() {
                    break;
                }
            }
        });
        for (i, sent, submit, res) in rx.iter() {
            let waited = {
                let _span = tracer
                    .span(SpanCategory::Forward, 0)
                    .label("serve.wait")
                    .step(i as u64);
                res.and_then(|t| t.wait())
            };
            let result = waited.map(|r| Kept {
                latency: r.latency,
                cache_hits: r.cache_hits,
                computed_steps: r.computed_steps,
                members: keep[i].then_some(r.forecast.members),
            });
            results[i] = Some(Sent {
                sent,
                submit,
                result,
            });
        }
        gen.join().expect("generator thread panicked");
    });

    // Gate every request against its designed outcome, and collect the
    // latency series from the scheduled send time.
    // Fast-tier originals, one series per [kind][tenant]; every fast-tier
    // percentile pools the raw samples of the series it covers.
    let mut fast: [[Vec<f64>; 2]; 2] = Default::default();
    let mut quality = Vec::new();
    let mut replay = Vec::new();
    let mut submit_us = Vec::new();
    let mut lag = Vec::new();
    let mut slo_met = 0usize;
    let (mut shed, mut denied) = (0usize, 0usize);
    for (i, (p, r)) in plan.requests.iter().zip(&results).enumerate() {
        let Some(r) = r else {
            ledger.check(false, || format!("request {i} was never sent"));
            continue;
        };
        submit_us.push(r.submit.as_secs_f64() * 1e6);
        let late = Lateness::new(
            p.at,
            r.sent,
            r.result.as_ref().map_or(Duration::ZERO, |x| x.latency),
        );
        lag.push(ms(late.lag));
        match (&r.result, p.outcome) {
            (Ok(_), Outcome::Served) => {
                ledger.op();
                let lat = ms(late.latency);
                let limit = if p.tier == PlanTier::Fast {
                    FAST_LIMIT
                } else {
                    QUALITY_LIMIT
                };
                if late.latency <= limit {
                    slo_met += 1;
                }
                if p.replay_of.is_some() {
                    replay.push(lat);
                } else if p.tier == PlanTier::Fast {
                    fast[p.nowcast as usize][(p.tenant == PlanTenant::Research) as usize].push(lat);
                } else {
                    quality.push(lat);
                }
            }
            (Err(ServeError::DeadlineExceeded { .. }), Outcome::Shed) => {
                ledger.op();
                shed += 1;
            }
            (Err(ServeError::QuotaExceeded { .. }), Outcome::QuotaDenied) => {
                ledger.op();
                denied += 1;
            }
            (res, want) => ledger.check(false, || {
                format!(
                    "request {i}: designed {want:?}, got {:?}",
                    res.as_ref().map(|x| x.latency)
                )
            }),
        }
    }

    // Every replay is bitwise equal to its original.
    for (i, p) in plan.requests.iter().enumerate() {
        let Some(j) = p.replay_of else { continue };
        let got = |k: usize| {
            results[k]
                .as_ref()
                .and_then(|r| r.result.as_ref().ok()?.members.as_ref())
        };
        if let (Some(a), Some(b)) = (got(i), got(j)) {
            ledger.check(same_members(a, b), || {
                format!("replay {i} differs from its original {j}")
            });
        }
    }

    // A seeded sample of served originals equals direct calls.
    verify_mixed_sample(&sample, &plan, &results, &obs, &served, tracer, &mut ledger);
    let report = shut_down(served, &mut ledger);
    ledger.check(
        report.shed as usize == plan.count(Outcome::Shed) && shed == report.shed as usize,
        || {
            format!(
                "shed {} (engine) / {shed} (typed errors) != designed {}",
                report.shed,
                plan.count(Outcome::Shed)
            )
        },
    );
    ledger.check(
        report.quota_denied as usize == plan.count(Outcome::QuotaDenied)
            && denied == report.quota_denied as usize,
        || {
            format!(
                "quota denied {} (engine) / {denied} (typed errors) != designed {}",
                report.quota_denied,
                plan.count(Outcome::QuotaDenied)
            )
        },
    );

    let hits: usize = results
        .iter()
        .flatten()
        .filter_map(|r| r.result.as_ref().ok())
        .map(|r| r.cache_hits)
        .sum();
    let computed: usize = results
        .iter()
        .flatten()
        .filter_map(|r| r.result.as_ref().ok())
        .map(|r| r.computed_steps)
        .sum();
    eprintln!(
        "sent {n}: fast {} / quality {} / replay {} latencies, {shed} shed, {denied} quota-denied",
        fast.iter().flatten().map(Vec::len).sum::<usize>(),
        quality.len(),
        replay.len()
    );
    let p50 = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    let mut m = Metrics::default();
    let all_fast: Vec<&[f64]> = fast.iter().flatten().map(Vec::as_slice).collect();
    let tenant_p50 = |t: usize| stats::pooled_percentile(&[&fast[0][t], &fast[1][t]], 50.0);
    m.set(
        "loadgen.fast_p50_ms",
        stats::pooled_percentile(&all_fast, 50.0).unwrap_or(0.0),
    );
    m.set(
        "loadgen.fast_p90_ms",
        tail_percentile(&all_fast, 90.0, "fast-tier latency")?,
    );
    m.set("serve.submit_us_p50", p50(&submit_us));
    m.set(
        "serve.submit_us_p90",
        stats::percentile(&submit_us, 90.0).unwrap_or(0.0),
    );
    m.set(
        "serve.cache_hit_share",
        hits as f64 / (hits + computed).max(1) as f64,
    );
    m.set("serve.member_steps_computed", computed as f64);
    m.set("sched.shed", shed as f64);
    m.set("sched.quota_denied", denied as f64);
    let ratio = tenant_p50(1).zip(tenant_p50(0)).map_or(0.0, |(r, o)| r / o);
    m.set("sched.tenant_p50_ratio", ratio);
    m.set("loadgen.sent", n as f64);
    m.set(
        "loadgen.lag_p90_ms",
        stats::percentile(&lag, 90.0).unwrap_or(0.0),
    );
    m.set("loadgen.quality_p50_ms", p50(&quality));
    m.set("loadgen.replay_p50_ms", p50(&replay));
    m.set("loadgen.slo_met_share", slo_met as f64 / n.max(1) as f64);
    Ok(WorkloadRun {
        ledger,
        metrics: m,
        split: None,
    })
}

/// Re-run the sampled served originals as direct calls:
/// `Forecaster::ensemble`, `ConsistencyStudent::ensemble`,
/// `assim::nowcast_ensemble` and `assim::nowcast_member_fast`.
fn verify_mixed_sample(
    sample: &[(usize, bool, PlanTier)],
    plan: &MixedPlan,
    results: &[Option<Sent>],
    obs: &[Arc<ObservationSet>],
    served: &Served,
    tracer: &Tracer,
    ledger: &mut Ledger,
) {
    let forcing = Tensor::zeros(&[tokens_channels().0, serve_config().forcing_channels]);
    let steps = MIX.forecast_steps;
    for &(i, nowcast, tier) in sample {
        let p = &plan.requests[i];
        let Some(got) = results[i]
            .as_ref()
            .and_then(|r| r.result.as_ref().ok()?.members.as_ref())
        else {
            ledger.check(false, || {
                format!("sampled request {i} has no response to verify")
            });
            continue;
        };
        let init = state(p.seed);
        let o = &obs[(p.seed % OBS_SETS as u64) as usize];
        let direct: Vec<Vec<Tensor>> = {
            let _span = tracer
                .span(SpanCategory::Forward, 0)
                .label("verify.direct")
                .step(i as u64);
            match (nowcast, tier) {
                (false, PlanTier::Quality) => {
                    served
                        .fc
                        .ensemble(&init, &|_| forcing.clone(), steps, MEMBERS, p.seed)
                        .members
                }
                (false, PlanTier::Fast) => {
                    served
                        .student
                        .ensemble(&init, &|_| forcing.clone(), steps, MEMBERS, p.seed)
                }
                (true, PlanTier::Quality) => nowcast_ensemble(
                    &served.fc,
                    &Arc::new(init),
                    &forcing,
                    o,
                    SCHEDULE,
                    MEMBERS,
                    p.seed,
                )
                .members
                .into_iter()
                .map(|x| vec![x])
                .collect(),
                (true, PlanTier::Fast) => {
                    let bg = Arc::new(init);
                    (0..MEMBERS)
                        .map(|m| {
                            vec![nowcast_member_fast(
                                &served.student,
                                &bg,
                                &forcing,
                                o,
                                SCHEDULE,
                                p.seed,
                                m,
                            )]
                        })
                        .collect()
                }
            }
        };
        ledger.check(same_members(got, &direct), || {
            format!("request {i} ({tier:?}, nowcast={nowcast}): served result differs from the direct call")
        });
    }
}
