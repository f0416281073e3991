//! Seeded workload plans: everything a run sends is decided here, from the
//! seed alone, before the engine starts. The engine only ever sees the
//! generated inputs.

use aeris_tensor::Rng;
use std::time::Duration;

/// The generator of a plan's decisions for `seed`: the repository's own
/// `Rng` on a key of its own, apart from the streams that fill tensors.
pub fn rng(seed: u64) -> Rng {
    Rng::seed_from(seed ^ 0x0E2E_BE7C_0000_0001)
}

/// `n` arrival offsets of a Poisson process on `[0, span)` conditioned on
/// its count: sorted uniform points. Fixing the count keeps the offered load
/// identical across seeds while the spacing stays memoryless.
pub fn arrival_offsets(n: usize, span: Duration, rng: &mut Rng) -> Vec<Duration> {
    let mut secs: Vec<f64> = (0..n)
        .map(|_| rng.next_f64() * span.as_secs_f64())
        .collect();
    secs.sort_by(f64::total_cmp);
    secs.into_iter().map(Duration::from_secs_f64).collect()
}

/// `n` labels with exact shares: `counts[k]` copies of label `k`, the rest
/// `fill`, shuffled. Exact shares make designed counts (shed, denied)
/// identical in expectation and tight across seeds.
pub fn stratified<T: Copy>(n: usize, counts: &[(T, usize)], fill: T, rng: &mut Rng) -> Vec<T> {
    let mut out = Vec::with_capacity(n);
    for &(label, k) in counts {
        out.extend(std::iter::repeat_n(label, k));
    }
    out.truncate(n);
    out.resize(n, fill);
    rng.shuffle(&mut out);
    out
}

/// Open-loop lateness accounting for one request: the generator was due to
/// send at `scheduled`, actually sent at `sent`, and the engine reported
/// `service` from submission to completion. Latency counts from the
/// scheduled time, so a generator stall is charged to every request it
/// delays.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Lateness {
    /// How late the generator sent (zero if early).
    pub lag: Duration,
    /// Scheduled-send-to-completion latency.
    pub latency: Duration,
}

impl Lateness {
    pub fn new(scheduled: Duration, sent: Duration, service: Duration) -> Self {
        let lag = sent.saturating_sub(scheduled);
        Lateness {
            lag,
            latency: lag + service,
        }
    }
}

/// Serving tier of a planned request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanTier {
    Fast,
    Quality,
}

/// Tenant of a planned request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanTenant {
    Ops,
    Research,
}

/// What the plan expects the engine to do with a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Served,
    /// Carries a spent deadline: refused at admission.
    Shed,
    /// The research tenant's token bucket is empty: refused at admission.
    QuotaDenied,
}

/// One request of the open-loop mix.
#[derive(Clone, Debug)]
pub struct Planned {
    /// Due time, from the start of the timed window.
    pub at: Duration,
    pub nowcast: bool,
    pub tier: PlanTier,
    pub tenant: PlanTenant,
    pub spent_deadline: bool,
    /// Seed of the request's inputs and noise; replays share their
    /// original's.
    pub seed: u64,
    /// Index of the request this one replays exactly.
    pub replay_of: Option<usize>,
    pub outcome: Outcome,
}

impl Planned {
    /// Member-steps the request costs against a token bucket.
    pub fn cost(&self, members: usize, steps: usize) -> usize {
        if self.nowcast {
            members
        } else {
            members * steps
        }
    }
}

/// Shape of the open-loop mix.
#[derive(Clone, Copy, Debug)]
pub struct MixSpec {
    /// Offered load.
    pub rate_per_s: f64,
    pub members: usize,
    pub forecast_steps: usize,
    /// Every `quality_one_in`-th arrival (from a seeded phase) is pinned to
    /// the quality tier. Spacing them in arrival order keeps the share of
    /// time the quality tier competes for the cores steady across seeds.
    pub quality_one_in: usize,
    /// One request in `replay_one_in` replays an earlier one.
    pub replay_one_in: usize,
    /// A replay copies a request at least this many requests earlier.
    pub replay_min_gap: usize,
    /// One request in `spent_one_in` carries a spent deadline.
    pub spent_one_in: usize,
    /// Share of the research tenant's work its token bucket admits.
    pub research_budget_share: f64,
}

/// The full plan of one open-loop run.
#[derive(Clone, Debug)]
pub struct MixedPlan {
    pub requests: Vec<Planned>,
    /// Token-bucket capacity granted to the research tenant (member-steps;
    /// the refill rate is negligible, so the bucket only drains).
    pub research_burst: usize,
}

impl MixedPlan {
    pub fn count(&self, outcome: Outcome) -> usize {
        self.requests
            .iter()
            .filter(|r| r.outcome == outcome)
            .count()
    }
}

/// Generate the open-loop plan for a window of `span`.
pub fn mixed_plan(spec: &MixSpec, span: Duration, seed: u64) -> MixedPlan {
    let mut rng = rng(seed);
    let n = (spec.rate_per_s * span.as_secs_f64()).round() as usize;
    let offsets = arrival_offsets(n, span, &mut rng);
    let phase = rng.below(spec.quality_one_in);
    let tiers: Vec<PlanTier> = (0..n)
        .map(|i| {
            if i % spec.quality_one_in == phase {
                PlanTier::Quality
            } else {
                PlanTier::Fast
            }
        })
        .collect();
    let nowcast = stratified(n, &[(true, n / 2)], false, &mut rng);
    let tenants = stratified(
        n,
        &[(PlanTenant::Research, n / 2)],
        PlanTenant::Ops,
        &mut rng,
    );
    let spent = stratified(n, &[(true, n / spec.spent_one_in)], false, &mut rng);
    let replay_draw = stratified(n, &[(true, n / spec.replay_one_in)], false, &mut rng);

    let mut requests: Vec<Planned> = Vec::with_capacity(n);
    for i in 0..n {
        let mut req = Planned {
            at: offsets[i],
            nowcast: nowcast[i],
            tier: tiers[i],
            tenant: tenants[i],
            spent_deadline: spent[i],
            seed: rng.next_u64() >> 1,
            replay_of: None,
            outcome: if spent[i] {
                Outcome::Shed
            } else {
                Outcome::Served
            },
        };
        // A replay copies an earlier original without a spent deadline (one
        // whose original the quota refuses is unlinked below). Replays take
        // fast slots only, so quality-tier compute stays on its evenly
        // spaced slots.
        if replay_draw[i] && !spent[i] && tiers[i] == PlanTier::Fast && i >= spec.replay_min_gap {
            let eligible: Vec<usize> = (0..=i - spec.replay_min_gap)
                .filter(|&j| requests[j].replay_of.is_none() && !requests[j].spent_deadline)
                .collect();
            if !eligible.is_empty() {
                let j = eligible[rng.below(eligible.len())];
                let orig = &requests[j];
                req = Planned {
                    at: offsets[i],
                    replay_of: Some(j),
                    outcome: Outcome::Served,
                    spent_deadline: false,
                    ..orig.clone()
                };
            }
        }
        requests.push(req);
    }

    // The research bucket admits a fixed share of the tenant's total work;
    // walking the requests in send order marks the ones it refuses. The
    // bucket is charged before deadline checks, so spent requests drain it.
    let research_work: usize = requests
        .iter()
        .filter(|r| r.tenant == PlanTenant::Research)
        .map(|r| r.cost(spec.members, spec.forecast_steps))
        .sum();
    let research_burst = ((research_work as f64) * spec.research_budget_share).round() as usize;
    let mut tokens = research_burst;
    let mut denied = vec![false; n];
    for (i, r) in requests.iter_mut().enumerate() {
        if r.tenant != PlanTenant::Research {
            continue;
        }
        let cost = r.cost(spec.members, spec.forecast_steps);
        if tokens >= cost {
            tokens -= cost;
        } else {
            r.outcome = Outcome::QuotaDenied;
            denied[i] = true;
        }
    }
    // A replay whose original was refused has nothing cached to replay:
    // it stays in the mix as an ordinary (recomputed) request.
    for r in &mut requests {
        if r.replay_of.is_some_and(|j| denied[j]) {
            r.replay_of = None;
        }
    }
    MixedPlan {
        requests,
        research_burst,
    }
}
