//! The serving engine: admission control, two-tier scheduling, worker
//! pools, request lifecycle, and the ops surface.
//!
//! ## Lifecycle of a request
//!
//! Forecasts and nowcasts take one path: a nowcast is a one-step forecast
//! carrying an assimilation payload.
//!
//! 1. **Quota** ([`ServeEngine::submit`]): if the engine has per-tenant
//!    quotas, the tenant's token bucket must cover the request's work
//!    (member-steps), else [`ServeError::QuotaExceeded`] — the one check a
//!    tenant cannot scheduling-game its way around.
//! 2. **Admission**: the request is validated against the engine's model
//!    config, then admitted iff fewer than `queue_capacity` requests are
//!    outstanding (else [`ServeError::QueueFull`] — fail fast, never queue
//!    unboundedly).
//! 3. **Routing**: the [`TierRouter`] classifies the request onto the
//!    **quality** tier (full sampler) or the **fast** tier (distilled
//!    one-step student), explicitly or from deadline slack against the
//!    measured quality-tier service time. Engines without a student serve
//!    everything on quality.
//! 4. **Prefix reuse**: each ensemble member consults the rollout cache for
//!    the longest contiguous prefix of its trajectory (state + RNG snapshot
//!    per step). Fully-cached members complete at admission without touching
//!    a worker pool. Fast- and quality-tier entries live in disjoint
//!    content-addressed namespaces (the tier is folded into the cache key's
//!    aux word) because they are *different numbers*.
//! 5. **Dispatch**: remaining members become member-step tasks in the
//!    tier's [`DispatchQueue`] — earliest-deadline-first for deadlined
//!    work, weighted fair queueing per tenant for the rest. Workers coalesce
//!    shape-compatible tasks in priority order into one batched model
//!    evaluation per round, feed the per-tier [`ServiceEstimator`] with the
//!    measured cost, shed tasks whose estimated completion already overruns
//!    their deadline, then requeue or finish each member.
//! 6. **Completion**: the last finishing member resolves the client's
//!    [`Ticket`]; per-request latency, tier provenance, and cache
//!    accounting ride along.
//!
//! Every transition on the way (submitted, quota-denied, rejected,
//! admitted, completed, shed) is counted once, in one ledger keyed by
//! (tenant, tier, kind, outcome); the report, the status snapshot and the
//! live counters are all read off it.
//!
//! ## Determinism
//!
//! Member `m` of a request draws from the private stream
//! [`member_rng`]`(seed, m)` — the same discipline as
//! [`Forecaster::ensemble`] — and a batched step evaluates each task with
//! its own RNG. Quality-tier responses are therefore bitwise identical to a
//! direct `ensemble` call, fast-tier responses to a direct
//! `ConsistencyStudent::ensemble` call, both invariant under worker count,
//! batch composition, scheduling order, and cache hits. The scheduler moves
//! *time*, never *numbers*.
//!
//! [`Forecaster::ensemble`]: aeris_core::Forecaster::ensemble

use crate::api::{
    fnv_init, fnv_u64, ForecastRequest, ForecastResponse, Forcings, NowcastRequest, ServeConfig,
    ServeError,
};
use crate::cache::{content_hash, CacheKey, CacheStats, RolloutCache};
use aeris_assim::{relax_toward_observations, GuidanceSchedule, ObsGuidance, ObservationSet};
use aeris_core::forecast::member_rng;
use aeris_core::{ConsistencyStudent, EnsembleForecast, Forecaster, GuidedStepJob, StepJob};
use aeris_diffusion::Guidance;
use aeris_obs::{
    CacheStatus, MetricSeries, SloConfig, SloState, SloTracker, SloVerdict, SpanCategory,
    StatusReport, TenantStatus, TierStatus, Tracer,
};
use aeris_sched::{
    DispatchQueue, QueueMetrics, QuotaTable, ServiceEstimator, TaskMeta, Tier, TierRouter,
};
use aeris_swipe::{EventLog, EventRecord};
use aeris_tensor::{Rng, Tensor};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Actor id used for events recorded on the submitting client's thread
/// (workers use their pool index; fast-tier workers follow the quality
/// workers' indices).
pub const CLIENT_ACTOR: usize = usize::MAX;

/// Folded into a fast-tier request's cache-key aux word: the student's
/// trajectories are different numbers from the sampler's, so the two tiers
/// must never alias cache entries.
const FAST_AUX: u64 = 0xFA57_7153_AE51_0001;

/// What a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// A multi-step ensemble rollout ([`ServeEngine::submit`]).
    Forecast,
    /// A one-step analysis guided by observations
    /// ([`ServeEngine::submit_nowcast`]).
    Nowcast,
}

/// One serving-related occurrence, recorded through the reusable
/// [`EventLog`] shared with the SWiPe runtime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeEvent {
    /// A request passed validation and admission control.
    Admitted { req: u64, kind: RequestKind, members: usize, steps: usize },
    /// The router assigned an admitted request to a serving tier.
    Routed { req: u64, tier: Tier },
    /// Admission control refused a request (queue at capacity).
    RejectedQueueFull { capacity: usize },
    /// Admission control refused a request (tenant token bucket empty).
    RejectedQuota { tenant: String },
    /// A request arrived after shutdown began.
    RejectedShutdown,
    /// One batched model evaluation: `size` member-steps spanning
    /// `requests` distinct requests, on `tier`.
    BatchExecuted { size: usize, requests: usize, tier: Tier },
    /// A member reused a cached rollout prefix of `steps` steps.
    PrefixReused { req: u64, member: usize, steps: usize },
    /// A request was shed for deadline reasons: its budget expired, or the
    /// service-time estimator projected its remaining chain past the
    /// deadline at dispatch.
    DeadlineExceeded { req: u64 },
    /// A request completed successfully.
    Completed { req: u64, latency_ms: u64, cache_hits: usize, computed_steps: usize },
    /// The engine drained and stopped after serving `completed` requests.
    Drained { completed: u64 },
}

/// The engine's operational metric series (shared handles; cloning is cheap).
/// The series are registered with the engine's [`Tracer`], so
/// `tracer.prometheus_text()` exports them alongside span totals and
/// counters — one exporter path for trainer, server, and benches.
#[derive(Clone, Default)]
pub struct ServeMetrics {
    /// Per-request submission-to-completion latency for quality-tier
    /// forecast requests, milliseconds.
    pub latency_ms: MetricSeries,
    /// Per-request submission-to-completion latency for quality-tier
    /// nowcast (assimilation) requests, milliseconds — the two traffic
    /// shapes have very different profiles (long rollouts vs one guided step
    /// under tight deadlines), so they get separate series.
    pub nowcast_latency_ms: MetricSeries,
    /// Fast-tier forecast latency, milliseconds.
    pub fast_latency_ms: MetricSeries,
    /// Fast-tier nowcast latency, milliseconds.
    pub fast_nowcast_latency_ms: MetricSeries,
    /// Member-steps per executed batch (both tiers).
    pub batch_size: MetricSeries,
    /// Pending member-steps observed by workers after forming each batch.
    pub queue_depth: MetricSeries,
    /// Enqueue-to-dispatch wait of quality-tier member-steps, milliseconds
    /// (recorded by the dispatch queue itself; see
    /// [`aeris_sched::QueueMetrics`]).
    pub queue_wait_ms: MetricSeries,
    /// Fast-tier enqueue-to-dispatch wait, milliseconds.
    pub fast_queue_wait_ms: MetricSeries,
    /// WFQ virtual-time lag of dispatched quality-tier tasks: how far the
    /// fair-share frontier had overtaken a task's finish tag when it ran
    /// (0 for tasks dispatched in pure tag order).
    pub wfq_lag: MetricSeries,
    /// Fast-tier WFQ virtual-time lag.
    pub fast_wfq_lag: MetricSeries,
}

impl ServeMetrics {
    /// Series registered under stable names in `tracer`'s exporter registry.
    fn registered(tracer: &Tracer) -> ServeMetrics {
        ServeMetrics {
            latency_ms: tracer.series("serve_latency_ms"),
            nowcast_latency_ms: tracer.series("serve_nowcast_latency_ms"),
            fast_latency_ms: tracer.series("serve_fast_latency_ms"),
            fast_nowcast_latency_ms: tracer.series("serve_fast_nowcast_latency_ms"),
            batch_size: tracer.series("serve_batch_size"),
            queue_depth: tracer.series("serve_queue_depth"),
            queue_wait_ms: tracer.series("serve_queue_wait_ms"),
            fast_queue_wait_ms: tracer.series("serve_fast_queue_wait_ms"),
            wfq_lag: tracer.series("serve_wfq_lag"),
            fast_wfq_lag: tracer.series("serve_fast_wfq_lag"),
        }
    }

    /// The queue-wait series for one tier.
    fn queue_wait_series(&self, tier: Tier) -> &MetricSeries {
        match tier {
            Tier::Quality => &self.queue_wait_ms,
            Tier::Fast => &self.fast_queue_wait_ms,
        }
    }

    /// The WFQ-lag series for one tier.
    fn wfq_lag_series(&self, tier: Tier) -> &MetricSeries {
        match tier {
            Tier::Quality => &self.wfq_lag,
            Tier::Fast => &self.fast_wfq_lag,
        }
    }

    /// The instrumentation handles handed to one tier's dispatch queue.
    fn queue_metrics(&self, tier: Tier) -> QueueMetrics {
        QueueMetrics {
            wait_ms: self.queue_wait_series(tier).clone(),
            virtual_lag: self.wfq_lag_series(tier).clone(),
        }
    }

    /// The request-latency series for one (tier, kind) traffic class.
    fn latency_series(&self, tier: Tier, kind: RequestKind) -> &MetricSeries {
        match (tier, kind) {
            (Tier::Quality, RequestKind::Forecast) => &self.latency_ms,
            (Tier::Quality, RequestKind::Nowcast) => &self.nowcast_latency_ms,
            (Tier::Fast, RequestKind::Forecast) => &self.fast_latency_ms,
            (Tier::Fast, RequestKind::Nowcast) => &self.fast_nowcast_latency_ms,
        }
    }
}

/// Terminal-state marker plus per-request result assembly.
struct DoneState {
    /// `members[m]` is member `m`'s trajectory once finished.
    members: Vec<Option<Vec<Arc<Tensor>>>>,
    /// Members still in flight.
    remaining: usize,
    /// Member-steps served from cache.
    cache_hits: usize,
    /// Member-steps evaluated by the model.
    computed_steps: usize,
    /// Submission-to-terminal latency (set at completion/failure).
    latency: Duration,
    /// Terminal result; `None` while in flight. Set exactly once.
    result: Option<Result<(), ServeError>>,
}

/// The assimilation payload of a nowcast request: what turns a member-step
/// into a *guided* member-step (quality tier) or adds the post-hoc
/// relaxation (fast tier).
pub(crate) struct NowcastSpec {
    pub obs: Arc<ObservationSet>,
    pub schedule: GuidanceSchedule,
}

/// Shared per-request state: identity, scheduling class, cache addressing,
/// and the slot the client's [`Ticket`] blocks on.
pub(crate) struct RequestState {
    pub id: u64,
    pub init: Arc<Tensor>,
    pub init_hash: u64,
    pub forcings: Forcings,
    pub forcings_key: u64,
    pub steps: usize,
    pub n_members: usize,
    pub seed: u64,
    /// The tier this request was routed to.
    pub tier: Tier,
    /// The tenant it bills to.
    pub tenant: Arc<str>,
    /// `Some` for nowcasts: the observations + guidance schedule.
    pub nowcast: Option<NowcastSpec>,
    /// Cache-key auxiliary component (see [`CacheKey::aux`]): 0 for
    /// quality forecasts and off-schedule quality nowcasts (bitwise-equal
    /// trajectories, so they *should* share entries), the obs ⊕ schedule
    /// digest for guided nowcasts, with [`FAST_AUX`] folded in on the fast
    /// tier (different numbers, disjoint namespace).
    pub aux: u64,
    pub submitted: Instant,
    pub deadline: Option<Instant>,
    done: Mutex<DoneState>,
    done_cv: Condvar,
}

impl RequestState {
    /// The state of an admitted request; `nowcast` is the assimilation
    /// payload of a nowcast, `None` for a forecast.
    fn new(
        id: u64,
        req: ForecastRequest,
        nowcast: Option<NowcastSpec>,
        tier: Tier,
        tenant: Arc<str>,
    ) -> Self {
        // An off schedule is a bitwise 1-step forecast (on either tier), so
        // it keeps the plain aux and shares cache entries with one; active
        // guidance gets its own content-addressed namespace.
        let mut aux = 0;
        if let Some(spec) = nowcast.as_ref().filter(|s| !s.schedule.is_off()) {
            aux = fnv_init();
            fnv_u64(&mut aux, spec.obs.digest());
            fnv_u64(&mut aux, spec.schedule.digest());
        }
        if tier == Tier::Fast {
            let mut h = fnv_init();
            fnv_u64(&mut h, aux);
            fnv_u64(&mut h, FAST_AUX);
            aux = h;
        }
        let submitted = Instant::now();
        RequestState {
            id,
            init_hash: content_hash(&req.init),
            init: Arc::new(req.init),
            forcings_key: req.forcings.content_key(),
            forcings: req.forcings,
            steps: req.steps,
            n_members: req.n_members,
            seed: req.seed,
            tier,
            tenant,
            nowcast,
            aux,
            submitted,
            deadline: req.deadline.map(|d| submitted + d),
            done: Mutex::new(DoneState {
                members: vec![None; req.n_members],
                remaining: req.n_members,
                cache_hits: 0,
                computed_steps: 0,
                latency: Duration::ZERO,
                result: None,
            }),
            done_cv: Condvar::new(),
        }
    }

    fn kind(&self) -> RequestKind {
        if self.nowcast.is_some() {
            RequestKind::Nowcast
        } else {
            RequestKind::Forecast
        }
    }

    /// Whether the request already resolved (completed or failed).
    fn terminal(&self) -> bool {
        self.done.lock().result.is_some()
    }
}

/// One in-flight ensemble member: the unit the dispatch queue schedules.
pub(crate) struct MemberTask {
    pub req: Arc<RequestState>,
    pub member: usize,
    /// Steps completed so far (`x` is the state after `next_step` steps).
    pub next_step: usize,
    pub x: Arc<Tensor>,
    pub rng: Rng,
    /// Trajectory states `1..=next_step`.
    pub states: Vec<Arc<Tensor>>,
    /// Steps of this member served from cache.
    pub cache_hits: usize,
}

/// A claim on a submitted request; [`Ticket::wait`] blocks for the result.
pub struct Ticket {
    req: Arc<RequestState>,
}

impl Ticket {
    /// The engine-assigned request id.
    pub fn id(&self) -> u64 {
        self.req.id
    }

    /// The tier the request was routed to.
    pub fn tier(&self) -> Tier {
        self.req.tier
    }

    fn assemble(&self, done: &DoneState) -> Result<ForecastResponse, ServeError> {
        match done.result.clone().expect("caller checked terminal state") {
            Err(e) => Err(e),
            Ok(()) => {
                let members: Vec<Vec<Tensor>> = done
                    .members
                    .iter()
                    .map(|m| {
                        m.as_ref()
                            .expect("all members present on success")
                            .iter()
                            .map(|s| (**s).clone())
                            .collect()
                    })
                    .collect();
                Ok(ForecastResponse {
                    id: self.req.id,
                    forecast: EnsembleForecast { members },
                    cache_hits: done.cache_hits,
                    computed_steps: done.computed_steps,
                    latency: done.latency,
                    tier: self.req.tier,
                })
            }
        }
    }

    /// Block until the request resolves, then assemble the response.
    pub fn wait(&self) -> Result<ForecastResponse, ServeError> {
        let mut done = self.req.done.lock();
        while done.result.is_none() {
            self.req.done_cv.wait(&mut done);
        }
        self.assemble(&done)
    }

    /// Bounded [`Ticket::wait`]: block at most `timeout` for the result.
    /// On timeout returns [`ServeError::WaitTimeout`] — the request is NOT
    /// cancelled; it keeps running, and the ticket can be waited again (a
    /// later `wait`/`wait_for` can still succeed).
    pub fn wait_for(&self, timeout: Duration) -> Result<ForecastResponse, ServeError> {
        let give_up = Instant::now() + timeout;
        let mut done = self.req.done.lock();
        while done.result.is_none() {
            let now = Instant::now();
            if now >= give_up {
                return Err(ServeError::WaitTimeout { req: self.req.id });
            }
            // The condvar can wake spuriously or on another request's
            // completion broadcast; recompute the remaining budget each
            // pass so the total bound stays `timeout`.
            let _ = self.req.done_cv.wait_for(&mut done, give_up - now);
        }
        self.assemble(&done)
    }
}

/// Per-tier and per-tenant objective trackers (present iff
/// [`ServeConfig::slo`] is set). Tier trackers are fixed at launch; tenant
/// trackers materialize on each tenant's first observed outcome.
struct SloBook {
    cfg: SloConfig,
    /// Indexed by [`Tier::index`].
    tiers: [SloTracker; 2],
    tenants: Mutex<HashMap<Arc<str>, SloTracker>>,
}

impl SloBook {
    fn new(cfg: SloConfig) -> Self {
        SloBook {
            tiers: [SloTracker::new(cfg.clone()), SloTracker::new(cfg.clone())],
            tenants: Mutex::new(HashMap::new()),
            cfg,
        }
    }

    /// Record one request outcome on its tier's and its tenant's tracker.
    fn observe(&self, tier: Tier, tenant: &Arc<str>, good: bool) {
        self.tiers[tier.index()].observe(good);
        self.tenants
            .lock()
            .entry(Arc::clone(tenant))
            .or_insert_with(|| SloTracker::new(self.cfg.clone()))
            .observe(good);
    }

    /// The live state of a tenant's tracker, if it saw any outcomes.
    fn tenant_state(&self, tenant: &str) -> Option<SloState> {
        self.tenants.lock().get(tenant).map(|t| t.state())
    }

    /// Final per-tenant states, sorted by tenant name.
    fn tenant_states(&self) -> Vec<(String, SloState)> {
        let mut out: Vec<(String, SloState)> =
            self.tenants.lock().iter().map(|(n, t)| (n.to_string(), t.state())).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// A request transition the ledger counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Outcome {
    /// Passed validation and named its tenant.
    Submitted,
    /// Refused by the tenant's token bucket.
    QuotaDenied,
    /// Refused after the quota check: a bad route or a full queue.
    Rejected,
    /// Passed quota, routing, and admission control.
    Admitted,
    /// Served to completion.
    Completed,
    /// Shed for deadline reasons.
    Shed,
}

/// A ledger row: (tenant, tier, kind, outcome).
type LedgerKey = (Arc<str>, Option<Tier>, RequestKind, Outcome);

/// The engine's one request ledger: a count per (tenant, tier, kind,
/// outcome) — the tier is `None` before routing — plus the SLO trackers
/// that terminal outcomes feed. The report, the status snapshot and the
/// live counters are all derived from it.
struct Ledger {
    counts: Mutex<HashMap<LedgerKey, u64>>,
    /// Present iff [`ServeConfig::slo`] is configured.
    slo: Option<SloBook>,
}

impl Ledger {
    /// Count one transition. A terminal one also feeds the SLO book: a
    /// completion is good iff its `latency` meets the objective, a shed is
    /// bad.
    fn record(
        &self,
        tenant: &Arc<str>,
        tier: Option<Tier>,
        kind: RequestKind,
        outcome: Outcome,
        latency: Option<Duration>,
    ) {
        *self.counts.lock().entry((Arc::clone(tenant), tier, kind, outcome)).or_default() += 1;
        let (Some(slo), Some(tier)) = (&self.slo, tier) else {
            return;
        };
        let good = match outcome {
            Outcome::Completed => {
                latency.is_some_and(|l| l.as_secs_f64() * 1e3 <= slo.cfg.latency_ms)
            }
            Outcome::Shed => false,
            _ => return,
        };
        slo.observe(tier, tenant, good);
    }

    /// Per-tier counters, indexed by [`Tier::index`].
    fn tiers(&self) -> [TierCounts; 2] {
        let mut tiers = [TierCounts::default(); 2];
        for (&(_, tier, kind, outcome), &n) in self.counts.lock().iter() {
            let Some(tier) = tier else { continue };
            let c = &mut tiers[tier.index()];
            match outcome {
                Outcome::Admitted => c.admitted += n,
                Outcome::Completed => {
                    c.completed += n;
                    if kind == RequestKind::Nowcast {
                        c.nowcasts += n;
                    }
                }
                Outcome::Shed => c.shed += n,
                Outcome::Submitted | Outcome::QuotaDenied | Outcome::Rejected => {}
            }
        }
        tiers
    }

    /// Per-tenant counters, sorted by tenant name.
    fn tenants(&self) -> Vec<(String, TenantCounts)> {
        let mut tenants: BTreeMap<Arc<str>, TenantCounts> = BTreeMap::new();
        for ((tenant, _, _, outcome), &n) in self.counts.lock().iter() {
            let c = tenants.entry(Arc::clone(tenant)).or_default();
            *match outcome {
                Outcome::Submitted => &mut c.submitted,
                Outcome::QuotaDenied => &mut c.quota_denied,
                Outcome::Rejected => &mut c.rejected,
                Outcome::Admitted => &mut c.admitted,
                Outcome::Completed => &mut c.completed,
                Outcome::Shed => &mut c.shed,
            } += n;
        }
        tenants.into_iter().map(|(name, c)| (name.to_string(), c)).collect()
    }

    /// The sum of one per-tier counter over both tiers.
    fn total(&self, counter: fn(&TierCounts) -> u64) -> u64 {
        self.tiers().iter().map(counter).sum()
    }
}

/// Everything the workers and the submitting threads share.
struct EngineShared {
    forecaster: Arc<Forecaster>,
    student: Option<Arc<ConsistencyStudent>>,
    /// One dispatch queue per tier, indexed by [`Tier::index`].
    queues: [DispatchQueue<MemberTask>; 2],
    router: TierRouter,
    estimator: ServiceEstimator,
    quotas: Option<QuotaTable>,
    default_tenant: Arc<str>,
    cfg: ServeConfig,
    cache: RolloutCache,
    events: EventLog<ServeEvent>,
    metrics: ServeMetrics,
    tracer: Tracer,
    accepting: AtomicBool,
    outstanding: Mutex<usize>,
    drained: Condvar,
    next_id: AtomicU64,
    ledger: Ledger,
}

impl EngineShared {
    fn release_outstanding(&self) {
        let mut g = self.outstanding.lock();
        *g -= 1;
        if *g == 0 {
            self.drained.notify_all();
        }
    }

    fn tenant_weight(&self, tenant: &str) -> f64 {
        self.quotas.as_ref().map_or(1.0, |q| q.weight(tenant))
    }

    /// Scheduling metadata for a member task: the deadline (EDF class), the
    /// tenant + WFQ weight, the member's *remaining* chain length as cost,
    /// and the state shape as the batch-compatibility key.
    fn task_meta(&self, task: &MemberTask) -> TaskMeta {
        let req = &task.req;
        let shape = task.x.shape();
        let mut sh = fnv_init();
        for &d in shape {
            fnv_u64(&mut sh, d as u64);
        }
        TaskMeta {
            deadline: req.deadline,
            tenant: Arc::clone(&req.tenant),
            weight: self.tenant_weight(&req.tenant),
            cost: (req.steps - task.next_step) as f64,
            shape: sh,
        }
    }

    /// Shed a request for deadline reasons (first terminal transition
    /// wins) and return the error its client sees.
    fn shed(&self, req: &Arc<RequestState>, actor: usize) -> ServeError {
        let err = ServeError::DeadlineExceeded { req: req.id };
        {
            let mut done = req.done.lock();
            if done.result.is_some() {
                return err;
            }
            done.latency = req.submitted.elapsed();
            done.result = Some(Err(err.clone()));
            // Counted before the client wakes: a resolved ticket is always
            // in the ledger.
            self.ledger.record(&req.tenant, Some(req.tier), req.kind(), Outcome::Shed, None);
            req.done_cv.notify_all();
        }
        self.events.record(actor, ServeEvent::DeadlineExceeded { req: req.id });
        self.release_outstanding();
        err
    }

    /// Deliver a finished member; the last one completes the request.
    fn finish_member(&self, task: MemberTask, actor: usize) {
        let req = task.req;
        let event = {
            let mut done = req.done.lock();
            if done.result.is_some() {
                return; // request already failed; drop the member quietly
            }
            done.members[task.member] = Some(task.states);
            done.remaining -= 1;
            done.cache_hits += task.cache_hits;
            done.computed_steps += req.steps - task.cache_hits;
            if done.remaining > 0 {
                return;
            }
            let latency = req.submitted.elapsed();
            done.latency = latency;
            done.result = Some(Ok(()));
            let kind = req.kind();
            self.metrics.latency_series(req.tier, kind).record(latency.as_secs_f64() * 1e3);
            let tier = Some(req.tier);
            self.ledger.record(&req.tenant, tier, kind, Outcome::Completed, Some(latency));
            req.done_cv.notify_all();
            ServeEvent::Completed {
                req: req.id,
                latency_ms: latency.as_millis() as u64,
                cache_hits: done.cache_hits,
                computed_steps: done.computed_steps,
            }
        };
        self.events.record(actor, event);
        self.release_outstanding();
    }

    fn cache_key(&self, req: &RequestState, member: usize, step: usize) -> CacheKey {
        CacheKey {
            init: req.init_hash,
            forcings: req.forcings_key,
            seed: req.seed,
            member: member as u64,
            step: step as u32,
            aux: req.aux,
        }
    }

    fn total_queue_depth(&self) -> usize {
        self.queues.iter().map(|q| q.depth()).sum()
    }
}

fn worker_loop(shared: Arc<EngineShared>, tier: Tier, actor: usize) {
    let tokens = shared.forecaster.model.cfg.tokens();
    let queue = &shared.queues[tier.index()];
    loop {
        // The assembly span covers the blocking wait for work: its duration
        // is the dispatcher's gather window plus any idle time, which is
        // exactly the "why is the worker not forecasting" question.
        let batch = {
            let _asm =
                shared.tracer.span(SpanCategory::BatchAssembly, actor).label(tier.name());
            match queue.next_batch(shared.cfg.max_batch, shared.cfg.max_wait) {
                Some(b) => b,
                None => break,
            }
        };
        shared.metrics.queue_depth.record(shared.total_queue_depth() as f64);
        // Shed tasks of already-resolved requests, expire deadlines, and —
        // once the tier's service-time estimate is warm — shed *doomed*
        // requests whose remaining chain is projected past the deadline:
        // better to fail them now than to burn model evaluations on work
        // that cannot arrive in time.
        let now = Instant::now();
        let per_unit = shared.estimator.per_unit(tier);
        // Error-budget-aware shedding: the hotter the tier's burn rate, the
        // more pessimistically the doom check projects remaining service
        // time, so borderline requests are shed earlier and the freed
        // capacity protects the work that can still meet its deadline.
        // Time-only policy — it moves *which* requests get shed, never the
        // numbers of the ones that complete.
        let doom_safety = shared.ledger.slo.as_ref().map_or(1.0, |slo| {
            match slo.tiers[tier.index()].verdict() {
                SloVerdict::Ok => 1.0,
                SloVerdict::Warn => 1.1,
                SloVerdict::Page => 1.25,
            }
        });
        let mut live: Vec<MemberTask> = Vec::with_capacity(batch.len());
        for task in batch {
            if task.req.terminal() {
                continue;
            }
            if let Some(dl) = task.req.deadline {
                let doomed = now >= dl
                    || per_unit.is_some_and(|per| {
                        let remaining = (task.req.steps - task.next_step) as f64;
                        now + Duration::from_secs_f64(per * remaining * doom_safety) > dl
                    });
                if doomed {
                    shared.shed(&task.req, actor);
                    continue;
                }
            }
            live.push(task);
        }
        if live.is_empty() {
            continue;
        }
        shared.metrics.batch_size.record(live.len() as f64);
        let mut req_ids: Vec<u64> = live.iter().map(|t| t.req.id).collect();
        req_ids.sort_unstable();
        req_ids.dedup();
        shared.events.record(
            actor,
            ServeEvent::BatchExecuted { size: live.len(), requests: req_ids.len(), tier },
        );

        // One batched model evaluation for the whole (shape-compatible)
        // batch; every job advances on its own private RNG. On the quality
        // tier, nowcast tasks carry an owned per-job guidance hook; on the
        // fast tier the student has no solver iterations to guide, so
        // nowcast outputs get one post-hoc bounded relaxation toward the
        // observations instead.
        let forcings: Vec<Tensor> =
            live.iter().map(|t| t.req.forcings.at(tokens, t.next_step)).collect();
        let t0 = Instant::now();
        let outs = match tier {
            Tier::Quality => {
                let fc = &shared.forecaster;
                let mut guidances: Vec<Option<ObsGuidance>> = live
                    .iter()
                    .map(|t| {
                        t.req.nowcast.as_ref().map(|spec| {
                            ObsGuidance::new(
                                Arc::clone(&spec.obs),
                                Arc::clone(&t.x),
                                &fc.res_stats,
                                spec.schedule,
                                fc.sampler.cfg.n_steps,
                            )
                        })
                    })
                    .collect();
                let _fwd = shared
                    .tracer
                    .span(SpanCategory::Forward, actor)
                    .label("forecast_step_batch")
                    .micro(live.len() as u64);
                let mut jobs: Vec<GuidedStepJob<'_>> = live
                    .iter_mut()
                    .zip(&forcings)
                    .zip(&mut guidances)
                    .map(|((t, f), g)| GuidedStepJob {
                        x_prev: t.x.as_ref(),
                        forcings: f,
                        rng: &mut t.rng,
                        guidance: g.as_mut().map(|og| og as &mut (dyn Guidance + Send)),
                    })
                    .collect();
                fc.forecast_step_batch_guided(&mut jobs)
            }
            Tier::Fast => {
                let student = shared.student.as_ref().expect("fast worker without a student");
                let _fwd = shared
                    .tracer
                    .span(SpanCategory::Forward, actor)
                    .label("fast_step_batch")
                    .micro(live.len() as u64);
                let mut jobs: Vec<StepJob<'_>> = live
                    .iter_mut()
                    .zip(&forcings)
                    .map(|(t, f)| StepJob { x_prev: t.x.as_ref(), forcings: f, rng: &mut t.rng })
                    .collect();
                let mut outs = student.forecast_step_batch(&mut jobs);
                for (task, out) in live.iter().zip(outs.iter_mut()) {
                    if let Some(spec) = &task.req.nowcast {
                        relax_toward_observations(out, &spec.obs, spec.schedule.weight(0, 1));
                    }
                }
                outs
            }
        };
        // Feed the router's and the doom check's service model with the
        // amortized (batching included) cost of one member-step as served.
        shared.estimator.observe(tier, t0.elapsed().as_secs_f64() / live.len() as f64);
        for (mut task, next) in live.into_iter().zip(outs) {
            let next = Arc::new(next);
            task.next_step += 1;
            shared.cache.insert(
                shared.cache_key(&task.req, task.member, task.next_step),
                Arc::clone(&next),
                task.rng.snapshot(),
            );
            task.states.push(Arc::clone(&next));
            task.x = next;
            if task.next_step == task.req.steps {
                shared.finish_member(task, actor);
            } else {
                let meta = shared.task_meta(&task);
                queue.push(task, meta);
            }
        }
    }
}

/// Per-tier slice of the final report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierCounts {
    /// Requests routed here that passed admission control.
    pub admitted: u64,
    /// Requests this tier served to completion.
    pub completed: u64,
    /// Requests shed on this tier for deadline reasons.
    pub shed: u64,
    /// Of the completed, nowcast requests.
    pub nowcasts: u64,
}

/// Per-tenant slice of the final report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantCounts {
    /// Requests that passed validation and named this tenant.
    pub submitted: u64,
    /// Of the submitted, requests that also passed quota, routing, and
    /// admission control (each ends completed or shed).
    pub admitted: u64,
    /// Of the submitted, requests rejected after the quota check: a bad
    /// route (explicit fast tier without a student) or a full queue.
    pub rejected: u64,
    /// Requests completed for this tenant.
    pub completed: u64,
    /// Requests shed for deadline reasons.
    pub shed: u64,
    /// Requests refused at admission by the tenant's token bucket.
    pub quota_denied: u64,
}

/// Final SLO snapshot of a drained engine (present iff
/// [`ServeConfig::slo`] was configured).
#[derive(Clone, Debug)]
pub struct ServeSloReport {
    /// Per-tier final state, indexed by [`Tier::index`].
    pub tiers: [SloState; 2],
    /// Per-tenant final state, sorted by tenant name.
    pub tenants: Vec<(String, SloState)>,
}

impl ServeSloReport {
    /// The final SLO state of one tier.
    pub fn tier(&self, tier: Tier) -> &SloState {
        &self.tiers[tier.index()]
    }

    /// The final SLO state of a tenant, if it saw any outcomes.
    pub fn tenant(&self, name: &str) -> Option<&SloState> {
        self.tenants.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }
}

/// Post-shutdown report: everything the engine observed while serving.
pub struct ServeReport {
    /// Requests served to completion.
    pub completed: u64,
    /// Of those, nowcast (assimilation) requests.
    pub nowcasts: u64,
    /// Requests shed for deadline reasons — at admission (budget already
    /// unmeetable), at dispatch (expired or projected past the deadline
    /// while queued), in total.
    pub shed: u64,
    /// Requests refused by per-tenant token buckets.
    pub quota_denied: u64,
    /// Per-tier counters, indexed by [`Tier::index`].
    pub tiers: [TierCounts; 2],
    /// Per-tenant counters, sorted by tenant name.
    pub tenants: Vec<(String, TenantCounts)>,
    /// The full serving event log.
    pub events: Vec<EventRecord<ServeEvent>>,
    /// Latency / batch-size / queue-depth series.
    pub metrics: ServeMetrics,
    /// Final rollout-cache accounting.
    pub cache: CacheStats,
    /// Final SLO states, when the engine ran with an objective.
    pub slo: Option<ServeSloReport>,
}

impl ServeReport {
    /// The per-tier counters for `tier`.
    pub fn tier(&self, tier: Tier) -> &TierCounts {
        &self.tiers[tier.index()]
    }

    /// The counters for a tenant (zeros if it never appeared).
    pub fn tenant(&self, name: &str) -> TenantCounts {
        self.tenants
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c)
            .unwrap_or_default()
    }

    /// Check the report's conservation identities. The engine never loses a
    /// request: post-drain (`in_flight == 0`), every admitted request is
    /// exactly one of completed or shed, and every submitted request is
    /// exactly one of completed, shed, quota-denied, or rejected —
    /// `completed + shed + quota_denied + rejected + in_flight == submitted`
    /// per tenant, `completed + shed == admitted` per tier. Returns the
    /// first violated identity.
    pub fn verify_accounting(&self) -> Result<(), String> {
        for (tier, c) in [Tier::Fast, Tier::Quality].map(|t| (t, self.tier(t))) {
            if c.completed + c.shed != c.admitted {
                return Err(format!(
                    "tier {}: completed {} + shed {} != admitted {}",
                    tier.name(),
                    c.completed,
                    c.shed,
                    c.admitted
                ));
            }
        }
        let mut admitted = 0u64;
        for (name, c) in &self.tenants {
            if c.completed + c.shed != c.admitted {
                return Err(format!(
                    "tenant {name}: completed {} + shed {} != admitted {}",
                    c.completed, c.shed, c.admitted
                ));
            }
            if c.admitted + c.quota_denied + c.rejected != c.submitted {
                return Err(format!(
                    "tenant {name}: admitted {} + quota_denied {} + rejected {} != submitted {}",
                    c.admitted, c.quota_denied, c.rejected, c.submitted
                ));
            }
            admitted += c.admitted;
        }
        let tier_admitted: u64 = self.tiers.iter().map(|t| t.admitted).sum();
        if tier_admitted != admitted {
            return Err(format!(
                "tier admitted total {tier_admitted} != tenant admitted total {admitted}"
            ));
        }
        if self.completed + self.shed != admitted {
            return Err(format!(
                "global: completed {} + shed {} != admitted {admitted}",
                self.completed, self.shed
            ));
        }
        Ok(())
    }
}

/// The batched, multi-tenant, two-tier forecast serving engine.
pub struct ServeEngine {
    shared: Arc<EngineShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServeEngine {
    /// Spin up a quality-only engine around a shared forecaster. Every
    /// request serves on the full sampler.
    pub fn start(forecaster: Arc<Forecaster>, cfg: ServeConfig) -> ServeEngine {
        ServeEngine::launch(forecaster, None, cfg)
    }

    /// Spin up a **two-tier** engine: the full-sampler quality tier plus a
    /// distilled fast tier around `student`. Requests route by explicit
    /// tier or deadline slack (see [`crate::api::ForecastRequest::tier`]).
    ///
    /// Panics if the student's grid does not match the forecaster's — a
    /// construction error, not a runtime state.
    pub fn start_two_tier(
        forecaster: Arc<Forecaster>,
        student: Arc<ConsistencyStudent>,
        cfg: ServeConfig,
    ) -> ServeEngine {
        assert_eq!(
            (student.model.cfg.tokens(), student.model.cfg.channels),
            (forecaster.model.cfg.tokens(), forecaster.model.cfg.channels),
            "student grid must match the forecaster's"
        );
        ServeEngine::launch(forecaster, Some(student), cfg)
    }

    fn launch(
        forecaster: Arc<Forecaster>,
        student: Option<Arc<ConsistencyStudent>>,
        cfg: ServeConfig,
    ) -> ServeEngine {
        let n_quality = cfg.workers.max(1);
        let n_fast = if student.is_some() { cfg.fast_workers.max(1) } else { 0 };
        let tracer = Tracer::default();
        let shared = Arc::new(EngineShared {
            forecaster,
            student,
            queues: [DispatchQueue::new(), DispatchQueue::new()],
            router: TierRouter::new(cfg.router),
            estimator: ServiceEstimator::new(),
            quotas: cfg.quota.clone().map(QuotaTable::new),
            default_tenant: Arc::from("public"),
            cache: RolloutCache::new(cfg.cache_bytes),
            events: EventLog::new(),
            metrics: ServeMetrics::registered(&tracer),
            tracer,
            accepting: AtomicBool::new(true),
            outstanding: Mutex::new(0),
            drained: Condvar::new(),
            next_id: AtomicU64::new(0),
            ledger: Ledger {
                counts: Mutex::new(HashMap::new()),
                slo: cfg.slo.clone().map(SloBook::new),
            },
            cfg,
        });
        // The queues report their own wait/lag distributions through the
        // engine's metric series (lock-free histogram records; negligible
        // next to a model evaluation).
        for tier in [Tier::Quality, Tier::Fast] {
            shared.queues[tier.index()].instrument(shared.metrics.queue_metrics(tier));
        }
        let pools = (0..n_quality)
            .map(|w| (Tier::Quality, format!("aeris-serve-q{w}")))
            .chain((0..n_fast).map(|w| (Tier::Fast, format!("aeris-serve-f{w}"))));
        let workers = pools
            .enumerate()
            .map(|(actor, (tier, name))| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || worker_loop(shared, tier, actor))
                    .expect("spawn serve worker")
            })
            .collect();
        ServeEngine { shared, workers }
    }

    /// The engine's tracer, disabled at start (a span site costs one atomic
    /// load). `engine.tracer().set_enabled(true)` makes admission, cache
    /// lookups, batch assembly, and batched model steps emit spans (request
    /// id in the `step` tag, member in `micro`) and cache hit/miss counters;
    /// the [`ServeMetrics`] series export through its Prometheus path
    /// either way.
    pub fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    /// Whether this engine has a distilled fast tier.
    pub fn has_fast_tier(&self) -> bool {
        self.shared.student.is_some()
    }

    /// The per-tier service-time estimator (measured seconds per
    /// member-step; `None` per tier until warm).
    pub fn estimator(&self) -> &ServiceEstimator {
        &self.shared.estimator
    }

    /// Route a request onto a tier; an explicit fast request on a
    /// quality-only engine is a typed error.
    fn route(
        &self,
        explicit: Option<Tier>,
        deadline: Option<Duration>,
        chain_units: u64,
    ) -> Result<Tier, ServeError> {
        let fast_available = self.shared.student.is_some();
        if explicit == Some(Tier::Fast) && !fast_available {
            return Err(ServeError::BadRequest(
                "fast tier requested but the engine has no distilled student".into(),
            ));
        }
        Ok(self.shared.router.route(
            explicit,
            deadline,
            chain_units,
            fast_available,
            &self.shared.estimator,
        ))
    }

    /// Validate, admit, route, and enqueue a forecast request. Returns a
    /// [`Ticket`] the client blocks on; every admission failure is a typed
    /// error.
    pub fn submit(&self, request: ForecastRequest) -> Result<Ticket, ServeError> {
        self.submit_request(request, None)
    }

    /// Validate, admit, route, and enqueue a nowcast (assimilation) request.
    /// The returned [`Ticket`] resolves to a 1-step [`ForecastResponse`]
    /// whose `members[m][0]` is member `m`'s analysis state — bitwise
    /// identical to `aeris_assim::nowcast_member` (quality tier) or
    /// `aeris_assim::nowcast_member_fast` (fast tier) with the same inputs.
    /// Nowcast member-steps run through the same dispatch queues as
    /// forecasts and the rollout cache answers exact replays (keyed on the
    /// observation digest, guidance schedule, and tier).
    pub fn submit_nowcast(&self, request: NowcastRequest) -> Result<Ticket, ServeError> {
        let payload = NowcastSpec { obs: request.observations, schedule: request.schedule };
        let forecast = ForecastRequest {
            init: request.background,
            forcings: request.forcings,
            steps: 1,
            n_members: request.n_members,
            seed: request.seed,
            deadline: request.deadline,
            tenant: request.tenant,
            tier: request.tier,
        };
        self.submit_request(forecast, Some(payload))
    }

    /// The one request path behind [`ServeEngine::submit`] and
    /// [`ServeEngine::submit_nowcast`]: a nowcast is a one-step forecast
    /// carrying an assimilation payload.
    fn submit_request(
        &self,
        request: ForecastRequest,
        nowcast: Option<NowcastSpec>,
    ) -> Result<Ticket, ServeError> {
        let shared = &self.shared;
        if !shared.accepting.load(Ordering::Acquire) {
            shared.events.record(CLIENT_ACTOR, ServeEvent::RejectedShutdown);
            return Err(ServeError::Shutdown);
        }
        self.validate(&request, nowcast.as_ref())?;
        let kind = if nowcast.is_some() { RequestKind::Nowcast } else { RequestKind::Forecast };
        let tenant =
            request.tenant.clone().unwrap_or_else(|| Arc::clone(&shared.default_tenant));
        let record = |tier: Option<Tier>, outcome: Outcome| {
            shared.ledger.record(&tenant, tier, kind, outcome, None)
        };
        record(None, Outcome::Submitted);
        // Token-bucket admission for the request's member-steps.
        let cost = (request.steps * request.n_members) as f64;
        if shared.quotas.as_ref().is_some_and(|q| !q.admit(&tenant, cost).admitted()) {
            record(None, Outcome::QuotaDenied);
            let tenant = tenant.to_string();
            let event = ServeEvent::RejectedQuota { tenant: tenant.clone() };
            shared.events.record(CLIENT_ACTOR, event);
            return Err(ServeError::QuotaExceeded { tenant });
        }
        let tier = self
            .route(request.tier, request.deadline, request.steps as u64)
            .inspect_err(|_| record(None, Outcome::Rejected))?;
        // Admission control: bounded outstanding requests, fail-fast.
        let adm = shared.tracer.span(SpanCategory::Admission, CLIENT_ACTOR);
        {
            let mut outstanding = shared.outstanding.lock();
            let capacity = shared.cfg.queue_capacity;
            if *outstanding >= capacity {
                shared.events.record(CLIENT_ACTOR, ServeEvent::RejectedQueueFull { capacity });
                record(Some(tier), Outcome::Rejected);
                return Err(ServeError::QueueFull { capacity });
            }
            *outstanding += 1;
        }
        record(Some(tier), Outcome::Admitted);
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let _adm = adm.step(id);
        let (members, steps) = (request.n_members, request.steps);
        shared.events.record(CLIENT_ACTOR, ServeEvent::Admitted { req: id, kind, members, steps });
        shared.events.record(CLIENT_ACTOR, ServeEvent::Routed { req: id, tier });
        self.enqueue_members(Arc::new(RequestState::new(id, request, nowcast, tier, tenant)))
    }

    /// The admitted-request tail: cache lookups, admission-time shedding,
    /// and dispatch.
    fn enqueue_members(&self, req: Arc<RequestState>) -> Result<Ticket, ServeError> {
        let shared = &self.shared;
        let id = req.id;
        // Per member: reuse the longest contiguous cached prefix, then
        // enqueue the remainder (fully-cached members finish right here).
        let mut tasks = Vec::new();
        for m in 0..req.n_members {
            let mut task = MemberTask {
                req: Arc::clone(&req),
                member: m,
                next_step: 0,
                x: Arc::clone(&req.init),
                rng: member_rng(req.seed, m),
                states: Vec::with_capacity(req.steps),
                cache_hits: 0,
            };
            {
                let _lookup = shared
                    .tracer
                    .span(SpanCategory::CacheLookup, CLIENT_ACTOR)
                    .step(id)
                    .micro(m as u64);
                while task.next_step < req.steps {
                    let key = shared.cache_key(&req, m, task.next_step + 1);
                    match shared.cache.get(&key) {
                        Some(hit) => {
                            task.rng = Rng::restore(hit.rng);
                            task.x = Arc::clone(&hit.state);
                            task.states.push(hit.state);
                            task.next_step += 1;
                            task.cache_hits += 1;
                        }
                        None => break,
                    }
                }
            }
            shared.tracer.incr("serve_cache_hits", task.cache_hits as u64);
            if task.next_step < req.steps {
                shared.tracer.incr("serve_cache_misses", 1);
            }
            if task.cache_hits > 0 {
                shared.events.record(
                    CLIENT_ACTOR,
                    ServeEvent::PrefixReused { req: id, member: m, steps: task.cache_hits },
                );
            }
            if task.next_step == req.steps {
                shared.finish_member(task, CLIENT_ACTOR);
            } else {
                tasks.push(task);
            }
        }
        // Admission-time shedding: a deadline that has already passed, or
        // that leaves less headroom than the batcher's gather window, cannot
        // be met — fail now instead of queuing doomed work. Fully-cached
        // requests never reach this check (no tasks remain).
        if !tasks.is_empty() {
            if let Some(dl) = req.deadline {
                let now = Instant::now();
                if now >= dl || dl - now < shared.cfg.max_wait {
                    return Err(shared.shed(&req, CLIENT_ACTOR));
                }
            }
        }
        let queue = &shared.queues[req.tier.index()];
        let metas: Vec<(MemberTask, TaskMeta)> = tasks
            .into_iter()
            .map(|t| {
                let meta = shared.task_meta(&t);
                (t, meta)
            })
            .collect();
        queue.push_many(metas);
        Ok(Ticket { req })
    }

    /// Check a request against the engine's model. Observation checks run
    /// only for a nowcast's payload; the sampler config runs for both kinds,
    /// so a schedule the solver would panic on is a typed admission error
    /// instead of a dead worker and a ticket that never resolves.
    fn validate(
        &self,
        r: &ForecastRequest,
        nowcast: Option<&NowcastSpec>,
    ) -> Result<(), ServeError> {
        let fc = &self.shared.forecaster;
        let cfg = &fc.model.cfg;
        if r.steps == 0 || r.n_members == 0 {
            return Err(ServeError::BadRequest("steps and n_members must be ≥ 1".into()));
        }
        let want = [cfg.tokens(), cfg.channels];
        if r.init.shape() != want {
            return Err(ServeError::BadRequest(format!(
                "initial state shape {:?} != model state shape {want:?}",
                r.init.shape()
            )));
        }
        if let Some(spec) = nowcast {
            let obs = &spec.obs;
            if obs.tokens != cfg.tokens() || obs.channels != cfg.channels {
                return Err(ServeError::BadRequest(format!(
                    "observation geometry {}x{} != model grid {}x{}",
                    obs.tokens,
                    obs.channels,
                    cfg.tokens(),
                    cfg.channels
                )));
            }
            let n = obs.sites.len();
            if obs.values.len() != n || obs.mask.len() != n {
                return Err(ServeError::BadRequest(format!(
                    "inconsistent observation lengths: {n} sites, {} values, {} mask bits",
                    obs.values.len(),
                    obs.mask.len()
                )));
            }
            if obs.noise_std.len() != obs.channels {
                return Err(ServeError::BadRequest(format!(
                    "noise_std has {} entries for {} channels",
                    obs.noise_std.len(),
                    obs.channels
                )));
            }
            if let Some((ch, &s)) =
                obs.noise_std.iter().enumerate().find(|(_, &s)| s <= 0.0 || s.is_nan())
            {
                return Err(ServeError::BadRequest(format!(
                    "noise_std[{ch}] = {s} must be strictly positive"
                )));
            }
            if let Some(bad) =
                obs.sites.iter().find(|s| s.token >= obs.tokens || s.channel >= obs.channels)
            {
                return Err(ServeError::BadRequest(format!(
                    "observation site ({}, {}) outside the {}x{} grid",
                    bad.token, bad.channel, obs.tokens, obs.channels
                )));
            }
        }
        fc.sampler
            .cfg
            .validate(&fc.sampler.tf)
            .map_err(|e| ServeError::BadRequest(format!("sampler config: {e}")))?;
        if !r.forcings.covers(r.steps) {
            return Err(ServeError::BadRequest(format!(
                "forcing table does not cover {} steps",
                r.steps
            )));
        }
        if let Forcings::Table(t) = &r.forcings {
            let want = [cfg.tokens(), cfg.forcing_channels];
            if let Some(bad) = t.iter().take(r.steps).find(|f| f.shape() != want) {
                return Err(ServeError::BadRequest(format!(
                    "forcing tensor shape {:?} != {want:?}",
                    bad.shape()
                )));
            }
        } else if r.forcings.channels() != Some(cfg.forcing_channels) {
            return Err(ServeError::BadRequest(format!(
                "forcing channels {:?} != model forcing_channels {}",
                r.forcings.channels(),
                cfg.forcing_channels
            )));
        }
        Ok(())
    }

    /// Stop admitting new requests (they fail with [`ServeError::Shutdown`]);
    /// already-admitted work keeps running.
    pub fn stop_accepting(&self) {
        self.shared.accepting.store(false, Ordering::Release);
    }

    /// Gate dispatch on both tiers: workers stop pulling work (submissions
    /// are still accepted and queue up) until [`ServeEngine::release_dispatch`].
    /// Lets tests build a deterministic backlog; also usable as a
    /// maintenance pause.
    pub fn hold_dispatch(&self) {
        for q in &self.shared.queues {
            q.hold();
        }
    }

    /// Re-open dispatch after [`ServeEngine::hold_dispatch`].
    pub fn release_dispatch(&self) {
        for q in &self.shared.queues {
            q.release();
        }
    }

    /// Block until every admitted request has resolved.
    pub fn drain(&self) {
        let mut g = self.shared.outstanding.lock();
        while *g > 0 {
            self.shared.drained.wait(&mut g);
        }
    }

    /// Graceful shutdown: stop admissions, drain all in-flight requests,
    /// stop the workers, and return the final ops report.
    pub fn shutdown(mut self) -> ServeReport {
        self.stop_accepting();
        // A held queue cannot drain; close() also clears any hold.
        for q in &self.shared.queues {
            q.release();
        }
        self.drain();
        for q in &self.shared.queues {
            q.close();
        }
        for w in self.workers.drain(..) {
            w.join().expect("serve worker panicked");
        }
        let shared = &self.shared;
        let tiers = shared.ledger.tiers();
        let tenants = shared.ledger.tenants();
        let completed = tiers.iter().map(|t| t.completed).sum();
        shared.events.record(CLIENT_ACTOR, ServeEvent::Drained { completed });
        let slo = shared.ledger.slo.as_ref().map(|book| ServeSloReport {
            tiers: [Tier::Fast, Tier::Quality].map(|t| book.tiers[t.index()].state()),
            tenants: book.tenant_states(),
        });
        ServeReport {
            completed,
            nowcasts: tiers.iter().map(|t| t.nowcasts).sum(),
            shed: tiers.iter().map(|t| t.shed).sum(),
            quota_denied: tenants.iter().map(|(_, c)| c.quota_denied).sum(),
            tiers,
            tenants,
            events: shared.events.snapshot(),
            metrics: shared.metrics.clone(),
            cache: shared.cache.stats(),
            slo,
        }
    }

    /// The serving event log (shared handle).
    pub fn events(&self) -> &EventLog<ServeEvent> {
        &self.shared.events
    }

    /// The operational metric series (shared handles).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// Rollout-cache accounting.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Pending member-step tasks across both tiers' dispatch queues.
    pub fn queue_depth(&self) -> usize {
        self.shared.total_queue_depth()
    }

    /// Requests served to completion so far.
    pub fn completed(&self) -> u64 {
        self.shared.ledger.total(|t| t.completed)
    }

    /// Nowcast requests served to completion so far.
    pub fn nowcasts(&self) -> u64 {
        self.shared.ledger.total(|t| t.nowcasts)
    }

    /// Requests shed for deadline reasons so far.
    pub fn shed(&self) -> u64 {
        self.shared.ledger.total(|t| t.shed)
    }

    /// Requests admitted but not yet terminal.
    pub fn in_flight(&self) -> usize {
        *self.shared.outstanding.lock()
    }

    /// Live SLO state of one tier (`None` unless [`ServeConfig::slo`] is
    /// configured).
    pub fn slo_state(&self, tier: Tier) -> Option<SloState> {
        self.shared.ledger.slo.as_ref().map(|b| b.tiers[tier.index()].state())
    }

    /// One point-in-time introspection snapshot: queue depths, wait/lag
    /// quantiles, service estimates, worker counts, per-tenant ledgers and
    /// token balances, cache effectiveness, live SLO states, and the
    /// tracer's counters. Render it with `Display` for the text dashboard,
    /// or push it into the Prometheus path with
    /// [`StatusReport::export_gauges`].
    pub fn status(&self) -> StatusReport {
        let shared = &self.shared;
        let slo = shared.ledger.slo.as_ref();
        let counts = shared.ledger.tiers();
        let mut tiers = Vec::new();
        for tier in [Tier::Quality, Tier::Fast] {
            if tier == Tier::Fast && shared.student.is_none() {
                continue;
            }
            let i = tier.index();
            tiers.push(TierStatus {
                name: tier.name().to_string(),
                queue_depth: shared.queues[i].depth(),
                queue_wait_ms: shared.metrics.queue_wait_series(tier).summary(),
                wfq_lag: shared.metrics.wfq_lag_series(tier).summary(),
                est_ms_per_unit: shared.estimator.per_unit(tier).map(|s| s * 1e3),
                est_samples: shared.estimator.samples(tier),
                workers: match tier {
                    Tier::Quality => shared.cfg.workers.max(1),
                    Tier::Fast => shared.cfg.fast_workers.max(1),
                },
                admitted: counts[i].admitted,
                completed: counts[i].completed,
                shed: counts[i].shed,
                slo: slo.map(|b| b.tiers[i].state()),
            });
        }
        let balances: HashMap<String, f64> = shared
            .quotas
            .as_ref()
            .map(|q| q.balances().into_iter().collect())
            .unwrap_or_default();
        let tenants = shared
            .ledger
            .tenants()
            .into_iter()
            .map(|(name, c)| TenantStatus {
                quota_tokens: balances.get(&name).copied(),
                submitted: c.submitted,
                completed: c.completed,
                shed: c.shed,
                quota_denied: c.quota_denied,
                rejected: c.rejected,
                slo: slo.and_then(|b| b.tenant_state(&name)),
                name,
            })
            .collect();
        let cs = shared.cache.stats();
        StatusReport {
            tiers,
            tenants,
            cache: Some(CacheStatus {
                hits: cs.hits,
                misses: cs.misses,
                hit_rate: cs.hit_rate(),
                bytes: cs.bytes as u64,
                budget_bytes: shared.cfg.cache_bytes as u64,
                entries: cs.entries as u64,
                evictions: cs.evictions,
            }),
            in_flight: *shared.outstanding.lock() as u64,
            counters: shared.tracer.counters(),
        }
    }
}

impl Drop for ServeEngine {
    /// Dropping without [`ServeEngine::shutdown`] still finishes admitted
    /// work (workers drain the pools before exiting), so no ticket is ever
    /// left hanging.
    fn drop(&mut self) {
        self.shared.accepting.store(false, Ordering::Release);
        for q in &self.shared.queues {
            q.close();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeris_core::AerisConfig;
    use aeris_diffusion::{SamplerConfig, TrigFlow, TrigFlowSampler};
    use aeris_earthsim::NormStats;

    fn tiny_forecaster() -> Arc<Forecaster> {
        let cfg = AerisConfig::test_tiny();
        let channels = cfg.channels;
        let model = aeris_core::AerisModel::new(cfg);
        let stats = NormStats { mean: vec![0.0; channels], std: vec![1.0; channels] };
        Arc::new(Forecaster {
            model,
            res_stats: stats.clone(),
            stats,
            sampler: TrigFlowSampler::new(
                TrigFlow::default(),
                SamplerConfig { n_steps: 2, churn: 0.1, second_order: false },
            ),
        })
    }

    fn tiny_student(fc: &Forecaster) -> Arc<ConsistencyStudent> {
        // A teacher-copy student (zero distillation steps) keeps the tests
        // fast; the serving engine only cares that it is *a* one-step model.
        Arc::new(ConsistencyStudent {
            model: fc.replicate().model,
            stats: fc.stats.clone(),
            res_stats: fc.res_stats.clone(),
            tf: fc.sampler.tf,
        })
    }

    fn request(seed: u64, steps: usize, n_members: usize) -> ForecastRequest {
        let mut rng = Rng::seed_from(seed ^ 0xDECAF);
        ForecastRequest {
            init: Tensor::randn(&[128, 4], &mut rng),
            forcings: Forcings::Zeros { channels: 3 },
            steps,
            n_members,
            seed,
            deadline: None,
            tenant: None,
            tier: None,
        }
    }

    #[test]
    fn served_forecast_matches_direct_ensemble_bitwise() {
        let fc = tiny_forecaster();
        let engine = ServeEngine::start(Arc::clone(&fc), ServeConfig::default());
        let req = request(40, 3, 2);
        let direct = fc.ensemble(&req.init, &|_k| Tensor::zeros(&[128, 3]), 3, 2, 40);
        let resp = engine.submit(req).expect("admitted").wait().expect("served");
        assert_eq!(resp.forecast.members, direct.members, "served ≠ direct ensemble");
        assert_eq!(resp.computed_steps, 6);
        assert_eq!(resp.cache_hits, 0);
        assert_eq!(resp.tier, Tier::Quality, "no deadline, no explicit tier ⇒ quality");
    }

    #[test]
    fn identical_requests_reuse_the_cache_bitwise() {
        let fc = tiny_forecaster();
        let engine = ServeEngine::start(fc, ServeConfig::default());
        let first = engine.submit(request(41, 4, 2)).expect("admitted").wait().expect("served");
        // Bitwise-equal replay, zero model evaluations.
        let second = engine.submit(request(41, 4, 2)).expect("admitted").wait().expect("served");
        assert_eq!(second.forecast.members, first.forecast.members);
        assert_eq!(second.cache_hits, 8, "full prefix reuse");
        assert_eq!(second.computed_steps, 0);
        // An extended horizon reuses the prefix and computes only the tail.
        let longer = engine.submit(request(41, 6, 2)).expect("admitted").wait().expect("served");
        assert_eq!(longer.cache_hits, 8);
        assert_eq!(longer.computed_steps, 4);
        for (m, member) in first.forecast.members.iter().enumerate() {
            assert_eq!(&longer.forecast.members[m][..4], &member[..], "prefix diverged");
        }
        assert!(engine.events().any(|e| matches!(e, ServeEvent::PrefixReused { .. })));
        let stats = engine.cache_stats();
        assert!(stats.hits >= 8, "cache hits {stats:?}");
    }

    #[test]
    fn fast_tier_matches_direct_student_ensemble_bitwise() {
        let fc = tiny_forecaster();
        let student = tiny_student(&fc);
        // Two engines with different worker counts must produce the same
        // bits: scheduling moves time, not numbers.
        let mut req = request(42, 3, 2);
        req.tier = Some(Tier::Fast);
        let direct = student.ensemble(&req.init, &|_k| Tensor::zeros(&[128, 3]), 3, 2, 42);
        for workers in [1usize, 3] {
            let engine = ServeEngine::start_two_tier(
                Arc::clone(&fc),
                Arc::clone(&student),
                ServeConfig { fast_workers: workers, ..ServeConfig::default() },
            );
            let resp = engine.submit(req.clone()).expect("admitted").wait().expect("served");
            assert_eq!(resp.tier, Tier::Fast);
            assert_eq!(
                resp.forecast.members, direct,
                "fast tier ≠ direct student ensemble ({workers} workers)"
            );
        }
    }

    #[test]
    fn fast_and_quality_cache_namespaces_never_alias() {
        let fc = tiny_forecaster();
        let student = tiny_student(&fc);
        let engine = ServeEngine::start_two_tier(fc, student, ServeConfig::default());
        let quality = engine.submit(request(43, 2, 2)).expect("admitted").wait().unwrap();
        let mut fast_req = request(43, 2, 2);
        fast_req.tier = Some(Tier::Fast);
        let fast = engine.submit(fast_req).expect("admitted").wait().unwrap();
        // Same init/seed/steps, different tier: the fast response must be
        // computed (not cache-aliased) and numerically different.
        assert_eq!(fast.cache_hits, 0, "fast tier must not read quality entries");
        assert_ne!(fast.forecast.members, quality.forecast.members);
    }

    #[test]
    fn explicit_fast_without_student_is_a_typed_error() {
        let engine = ServeEngine::start(tiny_forecaster(), ServeConfig::default());
        let mut req = request(44, 1, 1);
        req.tier = Some(Tier::Fast);
        assert!(matches!(engine.submit(req), Err(ServeError::BadRequest(_))));
        // Routing never picks fast on a quality-only engine either.
        let mut tight = request(45, 1, 1);
        tight.deadline = Some(Duration::from_secs(3600));
        let resp = engine.submit(tight).expect("admitted").wait().expect("served");
        assert_eq!(resp.tier, Tier::Quality);
    }

    #[test]
    fn tight_slack_routes_fast_loose_routes_quality() {
        let fc = tiny_forecaster();
        let student = tiny_student(&fc);
        let engine = ServeEngine::start_two_tier(fc, student, ServeConfig::default());
        // Default router floor is 250 ms; a 10 s budget on a cold estimator
        // stays on quality, a 200 ms budget must go fast.
        let mut tight = request(46, 1, 1);
        tight.deadline = Some(Duration::from_millis(200));
        let t = engine.submit(tight).expect("admitted");
        assert_eq!(t.tier(), Tier::Fast);
        assert_eq!(t.wait().expect("served").tier, Tier::Fast);
        let mut loose = request(47, 1, 1);
        loose.deadline = Some(Duration::from_secs(10));
        assert_eq!(engine.submit(loose).expect("admitted").tier(), Tier::Quality);
        let report = engine.shutdown();
        assert_eq!(report.tier(Tier::Fast).completed, 1);
        assert_eq!(report.tier(Tier::Quality).completed, 1);
        assert!(report.events.iter().any(|r| matches!(
            r.event,
            ServeEvent::Routed { tier: Tier::Fast, .. }
        )));
    }

    #[test]
    fn wait_for_times_out_then_succeeds() {
        let engine = ServeEngine::start(tiny_forecaster(), ServeConfig::default());
        engine.hold_dispatch();
        let ticket = engine.submit(request(48, 2, 1)).expect("admitted");
        let err = ticket.wait_for(Duration::from_millis(20)).err().expect("must time out");
        assert_eq!(err, ServeError::WaitTimeout { req: ticket.id() });
        engine.release_dispatch();
        // The request was not cancelled: a later bounded wait succeeds.
        let resp = ticket.wait_for(Duration::from_secs(30)).expect("served after release");
        assert_eq!(resp.forecast.members.len(), 1);
    }

    #[test]
    fn quotas_deny_over_budget_tenants_with_typed_errors() {
        use aeris_sched::{QuotaConfig, TenantPolicy};
        let engine = ServeEngine::start(
            tiny_forecaster(),
            ServeConfig {
                quota: Some(QuotaConfig {
                    // 4 member-steps of burst, no refill to speak of.
                    default: TenantPolicy { weight: 1.0, rate: 1e-9, burst: 4.0 },
                    overrides: vec![(
                        Arc::from("vip"),
                        TenantPolicy { weight: 4.0, rate: 0.0, burst: 0.0 },
                    )],
                }),
                ..ServeConfig::default()
            },
        );
        // 2 steps × 2 members = 4 units: first request drains the bucket.
        let mut first = request(49, 2, 2);
        first.tenant = Some(Arc::from("acme"));
        engine.submit(first).expect("admitted").wait().expect("served");
        let mut second = request(50, 2, 2);
        second.tenant = Some(Arc::from("acme"));
        let err = engine.submit(second).err().expect("bucket empty");
        assert_eq!(err, ServeError::QuotaExceeded { tenant: "acme".into() });
        // The vip override is unlimited (rate ≤ 0).
        let mut vip = request(51, 2, 2);
        vip.tenant = Some(Arc::from("vip"));
        engine.submit(vip).expect("admitted").wait().expect("served");
        let report = engine.shutdown();
        assert_eq!(report.quota_denied, 1);
        assert_eq!(report.tenant("acme").quota_denied, 1);
        assert_eq!(report.tenant("acme").completed, 1);
        assert_eq!(report.tenant("vip").completed, 1);
        assert!(report
            .events
            .iter()
            .any(|r| matches!(&r.event, ServeEvent::RejectedQuota { tenant } if tenant == "acme")));
    }

    #[test]
    fn zero_capacity_rejects_with_queue_full() {
        let engine = ServeEngine::start(
            tiny_forecaster(),
            ServeConfig { queue_capacity: 0, ..ServeConfig::default() },
        );
        let err = engine.submit(request(1, 1, 1)).err().expect("must reject");
        assert_eq!(err, ServeError::QueueFull { capacity: 0 });
        assert!(engine.events().any(|e| matches!(e, ServeEvent::RejectedQueueFull { .. })));
    }

    #[test]
    fn stop_accepting_rejects_with_shutdown() {
        let engine = ServeEngine::start(tiny_forecaster(), ServeConfig::default());
        engine.stop_accepting();
        assert_eq!(engine.submit(request(1, 1, 1)).err(), Some(ServeError::Shutdown));
    }

    #[test]
    fn malformed_requests_fail_typed() {
        let engine = ServeEngine::start(tiny_forecaster(), ServeConfig::default());
        let mut bad_shape = request(1, 1, 1);
        bad_shape.init = Tensor::zeros(&[64, 4]);
        assert!(matches!(engine.submit(bad_shape), Err(ServeError::BadRequest(_))));
        let mut zero_steps = request(1, 1, 1);
        zero_steps.steps = 0;
        assert!(matches!(engine.submit(zero_steps), Err(ServeError::BadRequest(_))));
        let mut short_table = request(1, 3, 1);
        short_table.forcings = Forcings::Table(Arc::new(vec![Tensor::zeros(&[128, 3]); 2]));
        assert!(matches!(engine.submit(short_table), Err(ServeError::BadRequest(_))));
        let mut bad_channels = request(1, 1, 1);
        bad_channels.forcings = Forcings::Zeros { channels: 5 };
        assert!(matches!(engine.submit(bad_channels), Err(ServeError::BadRequest(_))));
    }

    #[test]
    fn zero_deadline_requests_are_shed_at_admission() {
        let engine = ServeEngine::start(tiny_forecaster(), ServeConfig::default());
        let mut req = request(50, 4, 2);
        req.deadline = Some(Duration::ZERO);
        let err = engine.submit(req).err().expect("must shed at admission");
        assert!(matches!(err, ServeError::DeadlineExceeded { .. }), "{err:?}");
        assert!(engine.events().any(|e| matches!(e, ServeEvent::DeadlineExceeded { .. })));
        // The engine still drains cleanly afterwards.
        let report = engine.shutdown();
        assert_eq!(report.completed, 0);
        assert_eq!(report.shed, 1);
    }

    #[test]
    fn fully_cached_requests_survive_expired_deadlines() {
        let engine = ServeEngine::start(tiny_forecaster(), ServeConfig::default());
        engine.submit(request(51, 3, 2)).expect("admitted").wait().expect("served");
        // Same request with a spent budget: answered entirely from cache, so
        // it is not shed — it costs no model evaluations.
        let mut warm = request(51, 3, 2);
        warm.deadline = Some(Duration::ZERO);
        let resp = engine.submit(warm).expect("admitted").wait().expect("served from cache");
        assert_eq!(resp.computed_steps, 0);
        assert_eq!(resp.cache_hits, 6);
        // An uncached request with the same spent budget is shed up front.
        let mut cold = request(52, 3, 2);
        cold.deadline = Some(Duration::ZERO);
        assert!(matches!(engine.submit(cold), Err(ServeError::DeadlineExceeded { .. })));
        let report = engine.shutdown();
        assert_eq!(report.completed, 2);
        assert_eq!(report.shed, 1);
    }

    fn nowcast_request(seed: u64, schedule: GuidanceSchedule) -> NowcastRequest {
        let grid = aeris_earthsim::Grid::new(8, 16);
        let mut rng = Rng::seed_from(seed ^ 0x0B5);
        let background = Tensor::randn(&[128, 4], &mut rng);
        let truth = Tensor::randn(&[128, 4], &mut rng);
        let op = aeris_assim::ObsOperator::stations(&grid, 24, &[0, 1], &[0.5; 4], seed);
        NowcastRequest {
            background,
            forcings: Forcings::Zeros { channels: 3 },
            observations: Arc::new(op.observe(&truth, 0.1, seed ^ 0x7)),
            schedule,
            n_members: 2,
            seed,
            deadline: None,
            tenant: None,
            tier: None,
        }
    }

    #[test]
    fn served_nowcast_matches_direct_guided_call_bitwise() {
        let fc = tiny_forecaster();
        let engine = ServeEngine::start(Arc::clone(&fc), ServeConfig::default());
        let sched = GuidanceSchedule::Ramp { start: 0.0, end: 0.4 };
        let req = nowcast_request(70, sched);
        let bg = Arc::new(req.background.clone());
        let forc = Tensor::zeros(&[128, 3]);
        let resp = engine.submit_nowcast(req.clone()).expect("admitted").wait().expect("served");
        assert_eq!(resp.forecast.members.len(), 2);
        for (m, member) in resp.forecast.members.iter().enumerate() {
            assert_eq!(member.len(), 1, "nowcasts are one analysis step");
            let direct = aeris_assim::nowcast_member(
                &fc, &bg, &forc, &req.observations, sched, 70, m,
            );
            assert_eq!(member[0], direct, "served nowcast member {m} ≠ direct guided call");
        }
        assert!(engine.events().any(|e| matches!(e, ServeEvent::Admitted { kind: RequestKind::Nowcast, .. })));
        let report = engine.shutdown();
        assert_eq!(report.nowcasts, 1);
        assert_eq!(report.metrics.nowcast_latency_ms.count(), 1);
        assert_eq!(report.metrics.latency_ms.count(), 0, "forecast series untouched");
    }

    #[test]
    fn served_fast_nowcast_matches_direct_fast_call_bitwise() {
        let fc = tiny_forecaster();
        let student = tiny_student(&fc);
        let engine =
            ServeEngine::start_two_tier(fc, Arc::clone(&student), ServeConfig::default());
        let sched = GuidanceSchedule::Constant(0.5);
        let mut req = nowcast_request(74, sched);
        req.tier = Some(Tier::Fast);
        let bg = Arc::new(req.background.clone());
        let forc = Tensor::zeros(&[128, 3]);
        let resp = engine.submit_nowcast(req.clone()).expect("admitted").wait().expect("served");
        assert_eq!(resp.tier, Tier::Fast);
        for (m, member) in resp.forecast.members.iter().enumerate() {
            let direct = aeris_assim::nowcast_member_fast(
                &student, &bg, &forc, &req.observations, sched, 74, m,
            );
            assert_eq!(member[0], direct, "served fast nowcast member {m} ≠ direct call");
        }
        let report = engine.shutdown();
        assert_eq!(report.tier(Tier::Fast).nowcasts, 1);
        assert_eq!(report.metrics.fast_nowcast_latency_ms.count(), 1);
    }

    #[test]
    fn nowcast_replay_is_served_from_cache_keyed_on_obs_digest() {
        let fc = tiny_forecaster();
        let engine = ServeEngine::start(fc, ServeConfig::default());
        let sched = GuidanceSchedule::Constant(0.3);
        let first =
            engine.submit_nowcast(nowcast_request(71, sched)).expect("admitted").wait().unwrap();
        assert_eq!(first.computed_steps, 2);
        // Exact replay: fully cached.
        let replay =
            engine.submit_nowcast(nowcast_request(71, sched)).expect("admitted").wait().unwrap();
        assert_eq!(replay.computed_steps, 0);
        assert_eq!(replay.cache_hits, 2);
        assert_eq!(replay.forecast.members, first.forecast.members);
        // Different observations (different seed → different values/digest)
        // must NOT alias, despite the same background/seed/schedule.
        let mut other = nowcast_request(71, sched);
        other.observations =
            Arc::new((*nowcast_request(72, sched).observations).clone());
        let cold = engine.submit_nowcast(other).expect("admitted").wait().unwrap();
        assert_eq!(cold.cache_hits, 0, "obs digest must separate cache entries");
        assert_ne!(cold.forecast.members, first.forecast.members);
    }

    #[test]
    fn off_schedule_nowcast_shares_cache_with_a_forecast() {
        let fc = tiny_forecaster();
        let engine = ServeEngine::start(Arc::clone(&fc), ServeConfig::default());
        let now = nowcast_request(73, GuidanceSchedule::off());
        // A 1-step forecast with the same init/seed is the same trajectory.
        let fr = ForecastRequest {
            init: now.background.clone(),
            forcings: Forcings::Zeros { channels: 3 },
            steps: 1,
            n_members: 2,
            seed: 73,
            deadline: None,
            tenant: None,
            tier: None,
        };
        let served = engine.submit(fr).expect("admitted").wait().unwrap();
        let cached = engine.submit_nowcast(now).expect("admitted").wait().unwrap();
        assert_eq!(cached.cache_hits, 2, "off-schedule nowcast reuses the forecast's entries");
        assert_eq!(cached.forecast.members, served.forecast.members);
    }

    #[test]
    fn malformed_nowcasts_fail_typed() {
        let engine = ServeEngine::start(tiny_forecaster(), ServeConfig::default());
        let sched = GuidanceSchedule::Constant(0.2);
        let mut bad_shape = nowcast_request(1, sched);
        bad_shape.background = Tensor::zeros(&[64, 4]);
        assert!(matches!(engine.submit_nowcast(bad_shape), Err(ServeError::BadRequest(_))));
        let mut bad_geom = nowcast_request(1, sched);
        let mut obs = (*bad_geom.observations).clone();
        obs.tokens = 64;
        bad_geom.observations = Arc::new(obs);
        assert!(matches!(engine.submit_nowcast(bad_geom), Err(ServeError::BadRequest(_))));
        let mut bad_site = nowcast_request(1, sched);
        let mut obs = (*bad_site.observations).clone();
        obs.sites[0].token = obs.tokens + 1;
        bad_site.observations = Arc::new(obs);
        assert!(matches!(engine.submit_nowcast(bad_site), Err(ServeError::BadRequest(_))));
        let mut bad_noise = nowcast_request(1, sched);
        let mut obs = (*bad_noise.observations).clone();
        obs.noise_std[0] = 0.0;
        bad_noise.observations = Arc::new(obs);
        assert!(matches!(engine.submit_nowcast(bad_noise), Err(ServeError::BadRequest(_))));
        let mut zero_members = nowcast_request(1, sched);
        zero_members.n_members = 0;
        assert!(matches!(engine.submit_nowcast(zero_members), Err(ServeError::BadRequest(_))));
    }

    #[test]
    fn shutdown_drains_and_reports() {
        let engine = ServeEngine::start(tiny_forecaster(), ServeConfig::default());
        let tickets: Vec<Ticket> =
            (0..3).map(|i| engine.submit(request(60 + i, 2, 1)).expect("admitted")).collect();
        let report = engine.shutdown();
        // Every admitted ticket resolved (shutdown drained them first).
        for t in &tickets {
            assert!(t.wait().is_ok());
        }
        assert_eq!(report.completed, 3);
        assert_eq!(report.tier(Tier::Quality).completed, 3);
        assert_eq!(report.tenant("public").completed, 3);
        assert!(report.events.iter().any(|r| matches!(r.event, ServeEvent::Drained { completed: 3 })));
        assert_eq!(report.metrics.latency_ms.count(), 3);
        assert!(report.metrics.batch_size.count() > 0);
        report.verify_accounting().expect("conservation");
        assert_eq!(report.tier(Tier::Quality).admitted, 3);
        assert_eq!(report.tenant("public").submitted, 3);
        assert_eq!(report.tenant("public").admitted, 3);
        assert!(report.slo.is_none(), "no objective configured");
    }

    /// A permissive objective for tests: sample-count windows small enough
    /// to flip deterministically, every completion good (huge latency bound).
    fn test_slo() -> SloConfig {
        SloConfig {
            latency_ms: 1e9,
            target: 0.5,
            short_window: 2,
            long_window: 8,
            warn_burn: 1.0,
            page_burn: 1.9,
        }
    }

    #[test]
    fn slo_verdicts_flip_deterministically_and_surface_in_the_report() {
        let engine = ServeEngine::start(
            tiny_forecaster(),
            ServeConfig { slo: Some(test_slo()), ..ServeConfig::default() },
        );
        // 8 synchronous good completions fill the long window: Ok.
        for i in 0..8u64 {
            engine.submit(request(200 + i, 1, 1)).expect("admitted").wait().expect("served");
            assert_eq!(engine.slo_state(Tier::Quality).unwrap().verdict, SloVerdict::Ok);
        }
        // Zero-deadline submissions shed synchronously at admission (fresh
        // seeds keep them out of the cache), each one a bad outcome observed
        // on the client thread — so the flip points are exact:
        //   after k bad: short burn = min(k,2)/2 / 0.5, long = k/8 / 0.5.
        //   Warn needs both >= 1.0 => k >= 4; Page both >= 1.9 => k >= 8.
        for k in 1..=8u64 {
            let mut doomed = request(300 + k, 1, 1);
            doomed.deadline = Some(Duration::ZERO);
            assert!(matches!(
                engine.submit(doomed),
                Err(ServeError::DeadlineExceeded { .. })
            ));
            let state = engine.slo_state(Tier::Quality).unwrap();
            let expect = if k >= 8 {
                SloVerdict::Page
            } else if k >= 4 {
                SloVerdict::Warn
            } else {
                SloVerdict::Ok
            };
            assert_eq!(state.verdict, expect, "after {k} sheds: {state}");
        }
        let report = engine.shutdown();
        report.verify_accounting().expect("conservation");
        let slo = report.slo.as_ref().expect("objective configured");
        assert_eq!(slo.tier(Tier::Quality).verdict, SloVerdict::Page);
        assert_eq!(slo.tier(Tier::Quality).good_total, 8);
        assert_eq!(slo.tier(Tier::Quality).total, 16);
        assert_eq!(slo.tier(Tier::Fast).total, 0, "fast tier saw no traffic");
        assert_eq!(slo.tenant("public").expect("tenant tracked").verdict, SloVerdict::Page);
        assert_eq!(report.tier(Tier::Quality).admitted, 16);
        assert_eq!(report.tier(Tier::Quality).shed, 8);
    }

    #[test]
    fn slo_tracking_never_changes_served_bits() {
        let fc = tiny_forecaster();
        let engine = ServeEngine::start(
            Arc::clone(&fc),
            ServeConfig { slo: Some(test_slo()), ..ServeConfig::default() },
        );
        let req = request(90, 3, 2);
        let direct = fc.ensemble(&req.init, &|_k| Tensor::zeros(&[128, 3]), 3, 2, 90);
        let resp = engine.submit(req).expect("admitted").wait().expect("served");
        assert_eq!(resp.forecast.members, direct.members, "SLO wiring must be time-only");
    }

    #[test]
    fn accounting_balances_across_every_rejection_path() {
        use aeris_sched::{QuotaConfig, TenantPolicy};
        let engine = ServeEngine::start(
            tiny_forecaster(),
            ServeConfig {
                queue_capacity: 1,
                quota: Some(QuotaConfig {
                    default: TenantPolicy { weight: 1.0, rate: 1e-9, burst: 4.0 },
                    overrides: vec![(
                        Arc::from("vip"),
                        TenantPolicy { weight: 1.0, rate: 0.0, burst: 0.0 },
                    )],
                }),
                ..ServeConfig::default()
            },
        );
        // Completed (drains acme's 4-token bucket)...
        let mut ok = request(80, 2, 2);
        ok.tenant = Some(Arc::from("acme"));
        engine.submit(ok).expect("admitted").wait().expect("served");
        // Free the single outstanding slot before the next submission (the
        // worker releases it a beat after `wait` returns).
        engine.drain();
        // ...quota-denied...
        let mut denied = request(81, 2, 2);
        denied.tenant = Some(Arc::from("acme"));
        assert!(matches!(engine.submit(denied), Err(ServeError::QuotaExceeded { .. })));
        // ...shed at admission (zero deadline, uncached)...
        let mut doomed = request(82, 2, 2);
        doomed.tenant = Some(Arc::from("vip"));
        doomed.deadline = Some(Duration::ZERO);
        assert!(matches!(engine.submit(doomed), Err(ServeError::DeadlineExceeded { .. })));
        // ...rejected on routing (explicit fast tier, no student)...
        let mut no_student = request(83, 1, 1);
        no_student.tenant = Some(Arc::from("vip"));
        no_student.tier = Some(Tier::Fast);
        assert!(matches!(engine.submit(no_student), Err(ServeError::BadRequest(_))));
        // ...and rejected on a full queue (hold dispatch so a request pins
        // the single outstanding slot).
        engine.hold_dispatch();
        let held = engine.submit(request(84, 1, 1)).expect("admitted");
        let mut overflow = request(85, 1, 1);
        overflow.tenant = Some(Arc::from("vip"));
        assert!(matches!(engine.submit(overflow), Err(ServeError::QueueFull { .. })));
        engine.release_dispatch();
        held.wait().expect("served after release");
        let report = engine.shutdown();
        report.verify_accounting().expect("conservation");
        let acme = report.tenant("acme");
        assert_eq!((acme.submitted, acme.admitted, acme.quota_denied), (2, 1, 1));
        let vip = report.tenant("vip");
        assert_eq!(
            (vip.submitted, vip.admitted, vip.shed, vip.rejected),
            (3, 1, 1, 2),
            "{vip:?}"
        );
        assert_eq!(report.tenant("public").completed, 1);
    }

    #[test]
    fn status_snapshot_reflects_live_engine_state() {
        let engine = ServeEngine::start(
            tiny_forecaster(),
            ServeConfig { slo: Some(test_slo()), ..ServeConfig::default() },
        );
        engine.submit(request(95, 2, 2)).expect("admitted").wait().expect("served");
        // `wait` can return a beat before the worker releases the
        // outstanding slot; drain blocks on the slot count itself.
        engine.drain();
        assert_eq!(engine.in_flight(), 0);
        let status = engine.status();
        assert_eq!(status.in_flight, 0);
        assert_eq!(status.tiers.len(), 1, "quality-only engine");
        let q = &status.tiers[0];
        assert_eq!(q.name, "quality");
        assert_eq!((q.admitted, q.completed, q.shed), (1, 1, 0));
        assert!(q.est_samples > 0, "workers fed the estimator");
        assert!(q.queue_wait_ms.as_ref().is_some_and(|s| s.count >= 4), "4 member-steps waited");
        assert_eq!(q.slo.as_ref().unwrap().verdict, SloVerdict::Ok);
        assert_eq!(status.tenants.len(), 1);
        assert_eq!(status.tenants[0].name, "public");
        assert_eq!(status.tenants[0].quota_tokens, None, "no quota table");
        let cache = status.cache.expect("cache always reported");
        assert!(cache.entries > 0 && cache.bytes > 0);
        // The dashboard renders and mentions the tier and tenant.
        let text = status.to_string();
        assert!(text.contains("tier quality") && text.contains("tenant public"), "{text}");
    }
}
