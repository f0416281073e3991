//! End-to-end distributed SWiPe training.
//!
//! Each rank runs the 1F1B schedule over its stage, with window/sequence
//! parallel activations inside each block, shared-seed diffusion times across
//! model-parallel ranks (§VI-B), gradient reduction over DP×WP×SP, and a
//! ZeRO-1-style sharded optimizer (owner-updates + parameter broadcast).
//!
//! One step path serves every stage: a forward receives from the previous
//! stage if there is one, runs the stage and sends to the next stage if there
//! is one; a backward mirrors it over the same two route tables, computed
//! once per rank at setup. Only data entry is per-kind (the input stage
//! builds its `x_t` input, the head loads `v_target`). One per-rank `Zero1`
//! value answers which group reduces each parameter and who owns it, for the
//! reduction, the update and broadcast, checkpoints, rejoin and resume. The
//! configuration is checked once, before any rank spawns.
//!
//! [`reference_grads`] computes the *same* objective on a single rank with
//! the same noise realizations, enabling the distributed ≡ single-rank
//! equivalence tests in `tests/`.
//!
//! Fault tolerance:
//! - every communication failure surfaces as a typed [`SwipeError`] through
//!   [`DistributedTrainer::train`]'s `Result` — a lost message or dead peer
//!   ends the run with an error within the comm deadline, never a deadlock;
//! - a planned step-boundary crash ([`FaultPlan::crash_rank`]) degrades
//!   gracefully: the dead rank's entire data-parallel replica retires, the
//!   surviving groups shrink (in group order, keeping reductions
//!   deterministic), and gradient averaging rescales to the surviving global
//!   batch;
//! - a planned restart ([`FaultPlan::restart_rank`]) re-admits a crashed
//!   rank at a later step boundary: its replica parks through the outage,
//!   the data-parallel groups regrow in group order, and a live donor
//!   replica re-shards parameters plus its positionally-owned ZeRO-1
//!   moments onto the rejoiner, after which the run proceeds bitwise as if
//!   resumed from a checkpoint taken at the rejoin boundary;
//! - coordinated checkpoints ([`CheckpointConfig`]) serialize the canonical
//!   replica's parameters, each ZeRO-1 owner's AdamW moments, and the step
//!   counters; [`SwipeConfig::resume_from`] restores them — into *any*
//!   data-parallel width, since moments shard within a replica — and,
//!   because diffusion times and noise are stateless functions of
//!   `(seed, step)`, reproduces the uninterrupted run bitwise from the
//!   checkpointed step on.

use crate::comm::{CommClass, CommConfig, CommError, Communicator, TrafficReport, World};
use crate::data::{gather, Field, WindowSource};
use crate::events::{EventRecord, FaultEvent};
use crate::fault::FaultPlan;
use crate::layout::ActLayout;
use crate::schedule::{one_f_one_b, Action};
use crate::stage::{Stage, StageCtx, StageModel, StageRun};
use crate::topology::{RankCoords, SwipeTopology};
use aeris_core::training::batch_mean;
use aeris_core::AerisModel;
use aeris_diffusion::TrigFlow;
use aeris_nn::checkpoint::{entry_u64, load_entries, save_entries, u64_entry};
use aeris_nn::window::WindowGrid;
use aeris_nn::{AdamW, AdamWConfig, ParamId, ParamStore, RopeTable};
use aeris_obs::{SpanCategory, Tracer};
use aeris_tensor::{Rng, Tensor};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Coordinated checkpointing policy.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Directory for checkpoint files (`step_NNNNNN.ckpt`).
    pub dir: PathBuf,
    /// Save after every `every` completed steps.
    pub every: usize,
}

/// Distributed training configuration.
#[derive(Clone, Debug)]
pub struct SwipeConfig {
    pub topo: SwipeTopology,
    /// Gradient accumulation steps = microbatches per model replica per step.
    pub gas: usize,
    /// Training steps to run.
    pub n_steps: usize,
    /// Learning rate (constant for these short equivalence runs).
    pub lr: f32,
    /// Base seed for diffusion times and noise fields.
    pub seed: u64,
    pub adamw: AdamWConfig,
    /// Communication timeout / retry policy.
    pub comm: CommConfig,
    /// Injected faults (None = fault-free; hooks stay dormant).
    pub faults: Option<FaultPlan>,
    /// Coordinated checkpointing (None = no checkpoints).
    pub checkpoint: Option<CheckpointConfig>,
    /// Resume from a checkpoint file written by a previous run.
    pub resume_from: Option<PathBuf>,
    /// Span tracer shared into every rank thread. Disabled by default: each
    /// span site then costs one atomic load. Pass `Tracer::enabled()` to
    /// record the full per-rank pipeline timeline (schedule slots, comm ops,
    /// bubbles, optimizer, checkpoints), exportable via
    /// `tracer.chrome_trace()` / the `aeris-obs` MFU report.
    pub tracer: Tracer,
}

impl SwipeConfig {
    /// A minimal configuration for `topo`; override fields with struct-update
    /// syntax (`SwipeConfig { gas: 2, ..SwipeConfig::new(topo) }`).
    pub fn new(topo: SwipeTopology) -> Self {
        SwipeConfig {
            topo,
            gas: 1,
            n_steps: 1,
            lr: 1e-3,
            seed: 0,
            adamw: AdamWConfig::default(),
            comm: CommConfig::default(),
            faults: None,
            checkpoint: None,
            resume_from: None,
            tracer: Tracer::default(),
        }
    }
}

/// Why a checkpoint could not be written or restored.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckpointError {
    /// Filesystem or decode failure (message carries the cause).
    Io(String),
    /// A required entry is absent from the checkpoint file.
    MissingEntry(String),
    /// The checkpoint's model-parallel grid differs from this run's. The
    /// elastic re-shard path accepts any data-parallel width, but pp/wp/sp
    /// shape the parameters themselves and must match exactly.
    TopologyMismatch { checkpoint: SwipeTopology, run: SwipeTopology },
    /// The checkpoint was written under a different base seed; resuming
    /// would silently change every noise and diffusion-time realization.
    SeedMismatch { checkpoint: u64, run: u64 },
    /// A saved tensor's shape does not match the model's.
    ShapeMismatch { name: String },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "I/O failure: {msg}"),
            CheckpointError::MissingEntry(key) => write!(f, "missing entry {key}"),
            CheckpointError::TopologyMismatch { checkpoint: c, run: r } => write!(
                f,
                "model-parallel topology mismatch: checkpoint written at \
                 pp={} wp={}x{} sp={} (dp={}), this run is pp={} wp={}x{} sp={} (dp={}); \
                 only the data-parallel width may differ on restore — relaunch with a \
                 matching pp/wp/sp grid",
                c.pp, c.wp_a, c.wp_b, c.sp, c.dp, r.pp, r.wp_a, r.wp_b, r.sp, r.dp
            ),
            CheckpointError::SeedMismatch { checkpoint, run } => write!(
                f,
                "seed mismatch: checkpoint written with seed {checkpoint}, this run uses \
                 {run}; resume with the checkpoint's seed to reproduce its noise stream"
            ),
            CheckpointError::ShapeMismatch { name } => {
                write!(f, "shape mismatch for {name}")
            }
        }
    }
}

/// A typed distributed-training failure.
#[derive(Clone, Debug, PartialEq)]
pub enum SwipeError {
    /// The model, topology or schedule cannot run together; found before
    /// any rank spawns.
    Config(String),
    /// A communication operation failed (timeout, dead peer, own crash).
    Comm(CommError),
    /// Checkpoint I/O or validation failed.
    Checkpoint(CheckpointError),
    /// Every data-parallel replica was lost to planned crashes.
    AllReplicasLost { step: usize },
}

impl std::fmt::Display for SwipeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwipeError::Config(why) => write!(f, "invalid configuration: {why}"),
            SwipeError::Comm(e) => write!(f, "communication failure: {e}"),
            SwipeError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
            SwipeError::AllReplicasLost { step } => {
                write!(f, "all data-parallel replicas lost by step {step}")
            }
        }
    }
}

impl std::error::Error for SwipeError {}

impl From<CheckpointError> for SwipeError {
    fn from(e: CheckpointError) -> Self {
        SwipeError::Checkpoint(e)
    }
}

impl From<CommError> for SwipeError {
    fn from(e: CommError) -> Self {
        SwipeError::Comm(e)
    }
}

/// A failed run: the first error plus the fault log up to the failure, so
/// callers can still see which faults were injected and recovered before the
/// fatal one.
#[derive(Clone, Debug)]
pub struct TrainFailure {
    pub error: SwipeError,
    pub events: Vec<EventRecord>,
}

impl std::fmt::Display for TrainFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({} fault events logged)", self.error, self.events.len())
    }
}

impl std::error::Error for TrainFailure {}

/// What a training run reports back.
pub struct TrainReport {
    /// Global objective per step (absolute step index; entries before
    /// `start_step` of a resumed run are 0, and entries for steps after all
    /// replicas retired are 0).
    pub losses: Vec<f64>,
    /// First step this run actually executed (>0 when resumed).
    pub start_step: usize,
    /// Communication traffic by class.
    pub traffic: TrafficReport,
    /// Maximum concurrently-live activation elements on any rank.
    pub max_activation_elems: usize,
    /// Final parameters (reference-model names), from the lowest surviving
    /// dp / wp=(0,0) / sp=0 replica of each stage.
    pub final_params: HashMap<String, Tensor>,
    /// The fault log (empty for fault-free runs without checkpoints).
    pub events: Vec<EventRecord>,
    /// Communication operations performed, per rank.
    pub comm_ops: Vec<u64>,
}

/// The shared diffusion time for (step, dp, microbatch): identical on every
/// model-parallel rank, independent across data-parallel replicas.
pub fn shared_t(tf: &TrigFlow, seed: u64, step: usize, dp: usize, m: usize) -> f32 {
    let key = (step as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add((dp as u64) << 32)
        .wrapping_add(m as u64);
    let mut rng = Rng::seed_from(seed ^ 0x7117).stream(key);
    tf.sample_t(&mut rng)
}

/// Deterministic per-token Gaussian noise rows: spatially uncorrelated and
/// independent per sample, but reproducible by any rank that knows the token
/// ids (the first and last pipeline stages need the same `z`).
pub fn noise_rows(seed: u64, sample: usize, tokens: &[usize], channels: usize) -> Tensor {
    let base = Rng::seed_from(seed ^ 0x2077).stream(sample as u64);
    let mut out = Tensor::zeros(&[tokens.len(), channels]);
    for (r, &tok) in tokens.iter().enumerate() {
        let mut rng = base.stream(tok as u64 + 1);
        for c in 0..channels {
            *out.at_mut(&[r, c]) = rng.normal();
        }
    }
    out
}

/// Single-rank reference: the identical objective, noise, and gradient
/// averaging as one distributed step, computed on the full model. Returns
/// (mean loss, per-parameter-name gradients).
pub fn reference_grads(
    model: &AerisModel,
    source: &dyn WindowSource,
    step_schedule: &[Vec<usize>],
    weights: &Tensor,
    seed: u64,
    step: usize,
) -> (f64, HashMap<String, Tensor>) {
    let tf = TrigFlow::default();
    let tokens: Vec<usize> = (0..model.cfg.tokens()).collect();
    // The dp × micro schedule, flattened in replica-major order.
    let per_sample = step_schedule.iter().enumerate().flat_map(|(dp, micro)| {
        micro.iter().enumerate().map(move |(m, &sample)| (dp, m, sample))
    });
    let (loss, grads) = batch_mean(
        model.store.len(),
        per_sample.map(|(dp, m, sample)| {
            let t = shared_t(&tf, seed, step, dp, m);
            let x0 = source.load_rows(sample, Field::Residual, &tokens);
            let prev = source.load_rows(sample, Field::Prev, &tokens);
            let forc = source.load_rows(sample, Field::Forcing, &tokens);
            let z = noise_rows(seed, sample, &tokens, model.cfg.channels);
            let x_t = tf.interpolate(&x0, &z, t);
            let v_target = tf.velocity_target(&x0, &z, t);
            model.loss_and_grads(&x_t, &prev, &forc, t, &v_target, weights)
        }),
    );
    let by_name = grads
        .into_iter()
        .enumerate()
        .filter_map(|(i, g)| Some((model.store.name(ParamId(i)).to_string(), g?)))
        .collect();
    (loss, by_name)
}

/// State recovered from a checkpoint file before ranks spawn.
struct ResumeState {
    /// First step the resumed run executes.
    start_step: usize,
    /// AdamW step counter at the checkpoint.
    adamw_steps: u64,
    /// Reference model with checkpointed parameters.
    model: AerisModel,
    /// `opt.m/<name>` / `opt.v/<name>` entries for optimizer rehydration.
    moments: HashMap<String, Tensor>,
}

fn ckpt_io(msg: impl std::fmt::Display) -> SwipeError {
    SwipeError::Checkpoint(CheckpointError::Io(msg.to_string()))
}

/// Load and validate a checkpoint written by [`run_rank`]'s save protocol.
///
/// Restore is world-size independent across the data-parallel axis: the file
/// holds the full (replicated) parameter set and the full moment tensor of
/// every parameter, so any DP width can re-derive its within-replica ZeRO-1
/// ownership positionally. Only the model-parallel grid (pp/wp/sp), which
/// shapes the stage shards themselves, and the seed, which drives the noise
/// stream, are required to match.
fn load_resume_state(
    reference: &AerisModel,
    cfg: &SwipeConfig,
    path: &Path,
) -> Result<ResumeState, SwipeError> {
    let entries = load_entries(path).map_err(ckpt_io)?;
    let map: HashMap<String, Tensor> = entries.into_iter().collect();
    let get_u64 = |key: &str| -> Result<u64, SwipeError> {
        entry_u64(
            map.get(key)
                .ok_or_else(|| CheckpointError::MissingEntry(key.to_string()))?,
        )
        .map_err(ckpt_io)
    };
    let start_step = get_u64("meta/step")? as usize;
    let adamw_steps = get_u64("meta/adamw_steps")?;
    let ckpt_topo = SwipeTopology {
        dp: get_u64("meta/topo_dp")? as usize,
        pp: get_u64("meta/topo_pp")? as usize,
        wp_a: get_u64("meta/topo_wp_a")? as usize,
        wp_b: get_u64("meta/topo_wp_b")? as usize,
        sp: get_u64("meta/topo_sp")? as usize,
    };
    let run = cfg.topo;
    if (ckpt_topo.pp, ckpt_topo.wp_a, ckpt_topo.wp_b, ckpt_topo.sp)
        != (run.pp, run.wp_a, run.wp_b, run.sp)
    {
        return Err(CheckpointError::TopologyMismatch { checkpoint: ckpt_topo, run }.into());
    }
    let saved_seed = get_u64("meta/seed")?;
    if saved_seed != cfg.seed {
        return Err(CheckpointError::SeedMismatch { checkpoint: saved_seed, run: cfg.seed }.into());
    }
    let mut model = AerisModel::new(reference.cfg.clone());
    let ids: Vec<(ParamId, String)> =
        model.store.iter().map(|(id, n, _)| (id, n.to_string())).collect();
    for (id, name) in ids {
        let saved = map
            .get(&format!("param/{name}"))
            .ok_or_else(|| CheckpointError::MissingEntry(format!("param/{name}")))?;
        if saved.shape() != model.store.get(id).shape() {
            return Err(CheckpointError::ShapeMismatch { name }.into());
        }
        *model.store.get_mut(id) = saved.clone();
    }
    let moments = map.into_iter().filter(|(k, _)| k.starts_with("opt.")).collect();
    Ok(ResumeState { start_step, adamw_steps, model, moments })
}

/// Read just the resume step (`meta/step`) of a checkpoint file.
pub fn checkpoint_step(path: &Path) -> Result<usize, SwipeError> {
    let entries = load_entries(path).map_err(ckpt_io)?;
    let t = entries
        .iter()
        .find(|(k, _)| k == "meta/step")
        .map(|(_, t)| t)
        .ok_or_else(|| CheckpointError::MissingEntry("meta/step".to_string()))?;
    Ok(entry_u64(t).map_err(ckpt_io)? as usize)
}

/// Check that the model, topology and schedule can run together, so a bad
/// configuration fails before any rank spawns instead of panicking inside
/// one while its peers wait out the comm deadline.
fn check_config(
    reference: &AerisModel,
    cfg: &SwipeConfig,
    schedule: &[Vec<Vec<usize>>],
) -> Result<(), SwipeError> {
    let (m, topo) = (&reference.cfg, cfg.topo);
    let grid = WindowGrid::new(m.grid_h, m.grid_w, m.window.0, m.window.1);
    let blocks = reference.blocks.len();
    let shape_ok = schedule.len() == cfg.n_steps
        && schedule.iter().all(|s| s.len() == topo.dp && s.iter().all(|mb| mb.len() == cfg.gas));
    let checks = [
        (
            blocks > 0 && topo.pp == blocks + 2,
            format!("pp = {} must equal blocks + 2 = {} (separate I/O stages)", topo.pp, blocks + 2),
        ),
        (
            m.blocks_per_layer == 1,
            format!("blocks_per_layer = {}, but a stage holds one block per layer", m.blocks_per_layer),
        ),
        (
            m.n_heads.is_multiple_of(topo.sp),
            format!("sp = {} must divide n_heads = {}", topo.sp, m.n_heads),
        ),
        (
            grid.rows().is_multiple_of(topo.wp_a) && grid.cols().is_multiple_of(topo.wp_b),
            format!(
                "wp = {}x{} must divide the {}x{} window grid",
                topo.wp_a,
                topo.wp_b,
                grid.rows(),
                grid.cols()
            ),
        ),
        (
            grid.window_len().is_multiple_of(topo.sp),
            format!("sp = {} must divide the {}-token window", topo.sp, grid.window_len()),
        ),
        (cfg.gas >= 1, "gas must be at least 1".to_string()),
        (
            shape_ok,
            format!(
                "schedule must be [n_steps = {}][dp = {}][gas = {}] sample indices",
                cfg.n_steps, topo.dp, cfg.gas
            ),
        ),
    ];
    match checks.into_iter().find(|(ok, _)| !ok) {
        Some((_, why)) => Err(SwipeError::Config(why)),
        None => Ok(()),
    }
}

/// The distributed trainer entry point.
pub struct DistributedTrainer;

impl DistributedTrainer {
    /// Run `cfg.n_steps` of SWiPe training starting from `reference`'s
    /// parameters (or from `cfg.resume_from`'s checkpoint). `schedule[step]
    /// [dp]` lists the GAS sample indices each data-parallel replica consumes
    /// at that step.
    ///
    /// Fails with a typed [`TrainFailure`] — carrying the fault log — if the
    /// configuration cannot run ([`SwipeError::Config`], before any rank
    /// spawns), a rank dies mid-step or a communication deadline expires;
    /// completes with a degraded (DP-shrunk) run when crashes are planned at
    /// step boundaries.
    pub fn train(
        reference: &AerisModel,
        cfg: &SwipeConfig,
        source: &(dyn WindowSource + Sync),
        schedule: &[Vec<Vec<usize>>],
        weights: &Tensor,
    ) -> Result<TrainReport, TrainFailure> {
        check_config(reference, cfg, schedule)
            .map_err(|error| TrainFailure { error, events: Vec::new() })?;
        let topo = cfg.topo;
        let world =
            World::with_config(topo.world_size(), cfg.comm, cfg.faults.clone(), cfg.tracer.clone());
        let fail = |error: SwipeError, world: &World| TrainFailure {
            error,
            events: world.events().snapshot(),
        };

        let resume = match &cfg.resume_from {
            Some(path) => match load_resume_state(reference, cfg, path) {
                Ok(r) => Some(r),
                Err(e) => return Err(fail(e, &world)),
            },
            None => None,
        };
        let job = Job {
            cfg,
            reference: resume.as_ref().map_or(reference, |r| &r.model),
            source,
            schedule,
            weights,
            resume: resume.as_ref(),
            losses: Mutex::new(vec![0.0; cfg.n_steps]),
            final_params: Mutex::new(HashMap::new()),
            ckpt_buf: Mutex::new(HashMap::new()),
            max_act: AtomicUsize::new(0),
        };
        let errors: Mutex<Vec<SwipeError>> = Mutex::new(Vec::new());

        std::thread::scope(|scope| {
            for rank in 0..topo.world_size() {
                let comm = world.communicator(rank);
                let (world, job, errors) = (world.clone(), &job, &errors);
                scope.spawn(move || {
                    if let Err(e) = run_rank(comm, job) {
                        // A failed rank can no longer feed its peers: mark it
                        // dead so their waits collapse into fast PeerDead
                        // errors instead of sleeping out the full deadline.
                        world.mark_dead(rank);
                        errors.lock().push(e);
                    }
                });
            }
        });

        if let Some(e) = errors.into_inner().into_iter().next() {
            return Err(fail(e, &world));
        }
        Ok(TrainReport {
            losses: job.losses.into_inner(),
            start_step: resume.as_ref().map_or(0, |r| r.start_step),
            traffic: world.traffic(),
            max_activation_elems: job.max_act.load(Ordering::Relaxed),
            final_params: job.final_params.into_inner(),
            events: world.events().snapshot(),
            comm_ops: world.op_counts(),
        })
    }
}

/// One training run as every rank thread sees it: the inputs, the resume
/// state, and the sinks ranks report into.
struct Job<'a> {
    cfg: &'a SwipeConfig,
    /// Starting parameters (the checkpoint's when resuming).
    reference: &'a AerisModel,
    source: &'a (dyn WindowSource + Sync),
    schedule: &'a [Vec<Vec<usize>>],
    weights: &'a Tensor,
    resume: Option<&'a ResumeState>,
    losses: Mutex<Vec<f64>>,
    final_params: Mutex<HashMap<String, Tensor>>,
    ckpt_buf: Mutex<HashMap<String, Tensor>>,
    max_act: AtomicUsize,
}

/// Hybrid ZeRO-1 (ORBIT-style) for one rank: which group reduces each stage
/// parameter's gradient, which rank owns its AdamW moments, and the moments.
///
/// Moments shard *within* each data-parallel replica and replicate *across*
/// replicas. Every owner sees the same reduced gradient and therefore the
/// same moment history, so parameters evolve bitwise as with global sharding
/// — but the owner groups never change size when replicas retire or rejoin,
/// which keeps ownership stable under membership churn and lets any live
/// replica re-shard a rejoining one positionally. Gradient reduction still
/// spans the full cross-replica groups, shrunk to the live replicas.
struct Zero1 {
    rank: usize,
    opt: AdamW,
    /// Per parameter: a shared time-conditioner parameter? Those live in
    /// every block stage (not in the edge stages), so they reduce over and
    /// shard across all block stages instead of this stage's ranks.
    shared: Vec<bool>,
    /// Owner groups within this rank's replica: `[stage-local, shared]`.
    owners: [Vec<usize>; 2],
    /// Reduction groups over all replicas, and over this step's live ones.
    reduce_all: [Vec<usize>; 2],
    reduce_live: [Vec<usize>; 2],
}

impl Zero1 {
    fn new(topo: &SwipeTopology, rank: usize, stage_model: &StageModel, adamw: AdamWConfig) -> Self {
        let coords = topo.coords_of(rank);
        let shared_ixs = stage_model.shared_param_ixs();
        let reduce_all = [topo.grad_group(coords), topo.block_stage_ranks()];
        Zero1 {
            rank,
            opt: AdamW::new(&stage_model.store, adamw),
            shared: (0..stage_model.store.len()).map(|i| shared_ixs.contains(&i)).collect(),
            owners: [topo.replica_grad_group(coords), topo.replica_shared_group(coords.dp)],
            reduce_live: reduce_all.clone(),
            reduce_all,
        }
    }

    /// Shrink the reduction groups to the replicas live this step.
    fn set_live(&mut self, topo: &SwipeTopology, dead_dps: &[usize]) {
        self.reduce_live = self.reduce_all.each_ref().map(|g| topo.filter_live(g, dead_dps));
    }

    /// The live group that reduces parameter `i`'s gradient.
    fn reduce_group(&self, i: usize) -> &[usize] {
        &self.reduce_live[self.shared[i] as usize]
    }

    /// Parameter `i`'s owner group within the replica, and the owner's index.
    fn owner(&self, i: usize) -> (&[usize], usize) {
        let group = &self.owners[self.shared[i] as usize];
        (group, i % group.len())
    }

    /// Whether this rank owns parameter `i` (updates it, holds its moments).
    fn owns(&self, i: usize) -> bool {
        let (group, ix) = self.owner(i);
        group[ix] == self.rank
    }

    /// Install the `(m, v)` moments of every parameter this rank owns, taken
    /// in store order from `next(name)`, and the AdamW step counter. Both
    /// checkpoint resume and the rejoin re-shard restore through here.
    fn install_moments(
        &mut self,
        store: &ParamStore,
        steps: u64,
        mut next: impl FnMut(&str) -> Result<(Tensor, Tensor), SwipeError>,
    ) -> Result<(), SwipeError> {
        for i in 0..store.len() {
            if !self.owns(i) {
                continue;
            }
            let name = store.name(ParamId(i));
            let (m, v) = next(name)?;
            let (m_slot, v_slot) = self.opt.state_mut(i);
            if m.shape() != m_slot.shape() || v.shape() != v_slot.shape() {
                return Err(CheckpointError::ShapeMismatch { name: name.to_string() }.into());
            }
            (*m_slot, *v_slot) = (m, v);
        }
        self.opt.set_steps(steps);
        Ok(())
    }
}

/// The data-parallel replicas dead at `step` under the fault plan, sorted.
fn dead_dps_at(topo: &SwipeTopology, plan: Option<&FaultPlan>, step: usize) -> Vec<usize> {
    plan.map_or_else(Vec::new, |p| topo.dead_dps(&p.dead_ranks_at(step)))
}

/// The canonical replica is the lowest live dp: its wp (0,0), sp 0 ranks
/// hold one copy of every parameter and its ZeRO-1 owners one copy of every
/// moment. Returns (`coords` is on it, `coords` holds its parameter copy).
fn canonical(topo: &SwipeTopology, coords: RankCoords, dead_dps: &[usize]) -> (bool, bool) {
    let dp = (0..topo.dp).find(|dp| !dead_dps.contains(dp)).unwrap_or(0);
    let on = coords.dp == dp;
    (on, on && coords.wp_row == 0 && coords.wp_col == 0 && coords.sp == 0)
}

/// One rank's side of a stage-to-stage relayout: per peer rank, the local
/// rows exchanged with it, in message order.
type Route = Vec<(usize, Vec<usize>)>;

/// Send `value`'s rows to each peer of `route`: activations to the next
/// stage, input gradients back to the previous one.
fn send_rows(comm: &mut Communicator, route: &Route, value: &Tensor) -> Result<(), CommError> {
    for (peer, rows) in route {
        comm.send(*peer, CommClass::P2p, vec![gather(value, rows)])?;
    }
    Ok(())
}

/// Receive each peer's rows of `route` into a `[rows, dim]` matrix: the
/// pipeline wait, so it runs inside a Bubble span.
fn recv_rows(
    comm: &mut Communicator,
    route: &Route,
    rows: usize,
    dim: usize,
) -> Result<Tensor, CommError> {
    let _bubble = comm.trace_span(SpanCategory::Bubble);
    let mut out = Tensor::zeros(&[rows, dim]);
    for (peer, local_rows) in route {
        let payload = comm.recv(*peer)?.pop().unwrap();
        for (i, &r) in local_rows.iter().enumerate() {
            out.row_mut(r).copy_from_slice(payload.row(i));
        }
    }
    Ok(out)
}

/// One rank's run: setup, then per step the elastic boundary, the 1F1B
/// pipeline over its stage, gradient reduction, the ZeRO-1 update, loss
/// reporting and the optional checkpoint.
fn run_rank(mut comm: Communicator, job: &Job) -> Result<(), SwipeError> {
    let (cfg, reference) = (job.cfg, job.reference);
    let topo = cfg.topo;
    let coords = topo.coords_of(comm.rank());
    let mcfg = &reference.cfg;
    let tf = TrigFlow::default();
    let start_step = job.resume.map_or(0, |r| r.start_step);

    let mut stage_model = StageModel::from_reference(reference, coords.stage);
    let mut zero1 = Zero1::new(&topo, comm.rank(), &stage_model, cfg.adamw);
    if let Some(r) = job.resume {
        zero1.install_moments(&stage_model.store, r.adamw_steps, |name| {
            let get = |key: String| {
                r.moments.get(&key).cloned().ok_or(CheckpointError::MissingEntry(key))
            };
            Ok((get(format!("opt.m/{name}"))?, get(format!("opt.v/{name}"))?))
        })?;
    }

    // A block stage uses its block's layout; the input stage shares the
    // first block's and the head the last block's. Activations arrive over
    // `inbound` and leave over `outbound`; gradients retrace both backwards.
    let grid = WindowGrid::new(mcfg.grid_h, mcfg.grid_w, mcfg.window.0, mcfg.window.1);
    let layout = |stage: usize| {
        let shifted = reference.blocks[stage.clamp(1, topo.pp - 2) - 1].shifted;
        ActLayout::new(grid, shifted, topo.wp_a, topo.wp_b, topo.sp)
    };
    let my_layout = layout(coords.stage);
    let (ra, rb, sp) = (coords.wp_row, coords.wp_col, coords.sp);
    let peer = |c: RankCoords, (wp_row, wp_col, sp): (usize, usize, usize)| {
        topo.rank_of(RankCoords { wp_row, wp_col, sp, ..c })
    };
    let inbound: Option<Route> = topo.prev_stage(coords).map(|prev| {
        ActLayout::routing_from(&layout(prev.stage), &my_layout, ra, rb, sp)
            .into_iter()
            .map(|(src, msg)| (peer(prev, src), msg.dst_rows))
            .collect()
    });
    let outbound: Option<Route> = topo.next_stage(coords).map(|next| {
        my_layout
            .routing_to(&layout(next.stage), ra, rb, sp)
            .into_iter()
            .map(|msg| (peer(next, msg.dst), msg.src_rows))
            .collect()
    });

    let rope = RopeTable::new(mcfg.window.0, mcfg.window.1, mcfg.head_dim(), 0, 0);
    let sp_group = topo.sp_group(coords);
    let my_tokens = my_layout.tokens_of(ra, rb, sp);
    let my_pos = Tensor::from_slice(
        &my_tokens.iter().map(|&tok| reference.pos_field.data()[tok]).collect::<Vec<_>>(),
    );
    let weight_rows = gather(job.weights, &my_tokens);
    let ctx =
        StageCtx { layout: &my_layout, rope: &rope, sp_group: &sp_group, weight_rows: &weight_rows };
    let (rows, dim) = (my_layout.rows_per_rank(), mcfg.dim);
    // Data entry, on this rank's token rows: the input stage builds its
    // input around x_t, the head loads its velocity target.
    let load = |sample: usize, field: Field| job.source.load_rows(sample, field, &my_tokens);
    let noise = |sample: usize| noise_rows(cfg.seed, sample, &my_tokens, mcfg.channels);
    let input_rows = |sample: usize, t: f32| {
        let x_t = tf.interpolate(&load(sample, Field::Residual), &noise(sample), t);
        let (prev, forc) = (load(sample, Field::Prev), load(sample, Field::Forcing));
        let cat = Tensor::concat_cols(&[&x_t, &prev, &forc]);
        aeris_nn::posenc::add_pos_encoding(&cat, &my_pos)
    };
    let target_rows =
        |sample: usize, t: f32| tf.velocity_target(&load(sample, Field::Residual), &noise(sample), t);
    let is_head = matches!(stage_model.stage, Stage::Head { .. });

    let actions = one_f_one_b(coords.stage, topo.pp, cfg.gas);
    let tracer = comm.world().tracer().clone();
    let plan = cfg.faults.as_ref();
    let all_ranks = topo.all_ranks();
    let mut prev_live_dp = topo.dp;
    // Elastic state: `Some(guard)` while this rank is parked waiting out a
    // fault window; the open Outage span closes at rejoin, so balanced
    // Outage pairs prove every parked replica that was due back came back.
    let mut outage: Option<aeris_obs::SpanGuard> = None;
    let mut was_out = false;

    for step in start_step..cfg.n_steps {
        comm.set_trace_step(step as u64);
        // ---- step-boundary fault-plan reconfiguration ----
        // The plan is shared knowledge: every rank derives the same dead set
        // for this step without any agreement protocol.
        let crashed_now = comm.planned_crash(step);
        let dead_dps = dead_dps_at(&topo, plan, step);
        let live_dp = topo.dp - dead_dps.len();
        let all_live = topo.filter_live(&all_ranks, &dead_dps);
        if live_dp != prev_live_dp {
            prev_live_dp = live_dp;
            if Some(&comm.rank()) == all_live.first() {
                comm.world()
                    .events()
                    .record(comm.rank(), FaultEvent::GroupRescaled { step, live_dp });
            }
        }
        if dead_dps.contains(&coords.dp) {
            if !was_out {
                // Transition: a member of my replica crashed, and the whole
                // replica leaves together (the crasher itself already logged
                // RankCrashed inside `planned_crash`).
                if !crashed_now {
                    comm.world().events().record(
                        comm.rank(),
                        FaultEvent::ReplicaRetired { rank: comm.rank(), dp: coords.dp, step },
                    );
                }
                if dead_dps.len() == topo.dp {
                    return Err(SwipeError::AllReplicasLost { step });
                }
                // Park only if the replica is scheduled to come back inside
                // this run; otherwise retire for good (the shrink-only path).
                let rejoins = plan.is_some()
                    && (step + 1..cfg.n_steps)
                        .any(|s| !dead_dps_at(&topo, plan, s).contains(&coords.dp));
                if !rejoins {
                    return Ok(());
                }
                was_out = true;
                outage = Some(tracer.span(SpanCategory::Outage, comm.rank()).step(step as u64));
            }
            // Parked: skip the step without touching the world — peers use
            // groups that exclude this replica until the window closes.
            continue;
        }

        // ---- elastic rejoin preamble ----
        // Every live rank re-admits the ranks whose fault window ends at
        // this boundary *before issuing any step traffic*, so nobody can
        // observe a stale dead flag on a peer it is about to wait on (the
        // revive is idempotent across ranks).
        let rejoining_dps: Vec<usize> = if step > start_step {
            dead_dps_at(&topo, plan, step - 1)
                .into_iter()
                .filter(|dp| !dead_dps.contains(dp))
                .collect()
        } else {
            Vec::new()
        };
        for &dp in &rejoining_dps {
            for stage in 0..topo.pp {
                for r in topo.stage_ranks(dp, stage) {
                    comm.world().revive(r);
                }
            }
        }
        if was_out {
            // This rank is rejoining: close the outage window and receive a
            // re-sharded copy of a live replica's state.
            was_out = false;
            drop(outage.take());
            let event = if plan
                .and_then(|p| p.crash_step(comm.rank()))
                .is_some_and(|c| c < step)
            {
                FaultEvent::RankRejoined { rank: comm.rank(), step }
            } else {
                FaultEvent::ReplicaRejoined { rank: comm.rank(), dp: coords.dp, step }
            };
            comm.world().events().record(comm.rank(), event);
            let donor_dp = donor_dp(&topo, &dead_dps, &rejoining_dps)
                .ok_or(SwipeError::AllReplicasLost { step })?;
            let donor = topo.rank_of(RankCoords { dp: donor_dp, ..coords });
            let _reshard = comm.trace_span(SpanCategory::Recovery).label("reshard_recv");
            let payload = comm.recv(donor)?;
            apply_rejoin_state(&mut stage_model, &mut zero1, payload)?;
        } else if !rejoining_dps.is_empty() && donor_dp(&topo, &dead_dps, &rejoining_dps) == Some(coords.dp)
        {
            // Donor side: the lowest replica that stayed live across the
            // boundary re-shards its state to each rejoining replica's
            // same-coordinates rank.
            let _reshard = comm.trace_span(SpanCategory::Recovery).label("reshard_send");
            let payload = rejoin_state_payload(&stage_model, &zero1);
            for &dp in &rejoining_dps {
                let dst = topo.rank_of(RankCoords { dp, ..coords });
                comm.send(dst, CommClass::AllGather, payload.clone())?;
            }
        }
        zero1.set_live(&topo, &dead_dps);

        // ---- the 1F1B pipeline: receive, run the stage, send ----
        let mut runs: HashMap<usize, StageRun> = HashMap::new();
        let mut grads: Vec<Option<Tensor>> = vec![None; stage_model.store.len()];
        let mut my_loss = 0.0f64;
        for action in &actions {
            match *action {
                Action::Forward(m) => {
                    comm.set_trace_micro(Some(m as u64));
                    let sample = job.schedule[step][coords.dp][m];
                    let t = shared_t(&tf, cfg.seed, step, coords.dp, m);
                    let x_in = inbound.as_ref().map(|r| recv_rows(&mut comm, r, rows, dim)).transpose()?;
                    let run = {
                        let _fwd = comm.trace_span(SpanCategory::Forward);
                        let x_in = x_in.unwrap_or_else(|| input_rows(sample, t));
                        let target = is_head.then(|| target_rows(sample, t));
                        stage_model.forward(x_in, target.as_ref(), t, &ctx, &mut comm)?
                    };
                    if let Some(route) = &outbound {
                        send_rows(&mut comm, route, run.tape.value(run.out))?;
                    }
                    my_loss += run.loss;
                    runs.insert(m, run);
                }
                Action::Backward(m) => {
                    comm.set_trace_micro(Some(m as u64));
                    let run = runs.remove(&m).expect("forward before backward");
                    let g_out = outbound.as_ref().map(|r| recv_rows(&mut comm, r, rows, dim)).transpose()?;
                    let g_in = {
                        let _bwd = comm.trace_span(SpanCategory::Backward);
                        stage_model.backward(run, g_out, &ctx, &mut comm, &mut grads)?
                    };
                    if let (Some(route), Some(g_in)) = (&inbound, g_in) {
                        send_rows(&mut comm, route, &g_in)?;
                    }
                }
            }
            // Activation accounting: all in-flight microbatch tapes.
            let live: usize = runs.values().map(|r| r.activation_elems()).sum();
            job.max_act.fetch_max(live, Ordering::Relaxed);
        }

        // ---- gradient reduction (rescaled to the surviving global batch) ----
        // Only a parameter's owner keeps the reduced gradient: it alone
        // updates the parameter.
        comm.set_trace_micro(None);
        let gbs = (live_dp * cfg.gas) as f32;
        for i in 0..grads.len() {
            let local = grads[i]
                .take()
                .unwrap_or_else(|| Tensor::zeros(stage_model.store.get(ParamId(i)).shape()));
            let mut reduced = comm.allreduce_sum(zero1.reduce_group(i), &local)?;
            reduced.scale_inplace(1.0 / gbs);
            grads[i] = zero1.owns(i).then_some(reduced);
        }

        // ---- ZeRO-1 update: owners step AdamW, then broadcast in-replica ----
        let _opt_span = comm.trace_span(SpanCategory::OptimizerStep);
        zero1.opt.step(&mut stage_model.store, &grads, cfg.lr);
        for i in 0..grads.len() {
            let (group, owner_ix) = zero1.owner(i);
            let value = zero1.owns(i).then(|| stage_model.store.get(ParamId(i)).clone());
            *stage_model.store.get_mut(ParamId(i)) = comm.broadcast(group, owner_ix, value)?;
        }
        drop(_opt_span);

        // ---- loss reporting: sum local head losses over live ranks ----
        let loss_sum = comm
            .allreduce_sum(&all_live, &Tensor::from_slice(&[my_loss as f32]))?
            .data()[0] as f64;
        if comm.rank() == all_live[0] {
            job.losses.lock()[step] = loss_sum / (live_dp * cfg.gas) as f64;
        }

        // ---- coordinated checkpoint ----
        if cfg.checkpoint.as_ref().is_some_and(|c| c.every > 0 && (step + 1) % c.every == 0) {
            let _ckpt = comm.trace_span(SpanCategory::Checkpoint);
            save_checkpoint(&mut comm, job, &stage_model, &zero1, &all_live, &dead_dps, step)?;
        }
    }

    // Contribute final params from the canonical replica.
    let final_dead = dead_dps_at(&topo, plan, cfg.n_steps.saturating_sub(1));
    if canonical(&topo, coords, &final_dead).1 {
        let mut fp = job.final_params.lock();
        for (_, name, v) in stage_model.store.iter() {
            // Shared params exist on every block stage; one copy suffices
            // (they are kept in sync by construction).
            fp.entry(name.to_string()).or_insert_with(|| v.clone());
        }
    }
    Ok(())
}

/// Coordinated checkpoint save: each rank contributes its slice into the
/// shared buffer, everyone synchronizes, and the lowest live rank writes the
/// file. The [`canonical`] replica covers everything (moments are replicated
/// across replicas under hybrid sharding, so one replica's copy is the global
/// truth). The result is world-size independent along the data-parallel axis
/// — any DP width restores it by re-deriving positional ownership.
fn save_checkpoint(
    comm: &mut Communicator,
    job: &Job,
    stage_model: &StageModel,
    zero1: &Zero1,
    all_live: &[usize],
    dead_dps: &[usize],
    step: usize,
) -> Result<(), SwipeError> {
    let (cfg, topo) = (job.cfg, job.cfg.topo);
    let ck = cfg.checkpoint.as_ref().expect("checkpointing is configured");
    let (on_canonical, holds_params) = canonical(&topo, topo.coords_of(comm.rank()), dead_dps);
    {
        let mut buf = job.ckpt_buf.lock();
        for (id, name, value) in stage_model.store.iter() {
            if holds_params {
                buf.insert(format!("param/{name}"), value.clone());
            }
            if on_canonical && zero1.owns(id.0) {
                let (m, v) = zero1.opt.state(id.0);
                buf.insert(format!("opt.m/{name}"), m.clone());
                buf.insert(format!("opt.v/{name}"), v.clone());
            }
        }
    }
    // All contributions in before the writer drains the buffer.
    comm.barrier(all_live)?;
    if comm.rank() == all_live[0] {
        let mut entries: Vec<(String, Tensor)> = {
            let mut buf = job.ckpt_buf.lock();
            std::mem::take(&mut *buf).into_iter().collect()
        };
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.push(u64_entry("meta/step", (step + 1) as u64));
        entries.push(u64_entry("meta/adamw_steps", zero1.opt.steps()));
        entries.push(u64_entry("meta/world", topo.world_size() as u64));
        entries.push(u64_entry("meta/seed", cfg.seed));
        entries.push(u64_entry("meta/topo_dp", topo.dp as u64));
        entries.push(u64_entry("meta/topo_pp", topo.pp as u64));
        entries.push(u64_entry("meta/topo_wp_a", topo.wp_a as u64));
        entries.push(u64_entry("meta/topo_wp_b", topo.wp_b as u64));
        entries.push(u64_entry("meta/topo_sp", topo.sp as u64));
        let path = ck.dir.join(format!("step_{:06}.ckpt", step + 1));
        std::fs::create_dir_all(&ck.dir).map_err(ckpt_io)?;
        save_entries(&entries, &path).map_err(ckpt_io)?;
        comm.world().events().record(
            comm.rank(),
            FaultEvent::CheckpointSaved { next_step: step + 1, path: path.display().to_string() },
        );
    }
    // Nobody races into the next checkpoint's contributions while the writer
    // is still draining this one.
    comm.barrier(all_live)?;
    Ok(())
}

/// The replica that re-shards state to rejoiners at a boundary: the lowest
/// dp that is live this step and did not itself just rejoin (its state spans
/// the whole outage). `None` when every live replica is freshly rejoining —
/// the run's state is unrecoverable in-world and the supervisor must restore
/// from a checkpoint.
fn donor_dp(topo: &SwipeTopology, dead_dps: &[usize], rejoining_dps: &[usize]) -> Option<usize> {
    (0..topo.dp).find(|dp| !dead_dps.contains(dp) && !rejoining_dps.contains(dp))
}

/// The single-message state transfer a donor sends each rejoiner: every
/// stage parameter in store order, then the (m, v) moment pair of each
/// parameter this position owns, then the bit-encoded AdamW step counter.
/// The rejoiner's same-coordinates rank owns exactly the same positions, so
/// no index map is transferred.
fn rejoin_state_payload(stage_model: &StageModel, zero1: &Zero1) -> Vec<Tensor> {
    let store = &stage_model.store;
    let mut payload: Vec<Tensor> = store.iter().map(|(_, _, v)| v.clone()).collect();
    for i in (0..store.len()).filter(|&i| zero1.owns(i)) {
        let (m, v) = zero1.opt.state(i);
        payload.extend([m.clone(), v.clone()]);
    }
    payload.push(u64_entry("", zero1.opt.steps()).1);
    payload
}

/// Apply a donor's re-shard payload (inverse of [`rejoin_state_payload`];
/// both sides derive the owned set positionally, so a short or long payload
/// is a protocol bug, not a runtime condition — hence the panics).
fn apply_rejoin_state(
    stage_model: &mut StageModel,
    zero1: &mut Zero1,
    mut payload: Vec<Tensor>,
) -> Result<(), SwipeError> {
    let steps = entry_u64(&payload.pop().expect("re-shard payload missing the step counter"))
        .expect("malformed step counter in re-shard payload");
    let mut it = payload.into_iter();
    let store = &mut stage_model.store;
    for i in 0..store.len() {
        let fresh = it.next().expect("re-shard payload missing a parameter");
        assert_eq!(fresh.shape(), store.get(ParamId(i)).shape());
        *store.get_mut(ParamId(i)) = fresh;
    }
    zero1.install_moments(store, steps, |_| {
        let mut moment = || it.next().expect("re-shard payload missing a moment");
        Ok((moment(), moment()))
    })?;
    assert!(it.next().is_none(), "re-shard payload has trailing tensors");
    Ok(())
}
