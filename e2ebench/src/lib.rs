//! End-to-end and per-layer benchmark of the AERIS serve engine and trainer.
//!
//! Two workloads — `serve_capacity` and `train` — each built from a seed.
//! An untraced run prints the end-to-end metrics; a traced run records
//! spans (on an `aeris_obs::Tracer`) around every call the benchmark makes
//! into a layer, runs the per-layer probes (and, for `serve_capacity`, the
//! open-loop serving mix), and prints the per-layer metrics. See
//! `README.md` in this directory.
//!
//! Span actors: 0 is a workload's main thread, 1 the mix's generator
//! thread, 2 the probes.

pub mod models;
pub mod plan;
pub mod probes;
pub mod report;
pub mod serve;
pub mod stats;
pub mod train;

use aeris_obs::Tracer;
use report::{Ledger, Metrics};
use std::path::PathBuf;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["serve_capacity", "train"];

/// Per-layer metric families the open-loop mix reports in
/// `serve_capacity`'s traced run.
pub const MIX_FAMILIES: &[&str] = &["serve.", "sched.", "loadgen."];

/// One run's settings.
pub struct RunCtx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Records the run's spans; enabled only on a traced run.
    pub tracer: Tracer,
    /// Where saved weights and span files go.
    pub out_dir: PathBuf,
}

/// What a workload (or the open-loop mix) hands back.
pub struct WorkloadRun {
    pub ledger: Ledger,
    pub metrics: Metrics,
    /// Traced and untraced units of one run, where units run one after
    /// another. `None` where they share work (served requests share
    /// micro-batches), so a per-unit split cannot see what tracing costs.
    pub split: Option<UnitSplit>,
}

impl WorkloadRun {
    /// Fold in the open-loop mix: its gates, and its metrics of the
    /// [`MIX_FAMILIES`].
    pub fn absorb_mix(&mut self, mix: WorkloadRun) {
        self.ledger.attempted += mix.ledger.attempted;
        self.ledger.failures.extend(mix.ledger.failures);
        for (name, value) in mix.metrics.iter() {
            if MIX_FAMILIES.iter().any(|f| name.starts_with(f)) {
                self.metrics.set(name, value);
            }
        }
    }
}

/// Whether a traced run traces `unit`. Odd units run untraced, so one
/// traced run compares both halves to measure its own overhead.
pub fn traces_unit(unit: u64) -> bool {
    unit.is_multiple_of(2)
}

/// A traced run records spans for even units only; comparing the two
/// halves' unit latencies measures what tracing costs in the same run.
#[derive(Default)]
pub struct UnitSplit {
    pub traced: Vec<f64>,
    pub untraced: Vec<f64>,
}

impl UnitSplit {
    pub fn push(&mut self, unit: u64, value: f64) {
        if traces_unit(unit) {
            self.traced.push(value);
        } else {
            self.untraced.push(value);
        }
    }

    /// `(overhead %, noise %)`: the traced half's median over the untraced
    /// half's, and the wider of the two halves' quartile spreads. The
    /// overhead is resolved only when it exceeds the noise.
    pub fn overhead(&self) -> Option<(f64, f64)> {
        let t = stats::median(&self.traced)?;
        let u = stats::median(&self.untraced)?;
        let noise =
            stats::quartile_spread(&self.traced)?.max(stats::quartile_spread(&self.untraced)?);
        Some((100.0 * (t / u - 1.0), 100.0 * noise))
    }
}

/// Peak resident memory of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// System-wide CPU time from the first line of `/proc/stat`: `(stolen,
/// total)` ticks. Time the hypervisor gave to other guests slows every
/// metric of a run, so the report prints the stolen share next to them.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}
