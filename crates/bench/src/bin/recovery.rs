//! Elastic-recovery benchmark: what does surviving crashes cost?
//!
//! Three measurements, emitted to `BENCH_recovery.json`:
//!
//! 1. **Fault-hook overhead** — ms/step of the distributed trainer with no
//!    fault plan vs an installed-but-empty plan (hooks armed, nothing
//!    fires). This is the number the "<2% fault-hook overhead" contract is
//!    about.
//! 2. **Steps lost per crash** — a supervised run whose replicas all die
//!    mid-run: how many steps of work the restart re-executes, given the
//!    checkpoint cadence.
//! 3. **Re-shard cost** — wall time of the donor→rejoiner state transfer at
//!    an in-run rejoin boundary, from the traced Recovery spans.
//!
//! ```bash
//! cargo run --release -p aeris-bench --bin recovery
//! ```

use aeris_bench::{measure, toy_model, toy_swipe_data, Measurement};
use aeris_core::AerisModel;
use aeris_obs::{SpanCategory, Tracer};
use aeris_swipe::data::InMemorySource;
use aeris_swipe::{
    supervise, CheckpointConfig, DistributedTrainer, FaultPlan, RecoveryConfig, SwipeConfig,
    SwipeTopology,
};
use aeris_tensor::Tensor;
use std::time::Instant;

struct Workbench {
    reference: AerisModel,
    source: InMemorySource,
    weights: Tensor,
    topo: SwipeTopology,
}

fn workbench() -> Workbench {
    let (source, weights) = toy_swipe_data();
    Workbench {
        reference: AerisModel::new(toy_model()),
        source,
        weights,
        topo: SwipeTopology::new(2, 4, 1, 1, 1),
    }
}

fn sched(n_steps: usize, dp: usize) -> Vec<Vec<Vec<usize>>> {
    (0..n_steps).map(|s| (0..dp).map(|d| vec![(2 * s + d) % 8]).collect()).collect()
}

/// Runs of `n_steps` steps with the given fault plan installed.
fn bench_train(wb: &Workbench, faults: Option<FaultPlan>, n_steps: usize) -> Measurement {
    let cfg = SwipeConfig { n_steps, faults, ..SwipeConfig::new(wb.topo) };
    let schedule = sched(n_steps, wb.topo.dp);
    measure(15, || {
        let report =
            DistributedTrainer::train(&wb.reference, &cfg, &wb.source, &schedule, &wb.weights)
                .expect("bench run");
        std::hint::black_box(&report.losses);
    })
}

fn main() {
    println!("AERIS elastic-recovery benchmark");
    let wb = workbench();

    // 1. fault-hook overhead: no plan vs armed-but-empty plan.
    let n_steps = 4usize;
    let off_m = bench_train(&wb, None, n_steps);
    let on_m = bench_train(&wb, Some(FaultPlan::new()), n_steps);
    let hook_pct = on_m.overhead_pct(&off_m);
    let ms_per_step = |secs: f64| secs * 1e3 / n_steps as f64;
    let (off, on) = (ms_per_step(off_m.median()), ms_per_step(on_m.median()));
    println!(
        "fault hooks: none {off:7.2} ± {:.2} ms/step, armed {on:7.2} ± {:.2} ms/step \
         ({hook_pct:+.2}%)",
        ms_per_step(off_m.spread()),
        ms_per_step(on_m.spread()),
    );

    // 2. steps lost per crash: both replicas die at step 3; the supervisor
    //    resumes from the step-2 checkpoint (cadence 2) and re-runs one step.
    let dir = std::env::temp_dir().join(format!("aeris_bench_recovery_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let faulty = SwipeConfig {
        n_steps,
        faults: Some(FaultPlan::new().crash_rank(1, 3).crash_rank(5, 3)),
        ..SwipeConfig::new(wb.topo)
    };
    let rcfg = RecoveryConfig {
        max_restarts: 2,
        checkpoint: CheckpointConfig { dir: dir.clone(), every: 2 },
    };
    let t0 = Instant::now();
    let outcome = supervise(
        &wb.reference, &faulty, &wb.source, &sched(n_steps, wb.topo.dp), &wb.weights, &rcfg,
    )
    .expect("supervised run");
    let supervised_secs = t0.elapsed().as_secs_f64();
    let steps_per_crash = outcome.steps_lost as f64 / outcome.restarts.max(1) as f64;
    println!(
        "supervisor: {} restart(s), {} step(s) lost ({steps_per_crash:.1}/crash), {:.0} ms total",
        outcome.restarts,
        outcome.steps_lost,
        supervised_secs * 1e3
    );
    std::fs::remove_dir_all(&dir).ok();

    // 3. re-shard cost at an in-run rejoin boundary, from Recovery spans.
    let tracer = Tracer::enabled();
    let rejoin_cfg = SwipeConfig {
        n_steps,
        faults: Some(FaultPlan::new().crash_rank(5, 1).restart_rank(5, 2)),
        tracer: tracer.clone(),
        ..SwipeConfig::new(wb.topo)
    };
    DistributedTrainer::train(
        &wb.reference, &rejoin_cfg, &wb.source, &sched(n_steps, wb.topo.dp), &wb.weights,
    )
    .expect("rejoin run");
    let spans = tracer.snapshot_spans();
    let reshard_ms = |label: &str| {
        spans
            .iter()
            .filter(|s| s.category == SpanCategory::Recovery && s.label == label)
            .map(|s| s.dur_ns())
            .max()
            .unwrap_or(0) as f64
            / 1e6
    };
    // Sends/recvs run concurrently across ranks: the slowest span is the
    // wall-clock cost of the whole transfer.
    let send_ms = reshard_ms("reshard_send");
    let recv_ms = reshard_ms("reshard_recv");
    println!("re-shard: send {send_ms:.3} ms, recv {recv_ms:.3} ms (slowest rank)");

    let out = format!(
        "{{\n  \"fault_hooks\": {{\"none_ms_per_step\": {off:.3}, \"armed_ms_per_step\": {on:.3}, \
         \"overhead_pct\": {hook_pct:.3}}},\n  \
         \"supervisor\": {{\"restarts\": {}, \"steps_lost\": {}, \"steps_lost_per_crash\": {steps_per_crash:.3}, \
         \"wall_ms\": {:.3}}},\n  \
         \"reshard\": {{\"send_ms\": {send_ms:.4}, \"recv_ms\": {recv_ms:.4}}}\n}}\n",
        outcome.restarts,
        outcome.steps_lost,
        supervised_secs * 1e3,
    );
    std::fs::write("BENCH_recovery.json", &out).expect("write BENCH_recovery.json");
    println!("wrote BENCH_recovery.json");
}
