//! Elastic recovery tests: the crash-recovery supervisor, in-run rank
//! rejoin, and world-size-independent checkpoint re-shard.
//!
//! The gating invariants, all bitwise:
//! - a supervised run that crashed and restarted matches the uninterrupted
//!   run from the resume step on;
//! - an in-run crash→shrink→rejoin matches a fresh full-world resume from
//!   the checkpoint written at the rejoin boundary;
//! - a checkpoint written at DP=N restores into DP=M with identical
//!   parameters.

use aeris_core::AerisModel;
use aeris_swipe::{
    supervise, CheckpointConfig, DistributedTrainer, FaultEvent, FaultPlan, RecoveryConfig,
    RecoveryError, SwipeConfig, SwipeTopology,
};
use aeris_tensor::Tensor;
use proptest::prelude::*;

mod common;
use common::{random_samples, schedule, tiny_cfg, weights_for};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("aeris_recovery_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn assert_params_eq(
    a: &std::collections::HashMap<String, Tensor>,
    b: &std::collections::HashMap<String, Tensor>,
    what: &str,
) {
    assert_eq!(a.len(), b.len(), "{what}: parameter sets differ in size");
    for (name, v) in a {
        assert_eq!(v.data(), b[name].data(), "{what}: parameter {name} diverged");
    }
}

/// The tentpole invariant, supervisor side: every replica dies at step 3,
/// the run aborts with `AllReplicasLost`, and the supervisor restarts it
/// from the last coordinated checkpoint (step 2 — `every: 2`, so the lost
/// step was never saved). The recovered run must match the run that never
/// crashed, bitwise, from the resume step on.
#[test]
fn supervised_crash_recovery_matches_uninterrupted_run_bitwise() {
    let cfg = tiny_cfg();
    let samples = random_samples(8, cfg.tokens(), cfg.channels);
    let source = aeris_swipe::data::InMemorySource { samples };
    let weights = weights_for(&cfg);
    let topo = SwipeTopology::new(2, 4, 1, 1, 1); // 8 ranks, 2 replicas
    let sched = schedule(4, 2, 1, 8);
    let reference = AerisModel::new(cfg);

    let base = SwipeConfig { n_steps: 4, ..SwipeConfig::new(topo) };
    let clean = DistributedTrainer::train(&reference, &base, &source, &sched, &weights)
        .expect("fault-free run");

    let dir = tmp_dir("sup");
    let faulty = SwipeConfig {
        n_steps: 4,
        faults: Some(FaultPlan::new().crash_rank(1, 3).crash_rank(5, 3)),
        ..SwipeConfig::new(topo)
    };
    let rcfg = RecoveryConfig {
        max_restarts: 2,
        checkpoint: CheckpointConfig { dir: dir.clone(), every: 2 },
    };
    let outcome = supervise(&reference, &faulty, &source, &sched, &weights, &rcfg)
        .expect("the supervisor must ride out a total crash");

    assert_eq!(outcome.restarts, 1);
    assert_eq!(outcome.steps_lost, 1, "reached step 3, resumed from step 2");
    assert_eq!(outcome.report.start_step, 2);
    let ev = |pred: &dyn Fn(&FaultEvent) -> bool| outcome.events.iter().any(|r| pred(&r.event));
    assert!(ev(&|e| matches!(e, FaultEvent::RankCrashed { rank: 1, step: 3 })));
    assert!(ev(&|e| matches!(e, FaultEvent::RunResumed { attempt: 1, from_step: 2 })));

    // Incident counters land in the (disabled) tracer's registry: recovery
    // telemetry is ungated so production dashboards see it with spans off.
    let counters = faulty.tracer.counters();
    assert!(counters.contains(&("swipe_restarts".to_string(), 1)), "{counters:?}");
    assert!(counters.contains(&("swipe_steps_lost".to_string(), 1)), "{counters:?}");

    for step in 2..4 {
        assert_eq!(
            outcome.report.losses[step].to_bits(),
            clean.losses[step].to_bits(),
            "recovered loss diverged at step {step}"
        );
    }
    assert_params_eq(&clean.final_params, &outcome.report.final_params, "supervised recovery");
    std::fs::remove_dir_all(&dir).ok();
}

/// Exhausting the restart budget is a typed error carrying the last failure,
/// and a failure restarting cannot fix (checkpoint validation) is
/// `Unrecoverable` without consuming the budget.
#[test]
fn supervisor_failure_modes_are_typed() {
    let cfg = tiny_cfg();
    let samples = random_samples(4, cfg.tokens(), cfg.channels);
    let source = aeris_swipe::data::InMemorySource { samples };
    let weights = weights_for(&cfg);
    let topo = SwipeTopology::new(1, 4, 1, 1, 1);
    let sched = schedule(2, 1, 1, 4);
    let reference = AerisModel::new(cfg);

    // One replica, so its crash is AllReplicasLost — recoverable, but the
    // budget is zero. (The crash survives `without_fired` only until it
    // fires, and with max_restarts=0 it is never retried at all.)
    let dir = tmp_dir("budget");
    let faulty = SwipeConfig {
        n_steps: 2,
        faults: Some(FaultPlan::new().crash_rank(0, 1)),
        ..SwipeConfig::new(topo)
    };
    let rcfg = RecoveryConfig {
        max_restarts: 0,
        checkpoint: CheckpointConfig { dir: dir.clone(), every: 1 },
    };
    let err = supervise(&reference, &faulty, &source, &sched, &weights, &rcfg)
        .err()
        .expect("zero budget must fail");
    assert!(
        matches!(err, RecoveryError::RestartsExhausted { attempts: 0, .. }),
        "expected RestartsExhausted, got {err}"
    );

    // A seed-mismatched resume checkpoint is a configuration bug: restarting
    // reproduces it forever, so the supervisor gives up immediately.
    let clean_cfg = SwipeConfig {
        n_steps: 2,
        checkpoint: Some(CheckpointConfig { dir: dir.clone(), every: 1 }),
        ..SwipeConfig::new(topo)
    };
    DistributedTrainer::train(&reference, &clean_cfg, &source, &sched, &weights)
        .expect("checkpoint-writing run");
    let mismatched = SwipeConfig {
        n_steps: 2,
        seed: 999,
        resume_from: Some(dir.join("step_000001.ckpt")),
        ..SwipeConfig::new(topo)
    };
    let rcfg2 = RecoveryConfig {
        max_restarts: 3,
        checkpoint: CheckpointConfig { dir: dir.clone(), every: 1 },
    };
    let err = supervise(&reference, &mismatched, &source, &sched, &weights, &rcfg2)
        .err()
        .expect("seed mismatch must fail");
    assert!(
        matches!(err, RecoveryError::Unrecoverable { .. }),
        "expected Unrecoverable, got {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The tentpole invariant, rejoin side: rank 5's replica crashes out at step
/// 1 and rejoins at step 2 via the donor re-shard. From the rejoin boundary
/// on, the elastic run must be bitwise indistinguishable from a fresh
/// full-world resume of the checkpoint written at that same boundary.
#[test]
fn in_run_rejoin_matches_checkpoint_resume_bitwise() {
    let cfg = tiny_cfg();
    let samples = random_samples(8, cfg.tokens(), cfg.channels);
    let source = aeris_swipe::data::InMemorySource { samples };
    let weights = weights_for(&cfg);
    let topo = SwipeTopology::new(2, 4, 1, 1, 1);
    let sched = schedule(4, 2, 1, 8);
    let reference = AerisModel::new(cfg);

    let dir = tmp_dir("rejoin");
    let elastic_cfg = SwipeConfig {
        n_steps: 4,
        checkpoint: Some(CheckpointConfig { dir: dir.clone(), every: 1 }),
        faults: Some(FaultPlan::new().crash_rank(5, 1).restart_rank(5, 2)),
        ..SwipeConfig::new(topo)
    };
    let elastic = DistributedTrainer::train(&reference, &elastic_cfg, &source, &sched, &weights)
        .expect("the rejoin run must complete");

    // The full retire → rejoin sequence is in the event log.
    let ev = |pred: &dyn Fn(&FaultEvent) -> bool| elastic.events.iter().any(|r| pred(&r.event));
    assert!(ev(&|e| matches!(e, FaultEvent::RankCrashed { rank: 5, step: 1 })));
    assert!(ev(&|e| matches!(e, FaultEvent::ReplicaRetired { dp: 1, step: 1, .. })));
    assert!(ev(&|e| matches!(e, FaultEvent::GroupRescaled { step: 1, live_dp: 1 })));
    assert!(ev(&|e| matches!(e, FaultEvent::RankRejoined { rank: 5, step: 2 })));
    assert!(ev(&|e| matches!(e, FaultEvent::GroupRescaled { step: 2, live_dp: 2 })));
    let rejoined = elastic
        .events
        .iter()
        .filter(|r| matches!(r.event, FaultEvent::ReplicaRejoined { dp: 1, step: 2, .. }))
        .count();
    assert_eq!(rejoined, 3, "the crasher's three replica peers rejoin alongside it");

    // Reference: resume the whole world from the boundary-2 checkpoint.
    let resumed_cfg = SwipeConfig {
        n_steps: 4,
        resume_from: Some(dir.join("step_000002.ckpt")),
        ..SwipeConfig::new(topo)
    };
    let resumed = DistributedTrainer::train(&reference, &resumed_cfg, &source, &sched, &weights)
        .expect("resumed run");
    assert_eq!(resumed.start_step, 2);

    for step in 2..4 {
        assert_eq!(
            elastic.losses[step].to_bits(),
            resumed.losses[step].to_bits(),
            "post-rejoin loss diverged at step {step}"
        );
    }
    assert_params_eq(&resumed.final_params, &elastic.final_params, "in-run rejoin");
    std::fs::remove_dir_all(&dir).ok();
}

/// World-size independence: a checkpoint written at DP=4 restores into DP=2
/// and DP=4 worlds with bitwise-identical parameters, and a restored
/// narrower world can keep training from the re-derived optimizer shards.
#[test]
fn checkpoint_restores_across_data_parallel_widths_bitwise() {
    let cfg = tiny_cfg();
    let samples = random_samples(8, cfg.tokens(), cfg.channels);
    let source = aeris_swipe::data::InMemorySource { samples };
    let weights = weights_for(&cfg);
    let reference = AerisModel::new(cfg);

    let dir = tmp_dir("reshard");
    let topo4 = SwipeTopology::new(4, 4, 1, 1, 1); // 16 ranks
    let writer_cfg = SwipeConfig {
        n_steps: 2,
        checkpoint: Some(CheckpointConfig { dir: dir.clone(), every: 2 }),
        ..SwipeConfig::new(topo4)
    };
    let writer =
        DistributedTrainer::train(&reference, &writer_cfg, &source, &schedule(2, 4, 1, 8), &weights)
            .expect("DP=4 writer run");
    let ckpt = dir.join("step_000002.ckpt");
    assert!(ckpt.exists(), "writer must leave a final-boundary checkpoint");

    // Restore into each width without running further steps: the reported
    // final parameters are exactly the restored state.
    for dp in [2usize, 4] {
        let topo = SwipeTopology::new(dp, 4, 1, 1, 1);
        let restore_cfg = SwipeConfig {
            n_steps: 2,
            resume_from: Some(ckpt.clone()),
            ..SwipeConfig::new(topo)
        };
        let restored = DistributedTrainer::train(
            &reference,
            &restore_cfg,
            &source,
            &schedule(2, dp, 1, 8),
            &weights,
        )
        .unwrap_or_else(|f| panic!("restore into dp={dp} failed: {}", f.error));
        assert_eq!(restored.start_step, 2, "dp={dp}");
        assert_params_eq(&writer.final_params, &restored.final_params, "cross-width restore");
    }

    // The narrower world trains on from the restored state (exercising the
    // re-derived within-replica ZeRO-1 moment shards).
    let topo2 = SwipeTopology::new(2, 4, 1, 1, 1);
    let continue_cfg = SwipeConfig {
        n_steps: 3,
        resume_from: Some(ckpt.clone()),
        ..SwipeConfig::new(topo2)
    };
    let continued =
        DistributedTrainer::train(&reference, &continue_cfg, &source, &schedule(3, 2, 1, 8), &weights)
            .expect("DP=2 continuation");
    assert!(
        continued.losses[2].is_finite() && continued.losses[2] > 0.0,
        "continued training must produce a real loss, got {}",
        continued.losses[2]
    );
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    /// Seeded chaos: for any crash→restart schedule from
    /// [`FaultPlan::chaos_restarts`], the elastic run completes, the
    /// retire/rejoin events balance, and from the last rejoin boundary on it
    /// is bitwise identical to a fresh full-world resume of that boundary's
    /// checkpoint.
    #[test]
    fn chaos_restart_schedules_preserve_the_rejoin_invariant(seed in 1u64..1_000_000u64) {
        let cfg = tiny_cfg();
        let samples = random_samples(8, cfg.tokens(), cfg.channels);
        let source = aeris_swipe::data::InMemorySource { samples };
        let weights = weights_for(&cfg);
        let topo = SwipeTopology::new(2, 4, 1, 1, 1);
        let n_steps = 4usize;
        let sched = schedule(n_steps, 2, 1, 8);
        let reference = AerisModel::new(cfg);

        let plan = FaultPlan::chaos_restarts(seed, topo.world_size(), topo.world_size() / 2, n_steps - 1, 1);
        // The generator can only skip duplicate replicas; with count=1 it
        // always lands one crash→restart window.
        let crasher = (0..topo.world_size())
            .find(|&r| plan.crash_step(r).is_some())
            .expect("one window per plan");
        let rejoin_step = plan.restart_step(crasher).expect("window must close");

        let dir = tmp_dir(&format!("chaos_{seed}"));
        let elastic_cfg = SwipeConfig {
            n_steps,
            checkpoint: Some(CheckpointConfig { dir: dir.clone(), every: 1 }),
            faults: Some(plan.clone()),
            ..SwipeConfig::new(topo)
        };
        let elastic = DistributedTrainer::train(&reference, &elastic_cfg, &source, &sched, &weights)
            .expect("chaos rejoin run must complete");

        // Retire/rejoin balance: the crasher came back, and so did each of
        // its replica peers.
        let count = |pred: &dyn Fn(&FaultEvent) -> bool| {
            elastic.events.iter().filter(|r| pred(&r.event)).count()
        };
        prop_assert_eq!(count(&|e| matches!(e, FaultEvent::RankCrashed { .. })), 1);
        prop_assert_eq!(count(&|e| matches!(e, FaultEvent::RankRejoined { .. })), 1);
        prop_assert_eq!(
            count(&|e| matches!(e, FaultEvent::ReplicaRetired { .. })),
            count(&|e| matches!(e, FaultEvent::ReplicaRejoined { .. }))
        );

        let resumed_cfg = SwipeConfig {
            n_steps,
            resume_from: Some(dir.join(format!("step_{rejoin_step:06}.ckpt"))),
            ..SwipeConfig::new(topo)
        };
        let resumed = DistributedTrainer::train(&reference, &resumed_cfg, &source, &sched, &weights)
            .expect("resumed run");
        for step in rejoin_step..n_steps {
            prop_assert_eq!(
                elastic.losses[step].to_bits(),
                resumed.losses[step].to_bits(),
                "loss diverged at step {} (seed {})", step, seed
            );
        }
        for (name, v) in &resumed.final_params {
            prop_assert_eq!(
                v.data(),
                elastic.final_params[name].data(),
                "parameter {} diverged (seed {})", name, seed
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
