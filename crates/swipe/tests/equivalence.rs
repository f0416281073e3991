//! The core SWiPe validation: distributed WP×SP×PP×DP training is
//! numerically equivalent to single-rank training, and the communication /
//! memory / I/O properties the paper claims are measured, not assumed.

#![allow(clippy::needless_range_loop)]

use aeris_core::AerisModel;
use aeris_nn::{AdamW, AdamWConfig, ParamId};
use aeris_swipe::data::{InMemorySource, StoreBackedSource};
use aeris_swipe::trainer::reference_grads;
use aeris_swipe::{CommClass, DistributedTrainer, SwipeConfig, SwipeTopology};
use aeris_tensor::Tensor;

mod common;
use common::{random_samples, schedule, tiny_cfg, weights_for};

/// Apply the reference AdamW step using named grads.
fn reference_opt_step(model: &mut AerisModel, opt: &mut AdamW, named: &std::collections::HashMap<String, Tensor>, lr: f32) {
    let grads: Vec<Option<Tensor>> = (0..model.store.len())
        .map(|i| named.get(model.store.name(ParamId(i))).cloned())
        .collect();
    opt.step(&mut model.store, &grads, lr);
}

#[test]
fn distributed_training_equals_single_rank() {
    let cfg = tiny_cfg();
    let samples = random_samples(8, cfg.tokens(), cfg.channels);
    let source = InMemorySource { samples };
    let weights = weights_for(&cfg);

    let topo = SwipeTopology::new(2, 4, 1, 2, 2); // DP=2, PP=4, WP=1x2, SP=2 → 32 ranks
    let swipe_cfg = SwipeConfig {
        topo,
        gas: 2,
        n_steps: 2,
        lr: 1e-3,
        seed: 5,
        adamw: AdamWConfig::default(),
        ..SwipeConfig::new(topo)
    };
    let sched = schedule(2, 2, 2, 8);

    // Distributed run.
    let reference = AerisModel::new(cfg.clone());
    let report = DistributedTrainer::train(&reference, &swipe_cfg, &source, &sched, &weights).expect("fault-free run");

    // Single-rank reference with identical noise/time realizations.
    let mut ref_model = AerisModel::new(cfg.clone());
    let mut opt = AdamW::new(&ref_model.store, AdamWConfig::default());
    let mut ref_losses = Vec::new();
    for step in 0..2 {
        let (loss, grads) = reference_grads(&ref_model, &source, &sched[step], &weights, 5, step);
        ref_losses.push(loss);
        reference_opt_step(&mut ref_model, &mut opt, &grads, 1e-3);
    }

    // Loss equivalence (step 0 is exact pre-update; step 1 inherits step-0
    // param updates, so it also checks the optimizer path).
    for step in 0..2 {
        let rel = (report.losses[step] - ref_losses[step]).abs() / ref_losses[step].abs();
        assert!(
            rel < 1e-3,
            "step {step}: distributed loss {} vs reference {}",
            report.losses[step],
            ref_losses[step]
        );
    }

    // Parameter equivalence after 2 steps.
    let mut checked = 0;
    for (_, name, v) in ref_model.store.iter() {
        let dist = report
            .final_params
            .get(name)
            .unwrap_or_else(|| panic!("missing distributed param {name}"));
        let scale = v.abs_max().max(1e-3);
        let diff = dist.max_abs_diff(v);
        assert!(
            diff / scale < 5e-3,
            "param {name} diverged: max abs diff {diff} (scale {scale})"
        );
        checked += 1;
    }
    assert!(checked > 10, "expected to check many parameter tensors");
}

#[test]
fn wp_reduces_alltoall_and_p2p_but_not_allreduce() {
    let cfg = tiny_cfg();
    let samples = random_samples(4, cfg.tokens(), cfg.channels);
    let source = InMemorySource { samples };
    let weights = weights_for(&cfg);

    let run = |wp_b: usize| {
        let topo = SwipeTopology::new(1, 4, 1, wp_b, 2);
        let swipe_cfg = SwipeConfig {
            topo,
            gas: 2,
            n_steps: 1,
            lr: 1e-3,
            seed: 9,
            adamw: AdamWConfig::default(),
            ..SwipeConfig::new(topo)
        };
        let sched = schedule(1, 1, 2, 4);
        let reference = AerisModel::new(cfg.clone());
        let report = DistributedTrainer::train(&reference, &swipe_cfg, &source, &sched, &weights).expect("fault-free run");
        // Per-rank averages for a block-stage rank (stage 1, wp 0/0, sp 0).
        let block_rank = topo.rank_of(aeris_swipe::RankCoords {
            dp: 0,
            stage: 1,
            wp_row: 0,
            wp_col: 0,
            sp: 0,
        });
        (
            report.traffic.rank_total(block_rank, CommClass::AllToAll),
            report.traffic.rank_total(block_rank, CommClass::P2p),
            report.traffic.rank_total(block_rank, CommClass::AllReduce),
        )
    };

    let (a2a_2, p2p_2, ar_2) = run(2);
    let (a2a_4, p2p_4, ar_4) = run(4);

    // Message size M = b·s·h/SP/WP: doubling WP halves per-rank all-to-all
    // and pipeline traffic.
    assert!(
        (a2a_4 as f64) < 0.6 * a2a_2 as f64,
        "alltoall per rank did not halve: {a2a_2} -> {a2a_4}"
    );
    assert!(
        (p2p_4 as f64) < 0.6 * p2p_2 as f64,
        "p2p per rank did not halve: {p2p_2} -> {p2p_4}"
    );
    // Gradient allreduce volume per rank is unchanged: reduce-scatter +
    // allgather moves 2·P·(n−1)/n per rank, which is insensitive to the
    // group growth caused by WP (ratio (7/8)/(3/4) ≈ 1.17 here).
    let ratio = ar_4 as f64 / ar_2 as f64;
    assert!(
        (0.8..1.25).contains(&ratio),
        "allreduce volume changed with WP: {ar_2} -> {ar_4} (ratio {ratio})"
    );
}

#[test]
fn wp_reduces_activation_memory() {
    let cfg = tiny_cfg();
    let samples = random_samples(4, cfg.tokens(), cfg.channels);
    let source = InMemorySource { samples };
    let weights = weights_for(&cfg);

    let run = |wp_b: usize| {
        let topo = SwipeTopology::new(1, 4, 1, wp_b, 1);
        let swipe_cfg = SwipeConfig {
            topo,
            gas: 2,
            n_steps: 1,
            lr: 1e-3,
            seed: 13,
            adamw: AdamWConfig::default(),
            ..SwipeConfig::new(topo)
        };
        let sched = schedule(1, 1, 2, 4);
        let reference = AerisModel::new(cfg.clone());
        DistributedTrainer::train(&reference, &swipe_cfg, &source, &sched, &weights).expect("fault-free run")
            .max_activation_elems
    };
    let act_1 = run(1);
    let act_2 = run(2);
    assert!(
        (act_2 as f64) < 0.7 * act_1 as f64,
        "activation memory did not shrink with WP: {act_1} -> {act_2}"
    );
}

#[test]
fn windowed_io_scales_inversely_with_wp() {
    let cfg = tiny_cfg();
    let samples = random_samples(4, cfg.tokens(), cfg.channels);
    let weights = weights_for(&cfg);

    let run = |wp_b: usize| {
        let source = StoreBackedSource::from_samples(
            &samples, cfg.window.0, cfg.window.1, cfg.grid_h, cfg.grid_w,
        );
        let topo = SwipeTopology::new(1, 4, 1, wp_b, 1);
        let swipe_cfg = SwipeConfig {
            topo,
            gas: 2,
            n_steps: 1,
            lr: 1e-3,
            seed: 17,
            adamw: AdamWConfig::default(),
            ..SwipeConfig::new(topo)
        };
        let sched = schedule(1, 1, 2, 4);
        let reference = AerisModel::new(cfg.clone());
        let _ = DistributedTrainer::train(&reference, &swipe_cfg, &source, &sched, &weights).expect("fault-free run");
        source.prev.bytes_read()
    };

    // The input stage reads chunk-aligned (unshifted) windows: each sample's
    // tokens are read exactly once regardless of WP, so total input-stage I/O
    // is constant and per-rank I/O falls as 1/WP. (The loss stage sits after
    // a *shifted* block, whose windows straddle store chunks — its reads
    // overlap across ranks, a real halo cost we do not assert on.)
    let prev_1 = run(1);
    let prev_2 = run(2);
    assert_eq!(prev_1, prev_2, "input-stage sliced I/O must be independent of WP");
    assert!(prev_1 > 0);
}

#[test]
fn distributed_loss_decreases_over_steps() {
    let cfg = tiny_cfg();
    let samples = random_samples(4, cfg.tokens(), cfg.channels);
    let source = InMemorySource { samples };
    let weights = weights_for(&cfg);
    let topo = SwipeTopology::new(1, 4, 2, 1, 1);
    let swipe_cfg = SwipeConfig {
        topo,
        gas: 4,
        n_steps: 6,
        lr: 3e-3,
        seed: 21,
        adamw: AdamWConfig::default(),
        ..SwipeConfig::new(topo)
    };
    let sched = schedule(6, 1, 4, 4);
    let reference = AerisModel::new(cfg);
    let report = DistributedTrainer::train(&reference, &swipe_cfg, &source, &sched, &weights).expect("fault-free run");
    assert!(report.losses.iter().all(|l| l.is_finite()));
    assert!(
        report.losses[5] < report.losses[0],
        "loss did not decrease: {:?}",
        report.losses
    );
}

/// A second topology exercising the full 2-D round-robin window grid
/// (WP = 2×2) with shift relayouts crossing both axes, without SP.
#[test]
fn equivalence_holds_on_2d_window_grid() {
    let cfg = tiny_cfg();
    let samples = random_samples(4, cfg.tokens(), cfg.channels);
    let source = InMemorySource { samples };
    let weights = weights_for(&cfg);

    let topo = SwipeTopology::new(1, 4, 2, 2, 1); // 16 ranks
    let swipe_cfg = SwipeConfig {
        topo,
        gas: 2,
        n_steps: 1,
        lr: 1e-3,
        seed: 23,
        adamw: AdamWConfig::default(),
        ..SwipeConfig::new(topo)
    };
    let sched = schedule(1, 1, 2, 4);
    let reference = AerisModel::new(cfg.clone());
    let report = DistributedTrainer::train(&reference, &swipe_cfg, &source, &sched, &weights).expect("fault-free run");

    let mut ref_model = AerisModel::new(cfg);
    let mut opt = AdamW::new(&ref_model.store, AdamWConfig::default());
    let (loss, grads) = reference_grads(&ref_model, &source, &sched[0], &weights, 23, 0);
    reference_opt_step(&mut ref_model, &mut opt, &grads, 1e-3);

    let rel = (report.losses[0] - loss).abs() / loss.abs();
    assert!(rel < 1e-3, "loss mismatch: {} vs {}", report.losses[0], loss);
    for (_, name, v) in ref_model.store.iter() {
        let dist = &report.final_params[name];
        let scale = v.abs_max().max(1e-3);
        assert!(
            dist.max_abs_diff(v) / scale < 5e-3,
            "param {name} diverged on 2D WP grid"
        );
    }
}
