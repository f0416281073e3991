//! One member-seed rule through every ensemble caller: member `m` of each
//! forecaster's ensemble is bitwise that forecaster's own rollout seeded
//! with `member_rng(seed, m)`, and member `m` of a nowcast ensemble is
//! bitwise `nowcast_member(.., seed, m)`. Runs on `test_tiny`, 2 members ×
//! 2 steps.

use aeris::assim::{nowcast_ensemble, nowcast_member, GuidanceSchedule, ObsOperator};
use aeris::baselines::GenCastAnalog;
use aeris::core::forecast::member_rng;
use aeris::core::{AerisConfig, AerisModel, ConsistencyStudent, Forecaster};
use aeris::diffusion::{SamplerConfig, TrigFlow, TrigFlowSampler};
use aeris::earthsim::{Grid, NormStats};
use aeris::tensor::{Rng, Tensor};
use std::sync::Arc;

const MEMBERS: usize = 2;
const STEPS: usize = 2;
const SEED: u64 = 29;

/// A `test_tiny` model with its zero-initialized decoder nudged, so every
/// step's output depends on the network as well as on the noise.
fn model() -> AerisModel {
    let mut m = AerisModel::new(AerisConfig::test_tiny());
    let mut rng = Rng::seed_from(8);
    let shape = m.store.get(m.decode.w).shape().to_vec();
    let dw = Tensor::randn(&shape, &mut rng).scale(0.05);
    m.store.get_mut(m.decode.w).add_assign(&dw);
    m
}

fn unit_stats() -> NormStats {
    let c = AerisConfig::test_tiny().channels;
    NormStats { mean: vec![0.0; c], std: vec![1.0; c] }
}

fn forecaster() -> Forecaster {
    Forecaster {
        model: model(),
        stats: unit_stats(),
        res_stats: unit_stats(),
        sampler: TrigFlowSampler::new(
            TrigFlow::default(),
            SamplerConfig { n_steps: 2, churn: 0.1, second_order: true },
        ),
    }
}

fn x0() -> Tensor {
    Tensor::randn(&[128, 4], &mut Rng::seed_from(3))
}

fn forcings(_k: usize) -> Tensor {
    Tensor::zeros(&[128, 3])
}

/// Member `m` of `members` equals `rollout(member_rng(SEED, m))`, and the
/// members differ from each other.
fn assert_seeded(members: &[Vec<Tensor>], rollout: impl Fn(&mut Rng) -> Vec<Tensor>) {
    assert_eq!(members.len(), MEMBERS);
    for (m, member) in members.iter().enumerate() {
        assert_eq!(member.len(), STEPS);
        assert_eq!(*member, rollout(&mut member_rng(SEED, m)), "member {m}");
    }
    assert!(members[0][STEPS - 1].max_abs_diff(&members[1][STEPS - 1]) > 0.0);
}

#[test]
fn forecaster_members_are_seeded_rollouts() {
    let fc = forecaster();
    let ens = fc.ensemble(&x0(), &forcings, STEPS, MEMBERS, SEED);
    assert_seeded(&ens.members, |rng| fc.rollout(&x0(), &forcings, STEPS, rng));
}

#[test]
fn student_members_are_seeded_rollouts() {
    let (stats, res_stats, tf) = (unit_stats(), unit_stats(), TrigFlow::default());
    let student = ConsistencyStudent { model: model(), stats, res_stats, tf };
    let ens = student.ensemble(&x0(), &forcings, STEPS, MEMBERS, SEED);
    assert_seeded(&ens, |rng| student.rollout(&x0(), &forcings, STEPS, rng));
}

#[test]
fn gencast_members_are_seeded_rollouts() {
    let mut g = GenCastAnalog::new(model(), unit_stats(), unit_stats());
    g.n_sample_steps = 2;
    let ens = g.ensemble(&x0(), &forcings, STEPS, MEMBERS, SEED);
    assert_seeded(&ens, |rng| g.rollout(&x0(), &forcings, STEPS, rng));
}

#[test]
fn nowcast_members_are_seeded_member_calls() {
    let fc = forecaster();
    let background = Arc::new(x0());
    let truth = Tensor::randn(&[128, 4], &mut Rng::seed_from(5));
    let op = ObsOperator::stations(&Grid::new(8, 16), 16, &[0, 1], &[0.5; 4], 2);
    let obs = Arc::new(op.observe(&truth, 0.0, 3));
    let sched = GuidanceSchedule::Ramp { start: 0.0, end: 0.3 };
    let forc = forcings(0);
    let ens = nowcast_ensemble(&fc, &background, &forc, &obs, sched, MEMBERS, SEED);
    assert_eq!(ens.n_members(), MEMBERS);
    for (m, member) in ens.members.iter().enumerate() {
        let direct = nowcast_member(&fc, &background, &forc, &obs, sched, SEED, m);
        assert_eq!(*member, direct, "member {m}");
    }
    assert!(ens.members[0].max_abs_diff(&ens.members[1]) > 0.0);
}
