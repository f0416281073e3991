//! Criterion benchmarks of the SWiPe runtime: collective primitives and a
//! full distributed training step across thread ranks.

use aeris_core::{AerisConfig, AerisModel, TrainSample};
use aeris_diffusion::loss_weights;
use aeris_earthsim::Grid;
use aeris_nn::AdamWConfig;
use aeris_swipe::data::InMemorySource;
use aeris_obs::Tracer;
use aeris_swipe::{
    CommClass, CommConfig, DistributedTrainer, FaultPlan, SwipeConfig, SwipeTopology, World,
};
use aeris_tensor::{Rng, Tensor};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_collectives(c: &mut Criterion) {
    c.bench_function("allreduce_8ranks_4k", |b| {
        b.iter(|| {
            let world = World::new(8);
            let group: Vec<usize> = (0..8).collect();
            std::thread::scope(|s| {
                for r in 0..8 {
                    let mut comm = world.communicator(r);
                    let g = group.clone();
                    s.spawn(move || {
                        let v = Tensor::full(&[4096], r as f32);
                        black_box(comm.allreduce_sum(&g, &v).unwrap());
                    });
                }
            });
        })
    });
    c.bench_function("alltoall_4ranks_4x1k", |b| {
        b.iter(|| {
            let world = World::new(4);
            let group: Vec<usize> = (0..4).collect();
            std::thread::scope(|s| {
                for r in 0..4 {
                    let mut comm = world.communicator(r);
                    let g = group.clone();
                    s.spawn(move || {
                        let chunks: Vec<Tensor> =
                            (0..4).map(|j| Tensor::full(&[1024], j as f32)).collect();
                        black_box(comm.alltoall(&g, chunks).unwrap());
                    });
                }
            });
        })
    });
}

/// Fault-hook overhead: the same allreduce loop against a world with no
/// fault plan (hooks dormant) and a world carrying an *empty* plan (every
/// hook consulted, nothing injected). The two should be within noise of each
/// other — the robustness layer must be free when unused.
fn bench_fault_hook_overhead(c: &mut Criterion) {
    let mut run = |name: &str, plan: Option<FaultPlan>| {
        c.bench_function(name, |b| {
            b.iter(|| {
                let world = match &plan {
                    Some(p) => {
                        World::with_config(8, CommConfig::default(), Some(p.clone()), Tracer::default())
                    }
                    None => World::new(8),
                };
                let group: Vec<usize> = (0..8).collect();
                std::thread::scope(|s| {
                    for r in 0..8 {
                        let mut comm = world.communicator(r);
                        let g = group.clone();
                        s.spawn(move || {
                            let v = Tensor::full(&[4096], r as f32);
                            for _ in 0..4 {
                                black_box(comm.allreduce_sum(&g, &v).unwrap());
                            }
                        });
                    }
                });
            })
        });
    };
    run("allreduce_8ranks_4k_x4_no_plan", None);
    run("allreduce_8ranks_4k_x4_empty_plan", Some(FaultPlan::new()));
}

fn bench_distributed_step(c: &mut Criterion) {
    let cfg = AerisConfig::test_tiny();
    let mut rng = Rng::seed_from(1);
    let samples: Vec<TrainSample> = (0..2)
        .map(|_| TrainSample {
            x_prev: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng),
            residual: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng),
            forcings: Tensor::randn(&[cfg.tokens(), 3], &mut rng),
        })
        .collect();
    let grid = Grid::new(cfg.grid_h, cfg.grid_w);
    let weights = loss_weights(&grid.token_lat_weights(), &vec![1.0; cfg.channels]);
    let reference = AerisModel::new(cfg);
    c.bench_function("swipe_step_pp4_wp2_sp2", |b| {
        b.iter(|| {
            let topo = SwipeTopology::new(1, 4, 1, 2, 2);
            let scfg = SwipeConfig {
                topo,
                gas: 2,
                n_steps: 1,
                lr: 1e-3,
                seed: 7,
                adamw: AdamWConfig::default(),
                ..SwipeConfig::new(topo)
            };
            let source = InMemorySource { samples: samples.clone() };
            let sched = vec![vec![vec![0usize, 1]]];
            let report =
                DistributedTrainer::train(&reference, &scfg, &source, &sched, &weights).expect("fault-free run");
            black_box(report.traffic.total(CommClass::AllToAll))
        })
    });
}

criterion_group!(benches, bench_collectives, bench_fault_hook_overhead, bench_distributed_step);
criterion_main!(benches);
