//! SWiPe configuration checks: a model, topology and schedule that cannot run
//! together fail with a typed config error before any rank thread spawns.

use aeris::core::{AerisConfig, AerisModel, TrainSample};
use aeris::swipe::data::InMemorySource;
use aeris::swipe::{DistributedTrainer, SwipeConfig, SwipeError, SwipeTopology};
use aeris::tensor::{Rng, Tensor};

fn config_error(cfg: &SwipeConfig) -> String {
    let model_cfg = AerisConfig::test_tiny();
    let mut rng = Rng::seed_from(5);
    let samples = (0..2)
        .map(|_| TrainSample {
            x_prev: Tensor::randn(&[model_cfg.tokens(), model_cfg.channels], &mut rng),
            residual: Tensor::randn(&[model_cfg.tokens(), model_cfg.channels], &mut rng),
            forcings: Tensor::randn(&[model_cfg.tokens(), model_cfg.forcing_channels], &mut rng),
        })
        .collect();
    let source = InMemorySource { samples };
    let weights = Tensor::full(&[model_cfg.tokens(), model_cfg.channels], 1.0);
    let schedule = vec![vec![vec![0; cfg.gas]; cfg.topo.dp]; cfg.n_steps];
    let reference = AerisModel::new(model_cfg);
    match DistributedTrainer::train(&reference, cfg, &source, &schedule, &weights) {
        Ok(_) => panic!("an unrunnable configuration trained"),
        Err(failure) => match failure.error {
            SwipeError::Config(why) => {
                assert!(failure.events.is_empty(), "no rank ran, so nothing was logged");
                why
            }
            other => panic!("expected a config error, got {other}"),
        },
    }
}

#[test]
fn unrunnable_configs_fail_before_any_rank_spawns() {
    // test_tiny has 2 heads: sp = 4 divides its 16-token windows but not
    // the heads.
    let why = config_error(&SwipeConfig::new(SwipeTopology::new(1, 4, 1, 1, 4)));
    assert!(why.contains("n_heads"), "{why}");

    let no_microbatches = SwipeConfig { gas: 0, ..SwipeConfig::new(SwipeTopology::new(1, 4, 1, 1, 1)) };
    let why = config_error(&no_microbatches);
    assert!(why.contains("gas"), "{why}");
}
