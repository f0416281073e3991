//! Fixtures shared by the SWiPe integration suites: a tiny model config,
//! seeded random samples, the latitude loss weights, and a round-robin
//! sample schedule.

use aeris_core::{AerisConfig, TrainSample};
use aeris_diffusion::loss_weights;
use aeris_earthsim::Grid;
use aeris_tensor::{Rng, Tensor};

pub fn tiny_cfg() -> AerisConfig {
    AerisConfig {
        grid_h: 8,
        grid_w: 16,
        channels: 4,
        forcing_channels: 3,
        dim: 16,
        n_heads: 2,
        ffn: 32,
        n_layers: 2,
        blocks_per_layer: 1,
        window: (4, 4),
        time_feat_dim: 16,
        cond_dim: 24,
        seed: 11,
        pos_amp: 0.1,
    }
}

pub fn random_samples(n: usize, tokens: usize, channels: usize) -> Vec<TrainSample> {
    let mut rng = Rng::seed_from(77);
    (0..n)
        .map(|_| TrainSample {
            x_prev: Tensor::randn(&[tokens, channels], &mut rng),
            residual: Tensor::randn(&[tokens, channels], &mut rng).scale(0.3),
            forcings: Tensor::randn(&[tokens, 3], &mut rng),
        })
        .collect()
}

pub fn weights_for(cfg: &AerisConfig) -> Tensor {
    let grid = Grid::new(cfg.grid_h, cfg.grid_w);
    loss_weights(&grid.token_lat_weights(), &vec![1.0; cfg.channels])
}

pub fn schedule(n_steps: usize, dp: usize, gas: usize, n_samples: usize) -> Vec<Vec<Vec<usize>>> {
    let mut ix = 0usize;
    (0..n_steps)
        .map(|_| {
            (0..dp)
                .map(|_| {
                    (0..gas)
                        .map(|_| {
                            let s = ix % n_samples;
                            ix += 1;
                            s
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}
