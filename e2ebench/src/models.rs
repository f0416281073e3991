//! Model configurations of the workloads and the saved serving weights.

use aeris_core::{AerisConfig, AerisModel, ConsistencyStudent, Forecaster};
use aeris_diffusion::{SamplerConfig, TrigFlow, TrigFlowSampler};
use aeris_earthsim::{NormStats, VariableSet};
use std::path::{Path, PathBuf};

/// The serving model: the experiment harness's toy geometry (16×32 grid =
/// 512 tokens, 20 channels, 4 blocks, 4×4 windows).
pub fn serve_config() -> AerisConfig {
    let channels = VariableSet::with_levels(&[850, 700, 500]).len();
    AerisConfig {
        grid_h: 16,
        grid_w: 32,
        channels,
        forcing_channels: 3,
        dim: 48,
        n_heads: 4,
        ffn: 96,
        n_layers: 2,
        blocks_per_layer: 2,
        window: (4, 4),
        time_feat_dim: 32,
        cond_dim: 48,
        pos_amp: 0.1,
        seed: 0,
    }
}

/// The training model: `AerisConfig::toy_default(8)` (32×64 grid = 2048
/// tokens, 6 blocks, 8×8 windows).
pub fn train_config() -> AerisConfig {
    AerisConfig::toy_default(8)
}

/// The quality tier's sampler: 6 solver steps with the second-order
/// corrector, 12 network evaluations per forecast step.
pub fn sampler() -> TrigFlowSampler {
    TrigFlowSampler::new(
        TrigFlow::default(),
        SamplerConfig {
            n_steps: 6,
            churn: 0.1,
            second_order: true,
        },
    )
}

/// Untrained serving weights written to disk before timing, so every set-up
/// pays a real `Forecaster::load` / `ConsistencyStudent::load`. The files
/// are removed when this value drops.
pub struct SavedWeights {
    teacher: PathBuf,
    student: PathBuf,
}

impl SavedWeights {
    /// Save the teacher and its fast-tier student (a teacher copy: serving
    /// cost depends on the network evaluations, not on how well the student
    /// was distilled) under `dir`.
    pub fn save(dir: &Path, tag: &str) -> std::io::Result<SavedWeights> {
        std::fs::create_dir_all(dir)?;
        let cfg = serve_config();
        let channels = cfg.channels;
        let stats = NormStats {
            mean: vec![0.0; channels],
            std: vec![1.0; channels],
        };
        let fc = Forecaster {
            model: AerisModel::new(cfg),
            res_stats: stats.clone(),
            stats,
            sampler: sampler(),
        };
        let student = ConsistencyStudent {
            model: fc.replicate().model,
            stats: fc.stats.clone(),
            res_stats: fc.res_stats.clone(),
            tf: fc.sampler.tf,
        };
        let saved = SavedWeights {
            teacher: dir.join(format!("teacher-{tag}.bin")),
            student: dir.join(format!("student-{tag}.bin")),
        };
        fc.save(&saved.teacher)?;
        student.save(&saved.student)?;
        Ok(saved)
    }

    pub fn load_forecaster(&self) -> std::io::Result<Forecaster> {
        Forecaster::load(serve_config(), sampler(), &self.teacher)
    }

    pub fn load_student(&self) -> std::io::Result<ConsistencyStudent> {
        ConsistencyStudent::load(serve_config(), TrigFlow::default(), &self.student)
    }
}

impl Drop for SavedWeights {
    fn drop(&mut self) {
        for p in [&self.teacher, &self.student] {
            let _ = std::fs::remove_file(p);
            let _ = std::fs::remove_file(p.with_extension("stats"));
        }
    }
}
