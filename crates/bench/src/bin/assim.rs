//! Data-assimilation benchmark: what does observation guidance cost, and
//! what does it buy?
//!
//! Two measurements, emitted to `BENCH_assim.json`:
//!
//! 1. **Guided-step overhead** — ms per `forecast_step` with guidance off
//!    (plain sampler path) vs on (sparse nudge + exponential-integrator
//!    step), at several observation densities. The nudge touches only
//!    observed sites, so overhead should stay small and grow mildly with
//!    density.
//! 2. **RMSE vs density** — the `aeris_evaluation::analysis_quality` sweep:
//!    guided vs unguided ensemble-mean analysis RMSE as the station network
//!    densifies, at a fixed noise level.
//!
//! ```bash
//! cargo run --release -p aeris-bench --bin assim
//! ```

use aeris_assim::{nowcast_member, GuidanceSchedule, ObsOperator};
use aeris_bench::{header, measure, untrained_forecaster};
use aeris_diffusion::SamplerConfig;
use aeris_earthsim::Grid;
use aeris_evaluation::{analysis_quality, AssimEvalConfig};
use aeris_tensor::{Rng, Tensor};
use std::sync::Arc;

fn main() {
    let full = std::env::var("AERIS_FULL").map(|v| v == "1").unwrap_or(false);
    let reps = if full { 15 } else { 7 };
    let fc = untrained_forecaster(SamplerConfig { n_steps: 4, churn: 0.0, second_order: true });
    let cfg = &fc.model.cfg;
    let (tokens, channels) = (cfg.tokens(), cfg.channels);
    let grid = Grid::new(cfg.grid_h, cfg.grid_w);
    let mut rng = Rng::seed_from(41);
    let background = Arc::new(Tensor::randn(&[tokens, channels], &mut rng));
    let truth = background.add(&Tensor::randn(&[tokens, channels], &mut rng).scale(0.5));
    let forc = Tensor::zeros(&[tokens, 3]);

    // 1. guided-step overhead vs observation density.
    header("Guided-step overhead vs observation density");
    println!(
        "{:<16}{:>12}{:>12}{:>12}{:>12}",
        "stations", "plain ms", "guided ms", "overhead", "± guided"
    );
    let noise = 0.5f32;
    let base_op = ObsOperator::stations(&grid, 8, &[0, 1], &vec![noise; channels], 5);
    let base_obs = Arc::new(base_op.observe(&truth, 0.0, 6));
    let plain = measure(reps, || {
        let a = nowcast_member(
            &fc, &background, &forc, &base_obs, GuidanceSchedule::off(), 9, 0,
        );
        std::hint::black_box(&a);
    });
    let plain_ms = plain.median() * 1e3;
    let mut overhead_rows = Vec::new();
    for n_stations in [8usize, 32, tokens / 2, tokens] {
        let op = ObsOperator::stations(&grid, n_stations, &[0, 1], &vec![noise; channels], 5);
        let obs = Arc::new(op.observe(&truth, 0.0, 6));
        let guided = measure(reps, || {
            let a = nowcast_member(
                &fc, &background, &forc, &obs, GuidanceSchedule::Constant(0.05), 9, 0,
            );
            std::hint::black_box(&a);
        });
        let guided_ms = guided.median() * 1e3;
        let pct = guided.overhead_pct(&plain);
        let sd = guided.spread() * 1e3;
        println!("{n_stations:<16}{plain_ms:>12.3}{guided_ms:>12.3}{pct:>+11.2}%{sd:>12.3}");
        overhead_rows.push(format!(
            "{{\"stations\": {n_stations}, \"plain_ms\": {plain_ms:.4}, \
             \"guided_ms\": {guided_ms:.4}, \"overhead_pct\": {pct:.3}}}"
        ));
    }

    // 2. analysis RMSE vs density (fixed noise).
    header("Analysis RMSE vs observation density");
    let sweep = AssimEvalConfig {
        densities: vec![8, 32, tokens / 2, tokens],
        noise_levels: vec![0.3],
        channels_obs: vec![0, 1],
        schedule: GuidanceSchedule::Constant(0.05),
        n_members: if full { 4 } else { 2 },
        seed: 23,
    };
    let pts = analysis_quality(&fc, &grid, &background, &truth, &forc, &sweep);
    println!(
        "{:<16}{:>14}{:>14}{:>12}",
        "stations", "guided RMSE", "unguided RMSE", "ratio"
    );
    let mut rmse_rows = Vec::new();
    for p in &pts {
        println!(
            "{:<16}{:>14.4}{:>14.4}{:>12.3}",
            p.n_stations,
            p.guided_rmse,
            p.unguided_rmse,
            p.skill_ratio()
        );
        rmse_rows.push(format!(
            "{{\"stations\": {}, \"noise_std\": {:.3}, \"guided_rmse\": {:.5}, \
             \"unguided_rmse\": {:.5}, \"guided_spread\": {:.5}, \"unguided_spread\": {:.5}}}",
            p.n_stations,
            p.noise_std,
            p.guided_rmse,
            p.unguided_rmse,
            p.guided_spread,
            p.unguided_spread
        ));
    }

    let out = format!(
        "{{\n  \"guided_step_overhead\": [\n    {}\n  ],\n  \"rmse_vs_density\": [\n    {}\n  ]\n}}\n",
        overhead_rows.join(",\n    "),
        rmse_rows.join(",\n    "),
    );
    std::fs::write("BENCH_assim.json", &out).expect("write BENCH_assim.json");
    println!("wrote BENCH_assim.json");
}
