//! The metric catalogue and the one-line JSON result every run prints last.

/// End-to-end metrics: printed by every untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Per-layer metrics: printed by every traced run of every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rayon.dispatch_us", "us"),
    ("tensor.gemm_gflops.serve_proj", "GFLOP/s"),
    ("tensor.gemm_gflops.serve_mlp", "GFLOP/s"),
    ("tensor.gemm_gflops.train_proj", "GFLOP/s"),
    ("tensor.gemm_gflops.train_mlp", "GFLOP/s"),
    ("tensor.gemm_gflops.train_scores_nt", "GFLOP/s"),
    ("autodiff.window_attention_ms.serve", "ms"),
    ("autodiff.window_attention_ms.train", "ms"),
    ("autodiff.window_attention_bwd_ms.train", "ms"),
    ("core.velocity_ms.serve", "ms"),
    ("core.velocity_ms.train", "ms"),
    ("core.forecast_step_ms", "ms"),
    ("core.batch4_ms_per_job", "ms"),
    ("core.fast_step_ms", "ms"),
    ("core.train_step_ms", "ms"),
    ("core.step_coverage", "ratio"),
    ("diffusion.nfe_per_step", "count"),
    ("diffusion.sampler_self_ms", "ms"),
    ("assim.guided_step_ms", "ms"),
    ("assim.nudge_ms_per_step", "ms"),
    ("assim.fast_nowcast_ms", "ms"),
    ("serve.submit_us_p50", "us"),
    ("serve.submit_us_p90", "us"),
    ("serve.cache_hit_share", "ratio"),
    ("serve.member_steps_computed", "count"),
    ("sched.shed", "count"),
    ("sched.quota_denied", "count"),
    ("sched.tenant_p50_ratio", "ratio"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.trace_noise_pct", "%"),
    ("swipe.bytes_per_step", "B"),
    ("swipe.comm_ops_per_step", "count"),
    ("loadgen.sent", "count"),
    ("loadgen.lag_p90_ms", "ms"),
    ("loadgen.fast_p50_ms", "ms"),
    ("loadgen.fast_p90_ms", "ms"),
    ("loadgen.quality_p50_ms", "ms"),
    ("loadgen.replay_p50_ms", "ms"),
    ("loadgen.slo_met_share", "ratio"),
];

/// Correctness gates and operation counts of one run.
#[derive(Default)]
pub struct Ledger {
    /// Operations attempted (requests sent, steps run) plus gates checked.
    pub attempted: u64,
    /// Each unexpected operation failure or failed gate, for the log.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Count one operation or gate; record it as failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Count one operation that succeeded.
    pub fn op(&mut self) {
        self.attempted += 1;
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Named metric values of one run.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.retain(|(n, _)| n != name);
        self.0.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(n, v)| (n.as_str(), *v))
    }
}

/// The result line: exactly the catalogue's metrics for the run's mode,
/// each with its unit. A metric that is missing or not finite is an error.
pub fn result_line(
    ledger: &Ledger,
    metrics: &Metrics,
    catalogue: &[(&str, &str)],
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        let value = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.correct(),
        ledger.attempted.max(1),
        ledger.failures.len(),
        parts.join(", ")
    ))
}
