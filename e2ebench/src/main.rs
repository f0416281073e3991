//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report on stderr and, as the last line of
//! stdout, one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 1 when a correctness gate fails and 2 when the run cannot be
//! carried out.

use aeris_e2ebench::models::SavedWeights;
use aeris_e2ebench::report::{result_line, END_TO_END, PER_LAYER};
use aeris_e2ebench::{cpu_ticks, peak_rss_mib, probes, serve, stats, train, RunCtx, WORKLOADS};
use aeris_obs::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: e2ebench --workload <serve_capacity|train> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<RunCtx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("missing value after {}", pair[0]));
        };
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range (0, 600]"));
    }
    let trace = trace.ok_or("--trace is required")?;
    Ok(RunCtx {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        tracer: Tracer::new(trace),
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    })
}

fn run(ctx: &RunCtx) -> Result<(String, bool), String> {
    let ticks0 = cpu_ticks();
    let tag = format!("{}-{}-{}", ctx.workload, ctx.seed, std::process::id());
    let weights =
        SavedWeights::save(&ctx.out_dir, &tag).map_err(|e| format!("saving weights: {e}"))?;
    let mut run = match ctx.workload.as_str() {
        "serve_capacity" => serve::capacity(ctx, &weights)?,
        _ => train::train(ctx)?,
    };
    if ctx.trace && ctx.workload == "serve_capacity" {
        eprintln!("open-loop mix:");
        run.absorb_mix(serve::mixed(ctx, &weights)?);
    }
    let m = &mut run.metrics;
    m.set(
        "peak_rss_mib",
        peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?,
    );
    let catalogue = if ctx.trace {
        eprintln!("per-layer probes:");
        probes::run(&ctx.tracer, &weights, ctx.seed, m)?;
        match &run.split {
            Some(split) => {
                let (overhead, noise) = split
                    .overhead()
                    .ok_or("too few units to split for the overhead")?;
                m.set("obs.trace_overhead_pct", overhead);
                m.set("obs.trace_noise_pct", noise);
                let q = |v: &[f64]| {
                    stats::quartiles(v).map_or_else(
                        || "n/a".into(),
                        |q| format!("{:.3}/{:.3}/{:.3}", q[0], q[1], q[2]),
                    )
                };
                eprintln!(
                    "tracing overhead {overhead:+.2}% (noise {noise:.2}%, {}): traced quartiles {} ms, untraced {} ms",
                    if overhead.abs() > noise { "resolved" } else { "unresolved" },
                    q(&split.traced),
                    q(&split.untraced)
                );
            }
            None => {
                m.set("obs.trace_overhead_pct", 0.0);
                m.set("obs.trace_noise_pct", 0.0);
                eprintln!(
                    "tracing overhead: not measurable on {} (its units share work); \
                     compare its traced and untraced runs' end-to-end figures",
                    ctx.workload
                );
            }
        }
        let path = ctx.out_dir.join(format!("spans-{tag}.json"));
        std::fs::write(&path, ctx.tracer.chrome_trace())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "wrote {} spans to {}",
            ctx.tracer.span_count(),
            path.display()
        );
        PER_LAYER
    } else {
        END_TO_END
    };
    for &(name, unit) in catalogue {
        eprintln!(
            "  {name:<40} {:>14.4} {unit}",
            m.get(name).unwrap_or(f64::NAN)
        );
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks0, cpu_ticks()) {
        let stolen = 100.0 * s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64;
        eprintln!("host: {stolen:.1}% of CPU time was stolen by the hypervisor during this run");
    }
    for f in &run.ledger.failures {
        eprintln!("FAILED: {f}");
    }
    Ok((
        result_line(&run.ledger, m, catalogue)?,
        run.ledger.correct(),
    ))
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "e2ebench: workload {} seed {} seconds {} trace {} ({} threads available)",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        ctx.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    match run(&ctx) {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(2)
        }
    }
}
