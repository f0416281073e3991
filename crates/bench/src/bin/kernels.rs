//! Compute-substrate benchmark: GFLOP/s for the GEMM kernels and the fused
//! windowed-attention op, plus ms per training step, each at 1, 2, and N
//! worker threads (N = the machine's available parallelism). Emits
//! `BENCH_kernels.json` in the working directory so later changes have a perf
//! trajectory to regress against.
//!
//! Thread counts are switched in-process with `rayon::set_thread_override`
//! (equivalent to launching with `AERIS_THREADS=n`); the kernels are
//! bitwise-deterministic across counts, so every row measures identical work.
//!
//! Every timed repetition is recorded into an `aeris-obs` [`MetricSeries`]
//! registered on a shared [`Tracer`], so besides the best-of summary in
//! `BENCH_kernels.json` the full rep distributions export to
//! `BENCH_kernels.prom` in Prometheus text format — the same exporter path
//! the trainer and the serving engine use.

use aeris_autodiff::{Tape, WindowAttnPlan};
use aeris_core::{AerisConfig, AerisModel, TrainSample, Trainer, TrainerConfig};
use aeris_earthsim::Grid;
use aeris_nn::RopeTable;
use aeris_obs::{MetricSeries, Tracer};
use aeris_bench::{measure, Measurement};
use aeris_tensor::{
    matmul, matmul_bf16, matmul_nt, matmul_nt_bf16, matmul_tn, matmul_tn_bf16, Rng, Tensor,
};

/// Thread counts to sweep: 1, 2, and the machine width, deduplicated.
fn thread_counts() -> Vec<usize> {
    let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut counts = vec![1, 2, n];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Best-of-`reps` timing of `f` through [`measure`]; every timed rep is
/// also recorded (in milliseconds) into `series` for the Prometheus export.
fn measure_into(reps: usize, series: &MetricSeries, f: impl FnMut()) -> Measurement {
    let m = measure(reps, f);
    for secs in m.secs() {
        series.record(secs * 1e3);
    }
    m
}

/// One `{t}T value ±spread%` cell per measured thread count, where `value`
/// is `per_secs` applied to the best-of time.
fn cells(rows: &[Measurement], per_secs: impl Fn(f64) -> f64) -> String {
    let cells: Vec<String> = rows
        .iter()
        .map(|m| {
            let pct = m.spread() / m.median() * 100.0;
            format!("{}T {:7.2} ±{pct:.1}%", m.threads, per_secs(m.min()))
        })
        .collect();
    cells.join("  ")
}

/// `{"threads": t, "<key>": value}` per measured thread count, where `value`
/// is `f` applied to the best-of time.
fn rows_json(rows: &[Measurement], key: &str, prec: usize, f: impl Fn(f64) -> f64) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|m| format!("{{\"threads\": {}, \"{key}\": {:.prec$}}}", m.threads, f(m.min())))
        .collect();
    rows.join(", ")
}

struct GemmResult {
    name: &'static str,
    dims: (usize, usize, usize),
    /// Operand storage: `"f32"` or `"bf16"` (accumulation is always f32).
    dtype: &'static str,
    /// One measurement per thread count.
    rows: Vec<Measurement>,
}

impl GemmResult {
    fn gflops(&self, secs: f64) -> f64 {
        2.0 * (self.dims.0 * self.dims.1 * self.dims.2) as f64 / secs / 1e9
    }

    fn json(&self) -> String {
        let (m, n, k) = self.dims;
        let (dtype, rows) = (self.dtype, rows_json(&self.rows, "gflops", 3, |s| self.gflops(s)));
        format!(
            "{{\"m\": {m}, \"n\": {n}, \"k\": {k}, \"dtype\": \"{dtype}\", \"rows\": [{rows}]}}"
        )
    }
}

/// The body of a JSON object mapping each result's name to its JSON.
fn gemm_map(results: &[GemmResult]) -> String {
    let entries: Vec<String> =
        results.iter().map(|g| format!("    \"{}\": {}", g.name, g.json())).collect();
    entries.join(",\n")
}

/// Sweep `kernel` (which must run one full GEMM of `dims` per call) over the
/// thread counts. Operand construction stays outside the closure so only the
/// multiply is timed; reps is scaled so tiny hot shapes still get stable
/// best-of numbers. Prints the result's GFLOP/s line.
fn bench_gemm(
    tracer: &Tracer,
    name: &'static str,
    dims: (usize, usize, usize),
    dtype: &'static str,
    kernel: impl Fn(),
) -> GemmResult {
    let flops = 2.0 * (dims.0 * dims.1 * dims.2) as f64;
    let reps = if flops < 1e8 { 20 } else { 5 };
    let mut rows = Vec::new();
    for &t in &thread_counts() {
        rayon::set_thread_override(Some(t));
        let series = tracer.series(&format!("kernels_{name}_{t}t_ms"));
        rows.push(measure_into(reps, &series, &kernel));
    }
    rayon::set_thread_override(None);
    let g = GemmResult { name, dims, dtype, rows };
    let (m, n, k) = dims;
    println!("{name:<16} {m}x{n}x{k}  GFLOP/s: {}", cells(&g.rows, |s| g.gflops(s)));
    g
}

fn main() {
    let mut rng = Rng::seed_from(42);
    let tracer = Tracer::default();
    println!("AERIS kernel benchmark — threads swept: {:?}", thread_counts());

    // --- GEMM kernels (sizes above the parallel threshold), f32 and bf16
    //     storage through the same packed microkernel ---
    let s = 256;
    let a = Tensor::randn(&[s, s], &mut rng);
    let b = Tensor::randn(&[s, s], &mut rng);
    let (ah, bh) = (a.to_bf16(), b.to_bf16());
    let gemms = vec![
        bench_gemm(&tracer, "matmul", (s, s, s), "f32", || {
            std::hint::black_box(matmul(&a, &b));
        }),
        bench_gemm(&tracer, "matmul_nt", (s, s, s), "f32", || {
            std::hint::black_box(matmul_nt(&a, &b));
        }),
        bench_gemm(&tracer, "matmul_tn", (s, s, s), "f32", || {
            std::hint::black_box(matmul_tn(&a, &b));
        }),
        bench_gemm(&tracer, "matmul_bf16", (s, s, s), "bf16", || {
            std::hint::black_box(matmul_bf16(&ah, &bh));
        }),
        bench_gemm(&tracer, "matmul_nt_bf16", (s, s, s), "bf16", || {
            std::hint::black_box(matmul_nt_bf16(&ah, &bh));
        }),
        bench_gemm(&tracer, "matmul_tn_bf16", (s, s, s), "bf16", || {
            std::hint::black_box(matmul_tn_bf16(&ah, &bh));
        }),
    ];

    // --- model hot shapes (toy_default geometry: dim 64, 4 heads × head_dim
    //     16, ffn 128, 8×8 windows over a 32×64 grid → 2048 tokens, window
    //     length 64): the projection / attention-score / MLP GEMMs a training
    //     step actually issues ---
    let (tokens_hot, dim_hot, hd_hot, ffn_hot, wlen_hot) = (2048usize, 64usize, 16usize, 128usize, 64usize);
    let x_hot = Tensor::randn(&[tokens_hot, dim_hot], &mut rng);
    let w_proj = Tensor::randn(&[dim_hot, dim_hot], &mut rng);
    let q_win = Tensor::randn(&[wlen_hot, hd_hot], &mut rng);
    let k_win = Tensor::randn(&[wlen_hot, hd_hot], &mut rng);
    let w_up = Tensor::randn(&[dim_hot, ffn_hot], &mut rng);
    let h_hot = Tensor::randn(&[tokens_hot, ffn_hot], &mut rng);
    let w_down = Tensor::randn(&[ffn_hot, dim_hot], &mut rng);
    let hot_shapes = vec![
        bench_gemm(&tracer, "attn_proj", (tokens_hot, dim_hot, dim_hot), "f32", || {
            std::hint::black_box(matmul(&x_hot, &w_proj));
        }),
        bench_gemm(&tracer, "attn_scores_nt", (wlen_hot, wlen_hot, hd_hot), "f32", || {
            std::hint::black_box(matmul_nt(&q_win, &k_win));
        }),
        bench_gemm(&tracer, "mlp_up", (tokens_hot, ffn_hot, dim_hot), "f32", || {
            std::hint::black_box(matmul(&x_hot, &w_up));
        }),
        bench_gemm(&tracer, "mlp_down", (tokens_hot, dim_hot, ffn_hot), "f32", || {
            std::hint::black_box(matmul(&h_hot, &w_down));
        }),
    ];

    // --- fused window attention (toy_default geometry: 32×64 grid, 8×8
    //     windows, dim 64, 4 heads) ---
    let (n_windows, wlen, n_heads, head_dim) = (32, 64, 4, 16);
    let dim = n_heads * head_dim;
    let tokens = n_windows * wlen;
    let rope = RopeTable::new(8, 8, head_dim, 0, 0);
    let plan =
        WindowAttnPlan::new(n_windows, wlen, n_heads, head_dim, rope.cos.clone(), rope.sin.clone());
    let x = Tensor::randn(&[tokens, dim], &mut rng);
    let ws: Vec<Tensor> = (0..4)
        .map(|_| Tensor::randn(&[dim, dim], &mut rng).scale(1.0 / (dim as f32).sqrt()))
        .collect();
    // 4 projection GEMMs (8·T·dim²) + scores and weighted sum (4·T·wlen·dim).
    let attn_flops =
        8.0 * tokens as f64 * (dim * dim) as f64 + 4.0 * tokens as f64 * (wlen * dim) as f64;
    let mut attn_rows = Vec::new();
    for &t in &thread_counts() {
        rayon::set_thread_override(Some(t));
        let series = tracer.series(&format!("kernels_window_attn_{t}t_ms"));
        attn_rows.push(measure_into(5, &series, || {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let wv: Vec<_> = ws.iter().map(|w| tape.constant(w.clone())).collect();
            std::hint::black_box(tape.window_attention(xv, wv[0], wv[1], wv[2], wv[3], &plan));
        }));
    }
    rayon::set_thread_override(None);
    let attn_gflops = |secs: f64| attn_flops / secs / 1e9;
    println!(
        "{:<12} {n_windows}w×{wlen}×{dim}   GFLOP/s: {}",
        "window_attn",
        cells(&attn_rows, attn_gflops)
    );

    // --- full training step (forward + backward + AdamW), toy_default model ---
    let channels = 8;
    let cfg = AerisConfig::toy_default(channels);
    let step_tokens = cfg.tokens();
    let mut step_rows = Vec::new();
    for &t in &thread_counts() {
        rayon::set_thread_override(Some(t));
        let mut model = AerisModel::new(cfg.clone());
        let mut trainer = Trainer::new(
            &model,
            Grid::new(cfg.grid_h, cfg.grid_w),
            &vec![1.0; channels],
            TrainerConfig::paper_scaled(10_000, 2),
        );
        let samples: Vec<TrainSample> = (0..2)
            .map(|_| TrainSample {
                x_prev: Tensor::randn(&[step_tokens, channels], &mut rng),
                residual: Tensor::randn(&[step_tokens, channels], &mut rng),
                forcings: Tensor::randn(&[step_tokens, cfg.forcing_channels], &mut rng),
            })
            .collect();
        let batch: Vec<&TrainSample> = samples.iter().collect();
        let series = tracer.series(&format!("kernels_train_step_{t}t_ms"));
        step_rows.push(measure_into(3, &series, || {
            std::hint::black_box(trainer.train_step(&mut model, &batch));
        }));
    }
    rayon::set_thread_override(None);
    println!(
        "{:<12} {step_tokens} tokens, batch 2 (ms): {}",
        "train_step",
        cells(&step_rows, |s| s * 1e3)
    );
    let widest = step_rows.last().unwrap();
    let speedup = step_rows[0].min() / widest.min();
    println!("train_step speedup at {} threads vs 1: {speedup:.2}x", widest.threads);

    // --- JSON report ---
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"available_parallelism\": {},\n  \"thread_counts\": {:?},\n",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        thread_counts()
    ));
    out.push_str(&format!(
        "  \"gemm_gflops\": {{\n{}\n  }},\n  \"hot_shapes\": {{\n{}\n  }},\n",
        gemm_map(&gemms),
        gemm_map(&hot_shapes)
    ));
    out.push_str(&format!(
        "  \"window_attention\": {{\"n_windows\": {n_windows}, \"window_len\": {wlen}, \"n_heads\": {n_heads}, \"head_dim\": {head_dim}, \"rows\": [{}]}},\n",
        rows_json(&attn_rows, "gflops", 3, attn_gflops)
    ));
    out.push_str(&format!(
        "  \"training_step\": {{\"config\": \"toy_default({channels})\", \"tokens\": {step_tokens}, \"batch\": 2, \"rows\": [{}], \"speedup_max_vs_1\": {speedup:.3}}}\n",
        rows_json(&step_rows, "ms", 2, |s| s * 1e3)
    ));
    out.push_str("}\n");
    std::fs::write("BENCH_kernels.json", &out).expect("write BENCH_kernels.json");
    std::fs::write("BENCH_kernels.prom", tracer.prometheus_text())
        .expect("write BENCH_kernels.prom");
    println!("wrote BENCH_kernels.json and BENCH_kernels.prom");
}
