//! Per-rank pipeline-stage models and their segmented forward/backward.
//!
//! A model instance is split into `n_layers + 2` stages (§VII-A): stage 0
//! holds the input embedding, stages `1..=L` hold one Swin block each, and
//! the last stage holds the output norm, decoder and the loss. Parameters are
//! copied from a reference single-rank [`aeris_core::AerisModel`] so
//! distributed results can be compared against it exactly.
//!
//! A block stage runs the reference [`SwinBlock`]'s own pre- and
//! post-attention halves and supplies only the attention middle: two Ulysses
//! all-to-alls (heads scatter / gather) around the shared per-head loop. The
//! tape records the shipped activation vars, and the backward runs as three
//! `backward_from` passes with the transposed exchanges in between.

use crate::comm::{CommError, Communicator};
use crate::layout::ActLayout;
use aeris_autodiff::{Grads, Tape, Var};
use aeris_core::{AerisModel, SwinBlock};
use aeris_nn::timecond::AdaLnHead;
use aeris_nn::{
    accumulate_grads, rope_attention_heads, Binding, Linear, ParamId, ParamStore, RmsNorm,
    RopeTable, SwiGlu, TimeConditioner, WindowAttention,
};
use aeris_tensor::Tensor;

/// The layers one pipeline stage holds.
pub enum Stage {
    /// Stage 0: the input embedding.
    Input { embed: Linear },
    /// Stages `1..=L`: one Swin block, conditioned by its own replica of the
    /// shared time conditioner.
    Block { time_cond: TimeConditioner, block: Box<SwinBlock> },
    /// The last stage: output norm + decoder (+ the loss).
    Head { out_norm: RmsNorm, decode: Linear },
}

/// Learnable state of one stage (parameters replicated across DP×WP×SP).
pub struct StageModel {
    pub store: ParamStore,
    pub stage: Stage,
}

/// What a rank's stage needs besides its parameters and the microbatch.
pub struct StageCtx<'a> {
    /// This rank's activation layout.
    pub layout: &'a ActLayout,
    /// RoPE table for one window.
    pub rope: &'a RopeTable,
    /// World ranks of this rank's SP group (self included).
    pub sp_group: &'a [usize],
    /// Head: the loss weights of this rank's token rows.
    pub weight_rows: &'a Tensor,
}

/// Registers reference parameters into a stage's own store, in call order
/// (the order fixes the positional ZeRO-1 ownership).
struct Copier<'a> {
    src: &'a ParamStore,
    dst: ParamStore,
}

impl Copier<'_> {
    fn id(&mut self, id: ParamId) -> ParamId {
        self.dst.register(self.src.name(id).to_string(), self.src.get(id).clone())
    }

    fn linear(&mut self, l: Linear) -> Linear {
        Linear { w: self.id(l.w), b: l.b.map(|b| self.id(b)), ..l }
    }

    fn rms(&mut self, n: RmsNorm) -> RmsNorm {
        RmsNorm { gamma: self.id(n.gamma), ..n }
    }
}

impl StageModel {
    /// Build pipeline stage `stage` (of `blocks + 2`) by copying its
    /// parameters from `model`, which must use one block per Swin layer.
    pub fn from_reference(model: &AerisModel, stage: usize) -> Self {
        let mut c = Copier { src: &model.store, dst: ParamStore::new() };
        let stage = match stage {
            0 => Stage::Input { embed: c.linear(model.embed) },
            s if s > model.blocks.len() => {
                Stage::Head { out_norm: c.rms(model.out_norm), decode: c.linear(model.decode) }
            }
            s => {
                let time_cond =
                    TimeConditioner { proj: c.linear(model.time_cond.proj), ..model.time_cond };
                let b = &model.blocks[s - 1];
                let norm1 = c.rms(b.norm1);
                let attn = WindowAttention {
                    wq: c.linear(b.attn.wq),
                    wk: c.linear(b.attn.wk),
                    wv: c.linear(b.attn.wv),
                    wo: c.linear(b.attn.wo),
                    ..b.attn
                };
                let norm2 = c.rms(b.norm2);
                let mlp = SwiGlu { w_in: c.linear(b.mlp.w_in), w_down: c.linear(b.mlp.w_down), ..b.mlp };
                let adaln = AdaLnHead { head: c.linear(b.adaln.head), ..b.adaln };
                let block = Box::new(SwinBlock { norm1, attn, norm2, mlp, adaln, shifted: b.shifted });
                Stage::Block { time_cond, block }
            }
        };
        StageModel { store: c.dst, stage }
    }

    /// Ids of the globally replicated (time-conditioner) parameters.
    pub fn shared_param_ixs(&self) -> Vec<usize> {
        self.store
            .iter()
            .filter(|(_, n, _)| n.starts_with("time."))
            .map(|(id, _, _)| id.0)
            .collect()
    }
}

/// Record of one microbatch pass through a stage (kept until backward).
pub struct StageRun {
    pub tape: Tape,
    pub binding: Binding,
    /// Input leaf (None for the input stage, whose input is constant data).
    pub x_in: Option<Var>,
    /// Stage output: activations (input/block) or scalar loss (head).
    pub out: Var,
    /// Per-SP-peer QKV chunks shipped out (self slot included, unsent).
    pub qkv_sent: Vec<Var>,
    /// Per-SP-peer QKV leaves received (None at the self slot).
    pub qkv_recv: Vec<Option<Var>>,
    /// Per-SP-peer attention-output chunks shipped back.
    pub attn_sent: Vec<Var>,
    /// Per-SP-peer attention-output leaves received (None at self).
    pub attn_recv: Vec<Option<Var>>,
    /// Head stages: the (already globally scaled) loss value.
    pub loss: f64,
}

impl StageRun {
    fn simple(tape: Tape, binding: Binding, x_in: Option<Var>, out: Var) -> Self {
        StageRun {
            tape,
            binding,
            x_in,
            out,
            qkv_sent: Vec::new(),
            qkv_recv: Vec::new(),
            attn_sent: Vec::new(),
            attn_recv: Vec::new(),
            loss: 0.0,
        }
    }

    /// Activation elements currently held by this run's tape.
    pub fn activation_elems(&self) -> usize {
        self.tape.activation_elems()
    }
}

/// Ulysses exchange of per-peer chunks: ships `sent[j]` to SP peer `j` and
/// returns the received leaves (None at the self slot) plus the per-peer
/// vars in SP order (the self slot reuses `sent[me]`).
fn exchange(
    tape: &mut Tape,
    comm: &mut Communicator,
    sp_group: &[usize],
    me: usize,
    sent: &[Var],
) -> Result<(Vec<Option<Var>>, Vec<Var>), CommError> {
    let chunks: Vec<Tensor> = sent.iter().map(|&var| tape.value(var).clone()).collect();
    let received = comm.alltoall(sp_group, chunks)?;
    let recv: Vec<Option<Var>> = received
        .into_iter()
        .enumerate()
        .map(|(i, tens)| (i != me).then(|| tape.leaf(tens)))
        .collect();
    let vars = recv.iter().enumerate().map(|(i, leaf)| leaf.unwrap_or(sent[i])).collect();
    Ok((recv, vars))
}

impl StageModel {
    /// One microbatch forward. `x_in` is the stage input: the assembled,
    /// PE-augmented `[rows, in_channels]` data on the input stage, the
    /// relayouted `[rows, dim]` activations elsewhere. `target` is the head's
    /// velocity target rows; `t` the microbatch's shared diffusion time.
    pub fn forward(
        &self,
        x_in: Tensor,
        target: Option<&Tensor>,
        t: f32,
        ctx: &StageCtx,
        comm: &mut Communicator,
    ) -> Result<StageRun, CommError> {
        let store = &self.store;
        let mut tape = Tape::new();
        let mut binding = Binding::new(store);
        Ok(match &self.stage {
            Stage::Input { embed } => {
                let iv = tape.constant(x_in);
                let out = embed.forward(&mut tape, &mut binding, store, iv);
                StageRun::simple(tape, binding, None, out)
            }
            Stage::Block { time_cond, block } => {
                let x = tape.leaf(x_in);
                let cond = time_cond.embed(&mut tape, &mut binding, store, t);
                let (h, mods) = block.pre_attention(&mut tape, &mut binding, store, x, cond);
                let mut run = self.ulysses_attention(tape, binding, block, h, ctx, comm)?;
                let out =
                    block.post_attention(&mut run.tape, &mut run.binding, store, x, run.out, mods);
                run.x_in = Some(x);
                run.out = out;
                run
            }
            Stage::Head { out_norm, decode } => {
                // Decode + physically weighted loss, scaled by
                // rows/global_tokens so summing over all head ranks yields
                // the global mean objective.
                let rows = x_in.shape()[0];
                let x = tape.leaf(x_in);
                let h = out_norm.forward(&mut tape, &mut binding, store, x);
                let pred = decode.forward(&mut tape, &mut binding, store, h);
                let target = target.expect("the head stage needs its target rows");
                let local = tape.weighted_mse(pred, target, ctx.weight_rows);
                let global_tokens = ctx.layout.grid.tokens();
                let loss = tape.scale(local, rows as f32 / global_tokens as f32);
                let loss_val = tape.value(loss).data()[0] as f64;
                let mut run = StageRun::simple(tape, binding, Some(x), loss);
                run.loss = loss_val;
                run
            }
        })
    }

    /// The attention middle of a block stage (through `W_o`) under Ulysses
    /// sequence parallelism; `h` is the `[rows, dim]` pre-attention output
    /// for this rank's window chunks. The returned run's `out` is the
    /// projected attention output.
    fn ulysses_attention(
        &self,
        mut tape: Tape,
        mut binding: Binding,
        block: &SwinBlock,
        h: Var,
        ctx: &StageCtx,
        comm: &mut Communicator,
    ) -> Result<StageRun, CommError> {
        let (store, attn, sp_group) = (&self.store, &block.attn, ctx.sp_group);
        let sp = sp_group.len();
        let me = sp_group.iter().position(|&r| r == comm.rank()).expect("rank in sp group");
        let rows = tape.value(h).shape()[0];
        let nw = ctx.layout.windows_per_rank();
        let cr = ctx.layout.chunk_rows();
        assert_eq!(rows, nw * cr);
        let cols = attn.dim / sp; // feature columns per peer (local head block)

        let q = attn.wq.forward(&mut tape, &mut binding, store, h);
        let k = attn.wk.forward(&mut tape, &mut binding, store, h);
        let v = attn.wv.forward(&mut tape, &mut binding, store, h);

        // Ship [q|k|v] column-blocks to each peer: one [3*rows, dim/sp]
        // tensor per peer (the Ulysses scatter; window chunks are batched
        // into a single message, as in the paper's merged communication).
        let mut qkv_sent = Vec::with_capacity(sp);
        for j in 0..sp {
            let (c0, c1) = (j * cols, (j + 1) * cols);
            let qj = tape.slice_cols(q, c0, c1);
            let kj = tape.slice_cols(k, c0, c1);
            let vj = tape.slice_cols(v, c0, c1);
            qkv_sent.push(tape.concat_rows(&[qj, kj, vj]));
        }
        let (qkv_recv, qkv_vars) = exchange(&mut tape, comm, sp_group, me, &qkv_sent)?;

        // Per window: assemble the full [wlen, cols] Q/K/V for my head
        // block from all peers' chunks, run attention per local head.
        let mut attn_windows = Vec::with_capacity(nw);
        for w in 0..nw {
            let mut qs = Vec::with_capacity(sp);
            let mut ks = Vec::with_capacity(sp);
            let mut vs = Vec::with_capacity(sp);
            for &src in &qkv_vars {
                // Peer tensor layout: rows [0,rows)=q, [rows,2rows)=k, …
                let base_q: Vec<usize> = (w * cr..(w + 1) * cr).collect();
                let base_k: Vec<usize> = (rows + w * cr..rows + (w + 1) * cr).collect();
                let base_v: Vec<usize> = (2 * rows + w * cr..2 * rows + (w + 1) * cr).collect();
                qs.push(tape.gather_rows(src, &base_q));
                ks.push(tape.gather_rows(src, &base_k));
                vs.push(tape.gather_rows(src, &base_v));
            }
            let qw = tape.concat_rows(&qs); // [wlen, cols]
            let kw = tape.concat_rows(&ks);
            let vw = tape.concat_rows(&vs);
            attn_windows.push(rope_attention_heads(&mut tape, qw, kw, vw, attn.head_dim, ctx.rope));
        }

        // Redistribute: peer j takes rows [j*cr, (j+1)*cr) of each window.
        let mut attn_sent = Vec::with_capacity(sp);
        for j in 0..sp {
            let idx: Vec<usize> = (j * cr..(j + 1) * cr).collect();
            let mut gathered = Vec::with_capacity(nw);
            for w in 0..nw {
                gathered.push(tape.gather_rows(attn_windows[w], &idx));
            }
            attn_sent.push(tape.concat_rows(&gathered)); // [rows, cols]
        }
        let (attn_recv, attn_vars) = exchange(&mut tape, comm, sp_group, me, &attn_sent)?;
        // Peer i computed head block i: concat columns in SP order restores
        // the full feature dim for my rows.
        let attn_full = tape.concat_cols(&attn_vars); // [rows, dim]
        let out = attn.wo.forward(&mut tape, &mut binding, store, attn_full);
        Ok(StageRun { qkv_sent, qkv_recv, attn_sent, attn_recv, ..StageRun::simple(tape, binding, None, out) })
    }

    /// One microbatch backward. `g_out` is the gradient of the stage output
    /// (None on the head, whose output is the loss). Accumulates parameter
    /// gradients into `param_grads` and returns the gradient of the stage
    /// input (None on the input stage).
    pub fn backward(
        &self,
        mut run: StageRun,
        g_out: Option<Tensor>,
        ctx: &StageCtx,
        comm: &mut Communicator,
        param_grads: &mut [Option<Tensor>],
    ) -> Result<Option<Tensor>, CommError> {
        if let Stage::Block { .. } = self.stage {
            let g_out = g_out.expect("a block stage has a next stage");
            return backward_block(run, g_out, ctx.sp_group, comm, param_grads).map(Some);
        }
        let mut grads = match g_out {
            Some(g) => run.tape.backward_from(&[(run.out, g)]),
            None => run.tape.backward(run.out),
        };
        let g_in = run.x_in.map(|x| grads.take(x).expect("stage input grad"));
        accumulate_grads(param_grads, run.binding.collect_grads(&mut grads));
        Ok(g_in)
    }
}

/// Block backward: three `backward_from` passes with transposed all-to-alls.
/// Returns the gradient w.r.t. the block input and accumulates parameter
/// gradients into `param_grads`.
fn backward_block(
    mut run: StageRun,
    g_out: Tensor,
    sp_group: &[usize],
    comm: &mut Communicator,
    param_grads: &mut [Option<Tensor>],
) -> Result<Tensor, CommError> {
    let sp = sp_group.len();
    let me = sp_group.iter().position(|&r| r == comm.rank()).unwrap();
    let x_in = run.x_in.unwrap();
    let mut x_in_grad = Tensor::zeros(run.tape.value(x_in).shape());

    let accumulate = |grads: &mut Grads, x_in_grad: &mut Tensor, param_grads: &mut [Option<Tensor>]| {
        if let Some(g) = grads.take(x_in) {
            x_in_grad.add_assign(&g);
        }
        accumulate_grads(param_grads, run.binding.collect_grads(grads));
    };

    // Pass 1: from the block output.
    let mut pass1 = run.tape.backward_from(&[(run.out, g_out)]);
    // Grads for attention outputs computed by peers → alltoall back.
    let mut attn_chunks = Vec::with_capacity(sp);
    let mut pass1_qkv: Vec<Option<Tensor>> = vec![None; sp];
    for j in 0..sp {
        let g = match run.attn_recv[j] {
            Some(leaf) => {
                pass1.take(leaf).unwrap_or_else(|| Tensor::zeros(run.tape.value(leaf).shape()))
            }
            None => Tensor::zeros(&[0]),
        };
        attn_chunks.push(g);
    }
    for (j, slot) in pass1_qkv.iter_mut().enumerate() {
        if let Some(leaf) = run.qkv_recv[j] {
            *slot = pass1.take(leaf);
        }
    }
    accumulate(&mut pass1, &mut x_in_grad, param_grads);
    let attn_sent_grads = comm.alltoall(sp_group, attn_chunks)?;

    // Pass 2: seed grads of my attention outputs shipped to peers.
    let seeds: Vec<(Var, Tensor)> = (0..sp)
        .filter(|&i| i != me)
        .map(|i| (run.attn_sent[i], attn_sent_grads[i].clone()))
        .collect();
    let mut pass2 = run.tape.backward_from(&seeds);
    let mut qkv_chunks = Vec::with_capacity(sp);
    for j in 0..sp {
        let g = match run.qkv_recv[j] {
            Some(leaf) => {
                let shape = run.tape.value(leaf).shape().to_vec();
                let mut g = pass1_qkv[j].take().unwrap_or_else(|| Tensor::zeros(&shape));
                if let Some(g2) = pass2.take(leaf) {
                    g.add_assign(&g2);
                }
                g
            }
            None => Tensor::zeros(&[0]),
        };
        qkv_chunks.push(g);
    }
    accumulate(&mut pass2, &mut x_in_grad, param_grads);
    let qkv_sent_grads = comm.alltoall(sp_group, qkv_chunks)?;

    // Pass 3: seed grads of my QKV chunks shipped to peers.
    let seeds: Vec<(Var, Tensor)> = (0..sp)
        .filter(|&i| i != me)
        .map(|i| (run.qkv_sent[i], qkv_sent_grads[i].clone()))
        .collect();
    let mut pass3 = run.tape.backward_from(&seeds);
    accumulate(&mut pass3, &mut x_in_grad, param_grads);
    Ok(x_in_grad)
}
