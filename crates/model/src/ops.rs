//! Stage op enumeration: from "who is in the batch" to exact kernel
//! shapes.
//!
//! Continuous batching (Sec. II-C) batches *stages*: each stage carries
//! every ongoing request one token forward (decoding) and may also
//! admit new requests whose whole prompt is processed at once
//! (prefilling). [`StageShape`] captures that composition;
//! [`enumerate_stage`] expands it into:
//!
//! * batched **FC ops** (QKV generation, projection, gates, dense FFNs,
//!   LM head) whose token dimension is the whole stage's token count;
//! * **grouped attention ops**: attention can never be batched across
//!   requests because each request owns its KV matrices (Sec. II-C),
//!   but requests with *identical* context (for prefills: identical
//!   `(new, past)` pairs — see prefill-with-past on [`StageShape`])
//!   produce identical kernel shapes, so they collapse into one
//!   [`AttnOp`] carrying a `reqs` multiplicity. Continuous batching admits requests in
//!   cohorts that then advance in lockstep, so big stages typically
//!   shrink to a handful of groups — the system crate prices each group
//!   once and scales by `reqs`;
//! * per-MoE-layer **expert token histograms**, from the gate (analytic
//!   expectation by default, sampled for skew ablations — see
//!   [`crate::routing::RoutingMode`]).
//!
//! The shapes here are per *model pass*, unsharded; the system crate
//! applies tensor/expert/data parallelism.

use duplex_compute::kernel::GemmShape;
use rand::Rng;

use crate::config::ModelConfig;
use crate::routing::ExpertRouter;

/// Composition of one continuous-batching stage.
///
/// Prefills may be *prefills-with-past*: a sequence whose earlier
/// context is already KV-resident (a reused conversation history, or
/// the chunks of a long prompt processed in previous stages) prefills
/// only its new tokens, but those tokens cross-attend over the
/// resident context. `prefill_past` carries that resident length, and
/// `prefill_hold` marks intermediate chunks of a longer prompt, which
/// attend and write KV but do not sample an output token.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageShape {
    /// KV length attended by each decoding sequence (context so far,
    /// including the token being generated).
    pub decode_ctx: Vec<u64>,
    /// New tokens prefilled by each prefilling sequence (the whole
    /// prompt for a fresh request; the non-resident suffix or chunk
    /// under prefix reuse / chunked prefill).
    pub prefill_len: Vec<u64>,
    /// KV-resident context each prefill's new tokens attend over, in
    /// addition to themselves. Either empty (every prefill is fresh)
    /// or parallel to `prefill_len`.
    pub prefill_past: Vec<u64>,
    /// Prefills that are intermediate chunks of a longer prompt: they
    /// attend and write KV but emit no LM-head row (the prompt's final
    /// chunk samples the first token). Either empty (every prefill
    /// samples) or parallel to `prefill_len`.
    pub prefill_hold: Vec<bool>,
}

impl StageShape {
    /// A decoding-only stage over the given per-request context lengths.
    pub fn decode_only(ctx: &[u64]) -> Self {
        Self {
            decode_ctx: ctx.to_vec(),
            ..Self::default()
        }
    }

    /// A mixed stage: ongoing decodes plus newly admitted fresh
    /// prefills (no resident past).
    pub fn mixed(decode_ctx: &[u64], prefill_len: &[u64]) -> Self {
        Self {
            decode_ctx: decode_ctx.to_vec(),
            prefill_len: prefill_len.to_vec(),
            ..Self::default()
        }
    }

    /// A mixed stage whose prefills carry `(new_tokens, past_ctx)`
    /// pairs: each prefill attends over `past_ctx` resident tokens in
    /// addition to its own.
    pub fn with_past(decode_ctx: &[u64], prefill: &[(u64, u64)]) -> Self {
        let mut s = Self {
            decode_ctx: decode_ctx.to_vec(),
            ..Self::default()
        };
        for &(len, past) in prefill {
            s.push_prefill(len, past, false);
        }
        s
    }

    /// Append one prefill of `len` new tokens over `past` resident
    /// context; `hold` marks an intermediate chunk (no token sampled).
    /// Maintains the parallel-vector invariant: `prefill_past` /
    /// `prefill_hold` stay empty while every entry is zero / sampling.
    pub fn push_prefill(&mut self, len: u64, past: u64, hold: bool) {
        if past > 0 || !self.prefill_past.is_empty() {
            if self.prefill_past.is_empty() {
                self.prefill_past.resize(self.prefill_len.len(), 0);
            }
            self.prefill_past.push(past);
        }
        if hold || !self.prefill_hold.is_empty() {
            if self.prefill_hold.is_empty() {
                self.prefill_hold.resize(self.prefill_len.len(), false);
            }
            self.prefill_hold.push(hold);
        }
        self.prefill_len.push(len);
    }

    /// Remove every prefill, keeping vector capacity.
    pub fn clear_prefills(&mut self) {
        self.prefill_len.clear();
        self.prefill_past.clear();
        self.prefill_hold.clear();
    }

    /// Resident past context of prefill `i` (0 when all prefills are
    /// fresh).
    pub fn prefill_past_of(&self, i: usize) -> u64 {
        self.prefill_past.get(i).copied().unwrap_or(0)
    }

    /// Whether prefill `i` samples an output token (false for
    /// intermediate chunks of a longer prompt).
    pub fn prefill_samples(&self, i: usize) -> bool {
        !self.prefill_hold.get(i).copied().unwrap_or(false)
    }

    /// Whether the stage contains at least one prefilling sequence.
    pub fn is_mixed(&self) -> bool {
        !self.prefill_len.is_empty()
    }

    /// Tokens flowing through the batched FC/MoE layers.
    pub fn tokens(&self) -> u64 {
        self.decode_ctx.len() as u64 + self.prefill_len.iter().sum::<u64>()
    }

    /// Requests in the stage (the paper's "batch size").
    pub fn batch_size(&self) -> usize {
        self.decode_ctx.len() + self.prefill_len.len()
    }

    /// Sequences sampling an output token this stage (every decode,
    /// plus prefills that are not held chunks) — the LM-head row count.
    pub fn sampled_rows(&self) -> u64 {
        let held = self.prefill_hold.iter().filter(|&&h| h).count();
        (self.decode_ctx.len() + self.prefill_len.len() - held) as u64
    }
}

/// Sorted run-length-encoded multiset of decode context lengths,
/// maintained under continuous-batching deltas.
///
/// This is the delta-friendly form of the grouping [`enumerate_stage`]
/// performs per stage: one `(ctx, multiplicity)` group per distinct
/// context, in ascending context order — exactly the decode-group
/// order the executor's round-robin placement walks. The three batch
/// events map to cheap multiset updates:
///
/// * **advance** (every context +1) is O(1): contexts are stored
///   relative to a running offset, and a uniform +1 preserves both the
///   sort order and the group structure;
/// * **insert** (a prefill joining the decode set) and **remove** (a
///   retirement) are O(groups) worst case (binary search + shift), and
///   groups are few: lockstep cohorts collapse to a handful.
///
/// The aggregates ([`ContextGroups::reqs`], [`ContextGroups::ctx_sum`])
/// are maintained exactly, which is what lets a pure-decode stage be
/// priced in O(1) from `(batch size, Σctx)` alone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ContextGroups {
    /// `(ctx - offset, multiplicity)`, ascending by relative context.
    /// Relative contexts may be negative: a freshly admitted request's
    /// context can be far below the offset accumulated by a long run.
    rel: Vec<(i64, u64)>,
    offset: i64,
    reqs: u64,
    ctx_sum: u64,
}

impl ContextGroups {
    /// Remove every context (the batch emptied or a run restarted).
    pub fn clear(&mut self) {
        self.rel.clear();
        self.offset = 0;
        self.reqs = 0;
        self.ctx_sum = 0;
    }

    /// Requests in the decode set.
    pub fn reqs(&self) -> u64 {
        self.reqs
    }

    /// Distinct context lengths (= grouped attention ops).
    pub fn group_count(&self) -> usize {
        self.rel.len()
    }

    /// Σ of all contexts (exact).
    pub fn ctx_sum(&self) -> u64 {
        self.ctx_sum
    }

    /// Advance every context by one token (O(1)).
    pub fn advance(&mut self) {
        self.offset += 1;
        self.ctx_sum += self.reqs;
    }

    /// Add one request at context `ctx`.
    pub fn insert(&mut self, ctx: u64) {
        let rel = ctx as i64 - self.offset;
        match self.rel.binary_search_by_key(&rel, |g| g.0) {
            Ok(i) => self.rel[i].1 += 1,
            Err(i) => self.rel.insert(i, (rel, 1)),
        }
        self.reqs += 1;
        self.ctx_sum += ctx;
    }

    /// Remove one request at context `ctx`; false if absent.
    pub fn remove(&mut self, ctx: u64) -> bool {
        let rel = ctx as i64 - self.offset;
        match self.rel.binary_search_by_key(&rel, |g| g.0) {
            Ok(i) => {
                self.rel[i].1 -= 1;
                if self.rel[i].1 == 0 {
                    self.rel.remove(i);
                }
                self.reqs -= 1;
                self.ctx_sum -= ctx;
                true
            }
            Err(_) => false,
        }
    }

    /// Groups as `(ctx, multiplicity)` in ascending context order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + Clone + '_ {
        self.rel
            .iter()
            .map(|&(rel, count)| ((rel + self.offset) as u64, count))
    }

    /// Expand into per-request contexts, ascending (for materializing a
    /// [`StageShape`] when an incremental path must fall back).
    pub fn fill_decode_ctx(&self, out: &mut Vec<u64>) {
        out.clear();
        for (ctx, count) in self.iter() {
            out.extend(std::iter::repeat_n(ctx, count as usize));
        }
    }
}

/// One batched fully-connected GEMM, run `count` times per model pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FcOp {
    /// Which FC this is ("qkv", "proj", "ffn_up", "ffn_down", "gate",
    /// "lm_head").
    pub name: &'static str,
    /// Instances per model pass (usually the layer count).
    pub count: u64,
    /// Per-instance GEMM shape.
    pub shape: GemmShape,
}

impl FcOp {
    /// DRAM bytes of weights streamed per instance.
    pub fn weight_bytes(&self, bytes_per_elem: u64) -> u64 {
        self.shape.weight_bytes(bytes_per_elem)
    }
}

/// Attention of one request in one decoder layer (replicated `count`
/// times across layers), on behalf of `reqs` requests with identical
/// shape. Head groups are folded into the row dimension: attention is
/// memory-bound in every regime the paper studies, so the group fold
/// preserves both byte traffic and FLOPs.
///
/// All per-op quantities ([`AttnOp::flops`], [`AttnOp::kv_dram_bytes`],
/// the kernel shapes) describe **one** request; consumers scale by
/// `reqs` (and `count`) when aggregating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttnOp {
    /// True for a decoding sequence, false for a prefilling one.
    pub decode: bool,
    /// KV length produced by this op's own tokens (the full context for
    /// a decode, the new-token count for a prefill).
    pub ctx: u64,
    /// KV-resident context attended *in addition to* `ctx`: the parked
    /// history of a reused turn or the already-processed chunks of a
    /// long prompt (prefill-with-past). Always 0 for decode ops (their
    /// whole context is `ctx`) and fresh prefills. The past is fully
    /// attended — causal masking applies only within the `ctx` block.
    pub past: u64,
    /// Query rows per KV group (`deg_grp` when decoding, `len * deg_grp`
    /// when prefilling).
    pub q_rows: u64,
    /// KV groups (= KV heads).
    pub groups: u64,
    /// Per-head dimension.
    pub d_head: u64,
    /// Causal masking over the new-token block (halves its effective
    /// score/value FLOPs; the `past` block is attended in full).
    pub causal: bool,
    /// Layer replication count.
    pub count: u64,
    /// How many identical requests this grouped op stands for.
    pub reqs: u64,
    /// Whether each request of this group emits an LM-head row (every
    /// decode; prefills unless they are held intermediate chunks).
    pub samples: bool,
}

impl AttnOp {
    /// The grouped op of `reqs` decoding requests attending `ctx`
    /// tokens each.
    pub fn decode_group(config: &ModelConfig, ctx: u64, reqs: u64) -> Self {
        Self {
            decode: true,
            ctx,
            past: 0,
            q_rows: u64::from(config.deg_grp),
            groups: u64::from(config.kv_heads()),
            d_head: config.d_head(),
            causal: false,
            count: u64::from(config.n_layers),
            reqs,
            samples: true,
        }
    }

    /// The grouped op of `reqs` requests prefilling `len` new tokens
    /// over `past` resident ones; `hold` marks intermediate chunks,
    /// which sample no token.
    pub fn prefill_group(config: &ModelConfig, len: u64, past: u64, hold: bool, reqs: u64) -> Self {
        Self {
            decode: false,
            ctx: len,
            past,
            q_rows: len * u64::from(config.deg_grp),
            groups: u64::from(config.kv_heads()),
            d_head: config.d_head(),
            causal: true,
            count: u64::from(config.n_layers),
            reqs,
            samples: !hold,
        }
    }

    /// Total KV length attended (`past + ctx`).
    pub fn attended(&self) -> u64 {
        self.past + self.ctx
    }

    /// Effective score-context length after causal masking: the past is
    /// fully attended, the new block causally.
    fn eff_ctx(&self) -> u64 {
        self.past
            + if self.causal {
                self.ctx.div_ceil(2)
            } else {
                self.ctx
            }
    }

    /// The Q·Kᵀ GEMM, groups folded into rows.
    pub fn score_shape(&self) -> GemmShape {
        GemmShape {
            m: self.q_rows * self.groups,
            n: self.eff_ctx(),
            k: self.d_head,
        }
    }

    /// The softmax(S)·V GEMM, groups folded into rows.
    pub fn value_shape(&self) -> GemmShape {
        GemmShape {
            m: self.q_rows * self.groups,
            n: self.d_head,
            k: self.eff_ctx(),
        }
    }

    /// DRAM bytes of K plus V streamed per layer instance (resident
    /// past included: the suffix's cross-attention reads it too).
    pub fn kv_dram_bytes(&self, bytes_per_elem: u64) -> u64 {
        2 * self.attended() * self.d_head * self.groups * bytes_per_elem
    }

    /// FLOPs per layer instance (score + value GEMMs).
    pub fn flops(&self) -> f64 {
        self.score_shape().flops() + self.value_shape().flops()
    }

    /// Arithmetic intensity of this attention op. For GQA decode this is
    /// ~`deg_grp` (4–8), for MHA ~1 — the paper's Sec. III-A numbers.
    pub fn op_b(&self, bytes_per_elem: u64) -> f64 {
        self.flops() / self.kv_dram_bytes(bytes_per_elem) as f64
    }
}

/// Per-expert token counts for one MoE layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoeLayerWork {
    /// Index of the MoE block within the model.
    pub layer: u32,
    /// Tokens routed to each expert (length = expert count, sums to
    /// `stage_tokens * top_k`).
    pub expert_tokens: Vec<u64>,
}

impl MoeLayerWork {
    /// Total token-expert assignments in this layer.
    pub fn total_tokens(&self) -> u64 {
        self.expert_tokens.iter().sum()
    }
}

/// The kernels of one expert FFN invocation over `tokens` tokens:
/// `(ffn_fcs - 1)` up-projections, one down-projection, and the gated
/// activation element count (0 for 2-matrix FFNs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpertWork {
    /// Up/gate projection shape (`tokens x intermediate x hidden`).
    pub up_shape: GemmShape,
    /// How many up/gate projections run.
    pub up_count: u64,
    /// Down projection shape (`tokens x hidden x intermediate`).
    pub down_shape: GemmShape,
    /// Elements through the gated-activation unit.
    pub activation_elems: u64,
}

impl ExpertWork {
    /// Build the kernel set for one expert of `config` over `tokens`.
    pub fn for_tokens(config: &ModelConfig, tokens: u64) -> Self {
        let up = GemmShape {
            m: tokens,
            n: config.intermediate,
            k: config.hidden,
        };
        let down = GemmShape {
            m: tokens,
            n: config.hidden,
            k: config.intermediate,
        };
        let gated = config.ffn_fcs == 3;
        Self {
            up_shape: up,
            up_count: u64::from(config.ffn_fcs) - 1,
            down_shape: down,
            activation_elems: if gated {
                tokens * config.intermediate
            } else {
                0
            },
        }
    }

    /// Weight bytes streamed when the expert runs (all its matrices).
    pub fn weight_bytes(&self, bytes_per_elem: u64) -> u64 {
        self.up_shape.weight_bytes(bytes_per_elem) * self.up_count
            + self.down_shape.weight_bytes(bytes_per_elem)
    }

    /// Total FLOPs of the expert invocation.
    pub fn flops(&self) -> f64 {
        self.up_shape.flops() * self.up_count as f64 + self.down_shape.flops()
    }
}

/// Everything one stage executes, unsharded.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageWork {
    /// Tokens through the batched FC/MoE path.
    pub tokens: u64,
    /// Rows through the LM head (one per sequence producing a token).
    pub lm_rows: u64,
    /// Batched FC ops with per-pass counts.
    pub fc_ops: Vec<FcOp>,
    /// Grouped attention ops (identical-shape requests share one op
    /// with a `reqs` multiplicity), decode groups before prefill
    /// groups; decodes ascend by context, prefills by `(len, past,
    /// hold)`.
    pub attn: Vec<AttnOp>,
    /// Per-MoE-layer expert histograms (empty for dense models).
    pub moe: Vec<MoeLayerWork>,
    /// Every MoE layer of this stage sees the same histogram (always
    /// true under expected-value routing). When set by
    /// [`enumerate_stage_into`], only `moe[0]` is filled — the
    /// remaining layers keep unspecified contents and consumers must
    /// price `moe[0]` once per layer. [`enumerate_stage`] materializes
    /// every layer and clears this flag.
    pub moe_uniform: bool,
    /// KV-cache bytes appended by this stage (all layers, all requests).
    pub kv_write_bytes: u64,
    /// Whether the stage was mixed (had prefill sequences).
    pub mixed: bool,
    /// Sort scratch for decode contexts (reused across calls; contents
    /// after a call are an implementation detail).
    pub ctx_scratch: Vec<u64>,
    /// Sort scratch for prefill `(len, past, hold)` keys (see
    /// [`push_prefill_groups`]).
    pub pre_scratch: Vec<(u64, u64, bool)>,
    /// Largest-remainder scratch of expected-value routing (see
    /// [`ExpertRouter::route_expected_into`]).
    pub remainder_scratch: Vec<(f64, usize)>,
}

/// Fill `fc_ops` with the batched FC GEMMs of one stage over `tokens`
/// FC-path tokens and `lm_rows` LM-head rows, clearing any previous
/// contents (capacity is kept). Exposed separately from
/// [`enumerate_stage`] because the FC op list is a pure function of
/// `(tokens, lm_rows)` — incremental pricing rebuilds it from batch
/// aggregates without enumerating attention groups.
pub fn fill_fc_ops(config: &ModelConfig, tokens: u64, lm_rows: u64, fc_ops: &mut Vec<FcOp>) {
    let layers = u64::from(config.n_layers);
    let kv_n = 2 * u64::from(config.kv_heads()) * config.d_head();
    fc_ops.clear();
    fc_ops.push(FcOp {
        name: "qkv",
        count: layers,
        shape: GemmShape {
            m: tokens,
            n: config.hidden + kv_n,
            k: config.hidden,
        },
    });
    fc_ops.push(FcOp {
        name: "proj",
        count: layers,
        shape: GemmShape {
            m: tokens,
            n: config.hidden,
            k: config.hidden,
        },
    });
    let dense_blocks = u64::from(config.dense_block_count());
    if dense_blocks > 0 {
        fc_ops.push(FcOp {
            name: "ffn_up",
            count: dense_blocks * (u64::from(config.ffn_fcs) - 1),
            shape: GemmShape {
                m: tokens,
                n: config.intermediate,
                k: config.hidden,
            },
        });
        fc_ops.push(FcOp {
            name: "ffn_down",
            count: dense_blocks,
            shape: GemmShape {
                m: tokens,
                n: config.hidden,
                k: config.intermediate,
            },
        });
    }
    if config.is_moe() {
        fc_ops.push(FcOp {
            name: "gate",
            count: u64::from(config.moe_block_count()),
            shape: GemmShape {
                m: tokens,
                n: u64::from(config.n_experts),
                k: config.hidden,
            },
        });
    }
    fc_ops.push(FcOp {
        name: "lm_head",
        count: 1,
        shape: GemmShape {
            m: lm_rows,
            n: config.vocab,
            k: config.hidden,
        },
    });
}

/// Append one grouped prefill [`AttnOp`] per distinct `(len, past,
/// hold)` key of `keys` (sorted in place), in ascending key order.
/// Groups key on the full triple: only identical kernel shapes with
/// identical LM-row accounting may share a group.
pub fn push_prefill_groups(
    config: &ModelConfig,
    keys: &mut [(u64, u64, bool)],
    attn: &mut Vec<AttnOp>,
) {
    keys.sort_unstable();
    let first = attn.len();
    for &(len, past, hold) in keys.iter() {
        if let Some(last) = attn[first..].last_mut() {
            if last.ctx == len && last.past == past && last.samples != hold {
                last.reqs += 1;
                continue;
            }
        }
        attn.push(AttnOp::prefill_group(config, len, past, hold, 1));
    }
}

/// Expand a stage into its kernel shapes, drawing expert routing from
/// `router` via `rng` (one draw per MoE layer when sampling; the
/// default expected-value mode computes one histogram and shares it).
pub fn enumerate_stage<R: Rng + ?Sized>(
    config: &ModelConfig,
    shape: &StageShape,
    router: &ExpertRouter,
    rng: &mut R,
) -> StageWork {
    let mut work = StageWork::default();
    enumerate_stage_into(config, shape, router, rng, &mut work);
    // The _into form leaves uniform histograms collapsed into `moe[0]`;
    // materialize them so casual consumers see every layer filled.
    if work.moe_uniform {
        let (first, rest) = work.moe.split_at_mut(1);
        for layer in rest {
            layer.expert_tokens.clone_from(&first[0].expert_tokens);
        }
        work.moe_uniform = false;
    }
    work
}

/// Allocation-reusing form of [`enumerate_stage`]: clears and refills
/// `work`, keeping the capacity of its vectors (including each MoE
/// layer's histogram). The stage-pricing hot loop calls this with an
/// executor-owned scratch `StageWork` so steady-state enumeration
/// performs no per-stage heap allocation at all (the context and
/// prefill sorts run in `work`'s scratch vectors).
///
/// Unlike [`enumerate_stage`], uniform MoE histograms stay collapsed:
/// under expected-value routing only `work.moe[0]` is filled and
/// `work.moe_uniform` is set (see [`StageWork::moe_uniform`]).
pub fn enumerate_stage_into<R: Rng + ?Sized>(
    config: &ModelConfig,
    shape: &StageShape,
    router: &ExpertRouter,
    rng: &mut R,
    work: &mut StageWork,
) {
    debug_assert!(
        shape.prefill_past.is_empty() || shape.prefill_past.len() == shape.prefill_len.len(),
        "prefill_past must be empty or parallel to prefill_len"
    );
    debug_assert!(
        shape.prefill_hold.is_empty() || shape.prefill_hold.len() == shape.prefill_len.len(),
        "prefill_hold must be empty or parallel to prefill_len"
    );
    let tokens = shape.tokens();
    let lm_rows = shape.sampled_rows();

    work.tokens = tokens;
    work.lm_rows = lm_rows;
    work.kv_write_bytes = tokens * config.kv_bytes_per_token();
    work.mixed = shape.is_mixed();

    fill_fc_ops(config, tokens, lm_rows, &mut work.fc_ops);

    // Group identical-shape requests: one AttnOp per distinct context
    // length (per class), with a multiplicity, in ascending context
    // order. Sorting + run-length encoding beats a hash map here both
    // when contexts are uniform (lockstep cohorts: the sort is a no-op
    // over equal keys) and when they are all distinct (no per-request
    // hashing); the deterministic order keeps round-robin data-parallel
    // placement reproducible.
    let StageWork {
        attn,
        ctx_scratch,
        pre_scratch,
        ..
    } = &mut *work;
    attn.clear();
    ctx_scratch.clear();
    ctx_scratch.extend_from_slice(&shape.decode_ctx);
    ctx_scratch.sort_unstable();
    for &ctx in ctx_scratch.iter() {
        if let Some(last) = attn.last_mut() {
            if last.ctx == ctx {
                last.reqs += 1;
                continue;
            }
        }
        attn.push(AttnOp::decode_group(config, ctx, 1));
    }
    pre_scratch.clear();
    pre_scratch.extend((0..shape.prefill_len.len()).map(|i| {
        (
            shape.prefill_len[i],
            shape.prefill_past_of(i),
            !shape.prefill_samples(i),
        )
    }));
    push_prefill_groups(config, pre_scratch, attn);

    // MoE histograms, reusing each layer's existing allocation.
    let blocks = if config.is_moe() {
        config.moe_block_count() as usize
    } else {
        0
    };
    work.moe.truncate(blocks);
    while work.moe.len() < blocks {
        work.moe.push(MoeLayerWork {
            layer: 0,
            expert_tokens: Vec::new(),
        });
    }
    for (i, layer) in work.moe.iter_mut().enumerate() {
        layer.layer = i as u32;
    }
    work.moe_uniform = false;
    if blocks > 0 {
        match router.mode() {
            // Expected counts are a pure function of the token count:
            // compute one histogram; layers 1.. stay collapsed (see
            // [`StageWork::moe_uniform`]).
            crate::routing::RoutingMode::Expected => {
                router.route_expected_into(
                    tokens,
                    &mut work.moe[0].expert_tokens,
                    &mut work.remainder_scratch,
                );
                work.moe_uniform = true;
            }
            // Each layer's gate is an independent draw.
            crate::routing::RoutingMode::Sampled => {
                for layer in &mut work.moe {
                    router.route_sampled_into(rng, tokens, &mut layer.expert_tokens);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn work(config: &ModelConfig, shape: &StageShape) -> StageWork {
        let router = if config.is_moe() {
            ExpertRouter::uniform(config.n_experts, config.top_k)
        } else {
            ExpertRouter::uniform(1, 1)
        };
        let mut rng = StdRng::seed_from_u64(7);
        enumerate_stage(config, shape, &router, &mut rng)
    }

    #[test]
    fn decode_only_stage_token_math() {
        let config = ModelConfig::mixtral_8x7b();
        let shape = StageShape::decode_only(&[100, 200, 300]);
        let w = work(&config, &shape);
        assert_eq!(w.tokens, 3);
        assert_eq!(w.lm_rows, 3);
        assert!(!w.mixed);
        assert_eq!(w.attn.len(), 3, "distinct contexts stay distinct groups");
        assert!(w.attn.iter().all(|a| a.decode && a.reqs == 1));
    }

    #[test]
    fn identical_contexts_collapse_into_one_group() {
        let config = ModelConfig::mixtral_8x7b();
        let w = work(&config, &StageShape::decode_only(&[512; 64]));
        assert_eq!(w.attn.len(), 1);
        assert_eq!(w.attn[0].reqs, 64);
        assert_eq!(w.attn[0].ctx, 512);

        // Interleaved duplicates group in ascending context order.
        let w = work(&config, &StageShape::decode_only(&[9, 7, 9, 7, 7]));
        assert_eq!(w.attn.len(), 2);
        assert_eq!((w.attn[0].ctx, w.attn[0].reqs), (7, 3));
        assert_eq!((w.attn[1].ctx, w.attn[1].reqs), (9, 2));
    }

    #[test]
    fn group_multiplicities_sum_to_batch_size() {
        let config = ModelConfig::mixtral_8x7b();
        let shape = StageShape::mixed(&[64, 64, 128, 64, 128], &[2048, 2048, 512]);
        let w = work(&config, &shape);
        let decode_reqs: u64 = w.attn.iter().filter(|a| a.decode).map(|a| a.reqs).sum();
        let prefill_reqs: u64 = w.attn.iter().filter(|a| !a.decode).map(|a| a.reqs).sum();
        assert_eq!(decode_reqs, 5);
        assert_eq!(prefill_reqs, 3);
        // Decode groups come first, each class in ascending ctx order.
        assert_eq!(w.attn.len(), 4);
        assert!(w.attn[0].decode && w.attn[1].decode);
        assert_eq!((w.attn[2].ctx, w.attn[2].reqs), (512, 1));
        assert_eq!((w.attn[3].ctx, w.attn[3].reqs), (2048, 2));
    }

    #[test]
    fn mixed_stage_tokens_include_prompt() {
        let config = ModelConfig::mixtral_8x7b();
        let shape = StageShape::mixed(&[50; 31], &[2048]);
        let w = work(&config, &shape);
        assert_eq!(w.tokens, 31 + 2048);
        assert_eq!(w.lm_rows, 32);
        assert!(w.mixed);
        let prefill: Vec<_> = w.attn.iter().filter(|a| !a.decode).collect();
        assert_eq!(prefill.len(), 1);
        assert!(prefill[0].causal);
        assert_eq!(prefill[0].q_rows, 2048 * 4);
    }

    #[test]
    fn moe_histograms_per_layer_sum() {
        let config = ModelConfig::mixtral_8x7b();
        let shape = StageShape::decode_only(&[128; 32]);
        let w = work(&config, &shape);
        assert_eq!(w.moe.len(), 32);
        for layer in &w.moe {
            assert_eq!(layer.total_tokens(), 32 * 2, "top-2 over 32 tokens");
            assert_eq!(layer.expert_tokens.len(), 8);
        }
    }

    #[test]
    fn glam_has_dense_and_moe_blocks() {
        let config = ModelConfig::glam();
        let shape = StageShape::decode_only(&[512; 64]);
        let w = work(&config, &shape);
        assert_eq!(w.moe.len(), 16);
        assert!(w.fc_ops.iter().any(|f| f.name == "ffn_up" && f.count == 16));
        assert!(w.fc_ops.iter().any(|f| f.name == "gate" && f.count == 16));
    }

    #[test]
    fn dense_models_have_no_moe_work() {
        let config = ModelConfig::llama3_70b();
        let shape = StageShape::decode_only(&[512; 8]);
        let w = work(&config, &shape);
        assert!(w.moe.is_empty());
        assert!(w.fc_ops.iter().any(|f| f.name == "ffn_up"));
        assert!(!w.fc_ops.iter().any(|f| f.name == "gate"));
    }

    #[test]
    fn gqa_decode_attention_op_b_matches_paper() {
        // Sec. I: GQA attention Op/B is 4-8; MHA ~1.
        let mixtral = ModelConfig::mixtral_8x7b();
        let w = work(&mixtral, &StageShape::decode_only(&[2048]));
        let op_b = w.attn[0].op_b(2);
        assert!((op_b - 4.0).abs() < 0.1, "Mixtral deg 4, got {op_b}");

        let opt = ModelConfig::opt_66b();
        let w = work(&opt, &StageShape::decode_only(&[2048]));
        let op_b = w.attn[0].op_b(2);
        assert!((op_b - 1.0).abs() < 0.1, "MHA, got {op_b}");
    }

    #[test]
    fn expert_work_op_b_is_token_count() {
        let config = ModelConfig::mixtral_8x7b();
        for t in [1u64, 8, 64] {
            let e = ExpertWork::for_tokens(&config, t);
            let op_b = e.flops() / e.weight_bytes(2) as f64;
            assert!((op_b - t as f64).abs() < 1e-9, "tokens {t}: {op_b}");
        }
    }

    #[test]
    fn expert_weight_bytes_match_config() {
        let config = ModelConfig::mixtral_8x7b();
        let e = ExpertWork::for_tokens(&config, 5);
        assert_eq!(e.weight_bytes(2), config.ffn_params() * 2);
        assert_eq!(e.up_count, 2);
        assert!(e.activation_elems > 0);

        let glam = ModelConfig::glam();
        let e2 = ExpertWork::for_tokens(&glam, 5);
        assert_eq!(e2.up_count, 1);
        assert_eq!(e2.activation_elems, 0);
    }

    #[test]
    fn kv_write_bytes_scale_with_tokens() {
        let config = ModelConfig::mixtral_8x7b();
        let w1 = work(&config, &StageShape::decode_only(&[10; 4]));
        let w2 = work(&config, &StageShape::mixed(&[10; 4], &[100]));
        assert_eq!(w1.kv_write_bytes, 4 * config.kv_bytes_per_token());
        assert_eq!(w2.kv_write_bytes, 104 * config.kv_bytes_per_token());
    }

    #[test]
    fn prefill_with_past_charges_resident_kv() {
        let config = ModelConfig::mixtral_8x7b();
        // A 256-token suffix over a 768-token resident history.
        let shape = StageShape::with_past(&[100; 3], &[(256, 768)]);
        let w = work(&config, &shape);
        assert_eq!(w.tokens, 3 + 256, "only new tokens flow through FC");
        assert_eq!(w.lm_rows, 4);
        let pre = w.attn.iter().find(|a| !a.decode).expect("prefill op");
        assert_eq!((pre.ctx, pre.past), (256, 768));
        assert_eq!(pre.attended(), 1024);
        // KV streamed covers past + new; a fresh prefill of the same
        // suffix reads only its own KV.
        let fresh = AttnOp { past: 0, ..*pre };
        assert_eq!(
            pre.kv_dram_bytes(2) - fresh.kv_dram_bytes(2),
            2 * 768 * pre.d_head * pre.groups * 2
        );
        // Score context: the past is fully attended, the new block
        // causally.
        assert_eq!(pre.score_shape().n, 768 + 128);
        assert!(pre.flops() > fresh.flops());
        // KV written is only the new tokens'.
        assert_eq!(w.kv_write_bytes, (3 + 256) * config.kv_bytes_per_token());
    }

    #[test]
    fn held_chunks_emit_no_lm_rows_and_group_exactly() {
        let config = ModelConfig::mixtral_8x7b();
        let mut shape = StageShape::decode_only(&[50; 4]);
        // Two identical held chunks, one identical sampling prefill:
        // the hold flag must keep them in separate groups.
        shape.push_prefill(128, 256, true);
        shape.push_prefill(128, 256, false);
        shape.push_prefill(128, 256, true);
        assert_eq!(shape.sampled_rows(), 5);
        let w = work(&config, &shape);
        assert_eq!(w.lm_rows, 5, "held chunks sample no token");
        let pre: Vec<_> = w.attn.iter().filter(|a| !a.decode).collect();
        assert_eq!(pre.len(), 2, "hold splits otherwise identical groups");
        let held = pre.iter().find(|a| !a.samples).expect("held group");
        assert_eq!(held.reqs, 2);
        let sampling = pre.iter().find(|a| a.samples).expect("sampling group");
        assert_eq!(sampling.reqs, 1);
    }

    #[test]
    fn prefill_groups_key_on_len_and_past() {
        let config = ModelConfig::mixtral_8x7b();
        // Same suffix length, different pasts: distinct kernel shapes.
        let shape = StageShape::with_past(&[], &[(64, 0), (64, 512), (64, 512), (64, 0)]);
        let w = work(&config, &shape);
        assert_eq!(w.attn.len(), 2);
        assert_eq!((w.attn[0].past, w.attn[0].reqs), (0, 2));
        assert_eq!((w.attn[1].past, w.attn[1].reqs), (512, 2));
    }

    #[test]
    fn push_prefill_keeps_parallel_invariant() {
        let mut s = StageShape::default();
        s.push_prefill(10, 0, false);
        assert!(s.prefill_past.is_empty() && s.prefill_hold.is_empty());
        s.push_prefill(20, 7, false);
        assert_eq!(s.prefill_past, vec![0, 7]);
        assert!(s.prefill_hold.is_empty());
        s.push_prefill(30, 0, true);
        assert_eq!(s.prefill_past, vec![0, 7, 0]);
        assert_eq!(s.prefill_hold, vec![false, false, true]);
        assert_eq!(s.prefill_past_of(1), 7);
        assert!(s.prefill_samples(1));
        assert!(!s.prefill_samples(2));
        assert_eq!(s.sampled_rows(), 2);
        s.clear_prefills();
        assert!(s.prefill_len.is_empty() && s.prefill_past.is_empty());
    }

    #[test]
    fn causal_masking_halves_prefill_flops() {
        let config = ModelConfig::mixtral_8x7b();
        let w = work(&config, &StageShape::mixed(&[], &[1024]));
        let a = w.attn[0];
        let full = 2.0 * (a.q_rows * a.groups) as f64 * a.ctx as f64 * a.d_head as f64 * 2.0; // score + value
        assert!((a.flops() - full / 2.0).abs() / full < 0.01);
    }

    #[test]
    fn context_groups_track_the_multiset() {
        let mut g = ContextGroups::default();
        for ctx in [9, 7, 9, 7, 7] {
            g.insert(ctx);
        }
        assert_eq!(g.reqs(), 5);
        assert_eq!(g.group_count(), 2);
        assert_eq!(g.ctx_sum(), 39);
        let groups: Vec<_> = g.iter().collect();
        assert_eq!(groups, vec![(7, 3), (9, 2)]);

        g.advance();
        assert_eq!(g.ctx_sum(), 44);
        assert_eq!(g.iter().collect::<Vec<_>>(), vec![(8, 3), (10, 2)]);

        assert!(g.remove(10));
        assert!(!g.remove(10_000));
        assert_eq!(g.reqs(), 4);
        assert_eq!(g.ctx_sum(), 34);

        let mut out = Vec::new();
        g.fill_decode_ctx(&mut out);
        assert_eq!(out, vec![8, 8, 8, 10]);
    }

    #[test]
    fn context_groups_merge_on_advance_collision() {
        // A request inserted below the advancing cohort must merge into
        // the cohort's group when the contexts meet.
        let mut g = ContextGroups::default();
        g.insert(100);
        for _ in 0..50 {
            g.advance();
        }
        g.insert(130); // below the cohort's current 150
        assert_eq!(g.group_count(), 2);
        for _ in 0..20 {
            g.advance();
        }
        // 150+20 = 170, 130+20 = 150: still distinct, both advanced.
        assert_eq!(g.iter().collect::<Vec<_>>(), vec![(150, 1), (170, 1)]);
        g.insert(170);
        assert_eq!(g.iter().collect::<Vec<_>>(), vec![(150, 1), (170, 2)]);
        assert_eq!(g.ctx_sum(), 150 + 170 + 170);
    }

    #[test]
    fn context_groups_insert_below_offset() {
        let mut g = ContextGroups::default();
        for _ in 0..1000 {
            g.advance(); // offset far above any context
        }
        g.insert(5);
        g.insert(3);
        assert_eq!(g.iter().collect::<Vec<_>>(), vec![(3, 1), (5, 1)]);
        g.advance();
        assert_eq!(g.iter().collect::<Vec<_>>(), vec![(4, 1), (6, 1)]);
        assert_eq!(g.ctx_sum(), 10);
    }

    #[test]
    fn context_groups_clear_resets_everything() {
        let mut g = ContextGroups::default();
        g.insert(10);
        g.advance();
        g.clear();
        assert_eq!(g.reqs(), 0);
        assert_eq!(g.ctx_sum(), 0);
        assert_eq!(g.group_count(), 0);
        g.insert(4);
        assert_eq!(g.iter().collect::<Vec<_>>(), vec![(4, 1)]);
    }

    #[test]
    fn fill_fc_ops_matches_enumeration() {
        let config = ModelConfig::mixtral_8x7b();
        let shape = StageShape::mixed(&[50; 31], &[2048]);
        let w = work(&config, &shape);
        let mut direct = Vec::new();
        fill_fc_ops(&config, shape.tokens(), 32, &mut direct);
        assert_eq!(w.fc_ops, direct);
    }

    #[test]
    fn fc_ops_include_lm_head_once() {
        let config = ModelConfig::mixtral_8x7b();
        let w = work(&config, &StageShape::decode_only(&[1; 16]));
        let lm: Vec<_> = w.fc_ops.iter().filter(|f| f.name == "lm_head").collect();
        assert_eq!(lm.len(), 1);
        assert_eq!(lm[0].count, 1);
        assert_eq!(lm[0].shape.m, 16);
        assert_eq!(lm[0].shape.n, config.vocab);
    }
}
