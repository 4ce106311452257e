//! Stage execution: maps every op of a stage onto the system's
//! processing units, prices time and energy, and implements the
//! operation flows of Fig. 10.
//!
//! # The grouped fast path
//!
//! [`SystemExecutor::stage_cost`] is the simulator's innermost hot
//! loop: paper-scale sweeps price hundreds of thousands of stages, so
//! the executor works on *grouped* ops end to end:
//!
//! * attention arrives pre-grouped from
//!   [`enumerate_stage`](duplex_model::ops::enumerate_stage) — one
//!   [`AttnOp`] per distinct context length with a `reqs` multiplicity
//!   — and each group is priced **once** per node, then scaled by its
//!   multiplicity (seconds and energy are linear in the number of
//!   identical requests);
//! * data-parallel placement distributes each group's requests
//!   round-robin across nodes *by arithmetic* (a rotating cursor per
//!   class), reproducing exactly the per-request round-robin that an
//!   ungrouped enumeration would produce;
//! * MoE layers whose expert histograms are identical — always the
//!   case under the default expected-value routing — are priced once
//!   and scaled by the MoE block count;
//! * an MoE layer is priced without building a list: each device (EP)
//!   or node (ET) reads its experts as a strided view of the layer's
//!   histogram, each expert's price comes from its unit's table by
//!   token count — the latency lookup table of Sec. V-B, 128 slots per
//!   unit, allocated by first use and filled by the same roofline call
//!   — and the co-processing split sorts in buffers the executor keeps
//!   (see [`crate::coproc`]);
//! * per-stage scratch (enumeration and prefill-group buffers) lives in
//!   the executor and is reused across stages instead of reallocated;
//! * kernel pricing underneath is the engines' roofline math
//!   (`duplex_compute::Engine::kernel_cost` and friends): a price is a
//!   handful of multiplies. The executor memoizes *aggregates*, which
//!   under expected-value routing depend on token counts alone:
//!   a decode stage's FC/MoE/communication constants, and any stage's
//!   MoE cost. The full path ([`SystemExecutor::stage_cost`]) and the
//!   reference path price every attention group afresh; only the
//!   carried mixed path below caches per-group attention prices.
//!
//! **Invariants.** Grouping is a pure batching of identical work: for
//! any stage shape and system, the fast path's [`StageCost`] equals the
//! per-request reference path ([`SystemExecutor::stage_cost_reference`])
//! up to floating-point associativity (pinned to 1e-9 relative by the
//! cross-crate property tests). Multiplicity never changes *which*
//! engine prices an op, only how many times its cost is counted, and
//! per-node request counts are identical to ungrouped round-robin
//! placement.
//!
//! # The incremental delta path
//!
//! On top of the grouped path, [`SystemExecutor::stage_cost_delta`]
//! carries a [`BatchState`] *across* stages: the scheduler announces
//! each stage as a [`StageDelta`] (advance + admissions +
//! retirements), and pure-advance decoding stages — the overwhelming
//! majority of a continuous-batching trace — are priced in O(1) from
//! `(batch size, Σctx)` aggregates through a cached
//! [`DecodeTemplate`]; membership changes rebuild the template from the
//! carried groups. [`StageExecutor::execute_delta`] takes the template
//! stage inline: a pure advance of a synced batch with no joins
//! pending, under expected-value routing, with a template in hand, is
//! one `advance` plus one `price`, exactly what the general path
//! computes in that case. Every other stage goes to the general path,
//! kept out of line so the inline branch stays small. Mixed stages
//! are priced from the carried groups too: the delta's prefills are
//! grouped alongside them, and the grouped pricing runs with the
//! memoized MoE cost, so no shape is materialized, sorted or
//! regrouped. Consecutive mixed stages share
//! almost all of their groups, and a group's per-device attention
//! price is a pure function of its context (decode) or its
//! `(len, past)` (prefill), so the path takes them from two bounded
//! direct-mapped caches (512 decode and 256 prefill slots, allocated
//! by the executor's first carried stage; a hit compares the whole key
//! and returns the bits a fresh pricing would). The caches pay off
//! when mixed stages follow each other and a stage's decode contexts
//! span fewer than 512 tokens, as in open-loop serving at saturation;
//! a mixed stage after a run of template-priced ones mostly misses,
//! since its contexts have moved on. The path feeds the same
//! groups in the same order to the same code as the grouped full path,
//! so it reproduces the full path's cost to the bit (debug builds check
//! this against the uncached full path on the scheduler's shape on
//! every mixed stage). Sampled expert routing disables the incremental
//! path entirely, since its histograms are per-stage draws: it prices
//! a shape materialized from the carried groups, which groups exactly
//! like the scheduler's.
//! Because no stage needs the scheduler's decode contexts, release
//! builds answer [`StageExecutor::needs_shape`] with false while the
//! delta stream is unbroken, and the batching loops skip building
//! them. See [`crate::incremental`] for the
//! state machine and the exactness argument, and
//! `tests/prop_cross_crate.rs` for the trace-equivalence property
//! tests.
//!
//! One [`SystemExecutor`] models one serving system end to end:
//!
//! * **GPU** — everything on the xPU (Fig. 10 has no PIM lane);
//! * **Duplex** (base) — Logic-PIM runs MoE layers of decoding-only
//!   stages and all decode attention; the xPU runs the rest; the two
//!   never overlap (Fig. 10(a)/(b));
//! * **Duplex+PE** — expert co-processing splits each device's experts
//!   between the units, attention co-processing overlaps prefill
//!   attention (xPU) with decode attention (Logic-PIM) (Fig. 10(d));
//! * **Duplex+PE+ET** — additionally tensor-parallels experts within a
//!   node so each device sees *all* experts and the split gets finer
//!   (Sec. V-B);
//! * **Bank-PIM** — the low-Op/B unit is an in-bank PIM; in-bank reads
//!   occupy every bank, so there is no conflict-free co-processing;
//! * **hetero** — two GPUs plus two Logic-PIM devices (Fig. 5): the PIM
//!   devices own MoE (all stages!) and decode attention, which is
//!   exactly what makes mixed stages blow up.
//!
//! Timing uses the representative (most-loaded) node and takes maxima
//! across parallel devices; energy sums over all devices.

use std::cell::OnceCell;

use duplex_compute::engine::{default_profile, AmortizedGemmPricer};
use duplex_compute::hash::FastMap;
use duplex_compute::kernel::{GemmShape, Kernel};
use duplex_compute::{Engine, EngineSpec, KernelCost};
use duplex_model::ops::{
    enumerate_stage_into, fill_fc_ops, push_prefill_groups, AttnOp, ExpertWork, FcOp, StageShape,
    StageWork,
};
use duplex_model::routing::RoutingMode;
use duplex_model::{count_f64, ExpertRouter, ModelConfig};
use duplex_sched::{BatchCheckpoint, StageDelta, StageExecutor, StageOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::comm::{CommModel, LinkSpec};
use crate::coproc::{split_experts, SplitScratch};
use crate::incremental::{round_robin_share, BatchState, DecodeTemplate};
use crate::parallel::CapacityPlan;

/// Bytes of device memory per device (80 GB, H100-class).
pub const DEVICE_MEM_BYTES: u64 = 80 << 30;

/// HBM stacks per device.
pub const STACKS_PER_DEVICE: u32 = 5;

/// What the device's low-Op/B unit is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Conventional accelerator only.
    Gpu,
    /// xPU + Logic-PIM (the paper's device).
    Duplex,
    /// xPU + in-bank PIM (the Fig. 14 baseline).
    BankPim,
}

/// Per-class wall-clock seconds of one stage (or a whole run).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimeBreakdown {
    /// Batched FC layers (QKV gen, projection, gates, dense FFN, LM head).
    pub fc: f64,
    /// Attention of prefilling sequences.
    pub attn_prefill: f64,
    /// Attention of decoding sequences.
    pub attn_decode: f64,
    /// MoE expert FFNs.
    pub moe: f64,
    /// Collectives and device-to-device transfers.
    pub comm: f64,
}

impl TimeBreakdown {
    /// Sum of all classes (serialized time; the stage latency may be
    /// smaller under co-processing).
    pub fn total(&self) -> f64 {
        self.fc + self.attn_prefill + self.attn_decode + self.moe + self.comm
    }
}

impl std::ops::AddAssign for TimeBreakdown {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.fc += rhs.fc;
        self.attn_prefill += rhs.attn_prefill;
        self.attn_decode += rhs.attn_decode;
        self.moe += rhs.moe;
        self.comm += rhs.comm;
    }
}

/// Per-class energy in joules, split DRAM vs compute (Fig. 15 buckets).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBuckets {
    /// FC DRAM energy.
    pub fc_dram: f64,
    /// FC compute energy.
    pub fc_comp: f64,
    /// Attention DRAM energy (prefill + decode).
    pub attn_dram: f64,
    /// Attention compute energy.
    pub attn_comp: f64,
    /// MoE DRAM energy.
    pub moe_dram: f64,
    /// MoE compute energy.
    pub moe_comp: f64,
}

impl EnergyBuckets {
    /// Total joules.
    pub fn total(&self) -> f64 {
        self.fc_dram
            + self.fc_comp
            + self.attn_dram
            + self.attn_comp
            + self.moe_dram
            + self.moe_comp
    }

    fn add_fc(&mut self, c: &KernelCost) {
        self.fc_dram += c.dram_energy.total_j();
        self.fc_comp += c.compute_j;
    }

    fn add_attn(&mut self, c: &KernelCost) {
        self.attn_dram += c.dram_energy.total_j();
        self.attn_comp += c.compute_j;
    }

    fn add_moe(&mut self, c: &KernelCost) {
        self.moe_dram += c.dram_energy.total_j();
        self.moe_comp += c.compute_j;
    }
}

impl std::ops::AddAssign for EnergyBuckets {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.fc_dram += rhs.fc_dram;
        self.fc_comp += rhs.fc_comp;
        self.attn_dram += rhs.attn_dram;
        self.attn_comp += rhs.attn_comp;
        self.moe_dram += rhs.moe_dram;
        self.moe_comp += rhs.moe_comp;
    }
}

/// Cost of one executed stage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageCost {
    /// Effective stage latency in seconds (co-processing overlaps
    /// already applied).
    pub seconds: f64,
    /// Per-class serialized times.
    pub time: TimeBreakdown,
    /// Per-class energy.
    pub energy: EnergyBuckets,
}

impl std::ops::AddAssign for StageCost {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.seconds += rhs.seconds;
        self.time += rhs.time;
        self.energy += rhs.energy;
    }
}

/// Full description of one serving system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Display name ("GPU", "Duplex+PE+ET", ...).
    pub name: String,
    /// Device type.
    pub device: DeviceKind,
    /// Nodes in the cluster (data parallel).
    pub nodes: u32,
    /// Devices per node (tensor parallel).
    pub devices_per_node: u32,
    /// Expert and attention co-processing enabled.
    pub coproc: bool,
    /// Tensor-parallel experts within a node (ET); otherwise expert
    /// parallelism across all devices.
    pub expert_tensor_parallel: bool,
    /// Heterogeneous 2-GPU + 2-Logic-PIM system (overrides `device`).
    pub hetero: bool,
    /// Interconnect.
    pub link: LinkSpec,
    /// Override the low-Op/B unit's specification (for design-space
    /// ablations of the bandwidth multiple / machine balance); `None`
    /// uses the spec implied by `device`.
    pub pim_spec: Option<EngineSpec>,
}

impl SystemConfig {
    fn base(name: &str, device: DeviceKind, devices_per_node: u32, nodes: u32) -> Self {
        assert!(
            devices_per_node >= 1 && nodes >= 1,
            "cluster must be non-empty"
        );
        Self {
            name: name.into(),
            device,
            nodes,
            devices_per_node,
            coproc: false,
            expert_tensor_parallel: false,
            hetero: false,
            link: LinkSpec::hgx(),
            pim_spec: None,
        }
    }

    /// Homogeneous GPU system.
    pub fn gpu(devices_per_node: u32, nodes: u32) -> Self {
        Self::base("GPU", DeviceKind::Gpu, devices_per_node, nodes)
    }

    /// Duplex without co-processing (Fig. 10(a)/(b)).
    pub fn duplex(devices_per_node: u32, nodes: u32) -> Self {
        Self::base("Duplex", DeviceKind::Duplex, devices_per_node, nodes)
    }

    /// Duplex with expert and attention co-processing (Fig. 10(d)).
    pub fn duplex_pe(devices_per_node: u32, nodes: u32) -> Self {
        let mut c = Self::base("Duplex+PE", DeviceKind::Duplex, devices_per_node, nodes);
        c.coproc = true;
        c
    }

    /// Duplex with co-processing and expert tensor parallelism.
    pub fn duplex_pe_et(devices_per_node: u32, nodes: u32) -> Self {
        let mut c = Self::base("Duplex+PE+ET", DeviceKind::Duplex, devices_per_node, nodes);
        c.coproc = true;
        c.expert_tensor_parallel = true;
        c
    }

    /// Bank-PIM device system. In-bank reads occupy every bank of the
    /// pseudo channel, so xPU/PIM co-processing is unavailable.
    pub fn bank_pim(devices_per_node: u32, nodes: u32) -> Self {
        Self::base("Bank-PIM", DeviceKind::BankPim, devices_per_node, nodes)
    }

    /// The heterogeneous system of Fig. 5: one node with two GPUs (FC +
    /// prefill attention) and two Logic-PIM devices (MoE + decode
    /// attention).
    pub fn hetero() -> Self {
        let mut c = Self::base("Hetero", DeviceKind::Gpu, 4, 1);
        c.hetero = true;
        c
    }

    /// The paper's default cluster shape for a model (Sec. VI):
    /// Mixtral/OPT/Llama3 on 1x4, GLaM on 1x8, Grok1 on 2x8.
    pub fn default_cluster(model: &ModelConfig) -> (u32, u32) {
        match model.name.as_str() {
            "GLaM" => (8, 1),
            "Grok1" => (8, 2),
            _ => (4, 1),
        }
    }

    /// A system with twice the devices (the paper's 2xGPU scaling rule:
    /// grow a node to eight devices, then add nodes).
    pub fn doubled(&self) -> Self {
        let mut c = self.clone();
        if c.devices_per_node < 8 {
            c.devices_per_node *= 2;
        } else {
            c.nodes *= 2;
        }
        c.name = format!("2x{}", self.name);
        c
    }

    /// Total devices in the system.
    pub fn total_devices(&self) -> u32 {
        self.nodes * self.devices_per_node
    }
}

/// Linear pricer for decode-attention groups (see
/// [`SystemExecutor::decode_attn_pricer`]). Every decode group of every
/// stage shares all parameters except the context length.
#[derive(Debug, Clone, Copy)]
struct DecodeAttnPricer {
    gemm: AmortizedGemmPricer,
    softmax_inv_flops: f64,
    softmax_j_per_flop: f64,
    /// KV bytes per unit of context on one device (`2 * d_head * bpe`
    /// per head group it holds).
    kv_unit_dev: u64,
    score_flops_base: f64,
    value_flops_per_ctx: f64,
    softmax_flops_base: f64,
    d_head_f: f64,
    count_f: f64,
}

impl DecodeAttnPricer {
    /// Per-device cost of all layers of one decode group at `ctx`.
    #[inline]
    fn cost(&self, ctx: u64) -> KernelCost {
        let kv_dev = ctx * self.kv_unit_dev;
        let ctx_f = count_f64(ctx);
        let score_flops = self.score_flops_base * ctx_f * self.d_head_f;
        let value_flops = self.value_flops_per_ctx * ctx_f;
        let mut cost = self.gemm.price(score_flops, kv_dev / 2);
        let sm_flops = self.softmax_flops_base * ctx_f;
        cost.seconds += sm_flops * self.softmax_inv_flops;
        cost.compute_j += sm_flops * self.softmax_j_per_flop;
        cost += self.gemm.price(value_flops, kv_dev - kv_dev / 2);
        KernelCost {
            seconds: cost.seconds * self.count_f,
            dram_energy: duplex_hbm::EnergyBreakdown {
                activation_j: cost.dram_energy.activation_j * self.count_f,
                transfer_j: cost.dram_energy.transfer_j * self.count_f,
            },
            compute_j: cost.compute_j * self.count_f,
        }
    }
}

/// Grouped attention of one stage, priced node by node (see
/// [`SystemExecutor::price_attention`]).
#[derive(Debug, Clone, Copy, Default)]
struct AttnPriced {
    /// Tokens on the representative (most-loaded) node, at least 1.
    m_fc: u64,
    /// LM-head rows on the representative node, at least 1.
    lm_rows: u64,
    /// Slowest node's prefill / decode attention seconds.
    prefill_s: f64,
    decode_s: f64,
    /// Attention energy (only the `attn_*` buckets are set).
    energy: EnergyBuckets,
}

/// What a stage's FC, MoE and communication cost is a pure function of
/// under expected-value routing: the representative node's token and
/// LM-head row counts, the stage's total and decoding token counts
/// (the expert histogram follows from the total), and whether it
/// prefills (base Duplex moves mixed-stage MoE to the xPU).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ConstsKey {
    m_fc: u64,
    lm_rows: u64,
    tokens: u64,
    decode_tokens: u64,
    mixed: bool,
}

/// FC, MoE and communication times plus their energies (the attention
/// fields stay zero); see [`SystemExecutor::stage_consts`].
#[derive(Debug, Clone, Copy)]
struct StageConsts {
    time: TimeBreakdown,
    energy: EnergyBuckets,
}

/// MoE time and DRAM / compute energy of a stage (all MoE layers).
#[derive(Debug, Clone, Copy, Default)]
struct MoeCost {
    seconds: f64,
    dram_j: f64,
    comp_j: f64,
}

/// Safety valve for the stage-consts and MoE memos.
const STAGE_CONSTS_MAX_ENTRIES: usize = 1 << 16;

/// Slots of the carried path's decode-group price cache (a power of
/// two). Slots follow the context, so the decode groups of a stage
/// whose contexts span fewer tokens than this never evict each other.
/// The cache's gain assumes that span: wider stages (longer prompts or
/// outputs) evict entries the next stage needs and pay a probe on top
/// of the pricing.
const DECODE_PRICE_SLOTS: usize = 512;

/// Slots of the carried path's prefill-group price cache (a power of
/// two).
const PREFILL_PRICE_SLOTS: usize = 256;

/// A key of a [`PriceCache`]: where it lives, and for every slot a key
/// that lives elsewhere, which marks the slot empty.
trait SlotKey: Copy + Eq {
    /// The key's hash; the cache reduces it modulo its slot count.
    fn slot_hash(self) -> u64;

    /// A key that no lookup landing in `slot` can match, because its
    /// own slot differs (in any cache of two or more slots).
    fn vacant(slot: usize) -> Self;
}

/// Decode groups are keyed by context, which is also their slot hash.
impl SlotKey for u64 {
    fn slot_hash(self) -> u64 {
        self
    }

    fn vacant(slot: usize) -> Self {
        slot as u64 + 1
    }
}

/// Prefill groups are keyed by `(len, past)`; a fresh prompt's slot
/// hash is its length, so a stage's distinct lengths rarely collide.
impl SlotKey for (u64, u64) {
    fn slot_hash(self) -> u64 {
        self.0
            .wrapping_add(self.1.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn vacant(slot: usize) -> Self {
        (slot as u64 + 1, 0)
    }
}

/// A fixed-size, direct-mapped memo of per-device attention prices:
/// each key owns one slot, and a miss overwrites whatever held it. A
/// hit compares the whole key, so it returns exactly the bits the
/// pricer produced for that key.
#[derive(Debug)]
struct PriceCache<K> {
    slots: Box<[(K, KernelCost)]>,
    /// Lookups that missed and priced.
    #[cfg(test)]
    misses: u64,
}

impl<K: SlotKey> PriceCache<K> {
    fn new(slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two() && slots >= 2);
        Self {
            slots: (0..slots)
                .map(|slot| (K::vacant(slot), KernelCost::zero()))
                .collect(),
            #[cfg(test)]
            misses: 0,
        }
    }

    /// The price of `key`: cached, or computed by `price` and cached.
    #[inline]
    fn get_or_price(&mut self, key: K, price: impl FnOnce() -> KernelCost) -> KernelCost {
        let mask = self.slots.len() - 1;
        let slot = &mut self.slots[key.slot_hash() as usize & mask];
        if slot.0 != key {
            *slot = (key, price());
            #[cfg(test)]
            {
                self.misses += 1;
            }
        }
        slot.1
    }
}

/// Per-group attention prices of stages priced from the carried batch
/// state (see [`SystemExecutor::stage_cost_carried`]). A group's price
/// is a pure function of its context, or of a prefill's `(len, past)`,
/// and consecutive mixed stages share almost all of their groups.
#[derive(Debug)]
struct AttnCaches {
    /// Decode groups by context.
    decode: PriceCache<u64>,
    /// Prefill groups by `(len, past)`.
    prefill: PriceCache<(u64, u64)>,
}

impl AttnCaches {
    fn new() -> Self {
        Self {
            decode: PriceCache::new(DECODE_PRICE_SLOTS),
            prefill: PriceCache::new(PREFILL_PRICE_SLOTS),
        }
    }
}

/// Slots of each unit's expert price table (a power of two). Slots
/// follow the token count, so the counts of one expected-value
/// histogram (at most two, one apart) never evict each other.
const EXPERT_PRICE_SLOTS: usize = 128;

/// One unit's price of one expert by token count: the latency lookup
/// table of Sec. V-B, filled on first use of each count by the same
/// roofline call ([`SystemExecutor::expert_cost`]) and so returning
/// its bits. An executor shards its experts one way, so the table is
/// keyed by the count alone and remembers the shard fraction only to
/// check it.
#[derive(Debug)]
struct ExpertTable {
    prices: PriceCache<u64>,
    frac: f64,
}

impl ExpertTable {
    fn new(frac: f64) -> Self {
        Self {
            prices: PriceCache::new(EXPERT_PRICE_SLOTS),
            frac,
        }
    }

    /// The price of one expert of `tokens` tokens on `engine`, the unit
    /// this table belongs to.
    #[inline]
    fn price(
        &mut self,
        ex: &SystemExecutor,
        engine: &Engine,
        tokens: u64,
        frac: f64,
    ) -> KernelCost {
        debug_assert_eq!(
            frac.to_bits(),
            self.frac.to_bits(),
            "an executor shards its experts one way"
        );
        self.prices
            .get_or_price(tokens, || ex.expert_cost(engine, tokens, frac))
    }
}

/// The MoE path's reusable state: each unit's expert price table,
/// allocated by its first use, and the expert split's buffers. Taken
/// out of the executor for a pricing and put back, like the
/// [`AttnCaches`], so pricing an MoE layer allocates nothing.
#[derive(Debug, Default)]
struct MoeScratch {
    xpu: Option<ExpertTable>,
    /// The low-Op/B unit's table.
    pim: Option<ExpertTable>,
    split: SplitScratch,
}

/// The experts one device (EP) or node (ET) owns under round-robin
/// placement: every `step`-th expert of the layer, from `first`.
#[derive(Debug, Clone, Copy)]
struct OwnedExperts<'a> {
    tokens: &'a [u64],
    first: usize,
    step: usize,
}

impl OwnedExperts<'_> {
    fn len(&self) -> usize {
        self.tokens
            .len()
            .saturating_sub(self.first)
            .div_ceil(self.step)
    }

    /// Token count of the `i`-th owned expert.
    fn get(&self, i: usize) -> u64 {
        self.tokens[self.first + i * self.step]
    }

    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.tokens
            .iter()
            .skip(self.first)
            .step_by(self.step)
            .copied()
    }
}

/// Executes stages for one system; implements
/// [`duplex_sched::StageExecutor`].
#[derive(Debug)]
pub struct SystemExecutor {
    config: SystemConfig,
    model: ModelConfig,
    router: ExpertRouter,
    rng: StdRng,
    xpu: Engine,
    pim: Option<Engine>,
    comm: CommModel,
    node_comm: CommModel,
    plan: CapacityPlan,
    total: StageCost,
    stages: usize,
    /// Reusable stage enumeration (vectors keep their capacity).
    work: StageWork,
    /// Decode-batch state carried across stages by the delta path.
    batch: BatchState,
    /// Cached linear pricing of the current decode membership.
    template: Option<DecodeTemplate>,
    /// The last dropped template, whose buffers the next rebuild reuses.
    spare_template: Option<DecodeTemplate>,
    /// Decode-template rebuilds so far.
    #[cfg(test)]
    template_rebuilds: u64,
    /// Memoized FC/MoE/communication constants of expected-routing
    /// decode stages.
    consts_memo: FastMap<ConstsKey, StageConsts>,
    /// Memoized MoE cost of expected-routing stages by `(tokens, mixed)`.
    moe_memo: FastMap<(u64, bool), MoeCost>,
    /// Reused shape buffer for materializing delta-path fallbacks.
    shape_scratch: StageShape,
    /// Reused prefill groups of a stage priced from the carried batch
    /// state, and the sort buffer for their keys.
    prefill_scratch: Vec<AttnOp>,
    prefill_keys: Vec<(u64, u64, bool)>,
    /// Reused FC-op list for stage-consts computation.
    fc_scratch: Vec<FcOp>,
    /// Reused expert histogram for stage-consts computation, and the
    /// router's largest-remainder scratch.
    hist_scratch: Vec<u64>,
    remainder_scratch: Vec<(f64, usize)>,
    /// Expert price tables and split buffers of the MoE path.
    moe_scratch: MoeScratch,
    /// Attention price caches of the carried mixed path, allocated by
    /// its first stage rather than by [`Self::new`], so building an
    /// executor stays cheap.
    attn_caches: Option<AttnCaches>,
    /// The decode-attention pricer, a function of the configuration
    /// and the model alone, built by its first use.
    decode_pricer: OnceCell<DecodeAttnPricer>,
}

impl SystemExecutor {
    /// Build an executor for `model` on `config`, with deterministic
    /// expert routing from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the model's weights do not fit the system (see
    /// [`CapacityPlan`]).
    pub fn new(config: SystemConfig, model: ModelConfig, seed: u64) -> Self {
        let profile = default_profile();
        let xpu = Engine::from_profile(EngineSpec::h100_xpu(), profile, STACKS_PER_DEVICE);
        let pim = if let Some(spec) = config.pim_spec {
            Some(Engine::from_profile(spec, profile, STACKS_PER_DEVICE))
        } else if config.hetero {
            Some(Engine::from_profile(
                EngineSpec::logic_pim(STACKS_PER_DEVICE),
                profile,
                STACKS_PER_DEVICE,
            ))
        } else {
            match config.device {
                DeviceKind::Gpu => None,
                DeviceKind::Duplex => Some(Engine::from_profile(
                    EngineSpec::logic_pim(STACKS_PER_DEVICE),
                    profile,
                    STACKS_PER_DEVICE,
                )),
                DeviceKind::BankPim => Some(Engine::from_profile(
                    EngineSpec::bank_pim(STACKS_PER_DEVICE),
                    profile,
                    STACKS_PER_DEVICE,
                )),
            }
        };
        let plan = if config.hetero {
            CapacityPlan::hetero(&model, 2, 2, DEVICE_MEM_BYTES)
        } else {
            CapacityPlan::homogeneous(
                &model,
                config.nodes,
                config.devices_per_node,
                DEVICE_MEM_BYTES,
            )
        };
        let router = if model.is_moe() {
            ExpertRouter::uniform(model.n_experts, model.top_k)
        } else {
            ExpertRouter::uniform(1, 1)
        };
        let comm = CommModel::new(config.link, config.nodes, config.devices_per_node);
        // Node-level collectives (EP across nodes) run on the IB links.
        let node_link = LinkSpec {
            intra_node_bytes_per_sec: config.link.inter_node_bytes_per_sec,
            ..config.link
        };
        let node_comm = CommModel::new(node_link, 1, config.nodes);
        Self {
            config,
            model,
            router,
            rng: StdRng::seed_from_u64(seed),
            xpu,
            pim,
            comm,
            node_comm,
            plan,
            total: StageCost::default(),
            stages: 0,
            work: StageWork::default(),
            batch: BatchState::default(),
            template: None,
            spare_template: None,
            #[cfg(test)]
            template_rebuilds: 0,
            consts_memo: FastMap::default(),
            moe_memo: FastMap::default(),
            shape_scratch: StageShape::default(),
            prefill_scratch: Vec::new(),
            prefill_keys: Vec::new(),
            fc_scratch: Vec::new(),
            hist_scratch: Vec::new(),
            remainder_scratch: Vec::new(),
            moe_scratch: MoeScratch::default(),
            attn_caches: None,
            decode_pricer: OnceCell::new(),
        }
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The model being served.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// The capacity plan (weights placed, KV budget).
    pub fn capacity(&self) -> &CapacityPlan {
        &self.plan
    }

    /// KV-cache budget for the scheduler.
    pub fn kv_capacity_bytes(&self) -> u64 {
        self.plan.kv_capacity_bytes
    }

    /// Accumulated cost over all executed stages.
    pub fn total_cost(&self) -> &StageCost {
        &self.total
    }

    /// Stages executed so far.
    pub fn stages_executed(&self) -> usize {
        self.stages
    }

    /// Reset accumulated totals (e.g. between warm-up and measurement).
    pub fn reset_totals(&mut self) {
        self.total = StageCost::default();
        self.stages = 0;
    }

    /// Replace the gate with a Zipf-skewed router (Sec. VIII-B: hot and
    /// cold experts). `skew = 0` restores the paper's uniform default.
    ///
    /// # Panics
    ///
    /// Panics if the model has no MoE layers or `skew` is negative.
    pub fn set_expert_skew(&mut self, skew: f64) {
        assert!(self.model.is_moe(), "expert skew needs an MoE model");
        self.router = ExpertRouter::zipf(self.model.n_experts, self.model.top_k, skew);
        // Cached stage constants embed the old router's histogram.
        self.invalidate_template();
        self.consts_memo.clear();
        self.moe_memo.clear();
    }

    fn pim(&self) -> &Engine {
        self.pim
            .as_ref()
            .expect("policy routed work to a PIM on a PIM-less system")
    }

    /// Tensor-parallel degrees and MoE device pool of this system:
    /// `(tp_fc, tp_attn, moe_devices)`.
    fn parallel_dims(&self) -> (u32, u32, u32) {
        if self.config.hetero {
            (2, 2, 2)
        } else {
            let tp = self.config.devices_per_node;
            (tp, tp, self.config.total_devices())
        }
    }

    /// The engine decode attention runs on under this system's policy.
    fn decode_engine(&self) -> &Engine {
        if self.config.hetero {
            return self.pim();
        }
        match self.config.device {
            DeviceKind::Gpu => &self.xpu,
            _ => self.pim(),
        }
    }

    /// Price one expert invocation on `engine`, with the expert's
    /// matrices sharded to `frac` of their columns/rows.
    fn expert_cost(&self, engine: &Engine, tokens: u64, frac: f64) -> KernelCost {
        if tokens == 0 {
            return KernelCost::zero();
        }
        let work = ExpertWork::for_tokens(&self.model, tokens);
        let bpe = self.model.bytes_per_elem;
        let up_n = ((work.up_shape.n as f64 * frac).ceil() as u64).max(1);
        let down_k = ((work.down_shape.k as f64 * frac).ceil() as u64).max(1);
        let up = GemmShape {
            m: tokens,
            n: up_n,
            k: work.up_shape.k,
        };
        let down = GemmShape {
            m: tokens,
            n: work.down_shape.n,
            k: down_k,
        };
        let mut cost = KernelCost::zero();
        for _ in 0..work.up_count {
            cost += engine.gemm_cost_amortized(up, up.weight_bytes(bpe));
        }
        cost += engine.gemm_cost_amortized(down, down.weight_bytes(bpe));
        if work.activation_elems > 0 {
            let elems = (work.activation_elems as f64 * frac).ceil() as u64;
            cost += engine.kernel_cost(&Kernel::Elementwise { elems });
        }
        cost
    }

    /// The linear pricer for decode-attention groups on the decode
    /// engine: decode groups differ only in context length, and within
    /// the family time/energy are linear in ctx, so each group prices
    /// with a few multiplies. Matches [`Self::attn_cost`] to
    /// floating-point associativity. Built once, on first use.
    fn decode_attn_pricer(&self) -> &DecodeAttnPricer {
        self.decode_pricer
            .get_or_init(|| self.build_decode_attn_pricer())
    }

    fn build_decode_attn_pricer(&self) -> DecodeAttnPricer {
        let (_, tp, _) = self.parallel_dims();
        let engine = self.decode_engine();
        let op = AttnOp::decode_group(&self.model, 1, 1);
        let groups_dev = op.groups.div_ceil(u64::from(tp));
        let m = op.q_rows * groups_dev;
        let m_f = m as f64;
        DecodeAttnPricer {
            gemm: engine.amortized_gemm_pricer(m),
            softmax_inv_flops: engine.softmax_inv_flops(),
            softmax_j_per_flop: engine.compute_j_per_flop(),
            // `attn_cost`'s `kv_dram_bytes * groups_dev / groups`, with
            // the exact division by `groups` done once.
            kv_unit_dev: 2 * op.d_head * self.model.bytes_per_elem * groups_dev,
            // Match GemmShape::flops()'s evaluation order exactly:
            // score flops = ((2m) * ctx) * d_head, value = ((2m) * d_head) * ctx.
            score_flops_base: 2.0 * m_f,
            value_flops_per_ctx: 2.0 * m_f * op.d_head as f64,
            softmax_flops_base: 5.0 * m_f,
            d_head_f: op.d_head as f64,
            count_f: op.count as f64,
        }
    }

    /// Price one attention op on `engine`, head groups sharded over
    /// `tp` devices. Returns the per-device cost of all `count` layers.
    fn attn_cost(&self, engine: &Engine, op: &AttnOp, tp: u32) -> KernelCost {
        let groups_dev = (op.groups).div_ceil(u64::from(tp));
        let bpe = self.model.bytes_per_elem;
        let kv_dev = op.kv_dram_bytes(bpe) * groups_dev / op.groups;
        let mut score = op.score_shape();
        score.m = op.q_rows * groups_dev;
        let mut value = op.value_shape();
        value.m = op.q_rows * groups_dev;
        // Per-request attention within one layer is dispatched as one
        // batched kernel; overhead is added per layer in `stage_cost`.
        let mut cost = engine.kernel_cost_amortized(&Kernel::Gemm {
            shape: score,
            dram_bytes: kv_dev / 2,
        });
        cost += engine.kernel_cost(&Kernel::Softmax {
            rows: score.m,
            cols: score.n,
        });
        cost += engine.kernel_cost_amortized(&Kernel::Gemm {
            shape: value,
            dram_bytes: kv_dev - kv_dev / 2,
        });
        cost.scaled(op.count as f64)
    }

    /// Compute the cost of one stage without executing it through the
    /// scheduler (used by the figure harnesses for one-shot analysis).
    /// This is the grouped fast path; see the module docs for its
    /// invariants.
    pub fn stage_cost(&mut self, shape: &StageShape) -> StageCost {
        self.stage_cost_impl(shape, true)
    }

    /// Reference pricing: expands every attention group into
    /// per-request ops and prices each MoE layer separately, as the
    /// pre-fast-path executor did. Exists so tests can pin the fast
    /// path's equivalence; sweeps should never call this.
    pub fn stage_cost_reference(&mut self, shape: &StageShape) -> StageCost {
        self.stage_cost_impl(shape, false)
    }

    /// Price one stage described incrementally against the carried
    /// [`BatchState`] (see [`crate::incremental`] for the invariants).
    ///
    /// Pure-advance decoding stages — no admissions, no retirements —
    /// are priced in O(1) from the cached [`DecodeTemplate`]; membership
    /// changes rebuild the template from the carried groups; mixed
    /// stages are priced from the carried groups plus the delta's
    /// prefills, bit-identically to the grouped full path; sampled
    /// expert routing falls back to the full path on a shape
    /// materialized from the carried groups.
    ///
    /// # Panics
    ///
    /// Panics if the batch state is out of sync with the delta stream
    /// (a stage was executed without a delta) and `delta.fresh` is not
    /// set. The [`StageExecutor::execute_delta`] implementation instead
    /// resyncs from the materialized shape it is handed.
    pub fn stage_cost_delta(&mut self, delta: &StageDelta) -> StageCost {
        self.stage_cost_delta_inner(delta, None)
    }

    /// The delta-path body. Debug builds check carried mixed stages
    /// against `debug_shape`, the scheduler's materialized shape for
    /// this stage, when one is provided.
    fn stage_cost_delta_inner(
        &mut self,
        delta: &StageDelta,
        debug_shape: Option<&StageShape>,
    ) -> StageCost {
        let membership_changed = self.batch.apply(delta);
        if self.router.mode() != RoutingMode::Expected {
            // Sampled histograms are per-stage draws from the executor's
            // RNG, and each draw depends only on the stage's token
            // count; grouping sorts contexts and prefill keys, so the
            // carried groups price exactly like the scheduler's shape.
            self.invalidate_template();
            let mut shape = std::mem::take(&mut self.shape_scratch);
            self.batch.fill_shape(&mut shape, delta);
            let cost = self.stage_cost_impl(&shape, true);
            self.shape_scratch = shape;
            return cost;
        }
        if !delta.admit.is_empty() || !delta.chunk.is_empty() || self.batch.reqs() == 0 {
            // The template was not advanced through this stage; the
            // next decode stage rebuilds it from the carried groups.
            self.invalidate_template();
            let cost = self.stage_cost_carried(delta);
            if cfg!(debug_assertions) {
                if let Some(shape) = debug_shape {
                    debug_assert_eq!(
                        cost,
                        self.stage_cost_impl(shape, true),
                        "carried batch state disagrees with the scheduler's shape"
                    );
                }
            }
            return cost;
        }
        match &mut self.template {
            Some(template) if !membership_changed => template.advance(),
            _ => self.rebuild_decode_template(),
        }
        self.template.as_ref().expect("rebuilt above").price()
    }

    /// Drop the decode template, keeping its buffers for the next
    /// rebuild.
    fn invalidate_template(&mut self) {
        if let Some(tpl) = self.template.take() {
            self.spare_template = Some(tpl);
        }
    }

    /// Rebuild the decode template from the carried groups: per-node
    /// placement, memoized FC/MoE/comm constants, and the linear
    /// attention coefficients.
    fn rebuild_decode_template(&mut self) {
        #[cfg(test)]
        {
            self.template_rebuilds += 1;
        }
        let nodes = self.config.nodes as usize;
        let (_, tp_attn, _) = self.parallel_dims();
        let mut tpl = self
            .template
            .take()
            .or_else(|| self.spare_template.take())
            .unwrap_or_default();
        self.batch
            .node_placement(nodes, &mut tpl.node_count, &mut tpl.node_sumctx);
        tpl.total_count = self.batch.reqs();
        tpl.total_sumctx = self.batch.ctx_sum();
        // Representative (most-loaded) node; for decode stages the node
        // token count is the node's request count.
        let m_fc = tpl.node_count.iter().copied().max().unwrap_or(0).max(1);
        // Decode: one LM-head row per request, every token decoding.
        let consts = self.stage_consts(ConstsKey {
            m_fc,
            lm_rows: m_fc,
            tokens: tpl.total_count,
            decode_tokens: tpl.total_count,
            mixed: false,
        });
        tpl.base_time = consts.time;
        tpl.base_energy = consts.energy;
        // Linear decode-attention coefficients: every decode group of a
        // stage shares all parameters but the context, and per-group
        // cost is exactly proportional to it (see crate::incremental).
        let unit = self.decode_attn_pricer().cost(1);
        let engine = self.decode_engine();
        tpl.sec_per_ctx = unit.seconds;
        tpl.attn_dram_j_per_ctx = unit.dram_energy.total_j() * f64::from(tp_attn);
        tpl.attn_comp_j_per_ctx = unit.compute_j * f64::from(tp_attn);
        // Per-node constants: KV-append stream + one launch-overhead
        // set per layer, for nodes that host any request.
        let kv_tok = self.model.kv_bytes_per_token();
        let layers = f64::from(self.model.n_layers);
        tpl.node_const_s.clear();
        for &cnt in &tpl.node_count {
            if cnt == 0 {
                tpl.node_const_s.push(0.0);
                continue;
            }
            let bytes = cnt * kv_tok / u64::from(tp_attn);
            let c = engine.kernel_cost(&Kernel::Stream { bytes, write: true });
            tpl.base_energy.add_attn(&c.scaled(f64::from(tp_attn)));
            tpl.node_const_s
                .push(c.seconds + 3.0 * engine.spec().launch_overhead_s * layers);
        }
        self.template = Some(tpl);
    }

    /// FC + MoE + communication cost of a stage under expected-value
    /// routing. A decode-only stage's constants are memoized whole on its
    /// [`ConstsKey`]: steady-state decode repeats a batch size for
    /// thousands of stages. A mixed stage's key rarely repeats exactly,
    /// so only its MoE part, the costly one, is memoized (on the token
    /// count, see [`Self::shared_moe`]) and FC and communication are
    /// priced afresh.
    fn stage_consts(&mut self, key: ConstsKey) -> StageConsts {
        if !key.mixed {
            if let Some(&hit) = self.consts_memo.get(&key) {
                return hit;
            }
        }
        let moe = self.shared_moe(key.tokens, key.mixed);
        let mut fc_ops = std::mem::take(&mut self.fc_scratch);
        fill_fc_ops(&self.model, key.tokens, key.lm_rows, &mut fc_ops);
        let consts = self.price_consts(&key, &fc_ops, moe);
        self.fc_scratch = fc_ops;
        if !key.mixed {
            if self.consts_memo.len() >= STAGE_CONSTS_MAX_ENTRIES {
                self.consts_memo.clear();
            }
            self.consts_memo.insert(key, consts);
        }
        consts
    }

    /// MoE cost of an expected-routing stage of `tokens` tokens: every
    /// MoE layer sees the same histogram, so one layer is priced and
    /// counted once per MoE block. Memoized on `(tokens, mixed)`.
    fn shared_moe(&mut self, tokens: u64, mixed: bool) -> MoeCost {
        if let Some(&hit) = self.moe_memo.get(&(tokens, mixed)) {
            return hit;
        }
        let blocks = self.model.moe_block_count();
        let mut hist = std::mem::take(&mut self.hist_scratch);
        if blocks > 0 {
            self.router
                .route_expected_into(tokens, &mut hist, &mut self.remainder_scratch);
        }
        let shared = (blocks > 0).then_some((hist.as_slice(), f64::from(blocks)));
        let moe = self.price_moe(mixed, shared);
        self.hist_scratch = hist;
        if self.moe_memo.len() >= STAGE_CONSTS_MAX_ENTRIES {
            self.moe_memo.clear();
        }
        self.moe_memo.insert((tokens, mixed), moe);
        moe
    }

    /// MoE time and energy of a stage: each `(histogram, times)` of `moe`
    /// priced once and counted `times` (a histogram shared by several
    /// MoE layers, or one layer of a stage whose layers differ).
    fn price_moe<'a>(
        &mut self,
        mixed: bool,
        moe: impl IntoIterator<Item = (&'a [u64], f64)>,
    ) -> MoeCost {
        let (tp_fc, _, moe_devices) = self.parallel_dims();
        let mut scratch = std::mem::take(&mut self.moe_scratch);
        let mut cost = MoeCost::default();
        for (hist, times) in moe {
            let (t, e) = self.price_moe_layer(hist, mixed, tp_fc, moe_devices, &mut scratch);
            cost.seconds += t * times;
            cost.dram_j += e.moe_dram * times;
            cost.comp_j += e.moe_comp * times;
        }
        self.moe_scratch = scratch;
        cost
    }

    /// FC + MoE + communication cost of the stage `key` describes, with
    /// FC ops `fc_ops` and the MoE cost already priced.
    fn price_consts(&self, key: &ConstsKey, fc_ops: &[FcOp], moe: MoeCost) -> StageConsts {
        let (tp_fc, _, _) = self.parallel_dims();
        let mut time = TimeBreakdown::default();
        let mut energy = EnergyBuckets::default();
        self.price_fc_ops(fc_ops, key.m_fc, key.lm_rows, tp_fc, &mut time, &mut energy);
        time.moe += moe.seconds;
        energy.moe_dram += moe.dram_j;
        energy.moe_comp += moe.comp_j;
        self.price_stage_comm(
            key.m_fc,
            key.tokens,
            key.decode_tokens,
            self.model.moe_block_count() > 0,
            tp_fc,
            &mut time,
            &mut energy,
        );
        StageConsts { time, energy }
    }

    /// Price one stage's grouped attention node by node: the decode
    /// groups as `(ctx, reqs)` in ascending context order, then the
    /// prefill groups (see [`enumerate_stage_into`] for both orders).
    /// Each group's requests spread across the data-parallel nodes
    /// exactly as if they had been assigned one by one: a rotating
    /// per-class cursor tracks where the next request would land. Also
    /// finds the representative (most-loaded, last on ties) node's FC
    /// tokens and LM-head rows. With `caches`, each group's per-device
    /// price comes from them (bit-identical to pricing it afresh).
    fn price_attention<D>(
        &self,
        decode: D,
        prefill: &[AttnOp],
        mut caches: Option<&mut AttnCaches>,
    ) -> AttnPriced
    where
        D: Iterator<Item = (u64, u64)> + Clone,
    {
        let nodes = u64::from(self.config.nodes);
        let (_, tp_attn, _) = self.parallel_dims();
        let tp = f64::from(tp_attn);
        let (prefill_engine, decode_engine) = (&self.xpu, self.decode_engine());
        // All decode groups share everything but ctx: one linear
        // pricer serves them instead of re-deriving shapes per group.
        // Copied out of the cell so the group loop keeps it in
        // registers.
        let decode_pricer = *self.decode_attn_pricer();
        let kv_tok = self.model.kv_bytes_per_token();
        // One batched kernel set (score, softmax, value) per layer and
        // class: charge the launch overhead once per layer.
        let layers = f64::from(self.model.n_layers);
        let mut out = AttnPriced::default();
        let (mut rep_tokens, mut rep_lm_rows) = (0u64, 0u64);
        for n in 0..nodes {
            let (mut pre, mut dec) = (0.0f64, 0.0f64);
            let mut cursor = 0u64;
            let mut decode_tokens = 0u64;
            for (ctx, reqs) in decode.clone() {
                let cnt = round_robin_share(n, nodes, cursor, reqs);
                cursor += reqs;
                if cnt == 0 {
                    continue;
                }
                let mult_f = count_f64(cnt);
                let c = match caches.as_deref_mut() {
                    Some(caches) => caches.decode.get_or_price(ctx, || decode_pricer.cost(ctx)),
                    None => decode_pricer.cost(ctx),
                };
                dec += c.seconds * mult_f;
                out.energy.add_attn(&c.scaled(tp * mult_f));
                decode_tokens += cnt;
            }
            cursor = 0;
            // Every decode samples a token; held prefill chunks do not.
            let (mut prefill_tokens, mut lm_rows) = (0u64, decode_tokens);
            for op in prefill {
                let cnt = round_robin_share(n, nodes, cursor, op.reqs);
                cursor += op.reqs;
                if cnt == 0 {
                    continue;
                }
                let mult_f = cnt as f64;
                let c = match caches.as_deref_mut() {
                    Some(caches) => caches.prefill.get_or_price((op.ctx, op.past), || {
                        self.attn_cost(prefill_engine, op, tp_attn)
                    }),
                    None => self.attn_cost(prefill_engine, op, tp_attn),
                };
                pre += c.seconds * mult_f;
                out.energy.add_attn(&c.scaled(tp * mult_f));
                prefill_tokens += op.ctx * cnt;
                if op.samples {
                    lm_rows += cnt;
                }
            }
            // KV append: decode KV written by the decode engine, prefill
            // KV by the prefill engine (later migrated; Sec. V-C).
            if decode_tokens > 0 {
                let bytes = decode_tokens * kv_tok / u64::from(tp_attn);
                let c = decode_engine.kernel_cost(&Kernel::Stream { bytes, write: true });
                dec += c.seconds;
                out.energy.add_attn(&c.scaled(tp));
            }
            if prefill_tokens > 0 {
                let bytes = prefill_tokens * kv_tok / u64::from(tp_attn);
                let c = prefill_engine.kernel_cost(&Kernel::Stream { bytes, write: true });
                pre += c.seconds;
                out.energy.add_attn(&c.scaled(tp));
            }
            if decode_tokens > 0 {
                dec += 3.0 * decode_engine.spec().launch_overhead_s * layers;
            }
            if prefill_tokens > 0 {
                pre += 3.0 * prefill_engine.spec().launch_overhead_s * layers;
            }
            out.decode_s = dec.max(out.decode_s);
            out.prefill_s = pre.max(out.prefill_s);
            let tokens = decode_tokens + prefill_tokens;
            if tokens >= rep_tokens {
                (rep_tokens, rep_lm_rows) = (tokens, lm_rows);
            }
        }
        out.m_fc = rep_tokens.max(1);
        out.lm_rows = rep_lm_rows.max(1);
        out
    }

    /// A stage's cost from its priced attention and constants, with the
    /// co-processing overlap applied.
    fn assemble(&self, attn: &AttnPriced, consts: &StageConsts) -> StageCost {
        let time = TimeBreakdown {
            attn_prefill: attn.prefill_s,
            attn_decode: attn.decode_s,
            ..consts.time
        };
        let energy = EnergyBuckets {
            attn_dram: attn.energy.attn_dram,
            attn_comp: attn.energy.attn_comp,
            ..consts.energy
        };
        let attn_eff = if self.config.coproc {
            time.attn_prefill.max(time.attn_decode)
        } else {
            time.attn_prefill + time.attn_decode
        };
        StageCost {
            seconds: time.fc + attn_eff + time.moe + time.comm,
            time,
            energy,
        }
    }

    fn stage_cost_impl(&mut self, shape: &StageShape, grouped: bool) -> StageCost {
        let mut work = std::mem::take(&mut self.work);
        enumerate_stage_into(&self.model, shape, &self.router, &mut self.rng, &mut work);
        if !grouped {
            // Ungroup: one op per request, multiplicity 1.
            work.attn = work
                .attn
                .iter()
                .flat_map(|op| std::iter::repeat_n(AttnOp { reqs: 1, ..*op }, op.reqs as usize))
                .collect();
        }
        let (decode, prefill) = work
            .attn
            .split_at(work.attn.partition_point(|op| op.decode));
        let attn = self.price_attention(decode.iter().map(|op| (op.ctx, op.reqs)), prefill, None);
        let key = ConstsKey {
            m_fc: attn.m_fc,
            lm_rows: attn.lm_rows,
            tokens: work.tokens,
            decode_tokens: shape.decode_ctx.len() as u64,
            mixed: work.mixed,
        };
        let layers = &work.moe;
        let consts = if grouped && (work.moe_uniform || layers.is_empty()) {
            // Expected-value routing: every layer shares `moe[0]`.
            self.stage_consts(key)
        } else if grouped
            && layers
                .windows(2)
                .all(|w| w[0].expert_tokens == w[1].expert_tokens)
        {
            // Sampled histograms that happen to coincide.
            let first = layers
                .first()
                .map(|l| (&l.expert_tokens[..], layers.len() as f64));
            let moe = self.price_moe(key.mixed, first);
            self.price_consts(&key, &work.fc_ops, moe)
        } else {
            // The reference path sums per-layer prices; a collapsed
            // uniform stage prices `moe[0]` once per layer, which sums
            // the same addends the materialized form would.
            let layer = |i: usize| &layers[if work.moe_uniform { 0 } else { i }].expert_tokens[..];
            let moe = self.price_moe(key.mixed, (0..layers.len()).map(|i| (layer(i), 1.0)));
            self.price_consts(&key, &work.fc_ops, moe)
        };
        self.work = work;
        self.assemble(&attn, &consts)
    }

    /// Price a stage the decode template cannot (it prefills, or no
    /// request decodes) straight from the carried decode groups and the
    /// delta's prefills, under expected-value routing. No shape is
    /// materialized, sorted or regrouped, the MoE cost comes from the
    /// memo, and each group's attention price comes from the bounded
    /// [`AttnCaches`]. The groups are the ones
    /// [`enumerate_stage_into`] builds from the materialized shape, in
    /// the same order, and feed the same pricing code, so the cost
    /// equals the grouped full path's to the bit.
    fn stage_cost_carried(&mut self, delta: &StageDelta) -> StageCost {
        let keys = &mut self.prefill_keys;
        keys.clear();
        keys.extend(
            delta
                .admit
                .iter()
                .enumerate()
                .map(|(i, &len)| (len, delta.admit_past(i), false)),
        );
        keys.extend(delta.chunk.iter().map(|&(len, past)| (len, past, true)));
        let mut prefill = std::mem::take(&mut self.prefill_scratch);
        prefill.clear();
        push_prefill_groups(&self.model, keys, &mut prefill);
        let prefill_tokens: u64 = keys.iter().map(|&(len, _, _)| len).sum();
        let mut caches = self.attn_caches.take().unwrap_or_else(AttnCaches::new);
        let priced = self.price_attention(self.batch.groups().iter(), &prefill, Some(&mut caches));
        self.attn_caches = Some(caches);
        self.prefill_scratch = prefill;
        let decode_tokens = self.batch.reqs();
        let consts = self.stage_consts(ConstsKey {
            m_fc: priced.m_fc,
            lm_rows: priced.lm_rows,
            tokens: decode_tokens + prefill_tokens,
            decode_tokens,
            mixed: !self.prefill_keys.is_empty(),
        });
        self.assemble(&priced, &consts)
    }

    /// Price the batched FC layers (always on the xPU): `m_fc` tokens
    /// on the representative node, `lm_rows` LM-head rows.
    fn price_fc_ops(
        &self,
        ops: &[FcOp],
        m_fc: u64,
        lm_rows: u64,
        tp_fc: u32,
        time: &mut TimeBreakdown,
        energy: &mut EnergyBuckets,
    ) {
        let bpe = self.model.bytes_per_elem;
        let nodes = self.config.nodes as usize;
        for op in ops {
            let m = if op.name == "lm_head" { lm_rows } else { m_fc };
            let sharded = GemmShape {
                m,
                n: op.shape.n.div_ceil(u64::from(tp_fc)),
                k: op.shape.k,
            };
            let dram = op.weight_bytes(bpe) / u64::from(tp_fc);
            let dev = self.xpu.gemm_cost(sharded, dram).scaled(op.count as f64);
            time.fc += dev.seconds;
            // Every device of every node does symmetric work.
            let cluster = dev.scaled(f64::from(tp_fc) * nodes as f64);
            energy.add_fc(&cluster);
        }
    }

    /// Price one MoE layer under the system's expert-parallelism policy.
    fn price_moe_layer(
        &self,
        expert_tokens: &[u64],
        mixed: bool,
        tp_fc: u32,
        moe_devices: u32,
        scratch: &mut MoeScratch,
    ) -> (f64, EnergyBuckets) {
        if self.config.expert_tensor_parallel {
            self.moe_layer_et(expert_tokens, mixed, tp_fc, scratch)
        } else {
            self.moe_layer_ep(expert_tokens, mixed, moe_devices, scratch)
        }
    }

    /// Price a stage's communication: tensor-parallel all-reduces, MoE
    /// dispatch (and the ET partial-sum stream, which lands in the MoE
    /// buckets), and the heterogeneous system's GPU <-> PIM handoffs.
    #[allow(clippy::too_many_arguments)]
    fn price_stage_comm(
        &self,
        m_fc: u64,
        tokens: u64,
        decode_tokens: u64,
        moe_active: bool,
        tp_fc: u32,
        time: &mut TimeBreakdown,
        energy: &mut EnergyBuckets,
    ) {
        let bpe = self.model.bytes_per_elem;
        let nodes = self.config.nodes as usize;
        let act_bytes = m_fc * self.model.hidden * bpe;
        let layers = u64::from(self.model.n_layers);
        // Two tensor-parallel all-reduces per decoder layer.
        time.comm += 2.0 * self.comm.all_reduce_intra(act_bytes) * layers as f64;
        if moe_active {
            let moe_blocks = self.model.moe_block_count() as f64;
            let dispatch_total = tokens * u64::from(self.model.top_k) * self.model.hidden * bpe;
            if self.config.expert_tensor_parallel {
                // EP across nodes only; tokens cross the IB links.
                if nodes > 1 {
                    let per_node = dispatch_total / nodes as u64;
                    time.comm += 2.0 * self.node_comm.all_to_all(per_node) * moe_blocks;
                }
                // On-device partial-sum all-reduce: the xPU reads each
                // Logic-PIM stack's partial outputs (Sec. V-A).
                let partial = m_fc * self.model.hidden * bpe;
                let c = self.xpu.kernel_cost(&Kernel::Stream {
                    bytes: partial,
                    write: false,
                });
                time.moe += c.seconds * moe_blocks;
                energy.add_moe(&c.scaled(moe_blocks * f64::from(tp_fc) * nodes as f64));
            } else {
                let per_device = dispatch_total / u64::from(self.config.total_devices());
                time.comm += 2.0 * self.comm.all_to_all(per_device) * moe_blocks;
            }
        }
        if self.config.hetero {
            // GPU <-> PIM handoffs: QKV/outputs for decode attention each
            // layer, activations to/from the MoE pool each MoE layer.
            if decode_tokens > 0 {
                let bytes = decode_tokens * self.model.hidden * bpe;
                time.comm += 2.0 * self.comm.p2p_intra(bytes) * layers as f64;
            }
            let moe_bytes = m_fc * self.model.hidden * bpe;
            time.comm += 2.0 * self.comm.p2p_intra(moe_bytes) * self.model.moe_block_count() as f64;
        }
    }

    /// Expert-parallel MoE layer: experts distributed round-robin over
    /// `devices`; returns (time, energy).
    fn moe_layer_ep(
        &self,
        expert_tokens: &[u64],
        mixed: bool,
        devices: u32,
        scratch: &mut MoeScratch,
    ) -> (f64, EnergyBuckets) {
        let nex = expert_tokens.len() as u32;
        let mut energy = EnergyBuckets::default();
        // When devices outnumber experts each expert is tensor-sharded
        // over device groups (footnote 1 of the paper).
        let (frac, eff_devices) = if devices > nex {
            (f64::from(nex) / f64::from(devices), nex)
        } else {
            (1.0, devices)
        };
        let mut worst = 0.0f64;
        for d in 0..eff_devices {
            let owned = OwnedExperts {
                tokens: expert_tokens,
                first: d as usize,
                step: eff_devices as usize,
            };
            let (t, e) = self.run_device_experts(owned, mixed, frac, scratch);
            worst = worst.max(t);
            energy += e;
        }
        (worst, energy)
    }

    /// Expert-tensor-parallel MoE layer: every device of a node holds a
    /// `1/tp` shard of each expert owned by its node (EP across nodes).
    fn moe_layer_et(
        &self,
        expert_tokens: &[u64],
        mixed: bool,
        tp: u32,
        scratch: &mut MoeScratch,
    ) -> (f64, EnergyBuckets) {
        let nodes = self.config.nodes;
        let frac = 1.0 / f64::from(tp);
        let mut worst = 0.0f64;
        let mut energy = EnergyBuckets::default();
        for node in 0..nodes {
            let owned = OwnedExperts {
                tokens: expert_tokens,
                first: node as usize,
                step: nodes as usize,
            };
            let (t, e) = self.run_device_experts(owned, mixed, frac, scratch);
            worst = worst.max(t);
            // All tp devices of the node do symmetric shard work.
            let mut e_scaled = e;
            e_scaled.moe_dram *= f64::from(tp);
            e_scaled.moe_comp *= f64::from(tp);
            energy += e_scaled;
        }
        (worst, energy)
    }

    /// Run one device's experts under the policy: GPU-only, PIM by
    /// stage type (base Duplex), or co-processing split. Each expert's
    /// price comes from its unit's table in `scratch`.
    fn run_device_experts(
        &self,
        owned: OwnedExperts<'_>,
        mixed: bool,
        frac: f64,
        scratch: &mut MoeScratch,
    ) -> (f64, EnergyBuckets) {
        let mut energy = EnergyBuckets::default();
        // Experts in one layer dispatch as one grouped kernel per unit:
        // one launch-overhead set per unit that does any work.
        let launches = f64::from(self.model.ffn_fcs);
        let MoeScratch { xpu, pim, split } = scratch;
        let has_pim = self.pim.is_some() || self.config.hetero;
        if self.config.coproc && has_pim {
            let xpu_table = xpu.get_or_insert_with(|| ExpertTable::new(frac));
            let pim_table = pim.get_or_insert_with(|| ExpertTable::new(frac));
            let pim = self.pim();
            let split = split_experts(
                owned.len(),
                |i| {
                    let tk = owned.get(i);
                    (
                        pim_table.price(self, pim, tk, frac).seconds,
                        xpu_table.price(self, &self.xpu, tk, frac).seconds,
                    )
                },
                split,
            );
            for &i in split.pim_experts() {
                energy.add_moe(&pim_table.price(self, pim, owned.get(i), frac));
            }
            for &i in split.xpu_experts() {
                energy.add_moe(&xpu_table.price(self, &self.xpu, owned.get(i), frac));
            }
            let pim_side = if split.pim_seconds > 0.0 {
                split.pim_seconds + launches * pim.spec().launch_overhead_s
            } else {
                0.0
            };
            let xpu_side = if split.xpu_seconds > 0.0 {
                split.xpu_seconds + launches * self.xpu.spec().launch_overhead_s
            } else {
                0.0
            };
            return (pim_side.max(xpu_side), energy);
        }
        // GPU: everything on the xPU. Base Duplex / Bank-PIM / hetero:
        // the PIM owns MoE in decoding-only stages; the hetero system
        // has no choice and keeps MoE on its PIM pool even in mixed
        // stages.
        let (engine, table) = if !has_pim || (mixed && !self.config.hetero) {
            (&self.xpu, xpu)
        } else {
            (self.pim(), pim)
        };
        let table = table.get_or_insert_with(|| ExpertTable::new(frac));
        let mut t = 0.0;
        let mut any = false;
        for tk in owned.iter() {
            let c = table.price(self, engine, tk, frac);
            t += c.seconds;
            any |= tk > 0;
            energy.add_moe(&c);
        }
        if any {
            t += launches * engine.spec().launch_overhead_s;
        }
        (t, energy)
    }
}

impl StageExecutor for SystemExecutor {
    fn execute(&mut self, shape: &StageShape) -> StageOutcome {
        // A stage executed without a delta desyncs the carried batch
        // state; a later execute_delta resyncs from its shape.
        self.batch.desync();
        let cost = self.stage_cost(shape);
        self.total += cost;
        self.stages += 1;
        StageOutcome {
            seconds: cost.seconds,
        }
    }

    /// Prices the template's next stage inline (see the module docs):
    /// on such a stage the general path would only advance the groups,
    /// find the membership unchanged and price `advance` + `price`.
    #[inline]
    fn execute_delta(&mut self, delta: &StageDelta, shape: &StageShape) -> StageOutcome {
        if delta.is_pure_advance()
            && self.batch.is_synced()
            && self.batch.no_joins()
            && self.router.mode() == RoutingMode::Expected
        {
            if let Some(template) = &mut self.template {
                self.batch.advance();
                template.advance();
                let cost = template.price();
                self.debug_check_shape(shape);
                self.total += cost;
                self.stages += 1;
                return StageOutcome {
                    seconds: cost.seconds,
                };
            }
        }
        self.execute_delta_general(delta, shape)
    }

    /// The carried batch state prices every stage on an unbroken delta
    /// stream. The decode contexts are read only to resync after a
    /// direct `execute`, and by the debug cross-checks.
    fn needs_shape(&self) -> bool {
        cfg!(debug_assertions) || !self.batch.is_synced()
    }

    fn export_batch(&self) -> Option<BatchCheckpoint> {
        let (decode_groups, pending_joins) = self.batch.export();
        Some(BatchCheckpoint {
            decode_groups,
            pending_joins,
            rng: self.rng.state(),
        })
    }

    fn import_batch(&mut self, checkpoint: &BatchCheckpoint) {
        self.batch
            .restore(&checkpoint.decode_groups, &checkpoint.pending_joins);
        // The decode template is a pure function of the groups; drop it
        // and let the next stage rebuild it (bit-identical).
        self.invalidate_template();
        self.rng = StdRng::from_state(checkpoint.rng);
    }
}

impl SystemExecutor {
    /// [`StageExecutor::execute_delta`] for every stage its inline
    /// template branch does not take: resyncs, admissions,
    /// retirements, template rebuilds and sampled routing.
    #[inline(never)]
    fn execute_delta_general(&mut self, delta: &StageDelta, shape: &StageShape) -> StageOutcome {
        let cost = if !self.batch.is_synced() && !delta.fresh {
            // The delta stream was interrupted (a direct `execute`
            // call); the materialized shape is ground truth — resync
            // the batch state from it and price the full path once.
            self.batch.rebuild_from(shape);
            self.invalidate_template();
            self.stage_cost_impl(shape, true)
        } else {
            let cost = self.stage_cost_delta_inner(delta, Some(shape));
            self.debug_check_shape(shape);
            cost
        };
        self.total += cost;
        self.stages += 1;
        StageOutcome {
            seconds: cost.seconds,
        }
    }

    /// Debug builds: the carried batch agrees with the decode contexts
    /// of the scheduler's shape for the stage just priced.
    fn debug_check_shape(&self, shape: &StageShape) {
        debug_assert_eq!(
            self.batch.reqs() as usize,
            shape.decode_ctx.len(),
            "batch state drifted from the scheduler's shape"
        );
        debug_assert_eq!(
            self.batch.ctx_sum(),
            shape.decode_ctx.iter().sum::<u64>(),
            "batch context sum drifted from the scheduler's shape"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_stage(batch: usize, ctx: u64) -> StageShape {
        StageShape::decode_only(&vec![ctx; batch])
    }

    fn mixed_stage(batch: usize, ctx: u64, lin: u64) -> StageShape {
        StageShape::mixed(&vec![ctx; batch], &[lin])
    }

    #[test]
    fn moe_dominates_gpu_decode_stages() {
        // Fig. 4(a): MoE + attention take most of a decode-only stage.
        let mut ex = SystemExecutor::new(SystemConfig::gpu(4, 1), ModelConfig::mixtral_8x7b(), 1);
        let c = ex.stage_cost(&decode_stage(64, 2048));
        let moe_attn = c.time.moe + c.time.attn_decode;
        assert!(
            moe_attn > 0.6 * c.time.total(),
            "moe+attn {:.2}ms of {:.2}ms",
            moe_attn * 1e3,
            c.time.total() * 1e3
        );
    }

    #[test]
    fn duplex_speeds_up_decode_stages() {
        // Batch 32 keeps each Mixtral expert at ~8 tokens (Op/B ~ 8),
        // squarely in Logic-PIM's memory-bound sweet spot.
        let model = ModelConfig::mixtral_8x7b();
        let mut gpu = SystemExecutor::new(SystemConfig::gpu(4, 1), model.clone(), 1);
        let mut dup = SystemExecutor::new(SystemConfig::duplex(4, 1), model, 1);
        let shape = decode_stage(32, 2048);
        let tg = gpu.stage_cost(&shape).seconds;
        let td = dup.stage_cost(&shape).seconds;
        assert!(td < 0.65 * tg, "Duplex {td} vs GPU {tg}");

        // At batch 64 the experts go compute-bound on the PIM, but
        // Duplex must still win.
        let shape = decode_stage(64, 2048);
        let tg = gpu.stage_cost(&shape).seconds;
        let td = dup.stage_cost(&shape).seconds;
        assert!(td < 0.8 * tg, "Duplex {td} vs GPU {tg}");
    }

    #[test]
    fn coproc_never_hurts() {
        let model = ModelConfig::mixtral_8x7b();
        let mut base = SystemExecutor::new(SystemConfig::duplex(4, 1), model.clone(), 1);
        let mut pe = SystemExecutor::new(SystemConfig::duplex_pe(4, 1), model, 1);
        for shape in [decode_stage(32, 1024), mixed_stage(31, 1024, 2048)] {
            let tb = base.stage_cost(&shape).seconds;
            let tp = pe.stage_cost(&shape).seconds;
            assert!(tp <= tb * 1.02, "PE {tp} vs base {tb}");
        }
    }

    #[test]
    fn et_improves_expert_split_granularity() {
        // With EP, each Mixtral device owns 2 experts; with ET it sees
        // all 8 shards, so the co-processing split gets finer and the
        // MoE time cannot get worse.
        let model = ModelConfig::mixtral_8x7b();
        let mut pe = SystemExecutor::new(SystemConfig::duplex_pe(4, 1), model.clone(), 1);
        let mut et = SystemExecutor::new(SystemConfig::duplex_pe_et(4, 1), model, 1);
        let shape = decode_stage(64, 1024);
        let t_pe = pe.stage_cost(&shape).time.moe;
        let t_et = et.stage_cost(&shape).time.moe;
        assert!(t_et <= t_pe * 1.05, "ET {t_et} vs PE {t_pe}");
    }

    #[test]
    fn mixed_stage_moe_runs_on_xpu_for_base_duplex() {
        // In a mixed stage the MoE Op/B is high; base Duplex routes it
        // to the xPU, so MoE time should be near the GPU system's.
        let model = ModelConfig::mixtral_8x7b();
        let mut gpu = SystemExecutor::new(SystemConfig::gpu(4, 1), model.clone(), 1);
        let mut dup = SystemExecutor::new(SystemConfig::duplex(4, 1), model, 1);
        let shape = mixed_stage(31, 1024, 2048);
        let mg = gpu.stage_cost(&shape).time.moe;
        let md = dup.stage_cost(&shape).time.moe;
        assert!((md - mg).abs() / mg < 0.05, "GPU {mg} vs Duplex {md}");
    }

    #[test]
    fn hetero_mixed_stages_blow_up() {
        // Fig. 5(b): the hetero system is slower than the GPU system on
        // mixed stages (compute-starved PIM devices run the MoE).
        let model = ModelConfig::mixtral_8x7b();
        let mut gpu = SystemExecutor::new(SystemConfig::gpu(4, 1), model.clone(), 1);
        let mut het = SystemExecutor::new(SystemConfig::hetero(), model, 1);
        let mixed = mixed_stage(31, 1024, 2048);
        let tg = gpu.stage_cost(&mixed).seconds;
        let th = het.stage_cost(&mixed).seconds;
        assert!(th > 2.0 * tg, "hetero {th} vs GPU {tg} on mixed stage");
        // ... but faster on decode-only stages.
        let dec = decode_stage(32, 1024);
        let tg = gpu.stage_cost(&dec).seconds;
        let th = het.stage_cost(&dec).seconds;
        assert!(th < tg, "hetero {th} vs GPU {tg} on decode stage");
    }

    #[test]
    fn bank_pim_wins_mha_loses_moe_vs_duplex() {
        // Fig. 14: Bank-PIM beats Duplex on OPT (MHA, Op/B ~1) decode
        // attention but loses on Mixtral MoE (Op/B > 1).
        let opt = ModelConfig::opt_66b();
        let mut bank = SystemExecutor::new(SystemConfig::bank_pim(4, 1), opt.clone(), 1);
        let mut dup = SystemExecutor::new(SystemConfig::duplex(4, 1), opt, 1);
        let shape = decode_stage(32, 2048);
        let tb = bank.stage_cost(&shape).time.attn_decode;
        let td = dup.stage_cost(&shape).time.attn_decode;
        assert!(tb < td, "Bank-PIM attention {tb} vs Duplex {td} on MHA");

        let mixtral = ModelConfig::mixtral_8x7b();
        let mut bank = SystemExecutor::new(SystemConfig::bank_pim(4, 1), mixtral.clone(), 1);
        let mut dup = SystemExecutor::new(SystemConfig::duplex(4, 1), mixtral, 1);
        let shape = decode_stage(64, 2048);
        let tb = bank.stage_cost(&shape).time.moe;
        let td = dup.stage_cost(&shape).time.moe;
        assert!(td < tb, "Duplex MoE {td} vs Bank-PIM {tb} at batch 64");
    }

    #[test]
    fn duplex_saves_energy() {
        let model = ModelConfig::mixtral_8x7b();
        let mut gpu = SystemExecutor::new(SystemConfig::gpu(4, 1), model.clone(), 1);
        let mut dup = SystemExecutor::new(SystemConfig::duplex_pe_et(4, 1), model, 1);
        let shape = decode_stage(64, 2048);
        let eg = gpu.stage_cost(&shape).energy.total();
        let ed = dup.stage_cost(&shape).energy.total();
        assert!(ed < eg, "Duplex energy {ed} vs GPU {eg}");
    }

    #[test]
    fn doubled_system_scales_cluster() {
        let four = SystemConfig::gpu(4, 1);
        let eight = four.doubled();
        assert_eq!(eight.total_devices(), 8);
        assert_eq!(eight.nodes, 1);
        let sixteen = eight.doubled();
        assert_eq!(sixteen.nodes, 2);
        assert_eq!(sixteen.name, "2x2xGPU");
    }

    fn assert_costs_close(a: &StageCost, b: &StageCost, what: &str) {
        let rel = |x: f64, y: f64| (x - y).abs() / x.abs().max(y.abs()).max(f64::MIN_POSITIVE);
        assert!(
            rel(a.seconds, b.seconds) < 1e-9,
            "{what}: seconds {} vs {}",
            a.seconds,
            b.seconds
        );
        assert!(rel(a.time.fc, b.time.fc) < 1e-9, "{what}: fc");
        assert!(
            rel(a.time.attn_prefill, b.time.attn_prefill) < 1e-9,
            "{what}: attn_prefill"
        );
        assert!(
            rel(a.time.attn_decode, b.time.attn_decode) < 1e-9,
            "{what}: attn_decode"
        );
        assert!(rel(a.time.moe, b.time.moe) < 1e-9, "{what}: moe");
        assert!(rel(a.time.comm, b.time.comm) < 1e-9, "{what}: comm");
        assert!(
            rel(a.energy.total(), b.energy.total()) < 1e-9,
            "{what}: energy"
        );
    }

    #[test]
    fn grouped_fast_path_matches_reference() {
        let model = ModelConfig::mixtral_8x7b();
        let shapes = [
            decode_stage(64, 2048),
            mixed_stage(31, 1024, 2048),
            StageShape::decode_only(&[100, 200, 100, 300, 200, 100]),
            StageShape::mixed(&[512; 17], &[2048, 512, 2048]),
        ];
        for system in [
            SystemConfig::gpu(4, 1),
            SystemConfig::duplex(4, 1),
            SystemConfig::duplex_pe(4, 1),
            SystemConfig::duplex_pe_et(4, 1),
            SystemConfig::bank_pim(4, 1),
            SystemConfig::hetero(),
        ] {
            for shape in &shapes {
                let mut fast = SystemExecutor::new(system.clone(), model.clone(), 1);
                let mut naive = SystemExecutor::new(system.clone(), model.clone(), 1);
                let a = fast.stage_cost(shape);
                let b = naive.stage_cost_reference(shape);
                assert_costs_close(&a, &b, &format!("{} / {:?}", system.name, shape));
            }
        }
    }

    #[test]
    fn grouped_fast_path_matches_reference_across_nodes() {
        // Two data-parallel nodes: group multiplicities split across
        // nodes must reproduce per-request round-robin placement.
        let model = ModelConfig::grok1();
        let shapes = [
            StageShape::decode_only(&[1024; 33]),
            StageShape::decode_only(&[100, 100, 200, 200, 200, 300, 100]),
            StageShape::mixed(&[512; 9], &[2048, 2048, 1024]),
        ];
        let mut fast = SystemExecutor::new(SystemConfig::duplex_pe_et(8, 2), model.clone(), 3);
        let mut naive = SystemExecutor::new(SystemConfig::duplex_pe_et(8, 2), model, 3);
        for shape in &shapes {
            let a = fast.stage_cost(shape);
            let b = naive.stage_cost_reference(shape);
            assert_costs_close(&a, &b, &format!("grok 2-node / {shape:?}"));
        }
    }

    #[test]
    fn stage_pricing_is_uncached_and_reproducible() {
        let mut ex = SystemExecutor::new(
            SystemConfig::duplex_pe_et(4, 1),
            ModelConfig::mixtral_8x7b(),
            1,
        );
        let shape = decode_stage(64, 2048);
        let a = ex.stage_cost(&shape);
        let b = ex.stage_cost(&shape);
        assert_eq!(
            a.seconds.to_bits(),
            b.seconds.to_bits(),
            "repeated identical stage must price bit-identically"
        );
    }

    /// The delta stream of a Mixtral run on `system` at batch
    /// `max_batch`, capped at `max_stages`: closed loop when `qps` is
    /// `None`, Poisson at `qps` otherwise.
    fn record_deltas(
        system: &SystemConfig,
        max_batch: usize,
        max_stages: usize,
        workload: duplex_sched::Workload,
        qps: Option<f64>,
    ) -> Vec<StageDelta> {
        struct Recorder {
            inner: SystemExecutor,
            deltas: Vec<StageDelta>,
        }
        impl StageExecutor for Recorder {
            fn execute(&mut self, shape: &StageShape) -> StageOutcome {
                self.inner.execute(shape)
            }
            fn execute_delta(&mut self, delta: &StageDelta, shape: &StageShape) -> StageOutcome {
                self.deltas.push(delta.clone());
                self.inner.execute_delta(delta, shape)
            }
        }
        let model = ModelConfig::mixtral_8x7b();
        let inner = SystemExecutor::new(system.clone(), model.clone(), 7);
        let config = duplex_sched::SimulationConfig {
            max_batch,
            kv_capacity_bytes: inner.kv_capacity_bytes(),
            kv_bytes_per_token: model.kv_bytes_per_token(),
            max_stages,
            record_stages: false,
        };
        let mut recorder = Recorder {
            inner,
            deltas: Vec::new(),
        };
        let sim = match qps {
            Some(qps) => duplex_sched::Simulation::poisson(config, workload, qps, usize::MAX),
            None => duplex_sched::Simulation::closed_loop(config, workload, usize::MAX),
        };
        sim.run(&mut recorder);
        recorder.deltas
    }

    #[test]
    fn attention_price_caches_miss_once_per_distinct_group() {
        // A saturated open-loop stream (batch 256, Gaussian 128/32 at
        // 50k qps): nearly every stage admits and retires, so it takes
        // the carried mixed path, and consecutive stages share most of
        // their attention groups. Forcing every cache lookup to miss
        // leaves every price unchanged, so only this count catches it.
        let system = SystemConfig::duplex_pe_et(4, 1);
        let workload = duplex_sched::Workload::gaussian(128, 32);
        let deltas = record_deltas(&system, 256, 512, workload, Some(50_000.0));

        let mut ex = SystemExecutor::new(system, ModelConfig::mixtral_8x7b(), 7);
        for delta in &deltas {
            ex.stage_cost_delta(delta);
        }
        let caches = ex.attn_caches.as_ref().expect("mixed stages ran");
        let (decode, prefill) = (caches.decode.misses, caches.prefill.misses);
        assert_eq!(deltas.len(), 512);
        // 128 decode and 81 prefill misses in ~35k lookups: a price is
        // a function of the group's key alone, so after warm-up only a
        // context or prompt not seen before misses.
        assert!(
            (64..=256).contains(&decode) && (40..=162).contains(&prefill),
            "misses: {decode} decode, {prefill} prefill"
        );
    }

    #[test]
    fn the_decode_template_is_rebuilt_only_when_membership_changes() {
        // A closed-loop decode stream (batch 64, Gaussian 512/512):
        // most stages are pure advances, which the template prices
        // without a rebuild. Dropping the template every stage leaves
        // every price unchanged, so only this count catches it.
        let system = SystemConfig::duplex_pe_et(4, 1);
        let workload = duplex_sched::Workload::gaussian(512, 512);
        let deltas = record_deltas(&system, 64, 2_048, workload, None);

        let mut ex = SystemExecutor::new(system, ModelConfig::mixtral_8x7b(), 7);
        for delta in &deltas {
            ex.stage_cost_delta(delta);
        }
        let changed = deltas.iter().filter(|d| !d.is_pure_advance()).count() as u64;
        assert_eq!(deltas.len(), 2_048);
        assert!(
            (1..=changed).contains(&ex.template_rebuilds),
            "{} rebuilds for {changed} changed stages of {}",
            ex.template_rebuilds,
            deltas.len()
        );
    }

    #[test]
    fn expert_tables_price_every_count_like_a_fresh_roofline_call() {
        let bits = |c: KernelCost| {
            [
                c.seconds.to_bits(),
                c.dram_energy.activation_j.to_bits(),
                c.dram_energy.transfer_j.to_bits(),
                c.compute_j.to_bits(),
            ]
        };
        for system in [
            SystemConfig::gpu(4, 1),
            SystemConfig::duplex(4, 1),
            SystemConfig::duplex_pe_et(4, 1),
            SystemConfig::bank_pim(4, 1),
        ] {
            let mut ex = SystemExecutor::new(system.clone(), ModelConfig::mixtral_8x7b(), 1);
            // A mixed and a decode stage build each unit's table at the
            // executor's shard fraction.
            ex.stage_cost(&mixed_stage(8, 512, 128));
            ex.stage_cost(&decode_stage(8, 512));
            let mut scratch = std::mem::take(&mut ex.moe_scratch);
            let xpu = (scratch.xpu.as_mut(), Some(&ex.xpu));
            let pim = (scratch.pim.as_mut(), ex.pim.as_ref());
            assert_eq!(pim.0.is_some(), system.device != DeviceKind::Gpu);
            for (table, engine) in [xpu, pim] {
                let (Some(table), Some(engine)) = (table, engine) else {
                    continue;
                };
                let frac = table.frac;
                // Each count twice in a row (a miss, then a hit), upward
                // and then downward, so later counts evict earlier ones.
                for tokens in (0..=4096u64).chain((0..=4096).rev()) {
                    let fresh = bits(ex.expert_cost(engine, tokens, frac));
                    for _ in 0..2 {
                        let priced = bits(table.price(&ex, engine, tokens, frac));
                        assert_eq!(priced, fresh, "{}: {tokens} tokens", system.name);
                    }
                }
            }
        }
    }

    #[test]
    fn executor_accumulates_totals() {
        let mut ex = SystemExecutor::new(SystemConfig::gpu(4, 1), ModelConfig::mixtral_8x7b(), 1);
        let shape = decode_stage(8, 256);
        let c1 = ex.stage_cost(&shape);
        ex.execute(&shape);
        ex.execute(&shape);
        assert_eq!(ex.stages_executed(), 2);
        assert!(ex.total_cost().seconds > 1.5 * c1.seconds);
        ex.reset_totals();
        assert_eq!(ex.stages_executed(), 0);
        assert_eq!(ex.total_cost().seconds, 0.0);
    }

    /// Drive `inc` through a delta trace while pricing each stage's
    /// materialized shape on `oracle` via the reference path, asserting
    /// cost equality stage by stage. Returns the number of stages.
    fn assert_trace_matches_reference(
        system: SystemConfig,
        model: ModelConfig,
        trace: &[(Vec<u64>, Vec<u64>)], // (admits, retires) per stage
    ) {
        let mut inc = SystemExecutor::new(system.clone(), model.clone(), 1);
        let mut oracle = SystemExecutor::new(system.clone(), model, 1);
        let mut mirror: Vec<u64> = Vec::new();
        let mut pending: Vec<u64> = Vec::new();
        for (stage, (admits, retires)) in trace.iter().enumerate() {
            let delta = duplex_sched::StageDelta {
                fresh: stage == 0,
                admit: admits.clone(),
                admit_ctx: Vec::new(),
                chunk: Vec::new(),
                retire: retires.clone(),
            };
            for c in &mut mirror {
                *c += 1;
            }
            mirror.extend(pending.drain(..).map(|p| p + 1));
            for r in retires {
                let pos = mirror.iter().position(|c| c == r).expect("retire present");
                mirror.swap_remove(pos);
            }
            pending.extend_from_slice(admits);
            let shape = StageShape::mixed(&mirror, admits);
            let a = inc.stage_cost_delta(&delta);
            let b = oracle.stage_cost_reference(&shape);
            assert_costs_close(&a, &b, &format!("{} stage {stage}", system.name));
        }
    }

    /// A deterministic admit/decode/retire lifecycle exercising fresh
    /// start, prefill flush, pure advances, retirements (template
    /// rebuild) and re-admission.
    fn lifecycle_trace() -> Vec<(Vec<u64>, Vec<u64>)> {
        let mut trace: Vec<(Vec<u64>, Vec<u64>)> = Vec::new();
        trace.push((vec![512; 16], vec![])); // wave 1 prefills
        for _ in 0..6 {
            trace.push((vec![], vec![]));
        }
        // Four requests retire (ctx = 512 + 7 stages of decode), two
        // new ones are admitted in the same stage.
        trace.push((vec![256, 1024], vec![519, 519, 519, 519]));
        for _ in 0..3 {
            trace.push((vec![], vec![]));
        }
        // One of the latecomers retires, then pure decode to the end.
        trace.push((vec![], vec![1024 + 4]));
        for _ in 0..4 {
            trace.push((vec![], vec![]));
        }
        trace
    }

    #[test]
    fn delta_trace_matches_reference_on_every_system() {
        let model = ModelConfig::mixtral_8x7b();
        let trace = lifecycle_trace();
        for system in [
            SystemConfig::gpu(4, 1),
            SystemConfig::duplex(4, 1),
            SystemConfig::duplex_pe(4, 1),
            SystemConfig::duplex_pe_et(4, 1),
            SystemConfig::bank_pim(4, 1),
            SystemConfig::hetero(),
        ] {
            assert_trace_matches_reference(system, model.clone(), &trace);
        }
    }

    #[test]
    fn delta_trace_matches_reference_across_nodes_and_models() {
        assert_trace_matches_reference(
            SystemConfig::duplex_pe_et(8, 2),
            ModelConfig::grok1(),
            &lifecycle_trace(),
        );
        assert_trace_matches_reference(
            SystemConfig::duplex_pe_et(8, 1),
            ModelConfig::glam(),
            &lifecycle_trace(),
        );
        // Dense models exercise the no-MoE constants.
        assert_trace_matches_reference(
            SystemConfig::duplex(4, 1),
            ModelConfig::llama3_70b(),
            &lifecycle_trace(),
        );
    }

    #[test]
    fn prefill_with_past_matches_reference() {
        let model = ModelConfig::mixtral_8x7b();
        let mut with_hold = StageShape::with_past(&[512; 9], &[(256, 768), (256, 768), (64, 0)]);
        with_hold.push_prefill(128, 384, true); // an intermediate chunk
        let shapes = [
            StageShape::with_past(&[100, 200, 100], &[(256, 768)]),
            with_hold,
            StageShape::with_past(&[], &[(128, 0), (128, 512), (128, 512)]),
        ];
        for system in [
            SystemConfig::gpu(4, 1),
            SystemConfig::duplex(4, 1),
            SystemConfig::duplex_pe(4, 1),
            SystemConfig::duplex_pe_et(4, 1),
            SystemConfig::bank_pim(4, 1),
            SystemConfig::hetero(),
        ] {
            for shape in &shapes {
                let mut fast = SystemExecutor::new(system.clone(), model.clone(), 1);
                let mut naive = SystemExecutor::new(system.clone(), model.clone(), 1);
                let a = fast.stage_cost(shape);
                let b = naive.stage_cost_reference(shape);
                assert_costs_close(&a, &b, &format!("{} / {:?}", system.name, shape));
            }
        }
    }

    #[test]
    fn resident_past_is_charged() {
        // The tentpole fix: a reused turn's suffix prefill must pay for
        // its cross-attention over the resident history.
        let model = ModelConfig::mixtral_8x7b();
        let mut ex = SystemExecutor::new(SystemConfig::duplex_pe_et(4, 1), model, 1);
        let fresh = ex.stage_cost(&StageShape::with_past(&[512; 31], &[(256, 0)]));
        let reused = ex.stage_cost(&StageShape::with_past(&[512; 31], &[(256, 4096)]));
        assert!(
            reused.time.attn_prefill > 1.5 * fresh.time.attn_prefill,
            "past 4096 vs 0: {} vs {}",
            reused.time.attn_prefill,
            fresh.time.attn_prefill
        );
        // Everything except prefill attention is identical: the past
        // adds no FC/MoE tokens and no KV writes.
        assert!((reused.time.fc - fresh.time.fc).abs() < 1e-15);
        assert!((reused.time.moe - fresh.time.moe).abs() < 1e-15);
    }

    #[test]
    fn chunked_delta_trace_matches_reference() {
        // A long prompt prefilled in three chunks while a decode cohort
        // advances, followed by a fresh admission and pure decodes. The
        // delta stream must price every stage exactly as the reference
        // path prices the materialized shapes.
        let model = ModelConfig::mixtral_8x7b();
        let mk_delta = || duplex_sched::StageDelta::start();
        for system in [
            SystemConfig::gpu(4, 1),
            SystemConfig::duplex_pe_et(4, 1),
            SystemConfig::hetero(),
        ] {
            let mut inc = SystemExecutor::new(system.clone(), model.clone(), 1);
            let mut oracle = SystemExecutor::new(system.clone(), model.clone(), 1);

            // Stage 0: fresh cohort of 8 decodes-to-be (prompt 64).
            let mut delta = mk_delta();
            delta.admit = vec![64; 8];
            let mut shape = StageShape::mixed(&[], &[64; 8]);
            let a = inc.stage_cost_delta(&delta);
            let b = oracle.stage_cost_reference(&shape);
            assert_costs_close(&a, &b, &format!("{} stage 0", system.name));

            // Stages 1-2: decode + intermediate chunks of a 640-token
            // prompt (256, 256, then the final 128).
            delta.clear();
            delta.chunk.push((256, 0));
            shape = StageShape::decode_only(&[65; 8]);
            shape.push_prefill(256, 0, true);
            let a = inc.stage_cost_delta(&delta);
            let b = oracle.stage_cost_reference(&shape);
            assert_costs_close(&a, &b, &format!("{} stage 1", system.name));

            delta.clear();
            delta.chunk.push((256, 256));
            shape = StageShape::decode_only(&[66; 8]);
            shape.push_prefill(256, 256, true);
            let a = inc.stage_cost_delta(&delta);
            let b = oracle.stage_cost_reference(&shape);
            assert_costs_close(&a, &b, &format!("{} stage 2", system.name));

            // Stage 3: the final slice joins (admit 128 over past 512).
            delta.clear();
            delta.admit.push(128);
            delta.admit_ctx.push(640);
            shape = StageShape::decode_only(&[67; 8]);
            shape.push_prefill(128, 512, false);
            let a = inc.stage_cost_delta(&delta);
            let b = oracle.stage_cost_reference(&shape);
            assert_costs_close(&a, &b, &format!("{} stage 3", system.name));

            // Stages 4-6: pure decodes; the chunked request decodes at
            // its full 641-token context.
            delta.clear();
            for s in 0..3u64 {
                let mut ctx = vec![68 + s; 8];
                ctx.push(641 + s);
                let shape = StageShape::decode_only(&ctx);
                let a = inc.stage_cost_delta(&delta);
                let b = oracle.stage_cost_reference(&shape);
                assert_costs_close(&a, &b, &format!("{} stage {}", system.name, 4 + s));
            }
        }
    }

    fn assert_same_bits(a: &StageCost, b: &StageCost, what: &str) {
        let fields = |c: &StageCost| {
            [
                c.seconds,
                c.time.fc,
                c.time.attn_prefill,
                c.time.attn_decode,
                c.time.moe,
                c.time.comm,
                c.energy.fc_dram,
                c.energy.fc_comp,
                c.energy.attn_dram,
                c.energy.attn_comp,
                c.energy.moe_dram,
                c.energy.moe_comp,
            ]
            .map(f64::to_bits)
        };
        assert_eq!(fields(a), fields(b), "{what}: {a:?} vs {b:?}");
    }

    #[test]
    fn carried_mixed_stages_match_the_full_path_bit_for_bit() {
        // Admissions with and without resident past (one of 200k
        // tokens), held chunks, retirements alongside joins and an
        // emptied batch: every stage the template does not price must
        // cost exactly what a fresh grouped full path charges for the
        // materialized shape. Every admitting stage also forces the
        // carried path's price caches to collide: prompts one decode
        // cache size apart decode in one slot for the rest of their
        // lives, and admissions and a held chunk share a prefill slot.
        let prefill_slot =
            |len: u64, past: u64| (len, past).slot_hash() as usize % PREFILL_PRICE_SLOTS;
        let cases = [
            (SystemConfig::gpu(4, 1), ModelConfig::mixtral_8x7b()),
            (SystemConfig::duplex(4, 1), ModelConfig::mixtral_8x7b()),
            (SystemConfig::duplex_pe(4, 1), ModelConfig::mixtral_8x7b()),
            (
                SystemConfig::duplex_pe_et(4, 1),
                ModelConfig::mixtral_8x7b(),
            ),
            (SystemConfig::bank_pim(4, 1), ModelConfig::mixtral_8x7b()),
            (SystemConfig::hetero(), ModelConfig::mixtral_8x7b()),
            (
                SystemConfig::duplex_pe_et(4, 2),
                ModelConfig::mixtral_8x7b(),
            ),
            (SystemConfig::duplex_pe_et(8, 2), ModelConfig::grok1()),
            (SystemConfig::duplex(4, 1), ModelConfig::llama3_70b()),
        ];
        for (system, model) in cases {
            let mut carried = SystemExecutor::new(system.clone(), model.clone(), 1);
            let mut seed = 0x2545_F491_4F6C_DD1Du64;
            let mut draw = |n: u64| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed % n
            };
            let (mut mirror, mut pending): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
            let mut delta = duplex_sched::StageDelta::start();
            let (mut mixed_stages, mut decode_collisions) = (0, 0);
            for stage in 0..80 {
                for c in &mut mirror {
                    *c += 1;
                }
                mirror.extend(pending.drain(..).map(|p| p + 1));
                if stage == 40 {
                    // Retire everyone: the next stages start from empty.
                    delta.retire.append(&mut mirror);
                }
                for _ in 0..draw(3).min(mirror.len() as u64) {
                    let i = draw(mirror.len() as u64) as usize;
                    delta.retire.push(mirror.swap_remove(i));
                }
                if stage % 3 != 1 {
                    let reuse = stage == 5 || draw(2) == 0;
                    for _ in 0..1 + draw(5) {
                        let len = 1 + draw(300);
                        delta.admit.push(len);
                        if reuse {
                            delta.admit_ctx.push(len + draw(2) * draw(900));
                        }
                    }
                    if stage == 5 {
                        delta.admit.push(64);
                        delta.admit_ctx.push(200_000);
                    }
                    let len = 1 + draw(300);
                    for l in [
                        len,
                        len + DECODE_PRICE_SLOTS as u64,
                        len + PREFILL_PRICE_SLOTS as u64,
                    ] {
                        delta.admit.push(l);
                        if reuse {
                            delta.admit_ctx.push(l);
                        }
                    }
                    let chunk_len = 1 + draw(300);
                    let past = (draw(900)..)
                        .find(|&p| prefill_slot(chunk_len, p) == prefill_slot(len, 0))
                        .expect("every slot is reachable");
                    delta.chunk.push((chunk_len, past));
                }
                if stage % 4 == 2 {
                    delta.chunk.push((1 + draw(256), draw(700)));
                }
                pending.extend_from_slice(delta.join_contexts());
                let mut shape = StageShape::decode_only(&mirror);
                for (i, &len) in delta.admit.iter().enumerate() {
                    shape.push_prefill(len, delta.admit_past(i), false);
                }
                for &(len, past) in &delta.chunk {
                    shape.push_prefill(len, past, true);
                }
                if mirror
                    .iter()
                    .any(|c| mirror.contains(&(c + DECODE_PRICE_SLOTS as u64)))
                {
                    decode_collisions += 1;
                }
                let a = carried.stage_cost_delta(&delta);
                let b = SystemExecutor::new(system.clone(), model.clone(), 1).stage_cost(&shape);
                if shape.is_mixed() || mirror.is_empty() {
                    mixed_stages += 1;
                    assert_same_bits(&a, &b, &format!("{} stage {stage}", system.name));
                } else {
                    assert_costs_close(&a, &b, &format!("{} stage {stage}", system.name));
                }
                delta.clear();
            }
            assert!(mixed_stages > 50, "{}: {mixed_stages} mixed", system.name);
            assert!(
                decode_collisions > 40,
                "{}: {decode_collisions} stages decode in a shared slot",
                system.name
            );
        }
    }

    #[test]
    fn sampled_routing_disables_the_incremental_path_correctly() {
        // With a skewed (sampled) router, histograms are per-stage
        // draws: the delta path must fall back to the full path and
        // still track the same RNG stream as a shape-driven executor.
        let model = ModelConfig::mixtral_8x7b();
        let mut inc = SystemExecutor::new(SystemConfig::duplex_pe(4, 1), model.clone(), 9);
        let mut oracle = SystemExecutor::new(SystemConfig::duplex_pe(4, 1), model, 9);
        inc.set_expert_skew(1.0);
        oracle.set_expert_skew(1.0);
        let mut delta = duplex_sched::StageDelta::start();
        delta.admit = vec![128; 8];
        let shapes = [
            StageShape::mixed(&[], &[128; 8]),
            StageShape::decode_only(&[129; 8]),
            StageShape::decode_only(&[130; 8]),
        ];
        let a0 = inc.stage_cost_delta(&delta);
        let b0 = oracle.stage_cost(&shapes[0]);
        assert_costs_close(&a0, &b0, "sampled stage 0");
        delta.clear();
        for (i, shape) in shapes.iter().enumerate().skip(1) {
            let a = inc.stage_cost_delta(&delta);
            let b = oracle.stage_cost(shape);
            assert_costs_close(&a, &b, &format!("sampled stage {i}"));
        }
    }

    #[test]
    fn execute_delta_resyncs_after_direct_execute() {
        let model = ModelConfig::mixtral_8x7b();
        let system = SystemConfig::duplex_pe_et(4, 1);
        let mut ex = SystemExecutor::new(system.clone(), model.clone(), 1);
        let mut oracle = SystemExecutor::new(system, model, 1);

        // Start a delta trace, then interrupt it with a direct execute.
        let mut delta = duplex_sched::StageDelta::start();
        delta.admit = vec![256; 4];
        ex.execute_delta(&delta, &StageShape::mixed(&[], &[256; 4]));
        ex.execute(&StageShape::decode_only(&[99; 7])); // desyncs

        // Resume the trace mid-stream: execute_delta resyncs from the
        // shape it is handed and keeps pricing correctly.
        delta.clear();
        let shape = StageShape::decode_only(&[300, 400, 500]);
        let out = ex.execute_delta(&delta, &shape);
        let want = oracle.stage_cost_reference(&shape);
        assert!((out.seconds - want.seconds).abs() / want.seconds < 1e-9);

        // Subsequent pure advances price incrementally off the resynced
        // state.
        let next = StageShape::decode_only(&[301, 401, 501]);
        let out = ex.execute_delta(&delta, &next);
        let want = oracle.stage_cost_reference(&next);
        assert!((out.seconds - want.seconds).abs() / want.seconds < 1e-9);
    }

    #[test]
    fn pure_advance_branch_matches_the_out_of_line_path() {
        // `fast` runs every stage through `execute_delta`, whose pure
        // advances take the inline template branch; `oracle` prices the
        // same deltas through `stage_cost_delta`, the general path;
        // `probe` runs `execute_delta` from zeroed totals, so its total
        // is each stage's `StageCost`. Costs compare by their `Debug`
        // text, which round-trips every f64 bit.
        struct Stage {
            fresh: bool,
            admit: Vec<u64>,
            /// How many decodes retire; `usize::MAX` retires them all.
            retire: usize,
            /// Export `fast`'s batch and import it everywhere first.
            import: bool,
        }
        let stage = |fresh, admit: &[u64], retire, import| Stage {
            fresh,
            admit: admit.to_vec(),
            retire,
            import,
        };
        let advances = |plan: &mut Vec<Stage>, n| {
            for _ in 0..n {
                plan.push(stage(false, &[], 0, false));
            }
        };
        let mut plan = vec![stage(true, &[512, 512, 512, 100, 100, 100, 7], 0, false)];
        advances(&mut plan, 6);
        plan.push(stage(false, &[256], 3, false));
        advances(&mut plan, 5);
        // Retire to empty while two prompts prefill.
        plan.push(stage(false, &[64, 64], usize::MAX, false));
        advances(&mut plan, 5);
        // A fresh restart mid-trace (a crashed replica's first stage).
        plan.push(stage(true, &[300; 5], 0, false));
        advances(&mut plan, 5);
        // A snapshot import between two pure advances drops the
        // template: the next stage must rebuild it, not advance it.
        plan.push(stage(false, &[], 0, true));
        advances(&mut plan, 5);
        plan.push(stage(false, &[], 2, false));
        advances(&mut plan, 4);

        let cases = [
            (SystemConfig::gpu(4, 1), ModelConfig::mixtral_8x7b()),
            (SystemConfig::duplex(4, 1), ModelConfig::mixtral_8x7b()),
            (SystemConfig::duplex_pe(4, 1), ModelConfig::mixtral_8x7b()),
            (
                SystemConfig::duplex_pe_et(4, 1),
                ModelConfig::mixtral_8x7b(),
            ),
            (SystemConfig::bank_pim(4, 1), ModelConfig::mixtral_8x7b()),
            (SystemConfig::hetero(), ModelConfig::mixtral_8x7b()),
            (
                SystemConfig::duplex_pe_et(4, 2),
                ModelConfig::mixtral_8x7b(),
            ),
            (SystemConfig::duplex_pe_et(8, 2), ModelConfig::grok1()),
            (SystemConfig::duplex(4, 1), ModelConfig::llama3_70b()),
        ];
        for (system, model) in cases {
            for mode in [RoutingMode::Expected, RoutingMode::Sampled] {
                let new = || {
                    let mut ex = SystemExecutor::new(system.clone(), model.clone(), 1);
                    ex.router = ex.router.clone().with_mode(mode);
                    ex
                };
                let (mut fast, mut probe, mut oracle) = (new(), new(), new());
                let mut tracker = BatchState::default();
                let (mut mirror, mut joins) = (Vec::<u64>::new(), Vec::<u64>::new());
                let mut shape = StageShape::default();
                let mut sum = StageCost::default();
                let mut inline = 0;
                for (i, s) in plan.iter().enumerate() {
                    let name = format!("{} / {mode:?} / stage {i}", system.name);
                    if s.import {
                        let cp = fast.export_batch().expect("carried state");
                        for ex in [&mut fast, &mut probe, &mut oracle] {
                            ex.import_batch(&cp);
                        }
                        tracker.restore(&cp.decode_groups, &cp.pending_joins);
                    }
                    if s.fresh {
                        mirror.clear();
                        joins.clear();
                    }
                    for c in &mut mirror {
                        *c += 1;
                    }
                    mirror.extend(joins.drain(..).map(|j| j + 1));
                    let retire = if s.retire == usize::MAX {
                        std::mem::take(&mut mirror)
                    } else {
                        mirror.drain(..s.retire).collect()
                    };
                    joins.extend_from_slice(&s.admit);
                    let delta = duplex_sched::StageDelta {
                        fresh: s.fresh,
                        admit: s.admit.clone(),
                        admit_ctx: Vec::new(),
                        chunk: Vec::new(),
                        retire,
                    };
                    if delta.is_pure_advance() && fast.template.is_some() && fast.batch.no_joins() {
                        inline += 1;
                    }
                    tracker.apply(&delta);
                    tracker.fill_shape(&mut shape, &delta);
                    let out = fast.execute_delta(&delta, &shape);
                    probe.reset_totals();
                    probe.execute_delta(&delta, &shape);
                    let want = oracle.stage_cost_delta(&delta);
                    assert_eq!(
                        format!("{:?}", probe.total_cost()),
                        format!("{want:?}"),
                        "{name}"
                    );
                    assert_eq!(out.seconds.to_bits(), want.seconds.to_bits(), "{name}");
                    sum += want;
                }
                let name = format!("{} / {mode:?}", system.name);
                assert_eq!(
                    format!("{:?}", fast.total_cost()),
                    format!("{sum:?}"),
                    "{name}"
                );
                assert_eq!(fast.stages_executed(), plan.len(), "{name}");
                // Sampled routing never builds a template, so never
                // takes the branch; expected routing takes it on every
                // pure advance but the first after a membership change.
                let want_inline = if mode == RoutingMode::Expected { 26 } else { 0 };
                assert_eq!(inline, want_inline, "{name}");
            }
        }
    }

    #[test]
    fn pure_advance_branch_defers_to_pending_joins() {
        // A template is a function of the groups alone, so it stays
        // valid across a restore of the same groups with joins pending.
        // The inline branch must still leave that stage to the general
        // path, which flushes the joins into the batch.
        let model = ModelConfig::mixtral_8x7b();
        let system = SystemConfig::duplex_pe_et(4, 1);
        let mut ex = SystemExecutor::new(system.clone(), model.clone(), 1);
        let mut oracle = SystemExecutor::new(system, model, 1);
        let mut tracker = BatchState::default();
        let mut shape = StageShape::default();
        let mut delta = duplex_sched::StageDelta::start();
        delta.admit = vec![128; 4];
        for _ in 0..4 {
            tracker.apply(&delta);
            tracker.fill_shape(&mut shape, &delta);
            ex.execute_delta(&delta, &shape);
            oracle.stage_cost_delta(&delta);
            delta.clear();
        }
        let mut cp = ex.export_batch().expect("carried state");
        cp.pending_joins.push(300);
        let template = ex.template.take();
        assert!(template.is_some());
        ex.import_batch(&cp);
        ex.template = template;
        oracle.import_batch(&cp);
        tracker.restore(&cp.decode_groups, &cp.pending_joins);
        tracker.apply(&delta);
        tracker.fill_shape(&mut shape, &delta);
        let out = ex.execute_delta(&delta, &shape);
        let want = oracle.stage_cost_delta(&delta);
        assert_eq!(out.seconds.to_bits(), want.seconds.to_bits());
        assert_eq!(ex.batch.reqs(), 5, "the join landed");
    }

    #[test]
    fn long_advance_runs_stay_consistent() {
        // 500 pure-advance stages: the O(1) path must track the oracle
        // without drift (aggregates are integers, coefficients fixed).
        let model = ModelConfig::mixtral_8x7b();
        let mut inc = SystemExecutor::new(SystemConfig::duplex_pe_et(4, 1), model.clone(), 1);
        let mut oracle = SystemExecutor::new(SystemConfig::duplex_pe_et(4, 1), model, 1);
        let mut delta = duplex_sched::StageDelta::start();
        delta.admit = vec![64; 32];
        inc.stage_cost_delta(&delta);
        delta.clear();
        for s in 0..500u64 {
            let a = inc.stage_cost_delta(&delta);
            if s % 97 == 0 || s == 499 {
                let shape = StageShape::decode_only(&vec![65 + s; 32]);
                let b = oracle.stage_cost_reference(&shape);
                assert_costs_close(&a, &b, &format!("advance stage {s}"));
            }
        }
    }

    #[test]
    fn grok_two_nodes_pay_communication() {
        let model = ModelConfig::grok1();
        let mut ex = SystemExecutor::new(SystemConfig::duplex_pe_et(8, 2), model, 1);
        let c = ex.stage_cost(&decode_stage(64, 1024));
        assert!(c.time.comm > 0.0);
        // Communication should be visible but not dominant on decode.
        assert!(c.time.comm < c.seconds * 0.5);
    }
}
