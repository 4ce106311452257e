//! Incremental batch-state pricing: the executor-side state machine
//! behind [`crate::SystemExecutor`]'s `stage_cost_delta` path.
//!
//! Continuous-batching traces change little between stages: every
//! active context advances one token, plus a few admissions and
//! retirements. [`BatchState`] carries the sorted run-length-encoded
//! decode groups ([`duplex_model::ops::ContextGroups`]) across stages
//! under those [`StageDelta`] events in O(changes) — a uniform +1
//! preserves the sort order, so *advance* is O(1).
//!
//! # Why a pure-decode stage prices in O(1)
//!
//! For a decoding-only stage, every cost class is a simple function of
//! the batch aggregates:
//!
//! * **Decode attention** is *exactly linear in context*: the per-group
//!   KV bytes are `ctx * kv_unit_dev` with no rounding (the u64
//!   division by `groups` cancels against the factor of `groups` inside
//!   `kv_unit`), and both sides of the roofline `max` scale by `ctx`,
//!   so the branch is context-independent. A node's attention time is
//!   therefore `sec_per_ctx * Σctx_node + const`, where the constant
//!   covers the KV-append stream and per-layer launch overheads —
//!   both functions of the node's request *count* only.
//! * **FC, MoE and communication** depend only on the representative
//!   node's token count (= its request count) and the stage's total
//!   token count (= batch size) — MoE because expected-value routing
//!   makes the expert histogram a pure function of the token count
//!   (Mixtral of Experts: FC/MoE cost is context-free). These constants
//!   are memoized per `(node tokens, batch)` in the executor.
//!
//! [`DecodeTemplate`] caches those coefficients; between membership
//! changes each stage costs one `advance` (O(nodes) adds) and one
//! `price` (O(nodes) multiplies). When a stage is a pure advance and
//! no joins are pending, [`BatchState::apply`] would only advance the
//! groups, so the executor's inline branch calls `BatchState::advance`
//! and the template directly. Any admission, retirement or resync
//! invalidates the template, and the executor rebuilds it from the
//! carried groups (in O(1) on a single node, where the placement is
//! the aggregates themselves).
//!
//! # Mixed stages
//!
//! A stage that prefills is priced from the carried groups as well:
//! the same grouped pricing as the full path, with the decode groups
//! read straight from [`BatchState::groups`] and the MoE cost, the
//! costly constant, memoized on the stage's token count (a mixed
//! stage's full key rarely repeats, but its token count does). The
//! full path sorts and regroups a
//! materialized shape into exactly these groups, so the two agree to
//! the bit; the grouped path's own oracle stays `stage_cost_reference`.
//!
//! The equivalence with the reference path is pinned to 1e-9 relative
//! by `tests/prop_cross_crate.rs` over randomized
//! admit/retire/advance traces, and the carried mixed path's equality
//! with the grouped full path is pinned bit for bit there too.

use duplex_model::count_f64;
use duplex_model::ops::{ContextGroups, StageShape};
use duplex_sched::StageDelta;

use crate::exec::{EnergyBuckets, StageCost, TimeBreakdown};

/// Decode-batch state carried across stages by an incremental executor.
#[derive(Debug, Clone, Default)]
pub struct BatchState {
    groups: ContextGroups,
    /// Decode-join contexts admitted by the previous delta (the prompt
    /// length, or the full history under prefix reuse); they join the
    /// decode set at `join + 1` on the next advance.
    pending: Vec<u64>,
    /// False until a fresh delta (or a resync) establishes the state.
    synced: bool,
}

impl BatchState {
    /// Whether the state reflects the full delta history of the current
    /// trace.
    pub fn is_synced(&self) -> bool {
        self.synced
    }

    /// Mark the state stale (a stage was executed without a delta).
    pub fn desync(&mut self) {
        self.synced = false;
    }

    /// Requests currently decoding.
    pub fn reqs(&self) -> u64 {
        self.groups.reqs()
    }

    /// Σ of all decode contexts.
    pub fn ctx_sum(&self) -> u64 {
        self.groups.ctx_sum()
    }

    /// The run-length-encoded decode groups.
    pub fn groups(&self) -> &ContextGroups {
        &self.groups
    }

    /// Whether no admitted request waits to join the decode set on the
    /// next advance.
    pub(crate) fn no_joins(&self) -> bool {
        self.pending.is_empty()
    }

    /// Advance every context by one token: what [`Self::apply`] does
    /// with a pure-advance delta on a synced state with no joins
    /// pending, minus the checks.
    pub(crate) fn advance(&mut self) {
        debug_assert!(self.synced && self.pending.is_empty());
        self.groups.advance();
    }

    /// Apply one stage delta (see [`duplex_sched::delta`] for the event
    /// order). Returns true when the decode membership changed relative
    /// to the previous stage — i.e. any cached per-stage template must
    /// be rebuilt rather than advanced.
    ///
    /// # Panics
    ///
    /// Panics if the state is out of sync and the delta is not fresh.
    pub fn apply(&mut self, delta: &StageDelta) -> bool {
        if delta.fresh {
            self.groups.clear();
            self.pending.clear();
            self.synced = true;
        }
        assert!(
            self.synced,
            "stage delta applied to a desynced batch state; start the trace with \
             StageDelta::start() or drive the executor through execute_delta"
        );
        let changed = delta.fresh || !self.pending.is_empty() || !delta.retire.is_empty();
        self.groups.advance();
        for p in self.pending.drain(..) {
            self.groups.insert(p + 1);
        }
        for &ctx in &delta.retire {
            // A missed removal would silently corrupt the aggregates
            // (and every later stage's price), so fail loudly even in
            // release builds — retirements are rare, the check is free.
            assert!(
                self.groups.remove(ctx),
                "retired context {ctx} not present in the batch state"
            );
        }
        self.pending.extend_from_slice(delta.join_contexts());
        changed
    }

    /// Resync from a materialized stage shape (the shape is ground
    /// truth for the stage being executed: its prefills are this
    /// stage's admissions). Sampling prefills join decode at
    /// `len + past` (the shape's `prefill_past` carries any resident
    /// history); held chunks never join — their prompt's final slice
    /// will arrive as a later admission, so schedulers that chunk must
    /// keep the delta stream unbroken instead of relying on shape
    /// resync mid-prompt.
    pub fn rebuild_from(&mut self, shape: &StageShape) {
        self.groups.clear();
        for &ctx in &shape.decode_ctx {
            self.groups.insert(ctx);
        }
        self.pending.clear();
        for (i, &len) in shape.prefill_len.iter().enumerate() {
            if shape.prefill_samples(i) {
                self.pending.push(len + shape.prefill_past_of(i));
            }
        }
        self.synced = true;
    }

    /// Materialize the current stage's shape: the carried decode groups
    /// plus the delta's admissions (with their reuse past) and held
    /// prefill chunks.
    pub fn fill_shape(&self, shape: &mut StageShape, delta: &StageDelta) {
        self.groups.fill_decode_ctx(&mut shape.decode_ctx);
        shape.clear_prefills();
        for (i, &len) in delta.admit.iter().enumerate() {
            shape.push_prefill(len, delta.admit_past(i), false);
        }
        for &(len, past) in &delta.chunk {
            shape.push_prefill(len, past, true);
        }
    }

    /// Export the batch's dynamic state for snapshotting: the decode
    /// groups as `(ctx, reqs)` run-length pairs (ascending context,
    /// absolute values) plus the pending decode-join contexts.
    pub fn export(&self) -> (Vec<(u64, u64)>, Vec<u64>) {
        (self.groups.iter().collect(), self.pending.clone())
    }

    /// Rebuild the batch state from an [`export`](Self::export).
    /// `ContextGroups::insert` merges into canonical ascending RLE
    /// form with a zero offset, so a restored state prices stages
    /// bit-identically to the original regardless of how many
    /// `advance` calls the original had accumulated.
    pub fn restore(&mut self, groups: &[(u64, u64)], pending: &[u64]) {
        self.groups.clear();
        for &(ctx, reqs) in groups {
            for _ in 0..reqs {
                self.groups.insert(ctx);
            }
        }
        self.pending.clear();
        self.pending.extend_from_slice(pending);
        self.synced = true;
    }

    /// Per-node request counts and context sums under the executor's
    /// round-robin data-parallel placement (groups in ascending context
    /// order, a rotating cursor spreading each group's requests) —
    /// exactly the per-node totals the grouped full path computes.
    pub fn node_placement(&self, nodes: usize, counts: &mut Vec<u64>, sums: &mut Vec<u64>) {
        counts.clear();
        sums.clear();
        if nodes == 1 {
            // Everything lands on the one node: the aggregates are exact.
            counts.push(self.reqs());
            sums.push(self.ctx_sum());
            return;
        }
        counts.resize(nodes, 0);
        sums.resize(nodes, 0);
        let nodes_u = nodes as u64;
        let mut cursor = 0u64;
        for (ctx, reqs) in self.groups.iter() {
            for (n, (count, sum)) in counts.iter_mut().zip(sums.iter_mut()).enumerate() {
                let cnt = round_robin_share(n as u64, nodes_u, cursor, reqs);
                *count += cnt;
                *sum += ctx * cnt;
            }
            cursor += reqs;
        }
    }
}

/// How many of `reqs` requests, placed one by one round-robin over
/// `nodes` data-parallel nodes starting where request number `cursor`
/// would land, end up on node `n`.
#[inline]
pub(crate) fn round_robin_share(n: u64, nodes: u64, cursor: u64, reqs: u64) -> u64 {
    if nodes == 1 {
        return reqs;
    }
    let offset = (n + nodes - cursor % nodes) % nodes;
    reqs / nodes + u64::from(offset < reqs % nodes)
}

/// Cached linear pricing of a decode-only batch: rebuild on membership
/// change, then each stage is one `advance` plus one `price` (both
/// crate-internal). See the [module docs](self) for why the
/// decomposition is exact.
#[derive(Debug, Clone, Default)]
pub struct DecodeTemplate {
    /// Requests per data-parallel node (fixed between rebuilds).
    pub(crate) node_count: Vec<u64>,
    /// Σctx per node (advances by `node_count` each stage).
    pub(crate) node_sumctx: Vec<u64>,
    /// Per-node constant seconds: KV-append stream + launch overheads.
    pub(crate) node_const_s: Vec<f64>,
    pub(crate) total_count: u64,
    pub(crate) total_sumctx: u64,
    /// Decode-attention seconds per unit of context (per node).
    pub(crate) sec_per_ctx: f64,
    /// Attention DRAM / compute joules per unit of total Σctx, already
    /// scaled by the attention tensor-parallel degree.
    pub(crate) attn_dram_j_per_ctx: f64,
    pub(crate) attn_comp_j_per_ctx: f64,
    /// FC + MoE + comm times (attention filled per stage).
    pub(crate) base_time: TimeBreakdown,
    /// FC + MoE + KV-append energies (per-ctx attention energy added
    /// per stage).
    pub(crate) base_energy: EnergyBuckets,
}

impl DecodeTemplate {
    /// Advance every context by one token.
    #[inline]
    pub(crate) fn advance(&mut self) {
        for (sum, count) in self.node_sumctx.iter_mut().zip(&self.node_count) {
            *sum += *count;
        }
        self.total_sumctx += self.total_count;
    }

    /// Price the stage at the template's current Σctx.
    #[inline]
    pub(crate) fn price(&self) -> StageCost {
        let mut dec = 0.0f64;
        for (&sum, &konst) in self.node_sumctx.iter().zip(&self.node_const_s) {
            dec = dec.max(self.sec_per_ctx * count_f64(sum) + konst);
        }
        let mut time = self.base_time;
        time.attn_decode = dec;
        let mut energy = self.base_energy;
        let s = count_f64(self.total_sumctx);
        energy.attn_dram += self.attn_dram_j_per_ctx * s;
        energy.attn_comp += self.attn_comp_j_per_ctx * s;
        // Decode-only: prefill attention is zero, so the co-processing
        // overlap and the serialized sum coincide.
        let seconds = time.fc + dec + time.moe + time.comm;
        StageCost {
            seconds,
            time,
            energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(fresh: bool, admit: &[u64], retire: &[u64]) -> StageDelta {
        StageDelta {
            fresh,
            admit: admit.to_vec(),
            admit_ctx: Vec::new(),
            chunk: Vec::new(),
            retire: retire.to_vec(),
        }
    }

    #[test]
    fn apply_tracks_the_scheduler_lifecycle() {
        let mut b = BatchState::default();
        // Stage 1: admit two prompts of 100.
        assert!(b.apply(&delta(true, &[100, 100], &[])));
        assert_eq!(b.reqs(), 0, "prefills join the decode set next stage");
        // Stage 2: pure advance — the prefills land at ctx 101.
        assert!(
            b.apply(&delta(false, &[], &[])),
            "flushed prefills change membership"
        );
        assert_eq!(b.reqs(), 2);
        assert_eq!(b.ctx_sum(), 202);
        // Stage 3: advance only.
        assert!(!b.apply(&delta(false, &[], &[])));
        assert_eq!(b.ctx_sum(), 204);
        // Stage 4: one retires at its post-advance context 103.
        assert!(b.apply(&delta(false, &[], &[103])));
        assert_eq!(b.reqs(), 1);
        assert_eq!(b.ctx_sum(), 103);
    }

    #[test]
    fn reuse_admissions_join_at_full_history() {
        // A follow-up with 448 resident tokens prefills only 64 new
        // ones but joins the decode set over its full 512-token history.
        let mut b = BatchState::default();
        let mut d = delta(true, &[64], &[]);
        d.admit_ctx = vec![512];
        b.apply(&d);
        assert!(b.apply(&delta(false, &[], &[])));
        assert_eq!(b.reqs(), 1);
        assert_eq!(b.ctx_sum(), 513);
        // It retires at its post-advance full context, not the prefill.
        assert!(b.apply(&delta(false, &[], &[514])));
        assert_eq!(b.reqs(), 0);
    }

    #[test]
    fn fresh_delta_resets_leftover_state() {
        let mut b = BatchState::default();
        b.apply(&delta(true, &[50], &[]));
        b.apply(&delta(false, &[], &[]));
        assert_eq!(b.reqs(), 1);
        b.apply(&delta(true, &[10], &[]));
        assert_eq!(b.reqs(), 0);
        b.apply(&delta(false, &[], &[]));
        assert_eq!(b.ctx_sum(), 11);
    }

    #[test]
    #[should_panic(expected = "desynced")]
    fn desynced_state_rejects_non_fresh_deltas() {
        let mut b = BatchState::default();
        b.apply(&delta(false, &[], &[]));
    }

    #[test]
    fn rebuild_from_shape_resyncs() {
        let mut b = BatchState::default();
        b.desync();
        let shape = StageShape::mixed(&[10, 12, 10], &[99]);
        b.rebuild_from(&shape);
        assert!(b.is_synced());
        assert_eq!(b.reqs(), 3);
        assert_eq!(b.ctx_sum(), 32);
        // The shape's prefills are pending: they flush on the next advance.
        b.apply(&delta(false, &[], &[]));
        assert_eq!(b.reqs(), 4);
        assert_eq!(b.ctx_sum(), 35 + 100);
    }

    #[test]
    fn fill_shape_materializes_sorted_contexts() {
        let mut b = BatchState::default();
        b.apply(&delta(true, &[7, 5, 7], &[]));
        b.apply(&delta(false, &[], &[]));
        let mut shape = StageShape::default();
        let mut d = delta(false, &[256], &[]);
        d.admit_ctx = vec![900];
        d.chunk.push((64, 320));
        b.fill_shape(&mut shape, &d);
        assert_eq!(shape.decode_ctx, vec![6, 8, 8]);
        // The admission carries its reuse past (900 - 256), the held
        // chunk its own (new, past) pair.
        assert_eq!(shape.prefill_len, vec![256, 64]);
        assert_eq!(shape.prefill_past, vec![644, 320]);
        assert_eq!(shape.prefill_hold, vec![false, true]);
    }

    #[test]
    fn export_restore_round_trips_pricing_state() {
        let mut b = BatchState::default();
        let mut d = delta(true, &[64, 100], &[]);
        d.admit_ctx = vec![512, 100];
        b.apply(&d);
        b.apply(&delta(false, &[30], &[]));
        let (groups, pending) = b.export();
        assert_eq!(groups, vec![(101, 1), (513, 1)]);
        assert_eq!(pending, vec![30]);
        let mut r = BatchState::default();
        r.restore(&groups, &pending);
        assert!(r.is_synced());
        assert_eq!(r.export(), (groups, pending));
        // Both advance identically afterwards.
        b.apply(&delta(false, &[], &[]));
        r.apply(&delta(false, &[], &[]));
        assert_eq!(b.export(), r.export());
    }

    #[test]
    fn node_placement_matches_round_robin() {
        let mut b = BatchState::default();
        // Groups (5, x3) and (9, x2): cursor walks 0..3 then 3..5.
        b.rebuild_from(&StageShape::decode_only(&[5, 5, 5, 9, 9]));
        let (mut counts, mut sums) = (Vec::new(), Vec::new());
        b.node_placement(2, &mut counts, &mut sums);
        // Group (5,3): base=1, rem=1, start=0 -> node0: 2, node1: 1.
        // Group (9,2): base=1, rem=0, start=1 -> one request each.
        assert_eq!(counts, vec![3, 2]);
        assert_eq!(sums, vec![2 * 5 + 9, 5 + 9]);
        // Single node: everything lands on node 0.
        b.node_placement(1, &mut counts, &mut sums);
        assert_eq!(counts, vec![5]);
        assert_eq!(sums, vec![33]);
    }

    #[test]
    fn template_advance_tracks_counts() {
        let mut t = DecodeTemplate {
            node_count: vec![3, 2],
            node_sumctx: vec![19, 14],
            node_const_s: vec![0.0, 0.0],
            total_count: 5,
            total_sumctx: 33,
            sec_per_ctx: 1.0,
            ..DecodeTemplate::default()
        };
        t.advance();
        assert_eq!(t.node_sumctx, vec![22, 16]);
        assert_eq!(t.total_sumctx, 38);
        let cost = t.price();
        assert!(
            (cost.time.attn_decode - 22.0).abs() < 1e-12,
            "max node wins"
        );
    }
}
