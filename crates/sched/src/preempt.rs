//! Preemptive scheduling and batch multiplexing.
//!
//! [`crate::ShedBatchTier`] can only *defer* new batch-tier
//! admissions; once a batch-tier decode holds a slot it runs to
//! completion even while interactive prefills queue behind a full
//! batch. This module closes that gap (ROADMAP open item 3) with two
//! cooperating mechanisms, both flowing through the ordinary
//! [`crate::StageDelta`] fast path:
//!
//! * **Preemption** — when interactive work would otherwise wait, the
//!   scheduler pauses batch-tier decodes mid-flight. Each victim is
//!   either **swapped out** (its KV context parks in the replica's
//!   paged pool and is restored later as a priced transfer) or
//!   **recomputed** (the KV is dropped and the full context
//!   re-prefills on resume through the `(new, past)` chunk path) —
//!   whichever the [`PreemptSpec`] cost model says is cheaper at the
//!   victim's current context length. Paused work resumes
//!   deterministically once slots free up; nothing is dropped.
//! * **Multiplexing** — compatible paused batch-tier requests re-enter
//!   as *fractional slots*: a [`MultiplexSpec`] lets up to
//!   [`MultiplexSpec::LANES`] swapped-out requests share one batch slot
//!   (RevMUX-style), each advancing one token per stage at a fixed
//!   quality exchange rate on goodput. One slot's compute now serves
//!   several batch requests, so batch-tier throughput survives
//!   sustained preemption.
//!
//! The decision flow per stage and the interaction with
//! [`crate::ShedBatchTier`] are documented in
//! `docs/scheduling.md`.

use crate::fault::KvLinkSpec;
use crate::policy::{PolicyContext, SchedulingPolicy};
use crate::scenario::PendingRequest;

/// How a preempted victim's KV context is handled while paused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreemptMode {
    /// Choose per victim: swap out when the priced restore beats the
    /// estimated re-prefill, recompute otherwise (the default).
    Auto,
    /// Always swap out (fall back to recompute only when the parked
    /// pool cannot hold the context at all).
    SwapOnly,
    /// Always drop the KV and re-prefill on resume.
    RecomputeOnly,
}

/// Cost model for preemptive scheduling, consumed by the scenario
/// scheduler through [`SchedulingPolicy::preempt_spec`]. Which tiers
/// preempt and which are preempted, and the per-stage victim cap, are
/// fixed: see [`PreemptSpec::VICTIM_PRIORITY`],
/// [`PreemptSpec::URGENT_PRIORITY`] and
/// [`PreemptSpec::MAX_PREEMPTS_PER_STAGE`].
///
/// Construct with [`PreemptSpec::new`] plus `with_*` builders; the
/// struct is `#[non_exhaustive]` so new knobs extend the API without
/// breaking construction sites.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct PreemptSpec {
    /// Batch-occupancy fraction at or above which preemption engages;
    /// below it urgent work just takes a free slot.
    pub utilization_threshold: f64,
    /// The link a swapped-out context is restored over (link transfer
    /// or HBM restream).
    pub swap_link: KvLinkSpec,
    /// Estimated re-prefill throughput, tokens/s: the recompute cost a
    /// swap restore competes with.
    pub recompute_tokens_per_s: f64,
    /// Swap/recompute selection mode.
    pub mode: PreemptMode,
}

impl PreemptSpec {
    /// Default occupancy fraction at which preemption engages.
    pub const DEFAULT_THRESHOLD: f64 = 0.85;
    /// Requests with `priority >= VICTIM_PRIORITY` may be paused
    /// mid-decode (the default tier set's batch tier).
    pub const VICTIM_PRIORITY: u32 = 2;
    /// Pending requests with `priority < URGENT_PRIORITY` trigger
    /// preemption when they cannot admit (the default tier set's
    /// interactive tier).
    pub const URGENT_PRIORITY: u32 = 1;
    /// Cap on victims paused in one stage (bounds churn).
    pub const MAX_PREEMPTS_PER_STAGE: usize = 4;

    /// The default cost model: preemption engages above 85% occupancy,
    /// ~8 GB/s restore with 0.5 ms latency vs ~10k tokens/s
    /// re-prefill, cheaper path chosen per victim.
    pub fn new() -> Self {
        Self {
            utilization_threshold: Self::DEFAULT_THRESHOLD,
            swap_link: KvLinkSpec::new(8e9, 5e-4),
            recompute_tokens_per_s: 10_000.0,
            mode: PreemptMode::Auto,
        }
    }

    /// Override the occupancy threshold. Must be positive: at zero an
    /// idle batch would preempt on every arrival.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        assert!(threshold > 0.0, "preemption threshold must be positive");
        self.utilization_threshold = threshold;
        self
    }

    /// Override the swap-restore link.
    pub fn with_swap_link(mut self, link: KvLinkSpec) -> Self {
        self.swap_link = link;
        self
    }

    /// Override the estimated re-prefill throughput, tokens/s.
    pub fn with_recompute_rate(mut self, tokens_per_s: f64) -> Self {
        assert!(tokens_per_s > 0.0, "recompute rate must be positive");
        self.recompute_tokens_per_s = tokens_per_s;
        self
    }

    /// Force a swap/recompute mode (tests and ablations; the default
    /// `Auto` picks the cheaper path per victim).
    pub fn with_mode(mut self, mode: PreemptMode) -> Self {
        self.mode = mode;
        self
    }

    /// Estimated seconds to re-prefill a dropped context of
    /// `ctx` tokens.
    pub fn recompute_seconds(&self, ctx: u64) -> f64 {
        ctx as f64 / self.recompute_tokens_per_s
    }

    /// Whether a victim at `ctx` resident tokens (`bytes` KV bytes)
    /// swaps out rather than recomputing, under this spec's mode and
    /// cost model.
    pub fn prefers_swap(&self, ctx: u64, bytes: u64) -> bool {
        match self.mode {
            PreemptMode::SwapOnly => true,
            PreemptMode::RecomputeOnly => false,
            PreemptMode::Auto => {
                self.swap_link.transfer_seconds(bytes) <= self.recompute_seconds(ctx)
            }
        }
    }
}

impl Default for PreemptSpec {
    fn default() -> Self {
        Self::new()
    }
}

/// Batch multiplexing: lets compatible swapped-out batch-tier requests
/// share one batch slot on resume, trading output quality (goodput
/// scale) for slot compute. Its exchange rate is fixed by the
/// associated constants; [`PreemptionPolicy::with_multiplex`] arms it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiplexSpec;

impl MultiplexSpec {
    /// Maximum requests sharing one slot.
    pub const LANES: usize = 2;
    /// Maximum context-length spread (tokens) between slot members:
    /// the shared forward pass prices at the longest member's context,
    /// so a tight tolerance bounds the overhead short members pay.
    pub const CTX_TOLERANCE: u64 = 256;
    /// Goodput scale applied to multiplexed tokens: the compute/quality
    /// exchange rate — a member's SLO `good_tokens` are credited at
    /// this fraction.
    pub const QUALITY: f64 = 0.9;
}

/// Preemption and multiplexing counters, reported per replica on
/// [`crate::SimReport`] and merged across a fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PreemptStats {
    /// Batch-tier decodes paused mid-flight.
    pub preemptions: u64,
    /// Victims whose KV swapped out to the parked pool.
    pub swaps: u64,
    /// Victims whose KV was dropped for re-prefill on resume (chosen
    /// by the cost model, or forced when the swap could not park).
    pub recomputes: u64,
    /// Paused requests resumed (every preemption eventually resumes
    /// unless the replica crashes or the run truncates).
    pub resumes: u64,
    /// Virtual seconds charged for swap-restore transfers.
    pub swap_restore_seconds: f64,
    /// Virtual seconds requests spent paused, accumulated at resume.
    pub paused_time_s: f64,
    /// Multiplex slots formed.
    pub mux_slots: u64,
    /// Tokens generated inside multiplex slots (before the quality
    /// scale; goodput credits them at [`MultiplexSpec::QUALITY`]).
    pub mux_tokens: u64,
}

impl PreemptStats {
    /// Fold another replica's counters into this one (fleet view).
    pub fn merge(&mut self, other: &Self) {
        self.preemptions += other.preemptions;
        self.swaps += other.swaps;
        self.recomputes += other.recomputes;
        self.resumes += other.resumes;
        self.swap_restore_seconds += other.swap_restore_seconds;
        self.paused_time_s += other.paused_time_s;
        self.mux_slots += other.mux_slots;
        self.mux_tokens += other.mux_tokens;
    }
}

/// Preemptive admission wrapper: orders and admits through an inner
/// policy, and additionally arms the scheduler's preemption machinery
/// (and optionally batch multiplexing) via
/// [`SchedulingPolicy::preempt_spec`] /
/// [`SchedulingPolicy::multiplex_spec`].
///
/// Unlike [`crate::ShedBatchTier`], which keeps batch-tier work *out*
/// of a saturated batch, this wrapper reclaims slots batch-tier work
/// already holds — the two compose conceptually (preemption is the
/// stronger mechanism) but are measured head-to-head in the
/// near-saturation scenarios.
pub struct PreemptionPolicy {
    inner: Box<dyn SchedulingPolicy>,
    /// The preemption cost model handed to the scheduler.
    pub spec: PreemptSpec,
    /// Whether batch multiplexing is armed.
    pub multiplex: bool,
}

impl PreemptionPolicy {
    /// Wrap `inner` with the given preemption spec.
    pub fn new(inner: Box<dyn SchedulingPolicy>, spec: PreemptSpec) -> Self {
        Self {
            inner,
            spec,
            multiplex: false,
        }
    }

    /// The default preemptive SLO stack: priority-EDF ordering with
    /// the default cost model.
    pub fn edf() -> Self {
        Self::new(Box::new(crate::policy::PriorityTiers), PreemptSpec::new())
    }

    /// Enable batch multiplexing: paused batch-tier work re-enters as
    /// fractional slots at the [`MultiplexSpec`] exchange rate.
    pub fn with_multiplex(mut self) -> Self {
        self.multiplex = true;
        self
    }
}

impl std::fmt::Debug for PreemptionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreemptionPolicy")
            .field("inner", &self.inner.name())
            .field("spec", &self.spec)
            .field("multiplex", &self.multiplex)
            .finish()
    }
}

impl SchedulingPolicy for PreemptionPolicy {
    fn name(&self) -> &'static str {
        if self.multiplex {
            "preempt-mux"
        } else {
            "preempt"
        }
    }

    fn pick(&mut self, pending: &[PendingRequest], ctx: &PolicyContext) -> usize {
        self.inner.pick(pending, ctx)
    }

    fn admit_now(&mut self, pending: &[PendingRequest], ctx: &PolicyContext) -> Option<usize> {
        self.inner.admit_now(pending, ctx)
    }

    fn preempt_spec(&self) -> Option<&PreemptSpec> {
        Some(&self.spec)
    }

    fn multiplex_spec(&self) -> Option<&MultiplexSpec> {
        self.multiplex.then_some(&MultiplexSpec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_picks_the_cheaper_path_per_victim() {
        // Slopes: swap 5e-5 s/token (1 byte/token at 20 kB/s scaled —
        // here 50 bytes/token over 1e6 B/s), recompute 1e-4 s/token,
        // swap latency 5e-3 s. Crossover at
        // lat / (1/rate - bpt/bw) = 5e-3 / 5e-5 = 100 tokens.
        let spec = PreemptSpec::new()
            .with_swap_link(KvLinkSpec::new(1e6, 5e-3))
            .with_recompute_rate(10_000.0);
        let bpt = 50;
        // Short context: the fixed restore latency dominates.
        assert!(!spec.prefers_swap(50, 50 * bpt));
        // Long context: the bandwidth slope wins.
        assert!(spec.prefers_swap(400, 400 * bpt));
        // Forced modes ignore the prices.
        assert!(spec
            .with_mode(PreemptMode::SwapOnly)
            .prefers_swap(50, 50 * bpt));
        assert!(!spec
            .with_mode(PreemptMode::RecomputeOnly)
            .prefers_swap(400, 400 * bpt));
    }

    #[test]
    fn restore_pricing_matches_the_link_model() {
        let spec = PreemptSpec::new().with_swap_link(KvLinkSpec::new(1e9, 1e-3));
        assert_eq!(spec.swap_link.transfer_seconds(0), 0.0);
        assert!((spec.swap_link.transfer_seconds(1_000_000) - (1e-3 + 1e-3)).abs() < 1e-12);
        assert!((spec.recompute_seconds(1000) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn builders_set_every_knob() {
        let spec = PreemptSpec::new()
            .with_threshold(0.5)
            .with_swap_link(KvLinkSpec::new(1e9, 1e-3))
            .with_recompute_rate(5e3)
            .with_mode(PreemptMode::SwapOnly);
        assert_eq!(spec.utilization_threshold, 0.5);
        assert_eq!(spec.swap_link, KvLinkSpec::new(1e9, 1e-3));
        assert_eq!(spec.recompute_tokens_per_s, 5e3);
        assert_eq!(spec.mode, PreemptMode::SwapOnly);
    }

    #[test]
    fn policy_exposes_its_specs() {
        let plain = PreemptionPolicy::edf();
        assert_eq!(plain.name(), "preempt");
        assert!(plain.preempt_spec().is_some());
        assert!(plain.multiplex_spec().is_none());
        let mux = PreemptionPolicy::edf().with_multiplex();
        assert_eq!(mux.name(), "preempt-mux");
        assert!(mux.multiplex_spec().is_some());
        // Plain policies expose neither hook.
        assert!(crate::policy::Fcfs.preempt_spec().is_none());
        assert!(crate::policy::Fcfs.multiplex_spec().is_none());
    }

    #[test]
    fn stats_merge_adds_counters() {
        let mut a = PreemptStats {
            preemptions: 2,
            swaps: 1,
            recomputes: 1,
            resumes: 2,
            swap_restore_seconds: 0.5,
            paused_time_s: 1.0,
            mux_slots: 1,
            mux_tokens: 10,
        };
        a.merge(&a.clone());
        assert_eq!(a.preemptions, 4);
        assert_eq!(a.swaps, 2);
        assert_eq!(a.resumes, 4);
        assert_eq!(a.mux_tokens, 20);
        assert!((a.paused_time_s - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn zero_threshold_rejected() {
        PreemptSpec::new().with_threshold(0.0);
    }
}
