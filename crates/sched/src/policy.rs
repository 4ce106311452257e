//! Pluggable admission policies for the scenario scheduler.
//!
//! The batching loop (see [`crate::scenario`]) consults a
//! [`SchedulingPolicy`] each time a batch slot opens: the policy sees
//! every request that has arrived and not yet been admitted, plus a
//! [`PolicyContext`] describing the scheduler's stage (current clock,
//! the chunked-prefill budget, batch occupancy), and picks which one
//! prefills next. The base [`crate::Simulation`] runs under [`Fcfs`].
//! Three classic policies ship here; anything implementing the trait
//! plugs in.
//!
//! # Admission control
//!
//! Beyond *ordering* the queue, a policy may also *defer* it: the
//! scheduler asks [`SchedulingPolicy::admit_now`], and a `None` answer
//! leaves the remaining queue waiting for a later stage. The
//! [`ShedBatchTier`] wrapper uses this to shed batch-tier load near
//! saturation: once batch occupancy crosses its utilization threshold,
//! only latency-sensitive tiers are admitted, so interactive
//! attainment holds while the backlog drains — the open-items
//! admission-control policy from the roadmap.
//!
//! # Starvation
//!
//! Length-biased policies can starve: shortest-prompt-first never
//! admits a long prompt while shorter ones keep arriving. The
//! scheduler therefore maintains [`PendingRequest::skipped`] — how many
//! admissions have gone past a waiting request — and
//! [`ShortestPromptFirst`] ages on it: once a request has been skipped
//! [`ShortestPromptFirst::age_after`] times, it outranks every un-aged
//! request and aged requests drain FIFO. Chunked prefill (see
//! [`PolicyContext::prefill_chunk`]) independently softens the bias:
//! with a bounded per-stage prefill budget, a long prompt's *first
//! stage* costs no more than the chunk, so the policy ranks prompts by
//! their bounded first-stage cost instead of their full length.

use crate::preempt::{MultiplexSpec, PreemptSpec, PreemptionPolicy};
use crate::scenario::PendingRequest;

/// What the scheduler tells a policy about the stage being formed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyContext {
    /// Simulated time at which the admission decision is made.
    pub now_s: f64,
    /// Per-stage prefill token budget under chunked prefill; `None`
    /// when prompts prefill whole in one stage.
    pub prefill_chunk: Option<u64>,
    /// Requests already holding a batch slot for this stage (decoding,
    /// freshly admitted, or mid-chunk).
    pub in_flight: usize,
    /// Batch slots in total.
    pub max_batch: usize,
}

impl PolicyContext {
    /// An unchunked, empty-batch context at `now_s` (tests and simple
    /// drivers).
    pub fn at(now_s: f64) -> Self {
        Self {
            now_s,
            prefill_chunk: None,
            in_flight: 0,
            max_batch: 1,
        }
    }

    /// Fraction of batch slots already committed to this stage — the
    /// utilization estimate admission-control wrappers act on.
    pub fn utilization(&self) -> f64 {
        if self.max_batch == 0 {
            return 0.0;
        }
        self.in_flight as f64 / self.max_batch as f64
    }

    /// The prefill tokens request `p`'s first stage would process: the
    /// non-resident part of its prompt (a reuse follow-up prefills only
    /// its suffix, assuming its history is still parked), capped by the
    /// chunk budget when chunking.
    pub fn first_stage_tokens(&self, p: &PendingRequest) -> u64 {
        let suffix = p.request.input_len - p.history_tokens;
        match self.prefill_chunk {
            Some(chunk) => suffix.min(chunk),
            None => suffix,
        }
    }
}

/// Picks the next pending request to admit.
pub trait SchedulingPolicy {
    /// Display name for reports.
    fn name(&self) -> &'static str;

    /// Index into `pending` of the request to admit next. Called with a
    /// non-empty slice in which every request has already arrived
    /// (`arrival_s <= ctx.now_s`); invoked again after each admission.
    fn pick(&mut self, pending: &[PendingRequest], ctx: &PolicyContext) -> usize;

    /// Like [`SchedulingPolicy::pick`], but may answer `None` to admit
    /// nothing this stage (admission control): the queue keeps waiting
    /// and the scheduler re-asks at the next stage boundary. The
    /// default always admits.
    fn admit_now(&mut self, pending: &[PendingRequest], ctx: &PolicyContext) -> Option<usize> {
        Some(self.pick(pending, ctx))
    }

    /// Preemption cost model, when this policy arms the scheduler's
    /// preemption machinery (see [`crate::preempt::PreemptionPolicy`]).
    /// The default — plain admission policies — never preempts.
    fn preempt_spec(&self) -> Option<&PreemptSpec> {
        None
    }

    /// Batch-multiplexing configuration, when this policy lets paused
    /// batch-tier work re-enter as fractional slots. Only consulted
    /// when [`SchedulingPolicy::preempt_spec`] is `Some`.
    fn multiplex_spec(&self) -> Option<&MultiplexSpec> {
        None
    }
}

/// First-come-first-served: strictly by arrival time (ties by id), the
/// base scheduler's order.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl SchedulingPolicy for Fcfs {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn pick(&mut self, pending: &[PendingRequest], _ctx: &PolicyContext) -> usize {
        argmin(pending, |p| (p.request.arrival_s, p.request.id, 0))
    }
}

/// Shortest-prompt-first: admit the cheapest first prefill stage (ties
/// by arrival, then id). Improves mean T2FT under bursts, but unguarded
/// it starves long prompts; the aging guard promotes any request that
/// has been skipped [`ShortestPromptFirst::age_after`] times to the
/// front of the queue (aged requests drain FIFO among themselves).
#[derive(Debug, Clone, Copy)]
pub struct ShortestPromptFirst {
    /// Skipped-admission count after which a waiting request outranks
    /// every un-aged one. `u64::MAX` disables the guard (the classic,
    /// starvation-prone policy).
    pub age_after: u64,
}

impl ShortestPromptFirst {
    /// Default skipped-admission budget before a request is aged.
    pub const DEFAULT_AGE_AFTER: u64 = 32;

    /// A guard tripping after `age_after` skipped admissions.
    pub fn with_aging(age_after: u64) -> Self {
        Self { age_after }
    }

    /// The unguarded classic policy (starves long prompts; ablations
    /// and tests only).
    pub fn unguarded() -> Self {
        Self {
            age_after: u64::MAX,
        }
    }
}

impl Default for ShortestPromptFirst {
    fn default() -> Self {
        Self {
            age_after: Self::DEFAULT_AGE_AFTER,
        }
    }
}

impl SchedulingPolicy for ShortestPromptFirst {
    fn name(&self) -> &'static str {
        "spf"
    }

    fn pick(&mut self, pending: &[PendingRequest], ctx: &PolicyContext) -> usize {
        // Aged requests (skipped too many admissions) preempt the
        // length order and drain FIFO; otherwise rank by the bounded
        // first-stage prefill cost, ties by arrival then id.
        let aged = self.age_after;
        argmin(pending, |p| {
            if p.skipped >= aged {
                (0u8, 0.0, p.request.arrival_s, p.request.id)
            } else {
                (
                    1u8,
                    ctx.first_stage_tokens(p) as f64,
                    p.request.arrival_s,
                    p.request.id,
                )
            }
        })
    }
}

/// Priority tiers with earliest-deadline-first inside each tier: lower
/// tier priority wins outright, then the nearest SLO deadline, then
/// arrival order. The SLO-serving policy for tiered scenarios.
#[derive(Debug, Clone, Copy, Default)]
pub struct PriorityTiers;

impl SchedulingPolicy for PriorityTiers {
    fn name(&self) -> &'static str {
        "priority-edf"
    }

    fn pick(&mut self, pending: &[PendingRequest], _ctx: &PolicyContext) -> usize {
        argmin(pending, |p| {
            (f64::from(p.priority), p.deadline_s, p.request.arrival_s)
        })
    }
}

/// Admission-control wrapper: sheds (defers) batch-tier requests while
/// estimated utilization sits above a threshold, delegating ordering to
/// an inner policy. Near saturation the batch tier's long prompts stop
/// stealing slots from deadline-bound traffic, lifting interactive
/// attainment at the cost of batch-tier queueing delay — the deferred
/// requests are *not* dropped, they drain once load falls back under
/// the threshold.
pub struct ShedBatchTier {
    inner: Box<dyn SchedulingPolicy>,
    /// Batch-occupancy fraction above which sheddable tiers defer.
    pub utilization_threshold: f64,
    /// Requests with `priority >= shed_priority` are sheddable (2 =
    /// the default tier set's batch tier).
    pub shed_priority: u32,
    /// Reused scratch for the saturated path (indices into the full
    /// queue and the filtered view shown to the inner policy), so a
    /// deep backlog — exactly the regime shedding targets — costs no
    /// per-admission allocations.
    eligible: Vec<usize>,
    subset: Vec<PendingRequest>,
}

impl ShedBatchTier {
    /// Default occupancy fraction above which batch traffic defers.
    pub const DEFAULT_THRESHOLD: f64 = 0.85;

    /// Wrap `inner` with the given threshold and sheddable priority
    /// floor. The threshold must be positive: at zero an empty batch
    /// could defer forever and the scheduler would never advance.
    pub fn new(
        inner: Box<dyn SchedulingPolicy>,
        utilization_threshold: f64,
        shed_priority: u32,
    ) -> Self {
        assert!(
            utilization_threshold > 0.0,
            "a zero threshold would defer admissions into an empty batch"
        );
        Self {
            inner,
            utilization_threshold,
            shed_priority,
            eligible: Vec::new(),
            subset: Vec::new(),
        }
    }

    /// The default SLO-serving stack: priority-EDF ordering, batch
    /// tier (priority >= 2) shed above 85% occupancy.
    pub fn edf() -> Self {
        Self::new(Box::new(PriorityTiers), Self::DEFAULT_THRESHOLD, 2)
    }
}

impl std::fmt::Debug for ShedBatchTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShedBatchTier")
            .field("inner", &self.inner.name())
            .field("utilization_threshold", &self.utilization_threshold)
            .field("shed_priority", &self.shed_priority)
            .finish()
    }
}

impl SchedulingPolicy for ShedBatchTier {
    fn name(&self) -> &'static str {
        "shed-batch"
    }

    fn pick(&mut self, pending: &[PendingRequest], ctx: &PolicyContext) -> usize {
        self.inner.pick(pending, ctx)
    }

    fn admit_now(&mut self, pending: &[PendingRequest], ctx: &PolicyContext) -> Option<usize> {
        if ctx.utilization() < self.utilization_threshold {
            return Some(self.inner.pick(pending, ctx));
        }
        // Saturated: only non-sheddable tiers may take the slot.
        self.eligible.clear();
        self.subset.clear();
        for (i, p) in pending.iter().enumerate() {
            if p.priority < self.shed_priority {
                self.eligible.push(i);
                self.subset.push(p.clone());
            }
        }
        if self.eligible.is_empty() {
            return None;
        }
        Some(self.eligible[self.inner.pick(&self.subset, ctx)])
    }
}

/// The shipped policies, as a value type for sweep drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// [`Fcfs`].
    Fcfs,
    /// [`ShortestPromptFirst`] with the default aging guard.
    ShortestPromptFirst,
    /// [`PriorityTiers`].
    PriorityTiers,
    /// [`ShedBatchTier`] over priority-EDF with the default threshold.
    ShedBatchTier,
    /// [`crate::preempt::PreemptionPolicy`] over priority-EDF with the
    /// default cost model.
    Preempt,
    /// [`crate::preempt::PreemptionPolicy`] with batch multiplexing at
    /// the default exchange rate.
    Multiplex,
}

impl PolicyKind {
    /// Every shipped policy.
    pub const ALL: [PolicyKind; 6] = [
        PolicyKind::Fcfs,
        PolicyKind::ShortestPromptFirst,
        PolicyKind::PriorityTiers,
        PolicyKind::ShedBatchTier,
        PolicyKind::Preempt,
        PolicyKind::Multiplex,
    ];

    /// Instantiate the policy.
    pub fn build(self) -> Box<dyn SchedulingPolicy> {
        match self {
            PolicyKind::Fcfs => Box::new(Fcfs),
            PolicyKind::ShortestPromptFirst => Box::new(ShortestPromptFirst::default()),
            PolicyKind::PriorityTiers => Box::new(PriorityTiers),
            PolicyKind::ShedBatchTier => Box::new(ShedBatchTier::edf()),
            PolicyKind::Preempt => Box::new(PreemptionPolicy::edf()),
            PolicyKind::Multiplex => Box::new(PreemptionPolicy::edf().with_multiplex()),
        }
    }

    /// The policy's display name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Fcfs => "fcfs",
            PolicyKind::ShortestPromptFirst => "spf",
            PolicyKind::PriorityTiers => "priority-edf",
            PolicyKind::ShedBatchTier => "shed-batch",
            PolicyKind::Preempt => "preempt",
            PolicyKind::Multiplex => "preempt-mux",
        }
    }
}

/// Index of the minimum key; deterministic (first minimum wins).
fn argmin<K: PartialOrd, F: Fn(&PendingRequest) -> K>(pending: &[PendingRequest], key: F) -> usize {
    assert!(!pending.is_empty(), "policy consulted with an empty queue");
    let mut best = 0;
    for i in 1..pending.len() {
        if key(&pending[i]) < key(&pending[best]) {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;

    fn pending(id: u64, arrival: f64, input: u64, priority: u32, deadline: f64) -> PendingRequest {
        PendingRequest {
            request: Request {
                id,
                arrival_s: arrival,
                input_len: input,
                output_len: 8,
            },
            tier: priority as usize,
            priority,
            deadline_s: deadline,
            conversation: id,
            round: 1,
            history_tokens: 0,
            skipped: 0,
        }
    }

    #[test]
    fn fcfs_orders_by_arrival() {
        let q = [
            pending(0, 2.0, 10, 0, 9.0),
            pending(1, 1.0, 900, 0, 9.0),
            pending(2, 3.0, 5, 0, 9.0),
        ];
        assert_eq!(Fcfs.pick(&q, &PolicyContext::at(3.0)), 1);
    }

    #[test]
    fn spf_orders_by_prompt_length() {
        let q = [
            pending(0, 1.0, 100, 0, 9.0),
            pending(1, 2.0, 8, 0, 9.0),
            pending(2, 0.5, 600, 0, 9.0),
        ];
        assert_eq!(
            ShortestPromptFirst::default().pick(&q, &PolicyContext::at(3.0)),
            1
        );
    }

    #[test]
    fn spf_aging_promotes_skipped_requests() {
        let mut q = [
            pending(0, 0.0, 900, 0, 9.0),
            pending(1, 1.0, 10, 0, 9.0),
            pending(2, 0.5, 800, 0, 9.0),
        ];
        let mut spf = ShortestPromptFirst::with_aging(4);
        let ctx = PolicyContext::at(2.0);
        assert_eq!(spf.pick(&q, &ctx), 1, "short prompt wins un-aged");
        // Both long prompts cross the aging threshold: FIFO among aged.
        q[0].skipped = 4;
        q[2].skipped = 5;
        assert_eq!(spf.pick(&q, &ctx), 0, "earliest aged request wins");
        // The unguarded policy ignores skips entirely.
        assert_eq!(ShortestPromptFirst::unguarded().pick(&q, &ctx), 1);
    }

    #[test]
    fn spf_ranks_by_bounded_first_stage_under_chunking() {
        // With a 64-token chunk budget both long prompts cost one full
        // chunk up front; the tie breaks by arrival, not total length.
        let q = [pending(3, 0.0, 900, 0, 9.0), pending(1, 1.0, 400, 0, 9.0)];
        let ctx = PolicyContext {
            prefill_chunk: Some(64),
            ..PolicyContext::at(2.0)
        };
        assert_eq!(ShortestPromptFirst::default().pick(&q, &ctx), 0);
        // Unchunked, total length decides.
        assert_eq!(
            ShortestPromptFirst::default().pick(&q, &PolicyContext::at(2.0)),
            1
        );
    }

    #[test]
    fn spf_keys_reuse_followups_by_their_suffix() {
        // A 900-token follow-up with 890 resident tokens prefills only
        // 10: it must beat a fresh 100-token prompt.
        let mut follow = pending(7, 1.0, 900, 0, 9.0);
        follow.history_tokens = 890;
        let q = [pending(0, 0.0, 100, 0, 9.0), follow];
        let ctx = PolicyContext::at(2.0);
        assert_eq!(ctx.first_stage_tokens(&q[1]), 10);
        assert_eq!(ShortestPromptFirst::default().pick(&q, &ctx), 1);
    }

    #[test]
    fn tiers_beat_deadlines_beat_arrival() {
        let q = [
            pending(0, 0.1, 10, 2, 0.5), // low tier, urgent deadline
            pending(1, 0.2, 10, 1, 9.0), // high tier, late deadline
            pending(2, 0.3, 10, 1, 4.0), // high tier, nearer deadline
        ];
        assert_eq!(PriorityTiers.pick(&q, &PolicyContext::at(1.0)), 2);
        // Without the high tier, the urgent low-tier request wins.
        let q2 = [pending(0, 0.1, 10, 2, 0.5), pending(3, 0.0, 10, 2, 8.0)];
        assert_eq!(PriorityTiers.pick(&q2, &PolicyContext::at(1.0)), 0);
    }

    #[test]
    fn utilization_tracks_occupancy() {
        let ctx = PolicyContext {
            in_flight: 6,
            max_batch: 8,
            ..PolicyContext::at(0.0)
        };
        assert!((ctx.utilization() - 0.75).abs() < 1e-12);
        assert_eq!(PolicyContext::at(0.0).utilization(), 0.0);
    }

    #[test]
    fn shed_batch_defers_only_when_saturated() {
        let q = [
            pending(0, 0.0, 10, 2, 100.0), // batch tier
            pending(1, 0.1, 10, 0, 0.5),   // interactive
        ];
        let mut shed = ShedBatchTier::edf();
        let idle = PolicyContext {
            in_flight: 1,
            max_batch: 8,
            ..PolicyContext::at(1.0)
        };
        // Under the threshold the wrapper is transparent: EDF picks the
        // interactive request first either way.
        assert_eq!(shed.admit_now(&q, &idle), Some(1));
        let hot = PolicyContext {
            in_flight: 7,
            max_batch: 8,
            ..PolicyContext::at(1.0)
        };
        // Saturated: the interactive request still admits ...
        assert_eq!(shed.admit_now(&q, &hot), Some(1));
        // ... but a batch-only queue defers entirely.
        let batch_only = [pending(0, 0.0, 10, 2, 100.0), pending(2, 0.2, 10, 2, 50.0)];
        assert_eq!(shed.admit_now(&batch_only, &hot), None);
        // `pick` (ordering without admission control) stays inner-EDF:
        // the nearer deadline wins.
        assert_eq!(shed.pick(&batch_only, &hot), 1);
    }

    #[test]
    fn shed_batch_maps_subset_indices_back() {
        // Two interactive requests interleaved with batch ones: the
        // returned index must point into the *full* queue.
        let q = [
            pending(0, 0.0, 10, 2, 100.0),
            pending(1, 0.3, 10, 1, 5.0),
            pending(2, 0.1, 10, 2, 90.0),
            pending(3, 0.2, 10, 1, 2.0), // nearest deadline among tier 1
        ];
        let hot = PolicyContext {
            in_flight: 8,
            max_batch: 8,
            ..PolicyContext::at(1.0)
        };
        assert_eq!(ShedBatchTier::edf().admit_now(&q, &hot), Some(3));
    }

    #[test]
    #[should_panic(expected = "zero threshold")]
    fn shed_batch_rejects_zero_threshold() {
        ShedBatchTier::new(Box::new(PriorityTiers), 0.0, 2);
    }

    #[test]
    fn default_admit_now_always_admits() {
        let q = [pending(0, 0.0, 10, 0, 1.0)];
        assert_eq!(Fcfs.admit_now(&q, &PolicyContext::at(1.0)), Some(0));
    }

    #[test]
    fn policies_have_names() {
        assert_eq!(Fcfs.name(), "fcfs");
        assert_eq!(ShortestPromptFirst::default().name(), "spf");
        assert_eq!(PriorityTiers.name(), "priority-edf");
        assert_eq!(ShedBatchTier::edf().name(), "shed-batch");
        assert_eq!(PolicyKind::ShedBatchTier.build().name(), "shed-batch");
    }
}
