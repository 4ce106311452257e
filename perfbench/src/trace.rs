//! Outside-in timing wrappers: each one forwards every call of a layer's
//! public trait to the real implementation and times the calls the
//! simulator makes on its hot path. Nothing inside the simulator knows
//! it is being timed, so a wrapped run must produce the same report as
//! an unwrapped one (the tests in `main.rs` check that).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use duplex::model::ops::StageShape;
use duplex::sched::{
    BatchCheckpoint, MultiplexSpec, PendingRequest, Placement, PolicyContext, PreemptSpec,
    ReplicaSnapshot, RouteDecision, Router, SchedulingPolicy, StageDelta, StageExecutor,
    StageOutcome,
};

/// Which path `SystemExecutor` prices a stage on: the grouped full path
/// (mixed), a rebuild of its decode template, or an O(1) advance of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageClass {
    Advance = 0,
    Rebuild = 1,
    Mixed = 2,
}

/// Follows `SystemExecutor`'s batch and template state through the
/// calls it receives, to tell which path prices each stage. The rule is
/// that of `execute_delta` and `stage_cost_delta_inner` under
/// expected-value routing (the only routing the benchmark uses):
///
/// * a stage is **mixed** when it admits or chunks a prompt, when its
///   decode batch is empty, or when a non-fresh delta follows a whole
///   shape (`execute`) or a fresh executor, which resyncs from the shape;
/// * otherwise it is a **rebuild** when the executor holds no template
///   (the previous stage was mixed, or the batch was just imported), or
///   when membership changed: a fresh delta, or a retirement. Requests
///   admitted by the previous stage also join now, but that stage was
///   mixed and already dropped the template;
/// * otherwise the template **advances**.
#[derive(Debug, Clone, Copy)]
pub struct Classifier {
    /// The executor holds a decode template.
    template: bool,
    /// The executor's batch state is stale (`BatchState::is_synced` is
    /// false), as it is on a fresh executor and after `execute`.
    desynced: bool,
}

impl Default for Classifier {
    fn default() -> Self {
        Self {
            template: false,
            desynced: true,
        }
    }
}

impl Classifier {
    pub fn delta(&mut self, delta: &StageDelta, shape: &StageShape) -> StageClass {
        let full = (self.desynced && !delta.fresh)
            || !delta.admit.is_empty()
            || !delta.chunk.is_empty()
            || shape.decode_ctx.is_empty();
        let class = if full {
            StageClass::Mixed
        } else if !self.template || delta.fresh || !delta.retire.is_empty() {
            StageClass::Rebuild
        } else {
            StageClass::Advance
        };
        self.template = class != StageClass::Mixed;
        self.desynced = false;
        class
    }

    /// A whole shape priced without a delta.
    pub fn shape(&mut self) {
        self.desynced = true;
    }

    /// A batch restored from a checkpoint: synced, with no template.
    pub fn import(&mut self) {
        self.template = false;
        self.desynced = false;
    }
}

/// Call count and summed wall time of one kind of call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    pub calls: u64,
    pub ns: u64,
}

impl Span {
    fn add(&mut self, start: Instant) {
        self.calls += 1;
        self.ns += start.elapsed().as_nanos() as u64;
    }

    pub fn merge(&mut self, other: &Span) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// A [`StageExecutor`] that times every stage, split by [`StageClass`].
#[derive(Debug)]
pub struct TimedExecutor<E> {
    pub inner: E,
    /// Indexed by `StageClass as usize`.
    pub spans: [Span; 3],
    classifier: Classifier,
}

impl<E> TimedExecutor<E> {
    pub fn new(inner: E) -> Self {
        Self {
            inner,
            spans: [Span::default(); 3],
            classifier: Classifier::default(),
        }
    }
}

impl<E: StageExecutor> StageExecutor for TimedExecutor<E> {
    fn execute(&mut self, shape: &StageShape) -> StageOutcome {
        // A whole materialized shape is always priced on the full path.
        self.classifier.shape();
        let start = Instant::now();
        let out = self.inner.execute(shape);
        self.spans[StageClass::Mixed as usize].add(start);
        out
    }

    fn execute_delta(&mut self, delta: &StageDelta, shape: &StageShape) -> StageOutcome {
        let class = self.classifier.delta(delta, shape);
        let start = Instant::now();
        let out = self.inner.execute_delta(delta, shape);
        self.spans[class as usize].add(start);
        out
    }

    fn export_batch(&self) -> Option<BatchCheckpoint> {
        self.inner.export_batch()
    }

    fn import_batch(&mut self, checkpoint: &BatchCheckpoint) {
        self.classifier.import();
        self.inner.import_batch(checkpoint)
    }
}

/// Counters a boxed wrapper shares with the harness: the cluster owns
/// routers and policies while it runs (policies possibly on worker
/// threads), so the harness reads the totals through this handle.
#[derive(Debug, Default)]
pub struct Counters {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Counters {
    fn record(&self, start: Instant) {
        // Relaxed: plain statistics, read only after the run has joined.
        let ns = start.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub fn span(&self) -> Span {
        Span {
            calls: self.calls.load(Ordering::Relaxed),
            ns: self.ns.load(Ordering::Relaxed),
        }
    }
}

/// A [`Router`] that times `place`, the only method the cluster calls.
pub struct TimedRouter {
    inner: Box<dyn Router>,
    counters: Arc<Counters>,
}

impl TimedRouter {
    pub fn wrap(inner: Box<dyn Router>) -> (Box<dyn Router>, Arc<Counters>) {
        let counters = Arc::new(Counters::default());
        let counters_out = Arc::clone(&counters);
        (Box::new(Self { inner, counters }), counters_out)
    }
}

impl Router for TimedRouter {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, request: &PendingRequest, replicas: &[ReplicaSnapshot]) -> usize {
        self.inner.route(request, replicas)
    }

    fn decide(&mut self, request: &PendingRequest, replicas: &[ReplicaSnapshot]) -> RouteDecision {
        self.inner.decide(request, replicas)
    }

    fn place(&mut self, request: &PendingRequest, replicas: &[ReplicaSnapshot]) -> Placement {
        let start = Instant::now();
        let placement = self.inner.place(request, replicas);
        self.counters.record(start);
        placement
    }

    fn export_state(&self) -> Vec<u64> {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &[u64]) {
        self.inner.import_state(state)
    }
}

/// A [`SchedulingPolicy`] that times `pick` and `admit_now`.
pub struct TimedPolicy {
    inner: Box<dyn SchedulingPolicy>,
    counters: Arc<Counters>,
}

impl TimedPolicy {
    pub fn wrap(inner: Box<dyn SchedulingPolicy>) -> (Box<dyn SchedulingPolicy>, Arc<Counters>) {
        let counters = Arc::new(Counters::default());
        let counters_out = Arc::clone(&counters);
        (Box::new(Self { inner, counters }), counters_out)
    }
}

impl SchedulingPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pick(&mut self, pending: &[PendingRequest], ctx: &PolicyContext) -> usize {
        let start = Instant::now();
        let pick = self.inner.pick(pending, ctx);
        self.counters.record(start);
        pick
    }

    fn admit_now(&mut self, pending: &[PendingRequest], ctx: &PolicyContext) -> Option<usize> {
        let start = Instant::now();
        let pick = self.inner.admit_now(pending, ctx);
        self.counters.record(start);
        pick
    }

    fn preempt_spec(&self) -> Option<&PreemptSpec> {
        self.inner.preempt_spec()
    }

    fn multiplex_spec(&self) -> Option<&MultiplexSpec> {
        self.inner.multiplex_spec()
    }
}
