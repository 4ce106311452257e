//! Heap allocations on the stage-pricing path, counted by a global
//! allocator. Once an executor's scratch buffers have grown, pricing a
//! stage allocates only when one of its memos grows: no per-stage or
//! per-MoE-layer list. Release builds only: debug builds cross-check
//! every carried stage against a fresh full-path pricing, which
//! allocates.
#![cfg(not(debug_assertions))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use duplex::model::ops::StageShape;
use duplex::model::ModelConfig;
use duplex::sched::{
    Simulation, SimulationConfig, StageDelta, StageExecutor, StageOutcome, Workload,
};
use duplex::system::{SystemConfig, SystemExecutor};

/// The system allocator, counting allocations and reallocations per
/// thread (the test harness runs tests on parallel threads).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Prices on a [`SystemExecutor`] and keeps a copy of every delta.
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

/// Mixtral on Duplex+PE+ET x4 with expert routing seed 7, Zipf-skewed
/// when `skew` is set.
fn executor(skew: Option<f64>) -> SystemExecutor {
    let mut ex = SystemExecutor::new(
        SystemConfig::duplex_pe_et(4, 1),
        ModelConfig::mixtral_8x7b(),
        7,
    );
    if let Some(skew) = skew {
        ex.set_expert_skew(skew);
    }
    ex
}

/// The first `stages` deltas of a run at `max_batch` with `workload`,
/// Poisson at `qps` or closed-loop.
fn record(
    skew: Option<f64>,
    max_batch: usize,
    workload: Workload,
    qps: Option<f64>,
    stages: usize,
) -> Vec<StageDelta> {
    let inner = executor(skew);
    let config = SimulationConfig {
        max_batch,
        kv_capacity_bytes: inner.kv_capacity_bytes(),
        kv_bytes_per_token: ModelConfig::mixtral_8x7b().kv_bytes_per_token(),
        max_stages: stages,
        record_stages: false,
    };
    let mut recorder = Recorder {
        inner,
        deltas: Vec::new(),
    };
    let sim = match qps {
        Some(qps) => Simulation::poisson(config, workload, qps, usize::MAX),
        None => Simulation::closed_loop(config, workload, usize::MAX),
    };
    sim.run(&mut recorder);
    assert_eq!(recorder.deltas.len(), stages);
    recorder.deltas
}

/// Allocations of replaying `deltas` on a fresh executor, and of
/// replaying them again on the same (warm) executor.
fn replay(skew: Option<f64>, deltas: &[StageDelta]) -> (u64, u64) {
    let mut ex = executor(skew);
    let mut price = || {
        for delta in deltas {
            ex.stage_cost_delta(delta);
        }
    };
    (allocations(&mut price), allocations(&mut price))
}

#[test]
fn open_loop_stages_allocate_only_for_memo_growth() {
    // The stream `prefill_open` prices: batch 256, Gaussian 128/32 at
    // 50k qps, nearly every stage mixed and hundreds of MoE memo
    // misses in 512 stages. Lists built per miss would cost thousands
    // of allocations; first-use buffers and memo growth cost a few
    // dozen, and a second replay, which repeats every memo key, none.
    let deltas = record(None, 256, Workload::gaussian(128, 32), Some(50_000.0), 512);
    let (cold, warm) = replay(None, &deltas);
    assert!(cold <= 96, "{cold} allocations on a fresh executor");
    assert_eq!(warm, 0, "allocations on a warm executor");
}

#[test]
fn sampled_skewed_stages_allocate_only_for_buffer_growth() {
    // Zipf 1.0 routing prices all 32 MoE layers afresh on every stage,
    // with no memo: lists built per layer would cost tens of thousands
    // of allocations over 256 stages.
    let deltas = record(Some(1.0), 64, Workload::gaussian(512, 512), None, 256);
    let (cold, warm) = replay(Some(1.0), &deltas);
    assert!(cold <= 96, "{cold} allocations on a fresh executor");
    assert_eq!(warm, 0, "allocations on a warm executor");
}
