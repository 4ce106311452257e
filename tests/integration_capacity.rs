//! Capacity accounting end to end: weight duplication shrinks KV
//! budgets, which shrinks achievable batch, which shrinks throughput
//! (Figs. 5(c) and 16).

use duplex::model::ModelConfig;
use duplex::sched::Workload;
use duplex::system::exec::DEVICE_MEM_BYTES;
use duplex::system::parallel::CapacityPlan;
use duplex::system::{SystemConfig, SystemExecutor};
use duplex::{run, RunConfig};

#[test]
fn hetero_capacity_limits_batch_at_long_contexts() {
    let model = ModelConfig::mixtral_8x7b();
    // Long responses: each request reserves (Lin + Lout) * 128 KiB ~ 1 GB,
    // so the hetero system's ~67 GB KV pool caps the batch near 60 while
    // the GPU system's ~226 GB pool does not bind. Prefills stay short so
    // decode stages dominate the measurement.
    let workload = Workload::fixed(512, 7680);
    let requested = 128;
    let mut cfg = RunConfig::closed_loop(
        model.clone(),
        SystemConfig::hetero(),
        workload.clone(),
        requested,
        96,
    );
    cfg.max_stages = 4000;
    let het = run(cfg.clone());
    cfg.system = SystemConfig::gpu(4, 1);
    let gpu = run(cfg);
    assert!(
        het.mean_batch < 0.8 * gpu.mean_batch,
        "hetero batch {} vs gpu {}",
        het.mean_batch,
        gpu.mean_batch
    );
}

#[test]
fn lifting_the_capacity_limit_recovers_throughput() {
    // Mixtral on the hetero system with ~1 GB KV reservations: the
    // capacity limit caps the batch near 60 of the requested 128.
    // Lifting it grows the achieved batch and throughput (the
    // "no capacity limit" bars of Fig. 5(c)). The magnitude is modest
    // in our model because Logic-PIM's experts go compute-bound at
    // these batch sizes; see EXPERIMENTS.md.
    let model = ModelConfig::mixtral_8x7b();
    let mut cfg = RunConfig::closed_loop(
        model,
        SystemConfig::hetero(),
        Workload::fixed(512, 7680),
        128,
        96,
    );
    cfg.max_stages = 4000;
    let limited = run(cfg.clone());
    cfg.kv_capacity_override = Some(u64::MAX);
    let unlimited = run(cfg);
    assert!(
        unlimited.mean_batch > 1.3 * limited.mean_batch,
        "unlimited batch {} vs limited {}",
        unlimited.mean_batch,
        limited.mean_batch
    );
    assert!(
        unlimited.throughput_tokens_per_s > 1.02 * limited.throughput_tokens_per_s,
        "unlimited {} vs limited {}",
        unlimited.throughput_tokens_per_s,
        limited.throughput_tokens_per_s
    );
}

#[test]
fn kv_reservations_never_exceed_budget() {
    let model = ModelConfig::mixtral_8x7b();
    let ex = SystemExecutor::new(SystemConfig::gpu(4, 1), model.clone(), 1);
    let kv = ex.kv_capacity_bytes();
    let cfg = RunConfig::closed_loop(
        model.clone(),
        SystemConfig::gpu(4, 1),
        Workload::fixed(4096, 512),
        256,
        64,
    );
    let r = run(cfg);
    let per_request = model.kv_bytes(4096 + 512);
    for stage in &r.report.stages {
        assert!(
            stage.batch as u64 * per_request <= kv,
            "stage batch {} overflows KV budget",
            stage.batch
        );
    }
}

#[test]
fn oversized_models_are_rejected() {
    let model = ModelConfig::grok1(); // 314B params = 628 GB of FP16
    let result =
        std::panic::catch_unwind(|| CapacityPlan::homogeneous(&model, 1, 4, DEVICE_MEM_BYTES));
    assert!(result.is_err(), "Grok1 cannot fit 4 devices");
    // But it fits the paper's 2x8 cluster.
    let plan = CapacityPlan::homogeneous(&model, 2, 8, DEVICE_MEM_BYTES);
    assert!(plan.kv_capacity_bytes > 0);
}

#[test]
fn split_pools_fit_and_shrink_kv() {
    let model = ModelConfig::mixtral_8x7b();
    // Two 2-device pools, each storing the full weights.
    let pool = CapacityPlan::homogeneous(&model, 1, 2, DEVICE_MEM_BYTES);
    let homo = CapacityPlan::homogeneous(&model, 1, 4, DEVICE_MEM_BYTES);
    assert!(2 * pool.kv_capacity_bytes < homo.kv_capacity_bytes);
    assert_eq!(pool.weight_bytes_stored, model.weight_bytes());
}
