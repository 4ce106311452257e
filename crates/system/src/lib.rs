//! System-level models for the Duplex simulator: devices, clusters,
//! parallelism, collective communication, co-processing and stage
//! execution.
//!
//! This crate is the "cluster" half of the paper's simulator (Sec. VI).
//! It receives device specifications and system configuration, places
//! model weights and KV cache ([`parallel`]), prices collectives
//! ([`comm`]), schedules experts across xPU and Logic-PIM
//! ([`coproc`]), and executes stages ([`exec`]) for every system the
//! evaluation compares:
//!
//! * `GPU` / `2xGPU` — homogeneous H100-class devices;
//! * `Duplex`, `Duplex+PE`, `Duplex+PE+ET` — the paper's device with
//!   progressively enabled expert/attention co-processing and
//!   expert-tensor-parallelism (Fig. 10, Fig. 11);
//! * `Bank-PIM` — a device whose low-Op/B unit is an in-bank PIM
//!   (Fig. 14);
//! * the heterogeneous 2-GPU + 2-Logic-PIM system of Fig. 5.
//!
//! # Example
//!
//! ```
//! use duplex_model::ModelConfig;
//! use duplex_sched::{Simulation, SimulationConfig, Workload};
//! use duplex_system::{SystemConfig, SystemExecutor};
//!
//! let model = ModelConfig::mixtral_8x7b();
//! let gpu = SystemConfig::gpu(4, 1);
//! let duplex = SystemConfig::duplex_pe_et(4, 1);
//! let mut on_gpu = SystemExecutor::new(gpu, model.clone(), 1);
//! let mut on_duplex = SystemExecutor::new(duplex, model.clone(), 1);
//!
//! let run = |ex: &mut SystemExecutor| {
//!     let cfg = SimulationConfig {
//!         max_batch: 8,
//!         kv_capacity_bytes: ex.kv_capacity_bytes(),
//!         kv_bytes_per_token: ex.model().kv_bytes_per_token(),
//!         ..Default::default()
//!     };
//!     Simulation::closed_loop(cfg, Workload::fixed(256, 32), 8).run(ex)
//! };
//! let gpu_report = run(&mut on_gpu);
//! let duplex_report = run(&mut on_duplex);
//! assert!(
//!     duplex_report.throughput_tokens_per_s() > gpu_report.throughput_tokens_per_s(),
//!     "Duplex must beat the GPU baseline on MoE decode"
//! );
//! ```

pub mod comm;
pub mod coproc;
pub mod exec;
pub mod incremental;
pub mod parallel;

pub use comm::{CommModel, LinkSpec};
pub use coproc::ExpertSplit;
pub use exec::{DeviceKind, EnergyBuckets, StageCost, SystemConfig, SystemExecutor, TimeBreakdown};
pub use incremental::BatchState;
pub use parallel::CapacityPlan;
