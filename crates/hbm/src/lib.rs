//! HBM3 memory model for the Duplex simulator.
//!
//! This crate is the analogue of the Ramulator backend used by the paper
//! *"Duplex: A Device for Large Language Models with Mixture of Experts,
//! Grouped Query Attention, and Continuous Batching"* (MICRO 2024). It
//! provides everything the higher layers need to reason about off-chip
//! memory:
//!
//! * [`geometry`] — the physical organization of an 8-hi HBM3 stack
//!   (ranks, pseudo channels, bank groups, banks, rows) and the
//!   *bank bundle* grouping that Logic-PIM introduces (Sec. IV-C of the
//!   paper).
//! * [`timing`] — JEDEC-style timing parameters (`tCCD_S`, `tCCD_L`,
//!   `tRCD`, `tRP`, ...) for HBM3.
//! * [`stream`] — a command-level streaming engine that plays out
//!   ACT/RD/PRE sequences under those timing constraints and reports the
//!   *sustained* bandwidth and activation count of each access path
//!   (xPU via the interposer, Logic-PIM via the added TSVs, Bank-PIM
//!   in-bank, BankGroup-PIM per bank group).
//! * [`energy`] — per-access DRAM energy (activation, array read, on-die
//!   datapath, TSV, interposer I/O) following the fine-grained DRAM
//!   energy breakdown of O'Connor et al. (MICRO 2017), which the paper
//!   also uses.
//!
//! # Example
//!
//! Compare the sustained bandwidth of the conventional xPU path with the
//! Logic-PIM bank-bundle path on one pseudo channel:
//!
//! ```
//! use duplex_hbm::{geometry::HbmGeometry, timing::HbmTiming, stream::AccessPath};
//! use duplex_hbm::stream::BandwidthProfile;
//!
//! let geom = HbmGeometry::hbm3_8hi();
//! let timing = HbmTiming::hbm3();
//! let profile = BandwidthProfile::calibrate(&geom, &timing);
//! let xpu = profile.sustained_gbps(AccessPath::Xpu);
//! let pim = profile.sustained_gbps(AccessPath::LogicPim);
//! // 4x peak; sustained lands a bit above 3x after lockstep row turnaround.
//! assert!(pim > 2.9 * xpu, "Logic-PIM should deliver ~4x the xPU path");
//! ```

pub mod energy;
pub mod geometry;
pub mod stream;
pub mod timing;

pub use energy::{DramEnergy, DramEnergyModel, EnergyBreakdown};
pub use geometry::HbmGeometry;
pub use stream::{AccessPath, BandwidthProfile, StreamResult};
pub use timing::HbmTiming;
