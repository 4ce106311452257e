//! Command-level streaming engine.
//!
//! The figures in the paper all hinge on the *sustained* bandwidth each
//! access path can extract from the same DRAM dies:
//!
//! * the **xPU path** — conventional pseudo-channel reads through the
//!   interposer: one 32 B burst per `tCCD_S`, banks interleaved so row
//!   turnaround (tRP + tRCD) hides behind other banks' drains;
//! * the **Logic-PIM path** — ganged *bank bundle* reads over the added
//!   TSVs: eight banks deliver 256 B per `tCCD_L` (4x the xPU peak), but
//!   the eight banks drain their rows in lockstep so each row set pays
//!   the turnaround;
//! * the **BankGroup-PIM path** — identical bandwidth to Logic-PIM (the
//!   processing units merely sit on the DRAM die, which costs area and
//!   energy, not bandwidth);
//! * the **Bank-PIM path** — per-bank readout into in-bank processing
//!   units (16x the conventional peak, as assumed in Sec. VI), limited
//!   by per-bank row cycling.
//!
//! [`simulate_stream`] plays out the ACT/RD/PRE command sequence for one
//! pseudo channel under [`crate::timing::HbmTiming`] and reports elapsed
//! time and activation counts. [`BandwidthProfile`] calibrates the
//! sustained GB/s of every path once and is then consulted analytically
//! by the layer-timing code (simulating every byte of a 47 B-parameter
//! model per stage would be needlessly slow and adds nothing: streaming
//! is steady-state by construction).

use crate::geometry::HbmGeometry;
use crate::timing::HbmTiming;

/// Which engine is pulling data out of the DRAM dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPath {
    /// Conventional reads through the HBM PHY and interposer to the xPU.
    Xpu,
    /// Ganged bank-bundle reads over dedicated TSVs to the logic die.
    LogicPim,
    /// Same datapath width as [`AccessPath::LogicPim`] but with the
    /// processing units on the DRAM die (the BankGroup-PIM baseline of
    /// Fig. 8).
    BankGroupPim,
    /// In-bank processing units reading their own bank (the Bank-PIM
    /// baseline of Sec. VI, 16x conventional peak bandwidth).
    BankPim,
}

impl AccessPath {
    /// All modelled paths, in presentation order.
    pub const ALL: [AccessPath; 4] = [
        AccessPath::Xpu,
        AccessPath::LogicPim,
        AccessPath::BankGroupPim,
        AccessPath::BankPim,
    ];
}

impl std::fmt::Display for AccessPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            AccessPath::Xpu => "xPU",
            AccessPath::LogicPim => "Logic-PIM",
            AccessPath::BankGroupPim => "BankGroup-PIM",
            AccessPath::BankPim => "Bank-PIM",
        };
        f.write_str(name)
    }
}

/// Outcome of streaming a contiguous region through one pseudo channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamResult {
    /// Bytes transferred.
    pub bytes: u64,
    /// Wall-clock nanoseconds from first command to last data beat.
    pub elapsed_ns: f64,
    /// Row activations issued (drives activation energy).
    pub activations: u64,
    /// Column read commands issued.
    pub reads: u64,
}

impl StreamResult {
    /// Sustained bandwidth in GB/s (bytes per nanosecond).
    pub fn sustained_gbps(&self) -> f64 {
        self.bytes as f64 / self.elapsed_ns
    }
}

/// Simulate streaming `bytes` of sequential data through one pseudo
/// channel over the given access path.
///
/// The address layout is the streaming-friendly one: consecutive cache
/// lines interleave across bank groups (xPU) or across the banks of one
/// bundle (PIM paths), and fill whole rows before moving on.
///
/// # Panics
///
/// Panics if `bytes` is zero.
pub fn simulate_stream(
    geom: &HbmGeometry,
    timing: &HbmTiming,
    path: AccessPath,
    bytes: u64,
) -> StreamResult {
    assert!(bytes > 0, "cannot stream zero bytes");
    match path {
        AccessPath::Xpu => simulate_xpu(geom, timing, bytes),
        AccessPath::LogicPim | AccessPath::BankGroupPim => simulate_bundle(geom, timing, bytes),
        AccessPath::BankPim => simulate_bank_pim(geom, timing, bytes),
    }
}

/// Conventional pseudo-channel streaming: one burst per `tCCD_S`,
/// rotating across bank groups, with per-bank row management.
fn simulate_xpu(geom: &HbmGeometry, timing: &HbmTiming, bytes: u64) -> StreamResult {
    let n_banks = geom.banks_per_pseudo_channel() as usize;
    let n_groups = geom.bank_groups as usize;
    let reads_per_row = geom.reads_per_row();
    let total_reads = bytes.div_ceil(geom.burst_bytes);

    // Per-bank state.
    #[derive(Clone, Copy)]
    struct Bank {
        /// Time the open row becomes readable.
        ready_at: f64,
        /// Reads left in the open row (0 = closed).
        row_reads_left: u64,
        /// Time of the ACT that opened the current row (for tRAS).
        act_at: f64,
    }
    let mut banks = vec![
        Bank {
            ready_at: 0.0,
            row_reads_left: 0,
            act_at: f64::NEG_INFINITY
        };
        n_banks
    ];
    let mut last_col_any = f64::NEG_INFINITY;
    let mut last_col_group = vec![f64::NEG_INFINITY; n_groups];
    let mut last_act_any = f64::NEG_INFINITY;
    let mut faw: std::collections::VecDeque<f64> = std::collections::VecDeque::new();

    let mut activations = 0u64;
    let mut finish = 0.0f64;

    for read in 0..total_reads {
        // Consecutive bursts rotate across bank groups first (so the bus
        // only ever sees tCCD_S between adjacent commands), then across
        // the banks within a group.
        let bank_idx = (read as usize) % n_banks;
        let group = bank_idx % n_groups;
        let bank = &mut banks[bank_idx];

        if bank.row_reads_left == 0 {
            // PRE (respect tRAS) + ACT (respect tRRD / tFAW).
            let pre_at = (bank.act_at + timing.tras).max(bank.ready_at);
            let mut act_at = (pre_at + timing.trp).max(last_act_any + timing.trrd_s);
            while faw.len() >= 4 {
                let oldest = *faw.front().expect("faw non-empty");
                if act_at < oldest + timing.tfaw {
                    act_at = oldest + timing.tfaw;
                }
                faw.pop_front();
            }
            faw.push_back(act_at);
            last_act_any = act_at;
            bank.act_at = act_at;
            bank.ready_at = act_at + timing.trcd;
            bank.row_reads_left = reads_per_row;
            activations += 1;
        }

        let issue = bank
            .ready_at
            .max(last_col_any + timing.tccd_s)
            .max(last_col_group[group] + timing.tccd_l);
        last_col_any = issue;
        last_col_group[group] = issue;
        bank.ready_at = issue;
        bank.row_reads_left -= 1;
        finish = issue + timing.tccd_s; // data beat occupies one slot
    }

    StreamResult {
        bytes,
        elapsed_ns: finish,
        activations,
        reads: total_reads,
    }
}

/// Ganged bank-bundle streaming for Logic-PIM / BankGroup-PIM: the eight
/// banks of a bundle deliver `8 * burst_bytes` per `tCCD_L` over their
/// separated I/O paths; rows open and close in lockstep, so every
/// row-set drain pays one tRP + tRCD turnaround.
fn simulate_bundle(geom: &HbmGeometry, timing: &HbmTiming, bytes: u64) -> StreamResult {
    let gang = u64::from(geom.banks_per_bundle);
    let gang_bytes = gang * geom.burst_bytes;
    let reads_per_row = geom.reads_per_row();
    let total_gang_reads = bytes.div_ceil(gang_bytes);

    let mut t = 0.0f64;
    let mut activations = 0u64;
    let mut reads_left_in_rowset = 0u64;
    let mut issued = 0u64;
    let mut act_at = f64::NEG_INFINITY;

    while issued < total_gang_reads {
        if reads_left_in_rowset == 0 {
            // Close the previous row set (after tRAS) and open the next
            // in all eight banks simultaneously.
            let pre_at = (act_at + timing.tras).max(t);
            let new_act = pre_at + timing.trp;
            t = new_act + timing.trcd;
            act_at = new_act;
            activations += gang;
            reads_left_in_rowset = reads_per_row;
        }
        t += timing.tccd_l;
        reads_left_in_rowset -= 1;
        issued += 1;
    }

    StreamResult {
        bytes,
        elapsed_ns: t,
        activations,
        reads: issued * gang,
    }
}

/// Bank-PIM streaming: every bank of the pseudo channel feeds its own
/// in-bank processing unit at one burst per `tCCD_L` (the in-bank column
/// cycle), cycling its rows independently (drain, then tRP + tRCD, with
/// tRAS respected). With 32 banks per pseudo channel this gives the
/// paper's assumed 16x conventional peak bandwidth.
fn simulate_bank_pim(geom: &HbmGeometry, timing: &HbmTiming, bytes: u64) -> StreamResult {
    // All banks behave identically and independently; simulate one bank
    // streaming its slice and scale the byte count.
    let n_banks = u64::from(geom.banks_per_pseudo_channel());
    let per_bank = bytes.div_ceil(n_banks).max(1);
    let reads_per_row = geom.reads_per_row();
    let total_reads = per_bank.div_ceil(geom.burst_bytes);

    let mut t = 0.0f64;
    let mut activations = 0u64;
    let mut reads_left = 0u64;
    let mut act_at = f64::NEG_INFINITY;
    let mut issued = 0u64;
    while issued < total_reads {
        if reads_left == 0 {
            let pre_at = (act_at + timing.tras).max(t);
            let new_act = pre_at + timing.trp;
            t = new_act + timing.trcd;
            act_at = new_act;
            activations += 1;
            reads_left = reads_per_row;
        }
        t += timing.tccd_l;
        reads_left -= 1;
        issued += 1;
    }

    StreamResult {
        bytes,
        elapsed_ns: t,
        activations: activations * n_banks,
        reads: total_reads * n_banks,
    }
}

/// Calibrated sustained bandwidth of every access path on one pseudo
/// channel, plus activation-rate statistics for the energy model.
///
/// Calibration streams a multi-megabyte region once per path; results
/// are steady-state by construction, so downstream timing can use
/// `bytes / sustained` without re-simulating.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthProfile {
    geom: HbmGeometry,
    sustained_gbps: [f64; 4],
    activations_per_byte: [f64; 4],
}

impl BandwidthProfile {
    /// Number of bytes streamed per path during calibration. Large
    /// enough that start-up transients are <0.1% of the run.
    const CALIBRATION_BYTES: u64 = 8 << 20;

    /// Run the command-level engine once per access path and record the
    /// sustained bandwidth.
    pub fn calibrate(geom: &HbmGeometry, timing: &HbmTiming) -> Self {
        let mut sustained = [0.0f64; 4];
        let mut acts = [0.0f64; 4];
        for (i, path) in AccessPath::ALL.iter().enumerate() {
            let r = simulate_stream(geom, timing, *path, Self::CALIBRATION_BYTES);
            sustained[i] = r.sustained_gbps();
            acts[i] = r.activations as f64 / r.bytes as f64;
        }
        Self {
            geom: *geom,
            sustained_gbps: sustained,
            activations_per_byte: acts,
        }
    }

    fn index(path: AccessPath) -> usize {
        AccessPath::ALL
            .iter()
            .position(|p| *p == path)
            .expect("path present in ALL")
    }

    /// Sustained GB/s on one pseudo channel for `path`.
    pub fn sustained_gbps(&self, path: AccessPath) -> f64 {
        self.sustained_gbps[Self::index(path)]
    }

    /// Sustained bytes/second for a whole device with `stacks` HBM
    /// stacks, all pseudo channels streaming.
    pub fn device_bytes_per_sec(&self, path: AccessPath, stacks: u32) -> f64 {
        self.sustained_gbps(path) * f64::from(self.geom.pseudo_channels) * f64::from(stacks) * 1e9
    }

    /// Row activations per byte streamed (for activation energy).
    pub fn activations_per_byte(&self, path: AccessPath) -> f64 {
        self.activations_per_byte[Self::index(path)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> BandwidthProfile {
        BandwidthProfile::calibrate(&HbmGeometry::hbm3_8hi(), &HbmTiming::hbm3())
    }

    #[test]
    fn xpu_sustains_near_peak() {
        let p = profile();
        let peak = HbmTiming::hbm3().peak_pseudo_channel_gbps(32);
        let sustained = p.sustained_gbps(AccessPath::Xpu);
        assert!(
            sustained > 0.95 * peak,
            "xPU path should hide row turnaround behind 32 interleaved banks: {sustained} vs peak {peak}"
        );
        assert!(sustained <= peak * 1.001);
    }

    #[test]
    fn logic_pim_beats_xpu_by_about_4x_peak() {
        let p = profile();
        let ratio = p.sustained_gbps(AccessPath::LogicPim) / p.sustained_gbps(AccessPath::Xpu);
        // Peak is exactly 4x; lockstep row turnaround costs the bundle
        // path ~23%, so sustained lands a little above 3x.
        assert!(ratio > 2.9 && ratio < 4.0, "got ratio {ratio}");
    }

    #[test]
    fn bank_group_pim_matches_logic_pim_bandwidth() {
        let p = profile();
        assert!(
            (p.sustained_gbps(AccessPath::BankGroupPim) - p.sustained_gbps(AccessPath::LogicPim))
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn bank_pim_has_highest_bandwidth() {
        let p = profile();
        let bank = p.sustained_gbps(AccessPath::BankPim);
        let logic = p.sustained_gbps(AccessPath::LogicPim);
        let xpu = p.sustained_gbps(AccessPath::Xpu);
        assert!(bank > 2.5 * logic, "bank {bank} vs logic {logic}");
        assert!(bank > 9.0 * xpu, "bank {bank} vs xpu {xpu}");
    }

    #[test]
    fn h100_class_device_bandwidth() {
        let p = profile();
        let dev = p.device_bytes_per_sec(AccessPath::Xpu, 5);
        // 5 stacks of HBM3 => ~3.35 TB/s on an H100.
        assert!(dev > 3.0e12 && dev < 3.6e12, "got {dev}");
    }

    #[test]
    fn activation_counts_match_row_math() {
        let geom = HbmGeometry::hbm3_8hi();
        let timing = HbmTiming::hbm3();
        let bytes = 1 << 20; // 1 MiB
        let r = simulate_stream(&geom, &timing, AccessPath::Xpu, bytes);
        // One activation per 1 KB row.
        assert_eq!(r.activations, bytes / geom.row_bytes);
        let rb = simulate_stream(&geom, &timing, AccessPath::LogicPim, bytes);
        assert_eq!(rb.activations, bytes / geom.row_bytes);
    }

    #[test]
    fn tiny_streams_work() {
        let geom = HbmGeometry::hbm3_8hi();
        let timing = HbmTiming::hbm3();
        for path in AccessPath::ALL {
            let r = simulate_stream(&geom, &timing, path, 8);
            assert!(r.elapsed_ns > 0.0);
            assert!(r.activations >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "zero bytes")]
    fn zero_byte_stream_panics() {
        let geom = HbmGeometry::hbm3_8hi();
        simulate_stream(&geom, &HbmTiming::hbm3(), AccessPath::Xpu, 0);
    }

    #[test]
    fn elapsed_monotonic_in_bytes() {
        let geom = HbmGeometry::hbm3_8hi();
        let timing = HbmTiming::hbm3();
        for path in AccessPath::ALL {
            let mut prev = 0.0;
            for kb in [1u64, 4, 16, 64, 256] {
                let r = simulate_stream(&geom, &timing, path, kb << 10);
                assert!(r.elapsed_ns > prev, "{path}: not monotonic");
                prev = r.elapsed_ns;
            }
        }
    }
}
