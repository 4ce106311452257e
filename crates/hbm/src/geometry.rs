//! Physical organization of an 8-hi HBM3 stack and the bank-bundle
//! grouping introduced by Logic-PIM.
//!
//! The paper (Sec. II-D) describes the stack we model: one logic die at
//! the bottom, eight DRAM dies above it. Four DRAM dies form a *rank*;
//! each die exposes eight *pseudo channels*; each pseudo channel is
//! connected to four bank groups of four banks, i.e. 16 banks per rank
//! visible to one pseudo channel.
//!
//! Logic-PIM (Sec. IV-C) splits those 16 banks into an upper and a lower
//! half of eight banks each — a *bank bundle* — which are read as one
//! unit over dedicated TSVs. With two ranks, each pseudo channel sees
//! four bundles (indices 0..4); the bundle index also names the bundle's
//! *memory space*.

/// Geometry of one HBM stack and its derived quantities.
///
/// All capacity quantities are in bytes. The default construction
/// [`HbmGeometry::hbm3_8hi`] matches the configuration the paper
/// evaluates: a 16 GB, 8-hi HBM3 stack as found on an H100 (five such
/// stacks per device, 80 GB total).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HbmGeometry {
    /// DRAM dies per stack (8-hi => 8).
    pub dies: u32,
    /// Dies that form one rank (4 for HBM3).
    pub dies_per_rank: u32,
    /// Pseudo channels exposed by the whole stack (32 for HBM3).
    pub pseudo_channels: u32,
    /// Bank groups addressable by one pseudo channel within one rank.
    pub bank_groups: u32,
    /// Banks per bank group.
    pub banks_per_group: u32,
    /// Bytes delivered by one column access (burst) on a pseudo channel.
    pub burst_bytes: u64,
    /// Row (page) size per bank in bytes.
    pub row_bytes: u64,
    /// Total stack capacity in bytes.
    pub capacity_bytes: u64,
    /// Banks ganged together into one Logic-PIM bank bundle.
    pub banks_per_bundle: u32,
}

impl HbmGeometry {
    /// The 16 GB 8-hi HBM3 stack used throughout the paper's evaluation.
    ///
    /// # Examples
    ///
    /// ```
    /// let g = duplex_hbm::HbmGeometry::hbm3_8hi();
    /// assert_eq!(g.ranks(), 2);
    /// assert_eq!(g.capacity_bytes, 16 << 30);
    /// ```
    pub fn hbm3_8hi() -> Self {
        Self {
            dies: 8,
            dies_per_rank: 4,
            pseudo_channels: 32,
            bank_groups: 4,
            banks_per_group: 4,
            burst_bytes: 32,
            row_bytes: 1024,
            capacity_bytes: 16 << 30,
            banks_per_bundle: 8,
        }
    }

    /// Number of ranks in the stack.
    pub fn ranks(&self) -> u32 {
        self.dies / self.dies_per_rank
    }

    /// Banks seen by one pseudo channel within one rank.
    pub fn banks_per_rank(&self) -> u32 {
        self.bank_groups * self.banks_per_group
    }

    /// Banks seen by one pseudo channel across all ranks.
    pub fn banks_per_pseudo_channel(&self) -> u32 {
        self.banks_per_rank() * self.ranks()
    }

    /// Column accesses needed to drain one open row.
    pub fn reads_per_row(&self) -> u64 {
        self.row_bytes / self.burst_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hbm3_defaults_are_consistent() {
        let g = HbmGeometry::hbm3_8hi();
        assert_eq!(g.ranks(), 2);
        assert_eq!(g.banks_per_rank(), 16);
        assert_eq!(g.banks_per_pseudo_channel(), 32);
    }

    #[test]
    fn row_math() {
        let g = HbmGeometry::hbm3_8hi();
        assert_eq!(g.reads_per_row(), 32);
    }

    #[test]
    fn bundle_rank_mapping() {
        // A bundle is half of a rank's banks, so each pseudo channel
        // sees two bundles per rank and four memory spaces (Sec. V-C).
        let g = HbmGeometry::hbm3_8hi();
        assert_eq!(g.banks_per_rank(), 2 * g.banks_per_bundle);
        assert_eq!(g.banks_per_pseudo_channel() / g.banks_per_bundle, 4);
    }
}
