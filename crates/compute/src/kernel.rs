//! Kernel descriptions and arithmetic-intensity math.
//!
//! Everything an LLM stage executes reduces to three kernel families
//! for costing purposes:
//!
//! * [`GemmShape`] — a GEMM between an `m x k` activation and a
//!   `k x n` weight (or KV) matrix. The token dimension `m` controls
//!   both the Op/B and the engine efficiency.
//! * [`Kernel::Softmax`] — the row-wise softmax inside attention
//!   (a dedicated module on the logic die for the PIM engines).
//! * [`Kernel::Elementwise`] — gated activations, residual adds,
//!   weighted expert summation.

/// Dimensions of one GEMM: activations `m x k` times weights `k x n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Token (row) dimension of the activations.
    pub m: u64,
    /// Output-feature dimension.
    pub n: u64,
    /// Inner (reduction) dimension.
    pub k: u64,
}

impl GemmShape {
    /// Floating-point operations: 2·m·n·k multiply-accumulates.
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }

    /// Bytes of resident weights streamed from DRAM at `bytes_per_elem`
    /// precision (2 for FP16).
    pub fn weight_bytes(&self, bytes_per_elem: u64) -> u64 {
        self.n * self.k * bytes_per_elem
    }

    /// Arithmetic intensity in FLOP per DRAM byte, counting only the
    /// weight traffic (the paper's convention: activations stay
    /// on-chip for the layer shapes of interest).
    ///
    /// For an expert FFN GEMM this evaluates to ~`m`, the number of
    /// tokens routed to the expert — the paper's observation that MoE
    /// Op/B is "at least 1" and rises with batched tokens.
    pub fn op_b(&self, bytes_per_elem: u64) -> f64 {
        self.flops() / self.weight_bytes(bytes_per_elem) as f64
    }
}

/// One costed unit of work.
///
/// All fields are integers, so a `Kernel` is `Eq + Hash` and doubles as
/// the memoization key for [`crate::Engine`]'s pricing cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// GEMM with an explicit count of DRAM bytes it must stream (weights
    /// or KV cache; the caller decides what is resident).
    Gemm {
        /// The GEMM dimensions.
        shape: GemmShape,
        /// Bytes read from DRAM.
        dram_bytes: u64,
    },
    /// Row-wise softmax over `rows x cols` scores (fused: no DRAM
    /// round-trip, priced on the vector/softmax units).
    Softmax {
        /// Number of independent rows.
        rows: u64,
        /// Row length.
        cols: u64,
    },
    /// Element-wise map over `elems` elements (gated activation,
    /// residual add, expert-weighted summation), fused with producers.
    Elementwise {
        /// Element count.
        elems: u64,
    },
    /// A raw DRAM transfer of `bytes` (KV-cache migration, partial-sum
    /// reads for the on-device all-reduce).
    Stream {
        /// Bytes moved.
        bytes: u64,
        /// Whether the transfer writes (writes pay the write premium).
        write: bool,
    },
}

impl Kernel {
    /// FLOPs performed by the kernel.
    pub fn flops(&self) -> f64 {
        match self {
            Kernel::Gemm { shape, .. } => shape.flops(),
            // max + sub + exp + sum + div ~ 5 ops per element.
            Kernel::Softmax { rows, cols } => 5.0 * (*rows as f64) * (*cols as f64),
            Kernel::Elementwise { elems } => 2.0 * *elems as f64,
            Kernel::Stream { .. } => 0.0,
        }
    }

    /// Bytes the kernel must move through DRAM.
    pub fn dram_bytes(&self) -> u64 {
        match self {
            Kernel::Gemm { dram_bytes, .. } => *dram_bytes,
            Kernel::Softmax { .. } | Kernel::Elementwise { .. } => 0,
            Kernel::Stream { bytes, .. } => *bytes,
        }
    }

    /// Arithmetic intensity (FLOP per DRAM byte); `None` when the kernel
    /// touches no DRAM.
    pub fn op_b(&self) -> Option<f64> {
        let bytes = self.dram_bytes();
        (bytes > 0).then(|| self.flops() / bytes as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expert_gemm_op_b_tracks_token_count() {
        // Paper Sec. III-A: an expert processing t tokens has Op/B ~ t.
        for t in [1u64, 4, 17, 64] {
            let g = GemmShape {
                m: t,
                n: 14336,
                k: 4096,
            };
            assert!((g.op_b(2) - t as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn gqa_attention_op_b_matches_group_degree() {
        // Decode attention for one GQA group: (deg x d_head) Q times
        // (d_head x L) K^T; DRAM traffic is the K slice. Op/B ~ deg.
        let deg = 4u64;
        let d_head = 128u64;
        let ctx = 2048u64;
        let score = GemmShape {
            m: deg,
            n: ctx,
            k: d_head,
        };
        let k_bytes = ctx * d_head * 2;
        let op_b = score.flops() / k_bytes as f64;
        assert!((op_b - deg as f64).abs() < 1e-9);
    }

    #[test]
    fn flops_and_bytes_scale() {
        let g = GemmShape { m: 2, n: 3, k: 5 };
        assert_eq!(g.flops(), 60.0);
        assert_eq!(g.weight_bytes(2), 30);
    }

    #[test]
    fn kernel_accessors() {
        let k = Kernel::Gemm {
            shape: GemmShape { m: 1, n: 2, k: 3 },
            dram_bytes: 12,
        };
        assert_eq!(k.dram_bytes(), 12);
        assert_eq!(k.flops(), 12.0);
        assert_eq!(k.op_b(), Some(1.0));

        let s = Kernel::Softmax {
            rows: 10,
            cols: 100,
        };
        assert_eq!(s.flops(), 5000.0);
        assert_eq!(s.op_b(), None);

        let e = Kernel::Elementwise { elems: 8 };
        assert_eq!(e.flops(), 16.0);

        let st = Kernel::Stream {
            bytes: 64,
            write: false,
        };
        assert_eq!(st.flops(), 0.0);
        assert_eq!(st.dram_bytes(), 64);
    }
}
