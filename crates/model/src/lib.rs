//! LLM architecture descriptions for the Duplex simulator.
//!
//! This crate knows what work an LLM stage *is*, independent of the
//! hardware that runs it:
//!
//! * [`config`] — model configurations (decoder count, hidden and
//!   intermediate dimensions, GQA group degree, expert count, top-k)
//!   with presets for the five models of Table I: Mixtral-8x7B, GLaM,
//!   Grok-1, OPT-66B and Llama3-70B; parameter counting and KV-cache
//!   sizing.
//! * [`ops`] — given the composition of a continuous-batching stage
//!   (which sequences are decoding at what context length, which are
//!   prefilling at what input length), enumerate every GEMM, attention
//!   operation and MoE expert invocation with exact shapes.
//! * [`routing`] — the gate: uniform (or skewed) top-k expert selection
//!   per token, producing per-expert token histograms, the input to
//!   expert co-processing.
//!
//! # Example
//!
//! ```
//! use duplex_model::{ModelConfig, ops::StageShape};
//! use duplex_model::routing::ExpertRouter;
//!
//! let mixtral = ModelConfig::mixtral_8x7b();
//! assert_eq!(mixtral.n_experts, 8);
//! // ~47B parameters, as in Table I.
//! let b = mixtral.param_count() as f64 / 1e9;
//! assert!((b - 47.0).abs() < 2.0);
//!
//! // A decoding-only stage with 4 requests at context 1024.
//! let stage = StageShape::decode_only(&[1024; 4]);
//! let mut rng = rand::rng();
//! let router = ExpertRouter::uniform(mixtral.n_experts, mixtral.top_k);
//! let work = duplex_model::ops::enumerate_stage(&mixtral, &stage, &router, &mut rng);
//! assert_eq!(work.moe.len(), mixtral.moe_block_count() as usize);
//! ```

pub mod config;
pub mod kv_cache;
pub mod ops;
pub mod routing;

pub use config::ModelConfig;
pub use kv_cache::{KvCacheError, PagedKvCache};
pub use ops::{AttnOp, ContextGroups, FcOp, MoeLayerWork, StageShape, StageWork};
pub use routing::ExpertRouter;

/// `x as f64`, exactly. Below 2^63 it converts through `i64`, whose
/// conversion is one instruction on every x86-64; baseline x86-64 has
/// none for `u64`, so `x as f64` becomes a sequence of several. Both
/// round the same integer to nearest, so the results are the same
/// bits. Above, it halves `x` keeping the dropped bit as a sticky bit,
/// converts and doubles, which rounds the same way. Written with `x as
/// f64` as the fallback, the optimizer folds the branch back into the
/// plain conversion. Stage pricing and the latency digests convert
/// counts this way on every stage.
#[inline(always)]
pub fn count_f64(x: u64) -> f64 {
    match i64::try_from(x) {
        Ok(signed) => signed as f64,
        Err(_) => ((x >> 1 | x & 1) as i64 as f64) * 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::count_f64;

    #[test]
    fn count_f64_is_the_plain_conversion() {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let edges = (0..64).flat_map(|b| {
            let p = 1u64 << b;
            [p - 1, p, p + 1, p | (p >> 1), !0 >> (63 - b)]
        });
        let hashed = (0..100_000).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x >> (x % 64)
        });
        for v in edges.chain(hashed).chain([u64::MAX, u64::MAX - 1, 0]) {
            assert_eq!(count_f64(v).to_bits(), (v as f64).to_bits(), "{v}");
        }
    }
}
