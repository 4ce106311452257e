//! Stage deltas: the incremental contract between the scheduler and a
//! [`crate::StageExecutor`].
//!
//! Continuous batching makes consecutive stages *almost* identical:
//! every surviving request advances one token, a few requests retire,
//! and a few new ones are admitted. A [`StageDelta`] describes exactly
//! that difference, so an executor that carries batch state across
//! stages (see `duplex-system`'s incremental path) can reprice a
//! pure-decode stage in O(1) from aggregates instead of re-sorting and
//! re-grouping the whole batch.
//!
//! # Delta invariants
//!
//! A delta transforms the batch of the *previously executed* stage into
//! the batch of the stage being executed, in this order:
//!
//! 1. **Advance** (implicit — every delta advances): each decode
//!    context grows by one, and every request admitted by the previous
//!    delta joins the decode set at context `prompt + 1` (its prefill
//!    produced one token).
//! 2. **Retire**: each entry of [`StageDelta::retire`] removes one
//!    request by its *post-advance* decode context — the context the
//!    request would have attended in this stage had it stayed. A
//!    request admitted by the previous delta with `output_len == 1`
//!    retires here with context `prompt + 1`.
//! 3. **Admit**: each entry of [`StageDelta::admit`] adds a prefill of
//!    that length to this stage (making it mixed). The admitted
//!    requests join the decode set at the next delta's advance step, at
//!    context `join + 1`, where `join` is the matching entry of
//!    [`StageDelta::admit_ctx`] — or the prefill length itself when
//!    `admit_ctx` is empty (the common no-reuse case).
//!
//! `admit_ctx` exists for *prefix reuse*: a multi-turn follow-up whose
//! conversation KV is still resident prefills only its new suffix
//! tokens (`admit`) but decodes over its full history (`admit_ctx`).
//! The scenario scheduler fills it for every join, reuse or not; other
//! producers may leave it empty, which means no reuse.
//!
//! Under *chunked prefill* a long prompt is additionally split into
//! bounded slices across consecutive stages. Every slice but the last
//! is announced through [`StageDelta::chunk`] as `(new, past)` — it is
//! priced as a prefill-with-past in its stage but never joins the
//! decode set; the final slice arrives as a normal admission whose
//! `admit_ctx` covers the whole prompt. Chunks therefore leave the
//! carried decode membership untouched, keeping the incremental
//! executor O(changes).
//!
//! The first delta of a run sets [`StageDelta::fresh`], telling the
//! executor to clear any batch state left over from a previous run
//! before applying the delta (an executor may be reused across runs).

/// What changed in the continuous batch since the last executed stage.
///
/// See the [module docs](self) for the exact application order and
/// invariants. The vectors are owned so the scheduler can reuse their
/// capacity across stages.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageDelta {
    /// First stage of a run: the executor must reset its batch state
    /// before applying this delta.
    pub fresh: bool,
    /// Prefilled prompt lengths of the requests admitted to this stage
    /// (each one prefills now and decodes from the next stage on).
    /// Under prefix reuse this is only the non-resident suffix.
    pub admit: Vec<u64>,
    /// Post-prefill decode-join context of each admitted request,
    /// parallel to `admit`. The scenario scheduler always fills it.
    /// Other producers may leave it empty, meaning "no reuse": every
    /// request joins at its prefilled prompt length, priced exactly as
    /// `admit_ctx == admit`. Non-empty requires
    /// `admit_ctx.len() == admit.len()` and `admit_ctx[i] >= admit[i]`.
    /// The difference `admit_ctx[i] - admit[i]` is the resident past
    /// the admission's new tokens cross-attend over
    /// (prefill-with-past pricing).
    pub admit_ctx: Vec<u64>,
    /// Intermediate prefill chunks processed this stage, as
    /// `(new_tokens, past_ctx)` pairs: under chunked prefill a long
    /// prompt is split into bounded slices, and every slice but the
    /// last is announced here. Chunks attend over `past_ctx` resident
    /// tokens, write their own KV, and do **not** join the decode set —
    /// the prompt's final slice is announced through
    /// [`StageDelta::admit`] / [`StageDelta::admit_ctx`] instead and
    /// joins as usual.
    pub chunk: Vec<(u64, u64)>,
    /// Post-advance decode contexts of the requests that retired after
    /// the previous stage.
    pub retire: Vec<u64>,
}

impl StageDelta {
    /// A delta that starts a run: clears executor state, no events yet.
    pub fn start() -> Self {
        Self {
            fresh: true,
            ..Self::default()
        }
    }

    /// True when this delta only advances the batch: no admissions, no
    /// retirements, no reset — the case an incremental executor prices
    /// in O(1).
    pub fn is_pure_advance(&self) -> bool {
        !self.fresh && self.admit.is_empty() && self.chunk.is_empty() && self.retire.is_empty()
    }

    /// The decode-join context of each admitted request: `admit_ctx`
    /// when populated (prefix reuse), the prefilled lengths otherwise.
    pub fn join_contexts(&self) -> &[u64] {
        debug_assert!(
            self.admit_ctx.is_empty() || self.admit_ctx.len() == self.admit.len(),
            "admit_ctx must be empty or parallel to admit"
        );
        if self.admit_ctx.is_empty() {
            &self.admit
        } else {
            &self.admit_ctx
        }
    }

    /// Resident past each admission's new tokens attend over:
    /// `admit_ctx[i] - admit[i]`, or 0 for every entry when `admit_ctx`
    /// is empty (no reuse).
    pub fn admit_past(&self, i: usize) -> u64 {
        self.admit_ctx
            .get(i)
            .map_or(0, |ctx| ctx.saturating_sub(self.admit[i]))
    }

    /// Reset to a pure advance, keeping vector capacity for reuse.
    pub fn clear(&mut self) {
        self.fresh = false;
        self.admit.clear();
        self.admit_ctx.clear();
        self.chunk.clear();
        self.retire.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_is_fresh_and_not_pure() {
        let d = StageDelta::start();
        assert!(d.fresh);
        assert!(!d.is_pure_advance());
    }

    #[test]
    fn clear_keeps_capacity_and_purity() {
        let mut d = StageDelta::start();
        d.admit.extend([128, 256]);
        d.admit_ctx.extend([128, 900]);
        d.chunk.push((64, 512));
        d.retire.push(1000);
        d.clear();
        assert!(d.is_pure_advance());
        assert!(d.admit.capacity() >= 2);
        assert!(d.retire.capacity() >= 1);
        assert!(d.admit_ctx.is_empty());
        assert!(d.chunk.is_empty());
    }

    #[test]
    fn chunks_break_pure_advance_but_not_joins() {
        let mut d = StageDelta::start();
        d.clear();
        assert!(d.is_pure_advance());
        d.chunk.push((64, 128));
        assert!(!d.is_pure_advance(), "a chunk stage is mixed");
        assert!(
            d.join_contexts().is_empty(),
            "held chunks never join the decode set"
        );
    }

    #[test]
    fn join_contexts_defaults_to_admit() {
        let mut d = StageDelta::start();
        d.admit.extend([128, 256]);
        assert_eq!(d.join_contexts(), &[128, 256]);
        assert_eq!(d.admit_past(0), 0);
        assert_eq!(d.admit_past(1), 0);
        // Prefix reuse: the second request prefills 256 new tokens but
        // joins decode over its full 900-token history — 644 of which
        // its prefill cross-attends as resident past.
        d.admit_ctx.extend([128, 900]);
        assert_eq!(d.join_contexts(), &[128, 900]);
        assert_eq!(d.admit_past(0), 0);
        assert_eq!(d.admit_past(1), 644);
    }
}
