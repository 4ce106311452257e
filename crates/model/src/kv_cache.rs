//! Paged KV-cache management with recompute eviction (Sec. VIII-C of
//! the paper, after PagedAttention).
//!
//! The KV cache grows with batch size and sequence length; when it
//! outgrows device memory a serving system *evicts* requests. Here an
//! evicted entry's pages are dropped and its context is recomputed
//! (re-prefilled) when it is needed again; the entry remembers its
//! token count so the caller knows what a re-prefill covers. The other
//! side of the paper's trade, swapping a context out over a link and
//! restoring it later, is priced per preempted request by the
//! scheduler's `PreemptSpec`, not here.
//!
//! Pages are fixed-size blocks of tokens; a request owns a page list.
//! Eviction is LRU over requests (ongoing decode requests touch their
//! pages every stage, so LRU == "longest since scheduled").

use std::collections::HashMap;

/// Errors from cache operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvCacheError {
    /// The cache cannot fit the request even after evicting everything
    /// else.
    CapacityExceeded {
        /// Bytes requested.
        requested: u64,
        /// Total capacity.
        capacity: u64,
    },
}

impl std::fmt::Display for KvCacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvCacheError::CapacityExceeded {
                requested,
                capacity,
            } => {
                write!(f, "request needs {requested} bytes, cache holds {capacity}")
            }
        }
    }
}

impl std::error::Error for KvCacheError {}

#[derive(Debug, Clone)]
struct Entry {
    pages: u64,
    tokens: u64,
    last_touch: u64,
    resident: bool,
}

/// One cache entry as exported by [`PagedKvCache::export_entries`]:
/// everything needed to rebuild the entry (and the cache's LRU order)
/// exactly in [`PagedKvCache::import_entries`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvEntrySnapshot {
    /// The request (or conversation) owning the entry.
    pub request: u64,
    /// Pages currently allocated (0 for a recompute-evicted entry).
    pub pages: u64,
    /// Tokens of context the entry covers.
    pub tokens: u64,
    /// LRU clock stamp of the entry's last touch.
    pub last_touch: u64,
    /// Whether the pages are on-device.
    pub resident: bool,
}

/// Page-granular KV cache for one device pool.
#[derive(Debug, Clone)]
pub struct PagedKvCache {
    page_tokens: u64,
    bytes_per_token: u64,
    capacity_bytes: u64,
    clock: u64,
    entries: HashMap<u64, Entry>,
    resident_pages: u64,
}

impl PagedKvCache {
    /// A cache of `capacity_bytes` using pages of `page_tokens` tokens,
    /// with `bytes_per_token` from the model config.
    ///
    /// # Panics
    ///
    /// Panics if `page_tokens` or `bytes_per_token` is zero.
    pub fn new(capacity_bytes: u64, page_tokens: u64, bytes_per_token: u64) -> Self {
        assert!(page_tokens > 0, "pages must hold at least one token");
        assert!(bytes_per_token > 0, "tokens must occupy bytes");
        Self {
            page_tokens,
            bytes_per_token,
            capacity_bytes,
            clock: 0,
            entries: HashMap::new(),
            resident_pages: 0,
        }
    }

    fn page_bytes(&self) -> u64 {
        self.page_tokens * self.bytes_per_token
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_pages * self.page_bytes()
    }

    /// Admit a request with `tokens` of context, evicting LRU victims
    /// as needed. Returns how many entries it evicted.
    ///
    /// # Errors
    ///
    /// [`KvCacheError::CapacityExceeded`] if the request alone exceeds
    /// the cache.
    pub fn admit(&mut self, request: u64, tokens: u64) -> Result<u64, KvCacheError> {
        let pages = tokens.div_ceil(self.page_tokens);
        let bytes = pages * self.page_bytes();
        if bytes > self.capacity_bytes {
            return Err(KvCacheError::CapacityExceeded {
                requested: bytes,
                capacity: self.capacity_bytes,
            });
        }
        let mut evictions = 0;
        while self.resident_bytes() + bytes > self.capacity_bytes {
            assert!(
                self.evict_lru(Some(request)),
                "capacity invariant: another resident request exists"
            );
            evictions += 1;
        }
        self.clock += 1;
        self.entries.insert(
            request,
            Entry {
                pages,
                tokens,
                last_touch: self.clock,
                resident: true,
            },
        );
        self.resident_pages += pages;
        Ok(evictions)
    }

    /// Evict the least-recently-used resident request; false when
    /// nothing is resident. This is the external pressure hook: a
    /// scheduler that parks finished conversations' KV between turns
    /// calls it to make room for new admissions (reuse-aware
    /// accounting in the scenario suite).
    pub fn evict_one(&mut self) -> bool {
        self.evict_lru(None)
    }

    /// Drop the pages of the least-recently-used resident request other
    /// than `protect`, keeping its token count for the re-prefill.
    fn evict_lru(&mut self, protect: Option<u64>) -> bool {
        let victim = self
            .entries
            .iter_mut()
            .filter(|(id, e)| e.resident && Some(**id) != protect)
            .min_by_key(|(_, e)| e.last_touch);
        let Some((_, e)) = victim else {
            return false;
        };
        e.resident = false;
        self.resident_pages -= e.pages;
        e.pages = 0;
        true
    }

    /// Remove a finished request, freeing its pages.
    pub fn release(&mut self, request: u64) {
        if let Some(e) = self.entries.remove(&request) {
            if e.resident {
                self.resident_pages -= e.pages;
            }
        }
    }

    /// Tokens of a request's resident KV, `None` when absent or
    /// evicted. A parked conversation history is append-only, so a
    /// stale entry (parked by an earlier round) is a valid *prefix* of
    /// the current history — callers reusing it must credit this
    /// length, not the length they wish were resident.
    pub fn resident_tokens(&self, request: u64) -> Option<u64> {
        self.entries
            .get(&request)
            .filter(|e| e.resident)
            .map(|e| e.tokens)
    }

    /// Export the cache's dynamic state (LRU clock + entry table) for
    /// snapshotting. Entries are sorted by request id so the export is
    /// deterministic regardless of hash-map iteration order; each
    /// entry's `last_touch` stamp is unique (the clock is strictly
    /// increasing), so importing the list rebuilds the exact LRU order.
    pub fn export_entries(&self) -> (u64, Vec<KvEntrySnapshot>) {
        let mut entries: Vec<KvEntrySnapshot> = self
            .entries
            .iter()
            .map(|(id, e)| KvEntrySnapshot {
                request: *id,
                pages: e.pages,
                tokens: e.tokens,
                last_touch: e.last_touch,
                resident: e.resident,
            })
            .collect();
        entries.sort_unstable_by_key(|e| e.request);
        (self.clock, entries)
    }

    /// Replace the cache's dynamic state with a previously exported
    /// one. Capacity and page size are configuration and stay as
    /// constructed.
    pub fn import_entries(&mut self, clock: u64, entries: &[KvEntrySnapshot]) {
        self.clock = clock;
        self.entries.clear();
        self.resident_pages = 0;
        for s in entries {
            if s.resident {
                self.resident_pages += s.pages;
            }
            self.entries.insert(
                s.request,
                Entry {
                    pages: s.pages,
                    tokens: s.tokens,
                    last_touch: s.last_touch,
                    resident: s.resident,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity_tokens: u64) -> PagedKvCache {
        // 1 byte/token so capacities read directly in tokens.
        PagedKvCache::new(capacity_tokens, 16, 1)
    }

    /// Release and re-admit `request` at `tokens`: the re-parking that
    /// makes it the most recently used entry.
    fn touch(c: &mut PagedKvCache, request: u64, tokens: u64) {
        c.release(request);
        assert_eq!(c.admit(request, tokens), Ok(0), "re-parking fits");
    }

    #[test]
    fn admit_and_release_round_trip() {
        let mut c = cache(1024);
        assert_eq!(c.admit(1, 100), Ok(0), "fits without evicting");
        assert_eq!(c.resident_bytes(), 112); // 7 pages of 16
        assert_eq!(c.resident_tokens(1), Some(100));
        assert_eq!(c.resident_tokens(2), None);
        c.release(1);
        assert_eq!(c.resident_bytes(), 0);
        assert_eq!(c.resident_tokens(1), None);
    }

    #[test]
    fn oversized_request_rejected() {
        let mut c = cache(64);
        let err = c.admit(1, 100).expect_err("too big");
        assert!(matches!(err, KvCacheError::CapacityExceeded { .. }));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = cache(3 * 16);
        for r in 1..=3 {
            assert_eq!(c.admit(r, 16), Ok(0));
        }
        // Re-park request 1 so 2 becomes LRU.
        touch(&mut c, 1, 16);
        assert_eq!(c.admit(4, 16), Ok(1), "one page frees one slot");
        assert_eq!(c.resident_tokens(2), None);
        for r in [1, 3, 4] {
            assert_eq!(c.resident_tokens(r), Some(16), "request {r}");
        }
    }

    #[test]
    fn admit_counts_every_eviction_and_keeps_the_recompute_length() {
        let mut c = cache(4 * 16);
        assert_eq!(c.admit(1, 32), Ok(0));
        assert_eq!(c.admit(2, 16), Ok(0));
        assert_eq!(c.admit(3, 16), Ok(0));
        // Three pages evict 1 (two pages) and then 2.
        assert_eq!(c.admit(4, 48), Ok(2));
        assert_eq!(c.resident_bytes(), 4 * 16);
        // An evicted entry keeps its token count (what a recompute
        // re-prefills) and drops its pages.
        let (_, entries) = c.export_entries();
        let first = entries[0];
        assert_eq!((first.request, first.pages, first.tokens), (1, 0, 32));
        assert!(!first.resident);
        assert_eq!(c.resident_tokens(1), None);
    }

    #[test]
    fn evict_one_walks_lru_order_and_drains() {
        let mut c = cache(4 * 16);
        for r in 1..=3 {
            assert_eq!(c.admit(r, 16), Ok(0));
        }
        touch(&mut c, 1, 16);
        for gone in [2, 3, 1] {
            assert!(c.evict_one());
            assert_eq!(c.resident_tokens(gone), None, "request {gone}");
        }
        assert!(!c.evict_one(), "nothing resident is left");
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn export_import_round_trips_lru_order() {
        let mut c = cache(3 * 16);
        for r in 1..=3 {
            assert_eq!(c.admit(r, 16), Ok(0));
        }
        touch(&mut c, 1, 16);
        let (clock, entries) = c.export_entries();
        let mut restored = cache(3 * 16);
        restored.import_entries(clock, &entries);
        assert_eq!(restored.resident_bytes(), c.resident_bytes());
        // Same LRU victim as the original would pick.
        assert!(restored.evict_one());
        assert_eq!(restored.resident_tokens(2), None);
        assert_eq!(restored.resident_tokens(1), Some(16));
        assert_eq!(restored.export_entries().0, clock, "evict keeps clock");
    }

    #[test]
    fn resident_bytes_never_exceed_capacity() {
        let mut c = cache(8 * 16);
        for r in 0..20u64 {
            c.admit(r, 1 + (r % 40)).expect("fits after eviction");
            assert!(c.resident_bytes() <= 8 * 16, "at request {r}");
        }
    }
}
