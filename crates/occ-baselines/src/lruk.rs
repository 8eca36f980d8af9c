//! LRU-K (O'Neil, O'Neil & Weikum \[16\]) — evict the page whose K-th most
//! recent reference is oldest.
//!
//! The paper cites LRU-K as the production-grade cost-blind policy used
//! by shared-memory database systems; it weighs reference *history* so a
//! page touched twice recently beats a page scanned once. Pages with
//! fewer than K references have backward K-distance ∞ and are preferred
//! victims (ties by oldest last reference — the classic tie-break).
//!
//! [`LruK`] stores each page's last-K reference times in
//! one flat `num_pages × K` ring buffer (no per-page `VecDeque`, no
//! allocation after sizing) and keeps the cached pages in an incremental
//! ordered set keyed by `(kth-recent, last, page)`: touches and victim
//! selection are `O(log k)`, with no cache scan. It is checked eviction
//! for eviction against the LRU-K key oracle (`occ_oracle::lru_k`).

use crate::state_util::{corrupt, decode_u32s};
use occ_sim::{EngineCtx, PageId, PolicyState, ReplacementPolicy, SnapshotError};
use std::collections::BTreeSet;

/// LRU-K replacement. `K = 1` degenerates to LRU.
#[derive(Debug)]
pub struct LruK {
    k: usize,
    seq: u64,
    /// Flat ring of the last K reference times per page:
    /// `hist[p*k + slot]`.
    hist: Vec<u64>,
    /// Next write slot of each page's ring.
    head: Vec<u32>,
    /// Number of recorded references per page, saturating at K.
    count: Vec<u32>,
    /// Cached pages ordered by `(kth-recent stamp, last stamp, page)` —
    /// the first entry is the next victim.
    order: BTreeSet<(u64, u64, u32)>,
}

impl LruK {
    /// Create LRU-K with the given history depth `K ≥ 1`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "K must be at least 1");
        LruK {
            k,
            seq: 0,
            hist: Vec::new(),
            head: Vec::new(),
            count: Vec::new(),
            order: BTreeSet::new(),
        }
    }

    fn ensure(&mut self, ctx: &EngineCtx) {
        let n = ctx.universe.num_pages() as usize;
        if self.head.len() < n {
            self.hist.resize(n * self.k, 0);
            self.head.resize(n, 0);
            self.count.resize(n, 0);
        }
    }

    /// Record a reference to `page` in its ring.
    #[inline]
    fn record(&mut self, page: PageId) {
        let base = page.index() * self.k;
        let h = self.head[page.index()] as usize;
        self.seq += 1;
        self.hist[base + h] = self.seq;
        self.head[page.index()] = ((h + 1) % self.k) as u32;
        if (self.count[page.index()] as usize) < self.k {
            self.count[page.index()] += 1;
        }
    }

    /// Backward K-distance key: the time of the K-th most recent
    /// reference, or 0 (∞ distance) with the last reference as tie-break.
    #[inline]
    fn key(&self, page: PageId) -> (u64, u64) {
        let base = page.index() * self.k;
        let h = self.head[page.index()] as usize;
        let count = self.count[page.index()] as usize;
        // After a write, `head` points at the oldest stored stamp and
        // `head - 1` at the newest.
        let kth = if count >= self.k {
            self.hist[base + h]
        } else {
            0
        };
        let last = if count > 0 {
            self.hist[base + (h + self.k - 1) % self.k]
        } else {
            0
        };
        (kth, last)
    }

    #[inline]
    fn set_entry(&self, page: PageId) -> (u64, u64, u32) {
        let (kth, last) = self.key(page);
        (kth, last, page.0)
    }
}

impl ReplacementPolicy for LruK {
    fn name(&self) -> String {
        format!("lru-{}", self.k)
    }

    fn on_hit(&mut self, ctx: &EngineCtx, page: PageId) {
        self.ensure(ctx);
        self.order.remove(&self.set_entry(page));
        self.record(page);
        self.order.insert(self.set_entry(page));
    }

    fn on_insert(&mut self, ctx: &EngineCtx, page: PageId) {
        self.ensure(ctx);
        self.record(page);
        self.order.insert(self.set_entry(page));
    }

    fn choose_victim(&mut self, _ctx: &EngineCtx, _incoming: PageId) -> PageId {
        let &(kth, last, page) = self.order.first().expect("cache is full");
        self.order.remove(&(kth, last, page));
        PageId(page)
    }

    fn on_external_removal(&mut self, _ctx: &EngineCtx, page: PageId) {
        self.order.remove(&self.set_entry(page));
    }

    fn reset(&mut self) {
        self.seq = 0;
        self.hist.clear();
        self.head.clear();
        self.count.clear();
        self.order.clear();
    }

    fn save_state(&self) -> Option<PolicyState> {
        let mut s = PolicyState::new();
        s.set_u64("k", self.k as u64);
        s.set_u64("seq", self.seq);
        s.set_u64s("hist", self.hist.clone());
        s.set_u64s("head", self.head.iter().map(|&h| h as u64).collect());
        s.set_u64s("count", self.count.iter().map(|&c| c as u64).collect());
        Some(s)
    }

    fn load_state(&mut self, ctx: &EngineCtx, state: &PolicyState) -> Result<(), SnapshotError> {
        let k = state.u64("k")?;
        if k != self.k as u64 {
            return Err(corrupt(
                "k",
                format!("checkpointed K={k}, policy has K={}", self.k),
            ));
        }
        let seq = state.u64("seq")?;
        let head = decode_u32s(state.u64s("head")?, "head")?;
        let count = decode_u32s(state.u64s_len("count", head.len())?, "count")?;
        let hist = state.u64s_len("hist", head.len() * self.k)?;
        if head.len() > ctx.universe.num_pages() as usize {
            return Err(corrupt(
                "head",
                format!(
                    "{} entries for {} pages",
                    head.len(),
                    ctx.universe.num_pages()
                ),
            ));
        }
        if let Some(h) = head.iter().find(|&&h| h as usize >= self.k) {
            return Err(corrupt(
                "head",
                format!("ring slot {h} out of range for K={}", self.k),
            ));
        }
        if let Some(c) = count.iter().find(|&&c| c as usize > self.k) {
            return Err(corrupt(
                "count",
                format!("{c} recorded references exceed K={}", self.k),
            ));
        }
        if let Some(p) = ctx.cache.iter().find(|p| p.index() >= head.len()) {
            return Err(corrupt("head", format!("no entry for cached page {}", p.0)));
        }
        self.seq = seq;
        self.hist = hist.to_vec();
        self.head = head;
        self.count = count;
        // The order set holds exactly the cached pages keyed by the saved
        // histories, so it is rebuilt rather than stored.
        self.order = ctx.cache.iter().map(|p| self.set_entry(p)).collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occ_sim::{Simulator, Trace, Universe};

    #[test]
    fn k1_equals_lru() {
        use crate::lru::Lru;
        let u = Universe::single_user(5);
        let pages: Vec<u32> = (0..200).map(|i| (i * 7 + 1) % 5).collect();
        let trace = Trace::from_page_indices(&u, &pages);
        let a = Simulator::new(3)
            .record_events(true)
            .run(&mut LruK::new(1), &trace)
            .events
            .unwrap()
            .eviction_sequence();
        let b = Simulator::new(3)
            .record_events(true)
            .run(&mut Lru::new(), &trace)
            .events
            .unwrap()
            .eviction_sequence();
        assert_eq!(a, b);
    }

    #[test]
    fn scan_resistant_compared_to_lru() {
        // Hot pages 0,1 referenced repeatedly; then a one-off scan of 2.
        // LRU-2 evicts the scanned page (only one reference), keeping the
        // hot set.
        let u = Universe::single_user(4);
        let trace = Trace::from_page_indices(&u, &[0, 1, 0, 1, 2, 3]);
        let r = Simulator::new(3)
            .record_events(true)
            .run(&mut LruK::new(2), &trace);
        let ev = r.events.unwrap().eviction_sequence();
        assert_eq!(
            ev,
            vec![(5, PageId(2))],
            "the single-reference scan page goes first"
        );
    }

    #[test]
    fn fewer_than_k_references_preferred_over_history_rich() {
        let u = Universe::single_user(3);
        // 0 referenced twice, 1 once; victim for 2 must be 1.
        let trace = Trace::from_page_indices(&u, &[0, 0, 1, 2]);
        let r = Simulator::new(2)
            .record_events(true)
            .run(&mut LruK::new(2), &trace);
        assert_eq!(r.events.unwrap().eviction_sequence(), vec![(3, PageId(1))]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_k_rejected() {
        LruK::new(0);
    }

    #[test]
    fn matches_reference_eviction_for_eviction() {
        let u = Universe::single_user(9);
        let mut state = 0x5555AAAA5555u64;
        let pages: Vec<u32> = (0..2_500)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 9) as u32
            })
            .collect();
        let trace = Trace::from_page_indices(&u, &pages);
        for kk in [1, 2, 3, 5] {
            for cache in [2, 4, 8] {
                let a = Simulator::new(cache)
                    .record_events(true)
                    .run(&mut LruK::new(kk), &trace)
                    .events
                    .unwrap()
                    .eviction_sequence();
                let b = Simulator::new(cache)
                    .record_events(true)
                    .run(&mut occ_oracle::lru_k(kk), &trace)
                    .events
                    .unwrap()
                    .eviction_sequence();
                assert_eq!(a, b, "diverged at K={kk}, k={cache}");
            }
        }
    }
}
