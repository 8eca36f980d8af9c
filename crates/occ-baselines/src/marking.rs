//! The marking algorithm — phase-based paging.
//!
//! Pages are marked when requested; a victim is always an unmarked page,
//! and when every cached page is marked a new phase begins (all marks are
//! cleared). Deterministic marking is `k`-competitive; it is the textbook
//! alternative to LRU and a useful cost-blind baseline because its phase
//! structure reacts differently to adversarial cycles.
//!
//! [`Marking`] (the default) runs in `O(1)` per request on two intrusive
//! lists sharing one [`PageLists`] arena: the cached *unmarked* pages and
//! the cached *marked* pages, each kept in last-use order. A touch moves
//! the page to the back of the marked list; a phase reset splices the
//! whole marked list (already in last-use order, since touches append)
//! onto the empty unmarked list in `O(k)` — amortized `O(1)`, as a phase
//! spans at least `k` requests. The victim is always the unmarked front.
//! It is checked eviction for eviction against the marking key oracle
//! (`occ_oracle::marking`).

use crate::state_util::{encode_pages, PageDecoder};
use occ_sim::{EngineCtx, PageId, PageLists, PolicyState, ReplacementPolicy, SnapshotError};

/// Index of the unmarked list in the shared arena.
const UNMARKED: usize = 0;
/// Index of the marked list in the shared arena.
const MARKED: usize = 1;

/// Deterministic marking: evicts the unmarked page with the oldest last
/// use, in `O(1)` amortized per request.
#[derive(Debug, Default)]
pub struct Marking {
    /// Two lists over the cached pages: `UNMARKED` and `MARKED`, each in
    /// increasing last-use order.
    lists: PageLists,
}

impl Marking {
    /// A fresh marking policy.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn touch(&mut self, ctx: &EngineCtx, page: PageId) {
        self.lists.ensure(2, ctx.universe.num_pages() as usize);
        self.lists.move_to_back(MARKED, page);
    }
}

impl ReplacementPolicy for Marking {
    fn name(&self) -> String {
        "marking".into()
    }

    fn on_hit(&mut self, ctx: &EngineCtx, page: PageId) {
        self.touch(ctx, page);
    }

    fn on_insert(&mut self, ctx: &EngineCtx, page: PageId) {
        self.touch(ctx, page);
    }

    fn choose_victim(&mut self, _ctx: &EngineCtx, _incoming: PageId) -> PageId {
        if self.lists.is_empty(UNMARKED) {
            // New phase: every cached page is marked. The marked list is
            // already in last-use order, so it becomes the unmarked list
            // wholesale.
            self.lists.append_list(UNMARKED, MARKED);
        }
        self.lists
            .pop_front(UNMARKED)
            .expect("a phase reset guarantees an unmarked page")
    }

    fn on_external_removal(&mut self, _ctx: &EngineCtx, page: PageId) {
        self.lists.remove_if_linked(page);
    }

    fn reset(&mut self) {
        self.lists.reset();
    }

    fn save_state(&self) -> Option<PolicyState> {
        let mut s = PolicyState::new();
        s.set_u64s("unmarked", encode_pages(self.lists.iter(UNMARKED)));
        s.set_u64s("marked", encode_pages(self.lists.iter(MARKED)));
        Some(s)
    }

    fn load_state(&mut self, ctx: &EngineCtx, state: &PolicyState) -> Result<(), SnapshotError> {
        // One decoder across both lists: a page in both is corruption.
        let mut dec = PageDecoder::new(ctx);
        let unmarked = dec.cached_pages(ctx, state.u64s("unmarked")?, "unmarked")?;
        let marked = dec.cached_pages(ctx, state.u64s("marked")?, "marked")?;
        self.lists.reset();
        self.lists.ensure(2, ctx.universe.num_pages() as usize);
        for p in unmarked {
            self.lists.push_back(UNMARKED, p);
        }
        for p in marked {
            self.lists.push_back(MARKED, p);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occ_sim::{Simulator, Trace, Universe};

    #[test]
    fn marked_pages_survive_within_phase() {
        // k=2: 0 1 — both marked. 2 arrives: phase reset, evict oldest (0).
        // Then 1 is still cached (marked anew? no: reset unmarked both, 2
        // got marked on insert). Request 1 hits and marks it.
        let u = Universe::single_user(4);
        let trace = Trace::from_page_indices(&u, &[0, 1, 2, 1, 3]);
        let r = Simulator::new(2)
            .record_events(true)
            .run(&mut Marking::new(), &trace);
        let ev = r.events.unwrap().eviction_sequence();
        // t=2: evict 0. t=4: cache {2 marked, 1 marked} → reset, evict 2
        // (older stamp than 1's refreshed stamp).
        assert_eq!(ev, vec![(2, PageId(0)), (4, PageId(2))]);
    }

    #[test]
    fn cycle_still_k_competitive_shape() {
        let u = Universe::single_user(4);
        let pages: Vec<u32> = (0..40).map(|i| i % 4).collect();
        let trace = Trace::from_page_indices(&u, &pages);
        let r = Simulator::new(3).run(&mut Marking::new(), &trace);
        // Marking also thrashes on the (k+1)-cycle.
        assert_eq!(r.total_misses(), 40);
    }

    #[test]
    fn working_set_protected() {
        let u = Universe::single_user(5);
        // Hot pages 0,1 plus a stream of cold singles: hot pages stay.
        let trace = Trace::from_page_indices(&u, &[0, 1, 2, 0, 1, 3, 0, 1, 4, 0, 1]);
        let r = Simulator::new(3).run(&mut Marking::new(), &trace);
        // Hot pages miss once each; cold pages miss each time: 2 + 3.
        assert_eq!(r.total_misses(), 5);
    }

    #[test]
    fn matches_reference_eviction_for_eviction() {
        let u = Universe::single_user(10);
        let mut state = 0xABCDEF12345u64;
        let pages: Vec<u32> = (0..3_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 10) as u32
            })
            .collect();
        let trace = Trace::from_page_indices(&u, &pages);
        for k in [1, 2, 4, 7, 9] {
            let a = Simulator::new(k)
                .record_events(true)
                .run(&mut Marking::new(), &trace)
                .events
                .unwrap()
                .eviction_sequence();
            let b = Simulator::new(k)
                .record_events(true)
                .run(&mut occ_oracle::marking(), &trace)
                .events
                .unwrap()
                .eviction_sequence();
            assert_eq!(a, b, "diverged at k={k}");
        }
    }
}
