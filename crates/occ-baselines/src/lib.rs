#![warn(missing_docs)]
//! Online baseline replacement policies.
//!
//! Every policy the paper positions itself against (plus the textbook
//! staples), implemented against the shared [`occ_sim`] engine so that
//! cross-policy cost comparisons differ only in eviction decisions:
//!
//! * cost-blind: [`Lru`], [`Fifo`], [`Lfu`], [`Marking`], [`RandomEvict`],
//!   [`LruK`] (the database-grade policy cited in §1.1 \[16\]);
//! * weight-aware: [`GreedyDual`] — Young's weighted caching \[20\], the
//!   `α = 1` linear special case of the paper;
//! * cost-aware but myopic: [`CostGreedy`] — marginal-cost eviction with
//!   no dual accounting, isolating the value of the paper's budgets.
//!
//! The hot-path policies (`Lru`, `Fifo`, `Marking`, `RandomizedMarking`,
//! `LruK`, `GreedyDual`) run on `O(1)`/`O(log k)` dense structures
//! (intrusive recency lists, swap-remove pools, flat history rings).
//! Each deterministic one is checked eviction for eviction against its
//! key spec in the test-support crate `occ-oracle`, which no shipping
//! crate links.

pub mod cost_greedy;
pub mod fifo;
pub mod greedy_dual;
pub mod lfu;
pub mod lru;
pub mod lruk;
pub mod marking;
pub mod rand_marking;
pub mod random_policy;
mod state_util;

pub use cost_greedy::CostGreedy;
pub use fifo::Fifo;
pub use greedy_dual::GreedyDual;
pub use lfu::Lfu;
pub use lru::Lru;
pub use lruk::LruK;
pub use marking::Marking;
pub use rand_marking::RandomizedMarking;
pub use random_policy::RandomEvict;

#[cfg(test)]
mod tests {
    use super::*;
    use occ_sim::{ReplacementPolicy, Trace, Universe};

    #[test]
    fn checkpoint_resume_is_byte_identical_for_supported_policies() {
        use occ_sim::{Request, SteppingEngine};

        // Resumed instances get *different* constructor parameters (seed,
        // for the randomized policies) so the test proves the checkpoint
        // itself — including mid-stream RNG words — carries the state.
        type Mk = fn() -> Box<dyn ReplacementPolicy>;
        let policies: Vec<(Mk, Mk)> = vec![
            (|| Box::new(Lru::new()), || Box::new(Lru::new())),
            (|| Box::new(Fifo::new()), || Box::new(Fifo::new())),
            (|| Box::new(Lfu::new()), || Box::new(Lfu::new())),
            (|| Box::new(Marking::new()), || Box::new(Marking::new())),
            (|| Box::new(LruK::new(2)), || Box::new(LruK::new(2))),
            (
                || Box::new(RandomEvict::new(42)),
                || Box::new(RandomEvict::new(999)),
            ),
            (
                || Box::new(RandomizedMarking::new(42)),
                || Box::new(RandomizedMarking::new(999)),
            ),
        ];

        let u = Universe::uniform(3, 5);
        let mut state = 0x1234_5678_9ABCu64;
        let pages: Vec<u32> = (0..400)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 15) as u32
            })
            .collect();
        let trace = Trace::from_page_indices(&u, &pages);
        let reqs: Vec<Request> = trace.requests().to_vec();
        let (k, cut) = (6, 173);

        for (mk, mk_resumed) in policies {
            let mut full_policy = mk();
            let name = full_policy.name();

            // Uninterrupted run.
            let mut full = SteppingEngine::new(k, u.clone(), &mut full_policy).with_events();
            for &r in &reqs {
                full.step(r);
            }
            let full_events = full.take_events().unwrap();
            let full_stats = full.stats().clone();

            // Run to the cut, snapshot, resume in a fresh engine + policy.
            let mut head_policy = mk();
            let mut head = SteppingEngine::new(k, u.clone(), &mut head_policy).with_events();
            for &r in &reqs[..cut] {
                head.step(r);
            }
            let snap = head.snapshot().unwrap_or_else(|e| panic!("{name}: {e}"));
            let head_events = head.take_events().unwrap();

            let mut tail_policy = mk_resumed();
            let mut tail = SteppingEngine::from_snapshot(&snap, &mut tail_policy)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .with_events();
            for &r in &reqs[cut..] {
                tail.step(r);
            }

            let mut stitched: Vec<_> = head_events.iter().cloned().collect();
            stitched.extend(tail.take_events().unwrap().iter().cloned());
            let full_events: Vec<_> = full_events.iter().cloned().collect();
            assert_eq!(stitched, full_events, "{name}: event streams diverged");
            assert_eq!(tail.stats(), &full_stats, "{name}: stats diverged");
        }
    }
}
