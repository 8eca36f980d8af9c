//! Property tests pinning the optimized hot-path policies to the key
//! oracles of `occ-oracle`.
//!
//! Each deterministic baseline is also stated as a few-line eviction key
//! (`occ_oracle::KeySpec`) evaluated by one `O(k)` cache scan; the
//! defaults run on intrusive recency lists, dense swap-remove pools, and
//! flat history rings. Their eviction sequences must be
//! **byte-identical** on arbitrary traces and cache sizes, and also when
//! pages leave the cache from outside the policy. ALG-DISCRETE is
//! additionally pinned on its *slow* path: a non-convex cost profile
//! disables the intrusive-list fast path and must still reproduce the
//! literal Figure 3 sweeps decision-for-decision.

use occ_baselines::{Fifo, GreedyDual, Lru, LruK, Marking, RandomizedMarking};
use occ_core::{
    ConvexCaching, CostFn, CostProfile, DiscreteReference, Linear, Marginals, Monomial,
    ThresholdCost,
};
use occ_oracle::{KeySpec, MarkingSpec};
use occ_sim::{EngineCtx, PageId, ReplacementPolicy, Simulator, SteppingEngine, Trace, Universe};
use proptest::prelude::*;
use std::sync::Arc;

/// A random single-user instance: page sequence, universe size, cache
/// size (always smaller than the universe so evictions happen).
fn arb_paging_instance() -> impl Strategy<Value = (Universe, Vec<u32>, usize)> {
    (4u32..=12).prop_flat_map(|total| {
        (
            proptest::collection::vec(0..total, 30..300),
            1..=(total as usize - 1),
        )
            .prop_map(move |(pages, k)| (Universe::single_user(total), pages, k))
    })
}

fn evictions<P: ReplacementPolicy>(p: &mut P, trace: &Trace, k: usize) -> Vec<(u64, u32)> {
    Simulator::new(k)
        .record_events(true)
        .run(p, trace)
        .events
        .unwrap()
        .eviction_sequence()
        .iter()
        .map(|&(t, pg)| (t, pg.0))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lru_matches_reference((universe, pages, k) in arb_paging_instance()) {
        let trace = Trace::from_page_indices(&universe, &pages);
        prop_assert_eq!(
            evictions(&mut Lru::new(), &trace, k),
            evictions(&mut occ_oracle::lru(), &trace, k)
        );
    }

    #[test]
    fn fifo_matches_reference((universe, pages, k) in arb_paging_instance()) {
        let trace = Trace::from_page_indices(&universe, &pages);
        prop_assert_eq!(
            evictions(&mut Fifo::new(), &trace, k),
            evictions(&mut occ_oracle::fifo(), &trace, k)
        );
    }

    #[test]
    fn marking_matches_reference((universe, pages, k) in arb_paging_instance()) {
        let trace = Trace::from_page_indices(&universe, &pages);
        prop_assert_eq!(
            evictions(&mut Marking::new(), &trace, k),
            evictions(&mut occ_oracle::marking(), &trace, k)
        );
    }

    #[test]
    fn lruk_matches_reference(
        (universe, pages, k) in arb_paging_instance(),
        depth in 1usize..=4,
    ) {
        let trace = Trace::from_page_indices(&universe, &pages);
        prop_assert_eq!(
            evictions(&mut LruK::new(depth), &trace, k),
            evictions(&mut occ_oracle::lru_k(depth), &trace, k)
        );
    }

    #[test]
    fn greedy_dual_matches_reference(
        (users, pages_per) in (2u32..=4, 2u32..=4),
        raw_weights in proptest::collection::vec(0.01f64..100.0, 4),
        page_seed in proptest::collection::vec(0u32..16, 30..300),
        k in 2usize..=10,
    ) {
        // The flat-array Landlord (per-user recency lists, lazy
        // `w_u + offset` keys) against the key oracle:
        // byte-identical eviction sequences for arbitrary positive
        // weights, where key sums exercise float rounding.
        let total = users * pages_per;
        let universe = Universe::uniform(users, pages_per);
        let pages: Vec<u32> = page_seed.iter().map(|p| p % total).collect();
        let weights: Vec<f64> = raw_weights[..users as usize].to_vec();
        let k = k.min(total as usize - 1);
        let trace = Trace::from_page_indices(&universe, &pages);
        prop_assert_eq!(
            evictions(&mut GreedyDual::new(weights.clone()), &trace, k),
            evictions(&mut occ_oracle::greedy_dual(weights), &trace, k)
        );
    }

    #[test]
    fn rand_marking_reproducible_and_valid(
        (universe, pages, k) in arb_paging_instance(),
        seed in 0u64..1000,
    ) {
        // The randomized policy has no deterministic oracle, so it is
        // pinned behaviorally: every victim must be unmarked under the
        // marking key spec's own mark state, and equal seeds must
        // reproduce the run exactly.
        let trace = Trace::from_page_indices(&universe, &pages);
        let mut audited = Audited {
            policy: RandomizedMarking::new(seed),
            marks: MarkingSpec::default(),
            marked_victims: 0,
        };
        let a = evictions(&mut audited, &trace, k);
        let b = evictions(&mut RandomizedMarking::new(seed), &trace, k);
        prop_assert_eq!(a, b);
        prop_assert_eq!(audited.marked_victims, 0, "a marked page was evicted");
    }

    #[test]
    fn fast_policies_match_oracles_under_external_removals(
        (users, pages_per) in (1u32..=3, 2u32..=5),
        raw_weights in proptest::collection::vec(0.01f64..100.0, 3),
        page_seed in proptest::collection::vec(0u32..15, 30..300),
        k in 1usize..=10,
        depth in 1usize..=3,
        gap in 1usize..=5,
        drawn in proptest::collection::vec(0u32..15, 1..16),
    ) {
        // Every `gap` requests a drawn page leaves the cache from
        // outside the policy, as in a pool migration or a quarantine.
        // The oracle scans the live cache, so it is right by
        // construction; the fast policy must unlink the page itself.
        let total = users * pages_per;
        let universe = Universe::uniform(users, pages_per);
        let pages: Vec<u32> = page_seed.iter().map(|p| p % total).collect();
        let trace = Trace::from_page_indices(&universe, &pages);
        let k = k.min(total as usize - 1);
        let removals = Removals { gap, pages: drawn.iter().map(|p| p % total).collect() };
        let weights: Vec<f64> = raw_weights[..users as usize].to_vec();
        prop_assert_eq!(
            removals.run(Lru::new(), &trace, k),
            removals.run(occ_oracle::lru(), &trace, k),
            "lru"
        );
        prop_assert_eq!(
            removals.run(Fifo::new(), &trace, k),
            removals.run(occ_oracle::fifo(), &trace, k),
            "fifo"
        );
        prop_assert_eq!(
            removals.run(Marking::new(), &trace, k),
            removals.run(occ_oracle::marking(), &trace, k),
            "marking"
        );
        prop_assert_eq!(
            removals.run(LruK::new(depth), &trace, k),
            removals.run(occ_oracle::lru_k(depth), &trace, k),
            "lru-{}", depth
        );
        prop_assert_eq!(
            removals.run(GreedyDual::new(weights.clone()), &trace, k),
            removals.run(occ_oracle::greedy_dual(weights), &trace, k),
            "greedy-dual"
        );
    }
}

/// `RandomizedMarking` shadowed by the marking key spec, which sees the
/// same touches and phase resets and counts victims it holds marked.
struct Audited {
    policy: RandomizedMarking,
    marks: MarkingSpec,
    marked_victims: usize,
}

impl ReplacementPolicy for Audited {
    fn name(&self) -> String {
        self.policy.name()
    }

    fn on_hit(&mut self, ctx: &EngineCtx, page: PageId) {
        self.policy.on_hit(ctx, page);
        self.marks.touch(ctx, page, true);
    }

    fn on_insert(&mut self, ctx: &EngineCtx, page: PageId) {
        self.policy.on_insert(ctx, page);
        self.marks.touch(ctx, page, false);
    }

    fn choose_victim(&mut self, ctx: &EngineCtx, incoming: PageId) -> PageId {
        self.marks.before_victim(ctx);
        let victim = self.policy.choose_victim(ctx, incoming);
        self.marked_victims += usize::from(self.marks.key(victim).0);
        victim
    }
}

/// Eviction and removal sequences of one replay, as `(time, page)`.
type Sequences = (Vec<(u64, u32)>, Vec<(u64, u32)>);

/// External removals injected into a replay: after every `gap`-th
/// request, the next page of `pages` (cycling) is removed if cached.
struct Removals {
    gap: usize,
    pages: Vec<u32>,
}

impl Removals {
    fn run<P: ReplacementPolicy>(&self, policy: P, trace: &Trace, k: usize) -> Sequences {
        let mut engine = SteppingEngine::new(k, trace.universe().clone(), policy).with_events();
        let mut drawn = self.pages.iter().cycle();
        let mut removed = Vec::new();
        for (t, req) in trace.iter() {
            engine.step(req);
            if t as usize % self.gap == self.gap - 1 {
                let page = PageId(*drawn.next().expect("at least one drawn page"));
                if engine.remove_externally(page) {
                    removed.push((t, page.0));
                }
            }
        }
        let evicted = engine.take_events().unwrap().eviction_sequence();
        (evicted.iter().map(|&(t, p)| (t, p.0)).collect(), removed)
    }
}

/// Integer-parameter costs, including a non-convex threshold function,
/// keep all budget arithmetic exact so the slow path can be required to
/// match the reference bit-for-bit.
fn arb_cost_with_nonconvex() -> impl Strategy<Value = CostFn> {
    prop_oneof![
        (1u32..=5).prop_map(|w| Arc::new(Linear::new(w as f64)) as CostFn),
        (2u32..=3).prop_map(|b| Arc::new(Monomial::power(b as f64)) as CostFn),
        ((1u32..=3), (1u64..=6), (2u32..=12)).prop_map(|(s, th, j)| {
            Arc::new(ThresholdCost::new(s as f64, th, j as f64)) as CostFn
        }),
    ]
}

fn arb_multiuser_instance() -> impl Strategy<Value = (Universe, Vec<u32>, CostProfile, usize)> {
    (2u32..=3, 2u32..=4).prop_flat_map(|(users, pages_per)| {
        let total = users * pages_per;
        (
            proptest::collection::vec(0..total, 30..250),
            proptest::collection::vec(arb_cost_with_nonconvex(), users as usize),
            2..=((total - 1).max(2) as usize),
        )
            .prop_map(move |(pages, fns, k)| {
                (
                    Universe::uniform(users, pages_per),
                    pages,
                    CostProfile::new(fns),
                    k.min(total as usize - 1),
                )
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn alg_discrete_matches_figure3_on_both_paths(
        (universe, pages, costs, k) in arb_multiuser_instance()
    ) {
        // Depending on the drawn profile this exercises the intrusive-list
        // fast path (all functions convex) or the BTreeSet fallback (a
        // ThresholdCost present). Discrete marginals make the threshold
        // function meaningful.
        let trace = Trace::from_page_indices(&universe, &pages);
        let mut fast = ConvexCaching::new(costs.clone()).with_marginals(Marginals::Discrete);
        prop_assert_eq!(fast.uses_fast_path(), costs.all_convex());
        let mut reference = DiscreteReference::new(costs).with_marginals(Marginals::Discrete);
        prop_assert_eq!(
            evictions(&mut fast, &trace, k),
            evictions(&mut reference, &trace, k)
        );
    }

    #[test]
    fn alg_discrete_slow_path_matches_figure3(
        (universe, pages, _unused, k) in arb_multiuser_instance(),
        slope in 1u32..=3,
        threshold in 1u64..=6,
        jump in 2u32..=12,
    ) {
        // Force the slow path: at least one user always gets the
        // non-convex threshold cost.
        let users = universe.num_users();
        let mut fns: Vec<CostFn> = vec![Arc::new(ThresholdCost::new(
            slope as f64,
            threshold,
            jump as f64,
        )) as CostFn];
        for u in 1..users {
            fns.push(Arc::new(Linear::new(u as f64)) as CostFn);
        }
        let costs = CostProfile::new(fns);
        prop_assert!(!costs.all_convex());
        let trace = Trace::from_page_indices(&universe, &pages);
        let mut slow = ConvexCaching::new(costs.clone()).with_marginals(Marginals::Discrete);
        prop_assert!(!slow.uses_fast_path());
        let mut reference = DiscreteReference::new(costs).with_marginals(Marginals::Discrete);
        prop_assert_eq!(
            evictions(&mut slow, &trace, k),
            evictions(&mut reference, &trace, k)
        );
    }
}
