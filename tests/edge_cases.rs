//! Degenerate-instance sweep: every shipping policy through
//! [`SteppingEngine::step`] *and* [`SteppingEngine::step_checked`] on the
//! boundary cases a grid sweep never hits — a one-slot cache (`k = 1`), a
//! one-page universe (`n = 1`), the empty trace, and a single endlessly
//! repeated page. Policies differ in *which* page they evict, but on
//! these instances there is no choice to make, so hit/miss behaviour is
//! fully determined and must be identical across all eleven policies —
//! and identical between the trusting and the checked step paths.

use occ_analysis::policies::{PolicyEntry, POLICIES};
use occ_core::{CostProfile, Monomial};
use occ_sim::{FaultHandler, FaultPolicy, StepOutcome, SteppingEngine, Trace, Universe};

/// The registry's policies, i.e. everything `occ run --policy …` accepts,
/// after checking the roster is the eleven that ship.
fn every_policy() -> &'static [PolicyEntry] {
    assert_eq!(POLICIES.len(), 11, "the sweep covers eleven policies");
    POLICIES
}

/// Drive `trace` through a fresh engine twice — once via the trusting
/// `step`, once via `step_checked` under fail-fast — and assert the two
/// paths agree step for step before returning the outcomes and the final
/// per-user miss vector.
fn run_both(
    policy: &PolicyEntry,
    universe: &Universe,
    trace: &Trace,
    costs: &CostProfile,
    k: usize,
) -> (Vec<StepOutcome>, Vec<u64>) {
    let name = policy.name;
    let mut plain = SteppingEngine::new(k, universe.clone(), policy.build(costs, trace));
    let mut checked = SteppingEngine::new(k, universe.clone(), policy.build(costs, trace));
    let mut handler = FaultHandler::new(FaultPolicy::FailFast, universe.num_users());
    let mut outcomes = Vec::with_capacity(trace.len());
    for (_, req) in trace.iter() {
        let a = plain.step(req);
        let b = checked
            .step_checked(req, &mut handler)
            .unwrap_or_else(|e| panic!("{name}: well-formed request faulted: {e}"))
            .unwrap_or_else(|| panic!("{name}: well-formed request dropped"));
        assert_eq!(a, b, "{name}: step and step_checked disagree");
        outcomes.push(a);
    }
    let served = plain.stats().total_hits() + plain.stats().total_misses();
    assert_eq!(served, trace.len() as u64);
    assert_eq!(plain.stats().miss_vector(), checked.stats().miss_vector());
    let misses = plain.stats().miss_vector();
    (outcomes, misses)
}

#[test]
fn empty_trace_is_a_noop_for_every_policy() {
    let universe = Universe::uniform(2, 2);
    let trace = Trace::from_page_indices(&universe, &[]);
    let costs = CostProfile::uniform(2, Monomial::power(2.0));
    assert!(trace.is_empty());
    for policy in every_policy() {
        let name = policy.name;
        let (outcomes, misses) = run_both(policy, &universe, &trace, &costs, 3);
        assert!(outcomes.is_empty(), "{name}: no requests, no outcomes");
        assert_eq!(misses, vec![0, 0], "{name}: no requests, no misses");
    }
}

#[test]
fn one_page_universe_misses_once_then_always_hits() {
    // n = 1 page, k = 1 slot, one user asking for the same page forever:
    // the only possible schedule is one compulsory miss followed by hits.
    let universe = Universe::single_user(1);
    let trace = Trace::from_page_indices(&universe, &[0; 8]);
    let costs = CostProfile::uniform(1, Monomial::power(2.0));
    for policy in every_policy() {
        let name = policy.name;
        let (outcomes, misses) = run_both(policy, &universe, &trace, &costs, 1);
        assert_eq!(outcomes[0], StepOutcome::Inserted, "{name}");
        assert!(
            outcomes[1..].iter().all(|o| *o == StepOutcome::Hit),
            "{name}: repeats of a cached page must hit: {outcomes:?}"
        );
        assert_eq!(misses, vec![1], "{name}");
    }
}

#[test]
fn single_repeated_page_hits_even_in_a_crowded_universe() {
    // Many pages exist, but the trace only ever touches one of them: the
    // eviction policy is irrelevant because nothing else enters the cache.
    let universe = Universe::uniform(2, 3);
    let trace = Trace::from_page_indices(&universe, &[4; 10]);
    let costs = CostProfile::uniform(2, Monomial::power(2.0));
    for policy in every_policy() {
        let name = policy.name;
        let (outcomes, misses) = run_both(policy, &universe, &trace, &costs, 2);
        assert_eq!(outcomes[0], StepOutcome::Inserted, "{name}");
        assert!(
            outcomes[1..].iter().all(|o| *o == StepOutcome::Hit),
            "{name}"
        );
        // Page 4 belongs to the second user (pages 0–2 to user 0, 3–5 to
        // user 1), so exactly that user's miss counter moves.
        assert_eq!(misses, vec![0, 1], "{name}");
    }
}

#[test]
fn capacity_one_cache_leaves_no_eviction_choice() {
    // k = 1: the cache holds a single page, so every policy produces the
    // same fully determined outcome sequence.
    let universe = Universe::single_user(3);
    let costs = CostProfile::uniform(1, Monomial::power(2.0));

    // Distinct pages back to back: everything misses, and from the second
    // request on every fetch evicts the previous page.
    let cycle = Trace::from_page_indices(&universe, &[0, 1, 2, 0, 1, 2]);
    for policy in every_policy() {
        let name = policy.name;
        let (outcomes, misses) = run_both(policy, &universe, &cycle, &costs, 1);
        assert_eq!(misses, vec![6], "{name}: one slot, all distinct ⇒ all miss");
        assert_eq!(outcomes[0], StepOutcome::Inserted, "{name}");
        assert!(
            outcomes[1..]
                .iter()
                .all(|o| matches!(o, StepOutcome::Evicted(_))),
            "{name}: a full one-slot cache must evict on every miss: {outcomes:?}"
        );
    }

    // Paired repeats: the second of each pair hits, the rest miss.
    let pairs = Trace::from_page_indices(&universe, &[0, 0, 1, 1, 2, 2]);
    for policy in every_policy() {
        let name = policy.name;
        let (outcomes, misses) = run_both(policy, &universe, &pairs, &costs, 1);
        assert_eq!(misses, vec![3], "{name}");
        let expect = [
            StepOutcome::Inserted,
            StepOutcome::Hit,
            StepOutcome::Evicted(occ_sim::PageId(0)),
            StepOutcome::Hit,
            StepOutcome::Evicted(occ_sim::PageId(1)),
            StepOutcome::Hit,
        ];
        assert_eq!(outcomes, expect, "{name}");
    }
}

#[test]
fn single_user_universe_runs_every_policy_clean() {
    // n = 1 *user* (the degenerate multi-tenant instance): a small page
    // set with reuse, checked through both step paths. Policies may pick
    // different victims here, so only per-policy internal consistency and
    // the miss-vector shape are asserted.
    let universe = Universe::single_user(4);
    let trace = Trace::from_page_indices(&universe, &[0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]);
    let costs = CostProfile::uniform(1, Monomial::power(2.0));
    for policy in every_policy() {
        let name = policy.name;
        let (outcomes, misses) = run_both(policy, &universe, &trace, &costs, 2);
        assert_eq!(misses.len(), 1, "{name}: one user, one counter");
        let observed: u64 = outcomes
            .iter()
            .filter(|o| !matches!(o, StepOutcome::Hit))
            .count() as u64;
        assert_eq!(misses[0], observed, "{name}: stats agree with outcomes");
        // The first two distinct requests fill the empty cache; the cold
        // start is identical for everyone.
        assert_eq!(outcomes[0], StepOutcome::Inserted, "{name}");
        assert_eq!(outcomes[1], StepOutcome::Inserted, "{name}");
        assert!(misses[0] >= 4, "{name}: 4 distinct pages through k=2");
    }
}
