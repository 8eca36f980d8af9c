//! Property tests pinning the batched replay paths to their scalar
//! twins.
//!
//! `SteppingEngine::step` is the reference semantics; `step_batch` /
//! `run_batched` are the monomorphized chunk loops the throughput
//! baseline rides on. For every shipping policy, on arbitrary
//! multi-user traces, batch sizes (including trailing partial batches),
//! and cache sizes, the batched replay must be **byte-identical**:
//! same stats, same event log, same final cache, same engine snapshot.
//! The checked variant must additionally reproduce the scalar
//! `step_checked` loop's fault counters and quarantine sets on corrupt
//! request streams.

use occ_baselines::{
    Fifo, FifoReference, GreedyDual, Lru, LruK, LruKReference, LruReference, Marking,
    RandomizedMarking,
};
use occ_core::{ConvexCaching, CostProfile, Monomial};
use occ_sim::{
    FaultHandler, FaultPolicy, PageId, ReplacementPolicy, Request, SimEvent, SteppingEngine, Trace,
    TraceSource, Universe, UserId,
};
use proptest::prelude::*;

fn policy_suite(num_users: u32) -> Vec<Box<dyn ReplacementPolicy>> {
    let costs = CostProfile::uniform(num_users, Monomial::power(2.0));
    vec![
        Box::new(Lru::new()),
        Box::new(LruReference::new()),
        Box::new(Fifo::new()),
        Box::new(FifoReference::new()),
        Box::new(Marking::new()),
        Box::new(LruK::new(2)),
        Box::new(LruKReference::new(2)),
        Box::new(RandomizedMarking::new(7)),
        Box::new(ConvexCaching::new(costs)),
    ]
}

/// A random multi-user instance plus a batch size that exercises
/// trailing partial batches.
fn arb_instance() -> impl Strategy<Value = (Universe, Vec<u32>, usize, usize)> {
    (1u32..=3, 3u32..=6).prop_flat_map(|(users, per_user)| {
        let total = users * per_user;
        (
            proptest::collection::vec(0..total, 20..200),
            1..=(total as usize - 1),
            1usize..=40,
        )
            .prop_map(move |(pages, k, batch)| {
                (Universe::uniform(users, per_user), pages, k, batch)
            })
    })
}

type Outcome = (
    occ_sim::SimStats,
    occ_sim::Time,
    Vec<PageId>,
    Vec<SimEvent>,
    Option<occ_sim::EngineSnapshot>,
);

fn finish<P: ReplacementPolicy>(mut engine: SteppingEngine<P>) -> Outcome {
    // Some policies may not support snapshotting; compare whatever both
    // paths produce (both must then be None).
    let snap = engine.snapshot().ok();
    (
        engine.stats().clone(),
        engine.time(),
        engine.cache().sorted_pages(),
        engine
            .take_events()
            .map(|log| log.iter().copied().collect())
            .unwrap_or_default(),
        snap,
    )
}

fn run_scalar(
    policy: &mut Box<dyn ReplacementPolicy>,
    universe: &Universe,
    requests: &[Request],
    k: usize,
) -> Outcome {
    let mut engine = SteppingEngine::new(k, universe.clone(), &mut **policy).with_events();
    for &r in requests {
        engine.step(r);
    }
    finish(engine)
}

fn run_batched(
    policy: &mut Box<dyn ReplacementPolicy>,
    universe: &Universe,
    requests: &[Request],
    k: usize,
    batch: usize,
) -> Outcome {
    let mut engine = SteppingEngine::new(k, universe.clone(), &mut **policy).with_events();
    engine.run_batched(requests, batch);
    finish(engine)
}

/// Same, without the event log — this is the configuration where
/// `step_batch` actually takes the `serve_batch` fast path rather than
/// falling back to scalar, so it pins the fast path itself.
fn run_fast(
    policy: &mut Box<dyn ReplacementPolicy>,
    universe: &Universe,
    requests: &[Request],
    k: usize,
    batch: usize,
    batched: bool,
) -> Outcome {
    let mut engine = SteppingEngine::new(k, universe.clone(), &mut **policy);
    if batched {
        engine.run_batched(requests, batch);
    } else {
        for &r in requests {
            engine.step(r);
        }
    }
    finish(engine)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_replay_is_byte_identical_for_every_policy(
        (universe, pages, k, batch) in arb_instance()
    ) {
        let requests: Vec<Request> =
            pages.iter().map(|&p| universe.request(PageId(p))).collect();
        for mut policy in policy_suite(universe.num_users()) {
            let scalar = run_scalar(&mut policy, &universe, &requests, k);
            policy.reset();
            let batched = run_batched(&mut policy, &universe, &requests, k, batch);
            prop_assert_eq!(&scalar, &batched, "policy {} diverged", policy.name());

            // The unrecorded fast path (serve_batch) must agree too.
            policy.reset();
            let fast_scalar = run_fast(&mut policy, &universe, &requests, k, batch, false);
            policy.reset();
            let fast_batched = run_fast(&mut policy, &universe, &requests, k, batch, true);
            prop_assert_eq!(
                &fast_scalar, &fast_batched,
                "policy {} fast path diverged", policy.name()
            );
            prop_assert_eq!(&scalar.0, &fast_scalar.0, "events must not change stats");
        }
    }
}

/// The four policies the throughput grid measures in batched mode —
/// the ones whose `step_batch` boundary behaviour the bench numbers
/// actually depend on.
fn batched_grid_suite(num_users: u32) -> Vec<Box<dyn ReplacementPolicy>> {
    let costs = CostProfile::uniform(num_users, Monomial::power(2.0));
    vec![
        Box::new(Lru::new()),
        Box::new(Fifo::new()),
        Box::new(ConvexCaching::new(costs)),
        Box::new(GreedyDual::unweighted(num_users)),
    ]
}

/// Replay through explicit `step_batch` calls of a fixed batch size —
/// the exact call pattern the fleet runner and the bench grid use.
fn run_step_batch(
    policy: &mut Box<dyn ReplacementPolicy>,
    universe: &Universe,
    requests: &[Request],
    k: usize,
    batch: usize,
) -> Outcome {
    let mut engine = SteppingEngine::new(k, universe.clone(), &mut **policy);
    for chunk in requests.chunks(batch) {
        engine.step_batch(chunk);
    }
    finish(engine)
}

/// Replay through `SteppingEngine::serve_from` over a `TraceSource`,
/// cycling through `maxes` — the call pattern of every driver (soak,
/// fleet, supervisor), with run lengths that cut the trace at arbitrary
/// points.
fn run_serve_from(
    policy: &mut Box<dyn ReplacementPolicy>,
    trace: &Trace,
    k: usize,
    maxes: &[usize],
) -> Outcome {
    let mut source = TraceSource::new(trace);
    let mut engine = SteppingEngine::new(k, trace.universe().clone(), &mut **policy);
    for &max in maxes.iter().cycle() {
        if engine.serve_from(&mut source, max) == 0 {
            break;
        }
    }
    finish(engine)
}

/// A pseudo-random `serve_from` max sequence (each in `1..=97`) derived
/// from the instance itself, so the instances the strategy draws stay
/// exactly as they were before this replay was added.
fn max_sequence(pages: &[u32], k: usize) -> Vec<usize> {
    let mut s = pages.iter().fold(k as u64, |h, &p| {
        h.wrapping_mul(0x100_0000_01b3) ^ u64::from(p)
    });
    (0..1 + pages.len() % 7)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            1 + (s >> 33) as usize % 97
        })
        .collect()
}

/// A random instance whose batch size is drawn from the boundary set
/// {1, 2, 4095, 4096, 4097, trace_len}. Traces are mostly shorter than
/// the default batch, so the large sizes exercise the
/// trace-shorter-than-one-batch case; the deterministic test below
/// covers traces that cross the 4096 boundary several times.
fn arb_boundary_instance() -> impl Strategy<Value = (Universe, Vec<u32>, usize, usize)> {
    (2u32..=3, 20u32..=60).prop_flat_map(|(users, per_user)| {
        let total = users * per_user;
        (
            proptest::collection::vec(0..total, 1..800),
            1..=(total as usize - 1),
            0usize..6,
        )
            .prop_map(move |(pages, k, batch_idx)| {
                (Universe::uniform(users, per_user), pages, k, batch_idx)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn step_batch_boundary_sizes_are_byte_identical(
        (universe, pages, k, batch_idx) in arb_boundary_instance()
    ) {
        let trace = Trace::from_page_indices(&universe, &pages);
        let requests = trace.requests();
        let batch = [1, 2, 4095, 4096, 4097, requests.len()][batch_idx];
        for mut policy in batched_grid_suite(universe.num_users()) {
            let scalar = run_fast(&mut policy, &universe, requests, k, batch, false);
            policy.reset();
            let batched = run_step_batch(&mut policy, &universe, requests, k, batch);
            prop_assert_eq!(
                &scalar, &batched,
                "policy {} diverged at batch size {}", policy.name(), batch
            );
            policy.reset();
            let maxes = max_sequence(&pages, k);
            let served = run_serve_from(&mut policy, &trace, k, &maxes);
            prop_assert_eq!(
                &scalar, &served,
                "policy {} diverged under serve_from with maxes {:?}", policy.name(), maxes
            );
        }
    }
}

/// Deterministic requests from a splitmix-style generator, so the long
/// boundary test below needs no proptest shrink budget.
fn lcg_requests(universe: &Universe, total_pages: u32, len: usize, mut s: u64) -> Vec<Request> {
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            universe.request(PageId(((s >> 33) as u32) % total_pages))
        })
        .collect()
}

/// A 13k-request trace crosses the default 4096-request batch three
/// times, and the sizes one either side of it shift every subsequent
/// chunk boundary by one; `trace_len` runs the whole trace as a single
/// batch, and the short trace never fills one.
#[test]
fn step_batch_boundary_sizes_match_scalar_on_long_traces() {
    let (users, per_user) = (3u32, 50u32);
    let universe = Universe::uniform(users, per_user);
    let long = lcg_requests(&universe, users * per_user, 13_000, 0xB5);
    let short = lcg_requests(&universe, users * per_user, 57, 0x5B);
    for (requests, label) in [(&long, "long"), (&short, "short")] {
        let k = 96;
        for mut policy in batched_grid_suite(users) {
            let scalar = run_fast(&mut policy, &universe, requests, k, 1, false);
            for batch in [1, 2, 4095, 4096, 4097, requests.len()] {
                policy.reset();
                let batched = run_step_batch(&mut policy, &universe, requests, k, batch);
                assert_eq!(
                    scalar,
                    batched,
                    "policy {} diverged on the {label} trace at batch size {batch}",
                    policy.name()
                );
            }
        }
    }
}

/// A request stream with seeded corruption: out-of-universe pages and
/// wrong-owner records sprinkled through valid requests.
fn arb_faulty_stream() -> impl Strategy<Value = (Universe, Vec<Request>, usize, usize)> {
    (2u32..=3, 3u32..=5).prop_flat_map(|(users, per_user)| {
        let total = users * per_user;
        (
            proptest::collection::vec((0u32..total + 4, 0u32..users), 20..150),
            1..=(total as usize - 1),
            1usize..=33,
        )
            .prop_map(move |(raw, k, batch)| {
                let universe = Universe::uniform(users, per_user);
                let requests: Vec<Request> = raw
                    .iter()
                    .map(|&(p, u)| Request {
                        page: PageId(p),
                        user: UserId(u),
                    })
                    .collect();
                (universe, requests, k, batch)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_checked_replay_matches_scalar_on_corrupt_streams(
        (universe, requests, k, batch) in arb_faulty_stream()
    ) {
        for fault_policy in [FaultPolicy::SkipAndCount, FaultPolicy::QuarantineUser] {
            let mut scalar_policy = Lru::new();
            let mut scalar_handler = FaultHandler::new(fault_policy, universe.num_users());
            let mut scalar =
                SteppingEngine::new(k, universe.clone(), &mut scalar_policy);
            for &r in &requests {
                scalar.step_checked(r, &mut scalar_handler).unwrap();
            }

            let mut batched_policy = Lru::new();
            let mut batched_handler = FaultHandler::new(fault_policy, universe.num_users());
            let mut batched =
                SteppingEngine::new(k, universe.clone(), &mut batched_policy);
            batched
                .run_batched_checked(&requests, batch, &mut batched_handler)
                .unwrap();

            prop_assert_eq!(scalar_handler.counters(), batched_handler.counters());
            prop_assert_eq!(
                scalar_handler.quarantined_users(),
                batched_handler.quarantined_users()
            );
            prop_assert_eq!(scalar.stats(), batched.stats());
            prop_assert_eq!(scalar.time(), batched.time());
            prop_assert_eq!(
                scalar.cache().sorted_pages(),
                batched.cache().sorted_pages()
            );
        }
    }
}
