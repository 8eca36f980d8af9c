//! The simulation engine: exact replay of a request sequence against a
//! replacement policy, with per-tenant accounting.
//!
//! The engine is the single owner of ground truth (cache contents and
//! counters); policies only pick victims. This guarantees that two policies
//! run on the same trace see byte-identical hit/miss classification, which
//! is what makes cross-policy cost comparisons meaningful.
//!
//! [`Simulator`] is a façade: every entry point builds one
//! [`SteppingEngine`] and drives it, so the hit/insert/evict state
//! machine is coded once, in [`crate::stepper`].

use crate::cache::CacheSet;
use crate::error::{FaultCounters, FaultHandler, FaultPolicy, SimError};
use crate::event::EventLog;
use crate::ids::{PageId, Time, UserId};
use crate::policy::ReplacementPolicy;
use crate::probe::{NoopRecorder, Recorder};
use crate::source::{RequestSource, TraceSource};
use crate::stats::SimStats;
use crate::stepper::SteppingEngine;
use crate::trace::{Trace, Universe};

/// Read-only view of the engine state handed to policies and sources.
pub struct EngineCtx<'a> {
    /// Current time (zero-based request index).
    pub time: Time,
    /// Current cache contents.
    pub cache: &'a CacheSet,
    /// Counters so far. During [`ReplacementPolicy::choose_victim`] these
    /// exclude the in-flight request, so `stats.user(u).evictions` is the
    /// paper's `m(u, t-1)`.
    pub stats: &'a SimStats,
    /// The page/user universe.
    pub universe: &'a Universe,
}

/// Engine configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimOptions {
    /// Record a [`SimEvent`](crate::event::SimEvent) per request (off by default: costs memory
    /// proportional to the trace).
    pub record_events: bool,
    /// Retention limit for the event log: `Some(n)` keeps only the `n`
    /// newest events in a ring (see [`EventLog::bounded`]), so recording
    /// a long trace costs `O(n)` memory instead of `O(trace)`. `None`
    /// (the default) retains everything, which the equivalence tests
    /// rely on. Only meaningful together with `record_events`.
    pub event_capacity: Option<usize>,
    /// After the last request, evict every cached page and count those
    /// evictions. This models the paper's dummy-user flush (§2.1), making
    /// per-user eviction counts equal per-user miss counts.
    pub flush_at_end: bool,
}

/// Outcome of a simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Per-user counters.
    pub stats: SimStats,
    /// Event log, present iff [`SimOptions::record_events`] was set.
    pub events: Option<EventLog>,
    /// Pages cached after the final request (before any flush), ascending.
    pub final_cache: Vec<PageId>,
    /// Number of requests served.
    pub steps: u64,
}

impl SimResult {
    /// Total misses (fetches) across users.
    pub fn total_misses(&self) -> u64 {
        self.stats.total_misses()
    }

    /// Per-user miss vector `a_i(σ)`, indexed by user id.
    pub fn miss_vector(&self) -> Vec<u64> {
        self.stats.miss_vector()
    }

    /// Miss rate over the whole run (`0.0` for an empty run).
    pub fn miss_rate(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.total_misses() as f64 / self.steps as f64
        }
    }
}

/// Outcome of a checked (fault-tolerant) run: the ordinary result plus
/// everything the degradation policy absorbed along the way.
///
/// Note that [`SimResult::steps`] counts *consumed records* here, not
/// served requests: records dropped under skip-and-count or
/// quarantine-user still advance the clock, keeping the timeline aligned
/// with the input stream.
#[derive(Clone, Debug)]
pub struct CheckedRun {
    /// The ordinary run result.
    pub result: SimResult,
    /// Faults absorbed by the degradation policy.
    pub faults: FaultCounters,
    /// Users quarantined during the run (empty unless the policy was
    /// [`FaultPolicy::QuarantineUser`]).
    pub quarantined: Vec<UserId>,
}

/// The simulator: a cache size plus run options.
#[derive(Clone, Copy, Debug)]
pub struct Simulator {
    capacity: usize,
    options: SimOptions,
}

impl Simulator {
    /// A simulator with cache size `k` and default options.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache size k must be positive");
        Simulator {
            capacity,
            options: SimOptions::default(),
        }
    }

    /// Replace the options wholesale.
    pub fn with_options(mut self, options: SimOptions) -> Self {
        self.options = options;
        self
    }

    /// Enable per-request event recording.
    pub fn record_events(mut self, on: bool) -> Self {
        self.options.record_events = on;
        self
    }

    /// Bound the event log to the `capacity` newest events (implies
    /// nothing unless [`Self::record_events`] is also enabled).
    pub fn event_capacity(mut self, capacity: usize) -> Self {
        self.options.event_capacity = Some(capacity);
        self
    }

    /// Enable the end-of-run flush (count one eviction per page left in the
    /// cache).
    pub fn flush_at_end(mut self, on: bool) -> Self {
        self.options.flush_at_end = on;
        self
    }

    /// Cache size `k`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Run `policy` over a fixed `trace`.
    pub fn run<P: ReplacementPolicy>(&self, policy: &mut P, trace: &Trace) -> SimResult {
        self.run_source(policy, &mut TraceSource::new(trace))
    }

    /// Run `policy` over a fixed `trace` with a [`Recorder`] observing
    /// every decision.
    pub fn run_recorded<P, R>(&self, policy: &mut P, trace: &Trace, recorder: &mut R) -> SimResult
    where
        P: ReplacementPolicy,
        R: Recorder,
    {
        self.run_source_recorded(policy, &mut TraceSource::new(trace), recorder)
    }

    /// Run `policy` against a (possibly adaptive) request source.
    pub fn run_source<P, S>(&self, policy: &mut P, source: &mut S) -> SimResult
    where
        P: ReplacementPolicy,
        S: RequestSource,
    {
        // NoopRecorder's hooks are dead code behind `ACTIVE = false`, so
        // this monomorphizes to the unrecorded engine.
        self.run_source_recorded(policy, source, &mut NoopRecorder)
    }

    /// Run `policy` against a request source with a [`Recorder`]
    /// observing every decision (see [`crate::probe`]).
    ///
    /// This is the scalar path: each request is pulled against the live
    /// engine state and served by [`SteppingEngine::step`], so an
    /// adaptive source sees the outcome of every previous request.
    pub fn run_source_recorded<P, S, R>(
        &self,
        policy: &mut P,
        source: &mut S,
        recorder: &mut R,
    ) -> SimResult
    where
        P: ReplacementPolicy,
        S: RequestSource,
        R: Recorder,
    {
        let mut engine = self.engine(source.universe().clone(), policy, recorder);
        while let Some(req) = source.next_request(&engine.ctx()) {
            engine.step(req);
        }
        self.finish(engine)
    }

    /// Run `policy` over a fixed `trace` through the batched hot loop
    /// (see [`SteppingEngine::step_batch`]): byte-identical results to
    /// [`Self::run`], with per-request dispatch amortized over
    /// `batch_size`-request chunks.
    pub fn run_batched<P: ReplacementPolicy>(
        &self,
        policy: &mut P,
        trace: &Trace,
        batch_size: usize,
    ) -> SimResult {
        self.run_source_batched(policy, &mut TraceSource::new(trace), batch_size)
    }

    /// Run `policy` against a request source through
    /// [`SteppingEngine::serve_from`], at most `batch_size` requests per
    /// call — the streaming counterpart of [`Self::run_batched`], with
    /// memory independent of the stream length.
    ///
    /// Sources that hand out runs feed the batched kernel; every other
    /// source is pulled one request at a time against the live engine
    /// state, so an adaptive source sees the previous request's outcome
    /// and the result is byte-identical to [`Self::run_source`].
    pub fn run_source_batched<P, S>(
        &self,
        policy: &mut P,
        source: &mut S,
        batch_size: usize,
    ) -> SimResult
    where
        P: ReplacementPolicy,
        S: RequestSource,
    {
        assert!(batch_size > 0, "batch size must be positive");
        let mut engine = self.engine(source.universe().clone(), policy, NoopRecorder);
        while engine.serve_from(source, batch_size) > 0 {}
        self.finish(engine)
    }

    /// The engine every entry point drives: this simulator's capacity
    /// and event-log options over `universe`.
    fn engine<P, R>(&self, universe: Universe, policy: P, recorder: R) -> SteppingEngine<P, R>
    where
        P: ReplacementPolicy,
        R: Recorder,
    {
        let engine = SteppingEngine::new(self.capacity, universe, policy).with_recorder(recorder);
        match (self.options.record_events, self.options.event_capacity) {
            (false, _) => engine,
            (true, Some(capacity)) => engine.with_bounded_events(capacity),
            (true, None) => engine.with_events(),
        }
    }

    /// Shared tail of every entry point: capture the final cache, apply
    /// the optional end-of-run flush, and package the result.
    fn finish<P, R>(&self, mut engine: SteppingEngine<P, R>) -> SimResult
    where
        P: ReplacementPolicy,
        R: Recorder,
    {
        let final_cache = engine.cache().sorted_pages();
        if self.options.flush_at_end {
            engine.flush();
        }
        SimResult {
            steps: engine.time(),
            stats: engine.stats().clone(),
            events: engine.take_events(),
            final_cache,
        }
    }

    /// Run `policy` over a possibly-corrupt `trace` under a degradation
    /// [`FaultPolicy`] (see [`Self::try_run_source_recorded`]).
    pub fn try_run<P: ReplacementPolicy>(
        &self,
        policy: &mut P,
        trace: &Trace,
        fault_policy: FaultPolicy,
    ) -> Result<CheckedRun, SimError> {
        self.try_run_recorded(policy, trace, &mut NoopRecorder, fault_policy)
    }

    /// [`Self::try_run`] with a [`Recorder`] observing every decision
    /// (including absorbed faults, via
    /// [`Recorder::record_fault`](crate::probe::Recorder::record_fault)).
    pub fn try_run_recorded<P, R>(
        &self,
        policy: &mut P,
        trace: &Trace,
        recorder: &mut R,
        fault_policy: FaultPolicy,
    ) -> Result<CheckedRun, SimError>
    where
        P: ReplacementPolicy,
        R: Recorder,
    {
        self.try_run_source_recorded(policy, &mut TraceSource::new(trace), recorder, fault_policy)
    }

    /// The fault-tolerant counterpart of [`Self::run_source_recorded`]:
    /// validates every record with [`SteppingEngine::step_checked`]
    /// before serving it and reacts to faults per `fault_policy` instead
    /// of panicking.
    ///
    /// The unchecked `run*` family stays monomorphized to the
    /// unvalidated [`SteppingEngine::step`], so enabling fault tolerance
    /// costs nothing when it is not used (guarded by `bench_baseline`).
    /// On well-formed input a checked run produces the identical
    /// [`SimResult`] to an unchecked one.
    pub fn try_run_source_recorded<P, S, R>(
        &self,
        policy: &mut P,
        source: &mut S,
        recorder: &mut R,
        fault_policy: FaultPolicy,
    ) -> Result<CheckedRun, SimError>
    where
        P: ReplacementPolicy,
        S: RequestSource,
        R: Recorder,
    {
        let universe = source.universe().clone();
        let mut handler = FaultHandler::new(fault_policy, universe.num_users());
        let mut engine = self.engine(universe, policy, recorder);
        while let Some(req) = source.next_request(&engine.ctx()) {
            engine.step_checked(req, &mut handler)?;
        }
        Ok(CheckedRun {
            result: self.finish(engine),
            faults: handler.counters().clone(),
            quarantined: handler.quarantined_users(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SimEvent;

    /// Evicts the page cached in physical slot 0 — arbitrary but valid.
    struct EvictFirst;
    impl ReplacementPolicy for EvictFirst {
        fn name(&self) -> String {
            "evict-first".into()
        }
        fn choose_victim(&mut self, ctx: &EngineCtx, _incoming: PageId) -> PageId {
            ctx.cache.pages()[0]
        }
    }

    fn two_user_trace() -> Trace {
        let u = Universe::uniform(2, 2); // u0: p0 p1; u1: p2 p3
        Trace::from_page_indices(&u, &[0, 2, 1, 0, 3, 2])
    }

    #[test]
    fn hits_and_misses_classified_exactly() {
        // k=3: 0m 2m 1m 0h 3m(evict) 2? depends on victim.
        let trace = two_user_trace();
        let r = Simulator::new(3).run(&mut EvictFirst, &trace);
        assert_eq!(r.steps, 6);
        assert_eq!(r.stats.total_hits() + r.total_misses(), 6);
        // First three requests fill the cache; the fourth (p0) hits.
        assert!(r.stats.user(UserId(0)).hits >= 1);
    }

    #[test]
    fn eviction_counts_charged_to_victim_owner() {
        let u = Universe::uniform(2, 1); // p0 owned by u0, p1 by u1
        let trace = Trace::from_page_indices(&u, &[0, 1, 0, 1]);
        let r = Simulator::new(1).run(&mut EvictFirst, &trace);
        // Every request after the first evicts the other user's page.
        assert_eq!(r.stats.user(UserId(0)).evictions, 2); // p0 evicted at t=1, t=3
        assert_eq!(r.stats.user(UserId(1)).evictions, 1); // p1 evicted at t=2
        assert_eq!(r.total_misses(), 4);
    }

    #[test]
    fn flush_makes_evictions_equal_misses() {
        let trace = two_user_trace();
        let no_flush = Simulator::new(2).run(&mut EvictFirst, &trace);
        assert!(no_flush.stats.total_evictions() < no_flush.total_misses());
        let flushed = Simulator::new(2)
            .flush_at_end(true)
            .run(&mut EvictFirst, &trace);
        assert_eq!(flushed.stats.total_evictions(), flushed.total_misses());
        // Per-user too, which is the paper's accounting identity.
        assert_eq!(flushed.stats.miss_vector(), flushed.stats.eviction_vector());
    }

    #[test]
    fn event_log_matches_counters() {
        let trace = two_user_trace();
        let r = Simulator::new(2)
            .record_events(true)
            .run(&mut EvictFirst, &trace);
        let log = r.events.as_ref().expect("events were requested");
        assert_eq!(log.len() as u64, r.steps);
        let evictions = log.eviction_sequence().len() as u64;
        assert_eq!(evictions, r.stats.total_evictions());
        let hits = log
            .iter()
            .filter(|e| matches!(e, SimEvent::Hit { .. }))
            .count() as u64;
        assert_eq!(hits, r.stats.total_hits());
    }

    #[test]
    fn bounded_event_log_caps_memory_not_counters() {
        let u = Universe::uniform(2, 2);
        let trace = Trace::from_page_indices(&u, &[0, 2, 1, 0, 3, 2]);
        let full = Simulator::new(2)
            .record_events(true)
            .run(&mut EvictFirst, &trace);
        let capped = Simulator::new(2)
            .record_events(true)
            .event_capacity(2)
            .run(&mut EvictFirst, &trace);
        // Counters are unaffected by the retention limit.
        assert_eq!(capped.miss_vector(), full.miss_vector());
        let log = capped.events.as_ref().unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log.total_seen(), full.steps);
        // The retained suffix matches the tail of the full log.
        let full_log = full.events.as_ref().unwrap().to_vec();
        assert_eq!(log.to_vec(), full_log[full_log.len() - 2..]);
    }

    #[test]
    fn final_cache_is_reported_sorted() {
        let trace = two_user_trace();
        let r = Simulator::new(3).run(&mut EvictFirst, &trace);
        let mut sorted = r.final_cache.clone();
        sorted.sort();
        assert_eq!(r.final_cache, sorted);
        assert!(r.final_cache.len() <= 3);
    }

    #[test]
    fn miss_rate() {
        let u = Universe::single_user(2);
        let trace = Trace::from_page_indices(&u, &[0, 0, 0, 1]);
        let r = Simulator::new(2).run(&mut EvictFirst, &trace);
        assert_eq!(r.total_misses(), 2);
        assert!((r.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_fine() {
        let u = Universe::single_user(2);
        let trace = Trace::from_page_indices(&u, &[]);
        let r = Simulator::new(2).run(&mut EvictFirst, &trace);
        assert_eq!(r.steps, 0);
        assert_eq!(r.miss_rate(), 0.0);
        assert!(r.final_cache.is_empty());
    }

    #[test]
    fn checked_run_matches_unchecked_on_clean_input() {
        let trace = two_user_trace();
        let sim = Simulator::new(2).record_events(true).flush_at_end(true);
        let plain = sim.run(&mut EvictFirst, &trace);
        let checked = sim
            .try_run(&mut EvictFirst, &trace, FaultPolicy::FailFast)
            .unwrap();
        assert!(checked.faults.is_clean());
        assert!(checked.quarantined.is_empty());
        assert_eq!(checked.result.stats, plain.stats);
        assert_eq!(checked.result.steps, plain.steps);
        assert_eq!(checked.result.final_cache, plain.final_cache);
        assert_eq!(
            checked.result.events.as_ref().unwrap().to_vec(),
            plain.events.as_ref().unwrap().to_vec()
        );
    }

    #[test]
    fn checked_run_skips_corrupt_source_records() {
        use crate::source::RequestSource;
        use crate::trace::Request;

        // A source that interleaves out-of-range pages with a clean
        // single-user stream.
        struct Glitchy {
            universe: Universe,
            t: u64,
        }
        impl RequestSource for Glitchy {
            fn universe(&self) -> &Universe {
                &self.universe
            }
            fn next_request(&mut self, _ctx: &EngineCtx) -> Option<Request> {
                let t = self.t;
                self.t += 1;
                if t >= 9 {
                    return None;
                }
                if t % 3 == 2 {
                    Some(Request {
                        page: PageId(1000),
                        user: UserId(0),
                    })
                } else {
                    Some(self.universe.request(PageId((t % 2) as u32)))
                }
            }
        }

        let universe = Universe::single_user(2);
        let mut src = Glitchy {
            universe: universe.clone(),
            t: 0,
        };
        let checked = Simulator::new(2)
            .try_run_source_recorded(
                &mut EvictFirst,
                &mut src,
                &mut NoopRecorder,
                FaultPolicy::SkipAndCount,
            )
            .unwrap();
        assert_eq!(checked.faults.page_out_of_range, 3);
        assert_eq!(checked.result.steps, 9); // dropped records consume ticks
        assert_eq!(checked.result.stats.total_misses(), 2);
        assert_eq!(checked.result.stats.total_hits(), 4);

        // The same stream under fail-fast dies on the first glitch.
        let mut src = Glitchy { universe, t: 0 };
        let err = Simulator::new(2)
            .try_run_source_recorded(
                &mut EvictFirst,
                &mut src,
                &mut NoopRecorder,
                FaultPolicy::FailFast,
            )
            .unwrap_err();
        assert!(matches!(err, SimError::Request(_)));
    }

    #[test]
    #[should_panic(expected = "not cached")]
    fn bad_victim_is_rejected() {
        struct Liar;
        impl ReplacementPolicy for Liar {
            fn name(&self) -> String {
                "liar".into()
            }
            fn choose_victim(&mut self, _ctx: &EngineCtx, _incoming: PageId) -> PageId {
                PageId(999_999 % 4) // p3 won't be cached in this scenario
            }
        }
        let u = Universe::single_user(4);
        let trace = Trace::from_page_indices(&u, &[0, 1, 2]);
        Simulator::new(2).run(&mut Liar, &trace);
    }

    #[test]
    fn capacity_one_cache() {
        let u = Universe::single_user(3);
        let trace = Trace::from_page_indices(&u, &[0, 0, 1, 1, 2]);
        let r = Simulator::new(1).run(&mut EvictFirst, &trace);
        assert_eq!(r.total_misses(), 3);
        assert_eq!(r.stats.total_hits(), 2);
    }
}
