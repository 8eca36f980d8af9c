//! The engine: the paper's hit/miss/evict state machine, served one
//! request or one batch at a time.
//!
//! [`SteppingEngine`] is the one implementation of the state machine.
//! [`Simulator`](crate::Simulator) is a façade that builds an engine and
//! replays a whole stream through it; [`SteppingEngine::serve_from`] is
//! the one loop that pulls requests from a [`RequestSource`] into it,
//! used by every driver (soak, fleet, supervisor, bench). Callers that interleave simulation with other
//! decisions step the engine directly — the multi-pool system of
//! `occ-pools` (the paper's §5 future-work direction) routes each request
//! to one of several engines and migrates users between them mid-stream.
//!
//! The stepping engine also supports *external removal* of pages (a user
//! migrating away takes its pages with it), which a plain replay never
//! needs.

use crate::cache::CacheSet;
use crate::engine::EngineCtx;
use crate::error::{
    FaultHandler, FaultKind, FaultPolicy, PolicyViolation, PolicyViolationKind, RequestFault,
    SimError, SnapshotError,
};
use crate::event::{EventLog, SimEvent};
use crate::ids::{PageId, Time, UserId};
use crate::policy::ReplacementPolicy;
use crate::probe::{NoopRecorder, Recorder};
use crate::snapshot::{EngineSnapshot, SNAPSHOT_VERSION};
use crate::source::RequestSource;
use crate::stats::SimStats;
use crate::trace::{Request, Universe};
use std::time::Instant;

/// Default chunk size for [`SteppingEngine::run_batched`] and friends:
/// 4096 requests × 8 bytes keeps a whole chunk (32 KiB) resident in L1
/// while amortizing the per-chunk bookkeeping over enough requests that
/// it vanishes from profiles.
pub const DEFAULT_BATCH_SIZE: usize = 4096;

/// How many requests ahead the batched kernel issues software
/// prefetches ([`CacheSet::prefetch_probe`]) while serving the current
/// request. Eight requests ≈ 100–250 ns of work on the steady-state
/// path — enough to cover an L2/L3 load without prefetching so far
/// ahead that lines are evicted again before use.
pub const PREFETCH_DISTANCE: usize = 8;

/// What happened when a request was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The page was already cached.
    Hit,
    /// The page was fetched into free space.
    Inserted,
    /// The page was fetched; the contained page was evicted.
    Evicted(PageId),
}

/// One cache + one policy, driven request by request, with an optional
/// [`Recorder`] observing every step (defaults to the free
/// [`NoopRecorder`]).
pub struct SteppingEngine<P, R = NoopRecorder> {
    universe: Universe,
    cache: CacheSet,
    stats: SimStats,
    policy: P,
    recorder: R,
    time: Time,
    events: Option<EventLog>,
}

impl<P: ReplacementPolicy> SteppingEngine<P, NoopRecorder> {
    /// Create an engine with cache size `capacity`.
    pub fn new(capacity: usize, universe: Universe, policy: P) -> Self {
        let cache = CacheSet::new(capacity, universe.num_pages());
        let stats = SimStats::new(universe.num_users());
        SteppingEngine {
            universe,
            cache,
            stats,
            policy,
            recorder: NoopRecorder,
            time: 0,
            events: None,
        }
    }

    /// Rebuild an engine entirely from a checkpoint: the universe comes
    /// from the snapshot's embedded owner table, then
    /// [`restore`](Self::restore) replays the captured state into it.
    /// `policy` must be constructed identically to the one that was
    /// snapshotted (same name and parameters); its internal state is
    /// overwritten from the snapshot.
    pub fn from_snapshot(snap: &EngineSnapshot, policy: P) -> Result<Self, SnapshotError> {
        snap.check_version()?;
        if snap.num_users == 0 {
            return Err(SnapshotError::Corrupt("snapshot has zero users".into()));
        }
        if snap.capacity == 0 {
            return Err(SnapshotError::Corrupt("snapshot has zero capacity".into()));
        }
        if let Some(&bad) = snap.owners.iter().find(|o| o.0 >= snap.num_users) {
            return Err(SnapshotError::Corrupt(format!(
                "owner table names {bad} but the snapshot has {} users",
                snap.num_users
            )));
        }
        let universe = Universe::new(snap.num_users, snap.owners.clone());
        let mut engine = SteppingEngine::new(snap.capacity, universe, policy);
        engine.restore(snap)?;
        Ok(engine)
    }

    /// Attach a recorder; subsequent [`step`](SteppingEngine::step)s
    /// dispatch its hooks (and time each request when `R::TIMED`).
    pub fn with_recorder<R: Recorder>(self, recorder: R) -> SteppingEngine<P, R> {
        SteppingEngine {
            universe: self.universe,
            cache: self.cache,
            stats: self.stats,
            policy: self.policy,
            recorder,
            time: self.time,
            events: self.events,
        }
    }
}

impl<P: ReplacementPolicy, R: Recorder> SteppingEngine<P, R> {
    /// Enable per-request event recording.
    pub fn with_events(mut self) -> Self {
        self.events = Some(EventLog::new());
        self
    }

    /// Enable per-request event recording bounded to the `capacity`
    /// newest events (see [`EventLog::bounded`]).
    pub fn with_bounded_events(mut self, capacity: usize) -> Self {
        self.events = Some(EventLog::bounded(capacity));
        self
    }

    /// Read-only view of the engine state, as handed to policies and
    /// request sources. Lets a [`RequestSource`] be driven against this
    /// engine externally.
    pub fn ctx(&self) -> EngineCtx<'_> {
        EngineCtx {
            time: self.time,
            cache: &self.cache,
            stats: &self.stats,
            universe: &self.universe,
        }
    }

    /// Serve one request; advances time by one tick.
    ///
    /// This is the trusting hot path: the request is assumed well-formed
    /// and a policy contract violation panics. Use
    /// [`step_checked`](Self::step_checked) for untrusted streams.
    pub fn step(&mut self, req: Request) -> StepOutcome {
        debug_assert_eq!(
            self.universe.owner(req.page),
            req.user,
            "request owner disagrees with the universe"
        );
        match self.serve(req) {
            Ok(outcome) => outcome,
            Err(violation) => panic!("{violation}"),
        }
    }

    /// Serve one *untrusted* request under the degradation policy carried
    /// by `handler`.
    ///
    /// Well-formed requests are served exactly as [`step`](Self::step)
    /// would. Malformed records (page out of range, owner mismatch) and
    /// requests from quarantined users are classified per
    /// [`FaultKind`], reported through
    /// [`Recorder::record_fault`], and then handled per the handler's
    /// [`FaultPolicy`]: fail-fast returns the fault as an error;
    /// skip-and-count and quarantine-user absorb it and return
    /// `Ok(None)`. Dropped records still advance the clock by one tick,
    /// so the timeline stays aligned with the input stream (and with any
    /// later resume).
    ///
    /// Policy contract violations are engine bugs, not input faults, and
    /// are always returned as errors regardless of the degradation
    /// policy.
    pub fn step_checked(
        &mut self,
        req: Request,
        handler: &mut FaultHandler,
    ) -> Result<Option<StepOutcome>, SimError> {
        let kind = match self.universe.try_owner(req.page) {
            None => Some(FaultKind::PageOutOfRange),
            Some(owner) if owner != req.user => Some(FaultKind::OwnerMismatch),
            Some(_) if handler.is_quarantined(req.user) => Some(FaultKind::QuarantinedUser),
            Some(_) => None,
        };
        let Some(kind) = kind else {
            return self.serve(req).map(Some).map_err(SimError::from);
        };
        let fault = RequestFault {
            time: self.time,
            kind,
            page: req.page,
            user: req.user,
        };
        if R::ACTIVE {
            self.recorder.record_fault(&fault);
        }
        match (handler.policy(), kind) {
            (FaultPolicy::FailFast, FaultKind::PageOutOfRange | FaultKind::OwnerMismatch) => {
                return Err(fault.into());
            }
            (FaultPolicy::QuarantineUser, FaultKind::PageOutOfRange | FaultKind::OwnerMismatch) => {
                handler.count(kind);
                // Quarantine the page's true owner when the page is in
                // range (owner mismatch), else the user the record claims
                // — if either is a real user.
                let culprit = self.universe.try_owner(req.page).or_else(|| {
                    (req.user.index() < self.universe.num_users() as usize).then_some(req.user)
                });
                if let Some(user) = culprit {
                    if handler.quarantine(user) {
                        self.remove_user_externally(user);
                    }
                }
            }
            _ => handler.count(kind),
        }
        self.time += 1;
        Ok(None)
    }

    /// Serve a chunk of trusted requests through the batched hot loop.
    ///
    /// Byte-identical to calling [`step`](Self::step) once per request —
    /// the scalar path is the reference twin and the equivalence is
    /// pinned by proptests — but when the engine is uninstrumented (no
    /// active or timing recorder, no event log) the per-request outcome
    /// classification, recorder dispatch, timing, and event-log checks
    /// are hoisted out of the loop, and the cache-fullness branch is
    /// hoisted once the cache fills. Instrumented engines fall back to
    /// the scalar path so observers miss nothing.
    ///
    /// Like `step`, a policy contract violation panics; use
    /// [`run_batched_checked`](Self::run_batched_checked) for untrusted
    /// streams.
    pub fn step_batch(&mut self, batch: &[Request]) {
        if R::ACTIVE || R::TIMED || self.events.is_some() {
            for &req in batch {
                self.step(req);
            }
            return;
        }
        if let Err(violation) = self.serve_batch(batch) {
            panic!("{violation}");
        }
    }

    /// [`step_batch`](Self::step_batch) for a run of bare page ids, the
    /// shape a zero-copy source ([`RequestSource::next_page_run`]) hands
    /// out: each request's owner is derived from the universe
    /// inline — the identical lookup a decoding source performs when it
    /// materializes [`Request`]s, moved to the one place that actually
    /// consumes the owner. Byte-identical outcome to building the
    /// `Request` slice and calling `step_batch`; the ids must be in
    /// range (zero-copy sources validate each run before handing it
    /// out), out-of-range ids panic just as malformed requests do on
    /// the trusting path.
    pub fn step_page_batch(&mut self, pages: &[PageId]) {
        if R::ACTIVE || R::TIMED || self.events.is_some() {
            for &page in pages {
                let user = self.universe.owner(page);
                self.step(Request { page, user });
            }
            return;
        }
        if let Err(violation) = self.serve_page_batch(pages) {
            panic!("{violation}");
        }
    }

    /// Replay a whole request slice through [`step_batch`](Self::step_batch)
    /// in `batch_size`-request chunks (the trailing chunk may be
    /// shorter). Panics if `batch_size` is zero.
    pub fn run_batched(&mut self, requests: &[Request], batch_size: usize) {
        assert!(batch_size > 0, "batch size must be positive");
        for chunk in requests.chunks(batch_size) {
            self.step_batch(chunk);
        }
    }

    /// Serve at most `max` requests from `source`; returns how many were
    /// served, `0` once the source is exhausted. This is the one loop
    /// that drives an engine from a [`RequestSource`]. It tries, in order:
    ///
    /// 1. a zero-copy page-id run ([`RequestSource::next_page_run`]) into
    ///    [`step_page_batch`](Self::step_page_batch);
    /// 2. a borrowed request run ([`RequestSource::next_run`]) into
    ///    [`step_batch`](Self::step_batch);
    /// 3. per-request pulls, each against the live [`ctx`](Self::ctx)
    ///    and served by [`step`](Self::step) before the next pull, so an
    ///    adaptive source sees the outcome of every previous request.
    ///
    /// Pulls are deliberately not buffered into a batch: collecting them
    /// first measured slower on the synthetic mixer source, and would let
    /// an adaptive source observe stale state. Any mix of the three
    /// styles serves the same sequence as a scalar `step` loop.
    #[inline]
    pub fn serve_from<S: RequestSource + ?Sized>(&mut self, source: &mut S, max: usize) -> usize {
        if let Some(run) = source.next_page_run(max).filter(|r| !r.is_empty()) {
            self.step_page_batch(run);
            return run.len();
        }
        if let Some(run) = source.next_run(max).filter(|r| !r.is_empty()) {
            self.step_batch(run);
            return run.len();
        }
        let mut served = 0;
        while served < max {
            let Some(req) = source.next_request(&self.ctx()) else {
                break;
            };
            self.step(req);
            served += 1;
        }
        served
    }

    /// The fault-tolerant counterpart of [`run_batched`](Self::run_batched):
    /// identical semantics to calling [`step_checked`](Self::step_checked)
    /// once per record (same [`FaultCounters`](crate::error::FaultCounters),
    /// same quarantine set, same engine state), but chunks that a cheap
    /// pre-scan proves fault-free — every record well-formed, no user
    /// quarantined — take the batched hot loop instead of the per-record
    /// validation path.
    pub fn run_batched_checked(
        &mut self,
        records: &[Request],
        batch_size: usize,
        handler: &mut FaultHandler,
    ) -> Result<(), SimError> {
        assert!(batch_size > 0, "batch size must be positive");
        for chunk in records.chunks(batch_size) {
            // A chunk may use the trusting loop only if no record in it
            // would fault: pre-scan owners, and require an empty
            // quarantine set (a quarantined user turns even well-formed
            // records into drops). Faults can only arise inside a chunk
            // from the records themselves, so a clean pre-scan holds for
            // the whole chunk.
            let clean = !R::ACTIVE
                && !R::TIMED
                && self.events.is_none()
                && !handler.any_quarantined()
                && chunk
                    .iter()
                    .all(|r| self.universe.try_owner(r.page) == Some(r.user));
            if clean {
                self.serve_batch(chunk)?;
            } else {
                for &req in chunk {
                    self.step_checked(req, handler)?;
                }
            }
        }
        Ok(())
    }

    /// The uninstrumented batched twin of [`serve`](Self::serve): same
    /// cache/stats/policy calls in the same order, with the recorder,
    /// timing, and event-log plumbing compiled out. Split into a warmup
    /// loop (cache still filling) and a steady-state loop with the
    /// fullness check hoisted — serving never frees a slot, and external
    /// removals only happen between batches, so once full the cache
    /// stays full for the rest of the chunk.
    ///
    /// The steady-state loop additionally exploits the lookahead the
    /// batch provides: while serving request `j` it software-prefetches
    /// the page-table probe ([`CacheSet::prefetch_probe`]) for request
    /// `j + PREFETCH_DISTANCE`. (The kernel deliberately does *not*
    /// call [`ReplacementPolicy::prefetch_hint`] — the indirect call
    /// cost more than the policy-side prefetch saved; the hook remains
    /// for custom drivers.) The loop is split into a prefetching main
    /// part and a plain tail of the final [`PREFETCH_DISTANCE`]
    /// requests, so the hot loop carries no lookahead bounds check.
    /// Prefetches are pure hints; the served semantics stay
    /// byte-identical to the scalar path.
    fn serve_batch(&mut self, batch: &[Request]) -> Result<(), PolicyViolation> {
        let mut i = 0;
        while i < batch.len() && !self.cache.is_full() {
            let req = batch[i];
            debug_assert_eq!(
                self.universe.owner(req.page),
                req.user,
                "request owner disagrees with the universe"
            );
            self.serve_filling(req);
            i += 1;
        }
        let steady = &batch[i..];
        let main = steady.len().saturating_sub(PREFETCH_DISTANCE);
        let lookahead = &steady[PREFETCH_DISTANCE.min(steady.len())..];
        for (&req, ahead) in steady[..main].iter().zip(lookahead) {
            self.cache.prefetch_probe(ahead.page);
            self.serve_full(req)?;
        }
        for &req in &steady[main..] {
            self.serve_full(req)?;
        }
        Ok(())
    }

    /// [`serve_batch`](Self::serve_batch) over bare page ids: the same
    /// warmup / prefetching-steady / plain-tail structure, with each
    /// owner derived from the universe at the single point it is
    /// consumed.
    fn serve_page_batch(&mut self, pages: &[PageId]) -> Result<(), PolicyViolation> {
        let mut i = 0;
        while i < pages.len() && !self.cache.is_full() {
            let page = pages[i];
            self.serve_filling(Request {
                page,
                user: self.universe.owner(page),
            });
            i += 1;
        }
        let steady = &pages[i..];
        let main = steady.len().saturating_sub(PREFETCH_DISTANCE);
        let lookahead = &steady[PREFETCH_DISTANCE.min(steady.len())..];
        for (&page, &ahead) in steady[..main].iter().zip(lookahead) {
            self.cache.prefetch_probe(ahead);
            self.serve_full(Request {
                page,
                user: self.universe.owner(page),
            })?;
        }
        for &page in &steady[main..] {
            self.serve_full(Request {
                page,
                user: self.universe.owner(page),
            })?;
        }
        Ok(())
    }

    /// One warmup (cache not yet full) request of the batched kernel:
    /// hit or free-slot insert, no eviction case, no instrumentation.
    /// Shared by [`serve_batch`](Self::serve_batch) and
    /// [`serve_page_batch`](Self::serve_page_batch).
    #[inline(always)]
    fn serve_filling(&mut self, req: Request) {
        if self.cache.contains(req.page) {
            self.stats.record_hit(req.user);
            let ctx = EngineCtx {
                time: self.time,
                cache: &self.cache,
                stats: &self.stats,
                universe: &self.universe,
            };
            self.policy.on_hit(&ctx, req.page);
        } else {
            self.cache.insert(req.page);
            self.stats.record_miss(req.user);
            let ctx = EngineCtx {
                time: self.time,
                cache: &self.cache,
                stats: &self.stats,
                universe: &self.universe,
            };
            self.policy.on_insert(&ctx, req.page);
        }
        self.time += 1;
    }

    /// One steady-state (cache already full) request of the batched
    /// kernel: hit or evict-and-insert, no free-space case, no
    /// instrumentation. Kept separate so [`serve_batch`](Self::serve_batch)
    /// can run it from both the prefetching main loop and the plain
    /// tail loop without duplicating the state machine.
    #[inline(always)]
    fn serve_full(&mut self, req: Request) -> Result<(), PolicyViolation> {
        debug_assert_eq!(
            self.universe.owner(req.page),
            req.user,
            "request owner disagrees with the universe"
        );
        if self.cache.contains(req.page) {
            self.stats.record_hit(req.user);
            let ctx = EngineCtx {
                time: self.time,
                cache: &self.cache,
                stats: &self.stats,
                universe: &self.universe,
            };
            self.policy.on_hit(&ctx, req.page);
        } else {
            let victim = {
                let ctx = EngineCtx {
                    time: self.time,
                    cache: &self.cache,
                    stats: &self.stats,
                    universe: &self.universe,
                };
                self.policy.choose_victim(&ctx, req.page)
            };
            if !self.cache.contains(victim) {
                return Err(PolicyViolation {
                    time: self.time,
                    policy: self.policy.name(),
                    kind: PolicyViolationKind::VictimNotCached(victim),
                });
            }
            if victim == req.page {
                return Err(PolicyViolation {
                    time: self.time,
                    policy: self.policy.name(),
                    kind: PolicyViolationKind::VictimIsIncoming(victim),
                });
            }
            let victim_user = self.universe.owner(victim);
            self.cache.remove(victim);
            self.stats.record_eviction(victim_user);
            self.cache.insert(req.page);
            self.stats.record_miss(req.user);
            let ctx = EngineCtx {
                time: self.time,
                cache: &self.cache,
                stats: &self.stats,
                universe: &self.universe,
            };
            self.policy.on_evicted(&ctx, victim);
            self.policy.on_insert(&ctx, req.page);
        }
        self.time += 1;
        Ok(())
    }

    /// The shared hit/insert/evict state machine behind [`step`](Self::step)
    /// and [`step_checked`](Self::step_checked).
    fn serve(&mut self, req: Request) -> Result<StepOutcome, PolicyViolation> {
        let t = self.time;
        let started = if R::TIMED { Some(Instant::now()) } else { None };
        let outcome = if self.cache.contains(req.page) {
            self.stats.record_hit(req.user);
            let ctx = EngineCtx {
                time: t,
                cache: &self.cache,
                stats: &self.stats,
                universe: &self.universe,
            };
            self.policy.on_hit(&ctx, req.page);
            if R::ACTIVE {
                self.recorder.record_hit(&ctx, t, req.page, req.user);
            }
            if let Some(log) = self.events.as_mut() {
                log.push(SimEvent::Hit { t, page: req.page });
            }
            StepOutcome::Hit
        } else if !self.cache.is_full() {
            self.cache.insert(req.page);
            self.stats.record_miss(req.user);
            let ctx = EngineCtx {
                time: t,
                cache: &self.cache,
                stats: &self.stats,
                universe: &self.universe,
            };
            self.policy.on_insert(&ctx, req.page);
            if R::ACTIVE {
                self.recorder.record_insert(&ctx, t, req.page, req.user);
            }
            if let Some(log) = self.events.as_mut() {
                log.push(SimEvent::Insert { t, page: req.page });
            }
            StepOutcome::Inserted
        } else {
            let victim = {
                let ctx = EngineCtx {
                    time: t,
                    cache: &self.cache,
                    stats: &self.stats,
                    universe: &self.universe,
                };
                self.policy.choose_victim(&ctx, req.page)
            };
            if !self.cache.contains(victim) {
                return Err(PolicyViolation {
                    time: t,
                    policy: self.policy.name(),
                    kind: PolicyViolationKind::VictimNotCached(victim),
                });
            }
            if victim == req.page {
                return Err(PolicyViolation {
                    time: t,
                    policy: self.policy.name(),
                    kind: PolicyViolationKind::VictimIsIncoming(victim),
                });
            }
            let victim_user = self.universe.owner(victim);
            self.cache.remove(victim);
            self.stats.record_eviction(victim_user);
            self.cache.insert(req.page);
            self.stats.record_miss(req.user);
            let ctx = EngineCtx {
                time: t,
                cache: &self.cache,
                stats: &self.stats,
                universe: &self.universe,
            };
            self.policy.on_evicted(&ctx, victim);
            self.policy.on_insert(&ctx, req.page);
            if R::ACTIVE {
                self.recorder
                    .record_eviction(&ctx, t, req.page, req.user, victim, victim_user);
            }
            if let Some(log) = self.events.as_mut() {
                log.push(SimEvent::Evict {
                    t,
                    page: req.page,
                    victim,
                    victim_user,
                });
            }
            StepOutcome::Evicted(victim)
        };
        if let Some(start) = started {
            self.recorder
                .record_latency_ns(t, start.elapsed().as_nanos() as u64);
        }
        self.time += 1;
        Ok(outcome)
    }

    /// Evict every cached page, charging the evictions and firing
    /// [`Recorder::record_flush_eviction`] — the paper's end-of-sequence
    /// dummy-user flush (§2.1), matching
    /// [`SimOptions::flush_at_end`](crate::engine::SimOptions). Intended
    /// as the final operation of a run: the policy is *not* notified, so
    /// its per-page metadata is stale afterwards. Returns how many pages
    /// were flushed.
    pub fn flush(&mut self) -> usize {
        let drained = self.cache.drain_all();
        for &page in &drained {
            let user = self.universe.owner(page);
            self.stats.record_eviction(user);
            if R::ACTIVE {
                self.recorder.record_flush_eviction(page, user);
            }
        }
        drained.len()
    }

    /// Remove `page` from the cache without charging an eviction (the
    /// page leaves for reasons outside the replacement policy's control,
    /// e.g. its owner migrating to another pool). Notifies the policy via
    /// [`ReplacementPolicy::on_external_removal`]. No-op if not cached.
    pub fn remove_externally(&mut self, page: PageId) -> bool {
        if !self.cache.contains(page) {
            return false;
        }
        self.cache.remove(page);
        let ctx = EngineCtx {
            time: self.time,
            cache: &self.cache,
            stats: &self.stats,
            universe: &self.universe,
        };
        self.policy.on_external_removal(&ctx, page);
        true
    }

    /// Remove every cached page owned by `user` (see
    /// [`Self::remove_externally`]); returns how many were removed.
    pub fn remove_user_externally(&mut self, user: UserId) -> usize {
        let pages: Vec<PageId> = self
            .cache
            .iter()
            .filter(|&p| self.universe.owner(p) == user)
            .collect();
        for p in &pages {
            let removed = self.remove_externally(*p);
            debug_assert!(removed);
        }
        pages.len()
    }

    /// Current counters.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Current cache contents.
    pub fn cache(&self) -> &CacheSet {
        &self.cache
    }

    /// Requests served so far.
    pub fn time(&self) -> Time {
        self.time
    }

    /// The recorded events, if enabled.
    pub fn events(&self) -> Option<&EventLog> {
        self.events.as_ref()
    }

    /// Access the wrapped policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Access the attached recorder.
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// Mutable access to the attached recorder (e.g. to drain a sink
    /// mid-run).
    pub fn recorder_mut(&mut self) -> &mut R {
        &mut self.recorder
    }

    /// Tear down the engine, returning the recorder.
    pub fn into_recorder(self) -> R {
        self.recorder
    }

    /// Move the event log out of the engine (recording stops).
    pub fn take_events(&mut self) -> Option<EventLog> {
        self.events.take()
    }

    /// Capture a versioned checkpoint of the full engine + policy state.
    ///
    /// Fails with [`SnapshotError::Unsupported`] if the policy does not
    /// implement [`ReplacementPolicy::save_state`]. Fault-handling state
    /// is not known to the engine; use
    /// [`snapshot_with_faults`](Self::snapshot_with_faults) for checked
    /// runs. The event log and recorder are *not* part of the snapshot —
    /// callers that need continuous telemetry across a resume must
    /// persist their recorder separately (as `occ observe` does).
    pub fn snapshot(&self) -> Result<EngineSnapshot, SnapshotError> {
        let policy = self
            .policy
            .save_state()
            .ok_or_else(|| SnapshotError::Unsupported(self.policy.name()))?;
        Ok(EngineSnapshot {
            version: SNAPSHOT_VERSION,
            time: self.time,
            capacity: self.cache.capacity(),
            num_users: self.universe.num_users(),
            owners: self.universe.owners().to_vec(),
            cache_pages: self.cache.pages().to_vec(),
            stats: self.stats.per_user().to_vec(),
            policy_name: self.policy.name(),
            policy,
            faults: crate::error::FaultCounters::default(),
            quarantined: Vec::new(),
        })
    }

    /// [`snapshot`](Self::snapshot) plus the fault counters and
    /// quarantine membership of a checked run.
    pub fn snapshot_with_faults(
        &self,
        handler: &FaultHandler,
    ) -> Result<EngineSnapshot, SnapshotError> {
        let mut snap = self.snapshot()?;
        snap.faults = handler.counters().clone();
        snap.quarantined = handler.quarantined_users();
        Ok(snap)
    }

    /// Restore this engine to a previously captured checkpoint.
    ///
    /// The snapshot must match the engine it is restored into: same
    /// format version, capacity, universe, and policy name — anything
    /// else is a [`SnapshotError::Mismatch`]. On success the clock,
    /// cache contents (in their original operation-history order),
    /// counters, and policy state are exactly as they were at capture
    /// time, so continuing the run is byte-identical to never having
    /// stopped. The event log restarts empty (it is not part of the
    /// snapshot).
    pub fn restore(&mut self, snap: &EngineSnapshot) -> Result<(), SnapshotError> {
        snap.check_version()?;
        if snap.num_users != self.universe.num_users()
            || snap.owners.as_slice() != self.universe.owners()
        {
            return Err(SnapshotError::Mismatch(
                "snapshot universe differs from the engine's".into(),
            ));
        }
        if snap.capacity != self.cache.capacity() {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot capacity {} vs engine capacity {}",
                snap.capacity,
                self.cache.capacity()
            )));
        }
        let name = self.policy.name();
        if snap.policy_name != name {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot was taken with policy '{}' but the engine runs '{name}'",
                snap.policy_name
            )));
        }
        if snap.stats.len() != self.universe.num_users() as usize {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot has {} per-user stat rows for {} users",
                snap.stats.len(),
                self.universe.num_users()
            )));
        }
        let cache =
            CacheSet::try_restore(snap.capacity, self.universe.num_pages(), &snap.cache_pages)?;
        self.cache = cache;
        self.stats = SimStats::from_per_user(snap.stats.clone());
        self.time = snap.time;
        self.events = self.events.as_ref().map(|log| match log.capacity() {
            Some(c) => EventLog::bounded(c),
            None => EventLog::new(),
        });
        self.policy.reset();
        let ctx = EngineCtx {
            time: self.time,
            cache: &self.cache,
            stats: &self.stats,
            universe: &self.universe,
        };
        self.policy.load_state(&ctx, &snap.policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::PolicyState;
    use crate::trace::Trace;

    struct EvictFirst;
    impl ReplacementPolicy for EvictFirst {
        fn name(&self) -> String {
            "evict-first".into()
        }
        fn choose_victim(&mut self, ctx: &EngineCtx, _incoming: PageId) -> PageId {
            ctx.cache.pages()[0]
        }
        // Stateless, so checkpointing is trivial: the engine-owned cache
        // order is the whole state.
        fn save_state(&self) -> Option<PolicyState> {
            Some(PolicyState::new())
        }
        fn load_state(
            &mut self,
            _ctx: &EngineCtx,
            _state: &PolicyState,
        ) -> Result<(), SnapshotError> {
            Ok(())
        }
    }

    #[test]
    fn stepper_matches_batch_simulator() {
        let u = Universe::uniform(2, 3);
        let pages: Vec<u32> = (0..120u32).map(|i| (i * 7 + 1) % 6).collect();
        let trace = Trace::from_page_indices(&u, &pages);
        let batch = crate::Simulator::new(3).run(&mut EvictFirst, &trace);

        let mut eng = SteppingEngine::new(3, u.clone(), EvictFirst);
        for (_, r) in trace.iter() {
            eng.step(r);
        }
        assert_eq!(eng.stats().miss_vector(), batch.miss_vector());
        assert_eq!(eng.stats().eviction_vector(), batch.stats.eviction_vector());
        assert_eq!(eng.time(), batch.steps);
    }

    /// Hand-derived reference for the state machine, independent of
    /// both the engine and the [`crate::Simulator`] façade over it.
    /// EvictFirst evicts physical slot 0, and the cache swap-removes:
    ///
    /// ```text
    /// t  req  outcome                  slots after
    /// 0  p0   miss u0                  [0]
    /// 1  p2   miss u1                  [0 2]
    /// 2  p1   miss u0                  [0 2 1]
    /// 3  p3   miss u1, evict p0 (u0)   [1 2 3]
    /// 4  p0   miss u0, evict p1 (u0)   [3 2 0]
    /// 5  p2   hit  u1                  [3 2 0]
    /// 6  p3   hit  u1                  [3 2 0]
    /// 7  p1   miss u0, evict p3 (u1)   [0 2 1]
    /// 8  p0   hit  u0                  [0 2 1]
    /// ```
    ///
    /// The end-of-run flush then evicts p0, p1 (u0) and p2 (u1).
    #[test]
    fn known_answer_two_user_trace() {
        let u = Universe::uniform(2, 2); // u0: p0 p1; u1: p2 p3
        let trace = Trace::from_page_indices(&u, &[0, 2, 1, 3, 0, 2, 3, 1, 0]);
        for flush in [false, true] {
            let r = crate::Simulator::new(3)
                .flush_at_end(flush)
                .run(&mut EvictFirst, &trace);
            assert_eq!(r.steps, 9);
            assert_eq!(r.miss_vector(), vec![4, 2], "flush={flush}");
            let hits: Vec<u64> = r.stats.per_user().iter().map(|s| s.hits).collect();
            assert_eq!(hits, vec![1, 2], "flush={flush}");
            let evictions = if flush { vec![4, 2] } else { vec![2, 1] };
            assert_eq!(r.stats.eviction_vector(), evictions, "flush={flush}");
            assert_eq!(r.final_cache, vec![PageId(0), PageId(1), PageId(2)]);
        }
    }

    /// `serve_from` over an adaptive source pulls each request against
    /// the live state, whatever `max` it is given: it must match the
    /// scalar façade request for request. The adversary asks for the
    /// lowest uncached page, so a pull that saw stale state would ask
    /// for a page the previous request already brought in.
    #[test]
    fn serve_from_pulls_adaptive_sources_against_live_state() {
        fn adversary() -> crate::AdaptiveSource<impl FnMut(&[PageId]) -> Option<PageId>> {
            let mut remaining = 40;
            crate::AdaptiveSource::new(Universe::uniform(2, 2), move |cached: &[PageId]| {
                if remaining == 0 {
                    return None;
                }
                remaining -= 1;
                (0..4).map(PageId).find(|p| !cached.contains(p))
            })
        }
        let reference = crate::Simulator::new(3)
            .record_events(true)
            .run_source(&mut EvictFirst, &mut adversary());
        assert_eq!(
            reference.total_misses(),
            40,
            "every adaptive request misses"
        );

        let mut src = adversary();
        let mut eng = SteppingEngine::new(3, src.universe().clone(), EvictFirst).with_events();
        let mut served = 0;
        for max in [1, 3, 7, 64].into_iter().cycle() {
            let n = eng.serve_from(&mut src, max);
            assert!(n <= max);
            if n == 0 {
                break;
            }
            served += n;
        }
        assert_eq!(served as u64, reference.steps);
        assert_eq!(eng.stats(), &reference.stats);
        assert_eq!(
            eng.events().unwrap().to_vec(),
            reference.events.as_ref().unwrap().to_vec()
        );
    }

    #[test]
    fn batched_replay_matches_scalar_including_partial_tail() {
        let u = Universe::uniform(2, 3);
        let pages: Vec<u32> = (0..121u32).map(|i| (i * 7 + 1) % 6).collect();
        let trace = Trace::from_page_indices(&u, &pages);

        let mut scalar = SteppingEngine::new(3, u.clone(), EvictFirst);
        for (_, r) in trace.iter() {
            scalar.step(r);
        }
        // 121 requests over batch=16 leaves a 9-request trailing chunk.
        let mut batched = SteppingEngine::new(3, u.clone(), EvictFirst);
        batched.run_batched(trace.requests(), 16);
        assert_eq!(batched.stats(), scalar.stats());
        assert_eq!(batched.time(), scalar.time());
        assert_eq!(batched.cache().pages(), scalar.cache().pages());
    }

    #[test]
    fn page_batches_match_request_batches() {
        let u = Universe::uniform(2, 3);
        let pages_raw: Vec<u32> = (0..121u32).map(|i| (i * 7 + 1) % 6).collect();
        let trace = Trace::from_page_indices(&u, &pages_raw);
        let pages: Vec<PageId> = trace.requests().iter().map(|r| r.page).collect();

        let mut by_request = SteppingEngine::new(3, u.clone(), EvictFirst);
        by_request.run_batched(trace.requests(), 16);
        let mut by_page = SteppingEngine::new(3, u.clone(), EvictFirst);
        for chunk in pages.chunks(16) {
            by_page.step_page_batch(chunk);
        }
        assert_eq!(by_page.stats(), by_request.stats());
        assert_eq!(by_page.time(), by_request.time());
        assert_eq!(by_page.cache().pages(), by_request.cache().pages());

        // The instrumented fallback derives the same owners too.
        let mut with_events = SteppingEngine::new(3, u.clone(), EvictFirst).with_events();
        for chunk in pages.chunks(16) {
            with_events.step_page_batch(chunk);
        }
        assert_eq!(with_events.stats(), by_request.stats());
    }

    #[test]
    fn batched_replay_with_events_falls_back_to_scalar_path() {
        let u = Universe::uniform(2, 3);
        let pages: Vec<u32> = (0..40u32).map(|i| (i * 5 + 2) % 6).collect();
        let trace = Trace::from_page_indices(&u, &pages);

        let mut scalar = SteppingEngine::new(3, u.clone(), EvictFirst).with_events();
        for (_, r) in trace.iter() {
            scalar.step(r);
        }
        let mut batched = SteppingEngine::new(3, u.clone(), EvictFirst).with_events();
        batched.run_batched(trace.requests(), 7);
        assert_eq!(
            batched.events().unwrap().to_vec(),
            scalar.events().unwrap().to_vec()
        );
        assert_eq!(batched.stats(), scalar.stats());
    }

    #[test]
    fn batched_checked_matches_scalar_on_faulty_stream() {
        let u = Universe::uniform(2, 2); // u0: p0 p1, u1: p2 p3
        let mut records = Vec::new();
        for i in 0..50u32 {
            records.push(u.request(PageId(i % 4)));
            if i % 7 == 3 {
                records.push(Request {
                    page: PageId(100 + i),
                    user: UserId(0),
                });
            }
            if i == 20 {
                // Owner-mismatch record: quarantines p1's true owner u0.
                records.push(Request {
                    page: PageId(1),
                    user: UserId(1),
                });
            }
        }

        for policy in [FaultPolicy::SkipAndCount, FaultPolicy::QuarantineUser] {
            let mut scalar = SteppingEngine::new(2, u.clone(), EvictFirst);
            let mut hs = FaultHandler::new(policy, u.num_users());
            for &r in &records {
                scalar.step_checked(r, &mut hs).unwrap();
            }
            let mut batched = SteppingEngine::new(2, u.clone(), EvictFirst);
            let mut hb = FaultHandler::new(policy, u.num_users());
            batched.run_batched_checked(&records, 8, &mut hb).unwrap();
            assert_eq!(hb.counters(), hs.counters(), "{policy}");
            assert_eq!(hb.quarantined_users(), hs.quarantined_users(), "{policy}");
            assert_eq!(batched.stats(), scalar.stats(), "{policy}");
            assert_eq!(batched.time(), scalar.time(), "{policy}");
            assert_eq!(batched.cache().pages(), scalar.cache().pages(), "{policy}");
        }
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_is_rejected() {
        let u = Universe::single_user(2);
        let mut eng = SteppingEngine::new(1, u.clone(), EvictFirst);
        eng.run_batched(&[u.request(PageId(0))], 0);
    }

    #[test]
    fn outcomes_classified() {
        let u = Universe::single_user(3);
        let mut eng = SteppingEngine::new(2, u.clone(), EvictFirst);
        assert_eq!(eng.step(u.request(PageId(0))), StepOutcome::Inserted);
        assert_eq!(eng.step(u.request(PageId(0))), StepOutcome::Hit);
        assert_eq!(eng.step(u.request(PageId(1))), StepOutcome::Inserted);
        assert_eq!(
            eng.step(u.request(PageId(2))),
            StepOutcome::Evicted(PageId(0))
        );
    }

    #[test]
    fn external_removal_frees_space_without_eviction_charge() {
        let u = Universe::uniform(2, 2); // u0: p0 p1, u1: p2 p3
        let mut eng = SteppingEngine::new(2, u.clone(), EvictFirst);
        eng.step(u.request(PageId(0)));
        eng.step(u.request(PageId(2)));
        assert!(eng.cache().is_full());
        let removed = eng.remove_user_externally(UserId(0));
        assert_eq!(removed, 1);
        assert!(!eng.cache().contains(PageId(0)));
        // No eviction was charged.
        assert_eq!(eng.stats().total_evictions(), 0);
        // The freed slot is reusable without an eviction.
        assert_eq!(eng.step(u.request(PageId(3))), StepOutcome::Inserted);
    }

    #[test]
    fn removing_uncached_page_is_a_noop() {
        let u = Universe::single_user(2);
        let mut eng = SteppingEngine::new(1, u, EvictFirst);
        assert!(!eng.remove_externally(PageId(1)));
    }

    #[test]
    fn events_recorded_when_enabled() {
        let u = Universe::single_user(3);
        let mut eng = SteppingEngine::new(1, u.clone(), EvictFirst).with_events();
        eng.step(u.request(PageId(0)));
        eng.step(u.request(PageId(1)));
        let log = eng.events().unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log.eviction_sequence().len(), 1);
    }

    fn corrupt_page(u: &Universe) -> Request {
        Request {
            page: PageId(u.num_pages() + 5),
            user: UserId(0),
        }
    }

    fn wrong_owner(page: u32) -> Request {
        Request {
            page: PageId(page),
            user: UserId(1),
        }
    }

    #[test]
    fn step_checked_fail_fast_surfaces_the_fault() {
        let u = Universe::single_user(3);
        let mut eng = SteppingEngine::new(2, u.clone(), EvictFirst);
        let mut h = FaultHandler::new(FaultPolicy::FailFast, u.num_users());
        assert_eq!(
            eng.step_checked(u.request(PageId(0)), &mut h).unwrap(),
            Some(StepOutcome::Inserted)
        );
        let err = eng.step_checked(corrupt_page(&u), &mut h).unwrap_err();
        match err {
            SimError::Request(f) => {
                assert_eq!(f.kind, FaultKind::PageOutOfRange);
                assert_eq!(f.time, 1);
            }
            other => panic!("expected a request fault, got {other}"),
        }
        // Nothing was counted or served.
        assert!(h.counters().is_clean());
        assert_eq!(eng.time(), 1);
    }

    #[test]
    fn step_checked_skip_counts_and_keeps_the_clock_aligned() {
        let u = Universe::single_user(3);
        let mut eng = SteppingEngine::new(2, u.clone(), EvictFirst);
        let mut h = FaultHandler::new(FaultPolicy::SkipAndCount, u.num_users());
        eng.step_checked(u.request(PageId(0)), &mut h).unwrap();
        assert_eq!(eng.step_checked(corrupt_page(&u), &mut h).unwrap(), None);
        assert_eq!(eng.step_checked(wrong_owner(1), &mut h).unwrap(), None);
        eng.step_checked(u.request(PageId(1)), &mut h).unwrap();
        assert_eq!(h.counters().page_out_of_range, 1);
        assert_eq!(h.counters().owner_mismatch, 1);
        // Dropped records still consumed a tick each.
        assert_eq!(eng.time(), 4);
        assert_eq!(eng.stats().total_misses(), 2);
    }

    #[test]
    fn step_checked_quarantine_evicts_and_silences_the_user() {
        let u = Universe::uniform(2, 2); // u0: p0 p1, u1: p2 p3
        let mut eng = SteppingEngine::new(3, u.clone(), EvictFirst);
        let mut h = FaultHandler::new(FaultPolicy::QuarantineUser, u.num_users());
        eng.step_checked(u.request(PageId(0)), &mut h).unwrap();
        eng.step_checked(u.request(PageId(2)), &mut h).unwrap();
        // A record claiming u1 owns p1 quarantines p1's true owner, u0.
        assert_eq!(eng.step_checked(wrong_owner(1), &mut h).unwrap(), None);
        assert!(h.is_quarantined(UserId(0)));
        assert!(!eng.cache().contains(PageId(0)), "u0's pages were removed");
        assert!(eng.cache().contains(PageId(2)));
        // No eviction was charged for the quarantine removal.
        assert_eq!(eng.stats().total_evictions(), 0);
        // u0's later (well-formed) requests are dropped and counted.
        assert_eq!(
            eng.step_checked(u.request(PageId(0)), &mut h).unwrap(),
            None
        );
        assert_eq!(h.counters().quarantined_drops, 1);
        assert_eq!(h.counters().quarantined_users, 1);
        // u1 is unaffected.
        assert_eq!(
            eng.step_checked(u.request(PageId(2)), &mut h).unwrap(),
            Some(StepOutcome::Hit)
        );
    }

    #[test]
    fn step_checked_policy_violation_is_always_an_error() {
        struct Liar;
        impl ReplacementPolicy for Liar {
            fn name(&self) -> String {
                "liar".into()
            }
            fn choose_victim(&mut self, _ctx: &EngineCtx, _incoming: PageId) -> PageId {
                PageId(2) // never cached in this scenario
            }
        }
        let u = Universe::single_user(3);
        let mut eng = SteppingEngine::new(1, u.clone(), Liar);
        let mut h = FaultHandler::new(FaultPolicy::SkipAndCount, u.num_users());
        eng.step_checked(u.request(PageId(0)), &mut h).unwrap();
        let err = eng.step_checked(u.request(PageId(1)), &mut h).unwrap_err();
        assert!(matches!(err, SimError::Policy(_)), "got {err}");
    }

    #[test]
    fn flush_matches_batch_accounting() {
        let u = Universe::uniform(2, 2);
        let pages = [0u32, 2, 1, 0, 3, 2];
        let trace = Trace::from_page_indices(&u, &pages);
        let batch = crate::Simulator::new(2)
            .flush_at_end(true)
            .run(&mut EvictFirst, &trace);
        let mut eng = SteppingEngine::new(2, u.clone(), EvictFirst);
        for (_, r) in trace.iter() {
            eng.step(r);
        }
        let flushed = eng.flush();
        assert_eq!(flushed, 2);
        assert_eq!(eng.stats().eviction_vector(), batch.stats.eviction_vector());
        assert!(eng.cache().is_empty());
    }

    #[test]
    fn snapshot_restore_continues_byte_identically() {
        let u = Universe::uniform(2, 3);
        let pages: Vec<u32> = (0..60u32).map(|i| (i * 5 + 2) % 6).collect();
        let trace = Trace::from_page_indices(&u, &pages);

        // Uninterrupted run.
        let mut full = SteppingEngine::new(3, u.clone(), EvictFirst).with_events();
        for (_, r) in trace.iter() {
            full.step(r);
        }

        // Run to the midpoint, snapshot, restore into a fresh engine,
        // continue.
        let cut = 31usize;
        let mut first = SteppingEngine::new(3, u.clone(), EvictFirst).with_events();
        for (_, r) in trace.iter().take(cut) {
            first.step(r);
        }
        let snap = first.snapshot().unwrap();
        assert_eq!(snap.time, cut as Time);

        let mut resumed = SteppingEngine::from_snapshot(&snap, EvictFirst)
            .unwrap()
            .with_events();
        for (_, r) in trace.iter().skip(cut) {
            resumed.step(r);
        }
        assert_eq!(resumed.stats(), full.stats());
        assert_eq!(resumed.time(), full.time());
        assert_eq!(resumed.cache().pages(), full.cache().pages());
        // Prefix events + suffix events = uninterrupted events.
        let mut stitched = first.events().unwrap().to_vec();
        stitched.extend(resumed.events().unwrap().to_vec());
        assert_eq!(stitched, full.events().unwrap().to_vec());
    }

    #[test]
    fn restore_rejects_mismatched_engines() {
        let u = Universe::uniform(2, 2);
        let mut eng = SteppingEngine::new(2, u.clone(), EvictFirst);
        eng.step(u.request(PageId(0)));
        let snap = eng.snapshot().unwrap();

        // Wrong capacity.
        let mut other = SteppingEngine::new(3, u.clone(), EvictFirst);
        assert!(matches!(
            other.restore(&snap),
            Err(SnapshotError::Mismatch(_))
        ));

        // Wrong universe.
        let mut other = SteppingEngine::new(2, Universe::uniform(2, 3), EvictFirst);
        assert!(matches!(
            other.restore(&snap),
            Err(SnapshotError::Mismatch(_))
        ));

        // Wrong version.
        let mut bad = snap.clone();
        bad.version = SNAPSHOT_VERSION + 7;
        let mut other = SteppingEngine::new(2, u.clone(), EvictFirst);
        assert!(matches!(
            other.restore(&bad),
            Err(SnapshotError::UnsupportedVersion { .. })
        ));

        // Corrupt cache contents.
        let mut bad = snap.clone();
        bad.cache_pages = vec![PageId(0), PageId(0)];
        let mut other = SteppingEngine::new(2, u, EvictFirst);
        assert!(matches!(
            other.restore(&bad),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn snapshot_requires_policy_support() {
        struct Opaque;
        impl ReplacementPolicy for Opaque {
            fn name(&self) -> String {
                "opaque".into()
            }
            fn choose_victim(&mut self, ctx: &EngineCtx, _incoming: PageId) -> PageId {
                ctx.cache.pages()[0]
            }
        }
        let u = Universe::single_user(2);
        let eng = SteppingEngine::new(1, u, Opaque);
        assert!(matches!(
            eng.snapshot(),
            Err(SnapshotError::Unsupported(name)) if name == "opaque"
        ));
    }
}
