//! A page-sharded concurrent engine: one k-sized cache, many writers.
//!
//! `occ-fleet` scales by cloning *independent* caches; this module is the
//! other axis — M worker threads serving interleaved per-user streams
//! against a **single** shared cache of capacity `k`, which is the
//! setting the paper actually reasons about (one cache, n users, convex
//! per-user costs). The page table is striped into S lock-guarded shard
//! segments; global capacity lives in a sharded per-segment counter whose
//! grants are serialized on a slow-path mutex; evictions are routed
//! through the per-shard policy instances, so the existing flat-array
//! policies (LRU / FIFO / greedy-dual) are *reused*, not forked.
//!
//! # Correctness: the commit schedule and the replay gate
//!
//! Concurrency bugs are silent, so every run carries its own proof
//! obligation. Each consumed record commits exactly one
//! [`CommitRecord`] — `(seq, thread, shard, page, user, outcome)` —
//! where `seq` is drawn from a global counter **while the op's locks are
//! held**. Because every operation holds all locks covering the state it
//! touches from validation to commit (strict two-phase locking with the
//! sequence draw inside the critical section), the concurrent execution
//! is conflict-serializable in `seq` order. A single-threaded replay of
//! the merged schedule through the stock [`SteppingEngine`] — wrapped in
//! a [`ShardedPolicy`] that mirrors the shard routing — must therefore
//! reproduce every per-request outcome, the per-user miss vectors, the
//! fault counters, and the quarantine set *byte-identically*. The replay
//! gate ([`replay_schedule`] + [`verify_replay`]) checks all of it.
//!
//! # Locking protocol
//!
//! * **Hit**: lock `shard(page)` only; draw `seq`; `on_hit`.
//! * **Miss** (insert or evict): release the shard lock, take the
//!   capacity mutex, relock the shard, re-validate (the page may have
//!   been inserted by a racing thread — now a hit; the user may have
//!   been quarantined — now a drop). Capacity-affecting operations are
//!   totally ordered by the mutex: any lock-free capacity fast path
//!   lets the sequence order invert the token-grant order, and the
//!   replay (whose insert-vs-evict branch reads the *global*
//!   `is_full()`) would diverge.
//! * **Eviction**: the mutex holder scans the per-shard used counters
//!   from `shard(page)` upward (mod S) for the first non-empty segment
//!   and asks *that* shard's policy for the victim. Only the mutex
//!   holder ever holds two shard locks, so lock order cannot deadlock:
//!   a thread holding a shard lock never waits on the mutex (misses
//!   release before acquiring it).
//! * **Quarantine event** (malformed record under
//!   [`FaultPolicy::QuarantineUser`]): mutex + *all* shard locks in
//!   ascending order; set the flag, purge the culprit's pages from
//!   every segment, draw `seq` under the full lock set. Quarantine
//!   flags are only read under at least one shard lock, so a reader is
//!   always strictly before or strictly after the whole event.
//! * **Stateless drops** (malformed records under skip-and-count): no
//!   shared state is touched, the record commutes with everything; a
//!   bare atomic `seq` draw suffices.
//!
//! # The policy purity contract
//!
//! Shard-local policy instances see per-shard `EngineCtx` views (their
//! own segment's cache, an all-zero stats table), while the replay's
//! inner instances see the global engine's view. The two agree only for
//! policies whose decisions are pure functions of their callback
//! sequence — which holds for the intrusive-list policies this engine
//! supports (LRU, FIFO, greedy-dual): they read `ctx.universe` (owner
//! table, page count) and nothing else. Policies that scan `ctx.cache`
//! (e.g. the key oracles of `occ-oracle`) or read `ctx.stats` /
//! `ctx.time` (the convex-cost family) are **not** shard-safe and must
//! not be handed to [`ConcurrentEngine`].

use crate::cache::CacheSet;
use crate::engine::EngineCtx;
use crate::error::{FaultCounters, FaultHandler, FaultKind, FaultPolicy, RequestFault, SimError};
use crate::ids::{PageId, Time, UserId};
use crate::policy::ReplacementPolicy;
use crate::probe::Recorder;
use crate::source::RequestSource;
use crate::stats::SimStats;
use crate::stepper::{StepOutcome, SteppingEngine};
use crate::trace::{Request, Universe};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Which shard segment a page hashes to: dense page ids stripe round-robin.
#[inline]
pub fn shard_of(page: PageId, table_shards: usize) -> usize {
    page.0 as usize % table_shards
}

/// What one committed request did to the shared cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitOutcome {
    /// The page was already cached.
    Hit,
    /// The page was fetched into free space.
    Insert,
    /// The page was fetched; `victim` was evicted to make room.
    Evict {
        /// The page evicted to make room.
        victim: PageId,
    },
    /// The record was absorbed by the degradation policy (skipped,
    /// quarantine-dropped, or the fault that triggered a quarantine).
    Drop {
        /// How the record was classified.
        kind: FaultKind,
    },
}

/// One entry of the commit schedule: the global commit position plus
/// enough provenance (thread, shard) and effect (outcome) to replay and
/// cross-check the request later.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitRecord {
    /// Global commit position (equals the replay engine's clock tick).
    pub seq: u64,
    /// Worker thread that served the request.
    pub thread: u32,
    /// Shard segment of the requested page.
    pub shard: u32,
    /// Requested page (may be out of range for fault records).
    pub page: PageId,
    /// Claimed owner (may disagree with the universe for fault records).
    pub user: UserId,
    /// What the engine did.
    pub outcome: CommitOutcome,
}

impl CommitRecord {
    /// Serialize as one whitespace-separated line:
    /// `seq thread shard page user tag [aux]`.
    pub fn to_line(&self) -> String {
        let (tag, aux) = match self.outcome {
            CommitOutcome::Hit => ("hit", String::new()),
            CommitOutcome::Insert => ("ins", String::new()),
            CommitOutcome::Evict { victim } => ("evt", format!(" {}", victim.0)),
            CommitOutcome::Drop { kind } => ("drop", format!(" {}", kind.name())),
        };
        format!(
            "{} {} {} {} {} {tag}{aux}",
            self.seq, self.thread, self.shard, self.page.0, self.user.0
        )
    }

    /// Parse a line produced by [`to_line`](Self::to_line).
    pub fn from_line(line: &str) -> Result<CommitRecord, ReplayError> {
        let bad = |what: &str| ReplayError::Schedule(format!("{what} in schedule line '{line}'"));
        let mut it = line.split_ascii_whitespace();
        let seq = it
            .next()
            .ok_or_else(|| bad("missing/bad seq"))?
            .parse::<u64>()
            .map_err(|_| bad("missing/bad seq"))?;
        let mut num32 = |what: &str| -> Result<u32, ReplayError> {
            it.next()
                .ok_or_else(|| bad(what))?
                .parse::<u32>()
                .map_err(|_| bad(what))
        };
        let thread = num32("missing/bad thread")?;
        let shard = num32("missing/bad shard")?;
        let page = PageId(num32("missing/bad page")?);
        let user = UserId(num32("missing/bad user")?);
        let tag = it.next().ok_or_else(|| bad("missing outcome tag"))?;
        let outcome = match tag {
            "hit" => CommitOutcome::Hit,
            "ins" => CommitOutcome::Insert,
            "evt" => {
                let victim = it
                    .next()
                    .and_then(|v| v.parse::<u32>().ok())
                    .ok_or_else(|| bad("missing/bad victim"))?;
                CommitOutcome::Evict {
                    victim: PageId(victim),
                }
            }
            "drop" => {
                let kind = match it.next() {
                    Some("page-out-of-range") => FaultKind::PageOutOfRange,
                    Some("owner-mismatch") => FaultKind::OwnerMismatch,
                    Some("quarantined-user") => FaultKind::QuarantinedUser,
                    _ => return Err(bad("missing/bad fault kind")),
                };
                CommitOutcome::Drop { kind }
            }
            _ => return Err(bad("unknown outcome tag")),
        };
        if it.next().is_some() {
            return Err(bad("trailing tokens"));
        }
        Ok(CommitRecord {
            seq,
            thread,
            shard,
            page,
            user,
            outcome,
        })
    }
}

/// The merged, seq-sorted commit schedule of one concurrent run.
///
/// Construction validates the defining invariant: sequence numbers are
/// exactly `0..len` with no gap or duplicate — every consumed record
/// drew one commit position, so the schedule *is* the replay timeline.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommitSchedule {
    entries: Vec<CommitRecord>,
}

impl CommitSchedule {
    /// Merge per-thread commit logs into one seq-ordered schedule.
    pub fn from_threads(per_thread: Vec<Vec<CommitRecord>>) -> Result<CommitSchedule, ReplayError> {
        let mut entries: Vec<CommitRecord> = per_thread.into_iter().flatten().collect();
        entries.sort_unstable_by_key(|e| e.seq);
        let sched = CommitSchedule { entries };
        sched.check_contiguous()?;
        Ok(sched)
    }

    /// Rebuild a schedule from serialized entry lines (any order).
    pub fn from_lines<'a, I: IntoIterator<Item = &'a str>>(
        lines: I,
    ) -> Result<CommitSchedule, ReplayError> {
        let mut entries = lines
            .into_iter()
            .map(CommitRecord::from_line)
            .collect::<Result<Vec<_>, _>>()?;
        entries.sort_unstable_by_key(|e| e.seq);
        let sched = CommitSchedule { entries };
        sched.check_contiguous()?;
        Ok(sched)
    }

    fn check_contiguous(&self) -> Result<(), ReplayError> {
        for (i, e) in self.entries.iter().enumerate() {
            if e.seq != i as u64 {
                return Err(ReplayError::Schedule(format!(
                    "schedule is not contiguous: position {i} holds seq {}",
                    e.seq
                )));
            }
        }
        Ok(())
    }

    /// The entries in commit (= replay) order.
    pub fn entries(&self) -> &[CommitRecord] {
        &self.entries
    }

    /// Number of committed records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was committed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Why a replay could not certify a concurrent run.
#[derive(Debug)]
pub enum ReplayError {
    /// The schedule itself is malformed (gap, duplicate, parse error).
    Schedule(String),
    /// The replay disagreed with the recorded run.
    Divergence {
        /// First diverging commit position (`u64::MAX` for end-of-run
        /// aggregate mismatches).
        seq: u64,
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// The replay engine itself faulted (fail-fast schedules are not
    /// replayable).
    Fault(SimError),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Schedule(msg) => write!(f, "bad commit schedule: {msg}"),
            ReplayError::Divergence { seq, detail } if *seq == u64::MAX => {
                write!(f, "replay divergence (aggregate): {detail}")
            }
            ReplayError::Divergence { seq, detail } => {
                write!(f, "replay divergence at seq {seq}: {detail}")
            }
            ReplayError::Fault(e) => write!(f, "replay fault: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Mirror of the concurrent engine's shard routing for the
/// single-threaded replay: S inner policy instances plus per-shard
/// cached-page counts, driven through the stock [`SteppingEngine`].
///
/// `choose_victim` re-runs the concurrent victim-shard scan — first
/// non-empty segment from `shard(incoming)` upward — and delegates to
/// that shard's inner instance, so every inner policy sees exactly the
/// callback subsequence its concurrent twin saw.
pub struct ShardedPolicy<P> {
    inners: Vec<P>,
    counts: Vec<usize>,
}

impl<P: ReplacementPolicy> ShardedPolicy<P> {
    /// Wrap one policy instance per shard segment.
    pub fn new(inners: Vec<P>) -> Self {
        assert!(!inners.is_empty(), "need at least one shard");
        let counts = vec![0; inners.len()];
        ShardedPolicy { inners, counts }
    }

    /// Number of shard segments.
    pub fn table_shards(&self) -> usize {
        self.inners.len()
    }
}

impl<P: ReplacementPolicy> ReplacementPolicy for ShardedPolicy<P> {
    fn name(&self) -> String {
        format!("sharded({}x{})", self.inners[0].name(), self.inners.len())
    }

    fn on_hit(&mut self, ctx: &EngineCtx, page: PageId) {
        let s = shard_of(page, self.inners.len());
        self.inners[s].on_hit(ctx, page);
    }

    fn on_insert(&mut self, ctx: &EngineCtx, page: PageId) {
        let s = shard_of(page, self.inners.len());
        self.counts[s] += 1;
        self.inners[s].on_insert(ctx, page);
    }

    fn choose_victim(&mut self, ctx: &EngineCtx, incoming: PageId) -> PageId {
        let n = self.inners.len();
        let start = shard_of(incoming, n);
        let v = (0..n)
            .map(|i| (start + i) % n)
            .find(|&i| self.counts[i] > 0)
            .expect("cache is full but no shard holds a page");
        self.inners[v].choose_victim(ctx, incoming)
    }

    fn on_evicted(&mut self, ctx: &EngineCtx, victim: PageId) {
        let s = shard_of(victim, self.inners.len());
        self.counts[s] -= 1;
        self.inners[s].on_evicted(ctx, victim);
    }

    fn on_external_removal(&mut self, ctx: &EngineCtx, page: PageId) {
        let s = shard_of(page, self.inners.len());
        self.counts[s] -= 1;
        self.inners[s].on_external_removal(ctx, page);
    }

    fn reset(&mut self) {
        for p in &mut self.inners {
            p.reset();
        }
        self.counts.fill(0);
    }
}

/// One shard segment: its slice of the page table, its policy instance,
/// and an all-zero stats table used to fabricate per-shard `EngineCtx`
/// views (the supported policies never read stats — see the purity
/// contract in the module docs).
struct ShardState<P> {
    cache: CacheSet,
    policy: P,
    stats: SimStats,
}

/// The sharded capacity counter: per-segment used counts plus the global
/// free count. Grants (and the victim-shard scan, which is the slow-path
/// rebalance) are serialized under the owning mutex.
struct CapacityState {
    free: usize,
    used: Vec<usize>,
}

/// Per-thread accumulation: counters and the thread's slice of the
/// commit schedule. Merged after the workers join.
#[derive(Clone, Debug, Default)]
pub struct ThreadLane {
    /// Per-user hit/miss/eviction counters observed by this thread.
    pub stats: SimStats,
    /// Faults absorbed by this thread.
    pub counters: FaultCounters,
    /// Commit records in this thread's local order (seq ascending).
    pub schedule: Vec<CommitRecord>,
}

impl ThreadLane {
    fn new(num_users: u32) -> Self {
        ThreadLane {
            stats: SimStats::new(num_users),
            counters: FaultCounters::default(),
            schedule: Vec::new(),
        }
    }
}

/// The merged result of a concurrent run.
#[derive(Clone, Debug)]
pub struct SharedOutcome {
    /// Per-user counters summed across threads.
    pub stats: SimStats,
    /// Fault counters merged across threads.
    pub counters: FaultCounters,
    /// Quarantined users, ascending.
    pub quarantined: Vec<UserId>,
    /// The merged, validated commit schedule.
    pub schedule: CommitSchedule,
    /// Per-thread `(stats, counters)` before merging, for exactness
    /// assertions (the merged counters must *sum* to these).
    pub per_thread: Vec<(SimStats, FaultCounters)>,
}

/// The aggregate state of a single-threaded schedule replay.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// The replay engine's per-user counters.
    pub stats: SimStats,
    /// The replay handler's fault counters.
    pub counters: FaultCounters,
    /// The replay handler's quarantine set, ascending.
    pub quarantined: Vec<UserId>,
}

/// M writers, one cache: the concurrent shared-cache engine.
pub struct ConcurrentEngine<P> {
    universe: Universe,
    capacity: usize,
    degrade: FaultPolicy,
    shards: Vec<Mutex<ShardState<P>>>,
    cap: Mutex<CapacityState>,
    seq: AtomicU64,
    quarantined: Vec<AtomicBool>,
    stop: AtomicBool,
}

impl<P: ReplacementPolicy> ConcurrentEngine<P> {
    /// Build an engine of capacity `capacity` with one policy instance
    /// per shard segment (`policies.len()` = S). Panics on zero capacity
    /// or an empty shard list, like the sequential engines.
    pub fn new(
        capacity: usize,
        universe: Universe,
        degrade: FaultPolicy,
        policies: Vec<P>,
    ) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        assert!(!policies.is_empty(), "need at least one shard");
        let num_pages = universe.num_pages();
        let shards: Vec<Mutex<ShardState<P>>> = policies
            .into_iter()
            .map(|policy| {
                Mutex::new(ShardState {
                    // Full capacity and page range per segment: global
                    // occupancy (enforced by the capacity counter) bounds
                    // any one segment, so per-segment inserts never
                    // overflow.
                    cache: CacheSet::new(capacity, num_pages),
                    policy,
                    stats: SimStats::new(universe.num_users()),
                })
            })
            .collect();
        let table_shards = shards.len();
        let quarantined = (0..universe.num_users())
            .map(|_| AtomicBool::new(false))
            .collect();
        ConcurrentEngine {
            universe,
            capacity,
            degrade,
            shards,
            cap: Mutex::new(CapacityState {
                free: capacity,
                used: vec![0; table_shards],
            }),
            seq: AtomicU64::new(0),
            quarantined,
            stop: AtomicBool::new(false),
        }
    }

    /// The page/user universe.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Cache capacity `k`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of shard segments S.
    pub fn table_shards(&self) -> usize {
        self.shards.len()
    }

    /// The degradation policy in force.
    pub fn degrade(&self) -> FaultPolicy {
        self.degrade
    }

    /// Records committed so far.
    pub fn committed(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Whether a fail-fast fault has stopped the run.
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Quarantined users, ascending.
    pub fn quarantined_users(&self) -> Vec<UserId> {
        self.quarantined
            .iter()
            .enumerate()
            .filter(|(_, q)| q.load(Ordering::Relaxed))
            .map(|(i, _)| UserId(i as u32))
            .collect()
    }

    /// Serve one untrusted record on behalf of `thread`, appending its
    /// commit record to `lane`. Mirrors
    /// [`SteppingEngine::step_checked`] classification and effects
    /// exactly; the only error is a fail-fast fault, which also raises
    /// the engine-wide stop flag.
    pub fn serve_record(
        &self,
        thread: u32,
        req: Request,
        lane: &mut ThreadLane,
    ) -> Result<CommitOutcome, SimError> {
        let malformed = match self.universe.try_owner(req.page) {
            None => Some(FaultKind::PageOutOfRange),
            Some(owner) if owner != req.user => Some(FaultKind::OwnerMismatch),
            Some(_) => None,
        };
        if let Some(kind) = malformed {
            return self.absorb_malformed(thread, req, kind, lane);
        }
        let s = shard_of(req.page, self.shards.len());
        // Fast path: quarantine flag and membership under the shard lock
        // only. The flag read is ordered against quarantine events
        // because those hold every shard lock.
        {
            let mut sh = self.shards[s].lock().unwrap();
            if self.quarantined[req.user.index()].load(Ordering::Relaxed) {
                return Ok(self.commit_quarantined_drop(s, thread, req, lane));
            }
            if sh.cache.contains(req.page) {
                return Ok(self.commit_hit(&mut sh, s, thread, req, lane));
            }
        }
        // Slow path: a capacity-affecting miss. Release the shard lock
        // first (holding it while waiting on the mutex would deadlock
        // against a mutex holder evicting from this shard), then
        // re-validate everything after relocking.
        let mut cap = self.cap.lock().unwrap();
        let mut sh = self.shards[s].lock().unwrap();
        if self.quarantined[req.user.index()].load(Ordering::Relaxed) {
            return Ok(self.commit_quarantined_drop(s, thread, req, lane));
        }
        if sh.cache.contains(req.page) {
            return Ok(self.commit_hit(&mut sh, s, thread, req, lane));
        }
        if cap.free > 0 {
            cap.free -= 1;
            cap.used[s] += 1;
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            let ShardState {
                cache,
                policy,
                stats,
            } = &mut *sh;
            cache.insert(req.page);
            lane.stats.record_miss(req.user);
            let ctx = EngineCtx {
                time: seq,
                cache,
                stats,
                universe: &self.universe,
            };
            policy.on_insert(&ctx, req.page);
            let outcome = CommitOutcome::Insert;
            lane.schedule
                .push(self.record(seq, thread, s, req, outcome));
            return Ok(outcome);
        }
        // Eviction: scan the sharded counter from this segment upward
        // for the first non-empty one; its policy names the victim.
        let n = self.shards.len();
        let v = (0..n)
            .map(|i| (s + i) % n)
            .find(|&i| cap.used[i] > 0)
            .expect("cache is full but no shard holds a page");
        // seq must be drawn only once every covering lock is held; for a
        // cross-shard eviction that includes the victim shard's lock, or a
        // concurrent hit there could commit with a later seq yet mutate the
        // shard's policy state first, making the schedule non-serializable
        // in seq order.
        let (seq, victim) = if v == s {
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            let victim = Self::evict_and_insert(&mut sh, None, req.page, seq, &self.universe);
            (seq, victim)
        } else {
            // Only the capacity-mutex holder ever takes a second shard
            // lock, so this nested acquisition cannot deadlock.
            let mut shv = self.shards[v].lock().unwrap();
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            let victim =
                Self::evict_and_insert(&mut shv, Some(&mut sh), req.page, seq, &self.universe);
            (seq, victim)
        };
        cap.used[v] -= 1;
        cap.used[s] += 1;
        lane.stats.record_eviction(self.universe.owner(victim));
        lane.stats.record_miss(req.user);
        let outcome = CommitOutcome::Evict { victim };
        lane.schedule
            .push(self.record(seq, thread, s, req, outcome));
        Ok(outcome)
    }

    /// Evict from `victim_shard` and insert `incoming` into `home`
    /// (`None` when the victim lives in the incoming page's own
    /// segment). Mirrors the sequential serve order: `choose_victim`,
    /// physical remove + insert, then `on_evicted`, then `on_insert`.
    fn evict_and_insert(
        victim_shard: &mut ShardState<P>,
        home: Option<&mut ShardState<P>>,
        incoming: PageId,
        seq: u64,
        universe: &Universe,
    ) -> PageId {
        let victim = {
            let ShardState {
                cache,
                policy,
                stats,
            } = victim_shard;
            let ctx = EngineCtx {
                time: seq,
                cache,
                stats,
                universe,
            };
            let victim = policy.choose_victim(&ctx, incoming);
            assert!(
                cache.contains(victim),
                "policy chose a victim that is not cached in its shard"
            );
            assert!(victim != incoming, "policy evicted the incoming page");
            cache.remove(victim);
            victim
        };
        match home {
            None => {
                // Victim and incoming share a segment.
                victim_shard.cache.insert(incoming);
                let ShardState {
                    cache,
                    policy,
                    stats,
                } = victim_shard;
                let ctx = EngineCtx {
                    time: seq,
                    cache,
                    stats,
                    universe,
                };
                policy.on_evicted(&ctx, victim);
                policy.on_insert(&ctx, incoming);
            }
            Some(home) => {
                home.cache.insert(incoming);
                {
                    let ShardState {
                        cache,
                        policy,
                        stats,
                    } = victim_shard;
                    let ctx = EngineCtx {
                        time: seq,
                        cache,
                        stats,
                        universe,
                    };
                    policy.on_evicted(&ctx, victim);
                }
                let ShardState {
                    cache,
                    policy,
                    stats,
                } = home;
                let ctx = EngineCtx {
                    time: seq,
                    cache,
                    stats,
                    universe,
                };
                policy.on_insert(&ctx, incoming);
            }
        }
        victim
    }

    fn commit_hit(
        &self,
        sh: &mut ShardState<P>,
        s: usize,
        thread: u32,
        req: Request,
        lane: &mut ThreadLane,
    ) -> CommitOutcome {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        lane.stats.record_hit(req.user);
        let ShardState {
            cache,
            policy,
            stats,
        } = sh;
        let ctx = EngineCtx {
            time: seq,
            cache,
            stats,
            universe: &self.universe,
        };
        policy.on_hit(&ctx, req.page);
        let outcome = CommitOutcome::Hit;
        lane.schedule
            .push(self.record(seq, thread, s, req, outcome));
        outcome
    }

    /// Drop a well-formed record from a quarantined user. Caller must
    /// hold the page's shard lock (which orders the flag read against
    /// quarantine events).
    fn commit_quarantined_drop(
        &self,
        s: usize,
        thread: u32,
        req: Request,
        lane: &mut ThreadLane,
    ) -> CommitOutcome {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        lane.counters.count(FaultKind::QuarantinedUser);
        let outcome = CommitOutcome::Drop {
            kind: FaultKind::QuarantinedUser,
        };
        lane.schedule
            .push(self.record(seq, thread, s, req, outcome));
        outcome
    }

    /// Absorb a malformed record (page out of range / owner mismatch)
    /// under the engine's degradation policy, mirroring
    /// `step_checked`'s policy table.
    fn absorb_malformed(
        &self,
        thread: u32,
        req: Request,
        kind: FaultKind,
        lane: &mut ThreadLane,
    ) -> Result<CommitOutcome, SimError> {
        let s = shard_of(req.page, self.shards.len());
        match self.degrade {
            FaultPolicy::FailFast => {
                self.stop.store(true, Ordering::Relaxed);
                let fault = RequestFault {
                    // No commit position is drawn for a fail-fast abort;
                    // the committed count is the best timestamp there is.
                    time: self.committed(),
                    kind,
                    page: req.page,
                    user: req.user,
                };
                Err(fault.into())
            }
            FaultPolicy::SkipAndCount => {
                // Stateless: only this thread's counters move, so the
                // record commutes with every other op and a bare
                // sequence draw is a valid commit position.
                lane.counters.count(kind);
                let seq = self.seq.fetch_add(1, Ordering::Relaxed);
                let outcome = CommitOutcome::Drop { kind };
                lane.schedule
                    .push(self.record(seq, thread, s, req, outcome));
                Ok(outcome)
            }
            FaultPolicy::QuarantineUser => {
                lane.counters.count(kind);
                let culprit = self.universe.try_owner(req.page).or_else(|| {
                    (req.user.index() < self.universe.num_users() as usize).then_some(req.user)
                });
                let Some(culprit) = culprit else {
                    // Out-of-range page from a nonexistent user: nobody
                    // to quarantine, stateless like skip-and-count.
                    let seq = self.seq.fetch_add(1, Ordering::Relaxed);
                    let outcome = CommitOutcome::Drop { kind };
                    lane.schedule
                        .push(self.record(seq, thread, s, req, outcome));
                    return Ok(outcome);
                };
                // Quarantine event: the one op that touches every
                // segment. Mutex first, then all shard locks ascending;
                // flag writes are ordered against every reader because
                // readers hold at least one shard lock.
                let mut cap = self.cap.lock().unwrap();
                let mut guards: Vec<MutexGuard<'_, ShardState<P>>> =
                    self.shards.iter().map(|m| m.lock().unwrap()).collect();
                let seq = self.seq.fetch_add(1, Ordering::Relaxed);
                if !self.quarantined[culprit.index()].load(Ordering::Relaxed) {
                    self.quarantined[culprit.index()].store(true, Ordering::Relaxed);
                    lane.counters.quarantined_users += 1;
                    for (i, guard) in guards.iter_mut().enumerate() {
                        let removed = Self::purge_user(guard, culprit, seq, &self.universe);
                        cap.used[i] -= removed;
                        cap.free += removed;
                    }
                }
                let outcome = CommitOutcome::Drop { kind };
                lane.schedule
                    .push(self.record(seq, thread, s, req, outcome));
                Ok(outcome)
            }
        }
    }

    /// Remove every cached page owned by `user` from one segment
    /// (uncharged, like [`SteppingEngine::remove_user_externally`]).
    fn purge_user(sh: &mut ShardState<P>, user: UserId, seq: u64, universe: &Universe) -> usize {
        let doomed: Vec<PageId> = sh
            .cache
            .pages()
            .iter()
            .copied()
            .filter(|&p| universe.owner(p) == user)
            .collect();
        for &p in &doomed {
            sh.cache.remove(p);
            let ShardState {
                cache,
                policy,
                stats,
            } = sh;
            let ctx = EngineCtx {
                time: seq,
                cache,
                stats,
                universe,
            };
            policy.on_external_removal(&ctx, p);
        }
        doomed.len()
    }

    fn record(
        &self,
        seq: u64,
        thread: u32,
        shard: usize,
        req: Request,
        outcome: CommitOutcome,
    ) -> CommitRecord {
        CommitRecord {
            seq,
            thread,
            shard: shard as u32,
            page: req.page,
            user: req.user,
            outcome,
        }
    }

    /// Drive one worker to stream exhaustion (or engine stop), feeding
    /// outcomes to `recorder` with the same hook semantics the
    /// sequential engines use.
    fn drive_worker<S: RequestSource, R: Recorder>(
        &self,
        thread: u32,
        source: &mut S,
        recorder: &mut R,
    ) -> Result<ThreadLane, SimError> {
        let mut lane = ThreadLane::new(self.universe.num_users());
        // Sources in shared mode must be non-adaptive (an adaptive
        // source cannot observe a sharded cache coherently), so the ctx
        // handed to them views an empty one-slot probe cache.
        let probe_cache = CacheSet::new(1, self.universe.num_pages());
        let probe_stats = SimStats::new(self.universe.num_users());
        let mut local_t: Time = 0;
        loop {
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            let src_ctx = EngineCtx {
                time: local_t,
                cache: &probe_cache,
                stats: &probe_stats,
                universe: &self.universe,
            };
            let Some(req) = source.next_request(&src_ctx) else {
                break;
            };
            local_t += 1;
            let started = if R::TIMED { Some(Instant::now()) } else { None };
            let outcome = self.serve_record(thread, req, &mut lane)?;
            if R::ACTIVE {
                let seq = lane.schedule.last().map(|r| r.seq).unwrap_or(0);
                let ctx = EngineCtx {
                    time: seq,
                    cache: &probe_cache,
                    stats: &probe_stats,
                    universe: &self.universe,
                };
                match outcome {
                    CommitOutcome::Hit => recorder.record_hit(&ctx, seq, req.page, req.user),
                    CommitOutcome::Insert => recorder.record_insert(&ctx, seq, req.page, req.user),
                    CommitOutcome::Evict { victim } => recorder.record_eviction(
                        &ctx,
                        seq,
                        req.page,
                        req.user,
                        victim,
                        self.universe.owner(victim),
                    ),
                    CommitOutcome::Drop { kind } => recorder.record_fault(&RequestFault {
                        time: seq,
                        kind,
                        page: req.page,
                        user: req.user,
                    }),
                }
            }
            if let Some(started) = started {
                let seq = lane.schedule.last().map(|r| r.seq).unwrap_or(0);
                recorder.record_latency_ns(seq, started.elapsed().as_nanos() as u64);
            }
        }
        Ok(lane)
    }
}

/// Run `sources[t]` on thread `t` against `engine`, merge everything,
/// and validate the commit schedule. `sources` and `recorders` are
/// borrowed so callers keep them afterwards (chaos sources report their
/// injected-fault tallies; recorders get merged by the caller).
///
/// Fail-fast runs return the first thread's fault (in thread order) and
/// no outcome; all other policies always complete.
pub fn run_shared<P, S, R>(
    engine: &ConcurrentEngine<P>,
    sources: &mut [S],
    recorders: &mut [R],
) -> Result<SharedOutcome, SimError>
where
    P: ReplacementPolicy + Send,
    S: RequestSource + Send,
    R: Recorder + Send,
{
    assert_eq!(
        sources.len(),
        recorders.len(),
        "one recorder per worker thread"
    );
    for src in sources.iter() {
        assert_eq!(
            src.universe(),
            engine.universe(),
            "all shared-mode sources must range over the engine's universe"
        );
    }
    let lanes: Vec<Result<ThreadLane, SimError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .iter_mut()
            .zip(recorders.iter_mut())
            .enumerate()
            .map(|(t, (source, recorder))| {
                scope.spawn(move || engine.drive_worker(t as u32, source, recorder))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shared-cache worker panicked"))
            .collect()
    });
    let mut per_thread = Vec::with_capacity(lanes.len());
    let mut schedules = Vec::with_capacity(lanes.len());
    let mut stats = SimStats::new(engine.universe().num_users());
    let mut counters = FaultCounters::default();
    for lane in lanes {
        let lane = lane?;
        merge_stats(&mut stats, &lane.stats);
        counters.merge(&lane.counters);
        per_thread.push((lane.stats, lane.counters));
        schedules.push(lane.schedule);
    }
    // Contiguity is guaranteed by construction: every consumed record
    // draws exactly one sequence number and commits it before its locks
    // drop, so a gap here is an engine bug, not an input condition.
    let schedule =
        CommitSchedule::from_threads(schedules).expect("commit schedule must be contiguous");
    Ok(SharedOutcome {
        stats,
        counters,
        quarantined: engine.quarantined_users(),
        schedule,
        per_thread,
    })
}

/// Sum `from` into `into`, user by user (saturating, like the engine's
/// own counters).
pub fn merge_stats(into: &mut SimStats, from: &SimStats) {
    assert_eq!(into.num_users(), from.num_users());
    let merged: Vec<crate::stats::UserStats> = into
        .per_user()
        .iter()
        .zip(from.per_user())
        .map(|(a, b)| crate::stats::UserStats {
            hits: a.hits.saturating_add(b.hits),
            misses: a.misses.saturating_add(b.misses),
            evictions: a.evictions.saturating_add(b.evictions),
        })
        .collect();
    *into = SimStats::from_per_user(merged);
}

/// Replay a commit schedule single-threaded through the stock
/// [`SteppingEngine`] + [`ShardedPolicy`], verifying every per-entry
/// outcome (hit/insert/evict victim/drop kind) along the way.
///
/// `policies` must be constructed exactly like the concurrent engine's
/// shard instances (same policy, same parameters, same count).
pub fn replay_schedule<P: ReplacementPolicy>(
    capacity: usize,
    universe: Universe,
    policies: Vec<P>,
    degrade: FaultPolicy,
    schedule: &CommitSchedule,
) -> Result<ReplayOutcome, ReplayError> {
    let num_users = universe.num_users();
    let mut engine = SteppingEngine::new(capacity, universe, ShardedPolicy::new(policies));
    let mut handler = FaultHandler::new(degrade, num_users);
    for entry in schedule.entries() {
        let req = Request {
            page: entry.page,
            user: entry.user,
        };
        // Predict the drop classification before stepping (step_checked
        // reports drops as a bare `Ok(None)`).
        let predicted = {
            let ctx = engine.ctx();
            match ctx.universe.try_owner(req.page) {
                None => Some(FaultKind::PageOutOfRange),
                Some(owner) if owner != req.user => Some(FaultKind::OwnerMismatch),
                Some(_) if handler.is_quarantined(req.user) => Some(FaultKind::QuarantinedUser),
                Some(_) => None,
            }
        };
        let stepped = engine
            .step_checked(req, &mut handler)
            .map_err(ReplayError::Fault)?;
        let replayed = match stepped {
            Some(StepOutcome::Hit) => CommitOutcome::Hit,
            Some(StepOutcome::Inserted) => CommitOutcome::Insert,
            Some(StepOutcome::Evicted(victim)) => CommitOutcome::Evict { victim },
            None => CommitOutcome::Drop {
                kind: predicted.expect("step_checked dropped a record it classified as clean"),
            },
        };
        if replayed != entry.outcome {
            return Err(ReplayError::Divergence {
                seq: entry.seq,
                detail: format!(
                    "thread {} shard {} {} {}: concurrent committed {:?}, replay produced {:?}",
                    entry.thread, entry.shard, entry.page, entry.user, entry.outcome, replayed
                ),
            });
        }
    }
    Ok(ReplayOutcome {
        stats: engine.stats().clone(),
        counters: handler.counters().clone(),
        quarantined: handler.quarantined_users(),
    })
}

/// The replay gate: per-user miss vectors (and all other counters),
/// fault counters, and quarantine sets of the concurrent run must equal
/// the replay's byte-for-byte.
pub fn verify_replay(shared: &SharedOutcome, replay: &ReplayOutcome) -> Result<(), ReplayError> {
    if shared.stats != replay.stats {
        return Err(ReplayError::Divergence {
            seq: u64::MAX,
            detail: format!(
                "per-user stats differ: concurrent misses {:?} vs replay {:?}",
                shared.stats.miss_vector(),
                replay.stats.miss_vector()
            ),
        });
    }
    if shared.counters != replay.counters {
        return Err(ReplayError::Divergence {
            seq: u64::MAX,
            detail: format!(
                "fault counters differ: concurrent {:?} vs replay {:?}",
                shared.counters, replay.counters
            ),
        });
    }
    if shared.quarantined != replay.quarantined {
        return Err(ReplayError::Divergence {
            seq: u64::MAX,
            detail: format!(
                "quarantine sets differ: concurrent {:?} vs replay {:?}",
                shared.quarantined, replay.quarantined
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::NoopRecorder;
    use crate::source::TraceSource;
    use crate::trace::Trace;

    /// A tiny LRU over an ordered vec — slow, obviously correct, and
    /// callback-pure, so it is shard-safe by construction.
    struct VecLru {
        order: Vec<PageId>,
    }

    impl VecLru {
        fn new() -> Self {
            VecLru { order: Vec::new() }
        }
    }

    impl ReplacementPolicy for VecLru {
        fn name(&self) -> String {
            "vec-lru".into()
        }
        fn on_hit(&mut self, _ctx: &EngineCtx, page: PageId) {
            self.order.retain(|&p| p != page);
            self.order.push(page);
        }
        fn on_insert(&mut self, _ctx: &EngineCtx, page: PageId) {
            self.order.push(page);
        }
        fn choose_victim(&mut self, _ctx: &EngineCtx, _incoming: PageId) -> PageId {
            self.order.remove(0)
        }
        fn on_external_removal(&mut self, _ctx: &EngineCtx, page: PageId) {
            self.order.retain(|&p| p != page);
        }
        fn reset(&mut self) {
            self.order.clear();
        }
    }

    /// Unvalidated request vector source ([`Trace`] rejects malformed
    /// records at construction; fault tests need to emit them).
    struct RawSource {
        universe: Universe,
        reqs: Vec<Request>,
        pos: usize,
    }

    impl RequestSource for RawSource {
        fn universe(&self) -> &Universe {
            &self.universe
        }
        fn next_request(&mut self, _ctx: &EngineCtx) -> Option<Request> {
            let r = self.reqs.get(self.pos).copied();
            self.pos += 1;
            r
        }
    }

    fn small_universe() -> Universe {
        // 3 users × 8 pages each.
        let owners: Vec<UserId> = (0..24).map(|p| UserId(p / 8)).collect();
        Universe::new(3, owners)
    }

    fn interleaved_traces(universe: &Universe, per_thread: usize, threads: usize) -> Vec<Trace> {
        (0..threads)
            .map(|t| {
                let reqs: Vec<Request> = (0..per_thread)
                    .map(|i| {
                        let p = PageId(((i * 7 + t * 5 + i * i) % 24) as u32);
                        universe.request(p)
                    })
                    .collect();
                Trace::new(universe.clone(), reqs)
            })
            .collect()
    }

    fn run_and_verify(threads: usize, table_shards: usize, k: usize) -> SharedOutcome {
        let universe = small_universe();
        let engine = ConcurrentEngine::new(
            k,
            universe.clone(),
            FaultPolicy::SkipAndCount,
            (0..table_shards).map(|_| VecLru::new()).collect(),
        );
        let traces = interleaved_traces(&universe, 200, threads);
        let mut sources: Vec<TraceSource> = traces.iter().map(TraceSource::new).collect();
        let mut recorders = vec![NoopRecorder; threads];
        let shared = run_shared(&engine, &mut sources, &mut recorders).unwrap();
        let replay = replay_schedule(
            k,
            universe,
            (0..table_shards).map(|_| VecLru::new()).collect(),
            FaultPolicy::SkipAndCount,
            &shared.schedule,
        )
        .unwrap();
        verify_replay(&shared, &replay).unwrap();
        shared
    }

    #[test]
    fn concurrent_matches_replay_across_shapes() {
        for &(threads, shards, k) in &[(1, 1, 4), (2, 3, 5), (4, 8, 6), (3, 2, 1), (4, 1, 7)] {
            let shared = run_and_verify(threads, shards, k);
            assert_eq!(shared.schedule.len(), threads * 200);
            assert!(shared.counters.is_clean());
        }
    }

    #[test]
    fn schedule_seqs_are_contiguous_and_shard_consistent() {
        let shared = run_and_verify(4, 4, 6);
        for (i, e) in shared.schedule.entries().iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.shard, shard_of(e.page, 4) as u32);
        }
    }

    #[test]
    fn commit_record_line_round_trip() {
        let records = [
            CommitRecord {
                seq: 0,
                thread: 3,
                shard: 1,
                page: PageId(9),
                user: UserId(1),
                outcome: CommitOutcome::Hit,
            },
            CommitRecord {
                seq: 1,
                thread: 0,
                shard: 0,
                page: PageId(4),
                user: UserId(0),
                outcome: CommitOutcome::Evict { victim: PageId(2) },
            },
            CommitRecord {
                seq: 2,
                thread: 1,
                shard: 2,
                page: PageId(99),
                user: UserId(7),
                outcome: CommitOutcome::Drop {
                    kind: FaultKind::PageOutOfRange,
                },
            },
            CommitRecord {
                seq: 3,
                thread: 2,
                shard: 0,
                page: PageId(12),
                user: UserId(2),
                outcome: CommitOutcome::Insert,
            },
        ];
        for r in records {
            assert_eq!(CommitRecord::from_line(&r.to_line()).unwrap(), r);
        }
        assert!(CommitRecord::from_line("1 2 3").is_err());
        assert!(CommitRecord::from_line("0 0 0 1 1 zap").is_err());
        assert!(CommitRecord::from_line("0 0 0 1 1 hit extra").is_err());
        // Ids wider than u32 must be rejected, not silently truncated.
        assert!(CommitRecord::from_line("0 4294967296 0 1 1 hit").is_err());
        assert!(CommitRecord::from_line("0 0 4294967296 1 1 hit").is_err());
        assert!(CommitRecord::from_line("0 0 0 4294967296 1 hit").is_err());
        assert!(CommitRecord::from_line("0 0 0 1 4294967296 hit").is_err());
        assert!(CommitRecord::from_line("0 0 0 1 1 evt 4294967296").is_err());
    }

    #[test]
    fn non_contiguous_schedule_rejected() {
        let mk = |seq| CommitRecord {
            seq,
            thread: 0,
            shard: 0,
            page: PageId(0),
            user: UserId(0),
            outcome: CommitOutcome::Hit,
        };
        assert!(CommitSchedule::from_threads(vec![vec![mk(0), mk(2)]]).is_err());
        assert!(CommitSchedule::from_threads(vec![vec![mk(0)], vec![mk(0)]]).is_err());
        assert!(CommitSchedule::from_threads(vec![vec![mk(1), mk(0)]]).is_ok());
    }

    #[test]
    fn quarantine_event_purges_and_replays() {
        let universe = small_universe();
        let engine = ConcurrentEngine::new(
            4,
            universe.clone(),
            FaultPolicy::QuarantineUser,
            (0..2).map(|_| VecLru::new()).collect(),
        );
        // Thread 0: clean requests from user 0; thread 1 ends with an
        // owner-mismatch record whose true owner is user 0.
        let t0: Vec<Request> = (0..40).map(|i| universe.request(PageId(i % 8))).collect();
        let mut t1: Vec<Request> = (0..40)
            .map(|i| universe.request(PageId(8 + i % 8)))
            .collect();
        t1.push(Request {
            page: PageId(3),
            user: UserId(2),
        });
        let mut sources = vec![
            RawSource {
                universe: universe.clone(),
                reqs: t0,
                pos: 0,
            },
            RawSource {
                universe: universe.clone(),
                reqs: t1,
                pos: 0,
            },
        ];
        let mut recorders = vec![NoopRecorder; 2];
        let shared = run_shared(&engine, &mut sources, &mut recorders).unwrap();
        assert_eq!(shared.counters.owner_mismatch, 1);
        assert_eq!(shared.counters.quarantined_users, 1);
        assert_eq!(shared.quarantined, vec![UserId(0)]);
        let replay = replay_schedule(
            4,
            universe,
            (0..2).map(|_| VecLru::new()).collect(),
            FaultPolicy::QuarantineUser,
            &shared.schedule,
        )
        .unwrap();
        verify_replay(&shared, &replay).unwrap();
    }

    #[test]
    fn fail_fast_stops_and_reports() {
        let universe = small_universe();
        let engine = ConcurrentEngine::new(
            4,
            universe.clone(),
            FaultPolicy::FailFast,
            vec![VecLru::new()],
        );
        let reqs = vec![
            universe.request(PageId(0)),
            Request {
                page: PageId(999),
                user: UserId(0),
            },
            universe.request(PageId(1)),
        ];
        let mut sources = vec![RawSource {
            universe: universe.clone(),
            reqs,
            pos: 0,
        }];
        let mut recorders = vec![NoopRecorder];
        let err = run_shared(&engine, &mut sources, &mut recorders).unwrap_err();
        assert!(err.to_string().contains("page"), "unexpected error: {err}");
        assert!(engine.stopped());
    }

    #[test]
    fn empty_streams_commit_nothing() {
        let universe = small_universe();
        let engine = ConcurrentEngine::new(
            4,
            universe.clone(),
            FaultPolicy::SkipAndCount,
            (0..3).map(|_| VecLru::new()).collect(),
        );
        let traces: Vec<Trace> = (0..4)
            .map(|_| Trace::new(universe.clone(), Vec::new()))
            .collect();
        let mut sources: Vec<TraceSource> = traces.iter().map(TraceSource::new).collect();
        let mut recorders = vec![NoopRecorder; 4];
        let shared = run_shared(&engine, &mut sources, &mut recorders).unwrap();
        assert!(shared.schedule.is_empty());
        assert_eq!(shared.stats.total_misses(), 0);
        let replay = replay_schedule(
            4,
            universe,
            (0..3).map(|_| VecLru::new()).collect(),
            FaultPolicy::SkipAndCount,
            &shared.schedule,
        )
        .unwrap();
        verify_replay(&shared, &replay).unwrap();
    }
}
