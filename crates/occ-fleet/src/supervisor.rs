//! Fault-tolerant fleet supervision: panic-isolated shards,
//! window-boundary checkpoints, bounded restart with deterministic
//! backoff, and quarantine instead of whole-run abort.
//!
//! [`run_fleet`](crate::run_fleet) propagates the first shard panic and
//! aborts the fleet — correct for a benchmark, wrong for the
//! deployment the ROADMAP targets, where one tenant pool hitting a bug
//! must not take down the other ninety-nine. [`run_supervised_fleet`]
//! replaces the propagating join with a per-shard state machine:
//!
//! ```text
//!            ┌──────────── restart (≤ max_restarts, backoff) ─────────┐
//!            ▼                                                        │
//!   RUNNING ──────── panic / persist fault ──────────────────────────▶│
//!      │                                                              │
//!      │ source exhausted                          retries exhausted  │
//!      ▼                                                              ▼
//!   CLEAN / RECOVERED (restarts > 0)                         QUARANTINED
//! ```
//!
//! Each attempt runs under [`std::panic::catch_unwind`]. Poison safety
//! is by construction rather than by `Mutex`: an attempt owns a fresh
//! engine, policy, recorder, and source (rebuilt from factories every
//! time), and the only state that crosses attempts — the last good
//! checkpoint and the committed window list — is mutated exclusively
//! at *commit points*, after the checkpoint has been durably saved. An
//! unwind therefore leaves the cross-attempt state exactly as of the
//! last commit, and the restart replays forward from there.
//!
//! **Determinism.** A restarted shard is byte-identical to one that
//! never crashed: the checkpoint restores the engine and policy
//! losslessly (PR 3), the source factory plus
//! [`SeekableSource::seek_forward`] reproduces the exact request
//! stream from the crash point (same RNG state), and the windowed
//! recorder restarts at the checkpoint boundary. The property test
//! pins merged series and per-user miss vectors across arbitrary kill
//! schedules, shard counts, and window widths.
//!
//! **Crash ordering.** At every window boundary the driver (1) appends
//! the closed windows to the shard's persist target, (2) saves the
//! checkpoint, (3) commits both to memory. A crash between (1) and (2)
//! re-appends the same windows after restart; [`DirPersist`] drops
//! duplicates by window index, so the on-disk series never tears or
//! double-counts. Writing the series line *before* its checkpoint is
//! load-bearing: the opposite order could persist a checkpoint whose
//! preceding window was never written, and nothing would ever
//! regenerate it.
//!
//! **One windowed driver.** Each attempt is a run of [`WindowDriver`],
//! the one loop that streams a source through an engine in tumbling
//! windows, checkpoints on window boundaries and checks Σ windows ≡
//! engine totals at the end. `occ soak` runs a single unsupervised
//! attempt of the same driver, persisting through [`FilePersist`].

use crate::{FleetReport, ShardReport};
use occ_probe::{
    write_checkpoint_file, AtomicWriter, DualPoint, Json, MetricsRecorder, SeriesSink, WindowDelta,
    WindowSeries, WindowedRecorder,
};
use occ_sim::{
    EngineSnapshot, ReplacementPolicy, SeekableSource, SimStats, SnapshotError, SteppingEngine,
    Time, DEFAULT_BATCH_SIZE,
};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Kill shard `shard` just before it serves request `at` (fleet-level
/// chaos: the `--chaos-shard-kill` plan).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardKill {
    /// Target shard index.
    pub shard: usize,
    /// Engine time (requests served by that shard) at which to kill.
    pub at: u64,
}

/// Fail shard `shard`'s `nth` checkpoint save (1-based, counted across
/// restarts) with an injected I/O error — the failing-writer shim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreFault {
    /// Target shard index.
    pub shard: usize,
    /// Which save to fail (1 = the first save ever attempted).
    pub nth: u64,
}

/// Seeded, deterministic exponential backoff between restart attempts.
#[derive(Clone, Copy, Debug)]
pub struct BackoffPolicy {
    /// Base delay; 0 disables sleeping entirely (the test setting).
    pub base_ms: u64,
    /// Ceiling on any single delay.
    pub cap_ms: u64,
    /// Jitter seed; the delay is a pure function of
    /// `(seed, shard, attempt)`.
    pub seed: u64,
}

impl BackoffPolicy {
    /// No sleeping at all — restarts are immediate. Tests use this so
    /// recovery timing never depends on the clock.
    pub fn none() -> Self {
        BackoffPolicy {
            base_ms: 0,
            cap_ms: 0,
            seed: 0,
        }
    }

    /// Exponential backoff starting at `base_ms`, doubling per attempt,
    /// capped at 30× base.
    pub fn exponential(base_ms: u64, seed: u64) -> Self {
        BackoffPolicy {
            base_ms,
            cap_ms: base_ms.saturating_mul(30),
            seed,
        }
    }

    /// The delay before restart `attempt` (1-based) of `shard`:
    /// `min(base · 2^(attempt-1), cap)`, halved and topped up with
    /// seeded jitter so simultaneous shard failures do not restart in
    /// lockstep. Deterministic in `(seed, shard, attempt)`.
    pub fn delay_ms(&self, shard: usize, attempt: u32) -> u64 {
        if self.base_ms == 0 {
            return 0;
        }
        let exp = self
            .base_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(16))
            .min(self.cap_ms.max(self.base_ms));
        let x = splitmix64(
            self.seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ attempt as u64,
        );
        exp / 2 + x % (exp / 2 + 1)
    }
}

/// SplitMix64 — the one-shot mixer used for per-cell seeds everywhere
/// in the workspace; here it decorrelates backoff jitter.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Configuration for [`run_supervised_fleet`].
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Cache capacity `k` of every shard.
    pub capacity: usize,
    /// Cap on worker threads, as [`FleetConfig::max_workers`](crate::FleetConfig::max_workers).
    pub max_workers: Option<usize>,
    /// Window width = checkpoint cadence: every shard checkpoints at
    /// every multiple of this many requests.
    pub window: u64,
    /// Restarts allowed per shard before it is quarantined.
    pub max_restarts: u32,
    /// Backoff between restarts.
    pub backoff: BackoffPolicy,
    /// Seeded kill schedule (chaos).
    pub kills: Vec<ShardKill>,
    /// Injected checkpoint-save failures (chaos).
    pub store_faults: Vec<StoreFault>,
    /// Per-shard snapshots to resume from (`occ fleet --from-dir`);
    /// missing or short entries start the shard fresh.
    pub resume: Vec<Option<EngineSnapshot>>,
}

impl SupervisorConfig {
    /// A supervised fleet with capacity `k`, checkpoint cadence
    /// `window`, 3 restarts per shard, and no chaos.
    pub fn new(capacity: usize, window: u64) -> Self {
        SupervisorConfig {
            capacity,
            max_workers: None,
            window,
            max_restarts: 3,
            backoff: BackoffPolicy::none(),
            kills: Vec::new(),
            store_faults: Vec::new(),
            resume: Vec::new(),
        }
    }
}

/// Terminal state of one supervised shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardState {
    /// Finished with no failures.
    Clean,
    /// Failed at least once, recovered, and finished; its results are
    /// byte-identical to a clean run.
    Recovered,
    /// Exhausted its restart budget; contributes its last checkpoint's
    /// stats and committed windows only.
    Quarantined,
}

impl ShardState {
    /// Stable lowercase label used in JSON reports and CLI tables.
    pub fn as_str(&self) -> &'static str {
        match self {
            ShardState::Clean => "clean",
            ShardState::Recovered => "recovered",
            ShardState::Quarantined => "quarantined",
        }
    }
}

/// Per-shard supervision outcome (the report's `supervisor` section).
#[derive(Clone, Debug)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: usize,
    /// Terminal state.
    pub state: ShardState,
    /// Restarts performed (= failures absorbed, successful or not).
    pub restarts: u32,
    /// Backoff slept before each restart, in order.
    pub backoff_ms: Vec<u64>,
    /// The last failure's description (`Some` whenever `restarts > 0`).
    pub error: Option<String>,
    /// Committed windows never regenerated after a crash — 0 by
    /// construction for clean/recovered shards (every committed window
    /// sits at or before the checkpoint the restart resumed from).
    /// For a quarantined shard this counts nothing either: windows past
    /// its last checkpoint were never committed, so the merged series
    /// simply ends early for that shard rather than losing data.
    pub windows_lost: u64,
}

/// Fleet-level supervision summary attached to [`FleetReport`].
#[derive(Clone, Debug)]
pub struct SupervisorReport {
    /// One status per shard, in shard order.
    pub shards: Vec<ShardStatus>,
}

impl SupervisorReport {
    /// Total restarts across the fleet.
    pub fn total_restarts(&self) -> u64 {
        self.shards.iter().map(|s| s.restarts as u64).sum()
    }

    /// Indices of quarantined shards.
    pub fn quarantined(&self) -> Vec<usize> {
        self.shards
            .iter()
            .filter(|s| s.state == ShardState::Quarantined)
            .map(|s| s.shard)
            .collect()
    }

    /// A run is degraded iff at least one shard was quarantined.
    /// Recovered shards do not degrade the run: their output is
    /// byte-identical to a clean one.
    pub fn is_degraded(&self) -> bool {
        self.shards
            .iter()
            .any(|s| s.state == ShardState::Quarantined)
    }

    /// JSON form (the report's `supervisor` key).
    pub fn to_json_value(&self) -> Json {
        let shards = self
            .shards
            .iter()
            .map(|s| {
                let mut fields = vec![
                    ("shard".into(), Json::from_u64(s.shard as u64)),
                    ("state".into(), Json::Str(s.state.as_str().into())),
                    ("restarts".into(), Json::from_u64(s.restarts as u64)),
                    (
                        "backoff_ms".into(),
                        Json::Arr(s.backoff_ms.iter().map(|&ms| Json::from_u64(ms)).collect()),
                    ),
                    ("windows_lost".into(), Json::from_u64(s.windows_lost)),
                ];
                if let Some(e) = &s.error {
                    fields.push(("error".into(), Json::Str(e.clone())));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("shards".into(), Json::Arr(shards)),
            (
                "total_restarts".into(),
                Json::from_u64(self.total_restarts()),
            ),
            (
                "quarantined".into(),
                Json::Arr(
                    self.quarantined()
                        .into_iter()
                        .map(|i| Json::from_u64(i as u64))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Where a windowed shard persists its recovery state: checkpoints
/// (latest wins) and the append-only window series. Implementations
/// need not be thread-safe — each shard owns its own target — but must
/// be `Send`: the factory may build them on one thread (e.g. the CLI
/// pre-opening files to classify errors) and hand them to the worker
/// that drives the shard.
pub trait ShardPersist: Send {
    /// Called at the start of every attempt, after the engine is built
    /// and the source positioned, right before the first request. The
    /// default does nothing.
    fn begin(&mut self) -> io::Result<()> {
        Ok(())
    }
    /// Durably save `snap` as the shard's latest checkpoint. Failure
    /// aborts the attempt (and is retried like a panic).
    fn save_checkpoint(&mut self, snap: &EngineSnapshot) -> io::Result<()>;
    /// Append one closed window. Called before the checkpoint covering
    /// it is saved; implementations must drop windows they have
    /// already appended (restart replays regenerate them).
    fn append_window(&mut self, w: &WindowDelta) -> io::Result<()>;
    /// Called once when the shard finishes (clean or recovered);
    /// flushes and seals the series (checksum trailer).
    fn finish(&mut self) -> io::Result<()>;
}

/// Persist nothing (in-memory supervision only — the property tests'
/// setting; recovery state lives in the supervisor's address space).
#[derive(Debug, Default)]
pub struct NoPersist;

impl ShardPersist for NoPersist {
    fn save_checkpoint(&mut self, _snap: &EngineSnapshot) -> io::Result<()> {
        Ok(())
    }
    fn append_window(&mut self, _w: &WindowDelta) -> io::Result<()> {
        Ok(())
    }
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Persist into a directory: `shard-NNNN.ckpt.json` written atomically
/// with a CRC trailer on every save, and `shard-NNNN.series.jsonl`
/// appended line-by-line (flushed per window, duplicate indices
/// dropped) so a SIGKILLed process leaves a resumable prefix. The
/// series file gains its checksum trailer at [`finish`]; a mid-run
/// kill leaves it trailer-less, which readers accept.
///
/// [`finish`]: ShardPersist::finish
#[derive(Debug)]
pub struct DirPersist {
    ckpt_path: PathBuf,
    series: occ_probe::CrcWriter<BufWriter<File>>,
    /// Next window index the series file expects (the duplicate guard).
    next_index: u64,
    finished: bool,
}

impl DirPersist {
    /// Checkpoint path for shard `shard` under `dir`.
    pub fn ckpt_path(dir: &Path, shard: usize) -> PathBuf {
        dir.join(format!("shard-{shard:04}.ckpt.json"))
    }

    /// Series path for shard `shard` under `dir`.
    pub fn series_path(dir: &Path, shard: usize) -> PathBuf {
        dir.join(format!("shard-{shard:04}.series.jsonl"))
    }

    /// Open shard `shard`'s persist files under `dir` (created if
    /// missing). `resume_index` is the window index the shard resumes
    /// at (`checkpoint.time / width`), i.e. the first window this run
    /// will append; `header_meta` is written as the series header's
    /// metadata (shard identity etc.).
    pub fn open(
        dir: &Path,
        shard: usize,
        width: u64,
        resume_index: u64,
        header_meta: &[(&str, Json)],
    ) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let file = File::create(Self::series_path(dir, shard))?;
        let mut series = occ_probe::CrcWriter::new(BufWriter::new(file));
        // Reuse SeriesSink's header line so SeriesFile::parse reads
        // these state files like any other series.
        let mut sink = SeriesSink::new(&mut series);
        sink.write_header(width, header_meta);
        if let Some(e) = sink.error() {
            return Err(io::Error::new(e.kind(), e.to_string()));
        }
        series.flush()?;
        Ok(DirPersist {
            ckpt_path: Self::ckpt_path(dir, shard),
            series,
            next_index: resume_index,
            finished: false,
        })
    }
}

impl ShardPersist for DirPersist {
    fn save_checkpoint(&mut self, snap: &EngineSnapshot) -> io::Result<()> {
        write_checkpoint_file(&self.ckpt_path, snap)
    }

    fn append_window(&mut self, w: &WindowDelta) -> io::Result<()> {
        if w.index < self.next_index {
            // Regenerated after a restart; already on disk.
            return Ok(());
        }
        let line = w.to_json_value().to_json();
        self.series.write_all(line.as_bytes())?;
        self.series.write_all(b"\n")?;
        self.series.flush()?;
        self.next_index = w.index + 1;
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        if self.finished {
            return Ok(());
        }
        self.series.write_trailer()?;
        self.series.flush()?;
        self.finished = true;
        Ok(())
    }
}

/// Persist one unsupervised run (`occ soak`) to two optional files.
/// The series streams through an [`AtomicWriter`] that
/// [`begin`](ShardPersist::begin) creates, so a killed run leaves
/// `<series>.tmp` behind and a finished one is renamed into place,
/// sealed with its `#crc32:` trailer. Series write errors are sticky
/// and surface at [`finish`](ShardPersist::finish). Every checkpoint
/// atomically replaces the checkpoint file. Errors name the path.
pub struct FilePersist {
    series_path: Option<PathBuf>,
    width: u64,
    meta: Vec<(&'static str, Json)>,
    sink: Option<SeriesSink<AtomicWriter>>,
    checkpoint_path: Option<PathBuf>,
}

impl FilePersist {
    /// A series at `series` whose header carries `width` and `meta`,
    /// and checkpoints at `checkpoint`; `None` turns either file off.
    pub fn new(
        series: Option<PathBuf>,
        width: u64,
        meta: Vec<(&'static str, Json)>,
        checkpoint: Option<PathBuf>,
    ) -> Self {
        FilePersist {
            series_path: series,
            width,
            meta,
            sink: None,
            checkpoint_path: checkpoint,
        }
    }
}

/// Prefix an I/O error with what failed and on which path.
fn at_path(what: &str, path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{what} {}: {e}", path.display()))
}

impl ShardPersist for FilePersist {
    fn begin(&mut self) -> io::Result<()> {
        if let Some(path) = &self.series_path {
            let w = AtomicWriter::create(path).map_err(|e| at_path("create", path, e))?;
            let mut sink = SeriesSink::new(w);
            sink.write_header(self.width, &self.meta);
            self.sink = Some(sink);
        }
        Ok(())
    }

    fn save_checkpoint(&mut self, snap: &EngineSnapshot) -> io::Result<()> {
        if let Some(path) = &self.checkpoint_path {
            write_checkpoint_file(path, snap).map_err(|e| at_path("write checkpoint", path, e))?;
        }
        Ok(())
    }

    fn append_window(&mut self, w: &WindowDelta) -> io::Result<()> {
        if let Some(sink) = &mut self.sink {
            sink.write_window(w);
        }
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        if let (Some(path), Some(sink)) = (&self.series_path, self.sink.take()) {
            sink.finish()
                .and_then(AtomicWriter::commit)
                .map_err(|e| at_path("writing", path, e))?;
        }
        Ok(())
    }
}

/// Wrap another persist target and fail chosen checkpoint saves with an
/// injected I/O error — the failing-writer shim behind
/// `--chaos-store-fail`. The save counter persists across restarts, so
/// "fail the 2nd save" fires exactly once.
pub struct FaultyPersist {
    inner: Box<dyn ShardPersist>,
    fail_nths: Vec<u64>,
    saves: u64,
}

impl FaultyPersist {
    /// Fail the `nth` (1-based) checkpoint saves listed in `fail_nths`.
    pub fn new(inner: Box<dyn ShardPersist>, fail_nths: Vec<u64>) -> Self {
        FaultyPersist {
            inner,
            fail_nths,
            saves: 0,
        }
    }
}

impl ShardPersist for FaultyPersist {
    fn begin(&mut self) -> io::Result<()> {
        self.inner.begin()
    }

    fn save_checkpoint(&mut self, snap: &EngineSnapshot) -> io::Result<()> {
        self.saves += 1;
        if self.fail_nths.contains(&self.saves) {
            return Err(io::Error::other(format!(
                "injected checkpoint-store fault (save #{})",
                self.saves
            )));
        }
        self.inner.save_checkpoint(snap)
    }

    fn append_window(&mut self, w: &WindowDelta) -> io::Result<()> {
        self.inner.append_window(w)
    }

    fn finish(&mut self) -> io::Result<()> {
        self.inner.finish()
    }
}

/// The panic payload used by the kill schedule. The process-wide panic
/// hook stays silent for this payload only, so chaos runs do not spray
/// stack traces while real panics keep reporting normally.
struct InjectedKill {
    shard: usize,
    at: u64,
}

fn install_quiet_kill_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedKill>().is_none() {
                prev(info);
            }
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(k) = payload.downcast_ref::<InjectedKill>() {
        format!("injected kill of shard {} at t={}", k.shard, k.at)
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        format!("shard panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("shard panicked: {s}")
    } else {
        "shard panicked".into()
    }
}

/// Why an attempt of a [`WindowDriver`] failed. Each variant names the
/// step that failed.
#[derive(Debug)]
pub enum DriveError {
    /// Restoring the engine from a snapshot, or taking one, failed.
    Snapshot(&'static str, SnapshotError),
    /// The persist target failed.
    Persist(String, io::Error),
    /// The drained windows do not sum to the engine's own totals.
    Totals(String),
}

impl std::fmt::Display for DriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriveError::Snapshot(step, e) => write!(f, "{step}: {e}"),
            DriveError::Persist(step, e) => write!(f, "{step}: {e}"),
            DriveError::Totals(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for DriveError {}

/// What one completed attempt of a [`WindowDriver`] served.
#[derive(Clone, Debug)]
pub struct Attempt {
    /// The engine's counters at the end (a resumed run's include the
    /// snapshot's).
    pub stats: SimStats,
    /// Engine time at the end of the stream.
    pub end: Time,
    /// Windows drained by this attempt.
    pub windows: u64,
    /// The policy's display name.
    pub policy: String,
    /// When serving began: after the engine was built, the source
    /// positioned and the persist target begun.
    pub started: Instant,
}

/// The one windowed shard driver. An attempt builds the engine (fresh,
/// or from the last good snapshot), seeks the source to the engine's
/// clock, and serves up to each window boundary: at most
/// [`DEFAULT_BATCH_SIZE`] requests per call and never past a scheduled
/// kill. At a boundary it samples the caller's dual probe, closes the
/// window, drains it into the [`ShardPersist`] and, on a multiple of
/// the checkpoint cadence, saves a checkpoint. At the end of the stream
/// it finalizes the trailing window and checks that the drained windows
/// sum to the engine's own totals.
///
/// `occ soak` runs one attempt of a driver built by [`WindowDriver::new`].
/// [`run_supervised_fleet`] runs attempts of one supervised driver per
/// shard until one succeeds or the restart budget is spent. A supervised
/// driver checkpoints every window, honours the kill schedule, and keeps
/// what a restart resumes from: the last good snapshot and the committed
/// windows. Both change only at commit points (see the module docs).
pub struct WindowDriver<'a> {
    shard: usize,
    width: u64,
    capacity: usize,
    /// Checkpoint at every multiple of this many requests; 0 = never.
    checkpoint_every: u64,
    supervised: bool,
    /// The snapshot the next attempt starts from.
    last_good: Option<EngineSnapshot>,
    /// Windows covered by `last_good` (plus, after a clean finish, the
    /// trailing partial window).
    committed: Vec<WindowDelta>,
    /// First window index not yet committed.
    next_commit: u64,
    /// Pending kill times, ascending, none before the resume point;
    /// consumed as fired.
    pending_kills: VecDeque<u64>,
    persist: &'a mut dyn ShardPersist,
}

impl<'a> WindowDriver<'a> {
    /// An unsupervised driver (`occ soak`): windows of `width` requests,
    /// a checkpoint every `checkpoint_every` requests (a multiple of
    /// `width`; 0 = none) and one of the final state, starting from
    /// `resume` if given. It keeps no drained window in memory, and no
    /// snapshot but `resume`.
    ///
    /// Panics if `width` is zero or `checkpoint_every` is not a multiple
    /// of it.
    pub fn new(
        capacity: usize,
        width: u64,
        checkpoint_every: u64,
        resume: Option<EngineSnapshot>,
        persist: &'a mut dyn ShardPersist,
    ) -> Self {
        assert!(
            width > 0 && checkpoint_every.is_multiple_of(width),
            "checkpoints land on the boundaries of non-empty windows"
        );
        WindowDriver {
            shard: 0,
            width,
            capacity,
            checkpoint_every,
            supervised: false,
            last_good: resume,
            committed: Vec::new(),
            next_commit: 0,
            pending_kills: VecDeque::new(),
            persist,
        }
    }

    /// Run one attempt to the end of `source`. `probe` is sampled before
    /// each window closes; `on_boundary(t, started)` runs after each
    /// boundary's commit. `TIMED` records per-request latency into the
    /// windows. Any `Err` or panic is a failed attempt.
    pub fn run<S, P, const TIMED: bool>(
        &mut self,
        source: &mut S,
        policy: P,
        probe: &mut dyn FnMut(&P) -> Option<DualPoint>,
        on_boundary: &mut dyn FnMut(Time, Instant),
    ) -> Result<Attempt, DriveError>
    where
        S: SeekableSource,
        P: ReplacementPolicy,
    {
        let eng = match &self.last_good {
            Some(snap) => SteppingEngine::from_snapshot(snap, policy)
                .map_err(|e| DriveError::Snapshot("restoring checkpoint", e))?,
            None => SteppingEngine::new(self.capacity, source.universe().clone(), policy),
        };
        let start = eng.time();
        source.seek_forward(start);
        let mut eng = eng.with_recorder(
            WindowedRecorder::<TIMED>::starting_at(self.width, start).with_ring_capacity(64),
        );
        let base = eng.stats().clone();
        self.persist
            .begin()
            .map_err(|e| DriveError::Persist("opening series".into(), e))?;
        let started = Instant::now();
        let mut total = WindowDelta::default();
        let mut windows = 0;
        loop {
            let t = eng.time();
            // Serve up to the next window boundary or pending kill,
            // whichever comes first, so both land at exact ticks. Kills
            // are never behind the clock: stale ones are dropped when the
            // driver is built, and later ones are popped as they fire.
            let mut max = (self.width - t % self.width).min(DEFAULT_BATCH_SIZE as u64);
            if let Some(&kill) = self.pending_kills.front() {
                if kill == t {
                    self.pending_kills.pop_front();
                    panic::panic_any(InjectedKill {
                        shard: self.shard,
                        at: t,
                    });
                }
                max = max.min(kill - t);
            }
            if eng.serve_from(source, max as usize) == 0 {
                break;
            }
            if eng.time().is_multiple_of(self.width) {
                windows += self.commit(&mut eng, probe, &mut total, false)?;
                on_boundary(eng.time(), started);
            }
        }
        windows += self.commit(&mut eng, probe, &mut total, true)?;
        let stats = eng.stats().clone();
        check_window_totals(&total, &stats, &base).map_err(DriveError::Totals)?;
        Ok(Attempt {
            stats,
            end: eng.time(),
            windows,
            policy: eng.policy().name(),
            started,
        })
    }

    /// Commit point at the engine's clock `t`, a window boundary or the
    /// `end` of the stream: sample the dual probe into the window about
    /// to close, close it (at the end, the trailing partial window too),
    /// persist the closed windows, then the checkpoint if one is due,
    /// then update in-memory state. Ordering is the crash contract — see
    /// the module docs. Returns the number of windows closed.
    fn commit<P: ReplacementPolicy, const TIMED: bool>(
        &mut self,
        eng: &mut SteppingEngine<P, WindowedRecorder<TIMED>>,
        probe: &mut dyn FnMut(&P) -> Option<DualPoint>,
        total: &mut WindowDelta,
        end: bool,
    ) -> Result<u64, DriveError> {
        let t = eng.time();
        let boundary = t.is_multiple_of(self.width);
        // A stream that ends on a boundary closed its last window there.
        if !(end && boundary) {
            if let Some(point) = probe(eng.policy()) {
                eng.recorder_mut().note_dual(point);
            }
        }
        if end {
            eng.recorder_mut().finalize(t);
        } else {
            eng.recorder_mut().roll_to(t);
        }
        let drained = eng.recorder_mut().drain_new();
        for w in &drained {
            total.merge_from(w);
            self.persist
                .append_window(w)
                .map_err(|e| DriveError::Persist(format!("appending window {}", w.index), e))?;
        }
        // The final state is checkpointed too, except that a supervised
        // driver cannot resume mid-window: it commits a trailing partial
        // window without a snapshot. A crash after the final commit is
        // impossible — the attempt only returns.
        let every = self.checkpoint_every;
        let due = if end {
            boundary || !self.supervised
        } else {
            t.is_multiple_of(every)
        };
        if every > 0 && due {
            let snap = eng
                .snapshot()
                .map_err(|e| DriveError::Snapshot("snapshotting", e))?;
            self.persist
                .save_checkpoint(&snap)
                .map_err(|e| DriveError::Persist("saving checkpoint".into(), e))?;
            if self.supervised {
                self.last_good = Some(snap);
            }
        }
        let closed = drained.len() as u64;
        if self.supervised {
            for w in drained {
                if w.index >= self.next_commit {
                    self.next_commit = w.index + 1;
                    self.committed.push(w);
                }
            }
        }
        Ok(closed)
    }
}

/// Check that the drained windows sum exactly to the engine's counters
/// minus those it started from: the windows tile the run, so any drift
/// is a bug.
fn check_window_totals(
    total: &WindowDelta,
    stats: &SimStats,
    base: &SimStats,
) -> Result<(), String> {
    let d_hits = stats.total_hits() - base.total_hits();
    let d_misses = stats.total_misses() - base.total_misses();
    let d_evictions = stats.total_evictions() - base.total_evictions();
    if total.hits != d_hits || total.misses() != d_misses || total.evictions != d_evictions {
        return Err(format!(
            "window sums (hits {}, misses {}, evictions {}) != engine totals \
             (hits {d_hits}, misses {d_misses}, evictions {d_evictions})",
            total.hits,
            total.misses(),
            total.evictions
        ));
    }
    let at = |v: &[u64], u: usize| v.get(u).copied().unwrap_or(0);
    for (u, us) in stats.per_user().iter().enumerate() {
        let b = base.per_user().get(u).copied().unwrap_or_default();
        if at(&total.hits_by_user, u) != us.hits - b.hits
            || at(&total.misses_by_user, u) != us.misses - b.misses
            || at(&total.evictions_by_user, u) != us.evictions - b.evictions
        {
            return Err(format!("per-tenant window sums diverged for tenant {u}"));
        }
    }
    Ok(())
}

/// Drive one shard under supervision to a terminal state.
fn supervise_shard<S, P>(
    shard: usize,
    cfg: &SupervisorConfig,
    make_source: &(impl Fn(usize) -> S + Sync),
    make_policy: &(impl Fn(usize) -> P + Sync),
    persist: &mut dyn ShardPersist,
) -> (ShardReport, ShardStatus)
where
    S: SeekableSource,
    P: ReplacementPolicy,
{
    install_quiet_kill_hook();
    let start = Instant::now();
    let initial = cfg.resume.get(shard).cloned().flatten();
    let resume_t = initial.as_ref().map_or(0, |s| s.time);
    // A kill scheduled before the resume point can never fire; keeping
    // it would block every later kill on this shard.
    let mut kills: Vec<u64> = cfg
        .kills
        .iter()
        .filter(|k| k.shard == shard && k.at >= resume_t)
        .map(|k| k.at)
        .collect();
    kills.sort_unstable();
    let mut driver = WindowDriver {
        shard,
        supervised: true,
        next_commit: resume_t / cfg.window,
        pending_kills: kills.into(),
        ..WindowDriver::new(cfg.capacity, cfg.window, cfg.window, initial, persist)
    };
    let mut restarts = 0u32;
    let mut backoff_ms = Vec::new();
    let mut last_error = None;
    let (state, stats, end) = loop {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            let run = driver.run::<_, _, false>(
                &mut make_source(shard),
                make_policy(shard),
                &mut |_| None,
                &mut |_, _| {},
            )?;
            driver
                .persist
                .finish()
                .map_err(|e| DriveError::Persist("sealing series".into(), e))?;
            Ok::<_, DriveError>(run)
        }));
        let error = match outcome {
            Ok(Ok(run)) if restarts == 0 => break (ShardState::Clean, run.stats, run.end),
            Ok(Ok(run)) => break (ShardState::Recovered, run.stats, run.end),
            Ok(Err(e)) => e.to_string(),
            Err(payload) => panic_message(payload),
        };
        last_error = Some(error);
        if restarts >= cfg.max_restarts {
            // Quarantine: contribute the last checkpoint's stats and
            // the committed windows; nothing past the checkpoint.
            break match &driver.last_good {
                Some(snap) => {
                    let stats = SimStats::from_per_user(snap.stats.clone());
                    (ShardState::Quarantined, stats, snap.time)
                }
                None => {
                    let n = make_source(shard).universe().num_users();
                    (ShardState::Quarantined, SimStats::new(n), resume_t)
                }
            };
        }
        restarts += 1;
        let delay = cfg.backoff.delay_ms(shard, restarts);
        backoff_ms.push(delay);
        if delay > 0 {
            std::thread::sleep(Duration::from_millis(delay));
        }
    };
    let report = ShardReport {
        shard,
        stats,
        served: end - resume_t,
        elapsed: start.elapsed(),
        recorder: MetricsRecorder::new(),
        series: Some(WindowSeries {
            width: cfg.window,
            dropped: 0,
            windows: driver.committed,
        }),
    };
    let status = ShardStatus {
        shard,
        state,
        restarts,
        backoff_ms,
        error: last_error,
        windows_lost: 0,
    };
    (report, status)
}

/// Run `shards` supervised shards: each one panic-isolated,
/// checkpointing at every window boundary, restarting from its last
/// checkpoint on failure (bounded by [`SupervisorConfig::max_restarts`]
/// with [`BackoffPolicy`] delays), and quarantined — not aborting the
/// fleet — when the budget is exhausted.
///
/// `make_source` and `make_policy` are called once per *attempt* (a
/// restart rebuilds both; the source is then fast-forwarded to the
/// checkpoint via [`SeekableSource::seek_forward`]). `make_persist` is
/// called once per shard from the worker that owns it.
///
/// The returned report always carries [`FleetReport::supervisor`];
/// [`FleetReport::merged`] stays empty (the window series is the
/// telemetry channel for supervised runs — a `MetricsRecorder` cannot
/// be reconstructed across restarts).
///
/// Panics if `shards == 0` or `cfg.window == 0`.
pub fn run_supervised_fleet<S, P>(
    shards: usize,
    cfg: &SupervisorConfig,
    make_source: impl Fn(usize) -> S + Sync,
    make_policy: impl Fn(usize) -> P + Sync,
    make_persist: impl Fn(usize) -> Box<dyn ShardPersist> + Sync,
) -> FleetReport
where
    S: SeekableSource,
    P: ReplacementPolicy,
{
    assert!(shards > 0, "a fleet needs at least one shard");
    assert!(cfg.window > 0, "supervision needs a positive window width");
    let start = Instant::now();
    let run_one = |i: usize, ()| {
        let mut persist = make_persist(i);
        // Injected store faults wrap the shard's persist target in the
        // failing-writer shim; the fault counter lives in the wrapper,
        // so it survives restarts and each listed save fails once.
        let fail_nths: Vec<u64> = cfg
            .store_faults
            .iter()
            .filter(|f| f.shard == i)
            .map(|f| f.nth)
            .collect();
        if !fail_nths.is_empty() {
            persist = Box::new(FaultyPersist::new(persist, fail_nths));
        }
        supervise_shard(i, cfg, &make_source, &make_policy, persist.as_mut())
    };
    // Shard panics are caught inside supervise_shard; only a bug in the
    // supervisor itself propagates out of a worker.
    let (shard_reports, statuses): (Vec<ShardReport>, Vec<ShardStatus>) =
        crate::run_sharded(vec![(); shards], cfg.max_workers, run_one)
            .into_iter()
            .unzip();
    let wall = start.elapsed();
    let merged_series = crate::merge_shard_series(cfg.window, &shard_reports);
    let total_requests = shard_reports.iter().map(|s| s.served).sum();
    FleetReport {
        shards: shard_reports,
        merged: MetricsRecorder::new(),
        merged_series: Some(merged_series),
        total_requests,
        wall,
        supervisor: Some(SupervisorReport { shards: statuses }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_fleet_typed, FleetConfig};
    use occ_baselines::Lru;
    use occ_probe::{require_trailer, snapshot_from_json, SeriesFile};
    use occ_sim::RequestSource;
    use occ_workloads::sqlvm_like;

    const LEN: u64 = 1_000;
    const WIDTH: u64 = 250;
    const SHARDS: usize = 3;

    fn source_for(shard: usize) -> occ_workloads::TenantMixSource {
        sqlvm_like().stream(LEN, 60 + shard as u64)
    }

    fn no_persist(_shard: usize) -> Box<dyn ShardPersist> {
        Box::new(NoPersist)
    }

    fn supervised(cfg: &SupervisorConfig) -> crate::FleetReport {
        run_supervised_fleet(SHARDS, cfg, source_for, |_| Lru::new(), no_persist)
    }

    fn base_cfg() -> SupervisorConfig {
        SupervisorConfig::new(sqlvm_like().suggested_k, WIDTH)
    }

    /// The reference run: the plain windowed fleet over the same
    /// sources — no supervision in the loop at all.
    fn plain_fleet() -> crate::FleetReport {
        let mut fc = FleetConfig::new(sqlvm_like().suggested_k);
        fc.window = Some(WIDTH);
        run_fleet_typed((0..SHARDS).map(source_for).collect(), &fc, |_shard| {
            Lru::new()
        })
    }

    fn assert_matches_plain(report: &crate::FleetReport, plain: &crate::FleetReport, what: &str) {
        for (a, b) in plain.shards.iter().zip(&report.shards) {
            assert_eq!(a.stats, b.stats, "{what}: shard {} stats", a.shard);
            assert_eq!(a.served, b.served, "{what}: shard {} served", a.shard);
            assert_eq!(a.series, b.series, "{what}: shard {} series", a.shard);
        }
        // Byte-identity, not just structural equality: the merged
        // series must serialize to the same bytes.
        let a = plain
            .merged_series
            .as_ref()
            .unwrap()
            .to_json_value()
            .to_json();
        let b = report
            .merged_series
            .as_ref()
            .unwrap()
            .to_json_value()
            .to_json();
        assert_eq!(a, b, "{what}: merged series bytes");
        assert_eq!(plain.total_requests, report.total_requests, "{what}");
    }

    #[test]
    fn clean_supervised_run_matches_the_plain_fleet() {
        let report = supervised(&base_cfg());
        assert_matches_plain(&report, &plain_fleet(), "clean");
        let sup = report.supervisor.as_ref().expect("supervised run");
        assert!(!sup.is_degraded());
        assert_eq!(sup.total_restarts(), 0);
        for s in &sup.shards {
            assert_eq!(s.state, ShardState::Clean);
            assert_eq!(s.restarts, 0);
            assert!(s.error.is_none());
            assert_eq!(s.windows_lost, 0);
        }
        let v = report.to_json_value();
        assert!(v.get("supervisor").is_some());
        assert!(
            v.get("degraded").is_none(),
            "clean run must not be degraded"
        );
    }

    #[test]
    fn kill_schedules_recover_byte_identically() {
        let plain = plain_fleet();
        // Kills before the first request, on a checkpoint boundary,
        // mid-window, twice in one shard, and at end-of-stream.
        let mut cfg = base_cfg();
        cfg.kills = vec![
            ShardKill { shard: 0, at: 0 },
            ShardKill { shard: 0, at: 999 },
            ShardKill { shard: 1, at: 250 },
            ShardKill { shard: 1, at: 333 },
            ShardKill { shard: 2, at: LEN },
        ];
        let report = supervised(&cfg);
        assert_matches_plain(&report, &plain, "killed");
        let sup = report.supervisor.as_ref().unwrap();
        assert!(!sup.is_degraded(), "recovered, not degraded");
        assert_eq!(sup.total_restarts(), 5);
        for (shard, restarts) in [(0usize, 2u32), (1, 2), (2, 1)] {
            let s = &sup.shards[shard];
            assert_eq!(s.state, ShardState::Recovered, "shard {shard}");
            assert_eq!(s.restarts, restarts, "shard {shard}");
            assert!(s.error.as_deref().unwrap().contains("injected kill"));
            assert_eq!(s.windows_lost, 0);
        }
    }

    #[test]
    fn injected_store_fault_recovers_byte_identically() {
        let mut cfg = base_cfg();
        cfg.store_faults = vec![StoreFault { shard: 1, nth: 1 }];
        let report = supervised(&cfg);
        assert_matches_plain(&report, &plain_fleet(), "store-fault");
        let sup = report.supervisor.as_ref().unwrap();
        assert!(!sup.is_degraded());
        let s = &sup.shards[1];
        assert_eq!(s.state, ShardState::Recovered);
        assert_eq!(s.restarts, 1);
        assert!(
            s.error
                .as_deref()
                .unwrap()
                .contains("injected checkpoint-store fault"),
            "{:?}",
            s.error
        );
    }

    #[test]
    fn exhausted_retries_quarantine_the_shard_only() {
        let plain = plain_fleet();
        let mut cfg = base_cfg();
        cfg.max_restarts = 1;
        // Two kills at the same instant: the shard dies at t=500 on
        // every attempt until its budget runs out.
        cfg.kills = vec![
            ShardKill { shard: 2, at: 500 },
            ShardKill { shard: 2, at: 500 },
        ];
        let report = supervised(&cfg);
        let sup = report.supervisor.as_ref().unwrap();
        assert!(sup.is_degraded());
        assert_eq!(sup.quarantined(), vec![2]);
        // Healthy shards are untouched by the sick one.
        for shard in [0usize, 1] {
            assert_eq!(report.shards[shard].stats, plain.shards[shard].stats);
            assert_eq!(sup.shards[shard].state, ShardState::Clean);
        }
        // The quarantined shard contributes exactly its last
        // checkpoint: 500 requests, two full windows, nothing lost.
        let sick = &report.shards[2];
        assert_eq!(sick.served, 500);
        assert_eq!(
            sick.stats.total_hits() + sick.stats.total_misses(),
            500,
            "stats reflect the checkpoint, not the failed tail"
        );
        let series = sick.series.as_ref().unwrap();
        assert_eq!(series.windows.len(), 2, "windows 0 and 1 committed");
        assert_eq!(sup.shards[2].windows_lost, 0);
        let v = report.to_json_value();
        let degraded = v.get("degraded").expect("degraded section");
        let q = degraded.get("quarantined").unwrap().as_array().unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].get("shard").unwrap().as_u64(), Some(2));
        assert!(q[0]
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("injected kill"));
    }

    #[test]
    fn quarantine_without_any_checkpoint_contributes_zeroes() {
        let mut cfg = base_cfg();
        cfg.max_restarts = 0;
        // Dies at t=100, before the first checkpoint boundary.
        cfg.kills = vec![ShardKill { shard: 0, at: 100 }];
        let report = supervised(&cfg);
        let sup = report.supervisor.as_ref().unwrap();
        assert_eq!(sup.quarantined(), vec![0]);
        let sick = &report.shards[0];
        assert_eq!(sick.served, 0);
        assert_eq!(sick.stats.total_hits() + sick.stats.total_misses(), 0);
        assert!(sick.series.as_ref().unwrap().windows.is_empty());
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = BackoffPolicy::exponential(10, 42);
        for shard in 0..4 {
            for attempt in 1..8 {
                let d = p.delay_ms(shard, attempt);
                assert_eq!(d, p.delay_ms(shard, attempt), "pure function of inputs");
                let exp = (10u64 << (attempt - 1).min(16)).min(p.cap_ms);
                assert!(
                    d >= exp / 2 && d <= exp,
                    "delay {d} outside [{}, {exp}]",
                    exp / 2
                );
            }
        }
        // Jitter decorrelates shards.
        assert_ne!(p.delay_ms(0, 3), p.delay_ms(1, 3));
        // Base 0 disables sleeping entirely.
        assert_eq!(BackoffPolicy::none().delay_ms(7, 5), 0);
        // The recorded backoff log matches the policy.
        let mut cfg = base_cfg();
        cfg.backoff = BackoffPolicy {
            base_ms: 0,
            cap_ms: 0,
            seed: 9,
        };
        cfg.kills = vec![ShardKill { shard: 1, at: 300 }];
        let report = supervised(&cfg);
        let sup = report.supervisor.unwrap();
        assert_eq!(sup.shards[1].backoff_ms, vec![0]);
    }

    #[test]
    fn dir_persist_survives_kills_and_seals_verifiable_files() {
        let dir = std::env::temp_dir().join(format!("occ-supervisor-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = base_cfg();
        cfg.kills = vec![
            ShardKill { shard: 0, at: 400 },
            ShardKill { shard: 2, at: 750 },
        ];
        let dir_ref = &dir;
        let report = run_supervised_fleet(
            SHARDS,
            &cfg,
            source_for,
            |_| Lru::new(),
            move |shard| {
                Box::new(
                    DirPersist::open(dir_ref, shard, WIDTH, 0, &[]).expect("persist dir opens"),
                )
            },
        );
        assert_matches_plain(&report, &plain_fleet(), "dir-persist");
        for shard in 0..SHARDS {
            // Checkpoints carry a mandatory trailer and restore to the
            // end of the stream.
            let ckpt = std::fs::read_to_string(DirPersist::ckpt_path(&dir, shard)).unwrap();
            let body = require_trailer(&ckpt).expect("checkpoint trailer verifies");
            let snap = snapshot_from_json(body).expect("checkpoint parses");
            assert_eq!(snap.time, LEN, "final checkpoint is at end of stream");
            // Series files parse, verify their trailer, and hold every
            // window exactly once despite the restart replays.
            let text = std::fs::read_to_string(DirPersist::series_path(&dir, shard)).unwrap();
            let parsed = SeriesFile::parse(&text).expect("series parses");
            assert_eq!(parsed.width, WIDTH);
            assert_eq!(
                parsed.windows,
                report.shards[shard].series.as_ref().unwrap().windows,
                "shard {shard}: on-disk series == in-memory series"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every shard's engine snapshot after its first 500 requests.
    fn half_way_snapshots() -> Vec<Option<occ_sim::EngineSnapshot>> {
        (0..SHARDS)
            .map(|shard| {
                let mut src = source_for(shard);
                let mut eng = occ_sim::SteppingEngine::new(
                    sqlvm_like().suggested_k,
                    src.universe().clone(),
                    Lru::new(),
                );
                for _ in 0..500 {
                    let r = {
                        let ctx = eng.ctx();
                        src.next_request(&ctx)
                    }
                    .unwrap();
                    eng.step(r);
                }
                Some(eng.snapshot().unwrap())
            })
            .collect()
    }

    #[test]
    fn resume_continues_from_mid_stream_snapshots() {
        // Run the first half supervised, snapshot by hand, then resume
        // a second supervised fleet from those snapshots: the stitched
        // stats must equal the one-shot run.
        let plain = plain_fleet();
        let mut cfg = base_cfg();
        cfg.resume = half_way_snapshots();
        cfg.kills = vec![ShardKill { shard: 1, at: 750 }];
        let report = supervised(&cfg);
        for (shard, s) in report.shards.iter().enumerate() {
            assert_eq!(s.served, 500, "second half only");
            assert_eq!(
                s.stats, plain.shards[shard].stats,
                "resumed stats equal the one-shot run (stats live in the snapshot)"
            );
            // Only windows 2 and 3 are produced by the resumed run.
            let windows = &s.series.as_ref().unwrap().windows;
            assert_eq!(windows.len(), 2);
            assert_eq!(windows[0].index, 2);
            assert_eq!(
                windows[0],
                plain.shards[shard].series.as_ref().unwrap().windows[2],
                "resumed window 2 is byte-identical"
            );
        }
    }

    /// Records what a driver persists: checkpoint times and window
    /// indices.
    #[derive(Default)]
    struct Recording {
        saves: Vec<u64>,
        windows: Vec<u64>,
    }

    impl ShardPersist for Recording {
        fn save_checkpoint(&mut self, snap: &EngineSnapshot) -> io::Result<()> {
            self.saves.push(snap.time);
            Ok(())
        }
        fn append_window(&mut self, w: &WindowDelta) -> io::Result<()> {
            self.windows.push(w.index);
            Ok(())
        }
        fn finish(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn soak_style_attempt_checkpoints_on_its_cadence_and_keeps_no_window() {
        let mut persist = Recording::default();
        let mut driver = WindowDriver::new(
            sqlvm_like().suggested_k,
            WIDTH,
            2 * WIDTH,
            None,
            &mut persist,
        );
        let mut boundaries = Vec::new();
        let run = driver
            .run::<_, _, false>(
                &mut source_for(0),
                Lru::new(),
                &mut |_| None,
                &mut |t, _| boundaries.push(t),
            )
            .expect("attempt succeeds");
        assert!(driver.committed.is_empty(), "no drained window is kept");
        assert!(driver.last_good.is_none(), "no snapshot is kept");
        assert_eq!((run.end, run.windows), (LEN, 4));
        assert_eq!(run.stats, plain_fleet().shards[0].stats);
        assert_eq!(boundaries, vec![250, 500, 750, 1000]);
        // Every second boundary, then the final state (here the last
        // boundary again).
        assert_eq!(persist.saves, vec![500, 1000, 1000]);
        assert_eq!(persist.windows, vec![0, 1, 2, 3]);
    }

    #[test]
    fn kills_before_the_resume_point_do_not_block_later_kills() {
        // Shard 1 resumes at t=500. Its kill at t=100 lies in the part
        // of the stream the resumed run never serves; the kill at t=750
        // must still fire, exactly once, and recovery must land on the
        // uninterrupted run's stats.
        let plain = plain_fleet();
        let mut cfg = base_cfg();
        cfg.resume = half_way_snapshots();
        cfg.kills = vec![
            ShardKill { shard: 1, at: 100 },
            ShardKill { shard: 1, at: 750 },
        ];
        let report = supervised(&cfg);
        let sup = report.supervisor.as_ref().unwrap();
        assert!(!sup.is_degraded());
        assert_eq!(sup.shards[1].state, ShardState::Recovered);
        assert_eq!(sup.shards[1].restarts, 1);
        assert_eq!(sup.total_restarts(), 1);
        for (shard, s) in report.shards.iter().enumerate() {
            assert_eq!(s.served, 500, "shard {shard}: second half only");
            assert_eq!(s.stats, plain.shards[shard].stats, "shard {shard}");
        }
    }
}
