//! Subcommand implementations for the `occ` binary.

use crate::args::Kind::{Choice, Count, Float, Int, OnOff, Pathname, Text};
use crate::args::Unset::{Off, Required, Run, Value};
use crate::args::{flag, parse_scaled, Args, Command, Flag, USIZE};
use crate::errors::CliError;
use occ_analysis::policies::{self, BoxedPolicy, Build, MakeOnline};
use occ_analysis::{compare_policies, evaluate_policy, fnum, lru_cost_curve, lru_mrc, Table};
use occ_core::{ConvexCaching, CostProfile};
use occ_fleet::{
    run_fleet, run_shared_fleet, run_supervised_fleet, BackoffPolicy, DirPersist, FilePersist,
    FleetConfig, NoPersist, ShardKill, ShardPersist, SharedConfig, SharedError, StoreFault,
    SupervisorConfig, WindowDriver,
};
use occ_probe::{
    require_trailer, snapshot_from_json, write_atomic, write_checkpoint_file, AtomicWriter,
    DualPoint, DualTrace, Json, JsonlSink, MetricsRecorder, ObserveReport, SeriesFile, SeriesSink,
};
use occ_sim::concurrent::{replay_schedule, CommitSchedule, ReplayError, ReplayOutcome};
use occ_sim::{
    read_trace_auto, write_trace, write_trace_binary, write_trace_binary_v2, Binary2TraceWriter,
    BinarySource, BinaryTraceWriter, EngineSnapshot, FaultCounters, FaultHandler, FaultPolicy,
    PageId, ReplacementPolicy, Request, RequestSource, SeekableSource, SimStats, SteppingEngine,
    Time, Trace, TraceIoError, Universe, UserId, BINARY2_TRACE_MAGIC, BINARY_TRACE_MAGIC,
};
use occ_workloads::{
    all_scenarios, ChaosSource, CsvAdapter, CsvFlavor, FaultPlan, Scenario, TenantMixSource,
};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::time::Instant;

const SCENARIO: Flag = flag("scenario", Text("NAME"), Required);
const TRACE: Flag = flag("trace", Pathname("FILE"), Off);
const LEN: Flag = flag("len", Count(0, USIZE), Value("60k"));
const SEED: Flag = flag("seed", Int(0, u64::MAX), Value("7"));
const POLICY: Flag = flag("policy", Text("NAME"), Value("convex"));
const K: Flag = flag("k", Int(1, USIZE), Run("the scenario's suggested k"));
const OUT: Flag = flag("out", Pathname("FILE"), Off);
const FORMAT: Flag = flag("format", Choice(&["table", "json"]), Value("table"));
const FLAVORS: &[&str] = &["auto", "msr", "twitter"];
const FLAVOR: Flag = flag("csv-flavor", Choice(FLAVORS), Value("auto"));
const CHECKPOINT: Flag = flag("checkpoint", Pathname("FILE"), Off);
/// Every spelling `FaultPolicy::parse` accepts.
#[rustfmt::skip]
const DEGRADE: &[&str] =
    &["fail-fast", "failfast", "skip", "skip-and-count", "quarantine", "quarantine-user"];
const CHAOS_PAGE_RATE: Flag = flag("chaos-page-rate", Float(0.0, 1.0), Value("0"));
const CHAOS_OWNER_RATE: Flag = flag("chaos-owner-rate", Float(0.0, 1.0), Value("0"));
const CHAOS_TRUNCATE: Flag = flag("chaos-truncate", Count(0, USIZE), Value("0"));
const CHAOS_SEED: Flag = flag("chaos-seed", Int(0, u64::MAX), Value("805381"));
const IN: Flag = flag("in", Pathname("FILE"), Required);
/// The `--out` of a command whose whole job is writing that file.
const TO: Flag = flag("out", Pathname("FILE"), Required);
const TRANSCODE: &[Flag] = &[IN, TO, flag("limit", Count(0, u64::MAX), Value("0"))];

/// Every command, `occ trace` action and mode, with its flag table and
/// usage paragraph, in usage order. [`Args::parse`] checks a command
/// line against its entry's table; `main` runs the entry.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    Command { name: "scenarios", mode: None, run: |_| scenarios(), flags: &[],
        about: "list built-in scenarios" },
    Command { name: "generate", mode: None, run: generate, flags: &[
        SCENARIO, LEN, SEED,
        flag("format", Choice(&["text", "binary", "binary-v2"]), Value("text")),
        TO,
    ], about: "write a trace file; binary is the fixed-width little-endian form (magic \
        \"occbin01\", 4 bytes/request) read without line parsing, binary-v2 the delta+varint \
        compressed form (magic \"occbin02\", typically well under half the occbin01 size for \
        skewed workloads). --len accepts k/M/B suffixes (500k, 10M). Every trace-reading command \
        auto-detects the format." },
    Command { name: "trace pack", mode: None, run: |a| trace_transcode(a, true), flags: TRANSCODE,
        about: "transcode a trace (occbin01/occbin02/text) to occbin02, streaming — never \
        materializes the trace. --limit N (k/M/B suffixes) keeps only the first N requests; 0 \
        keeps them all." },
    Command { name: "trace unpack", mode: None, run: |a| trace_transcode(a, false),
        flags: TRANSCODE, about: "transcode a trace to fixed-width occbin01 (the mmap-able \
        zero-copy form)." },
    Command { name: "trace import", mode: None, run: trace_import, flags: &[
        flag("in", Pathname("FILE.csv"), Required),
        TO,
        flag("dict", Pathname("FILE"), Run("OUT.dict")),
        FLAVOR,
        flag("tenants", Int(0, u32::MAX as u64), Value("0")),
        flag("format", Choice(&["binary-v2", "binary"]), Value("binary-v2")),
    ], about: "convert a real-trace CSV (MSR-Cambridge block I/O or Twitter-cluster key-access \
        shapes, auto-sniffed) into a binary trace. String keys are interned to dense page ids in \
        first-seen order and the recorded dictionary is written to --dict so ids stay mappable \
        back to keys. --tenants N hashes tenant keys into N users (0: dense first-seen tenant \
        ids)." },
    Command { name: "run", mode: None, run, flags: &[SCENARIO, TRACE, LEN, SEED, POLICY, K],
        about: "" },
    Command { name: "compare", mode: None, run: compare, flags: &[SCENARIO, TRACE, LEN, SEED, K],
        about: "" },
    Command { name: "mrc", mode: None, run: mrc, about: "", flags: &[
        SCENARIO, TRACE, LEN, SEED,
        flag("max-k", Int(1, USIZE), Run("twice the scenario's suggested k")),
    ] },
    Command { name: "observe", mode: None, run: |a| observe_run(a, None), flags: &[
        SCENARIO, TRACE, LEN, SEED, POLICY, K,
        flag("every", Int(0, u64::MAX), Value("1000")),
        OUT,
        flag("events", Pathname("FILE"), Off),
        CHECKPOINT,
        flag("checkpoint-every", Int(0, u64::MAX), Value("10000")),
        CHAOS_PAGE_RATE, CHAOS_OWNER_RATE, CHAOS_TRUNCATE, CHAOS_SEED,
        flag("degrade", Choice(DEGRADE), Run("fail-fast with --chaos-*, else unchecked")),
    ], about: "run with full instrumentation; emit a JSON report (counters, latency histogram, \
        fault counters, and — for the convex policy — the dual trajectory). --events streams one \
        JSONL line per engine event. --checkpoint writes a resumable snapshot every N requests. \
        The --chaos-* flags inject seeded record corruption; --degrade picks the reaction: \
        fail-fast (default), skip, quarantine." },
    Command { name: "resume", mode: None, flags: &[
        flag("from", Pathname("FILE"), Required),
        SCENARIO, TRACE, LEN, SEED, POLICY,
        flag("k", Int(1, USIZE), Run("the checkpoint's capacity")),
        flag("every", Int(0, u64::MAX), Value("1000")),
        OUT,
        flag("events", Pathname("FILE"), Off),
        CHECKPOINT,
        flag("checkpoint-every", Int(0, u64::MAX), Value("10000")),
        CHAOS_PAGE_RATE, CHAOS_OWNER_RATE, CHAOS_TRUNCATE, CHAOS_SEED,
        flag("degrade", Choice(DEGRADE), Run("fail-fast with --chaos-*, else unchecked")),
    ], run: |a| observe_run(a, Some(read_checkpoint(Path::new(a.str("from")))?)), about: "continue \
        a checkpointed observe run over the same trace; the continuation is byte-identical to an \
        uninterrupted run." },
    Command { name: "soak", mode: None, run: soak, flags: &[
        SCENARIO,
        flag("len", Count(0, u64::MAX), Value("10M")),
        SEED, POLICY,
        flag("k", Int(1, USIZE), Run("the scenario's suggested k (--from: the checkpoint's)")),
        flag("window", Count(1, u64::MAX), Value("1M")),
        flag("series", Pathname("FILE"), Off),
        flag("timing", OnOff, Value("off")),
        CHECKPOINT,
        flag("checkpoint-every", Count(0, u64::MAX), Value("0")),
        flag("from", Pathname("FILE"), Off),
        flag("heartbeat", OnOff, Value("on")),
        TRACE, FLAVOR,
    ], about: "stream N requests in O(1) memory, closing a telemetry window every W requests and \
        appending each closed window to the JSONL series file. --len/--window/--checkpoint-every \
        accept k/M/B suffixes (500k, 5M, 1B). --trace streams a trace file instead of the \
        scenario mixer: occbin01 (served zero-copy from a memory mapping where the platform \
        allows, buffered otherwise), occbin02, or a real-trace CSV (msr/twitter shapes, tenants \
        hashed into the scenario's user count). --checkpoint-every (0: every window; rounded up \
        to a window multiple) needs --checkpoint. --from resumes a killed soak from its \
        checkpoint, continuing the series byte-identically (checkpoints land on window \
        boundaries; pass the same --scenario and --seed — the checkpoint carries engine state, \
        not the workload stream); a checkpoint past the end of the stream exits 2. Soak is one \
        attempt of the windowed shard driver a supervised fleet restarts. --timing on adds \
        wall-clock latency histograms per window (not byte-reproducible). A stderr heartbeat \
        reports req/s, ETA and RSS about once a second. Checkpoints and finished series files are \
        written atomically and sealed with a #crc32 trailer; a killed run leaves the series at \
        FILE.tmp and resuming from a corrupt checkpoint exits 4." },
    Command { name: "report", mode: None, run: report, flags: &[IN, FORMAT],
        about: "validate and render an `occ observe` report." },
    Command { name: "report", mode: Some("series"), run: report_series, flags: &[
        flag("series", Pathname("FILE"), Required), FORMAT,
    ], about: "render an `occ soak` window series as an aligned table with per-window Δ \
        miss-ratio markers." },
    Command { name: "fleet", mode: None, run: fleet, flags: &[
        SCENARIO,
        flag("shards", Int(1, USIZE), Value("4")),
        flag("len", Count(0, u64::MAX), Value("60k")),
        SEED,
        flag("policy", Text("NAME"), Value("lru")),
        K,
        flag("batch", Int(1, USIZE), Value("4096")),
        flag("window", Count(0, u64::MAX), Value("0")),
        TRACE, FLAVOR, FORMAT, OUT,
        flag("supervise", Choice(&["on", "off", "auto"]), Value("auto")),
        flag("max-restarts", Int(0, u32::MAX as u64), Value("3")),
        flag("backoff-ms", Int(0, u64::MAX), Value("0")),
        flag("checkpoint-dir", Pathname("DIR"), Off),
        flag("from-dir", Pathname("DIR"), Off),
        flag("series-out", Pathname("FILE"), Off),
        flag("chaos-shard-kill", Text("S@T,.."), Off),
        flag("chaos-store-fail", Text("S@N,.."), Off),
    ], about: "run F independent cache shards of the scenario in parallel (one worker thread \
        each, seeds derived per shard), streaming requests in O(1) memory, and merge the \
        per-shard telemetry into one fleet report. --trace FILE replays a trace file \
        (occbin01/occbin02/CSV, as in soak) on every shard instead of the mixer — occbin01 shards \
        serve batches zero-copy from a shared memory mapping (unsupervised runs only). --window W \
        (0: none) additionally collects tumbling-window series per shard and merges them in shard \
        order. Offline policies (belady*) are rejected: the fleet never materializes a trace. \
        Supervision (implied by any of the flags below; requires --window, ignores --batch): \
        shards run under panic isolation, checkpoint on window boundaries, and are restarted from \
        their last checkpoint with seeded exponential backoff (--backoff-ms 0 = no sleeping); a \
        shard that fails more than --max-restarts times is quarantined and the run exits 7 with a \
        degraded report. --checkpoint-dir persists per-shard checkpoints + series \
        (shard-NNNN.ckpt.json / .series.jsonl); --from-dir resumes a killed fleet from such a \
        directory (corrupt checkpoints exit 4, ones past --len exit 2). --series-out writes the \
        merged window series (atomic rename + CRC trailer) — recovered runs produce it \
        byte-identical to uninterrupted ones. --chaos-shard-kill panics shard S at request T; \
        --chaos-store-fail fails shard S's Nth checkpoint save (both seeded, deterministic, \
        counts accept k/M/B)." },
    Command { name: "concurrent", mode: None, run: concurrent, flags: &[
        SCENARIO,
        // Every worker is an OS thread: unbounded, one flag could exhaust the pid
        // limit, and the shared engine panics when the OS refuses a thread.
        flag("threads", Int(1, 1024), Value("4")),
        flag("table-shards", Int(1, USIZE), Value("8")),
        flag("len", Count(0, u64::MAX), Value("20000")),
        SEED, K,
        flag("policy", Text("lru|fifo|greedy-dual"), Value("lru")),
        TRACE, FLAVOR,
        flag("verify", OnOff, Value("on")),
        FORMAT, OUT,
        flag("schedule-out", Pathname("FILE"), Off),
        CHAOS_PAGE_RATE, CHAOS_OWNER_RATE, CHAOS_TRUNCATE, CHAOS_SEED,
        flag("degrade", Choice(DEGRADE), Run("fail-fast with --chaos-*, else skip")),
    ], about: "run M worker threads (at most 1024) against ONE shared k-sized cache (lock-striped \
        over S page-table segments), each thread streaming N scenario requests with a per-thread \
        seed (or, with --trace, each thread replaying the same trace file — \
        occbin01/occbin02/CSV; chaos flags need the synthetic stream). Every commit is recorded \
        as (seq, thread, shard, page, user, outcome); --verify on (the default) replays the \
        schedule single-threaded through the stock engine and fails (exit 5) unless per-user \
        hit/miss/eviction vectors, fault counters and the quarantine set are identical. Only \
        policies with pure callbacks may share the cache (lru, fifo, greedy-dual). --schedule-out \
        writes the commit schedule (CRC-sealed, self-describing header) for offline replay. The \
        --chaos-*/--degrade flags match observe; chaos without --degrade fails fast." },
    Command { name: "concurrent", mode: Some("replay"), run: concurrent_replay, flags: &[
        flag("replay", Pathname("FILE"), Required), FORMAT, OUT,
    ], about: "re-execute a --schedule-out file single-threaded and emit a report whose \
        users/faults/quarantined sections are directly comparable to the recording run's (the CI \
        concurrency smoke byte-diffs them). Corrupt or non-contiguous schedules exit 4; \
        divergence exits 5." },
    Command { name: "conformance", mode: None, run: conformance, flags: &[
        flag("grid", Choice(occ_conformance::GRID_NAMES), Value("smoke")),
        SEED,
        flag("weaken", Float(5e-324, f64::MAX), Value("1")),
        flag("shrink", OnOff, Value("on")),
        OUT, FORMAT,
    ], about: "machine-check the paper's bounds (Theorems 1.1/1.3/1.4, Claim 2.3) on a parallel \
        grid of instances and render the PASS/FAIL/VACUOUS verdict table. --out writes the \
        schema-stamped JSON verdicts (byte-identical for a given grid, seed, and weaken factor). \
        --weaken scales every bound (values < 1 tighten them — the deliberate-failure fixture); a \
        FAIL verdict exits with code 6 after shrinking a minimal counterexample." },
];

/// Print to stdout, exiting quietly if the consumer closed the pipe
/// (e.g. `occ mrc | head`).
pub fn emit(text: &str) {
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    if let Err(e) = writeln!(lock, "{text}") {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error writing output: {e}");
        std::process::exit(1);
    }
}

fn find_scenario(name: &str) -> Result<Scenario, CliError> {
    all_scenarios()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| {
            let names: Vec<&str> = all_scenarios().iter().map(|s| s.name).collect();
            CliError::Usage(format!(
                "unknown scenario '{name}' (available: {})",
                names.join(", ")
            ))
        })
}

/// Resolve a policy for a command that streams its workload (`who`) and
/// so never holds the whole trace an offline policy needs. With `shared`,
/// only the registry's shared entries qualify: instances on the
/// segments of one cache must behave like the replay's mirror.
fn online_policy(
    name: &str,
    who: &str,
    shared: bool,
) -> Result<(&'static str, MakeOnline), String> {
    let entry = policies::find(name)?;
    match entry.build {
        Build::Online(make) if entry.shared || !shared => Ok((entry.name, make)),
        Build::Online(_) => {
            let names: Vec<&str> = policies::POLICIES
                .iter()
                .filter(|e| e.shared)
                .map(|e| e.name)
                .collect();
            Err(format!(
                "policy '{}' cannot share a cache across threads: shard instances \
                 must have pure callbacks (available: {})",
                entry.name,
                names.join(", ")
            ))
        }
        Build::Offline(_) => Err(format!(
            "policy '{}' is offline; {who} streams its workload and never \
             materializes a trace",
            entry.name
        )),
    }
}

/// `occ scenarios`
pub fn scenarios() -> Result<(), CliError> {
    let mut t = Table::new(vec!["name", "tenants", "pages", "suggested k", "costs"]);
    for s in all_scenarios() {
        let pages: u32 = s.tenants.iter().map(|t| t.pages).sum();
        let costs: Vec<String> = (0..s.costs.num_users())
            .map(|u| s.costs.user(occ_sim::UserId(u)).describe())
            .collect();
        t.row(vec![
            s.name.to_string(),
            s.tenants.len().to_string(),
            pages.to_string(),
            s.suggested_k.to_string(),
            costs.join("; "),
        ]);
    }
    emit(&t.to_markdown());
    Ok(())
}

/// `occ generate`
pub fn generate(args: &Args) -> Result<(), CliError> {
    let scenario = find_scenario(args.str("scenario"))?;
    let out = args.str("out");
    let format = args.str("format");
    let trace = scenario.trace(args.val("len"), args.val("seed"));
    // Render in memory, then land on disk atomically: a crash or full
    // disk mid-generate leaves the old trace (or nothing), never a
    // half-written one. Binary traces additionally carry the occbin01
    // (or occbin02) checksum footer the writer appends.
    let mut buf = Vec::new();
    match format {
        "text" => write_trace(&trace, &mut buf)?,
        "binary" => write_trace_binary(&trace, &mut buf)?,
        _ => write_trace_binary_v2(&trace, &mut buf)?,
    }
    write_atomic(Path::new(out), &buf).map_err(|e| CliError::Io(format!("write {out}: {e}")))?;
    println!(
        "wrote {} requests over {} pages / {} users to {out} ({format})",
        trace.len(),
        trace.universe().num_pages(),
        trace.universe().num_users()
    );
    Ok(())
}

fn load_or_generate(args: &Args, scenario: &Scenario) -> Result<Trace, CliError> {
    match args.get_str("trace") {
        Some(path) => {
            let file = File::open(path).map_err(|e| CliError::Io(format!("open {path}: {e}")))?;
            let trace = read_trace_auto(BufReader::new(file))?;
            if trace.universe().num_users() != scenario.costs.num_users() {
                return Err(CliError::Usage(format!(
                    "trace has {} users but scenario '{}' defines costs for {}",
                    trace.universe().num_users(),
                    scenario.name,
                    scenario.costs.num_users()
                )));
            }
            Ok(trace)
        }
        None => Ok(scenario.trace(args.val("len"), args.val("seed"))),
    }
}

/// Attach the file path to a trace-reader error, keeping its exit class.
fn feed_err(path: &str, e: TraceIoError) -> CliError {
    match e {
        TraceIoError::Io(io) => CliError::Io(format!("{path}: {io}")),
        TraceIoError::Parse(m) => CliError::Parse(format!("{path}: {m}")),
    }
}

/// The streaming workload of a command that never materializes a trace
/// (`soak`, `fleet`, `concurrent`): the scenario's mixer, or a `--trace
/// FILE` in one of the binary formats ([`BinarySource`] picks mmap /
/// buffered / packed by sniffing the magic) or a real-trace CSV adapted
/// on the fly. Holds O(1) heap regardless of stream length (the mmap
/// path's pages are file-backed).
enum Feed {
    Mix(TenantMixSource),
    Bin(Box<BinarySource>),
    Csv(Box<CsvAdapter>),
}

impl Feed {
    /// Open the feed the flags ask for: `--trace FILE` if given (its
    /// tenant structure checked against the scenario's cost profile),
    /// else `len` requests of the scenario's mixer seeded with `seed`.
    fn open(args: &Args, scenario: &Scenario, len: u64, seed: u64) -> Result<Feed, CliError> {
        let Some(path) = args.get_str("trace") else {
            return Ok(Feed::Mix(scenario.stream(len, seed)));
        };
        let flavor = [CsvFlavor::Msr, CsvFlavor::Twitter]
            .into_iter()
            .find(|f| f.name() == args.str("csv-flavor"));
        let feed = Feed::open_file(path, flavor, Some(scenario.costs.num_users()))?;
        // CSV tenants are hashed into the scenario's user count, so only
        // the binary formats can disagree.
        let users = RequestSource::universe(&feed).num_users();
        if users != scenario.costs.num_users() {
            return Err(CliError::Usage(format!(
                "trace has {users} users but scenario '{}' defines costs for {}",
                scenario.name,
                scenario.costs.num_users()
            )));
        }
        Ok(feed)
    }

    /// Sniff the leading bytes and open the right reader: binary magic
    /// goes to [`BinarySource`], anything else to the CSV adapter
    /// (whose own sniffer rejects files that are neither).
    fn open_file(
        path: &str,
        flavor: Option<CsvFlavor>,
        tenants: Option<u32>,
    ) -> Result<Feed, CliError> {
        use std::io::Read as _;
        // A pipe can only be read once: the probing open below would
        // consume the magic bytes, so hand non-regular files straight
        // to `BinarySource`, which sniffs through the one handle it
        // opens. CSV needs two passes over a seekable file and cannot
        // ride a pipe anyway.
        let regular = std::fs::metadata(path)
            .map(|m| m.is_file())
            .unwrap_or(false);
        if !regular {
            let src = BinarySource::open(Path::new(path)).map_err(|e| feed_err(path, e))?;
            return Ok(Feed::Bin(Box::new(src)));
        }
        let mut probe = [0u8; 8];
        let mut got = 0;
        {
            let mut f = File::open(path).map_err(|e| CliError::Io(format!("open {path}: {e}")))?;
            while got < probe.len() {
                match f.read(&mut probe[got..]) {
                    Ok(0) => break,
                    Ok(n) => got += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(CliError::Io(format!("read {path}: {e}"))),
                }
            }
        }
        let head = &probe[..got];
        if head == BINARY_TRACE_MAGIC || head == BINARY2_TRACE_MAGIC {
            let src = BinarySource::open(Path::new(path)).map_err(|e| feed_err(path, e))?;
            Ok(Feed::Bin(Box::new(src)))
        } else {
            let csv = CsvAdapter::open(Path::new(path), flavor, tenants)
                .map_err(|e| feed_err(path, e))?;
            Ok(Feed::Csv(Box::new(csv)))
        }
    }

    /// Requests the stream holds before any is served: the trace's
    /// count, or the mixer's length.
    fn total_requests(&self) -> u64 {
        match self {
            Feed::Mix(m) => m.remaining(),
            Feed::Bin(b) => b.total_requests(),
            Feed::Csv(c) => c.total_requests(),
        }
    }

    /// How a trace feed serves requests, for logs and reports; `None`
    /// for the mixer.
    fn strategy(&self) -> Option<&'static str> {
        match self {
            Feed::Mix(_) => None,
            Feed::Bin(b) => Some(b.strategy()),
            Feed::Csv(c) => Some(match c.flavor() {
                CsvFlavor::Msr => "csv-msr",
                CsvFlavor::Twitter => "csv-twitter",
            }),
        }
    }

    /// The error that ended a trace feed early, if any.
    fn error(&self) -> Option<&TraceIoError> {
        match self {
            Feed::Mix(_) => None,
            Feed::Bin(b) => b.error(),
            Feed::Csv(c) => c.error(),
        }
    }
}

impl RequestSource for Feed {
    fn universe(&self) -> &Universe {
        match self {
            Feed::Mix(m) => m.universe(),
            Feed::Bin(b) => RequestSource::universe(b.as_ref()),
            Feed::Csv(c) => RequestSource::universe(c.as_ref()),
        }
    }

    fn next_request(&mut self, ctx: &occ_sim::EngineCtx) -> Option<Request> {
        match self {
            Feed::Mix(m) => m.next_request(ctx),
            Feed::Bin(b) => b.next_request(ctx),
            Feed::Csv(c) => c.next_request(ctx),
        }
    }

    fn next_run(&mut self, max: usize) -> Option<&[Request]> {
        match self {
            Feed::Bin(b) => b.next_run(max),
            Feed::Mix(_) | Feed::Csv(_) => None,
        }
    }

    fn next_page_run(&mut self, max: usize) -> Option<&[PageId]> {
        match self {
            Feed::Bin(b) => b.next_page_run(max),
            Feed::Mix(_) | Feed::Csv(_) => None,
        }
    }
}

impl SeekableSource for Feed {
    fn seek_forward(&mut self, n: u64) {
        match self {
            Feed::Mix(m) => m.seek_forward(n),
            Feed::Bin(b) => b.seek_forward(n),
            Feed::Csv(c) => c.seek_forward(n),
        }
    }
}

/// `occ trace pack|unpack`: streaming transcode between the binary trace formats (`pack` writes
/// occbin02, `unpack` writes occbin01). Reads chunk runs, never
/// materializes the trace; text-format inputs are the one exception
/// (they are parsed whole, which is what the text reader does anyway).
fn trace_transcode(args: &Args, pack: bool) -> Result<(), CliError> {
    let (in_path, out_path) = (args.str("in"), args.str("out"));
    let limit: u64 = args.val("limit");

    let mut feed = match Feed::open_file(in_path, None, None) {
        Ok(f) => f,
        Err(CliError::Parse(_)) => {
            // Not binary and not CSV — maybe the v1 text format. Parse
            // it whole and re-serve it as runs.
            let file =
                File::open(in_path).map_err(|e| CliError::Io(format!("open {in_path}: {e}")))?;
            let trace = read_trace_auto(BufReader::new(file)).map_err(|e| feed_err(in_path, e))?;
            let mut buf = Vec::new();
            if pack {
                write_trace_binary_v2(&trace, &mut buf)?;
            } else {
                write_trace_binary(&trace, &mut buf)?;
            }
            return finish_transcode(in_path, out_path, buf, trace.len() as u64, pack);
        }
        Err(e) => return Err(e),
    };
    let total = feed.total_requests();
    let keep = if limit == 0 { total } else { limit.min(total) };
    let universe = RequestSource::universe(&feed).clone();

    // Render to memory, then land atomically (same discipline as
    // `occ generate`); the read side still streams in chunk-sized runs.
    let mut served = 0u64;
    let buf = if pack {
        let mut w = Binary2TraceWriter::new(universe, keep, Vec::new())?;
        copy_requests(&mut feed, keep, &mut served, |req| w.push(req))?;
        w.finish()?
    } else {
        let mut w = BinaryTraceWriter::new(universe, std::io::Cursor::new(Vec::new()))?;
        copy_requests(&mut feed, keep, &mut served, |req| w.push(req))?;
        w.finish()?.into_inner()
    };
    if let Some(e) = feed.error() {
        return Err(feed_err(in_path, TraceIoError::Parse(e.to_string())));
    }
    if served != keep {
        return Err(CliError::Parse(format!(
            "{in_path}: trace ended after {served} of {keep} requests"
        )));
    }
    finish_transcode(in_path, out_path, buf, keep, pack)
}

/// Pull up to `keep` requests out of `feed` in runs and hand each to
/// `push`. Chunked by the feed's own serving granularity.
fn copy_requests(
    feed: &mut Feed,
    keep: u64,
    served: &mut u64,
    mut push: impl FnMut(Request) -> Result<(), TraceIoError>,
) -> Result<(), CliError> {
    const RUN: usize = 64 * 1024;
    while *served < keep {
        let max = (keep - *served).min(RUN as u64) as usize;
        // The universe lookup for page runs matches what the buffered
        // reader would have done to build each Request.
        if let Some(run) = feed.next_page_run(max) {
            if run.is_empty() {
                break;
            }
            let run: Vec<PageId> = run.to_vec();
            let universe = RequestSource::universe(feed);
            let reqs: Vec<Request> = run
                .iter()
                .map(|&page| Request {
                    page,
                    user: universe.owner(page),
                })
                .collect();
            for req in reqs {
                push(req)?;
            }
            *served += run.len() as u64;
            continue;
        }
        if let Some(run) = feed.next_run(max) {
            if run.is_empty() {
                break;
            }
            let reqs: Vec<Request> = run.to_vec();
            for req in &reqs {
                push(*req)?;
            }
            *served += reqs.len() as u64;
            continue;
        }
        // CSV feeds serve per-request.
        let Some(req) = (match feed {
            Feed::Csv(c) => c.pull(),
            Feed::Mix(_) | Feed::Bin(_) => None,
        }) else {
            break;
        };
        push(req)?;
        *served += 1;
    }
    Ok(())
}

/// Write the transcoded bytes atomically and report the size change.
fn finish_transcode(
    in_path: &str,
    out_path: &str,
    buf: Vec<u8>,
    requests: u64,
    pack: bool,
) -> Result<(), CliError> {
    let in_size = std::fs::metadata(in_path).map(|m| m.len()).unwrap_or(0);
    let out_size = buf.len() as u64;
    write_atomic(Path::new(out_path), &buf)
        .map_err(|e| CliError::Io(format!("write {out_path}: {e}")))?;
    let verb = if pack { "packed" } else { "unpacked" };
    let ratio = if in_size > 0 {
        format!("{:.2}x", out_size as f64 / in_size as f64)
    } else {
        "-".into()
    };
    println!(
        "{verb} {requests} requests: {in_path} ({in_size} B) -> {out_path} ({out_size} B, {ratio})"
    );
    Ok(())
}

/// `occ trace import` — CSV → binary trace + recorded key dictionary.
fn trace_import(args: &Args) -> Result<(), CliError> {
    let (in_path, out_path) = (args.str("in"), args.str("out"));
    let dict_path = args
        .get_str("dict")
        .map_or_else(|| format!("{out_path}.dict"), String::from);
    let flavor = [CsvFlavor::Msr, CsvFlavor::Twitter]
        .into_iter()
        .find(|f| f.name() == args.str("csv-flavor"));
    let tenants = Some(args.val::<u32>("tenants")).filter(|&t| t > 0);
    let format = args.str("format");

    let mut csv =
        CsvAdapter::open(Path::new(in_path), flavor, tenants).map_err(|e| feed_err(in_path, e))?;
    let universe = RequestSource::universe(&csv).clone();
    let total = csv.total_requests();

    let buf = if format == "binary" {
        let mut w = BinaryTraceWriter::new(universe.clone(), std::io::Cursor::new(Vec::new()))?;
        while let Some(req) = csv.pull() {
            w.push(req)?;
        }
        w.finish()?.into_inner()
    } else {
        let mut w = Binary2TraceWriter::new(universe.clone(), total, Vec::new())?;
        while let Some(req) = csv.pull() {
            w.push(req)?;
        }
        w.finish()?
    };
    if let Some(e) = csv.error() {
        return Err(feed_err(in_path, TraceIoError::Parse(e.to_string())));
    }
    let mut dict_buf = Vec::new();
    csv.key_dict().write_to(&mut dict_buf)?;
    write_atomic(Path::new(out_path), &buf)
        .map_err(|e| CliError::Io(format!("write {out_path}: {e}")))?;
    write_atomic(Path::new(&dict_path), &dict_buf)
        .map_err(|e| CliError::Io(format!("write {dict_path}: {e}")))?;
    println!(
        "imported {total} requests over {} pages / {} users ({}) to {out_path} ({format}, {} B); \
         dictionary: {dict_path} ({} keys)",
        universe.num_pages(),
        universe.num_users(),
        csv.flavor().name(),
        buf.len(),
        csv.key_dict().len(),
    );
    Ok(())
}

/// `occ run`
pub fn run(args: &Args) -> Result<(), CliError> {
    let scenario = find_scenario(args.str("scenario"))?;
    let trace = load_or_generate(args, &scenario)?;
    let k = args.get("k").unwrap_or(scenario.suggested_k);
    let policy = policies::find(args.str("policy")).map_err(CliError::Usage)?;
    let mut policy = policy.build(&scenario.costs, &trace);
    let report = evaluate_policy(&mut policy, &trace, k, &scenario.costs);

    let mut t = Table::new(vec![
        "policy",
        "k",
        "T",
        "total cost",
        "miss rate",
        "per-tenant misses",
    ]);
    t.row(vec![
        report.name.clone(),
        k.to_string(),
        report.steps.to_string(),
        fnum(report.cost),
        format!("{:.3}", report.miss_rate()),
        format!("{:?}", report.misses),
    ]);
    emit(&t.to_markdown());
    Ok(())
}

/// `occ compare`
pub fn compare(args: &Args) -> Result<(), CliError> {
    let scenario = find_scenario(args.str("scenario"))?;
    let trace = load_or_generate(args, &scenario)?;
    let k = args.get("k").unwrap_or(scenario.suggested_k);

    let mut suite = policies::online_suite(&scenario.costs);
    let mut reports = compare_policies(&mut suite, &trace, k, &scenario.costs);
    reports.sort_by(|a, b| a.cost.total_cmp(&b.cost));

    let best = reports[0].cost;
    let mut t = Table::new(vec!["policy", "total cost", "vs best", "miss rate"]);
    for r in &reports {
        t.row(vec![
            r.name.clone(),
            fnum(r.cost),
            format!("{:.2}x", r.cost / best),
            format!("{:.3}", r.miss_rate()),
        ]);
    }
    emit(&t.to_markdown());
    Ok(())
}

/// `occ mrc`
pub fn mrc(args: &Args) -> Result<(), CliError> {
    let scenario = find_scenario(args.str("scenario"))?;
    let trace = load_or_generate(args, &scenario)?;
    let max_k = args.get("max-k").unwrap_or(scenario.suggested_k * 2);
    let curve = lru_mrc(&trace, max_k);
    let costs = lru_cost_curve(&curve, &scenario.costs);

    let mut t = Table::new(vec!["k", "LRU misses", "miss ratio", "LRU total cost"]);
    let step = (max_k / 16).max(1);
    for k in (1..=max_k).step_by(step) {
        t.row(vec![
            k.to_string(),
            curve.misses[k - 1].to_string(),
            format!("{:.3}", curve.ratio(k)),
            fnum(costs[k - 1]),
        ]);
    }
    emit(&t.to_markdown());
    Ok(())
}

/// `occ fleet`
pub fn fleet(args: &Args) -> Result<(), CliError> {
    let scenario = find_scenario(args.str("scenario"))?;
    let shards: usize = args.val("shards");
    let (len, seed, window): (u64, u64, u64) =
        (args.val("len"), args.val("seed"), args.val("window"));
    let k = args.get("k").unwrap_or(scenario.suggested_k);
    let batch: usize = args.val("batch");
    let (policy_name, make_policy) =
        online_policy(args.str("policy"), "the fleet", false).map_err(CliError::Usage)?;

    // Supervision flags. Any of them implies the supervised engine
    // (per-shard panic isolation + checkpoint/restart); `--supervise on`
    // forces it for a plain run too, e.g. to get the supervisor section
    // in the report.
    let kills: Vec<ShardKill> = parse_chaos_plan(args, shards, "chaos-shard-kill")?
        .into_iter()
        .map(|(shard, at)| ShardKill { shard, at })
        .collect();
    let store_faults: Vec<StoreFault> = parse_chaos_plan(args, shards, "chaos-store-fail")?
        .into_iter()
        .map(|(shard, nth)| StoreFault { shard, nth })
        .collect();
    if let Some(f) = store_faults.iter().find(|f| f.nth == 0) {
        return Err(CliError::Usage(format!(
            "--chaos-store-fail counts checkpoint saves from 1; '{}@0' never fires",
            f.shard
        )));
    }
    let max_restarts: u32 = args.val("max-restarts");
    let backoff_ms: u64 = args.val("backoff-ms");
    let ckpt_dir = args.get_str("checkpoint-dir");
    let from_dir = args.get_str("from-dir");
    let series_out = args.get_str("series-out");
    let wants_supervision = !kills.is_empty()
        || !store_faults.is_empty()
        || ckpt_dir.is_some()
        || from_dir.is_some()
        || series_out.is_some();
    let supervised = match args.str("supervise") {
        "on" => true,
        "off" if wants_supervision => {
            return Err(CliError::Usage(
                "--supervise off conflicts with the chaos/checkpoint/series flags, \
                 which all need the supervisor"
                    .into(),
            ))
        }
        "off" => false,
        _ => wants_supervision,
    };
    if supervised && window == 0 {
        return Err(CliError::Usage(
            "supervised fleet runs checkpoint on window boundaries; pass --window W".into(),
        ));
    }
    let trace_path = args.get_str("trace");
    if supervised && trace_path.is_some() {
        return Err(CliError::Usage(
            "--trace drives unsupervised fleets only; drop the supervision flags \
             or replay the trace through `occ soak --trace`"
                .into(),
        ));
    }

    let costs = &scenario.costs;
    let shard_seed = |i: usize| seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let report = if supervised {
        let mut scfg = SupervisorConfig::new(k, window);
        scfg.max_restarts = max_restarts;
        scfg.backoff = if backoff_ms == 0 {
            BackoffPolicy::none()
        } else {
            BackoffPolicy::exponential(backoff_ms, seed)
        };
        scfg.kills = kills;
        scfg.store_faults = store_faults;

        // Per-shard resume snapshots from an earlier (killed) run's
        // checkpoint directory. A missing file means that shard never
        // reached its first checkpoint: it starts fresh. A corrupt one
        // is exit 4, before any thread spawns.
        let mut resume_index = vec![0u64; shards];
        if let Some(from_dir) = from_dir {
            let probe = scenario.stream(len, seed);
            let owners = probe.universe().owners();
            let mut resume = Vec::with_capacity(shards);
            for (i, slot) in resume_index.iter_mut().enumerate() {
                let path = DirPersist::ckpt_path(Path::new(from_dir), i);
                if !path.exists() {
                    resume.push(None);
                    continue;
                }
                let snap = read_checkpoint(&path)?;
                let label = path.display().to_string();
                check_snapshot(&snap, &label, owners, len, window, true, k)?;
                *slot = snap.time / window;
                resume.push(Some(snap));
            }
            scfg.resume = resume;
        }

        let meta = [
            ("scenario", Json::Str(scenario.name.to_string())),
            ("policy", Json::Str(policy_name.into())),
            ("k", Json::from_u64(k as u64)),
            ("seed", Json::from_u64(seed)),
            ("len", Json::from_u64(len)),
        ];
        // Open every shard's persist files up front so filesystem
        // problems are classified errors here, not worker panics.
        let mut persists: Vec<Option<Box<dyn ShardPersist>>> = Vec::with_capacity(shards);
        for (i, &idx) in resume_index.iter().enumerate() {
            persists.push(Some(match ckpt_dir {
                None => Box::new(NoPersist),
                Some(dir) => Box::new(
                    DirPersist::open(Path::new(dir), i, window, idx, &meta).map_err(|e| {
                        CliError::Io(format!("open checkpoint dir {dir} for shard {i}: {e}"))
                    })?,
                ),
            }));
        }
        let persists = std::sync::Mutex::new(persists);
        let report = run_supervised_fleet(
            shards,
            &scfg,
            |i| scenario.stream(len, shard_seed(i)),
            |_| make_policy(costs),
            |i| {
                persists.lock().expect("persist handoff")[i]
                    .take()
                    .expect("one persist per shard")
            },
        );

        if let Some(series_out) = series_out {
            let series = report
                .merged_series
                .as_ref()
                .expect("supervised runs always carry a window series");
            let ioerr = |e: std::io::Error| CliError::Io(format!("write {series_out}: {e}"));
            let mut s =
                SeriesSink::new(AtomicWriter::create(Path::new(series_out)).map_err(ioerr)?);
            s.write_header(window, &meta);
            for w in &series.windows {
                s.write_window(w);
            }
            s.finish().and_then(AtomicWriter::commit).map_err(ioerr)?;
        }
        report
    } else {
        let mut cfg = FleetConfig::new(k);
        cfg.batch_size = batch;
        if window > 0 {
            cfg.window = Some(window);
        }
        // Each shard is its own server: the same scenario with a
        // decorrelated seed, or the same trace file through its own feed
        // (occbin01 shards each map the file, the kernel shares the
        // cached pages, and serve zero-copy runs).
        let sources = (0..shards)
            .map(|i| Feed::open(args, &scenario, len, shard_seed(i)))
            .collect::<Result<Vec<_>, _>>()?;
        if let (Some(strategy), Some(path)) = (sources[0].strategy(), trace_path) {
            eprintln!(
                "fleet: replaying {path} ({} requests) on every shard via the {strategy} path",
                sources[0].total_requests(),
            );
        }
        run_fleet(sources, &cfg, |_| make_policy(costs))
    };

    let json = report.to_json_value().to_json();
    write_out(args, &json)?;
    if args.str("format") == "json" {
        emit(&json);
    } else {
        let mut head = vec!["shard", "requests", "hits", "misses", "req/s"];
        if report.supervisor.is_some() {
            head.extend(["state", "restarts"]);
        }
        let mut t = Table::new(head);
        for s in &report.shards {
            let mut row = vec![
                s.shard.to_string(),
                s.served.to_string(),
                s.stats.total_hits().to_string(),
                s.stats.total_misses().to_string(),
                fnum(s.requests_per_sec()),
            ];
            if let Some(sup) = &report.supervisor {
                let st = &sup.shards[s.shard];
                row.push(st.state.as_str().to_string());
                row.push(st.restarts.to_string());
            }
            t.row(row);
        }
        emit(&t.to_markdown());
        emit(&format!(
            "fleet: {} shards x {len} requests ({policy_name}, k={k}, batch={batch}) — \
                 {} requests in {:.1} ms, aggregate {} req/s",
            shards,
            report.total_requests,
            report.wall.as_secs_f64() * 1e3,
            fnum(report.aggregate_requests_per_sec()),
        ));
        if let Some(series) = &report.merged_series {
            let total = series.total();
            emit(&format!(
                "windows: {} of width {} merged across shards · overall miss ratio {:.3}",
                series.windows.len(),
                series.width,
                total.miss_ratio()
            ));
        }
        if let Some(sup) = &report.supervisor {
            emit(&format!(
                "supervisor: {} restarts absorbed, {} of {shards} shards quarantined",
                sup.total_restarts(),
                sup.quarantined().len()
            ));
        }
    }
    if let Some(sup) = &report.supervisor {
        if sup.is_degraded() {
            // The report (and any --out/--series-out files) has already
            // been emitted: the run is usable but incomplete.
            return Err(CliError::Degraded(format!(
                "{} of {shards} shards quarantined after exhausting --max-restarts \
                 {max_restarts}; see the report's degraded section",
                sup.quarantined().len()
            )));
        }
    }
    Ok(())
}

/// First line of a `--schedule-out` file. The header carries everything
/// `--replay` needs to rebuild the engine, so a schedule file is
/// self-describing.
const SCHEDULE_MAGIC: &str = "# occ-concurrent-schedule v1";

/// Run parameters recovered from a schedule file header.
struct ScheduleMeta {
    scenario: String,
    k: usize,
    table_shards: usize,
    policy: String,
    degrade: FaultPolicy,
}

fn schedule_header(
    scenario: &str,
    k: usize,
    table_shards: usize,
    threads: usize,
    policy: &str,
    degrade: FaultPolicy,
) -> String {
    format!(
        "{SCHEDULE_MAGIC} scenario={scenario} k={k} table-shards={table_shards} \
         threads={threads} policy={policy} degrade={}",
        degrade.name()
    )
}

fn parse_schedule_header(line: &str) -> Result<ScheduleMeta, String> {
    let rest = line
        .strip_prefix(SCHEDULE_MAGIC)
        .ok_or_else(|| format!("schedule header must start with '{SCHEDULE_MAGIC}'"))?;
    let mut scenario = None;
    let mut k = None;
    let mut table_shards = None;
    let mut policy = None;
    let mut degrade = None;
    for token in rest.split_ascii_whitespace() {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| format!("bad header token '{token}' (want key=value)"))?;
        match key {
            "scenario" => scenario = Some(value.to_string()),
            "k" => k = value.parse::<usize>().ok(),
            "table-shards" => table_shards = value.parse::<usize>().ok(),
            "threads" => {} // provenance only; the replay is single-threaded
            "policy" => policy = Some(value.to_string()),
            "degrade" => {
                degrade = Some(FaultPolicy::parse(value).ok_or_else(|| {
                    format!("unknown degrade policy '{value}' in schedule header")
                })?)
            }
            other => return Err(format!("unknown header key '{other}'")),
        }
    }
    Ok(ScheduleMeta {
        scenario: scenario.ok_or("header is missing scenario=")?,
        k: k.ok_or("header is missing or has a bad k=")?,
        table_shards: table_shards.ok_or("header is missing or has a bad table-shards=")?,
        policy: policy.ok_or("header is missing policy=")?,
        degrade: degrade.ok_or("header is missing degrade=")?,
    })
}

/// Per-user hit/miss/eviction vectors in the exact shape
/// `SharedReport::to_json_value` uses, so run and replay reports can be
/// diffed section-for-section.
fn users_json(stats: &SimStats) -> Json {
    Json::Arr(
        stats
            .per_user()
            .iter()
            .map(|u| {
                Json::Obj(vec![
                    ("hits".into(), Json::from_u64(u.hits)),
                    ("misses".into(), Json::from_u64(u.misses)),
                    ("evictions".into(), Json::from_u64(u.evictions)),
                ])
            })
            .collect(),
    )
}

fn faults_json(c: &FaultCounters) -> Json {
    Json::Obj(vec![
        (
            "page_out_of_range".into(),
            Json::from_u64(c.page_out_of_range),
        ),
        ("owner_mismatch".into(), Json::from_u64(c.owner_mismatch)),
        (
            "quarantined_drops".into(),
            Json::from_u64(c.quarantined_drops),
        ),
        (
            "quarantined_users".into(),
            Json::from_u64(c.quarantined_users),
        ),
    ])
}

/// `occ concurrent`
pub fn concurrent(args: &Args) -> Result<(), CliError> {
    let scenario = find_scenario(args.str("scenario"))?;
    let (threads, table_shards): (usize, usize) = (args.val("threads"), args.val("table-shards"));
    let (len, seed): (u64, u64) = (args.val("len"), args.val("seed"));
    let k = args.get("k").unwrap_or(scenario.suggested_k);
    let (policy_name, make_policy) =
        online_policy(args.str("policy"), "occ concurrent", true).map_err(CliError::Usage)?;

    let plan = chaos_plan(args);
    let chaos_active = !plan.is_clean();
    let degrade = degrade(args, chaos_active).unwrap_or(FaultPolicy::SkipAndCount);

    let mut cfg = SharedConfig::new(k);
    cfg.table_shards = table_shards;
    cfg.degrade = degrade;
    cfg.verify = args.val("verify");

    let costs = &scenario.costs;
    // Same derivation as the plain fleet: decorrelated, reproducible.
    let thread_seed = |t: usize| seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let trace_path = args.get_str("trace");
    if chaos_active && trace_path.is_some() {
        return Err(CliError::Usage(
            "the --chaos-* flags corrupt the synthetic stream and do not combine \
             with --trace"
                .into(),
        ));
    }
    let result = if chaos_active {
        let universe = scenario.stream(1, 0).universe().clone();
        let mut sources: Vec<_> = (0..threads)
            .map(|t| {
                let plan = FaultPlan {
                    seed: plan.seed ^ thread_seed(t),
                    ..plan
                };
                ChaosSource::new(scenario.stream(len, thread_seed(t)), plan)
            })
            .collect();
        run_shared_fleet(universe, &cfg, &mut sources, |_| make_policy(costs))
    } else {
        // Each worker thread streams the scenario with its own seed, or
        // replays the same trace file through its own feed (occbin01
        // threads share the kernel's cached pages).
        let mut sources = (0..threads)
            .map(|t| Feed::open(args, &scenario, len, thread_seed(t)))
            .collect::<Result<Vec<_>, _>>()?;
        if let (Some(strategy), Some(path)) = (sources[0].strategy(), trace_path) {
            eprintln!(
                "concurrent: replaying {path} ({} requests) on every thread \
                 via the {strategy} path",
                sources[0].total_requests(),
            );
        }
        let universe = RequestSource::universe(&sources[0]).clone();
        run_shared_fleet(universe, &cfg, &mut sources, |_| make_policy(costs))
    };
    let report = result.map_err(|e| match e {
        SharedError::Sim(e) => CliError::from(e),
        SharedError::Replay(e) => CliError::Fault(format!("deterministic replay gate: {e}")),
    })?;

    if let Some(sched_out) = args.get_str("schedule-out") {
        use std::io::Write as _;
        let header = schedule_header(
            scenario.name,
            k,
            table_shards,
            threads,
            policy_name,
            degrade,
        );
        let write = || {
            let mut w = AtomicWriter::create(Path::new(sched_out))?;
            writeln!(w, "{header}")?;
            for e in report.outcome.schedule.entries() {
                writeln!(w, "{}", e.to_line())?;
            }
            w.commit()
        };
        write().map_err(|e| CliError::Io(format!("write {sched_out}: {e}")))?;
        eprintln!(
            "wrote commit schedule ({} entries) to {sched_out}",
            report.outcome.schedule.len()
        );
    }

    let json = report.to_json_value().to_json();
    write_out(args, &json)?;
    if args.str("format") == "json" {
        emit(&json);
    } else {
        let mut t = Table::new(vec!["thread", "hits", "misses", "evictions", "dropped"]);
        for (i, (stats, counters)) in report.outcome.per_thread.iter().enumerate() {
            t.row(vec![
                i.to_string(),
                stats.total_hits().to_string(),
                stats.total_misses().to_string(),
                stats.total_evictions().to_string(),
                counters.total_records().to_string(),
            ]);
        }
        emit(&t.to_markdown());
        emit(&format!(
            "concurrent: {threads} threads x {len} requests on one k={k} cache \
                 ({} segments, {policy_name}, degrade={}) — {} commits in {:.1} ms, {} req/s",
            table_shards,
            degrade.name(),
            report.outcome.schedule.len(),
            report.wall.as_secs_f64() * 1e3,
            fnum(report.requests_per_sec()),
        ));
        let c = &report.outcome.counters;
        if !c.is_clean() {
            emit(&format!(
                "faults: {} bad pages, {} wrong owners, {} quarantine drops; \
                     {} users quarantined",
                c.page_out_of_range, c.owner_mismatch, c.quarantined_drops, c.quarantined_users,
            ));
        }
        emit(match &report.replay {
            Some(_) => {
                "replay: verified identical (single-thread replay of the \
                            commit schedule reproduced every per-user vector)"
            }
            None => "replay: skipped (--verify off); the schedule was still recorded",
        });
    }
    Ok(())
}

/// `occ concurrent --replay FILE`
fn concurrent_replay(args: &Args) -> Result<(), CliError> {
    let path = args.str("replay");
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("read {path}: {e}")))?;
    let body = require_trailer(&text).map_err(|m| CliError::Parse(format!("{path}: {m}")))?;
    let mut lines = body.lines();
    let header = lines
        .next()
        .ok_or_else(|| CliError::Parse(format!("{path}: empty schedule file")))?;
    let meta =
        parse_schedule_header(header).map_err(|m| CliError::Parse(format!("{path}: {m}")))?;
    let scenario = find_scenario(&meta.scenario)?;
    let (_, make_policy) = online_policy(&meta.policy, "occ concurrent", true)
        .map_err(|m| CliError::Parse(format!("{path}: {m}")))?;
    let schedule =
        CommitSchedule::from_lines(lines.filter(|l| !l.trim().is_empty() && !l.starts_with('#')))
            .map_err(|e| CliError::Parse(format!("{path}: {e}")))?;

    let universe = scenario.stream(1, 0).universe().clone();
    let policies: Vec<BoxedPolicy> = (0..meta.table_shards)
        .map(|_| make_policy(&scenario.costs))
        .collect();
    let started = Instant::now();
    let outcome: ReplayOutcome =
        replay_schedule(meta.k, universe, policies, meta.degrade, &schedule).map_err(
            |e| match e {
                ReplayError::Schedule(m) => {
                    CliError::Parse(format!("{path}: bad commit schedule: {m}"))
                }
                other => CliError::Fault(other.to_string()),
            },
        )?;
    let wall = started.elapsed();

    let quarantined = outcome
        .quarantined
        .iter()
        .map(|u| Json::from_u64(u.0 as u64))
        .collect();
    let json = Json::Obj(vec![
        ("schema".into(), Json::from_u64(1)),
        ("kind".into(), Json::Str("concurrent-replay".into())),
        ("scenario".into(), Json::Str(meta.scenario.clone())),
        ("policy".into(), Json::Str(meta.policy.clone())),
        ("capacity".into(), Json::from_u64(meta.k as u64)),
        (
            "table_shards".into(),
            Json::from_u64(meta.table_shards as u64),
        ),
        ("degrade".into(), Json::Str(meta.degrade.name().into())),
        ("commits".into(), Json::from_u64(schedule.len() as u64)),
        ("users".into(), users_json(&outcome.stats)),
        ("faults".into(), faults_json(&outcome.counters)),
        ("quarantined".into(), Json::Arr(quarantined)),
        ("wall_ms".into(), Json::Num(wall.as_secs_f64() * 1e3)),
    ]);
    let json = json.to_json();
    write_out(args, &json)?;
    if args.str("format") == "json" {
        emit(&json);
    } else {
        emit(&format!(
            "replayed {} commits of '{}' ({}, k={}, {} segments): \
                 {} hits, {} misses, {} evictions, {} dropped",
            schedule.len(),
            meta.scenario,
            meta.policy,
            meta.k,
            meta.table_shards,
            outcome.stats.total_hits(),
            outcome.stats.total_misses(),
            outcome.stats.total_evictions(),
            outcome.counters.total_records(),
        ));
    }
    Ok(())
}

/// Write `text` and a newline to the `--out` file, if one was given,
/// and return its path.
fn write_out<'a>(args: &'a Args, text: &str) -> Result<Option<&'a str>, CliError> {
    let Some(out) = args.get_str("out") else {
        return Ok(None);
    };
    write_atomic(Path::new(out), format!("{text}\n").as_bytes())
        .map_err(|e| CliError::Io(format!("write {out}: {e}")))?;
    Ok(Some(out))
}

/// Parse the seeded chaos plan in `--flag`, like `"1@250k,2@1M"`, into
/// `(shard, n)` pairs, validating the shard indices against the fleet
/// size.
fn parse_chaos_plan(args: &Args, shards: usize, flag: &str) -> Result<Vec<(usize, u64)>, CliError> {
    let mut out = Vec::new();
    let text = args.get_str(flag).unwrap_or_default();
    for item in text.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (shard, n) = item.split_once('@').ok_or_else(|| {
            CliError::Usage(format!("bad --{flag} entry '{item}' (want SHARD@N)"))
        })?;
        let shard: usize = shard
            .trim()
            .parse()
            .map_err(|e| CliError::Usage(format!("bad shard in --{flag} entry '{item}': {e}")))?;
        if shard >= shards {
            return Err(CliError::Usage(format!(
                "--{flag} targets shard {shard} but the fleet has {shards} shard(s)"
            )));
        }
        let n = parse_scaled(n.trim())
            .map_err(|e| CliError::Usage(format!("bad count in --{flag} entry '{item}': {e}")))?;
        out.push((shard, n));
    }
    Ok(out)
}

/// Everything an `occ observe` / `occ resume` drive needs besides the
/// policy.
struct DriveOpts<'a> {
    k: usize,
    universe: &'a Universe,
    records: &'a [Request],
    /// The checkpoint to continue (resume only).
    snap: Option<&'a EngineSnapshot>,
    /// JSONL event stream destination (empty = none).
    events_path: &'a str,
    /// `Some` switches to the checked (`step_checked`) path; `None` keeps
    /// the monomorphized unchecked hot loop.
    degrade: Option<FaultPolicy>,
    /// Write a checkpoint every this many requests (positive when
    /// `checkpoint_path` is set).
    checkpoint_every: u64,
    /// Where checkpoints go (empty = off).
    checkpoint_path: &'a str,
}

fn write_checkpoint(path: &str, snap: &EngineSnapshot) -> Result<(), CliError> {
    write_checkpoint_file(Path::new(path), snap)
        .map_err(|e| CliError::Io(format!("write checkpoint {path}: {e}")))
}

/// Read a checkpoint back, insisting on an intact CRC trailer: a torn,
/// truncated, or bit-flipped snapshot is a parse error (exit 4), never
/// a silent partial resume.
fn read_checkpoint(path: &Path) -> Result<EngineSnapshot, CliError> {
    let shown = path.display();
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("read {shown}: {e}")))?;
    let body =
        require_trailer(&text).map_err(|e| CliError::Parse(format!("checkpoint {shown}: {e}")))?;
    Ok(snapshot_from_json(body)?)
}

/// Drive a stepping engine over `opts.records` (starting at the engine's
/// current clock, which is nonzero when resuming) with a recorder
/// attached, invoking `sample(t, policy, is_final)` before every step and
/// once after the last one. Handles fault degradation and periodic
/// checkpoints per `opts`. Returns the final counters, steps consumed,
/// the policy's display name, the recorder, and the absorbed faults.
fn observe_drive<P, R, F>(
    mut eng: SteppingEngine<P, R>,
    opts: &DriveOpts,
    mut sample: F,
) -> Result<(SimStats, u64, String, R, FaultCounters), CliError>
where
    P: ReplacementPolicy,
    R: occ_sim::Recorder,
    F: FnMut(Time, &P, bool),
{
    let num_users = eng.ctx().universe.num_users();
    let mut handler = match opts.degrade {
        None => None,
        Some(p) => {
            let mut h = FaultHandler::new(p, num_users);
            if let Some(snap) = opts.snap {
                h.restore(snap.faults.clone(), &snap.quarantined)?;
                for &u in &snap.quarantined {
                    eng.remove_user_externally(u);
                }
            }
            Some(h)
        }
    };

    let checkpoints_on = !opts.checkpoint_path.is_empty();
    let checkpoint = |eng: &SteppingEngine<P, R>, handler: &Option<FaultHandler>| {
        let snap = match handler {
            Some(h) => eng.snapshot_with_faults(h)?,
            None => eng.snapshot()?,
        };
        write_checkpoint(opts.checkpoint_path, &snap)
    };
    for r in &opts.records[eng.time() as usize..] {
        sample(eng.time(), eng.policy(), false);
        match &mut handler {
            None => {
                eng.step(*r);
            }
            Some(h) => {
                eng.step_checked(*r, h)?;
            }
        }
        if checkpoints_on && eng.time().is_multiple_of(opts.checkpoint_every) {
            checkpoint(&eng, &handler)?;
        }
    }
    sample(eng.time(), eng.policy(), true);
    if checkpoints_on {
        checkpoint(&eng, &handler)?;
    }
    let faults = handler.map(|h| h.counters().clone()).unwrap_or_default();
    let stats = eng.stats().clone();
    let steps = eng.time();
    let name = eng.policy().name();
    Ok((stats, steps, name, eng.into_recorder(), faults))
}

/// Run one policy with metrics (and optionally a JSONL event stream and
/// a dual-trajectory sampler) attached, from a fresh engine or from
/// `opts.snap`.
fn observe_policy<P: ReplacementPolicy>(
    policy: P,
    rec: &mut MetricsRecorder,
    opts: &DriveOpts,
    mut sample: impl FnMut(Time, &P, bool),
) -> Result<(SimStats, u64, String, FaultCounters), CliError> {
    let eng = match opts.snap {
        Some(snap) => SteppingEngine::from_snapshot(snap, policy)?,
        None => SteppingEngine::new(opts.k, opts.universe.clone(), policy),
    };
    let events_path = opts.events_path;
    if events_path.is_empty() {
        let (stats, steps, name, _, faults) =
            observe_drive(eng.with_recorder(&mut *rec), opts, sample)?;
        Ok((stats, steps, name, faults))
    } else {
        let file = File::create(events_path)
            .map_err(|e| CliError::Io(format!("create {events_path}: {e}")))?;
        let sink = JsonlSink::new(BufWriter::new(file));
        let (stats, steps, name, (_, sink), faults) =
            observe_drive(eng.with_recorder((&mut *rec, sink)), opts, &mut sample)?;
        sink.finish()
            .map_err(|e| CliError::Io(format!("writing {events_path}: {e}")))?;
        Ok((stats, steps, name, faults))
    }
}

/// The seeded fault plan of the `--chaos-*` flags (observe, resume and
/// concurrent), clean when no fault injection was requested.
fn chaos_plan(args: &Args) -> FaultPlan {
    let plan = FaultPlan::seeded(args.val("chaos-seed"))
        .with_page_rate(args.val("chaos-page-rate"))
        .with_owner_rate(args.val("chaos-owner-rate"));
    match args.val("chaos-truncate") {
        0 => plan,
        n => plan.with_truncate_at(n),
    }
}

/// Apply the `--chaos-*` fault plan to the trace; `true` when it is not
/// clean.
fn chaos_records(args: &Args, trace: &Trace) -> (Vec<Request>, bool) {
    let plan = chaos_plan(args);
    if plan.is_clean() {
        return (trace.requests().to_vec(), false);
    }
    let (records, injected) = plan.corrupt_trace(trace);
    eprintln!(
        "chaos: injected {} corrupt pages, {} wrong owners{} (seed {})",
        injected.pages,
        injected.owners,
        if injected.truncated {
            ", truncated"
        } else {
            ""
        },
        plan.seed,
    );
    (records, true)
}

/// `--degrade`: explicit flag wins; chaos injection without a flag
/// defaults to fail-fast (the library default), surfaced loudly.
fn degrade(args: &Args, chaos_active: bool) -> Option<FaultPolicy> {
    match args.get_str("degrade") {
        Some(name) => Some(FaultPolicy::parse(name).expect("--degrade choices are policy names")),
        None => chaos_active.then_some(FaultPolicy::FailFast),
    }
}

/// Assemble the observe/resume report from final engine state.
fn build_report(
    name: String,
    k: usize,
    stats: &SimStats,
    costs: &CostProfile,
    rec: &MetricsRecorder,
    dual: Option<&DualTrace>,
) -> Result<ObserveReport, CliError> {
    let requests = stats.total_hits().saturating_add(stats.total_misses());
    let misses = stats.total_misses();
    // The checked evaluation turns a pathological cost function (NaN,
    // overflow) into a typed fault instead of a silent NaN in the report.
    let total_cost = costs
        .total_cost_checked(&stats.eviction_vector())
        .map_err(|e| CliError::Fault(e.to_string()))?;
    Ok(ObserveReport {
        policy: name,
        capacity: k as u64,
        requests,
        hits: stats.total_hits(),
        misses,
        evictions: stats.total_evictions(),
        miss_rate: if requests == 0 {
            0.0
        } else {
            misses as f64 / requests as f64
        },
        total_cost: Some(total_cost),
        metrics: rec.to_json_value(),
        dual: dual.map(DualTrace::to_json_value),
    })
}

/// Check that checkpoint `snap` (`label` in errors) can continue a run
/// over a stream of `len` requests with page `owners` that closes a
/// window every `window` requests (0: no windows) and, if `degraded_ok`,
/// restores fault state, with a cache of `k` slots, which must be its
/// capacity.
fn check_snapshot(
    snap: &EngineSnapshot,
    label: &str,
    owners: &[UserId],
    len: u64,
    window: u64,
    degraded_ok: bool,
    k: usize,
) -> Result<(), CliError> {
    let degraded = !(snap.faults.is_clean() && snap.quarantined.is_empty());
    let problem = if owners != snap.owners.as_slice() {
        format!(
            "its universe ({} pages / {} users) is not the stream's; resume with the \
             original --scenario/--len/--seed (or --trace)",
            snap.owners.len(),
            snap.num_users
        )
    } else if snap.time > len {
        format!(
            "t={} is past the end of the stream ({len} requests); did --len, the \
             trace or the chaos flags change?",
            snap.time
        )
    } else if window > 0 && !snap.time.is_multiple_of(window) {
        format!("t={} is mid-window for --window {window}", snap.time)
    } else if degraded && !degraded_ok {
        "it comes from a degraded run; continue it with `occ resume --degrade ...`".into()
    } else if k == snap.capacity {
        return Ok(());
    } else {
        format!("--k {k} disagrees with its capacity {}", snap.capacity)
    };
    Err(CliError::Usage(format!(
        "{label} does not fit this run: {problem}"
    )))
}

/// `occ observe` and `occ resume`: run one policy over the scenario's
/// trace with full instrumentation and emit the report. `snap` continues
/// a checkpointed run (`occ resume`) instead of starting fresh.
fn observe_run(args: &Args, snap: Option<EngineSnapshot>) -> Result<(), CliError> {
    let scenario = find_scenario(args.str("scenario"))?;
    let trace = load_or_generate(args, &scenario)?;
    let policy = policies::find(args.str("policy")).map_err(CliError::Usage)?;
    let checkpoint_path = args.get_str("checkpoint").unwrap_or_default();
    let checkpoint_every: u64 = args.val("checkpoint-every");
    if !checkpoint_path.is_empty() && checkpoint_every == 0 {
        return Err(CliError::Usage(
            "--checkpoint needs a positive --checkpoint-every".into(),
        ));
    }

    let (records, chaos_active) = chaos_records(args, &trace);
    let degrade = degrade(args, chaos_active);
    let (owners, resumable) = (trace.universe().owners(), degrade.is_some());
    let k = args
        .get("k")
        .unwrap_or(snap.as_ref().map_or(scenario.suggested_k, |s| s.capacity));
    if let Some(s) = &snap {
        let len = records.len() as u64;
        check_snapshot(s, "checkpoint", owners, len, 0, resumable, k)?;
    }
    let opts = DriveOpts {
        k,
        universe: trace.universe(),
        records: &records,
        snap: snap.as_ref(),
        events_path: args.get_str("events").unwrap_or_default(),
        degrade,
        checkpoint_every,
        checkpoint_path,
    };

    let mut rec = MetricsRecorder::new();
    let mut dual: Option<DualTrace> = None;
    // The convex branch keeps the concrete type: the dual probe reads
    // ConvexCaching's state, which the boxed trait object hides.
    let (stats, steps, name, faults) = if policy.name == "convex" {
        let alg = ConvexCaching::new(scenario.costs.clone());
        let mut dt = DualTrace::new(args.val("every"));
        let out = observe_policy(alg, &mut rec, &opts, |t, p, fin| {
            if fin {
                dt.finalize(t, p);
            } else {
                dt.maybe_sample(t, p);
            }
        })?;
        dual = Some(dt);
        out
    } else {
        let policy = policy.build(&scenario.costs, &trace);
        observe_policy(policy, &mut rec, &opts, |_, _, _| {})?
    };

    debug_assert_eq!(steps as usize, records.len());
    if let Some(s) = &snap {
        eprintln!(
            "resumed from t={} ({} of {} records remained)",
            s.time,
            records.len().saturating_sub(s.time as usize),
            records.len()
        );
    }
    if !faults.is_clean() {
        eprintln!(
            "degraded ({}): absorbed {} faulty records, quarantined {} users",
            degrade.unwrap_or_default(),
            faults.total_records(),
            faults.quarantined_users
        );
    }
    let text = build_report(name, k, &stats, &scenario.costs, &rec, dual.as_ref())?.to_json();
    match write_out(args, &text)? {
        Some(out) => eprintln!("wrote report to {out}"),
        None => emit(&text),
    }
    Ok(())
}

/// Pull one `kB`-valued field out of a `/proc/self/status` dump. Every
/// step is fallible — the line can be absent (restricted /proc,
/// non-Linux emulation layers) or malformed — and each failure is a
/// `None`, never a panic in the heartbeat path.
fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Pull the resident-set size (in kB) out of a `/proc/self/status`
/// dump.
fn parse_vmrss_kb(status: &str) -> Option<u64> {
    parse_status_kb(status, "VmRSS:")
}

/// Resident-set figures for the heartbeat: total RSS plus, when the
/// kernel breaks it down, the anonymous portion on its own. The
/// distinction matters for mmap-backed ingestion: the file mapping's
/// resident pages are reclaimable page cache counted into `VmRSS`, so
/// on a big trace the total balloons while the engine's own footprint
/// (`RssAnon`) stays flat. Reporting both keeps the O(1)-memory claim
/// checkable from the heartbeat.
struct RssSample {
    total: u64,
    /// `RssAnon` — absent when only the `/proc/self/statm` fallback (or
    /// an old kernel's status file) is available.
    anon: Option<u64>,
}

fn rss_sample() -> Option<RssSample> {
    if let Ok(text) = std::fs::read_to_string("/proc/self/status") {
        if let Some(kb) = parse_vmrss_kb(&text) {
            return Some(RssSample {
                total: kb * 1024,
                anon: parse_status_kb(&text, "RssAnon:").map(|kb| kb * 1024),
            });
        }
    }
    let text = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = text.split_whitespace().nth(1)?.parse().ok()?;
    Some(RssSample {
        total: pages * 4096,
        anon: None,
    })
}

/// `occ soak`: a single attempt of the windowed shard driver, with no
/// restarts.
pub fn soak(args: &Args) -> Result<(), CliError> {
    let scenario = find_scenario(args.str("scenario"))?;
    let (len, seed, window): (u64, u64, u64) =
        (args.val("len"), args.val("seed"), args.val("window"));
    let (policy_name, make_policy) =
        online_policy(args.str("policy"), "soak", false).map_err(CliError::Usage)?;
    let series_path = args.get_str("series");
    let (timed, heartbeat): (bool, bool) = (args.val("timing"), args.val("heartbeat"));
    let checkpoint_path = args.get_str("checkpoint");
    let mut checkpoint_every: u64 = args.val("checkpoint-every");
    if checkpoint_path.is_none() && checkpoint_every > 0 {
        return Err(CliError::Usage(
            "--checkpoint-every needs --checkpoint FILE to write to".into(),
        ));
    }
    if checkpoint_path.is_some() && checkpoint_every == 0 {
        checkpoint_every = window;
    }
    if checkpoint_every > 0 {
        // Checkpoints land on window boundaries so a resumed series
        // continues byte-identically (no partial-window state to lose).
        let rounded = checkpoint_every.div_ceil(window) * window;
        if rounded != checkpoint_every {
            eprintln!(
                "soak: rounding --checkpoint-every {checkpoint_every} up to {rounded} \
                 (a multiple of --window {window})"
            );
        }
        checkpoint_every = rounded;
    }

    let mut source = Feed::open(args, &scenario, len, seed)?;
    if let (Some(strategy), Some(path)) = (source.strategy(), args.get_str("trace")) {
        eprintln!("soak: streaming {path} via the {strategy} path");
    }
    let target = source.total_requests();

    // Resume from a checkpoint written by an earlier soak.
    let snap = args
        .get_str("from")
        .map(|f| read_checkpoint(Path::new(f)))
        .transpose()?;
    let k = args
        .get("k")
        .unwrap_or(snap.as_ref().map_or(scenario.suggested_k, |s| s.capacity));
    if let Some(s) = &snap {
        let owners = source.universe().owners();
        check_snapshot(s, "checkpoint", owners, target, window, false, k)?;
    }
    let start_t = snap.as_ref().map_or(0, |s| s.time);

    let meta = vec![
        ("scenario", Json::Str(scenario.name.to_string())),
        ("policy", Json::Str(policy_name.into())),
        ("k", Json::from_u64(k as u64)),
        ("seed", Json::from_u64(seed)),
        ("len", Json::from_u64(target)),
        ("start", Json::from_u64(start_t)),
    ];
    let file = |p: Option<&str>| p.map(PathBuf::from);
    let mut persist = FilePersist::new(file(series_path), window, meta, file(checkpoint_path));
    let mut driver = WindowDriver::new(k, window, checkpoint_every, snap, &mut persist);
    // The heartbeat is a boundary hook: about once a second, progress,
    // rate, ETA and RSS go to stderr.
    let mut last_beat = None;
    let mut on_boundary = |t: Time, started: Instant| {
        if !heartbeat || last_beat.unwrap_or(started).elapsed().as_secs_f64() < 1.0 {
            return;
        }
        last_beat = Some(Instant::now());
        let rate = (t - start_t) as f64 / started.elapsed().as_secs_f64();
        let eta = if target > t && rate > 0.0 {
            format!("{:.0}s", (target - t) as f64 / rate)
        } else {
            "-".into()
        };
        let rss = match rss_sample() {
            // Report anon separately: the mmap ingestion path
            // legitimately pins file-backed pages into RSS.
            Some(RssSample {
                total,
                anon: Some(anon),
            }) => format!("{} MB (anon {} MB)", total / (1 << 20), anon / (1 << 20)),
            Some(RssSample { total, anon: None }) => format!("{} MB", total / (1 << 20)),
            None => "n/a".into(),
        };
        eprintln!(
            "soak: {t}/{target} requests · {} req/s · ETA {eta} · RSS {rss}",
            fnum(rate)
        );
    };

    // The convex branch keeps the concrete type: the dual probe reads
    // ConvexCaching's state, and the kernel is monomorphized. Timed
    // windows carry latency histograms.
    let run = if policy_name == "convex" {
        let alg = ConvexCaching::new(scenario.costs.clone());
        let mut probe = |p: &ConvexCaching| {
            Some(DualPoint {
                dual_offset: p.cumulative_dual_offset(),
                total_evictions: p.eviction_counts().iter().sum(),
                primal_cost: p.primal_cost(),
            })
        };
        if timed {
            driver.run::<_, _, true>(&mut source, alg, &mut probe, &mut on_boundary)
        } else {
            driver.run::<_, _, false>(&mut source, alg, &mut probe, &mut on_boundary)
        }
    } else {
        let policy = make_policy(&scenario.costs);
        // The probe argument type must match the driver's `P` exactly,
        // and here `P` really is the boxed trait object.
        #[allow(clippy::borrowed_box)]
        let mut probe = |_: &BoxedPolicy| None;
        if timed {
            driver.run::<_, _, true>(&mut source, policy, &mut probe, &mut on_boundary)
        } else {
            driver.run::<_, _, false>(&mut source, policy, &mut probe, &mut on_boundary)
        }
    }?;

    // A trace that failed mid-stream parked its error and ended the
    // stream early; surface it instead of reporting a short run (and
    // before the series is sealed).
    match source.error() {
        Some(TraceIoError::Io(io)) => return Err(CliError::Io(format!("reading trace: {io}"))),
        Some(TraceIoError::Parse(m)) => {
            return Err(CliError::Parse(format!("trace parse error: {m}")))
        }
        None => {}
    }
    // Sticky sink errors surface here (exit 3) rather than silently
    // dropping the tail of the series.
    persist.finish().map_err(|e| CliError::Io(e.to_string()))?;
    let elapsed = run.started.elapsed();
    let served = run.end - start_t;

    if start_t > 0 {
        eprintln!("soak: resumed from t={start_t}, served {served} more requests");
    }
    let stats = &run.stats;
    let requests = stats.total_hits() + stats.total_misses();
    let mut t = Table::new(vec!["metric", "value"]);
    t.row(vec!["policy".into(), run.policy.clone()]);
    t.row(vec!["k".into(), k.to_string()]);
    t.row(vec!["requests".into(), requests.to_string()]);
    t.row(vec!["window".into(), window.to_string()]);
    t.row(vec!["windows".into(), run.windows.to_string()]);
    t.row(vec!["hits".into(), stats.total_hits().to_string()]);
    t.row(vec!["misses".into(), stats.total_misses().to_string()]);
    t.row(vec![
        "miss_rate".into(),
        format!(
            "{:.4}",
            if requests == 0 {
                0.0
            } else {
                stats.total_misses() as f64 / requests as f64
            }
        ),
    ]);
    t.row(vec![
        "evictions".into(),
        stats.total_evictions().to_string(),
    ]);
    t.row(vec![
        "req/s".into(),
        fnum(served as f64 / elapsed.as_secs_f64().max(1e-9)),
    ]);
    if let Some(series_path) = series_path {
        t.row(vec![
            "series".into(),
            format!("{series_path} ({} lines)", run.windows + 1),
        ]);
    }
    emit(&t.to_markdown());

    let mut per = Table::new(vec!["tenant", "hits", "misses", "miss%", "evictions"]);
    for (u, us) in stats.per_user().iter().enumerate() {
        let reqs = us.hits + us.misses;
        per.row(vec![
            u.to_string(),
            us.hits.to_string(),
            us.misses.to_string(),
            format!(
                "{:.3}",
                if reqs == 0 {
                    0.0
                } else {
                    us.misses as f64 / reqs as f64
                }
            ),
            us.evictions.to_string(),
        ]);
    }
    emit(&per.to_markdown());
    eprintln!(
        "soak: window sums verified against engine totals ({} windows, t={}..{})",
        run.windows, start_t, run.end
    );
    Ok(())
}

/// Render a JSONL window series as an aligned table with per-window Δ
/// markers (`occ report --series`).
fn report_series(args: &Args) -> Result<(), CliError> {
    let path = args.str("series");
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("read {path}: {e}")))?;
    let file = SeriesFile::parse(&text).map_err(CliError::Parse)?;
    if args.str("format") == "json" {
        emit(&file.series().to_json_value().to_json());
    } else {
        let any_latency = file.windows.iter().any(|w| w.latency_ns.is_some());
        let any_dual = file.windows.iter().any(|w| w.dual.is_some());
        let mut head = vec![
            "window", "span", "requests", "miss%", "Δ", "evict", "faults",
        ];
        if any_latency {
            head.push("p99(ns)");
        }
        if any_dual {
            head.push("dual Y");
        }
        let mut t = Table::new(head);
        let mut prev: Option<f64> = None;
        for w in &file.windows {
            let mr = w.miss_ratio();
            let delta = match prev {
                None => "·".to_string(),
                Some(p) if (mr - p).abs() < 5e-4 => "·".to_string(),
                Some(p) => format!("{:+.3}", mr - p),
            };
            prev = Some(mr);
            let mut row = vec![
                w.index.to_string(),
                format!("{}..{}", w.start, w.end),
                w.requests().to_string(),
                format!("{:.3}", mr),
                delta,
                (w.evictions + w.flush_evictions).to_string(),
                w.faults.total_records().to_string(),
            ];
            if any_latency {
                row.push(
                    w.latency_ns
                        .as_ref()
                        .map(|h| h.p99().to_string())
                        .unwrap_or_else(|| "-".into()),
                );
            }
            if any_dual {
                row.push(
                    w.dual
                        .as_ref()
                        .map(|d| fnum(d.dual_offset))
                        .unwrap_or_else(|| "-".into()),
                );
            }
            t.row(row);
        }
        emit(&t.to_markdown());
        let total = file.series().total();
        emit(&format!(
            "series: {} windows of {} requests · {} requests total · overall miss ratio {:.3}",
            file.windows.len(),
            file.width,
            total.requests(),
            total.miss_ratio()
        ));
    }
    Ok(())
}

/// `occ report`
pub fn report(args: &Args) -> Result<(), CliError> {
    let path = args.str("in");
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("read {path}: {e}")))?;
    let parsed = Json::parse(&text).map_err(|e| CliError::Parse(format!("{path}: {e}")))?;
    ObserveReport::validate(&parsed).map_err(CliError::Parse)?;
    let r = ObserveReport::from_json_value(&parsed).map_err(CliError::Parse)?;
    emit(&match args.str("format") {
        "json" => r.to_json(),
        _ => r.to_table(),
    });
    Ok(())
}

/// `occ conformance`
pub fn conformance(args: &Args) -> Result<(), CliError> {
    let grid_name = args.str("grid");
    let grid = occ_conformance::grid(grid_name).expect("--grid choices are GRID_NAMES");
    let cfg = occ_conformance::RunConfig {
        seed: args.val("seed"),
        weaken: args.val("weaken"),
        shrink: args.val("shrink"),
    };
    let outcome = occ_conformance::run_grid(&grid, &cfg);

    // Timings are observability, never verdict data: they go to stderr
    // so the JSON below stays byte-deterministic.
    let total_ns: u64 = outcome.cell_elapsed_ns.iter().map(|(_, ns)| ns).sum();
    if let Some((slowest, ns)) = outcome.cell_elapsed_ns.iter().max_by_key(|(_, ns)| *ns) {
        eprintln!(
            "{} cells in {:.1} ms (slowest {slowest}: {:.1} ms); step latency p99 {} ns",
            grid.cells.len(),
            total_ns as f64 / 1e6,
            *ns as f64 / 1e6,
            outcome.metrics.latency_ns().p99(),
        );
    }

    let json = outcome.verdicts.to_json();
    if let Some(out) = write_out(args, &json)? {
        eprintln!("verdicts written to {out}");
    }
    match args.str("format") {
        "json" => emit(&json),
        _ => emit(&outcome.verdicts.to_table()),
    }

    let (_, fail, _) = outcome.verdicts.counts();
    if fail > 0 {
        return Err(CliError::Conformance(format!(
            "{fail} of {} cells FAILed their bound (grid {grid_name}, seed {}, weaken {})",
            grid.cells.len(),
            cfg.seed,
            cfg.weaken
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    /// Run a parsed command line through its table entry.
    fn dispatch(a: &Args) -> Result<(), CliError> {
        (a.command.expect("a command").run)(a)
    }

    /// Parse and run a command line, as `main` does.
    fn exec(tokens: &[&str]) -> Result<(), CliError> {
        dispatch(&Args::parse(tokens.iter().map(|s| s.to_string()))?)
    }

    #[test]
    fn scenarios_lists_without_error() {
        scenarios().unwrap();
    }

    #[test]
    fn unknown_scenario_is_friendly() {
        let err = find_scenario("nope").map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("available"));
        assert_eq!(err.exit_code(), 2, "unknown scenario is a usage error");
    }

    #[test]
    fn run_compare_and_mrc_on_generated_trace() {
        run(&args(&[
            "run",
            "--scenario",
            "two-tier",
            "--len",
            "500",
            "--k",
            "8",
        ]))
        .unwrap();
        compare(&args(&[
            "compare",
            "--scenario",
            "two-tier",
            "--len",
            "500",
            "--k",
            "8",
        ]))
        .unwrap();
        mrc(&args(&[
            "mrc",
            "--scenario",
            "two-tier",
            "--len",
            "500",
            "--max-k",
            "8",
        ]))
        .unwrap();
    }

    #[test]
    fn conformance_smoke_passes_and_writes_deterministic_verdicts() {
        let dir = std::env::temp_dir().join("occ-cli-conformance-test");
        std::fs::create_dir_all(&dir).unwrap();
        let a_path = dir.join("verdicts-a.json");
        let b_path = dir.join("verdicts-b.json");
        for path in [&a_path, &b_path] {
            conformance(&args(&[
                "conformance",
                "--grid",
                "smoke",
                "--seed",
                "7",
                "--out",
                path.to_str().unwrap(),
            ]))
            .unwrap();
        }
        let a = std::fs::read(&a_path).unwrap();
        let b = std::fs::read(&b_path).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "same seed ⇒ byte-identical verdict JSON");
        let parsed = Json::parse(std::str::from_utf8(&a).unwrap()).unwrap();
        occ_conformance::VerdictTable::validate(&parsed).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn conformance_weakened_bounds_exit_with_code_6() {
        let err = conformance(&args(&[
            "conformance",
            "--grid",
            "smoke",
            "--weaken",
            "1e-6",
            "--shrink",
            "off",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 6);
        assert_eq!(err.class(), "conformance");
        assert!(err.to_string().contains("FAILed"));
    }

    #[test]
    fn conformance_rejects_bad_flags_as_usage_errors() {
        for bad in [
            vec!["conformance", "--grid", "nope"],
            vec!["conformance", "--weaken", "0"],
            vec!["conformance", "--weaken", "-1"],
            vec!["conformance", "--shrink", "maybe"],
            vec!["conformance", "--format", "xml"],
        ] {
            let err = exec(&bad).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?}");
        }
    }

    #[test]
    fn concurrent_run_schedule_roundtrip_and_replay() {
        let dir = std::env::temp_dir().join("occ-cli-concurrent-test");
        std::fs::create_dir_all(&dir).unwrap();
        let sched = dir.join("schedule.txt");
        let run_json = dir.join("run.json");
        let replay_json = dir.join("replay.json");
        concurrent(&args(&[
            "concurrent",
            "--scenario",
            "two-tier",
            "--threads",
            "4",
            "--table-shards",
            "4",
            "--len",
            "800",
            "--k",
            "8",
            "--format",
            "json",
            "--schedule-out",
            sched.to_str().unwrap(),
            "--out",
            run_json.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&args(&[
            "concurrent",
            "--replay",
            sched.to_str().unwrap(),
            "--out",
            replay_json.to_str().unwrap(),
        ]))
        .unwrap();
        let run = Json::parse(&std::fs::read_to_string(&run_json).unwrap()).unwrap();
        let rep = Json::parse(&std::fs::read_to_string(&replay_json).unwrap()).unwrap();
        for section in ["users", "faults", "quarantined"] {
            let a = run.get(section).unwrap().to_json();
            let b = rep.get(section).unwrap().to_json();
            assert_eq!(a, b, "run and replay disagree on '{section}'");
        }
        assert_eq!(
            run.get("commits").unwrap().to_json(),
            rep.get("commits").unwrap().to_json()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_chaos_quarantine_smoke() {
        concurrent(&args(&[
            "concurrent",
            "--scenario",
            "two-tier",
            "--threads",
            "3",
            "--len",
            "500",
            "--chaos-owner-rate",
            "0.02",
            "--degrade",
            "quarantine",
            "--format",
            "json",
        ]))
        .unwrap();
    }

    #[test]
    fn concurrent_rejects_bad_flags_as_usage_errors() {
        for bad in [
            vec!["concurrent", "--scenario", "two-tier", "--threads", "0"],
            vec![
                "concurrent",
                "--scenario",
                "two-tier",
                "--table-shards",
                "0",
            ],
            vec!["concurrent", "--scenario", "two-tier", "--k", "0"],
            vec!["concurrent", "--scenario", "two-tier", "--policy", "convex"],
            vec!["concurrent", "--scenario", "two-tier", "--policy", "lfu"],
            vec!["concurrent", "--scenario", "two-tier", "--verify", "maybe"],
            vec!["concurrent", "--scenario", "two-tier", "--format", "xml"],
            vec![
                "concurrent",
                "--scenario",
                "two-tier",
                "--chaos-page-rate",
                "1.5",
            ],
        ] {
            let err = exec(&bad).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?}");
        }
    }

    #[test]
    fn concurrent_replay_rejects_corrupt_schedules() {
        let dir = std::env::temp_dir().join("occ-cli-concurrent-corrupt-test");
        std::fs::create_dir_all(&dir).unwrap();
        // No CRC trailer at all.
        let bare = dir.join("bare.txt");
        std::fs::write(&bare, "# occ-concurrent-schedule v1 scenario=two-tier\n").unwrap();
        let err = exec(&["concurrent", "--replay", bare.to_str().unwrap()]).unwrap_err();
        assert_eq!(err.exit_code(), 4, "missing trailer is a parse error");
        // Sealed but non-contiguous schedule body.
        let gap = dir.join("gap.txt");
        let body = format!(
            "{}\n5 0 0 0 0 ins\n",
            schedule_header("two-tier", 8, 2, 1, "lru", FaultPolicy::SkipAndCount)
        );
        occ_probe::write_atomic_with_trailer(&gap, &body).unwrap();
        let err = exec(&["concurrent", "--replay", gap.to_str().unwrap()]).unwrap_err();
        assert_eq!(err.exit_code(), 4, "seq gap is a parse error");
        assert!(err.to_string().contains("contiguous"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn choice_lists_are_the_names_the_code_resolves() {
        for name in DEGRADE {
            assert!(FaultPolicy::parse(name).is_some(), "--degrade {name}");
        }
        let flavors = [CsvFlavor::Msr, CsvFlavor::Twitter].map(CsvFlavor::name);
        assert_eq!(FLAVORS, [&["auto"][..], &flavors].concat());
    }

    #[test]
    fn usage_lists_the_registry() {
        let usage = crate::args::usage(None);
        let section = usage.split("POLICIES:").nth(1).expect("a POLICIES section");
        let words: Vec<&str> = section
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .collect();
        for e in policies::POLICIES {
            for name in std::iter::once(&e.name).chain(e.aliases) {
                assert!(words.contains(name), "USAGE's POLICIES omits {name}");
            }
        }
        // `occ concurrent` names exactly the shared entries, in its usage
        // line and in its rejection message.
        let shared: Vec<&str> = policies::POLICIES
            .iter()
            .filter(|e| e.shared)
            .map(|e| e.name)
            .collect();
        assert!(usage.contains(&format!("[--policy {}]", shared.join("|"))));
        let err = concurrent(&args(&[
            "concurrent",
            "--scenario",
            "two-tier",
            "--policy",
            "lfu",
        ]))
        .unwrap_err();
        let listed = format!("(available: {})", shared.join(", "));
        assert!(err.to_string().ends_with(&listed), "got: {err}");
    }

    #[test]
    fn observe_writes_valid_report_and_report_renders_it() {
        let dir = std::env::temp_dir().join("occ-cli-observe-test");
        std::fs::create_dir_all(&dir).unwrap();
        let report_path = dir.join("report.json");
        let events_path = dir.join("events.jsonl");
        dispatch(&args(&[
            "observe",
            "--scenario",
            "two-tier",
            "--len",
            "800",
            "--k",
            "8",
            "--every",
            "200",
            "--out",
            report_path.to_str().unwrap(),
            "--events",
            events_path.to_str().unwrap(),
        ]))
        .unwrap();

        let text = std::fs::read_to_string(&report_path).unwrap();
        let parsed = Json::parse(&text).unwrap();
        ObserveReport::validate(&parsed).unwrap();
        let r = ObserveReport::from_json_value(&parsed).unwrap();
        assert_eq!(r.requests, 800);
        assert!(r.dual.is_some(), "convex policy must emit a dual trace");
        // The dual trajectory's final primal cost equals the report's
        // stats-derived total cost exactly (the acceptance criterion).
        let samples = r
            .dual
            .as_ref()
            .unwrap()
            .get("samples")
            .and_then(Json::as_array)
            .unwrap();
        let last_cost = samples
            .last()
            .unwrap()
            .get("primal_cost")
            .and_then(Json::as_f64)
            .unwrap();
        assert_eq!(Some(last_cost), r.total_cost);

        // Every event line parses; the count matches the request count
        // (no flush in observe runs).
        let events = std::fs::read_to_string(&events_path).unwrap();
        assert_eq!(events.lines().count() as u64, r.requests);
        for line in events.lines().take(50) {
            Json::parse(line).unwrap();
        }

        report(&args(&["report", "--in", report_path.to_str().unwrap()])).unwrap();
        report(&args(&[
            "report",
            "--in",
            report_path.to_str().unwrap(),
            "--format",
            "json",
        ]))
        .unwrap();
        std::fs::remove_file(report_path).ok();
        std::fs::remove_file(events_path).ok();
    }

    #[test]
    fn observe_works_for_baseline_policies() {
        dispatch(&args(&[
            "observe",
            "--scenario",
            "two-tier",
            "--policy",
            "lru",
            "--len",
            "300",
            "--k",
            "8",
        ]))
        .unwrap();
    }

    #[test]
    fn report_rejects_garbage() {
        let dir = std::env::temp_dir().join("occ-cli-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(
            &path,
            format!("{{\"schema\": {}}}", occ_probe::REPORT_SCHEMA),
        )
        .unwrap();
        let err = report(&args(&["report", "--in", path.to_str().unwrap()])).unwrap_err();
        assert!(err.to_string().contains("required key"), "got: {err}");
        assert_eq!(err.exit_code(), 4, "unreadable report is a parse error");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn generate_then_run_round_trip() {
        let dir = std::env::temp_dir().join("occ-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.occ");
        let path_s = path.to_str().unwrap();
        generate(&args(&[
            "generate",
            "--scenario",
            "two-tier",
            "--len",
            "300",
            "--out",
            path_s,
        ]))
        .unwrap();
        run(&args(&[
            "run",
            "--scenario",
            "two-tier",
            "--trace",
            path_s,
            "--policy",
            "lru",
            "--k",
            "8",
        ]))
        .unwrap();
        // A trace whose user count mismatches the scenario is rejected.
        let err = run(&args(&[
            "run",
            "--scenario",
            "sqlvm-like",
            "--trace",
            path_s,
            "--k",
            "8",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("users"));
        std::fs::remove_file(path).ok();
    }

    /// Parse an observe/resume report file back into a struct.
    fn read_report(path: &std::path::Path) -> ObserveReport {
        let text = std::fs::read_to_string(path).unwrap();
        ObserveReport::from_json(&text).unwrap()
    }

    #[test]
    fn resume_from_checkpoint_matches_uninterrupted_run() {
        for policy in ["convex", "lru"] {
            let dir = std::env::temp_dir().join(format!("occ-cli-resume-{policy}"));
            std::fs::create_dir_all(&dir).unwrap();
            let full = dir.join("full.json");
            let half = dir.join("half.json");
            let resumed = dir.join("resumed.json");
            let ckpt = dir.join("ckpt.json");

            // The uninterrupted reference run.
            dispatch(&args(&[
                "observe",
                "--scenario",
                "two-tier",
                "--policy",
                policy,
                "--len",
                "900",
                "--k",
                "8",
                "--out",
                full.to_str().unwrap(),
            ]))
            .unwrap();
            // The "interrupted" run: truncate the stream at 400 requests
            // and leave a checkpoint behind.
            dispatch(&args(&[
                "observe",
                "--scenario",
                "two-tier",
                "--policy",
                policy,
                "--len",
                "900",
                "--k",
                "8",
                "--chaos-truncate",
                "400",
                "--checkpoint",
                ckpt.to_str().unwrap(),
                "--checkpoint-every",
                "150",
                "--out",
                half.to_str().unwrap(),
            ]))
            .unwrap();
            assert_eq!(read_report(&half).requests, 400);
            // Continue over the full trace from the checkpoint.
            dispatch(&args(&[
                "resume",
                "--from",
                ckpt.to_str().unwrap(),
                "--scenario",
                "two-tier",
                "--policy",
                policy,
                "--len",
                "900",
                "--out",
                resumed.to_str().unwrap(),
            ]))
            .unwrap();

            let (a, b) = (read_report(&full), read_report(&resumed));
            assert_eq!(a.requests, b.requests, "{policy}");
            assert_eq!(a.hits, b.hits, "{policy}");
            assert_eq!(a.misses, b.misses, "{policy}");
            assert_eq!(a.evictions, b.evictions, "{policy}");
            assert_eq!(a.total_cost, b.total_cost, "{policy}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn resume_rejects_mismatched_invocations() {
        let dir = std::env::temp_dir().join("occ-cli-resume-reject");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("ckpt.json");
        dispatch(&args(&[
            "observe",
            "--scenario",
            "two-tier",
            "--len",
            "300",
            "--k",
            "8",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ]))
        .unwrap();
        let c = ckpt.to_str().unwrap();

        // Wrong capacity.
        let err = dispatch(&args(&[
            "resume",
            "--from",
            c,
            "--scenario",
            "two-tier",
            "--len",
            "300",
            "--k",
            "9",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "got: {err}");
        // Different trace (seed) → different universe length is fine here
        // (same scenario), but a different scenario's universe is not.
        let err = dispatch(&args(&[
            "resume",
            "--from",
            c,
            "--scenario",
            "sqlvm-like",
            "--len",
            "300",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "got: {err}");
        // A policy without a matching snapshot name.
        let err = dispatch(&args(&[
            "resume",
            "--from",
            c,
            "--scenario",
            "two-tier",
            "--len",
            "300",
            "--policy",
            "lru",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "got: {err}");
        // A checkpoint file without a cadence would never be written.
        let never = dir.join("never.json");
        let no_cadence = [
            "--scenario",
            "two-tier",
            "--len",
            "300",
            "--checkpoint",
            never.to_str().unwrap(),
            "--checkpoint-every",
            "0",
        ];
        let err = dispatch(&args(&[&["observe"], &no_cadence[..]].concat())).unwrap_err();
        assert_eq!(err.exit_code(), 2, "got: {err}");
        let err =
            dispatch(&args(&[&["resume", "--from", c], &no_cadence[..]].concat())).unwrap_err();
        assert_eq!(err.exit_code(), 2, "got: {err}");
        assert!(!dir.join("never.json").exists());
        // A tampered snapshot version is a parse error. Re-seal the
        // tampered body with a fresh trailer so the version check — not
        // the checksum — is what fires.
        let text = std::fs::read_to_string(&ckpt).unwrap();
        let body = occ_probe::require_trailer(&text).unwrap();
        assert!(body.contains("\"version\":1"), "checkpoint format changed");
        let bad = dir.join("bad.json");
        std::fs::write(
            &bad,
            occ_probe::with_trailer(&body.replacen("\"version\":1", "\"version\":99", 1)),
        )
        .unwrap();
        let err = dispatch(&args(&[
            "resume",
            "--from",
            bad.to_str().unwrap(),
            "--scenario",
            "two-tier",
            "--len",
            "300",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 4, "got: {err}");
        assert!(err.to_string().contains("version 99"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_or_truncated_checkpoints_are_rejected_with_exit_4() {
        let dir = std::env::temp_dir().join("occ-cli-ckpt-crc");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("ckpt.json");
        dispatch(&args(&[
            "observe",
            "--scenario",
            "two-tier",
            "--len",
            "300",
            "--k",
            "8",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&ckpt).unwrap();
        // The written checkpoint verifies and leaves no temp file.
        occ_probe::require_trailer(&text).unwrap();
        assert!(!occ_probe::atomicio::tmp_path(&ckpt).exists());

        let resume_from = |path: &std::path::Path| {
            dispatch(&args(&[
                "resume",
                "--from",
                path.to_str().unwrap(),
                "--scenario",
                "two-tier",
                "--len",
                "300",
            ]))
            .unwrap_err()
        };
        // A single flipped byte in the body fails the checksum.
        let mut flipped = text.clone().into_bytes();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        let bad = dir.join("flipped.json");
        std::fs::write(&bad, &flipped).unwrap();
        let err = resume_from(&bad);
        assert_eq!(err.exit_code(), 4, "got: {err}");
        assert!(
            err.to_string().contains("checksum mismatch")
                || err.to_string().contains("malformed checksum trailer"),
            "got: {err}"
        );
        // Truncation (losing the trailer) is rejected too — a partial
        // resume must never look like success.
        let cut = dir.join("truncated.json");
        std::fs::write(&cut, &text.as_bytes()[..text.len() / 2]).unwrap();
        let err = resume_from(&cut);
        assert_eq!(err.exit_code(), 4, "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn vmrss_parsing_tolerates_missing_fields() {
        assert_eq!(
            parse_vmrss_kb("Name:\tocc\nVmRSS:\t  12345 kB\nVmSwap:\t0 kB\n"),
            Some(12345)
        );
        // No VmRSS line at all (the panic the heartbeat used to risk).
        assert_eq!(parse_vmrss_kb("Name:\tocc\nState:\tR (running)\n"), None);
        assert_eq!(parse_vmrss_kb(""), None);
        // Malformed value or a line with no field after the key.
        assert_eq!(parse_vmrss_kb("VmRSS:\tlots kB\n"), None);
        assert_eq!(parse_vmrss_kb("VmRSS:\n"), None);
    }

    #[test]
    fn generated_traces_land_atomically_in_both_formats() {
        let dir = std::env::temp_dir().join("occ-cli-generate-atomic");
        std::fs::create_dir_all(&dir).unwrap();
        for format in ["text", "binary"] {
            let path = dir.join(format!("t-{format}.occ"));
            generate(&args(&[
                "generate",
                "--scenario",
                "two-tier",
                "--len",
                "200",
                "--format",
                format,
                "--out",
                path.to_str().unwrap(),
            ]))
            .unwrap();
            assert!(
                !occ_probe::atomicio::tmp_path(&path).exists(),
                "{format}: temp file must not linger"
            );
            let trace = read_trace_auto(BufReader::new(File::open(&path).unwrap())).unwrap();
            assert_eq!(trace.len(), 200, "{format}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn soak_series_is_sealed_with_a_trailer_and_no_temp_file() {
        let dir = std::env::temp_dir().join("occ-cli-soak-trailer");
        std::fs::create_dir_all(&dir).unwrap();
        let series = dir.join("s.jsonl");
        soak(&args(&[
            "soak",
            "--scenario",
            "two-tier",
            "--len",
            "4000",
            "--window",
            "1000",
            "--k",
            "8",
            "--policy",
            "lru",
            "--heartbeat",
            "off",
            "--series",
            series.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&series).unwrap();
        occ_probe::require_trailer(&text).unwrap();
        assert!(!occ_probe::atomicio::tmp_path(&series).exists());
        // The trailer-aware parser reads it back: header + 4 windows.
        let file = SeriesFile::parse(&text).unwrap();
        assert_eq!(file.windows.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Shared harness for the supervised-fleet CLI tests: run `occ
    /// fleet` with the given extra flags, writing the report to
    /// `<dir>/<name>.json`, and return it parsed on success. Failures
    /// (including degraded exits, which still write the report) come
    /// back as the error; callers re-read the file if they need it.
    fn fleet_json(dir: &std::path::Path, name: &str, extra: &[&str]) -> Result<Json, CliError> {
        let out = dir.join(format!("{name}.json"));
        let mut v = vec![
            "fleet",
            "--scenario",
            "two-tier",
            "--shards",
            "3",
            "--len",
            "6000",
            "--seed",
            "5",
            "--policy",
            "lru",
            "--window",
            "1000",
            "--format",
            "json",
            "--out",
        ];
        let out_s = out.to_str().unwrap().to_string();
        v.push(&out_s);
        v.extend_from_slice(extra);
        fleet(&args(&v))?;
        Ok(Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap())
    }

    #[test]
    fn supervised_fleet_with_chaos_matches_the_clean_run_byte_for_byte() {
        let dir = std::env::temp_dir().join("occ-cli-fleet-chaos");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let clean_series = dir.join("clean.jsonl");
        let chaos_series = dir.join("chaos.jsonl");
        let ckpts = dir.join("ckpts");

        let clean = fleet_json(
            &dir,
            "clean",
            &[
                "--supervise",
                "on",
                "--series-out",
                clean_series.to_str().unwrap(),
            ],
        )
        .unwrap();
        let chaos = fleet_json(
            &dir,
            "chaos",
            &[
                "--series-out",
                chaos_series.to_str().unwrap(),
                "--checkpoint-dir",
                ckpts.to_str().unwrap(),
                "--chaos-shard-kill",
                "0@1,1@3000,2@6000",
                "--chaos-store-fail",
                "1@1",
                "--max-restarts",
                "5",
            ],
        )
        .unwrap();

        // Same merged series bytes, trailer included.
        let a = std::fs::read(&clean_series).unwrap();
        let b = std::fs::read(&chaos_series).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "recovered series diverged from the clean one");

        // Both reports carry a supervisor section; neither is degraded;
        // the chaos run absorbed every scheduled failure.
        for (name, r) in [("clean", &clean), ("chaos", &chaos)] {
            assert!(r.get("supervisor").is_some(), "{name}");
            assert!(r.get("degraded").is_none(), "{name}");
        }
        let restarts = chaos
            .get("supervisor")
            .and_then(|s| s.get("total_restarts"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(restarts >= 4, "3 kills + 1 store fault, got {restarts}");

        // Per-shard deterministic fields agree between the runs
        // (elapsed_ms / requests_per_sec are wall-clock and excluded).
        let shards_of = |r: &Json| r.get("shards").and_then(Json::as_array).unwrap().to_vec();
        for (a, b) in shards_of(&clean).iter().zip(&shards_of(&chaos)) {
            for key in [
                "shard",
                "requests",
                "hits",
                "misses",
                "evictions",
                "misses_by_user",
            ] {
                assert_eq!(
                    a.get(key).unwrap().to_json(),
                    b.get(key).unwrap().to_json(),
                    "field {key}"
                );
            }
        }

        // The per-shard checkpoints are sealed and resumable: a fleet
        // resumed from the final checkpoints serves nothing more and
        // stays clean.
        fleet_json(&dir, "resumed", &["--from-dir", ckpts.to_str().unwrap()]).unwrap();

        // Corrupting one checkpoint byte makes --from-dir exit 4.
        let ckpt0 = occ_fleet::DirPersist::ckpt_path(&ckpts, 0);
        let mut bytes = std::fs::read(&ckpt0).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&ckpt0, &bytes).unwrap();
        let err = fleet_json(&dir, "corrupt", &["--from-dir", ckpts.to_str().unwrap()])
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.exit_code(), 4, "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exhausted_fleet_restarts_exit_degraded_with_the_report_written() {
        let dir = std::env::temp_dir().join("occ-cli-fleet-degraded");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let err = fleet_json(
            &dir,
            "degraded",
            &["--chaos-shard-kill", "1@100,1@200", "--max-restarts", "1"],
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err.exit_code(), 7, "got: {err}");
        assert_eq!(err.class(), "degraded");
        // The report was written before the exit code surfaced, with
        // the degraded section naming the quarantined shard.
        let text = std::fs::read_to_string(dir.join("degraded.json")).unwrap();
        let r = Json::parse(&text).unwrap();
        let q = r
            .get("degraded")
            .and_then(|d| d.get("quarantined"))
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].get("shard").and_then(Json::as_u64), Some(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fleet_supervision_flags_are_validated() {
        let base = |extra: &[&str]| {
            let mut v = vec![
                "fleet",
                "--scenario",
                "two-tier",
                "--shards",
                "2",
                "--len",
                "100",
            ];
            v.extend_from_slice(extra);
            args(&v)
        };
        // Supervision without a window cannot checkpoint.
        let err = fleet(&base(&["--supervise", "on"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "got: {err}");
        // --supervise off fights the chaos flags.
        let err = fleet(&base(&[
            "--supervise",
            "off",
            "--chaos-shard-kill",
            "0@1",
            "--window",
            "50",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "got: {err}");
        // Malformed and out-of-range plans.
        for bad in [
            ["--chaos-shard-kill", "0"],
            ["--chaos-shard-kill", "0@x"],
            ["--chaos-shard-kill", "7@1"],
            ["--chaos-store-fail", "0@0"],
        ] {
            let mut v = vec!["--window", "50"];
            v.extend_from_slice(&bad);
            let err = fleet(&base(&v)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?}: {err}");
        }
    }

    #[test]
    fn chaos_observe_degrades_or_fails_per_policy() {
        let dir = std::env::temp_dir().join("occ-cli-chaos");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("report.json");
        let chaos: &[&str] = &[
            "--scenario",
            "two-tier",
            "--len",
            "600",
            "--k",
            "8",
            "--chaos-page-rate",
            "0.05",
            "--chaos-owner-rate",
            "0.05",
            "--chaos-seed",
            "42",
        ];
        let with = |extra: &[&str]| {
            let mut v = vec!["observe"];
            v.extend_from_slice(chaos);
            v.extend_from_slice(extra);
            exec(&v)
        };

        // Default (fail-fast) surfaces the first fault with exit code 5.
        let err = with(&[]).unwrap_err();
        assert_eq!(err.exit_code(), 5, "got: {err}");

        // skip and quarantine absorb everything and report nonzero
        // fault counters.
        for degrade in ["skip", "quarantine"] {
            with(&["--degrade", degrade, "--out", out.to_str().unwrap()]).unwrap();
            let r = read_report(&out);
            let total = r
                .metrics
                .get("faults")
                .and_then(|f| f.get("total"))
                .and_then(Json::as_u64)
                .unwrap();
            assert!(total > 0, "{degrade}: expected absorbed faults");
            report(&args(&["report", "--in", out.to_str().unwrap()])).unwrap();
        }
        // An unknown degradation policy is a usage error.
        let err = with(&["--degrade", "explode"]).unwrap_err();
        assert_eq!(err.exit_code(), 2, "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_resume_continues_a_degraded_run() {
        let dir = std::env::temp_dir().join("occ-cli-chaos-resume");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("ckpt.json");
        let full = dir.join("full.json");
        let resumed = dir.join("resumed.json");
        let base: &[&str] = &[
            "--scenario",
            "two-tier",
            "--len",
            "700",
            "--k",
            "8",
            "--chaos-page-rate",
            "0.04",
            "--chaos-owner-rate",
            "0.04",
            "--chaos-seed",
            "7",
            "--degrade",
            "quarantine",
        ];
        let run = |cmd: &str, extra: &[&str]| {
            let mut v = vec![cmd];
            v.extend_from_slice(base);
            v.extend_from_slice(extra);
            args(&v)
        };

        // Reference: the whole corrupted stream in one go.
        dispatch(&run("observe", &["--out", full.to_str().unwrap()])).unwrap();
        // Interrupted at 300 (chaos truncation), then resumed. The plan is
        // regenerated from the same seed, so the continuation sees the
        // same corrupted records.
        dispatch(&run(
            "observe",
            &[
                "--chaos-truncate",
                "300",
                "--checkpoint",
                ckpt.to_str().unwrap(),
            ],
        ))
        .unwrap();
        // A degraded snapshot without --degrade is refused.
        let err = dispatch(&args(&[
            "resume",
            "--from",
            ckpt.to_str().unwrap(),
            "--scenario",
            "two-tier",
            "--len",
            "700",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "got: {err}");
        dispatch(&run(
            "resume",
            &[
                "--from",
                ckpt.to_str().unwrap(),
                "--out",
                resumed.to_str().unwrap(),
            ],
        ))
        .unwrap();

        let (a, b) = (read_report(&full), read_report(&resumed));
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.hits, b.hits);
        assert_eq!(a.misses, b.misses);
        assert_eq!(a.evictions, b.evictions);
        assert_eq!(a.total_cost, b.total_cost);
        std::fs::remove_dir_all(&dir).ok();
    }
}
