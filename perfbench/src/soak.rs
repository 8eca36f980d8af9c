//! `occ soak` from the outside in: the seeded trace, the expected
//! per-tenant vectors, and a traced replica of the soak pipeline.
//!
//! The replica makes the public calls `occ soak` makes, in the same
//! order, with a span around each batch or window: open the source,
//! allocate the engine, create the series sink, then serve in batches
//! clamped to window boundaries, rolling and draining the windowed
//! recorder and writing checkpoints at boundaries, and finally seal the
//! series file. The CLI pulls mixer requests one at a time between
//! steps; the replica does too, and splits each such batch between the
//! mixer and the stepper by timing a sample of the calls (see
//! [`serve_batch`]). Its outputs must equal the CLI's: the run compares
//! the series bytes and the per-tenant vectors.

use crate::ledger::{ledger, total_ns, Tracer};
use crate::Metrics;
use occ_baselines::Lru;
use occ_core::ConvexCaching;
use occ_probe::atomicio::{tmp_path, trailer_line};
use occ_probe::{
    snapshot_to_json, write_atomic_with_trailer, CrcWriter, DualPoint, Json, SeriesSink,
    WindowDelta, WindowedRecorder,
};
use occ_sim::{
    Binary2TraceWriter, BinarySource, NoopRecorder, Recorder, ReplacementPolicy, Request,
    RequestSource, SimStats, SteppingEngine, DEFAULT_BATCH_SIZE,
};
use occ_workloads::{sqlvm_like, AccessPattern, TenantMixSource, TenantSpec};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The trace tenants of `soak-trace`: the `sqlvm-like` shapes and
/// arrival weights over 917 504 pages, so the engine's per-page tables
/// (several MiB) outgrow a 4 MiB L2.
pub fn trace_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new(1 << 18, 4.0, AccessPattern::Zipf { s: 0.9 }),
        TenantSpec::new(1 << 18, 2.0, AccessPattern::Zipf { s: 0.7 }),
        TenantSpec::new(1 << 18, 1.5, AccessPattern::Scan),
        TenantSpec::new(1 << 17, 1.0, AccessPattern::Uniform),
    ]
}

/// The policy as `occ soak --policy NAME` builds it: `convex` is the
/// concrete ALG-DISCRETE type, everything else a boxed trait object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    Convex,
    Lru,
}

impl PolicyKind {
    pub fn parse(name: &str) -> Result<PolicyKind, String> {
        match name {
            "convex" => Ok(PolicyKind::Convex),
            "lru" => Ok(PolicyKind::Lru),
            other => Err(format!("unsupported policy '{other}' (convex, lru)")),
        }
    }

    pub fn cli_name(self) -> &'static str {
        match self {
            PolicyKind::Convex => "convex",
            PolicyKind::Lru => "lru",
        }
    }
}

/// One soak configuration, as the CLI receives it.
#[derive(Clone, Debug)]
pub struct SoakCfg {
    pub policy: PolicyKind,
    pub k: usize,
    pub window: u64,
    /// Checkpoint cadence in requests; 0 = no checkpoints.
    pub checkpoint_every: u64,
    /// `Some(path)`: stream this trace file. `None`: the scenario mixer.
    pub trace: Option<PathBuf>,
    /// Mixer length and seed (the mixer source only).
    pub len: u64,
    pub seed: u64,
    /// The seed the CLI writes into the series header (its `--seed`,
    /// or its default when the run streams a trace).
    pub header_seed: u64,
    pub series: PathBuf,
    pub checkpoint: PathBuf,
}

/// Per-tenant `[hits, misses, evictions]`.
pub fn vectors(stats: &SimStats) -> Vec<[u64; 3]> {
    stats
        .per_user()
        .iter()
        .map(|u| [u.hits, u.misses, u.evictions])
        .collect()
}

fn boxed_lru() -> Box<dyn ReplacementPolicy> {
    Box::new(Lru::new())
}

/// Write the `soak-trace` input for `seed` to `out` and return the
/// per-tenant vectors an in-process engine computes over the same
/// generated requests (before they are encoded).
pub fn prepare_trace(seed: u64, len: u64, k: usize, out: &Path) -> Result<Vec<[u64; 3]>, String> {
    let mut src = TenantMixSource::new(&trace_tenants(), len, seed);
    let universe = src.universe().clone();
    let file = File::create(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let mut writer = Binary2TraceWriter::new(universe.clone(), len, BufWriter::new(file))
        .map_err(|e| e.to_string())?;
    let mut eng = SteppingEngine::new(k, universe, boxed_lru());
    let mut buf: Vec<Request> = Vec::with_capacity(DEFAULT_BATCH_SIZE);
    loop {
        buf.clear();
        while buf.len() < DEFAULT_BATCH_SIZE {
            let ctx = eng.ctx();
            match src.next_request(&ctx) {
                Some(r) => buf.push(r),
                None => break,
            }
        }
        if buf.is_empty() {
            break;
        }
        for &r in &buf {
            writer.push(r).map_err(|e| e.to_string())?;
        }
        eng.step_batch(&buf);
    }
    let mut sink = writer.finish().map_err(|e| e.to_string())?;
    sink.flush().map_err(|e| e.to_string())?;
    Ok(vectors(eng.stats()))
}

/// The per-tenant vectors of an in-process run over the `sqlvm-like`
/// mixer stream for `(len, seed)`.
pub fn expected_mix(policy: PolicyKind, k: usize, len: u64, seed: u64) -> Vec<[u64; 3]> {
    let scenario = sqlvm_like();
    let mut src = scenario.stream(len, seed);
    let universe = src.universe().clone();
    match policy {
        PolicyKind::Convex => {
            let eng = SteppingEngine::new(k, universe, ConvexCaching::new(scenario.costs.clone()));
            drain_batched(eng, &mut src)
        }
        PolicyKind::Lru => drain_batched(SteppingEngine::new(k, universe, boxed_lru()), &mut src),
    }
}

fn drain_batched<P: ReplacementPolicy>(
    mut eng: SteppingEngine<P>,
    src: &mut TenantMixSource,
) -> Vec<[u64; 3]> {
    let mut buf: Vec<Request> = Vec::with_capacity(DEFAULT_BATCH_SIZE);
    loop {
        buf.clear();
        while buf.len() < DEFAULT_BATCH_SIZE {
            let ctx = eng.ctx();
            match src.next_request(&ctx) {
                Some(r) => buf.push(r),
                None => break,
            }
        }
        if buf.is_empty() {
            return vectors(eng.stats());
        }
        eng.step_batch(&buf);
    }
}

/// A soak source: the scenario mixer or a trace file.
enum Source {
    Mix(TenantMixSource),
    File(Box<BinarySource>),
}

impl Source {
    fn universe(&self) -> &occ_sim::Universe {
        match self {
            Source::Mix(m) => m.universe(),
            Source::File(f) => RequestSource::universe(f.as_ref()),
        }
    }
}

fn open_source(cfg: &SoakCfg, tr: &mut Tracer) -> Result<Source, String> {
    let scenario = sqlvm_like();
    match &cfg.trace {
        None => Ok(Source::Mix(tr.time("workloads.streaming.open", || {
            scenario.stream(cfg.len, cfg.seed)
        }))),
        Some(path) => {
            let src = tr
                .time("sim.binio.open", || BinarySource::open(path))
                .map_err(|e| format!("open {}: {e}", path.display()))?;
            let users = RequestSource::universe(&src).num_users();
            if users != scenario.costs.num_users() {
                return Err(format!("trace has {users} users, the scenario 4"));
            }
            Ok(Source::File(Box::new(src)))
        }
    }
}

/// What a replica pass produced, beyond its spans.
pub struct SoakRun {
    pub stats: SimStats,
    pub requests: u64,
    pub windows: u64,
    /// Source calls that returned requests (trace feeds: runs).
    pub pulls: u64,
    pub series_bytes: u64,
    pub checkpoint_bytes: Vec<u64>,
}

/// Every `MIX_SAMPLE`-th mixer request of the pipeline has its pull and
/// its step timed on their own; the rest run untimed.
const MIX_SAMPLE: usize = 32;

/// Serve the next batch (at most `max` requests) from `src`, as
/// `occ soak` does for each source kind, under per-batch spans. Returns
/// how many requests were served.
///
/// Trace feeds hand out runs: the pull and the step get a span each.
/// The CLI pulls mixer requests one at a time between steps, so with
/// `batched_mix` off the whole interleaved batch is one stepper span
/// and the mixer's part of it is a child span whose length comes from
/// timing a sample of the calls. With `batched_mix` on the batch is
/// pulled first and stepped with `step_batch` (the `NoopRecorder` pass).
fn serve_batch<P: ReplacementPolicy, R: Recorder>(
    eng: &mut SteppingEngine<P, R>,
    src: &mut Source,
    buf: &mut Vec<Request>,
    max: usize,
    tr: &mut Tracer,
    batched_mix: bool,
) -> u64 {
    match src {
        Source::Mix(m) if batched_mix => {
            tr.enter("workloads.streaming.pull");
            buf.clear();
            while buf.len() < max {
                let ctx = eng.ctx();
                match m.next_request(&ctx) {
                    Some(r) => buf.push(r),
                    None => break,
                }
            }
            tr.exit();
            if !buf.is_empty() {
                tr.time("sim.stepper.step", || eng.step_batch(buf));
            }
            buf.len() as u64
        }
        Source::Mix(m) => {
            let span = tr.enter("sim.stepper.step");
            let (mut pull_ns, mut step_ns) = (0u64, 0u64);
            let mut n = 0;
            while n < max {
                let sampled = n % MIX_SAMPLE == 0;
                let t0 = sampled.then(Instant::now);
                let next = {
                    let ctx = eng.ctx();
                    m.next_request(&ctx)
                };
                let t1 = sampled.then(Instant::now);
                let Some(r) = next else { break };
                eng.step(r);
                if let (Some(t0), Some(t1)) = (t0, t1) {
                    pull_ns += (t1 - t0).as_nanos() as u64;
                    step_ns += t1.elapsed().as_nanos() as u64;
                }
                n += 1;
            }
            let batch_ns = tr.exit();
            let share = pull_ns as f64 / (pull_ns + step_ns).max(1) as f64;
            tr.add_child(
                span,
                "workloads.streaming.pull",
                (batch_ns as f64 * share) as u64,
            );
            n as u64
        }
        Source::File(f) => {
            tr.enter("sim.binio.pull");
            if let Some(run) = f.next_page_run(max).filter(|r| !r.is_empty()) {
                tr.exit();
                tr.enter("sim.stepper.step");
                eng.step_page_batch(run);
                tr.exit();
                return run.len() as u64;
            }
            if let Some(run) = f.next_run(max).filter(|r| !r.is_empty()) {
                tr.exit();
                tr.enter("sim.stepper.step");
                eng.step_batch(run);
                tr.exit();
                return run.len() as u64;
            }
            let next = {
                let ctx = eng.ctx();
                f.next_request(&ctx)
            };
            tr.exit();
            match next {
                Some(r) => {
                    tr.time("sim.stepper.step", || eng.step(r));
                    1
                }
                None => 0,
            }
        }
    }
}

/// The traced `occ soak` pipeline (run id set by the caller).
pub fn pipeline<P: ReplacementPolicy>(
    cfg: &SoakCfg,
    policy: P,
    probe: &mut dyn FnMut(&P) -> Option<DualPoint>,
    tr: &mut Tracer,
) -> Result<SoakRun, String> {
    let mut src = open_source(cfg, tr)?;
    let universe = src.universe().clone();
    let target = match &src {
        Source::Mix(_) => cfg.len,
        Source::File(f) => f.total_requests(),
    };
    let eng = tr.time("sim.stepper.alloc", || {
        SteppingEngine::new(cfg.k, universe, policy)
    });
    let mut eng = eng.with_recorder(
        WindowedRecorder::<false>::starting_at(cfg.window, 0).with_ring_capacity(64),
    );
    let base = eng.stats().clone();

    let series_tmp = tmp_path(&cfg.series);
    tr.enter("probe.timeseries.open");
    let file = File::create(&series_tmp).map_err(|e| format!("create series: {e}"))?;
    let mut sink = SeriesSink::new(CrcWriter::new(BufWriter::new(file)));
    let meta = [
        ("scenario", Json::Str("sqlvm-like".into())),
        ("policy", Json::Str(cfg.policy.cli_name().into())),
        ("k", Json::from_u64(cfg.k as u64)),
        ("seed", Json::from_u64(cfg.header_seed)),
        ("len", Json::from_u64(target)),
        ("start", Json::from_u64(0)),
    ];
    sink.write_header(cfg.window, &meta);
    tr.exit();

    let checkpoints = cfg.checkpoint_every > 0;
    let mut checkpoint_bytes = Vec::new();
    let mut write_checkpoint =
        |eng: &SteppingEngine<P, WindowedRecorder<false>>, tr: &mut Tracer| -> Result<(), String> {
            let snap = tr
                .time("probe.checkpoint.snapshot", || eng.snapshot())
                .map_err(|e| e.to_string())?;
            let body = tr.time("probe.checkpoint.encode", || snapshot_to_json(&snap) + "\n");
            tr.time("probe.checkpoint.write", || {
                write_atomic_with_trailer(&cfg.checkpoint, &body)
            })
            .map_err(|e| format!("write checkpoint: {e}"))?;
            checkpoint_bytes.push(body.len() as u64);
            Ok(())
        };

    let mut buf: Vec<Request> = Vec::with_capacity(DEFAULT_BATCH_SIZE);
    let mut total = WindowDelta::default();
    let (mut windows, mut served, mut pulls) = (0u64, 0u64, 0u64);
    loop {
        let to_boundary = cfg.window - (eng.time() % cfg.window);
        let max = to_boundary.min(DEFAULT_BATCH_SIZE as u64) as usize;
        let n = serve_batch(&mut eng, &mut src, &mut buf, max, tr, false);
        if n == 0 {
            break;
        }
        served += n;
        pulls += 1;
        let t = eng.time();
        if !t.is_multiple_of(cfg.window) {
            continue;
        }
        tr.enter("probe.timeseries.roll");
        if let Some(point) = probe(eng.policy()) {
            eng.recorder_mut().note_dual(point);
        }
        eng.recorder_mut().roll_to(t);
        let drained = eng.recorder_mut().drain_new();
        tr.exit();
        tr.enter("probe.timeseries.sink");
        for w in &drained {
            total.merge_from(w);
            windows += 1;
            sink.write_window(w);
        }
        tr.exit();
        if checkpoints && t.is_multiple_of(cfg.checkpoint_every) {
            write_checkpoint(&eng, tr)?;
        }
    }
    let end_t = eng.time();
    tr.enter("probe.timeseries.roll");
    if !end_t.is_multiple_of(cfg.window) {
        if let Some(point) = probe(eng.policy()) {
            eng.recorder_mut().note_dual(point);
        }
    }
    eng.recorder_mut().finalize(end_t);
    let drained = eng.recorder_mut().drain_new();
    tr.exit();
    tr.enter("probe.timeseries.sink");
    for w in &drained {
        total.merge_from(w);
        windows += 1;
        sink.write_window(w);
    }
    tr.exit();
    if checkpoints {
        write_checkpoint(&eng, tr)?;
    }
    if let Source::File(f) = &src {
        if let Some(e) = f.error() {
            return Err(format!("reading trace: {e}"));
        }
    }

    tr.enter("probe.timeseries.finish");
    let ioerr = |e: std::io::Error| format!("writing series: {e}");
    let mut w = sink.finish().map_err(ioerr)?;
    let crc = w.crc();
    w.inner_mut()
        .write_all(trailer_line(crc).as_bytes())
        .and_then(|()| w.flush())
        .map_err(ioerr)?;
    let (bufw, _) = w.into_parts();
    let file = bufw
        .into_inner()
        .map_err(|e| format!("writing series: {e}"))?;
    file.sync_all().map_err(ioerr)?;
    drop(file);
    std::fs::rename(&series_tmp, &cfg.series).map_err(ioerr)?;
    tr.exit();

    let stats = eng.stats().clone();
    if total.hits != stats.total_hits() - base.total_hits()
        || total.misses() != stats.total_misses() - base.total_misses()
        || total.evictions != stats.total_evictions() - base.total_evictions()
    {
        return Err("window sums differ from the engine totals".into());
    }
    let series_bytes = std::fs::metadata(&cfg.series).map_err(ioerr)?.len();
    Ok(SoakRun {
        stats,
        requests: served,
        windows,
        pulls,
        series_bytes,
        checkpoint_bytes,
    })
}

/// The same input through the engine with `NoopRecorder` and the
/// batched step calls, no windows, no sink: the stepper's own cost.
pub fn noop_pass<P: ReplacementPolicy>(
    cfg: &SoakCfg,
    policy: P,
    tr: &mut Tracer,
) -> Result<SimStats, String> {
    let mut src = open_source(cfg, tr)?;
    let universe = src.universe().clone();
    let mut eng = tr.time("sim.stepper.alloc", || {
        SteppingEngine::new(cfg.k, universe, policy).with_recorder(NoopRecorder)
    });
    let mut buf: Vec<Request> = Vec::with_capacity(DEFAULT_BATCH_SIZE);
    while serve_batch(&mut eng, &mut src, &mut buf, DEFAULT_BATCH_SIZE, tr, true) > 0 {}
    Ok(eng.stats().clone())
}

fn convex() -> ConvexCaching {
    ConvexCaching::new(sqlvm_like().costs.clone())
}

fn convex_probe(p: &ConvexCaching) -> Option<DualPoint> {
    Some(DualPoint {
        dual_offset: p.cumulative_dual_offset(),
        total_evictions: p.eviction_counts().iter().sum(),
        primal_cost: p.primal_cost(),
    })
}

/// One traced repetition: the pipeline as run id `2 i`, the
/// `NoopRecorder` pass as run id `2 i + 1`. Returns the per-layer
/// metrics, the traced wall time and the pipeline's vectors.
pub fn traced_once(
    cfg: &SoakCfg,
    i: u32,
    tr: &mut Tracer,
) -> Result<(Metrics, f64, Vec<[u64; 3]>), String> {
    tr.set_run(2 * i);
    let root = tr.enter("cli.run");
    let run = match cfg.policy {
        PolicyKind::Convex => pipeline(cfg, convex(), &mut convex_probe, tr),
        PolicyKind::Lru => {
            #[allow(clippy::borrowed_box)]
            let mut probe = |_: &Box<dyn ReplacementPolicy>| None;
            pipeline(cfg, boxed_lru(), &mut probe, tr)
        }
    };
    tr.exit();
    let run = run?;
    tr.set_run(2 * i + 1);
    let noop_root = tr.enter("cli.run");
    let noop = match cfg.policy {
        PolicyKind::Convex => noop_pass(cfg, convex(), tr),
        PolicyKind::Lru => noop_pass(cfg, boxed_lru(), tr),
    };
    tr.exit();
    if noop? != run.stats {
        return Err("the NoopRecorder pass disagrees with the pipeline".into());
    }
    let spans = tr.spans();
    let led = ledger(spans, root);
    let n = run.requests as f64;
    let ns = |name| total_ns(spans, root, name);
    let mut m = Metrics::new();
    let (pull_ns, _) = ns("workloads.streaming.pull");
    if let Some(trace) = &cfg.trace {
        let bytes = std::fs::metadata(trace).map_err(|e| e.to_string())?.len();
        m.insert("sim.binio.open_ms", ns("sim.binio.open").0 as f64 / 1e6);
        m.insert("sim.binio.ns_per_req", ns("sim.binio.pull").0 as f64 / n);
        m.insert("sim.binio.share", led.share("sim.binio"));
        m.insert("sim.binio.reqs_per_call", n / run.pulls as f64);
        m.insert("sim.binio.bytes_per_req", bytes as f64 / n);
    } else {
        m.insert("workloads.streaming.ns_per_req", pull_ns as f64 / n);
        m.insert(
            "workloads.streaming.share",
            led.share("workloads.streaming"),
        );
    }
    // Interleaved mixer pulls sit inside the pipeline's step spans.
    let step_ns = ns("sim.stepper.step").0 - pull_ns;
    let (noop_step_ns, _) = total_ns(spans, noop_root, "sim.stepper.step");
    m.insert(
        "sim.stepper.alloc_ms",
        ns("sim.stepper.alloc").0 as f64 / 1e6,
    );
    m.insert("sim.stepper.ns_per_req", noop_step_ns as f64 / n);
    m.insert("sim.stepper.share", led.share("sim.stepper"));
    m.insert("sim.stepper.hit_ratio", run.stats.total_hits() as f64 / n);
    let w = run.windows as f64;
    m.insert(
        "probe.timeseries.record_ns_per_req",
        (step_ns as f64 - noop_step_ns as f64) / n,
    );
    m.insert(
        "probe.timeseries.roll_us_per_window",
        ns("probe.timeseries.roll").0 as f64 / 1e3 / w,
    );
    m.insert(
        "probe.timeseries.sink_us_per_window",
        ns("probe.timeseries.sink").0 as f64 / 1e3 / w,
    );
    m.insert(
        "probe.timeseries.bytes_per_window",
        run.series_bytes as f64 / w,
    );
    m.insert(
        "probe.timeseries.finish_ms",
        ns("probe.timeseries.finish").0 as f64 / 1e6,
    );
    if cfg.checkpoint_every > 0 {
        let c = run.checkpoint_bytes.len() as f64;
        m.insert(
            "probe.checkpoint.snapshot_ms",
            ns("probe.checkpoint.snapshot").0 as f64 / 1e6 / c,
        );
        m.insert(
            "probe.checkpoint.encode_ms",
            ns("probe.checkpoint.encode").0 as f64 / 1e6 / c,
        );
        m.insert(
            "probe.checkpoint.write_ms",
            ns("probe.checkpoint.write").0 as f64 / 1e6 / c,
        );
        m.insert("probe.checkpoint.share", led.share("probe.checkpoint"));
        m.insert(
            "probe.checkpoint.bytes",
            run.checkpoint_bytes.iter().sum::<u64>() as f64 / c,
        );
    }
    m.insert("cli.unattributed_share", led.unattributed_share());
    Ok((m, led.wall_ns / 1e9, vectors(&run.stats)))
}
