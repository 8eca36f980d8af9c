//! A traced replica of `occ concurrent` (synthetic streams, no chaos).
//!
//! It makes the public calls `run_shared_fleet` makes: build the
//! `ConcurrentEngine` with one boxed policy per table segment, serve every
//! thread's stream through `serve_record` with a `MetricsRecorder` fed
//! exactly as the engine's own worker loop feeds it (per-call latency
//! included), merge the lanes with `CommitSchedule::from_threads`, and run
//! the replay gate (`replay_schedule`, `verify_replay`). Spans are per
//! batch of requests: a worker's batch is one `sim.concurrent.serve`
//! span, and the time it spent pulling from its mixer between the timed
//! calls is a child span. The per-call latency the recorder takes anyway
//! is also split into hit and miss histograms, so those cost no extra
//! clock reads.

use crate::ledger::{ledger, total_ns, Tracer};
use crate::Metrics;
use occ_baselines::Lru;
use occ_fleet::SharedReport;
use occ_probe::{LogHistogram, MetricsRecorder};
use occ_sim::{
    merge_stats, replay_schedule, shard_of, verify_replay, CacheSet, CommitOutcome, CommitRecord,
    CommitSchedule, ConcurrentEngine, EngineCtx, FaultCounters, FaultPolicy, Recorder,
    ReplacementPolicy, RequestSource, SharedOutcome, SimStats, ThreadLane, DEFAULT_BATCH_SIZE,
};
use occ_workloads::{sqlvm_like, TenantMixSource};
use std::time::Instant;

type SharedPolicy = Box<dyn ReplacementPolicy + Send>;

/// One `occ concurrent` configuration.
#[derive(Clone, Debug)]
pub struct ConcurrentCfg {
    pub threads: usize,
    pub table_shards: usize,
    pub k: usize,
    /// Requests per thread.
    pub len: u64,
    pub seed: u64,
}

/// The CLI's per-thread seed derivation.
fn thread_seed(seed: u64, t: usize) -> u64 {
    seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn policies(n: usize) -> Vec<SharedPolicy> {
    (0..n)
        .map(|_| Box::new(Lru::new()) as SharedPolicy)
        .collect()
}

struct WorkerOut {
    lane: ThreadLane,
    recorder: MetricsRecorder,
    hit_ns: LogHistogram,
    miss_ns: LogHistogram,
}

/// Serve `sources` one after the other as worker `thread`.
fn worker(
    engine: &ConcurrentEngine<SharedPolicy>,
    thread: u32,
    sources: &mut [TenantMixSource],
    tr: &mut Tracer,
) -> Result<WorkerOut, String> {
    let universe = engine.universe();
    let mut out = WorkerOut {
        lane: ThreadLane {
            stats: SimStats::new(universe.num_users()),
            counters: FaultCounters::default(),
            schedule: Vec::new(),
        },
        recorder: MetricsRecorder::new(),
        hit_ns: LogHistogram::new(),
        miss_ns: LogHistogram::new(),
    };
    // The same probe view the engine's worker loop hands to sources and
    // recorder hooks.
    let probe_cache = CacheSet::new(1, universe.num_pages());
    let probe_stats = SimStats::new(universe.num_users());
    let mut local_t = 0u64;
    for source in sources.iter_mut() {
        let mut done = false;
        while !done && !engine.stopped() {
            let span = tr.enter("sim.concurrent.serve");
            let mut serve_ns = 0u64;
            for _ in 0..DEFAULT_BATCH_SIZE {
                let ctx = EngineCtx {
                    time: local_t,
                    cache: &probe_cache,
                    stats: &probe_stats,
                    universe,
                };
                let Some(req) = source.next_request(&ctx) else {
                    done = true;
                    break;
                };
                local_t += 1;
                let started = Instant::now();
                let outcome = engine
                    .serve_record(thread, req, &mut out.lane)
                    .map_err(|e| e.to_string())?;
                let seq = out.lane.schedule.last().map_or(0, |r| r.seq);
                let ctx = EngineCtx {
                    time: seq,
                    cache: &probe_cache,
                    stats: &probe_stats,
                    universe,
                };
                let rec = &mut out.recorder;
                match outcome {
                    CommitOutcome::Hit => rec.record_hit(&ctx, seq, req.page, req.user),
                    CommitOutcome::Insert => rec.record_insert(&ctx, seq, req.page, req.user),
                    CommitOutcome::Evict { victim } => rec.record_eviction(
                        &ctx,
                        seq,
                        req.page,
                        req.user,
                        victim,
                        universe.owner(victim),
                    ),
                    CommitOutcome::Drop { .. } => {
                        return Err("a clean stream produced a dropped record".into())
                    }
                }
                let ns = started.elapsed().as_nanos() as u64;
                rec.record_latency_ns(seq, ns);
                serve_ns += ns;
                match outcome {
                    CommitOutcome::Hit => out.hit_ns.record(ns),
                    _ => out.miss_ns.record(ns),
                }
            }
            let batch_ns = tr.exit();
            tr.add_child(
                span,
                "workloads.streaming.pull",
                batch_ns.saturating_sub(serve_ns),
            );
        }
    }
    Ok(out)
}

/// Serve the streams on `streams.len()` threads (a thread serves its
/// streams in order) against a fresh engine. Returns the engine and
/// every worker's output, in thread order.
fn serve(
    cfg: &ConcurrentCfg,
    streams: Vec<Vec<TenantMixSource>>,
    tr: &mut Tracer,
) -> Result<(ConcurrentEngine<SharedPolicy>, Vec<WorkerOut>), String> {
    let universe = tr.time("workloads.streaming.open", || {
        sqlvm_like().stream(1, 0).universe().clone()
    });
    let engine = tr.time("sim.concurrent.alloc", || {
        ConcurrentEngine::new(
            cfg.k,
            universe,
            FaultPolicy::SkipAndCount,
            policies(cfg.table_shards),
        )
    });
    tr.enter("sim.concurrent.run");
    let results: Vec<(Result<WorkerOut, String>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(t, mut sources)| {
                let mut wt = tr.fork();
                let engine = &engine;
                scope.spawn(move || {
                    let out = worker(engine, t as u32, &mut sources, &mut wt);
                    (out, wt)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker panicked"))
            .collect()
    });
    let mut outs = Vec::with_capacity(results.len());
    for (out, wt) in results {
        tr.absorb(wt);
        outs.push(out?);
    }
    tr.exit();
    Ok((engine, outs))
}

fn streams_of(cfg: &ConcurrentCfg) -> Vec<TenantMixSource> {
    let scenario = sqlvm_like();
    (0..cfg.threads)
        .map(|t| scenario.stream(cfg.len, thread_seed(cfg.seed, t)))
        .collect()
}

/// One traced repetition: the `cfg.threads`-thread run with merge and
/// replay gate as run id `2 i`, the same streams served by one thread as
/// run id `2 i + 1`. Returns the per-layer metrics and the traced wall
/// time.
pub fn traced_once(cfg: &ConcurrentCfg, i: u32, tr: &mut Tracer) -> Result<(Metrics, f64), String> {
    tr.set_run(2 * i);
    let root = tr.enter("cli.run");
    let result = gated_run(cfg, tr);
    tr.exit();
    let g = result?;
    let commits = g.commits;

    tr.set_run(2 * i + 1);
    let single_root = tr.enter("cli.run");
    let single = serve(cfg, vec![streams_of(cfg)], tr);
    tr.exit();
    let (_, single_outs) = single?;
    let single_commits: usize = single_outs.iter().map(|o| o.lane.schedule.len()).sum();
    if single_commits != commits {
        return Err("the one-thread baseline served a different request count".into());
    }

    let spans = tr.spans();
    let led = ledger(spans, root);
    let ms = |name| total_ns(spans, root, name).0 as f64 / 1e6;
    let run_s = total_ns(spans, root, "sim.concurrent.run").0 as f64 / 1e9;
    let single_s = total_ns(spans, single_root, "sim.concurrent.run").0 as f64 / 1e9;
    let n = commits as f64;
    let mut m = Metrics::new();
    m.insert(
        "workloads.streaming.ns_per_req",
        total_ns(spans, root, "workloads.streaming.pull").0 as f64 / n,
    );
    m.insert(
        "workloads.streaming.share",
        led.share("workloads.streaming"),
    );
    m.insert("sim.concurrent.alloc_ms", ms("sim.concurrent.alloc"));
    m.insert("sim.concurrent.hit_ns_p50", g.hit_ns.p50() as f64);
    m.insert("sim.concurrent.hit_ns_p99", g.hit_ns.quantile(0.99) as f64);
    m.insert("sim.concurrent.miss_ns_p50", g.miss_ns.p50() as f64);
    m.insert(
        "sim.concurrent.miss_ns_p99",
        g.miss_ns.quantile(0.99) as f64,
    );
    m.insert("sim.concurrent.miss_share", g.misses as f64 / n);
    m.insert(
        "sim.concurrent.cross_shard_evict_share",
        g.cross_evictions as f64 / g.evictions.max(1) as f64,
    );
    m.insert(
        "sim.concurrent.log_bytes_per_commit",
        g.log_bytes as f64 / n,
    );
    m.insert("sim.concurrent.merge_ms", ms("sim.concurrent.merge"));
    m.insert("sim.concurrent.replay_ms", ms("sim.concurrent.replay"));
    m.insert("sim.concurrent.verify_ms", ms("sim.concurrent.verify"));
    m.insert("sim.concurrent.scaling_2v1", (n / run_s) / (n / single_s));
    m.insert("cli.unattributed_share", led.unattributed_share());
    Ok((m, led.wall_ns / 1e9))
}

/// What the gated multi-thread run yields for the metrics.
struct Gated {
    commits: usize,
    misses: u64,
    /// Bytes the per-thread commit logs had allocated.
    log_bytes: usize,
    hit_ns: LogHistogram,
    miss_ns: LogHistogram,
    /// Evictions, and those whose victim lived in another segment.
    evictions: u64,
    cross_evictions: u64,
}

/// The multi-thread run, the merge, the replay gate and the report, as
/// `occ concurrent` runs them.
fn gated_run(cfg: &ConcurrentCfg, tr: &mut Tracer) -> Result<Gated, String> {
    let streams: Vec<Vec<TenantMixSource>> = streams_of(cfg).into_iter().map(|s| vec![s]).collect();
    let started = Instant::now();
    let (engine, outs) = serve(cfg, streams, tr)?;
    let wall = started.elapsed();

    tr.enter("sim.concurrent.merge");
    let log_bytes: usize = outs
        .iter()
        .map(|o| o.lane.schedule.capacity() * std::mem::size_of::<CommitRecord>())
        .sum();
    let mut merged = MetricsRecorder::new();
    let mut hit_ns = LogHistogram::new();
    let mut miss_ns = LogHistogram::new();
    let mut stats = SimStats::new(engine.universe().num_users());
    let mut counters = FaultCounters::default();
    let mut per_thread = Vec::with_capacity(outs.len());
    let mut schedules = Vec::with_capacity(outs.len());
    for o in outs {
        merged.merge(&o.recorder);
        hit_ns.merge(&o.hit_ns);
        miss_ns.merge(&o.miss_ns);
        merge_stats(&mut stats, &o.lane.stats);
        counters.merge(&o.lane.counters);
        per_thread.push((o.lane.stats, o.lane.counters));
        schedules.push(o.lane.schedule);
    }
    let schedule = CommitSchedule::from_threads(schedules).map_err(|e| e.to_string())?;
    let outcome = SharedOutcome {
        stats,
        counters,
        quarantined: engine.quarantined_users(),
        schedule,
        per_thread,
    };
    tr.exit();

    let replayed = tr
        .time("sim.concurrent.replay", || {
            replay_schedule(
                cfg.k,
                engine.universe().clone(),
                policies(cfg.table_shards),
                FaultPolicy::SkipAndCount,
                &outcome.schedule,
            )
        })
        .map_err(|e| format!("replay gate: {e}"))?;
    tr.time("sim.concurrent.verify", || {
        verify_replay(&outcome, &replayed)
    })
    .map_err(|e| format!("replay gate: {e}"))?;

    let commits = outcome.schedule.len();
    if commits as u64 != cfg.len * cfg.threads as u64 {
        return Err(format!(
            "{commits} commits for {} requests",
            cfg.len * cfg.threads as u64
        ));
    }
    let (mut cross, mut evictions) = (0u64, 0u64);
    for e in outcome.schedule.entries() {
        if let CommitOutcome::Evict { victim } = e.outcome {
            evictions += 1;
            if shard_of(victim, cfg.table_shards) != e.shard as usize {
                cross += 1;
            }
        }
    }
    let misses = outcome.stats.total_misses();
    tr.time("cli.report", || {
        let report = SharedReport {
            threads: cfg.threads,
            table_shards: cfg.table_shards,
            capacity: cfg.k,
            degrade: FaultPolicy::SkipAndCount,
            outcome,
            merged,
            replay: Some(replayed),
            wall,
        };
        std::hint::black_box(report.to_json_value().to_json());
    });
    Ok(Gated {
        commits,
        misses,
        log_bytes,
        hit_ns,
        miss_ns,
        evictions,
        cross_evictions: cross,
    })
}
