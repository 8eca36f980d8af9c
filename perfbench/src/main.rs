//! Benchmark helper for `perfbench/run.py`.
//!
//! ```text
//! perfbench prepare-trace --seed S --len N --k K --out FILE
//!     write the seeded occbin02 trace of `soak-trace`; print the
//!     per-tenant vectors an in-process engine computes over it
//! perfbench expect-mix --seed S --len N --k K --policy P
//!     print the per-tenant vectors of the sqlvm-like mixer stream
//! perfbench traced WORKLOAD --seconds T --spans FILE [workload flags]
//!     repeat the traced replica of the workload's `occ` pipeline for
//!     about T seconds (at least once); print the median of each
//!     per-layer metric and write every span to FILE
//! ```
//!
//! Results go to stdout as one JSON object; errors to stderr with exit
//! code 1.

mod concurrent;
mod ledger;
mod soak;

use ledger::Tracer;
use std::collections::BTreeMap;
use std::io::BufWriter;
use std::path::PathBuf;
use std::time::Instant;

/// Per-layer metrics of one traced repetition, by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// `--name value` flags.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let name = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{a}'"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Flags(map))
    }

    fn str(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self.str(name)?;
        v.parse()
            .map_err(|_| format!("--{name}: not a number: '{v}'"))
    }
}

fn vectors_json(v: &[[u64; 3]]) -> String {
    let rows: Vec<String> = v.iter().map(|[h, m, e]| format!("[{h},{m},{e}]")).collect();
    format!("[{}]", rows.join(","))
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn soak_cfg(workload: &str, f: &Flags) -> Result<soak::SoakCfg, String> {
    let trace = match workload {
        "soak-mix" => None,
        "soak-trace" => Some(PathBuf::from(f.str("trace")?)),
        other => return Err(format!("not a soak workload: {other}")),
    };
    Ok(soak::SoakCfg {
        policy: soak::PolicyKind::parse(f.str("policy")?)?,
        k: f.num("k")?,
        window: f.num("window")?,
        checkpoint_every: f.num("checkpoint-every")?,
        len: f.num("len")?,
        seed: f.num("seed")?,
        header_seed: f.num("header-seed")?,
        trace,
        series: PathBuf::from(f.str("series")?),
        checkpoint: PathBuf::from(f.str("checkpoint")?),
    })
}

fn traced(workload: &str, f: &Flags) -> Result<String, String> {
    let seconds: f64 = f.num("seconds")?;
    let spans_path = PathBuf::from(f.str("spans")?);
    let started = Instant::now();
    let mut tr = Tracer::new(started, 0);
    let mut reps: Vec<Metrics> = Vec::new();
    let mut walls = Vec::new();
    let mut vectors: Option<Vec<[u64; 3]>> = None;
    let mut requests = 0u64;
    while reps.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let i = reps.len() as u32;
        let (m, wall) = if workload == "concurrent-mix" {
            let cfg = concurrent::ConcurrentCfg {
                threads: f.num("threads")?,
                table_shards: f.num("table-shards")?,
                k: f.num("k")?,
                len: f.num("len")?,
                seed: f.num("seed")?,
            };
            requests = cfg.len * cfg.threads as u64;
            concurrent::traced_once(&cfg, i, &mut tr)?
        } else {
            let cfg = soak_cfg(workload, f)?;
            let (m, wall, v) = soak::traced_once(&cfg, i, &mut tr)?;
            requests = v.iter().map(|[h, m, _]| h + m).sum();
            if vectors.as_ref().is_some_and(|first| *first != v) {
                return Err("two traced repetitions disagree".into());
            }
            vectors = Some(v);
            (m, wall)
        };
        reps.push(m);
        walls.push(wall);
    }
    let file = std::fs::File::create(&spans_path)
        .map_err(|e| format!("create {}: {e}", spans_path.display()))?;
    tr.write_jsonl(BufWriter::new(file))
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;

    let names: Vec<&'static str> = reps[0].keys().copied().collect();
    let metrics: Vec<String> = names
        .iter()
        .map(|name| {
            let vals = reps.iter().map(|r| r[name]).collect();
            format!("\"{name}\":{}", median(vals))
        })
        .collect();
    let vectors = vectors.map_or("null".into(), |v| vectors_json(&v));
    Ok(format!(
        "{{\"repetitions\":{},\"requests\":{requests},\"wall_s\":{},\"vectors\":{vectors},\"metrics\":{{{}}}}}",
        reps.len(),
        median(walls),
        metrics.join(",")
    ))
}

fn run(args: &[String]) -> Result<String, String> {
    let cmd = args.first().ok_or("missing command")?;
    match cmd.as_str() {
        "prepare-trace" => {
            let f = Flags::parse(&args[1..])?;
            let out = PathBuf::from(f.str("out")?);
            let v = soak::prepare_trace(f.num("seed")?, f.num("len")?, f.num("k")?, &out)?;
            Ok(format!("{{\"vectors\":{}}}", vectors_json(&v)))
        }
        "expect-mix" => {
            let f = Flags::parse(&args[1..])?;
            let policy = soak::PolicyKind::parse(f.str("policy")?)?;
            let v = soak::expected_mix(policy, f.num("k")?, f.num("len")?, f.num("seed")?);
            Ok(format!("{{\"vectors\":{}}}", vectors_json(&v)))
        }
        "traced" => {
            let workload = args.get(1).ok_or("traced: missing workload")?;
            traced(workload, &Flags::parse(&args[2..])?)
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(out) => println!("{out}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
