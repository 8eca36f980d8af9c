//! `occ` — command-line front end for the online-convex-caching
//! workspace.
//!
//! ```text
//! occ generate --scenario two-tier --len 60k --seed 7 --out trace.occ
//! occ trace pack   --in trace.occ --out trace.occ2
//! occ trace unpack --in trace.occ2 --out trace.occ
//! occ trace import --in accesses.csv --out trace.occ2 --tenants 2
//! occ run      --trace trace.occ --scenario two-tier --policy convex --k 24
//! occ compare  --scenario sqlvm-like --len 60000 --k 96
//! occ mrc      --scenario two-tier --len 40000 --max-k 48
//! occ observe  --scenario two-tier --policy convex --k 24 --out report.json
//!              --checkpoint ckpt.json --checkpoint-every 10000
//! occ resume   --from ckpt.json --scenario two-tier
//! occ soak     --scenario sqlvm-like --len 100M --window 1M --series s.jsonl
//! occ report   --in report.json
//! occ report   --series s.jsonl
//! occ fleet    --scenario sqlvm-like --shards 8 --len 200000 --policy lru
//! occ concurrent --scenario sqlvm-like --threads 4 --table-shards 8 --len 50000
//! occ concurrent --replay schedule.txt --format json
//! occ conformance --grid smoke --out verdicts.json
//! occ scenarios
//! ```
//!
//! Scenarios name both a tenant mix and a cost profile (see
//! `occ_workloads::presets`); policies are the names used throughout the
//! experiment tables.
//!
//! Failures exit with a class-specific code (see [`errors`]): 2 usage,
//! 3 i/o, 4 unparseable file, 5 simulation fault, 6 conformance FAIL
//! (a checked theorem bound was violated), 7 degraded (a supervised
//! fleet quarantined a shard but still wrote its report), 1 anything
//! else.

mod args;
mod commands;
mod errors;

use args::Args;

fn main() {
    let result = Args::parse(std::env::args().skip(1)).and_then(|args| match args.command {
        Some(cmd) if !args.help => (cmd.run)(&args),
        only => {
            commands::emit(&args::usage(only));
            Ok(())
        }
    });
    if let Err(e) = result {
        eprintln!("error({}): {e}", e.class());
        std::process::exit(e.exit_code());
    }
}
