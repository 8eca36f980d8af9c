//! Black-box contracts of the real `occ` binary. Usage errors (exit 2,
//! never a panic): a zero cache size in every command that takes one, a
//! resume past the end of the stream, a soak checkpoint cadence with no
//! checkpoint file, more than 1024 concurrent worker threads, a
//! misspelled or foreign flag in every command (naming the nearest
//! flag), and a bad value that must stop a command before it writes
//! anything. `--help` prints the usage and exits 0. And `occ observe
//! --out` replaces its report atomically.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn occ(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_occ"))
        .args(args)
        .output()
        .expect("run occ")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("occ-cli-contracts");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

#[test]
fn zero_cache_size_is_a_usage_error_everywhere() {
    let scenario = ["--scenario", "two-tier", "--len", "2k"];
    for cmd in [
        &["run", "--k", "0"][..],
        &["observe", "--k", "0"],
        &["soak", "--k", "0", "--heartbeat", "off"],
        &["fleet", "--k", "0"],
        &["compare", "--k", "0"],
        &["mrc", "--max-k", "0"],
    ] {
        let out = occ(&[cmd, &scenario[..]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{cmd:?}: {stderr}");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn observe_report_cut_short_keeps_the_previous_report() {
    let report = tmp("observe-report.json");
    let observe = [
        "observe",
        "--scenario",
        "two-tier",
        "--len",
        "3000",
        "--k",
        "24",
        "--every",
        "100",
        "--out",
        report.to_str().unwrap(),
    ];
    let out = occ(&observe);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let previous = std::fs::read(&report).unwrap();
    assert!(previous.len() > 2048, "the report outgrows the limit below");

    // A file-size limit of 1 KiB (two 512-byte blocks) makes the report
    // write fail partway with EFBIG (SIGXFSZ is ignored, so the write
    // returns the error instead of killing the process).
    let out = Command::new("sh")
        .args(["-c", "trap '' XFSZ; ulimit -f 2; exec \"$0\" \"$@\""])
        .arg(env!("CARGO_BIN_EXE_occ"))
        .args(observe)
        .args(["--seed", "8"])
        .output()
        .expect("run occ under sh");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "stderr: {stderr}");
    let tmp_file = report.with_file_name("observe-report.json.tmp");
    assert!(!tmp_file.exists(), "the torn temp file is removed");
    assert_eq!(
        std::fs::read(&report).unwrap(),
        previous,
        "the previous report is untouched"
    );
}

/// Run `occ` and insist on a usage error (exit 2) that is not a panic.
fn assert_usage_error(args: &[&str]) {
    let out = occ(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn soak_resuming_past_the_end_of_the_mixer_is_a_usage_error() {
    // A soak checkpoint at t=100000 cannot continue a 50k-request mixer.
    let ck = tmp("past-end.ckpt.json");
    let soak = [
        "soak",
        "--scenario",
        "two-tier",
        "--window",
        "50k",
        "--heartbeat",
        "off",
    ];
    let ck_arg = ck.to_str().unwrap();
    let out = occ(&[&soak[..], &["--len", "100k", "--checkpoint", ck_arg]].concat());
    assert!(out.status.success(), "{:?}", out);
    assert_usage_error(&[&soak[..], &["--len", "50k", "--from", ck_arg]].concat());
}

#[test]
fn fleet_resuming_past_the_end_of_the_mixer_is_a_usage_error() {
    // Per-shard checkpoints at t=100000 cannot continue 50k-request
    // shards.
    let dir = tmp("past-end-fleet");
    let _ = std::fs::remove_dir_all(&dir);
    let fleet = [
        "fleet",
        "--scenario",
        "two-tier",
        "--shards",
        "2",
        "--window",
        "50k",
        "--policy",
        "lru",
    ];
    let dir_arg = dir.to_str().unwrap();
    let out = occ(&[&fleet[..], &["--len", "100k", "--checkpoint-dir", dir_arg]].concat());
    assert!(out.status.success(), "{:?}", out);
    assert_usage_error(&[&fleet[..], &["--len", "50k", "--from-dir", dir_arg]].concat());
}

#[test]
fn soak_checkpoint_cadence_without_a_checkpoint_file_is_a_usage_error() {
    assert_usage_error(&[
        "soak",
        "--scenario",
        "two-tier",
        "--len",
        "2k",
        "--window",
        "1k",
        "--checkpoint-every",
        "1k",
        "--heartbeat",
        "off",
    ]);
}

#[test]
fn concurrent_thread_count_is_bounded() {
    // Rejected before any source is built or thread started.
    assert_usage_error(&[
        "concurrent",
        "--scenario",
        "two-tier",
        "--len",
        "1k",
        "--threads",
        "1025",
    ]);
}

/// The words of `line`, with each `@name` replaced by the path of
/// `name` in `dir`.
fn words(line: &str, dir: &Path) -> Vec<String> {
    line.split(' ')
        .map(|w| match w.strip_prefix('@') {
            Some(name) => dir.join(name).to_str().unwrap().to_string(),
            None => w.to_string(),
        })
        .collect()
}

/// Run `occ` on `line` (see [`words`]) and insist on a usage error that
/// names `hint` on stderr.
fn assert_usage_error_naming(line: &str, dir: &Path, hint: &str) {
    let args = words(line, dir);
    let out = Command::new(env!("CARGO_BIN_EXE_occ"))
        .args(&args)
        .output()
        .expect("run occ");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(
        stderr.contains(hint),
        "{args:?} should name {hint}: {stderr}"
    );
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = tmp(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The usage entry a command line selects: its words up to and
/// including its first flag (`concurrent --replay`), as `occ --help`
/// lists them.
fn entry_key(line: &str) -> String {
    let words: Vec<&str> = line.split(' ').collect();
    let first_flag = words.iter().position(|w| w.starts_with("--"));
    words[..first_flag.map_or(words.len(), |i| i + 1)].join(" ")
}

#[test]
fn a_misspelled_flag_names_the_nearest_one_in_every_command() {
    let dir = scratch("misspelled");
    // (command line, the flag the error must suggest)
    let cases = [
        (
            "generate --scenario two-tier --out @t.occ --formt binary",
            "--format",
        ),
        ("trace pack --in @t.occ --out @t2.occ --limt 10", "--limit"),
        (
            "trace unpack --in @t.occ --out @t2.occ --limt 10",
            "--limit",
        ),
        (
            "trace import --in @t.csv --out @t.occ --tenats 2",
            "--tenants",
        ),
        ("run --scenario two-tier --len 2k --polcy lru", "--policy"),
        ("compare --scenario two-tier --len 2k --seeed 3", "--seed"),
        ("mrc --scenario two-tier --len 2k --max_k 8", "--max-k"),
        (
            "observe --scenario two-tier --len 2k --checkpont @c.json",
            "--checkpoint",
        ),
        (
            "resume --from @c.json --scenario two-tier --evnts @e.jsonl",
            "--events",
        ),
        (
            "soak --scenario two-tier --len 2k --serie @s.jsonl",
            "--series",
        ),
        ("report --in @r.json --fromat json", "--format"),
        ("report --series @s.jsonl --fromat json", "--format"),
        ("fleet --scenario two-tier --len 2k --shard 2", "--shards"),
        (
            "concurrent --scenario two-tier --len 1k --shards 1",
            "--table-shards",
        ),
        ("concurrent --replay @s.txt --fromat json", "--format"),
        ("conformance --grid smoke --gird full", "--grid"),
    ];
    for (line, nearest) in cases {
        assert_usage_error_naming(line, &dir, &format!("did you mean {nearest}?"));
    }
    assert_usage_error_naming("scenarios --bogus 1", &dir, "takes no flags");
    // One case per usage entry: every command, trace action and mode.
    let help = String::from_utf8(occ(&["--help"]).stdout).unwrap();
    let mut listed: Vec<String> = help
        .lines()
        .filter_map(|l| l.strip_prefix("  occ "))
        .map(|l| entry_key(&l.replace('[', "")))
        .collect();
    let mut covered: Vec<String> = cases.iter().map(|(line, _)| entry_key(line)).collect();
    covered.push("scenarios".into());
    listed.sort();
    covered.sort();
    assert_eq!(listed, covered);
}

#[test]
fn a_bad_value_stops_the_command_before_it_writes_anything() {
    let dir = scratch("bad-value");
    for line in [
        "concurrent --scenario sqlvm-like --len 2k --threads 1 --format yaml --out @r.json \
         --schedule-out @s.txt",
        "fleet --scenario two-tier --shards 2 --len 2k --format yaml --out @f.json",
        "conformance --format yaml --out @v.json",
    ] {
        assert_usage_error_naming(line, &dir, "--format");
    }
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(written.is_empty(), "{written:?}");
}

#[test]
fn modes_and_trace_actions_take_only_their_own_flags() {
    let dir = scratch("modes");
    for setup in [
        "concurrent --scenario two-tier --len 500 --threads 1 --schedule-out @s.txt",
        "soak --scenario two-tier --len 2k --window 1k --heartbeat off --series @s.jsonl",
        "generate --scenario two-tier --len 500 --out @t.occ",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_occ"))
            .args(words(setup, &dir))
            .output()
            .expect("run occ");
        assert!(out.status.success(), "{setup}: {out:?}");
    }
    for (line, hint) in [
        (
            "concurrent --replay @s.txt --threads 99 --policy nope",
            "--threads",
        ),
        (
            "report --in @t.occ --series @s.jsonl",
            "--series has no flag --in",
        ),
        ("trace pack --in @t.occ --out @t2.occ --limt 10", "--limit"),
    ] {
        assert_usage_error_naming(line, &dir, hint);
    }
    assert!(!dir.join("t2.occ").exists());
}

#[test]
fn help_prints_the_usage_and_exits_0() {
    let full = occ(&["--help"]);
    assert_eq!(full.status.code(), Some(0));
    let text = String::from_utf8(full.stdout).unwrap();
    assert!(text.contains("USAGE:") && text.contains("occ soak --scenario NAME"));
    assert_eq!(occ(&["help"]).stdout, text.as_bytes());
    let soak = occ(&["soak", "--help"]);
    assert_eq!(soak.status.code(), Some(0));
    let section = String::from_utf8(soak.stdout).unwrap();
    assert!(
        section.starts_with("  occ soak --scenario NAME"),
        "{section}"
    );
    assert!(section.contains("[--window N]") && !section.contains("occ fleet"));
}
