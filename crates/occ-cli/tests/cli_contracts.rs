//! Black-box contracts of the real `occ` binary. Usage errors (exit 2,
//! never a panic): a zero cache size in every command that takes one, a
//! resume past the end of the stream, a soak checkpoint cadence with no
//! checkpoint file, and more than 1024 concurrent worker threads. And
//! `occ observe --out` replaces its report atomically.

use std::path::PathBuf;
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
