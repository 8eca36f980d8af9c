//! Black-box contracts of the real `occ` binary: a zero cache size is a
//! usage error in every command that takes one, and `occ observe --out`
//! replaces its report atomically.

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
