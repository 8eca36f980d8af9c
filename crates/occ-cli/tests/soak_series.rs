//! Black-box contract for `occ soak` and the window-series pipeline
//! through the real binary: the series tiles the run and survives a
//! kill/resume byte-identically, sticky sink I/O errors exit 3, an
//! unknown series schema exits 4, and `occ report --series` renders the
//! file it just wrote.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn occ(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_occ"))
        .args(args)
        .output()
        .expect("run occ")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("occ-soak-e2e");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// Run `occ soak` on the two-tier scenario with the given extra flags,
/// asserting success and returning stdout.
fn soak(len: &str, series: &Path, extra: &[&str]) -> String {
    let mut args = vec![
        "soak",
        "--scenario",
        "two-tier",
        "--len",
        len,
        "--window",
        "5k",
        "--k",
        "24",
        "--seed",
        "9",
        "--heartbeat",
        "off",
        "--series",
        series.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    let out = occ(&args);
    assert!(
        out.status.success(),
        "soak failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// The window lines (everything after the header) of a series file.
/// Finished files end with a `#crc32:` trailer; that seal is not part
/// of the window payload, so comment lines are dropped here.
fn window_lines(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("read series");
    text.lines()
        .skip(1)
        .filter(|l| !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

#[test]
fn soak_emits_schema_stamped_windows_that_tile_the_run() {
    let series = tmp("tile.jsonl");
    let stdout = soak("23k", &series, &[]);
    assert!(stdout.contains("windows"), "summary mentions windows");

    let text = std::fs::read_to_string(&series).unwrap();
    let mut lines = text.lines();
    let header = lines.next().expect("header line");
    assert!(header.contains("\"schema\":1"), "stamped: {header}");
    assert!(header.contains("\"kind\":\"occ-series\""));
    assert!(header.contains("\"window\":5000"));
    // 23k requests / 5k per window = 4 full windows + 1 partial, then
    // the checksum trailer sealing the finished file.
    assert!(
        text.lines().last().unwrap().starts_with("#crc32:"),
        "finished series ends with a crc trailer"
    );
    let windows: Vec<&str> = lines.filter(|l| !l.starts_with('#')).collect();
    assert_eq!(windows.len(), 5, "⌈23000/5000⌉ windows");
    assert!(windows.iter().all(|l| l.contains("\"kind\":\"window\"")));
    assert!(windows[4].contains("\"start\":20000"));
    assert!(windows[4].contains("\"end\":23000"));

    // The convex policy attaches a dual point to every window.
    assert!(windows.iter().all(|l| l.contains("\"dual\"")));

    // `occ report --series` renders the file it just wrote.
    let out = occ(&["report", "--series", series.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "report --series failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rendered = String::from_utf8(out.stdout).unwrap();
    assert!(rendered.contains("5 windows of 5000 requests"));
    assert!(rendered.contains("20000..23000"));
}

#[test]
fn killed_soak_resumes_the_series_byte_identically() {
    let full = tmp("full.jsonl");
    let half = tmp("half.jsonl");
    let resumed = tmp("resumed.jsonl");
    let ck = tmp("ck.json");

    soak("20k", &full, &[]);
    // The "killed" run: same seed, stopped at 10k with a checkpoint.
    // The streamed prefix is identical for a given seed, so stopping
    // early stands in for a mid-run kill.
    soak(
        "10k",
        &half,
        &[
            "--checkpoint",
            ck.to_str().unwrap(),
            "--checkpoint-every",
            "5k",
        ],
    );
    soak("20k", &resumed, &["--from", ck.to_str().unwrap()]);

    let mut spliced = window_lines(&half);
    spliced.extend(window_lines(&resumed));
    assert_eq!(
        spliced,
        window_lines(&full),
        "interrupted + resumed series must equal the uninterrupted one byte-for-byte"
    );
}

#[test]
fn mid_window_checkpoint_cadence_is_rounded_to_a_boundary() {
    let series = tmp("rounded.jsonl");
    let ck = tmp("rounded-ck.json");
    let out = occ(&[
        "soak",
        "--scenario",
        "two-tier",
        "--len",
        "15k",
        "--window",
        "5k",
        "--k",
        "24",
        "--heartbeat",
        "off",
        "--series",
        series.to_str().unwrap(),
        "--checkpoint",
        ck.to_str().unwrap(),
        "--checkpoint-every",
        "7k",
    ]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("rounding --checkpoint-every 7000 up to 10000"),
        "cadence rounding is announced: {stderr}"
    );
}

#[cfg(target_os = "linux")]
#[test]
fn sticky_series_sink_errors_exit_with_io_code() {
    // /dev/full accepts opens and fails every write with ENOSPC; the
    // sink parks the first error and soak must surface it at the end as
    // the i/o class instead of silently dropping the series.
    let out = occ(&[
        "soak",
        "--scenario",
        "two-tier",
        "--len",
        "6k",
        "--window",
        "2k",
        "--k",
        "24",
        "--heartbeat",
        "off",
        "--series",
        "/dev/full",
    ]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("/dev/full"), "names the path: {stderr}");
}

#[test]
fn unknown_series_schema_exits_with_parse_code() {
    let path = tmp("future.jsonl");
    std::fs::write(
        &path,
        "{\"schema\":99,\"kind\":\"occ-series\",\"window\":5}\n",
    )
    .unwrap();
    let out = occ(&["report", "--series", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(4));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("schema 99 unsupported"),
        "names the stamp: {stderr}"
    );
}

#[test]
fn soak_streams_binary_traces_but_rejects_text() {
    let bin = tmp("soak-trace.bin");
    let out = occ(&[
        "generate",
        "--scenario",
        "two-tier",
        "--len",
        "8000",
        "--seed",
        "5",
        "--format",
        "binary",
        "--out",
        bin.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    let series = tmp("soak-trace.jsonl");
    let out = occ(&[
        "soak",
        "--scenario",
        "two-tier",
        "--trace",
        bin.to_str().unwrap(),
        "--window",
        "2k",
        "--k",
        "24",
        "--heartbeat",
        "off",
        "--series",
        series.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "binary-trace soak failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(window_lines(&series).len(), 4, "8000 / 2000 windows");

    // A text trace is not streamable; soak refuses with the parse class.
    let text = tmp("soak-trace.txt");
    let out = occ(&[
        "generate",
        "--scenario",
        "two-tier",
        "--len",
        "1000",
        "--out",
        text.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = occ(&[
        "soak",
        "--scenario",
        "two-tier",
        "--trace",
        text.to_str().unwrap(),
        "--k",
        "24",
        "--heartbeat",
        "off",
    ]);
    assert_eq!(out.status.code(), Some(4));
}

#[test]
fn alg_discrete_is_an_alias_of_convex() {
    // `alg-discrete` is the paper's (and the bench's) name for the
    // policy the CLI calls `convex`: same tables, series and checkpoint.
    // Both runs write the same paths (the table names the series file).
    let series = tmp("alias.jsonl");
    let ck = tmp("alias.ckpt.json");
    let run = |name: &str| {
        let stdout = soak(
            "12k",
            &series,
            &["--policy", name, "--checkpoint", ck.to_str().unwrap()],
        );
        // The req/s row is wall-clock; every other line must agree.
        let table: Vec<String> = stdout
            .lines()
            .filter(|l| !l.contains("req/s"))
            .map(str::to_string)
            .collect();
        (
            table,
            std::fs::read(&series).unwrap(),
            std::fs::read(&ck).unwrap(),
        )
    };
    let (convex, alias) = (run("convex"), run("alg-discrete"));
    assert_eq!(convex.0, alias.0, "stdout tables");
    assert!(convex.1 == alias.1, "series bytes differ");
    assert!(convex.2 == alias.2, "checkpoint bytes differ");
}

#[test]
fn checkpoint_into_a_missing_directory_exits_with_io_code() {
    let dir = tmp("no-such-dir");
    let _ = std::fs::remove_dir_all(&dir);
    let ck = dir.join("ckpt.json");
    let out = occ(&[
        "soak",
        "--scenario",
        "two-tier",
        "--len",
        "10k",
        "--window",
        "5k",
        "--k",
        "24",
        "--heartbeat",
        "off",
        "--checkpoint",
        ck.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("write checkpoint"),
        "names the failed write"
    );
    assert!(!dir.exists(), "a failed checkpoint creates nothing");
}

#[cfg(target_os = "linux")]
#[test]
fn checkpoint_write_failing_midway_keeps_the_previous_checkpoint() {
    let full = tmp("midway-full.jsonl");
    let half = tmp("midway-half.jsonl");
    let resumed = tmp("midway-resumed.jsonl");
    let ck = tmp("midway.ckpt.json");
    soak("20k", &full, &[]);
    soak("10k", &half, &["--checkpoint", ck.to_str().unwrap()]);
    let previous = std::fs::read(&ck).unwrap();
    assert!(
        previous.len() > 2048,
        "the checkpoint outgrows the limit below"
    );

    // A file-size limit of 1 KiB (two 512-byte blocks) makes the next
    // checkpoint write fail partway with EFBIG (SIGXFSZ is ignored, so
    // the write returns the error instead of killing the process).
    let out = Command::new("sh")
        .args([
            "-c",
            "trap '' XFSZ; ulimit -f 2; exec \"$0\" \"$@\"",
            env!("CARGO_BIN_EXE_occ"),
            "soak",
            "--scenario",
            "two-tier",
            "--len",
            "20k",
            "--window",
            "5k",
            "--k",
            "24",
            "--seed",
            "9",
            "--heartbeat",
            "off",
            "--checkpoint",
            ck.to_str().unwrap(),
        ])
        .output()
        .expect("run occ under sh");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "stderr: {stderr}");
    assert!(stderr.contains("write checkpoint"), "stderr: {stderr}");
    let tmp_file = ck.with_file_name("midway.ckpt.json.tmp");
    assert!(!tmp_file.exists(), "the torn temp file is removed");
    assert_eq!(
        std::fs::read(&ck).unwrap(),
        previous,
        "the previous checkpoint is untouched"
    );

    // ... and still resumes into the uninterrupted series.
    soak("20k", &resumed, &["--from", ck.to_str().unwrap()]);
    let mut spliced = window_lines(&half);
    spliced.extend(window_lines(&resumed));
    assert_eq!(spliced, window_lines(&full));
}

#[test]
fn timed_windows_add_latency_and_change_nothing_else() {
    use occ_probe::Json;
    let windows = |timing: &str| -> Vec<Json> {
        let series = tmp(&format!("timing-{timing}.jsonl"));
        soak("12k", &series, &["--timing", timing]);
        window_lines(&series)
            .iter()
            .map(|l| Json::parse(l).expect("window line parses"))
            .collect()
    };
    let (timed, untimed) = (windows("on"), windows("off"));
    assert_eq!(timed.len(), 3, "⌈12000/5000⌉ windows");
    assert_eq!(timed.len(), untimed.len());
    for (i, (on, off)) in timed.into_iter().zip(untimed).enumerate() {
        let Json::Obj(mut fields) = on else {
            panic!("window {i} is not an object")
        };
        let at = fields
            .iter()
            .position(|(k, _)| k == "latency_ns")
            .unwrap_or_else(|| panic!("window {i} carries no latency histogram"));
        let (_, hist) = fields.remove(at);
        let requests = off.get("end").and_then(Json::as_u64).unwrap()
            - off.get("start").and_then(Json::as_u64).unwrap();
        assert_eq!(
            hist.get("count").and_then(Json::as_u64),
            Some(requests),
            "window {i}: one latency sample per request"
        );
        assert!(off.get("latency_ns").is_none(), "untimed windows stay bare");
        assert_eq!(
            Json::Obj(fields),
            off,
            "window {i}: every other field agrees"
        );
    }
}
