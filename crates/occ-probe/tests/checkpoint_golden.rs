//! Golden byte-identity fixtures for the checkpoint file format.
//!
//! `fixtures/*.ckpt.json` are complete checkpoint files (JSON body,
//! newline, `#crc32:` trailer) as written before the encoder streamed
//! straight to disk. The encoder must keep reproducing them byte for
//! byte, so checkpoints written by older builds still resume and newer
//! ones stay readable by older builds. The two snapshots cover every
//! value shape the format has: scalar and vector `u64`/`f64` fields
//! including `-0.0`, NaN and `u64::MAX`, text and a policy name that
//! need escaping, fault counters and quarantined users (a), and a
//! multi-tenant universe with a full cache (b).

use occ_baselines::{Lru, RandomizedMarking};
use occ_probe::atomicio::require_trailer;
use occ_probe::{snapshot_from_json, snapshot_to_json, write_checkpoint_file};
use occ_sim::prelude::*;
use occ_sim::{EngineSnapshot, FaultCounters, StateValue};
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

/// (a) A RandomizedMarking engine mid-run, with every awkward value the
/// format has to carry losslessly added to its state.
fn marking_snapshot() -> EngineSnapshot {
    let u = Universe::uniform(3, 4);
    let mut eng = SteppingEngine::new(5, u.clone(), RandomizedMarking::new(0xDEAD_BEEF));
    for i in 0..97u32 {
        eng.step(u.request(PageId((i * 7 + 1) % 12)));
    }
    let mut snap = eng.snapshot().unwrap();
    snap.policy
        .set_f64("neg_zero", -0.0)
        .set_f64("nan", f64::NAN)
        .set_u64("max", u64::MAX)
        .set_f64s(
            "f64s",
            vec![-0.0, 1.5, f64::INFINITY, f64::NAN, f64::MIN_POSITIVE, 1e300],
        )
        .set_text(
            "note",
            "quote\" back\\slash\nnew\ttab\r\u{1}ctl \u{1f} héllo",
        );
    snap.policy_name = "rand-marking \"v2\"\\\u{7}".into();
    snap.faults = FaultCounters {
        page_out_of_range: 3,
        owner_mismatch: 5,
        quarantined_drops: 7,
        quarantined_users: 2,
    };
    snap.quarantined = vec![UserId(0), UserId(2)];
    snap
}

/// (b) LRU over a multi-tenant universe of unequal tenants, cache full.
fn lru_snapshot() -> EngineSnapshot {
    let u = Universe::with_sizes(&[4, 9, 2, 6]);
    let mut eng = SteppingEngine::new(8, u.clone(), Lru::new());
    for i in 0..150u32 {
        eng.step(u.request(PageId((i * i + i / 3) % 21)));
    }
    assert_eq!(
        eng.cache().pages().len(),
        8,
        "the fixture wants a full cache"
    );
    eng.snapshot().unwrap()
}

fn cases() -> [(&'static str, EngineSnapshot); 2] {
    [
        ("marking_extreme.ckpt.json", marking_snapshot()),
        ("lru_multitenant.ckpt.json", lru_snapshot()),
    ]
}

#[test]
fn encoder_and_file_writer_reproduce_the_golden_files() {
    let dir = std::env::temp_dir().join(format!("occ-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, snap) in cases() {
        let golden = std::fs::read_to_string(fixture_path(name)).unwrap();
        let body = require_trailer(&golden).unwrap();
        assert_eq!(snapshot_to_json(&snap) + "\n", body, "{name}");
        let path = dir.join(name);
        write_checkpoint_file(&path, &snap).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), golden, "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn golden_files_round_trip_through_the_decoder() {
    for (name, snap) in cases() {
        let file = std::fs::read_to_string(fixture_path(name)).unwrap();
        let body = require_trailer(&file).unwrap();
        let back = snapshot_from_json(body).unwrap();
        // NaN != NaN under PartialEq, so compare the re-encoded bytes.
        assert_eq!(snapshot_to_json(&back) + "\n", body, "{name}");
        assert_eq!(back.owners, snap.owners, "{name}");
        assert_eq!(back.cache_pages, snap.cache_pages, "{name}");
        assert_eq!(back.policy_name, snap.policy_name, "{name}");
        assert_eq!(back.faults, snap.faults, "{name}");
        assert_eq!(back.quarantined, snap.quarantined, "{name}");
    }
    let back = snapshot_from_json(
        require_trailer(
            &std::fs::read_to_string(fixture_path("marking_extreme.ckpt.json")).unwrap(),
        )
        .unwrap(),
    )
    .unwrap();
    let bits = |key: &str| match back.policy.get(key) {
        Some(StateValue::F64(x)) => x.to_bits(),
        other => panic!("{key}: {other:?}"),
    };
    assert_eq!(bits("nan"), f64::NAN.to_bits());
    assert_eq!(bits("neg_zero"), (-0.0f64).to_bits());
    assert_eq!(back.policy.u64("max").unwrap(), u64::MAX);
    assert_eq!(
        back.policy.text("note").unwrap(),
        "quote\" back\\slash\nnew\ttab\r\u{1}ctl \u{1f} héllo"
    );
}
