//! On-disk JSON encoding of [`EngineSnapshot`].
//!
//! The in-memory checkpoint lives in `occ-sim`; this module gives it a
//! durable form for `occ observe --checkpoint` / `occ resume`. The
//! encoding must be *lossless* — a resumed run is asserted byte-identical
//! to an uninterrupted one — which rules out the naive number encoding:
//! [`Json`] stores numbers as `f64`, so `u64` sequence counters and RNG
//! words above 2^53 would round, and `f64` dual offsets would be at the
//! mercy of decimal printing. Instead every `u64` is written as a decimal
//! *string* and every `f64` as the decimal string of its IEEE-754 bit
//! pattern, so round-tripping preserves exact bits (including NaN
//! payloads, infinities and `-0.0`).
//!
//! The document leads with a `version` field, checked before anything
//! else on read: an unknown version is rejected as
//! [`SnapshotError::UnsupportedVersion`], never mis-parsed.
//!
//! The encoder streams: [`write_snapshot_json`] formats straight into a
//! 64 KiB stack buffer in front of any writer, and [`write_checkpoint_file`]
//! points it at an [`AtomicWriter`] (encoder → CRC → temp file →
//! rename), so a checkpoint of a million-page universe is never built
//! as a value tree or held in memory whole. The bytes are exactly the
//! compact [`Json`] rendering the format has always had — pinned by the
//! golden files under `tests/fixtures`.

use crate::atomicio::AtomicWriter;
use crate::json::{escape_str, Json};
use occ_sim::error::{FaultCounters, SnapshotError};
use occ_sim::ids::{PageId, UserId};
use occ_sim::snapshot::{EngineSnapshot, PolicyState, StateValue};
use occ_sim::stats::UserStats;
use std::io::{self, Write};
use std::path::Path;

/// Encode a snapshot as a compact JSON string.
pub fn snapshot_to_json(snap: &EngineSnapshot) -> String {
    let mut buf = Vec::new();
    write_snapshot_json(snap, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("the encoder writes ASCII and the snapshot's own strings")
}

/// Write `snap` to `path` as a complete checkpoint file — the JSON
/// document, a newline, and the `#crc32:` trailer — atomically.
pub fn write_checkpoint_file(path: &Path, snap: &EngineSnapshot) -> io::Result<()> {
    let mut w = AtomicWriter::create(path)?;
    write_snapshot_json(snap, &mut w)?;
    w.write_all(b"\n")?;
    w.commit()
}

/// Stream a snapshot's compact JSON document into `w`. Counters that
/// may exceed 2^53 are decimal strings, `f64`s are the decimal strings
/// of their bit patterns, and ids are plain integers.
pub fn write_snapshot_json<W: Write>(snap: &EngineSnapshot, w: &mut W) -> io::Result<()> {
    let mut o = Chunked::new(w);
    o.uint(b"{\"version\":", snap.version, false)?;
    o.uint(b",\"time\":", snap.time, true)?;
    o.uint(b",\"capacity\":", snap.capacity as u64, false)?;
    o.uint(b",\"num_users\":", u64::from(snap.num_users), false)?;
    let owners = snap.owners.iter().map(|u| u64::from(u.0));
    o.list(b",\"owners\":", owners, false)?;
    let cache_pages = snap.cache_pages.iter().map(|p| u64::from(p.0));
    o.list(b",\"cache_pages\":", cache_pages, false)?;
    o.raw(b",\"stats\":[")?;
    // Array elements after the first are led by a comma: `&sep[first..]`.
    for (i, s) in snap.stats.iter().enumerate() {
        o.uint(&b",{\"hits\":"[usize::from(i == 0)..], s.hits, true)?;
        o.uint(b",\"misses\":", s.misses, true)?;
        o.uint(b",\"evictions\":", s.evictions, true)?;
        o.raw(b"}")?;
    }
    o.str(b"],\"policy_name\":", &snap.policy_name)?;
    o.raw(b",\"policy\":[")?;
    for (i, (key, value)) in snap.policy.fields().iter().enumerate() {
        o.str(&b",{\"key\":"[usize::from(i == 0)..], key)?;
        match value {
            StateValue::U64(x) => o.uint(b",\"type\":\"u64\",\"value\":", *x, true),
            StateValue::F64(x) => o.uint(b",\"type\":\"f64\",\"value\":", x.to_bits(), true),
            StateValue::U64s(xs) => {
                o.list(b",\"type\":\"u64s\",\"value\":", xs.iter().copied(), true)
            }
            StateValue::F64s(xs) => {
                let bits = xs.iter().map(|x| x.to_bits());
                o.list(b",\"type\":\"f64s\",\"value\":", bits, true)
            }
            StateValue::Text(s) => o.str(b",\"type\":\"text\",\"value\":", s),
        }?;
        o.raw(b"}")?;
    }
    let f = &snap.faults;
    o.uint(
        b"],\"faults\":{\"page_out_of_range\":",
        f.page_out_of_range,
        true,
    )?;
    o.uint(b",\"owner_mismatch\":", f.owner_mismatch, true)?;
    o.uint(b",\"quarantined_drops\":", f.quarantined_drops, true)?;
    o.uint(b",\"quarantined_users\":", f.quarantined_users, true)?;
    let quarantined = snap.quarantined.iter().map(|u| u64::from(u.0));
    o.list(b"},\"quarantined\":", quarantined, false)?;
    o.raw(b"}")?;
    o.flush()
}

/// Bytes per write handed to the destination writer.
const CHUNK: usize = 64 << 10;

/// A fixed stack buffer in front of the destination: numbers are
/// formatted straight into it, and the destination sees a few large
/// writes instead of millions of tiny ones (which matters when it folds
/// every write into a CRC).
struct Chunked<'w, W: Write> {
    w: &'w mut W,
    buf: [u8; CHUNK],
    len: usize,
}

impl<'w, W: Write> Chunked<'w, W> {
    fn new(w: &'w mut W) -> Self {
        Chunked {
            w,
            buf: [0; CHUNK],
            len: 0,
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.w.write_all(&self.buf[..self.len])?;
        self.len = 0;
        Ok(())
    }

    fn raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        if bytes.len() > CHUNK - self.len {
            self.flush()?;
            if bytes.len() > CHUNK {
                return self.w.write_all(bytes);
            }
        }
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
        Ok(())
    }

    /// Make room for `n` more bytes in the buffer.
    fn reserve(&mut self, n: usize) -> io::Result<()> {
        if CHUNK - self.len < n {
            self.flush()?;
        }
        Ok(())
    }

    /// `prefix`, then a decimal integer, quoted (the lossless `u64`
    /// form) or plain.
    fn uint(&mut self, prefix: &[u8], v: u64, quoted: bool) -> io::Result<()> {
        self.raw(prefix)?;
        self.reserve(22)?;
        self.len = put_uint(&mut self.buf, self.len, v, quoted);
        Ok(())
    }

    /// `prefix`, then a JSON array of integers, each quoted or plain.
    fn list(
        &mut self,
        prefix: &[u8],
        items: impl Iterator<Item = u64>,
        quoted: bool,
    ) -> io::Result<()> {
        self.raw(prefix)?;
        let mut sep = b'[';
        for v in items {
            self.reserve(23)?;
            self.buf[self.len] = sep;
            self.len = put_uint(&mut self.buf, self.len + 1, v, quoted);
            sep = b',';
        }
        if sep == b'[' {
            self.raw(b"[")?;
        }
        self.raw(b"]")
    }

    /// `prefix`, then a JSON string literal.
    fn str(&mut self, prefix: &[u8], s: &str) -> io::Result<()> {
        self.raw(prefix)?;
        escape_str(s, |piece| self.raw(piece.as_bytes()))
    }
}

/// Write `v`'s decimal digits (in quotes if `quoted`) into `buf` at
/// `at`, two digits at a time and without going through `f64` or `fmt`;
/// returns the position after them. `buf` must have room for 22 bytes
/// (u64::MAX has 20 digits).
#[inline(always)]
fn put_uint(buf: &mut [u8], mut at: usize, mut v: u64, quoted: bool) -> usize {
    const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
          2021222324252627282930313233343536373839\
          4041424344454647484950515253545556575859\
          6061626364656667686970717273747576777879\
          8081828384858687888990919293949596979899";
    if quoted {
        buf[at] = b'"';
        at += 1;
    }
    if v < 10 {
        // Owner ids and small counters: most of a large document.
        buf[at] = b'0' + v as u8;
        at += 1;
    } else {
        let n = v.ilog10() as usize + 1;
        let out = &mut buf[at..at + n];
        let mut end = n;
        while v >= 100 {
            let pair = (v % 100) as usize * 2;
            v /= 100;
            end -= 2;
            out[end..end + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        }
        if v >= 10 {
            let pair = v as usize * 2;
            out[..2].copy_from_slice(&PAIRS[pair..pair + 2]);
        } else {
            out[0] = b'0' + v as u8;
        }
        at += n;
    }
    if quoted {
        buf[at] = b'"';
        at += 1;
    }
    at
}

/// Parse and decode a snapshot from JSON text.
pub fn snapshot_from_json(text: &str) -> Result<EngineSnapshot, SnapshotError> {
    let v = Json::parse(text)
        .map_err(|e| SnapshotError::Corrupt(format!("snapshot is not valid JSON: {e}")))?;
    snapshot_from_json_value(&v)
}

/// Decode a snapshot from a JSON value. The `version` field is checked
/// before any other field is touched.
pub fn snapshot_from_json_value(v: &Json) -> Result<EngineSnapshot, SnapshotError> {
    let version = v
        .get("version")
        .ok_or_else(|| SnapshotError::MissingField("version".into()))?
        .as_u64()
        .ok_or_else(|| SnapshotError::Corrupt("version is not an unsigned integer".into()))?;
    if version != occ_sim::SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            expected: occ_sim::SNAPSHOT_VERSION,
        });
    }
    let time = read_u64(v, "time")?;
    let capacity = read_plain_u64(v, "capacity")? as usize;
    let num_users = read_u32(v, "num_users")?;
    let owners = read_id_array(v, "owners")?
        .into_iter()
        .map(UserId)
        .collect();
    let cache_pages = read_id_array(v, "cache_pages")?
        .into_iter()
        .map(PageId)
        .collect();
    let stats = read_array(v, "stats")?
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Ok(UserStats {
                hits: read_u64(s, "hits").map_err(|e| nested(&format!("stats[{i}]"), e))?,
                misses: read_u64(s, "misses").map_err(|e| nested(&format!("stats[{i}]"), e))?,
                evictions: read_u64(s, "evictions")
                    .map_err(|e| nested(&format!("stats[{i}]"), e))?,
            })
        })
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    let policy_name = read_str(v, "policy_name")?.to_string();
    let mut policy = PolicyState::new();
    for (i, f) in read_array(v, "policy")?.iter().enumerate() {
        let at = format!("policy[{i}]");
        let key = read_str(f, "key").map_err(|e| nested(&at, e))?;
        let tag = read_str(f, "type").map_err(|e| nested(&at, e))?;
        let value = f
            .get("value")
            .ok_or_else(|| SnapshotError::MissingField(format!("{at}.value")))?;
        let value = match tag {
            "u64" => StateValue::U64(parse_u64(value, &at)?),
            "f64" => StateValue::F64(parse_f64_bits(value, &at)?),
            "u64s" => StateValue::U64s(
                value
                    .as_array()
                    .ok_or_else(|| SnapshotError::Corrupt(format!("{at}.value is not an array")))?
                    .iter()
                    .map(|x| parse_u64(x, &at))
                    .collect::<Result<_, _>>()?,
            ),
            "f64s" => StateValue::F64s(
                value
                    .as_array()
                    .ok_or_else(|| SnapshotError::Corrupt(format!("{at}.value is not an array")))?
                    .iter()
                    .map(|x| parse_f64_bits(x, &at))
                    .collect::<Result<_, _>>()?,
            ),
            "text" => StateValue::Text(
                value
                    .as_str()
                    .ok_or_else(|| SnapshotError::Corrupt(format!("{at}.value is not a string")))?
                    .to_string(),
            ),
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "{at} has unknown type tag '{other}'"
                )))
            }
        };
        policy.set(key, value);
    }
    let fv = v
        .get("faults")
        .ok_or_else(|| SnapshotError::MissingField("faults".into()))?;
    let faults = FaultCounters {
        page_out_of_range: read_u64(fv, "page_out_of_range")?,
        owner_mismatch: read_u64(fv, "owner_mismatch")?,
        quarantined_drops: read_u64(fv, "quarantined_drops")?,
        quarantined_users: read_u64(fv, "quarantined_users")?,
    };
    let quarantined = read_id_array(v, "quarantined")?
        .into_iter()
        .map(UserId)
        .collect();
    Ok(EngineSnapshot {
        version,
        time,
        capacity,
        num_users,
        owners,
        cache_pages,
        stats,
        policy_name,
        policy,
        faults,
        quarantined,
    })
}

fn nested(at: &str, e: SnapshotError) -> SnapshotError {
    match e {
        SnapshotError::MissingField(k) => SnapshotError::MissingField(format!("{at}.{k}")),
        SnapshotError::Corrupt(m) => SnapshotError::Corrupt(format!("{at}: {m}")),
        other => other,
    }
}

fn parse_u64(v: &Json, what: &str) -> Result<u64, SnapshotError> {
    v.as_str()
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| {
            SnapshotError::Corrupt(format!("{what} is not a u64-in-a-string: {}", v.to_json()))
        })
}

fn parse_f64_bits(v: &Json, what: &str) -> Result<f64, SnapshotError> {
    parse_u64(v, what).map(f64::from_bits)
}

fn read_u64(v: &Json, key: &str) -> Result<u64, SnapshotError> {
    let field = v
        .get(key)
        .ok_or_else(|| SnapshotError::MissingField(key.into()))?;
    parse_u64(field, key)
}

fn read_plain_u64(v: &Json, key: &str) -> Result<u64, SnapshotError> {
    v.get(key)
        .ok_or_else(|| SnapshotError::MissingField(key.into()))?
        .as_u64()
        .ok_or_else(|| SnapshotError::Corrupt(format!("{key} is not an unsigned integer")))
}

fn read_u32(v: &Json, key: &str) -> Result<u32, SnapshotError> {
    let x = read_plain_u64(v, key)?;
    u32::try_from(x).map_err(|_| SnapshotError::Corrupt(format!("{key} = {x} overflows u32")))
}

fn read_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, SnapshotError> {
    v.get(key)
        .ok_or_else(|| SnapshotError::MissingField(key.into()))?
        .as_str()
        .ok_or_else(|| SnapshotError::Corrupt(format!("{key} is not a string")))
}

fn read_array<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], SnapshotError> {
    v.get(key)
        .ok_or_else(|| SnapshotError::MissingField(key.into()))?
        .as_array()
        .ok_or_else(|| SnapshotError::Corrupt(format!("{key} is not an array")))
}

fn read_id_array(v: &Json, key: &str) -> Result<Vec<u32>, SnapshotError> {
    read_array(v, key)?
        .iter()
        .map(|x| {
            x.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| {
                    SnapshotError::Corrupt(format!("{key} entry is not a u32: {}", x.to_json()))
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use occ_baselines::RandomizedMarking;
    use occ_sim::prelude::*;

    fn live_snapshot() -> EngineSnapshot {
        // A real engine mid-run, with RNG words in the policy bag — the
        // values most likely to expose lossy encoding.
        let u = Universe::uniform(3, 4);
        let mut eng = SteppingEngine::new(5, u.clone(), RandomizedMarking::new(0xDEAD_BEEF));
        for i in 0..97u32 {
            eng.step(u.request(PageId((i * 7 + 1) % 12)));
        }
        eng.snapshot().unwrap()
    }

    #[test]
    fn round_trip_is_exact() {
        let snap = live_snapshot();
        let back = snapshot_from_json(&snapshot_to_json(&snap)).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn extreme_floats_and_counters_survive() {
        let mut snap = live_snapshot();
        snap.policy.set_f64("weird", -0.0);
        snap.policy.set_f64("inf", f64::NEG_INFINITY);
        snap.policy.set_f64("nan", f64::NAN);
        snap.policy.set_u64("big", u64::MAX);
        snap.policy
            .set_f64s("mix", vec![f64::MIN_POSITIVE, 1e300, f64::EPSILON]);
        let back = snapshot_from_json(&snapshot_to_json(&snap)).unwrap();
        // PartialEq on f64 treats NaN != NaN, so compare bits explicitly.
        assert_eq!(
            match back.policy.get("nan").unwrap() {
                StateValue::F64(x) => x.to_bits(),
                _ => panic!(),
            },
            f64::NAN.to_bits()
        );
        assert_eq!(
            back.policy.f64("weird").unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(back.policy.f64("inf").unwrap(), f64::NEG_INFINITY);
        assert_eq!(back.policy.u64("big").unwrap(), u64::MAX);
        assert_eq!(
            back.policy.f64s("mix").unwrap(),
            &[f64::MIN_POSITIVE, 1e300, f64::EPSILON]
        );
    }

    #[test]
    fn unknown_version_is_rejected_before_anything_else() {
        let snap = live_snapshot();
        // Bump the version and gut the rest: the reader must fail on the
        // version, not on the missing/garbled remainder.
        let text = format!(
            r#"{{"version": {}, "time": "not even a number"}}"#,
            SNAPSHOT_VERSION + 3
        );
        let err = snapshot_from_json(&text).unwrap_err();
        assert!(matches!(
            err,
            SnapshotError::UnsupportedVersion { found, expected }
                if found == SNAPSHOT_VERSION + 3 && expected == SNAPSHOT_VERSION
        ));
        drop(snap);
    }

    #[test]
    fn corruption_yields_typed_errors() {
        let snap = live_snapshot();
        let good = snapshot_to_json(&snap);
        assert!(matches!(
            snapshot_from_json("{nope").unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
        assert!(matches!(
            snapshot_from_json("{}").unwrap_err(),
            SnapshotError::MissingField(f) if f == "version"
        ));
        // Flip the exact-integer time string into a float.
        let bad = good.replace(&format!("\"time\":\"{}\"", snap.time), "\"time\":\"1.5\"");
        assert_ne!(bad, good);
        assert!(matches!(
            snapshot_from_json(&bad).unwrap_err(),
            SnapshotError::Corrupt(m) if m.contains("time")
        ));
    }

    #[test]
    fn decoded_snapshot_restores_into_an_engine() {
        // End-to-end: snapshot → JSON → decode → fresh engine → identical
        // continuation.
        let u = Universe::uniform(3, 4);
        let mut full = SteppingEngine::new(5, u.clone(), RandomizedMarking::new(7));
        let mut head = SteppingEngine::new(5, u.clone(), RandomizedMarking::new(7));
        let reqs: Vec<Request> = (0..200u32)
            .map(|i| u.request(PageId((i * 5 + 2) % 12)))
            .collect();
        for r in &reqs {
            full.step(*r);
        }
        for r in &reqs[..80] {
            head.step(*r);
        }
        let snap = snapshot_from_json(&snapshot_to_json(&head.snapshot().unwrap())).unwrap();
        let mut tail = SteppingEngine::from_snapshot(&snap, RandomizedMarking::new(999)).unwrap();
        for r in &reqs[80..] {
            tail.step(*r);
        }
        assert_eq!(tail.stats(), full.stats());
        assert_eq!(tail.cache().pages(), full.cache().pages());
    }
}
