//! CLI error taxonomy with distinct exit codes.
//!
//! Scripts (and the CI chaos smoke) distinguish *why* `occ` failed:
//!
//! | code | class  | meaning                                            |
//! |------|--------|----------------------------------------------------|
//! | 0    | —      | success                                            |
//! | 1    | other  | internal/unclassified error                        |
//! | 2    | usage  | bad flags, unknown names, malformed invocations    |
//! | 3    | io     | file could not be opened/read/written              |
//! | 4    | parse  | file opened but its content is invalid (trace,     |
//! |      |        | report, snapshot)                                  |
//! | 5    | fault  | a simulation fault surfaced under fail-fast        |
//! | 6    | conformance | a theorem-conformance cell FAILed (the run    |
//! |      |        | itself succeeded; the *bounds* did not hold)       |
//! | 7    | degraded | a supervised fleet run finished, but at least    |
//! |      |        | one shard exhausted its restart budget and was     |
//! |      |        | quarantined — the report is complete but partial   |
//!
//! Library errors stay typed (`TraceIoError`, `SnapshotError`,
//! `SimError`); this module is only the mapping onto process exit codes.

use occ_fleet::DriveError;
use occ_sim::{SimError, SnapshotError, TraceIoError};
use std::fmt;

/// A classified CLI failure.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation: unknown flag value, scenario, policy, format…
    Usage(String),
    /// Underlying file I/O failure.
    Io(String),
    /// A file's *content* could not be understood.
    Parse(String),
    /// A simulation fault surfaced (fail-fast degradation, cost anomaly,
    /// policy contract violation).
    Fault(String),
    /// A conformance grid ran to completion but at least one cell's
    /// bound was violated — distinct from every operational failure so
    /// CI can tell "the theorem broke" from "the tool broke".
    Conformance(String),
    /// A supervised fleet run completed but quarantined at least one
    /// shard: the report was emitted and is self-consistent, yet it is
    /// missing the quarantined shards' tails. Distinct from every hard
    /// failure so orchestration can keep the partial results while
    /// still flagging the run.
    Degraded(String),
    /// Anything else.
    Other(String),
}

impl CliError {
    /// The process exit code for this error class.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Other(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Io(_) => 3,
            CliError::Parse(_) => 4,
            CliError::Fault(_) => 5,
            CliError::Conformance(_) => 6,
            CliError::Degraded(_) => 7,
        }
    }

    /// Short class label (prefixed to the message so logs are greppable).
    pub fn class(&self) -> &'static str {
        match self {
            CliError::Usage(_) => "usage",
            CliError::Io(_) => "io",
            CliError::Parse(_) => "parse",
            CliError::Fault(_) => "fault",
            CliError::Conformance(_) => "conformance",
            CliError::Degraded(_) => "degraded",
            CliError::Other(_) => "error",
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m)
            | CliError::Io(m)
            | CliError::Parse(m)
            | CliError::Fault(m)
            | CliError::Conformance(m)
            | CliError::Degraded(m)
            | CliError::Other(m) => f.write_str(m),
        }
    }
}

impl From<TraceIoError> for CliError {
    fn from(e: TraceIoError) -> Self {
        match e {
            TraceIoError::Io(e) => CliError::Io(e.to_string()),
            TraceIoError::Parse(m) => CliError::Parse(format!("trace parse error: {m}")),
        }
    }
}

impl From<SnapshotError> for CliError {
    fn from(e: SnapshotError) -> Self {
        match &e {
            SnapshotError::UnsupportedVersion { .. }
            | SnapshotError::MissingField(_)
            | SnapshotError::Corrupt(_) => CliError::Parse(e.to_string()),
            SnapshotError::Mismatch(_) | SnapshotError::Unsupported(_) => {
                CliError::Usage(e.to_string())
            }
        }
    }
}

impl From<DriveError> for CliError {
    fn from(e: DriveError) -> Self {
        match e {
            DriveError::Snapshot(_, s) => s.into(),
            // Persist targets name the failed step and path themselves.
            DriveError::Persist(_, e) => CliError::Io(e.to_string()),
            DriveError::Totals(m) => CliError::Other(m),
        }
    }
}

impl From<SimError> for CliError {
    fn from(e: SimError) -> Self {
        match e {
            SimError::Snapshot(s) => s.into(),
            SimError::Io(e) => CliError::Io(e.to_string()),
            // Request faults, cost anomalies, and policy violations are
            // simulation faults: under fail-fast they are the signal the
            // chaos smoke asserts on.
            other => CliError::Fault(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_stable() {
        let cases = [
            (CliError::Other("x".into()), 1),
            (CliError::Usage("x".into()), 2),
            (CliError::Io("x".into()), 3),
            (CliError::Parse("x".into()), 4),
            (CliError::Fault("x".into()), 5),
            (CliError::Conformance("x".into()), 6),
            (CliError::Degraded("x".into()), 7),
        ];
        for (e, code) in cases {
            assert_eq!(e.exit_code(), code, "{}", e.class());
        }
    }

    #[test]
    fn library_errors_map_to_the_right_class() {
        let e: CliError = SnapshotError::UnsupportedVersion {
            found: 9,
            expected: 1,
        }
        .into();
        assert_eq!(e.exit_code(), 4);
        let e: CliError = SnapshotError::Unsupported("belady".into()).into();
        assert_eq!(e.exit_code(), 2);
        let e: CliError = SimError::Request(occ_sim::RequestFault {
            time: 0,
            kind: occ_sim::FaultKind::PageOutOfRange,
            page: occ_sim::PageId(9),
            user: occ_sim::UserId(0),
        })
        .into();
        assert_eq!(e.exit_code(), 5);
        let e: CliError = TraceIoError::Parse("bad header".into()).into();
        assert_eq!(e.exit_code(), 4);
    }
}
