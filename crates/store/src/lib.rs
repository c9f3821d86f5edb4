//! Crash-safe persistent backend for the USTOR server: an append-only
//! write-ahead log plus periodic snapshots, hand-rolled on the wire
//! codecs of `faust-types` — no external dependencies, no `unsafe`.
//!
//! # Why the *untrusted* server needs durability
//!
//! FAUST's guarantees come from clients cross-checking the server's
//! schedule; the server itself is untrusted and may crash. But a server
//! whose `MEM`/`SVER` live only in memory turns every restart into a
//! *rollback*: the erased schedule is indistinguishable from the fork
//! attack clients are built to detect, so an honest crash permanently
//! wedges the deployment (see
//! `faust-ustor/tests/attacks.rs::volatile_server_restart_is_detected_as_rollback`).
//! With this backend, every state mutation is logged **before it is
//! acknowledged**, so [`PersistentServer::recover`] rebuilds
//! bit-identical state and an honest restart is invisible to clients —
//! while a *truncated* log recovers into exactly the rollback clients
//! flag as a violation. Durable-but-truncatable state is where the
//! fail-aware argument bites: local checks ([`StoreError`]) catch
//! corruption the filesystem can see, clients catch the rollbacks it
//! cannot. `docs/persistence.md` specifies the format and invariants.
//!
//! # Layout
//!
//! * [`log`] — the write-ahead log: length-prefixed, checksummed,
//!   sequence-numbered records of every inbound protocol message, a
//!   standalone COMMIT as a delta against the previous one in its file.
//! * [`snapshot`] — atomic (write-temp + rename) snapshots of the full
//!   [`ServerState`](faust_ustor::ServerState); snapshots compact the log.
//! * [`file`](mod@file) — how a file reaches the disk: the one crash-safe replace
//!   (temp file, fsync, rename, directory fsync) behind `wal.bin`,
//!   `snapshot.bin`, the client's `FAUSTSES` and `faust-audit`'s
//!   `FAUSTHIS`, and the sealed container (`magic | version | len |
//!   checksum | payload`) the three of them share.
//! * [`session`] — the client's `FAUSTSES` session file as a sealed
//!   format (SHA-256 checksummed; `faust-core` owns its payload).
//! * `checksum` (private) — the one module that knows the disk checksum:
//!   XXH64 in current files, SHA-256 in those written before log format
//!   v2, which still load. It guards against the disk, not the operator.
//! * [`server`] — [`PersistentServer`]: the `Server` impl that logs
//!   before acknowledging, and [`PersistentBackend`]: the
//!   [`ServerBackend`](faust_ustor::ServerBackend) every runtime
//!   (simulator, threaded, TCP) can plug in.
//! * [`testutil`] — fresh scratch directories for tests and benches.
//!
//! # Example
//!
//! ```
//! use faust_store::{testutil, Durability, PersistentServer, StoreConfig};
//! use faust_ustor::Server;
//!
//! let dir = testutil::scratch_dir("doc-example");
//! let config = StoreConfig { durability: Durability::Never, ..StoreConfig::default() };
//! let server = PersistentServer::open(&dir, 2, config.clone()).unwrap();
//! drop(server); // crash...
//! let recovered = PersistentServer::recover(&dir, 2, config).unwrap();
//! assert_eq!(recovered.next_seq(), 0); // nothing was logged yet
//! std::fs::remove_dir_all(&dir).ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checksum;
pub mod codec;
pub mod file;
pub mod log;
pub mod server;
pub mod session;
pub mod snapshot;
pub mod testutil;

pub use codec::LogRecord;
pub use log::{truncate_tail_records, LogCursor};
pub use server::{Durability, PersistentBackend, PersistentServer, SimClock, StoreConfig};

use faust_types::WireError;
use std::fmt;
use std::io;

/// A structured recovery/persistence error. Recovery **never panics** and
/// never silently loads a prefix of the log: any anomaly — torn tail,
/// checksum mismatch, duplicated or missing sequence numbers, corrupt
/// snapshot — surfaces as one of these variants, telling the operator
/// exactly which invariant the on-disk state broke.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O operation failed.
    Io(io::Error),
    /// A file did not start with its magic string (`file` names it).
    BadMagic {
        /// Which file: `"wal"`, `"snapshot"`, `"session"` or `"history"`.
        file: &'static str,
    },
    /// A file's format version is unknown to this build.
    UnsupportedVersion {
        /// Which file: `"wal"`, `"snapshot"`, `"session"` or `"history"`.
        file: &'static str,
        /// The version found on disk.
        version: u32,
    },
    /// A file ended inside its fixed-size header.
    TruncatedHeader {
        /// Which file: `"wal"`, `"snapshot"`, `"session"` or `"history"`.
        file: &'static str,
    },
    /// The on-disk state was written for a different client count.
    ClientCountMismatch {
        /// The client count the caller expects.
        expected: usize,
        /// The client count recorded on disk.
        found: usize,
    },
    /// A sealed file's payload ([`file::Sealed`]) does not match the
    /// checksum in its header.
    Checksum {
        /// Which file: `"snapshot"`, `"session"` or `"history"`.
        file: &'static str,
    },
    /// A sealed file ended inside its payload or ran past it, or the
    /// payload failed to decode.
    Corrupt {
        /// Which file: `"snapshot"`, `"session"` or `"history"`.
        file: &'static str,
        /// The wire-level error.
        error: WireError,
    },
    /// The log ended in the middle of a record — a torn tail. Record
    /// `seq` was being read when the bytes ran out.
    TornRecord {
        /// Sequence number the torn record would have carried.
        seq: u64,
        /// How many more bytes the record needed.
        missing: usize,
    },
    /// A record's payload does not match its stored checksum (bit rot
    /// or deliberate tampering).
    RecordChecksum {
        /// Sequence number expected at this position.
        seq: u64,
    },
    /// A record's checksum held but its payload failed to decode.
    RecordCorrupt {
        /// Sequence number expected at this position.
        seq: u64,
        /// The wire-level decode error.
        error: WireError,
    },
    /// A record repeats an already-seen sequence number (e.g. a
    /// duplicated tail).
    DuplicateRecord {
        /// Sequence number expected at this position.
        expected: u64,
        /// Sequence number actually found.
        found: u64,
    },
    /// Sequence numbers jumped forward — records are missing from the
    /// middle of the log.
    SequenceGap {
        /// Sequence number expected at this position.
        expected: u64,
        /// Sequence number actually found.
        found: u64,
    },
    /// A record declares an implausibly large payload length.
    ImplausibleRecordLength {
        /// Sequence number expected at this position.
        seq: u64,
        /// The declared payload length.
        len: u64,
    },
    /// A snapshot exists but the write-ahead log file is gone. Rotation
    /// always leaves a log file behind, so a missing log means the
    /// post-snapshot suffix of the history was discarded — a rollback.
    MissingWal,
    /// The snapshot covers operations the log has never heard of (the
    /// log restarts *after* the snapshot point, leaving a hole).
    SnapshotAheadOfLog {
        /// First sequence number not covered by the snapshot.
        snapshot_next: u64,
        /// First sequence number present in the log.
        base_seq: u64,
    },
    /// The log *ends* before the snapshot's coverage does: records the
    /// snapshot has absorbed were truncated off the log's tail. The
    /// snapshot alone could serve the state — but accepting it would
    /// rewind the sequence counter below `snapshot_next`, and records
    /// appended at those reused numbers would be silently skipped by
    /// the *next* recovery. Refused for the same reason every other
    /// anomaly is: no silent prefixes, ever.
    LogEndsBeforeSnapshot {
        /// First sequence number not covered by the snapshot.
        snapshot_next: u64,
        /// Sequence number the log would hand out next.
        log_next: u64,
    },
    /// [`PersistentServer::recover`] was asked to recover from a
    /// directory holding no state at all.
    MissingState,
    /// The directory holds `shard-0/` but no `wal.bin` or
    /// `snapshot.bin`: a store of the retired sharded layout (one
    /// `shard-<i>/` log per server replica). This build does not read
    /// it, and refuses rather than start an empty store beside it.
    RetiredShardLayout,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::BadMagic { file } => write!(f, "{file}: bad magic"),
            StoreError::UnsupportedVersion { file, version } => {
                write!(f, "{file}: unsupported format version {version}")
            }
            StoreError::TruncatedHeader { file } => write!(f, "{file}: truncated header"),
            StoreError::ClientCountMismatch { expected, found } => {
                write!(f, "state is for {found} clients, expected {expected}")
            }
            StoreError::Checksum { file } => write!(f, "{file}: payload checksum mismatch"),
            StoreError::Corrupt { file, error } => {
                write!(f, "{file}: undecodable payload: {error}")
            }
            StoreError::TornRecord { seq, missing } => {
                write!(f, "log: record {seq} torn ({missing} bytes missing)")
            }
            StoreError::RecordChecksum { seq } => {
                write!(f, "log: record {seq} checksum mismatch")
            }
            StoreError::RecordCorrupt { seq, error } => {
                write!(f, "log: record {seq} undecodable: {error}")
            }
            StoreError::DuplicateRecord { expected, found } => {
                write!(f, "log: duplicate record {found} where {expected} expected")
            }
            StoreError::SequenceGap { expected, found } => {
                write!(
                    f,
                    "log: sequence gap, record {found} where {expected} expected"
                )
            }
            StoreError::ImplausibleRecordLength { seq, len } => {
                write!(f, "log: record {seq} declares implausible length {len}")
            }
            StoreError::MissingWal => {
                f.write_str("snapshot present but log file missing: post-snapshot suffix discarded")
            }
            StoreError::SnapshotAheadOfLog {
                snapshot_next,
                base_seq,
            } => write!(
                f,
                "log starts at {base_seq} but snapshot already covers up to {snapshot_next}"
            ),
            StoreError::LogEndsBeforeSnapshot {
                snapshot_next,
                log_next,
            } => write!(
                f,
                "log ends at {log_next} but snapshot covers up to {snapshot_next}: \
                 snapshot-covered records were truncated off the log"
            ),
            StoreError::MissingState => f.write_str("no persistent state in directory"),
            StoreError::RetiredShardLayout => f.write_str(
                "directory holds a retired sharded store (shard-<i>/ subdirectories), \
                 which this build does not read",
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<StoreError> for io::Error {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_chain() {
        let e = StoreError::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(e.to_string().contains("gone"));
        assert!(std::error::Error::source(&e).is_some());
        for e in [
            StoreError::BadMagic { file: "wal" },
            StoreError::TornRecord { seq: 7, missing: 3 },
            StoreError::RecordChecksum { seq: 1 },
            StoreError::DuplicateRecord {
                expected: 5,
                found: 4,
            },
            StoreError::MissingWal,
            StoreError::MissingState,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn store_error_converts_to_io_error() {
        let io_err: io::Error = StoreError::RecordChecksum { seq: 9 }.into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
        assert!(io_err.to_string().contains("record 9"));
    }
}
