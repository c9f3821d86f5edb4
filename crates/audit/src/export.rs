//! Building [`SessionHistory`] containers from live state.
//!
//! Two sources: a `faust-store` directory (snapshot + WAL, read through
//! the read-only [`LogCursor`] so a live or crashed server's files can be
//! exported without mutating them), or an in-memory record stream — the
//! records the directory export read, or a hand-built session.
//!
//! The exporter *computes* the claimed commit chain by replaying its own
//! records rather than trusting any caller-supplied value — the manifest
//! therefore binds the chain to the records, and an auditor that replays
//! to a different chain has proof the file was assembled dishonestly.

use std::fmt;
use std::path::Path;

use faust_crypto::SigScheme;
use faust_store::snapshot::read_snapshot;
use faust_store::{LogCursor, LogRecord, StoreError};
use faust_types::History;
use faust_ustor::{ServerState, UstorServer};

use crate::format::SessionHistory;

/// Error exporting a session history from a store directory.
#[derive(Debug)]
pub enum ExportError {
    /// The snapshot or WAL could not be read or failed recovery checks.
    Store(StoreError),
    /// The WAL starts at a non-zero sequence but no snapshot covers the
    /// prefix — the directory does not hold a complete session.
    MissingBaseState {
        /// The WAL's first sequence number.
        base_seq: u64,
    },
    /// The snapshot and WAL disagree about where the log starts.
    BaseMismatch {
        /// Sequence the snapshot covers up to (exclusive).
        snapshot: u64,
        /// The WAL's first sequence number.
        wal: u64,
    },
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExportError::Store(err) => write!(f, "cannot read store: {err}"),
            ExportError::MissingBaseState { base_seq } => write!(
                f,
                "WAL starts at sequence {base_seq} but no snapshot covers the prefix"
            ),
            ExportError::BaseMismatch { snapshot, wal } => write!(
                f,
                "snapshot covers up to sequence {snapshot} but the WAL starts at {wal}"
            ),
        }
    }
}

impl std::error::Error for ExportError {}

impl From<StoreError> for ExportError {
    fn from(err: StoreError) -> Self {
        ExportError::Store(err)
    }
}

/// Builds a session history from an in-memory record stream.
///
/// `base` is the state the records apply on top of, tagged with the
/// sequence number of the first record (`None` = a fresh server and
/// records starting at sequence 0). The claimed chain is computed by
/// replaying the records, never taken on trust.
pub fn export_records(
    n: usize,
    scheme: SigScheme,
    base: Option<(u64, ServerState)>,
    records: Vec<(u64, LogRecord)>,
    client_history: Option<History>,
) -> SessionHistory {
    let mut server = match &base {
        Some((_, state)) => UstorServer::from_state(state.clone()),
        None => UstorServer::new(n),
    };
    for (_, record) in &records {
        record.clone().replay(&mut server);
    }
    let final_state = server.export_state();
    SessionHistory {
        n,
        scheme,
        base_seq: base.as_ref().map(|(seq, _)| *seq).unwrap_or(0),
        base_state: base.map(|(_, state)| state),
        records,
        client_history,
        claimed_chain: final_state.sver,
        claimed_proofs: final_state.proofs,
    }
}

/// Exports the session history held in a `faust-store` directory:
/// snapshot (if any) as the base state plus every WAL record, read
/// strictly through [`LogCursor`]. The snapshot must be for the log
/// header's client count ([`StoreError::ClientCountMismatch`] otherwise).
pub fn export_store_dir(
    dir: &Path,
    scheme: SigScheme,
    client_history: Option<History>,
) -> Result<SessionHistory, ExportError> {
    let cursor = LogCursor::open(dir)?;
    let header = cursor.header();
    let snapshot = read_snapshot(dir, header.n)?;
    let base = match snapshot {
        Some(snapshot) => {
            if snapshot.next_seq != header.base_seq {
                return Err(ExportError::BaseMismatch {
                    snapshot: snapshot.next_seq,
                    wal: header.base_seq,
                });
            }
            Some((snapshot.next_seq, snapshot.state))
        }
        None if header.base_seq != 0 => {
            return Err(ExportError::MissingBaseState {
                base_seq: header.base_seq,
            });
        }
        None => None,
    };
    let mut records = Vec::new();
    for item in cursor {
        let scanned = item?;
        records.push((scanned.seq, scanned.record));
    }
    Ok(export_records(
        header.n,
        scheme,
        base,
        records,
        client_history,
    ))
}
