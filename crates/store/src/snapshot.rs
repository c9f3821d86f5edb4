//! Snapshots: the log-compaction half of the backend.
//!
//! A snapshot is one file (`snapshot.bin`) holding the complete
//! [`ServerState`] at a log position:
//!
//! ```text
//!   "FAUSTSNP" | version: u32 | payload_len: u32 | xxh64(payload): u64 | payload
//!   payload:     n: u32 | next_seq: u64 | ServerState encoding
//! ```
//!
//! Version 3 is the one written. Version 1 is the same payload behind a
//! 32-byte SHA-256 digest where the checksum now sits; it still loads,
//! and the next snapshot replaces it. Versions 2 and 4 added a coverage
//! position for a retired multi-log layout and are refused with
//! [`StoreError::UnsupportedVersion`]. As in the log, the checksum guards
//! against the disk, not the operator (`crate::checksum`).
//!
//! `next_seq` is the first log sequence number **not** reflected in the
//! state — recovery loads the snapshot and replays records from
//! `next_seq` on. Snapshots are written to a temp file, synced, and
//! renamed into place, so at every instant the directory holds exactly
//! one complete, checksummed snapshot (or none); a crash mid-write
//! leaves the previous snapshot untouched. The log is only rotated
//! *after* the rename, and recovery tolerates the in-between crash by
//! skipping already-covered records (verified but not replayed).

use crate::checksum::Checksum;
use crate::codec::{decode_state, encode_state};
use crate::log::sync_dir;
use crate::StoreError;
use faust_types::Wire;
use faust_ustor::ServerState;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

/// Magic string opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"FAUSTSNP";
/// Snapshot format version written by this build.
pub const SNAPSHOT_VERSION: u32 = 3;
/// File name of the snapshot inside a store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Bytes before the checksum: magic, version, payload length.
const PREFIX: usize = 8 + 4 + 4;

/// Which checksum follows the prefix in a snapshot of format `version`;
/// `None` for a version this build does not read.
fn layout(version: u32) -> Option<Checksum> {
    match version {
        1 => Some(Checksum::Sha256),
        SNAPSHOT_VERSION => Some(Checksum::Xxh64),
        _ => None,
    }
}

/// A decoded snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Client count the state is for.
    pub n: usize,
    /// First log sequence number not reflected in `state`.
    pub next_seq: u64,
    /// The full server state at that position.
    pub state: ServerState,
}

/// Atomically writes `snapshot` as `dir/snapshot.bin`.
///
/// With `sync`, the payload is fsynced before the rename and the
/// directory after it, so the rename is durable; without, both syncs are
/// skipped (benchmark mode).
///
/// # Errors
///
/// Propagates file-system errors; a failed write never disturbs an
/// existing snapshot.
pub fn write_snapshot(dir: &Path, snapshot: &Snapshot, sync: bool) -> Result<(), StoreError> {
    let checksum = layout(SNAPSHOT_VERSION).expect("the version this build writes");
    let header = PREFIX + checksum.len();
    // Encode once behind room for the header, checksum in place, patch it.
    let mut bytes = vec![0; header];
    (snapshot.n as u32).encode_into(&mut bytes);
    snapshot.next_seq.encode_into(&mut bytes);
    encode_state(&snapshot.state, &mut bytes);
    let (head, payload) = bytes.split_at_mut(header);
    head[..8].copy_from_slice(SNAPSHOT_MAGIC);
    head[8..12].copy_from_slice(&SNAPSHOT_VERSION.to_be_bytes());
    head[12..16].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    checksum.write(payload, &mut head[PREFIX..]);

    let tmp = dir.join("snapshot.tmp");
    let path = dir.join(SNAPSHOT_FILE);
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&tmp)?;
    file.write_all(&bytes)?;
    if sync {
        file.sync_data()?;
    }
    std::fs::rename(&tmp, &path)?;
    if sync {
        sync_dir(dir)?;
    }
    Ok(())
}

/// Reads and fully validates `dir/snapshot.bin`; `Ok(None)` if no
/// snapshot exists.
///
/// # Errors
///
/// Structured [`StoreError`]s for a bad magic, unknown version,
/// truncated header or payload, bytes after the payload, checksum
/// mismatch, or undecodable state — a corrupt snapshot is never
/// partially loaded.
pub fn read_snapshot(dir: &Path) -> Result<Option<Snapshot>, StoreError> {
    let path = dir.join(SNAPSHOT_FILE);
    let mut bytes = Vec::new();
    match File::open(&path) {
        Ok(mut f) => f.read_to_end(&mut bytes)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    if bytes.len() < PREFIX {
        return Err(StoreError::TruncatedHeader { file: "snapshot" });
    }
    if &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(StoreError::BadMagic { file: "snapshot" });
    }
    let mut rest = &bytes[8..PREFIX];
    let version = u32::decode_from(&mut rest).expect("sized above");
    let Some(checksum) = layout(version) else {
        return Err(StoreError::UnsupportedVersion {
            file: "snapshot",
            version,
        });
    };
    let payload_len = u32::decode_from(&mut rest).expect("sized above") as usize;
    let header = PREFIX + checksum.len();
    let Some(stored) = bytes.get(PREFIX..header) else {
        return Err(StoreError::TruncatedHeader { file: "snapshot" });
    };
    let Some(payload) = bytes.get(header..header + payload_len) else {
        // File ends inside the declared payload.
        return Err(StoreError::SnapshotCorrupt(
            faust_types::WireError::Truncated,
        ));
    };
    if bytes.len() > header + payload_len {
        return Err(StoreError::SnapshotCorrupt(
            faust_types::WireError::TrailingBytes(bytes.len() - header - payload_len),
        ));
    }
    if !checksum.matches(payload, stored) {
        return Err(StoreError::SnapshotChecksum);
    }
    let mut input = payload;
    let n = u32::decode_from(&mut input).map_err(StoreError::SnapshotCorrupt)? as usize;
    let next_seq = u64::decode_from(&mut input).map_err(StoreError::SnapshotCorrupt)?;
    let state = decode_state(&mut input).map_err(StoreError::SnapshotCorrupt)?;
    if !input.is_empty() {
        return Err(StoreError::SnapshotCorrupt(
            faust_types::WireError::TrailingBytes(input.len()),
        ));
    }
    if state.mem.len() != n {
        return Err(StoreError::ClientCountMismatch {
            expected: n,
            found: state.mem.len(),
        });
    }
    Ok(Some(Snapshot { n, next_seq, state }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::scratch_dir;
    use faust_ustor::UstorServer;

    fn snapshot(n: usize, next_seq: u64) -> Snapshot {
        Snapshot {
            n,
            next_seq,
            state: UstorServer::new(n).export_state(),
        }
    }

    #[test]
    fn roundtrip_and_absence() {
        let dir = scratch_dir("snap-roundtrip");
        assert_eq!(read_snapshot(&dir).unwrap(), None);
        let snap = snapshot(3, 42);
        write_snapshot(&dir, &snap, false).unwrap();
        assert_eq!(read_snapshot(&dir).unwrap(), Some(snap));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The payload of `snap`, encoded the long way.
    fn payload(snap: &Snapshot) -> Vec<u8> {
        let mut payload = Vec::new();
        (snap.n as u32).encode_into(&mut payload);
        snap.next_seq.encode_into(&mut payload);
        encode_state(&snap.state, &mut payload);
        payload
    }

    /// A file laid out the long way — payload first, then a header that
    /// describes it.
    fn file_with(version: u32, checksum: Checksum, payload: &[u8]) -> Vec<u8> {
        let mut stored = vec![0; checksum.len()];
        checksum.write(payload, &mut stored);
        let mut bytes = SNAPSHOT_MAGIC.to_vec();
        bytes.extend_from_slice(&version.to_be_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&stored);
        bytes.extend_from_slice(payload);
        bytes
    }

    /// [`file_with`] for a version this build reads.
    fn file_bytes(snap: &Snapshot, version: u32) -> Vec<u8> {
        file_with(version, layout(version).unwrap(), &payload(snap))
    }

    #[test]
    fn retired_versions_2_and_4_are_unsupported() {
        // Both carried a `u64` coverage position after `next_seq`,
        // behind SHA-256 (v2) and XXH64 (v4). No store this build
        // writes or reads has one, so both are refused by version.
        let dir = scratch_dir("snap-retired");
        let snap = snapshot(2, 14);
        let mut payload = Vec::new();
        (snap.n as u32).encode_into(&mut payload);
        snap.next_seq.encode_into(&mut payload);
        977u64.encode_into(&mut payload);
        encode_state(&snap.state, &mut payload);
        for (version, checksum) in [(2, Checksum::Sha256), (4, Checksum::Xxh64)] {
            assert_eq!(layout(version), None);
            let bytes = file_with(version, checksum, &payload);
            std::fs::write(dir.join(SNAPSHOT_FILE), bytes).unwrap();
            assert!(
                matches!(
                    read_snapshot(&dir).unwrap_err(),
                    StoreError::UnsupportedVersion { file: "snapshot", version: v } if v == version
                ),
                "version {version}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_is_header_then_payload_byte_for_byte() {
        // What `write_snapshot` must leave on disk although it encodes
        // behind a reserved header: the current version, an 8-byte
        // checksum, the payload.
        let dir = scratch_dir("snap-layout");
        let snap = snapshot(5, 42);
        let expected = file_bytes(&snap, SNAPSHOT_VERSION);
        assert_eq!(expected[8..12], 3u32.to_be_bytes());
        write_snapshot(&dir, &snap, false).unwrap();
        assert_eq!(std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap(), expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sha256_era_snapshots_still_load_and_unknown_versions_do_not() {
        let dir = scratch_dir("snap-v1");
        let path = dir.join(SNAPSHOT_FILE);
        let snap = snapshot(3, 42);
        let bytes = file_bytes(&snap, 1);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_snapshot(&dir).unwrap(), Some(snap));
        // Cut inside the 32-byte digest: still a header problem.
        std::fs::write(&path, &bytes[..PREFIX + 20]).unwrap();
        assert!(matches!(
            read_snapshot(&dir).unwrap_err(),
            StoreError::TruncatedHeader { file: "snapshot" }
        ));
        let mut bytes = file_bytes(&snapshot(3, 42), SNAPSHOT_VERSION);
        bytes[8..12].copy_from_slice(&5u32.to_be_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&dir).unwrap_err(),
            StoreError::UnsupportedVersion {
                file: "snapshot",
                version: 5
            }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bytes_after_the_payload_are_rejected_in_every_layout() {
        let dir = scratch_dir("snap-trailing");
        let path = dir.join(SNAPSHOT_FILE);
        for version in [1, SNAPSHOT_VERSION] {
            let mut bytes = file_bytes(&snapshot(3, 42), version);
            bytes.push(0);
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(
                    read_snapshot(&dir).unwrap_err(),
                    StoreError::SnapshotCorrupt(faust_types::WireError::TrailingBytes(1))
                ),
                "version {version}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_few_bytes_claiming_2_pow_24_clients_are_a_typed_error() {
        // The checksum is anyone's to recompute, so a payload that
        // passes it can still claim the largest client count the codec
        // takes, backed by two bytes. It must fail on the missing
        // entries, not reserve room for 2²⁴ of them first.
        let dir = scratch_dir("snap-huge-n");
        let n = 1u32 << 24;
        let mut payload = Vec::new();
        n.encode_into(&mut payload);
        7u64.encode_into(&mut payload);
        n.encode_into(&mut payload);
        payload.extend_from_slice(&[0, 0]);
        let bytes = file_with(SNAPSHOT_VERSION, Checksum::Xxh64, &payload);
        std::fs::write(dir.join(SNAPSHOT_FILE), bytes).unwrap();
        assert!(matches!(
            read_snapshot(&dir).unwrap_err(),
            StoreError::SnapshotCorrupt(faust_types::WireError::Truncated)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overwrite_replaces_atomically() {
        let dir = scratch_dir("snap-overwrite");
        write_snapshot(&dir, &snapshot(2, 1), true).unwrap();
        write_snapshot(&dir, &snapshot(2, 9), true).unwrap();
        assert_eq!(read_snapshot(&dir).unwrap().unwrap().next_seq, 9);
        // No temp file left behind.
        assert!(!dir.join("snapshot.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_structured_not_a_panic() {
        let dir = scratch_dir("snap-corrupt");
        write_snapshot(&dir, &snapshot(2, 5), false).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let good = std::fs::read(&path).unwrap();

        // Flip a payload byte: checksum mismatch.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read_snapshot(&dir).unwrap_err(),
            StoreError::SnapshotChecksum
        ));

        // Truncate inside the payload.
        std::fs::write(&path, &good[..good.len() - 4]).unwrap();
        assert!(matches!(
            read_snapshot(&dir).unwrap_err(),
            StoreError::SnapshotCorrupt(_)
        ));

        // Bad magic.
        let mut bad = good.clone();
        bad[3] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read_snapshot(&dir).unwrap_err(),
            StoreError::BadMagic { file: "snapshot" }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
