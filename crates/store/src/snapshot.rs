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
//! Version 6 is the one written. Its state encoding lays `SVER` out as a
//! ≼-chain ([`SverLayout::Chain`]): the `n` signed versions in ascending
//! `(Σ V, k)` order, each tagged with its client `k` and written as a
//! delta against the one before it whenever that is smaller — the code
//! of a read REPLY's `SVER[j]`, its entries in
//! [`EntryLayout::Compact`]. An honest server's versions differ from
//! their neighbours in that order by about one entry, so `SVER` costs
//! `O(n)` bytes instead of `O(n²)` (at n = 64, 170 KB → 8 KB).
//! Version 5 is the same chain with its deltas' entries in
//! [`EntryLayout::Fixed`]. Everything else in the payload is as in
//! version 3, which wrote every version in full ([`SverLayout::Full`],
//! still the body of `FAUSTHIS`'s base state). Versions 5 and 3 still
//! load, and so does version 1, version 3's payload behind a 32-byte
//! SHA-256 digest where the checksum now sits; the next snapshot
//! replaces any of them. Versions 2 and 4 added a coverage position for
//! a retired multi-log layout and are refused with
//! [`StoreError::UnsupportedVersion`], as are 0 and everything from 7
//! on.
//! As in the log, the checksum guards against the disk, not the operator
//! (`crate::checksum`), so the payload parser takes any bytes: a chain
//! entry whose `k` is out of range or repeated, or whose first version is
//! a delta, is a typed error.
//!
//! `next_seq` is the first log sequence number **not** reflected in the
//! state — recovery loads the snapshot and replays records from
//! `next_seq` on. The file is sealed and replaced through
//! [`crate::file`]: written to a temp file, synced, and renamed into
//! place, so at every instant the directory holds exactly one complete,
//! checksummed snapshot (or none); a crash mid-write leaves the previous
//! snapshot untouched. The log is only rotated *after* the rename, and
//! recovery tolerates the in-between crash by skipping already-covered
//! records (verified but not replayed).

use crate::codec::{decode_state, encode_state, SverLayout};
use crate::file::{Checksum, Sealed};
use crate::StoreError;
use faust_types::{EntryLayout, Wire, WireError};
use faust_ustor::ServerState;
use std::path::Path;

/// Snapshot format version written by this build.
pub const SNAPSHOT_VERSION: u32 = 6;
/// File name of the snapshot inside a store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

/// The snapshot's sealed format: for each version this build reads, the
/// checksum that follows the prefix and how the payload lays out `SVER`.
pub const SNAPSHOT: Sealed<SverLayout> = Sealed {
    magic: b"FAUSTSNP",
    file: "snapshot",
    versions: &[
        (
            SNAPSHOT_VERSION,
            Checksum::Xxh64,
            SverLayout::Chain(EntryLayout::Compact),
        ),
        (5, Checksum::Xxh64, SverLayout::Chain(EntryLayout::Fixed)),
        (3, Checksum::Xxh64, SverLayout::Full),
        (1, Checksum::Sha256, SverLayout::Full),
    ],
};

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
    SNAPSHOT.write(&dir.join(SNAPSHOT_FILE), sync, |sver, out| {
        (snapshot.n as u32).encode_into(out);
        snapshot.next_seq.encode_into(out);
        encode_state(&snapshot.state, sver, out);
    })
}

/// Reads and fully validates `dir/snapshot.bin`, a snapshot for `n`
/// clients; `Ok(None)` if no snapshot exists.
///
/// The payload's client count is compared with `n` before the state is
/// decoded, so a payload can make the decoder build no more than an
/// `n`-client state.
///
/// # Errors
///
/// The container's [`StoreError`]s ([`Sealed::read`]);
/// [`StoreError::ClientCountMismatch`] for a snapshot of another client
/// count; [`StoreError::Corrupt`] for an undecodable state or bytes after
/// it — a corrupt snapshot is never partially loaded.
pub fn read_snapshot(dir: &Path, n: usize) -> Result<Option<Snapshot>, StoreError> {
    let Some((sver, payload)) = SNAPSHOT.read(&dir.join(SNAPSHOT_FILE))? else {
        return Ok(None);
    };
    let corrupt = |error| StoreError::Corrupt {
        file: SNAPSHOT.file,
        error,
    };
    let mut input = payload.as_slice();
    let found = u32::decode_from(&mut input).map_err(corrupt)? as usize;
    if found != n {
        return Err(StoreError::ClientCountMismatch { expected: n, found });
    }
    let next_seq = u64::decode_from(&mut input).map_err(corrupt)?;
    let state = decode_state(&mut input, sver).map_err(corrupt)?;
    if !input.is_empty() {
        return Err(corrupt(WireError::TrailingBytes(input.len())));
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
    use crate::testutil::{
        clients, run_op, scratch_dir, sealed_damage, sealed_overwrite, sealed_roundtrip_and_absence,
    };
    use faust_crypto::sig::Signature;
    use faust_types::{ClientId, DigestVec, SignedVersion, TimestampVec, Value, Version};
    use faust_ustor::{CommitMode, Server, UstorServer};

    fn snapshot(n: usize, next_seq: u64) -> Snapshot {
        Snapshot {
            n,
            next_seq,
            state: UstorServer::new(n).export_state(),
        }
    }

    /// The payload of `snap` with `SVER` laid out as `sver`, encoded the
    /// long way.
    fn payload(snap: &Snapshot, sver: SverLayout) -> Vec<u8> {
        let mut payload = Vec::new();
        (snap.n as u32).encode_into(&mut payload);
        snap.next_seq.encode_into(&mut payload);
        encode_state(&snap.state, sver, &mut payload);
        payload
    }

    /// [`payload`] sealed as a version this build reads.
    fn file_bytes(snap: &Snapshot, version: u32) -> Vec<u8> {
        let row = SNAPSHOT.versions.iter().find(|row| row.0 == version);
        SNAPSHOT.seal(version, &payload(snap, row.unwrap().2))
    }

    #[test]
    fn roundtrip_and_absence() {
        let dir = scratch_dir("snap-roundtrip");
        sealed_roundtrip_and_absence(&SNAPSHOT, &dir.join("sealed.bin"));
        assert_eq!(read_snapshot(&dir, 3).unwrap(), None);
        let snap = snapshot(3, 42);
        write_snapshot(&dir, &snap, false).unwrap();
        assert_eq!(read_snapshot(&dir, 3).unwrap(), Some(snap));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overwrite_replaces_atomically() {
        let dir = scratch_dir("snap-overwrite");
        sealed_overwrite(&SNAPSHOT, &dir.join(SNAPSHOT_FILE));
        for next_seq in [1, 42] {
            let snap = snapshot(3, next_seq);
            write_snapshot(&dir, &snap, true).unwrap();
            assert_eq!(read_snapshot(&dir, 3).unwrap(), Some(snap));
        }
        assert!(!dir.join("snapshot.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_structured_not_a_panic() {
        let dir = scratch_dir("snap-corrupt");
        sealed_damage(&SNAPSHOT, &dir.join(SNAPSHOT_FILE));
        std::fs::remove_dir_all(&dir).ok();
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
        encode_state(&snap.state, SverLayout::Full, &mut payload);
        for (version, sealed_as) in [(2, 1), (4, 3)] {
            assert!(SNAPSHOT.versions.iter().all(|row| row.0 != version));
            // Framed as the readable version with the same checksum.
            let mut bytes = SNAPSHOT.seal(sealed_as, &payload);
            bytes[8..12].copy_from_slice(&u32::to_be_bytes(version));
            std::fs::write(dir.join(SNAPSHOT_FILE), bytes).unwrap();
            assert!(
                matches!(
                    read_snapshot(&dir, 2).unwrap_err(),
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
        assert_eq!(expected[8..12], 6u32.to_be_bytes());
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
        assert_eq!(read_snapshot(&dir, 3).unwrap(), Some(snap));
        // Cut inside the 32-byte digest: still a header problem.
        std::fs::write(&path, &bytes[..16 + 20]).unwrap();
        assert!(matches!(
            read_snapshot(&dir, 3).unwrap_err(),
            StoreError::TruncatedHeader { file: "snapshot" }
        ));
        for unknown in [0, 7, u32::MAX] {
            let mut bytes = file_bytes(&snapshot(3, 42), SNAPSHOT_VERSION);
            bytes[8..12].copy_from_slice(&unknown.to_be_bytes());
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(
                    read_snapshot(&dir, 3).unwrap_err(),
                    StoreError::UnsupportedVersion { file: "snapshot", version } if version == unknown
                ),
                "version {unknown}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bytes_after_the_payload_are_rejected_in_every_layout() {
        let dir = scratch_dir("snap-trailing");
        let path = dir.join(SNAPSHOT_FILE);
        for version in [1, 3, SNAPSHOT_VERSION] {
            let mut bytes = file_bytes(&snapshot(3, 42), version);
            bytes.push(0);
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(
                    read_snapshot(&dir, 3).unwrap_err(),
                    StoreError::Corrupt {
                        file: "snapshot",
                        error: WireError::TrailingBytes(1)
                    }
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
        let bytes = SNAPSHOT.seal(SNAPSHOT_VERSION, &payload);
        std::fs::write(dir.join(SNAPSHOT_FILE), bytes).unwrap();
        assert!(matches!(
            read_snapshot(&dir, 1 << 24).unwrap_err(),
            StoreError::Corrupt {
                file: "snapshot",
                error: WireError::Truncated
            }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_payload_claiming_2_pow_20_clients_is_refused_by_count_before_decoding() {
        // A v5 `SVER` chain of S bytes can describe about S²/90 entries,
        // so the claimed count is checked against the deployment's before
        // the garbage behind it reaches the state decoder.
        let dir = scratch_dir("snap-claimed-n");
        let mut payload = Vec::new();
        (1u32 << 20).encode_into(&mut payload);
        7u64.encode_into(&mut payload);
        payload.extend((0..64u8).map(|b| b.wrapping_mul(151)));
        let bytes = SNAPSHOT.seal(SNAPSHOT_VERSION, &payload);
        std::fs::write(dir.join(SNAPSHOT_FILE), bytes).unwrap();
        assert!(matches!(
            read_snapshot(&dir, 2).unwrap_err(),
            StoreError::ClientCountMismatch { expected: 2, found } if found == 1 << 20
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Runs `rounds` lock-step operations on a fresh `n`-client server,
    /// round `r` by client `pick(r)`; every fourth a read of the next
    /// client's register, the rest writes.
    fn lockstep(n: usize, rounds: u64, mut pick: impl FnMut(u64) -> usize) -> ServerState {
        let mut server = UstorServer::new(n);
        let mut cs = clients(n, b"snap-lockstep");
        for r in 0..rounds {
            let i = pick(r);
            let submit = if r % 4 == 3 {
                cs[i].begin_read(ClientId::new(((i + 1) % n) as u32))
            } else {
                cs[i].begin_write(Value::unique(i as u32, r))
            };
            run_op(&mut server, &mut cs[i], submit.unwrap());
        }
        server.export_state()
    }

    /// Three rounds in which every client has a window of 4 operations
    /// in flight at once, each COMMIT piggybacked on the next SUBMIT: `L`
    /// holds every client's window, and `SVER` versions that overlap.
    fn piggybacked(n: usize) -> ServerState {
        let mut server = UstorServer::new(n);
        let mut cs = clients(n, b"snap-piggyback");
        for c in &mut cs {
            c.set_commit_mode(CommitMode::Piggyback);
            c.set_pipeline(4);
        }
        for round in 0..3u64 {
            let mut replies = Vec::new();
            for (i, c) in cs.iter_mut().enumerate() {
                for k in 0..4 {
                    let submit = if k % 2 == 0 {
                        c.begin_write(Value::unique(i as u32, 4 * round + k))
                    } else {
                        c.begin_read(ClientId::new(((i + 1) % n) as u32))
                    };
                    replies.extend(server.on_submit(c.id(), submit.unwrap()));
                }
            }
            for (to, reply) in replies {
                cs[to.index()].handle_reply(reply).expect("correct server");
            }
        }
        server.export_state()
    }

    /// `SVER` no correct execution leaves, which the chain must still
    /// carry: pairwise incomparable versions that all weigh Σ V = 1, runs
    /// of identical ones, and one of the wrong arity (a Byzantine
    /// committer's, stored as received).
    fn incomparable_ties(n: usize) -> ServerState {
        let mut state = UstorServer::new(n).export_state();
        for k in 0..n {
            if k % 3 == 2 {
                state.sver[k] = state.sver[k - 1].clone();
                continue;
            }
            let (mut v, mut m) = (vec![0; n], vec![None; n]);
            let j = (k + 1) % n;
            (v[j], m[j]) = (1, Some(faust_crypto::sha256(&[k as u8])));
            state.sver[k] = SignedVersion {
                version: Version::new(TimestampVec::from_vec(v), DigestVec::from_vec(m)),
                sig: Some(Signature::garbage()),
            };
        }
        if n > 1 {
            state.sver[n / 2].version = Version::initial(n + 1);
        }
        state
    }

    /// A seeded random client order for [`lockstep`] (SplitMix64),
    /// stable across runs.
    fn seeded_order(n: usize) -> impl FnMut(u64) -> usize {
        let mut seed = 0x5EED_u64 + n as u64;
        move |_| {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// Every state shape the codec is pinned on, for `n` clients.
    fn states(n: usize) -> Vec<(&'static str, ServerState)> {
        vec![
            ("initial", UstorServer::new(n).export_state()),
            ("round robin", lockstep(n, 3 * n as u64, |r| r as usize % n)),
            ("random order", lockstep(n, 3 * n as u64, seeded_order(n))),
            ("piggybacked", piggybacked(n)),
            ("incomparable ties", incomparable_ties(n)),
        ]
    }

    #[test]
    fn every_state_shape_roundtrips_in_both_sver_layouts_deterministically() {
        for n in [1, 2, 5, 64] {
            for (name, state) in states(n) {
                for layout in [SverLayout::Full, SverLayout::Chain(EntryLayout::Compact)] {
                    let encode = || {
                        let mut bytes = Vec::new();
                        encode_state(&state, layout, &mut bytes);
                        bytes
                    };
                    let bytes = encode();
                    assert_eq!(
                        encode(),
                        bytes,
                        "n = {n}, {name}, {layout:?}: deterministic"
                    );
                    let mut input = bytes.as_slice();
                    let decoded = decode_state(&mut input, layout);
                    assert_eq!(decoded.as_ref(), Ok(&state), "n = {n}, {name}, {layout:?}");
                    assert!(input.is_empty(), "n = {n}, {name}, {layout:?}: consumed");
                }
                let snap = Snapshot {
                    n,
                    next_seq: 99,
                    state,
                };
                let dir = scratch_dir("snap-shapes");
                write_snapshot(&dir, &snap, false).unwrap();
                assert_eq!(
                    read_snapshot(&dir, n).unwrap(),
                    Some(snap),
                    "n = {n}, {name}"
                );
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }

    #[test]
    fn an_honest_n_64_snapshot_is_o_n_where_v3_was_o_n_squared() {
        // Round robin: 13 623 B against 176 352. A seeded random order:
        // 19 369 B against 174 000. (Snapshot v5's fixed-layout entries
        // took 13 875 and 21 568 B, and chaining in client order instead
        // of Σ V order 100 432 for the random one.)
        let n = 64;
        let shapes = [
            ("round robin", lockstep(n, 400, |r| r as usize % n), 20_000),
            ("random order", lockstep(n, 400, seeded_order(n)), 25_000),
        ];
        for (name, state, bound) in shapes {
            let snap = Snapshot {
                n,
                next_seq: 800,
                state,
            };
            let v3 = payload(&snap, SverLayout::Full).len();
            let v6 = payload(&snap, SverLayout::Chain(EntryLayout::Compact)).len();
            assert!(v3 > 170_000, "{name}: v3 payload {v3} B");
            assert!(v6 <= bound, "{name}: v6 payload {v6} B");
        }
    }
}
