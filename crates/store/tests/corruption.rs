//! Corruption suite: every way the on-disk log can rot or be tampered
//! with yields a *structured* [`StoreError`] from `recover` — never a
//! panic, never a silently-loaded prefix — and every damaged snapshot
//! payload, even one whose checksum was recomputed, is a typed error or a
//! state the server can load. The one corruption no local check can
//! catch — truncation at a record boundary — recovers "successfully"
//! into rolled-back state, which is the clients' job to detect (see
//! `tests/attacks.rs`).

use faust_store::codec::{encode_state, SverLayout};
use faust_store::log::{
    Framing, ScannedRecord, WalHeader, RECORD_OVERHEAD, WAL_FILE, WAL_HEADER_LEN,
};
use faust_store::snapshot::{read_snapshot, write_snapshot, Snapshot, SNAPSHOT, SNAPSHOT_FILE};
use faust_store::testutil::{self, clients, mutations, run_op};
use faust_store::{
    truncate_tail_records, Durability, LogCursor, PersistentServer, StoreConfig, StoreError,
};
use faust_types::{ClientId, Value, Version, Wire, WireError};
use faust_ustor::{CommitMode, ServerState, UstorServer};
use std::path::Path;

#[path = "fixtures/script.rs"]
mod script;

fn no_sync() -> StoreConfig {
    StoreConfig {
        durability: Durability::Never,
        ..StoreConfig::default()
    }
}

/// Builds a store with 6 committed records and returns its pristine log
/// bytes plus the record spans.
fn seeded_store(dir: &Path) -> (Vec<u8>, Vec<std::ops::Range<usize>>) {
    let n = 2;
    let mut server = PersistentServer::open(dir, n, no_sync()).unwrap();
    let mut cs = clients(n, b"corruption");
    for round in 0..3u64 {
        let i = (round % 2) as usize;
        let submit = cs[i].begin_write(Value::unique(i as u32, round)).unwrap();
        run_op(&mut server, &mut cs[i], submit);
    }
    assert_eq!(server.next_seq(), 6);
    drop(server);
    let bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
    let spans: Vec<_> = LogCursor::open(dir)
        .unwrap()
        .map(|record| record.unwrap().span)
        .collect();
    assert_eq!(spans.len(), 6);
    (bytes, spans)
}

fn write_log(dir: &Path, bytes: &[u8]) {
    std::fs::write(dir.join(WAL_FILE), bytes).unwrap();
}

#[test]
fn flipped_byte_is_a_checksum_mismatch() {
    let dir = testutil::scratch_dir("corrupt-flip");
    let (good, spans) = seeded_store(&dir);
    // Flip one payload byte of record 2 (past its length + checksum).
    let overhead = LogCursor::open(&dir).unwrap().header().framing.overhead();
    let mut bad = good.clone();
    bad[spans[2].start + overhead + 3] ^= 0x40;
    write_log(&dir, &bad);
    match PersistentServer::recover(&dir, 2, no_sync()).unwrap_err() {
        StoreError::RecordChecksum { seq } => assert_eq!(seq, 2),
        other => panic!("expected RecordChecksum, got {other}"),
    }

    // Flipping a byte of the stored *checksum* is the same mismatch.
    let mut bad = good.clone();
    bad[spans[4].start + 7] ^= 0x01;
    write_log(&dir, &bad);
    assert!(matches!(
        PersistentServer::recover(&dir, 2, no_sync()).unwrap_err(),
        StoreError::RecordChecksum { seq: 4 }
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncation_mid_record_is_a_torn_record() {
    let dir = testutil::scratch_dir("corrupt-torn");
    let (good, spans) = seeded_store(&dir);
    // Cut inside the last record's payload.
    write_log(&dir, &good[..spans[5].end - 5]);
    match PersistentServer::recover(&dir, 2, no_sync()).unwrap_err() {
        StoreError::TornRecord { seq, missing } => {
            assert_eq!(seq, 5);
            assert_eq!(missing, 5);
        }
        other => panic!("expected TornRecord, got {other}"),
    }

    // Cut inside the length/checksum prefix of record 3.
    write_log(&dir, &good[..spans[3].start + 2]);
    assert!(matches!(
        PersistentServer::recover(&dir, 2, no_sync()).unwrap_err(),
        StoreError::TornRecord { seq: 3, .. }
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicated_tail_is_a_duplicate_record() {
    let dir = testutil::scratch_dir("corrupt-dup");
    let (good, spans) = seeded_store(&dir);
    // Append a byte-exact copy of the final record: every checksum
    // holds, but seq 5 appears twice.
    let mut bad = good.clone();
    bad.extend_from_slice(&good[spans[5].clone()]);
    write_log(&dir, &bad);
    assert!(matches!(
        PersistentServer::recover(&dir, 2, no_sync()).unwrap_err(),
        StoreError::DuplicateRecord {
            expected: 6,
            found: 5
        }
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spliced_out_middle_record_is_a_sequence_gap() {
    let dir = testutil::scratch_dir("corrupt-gap");
    let (good, spans) = seeded_store(&dir);
    let mut bad = good[..spans[1].start].to_vec();
    bad.extend_from_slice(&good[spans[2].start..]); // drop record 1
    write_log(&dir, &bad);
    assert!(matches!(
        PersistentServer::recover(&dir, 2, no_sync()).unwrap_err(),
        StoreError::SequenceGap {
            expected: 1,
            found: 2
        }
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hostile_length_prefix_is_rejected_without_allocating() {
    let dir = testutil::scratch_dir("corrupt-len");
    let (good, spans) = seeded_store(&dir);
    let mut bad = good[..spans[5].start].to_vec();
    bad.extend_from_slice(&u32::MAX.to_be_bytes());
    bad.extend_from_slice(&[0u8; 40]); // some trailing garbage
    write_log(&dir, &bad);
    assert!(matches!(
        PersistentServer::recover(&dir, 2, no_sync()).unwrap_err(),
        StoreError::ImplausibleRecordLength { seq: 5, .. }
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_tail_is_repairable_with_zero_record_truncation() {
    // The honest-operator path after a real crash: strict recovery
    // refuses the torn tail; `truncate_tail_records(dir, 0)` discards
    // exactly the torn bytes — no valid (acknowledged) record is lost —
    // and recovery then proceeds.
    let dir = testutil::scratch_dir("corrupt-repair");
    let (good, spans) = seeded_store(&dir);
    write_log(&dir, &good[..spans[5].end - 5]); // record 5 torn
    assert!(matches!(
        PersistentServer::recover(&dir, 2, no_sync()).unwrap_err(),
        StoreError::TornRecord { seq: 5, .. }
    ));
    assert_eq!(truncate_tail_records(&dir, 0).unwrap(), 5);
    let recovered = PersistentServer::recover(&dir, 2, no_sync()).expect("repaired");
    assert_eq!(recovered.next_seq(), 5, "all complete records kept");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn boundary_truncation_recovers_locally_but_rolls_back() {
    // The rollback attack: drop the last 2 records at a record boundary.
    // Local recovery has nothing to object to — and that is the point:
    // the resulting regression is detectable only by clients (proved
    // end-to-end in tests/attacks.rs and tests/crash_recovery.rs).
    let dir = testutil::scratch_dir("corrupt-rollback");
    let (_, spans) = seeded_store(&dir);
    assert_eq!(spans.len(), 6);
    assert_eq!(truncate_tail_records(&dir, 2).unwrap(), 4);
    let recovered = PersistentServer::recover(&dir, 2, no_sync()).unwrap();
    assert_eq!(recovered.next_seq(), 4, "state silently rolled back");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recover_never_panics_on_random_tail_garbage() {
    // Shotgun: append random-ish garbage of every length 1..64 to a
    // pristine log; recovery must always return Err or Ok, never panic.
    let dir = testutil::scratch_dir("corrupt-shotgun");
    let (good, _) = seeded_store(&dir);
    for len in 1..64usize {
        let mut bad = good.clone();
        for k in 0..len {
            bad.push((k as u8).wrapping_mul(37).wrapping_add(len as u8));
        }
        write_log(&dir, &bad);
        let _ = PersistentServer::recover(&dir, 2, no_sync());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The log in `dir` as a [`LogCursor`] walks it: its header, the records
/// in front of the first anomaly, and that anomaly. Header problems are
/// the `Err`.
fn walk(dir: &Path) -> Result<(WalHeader, Vec<ScannedRecord>, Option<StoreError>), StoreError> {
    let cursor = LogCursor::open(dir)?;
    let header = cursor.header();
    let mut records = Vec::new();
    for item in cursor {
        match item {
            Ok(record) => records.push(record),
            Err(anomaly) => return Ok((header, records, Some(anomaly))),
        }
    }
    Ok((header, records, None))
}

/// Runs the harness over the pristine log at `dir`: whatever the damage,
/// the walk ends in a typed error after exactly the records in front of
/// it — never a panic, never a shorter log passed off as whole. Three
/// outcomes end without an anomaly by construction and are pinned as
/// such: a cut at a record boundary is the rollback no local check can
/// see (`boundary_truncation_recovers_locally_but_rolls_back`), the
/// header's client count has nothing in the file to contradict it —
/// `recover` compares it with the count it was asked for — and a version
/// flip from 2 to 3 reads the same records, because version 3 only adds
/// a record form.
fn sweep_log(dir: &Path, framing: Framing, n: usize) {
    let good = std::fs::read(dir.join(WAL_FILE)).unwrap();
    let (header, pristine, None) = walk(dir).unwrap() else {
        panic!("the pristine log walks to its end");
    };
    assert_eq!(header.framing, framing);
    assert!(pristine.len() >= 4);
    let encoded = |records: &[ScannedRecord]| -> Vec<(u64, Vec<u8>)> {
        records
            .iter()
            .map(|r| (r.seq, faust_types::Wire::encode(&r.record)))
            .collect()
    };
    let want = encoded(&pristine);
    for (at, bad) in mutations(&good) {
        write_log(dir, &bad);
        if at < WAL_HEADER_LEN {
            // magic 0..8 | version 8..12 | n 12..16 | base_seq 16..24
            let cut = bad.len() < good.len();
            match (walk(dir), at) {
                (Err(StoreError::TruncatedHeader { file: "wal" }), _) if cut => {}
                (Err(StoreError::BadMagic { file: "wal" }), 0..=7) if !cut => {}
                (Err(StoreError::UnsupportedVersion { file: "wal", .. }), 8..=11) if !cut => {}
                // Another known version: v2 → v3 reads the very records,
                // anything else misframes them or meets a delta it must
                // not accept — and the walk yields only records that are
                // exactly the pristine ones.
                (Ok((flipped, records, None)), 11) if !cut => {
                    assert_ne!(flipped.framing, framing);
                    assert_eq!(encoded(&records), want);
                }
                (
                    Ok((
                        _,
                        records,
                        Some(
                            StoreError::RecordCorrupt { .. }
                            | StoreError::RecordChecksum { .. }
                            | StoreError::TornRecord { .. }
                            | StoreError::ImplausibleRecordLength { .. },
                        ),
                    )),
                    11,
                ) if !cut => {
                    let prefix = encoded(&records);
                    assert_eq!(prefix, want[..prefix.len()], "version flip");
                }
                (Ok((flipped, records, None)), 12..=15) if !cut => {
                    assert_ne!(flipped.n, n);
                    assert_eq!(encoded(&records), want);
                    assert!(matches!(
                        PersistentServer::recover(dir, n, no_sync()),
                        Err(StoreError::ClientCountMismatch { .. })
                    ));
                }
                // Except that a delta resolves only against a base of
                // the header's arity: the first one in the file objects.
                (
                    Ok((
                        _,
                        records,
                        Some(StoreError::RecordCorrupt {
                            seq,
                            error: WireError::BadLength(arity),
                        }),
                    )),
                    12..=15,
                ) if !cut && framing.commit_deltas() => {
                    assert_eq!(arity, n as u64);
                    let intact = (seq - header.base_seq) as usize;
                    assert_eq!(encoded(&records), want[..intact]);
                }
                // A base_seq flip renumbers the file under its records.
                (
                    Ok((
                        _,
                        _,
                        Some(StoreError::DuplicateRecord { .. } | StoreError::SequenceGap { .. }),
                    )),
                    16..=23,
                ) if !cut => {}
                (other, _) => panic!("header damage at {at} (cut: {cut}): {other:?}"),
            }
            continue;
        }
        // Records wholly in front of the damage.
        let intact = pristine.iter().take_while(|r| r.span.end <= at).count();
        let (_, prefix, anomaly) = walk(dir).unwrap();
        assert_eq!(encoded(&prefix), want[..intact], "damage at {at}");
        let boundary_cut = bad.len() < good.len()
            && (at == WAL_HEADER_LEN || pristine.iter().any(|r| r.span.end == at));
        match anomaly {
            None => assert!(boundary_cut, "damage at {at} went unnoticed"),
            Some(
                StoreError::TornRecord { seq, .. }
                | StoreError::RecordChecksum { seq }
                | StoreError::ImplausibleRecordLength { seq, .. },
            ) => {
                assert!(!boundary_cut);
                assert_eq!(seq, header.base_seq + intact as u64);
            }
            Some(other) => panic!("damage at {at}: unexpected {other}"),
        }
    }
}

/// Whether `r` is stored as a delta: shorter than in full.
fn is_delta(r: &ScannedRecord) -> bool {
    r.span.len() < RECORD_OVERHEAD + 8 + faust_types::Wire::encoded_len(&r.record)
}

/// Records of `dir`'s log stored as deltas.
fn deltas(dir: &Path) -> usize {
    LogCursor::open(dir)
        .unwrap()
        .map(Result::unwrap)
        .filter(is_delta)
        .count()
}

#[test]
fn every_truncation_and_bit_flip_of_a_v1_v2_and_v3_log_is_typed() {
    // v1 to v4: the checked-in logs older builds wrote (SHA-256, then
    // XXH64 framing, every record in full; then the COMMITs after the
    // file's first as deltas of fixed-layout entries, in versions 3 and
    // 4).
    for (version, framing, delta_records) in [
        ("v1", Framing::V1, 0),
        ("v2", Framing::V2, 0),
        ("v3", Framing::V3, 2),
        ("v4", Framing::V4, 2),
    ] {
        let dir = testutil::scratch_dir(&format!("corrupt-sweep-{version}"));
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
        std::fs::copy(fixture.join(version).join(WAL_FILE), dir.join(WAL_FILE)).unwrap();
        if framing.commit_deltas() {
            assert_eq!(deltas(&dir), delta_records, "{version}");
        }
        sweep_log(&dir, framing, script::N);
        std::fs::remove_dir_all(&dir).ok();
    }

    // v5: a log this tree wrote, holding every record form. Client 0
    // writes and piggybacks each COMMIT on its next SUBMIT: a delta (tag
    // 4) against client 1's last COMMIT, which differs from it in client
    // 1's entry alone. Client 1 reads twice and commits each read on its
    // own, each a delta (tag 3) — the first of two entries, since client
    // 0's entry moved too (client 0's newest write is pending) — but the
    // file's first COMMIT, which has no base and is in full.
    let v5 = testutil::scratch_dir("corrupt-sweep-v5");
    let mut server = PersistentServer::open(&v5, 2, no_sync()).unwrap();
    let mut cs = clients(2, b"corruption-v4");
    cs[0].set_commit_mode(CommitMode::Piggyback);
    for round in 0..3u64 {
        let submit = cs[0].begin_write(Value::unique(0, round)).unwrap();
        run_op(&mut server, &mut cs[0], submit);
        for _ in 0..2 {
            let submit = cs[1].begin_read(ClientId::new(0)).unwrap();
            run_op(&mut server, &mut cs[1], submit);
        }
    }
    drop(server);
    let forms: Vec<(bool, bool)> = LogCursor::open(&v5)
        .unwrap()
        .map(Result::unwrap)
        .map(|r| (r.record.commit().is_some(), is_delta(&r)))
        .collect();
    // (carries a COMMIT, stored as a delta), record by record.
    let (none, full, delta) = ((false, false), (true, false), (true, true));
    let first = [none, none, full, none, delta];
    let then = [delta, none, delta, none, delta];
    assert_eq!(forms, [&first[..], &then, &then].concat());
    sweep_log(&v5, Framing::V5, 2);
    std::fs::remove_dir_all(&v5).ok();
}

/// Marks every byte of `payload` that lies inside a signature or a digest
/// of `state`: content with no redundancy, where any flip still parses.
fn signature_and_digest_bytes(payload: &[u8], state: &ServerState) -> Vec<bool> {
    let mut needles: Vec<&[u8]> = Vec::new();
    let sigs = state.mem.iter().filter_map(|e| e.data_sig.as_ref());
    let sigs = sigs.chain(state.sver.iter().filter_map(|s| s.sig.as_ref()));
    let sigs = sigs.chain(state.proofs.iter().flatten());
    let sigs = sigs.chain(state.pending.iter().map(|t| &t.sig));
    needles.extend(sigs.map(|sig| sig.as_bytes()));
    for signed in &state.sver {
        needles.extend(
            signed
                .version
                .m()
                .as_slice()
                .iter()
                .flatten()
                .map(|d| d.as_bytes().as_slice()),
        );
    }
    let mut marked = vec![false; payload.len()];
    for needle in needles {
        for at in 0..=payload.len() - needle.len() {
            if &payload[at..at + needle.len()] == needle {
                marked[at..at + needle.len()].fill(true);
            }
        }
    }
    marked
}

/// Runs the mutation harness over the payload of the snapshot file
/// `file`, re-sealing every mutant under a recomputed checksum so the
/// payload parser, not the checksum, meets it. Every cut is a typed
/// error; a flip is a typed error or loads — always where it lands in a
/// signature or a digest, and sometimes elsewhere (timestamps, values,
/// `next_seq` carry no redundancy either) — and what loads is a state
/// the server can be built from, never the pristine snapshot passed off
/// as whole.
fn sweep_snapshot(label: &str, file: &[u8]) {
    let dir = testutil::scratch_dir(label);
    let path = dir.join(SNAPSHOT_FILE);
    let version = u32::from_be_bytes(file[8..12].try_into().unwrap());
    let len = u32::from_be_bytes(file[12..16].try_into().unwrap()) as usize;
    let good = &file[file.len() - len..];
    let n = u32::from_be_bytes(good[..4].try_into().unwrap()) as usize;
    std::fs::write(&path, file).unwrap();
    let pristine = read_snapshot(&dir, n).unwrap().unwrap();
    let opaque = signature_and_digest_bytes(good, &pristine.state);
    assert!(
        opaque.iter().any(|&o| o),
        "{label}: the payload holds signatures"
    );
    let mut loaded = 0;
    for (at, bad) in mutations(good) {
        std::fs::write(&path, SNAPSHOT.seal(version, &bad)).unwrap();
        let cut = bad.len() < good.len();
        match read_snapshot(&dir, n) {
            Err(
                StoreError::Corrupt {
                    file: "snapshot", ..
                }
                | StoreError::ClientCountMismatch { .. },
            ) => {
                assert!(
                    cut || !opaque[at],
                    "{label}: flip at {at} in a signature or digest"
                );
            }
            Ok(Some(snap)) if !cut => {
                assert_ne!(snap, pristine, "{label}: flip at {at} went unnoticed");
                drop(UstorServer::from_state(snap.state));
                loaded += 1;
            }
            other => panic!("{label}: damage at {at} (cut: {cut}): {other:?}"),
        }
    }
    assert!(loaded >= opaque.iter().filter(|&&o| o).count() * 8);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_truncation_and_bit_flip_of_a_v3_and_a_v5_snapshot_payload_is_typed() {
    // v3 and v5: the checked-in snapshots older builds wrote (every
    // `SVER` entry in full; `SVER` chained, its delta in fixed-layout
    // entries). v6: the same script, run by this tree (the chain's delta
    // compact), and a round-robin state of 4 clients, whose chain holds
    // several deltas.
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for (fixture, version) in [("v3", 3u32), ("v4", 5)] {
        let old = std::fs::read(fixtures.join(fixture).join(SNAPSHOT_FILE)).unwrap();
        assert_eq!(old[8..12], version.to_be_bytes());
        sweep_snapshot(&format!("snap-sweep-v{version}"), &old);
    }

    let dir = testutil::scratch_dir("snap-sweep-v6");
    drop(script::run(&dir));
    let v6 = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
    assert_eq!(v6[8..12], 6u32.to_be_bytes());
    sweep_snapshot("snap-sweep-v6", &v6);

    let n = 4;
    let mut server = UstorServer::new(n);
    let mut cs = clients(n, b"snap-sweep");
    for round in 0..3 * n as u64 {
        let i = round as usize % n;
        let submit = cs[i].begin_write(Value::unique(i as u32, round)).unwrap();
        run_op(&mut server, &mut cs[i], submit);
    }
    let snap = Snapshot {
        n,
        next_seq: 24,
        state: server.export_state(),
    };
    write_snapshot(&dir, &snap, false).unwrap();
    sweep_snapshot(
        "snap-sweep-v6-n4",
        &std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap(),
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A payload for the initial 2-client state whose `SVER` section is
/// `sver`, sealed as a file of snapshot version `version`.
fn file_with_sver(version: u32, sver: &[u8]) -> Vec<u8> {
    let state = UstorServer::new(2).export_state();
    let mut full = Vec::new();
    encode_state(&state, SverLayout::Full, &mut full);
    let tail = state.proofs.encoded_len()
        + state.last_committer.encoded_len()
        + state.pending.encoded_len();
    let sver_end = full.len() - tail;
    let mem_end = sver_end - state.sver.encoded_len();
    let mut payload = Vec::new();
    2u32.encode_into(&mut payload);
    7u64.encode_into(&mut payload);
    payload.extend_from_slice(&full[..mem_end]);
    payload.extend_from_slice(sver);
    payload.extend_from_slice(&full[sver_end..]);
    SNAPSHOT.seal(version, &payload)
}

#[test]
fn malformed_v5_sver_chains_are_typed_errors() {
    // Snapshot versions 5 and 6 lay out the chain alike; only the
    // entries of its deltas differ.
    let dir = testutil::scratch_dir("snap-v5-chain");
    let initial = Version::initial(2).encode();
    // `k | version | sig`, the signature absent.
    let entry = |k: u32, version: &[u8]| {
        let mut bytes = k.to_be_bytes().to_vec();
        bytes.extend_from_slice(version);
        bytes.push(0);
        bytes
    };
    let delta = |count: u32| ((1u32 << 31) | count).to_be_bytes().to_vec();
    // One entry, `(1, 5, ⊥)`, in each layout.
    let fixed = [
        &delta(1)[..],
        &1u32.to_be_bytes(),
        &5u64.to_be_bytes(),
        &[0],
    ]
    .concat();
    let compact = [&delta(1)[..], &[1 << 1], &5u64.to_be_bytes()].concat();
    for (version, one) in [(5, fixed), (6, compact)] {
        let well_formed = [entry(1, &initial), entry(0, &delta(0))].concat();
        std::fs::write(
            dir.join(SNAPSHOT_FILE),
            file_with_sver(version, &well_formed),
        )
        .unwrap();
        let snap = read_snapshot(&dir, 2).unwrap().unwrap();
        assert_eq!(snap.state, UstorServer::new(2).export_state());
        let moved = [entry(1, &initial), entry(0, &one)].concat();
        std::fs::write(dir.join(SNAPSHOT_FILE), file_with_sver(version, &moved)).unwrap();
        let snap = read_snapshot(&dir, 2).unwrap().unwrap();
        assert_eq!(
            snap.state.sver[0].version.v().as_slice(),
            [0, 5],
            "v{version}"
        );

        let cases = [
            // The first entry has no base to be a delta against: its count
            // word reads as a full version's length prefix, out of range.
            ("first entry a delta", entry(0, &delta(1)), (1 << 31) | 1),
            (
                "k = n",
                [entry(1, &initial), entry(2, &initial)].concat(),
                2,
            ),
            (
                "repeated k",
                [entry(0, &initial), entry(0, &delta(0))].concat(),
                0,
            ),
            // 2²⁴ entries claimed, none there: refused by count, nothing
            // reserved.
            (
                "count 2^24",
                [entry(1, &initial), entry(0, &delta(1 << 24))].concat(),
                1 << 24,
            ),
        ];
        for (name, sver, claim) in cases {
            std::fs::write(dir.join(SNAPSHOT_FILE), file_with_sver(version, &sver)).unwrap();
            match read_snapshot(&dir, 2) {
                Err(StoreError::Corrupt {
                    file: "snapshot",
                    error: WireError::BadLength(found),
                }) => {
                    assert_eq!(found, claim, "v{version}: {name}");
                }
                other => panic!("v{version}: {name}: {other:?}"),
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
