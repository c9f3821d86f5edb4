//! Container-format tests: round-trip fidelity and typed rejection of
//! every class of damaged file. The sealed header keeps the contract
//! every `faust-store` sealed format keeps, and one sweep over the
//! mutation harness `snapshot.bin`, `wal.bin` and `FAUSTSES` share
//! asserts that *any* bit flip and *any* truncation — manifest, record
//! header, record payload, signature bytes — is rejected with a typed
//! error, never a panic and never silent acceptance, and that a damaged
//! record is named by its own offset.

use faust_audit::{export_records, HistoryFileError, Section, SessionHistory, HISTORY};
use faust_crypto::{sha256, SigScheme};
use faust_store::testutil::{
    clients, mutations, scratch_dir, sealed_damage, sealed_overwrite, sealed_roundtrip_and_absence,
};
use faust_store::{LogRecord, StoreError};
use faust_types::{ClientId, History, Value, Wire, WireError};
use faust_ustor::{Server, UstorServer};

/// Drives an honest 2-client session against a fresh in-memory server,
/// capturing the accepted records exactly as a WAL would.
fn honest_session(ops_per_client: u64) -> SessionHistory {
    let n = 2;
    let mut server = UstorServer::new(n);
    let mut cs = clients(n, b"container-tests");
    let mut records: Vec<(u64, LogRecord)> = Vec::new();
    let mut seq = 0u64;
    let mut history = History::new();
    let mut now = 0u64;
    for round in 0..ops_per_client {
        for i in 0..n {
            let id = ClientId::new(i as u32);
            let (submit, op_id) = if i == 0 {
                let value = Value::unique(i as u32, round);
                let op = history.begin_write(id, value.clone(), now);
                (cs[i].begin_write(value).unwrap(), op)
            } else {
                let target = ClientId::new(0);
                let op = history.begin_read(id, target, now);
                (cs[i].begin_read(target).unwrap(), op)
            };
            now += 1;
            records.push((
                seq,
                LogRecord::Submit {
                    from: id,
                    msg: submit.clone(),
                },
            ));
            seq += 1;
            let replies = server.on_submit(id, submit);
            let (_, reply) = replies.into_iter().find(|(to, _)| *to == id).unwrap();
            let (commit, completion) = cs[i].handle_reply(reply).unwrap();
            let commit = commit.expect("immediate mode");
            match completion.kind {
                faust_types::OpKind::Write => {
                    history.complete_write(op_id, now, Some(completion.timestamp));
                }
                faust_types::OpKind::Read => {
                    history.complete_read(
                        op_id,
                        now,
                        completion.read_value.clone().unwrap_or(None),
                        Some(completion.timestamp),
                    );
                }
            }
            now += 1;
            records.push((
                seq,
                LogRecord::Commit {
                    from: id,
                    msg: commit.clone(),
                },
            ));
            seq += 1;
            server.on_commit(id, commit);
        }
    }
    export_records(n, SigScheme::Hmac, None, records, Some(history))
}

#[test]
fn roundtrip_preserves_everything() {
    let session = honest_session(3);
    let bytes = session.encode();
    let decoded = SessionHistory::decode(&bytes).expect("clean container decodes");
    assert_eq!(decoded.n, session.n);
    assert_eq!(decoded.scheme, session.scheme);
    assert_eq!(decoded.base_seq, session.base_seq);
    assert_eq!(decoded.records, session.records);
    assert_eq!(decoded.claimed_chain, session.claimed_chain);
    assert_eq!(decoded.claimed_proofs, session.claimed_proofs);
    let original = session.client_history.as_ref().unwrap();
    let roundtripped = decoded.client_history.as_ref().unwrap();
    assert_eq!(roundtripped.ops(), original.ops());
    // Re-encoding the decoded history is byte-identical (canonical form).
    assert_eq!(decoded.encode(), bytes);
}

#[test]
fn write_read_roundtrip_on_disk() {
    let session = honest_session(2);
    let dir = scratch_dir("audit-container-rt");
    let path = dir.join("session.fausthis");
    session.write_to(&path).expect("write container");
    let back = SessionHistory::read_from(&path).expect("read container");
    assert_eq!(back.records, session.records);
    assert!(matches!(
        SessionHistory::read_from(&dir.join("missing.fausthis")),
        Err(HistoryFileError::Sealed(StoreError::Io(_)))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_history_header_keeps_the_sealed_file_contract() {
    let dir = scratch_dir("audit-container-sealed");
    sealed_roundtrip_and_absence(&HISTORY, &dir.join("a.fausthis"));
    sealed_overwrite(&HISTORY, &dir.join("b.fausthis"));
    sealed_damage(&HISTORY, &dir.join("c.fausthis"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_preamble_is_typed() {
    let bytes = honest_session(1).encode();
    for cut in [&bytes[..7], &[]] {
        assert!(matches!(
            SessionHistory::decode(cut),
            Err(HistoryFileError::Sealed(StoreError::TruncatedHeader {
                file: "history"
            }))
        ));
    }
}

#[test]
fn bad_magic_is_typed() {
    let mut bytes = honest_session(1).encode();
    bytes[0] ^= 0x01;
    assert!(matches!(
        SessionHistory::decode(&bytes),
        Err(HistoryFileError::Sealed(StoreError::BadMagic {
            file: "history"
        }))
    ));
}

#[test]
fn unsupported_version_is_typed() {
    let mut bytes = honest_session(1).encode();
    bytes[11] = 99;
    assert!(matches!(
        SessionHistory::decode(&bytes),
        Err(HistoryFileError::Sealed(StoreError::UnsupportedVersion {
            file: "history",
            version: 99
        }))
    ));
}

#[test]
fn manifest_bit_flip_is_pinned_to_the_manifest() {
    let mut bytes = honest_session(1).encode();
    // First manifest byte lives right after the sealed header: magic,
    // version, length and a 32-byte digest.
    bytes[48] ^= 0x80;
    assert!(matches!(
        SessionHistory::decode(&bytes),
        Err(HistoryFileError::Sealed(StoreError::Checksum {
            file: "history"
        }))
    ));
}

#[test]
fn record_region_flips_are_pinned_to_the_record() {
    let clean = honest_session(2).encode();
    let mut record_errors = 0;
    for (at, bad) in mutations(&clean) {
        match SessionHistory::decode(&bad) {
            Ok(_) => panic!("damage at byte {at}/{} went undetected", clean.len()),
            // The named offset is the frame of the record the damage
            // landed in (or the one it derailed); it must not point past
            // the damage.
            Err(HistoryFileError::Record { offset, .. }) => {
                assert!(offset <= at, "offset {offset} past damage at {at}");
                record_errors += 1;
            }
            Err(_) => {}
        }
    }
    // A healthy share of the file is record bytes; the sweep must have
    // exercised the per-record path many times.
    assert!(record_errors > 100, "only {record_errors} record errors");
}

#[test]
fn every_single_byte_flip_is_rejected() {
    let clean = honest_session(1).encode();
    for pos in 0..clean.len() {
        let mut bytes = clean.clone();
        bytes[pos] ^= 0x01;
        assert!(
            SessionHistory::decode(&bytes).is_err(),
            "flip at byte {pos}/{} went undetected",
            clean.len()
        );
    }
}

#[test]
fn every_truncation_is_rejected() {
    let clean = honest_session(1).encode();
    for len in 0..clean.len() {
        assert!(
            SessionHistory::decode(&clean[..len]).is_err(),
            "truncation to {len}/{} went undetected",
            clean.len()
        );
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut bytes = honest_session(1).encode();
    let offset = bytes.len();
    bytes.push(0);
    assert!(matches!(
        SessionHistory::decode(&bytes),
        Err(HistoryFileError::TrailingBytes { offset: o }) if o == offset
    ));
}

#[test]
fn leftover_client_history_bytes_are_counted() {
    // The client-history section grows by two bytes its decoder does not
    // read, under a recomputed section digest and a re-sealed manifest:
    // the error counts them.
    let session = honest_session(1);
    let history = session.client_history.as_ref().unwrap().encode();
    let mut longer = history.clone();
    longer.extend_from_slice(&[0, 0]);
    let mut bytes = session.encode();
    bytes.extend_from_slice(&[0, 0]);
    // The manifest's `len: u32 | sha256` entry for the section, found by
    // its digest.
    let digest = sha256(&history);
    let at = bytes
        .windows(32)
        .position(|w| w == digest.as_bytes())
        .unwrap();
    bytes[at - 4..at].copy_from_slice(&(longer.len() as u32).to_be_bytes());
    bytes[at..at + 32].copy_from_slice(sha256(&longer).as_bytes());
    // magic 0..8 | version 8..12 | manifest_len 12..16 | sha256 16..48
    let manifest_len = u32::from_be_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let resealed = sha256(&bytes[48..48 + manifest_len]);
    bytes[16..48].copy_from_slice(resealed.as_bytes());
    assert!(matches!(
        SessionHistory::decode(&bytes),
        Err(HistoryFileError::HistoryCorrupt {
            error: WireError::TrailingBytes(2)
        })
    ));
}

#[test]
fn section_truncation_names_the_section() {
    let session = honest_session(1);
    let bytes = session.encode();
    // Drop the final byte: the client-history section (last) is torn.
    match SessionHistory::decode(&bytes[..bytes.len() - 1]) {
        Err(HistoryFileError::SectionTruncated { section, .. }) => {
            assert_eq!(section, Section::ClientHistory);
        }
        other => panic!("expected SectionTruncated, got {other:?}"),
    }
}

#[test]
fn dimension_mismatch_is_rejected() {
    let mut session = honest_session(1);
    session.claimed_chain.pop();
    let bytes = session.encode();
    match SessionHistory::decode(&bytes) {
        Err(HistoryFileError::DimensionMismatch {
            expected, found, ..
        }) => {
            assert_eq!(expected, 2);
            assert_eq!(found, 1);
        }
        other => panic!("expected DimensionMismatch, got {other:?}"),
    }
}

#[test]
fn renumbered_records_are_rejected() {
    let mut session = honest_session(1);
    // Give the last record a gapped sequence number; the container
    // requires consecutive sequences from base_seq.
    let last = session.records.len() - 1;
    session.records[last].0 += 5;
    let bytes = session.encode();
    // The last record's frame: `len | sha256 | seq ‖ record`, right in
    // front of the client-history section.
    let history = session.client_history.as_ref().unwrap().encode().len();
    let frame = 4 + 32 + 8 + session.records[last].1.encoded_len();
    match SessionHistory::decode(&bytes) {
        Err(HistoryFileError::Record {
            offset,
            error: StoreError::SequenceGap { expected, found },
        }) => {
            assert_eq!(offset, bytes.len() - history - frame);
            assert_eq!(expected, last as u64);
            assert_eq!(found, last as u64 + 5);
        }
        other => panic!("expected a SequenceGap record error, got {other:?}"),
    }
}
