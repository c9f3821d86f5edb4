//! Certifier tests: honest sessions certify, and every tamper class —
//! removed records, altered values, forged commits, dishonest claims,
//! misreported client views, forked schedules — is reported with the
//! exact first divergent version and, for forks, the signed evidence
//! pair.

use faust_audit::{audit, export_records, AuditVerdict, Divergence, SessionHistory, SigKind};
use faust_crypto::sig::KeySet;
use faust_crypto::SigScheme;
use faust_store::testutil::clients;
use faust_store::LogRecord;
use faust_types::{ClientId, History, OpKind, Value};
use faust_ustor::{Server, UstorClient, UstorServer};

fn registry(n: usize, seed: &[u8]) -> faust_crypto::VerifierRegistry {
    KeySet::generate(n, seed).registry()
}

/// One fully-driven operation: submit + commit, recorded like a WAL
/// would, with the client-side observation appended to `history`.
fn drive_op(
    server: &mut UstorServer,
    client: &mut UstorClient,
    records: &mut Vec<(u64, LogRecord)>,
    history: &mut History,
    now: &mut u64,
    op: Op,
) {
    let id = client.id();
    let (submit, op_id) = match op {
        Op::Write(value) => {
            let op_id = history.begin_write(id, value.clone(), *now);
            (client.begin_write(value).unwrap(), op_id)
        }
        Op::Read(target) => {
            let op_id = history.begin_read(id, target, *now);
            (client.begin_read(target).unwrap(), op_id)
        }
    };
    *now += 1;
    records.push((
        records.len() as u64,
        LogRecord::Submit {
            from: id,
            msg: submit.clone(),
        },
    ));
    let replies = server.on_submit(id, submit);
    let (_, reply) = replies.into_iter().find(|(to, _)| *to == id).unwrap();
    let (commit, completion) = client.handle_reply(reply).unwrap();
    let commit = commit.expect("immediate mode");
    match completion.kind {
        OpKind::Write => history.complete_write(op_id, *now, Some(completion.timestamp)),
        OpKind::Read => history.complete_read(
            op_id,
            *now,
            completion.read_value.clone().unwrap_or(None),
            Some(completion.timestamp),
        ),
    }
    *now += 1;
    records.push((
        records.len() as u64,
        LogRecord::Commit {
            from: id,
            msg: commit.clone(),
        },
    ));
    server.on_commit(id, commit);
}

enum Op {
    Write(Value),
    Read(ClientId),
}

/// A three-client honest session: interleaved writes and reads.
fn honest_session(seed: &[u8], rounds: u64) -> SessionHistory {
    let n = 3;
    let mut server = UstorServer::new(n);
    let mut cs = clients(n, seed);
    let mut records = Vec::new();
    let mut history = History::new();
    let mut now = 0u64;
    for round in 0..rounds {
        for i in 0..n {
            let op = if i % 2 == 0 {
                Op::Write(Value::unique(i as u32, round))
            } else {
                Op::Read(ClientId::new(((i + 1) % n) as u32))
            };
            let (left, right) = cs.split_at_mut(i + 1);
            let client = &mut left[i];
            let _ = right;
            drive_op(
                &mut server,
                client,
                &mut records,
                &mut history,
                &mut now,
                op,
            );
        }
    }
    export_records(n, SigScheme::Hmac, None, records, Some(history))
}

/// Re-derives the container after structural tampering: re-encode and
/// re-decode so every checksum is consistent — the container passes all
/// integrity checks and only the *auditor* can convict.
fn relaunder(session: &SessionHistory) -> SessionHistory {
    SessionHistory::decode(&session.encode()).expect("tampered container re-checksummed cleanly")
}

#[test]
fn honest_run_certifies() {
    let seed = b"certifier-honest";
    let session = honest_session(seed, 4);
    let report = audit(&session, &registry(3, seed)).unwrap();
    match report.verdict {
        AuditVerdict::Certified {
            fork_linearizable,
            ops,
            clients,
        } => {
            assert!(fork_linearizable, "honest history must certify");
            assert_eq!(ops, 12);
            assert_eq!(clients, 3);
        }
        other => panic!("expected certification, got {other:?}"),
    }
    assert_eq!(report.records_replayed, 24);
    assert!(report.signatures_checked >= 24 * 2);
}

#[test]
fn honest_run_without_client_history_certifies() {
    let seed = b"certifier-headless";
    let mut session = honest_session(seed, 3);
    session.client_history = None;
    let session = relaunder(&session);
    let report = audit(&session, &registry(3, seed)).unwrap();
    assert!(report.verdict.is_certified());
}

#[test]
fn wrong_keys_are_rejected_at_the_first_record() {
    let session = honest_session(b"certifier-keys-a", 2);
    let report = audit(&session, &registry(3, b"certifier-keys-b")).unwrap();
    match report.verdict {
        AuditVerdict::Diverged {
            first_bad_version,
            divergence: Divergence::BadSignature { what, .. },
        } => {
            assert_eq!(first_bad_version, 0);
            assert_eq!(what, SigKind::Submit);
        }
        other => panic!("expected BadSignature at record 0, got {other:?}"),
    }
}

#[test]
fn removed_middle_record_is_a_schedule_gap() {
    let seed = b"certifier-remove";
    let mut session = honest_session(seed, 3);
    // Remove client 0's SECOND submit (a middle record) and renumber so
    // the container stays internally consistent.
    let victim = session
        .records
        .iter()
        .position(|(_, r)| {
            matches!(r, LogRecord::Submit { from, msg } if from.index() == 0 && msg.timestamp == 2)
        })
        .expect("client 0 submits timestamp 2");
    session.records.remove(victim);
    for (i, (seq, _)) in session.records.iter_mut().enumerate() {
        *seq = i as u64;
    }
    let session = relaunder(&session);
    let report = audit(&session, &registry(3, seed)).unwrap();
    match report.verdict {
        AuditVerdict::Diverged {
            first_bad_version,
            divergence,
        } => {
            // The commit of the removed operation is now unjustified —
            // it references an operation the log no longer contains —
            // and it sits exactly where the removed submit was.
            assert_eq!(first_bad_version, victim as u64);
            match divergence {
                Divergence::UnjustifiedCommit {
                    committer,
                    victim: gapped,
                    claimed,
                    submitted,
                } => {
                    assert_eq!(committer.index(), 0);
                    assert_eq!(gapped.index(), 0);
                    assert_eq!(claimed, 2);
                    assert_eq!(submitted, 1);
                }
                Divergence::ScheduleGap {
                    client, expected, ..
                } => {
                    assert_eq!(client.index(), 0);
                    assert_eq!(expected, 2);
                }
                other => panic!("expected UnjustifiedCommit or ScheduleGap, got {other:?}"),
            }
        }
        other => panic!("expected divergence, got {other:?}"),
    }
}

#[test]
fn tampered_write_value_breaks_the_data_signature() {
    let seed = b"certifier-value";
    let mut session = honest_session(seed, 3);
    let victim = session
        .records
        .iter()
        .position(|(_, r)| {
            matches!(r, LogRecord::Submit { from, msg } if from.index() == 2 && msg.value.is_some())
        })
        .expect("client 2 writes");
    if let (_, LogRecord::Submit { msg, .. }) = &mut session.records[victim] {
        msg.value = Some(Value::from("doctored"));
    }
    let session = relaunder(&session);
    let report = audit(&session, &registry(3, seed)).unwrap();
    match report.verdict {
        AuditVerdict::Diverged {
            first_bad_version,
            divergence: Divergence::BadSignature { client, what },
        } => {
            assert_eq!(first_bad_version, victim as u64);
            assert_eq!(client.index(), 2);
            assert_eq!(what, SigKind::Data);
        }
        other => panic!("expected DATA BadSignature at {victim}, got {other:?}"),
    }
}

#[test]
fn forged_commit_version_breaks_the_commit_signature() {
    let seed = b"certifier-forge";
    let mut session = honest_session(seed, 3);
    let victim = session
        .records
        .iter()
        .position(|(_, r)| matches!(r, LogRecord::Commit { .. }))
        .expect("some commit");
    if let (_, LogRecord::Commit { msg, .. }) = &mut session.records[victim] {
        let bumped = msg.version.v().get(ClientId::new(0)) + 1;
        msg.version.v_mut().set(ClientId::new(0), bumped);
    }
    let session = relaunder(&session);
    let report = audit(&session, &registry(3, seed)).unwrap();
    match report.verdict {
        AuditVerdict::Diverged {
            first_bad_version,
            divergence: Divergence::BadSignature { what, .. },
        } => {
            assert_eq!(first_bad_version, victim as u64);
            assert_eq!(what, SigKind::Commit);
        }
        other => panic!("expected COMMIT BadSignature, got {other:?}"),
    }
}

#[test]
fn dishonest_claimed_chain_is_a_chain_mismatch() {
    let seed = b"certifier-claim";
    let mut session = honest_session(seed, 2);
    session.claimed_proofs[1] = None;
    let end = session.records.len() as u64;
    let session = relaunder(&session);
    let report = audit(&session, &registry(3, seed)).unwrap();
    match report.verdict {
        AuditVerdict::Diverged {
            first_bad_version,
            divergence: Divergence::ChainMismatch { client },
        } => {
            assert_eq!(first_bad_version, end);
            assert_eq!(client.index(), 1);
        }
        other => panic!("expected ChainMismatch, got {other:?}"),
    }
}

#[test]
fn forked_schedules_yield_signed_fork_evidence() {
    // A forking server runs two disjoint "universes": client 0 only ever
    // talks to copy A, client 1 to copy B. Every message is honestly
    // signed; only the *global* commit chain betrays the split.
    let n = 2;
    let seed = b"certifier-fork";
    let mut server_a = UstorServer::new(n);
    let mut server_b = UstorServer::new(n);
    let mut cs = clients(n, seed);
    let mut records = Vec::new();
    let mut history = History::new();
    let mut now = 0u64;
    let (c0, rest) = cs.split_at_mut(1);
    let c1 = &mut rest[0];
    drive_op(
        &mut server_a,
        &mut c0[0],
        &mut records,
        &mut history,
        &mut now,
        Op::Write(Value::from("universe-a")),
    );
    let fork_starts_at = records.len() as u64;
    drive_op(
        &mut server_b,
        c1,
        &mut records,
        &mut history,
        &mut now,
        Op::Write(Value::from("universe-b")),
    );
    for (i, (seq, _)) in records.iter_mut().enumerate() {
        *seq = i as u64;
    }
    let session = export_records(n, SigScheme::Hmac, None, records, Some(history));
    let session = relaunder(&session);
    let report = audit(&session, &registry(n, seed)).unwrap();
    match &report.verdict {
        AuditVerdict::Diverged {
            first_bad_version,
            divergence: Divergence::ForkedCommits { .. },
        } => {
            // The fork becomes evident at client 1's commit: the first
            // record in universe B is its submit, the second its commit.
            assert_eq!(*first_bad_version, fork_starts_at + 1);
            let (a, b) = report.verdict.signed_evidence().expect("fork evidence");
            assert!(!a.version.comparable(&b.version));
            assert!(a.sig.is_some() && b.sig.is_some());
            let (va, vb) = report.verdict.conflicting_pair().expect("pair");
            assert!(!va.comparable(vb));
        }
        other => panic!("expected ForkedCommits, got {other:?}"),
    }
}

#[test]
fn misreported_read_is_pinned_to_its_operation() {
    let seed = b"certifier-misreport";
    let mut session = honest_session(seed, 3);
    let history = session.client_history.as_mut().unwrap();
    // Doctor a completed read's observed value in the client history.
    let target = history
        .ops()
        .iter()
        .find(|op| op.kind == OpKind::Read && op.is_complete() && op.read_result().is_some())
        .map(|op| (op.id, op.client, op.timestamp.unwrap()))
        .expect("a completed read");
    let mut doctored = History::new();
    for op in history.ops() {
        let id = match op.kind {
            OpKind::Write => {
                doctored.begin_write(op.client, op.written.clone().unwrap(), op.invoked_at)
            }
            OpKind::Read => doctored.begin_read(op.client, op.register, op.invoked_at),
        };
        if op.is_complete() {
            match op.kind {
                OpKind::Write => {
                    doctored.complete_write(id, op.responded_at.unwrap(), op.timestamp)
                }
                OpKind::Read => {
                    let observed = if op.id == target.0 {
                        Some(Value::from("never-served"))
                    } else {
                        op.read_result().unwrap().cloned()
                    };
                    doctored.complete_read(id, op.responded_at.unwrap(), observed, op.timestamp);
                }
            }
        }
    }
    session.client_history = Some(doctored);
    let session = relaunder(&session);
    let report = audit(&session, &registry(3, seed)).unwrap();
    match report.verdict {
        AuditVerdict::Diverged {
            divergence:
                Divergence::MisreportedOperation {
                    client, timestamp, ..
                },
            ..
        } => {
            assert_eq!(client, target.1);
            assert_eq!(timestamp, target.2);
        }
        other => panic!("expected MisreportedOperation, got {other:?}"),
    }
}

#[test]
fn phantom_client_operation_is_omitted() {
    let seed = b"certifier-phantom";
    let mut session = honest_session(seed, 2);
    let history = session.client_history.as_mut().unwrap();
    // Claim one more completed write than the schedule contains.
    let phantom = history.begin_write(ClientId::new(0), Value::from("phantom"), 999);
    history.complete_write(phantom, 1000, Some(99));
    let end = session.records.len() as u64;
    let session = relaunder(&session);
    let report = audit(&session, &registry(3, seed)).unwrap();
    match report.verdict {
        AuditVerdict::Diverged {
            first_bad_version,
            divergence: Divergence::OmittedOperation { client, timestamp },
        } => {
            assert_eq!(first_bad_version, end);
            assert_eq!(client.index(), 0);
            assert_eq!(timestamp, 99);
        }
        other => panic!("expected OmittedOperation, got {other:?}"),
    }
}

#[test]
fn resigned_signature_bytes_pass_the_container_but_fail_the_audit() {
    // The "signature byte-region" corruption class: flip a signature
    // inside a record, then rebuild every checksum so the *container* is
    // pristine. Only the cryptographic audit can convict.
    let seed = b"certifier-resign";
    let mut session = honest_session(seed, 2);
    let victim = session
        .records
        .iter()
        .position(|(_, r)| matches!(r, LogRecord::Submit { .. }))
        .unwrap();
    if let (_, LogRecord::Submit { msg, .. }) = &mut session.records[victim] {
        let mut bytes: Vec<u8> = msg.tuple.sig.as_bytes().to_vec();
        bytes[0] ^= 0xff;
        msg.tuple.sig = faust_crypto::Signature::Mac(bytes.try_into().expect("mac width"));
    }
    let session = relaunder(&session);
    let report = audit(&session, &registry(3, seed)).unwrap();
    match report.verdict {
        AuditVerdict::Diverged {
            first_bad_version,
            divergence: Divergence::BadSignature { what, .. },
        } => {
            assert_eq!(first_bad_version, victim as u64);
            assert_eq!(what, SigKind::Submit);
        }
        other => panic!("expected SUBMIT BadSignature, got {other:?}"),
    }
}

#[test]
fn store_directory_roundtrip_certifies() {
    use faust_store::{Durability, PersistentServer, StoreConfig};
    let seed = b"certifier-store";
    let n = 2;
    let dir = faust_store::testutil::scratch_dir("audit-store-rt");
    let config = StoreConfig {
        durability: Durability::Never,
        snapshot_every: 0,
    };
    let mut server = PersistentServer::open(&dir, n, config).unwrap();
    let mut cs = clients(n, seed);
    for round in 0..4u64 {
        let submit = cs[0].begin_write(Value::unique(0, round)).unwrap();
        faust_store::testutil::run_op(&mut server, &mut cs[0], submit);
        let submit = cs[1].begin_read(ClientId::new(0)).unwrap();
        faust_store::testutil::run_op(&mut server, &mut cs[1], submit);
    }
    drop(server);
    let session = faust_audit::export_store_dir(&dir, SigScheme::Hmac, None).unwrap();
    assert_eq!(session.records.len(), 16);
    let report = audit(&session, &registry(n, seed)).unwrap();
    assert!(report.verdict.is_certified(), "got {:?}", report.verdict);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_directory_with_snapshot_exports_base_state() {
    use faust_store::{Durability, PersistentServer, StoreConfig};
    let seed = b"certifier-store-snap";
    let n = 2;
    let dir = faust_store::testutil::scratch_dir("audit-store-snap");
    let config = StoreConfig {
        durability: Durability::Never,
        snapshot_every: 4,
    };
    let mut server = PersistentServer::open(&dir, n, config).unwrap();
    let mut cs = clients(n, seed);
    for round in 0..6u64 {
        let submit = cs[0].begin_write(Value::unique(0, round)).unwrap();
        faust_store::testutil::run_op(&mut server, &mut cs[0], submit);
    }
    drop(server);
    let session = faust_audit::export_store_dir(&dir, SigScheme::Hmac, None).unwrap();
    assert!(session.base_seq > 0, "snapshot should have rotated the WAL");
    assert!(session.base_state.is_some());
    let report = audit(&session, &registry(n, seed)).unwrap();
    assert!(report.verdict.is_certified(), "got {:?}", report.verdict);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_snapshot_for_another_client_count_than_the_log_is_refused_by_export() {
    use faust_store::snapshot::{write_snapshot, Snapshot};
    use faust_store::{log::Wal, StoreError};
    // An n = 3 snapshot covering records 0..4 beside an n = 2 log that
    // starts at 4: the base state would have the wrong number of clients.
    let dir = faust_store::testutil::scratch_dir("audit-store-n-mismatch");
    let snapshot = Snapshot {
        n: 3,
        next_seq: 4,
        state: UstorServer::new(3).export_state(),
    };
    write_snapshot(&dir, &snapshot, false).unwrap();
    drop(Wal::create(&dir, 2, 4, false).unwrap());
    let err = faust_audit::export_store_dir(&dir, SigScheme::Hmac, None).err();
    assert!(
        matches!(
            err,
            Some(faust_audit::ExportError::Store(
                StoreError::ClientCountMismatch {
                    expected: 2,
                    found: 3
                }
            ))
        ),
        "{err:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn json_rendering_covers_both_verdicts() {
    let seed = b"certifier-json";
    let session = honest_session(seed, 2);
    let report = audit(&session, &registry(3, seed)).unwrap();
    let json = faust_audit::report_to_json(&report);
    assert!(json.contains("\"status\":\"certified\""));
    assert!(json.contains("\"fork_linearizable\":true"));

    let bad = audit(&session, &registry(3, b"wrong-keys")).unwrap();
    let json = faust_audit::report_to_json(&bad);
    assert!(json.contains("\"status\":\"diverged\""));
    assert!(json.contains("\"first_bad_version\":0"));
    assert!(json.contains("bad_signature"));
}
