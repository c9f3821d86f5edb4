//! The offline auditor over a real deployment: multi-client sessions on
//! loopback TCP against a persistent server, exported from the store
//! directory through the read-only cursor and replayed by `faust-audit`.
//!
//! The acceptance pair from the audit subsystem's issue:
//! * an honest multi-client TCP run is **certified** end to end;
//! * a WAL-tampered copy of the same history is **diverged** with the
//!   exact first divergent version — and a forked (split-brain) pair of
//!   sessions yields the signed evidence pair that convicts the server
//!   to any third party.

mod common;

use faust::audit::{audit, AuditVerdict, Divergence, SessionHistory};
use faust::core::UserOp;
use faust::crypto::sig::KeySet;
use faust::crypto::{SigScheme, VerifierRegistry};
use faust::store::{testutil, Durability, LogRecord, PersistentServer, StoreConfig};
use faust::types::{ClientId, Value};
use faust::ustor::ServerEngine;
use std::time::Duration;

fn c(i: u32) -> ClientId {
    ClientId::new(i)
}

fn registry(n: usize, key_seed: &[u8]) -> VerifierRegistry {
    KeySet::generate_with(SigScheme::Hmac, n, key_seed).registry()
}

/// Runs `workloads` over loopback TCP against a fresh persistent server
/// in `dir` and returns the exported session history.
fn tcp_session(
    dir: &std::path::Path,
    workloads: Vec<Vec<UserOp>>,
    key_seed: &[u8],
    dummy_reads: bool,
) -> SessionHistory {
    let n = workloads.len();
    let server = PersistentServer::open(
        dir,
        n,
        StoreConfig {
            durability: Durability::Never,
            snapshot_every: 0,
        },
    )
    .expect("open store");
    let (run, _) = common::run_loopback(
        ServerEngine::new(n, Box::new(server)),
        workloads,
        key_seed,
        &common::handle_config(dummy_reads),
        Duration::from_millis(1200),
    );
    for (handle, _) in &run {
        assert!(
            handle.failure().is_none(),
            "honest run must not fail: {:?}",
            handle.failure()
        );
    }
    faust::audit::export_store_dir(dir, SigScheme::Hmac, None).expect("export store dir")
}

/// Re-derives a structurally tampered container so every checksum is
/// consistent again — the file passes all integrity checks and only the
/// cryptographic audit can convict.
fn relaunder(session: &SessionHistory) -> SessionHistory {
    SessionHistory::decode(&session.encode()).expect("re-checksummed container decodes")
}

#[test]
fn honest_tcp_run_is_certified_and_tampered_copy_is_pinpointed() {
    let key_seed = b"audit-e2e";
    let n = 3;
    let dir = testutil::scratch_dir("audit-e2e-honest");
    let workloads = vec![
        vec![
            UserOp::Write(Value::from("a1")),
            UserOp::Write(Value::from("a2")),
            UserOp::Read(c(1)),
        ],
        vec![UserOp::Write(Value::from("b1")), UserOp::Read(c(0))],
        vec![UserOp::Read(c(0)), UserOp::Write(Value::from("c1"))],
    ];
    let session = tcp_session(&dir, workloads, key_seed, true);
    assert!(
        session.records.len() >= 14,
        "7 user ops = 14+ records, got {}",
        session.records.len()
    );

    // The honest export certifies.
    let report = audit(&session, &registry(n, key_seed)).expect("audit runs");
    match &report.verdict {
        AuditVerdict::Certified {
            fork_linearizable,
            ops,
            clients,
        } => {
            assert!(fork_linearizable);
            assert!(*ops >= 7, "at least the 7 user ops, got {ops}");
            assert_eq!(*clients, 3);
        }
        other => panic!("honest TCP run must certify, got {other:?}"),
    }

    // A WAL-tampered copy: remove a middle record (client 0's second
    // SUBMIT) and renumber so the container stays internally pristine.
    // The audit must pinpoint the exact sequence number where the
    // session stops being explainable.
    let mut tampered = session.clone();
    let victim = tampered
        .records
        .iter()
        .position(|(_, r)| {
            matches!(r, LogRecord::Submit { from, msg } if from.index() == 0 && msg.timestamp == 2)
        })
        .expect("client 0 submits timestamp 2");
    tampered.records.remove(victim);
    for (i, (seq, _)) in tampered.records.iter_mut().enumerate() {
        *seq = i as u64;
    }
    // The earliest record at which the removal is *provable*: everything
    // before it replays cleanly, so the auditor must pin exactly the
    // first record that references the missing operation — client 0's
    // next SUBMIT (its timestamp skips the removed one) or any COMMIT
    // acknowledging ≥ 2 of client 0's operations, whichever the TCP
    // interleaving put first.
    let expected_pin = victim
        + tampered.records[victim..]
            .iter()
            .position(|(_, r)| match r {
                LogRecord::Submit { from, .. } => from.index() == 0,
                LogRecord::Commit { msg, .. } => msg.version.v().get(c(0)) >= 2,
            })
            .expect("a later record exposes the removed one");
    let tampered = relaunder(&tampered);
    let report = audit(&tampered, &registry(n, key_seed)).expect("audit runs");
    match report.verdict {
        AuditVerdict::Diverged {
            first_bad_version,
            divergence,
        } => {
            assert_eq!(
                first_bad_version, expected_pin as u64,
                "divergence must be pinned to the first record that \
                 exposes the removal (removed at {victim})"
            );
            assert!(
                matches!(
                    divergence,
                    Divergence::UnjustifiedCommit { .. } | Divergence::ScheduleGap { .. }
                ),
                "a removed record shows up as a gap or an unjustified commit, got {divergence:?}"
            );
        }
        other => panic!("tampered copy must diverge, got {other:?}"),
    }

    // A flipped signature byte inside a record, with every container
    // checksum rebuilt: the container is clean, the audit convicts.
    let mut resigned = session.clone();
    let victim = resigned
        .records
        .iter()
        .position(|(_, r)| matches!(r, LogRecord::Submit { .. }))
        .expect("some submit");
    if let (_, LogRecord::Submit { msg, .. }) = &mut resigned.records[victim] {
        let mut bytes: Vec<u8> = msg.tuple.sig.as_bytes().to_vec();
        bytes[0] ^= 0xff;
        msg.tuple.sig = faust::crypto::Signature::Mac(bytes.try_into().expect("mac width"));
    }
    let resigned = relaunder(&resigned);
    let report = audit(&resigned, &registry(n, key_seed)).expect("audit runs");
    match report.verdict {
        AuditVerdict::Diverged {
            first_bad_version,
            divergence: Divergence::BadSignature { .. },
        } => assert_eq!(first_bad_version, victim as u64),
        other => panic!("flipped signature must diverge at {victim}, got {other:?}"),
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// A forking server shows each client its own universe. Offline, that
/// is two separately honest sessions spliced into one claimed schedule —
/// and the auditor extracts the *signed evidence pair*: two validly
/// COMMIT-signed, mutually incomparable versions that prove the fork to
/// any third party holding only the verification keys.
#[test]
fn spliced_split_brain_tcp_sessions_yield_signed_fork_evidence() {
    let key_seed = b"audit-e2e-fork";
    let n = 2;
    // Universe A: only client 0 operates. Universe B: only client 1.
    // Same keys, same client set — exactly what a forking server serves.
    let dir_a = testutil::scratch_dir("audit-e2e-fork-a");
    let session_a = tcp_session(
        &dir_a,
        vec![vec![UserOp::Write(Value::from("universe-a"))], vec![]],
        key_seed,
        false,
    );
    let dir_b = testutil::scratch_dir("audit-e2e-fork-b");
    let session_b = tcp_session(
        &dir_b,
        vec![vec![], vec![UserOp::Write(Value::from("universe-b"))]],
        key_seed,
        false,
    );
    assert_eq!(session_a.records.len(), 2, "one write = SUBMIT + COMMIT");
    assert_eq!(session_b.records.len(), 2, "one write = SUBMIT + COMMIT");

    // Splice B's records after A's and renumber — the forged "single
    // server" schedule a forking server would have to defend.
    let mut records = session_a.records.clone();
    records.extend(session_b.records.iter().cloned());
    for (i, (seq, _)) in records.iter_mut().enumerate() {
        *seq = i as u64;
    }
    let spliced = faust::audit::export_records(n, SigScheme::Hmac, None, records, None);
    let spliced = relaunder(&spliced);

    let report = audit(&spliced, &registry(n, key_seed)).expect("audit runs");
    match &report.verdict {
        AuditVerdict::Diverged {
            first_bad_version,
            divergence: Divergence::ForkedCommits { .. },
        } => {
            // A's submit+commit replay cleanly; the fork becomes evident
            // at B's commit, record 3.
            assert_eq!(*first_bad_version, 3);
            let (a, b) = report.verdict.signed_evidence().expect("signed pair");
            assert!(
                !a.version.comparable(&b.version),
                "evidence versions must be incomparable: {:?} vs {:?}",
                a.version.v(),
                b.version.v()
            );
            assert!(
                a.sig.is_some() && b.sig.is_some(),
                "both versions must carry COMMIT signatures"
            );
        }
        other => panic!("spliced fork must yield signed evidence, got {other:?}"),
    }

    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}
