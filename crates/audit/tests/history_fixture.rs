//! `FAUSTHIS` is frozen: `fixtures/v1.fausthis` was written by a build
//! whose container code was still hand-written in `faust-audit`, from
//! [`script`]. This tree must decode it to the history the script builds,
//! encode that history to the very same bytes, and certify it.

use faust_audit::{audit, export_records, AuditVerdict, SessionHistory};
use faust_crypto::sig::KeySet;
use faust_crypto::SigScheme;
use faust_store::LogRecord;
use faust_types::{ClientId, History, OpKind, Value};
use faust_ustor::{Server, UstorClient, UstorServer};
use std::path::Path;

const N: usize = 2;
const SEED: &[u8] = b"history-fixture";

/// Clients 0 and 1 of 2, HMAC keys from `history-fixture`, in lockstep
/// against a `UstorServer`: in each of three rounds client 0 writes
/// `fixture-<round>` and client 1 reads register 0. The first round's
/// four records are folded into the base state; the history carries the
/// other eight, and a client history of all six operations.
fn script() -> SessionHistory {
    let keys = KeySet::generate(N, SEED);
    let mut clients: Vec<UstorClient> = (0..N as u32)
        .map(|i| {
            UstorClient::new(
                ClientId::new(i),
                N,
                keys.keypair(i).unwrap().clone(),
                keys.registry(),
            )
        })
        .collect();
    let mut server = UstorServer::new(N);
    let mut base = None;
    let mut records = Vec::new();
    let mut history = History::new();
    let mut now = 0;
    for round in 0..3u64 {
        if round == 1 {
            base = Some((records.len() as u64, server.export_state()));
            records.clear();
        }
        for (i, client) in clients.iter_mut().enumerate() {
            let id = ClientId::new(i as u32);
            let (submit, op) = if i == 0 {
                let value = Value::from(format!("fixture-{round}").as_str());
                let op = history.begin_write(id, value.clone(), now);
                (client.begin_write(value).unwrap(), op)
            } else {
                let target = ClientId::new(0);
                let op = history.begin_read(id, target, now);
                (client.begin_read(target).unwrap(), op)
            };
            now += 1;
            records.push(LogRecord::Submit {
                from: id,
                msg: submit.clone(),
            });
            let (_, reply) = server.on_submit(id, submit).pop().unwrap();
            let (commit, done) = client.handle_reply(reply).unwrap();
            match done.kind {
                OpKind::Write => history.complete_write(op, now, Some(done.timestamp)),
                OpKind::Read => {
                    let value = done.read_value.clone().unwrap_or(None);
                    history.complete_read(op, now, value, Some(done.timestamp));
                }
            }
            now += 1;
            let commit = commit.unwrap();
            records.push(LogRecord::Commit {
                from: id,
                msg: commit.clone(),
            });
            server.on_commit(id, commit);
        }
    }
    let (base_seq, _) = base.as_ref().unwrap();
    let records = (*base_seq..).zip(records).collect();
    export_records(N, SigScheme::Hmac, base, records, Some(history))
}

#[test]
fn the_v1_history_fixture_decodes_reencodes_and_certifies() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1.fausthis");
    let bytes = std::fs::read(&fixture).unwrap();
    let expected = script();
    assert!(expected.base_state.is_some() && expected.client_history.is_some());
    assert_eq!((expected.base_seq, expected.records.len()), (4, 8));

    let decoded = SessionHistory::decode(&bytes).unwrap();
    assert_eq!(decoded, expected);
    assert_eq!(decoded.encode(), bytes);
    assert_eq!(expected.encode(), bytes);

    let report = audit(&decoded, &KeySet::generate(N, SEED).registry()).unwrap();
    assert!(
        matches!(report.verdict, AuditVerdict::Certified { .. }),
        "{:?}",
        report.verdict
    );
}
