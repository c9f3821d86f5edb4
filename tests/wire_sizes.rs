//! `encoded_len() == encode().len()` for every `Wire` type outside
//! `faust-types` (that crate's own are covered in its `proptests.rs`; the
//! audit container's private manifest in `faust-audit`'s unit tests):
//! sizes come from running `encode_into` against a counting sink, and
//! this walks a seeded three-client session to check the count on every
//! state and message it passes through.

use faust::core::{FaustClient, FaustConfig, OfflineMsg, SessionCore, UserOp};
use faust::crypto::sig::KeySet;
use faust::sim::SmallRng;
use faust::store::LogRecord;
use faust::types::{ClientId, UstorMsg, Value, Wire};
use faust::ustor::{Server, UstorServer};

fn check<T: Wire + PartialEq + std::fmt::Debug>(value: &T) {
    let bytes = value.encode();
    assert_eq!(value.encoded_len(), bytes.len(), "{value:?}");
    assert_eq!(bytes.capacity(), bytes.len(), "sized once: {value:?}");
    assert_eq!(T::decode(&bytes).as_ref(), Ok(value));
}

#[test]
fn encoded_len_is_exact_across_a_seeded_session() {
    const N: usize = 3;
    let keys = KeySet::generate(N, b"wire-sizes");
    let mut server = UstorServer::new(N);
    let mut cores: Vec<SessionCore> = (0..N as u32)
        .map(|i| {
            SessionCore::new(FaustClient::new(
                ClientId::new(i),
                N,
                keys.keypair(i).expect("generated").clone(),
                keys.registry(),
                FaustConfig {
                    pipeline: 3,
                    ..FaustConfig::default()
                },
            ))
        })
        .collect();
    let mut rng = SmallRng::seed_from_u64(0x512E);
    // Messages on their way to the server, delivered a few at a time so
    // that states are exported with operations queued and in flight.
    let mut upstream: Vec<(usize, UstorMsg)> = Vec::new();
    let (mut inflight_seen, mut queued_seen) = (0, 0);
    for now in 1..=60u64 {
        let i = rng.gen_index(N);
        let op = if rng.gen_bool(0.5) {
            let len = rng.gen_index(40);
            UserOp::Write(Value::new(vec![now as u8; len]))
        } else {
            UserOp::Read(ClientId::new(rng.gen_index(N) as u32))
        };
        check(&op);
        let (_, out) = cores[i].submit(op, now);
        upstream.extend(out.to_server.into_iter().map(|m| (i, m)));

        for _ in 0..rng.gen_index(3) {
            if upstream.is_empty() {
                break;
            }
            let (from, msg) = upstream.remove(0);
            let client = ClientId::new(from as u32);
            check(&msg);
            let (record, replies) = match msg {
                UstorMsg::Submit(m) => (
                    LogRecord::Submit {
                        from: client,
                        msg: m.clone(),
                    },
                    server.on_submit(client, m),
                ),
                UstorMsg::Commit(m) => (
                    LogRecord::Commit {
                        from: client,
                        msg: m.clone(),
                    },
                    server.on_commit(client, m),
                ),
                UstorMsg::Reply(_) | UstorMsg::CommitDelta(_) => unreachable!("expanded above"),
            };
            check(&record);
            for (to, reply) in replies {
                check(&UstorMsg::Reply(reply.clone()));
                // The bare server takes full COMMITs: a delta is checked
                // as sent, then expanded against the REPLY it answers.
                let base = reply.commit_version.version.clone();
                let out = cores[to.index()].handle_reply(reply, now);
                for msg in out.to_server {
                    check(&msg);
                    let msg = match msg {
                        UstorMsg::CommitDelta(d) => UstorMsg::Commit(d.resolve(&base).unwrap()),
                        msg => msg,
                    };
                    upstream.push((to.index(), msg));
                }
            }
        }

        for core in &cores {
            assert!(core.failure().is_none());
            let state = core.export_state(now).expect("healthy sessions export");
            check(&state);
            check(&state.proto);
            check(&state.proto.ustor);
            state.proto.ustor.inflight.iter().for_each(check);
            state.proto.user_queue.iter().for_each(check);
            inflight_seen += state.proto.ustor.inflight.len();
            queued_seen += state.proto.user_queue.len();
        }
    }

    assert!(
        inflight_seen > 0 && queued_seen > 0,
        "the script exercises both"
    );

    let signer = keys.keypair(1).expect("generated");
    let version = cores[1]
        .export_state(61)
        .expect("healthy")
        .proto
        .ustor
        .version;
    let offline = [
        OfflineMsg::probe(signer),
        OfflineMsg::version(signer, version),
        OfflineMsg::failure(signer),
    ];
    for msg in &offline {
        check(msg);
        assert_eq!(msg.size_bytes(), msg.encode().len());
    }
}
