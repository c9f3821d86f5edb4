//! Delta COMMITs against the full COMMITs they stand for.
//!
//! A session sends the COMMIT of an operation as a delta against the
//! REPLY it answers whenever that is smaller, and the engine rebuilds the
//! full COMMIT from its duplicate-reply cache before anything else sees
//! it. So a run must not change in any way but its upstream bytes when
//! every delta is expanded to its full COMMIT before delivery: every
//! verdict, every event and every REPLY (each `SVER` the server hands
//! out) must be the same, and so must the WAL, the snapshot and the
//! exported `FAUSTHIS` of a persistent server. That is checked here over
//! seeded scripts against the honest server, a persistent one and every
//! [`Tamper`] server, lockstep and pipelined — and that each delta a
//! session ships is [`CommitDelta::against`] the REPLY the engine cached
//! for it, the sender experiment E6 sizes.
//!
//! The second test is the connection rule: a delta is for the connection
//! its REPLY came in on, and a replay on a new one carries the full
//! COMMIT — even to a server that restarted from a snapshot that absorbed
//! the operation, whose cache no longer holds the REPLY.

use faust::audit::export_store_dir;
use faust::core::{Event, FaustClient, FaustConfig, SessionCore, UserOp};
use faust::crypto::sig::{KeySet, SigScheme};
use faust::sim::SmallRng;
use faust::store::testutil::scratch_dir;
use faust::store::{Durability, PersistentBackend, PersistentServer, StoreConfig};
use faust::types::frame::frame_bytes;
use faust::types::{ClientId, CommitDelta, CommitMsg, ReplyMsg, UstorMsg, Value};
use faust::ustor::adversary::{Tamper, TamperServer};
use faust::ustor::{EngineStats, Server, ServerEngine, UstorServer};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};

const N: usize = 3;
const STEPS: u64 = 240;

fn c(i: usize) -> ClientId {
    ClientId::new(i as u32)
}

fn sessions(keys: &KeySet, pipeline: usize) -> Vec<SessionCore> {
    (0..N)
        .map(|i| {
            SessionCore::new(FaustClient::new(
                c(i),
                N,
                keys.keypair(i as u32).expect("generated").clone(),
                keys.registry(),
                FaustConfig {
                    dummy_reads: false,
                    pipeline,
                    ..FaustConfig::default()
                },
            ))
        })
        .collect()
}

/// Which server a run is against.
#[derive(Debug, Clone, Copy)]
enum Spec {
    Honest,
    Persistent,
    Tampering(Tamper),
}

const TAMPERS: [Tamper; 10] = [
    Tamper::CorruptCommitSig,
    Tamper::RegressToInitialVersion,
    Tamper::CorruptPendingSig,
    Tamper::EchoOwnTuple,
    Tamper::OmitProof,
    Tamper::CorruptProof,
    Tamper::CorruptReadValue,
    Tamper::StaleReadValue,
    Tamper::CorruptWriterSig,
    Tamper::AncientWriterVersion,
];

fn store_config() -> StoreConfig {
    StoreConfig {
        durability: Durability::Never,
        snapshot_every: 16,
    }
}

fn server(spec: Spec, dir: &Path, seed: u64) -> Box<dyn Server + Send> {
    match spec {
        Spec::Honest => Box::new(UstorServer::new(N)),
        Spec::Persistent => {
            Box::new(PersistentServer::open(dir, N, store_config()).expect("fresh store"))
        }
        Spec::Tampering(kind) => Box::new(TamperServer::new(
            N,
            c(seed as usize % N),
            4 + seed as usize % 8,
            kind,
        )),
    }
}

/// Everything a run shows except its upstream bytes.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Every REPLY each client was handed, in order.
    replies: Vec<(usize, ReplyMsg)>,
    events: Vec<(usize, u64, Event)>,
    stats: EngineStats,
    /// `wal.bin`, `snapshot.bin` and the exported `FAUSTHIS`.
    files: Option<(Vec<u8>, Vec<u8>, Vec<u8>)>,
}

/// What went upstream.
#[derive(Debug, Default)]
struct Upstream {
    deltas: usize,
    bytes: usize,
}

/// Runs one seeded script: each step a client submits, the engine takes
/// the oldest upstream message, or a client takes its oldest REPLY —
/// drawn from `seed` alone, so both variants of a run make the same
/// choices. With `expand`, a delta is replaced by the full COMMIT it
/// stands for before it leaves the client.
fn run(spec: Spec, seed: u64, pipeline: usize, expand: bool) -> (Outcome, Upstream) {
    let dir: PathBuf = scratch_dir("commit-delta");
    let keys = KeySet::generate(N, b"commit-delta");
    let mut engine = ServerEngine::new(N, server(spec, &dir, seed));
    let mut cores = sessions(&keys, pipeline);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut up: VecDeque<(usize, UstorMsg)> = VecDeque::new();
    let mut down: Vec<VecDeque<ReplyMsg>> = vec![VecDeque::new(); N];
    let mut upstream = Upstream::default();
    let mut outcome = Outcome {
        replies: Vec::new(),
        events: Vec::new(),
        stats: EngineStats::default(),
        files: None,
    };
    // `full`: the COMMIT the session keeps for a resend, which a delta
    // stands for (`tests/reply_delta.rs` checks that it does).
    let mut send = |i: usize,
                    msgs: Vec<UstorMsg>,
                    full: Option<CommitMsg>,
                    up: &mut VecDeque<_>| {
        for msg in msgs {
            let msg = match msg {
                UstorMsg::CommitDelta(delta) => {
                    upstream.deltas += 1;
                    match expand {
                        true => UstorMsg::Commit(full.clone().expect("a delta answers a REPLY")),
                        false => UstorMsg::CommitDelta(delta),
                    }
                }
                msg => msg,
            };
            upstream.bytes += frame_bytes(&msg).len();
            up.push_back((i, msg));
        }
    };
    let mut step = 0;
    loop {
        step += 1;
        let idle = up.is_empty() && down.iter().all(VecDeque::is_empty);
        if step > STEPS && idle {
            break;
        }
        let choice = if step > STEPS {
            1 + rng.gen_index(2)
        } else {
            rng.gen_index(3)
        };
        match choice {
            0 => {
                let i = rng.gen_index(N);
                let op = match rng.gen_bool(0.5) {
                    true => UserOp::Write(Value::unique(i as u32, step)),
                    false => UserOp::Read(c(rng.gen_index(N))),
                };
                let (_, out) = cores[i].submit(op, step);
                send(i, out.to_server, None, &mut up);
            }
            1 => {
                let Some((from, msg)) = up.pop_front() else {
                    continue;
                };
                engine.enqueue(c(from), msg);
                engine.round(false, |to, batch| {
                    for msg in batch {
                        if let UstorMsg::Reply(reply) = msg {
                            down[to.index()].push_back(reply);
                        }
                    }
                });
            }
            _ => {
                let i = rng.gen_index(N);
                let Some(reply) = down[i].pop_front() else {
                    continue;
                };
                outcome.replies.push((i, reply.clone()));
                let out = cores[i].handle_reply(reply, step);
                let full = cores[i]
                    .resend_messages()
                    .into_iter()
                    .rev()
                    .find_map(|m| match m {
                        UstorMsg::Commit(commit) => Some(commit),
                        _ => None,
                    });
                // The session's delta, picked from the entries its fold
                // touched, is the one a sender holding the base would
                // pick: every entry where the COMMIT differs from the
                // `commit_version` of the REPLY the engine cached for it.
                for msg in &out.to_server {
                    if let UstorMsg::CommitDelta(delta) = msg {
                        let full = full.as_ref().expect("a delta answers a REPLY");
                        let t = delta.version.get(c(i)).expect("own entry").timestamp;
                        let cached = engine.session(c(i)).replies().get(t).expect("cached");
                        let base = &cached.commit_version.version;
                        assert_eq!(Some(delta), CommitDelta::against(base, full).as_ref());
                    }
                }
                send(i, out.to_server, full, &mut up);
            }
        }
        for (i, core) in cores.iter_mut().enumerate() {
            outcome
                .events
                .extend(core.take_events().into_iter().map(|(t, e)| (i, t, e)));
        }
    }
    outcome.stats = engine.stats().clone();
    drop(engine);
    if matches!(spec, Spec::Persistent) {
        let read = |file: &str| std::fs::read(dir.join(file)).unwrap_or_default();
        let history = export_store_dir(&dir, SigScheme::Hmac, None).expect("exports");
        outcome.files = Some((read("wal.bin"), read("snapshot.bin"), history.encode()));
    }
    std::fs::remove_dir_all(&dir).ok();
    (outcome, upstream)
}

#[test]
fn delta_commits_and_their_full_forms_get_the_same_verdicts() {
    let mut specs = vec![Spec::Honest, Spec::Persistent];
    specs.extend(TAMPERS.map(Spec::Tampering));
    let mut violations = 0;
    for spec in specs {
        for pipeline in [1, 2] {
            for seed in 0..4u64 {
                let (shipped, sent) = run(spec, seed, pipeline, false);
                let (expanded, full) = run(spec, seed, pipeline, true);
                let label = format!("{spec:?}, pipeline {pipeline}, seed {seed}");
                assert_eq!(shipped, expanded, "{label}");
                assert!(
                    sent.deltas > 0 && sent.bytes < full.bytes,
                    "{label}: {sent:?}"
                );
                assert_eq!(sent.deltas, full.deltas, "{label}");
                let violated = shipped
                    .events
                    .iter()
                    .any(|(_, _, e)| matches!(e, Event::Violation { .. }));
                if let Spec::Honest | Spec::Persistent = spec {
                    assert!(!violated, "{label}: {:?}", shipped.events);
                    assert_eq!(shipped.stats.rejected, 0, "{label}");
                    assert_eq!(shipped.stats.duplicates, 0, "{label}");
                }
                violations += usize::from(violated);
            }
        }
    }
    // The Byzantine servers are caught in most runs, deltas or not.
    assert!(violations >= 60, "{violations} runs flagged");
}

#[test]
fn a_commit_lost_with_its_connection_is_replayed_in_full_after_a_restart() {
    // A snapshot after every record: the SUBMIT's record is absorbed
    // before the restart, so the recovered engine has no cached REPLY
    // for a delta to resolve against (ROADMAP item 1's shape).
    let dir = scratch_dir("commit-delta-restart");
    let backend = PersistentBackend::new(
        &dir,
        StoreConfig {
            durability: Durability::Never,
            snapshot_every: 1,
        },
    );
    let keys = KeySet::generate(2, b"commit-delta-restart");
    let mut cores: Vec<SessionCore> = (0..2)
        .map(|i| {
            SessionCore::new(FaustClient::new(
                c(i),
                2,
                keys.keypair(i as u32).expect("generated").clone(),
                keys.registry(),
                FaustConfig {
                    dummy_reads: false,
                    ..FaustConfig::default()
                },
            ))
        })
        .collect();
    // Runs `msgs` from client `i` through `engine` and hands every REPLY
    // to its session; what the sessions answer goes the same way.
    fn pump(engine: &mut ServerEngine, cores: &mut [SessionCore], i: usize, msgs: Vec<UstorMsg>) {
        let mut queue: VecDeque<(usize, UstorMsg)> = msgs.into_iter().map(|m| (i, m)).collect();
        while let Some((from, msg)) = queue.pop_front() {
            engine.enqueue(c(from), msg);
            let mut replies = Vec::new();
            engine.round(false, |to, batch| replies.push((to.index(), batch)));
            for (to, batch) in replies {
                for msg in batch {
                    let UstorMsg::Reply(reply) = msg else {
                        continue;
                    };
                    let out = cores[to].handle_reply(reply, 1);
                    queue.extend(out.to_server.into_iter().map(|m| (to, m)));
                }
            }
        }
    }

    // Both clients complete one write, so each has a COMMIT on record.
    let mut engine = ServerEngine::from_backend(2, &backend).expect("fresh store");
    for i in 0..2 {
        let (_, out) = cores[i].submit(UserOp::Write(Value::from("first")), 1);
        pump(&mut engine, &mut cores, i, out.to_server);
    }

    // C0's second write: the REPLY arrives and the session answers with a
    // delta, but the connection dies before it leaves.
    let (_, out) = cores[0].submit(UserOp::Write(Value::from("second")), 2);
    let [UstorMsg::Submit(submit)] = &out.to_server[..] else {
        panic!("one SUBMIT: {:?}", out.to_server);
    };
    engine.enqueue(c(0), UstorMsg::Submit(submit.clone()));
    let mut reply = None;
    engine.round(true, |_, mut batch| reply = batch.pop());
    let Some(UstorMsg::Reply(reply)) = reply else {
        panic!("no REPLY");
    };
    let lost = cores[0].handle_reply(reply, 2).to_server;
    assert!(
        matches!(lost[..], [UstorMsg::CommitDelta(_)]),
        "lockstep COMMITs go out as deltas: {lost:?}"
    );
    assert_eq!(engine.stats().rejected, 0);

    // The server restarts from the snapshot that absorbed the SUBMIT: no
    // cached REPLY for C0, and a delta would have nothing to resolve
    // against.
    drop(engine);
    let mut engine = ServerEngine::from_backend(2, &backend).expect("recovers");
    assert!(engine.session(c(0)).replies().is_empty());

    // The replay on the new connection is the full COMMIT.
    let replay = cores[0].resend_messages();
    assert!(
        matches!(replay[..], [UstorMsg::Commit(_)]),
        "the resend window replays the full COMMIT: {replay:?}"
    );
    pump(&mut engine, &mut cores, 0, replay);
    assert_eq!(engine.stats().rejected, 0);

    // C0's next operation is pending when C1 reads, so C1 must verify
    // C0's PROOF-signature from the replayed COMMIT (Algorithm 1, line
    // 41); the read and both completions go through.
    let (third, out) = cores[0].submit(UserOp::Write(Value::from("third")), 3);
    let [UstorMsg::Submit(submit)] = &out.to_server[..] else {
        panic!("one SUBMIT: {:?}", out.to_server);
    };
    engine.enqueue(c(0), UstorMsg::Submit(submit.clone()));
    engine.process_all();
    let (read, out) = cores[1].submit(UserOp::Read(c(0)), 3);
    pump(&mut engine, &mut cores, 1, out.to_server);
    let reply_to_c0 = {
        let mut replies = Vec::new();
        engine.round(true, |to, batch| replies.push((to, batch)));
        replies
    };
    assert!(cores[1].is_complete(read), "{:?}", cores[1].failure());
    assert!(cores[1].failure().is_none(), "{:?}", cores[1].failure());
    for (to, batch) in reply_to_c0 {
        for msg in batch {
            let UstorMsg::Reply(reply) = msg else {
                continue;
            };
            let out = cores[to.index()].handle_reply(reply, 3);
            pump(&mut engine, &mut cores, to.index(), out.to_server);
        }
    }
    assert!(cores[0].is_complete(third), "{:?}", cores[0].failure());
    assert_eq!(engine.stats().rejected, 0);
    std::fs::remove_dir_all(&dir).ok();
}
