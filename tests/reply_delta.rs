//! REPLYs whose `L` keeps a tail of the previous one, whose `SVER[c]`
//! names a COMMIT of the recipient's, and whose read value names one the
//! recipient holds, against the full REPLYs they stand for.
//!
//! The engine sends a REPLY's pending list `L` as the last `k` tuples of
//! the `L` of the REPLY it released to the same client before, then the
//! new ones, its `SVER[c]` as a marker or a delta against the last
//! COMMIT that client sent before the SUBMIT it answers, and a read's
//! `MEM[j].x` as the timestamp of the client's read whose REPLY delivered
//! that very value; the client rebuilds all three before any check reads
//! them. So a run must not change in any way but its downstream bytes
//! when every REPLY is expanded to its full `L`, `SVER[c]` and value
//! before delivery: every verdict, every read value,
//! every event, every REPLY as the client resolved it, every COMMIT and so
//! the WAL, the snapshot and the exported `FAUSTHIS` of a persistent
//! server must be the same. That is checked here over seeded scripts
//! against the honest server, a persistent one and every [`Tamper`]
//! server, pipelined and in lockstep, with COMMITs sent at once or
//! piggybacked.
//!
//! An immediate-mode session sends its COMMIT as a delta over the entries
//! its fold wrote, which are those of the clients in the *resolved* `L`:
//! every delta COMMIT is also checked against the full COMMIT the session
//! keeps for a resend.

use faust::audit::export_store_dir;
use faust::core::{Event, FaustClient, FaustConfig, SessionCore, UserOp};
use faust::crypto::sig::{KeySet, SigScheme};
use faust::sim::SmallRng;
use faust::store::testutil::scratch_dir;
use faust::store::{Durability, PersistentServer, StoreConfig};
use faust::types::frame::frame_bytes;
use faust::types::{
    ClientId, CommitMsg, InvocationTuple, OpKind, ReplyMsg, Timestamp, UstorMsg, Value,
};
use faust::ustor::adversary::{Tamper, TamperServer};
use faust::ustor::{CommitMode, EngineStats, Server, ServerEngine, UstorServer};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};

const N: usize = 3;
const STEPS: u64 = 240;

fn c(i: usize) -> ClientId {
    ClientId::new(i as u32)
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

fn server(spec: Spec, dir: &Path, seed: u64) -> Box<dyn Server + Send> {
    match spec {
        Spec::Honest => Box::new(UstorServer::new(N)),
        Spec::Persistent => {
            let config = StoreConfig {
                durability: Durability::Never,
                snapshot_every: 16,
            };
            Box::new(PersistentServer::open(dir, N, config).expect("fresh store"))
        }
        Spec::Tampering(kind) => Box::new(TamperServer::new(
            N,
            c(seed as usize % N),
            4 + seed as usize % 8,
            kind,
        )),
    }
}

/// How the sessions run.
#[derive(Debug, Clone, Copy)]
struct Mode {
    pipeline: usize,
    commit_mode: CommitMode,
}

const MODES: [Mode; 3] = [
    Mode {
        pipeline: 1,
        commit_mode: CommitMode::Immediate,
    },
    Mode {
        pipeline: 4,
        commit_mode: CommitMode::Immediate,
    },
    Mode {
        pipeline: 4,
        commit_mode: CommitMode::Piggyback,
    },
];

/// Everything a run shows except its downstream bytes.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Every REPLY each client was handed, in order, with its `L` in full.
    replies: Vec<(usize, ReplyMsg)>,
    /// Every message the sessions sent, in order.
    upstream: Vec<(usize, UstorMsg)>,
    events: Vec<(usize, u64, Event)>,
    stats: EngineStats,
    /// `wal.bin`, `snapshot.bin` and the exported `FAUSTHIS`.
    files: Option<(Vec<u8>, Vec<u8>, Vec<u8>)>,
}

/// What came downstream.
#[derive(Debug, Default)]
struct Downstream {
    /// REPLYs that kept a tail of the previous `L`.
    kept: usize,
    /// REPLYs whose `SVER[c]` came as the marker, and as a delta.
    markers: usize,
    own_deltas: usize,
    /// Read REPLYs whose value came as a name.
    names: usize,
    /// REPLYs with a non-empty `L`.
    nonempty: usize,
    /// Framed bytes as sent, and as they would be with every `L`,
    /// `SVER[c]` and value in full.
    bytes: usize,
    full_bytes: usize,
}

/// What session `i` has sent: every COMMIT in full, and each SUBMIT not
/// yet answered — its timestamp, kind and register, oldest first.
#[derive(Default)]
struct Sent {
    commits: Vec<CommitMsg>,
    submits: VecDeque<(Timestamp, OpKind, ClientId)>,
}

/// Queues what session `i` sent after its REPLY to `answered` (if any),
/// first checking each delta COMMIT against the full COMMIT the session
/// keeps for a resend, and records it in `sent`.
fn send(
    i: usize,
    msgs: Vec<UstorMsg>,
    core: &SessionCore,
    answered: Option<&ReplyMsg>,
    up: &mut VecDeque<(usize, UstorMsg)>,
    upstream: &mut Vec<(usize, UstorMsg)>,
    sent: &mut Sent,
) {
    for msg in &msgs {
        if let UstorMsg::Submit(submit) = msg {
            let tuple = &submit.tuple;
            let submitted = (submit.timestamp, tuple.kind, tuple.register);
            sent.submits.push_back(submitted);
        }
    }
    let sent = &mut sent.commits;
    for msg in msgs {
        match &msg {
            UstorMsg::CommitDelta(delta) => {
                let answered = answered.expect("a delta answers a REPLY");
                let full = core
                    .resend_messages()
                    .into_iter()
                    .rev()
                    .find_map(|m| match m {
                        UstorMsg::Commit(commit) => Some(commit),
                        _ => None,
                    });
                let resolved = delta.resolve(&answered.commit_version.version);
                assert_eq!(resolved.ok(), full, "a delta COMMIT misses an entry");
                sent.extend(full);
            }
            UstorMsg::Commit(commit) => sent.push(commit.clone()),
            UstorMsg::Submit(submit) => sent.extend(submit.piggyback.clone()),
            UstorMsg::Reply(_) => {}
        }
        upstream.push((i, msg.clone()));
        up.push_back((i, msg));
    }
}

/// Runs one seeded script: each step a client submits, the engine takes
/// the oldest upstream message, or a client takes its oldest REPLY —
/// drawn from `seed` alone, so both variants of a run make the same
/// choices. With `expand`, each REPLY's `L` is rebuilt in full before the
/// client sees it, against the `L` of the REPLY before it to the same
/// client, its `SVER[c]` from the COMMIT it names, and a named read value
/// from the value of the REPLY to the read it names.
fn run(spec: Spec, seed: u64, mode: Mode, expand: bool) -> (Outcome, Downstream) {
    let dir: PathBuf = scratch_dir("reply-delta");
    let keys = KeySet::generate(N, b"reply-delta");
    let mut engine = ServerEngine::new(N, server(spec, &dir, seed));
    let mut cores: Vec<SessionCore> = (0..N)
        .map(|i| {
            SessionCore::new(FaustClient::new(
                c(i),
                N,
                keys.keypair(i as u32).expect("generated").clone(),
                keys.registry(),
                FaustConfig {
                    dummy_reads: false,
                    pipeline: mode.pipeline,
                    commit_mode: mode.commit_mode,
                    ..FaustConfig::default()
                },
            ))
        })
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut up: VecDeque<(usize, UstorMsg)> = VecDeque::new();
    let mut down: Vec<VecDeque<ReplyMsg>> = vec![VecDeque::new(); N];
    // The full `L` of the last REPLY each client was handed, what each
    // client sent, and per client and register the value of the last read
    // REPLY it was handed, with that read's timestamp.
    let mut base: Vec<Vec<InvocationTuple>> = vec![Vec::new(); N];
    let mut sent: Vec<Sent> = (0..N).map(|_| Sent::default()).collect();
    let mut values: Vec<Vec<Option<(Timestamp, Value)>>> = vec![vec![None; N]; N];
    let mut downstream = Downstream::default();
    let mut outcome = Outcome {
        replies: Vec::new(),
        upstream: Vec::new(),
        events: Vec::new(),
        stats: EngineStats::default(),
        files: None,
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
                send(
                    i,
                    out.to_server,
                    &cores[i],
                    None,
                    &mut up,
                    &mut outcome.upstream,
                    &mut sent[i],
                );
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
                let Some(shipped) = down[i].pop_front() else {
                    continue;
                };
                downstream.bytes += frame_bytes(&UstorMsg::Reply(shipped.clone())).len();
                let left_out = &shipped.left_out;
                downstream.kept += usize::from(left_out.kept > 0);
                if let Some(own) = &left_out.commit {
                    downstream.markers += usize::from(own.is_marker());
                    downstream.own_deltas += usize::from(!own.is_marker());
                }
                downstream.names += usize::from(left_out.value.is_some());
                let (t, kind, j) = sent[i].submits.pop_front().expect("a SUBMIT answered");
                let held = &mut values[i][j.index()];
                // What the script says client `i` holds: the full `L` of the
                // last REPLY it was handed, every COMMIT it sent, and the
                // value of its last read REPLY for this register.
                let commit = |t| {
                    let mut commits = sent[i].commits.iter().rev();
                    let named = commits.find(|commit| commit.version.v().get(c(i)) == t)?;
                    Some((&named.version, named.commit_sig))
                };
                let value = |t_r| held.clone().filter(|(t, _)| *t == t_r).map(|(_, v)| v);
                let mut full = shipped.clone();
                full.fill_in(std::mem::take(&mut base[i]), commit, value)
                    .expect("the engine leaves out only what the client holds");
                if let (Some(read), OpKind::Read) = (full.read.as_ref(), kind) {
                    *held = read.mem_value.clone().map(|value| (t, value));
                }
                downstream.nonempty += usize::from(!full.pending.is_empty());
                downstream.full_bytes += frame_bytes(&UstorMsg::Reply(full.clone())).len();
                base[i] = full.pending.clone();
                let reply = if expand { full.clone() } else { shipped };
                let out = cores[i].handle_reply(reply, step);
                send(
                    i,
                    out.to_server,
                    &cores[i],
                    Some(&full),
                    &mut up,
                    &mut outcome.upstream,
                    &mut sent[i],
                );
                outcome.replies.push((i, full));
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
    (outcome, downstream)
}

#[test]
fn kept_pending_lists_and_their_full_forms_get_the_same_verdicts() {
    let mut specs = vec![Spec::Honest, Spec::Persistent];
    specs.extend(TAMPERS.map(Spec::Tampering));
    let (mut violations, mut kept_runs, mut own_runs, mut named_runs) = (0, 0, 0, 0);
    for spec in specs {
        for mode in MODES {
            for seed in 0..3u64 {
                let (shipped, sent) = run(spec, seed, mode, false);
                let (expanded, _) = run(spec, seed, mode, true);
                let label = format!("{spec:?}, {mode:?}, seed {seed}");
                assert_eq!(shipped, expanded, "{label}");
                assert!(sent.nonempty > 0, "{label}: {sent:?}");
                // 42 bytes per tuple kept at n = 3 (an HMAC signature), less
                // the word that says how many; a marker saves SVER[c] (at
                // least 69 bytes at n = 3, every digest ⊥) less its 12, a
                // delta more than nothing, a name the 1 + 4 + 12 bytes of
                // a `Value::unique` less its 9.
                let own = sent.markers + sent.own_deltas;
                kept_runs += usize::from(sent.kept > 0);
                own_runs += usize::from(own > 0);
                named_runs += usize::from(sent.names > 0);
                assert!(
                    sent.bytes
                        + 38 * sent.kept
                        + 57 * sent.markers
                        + sent.own_deltas
                        + 8 * sent.names
                        <= sent.full_bytes,
                    "{label}: {sent:?}"
                );
                if sent.kept + own + sent.names == 0 {
                    assert_eq!(sent.bytes, sent.full_bytes, "{label}: {sent:?}");
                }
                let violated = shipped
                    .events
                    .iter()
                    .any(|(_, _, e)| matches!(e, Event::Violation { .. }));
                if let Spec::Honest | Spec::Persistent = spec {
                    assert!(!violated, "{label}: {:?}", shipped.events);
                    assert_eq!(shipped.stats.rejected, 0, "{label}");
                    // A pipelined client's next REPLY finds its own and
                    // its peers' uncommitted operations still in `L`, and
                    // every client's SVER[c] is often its own last COMMIT
                    // or near it.
                    assert!(mode.pipeline == 1 || sent.kept > 0, "{label}: {sent:?}");
                    assert!(own > 0, "{label}: {sent:?}");
                    // Reads of registers nobody wrote since come named.
                    assert!(sent.names > 0, "{label}: {sent:?}");
                }
                violations += usize::from(violated);
            }
        }
    }
    // The Byzantine servers are caught in most runs, kept tails or not,
    // and tails are kept in most runs of every kind.
    assert!(violations >= 60, "{violations} runs flagged");
    println!(
        "{violations} runs flagged, {kept_runs} kept a tail, {own_runs} named a COMMIT of the \
         recipient's, {named_runs} named a read value"
    );
    assert!(kept_runs >= 60, "{kept_runs} runs kept a tail");
    assert!(
        own_runs >= 90,
        "{own_runs} runs named a COMMIT of the recipient's"
    );
    assert!(named_runs >= 90, "{named_runs} runs named a read value");
}
