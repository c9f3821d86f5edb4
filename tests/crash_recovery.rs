//! Kill-and-restart end-to-end tests over loopback TCP: the full FAUST
//! stack (stability, probes, failure detection) runs in live
//! `FaustHandle` sessions against a persistent server engine behind the
//! reactor; mid-run the server is killed — engine thread wound down,
//! sockets torn down, all volatile state dropped — and a *new*
//! incarnation is recovered from disk on a fresh socket, with the same
//! sessions (state intact, protocol clock continuing) redialing it.
//!
//! The two claims of the persistent backend, end to end:
//!
//! * **Honest recovery is invisible**: the run completes across the
//!   restart with zero `fail` notifications and stability still
//!   advancing.
//! * **Truncated recovery is a detected violation**: if the log loses
//!   acknowledged records while the server is down, the restarted server
//!   presents a rolled-back schedule and clients flag it — exactly the
//!   clients whose view the cut contradicts, and no others.
//!
//! Underneath both: after one incarnation, with or without group commit,
//! recovery finds exactly one record per acknowledged message.

mod common;

use common::{completions, handle_config, incarnation, quiet_config, run_loopback, run_phase};
use faust::client::{Event, FaustHandle, WaitError};
use faust::core::{FailReason, UserOp};
use faust::net::tcp;
use faust::sim::SmallRng;
use faust::store::log::{Wal, WAL_FILE};
use faust::store::{
    testutil, truncate_tail_records, Durability, LogRecord, PersistentBackend, PersistentServer,
    StoreConfig,
};
use faust::types::{ClientId, Value};
use faust::ustor::{EngineStats, ServerEngine};
use std::path::Path;
use std::time::Duration;

fn c(i: u32) -> ClientId {
    ClientId::new(i)
}

/// Clients in the two-phase runs.
const N: usize = 3;

/// Wall time per phase. Dummy reads are off, so when a phase ends every
/// session is quiescent (no operation in flight), which is what makes a
/// clean kill between phases possible — exactly like an operator
/// draining traffic before stopping a process.
const RUN_FOR: Duration = Duration::from_millis(1200);

/// The sessions at the end of a phase, each with its events.
type Phase = Vec<(FaustHandle, Vec<Event>)>;

/// The first phase: an incarnation built from `backend` serves fresh
/// sessions. When this returns, that incarnation is dead: sessions
/// disconnected, engine thread joined; only the log survives.
fn first_phase(backend: &PersistentBackend, key_seed: &[u8]) -> (Phase, EngineStats) {
    let engine = ServerEngine::from_backend(N, backend).expect("fresh store");
    run_loopback(
        engine,
        phase1_workloads(),
        key_seed,
        &handle_config(false),
        RUN_FOR,
    )
}

/// The second phase: a new incarnation recovered from `backend`, redialed
/// by the first phase's sessions.
fn second_phase(previous: Phase, backend: &PersistentBackend) -> (Phase, EngineStats) {
    let (addr, engine) = incarnation(backend, N);
    let handles = previous
        .into_iter()
        .map(|(mut handle, _)| {
            let conn = tcp::connect(addr, handle.id()).expect("redial");
            handle.reconnect(Box::new(conn));
            handle
        })
        .collect();
    let mut outcome = run_phase(handles, phase2_workloads(), RUN_FOR);
    for (handle, _) in &mut outcome {
        handle.disconnect();
    }
    (outcome, engine.join().expect("engine thread"))
}

fn phase1_workloads() -> Vec<Vec<UserOp>> {
    vec![
        vec![
            UserOp::Write(Value::from("a1")),
            UserOp::Write(Value::from("a2")),
        ],
        vec![UserOp::Write(Value::from("b1"))],
        vec![UserOp::Read(c(0))],
    ]
}

fn phase2_workloads() -> Vec<Vec<UserOp>> {
    vec![
        vec![UserOp::Read(c(1)), UserOp::Write(Value::from("a3"))],
        vec![UserOp::Read(c(0))],
        vec![UserOp::Write(Value::from("c1"))],
    ]
}

fn failures(phase: &Phase) -> Vec<FailReason> {
    phase
        .iter()
        .filter_map(|(h, _)| h.failure().cloned())
        .collect()
}

fn phase_completions(phase: &Phase) -> Vec<usize> {
    phase
        .iter()
        .map(|(_, events)| completions(events))
        .collect()
}

/// The value C1's read returned in `phase`.
fn c1_read(phase: &Phase) -> Option<Value> {
    phase[1]
        .1
        .iter()
        .find_map(|e| match e {
            Event::Completed { completion, .. } => completion.read_value.clone(),
            _ => None,
        })
        .expect("C1's read completed")
}

/// The honest kill-and-restart under `store`.
fn honest_restart(label: &str, store: StoreConfig) {
    let dir = testutil::scratch_dir(label);
    let backend = PersistentBackend::new(&dir, store);

    let (phase1, _) = first_phase(&backend, label.as_bytes());
    assert!(failures(&phase1).is_empty(), "{:?}", failures(&phase1));
    assert_eq!(phase_completions(&phase1), vec![2, 1, 1]);
    // <-- the server incarnation is dead here; only the log survives.

    let (phase2, stats) = second_phase(phase1, &backend);
    assert!(
        failures(&phase2).is_empty(),
        "honest recovery must be invisible over TCP: {:?}",
        failures(&phase2)
    );
    assert_eq!(phase_completions(&phase2), vec![2, 1, 1]);
    // The restarted engine really served the second phase...
    assert!(stats.submits >= 4);
    assert_eq!(stats.rejected, 0);
    // ...the read crossing the restart saw the pre-crash write...
    assert_eq!(
        c1_read(&phase2),
        Some(Value::from("a2")),
        "read after restart must see the last pre-crash value"
    );
    // ...and stability kept advancing across the restart.
    let cut = phase2[0].0.stability_cut().w;
    assert!(
        cut.iter().all(|&w| w >= 1),
        "stability must survive the restart, got {cut:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The restart after the log lost its last 6 acknowledged records under
/// `store`.
fn truncated_restart(label: &str, store: StoreConfig) {
    let dir = testutil::scratch_dir(label);
    let backend = PersistentBackend::new(&dir, store);

    let (phase1, _) = first_phase(&backend, label.as_bytes());
    assert!(failures(&phase1).is_empty(), "{:?}", failures(&phase1));

    // While the server is down, its log loses the last 6 acknowledged
    // records — truncated at a record boundary, so the recovery itself
    // is locally flawless. This is the rollback attack (or a disk that
    // lied about fsync); either way the schedule the new incarnation
    // serves is a prefix of what clients have signed proof of.
    let kept = truncate_tail_records(&dir, 6).expect("tamper with the log");
    assert!(kept > 0, "a rollback, not a wipe");

    let (phase2, _) = second_phase(phase1, &backend);
    let failures = failures(&phase2);
    assert!(
        !failures.is_empty(),
        "clients must detect the rolled-back schedule"
    );
    // At least one client pinned it as a protocol violation (the others
    // may learn of it via offline gossip instead).
    assert!(
        failures.iter().any(|reason| matches!(
            reason,
            FailReason::Ustor(_) | FailReason::IncomparableVersions { .. }
        )),
        "expected a protocol-violation reason, got {failures:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn server_killed_and_recovered_mid_run_is_invisible_to_clients() {
    // The real deployment configuration: fsync before acknowledging.
    honest_restart("e2e-honest", StoreConfig::default());
}

#[test]
fn group_commit_server_killed_and_recovered_mid_run_is_invisible_to_clients() {
    // The guarantee must survive the group-commit optimization
    // unchanged: replies are only released after their batch's fsync, so
    // the killed incarnation's log holds every acknowledged operation.
    honest_restart("e2e-group-honest", group_store_config());
}

#[test]
fn server_recovered_from_truncated_log_is_detected_as_violation() {
    // No auto-snapshots, so the whole acknowledged history sits in the
    // log — and the truncation provably discards acknowledged operations.
    truncated_restart(
        "e2e-truncated",
        StoreConfig {
            durability: Durability::Always,
            snapshot_every: 0,
        },
    );
}

#[test]
fn group_commit_truncated_log_is_still_detected_as_violation() {
    // Group commit must not weaken rollback detection.
    truncated_restart("e2e-group-truncated", group_store_config());
}

/// Sessions against an engine built from the persistent backend via
/// `ServerEngine::from_backend`: every acknowledged message is in the log
/// afterwards, and recovery rebuilds the full schedule.
#[test]
fn threaded_runtime_runs_durably_over_a_persistent_backend() {
    let n = 2;
    let dir = testutil::scratch_dir("threaded-durable");
    let store = StoreConfig {
        durability: Durability::Never,
        ..StoreConfig::default()
    };
    let backend = PersistentBackend::new(&dir, store.clone());
    let engine = ServerEngine::from_backend(n, &backend).expect("fresh store");
    let workloads = vec![
        vec![
            UserOp::Write(Value::from("d1")),
            UserOp::Write(Value::from("d2")),
        ],
        vec![UserOp::Read(c(0))],
    ];
    let (run, _) = run_loopback(
        engine,
        workloads,
        b"durable-threaded",
        &handle_config(false),
        Duration::ZERO,
    );
    assert!(failures(&run).is_empty(), "{:?}", failures(&run));
    assert_eq!(phase_completions(&run), vec![2, 1]);
    // 3 submits + 3 commits were acknowledged, so 6 records are durable;
    // recovery resumes exactly there.
    let recovered = PersistentServer::recover(&dir, n, store).expect("clean recovery");
    assert_eq!(recovered.next_seq(), 6);
    std::fs::remove_dir_all(&dir).ok();
}

/// The full pipeline under `Durability::Group`: replies are held until
/// the batch fsync, the serve loop honours the flush deadline (no
/// deadlock with synchronous clients), every op completes, and recovery
/// sees every acknowledged record.
#[test]
fn threaded_runtime_group_commit_amortizes_fsyncs_and_stays_correct() {
    let n = 3;
    let dir = testutil::scratch_dir("threaded-group");
    let store = group_store_config();
    let backend = PersistentBackend::new(&dir, store.clone());
    let engine = ServerEngine::from_backend(n, &backend).expect("fresh store");
    let workloads: Vec<Vec<UserOp>> = (0..n as u32)
        .map(|i| {
            (0..5)
                .map(|s| {
                    if s % 2 == 0 {
                        UserOp::Write(Value::unique(i, s))
                    } else {
                        UserOp::Read(c((i + 1) % n as u32))
                    }
                })
                .collect()
        })
        .collect();
    let (run, _) = run_loopback(
        engine,
        workloads,
        b"group-threaded",
        &handle_config(false),
        Duration::ZERO,
    );
    assert!(failures(&run).is_empty(), "{:?}", failures(&run));
    assert_eq!(phase_completions(&run), vec![5; n]);
    // 15 submits + 15 commits acknowledged ⇒ 30 durable records.
    let recovered = PersistentServer::recover(&dir, n, store).expect("clean recovery");
    assert_eq!(recovered.next_seq(), 30);
    std::fs::remove_dir_all(&dir).ok();
}

/// Group commit with production-ish knobs scaled for a CI loopback run:
/// small batches, 2 ms max added latency.
fn group_store_config() -> StoreConfig {
    StoreConfig {
        durability: Durability::Group {
            max_records: 8,
            max_wait: Duration::from_millis(2),
        },
        snapshot_every: 0,
    }
}

/// Byte-for-byte copy of a store directory.
fn copy_store(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("mkdir");
    for entry in std::fs::read_dir(src).expect("readdir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy");
    }
}

/// **Random truncation points, and exactly which clients must notice.**
/// Each iteration runs a round-robin write schedule against a group-commit
/// store (every wait observed, so each client's SUBMIT and COMMIT records
/// alternate in the log), then cuts a random tail of any length off the
/// log. An odd cut separates a SUBMIT from its COMMIT. Recovery replays
/// the surviving prefix without complaint — the log is locally flawless —
/// so detection is the clients' job, and the oracle below predicts it
/// from the cut point alone.
///
/// A reconnecting resilient session *replays its latest COMMIT* (the
/// resend window retains it as the Algorithm 1 line 41 anchor), which
/// re-anchors the client's own history on the rolled-back server: plain
/// version regression is invisible to a write, and a cut whose evidence
/// was entirely superseded heals silently (reads that could observe lost
/// data still detect, which `tests/client_api.rs` and `tests/chaos.rs`
/// exercise). What a write still proves is a surviving-but-uncovered
/// pending SUBMIT whose signature cannot verify at the healed version's
/// expected timestamp; the oracle predicts exactly those flags. Every
/// other client must stay clean: fail-aware detection is accurate, not
/// just complete.
///
/// The oracle reads the order from the log's own sequence numbers and
/// each record's sender rather than assuming a schedule: the waits pin
/// each *client's* record order, but a COMMIT can legitimately be
/// overtaken by the next client's SUBMIT.
#[test]
fn random_truncation_points_recover_into_flagged_rollbacks() {
    let wait = Duration::from_secs(10);
    // These seeds include cuts every client flags, cuts no client flags,
    // and cuts only some clients flag; the oracle holds over the first
    // 400 seeds too.
    for seed in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(0x5A_D0 ^ seed);
        let n = rng.gen_range_inclusive(2, 4) as usize;
        let rounds = rng.gen_range_inclusive(2, 3) as usize;
        let dir = testutil::scratch_dir(&format!("truncation-prop-{seed}"));
        let backend = PersistentBackend::new(&dir, group_store_config());
        let config = quiet_config();

        // Phase 1: `rounds` round-robin writes per client, strictly
        // sequential.
        let (addr, engine) = incarnation(&backend, n);
        let mut handles: Vec<FaustHandle> = (0..n)
            .map(|i| {
                FaustHandle::connect_tcp(addr, c(i as u32), n, b"truncation-prop", &config)
                    .expect("connect")
            })
            .collect();
        for r in 0..rounds {
            for (i, h) in handles.iter_mut().enumerate() {
                let ticket = h.write(Value::from(vec![b'v', i as u8, r as u8]));
                let done = h.wait(ticket, wait).expect("phase-1 write completes");
                assert_eq!(done.timestamp, (r + 1) as u64, "seed {seed}");
            }
        }
        for h in &mut handles {
            h.disconnect();
        }
        engine.join().expect("engine thread");

        // Ground truth before tampering: the sequence numbers of each
        // client's SUBMITs and of its COMMITs, `rounds` of each.
        let log = Wal::scan(&dir.join(WAL_FILE)).expect("scan log").records;
        let mut subs = vec![Vec::new(); n];
        let mut coms = vec![Vec::new(); n];
        for scanned in &log {
            let from = scanned.record.from().index();
            match scanned.record {
                LogRecord::Submit { .. } => subs[from].push(scanned.seq),
                LogRecord::Commit { .. } => coms[from].push(scanned.seq),
            }
        }
        for i in 0..n {
            assert_eq!(
                (subs[i].len(), coms[i].len()),
                (rounds, rounds),
                "seed {seed}, client {i}"
            );
        }

        // The attack: cut a random tail, keeping at least one record.
        let cut = rng.gen_range_inclusive(1, log.len() as u64 - 1) as usize;
        let kept = truncate_tail_records(&dir, cut).expect("tamper with the log");
        assert_eq!(kept, log.len() - cut, "a rollback, not a wipe");
        let first_hole = log[kept].seq;

        // What the recovered server still holds, per client.
        let surviving = |seqs: &[u64]| seqs.iter().filter(|&&s| s < first_hole).count();
        let effective: Vec<usize> = subs.iter().map(|s| surviving(s)).collect();
        let eff_commits: Vec<usize> = coms.iter().map(|s| surviving(s)).collect();
        // The version committed for client m's op r: entry i counts i's
        // SUBMITs processed up to m's r-th SUBMIT (its own included).
        // All versions along one schedule are totally ordered, so an
        // entry-wise comparison identifies the dominant one.
        let version_at = |m: usize, r: usize| -> Vec<usize> {
            let pivot = subs[m][r - 1];
            subs.iter()
                .map(|s| s.iter().filter(|&&x| x <= pivot).count())
                .collect()
        };
        let dominates = |a: &[usize], b: &[usize]| a.iter().zip(b).all(|(x, y)| x >= y);
        // The dominant surviving commit version: recovery replays the
        // surviving COMMITs in order and `on_commit` keeps the greatest
        // (the initial version if none survived).
        let v_surviving = (0..n)
            .flat_map(|m| (1..=rounds).map(move |r| (m, r)))
            .filter(|&(m, r)| coms[m][r - 1] < first_hole)
            .map(|(m, r)| version_at(m, r))
            .fold(vec![0; n], |a, b| if dominates(&b, &a) { b } else { a });
        // Phase-2 oracle under resilient-session semantics: client j's
        // reconnect replays its final COMMIT, so the reply it folds
        // starts from the dominant of {best surviving version, j's own
        // final version} — plain version regression is re-anchored, not
        // flagged. What remains visible is a surviving-but-uncovered
        // pending SUBMIT (its COMMIT fell past the cut while the SUBMIT
        // survived): the fold checks each pending tuple's
        // SUBMIT-signature at the healed version's expected timestamp,
        // and a healed entry that moved past the tuple's true timestamp
        // cannot verify.
        //
        // Which pending tuples the reply folds depends on the replayed
        // COMMIT's pruning (Algorithm 2 lines 118–121): the replay
        // advances the schedule head only if j's final version is the
        // dominant one, and it prunes (j's covered tuple and everything
        // queued before it) only if the covered tuple is actually in L —
        // i.e. j's own uncovered SUBMIT is its *final* one. Otherwise
        // nothing is pruned, and j's own stale pending tuple — expected
        // at the healed `rounds + 1` but signed at its true timestamp —
        // always flags.
        let pend = |k: usize| effective[k] == eff_commits[k] + 1;
        // Log position of client k's surviving pending SUBMIT.
        let pend_seq = |k: usize| subs[k][effective[k] - 1];
        let must_flag: Vec<bool> = (0..n)
            .map(|j| {
                let own = version_at(j, rounds);
                let own_dominant = dominates(&own, &v_surviving);
                assert!(
                    own_dominant || dominates(&v_surviving, &own),
                    "seed {seed}: schedule versions are totally ordered"
                );
                let heal = if own_dominant { &own } else { &v_surviving };
                let prunes = pend(j) && own_dominant && effective[j] == rounds;
                let own_folds = pend(j) && !prunes;
                let peer_folds =
                    |k: usize| pend(k) && (!prunes || pend_seq(k) > subs[j][rounds - 1]);
                own_folds
                    || (0..n)
                        .filter(|&k| k != j)
                        .any(|k| peer_folds(k) && heal[k] != eff_commits[k])
            })
            .collect();

        // Freeze the tampered log: each client gets its verdict against
        // a pristine copy, so one client's post-recovery SUBMIT (logged,
        // replayed as pending, folded into candidates) cannot mask the
        // rollback the next client would otherwise see.
        let copies: Vec<std::path::PathBuf> = (0..n)
            .map(|j| {
                let copy = dir.with_file_name(format!(
                    "{}-client{j}",
                    dir.file_name().unwrap().to_string_lossy()
                ));
                copy_store(&dir, &copy);
                copy
            })
            .collect();

        // Phase 2: each client reconnects to its own recovered
        // incarnation and writes once. Exactly the predicted clients
        // flag the rollback; the rest stay clean.
        for (j, h) in handles.iter_mut().enumerate() {
            let recovered = PersistentBackend::new(&copies[j], group_store_config());
            let (addr, engine) = incarnation(&recovered, n);
            // The transport serves exactly n client slots; fill the
            // others with idle connections so the engine can retire.
            let fillers: Vec<_> = (0..n)
                .filter(|&m| m != j)
                .map(|m| tcp::connect(addr, c(m as u32)).expect("filler"))
                .collect();
            h.reconnect(Box::new(tcp::connect(addr, c(j as u32)).expect("redial")));
            let ticket = h.write(Value::from(vec![b'p', j as u8]));
            if must_flag[j] {
                let err = h.wait(ticket, wait).expect_err("rollback must be detected");
                assert!(
                    matches!(err, WaitError::Violation(_)),
                    "seed {seed}, client {j}: got {err:?}"
                );
                assert!(
                    h.poll()
                        .iter()
                        .any(|(_, e)| matches!(e, Event::Violation { .. })),
                    "seed {seed}, client {j}: expected Event::Violation"
                );
                assert!(h.failure().is_some(), "seed {seed}, client {j}");
            } else {
                let done = h.wait(ticket, wait).unwrap_or_else(|e| {
                    panic!(
                        "seed {seed}, client {j}, cut {cut}: detection must be \
                         accurate, but the clean client saw {e:?}"
                    )
                });
                // The session kept its own clock: the replayed COMMIT
                // re-anchored the server, and the write lands at the
                // client's true next timestamp, rolled-back tail or not.
                assert_eq!(done.timestamp, rounds as u64 + 1, "seed {seed}");
                assert!(h.failure().is_none(), "seed {seed}, client {j}");
            }
            h.disconnect();
            drop(fillers);
            engine.join().expect("engine thread");
            std::fs::remove_dir_all(&copies[j]).ok();
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
