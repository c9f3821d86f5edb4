//! Recovery invariants: a recovered server is bit-identical to the
//! pre-crash server — mid-protocol, across snapshots, and under the one
//! benign crash window (snapshot written, log not yet rotated).

use faust_store::snapshot::{write_snapshot, Snapshot};
use faust_store::testutil::{self, clients, run_op};
use faust_store::{Durability, PersistentServer, StoreConfig, StoreError};
use faust_types::{ClientId, Timestamp, UstorMsg, Value};
use faust_ustor::{CommitMode, Server, ServerEngine, UstorClient, UstorServer};

fn c(i: u32) -> ClientId {
    ClientId::new(i)
}

fn no_sync() -> StoreConfig {
    StoreConfig {
        durability: Durability::Never,
        ..StoreConfig::default()
    }
}

/// Drives traffic into a persistent server, leaving `pending`
/// uncommitted ops in `L`, then "crashes" it. Returns a clone of the
/// exact pre-crash protocol state as the bit-identity reference.
fn crashed_run(
    dir: &std::path::Path,
    config: StoreConfig,
    rounds: u64,
    pending: usize,
) -> (UstorServer, Vec<UstorClient>) {
    let n = 3;
    let mut persistent = PersistentServer::open(dir, n, config).unwrap();
    let mut cs = clients(n, b"recovery-mirror");
    for round in 0..rounds {
        for i in 0..n {
            let submit = cs[i].begin_write(Value::unique(i as u32, round)).unwrap();
            run_op(&mut persistent, &mut cs[i], submit);
        }
    }
    // Leave some submits uncommitted so recovery must rebuild `L` too.
    for i in 0..pending {
        let submit = cs[i].begin_write(Value::unique(i as u32, 999)).unwrap();
        persistent.on_submit(c(i as u32), submit);
    }
    assert_eq!(persistent.server().pending_len(), pending);
    let reference = persistent.server().clone();
    drop(persistent); // the crash
    (reference, cs)
}

#[test]
fn recovery_is_bit_identical_mid_protocol() {
    let dir = testutil::scratch_dir("recovery-identical");
    let (reference, mut cs) = crashed_run(&dir, no_sync(), 3, 2);

    let recovered = PersistentServer::recover(&dir, 3, no_sync()).unwrap();
    assert_eq!(
        *recovered.server(),
        reference,
        "recovered state must be bit-identical"
    );
    assert_eq!(recovered.server().pending_len(), 2);

    // The restarted server keeps serving the *same* clients: the two
    // blocked writers never see their first reply (it died with the old
    // process), but a fresh client op completes without any violation.
    let mut recovered: Box<dyn Server + Send> = Box::new(recovered);
    let submit = cs[2].begin_read(c(0)).unwrap();
    let (_, reply) = recovered.on_submit(c(2), submit).pop().unwrap();
    let (_, done) = cs[2].handle_reply(reply).expect("recovery is invisible");
    // MEM[0] is updated at SUBMIT time (Algorithm 2), so the read sees
    // C0's still-uncommitted round-999 write — proving the recovered
    // server rebuilt MEM from the log's uncommitted suffix too.
    assert_eq!(done.read_value, Some(Some(Value::unique(0, 999))));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_with_fsync_always_matches_too() {
    let dir = testutil::scratch_dir("recovery-fsync");
    let config = StoreConfig::default(); // Durability::Always
    let (reference, _) = crashed_run(&dir, config.clone(), 1, 1);
    let recovered = PersistentServer::recover(&dir, 3, config).unwrap();
    assert_eq!(*recovered.server(), reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_across_snapshot_compaction() {
    let dir = testutil::scratch_dir("recovery-snapshot");
    let config = StoreConfig {
        durability: Durability::Never,
        snapshot_every: 5, // force several rotations over 18 records
    };
    let (reference, _) = crashed_run(&dir, config.clone(), 3, 0);
    let recovered = PersistentServer::recover(&dir, 3, config).unwrap();
    assert_eq!(*recovered.server(), reference);
    assert_eq!(recovered.next_seq(), 18);
    assert!(
        recovered.wal_records() < 18,
        "snapshots must have compacted the log"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_between_snapshot_and_rotation_is_benign() {
    // The documented ordering: snapshot renamed into place, *then* the
    // log rotated. A crash in between leaves a snapshot whose coverage
    // overlaps the log's early records; recovery verifies but skips them.
    let dir = testutil::scratch_dir("recovery-overlap");
    let n = 3;
    let mut persistent = PersistentServer::open(&dir, n, no_sync()).unwrap();
    let mut cs = clients(n, b"recovery-mirror");
    for i in 0..n {
        let submit = cs[i].begin_write(Value::unique(i as u32, 0)).unwrap();
        run_op(&mut persistent, &mut cs[i], submit);
    }
    let reference = persistent.server().clone();
    // Snapshot covering ALL 6 records, written by hand without rotating
    // the log — exactly the state a crash inside `snapshot()` leaves.
    write_snapshot(
        &dir,
        &Snapshot {
            n,
            next_seq: persistent.next_seq(),
            state: persistent.server().export_state(),
        },
        false,
    )
    .unwrap();
    drop(persistent);

    let recovered = PersistentServer::recover(&dir, n, no_sync()).unwrap();
    assert_eq!(*recovered.server(), reference);
    assert_eq!(recovered.next_seq(), 6);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_only_directory_is_flagged_as_rollback_suspect() {
    let dir = testutil::scratch_dir("recovery-missing-wal");
    let config = StoreConfig {
        durability: Durability::Never,
        snapshot_every: 2,
    };
    let (_, _) = crashed_run(&dir, config.clone(), 2, 0);
    std::fs::remove_file(dir.join("wal.bin")).unwrap();
    assert!(matches!(
        PersistentServer::recover(&dir, 3, config).unwrap_err(),
        StoreError::MissingWal
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn log_ending_before_snapshot_coverage_is_refused() {
    // Start from the benign overlap window (snapshot covers to 6, wal
    // still holds records 0..6), then truncate the wal to 4 records.
    // The snapshot alone *could* serve the state — but accepting it
    // would rewind the append counter to 4, and records later logged at
    // seqs 4 and 5 would be silently skipped (as snapshot-covered) by
    // the NEXT recovery. Strict recovery must refuse.
    let dir = testutil::scratch_dir("recovery-short-log");
    let n = 3;
    let mut persistent = PersistentServer::open(&dir, n, no_sync()).unwrap();
    let mut cs = clients(n, b"recovery-mirror");
    for i in 0..n {
        let submit = cs[i].begin_write(Value::unique(i as u32, 0)).unwrap();
        run_op(&mut persistent, &mut cs[i], submit);
    }
    write_snapshot(
        &dir,
        &Snapshot {
            n,
            next_seq: persistent.next_seq(),
            state: persistent.server().export_state(),
        },
        false,
    )
    .unwrap();
    drop(persistent);
    assert_eq!(faust_store::truncate_tail_records(&dir, 2).unwrap(), 4);
    assert!(matches!(
        PersistentServer::recover(&dir, n, no_sync()).unwrap_err(),
        StoreError::LogEndsBeforeSnapshot {
            snapshot_next: 6,
            log_next: 4
        }
    ));
    std::fs::remove_dir_all(&dir).ok();
}

/// A group-commit config whose thresholds nothing reaches by accident:
/// only explicit `flush(true)` (or `max_records`) releases replies.
fn group_config() -> StoreConfig {
    StoreConfig {
        durability: Durability::Group {
            max_records: 1_000,
            max_wait: std::time::Duration::from_secs(3600),
        },
        snapshot_every: 0,
    }
}

#[test]
fn group_commit_acked_batch_survives_a_crash() {
    // A full batch: appended, ONE fsync, replies released (= acked).
    // Every acked operation must survive the crash bit-identically.
    let dir = testutil::scratch_dir("recovery-group-acked");
    let n = 3;
    let mut server = PersistentServer::open(&dir, n, group_config()).unwrap();
    let mut cs = clients(n, b"recovery-mirror");
    for i in 0..n {
        let submit = cs[i].begin_write(Value::unique(i as u32, 0)).unwrap();
        assert!(server.on_submit(c(i as u32), submit).is_empty());
    }
    let released = server.flush(true);
    assert_eq!(released.len(), n, "one fsync released the whole batch");
    // Feed the replies back and log the commits; flush them too so the
    // entire history is acknowledged state.
    for (to, reply) in released {
        let (commit, _) = cs[to.index()].handle_reply(reply).expect("correct");
        server.on_commit(to, commit.expect("immediate mode"));
    }
    server.flush(true);
    let reference = server.server().clone();
    let acked_seq = server.next_seq();
    drop(server); // the crash — after the fsync, so nothing may be lost

    let recovered = PersistentServer::recover(&dir, n, group_config()).unwrap();
    assert_eq!(
        *recovered.server(),
        reference,
        "acked group-commit state must be bit-identical after recovery"
    );
    assert_eq!(recovered.next_seq(), acked_seq);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_between_append_and_fsync_loses_only_unacked_records() {
    // Records are appended and replies WITHHELD; the machine dies before
    // the batch's fsync. Model the power cut by dropping the unsynced
    // tail from the log: recovery must come back exactly at the acked
    // prefix — no reply a client could have observed refers to a lost
    // record.
    let dir = testutil::scratch_dir("recovery-group-tail");
    let n = 3;
    let mut server = PersistentServer::open(&dir, n, group_config()).unwrap();
    let mut cs = clients(n, b"recovery-mirror");

    // Acked prefix: one write, flushed, reply delivered, commit flushed.
    let submit = cs[0].begin_write(Value::from("acked")).unwrap();
    server.on_submit(c(0), submit);
    let (to, reply) = server.flush(true).pop().unwrap();
    let (commit, _) = cs[to.index()].handle_reply(reply).unwrap();
    server.on_commit(c(0), commit.unwrap());
    server.flush(true);
    let acked_state = server.server().clone();
    let acked_seq = server.next_seq();

    // Unacked mid-batch tail: two appends, fsync never happens.
    let submit = cs[1].begin_write(Value::from("doomed-1")).unwrap();
    assert!(server.on_submit(c(1), submit).is_empty());
    let submit = cs[2].begin_write(Value::from("doomed-2")).unwrap();
    assert!(server.on_submit(c(2), submit).is_empty());
    assert_eq!(server.held_replies(), 2, "nobody saw these replies");
    assert_eq!(server.unsynced_records(), 2);
    drop(server); // crash between append and fsync

    // The power cut takes the unsynced records with it.
    let kept = faust_store::truncate_tail_records(&dir, 2).unwrap();
    assert_eq!(kept as u64, acked_seq);

    let recovered = PersistentServer::recover(&dir, n, group_config()).unwrap();
    assert_eq!(
        *recovered.server(),
        acked_state,
        "recovery lands exactly on the acked prefix"
    );
    assert_eq!(recovered.next_seq(), acked_seq);
    let mut recovered: Box<dyn Server + Send> = Box::new(recovered);
    // C1 is still waiting on its doomed (never-acked) write — a
    // sequential client cannot begin a new op mid-flight, so losing
    // that record strands no acknowledged state.
    assert!(cs[1].begin_read(c(0)).is_err(), "C1 is mid-operation");
    // C0's history is fully acked; it keeps operating without any
    // violation and sees the acked write.
    let submit = cs[0].begin_read(c(0)).unwrap();
    let mut replies = recovered.on_submit(c(0), submit);
    // Group policy on the recovered server again: flush to release.
    if replies.is_empty() {
        replies = recovered.flush(true);
    }
    let (_, reply) = replies.pop().unwrap();
    let (_, done) = cs[0].handle_reply(reply).expect("no violation");
    assert_eq!(done.read_value, Some(Some(Value::from("acked"))));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_unacked_tail_under_group_commit_repairs_cleanly() {
    // A crash mid-`write_all` leaves a torn half-record behind the
    // acked prefix. Strict recovery refuses (no silent prefixes); the
    // explicit torn-tail repair keeps every complete record, and — with
    // group commit — everything it drops was by construction unacked.
    let dir = testutil::scratch_dir("recovery-group-torn");
    let n = 2;
    let mut server = PersistentServer::open(&dir, n, group_config()).unwrap();
    let mut cs = clients(n, b"recovery-mirror");
    let submit = cs[0].begin_write(Value::from("acked")).unwrap();
    server.on_submit(c(0), submit);
    server.flush(true); // acked
    let acked_seq = server.next_seq();
    // One more append the batch never fsyncs...
    let submit = cs[1].begin_write(Value::from("unacked")).unwrap();
    assert!(server.on_submit(c(1), submit).is_empty());
    drop(server);
    // ...and the crash tears some trailing bytes of the file off (a
    // half-flushed page), leaving a torn record.
    let wal_path = dir.join("wal.bin");
    let bytes = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &bytes[..bytes.len() - 7]).unwrap();

    let err = PersistentServer::recover(&dir, n, group_config()).unwrap_err();
    assert!(matches!(err, StoreError::TornRecord { .. }), "{err:?}");
    // The documented repair: drop the torn bytes only.
    let kept = faust_store::truncate_tail_records(&dir, 0).unwrap();
    assert_eq!(kept as u64, acked_seq, "every acked record kept");
    let recovered = PersistentServer::recover(&dir, n, group_config()).unwrap();
    assert_eq!(recovered.next_seq(), acked_seq);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn log_starting_after_snapshot_coverage_is_a_gap() {
    // A log whose base_seq jumps past the snapshot's next_seq means
    // records between them vanished.
    let dir = testutil::scratch_dir("recovery-ahead");
    let n = 2;
    let server = PersistentServer::open(&dir, n, no_sync()).unwrap();
    write_snapshot(
        &dir,
        &Snapshot {
            n,
            next_seq: 3,
            state: server.server().export_state(),
        },
        false,
    )
    .unwrap();
    drop(server);
    // Rewrite the wal with base_seq far beyond the snapshot.
    faust_store::log::Wal::create(&dir, n, 10, false).unwrap();
    assert!(matches!(
        PersistentServer::recover(&dir, n, no_sync()).unwrap_err(),
        StoreError::SnapshotAheadOfLog {
            snapshot_next: 3,
            base_seq: 10
        }
    ));
    std::fs::remove_dir_all(&dir).ok();
}

/// Appends `bytes` to `dir`'s log: a torn record behind the last whole one.
fn tear(dir: &std::path::Path, bytes: &[u8]) {
    use std::io::Write;
    let mut wal = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("wal.bin"))
        .unwrap();
    wal.write_all(bytes).unwrap();
}

#[test]
fn header_level_anomalies_are_reported_before_a_torn_tail() {
    // Recovery vets the log header and the snapshot before it reads a
    // single record, so a directory wrong at both levels names the
    // header-level problem — nothing is replayed into a server of the
    // wrong `n`.
    let dir = testutil::scratch_dir("recovery-precedence");
    let n = 2;
    let mut server = PersistentServer::open(&dir, n, no_sync()).unwrap();
    let mut cs = clients(n, b"recovery-precedence");
    let submit = cs[0].begin_write(Value::from("v")).unwrap();
    run_op(&mut server, &mut cs[0], submit);
    drop(server);
    tear(&dir, &[0; 5]);
    assert!(matches!(
        PersistentServer::recover(&dir, n, no_sync()).unwrap_err(),
        StoreError::TornRecord { seq: 2, missing: 7 }
    ));
    assert!(matches!(
        PersistentServer::recover(&dir, 3, no_sync()).unwrap_err(),
        StoreError::ClientCountMismatch {
            expected: 3,
            found: 2
        }
    ));

    // A log starting past the snapshot's coverage, torn as well.
    write_snapshot(
        &dir,
        &Snapshot {
            n,
            next_seq: 3,
            state: UstorServer::new(n).export_state(),
        },
        false,
    )
    .unwrap();
    faust_store::log::Wal::create(&dir, n, 10, false).unwrap();
    tear(&dir, &[0; 5]);
    assert!(matches!(
        PersistentServer::recover(&dir, n, no_sync()).unwrap_err(),
        StoreError::SnapshotAheadOfLog {
            snapshot_next: 3,
            base_seq: 10
        }
    ));
    std::fs::remove_dir_all(&dir).ok();
}

/// Processes rounds until the engine has nothing left to send, handing
/// every reply to its client (except the discarded ones) and every
/// resulting COMMIT back to the engine.
fn pump(engine: &mut ServerEngine, cs: &mut [UstorClient], discard: ClientId) {
    loop {
        engine.process_all();
        let mut replied = false;
        while let Some((to, batch)) = engine.poll_output_batch() {
            for msg in batch {
                let UstorMsg::Reply(reply) = msg else {
                    continue;
                };
                replied = true;
                if to == discard {
                    continue;
                }
                let (commit, _) = cs[to.index()].handle_reply(reply).expect("correct server");
                if let Some(commit) = commit {
                    engine.enqueue(to, UstorMsg::Commit(commit));
                }
            }
        }
        if !replied {
            return;
        }
    }
}

fn cached(engine: &ServerEngine, i: u32) -> Vec<Timestamp> {
    engine.session(c(i)).replies().timestamps().collect()
}

#[test]
fn recovery_rebuilds_exactly_the_reply_caches_the_live_engine_held() {
    // Three shapes of duplicate cache at crash time, all through a real
    // engine: C0 commits each op (one reply, its last ack lost), C1
    // piggybacks over a window of 4 (its last window unacknowledged), C2
    // never commits (the cap).
    let dir = testutil::scratch_dir("recovery-reply-cache");
    let n = 3;
    let config = StoreConfig {
        durability: Durability::Never,
        snapshot_every: 0,
    };
    let server = PersistentServer::open(&dir, n, config.clone()).unwrap();
    let mut engine = ServerEngine::new(n, Box::new(server));
    let mut cs = clients(n, b"recovery-reply-cache");
    for client in &mut cs[1..] {
        client.set_commit_mode(CommitMode::Piggyback);
    }
    for client in &mut cs {
        client.set_pipeline(64);
    }
    for round in 0..10u64 {
        let submit = cs[0].begin_write(Value::unique(0, round)).unwrap();
        engine.enqueue(c(0), UstorMsg::Submit(submit));
        while cs[1].in_flight() < 4 {
            let submit = cs[1].begin_read(c(0)).unwrap();
            engine.enqueue(c(1), UstorMsg::Submit(submit));
        }
        for k in 0..4 {
            let submit = cs[2].begin_write(Value::unique(2, 4 * round + k)).unwrap();
            engine.enqueue(c(2), UstorMsg::Submit(submit));
        }
        pump(&mut engine, &mut cs, c(2));
    }
    // C0's next ack dies with the connection.
    let submit = cs[0].begin_read(c(1)).unwrap();
    engine.enqueue(c(0), UstorMsg::Submit(submit));
    engine.process_all();
    while engine.poll_output_batch().is_some() {}

    let live: Vec<Vec<Timestamp>> = (0..3).map(|i| cached(&engine, i)).collect();
    assert_eq!(live[0], [11]);
    assert_eq!(live[1], [37, 38, 39, 40]);
    assert_eq!(live[2], (9..=40).collect::<Vec<_>>());
    drop(engine); // the crash

    let mut recovered = PersistentServer::recover(&dir, n, config.clone()).unwrap();
    let rebuilt: Vec<Vec<Timestamp>> = recovered
        .resume_sessions()
        .iter()
        .map(|resume| resume.replies.iter().map(|(ts, _)| *ts).collect())
        .collect();
    assert_eq!(rebuilt, live);
    let restarted = ServerEngine::new(
        n,
        Box::new(PersistentServer::recover(&dir, n, config).unwrap()),
    );
    assert_eq!(
        (0..3).map(|i| cached(&restarted, i)).collect::<Vec<_>>(),
        live
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The duplicate-reply cache does not survive a snapshot (ROADMAP item
/// 1). Recovery rebuilds it from the log records behind the snapshot
/// only, so the reply to a SUBMIT the snapshot absorbed is gone. The
/// engine still classes the client's resend as a duplicate and answers it
/// with nothing: the client waits forever on an honest server. This pins
/// the contract — the resend gets the original reply — and fails until
/// the cache is made to survive.
#[test]
#[ignore = "ROADMAP item 1: the duplicate-reply cache does not survive a snapshot"]
fn a_resent_submit_whose_record_a_snapshot_absorbed_gets_its_original_reply() {
    let dir = testutil::scratch_dir("recovery-cache-snapshot");
    let n = 2;
    let config = StoreConfig {
        durability: Durability::Never,
        snapshot_every: 3,
    };
    let server = PersistentServer::open(&dir, n, config.clone()).unwrap();
    let mut engine = ServerEngine::new(n, Box::new(server));
    let mut cs = clients(n, b"recovery-cache-snapshot");
    // Client 0's first write: its SUBMIT and COMMIT are records 0 and 1.
    let submit = cs[0].begin_write(Value::from("first")).unwrap();
    engine.enqueue(c(0), UstorMsg::Submit(submit));
    pump(&mut engine, &mut cs, c(1));
    // Its second write's SUBMIT is record 2: a snapshot absorbs it and
    // the log rotates. The reply is lost, and the server crashes.
    let resend = cs[0].begin_write(Value::from("second")).unwrap();
    engine.enqueue(c(0), UstorMsg::Submit(resend.clone()));
    engine.process_all();
    let Some((_, batch)) = engine.poll_output_batch() else {
        panic!("the second write is answered");
    };
    let [original] = <[UstorMsg; 1]>::try_from(batch).expect("one reply");
    drop(engine);

    let recovered = PersistentServer::recover(&dir, n, config).unwrap();
    let mut engine = ServerEngine::new(n, Box::new(recovered));
    engine.enqueue(c(0), UstorMsg::Submit(resend));
    engine.process_all();
    assert_eq!(
        engine.poll_output_batch(),
        Some((c(0), vec![original])),
        "the resend is answered with the reply that was lost"
    );
    std::fs::remove_dir_all(&dir).ok();
}
