//! End-to-end tests over real loopback TCP: the same FAUST protocol stack
//! the deterministic simulator exercises, with live `FaustHandle`
//! sessions on one side, the reactor on the other, and every
//! client↔server message crossing a socket as a length-prefixed frame.
//!
//! Four claims are checked: a correct server serves a write/read
//! workload with *no* `fail` notifications (failure-detection accuracy
//! survives a real transport, at 2, 3 and 8 sessions), a forked
//! (split-brain) server is detected by every client (detection
//! completeness does too), a client that stalls mid-operation never
//! delays the others (wait-freedom), and under group commit the reactor
//! sends each client's released replies in one socket write.

mod common;

use common::{
    completions, connect_all, handle_config, last_cut, quiet_config, run_loopback, serve_loopback,
};
use faust::client::{Event, HandleConfig};
use faust::core::{FaustConfig, UserOp};
use faust::crypto::{KeySet, SigScheme};
use faust::store::{testutil, Durability, PersistentBackend, StoreConfig};
use faust::types::{ClientId, Value};
use faust::ustor::adversary::SplitBrainServer;
use faust::ustor::{CommitMode, ServerEngine, UstorServer};
use std::time::{Duration, Instant};

fn c(i: u32) -> ClientId {
    ClientId::new(i)
}

/// Generous for CI machines: just over a second of wall time per run.
const RUN_FOR: Duration = Duration::from_millis(1200);

#[test]
fn three_clients_over_loopback_tcp_complete_without_failures() {
    let n = 3;
    let workloads = vec![
        vec![
            UserOp::Write(Value::from("a1")),
            UserOp::Write(Value::from("a2")),
            UserOp::Read(c(1)),
        ],
        vec![UserOp::Write(Value::from("b1")), UserOp::Read(c(0))],
        vec![UserOp::Read(c(0)), UserOp::Write(Value::from("c1"))],
    ];
    let engine = ServerEngine::new(n, Box::new(UstorServer::new(n)));
    let (run, stats) = run_loopback(engine, workloads, b"tcp-e2e", &handle_config(true), RUN_FOR);

    // Accuracy: a correct server is never blamed, even over TCP.
    for (handle, _) in &run {
        assert!(handle.failure().is_none(), "{:?}", handle.failure());
    }
    // Every user operation completed.
    let done: Vec<usize> = run.iter().map(|(_, events)| completions(events)).collect();
    assert_eq!(done, vec![3, 2, 2]);
    // Reads carried values: any completed read suffices here — value
    // correctness is the simulator tests' job; this checks the transport
    // didn't corrupt anything en route.
    let read_completions = run
        .iter()
        .flat_map(|(_, events)| events)
        .filter(
            |e| matches!(e, Event::Completed { completion, .. } if completion.read_value.is_some()),
        )
        .count();
    assert_eq!(read_completions, 3, "all three reads completed");
    // Stability spread across the TCP deployment.
    let cut = last_cut(&run[0].1).expect("stability cuts issued");
    assert!(
        cut.iter().all(|&w| w >= 2),
        "C0's writes should become globally stable, got {cut:?}"
    );
    // The engine actually carried the traffic.
    assert!(stats.submits >= 7);
    assert_eq!(stats.rejected, 0);
}

#[test]
fn forked_server_over_tcp_is_detected_by_every_client() {
    let n = 2;
    let server = SplitBrainServer::new(n, vec![vec![c(0)], vec![c(1)]], 0);
    let workloads = vec![
        vec![UserOp::Write(Value::from("left"))],
        vec![UserOp::Write(Value::from("right"))],
    ];
    let engine = ServerEngine::new(n, Box::new(server));
    let (run, _) = run_loopback(
        engine,
        workloads,
        b"tcp-fork",
        &handle_config(true),
        RUN_FOR,
    );
    let failures: Vec<_> = run.iter().filter_map(|(h, _)| h.failure()).collect();
    assert_eq!(
        failures.len(),
        2,
        "both clients must detect the fork over TCP: {failures:?}"
    );
}

#[test]
fn ed25519_ingress_verification_serves_tcp_clients() {
    // The sound deployment of docs/trust-model.md, end to end over real
    // sockets: clients hold Ed25519 signing keys, the server engine holds
    // *only the public-key registry* and verifies every SUBMIT at
    // ingress. Honest traffic is never rejected, the full FAUST layer
    // (stability, failure detection) behaves exactly as with HMAC keys —
    // but unlike HMAC, this registry grants the server no forging power.
    let n = 3;
    let key_seed = b"tcp-ed25519";
    let keys = KeySet::generate_ed25519(n, key_seed);
    let registry = keys.registry();
    assert!(registry.is_public(), "server-side keys must be public-only");

    let engine = ServerEngine::new(n, Box::new(UstorServer::new(n))).with_verification(registry);
    let workloads = vec![
        vec![
            UserOp::Write(Value::from("pk-1")),
            UserOp::Write(Value::from("pk-2")),
        ],
        vec![UserOp::Read(c(0))],
        vec![UserOp::Write(Value::from("pk-3")), UserOp::Read(c(0))],
    ];
    let config = HandleConfig {
        scheme: SigScheme::Ed25519,
        ..handle_config(true)
    };
    let (run, stats) = run_loopback(engine, workloads, key_seed, &config, RUN_FOR);

    for (handle, _) in &run {
        assert!(handle.failure().is_none(), "{:?}", handle.failure());
    }
    assert_eq!(
        stats.rejected, 0,
        "honest traffic must pass Ed25519 ingress verification"
    );
    let done: Vec<usize> = run.iter().map(|(_, events)| completions(events)).collect();
    assert_eq!(done, vec![2, 1, 2]);
    assert!(stats.submits >= 5);
}

#[test]
fn batched_ingress_verification_serves_tcp_clients() {
    // The same TCP deployment with the engine's SUBMIT verification
    // enabled over the HMAC fast path: honest traffic is never rejected
    // and the run behaves identically. (With HMAC keys
    // this configuration is a benchmarking device, not a sound
    // deployment — see docs/trust-model.md.)
    let n = 3;
    let key_seed = b"tcp-verified";
    let keys = KeySet::generate(n, key_seed);

    let engine =
        ServerEngine::new(n, Box::new(UstorServer::new(n))).with_verification(keys.registry());
    let workloads = vec![
        vec![
            UserOp::Write(Value::from("v1")),
            UserOp::Write(Value::from("v2")),
        ],
        vec![UserOp::Read(c(0))],
        vec![UserOp::Write(Value::from("w1")), UserOp::Read(c(0))],
    ];
    let (run, stats) = run_loopback(engine, workloads, key_seed, &handle_config(true), RUN_FOR);

    for (handle, _) in &run {
        assert!(handle.failure().is_none(), "{:?}", handle.failure());
    }
    assert_eq!(
        stats.rejected, 0,
        "honest traffic must pass HMAC ingress verification"
    );
    let done: Vec<usize> = run.iter().map(|(_, events)| completions(events)).collect();
    assert_eq!(done, vec![2, 1, 2]);
}

/// One operation in flight and no background traffic (no dummy reads; the
/// probes travel offline): every operation completes, and the engine sees
/// exactly one SUBMIT and one COMMIT per operation.
#[test]
fn threaded_run_completes_all_ops() {
    let workloads = vec![
        vec![
            UserOp::Write(Value::from("a1")),
            UserOp::Write(Value::from("a2")),
            UserOp::Read(c(1)),
        ],
        vec![UserOp::Write(Value::from("b1")), UserOp::Read(c(0))],
    ];
    let engine = ServerEngine::new(2, Box::new(UstorServer::new(2)));
    let (run, stats) = run_loopback(
        engine,
        workloads,
        b"threaded-test",
        &handle_config(false),
        Duration::ZERO,
    );
    let done: Vec<usize> = run.iter().map(|(_, events)| completions(events)).collect();
    assert_eq!(done, vec![3, 2]);
    for (handle, _) in &run {
        assert!(handle.failure().is_none(), "{:?}", handle.failure());
    }
    assert_eq!(stats.submits, 5);
    assert_eq!(stats.commits, 5);
}

/// Eight sessions, 25 interleaved writes and cross-reads each, on one
/// reactor: nothing is lost and nobody is blamed.
#[test]
fn many_threads_heavy_interleaving() {
    let n = 8;
    let workloads: Vec<Vec<UserOp>> = (0..n as u32)
        .map(|i| {
            (0..25)
                .map(|s| {
                    if s % 3 == 0 {
                        UserOp::Read(c((i + 1) % n as u32))
                    } else {
                        UserOp::Write(Value::unique(i, s))
                    }
                })
                .collect()
        })
        .collect();
    let engine = ServerEngine::new(n, Box::new(UstorServer::new(n)));
    let (run, stats) = run_loopback(
        engine,
        workloads,
        b"heavy",
        &handle_config(false),
        Duration::ZERO,
    );
    for (handle, _) in &run {
        assert!(handle.failure().is_none(), "{:?}", handle.failure());
    }
    let done: Vec<usize> = run.iter().map(|(_, events)| completions(events)).collect();
    assert_eq!(done, vec![25; 8]);
    assert_eq!(stats.submits, 200);
}

/// Wait-freedom on the wire: the server answers every SUBMIT at once and
/// never waits for anybody's COMMIT, so a client that stalls with an
/// operation in flight — its REPLY unread, its COMMIT unsent — does not
/// delay the others.
#[test]
fn slow_client_does_not_delay_fast_clients() {
    let n = 2;
    let wait = Duration::from_secs(5);
    let (addr, engine) = serve_loopback(ServerEngine::new(n, Box::new(UstorServer::new(n))), n);
    let mut handles = connect_all(addr, n, b"slow-test", &quiet_config());
    let mut slow = handles.pop().expect("client 1");
    let mut fast = handles.pop().expect("client 0");

    let first = slow.write(Value::unique(1, 0));
    slow.wait(first, wait).expect("slow client's first write");
    let stalled = slow.write(Value::unique(1, 1));
    let sleeper = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        let done = slow.wait(stalled, wait).map(|d| d.timestamp);
        (slow, done)
    });

    let began = Instant::now();
    for k in 0..20 {
        let ticket = fast.write(Value::unique(0, k));
        fast.wait(ticket, wait).expect("fast client's write");
    }
    let fast_elapsed = began.elapsed();
    let (mut slow, stalled_done) = sleeper.join().expect("slow client thread");

    assert!(
        fast_elapsed < Duration::from_millis(200),
        "wait-freedom violated: fast client took {fast_elapsed:?}"
    );
    assert_eq!(
        stalled_done,
        Ok(2),
        "the stalled write completes afterwards"
    );
    assert!(fast.failure().is_none() && slow.failure().is_none());
    fast.disconnect();
    slow.disconnect();
    let stats = engine.join().expect("engine thread");
    assert_eq!((stats.submits, stats.commits), (22, 22));
}

/// Coalesced egress over real sockets: four sessions keep 16 writes in
/// flight each against a group-commit store, so every fsync releases a
/// burst of replies per client, and the engine hands each burst to the
/// reactor as one batch (one socket write). Every SUBMIT gets exactly
/// one reply, and there are fewer writes than replies.
#[test]
fn group_commit_replies_leave_in_coalesced_batches() {
    let (n, ops, depth) = (4usize, 64u64, 16usize);
    let dir = testutil::scratch_dir("tcp-coalesced-egress");
    let backend = PersistentBackend::new(
        &dir,
        StoreConfig {
            durability: Durability::Group {
                max_records: (n * depth) as u64,
                max_wait: Duration::from_millis(2),
            },
            snapshot_every: 0,
        },
    );
    let engine = ServerEngine::from_backend(n, &backend).expect("fresh store");
    let workloads = (0..n as u32)
        .map(|i| {
            (0..ops)
                .map(|s| UserOp::Write(Value::unique(i, s)))
                .collect()
        })
        .collect();
    let quiet = quiet_config();
    let config = HandleConfig {
        faust: FaustConfig {
            // One SUBMIT per operation on the wire; the COMMIT rides the
            // next one.
            commit_mode: CommitMode::Piggyback,
            pipeline: depth,
            ..quiet.faust
        },
        ..quiet
    };
    let (run, stats) = run_loopback(engine, workloads, b"coalesced", &config, Duration::ZERO);
    std::fs::remove_dir_all(&dir).ok();

    for (handle, events) in &run {
        assert!(handle.failure().is_none(), "{:?}", handle.failure());
        assert_eq!(completions(events), ops as usize);
    }
    assert_eq!(stats.submits, n as u64 * ops);
    assert_eq!(
        stats.frames_out, stats.submits,
        "every SUBMIT got exactly one reply"
    );
    assert!(
        stats.flushes < stats.frames_out,
        "coalesced egress must issue fewer socket writes than frames: \
         {} writes for {} frames",
        stats.flushes,
        stats.frames_out
    );
    assert!(
        stats.max_egress_batch > 1,
        "at least one multi-frame egress batch must have formed"
    );
}
