//! Acceptance tests for the public fail-aware client API: everything
//! here drives [`faust::client::FaustHandle`] / [`Event`] only — no
//! driver internals, no direct `ServerEngine` access on the client side.
//!
//! * A seeded property: a pipelined handle deployment over a loopback
//!   reactor completes the same operations (kinds, targets, fail-aware
//!   timestamps) and converges to the same stability cuts as the
//!   equivalent `FaustDriver` script in deterministic simulation.
//! * A kill-and-restart end-to-end over real TCP with persistence and
//!   group commit: an honest restart is invisible through the handle
//!   (reconnect, cross-restart read, stability advancing), while a
//!   truncated log surfaces as [`Event::Violation`].

mod common;

use common::{incarnation, quiet_config, serve_loopback};
use faust::client::{offline_mesh, Event, FaustHandle, HandleConfig, WaitError};
use faust::core::{FaustConfig, FaustDriver, FaustDriverConfig};
use faust::net::tcp;
use faust::store::{testutil, truncate_tail_records, Durability, PersistentBackend, StoreConfig};
use faust::types::{ClientId, OpKind, Timestamp, Value};
use faust::ustor::{random_workloads, ServerEngine, UstorServer, WorkloadOp};
use std::time::{Duration, Instant};

fn c(i: u32) -> ClientId {
    ClientId::new(i)
}

/// (kind, target, timestamp) — the completion facts that are
/// deterministic regardless of interleaving.
type CompletionFacts = Vec<(OpKind, ClientId, Timestamp)>;

#[test]
fn pipelined_handles_match_the_driver_script() {
    let n = 3;
    let ops_per_client = 4u64;
    for seed in 0..2u64 {
        let workloads = random_workloads(n, ops_per_client as usize, 0.5, seed);

        // Reference: the deterministic simulation driver on the same
        // script, run to quiescence and full stability.
        let mut driver = FaustDriver::new(
            n,
            Box::new(UstorServer::new(n)),
            FaustDriverConfig::default(),
            b"client-api-prop",
        );
        for (i, w) in workloads.clone().into_iter().enumerate() {
            driver.push_ops(c(i as u32), w);
        }
        let reference = driver.run_until(60_000);
        assert!(reference.failures.is_empty(), "seed {seed}");
        let reference_facts: Vec<CompletionFacts> = (0..n)
            .map(|i| {
                reference
                    .completions(c(i as u32))
                    .into_iter()
                    .map(|done| (done.kind, done.target, done.timestamp))
                    .collect()
            })
            .collect();
        // Timestamps count every USTOR operation including background
        // dummy reads, whose number is runtime-dependent — so "the same
        // stability cuts" means both runs converge to cuts dominating
        // the whole user workload (every user op stable w.r.t. every
        // client), which is the interleaving-independent statement.
        let user_stable = |w: &[Timestamp]| w.iter().all(|&x| x >= ops_per_client);
        for i in 0..n {
            assert!(
                user_stable(&reference.last_cut(c(i as u32)).expect("cuts issued").w),
                "seed {seed}: driver reaches full user-op stability"
            );
        }

        // The same script through live pipelined handles over a
        // loopback reactor (dummy reads + probes spread stability).
        let (addr, engine) = serve_loopback(ServerEngine::new(n, Box::new(UstorServer::new(n))), n);
        let config = HandleConfig {
            faust: FaustConfig {
                probe_period: 50,
                pipeline: 3,
                ..FaustConfig::default()
            },
            tick_interval: Duration::from_millis(5),
            ..HandleConfig::default()
        };
        let mut links = offline_mesh(n);
        links.reverse();
        let workers: Vec<_> = workloads
            .into_iter()
            .enumerate()
            .map(|(i, workload)| {
                let link = links.pop().expect("one link per client");
                std::thread::spawn(move || {
                    let mut handle =
                        FaustHandle::connect_tcp(addr, c(i as u32), n, b"client-api-prop", &config)
                            .expect("connect")
                            .with_offline(link);
                    for op in workload {
                        match op {
                            WorkloadOp::Write(value) => handle.write(value),
                            WorkloadOp::Read(register) => handle.read(register),
                            _ => unreachable!("random workloads are reads and writes"),
                        };
                    }
                    // Pump until everything completed AND this client's
                    // ops are stable with respect to everyone.
                    let deadline = Instant::now() + Duration::from_secs(20);
                    let mut events = Vec::new();
                    while Instant::now() < deadline {
                        events.extend(handle.run_for(Duration::from_millis(20)));
                        let cut = handle.stability_cut();
                        if handle.backlog() == 0 && cut.w.iter().all(|&x| x >= ops_per_client) {
                            break;
                        }
                    }
                    let facts: CompletionFacts = events
                        .iter()
                        .filter_map(|(_, e)| match e {
                            Event::Completed { completion, .. } => {
                                Some((completion.kind, completion.target, completion.timestamp))
                            }
                            _ => None,
                        })
                        .collect();
                    let cut = handle.stability_cut();
                    assert!(handle.failure().is_none(), "correct server, client {i}");
                    (facts, cut)
                })
            })
            .collect();
        for (i, worker) in workers.into_iter().enumerate() {
            let (facts, cut) = worker.join().expect("client thread");
            assert_eq!(
                facts, reference_facts[i],
                "seed {seed}: client {i} completions must match the driver"
            );
            assert!(
                user_stable(&cut.w),
                "seed {seed}: client {i} converges to the same user-op \
                 stability cut, got {cut}"
            );
        }
        engine.join().expect("engine thread");
    }
}

/// Group commit at production-ish CI scale. (Both restarts under an
/// fsync per record are `tests/crash_recovery.rs`.)
fn group_store() -> StoreConfig {
    StoreConfig {
        durability: Durability::Group {
            max_records: 8,
            max_wait: Duration::from_millis(2),
        },
        snapshot_every: 0,
    }
}

/// Reconnects `handle` to the incarnation at `addr`.
fn redial(handle: &mut FaustHandle, addr: std::net::SocketAddr) {
    let conn = tcp::connect(addr, handle.id()).expect("redial");
    handle.reconnect(conn);
}

#[test]
fn honest_kill_and_restart_is_invisible_through_the_handle() {
    let n = 2;
    let wait = Duration::from_secs(10);
    let dir = testutil::scratch_dir("handle-e2e-honest");
    let backend = PersistentBackend::new(&dir, group_store());
    let config = quiet_config();

    // Incarnation 1.
    let (addr, engine) = incarnation(&backend, n);
    let mut h0 = FaustHandle::connect_tcp(addr, c(0), n, b"handle-e2e", &config).expect("connect");
    let mut h1 = FaustHandle::connect_tcp(addr, c(1), n, b"handle-e2e", &config).expect("connect");
    let a1 = h0.write(Value::from("a1"));
    let a2 = h0.write(Value::from("a2"));
    assert_eq!(h0.wait(a1, wait).expect("completes").timestamp, 1);
    assert_eq!(h0.wait(a2, wait).expect("completes").timestamp, 2);
    let b1 = h1.write(Value::from("b1"));
    h1.wait(b1, wait).expect("completes");
    // C0 has learned no version of C1's yet.
    let cut_before = h0.stability_cut().w;
    assert_eq!(cut_before[1], 0);
    // Quiescent: disconnect, and the incarnation dies with the sockets.
    h0.disconnect();
    h1.disconnect();
    engine.join().expect("engine thread");

    // Incarnation 2: recovered from the log on a fresh socket; the same
    // handles reconnect with all session state intact.
    let (addr, engine) = incarnation(&backend, n);
    redial(&mut h0, addr);
    redial(&mut h1, addr);

    // The read crossing the restart sees the last pre-crash value...
    let r = h1.read(c(0));
    let done = h1.wait(r, wait).expect("cross-restart read");
    assert_eq!(done.read_value, Some(Some(Value::from("a2"))));
    // ...writes continue with the next timestamps...
    let a3 = h0.write(Value::from("a3"));
    assert_eq!(h0.wait(a3, wait).expect("completes").timestamp, 3);
    // ...stability advances across the restart: C1's pre-crash write,
    // read back from the recovered server, vouches for C0's ops...
    let r = h0.read(c(1));
    h0.wait(r, wait).expect("completes");
    let cut = h0.stability_cut().w;
    assert!(
        cut.iter().all(|&w| w >= 1) && cut[1] > cut_before[1],
        "stability must survive the restart, got {cut:?}"
    );
    // ...and no violation (or stray disconnect) was ever reported.
    for handle in [&mut h0, &mut h1] {
        assert!(handle.failure().is_none());
        let events = handle.poll();
        assert!(
            !events
                .iter()
                .any(|(_, e)| matches!(e, Event::Violation { .. } | Event::Disconnected { .. })),
            "honest restart must be invisible: {events:?}"
        );
    }
    h0.disconnect();
    h1.disconnect();
    engine.join().expect("engine thread");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_log_raises_a_violation_event() {
    let n = 2;
    let wait = Duration::from_secs(10);
    let dir = testutil::scratch_dir("handle-e2e-truncated");
    let backend = PersistentBackend::new(&dir, group_store());
    let config = quiet_config();

    let (addr, engine) = incarnation(&backend, n);
    let mut h0 =
        FaustHandle::connect_tcp(addr, c(0), n, b"handle-rollback", &config).expect("connect");
    let mut h1 =
        FaustHandle::connect_tcp(addr, c(1), n, b"handle-rollback", &config).expect("connect");
    let a1 = h0.write(Value::from("a1"));
    let a2 = h0.write(Value::from("a2"));
    h0.wait(a1, wait).expect("completes");
    h0.wait(a2, wait).expect("completes");
    let b1 = h1.write(Value::from("b1"));
    h1.wait(b1, wait).expect("completes");
    h0.disconnect();
    h1.disconnect();
    engine.join().expect("engine thread");

    // While the server is down its log loses acknowledged records — the
    // rollback attack (or a disk that lied about fsync). Five of the six
    // records go, so an acknowledged *submit* (C0's a2) is among them:
    // losing only trailing commits would be legitimately invisible (a
    // COMMIT is a garbage-collection expedient, not an acknowledgement).
    let kept = truncate_tail_records(&dir, 5).expect("tamper with the log");
    assert!(kept > 0, "a rollback, not a wipe");

    let (addr, engine) = incarnation(&backend, n);
    redial(&mut h0, addr);
    redial(&mut h1, addr);
    // C0's next operation hits the rolled-back schedule: the wait
    // surfaces the violation, and the event stream carries it.
    let a3 = h0.write(Value::from("a3"));
    let err = h0.wait(a3, wait).expect_err("rollback must be detected");
    assert!(matches!(err, WaitError::Violation(_)), "got {err:?}");
    let events = h0.poll();
    assert!(
        events
            .iter()
            .any(|(_, e)| matches!(e, Event::Violation { .. })),
        "expected Event::Violation, got {events:?}"
    );
    assert!(h0.failure().is_some());
    // The engine winds down once both handles depart (h1 took no part
    // in phase 2, but its connection counts).
    h0.disconnect();
    h1.disconnect();
    engine.join().expect("engine thread");
    std::fs::remove_dir_all(&dir).ok();
}
