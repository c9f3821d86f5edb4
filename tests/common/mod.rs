//! Helpers shared by the end-to-end suites: a server incarnation behind a
//! loopback reactor, and `n` live [`FaustHandle`] sessions driven on
//! threads of their own, wired to each other by an offline mesh.

// Each suite uses a subset.
#![allow(dead_code)]

use faust::client::{offline_mesh, Event, FaustHandle, HandleConfig};
use faust::core::{FaustConfig, UserOp};
use faust::net::ReactorTransport;
use faust::store::PersistentBackend;
use faust::types::ClientId;
use faust::ustor::{spawn_engine, EngineStats, ServerEngine};
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serves `engine` for `n` clients on a fresh loopback reactor. The engine
/// thread ends once every client has connected and departed.
pub fn serve_loopback(engine: ServerEngine, n: usize) -> (SocketAddr, JoinHandle<EngineStats>) {
    let transport = ReactorTransport::bind("127.0.0.1:0", n).expect("bind loopback");
    (transport.local_addr(), spawn_engine(engine, transport))
}

/// One server incarnation: built (or recovered) from `backend`, served on
/// a fresh loopback socket.
pub fn incarnation(backend: &PersistentBackend, n: usize) -> (SocketAddr, JoinHandle<EngineStats>) {
    let engine = ServerEngine::from_backend(n, backend).expect("backend builds/recovers");
    serve_loopback(engine, n)
}

/// Protocol tuning for the multi-client runs: offline probes every 50 ms
/// of wall time, 10 ms ticks.
pub fn handle_config(dummy_reads: bool) -> HandleConfig {
    HandleConfig {
        faust: FaustConfig {
            probe_period: 50,
            dummy_reads,
            ..FaustConfig::default()
        },
        tick_interval: Duration::from_millis(10),
        ..HandleConfig::default()
    }
}

/// Quiet sessions with a pipeline window of 2: no probes and no dummy
/// reads, so the only traffic is the test's own operations.
pub fn quiet_config() -> HandleConfig {
    HandleConfig {
        faust: FaustConfig {
            probe_period: u64::MAX / 2,
            dummy_reads: false,
            pipeline: 2,
            ..FaustConfig::default()
        },
        tick_interval: Duration::from_millis(5),
        ..HandleConfig::default()
    }
}

/// `n` sessions connected to `addr` over TCP and to each other by an
/// offline mesh, with keys derived from `key_seed`.
pub fn connect_all(
    addr: SocketAddr,
    n: usize,
    key_seed: &[u8],
    config: &HandleConfig,
) -> Vec<FaustHandle> {
    offline_mesh(n)
        .into_iter()
        .enumerate()
        .map(|(i, link)| {
            FaustHandle::connect_tcp(addr, ClientId::new(i as u32), n, key_seed, config)
                .expect("connect")
                .with_offline(link)
        })
        .collect()
}

/// One phase of a run: each session, on a thread of its own, submits its
/// whole workload up front (the pipeline window takes what fits, the rest
/// queues), runs its event loop for `run_for`, and then on until its
/// backlog drains or it halts on a violation — so `Duration::ZERO` means
/// "until every operation completed". Returns the sessions in client
/// order, each with the events of the phase.
pub fn run_phase(
    handles: Vec<FaustHandle>,
    workloads: Vec<Vec<UserOp>>,
    run_for: Duration,
) -> Vec<(FaustHandle, Vec<Event>)> {
    assert_eq!(handles.len(), workloads.len(), "one workload per client");
    let threads: Vec<_> = handles
        .into_iter()
        .zip(workloads)
        .map(|(mut handle, workload)| {
            std::thread::spawn(move || {
                for op in workload {
                    match op {
                        UserOp::Write(value) => handle.write(value),
                        UserOp::Read(register) => handle.read(register),
                    };
                }
                let mut events = handle.run_for(run_for);
                let stall = Instant::now() + Duration::from_secs(20);
                while handle.backlog() > 0 && handle.failure().is_none() {
                    assert!(Instant::now() < stall, "{} stalled", handle.id());
                    events.extend(handle.run_for(Duration::from_millis(5)));
                }
                (handle, events.into_iter().map(|(_, e)| e).collect())
            })
        })
        .collect();
    threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect()
}

/// A whole single-phase run: `engine` behind a loopback reactor, one
/// session per workload, every session disconnected afterwards so the
/// engine winds down. Returns the sessions with their events and the
/// engine's final statistics.
pub fn run_loopback(
    engine: ServerEngine,
    workloads: Vec<Vec<UserOp>>,
    key_seed: &[u8],
    config: &HandleConfig,
    run_for: Duration,
) -> (Vec<(FaustHandle, Vec<Event>)>, EngineStats) {
    let n = workloads.len();
    let (addr, engine) = serve_loopback(engine, n);
    let handles = connect_all(addr, n, key_seed, config);
    let mut outcome = run_phase(handles, workloads, run_for);
    for (handle, _) in &mut outcome {
        handle.disconnect();
    }
    (outcome, engine.join().expect("engine thread"))
}

/// Completed user operations among `events`.
pub fn completions(events: &[Event]) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, Event::Completed { .. }))
        .count()
}

/// The last stability cut among `events`.
pub fn last_cut(events: &[Event]) -> Option<Vec<u64>> {
    events.iter().rev().find_map(|e| match e {
        Event::Stable { cut } => Some(cut.w.clone()),
        _ => None,
    })
}
