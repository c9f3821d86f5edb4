//! Chaos end-to-end tests: the server process is killed abruptly —
//! mid-conversation, no drain, replies vanishing with the sockets — and
//! restarted from its write-ahead log, several times in one run, while
//! auto-reconnecting [`FaustHandle`] sessions keep operating across the
//! outages.
//!
//! This composes the whole robustness stack over real loopback TCP:
//! [`KillableTransport`] severs an incarnation under the clients' feet,
//! the handles observe `Event::Disconnected`, redial through a
//! [`ClientDialer`] under backoff, replay their resend windows (unacked
//! SUBMITs plus the latest COMMIT) byte-identically, and the recovered
//! server answers already-processed timestamps from its duplicate-reply
//! cache — so every operation completes exactly once and an honest
//! (crashy, but honest) deployment is never blamed.
//!
//! Two claims:
//!
//! * **Honest chaos is survivable**: `FAUST_CHAOS_KILLS` (default 3)
//!   kill/restart cycles produce zero violations, every ticket
//!   completes, and a read issued after the final restart sees the data
//!   written before the first kill.
//! * **Chaos is no excuse**: if the log loses acknowledged records
//!   while the server is down, the auto-reconnected session surfaces
//!   [`Event::Violation`] — the resilience machinery must never paper
//!   over a genuine rollback.
//!
//! With `FAUST_CHAOS_STATS_JSON=<path>`, the honest test additionally
//! writes its per-client reconnect/resend counters as JSON for CI
//! artifact collection. With `FAUST_CHAOS_EXPORT_HISTORY=<path>`, it
//! exports the final store directory as a signed `FAUSTHIS` session
//! history before cleanup, so CI can replay the whole chaos run through
//! `faust audit` as an independent offline oracle.

use faust::core::handle::{
    DisconnectCause, Event, FaustHandle, HandleConfig, HandleStats, ReconnectPolicy,
};
use faust::core::{FaustConfig, UserOp};
use faust::net::{tcp, ClientConn, ClientDialer, KillSwitch, KillableTransport, ReactorTransport};
use faust::store::{testutil, truncate_tail_records, PersistentBackend, StoreConfig};
use faust::types::{ClientId, Value};
use faust::ustor::{spawn_engine, ServerEngine};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

fn c(i: u32) -> ClientId {
    ClientId::new(i)
}

/// How many kill/restart cycles the honest test inflicts.
fn chaos_kills() -> usize {
    std::env::var("FAUST_CHAOS_KILLS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// Generous per-operation deadline: each wait may span a server restart
/// plus several backoff rounds on a loaded CI machine.
const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// Quiet protocol config: probes and dummy reads off so the only
/// traffic is the test's own operations (and their resends).
fn handle_config() -> HandleConfig {
    HandleConfig {
        faust: FaustConfig {
            probe_period: 1_000_000,
            dummy_reads: false,
            ..FaustConfig::default()
        },
        ..HandleConfig::default()
    }
}

/// Tight backoff so a restart is re-found quickly; the attempt budget is
/// effectively unlimited because the server *will* come back.
fn chaos_policy() -> ReconnectPolicy {
    ReconnectPolicy {
        initial_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(200),
        connect_timeout: Duration::from_secs(1),
        ..ReconnectPolicy::default()
    }
}

/// Redials whatever address the harness last published — each restart is
/// a fresh reactor on a fresh port, exactly like a crashed process coming
/// back behind a service-discovery entry.
struct PublishedAddrDialer {
    addr: Arc<Mutex<SocketAddr>>,
    id: ClientId,
}

impl ClientDialer for PublishedAddrDialer {
    fn dial(&mut self, timeout: Duration) -> std::io::Result<ClientConn> {
        let addr = *self.addr.lock().unwrap();
        tcp::connect_timeout(addr, self.id, timeout)
    }
}

/// One live server incarnation: engine thread, and the switch that
/// stands the serve loop down.
struct Incarnation {
    engine: JoinHandle<faust::ustor::EngineStats>,
    switch: KillSwitch,
}

impl Incarnation {
    /// Stands up a fresh incarnation from `backend` on a new loopback
    /// port and publishes its address for the dialers.
    fn spawn(backend: &PersistentBackend, n: usize, published: &Arc<Mutex<SocketAddr>>) -> Self {
        let transport = ReactorTransport::bind("127.0.0.1:0", n).expect("bind loopback");
        *published.lock().unwrap() = transport.local_addr();
        let (transport, switch) = KillableTransport::new(transport);
        let engine = ServerEngine::from_backend(n, backend).expect("backend builds/recovers");
        Incarnation {
            engine: spawn_engine(engine, transport),
            switch,
        }
    }

    /// Kills the incarnation abruptly and waits for its thread to die:
    /// the serve loop stands down (so its final courtesy flush is
    /// swallowed, as a real crash would swallow it), and the reactor
    /// dropped with the thread closes every socket, so clients observe
    /// the loss at once.
    fn kill(self) {
        self.switch.kill();
        self.engine.join().expect("engine thread panicked");
    }
}

/// Submits one op on `h` and waits it out (possibly across a restart).
fn run_op(h: &mut FaustHandle, op: UserOp) -> faust::core::FaustCompletion {
    let ticket = match op {
        UserOp::Write(v) => h.write(v),
        UserOp::Read(r) => h.read(r),
    };
    h.wait(ticket, OP_TIMEOUT)
        .unwrap_or_else(|e| panic!("client {} op failed: {e}", h.id().index()))
}

/// Drains `h`'s event queue into `sink`.
fn drain_events(h: &mut FaustHandle, sink: &mut Vec<Event>) {
    sink.extend(h.poll().into_iter().map(|(_, e)| e));
}

fn write_stats_json(path: &str, kills: usize, stats: &[HandleStats]) {
    let per_client: Vec<String> = stats
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!(
                concat!(
                    "{{\"client\":{},\"disconnects\":{},\"overload_sheds\":{},",
                    "\"dial_attempts\":{},\"resumes\":{},\"resent_submits\":{}}}"
                ),
                i, s.disconnects, s.overload_sheds, s.dial_attempts, s.resumes, s.resent_submits
            )
        })
        .collect();
    let json = format!(
        "{{\"kills\":{},\"clients\":{},\"per_client\":[{}]}}\n",
        kills,
        stats.len(),
        per_client.join(",")
    );
    if let Some(parent) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(parent).ok();
    }
    std::fs::write(path, json).expect("write chaos stats");
}

#[test]
fn sessions_survive_repeated_abrupt_server_kills() {
    let kills = chaos_kills();
    let n = 2;
    let dir = testutil::scratch_dir("chaos-honest");
    // Real deployment durability: fsync before acknowledging, so every
    // reply a client processed is recoverable after any kill.
    let backend = PersistentBackend::new(&dir, StoreConfig::default());
    let published = Arc::new(Mutex::new("127.0.0.1:1".parse().unwrap()));
    let mut incarnation = Incarnation::spawn(&backend, n, &published);

    let config = handle_config();
    let mut handles: Vec<FaustHandle> = (0..n as u32)
        .map(|i| {
            let conn = tcp::connect(*published.lock().unwrap(), c(i)).expect("connect");
            FaustHandle::new(c(i), n, b"chaos-honest", &config, conn).with_auto_reconnect(
                Box::new(PublishedAddrDialer {
                    addr: Arc::clone(&published),
                    id: c(i),
                }),
                chaos_policy(),
            )
        })
        .collect();
    let mut events: Vec<Vec<Event>> = vec![Vec::new(); n];

    // The value the cross-restart read must still see at the very end:
    // written to client 0's register before the first kill and never
    // overwritten (all of client 0's later chaos ops are reads).
    run_op(&mut handles[0], UserOp::Write(Value::from("pre-chaos")));

    for round in 0..kills {
        // Ops served by the live incarnation.
        let keep = Value::unique(1, round as u64);
        run_op(&mut handles[1], UserOp::Write(keep));
        run_op(&mut handles[0], UserOp::Read(c(1)));

        // Submit on both sessions and kill the server *before* pumping
        // the handles, so the kill races the in-flight round trips: the
        // replies (or the SUBMITs themselves) die with the sockets and
        // only the resend window + duplicate cache can finish the ops.
        let t0 = handles[0].read(c(1));
        let t1 = handles[1].write(Value::unique(1, 100 + round as u64));
        incarnation.kill();
        incarnation = Incarnation::spawn(&backend, n, &published);
        for (h, t) in handles.iter_mut().zip([t0, t1]) {
            let done = match h.wait(t, OP_TIMEOUT) {
                Ok(done) => done,
                Err(e) => {
                    let id = h.id().index();
                    panic!(
                        "round {round}: client {id} op lost to the kill: {e}\n\
                         stats: {:?}\nevents: {:?}",
                        h.stats(),
                        h.poll()
                    );
                }
            };
            assert!(done.timestamp > 0);
        }
        for (h, sink) in handles.iter_mut().zip(events.iter_mut()) {
            drain_events(h, sink);
        }
    }

    // After the final restart: the read crossing every incarnation must
    // see the value written before the first kill.
    let done = run_op(&mut handles[1], UserOp::Read(c(0)));
    assert_eq!(
        done.read_value,
        Some(Some(Value::from("pre-chaos"))),
        "cross-restart read lost data"
    );

    let mut stats = Vec::new();
    for (h, sink) in handles.iter_mut().zip(events.iter_mut()) {
        drain_events(h, sink);
        stats.push(h.stats());
        h.disconnect();
    }
    incarnation.kill();

    for (i, sink) in events.iter().enumerate() {
        assert!(
            !sink.iter().any(|e| matches!(e, Event::Violation { .. })),
            "client {i}: honest chaos must never be blamed: {sink:?}"
        );
        let resumes = sink.iter().filter(|e| matches!(e, Event::Resumed)).count();
        assert!(
            resumes >= kills,
            "client {i}: expected ≥{kills} resumes, saw {resumes}"
        );
        assert!(
            sink.iter().any(|e| matches!(
                e,
                Event::Disconnected {
                    reason: DisconnectCause::TransportLoss | DisconnectCause::Overloaded
                }
            )),
            "client {i}: kills must surface as Disconnected events"
        );
    }
    for (i, s) in stats.iter().enumerate() {
        assert_eq!(
            s.disconnects as usize, kills,
            "client {i}: one disconnect per kill: {s:?}"
        );
        assert!(
            s.resumes as usize >= kills && s.dial_attempts >= s.resumes,
            "client {i}: implausible reconnect accounting: {s:?}"
        );
    }

    if let Ok(path) = std::env::var("FAUST_CHAOS_STATS_JSON") {
        write_stats_json(&path, kills, &stats);
    }
    if let Ok(path) = std::env::var("FAUST_CHAOS_EXPORT_HISTORY") {
        let session = faust::audit::export_store_dir(&dir, faust::crypto::SigScheme::Hmac, None)
            .expect("export chaos store directory");
        session
            .write_to(std::path::Path::new(&path))
            .expect("write chaos history");
        println!(
            "exported {} records across {} incarnations to {path}",
            session.records.len(),
            kills + 1
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_log_restart_is_flagged_through_auto_reconnect() {
    // The flip side: resilience must not become complicity. The sessions
    // reconnect to the restarted server on their own — and then convict
    // it, because the log lost acknowledged operations while it was
    // down.
    let n = 2;
    let dir = testutil::scratch_dir("chaos-truncated");
    // No auto-snapshots: the whole acknowledged history sits in the log,
    // so the truncation below provably discards acknowledged records.
    let backend = PersistentBackend::new(
        &dir,
        StoreConfig {
            snapshot_every: 0,
            ..StoreConfig::default()
        },
    );
    let published = Arc::new(Mutex::new("127.0.0.1:1".parse().unwrap()));
    let incarnation = Incarnation::spawn(&backend, n, &published);

    let config = handle_config();
    let mut handles: Vec<FaustHandle> = (0..n as u32)
        .map(|i| {
            let conn = tcp::connect(*published.lock().unwrap(), c(i)).expect("connect");
            FaustHandle::new(c(i), n, b"chaos-truncated", &config, conn).with_auto_reconnect(
                Box::new(PublishedAddrDialer {
                    addr: Arc::clone(&published),
                    id: c(i),
                }),
                chaos_policy(),
            )
        })
        .collect();

    for k in 0..3 {
        run_op(&mut handles[0], UserOp::Write(Value::unique(0, k)));
        run_op(&mut handles[1], UserOp::Write(Value::unique(1, k)));
    }
    incarnation.kill();

    // While the server is down, its log loses acknowledged records (a
    // rollback, not a wipe: earlier operations survive).
    let kept = truncate_tail_records(&dir, 4).expect("tamper with the log");
    assert!(kept > 0, "a rollback, not a wipe");
    let incarnation = Incarnation::spawn(&backend, n, &published);

    // The next operations go through the full auto-reconnect machinery
    // and must end in a conviction: at least one client pins the
    // rolled-back schedule as a violation (the convicting session has
    // halted, so its wait reports the violation instead of completing).
    let mut convicted = false;
    for h in handles.iter_mut() {
        let ticket = h.write(Value::from("after-rollback"));
        match h.wait(ticket, OP_TIMEOUT) {
            Err(faust::core::handle::WaitError::Violation(_)) => {
                let events = h.poll();
                assert!(
                    events
                        .iter()
                        .any(|(_, e)| matches!(e, Event::Violation { .. })),
                    "violation event missing: {events:?}"
                );
                assert!(
                    h.stats().resumes >= 1,
                    "the conviction must arrive through a resumed connection: {:?}",
                    h.stats()
                );
                convicted = true;
            }
            Ok(_) => {} // this client's evidence may be insufficient alone
            Err(e) => panic!("client {}: unexpected error: {e}", h.id().index()),
        }
    }
    assert!(
        convicted,
        "a rolled-back server must be convicted by some client"
    );
    for mut h in handles {
        h.disconnect();
    }
    incarnation.kill();
    std::fs::remove_dir_all(&dir).ok();
}
