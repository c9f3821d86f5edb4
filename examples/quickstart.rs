//! Quickstart: three clients collaborate through an untrusted server —
//! driven entirely through the public client API.
//!
//! A live deployment in one process: the server engine serves a loopback
//! reactor on its own thread, and three [`faust::client::FaustHandle`]
//! sessions connect to it over TCP, write, read, and react to the typed
//! fail-awareness event stream (completions with timestamps, stability
//! cuts). Point `FaustHandle::connect_tcp` at the address of a remote
//! `faust serve` process and this same code runs against it. Like
//! `faust serve`, it needs a unix target.
//!
//! Run with: `cargo run --example quickstart`
#![cfg_attr(not(unix), allow(unused_imports))]

use faust::client::{Event, FaustHandle, HandleConfig, OfflineLink, SessionCore};
use faust::core::FaustConfig;
use faust::types::{ClientId, Value};
use faust::ustor::{spawn_engine, ServerEngine, UstorServer};
use std::time::Duration;

#[cfg(not(unix))]
fn main() {
    eprintln!("quickstart serves a loopback reactor, which needs a unix target");
}

#[cfg(unix)]
fn main() {
    let n = 3;

    // Server side: the engine behind a loopback reactor, on its own
    // thread — exactly what `faust serve` does.
    let transport = faust::net::ReactorTransport::bind("127.0.0.1:0", n).expect("bind loopback");
    let addr = transport.local_addr();
    let engine = spawn_engine(
        ServerEngine::new(n, Box::new(UstorServer::new(n))),
        transport,
    );

    // Client side: one handle per client, sharing the offline mesh (the
    // paper's client-to-client medium) and one key seed.
    let config = HandleConfig {
        faust: FaustConfig {
            // Quiet variant for readable output: stability spreads
            // through the explicit reads and offline probes alone (no
            // background dummy reads).
            probe_period: 40,
            dummy_reads: false,
            ..FaustConfig::default()
        },
        tick_interval: Duration::from_millis(5),
        ..HandleConfig::default()
    };
    let mut links: Vec<OfflineLink> = faust::client::offline_mesh(n);
    let mut handles: Vec<FaustHandle> = (0..n)
        .map(|i| {
            FaustHandle::connect_tcp(addr, ClientId::new(i as u32), n, b"quickstart", &config)
                .expect("connect")
                .with_offline(links.remove(0))
        })
        .collect();

    let wait = Duration::from_secs(5);

    // Client 0 publishes two document revisions — pipelined: both
    // tickets are issued before either completes.
    let _draft = handles[0].write(Value::from("draft: hello"));
    let fin = handles[0].write(Value::from("final: hello, world"));
    handles[0].wait(fin, wait).expect("writes complete");

    // Clients 1 and 2 read the document.
    let r1 = handles[1].read(ClientId::new(0));
    let d1 = handles[1].wait(r1, wait).expect("read completes");
    let r2 = handles[2].read(ClientId::new(0));
    let d2 = handles[2].wait(r2, wait).expect("read completes");
    println!(
        "C1 read X0 -> {:?}   C2 read X0 -> {:?}\n",
        d1.read_value.clone().flatten().expect("written"),
        d2.read_value.clone().flatten().expect("written"),
    );

    // Let the probe machinery spread stability for a moment, pumping
    // every handle (each probes silent peers and answers with its
    // maximal version).
    let mut events: Vec<Vec<(u64, Event)>> = vec![Vec::new(); n];
    for _ in 0..30 {
        for (i, handle) in handles.iter_mut().enumerate() {
            events[i].extend(handle.run_for(Duration::from_millis(10)));
        }
    }

    for (i, handle) in handles.iter_mut().enumerate() {
        events[i].extend(handle.poll());
        println!("── client C{i} ──");
        for (t, event) in &events[i] {
            match event {
                Event::Completed { ticket, completion } => {
                    let what = match &completion.read_value {
                        Some(Some(v)) => format!("read X{} -> {v}", completion.target.index()),
                        Some(None) => format!("read X{} -> ⊥", completion.target.index()),
                        None => format!("write X{}", completion.target.index()),
                    };
                    println!(
                        "  t={t:>5}  {ticket} (timestamp {}): {what}",
                        completion.timestamp
                    );
                }
                Event::Stable { cut } => println!("  t={t:>5}  stable{cut}"),
                Event::Violation { reason } => println!("  t={t:>5}  VIOLATION: {reason}"),
                Event::Disconnected { reason } => println!("  t={t:>5}  disconnected ({reason})"),
                Event::Reconnecting { attempt, .. } => {
                    println!("  t={t:>5}  reconnecting (attempt {attempt})");
                }
                Event::Resumed => println!("  t={t:>5}  resumed"),
            }
        }
        assert!(
            handle.failure().is_none(),
            "correct server: no violations ever"
        );
    }

    // C0's two revisions became stable with respect to everyone: each
    // peer's entry in C0's cut reached timestamp 2.
    let cut = handles[0].stability_cut();
    assert!(
        cut.w.iter().all(|&w| w >= 2),
        "expected full stability, got {cut}"
    );
    println!("\nfinal cut at C0: stable{cut} — both revisions stable w.r.t. everyone");

    // Clean shutdown: every handle disconnects, the engine drains and
    // exits, and its counters confirm the traffic.
    let mut cores: Vec<SessionCore> = Vec::new();
    for handle in handles {
        let (core, _clock) = handle.into_core();
        cores.push(core);
    }
    let stats = engine.join().expect("engine thread");
    println!(
        "server is correct: no failure notifications, as guaranteed.\n\
         traffic: {} submits, {} commits, {} frames out in {} writes",
        stats.submits, stats.commits, stats.frames_out, stats.flushes,
    );
}
