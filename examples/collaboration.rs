//! The collaborative-editing scenario of Section 3 and Figure 2: Alice
//! and Bob work from Europe while Carlos (America) is asleep — driven
//! through the public [`faust::client::FaustHandle`] API.
//!
//! Alice completes her operation with timestamp 10 and receives the
//! event `stable_Alice([10, 8, 3])`: she is trivially consistent with
//! herself up to timestamp 10, consistent with Bob up to her operation
//! 8, and consistent with Carlos only up to her operation 3 — Carlos
//! went to sleep after reading her morning work. Alice cannot tell
//! whether Carlos is merely asleep or the server is hiding his
//! operations; when Carlos reconnects and reads again, all operations
//! become stable, because the server is in fact correct.
//!
//! Unlike the simulator variant this runs live (real threads, real
//! waits): each `wait` serializes one operation, so the exact Figure 2
//! cut is reproduced deterministically through the handle API alone.
//!
//! The server engine serves a loopback reactor, so, like `faust serve`,
//! this needs a unix target.
//!
//! Run with: `cargo run --example collaboration`
#![cfg_attr(not(unix), allow(unused_imports, dead_code))]

use faust::client::{Event, FaustHandle, HandleConfig};
use faust::core::FaustConfig;
use faust::types::{ClientId, Value};
use faust::ustor::{spawn_engine, ServerEngine, UstorServer};
use std::time::Duration;

const ALICE: ClientId = ClientId::new(0);
const BOB: ClientId = ClientId::new(1);
const CARLOS: ClientId = ClientId::new(2);

#[cfg(not(unix))]
fn main() {
    eprintln!("collaboration serves a loopback reactor, which needs a unix target");
}

#[cfg(unix)]
fn main() {
    let n = 3;
    let transport = faust::net::ReactorTransport::bind("127.0.0.1:0", n).expect("bind loopback");
    let addr = transport.local_addr();
    let engine = spawn_engine(
        ServerEngine::new(n, Box::new(UstorServer::new(n))),
        transport,
    );

    // Probes would reveal everything instantly; the day is scripted
    // through reads alone, exactly as in Figure 2.
    let config = HandleConfig {
        faust: FaustConfig {
            probe_period: u64::MAX / 2,
            dummy_reads: false,
            ..FaustConfig::default()
        },
        tick_interval: Duration::from_millis(2),
        ..HandleConfig::default()
    };
    let mk = |id| FaustHandle::connect_tcp(addr, id, n, b"figure-2", &config).expect("connect");
    let mut carlos = mk(CARLOS);
    let mut bob = mk(BOB);
    let mut alice = mk(ALICE);
    let wait = Duration::from_secs(5);

    // Alice's morning edits: timestamps 1..=3.
    for rev in 1..=3u64 {
        let t = alice.write(Value::from(format!("alice rev {rev}").as_str()));
        alice.wait(t, wait).expect("write completes");
    }
    // Carlos reads rev 3 (importing Alice's version, which covers her
    // first three operations) and goes to sleep.
    let t = carlos.read(ALICE);
    carlos.wait(t, wait).expect("read completes");

    // t = 4: Alice sees Carlos's state — his version vouches for her
    // operations up to 3.
    let t = alice.read(CARLOS);
    alice.wait(t, wait).expect("read completes");

    // t = 5..8: afternoon edits.
    for rev in 4..=7u64 {
        let t = alice.write(Value::from(format!("alice rev {rev}").as_str()));
        alice.wait(t, wait).expect("write completes");
    }
    // Bob catches up with Alice's work right after her t=8.
    let t = bob.read(ALICE);
    bob.wait(t, wait).expect("read completes");

    // t = 9: Alice sees Bob's state (covering her ops up to 8).
    let t = alice.read(BOB);
    alice.wait(t, wait).expect("read completes");

    // t = 10: one more edit -> stable_Alice([10, 8, 3]).
    let t = alice.write(Value::from("alice rev 8"));
    alice.wait(t, wait).expect("write completes");

    println!("Alice's events for the working day:");
    let mut seen_fig2_cut = false;
    for (time, event) in alice.poll() {
        match event {
            Event::Completed { completion, .. } => {
                println!(
                    "  t={time:>5}  completed op with timestamp {}",
                    completion.timestamp
                );
            }
            Event::Stable { cut } => {
                println!("  t={time:>5}  stable_Alice({cut})");
                if cut.w == vec![10, 8, 3] {
                    seen_fig2_cut = true;
                    println!("           ^^^ the stability cut of Figure 2");
                }
            }
            Event::Violation { reason } => println!("  t={time:>5}  VIOLATION: {reason}"),
            Event::Disconnected { reason } => println!("  t={time:>5}  disconnected ({reason})"),
            Event::Reconnecting { attempt, .. } => {
                println!("  t={time:>5}  reconnecting (attempt {attempt})");
            }
            Event::Resumed => println!("  t={time:>5}  resumed"),
        }
    }
    assert!(
        seen_fig2_cut,
        "expected the exact Figure 2 cut [10,8,3]; got {}",
        alice.stability_cut()
    );

    // America wakes up: Carlos reads the day's work, Bob refreshes, and
    // Alice sees both — everything becomes stable at Alice.
    let t = carlos.read(ALICE);
    carlos.wait(t, wait).expect("read completes");
    let t = bob.read(ALICE);
    bob.wait(t, wait).expect("read completes");
    let t = alice.read(CARLOS);
    alice.wait(t, wait).expect("read completes");
    let t = alice.read(BOB);
    alice.wait(t, wait).expect("read completes");

    let final_cut = alice.stability_cut();
    assert!(
        final_cut.w.iter().all(|&w| w >= 10),
        "eventual stability after Carlos returns; got {final_cut}"
    );
    println!("\nfinal cut: stable_Alice({final_cut}) — all 10 operations stable");
    println!("(Carlos reconnected; the server was correct all along.)");

    for handle in [alice, bob, carlos] {
        assert!(handle.failure().is_none(), "server is correct");
        drop(handle);
    }
    engine.join().expect("engine thread");
}
