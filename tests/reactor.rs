//! Many-connection and hostile-connection gauntlet for the reactor
//! transport: one event-loop thread serving connections ≫ threads, with
//! admission control doing the degrading under overload.
//!
//! The connection count of the load test scales with
//! `FAUST_REACTOR_CONNS` (default 128 for quick local runs; CI's `load`
//! job runs ≥ 512 in release mode) and exports the reactor's counters as
//! JSON to `FAUST_REACTOR_STATS_JSON` when set, which CI uploads as an
//! artifact.

use faust::crypto::{KeySet, SigContext, Signer};
use faust::net::{
    DisconnectReason, Incoming, ReactorConfig, ReactorStats, ReactorTransport, ServerTransport,
};
use faust::types::frame::{read_frame, write_frame};
use faust::types::op::{data_signing_bytes, submit_signing_bytes, InvocationTuple};
use faust::types::{ClientId, OpKind, SubmitMsg, UstorMsg, Value};
use faust::ustor::{serve, EngineStats, ServerEngine, UstorClient, UstorServer};
use std::io::{ErrorKind, Read};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn c(i: u32) -> ClientId {
    ClientId::new(i)
}

fn sessions(keys: &KeySet, n: usize) -> Vec<UstorClient> {
    (0..n)
        .map(|i| {
            UstorClient::new(
                c(i as u32),
                n,
                keys.keypair(i as u32).expect("generated").clone(),
                keys.registry(),
            )
        })
        .collect()
}

/// Serves a correct USTOR server over the reactor on one thread,
/// returning everything the assertions need once the transport closes.
fn spawn_reactor_server(
    n: usize,
    cfg: ReactorConfig,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<(
        EngineStats,
        ReactorStats,
        Vec<(Option<ClientId>, DisconnectReason)>,
        usize,
    )>,
) {
    let mut transport =
        ReactorTransport::bind_with("127.0.0.1:0", n, cfg).expect("bind loopback reactor");
    let addr = transport.local_addr();
    let handle = std::thread::spawn(move || {
        let mut engine = ServerEngine::new(n, Box::new(UstorServer::new(n)));
        serve(&mut engine, &mut transport);
        (
            engine.stats().clone(),
            transport.stats().clone(),
            transport.recent_disconnects(),
            transport.buffered_bytes(),
        )
    });
    (addr, handle)
}

fn connect_hello(addr: std::net::SocketAddr, id: ClientId) -> TcpStream {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_nodelay(true).ok();
    write_frame(&mut s, &id).expect("hello");
    s
}

/// Blocking-reads the next REPLY frame off a raw socket.
fn next_reply(sock: &mut TcpStream) -> faust::types::ReplyMsg {
    match read_frame::<_, UstorMsg>(sock)
        .expect("reply stream")
        .expect("server stays up")
    {
        UstorMsg::Reply(r) => r,
        _ => panic!("server sends only replies"),
    }
}

/// One full sequential operation (submit → reply → commit) for session
/// `i` over its raw socket; returns the completion.
fn full_op(
    sessions: &mut [UstorClient],
    socks: &mut [TcpStream],
    i: usize,
    submit: SubmitMsg,
) -> faust::ustor::OpCompletion {
    write_frame(&mut socks[i], &UstorMsg::Submit(submit)).expect("submit");
    let reply = next_reply(&mut socks[i]);
    let (commit, done) = sessions[i]
        .handle_reply(reply)
        .expect("fail-aware checks pass against a correct server");
    write_frame(
        &mut socks[i],
        &UstorMsg::Commit(commit.expect("immediate mode")),
    )
    .expect("commit");
    done
}

/// The load gauntlet: `FAUST_REACTOR_CONNS` (default 128, CI ≥ 512)
/// concurrent connections through a FULL FAUST run — every client
/// writes, then reads its neighbour's register and verifies the value,
/// with every reply passing the client's fail-aware checks — served by a
/// SINGLE reactor thread. Bounded memory is asserted from the reactor's
/// own accounting, not hoped for.
#[test]
fn many_connections_full_faust_run_on_one_reactor_thread() {
    let n: usize = std::env::var("FAUST_REACTOR_CONNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(128);
    assert!(n >= 2, "the neighbour-read phase needs at least 2 clients");
    let cfg = ReactorConfig {
        max_conns: n + 8,
        ..ReactorConfig::default()
    };
    let (addr, server) = spawn_reactor_server(n, cfg);

    let keys = KeySet::generate(n, b"reactor-e2e");
    let mut sessions = sessions(&keys, n);
    let mut socks: Vec<TcpStream> = (0..n).map(|i| connect_hello(addr, c(i as u32))).collect();

    // Phase 1 — every client writes a distinctive value. Breadth-first:
    // all submits out, then replies in, so all `n` connections carry
    // traffic concurrently.
    for i in 0..n {
        let submit = sessions[i]
            .begin_write(Value::unique(i as u32, 1))
            .expect("idle");
        write_frame(&mut socks[i], &UstorMsg::Submit(submit)).expect("submit");
    }
    for i in 0..n {
        let reply = next_reply(&mut socks[i]);
        let (commit, _) = sessions[i]
            .handle_reply(reply)
            .expect("fail-aware checks pass");
        write_frame(
            &mut socks[i],
            &UstorMsg::Commit(commit.expect("immediate mode")),
        )
        .expect("commit");
    }

    // Phase 2 — every client reads its neighbour's register through the
    // untrusted store and verifies the value end to end.
    for i in 0..n {
        let neighbour = c(((i + 1) % n) as u32);
        let submit = sessions[i].begin_read(neighbour).expect("idle");
        write_frame(&mut socks[i], &UstorMsg::Submit(submit)).expect("submit");
    }
    for i in 0..n {
        let neighbour = ((i + 1) % n) as u32;
        let reply = next_reply(&mut socks[i]);
        let (commit, done) = sessions[i]
            .handle_reply(reply)
            .expect("fail-aware checks pass");
        assert_eq!(
            done.read_value,
            Some(Some(Value::unique(neighbour, 1))),
            "client {i} read its neighbour's write"
        );
        write_frame(
            &mut socks[i],
            &UstorMsg::Commit(commit.expect("immediate mode")),
        )
        .expect("commit");
    }

    drop(socks);
    let (engine, reactor, _recent, buffered) = server.join().expect("server thread");

    assert_eq!(engine.submits, 2 * n as u64);
    assert_eq!(engine.commits, 2 * n as u64);
    assert_eq!(engine.rejected, 0);
    assert_eq!(reactor.accepted, n as u64);
    assert_eq!(reactor.peak_conns, n, "all connections were open at once");
    assert_eq!(reactor.shed(), 0);
    assert_eq!(reactor.msgs_in, 4 * n as u64);
    // Bounded memory, by the reactor's own accounting: nothing left
    // buffered at close, and the peak stayed far below what unbounded
    // buffering of n concurrent streams could reach.
    assert_eq!(buffered, 0);
    assert!(
        reactor.peak_buffered_bytes < 16 << 20,
        "peak buffered {} B",
        reactor.peak_buffered_bytes
    );

    // CI's load job uploads these counters as the run's artifact.
    if let Ok(path) = std::env::var("FAUST_REACTOR_STATS_JSON") {
        let json = format!(
            "{{\n  \"conns\": {},\n  \"reactor\": {{\n    \"accepted\": {},\n    \"shed_over_capacity\": {},\n    \"shed_memory_pressure\": {},\n    \"msgs_in\": {},\n    \"bytes_in\": {},\n    \"frames_out\": {},\n    \"bytes_out\": {},\n    \"socket_writes\": {},\n    \"read_pauses\": {},\n    \"global_pauses\": {},\n    \"polls\": {},\n    \"peak_conns\": {},\n    \"peak_buffered_bytes\": {},\n    \"hello_timeouts\": {},\n    \"departed\": {}\n  }},\n  \"engine\": {{\n    \"submits\": {},\n    \"commits\": {},\n    \"frames_out\": {},\n    \"flushes\": {}\n  }}\n}}\n",
            n,
            reactor.accepted,
            reactor.shed_over_capacity,
            reactor.shed_memory_pressure,
            reactor.msgs_in,
            reactor.bytes_in,
            reactor.frames_out,
            reactor.bytes_out,
            reactor.socket_writes,
            reactor.read_pauses,
            reactor.global_pauses,
            reactor.polls,
            reactor.peak_conns,
            reactor.peak_buffered_bytes,
            reactor.hello_timeouts,
            reactor.departed,
            engine.submits,
            engine.commits,
            engine.frames_out,
            engine.flushes,
        );
        std::fs::write(&path, json).expect("write reactor stats artifact");
    }
}

/// Overload: with the connection cap at 4, eight extra connections are
/// shed at accept with a typed reason (the peers observe prompt EOF, not
/// a hang), while the four admitted clients keep completing fail-aware
/// operations throughout.
#[test]
fn overload_sheds_with_typed_reason_while_admitted_clients_complete() {
    let n = 4;
    let cfg = ReactorConfig {
        max_conns: n,
        ..ReactorConfig::default()
    };
    let (addr, server) = spawn_reactor_server(n, cfg);

    let keys = KeySet::generate(n, b"reactor-overload");
    let mut sessions = sessions(&keys, n);
    let mut socks: Vec<TcpStream> = (0..n).map(|i| connect_hello(addr, c(i as u32))).collect();
    // Every admitted client completes a first op — all four slots are
    // registered and occupied before the overload arrives.
    for i in 0..n {
        let submit = sessions[i]
            .begin_write(Value::unique(i as u32, 1))
            .expect("idle");
        full_op(&mut sessions, &mut socks, i, submit);
    }

    // The stampede: eight connections beyond the cap. Each must observe
    // EOF (shed-on-accept closes immediately) rather than a stall.
    for k in 0..8 {
        let mut extra = TcpStream::connect(addr).expect("connect");
        extra
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut buf = [0u8; 1];
        assert_eq!(
            extra
                .read(&mut buf)
                .expect("shed peer sees EOF, not a hang"),
            0,
            "extra connection {k} was shed with EOF"
        );
    }

    // Admitted clients still complete under (past) overload.
    for i in 0..n {
        let submit = sessions[i]
            .begin_write(Value::unique(i as u32, 2))
            .expect("idle");
        full_op(&mut sessions, &mut socks, i, submit);
    }

    drop(socks);
    let (engine, reactor, recent, _buffered) = server.join().expect("server thread");
    assert_eq!(engine.submits, 2 * n as u64);
    assert_eq!(reactor.accepted, n as u64);
    assert_eq!(reactor.shed_over_capacity, 8);
    assert!(
        recent
            .iter()
            .any(|(id, r)| id.is_none() && *r == DisconnectReason::ShedOverCapacity),
        "shed reason is typed and logged: {recent:?}"
    );
    // No unbounded growth anywhere near the caps.
    assert!(reactor.peak_buffered_bytes < 1 << 20);
}

/// Memory-pressure admission, driven on the transport directly. The
/// serve loop always drains queued messages before polling again, so by
/// the time an accept is processed, buffered pressure comes from egress
/// backlog (replies a client has not consumed) and partial frames — this
/// test builds exactly that: a large egress backlog to a non-reading
/// client pushes buffered bytes over the global budget, a new connection
/// is shed with `ShedMemoryPressure`, and once the backlog drains the
/// budget recovers and the next connection is admitted again.
#[test]
fn memory_pressure_sheds_accepts_until_the_backlog_drains() {
    let budget = 8usize << 20;
    let cfg = ReactorConfig {
        max_buffered_bytes: budget,
        // Egress cap far above what we enqueue: this test must trip the
        // GLOBAL budget, not the per-connection slow-consumer cap.
        max_egress_bytes: 256 << 20,
        ..ReactorConfig::default()
    };
    let mut transport =
        ReactorTransport::bind_with("127.0.0.1:0", 2, cfg).expect("bind loopback reactor");
    let addr = transport.local_addr();

    // Client 0 connects and stops reading; the "engine" (us) hands the
    // transport ~16 MiB of frames for it. The kernel's socket buffers
    // absorb a few MiB; the rest stays in the reactor's egress buffer,
    // counted against the global budget. (The transport moves frames
    // verbatim — garbage signatures are fine at this layer.)
    let mut silent = connect_hello(addr, c(0));
    let ping = UstorMsg::Commit(faust::types::CommitMsg {
        version: faust::types::Version::initial(2),
        commit_sig: faust::crypto::Signature::garbage(),
        proof_sig: faust::crypto::Signature::garbage(),
    });
    write_frame(&mut silent, &ping).expect("ping");
    // Receiving its first message proves the HELLO was processed —
    // replies addressed to it will reach its connection, not the void.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "client 0 never registered");
        if let Incoming::Msg(from, _) =
            transport.recv_deadline(Instant::now() + Duration::from_millis(20))
        {
            assert_eq!(from, c(0));
            break;
        }
    }
    let junk = UstorMsg::Submit(SubmitMsg {
        timestamp: 1,
        tuple: InvocationTuple {
            client: c(0),
            kind: OpKind::Write,
            register: c(0),
            sig: faust::crypto::Signature::garbage(),
        },
        value: Some(Value::new(vec![0x5A; 64 << 10])),
        data_sig: faust::crypto::Signature::garbage(),
        piggyback: None,
    });
    transport.send_batch(c(0), vec![junk; 256]);
    assert!(
        transport.buffered_bytes() >= budget,
        "backlog {} B never exceeded the {budget} B budget",
        transport.buffered_bytes()
    );

    // A new connection now gets shed for memory pressure, with EOF
    // rather than a hang on the peer's side.
    let mut refused = TcpStream::connect(addr).expect("connect");
    refused
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let deadline = Instant::now() + Duration::from_secs(10);
    while transport.stats().shed_memory_pressure == 0 {
        assert!(Instant::now() < deadline, "accept was never shed");
        let _ = transport.recv_deadline(Instant::now() + Duration::from_millis(20));
    }
    let mut buf = [0u8; 1];
    assert_eq!(refused.read(&mut buf).expect("EOF"), 0, "refused with EOF");

    // The silent client starts reading: the backlog drains (the reactor
    // flushes on write-readiness as the kernel buffers empty) and the
    // budget recovers.
    silent
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("timeout");
    let mut sink = vec![0u8; 256 << 10];
    let deadline = Instant::now() + Duration::from_secs(60);
    while transport.buffered_bytes() > 0 {
        assert!(Instant::now() < deadline, "backlog never drained");
        let _ = silent.read(&mut sink);
        let _ = transport.recv_deadline(Instant::now() + Duration::from_millis(20));
    }

    // A later connection is admitted and served normally.
    let mut late = connect_hello(addr, c(1));
    write_frame(
        &mut late,
        &UstorMsg::Commit(faust::types::CommitMsg {
            version: faust::types::Version::initial(2),
            commit_sig: faust::crypto::Signature::garbage(),
            proof_sig: faust::crypto::Signature::garbage(),
        }),
    )
    .expect("late client's message");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "late client never served");
        if let Incoming::Msg(from, _) =
            transport.recv_deadline(Instant::now() + Duration::from_millis(20))
        {
            assert_eq!(from, c(1));
            break;
        }
    }

    drop(silent);
    drop(late);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "transport never closed");
        if matches!(
            transport.recv_deadline(Instant::now() + Duration::from_millis(20)),
            Incoming::Closed
        ) {
            break;
        }
    }
    let stats = transport.stats();
    assert_eq!(stats.shed_memory_pressure, 1);
    assert_eq!(stats.accepted, 2);
    assert!(
        transport
            .recent_disconnects()
            .iter()
            .any(|(id, r)| id.is_none() && *r == DisconnectReason::ShedMemoryPressure),
        "shed reason is typed: {:?}",
        transport.recent_disconnects()
    );
    assert_eq!(transport.buffered_bytes(), 0);
}

/// Hostile connections are isolated without stalling honest clients: a
/// half-open socket that never completes HELLO is reaped on a timer, and
/// a slow-loris peer dribbling one byte at a time gets exactly its own
/// latency — the honest client's operation completes while the loris is
/// still dribbling.
#[test]
fn slow_loris_and_half_open_hello_are_isolated_from_honest_clients() {
    let n = 2;
    let cfg = ReactorConfig {
        hello_timeout: Duration::from_millis(400),
        ..ReactorConfig::default()
    };
    let (addr, server) = spawn_reactor_server(n, cfg);

    let keys = KeySet::generate(n, b"reactor-hostile");
    let mut all = sessions(&keys, n);
    let loris_session = all.pop().expect("two sessions");
    let honest_session = all.pop().expect("two sessions");

    // The half-open connection: never sends HELLO.
    let mut half_open = TcpStream::connect(addr).expect("connect");
    half_open
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");

    // The loris: valid HELLO and a valid full operation, dribbled one
    // byte at a time. It must be served (it is merely slow, not wrong) —
    // but on ITS latency budget, nobody else's.
    let honest_done = Arc::new(AtomicBool::new(false));
    let honest_done_for_loris = Arc::clone(&honest_done);
    let loris = std::thread::spawn(move || {
        let mut session = loris_session;
        let mut sock = TcpStream::connect(addr).expect("connect");
        sock.set_nodelay(true).ok();
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &c(1)).expect("encode hello");
        let submit = session
            .begin_write(Value::from("loris-finally"))
            .expect("idle");
        write_frame(&mut bytes, &UstorMsg::Submit(submit)).expect("encode submit");
        for b in bytes {
            use std::io::Write as _;
            sock.write_all(&[b]).expect("dribble");
            sock.flush().ok();
            std::thread::sleep(Duration::from_millis(2));
        }
        let reply = next_reply(&mut sock);
        let honest_was_already_done = honest_done_for_loris.load(Ordering::SeqCst);
        let (commit, _) = session.handle_reply(reply).expect("loris op is valid");
        write_frame(
            &mut sock,
            &UstorMsg::Commit(commit.expect("immediate mode")),
        )
        .expect("commit");
        honest_was_already_done
    });

    // The honest client: connects and completes a full op while the
    // loris dribbles and the half-open socket squats.
    let mut sessions = vec![honest_session];
    let mut socks = vec![connect_hello(addr, c(0))];
    let submit = sessions[0]
        .begin_write(Value::from("honest-and-fast"))
        .expect("idle");
    full_op(&mut sessions, &mut socks, 0, submit);
    honest_done.store(true, Ordering::SeqCst);

    // The half-open connection is reaped by the HELLO timer: EOF.
    let mut buf = [0u8; 1];
    assert_eq!(
        half_open
            .read(&mut buf)
            .expect("reaped with EOF, not a hang"),
        0
    );

    assert!(
        loris.join().expect("loris thread"),
        "honest client completed while the loris was still dribbling"
    );
    drop(socks);
    let (engine, reactor, recent, _buffered) = server.join().expect("server thread");
    assert_eq!(engine.submits, 2, "honest + loris both served");
    assert_eq!(reactor.hello_timeouts, 1, "half-open reaped exactly once");
    assert!(
        recent
            .iter()
            .any(|(id, r)| id.is_none() && *r == DisconnectReason::HelloTimeout),
        "reap reason is typed: {recent:?}"
    );
}

/// A client that stops reading mid-burst (pipelined reads of a large
/// register, replies never consumed) trips the slow-consumer egress cap
/// and is disconnected with a typed reason instead of ballooning server
/// memory; the honest client keeps completing operations afterwards.
#[test]
fn slow_consumer_is_excised_with_typed_reason_and_bounded_memory() {
    let n = 2;
    let egress_cap = 2usize << 20;
    let cfg = ReactorConfig {
        max_egress_bytes: egress_cap,
        ..ReactorConfig::default()
    };
    let (addr, server) = spawn_reactor_server(n, cfg);

    let keys = KeySet::generate(n, b"reactor-slow-consumer");
    let mut sessions = sessions(&keys, n);
    // This deployment permits pipelining up to 64 deep, and the honest
    // client knows it: its fail-aware fold tolerates up to that many
    // commit-less pending operations per peer (the hostile burst below
    // uses exactly the permitted depth — valid wire traffic, just a peer
    // that never collects its replies).
    sessions[0].set_pipeline(64);
    let mut socks = vec![connect_hello(addr, c(0))];

    // Honest client 0 writes a fresh 512 KiB value before each of the
    // first 16 reads below, so their REPLYs carry it in full: a REPLY
    // names, instead of sending, a value its recipient already holds.
    let write_big = |sessions: &mut [UstorClient], socks: &mut [TcpStream], t: u64| {
        let big = Value::new(vec![t as u8; 512 << 10]);
        let submit = sessions[0].begin_write(big).expect("idle");
        full_op(sessions, socks, 0, submit);
    };
    write_big(&mut sessions, &mut socks, 0);

    // Hostile client 1: HELLO, then 64 pre-signed pipelined READs of
    // register 0 — and never reads a byte of the ~8 MiB of replies.
    // (Pipelining needs hand-built submits: the sequential client keeps
    // one op in flight by design. Signatures depend only on the
    // client's own counter, so pre-signing t = 1..=64 is valid wire
    // traffic; x̄ stays None — this client never wrote.)
    let mut hostile = connect_hello(addr, c(1));
    let keypair = keys.keypair(1).expect("client key");
    for t in 1..=64u64 {
        let submit = SubmitMsg {
            timestamp: t,
            tuple: InvocationTuple {
                client: c(1),
                kind: OpKind::Read,
                register: c(0),
                sig: keypair.sign(
                    SigContext::Submit,
                    &submit_signing_bytes(OpKind::Read, c(0), t),
                ),
            },
            value: None,
            data_sig: keypair.sign(SigContext::Data, &data_signing_bytes(t, None)),
            piggyback: None,
        };
        // A few replies exceed the cap, so a loaded server may excise us
        // mid-burst (broken pipe); the asserts below check it either way.
        if write_frame(&mut hostile, &UstorMsg::Submit(submit)).is_err() {
            break;
        }
        if t < 16 {
            write_big(&mut sessions, &mut socks, t);
        }
    }

    // The server excises the hostile connection once its unread egress
    // exceeds the cap. Observable from the outside: the hostile socket
    // reaches EOF after at most the buffered bytes (drain them — reading
    // NOW is fine, the excision already happened server-side).
    hostile
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut sink = [0u8; 64 << 10];
    loop {
        match hostile.read(&mut sink) {
            Ok(0) => break,    // FIN: excised
            Ok(_) => continue, // draining what was in flight
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                panic!("the slow consumer was not excised within 30 s")
            }
            Err(_) => break, // RST: also excised
        }
    }
    drop(hostile);

    // The honest client is unaffected: another full op completes.
    let submit = sessions[0]
        .begin_write(Value::from("still-served"))
        .expect("idle");
    full_op(&mut sessions, &mut socks, 0, submit);

    drop(socks);
    let (_engine, reactor, recent, _buffered) = server.join().expect("server thread");
    assert_eq!(reactor.slow_consumers, 1);
    assert!(
        recent
            .iter()
            .any(|(id, r)| *id == Some(c(1)) && *r == DisconnectReason::SlowConsumer),
        "excision reason is typed and attributed: {recent:?}"
    );
    // The egress cap bounded the buffered peak: well below the ~32 MiB
    // a ballooning server would have held (cap + one in-flight frame +
    // ingress slack).
    assert!(
        reactor.peak_buffered_bytes < egress_cap + (1 << 20),
        "peak buffered {} B",
        reactor.peak_buffered_bytes
    );
}

/// A peer that names a register the deployment does not have is refused
/// at the engine's door: `serve` keeps running, the peer's own next
/// operation is served as its first, and client 0 completes a write and a
/// read on its own socket.
#[test]
fn a_submit_naming_a_register_outside_the_deployment_leaves_serve_running() {
    let n = 2;
    let (addr, server) = spawn_reactor_server(n, ReactorConfig::default());
    let keys = KeySet::generate(n, b"reactor-door");
    let mut sessions = sessions(&keys, n);

    // The raw peer: HELLO as client 1, then a read of register `n`, then
    // an honest read whose REPLY shows the first was processed and left
    // client 1's session untouched (its timestamp is the same).
    let mut outside = sessions[1].clone().begin_read(c(0)).expect("idle");
    outside.tuple.register = c(n as u32);
    let mut socks = vec![connect_hello(addr, c(0)), connect_hello(addr, c(1))];
    write_frame(&mut socks[1], &UstorMsg::Submit(outside)).expect("submit");
    let submit = sessions[1].begin_read(c(0)).expect("idle");
    let done = full_op(&mut sessions, &mut socks, 1, submit);
    assert_eq!((done.timestamp, done.read_value), (1, Some(None)));

    let submit = sessions[0].begin_write(Value::from("after")).expect("idle");
    full_op(&mut sessions, &mut socks, 0, submit);
    let submit = sessions[0].begin_read(c(0)).expect("idle");
    let done = full_op(&mut sessions, &mut socks, 0, submit);
    assert_eq!(done.read_value, Some(Some(Value::from("after"))));

    drop(socks);
    let (engine, _reactor, _recent, _buffered) = server.join().expect("server thread");
    assert_eq!((engine.rejected, engine.submits), (1, 3));
}
