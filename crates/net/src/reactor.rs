//! The socket server: one thread, many connections, explicit admission
//! control.
//!
//! [`ReactorTransport`] serves every connection from a single
//! readiness-driven event loop (epoll on Linux, `poll(2)` elsewhere — see
//! [`sys`]): non-blocking accept, per-connection incremental frame
//! decoding via [`faust_types::frame::FrameDecoder`], and write-interest
//! driven egress over per-connection coalescing buffers. It implements
//! [`ServerTransport`], so `ServerEngine` and group commit run on top
//! unchanged — the reactor *is* the serve thread: all socket work happens
//! inside `recv`/`send` calls on the engine loop's own thread. Clients
//! dial it with [`tcp::connect`](crate::tcp::connect).
//!
//! # Admission control
//!
//! Untrusted clients get bounded resources, enforced per connection and
//! globally (the Fustor stability playbook: bounded queues, slow-consumer
//! excision, suspect isolation):
//!
//! * **Bounded ingress queues.** Each connection may have at most
//!   [`ReactorConfig::ingress_queue_msgs`] decoded messages waiting for
//!   the engine; past that the reactor *stops reading its socket*
//!   (clears read interest) instead of buffering unboundedly, and resumes
//!   at half occupancy. Backpressure propagates to the peer's kernel
//!   send buffer, exactly like a slow single-threaded server would.
//! * **Global caps with shed-on-accept.** At most
//!   [`ReactorConfig::max_conns`] connections are admitted; beyond that
//!   (or while total buffered bytes exceed
//!   [`ReactorConfig::max_buffered_bytes`]) new connections are closed
//!   immediately at accept with a typed shed reason, so overload degrades
//!   to "late joiners are refused" rather than "everyone times out".
//! * **Slow-consumer egress limits.** A client that stops reading its
//!   replies accumulates egress; past
//!   [`ReactorConfig::max_egress_bytes`] it is disconnected with
//!   [`DisconnectReason::SlowConsumer`] rather than ballooning memory.
//! * **Suspect-peer isolation.** A stalled HELLO is reaped after
//!   [`ReactorConfig::hello_timeout`]; a malformed frame, an oversized
//!   header, or an I/O error excises exactly that connection with a
//!   typed [`DisconnectReason`]. A connection that has not completed
//!   HELLO may buffer at most [`MAX_HELLO_INGRESS`] undecoded bytes —
//!   a HELLO frame is a dozen bytes, so a pre-registration peer cannot
//!   park a near-[`MAX_FRAME_LEN`](faust_types::frame::MAX_FRAME_LEN)
//!   frame outside the per-client accounting. No single peer can wedge
//!   the loop: every read is non-blocking and budgeted, every write is
//!   non-blocking, and all verdicts are per-connection.
//!
//! Memory accounting is explicit: `buffered_bytes` tracks every byte the
//! reactor holds for peers (undecoded ingress + decoded-but-undelivered
//! messages + pending egress), and the peak is exported via
//! [`ReactorStats::peak_buffered_bytes`] so tests can *assert* bounded
//! memory instead of hoping for it.
//!
//! The HELLO is identification, not authentication (see
//! [`tcp`](crate::tcp)). One connection per distinct client id over the
//! transport's lifetime: session resumption is a *session*-layer feature,
//! so a reconnecting client resumes against a fresh server incarnation
//! and, within one incarnation, an id reuse is an impostor or a bug
//! ([`DisconnectReason::DuplicateClient`]). [`Incoming::Closed`] comes
//! once all `n` expected clients have connected and departed.

pub mod sys;

use crate::{Incoming, ServerTransport};
use faust_types::frame::{frame_into, FrameDecoder};
use faust_types::{ClientId, UstorMsg};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};
use sys::{Poller, ReadyEvent};

/// Upper bound on clients per server transport; keeps a hostile HELLO from
/// sizing any table.
pub const MAX_CLIENTS: usize = 4096;

/// Admission-control knobs for [`ReactorTransport`]. The defaults are
/// deliberately generous for trusted benchmarks and tight enough that a
/// hostile peer cannot make the reactor balloon; production deployments
/// tune them per `docs/networking.md`.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Maximum simultaneously open connections (registered or still in
    /// HELLO). Accepts beyond this are shed immediately.
    pub max_conns: usize,
    /// Maximum decoded-but-undelivered messages per connection before
    /// the reactor stops reading that socket (resumes at half).
    pub ingress_queue_msgs: usize,
    /// Maximum pending egress bytes per connection before it is
    /// disconnected as a slow consumer.
    pub max_egress_bytes: usize,
    /// Global cap on bytes buffered for all peers together (ingress,
    /// queued messages, and egress). Above it, new accepts are shed and
    /// registered connections stop being read until it halves.
    pub max_buffered_bytes: usize,
    /// How long a freshly accepted connection gets to complete its
    /// HELLO frame before being reaped.
    pub hello_timeout: Duration,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            max_conns: 1024,
            ingress_queue_msgs: 64,
            max_egress_bytes: 4 << 20,
            max_buffered_bytes: 64 << 20,
            hello_timeout: Duration::from_secs(5),
        }
    }
}

/// Why the reactor excised a connection. Typed so tests (and operators
/// reading stats) can tell overload shedding from protocol violations
/// from ordinary departures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisconnectReason {
    /// The peer closed the connection (ordinary departure).
    PeerClosed,
    /// The connection never completed its HELLO within the timeout.
    HelloTimeout,
    /// The HELLO frame was missing, malformed, or out of range.
    BadHello,
    /// A HELLO for a client id that already had its one connection.
    DuplicateClient,
    /// A malformed or oversized frame after HELLO.
    Malformed,
    /// The peer stopped reading and its egress exceeded the cap.
    SlowConsumer,
    /// A socket error while reading or writing.
    Io,
    /// Shed at accept: the connection cap was reached.
    ShedOverCapacity,
    /// Shed at accept: the global memory budget was exhausted.
    ShedMemoryPressure,
}

impl std::fmt::Display for DisconnectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DisconnectReason::PeerClosed => "peer closed",
            DisconnectReason::HelloTimeout => "hello timeout",
            DisconnectReason::BadHello => "bad hello",
            DisconnectReason::DuplicateClient => "duplicate client",
            DisconnectReason::Malformed => "malformed frame",
            DisconnectReason::SlowConsumer => "slow consumer",
            DisconnectReason::Io => "io error",
            DisconnectReason::ShedOverCapacity => "shed: over connection cap",
            DisconnectReason::ShedMemoryPressure => "shed: memory pressure",
        };
        f.write_str(s)
    }
}

/// Reactor counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Connections admitted past the accept-time checks.
    pub accepted: u64,
    /// Accepts refused because the connection cap was reached.
    pub shed_over_capacity: u64,
    /// Accepts refused because the global memory budget was exhausted.
    pub shed_memory_pressure: u64,
    /// Complete messages decoded and handed toward the engine.
    pub msgs_in: u64,
    /// Raw bytes read off sockets.
    pub bytes_in: u64,
    /// Frames encoded for egress.
    pub frames_out: u64,
    /// Raw bytes written to sockets.
    pub bytes_out: u64,
    /// Successful `write` syscalls (coalescing proof: stays well below
    /// `frames_out` under load).
    pub socket_writes: u64,
    /// Times a connection's read interest was cleared because its
    /// ingress queue filled (backpressure engaged).
    pub read_pauses: u64,
    /// Times a connection's read interest was cleared because the
    /// global memory budget was exhausted.
    pub global_pauses: u64,
    /// Poller wakeups.
    pub polls: u64,
    /// Most simultaneously open connections.
    pub peak_conns: usize,
    /// Most bytes ever buffered for peers at once (ingress + queued
    /// messages + egress) — the bounded-memory witness.
    pub peak_buffered_bytes: usize,
    /// Connections reaped for never completing HELLO.
    pub hello_timeouts: u64,
    /// Connections dropped for a missing/invalid HELLO.
    pub bad_hellos: u64,
    /// Connections dropped for reusing an already-seen client id.
    pub duplicate_clients: u64,
    /// Connections dropped for malformed or oversized frames.
    pub malformed: u64,
    /// Connections dropped for exceeding the egress cap.
    pub slow_consumers: u64,
    /// Connections dropped on socket errors.
    pub io_errors: u64,
    /// Ordinary departures (peer closed).
    pub departed: u64,
}

impl ReactorStats {
    /// Total connections shed at accept, either cause.
    pub fn shed(&self) -> u64 {
        self.shed_over_capacity + self.shed_memory_pressure
    }
}

/// How many bytes one readiness event may read from one socket before
/// yielding to the rest of the loop — level-triggered polling re-arms the
/// leftover, so a firehose peer cannot starve its neighbours.
const READ_BUDGET: usize = 64 * 1024;

/// Bounded log of recent disconnects (id if registered, typed reason).
const RECENT_DISCONNECTS: usize = 32;

/// Most undecoded bytes a connection may hold before its HELLO frame
/// registers it. A HELLO is a framed [`ClientId`] — a dozen bytes — so a
/// buffer past this bound means the peer's first frame header claims a
/// payload that cannot be a HELLO, and the connection is excised with
/// [`DisconnectReason::BadHello`] instead of being allowed to buffer up
/// to a full frame (16 MiB) per connection outside the per-client queue
/// accounting.
pub const MAX_HELLO_INGRESS: usize = 64;

/// How long the listener backs off after an accept failure other than
/// `WouldBlock` (EMFILE/ENFILE under fd exhaustion): read interest is
/// dropped for this long so the still-pending backlog entry does not
/// re-fire the level-triggered listener event in a hot loop.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

struct Conn {
    stream: TcpStream,
    /// `Some` once the HELLO frame has registered the peer.
    id: Option<ClientId>,
    decoder: FrameDecoder,
    /// Messages from this connection currently queued for the engine.
    queued_msgs: usize,
    queued_bytes: usize,
    /// Pending egress: encoded frames not yet written, `egress_start`
    /// marking the written prefix (compacted lazily like the decoder).
    egress: Vec<u8>,
    egress_start: usize,
    /// Write interest is armed (egress blocked on a full kernel buffer).
    want_write: bool,
    /// Read interest cleared: this connection's ingress queue is full.
    paused_queue: bool,
    /// Read interest cleared: the global memory budget is exhausted.
    paused_global: bool,
    hello_deadline: Instant,
}

impl Conn {
    fn egress_pending(&self) -> usize {
        self.egress.len() - self.egress_start
    }

    fn wants_read(&self) -> bool {
        !self.paused_queue && !self.paused_global
    }
}

/// One slab slot. The generation guards queued messages and interest
/// updates against slot reuse: a message enqueued by connection A must
/// not decrement the counters of connection B that later landed in A's
/// slot.
struct Slot {
    gen: u64,
    conn: Option<Conn>,
}

struct Ready {
    slot: usize,
    gen: u64,
    from: ClientId,
    msg: UstorMsg,
    bytes: usize,
}

/// Readiness-based server transport: one event loop, many connections.
/// See the [module docs](self) for the architecture and admission-control
/// contract.
pub struct ReactorTransport {
    listener: TcpListener,
    local_addr: SocketAddr,
    poller: Poller,
    events: Vec<ReadyEvent>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Client id → live slot, for egress addressing.
    by_client: Vec<Option<usize>>,
    /// One connection per distinct client id, ever: reconnects must not
    /// consume another id's slot.
    registered: Vec<bool>,
    /// Decoded messages awaiting delivery to the engine.
    ready: VecDeque<Ready>,
    expected: usize,
    seen: usize,
    active: usize,
    open_conns: usize,
    pending_hellos: usize,
    /// Bytes held for peers right now: undecoded ingress + queued
    /// messages + pending egress.
    buffered_bytes: usize,
    /// Connections currently paused by the global budget.
    global_paused: usize,
    /// Listener read interest is parked until this instant after an
    /// accept failure (fd exhaustion) — see [`ACCEPT_BACKOFF`].
    accept_backoff_until: Option<Instant>,
    cfg: ReactorConfig,
    stats: ReactorStats,
    recent: VecDeque<(Option<ClientId>, DisconnectReason)>,
}

/// Listener registration token; connection tokens are `slot + 1`.
const LISTENER_TOKEN: usize = 0;

impl ReactorTransport {
    /// Binds a listener with default [`ReactorConfig`], expecting `n`
    /// distinct clients over the transport's lifetime.
    ///
    /// # Errors
    ///
    /// Propagates socket and poller creation errors.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds [`MAX_CLIENTS`].
    pub fn bind(addr: impl ToSocketAddrs, n: usize) -> io::Result<Self> {
        Self::bind_with(addr, n, ReactorConfig::default())
    }

    /// Binds with explicit admission-control configuration.
    ///
    /// # Errors
    ///
    /// Propagates socket and poller creation errors.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds [`MAX_CLIENTS`], or if
    /// `cfg.max_conns` is zero.
    pub fn bind_with(addr: impl ToSocketAddrs, n: usize, cfg: ReactorConfig) -> io::Result<Self> {
        assert!(n > 0 && n <= MAX_CLIENTS, "client count out of range");
        assert!(cfg.max_conns > 0, "max_conns must admit at least one");
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, true, false)?;
        Ok(ReactorTransport {
            listener,
            local_addr,
            poller,
            events: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            by_client: vec![None; n],
            registered: vec![false; n],
            ready: VecDeque::new(),
            expected: n,
            seen: 0,
            active: 0,
            open_conns: 0,
            pending_hellos: 0,
            buffered_bytes: 0,
            global_paused: 0,
            accept_backoff_until: None,
            cfg,
            stats: ReactorStats::default(),
            recent: VecDeque::new(),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The reactor's counters so far.
    pub fn stats(&self) -> &ReactorStats {
        &self.stats
    }

    /// Bytes currently buffered for peers (ingress + queued + egress).
    pub fn buffered_bytes(&self) -> usize {
        self.buffered_bytes
    }

    /// The most recent disconnects, oldest first: the client id if the
    /// connection had completed HELLO, and the typed reason.
    pub fn recent_disconnects(&self) -> Vec<(Option<ClientId>, DisconnectReason)> {
        self.recent.iter().cloned().collect()
    }

    fn note_buffered(&mut self, delta: usize) {
        self.buffered_bytes += delta;
        self.stats.peak_buffered_bytes = self.stats.peak_buffered_bytes.max(self.buffered_bytes);
    }

    fn closed(&self) -> bool {
        self.seen == self.expected && self.active == 0 && self.ready.is_empty()
    }

    /// Re-arms poller interest from a connection's current flags.
    fn update_interest(&mut self, slot: usize) {
        let Some(conn) = self.slots[slot].conn.as_ref() else {
            return;
        };
        let _ = self.poller.modify(
            conn.stream.as_raw_fd(),
            slot + 1,
            conn.wants_read(),
            conn.want_write,
        );
    }

    fn record_disconnect(&mut self, id: Option<ClientId>, reason: DisconnectReason) {
        match reason {
            DisconnectReason::PeerClosed => self.stats.departed += 1,
            DisconnectReason::HelloTimeout => self.stats.hello_timeouts += 1,
            DisconnectReason::BadHello => self.stats.bad_hellos += 1,
            DisconnectReason::DuplicateClient => self.stats.duplicate_clients += 1,
            DisconnectReason::Malformed => self.stats.malformed += 1,
            DisconnectReason::SlowConsumer => self.stats.slow_consumers += 1,
            DisconnectReason::Io => self.stats.io_errors += 1,
            DisconnectReason::ShedOverCapacity => self.stats.shed_over_capacity += 1,
            DisconnectReason::ShedMemoryPressure => self.stats.shed_memory_pressure += 1,
        }
        if self.recent.len() == RECENT_DISCONNECTS {
            self.recent.pop_front();
        }
        self.recent.push_back((id, reason));
    }

    /// Excises one connection with a typed reason. Messages it already
    /// queued stay deliverable (their byte accounting resolves when the
    /// engine pops them — the generation check skips the dead conn).
    fn disconnect(&mut self, slot: usize, reason: DisconnectReason) {
        let Some(conn) = self.slots[slot].conn.take() else {
            return;
        };
        self.slots[slot].gen += 1;
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        // Queued-message bytes are NOT released here: they release
        // unconditionally when popped from `ready`.
        self.buffered_bytes -= conn.decoder.pending_bytes() + conn.egress_pending();
        if conn.paused_global {
            self.global_paused -= 1;
        }
        match conn.id {
            Some(id) => {
                self.active -= 1;
                self.by_client[id.index()] = None;
            }
            None => self.pending_hellos -= 1,
        }
        self.open_conns -= 1;
        self.free.push(slot);
        self.record_disconnect(conn.id, reason);
        // `conn.stream` drops here, closing the socket.
    }

    /// Drains the accept backlog, applying shed-on-accept admission.
    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // EMFILE/ENFILE and friends: the backlog entry stays
                    // pending and the listener stays level-triggered
                    // readable, so retrying immediately would busy-spin.
                    // Park listener interest and retry after a backoff.
                    let _ =
                        self.poller
                            .modify(self.listener.as_raw_fd(), LISTENER_TOKEN, false, false);
                    self.accept_backoff_until = Some(Instant::now() + ACCEPT_BACKOFF);
                    return;
                }
            };
            if self.open_conns >= self.cfg.max_conns {
                // Shed: closing immediately tells the peer (EOF before
                // any reply) that it was refused, rather than leaving it
                // to time out against a wedged server.
                self.record_disconnect(None, DisconnectReason::ShedOverCapacity);
                continue;
            }
            if self.buffered_bytes >= self.cfg.max_buffered_bytes {
                self.record_disconnect(None, DisconnectReason::ShedMemoryPressure);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                self.record_disconnect(None, DisconnectReason::Io);
                continue;
            }
            let _ = stream.set_nodelay(true);
            let fd = stream.as_raw_fd();
            let slot = match self.free.pop() {
                Some(s) => s,
                None => {
                    self.slots.push(Slot { gen: 0, conn: None });
                    self.slots.len() - 1
                }
            };
            if self.poller.register(fd, slot + 1, true, false).is_err() {
                self.free.push(slot);
                self.record_disconnect(None, DisconnectReason::Io);
                continue;
            }
            self.slots[slot].conn = Some(Conn {
                stream,
                id: None,
                decoder: FrameDecoder::new(),
                queued_msgs: 0,
                queued_bytes: 0,
                egress: Vec::new(),
                egress_start: 0,
                want_write: false,
                paused_queue: false,
                paused_global: false,
                hello_deadline: Instant::now() + self.cfg.hello_timeout,
            });
            self.open_conns += 1;
            self.pending_hellos += 1;
            self.stats.accepted += 1;
            self.stats.peak_conns = self.stats.peak_conns.max(self.open_conns);
        }
    }

    /// Handles a readable (or hangup) event on a connection: budgeted
    /// non-blocking reads, incremental decode, HELLO registration, and
    /// backpressure bookkeeping.
    fn handle_readable(&mut self, slot: usize, hangup: bool) {
        {
            let Some(conn) = self.slots[slot].conn.as_ref() else {
                return;
            };
            // Paused connections keep their data in the kernel buffer,
            // but ERR/HUP is reported regardless of the interest mask:
            // returning without consuming it would make the next poll
            // re-fire the same event in a hot loop, so a hung-up paused
            // connection is excised here (its already-queued messages
            // stay deliverable via the generation check).
            if !conn.wants_read() {
                if hangup {
                    self.disconnect(slot, DisconnectReason::PeerClosed);
                }
                return;
            }
        }
        // Any connection arriving here while the budget is blown gets
        // globally paused instead of read — pre-HELLO ones included
        // (the HELLO timeout reaps them if the pressure outlasts them).
        if self.buffered_bytes >= self.cfg.max_buffered_bytes {
            let conn = self.slots[slot].conn.as_mut().expect("checked above");
            conn.paused_global = true;
            self.global_paused += 1;
            self.stats.global_pauses += 1;
            self.update_interest(slot);
            return;
        }

        // Read phase: straight into the connection's decoder, up to
        // READ_BUDGET bytes, then yield to the loop. A short read means
        // the socket is drained — no second `read` just to be told
        // `WouldBlock`; level-triggered polling re-arms if more arrives.
        let mut eof = false;
        let mut budget = READ_BUDGET;
        loop {
            let conn = self.slots[slot].conn.as_mut().expect("present");
            match conn.decoder.read_from(&mut conn.stream, budget) {
                Ok((0, _)) => {
                    eof = true;
                    break;
                }
                Ok((n, filled)) => {
                    self.stats.bytes_in += n as u64;
                    self.note_buffered(n);
                    budget -= n;
                    if budget == 0 || !filled {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.disconnect(slot, DisconnectReason::Io);
                    return;
                }
            }
        }

        // Decode phase. HELLO first if still pending — the decoder then
        // keeps serving protocol frames from the same buffer, so a HELLO
        // and a first SUBMIT arriving in one segment both land.
        if self.slots[slot]
            .conn
            .as_ref()
            .is_some_and(|c| c.id.is_none())
        {
            let conn = self.slots[slot].conn.as_mut().expect("present");
            let before = conn.decoder.pending_bytes();
            match conn.decoder.next_frame::<ClientId>() {
                Ok(Some(id)) => {
                    let consumed = before - conn.decoder.pending_bytes();
                    if id.index() >= self.expected {
                        self.buffered_bytes -= consumed;
                        self.disconnect(slot, DisconnectReason::BadHello);
                        return;
                    }
                    if self.registered[id.index()] {
                        self.buffered_bytes -= consumed;
                        self.disconnect(slot, DisconnectReason::DuplicateClient);
                        return;
                    }
                    conn.id = Some(id);
                    self.buffered_bytes -= consumed;
                    self.registered[id.index()] = true;
                    self.by_client[id.index()] = Some(slot);
                    self.seen += 1;
                    self.active += 1;
                    self.pending_hellos -= 1;
                }
                Ok(None) => {
                    // A HELLO frame is tiny; an incomplete one with this
                    // much buffered means the first header claims a
                    // payload no HELLO could have — excise it now rather
                    // than buffering toward the 16 MiB frame cap on a
                    // connection the per-client accounting cannot see.
                    if conn.decoder.pending_bytes() > MAX_HELLO_INGRESS {
                        self.disconnect(slot, DisconnectReason::BadHello);
                        return;
                    }
                    if eof {
                        self.disconnect(slot, DisconnectReason::PeerClosed);
                    }
                    return;
                }
                Err(_) => {
                    self.disconnect(slot, DisconnectReason::BadHello);
                    return;
                }
            }
        }

        // Protocol frames.
        loop {
            let conn = self.slots[slot].conn.as_mut().expect("present");
            let before = conn.decoder.pending_bytes();
            match conn.decoder.next_frame::<UstorMsg>() {
                Ok(Some(msg)) => {
                    let bytes = before - conn.decoder.pending_bytes();
                    let from = conn.id.expect("registered above");
                    let gen = self.slots[slot].gen;
                    let conn = self.slots[slot].conn.as_mut().expect("present");
                    conn.queued_msgs += 1;
                    conn.queued_bytes += bytes;
                    self.ready.push_back(Ready {
                        slot,
                        gen,
                        from,
                        msg,
                        bytes,
                    });
                    self.stats.msgs_in += 1;
                }
                Ok(None) => break,
                Err(_) => {
                    self.disconnect(slot, DisconnectReason::Malformed);
                    return;
                }
            }
        }

        // Backpressure: queue full → stop reading this socket.
        let cap = self.cfg.ingress_queue_msgs;
        let conn = self.slots[slot].conn.as_mut().expect("present");
        if conn.queued_msgs >= cap && !conn.paused_queue {
            conn.paused_queue = true;
            self.stats.read_pauses += 1;
            self.update_interest(slot);
        }

        if eof {
            self.disconnect(slot, DisconnectReason::PeerClosed);
        }
    }

    /// Writes as much pending egress as the socket accepts; arms or
    /// clears write interest accordingly.
    fn flush_egress(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.slots[slot].conn.as_mut() else {
                return;
            };
            if conn.egress_pending() == 0 {
                conn.egress.clear();
                conn.egress_start = 0;
                if conn.want_write {
                    conn.want_write = false;
                    self.update_interest(slot);
                }
                return;
            }
            match conn.stream.write(&conn.egress[conn.egress_start..]) {
                Ok(0) => {
                    self.disconnect(slot, DisconnectReason::Io);
                    return;
                }
                Ok(n) => {
                    conn.egress_start += n;
                    self.buffered_bytes -= n;
                    self.stats.bytes_out += n as u64;
                    self.stats.socket_writes += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if !conn.want_write {
                        conn.want_write = true;
                        self.update_interest(slot);
                    }
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.disconnect(slot, DisconnectReason::Io);
                    return;
                }
            }
        }
    }

    /// Encodes a batch into the per-connection egress buffer (one flush
    /// attempt afterwards → one socket write per client per batch when
    /// the socket keeps up), enforcing the slow-consumer cap per frame
    /// so a non-reading peer is excised mid-batch instead of after the
    /// whole batch ballooned.
    fn enqueue_egress(&mut self, to: ClientId, msgs: &[UstorMsg]) {
        let Some(slot) = self.by_client.get(to.index()).copied().flatten() else {
            return; // departed client: best-effort drop
        };
        for msg in msgs {
            let Some(conn) = self.slots[slot].conn.as_mut() else {
                return;
            };
            // Lazy compaction, same policy as the frame decoder.
            if conn.egress_start > 0 && conn.egress_start >= conn.egress.len() / 2 {
                conn.egress.drain(..conn.egress_start);
                conn.egress_start = 0;
            }
            let before = conn.egress.len();
            frame_into(&mut conn.egress, msg);
            let added = conn.egress.len() - before;
            let pending = conn.egress_pending();
            self.note_buffered(added);
            self.stats.frames_out += 1;
            if pending > self.cfg.max_egress_bytes {
                self.disconnect(slot, DisconnectReason::SlowConsumer);
                return;
            }
        }
        self.flush_egress(slot);
        self.maybe_release_global();
    }

    /// Resumes globally paused connections once the budget has halved.
    fn maybe_release_global(&mut self) {
        if self.global_paused == 0 || self.buffered_bytes > self.cfg.max_buffered_bytes / 2 {
            return;
        }
        for slot in 0..self.slots.len() {
            let resumed = {
                let Some(conn) = self.slots[slot].conn.as_mut() else {
                    continue;
                };
                if !conn.paused_global {
                    continue;
                }
                conn.paused_global = false;
                true
            };
            if resumed {
                self.global_paused -= 1;
                self.update_interest(slot);
            }
        }
    }

    /// Delivers the next queued message, resolving its byte accounting
    /// and releasing backpressure on its (still-live) connection.
    fn pop_ready(&mut self) -> Option<Incoming> {
        let r = self.ready.pop_front()?;
        self.buffered_bytes -= r.bytes;
        if self.slots[r.slot].gen == r.gen {
            let resume = {
                let conn = self.slots[r.slot].conn.as_mut().expect("gen matches");
                conn.queued_msgs -= 1;
                conn.queued_bytes -= r.bytes;
                if conn.paused_queue && conn.queued_msgs <= self.cfg.ingress_queue_msgs / 2 {
                    conn.paused_queue = false;
                    true
                } else {
                    false
                }
            };
            if resume {
                self.update_interest(r.slot);
            }
        }
        self.maybe_release_global();
        Some(Incoming::Msg(r.from, r.msg))
    }

    /// Next HELLO deadline among still-unregistered connections.
    fn next_hello_deadline(&self) -> Option<Instant> {
        if self.pending_hellos == 0 {
            return None;
        }
        self.slots
            .iter()
            .filter_map(|s| s.conn.as_ref())
            .filter(|c| c.id.is_none())
            .map(|c| c.hello_deadline)
            .min()
    }

    /// Reaps connections whose HELLO never arrived in time.
    fn reap_hello_timeouts(&mut self) {
        if self.pending_hellos == 0 {
            return;
        }
        let now = Instant::now();
        let overdue: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.conn
                    .as_ref()
                    .is_some_and(|c| c.id.is_none() && now >= c.hello_deadline)
            })
            .map(|(i, _)| i)
            .collect();
        for slot in overdue {
            self.disconnect(slot, DisconnectReason::HelloTimeout);
        }
    }

    /// One turn of the event loop: wait (bounded by `timeout` and the
    /// next HELLO deadline), then service every ready fd.
    fn pump(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        let now = Instant::now();
        if let Some(resume) = self.accept_backoff_until {
            if now >= resume {
                // Backoff elapsed: re-arm the listener; the still-pending
                // backlog makes it readable again on the next wait.
                self.accept_backoff_until = None;
                let _ = self
                    .poller
                    .modify(self.listener.as_raw_fd(), LISTENER_TOKEN, true, false);
            }
        }
        let mut wait = timeout;
        for deadline in [self.next_hello_deadline(), self.accept_backoff_until]
            .into_iter()
            .flatten()
        {
            let until = deadline.saturating_duration_since(now);
            wait = Some(match wait {
                Some(t) => t.min(until),
                None => until,
            });
        }
        let mut events = std::mem::take(&mut self.events);
        let res = self.poller.wait(&mut events, wait);
        self.stats.polls += 1;
        let outcome = match res {
            Ok(()) => {
                // Accepts first: a slot excised by a connection event
                // below must not be reused by an accept in this same
                // batch, or a still-queued event for the old fd (same
                // token) would be delivered to the new occupant. Slots
                // freed here are only handed out on the next pump, when
                // no stale events can remain.
                for ev in &events {
                    if ev.token == LISTENER_TOKEN {
                        self.accept_ready();
                    }
                }
                for ev in &events {
                    if ev.token == LISTENER_TOKEN {
                        continue;
                    }
                    let slot = ev.token - 1;
                    if slot >= self.slots.len() || self.slots[slot].conn.is_none() {
                        continue; // excised earlier in this same batch
                    }
                    if ev.readable || ev.hangup {
                        self.handle_readable(slot, ev.hangup);
                    }
                    if ev.writable {
                        self.flush_egress(slot);
                    }
                }
                Ok(())
            }
            Err(e) => Err(e),
        };
        self.events = events;
        // Writable-event egress drain may have freed budget even though
        // nothing was enqueued or popped this turn — without this,
        // globally paused connections would never resume (and `recv`
        // would block forever) after a pressure episode whose bytes were
        // all pending egress.
        self.maybe_release_global();
        self.reap_hello_timeouts();
        outcome
    }
}

impl ServerTransport for ReactorTransport {
    fn recv(&mut self) -> Incoming {
        loop {
            if let Some(msg) = self.pop_ready() {
                return msg;
            }
            if self.closed() {
                return Incoming::Closed;
            }
            if self.pump(None).is_err() {
                return Incoming::Closed; // poller failure is fatal
            }
        }
    }

    fn recv_deadline(&mut self, deadline: Instant) -> Incoming {
        loop {
            if let Some(msg) = self.pop_ready() {
                return msg;
            }
            if self.closed() {
                return Incoming::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return Incoming::TimedOut;
            }
            if self.pump(Some(deadline - now)).is_err() {
                return Incoming::Closed;
            }
        }
    }

    fn try_recv(&mut self) -> Incoming {
        if let Some(msg) = self.pop_ready() {
            return msg;
        }
        if self.closed() {
            return Incoming::Closed;
        }
        if self.pump(Some(Duration::ZERO)).is_err() {
            return Incoming::Closed;
        }
        match self.pop_ready() {
            Some(msg) => msg,
            None if self.closed() => Incoming::Closed,
            None => Incoming::Idle,
        }
    }

    fn send(&mut self, to: ClientId, msg: UstorMsg) {
        self.enqueue_egress(to, std::slice::from_ref(&msg));
    }

    fn send_batch(&mut self, to: ClientId, msgs: Vec<UstorMsg>) {
        self.enqueue_egress(to, &msgs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::connect;
    use faust_crypto::Signature;
    use faust_types::frame::{write_frame, MAX_FRAME_LEN};
    use faust_types::{CommitMsg, Version};
    use std::io::Read;

    fn msg(n: usize) -> UstorMsg {
        UstorMsg::Commit(CommitMsg {
            version: Version::initial(n),
            commit_sig: Signature::garbage(),
            proof_sig: Signature::garbage(),
        })
    }

    #[test]
    fn loopback_roundtrip_and_close() {
        let mut server = ReactorTransport::bind("127.0.0.1:0", 2).unwrap();
        let addr = server.local_addr();
        let mut c0 = connect(addr, ClientId::new(0)).unwrap();
        let mut c1 = connect(addr, ClientId::new(1)).unwrap();

        c0.send(&msg(2)).unwrap();
        let Incoming::Msg(from, _) = server.recv() else {
            panic!("expected a message");
        };
        assert_eq!(from, ClientId::new(0));

        c1.send(&msg(2)).unwrap();
        let Incoming::Msg(from, _) = server.recv() else {
            panic!("expected a message");
        };
        assert_eq!(from, ClientId::new(1));
        server.send(ClientId::new(1), msg(2));
        assert!(c1.recv().is_ok());

        drop(c0);
        drop(c1);
        assert!(matches!(server.recv(), Incoming::Closed));
        assert_eq!(server.stats().accepted, 2);
        assert_eq!(server.stats().departed, 2);
        assert_eq!(server.buffered_bytes(), 0);
    }

    #[test]
    fn each_registered_connection_is_reported_once() {
        // The transport's `Closed` is what ends a connection for the
        // engine, so it must not come while any registered connection
        // is open; each registered departure is logged once under its id,
        // and a second HELLO for a live id registers nothing.
        let mut server = ReactorTransport::bind("127.0.0.1:0", 2).unwrap();
        let addr = server.local_addr();
        let mut c0 = connect(addr, ClientId::new(0)).unwrap();
        let mut c1 = connect(addr, ClientId::new(1)).unwrap();
        for c in [&mut c0, &mut c1] {
            c.send(&msg(2)).unwrap();
            assert!(matches!(server.recv(), Incoming::Msg(_, _)));
        }
        let impostor = connect(addr, ClientId::new(0)).unwrap();
        drop(c0);
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.stats().departed + server.stats().duplicate_clients < 2 {
            assert!(Instant::now() < deadline, "client 0 never departed");
            let step = Instant::now() + Duration::from_millis(20);
            assert!(
                !matches!(server.recv_deadline(step), Incoming::Closed),
                "closed while client 1 is connected"
            );
        }
        c1.send(&msg(2)).unwrap();
        let Incoming::Msg(from, _) = server.recv() else {
            panic!("client 1's message after client 0 left");
        };
        assert_eq!(from, ClientId::new(1));
        drop(impostor);
        drop(c1);
        assert!(matches!(server.recv(), Incoming::Closed));
        let mut registered: Vec<_> = server
            .recent_disconnects()
            .into_iter()
            .filter_map(|(id, reason)| Some((id?.index(), reason)))
            .collect();
        registered.sort_unstable_by_key(|&(id, _)| id);
        assert_eq!(
            registered,
            [
                (0, DisconnectReason::PeerClosed),
                (1, DisconnectReason::PeerClosed)
            ]
        );
        assert_eq!(server.stats().duplicate_clients, 1);
    }

    #[test]
    fn roundtrip_and_close() {
        let mut server = ReactorTransport::bind("127.0.0.1:0", 2).unwrap();
        let addr = server.local_addr();
        let mut conns: Vec<_> = (0..2)
            .map(|i| connect(addr, ClientId::new(i)).unwrap())
            .collect();
        conns[0].send(&msg(2)).unwrap();
        let Incoming::Msg(from, _) = server.recv() else {
            panic!("expected message");
        };
        assert_eq!(from, ClientId::new(0));
        server.send(ClientId::new(0), msg(2));
        assert!(conns[0].recv().is_ok());
        // Dropping every conn, the one that never spoke too, closes the transport.
        conns.clear();
        assert!(matches!(server.recv(), Incoming::Closed));
    }

    #[test]
    fn send_to_departed_client_is_dropped() {
        let mut server = ReactorTransport::bind("127.0.0.1:0", 2).unwrap();
        let addr = server.local_addr();
        let mut c0 = connect(addr, ClientId::new(0)).unwrap();
        let mut c1 = connect(addr, ClientId::new(1)).unwrap();
        c1.send(&msg(2)).unwrap();
        assert!(matches!(server.recv(), Incoming::Msg(..)));
        drop(c1); // client 1 leaves
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.stats().departed == 0 {
            assert!(Instant::now() < deadline, "client 1 never departed");
            let _ = server.recv_deadline(Instant::now() + Duration::from_millis(20));
        }
        server.send(ClientId::new(1), msg(2)); // must not panic
        assert_eq!(server.stats().frames_out, 0);
        c0.send(&msg(2)).unwrap();
        assert!(matches!(server.recv(), Incoming::Msg(..)));
    }

    #[test]
    fn send_batch_coalesces_but_delivers_every_frame_in_order() {
        let mut server = ReactorTransport::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr();
        let mut c0 = connect(addr, ClientId::new(0)).unwrap();
        c0.send(&msg(1)).unwrap();
        let Incoming::Msg(_, _) = server.recv() else {
            panic!("expected a message");
        };
        let batch: Vec<UstorMsg> = (0..5).map(|_| msg(1)).collect();
        server.send_batch(ClientId::new(0), batch);
        for _ in 0..5 {
            assert!(matches!(c0.recv(), Ok(UstorMsg::Commit(_))));
        }
        assert_eq!(server.stats().frames_out, 5);
        // The whole batch went out in one coalesced write.
        assert_eq!(server.stats().socket_writes, 1);
        drop(c0);
        assert!(matches!(server.recv(), Incoming::Closed));
    }

    #[test]
    fn recv_deadline_times_out_then_still_delivers() {
        let mut server = ReactorTransport::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr();
        let mut c0 = connect(addr, ClientId::new(0)).unwrap();
        let deadline = Instant::now() + Duration::from_millis(20);
        assert!(matches!(server.recv_deadline(deadline), Incoming::TimedOut));
        c0.send(&msg(1)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        assert!(matches!(server.recv_deadline(deadline), Incoming::Msg(..)));
        drop(c0);
        assert!(matches!(server.recv(), Incoming::Closed));
    }

    #[test]
    fn bad_hello_is_rejected_but_good_clients_proceed() {
        let mut server = ReactorTransport::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr();
        let bogus = connect(addr, ClientId::new(9)).unwrap();
        let mut good = connect(addr, ClientId::new(0)).unwrap();
        good.send(&msg(1)).unwrap();
        let Incoming::Msg(from, _) = server.recv() else {
            panic!("expected a message");
        };
        assert_eq!(from, ClientId::new(0));
        drop(bogus);
        drop(good);
        assert!(matches!(server.recv(), Incoming::Closed));
        assert_eq!(server.stats().bad_hellos, 1);
    }

    #[test]
    fn reconnecting_client_cannot_consume_another_clients_slot() {
        let mut server = ReactorTransport::bind("127.0.0.1:0", 2).unwrap();
        let addr = server.local_addr();

        let mut c0 = connect(addr, ClientId::new(0)).unwrap();
        c0.send(&msg(2)).unwrap();
        let Incoming::Msg(from, _) = server.recv() else {
            panic!("expected a message");
        };
        assert_eq!(from, ClientId::new(0));
        drop(c0);

        let again = connect(addr, ClientId::new(0)).unwrap();

        let mut c1 = connect(addr, ClientId::new(1)).unwrap();
        c1.send(&msg(2)).unwrap();
        let Incoming::Msg(from, _) = server.recv() else {
            panic!("expected client 1's message; transport closed early");
        };
        assert_eq!(from, ClientId::new(1));

        drop(again);
        drop(c1);
        assert!(matches!(server.recv(), Incoming::Closed));
        assert_eq!(server.stats().duplicate_clients, 1);
    }

    #[test]
    fn byte_at_a_time_frames_still_decode() {
        let mut server = ReactorTransport::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr();
        // A slow-loris-shaped honest client: HELLO then one frame,
        // dribbled a byte per write.
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &ClientId::new(0)).unwrap();
        write_frame(&mut bytes, &msg(1)).unwrap();
        let handle = std::thread::spawn(move || {
            for b in bytes {
                stream.write_all(&[b]).unwrap();
                stream.flush().unwrap();
            }
            stream
        });
        let Incoming::Msg(from, _) = server.recv() else {
            panic!("expected the dribbled message");
        };
        assert_eq!(from, ClientId::new(0));
        drop(handle.join().unwrap());
        assert!(matches!(server.recv(), Incoming::Closed));
    }

    #[test]
    fn shed_over_capacity_refuses_but_serves_admitted() {
        let cfg = ReactorConfig {
            max_conns: 1,
            ..ReactorConfig::default()
        };
        let mut server = ReactorTransport::bind_with("127.0.0.1:0", 1, cfg).unwrap();
        let addr = server.local_addr();
        let mut admitted = connect(addr, ClientId::new(0)).unwrap();
        admitted.send(&msg(1)).unwrap();
        let Incoming::Msg(_, _) = server.recv() else {
            panic!("expected the admitted client's message");
        };
        // Beyond the cap: the extra connection is shed at accept.
        let mut extra = std::net::TcpStream::connect(addr).unwrap();
        // Pump the reactor so the accept+shed happens.
        while server.stats().shed() == 0 {
            let _ = server.recv_deadline(Instant::now() + Duration::from_millis(20));
        }
        assert_eq!(server.stats().shed_over_capacity, 1);
        // The shed peer observes EOF, not a hang.
        let mut buf = [0u8; 1];
        extra
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(extra.read(&mut buf).unwrap(), 0);
        // The admitted client is still served.
        server.send(ClientId::new(0), msg(1));
        assert!(admitted.recv().is_ok());
        drop(admitted);
        assert!(matches!(server.recv(), Incoming::Closed));
    }

    #[test]
    fn malformed_frame_excises_only_the_offender() {
        let mut server = ReactorTransport::bind("127.0.0.1:0", 2).unwrap();
        let addr = server.local_addr();
        let mut good = connect(addr, ClientId::new(0)).unwrap();
        good.send(&msg(2)).unwrap();
        let Incoming::Msg(_, _) = server.recv() else {
            panic!("expected good client's message");
        };
        // A registered client that then sends an oversized header.
        let mut evil = std::net::TcpStream::connect(addr).unwrap();
        write_frame(&mut evil, &ClientId::new(1)).unwrap();
        evil.write_all(&u32::MAX.to_be_bytes()).unwrap();
        while server.stats().malformed == 0 {
            let _ = server.recv_deadline(Instant::now() + Duration::from_millis(20));
        }
        assert_eq!(
            server.recent_disconnects().last(),
            Some(&(Some(ClientId::new(1)), DisconnectReason::Malformed))
        );
        // The honest client still gets replies.
        server.send(ClientId::new(0), msg(2));
        assert!(good.recv().is_ok());
        drop(good);
        assert!(matches!(server.recv(), Incoming::Closed));
    }

    #[test]
    fn oversized_pre_hello_claim_is_rejected_without_buffering() {
        let mut server = ReactorTransport::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr();
        let mut evil = std::net::TcpStream::connect(addr).unwrap();
        // A frame header claiming the maximum frame length, then a slab
        // of payload: without the pre-HELLO ingress cap the reactor
        // would buffer toward 16 MiB per connection waiting for the
        // HELLO decode, outside all per-client accounting.
        evil.write_all(&MAX_FRAME_LEN.to_be_bytes()).unwrap();
        evil.write_all(&[0u8; 1024]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.stats().bad_hellos == 0 {
            assert!(Instant::now() < deadline, "oversized HELLO never rejected");
            let _ = server.recv_deadline(Instant::now() + Duration::from_millis(20));
        }
        assert_eq!(server.buffered_bytes(), 0);
        // Nowhere near the 16 MiB the header claimed.
        assert!(server.stats().peak_buffered_bytes < 64 * 1024);
    }

    #[test]
    fn hangup_while_paused_is_excised_not_spun_on() {
        let cfg = ReactorConfig {
            ingress_queue_msgs: 1,
            ..ReactorConfig::default()
        };
        let mut server = ReactorTransport::bind_with("127.0.0.1:0", 1, cfg).unwrap();
        let addr = server.local_addr();
        // A raw stream, not a `ClientConn` (which drains its socket on
        // drop): the reply sent below stays unread in its kernel buffer.
        let mut c0 = std::net::TcpStream::connect(addr).unwrap();
        write_frame(&mut c0, &ClientId::new(0)).unwrap();
        for _ in 0..3 {
            write_frame(&mut c0, &msg(1)).unwrap();
        }
        // Pump without popping until backpressure clears read interest.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.stats().read_pauses == 0 {
            assert!(Instant::now() < deadline, "backpressure never engaged");
            server.pump(Some(Duration::from_millis(10))).unwrap();
        }
        // Leave unread data in the client's kernel buffer so its close
        // turns into an RST — the OS then reports ERR/HUP even though
        // the paused connection's interest mask is empty.
        server.send(ClientId::new(0), msg(1));
        drop(c0);
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.stats().departed == 0 {
            assert!(
                Instant::now() < deadline,
                "paused connection never excised on hangup"
            );
            server.pump(Some(Duration::from_millis(10))).unwrap();
        }
        // Its already-queued messages still deliver, then the transport
        // closes instead of waiting on the dead connection forever.
        let mut delivered = 0;
        loop {
            match server.recv() {
                Incoming::Msg(from, _) => {
                    assert_eq!(from, ClientId::new(0));
                    delivered += 1;
                }
                Incoming::Closed => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(delivered >= 1);
    }

    #[test]
    fn egress_drain_releases_globally_paused_connections() {
        let cfg = ReactorConfig {
            max_buffered_bytes: 64 * 1024,
            max_egress_bytes: 256 << 20,
            ..ReactorConfig::default()
        };
        let mut server = ReactorTransport::bind_with("127.0.0.1:0", 2, cfg).unwrap();
        let addr = server.local_addr();
        let mut c0 = connect(addr, ClientId::new(0)).unwrap();
        let mut c1 = connect(addr, ClientId::new(1)).unwrap();
        c0.send(&msg(2)).unwrap();
        c1.send(&msg(2)).unwrap();
        for _ in 0..2 {
            assert!(matches!(server.recv(), Incoming::Msg(..)));
        }
        // c0 stops reading: once the kernel buffers fill, frames pile up
        // as pending egress until the global budget is blown.
        let mut sent = 0usize;
        while server.buffered_bytes() < 64 * 1024 {
            let batch: Vec<UstorMsg> = (0..256).map(|_| msg(2)).collect();
            sent += batch.len();
            server.send_batch(ClientId::new(0), batch);
            assert!(sent < 2_000_000, "kernel buffers never filled");
        }
        // c1's next message arrives while the budget is blown: its
        // readable event parks it as globally paused instead of reading.
        c1.send(&msg(2)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats().global_pauses == 0 {
            assert!(Instant::now() < deadline, "global pause never engaged");
            let _ = server.recv_deadline(Instant::now() + Duration::from_millis(20));
        }
        // Drain c0 from another thread. All budget now frees via
        // writable-event egress flushes inside `pump` — nothing is
        // enqueued or popped — so only pump's own release check can
        // resume c1 and let its message (and this recv) complete.
        let drainer = std::thread::spawn(move || {
            for _ in 0..sent {
                c0.recv().unwrap();
            }
            c0
        });
        let got = server.recv_deadline(Instant::now() + Duration::from_secs(30));
        let Incoming::Msg(from, _) = got else {
            panic!("globally paused connection was never resumed: {got:?}");
        };
        assert_eq!(from, ClientId::new(1));
        // Finish flushing so the drainer's remaining reads are all
        // satisfiable from kernel buffers, then wind down.
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.buffered_bytes() > 0 {
            assert!(Instant::now() < deadline, "egress never fully drained");
            let _ = server.recv_deadline(Instant::now() + Duration::from_millis(20));
        }
        let c0 = drainer.join().unwrap();
        drop(c0);
        drop(c1);
        assert!(matches!(server.recv(), Incoming::Closed));
        assert_eq!(server.buffered_bytes(), 0);
        assert!(server.stats().slow_consumers == 0);
    }
}
