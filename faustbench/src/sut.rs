//! Every call into the system under test lives in this file.
//!
//! The benchmark drives the shipped layers through their public items
//! only: `SessionCore`/`FaustClient` (`faust-core`), `ServerEngine`,
//! `serve` and the `Server` trait (`faust-ustor`), `PersistentBackend`
//! (`faust-store`), `ReactorTransport`, `QueueTransport` and the
//! `ServerTransport` trait (`faust-net`), the frame helpers
//! (`faust-types`) and `KeySet` (`faust-crypto`). A change to one of
//! those interfaces needs a follow-up here and nowhere else.
//!
//! Three ways of running the same stack:
//!
//! * **lockstep** (`depth` 1) — one thread steps client → transport →
//!   engine → store → transport → client with one operation in flight,
//!   over real loopback sockets ([`Link::Sockets`]) or over an
//!   in-process link on which every message still passes through its
//!   wire encoding ([`Link::InProcess`]). Nothing waits for another
//!   thread, so a segment's time is the code's cost plus whatever the
//!   machine adds.
//! * **pipelined** (`depth` > 1) — each session keeps a window of
//!   operations in flight with piggybacked COMMITs, so that the engine
//!   ingests batches, builds replies over a long pending list and
//!   coalesces egress. Still one thread: the driver steps the server
//!   whenever the session it serves has no reply waiting, which makes
//!   every round one full window per session.
//! * **as `faust serve` ships** (`shipped_serve`) — the pipelined clients
//!   against the shipped `serve` loop on a thread of its own, over a
//!   group-committing store with real fsyncs. On this box that cannot be
//!   timed repeatably: two threads need both cores undisturbed at once,
//!   and an fsync on the shared virtual disk is a third of an operation
//!   and drifts between 150 and 250 µs by the minute. It is measured,
//!   checked and reported among the per-layer metrics, and gates nothing.
//!
//! The single-threaded runs use `Durability::Never`: the whole durable
//! code path — WAL append, checksum, snapshots, rotation — without the
//! fsync system call, because the driver confines the store to the
//! checkout and the checkout is on that disk.

use crate::gen::{Op, OpKind};
use crate::oracle::Oracle;
use crate::procfs;
use crate::trace::{Name, TracerCell};
use faust_core::{Event, FaustClient, FaustConfig, SessionCore, UserOp};
use faust_crypto::sig::{KeySet, SigContext, Signer, Verifier};
use faust_net::{Incoming, QueueTransport, ReactorTransport, ServerTransport};
use faust_store::log::Wal;
use faust_store::{Durability, LogRecord, PersistentBackend, PersistentServer, StoreConfig};
use faust_types::frame::{frame_bytes, read_frame, write_frame, FrameDecoder};
use faust_types::{ClientId, CommitMsg, ReplyMsg, SubmitMsg, UstorMsg, Value, Wire};
use faust_ustor::{
    serve, CommitMode, Server, ServerBackend, ServerEngine, SessionResume, UstorServer,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// As `faust serve` ships.
const SNAPSHOT_EVERY: u64 = 1024;
/// Group commit of the `shipped_serve` pass. `Durability::group()` ships
/// 64 records, which two connections at depth 16 can never fill: every
/// batch would wait out the 2 ms timer and the run would time the timer.
/// With 32 operations in flight 8 is always reached by count.
pub const GROUP_MAX_RECORDS: u64 = 8;
const GROUP_MAX_WAIT: Duration = Duration::from_millis(2);
/// Messages kept for the kernel replays of a traced run.
const CAPTURE: usize = 4096;
/// Reply-shape samples kept per traced pass.
const REPLY_SAMPLES: usize = 1 << 16;
/// Submit stamps remembered per client; above any pipeline depth.
const STAMPS: usize = 64;
/// Server steps a lockstep operation may take before it counts as hung.
const STEP_LIMIT: usize = 100_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// Loopback TCP through `ReactorTransport`.
    Sockets,
    /// `QueueTransport`, each message encoded to a frame and decoded
    /// again on the way (64 sockets would be 64 connections on 2 cores).
    InProcess,
}

#[derive(Debug, Clone, Copy)]
pub struct SutConfig {
    pub n: usize,
    pub link: Link,
    /// Operations each session keeps in flight. 1 is the paper's
    /// sequential client with immediate COMMITs (the `HandleConfig`
    /// default); deeper windows piggyback their COMMITs.
    pub depth: usize,
    /// Serve thread + group commit, as `faust serve` ships.
    pub shipped_serve: bool,
}

impl SutConfig {
    pub fn pipelined(&self) -> bool {
        self.depth > 1
    }

    fn store(&self) -> StoreConfig {
        StoreConfig {
            durability: if self.shipped_serve {
                Durability::Group {
                    max_records: GROUP_MAX_RECORDS,
                    max_wait: GROUP_MAX_WAIT,
                }
            } else {
                Durability::Never
            },
            snapshot_every: SNAPSHOT_EVERY,
        }
    }

    /// Log records one completed operation leaves behind.
    pub fn records_per_op(&self) -> u64 {
        if self.pipelined() {
            1 // the COMMIT rides on the next SUBMIT
        } else {
            2 // SUBMIT + COMMIT
        }
    }

    /// Operations each session submits in a timed cold start. More than
    /// one under group commit, so that the first batch fills by count
    /// and the cold start does not time the flush deadline.
    pub fn setup_burst(&self) -> usize {
        if self.shipped_serve {
            GROUP_MAX_RECORDS as usize / self.n.max(1)
        } else {
            1
        }
    }

    pub fn snapshot_every(&self) -> u64 {
        SNAPSHOT_EVERY
    }
}

/// Per-segment latency samples, in nanoseconds.
#[derive(Debug, Default)]
pub struct Recorder {
    pub write_ns: Vec<u64>,
    pub read_ns: Vec<u64>,
}

impl Recorder {
    pub fn clear(&mut self) {
        self.write_ns.clear();
        self.read_ns.clear();
    }
}

/// A socket that counts what passes through it, so that the shipped
/// `read_frame`/`write_frame` can be used as they are.
struct Counted {
    sock: TcpStream,
    read: u64,
    written: u64,
}

impl Read for Counted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.sock.read(buf)?;
        self.read += n as u64;
        Ok(n)
    }
}

impl Write for Counted {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.sock.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.sock.flush()
    }
}

/// `ServerTransport` wrapper: a span around each call.
struct Timed<T> {
    inner: T,
    tracer: Arc<TracerCell>,
}

impl<T: ServerTransport> ServerTransport for Timed<T> {
    fn recv(&mut self) -> Incoming {
        let _span = self.tracer.guard(Name::NetWait);
        self.inner.recv()
    }

    fn recv_deadline(&mut self, deadline: Instant) -> Incoming {
        let _span = self.tracer.guard(Name::NetWait);
        self.inner.recv_deadline(deadline)
    }

    fn try_recv(&mut self) -> Incoming {
        let _span = self.tracer.guard(Name::NetIngest);
        self.inner.try_recv()
    }

    fn send(&mut self, to: ClientId, msg: UstorMsg) {
        let _span = self.tracer.guard(Name::NetEgress);
        self.inner.send(to, msg);
    }

    fn send_batch(&mut self, to: ClientId, msgs: Vec<UstorMsg>) {
        let _span = self.tracer.guard(Name::NetEgress);
        self.inner.send_batch(to, msgs);
    }
}

/// What the `Server` wrapper counts and, while tracing, captures.
#[derive(Default)]
struct Tap {
    logged: AtomicU64,
    /// Reply releases: by a record filling the batch (or, without group
    /// commit, by the record itself) …
    inline_replies: AtomicU64,
    /// … or by `flush`, i.e. by the deadline or a snapshot.
    flush_replies: AtomicU64,
    releases: AtomicU64,
    records: Mutex<Vec<LogRecord>>,
}

/// `Server` wrapper around whatever the backend built.
struct TimedServer {
    inner: Box<dyn Server + Send>,
    tracer: Arc<TracerCell>,
    tap: Arc<Tap>,
}

impl TimedServer {
    fn capture(&self, record: impl FnOnce() -> LogRecord) {
        if self.tracer.enabled() {
            let mut records = self.tap.records.lock().expect("tap lock");
            if records.len() < CAPTURE {
                records.push(record());
            }
        }
    }

    fn count(&self, released: usize, by_flush: bool) {
        // Relaxed: statistics, read after the serve thread is joined or
        // from the same thread.
        if released > 0 {
            let counter = if by_flush {
                &self.tap.flush_replies
            } else {
                &self.tap.inline_replies
            };
            counter.fetch_add(released as u64, Ordering::Relaxed);
            self.tap.releases.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Server for TimedServer {
    fn on_submit(&mut self, client: ClientId, msg: SubmitMsg) -> Vec<(ClientId, ReplyMsg)> {
        self.capture(|| LogRecord::Submit {
            from: client,
            msg: msg.clone(),
        });
        let _span = self.tracer.guard(Name::StoreServer);
        let out = self.inner.on_submit(client, msg);
        self.tap.logged.fetch_add(1, Ordering::Relaxed);
        self.count(out.len(), false);
        out
    }

    fn on_commit(&mut self, client: ClientId, msg: CommitMsg) -> Vec<(ClientId, ReplyMsg)> {
        self.capture(|| LogRecord::Commit {
            from: client,
            msg: msg.clone(),
        });
        let _span = self.tracer.guard(Name::StoreServer);
        let out = self.inner.on_commit(client, msg);
        self.tap.logged.fetch_add(1, Ordering::Relaxed);
        self.count(out.len(), false);
        out
    }

    fn flush(&mut self, force: bool) -> Vec<(ClientId, ReplyMsg)> {
        let _span = self.tracer.guard(Name::StoreServer);
        let out = self.inner.flush(force);
        self.count(out.len(), true);
        out
    }

    fn flush_deadline(&self) -> Option<Instant> {
        self.inner.flush_deadline()
    }

    fn flush_deadline_at(&self) -> Option<u64> {
        self.inner.flush_deadline_at()
    }

    fn resume_sessions(&mut self) -> Vec<SessionResume> {
        self.inner.resume_sessions()
    }
}

enum InlineTransport {
    Reactor(Timed<ReactorTransport>),
    Queue(Timed<QueueTransport>),
}

impl InlineTransport {
    fn step(
        &mut self,
        engine: &mut ServerEngine,
        tracer: &TracerCell,
        waiting: &mut [usize],
        force_flush: bool,
    ) {
        match self {
            InlineTransport::Reactor(t) => step(engine, t, tracer, waiting, force_flush),
            InlineTransport::Queue(t) => step(engine, t, tracer, waiting, force_flush),
        }
    }
}

enum Running {
    Inline {
        engine: ServerEngine,
        transport: InlineTransport,
    },
    Thread {
        handle: JoinHandle<ServerCounters>,
        task_dir: Option<PathBuf>,
    },
}

/// What one server incarnation counted, as plain numbers.
#[derive(Debug, Clone, Default)]
pub struct ServerCounters {
    pub submits: u64,
    pub commits: u64,
    pub duplicates: u64,
    pub rejected: u64,
    pub batches: u64,
    pub polls: u64,
    pub socket_writes: u64,
    pub frames_out: u64,
    pub logged: u64,
    pub inline_replies: u64,
    pub flush_replies: u64,
    pub releases: u64,
}

impl ServerCounters {
    pub fn add(&mut self, other: &ServerCounters) {
        self.submits += other.submits;
        self.commits += other.commits;
        self.duplicates += other.duplicates;
        self.rejected += other.rejected;
        self.batches += other.batches;
        self.polls += other.polls;
        self.socket_writes += other.socket_writes;
        self.frames_out += other.frames_out;
        self.logged += other.logged;
        self.inline_replies += other.inline_replies;
        self.flush_replies += other.flush_replies;
        self.releases += other.releases;
    }
}

fn counters(
    engine: &ServerEngine,
    reactor: Option<&ReactorTransport>,
    tap: &Tap,
) -> ServerCounters {
    let e = engine.stats();
    let (polls, socket_writes, frames_out) = reactor.map_or((0, 0, 0), |r| {
        let s = r.stats();
        (s.polls, s.socket_writes, s.frames_out)
    });
    ServerCounters {
        submits: e.submits,
        commits: e.commits,
        duplicates: e.duplicates,
        rejected: e.rejected,
        batches: e.batches,
        polls,
        socket_writes,
        frames_out,
        logged: tap.logged.load(Ordering::Relaxed),
        inline_replies: tap.inline_replies.load(Ordering::Relaxed),
        flush_replies: tap.flush_replies.load(Ordering::Relaxed),
        releases: tap.releases.load(Ordering::Relaxed),
    }
}

/// Shapes of the replies a traced pass saw.
#[derive(Debug, Default)]
pub struct ReplyShapes {
    pub bytes: Vec<u64>,
    pub pending: Vec<u64>,
}

/// The system under test plus the clients that drive it.
pub struct Harness {
    cfg: SutConfig,
    backend: PersistentBackend,
    keys: KeySet,
    values: Vec<Value>,
    sessions: Vec<SessionCore>,
    running: Option<Running>,
    socks: Vec<Counted>,
    up: FrameDecoder,
    down: FrameDecoder,
    in_process_bytes: u64,
    epoch: Instant,
    stamps: Vec<[Instant; STAMPS]>,
    submits_this_incarnation: u64,
    completed_this_incarnation: Vec<u64>,
    /// Per client: replies the inline server has sent and the client has
    /// not read yet.
    waiting: Vec<usize>,
    /// While set, inline server steps force the group-commit flush
    /// instead of waiting for a batch to fill (nothing more is coming).
    draining: bool,
    logged_before: u64,
    ops_started: u64,
    tap: Arc<Tap>,
    captured_replies: Vec<ReplyMsg>,
    pub oracle: Oracle,
    /// Spans of the thread that calls [`Harness::run_op`].
    pub tracer: Arc<TracerCell>,
    /// Spans of the `serve` thread; the same tracer in lockstep.
    pub server_tracer: Arc<TracerCell>,
    pub shapes: ReplyShapes,
}

fn io_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

impl Harness {
    pub fn new(
        cfg: SutConfig,
        dir: &Path,
        key_seed: &[u8],
        pool: &[Vec<u8>],
        span_cap: usize,
    ) -> Self {
        let epoch = Instant::now();
        let keys = KeySet::generate(cfg.n, key_seed);
        let faust = FaustConfig {
            // No offline medium and no idle machinery: operations only.
            probe_period: u64::MAX / 2,
            dummy_reads: false,
            commit_mode: if cfg.pipelined() {
                CommitMode::Piggyback
            } else {
                CommitMode::Immediate
            },
            pipeline: cfg.depth,
        };
        let sessions = (0..cfg.n as u32)
            .map(|i| {
                SessionCore::new(FaustClient::new(
                    ClientId::new(i),
                    cfg.n,
                    keys.keypair(i).expect("generated for n clients").clone(),
                    keys.registry(),
                    faust,
                ))
            })
            .collect();
        let tracer = TracerCell::new(epoch, span_cap);
        let server_tracer = if cfg.shipped_serve {
            TracerCell::new(epoch, span_cap)
        } else {
            Arc::clone(&tracer)
        };
        Harness {
            cfg,
            backend: PersistentBackend::new(dir, cfg.store()),
            keys,
            values: pool.iter().map(|bytes| Value::new(bytes.clone())).collect(),
            sessions,
            running: None,
            socks: Vec::new(),
            up: FrameDecoder::new(),
            down: FrameDecoder::new(),
            in_process_bytes: 0,
            epoch,
            stamps: vec![[epoch; STAMPS]; cfg.n],
            submits_this_incarnation: 0,
            completed_this_incarnation: vec![0; cfg.n],
            waiting: vec![0; cfg.n],
            draining: false,
            logged_before: 0,
            ops_started: 0,
            tap: Arc::new(Tap::default()),
            captured_replies: Vec::new(),
            oracle: Oracle::new(cfg.n),
            tracer,
            server_tracer,
            shapes: ReplyShapes::default(),
        }
    }

    pub fn set_tracing(&mut self, on: bool) {
        self.tracer.set_enabled(on);
        self.server_tracer.set_enabled(on);
    }

    /// Bytes that crossed the client side of the link so far, both ways.
    pub fn wire_bytes(&self) -> u64 {
        self.in_process_bytes + self.socks.iter().map(|s| s.read + s.written).sum::<u64>()
    }

    /// The `serve` thread's `/proc` task directory, while it runs.
    pub fn server_task_dir(&self) -> Option<&Path> {
        match &self.running {
            Some(Running::Thread { task_dir, .. }) => task_dir.as_deref(),
            _ => None,
        }
    }

    /// Brings up one server incarnation on whatever the store directory
    /// holds — `ServerBackend::build` (open or recover), transport,
    /// engine — and connects every session, replaying its resend window
    /// as a reconnecting `FaustHandle` does.
    pub fn start(&mut self) -> Result<(), String> {
        assert!(self.running.is_none(), "one incarnation at a time");
        let n = self.cfg.n;
        let server = self
            .backend
            .build(n)
            .map_err(|e| io_err("build server", e))?;
        for counter in [
            &self.tap.logged,
            &self.tap.inline_replies,
            &self.tap.flush_replies,
            &self.tap.releases,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
        let server = Box::new(TimedServer {
            inner: server,
            tracer: Arc::clone(&self.server_tracer),
            tap: Arc::clone(&self.tap),
        });
        self.submits_this_incarnation = 0;
        self.completed_this_incarnation.fill(0);
        self.waiting.fill(0);
        let addr = match self.cfg.link {
            Link::InProcess if self.cfg.shipped_serve => {
                return Err("a serve thread needs sockets".into())
            }
            Link::InProcess => {
                self.running = Some(Running::Inline {
                    engine: ServerEngine::new(n, server),
                    transport: InlineTransport::Queue(Timed {
                        inner: QueueTransport::new(),
                        tracer: Arc::clone(&self.server_tracer),
                    }),
                });
                None
            }
            Link::Sockets => {
                let reactor = ReactorTransport::bind("127.0.0.1:0", n)
                    .map_err(|e| io_err("bind loopback", e))?;
                let addr = reactor.local_addr();
                let mut transport = Timed {
                    inner: reactor,
                    tracer: Arc::clone(&self.server_tracer),
                };
                self.running = Some(if self.cfg.shipped_serve {
                    let tap = Arc::clone(&self.tap);
                    let (tx, rx) = std::sync::mpsc::channel();
                    let handle = std::thread::spawn(move || {
                        let _ = tx.send(procfs::thread_self_dir());
                        let mut engine = ServerEngine::new(n, server);
                        serve(&mut engine, &mut transport);
                        counters(&engine, Some(&transport.inner), &tap)
                    });
                    Running::Thread {
                        handle,
                        task_dir: rx.recv().ok().flatten(),
                    }
                } else {
                    Running::Inline {
                        engine: ServerEngine::new(n, server),
                        transport: InlineTransport::Reactor(transport),
                    }
                });
                Some(addr)
            }
        };
        if let Some(addr) = addr {
            for i in 0..n as u32 {
                let sock = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
                sock.set_nodelay(true).map_err(|e| io_err("nodelay", e))?;
                let mut sock = Counted {
                    sock,
                    read: 0,
                    written: 0,
                };
                write_frame(&mut sock, &ClientId::new(i)).map_err(|e| io_err("hello", e))?;
                self.socks.push(sock);
            }
        }
        for c in 0..n {
            for msg in self.sessions[c].resend_messages() {
                self.send(c, &msg)?;
            }
        }
        Ok(())
    }

    /// Ends the incarnation: completes what is in flight, hands the
    /// server every COMMIT still owed, closes the connections and checks
    /// the engine's own count of what it served.
    pub fn stop(&mut self) -> Result<ServerCounters, String> {
        self.quiesce()?;
        let counters = match self.running.take().expect("stop after start") {
            Running::Inline {
                mut engine,
                mut transport,
            } => {
                // The last COMMITs are still on the link.
                transport.step(&mut engine, &self.tracer, &mut self.waiting, true);
                self.socks.clear();
                let reactor = match &transport {
                    InlineTransport::Reactor(t) => Some(&t.inner),
                    InlineTransport::Queue(_) => None,
                };
                counters(&engine, reactor, &self.tap)
            }
            Running::Thread { handle, .. } => {
                // `serve` returns once every client has come and gone.
                self.socks.clear();
                handle
                    .join()
                    .map_err(|_| "serve thread panicked".to_string())?
            }
        };
        self.logged_before += counters.logged;
        if counters.submits != self.submits_this_incarnation
            || counters.duplicates != 0
            || counters.rejected != 0
        {
            self.oracle.fail(format!(
                "engine served {} submits ({} duplicate, {} rejected), {} were sent",
                counters.submits,
                counters.duplicates,
                counters.rejected,
                self.submits_this_incarnation
            ));
        }
        Ok(counters)
    }

    /// Completes every operation in flight and, with piggybacked
    /// COMMITs, sends the one each idle session still holds.
    pub fn quiesce(&mut self) -> Result<(), String> {
        if !self.cfg.pipelined() {
            return Ok(());
        }
        let mut scratch = Recorder::default();
        self.draining = true;
        let drained = self.complete_all(&mut scratch);
        self.draining = false;
        drained?;
        for c in 0..self.cfg.n {
            if let Some(commit) = self.sessions[c].flush_commit() {
                self.send(c, &commit)?;
            }
        }
        Ok(())
    }

    fn complete_all(&mut self, rec: &mut Recorder) -> Result<(), String> {
        while self.sessions.iter().any(|s| s.backlog() > 0) {
            for c in 0..self.cfg.n {
                if self.sessions[c].backlog() > 0 {
                    self.complete_one(c, rec)?;
                }
            }
        }
        Ok(())
    }

    /// Blocks until every session has completed an operation on this
    /// incarnation (already true in lockstep once each has run one).
    pub fn until_each_completed_one(&mut self, rec: &mut Recorder) -> Result<(), String> {
        for c in 0..self.cfg.n {
            while self.completed_this_incarnation[c] == 0 {
                if self.sessions[c].backlog() == 0 {
                    return Err(format!("client {c} has nothing in flight to complete"));
                }
                self.complete_one(c, rec)?;
            }
        }
        Ok(())
    }

    /// Records the store has logged since the run began. Exact once
    /// nothing is in flight.
    pub fn records_logged(&self) -> u64 {
        self.logged_before + self.tap.logged.load(Ordering::Relaxed)
    }

    fn now_ms(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_millis() as u64
    }

    /// Runs one generated operation: to completion in lockstep; with
    /// pipelines, first completes the client's oldest operation if its
    /// window is full, then submits this one.
    pub fn run_op(&mut self, op: Op, rec: &mut Recorder) -> Result<(), String> {
        let c = op.client;
        self.ops_started += 1;
        self.tracer.begin_op(self.ops_started);
        let tracer = Arc::clone(&self.tracer);
        let _op_span = tracer.guard(Name::Op);
        if self.sessions[c].backlog() >= self.cfg.depth {
            self.complete_one(c, rec)?;
        }
        let user_op = match op.kind {
            OpKind::Write { value } => UserOp::Write(self.values[value].clone()),
            OpKind::Read { target } => UserOp::Read(ClientId::new(target as u32)),
        };
        self.oracle.submitted(&op);
        let at = Instant::now();
        let now = self.now_ms(at);
        let (ticket, out) = self
            .tracer
            .span(Name::CoreSubmit, || self.sessions[c].submit(user_op, now));
        self.stamps[c][ticket.index() as usize % STAMPS] = at;
        for msg in &out.to_server {
            self.send(c, msg)?;
        }
        if !self.cfg.pipelined() {
            self.complete_one(c, rec)?;
        }
        Ok(())
    }

    /// Takes client `c`'s next REPLY off the link (stepping the server
    /// until it has produced one, in lockstep), hands it to the session,
    /// checks the events that come out and sends what the session asks.
    fn complete_one(&mut self, c: usize, rec: &mut Recorder) -> Result<(), String> {
        if let Some(Running::Inline { engine, transport }) = &mut self.running {
            let mut steps = 0;
            while self.waiting[c] == 0 {
                transport.step(engine, &self.tracer, &mut self.waiting, self.draining);
                steps += 1;
                if steps > STEP_LIMIT {
                    return Err(format!("server produced no reply for client {c}"));
                }
            }
            self.waiting[c] -= 1;
        }
        let before = self.tracer.enabled().then(|| self.wire_bytes());
        let reply = self.receive(c)?;
        if let Some(before) = before {
            if self.shapes.bytes.len() < REPLY_SAMPLES {
                self.shapes.bytes.push(self.wire_bytes() - before);
                self.shapes.pending.push(reply.pending.len() as u64);
            }
            if self.captured_replies.len() < CAPTURE {
                self.captured_replies.push(reply.clone());
            }
        }
        let now = self.now_ms(Instant::now());
        let out = self.tracer.span(Name::CoreHandleReply, || {
            self.sessions[c].handle_reply(reply, now)
        });
        {
            let _span = self.tracer.guard(Name::CoreEvents);
            while let Some((_, event)) = self.sessions[c].poll_event() {
                match event {
                    Event::Completed { ticket, completion } => {
                        let took = self.stamps[c][ticket.index() as usize % STAMPS].elapsed();
                        let read = completion
                            .read_value
                            .as_ref()
                            .map(|v| v.as_ref().map(Value::as_bytes));
                        match read {
                            Some(_) => rec.read_ns.push(took.as_nanos() as u64),
                            None => rec.write_ns.push(took.as_nanos() as u64),
                        }
                        self.completed_this_incarnation[c] += 1;
                        self.oracle
                            .completed(c, completion.timestamp, read, &self.values);
                        // The session keeps results until they are taken.
                        self.sessions[c].take_result(ticket);
                    }
                    Event::Stable { cut } => {
                        self.oracle.stable(c, cut.globally_stable_timestamp());
                    }
                    Event::Violation { reason } => {
                        self.oracle.fail(format!("client {c}: violation: {reason}"));
                        return Err(format!("client {c} halted: {reason}"));
                    }
                    other => self
                        .oracle
                        .fail(format!("client {c}: unexpected {other:?}")),
                }
            }
        }
        for msg in &out.to_server {
            self.send(c, msg)?;
        }
        Ok(())
    }

    /// Client `c` → server.
    fn send(&mut self, c: usize, msg: &UstorMsg) -> Result<(), String> {
        if matches!(msg, UstorMsg::Submit(_)) {
            self.submits_this_incarnation += 1;
        }
        match self.cfg.link {
            Link::Sockets => {
                let _span = self.tracer.guard(Name::ClientWrite);
                write_frame(&mut self.socks[c], msg).map_err(|e| io_err("client write", e))
            }
            Link::InProcess => {
                let decoded = {
                    let _span = self.tracer.guard(Name::Codec);
                    let bytes = frame_bytes(msg);
                    self.in_process_bytes += bytes.len() as u64;
                    self.up.extend(&bytes);
                    self.up
                        .next_frame::<UstorMsg>()
                        .map_err(|e| io_err("decode upstream frame", e))?
                        .ok_or("upstream frame incomplete")?
                };
                match &mut self.running {
                    Some(Running::Inline {
                        transport: InlineTransport::Queue(t),
                        ..
                    }) => t.inner.push_incoming(ClientId::new(c as u32), decoded),
                    _ => return Err("in-process link without a queue transport".into()),
                }
                Ok(())
            }
        }
    }

    /// Server → client `c`: the next REPLY.
    fn receive(&mut self, c: usize) -> Result<ReplyMsg, String> {
        let msg = match self.cfg.link {
            Link::Sockets => {
                let _span = self.tracer.guard(Name::ClientRead);
                read_frame::<_, UstorMsg>(&mut self.socks[c])
                    .map_err(|e| io_err("client read", e))?
                    .ok_or("server closed the connection")?
            }
            Link::InProcess => {
                let (to, msg) = match &mut self.running {
                    Some(Running::Inline {
                        transport: InlineTransport::Queue(t),
                        ..
                    }) => t.inner.pop_outgoing().ok_or("no reply queued")?,
                    _ => return Err("in-process link without a queue transport".into()),
                };
                if to.index() != c {
                    return Err(format!("reply for client {} while {c} waits", to.index()));
                }
                let _span = self.tracer.guard(Name::Codec);
                let bytes = frame_bytes(&msg);
                self.in_process_bytes += bytes.len() as u64;
                self.down.extend(&bytes);
                self.down
                    .next_frame::<UstorMsg>()
                    .map_err(|e| io_err("decode downstream frame", e))?
                    .ok_or("downstream frame incomplete")?
            }
        };
        match msg {
            UstorMsg::Reply(reply) => Ok(reply),
            other => Err(format!("server sent a non-reply: {other:?}")),
        }
    }

    /// Takes what a traced pass captured, for [`Kernels::measure`].
    pub fn take_capture(&mut self) -> Capture {
        Capture {
            n: self.cfg.n,
            records: std::mem::take(&mut *self.tap.records.lock().expect("tap lock")),
            replies: std::mem::take(&mut self.captured_replies),
            keys: self.keys.clone(),
            store: self.cfg.store(),
        }
    }
}

/// One round of the shipped serve loop, without its blocking receive:
/// gather what has arrived, process, (when nothing more is coming, force
/// the flush as `serve` does on a closing transport,) drain the outputs
/// per client. Adds the frames sent to each client's `waiting` count.
fn step<T: ServerTransport>(
    engine: &mut ServerEngine,
    transport: &mut T,
    tracer: &TracerCell,
    waiting: &mut [usize],
    force_flush: bool,
) {
    while let Incoming::Msg(from, msg) = transport.try_recv() {
        engine.enqueue(from, msg);
    }
    tracer.span(Name::EngineProcess, || {
        engine.process_all();
        if force_flush {
            engine.flush_server(true);
        }
    });
    while let Some((to, batch)) = tracer.span(Name::EngineOutput, || engine.poll_output_batch()) {
        waiting[to.index()] += batch.len();
        transport.send_batch(to, batch);
    }
}

/// Messages of a traced pass and what is needed to replay them.
pub struct Capture {
    n: usize,
    records: Vec<LogRecord>,
    replies: Vec<ReplyMsg>,
    keys: KeySet,
    store: StoreConfig,
}

/// Single-layer costs, each measured by replaying captured messages
/// through one layer's public entry point, outside the run.
#[derive(Debug, Default, Clone)]
pub struct Kernels {
    pub apply_us_per_op: f64,
    pub wal_append_us_per_record: f64,
    pub recover_us_per_record: f64,
    pub fsync_device_us: f64,
    pub sha256_mb_per_s: f64,
    pub sign_us: f64,
    pub verify_us: f64,
    pub encode_submit_us: f64,
    pub decode_submit_us: f64,
    pub encode_reply_us: f64,
    pub decode_reply_us: f64,
}

/// Best of `rounds` timings of `body`, in microseconds per `per` items:
/// the kernels are short, so a disturbed round is simply dropped.
fn best_us(rounds: usize, per: usize, mut body: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t = Instant::now();
        body();
        best = best.min(t.elapsed().as_secs_f64() * 1e6 / per.max(1) as f64);
    }
    best
}

impl Kernels {
    pub fn measure(capture: &Capture, scratch: &Path, value_len: usize) -> Result<Self, String> {
        use std::hint::black_box;
        let mut k = Kernels::default();
        let n = capture.n;
        let records = &capture.records;
        let submits: Vec<&SubmitMsg> = records
            .iter()
            .filter_map(|r| match r {
                LogRecord::Submit { msg, .. } => Some(msg),
                _ => None,
            })
            .collect();
        if submits.is_empty() || capture.replies.is_empty() {
            return Err("the traced pass captured no messages".into());
        }

        // ustor: Algorithm 2 alone, on a volatile server.
        k.apply_us_per_op = best_us(5, submits.len(), || {
            let mut server = UstorServer::new(n);
            for record in records {
                black_box(record.clone().apply(&mut server));
            }
        });

        // store: append (encode + checksum + write), recovery (scan +
        // checksum + decode + apply), and what one fsync costs here.
        std::fs::create_dir_all(scratch).map_err(|e| io_err("kernel scratch dir", e))?;
        let wal_err = |e| io_err("kernel wal", e);
        k.wal_append_us_per_record = f64::INFINITY;
        for _ in 0..5 {
            let mut wal = Wal::create(scratch, n, 0, false).map_err(wal_err)?;
            let t = Instant::now();
            for record in records {
                wal.append(record, false).map_err(wal_err)?;
            }
            let us = t.elapsed().as_secs_f64() * 1e6 / records.len() as f64;
            k.wal_append_us_per_record = k.wal_append_us_per_record.min(us);
        }
        k.recover_us_per_record = f64::INFINITY;
        for _ in 0..5 {
            let t = Instant::now();
            let server =
                PersistentServer::recover(scratch, n, capture.store.clone()).map_err(wal_err)?;
            let us = t.elapsed().as_secs_f64() * 1e6 / records.len() as f64;
            k.recover_us_per_record = k.recover_us_per_record.min(us);
            drop(server);
        }
        {
            let mut wal = Wal::create(scratch, n, 0, false).map_err(wal_err)?;
            let mut each = Vec::with_capacity(200);
            for record in records.iter().cycle().take(200) {
                wal.append(record, false).map_err(wal_err)?;
                let t = Instant::now();
                wal.sync().map_err(wal_err)?;
                each.push(t.elapsed().as_secs_f64() * 1e6);
            }
            k.fsync_device_us = crate::stats::median(&mut each);
        }
        std::fs::remove_dir_all(scratch).map_err(|e| io_err("remove kernel scratch dir", e))?;

        // crypto: the hash at this workload's value size, one HMAC
        // signature and its verification at SUBMIT-signature size.
        let buf = vec![0xA5u8; value_len];
        let reps = (4 << 20) / value_len.max(1);
        let us_per_hash = best_us(5, reps, || {
            for _ in 0..reps {
                black_box(faust_crypto::sha256(black_box(&buf)));
            }
        });
        k.sha256_mb_per_s = value_len as f64 / us_per_hash;
        let keypair = capture.keys.keypair(0).expect("client 0 has a key");
        let registry = capture.keys.registry();
        let message = [0x5Au8; 21];
        k.sign_us = best_us(5, 2000, || {
            for _ in 0..2000 {
                black_box(keypair.sign(SigContext::Submit, black_box(&message)));
            }
        });
        let sig = keypair.sign(SigContext::Submit, &message);
        k.verify_us = best_us(5, 2000, || {
            for _ in 0..2000 {
                black_box(registry.verify(0, SigContext::Submit, black_box(&message), &sig));
            }
        });

        // types: the codecs on the very messages the run carried.
        let mut out = Vec::new();
        k.encode_submit_us = best_us(5, submits.len(), || {
            for msg in &submits {
                out.clear();
                msg.encode_into(&mut out);
                black_box(&out);
            }
        });
        let encoded: Vec<Vec<u8>> = submits.iter().map(|m| m.encode()).collect();
        k.decode_submit_us = best_us(5, encoded.len(), || {
            for bytes in &encoded {
                black_box(SubmitMsg::decode(bytes).expect("own encoding"));
            }
        });
        k.encode_reply_us = best_us(5, capture.replies.len(), || {
            for msg in &capture.replies {
                out.clear();
                msg.encode_into(&mut out);
                black_box(&out);
            }
        });
        let encoded: Vec<Vec<u8>> = capture.replies.iter().map(|m| m.encode()).collect();
        k.decode_reply_us = best_us(5, encoded.len(), || {
            for bytes in &encoded {
                black_box(ReplyMsg::decode(bytes).expect("own encoding"));
            }
        });
        Ok(k)
    }
}
