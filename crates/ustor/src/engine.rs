//! The transport-agnostic server engine.
//!
//! [`ServerEngine`] wraps any [`Server`] implementation (the correct
//! [`UstorServer`](crate::UstorServer) or a Byzantine adversary) behind a
//! pure enqueue/process/poll interface over `(ClientId, UstorMsg)` pairs:
//!
//! 1. a transport pushes inbound messages with [`ServerEngine::enqueue`];
//! 2. [`ServerEngine::process_all`] runs the protocol handlers in strict
//!    FIFO arrival order — the order that *defines* the schedule of
//!    operations in Algorithm 2;
//! 3. the transport drains the replies, one per-client batch at a time,
//!    with [`ServerEngine::poll_output_batch`].
//!
//! [`ServerEngine::round`] is those steps as one serve round. Because the
//! engine never performs I/O, the same round serves a caller that runs
//! the loop itself (the queue transport) and real TCP clients (the
//! reactor) — the [`serve`] loop works over any [`ServerTransport`], and
//! [`spawn_engine`] runs it on a thread — as well as the server nodes of
//! both simulators, which call the round directly inside virtual time:
//! the USTOR [`Driver`](crate::Driver) runs one closing round per
//! delivery, the FAUST simulator one per delivery and per virtual flush
//! timer.
//!
//! # Sessions
//!
//! The engine keeps one [`Session`] per client: message counters, the last
//! submitted timestamp, the hash of the client's last written value, and
//! the replies a resent SUBMIT may still ask for ([`ReplyCache`]).
//! Sessions are what make ingress verification possible — the DATA
//! signature covers the hash of the *previous* write, which the session
//! tracks — and give operators per-client visibility.
//!
//! # The door
//!
//! [`admits`] judges every message before any session, base, server or
//! log sees it. A refused SUBMIT drops its piggyback and counts as
//! rejected, as one that fails ingress verification does; a refused
//! piggyback alone is dropped and its SUBMIT goes on.
//!
//! # Ingress verification
//!
//! The USTOR protocol needs no server-side checks: every signature is
//! re-verified by clients, and a server that forwards garbage is detected
//! and pinned. A deployed service still wants to reject unauthenticated
//! traffic at the door (resource protection, not correctness). Once
//! [`ServerEngine::with_verification`] hands it a registry, the engine
//! checks each SUBMIT as it processes it, with the same strict
//! [`Verifier::verify`] that clients run — so the engine and the clients
//! can never disagree about a signature.
//!
//! The hash `x̄` of a written value is computed once, just before its
//! SUBMIT is verified, and only with verification on — nothing else
//! reads it.
//!
//! Note on the trust model (`docs/trust-model.md` has the full story):
//! which keys stand behind the registry decides whether ingress
//! verification is *sound* in the paper's Byzantine-server setting. An
//! Ed25519 registry
//! ([`KeySet::generate_ed25519`](faust_crypto::KeySet::generate_ed25519))
//! holds public keys only — handing it to the server grants no forging
//! power, so rejection at the door is sound. An HMAC registry holds the
//! shared signing secrets
//! ([`VerifierRegistry::try_forge`](faust_crypto::VerifierRegistry::try_forge)
//! demonstrates the forgery), so HMAC-backed ingress verification is a
//! benchmarking/closed-deployment device only.

use crate::reply_cache::ReplyCache;
use crate::server::{admits, Server};
use faust_crypto::sha256::sha256;
use faust_crypto::sig::{SigContext, Verifier, VerifierRegistry};
use faust_crypto::Digest;
use faust_net::{Incoming, ServerTransport};
use faust_types::op::{data_signing_bytes, submit_signing_bytes};
use faust_types::{
    ClientId, CommitMsg, InvocationTuple, OpKind, ReplyMsg, SignedVersion, SubmitMsg, Timestamp,
    UstorMsg, Value,
};
use std::borrow::Cow;
use std::collections::VecDeque;

/// Per-client connection/protocol state tracked by the engine.
#[derive(Debug, Clone, Default)]
pub struct Session {
    /// SUBMIT messages accepted from this client.
    pub submits: u64,
    /// COMMIT messages accepted from this client (piggybacked commits
    /// count here too).
    pub commits: u64,
    /// Messages refused from this client: by the door ([`admits`]: a
    /// SUBMIT naming a register outside the deployment, a COMMIT of
    /// another arity), by ingress verification, and delta COMMITs with no
    /// cached REPLY to resolve against.
    pub rejected: u64,
    /// Timestamp of the last accepted SUBMIT (0 before the first).
    pub last_timestamp: Timestamp,
    /// Hash of the client's most recently written value (`x̄` as the
    /// server can reconstruct it); `None` before the first write.
    ///
    /// Maintained only under ingress verification, its one reader:
    /// without [`ServerEngine::with_verification`] no value is hashed —
    /// not a write's, not the one recovery handed over — and this stays
    /// `None`.
    pub last_value_hash: Option<Digest>,
    /// The last written value as recovery found it, until
    /// [`ServerEngine::with_verification`] turns it into
    /// `last_value_hash` or the client's next write supersedes it.
    resumed_value: Option<Value>,
    /// Resent SUBMITs recognised as duplicates (answered from the reply
    /// cache, never re-run through the protocol server), and delta
    /// COMMITs arriving after their COMMIT was acknowledged and their
    /// base evicted (dropped).
    pub duplicates: u64,
    /// The duplicate-replay cache: it answers a resend with the reply
    /// of an operation this client has not committed, or else with the
    /// newest reply ([`ReplyCache`] has the rule). A cached reply was
    /// already released once, so re-issuing it bypasses group-commit
    /// holds safely: its record is durable.
    replies: ReplyCache,
}

impl Session {
    /// The duplicate-replay cache (see the field docs).
    pub fn replies(&self) -> &ReplyCache {
        &self.replies
    }
}

/// What each client's current connection already carried: the bases a
/// reply to it is sent against ([`ReplyMsg::leave_out`]), captured when
/// the client's SUBMIT is accepted and named when its reply is released.
/// The methods are the events that move them (`docs/networking.md` has
/// the table).
#[derive(Debug)]
struct ConnBases {
    clients: Vec<ClientBases>,
    /// Per register `j`: the value last sent for `j` to each client that
    /// holds one, in no order. A write to `j` empties the list, so no base
    /// outlives the value `MEM[j]` held; it holds clones of the values the
    /// server built, whose bytes the engine never copies, hashes or
    /// compares.
    values: Vec<Vec<SentValue>>,
    /// Per register: writes to it forwarded to the server.
    writes: Vec<u64>,
}

/// One client's bases (see [`ConnBases`]).
#[derive(Debug, Clone, Default)]
struct ClientBases {
    /// `L` of the last reply released to the client, in full.
    pending: Vec<InvocationTuple>,
    /// The last COMMIT accepted from the client — standalone, resolved
    /// from a delta, or piggybacked.
    commit: Option<CommitBase>,
    /// Accepted SUBMITs whose replies have not been released, oldest
    /// first. A correct server answers SUBMITs FIFO per client, which is
    /// what lets the engine tag each released reply with the timestamp
    /// it answered, and send it against what its SUBMIT found even when
    /// group commit holds it back.
    awaiting: VecDeque<Awaiting>,
}

/// A client's COMMIT as the base of a reply's `SVER[c]`: its version and
/// COMMIT-signature, and `t`, its own entry, which names it. The version
/// shares the COMMIT's allocation, as the server's `SVER[c]` does.
#[derive(Debug, Clone)]
struct CommitBase {
    t: Timestamp,
    commit: SignedVersion,
}

/// An accepted SUBMIT whose reply has not been released, with the bases
/// its reply is sent against that are fixed when the SUBMIT arrives.
#[derive(Debug, Clone)]
struct Awaiting {
    /// The SUBMIT's timestamp.
    t: Timestamp,
    /// The client's last COMMIT when the SUBMIT arrived.
    commit: Option<CommitBase>,
    /// For a read: the register, and the writes to it forwarded by then.
    read: Option<(usize, u64)>,
}

/// The value the engine last sent client `to` for a register, and `t`,
/// the timestamp of the read whose reply delivered it, which names it.
#[derive(Debug, Clone)]
struct SentValue {
    to: ClientId,
    t: Timestamp,
    value: Value,
}

/// An event that breaks what a client's connection shares with the
/// engine: a row of [`ConnBases::reset`]'s table.
#[derive(Debug, Clone, Copy)]
enum Reset {
    /// A new connection: the process on its other end may hold nothing
    /// that went out on an earlier one.
    Connection,
    /// A reply replayed from the cache, in full: the client processes it
    /// like any other, so the values it holds move.
    Replay,
    /// A COMMIT the client sent and the engine did not accept: the client
    /// holds it as its newest, so no later reply may name an older one.
    CommitDropped,
}

impl ConnBases {
    fn new(n: usize) -> Self {
        ConnBases {
            clients: vec![ClientBases::default(); n],
            values: vec![Vec::new(); n],
            writes: vec![0; n],
        }
    }

    /// Empties what `event` breaks of `client`'s bases.
    fn reset(&mut self, client: ClientId, event: Reset) {
        let bases = &mut self.clients[client.index()];
        // `L`, the last COMMIT, the COMMITs awaiting replies go against,
        // and the values.
        let (pending, commit, awaited, values) = match event {
            Reset::Connection => (true, true, true, true),
            Reset::Replay => (false, false, false, true),
            Reset::CommitDropped => (false, true, false, false),
        };
        if pending {
            bases.pending.clear();
        }
        if commit {
            bases.commit = None;
        }
        if awaited {
            bases.awaiting.iter_mut().for_each(|a| a.commit = None);
        }
        if values {
            for row in &mut self.values {
                row.retain(|sent| sent.to != client);
            }
        }
    }

    /// A COMMIT accepted from `from`, of arity `n`, becomes the base of
    /// the replies to its next SUBMITs: one shared allocation with the
    /// COMMIT, which the server keeps as `SVER[from]`, so nothing is
    /// copied.
    fn committed(&mut self, from: ClientId, commit: &CommitMsg) {
        let t = commit.version.v().get(from);
        let (version, sig) = (commit.version.clone(), Some(commit.commit_sig));
        let commit = SignedVersion { version, sig };
        self.clients[from.index()].commit = Some(CommitBase { t, commit });
    }

    /// A SUBMIT accepted from `from`: its reply goes against the bases
    /// that stand now. A write overwrites `MEM[from]`, so no base may
    /// keep the old value alive.
    fn submitted(&mut self, from: ClientId, submit: &SubmitMsg) {
        let (i, j) = (from.index(), submit.tuple.register.index());
        let read = match submit.tuple.kind {
            OpKind::Read => Some((j, self.writes[j])),
            OpKind::Write => {
                self.writes[i] += 1;
                self.values[i].clear();
                None
            }
        };
        let bases = &mut self.clients[i];
        let (t, commit) = (submit.timestamp, bases.commit.clone());
        bases.awaiting.push_back(Awaiting { t, commit, read });
    }

    /// A reply released to `to`: handed to `cache` in full with the
    /// timestamp of the SUBMIT it answers, then sent with what `to`'s
    /// connection carried left out, the bases moving to what `to` holds
    /// once it has processed it. The client processes its replies in
    /// release order — a lost one comes back in full from the cache when
    /// its SUBMIT is resent — so it holds them when the next one arrives.
    ///
    /// A read's value base becomes what its reply carried, the value or
    /// `⊥`; unless a write to its register came after its SUBMIT, so that
    /// a reply held by group commit keeps no overwritten value alive. A
    /// reply no SUBMIT awaits (a Byzantine server broadcasting) goes
    /// uncached, with only a kept tail of `L` left out: the client folds
    /// its `L` like any other.
    fn released(
        &mut self,
        to: ClientId,
        reply: &mut ReplyMsg,
        cache: impl FnOnce(Timestamp, &ReplyMsg),
    ) {
        let bases = &mut self.clients[to.index()];
        let awaiting = bases.awaiting.pop_front();
        let Some(Awaiting { t, commit, read }) = awaiting else {
            return reply.leave_out(&mut bases.pending, None, None);
        };
        cache(t, reply);
        let commit = commit.as_ref().map(|base| (base.t, &base.commit));
        let Some((j, writes)) = read else {
            return reply.leave_out(&mut bases.pending, commit, None);
        };
        let (row, live) = (&mut self.values[j], self.writes[j] == writes);
        let at = row.iter().position(|sent| sent.to == to);
        let held = at.filter(|_| live).map(|at| (row[at].t, &row[at].value));
        reply.leave_out(&mut bases.pending, commit, held);
        let value = match (reply.left_out.value, at) {
            (Some(_), Some(at)) => Some(row[at].value.clone()),
            _ if live => reply.read.as_ref().and_then(|read| read.mem_value.clone()),
            _ => None,
        };
        if let Some(at) = at {
            row.swap_remove(at);
        }
        if let Some(value) = value {
            row.push(SentValue { to, t, value });
        }
    }
}

/// Aggregate engine counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// SUBMITs forwarded to the protocol server.
    pub submits: u64,
    /// COMMITs forwarded to the protocol server.
    pub commits: u64,
    /// Resent SUBMITs answered from the reply cache instead of being
    /// re-run (exactly-once ingress), and delta COMMITs dropped as late
    /// duplicates.
    pub duplicates: u64,
    /// Messages refused: every [`Session::rejected`], and each message
    /// from a sender outside the deployment, which has no session.
    pub rejected: u64,
    /// Client messages of a kind only the server sends (ignored).
    pub nonsense: u64,
    /// Number of `process_all` rounds that processed at least one message.
    pub batches: u64,
    /// Largest number of messages processed in one round.
    pub max_batch: usize,
    /// Outbound messages handed to the transport.
    pub frames_out: u64,
    /// Transport hand-offs (one per [`ServerEngine::poll_output_batch`]
    /// *batch*). With a coalescing transport this is the number of socket
    /// writes, so `flushes < frames_out` is the measurable proof that
    /// egress batching works.
    pub flushes: u64,
    /// Largest per-client egress batch drained in one hand-off.
    pub max_egress_batch: usize,
}

/// The transport-agnostic server engine. See the module docs.
pub struct ServerEngine {
    n: usize,
    server: Box<dyn Server + Send>,
    sessions: Vec<Session>,
    inbox: VecDeque<(ClientId, UstorMsg)>,
    outbox: VecDeque<(ClientId, UstorMsg)>,
    /// Per-client egress batches grouped out of the outbox by the last
    /// [`ServerEngine::poll_output_batch`] pass, in first-seen client
    /// order; always older than anything still in `outbox`.
    staged: VecDeque<(ClientId, Vec<UstorMsg>)>,
    /// Ingress verification keys; `None` (the paper's model, and the
    /// default) forwards everything.
    verifier: Option<VerifierRegistry>,
    stats: EngineStats,
    /// What each client's current connection already carried.
    bases: ConnBases,
}

impl std::fmt::Debug for ServerEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerEngine")
            .field("n", &self.n)
            .field("verifier", &self.verifier)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl ServerEngine {
    /// Creates an engine for `n` clients around `server`, with ingress
    /// verification off. Sessions are seeded from
    /// [`Server::resume_sessions`], so a recovered persistent server
    /// still recognises resent SUBMITs as duplicates and verifies reads
    /// against the right value hash.
    pub fn new(n: usize, mut server: Box<dyn Server + Send>) -> Self {
        let mut sessions = vec![Session::default(); n];
        for (session, resume) in sessions.iter_mut().zip(server.resume_sessions()) {
            session.last_timestamp = resume.last_timestamp;
            session.resumed_value = resume.last_value;
            session.replies = resume.replies.into_iter().collect();
        }
        ServerEngine {
            n,
            server,
            sessions,
            inbox: VecDeque::new(),
            outbox: VecDeque::new(),
            staged: VecDeque::new(),
            verifier: None,
            stats: EngineStats::default(),
            bases: ConnBases::new(n),
        }
    }

    /// Creates an engine whose server comes from `backend` — the hook
    /// through which every runtime (simulator, threaded, TCP) chooses
    /// between volatile and persistent server state.
    ///
    /// # Errors
    ///
    /// Propagates the backend's build/recovery error.
    pub fn from_backend(
        n: usize,
        backend: &(dyn crate::server::ServerBackend + Send),
    ) -> std::io::Result<Self> {
        Ok(ServerEngine::new(n, backend.build(n)?))
    }

    /// Switches ingress verification on (builder style): every SUBMIT
    /// is checked against `registry` as it is processed, and one that
    /// fails is dropped. This is also where the values recovery handed
    /// over are hashed — a recovered server that never verifies never
    /// pays for that.
    pub fn with_verification(mut self, registry: VerifierRegistry) -> Self {
        for session in &mut self.sessions {
            if let Some(value) = session.resumed_value.take() {
                session.last_value_hash = Some(value_hash(&value));
            }
        }
        self.verifier = Some(registry);
        self
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.n
    }

    /// The session state of `client`.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub fn session(&self, client: ClientId) -> &Session {
        &self.sessions[client.index()]
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Notes that `client`'s connection ended, so no later reply to it is
    /// sent against anything that went out on it. [`serve`] calls it for
    /// every client when its transport closes; an embedder that moves a
    /// client to a new link (the simulator) calls it before processing
    /// anything that arrived there.
    pub fn connected(&mut self, client: ClientId) {
        self.bases.reset(client, Reset::Connection);
    }

    /// Queues one inbound message. No processing happens until
    /// [`ServerEngine::process_all`].
    pub fn enqueue(&mut self, from: ClientId, msg: UstorMsg) {
        self.inbox.push_back((from, msg));
    }

    /// Removes the next per-client egress batch: every outbound message
    /// addressed to the recipient of the oldest queued message
    /// (per-client FIFO order is preserved; messages to *different*
    /// clients carry no ordering guarantee — they travel on separate
    /// connections anyway).
    ///
    /// The first call after a round groups the whole outbox per client
    /// in one pass; subsequent calls pop the staged batches, so a full
    /// drain is `O(frames)` regardless of how many clients it touches.
    ///
    /// Serve loops feed each batch to [`ServerTransport::send_batch`],
    /// which the reactor coalesces into one socket write — egress
    /// syscalls then scale with clients touched per round, not frames.
    pub fn poll_output_batch(&mut self) -> Option<(ClientId, Vec<UstorMsg>)> {
        if self.staged.is_empty() && !self.outbox.is_empty() {
            let mut index: std::collections::HashMap<ClientId, usize> =
                std::collections::HashMap::new();
            for (to, msg) in self.outbox.drain(..) {
                match index.get(&to) {
                    Some(&slot) => self.staged[slot].1.push(msg),
                    None => {
                        index.insert(to, self.staged.len());
                        self.staged.push_back((to, vec![msg]));
                    }
                }
            }
        }
        let (to, batch) = self.staged.pop_front()?;
        self.stats.frames_out += batch.len() as u64;
        self.stats.flushes += 1;
        self.stats.max_egress_batch = self.stats.max_egress_batch.max(batch.len());
        Some((to, batch))
    }

    /// Offers the server a durability flush point and queues whatever
    /// replies it releases. `force` overrides the server's batching
    /// policy (used when a transport closes, so held replies are never
    /// stranded).
    pub fn flush_server(&mut self, force: bool) {
        for (to, reply) in self.server.flush(force) {
            self.release_reply(to, reply);
        }
    }

    /// The one funnel every fresh reply passes through: cached in full
    /// under the SUBMIT timestamp it answers (per-client FIFO) for
    /// duplicate replay, and queued for the transport with what the
    /// client's connection already carried left out
    /// ([`ConnBases::released`]). A [`Server`] chooses where replies go,
    /// so this is the one recipient the engine checks.
    fn release_reply(&mut self, to: ClientId, mut reply: ReplyMsg) {
        if let Some(session) = self.sessions.get_mut(to.index()) {
            let cache = |t, full: &ReplyMsg| session.replies.push(t, Cow::Borrowed(full));
            self.bases.released(to, &mut reply, cache);
        }
        self.outbox.push_back((to, UstorMsg::Reply(reply)));
    }

    /// When the server must next be flushed even without new traffic
    /// (`None` while nothing is held) — see [`Server::flush_deadline`].
    pub fn flush_deadline(&self) -> Option<std::time::Instant> {
        self.server.flush_deadline()
    }

    /// Virtual-time twin of [`ServerEngine::flush_deadline`], for servers
    /// driven by a simulation clock — see [`Server::flush_deadline_at`].
    pub fn flush_deadline_at(&self) -> Option<u64> {
        self.server.flush_deadline_at()
    }

    /// Processes every queued message in FIFO order, then offers the
    /// server a (non-forced) durability flush point — one processing
    /// round is the natural group-commit batch.
    pub fn process_all(&mut self) {
        if !self.inbox.is_empty() {
            self.stats.batches += 1;
            self.stats.max_batch = self.stats.max_batch.max(self.inbox.len());
            while let Some((from, msg)) = self.inbox.pop_front() {
                self.process_one(from, msg);
            }
        }
        self.flush_server(false);
    }

    /// One serve round over whatever is queued:
    /// [`ServerEngine::process_all`], then a forced flush when `closing`
    /// (held replies are never stranded behind a closing transport or a
    /// dying connection), then every per-client egress batch
    /// ([`ServerEngine::poll_output_batch`]) handed to `sink`.
    ///
    /// [`serve`] runs one round per gathered batch of ingress; the FAUST
    /// simulator's server node runs one per delivery, per virtual flush
    /// timer, and per connection kill; the USTOR
    /// [`Driver`](crate::Driver) runs one closing round per delivery.
    pub fn round(&mut self, closing: bool, mut sink: impl FnMut(ClientId, Vec<UstorMsg>)) {
        self.process_all();
        if closing {
            self.flush_server(true);
        }
        while let Some((to, batch)) = self.poll_output_batch() {
            sink(to, batch);
        }
    }

    /// Whether ingress verification admits `submit` from `from` — always,
    /// with verification off. `write_hash` is `x̄` of the value `submit`
    /// writes.
    fn verify_one(&self, from: ClientId, submit: &SubmitMsg, write_hash: Option<Digest>) -> bool {
        let Some(verifier) = &self.verifier else {
            return true;
        };
        let submit_ok = verifier.verify(
            from.as_u32(),
            SigContext::Submit,
            &submit_signing_bytes(submit.tuple.kind, submit.tuple.register, submit.timestamp),
            &submit.tuple.sig,
        );
        if !submit_ok {
            return false;
        }
        let session = &self.sessions[from.index()];
        let duplicate = session.last_timestamp > 0 && submit.timestamp <= session.last_timestamp;
        let xbar = match submit.tuple.kind {
            // A write's DATA signature covers its *own* value hash, so it
            // stays checkable even on a resend — which is what catches a
            // replayed SUBMIT whose value was swapped.
            OpKind::Write => write_hash,
            // A resent read's DATA signature covers the value hash as of
            // its original submission, which the session has since moved
            // past; it is answered from the reply cache without touching
            // state, so the SUBMIT signature alone gates it.
            OpKind::Read if duplicate => return true,
            OpKind::Read => session.last_value_hash,
        };
        verifier.verify(
            from.as_u32(),
            SigContext::Data,
            &data_signing_bytes(submit.timestamp, xbar),
            &submit.data_sig,
        )
    }

    /// Counts a message refused from `from`, which leaves the client
    /// holding a newer COMMIT than the engine's if it carried one.
    fn reject(&mut self, from: ClientId, carried_commit: bool) {
        self.stats.rejected += 1;
        self.sessions[from.index()].rejected += 1;
        if carried_commit {
            self.bases.reset(from, Reset::CommitDropped);
        }
    }

    /// Processes one message, through the door ([`admits`]) first. A
    /// sender outside the deployment has no session to count it in.
    fn process_one(&mut self, from: ClientId, msg: UstorMsg) {
        if !admits(self.n, from, None, None) {
            self.stats.rejected += 1;
            return;
        }
        match msg {
            UstorMsg::Submit(mut submit) => {
                // `x̄` of a write, only when ingress verification checks
                // signatures over it.
                let xbar = match (&self.verifier, &submit.value) {
                    (Some(_), Some(value)) if submit.tuple.kind == OpKind::Write => {
                        Some(value_hash(value))
                    }
                    _ => None,
                };
                if !admits(self.n, from, Some(&submit.tuple), None)
                    || !self.verify_one(from, &submit, xbar)
                {
                    return self.reject(from, submit.piggyback.is_some());
                }
                // Idempotent ingress: a SUBMIT whose timestamp the
                // session has already accepted is a resend (the client's
                // reply was lost with its connection). Re-running it
                // through the protocol server would double-apply the
                // piggybacked COMMIT and append a second tuple to `L`;
                // instead, re-issue the original reply byte-identically
                // from the cache. A cached reply was already released
                // once — under group commit that means its record is
                // durable — so immediate release is safe. With no exact
                // cache hit (a client resending an operation it already
                // committed, i.e. resuming from stale state) the *newest*
                // cached reply is sent as frontier evidence: its content
                // cannot validate against the stale op, which surfaces as
                // `StaleClientState` at the client instead of a silent
                // hang.
                let session = &mut self.sessions[from.index()];
                if session.last_timestamp > 0 && submit.timestamp <= session.last_timestamp {
                    session.duplicates += 1;
                    self.stats.duplicates += 1;
                    if submit.piggyback.is_some() {
                        self.bases.reset(from, Reset::CommitDropped);
                    }
                    if let Some(reply) = session.replies.lookup(submit.timestamp).cloned() {
                        self.outbox.push_back((from, UstorMsg::Reply(reply)));
                        self.bases.reset(from, Reset::Replay);
                    }
                    return;
                }
                if submit
                    .piggyback
                    .take_if(|c| !admits(self.n, from, None, Some(c)))
                    .is_some()
                {
                    self.reject(from, true);
                }
                let session = &mut self.sessions[from.index()];
                session.submits += 1;
                session.last_timestamp = submit.timestamp;
                if submit.tuple.kind == OpKind::Write {
                    session.resumed_value = None;
                    session.last_value_hash = xbar;
                }
                if let Some(commit) = &submit.piggyback {
                    session.commits += 1;
                    session
                        .replies
                        .committed(ReplyCache::acknowledged(from, commit));
                    self.bases.committed(from, commit);
                }
                self.bases.submitted(from, &submit);
                self.stats.submits += 1;
                for (rcpt, reply) in self.server.on_submit(from, submit) {
                    self.release_reply(rcpt, reply);
                }
            }
            UstorMsg::Commit(commit) => self.process_commit(from, commit),
            // A delta becomes the full COMMIT here, against the cached
            // REPLY it answers — found by exact timestamp — so nothing
            // past this arm (server, store, log, audit) ever sees one. An
            // honest client sends it right after that REPLY, on the same
            // connection, so the base is cached; a delta without one is a
            // duplicate if its COMMIT was already acknowledged, and
            // rejected otherwise.
            UstorMsg::CommitDelta(delta) => {
                let session = &mut self.sessions[from.index()];
                let Some(own) = delta.version.get(from) else {
                    return self.reject(from, true);
                };
                match session.replies.get(own.timestamp) {
                    Some(reply) => match delta.resolve(&reply.commit_version.version) {
                        Ok(commit) => self.process_commit(from, commit),
                        Err(_) => self.reject(from, true),
                    },
                    None if own.timestamp <= session.replies.last_acknowledged() => {
                        session.duplicates += 1;
                        self.stats.duplicates += 1;
                        self.bases.reset(from, Reset::CommitDropped);
                    }
                    None => self.reject(from, true),
                }
            }
            // Clients never legitimately send REPLY; ignore quietly.
            UstorMsg::Reply(_) => {
                self.stats.nonsense += 1;
            }
        }
    }

    fn process_commit(&mut self, from: ClientId, commit: CommitMsg) {
        if !admits(self.n, from, None, Some(&commit)) {
            return self.reject(from, true);
        }
        let session = &mut self.sessions[from.index()];
        session.commits += 1;
        session
            .replies
            .committed(ReplyCache::acknowledged(from, &commit));
        self.bases.committed(from, &commit);
        self.stats.commits += 1;
        for (rcpt, reply) in self.server.on_commit(from, commit) {
            self.release_reply(rcpt, reply);
        }
    }
}

/// `x̄` of `value`: the one place the engine hashes a value, run only
/// under ingress verification, whose DATA-signatures cover it. Whether a
/// read value goes as a name is decided by allocation, never by hashing
/// or comparing bytes (CI counts the calls to `sha256`).
fn value_hash(value: &Value) -> Digest {
    sha256(value.as_bytes())
}

/// Runs an engine over a transport until the transport closes (blocking
/// transports) or drains ([`Incoming::Idle`], deterministic transports).
/// A transport's end is the end of every connection it carried, so a
/// close ends with [`ServerEngine::connected`] for every client; a drain
/// does not, and the next call carries on where this one stopped.
///
/// Each round greedily gathers every message already available before
/// processing, so group-commit fsyncs see real batches under load while
/// an idle connection still gets per-message latency. While the server holds replies back for
/// durability ([`crate::Server::flush_deadline`]), the loop waits with
/// [`ServerTransport::recv_deadline`] instead of blocking indefinitely,
/// and forces a final flush when the transport closes — an acknowledged
/// reply is never stranded behind a parked `recv`.
///
/// Each round is one [`ServerEngine::round`]: outputs are drained **per
/// client as frame batches** into [`ServerTransport::send_batch`], so a
/// coalescing transport issues one write per client per round.
pub fn serve<T: ServerTransport>(engine: &mut ServerEngine, transport: &mut T) {
    loop {
        // Block (or observe Idle) for the first message of the round —
        // bounded by the flush deadline while replies are held back.
        let first = match engine.flush_deadline() {
            Some(deadline) => transport.recv_deadline(deadline),
            None => transport.recv(),
        };
        let mut end = match first {
            Incoming::Msg(from, msg) => {
                engine.enqueue(from, msg);
                None
            }
            Incoming::TimedOut => None, // flush is due; fall through
            end => Some(end),
        };
        // Gather whatever else has already arrived.
        while end.is_none() {
            match transport.try_recv() {
                Incoming::Msg(from, msg) => engine.enqueue(from, msg),
                Incoming::Idle | Incoming::TimedOut => break,
                closed => end = Some(closed),
            }
        }
        // A closing round is the last chance to release held replies.
        engine.round(end.is_some(), |to, batch| transport.send_batch(to, batch));
        if let Some(Incoming::Closed) = end {
            (0..engine.n).for_each(|i| engine.connected(ClientId::new(i as u32)));
        }
        if end.is_some() {
            return;
        }
    }
}

/// Runs [`serve`] on a thread of its own; joining yields the engine's
/// final statistics. The transport is dropped with the thread, so a
/// socket transport's connections close once the loop returns.
pub fn spawn_engine<T>(
    mut engine: ServerEngine,
    mut transport: T,
) -> std::thread::JoinHandle<EngineStats>
where
    T: ServerTransport + Send + 'static,
{
    std::thread::spawn(move || {
        serve(&mut engine, &mut transport);
        engine.stats().clone()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::UstorClient;
    use crate::server::{SessionResume, UstorServer};
    use faust_crypto::sig::KeySet;
    use faust_types::Value;
    use std::sync::Arc;

    /// `n` clients and an engine, with ingress verification on iff
    /// `verify`.
    fn setup(n: usize, verify: bool) -> (ServerEngine, Vec<UstorClient>) {
        let keys = KeySet::generate(n, b"engine-tests");
        let clients = (0..n)
            .map(|i| {
                UstorClient::new(
                    ClientId::new(i as u32),
                    n,
                    keys.keypair(i as u32).unwrap().clone(),
                    keys.registry(),
                )
            })
            .collect();
        let mut engine = ServerEngine::new(n, Box::new(UstorServer::new(n)));
        if verify {
            engine = engine.with_verification(keys.registry());
        }
        (engine, clients)
    }

    /// Every reply queued so far, drained as serve loops drain them (one
    /// per-client batch at a time) and flattened in order.
    fn replies(engine: &mut ServerEngine) -> Vec<(ClientId, ReplyMsg)> {
        let mut out = Vec::new();
        while let Some((to, batch)) = engine.poll_output_batch() {
            for msg in batch {
                let UstorMsg::Reply(reply) = msg else {
                    panic!("the engine sends only replies");
                };
                out.push((to, reply));
            }
        }
        out
    }

    /// The one reply queued so far.
    fn one_reply(engine: &mut ServerEngine) -> (ClientId, ReplyMsg) {
        let [reply]: [_; 1] = replies(engine).try_into().expect("exactly one reply");
        reply
    }

    /// Runs one full op through the engine, asserting the reply routes
    /// back to the submitter.
    fn run_op(engine: &mut ServerEngine, client: &mut UstorClient, submit: faust_types::SubmitMsg) {
        let id = client.id();
        engine.enqueue(id, UstorMsg::Submit(submit));
        engine.process_all();
        let (to, reply) = one_reply(engine);
        assert_eq!(to, id);
        let (commit, _) = client.handle_reply(reply).expect("correct server");
        engine.enqueue(id, UstorMsg::Commit(commit.expect("immediate mode")));
        engine.process_all();
        assert!(replies(engine).is_empty(), "commit produces no reply");
    }

    #[test]
    fn engine_matches_direct_server_behavior() {
        let (mut engine, mut clients) = setup(2, false);
        let submit = clients[0].begin_write(Value::from("v1")).unwrap();
        run_op(&mut engine, &mut clients[0], submit);
        let submit = clients[1].begin_read(ClientId::new(0)).unwrap();
        run_op(&mut engine, &mut clients[1], submit);
        assert_eq!(engine.stats().submits, 2);
        assert_eq!(engine.stats().commits, 2);
        assert_eq!(engine.session(ClientId::new(0)).last_timestamp, 1);
    }

    #[test]
    fn honest_traffic_passes_ingress_verification() {
        let (mut engine, mut clients) = setup(3, true);
        // Writes then cross-reads, including a read of an unwritten
        // register (x̄ = ⊥ for the never-written client 2).
        let submit = clients[0].begin_write(Value::from("a")).unwrap();
        run_op(&mut engine, &mut clients[0], submit);
        let submit = clients[0].begin_read(ClientId::new(2)).unwrap();
        run_op(&mut engine, &mut clients[0], submit);
        let submit = clients[2].begin_read(ClientId::new(0)).unwrap();
        run_op(&mut engine, &mut clients[2], submit);
        assert_eq!(engine.stats().rejected, 0);
    }

    #[test]
    fn a_read_verifies_against_a_write_committed_in_the_same_round() {
        // A write's COMMIT and the same client's next read processed in
        // the SAME round: the read's DATA signature covers the new
        // value's hash, which the session holds once the write is in.
        let (mut engine, mut clients) = setup(2, true);
        let w = clients[0].begin_write(Value::from("fresh")).unwrap();
        engine.enqueue(ClientId::new(0), UstorMsg::Submit(w));
        engine.process_all();
        let (_, reply) = one_reply(&mut engine);
        let (commit, _) = clients[0].handle_reply(reply).unwrap();
        // Queue the commit AND the next read together.
        engine.enqueue(ClientId::new(0), UstorMsg::Commit(commit.unwrap()));
        let r = clients[0].begin_read(ClientId::new(0)).unwrap();
        engine.enqueue(ClientId::new(0), UstorMsg::Submit(r));
        engine.process_all();
        assert_eq!(engine.stats().rejected, 0);
        let (_, reply) = one_reply(&mut engine);
        let (_, done) = clients[0].handle_reply(reply).unwrap();
        assert_eq!(done.read_value, Some(Some(Value::from("fresh"))));
    }

    #[test]
    fn forged_submits_are_rejected() {
        let (mut engine, mut clients) = setup(2, true);
        // A genuine submit, tampered three ways.
        let good = clients[0].begin_write(Value::from("v")).unwrap();
        let mut wrong_sig = good.clone();
        wrong_sig.tuple.sig = faust_crypto::Signature::garbage();
        let mut wrong_value = good.clone();
        wrong_value.value = Some(Value::from("swapped")); // DATA sig mismatch
        let mut spoofed = good.clone();
        spoofed.tuple.client = ClientId::new(1); // from ≠ tuple.client
        engine.enqueue(ClientId::new(0), UstorMsg::Submit(wrong_sig));
        engine.enqueue(ClientId::new(0), UstorMsg::Submit(wrong_value));
        engine.enqueue(ClientId::new(0), UstorMsg::Submit(spoofed));
        engine.enqueue(ClientId::new(0), UstorMsg::Submit(good));
        engine.process_all();
        assert_eq!(engine.stats().rejected, 3);
        assert_eq!(engine.stats().submits, 1);
        // Only the genuine submit got a reply.
        assert_eq!(replies(&mut engine).len(), 1);
    }

    #[test]
    fn rejected_write_does_not_poison_a_queued_honest_read() {
        // A forged write queued before the same client's genuine read, in
        // ONE round: the write must be rejected and the read accepted
        // against the client's *previous* value hash. (Advancing the
        // session hash for an unverified write would reject the honest
        // read here.)
        let (mut engine, mut clients) = setup(2, true);
        // Establish a committed write so the client has a value hash.
        let w = clients[0].begin_write(Value::from("genuine")).unwrap();
        run_op(&mut engine, &mut clients[0], w);
        // The client's genuine next read, signed over hash("genuine").
        let honest = clients[0].begin_read(ClientId::new(0)).unwrap();
        // A forgery in client 0's name (the attacker has no key).
        let mut forged = honest.clone();
        forged.tuple.kind = OpKind::Write;
        forged.value = Some(Value::from("poison"));
        forged.tuple.sig = faust_crypto::Signature::garbage();
        forged.data_sig = faust_crypto::Signature::garbage();
        engine.enqueue(ClientId::new(0), UstorMsg::Submit(forged));
        engine.enqueue(ClientId::new(0), UstorMsg::Submit(honest));
        engine.process_all();
        assert_eq!(engine.stats().rejected, 1);
        assert_eq!(engine.stats().submits, 2);
        let (_, reply) = one_reply(&mut engine);
        let (_, done) = clients[0]
            .handle_reply(reply)
            .expect("honest read must survive the forged write");
        assert_eq!(done.read_value, Some(Some(Value::from("genuine"))));
    }

    #[test]
    fn out_of_range_sender_is_rejected_not_panicking() {
        let keys = KeySet::generate(2, b"engine-tests");
        let mut engine =
            ServerEngine::new(2, Box::new(UstorServer::new(2))).with_verification(keys.registry());
        let mut rogue = UstorClient::new(
            ClientId::new(0),
            2,
            keys.keypair(0).unwrap().clone(),
            keys.registry(),
        );
        let mut submit = rogue.begin_write(Value::from("x")).unwrap();
        submit.tuple.client = ClientId::new(7);
        engine.enqueue(ClientId::new(7), UstorMsg::Submit(submit));
        engine.process_all();
        assert_eq!(engine.stats().rejected, 1);
    }

    #[test]
    fn poll_output_batch_groups_per_client_preserving_fifo() {
        // One round whose inbox interleaves two clients — client 0 with
        // a pipelined burst of three reads, client 1 with one. The
        // engine answers in arrival order (outbox: 0,1,0,0), and the
        // batch drain must group client 0's three replies into ONE
        // batch without reordering them, then client 1's single reply.
        let (mut engine, mut clients) = setup(2, false);
        let r0 = clients[0].begin_read(ClientId::new(1)).unwrap();
        let r1 = clients[1].begin_read(ClientId::new(0)).unwrap();
        // The protocol client is sequential; the engine is not — a
        // pipelined client (or a resend) legitimately queues several
        // submits in one round, which is exactly what egress batching
        // is for. Duplicate the read submit to model that.
        engine.enqueue(ClientId::new(0), UstorMsg::Submit(r0.clone()));
        engine.enqueue(ClientId::new(1), UstorMsg::Submit(r1));
        engine.enqueue(ClientId::new(0), UstorMsg::Submit(r0.clone()));
        engine.enqueue(ClientId::new(0), UstorMsg::Submit(r0));
        engine.process_all();

        let (to, batch) = engine.poll_output_batch().unwrap();
        assert_eq!(to, ClientId::new(0));
        assert_eq!(batch.len(), 3, "client 0's replies coalesce");
        assert!(batch.iter().all(|m| matches!(m, UstorMsg::Reply(_))));
        let (to, batch) = engine.poll_output_batch().unwrap();
        assert_eq!(to, ClientId::new(1));
        assert_eq!(batch.len(), 1);
        assert!(engine.poll_output_batch().is_none());

        let stats = engine.stats();
        assert_eq!(stats.frames_out, 4);
        assert_eq!(stats.flushes, 2, "4 frames left in 2 hand-offs");
        assert_eq!(stats.max_egress_batch, 3);
    }

    /// A test double standing in for a group-committing store: replies
    /// are withheld until `flush`, with a deadline while anything is
    /// held — exercising exactly the engine/serve plumbing the real
    /// `faust-store` backend relies on (which lives downstream and
    /// cannot be imported here). Its state is shared, so a new engine can
    /// wrap it; and with `stray` set, the next SUBMIT's reply also goes to C1, which
    /// no SUBMIT of C1's awaits.
    #[derive(Clone)]
    struct HoldingServer(Arc<std::sync::Mutex<Holding>>);

    struct Holding {
        inner: UstorServer,
        held: Vec<(ClientId, ReplyMsg)>,
        stray: bool,
    }

    impl HoldingServer {
        fn new(n: usize) -> Self {
            let inner = UstorServer::new(n);
            let (held, stray) = (Vec::new(), false);
            HoldingServer(Arc::new(std::sync::Mutex::new(Holding {
                inner,
                held,
                stray,
            })))
        }

        fn lock(&self) -> std::sync::MutexGuard<'_, Holding> {
            self.0.lock().expect("no test thread panicked holding it")
        }
    }

    impl Server for HoldingServer {
        fn on_submit(&mut self, client: ClientId, msg: SubmitMsg) -> Vec<(ClientId, ReplyMsg)> {
            let holding = &mut *self.lock();
            let replies = holding.inner.on_submit(client, msg);
            if std::mem::take(&mut holding.stray) {
                holding.held.push((c(1), replies[0].1.clone()));
            }
            holding.held.extend(replies);
            Vec::new()
        }

        fn on_commit(&mut self, client: ClientId, msg: CommitMsg) -> Vec<(ClientId, ReplyMsg)> {
            self.lock().inner.on_commit(client, msg)
        }

        fn flush(&mut self, force: bool) -> Vec<(ClientId, ReplyMsg)> {
            // Policy never satisfied on its own: only a *forced* flush
            // (transport closing) releases — the strictest test of the
            // serve loop's no-stranded-replies guarantee.
            if force {
                std::mem::take(&mut self.lock().held)
            } else {
                Vec::new()
            }
        }

        fn flush_deadline(&self) -> Option<std::time::Instant> {
            (!self.lock().held.is_empty()).then(std::time::Instant::now)
        }
    }

    #[test]
    fn serve_flushes_held_replies_before_closing() {
        let keys = KeySet::generate(1, b"engine-tests");
        let mut client = UstorClient::new(
            ClientId::new(0),
            1,
            keys.keypair(0).unwrap().clone(),
            keys.registry(),
        );
        let holding = HoldingServer::new(1);
        let mut engine = ServerEngine::new(1, Box::new(holding));
        let mut transport = faust_net::QueueTransport::new();
        let submit = client.begin_write(Value::from("held")).unwrap();
        transport.push_incoming(ClientId::new(0), UstorMsg::Submit(submit));
        serve(&mut engine, &mut transport);
        // The withheld reply must have been force-flushed out before the
        // serve loop returned — no reply is stranded.
        let outputs: Vec<_> = transport.drain_outgoing().collect();
        assert_eq!(outputs.len(), 1);
        assert_eq!(outputs[0].0, ClientId::new(0));
        assert!(matches!(outputs[0].1, UstorMsg::Reply(_)));
    }

    #[test]
    fn duplicate_submit_replays_the_original_reply_byte_identically() {
        use faust_types::Wire;
        let (mut engine, mut clients) = setup(2, false);
        let w = clients[0].begin_write(Value::from("v1")).unwrap();
        run_op(&mut engine, &mut clients[0], w);
        // An in-flight read whose ack is "lost with the socket".
        let r = clients[0].begin_read(ClientId::new(0)).unwrap();
        engine.enqueue(ClientId::new(0), UstorMsg::Submit(r.clone()));
        engine.process_all();
        let (_, original) = one_reply(&mut engine);
        // It went with `SVER[c]` against the write's COMMIT; the cache
        // holds it as the server built it.
        assert!(original.left_out.commit.is_some());
        let session = engine.session(ClientId::new(0));
        let built = session.replies().get(r.timestamp).expect("cached").clone();
        // The client reconnects and replays the identical SUBMIT bytes.
        engine.enqueue(ClientId::new(0), UstorMsg::Submit(r));
        engine.process_all();
        let (to, replayed) = one_reply(&mut engine);
        assert_eq!(to, ClientId::new(0));
        assert_eq!(replayed.encode(), built.encode(), "byte-identical");
        clients[0]
            .handle_reply(replayed)
            .expect("a full reply needs no base");
        assert_eq!(engine.stats().duplicates, 1);
        assert_eq!(engine.session(ClientId::new(0)).duplicates, 1);
        // The duplicate never reached the protocol server: only the two
        // genuine submits were forwarded.
        assert_eq!(engine.stats().submits, 2);
    }

    #[test]
    fn a_duplicate_after_a_kept_release_gets_the_full_cached_reply() {
        use faust_types::Wire;
        let (mut engine, mut clients) = setup(2, false);
        let client = &mut clients[0];
        client.set_commit_mode(crate::client::CommitMode::Piggyback);
        client.set_pipeline(4);
        let c0 = client.id();
        // A window of writes answered in one round: `L` grows by one own
        // tuple per reply, and each reply keeps the `L` before it.
        let submits: Vec<_> = (0..4)
            .map(|k| client.begin_write(Value::unique(0, k)).unwrap())
            .collect();
        for submit in &submits {
            engine.enqueue(c0, UstorMsg::Submit(submit.clone()));
        }
        engine.process_all();
        let sent: Vec<ReplyMsg> = replies(&mut engine).into_iter().map(|(_, r)| r).collect();
        let kept: Vec<u32> = sent.iter().map(|r| r.left_out.kept).collect();
        assert_eq!(kept, [0, 0, 1, 2]);
        assert!(sent.iter().all(|r| r.pending.len() <= 1));
        // The last reply is "lost with the socket"; the client takes the
        // others and resends its SUBMIT.
        for reply in &sent[..3] {
            client.handle_reply(reply.clone()).expect("correct server");
        }
        let lost = submits[3].timestamp;
        let cached = engine
            .session(c0)
            .replies()
            .get(lost)
            .cloned()
            .expect("cached");
        assert_eq!(
            (cached.left_out.kept, cached.pending.len()),
            (0, 3),
            "cached in full"
        );
        engine.enqueue(c0, UstorMsg::Submit(submits[3].clone()));
        engine.process_all();
        let (_, replayed) = one_reply(&mut engine);
        assert_eq!(replayed.encode(), cached.encode(), "the cache's bytes");
        assert_eq!(engine.stats().duplicates, 1);
        client
            .handle_reply(replayed)
            .expect("a full reply needs no base");
    }

    /// The rig the reset rows run on: n = 2, depth 3, ingress
    /// verification on. C0 wrote register 0 and committed; C1 read it
    /// four times, its COMMITs trailing by two operations, so that `L`
    /// keeps a tail from one reply to the next. C1 holds all three bases:
    /// `L`, its own last COMMIT — `SVER[c]`, as C1 committed last — and
    /// register 0's value.
    struct Rig {
        server: HoldingServer,
        engine: ServerEngine,
        clients: Vec<UstorClient>,
        /// C1's COMMITs not yet delivered, oldest first.
        trailing: VecDeque<CommitMsg>,
        /// C1's last SUBMIT.
        last: SubmitMsg,
        /// A reply to C1 that an event made, checked in place of the
        /// reply to C1's next read.
        next: Option<ReplyMsg>,
    }

    impl Rig {
        fn new() -> Self {
            let (_, mut clients) = setup(2, false);
            clients.iter_mut().for_each(|client| client.set_pipeline(3));
            let server = HoldingServer::new(2);
            let last = clients[1].begin_read(c(0)).unwrap();
            let (trailing, next) = (VecDeque::new(), None);
            let engine = Rig::engine(&server);
            let mut rig = Rig {
                server,
                engine,
                clients,
                trailing,
                last,
                next,
            };
            rig.write(true);
            let first = rig.answer(false);
            rig.take(first);
            for _ in 0..3 {
                rig.read();
            }
            rig
        }

        /// A new engine around the rig's server.
        fn engine(server: &HoldingServer) -> ServerEngine {
            let registry = KeySet::generate(2, b"engine-tests").registry();
            ServerEngine::new(2, Box::new(server.clone())).with_verification(registry)
        }

        /// One serve round over `msgs`, closed by a forced flush: the
        /// replies.
        fn deliver(
            &mut self,
            msgs: impl IntoIterator<Item = (ClientId, UstorMsg)>,
        ) -> Vec<(ClientId, ReplyMsg)> {
            for (from, msg) in msgs {
                self.engine.enqueue(from, msg);
            }
            self.engine.process_all();
            self.engine.flush_server(true);
            replies(&mut self.engine)
        }

        /// The reply to C1's last SUBMIT, or a new read's if `new`; C1's
        /// oldest COMMIT follows once two trail.
        fn answer(&mut self, new: bool) -> ReplyMsg {
            if new {
                self.last = self.clients[1].begin_read(c(0)).unwrap();
            }
            let submit = UstorMsg::Submit(self.last.clone());
            let [(_, reply)]: [_; 1] = self.deliver([(c(1), submit)]).try_into().unwrap();
            if self.trailing.len() == 2 {
                let commit = self.trailing.pop_front().unwrap();
                self.deliver([(c(1), UstorMsg::Commit(commit))]);
            }
            reply
        }

        /// C1 takes `reply`; its COMMIT trails.
        fn take(&mut self, reply: ReplyMsg) {
            let (commit, _) = self.clients[1].handle_reply(reply).expect("correct server");
            self.trailing.push_back(commit.unwrap());
        }

        /// C1 reads register 0: the reply as it travelled.
        fn read(&mut self) -> ReplyMsg {
            let reply = self.answer(true);
            self.take(reply.clone());
            reply
        }

        /// C0 writes register 0 and takes its reply, and its COMMIT goes
        /// out if `commit`: the replies.
        fn write(&mut self, commit: bool) -> Vec<(ClientId, ReplyMsg)> {
            let submit = self.clients[0].begin_write(Value::from("v")).unwrap();
            let replies = self.deliver([(c(0), UstorMsg::Submit(submit))]);
            let own = replies.iter().find(|(to, _)| *to == c(0)).unwrap();
            let (done, _) = self.clients[0].handle_reply(own.1.clone()).unwrap();
            if commit {
                self.deliver([(c(0), UstorMsg::Commit(done.unwrap()))]);
            }
            replies
        }
    }

    /// Which parts of `reply` went against a base: `L`, `SVER[c]` and
    /// the read value.
    fn against(reply: &ReplyMsg) -> [bool; 3] {
        let left_out = &reply.left_out;
        let (kept, commit, value) = (left_out.kept, &left_out.commit, left_out.value);
        [kept > 0, commit.is_some(), value.is_some()]
    }

    /// An event, then whether the next reply to C1's `L`, `SVER[c]` and
    /// read value went against a base.
    type Row = (&'static str, fn(&mut Rig), [bool; 3]);

    /// Runs each row on a rig of its own.
    fn check(rows: &[Row]) {
        for (event, run, expected) in rows {
            let mut rig = Rig::new();
            run(&mut rig);
            let reply = rig.next.take().unwrap_or_else(|| rig.read());
            assert_eq!(against(&reply), *expected, "after {event}");
        }
    }

    /// A COMMIT delta from C1 for its operation at `t`.
    fn commit_delta(t: Timestamp) -> [(ClientId, UstorMsg); 1] {
        use faust_types::{CommitDelta, Delta, VersionEntry};
        let (client, digest, garbage) = (c(1), None, faust_crypto::Signature::garbage());
        let entry = VersionEntry {
            client,
            timestamp: t,
            digest,
        };
        let delta = CommitDelta {
            version: Delta::from_entries(&[entry]),
            commit_sig: garbage,
            proof_sig: garbage,
        };
        [(c(1), UstorMsg::CommitDelta(delta))]
    }

    #[test]
    fn the_first_release_after_new_is_full() {
        // The rig's server already holds state when a new engine wraps
        // it: C1 holds all three bases, but the engine does not know that.
        check(&[
            ("nothing", |_| {}, [true; 3]),
            (
                "a new engine",
                |rig| rig.engine = Rig::engine(&rig.server),
                [false; 3],
            ),
        ]);
    }

    #[test]
    fn the_first_release_on_a_new_connection_is_full() {
        // Another client's connection leaves C1's bases alone.
        check(&[
            ("C1 connects", |rig| rig.engine.connected(c(1)), [false; 3]),
            ("C0 connects", |rig| rig.engine.connected(c(0)), [true; 3]),
        ]);
    }

    #[test]
    fn sver_goes_in_full_on_each_new_connection_and_from_the_cache() {
        // A cache replay C1 never took leaves C1 without the COMMIT base
        // and the value the engine would name.
        check(&[(
            "a duplicate SUBMIT with a piggyback, its replay lost",
            |rig| {
                let mut resent = rig.last.clone();
                resent.piggyback = rig.trailing.back().cloned();
                assert_eq!(rig.deliver([(c(1), UstorMsg::Submit(resent))]).len(), 1);
            },
            [true, false, false],
        )]);
    }

    #[test]
    fn a_read_value_goes_in_full_first_on_each_connection_and_from_the_cache() {
        // A reply lost with the socket comes back from the cache in full,
        // and C1 takes its value from it: the next value goes in full.
        check(&[(
            "a reply lost, and replayed from the cache in full",
            |rig| {
                rig.answer(true);
                let replayed = rig.answer(false);
                assert_eq!(against(&replayed), [false; 3]);
                rig.take(replayed);
            },
            [true, true, false],
        )]);
    }

    #[test]
    fn a_write_empties_every_clients_base_for_its_register() {
        check(&[
            (
                "a write to register 0",
                |rig| {
                    rig.write(false);
                    // Every client's base for the register goes at once.
                    assert!(rig.engine.bases.values[0].is_empty());
                },
                [true, true, false],
            ),
            (
                "a write to register 0 while C1's read reply is held",
                |rig| {
                    let read = rig.clients[1].begin_read(c(0)).unwrap();
                    let write = rig.clients[0].begin_write(Value::from("new")).unwrap();
                    let msgs = [
                        (c(1), UstorMsg::Submit(read)),
                        (c(0), UstorMsg::Submit(write)),
                    ];
                    let [(_, reply), _] = rig.deliver(msgs).try_into().unwrap();
                    // No base keeps the value the write dropped.
                    assert!(rig.engine.bases.values[0].is_empty());
                    rig.next = Some(reply);
                },
                [true, true, false],
            ),
        ]);
    }

    #[test]
    fn the_reset_table() {
        // The rows the tests above leave out: COMMITs the engine drops,
        // and a reply no SUBMIT awaits.
        use faust_crypto::Signature;
        use faust_types::Version;
        check(&[
            (
                "a rejected SUBMIT with a piggyback",
                |rig| {
                    let mut forged = rig.last.clone();
                    forged.tuple.sig = Signature::garbage();
                    forged.piggyback = rig.trailing.back().cloned();
                    assert!(rig.deliver([(c(1), UstorMsg::Submit(forged))]).is_empty());
                },
                [true, false, true],
            ),
            (
                "a rejected COMMIT delta",
                |rig| assert!(rig.deliver(commit_delta(1000)).is_empty()),
                [true, false, true],
            ),
            (
                "a duplicate COMMIT delta",
                |rig| assert!(rig.deliver(commit_delta(1)).is_empty()),
                [true, false, true],
            ),
            (
                "a COMMIT whose arity lacks C1",
                |rig| {
                    let (version, garbage) = (Version::initial(1), Signature::garbage());
                    let commit = CommitMsg {
                        version,
                        commit_sig: garbage,
                        proof_sig: garbage,
                    };
                    rig.deliver([(c(1), UstorMsg::Commit(commit))]);
                },
                [true, false, true],
            ),
            (
                "a reply no SUBMIT of C1's awaits",
                |rig| {
                    rig.server.lock().stray = true;
                    let [(_, stray), _] = rig.write(false).try_into().unwrap();
                    // C1 would fold its `L` like any other: the base follows
                    // it, and the next reply keeps more of it.
                    assert_eq!(rig.answer(true).left_out.kept, stray.left_out.kept + 1);
                    rig.next = Some(stray);
                },
                [true, false, false],
            ),
        ]);
    }

    #[test]
    fn a_commit_of_another_arity_never_reaches_the_server() {
        use faust_crypto::Signature;
        use faust_types::{TimestampVec, Version};
        let garbage = Signature::garbage();
        // C1's entry present but the arity wrong, and an arity that lacks
        // C1's entry.
        let wide = Version::new(
            TimestampVec::from_vec(vec![1, 9, 0]),
            faust_types::DigestVec::bottoms(3),
        );
        let commit = |version: &Version| CommitMsg {
            version: version.clone(),
            commit_sig: garbage,
            proof_sig: garbage,
        };
        for version in [wide, Version::initial(1)] {
            let mut rig = Rig::new();
            let sver = rig.server.lock().inner.export_state().sver;
            let (rejected, submits) = (rig.engine.stats().rejected, rig.engine.stats().submits);
            rig.deliver([(c(1), UstorMsg::Commit(commit(&version)))]);
            // Piggybacked, it is dropped and its SUBMIT goes on alone.
            let mut submit = rig.clients[1].begin_read(c(0)).unwrap();
            submit.piggyback = Some(commit(&version));
            let [(_, reply)] = rig
                .deliver([(c(1), UstorMsg::Submit(submit))])
                .try_into()
                .unwrap();
            assert_eq!(rig.engine.stats().rejected, rejected + 2);
            assert_eq!(
                rig.engine.stats().submits,
                submits + 1,
                "the SUBMIT went on"
            );
            assert_eq!(rig.server.lock().inner.export_state().sver, sver);
            // C1 committed last, so its `SVER[1]` is every REPLY's
            // `SVER[c]`: its reads still complete.
            assert_eq!(reply.last_committer, c(1));
            rig.take(reply);
            rig.read();
        }
    }

    #[test]
    fn a_released_reply_its_cached_copy_and_the_servers_sver_share_one_version() {
        /// One operation of `client`'s: the reply as released.
        fn op(engine: &mut ServerEngine, client: &mut UstorClient, submit: SubmitMsg) -> ReplyMsg {
            engine.enqueue(client.id(), UstorMsg::Submit(submit));
            engine.process_all();
            engine.flush_server(true);
            let (_, reply) = one_reply(engine);
            let (commit, _) = client.handle_reply(reply.clone()).unwrap();
            engine.enqueue(client.id(), UstorMsg::Commit(commit.unwrap()));
            engine.process_all();
            reply
        }
        let server = HoldingServer::new(2);
        let mut engine = ServerEngine::new(2, Box::new(server.clone()));
        let (_, mut clients) = setup(2, false);
        let write = clients[0].begin_write(Value::from("v")).unwrap();
        op(&mut engine, &mut clients[0], write);
        let read = clients[1].begin_read(c(0)).unwrap();
        let t = read.timestamp;
        let released = op(&mut engine, &mut clients[1], read);
        let sver = server.lock().inner.export_state().sver;
        let cached = engine.session(c(1)).replies().get(t).unwrap();
        // `SVER[c]` is C0's COMMIT, `SVER[j]` the same, in full.
        assert_eq!(
            (released.last_committer, released.left_out.clone()),
            (c(0), Default::default())
        );
        let shared = [
            &released.commit_version.version,
            &cached.commit_version.version,
            &released.read.as_ref().unwrap().writer_version.version,
            &cached.read.as_ref().unwrap().writer_version.version,
        ];
        for version in shared {
            assert!(version.same_allocation(&sver[0].version));
        }
        // The engine's COMMIT base for C0 too.
        let base = engine.bases.clients[0].commit.as_ref().unwrap();
        assert!(base.commit.version.same_allocation(&sver[0].version));
    }

    #[test]
    fn a_reply_held_for_group_commit_keeps_its_submits_base() {
        // C0 pipelines: COMMIT 1 arrives, then SUBMIT 3, whose reply the
        // server holds, then COMMIT 2. Released after it, the reply still
        // goes against COMMIT 1, the base its SUBMIT found, which is
        // byte for byte its `SVER[c]`.
        let keys = KeySet::generate(1, b"engine-tests");
        let mut client = UstorClient::new(
            ClientId::new(0),
            1,
            keys.keypair(0).unwrap().clone(),
            keys.registry(),
        );
        client.set_pipeline(3);
        let c0 = client.id();
        let holding = HoldingServer::new(1);
        let mut engine = ServerEngine::new(1, Box::new(holding));
        for k in 0..2 {
            let submit = client.begin_write(Value::unique(0, k)).unwrap();
            engine.enqueue(c0, UstorMsg::Submit(submit));
        }
        engine.process_all();
        engine.flush_server(true);
        let mut commits = Vec::new();
        for (_, reply) in replies(&mut engine) {
            assert!(reply.left_out.commit.is_none(), "no COMMIT yet");
            let (commit, _) = client.handle_reply(reply).expect("correct server");
            commits.push(commit.expect("immediate mode"));
        }
        let submit = client.begin_write(Value::unique(0, 2)).unwrap();
        engine.enqueue(c0, UstorMsg::Commit(commits[0].clone()));
        engine.enqueue(c0, UstorMsg::Submit(submit));
        engine.enqueue(c0, UstorMsg::Commit(commits[1].clone()));
        engine.process_all();
        assert!(replies(&mut engine).is_empty(), "held");
        engine.flush_server(true);
        let (_, reply) = one_reply(&mut engine);
        let own = reply
            .left_out
            .commit
            .as_ref()
            .expect("sent against a COMMIT");
        assert_eq!((own.base, own.is_marker()), (1, true));
        let (_, done) = client.handle_reply(reply).expect("C0 holds COMMIT 1");
        assert_eq!(done.timestamp, 3);
    }

    fn c(i: u32) -> ClientId {
        ClientId::new(i)
    }

    /// Client `i` reads register `j` through the engine, completes and
    /// commits: the name its reply's value came as, if any.
    fn read_named(
        engine: &mut ServerEngine,
        clients: &mut [UstorClient],
        i: usize,
        j: u32,
    ) -> Option<Timestamp> {
        let submit = clients[i].begin_read(ClientId::new(j)).unwrap();
        engine.enqueue(clients[i].id(), UstorMsg::Submit(submit));
        engine.process_all();
        let (_, reply) = one_reply(engine);
        let name = reply.left_out.value;
        let (commit, done) = clients[i].handle_reply(reply).expect("correct server");
        assert!(done.read_value.is_some_and(|value| value.is_some()));
        engine.enqueue(clients[i].id(), UstorMsg::Commit(commit.unwrap()));
        engine.process_all();
        name
    }

    #[test]
    fn a_read_reply_held_for_group_commit_keeps_its_base() {
        let keys = KeySet::generate(2, b"engine-tests");
        let mut clients: Vec<UstorClient> = (0..2)
            .map(|i| UstorClient::new(c(i), 2, keys.keypair(i).unwrap().clone(), keys.registry()))
            .collect();
        clients[1].set_pipeline(2);
        let holding = HoldingServer::new(2);
        let mut engine = ServerEngine::new(2, Box::new(holding));
        // Every SUBMIT's reply is held until a forced flush.
        let step =
            |engine: &mut ServerEngine, clients: &mut [UstorClient], ops: &[(u32, OpKind)]| {
                for &(i, kind) in ops {
                    let client = &mut clients[i as usize];
                    let submit = match kind {
                        OpKind::Read => client.begin_read(c(0)),
                        OpKind::Write => client.begin_write(Value::new(vec![i as u8; 4])),
                    };
                    engine.enqueue(c(i), UstorMsg::Submit(submit.unwrap()));
                }
                engine.process_all();
                assert!(replies(engine).is_empty(), "held");
                engine.flush_server(true);
                let mut names = Vec::new();
                for (to, reply) in replies(engine) {
                    if to == c(1) {
                        names.push(reply.left_out.value);
                    }
                    let (commit, _) = clients[to.index()]
                        .handle_reply(reply)
                        .expect("correct server");
                    engine.enqueue(to, UstorMsg::Commit(commit.unwrap()));
                }
                engine.process_all();
                names
            };
        let (read, write) = (OpKind::Read, OpKind::Write);
        assert!(step(&mut engine, &mut clients, &[(0, write)]).is_empty());
        assert_eq!(step(&mut engine, &mut clients, &[(1, read)]), [None]);
        // Two pipelined reads released in one flush: each against the
        // one before it.
        let names = step(&mut engine, &mut clients, &[(1, read), (1, read)]);
        assert_eq!(names, [Some(1), Some(2)]);
        // A write between a read's SUBMIT and its release: the write
        // empties the base before the read's REPLY leaves, so that goes
        // in full, and it leaves no base for the value the write dropped.
        let names = step(&mut engine, &mut clients, &[(1, read), (0, write)]);
        assert_eq!(names, [None]);
        assert!(engine.bases.values[0].is_empty());
        assert_eq!(step(&mut engine, &mut clients, &[(1, read)]), [None]);
        assert_eq!(step(&mut engine, &mut clients, &[(1, read)]), [Some(5)]);
    }

    #[test]
    fn a_tampering_servers_substituted_value_goes_in_full() {
        use crate::adversary::{Tamper, TamperServer};
        let (_, mut clients) = setup(2, false);
        // The fifth SUBMIT, C1's fourth read, gets a REPLY whose value
        // the server made up.
        let tamper = TamperServer::new(2, c(1), 4, Tamper::CorruptReadValue);
        let mut engine = ServerEngine::new(2, Box::new(tamper));
        let submit = clients[0].begin_write(Value::from("v")).unwrap();
        run_op(&mut engine, &mut clients[0], submit);
        for name in [None, Some(1), Some(2)] {
            assert_eq!(read_named(&mut engine, &mut clients, 1, 0), name);
        }
        let submit = clients[1].begin_read(c(0)).unwrap();
        engine.enqueue(c(1), UstorMsg::Submit(submit));
        engine.process_all();
        let (_, reply) = one_reply(&mut engine);
        assert_eq!(reply.left_out.value, None);
        let read = reply.read.as_ref().unwrap();
        assert_eq!(read.mem_value, Some(Value::from("corrupted by server")));
        assert_eq!(
            clients[1].handle_reply(reply).unwrap_err(),
            crate::Fault::BadDataSignature
        );
    }

    #[test]
    fn serve_tells_the_engine_of_each_new_connection() {
        // A connection is new once the transport that carried the last
        // one has closed: C0's first REPLY over the next transport goes
        // in full, and the ones after it keep a tail again.
        let (mut engine, mut clients) = setup(2, false);
        let client = &mut clients[0];
        client.set_pipeline(8);
        let c0 = client.id();
        let mut run = |engine: &mut ServerEngine, transport: &mut faust_net::QueueTransport, k| {
            let submit = client.begin_write(Value::unique(0, k)).unwrap();
            transport.push_incoming(c0, UstorMsg::Submit(submit));
            serve(engine, transport);
            let Some((_, UstorMsg::Reply(reply))) = transport.pop_outgoing() else {
                panic!("one reply")
            };
            let kept = (reply.left_out.kept, reply.pending.len());
            client.handle_reply(reply).expect("correct server");
            kept
        };
        let mut first = faust_net::QueueTransport::new();
        assert_eq!(run(&mut engine, &mut first, 0), (0, 0));
        assert_eq!(run(&mut engine, &mut first, 1), (0, 1));
        assert_eq!(run(&mut engine, &mut first, 2), (1, 1));
        let (mut closed, switch) = faust_net::KillableTransport::new(first);
        switch.kill();
        serve(&mut engine, &mut closed);
        let mut next = faust_net::QueueTransport::new();
        assert_eq!(run(&mut engine, &mut next, 3), (0, 3), "in full");
        assert_eq!(run(&mut engine, &mut next, 4), (3, 1));
    }

    #[test]
    fn a_transports_close_ends_every_connection_it_carried_and_a_drain_none() {
        // Both clients write at depth 8 without committing, so each REPLY
        // keeps a tail of the `L` before it.
        let (mut engine, mut clients) = setup(2, false);
        clients.iter_mut().for_each(|client| client.set_pipeline(8));
        let mut queue = faust_net::QueueTransport::new();
        // One write of each client served over `transport`: per client,
        // how many tuples its REPLY kept and how many it carried.
        let mut run = |engine: &mut ServerEngine, transport: &mut faust_net::QueueTransport, k| {
            for client in clients.iter_mut() {
                let submit = client.begin_write(Value::unique(0, k)).unwrap();
                transport.push_incoming(client.id(), UstorMsg::Submit(submit));
            }
            serve(engine, transport);
            let sent: Vec<_> = transport.drain_outgoing().collect();
            let mut kept = Vec::new();
            for (to, msg) in sent {
                let UstorMsg::Reply(reply) = msg else {
                    panic!("the engine sends only replies")
                };
                kept.push((reply.left_out.kept, reply.pending.len()));
                clients[to.index()]
                    .handle_reply(reply)
                    .expect("correct server");
            }
            kept
        };
        assert_eq!(run(&mut engine, &mut queue, 0), [(0, 0), (0, 1)]);
        assert_eq!(run(&mut engine, &mut queue, 1), [(0, 2), (1, 2)]);
        // Each call ended on `Idle`: the next keeps what the last sent.
        assert_eq!(run(&mut engine, &mut queue, 2), [(2, 2), (3, 2)]);
        // A transport that reports `Closed` ends both connections, so the
        // next transport's first REPLY to each client goes in full.
        let (mut closed, switch) = faust_net::KillableTransport::new(queue);
        switch.kill();
        serve(&mut engine, &mut closed);
        let mut next = faust_net::QueueTransport::new();
        assert_eq!(run(&mut engine, &mut next, 3), [(0, 6), (0, 7)]);
        assert_eq!(run(&mut engine, &mut next, 4), [(6, 2), (7, 2)]);
    }

    #[test]
    fn the_door_refuses_what_the_deployment_does_not_have() {
        // A read of register `n`, with and without a piggybacked COMMIT,
        // and a SUBMIT and a COMMIT from client `n`, interleaved with
        // honest operations; a twin engine sees the honest ones alone.
        use faust_crypto::Signature;
        use faust_types::{Version, Wire};
        let (mut engine, mut clients) = setup(2, false);
        let (mut twin, mut twin_clients) = setup(2, false);
        let (c0, c1) = (c(0), c(1));
        let mut outside = clients[1].clone().begin_read(c0).unwrap();
        outside.tuple.register = c(2);
        let mut carrying = outside.clone();
        let garbage = Signature::garbage();
        carrying.piggyback = Some(CommitMsg {
            version: Version::initial(2),
            commit_sig: garbage,
            proof_sig: garbage,
        });
        let stranger = clients[0].clone().begin_write(Value::from("x")).unwrap();
        let refused = [
            (c1, UstorMsg::Submit(outside)),
            (c1, UstorMsg::Submit(carrying.clone())),
            (c(2), UstorMsg::Submit(stranger)),
            (c(2), UstorMsg::Commit(carrying.piggyback.unwrap())),
        ];
        let ops = [(0, OpKind::Write), (1, OpKind::Read), (0, OpKind::Read)];
        for (k, &(i, kind)) in ops.iter().enumerate() {
            let (before, forwarded) = (engine.stats().rejected, engine.stats().submits);
            for (from, msg) in refused.clone() {
                engine.enqueue(from, msg);
            }
            engine.process_all();
            assert!(replies(&mut engine).is_empty(), "no REPLY");
            assert_eq!(engine.stats().rejected, before + 4);
            assert_eq!(engine.stats().submits, forwarded, "no server call");
            assert_eq!(engine.session(c1).rejected, 2 * (k as u64 + 1));
            let mut sent = Vec::new();
            for (engine, clients) in [(&mut engine, &mut clients), (&mut twin, &mut twin_clients)] {
                let submit = match kind {
                    OpKind::Write => clients[i].begin_write(Value::unique(0, k as u64)),
                    OpKind::Read => clients[i].begin_read(c0),
                };
                engine.enqueue(c(i as u32), UstorMsg::Submit(submit.unwrap()));
                engine.process_all();
                let (_, reply) = one_reply(engine);
                sent.push(reply.encode());
                let (commit, _) = clients[i].handle_reply(reply).expect("correct server");
                engine.enqueue(c(i as u32), UstorMsg::Commit(commit.unwrap()));
                engine.process_all();
            }
            assert_eq!(
                sent[0], sent[1],
                "operation {k}: the twin's REPLY, byte for byte"
            );
        }
        let counts = |s: &EngineStats| (s.submits, s.commits, s.duplicates);
        assert_eq!(counts(engine.stats()), counts(twin.stats()));
    }

    #[test]
    fn the_door_refuses_a_submit_whose_tuple_names_another_client() {
        // Client 0's SUBMIT whose invocation tuple names client 7,
        // outside a deployment of 2, or client 1, inside it. Admitted,
        // either tuple would enter `L` and client 1's next REPLY would
        // fail its check (`MalformedReply("pending tuple index out of
        // range")` for client 7, `OwnOperationPending` for client 1),
        // blaming an honest server.
        for other in [7, 1] {
            let (mut engine, mut clients) = setup(2, false);
            let mut forged = clients[0].clone().begin_write(Value::from("x")).unwrap();
            forged.tuple.client = c(other);
            engine.enqueue(c(0), UstorMsg::Submit(forged));
            engine.process_all();
            assert!(replies(&mut engine).is_empty(), "no REPLY");
            assert_eq!(engine.stats().rejected, 1);
            assert_eq!(engine.stats().submits, 0, "no server call");
            assert_eq!(engine.session(c(0)).rejected, 1);
            for (i, j) in [(1, 0), (0, 1)] {
                let submit = clients[i].begin_read(c(j)).unwrap();
                engine.enqueue(c(i as u32), UstorMsg::Submit(submit));
                engine.process_all();
                let (_, reply) = one_reply(&mut engine);
                let (commit, _) = clients[i].handle_reply(reply).expect("correct server");
                engine.enqueue(c(i as u32), UstorMsg::Commit(commit.unwrap()));
                engine.process_all();
            }
        }
    }

    /// One op of `client` whose COMMIT goes to `engine` as a delta
    /// against its REPLY; returns the delta for replaying.
    fn run_delta_op(
        engine: &mut ServerEngine,
        client: &mut UstorClient,
        submit: faust_types::SubmitMsg,
    ) -> faust_types::CommitDelta {
        let (id, ts) = (client.id(), submit.timestamp);
        engine.enqueue(id, UstorMsg::Submit(submit));
        engine.process_all();
        let (_, reply) = one_reply(engine);
        let built = engine.session(id).replies().get(ts).expect("cached");
        let base = built.commit_version.version.clone();
        let (commit, _) = client.handle_reply(reply).expect("correct server");
        let commit = commit.unwrap();
        let delta = faust_types::CommitDelta::against(&base, &commit).unwrap();
        let own = faust_types::CommitDelta::of(&commit, &[id.index()]);
        assert_eq!(Some(&delta), own.as_ref(), "lockstep: the own entry alone");
        engine.enqueue(id, UstorMsg::CommitDelta(delta.clone()));
        engine.process_all();
        assert!(replies(engine).is_empty(), "commit produces no reply");
        delta
    }

    /// C1's read of C0's register: `SVER[c]`, `SVER[0]` and `MEM[0]` as
    /// the server holds them.
    fn probe_read(engine: &mut ServerEngine, reader: &mut UstorClient) -> ReplyMsg {
        let submit = reader.begin_read(ClientId::new(0)).unwrap();
        engine.enqueue(reader.id(), UstorMsg::Submit(submit));
        engine.process_all();
        let (_, reply) = one_reply(engine);
        let (commit, _) = reader.handle_reply(reply.clone()).expect("correct server");
        engine.enqueue(reader.id(), UstorMsg::Commit(commit.unwrap()));
        engine.process_all();
        reply
    }

    #[test]
    fn a_delta_resolves_against_the_cached_reply_it_answers() {
        let (mut engine, mut clients) = setup(2, false);
        let (mut twin, mut twin_clients) = setup(2, false);
        for k in 0..3u64 {
            let submit = clients[0].begin_write(Value::unique(0, k)).unwrap();
            run_delta_op(&mut engine, &mut clients[0], submit);
            let submit = twin_clients[0].begin_write(Value::unique(0, k)).unwrap();
            run_op(&mut twin, &mut twin_clients[0], submit);
        }
        assert_eq!(engine.stats(), twin.stats());
        let read = probe_read(&mut engine, &mut clients[1]);
        assert_eq!(read, probe_read(&mut twin, &mut twin_clients[1]));
    }

    #[test]
    fn a_delta_with_no_cached_base_is_rejected_and_changes_nothing() {
        let (mut engine, mut clients) = setup(2, false);
        let (mut twin, mut twin_clients) = setup(2, false);
        let submit = clients[0].begin_write(Value::from("one")).unwrap();
        let sent = run_delta_op(&mut engine, &mut clients[0], submit);
        let submit = twin_clients[0].begin_write(Value::from("one")).unwrap();
        run_op(&mut twin, &mut twin_clients[0], submit);
        // A delta for an operation C0 never submitted, and one whose own
        // entry is missing: neither has a base.
        let delta = |client| {
            let entry = faust_types::VersionEntry {
                client: ClientId::new(client),
                timestamp: 7,
                digest: None,
            };
            faust_types::CommitDelta {
                version: faust_types::Delta::from_entries(&[entry]),
                ..sent.clone()
            }
        };
        for delta in [delta(0), delta(1)] {
            engine.enqueue(ClientId::new(0), UstorMsg::CommitDelta(delta));
        }
        engine.process_all();
        assert!(replies(&mut engine).is_empty());
        assert_eq!(engine.stats().rejected, 2);
        assert_eq!(engine.session(ClientId::new(0)).rejected, 2);
        let counts = |s: &EngineStats| (s.submits, s.commits, s.duplicates);
        assert_eq!(counts(engine.stats()), counts(twin.stats()));
        let read = probe_read(&mut engine, &mut clients[1]);
        assert_eq!(read, probe_read(&mut twin, &mut twin_clients[1]));
    }

    #[test]
    fn a_duplicated_delta_after_its_commit_is_a_no_op() {
        let (mut engine, mut clients) = setup(2, false);
        let (mut twin, mut twin_clients) = setup(2, false);
        let submit = clients[0].begin_write(Value::from("one")).unwrap();
        let first = run_delta_op(&mut engine, &mut clients[0], submit);
        // At once: the REPLY is still cached, so the duplicate resolves
        // to the same COMMIT, which the server stores idempotently.
        engine.enqueue(ClientId::new(0), UstorMsg::CommitDelta(first.clone()));
        engine.process_all();
        let submit = clients[0].begin_write(Value::from("two")).unwrap();
        run_delta_op(&mut engine, &mut clients[0], submit);
        // After the next REPLY evicted its base: dropped as a duplicate.
        engine.enqueue(ClientId::new(0), UstorMsg::CommitDelta(first));
        engine.process_all();
        assert!(replies(&mut engine).is_empty());
        assert_eq!(engine.stats().rejected, 0);
        assert_eq!(engine.stats().duplicates, 1);
        for value in ["one", "two"] {
            let submit = twin_clients[0].begin_write(Value::from(value)).unwrap();
            run_op(&mut twin, &mut twin_clients[0], submit);
        }
        let read = probe_read(&mut engine, &mut clients[1]);
        assert_eq!(read, probe_read(&mut twin, &mut twin_clients[1]));
    }

    fn cached(engine: &ServerEngine, client: ClientId) -> Vec<Timestamp> {
        engine.session(client).replies().timestamps().collect()
    }

    #[test]
    fn lockstep_commits_leave_exactly_one_cached_reply() {
        let (mut engine, mut clients) = setup(2, false);
        let c0 = ClientId::new(0);
        for k in 0..40u64 {
            let submit = if k % 2 == 0 {
                clients[0].begin_write(Value::unique(0, k)).unwrap()
            } else {
                clients[0].begin_read(ClientId::new(1)).unwrap()
            };
            run_op(&mut engine, &mut clients[0], submit);
            assert_eq!(cached(&engine, c0), [k + 1], "after COMMIT {}", k + 1);
        }
    }

    #[test]
    fn piggybacked_commits_bound_the_cache_at_depth_plus_one() {
        for depth in [1usize, 4, 16] {
            let (mut engine, mut clients) = setup(2, false);
            let client = &mut clients[0];
            client.set_commit_mode(crate::client::CommitMode::Piggyback);
            client.set_pipeline(depth);
            let c0 = client.id();
            let mut largest = 0;
            for k in 0..(4 * depth as u64 + 8) {
                // Refill the window (the first SUBMIT carries the COMMIT
                // of the newest completion), then answer it in one round.
                while !client.is_busy() {
                    let submit = client.begin_write(Value::unique(0, k)).unwrap();
                    engine.enqueue(c0, UstorMsg::Submit(submit));
                }
                engine.process_all();
                for (_, reply) in replies(&mut engine) {
                    assert!(client.handle_reply(reply).unwrap().0.is_none());
                    largest = largest.max(engine.session(c0).replies().len());
                }
                assert!(largest <= depth + 1, "depth {depth}: {largest} cached");
            }
            assert_eq!(largest, depth, "depth {depth}");
        }
    }

    #[test]
    fn a_client_that_never_commits_stays_at_the_cap() {
        use crate::reply_cache::REPLY_CACHE_CAP;
        let (mut engine, mut clients) = setup(2, false);
        let client = &mut clients[0];
        let c0 = client.id();
        let ops = REPLY_CACHE_CAP as Timestamp + 8;
        // A deep window whose piggybacked commits are never sent: every
        // reply stays unacknowledged.
        client.set_commit_mode(crate::client::CommitMode::Piggyback);
        client.set_pipeline(ops as usize);
        for k in 0..ops {
            let submit = client.begin_write(Value::unique(0, k)).unwrap();
            engine.enqueue(c0, UstorMsg::Submit(submit));
        }
        engine.process_all();
        for (_, reply) in replies(&mut engine) {
            client.handle_reply(reply).expect("correct server");
        }
        let expect: Vec<Timestamp> = (ops - REPLY_CACHE_CAP as Timestamp + 1..=ops).collect();
        assert_eq!(cached(&engine, c0), expect);
    }

    #[test]
    fn a_resent_window_passes_ingress_verification() {
        // A pipelined window [read, write] resent in full after a lost
        // connection: the read's DATA signature covers the value hash
        // *before* the write, so naive re-verification would reject it.
        // Duplicates are gated on their SUBMIT signature alone, answered
        // from the cache, and must not poison the session hash that fresh
        // traffic queued behind them is verified against.
        let (mut engine, mut clients) = setup(2, true);
        clients[0].set_pipeline(3);
        let w1 = clients[0].begin_write(Value::from("old")).unwrap();
        run_op(&mut engine, &mut clients[0], w1);
        let r2 = clients[0].begin_read(ClientId::new(0)).unwrap();
        let w3 = clients[0].begin_write(Value::from("new")).unwrap();
        let (rr2_ts, rw3_ts) = (r2.timestamp, w3.timestamp);
        engine.enqueue(ClientId::new(0), UstorMsg::Submit(r2.clone()));
        engine.enqueue(ClientId::new(0), UstorMsg::Submit(w3.clone()));
        engine.process_all();
        assert_eq!(engine.stats().rejected, 0);
        let [(_, reply_r2), (_, reply_w3)]: [_; 2] = replies(&mut engine)
            .try_into()
            .expect("r2's and w3's replies");
        // Both acks are lost; the whole window is replayed, with a
        // fresh read queued behind it in the same batch.
        engine.enqueue(ClientId::new(0), UstorMsg::Submit(r2));
        engine.enqueue(ClientId::new(0), UstorMsg::Submit(w3));
        engine.process_all();
        assert_eq!(engine.stats().rejected, 0);
        assert_eq!(engine.stats().duplicates, 2);
        let [(_, rr2), (_, rw3)]: [_; 2] = replies(&mut engine)
            .try_into()
            .expect("r2's and w3's replays");
        // Sent against the first write's COMMIT, replayed from the cache
        // as the server built them.
        assert!(reply_r2.left_out.commit.is_some() && reply_w3.left_out.commit.is_some());
        let built = |ts| engine.session(ClientId::new(0)).replies().get(ts).cloned();
        assert_eq!(Some(&rr2), built(rr2_ts).as_ref());
        assert_eq!(Some(&rw3), built(rw3_ts).as_ref());
        // The fail-aware client accepts the replayed replies without
        // a false violation, and a fresh read still verifies.
        clients[0].handle_reply(rr2).expect("no false violation");
        clients[0].handle_reply(rw3).expect("no false violation");
        let r4 = clients[0].begin_read(ClientId::new(0)).unwrap();
        engine.enqueue(ClientId::new(0), UstorMsg::Submit(r4));
        engine.process_all();
        assert_eq!(engine.stats().rejected, 0);
        let (_, reply_r4) = one_reply(&mut engine);
        let (_, done) = clients[0].handle_reply(reply_r4).unwrap();
        assert_eq!(done.read_value, Some(Some(Value::from("new"))));
    }

    #[test]
    fn value_hash_is_maintained_only_under_verification() {
        // Verification off (what `faust serve` ships) must not hash
        // written values: the session hash, the digest's one resting
        // place, stays unset.
        let (mut engine, mut clients) = setup(2, false);
        let w = clients[0].begin_write(Value::from("unhashed")).unwrap();
        engine.enqueue(ClientId::new(0), UstorMsg::Submit(w.clone()));
        engine.process_all();
        assert_eq!(engine.stats().submits, 1);
        assert_eq!(engine.session(ClientId::new(0)).last_value_hash, None);

        // With verification on it is computed once, as the SUBMIT is
        // processed, and lands in the session.
        let expect = Some(sha256(Value::from("hashed").as_bytes()));
        let (mut engine, mut clients) = setup(2, true);
        let w = clients[0].begin_write(Value::from("hashed")).unwrap();
        engine.enqueue(ClientId::new(0), UstorMsg::Submit(w));
        engine.process_all();
        assert_eq!(engine.stats().rejected, 0);
        assert_eq!(engine.session(ClientId::new(0)).last_value_hash, expect);
    }

    /// A recovered server: the protocol state of `inner` plus the session
    /// state a persistent backend would hand the engine.
    struct Recovered {
        inner: UstorServer,
        resume: Vec<SessionResume>,
    }

    impl Server for Recovered {
        fn on_submit(&mut self, client: ClientId, msg: SubmitMsg) -> Vec<(ClientId, ReplyMsg)> {
            self.inner.on_submit(client, msg)
        }

        fn on_commit(
            &mut self,
            client: ClientId,
            msg: faust_types::CommitMsg,
        ) -> Vec<(ClientId, ReplyMsg)> {
            self.inner.on_commit(client, msg)
        }

        fn resume_sessions(&mut self) -> Vec<SessionResume> {
            std::mem::take(&mut self.resume)
        }
    }

    #[test]
    fn a_resumed_value_is_hashed_only_where_verification_is_switched_on() {
        let keys = KeySet::generate(2, b"engine-tests");
        let recovered = || {
            Box::new(Recovered {
                inner: UstorServer::new(2),
                resume: vec![
                    SessionResume {
                        last_timestamp: 1,
                        last_value: Some(Value::from("durable")),
                        replies: Vec::new(),
                    },
                    SessionResume::default(),
                ],
            })
        };
        let c0 = ClientId::new(0);
        let engine = ServerEngine::new(2, recovered());
        assert_eq!(engine.session(c0).last_value_hash, None);
        let engine = ServerEngine::new(2, recovered()).with_verification(keys.registry());
        assert_eq!(
            engine.session(c0).last_value_hash,
            Some(sha256(Value::from("durable").as_bytes()))
        );
        assert_eq!(engine.session(ClientId::new(1)).last_value_hash, None);
    }

    #[test]
    fn verification_agrees_with_clients_after_resume_sessions() {
        // A restarted server: client 0 wrote "durable" (ts 1) and its read
        // (ts 2) was applied but never acknowledged. The new engine starts
        // from `resume_sessions` alone, and must decide right for: the
        // resent read, a forged write queued before an honest fresh read,
        // and a fresh write followed by a read of it.
        let keys = KeySet::generate(2, b"engine-tests");
        let mut client = UstorClient::new(
            ClientId::new(0),
            2,
            keys.keypair(0).unwrap().clone(),
            keys.registry(),
        );
        client.set_pipeline(4);
        let c0 = ClientId::new(0);
        let mut inner = UstorServer::new(2);
        let w1 = client.begin_write(Value::from("durable")).unwrap();
        let (_, reply_w1) = inner.on_submit(c0, w1).pop().unwrap();
        let (commit, _) = client.handle_reply(reply_w1.clone()).unwrap();
        inner.on_commit(c0, commit.expect("window empty: immediate commit"));
        let r2 = client.begin_read(c0).unwrap();
        let (_, reply_r2) = inner.on_submit(c0, r2.clone()).pop().unwrap();
        let resume = vec![
            SessionResume {
                last_timestamp: 2,
                last_value: Some(Value::from("durable")),
                replies: vec![(1, reply_w1), (2, reply_r2.clone())],
            },
            SessionResume::default(),
        ];
        let mut engine = ServerEngine::new(2, Box::new(Recovered { inner, resume }))
            .with_verification(keys.registry());
        let mut trace = Vec::new();
        let mut snapshot = |engine: &ServerEngine| {
            let s = engine.stats();
            let hash = engine.session(c0).last_value_hash;
            trace.push((s.rejected, s.duplicates, s.submits, hash));
        };

        // Round 1: [resent r2, forged write, honest r3] in one batch.
        let r3 = client.begin_read(c0).unwrap();
        let mut forged = r3.clone();
        forged.tuple.kind = OpKind::Write;
        forged.value = Some(Value::from("poison"));
        forged.tuple.sig = faust_crypto::Signature::garbage();
        forged.data_sig = faust_crypto::Signature::garbage();
        engine.enqueue(c0, UstorMsg::Submit(r2));
        engine.enqueue(c0, UstorMsg::Submit(forged));
        engine.enqueue(c0, UstorMsg::Submit(r3));
        engine.process_all();
        snapshot(&engine);
        let [(_, replayed), (_, reply_r3)]: [_; 2] = replies(&mut engine)
            .try_into()
            .unwrap_or_else(|out| panic!("{out:?}"));
        assert_eq!(replayed, reply_r2);
        client.handle_reply(replayed).expect("no false violation");
        let (_, done) = client.handle_reply(reply_r3).expect("honest read survives");
        assert_eq!(done.read_value, Some(Some(Value::from("durable"))));

        // Round 2: a fresh write and a read of it, in one batch.
        let w4 = client.begin_write(Value::from("new")).unwrap();
        let r5 = client.begin_read(c0).unwrap();
        engine.enqueue(c0, UstorMsg::Submit(w4));
        engine.enqueue(c0, UstorMsg::Submit(r5));
        engine.process_all();
        snapshot(&engine);
        let mut last_read = None;
        for (_, reply) in replies(&mut engine) {
            last_read = client.handle_reply(reply).unwrap().1.read_value;
        }
        assert_eq!(last_read, Some(Some(Value::from("new"))));
        let new_hash = Some(sha256(Value::from("new").as_bytes()));
        let old_hash = Some(sha256(Value::from("durable").as_bytes()));
        assert_eq!(trace, vec![(1, 1, 1, old_hash), (1, 1, 3, new_hash)]);
    }

    #[test]
    fn serve_drains_a_queue_transport() {
        let keys = KeySet::generate(1, b"engine-tests");
        let mut client = UstorClient::new(
            ClientId::new(0),
            1,
            keys.keypair(0).unwrap().clone(),
            keys.registry(),
        );
        let mut engine = ServerEngine::new(1, Box::new(UstorServer::new(1)));
        let mut transport = faust_net::QueueTransport::new();
        let submit = client.begin_write(Value::from("q")).unwrap();
        transport.push_incoming(ClientId::new(0), UstorMsg::Submit(submit));
        serve(&mut engine, &mut transport);
        let outputs: Vec<_> = transport.drain_outgoing().collect();
        assert_eq!(outputs.len(), 1);
        assert_eq!(outputs[0].0, ClientId::new(0));
    }
}
