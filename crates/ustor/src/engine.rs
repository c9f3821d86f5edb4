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
//! 3. the transport drains the replies with [`ServerEngine::poll_output`]
//!    or, per client, [`ServerEngine::poll_output_batch`].
//!
//! [`ServerEngine::round`] is those steps as one serve round. Because the
//! engine never performs I/O, the same round serves clients on threads of
//! the same process (the channel transport) and real TCP clients (the
//! reactor) — the [`serve`] loop works over any [`ServerTransport`], and
//! [`spawn_engine`] runs it on a thread — as well as the FAUST
//! simulator's server node, which calls the round directly inside
//! virtual time. The USTOR [`Driver`](crate::Driver) feeds [`serve`]
//! through [`faust_net::QueueTransport`].
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
//! # Ingress verification
//!
//! The USTOR protocol needs no server-side checks: every signature is
//! re-verified by clients, and a server that forwards garbage is detected
//! and pinned. A deployed service still wants to reject unauthenticated
//! traffic at the door (resource protection, not correctness). The engine
//! optionally does so, per message or batched
//! ([`IngressVerification`]). Batched mode drains the whole inbox first
//! and verifies all SUBMIT signatures through
//! [`Verifier::verify_batch`] — for Ed25519 keys that is one multi-scalar
//! batch equation over the whole inbox, measurably faster than
//! per-message verification (see `faust-bench/benches/protocol.rs` and
//! `faust-bench/benches/crypto.rs`); HMAC keys carry their key schedule
//! prepared, so both modes cost the same there.
//!
//! The hash `x̄` of a written value is computed once, as its SUBMIT is
//! queued, and only with verification on — nothing else reads it.
//!
//! Note on the trust model (`docs/trust-model.md` has the full story):
//! the engine takes a `dyn` [`Verifier`], and which keys stand behind it
//! decides whether ingress verification is *sound* in the paper's
//! Byzantine-server setting. An Ed25519 registry
//! ([`KeySet::generate_ed25519`](faust_crypto::KeySet::generate_ed25519))
//! holds public keys only — handing it to the server grants no forging
//! power, so rejection at the door is sound. An HMAC registry holds the
//! shared signing secrets
//! ([`VerifierRegistry::try_forge`](faust_crypto::VerifierRegistry::try_forge)
//! demonstrates the forgery), so HMAC-backed ingress verification is a
//! benchmarking/closed-deployment device only.

use crate::reply_cache::ReplyCache;
use crate::server::Server;
use faust_crypto::sha256::sha256;
use faust_crypto::sig::{SigContext, Verifier, VerifyItem};
use faust_crypto::Digest;
use faust_net::{Incoming, ServerTransport};
use faust_types::op::{data_signing_bytes, submit_signing_bytes};
use faust_types::{ClientId, OpKind, ReplyMsg, SubmitMsg, Timestamp, UstorMsg, Value};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Arc;

/// A shared, thread-safe signature verifier for ingress checks.
pub type SharedVerifier = Arc<dyn Verifier + Send + Sync>;

/// Whether (and how) the engine verifies SUBMIT signatures at ingress.
#[derive(Clone, Default)]
pub enum IngressVerification {
    /// Trust the transport; forward everything (the paper's model — all
    /// checking happens at clients). This is the default.
    #[default]
    Off,
    /// Verify each SUBMIT's signatures as it is processed.
    PerMessage(SharedVerifier),
    /// Drain the inbox and verify all queued SUBMITs as one batch,
    /// amortizing per-signer verifier setup.
    Batched(SharedVerifier),
}

impl std::fmt::Debug for IngressVerification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IngressVerification::Off => "Off",
            IngressVerification::PerMessage(_) => "PerMessage(..)",
            IngressVerification::Batched(_) => "Batched(..)",
        })
    }
}

/// Per-client connection/protocol state tracked by the engine.
#[derive(Debug, Clone, Default)]
pub struct Session {
    /// SUBMIT messages accepted from this client.
    pub submits: u64,
    /// COMMIT messages accepted from this client (piggybacked commits
    /// count here too).
    pub commits: u64,
    /// Messages dropped by ingress verification.
    pub rejected: u64,
    /// Timestamp of the last accepted SUBMIT (0 before the first).
    pub last_timestamp: Timestamp,
    /// Hash of the client's most recently written value (`x̄` as the
    /// server can reconstruct it); `None` before the first write.
    ///
    /// Maintained only under ingress verification, its one reader: with
    /// [`IngressVerification::Off`] no value is hashed — not a write's,
    /// not the one recovery handed over — and this stays `None`.
    pub last_value_hash: Option<Digest>,
    /// The last written value as recovery found it, until
    /// [`ServerEngine::with_verification`] turns it into
    /// `last_value_hash` or the client's next write supersedes it.
    resumed_value: Option<Value>,
    /// Resent SUBMITs recognised as duplicates (answered from the reply
    /// cache, never re-run through the protocol server).
    pub duplicates: u64,
    /// Timestamps of accepted SUBMITs whose replies have not yet been
    /// released, oldest first. A correct server answers SUBMITs FIFO per
    /// client, which is what lets the engine tag each released reply
    /// with the timestamp it answered.
    awaiting_reply: VecDeque<Timestamp>,
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

/// Aggregate engine counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// SUBMITs forwarded to the protocol server.
    pub submits: u64,
    /// COMMITs forwarded to the protocol server.
    pub commits: u64,
    /// Resent SUBMITs answered from the reply cache instead of being
    /// re-run (exactly-once ingress).
    pub duplicates: u64,
    /// Messages dropped by ingress verification.
    pub rejected: u64,
    /// Client messages of a kind only the server sends (ignored).
    pub nonsense: u64,
    /// Number of `process_all` rounds that processed at least one message.
    pub batches: u64,
    /// Largest number of messages processed in one round.
    pub max_batch: usize,
    /// Outbound messages handed to the transport.
    pub frames_out: u64,
    /// Transport hand-offs (one per [`ServerEngine::poll_output`] frame,
    /// one per [`ServerEngine::poll_output_batch`] *batch*). With a
    /// coalescing transport this is the number of socket writes, so
    /// `flushes < frames_out` is the measurable proof that egress
    /// batching works.
    pub flushes: u64,
    /// Largest per-client egress batch drained in one hand-off.
    pub max_egress_batch: usize,
}

/// The transport-agnostic server engine. See the module docs.
pub struct ServerEngine {
    n: usize,
    server: Box<dyn Server + Send>,
    sessions: Vec<Session>,
    /// Queued messages; a write queued under verification carries `x̄`.
    inbox: VecDeque<(ClientId, UstorMsg, Option<Digest>)>,
    outbox: VecDeque<(ClientId, UstorMsg)>,
    /// Per-client egress batches grouped out of the outbox by the last
    /// [`ServerEngine::poll_output_batch`] pass, in first-seen client
    /// order; always older than anything still in `outbox`.
    staged: VecDeque<(ClientId, Vec<UstorMsg>)>,
    verification: IngressVerification,
    stats: EngineStats,
}

impl std::fmt::Debug for ServerEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerEngine")
            .field("n", &self.n)
            .field("verification", &self.verification)
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
            verification: IngressVerification::Off,
            stats: EngineStats::default(),
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

    /// Sets the ingress-verification policy (builder style), before the
    /// first [`ServerEngine::enqueue`]: a write queued earlier carries no
    /// value hash and is rejected. Switching verification on is also
    /// where the values recovery handed over are hashed — a recovered
    /// server that never verifies never pays for that.
    pub fn with_verification(mut self, verification: IngressVerification) -> Self {
        if !matches!(verification, IngressVerification::Off) {
            for session in &mut self.sessions {
                if let Some(value) = session.resumed_value.take() {
                    session.last_value_hash = Some(sha256(value.as_bytes()));
                }
            }
        }
        self.verification = verification;
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

    /// Queues one inbound message. No processing happens until
    /// [`ServerEngine::process_all`].
    pub fn enqueue(&mut self, from: ClientId, msg: UstorMsg) {
        // The one place the engine hashes a value: `x̄` of a write, and
        // only when ingress verification will check signatures over it.
        let xbar = match (&self.verification, &msg) {
            (IngressVerification::Off, _) => None,
            (_, UstorMsg::Submit(submit)) if submit.tuple.kind == OpKind::Write => {
                submit.value.as_ref().map(|v| sha256(v.as_bytes()))
            }
            _ => None,
        };
        self.inbox.push_back((from, msg, xbar));
    }

    /// Removes the next outbound `(recipient, message)` pair.
    pub fn poll_output(&mut self) -> Option<(ClientId, UstorMsg)> {
        let out = match self.staged.front_mut() {
            // A grouping pass already staged batches: serve their frames
            // first (they are older than anything still in the outbox).
            Some((to, batch)) => {
                let msg = batch.remove(0);
                let to = *to;
                if batch.is_empty() {
                    self.staged.pop_front();
                }
                Some((to, msg))
            }
            None => self.outbox.pop_front(),
        };
        if out.is_some() {
            self.stats.frames_out += 1;
            self.stats.flushes += 1;
            self.stats.max_egress_batch = self.stats.max_egress_batch.max(1);
        }
        out
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

    /// The one funnel every released reply passes through: tags it with
    /// the SUBMIT timestamp it answers (per-client FIFO), caches it for
    /// duplicate replay, and queues it for the transport. Replies with
    /// no awaiting SUBMIT (a Byzantine server broadcasting) are passed
    /// through uncached.
    fn release_reply(&mut self, to: ClientId, reply: ReplyMsg) {
        if let Some(session) = self.sessions.get_mut(to.index()) {
            if let Some(ts) = session.awaiting_reply.pop_front() {
                session.replies.push(ts, Cow::Borrowed(&reply));
            }
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
    ///
    /// In [`IngressVerification::Batched`] mode, all queued SUBMITs are
    /// signature-checked in one [`Verifier::verify_batch`] call first;
    /// processing order is unchanged.
    pub fn process_all(&mut self) {
        if !self.inbox.is_empty() {
            let batch_len = self.inbox.len();
            self.stats.batches += 1;
            self.stats.max_batch = self.stats.max_batch.max(batch_len);

            let verdicts: Option<Vec<bool>> = match &self.verification {
                IngressVerification::Batched(verifier) => {
                    Some(self.verify_queued_batch(Arc::clone(verifier)))
                }
                _ => None,
            };
            for idx in 0..batch_len {
                let (from, msg, xbar) = self.inbox.pop_front().expect("counted above");
                if let Some(verdicts) = &verdicts {
                    if !verdicts[idx] {
                        self.reject(from);
                        continue;
                    }
                }
                self.process_one(from, msg, xbar);
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
    /// [`serve`] runs one round per gathered batch of ingress; the
    /// simulator's server node runs one per delivery, per virtual flush
    /// timer, and per connection kill.
    pub fn round(&mut self, closing: bool, mut sink: impl FnMut(ClientId, Vec<UstorMsg>)) {
        self.process_all();
        if closing {
            self.flush_server(true);
        }
        while let Some((to, batch)) = self.poll_output_batch() {
            sink(to, batch);
        }
    }

    /// Builds and checks the signature batch for every queued message.
    ///
    /// Two phases, so the verdicts match per-message processing exactly.
    /// Phase 1 verifies everything that does not depend on earlier queued
    /// messages: all SUBMIT signatures, plus the DATA signatures of
    /// writes (a write's `x̄` is the hash of its *own* value). Phase 2
    /// then walks the queue again, advancing a shadow copy of each
    /// session's last-value hash **only for writes that phase 1
    /// accepted**, and verifies the reads' DATA signatures against that
    /// shadow. A rejected write therefore cannot poison the expected `x̄`
    /// of an honest read queued behind it — per-message mode would have
    /// dropped the write and left the session hash untouched, and batched
    /// mode now agrees.
    fn verify_queued_batch(&mut self, verifier: SharedVerifier) -> Vec<bool> {
        // Phase 1: shadow-independent signatures.
        let mut items: Vec<VerifyItem> = Vec::new();
        // For message k: (well_formed, first item index, item count).
        let mut spans: Vec<(bool, usize, usize)> = Vec::with_capacity(self.inbox.len());
        for (from, msg, xbar) in &self.inbox {
            let UstorMsg::Submit(submit) = msg else {
                // Only SUBMITs carry ingress-checked signatures.
                spans.push((true, items.len(), 0));
                continue;
            };
            if from.index() >= self.n || submit.tuple.client != *from {
                spans.push((false, items.len(), 0));
                continue;
            }
            let start = items.len();
            items.push(VerifyItem {
                signer: from.as_u32(),
                context: SigContext::Submit,
                message: submit_signing_bytes(
                    submit.tuple.kind,
                    submit.tuple.register,
                    submit.timestamp,
                ),
                sig: submit.tuple.sig,
            });
            if submit.tuple.kind == OpKind::Write {
                items.push(VerifyItem {
                    signer: from.as_u32(),
                    context: SigContext::Data,
                    message: data_signing_bytes(submit.timestamp, *xbar),
                    sig: submit.data_sig,
                });
            }
            spans.push((true, start, items.len() - start));
        }
        let results = verifier.verify_batch(&items);
        let mut verdicts: Vec<bool> = spans
            .into_iter()
            .map(|(ok, start, count)| ok && results[start..start + count].iter().all(|&v| v))
            .collect();

        // Phase 2: reads, against the shadow hash advanced only by
        // accepted *fresh* writes. Resent duplicates (timestamp at or
        // below the session's shadow timestamp) are skipped entirely:
        // they will be answered from the reply cache without touching
        // server state, their DATA signatures cover a value hash the
        // session has since moved past, and letting them advance the
        // shadow would poison the checks of fresh traffic queued behind
        // them. Their SUBMIT signatures were still phase-1 checked.
        let mut shadow_hash: Vec<Option<Digest>> =
            self.sessions.iter().map(|s| s.last_value_hash).collect();
        let mut shadow_ts: Vec<Timestamp> =
            self.sessions.iter().map(|s| s.last_timestamp).collect();
        let mut read_items: Vec<VerifyItem> = Vec::new();
        let mut read_slots: Vec<usize> = Vec::new();
        for (idx, (from, msg, xbar)) in self.inbox.iter().enumerate() {
            let UstorMsg::Submit(submit) = msg else {
                continue;
            };
            if !verdicts[idx] {
                continue;
            }
            let i = from.index();
            if shadow_ts[i] > 0 && submit.timestamp <= shadow_ts[i] {
                continue; // duplicate: cache-answered, state untouched
            }
            shadow_ts[i] = submit.timestamp;
            match submit.tuple.kind {
                OpKind::Write => shadow_hash[i] = *xbar,
                OpKind::Read => {
                    read_items.push(VerifyItem {
                        signer: from.as_u32(),
                        context: SigContext::Data,
                        message: data_signing_bytes(submit.timestamp, shadow_hash[i]),
                        sig: submit.data_sig,
                    });
                    read_slots.push(idx);
                }
            }
        }
        for (slot, ok) in read_slots
            .into_iter()
            .zip(verifier.verify_batch(&read_items))
        {
            verdicts[slot] = verdicts[slot] && ok;
        }
        verdicts
    }

    /// Verifies one SUBMIT with individual [`Verifier::verify`] calls (the
    /// per-message path the batched mode is measured against).
    /// `write_hash` is the queued hash of the value `submit` writes.
    fn verify_one(
        &self,
        verifier: &SharedVerifier,
        from: ClientId,
        submit: &SubmitMsg,
        write_hash: Option<Digest>,
    ) -> bool {
        if from.index() >= self.n || submit.tuple.client != from {
            return false;
        }
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

    fn reject(&mut self, from: ClientId) {
        self.stats.rejected += 1;
        if let Some(session) = self.sessions.get_mut(from.index()) {
            session.rejected += 1;
        }
    }

    /// `xbar` is the hash queued with `msg` by [`ServerEngine::enqueue`].
    fn process_one(&mut self, from: ClientId, msg: UstorMsg, xbar: Option<Digest>) {
        match msg {
            UstorMsg::Submit(submit) => {
                if let IngressVerification::PerMessage(verifier) = &self.verification {
                    let verifier = Arc::clone(verifier);
                    if !self.verify_one(&verifier, from, &submit, xbar) {
                        self.reject(from);
                        return;
                    }
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
                if let Some(session) = self.sessions.get_mut(from.index()) {
                    if session.last_timestamp > 0 && submit.timestamp <= session.last_timestamp {
                        session.duplicates += 1;
                        self.stats.duplicates += 1;
                        if let Some(reply) = session.replies.lookup(submit.timestamp).cloned() {
                            self.outbox.push_back((from, UstorMsg::Reply(reply)));
                        }
                        return;
                    }
                }
                if let Some(session) = self.sessions.get_mut(from.index()) {
                    session.submits += 1;
                    session.last_timestamp = submit.timestamp;
                    session.awaiting_reply.push_back(submit.timestamp);
                    if submit.tuple.kind == OpKind::Write {
                        session.resumed_value = None;
                        if !matches!(self.verification, IngressVerification::Off) {
                            session.last_value_hash = xbar;
                        }
                    }
                    if let Some(commit) = &submit.piggyback {
                        session.commits += 1;
                        session
                            .replies
                            .committed(ReplyCache::acknowledged(from, commit));
                    }
                }
                self.stats.submits += 1;
                for (rcpt, reply) in self.server.on_submit(from, submit) {
                    self.release_reply(rcpt, reply);
                }
            }
            UstorMsg::Commit(commit) => {
                if let Some(session) = self.sessions.get_mut(from.index()) {
                    session.commits += 1;
                    session
                        .replies
                        .committed(ReplyCache::acknowledged(from, &commit));
                }
                self.stats.commits += 1;
                for (rcpt, reply) in self.server.on_commit(from, commit) {
                    self.release_reply(rcpt, reply);
                }
            }
            // Clients never legitimately send REPLY; ignore quietly.
            UstorMsg::Reply(_) => {
                self.stats.nonsense += 1;
            }
        }
    }
}

/// Runs an engine over a transport until the transport closes (blocking
/// transports) or drains ([`Incoming::Idle`], deterministic transports).
///
/// Each round greedily gathers every message already available before
/// processing, so batched ingress verification and group-commit fsyncs
/// see real batches under load while an idle connection still gets
/// per-message latency. While the server holds replies back for
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
        let mut closed = false;
        let first = match engine.flush_deadline() {
            Some(deadline) => transport.recv_deadline(deadline),
            None => transport.recv(),
        };
        match first {
            Incoming::Msg(from, msg) => engine.enqueue(from, msg),
            Incoming::TimedOut => {} // flush is due; fall through
            Incoming::Idle | Incoming::Closed => closed = true,
        }
        if !closed {
            // Gather whatever else has already arrived.
            loop {
                match transport.try_recv() {
                    Incoming::Msg(from, msg) => engine.enqueue(from, msg),
                    Incoming::Idle | Incoming::TimedOut => break,
                    Incoming::Closed => {
                        closed = true;
                        break;
                    }
                }
            }
        }
        // A closing round is the last chance to release held replies.
        engine.round(closed, |to, batch| transport.send_batch(to, batch));
        if closed {
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

    fn setup(
        n: usize,
        verification: impl Fn(&KeySet) -> IngressVerification,
    ) -> (ServerEngine, Vec<UstorClient>) {
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
        let engine = ServerEngine::new(n, Box::new(UstorServer::new(n)))
            .with_verification(verification(&keys));
        (engine, clients)
    }

    fn registry(keys: &KeySet) -> SharedVerifier {
        Arc::new(keys.registry())
    }

    fn mode(batched: bool, keys: &KeySet) -> IngressVerification {
        if batched {
            IngressVerification::Batched(registry(keys))
        } else {
            IngressVerification::PerMessage(registry(keys))
        }
    }

    /// Runs one full op through the engine, asserting the reply routes
    /// back to the submitter.
    fn run_op(engine: &mut ServerEngine, client: &mut UstorClient, submit: faust_types::SubmitMsg) {
        let id = client.id();
        engine.enqueue(id, UstorMsg::Submit(submit));
        engine.process_all();
        let (to, reply) = engine.poll_output().expect("one reply");
        assert_eq!(to, id);
        let UstorMsg::Reply(reply) = reply else {
            panic!("expected a reply");
        };
        let (commit, _) = client.handle_reply(reply).expect("correct server");
        engine.enqueue(id, UstorMsg::Commit(commit.expect("immediate mode")));
        engine.process_all();
        assert!(engine.poll_output().is_none(), "commit produces no reply");
    }

    #[test]
    fn engine_matches_direct_server_behavior() {
        let (mut engine, mut clients) = setup(2, |_| IngressVerification::Off);
        let submit = clients[0].begin_write(Value::from("v1")).unwrap();
        run_op(&mut engine, &mut clients[0], submit);
        let submit = clients[1].begin_read(ClientId::new(0)).unwrap();
        run_op(&mut engine, &mut clients[1], submit);
        assert_eq!(engine.stats().submits, 2);
        assert_eq!(engine.stats().commits, 2);
        assert_eq!(engine.session(ClientId::new(0)).last_timestamp, 1);
    }

    #[test]
    fn honest_traffic_passes_both_verification_modes() {
        for batched in [false, true] {
            let (mut engine, mut clients) = setup(3, |keys| mode(batched, keys));
            // Writes then cross-reads, including a read of an unwritten
            // register (x̄ = ⊥ for the never-written client 2).
            let submit = clients[0].begin_write(Value::from("a")).unwrap();
            run_op(&mut engine, &mut clients[0], submit);
            let submit = clients[0].begin_read(ClientId::new(2)).unwrap();
            run_op(&mut engine, &mut clients[0], submit);
            let submit = clients[2].begin_read(ClientId::new(0)).unwrap();
            run_op(&mut engine, &mut clients[2], submit);
            assert_eq!(engine.stats().rejected, 0, "batched={batched}");
        }
    }

    #[test]
    fn batched_mode_checks_reads_against_queued_writes() {
        // A write and a subsequent read by the same client verified in the
        // SAME batch: the read's DATA signature covers the new value's
        // hash, which only the shadow-tracking batch builder can know.
        let (mut engine, mut clients) =
            setup(2, |keys| IngressVerification::Batched(registry(keys)));
        let w = clients[0].begin_write(Value::from("fresh")).unwrap();
        engine.enqueue(ClientId::new(0), UstorMsg::Submit(w));
        engine.process_all();
        let (_, UstorMsg::Reply(reply)) = engine.poll_output().unwrap() else {
            panic!("expected reply");
        };
        let (commit, _) = clients[0].handle_reply(reply).unwrap();
        // Queue the commit AND the next read together.
        engine.enqueue(ClientId::new(0), UstorMsg::Commit(commit.unwrap()));
        let r = clients[0].begin_read(ClientId::new(0)).unwrap();
        engine.enqueue(ClientId::new(0), UstorMsg::Submit(r));
        engine.process_all();
        assert_eq!(engine.stats().rejected, 0);
        let (_, UstorMsg::Reply(reply)) = engine.poll_output().unwrap() else {
            panic!("expected reply");
        };
        let (_, done) = clients[0].handle_reply(reply).unwrap();
        assert_eq!(done.read_value, Some(Some(Value::from("fresh"))));
    }

    #[test]
    fn forged_submits_are_rejected_in_both_modes() {
        for batched in [false, true] {
            let (mut engine, mut clients) = setup(2, |keys| mode(batched, keys));
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
            assert_eq!(engine.stats().rejected, 3, "batched={batched}");
            assert_eq!(engine.stats().submits, 1, "batched={batched}");
            // Only the genuine submit got a reply.
            let mut replies = 0;
            while engine.poll_output().is_some() {
                replies += 1;
            }
            assert_eq!(replies, 1, "batched={batched}");
        }
    }

    #[test]
    fn rejected_write_does_not_poison_a_queued_honest_read() {
        // A forged write queued before the same client's genuine read, in
        // ONE batch: the write must be rejected and the read accepted
        // against the client's *previous* value hash — identical to what
        // per-message processing decides. (A naive batch builder that
        // advances the shadow hash for unverified writes rejects the
        // honest read here.)
        for batched in [false, true] {
            let (mut engine, mut clients) = setup(2, |keys| mode(batched, keys));
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
            assert_eq!(engine.stats().rejected, 1, "batched={batched}");
            assert_eq!(engine.stats().submits, 2, "batched={batched}");
            let (_, UstorMsg::Reply(reply)) = engine.poll_output().unwrap() else {
                panic!("expected the honest read's reply");
            };
            let (_, done) = clients[0]
                .handle_reply(reply)
                .expect("honest read must survive the forged write");
            assert_eq!(done.read_value, Some(Some(Value::from("genuine"))));
        }
    }

    #[test]
    fn out_of_range_sender_is_rejected_not_panicking() {
        let keys = KeySet::generate(2, b"engine-tests");
        let mut engine = ServerEngine::new(2, Box::new(UstorServer::new(2)))
            .with_verification(IngressVerification::Batched(Arc::new(keys.registry())));
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
        let (mut engine, mut clients) = setup(2, |_| IngressVerification::Off);
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
    /// cannot be imported here).
    struct HoldingServer {
        inner: UstorServer,
        held: Vec<(ClientId, faust_types::ReplyMsg)>,
    }

    impl Server for HoldingServer {
        fn on_submit(
            &mut self,
            client: ClientId,
            msg: faust_types::SubmitMsg,
        ) -> Vec<(ClientId, faust_types::ReplyMsg)> {
            let replies = self.inner.on_submit(client, msg);
            self.held.extend(replies);
            Vec::new()
        }

        fn on_commit(
            &mut self,
            client: ClientId,
            msg: faust_types::CommitMsg,
        ) -> Vec<(ClientId, faust_types::ReplyMsg)> {
            self.inner.on_commit(client, msg)
        }

        fn flush(&mut self, force: bool) -> Vec<(ClientId, faust_types::ReplyMsg)> {
            // Policy never satisfied on its own: only a *forced* flush
            // (transport closing) releases — the strictest test of the
            // serve loop's no-stranded-replies guarantee.
            if force {
                std::mem::take(&mut self.held)
            } else {
                Vec::new()
            }
        }

        fn flush_deadline(&self) -> Option<std::time::Instant> {
            (!self.held.is_empty()).then(std::time::Instant::now)
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
        let holding = HoldingServer {
            inner: UstorServer::new(1),
            held: Vec::new(),
        };
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
        let (mut engine, mut clients) = setup(2, |_| IngressVerification::Off);
        let w = clients[0].begin_write(Value::from("v1")).unwrap();
        run_op(&mut engine, &mut clients[0], w);
        // An in-flight read whose ack is "lost with the socket".
        let r = clients[0].begin_read(ClientId::new(0)).unwrap();
        engine.enqueue(ClientId::new(0), UstorMsg::Submit(r.clone()));
        engine.process_all();
        let (_, original) = engine.poll_output().expect("original reply");
        // The client reconnects and replays the identical SUBMIT bytes.
        engine.enqueue(ClientId::new(0), UstorMsg::Submit(r));
        engine.process_all();
        let (to, replayed) = engine.poll_output().expect("replayed reply");
        assert_eq!(to, ClientId::new(0));
        assert_eq!(replayed.encode(), original.encode(), "byte-identical");
        assert!(engine.poll_output().is_none());
        assert_eq!(engine.stats().duplicates, 1);
        assert_eq!(engine.session(ClientId::new(0)).duplicates, 1);
        // The duplicate never reached the protocol server: only the two
        // genuine submits were forwarded.
        assert_eq!(engine.stats().submits, 2);
    }

    fn cached(engine: &ServerEngine, client: ClientId) -> Vec<Timestamp> {
        engine.session(client).replies().timestamps().collect()
    }

    #[test]
    fn lockstep_commits_leave_exactly_one_cached_reply() {
        let (mut engine, mut clients) = setup(2, |_| IngressVerification::Off);
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
            let (mut engine, mut clients) = setup(2, |_| IngressVerification::Off);
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
                while let Some((_, UstorMsg::Reply(reply))) = engine.poll_output() {
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
        let (mut engine, mut clients) = setup(2, |_| IngressVerification::Off);
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
        while let Some((_, UstorMsg::Reply(reply))) = engine.poll_output() {
            client.handle_reply(reply).expect("correct server");
        }
        let expect: Vec<Timestamp> = (ops - REPLY_CACHE_CAP as Timestamp + 1..=ops).collect();
        assert_eq!(cached(&engine, c0), expect);
    }

    #[test]
    fn resent_window_passes_ingress_verification_in_both_modes() {
        // A pipelined window [read, write] resent in full after a lost
        // connection: the read's DATA signature covers the value hash
        // *before* the write, so naive re-verification would reject it.
        // Duplicates are gated on their SUBMIT signature alone, answered
        // from the cache, and must not poison the shadow hash that fresh
        // traffic queued behind them is verified against.
        for batched in [false, true] {
            let (mut engine, mut clients) = setup(2, |keys| mode(batched, keys));
            clients[0].set_pipeline(3);
            let w1 = clients[0].begin_write(Value::from("old")).unwrap();
            run_op(&mut engine, &mut clients[0], w1);
            let r2 = clients[0].begin_read(ClientId::new(0)).unwrap();
            let w3 = clients[0].begin_write(Value::from("new")).unwrap();
            engine.enqueue(ClientId::new(0), UstorMsg::Submit(r2.clone()));
            engine.enqueue(ClientId::new(0), UstorMsg::Submit(w3.clone()));
            engine.process_all();
            assert_eq!(engine.stats().rejected, 0, "batched={batched}");
            let (_, UstorMsg::Reply(reply_r2)) = engine.poll_output().unwrap() else {
                panic!("expected r2's reply");
            };
            let (_, UstorMsg::Reply(reply_w3)) = engine.poll_output().unwrap() else {
                panic!("expected w3's reply");
            };
            // Both acks are lost; the whole window is replayed, with a
            // fresh read queued behind it in the same batch.
            engine.enqueue(ClientId::new(0), UstorMsg::Submit(r2));
            engine.enqueue(ClientId::new(0), UstorMsg::Submit(w3));
            engine.process_all();
            assert_eq!(engine.stats().rejected, 0, "batched={batched}");
            assert_eq!(engine.stats().duplicates, 2, "batched={batched}");
            let (_, UstorMsg::Reply(rr2)) = engine.poll_output().unwrap() else {
                panic!("expected r2's replay");
            };
            let (_, UstorMsg::Reply(rw3)) = engine.poll_output().unwrap() else {
                panic!("expected w3's replay");
            };
            assert_eq!(rr2, reply_r2, "batched={batched}");
            assert_eq!(rw3, reply_w3, "batched={batched}");
            // The fail-aware client accepts the replayed replies without
            // a false violation, and a fresh read still verifies.
            clients[0].handle_reply(rr2).expect("no false violation");
            clients[0].handle_reply(rw3).expect("no false violation");
            let r4 = clients[0].begin_read(ClientId::new(0)).unwrap();
            engine.enqueue(ClientId::new(0), UstorMsg::Submit(r4));
            engine.process_all();
            assert_eq!(engine.stats().rejected, 0, "batched={batched}");
            let (_, UstorMsg::Reply(reply_r4)) = engine.poll_output().unwrap() else {
                panic!("expected r4's reply");
            };
            let (_, done) = clients[0].handle_reply(reply_r4).unwrap();
            assert_eq!(done.read_value, Some(Some(Value::from("new"))));
        }
    }

    #[test]
    fn value_hash_is_maintained_only_under_verification() {
        // `Off` (what `faust serve` ships) must not hash written values:
        // the session hash, the digest's one resting place, stays unset.
        let (mut engine, mut clients) = setup(2, |_| IngressVerification::Off);
        let w = clients[0].begin_write(Value::from("unhashed")).unwrap();
        engine.enqueue(ClientId::new(0), UstorMsg::Submit(w.clone()));
        assert!(
            engine.inbox.iter().all(|(_, _, xbar)| xbar.is_none()),
            "no digest is computed at ingress"
        );
        engine.process_all();
        assert_eq!(engine.stats().submits, 1);
        assert_eq!(engine.session(ClientId::new(0)).last_value_hash, None);

        // Under either verification mode it is computed once, as the
        // SUBMIT is queued, and lands in the session.
        let expect = Some(sha256(Value::from("hashed").as_bytes()));
        for batched in [false, true] {
            let (mut engine, mut clients) = setup(2, |keys| mode(batched, keys));
            let w = clients[0].begin_write(Value::from("hashed")).unwrap();
            engine.enqueue(ClientId::new(0), UstorMsg::Submit(w));
            assert_eq!(engine.inbox[0].2, expect, "batched={batched}");
            engine.process_all();
            assert_eq!(engine.stats().rejected, 0, "batched={batched}");
            assert_eq!(
                engine.session(ClientId::new(0)).last_value_hash,
                expect,
                "batched={batched}"
            );
        }
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
        let engine = engine.with_verification(IngressVerification::Off);
        assert_eq!(engine.session(c0).last_value_hash, None);
        for batched in [false, true] {
            let engine = ServerEngine::new(2, recovered()).with_verification(mode(batched, &keys));
            assert_eq!(
                engine.session(c0).last_value_hash,
                Some(sha256(Value::from("durable").as_bytes()))
            );
            assert_eq!(engine.session(ClientId::new(1)).last_value_hash, None);
        }
    }

    #[test]
    fn modes_agree_verdict_for_verdict_after_resume_sessions() {
        // A restarted server: client 0 wrote "durable" (ts 1) and its read
        // (ts 2) was applied but never acknowledged. The new engine starts
        // from `resume_sessions` alone, and must decide the same in both
        // modes for: the resent read, a forged write queued before an
        // honest fresh read, and a fresh write followed by a read of it.
        let mut traces = Vec::new();
        for batched in [false, true] {
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
                .with_verification(mode(batched, &keys));
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
            let (_, UstorMsg::Reply(replayed)) = engine.poll_output().unwrap() else {
                panic!("expected r2's replay");
            };
            assert_eq!(replayed, reply_r2, "batched={batched}");
            client.handle_reply(replayed).expect("no false violation");
            let (_, UstorMsg::Reply(reply_r3)) = engine.poll_output().unwrap() else {
                panic!("expected r3's reply");
            };
            let (_, done) = client.handle_reply(reply_r3).expect("honest read survives");
            assert_eq!(done.read_value, Some(Some(Value::from("durable"))));
            assert!(engine.poll_output().is_none(), "batched={batched}");

            // Round 2: a fresh write and a read of it, in one batch.
            let w4 = client.begin_write(Value::from("new")).unwrap();
            let r5 = client.begin_read(c0).unwrap();
            engine.enqueue(c0, UstorMsg::Submit(w4));
            engine.enqueue(c0, UstorMsg::Submit(r5));
            engine.process_all();
            snapshot(&engine);
            let mut last_read = None;
            while let Some((_, UstorMsg::Reply(reply))) = engine.poll_output() {
                last_read = client.handle_reply(reply).unwrap().1.read_value;
            }
            assert_eq!(last_read, Some(Some(Value::from("new"))));
            traces.push(trace);
        }
        let new_hash = Some(sha256(Value::from("new").as_bytes()));
        let old_hash = Some(sha256(Value::from("durable").as_bytes()));
        assert_eq!(traces[0], vec![(1, 1, 1, old_hash), (1, 1, 3, new_hash)]);
        assert_eq!(traces[0], traces[1], "per-message vs batched");
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
