//! The first-class fail-aware client API: live [`FaustHandle`] sessions
//! with pipelined operations and a typed [`Event`] stream.
//!
//! Everything the paper promises an *application* — completion
//! timestamps, stability cuts, and accurate violation alerts — surfaces
//! here as ordered, typed events instead of post-hoc report fields:
//!
//! * [`FaustHandle::write`] / [`FaustHandle::read`] are **non-blocking**:
//!   they return an [`OpTicket`] immediately. Up to
//!   [`FaustConfig::pipeline`] operations travel concurrently; the rest
//!   queue behind them.
//! * [`FaustHandle::poll`] drives the session without blocking;
//!   [`FaustHandle::wait`] blocks until one ticket's completion;
//!   [`FaustHandle::run_for`] runs the event loop for a fixed duration
//!   (probes and dummy reads run off the handle's internal protocol
//!   clock either way, and group-commit servers that hold replies back
//!   are simply waited out).
//! * Fail-awareness arrives as [`Event::Stable`] and [`Event::Violation`];
//!   transport loss as [`Event::Disconnected`].
//!
//! The sans-io half of the handle is [`SessionCore`]: the ticket/event
//! bookkeeping over a [`FaustClient`], with no clock and no transport.
//! The deterministic simulation driver ([`crate::FaustDriver`]) drives a
//! `SessionCore` per client inside virtual time; [`FaustHandle`] wraps
//! one around a real [`ClientConn`] and an [`Instant`]-based clock.
//! Both therefore run the *identical* protocol and event semantics.
//!
//! # Event ordering guarantees
//!
//! Events are delivered in the order the protocol produced them:
//!
//! * [`Event::Completed`] events appear in ticket order — operations are
//!   scheduled and answered FIFO per client, pipelined or not.
//! * An [`Event::Stable`] cut never moves backwards: each cut dominates
//!   every cut delivered before it.
//! * After an [`Event::Violation`] the session is halted: no further
//!   `Completed` or `Stable` events will ever be delivered.
//!
//! # Lifecycle
//!
//! A handle owns exactly one [`ClientConn`] at a time.
//! If the transport fails, the session state (version vectors, stability
//! machinery, queued work) survives: [`Event::Disconnected`] is emitted
//! once with a typed [`DisconnectCause`], and the session retains every
//! signed-but-unacknowledged SUBMIT — plus the latest COMMIT, whose
//! PROOF-signature other clients need to anchor this client's next
//! pending operation — in its **resend window**. On
//! [`FaustHandle::reconnect`] — manual, or automatic through a
//! [`faust_net::ClientDialer`] installed with
//! [`FaustHandle::with_auto_reconnect`] — the window is replayed first,
//! every message in full (a COMMIT that first went out as a
//! [`CommitDelta`] against its REPLY is replayed as the full COMMIT, since
//! the new connection never saw that REPLY); the server treats a SUBMIT
//! whose timestamp it has already processed as a duplicate and re-issues
//! the original REPLY, so every operation completes exactly once even
//! when the ack was lost with the socket. Auto-reconnect redials under a
//! [`ReconnectPolicy`] (capped exponential backoff with seeded jitter),
//! emitting [`Event::Reconnecting`] per scheduled attempt and
//! [`Event::Resumed`] when a dial succeeds. Clean shutdown is
//! [`FaustHandle::disconnect`] or dropping the handle.

use crate::client::{Actions, FaustClient, FaustClientState, FaustConfig, UserOp};
use crate::events::{FailReason, FaustCompletion, Notification, StabilityCut};
use crate::offline::OfflineMsg;
use faust_crypto::sig::{KeySet, Keypair, SigScheme, VerifierRegistry};
use faust_net::{ClientConn, ClientDialer, TransportClosed};
use faust_sim::SmallRng;
use faust_types::{ClientId, CommitDelta, ReplyMsg, Sink, UstorMsg, Value, Wire, WireError};
use faust_ustor::CommitMode;
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

/// Identifies one submitted user operation of a [`FaustHandle`] /
/// [`SessionCore`]. Tickets are issued in submission order and complete
/// in the same order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpTicket(u64);

impl OpTicket {
    /// The ticket's sequence number (0-based submission order).
    pub fn index(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for OpTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op#{}", self.0)
    }
}

/// A typed, ordered event from a fail-aware session — the application's
/// view of Definition 5 (see the module docs for ordering guarantees).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A user operation completed, with its fail-aware timestamp.
    Completed {
        /// The ticket returned when the operation was submitted.
        ticket: OpTicket,
        /// Timestamp, kind, and (for reads) the value.
        completion: FaustCompletion,
    },
    /// `stable_i(W)`: the stability cut advanced.
    Stable {
        /// The new cut; dominates every previously delivered cut.
        cut: StabilityCut,
    },
    /// `fail_i`: proof of server misbehaviour. The session has halted —
    /// this is the last protocol event it will ever deliver.
    Violation {
        /// Why the server stands convicted.
        reason: FailReason,
    },
    /// The transport to the server failed. Session state is intact;
    /// [`FaustHandle::reconnect`] (or auto-reconnect) resumes it.
    Disconnected {
        /// What the loss looked like from this side of the wire.
        reason: DisconnectCause,
    },
    /// Auto-reconnect scheduled its next dial attempt.
    Reconnecting {
        /// 1-based attempt number since the last confirmed resume.
        attempt: u32,
        /// How long the session waits before this attempt dials.
        backoff: Duration,
    },
    /// Auto-reconnect (re-)established a connection; the resend window
    /// has been queued for replay.
    Resumed,
}

/// The client-side classification of a transport loss.
///
/// The wire cannot carry the server's typed
/// [`faust_net::reactor::DisconnectReason`](crate::handle) to a peer it
/// just hung up on, so the handle classifies by shape: a connection that
/// dies **before any message arrives on it** looks exactly like the
/// reactor's shed-on-accept (admission control accepts, then closes) and
/// is reported as [`DisconnectCause::Overloaded`]; a connection that had
/// been exchanging traffic is [`DisconnectCause::TransportLoss`]. The
/// [`ReconnectPolicy`] backs off harder on `Overloaded` — hammering an
/// overloaded server with immediate redials is how clients turn load
/// into collapse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisconnectCause {
    /// The connection died after carrying traffic: a crash, restart, or
    /// network fault.
    TransportLoss,
    /// The connection was closed before any message arrived — the
    /// shed-on-accept shape of a server refusing new load.
    Overloaded,
}

impl std::fmt::Display for DisconnectCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DisconnectCause::TransportLoss => f.write_str("transport loss"),
            DisconnectCause::Overloaded => f.write_str("shed by an overloaded server"),
        }
    }
}

/// Backoff schedule of an auto-reconnecting [`FaustHandle`]: capped
/// exponential with seeded jitter, a per-attempt connect timeout, and an
/// attempt budget.
///
/// The delay before attempt `k` (1-based) is drawn uniformly from
/// `[base/2, base]` where `base = initial_backoff · 2^(k-1)` (plus
/// [`ReconnectPolicy::overload_penalty`] extra doublings when the last
/// disconnect was [`DisconnectCause::Overloaded`]), capped at
/// [`ReconnectPolicy::max_backoff`]. Jitter comes from a [`SmallRng`]
/// seeded with `jitter_seed ^ client id`, so a fleet of clients sharing
/// a config still spreads its redials instead of stampeding in sync —
/// deterministically per seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Backoff before the first retry (pre-jitter).
    pub initial_backoff: Duration,
    /// Upper bound on any single backoff (pre-jitter).
    pub max_backoff: Duration,
    /// Attempts allowed since the last confirmed resume; once exhausted
    /// the handle stays disconnected (manual [`FaustHandle::reconnect`]
    /// still works and re-arms the budget).
    pub max_attempts: u32,
    /// Hard bound on each dial attempt ([`ClientDialer::dial`]).
    pub connect_timeout: Duration,
    /// Seed for the jitter stream (mixed with the client id).
    pub jitter_seed: u64,
    /// Extra backoff doublings applied when the previous disconnect was
    /// [`DisconnectCause::Overloaded`].
    pub overload_penalty: u32,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(5),
            max_attempts: u32::MAX,
            connect_timeout: Duration::from_secs(2),
            jitter_seed: 0,
            overload_penalty: 2,
        }
    }
}

impl ReconnectPolicy {
    /// The jittered delay before `attempt` (1-based), given how the last
    /// connection ended.
    fn backoff(&self, attempt: u32, cause: DisconnectCause, rng: &mut SmallRng) -> Duration {
        let doublings = (attempt - 1).saturating_add(match cause {
            DisconnectCause::Overloaded => self.overload_penalty,
            DisconnectCause::TransportLoss => 0,
        });
        let base_ms = (self.initial_backoff.as_millis() as u64)
            .max(1)
            .checked_shl(doublings.min(32))
            .unwrap_or(u64::MAX)
            .min(self.max_backoff.as_millis() as u64)
            .max(1);
        Duration::from_millis(rng.gen_range_inclusive(base_ms / 2, base_ms))
    }
}

/// Resilience counters of a [`FaustHandle`] — what the session's
/// transport lifecycle actually did (exported by the chaos e2e as its CI
/// artifact).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HandleStats {
    /// Transport losses observed ([`Event::Disconnected`] emissions).
    pub disconnects: u64,
    /// Losses classified as [`DisconnectCause::Overloaded`].
    pub overload_sheds: u64,
    /// Dial attempts made by auto-reconnect.
    pub dial_attempts: u64,
    /// Successful redials (auto or manual [`FaustHandle::reconnect`]).
    pub resumes: u64,
    /// SUBMITs replayed from the resend window that had already been on
    /// a previous wire (exactly-once resends, not first sends).
    pub resent_submits: u64,
}

/// Why [`FaustHandle::wait`] gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitError {
    /// The timeout elapsed before the operation completed.
    Timeout,
    /// The transport failed (and the operation had not completed).
    Disconnected,
    /// The session detected a server violation and halted.
    Violation(FailReason),
}

impl std::fmt::Display for WaitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaitError::Timeout => f.write_str("timed out waiting for the operation"),
            WaitError::Disconnected => {
                f.write_str("transport failed before the operation completed")
            }
            WaitError::Violation(reason) => write!(f, "session halted: {reason}"),
        }
    }
}

impl std::error::Error for WaitError {}

/// What a [`SessionCore`] entry point asks its embedding to transmit:
/// messages for the storage server and messages for the offline
/// client-to-client medium. (Events are *not* here — they accumulate in
/// the core and are drained with [`SessionCore::take_events`].)
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SessionOutput {
    /// Messages for the storage server, in order.
    pub to_server: Vec<UstorMsg>,
    /// Offline messages for other clients.
    pub offline: Vec<(ClientId, OfflineMsg)>,
}

/// Serializable snapshot of a [`SessionCore`]'s resumable state (keys
/// excluded — the caller re-supplies the keypair and registry on
/// restore). Produced by [`SessionCore::export_state`], consumed by
/// [`SessionCore::from_state`]; `faust-store`'s session-file container
/// persists its wire encoding with a checksum.
///
/// Undelivered events and untaken results are deliberately *not* part of
/// the state: they are addressed to the embedding that was running when
/// they fired, and a process that saves its session has already drained
/// what it cared about. Tickets, the resend window, and every protocol
/// invariant survive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionState {
    /// The protocol client's resumable state.
    pub proto: FaustClientState,
    /// The session's protocol clock (milliseconds) at export time. A
    /// resuming embedding continues its clock from here, so probe
    /// periods and event stamps stay monotone across the restart.
    pub clock: u64,
    /// The next [`OpTicket`] sequence number to issue.
    pub next_ticket: u64,
    /// Tickets of submitted-but-uncompleted user operations, oldest
    /// first.
    pub pending_tickets: Vec<u64>,
    /// The resend window: signed-but-unacknowledged SUBMITs plus the
    /// latest COMMIT, in wire order. Each is the full message — a COMMIT
    /// that went out as a [`CommitDelta`] is kept whole — so it replays
    /// on any connection. Decoding rejects what no session holds: a
    /// REPLY ([`WireError::BadTag`]`(1)`), a delta COMMIT (`BadTag(3)`)
    /// or a second standalone COMMIT (`BadTag(2)`).
    pub resend_window: Vec<UstorMsg>,
}

impl Wire for SessionState {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        self.proto.encode_into(out);
        self.clock.encode_into(out);
        self.next_ticket.encode_into(out);
        self.pending_tickets.encode_into(out);
        self.resend_window.encode_into(out);
    }

    fn decode_from(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(SessionState {
            proto: FaustClientState::decode_from(buf)?,
            clock: u64::decode_from(buf)?,
            next_ticket: u64::decode_from(buf)?,
            pending_tickets: Vec::<u64>::decode_from(buf)?,
            resend_window: decode_resend_window(buf)?,
        })
    }
}

/// A resend window as [`SessionCore::retain_for_resend`] builds it: SUBMITs
/// and at most one standalone COMMIT, every one full. Anything else would
/// be replayed to a server on a new connection — a REPLY the server never
/// expects, a delta whose base that connection never saw, or a COMMIT a
/// newer one subsumed.
fn decode_resend_window(buf: &mut &[u8]) -> Result<Vec<UstorMsg>, WireError> {
    let window = Vec::<UstorMsg>::decode_from(buf)?;
    let mut commits = 0;
    for msg in &window {
        match msg {
            UstorMsg::Submit(_) => {}
            UstorMsg::Commit(_) if commits == 0 => commits += 1,
            UstorMsg::Commit(_) => return Err(WireError::BadTag(2)),
            UstorMsg::Reply(_) => return Err(WireError::BadTag(1)),
            UstorMsg::CommitDelta(_) => return Err(WireError::BadTag(3)),
        }
    }
    Ok(window)
}

/// The sans-io half of a fail-aware session: ticket and event bookkeeping
/// over a [`FaustClient`], with no clock and no transport.
///
/// Every entry point takes the current protocol time (milliseconds) and
/// returns the [`SessionOutput`] the embedding must transmit; events
/// accumulate internally, stamped with that time. [`FaustHandle`] drives
/// one against wall-clock time; [`crate::FaustDriver`] drives one per
/// simulated client inside virtual time — same code, same semantics.
#[derive(Debug)]
pub struct SessionCore {
    proto: FaustClient,
    next_ticket: u64,
    /// Tickets of submitted-but-uncompleted user operations, oldest
    /// first (the protocol completes user operations FIFO).
    pending_tickets: VecDeque<OpTicket>,
    /// The **resend window**: every signed SUBMIT (user ops and dummy
    /// reads alike) whose REPLY has not yet been processed, plus the
    /// latest COMMIT, in wire order, each in full — a COMMIT that went
    /// on the wire as a [`CommitDelta`] is held as the
    /// [`CommitMsg`](faust_types::CommitMsg) it stands for, since a
    /// replay goes out on a new connection, where the delta's base is
    /// not known. Replies consume the window FIFO (a reply proves FIFO
    /// delivery of everything sent before the SUBMIT it answers); on a
    /// reconnect the embedding replays it so a frame lost with the
    /// socket cannot strand an operation. Bounded by the pipeline depth
    /// plus one COMMIT.
    ///
    /// The COMMIT **must** be retained: it carries the PROOF-signature
    /// anchoring this client's last completed digest, which peers need
    /// to validate its next pending SUBMIT (Algorithm 1, line 41). A
    /// COMMIT lost with a dead connection and never replayed makes an
    /// honest server look Byzantine to every sequential peer
    /// (`BadProofSignature`). Only the newest COMMIT is kept — a newer
    /// one (standalone or piggybacked on a later SUBMIT) subsumes it,
    /// and replaying a subsumed COMMIT after the server stored a newer
    /// one would regress the server's record of this client's version.
    resend_window: VecDeque<UstorMsg>,
    events: VecDeque<(u64, Event)>,
    results: HashMap<u64, FaustCompletion>,
    /// The entries the last REPLY's fold touched, increasing: the
    /// entries of its COMMIT's delta. Reused across replies.
    touched: Vec<usize>,
}

impl SessionCore {
    /// Wraps an existing protocol client (e.g. one resumed from a
    /// previous server incarnation).
    pub fn new(proto: FaustClient) -> Self {
        SessionCore {
            proto,
            next_ticket: 0,
            pending_tickets: VecDeque::new(),
            resend_window: VecDeque::new(),
            events: VecDeque::new(),
            results: HashMap::new(),
            touched: Vec::new(),
        }
    }

    /// Snapshots the resumable state (keys excluded; see
    /// [`SessionState`]). `now` is the current protocol time — it is
    /// stored so the resuming embedding can continue its clock
    /// monotonically. Returns `None` when the session has halted on a
    /// violation: a failed session must not be resumed (its halt is the
    /// fail-aware guarantee), so there is nothing to persist.
    pub fn export_state(&self, now: u64) -> Option<SessionState> {
        if self.proto.failure().is_some() {
            return None;
        }
        Some(SessionState {
            proto: self.proto.export_state(),
            clock: now,
            next_ticket: self.next_ticket,
            pending_tickets: self.pending_tickets.iter().map(|t| t.0).collect(),
            resend_window: self.resend_window.iter().cloned().collect(),
        })
    }

    /// Rebuilds a session from a state snapshot plus its (externally
    /// kept) key material, returning the core and the protocol clock at
    /// which it was exported (resume your clock from there). The
    /// restored protocol client has its stale guard armed — see
    /// [`FaustClient::from_state`] — and the resend window is replayed
    /// by the embedding exactly as after a reconnect. Call
    /// [`SessionCore::probe_resume`] once connected so a rolled-back
    /// snapshot is detected promptly.
    ///
    /// # Panics
    ///
    /// Panics if the keypair does not match the snapshot's client id.
    pub fn from_state(
        keypair: Keypair,
        registry: VerifierRegistry,
        state: SessionState,
    ) -> (Self, u64) {
        let mut proto = FaustClient::from_state(keypair, registry, state.proto);
        // The replay sends these COMMITs again, and a reply on the new
        // connection may name them.
        let commits = state.resend_window.iter().filter_map(|msg| match msg {
            UstorMsg::Submit(submit) => submit.piggyback.as_ref(),
            UstorMsg::Commit(commit) => Some(commit),
            UstorMsg::Reply(_) | UstorMsg::CommitDelta(_) => None,
        });
        proto.ustor_mut().resume_commits(commits);
        let core = SessionCore {
            proto,
            next_ticket: state.next_ticket,
            pending_tickets: state.pending_tickets.into_iter().map(OpTicket).collect(),
            resend_window: state.resend_window.into(),
            events: VecDeque::new(),
            results: HashMap::new(),
            touched: Vec::new(),
        };
        (core, state.clock)
    }

    /// Issues a non-user read of the session's own register, if nothing
    /// is in flight (see [`FaustClient::probe_resume`]): after restoring
    /// from a snapshot, this round-trips the restored version against
    /// the live server so a rolled-back state file surfaces as
    /// [`Event::Violation`] with `Fault::StaleClientState` at connect
    /// time.
    pub fn probe_resume(&mut self, now: u64) -> SessionOutput {
        let actions = self.proto.probe_resume(now);
        self.absorb(actions, now)
    }

    /// This session's client id.
    pub fn id(&self) -> ClientId {
        self.proto.id()
    }

    /// Number of clients in the deployment.
    pub fn num_clients(&self) -> usize {
        self.proto.num_clients()
    }

    /// Read access to the protocol state (diagnostics and tests).
    pub fn client(&self) -> &FaustClient {
        &self.proto
    }

    /// The violation that halted this session, if any.
    pub fn failure(&self) -> Option<&FailReason> {
        self.proto.failure()
    }

    /// The current stability cut `W_i`.
    pub fn stability_cut(&self) -> StabilityCut {
        self.proto.stability_cut()
    }

    /// Submitted-but-uncompleted user operations.
    pub fn backlog(&self) -> usize {
        self.pending_tickets.len()
    }

    /// Submits a user operation; it enters the pipeline window
    /// immediately if there is room, and queues otherwise.
    pub fn submit(&mut self, op: UserOp, now: u64) -> (OpTicket, SessionOutput) {
        let ticket = OpTicket(self.next_ticket);
        self.next_ticket += 1;
        self.pending_tickets.push_back(ticket);
        let actions = self.proto.invoke(op, now);
        (ticket, self.absorb(actions, now))
    }

    /// Processes a REPLY from the server.
    ///
    /// The COMMIT it yields goes out as a [`CommitDelta`] against the
    /// REPLY's `commit_version` whenever that is smaller — in lockstep,
    /// one entry instead of `n`. The fold that built the COMMIT's version
    /// from `commit_version` wrote only this client's entry and those of
    /// the clients in `L` (Algorithm 1, lines 37–47), so those are the
    /// delta's entries — `L` in full, as the protocol client resolved it,
    /// not the tuples this REPLY carried. The delta is for the connection
    /// this REPLY came in on: the resend window keeps the full COMMIT, and
    /// every replay sends that.
    pub fn handle_reply(&mut self, reply: ReplyMsg, now: u64) -> SessionOutput {
        let actions = self.proto.handle_reply(reply, now);
        // Only an immediate-mode session answers a REPLY with a COMMIT of
        // its own; a piggybacked one stays full and needs no entries.
        let touched = &mut self.touched;
        touched.clear();
        if self.proto.config().commit_mode == CommitMode::Immediate {
            let folded = self.proto.ustor().last_pending();
            touched.extend(folded.iter().map(|t| t.client.index()));
            touched.push(self.proto.id().index());
            touched.sort_unstable();
            touched.dedup();
        }
        if self.proto.failure().is_none() {
            // The reply answered the oldest in-flight SUBMIT: its resend
            // obligation is discharged, and FIFO delivery means every
            // window entry sent before it (a retained COMMIT included)
            // reached the server too. (Pop before absorb, which may
            // append freshly started SUBMITs to the window.)
            while let Some(front) = self.resend_window.pop_front() {
                if matches!(front, UstorMsg::Submit(_)) {
                    break;
                }
            }
        } else {
            self.resend_window.clear(); // halted: nothing will be resent
        }
        let mut out = self.absorb(actions, now);
        if !self.touched.is_empty() {
            for msg in &mut out.to_server {
                if let UstorMsg::Commit(commit) = msg {
                    if let Some(delta) = CommitDelta::of(commit, &self.touched) {
                        *msg = UstorMsg::CommitDelta(delta);
                    }
                }
            }
        }
        out
    }

    /// Processes an offline message from another client.
    pub fn handle_offline(&mut self, msg: OfflineMsg, now: u64) -> SessionOutput {
        let actions = self.proto.handle_offline(msg, now);
        self.absorb(actions, now)
    }

    /// Periodic protocol tick: probes silent clients, issues dummy reads
    /// when idle, starts queued work.
    pub fn tick(&mut self, now: u64) -> SessionOutput {
        let actions = self.proto.on_tick(now);
        self.absorb(actions, now)
    }

    /// Records a transport failure as an [`Event::Disconnected`].
    pub fn note_disconnected(&mut self, reason: DisconnectCause, now: u64) {
        self.events.push_back((now, Event::Disconnected { reason }));
    }

    /// Signed-but-unacknowledged SUBMITs plus the latest retained
    /// COMMIT, in wire order, each in full: a COMMIT that went on the
    /// wire as a [`CommitDelta`] comes back as the full COMMIT it stands
    /// for. This is what a reconnect must replay before anything else.
    pub fn resend_messages(&self) -> Vec<UstorMsg> {
        self.resend_window.iter().cloned().collect()
    }

    /// Number of SUBMITs currently awaiting a reply (at most the
    /// pipeline depth; a retained COMMIT is not counted).
    pub fn unacked_submits(&self) -> usize {
        self.resend_window
            .iter()
            .filter(|m| matches!(m, UstorMsg::Submit(_)))
            .count()
    }

    /// When the session is idle in piggyback commit mode, the COMMIT of
    /// the last operation is still waiting for a SUBMIT to ride on; this
    /// returns it (at most once) so the embedding can send it explicitly
    /// and the server can garbage-collect its pending list. The COMMIT
    /// also enters the resend window, replacing any older one.
    pub fn flush_commit(&mut self) -> Option<UstorMsg> {
        if self.proto.is_idle() {
            let msg = self.proto.take_held_commit().map(UstorMsg::Commit)?;
            self.retain_for_resend(&msg);
            Some(msg)
        } else {
            None
        }
    }

    /// Takes the completion of `ticket` if it has arrived (each result
    /// can be taken once; the [`Event::Completed`] stream is unaffected).
    pub fn take_result(&mut self, ticket: OpTicket) -> Option<FaustCompletion> {
        self.results.remove(&ticket.0)
    }

    /// Whether `ticket` has completed (without consuming the result).
    pub fn is_complete(&self, ticket: OpTicket) -> bool {
        self.results.contains_key(&ticket.0)
    }

    /// Drains every accumulated event, oldest first, each stamped with
    /// the protocol time at which it occurred.
    pub fn take_events(&mut self) -> Vec<(u64, Event)> {
        self.events.drain(..).collect()
    }

    /// Next accumulated event, if any.
    pub fn poll_event(&mut self) -> Option<(u64, Event)> {
        self.events.pop_front()
    }

    /// Converts the protocol's notifications into events (in order) and
    /// strips them off the transmission half.
    fn absorb(&mut self, actions: Actions, now: u64) -> SessionOutput {
        for note in actions.notifications {
            let event = match note {
                Notification::Completed(completion) => {
                    let ticket = self
                        .pending_tickets
                        .pop_front()
                        .expect("a completion without a submitted user op");
                    self.results.insert(ticket.0, completion.clone());
                    Event::Completed { ticket, completion }
                }
                Notification::Stable(cut) => Event::Stable { cut },
                Notification::Failed(reason) => Event::Violation { reason },
            };
            self.events.push_back((now, event));
        }
        // Every server-bound SUBMIT and COMMIT enters the resend window
        // here — the one funnel all entry points share — so the window
        // is complete regardless of which embedding (handle, driver,
        // simulator) drives the core.
        for msg in &actions.to_server {
            self.retain_for_resend(msg);
        }
        SessionOutput {
            to_server: actions.to_server,
            offline: actions.offline,
        }
    }

    /// Appends one outgoing message to the resend window, keeping the
    /// window's COMMIT invariant: at most one COMMIT is retained, and a
    /// newer commitment — standalone, or piggybacked on a SUBMIT —
    /// evicts the older one (replaying a subsumed COMMIT after the
    /// server stored a newer one would regress its record of this
    /// client's version).
    fn retain_for_resend(&mut self, msg: &UstorMsg) {
        match msg {
            UstorMsg::Submit(submit) => {
                if submit.piggyback.is_some() {
                    self.resend_window
                        .retain(|w| !matches!(w, UstorMsg::Commit(_)));
                }
                self.resend_window.push_back(msg.clone());
            }
            UstorMsg::Commit(_) => {
                self.resend_window
                    .retain(|w| !matches!(w, UstorMsg::Commit(_)));
                self.resend_window.push_back(msg.clone());
            }
            UstorMsg::Reply(_) | UstorMsg::CommitDelta(_) => {}
        }
    }
}

/// One client's endpoint on an in-process offline medium (the paper's
/// client-to-client communication method): senders to every peer plus an
/// inbox. Build a full mesh with [`offline_mesh`]. Deployments without a
/// side channel (e.g. the CLI across real hosts) run without one — the
/// probe machinery then idles and stability spreads through reads alone.
pub struct OfflineLink {
    peers: Vec<Sender<OfflineMsg>>,
    inbox: Receiver<OfflineMsg>,
}

impl OfflineLink {
    /// Sends `msg` to `to` (best-effort: a departed peer is silence, not
    /// an error — exactly the paper's asynchronous offline medium).
    pub fn send(&self, to: ClientId, msg: OfflineMsg) {
        if let Some(tx) = self.peers.get(to.index()) {
            let _ = tx.send(msg);
        }
    }

    /// A message from a peer, if one is waiting.
    pub fn try_recv(&self) -> Option<OfflineMsg> {
        self.inbox.try_recv().ok()
    }
}

/// Builds the full offline mesh for `n` clients: link `i` belongs to
/// client `i`.
pub fn offline_mesh(n: usize) -> Vec<OfflineLink> {
    let mut txs = Vec::with_capacity(n);
    let mut rxs = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel();
        txs.push(tx);
        rxs.push(rx);
    }
    rxs.into_iter()
        .map(|inbox| OfflineLink {
            peers: txs.clone(),
            inbox,
        })
        .collect()
}

/// Configuration of a live [`FaustHandle`].
#[derive(Debug, Clone, Copy)]
pub struct HandleConfig {
    /// FAUST protocol tuning; `probe_period` is wall milliseconds here.
    pub faust: FaustConfig,
    /// How often the internal protocol clock ticks (probes, dummy reads,
    /// queued-work starts).
    pub tick_interval: Duration,
    /// Signature scheme for keys derived from the session's key seed.
    pub scheme: SigScheme,
}

impl Default for HandleConfig {
    fn default() -> Self {
        HandleConfig {
            faust: FaustConfig::default(),
            tick_interval: Duration::from_millis(10),
            scheme: SigScheme::Hmac,
        }
    }
}

/// A live fail-aware session: one client of a FAUST deployment, bound to
/// one [`ClientConn`]. See the module docs.
///
/// # Example
///
/// ```
/// use faust_core::handle::{FaustHandle, HandleConfig};
/// use faust_net::ReactorTransport;
/// use faust_types::{ClientId, Value};
/// use faust_ustor::{spawn_engine, ServerEngine, UstorServer};
/// use std::time::Duration;
///
/// // A one-client deployment behind a loopback reactor.
/// let transport = ReactorTransport::bind("127.0.0.1:0", 1)?;
/// let addr = transport.local_addr();
/// let engine = spawn_engine(ServerEngine::new(1, Box::new(UstorServer::new(1))), transport);
/// let mut handle =
///     FaustHandle::connect_tcp(addr, ClientId::new(0), 1, b"doc-example", &HandleConfig::default())?;
/// let ticket = handle.write(Value::from("hello"));
/// let done = handle.wait(ticket, Duration::from_secs(5)).unwrap();
/// assert_eq!(done.timestamp, 1);
/// handle.disconnect();
/// engine.join().unwrap();
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct FaustHandle {
    core: SessionCore,
    transport: Option<ClientConn>,
    offline: Option<OfflineLink>,
    /// Wall-clock anchor of the protocol clock.
    epoch: Instant,
    /// Protocol time at `epoch` (continues across reconnects and, for
    /// resumed sessions, across handles).
    clock_base: u64,
    tick_interval: Duration,
    next_tick: Instant,
    /// Server-bound messages not yet on the wire (transport down).
    outbox: VecDeque<UstorMsg>,
    /// Auto-reconnect: the connection factory, if armed.
    dialer: Option<Box<dyn ClientDialer>>,
    policy: ReconnectPolicy,
    /// Jitter stream (seeded `jitter_seed ^ client id`).
    rng: SmallRng,
    /// Dial attempts since the last *confirmed* resume (one that carried
    /// at least one server message).
    attempt: u32,
    /// When the next auto-reconnect dial is due; `None` when idle,
    /// exhausted, or connected.
    next_attempt_at: Option<Instant>,
    /// How the last connection ended (drives the backoff penalty).
    last_cause: DisconnectCause,
    /// Whether the current connection has delivered any server message —
    /// the classification bit behind [`DisconnectCause::Overloaded`].
    got_msg_since_attach: bool,
    /// A resume happened but no message has confirmed it yet; the
    /// attempt counter keeps climbing until one does.
    resumed_unconfirmed: bool,
    stats: HandleStats,
}

impl FaustHandle {
    /// Builds a fresh session for client `id` of `n` over `transport`,
    /// with keys derived from `key_seed` under `config.scheme` (every
    /// client of the deployment must derive from the same seed).
    ///
    /// # Panics
    ///
    /// Panics if `id ≥ n` or `n` is zero.
    pub fn new(
        id: ClientId,
        n: usize,
        key_seed: &[u8],
        config: &HandleConfig,
        transport: ClientConn,
    ) -> Self {
        let keys = KeySet::generate_with(config.scheme, n, key_seed);
        let proto = FaustClient::new(
            id,
            n,
            keys.keypair(id.as_u32()).expect("generated").clone(),
            keys.registry(),
            config.faust,
        );
        Self::from_core(SessionCore::new(proto), config.tick_interval, 0, transport)
    }

    /// Connects to a `faust serve` (or any `faust_net::ReactorTransport`)
    /// endpoint and builds the session over it.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from connecting.
    ///
    /// # Panics
    ///
    /// Panics if `id ≥ n` or `n` is zero.
    pub fn connect_tcp(
        addr: std::net::SocketAddr,
        id: ClientId,
        n: usize,
        key_seed: &[u8],
        config: &HandleConfig,
    ) -> std::io::Result<Self> {
        let conn = faust_net::tcp::connect(addr, id)?;
        Ok(Self::new(id, n, key_seed, config, conn))
    }

    /// Wraps an existing [`SessionCore`] (e.g. resumed from a previous
    /// server incarnation) around a transport. `clock_base` is the
    /// protocol time the session has already lived through — time never
    /// rewinds for a resumed session. The core's resend window — any
    /// signed SUBMIT whose reply was never processed — is replayed over
    /// the new transport immediately, every message in full, exactly as
    /// after a reconnect (empty for a fresh core, so this is free there).
    pub fn from_core(
        core: SessionCore,
        tick_interval: Duration,
        clock_base: u64,
        transport: ClientConn,
    ) -> Self {
        let now = Instant::now();
        let mut handle = FaustHandle {
            core,
            transport: None,
            offline: None,
            epoch: now,
            clock_base,
            tick_interval,
            next_tick: now + tick_interval,
            outbox: VecDeque::new(),
            dialer: None,
            policy: ReconnectPolicy::default(),
            rng: SmallRng::seed_from_u64(0),
            attempt: 0,
            next_attempt_at: None,
            last_cause: DisconnectCause::TransportLoss,
            got_msg_since_attach: false,
            resumed_unconfirmed: false,
            stats: HandleStats::default(),
        };
        handle.attach(transport);
        handle.flush_outbox();
        handle
    }

    /// Rebuilds a session from a persisted [`SessionState`] (see
    /// [`crate::persist`]) over `transport`, deriving keys from
    /// `key_seed` exactly as [`FaustHandle::new`] does. The protocol
    /// clock continues from the snapshot's, the resend window is
    /// replayed first, and — when nothing was in flight — a resume
    /// probe ([`SessionCore::probe_resume`]) round-trips the restored
    /// version against the server, so a rolled-back state file surfaces
    /// as [`Event::Violation`] with `Fault::StaleClientState` right
    /// away. `config.faust` is ignored: the protocol configuration
    /// travels inside the snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the derived keypair does not match the snapshot's
    /// client id (wrong `key_seed` or `config.scheme`).
    pub fn resume_from_state(
        state: SessionState,
        key_seed: &[u8],
        config: &HandleConfig,
        transport: ClientConn,
    ) -> Self {
        let n = state.proto.ustor.n as usize;
        let id = state.proto.ustor.id;
        let keys = KeySet::generate_with(config.scheme, n, key_seed);
        let (core, clock) = SessionCore::from_state(
            keys.keypair(id.as_u32()).expect("id < n").clone(),
            keys.registry(),
            state,
        );
        let mut handle = Self::from_core(core, config.tick_interval, clock, transport);
        let now = handle.now_ms();
        let out = handle.core.probe_resume(now);
        handle.dispatch(out);
        handle
    }

    /// Exports the session's resumable state for persistence (see
    /// [`crate::persist::save_session`]); `None` when the session has
    /// halted on a violation. The snapshot is stamped with the current
    /// protocol clock.
    pub fn export_state(&self) -> Option<SessionState> {
        self.core.export_state(self.now_ms())
    }

    /// Attaches an offline client-to-client link (builder style).
    #[must_use]
    pub fn with_offline(mut self, link: OfflineLink) -> Self {
        self.offline = Some(link);
        self
    }

    /// Arms auto-reconnect (builder style): on transport loss the handle
    /// redials through `dialer` under `policy`, replaying the resend
    /// window on every resume. See the module docs' *Lifecycle* section.
    #[must_use]
    pub fn with_auto_reconnect(
        mut self,
        dialer: Box<dyn ClientDialer>,
        policy: ReconnectPolicy,
    ) -> Self {
        self.rng = SmallRng::seed_from_u64(policy.jitter_seed ^ u64::from(self.id().as_u32()));
        self.dialer = Some(dialer);
        self.policy = policy;
        self
    }

    /// Resilience counters: disconnects, sheds, dials, resumes, resends.
    pub fn stats(&self) -> HandleStats {
        self.stats
    }

    /// This session's client id.
    pub fn id(&self) -> ClientId {
        self.core.id()
    }

    /// The session's protocol clock, in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.clock_base + self.epoch.elapsed().as_millis() as u64
    }

    /// The violation that halted this session, if any.
    pub fn failure(&self) -> Option<&FailReason> {
        self.core.failure()
    }

    /// The current stability cut `W_i`.
    pub fn stability_cut(&self) -> StabilityCut {
        self.core.stability_cut()
    }

    /// Submitted-but-uncompleted user operations.
    pub fn backlog(&self) -> usize {
        self.core.backlog()
    }

    /// Whether the transport is currently attached and alive.
    pub fn is_connected(&self) -> bool {
        self.transport.is_some()
    }

    /// Submits a write of this client's register. Non-blocking: the
    /// operation pipelines behind any in-flight ones.
    pub fn write(&mut self, value: Value) -> OpTicket {
        let now = self.now_ms();
        let (ticket, out) = self.core.submit(UserOp::Write(value), now);
        self.dispatch(out);
        ticket
    }

    /// Submits a read of `register`. Non-blocking.
    pub fn read(&mut self, register: ClientId) -> OpTicket {
        let now = self.now_ms();
        let (ticket, out) = self.core.submit(UserOp::Read(register), now);
        self.dispatch(out);
        ticket
    }

    /// Drives the session without blocking — delivers whatever input has
    /// already arrived, runs any due protocol tick — and returns the
    /// events produced since the last drain, each stamped with the
    /// protocol time (ms) at which it occurred.
    pub fn poll(&mut self) -> Vec<(u64, Event)> {
        self.step(Duration::ZERO);
        self.core.take_events()
    }

    /// Blocks until `ticket` completes, the session halts, the transport
    /// fails, or `timeout` elapses. Events produced while waiting stay
    /// queued for [`FaustHandle::poll`] / [`FaustHandle::run_for`]
    /// consumers; the returned completion itself is consumed.
    ///
    /// # Errors
    ///
    /// [`WaitError::Timeout`], [`WaitError::Disconnected`], or
    /// [`WaitError::Violation`] with the detected reason.
    pub fn wait(
        &mut self,
        ticket: OpTicket,
        timeout: Duration,
    ) -> Result<FaustCompletion, WaitError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(done) = self.core.take_result(ticket) {
                return Ok(done);
            }
            if let Some(reason) = self.core.failure() {
                return Err(WaitError::Violation(reason.clone()));
            }
            if self.transport.is_none() && self.next_attempt_at.is_none() {
                // Disconnected with no reconnect pending (none armed, or
                // the attempt budget ran out). With an attempt pending we
                // keep stepping: the dial may yet resume the session.
                return Err(WaitError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(WaitError::Timeout);
            }
            self.step(deadline - now);
        }
    }

    /// Runs the event loop for `duration` (ticking, probing, delivering)
    /// and returns every event produced.
    pub fn run_for(&mut self, duration: Duration) -> Vec<(u64, Event)> {
        let deadline = Instant::now() + duration;
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            self.step(deadline - now);
        }
        self.core.take_events()
    }

    /// Resumes the session over a new connection after a transport
    /// failure (or an explicit [`FaustHandle::disconnect`]): the resend
    /// window — every signed SUBMIT whose reply was never processed
    /// (including ones that died on the old wire) plus the latest
    /// COMMIT, in full — is replayed in wire order. Also
    /// re-arms the auto-reconnect attempt budget.
    pub fn reconnect(&mut self, transport: ClientConn) {
        self.attempt = 0;
        self.stats.resumes += 1;
        self.resumed_unconfirmed = true;
        self.attach(transport);
        self.flush_outbox();
    }

    /// Installs `transport` and rebuilds the outbox for a resume: the
    /// whole resend window, oldest first, in wire order. Everything the
    /// old outbox still held — unsent SUBMITs and the latest COMMIT —
    /// is already in the window, so replacing the outbox never loses a
    /// message and never duplicates one.
    fn attach(&mut self, transport: ClientConn) {
        let submits = |msgs: &[UstorMsg]| {
            msgs.iter()
                .filter(|m| matches!(m, UstorMsg::Submit(_)))
                .count() as u64
        };
        let unsent_submits = submits(self.outbox.make_contiguous());
        let window = self.core.resend_messages();
        self.stats.resent_submits += submits(&window).saturating_sub(unsent_submits);
        self.outbox = window.into();
        self.transport = Some(transport);
        self.got_msg_since_attach = false;
        self.next_attempt_at = None;
    }

    /// Detaches from the server (the connection closes; a `faust serve`
    /// process counts this client as departed). Session state is kept —
    /// [`FaustHandle::reconnect`] resumes it. If the session is idle in
    /// piggyback commit mode, the final COMMIT is sent first so the
    /// server can garbage-collect.
    pub fn disconnect(&mut self) {
        self.attempt = 0;
        self.next_attempt_at = None;
        if let Some(commit) = self.core.flush_commit() {
            self.outbox.push_back(commit);
        }
        self.flush_outbox();
        self.transport = None;
    }

    /// Tears the session down, returning the [`SessionCore`] (protocol
    /// state, queued events) and the protocol clock for a later
    /// [`FaustHandle::from_core`] resumption.
    pub fn into_core(mut self) -> (SessionCore, u64) {
        let clock = self.now_ms();
        self.disconnect();
        (self.core, clock)
    }

    /// One scheduling step: deliver available input, run due ticks, wait
    /// at most `budget` for something to happen.
    fn step(&mut self, budget: Duration) {
        self.drain_offline();
        self.run_due_tick();
        // Wait for server traffic, but never past the next tick.
        let until_tick = self.next_tick.saturating_duration_since(Instant::now());
        let wait = budget.min(until_tick);
        match self.transport.as_mut() {
            Some(transport) => match transport.recv_timeout(wait) {
                Ok(Some(msg)) => {
                    self.deliver(msg);
                    // Greedily drain whatever else already arrived (a
                    // group-commit flush releases replies in bursts).
                    while let Some(transport) = self.transport.as_mut() {
                        match transport.recv_timeout(Duration::ZERO) {
                            Ok(Some(msg)) => self.deliver(msg),
                            Ok(None) => break,
                            Err(TransportClosed) => {
                                self.mark_disconnected();
                                break;
                            }
                        }
                    }
                }
                Ok(None) => {}
                Err(TransportClosed) => self.mark_disconnected(),
            },
            None => match self.next_attempt_at {
                // Disconnected with a dial due: attempt it now.
                Some(at) if Instant::now() >= at => self.try_dial(),
                // Dial scheduled but not due: sleep up to it.
                Some(at) => {
                    let until_dial = at.saturating_duration_since(Instant::now());
                    let wait = wait.min(until_dial);
                    if !wait.is_zero() {
                        std::thread::sleep(wait);
                    }
                }
                // Disconnected for good: nothing to wait on but time.
                None => {
                    if !wait.is_zero() {
                        std::thread::sleep(wait);
                    }
                }
            },
        }
        self.drain_offline();
        self.run_due_tick();
    }

    fn run_due_tick(&mut self) {
        if Instant::now() < self.next_tick {
            return;
        }
        let now = self.now_ms();
        let out = self.core.tick(now);
        self.dispatch(out);
        self.next_tick = Instant::now() + self.tick_interval;
    }

    fn deliver(&mut self, msg: UstorMsg) {
        self.got_msg_since_attach = true;
        if self.resumed_unconfirmed {
            // The resumed connection is actually talking to us: the
            // attempt budget resets for the next outage.
            self.resumed_unconfirmed = false;
            self.attempt = 0;
        }
        let UstorMsg::Reply(reply) = msg else {
            return; // the engine sends only replies
        };
        let now = self.now_ms();
        let out = self.core.handle_reply(reply, now);
        self.dispatch(out);
    }

    fn drain_offline(&mut self) {
        loop {
            let Some(link) = &self.offline else { return };
            let Some(msg) = link.try_recv() else { return };
            let now = self.now_ms();
            let out = self.core.handle_offline(msg, now);
            self.dispatch(out);
        }
    }

    fn dispatch(&mut self, out: SessionOutput) {
        self.outbox.extend(out.to_server);
        self.flush_outbox();
        if let Some(link) = &self.offline {
            for (to, msg) in out.offline {
                link.send(to, msg);
            }
        }
    }

    fn flush_outbox(&mut self) {
        while let Some(msg) = self.outbox.front() {
            let Some(transport) = self.transport.as_mut() else {
                return;
            };
            if transport.send(msg).is_err() {
                self.mark_disconnected();
                return;
            }
            self.outbox.pop_front();
        }
    }

    fn mark_disconnected(&mut self) {
        if self.transport.take().is_none() {
            return;
        }
        // Classify by shape: a connection that died before carrying any
        // server message looks like the reactor's shed-on-accept.
        let cause = if self.got_msg_since_attach {
            DisconnectCause::TransportLoss
        } else {
            DisconnectCause::Overloaded
        };
        self.last_cause = cause;
        self.stats.disconnects += 1;
        if cause == DisconnectCause::Overloaded {
            self.stats.overload_sheds += 1;
        }
        let now = self.now_ms();
        self.core.note_disconnected(cause, now);
        self.schedule_attempt();
    }

    /// Schedules the next auto-reconnect dial under the backoff policy
    /// (no-op when auto-reconnect is unarmed, the session has halted, or
    /// the attempt budget is exhausted).
    fn schedule_attempt(&mut self) {
        if self.dialer.is_none() || self.core.failure().is_some() {
            return;
        }
        self.attempt += 1;
        if self.attempt > self.policy.max_attempts {
            self.next_attempt_at = None;
            return;
        }
        let backoff = self
            .policy
            .backoff(self.attempt, self.last_cause, &mut self.rng);
        self.next_attempt_at = Some(Instant::now() + backoff);
        let now = self.now_ms();
        self.core.events.push_back((
            now,
            Event::Reconnecting {
                attempt: self.attempt,
                backoff,
            },
        ));
    }

    /// One auto-reconnect dial attempt; on success the session resumes
    /// (resend window queued and flushed), on failure the next attempt is
    /// scheduled.
    fn try_dial(&mut self) {
        self.next_attempt_at = None;
        let Some(dialer) = self.dialer.as_mut() else {
            return;
        };
        self.stats.dial_attempts += 1;
        match dialer.dial(self.policy.connect_timeout) {
            Ok(transport) => {
                self.stats.resumes += 1;
                self.resumed_unconfirmed = true;
                self.attach(transport);
                let now = self.now_ms();
                self.core.events.push_back((now, Event::Resumed));
                self.flush_outbox();
            }
            Err(_) => self.schedule_attempt(),
        }
    }
}

impl std::fmt::Debug for FaustHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaustHandle")
            .field("id", &self.id())
            .field("connected", &self.is_connected())
            .field("backlog", &self.backlog())
            .field("clock_ms", &self.now_ms())
            .finish_non_exhaustive()
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use faust_net::{tcp, ReactorTransport, TcpDialer};
    use faust_ustor::{spawn_engine, EngineStats, ServerEngine, UstorServer};
    use std::thread::JoinHandle;

    fn c(i: u32) -> ClientId {
        ClientId::new(i)
    }

    /// A correct one-client server engine behind a loopback reactor on a
    /// thread, and client 0's connection to it.
    fn serve_one() -> (ClientConn, JoinHandle<EngineStats>) {
        let transport = ReactorTransport::bind("127.0.0.1:0", 1).unwrap();
        let conn = tcp::connect(transport.local_addr(), c(0)).unwrap();
        let engine = spawn_engine(
            ServerEngine::new(1, Box::new(UstorServer::new(1))),
            transport,
        );
        (conn, engine)
    }

    /// Client 0's connection to a reactor that nobody serves: once the
    /// caller drops the reactor, the connection is reset.
    fn unserved() -> (ReactorTransport, ClientConn) {
        let transport = ReactorTransport::bind("127.0.0.1:0", 1).unwrap();
        let conn = tcp::connect(transport.local_addr(), c(0)).unwrap();
        (transport, conn)
    }

    fn quiet_config(pipeline: usize) -> HandleConfig {
        HandleConfig {
            faust: FaustConfig {
                probe_period: 1_000_000,
                dummy_reads: false,
                pipeline,
                ..FaustConfig::default()
            },
            tick_interval: Duration::from_millis(2),
            ..HandleConfig::default()
        }
    }

    #[test]
    fn pipelined_tickets_complete_in_order_with_events() {
        let n = 1;
        let (conn, engine) = serve_one();
        let mut h = FaustHandle::new(c(0), n, b"handle-test", &quiet_config(3), conn);
        let tickets: Vec<OpTicket> = (0..5).map(|k| h.write(Value::unique(0, k))).collect();
        // Waiting on the *last* ticket waits out the whole FIFO.
        let done = h
            .wait(tickets[4], Duration::from_secs(5))
            .expect("completes");
        assert_eq!(done.timestamp, 5);
        // The event stream saw every completion, in ticket order, plus
        // self-stability cuts.
        let events = h.poll();
        let completed: Vec<u64> = events
            .iter()
            .filter_map(|(_, e)| match e {
                Event::Completed { ticket, .. } => Some(ticket.index()),
                _ => None,
            })
            .collect();
        assert_eq!(completed, vec![0, 1, 2, 3, 4]);
        assert!(events
            .iter()
            .any(|(_, e)| matches!(e, Event::Stable { .. })));
        assert!(h.failure().is_none());
        h.disconnect();
        engine.join().unwrap();
    }

    #[test]
    fn wait_on_an_early_ticket_returns_its_own_completion() {
        let n = 1;
        let (conn, engine) = serve_one();
        let mut h = FaustHandle::new(c(0), n, b"handle-early", &quiet_config(2), conn);
        let t0 = h.write(Value::from("first"));
        let t1 = h.read(c(0));
        let d0 = h.wait(t0, Duration::from_secs(5)).unwrap();
        assert_eq!(d0.timestamp, 1);
        let d1 = h.wait(t1, Duration::from_secs(5)).unwrap();
        assert_eq!(d1.read_value, Some(Some(Value::from("first"))));
        h.disconnect();
        engine.join().unwrap();
    }

    #[test]
    fn server_hangup_surfaces_as_disconnected_event() {
        let n = 1;
        // No engine: dropping the reactor closes the connection.
        let (transport, conn) = unserved();
        drop(transport);
        let mut h = FaustHandle::new(c(0), n, b"handle-drop", &quiet_config(1), conn);
        let t0 = h.write(Value::from("lost"));
        assert_eq!(
            h.wait(t0, Duration::from_millis(200)),
            Err(WaitError::Disconnected)
        );
        let events = h.poll();
        assert_eq!(
            events
                .iter()
                .filter(|(_, e)| matches!(e, Event::Disconnected { .. }))
                .count(),
            1,
            "exactly one Disconnected event: {events:?}"
        );
        // The unsent message is retained for a reconnect.
        assert!(!h.is_connected());
        assert_eq!(h.backlog(), 1);
    }

    #[test]
    fn reconnect_resumes_with_retained_messages() {
        let n = 1;
        // First transport dies before the submit can be delivered.
        let (transport, conn) = unserved();
        drop(transport);
        let mut h = FaustHandle::new(c(0), n, b"handle-reconnect", &quiet_config(1), conn);
        let t0 = h.write(Value::from("retry"));
        assert_eq!(
            h.wait(t0, Duration::from_millis(100)),
            Err(WaitError::Disconnected)
        );
        // A fresh incarnation appears; the handle resumes and the
        // retained SUBMIT completes.
        let (conn, engine) = serve_one();
        h.reconnect(conn);
        let done = h.wait(t0, Duration::from_secs(5)).expect("resumed");
        assert_eq!(done.timestamp, 1);
        h.disconnect();
        engine.join().unwrap();
    }

    #[test]
    fn backoff_doubles_caps_jitters_and_penalises_overload() {
        let policy = ReconnectPolicy {
            jitter_seed: 7,
            ..ReconnectPolicy::default()
        };
        let mut rng = SmallRng::seed_from_u64(7);
        // Attempt k draws from [base/2, base], base = 50·2^(k-1) ≤ 5000.
        for k in 1..=12u32 {
            let base = (50u64 << (k - 1)).min(5_000);
            let d = policy
                .backoff(k, DisconnectCause::TransportLoss, &mut rng)
                .as_millis() as u64;
            assert!(
                d >= base / 2 && d <= base,
                "attempt {k}: {d}ms outside [{}, {base}]",
                base / 2
            );
        }
        // An overload shed costs `overload_penalty` extra doublings:
        // attempt 1 behaves like attempt 1 + 2 (base 200ms, not 50ms).
        let d = policy
            .backoff(1, DisconnectCause::Overloaded, &mut rng)
            .as_millis() as u64;
        assert!((100..=200).contains(&d), "overload attempt 1: {d}ms");
    }

    /// The regression for sent-but-unacked in-flight ops: the SUBMIT made
    /// it onto the wire, the server (incarnation) died before any reply,
    /// and auto-reconnect must replay it — not strand it — on the next
    /// incarnation.
    #[test]
    fn auto_reconnect_resends_inflight_submit_after_server_loss() {
        let n = 1;
        // First incarnation buffers the SUBMIT and dies without replying;
        // the second is bound already, so the dialer knows where it is.
        let (transport, conn) = unserved();
        let second = ReactorTransport::bind("127.0.0.1:0", 1).unwrap();
        let dialer = TcpDialer::new(second.local_addr(), c(0));
        let policy = ReconnectPolicy {
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            connect_timeout: Duration::from_millis(10),
            ..ReconnectPolicy::default()
        };
        let mut h = FaustHandle::new(c(0), n, b"handle-autoreconnect", &quiet_config(1), conn)
            .with_auto_reconnect(Box::new(dialer), policy);
        let t0 = h.write(Value::from("inflight"));
        assert_eq!(h.core.unacked_submits(), 1, "the SUBMIT is in flight");
        drop(transport);
        // Second incarnation is real; the first due attempt reaches it.
        let engine = spawn_engine(ServerEngine::new(n, Box::new(UstorServer::new(n))), second);

        let done = h.wait(t0, Duration::from_secs(5)).expect("resent");
        assert_eq!(done.timestamp, 1);
        let events = h.poll();
        assert!(
            events
                .iter()
                .any(|(_, e)| matches!(e, Event::Disconnected { .. })),
            "missing Disconnected: {events:?}"
        );
        assert!(
            events
                .iter()
                .any(|(_, e)| matches!(e, Event::Reconnecting { .. })),
            "missing Reconnecting: {events:?}"
        );
        assert!(
            events.iter().any(|(_, e)| matches!(e, Event::Resumed)),
            "missing Resumed: {events:?}"
        );
        let stats = h.stats();
        assert_eq!(stats.disconnects, 1);
        assert_eq!(
            stats.resent_submits, 1,
            "the sent-but-unacked op was replayed"
        );
        assert!(stats.dial_attempts >= 1 && stats.resumes >= 1);
        h.disconnect();
        engine.join().unwrap();
    }

    #[test]
    fn auto_reconnect_gives_up_after_max_attempts() {
        let n = 1;
        let (transport, conn) = unserved();
        // Bind-then-drop: nothing listens on this port any more.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let dialer = TcpDialer::new(dead, c(0));
        let policy = ReconnectPolicy {
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            max_attempts: 3,
            connect_timeout: Duration::from_millis(5),
            ..ReconnectPolicy::default()
        };
        let mut h = FaustHandle::new(c(0), n, b"handle-giveup", &quiet_config(1), conn)
            .with_auto_reconnect(Box::new(dialer), policy);
        let t0 = h.write(Value::from("doomed"));
        drop(transport);
        // Every dial attempt fails (the port is dead);
        // after the budget runs out, wait reports Disconnected.
        assert_eq!(
            h.wait(t0, Duration::from_secs(5)),
            Err(WaitError::Disconnected)
        );
        assert_eq!(h.stats().dial_attempts, 3);
        let events = h.poll();
        assert_eq!(
            events
                .iter()
                .filter(|(_, e)| matches!(e, Event::Reconnecting { .. }))
                .count(),
            3
        );
        // A manual reconnect still works and re-arms the budget.
        let (conn, engine) = serve_one();
        h.reconnect(conn);
        let done = h.wait(t0, Duration::from_secs(5)).expect("manual resume");
        assert_eq!(done.timestamp, 1);
        h.disconnect();
        engine.join().unwrap();
    }

    /// Feeds `msgs` to the server and pumps every reply back into the
    /// core until quiescent (same shape as the persist-module tests).
    fn pump(server: &mut UstorServer, core: &mut SessionCore, msgs: Vec<UstorMsg>, now: u64) {
        use faust_ustor::Server;
        let mut queue = msgs;
        while !queue.is_empty() {
            let msg = queue.remove(0);
            let replies = match msg {
                UstorMsg::Submit(m) => server.on_submit(core.id(), m),
                UstorMsg::Commit(m) => server.on_commit(core.id(), m),
                UstorMsg::Reply(_) | UstorMsg::CommitDelta(_) => unreachable!(),
            };
            for (_, reply) in replies {
                // A bare server takes full COMMITs: expand a delta
                // against the REPLY it answers, as the engine does.
                let base = reply.commit_version.version.clone();
                let out = core.handle_reply(reply, now).to_server;
                queue.extend(out.into_iter().map(|msg| match msg {
                    UstorMsg::CommitDelta(d) => UstorMsg::Commit(d.resolve(&base).unwrap()),
                    msg => msg,
                }));
            }
        }
    }

    #[test]
    fn a_commit_goes_out_as_the_delta_of_the_entries_its_fold_touched() {
        // Three pipelined sessions against a bare server: replies carry
        // pending lists, so the fold touches more than the own entry. The
        // delta a session sends must be exactly the full diff of the COMMIT
        // it keeps against the REPLY's `commit_version`.
        use faust_ustor::Server;
        let n = 3;
        let keys = KeySet::generate(n, b"delta-entries");
        let mut server = UstorServer::new(n);
        let mut cores: Vec<SessionCore> = (0..n as u32)
            .map(|i| {
                SessionCore::new(FaustClient::new(
                    c(i),
                    n,
                    keys.keypair(i).unwrap().clone(),
                    keys.registry(),
                    FaustConfig {
                        dummy_reads: false,
                        pipeline: 3,
                        ..FaustConfig::default()
                    },
                ))
            })
            .collect();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut upstream: VecDeque<(usize, UstorMsg)> = VecDeque::new();
        let (mut deltas, mut with_pending, mut full) = (0, 0, 0);
        for now in 0..400u64 {
            if rng.gen_bool(0.4) {
                let i = rng.gen_index(n);
                let op = match rng.gen_bool(0.5) {
                    true => UserOp::Write(Value::unique(i as u32, now)),
                    false => UserOp::Read(c(rng.gen_index(n) as u32)),
                };
                let (_, out) = cores[i].submit(op, now);
                upstream.extend(out.to_server.into_iter().map(|m| (i, m)));
                continue;
            }
            let Some((from, msg)) = upstream.pop_front() else {
                continue;
            };
            let replies = match msg {
                UstorMsg::Submit(m) => server.on_submit(c(from as u32), m),
                UstorMsg::Commit(m) => server.on_commit(c(from as u32), m),
                other => panic!("sent {other:?}"),
            };
            for (to, reply) in replies {
                let (to, base) = (to.index(), reply.commit_version.version.clone());
                let pending = reply.pending.len();
                let out = cores[to].handle_reply(reply, now);
                let kept = cores[to]
                    .resend_messages()
                    .into_iter()
                    .find_map(|m| match m {
                        UstorMsg::Commit(commit) => Some(commit),
                        _ => None,
                    });
                for msg in out.to_server {
                    let msg = match msg {
                        UstorMsg::CommitDelta(delta) => {
                            let kept = kept.clone().expect("the window keeps it in full");
                            assert_eq!(Some(&delta), CommitDelta::against(&base, &kept).as_ref());
                            assert_eq!(delta.resolve(&base), Ok(kept.clone()));
                            deltas += 1;
                            with_pending += usize::from(pending > 0);
                            UstorMsg::Commit(kept)
                        }
                        UstorMsg::Commit(commit) => {
                            // Sent in full only where no delta is smaller.
                            assert_eq!(CommitDelta::against(&base, &commit), None);
                            full += 1;
                            UstorMsg::Commit(commit)
                        }
                        msg => msg,
                    };
                    upstream.push_back((to, msg));
                }
            }
        }
        assert!(cores.iter().all(|core| core.failure().is_none()));
        assert!(
            deltas >= 10 && with_pending >= 5 && full > 0,
            "{deltas} {with_pending} {full}"
        );
    }

    #[test]
    fn resend_window_retains_the_latest_commit_and_only_the_latest() {
        // A COMMIT lost with a dead connection is not harmless: until
        // the client's next commitment reaches the server, peers cannot
        // anchor its next pending SUBMIT (Algorithm 1 line 41) and
        // would convict an honest server of BadProofSignature. The
        // window therefore keeps the newest COMMIT — and only the
        // newest, since replaying a subsumed one would regress the
        // server's record of this client's version.
        let keys = KeySet::generate(2, b"resend-commit");
        let mut server = UstorServer::new(2);
        let mut core = SessionCore::new(FaustClient::new(
            c(0),
            2,
            keys.keypair(0).unwrap().clone(),
            keys.registry(),
            FaustConfig {
                dummy_reads: false,
                ..FaustConfig::default()
            },
        ));

        // Op 1 completes: its SUBMIT is popped, its COMMIT retained.
        let (_, out) = core.submit(UserOp::Write(Value::from("one")), 1);
        assert!(matches!(core.resend_messages()[..], [UstorMsg::Submit(_)]));
        pump(&mut server, &mut core, out.to_server, 1);
        let window = core.resend_messages();
        assert!(
            matches!(window[..], [UstorMsg::Commit(_)]),
            "completed op leaves exactly its COMMIT behind: {window:?}"
        );
        assert_eq!(core.unacked_submits(), 0);
        let first_commit = window[0].encode();

        // Op 2 goes in flight: the window replays COMMIT-then-SUBMIT in
        // wire order.
        let (_, out) = core.submit(UserOp::Write(Value::from("two")), 2);
        let window = core.resend_messages();
        assert!(
            matches!(window[..], [UstorMsg::Commit(_), UstorMsg::Submit(_)]),
            "retained COMMIT precedes the new SUBMIT: {window:?}"
        );
        assert_eq!(core.unacked_submits(), 1);

        // Op 2's reply pops through SUBMIT 2 *and* the older COMMIT
        // (FIFO delivery proved it arrived), and the newer COMMIT
        // replaces it.
        pump(&mut server, &mut core, out.to_server, 2);
        let window = core.resend_messages();
        assert!(
            matches!(window[..], [UstorMsg::Commit(_)]),
            "only the newest COMMIT is retained: {window:?}"
        );
        assert_ne!(window[0].encode(), first_commit, "it is the newer one");

        // Simulated reconnect: replaying the window is harmless (the
        // server stores commitments idempotently) and the next op still
        // completes exactly once.
        let replay = core.resend_messages();
        pump(&mut server, &mut core, replay, 3);
        let (t3, out) = core.submit(UserOp::Read(c(0)), 4);
        pump(&mut server, &mut core, out.to_server, 4);
        assert!(core.is_complete(t3));
        assert!(core.failure().is_none());
    }
}
