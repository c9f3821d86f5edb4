//! Deterministic whole-system fault simulator: the full FAUST stack —
//! many sans-io [`SessionCore`] clients and a [`ServerEngine`] over the
//! shipped [`PersistentServer`] — inside one seeded virtual-time event
//! loop, with a fault-plan DSL and oracles.
//!
//! This is the scenario-diversity engine in the FoundationDB style: no
//! threads, no sockets, no wall clock. Everything that happens — message
//! delivery, client ticks, group-commit flush deadlines, server crashes,
//! Byzantine reply substitution — happens at a virtual tick chosen by
//! the seeded scheduler, so a run is a pure function of its
//! [`SimScenario`] and any failure reproduces bit-identically from the
//! seed. The loop is [`FaustDriver`]; a scripted run is the same loop
//! with no faults and a server of the caller's choosing. On top sit:
//!
//! * a **fault-plan DSL** ([`FaultClause`]): link outages, connection
//!   kills and dropped replies (recovered exactly-once through the
//!   client's resend window and the server's duplicate-reply cache),
//!   frame reordering and duplication, crash/restart with WAL tamper
//!   hooks (reusing [`faust_ustor::CrashRestartServer`]), replayed and
//!   tampered replies;
//! * **oracles** ([`check_oracles`]): no `fail` notification unless an
//!   adversarial clause actually fired (no false positives), every
//!   guaranteed-observable fork detected (no false negatives), the
//!   `faust-consistency` checkers over the recorded history, and the
//!   offline auditor's verdict on the session exported from the store
//!   directory the run's server wrote — the same export `faust
//!   export-history` runs;
//! * a **shrinking failure reporter** ([`investigate`]): on any oracle
//!   violation the fault plan is minimized by delta debugging and the
//!   seed + minimized plan are rendered as a ready-to-run reproduction
//!   recipe.
//!
//! Every [`run_sim`] scenario names its server with the store's own
//! [`StoreConfig`] and runs it in a scratch directory. A server without
//! durable state is `Durability::Never` with no snapshots: it writes an
//! unsynced log, a process crash loses nothing on its own, and a crash
//! that wipes the server says so with [`WalTamper::WipeState`].
//!
//! The driver keeps no copy of what another component knows: a client's
//! crash and connection are the [`Simulation`]'s, its unanswered SUBMITs
//! its [`SessionCore`]'s, and a crash is dated by the restart itself —
//! the run's backend counts its builds, and notes where the restarted
//! store's log resumes ([`SimRunReport::restart_seq`]).
//! [`SimRunReport::wipe_detector`] is read off them once, when the crash
//! fires.
//!
//! Group-commit flush timing — the one wall-clock dependency in the
//! server hot path — runs on [`faust_store::SimClock`] (1 tick = 1 ms of
//! the store's `max_wait`): the driver advances the clock before every
//! server interaction and arms a virtual timer at
//! [`ServerEngine::flush_deadline_at`], so held replies are released at
//! deterministic ticks.

use crate::client::{FaustClient, FaustConfig, UserOp};
use crate::events::{FailReason, FaustCompletion, Notification, StabilityCut};
use crate::handle::{Event as SessionEvent, SessionCore, SessionOutput};
use crate::offline::OfflineMsg;
use faust_crypto::sig::{KeySet, Signature};
use faust_sim::{
    DelayModel, Event, MessageSize, NodeId, SimConfig, Simulation, TimeWindow, TimerId, Transport,
};
use faust_store::{Durability, PersistentServer, SimClock, StoreConfig};
use faust_types::{ClientId, History, OpId, OpKind, ReplyMsg, Timestamp, UstorMsg, Value, Wire};
use faust_ustor::{CrashRestartServer, Server, ServerBackend, ServerEngine, WorkloadOp};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Fault-plan DSL
// ---------------------------------------------------------------------------

/// What happens to the server's on-disk state while it is down (the
/// [`CrashRestartServer`] restart hook). The crash itself is a process
/// crash: under every [`Durability`] it loses only what the tamper
/// says, plus the replies a group-commit server still held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalTamper {
    /// Honest restart: recover exactly what the log holds.
    None,
    /// Drop the last `k` log records — the paper's rollback attack (or a
    /// disk that lied about fsync). May or may not be observable: the
    /// cut tail can consist solely of COMMIT records whose loss the
    /// protocol tolerates.
    TruncateTail(usize),
    /// Delete the WAL and snapshot entirely: the restarted server serves
    /// a fork from the initial state. Guaranteed observable once any
    /// operation had completed before the crash.
    WipeState,
}

/// A scheduled server crash: the server dies after processing
/// `after_messages` SUBMITs/COMMITs, the tamper hook runs against its
/// store directory, and a new incarnation is recovered — all within one
/// virtual tick (restart latency is modeled by the messages that simply
/// keep flowing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// Crash after the server has processed this many SUBMITs and
    /// COMMITs; resends the engine answers from its reply cache do not
    /// count.
    pub after_messages: usize,
    /// State tamper applied while down.
    pub tamper: WalTamper,
}

/// One clause of a fault plan. Clauses target the client↔server **link**
/// transport only; the offline channel is assumed reliable (the paper's
/// model — it stands in for out-of-band exchange).
///
/// When several clauses could match one delivery, the first matching
/// clause in plan order wins; [`gen_scenario`] keeps victims distinct so
/// random plans never depend on that tie-break.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultClause {
    /// Benign partition: all link traffic to and from `client` inside
    /// `window` is buffered and delivered, in order, when the window
    /// closes. FIFO per link is preserved, so this must never cause a
    /// failure notification.
    Outage {
        /// The partitioned client.
        client: ClientId,
        /// Activation window.
        window: TimeWindow,
    },
    /// Adversarial network: swap each pair of consecutive
    /// client→server frames from `client` inside `window` (the first is
    /// held until the second arrives, then delivered after it).
    Reorder {
        /// The client whose outbound frames are swapped.
        client: ClientId,
        /// Activation window.
        window: TimeWindow,
    },
    /// Adversarial network: every client→server frame from `client`
    /// inside `window` is delivered twice back-to-back.
    Duplicate {
        /// The client whose outbound frames are duplicated.
        client: ClientId,
        /// Activation window.
        window: TimeWindow,
    },
    /// Server crash/restart with optional state tamper — see
    /// [`CrashSpec`].
    CrashRestart(CrashSpec),
    /// Byzantine server: the first genuine reply to `client` inside
    /// `window` is replaced by a verbatim copy of an earlier reply the
    /// same client received (nothing happens if there was none yet).
    ReplyReplay {
        /// The victim client.
        client: ClientId,
        /// Activation window.
        window: TimeWindow,
    },
    /// Byzantine server: the first read reply to `client` inside
    /// `window` carrying a real value has that value's bytes flipped
    /// while keeping the original DATA-signature — the client's
    /// signature check must catch this immediately.
    TamperReadValue {
        /// The victim client.
        client: ClientId,
        /// Activation window.
        window: TimeWindow,
    },
    /// Benign connection kill: at `at` the victim's link connection is
    /// severed and immediately re-established. Every frame still in
    /// flight on the old connection — in either direction, including
    /// held group-commit replies the server force-flushes into the
    /// dying socket — is lost; the client then replays its resend
    /// window of signed-but-unacknowledged SUBMITs on the new
    /// connection. Resends the server already processed are answered
    /// byte-identically from its duplicate-reply cache, so a kill must
    /// never fail a client or lose or double an operation.
    KillConn {
        /// The client whose connection dies.
        client: ClientId,
        /// Virtual time of the kill.
        at: u64,
    },
    /// Benign-but-lossy network: every REPLY frame to `client`
    /// delivered inside `window` is dropped — the acknowledgements are
    /// lost while the client's SUBMITs keep reaching (and advancing)
    /// the server. When the window closes the connection is torn down
    /// and rebuilt as in [`FaultClause::KillConn`]; every replayed
    /// SUBMIT is then a duplicate the server must answer from its
    /// reply cache — the exactly-once resend path under maximum
    /// duplication pressure.
    DropReplies {
        /// The client whose replies are eaten.
        client: ClientId,
        /// Activation window; the reconnect runs at `window.end`.
        window: TimeWindow,
    },
}

impl FaultClause {
    /// Whether the clause can never violate the protocol's assumptions
    /// (reliable FIFO links, honest server): such clauses must never
    /// cause a failure notification.
    pub fn is_benign(&self, server: &StoreConfig) -> bool {
        match self {
            FaultClause::Outage { .. } => true,
            // A kill (or drop-then-reconnect) loses only frames the
            // client's resend window recovers; the server's duplicate
            // cache keeps the replay exactly-once.
            FaultClause::KillConn { .. } | FaultClause::DropReplies { .. } => true,
            FaultClause::CrashRestart(spec) => {
                // An untampered process crash loses nothing a server
                // acknowledged — unless it holds replies back: under
                // group commit a crash destroys its *held* replies and
                // the affected clients stall, breaking wait-freedom.
                spec.tamper == WalTamper::None
                    && !matches!(server.durability, Durability::Group { .. })
            }
            _ => false,
        }
    }
}

/// An ordered list of fault clauses applied to one run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The clauses, applied first-match-wins per delivery.
    pub clauses: Vec<FaultClause>,
}

impl FaultPlan {
    /// A plan with no faults at all.
    pub fn honest() -> Self {
        FaultPlan::default()
    }

    /// Whether every clause is benign against `server` — the
    /// no-false-positive oracle applies to the whole run regardless of
    /// which clauses fired.
    pub fn is_benign(&self, server: &StoreConfig) -> bool {
        self.clauses.iter().all(|c| c.is_benign(server))
    }

    /// The crash clause, if the plan has one. At most one is supported
    /// per plan ([`CrashRestartServer`] crashes once).
    pub fn crash(&self) -> Option<&CrashSpec> {
        self.clauses.iter().find_map(|c| match c {
            FaultClause::CrashRestart(spec) => Some(spec),
            _ => None,
        })
    }
}

// ---------------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------------

/// A complete, self-contained description of one simulated run. Equal
/// scenarios produce bit-identical [`SimRunReport`]s — that is the
/// reproducibility contract the failure reporter leans on.
#[derive(Debug, Clone)]
pub struct SimScenario {
    /// Seed for the network schedule (delays, event tie-breaks).
    pub seed: u64,
    /// Per-client workload scripts; the client count is the length.
    pub workloads: Vec<Vec<WorkloadOp>>,
    /// The store the run's [`PersistentServer`] is opened with, in a
    /// scratch directory on the virtual clock.
    pub server: StoreConfig,
    /// The fault plan.
    pub plan: FaultPlan,
    /// Virtual-time deadline of the run.
    pub deadline: u64,
    /// Client tick period (dummy reads, probe checks).
    pub tick_period: u64,
    /// Whether clients issue dummy reads when idle (the paper requires
    /// them for stability and fork detection; scripted scenarios may
    /// disable them for exact message accounting).
    pub dummy_reads: bool,
    /// Link delay distribution.
    pub link_delay: DelayModel,
    /// Offline-channel delay distribution.
    pub offline_delay: DelayModel,
}

impl SimScenario {
    /// Number of clients.
    pub fn n(&self) -> usize {
        self.workloads.len()
    }

    /// Number of user operations across all scripts.
    pub fn user_ops(&self) -> usize {
        self.workloads
            .iter()
            .flatten()
            .filter(|op| matches!(op, WorkloadOp::Write(_) | WorkloadOp::Read(_)))
            .count()
    }

    /// Virtual-time slack the oracles require between the last scheduled
    /// fault and the deadline, so detection has room to happen.
    pub fn detection_slack(&self) -> u64 {
        8 * self.tick_period + 200
    }
}

/// What one run produced — everything the oracles and the consistency
/// checkers need.
#[derive(Debug)]
pub struct SimRunReport {
    /// User-visible history (dummy reads excluded).
    pub history: History,
    /// Every notification per client, with its virtual time.
    pub notifications: Vec<Vec<(u64, Notification)>>,
    /// Clients that emitted `fail_i`, with reasons.
    pub failures: Vec<(ClientId, FailReason)>,
    /// Guaranteed-observable forks that actually fired: `(time, label,
    /// victim)` — victim is `None` for global forks (state wipe).
    pub fork_fired: Vec<(u64, &'static str, Option<ClientId>)>,
    /// Adversarial clauses that fired without a detection guarantee
    /// (reorder, duplicate, replay, truncate): `(time, label)`.
    pub dirty_fired: Vec<(u64, &'static str)>,
    /// Virtual time the scheduled crash fired, if it did: the tick at
    /// which the backend built the server a second time, the restart.
    pub crash_time: Option<u64>,
    /// Judged once, at crash time: whether the wire was quiescent in
    /// both directions (no SUBMIT/COMMIT in transit that could re-teach
    /// the restarted server, and no REPLY in transit to a live client,
    /// which would answer with a re-teaching COMMIT — including the
    /// replies to the very message that triggered the crash) *and* some
    /// live, connected client with a completed op was positioned to
    /// observe the post-crash state — under group commit one with no
    /// SUBMIT awaiting a reply, since the crash destroys held replies
    /// and a client waiting on one stalls (accuracy forbids flagging a
    /// mute server). `None` when no crash fired. Detection of a
    /// state-wiping crash is guaranteed — and demanded by the oracle —
    /// only when this is `Some(true)`; otherwise in-flight COMMITs (which
    /// carry signed version vectors the server stores verbatim) can
    /// repair the wiped state before any client observes it.
    ///
    /// Each fact is read from its owner: what is in transit from the
    /// simulation's link frames ([`Simulation::link_frames`]), the fault
    /// clauses' buffers and the delivery being routed; a client's crash
    /// and connection from the [`Simulation`]; its unanswered SUBMITs
    /// from its [`SessionCore::unacked_submits`]. A REPLY to a crashed
    /// client never arrives and does not count.
    pub wipe_detector: Option<bool>,
    /// The restarted store's next log sequence number as it opened, when
    /// the scheduled crash fired: the first record the server wrote after
    /// it. An exported `FAUSTHIS` shows what the crash did only if it
    /// reaches back that far, its `base_seq` at most this.
    pub restart_seq: Option<u64>,
    /// Traffic statistics.
    pub metrics: faust_sim::Metrics,
    /// Virtual time when the run stopped.
    pub final_time: u64,
    /// The run's encoded `FAUSTHIS` session history — the snapshot and
    /// WAL the server left in its store directory, exported as `faust
    /// export-history` does, plus the client-observed history, ready for
    /// the offline auditor. `None` only if that export failed, which
    /// the audit oracle reports as an error; a run driven by
    /// [`FaustDriver::run_until`] alone has no store directory and
    /// exports nothing.
    pub exported_history: Option<Vec<u8>>,
}

impl SimRunReport {
    /// Completed user operations of `client`, in order.
    pub fn completions(&self, client: ClientId) -> Vec<FaustCompletion> {
        self.notifications[client.index()]
            .iter()
            .filter_map(|(_, n)| match n {
                Notification::Completed(c) => Some(c.clone()),
                _ => None,
            })
            .collect()
    }

    /// The time `client` first emitted `fail_i`, if it did.
    pub fn failure_time(&self, client: ClientId) -> Option<u64> {
        self.notifications[client.index()]
            .iter()
            .find_map(|(t, n)| matches!(n, Notification::Failed(_)).then_some(*t))
    }

    /// The last stability cut `client` reported, if any.
    pub fn last_cut(&self, client: ClientId) -> Option<StabilityCut> {
        self.notifications[client.index()]
            .iter()
            .rev()
            .find_map(|(_, n)| match n {
                Notification::Stable(cut) => Some(cut.clone()),
                _ => None,
            })
    }

    /// The time `client`'s stability entry for `other` first reached
    /// timestamp `t`, if it did.
    pub fn stability_time(&self, client: ClientId, other: ClientId, t: Timestamp) -> Option<u64> {
        self.notifications[client.index()]
            .iter()
            .find_map(|(time, n)| match n {
                Notification::Stable(cut) if cut.w[other.index()] >= t => Some(*time),
                _ => None,
            })
    }

    /// Earliest failure time across all clients.
    pub fn first_failure_time(&self) -> Option<u64> {
        (0..self.notifications.len())
            .filter_map(|i| self.failure_time(ClientId::new(i as u32)))
            .min()
    }

    /// Number of completed operations recorded in the history.
    pub fn completed_ops(&self) -> usize {
        self.history.complete_ops().count()
    }

    /// The comparable core of the report, for bit-identical-rerun
    /// checks.
    fn fingerprint(&self) -> impl PartialEq + std::fmt::Debug + '_ {
        (
            &self.history,
            &self.notifications,
            &self.failures,
            &self.fork_fired,
            &self.dirty_fired,
            self.crash_time,
            self.wipe_detector,
            self.restart_seq,
            &self.metrics,
            self.final_time,
            &self.exported_history,
        )
    }
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum NetMsg {
    /// A link frame, stamped with the sending side's view of the
    /// client↔server connection epoch. [`FaultClause::KillConn`]-style
    /// clauses bump the victim's epoch; a frame whose stamp is stale at
    /// delivery was in flight on a connection that no longer exists and
    /// is dropped, exactly as a dead TCP socket loses its buffers.
    Ustor(UstorMsg, u64),
    Offline(OfflineMsg),
}

impl MessageSize for NetMsg {
    fn size_bytes(&self) -> usize {
        match self {
            NetMsg::Ustor(m, _) => m.encoded_len(),
            NetMsg::Offline(m) => m.size_bytes(),
        }
    }
}

const TICK_TAG: u64 = 1;
const RESUME_TAG: u64 = 2;
const RECONNECT_TAG: u64 = 3;
/// Server-node timer releasing group-commit batches at their virtual
/// flush deadline.
const FLUSH_TAG: u64 = 4;
/// `RELEASE_TAG_BASE + clause_index`: end-of-window release for clauses
/// that buffer traffic.
const RELEASE_TAG_BASE: u64 = 100;

struct Slot {
    /// The same sans-io session core the live [`crate::FaustHandle`]
    /// drives — here inside virtual time.
    core: SessionCore,
    script: VecDeque<WorkloadOp>,
    /// History ids of in-flight *user* ops by ticket (dummy reads are
    /// not ticketed and not recorded).
    ticket_ops: HashMap<u64, OpId>,
    notifications: Vec<(u64, Notification)>,
    /// Script is parked on a Pause until its timer fires.
    waiting: bool,
    /// Last genuine reply delivered to this client — the material a
    /// [`FaultClause::ReplyReplay`] substitutes.
    last_reply: Option<ReplyMsg>,
    /// The client's current link-connection epoch. Frames are stamped
    /// with the epoch at send time; [`FaultClause::KillConn`] and the
    /// end-of-window reconnect of [`FaultClause::DropReplies`] bump it,
    /// killing every frame still in flight on the old connection.
    link_epoch: u64,
}

/// Per-clause mutable state while the run executes.
enum ClauseState {
    /// Outage: traffic buffered in pop order.
    Buffer(Vec<(NodeId, NodeId, NetMsg)>),
    /// Reorder: the held first frame of the current pair.
    Stash(Option<(NodeId, NodeId, NetMsg)>),
    /// One-shot clauses (replay, tamper): whether they already fired.
    Fired(bool),
    /// Clauses with no delivery-time state (duplicate, crash).
    Stateless,
}

/// Configuration of a FAUST simulation run.
#[derive(Debug, Clone, Copy)]
pub struct FaustDriverConfig {
    /// Underlying network simulation parameters.
    pub sim: SimConfig,
    /// FAUST layer tuning.
    pub faust: FaustConfig,
    /// Period of the per-client tick timer (drives dummy reads and probe
    /// checks).
    pub tick_period: u64,
}

impl Default for FaustDriverConfig {
    fn default() -> Self {
        FaustDriverConfig {
            sim: SimConfig::default(),
            faust: FaustConfig::default(),
            tick_period: 25,
        }
    }
}

/// Drives the full FAUST stack in virtual time: `n` FAUST clients, a
/// (correct or Byzantine) storage server, the reliable FIFO links, and
/// the offline client-to-client channel — the complete architecture of
/// Figures 1 and 4, in one seeded event loop.
///
/// FAUST runs forever (dummy reads and probes re-arm themselves), so a
/// run executes up to a deadline. The report records the user-visible
/// history, every notification with its virtual time, and per-client
/// failure state — everything the Definition 5 experiments need.
///
/// This is the one virtual-time loop of the FAUST stack. A scripted run
/// is this loop with an empty [`FaultPlan`] and a caller-supplied server;
/// [`run_sim`] opens the scenario's [`PersistentServer`] and installs the
/// scenario's plan. The server node runs [`ServerEngine::round`], the
/// round `faust serve` runs. A caller-supplied server must report
/// group-commit deadlines through [`Server::flush_deadline_at`]; no
/// caller passes a wall-clock group-commit server.
///
/// # Example
///
/// ```
/// use faust_core::{FaustDriver, FaustDriverConfig};
/// use faust_types::{ClientId, Value};
/// use faust_ustor::{UstorServer, WorkloadOp};
///
/// let mut d = FaustDriver::new(
///     2,
///     Box::new(UstorServer::new(2)),
///     FaustDriverConfig::default(),
///     b"doc",
/// );
/// d.push_op(ClientId::new(0), WorkloadOp::Write(Value::from("v")));
/// let result = d.run_until(2_000);
/// assert!(result.failures.is_empty());
/// ```
pub struct FaustDriver {
    n: usize,
    sim: Simulation<NetMsg>,
    engine: ServerEngine,
    /// The virtual clock a [`run_sim`] server batches on; set before
    /// every server interaction.
    clock: SimClock,
    slots: Vec<Slot>,
    history: History,
    tick_period: u64,
    plan: FaultPlan,
    clause_state: Vec<ClauseState>,
    /// Link frames the current event put in transit and not yet routed:
    /// what an interception let through, or a clause released.
    routing: VecDeque<(NodeId, NodeId, NetMsg)>,
    /// What the [`run_sim`] backend records of its builds: the first
    /// opens the store, the second is the scheduled crash's restart.
    builds: Arc<Builds>,
    crash_time: Option<u64>,
    /// Whether the server holds replies back for group commit — a crash
    /// can then destroy held replies and stall mid-op clients.
    group_commit: bool,
    dummy_reads: bool,
    /// Set when the crash fires, by [`FaustDriver::wipe_detectable`].
    wipe_detector: Option<bool>,
    fork_fired: Vec<(u64, &'static str, Option<ClientId>)>,
    dirty_fired: Vec<(u64, &'static str)>,
    /// The armed virtual flush timer: `(deadline_tick, timer_id)`.
    flush_timer: Option<(u64, TimerId)>,
}

/// A backend that re-attaches the shared [`SimClock`] on every build —
/// including the rebuild [`CrashRestartServer`] performs after a crash —
/// and records its builds, so the driver learns of the restart from the
/// restart itself.
struct VirtualPersistentBackend {
    dir: PathBuf,
    config: StoreConfig,
    clock: SimClock,
    builds: Arc<Builds>,
}

/// What [`VirtualPersistentBackend`] records of its builds.
#[derive(Debug, Default)]
struct Builds {
    /// Servers built.
    count: AtomicUsize,
    /// The store's next log sequence number as the last build opened it.
    next_seq: AtomicU64,
}

impl ServerBackend for VirtualPersistentBackend {
    fn build(&self, n: usize) -> std::io::Result<Box<dyn Server + Send>> {
        self.builds.count.fetch_add(1, Ordering::Relaxed);
        let server = PersistentServer::open(&self.dir, n, self.config.clone())
            .map_err(std::io::Error::other)?
            .with_sim_clock(self.clock.clone());
        self.builds
            .next_seq
            .store(server.next_seq(), Ordering::Relaxed);
        Ok(Box::new(server))
    }
}

/// Opens the scenario's store in `store_dir` on `clock`, wrapped in a
/// [`CrashRestartServer`] whose restart hook applies the tamper when the
/// plan crashes it.
fn build_server(
    scenario: &SimScenario,
    store_dir: &Path,
    clock: &SimClock,
    builds: &Arc<Builds>,
) -> Box<dyn Server + Send> {
    let n = scenario.n();
    let backend = Box::new(VirtualPersistentBackend {
        dir: store_dir.to_path_buf(),
        config: scenario.server.clone(),
        clock: clock.clone(),
        builds: builds.clone(),
    });
    let Some(spec) = scenario.plan.crash() else {
        return backend.build(n).expect("initial build");
    };
    let crs = CrashRestartServer::new(n, backend, spec.after_messages).expect("initial build");
    let dir = store_dir.to_path_buf();
    Box::new(match spec.tamper {
        WalTamper::None => crs,
        WalTamper::TruncateTail(k) => crs.with_hook(Box::new(move || {
            faust_store::truncate_tail_records(&dir, k).ok();
        })),
        WalTamper::WipeState => crs.with_hook(Box::new(move || {
            std::fs::remove_dir_all(&dir).ok();
        })),
    })
}

/// [`FaultClause::TamperReadValue`] on the read part of a REPLY in
/// transit: flips every bit of the value and says whether there was one
/// to tamper with. A value sent as a name is not on the wire; the clause
/// corrupts its DATA-signature instead, which line 50 checks together
/// with the value the name stands for — the same verdict either way.
fn tamper_value(reply: &mut ReplyMsg) -> bool {
    let named = reply.left_out.value.is_some();
    let Some(read) = &mut reply.read else {
        return false;
    };
    match (&read.mem_value, named, read.mem_data_sig) {
        (Some(value), ..) => {
            let flipped: Vec<u8> = value.as_bytes().iter().map(|b| b ^ 0xFF).collect();
            read.mem_value = Some(Value::new(flipped));
        }
        (None, true, Some(_)) => read.mem_data_sig = Some(Signature::garbage()),
        _ => return false,
    }
    true
}

impl FaustDriver {
    /// Creates a driver for `n` FAUST clients against `server`, with HMAC
    /// keys derived from `key_seed` and no faults.
    pub fn new(
        n: usize,
        server: Box<dyn Server + Send>,
        config: FaustDriverConfig,
        key_seed: &[u8],
    ) -> Self {
        let keys = KeySet::generate_with(faust_crypto::SigScheme::Hmac, n, key_seed);
        let mut sim = Simulation::new(config.sim);
        for i in 0..n {
            sim.set_timer(NodeId(i as u32), config.tick_period, TICK_TAG);
        }
        FaustDriver {
            n,
            sim,
            engine: ServerEngine::new(n, server),
            clock: SimClock::new(),
            slots: (0..n)
                .map(|i| Slot {
                    core: SessionCore::new(FaustClient::new(
                        ClientId::new(i as u32),
                        n,
                        keys.keypair(i as u32).expect("generated").clone(),
                        keys.registry(),
                        config.faust,
                    )),
                    script: VecDeque::new(),
                    ticket_ops: HashMap::new(),
                    notifications: Vec::new(),
                    waiting: false,
                    last_reply: None,
                    link_epoch: 0,
                })
                .collect(),
            history: History::new(),
            tick_period: config.tick_period,
            plan: FaultPlan::honest(),
            clause_state: Vec::new(),
            routing: VecDeque::new(),
            builds: Arc::default(),
            crash_time: None,
            group_commit: false,
            dummy_reads: config.faust.dummy_reads,
            wipe_detector: None,
            fork_fired: Vec::new(),
            dirty_fired: Vec::new(),
            flush_timer: None,
        }
    }

    /// Installs a scenario's fault plan, and what the run needs to know
    /// about the server `run_sim` built for it: its virtual clock, its
    /// backend's build record and whether it holds replies for group
    /// commit.
    fn with_faults(mut self, scenario: &SimScenario, clock: SimClock, builds: Arc<Builds>) -> Self {
        // Pre-arm end-of-window release timers so buffered traffic is
        // handed back even if no other event lands on that tick.
        let server_node = self.server_node();
        let sim = &mut self.sim;
        self.clause_state = scenario
            .plan
            .clauses
            .iter()
            .enumerate()
            .map(|(idx, clause)| match clause {
                FaultClause::Outage { window, .. } => {
                    sim.set_timer(server_node, window.end, RELEASE_TAG_BASE + idx as u64);
                    ClauseState::Buffer(Vec::new())
                }
                FaultClause::Reorder { window, .. } => {
                    sim.set_timer(server_node, window.end, RELEASE_TAG_BASE + idx as u64);
                    ClauseState::Stash(None)
                }
                FaultClause::ReplyReplay { .. } | FaultClause::TamperReadValue { .. } => {
                    ClauseState::Fired(false)
                }
                FaultClause::KillConn { at, .. } => {
                    sim.set_timer(server_node, *at, RELEASE_TAG_BASE + idx as u64);
                    ClauseState::Stateless
                }
                FaultClause::DropReplies { window, .. } => {
                    sim.set_timer(server_node, window.end, RELEASE_TAG_BASE + idx as u64);
                    ClauseState::Stateless
                }
                FaultClause::Duplicate { .. } | FaultClause::CrashRestart(_) => {
                    ClauseState::Stateless
                }
            })
            .collect();
        self.plan = scenario.plan.clone();
        self.group_commit = matches!(scenario.server.durability, Durability::Group { .. });
        self.clock = clock;
        self.builds = builds;
        self
    }

    /// Appends one step to a client's script.
    pub fn push_op(&mut self, client: ClientId, op: WorkloadOp) {
        self.slots[client.index()].script.push_back(op);
    }

    /// Appends a whole script.
    pub fn push_ops(&mut self, client: ClientId, ops: impl IntoIterator<Item = WorkloadOp>) {
        self.slots[client.index()].script.extend(ops);
    }

    fn server_node(&self) -> NodeId {
        NodeId(self.n as u32)
    }

    /// [`SimRunReport::wipe_detector`], judged when the crash fires,
    /// after the trigger message's own replies went out.
    fn wipe_detectable(&self, now: u64) -> bool {
        let server_node = self.server_node();
        let held = self.clause_state.iter().flat_map(|state| match state {
            ClauseState::Buffer(frames) => frames.as_slice(),
            ClauseState::Stash(frame) => frame.as_slice(),
            _ => &[],
        });
        let quiet = self
            .sim
            .link_frames()
            .chain(
                held.chain(&self.routing)
                    .map(|(from, to, msg)| (*from, *to, msg)),
            )
            .all(|(_, to, msg)| match msg {
                NetMsg::Ustor(UstorMsg::Reply(_), _) => self.sim.is_crashed(to),
                NetMsg::Ustor(..) => to != server_node,
                NetMsg::Offline(_) => true,
            });
        quiet
            && self.dummy_reads
            && self.slots.iter().enumerate().any(|(i, s)| {
                let node = NodeId(i as u32);
                !self.sim.is_crashed(node)
                    && self.sim.is_connected(node)
                    && s.core.failure().is_none()
                    && (!self.group_commit || s.core.unacked_submits() == 0)
                    && s.notifications
                        .iter()
                        .any(|(t, n)| matches!(n, Notification::Completed(_)) && *t < now)
            })
    }

    /// Routes one message to its destination, *without* fault
    /// interception (used for both normal routing after interception and
    /// for releasing buffered traffic).
    ///
    /// This is also where stale-epoch frames die: a frame stamped with
    /// an older connection epoch than its client endpoint's current one
    /// was in flight on a connection a [`FaultClause::KillConn`]-style
    /// clause has since severed, and never arrives.
    fn deliver(&mut self, from: NodeId, to: NodeId, msg: NetMsg, now: u64) {
        let server_node = self.server_node();
        if let NetMsg::Ustor(_, epoch) = &msg {
            let client_end = if to == server_node { from } else { to };
            let i = client_end.0 as usize;
            if i < self.n && *epoch < self.slots[i].link_epoch {
                return;
            }
        }
        if to == server_node {
            let NetMsg::Ustor(m, _) = msg else { return };
            self.server_receive(ClientId::new(from.0), m, now);
        } else {
            self.client_receive(to.0 as usize, msg, now);
        }
    }

    /// Feeds one protocol message to the engine and pumps outputs back
    /// into virtual time.
    fn server_receive(&mut self, from: ClientId, msg: UstorMsg, now: u64) {
        self.clock.set(now);
        self.engine.enqueue(from, msg);
        self.server_round(false, now);
    }

    /// The server node's step: one [`ServerEngine::round`] — the round
    /// `faust serve` runs — whose per-client batches go out into virtual
    /// time, then the flush timer follows the engine's new deadline.
    ///
    /// A scheduled crash happens inside a round: [`CrashRestartServer`]
    /// restarts the server from the backend as it handles its
    /// `after_messages`-th SUBMIT or COMMIT, and the backend's second
    /// build dates the crash to this tick.
    fn server_round(&mut self, closing: bool, now: u64) {
        let server_node = self.server_node();
        let (sim, slots) = (&mut self.sim, &self.slots);
        self.engine.round(closing, |to, batch| {
            let epoch = slots.get(to.index()).map_or(0, |s| s.link_epoch);
            for out in batch {
                sim.send(server_node, NodeId(to.as_u32()), NetMsg::Ustor(out, epoch));
            }
        });
        if self.crash_time.is_none() && self.builds.count.load(Ordering::Relaxed) > 1 {
            self.crash_time = Some(now);
            match self.plan.crash().map(|spec| spec.tamper) {
                Some(WalTamper::WipeState) => self.fork_fired.push((now, "crash-wipe", None)),
                Some(WalTamper::TruncateTail(_)) => self.dirty_fired.push((now, "crash-truncate")),
                _ => {}
            }
            self.wipe_detector = Some(self.wipe_detectable(now));
        }
        self.update_flush_timer(now);
    }

    /// Keeps exactly one virtual timer armed at the engine's current
    /// flush deadline (group commit), cancelling stale ones.
    fn update_flush_timer(&mut self, now: u64) {
        let deadline = self.engine.flush_deadline_at();
        match (deadline, self.flush_timer) {
            (Some(at), Some((armed, _))) if armed == at => {}
            (Some(at), prev) => {
                if let Some((_, id)) = prev {
                    self.sim.cancel_timer(id);
                }
                let id = self
                    .sim
                    .set_timer(self.server_node(), at.saturating_sub(now), FLUSH_TAG);
                self.flush_timer = Some((at, id));
            }
            (None, Some((_, id))) => {
                self.sim.cancel_timer(id);
                self.flush_timer = None;
            }
            (None, None) => {}
        }
    }

    fn client_receive(&mut self, i: usize, msg: NetMsg, now: u64) {
        // The simulation drops what it would deliver to a crashed client;
        // a frame a clause held for one dies here.
        if self.sim.is_crashed(NodeId(i as u32)) {
            return;
        }
        let out = match msg {
            NetMsg::Ustor(UstorMsg::Reply(reply), _) => {
                self.slots[i].last_reply = Some(reply.clone());
                self.slots[i].core.handle_reply(reply, now)
            }
            NetMsg::Offline(m) => self.slots[i].core.handle_offline(m, now),
            _ => SessionOutput::default(),
        };
        self.apply_output(i, out, now);
    }

    fn apply_output(&mut self, i: usize, out: SessionOutput, now: u64) {
        let node = NodeId(i as u32);
        let server_node = self.server_node();
        for msg in out.to_server {
            let epoch = self.slots[i].link_epoch;
            self.sim.send(node, server_node, NetMsg::Ustor(msg, epoch));
        }
        for (to, msg) in out.offline {
            self.sim
                .send_offline(node, NodeId(to.as_u32()), NetMsg::Offline(msg));
        }
        for (t, event) in self.slots[i].core.take_events() {
            let note = match event {
                SessionEvent::Completed { ticket, completion } => {
                    // The event carries the result; the session need not
                    // keep its copy for the rest of the run.
                    self.slots[i].core.take_result(ticket);
                    if let Some(op_id) = self.slots[i].ticket_ops.remove(&ticket.index()) {
                        match completion.kind {
                            OpKind::Write => {
                                self.history
                                    .complete_write(op_id, t, Some(completion.timestamp))
                            }
                            OpKind::Read => self.history.complete_read(
                                op_id,
                                t,
                                completion.read_value.clone().flatten(),
                                Some(completion.timestamp),
                            ),
                        }
                    }
                    Notification::Completed(completion)
                }
                SessionEvent::Stable { cut } => Notification::Stable(cut),
                SessionEvent::Violation { reason } => Notification::Failed(reason),
                SessionEvent::Disconnected { .. }
                | SessionEvent::Reconnecting { .. }
                | SessionEvent::Resumed => continue,
            };
            self.slots[i].notifications.push((t, note));
        }
        if self.slots[i].core.backlog() == 0 {
            self.advance_script(i, now);
        }
    }

    fn advance_script(&mut self, i: usize, now: u64) {
        loop {
            // Never called for a crashed client: the simulation drops its
            // timers and every delivery to it.
            let slot = &mut self.slots[i];
            if slot.waiting || slot.core.failure().is_some() || slot.core.backlog() > 0 {
                return;
            }
            let Some(step) = slot.script.pop_front() else {
                return;
            };
            let client_id = ClientId::new(i as u32);
            let node = NodeId(i as u32);
            match step {
                WorkloadOp::Crash => {
                    self.sim.crash(node);
                    return;
                }
                WorkloadOp::Pause(ticks) => {
                    slot.waiting = true;
                    self.sim.set_timer(node, ticks, RESUME_TAG);
                    return;
                }
                WorkloadOp::Disconnect(duration) => {
                    self.sim.set_connected(node, false);
                    self.sim.set_timer(node, duration, RECONNECT_TAG);
                }
                WorkloadOp::Write(value) => {
                    let op_id = self.history.begin_write(client_id, value.clone(), now);
                    let (ticket, out) = self.slots[i].core.submit(UserOp::Write(value), now);
                    self.slots[i].ticket_ops.insert(ticket.index(), op_id);
                    self.apply_output(i, out, now);
                    return;
                }
                WorkloadOp::Read(register) => {
                    if register.index() >= self.n {
                        continue;
                    }
                    let op_id = self.history.begin_read(client_id, register, now);
                    let (ticket, out) = self.slots[i].core.submit(UserOp::Read(register), now);
                    self.slots[i].ticket_ops.insert(ticket.index(), op_id);
                    self.apply_output(i, out, now);
                    return;
                }
            }
        }
    }

    /// Applies the fault plan to a popped link delivery: puts what
    /// reaches its destination *now* in transit, in order — nothing when
    /// the delivery was consumed (buffered or stashed), possibly a
    /// substitute or two copies.
    fn intercept(&mut self, from: NodeId, to: NodeId, msg: NetMsg, now: u64) {
        let server_node = self.server_node();
        let routing = &mut self.routing;
        for (clause, state) in self.plan.clauses.iter().zip(&mut self.clause_state) {
            match clause {
                FaultClause::Outage { client, window } if window.contains(now) => {
                    let victim = NodeId(client.as_u32());
                    if from == victim || to == victim {
                        if let ClauseState::Buffer(buf) = state {
                            buf.push((from, to, msg));
                            return;
                        }
                    }
                }
                FaultClause::Reorder { client, window }
                    if window.contains(now)
                        && from == NodeId(client.as_u32())
                        && to == server_node =>
                {
                    if let ClauseState::Stash(stash) = state {
                        match stash.take() {
                            None => *stash = Some((from, to, msg)),
                            Some(held) => {
                                self.dirty_fired.push((now, "reorder"));
                                routing.push_back((from, to, msg));
                                routing.push_back(held);
                            }
                        }
                        return;
                    }
                }
                FaultClause::Duplicate { client, window }
                    if window.contains(now)
                        && from == NodeId(client.as_u32())
                        && to == server_node =>
                {
                    self.dirty_fired.push((now, "duplicate"));
                    routing.push_back((from, to, msg.clone()));
                    routing.push_back((from, to, msg));
                    return;
                }
                FaultClause::DropReplies { client, window }
                    if window.contains(now)
                        && to == NodeId(client.as_u32())
                        && matches!(msg, NetMsg::Ustor(UstorMsg::Reply(_), _)) =>
                {
                    // The acknowledgement is eaten; its SUBMIT stays in
                    // the client's resend window and is replayed at the
                    // end-of-window reconnect.
                    return;
                }
                FaultClause::ReplyReplay { client, window }
                    if window.contains(now) && to == NodeId(client.as_u32()) =>
                {
                    if let NetMsg::Ustor(UstorMsg::Reply(_), epoch) = &msg {
                        if !matches!(state, ClauseState::Fired(true)) {
                            if let Some(old) = &self.slots[client.index()].last_reply {
                                let replay = NetMsg::Ustor(UstorMsg::Reply(old.clone()), *epoch);
                                *state = ClauseState::Fired(true);
                                self.dirty_fired.push((now, "reply-replay"));
                                routing.push_back((from, to, replay));
                                return;
                            }
                        }
                    }
                }
                FaultClause::TamperReadValue { client, window }
                    if window.contains(now) && to == NodeId(client.as_u32()) =>
                {
                    if matches!(state, ClauseState::Fired(true)) {
                        continue;
                    }
                    if let NetMsg::Ustor(UstorMsg::Reply(reply), epoch) = &msg {
                        let mut tampered = reply.clone();
                        if tamper_value(&mut tampered) {
                            *state = ClauseState::Fired(true);
                            self.fork_fired
                                .push((now, "tamper-read-value", Some(*client)));
                            let tampered = NetMsg::Ustor(UstorMsg::Reply(tampered), *epoch);
                            routing.push_back((from, to, tampered));
                            return;
                        }
                    }
                }
                _ => {}
            }
        }
        routing.push_back((from, to, msg));
    }

    /// Delivers what the current event put in transit, in order.
    fn route(&mut self, now: u64) {
        while let Some((from, to, msg)) = self.routing.pop_front() {
            self.deliver(from, to, msg, now);
        }
    }

    /// End-of-window release for clause `idx`: buffered/stashed traffic
    /// is handed to its destination in original order; for connection
    /// kills this is the kill-and-reconnect itself.
    fn release_clause(&mut self, idx: usize, now: u64) {
        match &self.plan.clauses[idx] {
            FaultClause::KillConn { client, .. } | FaultClause::DropReplies { client, .. } => {
                let victim = client.index();
                self.kill_and_replay(victim, now);
                return;
            }
            _ => {}
        }
        match &mut self.clause_state[idx] {
            ClauseState::Buffer(buf) => self.routing.extend(buf.drain(..)),
            ClauseState::Stash(stash) => self.routing.extend(stash.take()),
            _ => {}
        }
        self.route(now);
    }

    /// Severs and rebuilds client `i`'s link connection. Mirrors what a
    /// real transport death does, in order:
    ///
    /// 1. the server force-flushes, so group-commit replies held for the
    ///    dying connection are released into it (and lost with it —
    ///    they are now in the duplicate-reply cache, which is what makes
    ///    step 3 exactly-once);
    /// 2. the victim's link epoch is bumped, so every frame still in
    ///    flight — in either direction — dies on arrival, and the engine
    ///    learns that the old connection ended (`ServerEngine::connected`).
    ///    `faust serve` never takes this path: its reactor refuses a
    ///    second HELLO for a live id, and `serve` resets bases only when
    ///    the transport closes;
    /// 3. the client replays its resend window of unacknowledged
    ///    SUBMITs on the new connection, exactly as
    ///    [`crate::FaustHandle`]'s auto-reconnect does.
    fn kill_and_replay(&mut self, i: usize, now: u64) {
        let node = NodeId(i as u32);
        if i >= self.n || self.sim.is_crashed(node) || self.slots[i].core.failure().is_some() {
            return;
        }
        self.clock.set(now);
        // A closing round, drained before the epoch bump: the victim's
        // flushed replies carry the old epoch and die; other clients'
        // merely arrive a little early.
        self.server_round(true, now);
        self.slots[i].link_epoch += 1;
        self.engine.connected(ClientId::new(i as u32));
        let epoch = self.slots[i].link_epoch;
        let server_node = self.server_node();
        for msg in self.slots[i].core.resend_messages() {
            self.sim.send(node, server_node, NetMsg::Ustor(msg, epoch));
        }
    }

    /// Runs until `deadline` (virtual time) or quiescence, whichever is
    /// first.
    pub fn run_until(mut self, deadline: u64) -> SimRunReport {
        for i in 0..self.n {
            self.advance_script(i, 0);
        }
        while let Some(ev) = self.sim.next() {
            if ev.time > deadline {
                break;
            }
            let now = ev.time;
            match ev.event {
                Event::Timer { node, tag, .. } => {
                    if tag >= RELEASE_TAG_BASE {
                        self.release_clause((tag - RELEASE_TAG_BASE) as usize, now);
                        continue;
                    }
                    if tag == FLUSH_TAG {
                        self.clock.set(now);
                        self.flush_timer = None;
                        self.server_round(false, now);
                        continue;
                    }
                    // Client timers only: the simulation drops those of a
                    // crashed client.
                    let i = node.0 as usize;
                    match tag {
                        TICK_TAG => {
                            self.sim.set_timer(node, self.tick_period, TICK_TAG);
                            let out = self.slots[i].core.tick(now);
                            self.apply_output(i, out, now);
                        }
                        RESUME_TAG => {
                            self.slots[i].waiting = false;
                            self.advance_script(i, now);
                        }
                        RECONNECT_TAG => self.sim.set_connected(node, true),
                        _ => {}
                    }
                }
                Event::Message {
                    from,
                    to,
                    msg,
                    transport: Transport::Link,
                } => {
                    self.intercept(from, to, msg, now);
                    self.route(now);
                }
                Event::Message { from, to, msg, .. } => self.deliver(from, to, msg, now),
            }
        }

        // Anything a clause still holds at the deadline stays undelivered
        // (the run is over), but the report records what fired.
        let failures = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                s.core
                    .failure()
                    .cloned()
                    .map(|f| (ClientId::new(i as u32), f))
            })
            .collect();
        SimRunReport {
            history: self.history,
            notifications: self.slots.into_iter().map(|s| s.notifications).collect(),
            failures,
            fork_fired: self.fork_fired,
            dirty_fired: self.dirty_fired,
            crash_time: self.crash_time,
            wipe_detector: self.wipe_detector,
            // The plan crashes the server once: the last build restarted it.
            restart_seq: self
                .crash_time
                .map(|_| self.builds.next_seq.load(Ordering::Relaxed)),
            metrics: self.sim.metrics().clone(),
            final_time: self.sim.now(),
            // Filled in by `run_sim`, which owns the store directory.
            exported_history: None,
        }
    }
}

/// Executes one scenario under virtual time and returns its report.
///
/// The server runs in a fresh scratch directory under the system temp
/// dir, removed after the run — every invocation starts from a clean
/// slate, which the reproducibility contract requires.
pub fn run_sim(scenario: &SimScenario) -> SimRunReport {
    let store_dir = faust_store::testutil::scratch_dir("simrun");
    let clock = SimClock::new();
    let builds = Arc::default();
    let server = build_server(scenario, &store_dir, &clock, &builds);
    let config = FaustDriverConfig {
        sim: SimConfig {
            seed: scenario.seed,
            link_delay: scenario.link_delay,
            offline_delay: scenario.offline_delay,
        },
        faust: FaustConfig {
            dummy_reads: scenario.dummy_reads,
            ..FaustConfig::default()
        },
        tick_period: scenario.tick_period,
    };
    let mut driver = FaustDriver::new(scenario.n(), server, config, &scenario.seed.to_be_bytes())
        .with_faults(scenario, clock, builds);
    for (i, script) in scenario.workloads.iter().enumerate() {
        driver.push_ops(ClientId::new(i as u32), script.iter().cloned());
    }
    let mut report = driver.run_until(scenario.deadline);
    // The driver (and with it every file handle) is gone; export the
    // snapshot + WAL the server left before wiping the directory.
    report.exported_history = faust_audit::export_store_dir(
        &store_dir,
        faust_crypto::SigScheme::Hmac,
        Some(report.history.clone()),
    )
    .ok()
    .map(|session| session.encode());
    std::fs::remove_dir_all(&store_dir).ok();
    report
}

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

/// Checks the run's oracles; `Err` carries a human-readable account of
/// the first violation.
///
/// * **No false positives**: if no adversarial clause actually fired,
///   there must be no failure notification, and no failure may precede
///   the first adversarial event; on a structurally benign plan
///   additionally every user op completes (wait-freedom) and the
///   history is linearizable.
/// * **No false negatives**: every guaranteed-observable fork that fired
///   with room to detect (slack before the deadline, and — for crash
///   forks — a detector client in position over a quiescent wire, see
///   [`SimRunReport::wipe_detector`]) must produce a failure
///   notification.
/// * **Universal safety**: the completed history is never weak-fork-lin
///   *violated* — the paper's guarantee holds under every adversary the
///   DSL can express.
pub fn check_oracles(scenario: &SimScenario, report: &SimRunReport) -> Result<(), String> {
    let adversarial_fired = !report.fork_fired.is_empty() || !report.dirty_fired.is_empty();

    // No false positives.
    if !adversarial_fired && !report.failures.is_empty() {
        return Err(format!(
            "false positive: no adversarial clause fired but clients failed: {:?}",
            report.failures
        ));
    }
    if scenario.plan.is_benign(&scenario.server) {
        let expected = scenario.user_ops();
        let completed = report.completed_ops();
        if completed != expected {
            return Err(format!(
                "wait-freedom: benign run completed {completed}/{expected} user ops"
            ));
        }
        if !faust_consistency::check_wait_freedom(&report.history, &[]) {
            return Err("wait-freedom checker rejected a benign run".into());
        }
        // The auditor's certifier decides at any size; on the unique
        // values the driver writes it never answers `Unknown`, so an
        // `Unknown` is a failure too, not a pass.
        match faust_consistency::certify_linearizable(&report.history) {
            faust_consistency::CertifyOutcome::Linearizable { .. } => {}
            faust_consistency::CertifyOutcome::Violated { reason, .. } => {
                return Err(format!(
                    "benign run's history is not linearizable: {reason}"
                ));
            }
            faust_consistency::CertifyOutcome::Unknown(why) => {
                return Err(format!("benign run's linearizability is undecided: {why}"));
            }
        }
    }

    // Failures must not precede the first adversarial event of the run
    // (a refinement of the no-false-positive oracle: before anything
    // fired, the run is indistinguishable from an honest one).
    let first_adversarial = report
        .fork_fired
        .iter()
        .map(|&(t, _, _)| t)
        .chain(report.dirty_fired.iter().map(|&(t, _)| t))
        .min();
    if let (Some(adv), Some(fail)) = (first_adversarial, report.first_failure_time()) {
        if fail < adv {
            return Err(format!(
                "a client failed at t={fail}, before the first adversarial event at t={adv}"
            ));
        }
    }

    // No false negatives, for forks that are guaranteed observable.
    for &(at, label, victim) in &report.fork_fired {
        if at + scenario.detection_slack() > scenario.deadline {
            continue; // fired too close to the deadline to demand detection
        }
        match victim {
            // Value tamper: the DATA-signature check fires on the very
            // delivery, at the victim. (The victim may legitimately have
            // failed *before* this fork fired, through another clause or
            // a failure relayed over the offline channel — eventual
            // failure is all the guarantee promises.)
            Some(v) => {
                if report.failure_time(v).is_none() {
                    return Err(format!(
                        "false negative: {label} fired at t={at} against {v} but it never failed"
                    ));
                }
            }
            // Global fork (state wipe): detection is only guaranteed
            // when a detector client was in position at crash time and
            // no in-flight frame could re-teach the restarted server
            // (see `SimRunReport::wipe_detector`).
            None => {
                if report.wipe_detector != Some(true) {
                    continue;
                }
                if report.failures.is_empty() {
                    return Err(format!(
                        "false negative: {label} fired at t={at} with a detector in position \
                         but no client failed by t={}",
                        report.final_time
                    ));
                }
            }
        }
    }

    // Universal safety: completed ops are never weak-fork-lin violated.
    // A history the budgeted search cannot decide fails the oracle
    // rather than passing unchecked.
    let completed = report.history.complete_ops().count();
    if completed > faust_consistency::MAX_OPS {
        return Err(format!(
            "weak fork-linearizability undecided: {completed} completed ops exceed the \
             checker's {} op limit",
            faust_consistency::MAX_OPS
        ));
    }
    match faust_consistency::check_weak_fork_linearizability(
        &report.history,
        &faust_consistency::Budget::default(),
    ) {
        faust_consistency::Verdict::Satisfied => {}
        faust_consistency::Verdict::Violated(why) => {
            return Err(format!("history violates weak fork-linearizability: {why}"));
        }
        faust_consistency::Verdict::Unknown(why) => {
            return Err(format!("weak fork-linearizability undecided: {why}"));
        }
    }

    // Offline-auditor agreement: the exported session history is a
    // second, independent oracle that shares no code with the online
    // fail-aware machinery (see `faust-audit`).
    check_audit_agreement(scenario, report)?;
    Ok(())
}

/// Cross-checks the run against the offline auditor.
///
/// * The export must always exist, decode and audit cleanly — a missing
///   export, a container error or a panic is a bug regardless of the
///   plan (the server reopens a wiped directory, so there is always one
///   to export).
/// * If no adversarial clause fired, the run is indistinguishable from
///   an honest one and the auditor must certify it.
/// * If a state wipe destroyed committed operations (a `WipeState`
///   tamper after some client completed an op), the exported post-crash
///   session cannot account for the pre-crash schedule and the auditor
///   must localize a divergence — even when no online client happened
///   to observe the fork.
fn check_audit_agreement(scenario: &SimScenario, report: &SimRunReport) -> Result<(), String> {
    audit_agreement(scenario, report, faust_audit::audit)
}

/// [`check_audit_agreement`] with `auditor` in the auditor's place.
fn audit_agreement(
    scenario: &SimScenario,
    report: &SimRunReport,
    auditor: impl FnOnce(
        &faust_audit::SessionHistory,
        &faust_crypto::VerifierRegistry,
    ) -> Result<faust_audit::AuditReport, faust_audit::AuditError>,
) -> Result<(), String> {
    let Some(bytes) = &report.exported_history else {
        return Err("run produced no exported session history".into());
    };
    let session = faust_audit::SessionHistory::decode(bytes)
        .map_err(|err| format!("exported history does not decode: {err}"))?;
    let registry = KeySet::generate_with(
        faust_crypto::SigScheme::Hmac,
        scenario.n(),
        &scenario.seed.to_be_bytes(),
    )
    .registry();
    let audit_report = auditor(&session, &registry)
        .map_err(|err| format!("auditor rejected the exported history outright: {err}"))?;

    let adversarial_fired = !report.fork_fired.is_empty() || !report.dirty_fired.is_empty();
    if !adversarial_fired && !audit_report.verdict.is_certified() {
        return Err(format!(
            "auditor diverged on a run with no adversarial event: {:?}",
            audit_report.verdict
        ));
    }

    // A wipe that destroyed a completed operation is provable offline
    // from a log that reaches back to the restart: the completed op's
    // timestamp cannot appear in the surviving schedule. A snapshot
    // taken after the restart may have absorbed that evidence — the
    // COMMITs in flight at the crash re-teach the server every version —
    // and an export starting from it shows an honest window.
    let wiped = (scenario.plan.crash().map(|s| s.tamper) == Some(WalTamper::WipeState))
        .then_some((report.crash_time, report.restart_seq));
    if let Some((Some(crash_time), Some(restart_seq))) = wiped {
        let completed_before_crash = report.notifications.iter().any(|ns| {
            ns.iter()
                .any(|(t, n)| matches!(n, Notification::Completed(_)) && *t < crash_time)
        });
        let reaches_back = session.base_seq <= restart_seq;
        if completed_before_crash && reaches_back && audit_report.verdict.is_certified() {
            return Err(format!(
                "auditor certified a session whose server lost committed state in a crash \
                 at t={crash_time}, its export reaching back to the restart (base_seq {} ≤ {})",
                session.base_seq, restart_seq
            ));
        }
    }
    Ok(())
}

/// Runs a scenario and checks its oracles in one step.
///
/// # Errors
///
/// The oracle violation, rendered for humans.
pub fn run_and_check(scenario: &SimScenario) -> Result<SimRunReport, String> {
    let report = run_sim(scenario);
    check_oracles(scenario, &report)?;
    Ok(report)
}

/// Runs a scenario twice and verifies the reports are bit-identical —
/// the reproducibility oracle.
///
/// # Errors
///
/// A description of the first diverging field.
pub fn check_determinism(scenario: &SimScenario) -> Result<(), String> {
    let a = run_sim(scenario);
    let b = run_sim(scenario);
    if a.fingerprint() != b.fingerprint() {
        return Err(format!(
            "non-deterministic rerun: first {:?}\n=== second {:?}",
            a.fingerprint(),
            b.fingerprint()
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Scenario generation
// ---------------------------------------------------------------------------

/// Derives a full randomized scenario from one seed: client count,
/// scripts, store configuration, and a fault plan drawn from benign, forking,
/// and adversarial-network families. `gen_scenario(seed)` is a pure
/// function — the seed alone reproduces the run.
pub fn gen_scenario(seed: u64) -> SimScenario {
    let mut rng = faust_sim::SmallRng::seed_from_u64(seed ^ 0x5eed_fa57_0000_0001);
    let n = rng.gen_range_inclusive(2, 4) as usize;
    let ops_per_client = rng.gen_range_inclusive(2, 4) as usize;
    let deadline = 6_000;
    let workloads = faust_ustor::random_workloads(n, ops_per_client, 0.6, seed);

    // A third of the seeds run a server without durable state: no
    // fsync, no snapshot, and every crash wipes it.
    let server = match rng.gen_index(3) {
        0 => StoreConfig {
            durability: Durability::Never,
            snapshot_every: 0,
        },
        1 => StoreConfig {
            durability: Durability::Always,
            snapshot_every: [0, 4][rng.gen_index(2)],
        },
        _ => StoreConfig {
            durability: Durability::Group {
                max_records: rng.gen_range_inclusive(2, 16),
                max_wait: std::time::Duration::from_millis(rng.gen_range_inclusive(5, 40)),
            },
            snapshot_every: 0,
        },
    };
    let wipes = server.durability == Durability::Never;

    // Fault windows sit in the first half of the run so detection (and
    // outage release + completion) always has slack before the deadline.
    let window = |rng: &mut faust_sim::SmallRng| {
        let start = rng.gen_range_inclusive(50, 2_000);
        let len = rng.gen_range_inclusive(100, 1_500);
        TimeWindow::new(start, (start + len).min(deadline / 2))
    };
    // Victims are kept distinct across clauses so plans never depend on
    // the first-match-wins tie-break.
    let mut free: Vec<u32> = (0..n as u32).collect();
    let pick_victim = |rng: &mut faust_sim::SmallRng, free: &mut Vec<u32>| {
        let i = rng.gen_index(free.len());
        ClientId::new(free.swap_remove(i))
    };

    let mut clauses = Vec::new();
    match rng.gen_index(4) {
        // Honest or benign-faults run: partitions that delay, kills
        // that lose frames (recovered by the client's resend window),
        // and reply drops that force the server's duplicate cache to
        // answer the whole replay. All must stay invisible.
        0 => {
            for _ in 0..rng.gen_index(3) {
                if free.is_empty() {
                    break;
                }
                let client = pick_victim(&mut rng, &mut free);
                clauses.push(match rng.gen_index(3) {
                    0 => FaultClause::Outage {
                        client,
                        window: window(&mut rng),
                    },
                    1 => FaultClause::KillConn {
                        client,
                        at: rng.gen_range_inclusive(50, deadline / 2),
                    },
                    _ => FaultClause::DropReplies {
                        client,
                        window: window(&mut rng),
                    },
                });
            }
            if server.durability == Durability::Always && rng.gen_bool(0.5) {
                // Honest crash/restart: invisible under Always (nothing
                // is ever held back or lost).
                clauses.push(FaultClause::CrashRestart(CrashSpec {
                    after_messages: rng.gen_range_inclusive(1, 12) as usize,
                    tamper: WalTamper::None,
                }));
            }
        }
        // Forking adversary: state wipe on restart.
        1 => {
            clauses.push(FaultClause::CrashRestart(CrashSpec {
                after_messages: rng.gen_range_inclusive(2, 14) as usize,
                tamper: WalTamper::WipeState,
            }));
        }
        // Rollback adversary: tail truncation (observability depends on
        // what the tail held — universal-safety oracle only). A server
        // without durable state loses all of it instead.
        2 => {
            let tamper = if wipes {
                WalTamper::WipeState
            } else {
                WalTamper::TruncateTail(rng.gen_range_inclusive(1, 6) as usize)
            };
            clauses.push(FaultClause::CrashRestart(CrashSpec {
                after_messages: rng.gen_range_inclusive(4, 16) as usize,
                tamper,
            }));
        }
        // Adversarial network / Byzantine replies.
        _ => {
            for _ in 0..(1 + rng.gen_index(2)) {
                if free.is_empty() {
                    break;
                }
                let client = pick_victim(&mut rng, &mut free);
                let w = window(&mut rng);
                clauses.push(match rng.gen_index(4) {
                    0 => FaultClause::Reorder { client, window: w },
                    1 => FaultClause::Duplicate { client, window: w },
                    2 => FaultClause::ReplyReplay { client, window: w },
                    _ => FaultClause::TamperReadValue { client, window: w },
                });
            }
        }
    }
    SimScenario {
        seed,
        workloads,
        server,
        plan: FaultPlan { clauses },
        deadline,
        tick_period: 25,
        dummy_reads: true,
        link_delay: DelayModel::Uniform(1, rng.gen_range_inclusive(3, 12)),
        offline_delay: DelayModel::Uniform(20, 80),
    }
}

// ---------------------------------------------------------------------------
// Shrinking failure reporter
// ---------------------------------------------------------------------------

/// A reproduced-and-minimized oracle violation, ready to render.
#[derive(Debug)]
pub struct SimFailure {
    /// The failing scenario as originally run.
    pub scenario: SimScenario,
    /// The oracle's account of the violation.
    pub error: String,
    /// The same scenario with a 1-minimal fault plan that still fails.
    pub minimized: SimScenario,
    /// The oracle error of the minimized run.
    pub minimized_error: String,
}

/// Minimizes a failing scenario's fault plan by delta debugging: clauses
/// are removed while the run (same seed, same everything else) still
/// violates an oracle. The result's plan is 1-minimal — dropping any
/// remaining clause makes the failure disappear. If the failure is
/// seed-only (no clause needed), the minimized plan is empty.
pub fn investigate(scenario: &SimScenario, error: String) -> SimFailure {
    let kept = faust_sim::shrink(&scenario.plan.clauses, |subset| {
        let mut candidate = scenario.clone();
        candidate.plan.clauses = subset.to_vec();
        run_and_check(&candidate).is_err()
    });
    let mut minimized = scenario.clone();
    minimized.plan.clauses = kept;
    let minimized_error = run_and_check(&minimized)
        .err()
        .unwrap_or_else(|| error.clone());
    SimFailure {
        scenario: scenario.clone(),
        error,
        minimized,
        minimized_error,
    }
}

impl SimFailure {
    /// Renders the failure as the reproduction recipe printed to the log
    /// and uploaded as a CI artifact: seed, oracle error, minimized
    /// plan, and the command to replay it.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "=== faust-sim oracle violation ===");
        let _ = writeln!(out, "seed:  {}", self.scenario.seed);
        let _ = writeln!(out, "error: {}", self.error);
        let _ = writeln!(
            out,
            "minimized fault plan ({} of {} clause(s), error: {}):",
            self.minimized.plan.clauses.len(),
            self.scenario.plan.clauses.len(),
            self.minimized_error,
        );
        for clause in &self.minimized.plan.clauses {
            let _ = writeln!(out, "  - {clause:?}");
        }
        let _ = writeln!(out, "server: {:?}", self.scenario.server);
        let _ = writeln!(out, "workloads: {:?}", self.scenario.workloads);
        let _ = writeln!(
            out,
            "reproduce: FAUST_SIM_SEED={} cargo test --release --test sim_faults \
             reproduce_seed -- --nocapture",
            self.scenario.seed
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u32) -> ClientId {
        ClientId::new(i)
    }

    /// A server without durable state: no fsync, no snapshot.
    fn unsynced() -> StoreConfig {
        StoreConfig {
            durability: Durability::Never,
            snapshot_every: 0,
        }
    }

    fn group(max_records: u64, max_wait_ms: u64) -> StoreConfig {
        StoreConfig {
            durability: Durability::Group {
                max_records,
                max_wait: std::time::Duration::from_millis(max_wait_ms),
            },
            snapshot_every: 0,
        }
    }

    fn honest_scenario(seed: u64, server: StoreConfig) -> SimScenario {
        SimScenario {
            seed,
            workloads: faust_ustor::random_workloads(3, 3, 0.6, seed),
            server,
            plan: FaultPlan::honest(),
            deadline: 6_000,
            tick_period: 25,
            dummy_reads: true,
            link_delay: DelayModel::Uniform(1, 8),
            offline_delay: DelayModel::Uniform(20, 80),
        }
    }

    #[test]
    fn honest_volatile_run_passes_oracles() {
        let scenario = honest_scenario(1, unsynced());
        let report = run_and_check(&scenario).expect("honest run");
        assert_eq!(report.completed_ops(), scenario.user_ops());
        assert!(report.failures.is_empty());
    }

    #[test]
    fn honest_group_commit_run_releases_replies_on_virtual_deadlines() {
        // 64 records is far larger than the traffic: only the virtual
        // 15-tick deadline releases.
        let scenario = honest_scenario(2, group(64, 15));
        let report = run_and_check(&scenario).expect("honest group-commit run");
        assert_eq!(report.completed_ops(), scenario.user_ops());
    }

    #[test]
    fn outage_is_invisible_and_release_preserves_fifo() {
        let mut scenario = honest_scenario(3, unsynced());
        scenario.plan.clauses.push(FaultClause::Outage {
            client: c(0),
            window: TimeWindow::new(100, 900),
        });
        let report = run_and_check(&scenario).expect("outage is benign");
        assert!(report.failures.is_empty());
        assert_eq!(report.completed_ops(), scenario.user_ops());
    }

    #[test]
    fn kill_conn_is_invisible_thanks_to_the_resend_window() {
        for seed in [12, 13, 14] {
            let mut scenario = honest_scenario(seed, unsynced());
            // Kill while traffic is in full swing: frames die in both
            // directions and the resend window must recover every op.
            scenario.plan.clauses.push(FaultClause::KillConn {
                client: c(0),
                at: 120,
            });
            scenario.plan.clauses.push(FaultClause::KillConn {
                client: c(1),
                at: 300,
            });
            let report = run_and_check(&scenario).expect("connection kills are benign");
            assert!(report.failures.is_empty());
            assert_eq!(report.completed_ops(), scenario.user_ops());
        }
    }

    #[test]
    fn kill_conn_under_group_commit_recovers_held_replies_from_the_duplicate_cache() {
        // The nasty interleaving: a reply held back for group commit is
        // force-flushed into the dying connection and lost; the replay
        // must be answered from the duplicate cache, exactly once.
        let mut scenario = honest_scenario(15, group(64, 20));
        scenario.plan.clauses.push(FaultClause::KillConn {
            client: c(0),
            at: 140,
        });
        let report = run_and_check(&scenario).expect("kill under group commit is benign");
        assert!(report.failures.is_empty());
        assert_eq!(report.completed_ops(), scenario.user_ops());
    }

    #[test]
    fn dropped_replies_are_recovered_by_the_end_of_window_resend() {
        for seed in [16, 17] {
            let mut scenario = honest_scenario(seed, unsynced());
            // A long ack-blackout: SUBMITs keep advancing the server
            // while every reply is eaten, so the reconnect's replay is
            // answered entirely from the duplicate cache.
            scenario.plan.clauses.push(FaultClause::DropReplies {
                client: c(0),
                window: TimeWindow::new(100, 1_200),
            });
            let report = run_and_check(&scenario).expect("dropped replies are recovered");
            assert!(report.failures.is_empty());
            assert_eq!(report.completed_ops(), scenario.user_ops());
        }
    }

    #[test]
    fn kill_conn_scenarios_rerun_bit_identically() {
        let mut scenario = honest_scenario(18, unsynced());
        scenario.plan.clauses.push(FaultClause::KillConn {
            client: c(2),
            at: 200,
        });
        scenario.plan.clauses.push(FaultClause::DropReplies {
            client: c(0),
            window: TimeWindow::new(150, 700),
        });
        check_determinism(&scenario).expect("bit-identical rerun");
    }

    #[test]
    fn honest_persistent_crash_restart_is_invisible() {
        let mut scenario = honest_scenario(
            4,
            StoreConfig {
                durability: Durability::Always,
                snapshot_every: 0,
            },
        );
        scenario
            .plan
            .clauses
            .push(FaultClause::CrashRestart(CrashSpec {
                after_messages: 5,
                tamper: WalTamper::None,
            }));
        let report = run_and_check(&scenario).expect("honest restart is invisible");
        assert!(report.crash_time.is_some(), "the crash must actually fire");
        assert!(report.failures.is_empty());
    }

    #[test]
    fn volatile_crash_fork_is_detected() {
        let mut scenario = honest_scenario(5, unsynced());
        scenario
            .plan
            .clauses
            .push(FaultClause::CrashRestart(CrashSpec {
                after_messages: 6,
                tamper: WalTamper::WipeState,
            }));
        let report = run_sim(&scenario);
        assert!(report.crash_time.is_some());
        check_oracles(&scenario, &report).expect("fork detected");
        assert!(
            !report.failures.is_empty(),
            "state wipe after completed ops must be flagged"
        );
    }

    /// A client that crashes with its dummy read's REPLY still on the
    /// wire never receives that REPLY, so the REPLY cannot re-teach a
    /// server wiped later: a wipe that an idle, connected client can see
    /// over an otherwise quiet wire is demanded, and caught.
    #[test]
    fn a_reply_to_a_crashed_client_does_not_waive_a_later_wipe() {
        let mut scenario = honest_scenario(21, unsynced());
        scenario.link_delay = DelayModel::Fixed(3);
        // C0's first tick (t = 25) sends a dummy read before its script
        // crashes it; the REPLY reaches C0 at t = 31 and is dropped.
        scenario.workloads = vec![
            vec![WorkloadOp::Pause(25), WorkloadOp::Crash],
            vec![WorkloadOp::Write(Value::from("x"))],
        ];
        // The server's 5th message is C1's dummy-read COMMIT at t = 34,
        // when C1 is idle and nothing else is in transit.
        scenario
            .plan
            .clauses
            .push(FaultClause::CrashRestart(CrashSpec {
                after_messages: 5,
                tamper: WalTamper::WipeState,
            }));
        scenario.deadline = 2_000;
        let report = run_sim(&scenario);
        assert_eq!(report.crash_time, Some(34));
        assert_eq!(report.wipe_detector, Some(true));
        check_oracles(&scenario, &report).expect("the wipe is demanded and detected");
        assert!(report.failure_time(c(1)).is_some());
    }

    #[test]
    fn tampered_read_value_is_detected_at_the_victim() {
        let mut scenario = honest_scenario(6, unsynced());
        // Make sure reads happen: c1 reads c0's register after a write.
        scenario.workloads = vec![
            vec![
                WorkloadOp::Write(Value::from("x1")),
                WorkloadOp::Write(Value::from("x2")),
            ],
            vec![
                WorkloadOp::Pause(200),
                WorkloadOp::Read(c(0)),
                WorkloadOp::Read(c(0)),
            ],
        ];
        scenario.plan.clauses.push(FaultClause::TamperReadValue {
            client: c(1),
            window: TimeWindow::new(150, 3_000),
        });
        let report = run_sim(&scenario);
        check_oracles(&scenario, &report).expect("oracles");
        assert!(
            report
                .fork_fired
                .iter()
                .any(|(_, l, _)| *l == "tamper-read-value"),
            "the tamper must fire: {:?}",
            report.dirty_fired
        );
        assert!(report.failure_time(c(1)).is_some(), "victim must fail");
    }

    #[test]
    fn seeded_reruns_are_bit_identical() {
        for seed in [7, 8, 9] {
            let scenario = gen_scenario(seed);
            check_determinism(&scenario).expect("bit-identical rerun");
        }
    }

    #[test]
    fn investigate_minimizes_to_the_culprit_clause() {
        // Three clauses; only the state-wipe crash causes the failure
        // the oracle would report if detection were broken. We force a
        // "failure" by checking a synthetic predicate: the plan minus
        // the crash clause passes, with it the run flags clients. Use
        // the real pipeline: a scenario whose oracle violation is
        // guaranteed — a fork fired too *early* relative to nothing: we
        // simulate by asserting on a scenario that genuinely fails its
        // oracles is hard to fabricate, so instead check the shrinker
        // wiring: minimize "plan still produces failures".
        let mut scenario = honest_scenario(10, unsynced());
        scenario.plan.clauses = vec![
            FaultClause::Outage {
                client: c(1),
                window: TimeWindow::new(100, 400),
            },
            FaultClause::CrashRestart(CrashSpec {
                after_messages: 6,
                tamper: WalTamper::WipeState,
            }),
            FaultClause::Outage {
                client: c(2),
                window: TimeWindow::new(200, 500),
            },
        ];
        let kept = faust_sim::shrink(&scenario.plan.clauses, |subset| {
            let mut candidate = scenario.clone();
            candidate.plan.clauses = subset.to_vec();
            !run_sim(&candidate).failures.is_empty()
        });
        assert_eq!(
            kept,
            vec![FaultClause::CrashRestart(CrashSpec {
                after_messages: 6,
                tamper: WalTamper::WipeState,
            })],
            "only the forking clause should survive shrinking"
        );
    }

    #[test]
    fn failure_report_renders_seed_and_plan() {
        let scenario = gen_scenario(11);
        let failure = investigate(&scenario, "synthetic error".into());
        let rendered = failure.render();
        assert!(rendered.contains("seed:  11"));
        assert!(rendered.contains("FAUST_SIM_SEED=11"));
        assert!(rendered.contains("synthetic error"));
    }

    #[test]
    fn a_missing_export_fails_the_audit_oracle_even_under_a_crash_plan() {
        let mut scenario = honest_scenario(4, unsynced());
        scenario
            .plan
            .clauses
            .push(FaultClause::CrashRestart(CrashSpec {
                after_messages: 5,
                tamper: WalTamper::None,
            }));
        let mut report = run_and_check(&scenario).expect("an untampered crash is benign");
        assert!(report.crash_time.is_some(), "the crash must actually fire");
        report.exported_history = None;
        let err = check_oracles(&scenario, &report).expect_err("no export, no pass");
        assert!(err.contains("no exported session history"), "{err}");
    }

    /// Seed 101160's wipe, with a store that never snapshots: its export
    /// reaches back to the restart, so the audit oracle still demands the
    /// divergence the real auditor finds there — an auditor that
    /// certifies fails it. With snapshots every 4 records the export
    /// starts past the restart, and the same certificate passes.
    #[test]
    fn the_audit_oracle_demands_a_divergence_from_an_export_reaching_the_wipe() {
        let certify = |_: &faust_audit::SessionHistory, _: &faust_crypto::VerifierRegistry| {
            Ok(faust_audit::AuditReport {
                verdict: faust_audit::AuditVerdict::Certified {
                    fork_linearizable: true,
                    ops: 0,
                    clients: 2,
                },
                records_replayed: 0,
                signatures_checked: 0,
                commits_checked: 0,
            })
        };
        let mut whole = gen_scenario(101160);
        whole.server.snapshot_every = 0;
        let report = run_sim(&whole);
        assert_eq!((report.crash_time, report.restart_seq), (Some(10), Some(0)));
        check_audit_agreement(&whole, &report).expect("the auditor diverges");
        let err = audit_agreement(&whole, &report, certify).expect_err("certified");
        assert!(err.contains("lost committed state"), "{err}");

        let snapshotted = gen_scenario(101160);
        assert_eq!(snapshotted.server.snapshot_every, 4);
        let report = run_sim(&snapshotted);
        assert_eq!(report.restart_seq, Some(0));
        audit_agreement(&snapshotted, &report, certify).expect("the export starts past the wipe");
    }

    #[test]
    fn a_stale_read_fails_the_benign_linearizability_oracle() {
        let mut scenario = honest_scenario(19, unsynced());
        scenario.workloads = vec![
            vec![WorkloadOp::Write(Value::from("x"))],
            vec![WorkloadOp::Read(c(0))],
        ];
        let mut report = run_and_check(&scenario).expect("honest run");
        // Replace the recorded history with one whose read, begun after
        // the write completed, still returns the initial value.
        let mut history = History::new();
        let w = history.begin_write(c(0), Value::from("x"), 0);
        history.complete_write(w, 10, None);
        let r = history.begin_read(c(1), c(0), 20);
        history.complete_read(r, 30, None, None);
        report.history = history;
        let err = check_oracles(&scenario, &report).expect_err("stale read");
        assert!(err.contains("not linearizable"), "{err}");
    }

    #[test]
    fn a_history_beyond_the_checker_fails_instead_of_passing() {
        let mut scenario = honest_scenario(20, unsynced());
        scenario.workloads = faust_ustor::random_workloads(3, 25, 0.6, 20);
        let report = run_sim(&scenario);
        assert_eq!(report.completed_ops(), scenario.user_ops());
        assert!(report.completed_ops() > faust_consistency::MAX_OPS);
        // The benign linearizability oracle decides at this size; the
        // weak fork-linearizability search cannot, and says so.
        let err = check_oracles(&scenario, &report).expect_err("undecidable history");
        assert!(
            err.starts_with("weak fork-linearizability undecided"),
            "{err}"
        );
    }
}
