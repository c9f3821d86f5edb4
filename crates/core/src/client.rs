//! The FAUST client (Section 6): wraps the USTOR protocol's extended
//! operations with stability detection, offline probing, and failure
//! propagation, implementing the fail-aware untrusted service of
//! Definition 5.
//!
//! Like the USTOR client it wraps, [`FaustClient`] is sans-io: every
//! entry point takes the current time and returns the [`Actions`] the
//! caller must perform — messages for the server, offline messages for
//! other clients, and notifications for the application.

use crate::events::{FailReason, FaustCompletion, Notification, StabilityCut};
use crate::offline::OfflineMsg;
use faust_crypto::sig::{Keypair, VerifierRegistry};
use faust_types::{
    ClientId, ReplyMsg, Sink, Timestamp, UstorMsg, Value, Version, VersionCmp, Wire, WireError,
};
use faust_ustor::{Fault, UstorClient, UstorClientState};
use std::collections::VecDeque;

/// Tuning parameters of the FAUST layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaustConfig {
    /// `Δ`: if no version update has been received from a client for this
    /// long (virtual time), probe it offline.
    pub probe_period: u64,
    /// Whether to issue dummy reads when idle (one per tick, round-robin
    /// over the other clients' registers). The paper requires them for
    /// stability detection; disabling them isolates the probe mechanism
    /// in experiments.
    pub dummy_reads: bool,
    /// COMMIT transmission strategy of the underlying USTOR client
    /// (Section 5 piggybacking optimization).
    pub commit_mode: faust_ustor::CommitMode,
    /// Pipeline depth of the underlying USTOR client: how many user
    /// operations may be in flight at once. 1 (the default) is the
    /// paper's sequential client; deeper windows overlap round trips and
    /// group-commit latency at the cost of a wider detection window (see
    /// `faust_ustor::client` and `docs/client-api.md`). The depth is a
    /// deployment-wide protocol parameter — configure every client
    /// identically.
    pub pipeline: usize,
}

impl Default for FaustConfig {
    fn default() -> Self {
        FaustConfig {
            probe_period: 200,
            dummy_reads: true,
            commit_mode: faust_ustor::CommitMode::Immediate,
            pipeline: 1,
        }
    }
}

/// A queued user operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UserOp {
    /// Write the client's own register.
    Write(Value),
    /// Read a register.
    Read(ClientId),
}

impl Wire for UserOp {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        match self {
            UserOp::Write(value) => {
                0u8.encode_into(out);
                value.encode_into(out);
            }
            UserOp::Read(register) => {
                1u8.encode_into(out);
                register.encode_into(out);
            }
        }
    }

    fn decode_from(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode_from(buf)? {
            0 => Ok(UserOp::Write(Value::decode_from(buf)?)),
            1 => Ok(UserOp::Read(ClientId::decode_from(buf)?)),
            tag => Err(WireError::BadTag(tag)),
        }
    }
}

/// Serializable snapshot of a [`FaustClient`]'s resumable state (keys
/// excluded — the caller re-supplies the keypair and registry on
/// restore). Produced by [`FaustClient::export_state`], consumed by
/// [`FaustClient::from_state`].
///
/// A halted client's failure is *not* part of the state: a failed
/// session has nothing to resume, and callers refuse to export one at
/// the [`crate::SessionCore`] layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaustClientState {
    /// The wrapped USTOR protocol state (carries `id`, `n`, the version,
    /// in-flight operations, pipeline depth, and commit mode).
    pub ustor: UstorClientState,
    /// [`FaustConfig::probe_period`].
    pub probe_period: u64,
    /// [`FaustConfig::dummy_reads`].
    pub dummy_reads: bool,
    /// `VER_i[j]`: maximal version received per client.
    pub ver: Vec<Version>,
    /// Virtual time of the last update (or probe) per entry.
    pub ver_time: Vec<u64>,
    /// Index of the maximal version in `ver`.
    pub max_idx: u32,
    /// The stability cut `W_i`.
    pub w: Vec<Timestamp>,
    /// User operations queued but not yet begun, oldest first.
    pub user_queue: Vec<UserOp>,
    /// One flag per in-flight operation, oldest first: 1 = user
    /// operation (completion notifies the application), 0 = dummy read.
    pub current_user: Vec<u8>,
    /// Round-robin pointer for dummy reads.
    pub rr_next: u32,
}

impl Wire for FaustClientState {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        self.ustor.encode_into(out);
        self.probe_period.encode_into(out);
        u8::from(self.dummy_reads).encode_into(out);
        self.ver.encode_into(out);
        self.ver_time.encode_into(out);
        self.max_idx.encode_into(out);
        self.w.encode_into(out);
        self.user_queue.encode_into(out);
        self.current_user.encode_into(out);
        self.rr_next.encode_into(out);
    }

    fn decode_from(buf: &mut &[u8]) -> Result<Self, WireError> {
        let ustor = UstorClientState::decode_from(buf)?;
        let probe_period = u64::decode_from(buf)?;
        let dummy_reads = match u8::decode_from(buf)? {
            0 => false,
            1 => true,
            tag => return Err(WireError::BadTag(tag)),
        };
        let ver = Vec::<Version>::decode_from(buf)?;
        let ver_time = Vec::<u64>::decode_from(buf)?;
        let max_idx = u32::decode_from(buf)?;
        let w = Vec::<Timestamp>::decode_from(buf)?;
        let user_queue = Vec::<UserOp>::decode_from(buf)?;
        let current_user = Vec::<u8>::decode_from(buf)?;
        if let Some(&tag) = current_user.iter().find(|&&flag| flag > 1) {
            return Err(WireError::BadTag(tag));
        }
        let rr_next = u32::decode_from(buf)?;
        Ok(FaustClientState {
            ustor,
            probe_period,
            dummy_reads,
            ver,
            ver_time,
            max_idx,
            w,
            user_queue,
            current_user,
            rr_next,
        })
    }
}

/// Everything the caller must do after an event: forward messages and
/// deliver notifications.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Actions {
    /// Messages to send to the storage server, in order.
    pub to_server: Vec<UstorMsg>,
    /// Offline messages to other clients.
    pub offline: Vec<(ClientId, OfflineMsg)>,
    /// Notifications for the application.
    pub notifications: Vec<Notification>,
}

#[derive(Debug, Clone, Copy)]
struct CurrentOp {
    user: bool,
}

/// User operations in flight, oldest first (completions arrive FIFO).
type InFlight = VecDeque<CurrentOp>;

/// The FAUST protocol state for one client.
///
/// # Example
///
/// ```
/// use faust_core::{FaustClient, FaustConfig, UserOp};
/// use faust_crypto::sig::KeySet;
/// use faust_types::{ClientId, Value};
///
/// let keys = KeySet::generate(2, b"doc");
/// let mut client = FaustClient::new(
///     ClientId::new(0),
///     2,
///     keys.keypair(0).unwrap().clone(),
///     keys.registry(),
///     FaustConfig::default(),
/// );
/// let actions = client.invoke(UserOp::Write(Value::from("v1")), 0);
/// assert_eq!(actions.to_server.len(), 1); // the SUBMIT message
/// ```
#[derive(Debug, Clone)]
pub struct FaustClient {
    ustor: UstorClient,
    keypair: Keypair,
    config: FaustConfig,
    /// `VER_i[j]`: maximal version received from client `j` (own entry =
    /// own last committed version).
    ver: Vec<Version>,
    /// Virtual time of the last update (or probe) per entry.
    ver_time: Vec<u64>,
    /// Index of the maximal version in `ver`.
    max_idx: usize,
    /// The current stability cut `W_i`.
    w: Vec<Timestamp>,
    user_queue: VecDeque<UserOp>,
    current: InFlight,
    /// Round-robin pointer for dummy reads.
    rr_next: u32,
    failed: Option<FailReason>,
    /// Set when this client was rebuilt from a persisted snapshot and
    /// has not yet validated a reply against the live server. While set,
    /// any USTOR fault is reported as [`Fault::StaleClientState`]: a
    /// rolled-back snapshot replays timestamps the server has already
    /// answered, and the resulting mismatch (cached-reply divergence or
    /// an own-timestamp mismatch, Algorithm 1 line 36) is evidence of
    /// stale *local* state, not of server misbehavior. Cleared by the
    /// first successfully verified reply.
    stale_guard: bool,
}

impl FaustClient {
    /// Creates the FAUST client state for client `id` of `n`.
    ///
    /// # Panics
    ///
    /// Panics if the keypair does not match `id` or `id ≥ n`.
    pub fn new(
        id: ClientId,
        n: usize,
        keypair: Keypair,
        registry: VerifierRegistry,
        config: FaustConfig,
    ) -> Self {
        let mut ustor = UstorClient::new(id, n, keypair.clone(), registry);
        ustor.set_commit_mode(config.commit_mode);
        ustor.set_pipeline(config.pipeline);
        FaustClient {
            ustor,
            keypair,
            config,
            ver: vec![Version::initial(n); n],
            ver_time: vec![0; n],
            max_idx: id.index(),
            w: vec![0; n],
            user_queue: VecDeque::new(),
            current: VecDeque::new(),
            rr_next: 0,
            failed: None,
            stale_guard: false,
        }
    }

    /// Snapshots the resumable state (keys excluded; see
    /// [`FaustClientState`]).
    pub fn export_state(&self) -> FaustClientState {
        FaustClientState {
            ustor: self.ustor.export_state(),
            probe_period: self.config.probe_period,
            dummy_reads: self.config.dummy_reads,
            ver: self.ver.clone(),
            ver_time: self.ver_time.clone(),
            max_idx: self.max_idx as u32,
            w: self.w.clone(),
            user_queue: self.user_queue.iter().cloned().collect(),
            current_user: self.current.iter().map(|c| u8::from(c.user)).collect(),
            rr_next: self.rr_next,
        }
    }

    /// Rebuilds a client from a state snapshot plus its (externally
    /// kept) key material. The restored client starts with the stale
    /// guard armed: until its first reply verifies against the live
    /// server, any USTOR fault is reported as
    /// [`Fault::StaleClientState`] (see the field docs). Callers should
    /// follow up with [`FaustClient::probe_resume`] so staleness
    /// surfaces promptly even when nothing was in flight.
    ///
    /// # Panics
    ///
    /// Panics if the keypair does not match the snapshot's `id` or
    /// `id ≥ n` (same contract as [`FaustClient::new`]).
    pub fn from_state(
        keypair: Keypair,
        registry: VerifierRegistry,
        state: FaustClientState,
    ) -> Self {
        let config = FaustConfig {
            probe_period: state.probe_period,
            dummy_reads: state.dummy_reads,
            commit_mode: if state.ustor.piggyback {
                faust_ustor::CommitMode::Piggyback
            } else {
                faust_ustor::CommitMode::Immediate
            },
            pipeline: (state.ustor.max_pipeline as usize).max(1),
        };
        let n = state.ustor.n as usize;
        let ustor = UstorClient::from_state(keypair.clone(), registry, state.ustor);
        FaustClient {
            ustor,
            keypair,
            config,
            ver: state.ver,
            ver_time: state.ver_time,
            max_idx: (state.max_idx as usize).min(n.saturating_sub(1)),
            w: state.w,
            user_queue: state.user_queue.into(),
            current: state
                .current_user
                .into_iter()
                .map(|flag| CurrentOp { user: flag != 0 })
                .collect(),
            rr_next: state.rr_next,
            failed: None,
            stale_guard: true,
        }
    }

    /// Issues a non-user read of the client's own register, if nothing
    /// is in flight. Runtimes call this once after
    /// [`FaustClient::from_state`]: the probe round-trips the restored
    /// version against the live server, so a rolled-back snapshot is
    /// flagged as [`Fault::StaleClientState`] at connect time instead of
    /// lying dormant until the next user operation. When resumed
    /// operations are already in flight the probe is skipped — their
    /// resent SUBMITs perform the same validation.
    pub fn probe_resume(&mut self, _now: u64) -> Actions {
        let mut actions = Actions::default();
        if self.failed.is_some() || self.ustor.in_flight() > 0 {
            return actions;
        }
        if let Ok(msg) = self.ustor.begin_read(self.id()) {
            self.current.push_back(CurrentOp { user: false });
            actions.to_server.push(UstorMsg::Submit(msg));
        }
        actions
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.ustor.id()
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.ustor.num_clients()
    }

    /// The USTOR client underneath.
    pub(crate) fn ustor(&self) -> &UstorClient {
        &self.ustor
    }

    /// The USTOR client underneath, mutably.
    pub(crate) fn ustor_mut(&mut self) -> &mut UstorClient {
        &mut self.ustor
    }

    /// The failure that halted this client, if any.
    pub fn failure(&self) -> Option<&FailReason> {
        self.failed.as_ref()
    }

    /// The current stability cut `W_i`.
    pub fn stability_cut(&self) -> StabilityCut {
        StabilityCut { w: self.w.clone() }
    }

    /// The maximal version this client knows.
    pub fn max_version(&self) -> &Version {
        &self.ver[self.max_idx]
    }

    /// Number of queued user operations (including those in flight).
    pub fn backlog(&self) -> usize {
        self.user_queue.len() + self.current.len()
    }

    /// The underlying protocol configuration.
    pub fn config(&self) -> &FaustConfig {
        &self.config
    }

    /// Whether nothing at all is in flight or queued (dummy reads
    /// included).
    pub fn is_idle(&self) -> bool {
        self.current.is_empty() && self.user_queue.is_empty()
    }

    /// In [`faust_ustor::CommitMode::Piggyback`]: takes the COMMIT
    /// awaiting the next SUBMIT, if any, so an idle runtime can send it
    /// explicitly (see [`faust_ustor::UstorClient::take_held_commit`]).
    pub fn take_held_commit(&mut self) -> Option<faust_types::CommitMsg> {
        self.ustor.take_held_commit()
    }

    /// Submits a user operation. It is queued if another operation is in
    /// flight (the service is used sequentially, but the application may
    /// hand over work at any time).
    pub fn invoke(&mut self, op: UserOp, now: u64) -> Actions {
        let mut actions = Actions::default();
        if self.failed.is_some() {
            return actions;
        }
        self.user_queue.push_back(op);
        self.maybe_start(&mut actions, now);
        actions
    }

    /// Processes a REPLY from the server.
    pub fn handle_reply(&mut self, reply: ReplyMsg, now: u64) -> Actions {
        let mut actions = Actions::default();
        if self.failed.is_some() {
            return actions;
        }
        match self.ustor.handle_reply(reply) {
            Err(fault) => {
                // A rebuilt-from-snapshot client that fails its first
                // reply check most likely restored rolled-back state
                // (the server has moved past the snapshot's timestamps);
                // blame the snapshot, not the server.
                let fault = if self.stale_guard {
                    Fault::StaleClientState
                } else {
                    fault
                };
                self.fail(FailReason::Ustor(fault), &mut actions);
            }
            Ok((commit, done)) => {
                self.stale_guard = false;
                if let Some(commit) = commit {
                    actions.to_server.push(UstorMsg::Commit(commit));
                }
                // Completions arrive FIFO: this reply answers the oldest
                // in-flight operation.
                let was_user = self.current.pop_front().map(|c| c.user).unwrap_or(false);
                let own = self.id().index();
                self.install_version(own, done.version, now, &mut actions);
                if self.failed.is_none() {
                    if let Some(writer_version) = done.writer_version {
                        self.install_version(
                            done.target.index(),
                            writer_version.version,
                            now,
                            &mut actions,
                        );
                    }
                }
                if was_user {
                    actions
                        .notifications
                        .push(Notification::Completed(FaustCompletion {
                            kind: done.kind,
                            target: done.target,
                            timestamp: done.timestamp,
                            read_value: done.read_value,
                        }));
                }
                if self.failed.is_none() {
                    self.maybe_start(&mut actions, now);
                }
            }
        }
        actions
    }

    /// Processes an offline message from another client.
    pub fn handle_offline(&mut self, msg: OfflineMsg, now: u64) -> Actions {
        let mut actions = Actions::default();
        if self.failed.is_some() {
            return actions;
        }
        if !msg.verify(self.registry()) {
            return actions; // unauthenticated noise; ignore
        }
        match msg {
            OfflineMsg::Probe { from, .. } => {
                let version = self.ver[self.max_idx].clone();
                actions
                    .offline
                    .push((from, OfflineMsg::version(&self.keypair, version)));
            }
            OfflineMsg::Version { from, version, .. } => {
                self.install_version(from.index(), version, now, &mut actions);
            }
            OfflineMsg::Failure { from, .. } => {
                self.fail(FailReason::ReportedBy(from), &mut actions);
            }
        }
        actions
    }

    /// Periodic tick: probes silent clients and issues a dummy read when
    /// idle.
    pub fn on_tick(&mut self, now: u64) -> Actions {
        let mut actions = Actions::default();
        if self.failed.is_some() {
            return actions;
        }
        let me = self.id().index();
        for j in 0..self.num_clients() {
            if j == me {
                continue;
            }
            if now.saturating_sub(self.ver_time[j]) >= self.config.probe_period {
                self.ver_time[j] = now; // wait another Δ before re-probing
                actions
                    .offline
                    .push((ClientId::new(j as u32), OfflineMsg::probe(&self.keypair)));
            }
        }
        self.maybe_start(&mut actions, now);
        if self.current.is_empty()
            && self.user_queue.is_empty()
            && self.config.dummy_reads
            && self.num_clients() > 1
        {
            self.start_dummy_read(&mut actions);
        }
        actions
    }

    /// The verifier registry used for offline-message authentication.
    fn registry(&self) -> &VerifierRegistry {
        self.ustor.registry()
    }

    /// Starts as many queued user operations as the pipeline window
    /// allows (one, at the default depth).
    fn maybe_start(&mut self, actions: &mut Actions, _now: u64) {
        if self.failed.is_some() {
            return;
        }
        while !self.ustor.is_busy() {
            let Some(op) = self.user_queue.pop_front() else {
                return;
            };
            let submit = match op {
                UserOp::Write(value) => self.ustor.begin_write(value),
                UserOp::Read(register) => self.ustor.begin_read(register),
            };
            match submit {
                Ok(msg) => {
                    self.current.push_back(CurrentOp { user: true });
                    actions.to_server.push(UstorMsg::Submit(msg));
                }
                Err(_) => {
                    // Busy/halted: both are guarded above; nothing to do.
                    return;
                }
            }
        }
    }

    fn start_dummy_read(&mut self, actions: &mut Actions) {
        let n = self.num_clients() as u32;
        let me = self.id().as_u32();
        // Next round-robin target, skipping ourselves.
        let mut target = self.rr_next % n;
        if target == me {
            target = (target + 1) % n;
        }
        self.rr_next = (target + 1) % n;
        if let Ok(msg) = self.ustor.begin_read(ClientId::new(target)) {
            self.current.push_back(CurrentOp { user: false });
            actions.to_server.push(UstorMsg::Submit(msg));
        }
    }

    /// Installs a version received from client `j`, running the
    /// comparability check and refreshing the stability cut: one
    /// comparison against the current maximum, one against `VER_i[j]`.
    /// That second one needs the full `VER_i[j]`: after a join a summary
    /// such as `Σ V` misorders versions (`docs/trust-model.md`).
    fn install_version(&mut self, j: usize, version: Version, now: u64, actions: &mut Actions) {
        let against_max = version.compare(&self.ver[self.max_idx]);
        if against_max == VersionCmp::Incomparable {
            self.fail(
                FailReason::IncomparableVersions {
                    from: ClientId::new(j as u32),
                },
                actions,
            );
            return;
        }
        if self.ver[j].lt(&version) {
            // Only a *growing* version counts as an update from C_j;
            // receiving a stale version must not suppress probing, or a
            // faulty server could keep forked clients from ever
            // exchanging versions (detection completeness would break).
            self.ver_time[j] = now;
            // Only slot j changed, so only `W_i[j]` can.
            let vji = version.v().get(self.id());
            self.ver[j] = version;
            if against_max != VersionCmp::Less {
                self.max_idx = j;
            }
            if vji > self.w[j] {
                self.w[j] = vji;
                actions
                    .notifications
                    .push(Notification::Stable(self.stability_cut()));
            }
        }
    }

    fn fail(&mut self, reason: FailReason, actions: &mut Actions) {
        if self.failed.is_some() {
            return;
        }
        self.failed = Some(reason.clone());
        let me = self.id();
        for j in ClientId::all(self.num_clients()) {
            if j != me {
                actions
                    .offline
                    .push((j, OfflineMsg::failure(&self.keypair)));
            }
        }
        actions.notifications.push(Notification::Failed(reason));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faust_crypto::sig::KeySet;
    use faust_types::OpKind;
    use faust_ustor::{Server, ServerEngine, UstorServer};

    fn setup(n: usize) -> (UstorServer, Vec<FaustClient>) {
        let keys = KeySet::generate(n, b"faust-client");
        let clients = (0..n)
            .map(|i| {
                FaustClient::new(
                    ClientId::new(i as u32),
                    n,
                    keys.keypair(i as u32).unwrap().clone(),
                    keys.registry(),
                    FaustConfig::default(),
                )
            })
            .collect();
        (UstorServer::new(n), clients)
    }

    /// Pushes one user op through client `who` synchronously.
    fn run_user_op(
        server: &mut UstorServer,
        client: &mut FaustClient,
        op: UserOp,
        now: u64,
    ) -> Vec<Notification> {
        let mut notifications = Vec::new();
        let actions = client.invoke(op, now);
        notifications.extend(actions.notifications.clone());
        let mut to_server = actions.to_server;
        while let Some(msg) = to_server.first().cloned() {
            to_server.remove(0);
            let replies = match msg {
                UstorMsg::Submit(m) => server.on_submit(client.id(), m),
                UstorMsg::Commit(m) => server.on_commit(client.id(), m),
                UstorMsg::Reply(_) | UstorMsg::CommitDelta(_) => Vec::new(),
            };
            for (_, reply) in replies {
                let a = client.handle_reply(reply, now);
                notifications.extend(a.notifications.clone());
                to_server.extend(a.to_server);
            }
        }
        notifications
    }

    #[test]
    fn user_op_completes_with_timestamp() {
        let (mut server, mut clients) = setup(2);
        let notes = run_user_op(
            &mut server,
            &mut clients[0],
            UserOp::Write(Value::from("x")),
            0,
        );
        let completed: Vec<_> = notes
            .iter()
            .filter_map(|n| match n {
                Notification::Completed(c) => Some(c.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(completed.len(), 1);
        assert_eq!(completed[0].timestamp, 1);
        assert_eq!(completed[0].kind, OpKind::Write);
    }

    #[test]
    fn a_restored_client_takes_l_in_full_on_its_new_connection() {
        // C1's write never commits. C0 pipelines two reads; only the
        // first SUBMIT reaches the engine before C0 is saved, right after
        // taking its reply, and exits.
        let (_, mut clients) = setup(2);
        let (c0, c1) = (ClientId::new(0), ClientId::new(1));
        let mut engine = ServerEngine::new(2, Box::new(UstorServer::new(2)));
        let exchange = |engine: &mut ServerEngine, from, msgs: Vec<UstorMsg>| {
            for msg in msgs {
                engine.enqueue(from, msg);
            }
            engine.process_all();
            let mut replies = Vec::new();
            while let Some((_, batch)) = engine.poll_output_batch() {
                for msg in batch {
                    let UstorMsg::Reply(reply) = msg else {
                        panic!("the engine sends only replies")
                    };
                    replies.push(reply);
                }
            }
            replies
        };
        let write = clients[1].invoke(UserOp::Write(Value::from("w")), 0);
        exchange(&mut engine, c1, write.to_server);
        let keys = KeySet::generate(2, b"faust-client");
        let keypair = keys.keypair(0).unwrap().clone();
        let config = FaustConfig {
            pipeline: 2,
            ..FaustConfig::default()
        };
        let mut live = FaustClient::new(c0, 2, keypair.clone(), keys.registry(), config);
        let first = live.invoke(UserOp::Read(c0), 0).to_server;
        let second = live.invoke(UserOp::Read(c0), 0).to_server;
        let replies = exchange(&mut engine, c0, first);
        let [first] = &replies[..] else {
            panic!("one reply: {replies:?}")
        };
        assert_eq!((first.left_out.kept, first.pending.len()), (0, 1));
        live.handle_reply(first.clone(), 0);
        let saved = live.export_state();
        let restore = || FaustClient::from_state(keypair.clone(), keys.registry(), saved.clone());

        // Restored, C0 resends on a new connection. The engine, told of
        // it, sends `L` in full, and C0 completes the read.
        engine.connected(c0);
        let replies = exchange(&mut engine, c0, second);
        let [reply] = &replies[..] else {
            panic!("one reply: {replies:?}")
        };
        assert_eq!((reply.left_out.kept, reply.pending.len()), (0, 2));
        let mut restored = restore();
        let notes = restored.handle_reply(reply.clone(), 0).notifications;
        assert!(
            notes
                .iter()
                .any(|n| matches!(n, Notification::Completed(_))),
            "{notes:?}"
        );
        assert!(restored.failure().is_none());

        // Sent against the `L` of the old connection, the same reply
        // keeps a tuple a restored client cannot rebuild: a typed fault
        // its resume guard blames on the snapshot, never a panic.
        let mut kept = reply.clone();
        kept.leave_out(&mut first.pending.clone(), None, None);
        assert_eq!((kept.left_out.kept, kept.pending.len()), (1, 1));
        let mut restored = restore();
        let notes = restored.handle_reply(kept, 0).notifications;
        let stale = FailReason::Ustor(Fault::StaleClientState);
        assert_eq!(notes, [Notification::Failed(stale.clone())]);
        assert_eq!(restored.failure(), Some(&stale));
    }

    #[test]
    fn own_ops_are_immediately_self_stable() {
        let (mut server, mut clients) = setup(2);
        run_user_op(
            &mut server,
            &mut clients[0],
            UserOp::Write(Value::from("x")),
            0,
        );
        let cut = clients[0].stability_cut();
        assert_eq!(cut.w[0], 1, "own entry tracks own timestamp");
        assert_eq!(cut.w[1], 0, "nothing known from the other client yet");
    }

    #[test]
    fn reading_a_register_imports_the_writer_version() {
        let (mut server, mut clients) = setup(2);
        // C1 writes; C0 reads C1's register and thereby learns C1's
        // version. C1's version does not include any op of C0 yet, so
        // C0's stability w.r.t. C1 stays 0 — but after C1 reads C0's
        // register and C0 reads again, stability advances.
        run_user_op(
            &mut server,
            &mut clients[1],
            UserOp::Write(Value::from("b")),
            0,
        );
        run_user_op(
            &mut server,
            &mut clients[0],
            UserOp::Write(Value::from("a")),
            1,
        );
        run_user_op(
            &mut server,
            &mut clients[1],
            UserOp::Read(ClientId::new(0)),
            2,
        );
        let notes = run_user_op(
            &mut server,
            &mut clients[0],
            UserOp::Read(ClientId::new(1)),
            3,
        );
        // C0 now holds a version from C1 whose entry for C0 is 1.
        let cut = clients[0].stability_cut();
        assert_eq!(cut.w[1], 1, "C1 vouches for C0's first op");
        assert!(notes.iter().any(|n| matches!(n, Notification::Stable(_))));
    }

    #[test]
    fn probe_is_answered_with_max_version() {
        let (mut server, mut clients) = setup(2);
        run_user_op(
            &mut server,
            &mut clients[0],
            UserOp::Write(Value::from("a")),
            0,
        );
        let (c0, c1) = {
            let (a, b) = clients.split_at_mut(1);
            (&mut a[0], &mut b[0])
        };
        let probe = OfflineMsg::probe_from_tests(c1);
        let actions = c0.handle_offline(probe, 10);
        assert_eq!(actions.offline.len(), 1);
        let (to, reply) = &actions.offline[0];
        assert_eq!(*to, c1.id());
        let OfflineMsg::Version { version, .. } = reply else {
            panic!("expected VERSION, got {reply:?}");
        };
        assert_eq!(version, c0.max_version());
        // C1 installs it and now knows C0's version. No stability change
        // for C1 yet — the version contains no operation of C1.
        let _ = c1.handle_offline(reply.clone(), 11);
        assert_eq!(c1.max_version(), version);
        assert_eq!(c1.stability_cut().w, vec![0, 0]);
    }

    impl OfflineMsg {
        /// Test helper: a probe signed by `client`.
        fn probe_from_tests(client: &FaustClient) -> OfflineMsg {
            OfflineMsg::probe(&client.keypair)
        }
    }

    #[test]
    fn incomparable_version_triggers_failure() {
        let (mut server, mut clients) = setup(3);
        run_user_op(
            &mut server,
            &mut clients[0],
            UserOp::Write(Value::from("a")),
            0,
        );
        // Forge a version on a different branch: same length, different
        // digest (as a forking server would produce).
        let mut fork = Version::initial(3);
        fork.v_mut().set(ClientId::new(0), 1);
        fork.m_mut()
            .set(ClientId::new(0), faust_crypto::sha256(b"other branch"));
        let keys = KeySet::generate(3, b"faust-client");
        let msg = OfflineMsg::version(keys.keypair(1).unwrap(), fork);
        let actions = clients[0].handle_offline(msg, 5);
        assert!(matches!(
            actions.notifications.last(),
            Some(Notification::Failed(
                FailReason::IncomparableVersions { .. }
            ))
        ));
        // The failure is broadcast to all other clients.
        assert_eq!(actions.offline.len(), 2);
        assert!(clients[0].failure().is_some());
    }

    /// `install_version` as it was before it made one comparison per
    /// version: `comparable` + `lt` + `le` (five evaluations of `≼` when
    /// each was its own pass) and a rescan of all of `VER_i` for the
    /// stability cut.
    struct ReferenceInstall {
        me: usize,
        ver: Vec<Version>,
        max_idx: usize,
        w: Vec<Timestamp>,
        failed: bool,
    }

    #[derive(Debug, PartialEq)]
    enum Note {
        Stable(Vec<Timestamp>),
        Failed(usize),
    }

    impl ReferenceInstall {
        fn install(&mut self, j: usize, version: Version) -> Vec<Note> {
            let mut notes = Vec::new();
            if !version.comparable(&self.ver[self.max_idx]) {
                self.failed = true;
                notes.push(Note::Failed(j));
                return notes;
            }
            if self.ver[j].lt(&version) {
                self.ver[j] = version;
                if self.ver[self.max_idx].le(&self.ver[j]) {
                    self.max_idx = j;
                }
                let mut changed = false;
                for k in 0..self.ver.len() {
                    let vki = self.ver[k].v().as_slice()[self.me];
                    if vki > self.w[k] {
                        self.w[k] = vki;
                        changed = true;
                    }
                }
                if changed {
                    notes.push(Note::Stable(self.w.clone()));
                }
            }
            notes
        }
    }

    #[test]
    fn one_compare_install_matches_the_five_compare_reference() {
        use faust_sim::SmallRng;
        const N: usize = 3;
        let mut forks_noticed = 0;
        for seed in 0..64u64 {
            let rng = &mut SmallRng::seed_from_u64(0x1457 ^ seed);
            // One honest history: every version extends the previous one.
            let mut chain = vec![Version::initial(N)];
            for step in 0..24u8 {
                let mut next = chain[chain.len() - 1].clone();
                let k = ClientId::new(rng.gen_index(N) as u32);
                next.v_mut().increment(k);
                next.m_mut().set(k, faust_crypto::sha256(&[step]));
                chain.push(next);
            }
            let (_, mut clients) = setup(N);
            let client = &mut clients[0];
            let mut reference = ReferenceInstall {
                me: 0,
                ver: vec![Version::initial(N); N],
                max_idx: 0,
                w: vec![0; N],
                failed: false,
            };
            // Stale, equal and growing versions in any order, from any
            // client; part-way through, one that forks off the maximum.
            let fork_at = 5 + rng.gen_index(15);
            let mut frontier = 1;
            for step in 0..40 {
                let j = rng.gen_index(N);
                let version = if step == fork_at {
                    let mut fork = client.max_version().clone();
                    let k = ClientId::new(rng.gen_index(N) as u32);
                    fork.v_mut().increment(k);
                    fork.m_mut().set(k, faust_crypto::sha256(b"other branch"));
                    fork
                } else {
                    frontier = (frontier + rng.gen_index(3)).min(chain.len() - 1);
                    chain[rng.gen_index(frontier + 1)].clone()
                };
                let mut actions = Actions::default();
                client.install_version(j, version.clone(), step as u64, &mut actions);
                let got: Vec<Note> = actions
                    .notifications
                    .into_iter()
                    .map(|note| match note {
                        Notification::Stable(cut) => Note::Stable(cut.w),
                        Notification::Failed(FailReason::IncomparableVersions { from }) => {
                            Note::Failed(from.index())
                        }
                        other => panic!("unexpected {other:?}"),
                    })
                    .collect();
                assert_eq!(
                    got,
                    reference.install(j, version),
                    "seed {seed} step {step}"
                );
                assert_eq!(client.failure().is_some(), reference.failed);
                assert_eq!(client.max_version(), &reference.ver[reference.max_idx]);
                assert_eq!(client.stability_cut().w, reference.w);
                if reference.failed {
                    break; // a failed client installs nothing further
                }
            }
            forks_noticed += usize::from(reference.failed);
        }
        // The fork itself extends the maximum and installs; it shows when
        // the honest branch next reaches the forked entry.
        assert!(forks_noticed >= 32, "{forks_noticed} of 64 scripts failed");
    }

    #[test]
    fn failure_report_propagates_and_halts() {
        let (mut _server, mut clients) = setup(2);
        let keys = KeySet::generate(2, b"faust-client");
        let report = OfflineMsg::failure(keys.keypair(1).unwrap());
        let actions = clients[0].handle_offline(report, 0);
        assert!(matches!(
            actions.notifications.last(),
            Some(Notification::Failed(FailReason::ReportedBy(c))) if c.index() == 1
        ));
        // Halted: further invocations are ignored.
        let a = clients[0].invoke(UserOp::Write(Value::from("x")), 1);
        assert!(a.to_server.is_empty());
    }

    #[test]
    fn unauthenticated_offline_messages_ignored() {
        let (mut _server, mut clients) = setup(2);
        let other_keys = KeySet::generate(2, b"different-universe");
        let forged = OfflineMsg::failure(other_keys.keypair(1).unwrap());
        let actions = clients[0].handle_offline(forged, 0);
        assert!(actions.notifications.is_empty());
        assert!(clients[0].failure().is_none());
    }

    #[test]
    fn tick_probes_silent_clients() {
        let (mut server, mut clients) = setup(3);
        run_user_op(
            &mut server,
            &mut clients[0],
            UserOp::Write(Value::from("a")),
            0,
        );
        let actions = clients[0].on_tick(1000);
        let probed: Vec<ClientId> = actions.offline.iter().map(|(to, _)| *to).collect();
        assert_eq!(probed, vec![ClientId::new(1), ClientId::new(2)]);
        // Within Δ of the probe, no re-probe.
        let actions = clients[0].on_tick(1001);
        assert!(actions.offline.is_empty());
    }

    #[test]
    fn tick_issues_round_robin_dummy_reads_when_idle() {
        let (mut _server, mut clients) = setup(3);
        let a1 = clients[0].on_tick(1);
        // One dummy read submitted (plus possibly probes at t=1? ver_time
        // starts at 0 and probe_period is 200, so no probes yet).
        assert_eq!(a1.to_server.len(), 1);
        let UstorMsg::Submit(s1) = &a1.to_server[0] else {
            panic!("expected submit");
        };
        assert_eq!(s1.tuple.kind, OpKind::Read);
        // While the dummy read is in flight, no second one starts.
        let a2 = clients[0].on_tick(2);
        assert!(a2.to_server.is_empty());
    }

    #[test]
    fn dummy_reads_skip_self_and_rotate() {
        let (mut server, mut clients) = setup(3);
        let mut targets = Vec::new();
        for t in 0..4 {
            let actions = clients[1].on_tick(t);
            let UstorMsg::Submit(s) = &actions.to_server[0] else {
                panic!("expected submit")
            };
            targets.push(s.tuple.register.index());
            // Complete the dummy read so the next tick can start one.
            let replies = server.on_submit(clients[1].id(), s.clone());
            for (_, r) in replies {
                let a = clients[1].handle_reply(r, t);
                for m in a.to_server {
                    if let UstorMsg::Commit(commit) = m {
                        server.on_commit(clients[1].id(), commit);
                    }
                }
            }
        }
        assert_eq!(targets, vec![0, 2, 0, 2], "round-robin skipping self");
    }
}
