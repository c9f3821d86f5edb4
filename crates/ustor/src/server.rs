//! The USTOR server — Algorithm 2 of the paper — and the [`Server`] trait
//! that Byzantine variants implement.

use faust_crypto::sig::Signature;
use faust_types::{
    ClientId, CommitMsg, InvocationTuple, LeftOut, OpKind, Proofs, ReadReply, ReplyMsg,
    SignedVersion, SubmitMsg, Timestamp, Value,
};

/// The door into a deployment of `n` clients: whether the sender, a
/// SUBMIT's invocation tuple — its client must be the sender, its
/// register `j` the deployment's — and a COMMIT's arity (standalone,
/// piggybacked or resolved from a delta) are the deployment's. Appended
/// to `L`, a tuple naming another client would make every client reject
/// the next REPLY; stored as `SVER[from]`, a COMMIT of another arity
/// would make every client reject the REPLYs naming `from` as `c`.
/// [`UstorServer`] applies it again, for direct callers and for logs
/// written before the engine did.
pub fn admits(
    n: usize,
    from: ClientId,
    tuple: Option<&InvocationTuple>,
    commit: Option<&CommitMsg>,
) -> bool {
    from.index() < n
        && tuple.is_none_or(|tuple| tuple.client == from && tuple.register.index() < n)
        && commit.is_none_or(|commit| commit.version.num_clients() == n)
}

/// Interface of a storage server, correct or Byzantine.
///
/// The simulator delivers each client message to these handlers; a handler
/// returns the messages the server chooses to send (a correct server
/// answers each SUBMIT with exactly one REPLY to the submitter, but a
/// faulty server may answer differently, later, or not at all). The
/// engine hands it only what [`admits`] lets in; where its replies go is
/// the implementation's choice.
pub trait Server {
    /// Handles `⟨SUBMIT, …⟩` from `client`; returns `(recipient, reply)`
    /// pairs to deliver.
    fn on_submit(&mut self, client: ClientId, msg: SubmitMsg) -> Vec<(ClientId, ReplyMsg)>;

    /// Handles `⟨COMMIT, …⟩` from `client`; may release further replies
    /// (a correct server never does).
    fn on_commit(&mut self, client: ClientId, msg: CommitMsg) -> Vec<(ClientId, ReplyMsg)>;

    /// Offers the server a durability flush point, returning any replies
    /// it was holding back until their records became durable.
    ///
    /// A purely in-memory server releases every reply from
    /// [`Server::on_submit`] directly and has nothing to flush — the
    /// default returns no replies. A group-committing persistent server
    /// (`faust-store`'s `Durability::Group`) appends records *without*
    /// fsyncing, withholds the corresponding replies, and releases them
    /// here after one batched fsync. `force` ignores the server's
    /// batching policy (size/age thresholds) and makes everything held
    /// durable now — runtimes force a flush when a transport closes so
    /// no reply is stranded.
    ///
    /// The engine calls this at the end of every processing round, so
    /// "one round" is the natural group-commit batch under load.
    fn flush(&mut self, force: bool) -> Vec<(ClientId, ReplyMsg)> {
        let _ = force;
        Vec::new()
    }

    /// When the server must next be offered a [`Server::flush`] even if
    /// no further traffic arrives — `Some(deadline)` while replies or
    /// unsynced records are being held back, `None` otherwise.
    ///
    /// Serve loops use this to bound how long a held reply can wait: a
    /// blocking transport switches from `recv` to `recv_deadline` while
    /// a deadline is pending.
    fn flush_deadline(&self) -> Option<std::time::Instant> {
        None
    }

    /// Virtual-time twin of [`Server::flush_deadline`]: the simulation
    /// tick at which a held reply must next be offered a flush, for
    /// servers driven by a discrete-event clock instead of `Instant`.
    ///
    /// `None` means either nothing is held or the server runs on wall
    /// time; a server reports its deadline through *one* of the two
    /// methods, never both.
    fn flush_deadline_at(&self) -> Option<u64> {
        None
    }

    /// Per-client session state recovered from durable storage, indexed
    /// by client — what the engine needs to seed its sessions so that a
    /// *restarted* server still recognises resent SUBMITs as duplicates
    /// (and keeps verifying reads against the right value hash).
    ///
    /// A volatile server recovers nothing — the default returns an empty
    /// vector, which the engine treats as all-fresh sessions. The engine
    /// calls this once, at construction.
    fn resume_sessions(&mut self) -> Vec<SessionResume> {
        Vec::new()
    }
}

/// One client's recovered session state — see
/// [`Server::resume_sessions`].
#[derive(Debug, Clone, Default)]
pub struct SessionResume {
    /// Timestamp of the client's last durably applied SUBMIT (0 if none).
    pub last_timestamp: Timestamp,
    /// The client's last written value, if any — a shared reference to
    /// `MEM[i]`'s, not a copy. The engine hashes it only if ingress
    /// verification is switched on, which is the one reader of that hash.
    pub last_value: Option<Value>,
    /// Replies re-derived during recovery, oldest first, each tagged with
    /// the timestamp of the SUBMIT it answered — the duplicate-replay
    /// cache, rebuilt from the logged SUBMITs and COMMITs under the live
    /// engine's rule ([`ReplyCache`](crate::ReplyCache)). Recovery can
    /// only rebuild replies for records replayed from the log
    /// (post-snapshot); a reply whose SUBMIT a snapshot absorbed is not
    /// among them, even if a client is still waiting on it (ROADMAP item
    /// 1).
    pub replies: Vec<(Timestamp, ReplyMsg)>,
}

/// `MEM[i]`: the timestamp, value, and DATA-signature most recently
/// received from client `C_i` (Algorithm 2 line 102).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemEntry {
    /// Timestamp of `C_i`'s last submitted operation.
    pub timestamp: Timestamp,
    /// Last written value (`None` = `⊥`, never written).
    pub value: Option<Value>,
    /// DATA-signature from the last submitted operation.
    pub data_sig: Option<Signature>,
}

impl MemEntry {
    fn initial() -> Self {
        MemEntry {
            timestamp: 0,
            value: None,
            data_sig: None,
        }
    }
}

/// A factory for [`Server`] instances — how runtimes choose *where the
/// server's state lives* without caring which transport carries it.
///
/// [`MemoryBackend`] builds a fresh volatile [`UstorServer`]; the
/// `faust-store` crate's `PersistentBackend` recovers one from an
/// append-only log + snapshot directory. Because `build` is a factory
/// (not a single instance), the same backend can be invoked again after
/// a crash to model a server restart — see
/// [`CrashRestartServer`](crate::fault::CrashRestartServer).
pub trait ServerBackend {
    /// Builds (or recovers) a server instance for `n` clients.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from persistent backends; the in-memory
    /// backend never fails.
    fn build(&self, n: usize) -> std::io::Result<Box<dyn Server + Send>>;
}

/// The default backend: a fresh in-memory [`UstorServer`]. All state is
/// volatile — a restart erases `MEM`, `SVER`, and the schedule, which
/// clients whose versions have advanced detect as a protocol violation.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoryBackend;

impl ServerBackend for MemoryBackend {
    fn build(&self, n: usize) -> std::io::Result<Box<dyn Server + Send>> {
        Ok(Box::new(UstorServer::new(n)))
    }
}

/// The complete protocol state of a correct server, exported for
/// persistence backends (snapshots) and state-identity assertions.
///
/// [`UstorServer::export_state`] and [`UstorServer::from_state`] round-trip
/// through this struct; two servers with equal states behave identically
/// on all future inputs (the server is deterministic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerState {
    /// `MEM` — register contents, indexed by client.
    pub mem: Vec<MemEntry>,
    /// `SVER` — last committed version per client.
    pub sver: Vec<SignedVersion>,
    /// `P` — PROOF-signatures per client.
    pub proofs: Vec<Option<Signature>>,
    /// `c` — the client that committed the last operation in the schedule.
    pub last_committer: ClientId,
    /// `L` — submitted-but-uncommitted invocation tuples, schedule order.
    pub pending: Vec<InvocationTuple>,
}

/// The correct USTOR server (Algorithm 2).
///
/// The order in which SUBMIT messages are processed defines the schedule
/// of operations — the linearization order when the server is correct.
/// The server never verifies signatures itself; it merely stores and
/// forwards them (it could not verify anyway: it holds no keys). A
/// message [`admits`] refuses changes nothing and gets no reply.
///
/// # Example
///
/// ```
/// use faust_types::ClientId;
/// use faust_ustor::{Server, UstorServer};
///
/// let server = UstorServer::new(3);
/// assert_eq!(server.pending_len(), 0);
/// let _: &dyn Server = &server;
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UstorServer {
    n: usize,
    /// `MEM` — register contents.
    mem: Vec<MemEntry>,
    /// `SVER` — last committed version per client, with COMMIT-signature.
    sver: Vec<SignedVersion>,
    /// `P` — PROOF-signatures per client.
    proofs: Vec<Option<Signature>>,
    /// `c` — the client that committed the last operation in the schedule.
    last_committer: ClientId,
    /// `L` — invocation tuples of submitted-but-uncommitted operations,
    /// in schedule order.
    pending: Vec<InvocationTuple>,
}

impl UstorServer {
    /// Creates a server for `n` clients with all registers `⊥`.
    pub fn new(n: usize) -> Self {
        UstorServer {
            n,
            mem: (0..n).map(|_| MemEntry::initial()).collect(),
            sver: (0..n).map(|_| SignedVersion::initial(n)).collect(),
            proofs: vec![None; n],
            last_committer: ClientId::new(0),
            pending: Vec::new(),
        }
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.n
    }

    /// Length of the concurrent-operation list `L` (exposed for the
    /// garbage-collection tests and metrics).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The stored register entry for `client` (test/diagnostic access).
    pub fn mem(&self, client: ClientId) -> &MemEntry {
        &self.mem[client.index()]
    }

    /// Exports the complete protocol state (for snapshots).
    pub fn export_state(&self) -> ServerState {
        ServerState {
            mem: self.mem.clone(),
            sver: self.sver.clone(),
            proofs: self.proofs.clone(),
            last_committer: self.last_committer,
            pending: self.pending.clone(),
        }
    }

    /// Rebuilds a server from an exported state.
    ///
    /// # Panics
    ///
    /// Panics if the state's per-client vectors disagree on the client
    /// count (a decoded snapshot must be validated before this call).
    pub fn from_state(state: ServerState) -> Self {
        let n = state.mem.len();
        assert_eq!(state.sver.len(), n, "SVER arity");
        assert_eq!(state.proofs.len(), n, "proofs arity");
        assert!(state.last_committer.index() < n, "last committer in range");
        UstorServer {
            n,
            mem: state.mem,
            sver: state.sver,
            proofs: state.proofs,
            last_committer: state.last_committer,
            pending: state.pending,
        }
    }

    /// Builds the REPLY for a submit without mutating state further;
    /// used by both the correct path and adversarial wrappers.
    fn build_reply(&self, msg: &SubmitMsg) -> ReplyMsg {
        let c = self.last_committer;
        let read = (msg.tuple.kind == OpKind::Read).then(|| {
            let j = msg.tuple.register;
            let entry = &self.mem[j.index()];
            ReadReply {
                writer_version: self.sver[j.index()].clone(),
                mem_timestamp: entry.timestamp,
                mem_value: entry.value.clone(),
                mem_data_sig: entry.data_sig,
            }
        });
        // Line 41 reads `P[k]` only for a client `k` with a tuple in `L`;
        // every other slot would be bytes no client checks, so it stays
        // empty. The walk stops once every slot is filled: a long `L` of
        // few clients is mostly repeats.
        let mut proofs = Proofs::none(self.n);
        let mut unfilled = self.n;
        for tuple in &self.pending {
            let k = tuple.client;
            let Some(&proof @ Some(_)) = self.proofs.get(k.index()) else {
                continue;
            };
            if proofs.get(k).is_none() {
                proofs.set(k, proof);
                unfilled -= 1;
                if unfilled == 0 {
                    break;
                }
            }
        }
        ReplyMsg {
            last_committer: c,
            commit_version: self.sver[c.index()].clone(),
            read,
            pending: self.pending.clone(),
            proofs,
            left_out: LeftOut::default(),
        }
    }
}

impl Server for UstorServer {
    fn on_submit(&mut self, client: ClientId, mut msg: SubmitMsg) -> Vec<(ClientId, ReplyMsg)> {
        if !admits(self.n, client, Some(&msg.tuple), None) {
            return Vec::new();
        }
        // Piggybacked COMMIT of the client's previous operation (Section
        // 5 optimization): apply it first, exactly as if it had arrived
        // as a separate message on the FIFO channel.
        if let Some(pb) = msg.piggyback.take() {
            self.on_commit(client, pb);
        }
        let i = client.index();
        // Lines 108–113: update MEM[i]. A read refreshes the timestamp and
        // DATA-signature but keeps the stored value.
        match msg.tuple.kind {
            OpKind::Read => {
                self.mem[i].timestamp = msg.timestamp;
                self.mem[i].data_sig = Some(msg.data_sig);
            }
            OpKind::Write => {
                self.mem[i] = MemEntry {
                    timestamp: msg.timestamp,
                    value: msg.value.clone(),
                    data_sig: Some(msg.data_sig),
                };
            }
        }
        // Lines 111/114–115: reply, then line 116: append to L.
        let reply = self.build_reply(&msg);
        self.pending.push(msg.tuple);
        vec![(client, reply)]
    }

    fn on_commit(&mut self, client: ClientId, msg: CommitMsg) -> Vec<(ClientId, ReplyMsg)> {
        if !admits(self.n, client, None, Some(&msg)) {
            return Vec::new();
        }
        // Lines 118–121: if this commit advances the schedule head, prune
        // L up to and including the committing client's tuple that the
        // committed version actually covers. For a sequential client that
        // is always its last tuple (the paper's rule verbatim); a
        // pipelined client may have *later* uncommitted tuples in L,
        // which must survive — they are not reflected in this version,
        // and dropping them would present a schedule with holes.
        let current = &self.sver[self.last_committer.index()];
        if msg.version.v().gt(current.version.v()) {
            self.last_committer = client;
            let committed_t = msg.version.v().get(client);
            // The client's tuples in L carry consecutive timestamps
            // ending at MEM[client].timestamp (its last submitted op),
            // so the covered tuple is the `committed_t - base`-th one.
            let in_l = self.pending.iter().filter(|t| t.client == client).count() as Timestamp;
            let base = self.mem[client.index()].timestamp.saturating_sub(in_l);
            let covered = committed_t.saturating_sub(base);
            if covered >= 1 {
                let mut seen = 0;
                let mut pos = None;
                for (idx, tuple) in self.pending.iter().enumerate() {
                    if tuple.client == client {
                        seen += 1;
                        if seen == covered {
                            pos = Some(idx);
                            break;
                        }
                    }
                }
                if let Some(pos) = pos {
                    self.pending.drain(..=pos);
                }
            }
        }
        // Lines 122–123.
        self.sver[client.index()] = SignedVersion {
            version: msg.version,
            sig: Some(msg.commit_sig),
        };
        self.proofs[client.index()] = Some(msg.proof_sig);
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::UstorClient;
    use faust_crypto::sig::KeySet;

    fn setup(n: usize) -> (UstorServer, Vec<UstorClient>) {
        let keys = KeySet::generate(n, b"server-tests");
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
        (UstorServer::new(n), clients)
    }

    /// Runs one full operation synchronously through the server.
    fn run_op(
        server: &mut UstorServer,
        client: &mut UstorClient,
        submit: SubmitMsg,
    ) -> crate::client::OpCompletion {
        let id = client.id();
        let mut replies = server.on_submit(id, submit);
        assert_eq!(replies.len(), 1);
        let (to, reply) = replies.pop().unwrap();
        assert_eq!(to, id);
        let (commit, done) = client.handle_reply(reply).expect("correct server");
        server.on_commit(id, commit.expect("immediate mode"));
        done
    }

    #[test]
    fn write_then_read_returns_value() {
        let (mut s, mut cs) = setup(2);
        let submit = cs[0].begin_write(Value::from("v1")).unwrap();
        let w = run_op(&mut s, &mut cs[0], submit);
        assert_eq!(w.timestamp, 1);

        let submit = cs[1].begin_read(ClientId::new(0)).unwrap();
        let r = run_op(&mut s, &mut cs[1], submit);
        assert_eq!(r.read_value, Some(Some(Value::from("v1"))));
    }

    #[test]
    fn read_of_unwritten_register_returns_bottom() {
        let (mut s, mut cs) = setup(2);
        let submit = cs[1].begin_read(ClientId::new(0)).unwrap();
        let r = run_op(&mut s, &mut cs[1], submit);
        assert_eq!(r.read_value, Some(None));
    }

    #[test]
    fn read_own_register() {
        let (mut s, mut cs) = setup(2);
        let submit = cs[0].begin_write(Value::from("mine")).unwrap();
        run_op(&mut s, &mut cs[0], submit);
        let submit = cs[0].begin_read(ClientId::new(0)).unwrap();
        let r = run_op(&mut s, &mut cs[0], submit);
        assert_eq!(r.read_value, Some(Some(Value::from("mine"))));
    }

    #[test]
    fn sequential_ops_commit_increasing_versions() {
        let (mut s, mut cs) = setup(3);
        let mut last = Version::initial(3);
        for round in 0..5u64 {
            for i in 0..3usize {
                let submit = cs[i].begin_write(Value::unique(i as u32, round)).unwrap();
                let done = run_op(&mut s, &mut cs[i], submit);
                assert!(last.lt(&done.version), "versions must grow");
                last = done.version;
            }
        }
    }

    use faust_types::Version;

    #[test]
    fn pending_list_garbage_collected() {
        let (mut s, mut cs) = setup(3);
        for round in 0..4u64 {
            for i in 0..3usize {
                let submit = cs[i].begin_write(Value::unique(i as u32, round)).unwrap();
                run_op(&mut s, &mut cs[i], submit);
            }
        }
        // After quiescence every submitted op has committed; L is empty.
        assert_eq!(s.pending_len(), 0);
    }

    #[test]
    fn concurrent_submits_fill_pending_list() {
        let (mut s, mut cs) = setup(3);
        // Three clients submit before any commits arrive.
        let m0 = cs[0].begin_write(Value::from("a")).unwrap();
        let m1 = cs[1].begin_write(Value::from("b")).unwrap();
        let m2 = cs[2].begin_write(Value::from("c")).unwrap();
        let r0 = s.on_submit(ClientId::new(0), m0);
        let r1 = s.on_submit(ClientId::new(1), m1);
        let r2 = s.on_submit(ClientId::new(2), m2);
        assert_eq!(s.pending_len(), 3);
        // Replies see increasing amounts of concurrency.
        assert_eq!(r0[0].1.pending.len(), 0);
        assert_eq!(r1[0].1.pending.len(), 1);
        assert_eq!(r2[0].1.pending.len(), 2);

        // All clients can complete without waiting for each other
        // (wait-freedom with a correct server).
        let (c0, d0) = cs[0]
            .handle_reply(r0.into_iter().next().unwrap().1)
            .unwrap();
        let (c1, d1) = cs[1]
            .handle_reply(r1.into_iter().next().unwrap().1)
            .unwrap();
        let (c2, d2) = cs[2]
            .handle_reply(r2.into_iter().next().unwrap().1)
            .unwrap();
        let (c0, c1, c2) = (c0.unwrap(), c1.unwrap(), c2.unwrap());
        assert_eq!(d0.timestamp, 1);
        assert_eq!(d1.timestamp, 1);
        assert_eq!(d2.timestamp, 1);
        // Versions reflect the schedule: c1's version includes c0's op.
        assert_eq!(d1.version.v().get(ClientId::new(0)), 1);
        assert_eq!(d2.version.v().get(ClientId::new(0)), 1);
        assert_eq!(d2.version.v().get(ClientId::new(1)), 1);
        s.on_commit(ClientId::new(0), c0);
        s.on_commit(ClientId::new(1), c1);
        s.on_commit(ClientId::new(2), c2);
        assert_eq!(s.pending_len(), 0);
    }

    #[test]
    fn commit_pruning_spares_a_pipelined_clients_later_tuples() {
        // A pipelined client has ops 1..=3 in L; its commit for op 1 must
        // prune only op 1 — ops 2 and 3 are not covered by that version
        // and must keep appearing in replies, or the schedule the server
        // presents would have holes.
        let keys = KeySet::generate(1, b"server-tests");
        let mut c0 = UstorClient::new(
            ClientId::new(0),
            1,
            keys.keypair(0).unwrap().clone(),
            keys.registry(),
        );
        c0.set_pipeline(3);
        let mut s = UstorServer::new(1);
        let mut replies = Vec::new();
        for k in 0..3u64 {
            let m = c0.begin_write(Value::unique(0, k)).unwrap();
            replies.push(s.on_submit(ClientId::new(0), m).pop().unwrap().1);
        }
        assert_eq!(s.pending_len(), 3);
        let (commit1, _) = c0.handle_reply(replies.remove(0)).unwrap();
        s.on_commit(ClientId::new(0), commit1.unwrap());
        assert_eq!(s.pending_len(), 2, "ops 2 and 3 must survive");
        // The remaining replies still complete and GC the rest.
        for reply in replies {
            let (commit, _) = c0.handle_reply(reply).unwrap();
            s.on_commit(ClientId::new(0), commit.unwrap());
        }
        assert_eq!(s.pending_len(), 0);
    }

    #[test]
    fn exported_state_roundtrips_bit_identically() {
        let (mut s, mut cs) = setup(3);
        // Leave the server mid-protocol: committed ops AND a pending one.
        for round in 0..2u64 {
            for i in 0..3usize {
                let submit = cs[i].begin_write(Value::unique(i as u32, round)).unwrap();
                run_op(&mut s, &mut cs[i], submit);
            }
        }
        let uncommitted = cs[0].begin_write(Value::from("in-flight")).unwrap();
        s.on_submit(ClientId::new(0), uncommitted);
        assert_eq!(s.pending_len(), 1);

        let rebuilt = UstorServer::from_state(s.export_state());
        assert_eq!(rebuilt, s, "round-trip must be bit-identical");
        // And the rebuilt server behaves identically on new input.
        let mut a = s.clone();
        let mut b = rebuilt;
        let submit = cs[1].begin_read(ClientId::new(0)).unwrap();
        let ra = a.on_submit(ClientId::new(1), submit.clone());
        let rb = b.on_submit(ClientId::new(1), submit);
        assert_eq!(ra, rb);
        assert_eq!(a, b);
    }

    #[test]
    fn a_commit_of_another_arity_leaves_the_state_alone() {
        let (mut s, mut cs) = setup(2);
        let w = cs[0].begin_write(Value::from("x")).unwrap();
        run_op(&mut s, &mut cs[0], w);
        let before = s.export_state();
        let garbage = Signature::garbage();
        for n in [1, 3] {
            let mut version = faust_types::Version::initial(n);
            version.v_mut().set(ClientId::new(0), 5);
            let commit = CommitMsg {
                version,
                commit_sig: garbage,
                proof_sig: garbage,
            };
            assert!(s.on_commit(ClientId::new(0), commit).is_empty());
            assert_eq!(s.export_state(), before);
        }
        // And the clients go on.
        let r = cs[1].begin_read(ClientId::new(0)).unwrap();
        run_op(&mut s, &mut cs[1], r);
    }

    #[test]
    fn memory_backend_builds_a_fresh_server() {
        let server = MemoryBackend.build(4).expect("infallible");
        // The backend starts from scratch: nothing pending, no state.
        let direct = UstorServer::new(4);
        assert_eq!(direct.pending_len(), 0);
        drop(server);
    }

    #[test]
    fn concurrent_read_sees_pending_write() {
        // A read scheduled after a not-yet-committed write returns the new
        // value: MEM is updated at SUBMIT time.
        let (mut s, mut cs) = setup(2);
        let w = cs[0].begin_write(Value::from("new")).unwrap();
        let wr = s.on_submit(ClientId::new(0), w);
        // C1 reads while C0's write is uncommitted.
        let r = cs[1].begin_read(ClientId::new(0)).unwrap();
        let rr = s.on_submit(ClientId::new(1), r);
        let (_, done) = cs[1]
            .handle_reply(rr.into_iter().next().unwrap().1)
            .unwrap();
        assert_eq!(done.read_value, Some(Some(Value::from("new"))));
        // C0 completes afterwards — nobody blocked.
        let (_, d0) = cs[0]
            .handle_reply(wr.into_iter().next().unwrap().1)
            .unwrap();
        assert_eq!(d0.timestamp, 1);
    }
}
