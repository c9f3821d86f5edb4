//! The USTOR client state machine — Algorithm 1 of the paper.
//!
//! [`UstorClient`] is written sans-io: [`UstorClient::begin_write`] /
//! [`UstorClient::begin_read`] produce the SUBMIT message to send, and
//! [`UstorClient::handle_reply`] consumes the server's REPLY, performs
//! every check of lines 35–52, and produces the COMMIT message plus the
//! operation's result. Any failed check yields a [`Fault`] — the paper's
//! `output fail_i; halt` — after which the client permanently refuses to
//! operate.
//!
//! The "extended" operations of the paper (which additionally return the
//! relevant versions, needed by the FAUST layer) correspond to the
//! [`OpCompletion`] struct: every completion carries the committed version
//! and, for reads, the writer's version.
//!
//! # Pipelining
//!
//! Algorithm 1 as written is sequential: one operation in flight per
//! client. Nothing in the *wire protocol* requires that — a SUBMIT's
//! signatures depend only on the client's own operation counter and
//! values, never on the server's replies — so the client optionally runs
//! with a deeper window ([`UstorClient::set_pipeline`]): up to `depth`
//! operations may be begun before the first reply is processed, and
//! replies are consumed strictly FIFO. The server needs no change at all
//! (its reply already lists *every* uncommitted operation, including the
//! submitter's own earlier ones); the client-side checks generalize:
//!
//! * **own pending operations** (line 43): a reply may list the client's
//!   own not-yet-committed earlier operations; they are folded like any
//!   other client's, with their SUBMIT-signatures verified at the exact
//!   expected timestamps. At depth 1 an own pending operation is
//!   impossible and remains [`Fault::OwnOperationPending`].
//! * **own-timestamp agreement** (line 36) is checked on the *folded*
//!   version: after accounting for every pending operation, the reply
//!   must place this operation at exactly its submitted timestamp, and
//!   the folded version must extend the client's current version under
//!   `≼` — at depth 1 these are literally the two line-36 conjuncts.
//! * **proof anchoring** (line 41): a pipelined peer's COMMITs lag its
//!   SUBMITs, so the stored PROOF-signature may trail the digest being
//!   vouched. Up to `depth` pending operations per client may go
//!   unanchored; more is [`Fault::UnanchoredPendingOverflow`]. Forks
//!   hidden in that window are caught as soon as the owner's next COMMIT
//!   circulates — before the affected operations can become *stable* in
//!   the FAUST layer, which only ever advances on committed versions.
//! * **writer freshness** (line 52): the writer's committed self-entry
//!   may trail the returned timestamp by up to the pipeline depth
//!   instead of exactly one.
//!
//! The depth is a deployment-wide protocol parameter: every client must
//! be configured with the same value (it bounds what they tolerate of
//! *each other*). The default depth 1 reproduces Algorithm 1 bit for
//! bit.
//!
//! ## What a reply costs
//!
//! Between two replies to one client, `L` loses a committed prefix and
//! gains a suffix, and `P` changes in the slots that committed. The
//! client keeps the fold steps the previous reply verified (`FoldStep`)
//! and aligns them to the next reply by its start digest `M^c[c]`: a
//! step whose tuple, timestamp and incoming digest are byte for byte the
//! ones already checked costs that comparison, any other runs lines
//! 41–45. A reply that aligns with nothing (the first, a restored
//! client's, a forking server's) is verified in full — one path,
//! nothing to configure. Per PROOF slot it keeps the signature bytes
//! last seen and the digest they were *verified* to vouch (`Peer`;
//! `docs/trust-model.md` has the inference rule). A reply costs (new
//! tuples) + (changed PROOF slots) + O(1) signature verifications — the
//! O(1) is zero when `SVER[c]` comes as the marker for one of the
//! client's own COMMITs, which it signed itself — and the state is at
//! most `|L|` steps — and `L` itself, which the next reply may keep a
//! tail of — plus `max_pipeline + 1` digests per client and as many of
//! the client's own COMMITs, whatever the run length.

use crate::fault::Fault;
use faust_crypto::chain::chain_extend;
use faust_crypto::sha256::sha256;
use faust_crypto::sig::{Keypair, SigContext, Signature, Signer, Verifier, VerifierRegistry};
use faust_crypto::Digest;
use faust_types::op::{data_signing_bytes, proof_signing_bytes, submit_signing_bytes};
use faust_types::{
    AgainstOwn, ClientId, CommitMsg, InvocationTuple, OpKind, ReadReply, ReplyMsg, SignedVersion,
    Sink, SubmitMsg, Timestamp, Value, Version, Wire, WireError,
};
use std::collections::VecDeque;

/// Why a new operation could not be started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BeginError {
    /// The pipeline window is full (for the default depth 1: an operation
    /// is already in flight — USTOR clients are sequential by default).
    Busy,
    /// The client has detected a server fault and halted.
    Halted(Fault),
}

impl std::fmt::Display for BeginError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BeginError::Busy => f.write_str("the operation pipeline window is full"),
            BeginError::Halted(fault) => write!(f, "client halted after fault: {fault}"),
        }
    }
}

impl std::error::Error for BeginError {}

/// One in-flight operation, as the client holds it and as
/// [`UstorClientState`] serializes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingOpState {
    /// Read or write.
    pub kind: OpKind,
    /// The register accessed.
    pub target: ClientId,
    /// The operation's timestamp `t`.
    pub timestamp: Timestamp,
    /// Value being written (writes only), echoed into the completion.
    pub value: Option<Value>,
}

impl Wire for PendingOpState {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        self.kind.encode_into(out);
        self.target.encode_into(out);
        self.timestamp.encode_into(out);
        self.value.encode_into(out);
    }

    fn decode_from(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(PendingOpState {
            kind: OpKind::decode_from(buf)?,
            target: ClientId::decode_from(buf)?,
            timestamp: Timestamp::decode_from(buf)?,
            value: Option::<Value>::decode_from(buf)?,
        })
    }
}

/// The resumable protocol state of a [`UstorClient`], detached from its
/// key material: everything Algorithm 1 needs to continue a session
/// across a process restart. Produced by [`UstorClient::export_state`],
/// consumed by [`UstorClient::from_state`]. Keys never appear here — the
/// caller re-supplies the keypair and registry on restore.
///
/// The positional fold state (module docs, "What a reply costs") is
/// deliberately *not* part of the state: it only ever saves work, a
/// restored client verifies its first reply in full and has it back. A
/// halted fault is not persisted either — a halted client has no session
/// worth resuming.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UstorClientState {
    /// The client's identity.
    pub id: ClientId,
    /// The deployment size `n`.
    pub n: u32,
    /// `x̄_i`: hash of the most recently written value.
    pub xbar: Option<Digest>,
    /// The client's version `(V_i, M_i)`.
    pub version: Version,
    /// Operations begun but not yet answered, oldest first.
    pub inflight: Vec<PendingOpState>,
    /// The pipeline depth.
    pub max_pipeline: u32,
    /// `true` = [`CommitMode::Piggyback`].
    pub piggyback: bool,
    /// In piggyback mode: the version whose COMMIT is still unsent.
    pub held_commit_version: Option<Version>,
}

impl Wire for UstorClientState {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        self.id.encode_into(out);
        self.n.encode_into(out);
        self.xbar.encode_into(out);
        self.version.encode_into(out);
        self.inflight.encode_into(out);
        self.max_pipeline.encode_into(out);
        u8::from(self.piggyback).encode_into(out);
        self.held_commit_version.encode_into(out);
    }

    fn decode_from(buf: &mut &[u8]) -> Result<Self, WireError> {
        let id = ClientId::decode_from(buf)?;
        let n = u32::decode_from(buf)?;
        let xbar = Option::<Digest>::decode_from(buf)?;
        let version = Version::decode_from(buf)?;
        let inflight = Vec::<PendingOpState>::decode_from(buf)?;
        let max_pipeline = u32::decode_from(buf)?;
        let piggyback = match u8::decode_from(buf)? {
            0 => false,
            1 => true,
            tag => return Err(WireError::BadTag(tag)),
        };
        let held_commit_version = Option::<Version>::decode_from(buf)?;
        Ok(UstorClientState {
            id,
            n,
            xbar,
            version,
            inflight,
            max_pipeline,
            piggyback,
            held_commit_version,
        })
    }
}

/// Result of a completed operation, in the "extended" form of the paper
/// (`writex_i` / `readx_i` return the relevant versions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpCompletion {
    /// Read or write.
    pub kind: OpKind,
    /// The register accessed.
    pub target: ClientId,
    /// The operation's timestamp `t` (monotonically increasing per
    /// client; Definition 5 integrity).
    pub timestamp: Timestamp,
    /// For reads: the value read (`None` = register still `⊥`). `None`
    /// for writes.
    pub read_value: Option<Option<Value>>,
    /// For writes: the value written.
    pub written_value: Option<Value>,
    /// The version `(V_i, M_i)` committed by this operation.
    pub version: Version,
    /// For reads: the writer's version `(V^j, M^j)` from the reply,
    /// with its COMMIT-signature. The FAUST layer stores it in `VER_i[j]`.
    pub writer_version: Option<SignedVersion>,
}

/// When the client transmits the COMMIT of each operation.
///
/// Section 5 of the paper: "Sending a COMMIT message is simply an
/// optimization to expedite garbage collection at S; this message can be
/// eliminated by piggybacking its contents on the SUBMIT message of the
/// next operation."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommitMode {
    /// Send a separate COMMIT message immediately (Algorithm 1 as
    /// written): 3 messages per operation, prompt garbage collection.
    #[default]
    Immediate,
    /// Piggyback the COMMIT on the next SUBMIT: 2 messages per operation,
    /// at the cost of a longer pending list `L` at the server.
    Piggyback,
}

/// The USTOR client protocol state (Algorithm 1).
///
/// # Example
///
/// ```
/// use faust_crypto::sig::KeySet;
/// use faust_types::{ClientId, Value};
/// use faust_ustor::{Server, UstorClient, UstorServer};
///
/// let keys = KeySet::generate(2, b"doc");
/// let mut server = UstorServer::new(2);
/// let mut alice = UstorClient::new(ClientId::new(0), 2, keys.keypair(0).unwrap().clone(), keys.registry());
///
/// let submit = alice.begin_write(Value::from("v1")).unwrap();
/// let replies = server.on_submit(ClientId::new(0), submit);
/// let (commit, done) = alice.handle_reply(replies.into_iter().next().unwrap().1).unwrap();
/// server.on_commit(ClientId::new(0), commit.expect("immediate commit mode"));
/// assert_eq!(done.timestamp, 1);
/// ```
#[derive(Debug, Clone)]
pub struct UstorClient {
    id: ClientId,
    n: usize,
    keypair: Keypair,
    registry: VerifierRegistry,
    /// `x̄_i`: hash of the most recently written value (`⊥` before the
    /// first write).
    xbar: Option<Digest>,
    /// The client's version `(V_i, M_i)`, as of the last processed reply.
    version: Version,
    /// Operations begun but whose replies have not yet been processed,
    /// oldest first. Replies are consumed strictly FIFO. Holds at most
    /// one entry at the default pipeline depth 1.
    inflight: VecDeque<PendingOpState>,
    /// The deployment-wide pipeline depth (see the module docs); 1 =
    /// the paper's sequential client.
    max_pipeline: usize,
    halted: Option<Fault>,
    commit_mode: CommitMode,
    /// In piggyback mode: the version whose COMMIT has not yet been
    /// attached to a SUBMIT. Held *unsigned* and signed lazily at attach
    /// time: under pipelining a newer completion overwrites an unsent
    /// one (its version subsumes the older for both `SVER` and pruning),
    /// so eager signing would waste two signatures per overwritten
    /// commit.
    held_commit_version: Option<Version>,
    /// The fold steps the previous reply verified, in schedule order, and
    /// what is kept per peer (module docs, "What a reply costs"). Nothing
    /// in either is trusted beyond "these exact bytes passed this check".
    run: VecDeque<FoldStep>,
    peers: Vec<Peer>,
    bases: HeldBases,
    /// The bytes of the last version signed or verified: one buffer for
    /// every COMMIT-signature ([`Version::write_signing_bytes`]).
    signing: Vec<u8>,
}

/// What this client holds from its connection: the bases a reply may
/// leave out, which [`HeldBases::resolve`] fills back in
/// ([`ReplyMsg::fill_in`]) before any check reads the reply.
#[derive(Debug, Clone)]
struct HeldBases {
    /// `L` of the last reply processed, in full — the run's tuples, kept
    /// as a list so the next reply's kept tail is rebuilt in its buffer.
    pending: Vec<InvocationTuple>,
    /// This client's last COMMITs, oldest first, at most
    /// `max_pipeline + 1`. The server names the last COMMIT it had from
    /// us before the SUBMIT it answers, and while that SUBMIT is in
    /// flight at most `max_pipeline - 1` replies, each making one COMMIT,
    /// are processed before its own.
    commits: VecDeque<OwnCommit>,
    /// Per register, the value of the last read reply for it that this
    /// client accepted, with its digest. One per register, so at most `n`
    /// values.
    values: Vec<Option<HeldValue>>,
}

/// What the checks of a reply need from [`HeldBases::resolve`].
struct Resolved {
    /// `SVER[c]` is, byte for byte, a COMMIT of ours and `c` is us, so
    /// line 35 holds without a verification.
    signed_by_us: bool,
    /// For a read: the digest of the value read, `None` for `⊥` — a
    /// named value's as it was verified when it arrived, a value sent in
    /// full hashed here. Or the fault a value name makes, raised where
    /// the value is read.
    value_digest: Result<Option<Digest>, Fault>,
}

impl HeldBases {
    /// Fills in what `reply`, to `op`, left out, from what client `id`
    /// holds.
    ///
    /// # Errors
    ///
    /// [`Fault::MalformedReply`] if the reply keeps `L` or names a COMMIT
    /// this client does not hold. A value name it does not hold, or one in
    /// a write's reply, is [`Resolved::value_digest`]'s fault instead.
    fn resolve(
        &mut self,
        reply: &mut ReplyMsg,
        op: &PendingOpState,
        id: ClientId,
    ) -> Result<Resolved, Fault> {
        let (j, pending) = (op.target.index(), std::mem::take(&mut self.pending));
        let held = self.values.get(j).and_then(Option::as_ref);
        // A value name that cannot stand fails where the value is read, as
        // a value sent in full would: lines 35–47 run first, with the
        // value left `⊥` — they never read it.
        let unheld = match (reply.left_out.value, op.kind) {
            (None, _) => None,
            (Some(_), OpKind::Write) => Some("a write's reply names a read value"),
            (Some(t), OpKind::Read) => held
                .is_none_or(|held| held.t != t)
                .then_some("read value names no value we hold"),
        };
        if unheld.is_some() {
            reply.left_out.value = None;
        }
        let named = reply.left_out.value.is_some();
        // A COMMIT of ours rebuilt byte for byte and attributed to us is
        // what we signed: line 35 has nothing to verify.
        let own = reply.left_out.commit.as_ref();
        let marker = own.is_some_and(AgainstOwn::is_marker);
        let commit = |t| {
            let commit = self.commits.iter().rev().find(|c| c.t == t)?;
            Some((&commit.version, commit.sig))
        };
        // A name still standing is the one held.
        let value = |_| held.map(|held| held.value.clone());
        reply
            .fill_in(pending, commit, value)
            .map_err(Fault::MalformedReply)?;
        let value_digest = match (unheld, &reply.read) {
            (Some(unheld), _) => Err(Fault::MalformedReply(unheld)),
            (None, Some(_)) if named => Ok(held.map(|held| held.digest)),
            (None, Some(read)) if op.kind == OpKind::Read => {
                Ok(read.mem_value.as_ref().map(|v| sha256(v.as_bytes())))
            }
            _ => Ok(None),
        };
        Ok(Resolved {
            signed_by_us: marker && reply.last_committer == id,
            value_digest,
        })
    }

    /// Records `commit`, ours of the operation at `t`, sharing its
    /// version. At most `depth + 1` are kept.
    fn remember(&mut self, t: Timestamp, commit: &CommitMsg, depth: usize) {
        if self.commits.len() > depth {
            self.commits.pop_front();
        }
        self.commits.push_back(OwnCommit {
            t,
            sig: commit.commit_sig,
            version: commit.version.clone(),
        });
    }
}

/// A register value as the read REPLY that delivered it left it: `t`, the
/// timestamp of that read, which names it, and the digest line 50
/// verified the writer's DATA-signature over.
#[derive(Debug, Clone)]
struct HeldValue {
    t: Timestamp,
    value: Value,
    digest: Digest,
}

/// One of this client's COMMITs, as a reply names it: by `t`, its own
/// entry.
#[derive(Debug, Clone)]
struct OwnCommit {
    t: Timestamp,
    sig: Signature,
    /// The version signed: the allocation the client installed and sent.
    version: Version,
}

/// One step of lines 39–45 that passed its checks: `tuple`'s
/// SUBMIT-signature verified at timestamp `t`, and folding it took the
/// digest chain from `before` to `after`.
#[derive(Debug, Clone)]
struct FoldStep {
    tuple: InvocationTuple,
    t: Timestamp,
    before: Option<Digest>,
    after: Digest,
}

/// What the fold keeps about client `C_k`.
#[derive(Debug, Clone, Default)]
struct Peer {
    /// The `after` digests of `C_k`'s steps pruned from the run, oldest
    /// first, at most `max_pipeline + 1`: its PROOF may trail the pruned
    /// prefix by the pipeline depth.
    chain: VecDeque<Digest>,
    /// The signature bytes last seen in PROOF slot `k` and, once a
    /// verification of exactly those bytes accepted one, what they vouch.
    proof: Option<Signature>,
    vouched: Option<Digest>,
    /// Line 41 under pipelining: `C_k`'s pending operations that no
    /// PROOF-signature anchored, recounted every reply.
    unanchored: usize,
}

#[cfg(test)]
thread_local! {
    /// Signature verifications run by clients on this thread.
    static VERIFICATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Every signature check of Algorithm 1 goes through here.
fn verify(
    registry: &VerifierRegistry,
    signer: ClientId,
    context: SigContext,
    message: &[u8],
    sig: &Signature,
) -> bool {
    #[cfg(test)]
    VERIFICATIONS.with(|c| c.set(c.get() + 1));
    registry.verify(signer.as_u32(), context, message, sig)
}

/// Builds the COMMIT message for `version`: COMMIT-signature over the
/// version, its bytes written in `signing`, PROOF-signature over the
/// signer's own digest entry (Algorithm 1 lines 18/31).
fn sign_commit(
    keypair: &Keypair,
    id: ClientId,
    version: Version,
    signing: &mut Vec<u8>,
) -> CommitMsg {
    version.write_signing_bytes(signing);
    let commit_sig = keypair.sign(SigContext::Commit, signing);
    let proof_sig = keypair.sign(SigContext::Proof, &proof_signing_bytes(version.m().get(id)));
    CommitMsg {
        version,
        commit_sig,
        proof_sig,
    }
}

impl UstorClient {
    /// Creates the client protocol state for client `id` of `n`.
    ///
    /// # Panics
    ///
    /// Panics if the keypair does not belong to `id` or `id ≥ n`.
    pub fn new(id: ClientId, n: usize, keypair: Keypair, registry: VerifierRegistry) -> Self {
        let initial = UstorClientState {
            id,
            n: n as u32,
            xbar: None,
            version: Version::initial(n),
            inflight: Vec::new(),
            max_pipeline: 1,
            piggyback: false,
            held_commit_version: None,
        };
        Self::from_state(keypair, registry, initial)
    }

    /// Snapshots the resumable protocol state (keys excluded; see
    /// [`UstorClientState`]). Callers persist this across restarts and
    /// rebuild with [`UstorClient::from_state`].
    pub fn export_state(&self) -> UstorClientState {
        UstorClientState {
            id: self.id,
            n: self.n as u32,
            xbar: self.xbar,
            version: self.version.clone(),
            inflight: self.inflight.iter().cloned().collect(),
            max_pipeline: self.max_pipeline as u32,
            piggyback: self.commit_mode == CommitMode::Piggyback,
            held_commit_version: self.held_commit_version.clone(),
        }
    }

    /// Rebuilds a client from a state snapshot plus its (externally kept)
    /// key material. The fold state starts empty and a restored client is
    /// never halted — staleness of the snapshot itself is the caller's
    /// concern (the FAUST layer detects it against the server).
    ///
    /// # Panics
    ///
    /// Panics if the keypair does not belong to the snapshot's `id` or
    /// `id ≥ n` (same contract as [`UstorClient::new`]).
    pub fn from_state(
        keypair: Keypair,
        registry: VerifierRegistry,
        state: UstorClientState,
    ) -> Self {
        assert_eq!(
            keypair.signer_index(),
            state.id.as_u32(),
            "keypair must match id"
        );
        let n = state.n as usize;
        assert!(state.id.index() < n, "client id out of range");
        UstorClient {
            id: state.id,
            n,
            keypair,
            registry,
            xbar: state.xbar,
            version: state.version,
            inflight: state.inflight.into(),
            max_pipeline: (state.max_pipeline as usize).max(1),
            halted: None,
            commit_mode: if state.piggyback {
                CommitMode::Piggyback
            } else {
                CommitMode::Immediate
            },
            held_commit_version: state.held_commit_version,
            run: VecDeque::new(),
            peers: vec![Peer::default(); n],
            bases: HeldBases {
                pending: Vec::new(),
                commits: VecDeque::new(),
                values: vec![None; n],
            },
            signing: Vec::new(),
        }
    }

    /// Hands a restored client the COMMITs it sent before it was saved
    /// and will send again on its new connection (oldest first), so a
    /// reply may name them. A client that keeps running needs no call:
    /// it records every COMMIT it makes.
    pub fn resume_commits<'a>(&mut self, commits: impl IntoIterator<Item = &'a CommitMsg>) {
        for commit in commits {
            self.sent(commit);
        }
    }

    /// Records a COMMIT this client is sending.
    fn sent(&mut self, commit: &CommitMsg) {
        let Some(&t) = commit.version.v().as_slice().get(self.id.index()) else {
            return;
        };
        self.bases.remember(t, commit, self.max_pipeline);
    }

    /// Switches the commit transmission strategy (see [`CommitMode`]).
    /// Call before the first operation.
    pub fn set_commit_mode(&mut self, mode: CommitMode) {
        self.commit_mode = mode;
    }

    /// Sets the pipeline depth: how many operations may be in flight at
    /// once (see the module docs). `depth` is clamped to at least 1; the
    /// default 1 is the paper's sequential client. The depth is a
    /// deployment-wide parameter — configure every client identically,
    /// because it also bounds the commit lag tolerated of *peers*.
    /// Call before the first operation.
    pub fn set_pipeline(&mut self, depth: usize) {
        self.max_pipeline = depth.max(1);
    }

    /// The configured pipeline depth.
    pub fn pipeline(&self) -> usize {
        self.max_pipeline
    }

    /// Number of operations currently in flight (begun, reply not yet
    /// processed).
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// In [`CommitMode::Piggyback`]: takes the COMMIT awaiting the next
    /// SUBMIT, if any (signing it now). Runtimes send it explicitly when
    /// the client goes idle, so the server's pending list is
    /// garbage-collected even when no further operation follows.
    pub fn take_held_commit(&mut self) -> Option<CommitMsg> {
        let version = self.held_commit_version.take()?;
        let commit = sign_commit(&self.keypair, self.id, version, &mut self.signing);
        self.sent(&commit);
        Some(commit)
    }

    /// The current commit transmission strategy.
    pub fn commit_mode(&self) -> CommitMode {
        self.commit_mode
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Number of clients `n`.
    pub fn num_clients(&self) -> usize {
        self.n
    }

    /// The current version `(V_i, M_i)` (last committed).
    pub fn version(&self) -> &Version {
        &self.version
    }

    /// `L` of the last reply processed, in full: the tuples its fold
    /// folded, in schedule order (empty before the first reply and after
    /// a restore).
    pub fn last_pending(&self) -> &[InvocationTuple] {
        &self.bases.pending
    }

    /// The fault that halted this client, if any.
    pub fn fault(&self) -> Option<&Fault> {
        self.halted.as_ref()
    }

    /// The verifier registry this client trusts (shared at setup).
    pub fn registry(&self) -> &VerifierRegistry {
        &self.registry
    }

    /// Whether the pipeline window is full (no further operation can be
    /// begun until a reply is processed). At the default depth 1 this is
    /// simply "an operation is in flight".
    pub fn is_busy(&self) -> bool {
        self.inflight.len() >= self.max_pipeline
    }

    /// Starts `write_i(x)`: returns the SUBMIT message for the server.
    ///
    /// # Errors
    ///
    /// [`BeginError::Busy`] if an operation is in flight,
    /// [`BeginError::Halted`] if a fault was detected earlier.
    pub fn begin_write(&mut self, value: Value) -> Result<SubmitMsg, BeginError> {
        self.begin(OpKind::Write, self.id, Some(value))
    }

    /// Starts `read_i(j)`: returns the SUBMIT message for the server.
    ///
    /// # Errors
    ///
    /// [`BeginError::Busy`] if an operation is in flight,
    /// [`BeginError::Halted`] if a fault was detected earlier.
    pub fn begin_read(&mut self, register: ClientId) -> Result<SubmitMsg, BeginError> {
        self.begin(OpKind::Read, register, None)
    }

    fn begin(
        &mut self,
        kind: OpKind,
        target: ClientId,
        value: Option<Value>,
    ) -> Result<SubmitMsg, BeginError> {
        if let Some(fault) = &self.halted {
            return Err(BeginError::Halted(fault.clone()));
        }
        if self.inflight.len() >= self.max_pipeline {
            return Err(BeginError::Busy);
        }
        // Line 12/25: t ← V_i[i] + 1, counting past every in-flight
        // operation (the version's own entry advances only as replies
        // are processed).
        let t = self.version.v().get(self.id) + self.inflight.len() as Timestamp + 1;
        // Line 13: a write updates x̄_i before signing.
        if let Some(v) = &value {
            self.xbar = Some(sha256(v.as_bytes()));
        }
        // Lines 14/26: SUBMIT- and DATA-signatures.
        let submit_sig = self
            .keypair
            .sign(SigContext::Submit, &submit_signing_bytes(kind, target, t));
        let data_sig = self
            .keypair
            .sign(SigContext::Data, &data_signing_bytes(t, self.xbar));
        self.inflight.push_back(PendingOpState {
            kind,
            target,
            timestamp: t,
            value: value.clone(),
        });
        // In piggyback mode, the newest unattached COMMIT rides along
        // (signed here); the server applies it before this submit.
        let piggyback = self.take_held_commit();
        Ok(SubmitMsg {
            timestamp: t,
            tuple: InvocationTuple {
                client: self.id,
                kind,
                register: target,
                sig: submit_sig,
            },
            value,
            data_sig,
            piggyback,
        })
    }

    /// Processes the server's REPLY for the in-flight operation: performs
    /// all checks of Algorithm 1 and, on success, returns the COMMIT
    /// message to send — `None` in [`CommitMode::Piggyback`], where the
    /// commit is attached to the next SUBMIT instead — plus the
    /// operation's completion.
    ///
    /// # Errors
    ///
    /// Returns the detected [`Fault`] if any check fails; the client halts
    /// permanently (the paper's `output fail_i; halt`).
    pub fn handle_reply(
        &mut self,
        reply: ReplyMsg,
    ) -> Result<(Option<CommitMsg>, OpCompletion), Fault> {
        self.try_handle_reply(reply).inspect_err(|fault| {
            self.halted = Some(fault.clone());
            self.inflight.clear();
        })
    }

    fn try_handle_reply(
        &mut self,
        mut reply: ReplyMsg,
    ) -> Result<(Option<CommitMsg>, OpCompletion), Fault> {
        if let Some(fault) = &self.halted {
            return Err(fault.clone());
        }
        // Replies are consumed strictly FIFO: this one answers the oldest
        // in-flight operation. (Any fault below halts the client and
        // clears the window, so taking the operation now loses nothing.)
        let op = self.inflight.pop_front().ok_or(Fault::UnsolicitedReply)?;
        // What the reply left out — a tail of the last `L`, `SVER[c]`
        // against a COMMIT of ours, a value we hold — goes back in first:
        // every check below reads the full reply.
        let resolved = self.bases.resolve(&mut reply, &op, self.id)?;
        self.validate_shape(&reply, &op)?;
        // Line 51's first conjunct reads (V^c, M^c), which the fold
        // below overwrites; evaluated here, raised in its place.
        let committed = &reply.commit_version.version;
        let read = reply.read.as_ref();
        let writer_in_history = read.is_none_or(|r| r.writer_version.version.le(committed));
        self.update_version(&mut reply, op.timestamp, resolved.signed_by_us)?;
        self.bases.pending = std::mem::take(&mut reply.pending);
        let digest = resolved.value_digest?;
        let read_value = match &reply.read {
            Some(read) if op.kind == OpKind::Read => {
                let j = op.target;
                let value = self.check_data(read, j, writer_in_history, digest)?;
                // What a later REPLY may name: what this one delivered.
                self.bases.values[j.index()] = match (&value, digest) {
                    (Some(value), Some(digest)) => Some(HeldValue {
                        t: op.timestamp,
                        value: value.clone(),
                        digest,
                    }),
                    _ => None,
                };
                Some(value)
            }
            _ => None,
        };

        // Lines 18/31: COMMIT- and PROOF-signatures on the new version.
        // In piggyback mode the signing is deferred to attach time (see
        // `held_commit_version`).
        let commit = match self.commit_mode {
            CommitMode::Immediate => {
                let version = self.version.clone();
                let commit = sign_commit(&self.keypair, self.id, version, &mut self.signing);
                self.sent(&commit);
                Some(commit)
            }
            CommitMode::Piggyback => {
                self.held_commit_version = Some(self.version.clone());
                None
            }
        };
        let completion = OpCompletion {
            kind: op.kind,
            target: op.target,
            timestamp: op.timestamp,
            read_value,
            written_value: op.value,
            version: self.version.clone(),
            writer_version: reply.read.map(|r| r.writer_version),
        };
        Ok((commit, completion))
    }

    /// Structural validation: vector arities and index ranges. A correct
    /// server never fails these; they keep a Byzantine server from causing
    /// panics instead of clean detection.
    fn validate_shape(&self, reply: &ReplyMsg, op: &PendingOpState) -> Result<(), Fault> {
        if reply.last_committer.index() >= self.n {
            return Err(Fault::MalformedReply("last committer out of range"));
        }
        if reply.commit_version.version.num_clients() != self.n {
            return Err(Fault::MalformedReply("commit version arity"));
        }
        if reply.proofs.len() != self.n {
            return Err(Fault::MalformedReply("proof vector arity"));
        }
        for tuple in &reply.pending {
            if tuple.client.index() >= self.n || tuple.register.index() >= self.n {
                return Err(Fault::MalformedReply("pending tuple index out of range"));
            }
        }
        match (&reply.read, op.kind) {
            (None, OpKind::Read) => Err(Fault::MalformedReply("missing read part")),
            (Some(r), OpKind::Read) if r.writer_version.version.num_clients() != self.n => {
                Err(Fault::MalformedReply("writer version arity"))
            }
            _ => Ok(()),
        }
    }

    /// Starts a reply whose fold begins at digest `start`: the steps a
    /// COMMIT pruned since (those before the one that began at `start`;
    /// all, if none did) leave the run, their digests kept as `C_k`'s
    /// chain.
    fn align_fold(&mut self, start: Option<Digest>) {
        let survivors = self.run.iter().position(|s| s.before == start);
        for step in self.run.drain(..survivors.unwrap_or(self.run.len())) {
            let chain = &mut self.peers[step.tuple.client.index()].chain;
            if chain.len() > self.max_pipeline {
                chain.pop_front();
            }
            chain.push_back(step.after);
        }
        self.peers.iter_mut().for_each(|p| p.unanchored = 0);
    }

    /// Line 41: whether `proof`, the signature in slot `k`, vouches `e`.
    fn vouches(&mut self, k: ClientId, proof: &Signature, e: Digest) -> bool {
        let verifies = |d| {
            let bytes = proof_signing_bytes(Some(d));
            verify(&self.registry, k, SigContext::Proof, &bytes, proof)
        };
        let peer = &mut self.peers[k.index()];
        if peer.proof != Some(*proof) {
            // New bytes. An honest C_k commits in order, so they vouch
            // the digest after the one the old bytes vouched: try C_k's
            // chain from there. This only picks *which* verifications to
            // run — a bad guess costs time, never a verdict.
            let in_run = self.run.iter().filter(|s| s.tuple.client == k);
            let chain = peer.chain.iter().copied().chain(in_run.map(|s| s.after));
            let mut next = chain.skip_while(|d| Some(*d) != peer.vouched).skip(1);
            peer.vouched = next.find(|d| verifies(*d));
            peer.proof = Some(*proof);
        }
        if peer.vouched.is_none() && verifies(e) {
            peer.vouched = Some(e);
        }
        // Accepted only on a verification of exactly these bytes over
        // exactly `e`. Rejected also by inference: bytes that verified for
        // `v` verify for `e ≠ v` only on a collision, and a wrong
        // rejection could only add to `unanchored`, never remove.
        peer.vouched == Some(e)
    }

    /// Algorithm 1, `updateVersion` (lines 34–47), generalized to the
    /// pipelined window (see the module docs). At `max_pipeline == 1`
    /// every check is exactly the paper's, in the paper's order.
    /// `signed_by_us`: `SVER[c]` is, byte for byte, a COMMIT of ours and
    /// `c` is us, so line 35 holds without a verification.
    fn update_version(
        &mut self,
        reply: &mut ReplyMsg,
        own_t: Timestamp,
        signed_by_us: bool,
    ) -> Result<(), Fault> {
        let c = reply.last_committer;
        let signed = &reply.commit_version;
        let sequential = self.max_pipeline <= 1;

        // Line 35: the version is the initial one or carries a valid
        // COMMIT-signature by C_c.
        if !signed_by_us && !signed.version.is_initial() {
            signed.version.write_signing_bytes(&mut self.signing);
            let bytes = &self.signing;
            let valid = signed
                .sig
                .as_ref()
                .is_some_and(|sig| verify(&self.registry, c, SigContext::Commit, bytes, sig));
            if !valid {
                return Err(Fault::BadCommitVersionSignature);
            }
        }

        // Line 36: monotonicity and agreement on our own entry. With a
        // pipeline, our own uncommitted operations legitimately put our
        // local version *ahead* of the last committed one; the same two
        // conjuncts are enforced on the folded version below, where they
        // are meaningful in both modes.
        if sequential {
            if !self.version.le(&signed.version) {
                return Err(Fault::VersionRegression);
            }
            if signed.version.v().get(self.id) != self.version.v().get(self.id) {
                return Err(Fault::OwnTimestampMismatch);
            }
        }

        // Line 37: adopt (V^c, M^c) as the candidate to fold into — in
        // place, the reply is ours, with one unsharing for the whole fold
        // (a version filled in from a COMMIT of ours shares its
        // allocation).
        let (cand_v, cand_m) = reply.commit_version.version.parts_mut();
        // Line 38: d ← M^c[c].
        let mut d = cand_m.get(c);
        self.align_fold(d);

        // Lines 39–45: fold in the pending (concurrent) operations.
        for (pos, tuple) in reply.pending.iter().enumerate() {
            let k = tuple.client;
            // Line 41: C_k's previous operation must have committed the
            // digest we hold for it, vouched by its PROOF-signature. A
            // pipelined peer's commits trail its submits, so up to
            // `max_pipeline` operations per client may go unanchored.
            if let Some(expected) = cand_m.get(k) {
                let proof = reply.proofs.get(k);
                if !proof.is_some_and(|p| self.vouches(k, p, expected)) {
                    if sequential {
                        return Err(match proof {
                            Some(_) => Fault::BadProofSignature,
                            None => Fault::MissingProofSignature,
                        });
                    }
                    self.peers[k.index()].unanchored += 1;
                    if self.peers[k.index()].unanchored > self.max_pipeline {
                        return Err(Fault::UnanchoredPendingOverflow);
                    }
                }
            }
            // Line 42: account for the pending operation.
            let expected_t = cand_v.increment(k);
            // Line 43: a *sequential* client never appears in its own
            // pending list; a pipelined one does — its own earlier
            // operations are folded like anyone else's, SUBMIT-signature
            // checked at the exact expected timestamp (we sign one
            // invocation per timestamp, so a replayed or reordered own
            // tuple cannot verify).
            if k == self.id && sequential {
                return Err(Fault::OwnOperationPending);
            }
            // The step the previous reply verified at this position
            // stands if its every input is byte-identical; anything else
            // is a new step, and so is everything after it.
            let run = &mut self.run;
            let stands = |s: &FoldStep| s.tuple == *tuple && s.t == expected_t && s.before == d;
            if !run.get(pos).is_some_and(stands) {
                let bytes = submit_signing_bytes(tuple.kind, tuple.register, expected_t);
                if !verify(&self.registry, k, SigContext::Submit, &bytes, &tuple.sig) {
                    return Err(Fault::BadSubmitSignature);
                }
                run.truncate(pos);
                run.push_back(FoldStep {
                    tuple: tuple.clone(),
                    t: expected_t,
                    before: d,
                    // Lines 44–45: extend the digest chain.
                    after: chain_extend(d, k.as_u32()),
                });
            }
            let after = run[pos].after;
            d = Some(after);
            cand_m.set(k, after);
        }
        self.run.truncate(reply.pending.len());

        // Lines 46–47: append our own operation.
        let t_new = cand_v.increment(self.id);
        let own_digest = chain_extend(d, self.id.as_u32());
        cand_m.set(self.id, own_digest);
        let candidate = &mut reply.commit_version.version;

        // Line 36 on the folded version: the reply must place this very
        // operation at its submitted timestamp (the server accounted for
        // every earlier own operation exactly once), and the folded
        // version must extend what we already know. In sequential mode
        // both already hold (checked above, and `≼` is transitive along
        // the fold); in pipelined mode these are the authoritative
        // checks.
        if t_new != own_t {
            return Err(Fault::OwnTimestampMismatch);
        }
        if !self.version.le(candidate) {
            return Err(Fault::VersionRegression);
        }
        std::mem::swap(&mut self.version, candidate);
        Ok(())
    }

    /// Algorithm 1, `checkData` (lines 48–52). Returns the read value.
    /// `writer_in_history` is line 51's `(V^j, M^j) ≼ (V^c, M^c)`;
    /// `value_hash` the digest of the read value, `None` for `⊥`.
    fn check_data(
        &mut self,
        read: &ReadReply,
        j: ClientId,
        writer_in_history: bool,
        value_hash: Option<Digest>,
    ) -> Result<Option<Value>, Fault> {
        let writer = &read.writer_version;
        let tj = read.mem_timestamp;

        // Line 49: writer's version is initial or properly signed by C_j.
        if !writer.version.is_initial() {
            writer.version.write_signing_bytes(&mut self.signing);
            let bytes = &self.signing;
            let valid = writer
                .sig
                .as_ref()
                .is_some_and(|sig| verify(&self.registry, j, SigContext::Commit, bytes, sig));
            if !valid {
                return Err(Fault::BadWriterCommitSignature);
            }
        }

        // t_j = 0 means C_j has never submitted an operation; the register
        // is necessarily `⊥`, and a correct server sends exactly
        // `(0, ⊥, ⊥)`. Enforcing that here closes the gap where a faulty
        // server returns a fabricated value with t_j = 0 to skip the
        // DATA-signature check.
        if tj == 0 && (read.mem_value.is_some() || read.mem_data_sig.is_some()) {
            return Err(Fault::MalformedReply("nonempty initial register"));
        }

        // Line 50: the value is fresh-signed by C_j under timestamp t_j.
        if tj != 0 {
            let bytes = data_signing_bytes(tj, value_hash);
            let valid = read
                .mem_data_sig
                .as_ref()
                .is_some_and(|sig| verify(&self.registry, j, SigContext::Data, &bytes, sig));
            if !valid {
                return Err(Fault::BadDataSignature);
            }
        }

        // Line 51: the writer's version is within the presented history,
        // and t_j is exactly the last operation of C_j we account for.
        if !writer_in_history {
            return Err(Fault::WriterVersionAhead);
        }
        if tj != self.version.v().get(j) {
            return Err(Fault::DataTimestampMismatch);
        }

        // Line 52: the writer's own entry matches t_j, give or take its
        // not-yet-received COMMITs — at most one for a sequential writer
        // (the paper's check exactly), at most the deployment's pipeline
        // depth otherwise.
        let vjj = writer.version.v().get(j);
        if !(vjj <= tj && tj - vjj <= self.max_pipeline as Timestamp) {
            return Err(Fault::WriterSelfEntryMismatch);
        }

        Ok(read.mem_value.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faust_crypto::sig::KeySet;

    fn client(n: usize) -> UstorClient {
        let keys = KeySet::generate(n, b"client-tests");
        UstorClient::new(
            ClientId::new(0),
            n,
            keys.keypair(0).unwrap().clone(),
            keys.registry(),
        )
    }

    #[test]
    fn begin_assigns_increasing_timestamps() {
        let mut c = client(2);
        let m1 = c.begin_write(Value::from("a")).unwrap();
        assert_eq!(m1.timestamp, 1);
        // Second begin while busy fails.
        assert_eq!(
            c.begin_read(ClientId::new(1)).unwrap_err(),
            BeginError::Busy
        );
    }

    #[test]
    fn write_submit_carries_value_read_does_not() {
        let mut c = client(2);
        let w = c.begin_write(Value::from("a")).unwrap();
        assert_eq!(w.value, Some(Value::from("a")));
        assert_eq!(w.tuple.kind, OpKind::Write);
        assert_eq!(w.tuple.register, ClientId::new(0));

        let mut c2 = client(2);
        let r = c2.begin_read(ClientId::new(1)).unwrap();
        assert_eq!(r.value, None);
        assert_eq!(r.tuple.kind, OpKind::Read);
        assert_eq!(r.tuple.register, ClientId::new(1));
    }

    #[test]
    fn unsolicited_reply_is_a_fault() {
        let mut c = client(2);
        let reply = ReplyMsg {
            last_committer: ClientId::new(1),
            commit_version: SignedVersion::initial(2),
            read: None,
            pending: vec![],
            proofs: vec![None, None].into(),
            left_out: Default::default(),
        };
        assert_eq!(c.handle_reply(reply), Err(Fault::UnsolicitedReply));
    }

    #[test]
    fn halted_client_refuses_operations() {
        let mut c = client(2);
        let reply = ReplyMsg {
            last_committer: ClientId::new(1),
            commit_version: SignedVersion::initial(2),
            read: None,
            pending: vec![],
            proofs: vec![None, None].into(),
            left_out: Default::default(),
        };
        let _ = c.handle_reply(reply); // unsolicited → halt
        assert!(matches!(
            c.begin_write(Value::from("x")),
            Err(BeginError::Halted(_))
        ));
    }

    #[test]
    fn malformed_arity_is_detected_not_panicking() {
        let mut c = client(3);
        c.begin_write(Value::from("a")).unwrap();
        let reply = ReplyMsg {
            last_committer: ClientId::new(0),
            commit_version: SignedVersion::initial(2), // wrong arity: 2 ≠ 3
            read: None,
            pending: vec![],
            proofs: vec![None, None, None].into(),
            left_out: Default::default(),
        };
        assert_eq!(
            c.handle_reply(reply),
            Err(Fault::MalformedReply("commit version arity"))
        );
    }

    // ── pipelined mode ────────────────────────────────────────────────

    use crate::server::{Server, UstorServer};

    fn pipelined_setup(n: usize, depth: usize) -> (UstorServer, Vec<UstorClient>) {
        let keys = KeySet::generate(n, b"pipeline-tests");
        let clients = (0..n)
            .map(|i| {
                let mut c = UstorClient::new(
                    ClientId::new(i as u32),
                    n,
                    keys.keypair(i as u32).unwrap().clone(),
                    keys.registry(),
                );
                c.set_pipeline(depth);
                c
            })
            .collect();
        (UstorServer::new(n), clients)
    }

    #[test]
    fn pipelined_burst_completes_in_order_against_a_correct_server() {
        let (mut s, mut cs) = pipelined_setup(1, 4);
        let me = ClientId::new(0);
        // Four writes begun before any reply is seen.
        let submits: Vec<_> = (0..4)
            .map(|k| cs[0].begin_write(Value::unique(0, k)).unwrap())
            .collect();
        assert_eq!(cs[0].in_flight(), 4);
        assert!(cs[0].begin_read(me).is_err(), "window full");
        let replies: Vec<_> = submits
            .into_iter()
            .map(|m| s.on_submit(me, m).pop().unwrap().1)
            .collect();
        // Replies processed strictly FIFO; each completes with its own
        // timestamp and yields an ordinary COMMIT.
        for (k, reply) in replies.into_iter().enumerate() {
            let (commit, done) = cs[0].handle_reply(reply).expect("correct server");
            assert_eq!(done.timestamp, k as u64 + 1);
            s.on_commit(me, commit.unwrap());
        }
        assert_eq!(cs[0].in_flight(), 0);
        assert_eq!(s.pending_len(), 0, "commits garbage-collected L");
        // The register holds the last value.
        let r = cs[0].begin_read(me).unwrap();
        let reply = s.on_submit(me, r).pop().unwrap().1;
        let (_, done) = cs[0].handle_reply(reply).unwrap();
        assert_eq!(done.read_value, Some(Some(Value::unique(0, 3))));
    }

    #[test]
    fn two_pipelined_clients_interleave_without_faults() {
        let n = 2;
        let (mut s, mut cs) = pipelined_setup(n, 3);
        // Interleaved schedule: A1 B1 A2 B2 A3 B3, no commits until all
        // replies are out (maximum own-pending exposure).
        let mut replies: Vec<Vec<ReplyMsg>> = vec![Vec::new(), Vec::new()];
        for round in 0..3u64 {
            for i in 0..n {
                let m = cs[i].begin_write(Value::unique(i as u32, round)).unwrap();
                replies[i].push(s.on_submit(ClientId::new(i as u32), m).pop().unwrap().1);
            }
        }
        let mut commits = Vec::new();
        for (i, rs) in replies.into_iter().enumerate() {
            for (k, reply) in rs.into_iter().enumerate() {
                let (commit, done) = cs[i].handle_reply(reply).unwrap_or_else(|f| {
                    panic!("client {i} reply {k}: unexpected fault {f}");
                });
                assert_eq!(done.timestamp, k as u64 + 1);
                commits.push((ClientId::new(i as u32), commit.unwrap()));
            }
        }
        for (id, commit) in commits {
            s.on_commit(id, commit);
        }
        assert_eq!(s.pending_len(), 0);
        // Both clients' final versions are comparable (no fork).
        assert!(cs[0].version().comparable(cs[1].version()));
    }

    #[test]
    fn pipelined_reply_replay_is_detected() {
        let (mut s, mut cs) = pipelined_setup(1, 2);
        let me = ClientId::new(0);
        let m1 = cs[0].begin_write(Value::from("one")).unwrap();
        let _m2 = cs[0].begin_write(Value::from("two")).unwrap();
        let reply1 = s.on_submit(me, m1).pop().unwrap().1;
        let (_, done) = cs[0].handle_reply(reply1.clone()).unwrap();
        assert_eq!(done.timestamp, 1);
        // Replaying reply 1 for op 2 misplaces the operation.
        assert_eq!(cs[0].handle_reply(reply1), Err(Fault::OwnTimestampMismatch));
    }

    #[test]
    fn reader_window_tolerates_a_pipelined_writers_commit_lag() {
        // Writer (depth 3) has three uncommitted writes; a reader with
        // the same deployment depth accepts the read, while a sequential
        // reader (depth 1 — the strict paper checks) rejects the reply.
        for (reader_depth, ok) in [(3usize, true), (1usize, false)] {
            let (mut s, mut cs) = pipelined_setup(2, 3);
            cs[1].set_pipeline(reader_depth);
            for k in 0..3u64 {
                let m = cs[0].begin_write(Value::unique(0, k)).unwrap();
                s.on_submit(ClientId::new(0), m);
            }
            let r = cs[1].begin_read(ClientId::new(0)).unwrap();
            let reply = s.on_submit(ClientId::new(1), r).pop().unwrap().1;
            let result = cs[1].handle_reply(reply);
            if ok {
                let (_, done) = result.expect("within the window");
                assert_eq!(done.read_value, Some(Some(Value::unique(0, 2))));
            } else {
                // The strict fold demands a proof anchor for the writer's
                // second pending operation before even reaching line 52.
                assert_eq!(result, Err(Fault::MissingProofSignature));
            }
        }
    }

    #[test]
    fn a_kept_tail_resolves_against_the_last_reply_and_faults_cleanly_without_one() {
        let (mut s, mut cs) = pipelined_setup(1, 4);
        let me = ClientId::new(0);
        let keys = KeySet::generate(1, b"pipeline-tests");
        let mut sent_before = Vec::new();
        let mut reply_to = |cs: &mut Vec<UstorClient>, k: u64| {
            let submit = cs[0].begin_write(Value::unique(0, k)).unwrap();
            let mut reply = s.on_submit(me, submit).pop().unwrap().1;
            reply.leave_out(&mut sent_before, None, None);
            reply
        };
        let first = reply_to(&mut cs, 0);
        cs[0].handle_reply(first).expect("correct server");
        let second = reply_to(&mut cs, 1);
        cs[0].handle_reply(second).expect("correct server");
        // The third reply keeps the second's one tuple.
        let third = reply_to(&mut cs, 2);
        assert_eq!((third.left_out.kept, third.pending.len()), (1, 1));
        // A client restored with this very state has no last reply to
        // keep from: a typed fault, not a panic.
        let mut restored = UstorClient::from_state(
            keys.keypair(0).unwrap().clone(),
            keys.registry(),
            cs[0].export_state(),
        );
        assert_eq!(
            restored.handle_reply(third.clone()),
            Err(Fault::MalformedReply(
                "pending list keeps more than the last reply's"
            ))
        );
        assert!(restored.fault().is_some());
        // The live client rebuilds `L` in full.
        let (_, done) = cs[0].handle_reply(third).expect("correct server");
        assert_eq!(done.timestamp, 3);
        assert_eq!(cs[0].last_pending().len(), 2);
    }

    #[test]
    fn unanchored_pending_overflow_is_detected() {
        // A writer four deep exceeds what a depth-2 deployment tolerates:
        // the reader cannot anchor that many proof-less operations.
        let (mut s, mut cs) = pipelined_setup(2, 4);
        cs[1].set_pipeline(2);
        for k in 0..4u64 {
            let m = cs[0].begin_write(Value::unique(0, k)).unwrap();
            s.on_submit(ClientId::new(0), m);
        }
        let r = cs[1].begin_read(ClientId::new(0)).unwrap();
        let reply = s.on_submit(ClientId::new(1), r).pop().unwrap().1;
        assert_eq!(
            cs[1].handle_reply(reply),
            Err(Fault::UnanchoredPendingOverflow)
        );
    }

    #[test]
    fn pipelined_piggyback_commits_ride_later_submits() {
        let (mut s, mut cs) = pipelined_setup(1, 2);
        cs[0].set_commit_mode(CommitMode::Piggyback);
        let me = ClientId::new(0);
        let m1 = cs[0].begin_write(Value::from("p1")).unwrap();
        let m2 = cs[0].begin_write(Value::from("p2")).unwrap();
        assert!(m1.piggyback.is_none() && m2.piggyback.is_none());
        let r1 = s.on_submit(me, m1).pop().unwrap().1;
        let r2 = s.on_submit(me, m2).pop().unwrap().1;
        let (c1, _) = cs[0].handle_reply(r1).unwrap();
        assert!(c1.is_none(), "piggyback holds the commit");
        // The next begin carries op 1's commit.
        let m3 = cs[0].begin_write(Value::from("p3")).unwrap();
        assert!(m3.piggyback.is_some());
        let r3 = s.on_submit(me, m3).pop().unwrap().1;
        let (c2, _) = cs[0].handle_reply(r2).unwrap();
        assert!(c2.is_none());
        let (c3, _) = cs[0].handle_reply(r3).unwrap();
        assert!(c3.is_none());
        // Idle now: the held commit is taken explicitly so the server's
        // pending list is garbage-collected.
        let held = cs[0].take_held_commit().expect("one commit held");
        s.on_commit(me, held);
        assert_eq!(s.pending_len(), 0);
    }

    // ── what a reply costs, as a function of what changed ─────────────

    /// `n` clients, each keeping `depth` operations in flight against a
    /// correct server, served round-robin: one reply handled, its COMMIT
    /// delivered, the next operation submitted.
    struct SteadyState {
        server: UstorServer,
        clients: Vec<UstorClient>,
        replies: Vec<VecDeque<ReplyMsg>>,
        /// The previous reply each client handled.
        last: Vec<Option<ReplyMsg>>,
        ops: u64,
    }

    /// One handled reply: what it cost and what it was entitled to.
    struct Handled {
        verifications: u64,
        /// Tuples the previous reply did not carry, PROOF slots whose
        /// bytes changed since, plus lines 49–50 on a read.
        entitled: u64,
        pending: usize,
    }

    impl SteadyState {
        fn new(n: usize, depth: usize) -> Self {
            let (server, clients) = pipelined_setup(n, depth);
            let mut s = SteadyState {
                server,
                clients,
                replies: vec![VecDeque::new(); n],
                last: vec![None; n],
                ops: 0,
            };
            for _ in 0..depth {
                for i in 0..n {
                    s.submit(i);
                }
            }
            s
        }

        fn submit(&mut self, i: usize) {
            self.ops += 1;
            let id = ClientId::new(i as u32);
            let submit = if self.ops.is_multiple_of(4) {
                let n = self.clients.len() as u64;
                self.clients[i].begin_read(ClientId::new((self.ops / 4 % n) as u32))
            } else {
                self.clients[i].begin_write(Value::unique(i as u32, self.ops))
            };
            let reply = self.server.on_submit(id, submit.unwrap()).pop().unwrap().1;
            self.replies[i].push_back(reply);
        }

        fn handle(&mut self, i: usize) -> Handled {
            let reply = self.replies[i].pop_front().unwrap();
            let entitled = self.last[i].as_ref().map_or(u64::MAX, |last| {
                let tuples = reply.pending.iter().filter(|t| !last.pending.contains(t));
                let slots = reply
                    .proofs
                    .iter()
                    .zip(last.proofs.iter())
                    .filter(|(a, b)| a != b);
                (tuples.count() + slots.count() + 2 * usize::from(reply.read.is_some())) as u64
            });
            let pending = reply.pending.len();
            let before = VERIFICATIONS.with(|c| c.get());
            let (commit, _) = self.clients[i].handle_reply(reply.clone()).unwrap();
            let verifications = VERIFICATIONS.with(|c| c.get()) - before;
            self.last[i] = Some(reply);
            self.server
                .on_commit(ClientId::new(i as u32), commit.unwrap());
            self.submit(i);
            Handled {
                verifications,
                entitled,
                pending,
            }
        }

        /// Steps held by client `i`'s positional state.
        fn positional_len(&self, i: usize) -> usize {
            let client = &self.clients[i];
            client.run.len() + client.peers.iter().map(|p| p.chain.len()).sum::<usize>()
        }
    }

    #[test]
    fn verifications_per_reply_follow_what_changed_not_the_pending_length() {
        let mut mean = Vec::new();
        for depth in [4usize, 32] {
            for n in [2usize, 3, 5] {
                let mut s = SteadyState::new(n, depth);
                let (mut total, mut replies) = (0u64, 0u64);
                for round in 0..3 * depth + 20 {
                    for i in 0..n {
                        let h = s.handle(i);
                        if round < 2 * depth {
                            continue; // the windows are still filling
                        }
                        assert!(h.pending >= n * (depth - 1), "not a steady state");
                        assert!(
                            h.verifications <= h.entitled + 2,
                            "n={n} depth={depth} round {round} client {i}: {} verifications \
                             for {} new tuples and changed PROOF slots (|L| = {})",
                            h.verifications,
                            h.entitled,
                            h.pending,
                        );
                        total += h.verifications;
                        replies += 1;
                    }
                }
                mean.push(total as f64 / replies as f64);
            }
        }
        eprintln!("mean verifications per reply, n = 2, 3, 5 at depth 4 then 32: {mean:?}");
        let (shallow, deep) = mean.split_at(3);
        for (shallow, deep) in shallow.iter().zip(deep) {
            assert!(
                deep <= &(shallow + 0.01),
                "verifications per reply grew with depth: {shallow} at 4, {deep} at 32"
            );
        }
    }

    #[test]
    fn positional_state_is_flat_in_run_length() {
        let (n, depth) = (3usize, 8usize);
        let mut s = SteadyState::new(n, depth);
        let mut peak = 0;
        while s.ops < 50_000 {
            for i in 0..n {
                let pending = s.handle(i).pending;
                let held = s.positional_len(i);
                assert!(
                    held <= pending + n * (depth + 1) + 1,
                    "after {} operations client {i} holds {held} steps at |L| = {pending}",
                    s.ops
                );
                peak = peak.max(held);
            }
        }
        assert!(peak > depth, "the state was exercised: peak {peak}");
    }

    /// `reply` with `SVER[c]` sent against `commit`, a COMMIT of client
    /// `owner`'s, as the engine sends it.
    fn sent_against(mut reply: ReplyMsg, commit: &CommitMsg, owner: ClientId) -> ReplyMsg {
        let base = SignedVersion {
            version: commit.version.clone(),
            sig: Some(commit.commit_sig),
        };
        reply.leave_out(
            &mut Vec::new(),
            Some((commit.version.v().get(owner), &base)),
            None,
        );
        reply
    }

    /// Signature verifications `client` runs on `reply`, and its verdict.
    fn verifications(
        client: &mut UstorClient,
        reply: ReplyMsg,
    ) -> (u64, Result<(Option<CommitMsg>, OpCompletion), Fault>) {
        let before = VERIFICATIONS.with(|c| c.get());
        let verdict = client.handle_reply(reply);
        (VERIFICATIONS.with(|c| c.get()) - before, verdict)
    }

    #[test]
    fn sver_against_our_own_commit_costs_a_verification_only_as_a_delta() {
        // Lockstep, n = 2, nothing pending: line 35 is the only signature
        // check a write's reply costs. C0's own last COMMIT comes back as
        // the marker: nothing to verify. Once C1 has committed, `SVER[c]`
        // is C1's, one entry away from C0's COMMIT: a delta, verified.
        let (mut s, mut cs) = pipelined_setup(2, 1);
        let (c0, c1) = (ClientId::new(0), ClientId::new(1));
        let submit = cs[0].begin_write(Value::unique(0, 1)).unwrap();
        let reply = s.on_submit(c0, submit).pop().unwrap().1;
        let first = cs[0]
            .handle_reply(reply)
            .expect("correct server")
            .0
            .unwrap();
        s.on_commit(c0, first.clone());
        let submit = cs[0].begin_write(Value::unique(0, 2)).unwrap();
        let full = s.on_submit(c0, submit).pop().unwrap().1;
        let marker = sent_against(full.clone(), &first, c0);
        assert!(marker
            .left_out
            .commit
            .as_ref()
            .is_some_and(|own| own.is_marker()));
        let mut twin = cs[0].clone();
        let (cost, verdict) = verifications(&mut cs[0], marker);
        let second = verdict.expect("correct server").0.unwrap();
        assert_eq!(cost, 0, "the marker");
        let (cost, verdict) = verifications(&mut twin, full);
        assert_eq!(twin.version(), cs[0].version(), "the same verdict");
        assert_eq!(
            (cost, verdict.map(|(commit, _)| commit)),
            (1, Ok(Some(second.clone())))
        );
        s.on_commit(c0, second.clone());

        let submit = cs[1].begin_write(Value::unique(1, 1)).unwrap();
        let reply = s.on_submit(c1, submit).pop().unwrap().1;
        let theirs = cs[1]
            .handle_reply(reply)
            .expect("correct server")
            .0
            .unwrap();
        s.on_commit(c1, theirs);
        let submit = cs[0].begin_write(Value::unique(0, 3)).unwrap();
        let full = s.on_submit(c0, submit).pop().unwrap().1;
        let delta = sent_against(full.clone(), &second, c0);
        assert!(delta
            .left_out
            .commit
            .as_ref()
            .is_some_and(|own| !own.is_marker()));
        assert!(delta.encoded_len() < full.encoded_len());
        let (cost, verdict) = verifications(&mut cs[0], delta);
        assert_eq!(cost, 1, "a delta carries C1's signature");
        verdict.expect("correct server");
    }

    #[test]
    fn a_marker_attributed_to_another_client_fails_its_commit_signature() {
        let (mut s, mut cs) = pipelined_setup(2, 1);
        let c0 = ClientId::new(0);
        let submit = cs[0].begin_write(Value::unique(0, 1)).unwrap();
        let reply = s.on_submit(c0, submit).pop().unwrap().1;
        let first = cs[0]
            .handle_reply(reply)
            .expect("correct server")
            .0
            .unwrap();
        s.on_commit(c0, first.clone());
        let submit = cs[0].begin_write(Value::unique(0, 2)).unwrap();
        let mut marker = sent_against(s.on_submit(c0, submit).pop().unwrap().1, &first, c0);
        // Our own bytes, passed off as C1's: its key does not verify them.
        marker.last_committer = ClientId::new(1);
        assert_eq!(
            verifications(&mut cs[0], marker),
            (1, Err(Fault::BadCommitVersionSignature))
        );
    }

    #[test]
    fn a_commit_name_we_do_not_hold_is_a_malformed_reply() {
        let keys = KeySet::generate(2, b"pipeline-tests");
        let (mut s, mut cs) = pipelined_setup(2, 1);
        let c0 = ClientId::new(0);
        let submit = cs[0].begin_write(Value::unique(0, 1)).unwrap();
        let reply = s.on_submit(c0, submit).pop().unwrap().1;
        let first = cs[0]
            .handle_reply(reply)
            .expect("correct server")
            .0
            .unwrap();
        s.on_commit(c0, first.clone());
        let submit = cs[0].begin_write(Value::unique(0, 2)).unwrap();
        let full = s.on_submit(c0, submit).pop().unwrap().1;
        let marker = sent_against(full.clone(), &first, c0);
        let unknown = Fault::MalformedReply("commit version names no COMMIT we hold");
        // A name of no COMMIT ours: a typed fault, not a panic.
        let mut far = marker.clone();
        far.left_out.commit.as_mut().unwrap().base = u64::MAX;
        assert_eq!(cs[0].clone().handle_reply(far), Err(unknown.clone()));
        // A client restored with this very state holds none, unless the
        // COMMITs it is to resend are handed to it.
        let restore = || {
            UstorClient::from_state(
                keys.keypair(0).unwrap().clone(),
                keys.registry(),
                cs[0].export_state(),
            )
        };
        assert_eq!(restore().handle_reply(marker.clone()), Err(unknown));
        let mut restored = restore();
        restored.resume_commits([&first]);
        let (_, done) = restored.handle_reply(marker.clone()).expect("resumed");
        assert_eq!(done.timestamp, 2);
        // The live client takes it, and a replay of it, naming the COMMIT
        // before its newest, reads as what the server built: the same
        // verdict as the replayed full reply.
        let mut twin = cs[0].clone();
        cs[0].handle_reply(marker.clone()).expect("correct server");
        twin.handle_reply(full.clone()).expect("correct server");
        for client in [&mut cs[0], &mut twin] {
            client.begin_write(Value::unique(0, 3)).unwrap();
        }
        let replayed = cs[0].handle_reply(marker);
        assert!(replayed.is_err());
        assert_eq!(replayed, twin.handle_reply(full));
    }

    #[test]
    fn a_retained_commit_shares_the_version_the_client_installed() {
        let (mut s, mut cs) = pipelined_setup(2, 1);
        let c0 = ClientId::new(0);
        let mut retained: Vec<Version> = Vec::new();
        for k in 0..3 {
            let submit = cs[0].begin_write(Value::unique(0, k)).unwrap();
            let (commit, done) = cs[0].handle_reply(reply_to(&mut s, c0, submit)).unwrap();
            let commit = commit.unwrap();
            let installed = cs[0].version();
            let own = &cs[0].bases.commits.back().unwrap().version;
            for version in [&commit.version, &done.version, own] {
                assert!(version.same_allocation(installed));
            }
            retained.push(own.clone());
            s.on_commit(c0, commit);
        }
        // Installing the next version wrote nothing into a retained one.
        for (k, version) in retained.iter().enumerate() {
            assert_eq!(version.v().get(c0), k as u64 + 1);
        }
        let kept = &cs[0].bases.commits;
        assert_eq!(kept.len(), 2, "depth + 1");
        for (own, version) in kept.iter().zip(&retained[1..]) {
            assert!(own.version.same_allocation(version));
        }
        // In piggyback mode the held version is the installed one too.
        cs[1].set_commit_mode(CommitMode::Piggyback);
        let submit = cs[1].begin_write(Value::from("y")).unwrap();
        cs[1]
            .handle_reply(reply_to(&mut s, ClientId::new(1), submit))
            .unwrap();
        let held = cs[1].held_commit_version.as_ref().unwrap();
        assert!(held.same_allocation(cs[1].version()));
    }

    /// The REPLY `s` builds for `submit` from `from`.
    fn reply_to(s: &mut UstorServer, from: ClientId, submit: SubmitMsg) -> ReplyMsg {
        s.on_submit(from, submit).pop().unwrap().1
    }

    #[test]
    fn a_named_value_resolves_from_the_last_read_we_accepted_or_faults_cleanly() {
        let keys = KeySet::generate(2, b"pipeline-tests");
        let (mut s, mut cs) = pipelined_setup(2, 1);
        let (c0, c1) = (ClientId::new(0), ClientId::new(1));
        let submit = cs[0].begin_write(Value::from("x")).unwrap();
        let (commit, _) = cs[0].handle_reply(reply_to(&mut s, c0, submit)).unwrap();
        s.on_commit(c0, commit.unwrap());
        // C1 reads "x" at t = 1, in full.
        let submit = cs[1].begin_read(c0).unwrap();
        let first = reply_to(&mut s, c1, submit);
        let x = first.read.as_ref().unwrap().mem_value.clone().unwrap();
        let (commit, _) = cs[1].handle_reply(first).unwrap();
        s.on_commit(c1, commit.unwrap());
        // Its next read's REPLY names it.
        let submit = cs[1].begin_read(c0).unwrap();
        let full = reply_to(&mut s, c1, submit);
        let mut named = full.clone();
        named.leave_out(&mut Vec::new(), None, Some((1, &x)));
        assert_eq!(named.left_out.value, Some(1));
        let unknown = Fault::MalformedReply("read value names no value we hold");
        let mut far = named.clone();
        far.left_out.value = Some(2);
        assert_eq!(cs[1].clone().handle_reply(far), Err(unknown.clone()));
        // A client restored from its state holds no value.
        let restored = UstorClient::from_state(
            keys.keypair(1).unwrap().clone(),
            keys.registry(),
            cs[1].export_state(),
        );
        assert_eq!(restored.clone().handle_reply(named.clone()), Err(unknown));
        // A name with `t_j = 0` stands for a value where there is none.
        let mut initial = named.clone();
        initial.read.as_mut().unwrap().mem_timestamp = 0;
        let got = cs[1].clone().handle_reply(initial);
        assert!(matches!(got, Err(Fault::MalformedReply(_))), "{got:?}");
        // Taken, it completes exactly as the full REPLY does.
        let mut twin = cs[1].clone();
        let (commit, done) = cs[1].handle_reply(named).expect("correct server");
        assert_eq!(Ok((commit.clone(), done.clone())), twin.handle_reply(full));
        assert_eq!(done.read_value, Some(Some(Value::from("x"))));
        s.on_commit(c1, commit.unwrap());
        // C0 writes "y"; a REPLY that names "x" for it fails line 50 over
        // the digest of "x", as "x" sent in full would.
        let submit = cs[0].begin_write(Value::from("y")).unwrap();
        let (commit, _) = cs[0].handle_reply(reply_to(&mut s, c0, submit)).unwrap();
        s.on_commit(c0, commit.unwrap());
        let submit = cs[1].begin_read(c0).unwrap();
        let fresh = reply_to(&mut s, c1, submit);
        let mut lying = fresh.clone();
        lying.read.as_mut().unwrap().mem_value = None;
        lying.left_out.value = Some(2);
        let mut stale = fresh.clone();
        stale.read.as_mut().unwrap().mem_value = Some(x);
        assert_eq!(
            cs[1].clone().handle_reply(lying),
            Err(Fault::BadDataSignature)
        );
        assert_eq!(
            cs[1].clone().handle_reply(stale),
            Err(Fault::BadDataSignature)
        );
        let (commit, _) = cs[1].handle_reply(fresh.clone()).expect("correct server");
        s.on_commit(c1, commit.unwrap());
        // A name in a write's REPLY is malformed, the value held or not.
        let submit = cs[1].begin_write(Value::from("z")).unwrap();
        let mut write = reply_to(&mut s, c1, submit);
        let mut read = fresh.read.clone().unwrap();
        read.mem_value = None;
        write.read = Some(read);
        write.left_out.value = Some(3);
        assert_eq!(
            cs[1].handle_reply(write),
            Err(Fault::MalformedReply("a write's reply names a read value"))
        );
    }
}
