//! The offline certifier: replays a [`SessionHistory`] and either proves
//! the run fork-linearizable or pinpoints the first divergent version.
//!
//! The auditor trusts nothing in the file beyond raw integrity (already
//! checked by the container parser). It re-derives the server's whole
//! behaviour from the accepted messages:
//!
//! 1. **Base state** — every carried signature (COMMIT, PROOF, DATA) is
//!    verified and the committed versions must already form a chain.
//! 2. **Schedule** — per client, SUBMIT timestamps must be consecutive
//!    (`ScheduleGap` otherwise: a removed or reordered record), and every
//!    SUBMIT- and DATA-signature must verify under the client's key.
//! 3. **Commits** — COMMIT- and PROOF-signatures must verify; a commit
//!    may only reference operations the log actually contains
//!    (`UnjustifiedCommit`); per client, commits must advance
//!    monotonically; globally, **all** committed versions must form a
//!    totally ordered chain — two signed incomparable versions are the
//!    paper's fork proof and are returned verbatim as
//!    [`Divergence::ForkedCommits`].
//! 4. **Claim check** — the replayed final state must equal the
//!    manifest's claimed chain (`ChainMismatch`).
//! 5. **Client view** — if the file carries the client-side history,
//!    every completed operation must appear in the replayed schedule with
//!    matching parameters and result (`OmittedOperation` /
//!    `MisreportedOperation`), and the history must certify as
//!    linearizable ([`faust_consistency::certify_linearizable`]).
//!
//! `first_bad_version` in a [`AuditVerdict::Diverged`] is the global
//! sequence number of the record where the divergence becomes evident —
//! "the schedule was honest up to here".

use std::collections::HashMap;
use std::fmt;

use faust_consistency::{certify_linearizable, CertifyOutcome};
use faust_crypto::{sha256, Digest, SigContext, SigScheme, Signature, Verifier, VerifierRegistry};
use faust_store::LogRecord;
use faust_types::op::{data_signing_bytes, proof_signing_bytes, submit_signing_bytes};
use faust_types::{
    ClientId, CommitMsg, OpId, OpKind, OpOutcome, SignedVersion, Timestamp, Value, Version,
    VersionCmp,
};
use faust_ustor::{Server, UstorServer};

use crate::format::SessionHistory;

/// Which protocol signature failed verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigKind {
    /// SUBMIT-signature `σ` over `(kind, register, timestamp)`.
    Submit,
    /// DATA-signature `δ` over `(timestamp, value hash)`.
    Data,
    /// COMMIT-signature `φ` over the version.
    Commit,
    /// PROOF-signature `ψ` over `M[i]`.
    Proof,
}

impl fmt::Display for SigKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SigKind::Submit => write!(f, "SUBMIT"),
            SigKind::Data => write!(f, "DATA"),
            SigKind::Commit => write!(f, "COMMIT"),
            SigKind::Proof => write!(f, "PROOF"),
        }
    }
}

/// Why the auditor refused to certify, pinned to a record by the
/// enclosing [`AuditVerdict::Diverged`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// Two committed versions are incomparable: the signed fork proof.
    /// Both carry valid COMMIT-signatures, so this pair convicts the
    /// server to any third party holding the verification keys.
    ForkedCommits {
        /// The incomparable signed versions.
        evidence: Box<(SignedVersion, SignedVersion)>,
    },
    /// A client's committed version moved strictly backwards.
    CommitRollback {
        /// The client whose chain regressed.
        client: ClientId,
        /// The version previously committed.
        from: Box<Version>,
        /// The strictly older version committed later.
        to: Box<Version>,
    },
    /// A protocol signature failed verification.
    BadSignature {
        /// The client the signature claims to be from.
        client: ClientId,
        /// Which signature failed.
        what: SigKind,
    },
    /// A client's SUBMIT timestamps are not consecutive — a record was
    /// removed, reordered, or forged.
    ScheduleGap {
        /// The client with the gap.
        client: ClientId,
        /// The timestamp the schedule requires next.
        expected: Timestamp,
        /// The timestamp found.
        found: Timestamp,
    },
    /// A commit references an operation the log never admitted.
    UnjustifiedCommit {
        /// The committing client.
        committer: ClientId,
        /// The client whose operations are over-counted.
        victim: ClientId,
        /// Operations of `victim` the version claims.
        claimed: Timestamp,
        /// Operations of `victim` the log holds.
        submitted: Timestamp,
    },
    /// The replayed final state disagrees with the manifest's claimed
    /// chain — the exporter's claim and its own records contradict.
    ChainMismatch {
        /// First client whose entry disagrees.
        client: ClientId,
    },
    /// A completed client operation does not appear in the schedule.
    OmittedOperation {
        /// The client whose operation vanished.
        client: ClientId,
        /// The operation's timestamp.
        timestamp: Timestamp,
    },
    /// A client operation appears in the schedule with different
    /// parameters or a different result than the client observed.
    MisreportedOperation {
        /// The affected client.
        client: ClientId,
        /// The operation's timestamp.
        timestamp: Timestamp,
        /// What disagrees.
        detail: String,
    },
    /// A record is structurally impossible for an honest server to have
    /// accepted (wrong sender, out-of-range ids, read with a value, …).
    MalformedRecord {
        /// What is wrong with it.
        detail: String,
    },
    /// The replayed schedule is internally consistent but the client-side
    /// history it serves is not linearizable.
    HistoryNotLinearizable {
        /// Two operations witnessing the contradiction.
        witness: (OpId, OpId),
        /// Human-readable explanation.
        reason: String,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::ForkedCommits { evidence } => write!(
                f,
                "forked commits: incomparable signed versions {:?} / {:?}",
                evidence.0.version.v(),
                evidence.1.version.v()
            ),
            Divergence::CommitRollback { client, from, to } => write!(
                f,
                "{client} committed {:?} after {:?} — its chain rolled back",
                to.v(),
                from.v()
            ),
            Divergence::BadSignature { client, what } => {
                write!(f, "{what}-signature attributed to {client} does not verify")
            }
            Divergence::ScheduleGap {
                client,
                expected,
                found,
            } => write!(
                f,
                "{client}'s schedule skips from timestamp {expected} to {found}"
            ),
            Divergence::UnjustifiedCommit {
                committer,
                victim,
                claimed,
                submitted,
            } => write!(
                f,
                "{committer} committed a version claiming {claimed} operations of {victim}, \
                 but the log holds only {submitted}"
            ),
            Divergence::ChainMismatch { client } => write!(
                f,
                "replayed final state disagrees with the claimed chain at {client}"
            ),
            Divergence::OmittedOperation { client, timestamp } => write!(
                f,
                "{client}'s completed operation (timestamp {timestamp}) is missing \
                 from the schedule"
            ),
            Divergence::MisreportedOperation {
                client,
                timestamp,
                detail,
            } => write!(
                f,
                "{client}'s operation (timestamp {timestamp}) disagrees with the \
                 schedule: {detail}"
            ),
            Divergence::MalformedRecord { detail } => write!(f, "malformed record: {detail}"),
            Divergence::HistoryNotLinearizable { witness, reason } => write!(
                f,
                "client history is not linearizable ({:?} vs {:?}): {reason}",
                witness.0, witness.1
            ),
        }
    }
}

/// The auditor's verdict over one session history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditVerdict {
    /// Every check passed: the history is an honest execution.
    Certified {
        /// Whether the client-observed history was proven linearizable
        /// (`false` only if the certifier could not decide — never for
        /// histories with unique written values).
        fork_linearizable: bool,
        /// Operations in the replayed schedule.
        ops: u64,
        /// Clients in the session.
        clients: u32,
    },
    /// The history is not an honest execution.
    Diverged {
        /// Global sequence number of the record where the divergence
        /// becomes evident; the schedule is honest before it.
        first_bad_version: u64,
        /// What diverged.
        divergence: Divergence,
    },
}

impl AuditVerdict {
    /// Whether the verdict certifies the history.
    pub fn is_certified(&self) -> bool {
        matches!(self, AuditVerdict::Certified { .. })
    }

    /// The incomparable committed version pair, if the divergence is a
    /// fork.
    pub fn conflicting_pair(&self) -> Option<(&Version, &Version)> {
        self.signed_evidence()
            .map(|(a, b)| (&a.version, &b.version))
    }

    /// The signed fork evidence — two validly signed, mutually
    /// incomparable committed versions — if the divergence is a fork.
    pub fn signed_evidence(&self) -> Option<(&SignedVersion, &SignedVersion)> {
        match self {
            AuditVerdict::Diverged {
                divergence: Divergence::ForkedCommits { evidence },
                ..
            } => Some((&evidence.0, &evidence.1)),
            _ => None,
        }
    }
}

/// Statistics and verdict from one audit run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// The verdict.
    pub verdict: AuditVerdict,
    /// Records replayed before the audit concluded.
    pub records_replayed: u64,
    /// Protocol signatures verified.
    pub signatures_checked: u64,
    /// Commit messages checked (including piggybacked ones).
    pub commits_checked: u64,
}

/// The audit could not even start: the verifier does not match the
/// history's parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// Registry and history disagree about the number of clients.
    ClientCountMismatch {
        /// Clients the registry verifies for.
        registry: usize,
        /// Clients the history claims.
        history: usize,
    },
    /// Registry and history disagree about the signature scheme.
    SchemeMismatch {
        /// The registry's scheme.
        registry: SigScheme,
        /// The history's scheme.
        history: SigScheme,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::ClientCountMismatch { registry, history } => write!(
                f,
                "verifier covers {registry} clients but the history claims {history}"
            ),
            AuditError::SchemeMismatch { registry, history } => write!(
                f,
                "verifier uses {registry:?} but the history claims {history:?}"
            ),
        }
    }
}

impl std::error::Error for AuditError {}

/// One scheduled operation, as reconstructed from the record stream.
struct ScheduledOp {
    seq: u64,
    kind: OpKind,
    register: ClientId,
    written: Option<Value>,
    read_value: Option<Value>,
}

/// The replay state threaded through the record loop.
struct Auditor<'a> {
    verifier: &'a VerifierRegistry,
    n: usize,
    server: UstorServer,
    /// Next expected SUBMIT timestamp per client.
    next_t: Vec<Timestamp>,
    /// Hash of each client's last written value (`x̄` in the paper).
    xbar: Vec<Option<Digest>>,
    /// Each client's last committed version.
    last_committed: Vec<SignedVersion>,
    /// All distinct committed versions, ascending; kept totally ordered
    /// or the audit has already diverged.
    chain: Vec<SignedVersion>,
    /// `(client, timestamp)` → reconstructed operation.
    schedule: HashMap<(usize, Timestamp), ScheduledOp>,
    signatures_checked: u64,
    commits_checked: u64,
}

/// Early exit from the replay loop with a divergence.
struct Diverged {
    first_bad_version: u64,
    divergence: Divergence,
}

impl<'a> Auditor<'a> {
    fn verify(
        &mut self,
        client: ClientId,
        context: SigContext,
        message: &[u8],
        sig: &Signature,
    ) -> bool {
        self.signatures_checked += 1;
        self.verifier
            .verify(client.index() as u32, context, message, sig)
    }

    /// Verifies the signatures a base state carries and seeds the replay
    /// trackers from it. Divergences point at `base_seq`.
    fn seed(&mut self, history: &SessionHistory) -> Result<(), Diverged> {
        let at = history.base_seq;
        let bad = |divergence| Diverged {
            first_bad_version: at,
            divergence,
        };
        let state = match &history.base_state {
            Some(state) => state.clone(),
            None => {
                self.chain.push(SignedVersion::initial(self.n));
                return Ok(());
            }
        };
        for i in 0..self.n {
            let client = ClientId::new(i as u32);
            let sver = &state.sver[i];
            if sver.version.num_clients() != self.n {
                return Err(bad(Divergence::MalformedRecord {
                    detail: format!("base SVER[{i}] has the wrong dimension"),
                }));
            }
            if !sver.version.is_initial() {
                let Some(sig) = &sver.sig else {
                    return Err(bad(Divergence::MalformedRecord {
                        detail: format!("base SVER[{i}] is non-initial but unsigned"),
                    }));
                };
                if !self.verify(
                    client,
                    SigContext::Commit,
                    &sver.version.signing_bytes(),
                    sig,
                ) {
                    return Err(bad(Divergence::BadSignature {
                        client,
                        what: SigKind::Commit,
                    }));
                }
            }
            if let Some(sig) = &state.proofs[i] {
                let message = proof_signing_bytes(sver.version.m().get(client));
                if !self.verify(client, SigContext::Proof, &message, sig) {
                    return Err(bad(Divergence::BadSignature {
                        client,
                        what: SigKind::Proof,
                    }));
                }
            } else if !sver.version.is_initial() {
                return Err(bad(Divergence::MalformedRecord {
                    detail: format!("base SVER[{i}] committed but PROOF[{i}] is missing"),
                }));
            }
            let mem = &state.mem[i];
            if mem.timestamp == 0 {
                if mem.value.is_some() || mem.data_sig.is_some() {
                    return Err(bad(Divergence::MalformedRecord {
                        detail: format!("base MEM[{i}] has data at timestamp 0"),
                    }));
                }
            } else {
                let Some(sig) = &mem.data_sig else {
                    return Err(bad(Divergence::MalformedRecord {
                        detail: format!("base MEM[{i}] has no DATA-signature"),
                    }));
                };
                let hash = mem.value.as_ref().map(|v| sha256(v.as_bytes()));
                let message = data_signing_bytes(mem.timestamp, hash);
                if !self.verify(client, SigContext::Data, &message, sig) {
                    return Err(bad(Divergence::BadSignature {
                        client,
                        what: SigKind::Data,
                    }));
                }
            }
            self.next_t[i] = mem.timestamp + 1;
            self.xbar[i] = mem.value.as_ref().map(|v| sha256(v.as_bytes()));
        }
        // The base chain must itself be totally ordered.
        for sver in &state.sver {
            self.insert_into_chain(sver.clone())
                .map_err(|evidence| Diverged {
                    first_bad_version: at,
                    divergence: Divergence::ForkedCommits { evidence },
                })?;
        }
        self.last_committed = state.sver.clone();
        self.server = UstorServer::from_state(state);
        Ok(())
    }

    /// Inserts a committed version into the global chain, failing with
    /// the incomparable pair if the chain stops being a total order.
    ///
    /// The chain is kept sorted ascending. Scanning from the top: every
    /// element the new version is `≥` closes the scan (transitivity
    /// orders it against everything below); every element it is `<`
    /// keeps scanning; an incomparable element is a fork.
    fn insert_into_chain(
        &mut self,
        new: SignedVersion,
    ) -> Result<(), Box<(SignedVersion, SignedVersion)>> {
        let mut i = self.chain.len();
        while i > 0 {
            match new.version.compare(&self.chain[i - 1].version) {
                VersionCmp::Equal => return Ok(()),
                VersionCmp::Greater => break,
                VersionCmp::Less => i -= 1,
                VersionCmp::Incomparable => {
                    return Err(Box::new((self.chain[i - 1].clone(), new)));
                }
            }
        }
        self.chain.insert(i, new);
        Ok(())
    }

    fn check_commit(&mut self, seq: u64, from: ClientId, msg: &CommitMsg) -> Result<(), Diverged> {
        let bad = |divergence| Diverged {
            first_bad_version: seq,
            divergence,
        };
        self.commits_checked += 1;
        if msg.version.num_clients() != self.n {
            return Err(bad(Divergence::MalformedRecord {
                detail: format!("commit by client {} has the wrong dimension", from.index()),
            }));
        }
        if !self.verify(
            from,
            SigContext::Commit,
            &msg.version.signing_bytes(),
            &msg.commit_sig,
        ) {
            return Err(bad(Divergence::BadSignature {
                client: from,
                what: SigKind::Commit,
            }));
        }
        if !self.verify(
            from,
            SigContext::Proof,
            &proof_signing_bytes(msg.version.m().get(from)),
            &msg.proof_sig,
        ) {
            return Err(bad(Divergence::BadSignature {
                client: from,
                what: SigKind::Proof,
            }));
        }
        // Justification: the version may only count operations the log
        // admitted. A higher count means the committer was shown an
        // operation this log does not contain — records were removed or
        // the reply was fabricated.
        for j in 0..self.n {
            let victim = ClientId::new(j as u32);
            let claimed = msg.version.v().get(victim);
            let submitted = self.next_t[j] - 1;
            if claimed > submitted {
                return Err(bad(Divergence::UnjustifiedCommit {
                    committer: from,
                    victim,
                    claimed,
                    submitted,
                }));
            }
        }
        // Per-client monotonicity.
        let previous = &self.last_committed[from.index()];
        match msg.version.compare(&previous.version) {
            VersionCmp::Greater | VersionCmp::Equal => {}
            VersionCmp::Less => {
                return Err(bad(Divergence::CommitRollback {
                    client: from,
                    from: Box::new(previous.version.clone()),
                    to: Box::new(msg.version.clone()),
                }));
            }
            VersionCmp::Incomparable => {
                return Err(bad(Divergence::ForkedCommits {
                    evidence: Box::new((
                        previous.clone(),
                        SignedVersion {
                            version: msg.version.clone(),
                            sig: Some(msg.commit_sig),
                        },
                    )),
                }));
            }
        }
        let signed = SignedVersion {
            version: msg.version.clone(),
            sig: Some(msg.commit_sig),
        };
        self.last_committed[from.index()] = signed.clone();
        // Global total order.
        self.insert_into_chain(signed).map_err(|evidence| Diverged {
            first_bad_version: seq,
            divergence: Divergence::ForkedCommits { evidence },
        })
    }

    fn check_submit(
        &mut self,
        seq: u64,
        from: ClientId,
        msg: &faust_types::SubmitMsg,
    ) -> Result<(), Diverged> {
        let bad = |divergence| Diverged {
            first_bad_version: seq,
            divergence,
        };
        if msg.tuple.client != from {
            return Err(bad(Divergence::MalformedRecord {
                detail: format!(
                    "submit record from client {} carries a tuple by client {}",
                    from.index(),
                    msg.tuple.client.index()
                ),
            }));
        }
        let register = msg.tuple.register;
        if register.index() >= self.n {
            return Err(bad(Divergence::MalformedRecord {
                detail: format!("submit targets out-of-range register {}", register.index()),
            }));
        }
        match msg.tuple.kind {
            OpKind::Write => {
                if register != from {
                    return Err(bad(Divergence::MalformedRecord {
                        detail: format!(
                            "client {} writes register {} it does not own",
                            from.index(),
                            register.index()
                        ),
                    }));
                }
                if msg.value.is_none() {
                    return Err(bad(Divergence::MalformedRecord {
                        detail: "write submit carries no value".into(),
                    }));
                }
            }
            OpKind::Read => {
                if msg.value.is_some() {
                    return Err(bad(Divergence::MalformedRecord {
                        detail: "read submit carries a value".into(),
                    }));
                }
            }
        }
        let t = msg.timestamp;
        let expected = self.next_t[from.index()];
        if t != expected {
            return Err(bad(Divergence::ScheduleGap {
                client: from,
                expected,
                found: t,
            }));
        }
        if !self.verify(
            from,
            SigContext::Submit,
            &submit_signing_bytes(msg.tuple.kind, register, t),
            &msg.tuple.sig,
        ) {
            return Err(bad(Divergence::BadSignature {
                client: from,
                what: SigKind::Submit,
            }));
        }
        if msg.tuple.kind == OpKind::Write {
            self.xbar[from.index()] = msg.value.as_ref().map(|v| sha256(v.as_bytes()));
        }
        if !self.verify(
            from,
            SigContext::Data,
            &data_signing_bytes(t, self.xbar[from.index()]),
            &msg.data_sig,
        ) {
            return Err(bad(Divergence::BadSignature {
                client: from,
                what: SigKind::Data,
            }));
        }
        // The value a read observes is the register's content at its
        // position in the schedule — recorded before applying, though a
        // read submit never changes `MEM[j].x`.
        let read_value = match msg.tuple.kind {
            OpKind::Read => self.server.mem(register).value.clone(),
            OpKind::Write => None,
        };
        self.schedule.insert(
            (from.index(), t),
            ScheduledOp {
                seq,
                kind: msg.tuple.kind,
                register,
                written: msg.value.clone(),
                read_value,
            },
        );
        self.next_t[from.index()] = t + 1;
        Ok(())
    }

    fn check_record(&mut self, seq: u64, record: &LogRecord) -> Result<(), Diverged> {
        match record {
            LogRecord::Submit { from, msg } => {
                if from.index() >= self.n {
                    return Err(Diverged {
                        first_bad_version: seq,
                        divergence: Divergence::MalformedRecord {
                            detail: format!("submit from out-of-range client {}", from.index()),
                        },
                    });
                }
                if let Some(piggyback) = &msg.piggyback {
                    self.check_commit(seq, *from, piggyback)?;
                }
                self.check_submit(seq, *from, msg)?;
                self.server.on_submit(*from, msg.clone());
            }
            LogRecord::Commit { from, msg } => {
                if from.index() >= self.n {
                    return Err(Diverged {
                        first_bad_version: seq,
                        divergence: Divergence::MalformedRecord {
                            detail: format!("commit from out-of-range client {}", from.index()),
                        },
                    });
                }
                self.check_commit(seq, *from, msg)?;
                self.server.on_commit(*from, msg.clone());
            }
        }
        Ok(())
    }

    /// Cross-checks the client-observed history against the replayed
    /// schedule. `base_t[i]` is the highest timestamp of client `i`
    /// folded into the base state (those operations predate the exported
    /// window and cannot be cross-checked record-by-record).
    fn check_client_history(
        &self,
        history: &faust_types::History,
        base_t: &[Timestamp],
        end_seq: u64,
    ) -> Result<(), Diverged> {
        for op in history.ops() {
            if !op.is_complete() {
                continue;
            }
            let Some(t) = op.timestamp else {
                continue;
            };
            let client = op.client;
            if client.index() >= self.n {
                return Err(Diverged {
                    first_bad_version: end_seq,
                    divergence: Divergence::MalformedRecord {
                        detail: format!(
                            "client history names out-of-range client {}",
                            client.index()
                        ),
                    },
                });
            }
            if t <= base_t[client.index()] {
                continue;
            }
            let Some(scheduled) = self.schedule.get(&(client.index(), t)) else {
                return Err(Diverged {
                    first_bad_version: end_seq,
                    divergence: Divergence::OmittedOperation {
                        client,
                        timestamp: t,
                    },
                });
            };
            let misreported = |detail: String| Diverged {
                first_bad_version: scheduled.seq,
                divergence: Divergence::MisreportedOperation {
                    client,
                    timestamp: t,
                    detail,
                },
            };
            if op.kind != scheduled.kind {
                return Err(misreported(format!(
                    "client observed a {:?} but the schedule holds a {:?}",
                    op.kind, scheduled.kind
                )));
            }
            if op.register != scheduled.register {
                return Err(misreported(format!(
                    "client targeted register {} but the schedule holds register {}",
                    op.register.index(),
                    scheduled.register.index()
                )));
            }
            match (&op.outcome, op.kind) {
                (OpOutcome::WriteOk, OpKind::Write) => {
                    if op.written != scheduled.written {
                        return Err(misreported(
                            "written value differs from the scheduled value".into(),
                        ));
                    }
                }
                (OpOutcome::ReadReturned(observed), OpKind::Read) => {
                    if observed != &scheduled.read_value {
                        return Err(misreported(format!(
                            "read returned {:?} but the schedule serves {:?}",
                            observed.as_ref().map(|v| v.as_bytes()),
                            scheduled.read_value.as_ref().map(|v| v.as_bytes()),
                        )));
                    }
                }
                _ => {
                    return Err(misreported("outcome does not match the kind".into()));
                }
            }
        }
        Ok(())
    }
}

/// Audits a session history against a verifier registry, replaying every
/// record and checking every signature (see module docs for the check
/// sequence). Returns the verdict and replay statistics; errs only if
/// `verifier` cannot possibly match the history.
pub fn audit(
    history: &SessionHistory,
    verifier: &VerifierRegistry,
) -> Result<AuditReport, AuditError> {
    if verifier.num_clients() != history.n {
        return Err(AuditError::ClientCountMismatch {
            registry: verifier.num_clients(),
            history: history.n,
        });
    }
    if verifier.scheme() != history.scheme {
        return Err(AuditError::SchemeMismatch {
            registry: verifier.scheme(),
            history: history.scheme,
        });
    }
    let n = history.n;
    let mut auditor = Auditor {
        verifier,
        n,
        server: UstorServer::new(n),
        next_t: vec![1; n],
        xbar: vec![None; n],
        last_committed: vec![SignedVersion::initial(n); n],
        chain: Vec::new(),
        schedule: HashMap::new(),
        signatures_checked: 0,
        commits_checked: 0,
    };

    let mut records_replayed = 0u64;
    let end_seq = history.base_seq + history.records.len() as u64;
    let outcome = (|| -> Result<(), Diverged> {
        auditor.seed(history)?;
        let base_t: Vec<Timestamp> = auditor.next_t.iter().map(|t| t - 1).collect();
        for (seq, record) in &history.records {
            auditor.check_record(*seq, record)?;
            records_replayed += 1;
        }
        // The exporter's claimed chain must match the replay.
        let final_state = auditor.server.export_state();
        for i in 0..n {
            if final_state.sver[i] != history.claimed_chain[i]
                || final_state.proofs[i] != history.claimed_proofs[i]
            {
                return Err(Diverged {
                    first_bad_version: end_seq,
                    divergence: Divergence::ChainMismatch {
                        client: ClientId::new(i as u32),
                    },
                });
            }
        }
        if let Some(client_history) = &history.client_history {
            auditor.check_client_history(client_history, &base_t, end_seq)?;
        }
        Ok(())
    })();

    let verdict = match outcome {
        Err(diverged) => AuditVerdict::Diverged {
            first_bad_version: diverged.first_bad_version,
            divergence: diverged.divergence,
        },
        Ok(()) => {
            // Op-level certification of the client-observed history.
            let fork_linearizable = match &history.client_history {
                None => true,
                Some(client_history) => match certify_linearizable(client_history) {
                    CertifyOutcome::Linearizable { .. } => true,
                    CertifyOutcome::Unknown(_) => false,
                    CertifyOutcome::Violated { witness, reason } => {
                        // Pin the divergence to the later witness op's
                        // position in the schedule if we can find it.
                        let seq_of = |id: OpId| {
                            client_history.op(id).and_then(|op| {
                                let t = op.timestamp?;
                                auditor.schedule.get(&(op.client.index(), t)).map(|s| s.seq)
                            })
                        };
                        let at = seq_of(witness.0)
                            .into_iter()
                            .chain(seq_of(witness.1))
                            .max()
                            .unwrap_or(end_seq);
                        return Ok(AuditReport {
                            verdict: AuditVerdict::Diverged {
                                first_bad_version: at,
                                divergence: Divergence::HistoryNotLinearizable { witness, reason },
                            },
                            records_replayed,
                            signatures_checked: auditor.signatures_checked,
                            commits_checked: auditor.commits_checked,
                        });
                    }
                },
            };
            AuditVerdict::Certified {
                fork_linearizable,
                ops: auditor.schedule.len() as u64,
                clients: n as u32,
            }
        }
    };
    Ok(AuditReport {
        verdict,
        records_replayed,
        signatures_checked: auditor.signatures_checked,
        commits_checked: auditor.commits_checked,
    })
}
