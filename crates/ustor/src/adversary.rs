//! Byzantine server implementations.
//!
//! Each adversary realizes a misbehaviour the paper's client checks (or
//! the FAUST layer) must catch — or, for the schedule-level attacks, a
//! misbehaviour that is *undetectable* in a single execution and shows why
//! forking semantics are the best achievable:
//!
//! * [`SplitBrainServer`] — maintains one world per client group after a
//!   trigger point; clients in different groups never see each other's
//!   subsequent operations. Undetectable by USTOR alone (this is exactly a
//!   forking attack); detected by FAUST's offline version exchange.
//! * [`Fig3Server`] — the stale-read attack of Figure 3: hides a completed
//!   write from the reader's first read, then reveals it. Produces a weak
//!   fork-linearizable (but not fork-linearizable) history.
//! * [`TamperServer`] — mutates a single reply in a configurable way; each
//!   [`Tamper`] variant trips a specific Algorithm 1 check.
//! * [`CrashServer`] — goes silent after a configurable number of
//!   messages; violates liveness only, so USTOR never flags it (FAUST's
//!   probing handles it).

use crate::server::{Server, UstorServer};
use faust_crypto::sig::Signature;
use faust_types::{ClientId, CommitMsg, OpKind, ReplyMsg, SignedVersion, SubmitMsg, Value};

/// A split-brain (forking) server.
///
/// Processes the first `fork_after` submits in one shared world, then
/// clones the world once per client group and routes every client to its
/// group's world. From that point on, the groups evolve independently:
/// their members never see each other's new operations — the views have
/// forked.
#[derive(Debug, Clone)]
pub struct SplitBrainServer {
    groups: Vec<Vec<ClientId>>,
    fork_after: usize,
    submits_seen: usize,
    shared: Option<UstorServer>,
    worlds: Vec<UstorServer>,
}

impl SplitBrainServer {
    /// Creates a forking server for `n` clients that splits into `groups`
    /// after `fork_after` submits have been processed.
    ///
    /// # Panics
    ///
    /// Panics if the groups do not partition `0..n`.
    pub fn new(n: usize, groups: Vec<Vec<ClientId>>, fork_after: usize) -> Self {
        let mut members: Vec<usize> = groups.iter().flatten().map(|c| c.index()).collect();
        members.sort_unstable();
        assert_eq!(
            members,
            (0..n).collect::<Vec<_>>(),
            "groups must partition the clients"
        );
        SplitBrainServer {
            groups,
            fork_after,
            submits_seen: 0,
            shared: Some(UstorServer::new(n)),
            worlds: Vec::new(),
        }
    }

    fn world_of(&mut self, client: ClientId) -> &mut UstorServer {
        if self.shared.is_some() {
            if self.submits_seen <= self.fork_after {
                return self.shared.as_mut().expect("checked above");
            }
            // Fork point reached: clone the shared world per group.
            let template = self.shared.take().expect("checked above");
            self.worlds = self.groups.iter().map(|_| template.clone()).collect();
        }
        let g = self
            .groups
            .iter()
            .position(|g| g.contains(&client))
            .expect("client belongs to a group");
        &mut self.worlds[g]
    }
}

impl Server for SplitBrainServer {
    fn on_submit(&mut self, client: ClientId, msg: SubmitMsg) -> Vec<(ClientId, ReplyMsg)> {
        self.submits_seen += 1;
        self.world_of(client).on_submit(client, msg)
    }

    fn on_commit(&mut self, client: ClientId, msg: CommitMsg) -> Vec<(ClientId, ReplyMsg)> {
        self.world_of(client).on_commit(client, msg)
    }
}

/// The stale-read attack of Figure 3.
///
/// Client `writer` completes a write; when `reader` then reads the
/// writer's register for the first time, the server *pretends the write
/// never happened* (serving a pristine world), and only reveals the write
/// on the reader's subsequent read — as a pending, never-committed
/// operation. Both clients pass all USTOR checks; the resulting history
/// is weakly fork-linearizable but not fork-linearizable, because the
/// reader's first read violates the real-time order with the completed
/// write.
#[derive(Debug, Clone)]
pub struct Fig3Server {
    /// The writer's world: sees everything.
    writer_world: UstorServer,
    /// The reader's world: starts pristine; the writer's submits are
    /// replayed into it lazily, and the writer's commits never reach it.
    reader_world: UstorServer,
    writer: ClientId,
    reader: ClientId,
    /// Writer submits not yet replayed into the reader's world.
    unreplayed: Vec<SubmitMsg>,
    /// How many reads the reader has performed.
    reader_reads: usize,
}

impl Fig3Server {
    /// Creates the attack server for `n` clients with the given writer and
    /// reader roles.
    pub fn new(n: usize, writer: ClientId, reader: ClientId) -> Self {
        assert_ne!(writer, reader, "attack needs two distinct clients");
        Fig3Server {
            writer_world: UstorServer::new(n),
            reader_world: UstorServer::new(n),
            writer,
            reader,
            unreplayed: Vec::new(),
            reader_reads: 0,
        }
    }
}

impl Server for Fig3Server {
    fn on_submit(&mut self, client: ClientId, msg: SubmitMsg) -> Vec<(ClientId, ReplyMsg)> {
        if client == self.writer {
            // The writer is served honestly from its own world, but the
            // reader's world does not learn of the submit yet.
            self.unreplayed.push(msg.clone());
            self.writer_world.on_submit(client, msg)
        } else if client == self.reader {
            if msg.tuple.kind == OpKind::Read {
                self.reader_reads += 1;
                if self.reader_reads > 1 {
                    // Reveal the writer's operations as pending-but-
                    // uncommitted: replay their submits (discarding the
                    // replies), never their commits.
                    for held in self.unreplayed.drain(..) {
                        let _ = self.reader_world.on_submit(self.writer, held);
                    }
                }
            }
            self.reader_world.on_submit(client, msg)
        } else {
            // Bystanders live in the writer's world.
            self.writer_world.on_submit(client, msg)
        }
    }

    fn on_commit(&mut self, client: ClientId, msg: CommitMsg) -> Vec<(ClientId, ReplyMsg)> {
        if client == self.reader {
            self.reader_world.on_commit(client, msg)
        } else {
            self.writer_world.on_commit(client, msg)
        }
    }
}

/// Which single mutation a [`TamperServer`] applies.
///
/// Each variant names the Algorithm 1 check it trips (see
/// [`crate::fault::Fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tamper {
    /// Replace the COMMIT-signature on the main version → line 35.
    CorruptCommitSig,
    /// Serve the initial version after history has advanced → line 36
    /// (version regression).
    RegressToInitialVersion,
    /// Replace a pending tuple's SUBMIT-signature → line 43.
    CorruptPendingSig,
    /// Echo the victim's own submit back in the pending list → line 43.
    EchoOwnTuple,
    /// Drop the PROOF-signature of a pending operation's client → line 41.
    OmitProof,
    /// Replace that PROOF-signature with garbage → line 41.
    CorruptProof,
    /// Flip the returned read value → line 50.
    CorruptReadValue,
    /// Serve a stale `MEM[j]` (old value and timestamp) while presenting
    /// the current version → line 51 (timestamp mismatch).
    StaleReadValue,
    /// Replace the writer-version signature on a read → line 49.
    CorruptWriterSig,
    /// Serve an outdated writer version (two or more commits behind) with
    /// current data → line 52.
    AncientWriterVersion,
}

/// Wraps the correct server and mutates the first reply sent to `victim`
/// once `after_submits` total submits have been processed.
#[derive(Debug)]
pub struct TamperServer {
    inner: UstorServer,
    victim: ClientId,
    after_submits: usize,
    kind: Tamper,
    submits_seen: usize,
    fired: bool,
    /// Per-client history of committed signed versions (for stale/ancient
    /// tampering), oldest first.
    version_history: Vec<Vec<SignedVersion>>,
    /// Per-client history of `MEM` entries captured at submit time:
    /// `(timestamp, value, data_sig)`.
    mem_history: Vec<Vec<(u64, Option<Value>, Signature)>>,
}

impl TamperServer {
    /// Creates a tampering server for `n` clients.
    pub fn new(n: usize, victim: ClientId, after_submits: usize, kind: Tamper) -> Self {
        TamperServer {
            inner: UstorServer::new(n),
            victim,
            after_submits,
            kind,
            submits_seen: 0,
            fired: false,
            version_history: vec![Vec::new(); n],
            mem_history: vec![Vec::new(); n],
        }
    }

    /// Whether the mutation has been applied yet.
    pub fn has_fired(&self) -> bool {
        self.fired
    }

    fn tamper(&mut self, submit: &SubmitMsg, reply: &mut ReplyMsg) {
        match self.kind {
            Tamper::CorruptCommitSig => {
                if reply.commit_version.version.is_initial() {
                    return; // nothing to corrupt yet; wait for a later reply
                }
                reply.commit_version.sig = Some(Signature::garbage());
            }
            Tamper::RegressToInitialVersion => {
                let n = reply.commit_version.version.num_clients();
                if reply.commit_version.version.is_initial() {
                    return;
                }
                reply.commit_version = SignedVersion::initial(n);
                reply.pending.clear();
            }
            Tamper::CorruptPendingSig => match reply.pending.first_mut() {
                Some(t) => t.sig = Signature::garbage(),
                None => return,
            },
            Tamper::EchoOwnTuple => {
                reply.pending.push(submit.tuple.clone());
            }
            Tamper::OmitProof => {
                let Some(k) = reply.pending.first().map(|t| t.client) else {
                    return;
                };
                reply.proofs.set(k, None);
            }
            Tamper::CorruptProof => {
                let Some(k) = reply.pending.first().map(|t| t.client) else {
                    return;
                };
                reply.proofs.set(k, Some(Signature::garbage()));
            }
            Tamper::CorruptReadValue => {
                let Some(read) = reply.read.as_mut() else {
                    return;
                };
                read.mem_value = Some(Value::from("corrupted by server"));
            }
            Tamper::StaleReadValue => {
                let Some(read) = reply.read.as_mut() else {
                    return;
                };
                let j = submit.tuple.register;
                // Serve the oldest recorded MEM entry; stale iff history
                // has advanced since.
                let Some((t, v, sig)) = self.mem_history[j.index()].first() else {
                    return;
                };
                read.mem_timestamp = *t;
                read.mem_value = v.clone();
                read.mem_data_sig = Some(*sig);
            }
            Tamper::CorruptWriterSig => {
                let Some(read) = reply.read.as_mut() else {
                    return;
                };
                if read.writer_version.version.is_initial() {
                    return;
                }
                read.writer_version.sig = Some(Signature::garbage());
            }
            Tamper::AncientWriterVersion => {
                let Some(read) = reply.read.as_mut() else {
                    return;
                };
                let j = submit.tuple.register;
                // Serve the writer's *first* committed version; line 52
                // trips iff the writer has committed ≥ 2 further ops.
                let Some(old) = self.version_history[j.index()].first() else {
                    return;
                };
                read.writer_version = old.clone();
            }
        }
        self.fired = true;
    }
}

impl Server for TamperServer {
    fn on_submit(&mut self, client: ClientId, msg: SubmitMsg) -> Vec<(ClientId, ReplyMsg)> {
        self.submits_seen += 1;
        self.mem_history[client.index()].push((msg.timestamp, msg.value.clone(), msg.data_sig));
        let mut replies = self.inner.on_submit(client, msg.clone());
        if !self.fired && self.submits_seen > self.after_submits {
            for (to, reply) in replies.iter_mut() {
                if *to == self.victim {
                    self.tamper(&msg, reply);
                }
            }
        }
        replies
    }

    fn on_commit(&mut self, client: ClientId, msg: CommitMsg) -> Vec<(ClientId, ReplyMsg)> {
        self.version_history[client.index()].push(SignedVersion {
            version: msg.version.clone(),
            sig: Some(msg.commit_sig),
        });
        self.inner.on_commit(client, msg)
    }
}

/// A server that simply stops responding after `mute_after` submits.
///
/// This violates only liveness: no USTOR check ever fires, which is why
/// the paper's FAUST layer adds offline probing — detection completeness
/// (Definition 5 property 7) must hold even against a silent server.
#[derive(Debug, Clone)]
pub struct CrashServer {
    inner: UstorServer,
    mute_after: usize,
    submits_seen: usize,
}

impl CrashServer {
    /// Creates a server that answers the first `mute_after` submits and
    /// then goes silent forever.
    pub fn new(n: usize, mute_after: usize) -> Self {
        CrashServer {
            inner: UstorServer::new(n),
            mute_after,
            submits_seen: 0,
        }
    }
}

impl Server for CrashServer {
    fn on_submit(&mut self, client: ClientId, msg: SubmitMsg) -> Vec<(ClientId, ReplyMsg)> {
        if self.submits_seen >= self.mute_after {
            return Vec::new();
        }
        self.submits_seen += 1;
        self.inner.on_submit(client, msg)
    }

    fn on_commit(&mut self, client: ClientId, msg: CommitMsg) -> Vec<(ClientId, ReplyMsg)> {
        if self.submits_seen >= self.mute_after {
            return Vec::new();
        }
        self.inner.on_commit(client, msg)
    }
}
