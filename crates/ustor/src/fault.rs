//! Server-misbehaviour diagnoses and server-side fault *injection*.
//!
//! Every check a USTOR client performs on a REPLY message (Algorithm 1,
//! lines 35–52) has a corresponding [`Fault`] variant, so tests and
//! operators can see *which* check a Byzantine server tripped. Any fault
//! is proof that the server violated its specification: a correct server
//! never triggers one (failure-detection accuracy, Definition 5 property
//! 5).
//!
//! The injection side lives in [`CrashRestartServer`]: a wrapper that
//! kills its inner server after a scheduled number of messages and
//! rebuilds it from a [`ServerBackend`], optionally
//! running a tamper hook (e.g. log truncation) in between. With a
//! volatile backend the "restart" silently erases the schedule — the
//! rollback clients must detect; with a persistent backend an honest
//! restart is invisible.

use crate::server::{Server, ServerBackend, SessionResume};
use faust_types::{ClientId, CommitMsg, ReplyMsg, SubmitMsg};
use std::fmt;

/// Proof of server misbehaviour detected by a client.
///
/// The paper's client executes `output fail_i; halt` when a check fails;
/// this enum is the reason attached to that event. Line numbers refer to
/// Algorithm 1 in the paper.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Fault {
    /// Line 35: the COMMIT-signature on the reply's main version
    /// `(V^c, M^c)` does not verify against client `c`.
    BadCommitVersionSignature,
    /// Line 36, first conjunct: the reply's version is not `≽` the
    /// client's own version — the server tried to rewind or fork history.
    VersionRegression,
    /// Line 36, second conjunct: `V^c[i] ≠ V_i[i]` — the reply's version
    /// accounts for a different number of the client's own operations than
    /// the client has performed.
    OwnTimestampMismatch,
    /// Line 41: a pending operation's client has a non-`⊥` digest entry
    /// but the server presented no PROOF-signature for it.
    MissingProofSignature,
    /// Line 41: the presented PROOF-signature does not verify.
    BadProofSignature,
    /// Line 41, pipelined generalization: more pending operations of one
    /// client lack a vouching PROOF-signature than the deployment's
    /// pipeline depth allows — commits cannot legitimately lag submits
    /// that far, so the server is replaying or fabricating invocations.
    UnanchoredPendingOverflow,
    /// Line 43, first disjunct: the pending list contains an operation by
    /// this client itself — impossible, since a client is sequential.
    OwnOperationPending,
    /// Line 43, second disjunct: a pending tuple's SUBMIT-signature does
    /// not verify against the expected timestamp (replayed or fabricated
    /// invocation).
    BadSubmitSignature,
    /// Line 49: the COMMIT-signature on the writer's version `(V^j, M^j)`
    /// returned with a read does not verify.
    BadWriterCommitSignature,
    /// Line 50: the DATA-signature on the returned value does not verify —
    /// the value or its timestamp was tampered with.
    BadDataSignature,
    /// Line 51, first conjunct: the writer's version is not `≼` the
    /// reply's main version.
    WriterVersionAhead,
    /// Line 51, second conjunct: the returned value's timestamp `t_j`
    /// differs from `V_i[j]` — the server served a value inconsistent
    /// with the view history it presented.
    DataTimestampMismatch,
    /// Line 52: `V^j[j] ∉ {t_j, t_j − 1}` — the writer's committed
    /// version does not match the returned timestamp.
    WriterSelfEntryMismatch,
    /// The reply is structurally invalid (wrong vector arity, out-of-range
    /// client index, missing read part). A correct server never sends
    /// such a message.
    MalformedReply(&'static str),
    /// A REPLY arrived while no operation was in flight. FIFO channels
    /// from a correct server cannot produce this.
    UnsolicitedReply,
    /// A session resumed from a persisted state file failed its first
    /// post-resume verification — the state file is a *rollback* of the
    /// session the server remembers (stale snapshot, restored backup).
    /// Unlike the other variants this convicts the resumed *client
    /// state*, not the server; it is raised by the resume guard in
    /// `faust-core`, never by live protocol checks.
    StaleClientState,
}

impl Fault {
    /// The Algorithm 1 line whose check detected the fault, if any.
    pub fn algorithm_line(&self) -> Option<u32> {
        match self {
            Fault::BadCommitVersionSignature => Some(35),
            Fault::VersionRegression | Fault::OwnTimestampMismatch => Some(36),
            Fault::MissingProofSignature
            | Fault::BadProofSignature
            | Fault::UnanchoredPendingOverflow => Some(41),
            Fault::OwnOperationPending | Fault::BadSubmitSignature => Some(43),
            Fault::BadWriterCommitSignature => Some(49),
            Fault::BadDataSignature => Some(50),
            Fault::WriterVersionAhead | Fault::DataTimestampMismatch => Some(51),
            Fault::WriterSelfEntryMismatch => Some(52),
            Fault::MalformedReply(_) | Fault::UnsolicitedReply | Fault::StaleClientState => None,
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::BadCommitVersionSignature => {
                f.write_str("invalid commit signature on reply version")
            }
            Fault::VersionRegression => f.write_str("reply version regresses the client version"),
            Fault::OwnTimestampMismatch => {
                f.write_str("reply version disagrees on the client's own timestamp")
            }
            Fault::MissingProofSignature => {
                f.write_str("missing proof signature for a pending operation")
            }
            Fault::BadProofSignature => {
                f.write_str("invalid proof signature for a pending operation")
            }
            Fault::UnanchoredPendingOverflow => {
                f.write_str("more unanchored pending operations than the pipeline depth allows")
            }
            Fault::OwnOperationPending => {
                f.write_str("server lists the client's own operation as pending")
            }
            Fault::BadSubmitSignature => {
                f.write_str("invalid submit signature on a pending operation")
            }
            Fault::BadWriterCommitSignature => {
                f.write_str("invalid commit signature on the writer's version")
            }
            Fault::BadDataSignature => f.write_str("invalid data signature on the read value"),
            Fault::WriterVersionAhead => {
                f.write_str("writer's version is not below the reply version")
            }
            Fault::DataTimestampMismatch => {
                f.write_str("returned value timestamp disagrees with the view history")
            }
            Fault::WriterSelfEntryMismatch => {
                f.write_str("writer's committed version disagrees with the value timestamp")
            }
            Fault::MalformedReply(why) => write!(f, "malformed reply: {why}"),
            Fault::UnsolicitedReply => f.write_str("reply received with no operation in flight"),
            Fault::StaleClientState => {
                f.write_str("resumed client state is stale (rolled-back session file)")
            }
        }
    }
}

impl std::error::Error for Fault {}

/// A hook run between the simulated crash and the recovery, while the
/// server is "down" — the natural place to tamper with durable state
/// (truncate the log, delete a snapshot) and model a rollback attack.
pub type RestartHook = Box<dyn FnMut() + Send>;

/// Fault injection: a server that crashes after a scheduled number of
/// messages and restarts from its backend.
///
/// The wrapper processes each message through the inner server first and
/// crashes *between* messages, so every acknowledged operation was fully
/// handled before the crash — exactly the situation a write-ahead log
/// must survive. On the crash it drops the inner server (the "kill"),
/// runs the optional [`RestartHook`], then rebuilds the inner server via
/// [`ServerBackend::build`] (the "restart" — for a persistent backend,
/// recovery from disk).
///
/// Whether clients notice is entirely the backend's doing:
///
/// * [`MemoryBackend`](crate::MemoryBackend): the restart erases `MEM`,
///   `SVER`, and the schedule. The next reply carries a rewound version,
///   which clients flag as [`Fault::VersionRegression`] /
///   [`Fault::OwnTimestampMismatch`].
/// * a persistent backend with a complete log: recovery rebuilds
///   bit-identical state and the restart is invisible.
/// * a persistent backend whose log was truncated by the hook: locally
///   consistent recovery of a *prefix* — the rollback attack, detected by
///   clients exactly like the volatile case.
///
/// If the backend fails to rebuild, the server stays down and answers
/// nothing (crash-silence), which the fail-aware layer already models.
pub struct CrashRestartServer {
    n: usize,
    backend: Box<dyn ServerBackend + Send>,
    inner: Option<Box<dyn Server + Send>>,
    crash_after: usize,
    seen: usize,
    hook: Option<RestartHook>,
    restarts: usize,
}

impl fmt::Debug for CrashRestartServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CrashRestartServer")
            .field("n", &self.n)
            .field("crash_after", &self.crash_after)
            .field("seen", &self.seen)
            .field("restarts", &self.restarts)
            .field("down", &self.inner.is_none())
            .finish_non_exhaustive()
    }
}

impl CrashRestartServer {
    /// Wraps a server built from `backend`, scheduled to crash after
    /// `crash_after` messages (SUBMITs and COMMITs both count).
    ///
    /// # Errors
    ///
    /// Propagates the backend's error for the *initial* build.
    pub fn new(
        n: usize,
        backend: Box<dyn ServerBackend + Send>,
        crash_after: usize,
    ) -> std::io::Result<Self> {
        let inner = backend.build(n)?;
        Ok(CrashRestartServer {
            n,
            backend,
            inner: Some(inner),
            crash_after,
            seen: 0,
            hook: None,
            restarts: 0,
        })
    }

    /// Installs a hook run while the server is down, between the kill and
    /// the recovery (builder style).
    #[must_use]
    pub fn with_hook(mut self, hook: RestartHook) -> Self {
        self.hook = Some(hook);
        self
    }

    /// Number of crash/restart cycles performed so far.
    pub fn restarts(&self) -> usize {
        self.restarts
    }

    /// Counts one processed message and performs the scheduled
    /// crash/restart once the count is reached.
    fn after_message(&mut self) {
        self.seen += 1;
        if self.seen != self.crash_after {
            return;
        }
        // Kill: drop all volatile state.
        self.inner = None;
        // Tamper with durable state while down, if scheduled.
        if let Some(hook) = &mut self.hook {
            hook();
        }
        // Restart: whatever the backend can recover.
        self.inner = self.backend.build(self.n).ok();
        self.restarts += 1;
    }
}

impl Server for CrashRestartServer {
    // The engine collects resumable sessions once, at construction —
    // forward whatever the initial build recovered. (Mid-run restarts
    // don't need this: the engine's own sessions survive them.)
    fn resume_sessions(&mut self) -> Vec<SessionResume> {
        match &mut self.inner {
            Some(server) => server.resume_sessions(),
            None => Vec::new(),
        }
    }

    fn on_submit(&mut self, client: ClientId, msg: SubmitMsg) -> Vec<(ClientId, ReplyMsg)> {
        let replies = match &mut self.inner {
            Some(server) => server.on_submit(client, msg),
            None => Vec::new(), // down: crash-silence
        };
        self.after_message();
        replies
    }

    fn on_commit(&mut self, client: ClientId, msg: CommitMsg) -> Vec<(ClientId, ReplyMsg)> {
        let replies = match &mut self.inner {
            Some(server) => server.on_commit(client, msg),
            None => Vec::new(),
        };
        self.after_message();
        replies
    }

    // Durability flushes pass straight through to the inner server (a
    // group-committing backend holds replies until its batched fsync);
    // while the server is down there is nothing to flush — crash-silence.
    fn flush(&mut self, force: bool) -> Vec<(ClientId, ReplyMsg)> {
        match &mut self.inner {
            Some(server) => server.flush(force),
            None => Vec::new(),
        }
    }

    fn flush_deadline(&self) -> Option<std::time::Instant> {
        self.inner.as_ref().and_then(|s| s.flush_deadline())
    }

    fn flush_deadline_at(&self) -> Option<u64> {
        self.inner.as_ref().and_then(|s| s.flush_deadline_at())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_numbers_match_paper() {
        assert_eq!(Fault::BadCommitVersionSignature.algorithm_line(), Some(35));
        assert_eq!(Fault::VersionRegression.algorithm_line(), Some(36));
        assert_eq!(Fault::BadProofSignature.algorithm_line(), Some(41));
        assert_eq!(Fault::OwnOperationPending.algorithm_line(), Some(43));
        assert_eq!(Fault::BadWriterCommitSignature.algorithm_line(), Some(49));
        assert_eq!(Fault::BadDataSignature.algorithm_line(), Some(50));
        assert_eq!(Fault::DataTimestampMismatch.algorithm_line(), Some(51));
        assert_eq!(Fault::WriterSelfEntryMismatch.algorithm_line(), Some(52));
        assert_eq!(Fault::MalformedReply("x").algorithm_line(), None);
        assert_eq!(Fault::StaleClientState.algorithm_line(), None);
    }

    #[test]
    fn display_is_nonempty() {
        for fault in [
            Fault::BadCommitVersionSignature,
            Fault::VersionRegression,
            Fault::UnsolicitedReply,
            Fault::MalformedReply("arity"),
            Fault::StaleClientState,
        ] {
            assert!(!fault.to_string().is_empty());
        }
    }
}
