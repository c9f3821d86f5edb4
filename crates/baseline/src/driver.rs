//! The lock-step baseline as a [`Protocol`] of the shared
//! [`faust_ustor::Driver`] loop, so the two protocols run head-to-head on
//! one script (experiment E7: wait-freedom vs. blocking).

use crate::protocol::{
    LockStepClient, LockStepServer, LsCommit, LsCompletion, LsFault, LsGrant, LsSubmit,
};
use faust_crypto::sig::{Keypair, VerifierRegistry};
use faust_sim::MessageSize;
use faust_types::{ClientId, OpKind, Timestamp, Value};
use faust_ustor::{Driver, Protocol};

/// The lock-step protocol ([`LockStepClient`]s against the
/// [`LockStepServer`]).
#[derive(Debug, Clone, Copy)]
pub struct LockStep;

/// The lock-step baseline in the simulation loop.
///
/// # Example
///
/// ```
/// use faust_baseline::{LockStepServer, LsDriver};
/// use faust_crypto::KeySet;
/// use faust_sim::SimConfig;
/// use faust_types::{ClientId, Value};
/// use faust_ustor::WorkloadOp;
///
/// let keys = KeySet::generate(2, b"ex");
/// let mut d = LsDriver::with_keys(LockStepServer::new(2), SimConfig::default(), &keys);
/// d.push_op(ClientId::new(0), WorkloadOp::Write(Value::from("v")));
/// d.push_op(ClientId::new(1), WorkloadOp::Read(ClientId::new(0)));
/// let r = d.run();
/// assert_eq!(r.incomplete_ops, 0);
/// ```
pub type LsDriver = Driver<LockStep>;

/// A lock-step link message, in either direction.
#[derive(Debug, Clone)]
pub enum LsMsg {
    /// Client → server: request the lock for an operation.
    Submit(LsSubmit),
    /// Server → client: the lock, with the current signed state.
    Grant(Box<LsGrant>),
    /// Client → server: the new signed state; releases the lock.
    Commit(Box<LsCommit>),
}

impl MessageSize for LsMsg {
    fn size_bytes(&self) -> usize {
        // Rough wire-size model: states dominate (seq + counts + hashes +
        // signature); values carried verbatim.
        match self {
            LsMsg::Submit(m) => 16 + m.value.as_ref().map_or(0, |v| v.len()),
            LsMsg::Grant(g) => {
                40 + g.state.counts.len() * 41 + g.value.as_ref().map_or(0, |v| v.len())
            }
            LsMsg::Commit(c) => {
                40 + c.state.counts.len() * 41 + c.value.as_ref().map_or(0, |v| v.len())
            }
        }
    }
}

impl Protocol for LockStep {
    type Client = LockStepClient;
    type Server = LockStepServer;
    type Msg = LsMsg;
    type Completion = LsCompletion;
    type Fault = LsFault;

    fn client(
        id: ClientId,
        n: usize,
        keypair: Keypair,
        registry: VerifierRegistry,
    ) -> LockStepClient {
        LockStepClient::new(id, n, keypair, registry)
    }

    fn begin_write(client: &mut LockStepClient, value: Value) -> LsMsg {
        LsMsg::Submit(client.begin_write(value))
    }

    fn begin_read(client: &mut LockStepClient, register: ClientId) -> LsMsg {
        LsMsg::Submit(client.begin_read(register))
    }

    fn answer(
        client: &mut LockStepClient,
        msg: LsMsg,
    ) -> Option<Result<(Option<LsMsg>, LsCompletion), LsFault>> {
        let LsMsg::Grant(grant) = msg else {
            return None;
        };
        Some(
            client
                .handle_grant(*grant)
                .map(|(commit, done)| (Some(LsMsg::Commit(Box::new(commit))), done)),
        )
    }

    fn record(done: &LsCompletion) -> (OpKind, Timestamp, Option<Value>) {
        (done.kind, done.seq, done.read_value.clone().flatten())
    }

    fn serve(
        server: &mut LockStepServer,
        from: ClientId,
        msg: LsMsg,
        mut send: impl FnMut(ClientId, LsMsg),
    ) {
        let grants = match msg {
            LsMsg::Submit(m) => server.on_submit(from, m),
            LsMsg::Commit(m) => server.on_commit(from, *m),
            LsMsg::Grant(_) => Vec::new(),
        };
        for (to, grant) in grants {
            send(to, LsMsg::Grant(Box::new(grant)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faust_crypto::KeySet;
    use faust_sim::SimConfig;
    use faust_ustor::WorkloadOp;

    fn c(i: u32) -> ClientId {
        ClientId::new(i)
    }

    #[test]
    fn sequential_workload_completes() {
        let mut d = LsDriver::with_keys(
            LockStepServer::new(2),
            SimConfig::default(),
            &KeySet::generate(2, b"ls1"),
        );
        d.push_ops(
            c(0),
            vec![
                WorkloadOp::Write(Value::from("a")),
                WorkloadOp::Write(Value::from("b")),
            ],
        );
        d.push_ops(c(1), vec![WorkloadOp::Read(c(0))]);
        let r = d.run();
        assert!(r.faults.is_empty());
        assert_eq!(r.incomplete_ops, 0);
        assert_eq!(r.history.len(), 3);
    }

    #[test]
    fn crash_while_holding_lock_blocks_everyone() {
        // C0's crash lands after its grant arrived but before its commit
        // is processed: the lock is never released, so C1's and C2's
        // operations never complete — the protocol is not wait-free.
        let mut d = LsDriver::with_keys(
            LockStepServer::new(3),
            SimConfig {
                link_delay: faust_sim::DelayModel::Fixed(10),
                ..SimConfig::default()
            },
            &KeySet::generate(3, b"ls2"),
        );
        d.push_op(c(0), WorkloadOp::Write(Value::from("w")));
        d.push_ops(c(1), vec![WorkloadOp::Pause(5), WorkloadOp::Read(c(0))]);
        d.push_ops(c(2), vec![WorkloadOp::Pause(5), WorkloadOp::Read(c(0))]);
        // Grant arrives at t=20 (submit 10 + grant 10); crash at t=15,
        // while the grant is in flight.
        d.crash_at(c(0), 15);
        let r = d.run();
        assert!(r.faults.is_empty());
        // C0's write and both readers' ops are wedged forever.
        assert_eq!(r.incomplete_ops, 3, "history: {:?}", r.history);
    }

    #[test]
    fn disconnected_lock_holder_stalls_everyone_until_it_reconnects() {
        // C0 goes offline for 100 ticks right after asking for the lock:
        // its grant parks, and C1 queues behind the lock until C0 is back
        // and commits. Both complete after the reconnect.
        let mut d = LsDriver::with_keys(
            LockStepServer::new(2),
            SimConfig::default(),
            &KeySet::generate(2, b"ls3"),
        );
        d.push_ops(
            c(0),
            vec![
                WorkloadOp::Disconnect(100),
                WorkloadOp::Write(Value::from("w")),
            ],
        );
        d.push_ops(c(1), vec![WorkloadOp::Pause(5), WorkloadOp::Read(c(0))]);
        let r = d.run();
        assert!(r.faults.is_empty());
        assert_eq!(r.incomplete_ops, 0);
        for op in r.history.ops() {
            assert!(op.responded_at > Some(100), "{op:?}");
        }
        assert_eq!(r.completions[1][0].read_value, Some(Some(Value::from("w"))));
    }

    #[test]
    fn lock_serializes_concurrent_clients() {
        // All clients submit at t=0; ops serialize behind the lock, so
        // the run takes ~2 round trips per op in sequence.
        let mut d = LsDriver::with_keys(
            LockStepServer::new(4),
            SimConfig {
                link_delay: faust_sim::DelayModel::Fixed(10),
                ..SimConfig::default()
            },
            &KeySet::generate(4, b"ls4"),
        );
        for i in 0..4 {
            d.push_op(c(i), WorkloadOp::Write(Value::unique(i, 0)));
        }
        let r = d.run();
        assert_eq!(r.incomplete_ops, 0);
        // Each op needs grant (10) + commit (10) before the next grant:
        // total ≥ 4 sequential ops ≈ 4 × 20 = 80 ticks. USTOR on the same
        // workload finishes in ~2 round trips total (all concurrent).
        assert!(
            r.final_time >= 70,
            "ops must serialize, got {}",
            r.final_time
        );
    }
}
