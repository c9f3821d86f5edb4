//! Simulation harness: runs `n` clients of a storage protocol against its
//! (correct or Byzantine) server over the `faust-sim` network, records the
//! resulting [`History`], and reports completions, detected faults, and
//! traffic metrics.
//!
//! The loop is written once, over [`Protocol`]. This crate implements it
//! for USTOR ([`Ustor`]); `faust-baseline` implements it for the lock-step
//! protocol, so experiment E7 pushes one script into both. Tests, property
//! tests, and the experiment harness use it to produce executions. The
//! FAUST layer has its own loop, `faust_core::FaustDriver`: its ticks,
//! offline channel, link epochs and fault plan have no counterpart here.

use crate::client::{CommitMode, OpCompletion, UstorClient};
use crate::engine::ServerEngine;
use crate::fault::Fault;
use crate::server::Server;
use faust_crypto::sig::{KeySet, Keypair, VerifierRegistry};
use faust_crypto::SigScheme;
use faust_sim::SmallRng;
use faust_sim::{Event, MessageSize, NodeId, SimConfig, Simulation};
use faust_types::{ClientId, History, OpId, OpKind, Timestamp, UstorMsg, Value, Wire};
use std::collections::VecDeque;
use std::fmt::Debug;

/// One step of a scripted client workload. The same vocabulary scripts
/// [`Driver`] (USTOR and the lock-step baseline) and the FAUST simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadOp {
    /// Write a value to the client's own register.
    Write(Value),
    /// Read a register.
    Read(ClientId),
    /// Stay idle for the given number of virtual-time ticks before the
    /// next step (used to sequence scripted scenarios).
    Pause(u64),
    /// Go offline for the given number of ticks (the paper's "Carlos is
    /// asleep"): traffic to the client is parked and delivered, in order,
    /// when it reconnects. The script carries on meanwhile, so an
    /// operation begun while offline completes after the reconnect.
    Disconnect(u64),
    /// Crash the client (crash-stop; any in-flight operation is lost).
    Crash,
}

/// A storage protocol the [`Driver`] loop can run: its message types and
/// the few hooks where the two protocols differ.
pub trait Protocol {
    /// The client state machine.
    type Client;
    /// The server node's state.
    type Server;
    /// A link message, in either direction.
    type Msg: MessageSize;
    /// What a client reports for a finished operation.
    type Completion: Clone + Debug;
    /// What a client reports when it catches the server misbehaving.
    type Fault: Clone + Debug;

    /// Creates client `id` of `n`.
    fn client(id: ClientId, n: usize, keypair: Keypair, registry: VerifierRegistry)
        -> Self::Client;
    /// Begins a write of the client's own register; returns the request.
    fn begin_write(client: &mut Self::Client, value: Value) -> Self::Msg;
    /// Begins a read of `register`; returns the request.
    fn begin_read(client: &mut Self::Client, register: ClientId) -> Self::Msg;
    /// Hands a server message to the client. `None` if the message does
    /// not answer an operation; otherwise the completion with the message
    /// (if any) the client sends back, or the fault it detected.
    fn answer(
        client: &mut Self::Client,
        msg: Self::Msg,
    ) -> Option<Result<(Option<Self::Msg>, Self::Completion), Self::Fault>>;
    /// A completion's history record: kind, timestamp, and the value a
    /// read returned.
    fn record(done: &Self::Completion) -> (OpKind, Timestamp, Option<Value>);
    /// Serves one client message, handing every message it causes to
    /// `send`.
    fn serve(
        server: &mut Self::Server,
        from: ClientId,
        msg: Self::Msg,
        send: impl FnMut(ClientId, Self::Msg),
    );
}

/// USTOR ([`UstorClient`] against a [`ServerEngine`] over any [`Server`]).
#[derive(Debug, Clone, Copy)]
pub struct Ustor;

/// USTOR messages travel the simulated link at their encoded size.
#[derive(Debug, Clone)]
pub struct UstorLinkMsg(UstorMsg);

impl MessageSize for UstorLinkMsg {
    fn size_bytes(&self) -> usize {
        self.0.encoded_len()
    }
}

impl Protocol for Ustor {
    type Client = UstorClient;
    type Server = ServerEngine;
    type Msg = UstorLinkMsg;
    type Completion = OpCompletion;
    type Fault = Fault;

    fn client(id: ClientId, n: usize, keypair: Keypair, registry: VerifierRegistry) -> UstorClient {
        UstorClient::new(id, n, keypair, registry)
    }

    fn begin_write(client: &mut UstorClient, value: Value) -> UstorLinkMsg {
        let submit = client.begin_write(value).expect("idle client can begin");
        UstorLinkMsg(UstorMsg::Submit(submit))
    }

    fn begin_read(client: &mut UstorClient, register: ClientId) -> UstorLinkMsg {
        let submit = client.begin_read(register).expect("idle client can begin");
        UstorLinkMsg(UstorMsg::Submit(submit))
    }

    fn answer(
        client: &mut UstorClient,
        msg: UstorLinkMsg,
    ) -> Option<Result<(Option<UstorLinkMsg>, OpCompletion), Fault>> {
        let UstorMsg::Reply(reply) = msg.0 else {
            return None; // only replies flow to clients
        };
        Some(
            client
                .handle_reply(reply)
                .map(|(commit, done)| (commit.map(|c| UstorLinkMsg(UstorMsg::Commit(c))), done)),
        )
    }

    fn record(done: &OpCompletion) -> (OpKind, Timestamp, Option<Value>) {
        (done.kind, done.timestamp, done.read_value.clone().flatten())
    }

    /// One closing [`ServerEngine::round`] per delivery — the round
    /// `faust serve` runs when its transport closes, so a group-commit
    /// server releases every held reply at once.
    fn serve(
        engine: &mut ServerEngine,
        from: ClientId,
        msg: UstorLinkMsg,
        mut send: impl FnMut(ClientId, UstorLinkMsg),
    ) {
        engine.enqueue(from, msg.0);
        engine.round(true, |to, batch| {
            for out in batch {
                send(to, UstorLinkMsg(out));
            }
        });
    }
}

/// Outcome of a simulated run.
#[derive(Debug)]
pub struct RunResult<P: Protocol = Ustor> {
    /// The recorded invocation/response history.
    pub history: History,
    /// Completions per client, in completion order.
    pub completions: Vec<Vec<P::Completion>>,
    /// Faults detected by clients (client, fault), by client.
    pub faults: Vec<(ClientId, P::Fault)>,
    /// Traffic statistics.
    pub metrics: faust_sim::Metrics,
    /// Virtual time when the run went quiescent.
    pub final_time: u64,
    /// Operations that never completed (crashed clients' in-flight ops,
    /// ops swallowed by a mute server, ops after a halt, and ops wedged
    /// behind a lock-step holder that crashed).
    pub incomplete_ops: usize,
}

impl<P: Protocol> RunResult<P> {
    /// Whether any client detected a server fault.
    pub fn detected_fault(&self) -> bool {
        !self.faults.is_empty()
    }
}

// Timer tags of the client nodes.
const RESUME_TAG: u64 = 1;
const RECONNECT_TAG: u64 = 2;
const CRASH_TAG: u64 = 3;

struct Slot<P: Protocol> {
    proto: P::Client,
    queue: VecDeque<WorkloadOp>,
    current: Option<OpId>,
    completions: Vec<P::Completion>,
    fault: Option<P::Fault>,
}

/// Drives `n` clients of protocol `P` against its server over the
/// simulated network.
///
/// # Example
///
/// ```
/// use faust_sim::SimConfig;
/// use faust_types::{ClientId, Value};
/// use faust_ustor::{Driver, UstorServer, WorkloadOp};
///
/// let mut driver = Driver::new(2, Box::new(UstorServer::new(2)), SimConfig::default(), b"ex");
/// driver.push_op(ClientId::new(0), WorkloadOp::Write(Value::from("v")));
/// driver.push_op(ClientId::new(1), WorkloadOp::Read(ClientId::new(0)));
/// let result = driver.run();
/// assert!(!result.detected_fault());
/// assert_eq!(result.incomplete_ops, 0);
/// ```
pub struct Driver<P: Protocol = Ustor> {
    n: usize,
    sim: Simulation<P::Msg>,
    server: P::Server,
    slots: Vec<Slot<P>>,
    history: History,
}

impl<P: Protocol> Driver<P> {
    /// Creates a driver for one client per key of `keys`, talking to
    /// `server`.
    pub fn with_keys(server: P::Server, sim: SimConfig, keys: &KeySet) -> Self {
        let n = keys.num_clients();
        let slots = (0..n)
            .map(|i| Slot {
                proto: P::client(
                    ClientId::new(i as u32),
                    n,
                    keys.keypair(i as u32).expect("generated").clone(),
                    keys.registry(),
                ),
                queue: VecDeque::new(),
                current: None,
                completions: Vec::new(),
                fault: None,
            })
            .collect();
        Driver {
            n,
            sim: Simulation::new(sim),
            server,
            slots,
            history: History::new(),
        }
    }

    fn server_node(&self) -> NodeId {
        NodeId(self.n as u32)
    }

    /// Appends one step to a client's script.
    pub fn push_op(&mut self, client: ClientId, op: WorkloadOp) {
        self.slots[client.index()].queue.push_back(op);
    }

    /// Appends a whole script for a client.
    pub fn push_ops(&mut self, client: ClientId, ops: impl IntoIterator<Item = WorkloadOp>) {
        self.slots[client.index()].queue.extend(ops);
    }

    /// Schedules `client` to crash at absolute virtual time `time` (call
    /// before [`Driver::run`]), whatever it is doing — including
    /// mid-operation while holding the lock-step protocol's global lock,
    /// the blocking scenario of experiment E7.
    pub fn crash_at(&mut self, client: ClientId, time: u64) {
        self.sim.set_timer(NodeId(client.as_u32()), time, CRASH_TAG);
    }

    /// Starts the next queued operation of client `i`, if it is idle.
    /// Never called for a crashed client: the simulation drops every
    /// timer and delivery addressed to one.
    fn try_start(&mut self, i: usize) {
        loop {
            let slot = &mut self.slots[i];
            if slot.fault.is_some() || slot.current.is_some() {
                return;
            }
            let Some(op) = slot.queue.pop_front() else {
                return;
            };
            let client_id = ClientId::new(i as u32);
            let node = NodeId(i as u32);
            let now = self.sim.now();
            let request = match op {
                WorkloadOp::Crash => {
                    self.sim.crash(node);
                    return;
                }
                WorkloadOp::Pause(ticks) => {
                    self.sim.set_timer(node, ticks, RESUME_TAG);
                    return;
                }
                WorkloadOp::Disconnect(ticks) => {
                    self.sim.set_connected(node, false);
                    self.sim.set_timer(node, ticks, RECONNECT_TAG);
                    continue;
                }
                WorkloadOp::Write(value) => {
                    slot.current = Some(self.history.begin_write(client_id, value.clone(), now));
                    P::begin_write(&mut slot.proto, value)
                }
                WorkloadOp::Read(register) => {
                    if register.index() >= self.n {
                        // Skip invalid script entries rather than panic.
                        continue;
                    }
                    slot.current = Some(self.history.begin_read(client_id, register, now));
                    P::begin_read(&mut slot.proto, register)
                }
            };
            let server = self.server_node();
            self.sim.send(node, server, request);
            return;
        }
    }

    /// Hands a server message to client `i` and sends its follow-up.
    fn client_receive(&mut self, i: usize, msg: P::Msg) {
        let now = self.sim.now();
        let slot = &mut self.slots[i];
        if slot.fault.is_some() {
            return;
        }
        match P::answer(&mut slot.proto, msg) {
            None => {}
            Some(Ok((follow_up, done))) => {
                if let Some(op_id) = slot.current.take() {
                    match P::record(&done) {
                        (OpKind::Write, ts, _) => self.history.complete_write(op_id, now, Some(ts)),
                        (OpKind::Read, ts, value) => {
                            self.history.complete_read(op_id, now, value, Some(ts))
                        }
                    }
                }
                slot.completions.push(done);
                if let Some(msg) = follow_up {
                    let server = self.server_node();
                    self.sim.send(NodeId(i as u32), server, msg);
                }
                self.try_start(i);
            }
            Some(Err(fault)) => {
                slot.fault = Some(fault);
                slot.current = None;
            }
        }
    }

    /// Runs the simulation to quiescence and returns the outcome.
    pub fn run(mut self) -> RunResult<P> {
        for i in 0..self.n {
            self.try_start(i);
        }
        let server = self.server_node();
        while let Some(ev) = self.sim.next() {
            match ev.event {
                Event::Timer { node, tag, .. } => {
                    let i = node.0 as usize;
                    match tag {
                        RESUME_TAG => self.try_start(i),
                        RECONNECT_TAG => self.sim.set_connected(node, true),
                        CRASH_TAG => self.sim.crash(node),
                        _ => {}
                    }
                }
                Event::Message { from, to, msg, .. } if to == server => {
                    let sim = &mut self.sim;
                    P::serve(&mut self.server, ClientId::new(from.0), msg, |rcpt, out| {
                        sim.send(server, NodeId(rcpt.as_u32()), out)
                    });
                }
                Event::Message { to, msg, .. } => self.client_receive(to.0 as usize, msg),
            }
        }

        let faults = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.fault.clone().map(|f| (ClientId::new(i as u32), f)))
            .collect();
        let incomplete_ops = self
            .history
            .ops()
            .iter()
            .filter(|o| !o.is_complete())
            .count();
        RunResult {
            incomplete_ops,
            faults,
            completions: self.slots.iter().map(|s| s.completions.clone()).collect(),
            metrics: self.sim.metrics().clone(),
            final_time: self.sim.now(),
            history: self.history,
        }
    }
}

impl Driver<Ustor> {
    /// Creates a USTOR driver for `n` clients talking to `server`. Keys
    /// are generated deterministically from `key_seed` under the HMAC
    /// fast path; [`Driver::new_with_scheme`] selects the scheme.
    pub fn new(n: usize, server: Box<dyn Server + Send>, sim: SimConfig, key_seed: &[u8]) -> Self {
        Self::new_with_scheme(n, server, sim, key_seed, SigScheme::Hmac)
    }

    /// [`Driver::new`] with an explicit signature scheme — the simulated
    /// stack runs identically over HMAC or Ed25519 keys, since protocol
    /// code only sees the `Signer`/`Verifier` traits.
    pub fn new_with_scheme(
        n: usize,
        server: Box<dyn Server + Send>,
        sim: SimConfig,
        key_seed: &[u8],
        scheme: SigScheme,
    ) -> Self {
        let keys = KeySet::generate_with(scheme, n, key_seed);
        Self::with_keys(ServerEngine::new(n, server), sim, &keys)
    }

    /// Switches every client to the given commit-transmission mode
    /// (Section 5 piggybacking optimization). Call before `run`.
    pub fn set_commit_mode(&mut self, mode: CommitMode) {
        for slot in &mut self.slots {
            slot.proto.set_commit_mode(mode);
        }
    }
}

/// Generates a reproducible random workload: `ops_per_client` operations
/// per client, each a write with probability `write_fraction` (else a
/// read of a uniformly random register).
pub fn random_workloads(
    n: usize,
    ops_per_client: usize,
    write_fraction: f64,
    seed: u64,
) -> Vec<Vec<WorkloadOp>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            (0..ops_per_client)
                .map(|seq| {
                    if rng.gen_bool(write_fraction) {
                        WorkloadOp::Write(Value::unique(i as u32, seq as u64))
                    } else {
                        WorkloadOp::Read(ClientId::new(rng.gen_index(n) as u32))
                    }
                })
                .collect()
        })
        .collect()
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::UstorServer;

    fn c(i: u32) -> ClientId {
        ClientId::new(i)
    }

    fn correct_driver(n: usize) -> Driver {
        Driver::new(
            n,
            Box::new(UstorServer::new(n)),
            SimConfig::default(),
            b"driver-tests",
        )
    }

    #[test]
    fn all_ops_complete_with_correct_server() {
        let mut d = correct_driver(3);
        for (i, w) in random_workloads(3, 10, 0.5, 1).into_iter().enumerate() {
            d.push_ops(c(i as u32), w);
        }
        let r = d.run();
        assert!(!r.detected_fault());
        assert_eq!(r.incomplete_ops, 0);
        assert_eq!(r.history.len(), 30);
        assert!(r.history.is_well_formed());
    }

    #[test]
    fn timestamps_are_monotone_per_client() {
        let mut d = correct_driver(2);
        for (i, w) in random_workloads(2, 20, 0.3, 7).into_iter().enumerate() {
            d.push_ops(c(i as u32), w);
        }
        let r = d.run();
        for comps in &r.completions {
            for pair in comps.windows(2) {
                assert!(pair[0].timestamp < pair[1].timestamp);
            }
        }
    }

    #[test]
    fn crashed_client_does_not_block_others() {
        let mut d = correct_driver(3);
        d.push_ops(
            c(0),
            vec![
                WorkloadOp::Write(Value::from("w0")),
                WorkloadOp::Crash,
                WorkloadOp::Write(Value::from("never")),
            ],
        );
        let mut workloads = random_workloads(2, 10, 0.5, 2).into_iter();
        d.push_ops(c(1), workloads.next().expect("two workloads"));
        d.push_ops(c(2), workloads.next().expect("two workloads"));
        let r = d.run();
        assert!(!r.detected_fault());
        // C1 and C2 finish everything; only C0's post-crash script is cut.
        assert_eq!(r.completions[1].len(), 10);
        assert_eq!(r.completions[2].len(), 10);
    }

    #[test]
    fn crash_mid_flight_leaves_op_incomplete_but_system_live() {
        let mut d = Driver::new(
            2,
            Box::new(UstorServer::new(2)),
            SimConfig {
                // Long link delay so the crash lands mid-operation.
                link_delay: faust_sim::DelayModel::Fixed(100),
                ..SimConfig::default()
            },
            b"crash-test",
        );
        d.push_ops(
            c(0),
            vec![WorkloadOp::Write(Value::from("w")), WorkloadOp::Crash],
        );
        d.push_ops(c(1), vec![WorkloadOp::Read(c(0)), WorkloadOp::Read(c(0))]);
        let r = d.run();
        assert!(!r.detected_fault());
        assert_eq!(r.completions[1].len(), 2);
    }

    #[test]
    fn disconnect_parks_replies_until_the_reconnect() {
        // C0 goes offline for 50 ticks and writes meanwhile: the server
        // answers at once, and the reply waits for the reconnect.
        let mut d = correct_driver(2);
        d.push_ops(
            c(0),
            vec![
                WorkloadOp::Disconnect(50),
                WorkloadOp::Write(Value::from("a")),
                WorkloadOp::Read(c(1)),
            ],
        );
        d.push_op(c(1), WorkloadOp::Write(Value::from("b")));
        let r = d.run();
        assert!(!r.detected_fault());
        assert_eq!(r.incomplete_ops, 0);
        let c0: Vec<_> = r.history.client_ops(c(0)).collect();
        assert_eq!(c0[0].invoked_at, 0);
        assert!(c0[0].responded_at > Some(50), "{:?}", c0[0]);
        // The offline client holds nobody up.
        let c1: Vec<_> = r.history.client_ops(c(1)).collect();
        assert!(c1[0].responded_at < Some(50), "{:?}", c1[0]);
    }

    #[test]
    fn crash_at_mid_operation_leaves_the_others_live() {
        // C0's reply is in flight (t = 10..20) when it crashes at t = 15.
        let mut d = Driver::new(
            3,
            Box::new(UstorServer::new(3)),
            SimConfig {
                link_delay: faust_sim::DelayModel::Fixed(10),
                ..SimConfig::default()
            },
            b"crash-at",
        );
        d.push_op(c(0), WorkloadOp::Write(Value::from("w")));
        for i in 1..3 {
            d.push_ops(c(i), random_workloads(3, 4, 0.5, 9).swap_remove(i as usize));
        }
        d.crash_at(c(0), 15);
        let r = d.run();
        assert!(!r.detected_fault());
        assert!(r.completions[0].is_empty());
        assert_eq!(r.incomplete_ops, 1);
        assert_eq!(r.completions[1].len() + r.completions[2].len(), 8);
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let mut d = correct_driver(3);
            for (i, w) in random_workloads(3, 8, 0.5, 3).into_iter().enumerate() {
                d.push_ops(c(i as u32), w);
            }
            let r = d.run();
            (r.final_time, r.metrics.link_messages_sent, r.history)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn piggyback_mode_saves_one_message_per_op() {
        // Section 5 ablation: with piggybacked commits, each op costs 2
        // link messages (SUBMIT with the previous COMMIT inside + REPLY)
        // instead of 3.
        let run = |mode| {
            let mut d = correct_driver(3);
            d.set_commit_mode(mode);
            for (i, w) in random_workloads(3, 10, 0.5, 5).into_iter().enumerate() {
                d.push_ops(c(i as u32), w);
            }
            d.run()
        };
        let imm = run(crate::client::CommitMode::Immediate);
        let pig = run(crate::client::CommitMode::Piggyback);
        assert!(!imm.detected_fault() && !pig.detected_fault());
        assert_eq!(imm.incomplete_ops, 0);
        assert_eq!(pig.incomplete_ops, 0);
        assert_eq!(imm.metrics.link_messages_sent, 3 * 30);
        // Piggyback: 2 per op, except each client's very first op has no
        // previous commit and its last commit is never sent at all.
        assert_eq!(pig.metrics.link_messages_sent, 2 * 30);
        // Same results either way.
        for (a, b) in imm.completions.iter().zip(&pig.completions) {
            let va: Vec<_> = a.iter().map(|x| (&x.read_value, x.timestamp)).collect();
            let vb: Vec<_> = b.iter().map(|x| (&x.read_value, x.timestamp)).collect();
            assert_eq!(va, vb);
        }
    }

    #[test]
    fn one_round_per_operation() {
        // Experiment E5: every operation costs exactly one SUBMIT, one
        // REPLY, and one COMMIT on the link.
        let mut d = correct_driver(2);
        d.push_ops(
            c(0),
            vec![WorkloadOp::Write(Value::from("a")), WorkloadOp::Read(c(1))],
        );
        d.push_ops(c(1), vec![WorkloadOp::Write(Value::from("b"))]);
        let r = d.run();
        // 3 ops × 3 messages.
        assert_eq!(r.metrics.link_messages_sent, 9);
    }
}
