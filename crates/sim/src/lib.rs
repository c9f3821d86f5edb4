//! Deterministic discrete-event simulator for the FAUST system model.
//!
//! The paper assumes an asynchronous distributed system with
//!
//! * reliable FIFO channels between each client and the server, and
//! * a reliable *offline* communication method between clients that
//!   eventually delivers messages even if the clients are never
//!   simultaneously connected (Figure 1).
//!
//! [`Simulation`] implements exactly that model under virtual time: the
//! harness pulls [`ScheduledEvent`]s one at a time and feeds them to the
//! protocol state machines, which in turn call [`Simulation::send`] /
//! [`Simulation::send_offline`] / [`Simulation::set_timer`]. Executions are
//! fully deterministic for a given seed, which makes protocol tests and
//! latency experiments reproducible bit-for-bit.
//!
//! Fault injection covers the paper's fault model: nodes can [crash]
//! (`crash-stop`), and clients can temporarily [disconnect] (the paper's
//! "clients are not simultaneously present"), during which incoming
//! traffic is buffered and flushed in order upon reconnection.
//!
//! [crash]: Simulation::crash
//! [disconnect]: Simulation::set_connected
//!
//! # Example
//!
//! ```
//! use faust_sim::{DelayModel, Event, SimConfig, Simulation, NodeId};
//!
//! let mut sim: Simulation<&'static str> = Simulation::new(SimConfig::default());
//! let (a, b) = (NodeId(0), NodeId(1));
//! sim.send(a, b, "hello");
//! let ev = sim.next().expect("one event pending");
//! match ev.event {
//!     Event::Message { from, to, msg, .. } => {
//!         assert_eq!((from, to, msg), (a, b, "hello"));
//!     }
//!     _ => unreachable!(),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod metrics;
pub mod rng;

pub use fault::{shrink, TimeWindow};
pub use metrics::Metrics;
pub use rng::SmallRng;

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Identifies a node (client or server) in the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// Identifies a pending timer, for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// Which transport carried a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// The reliable FIFO client↔server channel.
    Link,
    /// The reliable eventual-delivery client↔client offline channel.
    Offline,
}

/// Distribution of message delays, in virtual time ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayModel {
    /// Every message takes exactly this long.
    Fixed(u64),
    /// Delays drawn uniformly from `[lo, hi]`.
    Uniform(u64, u64),
}

impl DelayModel {
    fn sample(&self, rng: &mut SmallRng) -> u64 {
        match *self {
            DelayModel::Fixed(d) => d,
            DelayModel::Uniform(lo, hi) => rng.gen_range_inclusive(lo, hi),
        }
    }
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// RNG seed; equal seeds yield identical executions.
    pub seed: u64,
    /// Delay of client↔server link messages.
    pub link_delay: DelayModel,
    /// Delay of offline client↔client messages (typically much larger).
    pub offline_delay: DelayModel,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            link_delay: DelayModel::Fixed(1),
            offline_delay: DelayModel::Fixed(50),
        }
    }
}

/// Something the simulation can hand back to the harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<M> {
    /// A message delivery.
    Message {
        /// Sender node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
        /// The payload.
        msg: M,
        /// Which transport carried it.
        transport: Transport,
    },
    /// A timer set by `node` fired.
    Timer {
        /// The node whose timer fired.
        node: NodeId,
        /// The caller-chosen tag identifying the timer's purpose.
        tag: u64,
        /// The timer's id (as returned by [`Simulation::set_timer`]).
        id: TimerId,
    },
}

/// An [`Event`] stamped with its virtual delivery time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<M> {
    /// Virtual time at which the event occurs.
    pub time: u64,
    /// The event itself.
    pub event: Event<M>,
}

/// Reports the wire size of a message, for the traffic metrics.
///
/// Implemented by the protocol's message enums; the blanket size of `0`
/// can be avoided by implementing this precisely (the `O(n)` experiment
/// does).
pub trait MessageSize {
    /// Encoded size in bytes.
    fn size_bytes(&self) -> usize;
}

impl MessageSize for &'static str {
    fn size_bytes(&self) -> usize {
        self.len()
    }
}

enum Payload<M> {
    Message {
        from: NodeId,
        to: NodeId,
        msg: M,
        transport: Transport,
    },
    Timer {
        node: NodeId,
        tag: u64,
        id: TimerId,
    },
}

struct QueueEntry<M> {
    time: u64,
    seq: u64,
    payload: Payload<M>,
}

impl<M> PartialEq for QueueEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for QueueEntry<M> {}
impl<M> PartialOrd for QueueEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for QueueEntry<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The deterministic event-driven network.
///
/// Generic over the message type `M`; the protocol harness defines its own
/// message enum and drives the loop:
///
/// ```text
/// while let Some(ev) = sim.next() {
///     match ev.event { ... dispatch to state machines ... }
/// }
/// ```
pub struct Simulation<M> {
    now: u64,
    seq: u64,
    next_timer: u64,
    queue: BinaryHeap<Reverse<QueueEntry<M>>>,
    /// Enforces FIFO per ordered (from, to) link: the next delivery on a
    /// link never precedes an earlier one.
    link_clock: HashMap<(NodeId, NodeId), u64>,
    crashed: std::collections::HashSet<NodeId>,
    disconnected: std::collections::HashSet<NodeId>,
    /// Traffic buffered for disconnected nodes, in arrival order.
    parked: HashMap<NodeId, VecDeque<(NodeId, M, Transport)>>,
    cancelled: std::collections::HashSet<u64>,
    rng: SmallRng,
    config: SimConfig,
    metrics: Metrics,
}

impl<M: MessageSize> Simulation<M> {
    /// Creates a simulation with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        Simulation {
            now: 0,
            seq: 0,
            next_timer: 0,
            queue: BinaryHeap::new(),
            link_clock: HashMap::new(),
            crashed: Default::default(),
            disconnected: Default::default(),
            parked: HashMap::new(),
            cancelled: Default::default(),
            rng: SmallRng::seed_from_u64(config.seed),
            config,
            metrics: Metrics::default(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Traffic statistics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Sends `msg` on the reliable FIFO link from `from` to `to`.
    ///
    /// Delivery is never reordered relative to other messages on the same
    /// `(from, to)` link, regardless of sampled delays.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        let delay = self.config.link_delay.sample(&mut self.rng);
        self.enqueue_message(from, to, msg, Transport::Link, delay);
    }

    /// Sends `msg` on the offline channel (reliable, eventual, typically
    /// slow). Order on this channel is also FIFO per pair, which is
    /// stronger than the paper requires but harmless.
    pub fn send_offline(&mut self, from: NodeId, to: NodeId, msg: M) {
        let delay = self.config.offline_delay.sample(&mut self.rng);
        self.enqueue_message(from, to, msg, Transport::Offline, delay);
    }

    fn enqueue_message(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: M,
        transport: Transport,
        delay: u64,
    ) {
        if self.crashed.contains(&from) {
            return; // a crashed node takes no further steps
        }
        self.metrics.record_send(transport, msg.size_bytes());
        let clock = self.link_clock.entry((from, to)).or_insert(0);
        let at = (self.now + delay).max(*clock + 1);
        *clock = at;
        let seq = self.bump_seq();
        self.queue.push(Reverse(QueueEntry {
            time: at,
            seq,
            payload: Payload::Message {
                from,
                to,
                msg,
                transport,
            },
        }));
    }

    /// Schedules a timer at `node`, firing after `delay` ticks, carrying a
    /// caller-chosen `tag`.
    pub fn set_timer(&mut self, node: NodeId, delay: u64, tag: u64) -> TimerId {
        let id = TimerId(self.next_timer);
        self.next_timer += 1;
        let seq = self.bump_seq();
        self.queue.push(Reverse(QueueEntry {
            time: self.now + delay,
            seq,
            payload: Payload::Timer { node, tag, id },
        }));
        id
    }

    /// Cancels a pending timer. Cancelling an already-fired timer is a
    /// no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.cancelled.insert(id.0);
    }

    /// Permanently crashes a node: it receives no further events and its
    /// future sends are discarded. Messages already in flight *from* it
    /// may still be delivered (asynchronous network).
    pub fn crash(&mut self, node: NodeId) {
        self.crashed.insert(node);
    }

    /// Whether `node` has crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed.contains(&node)
    }

    /// Connects or disconnects a node. While disconnected, traffic to the
    /// node is parked; on reconnection it is delivered promptly, in
    /// arrival order. Models clients that are "not simultaneously
    /// present".
    pub fn set_connected(&mut self, node: NodeId, connected: bool) {
        if connected {
            if self.disconnected.remove(&node) {
                if let Some(parked) = self.parked.remove(&node) {
                    for (from, msg, transport) in parked {
                        // Re-deliver promptly; seq keeps arrival order. The
                        // link clock catches up with `now`, so a send
                        // after the reconnect ties at `now + 1` at the
                        // earliest and queues behind the parked frames.
                        let clock = self.link_clock.entry((from, node)).or_insert(0);
                        *clock = (*clock).max(self.now);
                        let seq = self.bump_seq();
                        self.queue.push(Reverse(QueueEntry {
                            time: self.now + 1,
                            seq,
                            payload: Payload::Message {
                                from,
                                to: node,
                                msg,
                                transport,
                            },
                        }));
                    }
                }
            }
        } else {
            self.disconnected.insert(node);
        }
    }

    /// Whether `node` is currently connected.
    pub fn is_connected(&self, node: NodeId) -> bool {
        !self.disconnected.contains(&node)
    }

    /// Every link frame sent and not yet delivered, queued or parked for
    /// a disconnected node, as `(from, to, msg)` in no particular order.
    /// Frames addressed to a crashed node are included; they will be
    /// dropped, never delivered.
    pub fn link_frames(&self) -> impl Iterator<Item = (NodeId, NodeId, &M)> {
        let queued = self
            .queue
            .iter()
            .filter_map(|Reverse(entry)| match &entry.payload {
                Payload::Message {
                    from,
                    to,
                    msg,
                    transport: Transport::Link,
                } => Some((*from, *to, msg)),
                _ => None,
            });
        let parked = self.parked.iter().flat_map(|(to, frames)| {
            frames
                .iter()
                .filter(|(_, _, transport)| *transport == Transport::Link)
                .map(move |(from, msg, _)| (*from, *to, msg))
        });
        queued.chain(parked)
    }

    /// Advances virtual time to the next event and returns it, or `None`
    /// when no more events can occur.
    pub fn next(&mut self) -> Option<ScheduledEvent<M>> {
        while let Some(Reverse(entry)) = self.queue.pop() {
            debug_assert!(entry.time >= self.now, "time went backwards");
            match entry.payload {
                Payload::Timer { node, tag, id } => {
                    if self.cancelled.remove(&id.0) || self.crashed.contains(&node) {
                        continue;
                    }
                    self.now = self.now.max(entry.time);
                    return Some(ScheduledEvent {
                        time: self.now,
                        event: Event::Timer { node, tag, id },
                    });
                }
                Payload::Message {
                    from,
                    to,
                    msg,
                    transport,
                } => {
                    if self.crashed.contains(&to) {
                        continue;
                    }
                    if self.disconnected.contains(&to) {
                        self.parked
                            .entry(to)
                            .or_default()
                            .push_back((from, msg, transport));
                        // Do not advance time for parked deliveries.
                        continue;
                    }
                    self.now = self.now.max(entry.time);
                    self.metrics.record_delivery(transport);
                    return Some(ScheduledEvent {
                        time: self.now,
                        event: Event::Message {
                            from,
                            to,
                            msg,
                            transport,
                        },
                    });
                }
            }
        }
        None
    }

    /// Runs the simulation to quiescence, discarding events. Useful in
    /// tests that only care about final state or metrics.
    pub fn drain(&mut self) {
        while self.next().is_some() {}
    }

    fn bump_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct TestMsg(u64);

    impl MessageSize for TestMsg {
        fn size_bytes(&self) -> usize {
            8
        }
    }

    fn sim(seed: u64, link: DelayModel) -> Simulation<TestMsg> {
        Simulation::new(SimConfig {
            seed,
            link_delay: link,
            offline_delay: DelayModel::Uniform(10, 100),
        })
    }

    fn drain_events(sim: &mut Simulation<TestMsg>) -> Vec<(u64, NodeId, NodeId, u64)> {
        let mut out = Vec::new();
        while let Some(ev) = sim.next() {
            if let Event::Message { from, to, msg, .. } = ev.event {
                out.push((ev.time, from, to, msg.0));
            }
        }
        out
    }

    #[test]
    fn fifo_per_link_despite_random_delays() {
        let mut s = sim(7, DelayModel::Uniform(1, 50));
        for i in 0..100 {
            s.send(NodeId(0), NodeId(1), TestMsg(i));
        }
        let seen: Vec<u64> = drain_events(&mut s).iter().map(|e| e.3).collect();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn independent_links_may_interleave_but_stay_fifo() {
        let mut s = sim(3, DelayModel::Uniform(1, 20));
        for i in 0..50 {
            s.send(NodeId(0), NodeId(2), TestMsg(i));
            s.send(NodeId(1), NodeId(2), TestMsg(1000 + i));
        }
        let events = drain_events(&mut s);
        let from0: Vec<u64> = events
            .iter()
            .filter(|e| e.1 == NodeId(0))
            .map(|e| e.3)
            .collect();
        let from1: Vec<u64> = events
            .iter()
            .filter(|e| e.1 == NodeId(1))
            .map(|e| e.3)
            .collect();
        assert_eq!(from0, (0..50).collect::<Vec<_>>());
        assert_eq!(from1, (1000..1050).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut s = sim(seed, DelayModel::Uniform(1, 30));
            for i in 0..20 {
                s.send(NodeId(i % 3), NodeId((i + 1) % 3), TestMsg(i as u64));
            }
            drain_events(&mut s)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43)); // different seeds shuffle delays
    }

    #[test]
    fn timers_fire_in_order_and_cancel() {
        let mut s = sim(0, DelayModel::Fixed(1));
        let _t1 = s.set_timer(NodeId(0), 10, 1);
        let t2 = s.set_timer(NodeId(0), 5, 2);
        let _t3 = s.set_timer(NodeId(0), 20, 3);
        s.cancel_timer(t2);
        let mut tags = Vec::new();
        while let Some(ev) = s.next() {
            if let Event::Timer { tag, .. } = ev.event {
                tags.push((ev.time, tag));
            }
        }
        assert_eq!(tags, vec![(10, 1), (20, 3)]);
    }

    #[test]
    fn crashed_node_receives_nothing_and_sends_nothing() {
        let mut s = sim(0, DelayModel::Fixed(1));
        s.send(NodeId(0), NodeId(1), TestMsg(1));
        s.crash(NodeId(1));
        s.send(NodeId(0), NodeId(1), TestMsg(2));
        s.send(NodeId(1), NodeId(0), TestMsg(3));
        assert!(drain_events(&mut s).is_empty());
        assert!(s.is_crashed(NodeId(1)));
    }

    #[test]
    fn timer_at_crashed_node_is_suppressed() {
        let mut s = sim(0, DelayModel::Fixed(1));
        s.set_timer(NodeId(0), 5, 9);
        s.crash(NodeId(0));
        assert!(s.next().is_none());
    }

    #[test]
    fn disconnect_parks_and_reconnect_flushes_in_order() {
        let mut s = sim(0, DelayModel::Fixed(1));
        s.set_connected(NodeId(1), false);
        for i in 0..5 {
            s.send(NodeId(0), NodeId(1), TestMsg(i));
        }
        // Nothing deliverable while disconnected.
        assert!(s.next().is_none());
        s.set_connected(NodeId(1), true);
        let seen: Vec<u64> = drain_events(&mut s).iter().map(|e| e.3).collect();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn link_frames_lists_queued_and_parked_link_traffic_only() {
        let mut s = sim(0, DelayModel::Fixed(1));
        s.set_connected(NodeId(1), false);
        s.send(NodeId(0), NodeId(1), TestMsg(1));
        s.send(NodeId(1), NodeId(0), TestMsg(2));
        s.send_offline(NodeId(0), NodeId(2), TestMsg(3));
        s.set_timer(NodeId(0), 50, 0);
        let frames = |s: &Simulation<TestMsg>| {
            let mut f: Vec<_> = s.link_frames().map(|(a, b, m)| (a.0, b.0, m.0)).collect();
            f.sort_unstable();
            f
        };
        assert_eq!(frames(&s), vec![(0, 1, 1), (1, 0, 2)]);
        // Frame 1 parks, frame 2 is delivered.
        assert!(matches!(
            s.next().map(|e| e.event),
            Some(Event::Message { .. })
        ));
        assert_eq!(frames(&s), vec![(0, 1, 1)]);
        s.drain();
        assert_eq!(frames(&s), vec![(0, 1, 1)], "still parked");
    }

    #[test]
    fn offline_messages_eventually_delivered() {
        let mut s = sim(5, DelayModel::Fixed(1));
        s.send_offline(NodeId(0), NodeId(2), TestMsg(77));
        let events = drain_events(&mut s);
        assert_eq!(events.len(), 1);
        assert!(events[0].0 >= 10, "offline delay should apply");
    }

    #[test]
    fn time_is_monotone() {
        let mut s = sim(11, DelayModel::Uniform(1, 40));
        for i in 0..30 {
            s.send(NodeId(0), NodeId(1), TestMsg(i));
            s.set_timer(NodeId(0), i * 2, i);
        }
        let mut last = 0;
        while let Some(ev) = s.next() {
            assert!(ev.time >= last);
            last = ev.time;
        }
    }

    #[test]
    fn metrics_count_sends_and_bytes() {
        let mut s = sim(0, DelayModel::Fixed(1));
        s.send(NodeId(0), NodeId(1), TestMsg(1));
        s.send_offline(NodeId(0), NodeId(1), TestMsg(2));
        let m = s.metrics();
        assert_eq!(m.link_messages_sent, 1);
        assert_eq!(m.offline_messages_sent, 1);
        assert_eq!(m.link_bytes_sent, 8);
        assert_eq!(m.offline_bytes_sent, 8);
        s.drain();
        assert_eq!(s.metrics().link_messages_delivered, 1);
        assert_eq!(s.metrics().offline_messages_delivered, 1);
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct M(u64);
    impl MessageSize for M {
        fn size_bytes(&self) -> usize {
            8
        }
    }

    #[test]
    fn timers_fire_while_disconnected() {
        // Disconnection parks messages only; local timers keep running
        // (a sleeping laptop still has a clock).
        let mut s: Simulation<M> = Simulation::new(SimConfig::default());
        s.set_connected(NodeId(0), false);
        s.set_timer(NodeId(0), 5, 1);
        let ev = s.next().expect("timer fires");
        assert!(matches!(ev.event, Event::Timer { tag: 1, .. }));
    }

    #[test]
    fn offline_message_to_crashed_node_dropped() {
        let mut s: Simulation<M> = Simulation::new(SimConfig::default());
        s.crash(NodeId(1));
        s.send_offline(NodeId(0), NodeId(1), M(1));
        assert!(s.next().is_none());
    }

    #[test]
    fn messages_parked_then_node_crashes_never_delivered() {
        let mut s: Simulation<M> = Simulation::new(SimConfig::default());
        s.set_connected(NodeId(1), false);
        s.send(NodeId(0), NodeId(1), M(1));
        assert!(s.next().is_none()); // parked
        s.crash(NodeId(1));
        s.set_connected(NodeId(1), true); // reconnect after crash
                                          // Delivery is re-scheduled but suppressed by the crash.
        assert!(s.next().is_none());
    }

    #[test]
    fn disconnect_reconnect_preserves_fifo_with_new_traffic() {
        let mut s: Simulation<M> = Simulation::new(SimConfig {
            seed: 5,
            link_delay: DelayModel::Fixed(1),
            offline_delay: DelayModel::Fixed(10),
        });
        s.set_connected(NodeId(1), false);
        s.send(NodeId(0), NodeId(1), M(1));
        s.send(NodeId(0), NodeId(1), M(2));
        assert!(s.next().is_none());
        s.set_connected(NodeId(1), true);
        // New message sent after reconnection.
        s.send(NodeId(0), NodeId(1), M(3));
        let mut seen = Vec::new();
        while let Some(ev) = s.next() {
            if let Event::Message { msg, .. } = ev.event {
                seen.push(msg.0);
            }
        }
        assert_eq!(seen, vec![1, 2, 3], "parked traffic flushes before new");
    }

    #[test]
    fn reconnect_with_zero_delay_keeps_parked_frames_ahead_of_new_sends() {
        let mut s: Simulation<M> = Simulation::new(SimConfig {
            seed: 0,
            link_delay: DelayModel::Fixed(0),
            offline_delay: DelayModel::Fixed(0),
        });
        s.set_connected(NodeId(1), false);
        s.send(NodeId(0), NodeId(1), M(1));
        s.send(NodeId(0), NodeId(1), M(2));
        s.set_timer(NodeId(0), 10, 0);
        // Both frames park; the timer moves time to 10.
        assert!(matches!(
            s.next().map(|e| e.event),
            Some(Event::Timer { .. })
        ));
        s.set_connected(NodeId(1), true);
        s.send(NodeId(0), NodeId(1), M(3));
        let mut seen = Vec::new();
        while let Some(ev) = s.next() {
            if let Event::Message { msg, .. } = ev.event {
                seen.push((ev.time, msg.0));
            }
        }
        assert_eq!(seen, vec![(11, 1), (11, 2), (11, 3)]);
    }

    #[test]
    fn zero_delay_messages_still_ordered() {
        let mut s: Simulation<M> = Simulation::new(SimConfig {
            seed: 0,
            link_delay: DelayModel::Fixed(0),
            offline_delay: DelayModel::Fixed(0),
        });
        for i in 0..10 {
            s.send(NodeId(0), NodeId(1), M(i));
        }
        let mut seen = Vec::new();
        while let Some(ev) = s.next() {
            if let Event::Message { msg, .. } = ev.event {
                seen.push(msg.0);
            }
        }
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }
}
