//! Chaos-testing support: abrupt, externally-triggered server death.
//!
//! The kill-and-restart tests in `tests/client_api.rs` drain traffic
//! before stopping an incarnation — an orderly operator shutdown. Real
//! crashes are not orderly: the process dies *mid-conversation*, with
//! SUBMITs unanswered, replies half-flushed, and sockets severed under
//! the clients' feet. [`KillableTransport`] wraps any
//! [`ServerTransport`] so a test (or a chaos harness in CI) can inflict
//! exactly that from another thread via its [`KillSwitch`]:
//!
//! * once killed, every receive reports [`Incoming::Closed`] — from the
//!   serve loop's perspective the transport has torn down;
//! * every send after the kill is dropped on the floor — a dead process
//!   acknowledges nothing, so the engine's final courtesy flush (which a
//!   real crash would never run) stays invisible to clients;
//! * when the serve loop returns and the wrapper is dropped, the inner
//!   transport's sockets close and clients observe the disconnect.
//!
//! Blocking transports park in `recv` while the connection is quiet, so
//! the wrapper converts blocking receives into short deadline polls:
//! a kill takes effect within [`POLL_TICK`] even on an idle server.

use crate::{Incoming, ServerTransport};
use faust_types::{ClientId, UstorMsg};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often a [`KillableTransport`] re-checks its switch while the
/// wrapped transport is idle.
pub const POLL_TICK: Duration = Duration::from_millis(25);

/// The remote trigger for a [`KillableTransport`]: cloneable, sendable,
/// one-way. Once flipped it stays flipped — a killed incarnation never
/// comes back; recovery is a *new* transport for a *new* incarnation.
#[derive(Debug, Clone, Default)]
pub struct KillSwitch(Arc<AtomicBool>);

impl KillSwitch {
    /// A fresh, un-flipped switch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Severs the associated transport: subsequent receives report
    /// `Closed`, subsequent sends vanish. Idempotent.
    pub fn kill(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether [`KillSwitch::kill`] has been called.
    pub fn is_killed(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// A [`ServerTransport`] that can be severed from outside the serve
/// loop, simulating a server process dying mid-conversation. See the
/// module docs for the exact semantics.
pub struct KillableTransport<T> {
    inner: T,
    switch: KillSwitch,
}

impl<T: ServerTransport> KillableTransport<T> {
    /// Wraps `inner`, returning the transport and the switch that kills
    /// it.
    pub fn new(inner: T) -> (Self, KillSwitch) {
        let switch = KillSwitch::new();
        let killable = KillableTransport {
            inner,
            switch: switch.clone(),
        };
        (killable, switch)
    }
}

impl<T: ServerTransport> ServerTransport for KillableTransport<T> {
    fn recv(&mut self) -> Incoming {
        // Never park indefinitely: poll so the kill is honoured even
        // when every client is quiet.
        loop {
            if self.switch.is_killed() {
                return Incoming::Closed;
            }
            match self.inner.recv_deadline(Instant::now() + POLL_TICK) {
                Incoming::TimedOut => continue,
                other => return other,
            }
        }
    }

    fn recv_deadline(&mut self, deadline: Instant) -> Incoming {
        loop {
            if self.switch.is_killed() {
                return Incoming::Closed;
            }
            let tick = (Instant::now() + POLL_TICK).min(deadline);
            match self.inner.recv_deadline(tick) {
                Incoming::TimedOut if Instant::now() < deadline => continue,
                other => return other,
            }
        }
    }

    fn try_recv(&mut self) -> Incoming {
        if self.switch.is_killed() {
            return Incoming::Closed;
        }
        self.inner.try_recv()
    }

    fn send(&mut self, to: ClientId, msg: UstorMsg) {
        if !self.switch.is_killed() {
            self.inner.send(to, msg);
        }
    }

    fn send_batch(&mut self, to: ClientId, msgs: Vec<UstorMsg>) {
        if !self.switch.is_killed() {
            self.inner.send_batch(to, msgs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QueueTransport;

    #[test]
    fn kill_closes_receives_and_swallows_sends() {
        let mut q = QueueTransport::new();
        q.push_incoming(ClientId::new(0), dummy_msg());
        let (mut t, switch) = KillableTransport::new(q);

        // Alive: traffic flows both ways.
        assert!(matches!(t.try_recv(), Incoming::Msg(_, _)));
        t.send(ClientId::new(0), dummy_msg());

        switch.kill();
        assert!(switch.is_killed());
        assert!(matches!(t.try_recv(), Incoming::Closed));
        assert!(matches!(t.recv(), Incoming::Closed));
        // Sends after death vanish: only the pre-kill reply is queued.
        t.send(ClientId::new(0), dummy_msg());
        t.send_batch(ClientId::new(0), vec![dummy_msg(), dummy_msg()]);
        assert_eq!(t.inner.drain_outgoing().count(), 1);
    }

    fn dummy_msg() -> UstorMsg {
        UstorMsg::Commit(faust_types::CommitMsg {
            version: faust_types::Version::initial(1),
            commit_sig: faust_crypto::Signature::garbage(),
            proof_sig: faust_crypto::Signature::garbage(),
        })
    }
}
