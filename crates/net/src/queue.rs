//! Deterministic queue-pair transport: a [`ServerTransport`] with no
//! threads and no sockets.
//!
//! A caller that runs the serve loop itself pushes each inbound message
//! ([`QueueTransport::push_incoming`]), lets the engine drain the
//! transport, and then takes everything the engine emitted
//! ([`QueueTransport::drain_outgoing`]). The `faustbench` harness uses it
//! as the in-process link of its no-socket workloads. Single-threaded and
//! allocation-light, so runs over it are bit-for-bit reproducible.

use crate::{Incoming, ServerTransport};
use faust_types::{ClientId, UstorMsg};
use std::collections::VecDeque;

/// FIFO queue pair implementing [`ServerTransport`] without threads.
#[derive(Debug, Default)]
pub struct QueueTransport {
    incoming: VecDeque<(ClientId, UstorMsg)>,
    outgoing: VecDeque<(ClientId, UstorMsg)>,
}

impl QueueTransport {
    /// Creates an empty queue pair.
    pub fn new() -> Self {
        QueueTransport::default()
    }

    /// Enqueues a message delivered by the surrounding harness.
    pub fn push_incoming(&mut self, from: ClientId, msg: UstorMsg) {
        self.incoming.push_back((from, msg));
    }

    /// Removes the next engine output, if any.
    pub fn pop_outgoing(&mut self) -> Option<(ClientId, UstorMsg)> {
        self.outgoing.pop_front()
    }

    /// Drains every engine output in emission order.
    pub fn drain_outgoing(&mut self) -> impl Iterator<Item = (ClientId, UstorMsg)> + '_ {
        self.outgoing.drain(..)
    }
}

impl ServerTransport for QueueTransport {
    fn recv(&mut self) -> Incoming {
        match self.incoming.pop_front() {
            Some((from, msg)) => Incoming::Msg(from, msg),
            None => Incoming::Idle,
        }
    }

    fn try_recv(&mut self) -> Incoming {
        self.recv()
    }

    fn send(&mut self, to: ClientId, msg: UstorMsg) {
        self.outgoing.push_back((to, msg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faust_types::{CommitMsg, SignedVersion, Version};

    fn commit(n: usize) -> UstorMsg {
        let v = Version::initial(n);
        let sig = SignedVersion::initial(n).sig;
        let _ = sig;
        UstorMsg::Commit(CommitMsg {
            version: v,
            commit_sig: faust_crypto::Signature::garbage(),
            proof_sig: faust_crypto::Signature::garbage(),
        })
    }

    #[test]
    fn fifo_in_both_directions() {
        let mut q = QueueTransport::new();
        q.push_incoming(ClientId::new(0), commit(2));
        q.push_incoming(ClientId::new(1), commit(2));
        let Incoming::Msg(first, _) = q.recv() else {
            panic!("expected message");
        };
        assert_eq!(first, ClientId::new(0));
        let Incoming::Msg(second, _) = q.recv() else {
            panic!("expected message");
        };
        assert_eq!(second, ClientId::new(1));
        assert!(matches!(q.recv(), Incoming::Idle));

        q.send(ClientId::new(1), commit(2));
        q.send(ClientId::new(0), commit(2));
        let order: Vec<ClientId> = q.drain_outgoing().map(|(to, _)| to).collect();
        assert_eq!(order, vec![ClientId::new(1), ClientId::new(0)]);
    }
}
