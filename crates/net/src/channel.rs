//! In-process channel transport: `std::sync::mpsc` queues between client
//! threads and the engine thread. All clients share one sender into the
//! engine's inbox, and each client owns a private reply queue.

use crate::conn::{ClientConn, ConnSender, SenderInner};
use crate::{Incoming, ServerTransport};
use faust_types::{ClientId, UstorMsg};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Instant;

/// Server side of the in-process channel transport.
pub struct ChannelServerTransport {
    rx: Receiver<(ClientId, UstorMsg)>,
    txs: Vec<Sender<UstorMsg>>,
}

impl ServerTransport for ChannelServerTransport {
    fn recv(&mut self) -> Incoming {
        match self.rx.recv() {
            Ok((from, msg)) => Incoming::Msg(from, msg),
            // All client connections dropped.
            Err(_) => Incoming::Closed,
        }
    }

    fn recv_deadline(&mut self, deadline: Instant) -> Incoming {
        let timeout = deadline.saturating_duration_since(Instant::now());
        match self.rx.recv_timeout(timeout) {
            Ok((from, msg)) => Incoming::Msg(from, msg),
            Err(RecvTimeoutError::Timeout) => Incoming::TimedOut,
            Err(RecvTimeoutError::Disconnected) => Incoming::Closed,
        }
    }

    fn try_recv(&mut self) -> Incoming {
        match self.rx.try_recv() {
            Ok((from, msg)) => Incoming::Msg(from, msg),
            Err(std::sync::mpsc::TryRecvError::Empty) => Incoming::Idle,
            Err(std::sync::mpsc::TryRecvError::Disconnected) => Incoming::Closed,
        }
    }

    fn send(&mut self, to: ClientId, msg: UstorMsg) {
        if let Some(tx) = self.txs.get(to.index()) {
            // A departed client only means the run is ending.
            let _ = tx.send(msg);
        }
    }
}

/// Builds the channel transport for `n` clients: the server half plus one
/// [`ClientConn`] per client.
///
/// # Example
///
/// ```
/// let (_server, conns) = faust_net::channel::pair(2);
/// assert_eq!(conns.len(), 2);
/// ```
pub fn pair(n: usize) -> (ChannelServerTransport, Vec<ClientConn>) {
    let (inbox_tx, inbox_rx) = channel();
    let mut txs = Vec::with_capacity(n);
    let mut conns = Vec::with_capacity(n);
    for i in 0..n {
        let id = ClientId::new(i as u32);
        let (reply_tx, reply_rx) = channel();
        txs.push(reply_tx);
        conns.push(ClientConn {
            id,
            tx: ConnSender(SenderInner::Channel {
                id,
                tx: inbox_tx.clone(),
            }),
            rx: reply_rx,
        });
    }
    (ChannelServerTransport { rx: inbox_rx, txs }, conns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faust_crypto::Signature;
    use faust_types::{CommitMsg, Version};

    fn msg(n: usize) -> UstorMsg {
        UstorMsg::Commit(CommitMsg {
            version: Version::initial(n),
            commit_sig: Signature::garbage(),
            proof_sig: Signature::garbage(),
        })
    }

    #[test]
    fn roundtrip_and_close() {
        let (mut server, mut conns) = pair(2);
        conns[0].send(&msg(2)).unwrap();
        let Incoming::Msg(from, _) = server.recv() else {
            panic!("expected message");
        };
        assert_eq!(from, ClientId::new(0));
        server.send(ClientId::new(0), msg(2));
        assert!(conns[0].recv().is_ok());
        // Dropping every conn closes the transport.
        conns.clear();
        assert!(matches!(server.recv(), Incoming::Closed));
    }

    #[test]
    fn send_to_departed_client_is_dropped() {
        let (mut server, mut conns) = pair(2);
        conns.remove(1); // client 1 leaves
        server.send(ClientId::new(1), msg(2)); // must not panic
        conns[0].send(&msg(2)).unwrap();
        assert!(matches!(server.recv(), Incoming::Msg(..)));
    }
}
