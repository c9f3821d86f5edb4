//! Client-side redialing: how a session obtains a *fresh* connection.
//!
//! A [`crate::ClientTransport`] is one connection; when it dies (server
//! restart, network partition, reactor shed) the session needs a way to
//! get another one. [`ClientDialer`] is that factory — `faust-core`'s
//! `FaustHandle` holds one and, in auto-reconnect mode, redials through
//! it under its backoff policy. Two implementations:
//!
//! * [`TcpDialer`] — reconnects to a TCP endpoint with a per-attempt
//!   connect timeout. Each server restart is a fresh reactor
//!   incarnation, so its one-connection-per-id rule never blocks a
//!   cross-restart redial.
//! * [`ChannelDialer`] — hands out pre-built [`ClientConn`]s pushed by a
//!   test harness (one per simulated server incarnation); an empty queue
//!   behaves as a refused connection.

use crate::conn::{ClientConn, ClientTransport};
use faust_types::ClientId;
use std::net::SocketAddr;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::time::Duration;

/// A factory for fresh client connections, used by auto-reconnecting
/// sessions. Each call is one dial *attempt*: implementations must
/// return within roughly `timeout` so the caller's backoff schedule
/// stays honest.
pub trait ClientDialer: Send {
    /// Attempts to establish one new connection, giving up after about
    /// `timeout`.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] for a failed attempt (refused, timed out,
    /// unreachable); the caller backs off and retries.
    fn dial(&mut self, timeout: Duration) -> std::io::Result<Box<dyn ClientTransport>>;
}

/// Redials a TCP server endpoint as a fixed
/// client id, with a hard per-attempt connect timeout.
#[derive(Debug, Clone)]
pub struct TcpDialer {
    addr: SocketAddr,
    id: ClientId,
}

impl TcpDialer {
    /// A dialer that reconnects to `addr` as client `id`.
    pub fn new(addr: SocketAddr, id: ClientId) -> Self {
        TcpDialer { addr, id }
    }

    /// The endpoint this dialer targets.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl ClientDialer for TcpDialer {
    fn dial(&mut self, timeout: Duration) -> std::io::Result<Box<dyn ClientTransport>> {
        let conn = crate::tcp::connect_timeout(self.addr, self.id, timeout)?;
        Ok(Box::new(conn))
    }
}

/// A dialer fed by a test harness: each pushed [`ClientConn`] satisfies
/// exactly one dial attempt. With nothing queued, dialing fails like a
/// refused connection — which is what a killed in-process server looks
/// like.
pub struct ChannelDialer {
    incoming: Receiver<ClientConn>,
}

impl ChannelDialer {
    /// A dialer plus the sender the harness pushes fresh connections
    /// into (one per server incarnation).
    pub fn new() -> (Self, Sender<ClientConn>) {
        let (tx, incoming) = channel();
        (ChannelDialer { incoming }, tx)
    }
}

impl ClientDialer for ChannelDialer {
    fn dial(&mut self, _timeout: Duration) -> std::io::Result<Box<dyn ClientTransport>> {
        match self.incoming.try_recv() {
            Ok(conn) => Ok(Box::new(conn)),
            Err(TryRecvError::Empty) => Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "no server incarnation available",
            )),
            Err(TryRecvError::Disconnected) => Err(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "dialer source dropped",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_dialer_hands_out_pushed_conns_then_refuses() {
        let (mut dialer, tx) = ChannelDialer::new();
        let Err(err) = dialer.dial(Duration::from_millis(1)) else {
            panic!("nothing queued: must refuse");
        };
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);

        let (_server, mut conns) = crate::channel::pair(1);
        tx.send(conns.remove(0)).unwrap();
        let conn = dialer.dial(Duration::from_millis(1)).unwrap();
        assert_eq!(conn.id(), ClientId::new(0));

        drop(tx);
        let Err(err) = dialer.dial(Duration::from_millis(1)) else {
            panic!("source dropped: must fail");
        };
        assert_eq!(err.kind(), std::io::ErrorKind::NotConnected);
    }

    #[test]
    fn tcp_dialer_times_out_against_a_dead_endpoint() {
        // Bind-then-drop: the port is (very likely) unbound now, so the
        // dial must fail quickly rather than hang.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let mut dialer = TcpDialer::new(addr, ClientId::new(0));
        assert!(dialer.dial(Duration::from_millis(200)).is_err());
    }
}
