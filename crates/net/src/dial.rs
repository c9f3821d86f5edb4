//! Client-side redialing: how a session obtains a *fresh* connection.
//!
//! A [`ClientConn`] is one connection; when it dies (server restart,
//! network partition, reactor shed) the session needs a way to get
//! another one. [`ClientDialer`] is that factory — `faust-core`'s
//! `FaustHandle` holds one and, in auto-reconnect mode, redials through
//! it under its backoff policy. [`TcpDialer`] reconnects to a fixed TCP
//! endpoint with a per-attempt connect timeout. Each server restart is a
//! fresh reactor incarnation, so its one-connection-per-id rule never
//! blocks a cross-restart redial.

use crate::conn::ClientConn;
use faust_types::ClientId;
use std::net::SocketAddr;
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
    fn dial(&mut self, timeout: Duration) -> std::io::Result<ClientConn>;
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
}

impl ClientDialer for TcpDialer {
    fn dial(&mut self, timeout: Duration) -> std::io::Result<ClientConn> {
        crate::tcp::connect_timeout(self.addr, self.id, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
