//! Client side of the length-prefixed TCP transport over `std::net`.
//!
//! Frames use the stream framing of [`faust_types::frame`]: a 4-byte
//! big-endian length followed by the exact wire encoding of the message.
//! A connection starts with a single HELLO frame carrying the client's
//! [`ClientId`]. The server side is the [`reactor`](crate::reactor).
//!
//! The HELLO is *identification, not authentication*: USTOR's security
//! argument never trusts the server or the channel — every statement that
//! matters is client-signed and re-verified by clients. A peer that lies
//! about its id can at worst submit messages whose signatures do not
//! verify, which the per-client checks (and the engine's optional ingress
//! verification) reject.
//!
//! [`connect`] starts no thread: the [`ClientConn`] it returns reads
//! its socket on the caller's thread.

use crate::conn::ClientConn;
use faust_types::ClientId;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Connects to a server transport as client `id` and performs the HELLO
/// handshake.
///
/// # Errors
///
/// Propagates socket errors from connecting or the handshake write.
pub fn connect(addr: SocketAddr, id: ClientId) -> std::io::Result<ClientConn> {
    ClientConn::handshake(TcpStream::connect(addr)?, id)
}

/// Like [`connect`], but gives up on the TCP handshake after `timeout` —
/// the per-attempt bound an auto-reconnecting client's backoff schedule
/// needs (a plain `connect` against a black-holed address can block for
/// minutes).
///
/// # Errors
///
/// Propagates socket errors from connecting or the handshake write,
/// including [`std::io::ErrorKind::TimedOut`].
pub fn connect_timeout(
    addr: SocketAddr,
    id: ClientId,
    timeout: Duration,
) -> std::io::Result<ClientConn> {
    ClientConn::handshake(TcpStream::connect_timeout(&addr, timeout)?, id)
}

/// The client side against the reactor: what a [`ClientConn`] from
/// [`connect`] observes. (The reactor's own tests of the same names check
/// the server side of each exchange.)
#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::conn::TransportClosed;
    use crate::{Incoming, ReactorTransport, ServerTransport};
    use faust_crypto::Signature;
    use faust_types::{CommitMsg, UstorMsg, Version};
    use std::time::Instant;

    pub(super) fn msg(n: usize) -> UstorMsg {
        UstorMsg::Commit(CommitMsg {
            version: Version::initial(n),
            commit_sig: Signature::garbage(),
            proof_sig: Signature::garbage(),
        })
    }

    /// Pumps `server` until `done` holds, failing after five seconds.
    pub(super) fn pump_until(
        server: &mut ReactorTransport,
        done: impl Fn(&ReactorTransport) -> bool,
    ) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done(server) {
            assert!(Instant::now() < deadline, "reactor never got there");
            let _ = server.recv_deadline(Instant::now() + Duration::from_millis(20));
        }
    }

    #[test]
    fn loopback_roundtrip_and_close() {
        let mut server = ReactorTransport::bind("127.0.0.1:0", 2).unwrap();
        let addr = server.local_addr();
        let mut c0 = connect(addr, ClientId::new(0)).unwrap();
        let mut c1 = connect(addr, ClientId::new(1)).unwrap();
        assert_eq!((c0.id(), c1.id()), (ClientId::new(0), ClientId::new(1)));

        // Each client is answered on its own connection.
        for (id, conn) in [(0, &mut c0), (1, &mut c1)] {
            conn.send(&msg(2)).unwrap();
            let Incoming::Msg(from, _) = server.recv() else {
                panic!("expected a message");
            };
            assert_eq!(from, ClientId::new(id));
            server.send(from, msg(3 + id as usize));
            assert_eq!(conn.recv(), Ok(msg(3 + id as usize)));
        }

        // The server going away is a clean `TransportClosed`, not a hang.
        drop(server);
        assert_eq!(c0.recv(), Err(TransportClosed));
        assert_eq!(
            c1.recv_timeout(Duration::from_secs(5)),
            Err(TransportClosed)
        );
    }

    #[test]
    fn send_batch_coalesces_but_delivers_every_frame_in_order() {
        let mut server = ReactorTransport::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr();
        let mut c0 = connect(addr, ClientId::new(0)).unwrap();
        c0.send(&msg(1)).unwrap();
        let Incoming::Msg(_, _) = server.recv() else {
            panic!("expected a message");
        };
        // One coalesced write carrying 5 distinct frames; the client's
        // reader must recover each one, in order.
        let batch: Vec<UstorMsg> = (1..=5).map(msg).collect();
        server.send_batch(ClientId::new(0), batch);
        assert_eq!(server.stats().socket_writes, 1);
        for n in 1..=5 {
            assert_eq!(c0.recv(), Ok(msg(n)));
        }
        drop(c0);
        assert!(matches!(server.recv(), Incoming::Closed));
    }

    #[test]
    fn recv_deadline_times_out_then_still_delivers() {
        let mut server = ReactorTransport::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr();
        let mut c0 = connect(addr, ClientId::new(0)).unwrap();
        c0.send(&msg(1)).unwrap();
        let Incoming::Msg(from, _) = server.recv() else {
            panic!("expected a message");
        };
        // Nothing in flight: the client's timeout elapses.
        assert_eq!(c0.recv_timeout(Duration::from_millis(20)), Ok(None));
        // A reply arrives well before a generous timeout.
        server.send(from, msg(1));
        assert_eq!(c0.recv_timeout(Duration::from_secs(5)), Ok(Some(msg(1))));
        drop(c0);
        assert!(matches!(server.recv(), Incoming::Closed));
    }

    #[test]
    fn bad_hello_is_rejected_but_good_clients_proceed() {
        let mut server = ReactorTransport::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr();
        // An out-of-range id: the handshake write succeeds locally, but
        // the server drops the connection.
        let mut bogus = connect(addr, ClientId::new(9)).unwrap();
        // A valid client still gets through afterwards.
        let mut good = connect(addr, ClientId::new(0)).unwrap();
        good.send(&msg(1)).unwrap();
        let Incoming::Msg(from, _) = server.recv() else {
            panic!("expected a message");
        };
        assert_eq!(from, ClientId::new(0));
        server.send(from, msg(1));
        assert!(good.recv().is_ok());
        pump_until(&mut server, |s| s.stats().bad_hellos == 1);
        assert_eq!(
            bogus.recv_timeout(Duration::from_secs(5)),
            Err(TransportClosed)
        );
        drop(good);
        assert!(matches!(server.recv(), Incoming::Closed));
    }

    #[test]
    fn dropping_with_unread_replies_is_a_clean_departure() {
        let mut server = ReactorTransport::bind("127.0.0.1:0", 1).unwrap();
        let mut c0 = connect(server.local_addr(), ClientId::new(0)).unwrap();
        c0.send(&msg(1)).unwrap();
        let Incoming::Msg(from, _) = server.recv() else {
            panic!("expected a message");
        };
        for n in 1..=3 {
            server.send(from, msg(n));
        }
        assert_eq!(server.buffered_bytes(), 0, "all three frames written");
        // None of them is read: a plain close would answer with RST.
        drop(c0);
        assert!(matches!(server.recv(), Incoming::Closed));
        assert_eq!(server.stats().departed, 1);
        assert_eq!(server.stats().io_errors, 0);
    }
}

#[cfg(all(test, unix))]
mod reconnect_tests {
    use super::tests::{msg, pump_until};
    use super::*;
    use crate::conn::TransportClosed;
    use crate::{Incoming, ReactorTransport, ServerTransport};

    #[test]
    fn reconnecting_client_cannot_consume_another_clients_slot() {
        let mut server = ReactorTransport::bind("127.0.0.1:0", 2).unwrap();
        let addr = server.local_addr();

        // Client 0 connects, talks, and leaves.
        let mut c0 = connect(addr, ClientId::new(0)).unwrap();
        c0.send(&msg(2)).unwrap();
        let Incoming::Msg(from, _) = server.recv() else {
            panic!("expected a message");
        };
        assert_eq!(from, ClientId::new(0));
        drop(c0);

        // Client 0 "reconnects": the duplicate is turned away, and its
        // connection reports the server's hangup.
        let mut again = connect(addr, ClientId::new(0)).unwrap();
        pump_until(&mut server, |s| s.stats().duplicate_clients == 1);
        assert_eq!(
            again.recv_timeout(Duration::from_secs(5)),
            Err(TransportClosed)
        );

        // Client 1 still gets in and is served.
        let mut c1 = connect(addr, ClientId::new(1)).unwrap();
        c1.send(&msg(2)).unwrap();
        let Incoming::Msg(from, _) = server.recv() else {
            panic!("expected client 1's message; transport closed early");
        };
        assert_eq!(from, ClientId::new(1));
        server.send(from, msg(2));
        assert!(c1.recv().is_ok());

        drop(again);
        drop(c1);
        assert!(matches!(server.recv(), Incoming::Closed));
    }
}
