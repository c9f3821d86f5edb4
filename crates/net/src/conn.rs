//! The client-side handle of a transport.

use faust_types::frame::frame_into;
use faust_types::{ClientId, UstorMsg};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A TCP socket that is shut down (not merely closed) when the last
/// handle drops.
///
/// The reader thread keeps a `try_clone`d file descriptor, so just
/// dropping the writer would never send FIN — the peer would wait
/// forever. `shutdown` acts on the socket itself: the peer sees EOF and
/// the local reader thread's blocking `read` returns 0.
pub(crate) struct OwnedStream(pub(crate) TcpStream);

impl Drop for OwnedStream {
    fn drop(&mut self) {
        let _ = self.0.shutdown(Shutdown::Both);
    }
}

/// The write half of a client's TCP connection: the socket plus a reused
/// frame buffer, so every send is exactly one allocation-free `write_all`
/// (the sockets run `TCP_NODELAY`; the explicit single write is what
/// keeps a frame in one segment, not Nagle).
pub(crate) struct TcpWriter {
    pub(crate) stream: OwnedStream,
    buf: Vec<u8>,
}

impl TcpWriter {
    pub(crate) fn new(stream: TcpStream) -> Self {
        TcpWriter {
            stream: OwnedStream(stream),
            buf: Vec::with_capacity(1024),
        }
    }

    fn send(&mut self, msg: &UstorMsg) -> std::io::Result<()> {
        self.buf.clear();
        frame_into(&mut self.buf, msg);
        self.stream.0.write_all(&self.buf)
    }
}

/// Client side of a transport: a duplex connection to one server, however
/// the bytes travel. The mirror of [`crate::ServerTransport`]: the same
/// two concrete transports back both sides (in-process channels and
/// framed TCP), and anything driving a client session — `faust-core`'s
/// `FaustHandle`, the CLI — programs against this
/// trait, so it runs over either unchanged.
///
/// [`ClientConn`] implements it for both built-in transports; custom
/// transports (an in-memory loopback in tests, a proxied stream) only
/// need these three methods.
pub trait ClientTransport: Send {
    /// The client this connection authenticates as (transport-level
    /// identification, not authentication — see [`crate::tcp`]).
    fn id(&self) -> ClientId;

    /// Sends one message to the server.
    ///
    /// # Errors
    ///
    /// [`TransportClosed`] if the server is no longer reachable.
    fn send(&self, msg: &UstorMsg) -> Result<(), TransportClosed>;

    /// Waits up to `timeout` for a message from the server; `Ok(None)` on
    /// timeout.
    ///
    /// # Errors
    ///
    /// [`TransportClosed`] when the server has hung up and every buffered
    /// message has been consumed.
    fn recv_timeout(&self, timeout: Duration) -> Result<Option<UstorMsg>, TransportClosed>;

    /// Blocks until the next message from the server.
    ///
    /// # Errors
    ///
    /// [`TransportClosed`] when the server has hung up and every buffered
    /// message has been consumed.
    fn recv(&self) -> Result<UstorMsg, TransportClosed> {
        loop {
            if let Some(msg) = self.recv_timeout(Duration::from_secs(3600))? {
                return Ok(msg);
            }
        }
    }
}

impl ClientTransport for ClientConn {
    fn id(&self) -> ClientId {
        ClientConn::id(self)
    }

    fn send(&self, msg: &UstorMsg) -> Result<(), TransportClosed> {
        ClientConn::send(self, msg)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<UstorMsg>, TransportClosed> {
        ClientConn::recv_timeout(self, timeout)
    }

    fn recv(&self) -> Result<UstorMsg, TransportClosed> {
        ClientConn::recv(self)
    }
}

/// The peer is gone: the server hung up, or the connection failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportClosed;

impl std::fmt::Display for TransportClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("transport closed")
    }
}

impl std::error::Error for TransportClosed {}

pub(crate) enum SenderInner {
    /// In-process channel to the server's shared inbox.
    Channel {
        id: ClientId,
        tx: Sender<(ClientId, UstorMsg)>,
    },
    /// Framed writes on a TCP socket (shared with nobody but clones of
    /// this sender).
    Tcp { writer: Arc<Mutex<TcpWriter>> },
}

/// The sending half of a [`ClientConn`]; clonable so a runtime can keep a
/// handle while a forwarder thread owns the receiving half.
pub struct ConnSender(pub(crate) SenderInner);

impl Clone for ConnSender {
    fn clone(&self) -> Self {
        ConnSender(match &self.0 {
            SenderInner::Channel { id, tx } => SenderInner::Channel {
                id: *id,
                tx: tx.clone(),
            },
            SenderInner::Tcp { writer } => SenderInner::Tcp {
                writer: Arc::clone(writer),
            },
        })
    }
}

impl ConnSender {
    /// Sends one message to the server.
    ///
    /// # Errors
    ///
    /// [`TransportClosed`] if the server is no longer reachable.
    pub fn send(&self, msg: &UstorMsg) -> Result<(), TransportClosed> {
        match &self.0 {
            SenderInner::Channel { id, tx } => {
                tx.send((*id, msg.clone())).map_err(|_| TransportClosed)
            }
            SenderInner::Tcp { writer } => {
                let mut guard = writer.lock().map_err(|_| TransportClosed)?;
                guard.send(msg).map_err(|_| TransportClosed)
            }
        }
    }
}

/// A client's duplex connection to the server, independent of the
/// transport behind it.
///
/// Construct one with [`crate::channel::pair`] or [`crate::tcp::connect`].
/// Incoming messages always arrive through an in-process queue (the TCP
/// implementation pumps its socket from a reader thread), so receiving
/// with a timeout is uniformly cheap.
pub struct ClientConn {
    pub(crate) id: ClientId,
    pub(crate) tx: ConnSender,
    pub(crate) rx: Receiver<UstorMsg>,
}

impl ClientConn {
    /// The client this connection belongs to.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Sends one message to the server.
    ///
    /// # Errors
    ///
    /// [`TransportClosed`] if the server is no longer reachable.
    pub fn send(&self, msg: &UstorMsg) -> Result<(), TransportClosed> {
        self.tx.send(msg)
    }

    /// Blocks until the next message from the server.
    ///
    /// # Errors
    ///
    /// [`TransportClosed`] when the server has hung up and the queue is
    /// drained.
    pub fn recv(&self) -> Result<UstorMsg, TransportClosed> {
        self.rx.recv().map_err(|_| TransportClosed)
    }

    /// Waits up to `timeout` for a message; `Ok(None)` on timeout.
    ///
    /// # Errors
    ///
    /// [`TransportClosed`] when the server has hung up and the queue is
    /// drained.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<UstorMsg>, TransportClosed> {
        match self.rx.recv_timeout(timeout) {
            Ok(msg) => Ok(Some(msg)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(TransportClosed),
        }
    }

    /// Splits into the clonable sender and the raw receiver, for runtimes
    /// that pump incoming messages from a dedicated thread.
    pub fn split(self) -> (ConnSender, Receiver<UstorMsg>) {
        (self.tx, self.rx)
    }
}
