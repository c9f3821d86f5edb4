//! A client's connection to the server: one framed TCP socket.

use faust_types::frame::{frame_into, write_frame, FrameDecoder};
use faust_types::{ClientId, UstorMsg};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

/// The peer is gone: the server hung up, or the connection failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportClosed;

impl std::fmt::Display for TransportClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("transport closed")
    }
}

impl std::error::Error for TransportClosed {}

/// A client's duplex connection to the server: one TCP socket carrying
/// length-prefixed frames ([`faust_types::frame`]) both ways. Open one
/// with [`crate::tcp::connect`].
///
/// Frames are read on the caller's thread, straight from the socket into
/// a [`FrameDecoder`]: replies the client has not asked for yet wait in
/// the kernel's receive buffer, and a length prefix from the (untrusted)
/// server is checked against [`faust_types::MAX_FRAME_LEN`] before
/// anything is buffered for it. Every send is one `write_all` of a frame
/// built in a reused buffer (the socket runs `TCP_NODELAY`; the single
/// write is what keeps a frame in one segment, not Nagle).
///
/// Dropping the connection half-closes it and drains what is readable
/// before closing: a socket closed with unread bytes sends RST, which the
/// server would record as an I/O error instead of a departure.
pub struct ClientConn {
    id: ClientId,
    stream: TcpStream,
    decoder: FrameDecoder,
    send_buf: Vec<u8>,
    /// Whether the socket is in non-blocking mode (a zero-timeout
    /// receive sets it; a send or a timed receive clears it).
    nonblocking: bool,
    /// The `SO_RCVTIMEO` last set on the socket.
    read_timeout: Option<Duration>,
}

impl ClientConn {
    /// Sends the HELLO frame naming `id` on a fresh connection.
    pub(crate) fn handshake(mut stream: TcpStream, id: ClientId) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        write_frame(&mut stream, &id)?;
        Ok(ClientConn {
            id,
            stream,
            decoder: FrameDecoder::new(),
            send_buf: Vec::with_capacity(1024),
            nonblocking: false,
            read_timeout: None,
        })
    }

    /// The client this connection belongs to.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Sends one message to the server.
    ///
    /// # Errors
    ///
    /// [`TransportClosed`] if the server is no longer reachable.
    pub fn send(&mut self, msg: &UstorMsg) -> Result<(), TransportClosed> {
        self.set_nonblocking(false)?;
        self.send_buf.clear();
        frame_into(&mut self.send_buf, msg);
        self.stream
            .write_all(&self.send_buf)
            .map_err(|_| TransportClosed)
    }

    /// Blocks until the next message from the server.
    ///
    /// # Errors
    ///
    /// [`TransportClosed`] when the server has hung up (after every
    /// complete frame it sent has been delivered) or sent a frame that
    /// does not decode.
    pub fn recv(&mut self) -> Result<UstorMsg, TransportClosed> {
        loop {
            if let Some(msg) = self.recv_timeout(Duration::from_secs(3600))? {
                return Ok(msg);
            }
        }
    }

    /// The next message from the server: one already received if there
    /// is one, otherwise whatever a single read waiting at most `timeout`
    /// (not at all when it is zero) completes. `Ok(None)` when that read
    /// timed out or brought only part of a frame.
    ///
    /// # Errors
    ///
    /// [`TransportClosed`] when the server has hung up (after every
    /// complete frame it sent has been delivered) or sent a frame that
    /// does not decode.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<UstorMsg>, TransportClosed> {
        if let Some(msg) = self.next_frame()? {
            return Ok(Some(msg));
        }
        // std refuses a zero read timeout: a zero wait is a non-blocking read.
        if timeout.is_zero() {
            self.set_nonblocking(true)?;
        } else {
            self.set_nonblocking(false)?;
            if self.read_timeout != Some(timeout) {
                self.stream
                    .set_read_timeout(Some(timeout))
                    .map_err(|_| TransportClosed)?;
                self.read_timeout = Some(timeout);
            }
        }
        match self.decoder.read_from(&mut self.stream, usize::MAX) {
            Ok((0, _)) => Err(TransportClosed),
            Ok(_) => self.next_frame(),
            // Unix reports an expired read timeout as `WouldBlock`,
            // Windows as `TimedOut`.
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                Ok(None)
            }
            Err(_) => Err(TransportClosed),
        }
    }

    fn next_frame(&mut self) -> Result<Option<UstorMsg>, TransportClosed> {
        self.decoder.next_frame().map_err(|_| TransportClosed)
    }

    fn set_nonblocking(&mut self, on: bool) -> Result<(), TransportClosed> {
        if self.nonblocking != on {
            self.stream
                .set_nonblocking(on)
                .map_err(|_| TransportClosed)?;
            self.nonblocking = on;
        }
        Ok(())
    }
}

impl Drop for ClientConn {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Write);
        if self.stream.set_nonblocking(true).is_ok() {
            let mut scratch = [0u8; 4096];
            while matches!(self.stream.read(&mut scratch), Ok(n) if n > 0) {}
        }
    }
}
