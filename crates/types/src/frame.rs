//! Length-prefixed stream framing for [`Wire`] messages.
//!
//! The [`wire`](crate::wire) module defines the exact encoding of each
//! protocol message; this module turns those encodings into a *stream*
//! format usable over byte-oriented transports (TCP): every message is
//! prefixed with its big-endian `u32` length. A length prefix of more than
//! [`MAX_FRAME_LEN`] bytes is rejected before any allocation, so a hostile
//! peer cannot make a receiver balloon its memory.
//!
//! Two consumption styles are provided:
//!
//! * [`read_frame`] / [`write_frame`] — blocking `std::io` helpers for
//!   threads that own a socket;
//! * [`FrameDecoder`] — an incremental, `ReadBuf`-style decoder: feed it
//!   arbitrary byte chunks as they arrive ([`FrameDecoder::extend`]), or
//!   let it read a socket straight into its own buffer
//!   ([`FrameDecoder::read_from`]), and pull complete messages out
//!   ([`FrameDecoder::next_frame`]). Frames may be split at any byte
//!   boundary across chunks.

use crate::wire::{Wire, WireError};
use std::io::{self, Read, Write};

/// Upper bound on the payload length of a single frame (16 MiB).
pub const MAX_FRAME_LEN: u32 = 16 << 20;

/// Errors produced while decoding a framed stream.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed.
    Io(io::Error),
    /// A frame header announced an implausible length.
    Oversized(u32),
    /// A complete frame arrived but its payload was not a valid message.
    Malformed(WireError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::Oversized(n) => write!(f, "frame of {n} bytes exceeds limit"),
            FrameError::Malformed(e) => write!(f, "malformed frame payload: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Malformed(e)
    }
}

/// Encodes `msg` as one frame: 4-byte big-endian length, then the payload.
pub fn frame_bytes<T: Wire>(msg: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + msg.encoded_len());
    frame_into(&mut out, msg);
    out
}

/// Appends one frame to `out` without allocating a fresh buffer — the
/// building block for coalesced sends: encode many frames back to back
/// into one reused buffer, then hand the whole thing to a single
/// `write_all`.
pub fn frame_into<T: Wire>(out: &mut Vec<u8>, msg: &T) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    msg.encode_into(out);
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_be_bytes());
}

/// Writes one framed message to `w` and flushes.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_frame<W: Write, T: Wire>(w: &mut W, msg: &T) -> io::Result<()> {
    w.write_all(&frame_bytes(msg))?;
    w.flush()
}

/// Reads one framed message from `r`.
///
/// Returns `Ok(None)` on a clean end of stream (EOF exactly at a frame
/// boundary); EOF in the middle of a frame is an error.
///
/// # Errors
///
/// Returns a [`FrameError`] on I/O failure, an oversized header, or a
/// payload that does not decode.
pub fn read_frame<R: Read, T: Wire>(r: &mut R) -> Result<Option<T>, FrameError> {
    let mut header = [0u8; 4];
    // Distinguish clean EOF (no header at all) from a truncated header.
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame header",
                )))
            }
            n => filled += n,
        }
    }
    let len = u32::from_be_bytes(header);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(T::decode(&payload)?))
}

/// Incremental frame decoder: accumulates arbitrarily split byte chunks and
/// yields complete messages.
///
/// # Example
///
/// ```
/// use faust_types::frame::{frame_bytes, FrameDecoder};
/// use faust_types::Wire;
///
/// let encoded = frame_bytes(&7u64);
/// let mut dec: FrameDecoder = FrameDecoder::new();
/// // Feed the frame one byte at a time.
/// for b in &encoded {
///     dec.extend(std::slice::from_ref(b));
/// }
/// let got: Option<u64> = dec.next_frame().unwrap();
/// assert_eq!(got, Some(7));
/// ```
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Initialised throughout: `start..end` is live, `end..` is spare
    /// room a read can land in without anything being zero-filled first.
    buf: Vec<u8>,
    /// Read cursor; consumed bytes are compacted lazily.
    start: usize,
    /// End of the received bytes.
    end: usize,
}

/// The least spare room [`FrameDecoder::read_from`] offers a read. The
/// buffer doubles whenever less is left, so it tracks the data actually
/// in flight and a connection that only ever sees small frames stays at
/// this size.
const MIN_READ_ROOM: usize = 4096;

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Makes `end..` at least `room` bytes long: for free when nothing
    /// is pending, by moving the live bytes to the front when that is
    /// enough, by growing (at least doubling) otherwise.
    fn make_room(&mut self, room: usize) {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        if self.buf.len() - self.end >= room {
            return;
        }
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() - self.end < room {
            let len = (self.end + room).max(self.buf.len() * 2);
            self.buf.resize(len, 0);
        }
    }

    /// Appends newly received bytes.
    pub fn extend(&mut self, chunk: &[u8]) {
        self.make_room(chunk.len());
        self.buf[self.end..self.end + chunk.len()].copy_from_slice(chunk);
        self.end += chunk.len();
    }

    /// Reads once from `r` straight into the decoder's spare room — no
    /// bounce buffer, no second copy — offering it at most `limit` bytes.
    /// Returns how many arrived (`0` is end of stream) and whether they
    /// filled the room offered; a read that did not is a short read: the
    /// source had nothing more to give just now.
    ///
    /// # Errors
    ///
    /// Whatever `r.read` returns, `WouldBlock` and `Interrupted`
    /// included; the decoder is unchanged then.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero (the result could not be told from end
    /// of stream).
    pub fn read_from<R: Read>(&mut self, r: &mut R, limit: usize) -> io::Result<(usize, bool)> {
        assert!(limit > 0, "a zero-byte read is indistinguishable from EOF");
        self.make_room(MIN_READ_ROOM);
        let room = (self.buf.len() - self.end).min(limit);
        let n = r.read(&mut self.buf[self.end..self.end + room])?;
        self.end += n;
        Ok((n, n == room))
    }

    /// Number of buffered, not-yet-consumed bytes.
    pub fn pending_bytes(&self) -> usize {
        self.end - self.start
    }

    /// Attempts to decode the next complete frame.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] on an oversized header or a payload that
    /// does not decode; the decoder is poisoned afterwards in the sense
    /// that the stream position is undefined, so callers should drop the
    /// connection (exactly what the transports do).
    pub fn next_frame<T: Wire>(&mut self) -> Result<Option<T>, FrameError> {
        let avail = &self.buf[self.start..self.end];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes(avail[..4].try_into().expect("4 bytes"));
        if len > MAX_FRAME_LEN {
            return Err(FrameError::Oversized(len));
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let payload = &avail[4..total];
        let msg = T::decode(payload)?;
        self.start += total;
        Ok(Some(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_via_reader_writer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &42u64).unwrap();
        write_frame(&mut buf, &7u32).unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame::<_, u64>(&mut r).unwrap(), Some(42));
        assert_eq!(read_frame::<_, u32>(&mut r).unwrap(), Some(7));
        assert_eq!(read_frame::<_, u64>(&mut r).unwrap(), None); // clean EOF
    }

    #[test]
    fn eof_inside_header_is_an_error() {
        let bytes = frame_bytes(&1u64);
        let mut r = io::Cursor::new(&bytes[..2]);
        assert!(read_frame::<_, u64>(&mut r).is_err());
    }

    #[test]
    fn eof_inside_payload_is_an_error() {
        let bytes = frame_bytes(&1u64);
        let mut r = io::Cursor::new(&bytes[..bytes.len() - 1]);
        assert!(read_frame::<_, u64>(&mut r).is_err());
    }

    #[test]
    fn oversized_header_rejected_without_allocation() {
        let mut bytes = (MAX_FRAME_LEN + 1).to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        let mut r = io::Cursor::new(bytes);
        assert!(matches!(
            read_frame::<_, u64>(&mut r),
            Err(FrameError::Oversized(_))
        ));
        let mut dec = FrameDecoder::new();
        dec.extend(&(MAX_FRAME_LEN + 1).to_be_bytes());
        assert!(matches!(
            dec.next_frame::<u64>(),
            Err(FrameError::Oversized(_))
        ));
    }

    #[test]
    fn decoder_handles_partial_and_concatenated_frames() {
        let mut stream = Vec::new();
        for i in 0..5u64 {
            stream.extend_from_slice(&frame_bytes(&i));
        }
        // Feed in two lopsided chunks.
        let mut dec = FrameDecoder::new();
        dec.extend(&stream[..7]);
        assert_eq!(dec.next_frame::<u64>().unwrap(), None);
        dec.extend(&stream[7..]);
        for i in 0..5u64 {
            assert_eq!(dec.next_frame::<u64>().unwrap(), Some(i));
        }
        assert_eq!(dec.next_frame::<u64>().unwrap(), None);
        assert_eq!(dec.pending_bytes(), 0);
    }

    /// A socket stand-in: hands out `stream` at most `burst` bytes per
    /// `read`, then reports `WouldBlock` once before the next burst.
    struct Bursty<'a> {
        stream: &'a [u8],
        burst: usize,
        left_in_burst: usize,
    }

    impl Read for Bursty<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.left_in_burst == 0 && !self.stream.is_empty() {
                self.left_in_burst = self.burst;
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.left_in_burst).min(self.stream.len());
            buf[..n].copy_from_slice(&self.stream[..n]);
            self.stream = &self.stream[n..];
            self.left_in_burst -= n;
            Ok(n)
        }
    }

    #[test]
    fn read_from_lands_bytes_in_place_and_tells_short_reads_from_full_ones() {
        // 40 frames of 1 000 bytes: frames straddle every burst and the
        // buffer has to grow past its first 4 KiB while bytes are pending.
        let frames: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 1000]).collect();
        let stream: Vec<u8> = frames.iter().flat_map(frame_bytes).collect();
        for burst in [1, 7, 1004, 4096, 5000, 70_000] {
            let mut socket = Bursty {
                stream: &stream,
                burst,
                left_in_burst: burst,
            };
            let mut dec = FrameDecoder::new();
            let mut got: Vec<Vec<u8>> = Vec::new();
            let mut arrived = 0;
            loop {
                let before = dec.pending_bytes();
                match dec.read_from(&mut socket, 64 * 1024) {
                    Ok((0, _)) => break,
                    Ok((n, filled)) => {
                        arrived += n;
                        assert_eq!(dec.pending_bytes(), before + n);
                        // Only a read that filled its room may have left
                        // bytes behind in this burst.
                        assert!(filled || socket.left_in_burst == 0 || socket.stream.is_empty());
                        while let Some(frame) = dec.next_frame::<Vec<u8>>().unwrap() {
                            got.push(frame);
                        }
                    }
                    Err(e) => {
                        assert_eq!(e.kind(), io::ErrorKind::WouldBlock);
                        assert_eq!(dec.pending_bytes(), before, "an error moves nothing");
                    }
                }
            }
            assert_eq!(arrived, stream.len());
            assert_eq!(got, frames, "burst {burst}");
            assert_eq!(dec.pending_bytes(), 0);
        }
    }

    #[test]
    fn read_from_honours_its_limit_and_extend_shares_the_buffer() {
        let stream = [frame_bytes(&1u64), frame_bytes(&2u64)].concat();
        let mut dec = FrameDecoder::new();
        // The first frame arrives by `extend`, the second by two reads
        // capped at 5 bytes and then uncapped.
        dec.extend(&stream[..12]);
        let mut rest = &stream[12..];
        assert_eq!(dec.read_from(&mut rest, 5).unwrap(), (5, true));
        assert_eq!(dec.next_frame::<u64>().unwrap(), Some(1));
        assert_eq!(dec.next_frame::<u64>().unwrap(), None);
        assert_eq!(dec.read_from(&mut rest, 1 << 20).unwrap(), (7, false));
        assert_eq!(dec.next_frame::<u64>().unwrap(), Some(2));
        assert_eq!(dec.read_from(&mut rest, 1 << 20).unwrap().0, 0, "EOF");
    }

    #[test]
    fn frame_into_coalesces_frames_decodably() {
        // Several frames appended to one reused buffer decode exactly as
        // if they had been written one `write_frame` at a time.
        let mut buf = Vec::new();
        for i in 0..4u64 {
            frame_into(&mut buf, &i);
        }
        let mut dec = FrameDecoder::new();
        dec.extend(&buf);
        for i in 0..4u64 {
            assert_eq!(dec.next_frame::<u64>().unwrap(), Some(i));
        }
        assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn malformed_payload_is_reported() {
        // A frame whose payload is one byte short for a u64.
        let mut bytes = 7u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0; 7]);
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        assert!(matches!(
            dec.next_frame::<u64>(),
            Err(FrameError::Malformed(_))
        ));
    }
}
