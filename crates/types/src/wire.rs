//! Wire messages of the USTOR protocol (Algorithms 1–2) with an exact
//! binary encoding.
//!
//! Three message types flow between a client and the server:
//!
//! * [`SubmitMsg`] — `⟨SUBMIT, t, (i, oc, j, σ), x, δ⟩`;
//! * [`ReplyMsg`] — `⟨REPLY, c, SVER[c], [SVER[j], MEM[j],] L, P⟩`;
//! * [`CommitMsg`] — `⟨COMMIT, V_i, M_i, φ, ψ⟩`.
//!
//! The encoding is hand-rolled (length-prefixed, big-endian) so message
//! sizes are exact and reproducible; experiment E6 (the paper's `O(n)`
//! bits-per-request claim) measures [`Wire::encoded_len`] of these messages
//! as a function of the number of clients `n`.
//!
//! # What a pass costs
//!
//! Every REPLY and COMMIT carries `O(n)` vectors, and an operation walks
//! them some two dozen times (count, encode, decode, compare, sign). A
//! walk costs what its inner loop costs per client, so the loops here
//! are written to three rules; the figures are at n = 64 (a 4 860-byte
//! REPLY with every PROOF slot filled, a 2 716-byte COMMIT) on the 2-core
//! box the benchmark of record
//! runs on, before → after they were applied.
//!
//! * **A size is counted, not encoded.** [`Wire::encoded_len`] runs
//!   [`Wire::encode_into`] against a [`Sink`] that adds up lengths, so
//!   it is exact by construction for every type and touches no buffer
//!   (REPLY: 731 → 45 ns). No impl overrides it; there is nothing to keep
//!   in step with the encoder.
//! * **One encode per send.** [`Wire::encode`] and
//!   [`frame_bytes`](crate::frame::frame_bytes) size their buffer from
//!   that count and encode once into it — capacity equals length, the
//!   buffer never regrows (framing a REPLY: 1 176 → 550 ns, of which
//!   470 ns are the encode: three capacity-checked writes per PROOF, two
//!   per digest, one per timestamp; elements of variable size leave no
//!   cheaper way to place them).
//! * **A decoded element is written once, where it will live.** Returned
//!   through `Result<T, WireError>`, a 65-byte `Option<Signature>` is
//!   assembled in one enum layout, re-wrapped in two more and copied
//!   into the vector: 24 ns per element, most of it store-forwarding
//!   stalls between copies of different widths. [`Wire::decode_then`]
//!   hands the value to a continuation instead — [`Vec<T>`]'s decoder
//!   pushes it from inside the innermost `match` arm — and
//!   [`Signature`], [`Digest`], [`Option<T>`] and [`InvocationTuple`]
//!   implement it, defining [`Wire::decode_from`] through it, so each
//!   type still has one decoder: PROOFs 24.7 → 2.5 ns per element,
//!   digests 14.7 → 2.0, pending tuples 26 → 5, timestamps (fixed size:
//!   one bounds check for the vector) 2.1 → 0.8; a REPLY 2 327 → 400 ns,
//!   a COMMIT 829 → 210 ns, a REPLY with `|L|` = 31 at n = 2 886 →
//!   230 ns. Malformed input fails with the same [`WireError`] as the
//!   element-wise decoders did (`tests/proptests.rs` keeps those as the
//!   reference and compares on every truncation and byte flip).
//!
//! The order `≼` follows the same rule one module over:
//! [`Version::compare`] is a single pass over `V` and `M` of both sides
//! (602 → 125 ns for `le`, 1 284 → 124 ns for `compare`).

use crate::ids::{ClientId, Timestamp};
use crate::op::{InvocationTuple, OpKind};
use crate::value::Value;
use crate::version::{DigestVec, SignedVersion, TimestampVec, Version};
use faust_crypto::sig::Signature;
use faust_crypto::Digest;
use std::fmt;

/// Error produced when decoding a malformed wire message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the message was complete.
    Truncated,
    /// A tag byte had an unknown value.
    BadTag(u8),
    /// A length prefix exceeded sane bounds.
    BadLength(u64),
    /// Trailing bytes remained after a complete message.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => f.write_str("input truncated"),
            WireError::BadTag(t) => write!(f, "unknown tag byte {t}"),
            WireError::BadLength(l) => write!(f, "implausible length prefix {l}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum plausible element count in a decoded collection; guards against
/// hostile length prefixes.
const MAX_LEN: u64 = 1 << 24;

/// Where an encoding goes: a `Vec<u8>` that stores the bytes, or the
/// counter behind [`Wire::encoded_len`] that only adds up their lengths.
/// The two methods are `Vec<u8>`'s own, so an `encode_into` body reads the
/// same for either.
pub trait Sink {
    /// Appends one byte.
    fn push(&mut self, byte: u8);
    /// Appends `bytes`.
    fn extend_from_slice(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    #[inline]
    fn push(&mut self, byte: u8) {
        #[cfg(test)]
        tests::BUFFER_WRITES.with(|w| w.set(w.get() + 1));
        Vec::push(self, byte);
    }
    #[inline]
    fn extend_from_slice(&mut self, bytes: &[u8]) {
        #[cfg(test)]
        tests::BUFFER_WRITES.with(|w| w.set(w.get() + 1));
        Vec::extend_from_slice(self, bytes);
    }
}

/// The sink that measures: no buffer, no allocation.
struct ByteCount(usize);

impl Sink for ByteCount {
    #[inline]
    fn push(&mut self, _: u8) {
        self.0 += 1;
    }
    #[inline]
    fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// Types with an exact binary wire encoding.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode_into<S: Sink>(&self, out: &mut S);

    /// Decodes a value from the front of `input`, advancing it.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the input is truncated or malformed.
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError>;

    /// Decodes a value and hands it to `then` where it is built, returning
    /// what `then` makes of it. [`Vec<T>`]'s decoder pushes each element
    /// from inside this call; a type whose values are tens of bytes
    /// (a [`Signature`], anything wrapping one) overrides it so the value
    /// is written once, into its slot, and defines
    /// [`Wire::decode_from`] through it — the module docs ("What a pass
    /// costs") have the numbers.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Wire::decode_from`]; `then` does not run.
    #[inline]
    fn decode_then<R>(input: &mut &[u8], then: impl FnOnce(Self) -> R) -> Result<R, WireError> {
        Self::decode_from(input).map(then)
    }

    /// Encodes `self` into a fresh buffer, sized once.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Exact encoded size in bytes: [`Wire::encode_into`] run against a
    /// sink that counts, so it is the encoding's length by construction
    /// and allocates nothing.
    fn encoded_len(&self) -> usize {
        let mut count = ByteCount(0);
        self.encode_into(&mut count);
        count.0
    }

    /// Decodes a value that must consume the entire input.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if decoding fails or bytes remain.
    fn decode(mut input: &[u8]) -> Result<Self, WireError> {
        let v = Self::decode_from(&mut input)?;
        if input.is_empty() {
            Ok(v)
        } else {
            Err(WireError::TrailingBytes(input.len()))
        }
    }
}

/// Reads a collection's length prefix and returns it with the capacity
/// to reserve for it. The prefix is the sender's claim; every element
/// encodes to at least one byte, so the reservation never exceeds the
/// bytes that actually remain in `input` — a 30-byte frame claiming 2²⁴
/// elements reserves room for 26, and fails at the first missing one.
#[inline]
fn decode_len(input: &mut &[u8]) -> Result<(usize, usize), WireError> {
    let len = u32::decode_from(input)? as u64;
    if len > MAX_LEN {
        return Err(WireError::BadLength(len));
    }
    Ok((len as usize, (len as usize).min(input.len())))
}

#[inline]
fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    let (head, tail) = input.split_at_checked(n).ok_or(WireError::Truncated)?;
    *input = tail;
    Ok(head)
}

/// [`take`] for a length known at compile time: the bytes come back as an
/// array, so what is built from them needs no second length check.
#[inline]
fn take_array<'a, const N: usize>(input: &mut &'a [u8]) -> Result<&'a [u8; N], WireError> {
    let (head, tail) = input.split_first_chunk().ok_or(WireError::Truncated)?;
    *input = tail;
    Ok(head)
}

impl Wire for u8 {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        out.push(*self);
    }
    #[inline]
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(u8::from_be_bytes(*take_array(input)?))
    }
}

impl Wire for u32 {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        out.extend_from_slice(&self.to_be_bytes());
    }
    #[inline]
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(u32::from_be_bytes(*take_array(input)?))
    }
}

impl Wire for u64 {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        out.extend_from_slice(&self.to_be_bytes());
    }
    #[inline]
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(u64::from_be_bytes(*take_array(input)?))
    }
}

impl Wire for ClientId {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        self.as_u32().encode_into(out);
    }
    #[inline]
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(ClientId::new(u32::decode_from(input)?))
    }
}

impl Wire for Signature {
    // One scheme-tag byte, then the scheme's fixed-length raw bytes: a
    // 32-byte MAC or a 64-byte Ed25519 signature. Truncation inside the
    // raw bytes surfaces as `Truncated`; an unknown scheme tag as
    // `BadTag` — decoding never fabricates a verifiable signature.
    fn encode_into<S: Sink>(&self, out: &mut S) {
        match self {
            Signature::Mac(_) => out.push(0),
            Signature::Ed25519(_) => out.push(1),
        }
        out.extend_from_slice(self.as_bytes());
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        Self::decode_then(input, |sig| sig)
    }
    #[inline]
    fn decode_then<R>(input: &mut &[u8], then: impl FnOnce(Self) -> R) -> Result<R, WireError> {
        match *input {
            [0, rest @ ..] => {
                *input = rest;
                Ok(then(Signature::Mac(*take_array(input)?)))
            }
            [1, rest @ ..] => {
                *input = rest;
                Ok(then(Signature::Ed25519(*take_array(input)?)))
            }
            [t, ..] => Err(WireError::BadTag(*t)),
            [] => Err(WireError::Truncated),
        }
    }
}

impl Wire for Digest {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        out.extend_from_slice(self.as_bytes());
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        Self::decode_then(input, |digest| digest)
    }
    #[inline]
    fn decode_then<R>(input: &mut &[u8], then: impl FnOnce(Self) -> R) -> Result<R, WireError> {
        Ok(then(Digest::from_bytes(*take_array(input)?)))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_into(out);
            }
        }
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        Self::decode_then(input, |option| option)
    }
    #[inline]
    fn decode_then<R>(input: &mut &[u8], then: impl FnOnce(Self) -> R) -> Result<R, WireError> {
        match *input {
            [0, rest @ ..] => {
                *input = rest;
                Ok(then(None))
            }
            [1, rest @ ..] => {
                *input = rest;
                T::decode_then(input, |v| then(Some(v)))
            }
            [t, ..] => Err(WireError::BadTag(*t)),
            [] => Err(WireError::Truncated),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        (self.len() as u32).encode_into(out);
        for item in self {
            item.encode_into(out);
        }
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        let (len, reserve) = decode_len(input)?;
        let mut out = Vec::with_capacity(reserve);
        // The cursor is a local for the length of the loop: read through
        // `input` it is reloaded and stored back around every element.
        let mut rest = *input;
        for _ in 0..len {
            T::decode_then(&mut rest, |item| out.push(item))?;
        }
        *input = rest;
        Ok(out)
    }
}

impl Wire for Value {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        (self.len() as u32).encode_into(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        let (len, _) = decode_len(input)?;
        Ok(Value::new(take(input, len)?.to_vec()))
    }
}

impl Wire for OpKind {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        out.push(self.tag());
    }
    #[inline]
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode_from(input)? {
            0 => Ok(OpKind::Read),
            1 => Ok(OpKind::Write),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for InvocationTuple {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        self.client.encode_into(out);
        self.kind.encode_into(out);
        self.register.encode_into(out);
        self.sig.encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        Self::decode_then(input, |tuple| tuple)
    }
    #[inline]
    fn decode_then<R>(input: &mut &[u8], then: impl FnOnce(Self) -> R) -> Result<R, WireError> {
        let client = ClientId::decode_from(input)?;
        let kind = OpKind::decode_from(input)?;
        let register = ClientId::decode_from(input)?;
        Signature::decode_then(input, |sig| {
            then(InvocationTuple {
                client,
                kind,
                register,
                sig,
            })
        })
    }
}

impl Wire for TimestampVec {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        (self.len() as u32).encode_into(out);
        for &t in self.as_slice() {
            t.encode_into(out);
        }
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        // Fixed-size elements: one bounds check for the whole vector.
        let (len, _) = decode_len(input)?;
        let (entries, _) = take(input, len * 8)?.as_chunks();
        let entries = entries.iter().map(|t| u64::from_be_bytes(*t));
        Ok(TimestampVec::from_vec(entries.collect()))
    }
}

impl Wire for DigestVec {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        (self.len() as u32).encode_into(out);
        for d in self.as_slice() {
            d.encode_into(out);
        }
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        Vec::<Option<Digest>>::decode_from(input).map(DigestVec::from_vec)
    }
}

impl Wire for Version {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        self.v().encode_into(out);
        self.m().encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        let v = TimestampVec::decode_from(input)?;
        let m = DigestVec::decode_from(input)?;
        if v.len() != m.len() {
            return Err(WireError::BadLength(m.len() as u64));
        }
        Ok(Version::new(v, m))
    }
}

impl Wire for SignedVersion {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        self.version.encode_into(out);
        self.sig.encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(SignedVersion {
            version: Version::decode_from(input)?,
            sig: Option::<Signature>::decode_from(input)?,
        })
    }
}

/// `⟨SUBMIT, t, (i, oc, j, σ), x, δ⟩` — a client submits an operation.
///
/// `value` is `Some` exactly for writes. `data_sig` is the DATA-signature
/// `δ` over `(t, x̄)` where `x̄` is the hash of the client's most recently
/// written value.
///
/// `piggyback` carries the COMMIT of the client's *previous* operation
/// when the commit-piggybacking optimization of Section 5 is enabled
/// ("this message can be eliminated by piggybacking its contents on the
/// SUBMIT message of the next operation") — the server processes it
/// before the submit, preserving the FIFO ordering the protocol relies
/// on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitMsg {
    /// The operation timestamp `t`.
    pub timestamp: Timestamp,
    /// The invocation tuple `(i, oc, j, σ)`.
    pub tuple: InvocationTuple,
    /// The written value `x` (writes only).
    pub value: Option<Value>,
    /// DATA-signature `δ`.
    pub data_sig: Signature,
    /// Piggybacked COMMIT of the previous operation (optimization mode).
    pub piggyback: Option<CommitMsg>,
}

impl Wire for SubmitMsg {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        self.timestamp.encode_into(out);
        self.tuple.encode_into(out);
        self.value.encode_into(out);
        self.data_sig.encode_into(out);
        self.piggyback.encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(SubmitMsg {
            timestamp: Timestamp::decode_from(input)?,
            tuple: InvocationTuple::decode_from(input)?,
            value: Option::<Value>::decode_from(input)?,
            data_sig: Signature::decode_from(input)?,
            piggyback: Option::<CommitMsg>::decode_from(input)?,
        })
    }
}

/// The read-specific part of a REPLY: `SVER[j]` and `MEM[j]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadReply {
    /// `SVER[j]` — the largest version committed by the register's writer,
    /// as known to the server.
    pub writer_version: SignedVersion,
    /// `MEM[j].t` — timestamp of the writer's last submitted operation.
    pub mem_timestamp: Timestamp,
    /// `MEM[j].x` — the register value (`None` = `⊥`, never written).
    pub mem_value: Option<Value>,
    /// `MEM[j].δ` — the writer's DATA-signature (`None` before the writer's
    /// first operation).
    pub mem_data_sig: Option<Signature>,
}

impl Wire for ReadReply {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        self.writer_version.encode_into(out);
        self.mem_timestamp.encode_into(out);
        self.mem_value.encode_into(out);
        self.mem_data_sig.encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(ReadReply {
            writer_version: SignedVersion::decode_from(input)?,
            mem_timestamp: Timestamp::decode_from(input)?,
            mem_value: Option::<Value>::decode_from(input)?,
            mem_data_sig: Option::<Signature>::decode_from(input)?,
        })
    }
}

/// `⟨REPLY, c, SVER[c], [SVER[j], MEM[j],] L, P⟩` — the server's answer to
/// a SUBMIT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyMsg {
    /// `c` — the client that committed the last operation in the schedule.
    pub last_committer: ClientId,
    /// `SVER[c]` — that client's last committed version.
    pub commit_version: SignedVersion,
    /// Read-only extras (`SVER[j]`, `MEM[j]`) — present iff the submitted
    /// operation was a read.
    pub read: Option<ReadReply>,
    /// `L` — invocation tuples of submitted-but-uncommitted (concurrent)
    /// operations, oldest first.
    pub pending: Vec<InvocationTuple>,
    /// `P` — PROOF-signatures, indexed by client. A correct server fills
    /// only the slots of clients with a tuple in `pending`, the only ones
    /// Algorithm 1 reads; the rest, and a slot before its client's first
    /// commit, are `None`.
    pub proofs: Vec<Option<Signature>>,
}

impl Wire for ReplyMsg {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        self.last_committer.encode_into(out);
        self.commit_version.encode_into(out);
        self.read.encode_into(out);
        self.pending.encode_into(out);
        self.proofs.encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(ReplyMsg {
            last_committer: ClientId::decode_from(input)?,
            commit_version: SignedVersion::decode_from(input)?,
            read: Option::<ReadReply>::decode_from(input)?,
            pending: Vec::<InvocationTuple>::decode_from(input)?,
            proofs: Vec::<Option<Signature>>::decode_from(input)?,
        })
    }
}

/// `⟨COMMIT, V_i, M_i, φ, ψ⟩` — a client commits its new version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitMsg {
    /// The committed version `(V_i, M_i)`.
    pub version: Version,
    /// COMMIT-signature `φ` over the version.
    pub commit_sig: Signature,
    /// PROOF-signature `ψ` over `M_i[i]`.
    pub proof_sig: Signature,
}

impl Wire for CommitMsg {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        self.version.encode_into(out);
        self.commit_sig.encode_into(out);
        self.proof_sig.encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(CommitMsg {
            version: Version::decode_from(input)?,
            commit_sig: Signature::decode_from(input)?,
            proof_sig: Signature::decode_from(input)?,
        })
    }
}

/// Any USTOR client↔server message, for transports that carry a single
/// message type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UstorMsg {
    /// Client → server.
    Submit(SubmitMsg),
    /// Server → client.
    Reply(ReplyMsg),
    /// Client → server.
    Commit(CommitMsg),
}

impl Wire for UstorMsg {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        match self {
            UstorMsg::Submit(m) => {
                out.push(0);
                m.encode_into(out);
            }
            UstorMsg::Reply(m) => {
                out.push(1);
                m.encode_into(out);
            }
            UstorMsg::Commit(m) => {
                out.push(2);
                m.encode_into(out);
            }
        }
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode_from(input)? {
            0 => Ok(UstorMsg::Submit(SubmitMsg::decode_from(input)?)),
            1 => Ok(UstorMsg::Reply(ReplyMsg::decode_from(input)?)),
            2 => Ok(UstorMsg::Commit(CommitMsg::decode_from(input)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faust_crypto::sha256;
    use std::cell::Cell;

    thread_local! {
        /// Writes into a `Vec<u8>` sink on this thread: what an encode
        /// costs and a size read must not.
        pub(super) static BUFFER_WRITES: Cell<u64> = const { Cell::new(0) };
    }

    fn sig(label: u8) -> Signature {
        Signature::Mac(sha256(&[label]).into_bytes())
    }

    fn ed_sig(label: u8) -> Signature {
        let d = sha256(&[label]).into_bytes();
        let mut raw = [0u8; 64];
        raw[..32].copy_from_slice(&d);
        raw[32..].copy_from_slice(&d);
        Signature::Ed25519(raw)
    }

    fn sample_submit() -> SubmitMsg {
        SubmitMsg {
            timestamp: 42,
            tuple: InvocationTuple {
                client: ClientId::new(1),
                kind: OpKind::Write,
                register: ClientId::new(1),
                sig: sig(1),
            },
            value: Some(Value::from("payload")),
            data_sig: sig(2),
            piggyback: None,
        }
    }

    fn sample_version(n: usize) -> Version {
        let mut v = Version::initial(n);
        for k in 0..n {
            v.v_mut().set(ClientId::new(k as u32), k as u64 + 1);
            v.m_mut().set(ClientId::new(k as u32), sha256(&[k as u8]));
        }
        v
    }

    fn sample_reply(n: usize) -> ReplyMsg {
        ReplyMsg {
            last_committer: ClientId::new(0),
            commit_version: SignedVersion {
                version: sample_version(n),
                sig: Some(sig(3)),
            },
            read: Some(ReadReply {
                writer_version: SignedVersion::initial(n),
                mem_timestamp: 7,
                mem_value: Some(Value::from("stored")),
                mem_data_sig: Some(sig(4)),
            }),
            pending: vec![InvocationTuple {
                client: ClientId::new(2),
                kind: OpKind::Read,
                register: ClientId::new(0),
                sig: sig(5),
            }],
            proofs: vec![Some(sig(6)), None, Some(sig(7))],
        }
    }

    #[test]
    fn submit_roundtrip() {
        let m = sample_submit();
        assert_eq!(SubmitMsg::decode(&m.encode()), Ok(m));
    }

    #[test]
    fn reply_roundtrip() {
        let m = sample_reply(3);
        assert_eq!(ReplyMsg::decode(&m.encode()), Ok(m));
    }

    #[test]
    fn commit_roundtrip() {
        let m = CommitMsg {
            version: sample_version(4),
            commit_sig: sig(8),
            proof_sig: sig(9),
        };
        assert_eq!(CommitMsg::decode(&m.encode()), Ok(m));
    }

    #[test]
    fn enum_roundtrip() {
        for m in [
            UstorMsg::Submit(sample_submit()),
            UstorMsg::Reply(sample_reply(2)),
            UstorMsg::Commit(CommitMsg {
                version: sample_version(2),
                commit_sig: sig(1),
                proof_sig: sig(2),
            }),
        ] {
            assert_eq!(UstorMsg::decode(&m.encode()), Ok(m));
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample_reply(3).encode();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                ReplyMsg::decode(&bytes[..cut]).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample_submit().encode();
        bytes.push(0xFF);
        assert_eq!(SubmitMsg::decode(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn bad_tag_rejected() {
        assert_eq!(UstorMsg::decode(&[9]), Err(WireError::BadTag(9)));
        // Option tag must be 0 or 1.
        let err = Option::<Signature>::decode(&[7]);
        assert_eq!(err, Err(WireError::BadTag(7)));
    }

    #[test]
    fn signature_scheme_tag_roundtrips_and_rejects_unknown() {
        for s in [sig(1), ed_sig(2)] {
            assert_eq!(Signature::decode(&s.encode()), Ok(s));
        }
        // MAC and Ed25519 payloads have different wire lengths.
        assert_eq!(sig(1).encoded_len(), 1 + 32);
        assert_eq!(ed_sig(1).encoded_len(), 1 + 64);
        assert_eq!(Signature::decode(&[9]), Err(WireError::BadTag(9)));
        // Ed25519 tag with a MAC-sized payload is a truncation.
        let mut short = ed_sig(1).encode();
        short.truncate(33);
        assert_eq!(Signature::decode(&short), Err(WireError::Truncated));
    }

    #[test]
    fn messages_with_ed25519_signatures_roundtrip() {
        let mut m = sample_submit();
        m.tuple.sig = ed_sig(1);
        m.data_sig = ed_sig(2);
        assert_eq!(SubmitMsg::decode(&m.encode()), Ok(m));
        let c = CommitMsg {
            version: sample_version(3),
            commit_sig: ed_sig(3),
            proof_sig: ed_sig(4),
        };
        assert_eq!(CommitMsg::decode(&c.encode()), Ok(c));
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        // A Vec claiming u32::MAX elements must not allocate.
        let bytes = u32::MAX.to_be_bytes();
        assert!(matches!(
            Vec::<Signature>::decode(&bytes),
            Err(WireError::BadLength(_))
        ));
    }

    /// `claim` as a length prefix followed by `body`.
    fn claiming(claim: u32, body: &[u8]) -> Vec<u8> {
        [&claim.to_be_bytes()[..], body].concat()
    }

    #[test]
    fn a_claimed_length_reserves_no_more_than_the_bytes_that_follow() {
        // `DigestVec` decodes through `Vec<T>`, which reserves what
        // `decode_len` returns as capacity; `TimestampVec` allocates only
        // once the claimed bytes are there.
        let max = MAX_LEN as u32;
        let input = claiming(max, &[0u8; 26]);
        assert_eq!(decode_len(&mut &input[..]), Ok((max as usize, 26)));
        assert_eq!(
            decode_len(&mut &claiming(max, &[])[..]),
            Ok((max as usize, 0))
        );
        // An honest prefix still reserves exactly once.
        assert_eq!(decode_len(&mut &claiming(3, &[0u8; 99])[..]), Ok((3, 3)));
        let tuples = sample_reply(3).pending.encode();
        let decoded = Vec::<InvocationTuple>::decode(&tuples).unwrap();
        assert_eq!(decoded.capacity(), decoded.len());
        // Past the cap the claim itself is the error.
        assert_eq!(
            decode_len(&mut &claiming(max + 1, &[0u8; 26])[..]),
            Err(WireError::BadLength(MAX_LEN + 1))
        );
    }

    #[test]
    fn maximal_length_claims_fail_typed_in_all_three_collection_decoders() {
        let max = MAX_LEN as u32;
        // Empty body, and a body far shorter than the claim (a few valid
        // elements, then nothing).
        let some_tuples = &sample_reply(3).pending.encode()[4..];
        for body in [&[][..], some_tuples] {
            let input = claiming(max, body);
            assert_eq!(
                Vec::<InvocationTuple>::decode(&input),
                Err(WireError::Truncated)
            );
        }
        for body in [&[][..], &[0u8; 24][..]] {
            let input = claiming(max, body);
            assert_eq!(TimestampVec::decode(&input), Err(WireError::Truncated));
            assert_eq!(DigestVec::decode(&input), Err(WireError::Truncated));
        }
        // One past the cap is rejected before anything is read or reserved.
        let input = claiming(max + 1, &[0u8; 24]);
        let too_long = WireError::BadLength(MAX_LEN + 1);
        assert_eq!(Vec::<InvocationTuple>::decode(&input), Err(too_long));
        assert_eq!(TimestampVec::decode(&input), Err(too_long));
        assert_eq!(DigestVec::decode(&input), Err(too_long));
    }

    #[test]
    fn a_tiny_framed_reply_claiming_a_huge_pending_list_is_malformed() {
        use crate::frame::{read_frame, FrameError};
        // A REPLY for n = 1 with an empty pending list, its length prefix
        // then rewritten to the maximum: under 40 bytes on the wire, 2²⁴
        // tuples claimed.
        let honest = ReplyMsg {
            last_committer: ClientId::new(0),
            commit_version: SignedVersion::initial(1),
            read: None,
            pending: vec![],
            proofs: vec![None],
        };
        let mut body = UstorMsg::Reply(honest).encode();
        let at = body.len() - (4 + 1) - 4; // before `proofs`: its prefix and one `None`
        assert_eq!(body[at..at + 4], [0, 0, 0, 0]);
        body[at..at + 4].copy_from_slice(&(MAX_LEN as u32).to_be_bytes());
        assert!(body.len() < 40);
        let framed = claiming(body.len() as u32, &body);
        let got = read_frame::<_, UstorMsg>(&mut &framed[..]);
        assert!(
            matches!(got, Err(FrameError::Malformed(WireError::Truncated))),
            "{got:?}"
        );
    }

    #[test]
    fn a_size_read_writes_no_buffer_and_an_encode_writes_it_once() {
        let writes = || BUFFER_WRITES.with(Cell::get);
        let msgs = [
            UstorMsg::Submit(sample_submit()),
            UstorMsg::Reply(sample_reply(64)),
            UstorMsg::Commit(CommitMsg {
                version: sample_version(64),
                commit_sig: sig(1),
                proof_sig: ed_sig(2),
            }),
        ];
        for m in &msgs {
            // What the simulator and the drivers do per send.
            let before = writes();
            let len = m.encoded_len();
            assert_eq!(writes(), before, "encoded_len touched a buffer");
            // One encode, into a buffer that never regrows.
            let bytes = m.encode();
            let encode_writes = writes() - before;
            assert!(encode_writes > 0);
            assert_eq!((bytes.len(), bytes.capacity()), (len, len));
            let before = writes();
            let frame = crate::frame::frame_bytes(m);
            assert_eq!(writes() - before, encode_writes, "framing encodes once");
            assert_eq!((frame.len(), frame.capacity()), (4 + len, 4 + len));
        }
    }

    #[test]
    fn submit_size_is_independent_of_n() {
        // SUBMIT carries no vectors: its size depends only on the value.
        let m = sample_submit();
        assert!(
            m.encoded_len() < 200,
            "submit too large: {}",
            m.encoded_len()
        );
    }

    #[test]
    fn reply_size_grows_linearly_in_n() {
        // The O(n) claim: version vectors and proof lists are the only
        // n-dependent parts.
        let sizes: Vec<usize> = [2usize, 4, 8, 16]
            .iter()
            .map(|&n| {
                let mut r = sample_reply(n);
                r.proofs = vec![Some(sig(1)); n];
                r.encoded_len()
            })
            .collect();
        let delta1 = sizes[1] - sizes[0];
        let delta2 = sizes[2] - sizes[1];
        let delta3 = sizes[3] - sizes[2];
        // Doubling n roughly doubles the increment — linear growth.
        assert_eq!(delta2, 2 * delta1, "sizes {sizes:?}");
        assert_eq!(delta3, 2 * delta2, "sizes {sizes:?}");
    }

    #[test]
    fn mismatched_version_arity_rejected() {
        let mut bytes = Vec::new();
        TimestampVec::zeros(2).encode_into(&mut bytes);
        DigestVec::bottoms(3).encode_into(&mut bytes);
        assert!(Version::decode(&bytes).is_err());
    }
}
