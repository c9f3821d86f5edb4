//! Wire messages of the USTOR protocol (Algorithms 1–2) with an exact
//! binary encoding.
//!
//! Three message types flow between a client and the server, in four
//! frames ([`UstorMsg`], whose tag byte is given):
//!
//! * [`SubmitMsg`] (0) — `⟨SUBMIT, t, (i, oc, j, σ), x, δ⟩`;
//! * [`ReplyMsg`] (1) — `⟨REPLY, c, SVER[c], [SVER[j], MEM[j],] L, P⟩`;
//!   a read's `SVER[j]` goes as a delta against `SVER[c]` when that is
//!   smaller, and the engine leaves out what the recipient already holds
//!   from the same connection — `SVER[c]` against one of its own COMMITs,
//!   a tail of the previous `L`, a read value it was sent before — which
//!   the client fills back in before any check (the [`ReplyMsg`] docs
//!   have the layouts);
//! * [`CommitMsg`] (2) — `⟨COMMIT, V_i, M_i, φ, ψ⟩`, or [`CommitDelta`]
//!   (3) — the same COMMIT as the entries where its version differs from
//!   the `commit_version` of the REPLY it answers, sent by a session on
//!   the connection that REPLY came in on when that is smaller. The
//!   server resolves it against the REPLY it cached; nothing past its
//!   engine sees one.
//!
//! The version deltas — and the store's COMMIT records and a snapshot's
//! `SVER` chain — share one layout, [`Delta`], picked and written by
//! [`VersionDelta`], held as a [`Delta`] until its base is at hand and
//! read over that base by [`Delta::resolve`]. Each delta form is chosen
//! by size alone, so a message decodes to exactly what was encoded. The encoding is
//! hand-rolled (length-prefixed, big-endian) so message sizes are exact
//! and reproducible; experiment E6 (the paper's `O(n)` bits-per-request
//! claim) measures [`Wire::encoded_len`] of these messages as a function
//! of the number of clients `n`.
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
    /// A varint was overlong, longer than ten bytes or above `u64::MAX`
    /// ([`EntryLayout::Compact`]).
    BadVarint,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => f.write_str("input truncated"),
            WireError::BadTag(t) => write!(f, "unknown tag byte {t}"),
            WireError::BadLength(l) => write!(f, "implausible length prefix {l}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::BadVarint => f.write_str("non-canonical varint"),
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
    let len = u32::decode_from(input)?;
    bounded_len(len, input)
}

/// [`decode_len`] for a length prefix `len` already read.
#[inline]
fn bounded_len(len: u32, input: &[u8]) -> Result<(usize, usize), WireError> {
    if u64::from(len) > MAX_LEN {
        return Err(WireError::BadLength(len.into()));
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
        decode_elements(len, reserve, input)
    }
}

/// The `len` elements of a collection whose length prefix was already
/// read, `reserve` of them reserved up front ([`decode_len`]).
#[inline]
fn decode_elements<T: Wire>(
    len: usize,
    reserve: usize,
    input: &mut &[u8],
) -> Result<Vec<T>, WireError> {
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
        let len = u32::decode_from(input)?;
        decode_timestamps(len, input)
    }
}

/// The entries of a [`TimestampVec`] whose length prefix `len` was
/// already read. Fixed-size elements: one bounds check for the whole
/// vector.
#[inline]
fn decode_timestamps(len: u32, input: &mut &[u8]) -> Result<TimestampVec, WireError> {
    if u64::from(len) > MAX_LEN {
        return Err(WireError::BadLength(len.into()));
    }
    let (entries, _) = take(input, len as usize * 8)?.as_chunks();
    let entries = entries.iter().map(|t| u64::from_be_bytes(*t));
    Ok(TimestampVec::from_vec(entries.collect()))
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
        let len = u32::decode_from(input)?;
        decode_version(len, input)
    }
}

/// The rest of a full [`Version`] whose first length prefix `len` was
/// already read.
fn decode_version(len: u32, input: &mut &[u8]) -> Result<Version, WireError> {
    let v = decode_timestamps(len, input)?;
    let m = DigestVec::decode_from(input)?;
    if v.len() != m.len() {
        return Err(WireError::BadLength(m.len() as u64));
    }
    Ok(Version::new(v, m))
}

/// Set in the count word of a REPLY's `SVER[c]` or a read REPLY's
/// `SVER[j]` sent as a [`Delta`], and in the count of a REPLY's `L` that
/// keeps a tail of the previous one (see [`ReplyMsg`]). A full version's
/// first length prefix and a full list's count are at most
/// [`MAX_LEN`] = 2²⁴, so the full form never has it.
const DELTA_MARK: u32 = 1 << 31;

/// The whole first word of a REPLY's `SVER[c]` that is, byte for byte,
/// the recipient's own COMMIT it names (see [`ReplyMsg`]); never the
/// first length prefix of a full version either.
const SAME_MARK: u32 = 1 << 30;

/// One entry `(k, V[k], M[k])` of a version, as a [`Delta`] carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionEntry {
    /// The entry's index `k`.
    pub client: ClientId,
    /// `V[k]`.
    pub timestamp: Timestamp,
    /// `M[k]`.
    pub digest: Option<Digest>,
}

/// How the entries of a [`Delta`] are laid out. Only
/// [`EntryLayout::Compact`] is written; the store reads
/// [`EntryLayout::Fixed`] from the files older builds wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryLayout {
    /// `head: varint((k − next) << 1 | [M[k] ≠ ⊥]) | V[k] | M[k]: 32 B if
    /// present`, where `next` is 0 for the first entry and the previous
    /// `k + 1` after it, and `V[k]` is the first entry's as a `u64`, each
    /// later one's as `varint(zigzag(V[k] − previous V))`, wrapping. A
    /// varint is canonical LEB128: seven bits a byte, low group first,
    /// the top bit set on every byte but the last; an overlong one, one
    /// of more than ten bytes or one above `u64::MAX` is
    /// [`WireError::BadVarint`]. An entry's size depends only on its
    /// distance from its neighbours, never on a timestamp's magnitude:
    /// 34 bytes for the next client's digest one operation on, 41 for a
    /// first entry.
    Compact,
    /// `k: u32 | V[k]: u64 | M[k]: Option<Digest>`: 45 bytes an entry
    /// with a digest. Log versions 3 and 4 and snapshot version 5 hold
    /// it.
    Fixed,
}

/// Writes `x` as a canonical LEB128 varint ([`EntryLayout::Compact`]).
fn encode_varint(mut x: u64, out: &mut Vec<u8>) {
    while x >= 0x80 {
        out.push(x as u8 | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

/// Reads a canonical LEB128 varint.
///
/// # Errors
///
/// [`WireError::Truncated`] if the input ends inside it;
/// [`WireError::BadVarint`] if it is overlong (a zero last byte after the
/// first), longer than ten bytes, or above `u64::MAX` (a tenth byte above
/// 1).
#[inline]
fn decode_varint(input: &mut &[u8]) -> Result<u64, WireError> {
    match *input {
        [byte, ref rest @ ..] if *byte < 0x80 => {
            *input = rest;
            Ok(u64::from(*byte))
        }
        _ => decode_long_varint(input),
    }
}

/// [`decode_varint`] past its one-byte case.
fn decode_long_varint(input: &mut &[u8]) -> Result<u64, WireError> {
    let mut x = 0;
    for (i, &byte) in input.iter().enumerate().take(10) {
        x |= u64::from(byte & 0x7f) << (7 * i);
        if byte < 0x80 {
            if i > 0 && byte == 0 || i == 9 && byte > 1 {
                return Err(WireError::BadVarint);
            }
            *input = &input[i + 1..];
            return Ok(x);
        }
    }
    match input.len() {
        0..10 => Err(WireError::Truncated),
        _ => Err(WireError::BadVarint),
    }
}

/// A signed step between two timestamps, folded into an unsigned one so
/// that small steps either way stay small: 0, −1, 1, −2 … become 0, 1,
/// 2, 3 ….
#[inline]
fn zigzag(step: u64) -> u64 {
    (step << 1) ^ ((step as i64 >> 63) as u64)
}

/// The step [`zigzag`] folded.
#[inline]
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// Where an [`EntryLayout::Compact`] entry stands against the one before
/// it: the first index it may have, and the timestamp its own is a step
/// from (`None` before the first entry).
#[derive(Debug, Clone, Copy, Default)]
struct EntryPos {
    next: usize,
    prev: Option<Timestamp>,
}

/// The one writer of [`EntryLayout::Compact`]: entries appended at
/// strictly increasing `k`.
struct EntryWriter {
    bytes: Vec<u8>,
    count: u32,
    at: EntryPos,
}

impl EntryWriter {
    /// A writer with room for `entries` entries a step from the one
    /// before each.
    fn with_room(entries: usize) -> Self {
        EntryWriter {
            bytes: Vec::with_capacity(8 + 34 * entries),
            count: 0,
            at: EntryPos::default(),
        }
    }

    /// Appends the entry `(k, V[k], M[k])`, `k` past the last one. An
    /// entry with a digest whose head and step take a byte each — the
    /// next client's, a step of at most 63 either way — is one fixed-size
    /// copy.
    #[inline(always)]
    fn encode_entry(&mut self, k: usize, timestamp: Timestamp, digest: &Option<Digest>) {
        let head = ((k - self.at.next) as u64) << 1 | u64::from(digest.is_some());
        let prev = std::mem::replace(
            &mut self.at,
            EntryPos {
                next: k + 1,
                prev: Some(timestamp),
            },
        )
        .prev;
        self.count += 1;
        let out = &mut self.bytes;
        match (prev, digest) {
            (Some(prev), Some(digest)) => {
                let step = zigzag(timestamp.wrapping_sub(prev));
                if head | step < 0x80 {
                    let mut entry = [0; 34];
                    entry[0] = head as u8;
                    entry[1] = step as u8;
                    entry[2..].copy_from_slice(digest.as_bytes());
                    return out.extend_from_slice(&entry);
                }
                encode_varint(head, out);
                encode_varint(step, out);
            }
            (Some(prev), None) => {
                encode_varint(head, out);
                encode_varint(zigzag(timestamp.wrapping_sub(prev)), out);
            }
            (None, _) => {
                encode_varint(head, out);
                out.extend_from_slice(&timestamp.to_be_bytes());
            }
        }
        if let Some(digest) = digest {
            out.extend_from_slice(digest.as_bytes());
        }
    }

    /// The delta written.
    fn finish(self) -> Delta {
        Delta {
            count: self.count,
            entries: self.bytes,
        }
    }
}

/// A version as the entries where it differs from a base its reader
/// already holds:
///
/// ```text
///   count: u32 | entry^count          (EntryLayout::Compact)
/// ```
///
/// at strictly increasing `k` below the base's arity `n`. A REPLY's
/// `SVER[c]` (against a COMMIT of the recipient's) and a read's `SVER[j]`
/// (against `SVER[c]`), both with their count marked, a [`CommitDelta`]
/// (against the `commit_version` of the REPLY it answers), the store's
/// COMMIT records (against the last COMMIT before them in the file) and
/// a snapshot's `SVER` chain all travel this way. [`VersionDelta`] picks
/// the entries and writes them; this is the one form that holds them,
/// as read or as written to be sent, until the base is at hand. Every
/// entry but the first names its index and timestamp as steps from the
/// entry before, so [`Delta::get`] needs no base either.
///
/// A decoded delta has a count and indices below 2²⁴ — and below `n`
/// where the reader knows the base —, nothing reserved for the count,
/// and canonical varints; [`Delta::resolve`] checks the indices against
/// the base.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    count: u32,
    /// The entries as encoded.
    entries: Vec<u8>,
}

impl Delta {
    /// The delta of `entries`, given in strictly increasing `k`, whatever
    /// its size. Senders use [`VersionDelta`], which picks the entries
    /// and a form.
    pub fn from_entries(entries: &[VersionEntry]) -> Self {
        let mut writer = EntryWriter::with_room(entries.len());
        for e in entries {
            writer.encode_entry(e.client.index(), e.timestamp, &e.digest);
        }
        writer.finish()
    }

    /// Reads the entries after a count word already read, against a base
    /// of arity `n` (2²⁴, the largest, where the reader does not know
    /// it). A count above 2²⁴ or `n` is [`WireError::BadLength`] before
    /// anything else is read, and the entries are copied out only once
    /// all their bytes were.
    fn decode(count: u32, n: usize, input: &mut &[u8]) -> Result<Self, WireError> {
        check_count(count, n)?;
        let start = *input;
        decode_entries(input, count, n, EntryLayout::Compact, |_, _, _| {})?;
        Ok(Delta {
            count,
            entries: start[..start.len() - input.len()].to_vec(),
        })
    }

    /// How many entries it carries.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Encoded size: the count word and the entries.
    pub fn encoded_len(&self) -> usize {
        4 + self.entries.len()
    }

    /// Writes `mark | count`, then the entries.
    fn encode_into<S: Sink>(&self, mark: u32, out: &mut S) {
        (mark | self.count).encode_into(out);
        out.extend_from_slice(&self.entries);
    }

    /// Entry `k`, if this delta carries it.
    pub fn get(&self, k: ClientId) -> Option<VersionEntry> {
        let (mut found, entries) = (None, &mut &self.entries[..]);
        let layout = EntryLayout::Compact;
        decode_entries(
            entries,
            self.count,
            usize::MAX,
            layout,
            |at, timestamp, digest| {
                if at == k.index() {
                    found = Some((timestamp, digest));
                }
            },
        )
        .ok()?;
        let (timestamp, digest) = found?;
        Some(VersionEntry {
            client: k,
            timestamp,
            digest,
        })
    }

    /// The version this delta stands for over `base`: `base` with the
    /// entries written over a copy.
    ///
    /// # Errors
    ///
    /// [`WireError::BadLength`] of the count if it exceeds `base`'s arity
    /// `n`, or of the first index `≥ n`.
    pub fn resolve(&self, base: &Version) -> Result<Version, WireError> {
        let entries = &mut &self.entries[..];
        resolve_entries(entries, self.count, base, EntryLayout::Compact)
    }
}

/// A count of delta entries against a base of arity `n`: at most 2²⁴ and
/// `n`, else [`WireError::BadLength`] of it.
fn check_count(count: u32, n: usize) -> Result<(), WireError> {
    if u64::from(count) > MAX_LEN || count as usize > n {
        return Err(WireError::BadLength(count.into()));
    }
    Ok(())
}

/// A [`Delta`] being sent, written in one pass over the version it
/// stands for, with the size of the full form beside it for the sender
/// to pick one. The full form costs two length prefixes, 8 bytes a
/// timestamp and a digest's 33 or a `⊥`'s 1; the delta a count and each
/// entry it carries ([`EntryLayout::Compact`]). Every sender picks the
/// delta only when [`VersionDelta::is_smaller`].
#[derive(Debug, Clone)]
pub struct VersionDelta {
    delta: Delta,
    /// Encoded size of the full version.
    full: usize,
}

impl VersionDelta {
    /// The entries `indices` — strictly increasing, each below the
    /// arity — of `version`. A sender that knows which entries moved
    /// needs no base.
    pub fn listed(version: &Version, indices: &[usize]) -> Self {
        let (t, d) = (version.v().as_slice(), version.m().as_slice());
        let mut writer = EntryWriter::with_room(indices.len());
        for &k in indices {
            writer.encode_entry(k, t[k], &d[k]);
        }
        let bottoms = d.iter().filter(|d| d.is_none()).count();
        VersionDelta {
            delta: writer.finish(),
            full: full_len(d.len(), bottoms),
        }
    }

    /// Every entry where `version` differs from `base` — in `V[k]`, or in
    /// `M[k]` alone, which no correct server's versions do — written in
    /// the one walk that compares them; `None` when their arities differ.
    pub fn against(version: &Version, base: &Version) -> Option<Self> {
        let (t, d) = (version.v().as_slice(), version.m().as_slice());
        let (t_base, d_base) = (base.v().as_slice(), base.m().as_slice());
        if t.len() != t_base.len() {
            return None;
        }
        // Room for every entry a step from the one before: at n = 64 a
        // REPLY's `SVER[c]` in round-robin lockstep, where all but one
        // moved, is written without a regrowth.
        let (mut writer, mut bottoms) = (EntryWriter::with_room(t.len()), 0);
        let pairs = t.iter().zip(d).zip(t_base.iter().zip(d_base));
        for (k, ((t, d), (t_base, d_base))) in pairs.enumerate() {
            bottoms += usize::from(d.is_none());
            if t != t_base || d != d_base {
                writer.encode_entry(k, *t, d);
            }
        }
        Some(VersionDelta {
            delta: writer.finish(),
            full: full_len(t.len(), bottoms),
        })
    }

    /// Encoded size of the delta, its count included.
    fn len(&self) -> usize {
        self.delta.encoded_len()
    }

    /// Whether the delta is smaller than the full version.
    pub fn is_smaller(&self) -> bool {
        self.len() < self.full
    }

    /// Writes `mark | count`, then the entries.
    pub fn encode_into<S: Sink>(&self, mark: u32, out: &mut S) {
        self.delta.encode_into(mark, out);
    }

    /// The delta written.
    pub fn into_delta(self) -> Delta {
        self.delta
    }
}

/// Encoded size of a full version of arity `n` with `bottoms` digests
/// `⊥`: two length prefixes, a timestamp each, a digest option each.
fn full_len(n: usize, bottoms: usize) -> usize {
    8 + 8 * n + 33 * n - 32 * bottoms
}

/// Reads `count` delta entries in `layout`, handing each `(k, V[k],
/// M[k])` to `apply`: the one reader of both layouts. Indices must
/// strictly increase — the compact layout cannot say otherwise — and
/// stay below `n`; the first that does not is [`WireError::BadLength`]
/// of it, found before the entry's remaining bytes are read. Nothing is
/// reserved for the claimed count, and no digest is passed back through
/// a `Result` (the module docs, "What a pass costs").
#[inline]
fn decode_entries(
    input: &mut &[u8],
    count: u32,
    n: usize,
    layout: EntryLayout,
    mut apply: impl FnMut(usize, Timestamp, Option<Digest>),
) -> Result<(), WireError> {
    let (mut rest, mut at) = (*input, EntryPos::default());
    for _ in 0..count {
        let (k, timestamp, present) = match (layout, at.prev, rest) {
            // A one-byte head and step: the common entry, read at once.
            (EntryLayout::Compact, Some(prev), [head @ 0..0x80, step @ 0..0x80, tail @ ..]) => {
                let k = at.next + usize::from(head >> 1);
                if k >= n {
                    return Err(WireError::BadLength(k as u64));
                }
                rest = tail;
                let step = unzigzag(u64::from(*step));
                (k, prev.wrapping_add(step), head & 1 == 1)
            }
            (EntryLayout::Compact, prev, _) => {
                let head = decode_varint(&mut rest)?;
                let k = (at.next as u64).saturating_add(head >> 1);
                if k >= n as u64 {
                    return Err(WireError::BadLength(k));
                }
                let timestamp = match prev {
                    None => u64::decode_from(&mut rest)?,
                    Some(prev) => prev.wrapping_add(unzigzag(decode_varint(&mut rest)?)),
                };
                (k as usize, timestamp, head & 1 == 1)
            }
            (EntryLayout::Fixed, ..) => {
                let k = u32::decode_from(&mut rest)? as usize;
                if k < at.next || k >= n {
                    return Err(WireError::BadLength(k as u64));
                }
                let timestamp = u64::decode_from(&mut rest)?;
                let present = match rest {
                    [tag @ (0 | 1), tail @ ..] => {
                        rest = tail;
                        *tag == 1
                    }
                    [t, ..] => return Err(WireError::BadTag(*t)),
                    [] => return Err(WireError::Truncated),
                };
                (k, timestamp, present)
            }
        };
        match present {
            false => apply(k, timestamp, None),
            true => Digest::decode_then(&mut rest, |digest| apply(k, timestamp, Some(digest)))?,
        }
        at = EntryPos {
            next: k + 1,
            prev: Some(timestamp),
        };
    }
    *input = rest;
    Ok(())
}

/// `base` with the `count` entries read from `input` in `layout` written
/// over a copy: the one resolver, behind [`Delta::resolve`],
/// [`decode_version_against`] and [`CommitDelta::decode_against`].
///
/// # Errors
///
/// A delta may carry at most `n` entries, `n` the base's arity, at
/// strictly increasing indices below `n`; anything else is
/// [`WireError::BadLength`] of the offending count or index.
fn resolve_entries(
    input: &mut &[u8],
    count: u32,
    base: &Version,
    layout: EntryLayout,
) -> Result<Version, WireError> {
    let n = base.num_clients();
    check_count(count, n)?;
    let (mut t, mut d) = (base.v().as_slice().to_vec(), base.m().as_slice().to_vec());
    decode_entries(input, count, n, layout, |k, timestamp, digest| {
        t[k] = timestamp;
        d[k] = digest;
    })?;
    Ok(Version::new(
        TimestampVec::from_vec(t),
        DigestVec::from_vec(d),
    ))
}

/// `version` against `base`: a [`Delta`] with its count marked by bit 31
/// when that is smaller, else in full (whose first length prefix never
/// has bit 31). [`decode_version_against`] reads either. A read REPLY's
/// `SVER[j]` and each `SVER` entry of a snapshot after its first travel
/// this way.
pub fn encode_version_against<S: Sink>(version: &Version, base: &Version, out: &mut S) {
    match VersionDelta::against(version, base).filter(VersionDelta::is_smaller) {
        Some(delta) => delta.encode_into(DELTA_MARK, out),
        None => version.encode_into(out),
    }
}

/// A version written by [`encode_version_against`] with the same `base`,
/// a delta's entries laid out as `layout` says.
///
/// # Errors
///
/// As [`Version`]'s decoder for the full form, as [`Delta::resolve`] for
/// a delta, whose count and indices are checked as they are read.
pub fn decode_version_against(
    input: &mut &[u8],
    base: &Version,
    layout: EntryLayout,
) -> Result<Version, WireError> {
    let word = u32::decode_from(input)?;
    if word & DELTA_MARK == 0 {
        return decode_version(word, input);
    }
    resolve_entries(input, word & !DELTA_MARK, base, layout)
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

impl SubmitMsg {
    /// Appends every field but the piggyback: the encoding up to its
    /// option tag. The store's log follows it with the piggybacked COMMIT
    /// as a [`CommitDelta`].
    pub fn encode_head_into<S: Sink>(&self, out: &mut S) {
        self.timestamp.encode_into(out);
        self.tuple.encode_into(out);
        self.value.encode_into(out);
        self.data_sig.encode_into(out);
    }

    /// Reads what [`SubmitMsg::encode_head_into`] wrote, as a SUBMIT
    /// without a piggyback.
    ///
    /// # Errors
    ///
    /// As the fields' decoders.
    pub fn decode_head(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(SubmitMsg {
            timestamp: Timestamp::decode_from(input)?,
            tuple: InvocationTuple::decode_from(input)?,
            value: Option::<Value>::decode_from(input)?,
            data_sig: Signature::decode_from(input)?,
            piggyback: None,
        })
    }
}

impl Wire for SubmitMsg {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        self.encode_head_into(out);
        self.piggyback.encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        let head = Self::decode_head(input)?;
        Ok(SubmitMsg {
            piggyback: Option::<CommitMsg>::decode_from(input)?,
            ..head
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
    /// `None` also while [`LeftOut::value`] names it.
    pub mem_value: Option<Value>,
    /// `MEM[j].δ` — the writer's DATA-signature (`None` before the writer's
    /// first operation).
    pub mem_data_sig: Option<Signature>,
}

/// The option tag of a read REPLY's `MEM[j].x` that names a value instead
/// of carrying it (see [`ReplyMsg`]); `0` is `⊥` and `1` a value.
const VALUE_NAME_TAG: u8 = 2;

impl ReadReply {
    /// Everything of the read part after `SVER[j]`'s version, with
    /// `MEM[j].x` as the name `name` if there is one.
    fn encode_rest<S: Sink>(&self, name: Option<Timestamp>, out: &mut S) {
        self.writer_version.sig.encode_into(out);
        self.mem_timestamp.encode_into(out);
        match name {
            None => self.mem_value.encode_into(out),
            Some(t) => {
                out.push(VALUE_NAME_TAG);
                t.encode_into(out);
            }
        }
        self.mem_data_sig.encode_into(out);
    }

    /// The read part whose `SVER[j]` version was already read, and the
    /// name its value came as, if it did.
    fn decode_rest(
        version: Version,
        input: &mut &[u8],
    ) -> Result<(Self, Option<Timestamp>), WireError> {
        let writer_version = SignedVersion {
            version,
            sig: Option::<Signature>::decode_from(input)?,
        };
        let mem_timestamp = Timestamp::decode_from(input)?;
        let (mem_value, name) = match *input {
            [VALUE_NAME_TAG, rest @ ..] => {
                *input = rest;
                (None, Some(Timestamp::decode_from(input)?))
            }
            _ => (Option::<Value>::decode_from(input)?, None),
        };
        let read = ReadReply {
            writer_version,
            mem_timestamp,
            mem_value,
            mem_data_sig: Option::<Signature>::decode_from(input)?,
        };
        Ok((read, name))
    }
}

/// `⟨REPLY, c, SVER[c], [SVER[j], MEM[j],] L, P⟩` — the server's answer to
/// a SUBMIT.
///
/// Every server builds it in full. On its way out the engine leaves out
/// what the recipient already holds from the same connection
/// ([`ReplyMsg::leave_out`], which records it in [`ReplyMsg::left_out`]),
/// and the client puts that back before any check reads the REPLY
/// ([`ReplyMsg::fill_in`]). Each part travels in one of these forms:
///
/// ```text
///   SVER[c]   full:   V: u32 len | u64^len | M: u32 len | Option<Digest>^len | sig
///             delta:  (bit 31 | count): u32 | entry^count | t: u64 | sig
///             marker: bit 30: u32 | t: u64
///   SVER[j]   full, or delta: (bit 31 | count): u32 | entry^count
///   MEM[j].x  ⊥: 0: u8 | value: 1: u8 | len: u32 | byte^len | name: 2: u8 | t_r: u64
///   L         full:   count: u32 | tuple^count
///             kept:   (bit 31 | count): u32 | k: u32 | tuple^count
/// ```
///
/// * `SVER[c]`'s delta and marker stand against the recipient's own
///   COMMIT whose own entry `V[i]` is `t` (the timestamp of the operation
///   it commits): the delta is a [`Delta`] against its version, its
///   entries steps from one another ([`EntryLayout::Compact`]), with the
///   signature `SVER[c]` carries; the marker is its version and
///   COMMIT-signature both. In round-robin lockstep at n = 64, 63 of
///   `SVER[c]`'s entries moved since that COMMIT, and the delta is 2 153
///   bytes where the full version is 2 632.
/// * A read's `SVER[j]` goes as a [`Delta`] against the full
///   `SVER[c]` when both have the same arity and that is smaller. When
///   `SVER[c]` was left out, that base and its arity are known only once
///   it is filled in, so the decoder keeps such a delta as read, checking
///   only that its indices strictly increase.
/// * A named `MEM[j].x` is the value the REPLY to the recipient's own read
///   of `j` at `t_r` delivered. Tag 2 is legal in that position only;
///   anywhere else an option's tag is 0 or 1, else [`WireError::BadTag`].
/// * A kept `L` is the last `k` tuples of the `L` of the REPLY released to
///   the same client before this one, then the tuples that travelled.
///
/// The names `t` and `t_r` are absolute, not relative to the SUBMIT the
/// REPLY answers, so a replayed or reordered REPLY stands for what the
/// server built. A full version's first word, a delta's count, `L`'s count
/// and `k` are at most 2²⁴, a delta's indices strictly increase, and `k`
/// is at least 1; anything else is [`WireError::BadLength`]. A delta whose
/// base the decoder knows, `SVER[j]`'s against a full `SVER[c]`, must also
/// fit that base's arity; one against a COMMIT of the recipient's is
/// checked against it by [`ReplyMsg::fill_in`]. Every form is chosen by
/// size or identity, so `decode(encode(m)) == m`, and a REPLY that leaves
/// out nothing is byte for byte what every server builds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyMsg {
    /// `c` — the client that committed the last operation in the schedule.
    pub last_committer: ClientId,
    /// `SVER[c]` — that client's last committed version. While
    /// [`LeftOut::commit`] is set, its version is empty and its signature
    /// is the one the delta form carries (`None` for the marker).
    pub commit_version: SignedVersion,
    /// Read-only extras (`SVER[j]`, `MEM[j]`) — present iff the submitted
    /// operation was a read. While `SVER[c]` is left out and `SVER[j]`
    /// came as a delta, its version is empty.
    pub read: Option<ReadReply>,
    /// `L` — invocation tuples of submitted-but-uncommitted (concurrent)
    /// operations, oldest first; while [`LeftOut::kept`] is `k > 0`, only
    /// those after the kept ones: the tuples that travelled.
    pub pending: Vec<InvocationTuple>,
    /// `P` — PROOF-signatures, indexed by client. A correct server fills
    /// only the slots of clients with a tuple in `L`, the only ones
    /// Algorithm 1 reads; the rest, and a slot before its client's first
    /// commit, are empty.
    pub proofs: Proofs,
    /// What this REPLY left out; nothing in every REPLY a server builds.
    pub left_out: LeftOut,
}

/// The parts of a [`ReplyMsg`] left out because its recipient holds them
/// from the same connection. The default leaves out nothing: the full
/// form.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LeftOut {
    /// `k` — how many tuples at the front of `L` are the last `k` of the
    /// previous REPLY's `L`, and are not in `pending`.
    pub kept: u32,
    /// How `SVER[c]` travelled against one of the recipient's own COMMITs.
    pub commit: Option<AgainstOwn>,
    /// `t_r` when a read's `MEM[j].x` travelled as a name.
    pub value: Option<Timestamp>,
}

/// A REPLY's `SVER[c]` as sent against one of its recipient's own
/// COMMITs (see [`ReplyMsg`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgainstOwn {
    /// `t` — the COMMIT named is the recipient's for its operation at
    /// timestamp `t`, its own entry `V[i]`.
    pub base: Timestamp,
    /// `SVER[c]`'s version as the entries where it differs from that
    /// COMMIT's; `None` for the marker.
    delta: Option<Delta>,
    /// A read's `SVER[j]` as a delta against the full `SVER[c]`.
    writer: Option<Delta>,
}

impl AgainstOwn {
    /// `SVER[c]` against the COMMIT at `base`: as the marker when `delta`
    /// is `None`, else as `delta`; and a read's `SVER[j]` as `writer`, if
    /// given, whatever their sizes: the engine uses
    /// [`ReplyMsg::leave_out`], which picks the entries and a form.
    pub fn new(base: Timestamp, delta: Option<Delta>, writer: Option<Delta>) -> Self {
        AgainstOwn {
            base,
            delta,
            writer,
        }
    }

    /// Whether `SVER[c]` is the named COMMIT byte for byte — its version
    /// and its COMMIT-signature — and travelled as the marker alone.
    pub fn is_marker(&self) -> bool {
        self.delta.is_none()
    }

    /// `SVER[c]`'s version as a delta against the named COMMIT's; `None`
    /// for the marker.
    pub fn delta(&self) -> Option<&Delta> {
        self.delta.as_ref()
    }
}

impl Wire for ReplyMsg {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        self.last_committer.encode_into(out);
        let own = self.left_out.commit.as_ref();
        match own {
            None => self.commit_version.encode_into(out),
            Some(own) => match &own.delta {
                None => {
                    SAME_MARK.encode_into(out);
                    own.base.encode_into(out);
                }
                Some(delta) => {
                    delta.encode_into(DELTA_MARK, out);
                    own.base.encode_into(out);
                    self.commit_version.sig.encode_into(out);
                }
            },
        }
        match &self.read {
            None => out.push(0),
            Some(read) => {
                out.push(1);
                let writer = &read.writer_version.version;
                match own {
                    None => encode_version_against(writer, &self.commit_version.version, out),
                    Some(AgainstOwn {
                        writer: Some(delta),
                        ..
                    }) => delta.encode_into(DELTA_MARK, out),
                    Some(_) => writer.encode_into(out),
                }
                read.encode_rest(self.left_out.value, out);
            }
        }
        let kept = self.left_out.kept;
        if kept == 0 {
            self.pending.encode_into(out);
        } else {
            (DELTA_MARK | self.pending.len() as u32).encode_into(out);
            kept.encode_into(out);
            for tuple in &self.pending {
                tuple.encode_into(out);
            }
        }
        self.proofs.encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        let last_committer = ClientId::decode_from(input)?;
        let word = u32::decode_from(input)?;
        let mut left_out = LeftOut::default();
        let commit_version = if word == SAME_MARK {
            let base = Timestamp::decode_from(input)?;
            left_out.commit = Some(AgainstOwn::new(base, None, None));
            SignedVersion::initial(0)
        } else if word & DELTA_MARK != 0 {
            let delta = Some(Delta::decode(word & !DELTA_MARK, MAX_LEN as usize, input)?);
            let base = Timestamp::decode_from(input)?;
            left_out.commit = Some(AgainstOwn {
                base,
                delta,
                writer: None,
            });
            SignedVersion {
                version: Version::initial(0),
                sig: Option::<Signature>::decode_from(input)?,
            }
        } else {
            SignedVersion {
                version: decode_version(word, input)?,
                sig: Option::<Signature>::decode_from(input)?,
            }
        };
        let read = match u8::decode_from(input)? {
            0 => None,
            1 => {
                let version = match &mut left_out.commit {
                    None => {
                        let base = &commit_version.version;
                        decode_version_against(input, base, EntryLayout::Compact)?
                    }
                    Some(own) => match u32::decode_from(input)? {
                        word if word & DELTA_MARK != 0 => {
                            own.writer =
                                Some(Delta::decode(word & !DELTA_MARK, MAX_LEN as usize, input)?);
                            Version::initial(0)
                        }
                        word => decode_version(word, input)?,
                    },
                };
                let (read, name) = ReadReply::decode_rest(version, input)?;
                left_out.value = name;
                Some(read)
            }
            t => return Err(WireError::BadTag(t)),
        };
        let word = u32::decode_from(input)?;
        if word & DELTA_MARK != 0 {
            left_out.kept = match u32::decode_from(input)? {
                k if k == 0 || u64::from(k) > MAX_LEN => {
                    return Err(WireError::BadLength(k.into()))
                }
                k => k,
            };
        }
        let (len, reserve) = bounded_len(word & !DELTA_MARK, input)?;
        Ok(ReplyMsg {
            last_committer,
            commit_version,
            read,
            pending: decode_elements(len, reserve, input)?,
            proofs: Proofs::decode_from(input)?,
            left_out,
        })
    }
}

impl ReplyMsg {
    /// Leaves out of a REPLY as a server built it what the connection
    /// already carried to its recipient, and makes `pending` this REPLY's
    /// full `L`:
    ///
    /// * `L` against `pending`, the `L` of the REPLY released to the same
    ///   client before this one: the tuples at its front that are the tail
    ///   of `pending` — starting where `pending` holds `L`'s first tuple,
    ///   checked tuple for tuple — are kept. The two lists trade buffers:
    ///   only the tuples after the kept ones are copied.
    /// * `SVER[c]` against `commit`, the recipient's last COMMIT before the
    ///   SUBMIT this REPLY answers and `t`, its own entry in it: the
    ///   marker when the two are equal, for these types byte for byte;
    ///   else a delta plus `SVER[c]`'s signature when that is smaller;
    ///   else in full. A read's `SVER[j]` keeps its form against the full
    ///   `SVER[c]`.
    /// * A read's `MEM[j].x` against `value`, the value last sent the
    ///   recipient for `j` and `t_r`, the timestamp of the read whose
    ///   REPLY delivered it: a name when it is that very value by
    ///   [`Value::same_allocation`], never by its bytes; else in full.
    pub fn leave_out(
        &mut self,
        pending: &mut Vec<InvocationTuple>,
        commit: Option<(Timestamp, &SignedVersion)>,
        value: Option<(Timestamp, &Value)>,
    ) {
        if let Some((t, base)) = commit {
            self.left_out.commit = self.against_own(t, base);
        }
        if let (Some(read), Some((t, base))) = (&mut self.read, value) {
            let value = &mut read.mem_value;
            if value.as_ref().is_some_and(|v| v.same_allocation(base)) {
                *value = None;
                self.left_out.value = Some(t);
            }
        }
        let tail = self
            .pending
            .first()
            .and_then(|first| pending.iter().position(|t| t == first))
            .map(|at| &pending[at..])
            .filter(|tail| self.pending.starts_with(tail));
        let kept = tail.map_or(0, <[_]>::len);
        pending.clear();
        pending.extend_from_slice(&self.pending[kept..]);
        std::mem::swap(pending, &mut self.pending);
        self.left_out.kept = kept as u32;
    }

    /// `SVER[c]` sent against `base`, the recipient's COMMIT of its
    /// operation at `t` (see [`ReplyMsg::leave_out`]); `None`, with the
    /// REPLY left as it is, when the full form is no larger. The delta is
    /// written in the walk that compares the two versions, and its size
    /// is known once written: an entry a small step from the one before
    /// costs less than the full form spends on it, so no count of moved
    /// entries settles the choice sooner.
    fn against_own(&mut self, t: Timestamp, base: &SignedVersion) -> Option<AgainstOwn> {
        let delta = if self.commit_version == *base {
            None
        } else {
            let (version, base) = (&self.commit_version.version, &base.version);
            // The delta form also carries `t`.
            let delta = VersionDelta::against(version, base).filter(|d| d.len() + 8 < d.full);
            Some(delta?.into_delta())
        };
        let version = std::mem::replace(&mut self.commit_version.version, Version::initial(0));
        if delta.is_none() {
            self.commit_version.sig = None;
        }
        let writer = self.read.as_mut().and_then(|read| {
            let writer = &mut read.writer_version.version;
            let delta = VersionDelta::against(writer, &version).filter(VersionDelta::is_smaller);
            let delta = delta?.into_delta();
            *writer = Version::initial(0);
            Some(delta)
        });
        Some(AgainstOwn {
            base: t,
            delta,
            writer,
        })
    }

    /// Puts back what [`ReplyMsg::leave_out`] left out, from what the
    /// recipient holds: `pending`, the `L` of the last REPLY it processed,
    /// in whose buffer the full `L` is built; `commit`, its own COMMIT
    /// whose own entry is `t`, to rebuild `SVER[c]` and a read's
    /// `SVER[j]`; and `value`, the value that the REPLY to its read at
    /// `t_r` of the register read delivered. Afterwards the REPLY leaves
    /// out nothing; a full REPLY is left as it is.
    ///
    /// # Errors
    ///
    /// What could not be put back: a kept tail longer than `pending`, a
    /// name the recipient holds nothing for, or a delta with a count above
    /// its base's arity or an index at or past it ([`Delta::resolve`]). The
    /// REPLY is then left as it is.
    pub fn fill_in<'a>(
        &mut self,
        mut pending: Vec<InvocationTuple>,
        commit: impl FnOnce(Timestamp) -> Option<(&'a Version, Signature)>,
        value: impl FnOnce(Timestamp) -> Option<Value>,
    ) -> Result<(), &'static str> {
        let (kept, name) = (self.left_out.kept as usize, self.left_out.value);
        let skip = pending.len().checked_sub(kept);
        let skip = skip.ok_or("pending list keeps more than the last reply's")?;
        let commit = match &self.left_out.commit {
            None => None,
            Some(own) => {
                let named = commit(own.base);
                let (base, sig) = named.ok_or("commit version names no COMMIT we hold")?;
                let range = |_| "commit version delta out of range";
                let version = match &own.delta {
                    None => base.clone(),
                    Some(delta) => delta.resolve(base).map_err(range)?,
                };
                let writer = match (&self.read, &own.writer) {
                    (Some(_), Some(writer)) => Some(writer.resolve(&version).map_err(range)?),
                    _ => None,
                };
                Some((version, writer, own.is_marker().then_some(sig)))
            }
        };
        let value = match (&self.read, name) {
            (Some(_), Some(t)) => Some(value(t).ok_or("read value names no value we hold")?),
            _ => None,
        };
        if kept > 0 {
            pending.drain(..skip);
            pending.append(&mut self.pending);
            self.pending = pending;
        }
        if let Some((version, writer, sig)) = commit {
            if let (Some(read), Some(writer)) = (&mut self.read, writer) {
                read.writer_version.version = writer;
            }
            if sig.is_some() {
                self.commit_version.sig = sig;
            }
            self.commit_version.version = version;
        }
        if let (Some(read), Some(value)) = (&mut self.read, value) {
            read.mem_value = Some(value);
        }
        self.left_out = LeftOut::default();
        Ok(())
    }
}

/// `P` of a REPLY: one optional PROOF-signature per client. A correct
/// server fills only the slots of clients with a tuple in `L`, so this
/// keeps the arity `n` and the filled slots alone; at `n = 64` a REPLY
/// holds a few signatures instead of 64 slots of 65 bytes. On the wire
/// it is what a vector of `n` options is, one tag per slot:
///
/// ```text
///   n: u32 | (0: u8 | 1: u8 | Signature)^n
/// ```
///
/// The decoder reads an `n` of at most 2²⁴ and reserves nothing for it:
/// what it keeps grows with the signatures present, at least 33 bytes of
/// input each.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Proofs {
    n: usize,
    /// The filled slots, at strictly increasing `k`.
    filled: Vec<(u32, Signature)>,
}

impl Proofs {
    /// `n` empty slots.
    pub fn none(n: usize) -> Self {
        Proofs {
            n,
            filled: Vec::new(),
        }
    }

    /// The arity `n`: how many slots, filled or not.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether there are no slots (`n = 0`).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The signature in slot `k`; `None` if it is empty or `k ≥ n`.
    pub fn get(&self, k: ClientId) -> Option<&Signature> {
        let at = self.filled.binary_search_by_key(&k.as_u32(), |(k, _)| *k);
        at.ok().map(|at| &self.filled[at].1)
    }

    /// Fills slot `k` with `sig`, or empties it if `sig` is `None`.
    ///
    /// # Panics
    ///
    /// Panics if `k ≥ n`.
    pub fn set(&mut self, k: ClientId, sig: Option<Signature>) {
        assert!(k.index() < self.n, "proof slot {k:?} of {}", self.n);
        let at = self.filled.binary_search_by_key(&k.as_u32(), |(k, _)| *k);
        match (at, sig) {
            (Ok(at), Some(sig)) => self.filled[at].1 = sig,
            (Ok(at), None) => {
                self.filled.remove(at);
            }
            (Err(at), Some(sig)) => self.filled.insert(at, (k.as_u32(), sig)),
            (Err(_), None) => {}
        }
    }

    /// Every slot, in order.
    pub fn iter(&self) -> impl Iterator<Item = Option<&Signature>> + '_ {
        let mut filled = self.filled.iter().peekable();
        (0..self.n as u32).map(move |k| filled.next_if(|(at, _)| *at == k).map(|(_, sig)| sig))
    }
}

/// The slots of a vector of options, in order.
impl From<Vec<Option<Signature>>> for Proofs {
    fn from(slots: Vec<Option<Signature>>) -> Self {
        slots.into_iter().collect()
    }
}

impl FromIterator<Option<Signature>> for Proofs {
    fn from_iter<I: IntoIterator<Item = Option<Signature>>>(slots: I) -> Self {
        let mut proofs = Proofs::default();
        for slot in slots {
            if let Some(sig) = slot {
                proofs.filled.push((proofs.n as u32, sig));
            }
            proofs.n += 1;
        }
        proofs
    }
}

/// As the vector of options it stands for.
impl fmt::Debug for Proofs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Wire for Proofs {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        (self.n as u32).encode_into(out);
        for slot in self.iter() {
            match slot {
                None => out.push(0),
                Some(sig) => {
                    out.push(1);
                    sig.encode_into(out);
                }
            }
        }
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        let (n, _) = decode_len(input)?;
        let (mut rest, mut filled) = (*input, Vec::new());
        for k in 0..n as u32 {
            let slot = |slot: Option<Signature>| filled.extend(slot.map(|sig| (k, sig)));
            Option::<Signature>::decode_then(&mut rest, slot)?;
        }
        *input = rest;
        Ok(Proofs { n, filled })
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

/// `⟨COMMIT, Δ, φ, ψ⟩` — a [`CommitMsg`] sent as a [`Delta`] against
/// the `commit_version` of the REPLY it answers, which the server still
/// holds (its duplicate-reply cache). In lockstep that is the
/// committer's own entry alone (Algorithm 1, lines 37–47, with `L`
/// empty): 45 bytes, its count included, where the full version has `n`
/// entries. The
/// signatures are the full COMMIT's, over the full version.
///
/// ```text
///   Delta | φ | ψ
/// ```
///
/// The frame carries no arity, so decoding checks only that the indices
/// strictly increase; [`CommitDelta::resolve`] checks the count and the
/// indices against the base. The store's COMMIT records are this
/// message after the committer's id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitDelta {
    /// The committed version, as the entries where it differs from the
    /// base.
    pub version: Delta,
    /// COMMIT-signature `φ` over the full version.
    pub commit_sig: Signature,
    /// PROOF-signature `ψ` over `M_i[i]`.
    pub proof_sig: Signature,
}

impl CommitDelta {
    /// `commit` as the entries `indices` (strictly increasing, each below
    /// its arity), if that is smaller than the full COMMIT. The caller
    /// knows which entries moved without holding the base: a client's
    /// fold touches only its own entry and those of the clients in `L`.
    pub fn of(commit: &CommitMsg, indices: &[usize]) -> Option<Self> {
        Self::sent(VersionDelta::listed(&commit.version, indices), commit)
    }

    /// `commit` as a delta against `base`, the `commit_version` of the
    /// REPLY it answers: every entry where the two differ. `None` when
    /// the arities differ or the delta would not be smaller.
    pub fn against(base: &Version, commit: &CommitMsg) -> Option<Self> {
        Self::sent(VersionDelta::against(&commit.version, base)?, commit)
    }

    /// `delta` with `commit`'s signatures, if it is smaller.
    fn sent(delta: VersionDelta, commit: &CommitMsg) -> Option<Self> {
        delta.is_smaller().then(|| CommitDelta {
            version: delta.into_delta(),
            commit_sig: commit.commit_sig,
            proof_sig: commit.proof_sig,
        })
    }

    /// The full COMMIT a delta whose count word `count` was already read
    /// stands for over `base`, its entries read in `layout` straight into
    /// the copy — the store's reader, which holds the base as it reads.
    ///
    /// # Errors
    ///
    /// As [`Delta::resolve`]; [`WireError::Truncated`].
    pub fn decode_against(
        count: u32,
        base: &Version,
        layout: EntryLayout,
        input: &mut &[u8],
    ) -> Result<CommitMsg, WireError> {
        Ok(CommitMsg {
            version: resolve_entries(input, count, base, layout)?,
            commit_sig: Signature::decode_from(input)?,
            proof_sig: Signature::decode_from(input)?,
        })
    }

    /// The full COMMIT: `base` with this delta's entries written over it.
    ///
    /// # Errors
    ///
    /// As [`Delta::resolve`].
    pub fn resolve(&self, base: &Version) -> Result<CommitMsg, WireError> {
        Ok(CommitMsg {
            version: self.version.resolve(base)?,
            commit_sig: self.commit_sig,
            proof_sig: self.proof_sig,
        })
    }
}

impl Wire for CommitDelta {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        self.version.encode_into(0, out);
        self.commit_sig.encode_into(out);
        self.proof_sig.encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        let count = u32::decode_from(input)?;
        Ok(CommitDelta {
            version: Delta::decode(count, MAX_LEN as usize, input)?,
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
    /// Client → server: a COMMIT as a delta against the REPLY it answers,
    /// sent only on the connection that REPLY came in on.
    CommitDelta(CommitDelta),
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
            UstorMsg::CommitDelta(m) => {
                out.push(3);
                m.encode_into(out);
            }
        }
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode_from(input)? {
            0 => Ok(UstorMsg::Submit(SubmitMsg::decode_from(input)?)),
            1 => Ok(UstorMsg::Reply(ReplyMsg::decode_from(input)?)),
            2 => Ok(UstorMsg::Commit(CommitMsg::decode_from(input)?)),
            3 => Ok(UstorMsg::CommitDelta(CommitDelta::decode_from(input)?)),
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
            proofs: vec![Some(sig(6)), None, Some(sig(7))].into(),
            left_out: LeftOut::default(),
        }
    }

    /// `reply` as sent to a client that holds `value` from its read at
    /// `t`, and nothing else.
    fn named(mut reply: ReplyMsg, t: Timestamp, value: &Value) -> ReplyMsg {
        reply.leave_out(&mut Vec::new(), None, Some((t, value)));
        reply
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
    fn proofs_are_byte_for_byte_the_vector_of_options_they_stand_for() {
        let shapes: [Vec<Option<Signature>>; 5] = [
            vec![],
            vec![None; 64],
            vec![Some(sig(1)), None, Some(ed_sig(2))],
            (0..130)
                .map(|k| (k % 67 == 3).then(|| sig(k as u8)))
                .collect(),
            vec![Some(ed_sig(9)); 4],
        ];
        for slots in shapes {
            let proofs = Proofs::from(slots.clone());
            let bytes = slots.encode();
            assert_eq!(proofs.encode(), bytes);
            assert_eq!(proofs.encoded_len(), bytes.len());
            assert_eq!(format!("{proofs:?}"), format!("{slots:?}"));
            assert_eq!(proofs.iter().map(|p| p.copied()).collect::<Vec<_>>(), slots);
            let decoded = Proofs::decode(&bytes).unwrap();
            assert_eq!(decoded, proofs);
            // Every damaged copy fails, or decodes, exactly as the vector.
            for (_, bad) in crate::testutil::mutations(&bytes) {
                let vector = Vec::<Option<Signature>>::decode(&bad).map(Proofs::from);
                assert_eq!(Proofs::decode(&bad), vector);
            }
        }
    }

    #[test]
    fn proof_slots_are_set_and_read_by_client() {
        let mut proofs = Proofs::none(4);
        assert_eq!((proofs.len(), proofs.get(ClientId::new(2))), (4, None));
        proofs.set(ClientId::new(2), Some(sig(2)));
        proofs.set(ClientId::new(0), Some(sig(0)));
        proofs.set(ClientId::new(2), Some(sig(3)));
        assert_eq!(proofs.get(ClientId::new(2)), Some(&sig(3)));
        assert_eq!(proofs, vec![Some(sig(0)), None, Some(sig(3)), None].into());
        proofs.set(ClientId::new(0), None);
        proofs.set(ClientId::new(1), None);
        assert_eq!(proofs, vec![None, None, Some(sig(3)), None].into());
        assert_eq!(proofs.get(ClientId::new(9)), None, "past n: empty");
        assert!(std::panic::catch_unwind(move || proofs.set(ClientId::new(4), None)).is_err());
    }

    #[test]
    fn a_claimed_proof_arity_reserves_nothing() {
        // 2²⁴ slots claimed by a few bytes: the decoder walks the bytes
        // there are and fails; a sparse `P` keeps only the signatures it
        // read, never a slot per claimed client.
        let max = MAX_LEN as u32;
        let some = [&[0u8; 5][..], &[1, 0], &[7; 32], &[0; 3]].concat();
        for body in [&[][..], &[0u8; 40][..], &some[..]] {
            let input = claiming(max, body);
            assert_eq!(Proofs::decode(&input), Err(WireError::Truncated));
        }
        let input = claiming(max + 1, &[0u8; 40]);
        assert_eq!(
            Proofs::decode(&input),
            Err(WireError::BadLength(MAX_LEN + 1))
        );
        // Present in full, 2²⁴ empty slots decode to no signatures at all.
        let input = claiming(max, &vec![0u8; MAX_LEN as usize]);
        let decoded = Proofs::decode(&input).unwrap();
        assert_eq!(
            (decoded.len(), decoded.filled.capacity()),
            (MAX_LEN as usize, 0)
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
            proofs: vec![None].into(),
            left_out: LeftOut::default(),
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
                r.proofs = vec![Some(sig(1)); n].into();
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
    fn full_form_frames_are_byte_identical_to_those_before_delta_frames() {
        // Lengths and SHA-256 of the frames as the encoder wrote them
        // before tag 3 and the `SVER[j]` marker existed.
        let write_reply = ReplyMsg {
            read: None,
            ..sample_reply(3)
        };
        let piggybacked = SubmitMsg {
            piggyback: Some(CommitMsg {
                version: sample_version(3),
                commit_sig: sig(8),
                proof_sig: ed_sig(9),
            }),
            ..sample_submit()
        };
        let commit = CommitMsg {
            version: sample_version(4),
            commit_sig: sig(8),
            proof_sig: sig(9),
        };
        let golden = [
            (
                UstorMsg::Submit(sample_submit()),
                101,
                "af3e498880485f4145ab0c7d0695b4ffcafd1485c6f6108a4365333b57c7e1b7",
            ),
            (
                UstorMsg::Submit(piggybacked),
                330,
                "0a89c450127f678383b6ca411d536a2c67a7725a179afa1a0ef5a1e4b0e93950",
            ),
            (
                UstorMsg::Commit(commit),
                243,
                "5f3c813d7d7cd985cc62cf5721249840c3c959abc653682b5ca1f2c969a84a97",
            ),
            (
                UstorMsg::Reply(write_reply),
                294,
                "e5f41345920631afcf2ac20121467285351f513d2848b05be37e463420241403",
            ),
        ];
        for (msg, len, digest) in golden {
            let frame = crate::frame::frame_bytes(&msg);
            assert_eq!(
                (frame.len(), sha256(&frame).to_hex().as_str()),
                (len, digest)
            );
        }
    }

    /// A read REPLY at n = 3 whose `SVER[j]` is `SVER[c]` with entry 1
    /// moved, and the offset of its `SVER[j]` marker word.
    fn near_read_reply() -> (ReplyMsg, usize) {
        let mut reply = sample_reply(3);
        let mut writer = reply.commit_version.version.clone();
        writer.v_mut().set(ClientId::new(1), 9);
        reply.read.as_mut().unwrap().writer_version = SignedVersion {
            version: writer,
            sig: Some(sig(4)),
        };
        let at = 4 + reply.commit_version.encoded_len() + 1;
        (reply, at)
    }

    #[test]
    fn a_read_replys_writer_version_goes_as_a_delta_when_smaller() {
        let (reply, at) = near_read_reply();
        let bytes = reply.encode();
        assert_eq!(bytes[at..at + 4], (DELTA_MARK | 1).to_be_bytes());
        // One 45-byte entry (its count word included) against 131 bytes:
        // a head, the timestamp in full and the digest.
        let full = reply
            .read
            .as_ref()
            .unwrap()
            .writer_version
            .version
            .encoded_len();
        assert_eq!((full, 4 + (1 + 8 + 32)), (131, 45));
        assert_eq!(ReplyMsg::decode(&bytes), Ok(reply.clone()));
        // A digest that moved on its own (a forked history) rides along.
        let mut forked = reply.clone();
        let writer = &mut forked.read.as_mut().unwrap().writer_version.version;
        writer.m_mut().set(ClientId::new(2), sha256(b"forked"));
        let bytes = forked.encode();
        assert_eq!(bytes[at..at + 4], (DELTA_MARK | 2).to_be_bytes());
        assert_eq!(ReplyMsg::decode(&bytes), Ok(forked));
        // Another arity: always in full, and still the same message back.
        let mut odd = reply;
        odd.read.as_mut().unwrap().writer_version = SignedVersion::initial(2);
        let bytes = odd.encode();
        assert_eq!(bytes[at..at + 4], 2u32.to_be_bytes());
        assert_eq!(ReplyMsg::decode(&bytes), Ok(odd));
    }

    #[test]
    fn malformed_writer_version_deltas_are_typed_errors() {
        let (reply, at) = near_read_reply();
        let good = reply.encode();
        // `bytes` with the delta's count word, then `entries` as raw
        // bytes, then the rest of the read part and the REPLY as they
        // were.
        let tail = &good[at + 4 + 1 + 8 + 32..];
        let delta = |count: u32, entries: &[&[u8]]| {
            let mut bytes = good[..at].to_vec();
            (DELTA_MARK | count).encode_into(&mut bytes);
            bytes.extend(entries.concat());
            bytes.extend_from_slice(tail);
            bytes
        };
        // Heads: the gap to the entry's index, shifted past the digest
        // bit (`⊥` in every entry here).
        let first = |gap: u8, t: u64| [&[gap << 1][..], &t.to_be_bytes()].concat();
        assert!(ReplyMsg::decode(&delta(1, &[&first(1, 9)])).is_ok());
        let cases = [
            (
                "a gap to n",
                delta(1, &[&first(3, 9)]),
                WireError::BadLength(3),
            ),
            (
                "a gap past n",
                delta(2, &[&first(1, 9), &[5 << 1, 0]]),
                WireError::BadLength(7),
            ),
            ("count > n", delta(4, &[]), WireError::BadLength(4)),
            (
                "2²⁴ claimed",
                delta(1 << 24, &[&first(0, 1)]),
                WireError::BadLength(1 << 24),
            ),
            (
                "an overlong head",
                delta(1, &[&[0x82, 0], &9u64.to_be_bytes()]),
                WireError::BadVarint,
            ),
            (
                "an overlong step",
                delta(2, &[&first(0, 9), &[0, 0x80, 0]]),
                WireError::BadVarint,
            ),
            (
                "an 11-byte head",
                delta(1, &[&[0xff; 10], &[1]]),
                WireError::BadVarint,
            ),
            (
                "a 10th byte above 1",
                delta(1, &[&[0xff; 9], &[2]]),
                WireError::BadVarint,
            ),
        ];
        for (what, bytes, error) in cases {
            assert_eq!(ReplyMsg::decode(&bytes), Err(error), "{what}");
        }
        // A count within n, its second entry missing, or cut inside a
        // varint.
        let short = delta(2, &[&first(0, 1)]);
        assert_eq!(
            ReplyMsg::decode(&short[..at + 4 + 9]),
            Err(WireError::Truncated)
        );
        let cut = delta(2, &[&first(0, 1), &[0x80]]);
        assert_eq!(
            ReplyMsg::decode(&cut[..at + 4 + 10]),
            Err(WireError::Truncated)
        );
    }

    /// What `proptests::a_read_value_named_and_resolved_is_the_reply_the_server_built`
    /// does not draw: `⊥`, static bytes, and resolving a full value.
    #[test]
    fn bottom_and_full_values_stay_as_they_are_and_static_bytes_are_one_value() {
        let full = sample_reply(3);
        let mut bottom = full.clone();
        let value = bottom.read.as_mut().unwrap().mem_value.take().unwrap();
        assert_eq!(named(bottom.clone(), 5, &value), bottom);
        let mut again = full.clone();
        let other = |_| Some(Value::from("other"));
        again.fill_in(Vec::new(), |_| None, other).unwrap();
        assert_eq!(again, full);
        let fixed = Value::from_static(b"fixed");
        let mut reply = full.clone();
        reply.read.as_mut().unwrap().mem_value = Some(fixed.clone());
        assert_eq!(named(reply, 9, &fixed).left_out.value, Some(9));
    }

    #[test]
    fn hostile_value_names_are_typed_errors() {
        let reply = sample_reply(3);
        let value = reply.read.as_ref().unwrap().mem_value.clone().unwrap();
        let bytes = named(reply, 5, &value).encode();
        // The name sits after `SVER[j]`, its signature and `t_j`, before
        // `δ_j` (34 bytes), `L` (4 + 42) and `P` (4 + 34 + 1 + 34).
        let at = bytes.len() - 34 - 46 - 73 - 9;
        assert_eq!(bytes[at..at + 9], [&[2][..], &5u64.to_be_bytes()].concat());
        for cut in at..at + 9 {
            assert_eq!(ReplyMsg::decode(&bytes[..cut]), Err(WireError::Truncated));
        }
        for tag in [3, 0x82, 0xFF] {
            let mut bad = bytes.clone();
            bad[at] = tag;
            assert_eq!(ReplyMsg::decode(&bad), Err(WireError::BadTag(tag)));
        }
        // Any `t_r` decodes; whether it names anything is the client's
        // to judge.
        let mut far = bytes.clone();
        far[at + 1..at + 9].copy_from_slice(&u64::MAX.to_be_bytes());
        let got = ReplyMsg::decode(&far).unwrap();
        assert_eq!(got.left_out.value, Some(u64::MAX));
        // Tag 2 is a name in that position only.
        let mut submit = sample_submit().encode();
        let value_at = 8 + 4 + 1 + 4 + 33;
        assert_eq!(submit[value_at], 1);
        submit[value_at] = 2;
        assert_eq!(SubmitMsg::decode(&submit), Err(WireError::BadTag(2)));
    }

    fn commit_delta(entries: &[(u32, u64)]) -> CommitDelta {
        let entries: Vec<_> = entries
            .iter()
            .map(|&(k, t)| VersionEntry {
                client: ClientId::new(k),
                timestamp: t,
                digest: None,
            })
            .collect();
        CommitDelta {
            version: Delta::from_entries(&entries),
            commit_sig: sig(1),
            proof_sig: sig(2),
        }
    }

    #[test]
    fn malformed_commit_deltas_are_typed_errors() {
        // The frame carries no arity: varints are checked as it decodes,
        // range and count against the base they resolve on.
        let base = sample_version(3);
        let frame = |entries: &[&[u8]]| {
            let mut bytes = 1u32.to_be_bytes().to_vec();
            bytes.extend(entries.concat());
            bytes.extend([sig(1).encode(), sig(2).encode()].concat());
            bytes
        };
        let t = 5u64.to_be_bytes();
        for head in [
            &[0x80, 0][..],
            &[0xff; 11],
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f],
        ] {
            let bytes = frame(&[head, &t]);
            assert_eq!(CommitDelta::decode(&bytes), Err(WireError::BadVarint));
        }
        // An index past any arity fails as it is read, one within 2²⁴
        // where it resolves.
        let past = frame(&[&[0xfe, 0xff, 0xff, 0xff, 0x0f], &t]);
        let error = Err(WireError::BadLength((1 << 31) - 1));
        assert_eq!(CommitDelta::decode(&past), error);
        let far = CommitDelta::decode(&frame(&[&[0xc8, 0x01], &t])).unwrap();
        assert_eq!(far.resolve(&base), Err(WireError::BadLength(100)));
        let too_far = commit_delta(&[(0, 5), (3, 6)]);
        assert_eq!(too_far.resolve(&base), Err(WireError::BadLength(3)));
        let too_many = commit_delta(&[(0, 5), (1, 5), (2, 5), (3, 5)]);
        assert_eq!(too_many.resolve(&base), Err(WireError::BadLength(4)));
        let fine = commit_delta(&[(1, 5)]);
        let resolved = fine.resolve(&base).unwrap();
        assert_eq!(resolved.version.v().as_slice(), [1, 5, 3]);
        assert_eq!(resolved.version.m().get(ClientId::new(1)), None);
        let own = fine.version.get(ClientId::new(1)).map(|e| e.timestamp);
        assert_eq!(own, Some(5));
        assert_eq!(fine.version.get(ClientId::new(0)), None);
    }

    #[test]
    fn zigzag_steps_wrap_at_the_u64_extremes() {
        for (prev, t, z) in [
            (u64::MAX, 0, 2),
            (0, u64::MAX, 1),
            (7, 7, 0),
            (0, 1 << 63, u64::MAX),
        ] {
            let step = t.wrapping_sub(prev);
            assert_eq!(zigzag(step), z, "{prev} → {t}");
            assert_eq!(prev.wrapping_add(unzigzag(zigzag(step))), t);
            let delta = commit_delta(&[(0, prev), (1, t)]);
            let base = Version::initial(2);
            let resolved = delta.resolve(&base).unwrap().version;
            assert_eq!(resolved.v().as_slice(), [prev, t]);
            assert_eq!(delta.version.get(ClientId::new(1)).unwrap().timestamp, t);
        }
        for x in [0, 1, 0x7f, 0x80, 1 << 63, u64::MAX] {
            let mut bytes = Vec::new();
            encode_varint(x, &mut bytes);
            assert_eq!(
                bytes.len(),
                (64 - x.leading_zeros() as usize).div_ceil(7).max(1)
            );
            let mut input = &bytes[..];
            assert_eq!((decode_varint(&mut input), input.len()), (Ok(x), 0));
        }
    }

    #[test]
    fn a_commit_delta_claiming_2_pow_24_entries_reads_only_the_bytes_present() {
        // Two well-formed entries after the claim, then nothing: the
        // decoder reserves nothing, reads the two, and stops at the
        // third.
        let frame = commit_delta(&[(0, 1), (1, 2)]).encode();
        let entries = &frame[4..frame.len() - 2 * 33];
        assert_eq!(entries.len(), (1 + 8) + (1 + 1));
        let bytes = claiming(MAX_LEN as u32, entries);
        assert_eq!(CommitDelta::decode(&bytes), Err(WireError::Truncated));
        // Past the cap the claim itself is the error.
        let bytes = claiming(MAX_LEN as u32 + 1, entries);
        assert_eq!(
            CommitDelta::decode(&bytes),
            Err(WireError::BadLength(MAX_LEN + 1))
        );
    }

    #[test]
    fn a_lockstep_commit_delta_is_one_entry_and_smaller_than_the_full_commit() {
        let base = sample_version(64);
        let mut version = base.clone();
        version.v_mut().set(ClientId::new(5), 99);
        version.m_mut().set(ClientId::new(5), sha256(b"own"));
        let commit = CommitMsg {
            version,
            commit_sig: sig(1),
            proof_sig: sig(2),
        };
        let delta = CommitDelta::against(&base, &commit).unwrap();
        assert_eq!(delta, CommitDelta::of(&commit, &[5]).unwrap());
        let frame = crate::frame::frame_bytes(&UstorMsg::CommitDelta(delta.clone()));
        // The delta is 45 bytes: a count, a head, the timestamp, the
        // digest.
        assert_eq!(delta.version.encoded_len(), 4 + 1 + 8 + 32);
        assert_eq!(frame.len(), 4 + 1 + 45 + 33 + 33);
        assert_eq!(delta.resolve(&base), Ok(commit.clone()));
        // No delta where it would not be smaller, or the arities differ.
        assert!(CommitDelta::against(&sample_version(63), &commit).is_none());
        // Every entry costs less than in full while each timestamp is a
        // small step from the one before, and more where the steps are
        // wide.
        let every: Vec<usize> = (0..64).collect();
        assert!(CommitDelta::of(&commit, &every).is_some());
        let mut wide = commit.clone();
        for k in (1..64).step_by(2) {
            wide.version.v_mut().set(ClientId::new(k), 1 << 62);
        }
        assert!(CommitDelta::of(&wide, &every).is_none());
    }

    #[test]
    fn mismatched_version_arity_rejected() {
        let mut bytes = Vec::new();
        TimestampVec::zeros(2).encode_into(&mut bytes);
        DigestVec::bottoms(3).encode_into(&mut bytes);
        assert!(Version::decode(&bytes).is_err());
    }
}
