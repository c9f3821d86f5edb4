//! Property-based tests for the protocol data model: the version order of
//! Definition 7 is a genuine partial order, wire encodings round-trip, and
//! the stream framing survives arbitrary chunk boundaries.
//!
//! Property-style without an external framework: every case derives from a
//! seeded [`SmallRng`], so a failure reproduces exactly from its case
//! number.

use faust_crypto::{sha256, Digest};
use faust_sim::SmallRng;
use faust_types::frame::{frame_bytes, FrameDecoder};
use faust_types::testutil::mutations;
use faust_types::{
    AgainstOwn, ClientId, CommitDelta, CommitMsg, Delta, DigestVec, History, InvocationTuple,
    LeftOut, OpKind, ReadReply, ReplyMsg, SignedVersion, SubmitMsg, Timestamp, TimestampVec,
    UstorMsg, Value, Version, VersionCmp, VersionEntry, Wire, WireError,
};

const N: usize = 4;
const CASES: u64 = 256;

fn arb_digest(rng: &mut SmallRng) -> Option<Digest> {
    // A small pool of digests so that equal-timestamp entries sometimes
    // have equal and sometimes different digests.
    if rng.gen_bool(0.3) {
        None
    } else {
        Some(sha256(&[rng.gen_index(6) as u8]))
    }
}

/// Versions shaped like the ones the protocol actually commits: a digest
/// entry is `⊥` exactly when the timestamp entry is 0 (no operation of
/// that client reflected yet).
fn arb_version(rng: &mut SmallRng) -> Version {
    let v: Vec<u64> = (0..N).map(|_| rng.gen_range_inclusive(0, 3)).collect();
    let m: Vec<Option<Digest>> = v
        .iter()
        .map(|&t| {
            if t == 0 {
                None
            } else {
                arb_digest(rng).or(Some(sha256(b"fill")))
            }
        })
        .collect();
    Version::new(TimestampVec::from_vec(v), DigestVec::from_vec(m))
}

fn arb_sig(rng: &mut SmallRng) -> faust_crypto::Signature {
    let digest = sha256(&[rng.gen_index(16) as u8]).into_bytes();
    if rng.gen_bool(0.5) {
        faust_crypto::Signature::Mac(digest)
    } else {
        let mut raw = [0u8; 64];
        raw[..32].copy_from_slice(&digest);
        raw[32..].copy_from_slice(&digest);
        faust_crypto::Signature::Ed25519(raw)
    }
}

fn arb_value(rng: &mut SmallRng) -> Value {
    let len = rng.gen_index(64);
    Value::new((0..len).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>())
}

fn arb_kind(rng: &mut SmallRng) -> OpKind {
    if rng.gen_bool(0.5) {
        OpKind::Read
    } else {
        OpKind::Write
    }
}

fn arb_tuple(rng: &mut SmallRng) -> InvocationTuple {
    InvocationTuple {
        client: ClientId::new(rng.gen_index(N) as u32),
        kind: arb_kind(rng),
        register: ClientId::new(rng.gen_index(N) as u32),
        sig: arb_sig(rng),
    }
}

fn arb_signed_version(rng: &mut SmallRng) -> SignedVersion {
    SignedVersion {
        version: arb_version(rng),
        sig: rng.gen_bool(0.5).then(|| arb_sig(rng)),
    }
}

fn arb_submit(rng: &mut SmallRng) -> SubmitMsg {
    SubmitMsg {
        timestamp: rng.gen_range_inclusive(0, 999),
        tuple: arb_tuple(rng),
        value: rng.gen_bool(0.5).then(|| arb_value(rng)),
        data_sig: arb_sig(rng),
        piggyback: rng.gen_bool(0.4).then(|| CommitMsg {
            version: arb_version(rng),
            commit_sig: arb_sig(rng),
            proof_sig: arb_sig(rng),
        }),
    }
}

/// `base` with about `share` of its entries moved: a version a delta
/// against `base` encodes in fewer bytes than in full when `share` is
/// small.
fn near_version(rng: &mut SmallRng, base: &Version, share: f64) -> Version {
    let (mut v, mut m) = (base.v().as_slice().to_vec(), base.m().as_slice().to_vec());
    for k in 0..v.len() {
        if rng.gen_bool(share) {
            v[k] += 1 + rng.gen_index(3) as u64;
            m[k] = rng
                .gen_bool(0.9)
                .then(|| sha256(&rng.next_u64().to_be_bytes()));
        }
    }
    Version::new(TimestampVec::from_vec(v), DigestVec::from_vec(m))
}

/// A REPLY as the engine may send it: a third have `SVER[c]` sent
/// against a COMMIT of the recipient's ([`own_commit_near`]), a third of
/// the reads with a value name it, and a third keep a tail of the
/// previous REPLY's `L`.
fn arb_reply(rng: &mut SmallRng) -> ReplyMsg {
    let mut reply = arb_full_reply(rng);
    if rng.gen_bool(0.3) {
        let base = own_commit_near(rng, &reply.commit_version);
        reply.leave_out(&mut Vec::new(), Some((rng.next_u64() >> 8, &base)), None);
    }
    if reply.read.is_some() && rng.gen_bool(0.3) {
        named(rng, &mut reply);
    }
    if rng.gen_bool(0.3) {
        reply.left_out.kept = 1 + rng.gen_index(40) as u32;
    }
    reply
}

/// `reply` with its read value, if it has one, sent as a name.
fn named(rng: &mut SmallRng, reply: &mut ReplyMsg) {
    let value = reply.read.as_ref().and_then(|read| read.mem_value.clone());
    if let Some(value) = value {
        reply.leave_out(&mut Vec::new(), None, Some((rng.next_u64() >> 8, &value)));
        assert!(reply.left_out.value.is_some());
    }
}

/// A COMMIT of a REPLY's recipient that `signed`, the REPLY's `SVER[c]`,
/// may be sent against: half the time `signed` itself, signed (the
/// marker), else a version near it (mostly a delta).
fn own_commit_near(rng: &mut SmallRng, signed: &SignedVersion) -> SignedVersion {
    match rng.gen_bool(0.5) {
        true => SignedVersion {
            version: signed.version.clone(),
            sig: Some(signed.sig.unwrap_or_else(|| arb_sig(rng))),
        },
        false => SignedVersion {
            version: near_version(rng, &signed.version, 0.25),
            sig: Some(arb_sig(rng)),
        },
    }
}

/// A REPLY as a server builds it: `SVER[c]` in full.
fn arb_full_reply(rng: &mut SmallRng) -> ReplyMsg {
    let commit_version = arb_signed_version(rng);
    // Half the reads carry `SVER[j]` close to `SVER[c]`: the delta form.
    let writer_version = |rng: &mut SmallRng| match rng.gen_bool(0.5) {
        true => SignedVersion {
            version: near_version(rng, &commit_version.version, 0.2),
            sig: Some(arb_sig(rng)),
        },
        false => arb_signed_version(rng),
    };
    ReplyMsg {
        last_committer: ClientId::new(rng.gen_index(N) as u32),
        commit_version: commit_version.clone(),
        read: rng.gen_bool(0.5).then(|| ReadReply {
            writer_version: writer_version(rng),
            mem_timestamp: rng.gen_range_inclusive(0, 99),
            mem_value: rng.gen_bool(0.5).then(|| arb_value(rng)),
            mem_data_sig: rng.gen_bool(0.5).then(|| arb_sig(rng)),
        }),
        pending: {
            let len = rng.gen_index(4);
            (0..len).map(|_| arb_tuple(rng)).collect()
        },
        proofs: (0..N)
            .map(|_| rng.gen_bool(0.5).then(|| arb_sig(rng)))
            .collect(),
        left_out: LeftOut::default(),
    }
}

fn arb_commit(rng: &mut SmallRng) -> CommitMsg {
    CommitMsg {
        version: arb_version(rng),
        commit_sig: arb_sig(rng),
        proof_sig: arb_sig(rng),
    }
}

/// A COMMIT's delta against a version near it, as a client would send it.
fn arb_commit_delta(rng: &mut SmallRng) -> CommitDelta {
    let commit = arb_commit(rng);
    let changed: Vec<usize> = (0..N).filter(|_| rng.gen_bool(0.3)).collect();
    delta_of(&commit, &changed)
}

/// `commit` as a delta over the entries `changed`, whatever its size.
fn delta_of(commit: &CommitMsg, changed: &[usize]) -> CommitDelta {
    let entries: Vec<VersionEntry> = changed
        .iter()
        .map(|&k| VersionEntry {
            client: ClientId::new(k as u32),
            timestamp: commit.version.v().as_slice()[k],
            digest: commit.version.m().as_slice()[k],
        })
        .collect();
    CommitDelta {
        version: Delta::from_entries(&entries),
        commit_sig: commit.commit_sig,
        proof_sig: commit.proof_sig,
    }
}

fn arb_msg(rng: &mut SmallRng) -> UstorMsg {
    match rng.gen_index(4) {
        0 => UstorMsg::Submit(arb_submit(rng)),
        1 => UstorMsg::Reply(arb_reply(rng)),
        2 => UstorMsg::Commit(arb_commit(rng)),
        _ => UstorMsg::CommitDelta(arb_commit_delta(rng)),
    }
}

/// Runs `CASES` seeded cases through `f`.
fn for_cases(label: &str, mut f: impl FnMut(&mut SmallRng)) {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case.wrapping_mul(0x9E37) ^ 0xFA57);
        f(&mut rng);
        let _ = (label, case); // labels appear in panics via closures
    }
}

#[test]
fn version_le_is_reflexive() {
    for_cases("reflexive", |rng| {
        let v = arb_version(rng);
        assert!(v.le(&v));
        assert_eq!(v.compare(&v), VersionCmp::Equal);
    });
}

#[test]
fn version_le_is_antisymmetric() {
    for_cases("antisymmetric", |rng| {
        let (a, b) = (arb_version(rng), arb_version(rng));
        if a.le(&b) && b.le(&a) {
            assert_eq!(a, b);
        }
    });
}

#[test]
fn version_le_is_transitive() {
    for_cases("transitive", |rng| {
        let (a, b, c) = (arb_version(rng), arb_version(rng), arb_version(rng));
        if a.le(&b) && b.le(&c) {
            assert!(a.le(&c));
        }
    });
}

#[test]
fn version_compare_is_consistent_with_le() {
    for_cases("compare", |rng| {
        let (a, b) = (arb_version(rng), arb_version(rng));
        match a.compare(&b) {
            VersionCmp::Equal => assert!(a.le(&b) && b.le(&a)),
            VersionCmp::Less => assert!(a.le(&b) && !b.le(&a)),
            VersionCmp::Greater => assert!(!a.le(&b) && b.le(&a)),
            VersionCmp::Incomparable => assert!(!a.le(&b) && !b.le(&a)),
        }
    });
}

#[test]
fn version_le_implies_pointwise_le() {
    for_cases("pointwise", |rng| {
        let (a, b) = (arb_version(rng), arb_version(rng));
        if a.le(&b) {
            assert!(a.v().le(b.v()));
        }
    });
}

#[test]
fn initial_version_below_everything() {
    for_cases("initial", |rng| {
        let v = arb_version(rng);
        assert!(Version::initial(N).le(&v));
    });
}

#[test]
fn signing_bytes_injective_on_samples() {
    for_cases("signing-bytes", |rng| {
        let (a, b) = (arb_version(rng), arb_version(rng));
        if a != b {
            assert_ne!(a.signing_bytes(), b.signing_bytes());
        }
    });
}

#[test]
fn submit_roundtrips() {
    for_cases("submit", |rng| {
        let m = arb_submit(rng);
        assert_eq!(SubmitMsg::decode(&m.encode()), Ok(m));
    });
}

#[test]
fn reply_roundtrips() {
    for_cases("reply", |rng| {
        let m = arb_reply(rng);
        assert_eq!(ReplyMsg::decode(&m.encode()), Ok(m));
    });
}

#[test]
fn commit_roundtrips() {
    for_cases("commit", |rng| {
        let m = arb_commit(rng);
        assert_eq!(CommitMsg::decode(&m.encode()), Ok(m));
    });
}

#[test]
fn a_commit_delta_resolves_against_its_base_to_the_full_commit() {
    for_cases("commit-delta", |rng| {
        let base = arb_version(rng);
        let commit = CommitMsg {
            version: near_version(rng, &base, 0.3),
            commit_sig: arb_sig(rng),
            proof_sig: arb_sig(rng),
        };
        match CommitDelta::against(&base, &commit) {
            Some(delta) => {
                assert!(delta.encoded_len() < commit.encoded_len());
                assert_eq!(CommitDelta::decode(&delta.encode()).as_ref(), Ok(&delta));
                assert_eq!(delta.resolve(&base), Ok(commit));
            }
            // Only when every entry moved is the delta not smaller.
            None => assert!((0..N).all(|k| base.v().as_slice()[k]
                != commit.version.v().as_slice()[k]
                || base.m().as_slice()[k] != commit.version.m().as_slice()[k])),
        }
    });
}

#[test]
fn enum_roundtrips() {
    for_cases("enum", |rng| {
        let m = arb_msg(rng);
        assert_eq!(UstorMsg::decode(&m.encode()), Ok(m));
    });
}

#[test]
fn decode_never_panics_on_junk() {
    for_cases("junk", |rng| {
        let len = rng.gen_index(256);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let _ = UstorMsg::decode(&bytes);
        let _ = ReplyMsg::decode(&bytes);
        let _ = SubmitMsg::decode(&bytes);
        let _ = CommitMsg::decode(&bytes);
        let _ = CommitDelta::decode(&bytes);
    });
}

/// Stream-framing property: any sequence of messages framed back to back
/// and split at arbitrary byte boundaries decodes to the same sequence.
#[test]
fn framed_streams_roundtrip_across_arbitrary_splits() {
    for_cases("framing", |rng| {
        let msgs: Vec<UstorMsg> = (0..1 + rng.gen_index(5)).map(|_| arb_msg(rng)).collect();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&frame_bytes(m));
        }
        // Split the byte stream into random chunks (including empties).
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        let mut pos = 0;
        while pos < stream.len() {
            let chunk = 1 + rng.gen_index(17.min(stream.len() - pos));
            decoder.extend(&stream[pos..pos + chunk]);
            pos += chunk;
            while let Some(m) = decoder.next_frame::<UstorMsg>().expect("valid stream") {
                decoded.push(m);
            }
        }
        assert_eq!(decoded, msgs);
        assert_eq!(decoder.pending_bytes(), 0);
    });
}

// ---------------------------------------------------------------------------
// The order kernel against Definition 7 written out.
// ---------------------------------------------------------------------------

/// Definition 7 as the four passes it used to be: `V_a ≤ V_b`, then the
/// digests of every entry with equal timestamps.
fn reference_le(a: &Version, b: &Version) -> bool {
    let (va, vb) = (a.v().as_slice(), b.v().as_slice());
    let (ma, mb) = (a.m().as_slice(), b.m().as_slice());
    va.len() == vb.len()
        && va.iter().zip(vb).all(|(x, y)| x <= y)
        && (0..va.len()).all(|k| va[k] != vb[k] || ma[k] == mb[k])
}

fn reference_compare(a: &Version, b: &Version) -> VersionCmp {
    match (reference_le(a, b), reference_le(b, a)) {
        (true, true) => VersionCmp::Equal,
        (true, false) => VersionCmp::Less,
        (false, true) => VersionCmp::Greater,
        (false, false) => VersionCmp::Incomparable,
    }
}

fn assert_order_agrees(a: &Version, b: &Version) {
    let expected = reference_compare(a, b);
    assert_eq!(a.compare(b), expected, "{a:?} vs {b:?}");
    assert_eq!(a.le(b), reference_le(a, b), "{a:?} ≼ {b:?}");
    assert_eq!(a.lt(b), a != b && reference_le(a, b), "{a:?} ≺ {b:?}");
    assert_eq!(a.comparable(b), expected != VersionCmp::Incomparable);
    // The server's line-119 test, and the bare timestamp order under it.
    let (va, vb) = (a.v(), b.v());
    let pointwise_le = |x: &TimestampVec, y: &TimestampVec| {
        x.len() == y.len() && x.as_slice().iter().zip(y.as_slice()).all(|(s, t)| s <= t)
    };
    assert_eq!(va.le(vb), pointwise_le(va, vb));
    assert_eq!(va.gt(vb), pointwise_le(vb, va) && va != vb);
}

#[test]
fn single_pass_compare_is_definition_7() {
    for_cases("order-kernel", |rng| {
        let (a, b) = (arb_version(rng), arb_version(rng));
        assert_order_agrees(&a, &b);
        assert_order_agrees(&a, &a.clone());
    });
}

#[test]
fn single_pass_compare_edge_cases() {
    let version = |v: Vec<u64>, m: Vec<Option<Digest>>| {
        Version::new(TimestampVec::from_vec(v), DigestVec::from_vec(m))
    };
    let d = |label: u8| Some(sha256(&[label]));
    let cases = [
        // Arity mismatch: never ordered, either way.
        (Version::initial(2), Version::initial(3)),
        (Version::initial(0), Version::initial(1)),
        // The initial version against itself and against a later one.
        (Version::initial(3), Version::initial(3)),
        (Version::initial(2), version(vec![1, 0], vec![d(1), None])),
        // Equal timestamps, differing digests: a fork.
        (
            version(vec![1, 1], vec![d(1), d(2)]),
            version(vec![1, 1], vec![d(1), d(9)]),
        ),
        // Equal timestamps, one digest ⊥ (no honest client commits this;
        // a forging server can send it).
        (
            version(vec![1, 1], vec![d(1), None]),
            version(vec![1, 1], vec![d(1), d(2)]),
        ),
        // A differing digest under a *larger* timestamp is fine.
        (
            version(vec![1, 1], vec![d(1), d(2)]),
            version(vec![1, 2], vec![d(1), d(3)]),
        ),
        // …but not when another entry ties with differing digests.
        (
            version(vec![1, 1], vec![d(1), d(2)]),
            version(vec![1, 2], vec![d(7), d(3)]),
        ),
        // Crossing timestamps.
        (
            version(vec![2, 0], vec![d(1), None]),
            version(vec![0, 2], vec![None, d(2)]),
        ),
    ];
    for (a, b) in &cases {
        assert_order_agrees(a, b);
        assert_order_agrees(b, a);
    }
}

// ---------------------------------------------------------------------------
// Sizes without encoding.
// ---------------------------------------------------------------------------

#[test]
fn encoded_len_is_the_encoding_length_for_every_wire_type_here() {
    fn check<T: Wire>(value: &T) {
        assert_eq!(value.encoded_len(), value.encode().len());
    }
    for_cases("encoded-len-all", |rng| {
        let reply = arb_reply(rng);
        check(&reply.commit_version.version.v().clone());
        check(&reply.commit_version.version.m().clone());
        check(&reply.commit_version.version);
        check(&reply.commit_version);
        check(&reply.pending);
        check(&reply.proofs);
        check(&reply);
        let submit = arb_submit(rng);
        check(&submit.tuple);
        check(&submit.tuple.kind);
        check(&submit.tuple.client);
        check(&submit.tuple.sig);
        check(&submit.value);
        check(&submit.piggyback);
        check(&submit);
        check(&arb_msg(rng));
        check(&arb_commit_delta(rng));
        check(&sha256(&[rng.next_u64() as u8]));
        check(&(rng.next_u64() as u8));
        check(&(rng.next_u64() as u32));
        check(&rng.next_u64());

        let mut history = History::new();
        for _ in 0..rng.gen_index(4) {
            let client = ClientId::new(rng.gen_index(N) as u32);
            let at = rng.gen_range_inclusive(0, 50);
            if rng.gen_bool(0.5) {
                let op = history.begin_write(client, arb_value(rng), at);
                if rng.gen_bool(0.5) {
                    history.complete_write(op, at + 3, Some(7));
                }
            } else {
                let op = history.begin_read(client, ClientId::new(0), at);
                if rng.gen_bool(0.5) {
                    let value = rng.gen_bool(0.5).then(|| arb_value(rng));
                    history.complete_read(op, at + 2, value, None);
                }
            }
        }
        for op in history.ops() {
            check(op);
            check(&op.id);
            check(&op.outcome);
        }
        check(&history);
    });
}

#[test]
fn frames_and_encodings_are_sized_once() {
    for_cases("sized-once", |rng| {
        let msg = arb_msg(rng);
        let frame = frame_bytes(&msg);
        assert_eq!(frame.capacity(), frame.len());
        assert_eq!(frame.len(), 4 + msg.encoded_len());
        let bytes = msg.encode();
        assert_eq!(bytes.capacity(), bytes.len());
    });
}

// ---------------------------------------------------------------------------
// Differential codec test: the decoders against an element-wise reference,
// on every truncation and every single-byte flip.
// ---------------------------------------------------------------------------

/// The decoders as they were before they became single passes: one
/// bounds-checked `take` per field, every value returned through a
/// `Result`. Kept as the reference the shipped decoders must agree with —
/// value for value, error for error.
mod reference {
    use super::*;
    use faust_crypto::Signature;
    use faust_types::WireError;

    type Decoded<T> = Result<T, WireError>;
    const MAX_LEN: u64 = 1 << 24;

    fn take<'a>(input: &mut &'a [u8], n: usize) -> Decoded<&'a [u8]> {
        if input.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = input.split_at(n);
        *input = tail;
        Ok(head)
    }

    fn byte(input: &mut &[u8]) -> Decoded<u8> {
        Ok(take(input, 1)?[0])
    }

    fn word(input: &mut &[u8]) -> Decoded<u32> {
        Ok(u32::from_be_bytes(take(input, 4)?.try_into().unwrap()))
    }

    fn long(input: &mut &[u8]) -> Decoded<u64> {
        Ok(u64::from_be_bytes(take(input, 8)?.try_into().unwrap()))
    }

    fn client(input: &mut &[u8]) -> Decoded<ClientId> {
        Ok(ClientId::new(word(input)?))
    }

    fn length(input: &mut &[u8]) -> Decoded<usize> {
        let len = word(input)? as u64;
        if len > MAX_LEN {
            return Err(WireError::BadLength(len));
        }
        Ok(len as usize)
    }

    fn option<T>(input: &mut &[u8], item: fn(&mut &[u8]) -> Decoded<T>) -> Decoded<Option<T>> {
        match byte(input)? {
            0 => Ok(None),
            1 => Ok(Some(item(input)?)),
            t => Err(WireError::BadTag(t)),
        }
    }

    fn vec<T>(input: &mut &[u8], item: fn(&mut &[u8]) -> Decoded<T>) -> Decoded<Vec<T>> {
        let len = length(input)?;
        let mut out = Vec::with_capacity(len.min(input.len()));
        for _ in 0..len {
            out.push(item(input)?);
        }
        Ok(out)
    }

    fn signature(input: &mut &[u8]) -> Decoded<Signature> {
        match byte(input)? {
            0 => Ok(Signature::Mac(take(input, 32)?.try_into().unwrap())),
            1 => Ok(Signature::Ed25519(take(input, 64)?.try_into().unwrap())),
            t => Err(WireError::BadTag(t)),
        }
    }

    fn digest(input: &mut &[u8]) -> Decoded<Digest> {
        Ok(Digest::from_bytes(take(input, 32)?.try_into().unwrap()))
    }

    fn value(input: &mut &[u8]) -> Decoded<Value> {
        let len = length(input)?;
        Ok(Value::new(take(input, len)?.to_vec()))
    }

    fn kind(input: &mut &[u8]) -> Decoded<OpKind> {
        match byte(input)? {
            0 => Ok(OpKind::Read),
            1 => Ok(OpKind::Write),
            t => Err(WireError::BadTag(t)),
        }
    }

    fn tuple(input: &mut &[u8]) -> Decoded<InvocationTuple> {
        Ok(InvocationTuple {
            client: client(input)?,
            kind: kind(input)?,
            register: client(input)?,
            sig: signature(input)?,
        })
    }

    fn version(input: &mut &[u8]) -> Decoded<Version> {
        let len = word(input)?;
        version_after(len, input)
    }

    /// A full version whose first length prefix `len` was already read.
    fn version_after(len: u32, input: &mut &[u8]) -> Decoded<Version> {
        if u64::from(len) > MAX_LEN {
            return Err(WireError::BadLength(len.into()));
        }
        let mut v = Vec::new();
        for _ in 0..len {
            v.push(long(input)?);
        }
        let m = vec(input, |input| option(input, digest))?;
        if v.len() != m.len() {
            return Err(WireError::BadLength(m.len() as u64));
        }
        Ok(Version::new(
            TimestampVec::from_vec(v),
            DigestVec::from_vec(m),
        ))
    }

    /// A read REPLY's `SVER[j]` version: bit 31 of the first word marks
    /// a delta against `base` whose entry count is the low bits.
    fn version_against(input: &mut &[u8], base: &Version) -> Decoded<Version> {
        let first = word(input)?;
        if first & (1 << 31) == 0 {
            return version_after(first, input);
        }
        let (count, n) = ((first & !(1 << 31)) as usize, base.num_clients());
        if count > n {
            return Err(WireError::BadLength(count as u64));
        }
        let mut v = base.v().as_slice().to_vec();
        let mut m = base.m().as_slice().to_vec();
        let mut next = 0;
        for _ in 0..count {
            let k = word(input)? as usize;
            if k < next || k >= n {
                return Err(WireError::BadLength(k as u64));
            }
            next = k + 1;
            v[k] = long(input)?;
            m[k] = option(input, digest)?;
        }
        Ok(Version::new(
            TimestampVec::from_vec(v),
            DigestVec::from_vec(m),
        ))
    }

    /// A COMMIT delta's `count` entries `k | V[k] | M[k]`, `k` strictly
    /// increasing, checked before the rest of its entry is read.
    fn entries(input: &mut &[u8], count: usize) -> Decoded<Vec<VersionEntry>> {
        let mut entries = Vec::new();
        let mut next = 0u64;
        for _ in 0..count {
            let k = word(input)?;
            if u64::from(k) < next {
                return Err(WireError::BadLength(k.into()));
            }
            next = u64::from(k) + 1;
            entries.push(VersionEntry {
                client: ClientId::new(k),
                timestamp: long(input)?,
                digest: option(input, digest)?,
            });
        }
        Ok(entries)
    }

    fn commit_body(input: &mut &[u8]) -> Decoded<CommitMsg> {
        Ok(CommitMsg {
            version: version(input)?,
            commit_sig: signature(input)?,
            proof_sig: signature(input)?,
        })
    }

    fn submit_body(input: &mut &[u8]) -> Decoded<SubmitMsg> {
        Ok(SubmitMsg {
            timestamp: long(input)?,
            tuple: tuple(input)?,
            value: option(input, value)?,
            data_sig: signature(input)?,
            piggyback: option(input, commit_body)?,
        })
    }

    /// A read part whose `SVER[j]` version was already read. `MEM[j].x`'s
    /// option tag may also be 2, a name: the timestamp `t_r`.
    fn read_rest(version: Version, input: &mut &[u8]) -> Decoded<(ReadReply, Option<Timestamp>)> {
        let writer_version = SignedVersion {
            version,
            sig: option(input, signature)?,
        };
        let mem_timestamp = long(input)?;
        let (mem_value, name) = match input.first() {
            Some(2) => {
                byte(input)?;
                (None, Some(long(input)?))
            }
            _ => (option(input, value)?, None),
        };
        let read = ReadReply {
            writer_version,
            mem_timestamp,
            mem_value,
            mem_data_sig: option(input, signature)?,
        };
        Ok((read, name))
    }

    /// A delta kept before its base is known: the count in `first`
    /// (bit 31 set), at most 2²⁴, then its entries.
    fn raw_entries(input: &mut &[u8], first: u32) -> Decoded<Vec<VersionEntry>> {
        let count = u64::from(first & !(1 << 31));
        if count > MAX_LEN {
            return Err(WireError::BadLength(count));
        }
        entries(input, count as usize)
    }

    /// A REPLY's `SVER[c]`: bit 30 alone is the marker, then the name
    /// `t`; bit 31 marks a delta — its count in the low bits, the
    /// entries, `t`, then the signature; anything else is the full form.
    fn reply_body(input: &mut &[u8]) -> Decoded<ReplyMsg> {
        let last_committer = client(input)?;
        let first = word(input)?;
        let (commit_version, own) = if first == 1 << 30 {
            (SignedVersion::initial(0), Some((long(input)?, None)))
        } else if first & (1 << 31) != 0 {
            let delta = raw_entries(input, first)?;
            let t = long(input)?;
            let signed = SignedVersion {
                version: Version::initial(0),
                sig: option(input, signature)?,
            };
            (signed, Some((t, Some(delta))))
        } else {
            let signed = SignedVersion {
                version: version_after(first, input)?,
                sig: option(input, signature)?,
            };
            (signed, None)
        };
        let (mut writer, mut name) = (None, None);
        let read = match byte(input)? {
            0 => None,
            1 => {
                let version = match own {
                    None => version_against(input, &commit_version.version)?,
                    Some(_) => match word(input)? {
                        first if first & (1 << 31) != 0 => {
                            writer = Some(raw_entries(input, first)?);
                            Version::initial(0)
                        }
                        first => version_after(first, input)?,
                    },
                };
                let (read, value) = read_rest(version, input)?;
                name = value;
                Some(read)
            }
            t => return Err(WireError::BadTag(t)),
        };
        let (kept, pending) = pending_list(input)?;
        Ok(ReplyMsg {
            last_committer,
            commit_version,
            read,
            pending,
            proofs: vec(input, |input| option(input, signature))?.into(),
            left_out: LeftOut {
                kept,
                commit: own.map(|(t, delta)| {
                    let delta = delta.as_deref().map(Delta::from_entries);
                    AgainstOwn::new(t, delta, writer.as_deref().map(Delta::from_entries))
                }),
                value: name,
            },
        })
    }

    /// A REPLY's `L` and its `k`: a count and the tuples, or a count
    /// marked by bit 31, then `k` (between 1 and 2²⁴), then the tuples.
    fn pending_list(input: &mut &[u8]) -> Decoded<(u32, Vec<InvocationTuple>)> {
        let first = word(input)?;
        let kept = match first & (1 << 31) {
            0 => 0,
            _ => {
                let k = word(input)?;
                if k == 0 || u64::from(k) > MAX_LEN {
                    return Err(WireError::BadLength(k.into()));
                }
                k
            }
        };
        let len = u64::from(first & !(1 << 31));
        if len > MAX_LEN {
            return Err(WireError::BadLength(len));
        }
        let mut tuples = Vec::with_capacity((len as usize).min(input.len()));
        for _ in 0..len {
            tuples.push(tuple(input)?);
        }
        Ok((kept, tuples))
    }

    fn commit_delta_body(input: &mut &[u8]) -> Decoded<CommitDelta> {
        let count = length(input)?;
        let entries = entries(input, count)?;
        Ok(CommitDelta {
            version: Delta::from_entries(&entries),
            commit_sig: signature(input)?,
            proof_sig: signature(input)?,
        })
    }

    fn msg_body(input: &mut &[u8]) -> Decoded<UstorMsg> {
        match byte(input)? {
            0 => Ok(UstorMsg::Submit(submit_body(input)?)),
            1 => Ok(UstorMsg::Reply(reply_body(input)?)),
            2 => Ok(UstorMsg::Commit(commit_body(input)?)),
            3 => Ok(UstorMsg::CommitDelta(commit_delta_body(input)?)),
            t => Err(WireError::BadTag(t)),
        }
    }

    fn whole<T>(mut input: &[u8], body: fn(&mut &[u8]) -> Decoded<T>) -> Decoded<T> {
        let value = body(&mut input)?;
        if input.is_empty() {
            Ok(value)
        } else {
            Err(WireError::TrailingBytes(input.len()))
        }
    }

    pub fn submit(input: &[u8]) -> Decoded<SubmitMsg> {
        whole(input, submit_body)
    }
    pub fn reply(input: &[u8]) -> Decoded<ReplyMsg> {
        whole(input, reply_body)
    }
    pub fn commit(input: &[u8]) -> Decoded<CommitMsg> {
        whole(input, commit_body)
    }
    pub fn commit_delta(input: &[u8]) -> Decoded<CommitDelta> {
        whole(input, commit_delta_body)
    }
    pub fn msg(input: &[u8]) -> Decoded<UstorMsg> {
        whole(input, msg_body)
    }
}

/// What a differential case looks like: deployment size, pending-list
/// length, signature scheme, and which optional parts are present.
#[derive(Debug, Clone, Copy)]
struct Shape {
    n: usize,
    pending: usize,
    ed25519: bool,
    /// The REPLY's read part / the SUBMIT's piggybacked COMMIT.
    extras: bool,
}

fn shaped_sig(rng: &mut SmallRng, shape: Shape) -> faust_crypto::Signature {
    let digest = sha256(&rng.next_u64().to_be_bytes()).into_bytes();
    if shape.ed25519 {
        let mut raw = [0u8; 64];
        raw[..32].copy_from_slice(&digest);
        raw[32..].copy_from_slice(&digest);
        faust_crypto::Signature::Ed25519(raw)
    } else {
        faust_crypto::Signature::Mac(digest)
    }
}

/// A version for `shape.n` clients with `⊥` entries mixed in.
fn shaped_version(rng: &mut SmallRng, shape: Shape) -> Version {
    let v: Vec<u64> = (0..shape.n).map(|_| rng.next_u64() >> 40).collect();
    let m = (0..shape.n)
        .map(|_| {
            rng.gen_bool(0.8)
                .then(|| sha256(&rng.next_u64().to_be_bytes()))
        })
        .collect();
    Version::new(TimestampVec::from_vec(v), DigestVec::from_vec(m))
}

fn shaped_tuple(rng: &mut SmallRng, shape: Shape) -> InvocationTuple {
    InvocationTuple {
        client: ClientId::new(rng.gen_index(shape.n) as u32),
        kind: arb_kind(rng),
        register: ClientId::new(rng.gen_index(shape.n) as u32),
        sig: shaped_sig(rng, shape),
    }
}

fn shaped_signed_version(rng: &mut SmallRng, shape: Shape) -> SignedVersion {
    SignedVersion {
        version: shaped_version(rng, shape),
        sig: rng.gen_bool(0.8).then(|| shaped_sig(rng, shape)),
    }
}

fn shaped_commit(rng: &mut SmallRng, shape: Shape) -> CommitMsg {
    CommitMsg {
        version: shaped_version(rng, shape),
        commit_sig: shaped_sig(rng, shape),
        proof_sig: shaped_sig(rng, shape),
    }
}

/// A delta COMMIT for `shape`: `|L|` + 1 entries (capped at `n`), the
/// entries a client's fold writes, in increasing order.
fn shaped_commit_delta(rng: &mut SmallRng, shape: Shape) -> CommitDelta {
    let commit = shaped_commit(rng, shape);
    let mut changed: Vec<usize> = (0..=shape.pending)
        .map(|_| rng.gen_index(shape.n))
        .collect();
    changed.sort_unstable();
    changed.dedup();
    delta_of(&commit, &changed)
}

fn shaped_submit(rng: &mut SmallRng, shape: Shape) -> SubmitMsg {
    SubmitMsg {
        timestamp: rng.next_u64() >> 40,
        tuple: shaped_tuple(rng, shape),
        value: rng.gen_bool(0.5).then(|| arb_value(rng)),
        data_sig: shaped_sig(rng, shape),
        piggyback: shape.extras.then(|| shaped_commit(rng, shape)),
    }
}

/// A REPLY for `shape`; with `near`, a read's `SVER[j]` differs from
/// `SVER[c]` in about a quarter of its entries, so it is mostly encoded
/// as a delta (not where every entry moved).
fn shaped_reply(rng: &mut SmallRng, shape: Shape, near: bool) -> ReplyMsg {
    let commit_version = shaped_signed_version(rng, shape);
    let writer_version = |rng: &mut SmallRng| match near {
        true => SignedVersion {
            version: near_version(rng, &commit_version.version, 0.25),
            sig: rng.gen_bool(0.8).then(|| shaped_sig(rng, shape)),
        },
        false => shaped_signed_version(rng, shape),
    };
    ReplyMsg {
        last_committer: ClientId::new(rng.gen_index(shape.n) as u32),
        commit_version: commit_version.clone(),
        read: shape.extras.then(|| ReadReply {
            writer_version: writer_version(rng),
            mem_timestamp: rng.next_u64() >> 40,
            mem_value: rng.gen_bool(0.7).then(|| arb_value(rng)),
            mem_data_sig: rng.gen_bool(0.7).then(|| shaped_sig(rng, shape)),
        }),
        pending: (0..shape.pending)
            .map(|_| shaped_tuple(rng, shape))
            .collect(),
        proofs: (0..shape.n)
            .map(|_| rng.gen_bool(0.8).then(|| shaped_sig(rng, shape)))
            .collect(),
        left_out: LeftOut::default(),
    }
}

/// A REPLY for `shape` with `SVER[c]` sent against a COMMIT of its
/// recipient's: the marker, or a delta against a version near `SVER[c]`
/// (which may come out full where that is not smaller, as at n = 1),
/// with a read's `SVER[j]` near `SVER[c]`.
fn sent_against_own(rng: &mut SmallRng, shape: Shape, marker: bool) -> ReplyMsg {
    let mut reply = shaped_reply(rng, shape, !marker);
    let signed = &mut reply.commit_version;
    let sig = *signed.sig.get_or_insert_with(|| shaped_sig(rng, shape));
    let base = SignedVersion {
        version: match marker {
            true => signed.version.clone(),
            false => near_version(rng, &signed.version, 0.25),
        },
        sig: Some(sig),
    };
    reply.leave_out(&mut Vec::new(), Some((rng.next_u64() >> 20, &base)), None);
    reply
}

/// A REPLY for `shape` whose read part, if it has one, names its value.
fn value_named(rng: &mut SmallRng, shape: Shape) -> ReplyMsg {
    let mut reply = shaped_reply(rng, shape, false);
    if let Some(read) = reply.read.as_mut() {
        read.mem_value.get_or_insert_with(|| arb_value(rng));
        named(rng, &mut reply);
    }
    reply
}

/// Every shape the differential tests run: n ∈ {1, 2, 5, 64} × |L| ∈
/// {0, 1, 31} × both schemes × with and without the optional part. At
/// n = 64 an encoding is 5–10 KiB and every one of its bytes is mutated,
/// so only the empty pending list is crossed with everything there.
fn shapes() -> Vec<Shape> {
    let mut shapes = Vec::new();
    for n in [1, 2, 5, 64] {
        for pending in [0, 1, 31] {
            for ed25519 in [false, true] {
                for extras in [false, true] {
                    if n == 64 && pending > 0 && (ed25519 || !extras) {
                        continue;
                    }
                    shapes.push(Shape {
                        n,
                        pending,
                        ed25519,
                        extras,
                    });
                }
            }
        }
    }
    shapes
}

/// `bytes` and each of its mutations from the shared harness
/// ([`mutations`]) — every prefix, every single-bit flip (a tag
/// becomes another tag or an unknown one, a length implausible) — must
/// decode to the same `Result` under both decoders, and every prefix
/// must fail.
fn assert_decoders_agree<T: Wire + PartialEq + std::fmt::Debug>(
    reference: fn(&[u8]) -> Result<T, faust_types::WireError>,
    bytes: &[u8],
    shape: Shape,
) {
    let check = |input: &[u8], at: usize| {
        let (got, expected) = (T::decode(input), reference(input));
        let what = if input.len() < bytes.len() {
            assert!(got.is_err(), "{shape:?}: a prefix of {at} bytes decoded");
            "truncation"
        } else {
            "flip"
        };
        assert!(
            got == expected,
            "{shape:?}, {what} at {at}: {got:?} vs {expected:?}"
        );
    };
    check(bytes, 0);
    assert!(reference(bytes).is_ok(), "{shape:?}: own encoding rejected");
    for (at, bad) in mutations(bytes) {
        check(&bad, at);
    }
    // And with bytes after the message.
    let mut trailing = bytes.to_vec();
    trailing.push(0);
    let got = T::decode(&trailing);
    assert_eq!(got, Err(WireError::TrailingBytes(1)), "{shape:?}");
    assert_eq!(got, reference(&trailing), "{shape:?}");
}

#[test]
fn decoders_agree_with_the_reference_on_every_truncation_and_flip() {
    let mut swept_deltas = 0;
    let shapes = shapes();
    for (case, &shape) in shapes.iter().enumerate() {
        let rng = &mut SmallRng::seed_from_u64(0xD1FF ^ case as u64);
        let submit = shaped_submit(rng, shape);
        let reply = shaped_reply(rng, shape, false);
        let near = shaped_reply(rng, shape, true);
        let commit = shaped_commit(rng, shape);
        let delta = shaped_commit_delta(rng, shape);
        // `L` keeping a tail of the previous REPLY's: the count marked,
        // then `k`, then only the new tuples.
        let kept = ReplyMsg {
            left_out: LeftOut {
                kept: 1 + rng.gen_index(31) as u32,
                ..LeftOut::default()
            },
            ..shaped_reply(rng, shape, shape.extras)
        };
        assert_decoders_agree(reference::reply, &kept.encode(), shape);
        // `SVER[c]` as the marker, and as a delta whose read part keeps
        // `SVER[j]`'s delta as it came.
        let marker = sent_against_own(rng, shape, true);
        let own_delta = sent_against_own(rng, shape, false);
        assert!(marker
            .left_out
            .commit
            .as_ref()
            .is_some_and(AgainstOwn::is_marker));
        swept_deltas += usize::from(own_delta.left_out.commit.is_some());
        assert_decoders_agree(reference::reply, &marker.encode(), shape);
        assert_decoders_agree(reference::reply, &own_delta.encode(), shape);
        let named_value = value_named(rng, shape);
        assert_decoders_agree(reference::reply, &named_value.encode(), shape);
        assert_decoders_agree(reference::submit, &submit.encode(), shape);
        assert_decoders_agree(reference::reply, &reply.encode(), shape);
        assert_decoders_agree(reference::commit, &commit.encode(), shape);
        assert_decoders_agree(reference::commit_delta, &delta.encode(), shape);
        if shape.extras {
            // A read part again, `SVER[j]` now near `SVER[c]`: a delta
            // whenever that is smaller, which at n = 64 it always is.
            let bytes = near.encode();
            let marker = bytes[4 + near.commit_version.encoded_len() + 1];
            assert!(shape.n < 64 || marker & 0x80 != 0, "{shape:?}");
            assert_decoders_agree(reference::reply, &bytes, shape);
        }
        // Through the enum the four share a tag byte; the SUBMIT is the
        // smallest body to sweep it with.
        assert_decoders_agree(reference::msg, &UstorMsg::Submit(submit).encode(), shape);
        for msg in [
            UstorMsg::Reply(reply),
            UstorMsg::Reply(near),
            UstorMsg::Reply(kept),
            UstorMsg::Reply(marker),
            UstorMsg::Reply(own_delta),
            UstorMsg::Reply(named_value),
            UstorMsg::Commit(commit),
            UstorMsg::CommitDelta(delta),
        ] {
            let bytes = msg.encode();
            assert_eq!(UstorMsg::decode(&bytes), reference::msg(&bytes));
            assert_eq!(reference::msg(&bytes), Ok(msg));
        }
    }
    assert!(swept_deltas > shapes.len() / 2, "{swept_deltas}");
}

/// What [`FrameDecoder`] must make of one whole frame around `payload`.
fn assert_frame_matches_reference(frame: &[u8], payload: &[u8], shape: Shape) {
    use faust_types::FrameError;
    let expected = reference::msg(payload);
    for split in 0..=frame.len() {
        let mut decoder = FrameDecoder::new();
        decoder.extend(&frame[..split]);
        if split < frame.len() {
            let early = decoder.next_frame::<UstorMsg>();
            assert!(
                matches!(early, Ok(None)),
                "{shape:?}, split {split}: {early:?}"
            );
            decoder.extend(&frame[split..]);
        }
        match (decoder.next_frame::<UstorMsg>(), &expected) {
            (Ok(Some(got)), Ok(want)) => assert_eq!(&got, want, "{shape:?}, split {split}"),
            (Err(FrameError::Malformed(got)), Err(want)) => {
                assert_eq!(&got, want, "{shape:?}, split {split}")
            }
            (got, want) => panic!("{shape:?}, split {split}: {got:?} vs {want:?}"),
        }
    }
}

#[test]
fn frame_decoder_agrees_with_the_reference_at_every_split_point() {
    for (case, shape) in shapes().into_iter().enumerate() {
        let rng = &mut SmallRng::seed_from_u64(0xF4A3 ^ case as u64);
        let msgs = [
            UstorMsg::Submit(shaped_submit(rng, shape)),
            UstorMsg::Reply(shaped_reply(rng, shape, false)),
            UstorMsg::Reply(shaped_reply(rng, shape, true)),
            UstorMsg::Commit(shaped_commit(rng, shape)),
            UstorMsg::CommitDelta(shaped_commit_delta(rng, shape)),
            UstorMsg::Reply(ReplyMsg {
                left_out: LeftOut {
                    kept: 1 + rng.gen_index(31) as u32,
                    ..LeftOut::default()
                },
                ..shaped_reply(rng, shape, false)
            }),
            UstorMsg::Reply(sent_against_own(rng, shape, true)),
            UstorMsg::Reply(sent_against_own(rng, shape, false)),
            UstorMsg::Reply(value_named(rng, shape)),
        ];
        for msg in msgs {
            let frame = frame_bytes(&msg);
            assert_frame_matches_reference(&frame, &frame[4..], shape);
            // A payload cut short and one with a flipped byte, each under
            // a header that announces exactly what follows.
            let cut = 1 + rng.gen_index(frame.len() - 5);
            let mut short = ((cut) as u32).to_be_bytes().to_vec();
            short.extend_from_slice(&frame[4..4 + cut]);
            assert_frame_matches_reference(&short, &short[4..], shape);
            let mut flipped = frame.clone();
            let at = 4 + rng.gen_index(frame.len() - 4);
            flipped[at] ^= 0x80;
            assert_frame_matches_reference(&flipped, &flipped[4..], shape);
        }
    }
}

/// Full-form REPLYs as the encoder wrote them before `L` could travel as a
/// delta: a REPLY whose pending list goes in full — every REPLY a server
/// builds, and every one the engine sends with nothing to keep — must not
/// move by a byte. Length and SHA-256 of the encodings of seeded REPLYs,
/// `(n, |L|, read part, SVER[j] near SVER[c])`: writes and reads, `|L|` ∈
/// {0, 1, 31}, n ∈ {2, 64}, a read's `SVER[j]` in full and as a delta.
#[test]
fn full_form_replies_are_byte_identical_to_those_before_pending_deltas() {
    let golden = [
        (
            (2, 0, false, false),
            172,
            "818b26b03bc3c469c363f1e132a094e4b4f62f60aae6512dff1242ae4d8758ad",
        ),
        (
            (2, 0, true, false),
            452,
            "5b261faf1fe44501931ee6676b8a197ecb1d260da8c97d1b71f5d62a74a9e740",
        ),
        (
            (2, 1, true, true),
            334,
            "71cb02263e804239049ea669e7cb7b3c6bcfbaeed22a6d18426bfb3b230cb95f",
        ),
        (
            (2, 31, false, false),
            2595,
            "6c29422ee7921c7fe88a9a3c339817e7e8af53b199e50006838914384bda5fcb",
        ),
        (
            (2, 31, true, true),
            1627,
            "c17bfc2f15d5f33e059c57541690e0df0b5c20cb1d4adb2b2f8295eaa84994df",
        ),
        (
            (64, 0, true, true),
            6538,
            "8abff0feb0b3a124d66712493dbdeaf2e996c0e70d7903cc4d997d22376499e3",
        ),
        (
            (64, 31, true, false),
            7509,
            "1a95f054726e35d51cb570363477177571785e68685fd0426bee2e27e74db310",
        ),
    ];
    for (case, ((n, pending, extras, near), len, digest)) in golden.into_iter().enumerate() {
        let rng = &mut SmallRng::seed_from_u64(0x601D ^ case as u64);
        let shape = Shape {
            n,
            pending,
            ed25519: case % 2 == 1,
            extras,
        };
        let bytes = shaped_reply(rng, shape, near).encode();
        assert_eq!(
            (bytes.len(), sha256(&bytes).to_hex().as_str()),
            (len, digest),
            "{shape:?}"
        );
    }
}

/// `L` sent against the previous REPLY's `L` and resolved against it again
/// is `L`, whatever the two share: a tail of the base and new tuples, a
/// base that shares nothing, an empty `L` or base.
#[test]
fn a_pending_list_kept_from_its_base_resolves_to_itself() {
    let shape = Shape {
        n: N,
        pending: 0,
        ed25519: false,
        extras: false,
    };
    let mut kept_some = 0;
    for_cases("kept pending", |rng| {
        let base: Vec<InvocationTuple> = (0..rng.gen_index(8))
            .map(|_| shaped_tuple(rng, shape))
            .collect();
        let cut = match rng.gen_bool(0.8) {
            true => rng.gen_index(base.len() + 1),
            false => base.len(),
        };
        let mut full = base[cut..].to_vec();
        full.extend((0..rng.gen_index(4)).map(|_| shaped_tuple(rng, shape)));
        let mut reply = ReplyMsg {
            pending: full.clone(),
            ..arb_reply(rng)
        };
        reply.left_out.kept = 0;
        let full_len = reply.encoded_len();
        let mut next = base.clone();
        reply.leave_out(&mut next, None, None);
        assert_eq!(next, full);
        // Distinct tuples: exactly the shared tail is kept.
        let expected = if full.is_empty() { 0 } else { base.len() - cut };
        assert_eq!(reply.left_out.kept as usize, expected);
        assert_eq!(reply.pending, full[expected..]);
        if expected > 0 {
            kept_some += 1;
            assert_eq!(full_len - reply.encoded_len(), expected * 42 - 4);
        } else {
            assert_eq!(full_len, reply.encoded_len());
        }
        let mut sent = ReplyMsg::decode(&reply.encode()).unwrap();
        assert_eq!(sent, reply);
        // Only `L` is filled in here.
        sent.left_out.commit = None;
        sent.left_out.value = None;
        let short = sent.clone();
        sent.fill_in(base.clone(), |_| None, |_| None).unwrap();
        assert_eq!((sent.left_out.kept, &sent.pending), (0, &full));
        // Against a base too short for `k`, filling in fails and leaves
        // the REPLY as it came.
        if expected > 0 {
            let mut got = short.clone();
            let too_short = base[..expected - 1].to_vec();
            let keeps_more = "pending list keeps more than the last reply's";
            assert_eq!(got.fill_in(too_short, |_| None, |_| None), Err(keeps_more));
            assert_eq!(got, short);
        }
    });
    assert!(kept_some > CASES / 2, "{kept_some}");
}

/// A delta-form `L` whose count or `k` is beyond 2²⁴, or whose `k` is 0
/// (which only the full form says), is [`WireError::BadLength`] before a
/// tuple is read; a count within bounds that the bytes do not back is
/// [`WireError::Truncated`], with no more reserved than the bytes there.
#[test]
fn a_pending_delta_beyond_its_bounds_is_a_typed_error_in_bounded_memory() {
    const MARK: u32 = 1 << 31;
    let max = 1u32 << 24;
    let rng = &mut SmallRng::seed_from_u64(0xB0B);
    let shape = Shape {
        n: 2,
        pending: 1,
        ed25519: false,
        extras: false,
    };
    let reply = ReplyMsg {
        left_out: LeftOut {
            kept: 3,
            ..LeftOut::default()
        },
        ..shaped_reply(rng, shape, false)
    };
    let honest = reply.encode();
    let at = 4 + reply.commit_version.encoded_len() + 1;
    assert_eq!(
        honest[at..at + 8],
        [&(MARK | 1).to_be_bytes()[..], &3u32.to_be_bytes()].concat()
    );
    let with = |count: u32, k: u32| {
        let mut bytes = honest.clone();
        bytes[at..at + 4].copy_from_slice(&count.to_be_bytes());
        bytes[at + 4..at + 8].copy_from_slice(&k.to_be_bytes());
        bytes
    };
    for (count, k, expected) in [
        (MARK | 1, 0, Err(WireError::BadLength(0))),
        (
            MARK | 1,
            max + 1,
            Err(WireError::BadLength(u64::from(max) + 1)),
        ),
        (
            MARK | 1,
            u32::MAX,
            Err(WireError::BadLength(u32::MAX.into())),
        ),
        (
            MARK | (max + 1),
            3,
            Err(WireError::BadLength(u64::from(max) + 1)),
        ),
        (MARK | !MARK, 3, Err(WireError::BadLength(u64::from(!MARK)))),
        (MARK | max, 3, Err(WireError::Truncated)),
        (MARK | 1, max, Ok(max)),
    ] {
        let mut bytes = with(count, k);
        if count == MARK | max {
            // 2²⁴ tuples claimed, one there: nothing after it.
            bytes.truncate(at + 8 + 42);
        }
        let got = ReplyMsg::decode(&bytes).map(|r| r.left_out.kept);
        assert_eq!(got, expected, "count {count:#x}, k {k}");
        let reference = reference::reply(&bytes).map(|r| r.left_out.kept);
        assert_eq!(reference, expected);
    }
    // The full form's count is bounded as before.
    let full = ReplyMsg {
        left_out: LeftOut::default(),
        ..reply.clone()
    }
    .encode();
    let mut huge = full.clone();
    huge[at..at + 4].copy_from_slice(&(max + 1).to_be_bytes());
    assert_eq!(
        ReplyMsg::decode(&huge),
        Err(WireError::BadLength(u64::from(max) + 1))
    );
    // A `k` of 2²⁴ decodes, then fails to fill in against a short base.
    let mut far = ReplyMsg::decode(&with(MARK | 1, max)).unwrap();
    let base = reply.pending.clone();
    assert_eq!(
        far.fill_in(base, |_| None, |_| None),
        Err("pending list keeps more than the last reply's")
    );
}

/// A read value sent as a name and put back again is the REPLY the server
/// built: 9 bytes travel for the value's `1 + 4 + len`. Only a clone of
/// the base is named — equal bytes in another allocation go in full, byte
/// for byte as the server built them.
#[test]
fn a_read_value_named_and_resolved_is_the_reply_the_server_built() {
    let mut named_some = 0;
    for_cases("value name", |rng| {
        let full = arb_full_reply(rng);
        let Some(value) = full.read.as_ref().and_then(|read| read.mem_value.clone()) else {
            return;
        };
        let t = rng.next_u64();
        let mut sent = full.clone();
        let copy = Value::new(value.as_bytes().to_vec());
        sent.leave_out(&mut Vec::new(), None, Some((t, &copy)));
        assert_eq!(sent.left_out.value, None);
        assert_eq!(sent.encode(), full.encode());
        sent.leave_out(&mut Vec::new(), None, Some((t, &value)));
        assert_eq!(sent.left_out.value, Some(t));
        named_some += 1;
        assert_eq!(full.encoded_len() + 4, sent.encoded_len() + value.len());
        let mut got = ReplyMsg::decode(&sent.encode()).unwrap();
        assert_eq!(got, sent);
        assert_eq!(got, reference::reply(&sent.encode()).unwrap());
        let held = |name| (name == t).then(|| value.clone());
        got.fill_in(Vec::new(), |_| None, held).unwrap();
        assert_eq!(got, full);
        assert_eq!(got.encode(), full.encode());
    });
    assert!(named_some > CASES / 8, "{named_some}");
}

/// `SVER[c]` sent against a COMMIT of the recipient's and rebuilt from it
/// again is `SVER[c]`: the marker when the two are the same bytes, else a
/// delta when that is smaller, else the REPLY as it was. A read's
/// `SVER[j]` keeps its form against the full `SVER[c]`, so it costs the
/// same bytes as before.
#[test]
fn sver_sent_against_the_recipients_own_commit_resolves_to_itself() {
    let (mut markers, mut deltas) = (0, 0);
    for_cases("against own", |rng| {
        let full = arb_full_reply(rng);
        let base = own_commit_near(rng, &full.commit_version);
        let t = rng.next_u64() >> 8;
        let mut sent = full.clone();
        sent.leave_out(&mut Vec::new(), Some((t, &base)), None);
        let Some(own) = sent.left_out.commit.clone() else {
            // Left in full: byte for byte what the server built.
            assert_ne!(full.commit_version, base);
            assert_eq!(sent.encode(), full.encode());
            return;
        };
        assert_eq!(own.base, t);
        let saved = full.encoded_len() - sent.encoded_len();
        if own.is_marker() {
            markers += 1;
            assert_eq!(full.commit_version, base);
            assert_eq!(saved, full.commit_version.encoded_len() - 12);
        } else {
            deltas += 1;
            assert!(saved > 0);
        }
        let mut got = ReplyMsg::decode(&sent.encode()).unwrap();
        assert_eq!(got, sent);
        let held = |name| (name == t).then(|| (&base.version, base.sig.unwrap()));
        got.fill_in(Vec::new(), held, |_| None).unwrap();
        assert_eq!(got, full);
        // Rebuilt, it encodes as the full REPLY; a full one fills in to
        // itself against anything.
        assert_eq!(got.encode(), full.encode());
        let initial = Version::initial(1);
        let anything = |_| Some((&initial, faust_crypto::Signature::garbage()));
        got.fill_in(Vec::new(), anything, |_| None).unwrap();
        assert_eq!(got, full);
    });
    assert!(
        markers > CASES / 8 && deltas > CASES / 8,
        "{markers} {deltas}"
    );
}

/// A delta-form `SVER[c]` — or a read's `SVER[j]` behind one — whose
/// count is beyond 2²⁴ is [`WireError::BadLength`] before an entry is
/// read; one within bounds that the bytes do not back is
/// [`WireError::Truncated`], with nothing reserved for it; indices that do
/// not increase are `BadLength` of the first that does not. Bits other
/// than the marker's beside bit 30 read as an implausible full length.
/// Against its base, a count above the arity or an index at or past it
/// fails to fill in, and the REPLY is left as it came.
#[test]
fn an_own_commit_delta_beyond_its_bounds_is_a_typed_error_in_bounded_memory() {
    const MARK: u32 = 1 << 31;
    let max = 1u32 << 24;
    let rng = &mut SmallRng::seed_from_u64(0x0B5E);
    let shape = Shape {
        n: 4,
        pending: 0,
        ed25519: false,
        extras: true,
    };
    let full = shaped_reply(rng, shape, true);
    let base = SignedVersion {
        version: near_version(rng, &full.commit_version.version, 0.3),
        sig: Some(shaped_sig(rng, shape)),
    };
    let mut reply = full.clone();
    reply.leave_out(&mut Vec::new(), Some((7, &base)), None);
    assert!(reply.left_out.commit.is_some());
    let honest = reply.encode();
    // SVER[c]'s count word follows `c`; SVER[j]'s the read tag.
    let count = u32::from_be_bytes(honest[4..8].try_into().unwrap());
    assert_eq!(count & MARK, MARK);
    let both = |bytes: &[u8]| {
        let got = ReplyMsg::decode(bytes);
        assert_eq!(got, reference::reply(bytes));
        got
    };
    let with_word = |at: usize, word: u32| {
        let mut bytes = honest.clone();
        bytes[at..at + 4].copy_from_slice(&word.to_be_bytes());
        bytes
    };
    for word in [MARK | (max + 1), MARK | !MARK] {
        let got = both(&with_word(4, word));
        assert_eq!(got, Err(WireError::BadLength(u64::from(word & !MARK))));
    }
    for word in [(1 << 30) | 1, (1 << 30) | MARK] {
        assert!(matches!(
            both(&with_word(4, word)),
            Err(WireError::BadLength(_))
        ));
    }
    // 2²⁴ entries claimed, one there; two entries in the wrong order.
    let entry = |k: u32| [&k.to_be_bytes()[..], &1u64.to_be_bytes(), &[0]].concat();
    let claim = |word: u32, entries: &[u32]| {
        let mut bytes = honest[..4].to_vec();
        bytes.extend_from_slice(&word.to_be_bytes());
        entries.iter().for_each(|&k| bytes.extend(entry(k)));
        bytes
    };
    assert_eq!(both(&claim(MARK | max, &[0])), Err(WireError::Truncated));
    assert_eq!(
        both(&claim(MARK | 2, &[2, 1])),
        Err(WireError::BadLength(1))
    );
    // The read's SVER[j], when it is a delta against the unknown SVER[c].
    let own = reply.left_out.commit.as_ref().unwrap();
    let saved = full.encoded_len() - honest.len();
    let writer_at = 4 + full.commit_version.encoded_len() - saved + 1;
    let writer = u32::from_be_bytes(honest[writer_at..writer_at + 4].try_into().unwrap());
    if writer & MARK != 0 {
        let got = both(&with_word(writer_at, MARK | (max + 1)));
        assert_eq!(got, Err(WireError::BadLength(u64::from(max) + 1)));
    }
    assert_eq!(own.base, 7);
    // Hostile deltas that decode, against the base they name.
    let at = |k: u32, t: u64| VersionEntry {
        client: ClientId::new(k),
        timestamp: t,
        digest: None,
    };
    let delta = |entries: &[VersionEntry]| Some(Delta::from_entries(entries));
    let hostile = [
        // Five entries against an arity of four.
        AgainstOwn::new(
            7,
            delta(&[at(0, 1), at(1, 1), at(2, 1), at(3, 1), at(9, 1)]),
            None,
        ),
        // An index at the arity.
        AgainstOwn::new(7, delta(&[at(4, 1)]), None),
        // `SVER[j]`'s index past the arity of the rebuilt `SVER[c]`.
        AgainstOwn::new(7, delta(&[at(1, 1)]), delta(&[at(64, 1)])),
    ];
    for own in hostile {
        let sent = ReplyMsg {
            left_out: LeftOut {
                commit: Some(own),
                ..LeftOut::default()
            },
            ..reply.clone()
        };
        let mut got = both(&sent.encode()).unwrap();
        assert_eq!(got, sent);
        let named = |_| Some((&base.version, faust_crypto::Signature::garbage()));
        let out_of_range = Err("commit version delta out of range");
        assert_eq!(got.fill_in(Vec::new(), named, |_| None), out_of_range);
        assert_eq!(got, sent);
    }
}
