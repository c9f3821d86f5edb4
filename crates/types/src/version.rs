//! Versions `(V, M)` and the partial order `≼` of Definition 7.
//!
//! A *version* pairs a timestamp vector `V` (entry `V[k]` = timestamp of the
//! last operation by client `C_k` reflected in the owner's view history)
//! with a digest vector `M` (entry `M[k]` = running digest of the view
//! history up to that operation of `C_k`, or `⊥` if none). Versions are what
//! clients sign in COMMIT messages and exchange offline in FAUST.
//!
//! Definition 7 (order on versions): `(V_i, M_i) ≼ (V_j, M_j)` iff
//!
//! 1. `V_i ≤ V_j` component-wise, and
//! 2. for every `k` with `V_i[k] = V_j[k]`, `M_i[k] = M_j[k]`.
//!
//! The paper shows `≼` is transitive on versions committed by the protocol
//! and that `(V_i, M_i) ≼ (V_j, M_j)` iff the corresponding view history is
//! a prefix. Two versions where neither `≼` holds are *incomparable* —
//! proof that the server forked the clients' views.

use crate::ids::{ClientId, Timestamp};
use faust_crypto::sig::Signature;
use faust_crypto::Digest;
use std::fmt;

/// A vector of `n` operation timestamps, one per client.
///
/// # Example
///
/// ```
/// use faust_types::{ClientId, TimestampVec};
/// let mut v = TimestampVec::zeros(3);
/// v.increment(ClientId::new(1));
/// assert_eq!(v.get(ClientId::new(1)), 1);
/// assert_eq!(v.get(ClientId::new(0)), 0);
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct TimestampVec(Vec<Timestamp>);

/// `clone_from` reuses the buffer, as for every vector type here.
impl Clone for TimestampVec {
    fn clone(&self) -> Self {
        TimestampVec(self.0.clone())
    }
    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0);
    }
}

impl TimestampVec {
    /// The all-zero vector `0^n` (the initial version's timestamps).
    pub fn zeros(n: usize) -> Self {
        TimestampVec(vec![0; n])
    }

    /// Builds a vector from raw entries.
    pub fn from_vec(entries: Vec<Timestamp>) -> Self {
        TimestampVec(entries)
    }

    /// Number of clients `n`.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the vector has zero entries (degenerate, `n = 0`).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The timestamp for client `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn get(&self, k: ClientId) -> Timestamp {
        self.0[k.index()]
    }

    /// Sets the timestamp for client `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn set(&mut self, k: ClientId, t: Timestamp) {
        self.0[k.index()] = t;
    }

    /// Increments entry `k` by one and returns the new value.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn increment(&mut self, k: ClientId) -> Timestamp {
        self.0[k.index()] += 1;
        self.0[k.index()]
    }

    /// The component-wise order, in one pass over both vectors.
    fn compare(&self, other: &TimestampVec) -> VersionCmp {
        pointwise(&self.0, &other.0, |_| true)
    }

    /// Component-wise `≤`.
    pub fn le(&self, other: &TimestampVec) -> bool {
        matches!(self.compare(other), VersionCmp::Equal | VersionCmp::Less)
    }

    /// Strictly greater: `other ≤ self` and `self ≠ other`. This is the
    /// `V_i > V^c` test the server applies on COMMIT (Algorithm 2 line 119).
    pub fn gt(&self, other: &TimestampVec) -> bool {
        self.compare(other) == VersionCmp::Greater
    }

    /// Iterates over `(client, timestamp)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ClientId, Timestamp)> + '_ {
        self.0
            .iter()
            .enumerate()
            .map(|(i, &t)| (ClientId::new(i as u32), t))
    }

    /// The raw entries.
    pub fn as_slice(&self) -> &[Timestamp] {
        &self.0
    }
}

impl fmt::Debug for TimestampVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "V{:?}", self.0)
    }
}

impl fmt::Display for TimestampVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, t) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "]")
    }
}

/// A vector of `n` optional digests; entry `k` is the digest of the view
/// history up to the last operation of client `C_k`, or `⊥` (`None`).
#[derive(PartialEq, Eq, Hash)]
pub struct DigestVec(Vec<Option<Digest>>);

impl Clone for DigestVec {
    fn clone(&self) -> Self {
        DigestVec(self.0.clone())
    }
    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0);
    }
}

impl DigestVec {
    /// The all-`⊥` vector `⊥^n` (the initial version's digests).
    pub fn bottoms(n: usize) -> Self {
        DigestVec(vec![None; n])
    }

    /// Builds a vector from raw entries.
    pub fn from_vec(entries: Vec<Option<Digest>>) -> Self {
        DigestVec(entries)
    }

    /// Number of clients `n`.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the vector has zero entries.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The digest entry for client `k` (`None` = `⊥`).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn get(&self, k: ClientId) -> Option<Digest> {
        self.0[k.index()]
    }

    /// Sets the digest entry for client `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn set(&mut self, k: ClientId, d: Digest) {
        self.0[k.index()] = Some(d);
    }

    /// The raw entries.
    pub fn as_slice(&self) -> &[Option<Digest>] {
        &self.0
    }
}

impl fmt::Debug for DigestVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            match d {
                None => write!(f, "⊥")?,
                Some(d) => write!(f, "{}", &d.to_hex()[..6])?,
            }
        }
        write!(f, "]")
    }
}

/// Result of comparing two versions under `≼`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionCmp {
    /// The versions are equal.
    Equal,
    /// Left `≺` right (strictly smaller).
    Less,
    /// Right `≺` left (strictly greater).
    Greater,
    /// Neither `≼` the other — evidence of a forking attack.
    Incomparable,
}

/// The one comparison pass behind every order in this module: `a` against
/// `b` entry by entry, where an entry with equal timestamps must also
/// satisfy `agree` (Definition 7's condition on the digests; constantly
/// true for bare timestamp vectors). Vectors of different arity are
/// incomparable.
#[inline]
fn pointwise(a: &[Timestamp], b: &[Timestamp], agree: impl Fn(usize) -> bool) -> VersionCmp {
    if a.len() != b.len() {
        return VersionCmp::Incomparable;
    }
    let (mut le, mut ge) = (true, true);
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        le &= x <= y;
        ge &= x >= y;
        if x == y && !agree(k) {
            return VersionCmp::Incomparable;
        }
    }
    match (le, ge) {
        (true, true) => VersionCmp::Equal,
        (true, false) => VersionCmp::Less,
        (false, true) => VersionCmp::Greater,
        (false, false) => VersionCmp::Incomparable,
    }
}

/// A version `(V, M)`: the pair of timestamp vector and digest vector that
/// a client commits after every operation.
///
/// # Example
///
/// ```
/// use faust_types::{ClientId, Version};
/// let initial = Version::initial(3);
/// let mut later = initial.clone();
/// later.v_mut().increment(ClientId::new(0));
/// assert!(initial.le(&later));
/// assert!(!later.le(&initial));
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct Version {
    v: TimestampVec,
    m: DigestVec,
}

/// `clone_from` reuses both buffers.
impl Clone for Version {
    fn clone(&self) -> Self {
        Version {
            v: self.v.clone(),
            m: self.m.clone(),
        }
    }
    fn clone_from(&mut self, source: &Self) {
        self.v.clone_from(&source.v);
        self.m.clone_from(&source.m);
    }
}

impl Version {
    /// The initial version `(0^n, ⊥^n)`.
    pub fn initial(n: usize) -> Self {
        Version {
            v: TimestampVec::zeros(n),
            m: DigestVec::bottoms(n),
        }
    }

    /// Builds a version from its parts.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths.
    pub fn new(v: TimestampVec, m: DigestVec) -> Self {
        assert_eq!(v.len(), m.len(), "V and M must have the same arity");
        Version { v, m }
    }

    /// Whether this is the initial version `(0^n, ⊥^n)`.
    pub fn is_initial(&self) -> bool {
        self.v.as_slice().iter().all(|&t| t == 0) && self.m.as_slice().iter().all(|d| d.is_none())
    }

    /// Number of clients `n`.
    pub fn num_clients(&self) -> usize {
        self.v.len()
    }

    /// The timestamp vector `V`.
    pub fn v(&self) -> &TimestampVec {
        &self.v
    }

    /// The digest vector `M`.
    pub fn m(&self) -> &DigestVec {
        &self.m
    }

    /// Mutable access to `V` (protocol-internal updates).
    pub fn v_mut(&mut self) -> &mut TimestampVec {
        &mut self.v
    }

    /// Mutable access to `M` (protocol-internal updates).
    pub fn m_mut(&mut self) -> &mut DigestVec {
        &mut self.m
    }

    /// Definition 7: `self ≼ other`.
    pub fn le(&self, other: &Version) -> bool {
        matches!(self.compare(other), VersionCmp::Equal | VersionCmp::Less)
    }

    /// `self ≺ other`: `self ≼ other` and `self ≠ other`.
    pub fn lt(&self, other: &Version) -> bool {
        self.compare(other) == VersionCmp::Less
    }

    /// Full comparison under `≼`, in one pass over `V` and `M` of both
    /// versions: an entry with equal timestamps and different digests
    /// makes them incomparable, otherwise the timestamps decide.
    pub fn compare(&self, other: &Version) -> VersionCmp {
        let (m, other_m) = (self.m.as_slice(), other.m.as_slice());
        pointwise(self.v.as_slice(), other.v.as_slice(), |k| {
            m[k] == other_m[k]
        })
    }

    /// Whether the versions are comparable (either `≼` holds). FAUST treats
    /// incomparable versions as proof of server misbehaviour.
    pub fn comparable(&self, other: &Version) -> bool {
        self.compare(other) != VersionCmp::Incomparable
    }

    /// Canonical byte string signed by COMMIT-signatures (`COMMIT ‖ V_i ‖
    /// M_i` in the paper).
    pub fn signing_bytes(&self) -> Vec<u8> {
        // Tag, arity, then 8 bytes of timestamp and at most 33 of digest
        // per client: sized once.
        let mut out = Vec::with_capacity(8 + 4 + self.v.len() * (8 + 33));
        out.extend_from_slice(b"version:");
        out.extend_from_slice(&(self.v.len() as u32).to_be_bytes());
        for &t in self.v.as_slice() {
            out.extend_from_slice(&t.to_be_bytes());
        }
        for d in self.m.as_slice() {
            match d {
                None => out.push(0),
                Some(d) => {
                    out.push(1);
                    out.extend_from_slice(d.as_bytes());
                }
            }
        }
        out
    }
}

impl fmt::Debug for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:?}, {:?})", self.v, self.m)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.v)
    }
}

/// A version together with the COMMIT-signature of the client that
/// committed it.
///
/// The initial version `(0^n, ⊥^n)` is the only version that legitimately
/// carries no signature (Algorithm 1 line 35 exempts it from
/// verification).
#[derive(Clone, PartialEq, Eq)]
pub struct SignedVersion {
    /// The version `(V, M)`.
    pub version: Version,
    /// COMMIT-signature by the committing client, absent only for the
    /// initial version.
    pub sig: Option<Signature>,
}

impl SignedVersion {
    /// The unsigned initial version for `n` clients.
    pub fn initial(n: usize) -> Self {
        SignedVersion {
            version: Version::initial(n),
            sig: None,
        }
    }
}

impl fmt::Debug for SignedVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SignedVersion({:?}, {})",
            self.version,
            if self.sig.is_some() {
                "signed"
            } else {
                "unsigned"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faust_crypto::sha256;

    fn d(label: u8) -> Digest {
        sha256(&[label])
    }

    fn version(v: Vec<Timestamp>, m: Vec<Option<Digest>>) -> Version {
        Version::new(TimestampVec::from_vec(v), DigestVec::from_vec(m))
    }

    #[test]
    fn initial_is_minimal() {
        let init = Version::initial(3);
        let other = version(vec![1, 0, 2], vec![Some(d(1)), None, Some(d(2))]);
        assert!(init.le(&other));
        assert!(init.is_initial());
        assert!(!other.is_initial());
    }

    #[test]
    fn equal_versions_compare_equal() {
        let a = version(vec![1, 2], vec![Some(d(1)), Some(d(2))]);
        assert_eq!(a.compare(&a.clone()), VersionCmp::Equal);
    }

    #[test]
    fn pointwise_le_with_matching_digests_is_less() {
        let a = version(vec![1, 1], vec![Some(d(1)), Some(d(2))]);
        let b = version(vec![1, 2], vec![Some(d(1)), Some(d(3))]);
        // V equal at k=0 with equal digests; strictly larger at k=1 so the
        // differing digest there is allowed.
        assert_eq!(a.compare(&b), VersionCmp::Less);
        assert_eq!(b.compare(&a), VersionCmp::Greater);
    }

    #[test]
    fn equal_timestamp_entry_with_differing_digest_is_incomparable() {
        // Same V but different digest at an equal entry: the clients saw
        // different operation sequences of the same length — a fork.
        let a = version(vec![1, 1], vec![Some(d(1)), Some(d(2))]);
        let b = version(vec![1, 1], vec![Some(d(1)), Some(d(9))]);
        assert_eq!(a.compare(&b), VersionCmp::Incomparable);
        assert!(!a.comparable(&b));
    }

    #[test]
    fn crossing_timestamps_are_incomparable() {
        let a = version(vec![2, 0], vec![Some(d(1)), None]);
        let b = version(vec![0, 2], vec![None, Some(d(2))]);
        assert_eq!(a.compare(&b), VersionCmp::Incomparable);
    }

    #[test]
    fn le_is_antisymmetric() {
        let a = version(vec![1, 0], vec![Some(d(1)), None]);
        let b = version(vec![1, 1], vec![Some(d(1)), Some(d(2))]);
        assert!(a.le(&b) && !b.le(&a));
        assert!(a.lt(&b));
        assert!(!a.lt(&a.clone()));
    }

    #[test]
    fn signing_bytes_distinguish_versions() {
        let a = version(vec![1, 0], vec![Some(d(1)), None]);
        let b = version(vec![1, 0], vec![Some(d(2)), None]);
        let c = version(vec![0, 1], vec![Some(d(1)), None]);
        assert_ne!(a.signing_bytes(), b.signing_bytes());
        assert_ne!(a.signing_bytes(), c.signing_bytes());
    }

    #[test]
    fn signing_bytes_are_sized_once() {
        // 64 clients, every digest present: the 2 636 bytes every COMMIT-
        // signature at n = 64 covers, built without regrowing.
        let full = version((1..=64).collect(), (0..64).map(|k| Some(d(k))).collect());
        let bytes = full.signing_bytes();
        assert_eq!((bytes.len(), bytes.capacity()), (2636, 2636));
        assert!(Version::initial(64).signing_bytes().len() < 2636);
    }

    #[test]
    fn timestamp_vec_gt() {
        let a = TimestampVec::from_vec(vec![1, 2]);
        let b = TimestampVec::from_vec(vec![1, 1]);
        assert!(a.gt(&b));
        assert!(!b.gt(&a));
        assert!(!a.gt(&a.clone()));
        // Incomparable timestamp vectors: neither gt.
        let c = TimestampVec::from_vec(vec![2, 0]);
        assert!(!a.gt(&c));
        assert!(!c.gt(&a));
    }

    #[test]
    fn mismatched_arity_never_le() {
        let a = Version::initial(2);
        let b = Version::initial(3);
        assert!(!a.le(&b));
        assert!(!b.le(&a));
    }

    #[test]
    fn display_formats() {
        let a = version(vec![10, 8, 3], vec![None, None, None]);
        assert_eq!(a.to_string(), "[10,8,3]");
    }
}
