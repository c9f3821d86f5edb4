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
use std::sync::Arc;

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
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TimestampVec(Vec<Timestamp>);

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
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct DigestVec(Vec<Option<Digest>>);

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
/// # Sharing
///
/// A version is copy-on-write: `V` and `M` live behind one
/// reference-counted allocation.
///
/// * Anyone may hold it: the server's `SVER[c]` and the REPLYs built from
///   it, the engine's reply cache and COMMIT base, and a client's
///   installed version, its retained COMMITs and its completions all keep
///   one allocation. `clone` and `clone_from` bump a count and copy
///   nothing.
/// * A holder that writes — [`Version::v_mut`], [`Version::m_mut`] or
///   [`Version::parts_mut`] — first unshares: if anyone else holds the
///   allocation, it gets a copy of its own, so no write is ever seen
///   through another holder. A version that [`Version::new`],
///   [`Version::initial`] or a decoder built is held by no one else, and
///   its first write copies nothing.
/// * Each of those calls reads and resets the count with atomic
///   operations, so a loop that writes many entries takes both halves
///   once, with one [`Version::parts_mut`], before it: the client's fold
///   of `L` does.
///
/// Equality is by content, with a pointer fast path; identity is
/// [`Version::same_allocation`]. The arity-0 version, the placeholder for
/// a part a REPLY left out, holds no allocation at all.
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
#[derive(Clone)]
pub struct Version {
    /// `None` at arity 0.
    shared: Option<Arc<Parts>>,
}

/// What a [`Version`] shares.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Parts {
    v: TimestampVec,
    m: DigestVec,
}

/// The parts of every arity-0 version.
static EMPTY: Parts = Parts {
    v: TimestampVec(Vec::new()),
    m: DigestVec(Vec::new()),
};

impl PartialEq for Version {
    fn eq(&self, other: &Self) -> bool {
        self.same_allocation(other) || self.parts() == other.parts()
    }
}

impl Eq for Version {}

impl std::hash::Hash for Version {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl Version {
    /// The initial version `(0^n, ⊥^n)`.
    pub fn initial(n: usize) -> Self {
        Version::new(TimestampVec::zeros(n), DigestVec::bottoms(n))
    }

    /// Builds a version from its parts.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths.
    pub fn new(v: TimestampVec, m: DigestVec) -> Self {
        assert_eq!(v.len(), m.len(), "V and M must have the same arity");
        let shared = (!v.is_empty()).then(|| Arc::new(Parts { v, m }));
        Version { shared }
    }

    fn parts(&self) -> &Parts {
        self.shared.as_deref().unwrap_or(&EMPTY)
    }

    /// Whether `self` and `other` are clones of one version: the same
    /// shared allocation. It implies equal contents without reading them;
    /// equal contents do not imply it, and an arity-0 version, which has
    /// no allocation, is never one.
    pub fn same_allocation(&self, other: &Version) -> bool {
        match (&self.shared, &other.shared) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Whether this is the initial version `(0^n, ⊥^n)`.
    pub fn is_initial(&self) -> bool {
        let Parts { v, m } = self.parts();
        v.as_slice().iter().all(|&t| t == 0) && m.as_slice().iter().all(|d| d.is_none())
    }

    /// Number of clients `n`.
    pub fn num_clients(&self) -> usize {
        self.v().len()
    }

    /// The timestamp vector `V`.
    pub fn v(&self) -> &TimestampVec {
        &self.parts().v
    }

    /// The digest vector `M`.
    pub fn m(&self) -> &DigestVec {
        &self.parts().m
    }

    /// Mutable access to `V` (protocol-internal updates); unshares first.
    pub fn v_mut(&mut self) -> &mut TimestampVec {
        self.parts_mut().0
    }

    /// Mutable access to `M` (protocol-internal updates); unshares first.
    pub fn m_mut(&mut self) -> &mut DigestVec {
        self.parts_mut().1
    }

    /// Mutable access to `V` and `M` together, for one unsharing however
    /// many entries are written.
    pub fn parts_mut(&mut self) -> (&mut TimestampVec, &mut DigestVec) {
        let parts = Arc::make_mut(self.shared.get_or_insert_with(|| Arc::new(EMPTY.clone())));
        (&mut parts.v, &mut parts.m)
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
        let (m, other_m) = (self.m().as_slice(), other.m().as_slice());
        pointwise(self.v().as_slice(), other.v().as_slice(), |k| {
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
        let mut out = Vec::new();
        self.write_signing_bytes(&mut out);
        out
    }

    /// [`Version::signing_bytes`] written over what `out` held, in its
    /// buffer: a signer or verifier that keeps one buffer allocates once.
    pub fn write_signing_bytes(&self, out: &mut Vec<u8>) {
        let Parts { v, m } = self.parts();
        // Tag, arity, then 8 bytes of timestamp and at most 33 of digest
        // per client: sized once.
        out.clear();
        out.reserve_exact(8 + 4 + v.len() * (8 + 33));
        out.extend_from_slice(b"version:");
        out.extend_from_slice(&(v.len() as u32).to_be_bytes());
        for &t in v.as_slice() {
            out.extend_from_slice(&t.to_be_bytes());
        }
        for d in m.as_slice() {
            match d {
                None => out.push(0),
                Some(d) => {
                    out.push(1);
                    out.extend_from_slice(d.as_bytes());
                }
            }
        }
    }
}

impl fmt::Debug for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:?}, {:?})", self.v(), self.m())
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.v())
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
    fn signing_bytes_reuse_the_buffer_they_are_written_into() {
        let small = version(vec![1, 0], vec![Some(d(1)), None]);
        let full = version((1..=64).collect(), (0..64).map(|k| Some(d(k))).collect());
        let mut out = Vec::new();
        full.write_signing_bytes(&mut out);
        assert_eq!(out, full.signing_bytes());
        let buffer = out.as_ptr();
        small.write_signing_bytes(&mut out);
        assert_eq!(out, small.signing_bytes(), "what it held is written over");
        full.write_signing_bytes(&mut out);
        assert_eq!((out.as_ptr(), out.len()), (buffer, 2636), "no new buffer");
    }

    #[test]
    fn a_clone_shares_until_either_holder_writes() {
        let original = version(vec![1, 2, 3], vec![Some(d(1)), None, Some(d(3))]);
        let k = ClientId::new(1);
        let writes: [fn(&mut Version); 3] = [
            |w| w.v_mut().set(ClientId::new(1), 9),
            |w| w.m_mut().set(ClientId::new(1), sha256(b"m")),
            |w| {
                let (v, m) = w.parts_mut();
                v.increment(ClientId::new(1));
                m.set(ClientId::new(1), sha256(b"both"));
            },
        ];
        for write in writes {
            let (before, other) = (original.clone(), original.clone());
            let mut written = original.clone();
            assert!(written.same_allocation(&original) && other.same_allocation(&original));
            write(&mut written);
            assert!(!written.same_allocation(&original));
            assert_ne!(written, original);
            // Every other holder still reads what it held, in the
            // allocation it held.
            assert_eq!((&original, &other), (&before, &before));
            assert!(other.same_allocation(&original) && before.same_allocation(&original));
            assert_eq!(original.v().get(k), 2);
            // Unshared now: a second write copies nothing.
            let at = written.v().as_slice().as_ptr();
            write(&mut written);
            assert_eq!(written.v().as_slice().as_ptr(), at);
        }
    }

    #[test]
    fn sharing_is_identity_and_equality_stays_by_content() {
        let a = version(vec![1, 0], vec![Some(d(1)), None]);
        let b = version(vec![1, 0], vec![Some(d(1)), None]);
        assert!(a.same_allocation(&a.clone()));
        assert!(!a.same_allocation(&b), "equal contents, two allocations");
        assert_eq!(a, b);
        let mut copied = Version::initial(2);
        copied.clone_from(&a);
        assert!(copied.same_allocation(&a));
        // The arity-0 placeholder holds nothing, so it shares nothing, and
        // equals any other arity-0 version, however built.
        let empty = Version::new(TimestampVec::from_vec(vec![]), DigestVec::from_vec(vec![]));
        assert_eq!(empty, Version::initial(0));
        assert!(!empty.same_allocation(&empty.clone()));
        assert_eq!((empty.num_clients(), empty.is_initial()), (0, true));
    }

    #[test]
    fn a_decoded_version_is_unshared() {
        use crate::wire::Wire;
        let a = version(vec![4, 2], vec![Some(d(4)), Some(d(2))]);
        let mut decoded = Version::decode(&a.encode()).unwrap();
        assert_eq!(decoded, a);
        assert!(!decoded.same_allocation(&a));
        let at = decoded.v().as_slice().as_ptr();
        decoded.parts_mut().0.increment(ClientId::new(0));
        assert_eq!(decoded.v().as_slice().as_ptr(), at, "written in place");
        assert_eq!(a.v().get(ClientId::new(0)), 4);
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
