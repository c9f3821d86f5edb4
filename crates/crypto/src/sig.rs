//! The signature abstraction of the FAUST paper.
//!
//! USTOR attaches four kinds of signatures to its messages (Section 5 of
//! the paper): SUBMIT-signatures on invocation tuples, DATA-signatures
//! binding a timestamp to the hash of the last written value,
//! COMMIT-signatures on versions, and PROOF-signatures on digest-vector
//! entries. All of them are modelled here as domain-separated signatures
//! over byte strings.
//!
//! # Schemes
//!
//! Two interchangeable schemes live behind the [`Signer`] / [`Verifier`]
//! traits, selected at key-generation time ([`SigScheme`]):
//!
//! * **HMAC-SHA256** ([`SigScheme::Hmac`]) — one shared secret per
//!   client. Fast and deterministic; the right choice for the simulator
//!   and benchmarks. Its verification keys *are* the signing keys, so a
//!   verifier can forge: handing the registry to the untrusted server is
//!   unsound in the paper's trust model.
//! * **Ed25519** ([`SigScheme::Ed25519`]) — the in-tree public-key
//!   scheme of [`crate::ed25519`]. Verification keys carry no forging
//!   power, so the server can be given the full registry and perform
//!   sound ingress verification. This matches the paper's assumption
//!   that only `C_i` can produce `sign_i`.
//!
//! `docs/trust-model.md` at the repository root spells out which
//! properties each scheme delivers; [`VerifierRegistry::try_forge`]
//! demonstrates the difference executable-ly.
//!
//! Setup ([`KeySet::generate`] / [`KeySet::generate_ed25519`]) yields one
//! [`Keypair`] per client — the only value capable of producing that
//! client's signatures — and a shared [`VerifierRegistry`]. Protocol code
//! treats [`Signature`]s as opaque values and never mentions a scheme.

use crate::hmac::{constant_time_eq, PreparedHmac};
use crate::sha256::{sha256, Digest};
use crate::{ed25519, sha512};
use std::fmt;
use std::sync::Arc;

/// Index of a client, `0 ≤ id < n`.
///
/// The paper numbers clients `C_1..C_n`; this implementation uses zero-based
/// indices throughout.
pub type ClientIndex = u32;

/// Which signature scheme a [`KeySet`] (and everything derived from it)
/// uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SigScheme {
    /// Shared-secret HMAC-SHA256: fast, but verification keys can forge.
    #[default]
    Hmac,
    /// In-tree Ed25519: verification keys are public; sound ingress
    /// verification at the untrusted server.
    Ed25519,
}

/// Domain-separation tag for the four signature roles used by USTOR plus
/// the offline-message role used by FAUST.
///
/// Mixing a context byte into every signed message ensures a signature
/// produced for one role can never be replayed in another (e.g. a faulty
/// server cannot present a DATA-signature where a COMMIT-signature is
/// expected).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SigContext {
    /// Signature on an invocation tuple in a SUBMIT message.
    Submit,
    /// Signature binding a timestamp to the hash of the written value.
    Data,
    /// Signature on a version `(V, M)` in a COMMIT message.
    Commit,
    /// Signature on the signer's own digest-vector entry `M_i[i]`.
    Proof,
    /// Signature on offline client-to-client messages (FAUST layer).
    Offline,
}

impl SigContext {
    /// The tag byte mixed into signed messages.
    pub fn tag(self) -> u8 {
        match self {
            SigContext::Submit => 1,
            SigContext::Data => 2,
            SigContext::Commit => 3,
            SigContext::Proof => 4,
            SigContext::Offline => 5,
        }
    }
}

/// An opaque signature value: a 32-byte MAC or a 64-byte Ed25519
/// signature, tagged.
///
/// The server stores and forwards signatures without being able to create
/// or validate them (Ed25519), or without being *handed the keys* to do
/// so (HMAC). Protocol code never inspects the variant; the wire codec
/// encodes it as a one-byte tag plus the raw bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Signature {
    /// An HMAC-SHA256 tag.
    Mac([u8; 32]),
    /// An Ed25519 signature (R ‖ s).
    Ed25519([u8; ed25519::SIGNATURE_LEN]),
}

impl Signature {
    /// The raw signature bytes (length depends on the scheme).
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            Signature::Mac(b) => b,
            Signature::Ed25519(b) => b,
        }
    }

    /// The scheme this signature was produced under.
    pub fn scheme(&self) -> SigScheme {
        match self {
            Signature::Mac(_) => SigScheme::Hmac,
            Signature::Ed25519(_) => SigScheme::Ed25519,
        }
    }

    /// A syntactically valid but never-verifying placeholder, useful for
    /// modelling a Byzantine server that fabricates messages.
    pub fn garbage() -> Self {
        Signature::Mac(sha256(b"garbage signature").into_bytes())
    }

    /// Ed25519-shaped garbage: 64 fixed pseudorandom bytes. They may or
    /// may not survive signature *parsing* (a random R decodes as a
    /// point about half the time), but they never *verify* against any
    /// key. Used by adversary models targeting public-key deployments.
    pub fn garbage_ed25519() -> Self {
        let h = sha512::sha512(b"garbage ed25519 signature");
        let mut b = [0u8; ed25519::SIGNATURE_LEN];
        b.copy_from_slice(&h);
        Signature::Ed25519(b)
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hex: String = self.as_bytes()[..4]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        match self {
            Signature::Mac(_) => write!(f, "Signature(mac:{hex}..)"),
            Signature::Ed25519(_) => write!(f, "Signature(ed25519:{hex}..)"),
        }
    }
}

/// Anything able to produce signatures on behalf of one client.
pub trait Signer {
    /// The index of the client this signer signs for.
    fn signer_index(&self) -> ClientIndex;

    /// Signs `message` under domain `context`.
    fn sign(&self, context: SigContext, message: &[u8]) -> Signature;
}

/// Anything able to verify any client's signatures.
pub trait Verifier {
    /// Returns `true` iff `sig` is a valid signature by client `signer` on
    /// `message` under domain `context`.
    fn verify(
        &self,
        signer: ClientIndex,
        context: SigContext,
        message: &[u8],
        sig: &Signature,
    ) -> bool;
}

/// Per-client HMAC secret key material, held as the keyed midstates so
/// that no MAC — signing or verification — pays for the key schedule
/// again. Never leaves this module.
#[derive(Clone)]
struct SecretKey(PreparedHmac);

impl SecretKey {
    fn derive(seed: &[u8], index: ClientIndex) -> Self {
        let mut h = crate::sha256::Sha256::new();
        h.update(b"faust-key-derivation/v1");
        h.update(seed);
        h.update(&index.to_be_bytes());
        SecretKey(PreparedHmac::new(h.finalize().as_bytes()))
    }
}

/// The scheme-specific half of a [`Keypair`].
#[derive(Clone)]
enum KeypairInner {
    Hmac(SecretKey),
    Ed25519(ed25519::SigningKey),
}

/// A client's signing capability.
///
/// Only the holder of a `Keypair` can produce that client's signatures; the
/// untrusted server is never given one.
#[derive(Clone)]
pub struct Keypair {
    index: ClientIndex,
    inner: KeypairInner,
}

impl fmt::Debug for Keypair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Keypair")
            .field("index", &self.index)
            .field("scheme", &self.scheme())
            .finish_non_exhaustive()
    }
}

impl Keypair {
    /// The scheme this keypair signs under.
    pub fn scheme(&self) -> SigScheme {
        match &self.inner {
            KeypairInner::Hmac(_) => SigScheme::Hmac,
            KeypairInner::Ed25519(_) => SigScheme::Ed25519,
        }
    }
}

impl Signer for Keypair {
    fn signer_index(&self) -> ClientIndex {
        self.index
    }

    fn sign(&self, context: SigContext, message: &[u8]) -> Signature {
        match &self.inner {
            KeypairInner::Hmac(secret) => {
                Signature::Mac(tagged_mac(secret, context, message).into_bytes())
            }
            KeypairInner::Ed25519(key) => {
                Signature::Ed25519(key.sign(&tagged_message(context, message)))
            }
        }
    }
}

/// `context.tag() ‖ message` — the bytes actually signed, identical for
/// both schemes so the domain separation argument is scheme-independent.
fn tagged_message(context: SigContext, message: &[u8]) -> Vec<u8> {
    let mut tagged = Vec::with_capacity(1 + message.len());
    tagged.push(context.tag());
    tagged.extend_from_slice(message);
    tagged
}

/// The one HMAC path: `MAC(key, context.tag() ‖ message)` from the key's
/// prepared midstates, without materialising the tagged message.
fn tagged_mac(secret: &SecretKey, context: SigContext, message: &[u8]) -> Digest {
    secret.0.mac(&[&[context.tag()], message])
}

/// The scheme-specific key material of a [`VerifierRegistry`].
#[derive(Clone)]
enum RegistryInner {
    /// HMAC verification keys are the signing secrets themselves.
    Hmac(Arc<[SecretKey]>),
    /// Ed25519 verification keys are public.
    Ed25519(Arc<[ed25519::VerifyingKey]>),
}

/// Verification keys for all `n` clients.
///
/// With [`SigScheme::Ed25519`] the registry holds *public* keys only and
/// may be handed to anyone — including the untrusted server, which is how
/// the engine's ingress verification becomes sound. With
/// [`SigScheme::Hmac`] the registry holds the shared secrets and must be
/// distributed to clients only; a server holding it could forge
/// ([`VerifierRegistry::try_forge`]).
#[derive(Clone)]
pub struct VerifierRegistry {
    inner: RegistryInner,
}

impl fmt::Debug for VerifierRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VerifierRegistry")
            .field("scheme", &self.scheme())
            .field("clients", &self.num_clients())
            .finish_non_exhaustive()
    }
}

impl VerifierRegistry {
    /// Number of clients the registry can verify for.
    pub fn num_clients(&self) -> usize {
        match &self.inner {
            RegistryInner::Hmac(keys) => keys.len(),
            RegistryInner::Ed25519(keys) => keys.len(),
        }
    }

    /// The scheme behind this registry.
    pub fn scheme(&self) -> SigScheme {
        match &self.inner {
            RegistryInner::Hmac(_) => SigScheme::Hmac,
            RegistryInner::Ed25519(_) => SigScheme::Ed25519,
        }
    }

    /// Whether this registry holds only public key material, i.e. whether
    /// handing it to the untrusted server preserves unforgeability.
    pub fn is_public(&self) -> bool {
        matches!(self.inner, RegistryInner::Ed25519(_))
    }

    /// Attempts to *forge* a signature for `signer` using nothing but
    /// this registry — the attack a verification-key-holding server could
    /// mount. Succeeds for HMAC (verification keys are signing keys) and
    /// returns `None` for Ed25519 (public keys carry no signing power).
    ///
    /// This exists to make the trust-model difference testable; see
    /// `docs/trust-model.md`.
    pub fn try_forge(
        &self,
        signer: ClientIndex,
        context: SigContext,
        message: &[u8],
    ) -> Option<Signature> {
        match &self.inner {
            RegistryInner::Hmac(keys) => {
                let secret = keys.get(signer as usize)?;
                Some(Signature::Mac(
                    tagged_mac(secret, context, message).into_bytes(),
                ))
            }
            RegistryInner::Ed25519(_) => None,
        }
    }
}

impl Verifier for VerifierRegistry {
    fn verify(
        &self,
        signer: ClientIndex,
        context: SigContext,
        message: &[u8],
        sig: &Signature,
    ) -> bool {
        match &self.inner {
            RegistryInner::Hmac(keys) => {
                let Some(secret) = keys.get(signer as usize) else {
                    return false;
                };
                let Signature::Mac(mac) = sig else {
                    return false; // scheme mismatch never verifies
                };
                let expect = tagged_mac(secret, context, message);
                constant_time_eq(&expect, &Digest::from_bytes(*mac))
            }
            RegistryInner::Ed25519(keys) => {
                let Some(public) = keys.get(signer as usize) else {
                    return false;
                };
                let Signature::Ed25519(sig) = sig else {
                    return false;
                };
                public.verify(&tagged_message(context, message), sig)
            }
        }
    }
}

/// The trusted-setup artifact: every client's [`Keypair`] plus the shared
/// [`VerifierRegistry`].
///
/// # Example
///
/// ```
/// use faust_crypto::sig::{KeySet, SigContext, SigScheme, Signer, Verifier};
///
/// for scheme in [SigScheme::Hmac, SigScheme::Ed25519] {
///     let keys = KeySet::generate_with(scheme, 2, b"seed");
///     let c0 = keys.keypair(0).expect("client 0");
///     let sig = c0.sign(SigContext::Commit, b"version bytes");
///     assert!(keys.registry().verify(0, SigContext::Commit, b"version bytes", &sig));
///     // A different message or signer index does not verify.
///     assert!(!keys.registry().verify(0, SigContext::Commit, b"other", &sig));
///     assert!(!keys.registry().verify(1, SigContext::Commit, b"version bytes", &sig));
/// }
/// // Only the Ed25519 registry is safe to hand to the untrusted server.
/// assert!(KeySet::generate_ed25519(2, b"seed").registry().is_public());
/// ```
#[derive(Debug, Clone)]
pub struct KeySet {
    keypairs: Vec<Keypair>,
    registry: VerifierRegistry,
}

impl KeySet {
    /// Deterministically generates HMAC keys for `n` clients from `seed`
    /// (the simulator/bench fast path; see [`KeySet::generate_with`]).
    ///
    /// The same `(n, seed)` always yields the same keys, keeping simulated
    /// executions reproducible.
    pub fn generate(n: usize, seed: &[u8]) -> Self {
        Self::generate_with(SigScheme::Hmac, n, seed)
    }

    /// Deterministically generates Ed25519 keys for `n` clients from
    /// `seed`. The registry holds public keys only.
    pub fn generate_ed25519(n: usize, seed: &[u8]) -> Self {
        Self::generate_with(SigScheme::Ed25519, n, seed)
    }

    /// Deterministically generates keys for `n` clients under `scheme`.
    pub fn generate_with(scheme: SigScheme, n: usize, seed: &[u8]) -> Self {
        match scheme {
            SigScheme::Hmac => {
                let secrets: Vec<SecretKey> = (0..n as ClientIndex)
                    .map(|i| SecretKey::derive(seed, i))
                    .collect();
                let keypairs = secrets
                    .iter()
                    .enumerate()
                    .map(|(i, secret)| Keypair {
                        index: i as ClientIndex,
                        inner: KeypairInner::Hmac(secret.clone()),
                    })
                    .collect();
                KeySet {
                    keypairs,
                    registry: VerifierRegistry {
                        inner: RegistryInner::Hmac(secrets.into()),
                    },
                }
            }
            SigScheme::Ed25519 => {
                let signing: Vec<ed25519::SigningKey> = (0..n as ClientIndex)
                    .map(|i| {
                        let mut h = crate::sha256::Sha256::new();
                        h.update(b"faust-ed25519-keygen/v1");
                        h.update(seed);
                        h.update(&i.to_be_bytes());
                        ed25519::SigningKey::from_seed(&h.finalize().into_bytes())
                    })
                    .collect();
                let publics: Vec<ed25519::VerifyingKey> =
                    signing.iter().map(|k| k.verifying_key()).collect();
                let keypairs = signing
                    .into_iter()
                    .enumerate()
                    .map(|(i, key)| Keypair {
                        index: i as ClientIndex,
                        inner: KeypairInner::Ed25519(key),
                    })
                    .collect();
                KeySet {
                    keypairs,
                    registry: VerifierRegistry {
                        inner: RegistryInner::Ed25519(publics.into()),
                    },
                }
            }
        }
    }

    /// The scheme these keys were generated under.
    pub fn scheme(&self) -> SigScheme {
        self.registry.scheme()
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.keypairs.len()
    }

    /// The signing keypair of client `index`, if it exists.
    pub fn keypair(&self, index: ClientIndex) -> Option<&Keypair> {
        self.keypairs.get(index as usize)
    }

    /// The shared verification registry. Safe to hand to the server only
    /// when [`VerifierRegistry::is_public`] — clients may always hold it.
    pub fn registry(&self) -> VerifierRegistry {
        self.registry.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMES: [SigScheme; 2] = [SigScheme::Hmac, SigScheme::Ed25519];

    #[test]
    fn sign_verify_roundtrip() {
        for scheme in SCHEMES {
            let keys = KeySet::generate_with(scheme, 4, b"t");
            let reg = keys.registry();
            for i in 0..4 {
                let kp = keys.keypair(i).unwrap();
                let sig = kp.sign(SigContext::Submit, b"hello");
                assert!(
                    reg.verify(i, SigContext::Submit, b"hello", &sig),
                    "{scheme:?}/{i}"
                );
            }
        }
    }

    #[test]
    fn wrong_message_rejected() {
        for scheme in SCHEMES {
            let keys = KeySet::generate_with(scheme, 2, b"t");
            let sig = keys.keypair(0).unwrap().sign(SigContext::Data, b"m1");
            assert!(!keys.registry().verify(0, SigContext::Data, b"m2", &sig));
        }
    }

    #[test]
    fn wrong_signer_rejected() {
        for scheme in SCHEMES {
            let keys = KeySet::generate_with(scheme, 2, b"t");
            let sig = keys.keypair(0).unwrap().sign(SigContext::Data, b"m");
            assert!(!keys.registry().verify(1, SigContext::Data, b"m", &sig));
        }
    }

    #[test]
    fn wrong_context_rejected() {
        for scheme in SCHEMES {
            let keys = KeySet::generate_with(scheme, 1, b"t");
            let sig = keys.keypair(0).unwrap().sign(SigContext::Data, b"m");
            assert!(!keys.registry().verify(0, SigContext::Commit, b"m", &sig));
            assert!(!keys.registry().verify(0, SigContext::Proof, b"m", &sig));
        }
    }

    #[test]
    fn out_of_range_signer_rejected() {
        for scheme in SCHEMES {
            let keys = KeySet::generate_with(scheme, 2, b"t");
            let sig = keys.keypair(0).unwrap().sign(SigContext::Data, b"m");
            assert!(!keys.registry().verify(99, SigContext::Data, b"m", &sig));
        }
    }

    #[test]
    fn garbage_signature_rejected() {
        for scheme in SCHEMES {
            let keys = KeySet::generate_with(scheme, 2, b"t");
            for garbage in [Signature::garbage(), Signature::garbage_ed25519()] {
                assert!(
                    !keys.registry().verify(0, SigContext::Data, b"m", &garbage),
                    "{scheme:?}/{garbage:?}"
                );
            }
        }
    }

    #[test]
    fn cross_scheme_signatures_rejected() {
        // An HMAC signature shown to an Ed25519 registry (and vice versa)
        // must fail cleanly, not panic or alias.
        let hmac = KeySet::generate(2, b"x");
        let ed = KeySet::generate_ed25519(2, b"x");
        let mac_sig = hmac.keypair(0).unwrap().sign(SigContext::Data, b"m");
        let ed_sig = ed.keypair(0).unwrap().sign(SigContext::Data, b"m");
        assert!(!ed.registry().verify(0, SigContext::Data, b"m", &mac_sig));
        assert!(!hmac.registry().verify(0, SigContext::Data, b"m", &ed_sig));
    }

    #[test]
    fn generation_is_deterministic() {
        for scheme in SCHEMES {
            let a = KeySet::generate_with(scheme, 3, b"same-seed");
            let b = KeySet::generate_with(scheme, 3, b"same-seed");
            let sig_a = a.keypair(1).unwrap().sign(SigContext::Proof, b"x");
            let sig_b = b.keypair(1).unwrap().sign(SigContext::Proof, b"x");
            assert_eq!(sig_a, sig_b);
        }
    }

    #[test]
    fn different_seeds_different_keys() {
        for scheme in SCHEMES {
            let a = KeySet::generate_with(scheme, 1, b"seed-a");
            let b = KeySet::generate_with(scheme, 1, b"seed-b");
            let sig = a.keypair(0).unwrap().sign(SigContext::Proof, b"x");
            assert!(!b.registry().verify(0, SigContext::Proof, b"x", &sig));
        }
    }

    #[test]
    fn hmac_registry_can_forge_but_ed25519_cannot() {
        // The executable statement of the trust-model gap: a server
        // holding the HMAC registry can fabricate any client's signature;
        // one holding only Ed25519 public keys cannot.
        let hmac = KeySet::generate(2, b"forge");
        let forged = hmac
            .registry()
            .try_forge(0, SigContext::Submit, b"evil op")
            .expect("HMAC registries can forge");
        assert!(hmac
            .registry()
            .verify(0, SigContext::Submit, b"evil op", &forged));

        let ed = KeySet::generate_ed25519(2, b"forge");
        assert!(ed
            .registry()
            .try_forge(0, SigContext::Submit, b"evil op")
            .is_none());
        assert!(ed.registry().is_public());
        assert!(!hmac.registry().is_public());
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;

    #[test]
    fn truncated_style_corruptions_rejected() {
        // Wire decoding makes truncation unrepresentable (fixed-length
        // reads), so "truncated" arrives as bit-corrupted or
        // wrong-variant signatures; both must fail closed.
        let keys = KeySet::generate_ed25519(2, b"batch");
        let message = b"message 0/0";
        let Signature::Ed25519(good) = keys.keypair(0).unwrap().sign(SigContext::Submit, message)
        else {
            panic!("ed25519 key");
        };
        let mut zeroed_r = good;
        zeroed_r[..32].fill(0);
        let mut huge_s = good;
        huge_s[32..].fill(0xFF); // s ≥ L: non-canonical
        for bad in [
            Signature::Ed25519(zeroed_r),
            Signature::Ed25519(huge_s),
            Signature::Mac([0xAB; 32]),
        ] {
            assert!(!keys.registry().verify(0, SigContext::Submit, message, &bad));
        }
    }
}
