//! Ed25519 signatures (RFC 8032), implemented from scratch.
//!
//! This is the *public-key* signature scheme of the FAUST reproduction:
//! unlike the HMAC scheme in [`crate::sig`], verification keys carry no
//! forging power, so the untrusted server can be handed every
//! [`VerifyingKey`] and still cannot fabricate a single client message —
//! exactly the trust model the paper assumes (see `docs/trust-model.md`
//! at the repository root).
//!
//! Everything is built on the in-tree primitives: [`mod@crate::sha512`] for
//! key expansion, nonces, and challenges; the private `field` and
//! `point` submodules for curve25519 arithmetic; `scalar` for arithmetic
//! modulo the group order L. There are no external crates and no transcribed magic-number
//! tables — curve constants are derived from their defining equations and
//! pinned by the RFC 8032 test vectors below.
//!
//! # Example
//!
//! ```
//! use faust_crypto::ed25519::SigningKey;
//!
//! let sk = SigningKey::from_seed(&[7u8; 32]);
//! let sig = sk.sign(b"attack at dawn");
//! assert!(sk.verifying_key().verify(b"attack at dawn", &sig));
//! assert!(!sk.verifying_key().verify(b"attack at dusk", &sig));
//! ```

pub(crate) mod field;
pub(crate) mod point;
pub(crate) mod scalar;

use crate::sha512::Sha512;
use point::Point;
use scalar::Scalar;
use std::fmt;

/// Byte length of an Ed25519 signature (R ‖ s).
pub const SIGNATURE_LEN: usize = 64;

/// Byte length of a compressed public key.
pub const PUBLIC_KEY_LEN: usize = 32;

/// Byte length of a private seed.
pub const SEED_LEN: usize = 32;

/// An Ed25519 signing key: the 32-byte seed plus its expansion.
///
/// Holding a `SigningKey` is the capability to sign; the corresponding
/// [`VerifyingKey`] can be shared with anyone — including the untrusted
/// server — without granting any forging power.
#[derive(Clone)]
pub struct SigningKey {
    /// Clamped secret scalar `a` (reduced mod L — harmless, since B has
    /// order L).
    a: Scalar,
    /// The nonce prefix (second half of SHA-512(seed)).
    prefix: [u8; 32],
    public: VerifyingKey,
}

impl fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SigningKey")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

/// An Ed25519 public key: the compressed point A = a·B plus its cached
/// negation.
#[derive(Clone, Copy)]
pub struct VerifyingKey {
    compressed: [u8; PUBLIC_KEY_LEN],
    /// −A, precomputed for the verification equation R = s·B − h·A.
    neg_point: Point,
}

impl fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hex: String = self.compressed[..6]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        write!(f, "VerifyingKey({hex}..)")
    }
}

impl PartialEq for VerifyingKey {
    fn eq(&self, other: &Self) -> bool {
        self.compressed == other.compressed
    }
}
impl Eq for VerifyingKey {}

impl SigningKey {
    /// Derives a signing key from a 32-byte seed (RFC 8032 §5.1.5).
    pub fn from_seed(seed: &[u8; SEED_LEN]) -> SigningKey {
        let mut h = Sha512::new();
        h.update(seed);
        let expanded = h.finalize();
        let mut a_bytes = [0u8; 32];
        a_bytes.copy_from_slice(&expanded[..32]);
        // Clamp: clear the cofactor bits, set bit 254.
        a_bytes[0] &= 0xf8;
        a_bytes[31] &= 0x7f;
        a_bytes[31] |= 0x40;
        let a = Scalar::from_bytes_reduced(&a_bytes);
        let mut prefix = [0u8; 32];
        prefix.copy_from_slice(&expanded[32..]);
        let public_point = point::mul_base(a.as_bytes());
        let public = VerifyingKey {
            compressed: public_point.compress(),
            neg_point: public_point.neg(),
        };
        SigningKey { a, prefix, public }
    }

    /// The corresponding public key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.public
    }

    /// Signs `message`, deterministically (RFC 8032 §5.1.6).
    pub fn sign(&self, message: &[u8]) -> [u8; SIGNATURE_LEN] {
        let mut h = Sha512::new();
        h.update(&self.prefix);
        h.update(message);
        let r = Scalar::from_bytes_wide(&h.finalize());
        let r_point = point::mul_base(r.as_bytes());
        let r_bytes = r_point.compress();
        let hram = challenge(&r_bytes, &self.public.compressed, message);
        let s = Scalar::mul_add(&hram, &self.a, &r);
        let mut sig = [0u8; SIGNATURE_LEN];
        sig[..32].copy_from_slice(&r_bytes);
        sig[32..].copy_from_slice(s.as_bytes());
        sig
    }
}

/// h = SHA-512(R ‖ A ‖ M) mod L.
fn challenge(r_bytes: &[u8; 32], public: &[u8; 32], message: &[u8]) -> Scalar {
    let mut h = Sha512::new();
    h.update(r_bytes);
    h.update(public);
    h.update(message);
    Scalar::from_bytes_wide(&h.finalize())
}

/// The parsed, validated parts of a signature: decompressed R and
/// canonical s.
struct ParsedSig {
    r_bytes: [u8; 32],
    r_point: Point,
    s: Scalar,
}

fn parse_signature(sig: &[u8; SIGNATURE_LEN]) -> Option<ParsedSig> {
    let mut r_bytes = [0u8; 32];
    r_bytes.copy_from_slice(&sig[..32]);
    let r_point = Point::decompress(&r_bytes)?;
    let mut s_bytes = [0u8; 32];
    s_bytes.copy_from_slice(&sig[32..]);
    // RFC 8032: reject s ≥ L (signature malleability).
    let s = Scalar::from_canonical_bytes(&s_bytes)?;
    Some(ParsedSig {
        r_bytes,
        r_point,
        s,
    })
}

impl VerifyingKey {
    /// Reconstructs a public key from its compressed encoding; `None` if
    /// the bytes are not a valid point encoding.
    pub fn from_bytes(bytes: &[u8; PUBLIC_KEY_LEN]) -> Option<VerifyingKey> {
        let point = Point::decompress(bytes)?;
        Some(VerifyingKey {
            compressed: *bytes,
            neg_point: point.neg(),
        })
    }

    /// The compressed 32-byte encoding.
    pub fn as_bytes(&self) -> &[u8; PUBLIC_KEY_LEN] {
        &self.compressed
    }

    /// Verifies `sig` over `message` (RFC 8032 §5.1.7, cofactorless:
    /// the equation s·B = R + h·A is checked exactly, by comparing the
    /// canonical encoding of s·B − h·A against the signature's R).
    pub fn verify(&self, message: &[u8], sig: &[u8; SIGNATURE_LEN]) -> bool {
        let Some(parsed) = parse_signature(sig) else {
            return false;
        };
        let h = challenge(&parsed.r_bytes, &self.compressed, message);
        // s·B + h·(−A), one interleaved double-scalar multiplication
        // (B's multiples table is cached across calls).
        let candidate = point::vartime_double_scalar_mul_base(
            parsed.s.as_bytes(),
            h.as_bytes(),
            &self.neg_point,
        );
        // R decompressed, so comparing points (not bytes) is exact.
        candidate.eq_vartime(&parsed.r_point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
            .collect()
    }

    fn seed32(s: &str) -> [u8; 32] {
        unhex(s).try_into().expect("32 bytes")
    }

    struct Rfc8032Vector {
        seed: &'static str,
        public: &'static str,
        message: &'static str,
        signature: &'static str,
    }

    /// RFC 8032 §7.1, TEST 1–3.
    const VECTORS: &[Rfc8032Vector] = &[
        Rfc8032Vector {
            seed: "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
            public: "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
            message: "",
            signature: "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
                        5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
        },
        Rfc8032Vector {
            seed: "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
            public: "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
            message: "72",
            signature: "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
                        085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
        },
        Rfc8032Vector {
            seed: "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
            public: "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
            message: "af82",
            signature: "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
                        18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
        },
    ];

    #[test]
    fn rfc8032_vectors_sign_and_verify() {
        for (i, v) in VECTORS.iter().enumerate() {
            let sk = SigningKey::from_seed(&seed32(v.seed));
            assert_eq!(
                sk.verifying_key().as_bytes().to_vec(),
                unhex(v.public),
                "public key, vector {i}"
            );
            let msg = unhex(v.message);
            let sig = sk.sign(&msg);
            assert_eq!(sig.to_vec(), unhex(v.signature), "signature, vector {i}");
            assert!(sk.verifying_key().verify(&msg, &sig), "verify, vector {i}");
        }
    }

    #[test]
    fn wrong_message_or_key_rejected() {
        let sk = SigningKey::from_seed(&[1u8; 32]);
        let other = SigningKey::from_seed(&[2u8; 32]);
        let sig = sk.sign(b"msg");
        assert!(!sk.verifying_key().verify(b"msG", &sig));
        assert!(!other.verifying_key().verify(b"msg", &sig));
    }

    #[test]
    fn corrupted_signature_bits_rejected() {
        let sk = SigningKey::from_seed(&[3u8; 32]);
        let sig = sk.sign(b"payload");
        for byte in [0usize, 31, 32, 63] {
            let mut bad = sig;
            bad[byte] ^= 0x01;
            assert!(
                !sk.verifying_key().verify(b"payload", &bad),
                "flipped byte {byte}"
            );
        }
    }

    #[test]
    fn non_canonical_s_rejected() {
        // s' = s + L re-encodes the same residue non-canonically; a
        // malleable verifier would accept it.
        let sk = SigningKey::from_seed(&[4u8; 32]);
        let sig = sk.sign(b"m");
        let mut s = [0u8; 32];
        s.copy_from_slice(&sig[32..]);
        // add L to s (little-endian byte addition).
        let l_bytes: [u8; 32] = {
            let mut b = [0u8; 32];
            b[..8].copy_from_slice(&0x5812631a5cf5d3ed_u64.to_le_bytes());
            b[8..16].copy_from_slice(&0x14def9dea2f79cd6_u64.to_le_bytes());
            b[24..32].copy_from_slice(&0x1000000000000000_u64.to_le_bytes());
            b
        };
        let mut carry = 0u16;
        let mut s_plus_l = [0u8; 32];
        for i in 0..32 {
            let acc = s[i] as u16 + l_bytes[i] as u16 + carry;
            s_plus_l[i] = acc as u8;
            carry = acc >> 8;
        }
        assert_eq!(carry, 0, "s + L fits 256 bits");
        let mut bad = sig;
        bad[32..].copy_from_slice(&s_plus_l);
        assert!(!sk.verifying_key().verify(b"m", &bad));
    }

    #[test]
    fn public_key_bytes_roundtrip() {
        let sk = SigningKey::from_seed(&[5u8; 32]);
        let pk = sk.verifying_key();
        let rebuilt = VerifyingKey::from_bytes(pk.as_bytes()).expect("valid encoding");
        assert_eq!(rebuilt, pk);
        let sig = sk.sign(b"roundtrip");
        assert!(rebuilt.verify(b"roundtrip", &sig));
    }

    #[test]
    fn invalid_public_key_bytes_rejected() {
        let mut off_curve = [0u8; 32];
        off_curve[0] = 2;
        assert!(VerifyingKey::from_bytes(&off_curve).is_none());
    }
}
