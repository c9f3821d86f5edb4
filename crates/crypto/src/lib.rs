//! From-scratch cryptographic substrate for the FAUST / USTOR protocols.
//!
//! The paper *Fail-Aware Untrusted Storage* (Cachin, Keidar, Shraer; DSN
//! 2009) assumes a collision-resistant hash function `H` and digital
//! signatures (`sign_i` / `verify_i`). This crate provides both, built from
//! first principles so the repository has no external cryptographic
//! dependencies:
//!
//! * [`mod@sha256`] — a complete SHA-256 implementation with incremental
//!   hashing, verified against the NIST FIPS 180-4 test vectors. One
//!   dispatch point feeds the scalar reference kernel or, detected at run
//!   time, the x86-64 SHA-extensions one ([`sha256::backend`] says which).
//! * [`mod@sha512`] — SHA-512, same structure, required by Ed25519.
//! * [`hmac`] — HMAC-SHA256 (RFC 2104), verified against the RFC 4231 test
//!   vectors.
//! * [`ed25519`] — Ed25519 signatures (RFC 8032): curve25519 field and
//!   scalar arithmetic, point compression, deterministic signing and strict
//!   verification — all in-tree, verified against the RFC 8032 test
//!   vectors.
//! * [`sig`] — the signature abstraction of the paper: per-client signing
//!   keys, a shared verifier registry, and domain-separated signature roles
//!   (`SUBMIT`, `DATA`, `COMMIT`, `PROOF`), generic over the scheme.
//! * [`chain`] — the digest chains `D(ω_1 … ω_m)` used by USTOR to commit to
//!   view histories (Section 5 of the paper).
//!
//! # Trust model of the signature schemes
//!
//! The paper's requirements are (a) only `C_i` can produce `sign_i`,
//! (b) every client can verify any signature, and (c) the untrusted
//! server can forge nothing. Two schemes are offered behind the
//! [`sig::Signer`] / [`sig::Verifier`] traits ([`sig::SigScheme`]):
//!
//! * **HMAC-SHA256** — verification keys are the signing secrets, so (c)
//!   holds only while the server is never handed the registry. Fast;
//!   right for the deterministic simulator and benchmarks.
//! * **Ed25519** — verification keys are public, so the registry can be
//!   given to the server for *sound* ingress verification; (a)–(c) hold
//!   unconditionally. This is the deployment scheme.
//!
//! `docs/trust-model.md` at the repository root develops this in full.
//!
//! # Unsafe code
//!
//! The crate denies `unsafe_code` except in one private module,
//! `sha256::x86`: compiled on x86-64 only, entered only after
//! `is_x86_feature_detected!("sha")` (plus `ssse3`, `sse4.1`) succeeds —
//! no feature flag, option or environment variable takes part. Everywhere
//! else the scalar kernel runs.
//!
//! # Side channels
//!
//! This is a research reproduction: correctness and clarity outrank
//! side-channel hardening. MAC comparisons are constant-time, but the
//! Ed25519 arithmetic is variable-time and the signing path indexes a
//! precomputed table by secret nibbles. Do not reuse this crate where a
//! co-located attacker can time cache lines.
//!
//! # Example
//!
//! ```
//! use faust_crypto::sha256::sha256;
//! use faust_crypto::sig::{KeySet, SigContext, Signer, Verifier};
//!
//! let digest = sha256(b"hello world");
//! assert_eq!(digest.to_hex().len(), 64);
//!
//! // Public-key keys: the registry can safely be handed to the server.
//! let keys = KeySet::generate_ed25519(3, b"example seed");
//! let alice = keys.keypair(0).expect("client 0 exists");
//! let sig = alice.sign(SigContext::Data, b"message");
//! let registry = keys.registry();
//! assert!(registry.is_public());
//! assert!(registry.verify(0, SigContext::Data, b"message", &sig));
//! assert!(!registry.verify(1, SigContext::Data, b"message", &sig));
//! ```

// `deny` rather than `forbid`: the x86-64 SHA-extensions compression kernel
// (`sha256::x86`) is the crate's one audited `allow(unsafe_code)` scope.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod ed25519;
pub mod hmac;
pub mod sha256;
pub mod sha512;
pub mod sig;

pub use chain::{chain_digest, chain_extend};
pub use hmac::PreparedHmac;
pub use sha256::{sha256, Digest, Sha256};
pub use sha512::{sha512, Sha512};
pub use sig::{
    KeySet, Keypair, SigContext, SigScheme, Signature, Signer, Verifier, VerifierRegistry,
};
