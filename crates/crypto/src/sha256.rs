//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Provides both a one-shot convenience function ([`sha256`]) and an
//! incremental hasher ([`Sha256`]) for streaming input. The implementation
//! is verified against the NIST test vectors in this module's tests.
//!
//! # Compression kernels
//!
//! Every block goes through one private `compress_blocks` entry with two
//! kernels behind it: the scalar reference in this file, and — on x86-64
//! CPUs that report `sha`, `ssse3` and `sse4.1`, chosen once per process by
//! `is_x86_feature_detected!` and nothing else — the `x86` submodule's
//! `sha256rnds2` kernel, home of the crate's one `unsafe` block.
//! [`backend`] names the kernel in use; the tests run both.

use std::fmt;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod x86;

/// Number of bytes in a SHA-256 digest.
pub const DIGEST_LEN: usize = 32;

/// A 256-bit SHA-256 digest.
///
/// The protocol uses digests both as hashed register values (`x̄_i`) and as
/// links in view-history digest chains. `Digest` is `Copy`, ordered, and
/// hashable so it can key maps and appear inside protocol messages.
///
/// # Example
///
/// ```
/// use faust_crypto::sha256::sha256;
/// let d = sha256(b"abc");
/// assert_eq!(
///     d.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Digest([u8; DIGEST_LEN]);

impl Digest {
    /// Creates a digest from raw bytes.
    pub const fn from_bytes(bytes: [u8; DIGEST_LEN]) -> Self {
        Digest(bytes)
    }

    /// Returns the digest as a byte slice.
    pub fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }

    /// Consumes the digest, returning the underlying byte array.
    pub fn into_bytes(self) -> [u8; DIGEST_LEN] {
        self.0
    }

    /// Renders the digest as a lowercase hexadecimal string.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(DIGEST_LEN * 2);
        for b in &self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble < 16"));
            s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble < 16"));
        }
        s
    }

    /// Parses a digest from a 64-character hexadecimal string.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDigestError`] if the input is not exactly 64 hex
    /// characters.
    pub fn from_hex(s: &str) -> Result<Self, ParseDigestError> {
        let bytes = s.as_bytes();
        if bytes.len() != DIGEST_LEN * 2 {
            return Err(ParseDigestError);
        }
        let mut out = [0u8; DIGEST_LEN];
        for (i, chunk) in bytes.chunks_exact(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16).ok_or(ParseDigestError)?;
            let lo = (chunk[1] as char).to_digit(16).ok_or(ParseDigestError)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Ok(Digest(out))
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}..)", &self.to_hex()[..12])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; DIGEST_LEN]> for Digest {
    fn from(bytes: [u8; DIGEST_LEN]) -> Self {
        Digest(bytes)
    }
}

/// Error returned when parsing a [`Digest`] from an invalid hex string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseDigestError;

impl fmt::Display for ParseDigestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid digest hex string")
    }
}

impl std::error::Error for ParseDigestError {}

/// SHA-256 round constants: first 32 bits of the fractional parts of the
/// cube roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use faust_crypto::sha256::{sha256, Sha256};
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), sha256(b"hello world"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Buffered partial block.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sha256")
            .field("total_len", &self.total_len)
            .finish_non_exhaustive()
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len == 64 {
                compress_blocks(&mut self.state, &self.buf);
                self.buf_len = 0;
            } else {
                // Input exhausted without filling a block; nothing more to do.
                return;
            }
        }
        let (blocks, rest) = input.split_at(input.len() - input.len() % 64);
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Completes the hash and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Append the 0x80 terminator, zero padding, and the 64-bit length.
        self.update(&[0x80]);
        // `update` adjusted total_len; the padding below must not count, so
        // operate on the buffer directly.
        if self.buf_len > 56 {
            for b in &mut self.buf[self.buf_len..] {
                *b = 0;
            }
            compress_blocks(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        for b in &mut self.buf[self.buf_len..56] {
            *b = 0;
        }
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &self.buf);

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// A compression kernel: folds whole 64-byte `blocks` into `state`.
type Kernel = fn(&mut [u32; 8], &[u8]);

/// This process's kernel and its [`backend`] name, detected on first use.
fn active_kernel() -> (Kernel, &'static str) {
    static ACTIVE: OnceLock<(Kernel, &'static str)> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if let Some(kernel) = x86::kernel() {
            return (kernel, "x86-sha");
        }
        (compress_blocks_scalar, "scalar")
    })
}

/// Which compression kernel this process hashes with: `"x86-sha"` or
/// `"scalar"`. Digests are identical; a throughput number is only
/// comparable with the kernel that produced it.
pub fn backend() -> &'static str {
    active_kernel().1
}

/// The single dispatch point: every [`Sha256::update`] and
/// [`Sha256::finalize`] block goes through here.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    (active_kernel().0)(state, blocks);
}

/// The scalar (reference) kernel.
fn compress_blocks_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        compress(state, block.try_into().expect("chunk is 64 bytes"));
    }
}

/// The SHA-256 compression function over one 512-bit block.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("chunk is 4 bytes"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Hashes `data` in one shot.
///
/// # Example
///
/// ```
/// use faust_crypto::sha256::sha256;
/// assert_eq!(
///     sha256(b"").to_hex(),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Test support: each kernel by name, driven directly.
#[cfg(test)]
mod kernels {
    use super::*;

    /// Every kernel this machine can run, by [`backend`] name. The scalar
    /// kernel is always listed, so it stays exercised on a SHA-extensions
    /// runner; the hardware kernel is absent (its checks skipped, not
    /// failed) where the CPU lacks it.
    pub(super) fn all() -> Vec<(&'static str, Kernel)> {
        #[cfg(target_arch = "x86_64")]
        let hardware = x86::kernel().map(|kernel| ("x86-sha", kernel));
        #[cfg(not(target_arch = "x86_64"))]
        let hardware = None;
        std::iter::once(("scalar", compress_blocks_scalar as Kernel))
            .chain(hardware)
            .collect()
    }

    /// SHA-256 of `msg` through `kernel` alone: FIPS 180-4 padding into
    /// one buffer and a single multi-block call, sharing nothing with
    /// [`Sha256`]'s buffering.
    pub(super) fn digest_with(kernel: Kernel, msg: &[u8]) -> Digest {
        let mut padded = msg.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        kernel(&mut state, &padded);
        let mut out = [0u8; DIGEST_LEN];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    /// Asserts `msg` hashes to `digest_hex` through the public entry
    /// point and through every kernel.
    pub(super) fn check_vector(msg: &[u8], digest_hex: &str) {
        assert_eq!(sha256(msg).to_hex(), digest_hex, "active: {}", backend());
        for (name, kernel) in all() {
            assert_eq!(digest_with(kernel, msg).to_hex(), digest_hex, "{name}");
        }
    }

    /// A seeded buffer (top byte of a 64-bit LCG) with no structure a
    /// kernel bug could hide behind.
    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        let step = |_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 56) as u8
        };
        (0..len).map(step).collect()
    }

    #[test]
    fn backend_names_a_listed_kernel() {
        // CI runs this test with `--nocapture` so every log states which
        // kernel the suite ran on.
        println!("sha256 backend: {}", backend());
        // The hardware kernel is used whenever it is available.
        assert_eq!(backend(), all().last().expect("scalar is always listed").0);
    }

    #[test]
    fn kernels_agree_on_every_length_to_300() {
        let msg = seeded_bytes(1, 300);
        for len in 0..=300 {
            let expect = digest_with(compress_blocks_scalar, &msg[..len]);
            assert_eq!(sha256(&msg[..len]), expect, "dispatch, length {len}");
            for (name, kernel) in all() {
                assert_eq!(
                    digest_with(kernel, &msg[..len]),
                    expect,
                    "{name}, length {len}"
                );
            }
        }
    }

    #[test]
    fn every_split_point_through_update_matches_each_kernel() {
        let msg = seeded_bytes(2, 200);
        let digests: Vec<Digest> = all().iter().map(|(_, k)| digest_with(*k, &msg)).collect();
        for split in 0..=msg.len() {
            let mut h = Sha256::new();
            h.update(&msg[..split]);
            h.update(&msg[split..]);
            let got = h.finalize();
            assert!(digests.iter().all(|d| *d == got), "split {split}");
        }
    }

    #[test]
    fn kernels_agree_on_a_seeded_mebibyte() {
        let msg = seeded_bytes(3, 1 << 20);
        let expect = digest_with(compress_blocks_scalar, &msg);
        assert_eq!(sha256(&msg), expect);
        for (name, kernel) in all() {
            assert_eq!(digest_with(kernel, &msg), expect, "{name}");
            // Block by block, the states must agree too — not only the end.
            let (mut a, mut b) = (H0, H0);
            for block in msg.chunks_exact(64).take(64) {
                compress_blocks_scalar(&mut a, block);
                kernel(&mut b, block);
                assert_eq!(a, b, "{name}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::kernels::check_vector;
    use super::*;

    /// NIST FIPS 180-4 / classic test vectors.
    #[test]
    fn nist_empty() {
        check_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn nist_abc() {
        check_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn nist_two_block() {
        check_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn nist_four_block() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        check_vector(
            msg,
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        );
    }

    #[test]
    fn nist_million_a() {
        let msg = vec![b'a'; 1_000_000];
        check_vector(
            &msg,
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn block_boundary_lengths() {
        // Lengths around the padding boundaries (55, 56, 63, 64, 65) hit all
        // the finalize() paths.
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 127, 128, 129] {
            let msg = vec![0xAB; len];
            let one_shot = sha256(&msg);
            let mut inc = Sha256::new();
            for b in &msg {
                inc.update(std::slice::from_ref(b));
            }
            assert_eq!(one_shot, inc.finalize(), "mismatch at length {len}");
        }
    }

    #[test]
    fn incremental_split_points() {
        let msg: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let expect = sha256(&msg);
        for split in [0usize, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&msg[..split]);
            h.update(&msg[split..]);
            assert_eq!(h.finalize(), expect, "mismatch at split {split}");
        }
    }

    #[test]
    fn hex_roundtrip() {
        let d = sha256(b"roundtrip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Ok(d));
    }

    #[test]
    fn hex_rejects_bad_input() {
        assert_eq!(Digest::from_hex("zz"), Err(ParseDigestError));
        assert_eq!(Digest::from_hex(&"g".repeat(64)), Err(ParseDigestError));
        assert_eq!(Digest::from_hex(""), Err(ParseDigestError));
    }

    #[test]
    fn digest_debug_is_nonempty() {
        let d = sha256(b"x");
        assert!(!format!("{d:?}").is_empty());
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        // Smoke test for collision resistance on small inputs.
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u32 {
            assert!(seen.insert(sha256(&i.to_be_bytes())), "collision at {i}");
        }
    }
}

#[cfg(test)]
mod cavp_vectors {
    //! Additional NIST CAVP SHA-256 short-message vectors
    //! (SHA256ShortMsg.rsp), exercising a spread of non-block-aligned
    //! lengths.
    use super::kernels::check_vector;

    fn check(msg_hex: &str, digest_hex: &str) {
        let msg: Vec<u8> = (0..msg_hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&msg_hex[i..i + 2], 16).expect("valid hex"))
            .collect();
        check_vector(&msg, digest_hex);
    }

    #[test]
    fn cavp_1_byte() {
        check(
            "d3",
            "28969cdfa74a12c82f3bad960b0b000aca2ac329deea5c2328ebc6f2ba9802c1",
        );
    }

    #[test]
    fn cavp_2_bytes() {
        check(
            "11af",
            "5ca7133fa735326081558ac312c620eeca9970d1e70a4b95533d956f072d1f98",
        );
    }

    #[test]
    fn cavp_4_bytes() {
        check(
            "74ba2521",
            "b16aa56be3880d18cd41e68384cf1ec8c17680c45a02b1575dc1518923ae8b0e",
        );
    }

    #[test]
    fn cavp_8_bytes() {
        check(
            "5738c929c4f4ccb6",
            "963bb88f27f512777aab6c8b1a02c70ec0ad651d428f870036e1917120fb48bf",
        );
    }

    #[test]
    fn cavp_16_bytes() {
        check(
            "0a27847cdc98bd6f62220b046edd762b",
            "80c25ec1600587e7f28b18b1b18e3cdc89928e39cab3bc25e4d4a4c139bcedc4",
        );
    }

    #[test]
    fn cavp_32_bytes() {
        check(
            "09fc1accc230a205e4a208e64a8f204291f581a12756392da4b8c0cf5ef02b95",
            "4f44c1c7fbebb6f9601829f3897bfd650c56fa07844be76489076356ac1886a4",
        );
    }

    #[test]
    fn cavp_55_bytes() {
        // One byte short of the padding boundary.
        check(
            "3592ecfd1eac618fd390e7a9c24b656532509367c21a0eac1212ac83c0b20cd896eb72b801c4d212c5452bbbf09317b50c5c9fb1997553d2bbc29bb42f5748ad",
            "105a60865830ac3a371d3843324d4bb5fa8ec0e02ddaa389ad8da4f10215c454",
        );
    }
}
