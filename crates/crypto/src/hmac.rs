//! HMAC-SHA256 (RFC 2104), built on the from-scratch [`mod@crate::sha256`]
//! implementation and verified against the RFC 4231 test vectors.

use crate::sha256::{Digest, Sha256};

const BLOCK_LEN: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// Computes `HMAC-SHA256(key, message)`.
///
/// Keys longer than the 64-byte SHA-256 block are first hashed, per RFC
/// 2104; shorter keys are zero-padded.
///
/// # Example
///
/// ```
/// use faust_crypto::hmac::hmac_sha256;
/// let tag = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(
///     tag.to_hex(),
///     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
/// );
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

/// Incremental HMAC-SHA256 computation.
///
/// # Example
///
/// ```
/// use faust_crypto::hmac::{hmac_sha256, HmacSha256};
/// let mut mac = HmacSha256::new(b"key");
/// mac.update(b"part one, ");
/// mac.update(b"part two");
/// assert_eq!(mac.finalize(), hmac_sha256(b"key", b"part one, part two"));
/// ```
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    /// The key XORed with OPAD, kept for the outer hash at finalization.
    opad_key: [u8; BLOCK_LEN],
}

impl std::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HmacSha256").finish_non_exhaustive()
    }
}

/// Derives the padded key block per RFC 2104 (hash long keys, zero-pad
/// short ones).
fn block_key(key: &[u8]) -> [u8; BLOCK_LEN] {
    let mut block = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        let hashed = crate::sha256::sha256(key);
        block[..hashed.as_bytes().len()].copy_from_slice(hashed.as_bytes());
    } else {
        block[..key.len()].copy_from_slice(key);
    }
    block
}

impl HmacSha256 {
    /// Creates an HMAC context keyed with `key`.
    pub fn new(key: &[u8]) -> Self {
        let block_key = block_key(key);
        let mut ipad_key = [0u8; BLOCK_LEN];
        let mut opad_key = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad_key[i] = block_key[i] ^ IPAD;
            opad_key[i] = block_key[i] ^ OPAD;
        }

        let mut inner = Sha256::new();
        inner.update(&ipad_key);
        HmacSha256 { inner, opad_key }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, message: &[u8]) {
        self.inner.update(message);
    }

    /// Completes the MAC computation and returns the tag.
    pub fn finalize(self) -> Digest {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&self.opad_key);
        outer.update(inner_digest.as_bytes());
        outer.finalize()
    }
}

/// A keyed HMAC-SHA256 state with both pad blocks pre-absorbed.
///
/// [`HmacSha256::new`] spends two SHA-256 compression runs per MAC on the
/// key schedule: absorbing the 64-byte `ipad` block and, at finalization,
/// the 64-byte `opad` block. When many MACs are computed under the *same*
/// key those runs can be paid once and cloned; for the short messages the
/// protocol signs (~50–130 bytes) this roughly halves the per-MAC cost.
/// [`crate::sig`] keeps every HMAC key in this form, so signing and
/// verification share one path.
///
/// # Example
///
/// ```
/// use faust_crypto::hmac::{hmac_sha256, PreparedHmac};
/// let prepared = PreparedHmac::new(b"key");
/// assert_eq!(prepared.mac(&[b"msg"]), hmac_sha256(b"key", b"msg"));
/// ```
#[derive(Clone)]
pub struct PreparedHmac {
    /// SHA-256 state after absorbing `key ⊕ ipad`.
    inner: Sha256,
    /// SHA-256 state after absorbing `key ⊕ opad`.
    outer: Sha256,
}

impl std::fmt::Debug for PreparedHmac {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedHmac").finish_non_exhaustive()
    }
}

impl PreparedHmac {
    /// Precomputes the keyed midstates for `key`.
    pub fn new(key: &[u8]) -> Self {
        let block_key = block_key(key);
        let mut ipad_key = [0u8; BLOCK_LEN];
        let mut opad_key = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad_key[i] = block_key[i] ^ IPAD;
            opad_key[i] = block_key[i] ^ OPAD;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad_key);
        let mut outer = Sha256::new();
        outer.update(&opad_key);
        PreparedHmac { inner, outer }
    }

    /// Computes the MAC of the concatenation of `parts` (avoids the caller
    /// allocating a joined buffer).
    pub fn mac(&self, parts: &[&[u8]]) -> Digest {
        let mut inner = self.inner.clone();
        for part in parts {
            inner.update(part);
        }
        let inner_digest = inner.finalize();
        let mut outer = self.outer.clone();
        outer.update(inner_digest.as_bytes());
        outer.finalize()
    }
}

/// Compares two digests in constant time.
///
/// Ordinary `==` on byte arrays short-circuits, leaking the position of the
/// first mismatch through timing. Verifiers use this instead.
pub fn constant_time_eq(a: &Digest, b: &Digest) -> bool {
    let mut acc = 0u8;
    for (x, y) in a.as_bytes().iter().zip(b.as_bytes()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(key: &[u8], data: &[u8], expect_hex: &str) {
        assert_eq!(hmac_sha256(key, data).to_hex(), expect_hex);
    }

    /// RFC 4231 test case 1.
    #[test]
    fn rfc4231_case_1() {
        check(
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    /// RFC 4231 test case 2 (short key).
    #[test]
    fn rfc4231_case_2() {
        check(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    /// RFC 4231 test case 3 (50 bytes of 0xdd).
    #[test]
    fn rfc4231_case_3() {
        check(
            &[0xaa; 20],
            &[0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        );
    }

    /// RFC 4231 test case 4 (incrementing key, 50 bytes of 0xcd).
    #[test]
    fn rfc4231_case_4() {
        let key: Vec<u8> = (1..=25).collect();
        check(
            &key,
            &[0xcd; 50],
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        );
    }

    /// RFC 4231 test case 6 (key longer than block size).
    #[test]
    fn rfc4231_case_6() {
        check(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    /// RFC 4231 test case 7 (large key and large data).
    #[test]
    fn rfc4231_case_7() {
        check(
            &[0xaa; 131],
            b"This is a test using a larger than block-size key and a larger \
than block-size data. The key needs to be hashed before being used by the HMAC algorithm.",
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let key = b"incremental key";
        let msg: Vec<u8> = (0..500u16).map(|i| (i % 251) as u8).collect();
        let expect = hmac_sha256(key, &msg);
        for split in [0, 1, 64, 65, 250, 499, 500] {
            let mut mac = HmacSha256::new(key);
            mac.update(&msg[..split]);
            mac.update(&msg[split..]);
            assert_eq!(mac.finalize(), expect, "mismatch at split {split}");
        }
    }

    #[test]
    fn different_keys_different_tags() {
        let a = hmac_sha256(b"key-a", b"msg");
        let b = hmac_sha256(b"key-b", b"msg");
        assert_ne!(a, b);
    }

    #[test]
    fn constant_time_eq_agrees_with_eq() {
        let a = hmac_sha256(b"k", b"m1");
        let b = hmac_sha256(b"k", b"m2");
        assert!(constant_time_eq(&a, &a));
        assert!(!constant_time_eq(&a, &b));
    }
}

#[cfg(test)]
mod prepared_tests {
    use super::*;

    #[test]
    fn prepared_matches_one_shot() {
        let keys: [&[u8]; 3] = [b"short", &[0xAA; 64], &[0xBB; 131]];
        for key in keys {
            let prepared = PreparedHmac::new(key);
            for msg_len in [0usize, 1, 55, 56, 63, 64, 65, 200] {
                let msg: Vec<u8> = (0..msg_len).map(|i| i as u8).collect();
                assert_eq!(
                    prepared.mac(&[&msg]),
                    hmac_sha256(key, &msg),
                    "key len {} msg len {msg_len}",
                    key.len()
                );
            }
        }
    }

    #[test]
    fn prepared_concatenates_parts() {
        let prepared = PreparedHmac::new(b"key");
        assert_eq!(
            prepared.mac(&[b"part one, ", b"part two"]),
            hmac_sha256(b"key", b"part one, part two")
        );
        assert_eq!(prepared.mac(&[]), hmac_sha256(b"key", b""));
    }
}
