//! The store's disk-integrity checksums — the only module that knows
//! which algorithm guards a record or a snapshot.
//!
//! A checksum here answers one question: are these the bytes this server
//! wrote? It catches what the *disk* did — a torn write, a flipped bit,
//! a stale sector. It is not a hash in the protocol's sense and nothing
//! cryptographic rests on it: what the *operator* did to a log is caught
//! by clients, whose signatures and version vectors travel end to end
//! (`docs/persistence.md`). That is why current files carry XXH64, a
//! 64-bit non-cryptographic checksum that costs a tenth of SHA-256 per
//! byte, and why the module lives here and not in `faust-crypto`.
//!
//! Files written before format v2 carry SHA-256 digests in the same
//! position; [`Checksum::Sha256`] keeps them readable (and, for a log
//! opened mid-life, appendable) until the next rotation replaces them.

use faust_crypto::sha256::sha256;

/// Which algorithm a file's format version selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Checksum {
    /// 32-byte SHA-256 digest: WAL v1, snapshot v1/v2, `FAUSTSES` v1.
    Sha256,
    /// XXH64, seed 0, stored big-endian (its canonical form): WAL v2,
    /// snapshot v3/v4/v5.
    Xxh64,
}

impl Checksum {
    /// Bytes the stored checksum occupies.
    pub(crate) const fn len(self) -> usize {
        match self {
            Checksum::Sha256 => 32,
            Checksum::Xxh64 => 8,
        }
    }

    /// Writes the checksum of `payload` into `out` (`self.len()` bytes).
    pub(crate) fn write(self, payload: &[u8], out: &mut [u8]) {
        match self {
            Checksum::Sha256 => out.copy_from_slice(sha256(payload).as_bytes()),
            Checksum::Xxh64 => out.copy_from_slice(&xxh64(payload).to_be_bytes()),
        }
    }

    /// Whether `stored` (`self.len()` bytes) is the checksum of `payload`.
    pub(crate) fn matches(self, payload: &[u8], stored: &[u8]) -> bool {
        match self {
            Checksum::Sha256 => sha256(payload).as_bytes() == stored,
            Checksum::Xxh64 => xxh64(payload).to_be_bytes() == stored,
        }
    }
}

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

fn lane(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte lane"))
}

fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

fn merge(hash: u64, acc: u64) -> u64 {
    (hash ^ round(0, acc))
        .wrapping_mul(PRIME_1)
        .wrapping_add(PRIME_4)
}

/// XXH64 of `data` with seed 0, as published (xxHash specification,
/// "XXH64 algorithm description"): four independent multiply–rotate
/// lanes over 32-byte stripes, merged, then the tail and an avalanche.
fn xxh64(data: &[u8]) -> u64 {
    let mut stripes = data.chunks_exact(32);
    let mut hash = if data.len() >= 32 {
        let mut acc = [
            PRIME_1.wrapping_add(PRIME_2),
            PRIME_2,
            0,
            0u64.wrapping_sub(PRIME_1),
        ];
        for stripe in &mut stripes {
            for (acc, bytes) in acc.iter_mut().zip(stripe.chunks_exact(8)) {
                *acc = round(*acc, lane(bytes));
            }
        }
        let mixed = acc[0]
            .rotate_left(1)
            .wrapping_add(acc[1].rotate_left(7))
            .wrapping_add(acc[2].rotate_left(12))
            .wrapping_add(acc[3].rotate_left(18));
        acc.iter().fold(mixed, |hash, acc| merge(hash, *acc))
    } else {
        PRIME_5
    };
    hash = hash.wrapping_add(data.len() as u64);

    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        hash = (hash ^ round(0, lane(word)))
            .rotate_left(27)
            .wrapping_mul(PRIME_1)
            .wrapping_add(PRIME_4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let half = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
        hash = (hash ^ u64::from(half).wrapping_mul(PRIME_1))
            .rotate_left(23)
            .wrapping_mul(PRIME_2)
            .wrapping_add(PRIME_3);
        tail = &tail[4..];
    }
    for byte in tail {
        hash = (hash ^ u64::from(*byte).wrapping_mul(PRIME_5))
            .rotate_left(11)
            .wrapping_mul(PRIME_1);
    }

    hash ^= hash >> 33;
    hash = hash.wrapping_mul(PRIME_2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(PRIME_3);
    hash ^ (hash >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_vectors() {
        for (input, expect) in [
            ("", 0xef46_db37_51d8_e999u64),
            ("abc", 0x44bc_2cf5_ad77_0999),
            ("xxhash", 0x32dd_3895_2c4b_c720),
            // 39 bytes: one full 32-byte stripe plus a 7-byte tail.
            (
                "Nobody inspects the spammish repetition",
                0xfbce_a83c_8a37_8bf1,
            ),
        ] {
            assert_eq!(xxh64(input.as_bytes()), expect, "{input:?}");
        }
    }

    /// XXH64 (seed 0) the slow way: one byte at a time through explicit
    /// lane registers, with none of the slice machinery above.
    fn reference(data: &[u8]) -> u64 {
        let word = |at: usize, len: usize| -> u64 {
            (0..len).fold(0, |w, k| w | u64::from(data[at + k]) << (8 * k))
        };
        let round = |acc: u64, input: u64| -> u64 {
            let acc = acc.wrapping_add(input.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
            acc.rotate_left(31).wrapping_mul(0x9E37_79B1_85EB_CA87)
        };
        let mut pos = 0;
        let mut hash;
        if data.len() >= 32 {
            let (mut v1, mut v2, mut v3, mut v4) = (
                PRIME_1.wrapping_add(PRIME_2),
                PRIME_2,
                0u64,
                0u64.wrapping_sub(PRIME_1),
            );
            while data.len() - pos >= 32 {
                v1 = round(v1, word(pos, 8));
                v2 = round(v2, word(pos + 8, 8));
                v3 = round(v3, word(pos + 16, 8));
                v4 = round(v4, word(pos + 24, 8));
                pos += 32;
            }
            hash = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            for v in [v1, v2, v3, v4] {
                hash = (hash ^ round(0, v))
                    .wrapping_mul(PRIME_1)
                    .wrapping_add(PRIME_4);
            }
        } else {
            hash = PRIME_5;
        }
        hash = hash.wrapping_add(data.len() as u64);
        while data.len() - pos >= 8 {
            hash = (hash ^ round(0, word(pos, 8)))
                .rotate_left(27)
                .wrapping_mul(PRIME_1)
                .wrapping_add(PRIME_4);
            pos += 8;
        }
        if data.len() - pos >= 4 {
            hash = (hash ^ word(pos, 4).wrapping_mul(PRIME_1))
                .rotate_left(23)
                .wrapping_mul(PRIME_2)
                .wrapping_add(PRIME_3);
            pos += 4;
        }
        while pos < data.len() {
            hash = (hash ^ word(pos, 1).wrapping_mul(PRIME_5))
                .rotate_left(11)
                .wrapping_mul(PRIME_1);
            pos += 1;
        }
        hash ^= hash >> 33;
        hash = hash.wrapping_mul(PRIME_2);
        hash ^= hash >> 29;
        hash = hash.wrapping_mul(PRIME_3);
        hash ^ (hash >> 32)
    }

    #[test]
    fn agrees_with_the_bytewise_reference_at_every_length() {
        // A fixed LCG stream, every length 0..=200: each tail shape
        // (0–3 bytes, a 4-byte half, 0–3 words) after 0–6 stripes.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let data: Vec<u8> = (0..200)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect();
        for len in 0..=data.len() {
            assert_eq!(xxh64(&data[..len]), reference(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn write_and_matches_agree_and_any_flip_is_caught() {
        let payload = b"seq 7 | a record payload of some length";
        for checksum in [Checksum::Sha256, Checksum::Xxh64] {
            let mut stored = vec![0; checksum.len()];
            checksum.write(payload, &mut stored);
            assert!(checksum.matches(payload, &stored));
            let mut flipped = payload.to_vec();
            flipped[11] ^= 0x10;
            assert!(!checksum.matches(&flipped, &stored));
            stored[0] ^= 0x01;
            assert!(!checksum.matches(payload, &stored));
        }
        // Canonical (big-endian) storage of the published "abc" vector.
        let mut stored = [0; 8];
        Checksum::Xxh64.write(b"abc", &mut stored);
        assert_eq!(stored, [0x44, 0xbc, 0x2c, 0xf5, 0xad, 0x77, 0x09, 0x99]);
    }
}
