//! Arithmetic modulo the Ed25519 group order
//! L = 2²⁵² + 27742317777372353535851937790883648493.
//!
//! Scalars are kept as canonical little-endian 32-byte strings (< L).
//! The implementation favours obviousness over speed: products are formed
//! by schoolbook multiplication into eight 64-bit limbs and reduced by a
//! simple top-down binary reduction. A reduction costs a few thousand
//! word operations — noise next to the ~250 point doublings of the curve
//! operations it feeds.

/// L as four little-endian 64-bit limbs.
const L: [u64; 4] = [
    0x5812631a5cf5d3ed,
    0x14def9dea2f79cd6,
    0x0000000000000000,
    0x1000000000000000,
];

/// A scalar modulo L, canonical (value < L) little-endian encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Scalar(pub(crate) [u8; 32]);

fn to_limbs(bytes: &[u8; 32]) -> [u64; 4] {
    let mut l = [0u64; 4];
    for (i, limb) in l.iter_mut().enumerate() {
        *limb = u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
    }
    l
}

fn from_limbs(l: [u64; 4]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, limb) in l.iter().enumerate() {
        out[i * 8..i * 8 + 8].copy_from_slice(&limb.to_le_bytes());
    }
    out
}

/// `a < b` on 4-limb little-endian numbers.
fn lt(a: &[u64; 4], b: &[u64; 4]) -> bool {
    for i in (0..4).rev() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    false
}

/// `a − b`, assuming `a ≥ b`.
fn sub(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let mut out = [0u64; 4];
    let mut borrow = 0u64;
    for i in 0..4 {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        out[i] = d2;
        borrow = (b1 | b2) as u64;
    }
    debug_assert_eq!(borrow, 0, "sub underflow");
    out
}

/// Reduces an n-limb little-endian number modulo L by top-down binary
/// reduction: fold one bit at a time into an accumulator that stays < L.
fn reduce_limbs(wide: &[u64]) -> [u64; 4] {
    let mut r = [0u64; 4];
    for i in (0..wide.len()).rev() {
        for bit in (0..64).rev() {
            // r = 2r + bit; r < L < 2²⁵³ so the shift cannot overflow.
            let mut carry = (wide[i] >> bit) & 1;
            for limb in r.iter_mut() {
                let new_carry = *limb >> 63;
                *limb = (*limb << 1) | carry;
                carry = new_carry;
            }
            debug_assert_eq!(carry, 0);
            if !lt(&r, &L) {
                r = sub(&r, &L);
            }
        }
    }
    r
}

impl Scalar {
    /// Whether `bytes` already encodes a canonical scalar (< L). RFC 8032
    /// requires rejecting signatures whose `s` fails this test.
    pub(crate) fn is_canonical(bytes: &[u8; 32]) -> bool {
        lt(&to_limbs(bytes), &L)
    }

    /// A canonical scalar from 32 bytes, reducing modulo L.
    pub(crate) fn from_bytes_reduced(bytes: &[u8; 32]) -> Scalar {
        Scalar(from_limbs(reduce_limbs(&to_limbs(bytes))))
    }

    /// A canonical scalar from a canonical encoding; `None` if ≥ L.
    pub(crate) fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Scalar> {
        Scalar::is_canonical(bytes).then_some(Scalar(*bytes))
    }

    /// Reduces a 64-byte little-endian number (e.g. a SHA-512 output)
    /// modulo L — RFC 8032's interpretation of hash outputs as scalars.
    pub(crate) fn from_bytes_wide(bytes: &[u8; 64]) -> Scalar {
        let mut wide = [0u64; 8];
        for (i, limb) in wide.iter_mut().enumerate() {
            *limb = u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        }
        Scalar(from_limbs(reduce_limbs(&wide)))
    }

    pub(crate) fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// `self + rhs mod L`.
    pub(crate) fn add(&self, rhs: &Scalar) -> Scalar {
        let a = to_limbs(&self.0);
        let b = to_limbs(&rhs.0);
        let mut sum = [0u64; 4];
        let mut carry = 0u64;
        for i in 0..4 {
            let (s1, c1) = a[i].overflowing_add(b[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            sum[i] = s2;
            carry = (c1 | c2) as u64;
        }
        // Both inputs < L < 2²⁵³, so the sum fits 254 bits: no carry out.
        debug_assert_eq!(carry, 0);
        if !lt(&sum, &L) {
            sum = sub(&sum, &L);
        }
        Scalar(from_limbs(sum))
    }

    /// `self · rhs mod L`.
    pub(crate) fn mul(&self, rhs: &Scalar) -> Scalar {
        let a = to_limbs(&self.0);
        let b = to_limbs(&rhs.0);
        let mut wide = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let acc = (a[i] as u128) * (b[j] as u128) + (wide[i + j] as u128) + carry;
                wide[i + j] = acc as u64;
                carry = acc >> 64;
            }
            wide[i + 4] = carry as u64;
        }
        Scalar(from_limbs(reduce_limbs(&wide)))
    }

    /// `r + h·a mod L` — the response scalar of an Ed25519 signature.
    pub(crate) fn mul_add(h: &Scalar, a: &Scalar, r: &Scalar) -> Scalar {
        h.mul(a).add(r)
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn is_zero(&self) -> bool {
        self.0 == [0u8; 32]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_u64(v: u64) -> Scalar {
        let mut b = [0u8; 32];
        b[..8].copy_from_slice(&v.to_le_bytes());
        Scalar(b)
    }

    #[test]
    fn l_is_not_canonical_but_l_minus_1_is() {
        let l_bytes = from_limbs(L);
        assert!(!Scalar::is_canonical(&l_bytes));
        assert!(Scalar::from_bytes_reduced(&l_bytes).is_zero());
        let l_minus_1 = from_limbs(sub(&L, &[1, 0, 0, 0]));
        assert!(Scalar::is_canonical(&l_minus_1));
    }

    #[test]
    fn small_arithmetic() {
        let a = scalar_u64(1_000_003);
        let b = scalar_u64(999_983);
        assert_eq!(a.add(&b), scalar_u64(1_999_986));
        assert_eq!(a.mul(&b), scalar_u64(1_000_003 * 999_983));
    }

    #[test]
    fn addition_wraps_at_l() {
        let l_minus_1 = Scalar(from_limbs(sub(&L, &[1, 0, 0, 0])));
        assert!(l_minus_1.add(&scalar_u64(1)).is_zero());
        assert_eq!(l_minus_1.add(&scalar_u64(5)), scalar_u64(4));
    }

    #[test]
    fn wide_reduction_matches_known_identity() {
        // 2²⁵² ≡ L − 27742317777372353535851937790883648493 + ... : check
        // via (L−1)² mod L = 1 instead, which exercises the full pipeline.
        let l_minus_1 = Scalar(from_limbs(sub(&L, &[1, 0, 0, 0])));
        assert_eq!(l_minus_1.mul(&l_minus_1), scalar_u64(1));
    }

    #[test]
    fn wide_bytes_reduce() {
        // 2⁵¹² − 1 mod L, cross-checked against (2²⁵⁶ mod L)² ... simplest
        // sanity: reducing L·k + 7 gives 7.
        let mut wide = [0u8; 64];
        // wide = L * 3 + 7 (fits well inside 64 bytes).
        let mut carry = 0u128;
        for i in 0..4 {
            let acc = (L[i] as u128) * 3 + carry + if i == 0 { 7 } else { 0 };
            wide[i * 8..i * 8 + 8].copy_from_slice(&(acc as u64).to_le_bytes());
            carry = acc >> 64;
        }
        wide[32..40].copy_from_slice(&(carry as u64).to_le_bytes());
        assert_eq!(Scalar::from_bytes_wide(&wide), scalar_u64(7));
    }

    #[test]
    fn mul_add_composes() {
        let h = scalar_u64(12345);
        let a = scalar_u64(67890);
        let r = scalar_u64(11111);
        assert_eq!(
            Scalar::mul_add(&h, &a, &r),
            scalar_u64(12345 * 67890 + 11111)
        );
    }
}
