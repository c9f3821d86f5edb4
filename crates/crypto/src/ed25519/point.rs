//! The twisted Edwards curve −x² + y² = 1 + d·x²y² over GF(2²⁵⁵ − 19),
//! i.e. edwards25519 (RFC 8032 §5.1).
//!
//! Points are held in extended homogeneous coordinates (X : Y : Z : T)
//! with x = X/Z, y = Y/Z, T = XY/Z, using the unified addition and
//! doubling formulas of Hisil–Wong–Carter–Dawson 2008 specialized to
//! a = −1. All curve constants (d, 2d, √−1, the base point) are *derived*
//! at first use from their defining equations rather than transcribed,
//! and pinned by the RFC 8032 test vectors in `ed25519::tests`.
//!
//! Scalar multiplication is variable-time: fine for verification (public
//! data); signing additionally uses a precomputed base-point table whose
//! lookups are secret-indexed — see the crate docs for the side-channel
//! caveat.

use super::field::Fe;
use std::sync::OnceLock;

/// A point on edwards25519 in extended coordinates.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// d = −121665/121666.
fn d() -> Fe {
    *D.get_or_init(|| {
        Fe::from_u64(121665)
            .neg()
            .mul(Fe::from_u64(121666).invert())
    })
}

/// 2d, the constant of the a = −1 unified addition formulas.
fn d2() -> Fe {
    *D2.get_or_init(|| d().add(d()))
}

static D: OnceLock<Fe> = OnceLock::new();
static D2: OnceLock<Fe> = OnceLock::new();
static BASE: OnceLock<Point> = OnceLock::new();
static BASE_TABLE: OnceLock<Vec<[Point; 15]>> = OnceLock::new();

impl Point {
    pub(crate) const IDENTITY: Point = Point {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
        t: Fe::ZERO,
    };

    /// The standard base point B: the unique point with y = 4/5 and
    /// even x (RFC 8032 §5.1).
    pub(crate) fn base() -> Point {
        *BASE.get_or_init(|| {
            let y = Fe::from_u64(4).mul(Fe::from_u64(5).invert());
            let mut enc = y.to_bytes();
            enc[31] &= 0x7f; // sign bit 0: the even-x square root
            Point::decompress(&enc).expect("4/5 is on the curve")
        })
    }

    /// Unified point addition (add-2008-hwcd-3, a = −1, k = 2d).
    pub(crate) fn add(&self, q: &Point) -> Point {
        let a = self.y.sub(self.x).mul(q.y.sub(q.x));
        let b = self.y.add(self.x).mul(q.y.add(q.x));
        let c = self.t.mul(d2()).mul(q.t);
        let dd = self.z.add(self.z).mul(q.z);
        let e = b.sub(a);
        let f = dd.sub(c);
        let g = dd.add(c);
        let h = b.add(a);
        Point {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    /// Point doubling (dbl-2008-hwcd, a = −1).
    pub(crate) fn double(&self) -> Point {
        let a = self.x.square();
        let b = self.y.square();
        let c = self.z.square().add(self.z.square());
        let d_ = a.neg(); // a·X² with a = −1
        let e = self.x.add(self.y).square().sub(a).sub(b);
        let g = d_.add(b);
        let f = g.sub(c);
        let h = d_.sub(b);
        Point {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    pub(crate) fn neg(&self) -> Point {
        Point {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Projective equality: X₁Z₂ = X₂Z₁ ∧ Y₁Z₂ = Y₂Z₁.
    pub(crate) fn eq_vartime(&self, q: &Point) -> bool {
        self.x.mul(q.z).ct_eq_vartime(q.x.mul(self.z))
            && self.y.mul(q.z).ct_eq_vartime(q.y.mul(self.z))
    }

    /// The canonical 32-byte compressed encoding: little-endian y with
    /// the sign of x in bit 255.
    pub(crate) fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(zinv);
        let y = self.y.mul(zinv);
        let mut out = y.to_bytes();
        out[31] |= (x.is_negative() as u8) << 7;
        out
    }

    /// Decodes a compressed point, strictly: the y coordinate must be
    /// canonical (< p), y must be on the curve, and the encoding of −0 is
    /// rejected (RFC 8032 §5.1.3).
    pub(crate) fn decompress(bytes: &[u8; 32]) -> Option<Point> {
        let sign = bytes[31] >> 7 == 1;
        let mut y_bytes = *bytes;
        y_bytes[31] &= 0x7f;
        if !Fe::bytes_are_canonical(&y_bytes) {
            return None;
        }
        let y = Fe::from_bytes(&y_bytes);
        // x² = (y² − 1)/(d·y² + 1) = u/v.
        let yy = y.square();
        let u = yy.sub(Fe::ONE);
        let v = d().mul(yy).add(Fe::ONE);
        // Candidate root x = u·v³·(u·v⁷)^((p−5)/8).
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        let mut x = u.mul(v3).mul(u.mul(v7).pow_p58());
        let vxx = v.mul(x.square());
        if !vxx.ct_eq_vartime(u) {
            if vxx.ct_eq_vartime(u.neg()) {
                x = x.mul(Fe::sqrt_m1());
            } else {
                return None; // not a square: y is not on the curve
            }
        }
        if x.is_zero() && sign {
            return None; // "negative zero" encoding
        }
        if x.is_negative() != sign {
            x = x.neg();
        }
        Some(Point {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(y),
        })
    }

    /// Variable-time scalar multiplication by a 256-bit little-endian
    /// scalar (MSB-first double-and-add). The reference implementation
    /// the windowed paths are tested against.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn mul_scalar(&self, scalar: &[u8; 32]) -> Point {
        let mut acc = Point::IDENTITY;
        let mut started = false;
        for byte_idx in (0..32).rev() {
            for bit in (0..8).rev() {
                if started {
                    acc = acc.double();
                }
                if (scalar[byte_idx] >> bit) & 1 == 1 {
                    acc = acc.add(self);
                    started = true;
                }
            }
        }
        acc
    }
}

/// Radix-16 window table of the base point: `table[w][d−1] = d·16ʷ·B`
/// for w ∈ 0..64, d ∈ 1..=15. Built once (≈ 1000 additions) and reused by
/// every signature.
fn base_table() -> &'static [[Point; 15]] {
    BASE_TABLE.get_or_init(|| {
        let mut table = Vec::with_capacity(64);
        let mut window_base = Point::base(); // 16ʷ·B
        for _ in 0..64 {
            let mut row = [Point::IDENTITY; 15];
            row[0] = window_base;
            for di in 1..15 {
                row[di] = row[di - 1].add(&window_base);
            }
            // 16·16ʷ·B = 15·16ʷ·B + 16ʷ·B.
            window_base = row[14].add(&window_base);
            table.push(row);
        }
        table
    })
}

/// `scalar·B` via the fixed radix-16 table: 63 additions, no doublings.
pub(crate) fn mul_base(scalar: &[u8; 32]) -> Point {
    let table = base_table();
    let mut acc = Point::IDENTITY;
    for (w, row) in table.iter().enumerate() {
        let byte = scalar[w / 2];
        let nibble = if w % 2 == 0 { byte & 0x0f } else { byte >> 4 };
        if nibble != 0 {
            acc = acc.add(&row[nibble as usize - 1]);
        }
    }
    acc
}

/// The multiples 1·P … 15·P of one point (the per-point Straus table).
fn multiples(p: &Point) -> [Point; 15] {
    let mut row = [Point::IDENTITY; 15];
    row[0] = *p;
    for di in 1..15 {
        row[di] = row[di - 1].add(p);
    }
    row
}

/// 1·B … 15·B, cached: verification needs B's multiples on every call.
fn base_multiples() -> &'static [Point; 15] {
    BASE_MULTIPLES.get_or_init(|| multiples(&Point::base()))
}

static BASE_MULTIPLES: OnceLock<[Point; 15]> = OnceLock::new();

/// Straus's interleaved radix-16 loop over prebuilt multiples tables:
/// the ~252 doublings are shared across all points, which is the whole
/// economy of the double-scalar path.
fn straus_loop(scalars: &[[u8; 32]], tables: &[&[Point; 15]]) -> Point {
    debug_assert_eq!(scalars.len(), tables.len());
    let mut acc = Point::IDENTITY;
    let mut started = false;
    for w in (0..64).rev() {
        if started {
            acc = acc.double().double().double().double();
        }
        for (scalar, table) in scalars.iter().zip(tables) {
            let byte = scalar[w / 2];
            let nibble = if w % 2 == 0 { byte & 0x0f } else { byte >> 4 };
            if nibble != 0 {
                acc = acc.add(&table[nibble as usize - 1]);
                started = true;
            }
        }
    }
    acc
}

/// `s·B + t·Q` — the signature verification shape, using the cached
/// table of B's multiples so each verification builds a table only for
/// Q.
pub(crate) fn vartime_double_scalar_mul_base(s: &[u8; 32], t: &[u8; 32], q: &Point) -> Point {
    let q_table = multiples(q);
    straus_loop(&[*s, *t], &[base_multiples(), &q_table])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_point_is_on_curve() {
        // −x² + y² = 1 + d·x²y², affine check via z = 1 decompression.
        let b = Point::base();
        let x2 = b.x.square();
        let y2 = b.y.square();
        let lhs = y2.sub(x2);
        let rhs = Fe::ONE.add(d().mul(x2).mul(y2));
        assert!(lhs.ct_eq_vartime(rhs));
    }

    #[test]
    fn base_point_matches_rfc8032() {
        // RFC 8032: B compresses to 0x58666666…66 (y = 4/5, x even).
        let enc = Point::base().compress();
        assert_eq!(enc[0], 0x58);
        assert!(enc[1..31].iter().all(|&b| b == 0x66));
        assert_eq!(enc[31], 0x66);
    }

    #[test]
    fn compress_decompress_roundtrip() {
        let mut p = Point::base();
        for _ in 0..8 {
            let enc = p.compress();
            let q = Point::decompress(&enc).expect("valid encoding");
            assert!(p.eq_vartime(&q));
            p = p.double().add(&Point::base());
        }
    }

    #[test]
    fn identity_behaves() {
        let b = Point::base();
        assert!(b.add(&Point::IDENTITY).eq_vartime(&b));
        assert!(b.add(&b.neg()).eq_vartime(&Point::IDENTITY));
        assert!(Point::IDENTITY.double().eq_vartime(&Point::IDENTITY));
    }

    #[test]
    fn doubling_agrees_with_addition() {
        let b = Point::base();
        assert!(b.double().eq_vartime(&b.add(&b)));
        let p = b.double().add(&b); // 3B
        assert!(p.double().eq_vartime(&p.add(&p)));
    }

    #[test]
    fn base_has_order_l() {
        // L·B = identity and (L−1)·B = −B.
        let l_bytes: [u8; 32] = {
            let mut b = [0u8; 32];
            b[..8].copy_from_slice(&0x5812631a5cf5d3ed_u64.to_le_bytes());
            b[8..16].copy_from_slice(&0x14def9dea2f79cd6_u64.to_le_bytes());
            b[24..32].copy_from_slice(&0x1000000000000000_u64.to_le_bytes());
            b
        };
        assert!(Point::base()
            .mul_scalar(&l_bytes)
            .eq_vartime(&Point::IDENTITY));
        let mut l_minus_1 = l_bytes;
        l_minus_1[0] -= 1;
        assert!(Point::base()
            .mul_scalar(&l_minus_1)
            .eq_vartime(&Point::base().neg()));
    }

    #[test]
    fn table_mul_base_agrees_with_generic() {
        for v in [1u64, 2, 7, 0xdeadbeefcafe] {
            let mut s = [0u8; 32];
            s[..8].copy_from_slice(&v.to_le_bytes());
            assert!(
                mul_base(&s).eq_vartime(&Point::base().mul_scalar(&s)),
                "v={v}"
            );
        }
        // A full-width scalar too.
        let mut s = [0xA7u8; 32];
        s[31] = 0x0f;
        assert!(mul_base(&s).eq_vartime(&Point::base().mul_scalar(&s)));
    }

    #[test]
    fn double_scalar_mul_base_agrees_with_generic() {
        let q = Point::base().double().add(&Point::base()); // 3B
        let mut s = [0u8; 32];
        s[..8].copy_from_slice(&0xfeed_beef_u64.to_le_bytes());
        let mut t = [0u8; 32];
        t[..8].copy_from_slice(&0x1234_5678_9abc_u64.to_le_bytes());
        let want = Point::base().mul_scalar(&s).add(&q.mul_scalar(&t));
        assert!(vartime_double_scalar_mul_base(&s, &t, &q).eq_vartime(&want));
    }

    #[test]
    fn decompress_rejects_off_curve_and_noncanonical() {
        // y = 2 is not on the curve (x² would be a non-square).
        let mut off = [0u8; 32];
        off[0] = 2;
        assert!(Point::decompress(&off).is_none());
        // Non-canonical y (= p + 1) rejected even though p + 1 ≡ 1 is a
        // fine y value when encoded canonically.
        let mut noncanon = [0xffu8; 32];
        noncanon[0] = 0xee;
        noncanon[31] = 0x7f;
        assert!(Point::decompress(&noncanon).is_none());
        let mut canon_one = [0u8; 32];
        canon_one[0] = 1;
        assert!(Point::decompress(&canon_one).is_some(), "y = 1 (identity)");
        // x = 0 with sign bit set: "negative zero".
        let mut neg_zero = canon_one;
        neg_zero[31] |= 0x80;
        assert!(Point::decompress(&neg_zero).is_none());
    }
}
