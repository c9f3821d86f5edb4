//! The x86-64 SHA-extensions compression kernel — the only unsafe code in
//! this crate. `sha256rnds2` does two rounds per instruction and
//! `sha256msg1`/`sha256msg2` the message schedule four words at a time,
//! five to six times faster than the scalar reference in the parent
//! module; but they need a `#[target_feature]` function, which is
//! undefined behaviour to execute on a CPU without the feature.
//!
//! [`kernel`] is the only item the parent module sees, and it hands the safe
//! wrapper out only after `is_x86_feature_detected!` reported every feature
//! the kernel enables. The kernel's only memory accesses are unaligned
//! 16-byte loads from a bounds-checked 64-byte chunk, the 64-entry constant
//! table and the 8-word state, plus two 16-byte stores back to that state.

#![allow(unsafe_code)]

use super::{Kernel, K};
use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};

/// The SHA-extensions kernel, if this CPU can run it.
pub(super) fn kernel() -> Option<Kernel> {
    let supported = std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1");
    supported.then_some(compress_blocks as Kernel)
}

/// Safe face of [`compress_blocks_sha`]; private, so reachable only as the
/// function pointer [`kernel`] returns after feature detection.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    // SAFETY: `kernel` is the only way to obtain this function, and it
    // returns it only when the CPU reports `sha`, `ssse3` and `sse4.1`
    // (`sse2` is part of the x86-64 baseline).
    unsafe { compress_blocks_sha(state, blocks) }
}

/// Folds every whole 64-byte block of `blocks` into `state`.
///
/// # Safety
///
/// Call only after `is_x86_feature_detected!` confirmed `sha`, `ssse3` and
/// `sse4.1`. Nothing else is asked of the caller: the function reads whole
/// 64-byte chunks of the bounds-checked `blocks` slice (`chunks_exact`; a
/// trailing partial block is ignored) and the eight words of `state`.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_blocks_sha(state: &mut [u32; 8], blocks: &[u8]) {
    // Byte shuffle turning four big-endian message words into lanes.
    let be_lanes = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // `sha256rnds2` wants the state as (A,B,E,F) and (C,D,G,H), highest
    // lane first. SAFETY: `state` is 8 × u32 — exactly the two unaligned
    // 16-byte words loaded here and stored back at the end.
    let halves = state.as_mut_ptr().cast::<__m128i>();
    let cdab = _mm_shuffle_epi32::<0xB1>(_mm_loadu_si128(halves));
    let efgh = _mm_shuffle_epi32::<0x1B>(_mm_loadu_si128(halves.add(1)));
    let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
    let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);

    // Four rounds on the schedule vector `$w` = W[4i..4i+4].
    macro_rules! rounds4 {
        ($i:expr, $w:expr) => {{
            // SAFETY: `K` has 64 entries and every caller passes `$i` < 16.
            let wk = _mm_add_epi32($w, _mm_loadu_si128(K.as_ptr().add(4 * $i).cast()));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
        }};
    }
    // The next schedule vector from the previous four, oldest first.
    macro_rules! schedule {
        ($w4:expr, $w3:expr, $w2:expr, $w1:expr) => {
            _mm_sha256msg2_epu32(
                _mm_add_epi32(
                    _mm_sha256msg1_epu32($w4, $w3),
                    _mm_alignr_epi8::<4>($w1, $w2),
                ),
                $w1,
            )
        };
    }

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // SAFETY: `block` is exactly 64 bytes: four unaligned 16-byte loads.
        let words = block.as_ptr().cast::<__m128i>();
        let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(words), be_lanes);
        let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(words.add(1)), be_lanes);
        let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(words.add(2)), be_lanes);
        let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(words.add(3)), be_lanes);
        rounds4!(0, w0);
        rounds4!(1, w1);
        rounds4!(2, w2);
        rounds4!(3, w3);
        for i in [4, 8, 12] {
            w0 = schedule!(w0, w1, w2, w3);
            rounds4!(i, w0);
            w1 = schedule!(w1, w2, w3, w0);
            rounds4!(i + 1, w1);
            w2 = schedule!(w2, w3, w0, w1);
            rounds4!(i + 2, w2);
            w3 = schedule!(w3, w0, w1, w2);
            rounds4!(i + 3, w3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32::<0x1B>(abef);
    let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
    _mm_storeu_si128(halves, _mm_blend_epi16::<0xF0>(feba, dchg));
    _mm_storeu_si128(halves.add(1), _mm_alignr_epi8::<8>(dchg, feba));
}
