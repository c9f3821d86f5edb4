//! Test support shared by every crate's suites: the mutation harness that
//! the wire, log, snapshot, session-file and history sweeps run. It lives
//! at the bottom of the dependency graph, so each crate's tests reach it
//! without a dev-dependency cycle; `faust-store`'s `testutil` re-exports
//! it for the crates above.

/// The mutation harness: every way to damage `good` by cutting it short
/// or flipping one bit, as `(offset of the first damaged byte, bytes)` —
/// the truncations first, shortest first, then the flips in bit order.
pub fn mutations(good: &[u8]) -> impl Iterator<Item = (usize, Vec<u8>)> + '_ {
    let truncations = (0..good.len()).map(|len| (len, good[..len].to_vec()));
    let flips = (0..good.len() * 8).map(|bit| {
        let mut bad = good.to_vec();
        bad[bit / 8] ^= 1 << (bit % 8);
        (bit / 8, bad)
    });
    truncations.chain(flips)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_truncation_and_every_bit_flip_once() {
        let good = [0x00, 0xFF];
        let all: Vec<_> = mutations(&good).collect();
        assert_eq!(all.len(), 2 + 16);
        assert_eq!(all[0], (0, vec![]));
        assert_eq!(all[1], (1, vec![0x00]));
        assert_eq!(all[2], (0, vec![0x01, 0xFF]));
        assert_eq!(all[17], (1, vec![0x00, 0x7F]));
    }
}
