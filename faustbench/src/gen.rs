//! The seeded workload generator.
//!
//! Everything random in a run comes from one SplitMix64 stream seeded by
//! `--seed`; the system under test sees only the generated operations.
//! A segment is a fixed *pattern* of `(client, kind, value)` slots,
//! replayed unchanged in every segment so that all segments of a run do
//! identical work. The write/read mix of the pattern is exact (a seeded
//! shuffle of a fixed multiset, not a coin per slot), so byte counts do
//! not depend on the seed. Only read *targets* carry state across
//! segments: each client walks round-robin over the other clients'
//! registers, so that every client eventually learns every other client's
//! version and the stability cut can advance at any `n`.

/// SplitMix64 (Steele, Lea, Flood 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`); the modulo bias is below
    /// 2^-40 for every bound used here.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// What one operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Write the issuing client's own register with value `pool[value]`.
    Write { value: usize },
    /// Read client `target`'s register.
    Read { target: usize },
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub client: usize,
    pub kind: OpKind,
}

/// How many distinct values a run writes. Consecutive writes of one
/// client differ with probability 63/64, which is all the read oracle
/// needs; a larger pool would only grow the benchmark's own memory.
pub const POOL: usize = 64;

#[derive(Debug, Clone)]
pub struct Generator {
    n: usize,
    /// `Some(value)` = write, `None` = read; slot `k` belongs to client
    /// `k % n`.
    pattern: Vec<Option<usize>>,
    /// Per client: how far its read-target walk has advanced.
    walk: Vec<usize>,
    /// The value pool, `POOL` byte strings of the workload's value size.
    pub values: Vec<Vec<u8>>,
}

impl Generator {
    pub fn new(
        seed: u64,
        n: usize,
        ops_per_segment: usize,
        write_pct: usize,
        value_len: usize,
    ) -> Self {
        assert!(n >= 2, "reads need another client's register");
        let mut rng = SplitMix64::new(seed);
        let values = (0..POOL)
            .map(|_| {
                let mut bytes = Vec::with_capacity(value_len + 8);
                while bytes.len() < value_len {
                    bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
                }
                bytes.truncate(value_len);
                bytes
            })
            .collect();
        let writes = ops_per_segment * write_pct / 100;
        let mut is_write: Vec<bool> = (0..ops_per_segment).map(|k| k < writes).collect();
        // Fisher–Yates.
        for i in (1..is_write.len()).rev() {
            is_write.swap(i, rng.below(i + 1));
        }
        let pattern = is_write
            .into_iter()
            .map(|w| w.then(|| rng.below(POOL)))
            .collect();
        let walk = (0..n).map(|_| rng.below(n - 1)).collect();
        Generator {
            n,
            pattern,
            walk,
            values,
        }
    }

    pub fn ops_per_segment(&self) -> usize {
        self.pattern.len()
    }

    /// Operation `k` of the current segment (`k` wraps, so warm-up may
    /// ask for any index).
    pub fn op(&mut self, k: usize) -> Op {
        let k = k % self.pattern.len();
        let client = k % self.n;
        let kind = match self.pattern[k] {
            Some(value) => OpKind::Write { value },
            None => OpKind::Read {
                target: self.next_target(client),
            },
        };
        Op { client, kind }
    }

    /// A write by `client`, outside the pattern (priming and set-up).
    pub fn write_by(&self, client: usize, salt: usize) -> Op {
        Op {
            client,
            kind: OpKind::Write {
                value: (client + salt) % POOL,
            },
        }
    }

    fn next_target(&mut self, client: usize) -> usize {
        let step = self.walk[client];
        self.walk[client] = (step + 1) % (self.n - 1);
        (client + 1 + step) % self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, n: usize, count: usize) -> Vec<Op> {
        let mut g = Generator::new(seed, n, 512, 75, 64);
        (0..count).map(|k| g.op(k)).collect()
    }

    #[test]
    fn same_seed_gives_the_same_ops_and_values() {
        assert_eq!(stream(7, 4, 2048), stream(7, 4, 2048));
        let a = Generator::new(7, 4, 512, 75, 64);
        let b = Generator::new(7, 4, 512, 75, 64);
        assert_eq!(a.values, b.values);
        assert_ne!(stream(7, 4, 2048), stream(8, 4, 2048));
    }

    #[test]
    fn the_mix_is_exact_for_every_seed() {
        for seed in 0..20 {
            let ops = stream(seed, 2, 512);
            let writes = ops
                .iter()
                .filter(|o| matches!(o.kind, OpKind::Write { .. }))
                .count();
            assert_eq!(writes, 384, "seed {seed}");
        }
    }

    #[test]
    fn every_segment_repeats_the_pattern_and_reads_walk_all_others() {
        let n = 5;
        let mut g = Generator::new(3, n, 500, 50, 8);
        let first: Vec<Op> = (0..500).map(|k| g.op(k)).collect();
        let second: Vec<Op> = (0..500).map(|k| g.op(k)).collect();
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.client, b.client);
            assert_eq!(
                matches!(a.kind, OpKind::Write { .. }),
                matches!(b.kind, OpKind::Write { .. })
            );
            if let (OpKind::Write { value: x }, OpKind::Write { value: y }) = (a.kind, b.kind) {
                assert_eq!(x, y);
            }
        }
        let mut seen = vec![vec![false; n]; n];
        for op in first.iter().chain(&second) {
            if let OpKind::Read { target } = op.kind {
                assert_ne!(target, op.client);
                seen[op.client][target] = true;
            }
        }
        for (c, row) in seen.iter().enumerate() {
            assert_eq!(row.iter().filter(|s| **s).count(), n - 1, "client {c}");
        }
    }
}
