//! Order relations over a history: real-time precedence, program order,
//! reads-from, and the potential-causality order of Definition 3.
//!
//! All relations are materialized as bit-matrices over operation indices
//! (histories are capped at [`MAX_OPS`] operations for checking — the
//! checkers return `Unknown` beyond that).

use faust_types::{History, OpId, OpKind, Value};
use std::collections::HashMap;

/// Maximum history size the checkers accept (bitmask-based relations).
pub const MAX_OPS: usize = 64;

/// A binary relation over operation indices, as one predecessor bitmask
/// per operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    /// `pred[i]` has bit `j` set iff `j → i` in the relation.
    pred: Vec<u64>,
}

impl Relation {
    /// The empty relation over `n` operations.
    pub fn empty(n: usize) -> Self {
        assert!(n <= MAX_OPS, "history too large for the checkers");
        Relation { pred: vec![0; n] }
    }

    /// Adds the pair `a → b`.
    pub fn add(&mut self, a: usize, b: usize) {
        self.pred[b] |= 1 << a;
    }

    /// Whether `a → b`.
    pub fn has(&self, a: usize, b: usize) -> bool {
        self.pred[b] & (1 << a) != 0
    }

    /// Bitmask of predecessors of `b`.
    pub fn preds(&self, b: usize) -> u64 {
        self.pred[b]
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.pred.len()
    }

    /// Whether the relation covers zero operations.
    pub fn is_empty(&self) -> bool {
        self.pred.is_empty()
    }

    /// In-place transitive closure (iterated propagation; `n ≤ 64` makes
    /// this cheap).
    pub fn close_transitively(&mut self) {
        let n = self.pred.len();
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..n {
                let mut acc = self.pred[b];
                let mut todo = acc;
                while todo != 0 {
                    let a = todo.trailing_zeros() as usize;
                    todo &= todo - 1;
                    acc |= self.pred[a];
                }
                if acc != self.pred[b] {
                    self.pred[b] = acc;
                    changed = true;
                }
            }
        }
    }
}

/// All order information the checkers need about a history.
#[derive(Debug, Clone)]
pub struct Orders {
    /// Real-time precedence: `a` completed before `b` was invoked.
    pub real_time: Relation,
    /// Per-client program order.
    pub program: Relation,
    /// `reads_from[r] = Some(w)`: read `r` returned the value written by
    /// `w`. `None` for reads of `⊥` and for writes.
    pub reads_from: Vec<Option<usize>>,
    /// The potential-causality order `→σ` (Definition 3): transitive
    /// closure of program order ∪ reads-from.
    pub causal: Relation,
    /// Reads that returned a value no write in the history wrote —
    /// fabricated by the server; no view can ever contain them.
    pub orphan_reads: Vec<usize>,
    /// Bitmask of the write operations' indices.
    writes: u64,
}

impl Orders {
    /// Bitmask with a bit set for every write operation.
    pub fn write_mask(&self) -> u64 {
        self.writes
    }
}

/// Computes all order relations of `history`.
///
/// # Panics
///
/// Panics if the history exceeds [`MAX_OPS`] operations (checkers guard
/// this and return `Unknown` first).
pub fn compute_orders(history: &History) -> Orders {
    let ops = history.ops();
    let n = ops.len();
    let mut real_time = Relation::empty(n);
    let mut program = Relation::empty(n);
    let mut reads_from = vec![None; n];
    let mut orphan_reads = Vec::new();

    // Index writes by value (values are unique by assumption).
    let mut writer_of: HashMap<&Value, usize> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        if op.kind == OpKind::Write {
            if let Some(v) = &op.written {
                writer_of.insert(v, i);
            }
        }
    }

    for (b, op_b) in ops.iter().enumerate() {
        for (a, op_a) in ops.iter().enumerate() {
            if a == b {
                continue;
            }
            if history.precedes(OpId(a as u64), OpId(b as u64)) {
                real_time.add(a, b);
            }
            if op_a.client == op_b.client && a < b {
                // History records ops in invocation order; same-client ops
                // are sequential, so index order is program order.
                program.add(a, b);
            }
        }
        if op_b.kind == OpKind::Read {
            if let faust_types::history::OpOutcome::ReadReturned(Some(v)) = &op_b.outcome {
                match writer_of.get(v) {
                    Some(&w) if ops[w].register == op_b.register => reads_from[b] = Some(w),
                    _ => orphan_reads.push(b),
                }
            }
        }
    }

    let mut causal = program.clone();
    for (r, w) in reads_from.iter().enumerate() {
        if let Some(w) = w {
            causal.add(*w, r);
        }
    }
    causal.close_transitively();

    let mut writes = 0u64;
    for (i, op) in ops.iter().enumerate() {
        if op.kind == OpKind::Write {
            writes |= 1 << i;
        }
    }

    Orders {
        real_time,
        program,
        reads_from,
        causal,
        orphan_reads,
        writes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faust_types::ClientId;

    fn c(i: u32) -> ClientId {
        ClientId::new(i)
    }

    /// w0 by C0; r1 by C1 reads it; w2 by C1 afterwards; r3 by C2 reads w2.
    fn sample() -> History {
        let mut h = History::new();
        let w0 = h.begin_write(c(0), Value::from("a"), 0);
        h.complete_write(w0, 1, None);
        let r1 = h.begin_read(c(1), c(0), 2);
        h.complete_read(r1, 3, Some(Value::from("a")), None);
        let w2 = h.begin_write(c(1), Value::from("b"), 4);
        h.complete_write(w2, 5, None);
        let r3 = h.begin_read(c(2), c(1), 6);
        h.complete_read(r3, 7, Some(Value::from("b")), None);
        h
    }

    #[test]
    fn reads_from_resolved_by_unique_values() {
        let o = compute_orders(&sample());
        assert_eq!(o.reads_from, vec![None, Some(0), None, Some(2)]);
        assert!(o.orphan_reads.is_empty());
    }

    #[test]
    fn causal_order_is_transitive() {
        let o = compute_orders(&sample());
        // w0 → r1 (reads-from), r1 → w2 (program), w2 → r3 (reads-from)
        // hence w0 → r3 transitively.
        assert!(o.causal.has(0, 1));
        assert!(o.causal.has(1, 2));
        assert!(o.causal.has(2, 3));
        assert!(o.causal.has(0, 3));
        assert!(!o.causal.has(3, 0));
    }

    #[test]
    fn real_time_follows_times() {
        let o = compute_orders(&sample());
        assert!(o.real_time.has(0, 1));
        assert!(o.real_time.has(0, 3));
        assert!(!o.real_time.has(1, 0));
    }

    #[test]
    fn orphan_read_detected() {
        let mut h = History::new();
        let r = h.begin_read(c(0), c(1), 0);
        h.complete_read(r, 1, Some(Value::from("never written")), None);
        let o = compute_orders(&h);
        assert_eq!(o.orphan_reads, vec![0]);
    }

    #[test]
    fn read_from_wrong_register_is_orphan() {
        // A value written to X0 but "read" from X1 cannot be a reads-from.
        let mut h = History::new();
        let w = h.begin_write(c(0), Value::from("v"), 0);
        h.complete_write(w, 1, None);
        let r = h.begin_read(c(1), c(1), 2);
        h.complete_read(r, 3, Some(Value::from("v")), None);
        let o = compute_orders(&h);
        assert_eq!(o.orphan_reads, vec![1]);
    }

    #[test]
    fn transitive_closure_closes_chains() {
        let mut rel = Relation::empty(4);
        rel.add(0, 1);
        rel.add(1, 2);
        rel.add(2, 3);
        rel.close_transitively();
        assert!(rel.has(0, 3));
        assert!(rel.has(0, 2));
        assert!(!rel.has(3, 0));
    }
}
