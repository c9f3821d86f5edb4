//! What the generated operations must return, and whether they did.
//!
//! The oracle knows only the generated [`Op`]s and the value pool; it is
//! told when an operation is handed to the system and what came back.
//! Writes of one register come from one client in order, so a read that
//! begins after write `lo` of its target completed and ends when write
//! `hi` had been submitted must return one of writes `lo..=hi` (exactly
//! `lo` in lockstep, where `lo == hi`). Anything else, an operation that
//! never completes, or a violation event, is a failed operation.

use crate::gen::{Op, OpKind};
use std::collections::VecDeque;

/// Writes remembered per register; more than any pipeline depth used.
const RING: usize = 64;
/// Completed-but-not-yet-stable operations remembered per client.
const LAG_WINDOW: usize = 4096;
/// Stability-lag samples kept per run.
const LAG_SAMPLES: usize = 1 << 16;

#[derive(Debug, Clone)]
struct Register {
    submitted: u64,
    completed: u64,
    ring: [usize; RING],
}

#[derive(Debug, Clone, Copy)]
enum Pending {
    Write,
    Read { target: usize, lo: u64 },
}

#[derive(Debug)]
pub struct Oracle {
    registers: Vec<Register>,
    pending: Vec<VecDeque<Pending>>,
    /// Per client: operations completed so far, and for those not yet
    /// covered by a stability cut their `(timestamp, ordinal)`.
    done: Vec<u64>,
    unstable: Vec<VecDeque<(u64, u64)>>,
    pub lag_samples: Vec<u64>,
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Oracle {
    pub fn new(n: usize) -> Self {
        Oracle {
            registers: vec![
                Register {
                    submitted: 0,
                    completed: 0,
                    ring: [0; RING],
                };
                n
            ],
            pending: vec![VecDeque::new(); n],
            done: vec![0; n],
            unstable: vec![VecDeque::new(); n],
            lag_samples: Vec::new(),
            attempted: 0,
            completed: 0,
            failed: 0,
            first_failure: None,
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    /// `op` is about to be handed to its client's session.
    pub fn submitted(&mut self, op: &Op) {
        self.attempted += 1;
        let entry = match op.kind {
            OpKind::Write { value } => {
                let reg = &mut self.registers[op.client];
                reg.submitted += 1;
                reg.ring[(reg.submitted % RING as u64) as usize] = value;
                Pending::Write
            }
            OpKind::Read { target } => Pending::Read {
                target,
                lo: self.registers[target].completed,
            },
        };
        self.pending[op.client].push_back(entry);
    }

    /// The oldest outstanding operation of `client` completed with
    /// timestamp `timestamp`; `read` is `Some(value-or-⊥)` for a read.
    pub fn completed<V: AsRef<[u8]>>(
        &mut self,
        client: usize,
        timestamp: u64,
        read: Option<Option<&[u8]>>,
        pool: &[V],
    ) {
        self.completed += 1;
        match (self.pending[client].pop_front(), read) {
            (Some(Pending::Write), None) => self.registers[client].completed += 1,
            (Some(Pending::Read { target, lo }), Some(got)) => {
                let reg = &self.registers[target];
                let ok = match got {
                    None => lo == 0,
                    Some(bytes) => (lo.max(1)..=reg.submitted)
                        .any(|w| pool[reg.ring[(w % RING as u64) as usize]].as_ref() == bytes),
                };
                if !ok {
                    self.fail(format!(
                        "client {client} read register {target}: got {} bytes, not any of writes {lo}..={}",
                        got.map_or(0, <[u8]>::len),
                        reg.submitted
                    ));
                }
            }
            (expected, _) => self.fail(format!(
                "client {client}: completion of the wrong kind (expected {expected:?})"
            )),
        }
        self.done[client] += 1;
        let queue = &mut self.unstable[client];
        if queue.len() == LAG_WINDOW {
            queue.pop_front();
        }
        queue.push_back((timestamp, self.done[client]));
    }

    /// `client`'s stability cut now covers its operations up to
    /// `timestamp` with respect to every client.
    pub fn stable(&mut self, client: usize, timestamp: u64) {
        let done = self.done[client];
        let queue = &mut self.unstable[client];
        while queue.front().is_some_and(|(t, _)| *t <= timestamp) {
            let (_, ordinal) = queue.pop_front().expect("checked");
            if self.lag_samples.len() < LAG_SAMPLES {
                self.lag_samples.push(done - ordinal);
            }
        }
    }

    /// Adds another run's counts and keeps the earlier first failure.
    pub fn absorb(&mut self, other: &Oracle) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&other.first_failure);
        }
    }

    /// Operations handed over and not completed yet.
    pub fn outstanding(&self) -> usize {
        self.pending.iter().map(VecDeque::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Vec<Vec<u8>> {
        (0..4u8).map(|i| vec![i; 3]).collect()
    }

    fn write(client: usize, value: usize) -> Op {
        Op {
            client,
            kind: OpKind::Write { value },
        }
    }

    fn read(client: usize, target: usize) -> Op {
        Op {
            client,
            kind: OpKind::Read { target },
        }
    }

    #[test]
    fn lockstep_reads_must_return_the_last_completed_write() {
        let pool = pool();
        let mut o = Oracle::new(2);
        o.submitted(&read(1, 0));
        o.completed(1, 1, Some(None), &pool); // ⊥ before any write
        o.submitted(&write(0, 2));
        o.completed(0, 1, None, &pool);
        o.submitted(&read(1, 0));
        o.completed(1, 2, Some(Some(&[2, 2, 2])), &pool);
        assert_eq!(o.failed, 0);
        o.submitted(&read(1, 0));
        o.completed(1, 3, Some(Some(&[1, 1, 1])), &pool); // stale
        o.submitted(&read(1, 0));
        o.completed(1, 4, Some(None), &pool); // ⊥ after a write
        assert_eq!(o.failed, 2);
        assert_eq!((o.attempted, o.completed, o.outstanding()), (5, 5, 0));
    }

    #[test]
    fn a_pipelined_read_may_return_any_write_in_flight() {
        let pool = pool();
        let mut o = Oracle::new(2);
        o.submitted(&write(0, 1));
        o.completed(0, 1, None, &pool);
        o.submitted(&read(1, 0)); // lo = 1
        o.submitted(&write(0, 3)); // in flight while the read runs
        o.completed(1, 1, Some(Some(&[3, 3, 3])), &pool);
        o.submitted(&read(1, 0));
        o.completed(1, 2, Some(Some(&[1, 1, 1])), &pool);
        assert_eq!(o.failed, 0);
        o.completed(0, 2, None, &pool);
        o.submitted(&read(1, 0)); // lo = 2 now
        o.completed(1, 3, Some(Some(&[1, 1, 1])), &pool);
        assert_eq!(o.failed, 1);
    }

    #[test]
    fn stability_lag_counts_own_operations_completed_since() {
        let pool = pool();
        let mut o = Oracle::new(2);
        for t in 1..=5 {
            o.submitted(&write(0, 0));
            o.completed(0, t, None, &pool);
        }
        o.stable(0, 3);
        assert_eq!(o.lag_samples, vec![4, 3, 2]);
        o.stable(0, 3);
        assert_eq!(o.lag_samples.len(), 3);
    }
}
