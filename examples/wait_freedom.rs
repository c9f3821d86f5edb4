//! Wait-freedom vs. blocking: USTOR against the fork-linearizable
//! lock-step baseline (experiment E7).
//!
//! The paper's central impossibility argument: no fork-linearizable
//! protocol is wait-free — concurrent operations must block each other
//! even when the server is correct. This example runs the *same* workload
//! through both protocols, twice:
//!
//! 1. heavy concurrency — every client issues operations simultaneously;
//!    the lock-step baseline serializes them while USTOR completes them
//!    all in one round-trip each;
//! 2. a client crash mid-operation — USTOR does not care; the lock-step
//!    baseline wedges *every* other client forever.
//!
//! Run with: `cargo run --example wait_freedom`

use faust::baseline::{LockStepServer, LsDriver};
use faust::crypto::KeySet;
use faust::sim::{DelayModel, SimConfig};
use faust::types::{ClientId, Value};
use faust::ustor::{Driver, UstorServer, WorkloadOp};

fn c(i: u32) -> ClientId {
    ClientId::new(i)
}

fn sim() -> SimConfig {
    SimConfig {
        seed: 1,
        link_delay: DelayModel::Fixed(10),
        offline_delay: DelayModel::Fixed(50),
    }
}

/// Client `i`'s script of `ops` writes.
fn writes(i: u32, ops: u64) -> Vec<WorkloadOp> {
    (0..ops)
        .map(|s| WorkloadOp::Write(Value::unique(i, s)))
        .collect()
}

/// Both protocols, each loaded with the same per-client `script`.
fn drivers(key_seed: &[u8], script: &[Vec<WorkloadOp>]) -> (Driver, LsDriver) {
    let n = script.len();
    let mut ustor = Driver::new(n, Box::new(UstorServer::new(n)), sim(), key_seed);
    let keys = KeySet::generate(n, key_seed);
    let mut lockstep = LsDriver::with_keys(LockStepServer::new(n), sim(), &keys);
    for (i, steps) in script.iter().enumerate() {
        ustor.push_ops(c(i as u32), steps.clone());
        lockstep.push_ops(c(i as u32), steps.clone());
    }
    (ustor, lockstep)
}

fn main() {
    let n: usize = 8;
    let ops: u64 = 5;

    println!("── scenario 1: {n} clients, {ops} concurrent writes each ──\n");

    let script: Vec<_> = (0..n as u32).map(|i| writes(i, ops)).collect();
    let (ustor, lockstep) = drivers(b"wf", &script);
    let u = ustor.run();
    let l = lockstep.run();

    println!("                         USTOR      lock-step");
    println!(
        "  completed ops          {:>5}      {:>5}",
        u.history.len() - u.incomplete_ops,
        l.history.len() - l.incomplete_ops
    );
    println!(
        "  virtual completion time{:>6}      {:>5}",
        u.final_time, l.final_time
    );
    println!(
        "\n  USTOR pipelines all {} ops concurrently (~{} ticks per batch);",
        n as u64 * ops,
        u.final_time / ops
    );
    println!(
        "  the lock-step protocol serializes them ({}x slower here).",
        l.final_time / u.final_time.max(1)
    );
    assert!(l.final_time > 2 * u.final_time);

    println!("\n── scenario 2: a client crashes mid-operation ──\n");

    let script = [
        vec![WorkloadOp::Write(Value::from("w"))],
        writes(1, ops),
        writes(2, ops),
    ];
    let (mut ustor, mut lockstep) = drivers(b"wf-crash", &script);
    // C0 crashes at t = 15, after the server answered its write (t = 10)
    // and before the answer lands (t = 20): a lock-step C0 holds the lock.
    ustor.crash_at(c(0), 15);
    lockstep.crash_at(c(0), 15);
    let u = ustor.run();
    let l = lockstep.run();

    let u_done: usize = u.completions[1].len() + u.completions[2].len();
    let l_done: usize = l.completions[1].len() + l.completions[2].len();
    println!("  ops completed by the surviving clients:");
    println!("    USTOR:     {u_done:>2} of {}", 2 * ops);
    println!("    lock-step: {l_done:>2} of {}", 2 * ops);
    assert_eq!(u_done, 2 * ops as usize, "USTOR is wait-free");
    assert_eq!(l_done, 0, "the crashed lock holder wedges everyone");

    println!("\n  USTOR: unaffected (wait-free, Definition 4).");
    println!("  lock-step: every client is blocked behind the dead lock holder —");
    println!("  exactly why the paper needs weak fork-linearizability.");
}
