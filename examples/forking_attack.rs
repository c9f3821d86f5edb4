//! The forking attack of Figure 3, end to end.
//!
//! A Byzantine server hides client C0's *completed* write from C1's first
//! read and reveals it on the second. Part 1 runs the bare USTOR protocol
//! and checks the recorded history against the consistency checkers: the
//! attack is invisible to every USTOR check (it is weakly
//! fork-linearizable) but the history is *not* fork-linearizable — the
//! separation at the heart of the paper. Part 2 runs the same attack
//! under FAUST: the offline version exchange reveals the incomparable
//! versions and both clients output `fail`.
//!
//! Run with: `cargo run --example forking_attack`

use faust::consistency::{
    check_causal_consistency, check_fork_linearizability, check_linearizability,
    check_weak_fork_linearizability, Budget,
};
use faust::core::{FaustDriver, FaustDriverConfig};
use faust::sim::SimConfig;
use faust::types::{ClientId, Value};
use faust::ustor::adversary::Fig3Server;
use faust::ustor::{Driver, WorkloadOp};

fn c(i: u32) -> ClientId {
    ClientId::new(i)
}

fn main() {
    println!("══ Part 1: the attack against bare USTOR ══\n");

    let mut driver = Driver::new(
        2,
        Box::new(Fig3Server::new(2, c(0), c(1))),
        SimConfig::default(),
        b"fig3-example",
    );
    driver.push_op(c(0), WorkloadOp::Write(Value::from("u")));
    driver.push_ops(
        c(1),
        vec![
            WorkloadOp::Pause(20), // let the write complete first
            WorkloadOp::Read(c(0)),
            WorkloadOp::Read(c(0)),
        ],
    );
    let result = driver.run();

    println!("history (the paper's Figure 3):");
    for op in result.history.ops() {
        let what = match (&op.kind, op.read_result()) {
            (faust::types::OpKind::Write, _) => {
                format!("write(X0, {})", op.written.as_ref().unwrap())
            }
            (_, Some(Some(v))) => format!("read(X0) -> {v}"),
            (_, Some(None)) => "read(X0) -> ⊥".to_string(),
            _ => "pending".to_string(),
        };
        println!(
            "  {} [{:>2},{:>2}] {what}",
            op.client,
            op.invoked_at,
            op.responded_at.unwrap_or(0),
        );
    }
    println!();
    println!("faults detected by USTOR checks: {:?}", result.faults);
    assert!(result.faults.is_empty());

    let budget = Budget::default();
    println!("\nchecker verdicts for this history:");
    println!(
        "  linearizable?            {:?}",
        check_linearizability(&result.history, &budget)
    );
    println!(
        "  fork-linearizable?       {:?}",
        check_fork_linearizability(&result.history, &budget)
    );
    println!(
        "  weak fork-linearizable?  {:?}",
        check_weak_fork_linearizability(&result.history, &budget)
    );
    println!(
        "  causally consistent?     {:?}",
        check_causal_consistency(&result.history, &budget)
    );
    assert!(check_fork_linearizability(&result.history, &budget).is_violated());
    assert!(check_weak_fork_linearizability(&result.history, &budget).is_satisfied());

    println!("\n══ Part 2: the same attack against FAUST ══\n");

    let mut driver = FaustDriver::new(
        2,
        Box::new(Fig3Server::new(2, c(0), c(1))),
        FaustDriverConfig::default(),
        b"fig3-faust",
    );
    driver.push_op(c(0), WorkloadOp::Write(Value::from("u")));
    driver.push_ops(
        c(1),
        vec![
            WorkloadOp::Pause(50),
            WorkloadOp::Read(c(0)),
            WorkloadOp::Read(c(0)),
        ],
    );
    let result = driver.run_until(30_000);

    for (client, reason) in &result.failures {
        let time = result
            .failure_time(*client)
            .expect("failed clients have a time");
        println!("  t={time:>5}  fail_{client}: {reason}");
    }
    assert!(
        !result.failures.is_empty(),
        "FAUST must detect the fork via offline version exchange"
    );
    println!("\nFAUST detected the fork that USTOR alone could not flag —");
    println!("accurate (a correct server is never accused) and complete");
    println!("(the forked clients eventually learn of each other's views).");
}
