//! Failure-notification gossip: once any client has proof of server
//! misbehaviour, *every* correct client eventually halts — even clients
//! the detector never talks to again, and even when the detector crashes
//! immediately after broadcasting (the offline channel is reliable).

use faust_core::{FaustConfig, FaustDriver, FaustDriverConfig};
use faust_sim::{DelayModel, SimConfig};
use faust_types::{ClientId, Value};
use faust_ustor::adversary::{Tamper, TamperServer};
use faust_ustor::UstorServer;
use faust_ustor::WorkloadOp;

fn c(i: u32) -> ClientId {
    ClientId::new(i)
}

/// A tampered reply to one victim propagates `fail` to all five clients.
#[test]
fn one_detection_halts_everyone() {
    let n = 5;
    let server = TamperServer::new(n, c(2), 3, Tamper::CorruptCommitSig);
    let mut driver = FaustDriver::new(n, Box::new(server), FaustDriverConfig::default(), b"gossip");
    for i in 0..n as u32 {
        driver.push_ops(
            c(i),
            vec![
                WorkloadOp::Write(Value::unique(i, 1)),
                WorkloadOp::Pause(40),
                WorkloadOp::Write(Value::unique(i, 2)),
            ],
        );
    }
    let result = driver.run_until(30_000);
    assert_eq!(
        result.failures.len(),
        n,
        "every client must learn of the failure: {:?}",
        result.failures
    );
    // The victim detects first; the others follow via FAILURE messages.
    let victim_time = result.failure_time(c(2)).expect("victim detected");
    for i in 0..n as u32 {
        let t = result.failure_time(c(i)).expect("all detected");
        assert!(t >= victim_time, "C{i} cannot detect before the victim");
    }
}

/// The detector crashes right after broadcasting FAILURE; the broadcast
/// still reaches everyone (reliable offline channel).
#[test]
fn detector_crash_does_not_lose_the_alarm() {
    let n = 3;
    let server = TamperServer::new(n, c(0), 1, Tamper::CorruptCommitSig);
    let mut driver = FaustDriver::new(
        n,
        Box::new(server),
        FaustDriverConfig {
            sim: SimConfig {
                seed: 4,
                link_delay: DelayModel::Fixed(2),
                offline_delay: DelayModel::Fixed(40),
            },
            ..FaustDriverConfig::default()
        },
        b"gossip-crash",
    );
    // C0 triggers the tamper with its second op, then crashes. The crash
    // lands after detection (the FAILURE messages are already in flight)
    // but long before delivery (offline delay 40).
    driver.push_ops(
        c(0),
        vec![
            WorkloadOp::Write(Value::unique(0, 1)),
            WorkloadOp::Write(Value::unique(0, 2)),
            WorkloadOp::Crash,
        ],
    );
    driver.push_op(c(1), WorkloadOp::Write(Value::unique(1, 1)));
    driver.push_op(c(2), WorkloadOp::Write(Value::unique(2, 1)));
    let result = driver.run_until(30_000);
    // C0 detected (and is now crashed); C1 and C2 must still have been
    // alerted by the in-flight broadcast.
    assert!(
        result.failure_time(c(1)).is_some() && result.failure_time(c(2)).is_some(),
        "in-flight FAILURE messages must survive the detector's crash: {:?}",
        result.failures
    );
}

/// Failure notifications never fire spuriously even with aggressive
/// probing and tiny tick periods (accuracy under stress).
#[test]
fn aggressive_probing_stays_accurate() {
    let n = 4;
    let mut driver = FaustDriver::new(
        n,
        Box::new(UstorServer::new(n)),
        FaustDriverConfig {
            sim: SimConfig {
                seed: 9,
                link_delay: DelayModel::Uniform(1, 30),
                offline_delay: DelayModel::Uniform(1, 10),
            },
            faust: FaustConfig {
                probe_period: 10, // probe constantly
                dummy_reads: true,
                commit_mode: faust_ustor::CommitMode::Immediate,
                pipeline: 1,
            },
            tick_period: 5,
        },
        b"aggressive",
    );
    for (i, w) in faust_ustor::random_workloads(n, 6, 0.5, 13)
        .into_iter()
        .enumerate()
    {
        driver.push_ops(c(i as u32), w);
    }
    let result = driver.run_until(5_000);
    assert!(result.failures.is_empty(), "{:?}", result.failures);
}
