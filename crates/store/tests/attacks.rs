//! The payoff of the persistent backend, proved through the simulated
//! full-protocol driver with crash/restart fault injection
//! ([`CrashRestartServer`]): an honest crash + recovery is **invisible**
//! to clients, while recovery from a truncated (rolled-back) or wiped
//! log is **detected** as a FAUST violation — the paper's fail-aware
//! guarantee extended to the server's own storage.

use faust_sim::SimConfig;
use faust_store::{
    testutil, truncate_tail_records, Durability, PersistentBackend, PersistentServer, StoreConfig,
};
use faust_types::{ClientId, Value};
use faust_ustor::{CrashRestartServer, Driver, Fault, WorkloadOp};

fn c(i: u32) -> ClientId {
    ClientId::new(i)
}

fn no_sync() -> StoreConfig {
    StoreConfig {
        durability: Durability::Never,
        ..StoreConfig::default()
    }
}

fn workload(driver: &mut Driver) {
    driver.push_ops(
        c(0),
        vec![
            WorkloadOp::Write(Value::from("a1")),
            WorkloadOp::Write(Value::from("a2")),
            WorkloadOp::Read(c(1)),
            WorkloadOp::Write(Value::from("a3")),
        ],
    );
    driver.push_ops(
        c(1),
        vec![
            WorkloadOp::Write(Value::from("b1")),
            WorkloadOp::Read(c(0)),
            WorkloadOp::Write(Value::from("b2")),
            WorkloadOp::Read(c(0)),
        ],
    );
}

#[test]
fn honest_crash_and_recovery_is_invisible_to_clients() {
    let dir = testutil::scratch_dir("attack-honest");
    let backend = PersistentBackend::new(&dir, no_sync());
    // Crash after message 9 of 16 (8 ops × submit+commit), mid-run.
    let server = CrashRestartServer::new(2, Box::new(backend), 9).unwrap();
    let mut driver = Driver::new(2, Box::new(server), SimConfig::default(), b"honest-crash");
    workload(&mut driver);
    let result = driver.run();
    assert!(
        !result.detected_fault(),
        "honest recovery must be invisible, got {:?}",
        result.faults
    );
    assert_eq!(result.incomplete_ops, 0, "every op completes");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn honest_crash_recovery_with_snapshots_is_also_invisible() {
    // Same, but with aggressive compaction so the crash recovers from
    // snapshot + short log rather than the full history.
    let dir = testutil::scratch_dir("attack-honest-snap");
    let backend = PersistentBackend::new(
        &dir,
        StoreConfig {
            durability: Durability::Never,
            snapshot_every: 3,
        },
    );
    let server = CrashRestartServer::new(2, Box::new(backend), 11).unwrap();
    let mut driver = Driver::new(2, Box::new(server), SimConfig::default(), b"honest-snap");
    workload(&mut driver);
    let result = driver.run();
    assert!(!result.detected_fault(), "{:?}", result.faults);
    assert_eq!(result.incomplete_ops, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn group_commit_server_completes_every_operation_under_the_driver() {
    // The batch bounds are out of reach, so the server releases a held
    // reply only when told to: every delivery ends in a closing round,
    // which forces the flush, as `faust serve` does when its transport
    // closes.
    let dir = testutil::scratch_dir("attack-group");
    let config = StoreConfig {
        durability: Durability::Group {
            max_records: 1_000,
            max_wait: std::time::Duration::from_secs(3_600),
        },
        snapshot_every: 0,
    };
    let server = PersistentServer::open(&dir, 2, config).unwrap();
    let mut driver = Driver::new(2, Box::new(server), SimConfig::default(), b"group");
    workload(&mut driver);
    let result = driver.run();
    assert!(!result.detected_fault(), "{:?}", result.faults);
    assert_eq!(result.incomplete_ops, 0, "every op completes");
    assert_eq!(result.history.len(), 8);
    std::fs::remove_dir_all(&dir).ok();
}

/// The faults a lost/rolled-back schedule manifests as.
fn is_state_loss(fault: &Fault) -> bool {
    matches!(
        fault,
        Fault::VersionRegression | Fault::OwnTimestampMismatch | Fault::MissingProofSignature
    )
}

#[test]
fn truncated_log_recovery_is_detected_as_rollback() {
    // The server (or whoever holds its disk) truncates the log at a
    // record boundary while "down": local recovery is flawless, but the
    // acknowledged suffix is gone. Clients, whose version vectors
    // remember those acknowledgements, must flag the violation.
    let dir = testutil::scratch_dir("attack-truncate");
    let backend = PersistentBackend::new(&dir, no_sync());
    let hook_dir = dir.clone();
    let server = CrashRestartServer::new(2, Box::new(backend), 9)
        .unwrap()
        .with_hook(Box::new(move || {
            let kept = truncate_tail_records(&hook_dir, 4).expect("tamper");
            assert!(kept > 0, "rollback, not a wipe");
        }));
    let mut driver = Driver::new(2, Box::new(server), SimConfig::default(), b"truncated");
    workload(&mut driver);
    let result = driver.run();
    assert!(
        result.detected_fault(),
        "rolled-back recovery must be detected"
    );
    assert!(
        result.faults.iter().any(|(_, f)| is_state_loss(f)),
        "expected a state-loss fault, got {:?}",
        result.faults
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wiped_store_recovery_is_detected_like_a_volatile_server() {
    // Deleting the whole store directory degrades the persistent server
    // to the volatile one — and triggers the same detection.
    let dir = testutil::scratch_dir("attack-wipe");
    let backend = PersistentBackend::new(&dir, no_sync());
    let hook_dir = dir.clone();
    let server = CrashRestartServer::new(2, Box::new(backend), 9)
        .unwrap()
        .with_hook(Box::new(move || {
            std::fs::remove_dir_all(&hook_dir).expect("wipe");
        }));
    let mut driver = Driver::new(2, Box::new(server), SimConfig::default(), b"wiped");
    workload(&mut driver);
    let result = driver.run();
    assert!(result.detected_fault(), "wiped recovery must be detected");
    assert!(
        result.faults.iter().any(|(_, f)| is_state_loss(f)),
        "expected a state-loss fault, got {:?}",
        result.faults
    );
    std::fs::remove_dir_all(&dir).ok();
}
