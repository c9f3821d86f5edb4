//! Cross-crate integration tests: the complete FAUST stack against the
//! paper's scenarios and every adversary, with histories validated by the
//! consistency checkers.

use faust::baseline::{LockStepServer, LsDriver};
use faust::consistency::{
    check_causal_consistency, check_fork_linearizability, check_linearizability,
    check_weak_fork_linearizability, Budget, Verdict,
};
use faust::core::{FaustConfig, FaustDriver, FaustDriverConfig, Notification};
use faust::crypto::KeySet;
use faust::sim::{DelayModel, SimConfig};
use faust::types::{ClientId, Value};
use faust::ustor::adversary::{CrashServer, Fig3Server, SplitBrainServer, Tamper, TamperServer};
use faust::ustor::{random_workloads, UstorServer, WorkloadOp};

fn c(i: u32) -> ClientId {
    ClientId::new(i)
}

/// Figure 2, mechanically: Alice receives exactly stable_Alice([10,8,3])
/// and — after Carlos reconnects — eventually stable_Alice([10,10,10]).
#[test]
fn figure_2_stability_cut() {
    const ALICE: ClientId = ClientId::new(0);
    const BOB: ClientId = ClientId::new(1);
    const CARLOS: ClientId = ClientId::new(2);

    let mut driver = FaustDriver::new(
        3,
        Box::new(UstorServer::new(3)),
        FaustDriverConfig {
            sim: SimConfig {
                seed: 2,
                link_delay: DelayModel::Fixed(1),
                offline_delay: DelayModel::Fixed(20),
            },
            faust: FaustConfig {
                probe_period: 2_000,
                dummy_reads: false,
                commit_mode: faust::ustor::CommitMode::Immediate,
                pipeline: 1,
            },
            tick_period: 25,
        },
        b"figure-2",
    );
    driver.push_ops(
        ALICE,
        vec![
            WorkloadOp::Write(Value::from("alice rev 1")),
            WorkloadOp::Write(Value::from("alice rev 2")),
            WorkloadOp::Write(Value::from("alice rev 3")),
            WorkloadOp::Pause(100),
            WorkloadOp::Read(CARLOS),
            WorkloadOp::Write(Value::from("alice rev 4")),
            WorkloadOp::Write(Value::from("alice rev 5")),
            WorkloadOp::Write(Value::from("alice rev 6")),
            WorkloadOp::Write(Value::from("alice rev 7")),
            WorkloadOp::Pause(150),
            WorkloadOp::Read(BOB),
            WorkloadOp::Write(Value::from("alice rev 8")),
        ],
    );
    driver.push_ops(BOB, vec![WorkloadOp::Pause(230), WorkloadOp::Read(ALICE)]);
    driver.push_ops(
        CARLOS,
        vec![
            WorkloadOp::Pause(55),
            WorkloadOp::Read(ALICE),
            WorkloadOp::Disconnect(8_000),
        ],
    );

    let result = driver.run_until(30_000);
    assert!(result.failures.is_empty(), "{:?}", result.failures);

    let cuts: Vec<Vec<u64>> = result.notifications[ALICE.index()]
        .iter()
        .filter_map(|(_, n)| match n {
            Notification::Stable(cut) => Some(cut.w.clone()),
            _ => None,
        })
        .collect();
    assert!(
        cuts.contains(&vec![10, 8, 3]),
        "expected the Figure 2 cut [10,8,3] among {cuts:?}"
    );
    let last = cuts.last().expect("cuts were issued");
    assert!(
        last.iter().all(|&w| w >= 10),
        "eventual stability: {last:?}"
    );
    // Integrity (Definition 5 property 4): Alice's timestamps increase.
    let stamps: Vec<u64> = result
        .completions(ALICE)
        .iter()
        .map(|done| done.timestamp)
        .collect();
    assert_eq!(stamps, (1..=10).collect::<Vec<u64>>());
}

/// The full FAUST stack on a correct server: linearizable, wait-free, no
/// false accusations, histories pass every checker.
#[test]
fn faust_correct_server_properties() {
    let budget = Budget::default();
    for seed in 0..5 {
        let mut driver = FaustDriver::new(
            3,
            Box::new(UstorServer::new(3)),
            FaustDriverConfig {
                sim: SimConfig {
                    seed,
                    link_delay: DelayModel::Uniform(1, 10),
                    offline_delay: DelayModel::Uniform(20, 60),
                },
                ..FaustDriverConfig::default()
            },
            b"e2e-correct",
        );
        for (i, w) in random_workloads(3, 5, 0.5, seed).into_iter().enumerate() {
            driver.push_ops(c(i as u32), w);
        }
        let result = driver.run_until(20_000);
        assert!(result.failures.is_empty(), "seed {seed}");
        let incomplete = result
            .history
            .ops()
            .iter()
            .filter(|o| !o.is_complete())
            .count();
        assert_eq!(incomplete, 0, "wait-freedom, seed {seed}");
        assert_eq!(
            check_linearizability(&result.history, &budget),
            Verdict::Satisfied,
            "seed {seed}"
        );
    }
}

/// Every adversary type ends in either detection or, for pure liveness
/// attacks, silence — never a false accusation and never an undetected
/// *consistency* violation.
#[test]
fn adversary_matrix() {
    // (server, expect_detection)
    let cases: Vec<(Box<dyn faust::ustor::Server + Send>, bool, &str)> = vec![
        (
            Box::new(SplitBrainServer::new(
                3,
                vec![vec![c(0)], vec![c(1), c(2)]],
                0,
            )),
            true,
            "split-brain",
        ),
        (Box::new(Fig3Server::new(3, c(0), c(1))), true, "fig3"),
        (
            Box::new(TamperServer::new(3, c(1), 1, Tamper::CorruptCommitSig)),
            true,
            "corrupt-commit-sig",
        ),
        (
            Box::new(TamperServer::new(
                3,
                c(1),
                2,
                Tamper::RegressToInitialVersion,
            )),
            true,
            "regress-version",
        ),
        (Box::new(CrashServer::new(3, 4)), false, "mute-server"),
        (Box::new(UstorServer::new(3)), false, "correct"),
    ];
    for (server, expect_detection, name) in cases {
        let mut driver =
            FaustDriver::new(3, server, FaustDriverConfig::default(), b"adversary-matrix");
        for i in 0..3u32 {
            driver.push_ops(
                c(i),
                vec![
                    WorkloadOp::Write(Value::unique(i, 1)),
                    WorkloadOp::Pause(30 * (i as u64 + 1)),
                    WorkloadOp::Read(c((i + 1) % 3)),
                    WorkloadOp::Write(Value::unique(i, 2)),
                ],
            );
        }
        let result = driver.run_until(30_000);
        if expect_detection {
            assert!(
                !result.failures.is_empty(),
                "{name}: expected detection, got none"
            );
        } else {
            assert!(
                result.failures.is_empty(),
                "{name}: false accusation {:?}",
                result.failures
            );
        }
    }
}

/// The lock-step baseline produces linearizable (hence fork-linearizable)
/// histories when the server is correct.
#[test]
fn lockstep_histories_linearizable() {
    let budget = Budget::default();
    for seed in 0..5 {
        let mut d = LsDriver::with_keys(
            LockStepServer::new(3),
            SimConfig {
                seed,
                link_delay: DelayModel::Uniform(1, 10),
                offline_delay: DelayModel::Fixed(50),
            },
            &KeySet::generate(3, b"ls-lin"),
        );
        for i in 0..3u32 {
            for s in 0..4u64 {
                if s % 2 == 0 {
                    d.push_op(c(i), WorkloadOp::Write(Value::unique(i, s)));
                } else {
                    d.push_op(c(i), WorkloadOp::Read(c((i + 1) % 3)));
                }
            }
        }
        let r = d.run();
        assert!(r.faults.is_empty());
        assert_eq!(r.incomplete_ops, 0);
        assert_eq!(
            check_linearizability(&r.history, &budget),
            Verdict::Satisfied,
            "seed {seed}"
        );
        assert_eq!(
            check_fork_linearizability(&r.history, &budget),
            Verdict::Satisfied,
            "seed {seed}"
        );
    }
}

/// Histories under the forking adversaries satisfy exactly the paper's
/// guaranteed notions: causal consistency and weak fork-linearizability.
#[test]
fn forked_faust_histories_meet_the_guarantees() {
    let budget = Budget::default();
    let server = SplitBrainServer::new(4, vec![vec![c(0), c(1)], vec![c(2), c(3)]], 2);
    let mut driver = FaustDriver::new(
        4,
        Box::new(server),
        FaustDriverConfig {
            faust: FaustConfig {
                // Long probe period: the user ops complete before
                // detection halts the clients.
                probe_period: 5_000,
                dummy_reads: false,
                commit_mode: faust::ustor::CommitMode::Immediate,
                pipeline: 1,
            },
            ..FaustDriverConfig::default()
        },
        b"fork-guarantees",
    );
    for i in 0..4u32 {
        driver.push_ops(
            c(i),
            vec![
                WorkloadOp::Write(Value::unique(i, 1)),
                WorkloadOp::Pause(20),
                WorkloadOp::Read(c((i + 1) % 4)),
            ],
        );
    }
    let result = driver.run_until(2_000);
    assert_eq!(
        check_causal_consistency(&result.history, &budget),
        Verdict::Satisfied,
        "causality holds under forks: {:?}",
        result.history
    );
    let weak = check_weak_fork_linearizability(&result.history, &budget);
    assert!(
        weak == Verdict::Satisfied || matches!(weak, Verdict::Unknown(_)),
        "weak fork-linearizability: {weak:?}"
    );
}

/// FAUST on top of piggybacked commits (Section 5 optimization): same
/// guarantees, one message fewer per operation.
#[test]
fn faust_with_piggybacked_commits() {
    let budget = Budget::default();
    let mut driver = FaustDriver::new(
        3,
        Box::new(UstorServer::new(3)),
        FaustDriverConfig {
            faust: FaustConfig {
                probe_period: 200,
                dummy_reads: true,
                commit_mode: faust::ustor::CommitMode::Piggyback,
                pipeline: 1,
            },
            ..FaustDriverConfig::default()
        },
        b"faust-piggyback",
    );
    for (i, w) in random_workloads(3, 5, 0.5, 9).into_iter().enumerate() {
        driver.push_ops(c(i as u32), w);
    }
    let result = driver.run_until(10_000);
    assert!(result.failures.is_empty(), "{:?}", result.failures);
    let incomplete = result
        .history
        .ops()
        .iter()
        .filter(|o| !o.is_complete())
        .count();
    assert_eq!(incomplete, 0);
    assert_eq!(
        check_linearizability(&result.history, &budget),
        Verdict::Satisfied
    );
    // Stability still works without separate commits: dummy reads carry
    // the piggybacked commits to the server.
    for i in 0..3u32 {
        let cut = result.last_cut(c(i)).expect("stability advanced");
        assert!(cut.w.iter().any(|&w| w > 0), "client {i}: {cut:?}");
    }
}

/// A fork is still detected when commits are piggybacked.
#[test]
fn piggybacked_faust_still_detects_forks() {
    let server = SplitBrainServer::new(2, vec![vec![c(0)], vec![c(1)]], 0);
    let mut driver = FaustDriver::new(
        2,
        Box::new(server),
        FaustDriverConfig {
            faust: FaustConfig {
                probe_period: 200,
                dummy_reads: true,
                commit_mode: faust::ustor::CommitMode::Piggyback,
                pipeline: 1,
            },
            ..FaustDriverConfig::default()
        },
        b"piggyback-fork",
    );
    driver.push_op(c(0), WorkloadOp::Write(Value::from("a")));
    driver.push_op(c(1), WorkloadOp::Write(Value::from("b")));
    let result = driver.run_until(20_000);
    assert_eq!(result.failures.len(), 2, "{:?}", result.failures);
}
