//! Property-based integration tests: randomized schedules and workloads
//! across the whole stack, validated against the Definition 5 properties.
//!
//! Property-style without an external framework: every case derives from a
//! seeded [`SmallRng`], so a failure reproduces exactly by case number.

use faust::consistency::{check_linearizability, check_wait_freedom, Budget, Verdict};
use faust::core::{FaustDriver, FaustDriverConfig, Notification};
use faust::sim::{DelayModel, SimConfig, SmallRng};
use faust::types::{ClientId, Value};
use faust::ustor::adversary::SplitBrainServer;
use faust::ustor::{random_workloads, Driver, UstorServer, WorkloadOp};

fn c(i: u32) -> ClientId {
    ClientId::new(i)
}

/// USTOR with a correct server: every random schedule is linearizable
/// and wait-free (Definition 5 properties 1–2).
#[test]
fn ustor_random_schedules_linearizable() {
    for case in 0u64..24 {
        let mut rng = SmallRng::seed_from_u64(0xA11CE ^ case);
        let seed = rng.gen_range_inclusive(0, 4_999);
        let n = 2 + rng.gen_index(3); // 2..5
        let ops = 2 + rng.gen_index(4); // 2..6
        let write_fraction = 0.2 + 0.7 * rng.gen_f64();
        let mut driver = Driver::new(
            n,
            Box::new(UstorServer::new(n)),
            SimConfig {
                seed,
                link_delay: DelayModel::Uniform(1, 25),
                offline_delay: DelayModel::Fixed(50),
            },
            b"prop-lin",
        );
        for (i, w) in random_workloads(n, ops, write_fraction, seed)
            .into_iter()
            .enumerate()
        {
            driver.push_ops(c(i as u32), w);
        }
        let result = driver.run();
        assert!(!result.detected_fault(), "case {case}");
        assert!(check_wait_freedom(&result.history, &[]), "case {case}");
        assert_eq!(
            check_linearizability(&result.history, &Budget::default()),
            Verdict::Satisfied,
            "case {case}"
        );
    }
}

/// FAUST timestamps are monotone per client (Definition 5 property 4)
/// and stability cuts only ever grow.
#[test]
fn faust_timestamps_and_cuts_monotone() {
    for case in 0u64..12 {
        let mut rng = SmallRng::seed_from_u64(0x0DD5 ^ case);
        let seed = rng.gen_range_inclusive(0, 1_999);
        let n = 3;
        let mut driver = FaustDriver::new(
            n,
            Box::new(UstorServer::new(n)),
            FaustDriverConfig {
                sim: SimConfig {
                    seed,
                    link_delay: DelayModel::Uniform(1, 10),
                    offline_delay: DelayModel::Uniform(10, 40),
                },
                ..FaustDriverConfig::default()
            },
            b"prop-monotone",
        );
        for (i, w) in random_workloads(n, 4, 0.5, seed).into_iter().enumerate() {
            driver.push_ops(c(i as u32), w);
        }
        let result = driver.run_until(8_000);
        assert!(result.failures.is_empty(), "case {case}");
        for i in 0..n {
            let mut last_stamp = 0;
            let mut last_cut = vec![0u64; n];
            for (_, note) in &result.notifications[i] {
                match note {
                    Notification::Completed(done) => {
                        assert!(done.timestamp > last_stamp, "case {case}");
                        last_stamp = done.timestamp;
                    }
                    Notification::Stable(cut) => {
                        for (a, b) in last_cut.iter().zip(&cut.w) {
                            assert!(b >= a, "case {case}: cut regressed");
                        }
                        last_cut = cut.w.clone();
                    }
                    Notification::Failed(_) => unreachable!("correct server"),
                }
            }
        }
    }
}

/// Detection completeness under random fork points and delays: a
/// split-brain server is always detected by every client, eventually.
#[test]
fn forks_always_detected() {
    for case in 0u64..10 {
        let mut rng = SmallRng::seed_from_u64(0xF08C ^ case);
        let seed = rng.gen_range_inclusive(0, 1_999);
        let fork_after = rng.gen_index(6);
        let n = 4;
        let server = SplitBrainServer::new(n, vec![vec![c(0), c(1)], vec![c(2), c(3)]], fork_after);
        let mut driver = FaustDriver::new(
            n,
            Box::new(server),
            FaustDriverConfig {
                sim: SimConfig {
                    seed,
                    link_delay: DelayModel::Uniform(1, 10),
                    offline_delay: DelayModel::Uniform(10, 60),
                },
                ..FaustDriverConfig::default()
            },
            b"prop-detect",
        );
        // Every client keeps writing so both branches make progress.
        for i in 0..n as u32 {
            for s in 0..3 {
                driver.push_ops(
                    c(i),
                    vec![
                        WorkloadOp::Write(Value::unique(i, s)),
                        WorkloadOp::Pause(40),
                    ],
                );
            }
        }
        let result = driver.run_until(60_000);
        for i in 0..n {
            assert!(
                result.failure_time(c(i as u32)).is_some(),
                "client {i} never detected the fork (case {case}, seed {seed}, fork_after {fork_after})"
            );
        }
    }
}
