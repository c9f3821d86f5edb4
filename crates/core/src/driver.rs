//! The script vocabulary of FAUST simulation runs: the per-client
//! workload steps, the run configuration, and a seeded workload
//! generator. The loop that executes scripts in virtual time is
//! [`FaustDriver`](crate::FaustDriver), in [`crate::sim`].

use crate::client::FaustConfig;
use faust_sim::SimConfig;
use faust_types::{ClientId, Value};

/// One step of a scripted FAUST client workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaustWorkloadOp {
    /// Write a value to the client's own register.
    Write(Value),
    /// Read a register.
    Read(ClientId),
    /// Idle for the given number of ticks before the next step.
    Pause(u64),
    /// Disconnect from all channels for the given duration (the paper's
    /// "Carlos is asleep"); buffered traffic is delivered on reconnect.
    Disconnect(u64),
    /// Crash (permanently).
    Crash,
}

/// Configuration of a FAUST simulation run.
#[derive(Debug, Clone, Copy)]
pub struct FaustDriverConfig {
    /// Underlying network simulation parameters.
    pub sim: SimConfig,
    /// FAUST layer tuning.
    pub faust: FaustConfig,
    /// Period of the per-client tick timer (drives dummy reads and probe
    /// checks).
    pub tick_period: u64,
}

impl Default for FaustDriverConfig {
    fn default() -> Self {
        FaustDriverConfig {
            sim: SimConfig::default(),
            faust: FaustConfig::default(),
            tick_period: 25,
        }
    }
}

/// Generates a reproducible random FAUST workload (mirrors
/// `faust_ustor::random_workloads`).
pub fn random_faust_workloads(
    n: usize,
    ops_per_client: usize,
    write_fraction: f64,
    seed: u64,
) -> Vec<Vec<FaustWorkloadOp>> {
    let mut rng = faust_sim::SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            (0..ops_per_client)
                .map(|seq| {
                    if rng.gen_bool(write_fraction) {
                        FaustWorkloadOp::Write(Value::unique(i as u32, seq as u64))
                    } else {
                        FaustWorkloadOp::Read(ClientId::new(rng.gen_index(n) as u32))
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaustDriver, Notification};
    use faust_ustor::adversary::{CrashServer, Fig3Server, SplitBrainServer};
    use faust_ustor::{Server, UstorServer};

    fn c(i: u32) -> ClientId {
        ClientId::new(i)
    }

    fn default_driver(n: usize, server: Box<dyn Server + Send>) -> FaustDriver {
        FaustDriver::new(n, server, FaustDriverConfig::default(), b"faust-driver")
    }

    #[test]
    fn user_ops_complete_and_stabilize() {
        let mut d = default_driver(2, Box::new(UstorServer::new(2)));
        d.push_ops(
            c(0),
            vec![
                FaustWorkloadOp::Write(Value::from("a1")),
                FaustWorkloadOp::Write(Value::from("a2")),
            ],
        );
        d.push_op(c(1), FaustWorkloadOp::Read(c(0)));
        let r = d.run_until(5_000);
        assert!(r.failures.is_empty());
        // Both of C0's ops eventually become stable w.r.t. C1 — via C1's
        // dummy reads and the probe exchange.
        assert!(
            r.stability_time(c(0), c(1), 2).is_some(),
            "cuts: {:?}",
            r.last_cut(c(0))
        );
    }

    #[test]
    fn no_failures_with_correct_server_ever() {
        // Failure-detection accuracy (Definition 5 property 5).
        for seed in 0..5 {
            let mut d = FaustDriver::new(
                3,
                Box::new(UstorServer::new(3)),
                FaustDriverConfig {
                    sim: SimConfig {
                        seed,
                        link_delay: faust_sim::DelayModel::Uniform(1, 10),
                        offline_delay: faust_sim::DelayModel::Uniform(20, 80),
                    },
                    ..FaustDriverConfig::default()
                },
                b"accuracy",
            );
            for (i, w) in random_faust_workloads(3, 6, 0.5, seed)
                .into_iter()
                .enumerate()
            {
                d.push_ops(c(i as u32), w);
            }
            let r = d.run_until(10_000);
            assert!(r.failures.is_empty(), "seed {seed}: {:?}", r.failures);
        }
    }

    #[test]
    fn fork_detected_by_offline_exchange() {
        // Detection completeness (Definition 5 property 7): the split-
        // brain fork is invisible to USTOR but the offline version
        // exchange reveals incomparable versions at every correct client.
        let server = SplitBrainServer::new(2, vec![vec![c(0)], vec![c(1)]], 0);
        let mut d = default_driver(2, Box::new(server));
        d.push_op(c(0), FaustWorkloadOp::Write(Value::from("a")));
        d.push_op(c(1), FaustWorkloadOp::Write(Value::from("b")));
        let r = d.run_until(20_000);
        assert_eq!(
            r.failures.len(),
            2,
            "both clients must detect: {:?}",
            r.failures
        );
        for i in 0..2 {
            assert!(r.failure_time(c(i)).is_some());
        }
    }

    #[test]
    fn fig3_attack_detected_by_faust() {
        let server = Fig3Server::new(2, c(0), c(1));
        let mut d = default_driver(2, Box::new(server));
        d.push_op(c(0), FaustWorkloadOp::Write(Value::from("u")));
        d.push_ops(
            c(1),
            vec![
                FaustWorkloadOp::Pause(50),
                FaustWorkloadOp::Read(c(0)),
                FaustWorkloadOp::Read(c(0)),
            ],
        );
        let r = d.run_until(20_000);
        // USTOR alone cannot flag the attack, but FAUST's stability
        // mechanism eventually must (the forked versions are
        // incomparable).
        assert!(
            !r.failures.is_empty(),
            "notifications: {:?}",
            r.notifications
        );
    }

    #[test]
    fn mute_server_detection_is_not_triggered_but_stability_stalls() {
        // A silent server violates liveness only: accuracy forbids
        // blaming it. Stability simply stops advancing.
        let server = CrashServer::new(2, 3);
        let mut d = default_driver(2, Box::new(server));
        d.push_ops(
            c(0),
            vec![
                FaustWorkloadOp::Write(Value::from("a1")),
                FaustWorkloadOp::Write(Value::from("a2")),
            ],
        );
        let r = d.run_until(10_000);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
    }

    #[test]
    fn disconnected_client_catches_up_on_reconnect() {
        // The Carlos scenario: a disconnected client misses everything,
        // then reconnects and stabilizes via probes.
        let mut d = default_driver(3, Box::new(UstorServer::new(3)));
        d.push_op(c(2), FaustWorkloadOp::Disconnect(3_000));
        d.push_ops(
            c(0),
            vec![
                FaustWorkloadOp::Write(Value::from("a1")),
                FaustWorkloadOp::Write(Value::from("a2")),
            ],
        );
        d.push_op(c(1), FaustWorkloadOp::Read(c(0)));
        let r = d.run_until(30_000);
        assert!(r.failures.is_empty());
        // While Carlos (C2) was away, C0 could not be stable w.r.t. C2…
        let before = r.notifications[0]
            .iter()
            .filter(|(t, _)| *t < 2_000)
            .filter_map(|(_, n)| match n {
                Notification::Stable(cut) => Some(cut.w[2]),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        assert_eq!(before, 0, "no stability w.r.t. a disconnected client");
        // …but after reconnection stability catches up to both ops.
        assert!(
            r.stability_time(c(0), c(2), 2).is_some(),
            "last cut: {:?}",
            r.last_cut(c(0))
        );
    }
}

#[cfg(test)]
mod determinism_tests {
    use super::*;
    use crate::FaustDriver;
    use faust_ustor::adversary::SplitBrainServer;
    use faust_ustor::{Server, UstorServer};

    fn c(i: u32) -> ClientId {
        ClientId::new(i)
    }

    /// The engine+transport refactor must preserve the simulator's
    /// bit-for-bit reproducibility: identical seeds yield identical
    /// histories, notification streams, and traffic metrics.
    #[test]
    fn fixed_seed_runs_are_bit_identical() {
        let run = |server: Box<dyn Server + Send>| {
            let mut d = FaustDriver::new(
                3,
                server,
                FaustDriverConfig {
                    sim: SimConfig {
                        seed: 17,
                        link_delay: faust_sim::DelayModel::Uniform(1, 9),
                        offline_delay: faust_sim::DelayModel::Uniform(15, 60),
                    },
                    ..FaustDriverConfig::default()
                },
                b"determinism",
            );
            for (i, w) in random_faust_workloads(3, 5, 0.5, 23)
                .into_iter()
                .enumerate()
            {
                d.push_ops(c(i as u32), w);
            }
            let r = d.run_until(6_000);
            (
                r.history,
                r.notifications,
                r.failures,
                r.metrics,
                r.final_time,
            )
        };
        let a = run(Box::new(UstorServer::new(3)));
        let b = run(Box::new(UstorServer::new(3)));
        assert_eq!(a.0, b.0, "histories diverged");
        assert_eq!(a.1, b.1, "notifications diverged");
        assert_eq!(a.2, b.2);
        assert_eq!(a.3, b.3, "traffic metrics diverged");
        assert_eq!(a.4, b.4);

        // Determinism holds for Byzantine servers too.
        let fork = || SplitBrainServer::new(3, vec![vec![c(0), c(1)], vec![c(2)]], 2);
        let a = run(Box::new(fork()));
        let b = run(Box::new(fork()));
        assert_eq!(a.1, b.1, "Byzantine notifications diverged");
        assert_eq!(a.4, b.4);
    }
}
