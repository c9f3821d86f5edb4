use crate::{FaustDriver, FaustDriverConfig};
use faust_sim::SimConfig;
use faust_types::ClientId;
use faust_ustor::adversary::SplitBrainServer;
use faust_ustor::{random_workloads, Server, UstorServer};

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
        for (i, w) in random_workloads(3, 5, 0.5, 23).into_iter().enumerate() {
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
