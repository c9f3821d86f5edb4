use crate::{FaustDriver, FaustDriverConfig, Notification};
use faust_sim::SimConfig;
use faust_types::{ClientId, Value};
use faust_ustor::adversary::{CrashServer, Fig3Server, SplitBrainServer};
use faust_ustor::{random_workloads, Server, UstorServer, WorkloadOp};

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
            WorkloadOp::Write(Value::from("a1")),
            WorkloadOp::Write(Value::from("a2")),
        ],
    );
    d.push_op(c(1), WorkloadOp::Read(c(0)));
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
        for (i, w) in random_workloads(3, 6, 0.5, seed).into_iter().enumerate() {
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
    d.push_op(c(0), WorkloadOp::Write(Value::from("a")));
    d.push_op(c(1), WorkloadOp::Write(Value::from("b")));
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
    d.push_op(c(0), WorkloadOp::Write(Value::from("u")));
    d.push_ops(
        c(1),
        vec![
            WorkloadOp::Pause(50),
            WorkloadOp::Read(c(0)),
            WorkloadOp::Read(c(0)),
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
            WorkloadOp::Write(Value::from("a1")),
            WorkloadOp::Write(Value::from("a2")),
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
    d.push_op(c(2), WorkloadOp::Disconnect(3_000));
    d.push_ops(
        c(0),
        vec![
            WorkloadOp::Write(Value::from("a1")),
            WorkloadOp::Write(Value::from("a2")),
        ],
    );
    d.push_op(c(1), WorkloadOp::Read(c(0)));
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

#[test]
fn operations_begun_offline_complete_after_the_reconnect() {
    // A Disconnect step does not stop the script: C0's write goes out
    // while it is offline, and its reply waits for the reconnect.
    let mut d = default_driver(2, Box::new(UstorServer::new(2)));
    d.push_ops(
        c(0),
        vec![
            WorkloadOp::Disconnect(500),
            WorkloadOp::Write(Value::from("a")),
        ],
    );
    d.push_op(c(1), WorkloadOp::Write(Value::from("b")));
    let r = d.run_until(5_000);
    assert!(r.failures.is_empty(), "{:?}", r.failures);
    let write = r.history.client_ops(c(0)).next().expect("one op");
    assert_eq!(write.invoked_at, 0);
    assert!(write.responded_at > Some(500), "{write:?}");
    let other = r.history.client_ops(c(1)).next().expect("one op");
    assert!(other.responded_at < Some(500), "{other:?}");
}
