//! The FAUST layer proper — stability cuts and fork detection — with
//! live sessions on OS threads, wired to each other by an offline mesh,
//! against a correct and a forking server.

mod tests {
    use crate::runtime::tests::{c, config, run_handles};
    use crate::UserOp;
    use faust_net::channel;
    use faust_types::Value;
    use faust_ustor::adversary::SplitBrainServer;
    use faust_ustor::{spawn_engine, Server, ServerEngine, UstorServer};
    use std::time::Duration;

    /// How long sessions keep probing and dummy-reading after their own
    /// workload drained.
    const SETTLE: Duration = Duration::from_millis(600);

    fn run(
        server: Box<dyn Server + Send>,
        workloads: Vec<Vec<UserOp>>,
        key_seed: &[u8],
    ) -> Vec<(crate::handle::FaustHandle, usize)> {
        let n = workloads.len();
        let (transport, conns) = channel::pair(n);
        let engine = spawn_engine(ServerEngine::new(n, server), transport);
        run_handles(conns, workloads, key_seed, config(true), SETTLE, engine).0
    }

    #[test]
    fn threaded_faust_completes_and_stabilizes() {
        let workloads = vec![
            vec![
                UserOp::Write(Value::from("a1")),
                UserOp::Write(Value::from("a2")),
            ],
            vec![UserOp::Read(c(0))],
            vec![UserOp::Write(Value::from("c1"))],
        ];
        let run = run(Box::new(UstorServer::new(3)), workloads, b"threaded-faust");
        let failures: Vec<_> = run.iter().filter_map(|(h, _)| h.failure()).collect();
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(run[0].1, 2);
        assert_eq!(run[1].1, 1);
        // Stability spreads: C0's ops become stable w.r.t. everyone.
        let cut = run[0].0.stability_cut().w;
        assert!(
            cut.iter().all(|&w| w >= 2),
            "expected full stability, got {cut:?}"
        );
    }

    #[test]
    fn threaded_faust_detects_forks() {
        let server = SplitBrainServer::new(2, vec![vec![c(0)], vec![c(1)]], 0);
        let workloads = vec![
            vec![UserOp::Write(Value::from("a"))],
            vec![UserOp::Write(Value::from("b"))],
        ];
        let run = run(Box::new(server), workloads, b"threaded-fork");
        let failures: Vec<_> = run.iter().filter_map(|(h, _)| h.failure()).collect();
        assert_eq!(
            failures.len(),
            2,
            "both clients must detect the fork: {failures:?}"
        );
    }
}
