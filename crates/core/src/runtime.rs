//! Multi-client runs of live [`FaustHandle`](crate::handle::FaustHandle)
//! sessions on OS threads against an engine thread — genuine concurrency
//! rather than virtual time — over the in-process channel transport and
//! over the loopback reactor, with volatile and persistent backends.

pub(crate) mod tests {
    use crate::handle::{offline_mesh, Event, FaustHandle, HandleConfig};
    use crate::{FaustConfig, UserOp};
    use faust_crypto::SigScheme;
    use faust_net::{channel, ClientConn};
    use faust_store::{Durability, PersistentBackend, PersistentServer, StoreConfig};
    use faust_types::{ClientId, Value};
    use faust_ustor::{
        spawn_engine, CommitMode, EngineStats, IngressVerification, ServerEngine, UstorServer,
    };
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    pub(crate) fn c(i: u32) -> ClientId {
        ClientId::new(i)
    }

    /// Wall-clock tuning for threaded runs: a COMMIT after every reply
    /// (so engine counters are exact), one operation in flight, 10 ms
    /// ticks. With `background` off there are neither dummy reads nor
    /// probes, so the only traffic is the workload itself.
    pub(crate) fn config(background: bool) -> HandleConfig {
        HandleConfig {
            faust: FaustConfig {
                probe_period: if background { 50 } else { u64::MAX / 2 },
                dummy_reads: background,
                commit_mode: CommitMode::Immediate,
                pipeline: 1,
            },
            tick_interval: Duration::from_millis(10),
            ..HandleConfig::default()
        }
    }

    /// Runs one session per connection, each on a thread of its own and
    /// all wired by an offline mesh. A session submits its whole workload
    /// up front, runs until its backlog drains (or it halts on a
    /// violation), keeps running for `settle`, and disconnects. Returns
    /// the sessions in client order, each with its number of completed
    /// operations, and the engine's final statistics.
    pub(crate) fn run_handles(
        conns: Vec<ClientConn>,
        workloads: Vec<Vec<UserOp>>,
        key_seed: &[u8],
        config: HandleConfig,
        settle: Duration,
        engine: JoinHandle<EngineStats>,
    ) -> (Vec<(FaustHandle, usize)>, EngineStats) {
        let n = conns.len();
        assert_eq!(workloads.len(), n, "one workload per client");
        let threads: Vec<_> = conns
            .into_iter()
            .zip(workloads)
            .zip(offline_mesh(n))
            .map(|((conn, workload), link)| {
                let key_seed = key_seed.to_vec();
                std::thread::spawn(move || {
                    let id = conn.id();
                    let mut handle = FaustHandle::new(id, n, &key_seed, &config, Box::new(conn))
                        .with_offline(link);
                    for op in workload {
                        match op {
                            UserOp::Write(value) => handle.write(value),
                            UserOp::Read(register) => handle.read(register),
                        };
                    }
                    let deadline = Instant::now() + Duration::from_secs(20);
                    let mut events = Vec::new();
                    while handle.backlog() > 0 && handle.failure().is_none() {
                        assert!(Instant::now() < deadline, "{id} stalled");
                        events.extend(handle.run_for(Duration::from_millis(5)));
                    }
                    events.extend(handle.run_for(settle));
                    handle.disconnect();
                    let done = events
                        .iter()
                        .filter(|(_, e)| matches!(e, Event::Completed { .. }))
                        .count();
                    (handle, done)
                })
            })
            .collect();
        let run = threads
            .into_iter()
            .map(|t| t.join().expect("client thread"))
            .collect();
        (run, engine.join().expect("engine thread"))
    }

    /// Completed operations per client.
    fn completions(run: &[(FaustHandle, usize)]) -> Vec<usize> {
        run.iter().map(|(_, done)| *done).collect()
    }

    /// Asserts that no session halted on a violation.
    fn assert_no_failures(run: &[(FaustHandle, usize)]) {
        let failures: Vec<_> = run.iter().filter_map(|(h, _)| h.failure()).collect();
        assert!(failures.is_empty(), "{failures:?}");
    }

    /// `engine` on a thread over a fresh channel transport for `n`.
    fn over_channel(engine: ServerEngine, n: usize) -> (Vec<ClientConn>, JoinHandle<EngineStats>) {
        let (transport, conns) = channel::pair(n);
        (conns, spawn_engine(engine, transport))
    }

    #[test]
    fn threaded_run_completes_all_ops() {
        let workloads = vec![
            vec![
                UserOp::Write(Value::from("a1")),
                UserOp::Write(Value::from("a2")),
                UserOp::Read(c(1)),
            ],
            vec![UserOp::Write(Value::from("b1")), UserOp::Read(c(0))],
        ];
        let (conns, engine) = over_channel(ServerEngine::new(2, Box::new(UstorServer::new(2))), 2);
        let (run, stats) = run_handles(
            conns,
            workloads,
            b"threaded-test",
            config(false),
            Duration::ZERO,
            engine,
        );
        assert_eq!(completions(&run), vec![3, 2]);
        assert_no_failures(&run);
        assert_eq!(stats.submits, 5);
        assert_eq!(stats.commits, 5);
    }

    #[test]
    fn many_threads_heavy_interleaving() {
        let n = 8;
        let workloads: Vec<Vec<UserOp>> = (0..n as u32)
            .map(|i| {
                (0..25)
                    .map(|s| {
                        if s % 3 == 0 {
                            UserOp::Read(c((i + 1) % n as u32))
                        } else {
                            UserOp::Write(Value::unique(i, s))
                        }
                    })
                    .collect()
            })
            .collect();
        let (conns, engine) = over_channel(ServerEngine::new(n, Box::new(UstorServer::new(n))), n);
        let (run, stats) = run_handles(
            conns,
            workloads,
            b"heavy",
            config(false),
            Duration::ZERO,
            engine,
        );
        assert_no_failures(&run);
        assert_eq!(completions(&run), vec![25; 8]);
        assert_eq!(stats.submits, 200);
    }

    #[test]
    fn ed25519_ingress_verification_with_public_keys_only() {
        // The sound deployment: clients sign with Ed25519, the engine
        // verifies every SUBMIT at ingress holding *only* the public-key
        // registry. Honest traffic passes untouched.
        let n = 2;
        let key_seed = b"threaded-ed25519";
        let keys = faust_crypto::KeySet::generate_ed25519(n, key_seed);
        let registry = keys.registry();
        assert!(registry.is_public(), "server must hold public keys only");
        let engine = ServerEngine::new(n, Box::new(UstorServer::new(n)))
            .with_verification(IngressVerification::Batched(std::sync::Arc::new(registry)));
        let (conns, engine) = over_channel(engine, n);
        let workloads = vec![
            vec![
                UserOp::Write(Value::from("signed-1")),
                UserOp::Write(Value::from("signed-2")),
            ],
            vec![UserOp::Read(c(0))],
        ];
        let config = HandleConfig {
            scheme: SigScheme::Ed25519,
            ..config(false)
        };
        let (run, stats) = run_handles(conns, workloads, key_seed, config, Duration::ZERO, engine);
        assert_no_failures(&run);
        assert_eq!(completions(&run), vec![2, 1]);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.submits, 3);
    }

    #[test]
    fn threaded_runtime_runs_durably_over_a_persistent_backend() {
        // Threaded sessions against an engine built from the persistent
        // backend via `ServerEngine::from_backend`: every acknowledged
        // message is in the log afterwards, and recovery rebuilds the
        // full schedule.
        let n = 2;
        let dir = faust_store::testutil::scratch_dir("threaded-durable");
        let store = StoreConfig {
            durability: Durability::Never,
            ..StoreConfig::default()
        };
        let backend = PersistentBackend::new(&dir, store.clone());
        let engine = ServerEngine::from_backend(n, &backend).expect("fresh store");
        let (conns, engine) = over_channel(engine, n);
        let workloads = vec![
            vec![
                UserOp::Write(Value::from("d1")),
                UserOp::Write(Value::from("d2")),
            ],
            vec![UserOp::Read(c(0))],
        ];
        let (run, _) = run_handles(
            conns,
            workloads,
            b"durable-threaded",
            config(false),
            Duration::ZERO,
            engine,
        );
        assert_no_failures(&run);
        assert_eq!(completions(&run), vec![2, 1]);
        // 3 submits + 3 commits were acknowledged, so 6 records are
        // durable; recovery resumes exactly there.
        let recovered = PersistentServer::recover(&dir, n, store).expect("clean recovery");
        assert_eq!(recovered.next_seq(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn threaded_runtime_group_commit_amortizes_fsyncs_and_stays_correct() {
        // The full pipeline under `Durability::Group`: replies are held
        // until the batch fsync, the serve loop honours the flush
        // deadline (no deadlock with synchronous clients), every op
        // completes, and recovery sees every acknowledged record.
        let n = 3;
        let dir = faust_store::testutil::scratch_dir("threaded-group");
        let store = StoreConfig {
            durability: Durability::Group {
                max_records: 8,
                max_wait: Duration::from_millis(2),
            },
            snapshot_every: 0,
        };
        let backend = PersistentBackend::new(&dir, store.clone());
        let engine = ServerEngine::from_backend(n, &backend).expect("fresh store");
        let (conns, engine) = over_channel(engine, n);
        let workloads: Vec<Vec<UserOp>> = (0..n as u32)
            .map(|i| {
                (0..5)
                    .map(|s| {
                        if s % 2 == 0 {
                            UserOp::Write(Value::unique(i, s))
                        } else {
                            UserOp::Read(c((i + 1) % n as u32))
                        }
                    })
                    .collect()
            })
            .collect();
        let (run, _) = run_handles(
            conns,
            workloads,
            b"group-threaded",
            config(false),
            Duration::ZERO,
            engine,
        );
        assert_no_failures(&run);
        assert_eq!(completions(&run), vec![5; n]);
        // 15 submits + 15 commits acknowledged ⇒ 30 durable records.
        let recovered = PersistentServer::recover(&dir, n, store).expect("clean recovery");
        assert_eq!(recovered.next_seq(), 30);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn threaded_run_over_tcp_loopback() {
        // The same sessions, with the engine behind real TCP framing.
        let n = 3;
        let transport = faust_net::ReactorTransport::bind("127.0.0.1:0", n).expect("bind loopback");
        let addr = transport.local_addr();
        let engine = spawn_engine(
            ServerEngine::new(n, Box::new(UstorServer::new(n))),
            transport,
        );
        let conns: Vec<ClientConn> = (0..n as u32)
            .map(|i| faust_net::tcp::connect(addr, c(i)).expect("connect"))
            .collect();
        let workloads = (0..n as u32)
            .map(|i| {
                vec![
                    UserOp::Write(Value::unique(i, 0)),
                    UserOp::Read(c((i + 1) % n as u32)),
                ]
            })
            .collect();
        let (run, stats) = run_handles(
            conns,
            workloads,
            b"tcp-threaded",
            config(false),
            Duration::ZERO,
            engine,
        );
        assert_no_failures(&run);
        assert_eq!(completions(&run), vec![2; 3]);
        assert_eq!(stats.submits, 6);
    }
}
