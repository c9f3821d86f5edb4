//! The deterministic whole-system fault-simulation suite.
//!
//! Every test here drives the virtual-time simulator
//! (`faust::core::sim`): many `SessionCore` clients and one
//! `ServerEngine` scheduled by a discrete-event loop, no threads, no
//! sockets, no wall clock. A run is a pure function of its
//! [`SimScenario`], so
//!
//! * failures reproduce **bit-identically** from the seed,
//! * a failing fault plan is **shrunk** to a 1-minimal set of clauses,
//! * and the printed report is a ready-to-run reproduction recipe.
//!
//! Seeds: `FAUST_SIM_SEED_BASE` picks the first seed (default 42 — the
//! pinned default, so ordinary `cargo test` runs are reproducible);
//! `FAUST_SIM_RUNS` the number of consecutive seeds (default 1000). CI
//! runs one job with the pinned base and one with a rotating base
//! derived from the run number, so coverage grows forever while every
//! red run stays replayable. `FAUST_SIM_SEED=<n> cargo test --release
//! --test sim_faults reproduce_seed -- --nocapture` replays one seed.
//!
//! See `docs/simulation.md` for the architecture and the oracle
//! definitions.

mod common;

use common::{connect_all, handle_config, incarnation, run_phase};
use faust::audit::{audit, AuditVerdict, Divergence, SessionHistory};
use faust::core::{
    check_determinism, gen_scenario, investigate, run_and_check, run_sim, CrashSpec, FaultClause,
    FaultPlan, Notification, ResolutionTally, SimRunReport, SimScenario, UserOp, WalTamper,
};
use faust::crypto::sig::KeySet;
use faust::crypto::SigScheme;
use faust::net::tcp;
use faust::sim::{DelayModel, TimeWindow};
use faust::store::{testutil, Durability, PersistentBackend, StoreConfig};
use faust::types::{ClientId, Value};
use faust::ustor::WorkloadOp;
use std::time::{Duration, Instant};

fn c(i: u32) -> ClientId {
    ClientId::new(i)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Where a failing run's reproduction recipe is written, so CI can
/// upload it as an artifact next to the red job.
const REPRO_PATH: &str = "target/sim-failure-repro.txt";

/// The flagship fuzz loop: `FAUST_SIM_RUNS` generated scenarios
/// (honest, crashing, rolling back, Byzantine networks), each checked
/// against the full oracle set — no false positives, no missed
/// guaranteed-observable forks, consistency-checker verdicts over the
/// recorded history — with a determinism double-run sprinkled in. On
/// the first violation the fault plan is delta-debugged down to a
/// 1-minimal reproduction and the test panics with the recipe.
///
/// It ends with one tally line: how many plans were benign (wait-freedom
/// and linearizability checked), how many `WipeState` crashes fired and
/// on how many of them detection was demanded (`wipe_detector ==
/// Some(true)`) or waived, and how many `TamperReadValue` victims were
/// held to detection.
#[test]
fn seeded_runs_pass_all_oracles() {
    let base = env_u64("FAUST_SIM_SEED_BASE", 42);
    let runs = env_u64("FAUST_SIM_RUNS", 1000);
    eprintln!(
        "sim_faults: seeds {base}..{} (base {base}, {runs} runs)",
        base + runs
    );
    let mut tally = Tally::default();
    for seed in base..base + runs {
        let scenario = gen_scenario(seed);
        let verdict = run_and_check(&scenario).map(|report| tally.add(&scenario, &report));
        let verdict = verdict.and_then(|()| {
            if (seed - base).is_multiple_of(64) {
                // Reproducibility oracle: the same scenario twice must
                // yield bit-identical histories, notifications, and
                // traffic metrics.
                check_determinism(&scenario)
            } else {
                Ok(())
            }
        });
        if let Err(error) = verdict {
            let failure = investigate(&scenario, error);
            let report = failure.render();
            std::fs::write(REPRO_PATH, &report).ok();
            panic!("\n{report}\n(also written to {REPRO_PATH})");
        }
    }
    eprintln!(
        "sim_faults tally: {} benign plans checked for wait-freedom and linearizability; \
         {} WipeState crashes fired, detection demanded on {} and waived on {}; \
         {} TamperReadValue victims checked; {} REPLYs resolved to the engine's cached ones \
         ({} markers, {} deltas, {} kept tails, {} named values; {} no longer cached)",
        tally.benign,
        tally.wipes_demanded + tally.wipes_waived,
        tally.wipes_demanded,
        tally.wipes_waived,
        tally.tamper_victims,
        tally.replies.compared,
        tally.replies.markers,
        tally.replies.deltas,
        tally.replies.kept,
        tally.replies.named,
        tally.replies.uncached,
    );
    // The simulator's clients run one operation at a time, so `L` keeps
    // no tail there (`tests/reply_delta.rs` pipelines); every other form
    // shows up in any window of a hundred seeds.
    let replies = &tally.replies;
    assert!(
        runs < 100 || replies.markers > 0 && replies.deltas > 0 && replies.named > 0,
        "the resolution oracle saw every form"
    );
}

/// What the oracles checked across a seed window.
#[derive(Default)]
struct Tally {
    benign: usize,
    wipes_demanded: usize,
    wipes_waived: usize,
    tamper_victims: usize,
    /// The resolution oracle's counts, summed (no mismatch: the run
    /// passed).
    replies: ResolutionTally,
}

impl Tally {
    fn add(&mut self, scenario: &SimScenario, report: &SimRunReport) {
        self.benign += usize::from(scenario.plan.is_benign(&scenario.server));
        let (sum, run) = (&mut self.replies, &report.resolution);
        sum.compared += run.compared;
        sum.markers += run.markers;
        sum.deltas += run.deltas;
        sum.kept += run.kept;
        sum.named += run.named;
        sum.uncached += run.uncached;
        for &(at, label, victim) in &report.fork_fired {
            // `check_oracles` demands detection only with slack left.
            let demanded = at + scenario.detection_slack() <= scenario.deadline;
            match (label, victim) {
                ("crash-wipe", _) if demanded && report.wipe_detector == Some(true) => {
                    self.wipes_demanded += 1
                }
                ("crash-wipe", _) => self.wipes_waived += 1,
                (_, Some(_)) if demanded => self.tamper_victims += 1,
                _ => {}
            }
        }
    }
}

/// Replays one seed end to end with full output — the command the
/// failure report prints. A no-op unless `FAUST_SIM_SEED` is set.
#[test]
fn reproduce_seed() {
    let Ok(seed) = std::env::var("FAUST_SIM_SEED") else {
        return;
    };
    let seed: u64 = seed.parse().expect("FAUST_SIM_SEED must be an integer");
    let scenario = gen_scenario(seed);
    eprintln!("replaying seed {seed}: {scenario:#?}");
    match run_and_check(&scenario) {
        Ok(report) => {
            eprintln!(
                "seed {seed} passes: {} completed ops, {} failures, final t={}",
                report.completed_ops(),
                report.failures.len(),
                report.final_time
            );
        }
        Err(error) => {
            let failure = investigate(&scenario, error);
            panic!("\n{}", failure.render());
        }
    }
}

/// The acceptance property in isolation: a handful of pinned seeds
/// rerun bit-identically, including ones whose plans crash and fork
/// the server.
#[test]
fn pinned_seeds_rerun_bit_identically() {
    for seed in [0, 7, 42, 88, 286, 1337] {
        check_determinism(&gen_scenario(seed)).expect("bit-identical rerun");
    }
}

/// Seed 101160: a `WipeState` crash at t = 10 after both clients
/// completed an operation. The COMMITs in flight at the crash re-teach
/// the wiped server every client's version (no client fails, and the
/// history is weakly fork-linearizable), the store then takes a snapshot
/// every 4 records, and the exported `FAUSTHIS` starts from the last one
/// (`base_seq` 960, two records), which already absorbed the evidence.
/// The audit oracle demands a divergence only from an export that
/// reaches back to the restart (`SimRunReport::restart_seq`), so it
/// accepts the auditor's certificate here.
#[test]
fn seed_101160_passes_every_oracle() {
    run_and_check(&gen_scenario(101160)).expect("every oracle passes");
}

/// The auditor's side of seed 101160: the same run with a store that never
/// snapshots exports its whole post-crash log, whose first record is a
/// COMMIT of operations that log never saw — the wipe, localized.
#[test]
fn seed_101160s_wipe_is_in_its_whole_post_crash_log() {
    let mut scenario = gen_scenario(101160);
    scenario.server.snapshot_every = 0;
    let report = run_sim(&scenario);
    assert_eq!(report.crash_time, Some(10));
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    match offline_verdict(&scenario, &report) {
        AuditVerdict::Diverged {
            first_bad_version: 0,
            divergence: Divergence::UnjustifiedCommit { committer, .. },
        } => assert_eq!(committer, c(0)),
        other => panic!("the whole post-crash log shows the wipe, got {other:?}"),
    }
}

/// Two clients against a synchronously durable server: C0's one write
/// loses its REPLY inside a `DropReplies` window, so the reconnect at the
/// window's end replays the SUBMIT — a duplicate the engine answers from
/// its reply cache — and C1 reads afterwards. The server itself sees four
/// messages (two SUBMITs, two COMMITs); the replay is a fifth frame that
/// never reaches it. The plan crashes the server after `after_messages`.
fn replayed_submit_scenario(after_messages: usize) -> SimScenario {
    SimScenario {
        seed: 7,
        workloads: vec![
            vec![WorkloadOp::Write(Value::from("a1"))],
            vec![WorkloadOp::Pause(400), WorkloadOp::Read(c(0))],
        ],
        server: StoreConfig {
            durability: Durability::Always,
            snapshot_every: 0,
        },
        plan: FaultPlan {
            clauses: vec![
                FaultClause::DropReplies {
                    client: c(0),
                    window: TimeWindow::new(0, 200),
                },
                FaultClause::CrashRestart(CrashSpec {
                    after_messages,
                    tamper: WalTamper::None,
                }),
            ],
        },
        deadline: 2_000,
        tick_period: 25,
        dummy_reads: false,
        link_delay: DelayModel::Uniform(1, 6),
        offline_delay: DelayModel::Uniform(20, 80),
    }
}

/// The crash a report dates is the one the server performs: a SUBMIT
/// answered from the reply cache does not count towards
/// `after_messages`, so a crash scheduled one message past what the
/// server sees never fires, and one scheduled at the last message fires
/// at C1's COMMIT.
#[test]
fn a_cache_answered_resend_does_not_date_the_crash() {
    let beyond = run_and_check(&replayed_submit_scenario(5)).expect("oracles pass");
    assert_eq!(beyond.completed_ops(), 2);
    assert_eq!(beyond.crash_time, None, "the server saw only 4 messages");
    assert_eq!(beyond.wipe_detector, None);

    let last = run_and_check(&replayed_submit_scenario(4)).expect("oracles pass");
    assert_eq!(last.completed_ops(), 2);
    let crash_time = last.crash_time.expect("the 4th message reaches the server");
    assert!(
        crash_time >= 400,
        "C1's COMMIT, not C0's replay: t={crash_time}"
    );
}

// ---------------------------------------------------------------------------
// The threaded kill+restart e2e, ported into virtual time (satellite of
// the simulator: same scenario, same assertions, a fraction of the
// wall clock).
// ---------------------------------------------------------------------------

/// The virtual-time twin of the threaded run below: three clients run a
/// two-phase workload against a group-commit persistent server; at the
/// quiescent phase boundary (message 8 — all four phase-1 operations
/// submitted *and* committed, so no reply is held back by the durability
/// batch) the server is killed and recovered from its log. Honest
/// recovery must be invisible: no failure notifications, every op
/// completes, and the read crossing the restart sees the last pre-crash
/// value.
fn kill_restart_scenario() -> SimScenario {
    SimScenario {
        seed: 4242,
        workloads: vec![
            vec![
                WorkloadOp::Write(Value::from("a1")),
                WorkloadOp::Write(Value::from("a2")),
                // Staggered pauses: C1 resumes first, so its cross-read
                // lands before C0's phase-2 write — the same op order
                // the threaded twin asserts.
                WorkloadOp::Pause(500),
                WorkloadOp::Read(c(1)),
                WorkloadOp::Write(Value::from("a3")),
            ],
            vec![
                WorkloadOp::Write(Value::from("b1")),
                WorkloadOp::Pause(300),
                WorkloadOp::Read(c(0)),
            ],
            vec![
                WorkloadOp::Read(c(0)),
                WorkloadOp::Pause(400),
                WorkloadOp::Write(Value::from("c1")),
            ],
        ],
        server: StoreConfig {
            durability: Durability::Group {
                max_records: 8,
                max_wait: Duration::from_millis(20),
            },
            snapshot_every: 0,
        },
        plan: FaultPlan {
            clauses: vec![FaultClause::CrashRestart(CrashSpec {
                // 4 phase-1 ops × (SUBMIT + COMMIT) — the crash lands
                // exactly on the phase boundary.
                after_messages: 8,
                tamper: WalTamper::None,
            })],
        },
        deadline: 4_000,
        tick_period: 25,
        // Like the threaded twin: no dummy reads, so phases are exactly
        // the scripted messages and the kill point is quiescent.
        dummy_reads: false,
        link_delay: DelayModel::Uniform(1, 6),
        offline_delay: DelayModel::Uniform(20, 80),
    }
}

/// Runs the threaded twin once — the same three clients as live
/// `FaustHandle` sessions on threads, both phases against real sockets
/// and real group fsync batches — and returns its wall-clock time.
fn threaded_twin_elapsed() -> Duration {
    let n = 3;
    let phase = Duration::from_millis(1200);
    let dir = testutil::scratch_dir("sim-vs-threads");
    let backend = PersistentBackend::new(
        &dir,
        StoreConfig {
            durability: Durability::Group {
                max_records: 8,
                max_wait: Duration::from_millis(2),
            },
            snapshot_every: 0,
        },
    );

    let started = Instant::now();
    let (addr, engine) = incarnation(&backend, n);
    let handles = connect_all(addr, n, b"sim-vs-threads", &handle_config(false));
    let phase1 = run_phase(
        handles,
        vec![
            vec![
                UserOp::Write(Value::from("a1")),
                UserOp::Write(Value::from("a2")),
            ],
            vec![UserOp::Write(Value::from("b1"))],
            vec![UserOp::Read(c(0))],
        ],
        phase,
    );
    let mut handles = Vec::new();
    for (mut handle, _) in phase1 {
        assert!(handle.failure().is_none(), "{:?}", handle.failure());
        handle.disconnect();
        handles.push(handle);
    }
    engine.join().expect("engine thread");
    // <- the first incarnation is dead here; only the log survives.
    let (addr, engine) = incarnation(&backend, n);
    for handle in &mut handles {
        let conn = tcp::connect(addr, handle.id()).expect("redial");
        handle.reconnect(conn);
    }
    let phase2 = run_phase(
        handles,
        vec![
            vec![UserOp::Read(c(1)), UserOp::Write(Value::from("a3"))],
            vec![UserOp::Read(c(0))],
            vec![UserOp::Write(Value::from("c1"))],
        ],
        phase,
    );
    let elapsed = started.elapsed();
    for (mut handle, _) in phase2 {
        assert!(
            handle.failure().is_none(),
            "threaded honest recovery must be invisible: {:?}",
            handle.failure()
        );
        handle.disconnect();
    }
    engine.join().expect("engine thread");
    std::fs::remove_dir_all(&dir).ok();
    elapsed
}

#[test]
fn group_commit_kill_restart_in_virtual_time_matches_threaded_run_10x_faster() {
    let scenario = kill_restart_scenario();

    let started = Instant::now();
    let report = run_sim(&scenario);
    let sim_elapsed = started.elapsed();

    // Same assertions as the threaded e2e.
    assert!(
        report.failures.is_empty(),
        "honest group-commit recovery must be invisible: {:?}",
        report.failures
    );
    let crash_at = report.crash_time.expect("the kill must actually fire");
    assert!(
        crash_at < 300,
        "the kill belongs to the phase boundary, fired at t={crash_at}"
    );
    assert_eq!(
        report.completed_ops(),
        scenario.user_ops(),
        "every op on both sides of the restart completes"
    );
    let cross_read = report.notifications[1]
        .iter()
        .filter_map(|(_, note)| match note {
            Notification::Completed(done) if done.kind == faust::types::OpKind::Read => {
                done.read_value.clone()
            }
            _ => None,
        })
        .next_back()
        .flatten()
        .expect("C1's cross-restart read completed");
    assert_eq!(
        cross_read,
        Value::from("a2"),
        "read after restart must see the last pre-crash value"
    );

    // And it reruns bit-identically, crash included.
    check_determinism(&scenario).expect("kill+restart reruns bit-identically");

    // The point of the simulator: the same system behaviour, two orders
    // of magnitude below the threaded run's wall clock (which sleeps
    // through two real 1.2 s phases).
    let threaded_elapsed = threaded_twin_elapsed();
    assert!(
        sim_elapsed * 10 <= threaded_elapsed,
        "virtual time must be ≥10× faster: sim {sim_elapsed:?} vs threads {threaded_elapsed:?}"
    );
}

// ---------------------------------------------------------------------------
// Offline-auditor agreement: every simulated run exports a FAUSTHIS
// session history, and `faust-audit` — a second oracle sharing no code
// with the online fail-aware machinery — must agree with what actually
// happened. The seeded fuzz loop above already audits every generated
// scenario inside `check_oracles`; these tests pin the two verdict
// directions explicitly.
// ---------------------------------------------------------------------------

/// Replays a run's exported history through the offline auditor.
fn offline_verdict(scenario: &SimScenario, report: &SimRunReport) -> AuditVerdict {
    let bytes = report
        .exported_history
        .as_ref()
        .expect("every run exports a session history");
    let session = SessionHistory::decode(bytes).expect("exported history decodes");
    let registry =
        KeySet::generate_with(SigScheme::Hmac, scenario.n(), &scenario.seed.to_be_bytes())
            .registry();
    audit(&session, &registry).expect("auditor runs").verdict
}

/// A store that never syncs and never snapshots: the server of the
/// scenarios that model a server without durable state.
fn unsynced() -> StoreConfig {
    StoreConfig {
        durability: Durability::Never,
        snapshot_every: 0,
    }
}

/// Honest runs — unsynced, and group-commit across a crash+recovery —
/// must be certified by the offline auditor.
#[test]
fn auditor_certifies_honest_runs() {
    // Unsynced, no faults.
    let mut scenario = kill_restart_scenario();
    scenario.server = unsynced();
    scenario.plan = FaultPlan { clauses: vec![] };
    let report = run_and_check(&scenario).expect("oracles pass");
    match offline_verdict(&scenario, &report) {
        AuditVerdict::Certified {
            fork_linearizable, ..
        } => assert!(fork_linearizable),
        other => panic!("honest unsynced run must certify, got {other:?}"),
    }

    // Persistent, honest kill+restart: the recovered WAL accounts for
    // the whole session, so the auditor certifies straight across the
    // crash.
    let scenario = kill_restart_scenario();
    let report = run_and_check(&scenario).expect("oracles pass");
    assert!(report.crash_time.is_some(), "the kill must fire");
    match offline_verdict(&scenario, &report) {
        AuditVerdict::Certified {
            fork_linearizable, ..
        } => assert!(fork_linearizable),
        other => panic!("honest crash recovery must certify, got {other:?}"),
    }
}

/// A crash that wipes committed state is a global fork. The exported
/// post-crash session cannot account for the pre-crash schedule, so the
/// auditor must localize a divergence even if no online client happened
/// to observe the fork.
#[test]
fn auditor_diverges_on_wiped_state() {
    let mut scenario = kill_restart_scenario();
    scenario.server = unsynced();
    scenario.plan = FaultPlan {
        clauses: vec![FaultClause::CrashRestart(CrashSpec {
            after_messages: 8,
            tamper: WalTamper::WipeState,
        })],
    };
    scenario.dummy_reads = true;
    let report = run_sim(&scenario);
    let crash_time = report.crash_time.expect("the crash must fire");
    let completed_before_crash = report.notifications.iter().any(|ns| {
        ns.iter()
            .any(|(t, n)| matches!(n, Notification::Completed(_)) && *t < crash_time)
    });
    assert!(completed_before_crash, "ops must complete before the crash");
    match offline_verdict(&scenario, &report) {
        AuditVerdict::Diverged { .. } => {}
        other => panic!("a wiped server must not be certified, got {other:?}"),
    }
}

/// The crash rule: a crash loses exactly what its tamper says. An
/// unsynced store crashed with `WalTamper::None` reopens its own log and
/// loses nothing — no fork fires, every op completes and the auditor
/// certifies the session across the crash. The same crash with
/// `WalTamper::WipeState` loses everything, and the auditor diverges.
#[test]
fn an_unsynced_crash_loses_only_what_its_tamper_says() {
    let mut scenario = kill_restart_scenario();
    scenario.server = unsynced();

    let report = run_and_check(&scenario).expect("oracles pass");
    assert!(report.crash_time.is_some(), "the crash must fire");
    assert!(report.fork_fired.is_empty(), "{:?}", report.fork_fired);
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.completed_ops(), scenario.user_ops());
    match offline_verdict(&scenario, &report) {
        AuditVerdict::Certified {
            fork_linearizable, ..
        } => assert!(fork_linearizable),
        other => panic!("an untampered crash must certify, got {other:?}"),
    }

    scenario.plan = FaultPlan {
        clauses: vec![FaultClause::CrashRestart(CrashSpec {
            after_messages: 8,
            tamper: WalTamper::WipeState,
        })],
    };
    let report = run_and_check(&scenario).expect("oracles pass");
    assert!(report.crash_time.is_some(), "the crash must fire");
    match offline_verdict(&scenario, &report) {
        AuditVerdict::Diverged { .. } => {}
        other => panic!("a wiped server must not be certified, got {other:?}"),
    }
}
