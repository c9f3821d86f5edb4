//! One run of one workload: warm the store, time set-up, time segments,
//! restart and verify, then turn per-segment measurements into metrics.

use crate::gen::{Generator, Op, OpKind};
use crate::procfs;
use crate::stats::{disturbed_share, median, percentile_u64, quantile, quiet_floor};
use crate::sut::{Harness, Kernels, Recorder, ServerCounters, SutConfig};
use crate::trace::{self, Name, Totals};
use crate::workloads::{Workload, WARMUP_OPS};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A server cold start is timed this often during the timed passes, and
/// this quantile of the samples is `setup_s`. Spread over the run,
/// because a cold start takes 1–15 ms and the box's slow spells last
/// seconds: cold starts timed back to back are all fast or all slow, and
/// no estimator over them can tell which.
const RESTART_EVERY_S: f64 = 0.7;
const SETUP_QUANTILE: f64 = 0.2;
/// `peak_rss_kb` is the high-water mark when this many operations have
/// been attempted: the clients' verification memo tables grow for the
/// first few thousand operations *per client*, so at n = 64 memory still
/// rises after 200 000 operations and a reading at exit would measure
/// how long the run was.
const RSS_AT_OPS: u64 = 32_768;
/// Fewest segments a pass measures, however short `--seconds` is.
const MIN_SEGMENTS: usize = 8;
/// Spans kept for `trace.json`.
const SPAN_CAP: usize = 40_000;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work_root: PathBuf,
}

/// What one segment measured.
struct Segment {
    wall_s: f64,
    write_p50_us: f64,
    read_p50_us: f64,
    p50_us: f64,
    p99_us: f64,
    max_us: f64,
    wire_bytes: u64,
    disk_bytes: u64,
    /// On-CPU time of the serve thread and of this one (traced,
    /// threaded segments only).
    server_cpu_ns: u64,
    client_cpu_ns: u64,
    /// Span sums of the driver thread and, when it differs, the serve
    /// thread; empty unless tracing.
    driver: Totals,
    server: Totals,
}

struct Pass {
    segments: Vec<Segment>,
    setups: Vec<f64>,
    wall_s: f64,
}

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    pub oversubscribed: bool,
    pub store_dir: PathBuf,
    pub store_fs: String,
    pub git_revision: String,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub segments: usize,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub per_layer: Vec<(&'static str, f64)>,
    pub trace_file: Option<PathBuf>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

struct Runner {
    sut: SutConfig,
    gen: Generator,
    h: Harness,
    rec: Recorder,
    all_ns: Vec<u64>,
    restarts: usize,
    /// Summed over the server incarnations of the timed passes.
    counters: ServerCounters,
    rss_kb: Option<u64>,
}

impl Runner {
    fn new(w: &Workload, sut: SutConfig, opts: &Options, store: &Path) -> Self {
        let gen = Generator::new(
            opts.seed,
            sut.n,
            w.ops_per_segment,
            w.write_pct,
            w.value_len,
        );
        let key_seed = format!("faustbench-{}", opts.seed);
        let h = Harness::new(
            sut,
            store,
            key_seed.as_bytes(),
            &gen.values,
            if opts.trace { SPAN_CAP } else { 0 },
        );
        Runner {
            sut,
            gen,
            h,
            rec: Recorder::default(),
            all_ns: Vec::new(),
            restarts: 0,
            counters: ServerCounters::default(),
            rss_kb: None,
        }
    }

    fn run_ops(&mut self, ops: usize) -> Result<(), String> {
        for k in 0..ops {
            let op = self.gen.op(k);
            self.h.run_op(op, &mut self.rec)?;
        }
        self.rec.clear();
        Ok(())
    }

    /// Prime every register and warm up.
    fn warm(&mut self) -> Result<(), String> {
        self.h.start()?;
        for c in 0..self.sut.n {
            let op = self.gen.write_by(c, 0);
            self.h.run_op(op, &mut self.rec)?;
        }
        self.run_ops(WARMUP_OPS)
    }

    /// One cold start, timed: stop the server, then recover the store,
    /// bind, connect, and have every session complete a write. Afterwards
    /// run on, untimed, until the log is half-way between two snapshots
    /// again, so that every cold start of every run recovers the same
    /// amount of state and the next segment finds warm caches.
    fn restart(&mut self) -> Result<f64, String> {
        let n = self.sut.n;
        let burst = self.sut.setup_burst();
        let stopped = self.h.stop()?;
        if self.restarts > 0 {
            self.counters.add(&stopped);
        }
        self.restarts += 1;
        let start = Instant::now();
        self.h.start()?;
        for round in 0..burst {
            for c in 0..n {
                let op = self.gen.write_by(c, self.restarts * burst + round);
                self.h.run_op(op, &mut self.rec)?;
            }
        }
        self.h.until_each_completed_one(&mut self.rec)?;
        let took = start.elapsed().as_secs_f64();
        self.h.quiesce()?;
        let every = self.sut.snapshot_every();
        let position = self.h.records_logged() % every;
        let deficit = (every / 2 + every - position) % every;
        self.run_ops((deficit / self.sut.records_per_op()) as usize)?;
        Ok(took)
    }

    /// Segments of identical work until `seconds` have passed.
    fn pass(&mut self, seconds: f64, traced: bool) -> Result<Pass, String> {
        let ops = self.gen.ops_per_segment();
        let threaded = self.sut.shipped_serve;
        self.h.set_tracing(traced);
        self.h.tracer.take_totals();
        self.h.server_tracer.take_totals();
        let own_task = if traced && threaded {
            procfs::thread_self_dir()
        } else {
            None
        };
        let cpu = |dir: Option<&Path>| dir.and_then(procfs::thread_cpu_ns).unwrap_or(0);
        let began = Instant::now();
        let mut segments = Vec::new();
        let mut setups = Vec::new();
        while segments.len() < MIN_SEGMENTS || began.elapsed().as_secs_f64() < seconds {
            if began.elapsed().as_secs_f64() >= setups.len() as f64 * RESTART_EVERY_S {
                setups.push(self.restart()?);
                // What the restart traced belongs to no segment.
                self.h.tracer.take_totals();
                self.h.server_tracer.take_totals();
            }
            let wire0 = self.h.wire_bytes();
            let server_task = own_task
                .as_ref()
                .and_then(|_| self.h.server_task_dir().map(Path::to_path_buf));
            let (server_cpu0, client_cpu0) =
                (cpu(server_task.as_deref()), cpu(own_task.as_deref()));
            let wchar0 = procfs::write_syscall_bytes().unwrap_or(0);
            let t = Instant::now();
            for k in 0..ops {
                let op = self.gen.op(k);
                self.h.run_op(op, &mut self.rec)?;
            }
            let wall_s = t.elapsed().as_secs_f64();
            let wchar = procfs::write_syscall_bytes().unwrap_or(0) - wchar0;
            let driver = self.h.tracer.take_totals();
            let server = if threaded {
                self.h.server_tracer.take_totals()
            } else {
                Totals::default()
            };
            self.all_ns.clear();
            self.all_ns.extend_from_slice(&self.rec.write_ns);
            self.all_ns.extend_from_slice(&self.rec.read_ns);
            segments.push(Segment {
                wall_s,
                write_p50_us: us(percentile_u64(&mut self.rec.write_ns, 0.5)),
                read_p50_us: us(percentile_u64(&mut self.rec.read_ns, 0.5)),
                p50_us: us(percentile_u64(&mut self.all_ns, 0.5)),
                p99_us: us(percentile_u64(&mut self.all_ns, 0.99)),
                max_us: us(self.all_ns.last().copied().unwrap_or(0)),
                wire_bytes: self.h.wire_bytes() - wire0,
                disk_bytes: wchar,
                server_cpu_ns: cpu(server_task.as_deref()) - server_cpu0,
                client_cpu_ns: cpu(own_task.as_deref()) - client_cpu0,
                driver,
                server,
            });
            self.rec.clear();
            if self.rss_kb.is_none() && self.h.oracle.attempted >= RSS_AT_OPS {
                self.rss_kb = procfs::peak_rss_kb();
            }
        }
        let pass = Pass {
            segments,
            setups,
            wall_s: began.elapsed().as_secs_f64(),
        };
        self.h.set_tracing(false);
        Ok(pass)
    }

    /// Restart on what the store holds and read every register once:
    /// each must return its last acknowledged write.
    fn verify(&mut self) -> Result<(), String> {
        let n = self.sut.n;
        self.h.start()?;
        for c in 0..n {
            let op = Op {
                client: c,
                kind: OpKind::Read {
                    target: (c + 1) % n,
                },
            };
            self.h.run_op(op, &mut self.rec)?;
        }
        self.rec.clear();
        self.h.stop()?;
        let left = self.h.oracle.outstanding();
        if left > 0 {
            self.h
                .oracle
                .fail(format!("{left} operations never completed"));
        }
        Ok(())
    }

    /// Ends the timed passes: stops the server, verifies the store, and
    /// returns the counters of all timed incarnations.
    fn finish(&mut self) -> Result<ServerCounters, String> {
        let last = self.h.stop()?;
        self.counters.add(&last);
        self.verify()?;
        Ok(self.counters.clone())
    }
}

/// Quiet floor over segments of `f(segment)`.
fn quiet(segments: &[Segment], f: impl Fn(&Segment) -> f64) -> f64 {
    quiet_floor(&segments.iter().map(f).collect::<Vec<_>>())
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

pub fn run(w: &'static Workload, opts: &Options) -> Result<Report, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    // Only the serve-thread pass of a traced run has a second thread.
    let threads = if opts.trace && w.sut.pipelined() {
        2
    } else {
        1
    };
    if threads > nproc {
        eprintln!(
            "faustbench: {} runs {threads} threads, the box has {nproc} cores: \
             its timings will include scheduling",
            w.name
        );
    }
    // Unique per run, so that concurrent runs (tests) never share one.
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let store_dir = opts.work_root.join(format!(
        "faustbench-store-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    if store_dir.exists() {
        std::fs::remove_dir_all(&store_dir).map_err(|e| format!("stale store dir: {e}"))?;
    }
    std::fs::create_dir_all(&store_dir).map_err(|e| format!("create {store_dir:?}: {e}"))?;
    let mut report = Report {
        workload: w.name,
        seed: opts.seed,
        seconds: opts.seconds,
        nproc,
        oversubscribed: threads > nproc,
        store_fs: procfs::fs_type(&store_dir),
        store_dir,
        git_revision: procfs::git_revision(),
        attempted: 0,
        failed: 0,
        first_failure: None,
        segments: 0,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        trace_file: None,
    };
    eprintln!(
        "faustbench: {} seed {} for {} s; store in {} ({}); {nproc} cores",
        w.name,
        opts.seed,
        opts.seconds,
        report.store_dir.display(),
        report.store_fs
    );

    let outcome = measure(w, opts, &report.store_dir.clone(), &mut report);
    // The store goes whether or not the run succeeded.
    let cleanup =
        std::fs::remove_dir_all(&report.store_dir).map_err(|e| format!("remove store dir: {e}"));
    outcome?;
    cleanup?;
    Ok(report)
}

/// What the pass on a `serve` thread reports. Not gated: see `sut.rs`.
#[derive(Default)]
struct ServeThread {
    ops_per_s: f64,
    op_p50_us: f64,
    /// Time the serve thread spent in blocking receives.
    wait_us_per_op: f64,
    server_cpu_us_per_op: f64,
    client_cpu_us_per_op: f64,
    /// Group commit: log records per reply release, and the share of
    /// replies released by the deadline rather than by a full batch.
    records_per_flush: f64,
    deadline_flush_share: f64,
    spans: Vec<(&'static str, Vec<trace::Span>)>,
}

/// The same workload once more with the server on a thread of its own
/// running the shipped `serve` loop, traced, on a store of its own. Its
/// operations are checked like any others and count in `oracle`.
fn serve_thread_pass(
    w: &Workload,
    opts: &Options,
    seconds: f64,
    store_dir: &Path,
    oracle: &mut crate::oracle::Oracle,
) -> Result<ServeThread, String> {
    let sut = SutConfig {
        shipped_serve: true,
        ..w.sut
    };
    let mut r = Runner::new(w, sut, opts, &store_dir.join("store-serve-thread"));
    r.warm()?;
    let pass = r.pass(seconds, true)?;
    let counters = r.finish()?;
    oracle.absorb(&r.h.oracle);
    let ops = w.ops_per_segment as f64;
    let segs = &pass.segments;
    let all_ops = segs.len() as f64 * ops;
    Ok(ServeThread {
        ops_per_s: ops / quiet(segs, |s| s.wall_s),
        op_p50_us: quiet(segs, |s| s.p50_us),
        wait_us_per_op: quiet(segs, |s| s.server.total_us(Name::NetWait)) / ops,
        server_cpu_us_per_op: us(segs.iter().map(|s| s.server_cpu_ns).sum()) / all_ops,
        client_cpu_us_per_op: us(segs.iter().map(|s| s.client_cpu_ns).sum()) / all_ops,
        records_per_flush: ratio(counters.logged, counters.releases),
        deadline_flush_share: 100.0
            * ratio(
                counters.flush_replies,
                counters.flush_replies + counters.inline_replies,
            ),
        spans: vec![
            ("serve-pass driver", r.h.tracer.spans()),
            ("serve-pass serve", r.h.server_tracer.spans()),
        ],
    })
}

/// Runs the workload and fills in what `report` says about its outcome.
fn measure(
    w: &'static Workload,
    opts: &Options,
    store_dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let mut r = Runner::new(w, w.sut, opts, &store_dir.join("store"));
    // A traced run of a pipelined workload ends with a pass on a serve
    // thread, and gives it a third of the time.
    let passes = if opts.trace && w.sut.pipelined() {
        3.0
    } else if opts.trace {
        2.0
    } else {
        1.0
    };
    let seconds = opts.seconds / passes;

    r.warm()?;
    let plain = r.pass(seconds, false)?;
    let traced = if opts.trace {
        Some(r.pass(seconds, true)?)
    } else {
        None
    };
    let counters = r.finish()?;
    // Before the kernels and the serve-thread pass of a traced run add
    // their own memory (only a run too short to reach the mark reads it
    // here).
    let rss_kb = r.rss_kb.or_else(procfs::peak_rss_kb).unwrap_or(0);

    let mut setups = plain.setups.clone();
    let setup_s = quantile(&mut setups, SETUP_QUANTILE);
    let ops = w.ops_per_segment as f64;
    let segs = &plain.segments;
    let ops_per_s = ops / quiet(segs, |s| s.wall_s);
    let end_to_end = vec![
        ("setup_s", setup_s),
        ("ops_per_s", ops_per_s),
        ("write_p50_us", quiet(segs, |s| s.write_p50_us)),
        ("read_p50_us", quiet(segs, |s| s.read_p50_us)),
        (
            "wire_bytes_per_op",
            median(&mut segs.iter().map(|s| s.wire_bytes as f64).collect::<Vec<_>>()) / ops,
        ),
        (
            "disk_bytes_per_op",
            median(&mut segs.iter().map(|s| s.disk_bytes as f64).collect::<Vec<_>>()) / ops,
        ),
        ("peak_rss_kb", rss_kb as f64),
    ];

    let mut per_layer = Vec::new();
    let mut trace_file = None;
    if let Some(traced) = &traced {
        let capture = r.h.take_capture();
        let kernels = Kernels::measure(&capture, &store_dir.join("kernels"), w.value_len)?;
        let tsegs = &traced.segments;
        let self_us = |name: Name| quiet(tsegs, |s| s.driver.self_us(name)) / ops;
        let layers = [
            ("net.ingest_us_per_op", self_us(Name::NetIngest)),
            ("net.egress_us_per_op", self_us(Name::NetEgress)),
            (
                "net.client_io_us_per_op",
                self_us(Name::ClientWrite) + self_us(Name::ClientRead),
            ),
            (
                "ustor.engine_self_us_per_op",
                self_us(Name::EngineProcess) + self_us(Name::EngineOutput),
            ),
            ("store.server_us_per_op", self_us(Name::StoreServer)),
            ("types.codec_us_per_op", self_us(Name::Codec)),
            ("core.submit_us_per_op", self_us(Name::CoreSubmit)),
            (
                "core.handle_reply_us_per_op",
                self_us(Name::CoreHandleReply),
            ),
            ("core.events_us_per_op", self_us(Name::CoreEvents)),
        ];
        let layer_sum: f64 = layers.iter().map(|(_, v)| v).sum();
        let traced_ops_per_s = ops / quiet(tsegs, |s| s.wall_s);
        let serve = if w.sut.pipelined() {
            serve_thread_pass(w, opts, seconds, store_dir, &mut r.h.oracle)?
        } else {
            ServeThread::default()
        };
        let mut lag = r.h.oracle.lag_samples.clone();
        let mut reply_bytes = std::mem::take(&mut r.h.shapes.bytes);
        let mut pending = std::mem::take(&mut r.h.shapes.pending);
        per_layer.extend(layers);
        per_layer.extend([
            ("net.polls_per_op", ratio(counters.polls, counters.submits)),
            (
                "net.socket_writes_per_frame",
                ratio(counters.socket_writes, counters.frames_out),
            ),
            ("ustor.apply_us_per_op", kernels.apply_us_per_op),
            (
                "ustor.msgs_per_batch",
                ratio(counters.submits + counters.commits, counters.batches),
            ),
            (
                "ustor.reply_bytes_p50",
                percentile_u64(&mut reply_bytes, 0.5) as f64,
            ),
            (
                "ustor.pending_len_p50",
                percentile_u64(&mut pending, 0.5) as f64,
            ),
            (
                "store.wal_append_us_per_record",
                kernels.wal_append_us_per_record,
            ),
            ("store.recover_us_per_record", kernels.recover_us_per_record),
            ("store.fsync_device_us", kernels.fsync_device_us),
            ("crypto.sha256_mb_per_s", kernels.sha256_mb_per_s),
            ("crypto.sign_us", kernels.sign_us),
            ("crypto.verify_us", kernels.verify_us),
            ("types.encode_submit_us", kernels.encode_submit_us),
            ("types.decode_submit_us", kernels.decode_submit_us),
            ("types.encode_reply_us", kernels.encode_reply_us),
            ("types.decode_reply_us", kernels.decode_reply_us),
            (
                "core.stable_lag_ops_p50",
                percentile_u64(&mut lag, 0.5) as f64,
            ),
            ("serve.ops_per_s", serve.ops_per_s),
            ("serve.op_p50_us", serve.op_p50_us),
            ("serve.wait_us_per_op", serve.wait_us_per_op),
            ("serve.server_cpu_us_per_op", serve.server_cpu_us_per_op),
            ("serve.client_cpu_us_per_op", serve.client_cpu_us_per_op),
            ("serve.records_per_flush", serve.records_per_flush),
            ("serve.deadline_flush_share", serve.deadline_flush_share),
            ("tail.op_p99_us", quiet(segs, |s| s.p99_us)),
            (
                "tail.op_max_us",
                segs.iter().map(|s| s.max_us).fold(0.0, f64::max),
            ),
            ("run.ops_per_s_mean", segs.len() as f64 * ops / plain.wall_s),
            (
                "run.disturbed_segment_share",
                100.0 * disturbed_share(&segs.iter().map(|s| s.wall_s).collect::<Vec<_>>()),
            ),
            ("run.segments", segs.len() as f64),
            (
                "trace.overhead_pct",
                100.0 * (1.0 - traced_ops_per_s / ops_per_s),
            ),
            ("trace.layer_sum_us_per_op", layer_sum),
            ("bench.self_us_per_op", self_us(Name::Op)),
        ]);
        let path = opts
            .work_root
            .join(format!("faustbench-trace-{}.json", w.name));
        let mut threads = vec![("driver", r.h.tracer.spans())];
        threads.extend(serve.spans);
        trace::write_json(&path, &threads).map_err(|e| format!("write {path:?}: {e}"))?;
        trace_file = Some(path);
    }

    report.attempted = r.h.oracle.attempted;
    report.failed = r.h.oracle.failed;
    report.first_failure = r.h.oracle.first_failure.clone();
    report.segments = plain.segments.len();
    report.end_to_end = end_to_end;
    report.per_layer = per_layer;
    report.trace_file = trace_file;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::Link;

    static TINY_IN_PROCESS: Workload = Workload {
        name: "tiny-in-process",
        why: "test",
        value_len: 48,
        write_pct: 75,
        ops_per_segment: 512,
        sut: SutConfig {
            n: 3,
            link: Link::InProcess,
            depth: 1,
            shipped_serve: false,
        },
    };

    static TINY_SOCKETS: Workload = Workload {
        name: "tiny-sockets",
        why: "test",
        value_len: 300,
        write_pct: 50,
        ops_per_segment: 512,
        sut: SutConfig {
            n: 2,
            link: Link::Sockets,
            depth: 1,
            shipped_serve: false,
        },
    };

    static TINY_PIPELINED: Workload = Workload {
        name: "tiny-pipelined",
        why: "test",
        value_len: 64,
        write_pct: 75,
        ops_per_segment: 1024,
        sut: SutConfig {
            n: 2,
            link: Link::Sockets,
            depth: 16,
            shipped_serve: false,
        },
    };

    fn options(seed: u64) -> Options {
        Options {
            seed,
            seconds: 0.05,
            trace: true,
            work_root: std::env::current_exe()
                .expect("test binary path")
                .parent()
                .expect("in a directory")
                .to_path_buf(),
        }
    }

    /// `disk_bytes_per_op` is read off a process-wide counter, so runs in
    /// one test process must not overlap.
    static ONE_RUN_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        ONE_RUN_AT_A_TIME
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn metric(list: &[(&'static str, f64)], name: &str) -> f64 {
        list.iter()
            .find(|(n, _)| *n == name)
            .expect("metric reported")
            .1
    }

    #[test]
    fn two_lockstep_runs_report_identical_bytes_and_stability_lag() {
        let _serial = serial();
        for w in [&TINY_IN_PROCESS, &TINY_SOCKETS] {
            let a = run(w, &options(5)).expect("first run");
            let b = run(w, &options(5)).expect("second run");
            for r in [&a, &b] {
                assert!(r.correct(), "{}: {:?}", w.name, r.first_failure);
                assert!(r.attempted > 4096);
                assert!(!r.store_dir.exists(), "the store directory is removed");
            }
            for name in ["wire_bytes_per_op", "disk_bytes_per_op"] {
                let (x, y) = (metric(&a.end_to_end, name), metric(&b.end_to_end, name));
                assert!(x > 0.0 && x == y, "{}: {name} {x} vs {y}", w.name);
            }
            let lag = |r: &Report| metric(&r.per_layer, "core.stable_lag_ops_p50");
            assert!(
                lag(&a) > 0.0 && lag(&a) == lag(&b),
                "{}: {} vs {}",
                w.name,
                lag(&a),
                lag(&b)
            );
        }
    }

    #[test]
    fn byte_counts_do_not_depend_on_the_seed() {
        let _serial = serial();
        let a = run(&TINY_SOCKETS, &options(1)).expect("seed 1");
        let b = run(&TINY_SOCKETS, &options(2)).expect("seed 2");
        for name in ["wire_bytes_per_op", "disk_bytes_per_op"] {
            assert_eq!(
                metric(&a.end_to_end, name),
                metric(&b.end_to_end, name),
                "{name}"
            );
        }
    }

    #[test]
    fn a_pipelined_run_is_correct_and_reports_every_metric() {
        let _serial = serial();
        let r = run(&TINY_PIPELINED, &options(3)).expect("run");
        assert!(r.correct(), "{:?}", r.first_failure);
        assert!(metric(&r.per_layer, "ustor.pending_len_p50") > 16.0);
        assert!(metric(&r.per_layer, "serve.ops_per_s") > 0.0);
        let mut reported: Vec<&str> = r.per_layer.iter().map(|(n, _)| *n).collect();
        let mut listed: Vec<&str> = crate::workloads::PER_LAYER.iter().map(|m| m.name).collect();
        reported.sort_unstable();
        listed.sort_unstable();
        assert_eq!(
            reported, listed,
            "a traced run reports every per-layer metric"
        );
        let e2e: Vec<&str> = r.end_to_end.iter().map(|(n, _)| *n).collect();
        let listed: Vec<&str> = crate::workloads::END_TO_END
            .iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(e2e, listed);
        assert!(metric(&r.per_layer, "serve.server_cpu_us_per_op") > 0.0);
    }
}
