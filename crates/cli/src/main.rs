//! The `faust` command: run a fail-aware untrusted storage deployment
//! across real processes and hosts.
//!
//! * `faust serve` — bind a TCP endpoint, build the server engine over a
//!   persistent (or in-memory) backend, and serve until every expected
//!   client has come and gone.
//! * `faust connect` — a live [`FaustHandle`] session: submit writes and
//!   reads (pipelined), print the typed event stream, exit non-zero on a
//!   detected violation.
//! * `faust bench` — pipelined handle throughput against a served
//!   endpoint (or a self-hosted loopback server).
//!
//! This closes the ROADMAP "wide-area experiments" item: the transport
//! only needs an address, so the same binary drives cross-host runs.
//! The offline client-to-client medium of the paper has no cross-host
//! transport here (see `docs/client-api.md`); stability spreads through
//! reads, exactly as the handle's dummy-read machinery provides.

use faust_core::handle::{Event, FaustHandle, HandleConfig};
use faust_core::FaustConfig;
use faust_crypto::sig::SigScheme;
#[cfg(unix)]
use faust_net::{ReactorConfig, ReactorStats, ReactorTransport, MAX_CLIENTS};
use faust_store::Durability;
#[cfg(unix)]
use faust_store::{PersistentBackend, StoreConfig};
use faust_types::{ClientId, Value};
#[cfg(unix)]
use faust_ustor::{serve, MemoryBackend, ServerBackend, ServerEngine};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("connect") => cmd_connect(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("audit") => cmd_audit(&args[1..]),
        Some("export-history") => cmd_export_history(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            0
        }
        Some(other) => {
            eprintln!("faust: unknown command `{other}`\n");
            eprint!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

const USAGE: &str = "\
faust — fail-aware untrusted storage (FAUST) over TCP

USAGE:
  faust serve   [--addr A] [--clients N] [--dir PATH] [--durability D] [--snapshot-every K]
                [--max-conns C]
  faust connect --addr A [--id I] [--clients N] [--key-seed S] [--scheme hmac|ed25519]
                [--pipeline D] [--write VALUE]... [--read J]... [--linger-ms MS] [--dummy-reads]
                [--session FILE]
  faust bench   [--addr A] [--clients N] [--ops K] [--pipeline D] [--value-len B]
                [--durability D] [--key-seed S]
  faust audit   PATH [--key-seed S] [--scheme hmac|ed25519] [--json]
  faust export-history DIR OUT [--scheme hmac|ed25519]

Durability D: always (fsync per record), group (batched fsync, the default), never.
The server (`serve`, and `bench` without --addr) runs all connections on ONE
readiness-driven event loop with admission control (bounded per-client ingress queues,
connection/memory caps with shed-on-accept, slow-consumer excision — see
docs/networking.md); unix only. --max-conns caps simultaneously open connections
(default 1024).
`connect` ops run in command-line order and pipeline up to the configured depth.
All clients of one deployment must share --clients, --key-seed, --scheme, and --pipeline.

`audit` replays a FAUSTHIS session history offline with nothing but the clients'
verification keys (regenerated from --key-seed, the same seed the session's clients
used) and either CERTIFIES the session as fork-linearizable or pinpoints the first
divergent version with typed evidence. PATH is a .fausthis file or a server store
directory (--dir of a stopped `faust serve`), which is exported on the fly. Exit
codes: 0 certified, 2 diverged, 1 unreadable/error. `export-history` writes a
store directory's session history to OUT as a FAUSTHIS file. See docs/audit.md.

FAUST clients are stateful: an id that already performed operations against a
(persistent) store cannot be reused by an amnesiac later `connect` — the fresh session
flags the honest server's memory of its own past as a violation. --session FILE makes
the session itself durable: state is loaded from FILE when it exists (resuming the
session, replaying any unacknowledged SUBMITs, and probing the server so a rolled-back
file is flagged as a StaleClientState violation) and saved back on clean exit. Without
--session, reuse an id only within one run, or wipe --dir.

EXAMPLE (two shells):
  faust serve --addr 127.0.0.1:4600 --clients 2 --dir /tmp/faust --durability group
  faust connect --addr 127.0.0.1:4600 --id 0 --clients 2 --write hello
  faust connect --addr 127.0.0.1:4600 --id 1 --clients 2 --read 0
";

fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid value `{value}` for {flag}"))
}

fn cmd_serve(args: &[String]) -> i32 {
    match serve_impl(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("faust serve: {e}");
            2
        }
    }
}

fn parse_durability(s: &str) -> Result<Durability, String> {
    match s {
        "always" => Ok(Durability::Always),
        "never" => Ok(Durability::Never),
        "group" => Ok(Durability::group()),
        other => Err(format!(
            "invalid durability `{other}` (expected always, group, or never)"
        )),
    }
}

#[cfg(not(unix))]
fn serve_impl(_args: &[String]) -> Result<(), String> {
    Err("serving needs a unix target (the reactor is the one socket server)".into())
}

#[cfg(unix)]
fn serve_impl(args: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:0".to_string();
    let mut clients = 2usize;
    let mut dir: Option<String> = None;
    let mut durability = Durability::group();
    let mut snapshot_every = 1024u64;
    let mut max_conns: Option<usize> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--addr" => addr = val()?.to_string(),
            "--clients" => clients = parse_value(flag, val()?)?,
            "--dir" => dir = Some(val()?.to_string()),
            "--durability" => durability = parse_durability(val()?)?,
            "--snapshot-every" => snapshot_every = parse_value(flag, val()?)?,
            "--max-conns" => max_conns = Some(parse_value(flag, val()?)?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }

    let mut transport = bind_server(&addr, clients, max_conns)?;
    let backend: Box<dyn ServerBackend + Send> = match &dir {
        Some(dir) => Box::new(PersistentBackend::new(
            dir,
            StoreConfig {
                durability,
                snapshot_every,
            },
        )),
        None => Box::new(MemoryBackend),
    };
    let mut engine = ServerEngine::from_backend(clients, backend.as_ref())
        .map_err(|e| format!("build server state: {e}"))?;
    let sha256 = faust_crypto::sha256::backend();
    println!("faust-serve: sha256 backend {sha256}");
    println!(
        "faust-serve: listening on {} ({} clients, durability={:?}, state={})",
        transport.local_addr(),
        clients,
        durability,
        dir.as_deref().unwrap_or("in-memory"),
    );
    // The smoke scripts parse the line above; make sure it is out.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    serve(&mut engine, &mut transport);
    let stats = engine.stats();
    println!(
        "faust-serve: all {} clients served and departed; shutting down \
         ({} submits, {} commits, {} rejected, {} frames out in {} writes)",
        clients, stats.submits, stats.commits, stats.rejected, stats.frames_out, stats.flushes,
    );
    print_reactor_stats("faust-serve", transport.stats());
    Ok(())
}

/// Binds the reactor, the one socket server. `--clients` and
/// `--max-conns` are outside input, so they are checked here rather than
/// left to the transport's contract assertions.
#[cfg(unix)]
fn bind_server(
    addr: &str,
    clients: usize,
    max_conns: Option<usize>,
) -> Result<ReactorTransport, String> {
    if clients == 0 || clients > MAX_CLIENTS {
        return Err(format!(
            "--clients must be between 1 and {MAX_CLIENTS}, got {clients}"
        ));
    }
    let mut cfg = ReactorConfig::default();
    if let Some(cap) = max_conns {
        if cap == 0 {
            return Err("--max-conns must be at least 1".into());
        }
        cfg.max_conns = cap;
    }
    ReactorTransport::bind_with(addr, clients, cfg).map_err(|e| format!("bind {addr}: {e}"))
}

#[cfg(unix)]
fn print_reactor_stats(prefix: &str, s: &ReactorStats) {
    println!(
        "{prefix}: reactor: {} accepted, {} shed, {} msgs in ({} B), {} frames out \
         ({} B in {} writes), peak {} conns, peak buffered {} B, {} read pauses, \
         {} global pauses, {} polls",
        s.accepted,
        s.shed(),
        s.msgs_in,
        s.bytes_in,
        s.frames_out,
        s.bytes_out,
        s.socket_writes,
        s.peak_conns,
        s.peak_buffered_bytes,
        s.read_pauses,
        s.global_pauses,
        s.polls,
    );
}

/// One scripted `connect` step.
enum CliOp {
    Write(Value),
    Read(ClientId),
}

fn cmd_connect(args: &[String]) -> i32 {
    match connect_impl(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("faust connect: {e}");
            2
        }
    }
}

fn parse_scheme(s: &str) -> Result<SigScheme, String> {
    match s {
        "hmac" => Ok(SigScheme::Hmac),
        "ed25519" => Ok(SigScheme::Ed25519),
        other => Err(format!(
            "invalid scheme `{other}` (expected hmac or ed25519)"
        )),
    }
}

/// Returns the process exit code: 0 = every operation completed, 1 =
/// an operation never completed (timeout / lost transport), 2 = a
/// protocol violation was detected.
fn connect_impl(args: &[String]) -> Result<i32, String> {
    let mut addr: Option<SocketAddr> = None;
    let mut id = ClientId::new(0);
    let mut clients = 2usize;
    let mut key_seed = "faust-cli".to_string();
    let mut scheme = SigScheme::Hmac;
    let mut pipeline = 4usize;
    let mut linger_ms = 0u64;
    let mut dummy_reads = false;
    let mut session: Option<std::path::PathBuf> = None;
    let mut ops: Vec<CliOp> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--addr" => addr = Some(parse_value(flag, val()?)?),
            "--id" => id = parse_value(flag, val()?)?,
            "--clients" => clients = parse_value(flag, val()?)?,
            "--key-seed" => key_seed = val()?.to_string(),
            "--scheme" => scheme = parse_scheme(val()?)?,
            "--pipeline" => pipeline = parse_value(flag, val()?)?,
            "--linger-ms" => linger_ms = parse_value(flag, val()?)?,
            "--dummy-reads" => dummy_reads = true,
            "--session" => session = Some(std::path::PathBuf::from(val()?)),
            "--write" => ops.push(CliOp::Write(Value::from(val()?))),
            "--read" => ops.push(CliOp::Read(parse_value(flag, val()?)?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let addr = addr.ok_or("--addr is required")?;
    if id.index() >= clients {
        return Err(format!(
            "--id {} out of range for --clients {clients}",
            id.index()
        ));
    }

    let config = HandleConfig {
        faust: FaustConfig {
            // No offline medium across hosts: probing is pointless, so
            // effectively disable it. Stability spreads through reads.
            probe_period: u64::MAX / 2,
            dummy_reads,
            pipeline: pipeline.max(1),
            ..FaustConfig::default()
        },
        tick_interval: Duration::from_millis(5),
        scheme,
    };
    let saved = match &session {
        Some(path) => faust_core::load_session(path)
            .map_err(|e| format!("load session {}: {e}", path.display()))?,
        None => None,
    };
    let mut handle = match saved {
        Some(state) => {
            if state.proto.ustor.id != id || state.proto.ustor.n as usize != clients {
                return Err(format!(
                    "session file is for client {} of {}, but --id {} --clients {clients} given",
                    state.proto.ustor.id.index(),
                    state.proto.ustor.n,
                    id.index(),
                ));
            }
            let unacked = state
                .resend_window
                .iter()
                .filter(|m| matches!(m, faust_types::UstorMsg::Submit(_)))
                .count();
            let conn =
                faust_net::tcp::connect(addr, id).map_err(|e| format!("connect {addr}: {e}"))?;
            let handle = FaustHandle::resume_from_state(state, key_seed.as_bytes(), &config, conn);
            println!(
                "faust-connect: {id} resumed session from {} ({unacked} unacked SUBMITs resent)",
                session.as_ref().expect("saved implies --session").display(),
            );
            handle
        }
        None => {
            let handle = FaustHandle::connect_tcp(addr, id, clients, key_seed.as_bytes(), &config)
                .map_err(|e| format!("connect {addr}: {e}"))?;
            println!(
                "faust-connect: {id} connected to {addr} (pipeline {})",
                pipeline.max(1)
            );
            handle
        }
    };

    let tickets: Vec<_> = ops
        .into_iter()
        .map(|op| match op {
            CliOp::Write(value) => handle.write(value),
            CliOp::Read(register) => handle.read(register),
        })
        .collect();

    let mut violated = false;
    let mut incomplete = false;
    let print_events = |events: Vec<(u64, Event)>, violated: &mut bool| {
        for (t, event) in events {
            match event {
                Event::Completed { ticket, completion } => {
                    let what = match &completion.read_value {
                        Some(Some(v)) => format!("read X{} -> {v}", completion.target.index()),
                        Some(None) => format!("read X{} -> ⊥", completion.target.index()),
                        None => format!("wrote X{}", completion.target.index()),
                    };
                    println!(
                        "t={t:>6}  {ticket} completed (timestamp {}): {what}",
                        completion.timestamp
                    );
                }
                Event::Stable { cut } => println!("t={t:>6}  stable{cut}"),
                Event::Violation { reason } => {
                    println!("t={t:>6}  VIOLATION: {reason}");
                    *violated = true;
                }
                Event::Disconnected { reason } => println!("t={t:>6}  disconnected ({reason})"),
                Event::Reconnecting { attempt, backoff } => {
                    println!("t={t:>6}  reconnecting (attempt {attempt}, backoff {backoff:?})");
                }
                Event::Resumed => println!("t={t:>6}  resumed"),
            }
        }
    };

    for &ticket in &tickets {
        match handle.wait(ticket, Duration::from_secs(30)) {
            Ok(_) => {}
            Err(e) => {
                // The event stream below carries the diagnosis. A lost
                // or timed-out operation is a failure exit too — a
                // script must never mistake an unacknowledged write for
                // success.
                eprintln!("faust-connect: {ticket}: {e}");
                incomplete = true;
                violated |= matches!(e, faust_core::WaitError::Violation(_));
                break;
            }
        }
        print_events(handle.poll(), &mut violated);
    }
    if linger_ms > 0 {
        let events = handle.run_for(Duration::from_millis(linger_ms));
        print_events(events, &mut violated);
    }
    print_events(handle.poll(), &mut violated);
    handle.disconnect();
    println!(
        "faust-connect: {id} done (final cut {})",
        handle.stability_cut()
    );
    if let Some(path) = &session {
        let (core, clock) = handle.into_core();
        match faust_core::checkpoint_session(path, &core, clock) {
            Ok(true) => println!("faust-connect: session saved to {}", path.display()),
            Ok(false) => {
                // Halted on a violation: a failed session must not be
                // resumed, and a pre-failure file left behind would
                // itself be stale — remove it.
                let _ = std::fs::remove_file(path);
                println!("faust-connect: session halted; {} removed", path.display());
            }
            Err(e) => {
                eprintln!("faust-connect: save session {}: {e}", path.display());
                incomplete = true;
            }
        }
    }
    Ok(if violated {
        2
    } else if incomplete {
        1
    } else {
        0
    })
}

fn cmd_bench(args: &[String]) -> i32 {
    match bench_impl(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("faust bench: {e}");
            2
        }
    }
}

fn bench_impl(args: &[String]) -> Result<(), String> {
    let mut addr: Option<SocketAddr> = None;
    let mut clients = 2usize;
    let mut ops = 64u64;
    let mut pipeline = 8usize;
    let mut value_len = 64usize;
    let mut durability = Durability::group();
    let mut key_seed = "faust-cli".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--addr" => addr = Some(parse_value(flag, val()?)?),
            "--clients" => clients = parse_value(flag, val()?)?,
            "--ops" => ops = parse_value(flag, val()?)?,
            "--pipeline" => pipeline = parse_value(flag, val()?)?,
            "--value-len" => value_len = parse_value(flag, val()?)?,
            "--durability" => durability = parse_durability(val()?)?,
            "--key-seed" => key_seed = val()?.to_string(),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if clients == 0 || ops == 0 {
        return Err("--clients and --ops must be at least 1".into());
    }
    // Match the group-commit batch to the bench's sliding window. With
    // the stock max_records (64) a small `clients x pipeline` window can
    // never fill a batch, so EVERY round of replies waits out the full
    // max_wait — the bench then measures the fsync timer, not the
    // server (see docs/client-api.md, "Group commit and pipelined
    // benchmarks").
    if let Durability::Group {
        max_records,
        max_wait,
    } = durability
    {
        let window = (clients * pipeline.max(1)) as u64;
        if window < max_records {
            durability = Durability::Group {
                max_records: window,
                max_wait,
            };
        }
    }

    // Self-host a loopback server unless an external one was named.
    let (addr, self_hosted) = match addr {
        Some(addr) => (addr, None),
        None => {
            let (addr, finish) = self_host(clients, durability)?;
            (addr, Some(finish))
        }
    };

    let sha256 = faust_crypto::sha256::backend();
    println!("faust-bench: sha256 backend {sha256}");
    println!(
        "faust-bench: {clients} clients x {ops} pipelined writes \
         ({value_len} B, depth {pipeline}) -> {addr}"
    );
    let config = HandleConfig {
        faust: FaustConfig {
            probe_period: u64::MAX / 2,
            dummy_reads: false,
            commit_mode: faust_ustor::CommitMode::Piggyback,
            pipeline: pipeline.max(1),
        },
        tick_interval: Duration::from_millis(2),
        scheme: SigScheme::Hmac,
    };
    let start = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|i| {
            let id = ClientId::new(i as u32);
            let seed = key_seed.clone();
            std::thread::spawn(move || -> Result<(), String> {
                let mut handle =
                    FaustHandle::connect_tcp(addr, id, clients, seed.as_bytes(), &config)
                        .map_err(|e| format!("{id}: connect: {e}"))?;
                let mut last = None;
                for k in 0..ops {
                    let mut bytes = vec![0xB6u8; value_len.max(8)];
                    bytes[..8].copy_from_slice(&k.to_be_bytes());
                    last = Some(handle.write(Value::new(bytes)));
                }
                handle
                    .wait(last.expect("ops >= 1"), Duration::from_secs(120))
                    .map_err(|e| format!("{id}: {e}"))?;
                handle.disconnect();
                Ok(())
            })
        })
        .collect();
    for worker in workers {
        worker.join().map_err(|_| "client thread panicked")??;
    }
    let elapsed = start.elapsed();
    let total = clients as f64 * ops as f64;
    println!(
        "faust-bench: {total:.0} ops in {:.3}s -> {:.0} ops/s ({:.1} us/op)",
        elapsed.as_secs_f64(),
        total / elapsed.as_secs_f64(),
        elapsed.as_micros() as f64 / total,
    );
    if let Some(finish) = self_hosted {
        finish()?;
    }
    Ok(())
}

/// Self-hosts `faust bench`'s loopback server on a thread over a scratch
/// store. The returned closure waits for the server to see every client
/// depart, removes the store, and prints the reactor's counters.
#[cfg(unix)]
fn self_host(
    clients: usize,
    durability: Durability,
) -> Result<(SocketAddr, impl FnOnce() -> Result<(), String>), String> {
    let dir = std::env::temp_dir().join(format!("faust-cli-bench-{}", std::process::id()));
    let mut transport = bind_server("127.0.0.1:0", clients, None)?;
    let addr = transport.local_addr();
    let backend = PersistentBackend::new(
        &dir,
        StoreConfig {
            durability,
            snapshot_every: 0,
        },
    );
    let mut engine = ServerEngine::from_backend(clients, &backend)
        .map_err(|e| format!("build server state: {e}"))?;
    let server = std::thread::spawn(move || {
        serve(&mut engine, &mut transport);
        transport.stats().clone()
    });
    Ok((addr, move || {
        let stats = server.join().map_err(|_| "server thread panicked")?;
        let _ = std::fs::remove_dir_all(dir);
        print_reactor_stats("faust-bench", &stats);
        Ok(())
    }))
}

#[cfg(not(unix))]
fn self_host(
    _clients: usize,
    _durability: Durability,
) -> Result<(SocketAddr, fn() -> Result<(), String>), String> {
    Err(
        "self-hosting needs a unix target (the reactor is the one socket server); pass --addr"
            .into(),
    )
}

fn cmd_audit(args: &[String]) -> i32 {
    match audit_impl(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("faust audit: {e}");
            1
        }
    }
}

/// Loads a session history from a `.fausthis` file or exports one from a
/// store directory on the fly.
fn load_session_history(
    path: &std::path::Path,
    scheme: SigScheme,
) -> Result<faust_audit::SessionHistory, String> {
    if path.is_dir() {
        return faust_audit::export_store_dir(path, scheme, None)
            .map_err(|e| format!("export {}: {e}", path.display()));
    }
    faust_audit::SessionHistory::read_from(path).map_err(|e| match e {
        faust_audit::HistoryFileError::Sealed(faust_store::StoreError::Io(err)) => {
            format!("read {}: {err}", path.display())
        }
        err => format!("{} is not a valid session history: {err}", path.display()),
    })
}

/// Returns the process exit code: 0 = certified, 2 = diverged (the
/// divergence is printed), 1 = the history could not be read or audited.
fn audit_impl(args: &[String]) -> Result<i32, String> {
    let mut path: Option<std::path::PathBuf> = None;
    let mut key_seed = "faust-cli".to_string();
    let mut scheme: Option<SigScheme> = None;
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--key-seed" => key_seed = val()?.to_string(),
            "--scheme" => scheme = Some(parse_scheme(val()?)?),
            "--json" => json = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ if path.is_none() => path = Some(std::path::PathBuf::from(arg)),
            _ => return Err(format!("unexpected argument `{arg}`")),
        }
    }
    let path = path.ok_or("a history file or store directory is required")?;
    // A file carries its scheme; --scheme only needs to pick one when
    // exporting a bare store directory (and may double as a sanity
    // check against a file — the auditor rejects a mismatch).
    let session = load_session_history(&path, scheme.unwrap_or(SigScheme::Hmac))?;
    let registry =
        faust_crypto::sig::KeySet::generate_with(session.scheme, session.n, key_seed.as_bytes())
            .registry();
    let report = faust_audit::audit(&session, &registry).map_err(|e| e.to_string())?;
    if json {
        println!("{}", faust_audit::report_to_json(&report));
    } else {
        println!(
            "faust-audit: {}: {} records, {} signatures, {} commits checked",
            path.display(),
            report.records_replayed,
            report.signatures_checked,
            report.commits_checked,
        );
    }
    match &report.verdict {
        faust_audit::AuditVerdict::Certified {
            fork_linearizable,
            ops,
            clients,
        } => {
            if !json {
                println!(
                    "faust-audit: CERTIFIED — {ops} operations by {clients} clients, \
                     fork-linearizable: {fork_linearizable}"
                );
            }
            Ok(0)
        }
        faust_audit::AuditVerdict::Diverged {
            first_bad_version,
            divergence,
        } => {
            if !json {
                println!("faust-audit: DIVERGED at version {first_bad_version}: {divergence}");
                if let Some((a, b)) = report.verdict.signed_evidence() {
                    println!(
                        "faust-audit: signed evidence: {:?} / {:?} (both COMMIT-signed, \
                         mutually incomparable)",
                        a.version.v(),
                        b.version.v(),
                    );
                }
            }
            Ok(2)
        }
    }
}

fn cmd_export_history(args: &[String]) -> i32 {
    match export_history_impl(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("faust export-history: {e}");
            1
        }
    }
}

fn export_history_impl(args: &[String]) -> Result<(), String> {
    let mut positional: Vec<&str> = Vec::new();
    let mut scheme = SigScheme::Hmac;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scheme" => {
                let v = it
                    .next()
                    .map(String::as_str)
                    .ok_or_else(|| format!("{arg} needs a value"))?;
                scheme = parse_scheme(v)?;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => positional.push(arg),
        }
    }
    let [dir, out] = positional.as_slice() else {
        return Err("usage: faust export-history DIR OUT [--scheme hmac|ed25519]".into());
    };
    let dir = std::path::Path::new(dir);
    let session = faust_audit::export_store_dir(dir, scheme, None)
        .map_err(|e| format!("export {}: {e}", dir.display()))?;
    session
        .write_to(std::path::Path::new(out))
        .map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "faust-export-history: {} records ({} clients, base sequence {}) -> {out}",
        session.records.len(),
        session.n,
        session.base_seq,
    );
    Ok(())
}
