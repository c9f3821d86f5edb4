//! `faustbench` — the repository's benchmark of record.
//!
//! ```text
//! cargo run --release --manifest-path faustbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--json PATH] [--dir PATH]
//! cargo run --release --manifest-path faustbench/Cargo.toml -- --selfcheck [--seconds S]
//! ```
//!
//! See `README.md` beside this package for what is measured and why.

mod gen;
mod oracle;
mod procfs;
mod report;
mod run;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{END_TO_END, WORKLOADS};

const USAGE: &str = "\
usage: faustbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--json PATH] [--dir PATH]
       faustbench --selfcheck [--seed N] [--seconds S] [--dir PATH]
workloads: small-lockstep wide-lockstep bigvalue-lockstep pipelined-group
  --seed N      seeds the operation generator (default 1)
  --seconds S   how long the timed segments run (default 25)
  --trace 1     halve the timed pass and add a traced pass, layer kernels and trace JSON
  --json PATH   also write the full report as JSON
  --dir PATH    where the store directory and the trace file go (default: beside the executable)
  --selfcheck   run every workload five times and hold the spread of the middle three against the bounds";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
    dir: Option<PathBuf>,
    selfcheck: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 25.0,
        trace: false,
        json: None,
        dir: None,
        selfcheck: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--json" => args.json = Some(PathBuf::from(value()?)),
            "--dir" => args.dir = Some(PathBuf::from(value()?)),
            "--selfcheck" => args.selfcheck = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.selfcheck == args.workload.is_some() {
        return Err("give either --workload <name> or --selfcheck".into());
    }
    Ok(args)
}

/// Beside the executable: inside the build directory, hence inside the
/// checkout and ignored by git.
fn default_work_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(PathBuf::from))
        .unwrap_or_else(std::env::temp_dir)
}

fn run_one(args: &Args, name: &str) -> Result<ExitCode, String> {
    let workload = workloads::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let opts = run::Options {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work_root: args.dir.clone().unwrap_or_else(default_work_root),
    };
    let report = run::run(workload, &opts)?;
    report::print_table(&report);
    if let Some(path) = &args.json {
        std::fs::write(path, report::full_json(&report))
            .map_err(|e| format!("write {path:?}: {e}"))?;
    }
    println!("{}", report::result_line(&report, args.trace));
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `"<name>": {"value": <number>` in a result line.
fn value_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Runs of each workload in `--selfcheck`.
const SELFCHECK_RUNS: usize = 5;

/// Five runs of each workload, each a process of its own so that peak
/// memory starts from nothing, and the spread of every end-to-end metric
/// held against its bound. The spread is taken over the middle three:
/// about one run in twenty on this box is disturbed from its first
/// segment to its last (1.4× slower throughout), which quartiles over ten
/// runs shrug off and a maximum over three does not.
fn selfcheck(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut ok = true;
    for w in &WORKLOADS {
        let mut lines = Vec::new();
        for _ in 0..SELFCHECK_RUNS {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w.name, "--trace", "0"])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if let Some(dir) = &args.dir {
                cmd.arg("--dir").arg(dir);
            }
            let out = cmd.output().map_err(|e| format!("run {exe:?}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
            let line = stdout.lines().last().unwrap_or("").to_string();
            if !out.status.success() || !line.contains("\"correct\": true") {
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                return Err(format!("{}: a run failed: {line}", w.name));
            }
            lines.push(line);
        }
        println!("{}", w.name);
        for m in &END_TO_END {
            let mut values: Vec<f64> = lines
                .iter()
                .map(|l| value_in(l, m.name).ok_or_else(|| format!("{} missing in {l}", m.name)))
                .collect::<Result<_, _>>()?;
            let mid = stats::median(&mut values);
            let spread = stats::relative_range(&values[1..SELFCHECK_RUNS - 1]);
            let verdict = if spread <= m.bound { "ok" } else { "TOO WIDE" };
            ok &= spread <= m.bound;
            println!(
                "  {:<20} min {:>14.4} median {:>14.4} max {:>14.4} {:<5} middle three spread {:>6.2} % of bound {:>5.1} %  {verdict}",
                m.name,
                values[0],
                mid,
                values[SELFCHECK_RUNS - 1],
                m.unit,
                spread * 100.0,
                m.bound * 100.0,
            );
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("faustbench: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(name) => run_one(&args, name),
        None => selfcheck(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("faustbench: {e}");
            ExitCode::from(2)
        }
    }
}
