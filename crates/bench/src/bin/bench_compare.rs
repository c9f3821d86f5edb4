//! CI bench-regression gate: diffs a fresh `bench_smoke` JSON report
//! against a checked-in baseline and fails (exit 1) when any data point
//! shared by both files lost more than the allowed fraction of its
//! `per_second` throughput.
//!
//! Only the *intersection* of point names is compared, so a baseline
//! from an older schema (fewer points) still gates the points it knows
//! about, and brand-new points ride along ungated until the baseline is
//! refreshed. An **empty** intersection, however, is never a pass: it
//! means the gate compared nothing at all (renamed points, wrong file,
//! truncated report), and the only honest verdict is a loud failure.
//! The parser is hand-rolled for exactly the JSON `bench_smoke` emits —
//! fixed ASCII names, flat `results` array — in keeping with the repo's
//! no-external-dependencies rule.
//!
//! Usage: `bench_compare <current.json> <baseline.json> [--max-regression PCT]`

use std::process::ExitCode;

/// Extracts `(name, per_second)` for every entry of the `results` array.
///
/// Works on the shape `bench_smoke` writes: each result object holds a
/// `"name"` string (fixed ASCII, no escapes) followed by a
/// `"per_second"` number.
fn parse_points(json: &str) -> Vec<(String, f64)> {
    let mut points = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find("\"name\": \"") {
        rest = &rest[at + "\"name\": \"".len()..];
        let Some(end) = rest.find('"') else { break };
        let name = rest[..end].to_string();
        rest = &rest[end..];
        let Some(at) = rest.find("\"per_second\": ") else {
            break;
        };
        rest = &rest[at + "\"per_second\": ".len()..];
        let end = rest
            .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
            .unwrap_or(rest.len());
        match rest[..end].parse::<f64>() {
            Ok(v) => points.push((name, v)),
            Err(_) => break,
        }
        rest = &rest[end..];
    }
    points
}

/// The gate's verdict over one current-vs-baseline comparison.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    /// Every shared point stayed within the regression budget.
    Pass { shared: usize },
    /// `regressed` of `shared` points fell below the budget.
    Regressed { regressed: usize, shared: usize },
    /// No point name appears in both files — nothing was actually
    /// gated, which must fail loudly rather than pass vacuously.
    DisjointSets,
}

/// The pure comparison: diffs `current` against `baseline` under a
/// `max_regression` percentage budget. Returns the per-point report
/// lines alongside the verdict, so the binary's I/O stays at the edge.
fn compare_points(
    current: &[(String, f64)],
    baseline: &[(String, f64)],
    max_regression: f64,
) -> (Vec<String>, Verdict) {
    let mut lines = Vec::new();
    let mut shared = 0usize;
    let mut regressed = 0usize;
    for (name, base) in baseline {
        let Some((_, now)) = current.iter().find(|(n, _)| n == name) else {
            lines.push(format!("  (gone)    {name}"));
            continue;
        };
        shared += 1;
        let delta = (now / base - 1.0) * 100.0;
        let verdict = if delta < -max_regression {
            regressed += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        lines.push(format!(
            "  {verdict:<9} {name:<46} {base:>14.0} -> {now:>14.0} iter/s ({delta:+.1}%)"
        ));
    }
    for (name, _) in current {
        if !baseline.iter().any(|(n, _)| n == name) {
            lines.push(format!("  (new)     {name}"));
        }
    }
    let verdict = match (shared, regressed) {
        (0, _) => Verdict::DisjointSets,
        (shared, 0) => Verdict::Pass { shared },
        (shared, regressed) => Verdict::Regressed { regressed, shared },
    };
    (lines, verdict)
}

fn load(path: &str) -> Result<Vec<(String, f64)>, String> {
    let json = std::fs::read_to_string(path)
        .map_err(|e| format!("bench_compare: cannot read {path}: {e}"))?;
    let points = parse_points(&json);
    if points.is_empty() {
        return Err(format!("bench_compare: no points in {path}"));
    }
    Ok(points)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut paths: Vec<String> = Vec::new();
    let mut max_regression = 30.0f64;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-regression" => {
                max_regression = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-regression needs a percentage");
            }
            other if !other.starts_with('-') => paths.push(other.to_string()),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench_compare <current.json> <baseline.json> [--max-regression PCT]"
                );
                return ExitCode::from(2);
            }
        }
    }
    let [current_path, baseline_path] = &paths[..] else {
        eprintln!("usage: bench_compare <current.json> <baseline.json> [--max-regression PCT]");
        return ExitCode::from(2);
    };

    let (current, baseline) = match (load(current_path), load(baseline_path)) {
        (Ok(c), Ok(b)) => (c, b),
        (current, baseline) => {
            for err in [current.err(), baseline.err()].into_iter().flatten() {
                eprintln!("{err}");
            }
            return ExitCode::from(2);
        }
    };
    println!("bench_compare: {current_path} vs {baseline_path} (fail below -{max_regression:.0}%)");
    let (lines, verdict) = compare_points(&current, &baseline, max_regression);
    for line in &lines {
        println!("{line}");
    }
    match verdict {
        Verdict::Pass { shared } => {
            println!("bench_compare: all {shared} shared point(s) within the budget");
            ExitCode::SUCCESS
        }
        Verdict::Regressed { regressed, shared } => {
            eprintln!(
                "bench_compare: {regressed}/{shared} point(s) regressed more than \
                 {max_regression:.0}%"
            );
            ExitCode::FAILURE
        }
        Verdict::DisjointSets => {
            eprintln!(
                "bench_compare: {current_path} and {baseline_path} share no point names — \
                 nothing was compared; refusing to pass vacuously \
                 (refresh the baseline or fix the report)"
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{compare_points, parse_points, Verdict};

    fn points(entries: &[(&str, f64)]) -> Vec<(String, f64)> {
        entries.iter().map(|(n, v)| (n.to_string(), *v)).collect()
    }

    #[test]
    fn parses_the_bench_smoke_shape() {
        let json = r#"{
  "schema": 4,
  "results": [
    {"name": "wire: encode REPLY (n=8, read)", "ns_per_iter": 245.8, "per_second": 4067552.9},
    {"name": "e2e: tcp write op, group-commit (2x32)", "ns_per_iter": 72121.5, "per_second": 13865.0}
  ],
  "egress": {"frames_out": 32, "flushes": 4, "max_egress_batch": 8}
}"#;
        let points = parse_points(json);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].0, "wire: encode REPLY (n=8, read)");
        assert!((points[0].1 - 4067552.9).abs() < 1e-6);
        assert_eq!(points[1].0, "e2e: tcp write op, group-commit (2x32)");
        assert!((points[1].1 - 13865.0).abs() < 1e-6);
    }

    #[test]
    fn empty_or_garbage_yields_no_points() {
        assert!(parse_points("{}").is_empty());
        assert!(parse_points("\"name\": \"x\" no number").is_empty());
    }

    #[test]
    fn within_budget_passes_over_the_intersection_only() {
        let baseline = points(&[("a", 100.0), ("renamed-away", 50.0)]);
        let current = points(&[("a", 80.0), ("brand-new", 9000.0)]);
        let (lines, verdict) = compare_points(&current, &baseline, 30.0);
        assert_eq!(verdict, Verdict::Pass { shared: 1 });
        assert!(lines.iter().any(|l| l.contains("(gone)")));
        assert!(lines.iter().any(|l| l.contains("(new)")));
    }

    #[test]
    fn a_deep_enough_drop_regresses() {
        let baseline = points(&[("a", 100.0), ("b", 100.0)]);
        let current = points(&[("a", 65.0), ("b", 75.0)]);
        let (lines, verdict) = compare_points(&current, &baseline, 30.0);
        assert_eq!(
            verdict,
            Verdict::Regressed {
                regressed: 1,
                shared: 2
            }
        );
        assert!(lines.iter().any(|l| l.contains("REGRESSED")));
    }

    #[test]
    fn an_empty_intersection_is_a_failure_not_a_vacuous_pass() {
        let baseline = points(&[("old-name", 100.0)]);
        let current = points(&[("new-name", 100.0)]);
        let (_, verdict) = compare_points(&current, &baseline, 30.0);
        assert_eq!(verdict, Verdict::DisjointSets);
        // Degenerate edges: one side empty entirely.
        let (_, verdict) = compare_points(&[], &baseline, 30.0);
        assert_eq!(verdict, Verdict::DisjointSets);
        let (_, verdict) = compare_points(&current, &[], 30.0);
        assert_eq!(verdict, Verdict::DisjointSets);
    }
}
