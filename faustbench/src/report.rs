//! Printing: the table a person reads, the one-line JSON result the
//! driver reads, and the fuller `--json` document.

use crate::run::Report;
use crate::workloads::{Better, END_TO_END, PER_LAYER};

fn unit_and_direction(name: &str) -> (&'static str, Better) {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, better)| (unit, better))
        .expect("every reported metric is in a table of workloads.rs")
}

/// A JSON number with all the digits measured; JSON has no NaN, and a
/// metric that could not be taken reads 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_object(metrics: &[(&'static str, f64)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let (unit, _) = unit_and_direction(name);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quoted(name),
                number(*value),
                quoted(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

pub fn print_table(report: &Report) {
    if let Some(w) = crate::workloads::find(report.workload) {
        println!("{}: {}", w.name, w.why);
    }
    println!(
        "workload {}  seed {}  {} s  {} segments  nproc {}  store {} ({})  rev {}",
        report.workload,
        report.seed,
        report.seconds,
        report.segments,
        report.nproc,
        report.store_dir.display(),
        report.store_fs,
        report.git_revision
    );
    for (title, metrics) in [
        ("end to end", &report.end_to_end),
        ("per layer", &report.per_layer),
    ] {
        if metrics.is_empty() {
            continue;
        }
        println!("-- {title}");
        for (name, value) in metrics {
            let (unit, better) = unit_and_direction(name);
            println!(
                "{name:<34} {value:>16.4} {unit:<6} ({} is better)",
                better.as_str()
            );
        }
    }
    if let Some(path) = &report.trace_file {
        println!("spans written to {}", path.display());
    }
    println!(
        "ops attempted {}  failed_ops {}{}",
        report.attempted,
        report.failed,
        report
            .first_failure
            .as_ref()
            .map_or(String::new(), |f| format!("  first failure: {f}"))
    );
}

/// The line the driver parses: end-to-end metrics of an untraced run,
/// per-layer metrics of a traced one.
pub fn result_line(report: &Report, traced: bool) -> String {
    let metrics = if traced {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics_object(metrics)
    )
}

pub fn full_json(report: &Report) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"segments\": {}, \"nproc\": {}, \
         \"oversubscribed\": {}, \"store_dir\": {}, \"store_fs\": {}, \"git_revision\": {}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"first_failure\": {}, \
         \"end_to_end\": {}, \"per_layer\": {}}}\n",
        quoted(report.workload),
        report.seed,
        number(report.seconds),
        report.segments,
        report.nproc,
        report.oversubscribed,
        quoted(&report.store_dir.display().to_string()),
        quoted(&report.store_fs),
        quoted(&report.git_revision),
        report.correct(),
        report.attempted,
        report.failed,
        report
            .first_failure
            .as_deref()
            .map_or("null".into(), quoted),
        metrics_object(&report.end_to_end),
        metrics_object(&report.per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_and_strings_are_valid_json() {
        assert_eq!(number(1.25), "1.25");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(27_312.0), "27312");
        assert_eq!(quoted("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
