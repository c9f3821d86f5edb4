//! A realistic application on top of FAUST: a shared document built from
//! per-author append-only edit logs — the Wiki/Google-Docs-style
//! collaboration the paper's introduction motivates.
//!
//! Each author stores their own edit log in their SWMR register (writing
//! the whole log on each edit keeps values unique and the register model
//! intact). Authors read each other's registers to merge the document.
//! FAUST's stability cuts tell each author which of their edits are
//! *stable* — guaranteed to be in a common view with every collaborator —
//! and which are still "pending trust"; if the provider ever forked the
//! document, `fail` would fire instead.
//!
//! Run with: `cargo run --example shared_doc`

use faust::core::{FaustConfig, FaustDriver, FaustDriverConfig, Notification};
use faust::sim::{DelayModel, SimConfig};
use faust::types::{ClientId, Value};
use faust::ustor::{UstorServer, WorkloadOp};

const AUTHORS: [&str; 3] = ["ana", "bruno", "chen"];

/// Serializes an author's edit log as one register value.
fn log_value(author: usize, edits: &[&str]) -> Value {
    let mut text = String::new();
    for (i, edit) in edits.iter().enumerate() {
        text.push_str(&format!("{}#{}: {}\n", AUTHORS[author], i + 1, edit));
    }
    Value::new(text.into_bytes())
}

fn main() {
    let n = 3;
    let mut driver = FaustDriver::new(
        n,
        Box::new(UstorServer::new(n)),
        FaustDriverConfig {
            sim: SimConfig {
                seed: 7,
                link_delay: DelayModel::Fixed(2),
                offline_delay: DelayModel::Fixed(30),
            },
            faust: FaustConfig {
                probe_period: 300,
                dummy_reads: true,
                commit_mode: faust::ustor::CommitMode::Immediate,
                pipeline: 1,
            },
            tick_period: 25,
        },
        b"shared-doc",
    );

    // Ana drafts the intro, Bruno the middle, Chen the conclusion; each
    // also reads the others' sections while working.
    let ana = ClientId::new(0);
    let bruno = ClientId::new(1);
    let chen = ClientId::new(2);

    driver.push_ops(
        ana,
        vec![
            WorkloadOp::Write(log_value(0, &["# Shared design doc"])),
            WorkloadOp::Write(log_value(
                0,
                &["# Shared design doc", "## Goals: fail-aware storage"],
            )),
            WorkloadOp::Pause(60),
            WorkloadOp::Read(bruno),
            WorkloadOp::Write(log_value(
                0,
                &[
                    "# Shared design doc",
                    "## Goals: fail-aware storage",
                    "(reviewed Bruno's part)",
                ],
            )),
        ],
    );
    driver.push_ops(
        bruno,
        vec![
            WorkloadOp::Pause(20),
            WorkloadOp::Write(log_value(1, &["## Protocol: USTOR, one round/op"])),
            WorkloadOp::Read(ana),
            WorkloadOp::Write(log_value(
                1,
                &[
                    "## Protocol: USTOR, one round/op",
                    "## Versions: (V, M) with ≼",
                ],
            )),
        ],
    );
    driver.push_ops(
        chen,
        vec![
            WorkloadOp::Pause(40),
            WorkloadOp::Read(ana),
            WorkloadOp::Read(bruno),
            WorkloadOp::Write(log_value(2, &["## Conclusion: trust, but verify"])),
        ],
    );

    let result = driver.run_until(5_000);
    assert!(result.failures.is_empty(), "provider was honest");

    // Assemble the final document from each author's last write.
    println!("=== merged document ===");
    for (i, author) in AUTHORS.iter().enumerate() {
        let last_write = result
            .history
            .ops()
            .iter()
            .rfind(|op| op.client.index() == i && op.written.is_some());
        if let Some(op) = last_write {
            let text = String::from_utf8_lossy(op.written.as_ref().unwrap().as_bytes());
            print!("{text}");
        } else {
            println!("({author} wrote nothing)");
        }
    }

    // Per-author trust report from the stability cuts.
    println!("\n=== trust report ===");
    for (i, author) in AUTHORS.iter().enumerate() {
        let id = ClientId::new(i as u32);
        let completions = result.completions(id);
        let last_cut = result.last_cut(id).expect("stability cuts were issued");
        let globally_stable = last_cut.w.iter().copied().min().unwrap_or(0);
        let total = completions.last().map(|done| done.timestamp).unwrap_or(0);
        println!(
            "{author:>6}: {total} ops; stable w.r.t. everyone up to timestamp \
{globally_stable} (cut {last_cut})"
        );
        assert!(
            globally_stable >= total,
            "with an honest provider and live collaborators, everything stabilizes"
        );
    }
    let any_failed = result
        .notifications
        .iter()
        .flatten()
        .any(|(_, note)| matches!(note, Notification::Failed(_)));
    println!(
        "\nno forks detected: {}",
        if any_failed {
            "NO (!!)"
        } else {
            "correct — every edit is mutually vouched"
        }
    );
}
