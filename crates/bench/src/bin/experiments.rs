//! Regenerates every figure and quantitative claim of the paper as
//! printed tables (experiments E5–E9; E1–E4 are the examples). The
//! README's "Reproducing the paper" section says what each table shows.
//!
//! Run with: `cargo run -p faust-bench --bin experiments --release`

use faust_bench::{
    commit_mode_ablation, concurrency_sweep, crash_blocking, detection_latency_sweep,
    message_size_sweep, rounds_per_op, stability_latency_sweep,
};

fn main() {
    println!("FAUST reproduction — experiment suite");
    println!("=====================================\n");

    // E5: one round of message exchange per operation.
    println!("E5  rounds per operation (paper §5: \"a single round ... for every operation\")");
    println!("    n   ops   msgs/op  rounds/op  bytes/op");
    for n in [2usize, 4, 8, 16, 32] {
        let row = rounds_per_op(n, 20);
        println!(
            "  {:>3} {:>5}   {:>7.2}  {:>9.2}  {:>8.1}",
            row.n, row.ops, row.messages_per_op, row.rounds_per_op, row.bytes_per_op
        );
    }
    println!();

    // E5b: the commit-piggybacking ablation.
    println!("E5b commit piggybacking ablation (paper §5: the COMMIT \"can be eliminated by");
    println!("    piggybacking its contents on the SUBMIT message of the next operation\")");
    println!("      n   immediate msgs/op (bytes)   piggyback msgs/op (bytes)");
    for row in commit_mode_ablation(&[2, 8, 32], 20) {
        println!(
            "  {:>5}   {:>10.2} ({:>7.1})        {:>10.2} ({:>7.1})",
            row.n,
            row.immediate_msgs_per_op,
            row.immediate_bytes_per_op,
            row.piggyback_msgs_per_op,
            row.piggyback_bytes_per_op
        );
    }
    println!();

    // E6: O(n) bits of communication overhead per request.
    println!("E6  message sizes in bytes vs n (paper §1/§5: O(n) overhead per request;");
    println!("    64-byte register values;");
    println!("    COMMIT(w): as a session sends it, a delta against the REPLY it answers)");
    println!("      n   SUBMIT   REPLY(w)   COMMIT   COMMIT(w)   REPLY(r)");
    let rows = message_size_sweep(&[2, 4, 8, 16, 32, 64, 128, 256], 64);
    for row in &rows {
        println!(
            "  {:>5}   {:>6}   {:>8}   {:>6}   {:>9}   {:>8}",
            row.n, row.submit_write, row.reply_write, row.commit, row.commit_wire, row.reply_read
        );
    }
    let d1 = rows[1].reply_write - rows[0].reply_write;
    let dl = rows[7].reply_write - rows[6].reply_write;
    println!(
        "    growth check: Δ(n:2→4) = {d1} B, Δ(n:128→256) = {dl} B ⇒ {} B/client — linear ✓\n",
        dl / 128
    );

    // E7: wait-freedom vs blocking.
    println!("E7a concurrency sweep (paper §1: no fork-linearizable protocol is wait-free;");
    println!("    k clients write 5 ops each, link delay 10 ticks, virtual completion time)");
    println!("      k    USTOR   lock-step   slowdown");
    for row in concurrency_sweep(&[2, 4, 8, 16, 32], 5, 10) {
        println!(
            "  {:>5}   {:>6}   {:>9}   {:>7.1}x",
            row.clients,
            row.ustor_time,
            row.lockstep_time,
            row.lockstep_time as f64 / row.ustor_time as f64
        );
    }
    println!();

    println!("E7b crash while operating (survivors' completed ops out of attempted)");
    for n in [3usize, 8] {
        let row = crash_blocking(n, 5);
        println!(
            "    n={n}: USTOR {}/{} — lock-step {}/{} (lock holder crashed)",
            row.ustor_completed, row.survivor_ops, row.lockstep_completed, row.survivor_ops
        );
    }
    println!();

    // E8: failure-detection latency vs probe period.
    println!("E8  failure-detection latency vs probe period Δ (split-brain fork at t=0,");
    println!("    4 clients, mean over 5 seeds; Definition 5 property 7)");
    println!("        Δ    detection time   rate");
    for row in detection_latency_sweep(&[50, 100, 200, 400, 800, 1600], 5, 4) {
        println!(
            "    {:>5}   {:>14.0}   {:>4.0}%",
            row.probe_period,
            row.mean_detection_time,
            row.detection_rate * 100.0
        );
    }
    println!();

    // E9: stability latency vs dummy-read/probe periods.
    println!("E9  time from op completion to global stability (correct server, 3 clients,");
    println!("    mean over 5 seeds)");
    println!("    tick   Δ(probe)   stability time");
    for row in stability_latency_sweep(
        &[(10, 100), (25, 200), (50, 400), (100, 800), (200, 1600)],
        5,
        3,
    ) {
        println!(
            "    {:>4}   {:>8}   {:>14.0}",
            row.tick_period, row.probe_period, row.mean_stability_time
        );
    }
    println!();
    println!("(E1–E4 are the scenario reproductions: run the examples `quickstart`,");
    println!(" `collaboration`, `forking_attack`, `wait_freedom`.)");
}
