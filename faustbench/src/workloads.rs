//! The four workloads and the metric tables (`BENCHMARK.json` repeats
//! them; a test keeps the two in step).

use crate::sut::{Link, SutConfig};

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub value_len: usize,
    pub write_pct: usize,
    /// Operations per segment. Chosen so that a segment takes a few
    /// tenths of a second and leaves a whole number of snapshot periods
    /// of log records behind: every segment then holds the same number
    /// of snapshots at the same phase, and bytes per segment repeat.
    pub ops_per_segment: usize,
    pub sut: SutConfig,
}

pub const WARMUP_OPS: usize = 2048;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "small-lockstep",
        why: "fixed per-op cost of every layer, nothing amortised: n=2, 64 B values, 75/25, loopback sockets",
        value_len: 64,
        write_pct: 75,
        ops_per_segment: 1024,
        sut: SutConfig {
            n: 2,
            link: Link::Sockets,
            depth: 1,
            shipped_serve: false,
        },
    },
    Workload {
        name: "wide-lockstep",
        why: "the paper's O(n): n=64 version vectors, proofs and REPLY size; no sockets, so net cannot move it",
        value_len: 64,
        write_pct: 75,
        ops_per_segment: 1024,
        sut: SutConfig {
            n: 64,
            link: Link::InProcess,
            depth: 1,
            shipped_serve: false,
        },
    },
    Workload {
        name: "bigvalue-lockstep",
        why: "bytes, not messages: 16 KiB values at 50/50, so hashing, copies and WAL bytes dominate both ways",
        value_len: 16 * 1024,
        write_pct: 50,
        ops_per_segment: 512,
        sut: SutConfig {
            n: 2,
            link: Link::Sockets,
            depth: 1,
            shipped_serve: false,
        },
    },
    Workload {
        name: "pipelined-group",
        why: "amortisation: depth-16 windows, batch ingest, coalesced egress, a pending list of 31; traced runs add the serve-thread, group-commit pass",
        value_len: 64,
        write_pct: 75,
        ops_per_segment: 1024,
        sut: SutConfig {
            n: 2,
            link: Link::Sockets,
            depth: 16,
            shipped_serve: false,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the median by which the metric may worsen.
    pub bound: f64,
}

/// Bounds: three times the widest spread between the quartiles of ten
/// runs seen on any workload, rounded up (README, "Bounds").
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "write_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "wire_bytes_per_op",
        unit: "B/op",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "disk_bytes_per_op",
        unit: "B/op",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "peak_rss_kb",
        unit: "KiB",
        better: Better::Lower,
        bound: 0.2,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 41] = [
    layer("net.ingest_us_per_op", "us", Better::Lower),
    layer("net.egress_us_per_op", "us", Better::Lower),
    layer("net.client_io_us_per_op", "us", Better::Lower),
    layer("net.polls_per_op", "count", Better::Lower),
    layer("net.socket_writes_per_frame", "count", Better::Lower),
    layer("ustor.engine_self_us_per_op", "us", Better::Lower),
    layer("ustor.apply_us_per_op", "us", Better::Lower),
    layer("ustor.msgs_per_batch", "count", Better::Higher),
    layer("ustor.reply_bytes_p50", "B", Better::Lower),
    layer("ustor.pending_len_p50", "count", Better::Lower),
    layer("store.server_us_per_op", "us", Better::Lower),
    layer("store.wal_append_us_per_record", "us", Better::Lower),
    layer("store.recover_us_per_record", "us", Better::Lower),
    layer("store.fsync_device_us", "us", Better::Lower),
    layer("crypto.sha256_mb_per_s", "MB/s", Better::Higher),
    layer("crypto.sign_us", "us", Better::Lower),
    layer("crypto.verify_us", "us", Better::Lower),
    layer("types.codec_us_per_op", "us", Better::Lower),
    layer("types.encode_submit_us", "us", Better::Lower),
    layer("types.decode_submit_us", "us", Better::Lower),
    layer("types.encode_reply_us", "us", Better::Lower),
    layer("types.decode_reply_us", "us", Better::Lower),
    layer("core.submit_us_per_op", "us", Better::Lower),
    layer("core.handle_reply_us_per_op", "us", Better::Lower),
    layer("core.events_us_per_op", "us", Better::Lower),
    layer("core.stable_lag_ops_p50", "count", Better::Lower),
    layer("serve.ops_per_s", "1/s", Better::Higher),
    layer("serve.op_p50_us", "us", Better::Lower),
    layer("serve.wait_us_per_op", "us", Better::Lower),
    layer("serve.server_cpu_us_per_op", "us", Better::Lower),
    layer("serve.client_cpu_us_per_op", "us", Better::Lower),
    layer("serve.records_per_flush", "count", Better::Higher),
    layer("serve.deadline_flush_share", "%", Better::Lower),
    layer("tail.op_p99_us", "us", Better::Lower),
    layer("tail.op_max_us", "us", Better::Lower),
    layer("run.ops_per_s_mean", "1/s", Better::Higher),
    layer("run.disturbed_segment_share", "%", Better::Lower),
    layer("run.segments", "count", Better::Higher),
    layer("trace.overhead_pct", "%", Better::Lower),
    layer("trace.layer_sum_us_per_op", "us", Better::Lower),
    layer("bench.self_us_per_op", "us", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "…"` between `"<section>"` and the next section.
    fn names(spec: &str, section: &str) -> Vec<String> {
        let start = spec
            .find(&format!("\"{section}\""))
            .expect("section present");
        let rest = &spec[start + section.len() + 2..];
        let end = [
            "\"workloads\"",
            "\"end_to_end\"",
            "\"per_layer\"",
            "\"run_seconds\"",
        ]
        .iter()
        .filter_map(|s| rest.find(s))
        .min()
        .unwrap_or(rest.len());
        rest[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let spec = include_str!("../../BENCHMARK.json");
        assert_eq!(
            names(spec, "workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names(spec, "end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names(spec, "per_layer"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for m in &END_TO_END {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            );
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn segments_leave_whole_snapshot_periods_behind() {
        for w in &WORKLOADS {
            let records = w.ops_per_segment as u64 * w.sut.records_per_op();
            assert_eq!(records % w.sut.snapshot_every(), 0, "{}", w.name);
            let connections = if w.sut.link == Link::Sockets {
                w.sut.n
            } else {
                0
            };
            assert!(connections <= 2 && !w.sut.shipped_serve, "{}", w.name);
        }
    }
}
