//! In-memory spans around the calls into each layer.
//!
//! A [`Tracer`] belongs to one thread of control (the lockstep driver, or
//! each of the two threads of `pipelined-group`); it sits behind a mutex
//! only because the `Server` wrapper that records `store.server` spans
//! lives inside the engine, which requires `Send`. Spans nest by a stack,
//! so a span's parent is whatever was open when it began, and its self
//! time is its duration minus its children's. Self times are summed per
//! name as spans close (cheap, unbounded run length); the spans
//! themselves are kept only up to a cap, for `trace.json`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Span names; the part before the dot is the layer's crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One closed-loop operation as the driver sees it. Its self time is
    /// the benchmark's own bookkeeping.
    Op,
    CoreSubmit,
    CoreHandleReply,
    CoreEvents,
    /// Client side of a socket.
    ClientWrite,
    ClientRead,
    /// Frame encode + decode on the in-process link of `wide-lockstep`.
    Codec,
    /// Server transport: non-blocking receive, blocking receive, send.
    NetIngest,
    NetWait,
    NetEgress,
    EngineProcess,
    EngineOutput,
    /// The persistent `Server`: log, apply, snapshot, group-commit flush.
    StoreServer,
}

impl Name {
    pub const COUNT: usize = 13;

    pub fn as_str(self) -> &'static str {
        match self {
            Name::Op => "bench.op",
            Name::CoreSubmit => "core.submit",
            Name::CoreHandleReply => "core.handle_reply",
            Name::CoreEvents => "core.events",
            Name::ClientWrite => "net.client_write",
            Name::ClientRead => "net.client_read",
            Name::Codec => "types.codec",
            Name::NetIngest => "net.ingest",
            Name::NetWait => "net.wait",
            Name::NetEgress => "net.egress",
            Name::EngineProcess => "ustor.process_all",
            Name::EngineOutput => "ustor.poll_output",
            Name::StoreServer => "store.server",
        }
    }
}

/// One closed span. `parent` indexes the same thread's span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

/// Per-name sums since the last [`TracerCell::take_totals`].
#[derive(Debug, Clone, Default)]
pub struct Totals {
    pub self_ns: [u64; Name::COUNT],
    pub total_ns: [u64; Name::COUNT],
    pub count: [u64; Name::COUNT],
}

impl Totals {
    pub fn self_us(&self, name: Name) -> f64 {
        self.self_ns[name as usize] as f64 / 1e3
    }

    pub fn total_us(&self, name: Name) -> f64 {
        self.total_ns[name as usize] as f64 / 1e3
    }
}

struct Frame {
    name: Name,
    start_ns: u64,
    child_ns: u64,
    kept: Option<u32>,
}

struct Tracer {
    epoch: Instant,
    stack: Vec<Frame>,
    spans: Vec<Span>,
    cap: usize,
    totals: Totals,
    op: u64,
}

/// A tracer plus its on/off switch. While off, a span site costs one
/// relaxed load.
pub struct TracerCell {
    on: AtomicBool,
    inner: Mutex<Tracer>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a>(Option<&'a TracerCell>);

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(cell) = self.0 {
            cell.exit();
        }
    }
}

impl TracerCell {
    pub fn new(epoch: Instant, cap: usize) -> Arc<Self> {
        Arc::new(TracerCell {
            on: AtomicBool::new(false),
            inner: Mutex::new(Tracer {
                epoch,
                stack: Vec::new(),
                spans: Vec::new(),
                cap,
                totals: Totals::default(),
                op: 0,
            }),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Tracer> {
        self.inner
            .lock()
            .expect("no span site panics while holding the tracer")
    }

    /// Switch tracing on or off; only between operations, so that no span
    /// is open across the change.
    pub fn set_enabled(&self, on: bool) {
        // Relaxed: the flag publishes nothing; the tracer state itself is
        // behind the mutex.
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// The operation id stamped on spans opened from now on.
    pub fn begin_op(&self, op: u64) {
        if self.enabled() {
            self.lock().op = op;
        }
    }

    pub fn guard(&self, name: Name) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard(None);
        }
        let mut t = self.lock();
        let kept = (t.spans.len() < t.cap).then(|| {
            let parent = t.stack.last().and_then(|f| f.kept);
            let op = t.op;
            t.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                op,
            });
            (t.spans.len() - 1) as u32
        });
        let start_ns = t.epoch.elapsed().as_nanos() as u64;
        t.stack.push(Frame {
            name,
            start_ns,
            child_ns: 0,
            kept,
        });
        SpanGuard(Some(self))
    }

    pub fn span<R>(&self, name: Name, f: impl FnOnce() -> R) -> R {
        let _guard = self.guard(name);
        f()
    }

    fn exit(&self) {
        let mut t = self.lock();
        let end_ns = t.epoch.elapsed().as_nanos() as u64;
        let Some(frame) = t.stack.pop() else { return };
        let dur = end_ns - frame.start_ns;
        let i = frame.name as usize;
        t.totals.self_ns[i] += dur.saturating_sub(frame.child_ns);
        t.totals.total_ns[i] += dur;
        t.totals.count[i] += 1;
        if let Some(parent) = t.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(idx) = frame.kept {
            let span = &mut t.spans[idx as usize];
            span.start_ns = frame.start_ns;
            span.end_ns = end_ns;
        }
    }

    /// Returns and resets the per-name sums (at a segment boundary).
    pub fn take_totals(&self) -> Totals {
        std::mem::take(&mut self.lock().totals)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Writes the kept spans of each thread as one JSON document.
pub fn write_json(path: &std::path::Path, threads: &[(&str, Vec<Span>)]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"spans\":[")?;
    let mut first = true;
    for (thread, spans) in threads {
        for (idx, s) in spans.iter().enumerate() {
            if s.end_ns == 0 {
                continue; // still open when the pass ended
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}{{\"thread\":\"{thread}\",\"id\":{idx},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                if first { "" } else { "," },
                s.name.as_str(),
                s.start_ns,
                s.end_ns,
                s.op
            )?;
            first = false;
        }
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children_and_parents_are_linked() {
        let cell = TracerCell::new(Instant::now(), 16);
        cell.span(Name::Op, || ()); // off: nothing recorded
        cell.set_enabled(true);
        cell.begin_op(9);
        cell.span(Name::Op, || {
            cell.span(Name::EngineProcess, || {
                cell.span(Name::StoreServer, || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
            cell.span(Name::NetEgress, || ());
        });
        let spans = cell.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 9 && s.end_ns >= s.start_ns));
        let t = cell.take_totals();
        assert_eq!(t.count[Name::Op as usize], 1);
        let sum: u64 = t.self_ns.iter().sum();
        assert_eq!(
            sum,
            t.total_ns[Name::Op as usize],
            "self times partition the root"
        );
        assert!(t.self_ns[Name::StoreServer as usize] >= 2_000_000);
        assert!(t.self_ns[Name::EngineProcess as usize] < 1_000_000);
        assert_eq!(cell.take_totals().count[Name::Op as usize], 0);
    }

    #[test]
    fn the_cap_bounds_kept_spans_but_not_the_sums() {
        let cell = TracerCell::new(Instant::now(), 3);
        cell.set_enabled(true);
        for _ in 0..10 {
            cell.span(Name::Op, || cell.span(Name::CoreSubmit, || ()));
        }
        assert_eq!(cell.spans().len(), 3);
        assert_eq!(cell.take_totals().count[Name::CoreSubmit as usize], 10);
    }
}
