//! Spans recorded by the benchmark around its own calls into each layer's
//! public functions. Nothing is traced inside the program.
//!
//! App-thread calls go through a [`Trace`] recorder chosen at compile time:
//! [`Off`] is a plain call (the untraced runs that give the end-to-end
//! metrics), [`On`] times a sample of the calls and keeps the spans in a
//! per-thread buffer that is merged into the [`Sink`] when the thread ends.
//! The sink is written out once, when the benchmark ends.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A public function the benchmark calls, i.e. the name of a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Read,
    Write,
    Branch,
    Alloc,
    Lock,
    Unlock,
    Spawn,
    Join,
    Setup,
    Run,
    Snapshot,
    Slice,
    Explain,
    Taint,
    ReplayIngest,
    ReplaySeal,
}

/// Ops recorded from app threads, which [`On`] samples.
const APP_OPS: usize = 8;

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Read => "ThreadCtx::read",
            Op::Write => "ThreadCtx::write",
            Op::Branch => "ThreadCtx::branch",
            Op::Alloc => "ThreadCtx::alloc",
            Op::Lock => "InspMutex::lock",
            Op::Unlock => "InspMutex::unlock",
            Op::Spawn => "ThreadCtx::spawn",
            Op::Join => "ThreadCtx::join",
            Op::Setup => "InspectorSession::new+map_region",
            Op::Run => "InspectorSession::run",
            Op::Snapshot => "LiveMonitor::take_snapshot",
            Op::Slice => "ProvenanceQuery::backward_slice",
            Op::Explain => "ProvenanceQuery::explain_page",
            Op::Taint => "TaintTracker::propagate",
            Op::ReplayIngest => "ShardedCpgBuilder::ingest_batch",
            Op::ReplaySeal => "ShardedCpgBuilder::seal",
        }
    }

    /// One call in this many is timed, the first one included. Per-byte accesses and branches run
    /// millions of times per run: timing all of them would make the traced
    /// run measure the clock, not the layer.
    fn sample_every(self) -> u32 {
        match self {
            Op::Read | Op::Branch => 509,
            Op::Write | Op::Alloc | Op::Lock | Op::Unlock => 13,
            _ => 1,
        }
    }
}

/// One recorded span. `parent` is 0 for spans the bench thread opens.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub run: u64,
    pub thread: u32,
    pub op: Op,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

#[derive(Debug)]
struct SinkInner {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// In-memory span store shared by every thread of one benchmark process.
#[derive(Debug, Clone)]
pub struct Sink(Arc<SinkInner>);

impl Default for Sink {
    fn default() -> Self {
        Sink(Arc::new(SinkInner {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }))
    }
}

impl Sink {
    pub fn next_id(&self) -> u64 {
        self.0.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.0.epoch).as_nanos() as u64
    }

    /// Records a bench-thread span.
    pub fn record(&self, op: Op, run: u64, id: u64, parent: u64, start: Instant, end: Instant) {
        let span = Span {
            id,
            parent,
            run,
            thread: u32::MAX,
            op,
            start_ns: self.ns_since_epoch(start),
            end_ns: self.ns_since_epoch(end),
        };
        self.lock().push(span);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.0
            .spans
            .lock()
            .expect("span store poisoned by a panicking app thread")
    }

    /// Spans of `op` recorded so far.
    pub fn of(&self, op: Op) -> Vec<Span> {
        self.lock().iter().filter(|s| s.op == op).copied().collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.lock();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"run\":{},\"thread\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.run,
                s.thread as i64,
                s.op.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Where app-thread spans go: the sink, the run they belong to and the
/// run's span id as their parent.
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    pub sink: Sink,
    pub run: u64,
    pub parent: u64,
}

/// Per-app-thread span recorder.
pub trait Trace: Sized {
    const ON: bool;
    fn begin(run: &RunTrace, thread: u32) -> Self;
    fn span<R>(&mut self, op: Op, f: impl FnOnce() -> R) -> R;
    fn end(self);
}

/// No tracing: the call and nothing else.
pub struct Off;

impl Trace for Off {
    const ON: bool = false;

    #[inline(always)]
    fn begin(_: &RunTrace, _: u32) -> Self {
        Off
    }

    #[inline(always)]
    fn span<R>(&mut self, _: Op, f: impl FnOnce() -> R) -> R {
        f()
    }

    #[inline(always)]
    fn end(self) {}
}

/// Sampled tracing into a thread-local buffer.
pub struct On {
    run: RunTrace,
    thread: u32,
    ticks: [u32; APP_OPS],
    buf: Vec<Span>,
}

impl Trace for On {
    const ON: bool = true;

    fn begin(run: &RunTrace, thread: u32) -> Self {
        On {
            run: run.clone(),
            thread,
            ticks: [0; APP_OPS],
            buf: Vec::new(),
        }
    }

    #[inline]
    fn span<R>(&mut self, op: Op, f: impl FnOnce() -> R) -> R {
        let slot = op as usize;
        debug_assert!(slot < APP_OPS, "{op:?} is a bench-thread span");
        let tick = self.ticks[slot];
        self.ticks[slot] = (tick + 1) % op.sample_every();
        if tick != 0 {
            return f();
        }
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        let sink = &self.run.sink;
        self.buf.push(Span {
            id: sink.next_id(),
            parent: self.run.parent,
            run: self.run.run,
            thread: self.thread,
            op,
            start_ns: sink.ns_since_epoch(start),
            end_ns: sink.ns_since_epoch(end),
        });
        r
    }

    fn end(self) {
        self.run.sink.lock().extend(self.buf);
    }
}
