//! One benchmark invocation: interleaved native and tracked runs, live
//! snapshots, provenance queries, output checks, and (with tracing) a
//! separate traced phase that yields the per-layer numbers.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use inspector_runtime::core::graph::{Cpg, CpgBuilder, DependenceEdge};
use inspector_runtime::core::query::{EdgeFilter, ProvenanceQuery};
use inspector_runtime::core::taint::{TaintLabel, TaintTracker};
use inspector_runtime::core::testing::announce_all;
use inspector_runtime::core::{IngestStats, PageId, ShardedCpgBuilder, SubComputation, SubId};
use inspector_runtime::session::LiveMonitor;
use inspector_runtime::{ExecutionMode, InspectorSession, RunReport, RunStats, SessionConfig};

use crate::rng::Rng;
use crate::stats::{median, p90, ratio};
use crate::trace::{Off, On, Op, RunTrace, Sink, Trace};
use crate::workloads::{Size, Workload};

/// Fewest measurement cycles per phase, whatever `--seconds` says.
const MIN_CYCLES: usize = 3;
/// Query round run on each tracked run's sealed graph: stratified backward
/// slices, `explain_page` calls and one taint propagation.
const SLICES: usize = 24;
const EXPLAINS: usize = 10;
/// Open-loop period of the live snapshots in monitored runs.
const SNAPSHOT_PERIOD: Duration = Duration::from_millis(20);
/// Fewest live snapshots per untraced phase: more than the p90 needs, to
/// keep the p50 and p90 steady across invocations.
const MIN_SNAPSHOTS: usize = 250;
/// Fewest samples a reported p90 rests on; a thinner one is a failed
/// operation.
const MIN_P90_SAMPLES: usize = 100;
/// Shortest time one query sample is measured over.
const MIN_QUERY_TIME: Duration = Duration::from_millis(1);
const MIB: f64 = 1024.0 * 1024.0;

/// What one invocation does.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Overwrite one word of every tracked run's result before it is
    /// checked (self-test of the checks).
    pub corrupt_output: bool,
    /// Spill directories and the span file go here.
    pub out_dir: PathBuf,
}

/// A measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check of every run passed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable facts printed ahead of the result line.
    pub notes: Vec<String>,
}

/// Operations attempted and failed: runs, snapshots, queries and replays.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong_output: bool,
}

impl Tally {
    fn ok(&mut self) {
        self.attempted += 1;
    }

    /// A failed operation; `output` marks a wrong program result, which
    /// makes the whole invocation incorrect.
    fn fail(&mut self, output: bool, reason: String) {
        self.attempted += 1;
        self.failed += 1;
        self.wrong_output |= output;
        eprintln!("perfbench: FAILED {reason}");
    }

    fn record(&mut self, result: Result<(), String>) {
        match result {
            Ok(()) => self.ok(),
            Err(reason) => self.fail(true, reason),
        }
    }
}

/// Application threads: at most two, and never more than the cores.
pub fn app_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 2)
}

/// Resets `VmHWM` to the current RSS, so the next reading is this run's
/// peak rather than the largest peak of any earlier run in the process.
fn reset_peak_rss() {
    release_free_heap();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A `kB` field of `/proc/self/status`, in MiB (0 where there is none).
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Hands memory freed by earlier runs back to the OS, so what the
/// allocator kept from them does not count towards the next run's peak.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim takes no pointers and only returns free
    // heap pages to the OS; it is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

// ----- runs ------------------------------------------------------------------

/// One tracked run, as measured.
struct TrackedRun {
    setup_s: f64,
    tracked_s: f64,
    rss_mib: f64,
    stats: RunStats,
    ingest: IngestStats,
    log_bytes: u64,
    compression_ratio: f64,
    subs: usize,
    edges: usize,
    replay_ns_per_sub: Option<(f64, f64)>,
    snapshots: Snapshots,
    /// The sealed graph, until the phase has queried it.
    cpg: Cpg,
    /// Pages the taint query marks as sources.
    sources: (PageId, u64),
}

fn native<W: Workload>(input: &Arc<W::Input>, threads: usize) -> (f64, W::Output) {
    let session = InspectorSession::new(W::config(ExecutionMode::Native));
    let layout = W::map(&session, input);
    let input = Arc::clone(input);
    let start = Instant::now();
    session.run(move |ctx| W::app::<Off>(ctx, &input, layout, &RunTrace::default(), threads));
    let wall = secs(start.elapsed());
    (wall, W::output(&session, layout))
}

#[allow(clippy::too_many_arguments)]
fn tracked<W: Workload, T: Trace>(
    input: &Arc<W::Input>,
    threads: usize,
    plan: &Plan,
    monitor: bool,
    sink: &Sink,
    run: u64,
    expected: &W::Output,
    tally: &mut Tally,
) -> Option<TrackedRun> {
    let mut config: SessionConfig = W::config(ExecutionMode::Inspector);
    let spill_parent = (config.spill_threshold > 0).then(|| {
        let dir = plan
            .out_dir
            .join(format!("spill-{}-{}-{run}", W::NAME, std::process::id()));
        std::fs::create_dir_all(&dir).expect("spill directory under the benchmark's out dir");
        dir
    });
    config.spill_dir = spill_parent.clone();

    reset_peak_rss();
    let run_span = sink.next_id();
    let setup_start = Instant::now();
    let session = InspectorSession::new(config.clone());
    let layout = W::map(&session, input);
    let setup_end = Instant::now();

    let stop = Arc::new(AtomicBool::new(false));
    let trace = RunTrace {
        sink: sink.clone(),
        run,
        parent: run_span,
    };
    let monitor = monitor.then(|| {
        let live = session.live_monitor();
        let stop = Arc::clone(&stop);
        let trace = T::ON.then(|| trace.clone());
        let period = SNAPSHOT_PERIOD;
        // Each run starts its schedule at another phase, spread evenly by
        // the golden-ratio sequence: the snapshots of all runs together
        // sample every point of a run's progress, not the same few.
        let phase = period.mul_f64((run as f64 * 0.618_033_988_749_895).fract());
        std::thread::spawn(move || snapshot_loop(live, period, phase, &stop, trace))
    });
    let mut snapshots = Snapshots::default();
    let run_start = Instant::now();
    let result = session.try_run(|ctx| {
        W::app::<T>(ctx, input, layout, &trace, threads);
        // The monitor is stopped and joined before `run` goes on to seal,
        // so no snapshot overlaps the seal's shard-by-shard drain.
        stop.store(true, Ordering::SeqCst);
        if let Some(h) = monitor {
            snapshots = h.join().expect("snapshot thread panicked");
        }
    });
    let run_end = Instant::now();
    let rss_mib = status_mib("VmHWM:");
    if T::ON {
        sink.record(Op::Setup, run, sink.next_id(), 0, setup_start, setup_end);
        sink.record(Op::Run, run, run_span, 0, run_start, run_end);
    }
    for _ in snapshots.shrinks.len()..snapshots.ms.len() {
        tally.ok();
    }
    for shrink in &snapshots.shrinks {
        tally.fail(false, format!("{} run {run}: {shrink}", W::NAME));
    }

    let report = match result {
        Ok(report) => report,
        Err(err) => {
            tally.fail(true, format!("{} run {run}: try_run: {err}", W::NAME));
            drop(session);
            if let Some(dir) = spill_parent {
                let _ = std::fs::remove_dir_all(dir);
            }
            return None;
        }
    };
    if plan.corrupt_output {
        W::corrupt(&session, layout);
    }
    let output = W::output(&session, layout);
    let ingest = session.ingest_stats();
    drop(session);

    let mut failures = Vec::new();
    if let Err(e) = W::check(input, threads, &output, expected) {
        failures.push(e);
    }
    failures.extend(check_report(&report, &ingest, &config));
    if let Some(dir) = spill_parent {
        let left = std::fs::read_dir(&dir).map_or(0, |d| d.count());
        if left > 0 {
            failures.push(format!("{left} spill entries left in {}", dir.display()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let replay_ns_per_sub = match T::ON.then(|| replay(&report.cpg, &trace)).transpose() {
        Ok(v) => v,
        Err(e) => {
            failures.push(e);
            None
        }
    };
    tally.record(if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("{} run {run}: {}", W::NAME, failures.join("; ")))
    });

    Some(TrackedRun {
        setup_s: secs(setup_end - setup_start),
        tracked_s: secs(run_end - run_start),
        rss_mib,
        stats: report.stats,
        ingest,
        log_bytes: report.space.log_bytes,
        compression_ratio: report.space.compression_ratio,
        subs: report.cpg.node_count(),
        edges: report.cpg.edge_count(),
        replay_ns_per_sub,
        snapshots,
        cpg: report.cpg,
        sources: W::taint_sources(layout),
    })
}

/// The checks every tracked run must pass besides the workload's own.
fn check_report(report: &RunReport, ingest: &IngestStats, config: &SessionConfig) -> Vec<String> {
    let s = &report.stats;
    let mut failures = Vec::new();
    if s.degraded {
        failures.push(format!("degraded run: {s:?}"));
    }
    if s.decode_errors != 0 || s.decode_mismatches != 0 {
        failures.push(format!(
            "decode errors {} mismatches {}",
            s.decode_errors, s.decode_mismatches
        ));
    }
    if config.decode_online && s.decoded_branches != s.pt.branches {
        failures.push(format!(
            "decoded {} of {} branches",
            s.decoded_branches, s.pt.branches
        ));
    }
    let at_seal = ingest.sync_resolved_at_seal + ingest.data_resolved_at_seal;
    if at_seal != 0 {
        failures.push(format!("{at_seal} edges resolved at seal"));
    }
    if let Err(e) = report.cpg.validate() {
        failures.push(format!("streamed graph invalid: {e}"));
    }
    let mut oracle = CpgBuilder::new();
    for seq in sequences(&report.cpg) {
        oracle.add_thread(seq);
    }
    if let Err(e) = same_graph(&report.cpg, &oracle.build()) {
        failures.push(format!(
            "streamed graph differs from the batch builder: {e}"
        ));
    }
    failures
}

/// Each thread's sub-computations in α order.
fn sequences(cpg: &Cpg) -> Vec<Vec<SubComputation>> {
    cpg.threads()
        .into_iter()
        .map(|t| {
            cpg.thread_sequence(t)
                .into_iter()
                .map(|id| cpg.node(id).expect("listed node exists").clone())
                .collect()
        })
        .collect()
}

fn same_graph(a: &Cpg, b: &Cpg) -> Result<(), String> {
    if a.node_count() != b.node_count() {
        return Err(format!("{} vs {} nodes", a.node_count(), b.node_count()));
    }
    if a.nodes().zip(b.nodes()).any(|(x, y)| x != y) {
        return Err("node sets differ".into());
    }
    let key = |e: &DependenceEdge| (e.src, e.dst, e.kind, e.pages.clone());
    let mut ea: Vec<_> = a.edges().map(key).collect();
    let mut eb: Vec<_> = b.edges().map(key).collect();
    ea.sort();
    eb.sort();
    if ea != eb {
        return Err(format!("edge sets differ ({} vs {})", ea.len(), eb.len()));
    }
    Ok(())
}

/// Re-ingests a sealed graph's per-thread sequences through a fresh
/// builder in runtime-sized batches, round-robin over threads, and seals:
/// the ingest and seal cost per sub-computation with the app out of the
/// way. The replayed graph must equal the original.
fn replay(cpg: &Cpg, trace: &RunTrace) -> Result<(f64, f64), String> {
    let seqs = sequences(cpg);
    let subs = cpg.node_count().max(1) as f64;
    let builder = ShardedCpgBuilder::with_shards(8);
    announce_all(&builder, &seqs);
    let mut lanes: Vec<_> = seqs.into_iter().map(Vec::into_iter).collect();
    let mut ingest = Duration::ZERO;
    let sink = &trace.sink;
    loop {
        let mut progressed = false;
        for lane in &mut lanes {
            let batch: Vec<SubComputation> = lane.by_ref().take(64).collect();
            if batch.is_empty() {
                continue;
            }
            progressed = true;
            let start = Instant::now();
            builder.ingest_batch(batch);
            let end = Instant::now();
            ingest += end - start;
            sink.record(Op::ReplayIngest, trace.run, sink.next_id(), 0, start, end);
        }
        if !progressed {
            break;
        }
    }
    let start = Instant::now();
    let replayed = builder.seal();
    let end = Instant::now();
    sink.record(Op::ReplaySeal, trace.run, sink.next_id(), 0, start, end);
    same_graph(&replayed, cpg).map_err(|e| format!("replayed graph differs: {e}"))?;
    Ok((
        ingest.as_nanos() as f64 / subs,
        (end - start).as_nanos() as f64 / subs,
    ))
}

// ----- live snapshots ----------------------------------------------------------

#[derive(Debug, Default)]
struct Snapshots {
    /// Latency from the scheduled time to completion, in ms.
    ms: Vec<f64>,
    /// How late each snapshot started, in ms.
    late_ms: Vec<f64>,
    /// Node count of every snapshot, in sequence order.
    nodes: Vec<usize>,
    shrinks: Vec<String>,
}

impl Snapshots {
    /// Time each snapshot took once started, in ms.
    fn service_ms(&self) -> Vec<f64> {
        self.ms
            .iter()
            .zip(&self.late_ms)
            .map(|(a, b)| a - b)
            .collect()
    }
}

/// Takes a snapshot every `period` until `stop` (open loop: each one is
/// timed from when it was due, so a late start counts; a tick that comes
/// less than half a period after the previous snapshot ended is dropped
/// rather than queued, so slow snapshots cannot build a backlog).
/// The ring keeps the newest snapshot and hands older ones back by value,
/// so node counts are read without cloning a graph.
fn snapshot_loop(
    live: LiveMonitor,
    period: Duration,
    phase: Duration,
    stop: &AtomicBool,
    trace: Option<RunTrace>,
) -> Snapshots {
    let t0 = Instant::now() + phase;
    let mut out = Snapshots::default();
    let mut counted: Vec<(u64, usize)> = Vec::new();
    let mut last_seq = None;
    let mut k = 0u32;
    'schedule: while !stop.load(Ordering::SeqCst) {
        let due = t0 + period * k;
        loop {
            if stop.load(Ordering::SeqCst) {
                break 'schedule;
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(Duration::from_millis(1)));
        }
        let start = Instant::now();
        let seq = live.take_snapshot();
        let end = Instant::now();
        out.ms.push(ms(due, end));
        out.late_ms.push(ms(due, start));
        if let Some(t) = &trace {
            t.sink
                .record(Op::Snapshot, t.run, t.sink.next_id(), t.parent, start, end);
        }
        if last_seq != Some(seq) {
            last_seq = Some(seq);
            while live.stored() > 1 {
                if let Some(s) = live.consume_oldest() {
                    counted.push((s.sequence, s.cpg.node_count()));
                }
            }
        }
        // Ticks that fall within half a period after a snapshot ended are
        // dropped, not queued: back-to-back snapshots would hold the stripe
        // locks nearly all the time and starve the ingest
        // they are meant to observe.
        let earliest = Instant::now().saturating_duration_since(t0) + period / 2;
        let tick = earliest.as_nanos().div_ceil(period.as_nanos().max(1));
        k = (k + 1).max(tick as u32);
    }
    while let Some(s) = live.consume_oldest() {
        counted.push((s.sequence, s.cpg.node_count()));
    }
    counted.sort_unstable();
    for w in counted.windows(2) {
        if w[1].1 < w[0].1 {
            out.shrinks.push(format!(
                "snapshot {} has {} nodes, fewer than the {} of snapshot {}",
                w[1].0, w[1].1, w[0].1, w[0].0
            ));
        }
    }
    out.nodes = counted.into_iter().map(|(_, n)| n).collect();
    out
}

// ----- queries -----------------------------------------------------------------

#[derive(Debug, Default)]
struct Queries {
    slice_ms: Vec<f64>,
    explain_ms: Vec<f64>,
    taint_ms: Vec<f64>,
    /// `explain_page` of the most-written page (not part of `all_ms`).
    explain_hot_ms: Vec<f64>,
}

impl Queries {
    fn absorb(&mut self, mut round: Queries) {
        self.slice_ms.append(&mut round.slice_ms);
        self.explain_ms.append(&mut round.explain_ms);
        self.taint_ms.append(&mut round.taint_ms);
        self.explain_hot_ms.append(&mut round.explain_hot_ms);
    }

    fn all_ms(&self) -> Vec<f64> {
        [&self.slice_ms, &self.explain_ms, &self.taint_ms]
            .into_iter()
            .flatten()
            .copied()
            .collect()
    }
}

/// Calls `f` until [`MIN_QUERY_TIME`] has passed (once at least) and returns
/// its last result with the mean time per call in ms, recording one span
/// over all the calls. A query of a few microseconds is thus timed over
/// enough calls that one preemption does not decide its sample.
fn timed<R>(op: Op, trace: Option<&RunTrace>, mut f: impl FnMut() -> R) -> (R, f64) {
    let start = Instant::now();
    let mut calls = 0u32;
    let result = loop {
        let result = std::hint::black_box(f());
        calls += 1;
        if start.elapsed() >= MIN_QUERY_TIME {
            break result;
        }
    };
    let end = Instant::now();
    if let Some(t) = trace {
        t.sink.record(op, t.run, t.sink.next_id(), 0, start, end);
    }
    (result, ms(start, end) / calls as f64)
}

/// Position `k` of `n` strata over `len` items, jittered by `rng`.
fn stratum(rng: &mut Rng, k: usize, n: usize, len: usize) -> usize {
    let u = rng.below(1 << 20) as f64 / (1 << 20) as f64;
    (((k as f64 + u) / n as f64 * len as f64) as usize).min(len - 1)
}

fn run_queries(
    cpg: &Cpg,
    sources: (PageId, u64),
    seed: u64,
    hot: bool,
    trace: Option<&RunTrace>,
    tally: &mut Tally,
) -> Queries {
    let mut q = Queries::default();
    // Targets stratified over a happens-before linearisation: a slice's
    // size is about its target's causal position, so this keeps the mix of
    // slice sizes the same whatever way the threads interleaved.
    let ids: Vec<SubId> = cpg.topological_order().unwrap_or_default();
    if ids.is_empty() {
        tally.fail(true, "query: empty or cyclic graph".into());
        return q;
    }
    let position: std::collections::HashMap<SubId, usize> =
        ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    // The most-written page (sync_dense's bucket heads: one writer per sub)
    // is kept out of the stratified pages unless no other page was written:
    // `explain_page` filters last writers pairwise, so that one call costs
    // seconds on a large graph and would make every round's length depend
    // on whether a stratum hit it. When `hot` asks for it, it is explained
    // on its own, as a sample of its own metric; that metric has no bound,
    // as the call's cost depends on how the threads interleaved.
    let mut writers = std::collections::BTreeMap::<PageId, usize>::new();
    for n in cpg.nodes() {
        for &p in &n.write_set {
            *writers.entry(p).or_default() += 1;
        }
    }
    let hottest = writers
        .iter()
        .max_by_key(|&(&p, &count)| (count, std::cmp::Reverse(p)))
        .map(|(&p, _)| p);
    let mut pages: Vec<PageId> = writers
        .into_keys()
        .filter(|&p| Some(p) != hottest)
        .collect();
    if pages.is_empty() {
        pages.extend(hottest);
    }
    let query = ProvenanceQuery::new(cpg);
    let mut rng = Rng::new(seed, 4);

    for k in 0..SLICES {
        let target = ids[stratum(&mut rng, k, SLICES, ids.len())];
        let (slice, t) = timed(Op::Slice, trace, || {
            query.backward_slice(target, EdgeFilter::ALL)
        });
        q.slice_ms.push(t);
        // Everything in a backward slice happens before its target, so it
        // sits no later than the target in any linearisation.
        let sound = slice.contains(&target)
            && slice
                .iter()
                .all(|m| position.get(m).is_some_and(|&p| p <= position[&target]));
        tally.record(if sound {
            Ok(())
        } else {
            Err(format!("backward slice of {target} is not its causal past"))
        });
    }
    let mut explain = |page: PageId| {
        let (why, t) = timed(Op::Explain, trace, || query.explain_page(page));
        let sound = why
            .iter()
            .any(|&id| cpg.node(id).is_some_and(|n| n.writes(page)));
        tally.record(if sound {
            Ok(())
        } else {
            Err(format!("explain_page({page}) names no writer"))
        });
        t
    };
    for k in 0..EXPLAINS.min(pages.len()) {
        q.explain_ms
            .push(explain(pages[stratum(&mut rng, k, EXPLAINS, pages.len())]));
    }
    if let Some(page) = hottest.filter(|_| hot) {
        q.explain_hot_ms.push(explain(page));
    }
    let mut tracker = TaintTracker::new();
    tracker.taint_page_range(sources.0, sources.1, TaintLabel(1));
    let (report, t) = timed(Op::Taint, trace, || tracker.propagate(cpg));
    q.taint_ms.push(t);
    let first = sources.0.number();
    let missed = cpg
        .nodes()
        .filter(|n| {
            n.read_set
                .range(sources.0..PageId::new(first + sources.1))
                .next()
                .is_some()
        })
        .filter(|n| !report.sub_is_tainted(n.id))
        .count();
    tally.record(if missed == 0 {
        Ok(())
    } else {
        Err(format!("taint missed {missed} readers of the source pages"))
    });
    q
}

// ----- phases ------------------------------------------------------------------

#[derive(Default)]
struct Phase {
    native_s: Vec<f64>,
    runs: Vec<TrackedRun>,
    /// Snapshots of the monitored runs.
    snapshots: Snapshots,
    queries: Queries,
}

impl Phase {
    fn absorb_snapshots(&mut self, s: &mut Snapshots) {
        self.snapshots.ms.append(&mut s.ms);
        self.snapshots.late_ms.append(&mut s.late_ms);
        self.snapshots.nodes.append(&mut s.nodes);
    }

    fn tracked(&self, f: impl Fn(&TrackedRun) -> f64) -> f64 {
        median(&self.runs.iter().map(f).collect::<Vec<_>>())
    }
}

/// Cycles of interleaved runs for `budget`: a native and a tracked run in
/// alternating order, on even cycles a query round on the tracked run's
/// graph, and a monitored run. Spreading every kind of sample over the
/// whole budget keeps a slow stretch of the machine from landing on one
/// metric only. Extra monitored runs follow until `min_snapshots`
/// snapshots were taken.
///
/// Timed runs never snapshot: a snapshot stalls ingest, the stall
/// lengthens the run, and a longer run takes more snapshots, so monitored
/// run times swing far more than the runs themselves.
#[allow(clippy::too_many_arguments)]
fn phase<W: Workload, T: Trace>(
    plan: &Plan,
    input: &Arc<W::Input>,
    expected: &W::Output,
    threads: usize,
    budget: Duration,
    with_native: bool,
    min_snapshots: usize,
    sink: &Sink,
    next_run: &mut u64,
    tally: &mut Tally,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut cycle = 0usize;
    let monitored = |phase: &mut Phase, next_run: &mut u64, tally: &mut Tally| {
        *next_run += 1;
        let run = tracked::<W, T>(input, threads, plan, true, sink, *next_run, expected, tally);
        if let Some(mut run) = run {
            phase.absorb_snapshots(&mut run.snapshots);
        }
    };
    while cycle < MIN_CYCLES || start.elapsed() < budget {
        // Alternate which side goes first so drift hits both equally.
        let even = cycle.is_multiple_of(2);
        for native_turn in [even, !even] {
            if native_turn {
                // Native runs are far shorter than tracked ones, so a cycle
                // repeats them until they add up to a quarter of the last
                // tracked run: the denominator of `overhead_x` then rests
                // on about as much measured time as the numerator's runs.
                let goal = phase.runs.last().map_or(0.0, |r| r.tracked_s) / 4.0;
                let mut spent = 0.0;
                while with_native && (spent == 0.0 || spent < goal) {
                    let (wall, out) = native::<W>(input, threads);
                    spent += wall.max(f64::MIN_POSITIVE);
                    phase.native_s.push(wall);
                    tally.record(
                        W::check(input, threads, &out, expected)
                            .map_err(|e| format!("{} native run: {e}", W::NAME)),
                    );
                }
                continue;
            }
            *next_run += 1;
            let run = tracked::<W, T>(
                input, threads, plan, false, sink, *next_run, expected, tally,
            );
            let Some(mut run) = run else { continue };
            if even {
                let trace = RunTrace {
                    sink: sink.clone(),
                    run: *next_run,
                    parent: 0,
                };
                let round = run_queries(
                    &run.cpg,
                    run.sources,
                    plan.seed ^ cycle as u64,
                    T::ON && cycle == 0,
                    T::ON.then_some(&trace),
                    tally,
                );
                phase.queries.absorb(round);
            }
            // No graph outlives its cycle: a graph holds every recorded
            // branch, and keeping one would inflate the next run's peak.
            run.cpg = Cpg::default();
            phase.runs.push(run);
        }
        monitored(&mut phase, next_run, tally);
        cycle += 1;
    }
    // Bounded, so a slow machine cannot stretch an invocation far past its
    // budget; the snapshot count is printed with the notes.
    let deadline = Instant::now() + budget / 3;
    while phase.snapshots.ms.len() < min_snapshots && Instant::now() < deadline {
        monitored(&mut phase, next_run, tally);
    }
    phase
}

// ----- one invocation ----------------------------------------------------------

/// Runs workload `W` as `plan` says and assembles its metrics: the
/// end-to-end ones from untraced runs, or with `plan.trace` the per-layer
/// ones from a separate traced phase.
pub fn run<W: Workload>(plan: &Plan) -> Outcome {
    std::fs::create_dir_all(&plan.out_dir).expect("benchmark out dir is writable");
    let threads = app_threads();
    let input = Arc::new(W::generate(plan.seed, plan.size));
    let sink = Sink::default();
    let mut tally = Tally::default();
    let mut next_run = 0u64;

    // Warm-up: lazy set-up, first thread spawns and allocator growth are
    // paid here, not by the first measured run. The native result is the
    // reference the tracked runs are checked against.
    let (_, expected) = native::<W>(&input, threads);
    tally.record(W::check(&input, threads, &expected, &expected));
    next_run += 1;
    tracked::<W, Off>(
        &input, threads, plan, false, &sink, next_run, &expected, &mut tally,
    );

    let seconds = Duration::from_secs_f64(plan.seconds.max(0.0));
    let budget = if plan.trace { seconds / 2 } else { seconds };
    let min_snapshots = if plan.trace { 1 } else { MIN_SNAPSHOTS };
    let untraced = phase::<W, Off>(
        plan,
        &input,
        &expected,
        threads,
        budget,
        true,
        min_snapshots,
        &sink,
        &mut next_run,
        &mut tally,
    );
    let native_s = median(&untraced.native_s);
    let tracked_s = untraced.tracked(|r| r.tracked_s);
    if !plan.trace {
        let samples = [
            ("snapshot", untraced.snapshots.ms.len()),
            ("query", untraced.queries.all_ms().len()),
        ];
        for (what, n) in samples {
            if n < MIN_P90_SAMPLES {
                tally.fail(
                    false,
                    format!("{}: {what}_ms_p90 rests on only {n} samples", W::NAME),
                );
            }
        }
    }

    let metrics = if plan.trace {
        let traced = phase::<W, On>(
            plan,
            &input,
            &expected,
            threads,
            budget,
            false,
            1,
            &sink,
            &mut next_run,
            &mut tally,
        );
        let path = plan.out_dir.join(format!("spans-{}.jsonl", W::NAME));
        if let Err(e) = sink.write_jsonl(&path) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        per_layer(&untraced, &traced, &sink, native_s, tracked_s, threads)
    } else {
        end_to_end(&untraced, native_s, tracked_s)
    };

    let notes = vec![
        format!(
            "tracked runs {} native runs {} (median tracked {:.4} s, native {:.4} s)",
            untraced.runs.len(),
            untraced.native_s.len(),
            tracked_s,
            native_s
        ),
        format!(
            "snapshots {} (service p50 {:.3} p90 {:.3} ms, start late p50 {:.3} ms) queries {}",
            untraced.snapshots.ms.len(),
            median(&untraced.snapshots.service_ms()),
            p90(&untraced.snapshots.service_ms()),
            median(&untraced.snapshots.late_ms),
            untraced.queries.all_ms().len()
        ),
        format!(
            "error_rate {} ({} failed of {} attempted)",
            ratio(tally.failed as f64, tally.attempted as f64),
            tally.failed,
            tally.attempted
        ),
    ];
    Outcome {
        correct: !tally.wrong_output,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    }
}

fn end_to_end(p: &Phase, native_s: f64, tracked_s: f64) -> Vec<Metric> {
    let m = |name, value, unit| Metric { name, value, unit };
    let queries = p.queries.all_ms();
    vec![
        m("setup_s", p.tracked(|r| r.setup_s), "s"),
        m("tracked_s", tracked_s, "s"),
        m("overhead_x", ratio(tracked_s, native_s), "x"),
        m("peak_rss_mib", p.tracked(|r| r.rss_mib), "MiB"),
        m("log_mib", p.tracked(|r| r.log_bytes as f64 / MIB), "MiB"),
        m("query_ms_p50", median(&queries), "ms"),
        m("query_ms_p90", p90(&queries), "ms"),
        m("snapshot_ms_p50", median(&p.snapshots.ms), "ms"),
        m("snapshot_ms_p90", p90(&p.snapshots.ms), "ms"),
    ]
}

fn per_layer(
    untraced: &Phase,
    t: &Phase,
    sink: &Sink,
    native_s: f64,
    tracked_s: f64,
    threads: usize,
) -> Vec<Metric> {
    let m = |name, value, unit| Metric { name, value, unit };
    let span_ns = |op: Op| sink.of(op).iter().map(|s| s.ns()).collect::<Vec<_>>();
    let (read, write) = (span_ns(Op::Read), span_ns(Op::Write));
    let (lock, unlock) = (span_ns(Op::Lock), span_ns(Op::Unlock));
    let st = |f: &dyn Fn(&RunStats) -> f64| t.tracked(|r| f(&r.stats));
    let fault_s = st(&|s| secs(s.mem.fault_time));
    let commit_s = st(&|s| secs(s.mem.commit_time));
    let encode_s = st(&|s| secs(s.pt.encode_time));
    let decode_s = st(&|s| secs(s.decode_time));
    let spawn_s = st(&|s| secs(s.spawn_time));
    let replay = |pick: fn((f64, f64)) -> f64| {
        median(
            &t.runs
                .iter()
                .filter_map(|r| r.replay_ns_per_sub.map(pick))
                .collect::<Vec<_>>(),
        )
    };
    vec![
        m("app.native_s", native_s, "s"),
        m("mem.read_ns_p50", median(&read), "ns"),
        m("mem.read_ns_p90", p90(&read), "ns"),
        m("mem.write_ns_p50", median(&write), "ns"),
        m("mem.write_ns_p90", p90(&write), "ns"),
        m(
            "mem.read_faults",
            st(&|s| s.mem.read_faults as f64),
            "count",
        ),
        m(
            "mem.write_faults",
            st(&|s| s.mem.write_faults as f64),
            "count",
        ),
        m(
            "mem.pages_committed",
            st(&|s| s.mem.pages_committed as f64),
            "count",
        ),
        m(
            "mem.bytes_committed",
            st(&|s| s.mem.bytes_committed as f64),
            "bytes",
        ),
        m(
            "mem.commit_yield",
            st(&|s| ratio(s.mem.pages_committed as f64, s.mem.pages_examined as f64)),
            "ratio",
        ),
        m("mem.fault_s", fault_s, "s"),
        m("mem.commit_s", commit_s, "s"),
        m("runtime.lock_ns_p50", median(&lock), "ns"),
        m("runtime.lock_ns_p90", p90(&lock), "ns"),
        m("runtime.unlock_ns_p50", median(&unlock), "ns"),
        m("runtime.unlock_ns_p90", p90(&unlock), "ns"),
        m(
            "runtime.boundaries",
            st(&|s| s.recorder.sync_ops as f64),
            "count",
        ),
        m("runtime.spawn_ms", median(&span_ns(Op::Spawn)) / 1e6, "ms"),
        m("runtime.join_ms", median(&span_ns(Op::Join)) / 1e6, "ms"),
        m(
            "runtime.unattributed_s",
            tracked_s - native_s - (fault_s + commit_s + encode_s + spawn_s) / threads as f64,
            "s",
        ),
        m("pt.branch_ns_p50", median(&span_ns(Op::Branch)), "ns"),
        m("pt.branches", st(&|s| s.pt.branches as f64), "count"),
        m("pt.trace_bytes", st(&|s| s.pt.trace_bytes as f64), "bytes"),
        m(
            "pt.bytes_per_branch",
            st(&|s| s.pt.bytes_per_branch()),
            "bytes",
        ),
        m("pt.encode_s", encode_s, "s"),
        m("pt.decode_s", decode_s, "s"),
        m(
            "pt.decoded_branches",
            st(&|s| s.decoded_branches as f64),
            "count",
        ),
        m(
            "pt.decode_mib_per_s",
            st(&|s| ratio(s.decode_bytes as f64 / MIB, secs(s.decode_time))),
            "MiB/s",
        ),
        m("perf.log_bytes", t.tracked(|r| r.log_bytes as f64), "bytes"),
        m(
            "perf.compression_ratio",
            t.tracked(|r| r.compression_ratio),
            "x",
        ),
        m("core.subs", t.tracked(|r| r.subs as f64), "count"),
        m("core.edges", t.tracked(|r| r.edges as f64), "count"),
        m("core.ingest_s", st(&|s| secs(s.graph_ingest_time)), "s"),
        m(
            "core.ingest_cpu_s",
            st(&|s| secs(s.graph_ingest_cpu_time)),
            "s",
        ),
        m("core.overlap", st(&|s| s.ingest_overlap_factor()), "x"),
        m("core.replay_ingest_ns_per_sub", replay(|r| r.0), "ns"),
        m("core.replay_seal_ns_per_sub", replay(|r| r.1), "ns"),
        m(
            "core.resolved_at_seal",
            t.tracked(|r| (r.ingest.sync_resolved_at_seal + r.ingest.data_resolved_at_seal) as f64),
            "count",
        ),
        m(
            "core.index_live",
            st(&|s| s.index_entries_live as f64),
            "count",
        ),
        m("spill.subs", st(&|s| s.spilled_subs as f64), "count"),
        m("spill.mib", st(&|s| s.spill_bytes as f64 / MIB), "MiB"),
        m("spill.s", st(&|s| secs(s.spill_time)), "s"),
        m(
            "spill.peak_resident_subs",
            st(&|s| s.peak_resident_subs as f64),
            "count",
        ),
        m(
            "spill.fallbacks",
            st(&|s| s.spill_fallbacks as f64),
            "count",
        ),
        m(
            "snapshot.nodes_p50",
            median(
                &t.snapshots
                    .nodes
                    .iter()
                    .map(|&n| n as f64)
                    .collect::<Vec<_>>(),
            ),
            "count",
        ),
        m(
            "snapshot.late_ms_max",
            t.snapshots.late_ms.iter().copied().fold(0.0, f64::max),
            "ms",
        ),
        m("query.slice_ms_p50", median(&t.queries.slice_ms), "ms"),
        m("query.explain_ms_p50", median(&t.queries.explain_ms), "ms"),
        m("query.taint_ms", median(&t.queries.taint_ms), "ms"),
        m(
            "query.explain_hot_ms",
            median(&t.queries.explain_hot_ms),
            "ms",
        ),
        m(
            "trace.overhead_s",
            t.tracked(|r| r.tracked_s) - untraced.tracked(|r| r.tracked_s),
            "s",
        ),
    ]
}
