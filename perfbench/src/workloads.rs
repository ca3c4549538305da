//! The three seeded workloads. Each one generates its input from the
//! seed, maps it into a session, runs an app closure through the public
//! `inspector-runtime` API and reads the program's result back for the
//! output checks.

use std::sync::Arc;

use inspector_runtime::core::spill::SpillDurability;
use inspector_runtime::core::PageId;
use inspector_runtime::mem::VirtAddr;
use inspector_runtime::pt::aux::AuxMode;
use inspector_runtime::sync::InspMutex;
use inspector_runtime::{ExecutionMode, FaultPlan, InspectorSession, SessionConfig, ThreadCtx};

use crate::rng::{fnv, ranges, text, Rng};
use crate::trace::{Op, RunTrace, Trace};

/// Input scale: `Full` for measurement, `Tiny` for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Tiny,
    Full,
}

/// A workload.
pub trait Workload {
    const NAME: &'static str;
    type Input: Send + Sync + 'static;
    type Layout: Copy + Send + 'static;
    type Output: PartialEq + std::fmt::Debug;

    fn generate(seed: u64, size: Size) -> Self::Input;
    /// The session configuration, every field set here.
    fn config(mode: ExecutionMode) -> SessionConfig;
    /// Maps the regions and loads the input (part of set-up time).
    fn map(session: &InspectorSession, input: &Self::Input) -> Self::Layout;
    fn app<T: Trace>(
        ctx: &mut ThreadCtx,
        input: &Arc<Self::Input>,
        layout: Self::Layout,
        trace: &RunTrace,
        threads: usize,
    );
    /// Reads the program's result back out of the shared image.
    fn output(session: &InspectorSession, layout: Self::Layout) -> Self::Output;
    fn check(
        input: &Self::Input,
        threads: usize,
        tracked: &Self::Output,
        native: &Self::Output,
    ) -> Result<(), String>;
    /// Overwrites one word of the result (self-test of the checks).
    fn corrupt(session: &InspectorSession, layout: Self::Layout);
    /// Pages the taint query marks as sources: `(first, count)`.
    fn taint_sources(layout: Self::Layout) -> (PageId, u64);
}

/// Every `SessionConfig` field, set explicitly so no `INSPECTOR_*`
/// environment variable or changed default alters what is measured.
fn config(mode: ExecutionMode, decode_online: bool, spill_threshold: usize) -> SessionConfig {
    SessionConfig {
        mode,
        page_size: 4096,
        aux_mode: AuxMode::FullTrace,
        aux_capacity: 4 << 20,
        pt_flush_every: 4096,
        live_snapshots: true,
        snapshot_slots: 2,
        charge_spawn_cost: true,
        cpg_shards: 8,
        ingest_queue_depth: 1024,
        ingest_threads: 2,
        ingest_batch: 64,
        decode_online,
        decode_windows: 0,
        spill_threshold,
        // The runner points each spilling run at a fresh directory.
        spill_dir: None,
        spill_durability: SpillDurability::None,
        spill_retain: false,
        fault_plan: FaultPlan::default(),
    }
}

fn pages_of(base: VirtAddr, len: u64) -> (PageId, u64) {
    let first = base.raw() / 4096;
    let last = (base.raw() + len.max(1) - 1) / 4096;
    (PageId::new(first), last - first + 1)
}

fn is_sep(b: u8) -> bool {
    b == b' ' || b == b'\n'
}

// ---------------------------------------------------------------------------

/// `sync_dense`: shaped like reverse_index. Every word of three or more
/// letters allocates a 16-byte node on the shared heap and links it into a
/// bucket list under one lock, so the run is many short lock-delimited
/// sub-computations that touch fresh heap pages.
pub struct SyncDense;

const INDEX_BUCKETS: u64 = 128;

#[derive(Debug, Clone, Copy)]
pub struct IndexLayout {
    text: VirtAddr,
    text_len: u64,
    heads: VirtAddr,
}

impl Workload for SyncDense {
    const NAME: &'static str = "sync_dense";
    type Input = Vec<u8>;
    type Layout = IndexLayout;
    /// Per bucket, the sorted hashes of its nodes.
    type Output = Vec<Vec<u64>>;

    fn generate(seed: u64, size: Size) -> Vec<u8> {
        let len = match size {
            Size::Tiny => 6 << 10,
            Size::Full => 64 << 10,
        };
        text(seed, 1, len)
    }

    fn config(mode: ExecutionMode) -> SessionConfig {
        config(mode, false, 0)
    }

    fn map(session: &InspectorSession, input: &Vec<u8>) -> IndexLayout {
        let text = session.map_input("corpus", input);
        let heads = session.map_region("bucket-heads", INDEX_BUCKETS * 8);
        IndexLayout {
            text: text.base(),
            text_len: input.len() as u64,
            heads: heads.base(),
        }
    }

    fn app<T: Trace>(
        ctx: &mut ThreadCtx,
        input: &Arc<Vec<u8>>,
        l: IndexLayout,
        trace: &RunTrace,
        threads: usize,
    ) {
        let mut t = T::begin(trace, 0);
        let lock = Arc::new(InspMutex::new());
        let mut handles = Vec::new();
        for (start, end) in ranges(input.len(), threads) {
            let lock = Arc::clone(&lock);
            let trace = trace.clone();
            let handle = t.span(Op::Spawn, || {
                ctx.spawn(move |ctx| {
                    let mut t = T::begin(&trace, ctx.thread_id().index() as u32);
                    ctx.set_pc(0x49_0000);
                    let (mut len, mut hash) = (0usize, fnv(b""));
                    for i in start..end {
                        let b = t.span(Op::Read, || ctx.read_u8(l.text.add(i as u64)));
                        let sep = is_sep(b);
                        t.span(Op::Branch, || ctx.branch(sep));
                        if !sep {
                            hash = (hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
                            len += 1;
                            continue;
                        }
                        if len >= 3 {
                            let head_addr = l.heads.add((hash % INDEX_BUCKETS) * 8);
                            let node = t.span(Op::Alloc, || ctx.alloc(16));
                            t.span(Op::Write, || ctx.write_u64(node, hash));
                            t.span(Op::Lock, || lock.lock(ctx));
                            let head = t.span(Op::Read, || ctx.read_u64(head_addr));
                            t.span(Op::Write, || ctx.write_u64(node.add(8), head));
                            t.span(Op::Write, || ctx.write_u64(head_addr, node.raw()));
                            t.span(Op::Unlock, || lock.unlock(ctx));
                        }
                        len = 0;
                        hash = fnv(b"");
                    }
                    t.end();
                })
            });
            handles.push(handle);
        }
        for h in handles {
            t.span(Op::Join, || ctx.join(h));
        }
        t.end();
    }

    fn output(session: &InspectorSession, l: IndexLayout) -> Vec<Vec<u64>> {
        let image = session.image();
        (0..INDEX_BUCKETS)
            .map(|bucket| {
                let mut hashes = Vec::new();
                let mut cursor = image.read_u64_direct(l.heads.add(bucket * 8));
                while cursor != 0 {
                    hashes.push(image.read_u64_direct(VirtAddr::new(cursor)));
                    cursor = image.read_u64_direct(VirtAddr::new(cursor + 8));
                }
                hashes.sort_unstable();
                hashes
            })
            .collect()
    }

    fn check(
        input: &Vec<u8>,
        threads: usize,
        tracked: &Vec<Vec<u64>>,
        native: &Vec<Vec<u64>>,
    ) -> Result<(), String> {
        // Serial reference, with the same per-range word reset as the scan.
        let mut expected = 0usize;
        for (start, end) in ranges(input.len(), threads) {
            let mut len = 0;
            for &b in &input[start..end] {
                if !is_sep(b) {
                    len += 1;
                    continue;
                }
                expected += (len >= 3) as usize;
                len = 0;
            }
        }
        let nodes: usize = tracked.iter().map(Vec::len).sum();
        if nodes != expected {
            return Err(format!("index holds {nodes} nodes, expected {expected}"));
        }
        if tracked != native {
            return Err("index contents differ from the native run".into());
        }
        Ok(())
    }

    fn corrupt(session: &InspectorSession, l: IndexLayout) {
        let image = session.image();
        let bucket = (0..INDEX_BUCKETS)
            .map(|b| l.heads.add(b * 8))
            .find(|&a| image.read_u64_direct(a) != 0)
            .expect("a non-empty bucket");
        let node = VirtAddr::new(image.read_u64_direct(bucket));
        image.write_u64_direct(node, image.read_u64_direct(node) ^ 1);
    }

    fn taint_sources(l: IndexLayout) -> (PageId, u64) {
        pages_of(l.text, l.text_len)
    }
}

// ---------------------------------------------------------------------------

/// `branch_scan`: shaped like word_count/string_match. Every byte of the
/// text is scanned with one conditional branch into thread-local counts,
/// which are merged into a shared table under one lock every
/// [`MERGE_BYTES`] and at the end.
pub struct BranchScan;

const COUNT_BUCKETS: u64 = 512;
/// Text each thread scans between merges. The merge is a synchronization
/// boundary, where the PT bytes recorded so far travel to the online
/// decoder, so decoding overlaps the scan instead of all landing at its end.
const MERGE_BYTES: usize = 128 << 10;

/// Adds a thread's local counts into the shared table under the lock.
fn merge<T: Trace>(
    ctx: &mut ThreadCtx,
    t: &mut T,
    lock: &InspMutex,
    table: VirtAddr,
    local: &mut [u64],
) {
    t.span(Op::Lock, || lock.lock(ctx));
    for (bucket, count) in local.iter_mut().enumerate() {
        if *count > 0 {
            let addr = table.add(bucket as u64 * 8);
            let cur = t.span(Op::Read, || ctx.read_u64(addr));
            t.span(Op::Write, || ctx.write_u64(addr, cur + *count));
            *count = 0;
        }
    }
    t.span(Op::Unlock, || lock.unlock(ctx));
}

#[derive(Debug, Clone, Copy)]
pub struct CountLayout {
    text: VirtAddr,
    text_len: u64,
    table: VirtAddr,
}

impl Workload for BranchScan {
    const NAME: &'static str = "branch_scan";
    type Input = Vec<u8>;
    type Layout = CountLayout;
    type Output = Vec<u64>;

    fn generate(seed: u64, size: Size) -> Vec<u8> {
        let len = match size {
            Size::Tiny => 16 << 10,
            Size::Full => 2 << 20,
        };
        text(seed, 2, len)
    }

    fn config(mode: ExecutionMode) -> SessionConfig {
        config(mode, true, 0)
    }

    fn map(session: &InspectorSession, input: &Vec<u8>) -> CountLayout {
        let text = session.map_input("corpus", input);
        let table = session.map_region("word-counts", COUNT_BUCKETS * 8);
        CountLayout {
            text: text.base(),
            text_len: input.len() as u64,
            table: table.base(),
        }
    }

    fn app<T: Trace>(
        ctx: &mut ThreadCtx,
        input: &Arc<Vec<u8>>,
        l: CountLayout,
        trace: &RunTrace,
        threads: usize,
    ) {
        let mut t = T::begin(trace, 0);
        let lock = Arc::new(InspMutex::new());
        let mut handles = Vec::new();
        for (start, end) in ranges(input.len(), threads) {
            let lock = Arc::clone(&lock);
            let trace = trace.clone();
            let handle = t.span(Op::Spawn, || {
                ctx.spawn(move |ctx| {
                    let mut t = T::begin(&trace, ctx.thread_id().index() as u32);
                    ctx.set_pc(0x4D_0000);
                    let mut local = vec![0u64; COUNT_BUCKETS as usize];
                    let (mut len, mut hash) = (0usize, fnv(b""));
                    for i in start..end {
                        let b = t.span(Op::Read, || ctx.read_u8(l.text.add(i as u64)));
                        let sep = is_sep(b);
                        t.span(Op::Branch, || ctx.branch(sep));
                        if !sep {
                            hash = (hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
                            len += 1;
                        } else if len > 0 {
                            local[(hash % COUNT_BUCKETS) as usize] += 1;
                            len = 0;
                            hash = fnv(b"");
                        }
                        if (i + 1 - start) % MERGE_BYTES == 0 {
                            merge(ctx, &mut t, &lock, l.table, &mut local);
                        }
                    }
                    merge(ctx, &mut t, &lock, l.table, &mut local);
                    t.end();
                })
            });
            handles.push(handle);
        }
        for h in handles {
            t.span(Op::Join, || ctx.join(h));
        }
        t.end();
    }

    fn output(session: &InspectorSession, l: CountLayout) -> Vec<u64> {
        (0..COUNT_BUCKETS)
            .map(|b| session.image().read_u64_direct(l.table.add(b * 8)))
            .collect()
    }

    fn check(
        input: &Vec<u8>,
        threads: usize,
        tracked: &Vec<u64>,
        native: &Vec<u64>,
    ) -> Result<(), String> {
        let mut expected = 0u64;
        for (start, end) in ranges(input.len(), threads) {
            let mut len = 0;
            for &b in &input[start..end] {
                if !is_sep(b) {
                    len += 1;
                } else if len > 0 {
                    expected += 1;
                    len = 0;
                }
            }
        }
        let words: u64 = tracked.iter().sum();
        if words != expected {
            return Err(format!("table counts {words} words, expected {expected}"));
        }
        if tracked != native {
            return Err("word counts differ from the native run".into());
        }
        Ok(())
    }

    fn corrupt(session: &InspectorSession, l: CountLayout) {
        let v = session.image().read_u64_direct(l.table);
        session.image().write_u64_direct(l.table, v + 1);
    }

    fn taint_sources(l: CountLayout) -> (PageId, u64) {
        pages_of(l.text, l.text_len)
    }
}

// ---------------------------------------------------------------------------

/// `spill_live`: shaped like canneal. Random swaps over a large shared
/// array run under one lock while the builder spills at a fixed threshold;
/// in monitored runs a bench thread takes live snapshots on a fixed
/// schedule, faulting spilled nodes back in while the spill goes on.
pub struct SpillLive;

pub struct SwapInput {
    seed: u64,
    pub placement: Vec<u64>,
    swaps_per_thread: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct SwapLayout {
    array: VirtAddr,
    elements: u64,
    swaps_per_thread: usize,
    seed: u64,
}

impl Workload for SpillLive {
    const NAME: &'static str = "spill_live";
    type Input = SwapInput;
    type Layout = SwapLayout;
    /// The final array, sorted.
    type Output = Vec<u64>;

    fn generate(seed: u64, size: Size) -> SwapInput {
        let (elements, swaps_per_thread) = match size {
            Size::Tiny => (4096u64, 400),
            Size::Full => (256 << 10, 4000),
        };
        let mut rng = Rng::new(seed, 3);
        let mut placement: Vec<u64> = (0..elements).collect();
        for i in (1..placement.len()).rev() {
            placement.swap(i, rng.below(i as u64 + 1) as usize);
        }
        SwapInput {
            seed,
            placement,
            swaps_per_thread,
        }
    }

    fn config(mode: ExecutionMode) -> SessionConfig {
        config(mode, false, 64)
    }

    fn map(session: &InspectorSession, input: &SwapInput) -> SwapLayout {
        let elements = input.placement.len() as u64;
        let array = session.map_region("placement", elements * 8);
        for (i, &v) in input.placement.iter().enumerate() {
            session.image().write_u64_direct(array.at(i as u64 * 8), v);
        }
        SwapLayout {
            array: array.base(),
            elements,
            swaps_per_thread: input.swaps_per_thread,
            seed: input.seed,
        }
    }

    fn app<T: Trace>(
        ctx: &mut ThreadCtx,
        _input: &Arc<SwapInput>,
        l: SwapLayout,
        trace: &RunTrace,
        threads: usize,
    ) {
        let mut t = T::begin(trace, 0);
        let lock = Arc::new(InspMutex::new());
        let mut handles = Vec::new();
        for worker in 0..threads as u64 {
            let lock = Arc::clone(&lock);
            let trace = trace.clone();
            let handle = t.span(Op::Spawn, || {
                ctx.spawn(move |ctx| {
                    let mut t = T::begin(&trace, ctx.thread_id().index() as u32);
                    let mut rng = Rng::new(l.seed, 100 + worker);
                    ctx.set_pc(0x43_0000);
                    for _ in 0..l.swaps_per_thread {
                        let a = rng.below(l.elements);
                        let b = rng.below(l.elements);
                        let (addr_a, addr_b) = (l.array.add(a * 8), l.array.add(b * 8));
                        t.span(Op::Lock, || lock.lock(ctx));
                        let la = t.span(Op::Read, || ctx.read_u64(addr_a));
                        let lb = t.span(Op::Read, || ctx.read_u64(addr_b));
                        let before = la.abs_diff(a) + lb.abs_diff(b);
                        let after = lb.abs_diff(a) + la.abs_diff(b);
                        let accept = after < before || rng.percent(10);
                        t.span(Op::Branch, || ctx.branch(accept));
                        if accept {
                            t.span(Op::Write, || ctx.write_u64(addr_a, lb));
                            t.span(Op::Write, || ctx.write_u64(addr_b, la));
                        }
                        t.span(Op::Unlock, || lock.unlock(ctx));
                    }
                    t.end();
                })
            });
            handles.push(handle);
        }
        for h in handles {
            t.span(Op::Join, || ctx.join(h));
        }
        t.end();
    }

    fn output(session: &InspectorSession, l: SwapLayout) -> Vec<u64> {
        let mut v: Vec<u64> = (0..l.elements)
            .map(|i| session.image().read_u64_direct(l.array.add(i * 8)))
            .collect();
        v.sort_unstable();
        v
    }

    /// Only the permutation property: the final order depends on how the
    /// two threads interleave, so it is not compared with the native run.
    fn check(_: &SwapInput, _: usize, tracked: &Vec<u64>, _: &Vec<u64>) -> Result<(), String> {
        match tracked.iter().enumerate().find(|&(i, &v)| v != i as u64) {
            None => Ok(()),
            Some((i, v)) => Err(format!("placement is no permutation: sorted[{i}] = {v}")),
        }
    }

    fn corrupt(session: &InspectorSession, l: SwapLayout) {
        let second = session.image().read_u64_direct(l.array.add(8));
        session.image().write_u64_direct(l.array, second);
    }

    fn taint_sources(l: SwapLayout) -> (PageId, u64) {
        let (first, count) = pages_of(l.array, l.elements * 8);
        (first, count.div_ceil(8))
    }
}
