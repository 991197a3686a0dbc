//! Per-layer driver of the repository benchmark (`perfbench/run.py`).
//!
//! It links the workspace crates and times calls into each crate's public
//! functions on one benchmark workload's own inputs (the same experiment
//! specs, scale and seed `momlab` runs for that workload). It prints one JSON
//! object of per-layer unit costs on stdout. `run.py --trace 1` combines these
//! unit costs with the counts in the `momlab` documents into the per-layer
//! ledger; `perfbench/README.md` maps each metric to the end-to-end metric it
//! should move.
//!
//! ```text
//! perfbench-layers --workload NAME --work-dir DIR [--seed N]
//! ```
//!
//! Every timed loop runs `PASSES` times and each metric reports the median
//! pass. Allocation figures come from a counting global allocator and are
//! exact counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mom_apps::{build_app, stream_app, AppParams};
use mom_core::{ExecCursor, ExecError};
use mom_cpu::{MachineDescriptor, OooCore};
use mom_isa::codec::{CodecError, Decoder, Encoder};
use mom_isa::trace::{Broadcast, DynInst, IsaKind, MemAccess, Trace, TraceSink};
use mom_kernels::{build_kernel, KernelParams};
use mom_lab::cache::{CellCache, CellKey, CellRecord};
use mom_lab::json::Value;
use mom_lab::runner::{self, ExecMode};
use mom_lab::spec::{ExperimentKind, ExperimentSpec, Workload, BUILTIN_EXPERIMENTS};
use mom_mem::{build_memory, AccessCause, MemModelKind, MemSystemStats, MemorySystem};

/// Dynamic instructions a streaming or fast-forward measurement runs per
/// functional pass at most (these keep no trace, so memory stays flat).
const STREAM_CAP: usize = 2_000_000;

/// Dynamic instructions a materialized trace holds at most; every feed,
/// broadcast and memory measurement replays this prefix of the stream.
const TRACE_CAP: usize = 200_000;

/// Instructions per `emit_batch` call, as the interpreter's chunk buffer.
const CHUNK: usize = 64;

/// Passes over every measurement; each metric reports the median pass.
const PASSES: usize = 3;

/// `Program::decode` calls per kernel, so one measurement spans more than a
/// few microseconds.
const DECODE_REPS: usize = 16;

// ---------------------------------------------------------------------------
// Counting allocator

/// Counts every heap allocation of the process, so the per-layer allocation
/// rates are exact, repeatable counts rather than timings.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

fn note_alloc(size: usize) {
    // The counters publish no other data, so relaxed ordering suffices.
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards the caller's pointer and layout unchanged to
// the system allocator, which upholds the `GlobalAlloc` contract; the extra
// work is arithmetic on atomic counters, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: forwarded verbatim; the caller guarantees a nonzero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller passes a block this allocator returned with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller passes a block this allocator returned with
        // this layout, and a nonzero new size.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A snapshot of the allocation counters.
#[derive(Clone, Copy)]
struct AllocSnapshot {
    allocs: u64,
    bytes: u64,
    live: u64,
}

impl AllocSnapshot {
    fn now() -> Self {
        Self {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: ALLOC_BYTES.load(Ordering::Relaxed),
            live: LIVE_BYTES.load(Ordering::Relaxed),
        }
    }

    /// Allocations, allocated bytes and growth of live bytes since `self`.
    fn since(self) -> (f64, f64, f64) {
        let now = Self::now();
        (
            (now.allocs - self.allocs) as f64,
            (now.bytes - self.bytes) as f64,
            now.live.wrapping_sub(self.live) as i64 as f64,
        )
    }
}

// ---------------------------------------------------------------------------
// Workloads

/// What `momlab` runs for one benchmark workload (mirrors `run.py`).
struct BenchWorkload {
    specs: Vec<ExperimentSpec>,
    mode: ExecMode,
    workers: usize,
}

fn bench_workload(name: &str, seed: u64) -> Result<BenchWorkload, String> {
    let sampled = ExecMode::Sampled {
        unit_insts: runner::DEFAULT_SAMPLE_UNIT,
        warmup_insts: runner::DEFAULT_SAMPLE_WARMUP,
        period: runner::DEFAULT_SAMPLE_PERIOD,
    };
    let (experiments, mode, workers): (Vec<(&str, usize)>, ExecMode, usize) = match name {
        "paper-grid" | "warm-rerun" => (
            BUILTIN_EXPERIMENTS.iter().map(|&n| (n, 1)).collect(),
            ExecMode::Fanout,
            1,
        ),
        "stress-long" => (vec![("stress", 2)], ExecMode::Fanout, 1),
        "sampled-long" => (vec![("stress", 4), ("figure7", 1)], sampled, 1),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let specs = experiments
        .into_iter()
        .map(|(experiment, scale)| seeded(experiment, scale, seed))
        .collect();
    Ok(BenchWorkload {
        specs,
        mode,
        workers,
    })
}

/// A built-in experiment with its grid seed overridden, as `momlab --seed`
/// does.
fn seeded(experiment: &str, scale: usize, seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::builtin(experiment, scale, false).expect("built-in experiment");
    if let ExperimentKind::Grid(grid) = &mut spec.kind {
        grid.seed = seed;
    }
    spec
}

/// One functional pass of a grid: a workload compiled for one ISA and the
/// machines that consume its instruction stream.
struct Group {
    workload: Workload,
    isa: IsaKind,
    scale: usize,
    seed: u64,
    members: Vec<MachineDescriptor>,
}

fn groups(specs: &[ExperimentSpec]) -> Vec<Group> {
    let mut out = Vec::new();
    for grid in specs.iter().filter_map(ExperimentSpec::grid) {
        let cells = grid.cells();
        for &workload in &grid.workloads {
            for isa in grid.isas() {
                let members = cells
                    .iter()
                    .filter(|c| c.workload == workload && grid.configs[c.config].isa == isa)
                    .map(|c| grid.configs[c.config].descriptor(c.way))
                    .collect();
                out.push(Group {
                    workload,
                    isa,
                    scale: grid.scale,
                    seed: grid.seed,
                    members,
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Measurement plumbing

/// Sums of (nanoseconds or counter, units of work) per metric key, for one
/// pass.
#[derive(Default)]
struct Tally(BTreeMap<String, (f64, f64)>);

impl Tally {
    fn add(&mut self, key: impl Into<String>, value: f64, units: f64) {
        let entry = self.0.entry(key.into()).or_insert((0.0, 0.0));
        entry.0 += value;
        entry.1 += units;
    }

    fn ratio(&self, key: &str) -> Option<f64> {
        self.0
            .get(key)
            .filter(|(_, units)| *units > 0.0)
            .map(|(value, units)| value / units)
    }
}

fn elapsed_ns(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// Instructions a fuel-bounded run executed; running out of fuel is how a
/// capped measurement ends.
fn executed(result: Result<usize, ExecError>) -> f64 {
    match result {
        Ok(n) | Err(ExecError::FuelExhausted { executed: n }) => n as f64,
    }
}

/// A sink that drops every instruction, so a measurement sees only the cost
/// of the producer.
#[derive(Clone, Default)]
struct Discard(u64);

impl TraceSink for Discard {
    fn emit(&mut self, inst: DynInst) {
        black_box(&inst);
        self.0 += 1;
    }

    fn emit_ref(&mut self, inst: &DynInst) {
        black_box(inst);
        self.0 += 1;
    }

    fn emit_batch(&mut self, insts: &[DynInst]) {
        self.0 += black_box(insts).len() as u64;
    }
}

/// One recorded `MemorySystem::access` call.
#[derive(Debug)]
struct Call {
    cycle: u64,
    start: usize,
    len: usize,
    vector: bool,
}

/// A memory system that forwards to a real model and records every call, so
/// the same calls can be replayed against a fresh model and timed alone.
#[derive(Debug)]
struct Recorder {
    inner: Box<dyn MemorySystem>,
    calls: Vec<Call>,
    accesses: Vec<MemAccess>,
}

impl MemorySystem for Recorder {
    fn access(&mut self, cycle: u64, accesses: &[MemAccess], vector: bool) -> Option<u64> {
        self.calls.push(Call {
            cycle,
            start: self.accesses.len(),
            len: accesses.len(),
            vector,
        });
        self.accesses.extend_from_slice(accesses);
        self.inner.access(cycle, accesses, vector)
    }

    fn kind(&self) -> MemModelKind {
        self.inner.kind()
    }

    fn last_access_cause(&self) -> AccessCause {
        self.inner.last_access_cause()
    }

    fn stats(&self) -> MemSystemStats {
        self.inner.stats()
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.calls.clear();
        self.accesses.clear();
    }

    fn save_state(&self, e: &mut Encoder) {
        self.inner.save_state(e);
    }

    fn load_state(&mut self, d: &mut Decoder<'_>) -> Result<(), CodecError> {
        self.inner.load_state(d)
    }
}

// ---------------------------------------------------------------------------
// Layer measurements

/// Functional layers of one group: build (`mom-kernels` / `mom-apps`),
/// decode, streaming and fast-forward (`mom-core`), and materialization
/// (`mom-isa` traces). Returns the materialized trace prefix.
fn functional_layers(g: &Group, t: &mut Tally) -> Trace {
    let isa = g.isa.label();
    match g.workload {
        Workload::Kernel(kind) => {
            // Each measurement runs on a freshly built kernel: building is
            // cheap, while cloning a built machine copies its whole memory
            // image.
            let params = KernelParams {
                seed: g.seed,
                scale: g.scale,
            };
            let start = Instant::now();
            let built = black_box(build_kernel(kind, g.isa, &params));
            t.add("kernels.build", elapsed_ns(start), 1.0);

            let start = Instant::now();
            for _ in 0..DECODE_REPS {
                black_box(built.program.decode());
            }
            t.add(
                "core.decode",
                elapsed_ns(start),
                (DECODE_REPS * built.program.len()) as f64,
            );
            let decoded = built.program.decode();

            let mut machine = built.machine;
            let mut sink = Discard::default();
            let before = AllocSnapshot::now();
            let start = Instant::now();
            let n = executed(decoded.stream_with_fuel(&mut machine, &mut sink, STREAM_CAP));
            let ns = elapsed_ns(start);
            let (allocs, bytes, _) = before.since();
            t.add(format!("core.stream.{isa}"), ns, n);
            t.add("core.stream_allocs", allocs, n);
            t.add("core.stream_alloc_bytes", bytes, n);

            let mut machine = build_kernel(kind, g.isa, &params).machine;
            let mut cursor = ExecCursor::start();
            let start = Instant::now();
            let n = decoded.fast_forward(&mut machine, &mut cursor, STREAM_CAP as u64);
            t.add(
                format!("core.fast_forward.{isa}"),
                elapsed_ns(start),
                n as f64,
            );

            // The `BuiltKernel::run` path: `Program::stream` into a `Trace`,
            // capped so long streams stay within memory.
            let built = build_kernel(kind, g.isa, &params);
            let mut machine = built.machine;
            let mut trace = Trace::new(g.isa);
            let before = AllocSnapshot::now();
            let start = Instant::now();
            let n = executed(
                built
                    .program
                    .stream_with_fuel(&mut machine, &mut trace, TRACE_CAP),
            );
            let ns = elapsed_ns(start);
            let (allocs, bytes, live) = before.since();
            t.add("isa.materialize", ns, n);
            t.add("isa.materialize_allocs", allocs, n);
            t.add("isa.materialize_alloc_bytes", bytes, n);
            t.add("isa.trace_bytes", live, n);
            trace
        }
        Workload::App(kind) => {
            let params = AppParams {
                seed: g.seed,
                scale: g.scale,
            };
            // The functional pass the runner makes: every phase streamed
            // into a sink, no trace kept.
            let start = Instant::now();
            stream_app(kind, g.isa, &params, &mut Discard::default())
                .expect("application runs and verifies");
            t.add("apps.stream", elapsed_ns(start), 1.0);

            let start = Instant::now();
            let app = build_app(kind, g.isa, &params).expect("application builds and verifies");
            t.add("apps.build", elapsed_ns(start), 1.0);
            let mut trace = app.trace;
            trace.insts.truncate(TRACE_CAP);
            trace
        }
    }
}

/// Fan-out (`mom-isa` `Broadcast`) and timing feed (`mom-cpu`) of one group's
/// trace prefix, probe off and on, on every member machine.
fn timing_layers(g: &Group, trace: &Trace, t: &mut Tally) {
    let isa = g.isa.label();
    let insts = trace.insts.len() as f64;

    let mut fan = Broadcast::new(vec![Discard::default(); g.members.len()]);
    let start = Instant::now();
    for chunk in trace.insts.chunks(CHUNK) {
        fan.emit_batch(chunk);
    }
    t.add(
        "isa.broadcast",
        elapsed_ns(start),
        insts * g.members.len() as f64,
    );
    black_box(fan.into_inner());

    // Alternate which of the two feeds runs first, so neither gains from the
    // other warming the caches.
    for (i, desc) in g.members.iter().enumerate() {
        let mut machine = desc.build();
        for probed in [i % 2 == 0, i % 2 != 0] {
            machine.reset();
            if probed {
                let before = AllocSnapshot::now();
                let start = Instant::now();
                black_box(machine.simulate_trace_probed(trace));
                let ns = elapsed_ns(start);
                let (allocs, bytes, _) = before.since();
                t.add(format!("cpu.feed_probed.{isa}"), ns, insts);
                t.add("cpu.feed_allocs", allocs, insts);
                t.add("cpu.feed_alloc_bytes", bytes, insts);
            } else {
                let start = Instant::now();
                black_box(machine.simulate_trace(trace));
                t.add(format!("cpu.feed.{isa}"), elapsed_ns(start), insts);
            }
        }
    }
}

/// The `mom-mem` models of Figure 7: record the access calls a member machine
/// makes while simulating the trace prefix, then replay them alone against a
/// fresh model of the same kind.
fn memory_layers(g: &Group, trace: &Trace, t: &mut Tally) {
    for desc in g
        .members
        .iter()
        .filter(|d| !matches!(d.mem, MemModelKind::Perfect { .. }))
    {
        let way = desc.core.way;
        let mut config = desc.core.clone();
        config.phys_regs = desc.regs.phys;
        let core = OooCore::with_latencies(config, desc.latencies);
        let mut recorder = Recorder {
            inner: build_memory(desc.mem, way),
            calls: Vec::new(),
            accesses: Vec::new(),
        };
        let mut sim = core.stream(&mut recorder);
        for inst in &trace.insts {
            sim.feed(inst);
        }
        black_box(sim.finish());

        let mut fresh = build_memory(desc.mem, way);
        let mut rejected = 0u64;
        let start = Instant::now();
        for call in &recorder.calls {
            let accesses = &recorder.accesses[call.start..call.start + call.len];
            if fresh.access(call.cycle, accesses, call.vector).is_none() {
                rejected += 1;
            }
        }
        let ns = elapsed_ns(start);
        let calls = recorder.calls.len() as f64;
        let model = desc.mem.label();
        let stats = fresh.stats();
        t.add(format!("mem.access.{model}"), ns, calls);
        t.add(format!("mem.rejected.{model}"), rejected as f64, calls);
        let l1 = (stats.l1.hits + stats.l1.misses) as f64;
        t.add(format!("mem.l1_hits.{model}"), stats.l1.hits as f64, l1);
        let l2 = (stats.l2.hits + stats.l2.misses) as f64;
        t.add(format!("mem.l2_hits.{model}"), stats.l2.hits as f64, l2);
    }
}

/// `mom-lab` and the record codec: run the workload once into a fresh cell
/// cache, then time document assembly, record loads, record stores and the
/// `CellRecord` codec over the real records, `PASSES` times each.
fn lab_layers(w: &BenchWorkload, work: &Path) -> Vec<Tally> {
    let fill_dir = work.join("fill");
    let store_dir = work.join("store");
    let _ = std::fs::remove_dir_all(&fill_dir);
    let cache = CellCache::open(&fill_dir).expect("cache directory is writable");
    let results: Vec<_> = w
        .specs
        .iter()
        .map(|spec| runner::run_cached(spec, w.workers, w.mode, false, None, Some(&cache)))
        .collect();
    let cells: usize = results
        .iter()
        .map(|r| r.cells().map_or(0, <[_]>::len))
        .sum();
    let keys: Vec<CellKey> = cache
        .entries()
        .expect("cache directory is readable")
        .into_iter()
        .filter_map(|entry| entry.key)
        .collect();

    let mut tallies = Vec::new();
    for _ in 0..PASSES {
        let mut t = Tally::default();
        let start = Instant::now();
        for result in &results {
            black_box(result.document_json().to_pretty());
        }
        t.add("lab.document", elapsed_ns(start), cells as f64);

        let start = Instant::now();
        let records: Vec<CellRecord> = keys
            .iter()
            .map(|key| cache.load(key).expect("a record the fill just stored"))
            .collect();
        t.add("lab.cache_load", elapsed_ns(start), keys.len() as f64);

        let start = Instant::now();
        let mut bytes = 0usize;
        for (key, record) in keys.iter().zip(&records) {
            let encoded = record.to_bytes(key);
            bytes += encoded.len();
            black_box(CellRecord::from_bytes(&encoded).expect("record round-trips"));
        }
        t.add("isa.codec", elapsed_ns(start), bytes as f64);

        let _ = std::fs::remove_dir_all(&store_dir);
        let store = CellCache::open(&store_dir).expect("cache directory is writable");
        let start = Instant::now();
        for (key, record) in keys.iter().zip(&records) {
            store.store(key, record);
        }
        t.add("lab.cache_store", elapsed_ns(start), keys.len() as f64);
        tallies.push(t);
    }
    let _ = std::fs::remove_dir_all(&fill_dir);
    let _ = std::fs::remove_dir_all(&store_dir);
    tallies
}

// ---------------------------------------------------------------------------
// Reporting

fn median(mut values: Vec<f64>) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    })
}

/// The median over passes of one tally key's ratio, times `scale`.
fn metric(passes: &[Tally], key: &str, scale: f64) -> Option<f64> {
    median(passes.iter().filter_map(|t| t.ratio(key)).collect()).map(|v| v * scale)
}

/// The named per-layer metrics, from the per-pass tallies.
fn report(passes: &[Tally]) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: String, value: Option<f64>| {
        if let Some(v) = value {
            out.push((name, v));
        }
    };
    put(
        "kernels.build_us_per_cell".into(),
        metric(passes, "kernels.build", 1e-3),
    );
    put(
        "apps.build_us_per_cell".into(),
        metric(passes, "apps.build", 1e-3),
    );
    put(
        "apps.stream_us_per_cell".into(),
        metric(passes, "apps.stream", 1e-3),
    );
    put(
        "core.decode_ns_per_static_inst".into(),
        metric(passes, "core.decode", 1.0),
    );
    put(
        "core.allocs_per_kinst".into(),
        metric(passes, "core.stream_allocs", 1e3),
    );
    put(
        "core.alloc_bytes_per_kinst".into(),
        metric(passes, "core.stream_alloc_bytes", 1e3),
    );
    put(
        "isa.broadcast_ns_per_member_inst".into(),
        metric(passes, "isa.broadcast", 1.0),
    );
    put(
        "isa.materialize_ns_per_inst".into(),
        metric(passes, "isa.materialize", 1.0),
    );
    put(
        "isa.trace_bytes_per_inst".into(),
        metric(passes, "isa.trace_bytes", 1.0),
    );
    put(
        "isa.materialize_allocs_per_kinst".into(),
        metric(passes, "isa.materialize_allocs", 1e3),
    );
    put(
        "isa.materialize_alloc_bytes_per_kinst".into(),
        metric(passes, "isa.materialize_alloc_bytes", 1e3),
    );
    put(
        "isa.codec_ns_per_byte".into(),
        metric(passes, "isa.codec", 1.0),
    );
    put(
        "cpu.feed_allocs_per_kinst".into(),
        metric(passes, "cpu.feed_allocs", 1e3),
    );
    put(
        "cpu.feed_alloc_bytes_per_kinst".into(),
        metric(passes, "cpu.feed_alloc_bytes", 1e3),
    );
    for isa in IsaKind::ALL {
        let isa = isa.label();
        put(
            format!("core.stream_ns_per_inst.{isa}"),
            metric(passes, &format!("core.stream.{isa}"), 1.0),
        );
        put(
            format!("core.fast_forward_ns_per_inst.{isa}"),
            metric(passes, &format!("core.fast_forward.{isa}"), 1.0),
        );
        put(
            format!("cpu.feed_ns_per_inst.{isa}"),
            metric(passes, &format!("cpu.feed.{isa}"), 1.0),
        );
        put(
            format!("cpu.feed_probed_ns_per_inst.{isa}"),
            metric(passes, &format!("cpu.feed_probed.{isa}"), 1.0),
        );
    }
    // Probe cost over every ISA's feed together: probed time against
    // unprobed time on the same traces and machines, pass by pass.
    let overhead = passes
        .iter()
        .map(|t| {
            let sum = |prefix: &str| -> f64 {
                t.0.iter()
                    .filter(|(k, _)| k.starts_with(prefix))
                    .map(|(_, (ns, _))| ns)
                    .sum()
            };
            (sum("cpu.feed_probed.") / sum("cpu.feed.") - 1.0) * 100.0
        })
        .collect();
    put("cpu.probe_overhead_pct".into(), median(overhead));
    for model in [
        MemModelKind::Conventional,
        MemModelKind::MultiAddress,
        MemModelKind::VectorCache,
        MemModelKind::CollapsingBuffer,
    ] {
        let model = model.label();
        put(
            format!("mem.access_ns.{model}"),
            metric(passes, &format!("mem.access.{model}"), 1.0),
        );
        put(
            format!("mem.l1_hit_ratio.{model}"),
            metric(passes, &format!("mem.l1_hits.{model}"), 1.0),
        );
        put(
            format!("mem.l2_hit_ratio.{model}"),
            metric(passes, &format!("mem.l2_hits.{model}"), 1.0),
        );
        put(
            format!("mem.rejected_access_ratio.{model}"),
            metric(passes, &format!("mem.rejected.{model}"), 1.0),
        );
    }
    put(
        "lab.document_us_per_cell".into(),
        metric(passes, "lab.document", 1e-3),
    );
    put(
        "lab.cache_load_us_per_record".into(),
        metric(passes, "lab.cache_load", 1e-3),
    );
    put(
        "lab.cache_store_us_per_record".into(),
        metric(passes, "lab.cache_store", 1e-3),
    );
    out
}

struct Args {
    workload: String,
    seed: u64,
    work_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut work_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (args, workload) =
        match parse_args(&args).and_then(|a| bench_workload(&a.workload, a.seed).map(|w| (a, w))) {
            Ok(parsed) => parsed,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!("usage: perfbench-layers --workload NAME --work-dir DIR [--seed N]");
                return ExitCode::from(2);
            }
        };
    let work_groups = groups(&workload.specs);
    // Figure 7's access streams feed the memory models on every workload,
    // so each reports the same `mem.*` metrics.
    let figure7 = groups(&[seeded("figure7", 1, args.seed)]);

    let mut passes: Vec<Tally> = Vec::new();
    for _ in 0..PASSES {
        let mut t = Tally::default();
        for g in &work_groups {
            let trace = functional_layers(g, &mut t);
            timing_layers(g, &trace, &mut t);
        }
        let mut f7 = Tally::default();
        for g in &figure7 {
            let trace = functional_layers(g, &mut f7);
            memory_layers(g, &trace, &mut t);
        }
        // A workload without applications reports Figure 7's costs.
        for key in ["apps.build", "apps.stream"] {
            if let Some(apps) = f7.0.remove(key) {
                t.0.entry(key.into()).or_insert(apps);
            }
        }
        passes.push(t);
    }
    for (pass, lab) in passes.iter_mut().zip(lab_layers(&workload, &args.work_dir)) {
        pass.0.extend(lab.0);
    }

    let metrics = report(&passes)
        .into_iter()
        .map(|(k, v)| (k, Value::Float(v)))
        .collect();
    println!("{}", Value::Object(metrics).to_compact());
    ExitCode::SUCCESS
}
