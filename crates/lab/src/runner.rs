//! The parallel experiment runner.
//!
//! Grid experiments run in one of four execution modes ([`ExecMode`]):
//!
//! * [`ExecMode::Fanout`] — **the default**: the grid's cells are regrouped
//!   into `(workload, ISA)` groups; each group runs **one** functional
//!   interpretation of its workload (kernels verified against the golden
//!   reference) whose graduated instructions fan out to the streaming
//!   timing simulators of every member machine configuration. The
//!   interpreter's work is amortized across the whole group — Figure 5's
//!   128 cells cost 32 functional passes — and no trace is ever
//!   materialized. With 2+ workers the fan-out is **pipelined**: the
//!   interpreter publishes `DynInst`
//!   batches into bounded per-member channels and each member simulates on
//!   its own worker, with backpressure keeping peak memory per group at
//!   `members x O(ROB + batch x capacity)`. One worker falls back to
//!   driving a serial `Broadcast` on the interpreter's thread.
//! * [`ExecMode::Streamed`] — the fused per-cell pipeline of the streaming
//!   era: every cell re-interprets its workload and graduates instructions
//!   straight into its own simulator, O(ROB) per cell.
//! * [`ExecMode::Materialized`] — the classic two-stage path: build every
//!   distinct `(workload, ISA)` trace once, then replay it per cell.
//! * [`ExecMode::Sampled`] — SMARTS-style statistical sampling over the
//!   same fan-out groups: each group interprets its workload once, every
//!   member machine simulates its own detailed warm-up and measurement
//!   windows, and the functional fast-forward between windows runs once
//!   for the whole group, so wall-clock scales with the number of samples
//!   instead of the workload length. Results are **estimates** (reported
//!   with per-cell confidence intervals in a `sampling` results section) —
//!   except at sampling rate 1 (`period == 0`), which routes through the
//!   streamed code path and is byte-identical to the exact modes. Sampled
//!   kernel cells can persist [`Checkpoint`]s between periods (see
//!   [`CheckpointConfig`]) and resume from them bit-exactly.
//!
//! The three exact modes are **byte-identical** in their results — the
//! determinism guarantee below covers the execution mode as well as the
//! worker count — and the chosen mode is recorded only in the JSON `meta`
//! section, along with the functional-sharing accounting
//! (`meta.shared_passes`). Sampled runs (period > 0) are equally
//! deterministic for fixed sampling parameters, but their cell results are
//! statistical estimates, not the exact cycle counts.
//!
//! Machines are built from the declarative [`MachineDescriptor`] resolved by
//! each grid cell and **reused across work units**: every worker keeps a
//! pool of instantiated machines keyed by descriptor and `reset()`s them
//! between cells instead of reallocating predictor tables, ring buffers and
//! cache arrays (a reset machine is bit-identical to a fresh one; the
//! `mom-cpu`/`mom-mem` test suites pin that property).
//!
//! Work is distributed by a shared atomic cursor (idle workers steal the next
//! unclaimed index), and every result is written back to the slot of its cell
//! index. Since each cell's simulation is a pure function of the spec, the
//! result vector — and therefore the JSON document — is **bit-identical**
//! regardless of worker count or scheduling. [`determinism`] states the
//! guarantee; `tests/determinism.rs` enforces it.
//!
//! [`determinism`]: self#determinism
//!
//! # Determinism
//!
//! For any spec `s`, worker counts `a, b >= 1` and **exact** execution modes
//! `m, n` (everything except `Sampled` with `period > 0`):
//! `run_with_mode(&s, a, m).results_json() ==
//! run_with_mode(&s, b, n).results_json()` — byte-for-byte. Only the `meta`
//! section of the full document (wall-clock, worker count, mode, sharing
//! accounting) may differ between runs. A sampled run is byte-identical to
//! another sampled run with the same parameters at any worker count, and at
//! `period == 0` byte-identical to the exact modes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mom_apps::{stream_app, stream_app_multi, stream_app_pipelined, AppKind, AppParams};
use mom_core::{snapshot, ExecCursor, Machine};
use mom_cpu::{
    AttributionProbe, Checkpoint, IntervalStats, MachineDescriptor, ProbeReport, SimMachine,
    SimResult, SimStream, StallBreakdown,
};
use mom_isa::codec::{CodecError, Decoder, Encoder};
use mom_isa::pipe::{batch_channel, BatchReceiver, BatchSink};
use mom_isa::trace::{Broadcast, DynInst, IsaKind, Trace, TraceSink};
use mom_kernels::{build_kernel, BuiltKernel, KernelKind, KernelParams};
use mom_mem::cache::CacheStats;
use mom_mem::{MemModelKind, MemSystemStats};

use crate::cache::{engine_fingerprint, CacheMeta, CellCache, CellKey, CellRecord, SamplingKnobs};
use crate::json::Value;
use crate::spec::{BaselinePolicy, Cell, ExperimentKind, ExperimentSpec, GridSpec, Workload};
use crate::tables::{static_rows, StaticRows};

/// How a grid experiment executes its cells. The three exact modes are
/// byte-identical in their results; the mode only decides how the functional
/// interpreter's work is scheduled and shared. [`ExecMode::Sampled`] with a
/// nonzero period trades exactness for wall-clock: its cells are statistical
/// estimates with confidence intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Build every distinct `(workload, ISA)` trace once, replay it per cell.
    Materialized,
    /// Fused per-cell pipeline: each cell re-interprets its workload straight
    /// into its simulator (O(ROB) per cell, one functional pass per cell).
    Streamed,
    /// Shared-functional-pass fan-out (the default): one interpretation per
    /// `(workload, ISA)` group broadcast to all member simulators.
    ///
    /// Note the parallel work unit coarsens from cells to groups: a grid
    /// whose group count is below the worker count leaves workers idle
    /// (the full `sweep` is 4 groups), trading wall-clock parallelism for
    /// the amortized functional work. On hosts with many cores and
    /// simulation-bound grids, `Streamed`/`Materialized` keep per-cell
    /// parallelism at the cost of per-cell interpretation.
    Fanout,
    /// SMARTS-style sampled simulation: every sampling period of
    /// `period` dynamic instructions opens with `warmup_insts` of detailed
    /// but unmeasured simulation (warming the predictor, caches and ROB),
    /// followed by a measured unit of `unit_insts`, and the remainder of the
    /// period is functionally fast-forwarded (architectural state advances;
    /// the timing simulator sees nothing). Per-cell IPC is estimated as the
    /// mean of the unit IPCs with a 95% confidence interval; the cycle count
    /// in the results is `total_insts / ipc_mean`.
    ///
    /// The work unit is the [`ExecMode::Fanout`] group: one functional pass
    /// (and, for kernels, one fast-forward per period) serves every member
    /// machine of a `(workload, ISA)` group, while each member is fed
    /// exactly the detailed windows it would see alone — so a cell's
    /// estimate never depends on which machines share its group.
    ///
    /// `period == 0` is the **rate-1 sentinel**: every instruction is
    /// simulated in detail and the run routes through the exact streamed
    /// code path, making the results byte-identical to [`ExecMode::Streamed`]
    /// (the correctness gate of the sampling machinery). Otherwise `period`
    /// must be at least `warmup_insts + unit_insts` and `unit_insts` at
    /// least 1.
    Sampled {
        /// Detailed, measured instructions per sampling unit.
        unit_insts: u64,
        /// Detailed, unmeasured warm-up instructions preceding each unit.
        warmup_insts: u64,
        /// Sampling period in dynamic instructions (0 = measure everything).
        period: u64,
    },
}

/// Default measured-unit length of `--sampled` (dynamic instructions).
pub const DEFAULT_SAMPLE_UNIT: u64 = 1_000;
/// Default detailed warm-up preceding each measured unit.
pub const DEFAULT_SAMPLE_WARMUP: u64 = 2_000;
/// Default sampling period: one `warmup + unit` window every 100k
/// instructions, i.e. 3% of the workload simulated in detail.
pub const DEFAULT_SAMPLE_PERIOD: u64 = 100_000;

impl ExecMode {
    /// The `meta.mode` label of the JSON schema.
    pub fn label(self) -> &'static str {
        match self {
            ExecMode::Materialized => "materialized",
            ExecMode::Streamed => "streamed",
            ExecMode::Fanout => "fanout",
            ExecMode::Sampled { .. } => "sampled",
        }
    }

    /// Whether instructions graduate straight into the simulators without a
    /// materialized trace (the `meta.streamed` flag of the JSON schema).
    pub fn is_streamed(self) -> bool {
        !matches!(self, ExecMode::Materialized)
    }

    /// Whether this mode produces statistical estimates instead of exact
    /// cycle counts (`Sampled` with a nonzero period).
    pub fn is_estimated(self) -> bool {
        matches!(self, ExecMode::Sampled { period, .. } if period > 0)
    }
}

/// Results of one simulated grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The workload that ran.
    pub workload: Workload,
    /// Label of the machine configuration (unique within the spec).
    pub config_label: String,
    /// The ISA of the configuration.
    pub isa: IsaKind,
    /// The memory model of the configuration.
    pub mem: MemModelKind,
    /// Issue width.
    pub way: usize,
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed dynamic instructions.
    pub instructions: u64,
    /// Branches executed.
    pub branches: u64,
    /// Branch mispredictions.
    pub mispredictions: u64,
    /// Element-level memory accesses.
    pub mem_accesses: u64,
    /// Speed-up versus the spec's baseline cell (`None` when the baseline
    /// policy is [`BaselinePolicy::None`]).
    pub speedup: Option<f64>,
    /// Per-cause stall attribution of every simulated cycle; the components
    /// sum exactly to `cycles` (the attribution probe pins that invariant)
    /// and, like every other field of `results`, are byte-identical across
    /// execution modes and worker counts.
    pub breakdown: StallBreakdown,
    /// The windowed timeline of the run: IPC and dominant stall cause per
    /// fixed-width commit-cycle window.
    pub intervals: IntervalStats,
    /// Memory-system statistics of the cell's machine (hit rates, MSHR
    /// stalls, DRAM traffic), captured before the machine returns to its
    /// worker pool.
    pub mem_stats: MemSystemStats,
    /// Sampling accounting of the cell when it ran under [`ExecMode::Sampled`]
    /// with a nonzero period (`None` in the exact modes): how much of the
    /// stream was measured, and the IPC estimate with its confidence
    /// interval.
    pub sampling: Option<CellSampling>,
}

/// Per-cell accounting of one [`ExecMode::Sampled`] run: how many measurement
/// units closed, how much of the dynamic instruction stream they covered,
/// and the IPC estimate they produced.
///
/// In this mode the cell's `cycles` is derived as `total_insts / ipc_mean`,
/// its committed-instruction count stays exact (the functional interpreter
/// executes the whole workload either way), and its stall breakdown and
/// interval timeline cover only the detailed windows — not the
/// fast-forwarded remainder.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSampling {
    /// Measurement units that closed with at least one committed instruction.
    pub units_measured: u64,
    /// Committed dynamic instructions inside the measured units.
    pub measured_insts: u64,
    /// Dynamic instructions spent on detailed (unmeasured) warm-up.
    pub warmup_insts: u64,
    /// Total dynamic instructions of the cell's workload.
    pub total_insts: u64,
    /// Mean IPC over the measured units (the estimate behind the cell's
    /// reported `cycles`).
    pub ipc_mean: f64,
    /// Half-width of the 95% confidence interval around `ipc_mean` (zero
    /// when fewer than two units were measured).
    pub ipc_ci95: f64,
}

impl CellResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Branch misprediction rate in `[0, 1]`; zero when no branches ran.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.branches as f64
        }
    }
}

/// The data produced by one experiment run.
#[derive(Debug, Clone)]
pub enum RunData {
    /// Per-cell simulation results, in [`GridSpec::cells`] order.
    Grid(Vec<CellResult>),
    /// The rows of a config-derived table.
    Static(StaticRows),
}

/// A completed experiment run: the results plus reproducibility metadata.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The spec that ran (owned copy, so reports need no extra context).
    pub spec: ExperimentSpec,
    /// Hash of the spec configuration (see [`ExperimentSpec::config_hash`]).
    pub config_hash: String,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock duration of the run in milliseconds.
    pub wall_ms: u64,
    /// How the grid executed (recorded in `meta` only; results are
    /// byte-identical across modes).
    pub mode: ExecMode,
    /// Per-cell wall-clock simulation time in nanoseconds, parallel to the
    /// grid cells (empty for static experiments). Feeds the `insts_per_sec`
    /// throughput figures of the JSON `meta` section; like all wall-clock
    /// data it lives outside the deterministic results. In fan-out and
    /// sampled mode every member of a `(workload, ISA)` group carries the
    /// group's shared span.
    pub cell_wall_ns: Vec<u64>,
    /// Total wall-clock nanoseconds of the distinct simulation work units
    /// (cells, or groups in fan-out and sampled mode). Unlike summing
    /// `cell_wall_ns`, this never counts a shared group span more than once.
    pub sim_wall_ns: u64,
    /// Number of functional interpreter passes the run performed: one per
    /// fan-out group in fan-out and sampled mode (per `(kernel, ISA)` for
    /// kernels, per *app* for applications — their scalar phases interpret once across
    /// all ISA lanes), one per distinct `(workload, ISA)` pair in
    /// materialized mode, one per cell in streamed mode. Zero for static
    /// experiments.
    pub functional_passes: usize,
    /// Dynamic instructions the functional interpreter actually executed
    /// (each shared pass counted once). The cells' own `instructions` sum is
    /// what per-cell interpretation would have cost; the ratio of the two is
    /// the `meta.shared_passes.sharing_factor`.
    pub functional_instructions: u64,
    /// Pipelined fan-out accounting (`Some` exactly when the pipelined
    /// scheduler ran: [`ExecMode::Fanout`] with 2+ workers). All wall-clock
    /// derived — `meta`-only, never part of the deterministic results.
    pub pipeline: Option<PipelineStats>,
    /// Scheduler spans recorded by the fan-out and sampled runners: one per
    /// work item (serial group, interpreter, consumer shard) with wall-clock
    /// extent, channel wait time and the worker that executed it. Feeds
    /// `meta.spans` and the Chrome trace export of `momlab run --trace-out`.
    /// Wall-clock data, so `meta`-only; empty in streamed/materialized modes
    /// (and the sampled rate-1 sentinel) and for static experiments.
    pub spans: Vec<SpanRec>,
    /// Machine-pool reuse accounting: machines reset-and-reused versus built
    /// fresh across all workers (`meta.pool`; wall-clock-free but scheduling
    /// dependent, so `meta`-only).
    pub pool: PoolStats,
    /// Fused µop pairs created by `Program::decode` during this run (the
    /// process-wide [`mom_core::fused_pairs_total`] counter, snapshotted
    /// around the run). Feeds `meta.engine.fused_pairs`; depends on what the
    /// run decoded, not on timing, but lives in `meta` because a warm
    /// machine pool can skip re-decoding.
    pub fused_pairs: u64,
    /// Result-cache accounting when the run had a [`CellCache`]
    /// (`meta.cache`): hits, misses, fills, store size and directory. `None`
    /// when caching was disabled, so pre-cache documents stay byte-identical.
    pub cache: Option<CacheMeta>,
    /// Which grid cells were served from the cache, parallel to the cells
    /// (empty when caching was disabled, and for static experiments). Cached
    /// cells are exempt from throughput accounting — their wall-clock is
    /// document assembly, not simulation.
    pub cached_cells: Vec<bool>,
    /// The results.
    pub data: RunData,
}

/// One recorded span of the fan-out or sampled scheduler: a work item's identity,
/// wall-clock extent relative to the grid run's epoch, and — for consumer
/// shards — the time spent blocked on the batch channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// The work item's identity (group label, or the shard's cell labels).
    pub name: String,
    /// Span category: `"serial"`, `"produce"` or `"consume"`.
    pub cat: &'static str,
    /// Index of the worker thread that executed the item.
    pub tid: usize,
    /// Start offset from the grid run's epoch, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Nanoseconds a consumer shard spent blocked on channel `recv` (zero
    /// for producer and serial items).
    pub wait_ns: u64,
    /// Instructions the functional interpreter executed inside this span
    /// (zero for consumer shards).
    pub insts: u64,
}

/// Machine-pool reuse counters of one run (recorded under `meta.pool`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Machines taken from a pool and `reset()` instead of rebuilt.
    pub hits: u64,
    /// Machines built fresh because no pooled machine matched.
    pub builds: u64,
}

/// Accounting of one pipelined fan-out run, recorded under `meta.pipeline`.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineStats {
    /// Instructions per published batch ([`crate::pipeline_batch_insts`]).
    pub batch_insts: usize,
    /// Per-member channel capacity in batches
    /// ([`crate::pipeline_channel_batches`]).
    pub channel_batches: usize,
    /// Groups that ran as interpreter + consumer-shard pipelines.
    pub pipelined_groups: usize,
    /// Groups that fell back to the serial one-worker Broadcast path
    /// (application groups with more ISA lanes than the worker budget).
    pub serial_groups: usize,
    /// Fraction of consumer-shard wall-clock spent simulating rather than
    /// blocked on the channel (`None` when no group pipelined). Low
    /// occupancy means the interpreter is the bottleneck.
    pub occupancy: Option<f64>,
}

/// Default worker count: the machine's available parallelism, capped at 8
/// (the grids are small; more threads only add scheduling noise) — unless
/// the `MOM_LAB_WORKERS` environment variable overrides the cap (see
/// [`crate::worker_override`]; pipelined fan-out groups want one worker per
/// member simulator plus the interpreter, which can exceed 8). The explicit
/// `--workers` CLI flag bypasses this function entirely.
pub fn default_workers() -> usize {
    if let Some(n) = crate::worker_override() {
        return n;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
}

/// Run an experiment with [`default_workers`] in the default
/// ([`ExecMode::Fanout`]) execution mode.
pub fn run(spec: &ExperimentSpec) -> RunResult {
    run_with(spec, default_workers())
}

/// Run an experiment with an explicit worker count (`1` forces a fully
/// serial run; results are identical either way — see the
/// [module docs](self#determinism)) in the default fan-out mode.
pub fn run_with(spec: &ExperimentSpec, workers: usize) -> RunResult {
    run_with_mode(spec, workers, ExecMode::Fanout)
}

/// Run an experiment through the fused per-cell streaming pipeline
/// ([`ExecMode::Streamed`]). Results are **byte-identical** to [`run_with`]
/// — the determinism guarantee extends across execution modes.
pub fn run_streamed(spec: &ExperimentSpec, workers: usize) -> RunResult {
    run_with_mode(spec, workers, ExecMode::Streamed)
}

/// Run an experiment with an explicit worker count and [`ExecMode`].
pub fn run_with_mode(spec: &ExperimentSpec, workers: usize, mode: ExecMode) -> RunResult {
    run_with_mode_progress(spec, workers, mode, false)
}

/// Like [`run_with_mode`], optionally emitting live progress lines on stderr
/// as pipeline work items complete — each names its fan-out group and, for
/// consumer shards, reports the shard's channel occupancy (`momlab run`
/// passes its non-quiet flag here). Progress output never touches stdout or
/// the results.
pub fn run_with_mode_progress(
    spec: &ExperimentSpec,
    workers: usize,
    mode: ExecMode,
    progress: bool,
) -> RunResult {
    run_with_options(spec, workers, mode, progress, None)
}

/// Where a sampled run persists per-cell [`Checkpoint`]s, and whether it
/// should resume from checkpoint files already on disk (`momlab run
/// --checkpoint-dir` / `--resume`). Only kernel cells of
/// [`ExecMode::Sampled`] runs with a nonzero period checkpoint; every other
/// mode ignores this configuration. Files are rewritten atomically at most
/// every `CKPT_INTERVAL_INSTS` (~10M) executed instructions, plus once at
/// cell completion. Cells checkpoint as their fan-out group: every member's
/// file is written at the same instruction index, and a group resumes only
/// when all of its members' files load and agree on that index (otherwise
/// it starts from zero).
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory the checkpoint files live in (created if missing).
    pub dir: PathBuf,
    /// Resume groups from existing checkpoint files instead of starting over.
    /// A checkpoint file that does not match the spec, cell or sampling
    /// parameters fails loudly rather than silently corrupting the run.
    pub resume: bool,
}

/// Resolved checkpoint context of one sampled grid run: the user's
/// [`CheckpointConfig`] plus the identity every checkpoint file is written
/// with and validated against on resume.
#[derive(Debug)]
struct CkptContext {
    cfg: CheckpointConfig,
    spec_name: String,
    config_hash: String,
    unit: u64,
    warmup: u64,
    period: u64,
}

/// Like [`run_with_mode_progress`], with optional checkpoint persistence for
/// sampled runs.
///
/// # Panics
///
/// Panics when `mode` carries invalid sampling parameters (`unit_insts == 0`,
/// or a nonzero `period` smaller than `warmup_insts + unit_insts`), when the
/// checkpoint directory cannot be created or written, or when `resume` finds
/// a checkpoint file that does not match this run.
pub fn run_with_options(
    spec: &ExperimentSpec,
    workers: usize,
    mode: ExecMode,
    progress: bool,
    checkpoints: Option<&CheckpointConfig>,
) -> RunResult {
    run_cached(spec, workers, mode, progress, checkpoints, None)
}

/// Resolved cache context of one grid run: the store plus the run-invariant
/// key components (engine fingerprint, spec identity) every cell key is
/// built from.
struct CacheContext<'a> {
    cache: &'a CellCache,
    engine: String,
    spec_name: String,
    fast: bool,
    config_hash: String,
}

impl CacheContext<'_> {
    /// The content address of one cell under this run's mode. The three
    /// exact modes (and the sampled rate-1 sentinel) share one key per cell;
    /// estimated sampled runs key per `(unit, warmup, period)` triple.
    fn key_for(&self, grid: &GridSpec, cell: &Cell, mode: ExecMode) -> CellKey {
        let config = &grid.configs[cell.config];
        CellKey {
            engine: self.engine.clone(),
            experiment: self.spec_name.clone(),
            fast: self.fast,
            config_hash: self.config_hash.clone(),
            cell: cell_key(grid, cell),
            isa: config.isa.label().to_string(),
            mem: mem_label(config.mem),
            rob: config.rob.map(|rob| rob as u64),
            scale: grid.scale as u64,
            seed: grid.seed,
            sampling: match mode {
                ExecMode::Sampled { unit_insts, warmup_insts, period } if period > 0 => {
                    Some(SamplingKnobs { unit: unit_insts, warmup: warmup_insts, period })
                }
                _ => None,
            },
        }
    }
}

/// Cache accounting of one grid run, before it is joined with the store-wide
/// size into the [`CacheMeta`] of the result document.
struct GridCacheOutcome {
    hits: u64,
    misses: u64,
    fills: u64,
    cached: Vec<bool>,
}

/// Like [`run_with_options`], with an optional persistent content-addressed
/// cell result cache: hit cells skip interpretation and simulation entirely
/// and are rebuilt from their stored [`CellRecord`]s; miss cells simulate as
/// usual and fill the cache afterwards. The results document is byte-
/// identical either way (speed-ups are re-derived at assembly, so records
/// stay baseline-policy-agnostic), and `meta.cache` records the hit/miss/
/// fill accounting. This is the full-signature entry point `momlab run`
/// uses.
///
/// # Panics
///
/// Panics for the same reasons as [`run_with_options`], or when a cache
/// record cannot be written.
pub fn run_cached(
    spec: &ExperimentSpec,
    workers: usize,
    mode: ExecMode,
    progress: bool,
    checkpoints: Option<&CheckpointConfig>,
    cache: Option<&CellCache>,
) -> RunResult {
    if let ExecMode::Sampled { unit_insts, warmup_insts, period } = mode {
        assert!(unit_insts >= 1, "sampled mode needs a measurement unit of at least 1 instruction");
        assert!(
            period == 0 || period >= warmup_insts + unit_insts,
            "sampling period {period} is shorter than warmup {warmup_insts} + unit {unit_insts}"
        );
    }
    let ckpt = match (mode, checkpoints) {
        (ExecMode::Sampled { unit_insts, warmup_insts, period }, Some(cfg)) if period > 0 => {
            std::fs::create_dir_all(&cfg.dir).unwrap_or_else(|e| {
                panic!("cannot create checkpoint directory {}: {e}", cfg.dir.display())
            });
            Some(CkptContext {
                cfg: cfg.clone(),
                spec_name: spec.name.clone(),
                config_hash: spec.config_hash(),
                unit: unit_insts,
                warmup: warmup_insts,
                period,
            })
        }
        _ => None,
    };
    let started = Instant::now();
    let fused_before = mom_core::fused_pairs_total();
    let cache_ctx = cache.map(|store| CacheContext {
        cache: store,
        engine: engine_fingerprint(),
        spec_name: spec.name.clone(),
        fast: spec.fast,
        config_hash: spec.config_hash(),
    });
    let (data, timing, outcome) = match &spec.kind {
        ExperimentKind::Static(kind) => {
            (RunData::Static(static_rows(*kind)), GridTiming::default(), None)
        }
        ExperimentKind::Grid(grid) => {
            let (cells, timing, outcome) =
                run_grid(grid, workers.max(1), mode, progress, ckpt.as_ref(), cache_ctx.as_ref());
            (RunData::Grid(cells), timing, outcome)
        }
    };
    let fused_pairs = mom_core::fused_pairs_total().saturating_sub(fused_before);
    // The `meta.cache` section: grid accounting (zeros for a cached static
    // run — tables simulate nothing) plus the store-wide size after fills.
    let (cache_meta, cached_cells) = match (cache, outcome) {
        (Some(store), Some(outcome)) => (
            Some(CacheMeta {
                hits: outcome.hits,
                misses: outcome.misses,
                fills: outcome.fills,
                bytes: store.bytes(),
                dir: store.dir().display().to_string(),
            }),
            outcome.cached,
        ),
        (Some(store), None) => (
            Some(CacheMeta {
                bytes: store.bytes(),
                dir: store.dir().display().to_string(),
                ..CacheMeta::default()
            }),
            Vec::new(),
        ),
        (None, _) => (None, Vec::new()),
    };
    RunResult {
        spec: spec.clone(),
        config_hash: spec.config_hash(),
        workers: workers.max(1),
        wall_ms: started.elapsed().as_millis() as u64,
        mode,
        cell_wall_ns: timing.cell_wall_ns,
        sim_wall_ns: timing.sim_wall_ns,
        functional_passes: timing.functional_passes,
        functional_instructions: timing.functional_instructions,
        pipeline: timing.pipeline,
        spans: timing.spans,
        pool: timing.pool,
        fused_pairs,
        cache: cache_meta,
        cached_cells,
        data,
    }
}

/// Build the dynamic trace of one workload for one ISA. Kernels are verified
/// against the golden reference; a mismatch is a panic, exactly as in the
/// legacy harness.
fn build_trace(workload: Workload, isa: IsaKind, scale: usize, seed: u64) -> Trace {
    let mut trace = Trace::new(isa);
    interpret_into(workload, isa, scale, seed, &mut trace);
    trace
}

/// Run one workload through the functional interpreter, streaming every
/// graduated instruction into `sink` (a collecting trace, one simulator, or
/// a `Broadcast` fan-out to a whole machine group). Kernels are verified
/// against the golden reference; a failure is a panic, exactly as in the
/// legacy harness. Returns the number of instructions interpreted.
fn interpret_into<S: TraceSink + ?Sized>(
    workload: Workload,
    isa: IsaKind,
    scale: usize,
    seed: u64,
    sink: &mut S,
) -> u64 {
    match workload {
        Workload::Kernel(kernel) => {
            let params = KernelParams { seed, scale };
            build_kernel(kernel, isa, &params)
                .stream_verified(sink)
                .unwrap_or_else(|e| panic!("{kernel} ({isa}) failed verification: {e}"))
                as u64
        }
        Workload::App(app) => {
            let params = AppParams { seed, scale };
            let reports = stream_app(app, isa, &params, sink)
                .unwrap_or_else(|e| panic!("{app} ({isa}) failed to build: {e}"));
            reports.iter().map(|p| p.instructions as u64).sum()
        }
    }
}

/// Shared hit/build counters behind every [`MachinePool`] of one grid run
/// (atomics, so worker-local pools report into one place; feeds
/// [`PoolStats`]).
#[derive(Debug, Default)]
struct PoolCounters {
    hits: AtomicUsize,
    builds: AtomicUsize,
}

impl PoolCounters {
    fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed) as u64,
            builds: self.builds.load(Ordering::Relaxed) as u64,
        }
    }
}

/// A worker-local pool of instantiated machines, keyed by descriptor.
/// Machines are `reset()` on reuse instead of being rebuilt, so predictor
/// tables, ring buffers and cache arrays are allocated once per
/// (worker, descriptor) instead of once per cell.
#[derive(Debug)]
struct MachinePool<'a> {
    idle: Vec<SimMachine>,
    counters: &'a PoolCounters,
}

impl<'a> MachinePool<'a> {
    fn new(counters: &'a PoolCounters) -> Self {
        Self { idle: Vec::new(), counters }
    }

    fn take(&mut self, descriptor: &MachineDescriptor) -> SimMachine {
        match self.idle.iter().position(|m| m.descriptor() == descriptor) {
            Some(i) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                let mut machine = self.idle.swap_remove(i);
                machine.reset();
                machine
            }
            None => {
                self.counters.builds.fetch_add(1, Ordering::Relaxed);
                SimMachine::new(descriptor.clone())
            }
        }
    }

    fn put(&mut self, machines: impl IntoIterator<Item = SimMachine>) {
        self.idle.extend(machines);
    }
}

/// Everything one simulated cell hands back to the assembly stage: the
/// timing result, the verified attribution report, and the memory-system
/// statistics captured before its machine returned to the pool.
#[derive(Debug, Clone)]
struct CellSim {
    sim: SimResult,
    probe: ProbeReport,
    mem: MemSystemStats,
    /// Sampling accounting when the cell ran under [`ExecMode::Sampled`] with
    /// a nonzero period; `None` on every exact path.
    sampling: Option<CellSampling>,
}

/// Wall-clock and functional-sharing accounting of one grid run (all of it
/// `meta`-only; none of it deterministic).
#[derive(Debug, Default)]
struct GridTiming {
    cell_wall_ns: Vec<u64>,
    sim_wall_ns: u64,
    functional_passes: usize,
    functional_instructions: u64,
    pipeline: Option<PipelineStats>,
    spans: Vec<SpanRec>,
    pool: PoolStats,
}

/// One shared-functional-pass work unit of the fan-out runner: a workload
/// with one or more ISA lanes, each lane listing its member cell indices.
///
/// Kernel workloads form one group per `(kernel, ISA)` (a single lane):
/// every member consumes the identical instruction stream, so one
/// interpretation feeds them all through a `Broadcast`. Application
/// workloads form one group per app spanning **all** of its ISAs: the
/// kernel phases are interpreted per lane, but the scalar phases — identical
/// across ISAs and the bulk of the Alpha traces — are interpreted once and
/// fanned out to every lane (see [`stream_app_multi`]).
#[derive(Debug)]
pub(crate) struct FanGroup {
    workload: Workload,
    lanes: Vec<(IsaKind, Vec<usize>)>,
}

/// The cells of a grid regrouped into fan-out groups, in first-appearance
/// order. `report::describe` derives its shared-pass count from the same
/// function, so the printed grouping can never drift from what runs.
pub(crate) fn fanout_groups(grid: &GridSpec, cells: &[Cell]) -> Vec<FanGroup> {
    let mut groups: Vec<FanGroup> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let isa = grid.configs[cell.config].isa;
        let cross_isa = matches!(cell.workload, Workload::App(_));
        let existing = groups.iter_mut().find(|g| {
            g.workload == cell.workload && (cross_isa || g.lanes[0].0 == isa)
        });
        let group = match existing {
            Some(g) => g,
            None => {
                groups.push(FanGroup { workload: cell.workload, lanes: Vec::new() });
                groups.last_mut().expect("just pushed")
            }
        };
        match group.lanes.iter_mut().find(|(lane_isa, _)| *lane_isa == isa) {
            Some((_, members)) => members.push(i),
            None => group.lanes.push((isa, vec![i])),
        }
    }
    groups
}

/// The `(workload, isa, config)` identity of one grid cell, used to label
/// work items so a panicking cell names itself in the panic message.
fn cell_label(grid: &GridSpec, cell: &Cell) -> String {
    let config = &grid.configs[cell.config];
    format!("{} / {} / {}-way ({})", cell.workload.label(), config.label, cell.way, config.isa.label())
}

/// The identity of one fan-out group: workload plus its ISA lanes.
fn group_label(group: &FanGroup) -> String {
    let isas: Vec<&str> = group.lanes.iter().map(|(isa, _)| isa.label()).collect();
    format!("{} [{}]", group.workload.label(), isas.join("+"))
}

/// The machine descriptor of one grid cell.
fn descriptor_for(grid: &GridSpec, cells: &[Cell], ci: usize) -> MachineDescriptor {
    grid.configs[cells[ci].config].descriptor(cells[ci].way)
}

/// Acquire (from `pool`) one machine per member of every lane of `group`.
fn take_lane_machines(
    grid: &GridSpec,
    cells: &[Cell],
    group: &FanGroup,
    pool: &mut MachinePool<'_>,
) -> Vec<Vec<SimMachine>> {
    group
        .lanes
        .iter()
        .map(|(_, members)| {
            members.iter().map(|&ci| pool.take(&descriptor_for(grid, cells, ci))).collect()
        })
        .collect()
}

/// Finish one probed stream into the `(SimResult, ProbeReport)` pair the
/// assembly stage wants (checking the sum-to-total invariant on the way).
fn finish_cell(stream: SimStream<'_, AttributionProbe>) -> (SimResult, ProbeReport) {
    let (sim, probe) = stream.finish_probed();
    (sim, probe.into_report())
}

/// Pair one lane's finished `(SimResult, ProbeReport)`s with the memory
/// statistics of their machines (readable again now that the streams'
/// borrows have ended, and *before* the machines return to a pool whose
/// `reset()` would clear them).
fn attach_mem_stats(
    finished: Vec<(SimResult, ProbeReport)>,
    machines: &[SimMachine],
) -> Vec<CellSim> {
    finished
        .into_iter()
        .zip(machines.iter())
        .map(|((sim, probe), machine)| CellSim {
            sim,
            probe,
            mem: machine.mem_stats(),
            sampling: None,
        })
        .collect()
}

/// Run one fan-out group serially on the calling thread: a single
/// interpretation broadcast to every member simulator (the one-worker path,
/// also the fallback work unit of the pipelined scheduler). `lane_machines`
/// is parallel to `group.lanes`; returns the per-lane member results plus
/// the number of instructions the interpreter executed.
fn run_fan_group_serial(
    grid: &GridSpec,
    group: &FanGroup,
    lane_machines: &mut [Vec<SimMachine>],
) -> (Vec<Vec<CellSim>>, u64) {
    match group.workload {
        Workload::Kernel(_) => {
            // A kernel group is a single lane: one interpretation broadcast
            // to every member.
            let machines = &mut lane_machines[0];
            let streams: Vec<SimStream<'_, AttributionProbe>> =
                machines.iter_mut().map(|m| m.sim_probed()).collect();
            let mut fan = Broadcast::new(streams);
            let executed =
                interpret_into(group.workload, group.lanes[0].0, grid.scale, grid.seed, &mut fan);
            let finished: Vec<(SimResult, ProbeReport)> =
                fan.into_inner().into_iter().map(finish_cell).collect();
            (vec![attach_mem_stats(finished, machines)], executed)
        }
        Workload::App(app) => {
            // An app group spans all of its ISAs: kernel phases interpret
            // per lane, scalar phases once for all lanes.
            let mut lanes: Vec<(IsaKind, Broadcast<SimStream<'_, AttributionProbe>>)> = group
                .lanes
                .iter()
                .zip(lane_machines.iter_mut())
                .map(|((isa, _), machines)| {
                    (*isa, Broadcast::new(machines.iter_mut().map(|m| m.sim_probed()).collect()))
                })
                .collect();
            let params = AppParams { seed: grid.seed, scale: grid.scale };
            let (_, interpreted) = stream_app_multi(app, &params, &mut lanes)
                .unwrap_or_else(|e| panic!("{app} failed to build: {e}"));
            let finished: Vec<Vec<(SimResult, ProbeReport)>> = lanes
                .into_iter()
                .map(|(_, fan)| fan.into_inner().into_iter().map(finish_cell).collect())
                .collect();
            let sims: Vec<Vec<CellSim>> = finished
                .into_iter()
                .zip(lane_machines.iter())
                .map(|(lane, machines)| attach_mem_stats(lane, machines))
                .collect();
            (sims, interpreted)
        }
    }
}

/// Run every fan-out group as one work item on `workers` threads: each
/// item takes its members' machines from the worker's pool, calls
/// `run_group` (which returns per-lane member results plus the instructions
/// it interpreted), and returns the machines. The member results are
/// scattered back into cell order, and the run's accounting — one
/// functional pass, one `serial` span and one shared wall-clock span per
/// group — lands in `timing`. Shared by the one-worker fan-out arm and the
/// sampled arm.
fn run_groups(
    grid: &GridSpec,
    cells: &[Cell],
    groups: &[FanGroup],
    workers: usize,
    counters: &PoolCounters,
    timing: &mut GridTiming,
    run_group: impl Fn(&FanGroup, &mut [Vec<SimMachine>]) -> (Vec<Vec<CellSim>>, u64) + Sync,
) -> Vec<CellSim> {
    let epoch = Instant::now();
    let next_tid = AtomicUsize::new(0);
    let outcomes = parallel_map_with(
        groups,
        workers,
        || (MachinePool::new(counters), next_tid.fetch_add(1, Ordering::Relaxed)),
        group_label,
        |(pool, tid), group| {
            let start_ns = epoch.elapsed().as_nanos() as u64;
            let started = Instant::now();
            let mut lane_machines = take_lane_machines(grid, cells, group, pool);
            let (lane_sims, executed) = run_group(group, &mut lane_machines);
            let ns = started.elapsed().as_nanos() as u64;
            pool.put(lane_machines.into_iter().flatten());
            (lane_sims, ns, executed, start_ns, *tid)
        },
    );
    let mut slots: Vec<Option<CellSim>> = vec![None; cells.len()];
    timing.cell_wall_ns = vec![0; cells.len()];
    for (group, (lane_sims, ns, executed, start_ns, tid)) in groups.iter().zip(outcomes) {
        timing.sim_wall_ns += ns;
        timing.functional_passes += 1;
        timing.functional_instructions += executed;
        timing.spans.push(SpanRec {
            name: group_label(group),
            cat: "serial",
            tid,
            start_ns,
            dur_ns: ns,
            wait_ns: 0,
            insts: executed,
        });
        for ((_, members), sims) in group.lanes.iter().zip(lane_sims) {
            for (&ci, sim) in members.iter().zip(sims) {
                slots[ci] = Some(sim);
                timing.cell_wall_ns[ci] = ns;
            }
        }
    }
    // With 2+ workers groups finish out of order; keep spans chronological.
    timing.spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then_with(|| a.name.cmp(&b.name)));
    slots.into_iter().map(|s| s.expect("every cell belongs to one group")).collect()
}

/// One work item of the pipelined fan-out scheduler. Items live in
/// `Mutex<Option<_>>` slots and are *moved out* when claimed; an item
/// dropped unexecuted (abort path) closes its channel endpoints, which
/// unblocks any peer still waiting on them.
enum PipeItem {
    /// Run a whole group on one worker via the serial Broadcast path.
    Serial { gi: usize, label: String },
    /// Interpret a group once, publishing batches into the member channels.
    Produce { gi: usize, label: String, lanes: Vec<(IsaKind, BatchSink)> },
    /// Drain a shard of one lane's members, simulating each batch as it
    /// arrives. Members are `(cell index, descriptor, receiver)`.
    Consume { gi: usize, label: String, members: Vec<(usize, MachineDescriptor, BatchReceiver)> },
}

impl PipeItem {
    fn label(&self) -> &str {
        match self {
            PipeItem::Serial { label, .. }
            | PipeItem::Produce { label, .. }
            | PipeItem::Consume { label, .. } => label,
        }
    }
}

/// What one executed [`PipeItem`] reports back (all wall-clock data is
/// relative to the scheduler's epoch, so group spans can be reconstructed
/// across threads).
struct PipeOutcome {
    gi: usize,
    /// `(cell index, result)` for every member this item simulated.
    sims: Vec<(usize, CellSim)>,
    /// Instructions the interpreter executed (producer / serial items only).
    executed: u64,
    start_ns: u64,
    end_ns: u64,
    /// Time a consumer shard spent simulating rather than blocked on `recv`
    /// (zero for non-consumer items; feeds `meta.pipeline.occupancy`).
    busy_ns: u64,
    /// Time a consumer shard spent blocked on channel `recv`.
    wait_ns: u64,
    is_consumer: bool,
    /// Span category of the executed item (`"serial"`/`"produce"`/`"consume"`).
    kind: &'static str,
    /// The executed item's label (carried into the span record).
    label: String,
    /// Index of the worker thread that executed the item.
    worker: usize,
}

/// The pipelined fan-out scheduler: overlap each group's interpreter with
/// its member simulators on separate workers (`ExecMode::Fanout`, 2+
/// workers).
///
/// # Thread accounting
///
/// Exactly `workers` scoped threads run; every pipeline role is a work item
/// claimed in order from a shared cursor, so the pipeline never spawns
/// beyond the worker budget. A pipelined group costs `1 + K` items — one
/// interpreter ([`PipeItem::Produce`]) plus `K` consumer shards
/// ([`PipeItem::Consume`]), `K = min(members, workers - 1)` distributed
/// across the group's ISA lanes. A group's items are contiguous in claim
/// order and its team never exceeds `workers`, which guarantees progress:
/// the earliest unclaimed item always belongs to a team whose predecessors
/// are fully claimed and therefore terminate, freeing their workers.
///
/// Two structural rules keep the channels deadlock-free:
///
/// * a consumer shard never spans ISA lanes (application kernel phases
///   stream lane-by-lane, so a cross-lane shard would block on a silent
///   lane while its busy lane backs up);
/// * an application group needs one shard per lane at minimum — when
///   `workers < lanes + 1` the whole group falls back to a single
///   [`PipeItem::Serial`] item instead (counted in
///   `meta.pipeline.serial_groups`).
///
/// A shard with several members drains them round-robin, one batch per
/// member per pass — the same order the producer publishes in, so neither
/// side can wait on a batch the other has not already had the opportunity
/// to hand over.
///
/// On a panic the failing worker sets the abort flag and the remaining
/// items are claimed but *dropped unexecuted*: dropping a `Produce` item
/// closes its senders (consumers see end-of-stream), dropping a `Consume`
/// item closes its receivers (the producer's sends error out and it skips
/// the member) — every blocked peer unblocks, and the first failure is
/// re-raised with its work item's identity.
fn run_fanout_pipelined(
    grid: &GridSpec,
    cells: &[Cell],
    groups: &[FanGroup],
    workers: usize,
    counters: &PoolCounters,
    progress: bool,
    timing: &mut GridTiming,
) -> Vec<CellSim> {
    let batch_insts = crate::pipeline_batch_insts();
    let channel_batches = crate::pipeline_channel_batches();

    // Plan: turn every group into a contiguous run of work items.
    let mut plan: Vec<PipeItem> = Vec::new();
    let mut pipelined_groups = 0usize;
    let mut serial_groups = 0usize;
    for (gi, group) in groups.iter().enumerate() {
        let budget = workers - 1;
        if budget < group.lanes.len() {
            serial_groups += 1;
            plan.push(PipeItem::Serial { gi, label: group_label(group) });
            continue;
        }
        pipelined_groups += 1;
        // Consumer budget: at least one shard per lane, never more shards
        // than members, extras distributed round-robin over the lanes.
        let mut shards: Vec<usize> = vec![1; group.lanes.len()];
        let mut remaining = budget - group.lanes.len();
        loop {
            let mut progressed = false;
            for (li, (_, members)) in group.lanes.iter().enumerate() {
                if remaining == 0 {
                    break;
                }
                if shards[li] < members.len() {
                    shards[li] += 1;
                    remaining -= 1;
                    progressed = true;
                }
            }
            if remaining == 0 || !progressed {
                break;
            }
        }
        let mut sink_lanes: Vec<(IsaKind, BatchSink)> = Vec::with_capacity(group.lanes.len());
        let mut consume_items: Vec<PipeItem> = Vec::new();
        for (li, (isa, members)) in group.lanes.iter().enumerate() {
            let mut senders = Vec::with_capacity(members.len());
            let mut receivers = Vec::with_capacity(members.len());
            for &ci in members {
                let (tx, rx) = batch_channel(channel_batches);
                senders.push(tx);
                receivers.push((ci, descriptor_for(grid, cells, ci), rx));
            }
            sink_lanes.push((*isa, BatchSink::new(senders, batch_insts)));
            // Split this lane's members contiguously across its shards.
            let (per, extra) = (members.len() / shards[li], members.len() % shards[li]);
            let mut iter = receivers.into_iter();
            for s in 0..shards[li] {
                let shard: Vec<_> = iter.by_ref().take(per + usize::from(s < extra)).collect();
                let label = shard
                    .iter()
                    .map(|&(ci, _, _)| cell_label(grid, &cells[ci]))
                    .collect::<Vec<_>>()
                    .join("; ");
                consume_items.push(PipeItem::Consume { gi, label, members: shard });
            }
        }
        plan.push(PipeItem::Produce {
            gi,
            label: format!("interpret {}", group_label(group)),
            lanes: sink_lanes,
        });
        plan.append(&mut consume_items);
    }

    // Execute: `workers` threads claim items in order off the cursor.
    let epoch = Instant::now();
    let slots: Vec<Mutex<Option<PipeItem>>> =
        plan.into_iter().map(|item| Mutex::new(Some(item))).collect();
    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let failure: Mutex<Option<(String, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
    let pool: Mutex<MachinePool<'_>> = Mutex::new(MachinePool::new(counters));
    let outcomes: Vec<PipeOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(slots.len()))
            .map(|worker| {
                let (slots, cursor, abort, failure, pool) =
                    (&slots, &cursor, &abort, &failure, &pool);
                scope.spawn(move || {
                    let mut produced: Vec<PipeOutcome> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= slots.len() {
                            break;
                        }
                        let item = lock_clean(&slots[i]).take();
                        let Some(item) = item else { continue };
                        if abort.load(Ordering::Relaxed) {
                            // Claim-and-drop: dropping the item closes its
                            // channel endpoints, unblocking peers mid-run.
                            drop(item);
                            continue;
                        }
                        let label = item.label().to_string();
                        match catch_unwind(AssertUnwindSafe(|| {
                            exec_pipe_item(item, grid, cells, groups, pool, &epoch, worker)
                        })) {
                            Ok(outcome) => {
                                if progress {
                                    report_progress(groups, &outcome);
                                }
                                produced.push(outcome);
                            }
                            Err(payload) => {
                                abort.store(true, Ordering::Relaxed);
                                let mut first = lock_clean(failure);
                                if first.is_none() {
                                    *first = Some((label, payload));
                                }
                                // Keep claiming so the remaining items are
                                // dropped and no peer blocks forever.
                            }
                        }
                    }
                    produced
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("pipeline workers catch their own panics"))
            .collect()
    });
    if let Some((label, payload)) = failure.into_inner().unwrap_or_else(|e| e.into_inner()) {
        raise_labeled(&label, payload);
    }

    // Assemble: group spans, per-cell results, occupancy, span records.
    let mut spans: Vec<(u64, u64)> = vec![(u64::MAX, 0); groups.len()];
    let mut sim_slots: Vec<Option<CellSim>> = vec![None; cells.len()];
    let (mut busy_ns, mut consumer_span_ns) = (0u64, 0u64);
    for outcome in outcomes {
        let (start, end) = &mut spans[outcome.gi];
        *start = (*start).min(outcome.start_ns);
        *end = (*end).max(outcome.end_ns);
        timing.functional_instructions += outcome.executed;
        if outcome.is_consumer {
            busy_ns += outcome.busy_ns;
            consumer_span_ns += outcome.end_ns.saturating_sub(outcome.start_ns);
        }
        timing.spans.push(SpanRec {
            name: outcome.label,
            cat: outcome.kind,
            tid: outcome.worker,
            start_ns: outcome.start_ns,
            dur_ns: outcome.end_ns.saturating_sub(outcome.start_ns),
            wait_ns: outcome.wait_ns,
            insts: outcome.executed,
        });
        for (ci, sim) in outcome.sims {
            sim_slots[ci] = Some(sim);
        }
    }
    // Span order would otherwise follow thread-join order; sort by start time
    // so the meta section and trace export read chronologically.
    timing.spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then_with(|| a.name.cmp(&b.name)));
    timing.functional_passes += groups.len();
    timing.cell_wall_ns = vec![0; cells.len()];
    for (group, &(start, end)) in groups.iter().zip(&spans) {
        let span = end.saturating_sub(start);
        timing.sim_wall_ns += span;
        for (_, members) in &group.lanes {
            for &ci in members {
                timing.cell_wall_ns[ci] = span;
            }
        }
    }
    timing.pipeline = Some(PipelineStats {
        batch_insts,
        channel_batches,
        pipelined_groups,
        serial_groups,
        occupancy: (consumer_span_ns > 0).then(|| busy_ns as f64 / consumer_span_ns as f64),
    });
    sim_slots.into_iter().map(|s| s.expect("every cell belongs to one group")).collect()
}

/// One live stderr progress line per completed pipeline work item: the
/// group's identity plus — for consumer shards — the shard's occupancy
/// (share of its span spent simulating rather than blocked on `recv`).
fn report_progress(groups: &[FanGroup], outcome: &PipeOutcome) {
    let group = group_label(&groups[outcome.gi]);
    let ms = outcome.end_ns.saturating_sub(outcome.start_ns) / 1_000_000;
    if outcome.is_consumer {
        let span = outcome.end_ns.saturating_sub(outcome.start_ns);
        let occupancy = if span == 0 { 1.0 } else { outcome.busy_ns as f64 / span as f64 };
        eprintln!(
            "  {group}: consumer shard done, {} cell(s), occupancy {:.0}% ({ms} ms)",
            outcome.sims.len(),
            occupancy * 100.0
        );
    } else {
        eprintln!("  {group}: {} done ({ms} ms)", outcome.kind);
    }
}

/// Execute one claimed [`PipeItem`] (on the worker's thread).
fn exec_pipe_item(
    item: PipeItem,
    grid: &GridSpec,
    cells: &[Cell],
    groups: &[FanGroup],
    pool: &Mutex<MachinePool<'_>>,
    epoch: &Instant,
    worker: usize,
) -> PipeOutcome {
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    match item {
        PipeItem::Serial { gi, label } => {
            let group = &groups[gi];
            let start_ns = now_ns();
            let mut lane_machines: Vec<Vec<SimMachine>> =
                take_lane_machines(grid, cells, group, &mut lock_clean(pool));
            let (lane_sims, executed) = run_fan_group_serial(grid, group, &mut lane_machines);
            lock_clean(pool).put(lane_machines.into_iter().flatten());
            let sims = group
                .lanes
                .iter()
                .zip(lane_sims)
                .flat_map(|((_, members), sims)| members.iter().copied().zip(sims))
                .collect();
            PipeOutcome {
                gi,
                sims,
                executed,
                start_ns,
                end_ns: now_ns(),
                busy_ns: 0,
                wait_ns: 0,
                is_consumer: false,
                kind: "serial",
                label,
                worker,
            }
        }
        PipeItem::Produce { gi, lanes, label } => {
            let group = &groups[gi];
            let start_ns = now_ns();
            let executed = match group.workload {
                Workload::Kernel(_) => {
                    let (isa, mut sink) =
                        lanes.into_iter().next().expect("kernel group has one lane");
                    let executed =
                        interpret_into(group.workload, isa, grid.scale, grid.seed, &mut sink);
                    sink.finish();
                    executed
                }
                Workload::App(app) => {
                    let params = AppParams { seed: grid.seed, scale: grid.scale };
                    let (_, interpreted) = stream_app_pipelined(app, &params, lanes)
                        .unwrap_or_else(|e| panic!("{app} failed to build: {e}"));
                    interpreted
                }
            };
            PipeOutcome {
                gi,
                sims: Vec::new(),
                executed,
                start_ns,
                end_ns: now_ns(),
                busy_ns: 0,
                wait_ns: 0,
                is_consumer: false,
                kind: "produce",
                label,
                worker,
            }
        }
        PipeItem::Consume { gi, members, label } => {
            let start_ns = now_ns();
            let mut machines: Vec<SimMachine> = {
                let mut pool = lock_clean(pool);
                members.iter().map(|(_, descriptor, _)| pool.take(descriptor)).collect()
            };
            let mut wait_ns = 0u64;
            let finished: Vec<(SimResult, ProbeReport)> = {
                let mut streams: Vec<Option<SimStream<'_, AttributionProbe>>> =
                    machines.iter_mut().map(|m| Some(m.sim_probed())).collect();
                let mut done: Vec<Option<(SimResult, ProbeReport)>> = vec![None; members.len()];
                let mut open = streams.len();
                // Round-robin: one batch per open member per pass — the same
                // member order the producer publishes in.
                while open > 0 {
                    for (k, slot) in streams.iter_mut().enumerate() {
                        let Some(stream) = slot else { continue };
                        let waited = Instant::now();
                        let next = members[k].2.recv();
                        wait_ns += waited.elapsed().as_nanos() as u64;
                        match next {
                            Some(batch) => {
                                for inst in batch.iter() {
                                    stream.feed(inst);
                                }
                            }
                            None => {
                                let (sim, probe) =
                                    slot.take().expect("stream still open").finish_probed();
                                done[k] = Some((sim, probe.into_report()));
                                open -= 1;
                            }
                        }
                    }
                }
                done.into_iter().map(|r| r.expect("every member finished")).collect()
            };
            let results = attach_mem_stats(finished, &machines);
            lock_clean(pool).put(machines);
            let end_ns = now_ns();
            PipeOutcome {
                gi,
                sims: members.iter().map(|&(ci, ..)| ci).zip(results).collect(),
                executed: 0,
                start_ns,
                end_ns,
                busy_ns: end_ns.saturating_sub(start_ns).saturating_sub(wait_ns),
                wait_ns,
                is_consumer: true,
                kind: "consume",
                label,
                worker,
            }
        }
    }
}

/// Lock a mutex, tolerating poisoning: a worker that panicked inside a
/// critical section already recorded its failure through the abort path, so
/// the data (machine pool, failure slot) is still safe to use.
fn lock_clean<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Re-raise a caught worker panic, prefixing the failing work item's
/// identity so the report names the cell (or group) instead of losing it.
fn raise_labeled(label: &str, payload: Box<dyn std::any::Any + Send>) -> ! {
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic>");
    panic!("experiment work item `{label}` panicked: {msg}");
}

/// The three knobs of one sampled run, bundled for the group helpers.
#[derive(Debug, Clone, Copy)]
struct SamplingParams {
    unit: u64,
    warmup: u64,
    period: u64,
}

/// The counter deltas of one closed measurement unit: `after - before` over
/// the cumulative [`SimResult`] snapshots taken around the unit's detailed
/// window. Saturating, because a snapshot taken mid-stream lags the fed
/// instructions by the in-flight ROB contents.
#[derive(Debug, Clone, Copy)]
struct UnitDelta {
    committed: u64,
    cycles: u64,
    branches: u64,
    mispredictions: u64,
    mem_retries: u64,
    mem_accesses: u64,
}

impl UnitDelta {
    fn between(before: &SimResult, after: &SimResult) -> Self {
        Self {
            committed: after.committed.saturating_sub(before.committed),
            cycles: after.cycles.saturating_sub(before.cycles),
            branches: after.branches.saturating_sub(before.branches),
            mispredictions: after.mispredictions.saturating_sub(before.mispredictions),
            mem_retries: after.mem_retries.saturating_sub(before.mem_retries),
            mem_accesses: after.mem_accesses.saturating_sub(before.mem_accesses),
        }
    }
}

/// Scale a partially detailed [`SimResult`] up to `total_insts` committed
/// instructions (the no-units fallback of [`sampled_estimate`]).
fn scale_result(detailed: &SimResult, total_insts: u64) -> SimResult {
    let scale = total_insts as f64 / detailed.committed.max(1) as f64;
    let scaled = |x: u64| (x as f64 * scale).round() as u64;
    SimResult {
        cycles: scaled(detailed.cycles).max(1),
        committed: total_insts,
        branches: scaled(detailed.branches),
        mispredictions: scaled(detailed.mispredictions),
        mem_retries: scaled(detailed.mem_retries),
        mem_accesses: scaled(detailed.mem_accesses),
    }
}

/// Turn the closed measurement units of one sampled cell into the cell's
/// estimated [`SimResult`] and its sampling accounting.
///
/// The committed-instruction count stays **exact** (the functional
/// interpreter executed the whole workload either way); cycles come from the
/// mean unit IPC, and the remaining counters are the unit sums scaled by the
/// sampled fraction. When no unit closed — a workload shorter than one
/// warm-up window, or commit lag swallowing every unit — the detailed
/// aggregate stands in: exact if the whole run was simulated in detail,
/// scaled up otherwise.
fn sampled_estimate(
    detailed: &SimResult,
    units: &[UnitDelta],
    total_insts: u64,
    warmup_total: u64,
) -> (SimResult, CellSampling) {
    let measured: u64 = units.iter().map(|u| u.committed).sum();
    if measured == 0 {
        let sim = if detailed.committed >= total_insts {
            *detailed
        } else {
            scale_result(detailed, total_insts)
        };
        let sampling = CellSampling {
            units_measured: 0,
            measured_insts: 0,
            warmup_insts: warmup_total,
            total_insts,
            ipc_mean: detailed.ipc(),
            ipc_ci95: 0.0,
        };
        return (sim, sampling);
    }
    let ipcs: Vec<f64> =
        units.iter().map(|u| u.committed as f64 / u.cycles.max(1) as f64).collect();
    let n = ipcs.len() as f64;
    let mean = ipcs.iter().sum::<f64>() / n;
    let ci95 = if ipcs.len() > 1 {
        // Sample variance (n - 1 denominator), normal-theory 95% interval on
        // the mean — the SMARTS confidence machinery.
        let var = ipcs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        1.96 * (var / n).sqrt()
    } else {
        0.0
    };
    let scale = total_insts as f64 / measured as f64;
    let scaled = |sum: u64| (sum as f64 * scale).round() as u64;
    let sum_of = |f: fn(&UnitDelta) -> u64| units.iter().map(f).sum::<u64>();
    let sim = SimResult {
        cycles: ((total_insts as f64 / mean.max(f64::MIN_POSITIVE)).round() as u64).max(1),
        committed: total_insts,
        branches: scaled(sum_of(|u| u.branches)),
        mispredictions: scaled(sum_of(|u| u.mispredictions)),
        mem_retries: scaled(sum_of(|u| u.mem_retries)),
        mem_accesses: scaled(sum_of(|u| u.mem_accesses)),
    };
    let sampling = CellSampling {
        units_measured: units.len() as u64,
        measured_insts: measured,
        warmup_insts: warmup_total,
        total_insts,
        ipc_mean: mean,
        ipc_ci95: ci95,
    };
    (sim, sampling)
}

/// Version tag of the lab checkpoint file framing (the envelope binding a
/// [`Checkpoint`] blob to a spec, cell and sampling parameters).
const LAB_CKPT_VERSION: u32 = 1;

/// Minimum executed instructions between two checkpoint writes of one group.
/// A checkpoint costs O(touched working set) to serialize, so writing one at
/// every sampling period (default 100k instructions, ~1 ms of simulation)
/// would spend more time persisting state than simulating. Cells shorter
/// than the interval still write their final checkpoint: completion always
/// persists, so `--resume` never re-simulates a finished cell.
const CKPT_INTERVAL_INSTS: u64 = 10_000_000;

/// The `(workload, config, way)` identity of one grid cell — the same key
/// `momlab diff` matches cells by, reused to name and validate checkpoint
/// files.
fn cell_key(grid: &GridSpec, cell: &Cell) -> String {
    format!("{} / {} / {}-way", cell.workload.label(), grid.configs[cell.config].label, cell.way)
}

/// The on-disk path of one cell's checkpoint file: spec name plus cell key,
/// with every byte outside `[A-Za-z0-9._-]` replaced by `-`.
fn ckpt_path(ctx: &CkptContext, key: &str) -> PathBuf {
    let sanitize = |s: &str| -> String {
        s.chars()
            .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') { c } else { '-' })
            .collect()
    };
    ctx.cfg.dir.join(format!("{}__{}.ckpt", sanitize(&ctx.spec_name), sanitize(key)))
}

/// Write one cell's checkpoint atomically (tmp + rename), enveloped with the
/// identity a resume validates against.
fn save_cell_checkpoint(ctx: &CkptContext, key: &str, ckpt: &Checkpoint) {
    let mut e = Encoder::new();
    e.u32(LAB_CKPT_VERSION);
    e.blob(ctx.config_hash.as_bytes());
    e.blob(key.as_bytes());
    e.u64(ctx.unit);
    e.u64(ctx.warmup);
    e.u64(ctx.period);
    e.blob(&ckpt.to_bytes());
    let path = ckpt_path(ctx, key);
    let tmp = path.with_extension("ckpt.tmp");
    std::fs::write(&tmp, e.into_bytes())
        .and_then(|()| std::fs::rename(&tmp, &path))
        .unwrap_or_else(|err| panic!("cannot write checkpoint {}: {err}", path.display()));
}

/// Decode the lab checkpoint envelope written by [`save_cell_checkpoint`].
fn decode_lab_ckpt(bytes: &[u8]) -> Result<(String, String, u64, u64, u64, Checkpoint), CodecError> {
    let mut d = Decoder::new(bytes);
    let version = d.u32("lab checkpoint version")?;
    if version != LAB_CKPT_VERSION {
        return Err(CodecError::Version { what: "lab checkpoint", found: version });
    }
    let hash = String::from_utf8_lossy(d.blob("lab checkpoint config hash")?).into_owned();
    let key = String::from_utf8_lossy(d.blob("lab checkpoint cell key")?).into_owned();
    let unit = d.u64("lab checkpoint unit")?;
    let warmup = d.u64("lab checkpoint warmup")?;
    let period = d.u64("lab checkpoint period")?;
    let ckpt = Checkpoint::from_bytes(d.blob("lab checkpoint payload")?)?;
    d.finish("lab checkpoint")?;
    Ok((hash, key, unit, warmup, period, ckpt))
}

/// Load one cell's checkpoint if its file exists. A missing file means
/// "start fresh" (for the cell's whole group); a file that fails to decode,
/// or matches a different spec, cell or sampling parameters, panics with the
/// path — silently restarting (or worse, resuming into the wrong run) would
/// corrupt the results.
fn load_cell_checkpoint(ctx: &CkptContext, key: &str) -> Option<Checkpoint> {
    let path = ckpt_path(ctx, key);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return None,
        Err(err) => panic!("cannot read checkpoint {}: {err}", path.display()),
    };
    let (hash, file_key, unit, warmup, period, ckpt) =
        decode_lab_ckpt(&bytes).unwrap_or_else(|e| {
            panic!(
                "checkpoint {} is not a valid checkpoint file ({e}); \
                 delete the file or rerun without --resume",
                path.display()
            )
        });
    if hash != ctx.config_hash
        || file_key != key
        || (unit, warmup, period) != (ctx.unit, ctx.warmup, ctx.period)
    {
        panic!(
            "checkpoint {} does not match this run (spec configuration, cell or \
             sampling parameters changed); delete the file or rerun without --resume",
            path.display()
        );
    }
    Some(ckpt)
}

/// Assemble the [`Checkpoint`] of one kernel cell at a period boundary:
/// architectural machine + cursor, engine + probe + closed units, warm
/// memory state, and the dynamic instruction index.
fn build_checkpoint(
    arch: &Machine,
    cursor: ExecCursor,
    machine: &SimMachine,
    probe: &AttributionProbe,
    units: &[UnitDelta],
    warmup_done: u64,
    executed: u64,
) -> Checkpoint {
    let mut arch_e = Encoder::new();
    snapshot::encode_machine(&mut arch_e, arch);
    arch_e.u64(cursor.pc() as u64);
    let mut sim_e = Encoder::new();
    machine.save_engine_state(&mut sim_e);
    probe.save_state(&mut sim_e);
    sim_e.u64(warmup_done);
    sim_e.u64(units.len() as u64);
    for u in units {
        sim_e.u64(u.committed);
        sim_e.u64(u.cycles);
        sim_e.u64(u.branches);
        sim_e.u64(u.mispredictions);
        sim_e.u64(u.mem_retries);
        sim_e.u64(u.mem_accesses);
    }
    let mut mem_e = Encoder::new();
    machine.save_mem_state(&mut mem_e);
    Checkpoint {
        arch_state: arch_e.into_bytes(),
        sim_state: sim_e.into_bytes(),
        mem_state: mem_e.into_bytes(),
        inst_index: executed,
    }
}

/// Restore one kernel cell from a [`Checkpoint`]: architectural machine and
/// cursor into `arch`, engine + probe + closed units + warm memory into
/// `machine`. Returns `(cursor, probe, warmup_done, units)`.
fn restore_kernel_cell(
    c: &Checkpoint,
    arch: &mut Machine,
    machine: &mut SimMachine,
) -> Result<(ExecCursor, AttributionProbe, u64, Vec<UnitDelta>), CodecError> {
    let mut d = Decoder::new(&c.arch_state);
    snapshot::restore_machine(&mut d, arch)?;
    let cursor = ExecCursor::at(d.u64("checkpoint cursor")? as usize);
    d.finish("checkpoint architectural state")?;

    let mut d = Decoder::new(&c.sim_state);
    machine.load_engine_state(&mut d)?;
    let probe = AttributionProbe::load_state(&mut d)?;
    let warmup_done = d.u64("checkpoint warmup tally")?;
    let n = d.u64("checkpoint unit count")?;
    let mut units = Vec::new();
    for _ in 0..n {
        units.push(UnitDelta {
            committed: d.u64("unit committed")?,
            cycles: d.u64("unit cycles")?,
            branches: d.u64("unit branches")?,
            mispredictions: d.u64("unit mispredictions")?,
            mem_retries: d.u64("unit mem retries")?,
            mem_accesses: d.u64("unit mem accesses")?,
        });
    }
    d.finish("checkpoint engine state")?;

    let mut d = Decoder::new(&c.mem_state);
    machine.load_mem_state(&mut d)?;
    d.finish("checkpoint memory state")?;
    Ok((cursor, probe, warmup_done, units))
}

/// Run one kernel fan-out group in sampled mode: a single functional pass
/// of the kernel, with every member machine seeing its own detailed warm-up
/// + measured unit at the head of every sampling period.
///
/// The kernel is built and decoded once. Each detailed window streams into
/// a [`Broadcast`] of the members' freshly opened [`SimStream`]s, which are
/// snapshotted around the unit and closed before the group's single
/// fast-forward; each member's engine state, probe and warm memory carry
/// over, so consecutive detailed windows time exactly as they would in one
/// continuous stream (the machine-level resume test in `mom-cpu` pins that
/// equivalence). Placing the detailed window at the *head* of each period —
/// rather than fast-forwarding first — means a workload shorter than one
/// warm-up window is simulated entirely in detail and reports its exact
/// result. Every member sees exactly the windows a group of one would feed
/// it, so its result does not depend on its group-mates.
///
/// With a [`CkptContext`] every member's checkpoint file is written at the
/// same instruction index. A resume restores the group only when every
/// member's file loads and all agree on that index; otherwise the group
/// starts from zero. Returns the lane's member results plus the number of
/// instructions the interpreter executed.
fn sample_kernel_group(
    kernel: KernelKind,
    grid: &GridSpec,
    cells: &[Cell],
    group: &FanGroup,
    lane_machines: &mut [Vec<SimMachine>],
    sp: SamplingParams,
    ckpt: Option<&CkptContext>,
) -> (Vec<Vec<CellSim>>, u64) {
    let (isa, members) = &group.lanes[0];
    let machines = &mut lane_machines[0];
    let keys: Vec<String> = members.iter().map(|&ci| cell_key(grid, &cells[ci])).collect();
    let params = KernelParams { seed: grid.seed, scale: grid.scale };
    let BuiltKernel { machine: mut arch, program, expected, output_addr, .. } =
        build_kernel(kernel, *isa, &params);
    let decoded = program.decode();
    let mut cursor = ExecCursor::start();
    let mut probes: Vec<Option<AttributionProbe>> =
        std::iter::repeat_with(|| None).take(members.len()).collect();
    let mut units: Vec<Vec<UnitDelta>> = vec![Vec::new(); members.len()];
    let mut executed = 0u64;
    let mut warmup_done = 0u64;
    if let Some(ctx) = ckpt.filter(|ctx| ctx.cfg.resume) {
        let loaded: Option<Vec<Checkpoint>> =
            keys.iter().map(|key| load_cell_checkpoint(ctx, key)).collect();
        if let Some(saved) =
            loaded.filter(|s| s.iter().all(|c| c.inst_index == s[0].inst_index))
        {
            for (m, (c, key)) in saved.iter().zip(&keys).enumerate() {
                let (cur, p, w, us) = restore_kernel_cell(c, &mut arch, &mut machines[m])
                    .unwrap_or_else(|e| {
                        panic!(
                            "checkpoint {} failed to restore: {e}; \
                             delete the file or rerun without --resume",
                            ckpt_path(ctx, key).display()
                        )
                    });
                cursor = cur;
                probes[m] = Some(p);
                warmup_done = w;
                units[m] = us;
            }
            executed = saved[0].inst_index;
        }
    }
    let mut last_saved = executed;
    let detailed: Vec<SimResult> = loop {
        let streams: Vec<SimStream<'_, AttributionProbe>> = machines
            .iter_mut()
            .zip(&mut probes)
            .map(|(machine, probe)| match probe.take() {
                Some(p) => machine.sim_probed_with(p),
                None => machine.sim_probed(),
            })
            .collect();
        let mut fan = Broadcast::new(streams);
        let w = decoded.stream_segment(&mut arch, &mut fan, &mut cursor, sp.warmup);
        warmup_done += w;
        let before: Vec<SimResult> = fan.sinks().iter().map(SimStream::snapshot).collect();
        let u = decoded.stream_segment(&mut arch, &mut fan, &mut cursor, sp.unit);
        executed += w + u;
        // Closing a stream drains its ROB, so the delta holds the
        // unit's complete retirement (plus any warm-up stragglers —
        // acceptable: the warm-up exists precisely to make the unit
        // steady-state).
        let partial: Vec<SimResult> = fan
            .into_inner()
            .into_iter()
            .zip(&before)
            .zip(units.iter_mut().zip(&mut probes))
            .map(|((stream, before), (units, probe))| {
                let (partial, p) = stream.finish_probed();
                let delta = UnitDelta::between(before, &partial);
                if delta.committed > 0 {
                    units.push(delta);
                }
                *probe = Some(p);
                partial
            })
            .collect();
        executed +=
            decoded.fast_forward(&mut arch, &mut cursor, sp.period - sp.warmup - sp.unit);
        let done = cursor.is_done(&decoded);
        if let Some(ctx) = ckpt {
            if done || executed.saturating_sub(last_saved) >= CKPT_INTERVAL_INSTS {
                for (m, key) in keys.iter().enumerate() {
                    let probe = probes[m].as_ref().expect("closed streams return probes");
                    let c = build_checkpoint(
                        &arch, cursor, &machines[m], probe, &units[m], warmup_done, executed,
                    );
                    save_cell_checkpoint(ctx, key, &c);
                }
                last_saved = executed;
            }
        }
        if done {
            // The SimResult counters live in the engine state, so
            // the last close reports the cumulative detailed totals
            // — including windows replayed from a restored
            // checkpoint.
            break partial;
        }
    };
    let actual = arch.mem().read_bytes(output_addr, expected.len());
    if let Some(offset) = actual.iter().zip(expected.iter()).position(|(a, e)| a != e) {
        panic!("{kernel} ({isa}) failed verification: output mismatch at byte offset {offset}");
    }
    let sims = detailed
        .iter()
        .zip(units)
        .zip(probes)
        .zip(machines.iter())
        .map(|(((detailed, units), probe), machine)| {
            let (sim, sampling) = sampled_estimate(detailed, &units, executed, warmup_done);
            let probe = probe.expect("closed streams return probes").into_report();
            CellSim { sim, probe, mem: machine.mem_stats(), sampling: Some(sampling) }
        })
        .collect();
    (vec![sims], executed)
}

/// Run one application fan-out group in sampled mode: [`stream_app_multi`]
/// drives one [`Broadcast`] of [`SampledSink`]s per ISA lane, so the scalar
/// phases interpret once for all lanes and every member samples its own
/// copy of its lane's stream. App groups do not checkpoint: their
/// wall-clock is interpreter-bound either way (the interpretation is
/// complete; only the detailed simulation is sampled), and the multi-phase
/// app drivers have no externally resumable cursor.
fn sample_app_group(
    app: AppKind,
    grid: &GridSpec,
    group: &FanGroup,
    lane_machines: &mut [Vec<SimMachine>],
    sp: SamplingParams,
) -> (Vec<Vec<CellSim>>, u64) {
    let mut lanes: Vec<(IsaKind, Broadcast<SampledSink<'_>>)> = group
        .lanes
        .iter()
        .zip(lane_machines.iter_mut())
        .map(|((isa, _), machines)| {
            let sinks = machines.iter_mut().map(|m| SampledSink::new(m.sim_probed(), sp));
            (*isa, Broadcast::new(sinks.collect()))
        })
        .collect();
    let params = AppParams { seed: grid.seed, scale: grid.scale };
    let (_, interpreted) = stream_app_multi(app, &params, &mut lanes)
        .unwrap_or_else(|e| panic!("{app} failed to build: {e}"));
    let finished: Vec<Vec<(SimResult, ProbeReport, CellSampling)>> = lanes
        .into_iter()
        .map(|(_, fan)| fan.into_inner().into_iter().map(SampledSink::finish).collect())
        .collect();
    let sims = finished
        .into_iter()
        .zip(lane_machines.iter())
        .map(|(lane, machines)| {
            lane.into_iter()
                .zip(machines)
                .map(|((sim, probe, sampling), machine)| CellSim {
                    sim,
                    probe,
                    mem: machine.mem_stats(),
                    sampling: Some(sampling),
                })
                .collect()
        })
        .collect();
    (sims, interpreted)
}

/// A sampling adapter between the functional interpreter and a cell's
/// [`SimStream`]: counts every graduated instruction, but forwards only
/// those inside the detailed warm-up + measurement window at the head of
/// each sampling period, snapshotting the stream around each unit.
///
/// This deliberately violates the faithful-sink convention of [`TraceSink`]
/// (every other sink forwards the complete stream in order): skipping the
/// tail of each period *is* the sampling. Application workloads run through
/// this adapter because their interpreters drive the sink callback-style and
/// cannot be windowed externally the way pre-decoded kernels can — the
/// functional interpretation stays complete; only the timing simulator sees
/// a sample. Unlike the kernel path the stream is never closed mid-run, so
/// unit deltas are measured between lagging snapshots (both ends lag by the
/// in-flight ROB, so the window length is preserved).
struct SampledSink<'m> {
    stream: SimStream<'m, AttributionProbe>,
    sp: SamplingParams,
    /// Position inside the current sampling period.
    pos: u64,
    executed: u64,
    warmup_done: u64,
    /// Cumulative counters at the open unit's start, if a unit is open.
    unit_open: Option<SimResult>,
    units: Vec<UnitDelta>,
}

impl<'m> SampledSink<'m> {
    fn new(stream: SimStream<'m, AttributionProbe>, sp: SamplingParams) -> Self {
        Self { stream, sp, pos: 0, executed: 0, warmup_done: 0, unit_open: None, units: Vec::new() }
    }

    fn step(&mut self, inst: &DynInst) {
        let in_warmup = self.pos < self.sp.warmup;
        let in_unit = !in_warmup && self.pos < self.sp.warmup + self.sp.unit;
        if in_unit && self.unit_open.is_none() {
            self.unit_open = Some(self.stream.snapshot());
        }
        if in_warmup || in_unit {
            self.stream.feed(inst);
            if in_warmup {
                self.warmup_done += 1;
            }
        }
        self.pos += 1;
        self.executed += 1;
        if self.pos == self.sp.warmup + self.sp.unit {
            self.close_unit();
        }
        if self.pos == self.sp.period {
            self.pos = 0;
        }
    }

    fn close_unit(&mut self) {
        if let Some(before) = self.unit_open.take() {
            let delta = UnitDelta::between(&before, &self.stream.snapshot());
            if delta.committed > 0 {
                self.units.push(delta);
            }
        }
    }

    /// Close a dangling unit (a workload that ended mid-window), finish the
    /// stream and turn the closed units into the cell's estimate.
    fn finish(mut self) -> (SimResult, ProbeReport, CellSampling) {
        self.close_unit();
        let (detailed, probe) = self.stream.finish_probed();
        let (sim, sampling) =
            sampled_estimate(&detailed, &self.units, self.executed, self.warmup_done);
        (sim, probe.into_report(), sampling)
    }
}

impl TraceSink for SampledSink<'_> {
    fn emit(&mut self, inst: DynInst) {
        self.step(&inst);
    }

    fn emit_ref(&mut self, inst: &DynInst) {
        self.step(inst);
    }

    fn emit_batch(&mut self, batch: &[DynInst]) {
        for inst in batch {
            self.step(inst);
        }
    }
}

fn run_grid(
    grid: &GridSpec,
    workers: usize,
    mode: ExecMode,
    progress: bool,
    ckpt: Option<&CkptContext>,
    cache: Option<&CacheContext<'_>>,
) -> (Vec<CellResult>, GridTiming, Option<GridCacheOutcome>) {
    let cells = grid.cells();
    let descriptor_of = |cell: &Cell| grid.configs[cell.config].descriptor(cell.way);

    // Cache lookup stage: resolve every cell's content address and pull its
    // record if one exists. Hit cells never reach the execution arms below —
    // a fully-cached fan-out group forms no group at all, so a warm run
    // performs zero interpretation and zero simulation. Any load failure
    // (missing, truncated, corrupt, wrong version or key) is a clean miss.
    let mut cached_sims: Vec<Option<CellSim>> = vec![None; cells.len()];
    let mut keys: Vec<CellKey> = Vec::new();
    if let Some(cc) = cache {
        for (i, cell) in cells.iter().enumerate() {
            let key = cc.key_for(grid, cell, mode);
            match cc.cache.load(&key) {
                Some(record) => {
                    if progress {
                        eprintln!("  {}: cache hit", key.cell);
                    }
                    cached_sims[i] = Some(CellSim {
                        sim: record.sim,
                        probe: record.probe,
                        mem: record.mem,
                        sampling: record.sampling,
                    });
                }
                None => {
                    if progress {
                        eprintln!("  {}: cache miss", key.cell);
                    }
                }
            }
            keys.push(key);
        }
    }
    // The miss subset the execution arms run over. Without a cache this is
    // every cell; group membership indices below are positions into this
    // vector, remapped to full-grid indices afterwards.
    let active: Vec<Cell> = cells
        .iter()
        .zip(&cached_sims)
        .filter(|(_, hit)| hit.is_none())
        .map(|(&cell, _)| cell)
        .collect();
    let active_idx: Vec<usize> = cached_sims
        .iter()
        .enumerate()
        .filter(|(_, hit)| hit.is_none())
        .map(|(i, _)| i)
        .collect();

    // Each simulation work unit is timed individually so the JSON `meta`
    // section can report simulator throughput (insts_per_sec) per cell. In
    // materialized mode the measured span is the trace replay alone; in
    // streamed mode it is the fused per-cell interpret+simulate pass; in
    // fan-out and sampled mode it is the shared group pass (every member of
    // a group carries the same span — see EXPERIMENTS.md).
    let counters = PoolCounters::default();
    let mut timing = GridTiming::default();
    let active_sims: Vec<CellSim> = if active.is_empty() {
        Vec::new()
    } else {
        match mode {
        ExecMode::Fanout => {
            let groups = fanout_groups(grid, &active);
            if workers <= 1 {
                // One worker: the serial Broadcast path — each group's
                // interpreter drives all member simulators on this thread,
                // no channels, no extra threads.
                run_groups(grid, &active, &groups, 1, &counters, &mut timing, |group, machines| {
                    run_fan_group_serial(grid, group, machines)
                })
            } else {
                run_fanout_pipelined(grid, &active, &groups, workers, &counters, progress, &mut timing)
            }
        }
        // The rate-1 sentinel routes through the *literal* streamed code
        // path: byte-identity with the exact modes is the correctness gate
        // of the sampling machinery, so it must not be a reimplementation.
        ExecMode::Streamed | ExecMode::Sampled { period: 0, .. } => {
            // No stage 1 — every cell runs the fused pipeline, rebuilding its
            // workload on the fly.
            let outcomes = parallel_map_with(
                &active,
                workers,
                || MachinePool::new(&counters),
                |cell| cell_label(grid, cell),
                |pool, cell| {
                    let config = &grid.configs[cell.config];
                    let started = Instant::now();
                    let mut machine = pool.take(&descriptor_of(cell));
                    let (sim, report) = {
                        let mut stream = machine.sim_probed();
                        interpret_into(cell.workload, config.isa, grid.scale, grid.seed, &mut stream);
                        let (sim, probe) = stream.finish_probed();
                        (sim, probe.into_report())
                    };
                    let mem = machine.mem_stats();
                    let ns = started.elapsed().as_nanos() as u64;
                    pool.put([machine]);
                    (CellSim { sim, probe: report, mem, sampling: None }, ns)
                },
            );
            timing.functional_passes = active.len();
            let mut sims = Vec::with_capacity(active.len());
            for (cs, ns) in outcomes {
                timing.cell_wall_ns.push(ns);
                timing.sim_wall_ns += ns;
                timing.functional_instructions += cs.sim.committed;
                sims.push(cs);
            }
            sims
        }
        ExecMode::Materialized => {
            // Stage 1: build every distinct (workload, ISA) trace once, in parallel.
            let mut pairs: Vec<(Workload, IsaKind)> = Vec::new();
            for cell in &active {
                let pair = (cell.workload, grid.configs[cell.config].isa);
                if !pairs.contains(&pair) {
                    pairs.push(pair);
                }
            }
            let traces = parallel_map_with(
                &pairs,
                workers,
                || (),
                |&(workload, isa)| format!("trace {} ({})", workload.label(), isa.label()),
                |(), &(workload, isa)| build_trace(workload, isa, grid.scale, grid.seed),
            );
            timing.functional_passes = pairs.len();
            timing.functional_instructions = traces.iter().map(|t| t.len() as u64).sum();
            let trace_of = |workload: Workload, isa: IsaKind| -> &Trace {
                let idx =
                    pairs.iter().position(|&p| p == (workload, isa)).expect("trace was built");
                &traces[idx]
            };

            // Stage 2: simulate every cell, in parallel.
            let outcomes = parallel_map_with(
                &active,
                workers,
                || MachinePool::new(&counters),
                |cell| cell_label(grid, cell),
                |pool, cell| {
                    let config = &grid.configs[cell.config];
                    let trace = trace_of(cell.workload, config.isa);
                    let started = Instant::now();
                    let mut machine = pool.take(&descriptor_of(cell));
                    let (sim, report) = machine.simulate_trace_probed(trace);
                    let mem = machine.mem_stats();
                    let ns = started.elapsed().as_nanos() as u64;
                    pool.put([machine]);
                    (CellSim { sim, probe: report, mem, sampling: None }, ns)
                },
            );
            let mut sims = Vec::with_capacity(active.len());
            for (cs, ns) in outcomes {
                timing.cell_wall_ns.push(ns);
                timing.sim_wall_ns += ns;
                sims.push(cs);
            }
            sims
        }
        ExecMode::Sampled { unit_insts, warmup_insts, period } => {
            // SMARTS-style sampling (period >= 1; period 0 took the streamed
            // arm above): each fan-out group interprets its workload once
            // and every member alternates its own detailed windows with the
            // group's shared functional fast-forward.
            let sp = SamplingParams { unit: unit_insts, warmup: warmup_insts, period };
            let groups = fanout_groups(grid, &active);
            run_groups(grid, &active, &groups, workers, &counters, &mut timing, |group, machines| {
                match group.workload {
                    Workload::Kernel(kernel) => {
                        sample_kernel_group(kernel, grid, &active, group, machines, sp, ckpt)
                    }
                    Workload::App(app) => sample_app_group(app, grid, group, machines, sp),
                }
            })
        }
        }
    };
    timing.pool = counters.stats();

    // Fill stage: persist every freshly simulated cell, then account for the
    // run. Fills happen before assembly so a panic-free run always leaves
    // the cache consistent with the document it produced.
    let mut fills = 0u64;
    if let Some(cc) = cache {
        for (&i, cs) in active_idx.iter().zip(&active_sims) {
            let record = CellRecord {
                sim: cs.sim,
                probe: cs.probe.clone(),
                mem: cs.mem,
                sampling: cs.sampling.clone(),
            };
            cc.cache.store(&keys[i], &record);
            fills += 1;
        }
    }
    let outcome = cache.map(|_| GridCacheOutcome {
        hits: (cells.len() - active.len()) as u64,
        misses: active.len() as u64,
        fills,
        cached: cached_sims.iter().map(Option::is_some).collect(),
    });

    // Remap the miss-subset wall-clock spans back to full-grid positions;
    // cached cells keep a zero span (their cost is document assembly, and
    // `meta.throughput` marks them `cached` instead of reporting a rate).
    let mut full_wall = vec![0u64; cells.len()];
    for (&i, &ns) in active_idx.iter().zip(&timing.cell_wall_ns) {
        full_wall[i] = ns;
    }
    timing.cell_wall_ns = full_wall;

    // Merge cache hits with fresh simulations, in grid order.
    let mut fresh = active_sims.into_iter();
    let sims: Vec<CellSim> = cached_sims
        .into_iter()
        .map(|hit| match hit {
            Some(sim) => sim,
            None => fresh.next().expect("one fresh sim per miss"),
        })
        .collect();

    // Stage 3 (serial, cheap): derive speed-ups against the baseline cells.
    let index_of = |workload: Workload, config: usize, way: usize| -> Option<usize> {
        cells.iter().position(|c| c.workload == workload && c.config == config && c.way == way)
    };
    let results = cells
        .iter()
        .zip(&sims)
        .map(|(cell, cs)| {
            let baseline = match grid.baseline {
                BaselinePolicy::None => None,
                BaselinePolicy::ConfigAtWidth { config, way } => index_of(cell.workload, config, way),
                BaselinePolicy::ConfigSameWidth { config } => index_of(cell.workload, config, cell.way),
                BaselinePolicy::PairedPrevious => {
                    index_of(cell.workload, cell.config - cell.config % 2, cell.way)
                }
            };
            let config = &grid.configs[cell.config];
            CellResult {
                workload: cell.workload,
                config_label: config.label.clone(),
                isa: config.isa,
                mem: config.mem,
                way: cell.way,
                cycles: cs.sim.cycles,
                instructions: cs.sim.committed,
                branches: cs.sim.branches,
                mispredictions: cs.sim.mispredictions,
                mem_accesses: cs.sim.mem_accesses,
                speedup: baseline.map(|b| cs.sim.speedup_over(&sims[b].sim)),
                breakdown: cs.probe.breakdown,
                intervals: cs.probe.intervals.clone(),
                mem_stats: cs.mem,
                sampling: cs.sampling.clone(),
            }
        })
        .collect();
    (results, timing, outcome)
}

/// Map `f` over `items` on `workers` scoped threads with a shared atomic
/// work-stealing cursor and worker-local scratch state: every worker thread
/// calls `state` once and threads the value through all of its `f` calls;
/// `label` names an item for the panic message should `f` panic on it. The
/// runner uses the state for the [`MachinePool`] — machines are reused
/// within a worker, and since a reset machine is bit-identical to a fresh
/// one, the state never influences results. Results land in the slot of
/// their input index, so the output order — and any serialization of it —
/// is independent of worker count and scheduling.
///
/// A panic in `f` fails fast: the panicking worker parks the shared cursor
/// past `items.len()` so idle workers stop claiming new items promptly
/// (in-flight items still finish; their results are discarded), and the
/// first failure is re-raised on the caller's thread with the failing item's
/// `label` — a kernel verification failure names its cell instead of
/// surfacing as a bare join panic after the surviving workers drained the
/// whole grid.
fn parallel_map_with<T: Sync, R: Send, S>(
    items: &[T],
    workers: usize,
    state: impl Fn() -> S + Sync,
    label: impl Fn(&T) -> String + Sync,
    f: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R> {
    if workers <= 1 || items.len() <= 1 {
        let mut local = state();
        return items
            .iter()
            .map(|item| {
                catch_unwind(AssertUnwindSafe(|| f(&mut local, item)))
                    .unwrap_or_else(|payload| raise_labeled(&label(item), payload))
            })
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let failure: Mutex<Option<(String, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(items.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut local = state();
                    let mut produced = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        match catch_unwind(AssertUnwindSafe(|| f(&mut local, &items[i]))) {
                            Ok(r) => produced.push((i, r)),
                            Err(payload) => {
                                cursor.store(items.len(), Ordering::Relaxed);
                                let mut first = lock_clean(&failure);
                                if first.is_none() {
                                    *first = Some((label(&items[i]), payload));
                                }
                                break;
                            }
                        }
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("map workers catch their own panics") {
                slots[i] = Some(r);
            }
        }
    });
    if let Some((who, payload)) = failure.into_inner().unwrap_or_else(|e| e.into_inner()) {
        raise_labeled(&who, payload);
    }
    slots.into_iter().map(|slot| slot.expect("every index was claimed")).collect()
}

impl RunResult {
    /// The deterministic results document: everything except the `meta`
    /// section. Two runs of the same spec serialize to identical bytes
    /// regardless of worker count. A sampled run (period > 0) additionally
    /// carries a `sampling` section — its parameters and per-cell IPC
    /// estimates with confidence intervals — and is byte-identical to other
    /// sampled runs with the same parameters.
    pub fn results_json(&self) -> Value {
        let mut members = vec![
            ("schema", Value::Str("momlab/v1".into())),
            ("experiment", Value::Str(self.spec.name.clone())),
            ("title", Value::Str(self.spec.title.clone())),
            ("config_hash", Value::Str(self.config_hash.clone())),
            ("fast", Value::Bool(self.spec.fast)),
        ];
        match (&self.data, self.spec.grid()) {
            (RunData::Grid(cells), Some(grid)) => {
                members.push(("kind", Value::Str("grid".into())));
                members.push(("scale", Value::Int(grid.scale as i64)));
                members.push(("seed", Value::Int(grid.seed as i64)));
                members.push((
                    "widths",
                    Value::Array(grid.widths.iter().map(|&w| Value::Int(w as i64)).collect()),
                ));
                members.push((
                    "configs",
                    Value::Array(
                        grid.configs
                            .iter()
                            .map(|c| {
                                let mut fields = vec![
                                    ("label", Value::Str(c.label.clone())),
                                    ("isa", Value::Str(c.isa.label().into())),
                                    ("mem", Value::Str(mem_label(c.mem))),
                                ];
                                // Overrides appear only when present, so
                                // pre-override documents stay byte-identical.
                                if let Some(rob) = c.rob {
                                    fields.push(("rob", Value::Int(rob as i64)));
                                }
                                Value::object(fields)
                            })
                            .collect(),
                    ),
                ));
                members.push((
                    "cells",
                    Value::Array(cells.iter().map(cell_json).collect()),
                ));
                if let ExecMode::Sampled { unit_insts, warmup_insts, period } = self.mode {
                    if period > 0 {
                        members.push((
                            "sampling",
                            Value::object(vec![
                                ("unit_insts", Value::Int(unit_insts as i64)),
                                ("warmup_insts", Value::Int(warmup_insts as i64)),
                                ("period", Value::Int(period as i64)),
                                (
                                    "cells",
                                    Value::Array(
                                        cells
                                            .iter()
                                            .filter_map(|c| {
                                                c.sampling
                                                    .as_ref()
                                                    .map(|s| sampling_json(c, s))
                                            })
                                            .collect(),
                                    ),
                                ),
                            ]),
                        ));
                    }
                }
            }
            (RunData::Static(rows), _) => {
                members.push(("kind", Value::Str("static".into())));
                members.push(("rows", static_rows_json(rows)));
            }
            (RunData::Grid(_), None) => unreachable!("grid data implies a grid spec"),
        }
        Value::object(members)
    }

    /// The full on-disk document: [`RunResult::results_json`] plus a `meta`
    /// section with wall-clock, worker-count, execution-mode and throughput
    /// information (the only part that may differ between two runs of the
    /// same spec).
    pub fn document_json(&self) -> Value {
        let mut doc = self.results_json();
        let mut meta_members = vec![
            ("workers", Value::Int(self.workers as i64)),
            ("wall_ms", Value::Int(self.wall_ms as i64)),
            ("streamed", Value::Bool(self.mode.is_streamed())),
            ("mode", Value::Str(self.mode.label().into())),
            ("generated_by", Value::Str(format!("momlab {}", env!("CARGO_PKG_VERSION")))),
            // Which execution engine produced the numbers, so perf
            // trajectory documents are self-describing: `swar` is true for
            // every build of this engine (the portable chunked-u64 lane
            // kernels are unconditional), `simd_feature` reports whether the
            // SSE2 backend was compiled in *and* usable on this target, and
            // `fused_pairs` counts the fused µop pairs decode created during
            // this run (0 when a warm machine pool skipped re-decoding).
            (
                "engine",
                Value::object(vec![
                    ("swar", Value::Bool(true)),
                    ("simd_feature", Value::Bool(mom_isa::simd_active())),
                    ("fused_pairs", Value::Int(self.fused_pairs as i64)),
                ]),
            ),
            // The host the numbers were measured on, so committed BENCH
            // documents are comparable: wall-clock figures from different
            // core counts or architectures are not.
            (
                "host",
                Value::object(vec![
                    (
                        "cpus",
                        Value::Int(
                            std::thread::available_parallelism()
                                .map(|n| n.get())
                                .unwrap_or(1) as i64,
                        ),
                    ),
                    ("arch", Value::Str(std::env::consts::ARCH.into())),
                    ("os", Value::Str(std::env::consts::OS.into())),
                    ("simd_active", Value::Bool(mom_isa::simd_active())),
                ]),
            ),
        ];
        if let Some(pipeline) = &self.pipeline {
            // Pipelined fan-out accounting: batch/channel geometry plus how
            // much of the consumer shards' wall-clock was spent simulating
            // (vs blocked on the interpreter). Present exactly when the
            // pipelined scheduler ran (fanout mode, 2+ workers).
            meta_members.push((
                "pipeline",
                Value::object(vec![
                    ("batch_insts", Value::Int(pipeline.batch_insts as i64)),
                    ("channel_batches", Value::Int(pipeline.channel_batches as i64)),
                    ("pipelined_groups", Value::Int(pipeline.pipelined_groups as i64)),
                    ("serial_groups", Value::Int(pipeline.serial_groups as i64)),
                    (
                        "occupancy",
                        pipeline.occupancy.map(Value::Float).unwrap_or(Value::Null),
                    ),
                ]),
            ));
        }
        if let Some(cells) = self.cells() {
            // The functional-sharing accounting: how many interpreter passes
            // this run performed, how many instructions they executed, and
            // what per-cell interpretation would have cost instead. The
            // sharing factor is the instruction-weighted amortization of the
            // fan-out runner (1.0 in streamed mode by construction).
            meta_members.push((
                "shared_passes",
                Value::object(vec![
                    ("cells", Value::Int(cells.len() as i64)),
                    ("functional_passes", Value::Int(self.functional_passes as i64)),
                    (
                        "cell_instructions",
                        Value::Int(cells.iter().map(|c| c.instructions).sum::<u64>() as i64),
                    ),
                    (
                        "functional_instructions",
                        Value::Int(self.functional_instructions as i64),
                    ),
                    (
                        "sharing_factor",
                        self.sharing_factor().map(Value::Float).unwrap_or(Value::Null),
                    ),
                ]),
            ));
            if cells.len() == self.cell_wall_ns.len() {
                meta_members.push(("throughput", Value::Array(
                    cells
                        .iter()
                        .zip(&self.cell_wall_ns)
                        .enumerate()
                        .map(|(i, (cell, &ns))| {
                            let mut fields = vec![
                                ("workload", Value::Str(cell.workload.label().into())),
                                ("config", Value::Str(cell.config_label.clone())),
                                ("way", Value::Int(cell.way as i64)),
                            ];
                            // A cached cell's span is document assembly, not
                            // simulation — a rate computed from it would be
                            // fabricated, so mark it instead. The extra field
                            // appears only for cached cells, keeping
                            // cache-free documents byte-identical.
                            if self.cached_cells.get(i).copied().unwrap_or(false) {
                                fields.push(("insts_per_sec", Value::Null));
                                fields.push(("cached", Value::Bool(true)));
                            } else {
                                fields.push((
                                    "insts_per_sec",
                                    Value::Float(insts_per_sec(cell.instructions, ns)),
                                ));
                            }
                            Value::object(fields)
                        })
                        .collect(),
                )));
            }
            // Machine-pool reuse accounting for this run (wall-clock-free but
            // scheduling-dependent, hence meta).
            meta_members.push((
                "pool",
                Value::object(vec![
                    ("hits", Value::Int(self.pool.hits as i64)),
                    ("builds", Value::Int(self.pool.builds as i64)),
                ]),
            ));
        }
        if let Some(cache) = &self.cache {
            // Result-cache accounting: present exactly when the run had a
            // cache, so cache-free documents stay byte-identical.
            meta_members.push((
                "cache",
                Value::object(vec![
                    ("hits", Value::Int(cache.hits as i64)),
                    ("misses", Value::Int(cache.misses as i64)),
                    ("fills", Value::Int(cache.fills as i64)),
                    ("bytes", Value::Int(cache.bytes as i64)),
                    ("dir", Value::Str(cache.dir.clone())),
                ]),
            ));
        }
        if !self.spans.is_empty() {
            // Scheduler span trace (fan-out and sampled modes): one entry per
            // work item, chronological. Informational — never diffed.
            meta_members.push((
                "spans",
                Value::Array(self.spans.iter().map(span_json).collect()),
            ));
        }
        let meta = Value::object(meta_members);
        if let Value::Object(members) = &mut doc {
            members.push(("meta".into(), meta));
        }
        doc
    }

    /// Aggregate simulator throughput over all grid cells, in dynamic
    /// instructions per wall-clock second (`None` for static experiments or
    /// when nothing was timed). The denominator is the sum of the *distinct*
    /// simulation spans ([`RunResult::sim_wall_ns`]), so a fan-out group's
    /// shared span is never counted once per member.
    /// Cells served from the result cache contribute neither instructions
    /// nor wall-clock (their spans are zero and their work was document
    /// assembly), so a warm run can never fabricate a throughput figure;
    /// when *every* cell was cached, nothing was measured and this returns
    /// `None`.
    pub fn total_insts_per_sec(&self) -> Option<f64> {
        let cells = self.cells()?;
        if cells.is_empty() || cells.len() != self.cell_wall_ns.len() {
            return None;
        }
        let insts: u64 = cells
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.cached_cells.get(*i).copied().unwrap_or(false))
            .map(|(_, c)| c.instructions)
            .sum();
        if insts == 0 && self.all_cells_cached() {
            return None;
        }
        Some(insts_per_sec(insts, self.sim_wall_ns))
    }

    /// Whether every grid cell of this run was served from the result cache
    /// (`false` for static experiments, empty grids, or cache-free runs).
    /// `momlab run --throughput-gate` skips a fully-cached run — there is no
    /// simulation to measure — instead of failing it.
    pub fn all_cells_cached(&self) -> bool {
        match self.cells() {
            Some(cells) => {
                !cells.is_empty()
                    && self.cached_cells.len() == cells.len()
                    && self.cached_cells.iter().all(|&cached| cached)
            }
            None => false,
        }
    }

    /// The instruction-weighted functional-sharing factor: dynamic
    /// instructions all cells consumed divided by the instructions the
    /// functional interpreter actually executed (each shared pass counted
    /// once). `None` for static experiments or empty grids.
    pub fn sharing_factor(&self) -> Option<f64> {
        let cells = self.cells()?;
        if cells.is_empty() || self.functional_instructions == 0 {
            return None;
        }
        let consumed: u64 = cells.iter().map(|c| c.instructions).sum();
        Some(consumed as f64 / self.functional_instructions as f64)
    }

    /// The grid cells, if this was a grid experiment.
    pub fn cells(&self) -> Option<&[CellResult]> {
        match &self.data {
            RunData::Grid(cells) => Some(cells),
            RunData::Static(_) => None,
        }
    }
}

/// Simulated instructions per wall-clock second.
fn insts_per_sec(instructions: u64, wall_ns: u64) -> f64 {
    instructions as f64 * 1e9 / wall_ns.max(1) as f64
}

/// The `mem` field of the JSON schema. Unlike [`MemModelKind::label`], the
/// perfect model embeds its latency so that cells of the latency study keyed
/// on `(workload, isa, mem, way)` stay distinguishable.
pub fn mem_label(mem: MemModelKind) -> String {
    match mem {
        MemModelKind::Perfect { latency } => format!("perfect-{latency}"),
        other => other.label().to_string(),
    }
}

fn cell_json(cell: &CellResult) -> Value {
    Value::object(vec![
        ("workload", Value::Str(cell.workload.label().into())),
        ("workload_kind", Value::Str(cell.workload.kind_label().into())),
        ("config", Value::Str(cell.config_label.clone())),
        ("isa", Value::Str(cell.isa.label().into())),
        ("mem", Value::Str(mem_label(cell.mem))),
        ("way", Value::Int(cell.way as i64)),
        ("cycles", Value::Int(cell.cycles as i64)),
        ("instructions", Value::Int(cell.instructions as i64)),
        ("branches", Value::Int(cell.branches as i64)),
        ("mispredictions", Value::Int(cell.mispredictions as i64)),
        ("mem_accesses", Value::Int(cell.mem_accesses as i64)),
        ("ipc", Value::Float(cell.ipc())),
        ("speedup", cell.speedup.map(Value::Float).unwrap_or(Value::Null)),
        ("mispredict_rate", Value::Float(cell.mispredict_rate())),
        ("mem", mem_json(&cell.mem_stats)),
        ("breakdown", breakdown_json(&cell.breakdown)),
        ("intervals", intervals_json(&cell.intervals)),
    ])
}

/// One entry of the `sampling.cells` array: the cell's identity (the same
/// `(workload, config, way)` key `momlab diff` matches on) plus its sampling
/// accounting and IPC estimate.
fn sampling_json(cell: &CellResult, s: &CellSampling) -> Value {
    Value::object(vec![
        ("workload", Value::Str(cell.workload.label().into())),
        ("config", Value::Str(cell.config_label.clone())),
        ("way", Value::Int(cell.way as i64)),
        ("units_measured", Value::Int(s.units_measured as i64)),
        ("measured_insts", Value::Int(s.measured_insts as i64)),
        ("warmup_insts", Value::Int(s.warmup_insts as i64)),
        ("total_insts", Value::Int(s.total_insts as i64)),
        ("ipc_mean", Value::Float(s.ipc_mean)),
        ("ipc_ci95", Value::Float(s.ipc_ci95)),
    ])
}

/// The `mem` member of a cell: per-cell memory-system counters, split by
/// hierarchy level. Deterministic — diffed at tolerance zero like `cycles`.
fn mem_json(stats: &MemSystemStats) -> Value {
    let cache = |c: &CacheStats| {
        let hit_rate =
            if c.accesses() == 0 { 0.0 } else { c.hits as f64 / c.accesses() as f64 };
        Value::object(vec![
            ("hits", Value::Int(c.hits as i64)),
            ("misses", Value::Int(c.misses as i64)),
            ("writebacks", Value::Int(c.writebacks as i64)),
            ("hit_rate", Value::Float(hit_rate)),
        ])
    };
    Value::object(vec![
        ("requests", Value::Int(stats.requests as i64)),
        ("element_accesses", Value::Int(stats.element_accesses as i64)),
        ("port_stalls", Value::Int(stats.port_stalls as i64)),
        ("bank_conflicts", Value::Int(stats.bank_conflicts as i64)),
        ("mshr_stalls", Value::Int(stats.mshr_stalls as i64)),
        ("vector_transactions", Value::Int(stats.vector_transactions as i64)),
        ("l1", cache(&stats.l1)),
        ("l2", cache(&stats.l2)),
        (
            "dram",
            Value::object(vec![
                ("transfers", Value::Int(stats.dram.transfers as i64)),
                ("busy_cycles", Value::Int(stats.dram.busy_cycles as i64)),
                ("queue_cycles", Value::Int(stats.dram.queue_cycles as i64)),
            ]),
        ),
    ])
}

/// The `breakdown` member of a cell: every commit-slot cycle attributed to
/// exactly one cause, keyed by [`StallCause::label`]. The components sum to
/// `total_cycles` — an invariant asserted when the probe is read out.
fn breakdown_json(b: &StallBreakdown) -> Value {
    let mut fields = vec![("total_cycles", Value::Int(b.total_cycles as i64))];
    for (cause, cycles) in b.components() {
        fields.push((cause.label(), Value::Int(cycles as i64)));
    }
    Value::object(fields)
}

/// The `intervals` member of a cell: the windowed IPC timeline with the
/// dominant stall cause per window.
fn intervals_json(iv: &IntervalStats) -> Value {
    Value::object(vec![
        ("window_cycles", Value::Int(iv.window_cycles as i64)),
        (
            "windows",
            Value::Array(
                iv.windows
                    .iter()
                    .map(|w| {
                        Value::object(vec![
                            ("committed", Value::Int(w.committed as i64)),
                            ("cycles", Value::Int(w.cycles as i64)),
                            ("ipc", Value::Float(w.ipc())),
                            ("top", Value::Str(w.top.label().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One scheduler span for the `meta.spans` array (wall-clock data: lives in
/// `meta`, never in `results`).
fn span_json(span: &SpanRec) -> Value {
    Value::object(vec![
        ("name", Value::Str(span.name.clone())),
        ("cat", Value::Str(span.cat.into())),
        ("tid", Value::Int(span.tid as i64)),
        ("start_ns", Value::Int(span.start_ns as i64)),
        ("dur_ns", Value::Int(span.dur_ns as i64)),
        ("wait_ns", Value::Int(span.wait_ns as i64)),
        ("insts", Value::Int(span.insts as i64)),
    ])
}

fn static_rows_json(rows: &StaticRows) -> Value {
    let pair = |(a, b): (usize, usize)| Value::Array(vec![Value::Int(a as i64), Value::Int(b as i64)]);
    match rows {
        StaticRows::Table1(rows) => Value::Array(
            rows.iter()
                .map(|r| {
                    Value::object(vec![
                        ("way", Value::Int(r.way as i64)),
                        ("rob", Value::Int(r.rob as i64)),
                        ("lsq", Value::Int(r.lsq as i64)),
                        ("bimodal", Value::Int(r.bimodal as i64)),
                        ("btb", Value::Int(r.btb as i64)),
                        ("int_units", pair(r.int_units)),
                        ("fp_units", pair(r.fp_units)),
                        ("media_units", pair(r.media_units)),
                        ("mem_ports", Value::Int(r.mem_ports as i64)),
                        ("int_regs", pair(r.int_regs)),
                    ])
                })
                .collect(),
        ),
        StaticRows::Table2(rows) => Value::Array(
            rows.iter()
                .map(|r| {
                    Value::object(vec![
                        ("isa", Value::Str(r.isa.to_string())),
                        ("media_regs", pair(r.media_regs)),
                        ("acc_regs", pair(r.acc_regs)),
                        ("media_ports", pair(r.media_ports)),
                        ("acc_ports", pair(r.acc_ports)),
                        ("size_kb", Value::Float(r.size_kb)),
                        ("normalized_area", Value::Float(r.normalized_area)),
                    ])
                })
                .collect(),
        ),
        StaticRows::Table3(rows) => Value::Array(
            rows.iter()
                .map(|r| {
                    let c = r.config;
                    Value::object(vec![
                        ("label", Value::Str(r.label.clone())),
                        ("l1_ports", Value::Int(c.l1_ports as i64)),
                        ("l1_banks", Value::Int(c.l1_banks as i64)),
                        ("l1_latency", Value::Int(c.l1_latency as i64)),
                        ("l2_vector_ports", Value::Int(c.l2_vector_ports as i64)),
                        ("l2_vector_width", Value::Int(c.l2_vector_width as i64)),
                        ("l2_banks", Value::Int(c.l2_banks as i64)),
                        ("l2_latency", Value::Int(c.l2_latency as i64)),
                    ])
                })
                .collect(),
        ),
        StaticRows::Inventory(rows) => Value::Array(
            rows.iter()
                .map(|r| {
                    Value::object(vec![
                        ("isa", Value::Str(r.isa.label().into())),
                        ("modelled", Value::Int(r.modelled as i64)),
                        ("paper", r.paper.map(|p| Value::Int(p as i64)).unwrap_or(Value::Null)),
                    ])
                })
                .collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::figure5_spec;
    use mom_kernels::KernelKind;

    fn map_doubled(items: &[usize], workers: usize) -> Vec<usize> {
        parallel_map_with(items, workers, || (), |&x| format!("item {x}"), |(), &x| x * 2)
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let doubled = map_doubled(&items, 4);
        assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        assert_eq!(doubled, map_doubled(&items, 1));
    }

    #[test]
    fn a_panicking_item_aborts_promptly_and_names_itself() {
        let items: Vec<usize> = (0..1000).collect();
        let executed = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            parallel_map_with(
                &items,
                4,
                || (),
                |&x| format!("compensation / mom / {x}-way"),
                |(), &x| {
                    if x == 3 {
                        panic!("injected cell failure");
                    }
                    executed.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    x
                },
            )
        }));
        let payload = caught.expect_err("the worker panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("formatted panic message");
        assert!(
            msg.contains("compensation / mom / 3-way") && msg.contains("injected cell failure"),
            "panic must name the failing cell: {msg}"
        );
        // Fail fast: the parked cursor stops idle workers long before the
        // 999 surviving items are drained.
        let ran = executed.load(Ordering::Relaxed);
        assert!(ran < 900, "{ran} items still ran after the panic");
    }

    #[test]
    fn serial_path_also_labels_a_panicking_item() {
        let items = [1usize, 2];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            parallel_map_with(
                &items,
                1,
                || (),
                |&x| format!("item-{x}"),
                |(), &x| {
                    if x == 2 {
                        panic!("boom");
                    }
                    x
                },
            )
        }));
        let payload = caught.expect_err("panic propagates serially too");
        let msg = payload.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.contains("item-2") && msg.contains("boom"), "{msg}");
    }

    #[test]
    fn pipelined_fanout_matches_serial_and_reports_pipeline_meta() {
        let spec = figure5_spec(&[KernelKind::Compensation], 1, 1, true);
        let serial = run_with(&spec, 1);
        let piped = run_with(&spec, 3);
        // Byte-identical results; only meta differs.
        assert_eq!(
            serial.results_json().to_pretty(),
            piped.results_json().to_pretty(),
            "pipelined fan-out diverged from the serial broadcast"
        );
        assert!(serial.pipeline.is_none(), "one worker never pipelines");
        let stats = piped.pipeline.as_ref().expect("2+ workers run the pipelined scheduler");
        // Kernel groups (single lane) always pipeline when workers >= 2.
        assert_eq!(stats.pipelined_groups, 4);
        assert_eq!(stats.serial_groups, 0);
        assert_eq!(stats.batch_insts, crate::pipeline_batch_insts());
        assert_eq!(stats.channel_batches, crate::pipeline_channel_batches());
        let occupancy = stats.occupancy.expect("pipelined groups report occupancy");
        assert!((0.0..=1.0).contains(&occupancy), "occupancy {occupancy}");
        // The meta section carries the same numbers.
        let doc = piped.document_json();
        let pipeline = doc.get("meta").and_then(|m| m.get("pipeline")).expect("meta.pipeline");
        assert_eq!(
            pipeline.get("batch_insts").and_then(Value::as_i64),
            Some(stats.batch_insts as i64)
        );
        assert_eq!(pipeline.get("pipelined_groups").and_then(Value::as_i64), Some(4));
        assert!(pipeline.get("occupancy").and_then(Value::as_f64).is_some());
        // And the serial run's meta has no pipeline section.
        assert!(serial.document_json().get("meta").and_then(|m| m.get("pipeline")).is_none());
    }

    #[test]
    fn app_groups_fall_back_to_serial_when_workers_cannot_cover_their_lanes() {
        let spec = ExperimentSpec::builtin("figure7", 1, true).expect("figure7 is built in");
        // figure7 app groups span 4 ISA lanes; 2 workers cannot field an
        // interpreter plus one shard per lane, so the groups run serially —
        // but still through the pipelined scheduler's accounting.
        let narrow = run_with(&spec, 2);
        let stats = narrow.pipeline.as_ref().expect("pipelined scheduler ran");
        assert_eq!(stats.pipelined_groups, 0);
        assert!(stats.serial_groups > 0);
        assert!(stats.occupancy.is_none(), "no consumer shards ran");
        // With enough workers the same groups pipeline, byte-identically.
        let wide = run_with(&spec, 6);
        let wide_stats = wide.pipeline.as_ref().expect("pipelined scheduler ran");
        assert_eq!(wide_stats.serial_groups, 0);
        assert_eq!(wide_stats.pipelined_groups, stats.serial_groups);
        assert_eq!(narrow.results_json().to_pretty(), wide.results_json().to_pretty());
    }

    #[test]
    fn static_experiments_run_and_serialize() {
        for name in ["table1", "table2", "table3", "isa_inventory"] {
            let spec = ExperimentSpec::builtin(name, 1, false).unwrap();
            let result = run_with(&spec, 1);
            let json = result.results_json();
            assert_eq!(json.get("kind").and_then(Value::as_str), Some("static"));
            let rows = json.get("rows").and_then(Value::as_array).expect("rows array");
            assert!(!rows.is_empty(), "{name} produced no rows");
            // The full document reparses.
            let doc = result.document_json().to_pretty();
            Value::parse(&doc).expect("document parses");
        }
    }

    #[test]
    fn figure5_grid_baselines_are_unity() {
        let spec = figure5_spec(&[KernelKind::Compensation], 1, 1, false);
        let result = run_with(&spec, 2);
        let cells = result.cells().expect("grid cells");
        assert_eq!(cells.len(), 16);
        let baseline = cells
            .iter()
            .find(|c| c.isa == IsaKind::Alpha && c.way == 1)
            .expect("baseline cell present");
        assert!((baseline.speedup.unwrap() - 1.0).abs() < 1e-12);
        let mom1 = cells.iter().find(|c| c.isa == IsaKind::Mom && c.way == 1).unwrap();
        assert!(mom1.speedup.unwrap() > 1.0, "MOM outruns scalar Alpha");
        assert!(cells.iter().all(|c| c.cycles > 0 && c.instructions > 0));
    }

    #[test]
    fn mem_labels_distinguish_perfect_latencies() {
        assert_eq!(mem_label(MemModelKind::Perfect { latency: 1 }), "perfect-1");
        assert_eq!(mem_label(MemModelKind::Perfect { latency: 50 }), "perfect-50");
        assert_eq!(mem_label(MemModelKind::VectorCache), "vector-cache");
    }

    #[test]
    fn fanout_amortizes_figure5_groups_by_the_width_count() {
        // Each (kernel, isa) group of figure5 serves all four widths, so one
        // functional pass replaces four: sharing factor exactly 4.
        let spec = figure5_spec(&[KernelKind::Compensation, KernelKind::AddBlock], 1, 1, true);
        let result = run_with(&spec, 2);
        assert_eq!(result.mode, ExecMode::Fanout);
        let cells = result.cells().unwrap();
        assert_eq!(cells.len(), 2 * 4 * 4);
        assert_eq!(result.functional_passes, 2 * 4, "one pass per (kernel, isa)");
        let factor = result.sharing_factor().expect("grid has a sharing factor");
        assert!((factor - 4.0).abs() < 1e-9, "figure5 sharing factor {factor}");
        assert_eq!(
            result.functional_instructions * 4,
            cells.iter().map(|c| c.instructions).sum::<u64>()
        );
        assert_eq!(result.cell_wall_ns.len(), cells.len());
        // Members of one group share the same measured span.
        let group: Vec<&u64> = result
            .cell_wall_ns
            .iter()
            .take(4 * 4)
            .collect();
        let first_group = &group[..4];
        assert!(first_group.iter().all(|&&ns| ns == *first_group[0]));
    }

    #[test]
    fn shared_passes_meta_is_reported() {
        let spec = figure5_spec(&[KernelKind::Compensation], 1, 1, true);
        let result = run_with(&spec, 1);
        let doc = result.document_json();
        let meta = doc.get("meta").expect("meta present");
        assert_eq!(meta.get("mode").and_then(Value::as_str), Some("fanout"));
        assert_eq!(meta.get("streamed"), Some(&Value::Bool(true)));
        let sp = meta.get("shared_passes").expect("shared_passes present");
        assert_eq!(sp.get("cells").and_then(Value::as_i64), Some(16));
        assert_eq!(sp.get("functional_passes").and_then(Value::as_i64), Some(4));
        let factor = sp.get("sharing_factor").and_then(Value::as_f64).unwrap();
        assert!((factor - 4.0).abs() < 1e-9);
        let cell_insts = sp.get("cell_instructions").and_then(Value::as_i64).unwrap();
        let func_insts = sp.get("functional_instructions").and_then(Value::as_i64).unwrap();
        assert_eq!(cell_insts, func_insts * 4);
    }

    #[test]
    fn sweep_runs_and_reports_its_grid() {
        let spec = ExperimentSpec::builtin("sweep", 1, true).unwrap();
        let result = run_with(&spec, 2);
        let cells = result.cells().unwrap();
        // Fast dims: 4 ISAs x 2 ROBs x 2 latencies x 1 width.
        assert_eq!(cells.len(), 16);
        assert_eq!(result.functional_passes, 4, "one pass per ISA");
        assert!((result.sharing_factor().unwrap() - 4.0).abs() < 1e-9);
        assert!(cells.iter().all(|c| c.speedup.is_none()), "sweep has no baseline");
        // A bigger ROB at the same width/latency never hurts.
        let cycles_of = |label: &str| {
            cells.iter().find(|c| c.config_label == label).map(|c| c.cycles).unwrap()
        };
        assert!(cycles_of("mom/rob64/lat50") <= cycles_of("mom/rob16/lat50"));
        // The config array records the ROB override.
        let doc = result.results_json();
        let configs = doc.get("configs").and_then(Value::as_array).unwrap();
        assert!(configs.iter().all(|c| c.get("rob").and_then(Value::as_i64).is_some()));
    }

    #[test]
    fn exec_mode_labels() {
        assert_eq!(ExecMode::Fanout.label(), "fanout");
        assert_eq!(ExecMode::Streamed.label(), "streamed");
        assert_eq!(ExecMode::Materialized.label(), "materialized");
        assert!(ExecMode::Fanout.is_streamed());
        assert!(!ExecMode::Materialized.is_streamed());
        let sampled = ExecMode::Sampled {
            unit_insts: DEFAULT_SAMPLE_UNIT,
            warmup_insts: DEFAULT_SAMPLE_WARMUP,
            period: DEFAULT_SAMPLE_PERIOD,
        };
        assert_eq!(sampled.label(), "sampled");
        assert!(sampled.is_streamed());
        assert!(sampled.is_estimated());
        assert!(!ExecMode::Streamed.is_estimated());
        // Rate 1 (period 0) is exact, not an estimate.
        assert!(!ExecMode::Sampled { unit_insts: 1, warmup_insts: 0, period: 0 }.is_estimated());
    }

    #[test]
    fn sampled_estimate_statistics() {
        let unit = |committed: u64, cycles: u64| UnitDelta {
            committed,
            cycles,
            branches: committed / 10,
            mispredictions: committed / 100,
            mem_retries: 0,
            mem_accesses: committed / 2,
        };
        // Two units at IPC 2.0 and 1.0: mean 1.5, nonzero CI, exact
        // committed count, cycles = total / mean.
        let detailed = SimResult::default();
        let units = [unit(1000, 500), unit(1000, 1000)];
        let (sim, s) = sampled_estimate(&detailed, &units, 30_000, 4000);
        assert_eq!(s.units_measured, 2);
        assert_eq!(s.measured_insts, 2000);
        assert_eq!(s.warmup_insts, 4000);
        assert_eq!(s.total_insts, 30_000);
        assert!((s.ipc_mean - 1.5).abs() < 1e-12);
        assert!(s.ipc_ci95 > 0.0);
        assert_eq!(sim.committed, 30_000);
        assert_eq!(sim.cycles, 20_000);
        // Counters scale by total / measured = 15x.
        assert_eq!(sim.branches, 200 * 15);
        // A single unit has no confidence interval.
        let (_, single) = sampled_estimate(&detailed, &units[..1], 30_000, 2000);
        assert_eq!(single.ipc_ci95, 0.0);
    }

    #[test]
    fn sampled_estimate_falls_back_without_units() {
        // A fully detailed run (short workload) passes through exactly.
        let detailed = SimResult {
            cycles: 400,
            committed: 600,
            branches: 60,
            mispredictions: 6,
            mem_retries: 0,
            mem_accesses: 300,
        };
        let (sim, s) = sampled_estimate(&detailed, &[], 600, 600);
        assert_eq!(sim, detailed);
        assert_eq!(s.units_measured, 0);
        assert!((s.ipc_mean - detailed.ipc()).abs() < 1e-12);
        // A partially detailed run scales up to the exact instruction count.
        let (scaled, _) = sampled_estimate(&detailed, &[], 1200, 600);
        assert_eq!(scaled.committed, 1200);
        assert_eq!(scaled.cycles, 800);
        assert_eq!(scaled.branches, 120);
    }
}
