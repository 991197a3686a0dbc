//! The parallel experiment runner.
//!
//! Grid experiments run on **one exact engine**: the grid's cells are
//! regrouped into fan-out groups — one per `(kernel, ISA)`, one per
//! application spanning all of its ISAs — and each group runs **one**
//! functional interpretation of its workload (kernels verified against the
//! golden reference) whose graduated instructions fan out through a serial
//! `Broadcast` to the streaming timing simulators of every member machine.
//! The interpreter's work is amortized across the whole group — Figure 5's
//! 128 cells cost 32 functional passes — and no trace is ever materialized.
//! Groups are the parallel work unit: `workers` threads claim whole groups
//! off a shared cursor ([`ExecMode::Fanout`], the default at every worker
//! count).
//!
//! [`ExecMode::Sampled`] runs the same groups under SMARTS-style statistical
//! sampling: each group interprets its workload once, every member machine
//! simulates its own detailed warm-up and measurement windows, and the
//! functional fast-forward between windows runs once for the whole group,
//! so wall-clock scales with the number of samples instead of the workload
//! length. Results are **estimates** (reported with per-cell confidence
//! intervals in a `sampling` results section) — except at sampling rate 1
//! (`period == 0`), which runs the exact engine and is byte-identical to
//! [`ExecMode::Fanout`]. Sampled kernel cells can persist [`Checkpoint`]s
//! between periods (see [`CheckpointConfig`]) and resume from them
//! bit-exactly.
//!
//! The mode is recorded only in the JSON `meta` section, along with the
//! functional-sharing accounting (`meta.shared_passes`) and one scheduler
//! span per group (`meta.spans`). Sampled runs (period > 0) are equally
//! deterministic for fixed sampling parameters, but their cell results are
//! statistical estimates, not the exact cycle counts.
//!
//! Machines are built from the declarative [`MachineDescriptor`] resolved by
//! each grid cell and **reused across work units**: every worker keeps a
//! pool of instantiated machines keyed by descriptor and `reset()`s them
//! between groups instead of reallocating predictor tables, ring buffers and
//! cache arrays (a reset machine is bit-identical to a fresh one; the
//! `mom-cpu`/`mom-mem` test suites pin that property).
//!
//! Every result is written back to the slot of its cell index. Since each
//! cell's simulation is a pure function of the spec, the result vector —
//! and therefore the JSON document — is **bit-identical** regardless of
//! worker count or scheduling. [`determinism`] states the guarantee;
//! `tests/determinism.rs` enforces it, against an independent
//! trace-replay oracle.
//!
//! [`determinism`]: self#determinism
//!
//! # Determinism
//!
//! For any spec `s` and worker counts `a, b >= 1`:
//! `run_with(&s, a).results_json() == run_with(&s, b).results_json()` —
//! byte-for-byte. Only the `meta` section of the full document (wall-clock,
//! worker count, mode, sharing accounting) may differ between runs. A
//! sampled run is byte-identical to another sampled run with the same
//! parameters at any worker count, and at `period == 0` byte-identical to
//! the exact engine.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mom_apps::{stream_app, stream_app_multi, AppKind, AppParams};
use mom_core::{snapshot, ExecCursor, Machine};
use mom_cpu::{
    AttributionProbe, Checkpoint, IntervalStats, MachineDescriptor, ProbeReport, SimMachine,
    SimResult, SimStream, StallBreakdown,
};
use mom_isa::codec::{CodecError, Decoder, Encoder};
use mom_isa::trace::{Broadcast, Demand, DynInst, IsaKind, TraceSink};
use mom_kernels::{build_kernel, BuiltKernel, KernelKind, KernelParams};
use mom_mem::cache::CacheStats;
use mom_mem::{MemModelKind, MemSystemStats};

use crate::cache::{engine_fingerprint, CacheMeta, CellCache, CellKey, CellRecord, SamplingKnobs};
use crate::json::Value;
use crate::spec::{BaselinePolicy, Cell, ExperimentKind, ExperimentSpec, GridSpec, Workload};
use crate::tables::{static_rows, StaticRows};

/// How a grid experiment executes its cells. Both modes run the grid as
/// fan-out groups; [`ExecMode::Sampled`] with a nonzero period trades
/// exactness for wall-clock: its cells are statistical estimates with
/// confidence intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// The exact engine (the default): one functional interpretation per
    /// fan-out group broadcast to all member simulators, groups distributed
    /// over the workers.
    ///
    /// The parallel work unit is the group, not the cell: a grid whose
    /// group count is below the worker count leaves workers idle (the full
    /// `sweep` is 4 groups), trading wall-clock parallelism for the
    /// amortized functional work.
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
    /// simulated in detail by the exact engine, making the results
    /// byte-identical to [`ExecMode::Fanout`] (the correctness gate of the
    /// sampling machinery). Otherwise `period` must be at least
    /// `warmup_insts + unit_insts` and `unit_insts` at least 1 — build the
    /// variant with [`ExecMode::sampled`] to have that checked.
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
    /// A validated [`ExecMode::Sampled`]: `unit_insts` must be at least 1,
    /// `warmup_insts + unit_insts` must fit in a `u64`, and a nonzero
    /// `period` must hold at least one `warmup + unit` window (`period == 0`
    /// is the rate-1 sentinel).
    ///
    /// # Errors
    ///
    /// Describes the first violated constraint.
    pub fn sampled(unit_insts: u64, warmup_insts: u64, period: u64) -> Result<ExecMode, String> {
        if unit_insts == 0 {
            return Err("sampled mode needs a measurement unit of at least 1 instruction".into());
        }
        let window = warmup_insts.checked_add(unit_insts).ok_or_else(|| {
            format!("sampling warmup {warmup_insts} + unit {unit_insts} overflows 64 bits")
        })?;
        if period != 0 && period < window {
            return Err(format!(
                "sampling period {period} is shorter than warmup {warmup_insts} + unit \
                 {unit_insts} (use period 0 to measure everything)"
            ));
        }
        Ok(ExecMode::Sampled { unit_insts, warmup_insts, period })
    }

    /// The `meta.mode` label of the JSON schema.
    pub fn label(self) -> &'static str {
        match self {
            ExecMode::Fanout => "fanout",
            ExecMode::Sampled { .. } => "sampled",
        }
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
    /// worker counts.
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
    /// How the grid executed (recorded in `meta` only).
    pub mode: ExecMode,
    /// Per-cell wall-clock simulation time in nanoseconds, parallel to the
    /// grid cells (empty for static experiments). Feeds the `insts_per_sec`
    /// throughput figures of the JSON `meta` section; like all wall-clock
    /// data it lives outside the deterministic results. Every member of a
    /// fan-out group carries the group's shared span.
    pub cell_wall_ns: Vec<u64>,
    /// Total wall-clock nanoseconds of the distinct simulation work units
    /// (the fan-out groups). Unlike summing `cell_wall_ns`, this never
    /// counts a shared group span more than once.
    pub sim_wall_ns: u64,
    /// Number of functional interpreter passes the run performed: one per
    /// fan-out group (per `(kernel, ISA)` for kernels, per *app* for
    /// applications — their scalar phases interpret once across all ISA
    /// lanes). Zero for static experiments.
    pub functional_passes: usize,
    /// Dynamic instructions the functional interpreter actually executed
    /// (each shared pass counted once). The cells' own `instructions` sum is
    /// what per-cell interpretation would have cost; the ratio of the two is
    /// the `meta.shared_passes.sharing_factor`.
    pub functional_instructions: u64,
    /// Scheduler spans: one per fan-out group simulated, with wall-clock
    /// extent and the worker that executed it. Feeds `meta.spans` and the
    /// Chrome trace export of `momlab run --trace-out`. Wall-clock data, so
    /// `meta`-only; empty for static experiments and fully cached grids.
    pub spans: Vec<SpanRec>,
    /// Machine-pool reuse accounting: machines reset-and-reused versus built
    /// fresh across all workers (`meta.pool`; wall-clock-free but scheduling
    /// dependent, so `meta`-only).
    pub pool: PoolStats,
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

/// One recorded scheduler span: a fan-out group's identity and its
/// wall-clock extent relative to the grid run's epoch. Every span is one
/// serial group pass (category `"serial"` in `meta.spans` and the trace
/// export).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// The group's label (workload plus its ISA lanes).
    pub name: String,
    /// Index of the worker thread that executed the item.
    pub tid: usize,
    /// Start offset from the grid run's epoch, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Instructions the functional interpreter executed inside this span.
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

/// Default worker count: the machine's available parallelism, capped at 8
/// (the grids are small; more threads only add scheduling noise) — unless
/// the `MOM_LAB_WORKERS` environment variable overrides the cap (see
/// [`crate::worker_override`]). Workers claim whole fan-out groups, so a
/// grid never keeps more workers busy than it has groups. The explicit
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

/// Run an experiment with an explicit worker count and [`ExecMode`].
pub fn run_with_mode(spec: &ExperimentSpec, workers: usize, mode: ExecMode) -> RunResult {
    run_with_mode_progress(spec, workers, mode, false)
}

/// Like [`run_with_mode`], optionally emitting live progress lines on stderr
/// — one per cell cache lookup (`momlab run` passes its non-quiet flag
/// here). Progress output never touches stdout or the results.
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
    /// A checkpoint file that cannot be read or restored, or that does not
    /// match the spec, cell or sampling parameters, is a stderr warning and
    /// its group starts over — never a resume into the wrong state.
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
/// or a nonzero `period` smaller than `warmup_insts + unit_insts`). A
/// checkpoint directory or file that cannot be written is a warning on
/// stderr: the run finishes, with nothing (or a stale file) to resume from.
/// A checkpoint file that cannot be resumed from (unreadable, truncated,
/// undecodable, written by a different run) is a warning too, and its
/// group starts from zero.
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
    /// The content address of one cell under this run's mode. Exact runs
    /// (including the sampled rate-1 sentinel) share one key per cell;
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
    errors: u64,
    cached: Vec<bool>,
}

/// Like [`run_with_options`], with an optional persistent content-addressed
/// cell result cache: hit cells skip interpretation and simulation entirely
/// and are rebuilt from their stored [`CellRecord`]s; miss cells simulate as
/// usual and fill the cache afterwards. The results document is byte-
/// identical either way (speed-ups are re-derived at assembly, so records
/// stay baseline-policy-agnostic), and `meta.cache` records the hit/miss/
/// fill accounting. A record that cannot be written is a stderr warning and
/// counts under `meta.cache.errors` instead of `fills` — the cache is only
/// an optimization, so a finished run is never thrown away over it. This is
/// the full-signature entry point `momlab run` uses.
///
/// # Panics
///
/// Panics for the same reasons as [`run_with_options`].
pub fn run_cached(
    spec: &ExperimentSpec,
    workers: usize,
    mode: ExecMode,
    progress: bool,
    checkpoints: Option<&CheckpointConfig>,
    cache: Option<&CellCache>,
) -> RunResult {
    if let ExecMode::Sampled { unit_insts, warmup_insts, period } = mode {
        if let Err(e) = ExecMode::sampled(unit_insts, warmup_insts, period) {
            panic!("{e}");
        }
    }
    let ckpt = match (mode, checkpoints) {
        (ExecMode::Sampled { unit_insts, warmup_insts, period }, Some(cfg)) if period > 0 => {
            // Checkpoints only make a later run cheaper: without a directory
            // this run still finishes, it just leaves nothing to resume from.
            match std::fs::create_dir_all(&cfg.dir) {
                Ok(()) => Some(CkptContext {
                    cfg: cfg.clone(),
                    spec_name: spec.name.clone(),
                    config_hash: spec.config_hash(),
                    unit: unit_insts,
                    warmup: warmup_insts,
                    period,
                }),
                Err(e) => {
                    eprintln!(
                        "warning: cannot create checkpoint directory {}: {e}; \
                         running without checkpoints",
                        cfg.dir.display()
                    );
                    None
                }
            }
        }
        _ => None,
    };
    let started = Instant::now();
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
    // The `meta.cache` section: grid accounting (zeros for a cached static
    // run — tables simulate nothing) plus the store-wide size after fills.
    let (cache_meta, cached_cells) = match (cache, outcome) {
        (Some(store), Some(outcome)) => (
            Some(CacheMeta {
                hits: outcome.hits,
                misses: outcome.misses,
                fills: outcome.fills,
                errors: outcome.errors,
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
        spans: timing.spans,
        pool: timing.pool,
        cache: cache_meta,
        cached_cells,
        data,
    }
}

/// Run one workload through the functional interpreter, streaming every
/// graduated instruction into `sink` (a `Broadcast` fan-out to a whole
/// machine group). Kernels are verified
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
/// interpretation broadcast to every member simulator — the work unit of
/// the exact engine. `lane_machines` is parallel to `group.lanes`; returns
/// the per-lane member results plus the number of instructions the
/// interpreter executed.
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
/// functional pass, one span and one shared wall-clock span per group —
/// lands in `timing`. The one scheduler of both the exact and the sampled
/// engine.
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
        let name = group_label(group);
        timing.spans.push(SpanRec { name, tid, start_ns, dur_ns: ns, insts: executed });
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

/// Lock a mutex, tolerating poisoning: a worker that panicked inside a
/// critical section already recorded its failure, so the failure slot is
/// still safe to use.
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
/// identity a resume validates against. On failure the temporary file is
/// removed and any earlier checkpoint at the final path is left as it was.
fn save_cell_checkpoint(ctx: &CkptContext, key: &str, ckpt: &Checkpoint) -> std::io::Result<()> {
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
    let written = std::fs::write(&tmp, e.into_bytes()).and_then(|()| std::fs::rename(&tmp, &path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
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

/// Load one cell's checkpoint if its file exists. A missing file is
/// `Ok(None)`: "start fresh" (for the cell's whole group). A file that
/// cannot be read or decoded, or that matches a different spec, cell or
/// sampling parameters, is an `Err` naming the path — resuming into the
/// wrong run would corrupt the results.
fn load_cell_checkpoint(ctx: &CkptContext, key: &str) -> Result<Option<Checkpoint>, String> {
    let path = ckpt_path(ctx, key);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(err) => return Err(format!("cannot read checkpoint {}: {err}", path.display())),
    };
    let (hash, file_key, unit, warmup, period, ckpt) = decode_lab_ckpt(&bytes).map_err(|e| {
        format!("checkpoint {} is not a valid checkpoint file ({e})", path.display())
    })?;
    if hash != ctx.config_hash
        || file_key != key
        || (unit, warmup, period) != (ctx.unit, ctx.warmup, ctx.period)
    {
        return Err(format!(
            "checkpoint {} does not match this run (spec configuration, cell or \
             sampling parameters changed)",
            path.display()
        ));
    }
    Ok(Some(ckpt))
}

/// Where a kernel group resumes: the shared cursor and tallies, plus every
/// member's probe and closed units.
struct Resumed {
    cursor: ExecCursor,
    probes: Vec<AttributionProbe>,
    units: Vec<Vec<UnitDelta>>,
    warmup_done: u64,
    executed: u64,
}

/// Restore a kernel group from its members' checkpoint files into `arch`
/// and `machines`. `Ok(None)` when a file is missing or the files disagree
/// on the instruction index: the group starts from zero. `Err` names a file
/// that cannot be read, decoded, matched to this run or restored; `arch` and
/// `machines` may then hold part of its state.
fn resume_kernel_group(
    ctx: &CkptContext,
    keys: &[String],
    arch: &mut Machine,
    machines: &mut [SimMachine],
) -> Result<Option<Resumed>, String> {
    let mut saved = Vec::new();
    for key in keys {
        match load_cell_checkpoint(ctx, key)? {
            Some(c) => saved.push(c),
            None => return Ok(None),
        }
    }
    if saved.iter().any(|c| c.inst_index != saved[0].inst_index) {
        return Ok(None);
    }
    let mut resumed = Resumed {
        cursor: ExecCursor::start(),
        probes: Vec::new(),
        units: Vec::new(),
        warmup_done: 0,
        executed: saved[0].inst_index,
    };
    for ((c, key), machine) in saved.iter().zip(keys).zip(machines) {
        let (cursor, probe, warmup_done, units) = restore_kernel_cell(c, arch, machine)
            .map_err(|e| format!("checkpoint {} failed to restore: {e}", ckpt_path(ctx, key).display()))?;
        resumed.cursor = cursor;
        resumed.warmup_done = warmup_done;
        resumed.probes.push(probe);
        resumed.units.push(units);
    }
    Ok(Some(resumed))
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
/// starts from zero. A file that is present but unusable (unreadable,
/// truncated, undecodable, from another run, or failing to restore) is a
/// stderr warning naming it, and the group starts from zero on freshly
/// built state. Returns the lane's member results plus the number of
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
        match resume_kernel_group(ctx, &keys, &mut arch, machines) {
            Ok(Some(resumed)) => {
                cursor = resumed.cursor;
                probes = resumed.probes.into_iter().map(Some).collect();
                units = resumed.units;
                warmup_done = resumed.warmup_done;
                executed = resumed.executed;
            }
            Ok(None) => {}
            Err(msg) => {
                eprintln!("warning: {msg}; the group starts over");
                // A failed restore may have written part of a file's state.
                arch = build_kernel(kernel, *isa, &params).machine;
                for machine in machines.iter_mut() {
                    *machine = SimMachine::new(machine.descriptor().clone());
                }
            }
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
                    // A failed write costs only resume progress: `--resume`
                    // restarts a group whose files are missing or disagree
                    // from zero.
                    if let Err(err) = save_cell_checkpoint(ctx, key, &c) {
                        eprintln!(
                            "warning: cannot write checkpoint {}: {err}",
                            ckpt_path(ctx, key).display()
                        );
                    }
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
/// copy of its lane's stream.
///
/// Every phase program runs through `stream_with_fuel`, which asks its sink
/// for a [`Demand`] between windows. A lane's `Broadcast` skips while all of
/// its members sit in the fast-forwarded tail of their periods, and a
/// shared scalar phase skips while every member of every lane does; the
/// skipped instructions execute on the functional handlers and are only
/// counted. A member's result therefore equals the one a fully detailed
/// drive would give: the instructions it skips are ones it would have
/// dropped. App groups do not checkpoint: the multi-phase app drivers have
/// no externally resumable cursor.
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
/// Application workloads run through this adapter because their
/// interpreters drive the sink callback-style and cannot be windowed
/// externally the way pre-decoded kernels can. The adapter windows them
/// from the inside instead: its [`TraceSink::demand`] answers from its
/// period position — `Detail` up to the end of the current window, `Skip`
/// over the rest of the period — so the producer fast-forwards the tail
/// and reports it through [`TraceSink::skip`], which only advances the
/// position. Instructions emitted in the tail anyway (a group-mate wanted
/// detail) are counted and dropped. Unlike the kernel path the stream is
/// never closed mid-run, so unit deltas are measured between lagging
/// snapshots (both ends lag by the in-flight ROB, so the window length is
/// preserved).
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
        let in_unit = !in_warmup && self.pos < self.window();
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
        if self.pos == self.window() {
            self.close_unit();
        }
        if self.pos == self.sp.period {
            self.pos = 0;
        }
    }

    /// Length of the detailed warm-up + measurement window at the head of
    /// every period.
    fn window(&self) -> u64 {
        self.sp.warmup + self.sp.unit
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

    fn demand(&self) -> Demand {
        if self.pos < self.window() {
            Demand::Detail(self.window() - self.pos)
        } else {
            Demand::Skip(self.sp.period - self.pos)
        }
    }

    /// Advance through the tail of the period without feeding the stream:
    /// exactly what `n` calls of `step` do there.
    fn skip(&mut self, n: u64) {
        debug_assert!(self.pos >= self.window() && self.pos + n <= self.sp.period);
        self.pos += n;
        self.executed += n;
        if self.pos == self.sp.period {
            self.pos = 0;
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

    // Each fan-out group is timed individually so the JSON `meta` section
    // can report simulator throughput (insts_per_sec): every member of a
    // group carries the group's shared span (see EXPERIMENTS.md).
    let counters = PoolCounters::default();
    let mut timing = GridTiming::default();
    let active_sims: Vec<CellSim> = if active.is_empty() {
        Vec::new()
    } else {
        // Sampling knobs for an estimated run; `None` runs the exact engine.
        // The rate-1 sentinel runs the exact engine too, so its byte-identity
        // with exact runs gates the sampling plumbing rather than a
        // reimplementation of the exact path.
        let sampling = match mode {
            ExecMode::Sampled { unit_insts, warmup_insts, period } if period > 0 => {
                Some(SamplingParams { unit: unit_insts, warmup: warmup_insts, period })
            }
            ExecMode::Fanout | ExecMode::Sampled { .. } => None,
        };
        let groups = fanout_groups(grid, &active);
        run_groups(grid, &active, &groups, workers, &counters, &mut timing, |group, machines| {
            match (sampling, group.workload) {
                (None, _) => run_fan_group_serial(grid, group, machines),
                // SMARTS-style sampling still interprets each group once;
                // every member alternates its own detailed windows with the
                // group's shared functional fast-forward.
                (Some(sp), Workload::Kernel(kernel)) => {
                    sample_kernel_group(kernel, grid, &active, group, machines, sp, ckpt)
                }
                (Some(sp), Workload::App(app)) => sample_app_group(app, grid, group, machines, sp),
            }
        })
    };
    timing.pool = counters.stats();

    // Fill stage: persist every freshly simulated cell, then account for the
    // run. Fills happen before assembly so a panic-free run always leaves
    // the cache consistent with the document it produced. A failed write
    // is a warning, never a lost run: the cell simply stays uncached.
    let (mut fills, mut errors) = (0u64, 0u64);
    if let Some(cc) = cache {
        for (&i, cs) in active_idx.iter().zip(&active_sims) {
            let record = CellRecord {
                sim: cs.sim,
                probe: cs.probe.clone(),
                mem: cs.mem,
                sampling: cs.sampling.clone(),
            };
            match cc.cache.store(&keys[i], &record) {
                Ok(()) => fills += 1,
                Err(e) => {
                    eprintln!("warning: cache fill failed for {}: {e}", keys[i].cell);
                    errors += 1;
                }
            }
        }
    }
    let outcome = cache.map(|_| GridCacheOutcome {
        hits: (cells.len() - active.len()) as u64,
        misses: active.len() as u64,
        fills,
        errors,
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
            ("mode", Value::Str(self.mode.label().into())),
            ("generated_by", Value::Str(format!("momlab {}", env!("CARGO_PKG_VERSION")))),
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
                ]),
            ),
        ];
        if let Some(cells) = self.cells() {
            // The functional-sharing accounting: how many interpreter passes
            // this run performed, how many instructions they executed, and
            // what per-cell interpretation would have cost instead. The
            // sharing factor is the instruction-weighted amortization of the
            // fan-out runner.
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
                    ("errors", Value::Int(cache.errors as i64)),
                    ("bytes", Value::Int(cache.bytes as i64)),
                    ("dir", Value::Str(cache.dir.clone())),
                ]),
            ));
        }
        if !self.spans.is_empty() {
            // Scheduler span trace: one entry per fan-out group,
            // chronological. Informational — never diffed.
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
        ("cat", Value::Str("serial".into())),
        ("tid", Value::Int(span.tid as i64)),
        ("start_ns", Value::Int(span.start_ns as i64)),
        ("dur_ns", Value::Int(span.dur_ns as i64)),
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
        assert!(meta.get("streamed").is_none() && meta.get("pipeline").is_none());
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
        let sampled = ExecMode::Sampled {
            unit_insts: DEFAULT_SAMPLE_UNIT,
            warmup_insts: DEFAULT_SAMPLE_WARMUP,
            period: DEFAULT_SAMPLE_PERIOD,
        };
        assert_eq!(sampled.label(), "sampled");
        assert!(sampled.is_estimated());
        assert!(!ExecMode::Fanout.is_estimated());
        // Rate 1 (period 0) is exact, not an estimate.
        assert!(!ExecMode::Sampled { unit_insts: 1, warmup_insts: 0, period: 0 }.is_estimated());
    }

    #[test]
    fn sampled_constructor_accepts_valid_knobs() {
        let defaults =
            ExecMode::sampled(DEFAULT_SAMPLE_UNIT, DEFAULT_SAMPLE_WARMUP, DEFAULT_SAMPLE_PERIOD);
        assert_eq!(
            defaults,
            Ok(ExecMode::Sampled {
                unit_insts: DEFAULT_SAMPLE_UNIT,
                warmup_insts: DEFAULT_SAMPLE_WARMUP,
                period: DEFAULT_SAMPLE_PERIOD,
            })
        );
        // A period holding exactly one window is the tightest valid one.
        assert!(ExecMode::sampled(50, 50, 100).is_ok());
    }

    #[test]
    fn sampled_constructor_rejects_a_zero_unit() {
        let err = ExecMode::sampled(0, 10, 100).expect_err("unit 0 measures nothing");
        assert!(err.contains("at least 1"), "{err}");
        // Even the rate-1 sentinel needs a unit.
        assert!(ExecMode::sampled(0, 0, 0).is_err());
    }

    #[test]
    fn sampled_constructor_rejects_an_overflowing_window() {
        // warmup + unit wraps to 0 in release builds; it must be an error,
        // not a window that fits every period.
        let err = ExecMode::sampled(1, u64::MAX, DEFAULT_SAMPLE_PERIOD)
            .expect_err("warmup + unit overflows");
        assert!(err.contains("overflows"), "{err}");
        assert!(ExecMode::sampled(u64::MAX, 1, 0).is_err());
    }

    #[test]
    fn sampled_constructor_rejects_a_period_shorter_than_its_window() {
        let err = ExecMode::sampled(50, 50, 99).expect_err("period below warmup + unit");
        assert!(err.contains("shorter than"), "{err}");
    }

    #[test]
    fn sampled_constructor_accepts_period_zero_as_rate_one() {
        let rate1 = ExecMode::sampled(DEFAULT_SAMPLE_UNIT, DEFAULT_SAMPLE_WARMUP, 0)
            .expect("period 0 is the rate-1 sentinel");
        assert!(!rate1.is_estimated());
    }

    #[test]
    #[should_panic(expected = "shorter than")]
    fn run_cached_rejects_invalid_sampling_knobs() {
        let spec = figure5_spec(&[KernelKind::Compensation], 1, 1, true);
        let invalid = ExecMode::Sampled { unit_insts: 1, warmup_insts: u64::MAX - 1, period: 10 };
        run_cached(&spec, 1, invalid, false, None, None);
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

    /// A sampling sink behind an adapter that keeps the default demand, so
    /// its producer emits every instruction and never fast-forwards.
    struct AlwaysDetailed<'m>(SampledSink<'m>);

    impl TraceSink for AlwaysDetailed<'_> {
        fn emit(&mut self, inst: DynInst) {
            self.0.emit(inst);
        }

        fn emit_ref(&mut self, inst: &DynInst) {
            self.0.emit_ref(inst);
        }

        fn emit_batch(&mut self, insts: &[DynInst]) {
            self.0.emit_batch(insts);
        }
    }

    #[test]
    fn app_groups_skipping_the_tails_equal_fully_detailed_drives() {
        let spec = ExperimentSpec::builtin("figure7", 1, true).unwrap();
        let ExperimentKind::Grid(grid) = &spec.kind else { panic!("figure7 is a grid") };
        let cells = grid.cells();
        let sp = SamplingParams { unit: 50, warmup: 50, period: 400 };
        let machines_for = |group: &FanGroup| -> Vec<Vec<SimMachine>> {
            group
                .lanes
                .iter()
                .map(|(_, members)| {
                    members.iter().map(|&ci| descriptor_for(grid, &cells, ci).build()).collect()
                })
                .collect()
        };
        let mut app_groups = 0;
        for group in fanout_groups(grid, &cells) {
            let Workload::App(app) = group.workload else { continue };
            app_groups += 1;
            let mut machines = machines_for(&group);
            let (skipping, interpreted) = sample_app_group(app, grid, &group, &mut machines, sp);

            let mut machines = machines_for(&group);
            let mut lanes: Vec<(IsaKind, Broadcast<AlwaysDetailed<'_>>)> = group
                .lanes
                .iter()
                .zip(machines.iter_mut())
                .map(|((isa, _), ms)| {
                    let sinks = ms.iter_mut().map(|m| AlwaysDetailed(SampledSink::new(m.sim_probed(), sp)));
                    (*isa, Broadcast::new(sinks.collect()))
                })
                .collect();
            let params = AppParams { seed: grid.seed, scale: grid.scale };
            let (_, detailed_interpreted) = stream_app_multi(app, &params, &mut lanes).unwrap();
            assert_eq!(interpreted, detailed_interpreted, "{app}: interpreted counts differ");
            let detailed: Vec<Vec<_>> = lanes
                .into_iter()
                .map(|(_, fan)| fan.into_inner().into_iter().map(|s| s.0.finish()).collect())
                .collect();
            let skipping: Vec<Vec<_>> = skipping
                .into_iter()
                .map(|lane| lane.into_iter().map(|c| (c.sim, c.probe, c.sampling.unwrap())).collect())
                .collect();
            assert!(skipping.iter().flatten().all(|(_, _, s)| s.units_measured > 1), "{app}: units");
            assert_eq!(skipping, detailed, "{app}: skipping changed a member's result");
        }
        assert!(app_groups > 0, "fast figure7 has application groups");
    }
}
