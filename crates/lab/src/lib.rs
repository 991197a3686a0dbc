//! # mom-lab — the parallel experiment-orchestration engine
//!
//! The paper's evaluation is a grid of (workload x ISA x issue-width x
//! memory-model) simulations. This crate turns that grid into data:
//!
//! * [`spec`] — declarative [`ExperimentSpec`]s describing a simulation grid;
//!   every table and figure of the paper is a named built-in spec
//!   ([`ExperimentSpec::builtin`]);
//! * [`runner`] — a multi-threaded runner (scoped threads, work-stealing
//!   cursor) with a determinism guarantee: parallel and serial runs produce
//!   bit-identical results;
//! * [`json`] — a dependency-free JSON writer/parser behind the
//!   `BENCH_<experiment>.json` result files;
//! * [`report`] — text renderers reproducing the legacy `mom-bench` binary
//!   output byte-for-byte from the structured results;
//! * [`tables`] — the config-derived static experiments (Tables 1-3, opcode
//!   inventories);
//! * [`baseline`] — regression diffing of result files;
//! * [`trace`] — Chrome trace-event export of the runner's scheduler spans
//!   (`momlab run --trace-out <file>`).
//!
//! The `momlab` binary is the CLI: `momlab list`, `momlab run figure5 --json
//! out.json`, `momlab run --all`, `momlab diff new.json --baseline old.json`.
//! See `EXPERIMENTS.md` at the repository root for the JSON schema.
//!
//! ```
//! use mom_lab::spec::ExperimentSpec;
//! use mom_lab::{report, runner};
//!
//! // Run a reduced Figure 5 on 4 workers; serial would give identical bytes.
//! let spec = ExperimentSpec::builtin("figure5", 1, true).expect("built-in name");
//! let result = runner::run_with(&spec, 4);
//! assert_eq!(result.results_json(), runner::run_with(&spec, 1).results_json());
//! assert!(report::render(&result).starts_with("Figure 5"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baseline;
pub mod cache;
pub mod json;
pub mod report;
pub mod runner;
pub mod spec;
pub mod tables;
pub mod trace;

pub use cache::{engine_fingerprint, CacheMeta, CellCache, CellKey, CellRecord, SamplingKnobs};
pub use runner::{
    run, run_cached, run_with, run_with_mode, run_with_mode_progress,
    run_with_options, CellResult, CellSampling, CheckpointConfig, ExecMode, PoolStats, RunResult,
    SpanRec, DEFAULT_SAMPLE_PERIOD, DEFAULT_SAMPLE_UNIT, DEFAULT_SAMPLE_WARMUP,
};
pub use spec::{ExperimentSpec, GridSpec, SweepDims, Workload, BUILTIN_EXPERIMENTS};

use std::path::PathBuf;
use std::sync::OnceLock;

/// Whether the `MOM_BENCH_FAST` environment variable requests reduced runs.
///
/// In fast mode the experiments evaluate a two-element subset of the
/// kernels/applications so smoke tests and CI can exercise every experiment
/// in seconds instead of minutes. Any non-empty value other than `0` enables
/// it. The lookup is cached in a [`OnceLock`] — the environment is read at
/// most once per process, and every caller (the `momlab` CLI, the legacy
/// `mom-bench` binaries and the Criterion benches) sees the same answer.
pub fn fast_mode() -> bool {
    static FAST: OnceLock<bool> = OnceLock::new();
    *FAST.get_or_init(|| {
        std::env::var("MOM_BENCH_FAST").map(|v| !v.is_empty() && v != "0").unwrap_or(false)
    })
}

/// Header suffix marking reduced runs (the [`fast_mode`] flavour of
/// [`report::fast_marker`]).
pub fn fast_mode_marker() -> &'static str {
    report::fast_marker(fast_mode())
}

/// Worker-count override from the `MOM_LAB_WORKERS` environment variable.
///
/// [`runner::default_workers`] caps at 8 threads; a bigger host can lift the
/// cap here (a grid never uses more workers than it has fan-out groups).
/// A non-empty value other than `0` that parses as a positive integer
/// overrides the default; empty, `0` or unparsable values mean "no override"
/// — the same disable semantics as `MOM_BENCH_FAST`.
/// Cached in a [`OnceLock`] like [`fast_mode`]. The explicit `--workers`
/// CLI flag still wins over this variable.
pub fn worker_override() -> Option<usize> {
    static WORKERS: OnceLock<Option<usize>> = OnceLock::new();
    *WORKERS.get_or_init(|| env_positive_usize("MOM_LAB_WORKERS"))
}

/// The persistent cell-cache directory requested via `MOM_LAB_CACHE`.
///
/// `momlab run` enables the content-addressed result cache
/// ([`cache::CellCache`]) when this variable names a directory — the same
/// effect as `--cache-dir DIR`, which still wins when both are given;
/// `--no-cache` disables both. An empty value means "no cache". Cached in a
/// [`OnceLock`] like [`fast_mode`].
pub fn cache_env_dir() -> Option<PathBuf> {
    static DIR: OnceLock<Option<PathBuf>> = OnceLock::new();
    DIR.get_or_init(|| {
        std::env::var_os("MOM_LAB_CACHE").filter(|v| !v.is_empty()).map(PathBuf::from)
    })
    .clone()
}

/// Parse an environment variable as a positive integer, treating empty, `0`
/// and unparsable values as unset.
fn env_positive_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.parse::<usize>().ok()).filter(|&n| n > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_mode_is_cached_and_consistent() {
        // Whatever the environment says, repeated calls agree (the OnceLock
        // pins the first answer) and the marker matches the flag.
        let first = fast_mode();
        for _ in 0..3 {
            assert_eq!(fast_mode(), first);
        }
        assert_eq!(fast_mode_marker().is_empty(), !first);
    }

    #[test]
    fn env_override_parser_treats_empty_zero_and_garbage_as_unset() {
        // Distinct variable names so the OnceLock-cached accessors above are
        // unaffected; this tests the shared parser the accessors use.
        for (name, value, expect) in [
            ("MOM_LAB_TEST_EMPTY", "", None),
            ("MOM_LAB_TEST_ZERO", "0", None),
            ("MOM_LAB_TEST_GARBAGE", "lots", None),
            ("MOM_LAB_TEST_NEG", "-3", None),
            ("MOM_LAB_TEST_OK", "12", Some(12)),
        ] {
            std::env::set_var(name, value);
            assert_eq!(env_positive_usize(name), expect, "{name}={value:?}");
        }
        assert_eq!(env_positive_usize("MOM_LAB_TEST_UNSET_NEVER"), None);
    }
}
