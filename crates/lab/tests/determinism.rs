//! The runner's determinism guarantee: for any spec, a parallel run and a
//! serial run produce **byte-identical** results documents. Wall-clock and
//! worker count live only in the `meta` section, which is excluded from
//! `results_json` by construction.

mod support;

use mom_lab::json::Value;
use mom_lab::runner::run_with;
use mom_lab::spec::ExperimentSpec;

/// A representative grid spec (the reduced Figure 5: 2 kernels x 4 ISAs x
/// 4 widths = 32 simulations) run serially and with 4 workers must serialize
/// to the same bytes.
#[test]
fn figure5_parallel_and_serial_runs_are_byte_identical() {
    let spec = ExperimentSpec::builtin("figure5", 1, true).expect("built-in spec");
    let serial = run_with(&spec, 1);
    let parallel = run_with(&spec, 4);
    assert_eq!(serial.workers, 1);
    assert_eq!(parallel.workers, 4);

    let serial_bytes = serial.results_json().to_pretty();
    let parallel_bytes = parallel.results_json().to_pretty();
    assert_eq!(serial_bytes, parallel_bytes, "worker count leaked into the results");

    // The structured cells agree too (not just their serialization).
    assert_eq!(serial.cells().unwrap(), parallel.cells().unwrap());
}

/// The guarantee holds across every built-in experiment, including the
/// paired-config latency study and the application-level Figure 7, and for an
/// oversubscribed worker count (more threads than cells of some stages).
#[test]
fn every_builtin_experiment_is_deterministic_across_worker_counts() {
    for name in mom_lab::BUILTIN_EXPERIMENTS {
        let spec = ExperimentSpec::builtin(name, 1, true).expect("built-in spec");
        let reference = run_with(&spec, 1).results_json().to_pretty();
        for workers in [2, 7] {
            let run = run_with(&spec, workers).results_json().to_pretty();
            assert_eq!(reference, run, "{name} differed at {workers} workers");
        }
    }
}

/// The engine is not only deterministic but *right*: at 1, 2 and 7 workers
/// every cell of every built-in experiment equals an independent replay of
/// its materialized trace (the oracle in `support/`). Also pins the
/// sharing accounting: one functional pass per fan-out group, never more
/// than one per cell.
#[test]
fn every_builtin_matches_the_trace_replay_oracle_at_every_worker_count() {
    use mom_lab::runner::ExecMode;
    for name in mom_lab::BUILTIN_EXPERIMENTS {
        let spec = ExperimentSpec::builtin(name, 1, true).expect("built-in spec");
        for workers in [1, 2, 7] {
            let run = run_with(&spec, workers);
            assert_eq!(run.mode, ExecMode::Fanout);
            support::assert_matches_trace_replay(&run);
            if let Some(cells) = run.cells() {
                assert!(run.functional_passes <= cells.len(), "{name}: more passes than cells");
                assert_eq!(run.spans.len(), run.functional_passes, "{name}: one span per group");
            }
        }
    }
}

/// The full document (with `meta`) differs from the results document only by
/// the `meta` member, and both reparse.
#[test]
fn meta_is_the_only_nondeterministic_section() {
    let spec = ExperimentSpec::builtin("latency_tolerance", 1, true).expect("built-in spec");
    let result = run_with(&spec, 3);
    let results = result.results_json();
    let document = Value::parse(&result.document_json().to_pretty()).expect("document parses");
    let Value::Object(mut members) = document else { panic!("document is an object") };
    let meta_pos = members.iter().position(|(k, _)| k == "meta").expect("meta present");
    let (_, meta) = members.remove(meta_pos);
    assert_eq!(meta.get("workers").and_then(Value::as_i64), Some(3));
    assert!(meta.get("wall_ms").and_then(Value::as_i64).is_some());
    assert_eq!(Value::Object(members), Value::parse(&results.to_pretty()).unwrap());
}
