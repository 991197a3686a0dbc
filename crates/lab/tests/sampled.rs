//! The sampled execution mode's correctness contracts.
//!
//! * **Rate 1 is exact**: `ExecMode::Sampled` with `period == 0` runs the
//!   exact engine, so every cell of every built-in experiment equals an
//!   independent replay of its materialized trace (the oracle in
//!   `support/`). This is the gate that keeps the sampling machinery
//!   honest — any drift in the shared plumbing shows up as a field diff
//!   here.
//! * **Sampling is deterministic**: the periodic schedule depends only on
//!   instruction indices, never on worker count or timing, and each fan-out
//!   group's functional pass is shared exactly as in the fan-out mode.
//! * **Estimates are anchored**: committed-instruction counts stay exact
//!   (the functional interpreter executes the whole workload either way) and
//!   every cell carries a [`CellSampling`] section.
//! * **Group members stay isolated**: sampled cells share one functional
//!   pass per fan-out group, yet each cell's bytes do not depend on which
//!   other machines shared its group.
//! * **Checkpoints resume exactly**: a run that persists checkpoints and a
//!   run resumed from those files serialize byte-identically — also when
//!   one member of a group lost its file and the group starts over.
//! * **Checkpoint I/O failures keep the run**: a checkpoint directory or
//!   file that cannot be written is a warning, and the run's results equal
//!   those of a run without checkpoints. So is a checkpoint file that
//!   cannot be resumed from: its group starts over.
//! * **The committed sampled baselines reproduce**: `stress` and `figure7`
//!   at the CI knobs serialize to `baselines/sampled/` byte for byte.

mod support;

use mom_lab::runner::{
    run_with_mode, run_with_options, CheckpointConfig, ExecMode, DEFAULT_SAMPLE_UNIT,
    DEFAULT_SAMPLE_WARMUP,
};
use mom_lab::json::Value;
use mom_lab::spec::{ExperimentKind, ExperimentSpec};

/// A sampled mode whose period is small enough that scale-1 fast kernels
/// alternate between detailed and fast-forwarded execution several times.
const SMALL_SAMPLED: ExecMode =
    ExecMode::Sampled { unit_insts: 100, warmup_insts: 100, period: 500 };

/// The knobs `baselines/sampled/` was generated with (`--sample-unit 50
/// --sample-warmup 50 --sample-period 400`, fast mode).
const CI_SAMPLED: ExecMode = ExecMode::Sampled { unit_insts: 50, warmup_insts: 50, period: 400 };

#[test]
fn sampled_baselines_reproduce_byte_for_byte() {
    for name in ["stress", "figure7"] {
        let path = format!("{}/../../baselines/sampled/BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read_to_string(&path).expect("committed sampled baseline");
        let spec = ExperimentSpec::builtin(name, 1, true).expect("built-in spec");
        for workers in [1, 2] {
            let run = run_with_mode(&spec, workers, CI_SAMPLED).results_json().to_pretty();
            assert!(run == committed, "{name} at {workers} worker(s) differs from {path}");
        }
    }
}

#[test]
fn rate1_sampled_matches_the_trace_replay_oracle_for_every_builtin() {
    let rate1 = ExecMode::Sampled {
        unit_insts: DEFAULT_SAMPLE_UNIT,
        warmup_insts: DEFAULT_SAMPLE_WARMUP,
        period: 0,
    };
    assert!(!rate1.is_estimated());
    for name in mom_lab::BUILTIN_EXPERIMENTS {
        let spec = ExperimentSpec::builtin(name, 1, true).expect("built-in spec");
        let run = run_with_mode(&spec, 2, rate1);
        support::assert_matches_trace_replay(&run);
        let doc = run.results_json().to_pretty();
        assert!(!doc.contains("\"sampling\""), "{name}: rate 1 reports no estimates");
    }
}

#[test]
fn sampled_runs_are_deterministic_across_worker_counts() {
    for name in ["figure5", "figure7", "stress"] {
        let spec = ExperimentSpec::builtin(name, 1, true).expect("built-in spec");
        // Sampled runs share one functional pass per fan-out group, so they
        // report the fan-out mode's sharing factor (2.0 on stress).
        let fanout = run_with_mode(&spec, 1, ExecMode::Fanout).sharing_factor();
        let reference = run_with_mode(&spec, 1, SMALL_SAMPLED);
        assert_eq!(reference.sharing_factor(), fanout, "{name} sharing factor");
        let reference = reference.results_json().to_pretty();
        for workers in [2, 7] {
            let run = run_with_mode(&spec, workers, SMALL_SAMPLED);
            assert_eq!(run.sharing_factor(), fanout, "{name} sharing factor at {workers} workers");
            let run = run.results_json().to_pretty();
            assert_eq!(reference, run, "{name} differed at {workers} workers");
        }
    }
    let stress = ExperimentSpec::builtin("stress", 1, true).expect("built-in spec");
    assert_eq!(run_with_mode(&stress, 1, SMALL_SAMPLED).sharing_factor(), Some(2.0));
}

#[test]
fn sampled_estimates_stay_anchored_to_the_exact_run() {
    let spec = ExperimentSpec::builtin("figure5", 1, true).expect("built-in spec");
    let exact = run_with_mode(&spec, 2, ExecMode::Fanout);
    let sampled = run_with_mode(&spec, 2, SMALL_SAMPLED);
    let exact_cells = exact.cells().expect("grid");
    let sampled_cells = sampled.cells().expect("grid");
    assert_eq!(exact_cells.len(), sampled_cells.len());
    for (e, s) in exact_cells.iter().zip(sampled_cells) {
        assert_eq!((&e.workload, &e.config_label, e.way), (&s.workload, &s.config_label, s.way));
        // Committed work is exact by construction; only cycles are estimated.
        assert_eq!(e.instructions, s.instructions, "{} committed count drifted", e.workload);
        let sampling = s.sampling.as_ref().expect("sampled cells carry a sampling section");
        assert_eq!(sampling.total_insts, s.instructions);
        assert!(sampling.measured_insts <= sampling.total_insts);
        assert!(sampling.ipc_mean > 0.0 && sampling.ipc_mean.is_finite());
        assert!(sampling.ipc_ci95 >= 0.0);
        assert!(s.cycles > 0);
        // A loose accuracy envelope: with a 500-instruction period most of
        // the stream is detailed, so the estimate must land in the right
        // ballpark (the tight ≤2% bound is asserted on the committed BENCH
        // artifacts, not here, where units are deliberately tiny).
        let err = (s.ipc() - e.ipc()).abs() / e.ipc();
        assert!(err < 0.5, "{}: sampled IPC {} vs exact {}", e.workload, s.ipc(), e.ipc());
        // Exact cells never carry the section.
        assert!(e.sampling.is_none());
    }
    // The sampling section serializes.
    let doc = sampled.results_json().to_pretty();
    assert!(doc.contains("\"sampling\""), "results document lacks a sampling section");
    assert!(doc.contains("\"ipc_mean\""));
}

/// The cells of a results document with the given issue width, each
/// serialized without its `speedup` (a baseline-relative figure, so it
/// depends on which other cells the grid holds).
fn cells_at_width(doc: &Value, way: i64) -> Vec<String> {
    doc.get("cells")
        .and_then(Value::as_array)
        .expect("grid cells")
        .iter()
        .filter(|c| c.get("way").and_then(Value::as_i64) == Some(way))
        .map(|c| match c {
            Value::Object(members) => Value::Object(
                members.iter().filter(|(k, _)| k != "speedup").cloned().collect(),
            )
            .to_pretty(),
            other => panic!("cell is not an object: {other:?}"),
        })
        .collect()
}

#[test]
fn sampled_group_members_do_not_depend_on_their_group_mates() {
    let wide = ExperimentSpec::builtin("figure5", 1, true).expect("built-in spec");
    let mut narrow = wide.clone();
    let ExperimentKind::Grid(grid) = &mut narrow.kind else { panic!("figure5 is a grid") };
    grid.widths = vec![4];
    let wide_run = run_with_mode(&wide, 1, SMALL_SAMPLED);
    let narrow_run = run_with_mode(&narrow, 1, SMALL_SAMPLED);
    // The four-width grid shares each (kernel, ISA) pass among four
    // machines; the one-width grid gives every 4-way cell a pass of its own.
    assert!((wide_run.sharing_factor().expect("grid") - 4.0).abs() < 1e-9);
    assert!((narrow_run.sharing_factor().expect("grid") - 1.0).abs() < 1e-9);
    let narrow_cells = cells_at_width(&narrow_run.results_json(), 4);
    assert!(!narrow_cells.is_empty());
    assert_eq!(cells_at_width(&wide_run.results_json(), 4), narrow_cells);
    let sampling = |doc: &Value| -> Vec<String> {
        let cells = doc.get("sampling").and_then(|s| s.get("cells")).and_then(Value::as_array);
        cells
            .expect("sampling cells")
            .iter()
            .filter(|c| c.get("way").and_then(Value::as_i64) == Some(4))
            .map(Value::to_pretty)
            .collect()
    };
    assert_eq!(sampling(&wide_run.results_json()), sampling(&narrow_run.results_json()));
}

#[test]
fn checkpointed_and_resumed_runs_are_byte_identical() {
    let spec = ExperimentSpec::builtin("figure5", 1, true).expect("built-in spec");
    let dir = std::env::temp_dir().join(format!("momlab-sampled-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Plain sampled run: the reference bytes.
    let reference = run_with_mode(&spec, 2, SMALL_SAMPLED).results_json().to_pretty();

    // Same run while persisting checkpoints: identical results, files exist.
    let cfg = CheckpointConfig { dir: dir.clone(), resume: false };
    let saved = run_with_options(&spec, 2, SMALL_SAMPLED, false, Some(&cfg));
    assert_eq!(reference, saved.results_json().to_pretty(), "checkpointing changed the results");
    let ckpts: Vec<_> = std::fs::read_dir(&dir)
        .expect("checkpoint dir exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    assert!(!ckpts.is_empty(), "no checkpoint files were written to {}", dir.display());

    // Resuming from the persisted (final) checkpoints replays only the tail
    // of each cell and must reproduce the uninterrupted bytes exactly.
    let cfg = CheckpointConfig { dir: dir.clone(), resume: true };
    let resumed = run_with_options(&spec, 2, SMALL_SAMPLED, false, Some(&cfg));
    assert_eq!(reference, resumed.results_json().to_pretty(), "resumed run diverged");

    // A group whose checkpoint set is incomplete (one member's file lost)
    // cannot resume as a group: it starts over from zero, rewrites every
    // member's file, and still reproduces the uninterrupted bytes.
    let lost = &ckpts[0];
    std::fs::remove_file(lost).expect("delete one member's checkpoint");
    let partial = run_with_options(&spec, 2, SMALL_SAMPLED, false, Some(&cfg));
    assert_eq!(reference, partial.results_json().to_pretty(), "partial-set resume diverged");
    assert!(lost.exists(), "the restarted group rewrote {}", lost.display());

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn unwritable_checkpoints_warn_and_keep_the_run() {
    let spec = ExperimentSpec::builtin("figure5", 1, true).expect("built-in spec");
    let base = std::env::temp_dir().join(format!("momlab-ckpt-fail-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("create test dir");
    let reference = run_with_mode(&spec, 2, SMALL_SAMPLED).results_json().to_pretty();

    // Learn every checkpoint file name from a healthy checkpointed run.
    let healthy = base.join("healthy");
    let cfg = CheckpointConfig { dir: healthy.clone(), resume: false };
    run_with_options(&spec, 2, SMALL_SAMPLED, false, Some(&cfg));
    let names: Vec<_> = std::fs::read_dir(&healthy)
        .expect("checkpoint dir exists")
        .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
        .filter(|n| n.ends_with(".ckpt"))
        .collect();
    assert!(!names.is_empty(), "no checkpoint files were written to {}", healthy.display());

    // A directory squatting on every `<spec>__<key>.ckpt.tmp` makes every
    // checkpoint write fail.
    let blocked = base.join("blocked");
    for name in &names {
        std::fs::create_dir_all(blocked.join(format!("{name}.tmp"))).expect("plant directory");
    }
    let cfg = CheckpointConfig { dir: blocked.clone(), resume: false };
    let run = run_with_options(&spec, 2, SMALL_SAMPLED, false, Some(&cfg));
    assert_eq!(reference, run.results_json().to_pretty(), "a failed checkpoint write changed the results");
    for name in &names {
        assert!(!blocked.join(name).exists(), "{name} was written through a blocked temporary file");
    }

    // A checkpoint directory that cannot be created: the run goes on
    // without checkpoints.
    let not_a_dir = base.join("file");
    std::fs::write(&not_a_dir, b"not a directory").expect("write file");
    let cfg = CheckpointConfig { dir: not_a_dir.join("ckpt"), resume: true };
    let run = run_with_options(&spec, 2, SMALL_SAMPLED, false, Some(&cfg));
    assert_eq!(reference, run.results_json().to_pretty(), "an uncreatable checkpoint dir changed the results");

    std::fs::remove_dir_all(&base).expect("cleanup");
}

#[test]
fn bad_checkpoints_under_resume_restart_their_group() {
    let spec = ExperimentSpec::builtin("figure5", 1, true).expect("built-in spec");
    let dir = std::env::temp_dir().join(format!("momlab-bad-ckpt-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let reference = run_with_mode(&spec, 2, SMALL_SAMPLED).results_json().to_pretty();
    let cfg = CheckpointConfig { dir: dir.clone(), resume: false };
    run_with_options(&spec, 2, SMALL_SAMPLED, false, Some(&cfg));
    let mut ckpts: Vec<_> = std::fs::read_dir(&dir)
        .expect("checkpoint dir exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    ckpts.sort();
    assert!(ckpts.len() >= 2, "figure5 writes a checkpoint per cell");
    let (truncated, garbage) = (&ckpts[0], &ckpts[1]);
    let intact = std::fs::read(truncated).expect("read checkpoint");

    let cfg = CheckpointConfig { dir: dir.clone(), resume: true };
    for cut in [0, intact.len() / 2, intact.len() - 1] {
        // The restarted groups rewrite their files, so corrupt them afresh.
        std::fs::write(truncated, &intact[..cut]).expect("truncate checkpoint");
        std::fs::write(garbage, b"MOMCKPT\0 but not really a checkpoint").expect("write garbage");
        let resumed = run_with_options(&spec, 2, SMALL_SAMPLED, false, Some(&cfg));
        assert_eq!(reference, resumed.results_json().to_pretty(), "resume over a file cut at {cut} diverged");
        assert_eq!(std::fs::read(truncated).expect("rewritten"), intact, "the group rewrote its file");
    }

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
