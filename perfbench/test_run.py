"""Tests of the benchmark's own logic: metric names, the tolerance-0 result
check, the accuracy and scheduler arithmetic, and the failure exits.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

None of them builds or runs `momlab`.
"""

import copy
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = run.ROOT / "BENCHMARK.json"


def parse(value) -> run.Obj:
    """Round-trip through JSON so every object becomes a `run.Obj`."""
    return json.loads(json.dumps(value), object_pairs_hook=run.Obj)


def set_member(obj: run.Obj, key: str, value):
    obj[key] = value
    obj.pairs[:] = [(k, value if k == key else v) for k, v in obj.pairs]


def grid_doc(cells, sampling=None):
    doc = {"schema": 1, "experiment": "figure7", "config_hash": "fnv1a:0", "scale": 1,
           "seed": 42, "cells": cells}
    if sampling is not None:
        doc["sampling"] = {"unit_insts": 1000, "warmup_insts": 2000, "period": 100000,
                           "cells": sampling}
    doc["meta"] = {"wall_ms": 7}
    return parse(doc)


def cell(workload, insts, cycles, config="mom", way=4):
    return {"workload": workload, "workload_kind": "app", "config": config, "isa": "mom",
            "way": way, "cycles": cycles, "instructions": insts}


class MetricNames(unittest.TestCase):
    def test_every_metric_name_uses_only_allowed_characters(self):
        names = [n for n, _ in run.END_TO_END + run.PER_LAYER]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "metric names are unique")
        for _, unit in run.END_TO_END + run.PER_LAYER:
            self.assertRegex(unit, UNIT)

    def test_benchmark_json_lists_what_run_py_reports(self):
        spec = json.loads(BENCHMARK.read_text())
        self.assertEqual(
            set(spec),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        # `paper-grid` and `warm-rerun` run by hand only (README.md, "Workloads").
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         [w for w in run.WORKLOADS if w not in ("paper-grid", "warm-rerun")])
        for w in spec["workloads"]:
            self.assertEqual(w["why"], run.WORKLOADS[w["name"]].why)
            self.assertLessEqual(len(w["why"]), 200)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.PER_LAYER)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class ResultCheck(unittest.TestCase):
    def test_committed_document_matches_itself(self):
        doc = run.Ref.read(run.ROOT / "BENCH_figure5.json").doc
        self.assertEqual(run.compare_document(doc, doc), (128, 0))

    def test_tampered_reference_cell_is_counted(self):
        doc = run.Ref.read(run.ROOT / "BENCH_figure5.json").doc
        ref = copy.deepcopy(doc)
        target = ref["cells"][17]
        set_member(target, "cycles", target["cycles"] + 1)
        attempted, failed = run.compare_document(doc, ref)
        self.assertEqual((attempted, failed), (128, 1))
        self.assertGreater(failed / attempted, 0)

    def test_equal_results_text_ignores_meta(self):
        text = (run.ROOT / "BENCH_stress_sampled.json").read_text()
        ref = run.Ref.read(run.ROOT / "BENCH_stress_sampled.json")
        self.assertIn('"sampling"', ref.text)
        self.assertNotIn('"meta"', ref.text)
        rewritten = text.replace('"wall_ms": ', '"wall_ms": 1', 1)
        self.assertNotEqual(rewritten, text)
        self.assertEqual(run.results_text(rewritten), ref.text)

    def test_duplicate_keys_are_all_compared(self):
        # Cells carry `mem` twice (model label, then statistics); a change
        # to the first one must not hide behind the second.
        text = '{"experiment": "x", "cells": [{"workload": "a", "config": "c", "way": 1, ' \
               '"mem": "%s", "mem": {"requests": 3}}]}'
        doc = json.loads(text % "conventional", object_pairs_hook=run.Obj)
        ref = json.loads(text % "vector-cache", object_pairs_hook=run.Obj)
        self.assertEqual(run.compare_document(doc, ref), (1, 1))

    def test_missing_and_header_changes_fail_cells(self):
        ref = grid_doc([cell("a", 10, 10), cell("b", 10, 10)])
        self.assertEqual(run.compare_document(grid_doc([cell("a", 10, 10)]), ref), (2, 1))
        other_seed = grid_doc([cell("a", 10, 10), cell("b", 10, 10)])
        set_member(other_seed, "seed", 7)
        self.assertEqual(run.compare_document(other_seed, ref), (2, 2))

    def test_a_mismatch_gives_a_failing_exit(self):
        out = io.StringIO()
        with redirect_stdout(out):
            code = run.finish({"wall_s": 1.5}, [("wall_s", "s")], attempted=128, failed=1)
        self.assertNotEqual(code, 0)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(
            result,
            {"correct": False, "attempted": 128, "failed": 1,
             "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}},
        )
        with redirect_stdout(io.StringIO()):
            self.assertEqual(run.finish({"wall_s": 1.5}, [("wall_s", "s")], 128, 0), 0)


class Accuracy(unittest.TestCase):
    def test_accuracy_math_is_pinned(self):
        exact = grid_doc([cell("a", 1000, 1000), cell("b", 2000, 1000), cell("c", 1000, 500)])
        sampled = grid_doc(
            # Estimated IPCs 1.25, 2.0 and 1.6 against exact 1.0, 2.0 and 2.0.
            [cell("a", 1000, 800), cell("b", 2000, 1000), cell("c", 1000, 625)],
            sampling=[
                dict(cell("a", 0, 0), ipc_mean=1.25, ipc_ci95=0.3, measured_insts=100,
                     warmup_insts=200, total_insts=1000),
                dict(cell("b", 0, 0), ipc_mean=2.0, ipc_ci95=0.0, measured_insts=100,
                     warmup_insts=200, total_insts=2000),
                dict(cell("c", 0, 0), ipc_mean=1.6, ipc_ci95=0.1, measured_insts=100,
                     warmup_insts=200, total_insts=1000),
            ],
        )
        got = run.accuracy([sampled], {"figure7": exact})
        self.assertAlmostEqual(got["ipc_err_max_pct"], 25.0)
        self.assertAlmostEqual(got["ipc_err_median_pct"], 20.0)
        self.assertAlmostEqual(got["ci95_coverage"], 2 / 3)
        self.assertAlmostEqual(run.detailed_share([sampled]), 900 / 4000)

    def test_exact_cells_have_no_error_and_full_coverage(self):
        exact = grid_doc([cell("a", 1000, 1000), cell("b", 2000, 1000)])
        got = run.accuracy([exact], {"figure7": exact})
        self.assertEqual(got, {"ipc_err_max_pct": 0.0, "ipc_err_median_pct": 0.0,
                               "ci95_coverage": 1.0})
        self.assertEqual(run.detailed_share([exact]), 1.0)


class EndToEnd(unittest.TestCase):
    def test_times_are_the_fastest_iteration_scaled_to_the_reference_host(self):
        # Two commands per iteration; each command's fastest time counts,
        # whichever iteration it came from: 0.4 + 0.6 s wall, 0.35 + 0.55 s CPU.
        its = [
            run.Iteration(walls=w, cpus=c, rss_kb=rss * 1024, insts=3_000_000, attempted=1,
                          failed=0, docs=[], trace=None)
            for w, c, rss in [([0.5, 1.5], [0.45, 1.4], 10), ([0.4, 0.8], [0.35, 0.7], 12),
                              ([0.9, 0.6], [0.8, 0.55], 11)]
        ]
        # The fastest calibration took twice the reference time: the host ran
        # at half the reference speed, so every time halves.
        ref = run.REFERENCE_CALIBRATION_S
        scale = run.host_scale([4 * ref, 2 * ref, 3 * ref])
        self.assertAlmostEqual(scale, 0.5)
        got = run.end_to_end(0.8, its, scale)
        self.assertAlmostEqual(got["setup_s"], 0.4)
        self.assertAlmostEqual(got["wall_s"], 0.5)
        self.assertAlmostEqual(got["cpu_s"], 0.45)
        self.assertAlmostEqual(got["minst_per_s"], 6.0)
        self.assertAlmostEqual(got["peak_rss_mb"], 11.0)


class Scheduler(unittest.TestCase):
    def test_spans_give_busy_wait_and_group_times(self):
        trace = {"traceEvents": [
            {"ph": "M", "pid": 1, "name": "process_name"},
            {"ph": "X", "pid": 1, "tid": 0, "cat": "produce", "ts": 0.0, "dur": 1000.0,
             "args": {"wait_us": 0.0}},
            {"ph": "X", "pid": 1, "tid": 1, "cat": "consume", "ts": 0.0, "dur": 1000.0,
             "args": {"wait_us": 400.0}},
            {"ph": "X", "pid": 1, "tid": 0, "cat": "serial", "ts": 1000.0, "dur": 3000.0,
             "args": {"wait_us": 0.0}},
        ]}
        got = run.sched_metrics(trace, workers=2)
        # 4000 us extent x 2 workers; 4600 us busy, 400 us waiting.
        self.assertAlmostEqual(got["lab.sched_busy_share"], 4600 / 8000)
        self.assertAlmostEqual(got["lab.sched_wait_share"], 400 / 8000)
        self.assertEqual((got["lab.group_ms_p50"], got["lab.group_ms_p90"]), (1.0, 3.0))

    def test_a_run_without_spans_reports_zeros(self):
        got = run.sched_metrics({"traceEvents": []}, workers=2)
        self.assertEqual(set(got.values()), {0.0})

    def test_percentile_is_nearest_rank(self):
        values = [float(v) for v in range(1, 11)]
        self.assertEqual(run.percentile(values, 50), 5.0)
        self.assertEqual(run.percentile(values, 90), 9.0)
        self.assertEqual(run.percentile([4.0], 90), 4.0)


class Exits(unittest.TestCase):
    def test_without_the_repository_it_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(run.ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            shutil.copy(BENCHMARK, tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "paper-grid", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
