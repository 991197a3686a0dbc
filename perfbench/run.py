#!/usr/bin/env python3
"""The repository benchmark: time the `momlab` CLI on one workload and check
every result it writes.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout of the repository; it builds `momlab`
(and, for the traced run, the per-layer driver in `perfbench/layers`) from
source into `$CARGO_TARGET_DIR` (default `.bench_build`). Load is closed-loop:
one `momlab` invocation at a time, from this one process, with one worker.

`--trace 0` prints every end-to-end metric; `--trace 1` prints every per-layer
metric. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `attempted` counts result
cells checked against their reference and `failed` the cells that failed or
differed from it at tolerance 0, so `failed / attempted` is the cell error
rate. The exit code is 0 only when every cell matched.

See `perfbench/README.md` for the workloads, the metrics and the mapping from
each per-layer metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The seed of the committed root `BENCH_*.json` documents.
COMMITTED_SEED = 42

# Set-up repetitions per run; `setup_s` reports their median.
SETUP_REPS = 9

# Timed iterations per run at least, whatever `--seconds` allows.
MIN_ITERATIONS = 3

# Time metrics are scaled to a host on which the `perfbench-spawn
# --calibrate` loop takes this long at its fastest (about its fastest time on
# the 2-vCPU Xeon VM the bounds were set on).
REFERENCE_CALIBRATION_S = 0.06

# A timed iteration is followed by a calibration once at least this long has
# passed since the last one, so that the loop does not crowd out iterations
# much shorter than it.
CALIBRATE_EVERY_S = 0.5

ALL_EXPERIMENTS = [
    "table1",
    "table2",
    "table3",
    "isa_inventory",
    "figure5",
    "latency_tolerance",
    "figure7",
    "stress",
    "sweep",
]

ISAS = ["alpha", "mmx", "mdmx", "mom"]
MEM_MODELS = ["conventional", "multi-address", "vector-cache", "collapsing-buffer"]
LAYERS = ["mom-kernels", "mom-apps", "mom-core", "mom-isa", "mom-cpu", "mom-mem", "mom-lab"]

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("minst_per_s", "Minst/s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = (
    [
        ("kernels.build_us_per_cell", "us/cell"),
        ("apps.build_us_per_cell", "us/cell"),
        ("apps.stream_us_per_cell", "us/cell"),
        ("core.decode_ns_per_static_inst", "ns/inst"),
    ]
    + [(f"core.stream_ns_per_inst.{isa}", "ns/inst") for isa in ISAS]
    + [(f"core.fast_forward_ns_per_inst.{isa}", "ns/inst") for isa in ISAS]
    + [
        ("core.allocs_per_kinst", "count/kinst"),
        ("core.alloc_bytes_per_kinst", "B/kinst"),
        ("isa.broadcast_ns_per_member_inst", "ns/inst"),
        ("isa.materialize_ns_per_inst", "ns/inst"),
        ("isa.trace_bytes_per_inst", "B/inst"),
        ("isa.materialize_allocs_per_kinst", "count/kinst"),
        ("isa.materialize_alloc_bytes_per_kinst", "B/kinst"),
        ("isa.codec_ns_per_byte", "ns/B"),
    ]
    + [(f"cpu.feed_ns_per_inst.{isa}", "ns/inst") for isa in ISAS]
    + [(f"cpu.feed_probed_ns_per_inst.{isa}", "ns/inst") for isa in ISAS]
    + [
        ("cpu.probe_overhead_pct", "%"),
        ("cpu.feed_allocs_per_kinst", "count/kinst"),
        ("cpu.feed_alloc_bytes_per_kinst", "B/kinst"),
    ]
    + [(f"mem.access_ns.{m}", "ns/call") for m in MEM_MODELS]
    + [(f"mem.l1_hit_ratio.{m}", "ratio") for m in MEM_MODELS]
    + [(f"mem.l2_hit_ratio.{m}", "ratio") for m in MEM_MODELS]
    + [(f"mem.rejected_access_ratio.{m}", "ratio") for m in MEM_MODELS]
    + [
        ("lab.sched_busy_share", "ratio"),
        ("lab.sched_wait_share", "ratio"),
        ("lab.group_ms_p50", "ms"),
        ("lab.group_ms_p90", "ms"),
        ("lab.shared_pass_factor", "count"),
        ("lab.cache_store_us_per_record", "us/record"),
        ("lab.cache_load_us_per_record", "us/record"),
        ("lab.cache_hit_ratio", "ratio"),
        ("lab.document_us_per_cell", "us/cell"),
        ("lab.unaccounted_share", "ratio"),
    ]
    + [(f"self_share.{layer}", "ratio") for layer in LAYERS]
    + [
        ("largest_self_share", "ratio"),
        ("sampled.detailed_share", "ratio"),
        ("ipc_err_max_pct", "%"),
        ("ipc_err_median_pct", "%"),
        ("ci95_coverage", "ratio"),
        ("trace_overhead_pct", "%"),
    ]
)


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Reference:
    """Where the tolerance-0 reference of some experiments comes from: a
    committed root document at the committed seed, otherwise a `momlab` run
    in a different execution mode, made once outside the timed phase."""

    experiments: tuple[str, ...]
    committed: str | None  # file name pattern with `{}` for the experiment
    args: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # `momlab` argument lists of one timed iteration (before the per-run
    # `--seed`, `--out-dir` and cache flags).
    commands: tuple[tuple[str, ...], ...]
    experiments: tuple[str, ...]
    workers: int
    # Cache behaviour of the timed phase: "fresh" (a new empty cache per
    # iteration), "filled" (the cache the set-up filled) or "none".
    cache: str
    references: tuple[Reference, ...]
    # Exact references for the accuracy metrics; the correctness references
    # serve when the workload itself is exact.
    exact: tuple[Reference, ...] = ()
    # Set-up commands (run with fast-mode subsets), unless the set-up fills
    # the cache.
    warmup: tuple[tuple[str, ...], ...] = field(default_factory=tuple)


ALL_REFERENCE = Reference(
    tuple(ALL_EXPERIMENTS), "BENCH_{}.json", ("run", "--all", "--streamed", "--workers", "2")
)

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="paper-grid",
            why="momlab run --all cold into a fresh cache, one worker: the paper's 322 cells; "
            "timing feed, probe, shared passes, mom-mem and cache fills dominate",
            # `run --all` one experiment per invocation, so that each
            # experiment's fastest time counts on its own (see `fastest`).
            commands=tuple(("run", e, "--workers", "1") for e in ALL_EXPERIMENTS),
            experiments=tuple(ALL_EXPERIMENTS),
            workers=1,
            cache="fresh",
            references=(ALL_REFERENCE,),
            warmup=(("run", "--all", "--workers", "1"),),
        ),
        Workload(
            name="stress-long",
            why="long rgb2ycc streams on perfect memory with one worker: interpretation and "
            "DynInst graduation on the critical path; mom-mem and the scheduler bypassed",
            commands=(("run", "stress", "--scale", "2", "--workers", "1"),),
            experiments=("stress",),
            workers=1,
            cache="none",
            references=(
                Reference(
                    ("stress",),
                    None,
                    ("run", "stress", "--scale", "2", "--streamed", "--workers", "2"),
                ),
            ),
            warmup=(("run", "stress", "--workers", "1"),),
        ),
        Workload(
            name="sampled-long",
            why="sampled stress at scale 4 plus sampled figure7, one worker: fast-forward "
            "dominates, and the run carries the sampling accuracy against exact results",
            commands=(
                ("run", "stress", "--sampled", "--scale", "4", "--workers", "1"),
                ("run", "figure7", "--sampled", "--workers", "1"),
            ),
            experiments=("stress", "figure7"),
            workers=1,
            cache="none",
            references=(
                Reference(
                    ("stress",),
                    None,
                    ("run", "stress", "--sampled", "--scale", "4", "--workers", "2"),
                ),
                Reference(("figure7",), None, ("run", "figure7", "--sampled", "--workers", "2")),
            ),
            exact=(
                Reference(
                    ("stress",),
                    None,
                    ("run", "stress", "--scale", "4", "--workers", "2"),
                ),
                Reference(("figure7",), "BENCH_{}.json", ("run", "figure7", "--workers", "2")),
            ),
            warmup=(
                ("run", "stress", "--sampled", "--workers", "1"),
                ("run", "figure7", "--sampled", "--workers", "1"),
            ),
        ),
        Workload(
            name="warm-rerun",
            why="momlab run --all, one worker, served wholly from a cache the set-up filled: "
            "cache reads, record decoding and document assembly only",
            commands=(("run", "--all", "--workers", "1"),),
            experiments=tuple(ALL_EXPERIMENTS),
            workers=1,
            cache="filled",
            references=(ALL_REFERENCE,),
        ),
    ]
}


# ---------------------------------------------------------------------------
# Documents and correctness


class Obj(dict):
    """A JSON object that keeps every member in order, duplicate keys too, and
    compares by all of them; item access sees the last value of a key."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.pairs = pairs

    def __eq__(self, other):
        return isinstance(other, Obj) and self.pairs == other.pairs

    def __ne__(self, other):
        return not self == other

    __hash__ = None


def results_of(doc: Obj) -> Obj:
    """The deterministic results of a document: everything but the
    wall-clock `meta` section and an embedded `comparison`."""
    return Obj([(k, v) for k, v in doc.pairs if k not in ("meta", "comparison")])


def results_text(text: str) -> str:
    """The text of a `momlab` document before its `meta` section: equal text
    means equal results, which lets most checks skip parsing."""
    end = text.find('\n  "meta": ')
    return text if end < 0 else text[:end]


@dataclass
class Ref:
    """One experiment's reference document, parsed and as text."""

    doc: Obj
    text: str

    @classmethod
    def read(cls, path: Path) -> "Ref":
        text = path.read_text(encoding="utf-8")
        return cls(json.loads(text, object_pairs_hook=Obj), results_text(text))


def instructions(doc) -> int:
    return sum(c.get("instructions", 0) for c in doc.get("cells") or [])


def cell_key(cell) -> tuple:
    return (cell.get("workload"), cell.get("config"), cell.get("way"))


def units_of(doc) -> int:
    """Cells a document holds; a static table counts as one."""
    cells = doc.get("cells")
    return len(cells) if isinstance(cells, list) else 1


def compare_document(doc, ref) -> tuple[int, int]:
    """Compare one results document with its reference at tolerance 0.
    Returns (cells attempted, cells failed). A grid cell fails when it, or
    its sampling entry, differs from the reference cell with the same
    workload, config and width; a header difference (spec hash, seed, scale)
    fails every cell; a static table is one cell."""
    doc, ref = results_of(doc), results_of(ref)
    if not isinstance(doc.get("cells"), list):
        return 1, int(doc != ref)
    header = [(k, v) for k, v in doc.pairs if k not in ("cells", "sampling")]
    ref_header = [(k, v) for k, v in ref.pairs if k not in ("cells", "sampling")]
    ref_cells = {cell_key(c): c for c in ref.get("cells") or []}
    samples = {cell_key(c): c for c in (doc.get("sampling") or {}).get("cells", [])}
    ref_samples = {cell_key(c): c for c in (ref.get("sampling") or {}).get("cells", [])}
    sampling_knobs = [(k, v) for k, v in (doc.get("sampling") or Obj([])).pairs if k != "cells"]
    ref_knobs = [(k, v) for k, v in (ref.get("sampling") or Obj([])).pairs if k != "cells"]
    all_fail = header != ref_header or sampling_knobs != ref_knobs
    attempted = failed = 0
    seen = set()
    for cell in doc["cells"]:
        key = cell_key(cell)
        seen.add(key)
        attempted += 1
        if all_fail or ref_cells.get(key) != cell or samples.get(key) != ref_samples.get(key):
            failed += 1
    missing = len(set(ref_cells) - seen)
    return attempted + missing, failed + missing


def ipc(cell) -> float:
    return cell["instructions"] / cell["cycles"]


def accuracy(docs: list, exact_docs: dict) -> dict:
    """IPC error of every cell against the exact reference of the same cell,
    and the share of cells whose exact IPC lies inside the reported 95%
    interval. An exact cell carries an interval of width zero."""
    errors, covered = [], 0
    for doc in docs:
        exact = {cell_key(c): c for c in exact_docs[doc["experiment"]]["cells"]}
        samples = {cell_key(c): c for c in (doc.get("sampling") or {}).get("cells", [])}
        for cell in doc.get("cells") or []:
            key = cell_key(cell)
            exact_ipc = ipc(exact[key])
            errors.append(abs(ipc(cell) - exact_ipc) / exact_ipc * 100.0)
            sample = samples.get(key)
            mean, half = (sample["ipc_mean"], sample["ipc_ci95"]) if sample else (ipc(cell), 0.0)
            covered += abs(mean - exact_ipc) <= half
    return {
        "ipc_err_max_pct": max(errors),
        "ipc_err_median_pct": statistics.median(errors),
        "ci95_coverage": covered / len(errors),
    }


def detailed_share(docs: list) -> float:
    """Instructions simulated in detail over all instructions; 1 for exact
    runs, which simulate everything in detail."""
    detailed = total = 0
    for doc in docs:
        samples = {cell_key(c): c for c in (doc.get("sampling") or {}).get("cells", [])}
        for cell in doc.get("cells") or []:
            s = samples.get(cell_key(cell))
            total += cell["instructions"]
            detailed += s["measured_insts"] + s["warmup_insts"] if s else cell["instructions"]
    return detailed / total if total else 1.0


def sched_metrics(trace: dict, workers: int) -> dict:
    """Scheduler shares and group times from a `--trace-out` Chrome trace.
    Only the fan-out runner records spans, so these are fan-out only; a run
    without spans reports zeros."""
    by_pid: dict = {}
    for event in trace.get("traceEvents", []):
        if event.get("ph") == "X":
            by_pid.setdefault(event["pid"], []).append(event)
    busy = wait = capacity = 0.0
    groups = []
    for events in by_pid.values():
        start = min(e["ts"] for e in events)
        end = max(e["ts"] + e["dur"] for e in events)
        capacity += workers * (end - start)
        for e in events:
            waited = e.get("args", {}).get("wait_us", 0.0)
            busy += e["dur"] - waited
            wait += waited
            if e.get("cat") in ("serial", "produce"):
                groups.append(e["dur"] / 1000.0)
    if not groups or capacity <= 0:
        return {k: 0.0 for k in ("lab.sched_busy_share", "lab.sched_wait_share",
                                 "lab.group_ms_p50", "lab.group_ms_p90")}
    groups.sort()
    return {
        "lab.sched_busy_share": busy / capacity,
        "lab.sched_wait_share": wait / capacity,
        "lab.group_ms_p50": percentile(groups, 50),
        "lab.group_ms_p90": percentile(groups, 90),
    }


def percentile(sorted_values: list, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def ledger(docs: list, layers: dict, cpu_s: float, workers: int) -> dict:
    """Estimated self time of each layer in the run that wrote `docs`: the
    driver's unit costs times the work counts in the documents, as shares of
    the run's CPU time. Cells served from the cache cost a record load and
    nothing else."""
    ns = dict.fromkeys(LAYERS, 0.0)
    for doc in docs:
        meta = doc.get("meta") or {}
        cells = doc.get("cells")
        if not isinstance(cells, list):
            continue
        ns["mom-lab"] += len(cells) * layers["lab.document_us_per_cell"] * 1e3
        cache = meta.get("cache") or {}
        ns["mom-lab"] += cache.get("hits", 0) * layers["lab.cache_load_us_per_record"] * 1e3
        ns["mom-lab"] += cache.get("fills", 0) * layers["lab.cache_store_us_per_record"] * 1e3
        cached = [t.get("cached", False) for t in meta.get("throughput") or []]
        mems = {c["label"]: c["mem"] for c in doc.get("configs") or []}
        samples = {cell_key(c): c for c in (doc.get("sampling") or {}).get("cells", [])}
        shared = meta.get("mode") == "fanout"
        groups: dict = {}
        for i, cell in enumerate(cells):
            if i < len(cached) and cached[i]:
                continue
            isa, insts = cell["isa"], cell["instructions"]
            s = samples.get(cell_key(cell))
            detailed = s["measured_insts"] + s["warmup_insts"] if s else insts
            feed = detailed * layers[f"cpu.feed_probed_ns_per_inst.{isa}"]
            mem = mems.get(cell["config"], "")
            if mem in MEM_MODELS:
                stats = cell["mem"]
                calls = stats["requests"] + stats["port_stalls"]
                mem_ns = calls * layers[f"mem.access_ns.{mem}"]
                ns["mom-mem"] += mem_ns
                feed -= mem_ns
            ns["mom-cpu"] += max(feed, 0.0)
            key = (cell["workload"], isa) if shared else (cell["workload"], isa, i)
            group = groups.setdefault(key, [cell, 0, detailed, insts])
            group[1] += 1
        for cell, members, detailed, insts in groups.values():
            if cell["workload_kind"] == "app":
                # `stream_app` is an application's whole functional pass.
                ns["mom-apps"] += layers["apps.stream_us_per_cell"] * 1e3
                continue
            ns["mom-kernels"] += layers["kernels.build_us_per_cell"] * 1e3
            ns["mom-core"] += detailed * layers[f"core.stream_ns_per_inst.{cell['isa']}"]
            forwarded = insts - detailed
            ns["mom-core"] += forwarded * layers[f"core.fast_forward_ns_per_inst.{cell['isa']}"]
            if shared and workers == 1:
                ns["mom-isa"] += members * detailed * layers["isa.broadcast_ns_per_member_inst"]
    cpu_ns = cpu_s * 1e9
    out = {f"self_share.{layer}": ns[layer] / cpu_ns for layer in LAYERS}
    out["lab.unaccounted_share"] = 1.0 - sum(ns.values()) / cpu_ns
    largest = max(LAYERS, key=lambda layer: ns[layer])
    out["largest_self_share"] = ns[largest] / cpu_ns
    out["largest_layer"] = largest
    return out


# ---------------------------------------------------------------------------
# Processes


class BenchError(Exception):
    """A failure that ends the run without a result."""


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_kb: int
    code: int
    # Time of the calibration loop run after the process, when asked for.
    calib: float | None


def run_process(spawn: Path, cmd: list, env: dict, log: Path, calibrate: bool = False) -> Proc:
    """Run one process to completion through the `perfbench-spawn` launcher
    and return its wall time, CPU time and peak resident memory, and with
    `calibrate` the time of the launcher's calibration loop. The launcher
    and the process are killed if this one is interrupted."""
    report = log.with_suffix(".report")
    flags = ["--calibrate"] if calibrate else []
    with open(log, "wb") as err:
        proc = subprocess.Popen([str(spawn), *flags, str(report), *cmd], cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL, stderr=err, start_new_session=True)
        try:
            code = proc.wait()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if code != 0:
        raise BenchError(f"perfbench-spawn failed on {cmd[0]}: {log_tail(log)}")
    with open(report, encoding="utf-8") as f:
        r = json.load(f)
    if r["code"] != 0:
        print(f"{' '.join(cmd)} exited with {r['code']}: {log_tail(log)}", file=sys.stderr)
    return Proc(r["wall_s"], r["cpu_s"], r["maxrss_kb"], r["code"], r["calib_s"])


def log_tail(log: Path) -> str:
    return log.read_text(encoding="utf-8", errors="replace")[-2000:]


def momlab_env(fast: bool = False) -> dict:
    """The environment `momlab` runs in: no inherited knob that changes what
    it runs, fast-mode subsets on request."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MOM_LAB_", "MOM_BENCH_"))}
    if fast:
        env["MOM_BENCH_FAST"] = "1"
    return env


def build(target: Path) -> Path:
    """Build `momlab` and the benchmark's own binaries; return the directory
    that holds them."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "lab").is_dir():
        raise BenchError(f"{ROOT} holds no momsim workspace to build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    steps = [["cargo", "build", "--release", "--offline", "-p", "mom-lab", "--bin", "momlab"]]
    # The benchmark's binaries are built on every run, so the first run of
    # a checkout pays for both builds whichever mode it runs in.
    steps.append(
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(ROOT / "perfbench" / "layers" / "Cargo.toml")]
    )
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise BenchError(f"build failed: {' '.join(step)}")
    return target / "release"


# ---------------------------------------------------------------------------
# The run


@dataclass
class Iteration:
    # Wall and CPU time of each of the workload's commands, in order.
    walls: list
    cpus: list
    rss_kb: int
    insts: int
    attempted: int
    failed: int
    docs: list
    trace: dict | None


class Runner:
    def __init__(self, workload: Workload, seed: int, bin_dir: Path, work: Path):
        self.w = workload
        self.seed = seed
        self.bin_dir = bin_dir
        self.work = work
        self.logs = 0
        # Every calibration time of the run, set-up included.
        self.calibs: list[float] = []

    def log_path(self) -> Path:
        self.logs += 1
        return self.work / f"momlab-{self.logs}.log"

    def momlab_run(self, args, fast: bool = False, calibrate: bool = False) -> Proc:
        cmd = [str(self.bin_dir / "momlab"), *args, "--seed", str(self.seed), "--quiet"]
        proc = run_process(self.bin_dir / "perfbench-spawn", cmd, momlab_env(fast),
                           self.log_path(), calibrate)
        if proc.calib is not None:
            self.calibs.append(proc.calib)
        return proc

    def setup(self) -> tuple[float, Path | None]:
        """Run the set-up `SETUP_REPS` times and return the median time and
        the cache the timed phase reads (the last one filled)."""
        times, cache = [], None
        for rep in range(SETUP_REPS):
            if self.w.cache == "filled":
                if cache is not None:
                    shutil.rmtree(cache)
                cache = self.work / f"filled-{rep}"
                args = [*self.w.commands[0], "--cache-dir", str(cache), "--no-json"]
                procs = [self.momlab_run(args, calibrate=True)]
            else:
                procs = [self.momlab_run([*args, "--no-cache", "--no-json"], fast=True,
                                         calibrate=True)
                         for args in self.w.warmup]
            if any(p.code != 0 for p in procs):
                raise BenchError(f"set-up of {self.w.name} failed")
            times.append(sum(p.wall for p in procs))
        return statistics.median(times), cache

    def references(self, refs: tuple[Reference, ...]) -> dict:
        """Reference documents by experiment name."""
        out = {}
        for ref in refs:
            if ref.committed and self.seed == COMMITTED_SEED:
                paths = {e: ROOT / ref.committed.format(e) for e in ref.experiments}
                if all(p.is_file() for p in paths.values()):
                    out.update({e: Ref.read(p) for e, p in paths.items()})
                    continue
            out_dir = self.work / f"reference-{len(list(self.work.glob('reference-*')))}"
            proc = self.momlab_run([*ref.args, "--no-cache", "--out-dir", str(out_dir)])
            if proc.code != 0:
                raise BenchError(f"reference run failed: momlab {' '.join(ref.args)}")
            out.update({e: Ref.read(out_dir / f"BENCH_{e}.json") for e in ref.experiments})
        return out

    def iteration(self, refs: dict, cache: Path | None, traced: bool, keep: bool,
                  calibrate: bool) -> Iteration:
        """One timed iteration: run the workload's commands, then check every
        document they wrote. `keep` keeps the parsed documents; `calibrate`
        runs the calibration loop after the last command."""
        out_dir = self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        walls, cpus = [], []
        rss = 0
        ok = True
        trace = None
        fresh = self.work / "fresh-cache"
        for i, args in enumerate(self.w.commands):
            args = [*args, "--out-dir", str(out_dir)]
            if self.w.cache == "fresh":
                shutil.rmtree(fresh, ignore_errors=True)
                args += ["--cache-dir", str(fresh)]
            elif self.w.cache == "filled":
                args += ["--cache-dir", str(cache)]
            else:
                args += ["--no-cache"]
            if traced:
                args += ["--trace-out", str(self.work / f"trace-{i}.json")]
            proc = self.momlab_run(args, calibrate=calibrate and i == len(self.w.commands) - 1)
            walls.append(proc.wall)
            cpus.append(proc.cpu)
            rss = max(rss, proc.rss_kb)
            ok = ok and proc.code == 0
        if traced and ok:
            # Each command's trace numbers its processes from the same
            # start, so the command index keeps them apart.
            events = []
            for i in range(len(self.w.commands)):
                with open(self.work / f"trace-{i}.json", encoding="utf-8") as f:
                    events += [dict(e, pid=(i, e.get("pid"))) for e in json.load(f)["traceEvents"]]
            trace = {"traceEvents": events}
        attempted = failed = insts = 0
        docs = []
        for experiment in self.w.experiments:
            path = out_dir / f"BENCH_{experiment}.json"
            ref = refs[experiment]
            if not ok or not path.is_file():
                attempted += units_of(ref.doc)
                failed += units_of(ref.doc)
                continue
            text = path.read_text(encoding="utf-8")
            doc = json.loads(text, object_pairs_hook=Obj) if keep else None
            if results_text(text) == ref.text:
                attempted += units_of(ref.doc)
                insts += instructions(ref.doc)
            else:
                doc = doc or json.loads(text, object_pairs_hook=Obj)
                a, f = compare_document(doc, ref.doc)
                attempted += a
                failed += f
                insts += instructions(doc)
            if keep:
                docs.append(doc)
        return Iteration(walls, cpus, rss, insts, attempted, failed, docs, trace)

    def timed(self, seconds: float, refs: dict, cache: Path | None, trace: bool):
        """Closed-loop iterations for `seconds`: no iteration starts that
        would, at the mean pace so far, end after them. A traced run
        alternates untraced and traced iterations. Iterations are followed by
        a calibration at least every `CALIBRATE_EVERY_S`."""
        plain, traced = [], []
        start = last_calib = time.perf_counter()
        while True:
            done = len(plain) + len(traced)
            now = time.perf_counter()
            enough = done >= (2 * MIN_ITERATIONS if trace else MIN_ITERATIONS)
            if enough and (now - start) * (done + 1) / done > seconds:
                break
            use_trace = trace and done % 2 == 1
            calibrate = now - last_calib >= CALIBRATE_EVERY_S
            it = self.iteration(refs, cache, use_trace, keep=use_trace or done == 0,
                                calibrate=calibrate)
            if calibrate:
                last_calib = time.perf_counter()
            (traced if use_trace else plain).append(it)
        return plain, traced


def median_of(values) -> float:
    return statistics.median(list(values))


def host_scale(calibs: list) -> float:
    """The factor that scales this run's times to the reference host: the
    reference calibration time over the fastest calibration of the run."""
    return REFERENCE_CALIBRATION_S / min(calibs)


def fastest(its: list, field: str) -> float:
    """The time of one iteration with each of its commands at its fastest in
    the run: the best the program did while the shared host let it."""
    per_command = zip(*(getattr(i, field) for i in its))
    return sum(min(times) for times in per_command)


def end_to_end(setup_s: float, its: list, scale: float) -> dict:
    """The end-to-end metrics of a run. Iteration times are `fastest`, and
    set-up is the median repetition. Every time is scaled by `scale` (see
    `host_scale`)."""
    wall_s = fastest(its, "walls") * scale
    return {
        "setup_s": setup_s * scale,
        "wall_s": wall_s,
        "cpu_s": fastest(its, "cpus") * scale,
        "minst_per_s": median_of(i.insts for i in its) / wall_s / 1e6,
        "peak_rss_mb": median_of(i.rss_kb for i in its) / 1024.0,
    }


def per_layer(runner: Runner, plain: list, traced: list, refs: dict) -> dict:
    w = runner.w
    layers_out = runner.work / "layers.json"
    layer_work = runner.work / "layers"
    layer_work.mkdir()
    cmd = [str(runner.bin_dir / "perfbench-layers"), "--workload", w.name,
           "--seed", str(runner.seed), "--work-dir", str(layer_work)]
    with open(layers_out, "wb") as out:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=sys.stderr)
        try:
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if code != 0:
        raise BenchError("the per-layer driver failed")
    with open(layers_out, encoding="utf-8") as f:
        metrics = json.load(f)

    last = traced[-1]
    metrics.update(sched_metrics(last.trace, w.workers))
    passes = [d["meta"]["shared_passes"] for d in last.docs if "shared_passes" in d.get("meta", {})]
    functional = sum(p["functional_instructions"] for p in passes)
    cells = sum(p["cell_instructions"] for p in passes)
    metrics["lab.shared_pass_factor"] = cells / functional if functional else 0.0
    caches = [d["meta"]["cache"] for d in last.docs if d.get("meta", {}).get("cache")]
    lookups = sum(c["hits"] + c["misses"] for c in caches)
    metrics["lab.cache_hit_ratio"] = sum(c["hits"] for c in caches) / lookups if lookups else 0.0
    metrics["sampled.detailed_share"] = detailed_share(last.docs)
    exact = runner.references(w.exact) if w.exact else refs
    exact_docs = {e: r.doc for e, r in exact.items()}
    metrics.update(accuracy([d for d in last.docs if "cells" in d], exact_docs))
    cpu_s = median_of(sum(i.cpus) for i in plain)
    metrics.update(ledger(last.docs, metrics, cpu_s, w.workers))
    plain_wall = median_of(sum(i.walls) for i in plain)
    traced_wall = median_of(sum(i.walls) for i in traced)
    metrics["trace_overhead_pct"] = (traced_wall / plain_wall - 1.0) * 100.0
    return metrics


def host_block(docs: list) -> dict:
    def command(*cmd):
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        except OSError:
            return "unknown"
        return proc.stdout.strip() if proc.returncode == 0 else "unknown"

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            names = [line.split(":", 1)[1].strip() for line in f if line.startswith("model name")]
        model = names[0] if names else model
    except OSError:
        pass
    meta = docs[0].get("meta", {}) if docs else {}
    commit = command("git", "rev-parse", "HEAD") if (ROOT / ".git").exists() else "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "rustc": command("rustc", "-V"),
        "simd_feature": meta.get("engine", {}).get("simd_feature"),
        "simd_active": meta.get("host", {}).get("simd_active"),
        "git_commit": commit,
    }


def finish(values: dict, names: list, attempted: int, failed: int) -> int:
    """Print every metric by name with its unit, then the result line; the
    exit code is nonzero when any cell failed or differed from its
    reference."""
    for name, unit in names:
        print(f"{name:<42} {values[name]:>14.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=COMMITTED_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    load_at_start = os.getloadavg()
    # A terminated run still stops its `momlab` process and removes its
    # scratch files: the handler turns SIGTERM into an exception.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    work = target / "perfbench" / f"{args.workload}-{os.getpid()}"
    try:
        bin_dir = build(target)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        runner = Runner(WORKLOADS[args.workload], args.seed, bin_dir, work)
        setup_s, cache = runner.setup()
        refs = runner.references(runner.w.references)
        plain, traced = runner.timed(args.seconds, refs, cache, bool(args.trace))
        its = plain + traced
        attempted = sum(i.attempted for i in its)
        failed = sum(i.failed for i in its)
        if args.trace:
            values = per_layer(runner, plain, traced, refs)
            names = PER_LAYER
        else:
            values = end_to_end(setup_s, its, host_scale(runner.calibs))
            names = END_TO_END
        host = dict(host_block(its[0].docs), loadavg_at_start=load_at_start,
                    calibration_min_s=min(runner.calibs), calibrations=len(runner.calibs))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload: {args.workload}  seed: {args.seed}  iterations: {len(its)}")
    walls = sorted(sum(i.walls) for i in its)
    print("iteration wall_s (unscaled): " + "  ".join(
        f"p{p}={percentile(walls, p):.4f}" for p in (0, 10, 25, 50, 75, 90, 100)))
    calibs = sorted(runner.calibs)
    print(f"calibration_s ({len(calibs)}): " + "  ".join(
        f"p{p}={percentile(calibs, p):.4f}" for p in (0, 50, 100))
        + f"  host scale: {host_scale(calibs):.4f}")
    print("host: " + json.dumps(host, sort_keys=True))
    print(f"cell_error_rate: {failed / attempted:.6g} ({failed} of {attempted} cells)")
    if args.trace:
        print(f"largest self time: {values['largest_layer']} "
              f"({values['largest_self_share']:.1%} of CPU time)")
    return finish(values, names, attempted, failed)


if __name__ == "__main__":
    sys.exit(main())
