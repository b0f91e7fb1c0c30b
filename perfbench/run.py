#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-tpcc --seed 1 --seconds 10 --trace 0

The workloads, metric names and units are those in ``BENCHMARK.json``
at the checkout root.  ``--trace 0`` prints every end-to-end metric;
``--trace 1`` prints every per-layer metric from a separate traced
run (``pb_layers.py``).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it (``record {...}``) stamps the run: seed, rungs, environment,
raw samples counts and any correctness problems.  A run whose outputs
fail the correctness gate prints ``"correct": false`` with no metrics
and exits 1.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

# Rung and debugging switches of the program: a run under any of them
# would measure something other than the defaults, so it is refused.
FORBIDDEN_ENV = ("REPRO_INTERP", "REPRO_SQL_EXEC", "REPRO_DUMP_CODEGEN")
# Set-ups per run; setup_s is their median.
SETUPS = 5
WAL_POLICY = (
    "live-tpcc: group commit, one fsync per 8 orders; every 2PC prepare "
    "and commit decision forced; other workloads: no WAL"
)

_clock = time.perf_counter
_cpu = time.process_time  # see pb_workloads: steadier than wall here


def _git_commit() -> str | None:
    """HEAD's commit id read from ``.git`` (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    return {
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "wal_flush_policy": WAL_POLICY,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build(cls, seed: int, workdir: Path, tracer=None):
    """Set the workload up once; returns it and its set-up seconds."""
    workload = cls()
    workload.tracer = tracer
    start, cpu = _clock(), _cpu()
    workload.setup(seed, workdir)
    return workload, _cpu() - cpu, _clock() - start


def timed_phase(workload, seconds: float, after_first=None) -> dict:
    """Round 1 (fixed work), then more rounds until ``seconds`` of
    wall time pass.

    Reading round 1's exact counts and the memory high-water mark is
    kept out of the timed phase on both clocks.  Peak memory is read
    after round 1 because later rounds of a live workload insert rows
    in proportion to its speed.
    """
    gc.collect()
    start, cpu = _clock(), _cpu()
    rounds = [workload.run_round()]
    first_wall = _clock() - start
    paused, paused_cpu = _clock(), _cpu()
    if after_first is not None:
        after_first()
    exact = workload.exact()
    rss = _peak_rss_mb()
    start += _clock() - paused
    cpu += _cpu() - paused_cpu
    while _clock() - start < seconds:
        rounds.append(workload.run_round())
    return {
        "rounds": rounds,
        "cpu_s": _cpu() - cpu,
        "wall_s": _clock() - start,
        "first_wall_s": first_wall,
        "exact": exact,
        "peak_rss_mb": rss,
    }


def _totals(rounds) -> dict:
    return {
        "txns": sum(r.txns for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "samples": [s for r in rounds for s in r.cpu_samples_us],
        "wall_samples": [s for r in rounds for s in r.wall_samples_us],
    }


def plain_run(cls, seed: int, seconds: float, workdir: Path) -> tuple:
    from pb_workloads import percentile

    setup_times, setup_walls = [], []
    workload = None
    for i in range(SETUPS):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        workload, took, wall = build(cls, seed, workdir / f"setup{i}")
        setup_times.append(took)
        setup_walls.append(wall)
    phase = timed_phase(workload, seconds)
    start = _clock()
    virtual = {**phase["exact"], **workload.finish()}
    finish_s = _clock() - start
    problems = workload.check()
    check_s = _clock() - start - finish_s
    totals = _totals(phase["rounds"])
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": phase["peak_rss_mb"],
        "cpu_txn_per_s": totals["txns"] / phase["cpu_s"],
        "cpu_txn_p50_us": percentile(totals["samples"], 50),
        "cpu_txn_p99_us": percentile(totals["samples"], 99),
        "vtxn_per_s": virtual["vtxn_per_s"],
        "vlat_p50_ms": virtual["vlat_p50_ms"],
        "vlat_p99_ms": virtual["vlat_p99_ms"],
        "vmax_rate_under_slo": virtual["vmax_rate_under_slo"],
    }
    record = {
        "setup_s_each": setup_times,
        "setup_wall_s_each": setup_walls,
        "rounds": len(phase["rounds"]),
        "cpu_s": phase["cpu_s"],
        "wall_s": phase["wall_s"],
        "samples": len(totals["samples"]),
        "wall_txn_per_s": totals["txns"] / phase["wall_s"],
        "wall_txn_p50_us": percentile(totals["wall_samples"], 50),
        "wall_txn_p99_us": percentile(totals["wall_samples"], 99),
        "finish_s": finish_s,
        "check_s": check_s,
        "virtual": virtual,
        "failures": getattr(workload, "exceptions", [])[:10],
    }
    workload.close()
    return metrics, totals, problems, record, workload.rungs()


def traced_run(cls, seed: int, seconds: float, workdir: Path) -> tuple:
    """Per-layer metrics from a traced run, guarded by an untraced one.

    An untraced set-up and first round come first; the traced first
    round must reproduce their virtual metrics and exact counts, and
    the ratio of the two rounds' wall time per transaction is the
    tracing overhead.
    """
    from pb_layers import LayerTracer, install, layer_metrics

    plain, _, _ = build(cls, seed, workdir / "untraced")
    base = timed_phase(plain, 0.0)
    plain.close()
    del plain
    gc.collect()

    tracer = LayerTracer()
    install(tracer)
    try:
        marks = {"setup_begin": tracer.snapshot()}
        workload, _, _ = build(cls, seed, workdir / "traced", tracer)
        marks["timed_begin"] = tracer.snapshot()

        def first_round_done() -> None:
            marks["round1_end"] = tracer.snapshot()

        phase = timed_phase(workload, seconds, first_round_done)
        marks["timed_end"] = tracer.snapshot()
    finally:
        tracer.uninstall()
    problems = workload.check()
    if phase["exact"] != base["exact"]:
        changed = sorted(
            key for key in base["exact"]
            if phase["exact"].get(key) != base["exact"][key]
        )
        problems.append(f"tracing changed exact results: {changed}")
    traced_cost = phase["first_wall_s"] / max(phase["rounds"][0].txns, 1)
    plain_cost = base["first_wall_s"] / max(base["rounds"][0].txns, 1)
    metrics = layer_metrics(
        tracer, marks["setup_begin"], marks["timed_begin"],
        marks["round1_end"], marks["timed_end"], phase["wall_s"],
        phase["exact"], traced_cost / plain_cost - 1.0,
    )
    totals = _totals(phase["rounds"])
    record = {
        "rounds": len(phase["rounds"]),
        "wall_s": phase["wall_s"],
        "missing_hooks": tracer.missing,
        "exact": phase["exact"],
    }
    workload.close()
    return metrics, totals, problems, record, workload.rungs()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    set_vars = [name for name in FORBIDDEN_ENV if name in os.environ]
    if set_vars:
        print(f"refusing to run with {', '.join(set_vars)} set: the "
              "benchmark measures the program's default rungs",
              file=sys.stderr)
        return 2
    if not (SRC / "repro").is_dir() or not SPEC.is_file():
        print(f"no program to measure: need {SRC / 'repro'} and {SPEC}",
              file=sys.stderr)
        return 1
    spec = json.loads(SPEC.read_text())
    sys.path.insert(0, str(SRC))
    from pb_workloads import WORKLOADS

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names or args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; options: {names}",
              file=sys.stderr)
        return 2
    if args.seconds < 0:
        print("--seconds must be non-negative", file=sys.stderr)
        return 2

    # A terminated run still removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    run = traced_run if args.trace else plain_run
    try:
        metrics, totals, problems, record, rungs = run(
            WORKLOADS[args.workload], args.seed, args.seconds, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        problems.append(
            f"metric names differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    record.update(
        workload=args.workload, trace=args.trace, seconds=args.seconds,
        env=environment(args.seed), rungs=rungs,
        failed_frac=totals["failed"] / max(totals["attempted"], 1),
        problems=problems,
    )
    print("record " + json.dumps(record, sort_keys=True, default=str))
    correct = not problems
    result = {
        "correct": correct,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units if name in metrics
        } if correct else {},
    }
    if not correct:
        for problem in problems:
            print(f"INCORRECT: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
