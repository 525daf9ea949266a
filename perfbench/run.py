#!/usr/bin/env python3
"""fcdist benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a checkout (no install needed; ``src/`` is imported):

    python3 perfbench/run.py --workload grid_desk --seed 1 --seconds 10 --trace 0

Workloads and metrics are listed in ``BENCHMARK.json``; ``perfbench/README.md``
explains them. With ``--trace 0`` the run repeats the workload's batch (one
user call) until ``--seconds`` have passed and reports the end-to-end metrics.
With ``--trace 1`` it times the same batches untraced, then as many traced
batches over the same number of jobs, and reports the per-layer metrics. Every
run checks the outputs. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Run records and spans go
to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# setup_s is the median of this many cold starts, each in a fresh interpreter.
COLD_STARTS = 3
COLD_TIMEOUT_S = 120


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a fresh interpreter that only times import plus the first unit.
    parser.add_argument("--cold", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def first_unit(wl, seed: int, work: Path, inputs, import_s: float) -> dict:
    """Time the workload's first unit; with ``import_s`` it is one setup sample."""
    import workloads
    t0 = time.perf_counter()
    workloads.run_first_unit(wl, seed, work, inputs)
    first_unit_s = time.perf_counter() - t0
    return {"setup_s": import_s + first_unit_s, "import_s": import_s,
            "first_unit_s": first_unit_s}


def cold_starts(args, n: int) -> list[dict]:
    """Setup samples from ``n`` fresh interpreters, one after another."""
    samples = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--cold",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=COLD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def manifest(args, wl) -> dict:
    import fcdist
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "jobs": wl.jobs, "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "fcdist": fcdist.__version__,
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def cpu_seconds() -> float:
    """User plus system CPU of this process and of its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


class PeakMemory:
    """Peak summed PSS of this process and its pool workers, from
    ``memwatch.py`` running beside the timed batches."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().with_name("memwatch.py")),
             str(os.getpid())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def stop(self) -> dict:
        """Stop the watcher; its CPU is reaped into this process's children here."""
        out, _ = self.proc.communicate("", timeout=COLD_TIMEOUT_S)
        if self.proc.returncode != 0:
            raise RuntimeError("memwatch.py failed")
        return json.loads(out)


def run_batches(wl, seed: int, seconds: float, data: Path, inputs, problems: list[str]):
    """Untraced batches until ``seconds`` have passed; (result, wall, digests) each."""
    import workloads
    batches = []
    t0 = time.perf_counter()
    while not batches or time.perf_counter() - t0 < seconds:
        tb = time.perf_counter()
        result = workloads.run_batch(wl, seed, data, inputs)
        wall = time.perf_counter() - tb
        batches.append((result, wall, workloads.digests(data / "out")))
    for result, _, digest in batches:
        problems.extend(workloads.check_result(wl, result))
        if digest != batches[0][2]:
            problems.append(f"result digests differ between repeats: {digest} vs {batches[0][2]}")
    return batches


def measure(args, wl, data: Path, inputs, import_s: float, record: dict, problems: list[str]):
    """End-to-end metrics; returns (metrics, batches)."""
    import workloads
    setup = []
    if wl.jobs == 1:
        # Warm-up before timing; cold in this fresh process, so a setup sample.
        setup.append(first_unit(wl, args.seed, data, inputs, import_s))
    memory = PeakMemory()
    cpu0 = cpu_seconds()
    try:
        batches = run_batches(wl, args.seed, args.seconds, data, inputs, problems)
        # Read before the watcher is reaped, so its CPU is not counted.
        cpu = cpu_seconds() - cpu0
    finally:
        peak = memory.stop()
    if not wl.is_grid:
        from fcdist import matrix_io
        problems.extend(workloads.check_read_back(
            [matrix_io.read_cross_spectrum(workloads.subject_path(data, 0))], inputs[:1]))
    setup += cold_starts(args, COLD_STARTS - len(setup))
    record.update(setup_samples=setup, batch_walls_s=[w for _, w, _ in batches],
                  memory_samples=peak["samples"])
    metrics = {
        "units_per_s": statistics.median(wl.units_per_batch / w for _, w, _ in batches),
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "peak_rss_mb": peak["peak_kb"] / 1024.0,
        "cpu_s_per_unit": cpu / (wl.units_per_batch * len(batches)),
    }
    return metrics, batches


def measure_traced(args, wl, data: Path, inputs, record: dict, problems: list[str]):
    """Per-layer metrics from traced batches; returns (metrics, all batch results)."""
    import tracer
    import workloads
    cold = tracer.traced_first_unit(wl, args.seed, data, inputs)
    batches = run_batches(wl, args.seed, args.seconds, data, inputs, problems)
    traced = []
    for _ in batches:
        if wl.is_grid:
            tb = tracer.traced_grid_batch(workloads.grid_config(wl, args.seed), wl.jobs,
                                          data / "out")
        else:
            tb = tracer.traced_normative_batch(inputs, data)
            problems.extend(workloads.check_read_back(tb.read, inputs))
        traced.append(tb)
        problems.extend(workloads.check_result(wl, tb.result))
        if tb.result.trial_rows != batches[0][0].trial_rows:
            problems.append("traced driver's trial rows differ from the pipeline's")
        if workloads.digests(data / "out") != batches[0][2]:
            problems.append("traced driver's result files differ from the pipeline's")
    metrics, report = tracer.layer_metrics(traced, cold, [w for _, w, _ in batches], wl.jobs)
    if metrics["pipeline.self_share"] > 0.05:
        problems.append(f"layer spans cover only {1 - metrics['pipeline.self_share']:.1%} "
                        "of unit time")
    record.update(trace_report=report,
                  spans={"cold": cold.spans, "batches": [b.tracer.spans for b in traced]})
    return metrics, batches + [(tb.result, tb.wall, None) for tb in traced]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fcdist" / "__init__.py").is_file():
        print(f"fcdist sources not found under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import fcdist  # noqa: F401
    import_s = time.perf_counter() - t0

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    # Input generation is the benchmark's, so it is never timed.
    inputs = None if wl.is_grid else workloads.normative_inputs(
        args.seed, subjects=1 if args.cold else workloads.NORMATIVE_SUBJECTS)

    if args.cold:
        work = OUT / f"cold-{os.getpid()}"
        try:
            print(json.dumps(first_unit(wl, args.seed, work, inputs, import_s)))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    run_dir = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    data = run_dir / "data"
    data.mkdir(parents=True)
    record = {"manifest": manifest(args, wl)}
    print("manifest", json.dumps(record["manifest"]))
    problems: list[str] = []
    try:
        if args.trace:
            values, results = measure_traced(args, wl, data, inputs, record, problems)
        else:
            values, results = measure(args, wl, data, inputs, import_s, record, problems)
    finally:
        shutil.rmtree(data, ignore_errors=True)

    mismatch = {m["name"] for m in wanted} ^ set(values)
    if mismatch:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(mismatch)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = wl.units_per_batch * wl.results_per_unit * len(results)
    failed = sum(len(result.failures) for result, _, _ in results)
    record.update(digests=results[0][2], metrics=metrics, problems=problems,
                  attempted=attempted, failed=failed)
    (run_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")

    print("digests", json.dumps(record["digests"]))
    print(f"fail_ratio {failed / attempted!r} ratio ({failed} of {attempted} results failed)")
    if args.trace:
        print("failures_by_type", json.dumps(record["trace_report"]["failures_by_type"]))
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for problem in problems:
        print("CHECK FAILED:", problem)
    print(f"checks {'passed' if not problems else 'FAILED'}; record in {run_dir}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
