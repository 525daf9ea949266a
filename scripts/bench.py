#!/usr/bin/env python3
"""Compare two commits on the benchmark in alternating pairs; write BENCH_<tag>.json.

Each commit's committed files are exported (``git archive``) into a fresh
directory, as the benchmark is run on a clean checkout. Every pair runs the
unchanged ``perfbench/run.py --trace 0`` once in each export, the base first
on even pairs and the change first on odd ones, so that drift of the machine
falls on both sides. Run from the root of the repository:

    python3 scripts/bench.py --base HEAD~1 --change HEAD --tag blas_threads \\
        --workload grid_dense --workload grid_desk --workload normative_rt

The file holds each run's end-to-end metrics, digests and ``manifest`` line
(nproc, BLAS, thread environment) and, per workload and metric, the median
and quartiles of each side, the median change and the pairs the change won.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def export(rev: str, dest: Path) -> None:
    """The committed files of ``rev``, written under ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its result line, digests and manifest."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} failed:\n{proc.stderr}")
    run = json.loads(lines[-1])
    run["metrics"] = {name: m["value"] for name, m in run["metrics"].items()}
    for line in lines:
        key, _, rest = line.partition(" ")
        if key in ("manifest", "digests"):
            run[key] = json.loads(rest)
    return run


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: quartiles of each side, median change, pairs won by the change."""
    out = {}
    for name, direction in better.items():
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        sign = 1 if direction == "higher" else -1
        out[name] = {
            **stats,
            "median_change": stats["change"]["median"] / stats["base"]["median"] - 1,
            "change_better_pairs": sum(sign * (c - b) > 0
                                       for b, c in zip(values["base"], values["change"])),
        }
    return out


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="commit the change is measured against")
    parser.add_argument("--change", default="HEAD", help="commit under test")
    parser.add_argument("--tag", required=True, help="output is BENCH_<tag>.json")
    parser.add_argument("--workload", action="append", required=True, metavar="NAME[=PAIRS]",
                        help="workload of BENCHMARK.json and its pair count (default 10)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", type=Path, default=ROOT, help="directory of the JSON file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    revs = {side: subprocess.run(
                ["git", "rev-parse", "--verify", getattr(args, side) + "^{commit}"],
                cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()
            for side in SIDES}
    plan = [(name, int(pairs or 10)) for name, _, pairs in
            (spec.partition("=") for spec in args.workload)]
    work = Path(tempfile.mkdtemp(prefix="fcdist-bench-"))
    try:
        for side in SIDES:
            export(revs[side], work / side)
        spec = json.loads((work / "change" / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        result = {"tag": args.tag, "revs": revs, "seed": args.seed,
                  "seconds": args.seconds, "workloads": {}}
        for name, n_pairs in plan:
            pairs = []
            for i in range(n_pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"order": list(order)}
                for side in order:
                    pair[side] = run_once(work / side, name, args.seed, args.seconds)
                    print(name, i, side, json.dumps(pair[side]["metrics"]), flush=True)
                pairs.append(pair)
            result["workloads"][name] = {
                "all_correct": all(p[s]["correct"] for p in pairs for s in SIDES),
                "same_digests": len({json.dumps(p[s].get("digests"), sort_keys=True)
                                     for p in pairs for s in SIDES}) == 1,
                "summary": summarize(pairs, better),
                "pairs": pairs,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = args.out / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
