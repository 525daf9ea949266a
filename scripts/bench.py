#!/usr/bin/env python3
"""Compare two commits on the benchmark in alternating pairs; write BENCH_<tag>.json.

Each commit's committed files are exported (``git archive``) into a fresh
directory, as the benchmark is run on a clean checkout; the two paths have one
length, since the heap layout, and with it ``peak_rss_mb``, follows the path.
Every pair runs the unchanged ``perfbench/run.py --trace 0`` once in each
export, the base first on even pairs and the change first on odd ones, so that
drift of the machine falls on both sides. Run from the root of the repository:

    python3 scripts/bench.py --base HEAD~1 --change HEAD --tag blas_threads \\
        --workload grid_dense --workload grid_desk --workload normative_rt

The file holds each run's end-to-end metrics, digests and ``manifest`` line
(nproc, BLAS, thread environment) and, per workload and metric, the median
and quartiles of each side, the base's spread ((q3 - q1) / median), the median
change, the pairs the change won and a verdict against the metric's bound
(``unresolved``, ``worse``, ``better`` or ``no worse``; see ``verdict``).
A failed run ends the series: the file then holds the pairs finished so far
and, under ``failure``, the failed run's pair, side, exit code and stderr
tail, and the script exits 1.
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


class RunFailed(RuntimeError):
    """A run that exited non-zero or printed no result line."""

    def __init__(self, returncode: int, stderr: str):
        super().__init__(f"exit {returncode}:\n{stderr}")
        self.record = {"returncode": returncode, "stderr_tail": stderr[-2000:]}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its result line, digests and manifest."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(proc.returncode, proc.stderr)
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


def verdict(row: dict, values: dict[str, list[float]], sign: int, bound: float) -> str:
    """The change against the base on one metric, by the first rule that holds.

    ``unresolved``: the base's spread exceeds ``bound`` and not every change
    run beats every base run; ``worse``: the change's median is worse by more
    than ``bound``; ``better``: the change wins at least nine tenths of the
    pairs and its median is better by more than the base's q3 - q1; else
    ``no worse``.
    """
    base = row["base"]
    gain = sign * (row["change"]["median"] - base["median"])
    if (row["base_spread"] > bound
            and not min(sign * c for c in values["change"]) > max(sign * b for b in values["base"])):
        return "unresolved"
    if gain < -bound * base["median"]:
        return "worse"
    if row["change_better_pairs"] >= 0.9 * len(values["base"]) and gain > base["q3"] - base["q1"]:
        return "better"
    return "no worse"


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric of ``end_to_end`` (BENCHMARK.json entries): quartiles of each side,
    the base's spread, the median change, the pairs won by the change and the verdict."""
    out = {}
    for metric in end_to_end:
        values = {side: [p[side]["metrics"][metric["name"]] for p in pairs] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        base = stats["base"]
        sign = 1 if metric["better"] == "higher" else -1
        row = {
            **stats,
            "base_spread": (base["q3"] - base["q1"]) / base["median"],
            "median_change": stats["change"]["median"] / base["median"] - 1,
            "change_better_pairs": sum(sign * (c - b) > 0
                                       for b, c in zip(values["base"], values["change"])),
        }
        row["verdict"] = verdict(row, values, sign, metric["bound"])
        out[metric["name"]] = row
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


def commit(rev: str) -> str:
    """The full hash of the commit that ``rev`` names."""
    return subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                          check=True, capture_output=True, text=True).stdout.strip()


def run_pairs(checkouts: dict[str, Path], name: str, n_pairs: int, args: argparse.Namespace
              ) -> tuple[list[dict], dict | None]:
    """Up to ``n_pairs`` pairs of runs of workload ``name``, and the first failed run
    (its pair, side, exit code and stderr tail), at which they stop; None if none failed."""
    pairs = []
    for i in range(n_pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"order": list(order)}
        for side in order:
            try:
                pair[side] = run_once(checkouts[side], name, args.seed, args.seconds)
            except RunFailed as err:
                print(name, i, side, "failed:", err, file=sys.stderr, flush=True)
                return pairs, {"pair": i, "side": side, **err.record}
            print(name, i, side, json.dumps(pair[side]["metrics"]), flush=True)
        pairs.append(pair)
    return pairs, None


def main(argv=None) -> int:
    """Write BENCH_<tag>.json; on a failed run, with the pairs finished so far and the
    failure, and return 1."""
    args = parse_args(argv)
    revs = {side: commit(getattr(args, side)) for side in SIDES}
    plan = [(name, int(pairs or 10)) for name, _, pairs in
            (spec.partition("=") for spec in args.workload)]
    failure = None
    work = Path(tempfile.mkdtemp(prefix="fcdist-bench-"))
    # Paths of one length: on 2 vCPU, exports of one commit to .../base and .../change
    # read grid_desk peak_rss_mb 116.9 and 119.3 MB (10 pairs), to .../0 and .../1 the same.
    checkouts = {side: work / str(i) for i, side in enumerate(SIDES)}
    try:
        for side in SIDES:
            export(revs[side], checkouts[side])
        spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
        result = {"tag": args.tag, "revs": revs, "seed": args.seed,
                  "seconds": args.seconds, "workloads": {}}
        for name, n_pairs in plan:
            pairs, failure = run_pairs(checkouts, name, n_pairs, args)
            summary = summarize(pairs, spec["end_to_end"]) if pairs else {}
            for metric, row in summary.items():
                print(name, metric, row["verdict"], f"median {row['median_change']:+.1%},",
                      f"won {row['change_better_pairs']}/{len(pairs)},",
                      f"base spread {row['base_spread']:.0%}", flush=True)
            result["workloads"][name] = {
                "all_correct": all(p[s]["correct"] for p in pairs for s in SIDES),
                "same_digests": len({json.dumps(p[s].get("digests"), sort_keys=True)
                                     for p in pairs for s in SIDES}) <= 1,
                "summary": summary,
                "pairs": pairs,
                "failure": failure,
            }
            if failure:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = args.out / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {path}")
    return 1 if failure else 0


if __name__ == "__main__":
    sys.exit(main())
