"""``scripts/bench.py`` turns alternating base/change runs into one verdict per metric."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench", Path(__file__).resolve().parents[1] / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)

BASE = [10.0 + 0.1 * i for i in range(10)]  # median 10.45, q3 - q1 0.45, spread 4 %


def summary(base, change, better="higher", bound=0.25):
    pairs = [{"base": {"metrics": {"m": b}}, "change": {"metrics": {"m": c}}}
             for b, c in zip(base, change)]
    return bench.summarize(pairs, [{"name": "m", "better": better, "bound": bound}])["m"]


@pytest.mark.parametrize("base, change, better, verdict", [
    # the base spreads 82 % of its median, wider than the bound
    ([float(v) for v in range(1, 11)], [float(v) for v in range(1, 11)], "higher", "unresolved"),
    # ... unless every change run beats every base run
    ([float(v) for v in range(1, 11)], [float(v) for v in range(11, 21)], "higher", "better"),
    (BASE, [v - 3.0 for v in BASE], "higher", "worse"),  # -29 %, past the 25 % bound
    (BASE, [v + 3.0 for v in BASE], "lower", "worse"),
    (BASE, [v - 2.0 for v in BASE], "higher", "no worse"),  # -19 %, inside the bound
    (BASE, [v + 1.0 for v in BASE], "higher", "better"),  # 10/10 pairs, +1.0 > 0.45
    (BASE, [v - 1.0 for v in BASE], "lower", "better"),
    # 8/10 pairs is short of nine tenths, however far the medians move
    (BASE, [v + 1.0 for v in BASE[:8]] + [v - 1.0 for v in BASE[8:]], "higher", "no worse"),
    # 10/10 pairs, but the medians differ by less than the base's q3 - q1
    (BASE, [v + 0.2 for v in BASE], "higher", "no worse"),
], ids=["wide-spread", "wide-spread-but-disjoint", "worse-higher", "worse-lower", "within-bound",
        "better-higher", "better-lower", "eight-of-ten", "inside-quartiles"])
def test_verdict(base, change, better, verdict):
    assert summary(base, change, better)["verdict"] == verdict


def test_summary_fields():
    row = summary(BASE, [v + 1.0 for v in BASE])
    assert row["base"]["median"] == pytest.approx(10.45)
    assert row["base_spread"] == pytest.approx(0.45 / 10.45)
    assert row["median_change"] == pytest.approx(1.0 / 10.45)
    assert row["change_better_pairs"] == 10


def test_failed_run_keeps_the_finished_pairs(tmp_path, monkeypatch):
    """A run of the third pair fails: the file holds the first two pairs and the failure."""
    def export(rev, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text((bench.ROOT / "BENCHMARK.json").read_text())

    runs = []

    def run_once(checkout, workload, seed, seconds):
        runs.append(checkout)
        if len(runs) == 5:
            raise bench.RunFailed(1, "Traceback ...\nMemoryError\n")
        metrics = {m: 1.0 + len(runs) for m in ("units_per_s", "setup_s", "peak_rss_mb",
                                                  "cpu_s_per_unit")}
        return {"metrics": metrics, "correct": True, "digests": {"trials.csv": "d"}}

    monkeypatch.setattr(bench, "commit", lambda rev: rev)
    monkeypatch.setattr(bench, "export", export)
    monkeypatch.setattr(bench, "run_once", run_once)
    assert bench.main(["--base", "a", "--change", "b", "--tag", "t", "--out", str(tmp_path),
                       "--workload", "grid_desk=10", "--workload", "grid_dense=10"]) == 1
    result = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert list(result["workloads"]) == ["grid_desk"]
    desk = result["workloads"]["grid_desk"]
    assert len(desk["pairs"]) == 2
    assert desk["failure"] == {"pair": 2, "side": "base", "returncode": 1,
                               "stderr_tail": "Traceback ...\nMemoryError\n"}
    assert desk["summary"]["units_per_s"]["base"]["median"] == 3.5
