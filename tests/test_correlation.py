import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import exact_permutation_pvalue, mc_permutation_pvalue

from fcdist.correlation import (pearson_correlation, pearson_p, regularized_beta,
                                significance_stars)
from fcdist.errors import ConstantSeries, FcdistError, InvalidData, TooFewPoints


class TestPearson:
    def test_exact_positive_linearity(self):
        x = np.arange(1.0, 9.0)
        res = pearson_correlation(x, 2 * x + 1)
        assert res.r == pytest.approx(1.0, abs=1e-12)
        assert res.p == pytest.approx(0.0, abs=1e-12)
        assert res.stars == "***"

    def test_exact_negative_linearity(self):
        x = np.arange(1.0, 9.0)
        res = pearson_correlation(x, -x)
        assert res.r == pytest.approx(-1.0, abs=1e-12)
        assert res.p == pytest.approx(0.0, abs=1e-12)

    def test_worked_example(self):
        # direct evaluation: r = 10 / sqrt(148), t = 2.5 exactly at 3 dof
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        y = [2.0, 1.0, 4.0, 3.0, 6.0]
        res = pearson_correlation(x, y)
        assert res.r == pytest.approx(10.0 / np.sqrt(148.0), abs=1e-12)
        assert res.p == pytest.approx(0.08770664700806556, abs=1e-10)
        # exact permutation null at n = 5 is coarse (atoms of 1/60): the
        # enumerated p is 12/120 = 0.1, within 0.015 of the t-based value
        p_exact = exact_permutation_pvalue(x, y)
        assert p_exact == pytest.approx(0.1, abs=1e-12)
        assert abs(res.p - p_exact) < 0.015

    def test_matches_permutation_oracle_n20(self):
        rng = np.random.default_rng(3000)
        worst = 0.0
        for case in range(100):
            x = rng.standard_normal(20)
            y = rng.standard_normal(20) + 0.25 * x * (case % 4)
            res = pearson_correlation(x, y)
            p_mc = mc_permutation_pvalue(x, y, n_draws=60_000, seed=77_000 + case)
            worst = max(worst, abs(res.p - p_mc))
        assert worst < 0.01

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_non_finite_is_invalid_data(self, bad, side):
        x, y = np.arange(1.0, 9.0), np.array([2.0, 1.0, 4.0, 3.0, 6.0, 5.0, 8.0, 7.0])
        (x if side == "x" else y)[3] = bad
        with pytest.raises(InvalidData, match="finite") as exc:
            pearson_correlation(x, y)
        assert isinstance(exc.value, FcdistError)

    def test_affine_invariance(self, rng):
        x = rng.standard_normal(40)
        y = rng.standard_normal(40)
        base = pearson_correlation(x, y)
        shifted = pearson_correlation(3.0 * x + 5.0, 0.25 * y - 2.0)
        assert shifted.r == pytest.approx(base.r, abs=1e-12)
        flipped = pearson_correlation(-x, y)
        assert flipped.r == pytest.approx(-base.r, abs=1e-12)

    def test_symmetry_in_arguments(self, rng):
        x = rng.standard_normal(25)
        y = rng.standard_normal(25)
        assert pearson_correlation(x, y).p == pytest.approx(
            pearson_correlation(y, x).p, abs=1e-15
        )

    def test_p_monotone_in_r(self, rng):
        # exact-r construction: y = rho x_hat + sqrt(1 - rho^2) z_hat with
        # x_hat, z_hat sample-orthonormal, so the sample correlation is rho
        n = 24
        x = rng.standard_normal(n)
        z = rng.standard_normal(n)
        xh = (x - x.mean()) / np.linalg.norm(x - x.mean())
        z = z - z.mean()
        z -= (z @ xh) * xh
        zh = z / np.linalg.norm(z)
        prev_p = 1.1
        for rho in (0.05, 0.2, 0.4, 0.6, 0.8, 0.95):
            y = rho * xh + np.sqrt(1 - rho**2) * zh
            res = pearson_correlation(xh, y)
            assert res.r == pytest.approx(rho, abs=1e-9)
            assert res.p < prev_p
            prev_p = res.p

    def test_constant_series(self):
        with pytest.raises(ConstantSeries):
            pearson_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ConstantSeries):
            pearson_correlation([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 2.0**1000, 2.0**-1000])
    def test_extreme_scale(self, scale):
        # Squares of these deviations overflow or underflow a float.
        x, y = [1.0, 2.0, 3.5], [1.0, 3.0, 2.0]
        unit = pearson_correlation(x, y)
        res = pearson_correlation([v * scale for v in x], [v * scale for v in y])
        assert res.r == pytest.approx(unit.r, rel=1e-15)
        assert res.p == pytest.approx(unit.p, rel=1e-14)
        if math.frexp(scale)[0] == 0.5:  # a power of two: the same bits
            assert (res.r, res.p) == (unit.r, unit.p)

    def test_values_near_the_float_limit(self):
        # Their sum overflows a float, so an unscaled mean would be inf.
        res = pearson_correlation([1e308, 1.5e308, 1.7e308], [1.0, 2.0, 3.0])
        assert res.r == pytest.approx(pearson_correlation([1.0, 1.5, 1.7], [1, 2, 3]).r,
                                      rel=1e-15)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            pearson_correlation([1.0, 2.0], [3.0, 4.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson_correlation([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_result_fields(self, rng):
        x = rng.standard_normal(30)
        y = x + rng.standard_normal(30)
        res = pearson_correlation(x, y)
        assert -1.0 <= res.r <= 1.0
        assert 0.0 <= res.p <= 1.0
        assert res.n == 30
        assert res.stars == significance_stars(res.p)


class TestPValue:
    @pytest.mark.parametrize("r", [1e-4, 0.05, 0.3, 0.7, 0.99, -0.999999, 0.999999])
    def test_closed_form_t_tails(self, r):
        # the two-sided t tail in closed form at 1 and 2 degrees of freedom
        for n, tail in ((3, lambda t: 2.0 / math.pi * math.atan(1.0 / t)),
                        (4, lambda t: 2.0 / (math.sqrt(2.0 + t * t)
                                             * (math.sqrt(2.0 + t * t) + t)))):
            t = abs(r) * math.sqrt((n - 2) / (1.0 - r * r))
            assert pearson_p(r, n) == pytest.approx(tail(t), rel=1e-12, abs=0.0)

    # scipy.special.betainc(df / 2, 0.5, df / (df + t^2)), t^2 = df r^2 / (1 - r^2)
    @pytest.mark.parametrize("n, r, p", [
        (1000, 0.001, 0.9748044146275611),
        (1000, 0.05, 0.11407259555107685),
        (1000, 0.1, 0.001544116107401087),
        (1000, 0.3, 3.037483380351177e-22),
        (5000, 0.001, 0.943642079284815),
        (5000, 0.05, 0.00040491100765617093),
        (5000, 0.1, 1.3698133649235042e-12),
        (5000, 0.3, 1.6556347079538108e-104),
    ])
    def test_large_n_reference_values(self, n, r, p):
        assert pearson_p(r, n) == pytest.approx(p, rel=1e-10, abs=0.0)
        assert pearson_p(-r, n) == pearson_p(r, n)

    def test_bounds(self):
        assert pearson_p(0.0, 10) == 1.0
        assert pearson_p(1.0, 10) == pearson_p(-1.0, 10) == 0.0
        for x in (0.0, -0.5):
            assert regularized_beta(2.0, 3.0, x) == 0.0

    def test_import_loads_no_scipy(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = ("import sys, fcdist; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestStars:
    @pytest.mark.parametrize("p,label", [
        (0.0005, "***"),
        (0.005, "**"),
        (0.03, "*"),
        (0.2, ""),
        (0.05, ""),
        (0.01, "*"),
        (0.001, "**"),
        (0.0, "***"),
        (1.0, ""),
    ])
    def test_thresholds(self, p, label):
        assert significance_stars(p) == label

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            significance_stars(1.5)
