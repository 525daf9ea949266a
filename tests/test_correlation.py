import numpy as np
import pytest

from oracles import exact_permutation_pvalue, mc_permutation_pvalue

from fcdist.correlation import pearson_correlation, significance_stars
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
