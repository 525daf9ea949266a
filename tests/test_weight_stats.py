import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import naive_entropy, naive_kurtosis, naive_mean, naive_skewness

from fcdist.errors import FcdistError, InvalidData
from fcdist.weight_stats import (
    MAX_BINS,
    kurtosis,
    shannon_entropy,
    skewness,
    summarize,
    upper_triangle_weights,
)

weight_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=3, max_size=60
).filter(lambda xs: max(xs) - min(xs) > 1e-6)


class TestUpperTriangle:
    def test_three_by_three_order(self):
        m = np.array([[0.0, 0.1, 0.2], [0.1, 0.0, 0.3], [0.2, 0.3, 0.0]])
        w = upper_triangle_weights(m)
        assert w.ndim == 1
        assert np.array_equal(w, [0.1, 0.2, 0.3])

    @pytest.mark.parametrize("n,expected", [(19, 171), (128, 8128), (2, 1)])
    def test_pair_counts(self, n, expected, rng):
        m = rng.random((n, n))
        m = np.clip((m + m.T) / 2, 0, 1)
        np.fill_diagonal(m, 0.0)
        assert upper_triangle_weights(m).shape == (expected,)

    def test_two_by_two(self):
        m = np.array([[1.0, 0.4], [0.4, 1.0]])
        assert np.array_equal(upper_triangle_weights(m), [0.4])

    def test_not_symmetric(self):
        m = np.array([[0.0, 0.5], [0.2, 0.0]])
        with pytest.raises(InvalidData, match="matrix asymmetric by 0.3"):
            upper_triangle_weights(m)

    @pytest.mark.parametrize("m", [np.zeros((2, 3)), np.zeros((1, 1))], ids=["2x3", "1x1"])
    def test_needs_square_matrix_of_two(self, m):
        with pytest.raises(InvalidData, match="need a square matrix with n >= 2"):
            upper_triangle_weights(m)

    def test_range_enforced(self):
        m = np.array([[0.0, 1.5], [1.5, 0.0]])
        with pytest.raises(InvalidData, match=r"weights span \[1.5, 1.5\], outside \[0, 1\]"):
            upper_triangle_weights(m)


class TestSkewness:
    def test_symmetric_sample_zero(self):
        assert skewness([0.2, 0.5, 0.8]) == pytest.approx(0.0, abs=1e-12)

    def test_three_zeros_one_one(self):
        # m3 = 0.09375, sigma^3 = 0.1875^1.5; ratio = 2/sqrt(3)
        assert skewness([0.0, 0.0, 0.0, 1.0]) == pytest.approx(1.1547, abs=1e-4)
        assert skewness([0.0, 0.0, 0.0, 1.0]) == pytest.approx(2 / np.sqrt(3))

    def test_exponential_shape_positive(self):
        rng = np.random.default_rng(5)
        w = np.clip(rng.exponential(0.1, size=100_000), 0.0, 1.0)
        assert skewness(w) > 0

    def test_degenerate(self):
        with pytest.raises(InvalidData, match="zero-variance"):
            skewness([0.5, 0.5, 0.5])

    def test_affine_invariance_and_flip(self, rng):
        x = rng.random(200)
        assert skewness(0.3 * x + 0.2) == pytest.approx(skewness(x), abs=1e-9)
        assert skewness(-x) == pytest.approx(-skewness(x), abs=1e-9)


class TestKurtosis:
    def test_two_point_sample(self):
        assert kurtosis([0.2, 0.8] * 10) == pytest.approx(1.0, abs=1e-12)

    def test_normal_reference(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(1_000_000)
        assert kurtosis(x) == pytest.approx(3.0, abs=0.05)

    def test_uniform_reference(self):
        rng = np.random.default_rng(7)
        x = rng.random(1_000_000)
        assert kurtosis(x) == pytest.approx(1.8, abs=0.02)

    def test_degenerate(self):
        with pytest.raises(InvalidData, match="zero-variance"):
            kurtosis([0.1, 0.1])

    @given(weight_lists)
    @settings(max_examples=200, deadline=None)
    def test_moment_inequality(self, xs):
        # kurtosis >= skewness^2 + 1 for any sample with positive variance
        k = kurtosis(xs)
        s = skewness(xs)
        assert k >= s * s + 1 - 1e-9


class TestShannonEntropy:
    def test_single_bin_zero(self):
        assert shannon_entropy([0.505, 0.501, 0.509]) == 0.0

    def test_uniform_histogram_one(self):
        w = (np.arange(100) + 0.5) / 100.0
        assert shannon_entropy(w) == pytest.approx(1.0, abs=1e-12)

    def test_two_bins_closed_form(self):
        w = [0.105] * 10 + [0.905] * 10
        assert shannon_entropy(w) == pytest.approx(1.0 / np.log2(100), abs=1e-12)
        assert shannon_entropy(w) == pytest.approx(0.15051, abs=1e-5)

    def test_bin_count_limit(self):
        # The histogram is allocated whole: 10**15 bins would ask for petabytes.
        w = [0.1, 0.5, 0.9]
        assert shannon_entropy(w, MAX_BINS) == pytest.approx(np.log2(3) / 20)
        for n_bins in (1, MAX_BINS + 1, 10**15):
            with pytest.raises(ValueError, match="n_bins must be >= 2 and <= 1048576"):
                shannon_entropy(w, n_bins)

    def test_empty_vector(self):
        with pytest.raises(InvalidData, match="need at least one value"):
            shannon_entropy([])

    def test_range_violation(self):
        with pytest.raises(InvalidData, match="outside"):
            shannon_entropy([0.5, 1.2])
        with pytest.raises(InvalidData, match="outside"):
            shannon_entropy([-0.1, 0.5])

    def test_weight_one_in_last_bin(self):
        # 1.0 lands in the closed last bin; counts sum preserved
        assert shannon_entropy([1.0, 1.0, 0.995]) == 0.0

    def test_permutation_invariance(self, rng):
        w = rng.random(50)
        p = rng.permutation(w)
        assert shannon_entropy(w) == shannon_entropy(p)

    def test_within_bin_perturbation_bit_identical(self):
        w = np.array([0.111, 0.112, 0.555, 0.556, 0.999])
        v = np.array([0.115, 0.118, 0.551, 0.559, 0.991])  # same bins
        assert shannon_entropy(w) == shannon_entropy(v)

    def test_merging_bins_never_increases(self, rng):
        # moving all mass from one occupied bin into another occupied bin
        for trial in range(30):
            w = rng.integers(0, 100, size=40) / 100.0 + 0.005
            bins = np.unique((w * 100).astype(int))
            if len(bins) < 2:
                continue
            src, dst = rng.choice(bins, size=2, replace=False)
            merged = w.copy()
            mask = (merged * 100).astype(int) == src
            merged[mask] = dst / 100.0 + 0.005
            assert shannon_entropy(merged) <= shannon_entropy(w) + 1e-12

    @given(weight_lists)
    @example([0.7, 0.695, 0.1])  # 0.7 * 100 == 70.0: bin 70, not 69
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_and_in_range(self, xs):
        se = shannon_entropy(xs)
        assert 0.0 <= se <= 1.0
        assert se == pytest.approx(naive_entropy(xs), abs=1e-10)


class TestSummarize:
    def test_constant_vector_null_fields(self):
        s = summarize([0.5, 0.5, 0.5, 0.5])
        assert s.mcw == pytest.approx(0.5)
        assert s.entropy == 0.0
        assert s.skewness is None
        assert s.kurtosis is None
        assert s.degenerate

    def test_one_value_is_invalid_data(self):
        # Zero spread gives None moments, but one value is too few for any summary.
        with pytest.raises(InvalidData, match="need at least two values"):
            summarize([0.5])

    def test_mcw_matches_naive(self, rng):
        w = rng.random(171)
        assert summarize(w).mcw == pytest.approx(naive_mean(w), abs=1e-14)

    def test_composition(self, rng):
        w = rng.random(171)
        s = summarize(w)
        assert s.skewness == skewness(w)
        assert s.kurtosis == kurtosis(w)
        assert s.entropy == shannon_entropy(w)
        assert s.n_pairs == 171

    def test_weight_vector_input(self, rng):
        m = rng.random((6, 6))
        m = np.clip((m + m.T) / 2, 0, 1)
        s = summarize(upper_triangle_weights(m))
        assert s.n_pairs == 15


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("stat", [skewness, kurtosis, shannon_entropy, summarize,
                                  upper_triangle_weights], ids=lambda f: f.__name__)
def test_non_finite_is_invalid_data(stat, bad):
    m = np.array([[1.0, 0.2, 0.4], [0.2, 1.0, 0.6], [0.4, 0.6, 1.0]])
    m[0, 1] = m[1, 0] = bad
    x = m if stat is upper_triangle_weights else m[np.triu_indices(3, k=1)]
    with pytest.raises(InvalidData, match="finite") as exc:
        stat(x)
    assert isinstance(exc.value, FcdistError)


class TestOracleEquivalence:
    def test_moments_match_oracles(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            n = int(rng.integers(5, 300))
            w = rng.random(n)
            assert float(np.mean(w)) == pytest.approx(naive_mean(w), abs=1e-10)
            assert skewness(w) == pytest.approx(naive_skewness(w), abs=1e-10)
            assert kurtosis(w) == pytest.approx(naive_kurtosis(w), abs=1e-10)
            assert shannon_entropy(w) == pytest.approx(naive_entropy(w), abs=1e-10)
