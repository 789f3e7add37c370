import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from swldpc import (
    LLR_MAX,
    CorrelatedPair,
    CorrelationModel,
    RatePair,
    binary_entropy,
    conditional_entropy,
    hidden_llr,
    joint_entropy,
    sample_pair,
    sw_region_check,
)

# reference values computed independently with math.log2 / math.log
H2_09 = 0.4689955935892811
H2_099 = 0.08079313589591124
LN_9 = 2.1972245773362196


class TestBinaryEntropy:
    def test_known_values(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.9) == pytest.approx(H2_09, abs=1e-15)
        assert binary_entropy(0.99) == pytest.approx(H2_099, abs=1e-15)

    def test_rejects_out_of_range(self):
        for bad in (-0.1, 1.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                binary_entropy(bad)

    @given(st.floats(min_value=1e-12, max_value=1.0 - 1e-12))
    def test_symmetric_and_bounded(self, q):
        h = binary_entropy(q)
        assert 0.0 <= h <= 1.0
        assert h == pytest.approx(binary_entropy(1.0 - q), abs=1e-12)


class TestModel:
    def test_valid_range_is_open(self):
        assert CorrelationModel(0.5).p == 0.5
        for bad in (0.0, 1.0, -0.2, 1.5, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                CorrelationModel(bad)

    def test_entropy_identities(self):
        for k in range(1, 100):
            model = CorrelationModel(k / 100)
            assert conditional_entropy(model) == pytest.approx(
                binary_entropy(model.p), abs=1e-12
            )
            assert joint_entropy(model) == pytest.approx(
                1.0 + binary_entropy(model.p), abs=1e-12
            )


class TestHiddenLlr:
    def test_reference_values(self):
        assert hidden_llr(CorrelationModel(0.5)) == 0.0
        assert hidden_llr(CorrelationModel(0.9)) == pytest.approx(LN_9, abs=1e-15)
        # positive iff sources agree more often than not
        assert hidden_llr(CorrelationModel(0.7)) > 0
        assert hidden_llr(CorrelationModel(0.3)) < 0

    def test_magnitude_matches_log_odds(self):
        for k in range(1, 100):
            p = k / 100
            expected = abs(math.log((1.0 - p) / p))
            assert abs(hidden_llr(CorrelationModel(p))) == pytest.approx(
                expected, abs=1e-12
            )

    def test_antisymmetric_in_complement(self):
        # 1 - p is exact for p >= 0.5, so the antisymmetry must be bitwise
        for p in (0.5, 0.6, 0.75, 0.9, 0.999):
            assert hidden_llr(CorrelationModel(1.0 - p)) == -hidden_llr(
                CorrelationModel(p)
            )

    def test_clamped_near_certainty(self):
        assert hidden_llr(CorrelationModel(1.0 - 1e-14)) == LLR_MAX
        assert hidden_llr(CorrelationModel(1e-14)) == -LLR_MAX


class TestSamplePair:
    def test_deterministic_in_seed(self):
        model = CorrelationModel(0.9)
        a = sample_pair(model, 64, seed=5)
        b = sample_pair(model, 64, seed=5)
        c = sample_pair(model, 64, seed=6)
        assert np.array_equal(a.u1, b.u1)
        assert np.array_equal(a.u2, b.u2)
        assert np.array_equal(a.z, b.z)
        assert not (
            np.array_equal(a.u1, c.u1) and np.array_equal(a.z, c.z)
        )

    def test_xor_structure(self):
        pair = sample_pair(CorrelationModel(0.8), 256, seed=1)
        assert pair.n == 256
        assert np.array_equal(pair.u2, pair.u1 ^ pair.z)
        assert set(np.unique(pair.u1)) <= {0, 1}

    def test_agreement_rate_matches_p(self):
        # binomial with n = 1e6, p = 0.9: 3 sigma is 0.0009
        pair = sample_pair(CorrelationModel(0.9), 1_000_000, seed=7)
        agreement = float(np.mean(pair.u1 == pair.u2))
        assert abs(agreement - 0.9) < 0.0009
        assert abs(float(pair.z.mean()) - 0.1) < 0.0009

    def test_u1_is_roughly_uniform(self):
        pair = sample_pair(CorrelationModel(0.7), 1_000_000, seed=11)
        assert abs(float(pair.u1.mean()) - 0.5) < 0.0015

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            sample_pair(CorrelationModel(0.9), 0, seed=1)


    @pytest.mark.parametrize(
        "n, seed, message",
        [
            (16, 1.5, "seed must be an integer, got 1.5"),
            (16, "1", "seed must be an integer, got '1'"),
            (16.0, 1, "block length must be an integer, got 16.0"),
            (True, 1, "block length must be an integer, got True"),
        ],
    )
    def test_rejects_non_integers(self, n, seed, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            sample_pair(CorrelationModel(0.9), n, seed)

    # n mod 8 of every value and odd n mod 4, so u1 ends inside a word and
    # inside the half word that Generator.integers leaves unused
    PIN_N = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 63, 64, 65, 127, 255, 256, 257, 1023,
             1024, 1025, 2047, 4099]
    PIN_SEEDS = [0, 1, 2, 7, 255, 12345, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**64 + 5,
                 2**80 + 3, -1, 987654321987654321]

    @pytest.mark.parametrize("p", [1e-9, 0.08, 0.5, 0.92, 0.96, 1 - 1e-9])
    def test_draws_what_default_rng_draws(self, p):
        # the raw-stream definition of the docstring, against the Generator
        # calls it replaces: integers for u1, then random for z
        model = CorrelationModel(p)
        for n in self.PIN_N:
            for seed in self.PIN_SEEDS:
                rng = np.random.default_rng(seed % 2**64)
                u1 = rng.integers(0, 2, size=n, dtype=np.uint8)
                z = (rng.random(n) < 1.0 - p).astype(np.uint8)
                pair = sample_pair(model, n, seed)
                for got, want in ((pair.u1, u1), (pair.z, z), (pair.u2, u1 ^ z)):
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (n, seed)

    def test_warm_draw_peaks_below_twice_its_words(self):
        # the ceil(n/8) + n raw words, u1, z and the compare's float
        # buffers, but no full-length copy of the z words
        n = 16384
        model = CorrelationModel(0.96)
        sample_pair(model, n, 1)
        tracemalloc.start()
        try:
            for seed in range(3):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                pair = sample_pair(model, n, seed)
                assert tracemalloc.get_traced_memory()[1] - start <= 2 * (n // 8 + n) * 8
                del pair
        finally:
            tracemalloc.stop()

    def test_numpy_integers(self):
        model = CorrelationModel(0.9)
        got = sample_pair(model, np.int64(16), np.uint64(2**63 + 5))
        want = sample_pair(model, 16, 2**63 + 5)
        assert got.u1.tobytes() == want.u1.tobytes() and got.z.tobytes() == want.z.tobytes()


class TestRealNumbers:
    """Probabilities and rates take any finite real number, numpy's
    scalars included, and hold it as a float."""

    def test_numpy_scalars(self):
        p = np.float32(0.9)
        model = CorrelationModel(p)
        assert type(model.p) is float and model.p == float(p)
        assert hidden_llr(model) == hidden_llr(CorrelationModel(float(p)))
        q = binary_entropy(np.float32(0.5))
        assert type(q) is float and q == 1.0
        assert binary_entropy(np.float64(0.9)) == H2_09
        rates = RatePair(np.float32(0.5), np.int64(1))
        assert (rates.r1, rates.r2) == (0.5, 1.0)
        assert type(rates.r1) is float and type(rates.r2) is float
        assert sw_region_check(CorrelationModel(0.9), rates) == sw_region_check(
            CorrelationModel(0.9), RatePair(0.5, 1.0)
        )

    @pytest.mark.parametrize(
        "bad", [np.float32("nan"), np.float64("inf"), "0.9", None, True, False]
    )
    def test_rejects_what_is_not_a_finite_number(self, bad):
        with pytest.raises(ValueError, match="correlation parameter must be a finite number"):
            CorrelationModel(bad)
        with pytest.raises(ValueError, match="probability must be a finite number"):
            binary_entropy(bad)
        with pytest.raises(ValueError, match="rates must be finite numbers"):
            RatePair(0.5, bad)


class TestModelArgument:
    """Every function of a model refuses anything but a CorrelationModel,
    a bare probability included, naming the argument."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda model: sample_pair(model, 8, 1),
            hidden_llr,
            conditional_entropy,
            joint_entropy,
            lambda model: sw_region_check(model, RatePair(1, 0.5)),
        ],
        ids=["sample_pair", "hidden_llr", "conditional_entropy", "joint_entropy",
             "sw_region_check"],
    )
    def test_rejects_a_bare_probability(self, call):
        with pytest.raises(ValueError, match=r"^model must be a CorrelationModel, got 0\.9$"):
            call(0.9)


class TestCorrelatedPair:
    def test_rejects_an_empty_pair(self):
        empty = np.zeros(0, dtype=np.uint8)
        with pytest.raises(ValueError, match="correlated pair must contain at least one bit"):
            CorrelatedPair(u1=empty, u2=empty, z=empty)

    def test_validates_xor_relation(self):
        u1 = np.array([0, 1, 1], dtype=np.uint8)
        z = np.array([1, 0, 1], dtype=np.uint8)
        pair = CorrelatedPair(u1=u1, u2=u1 ^ z, z=z)
        assert pair.n == 3
        with pytest.raises(ValueError):
            CorrelatedPair(u1=u1, u2=u1, z=z)
        with pytest.raises(ValueError):
            CorrelatedPair(u1=u1, u2=(u1 ^ z)[:2], z=z)


class TestRegion:
    def test_corner_point_is_on_boundary(self):
        model = CorrelationModel(0.9)
        check = sw_region_check(model, RatePair(1.0, binary_entropy(0.9)))
        assert check.admissible
        assert check.r2_slack == pytest.approx(0.0, abs=1e-15)
        assert check.sum_slack == pytest.approx(0.0, abs=1e-15)

    def test_sum_rate_violation(self):
        # r1 + r2 = 1.46 < 1 + h2(0.9) = 1.4690
        check = sw_region_check(CorrelationModel(0.9), RatePair(0.73, 0.73))
        assert not check.admissible
        assert check.sum_slack == pytest.approx(-0.008995593589281148, abs=1e-15)
        assert check.r1_slack > 0 and check.r2_slack > 0

    def test_working_point(self):
        check = sw_region_check(CorrelationModel(0.96), RatePair(1.0, 0.5))
        assert check.admissible
        assert check.sum_slack == pytest.approx(0.2577078109175851, abs=1e-15)

    def test_per_source_violation(self):
        check = sw_region_check(CorrelationModel(0.9), RatePair(0.4, 1.0))
        assert not check.admissible
        assert check.r1_slack < 0

    def test_bools_are_not_rates(self):
        # a bool is not read as the rate 0 or 1, so no region check runs on it
        message = re.escape("rates must be finite numbers, got (True, 0.5)")
        with pytest.raises(ValueError, match=message):
            RatePair(True, 0.5)
        with pytest.raises(ValueError, match="rates must be finite numbers"):
            sw_region_check(CorrelationModel(0.9), RatePair(True, True))

    def test_rate_pair_rejects_negative(self):
        with pytest.raises(ValueError):
            RatePair(-0.1, 0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rate_pair_rejects_non_finite(self, bad):
        for rates in ((bad, 0.5), (0.5, bad)):
            with pytest.raises(ValueError, match="rates must be finite numbers"):
                RatePair(*rates)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.5),
    )
    def test_admissibility_is_monotone_in_rates(self, p, r1, r2, d1, d2):
        model = CorrelationModel(p)
        if sw_region_check(model, RatePair(r1, r2)).admissible:
            assert sw_region_check(model, RatePair(r1 + d1, r2 + d2)).admissible
