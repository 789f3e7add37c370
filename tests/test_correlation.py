import math

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


class TestCorrelatedPair:
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
