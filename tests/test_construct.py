"""Differential tests: ``gallager_construct`` against the sort-and-diff
rejection loop in ``_construct_reference``.

Both draw the same permutations and accept the same ones, so for every
argument the library must return an equal matrix that writes the same alist
text, or raise the same error with the same message.
"""

import pytest
from hypothesis import given, settings, strategies as st

from _construct_reference import gallager_construct_reference
from swldpc import ConstructionError, gallager_construct, save_alist


def outcome(construct, *args, **kwargs):
    """("ok", matrix, alist text) or ("error", type, message) for one call."""
    try:
        h = construct(*args, **kwargs)
    except (ValueError, ConstructionError) as err:
        return ("error", type(err), str(err))
    return ("ok", h, save_alist(h))


def assert_same(*args, **kwargs):
    expected = outcome(gallager_construct_reference, *args, **kwargs)
    assert outcome(gallager_construct, *args, **kwargs) == expected, (args, kwargs)
    return expected


GRID = [
    (n, dv, dc)
    for dv, dc in ((2, 4), (3, 6), (3, 9))
    for n in (dc, 2 * dc, 6 * dc, 48 * dc)
]


class TestMatchesReference:
    @pytest.mark.parametrize("n, dv, dc", GRID)
    @pytest.mark.parametrize("seed", [0, 1, 2024, -3])
    def test_grid(self, n, dv, dc, seed):
        assert_same(n, dv, dc, seed)

    @pytest.mark.parametrize("n, dv, dc", GRID)
    def test_one_draw(self, n, dv, dc):
        for seed in range(8):
            assert_same(n, dv, dc, seed, max_retries=1)

    @pytest.mark.parametrize(
        "args",
        [(6, 5, 6, 0, 1), (9, 3, 9, 0, 2000), (64, 4, 8, 5, 2000), (12, 3, 6, 0, 0)],
        ids=["n=dc-one-draw", "n=dc-(3,9)", "(4,8)", "no-draws"],
    )
    def test_exhausted_retries(self, args):
        n, dv, dc, seed, max_retries = args
        expected = assert_same(n, dv, dc, seed, max_retries=max_retries)
        assert expected[:2] == ("error", ConstructionError)
        assert f"within {max_retries} permutation draws" in expected[2]

    def test_n_equals_dc_can_succeed(self):
        # every check holds every variable once: rare, but found for (3,6)
        assert assert_same(6, 3, 6, 0)[0] == "ok"

    def test_benchmark_size(self):
        # the (3,6) code of the n = 16384 benchmark: about 200 draws
        assert assert_same(16384, 3, 6, 2024)[0] == "ok"

    @pytest.mark.parametrize(
        "n, dv, dc", [(12, 1, 6), (12, 6, 3), (12, 3, 3), (13, 3, 6), (4, 3, 6), (0, 2, 4)]
    )
    def test_rejects_bad_parameters(self, n, dv, dc):
        assert assert_same(n, dv, dc, 0)[:2] == ("error", ValueError)

    @settings(max_examples=150, deadline=None)
    @given(
        dv=st.integers(2, 5),
        extra=st.integers(1, 2),
        blocks=st.integers(1, 12),
        seed=st.integers(-(2**70), 2**70),
        max_retries=st.integers(1, 30),
    )
    def test_property(self, dv, extra, blocks, seed, max_retries):
        # dc is dv + 1 or 2 dv, and n a multiple of dc
        dc = dv + 1 if extra == 1 else 2 * dv
        assert_same(blocks * dc, dv, dc, seed, max_retries=max_retries)
