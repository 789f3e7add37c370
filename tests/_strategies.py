"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from swldpc import SparseParityMatrix


@st.composite
def mixed_weight_matrices(draw, max_n=40, n=None):
    """Matrices whose rows take a few weights, 0 included, in any order, so
    that row blocks hold several rows and interleave down the matrix.
    ``n`` fixes the block length, which is otherwise drawn up to ``max_n``."""
    if n is None:
        n = draw(st.integers(1, max_n), label="n")
    m = draw(st.integers(0, n), label="m")
    pool = draw(st.lists(st.integers(0, min(n, 7)), min_size=1, max_size=3), label="weights")
    rows = [
        draw(st.sets(st.integers(0, n - 1), min_size=w, max_size=w))
        for w in draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m), label="row weights")
    ]
    return SparseParityMatrix.from_rows(n, rows)
