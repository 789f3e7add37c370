"""Hypothesis strategies and matrix helpers shared by the test modules."""

import numpy as np
from hypothesis import strategies as st

from swldpc import SparseParityMatrix


def rows_of(h):
    """For each row of h, the strictly increasing tuple of its column ids,
    read off the flat index ``h.entries``."""
    cols, owner = h.entries
    flat = tuple(cols.tolist())
    ends = np.cumsum(np.bincount(owner, minlength=h.m)).tolist()
    return tuple(flat[start:end] for start, end in zip([0] + ends, ends))


@st.composite
def mixed_weight_matrices(draw, max_n=40, n=None, weights=None):
    """Matrices whose rows take a few weights, 0 included, in any order, so
    that row blocks hold several rows and interleave down the matrix.
    ``n`` fixes the block length, which is otherwise drawn up to ``max_n``;
    ``weights`` fixes the pool of row weights (each capped at n), which is
    otherwise drawn from 0 to 7."""
    if n is None:
        n = draw(st.integers(1, max_n), label="n")
    m = draw(st.integers(0, n), label="m")
    if weights is None:
        pool = draw(st.lists(st.integers(0, min(n, 7)), min_size=1, max_size=3), label="weights")
    else:
        pool = sorted({min(w, n) for w in weights})
    rows = [
        draw(st.sets(st.integers(0, n - 1), min_size=w, max_size=w))
        for w in draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m), label="row weights")
    ]
    return SparseParityMatrix.from_rows(n, rows)
