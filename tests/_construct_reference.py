"""Reference Gallager construction, kept as a test oracle.

This is the rejection loop that :func:`swldpc.ldpc.gallager_construct`
replaced: it sorts the (check, variable) keys of every permutation draw and
rejects the draw when two keys are equal. The library tests each draw on
its socket table instead and sorts only the accepted one; the differential
tests require both to return equal matrices, or to raise the same error,
for the same arguments.
"""

from __future__ import annotations

import numpy as np

from swldpc.ldpc import ConstructionError, SparseParityMatrix


def gallager_construct_reference(
    n: int, dv: int, dc: int, seed: int, max_retries: int = 2000
) -> SparseParityMatrix:
    """Random (dv, dc)-regular parity-check matrix, by sort-and-diff rejection."""
    if dv < 2:
        raise ValueError(f"variable degree must be at least 2, got dv={dv}")
    if dc <= dv:
        raise ValueError(f"check degree must exceed variable degree, got dv={dv}, dc={dc}")
    if n < dc:
        raise ValueError(f"block length must be at least dc, got n={n}, dc={dc}")
    if (n * dv) % dc != 0:
        raise ValueError(f"n*dv must be divisible by dc, got n={n}, dv={dv}, dc={dc}")
    m = (n * dv) // dc
    rng = np.random.default_rng(int(seed) % 2**64)
    var_of_socket = np.repeat(np.arange(n, dtype=np.int64), dv)
    for _ in range(max_retries):
        check_of_socket = rng.permutation(n * dv) // dc
        keys = np.sort(check_of_socket * n + var_of_socket)
        if np.any(np.diff(keys) == 0):
            continue  # parallel edge, reject the whole permutation
        # keys are sorted and distinct, so every row is strictly increasing
        return SparseParityMatrix(n, m, (keys % n, keys // n))
    raise ConstructionError(
        f"could not build a parallel-edge-free ({dv},{dc})-regular matrix with "
        f"n={n} within {max_retries} permutation draws"
    )
