"""The ``reduceat`` syndrome, kept as a test oracle for :func:`swldpc.syndrome`.

Every row of a matrix is one run of its ``entries``. The bits of u are
gathered in that order and xor-reduced run by run with
``np.bitwise_xor.reduceat`` at the row starts. ``reduceat`` cannot express
an empty run, so rows without entries are left out of the reduction and
keep bit 0.
"""

from __future__ import annotations

import numpy as np

from swldpc.ldpc import as_bit_array


def syndrome_reference(h, u) -> np.ndarray:
    u = as_bit_array(u, h.n)
    cols, owner = h.entries
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    if not len(starts):
        return np.zeros(h.m, dtype=np.uint8)
    parity = np.bitwise_xor.reduceat(u[cols], starts)
    if len(starts) == h.m:
        return parity
    s = np.zeros(h.m, dtype=np.uint8)
    s[owner[starts]] = parity
    return s
