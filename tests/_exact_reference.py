"""Exact oracles that judge the decoder on small graphs, and a code's rank.

``brute_force_marginals`` enumerates every pair of syndrome-consistent
words, weighs each pair by the correlation model, and reports exact
per-bit posteriors and the maximum-weight pair. ``is_cycle_free`` tells
whether a joint graph, given by the edge lists of ``_decoder_reference``,
is a forest, where sum-product posteriors are exact marginals, so that
the two may be compared at all. ``gf2_rank`` gives a code's true rate,
gf2_rank(h)/n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from swldpc import CorrelationModel, SparseParityMatrix, as_bit_array


@dataclass(frozen=True, eq=False)
class BruteForceResult:
    """Exact posteriors from exhaustive enumeration.

    Marginal arrays have shape (n, 2) with columns [P(bit=0), P(bit=1)].
    """

    u1_marginals: np.ndarray
    u2_marginals: np.ndarray
    map_u1: np.ndarray
    map_u2: np.ndarray

    def posterior_llrs(self) -> np.ndarray:
        """ln(P0/P1) for the u1 block then the u2 block, length 2n."""
        stacked = np.vstack([self.u1_marginals, self.u2_marginals])
        with np.errstate(divide="ignore"):
            return np.log(stacked[:, 0]) - np.log(stacked[:, 1])


_BRUTE_FORCE_MAX_N = 16
_PAIR_BLOCK_CELLS = 1 << 22  # pair-weight matrix is processed in blocks this big


def brute_force_marginals(
    h1: SparseParityMatrix,
    h2: SparseParityMatrix,
    model: CorrelationModel,
    s1,
    s2,
) -> BruteForceResult:
    """Exact joint posterior over all syndrome-consistent source pairs.

    Every pair (u1, u2) with H1 u1 = s1 and H2 u2 = s2 gets weight
    p^(n-d) (1-p)^d where d is the Hamming distance between the words.
    Ties for the maximum-weight pair break toward the lexicographically
    smallest (u1, u2), reading each word most significant bit first.

    Only intended for small blocks; n is capped at 16.
    """
    if h1.n != h2.n:
        raise ValueError(f"codes disagree on block length: {h1.n} vs {h2.n}")
    n = h1.n
    if n > _BRUTE_FORCE_MAX_N:
        raise ValueError(f"exhaustive enumeration supports n <= {_BRUTE_FORCE_MAX_N}, got {n}")
    s1 = as_bit_array(s1, h1.m)
    s2 = as_bit_array(s2, h2.m)

    # Enumerate words in integer order with MSB-first bit layout, so row
    # order coincides with lexicographic order on the bit vectors.
    words = (
        (np.arange(2**n, dtype=np.int64)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    ).astype(np.uint8)
    cand1 = words[_syndrome_consistent(words, h1, s1)]
    cand2 = words[_syndrome_consistent(words, h2, s2)]
    if len(cand1) == 0 or len(cand2) == 0:
        raise ValueError("no source pair is consistent with the given syndromes")

    p = model.p
    ratio = (1.0 - p) / p
    ones1 = cand1.sum(axis=1).astype(np.float64)
    ones2 = cand2.sum(axis=1).astype(np.float64)
    b2 = cand2.astype(np.float64)

    weight1 = np.zeros(len(cand1))
    weight2 = np.zeros(len(cand2))
    best_weight = -1.0
    best_i = best_j = 0
    block_rows = max(1, _PAIR_BLOCK_CELLS // len(cand2))
    for start in range(0, len(cand1), block_rows):
        stop = min(start + block_rows, len(cand1))
        a = cand1[start:stop].astype(np.float64)
        dist = ones1[start:stop, None] + ones2[None, :] - 2.0 * (a @ b2.T)
        pair_weight = (p**n) * ratio**dist
        weight1[start:stop] = pair_weight.sum(axis=1)
        weight2 += pair_weight.sum(axis=0)
        flat = int(np.argmax(pair_weight))
        i, j = divmod(flat, len(cand2))
        if pair_weight[i, j] > best_weight:
            best_weight = float(pair_weight[i, j])
            best_i, best_j = start + i, j

    total = weight1.sum()
    marg1 = np.empty((n, 2))
    marg2 = np.empty((n, 2))
    marg1[:, 1] = (weight1[:, None] * cand1).sum(axis=0) / total
    marg1[:, 0] = (weight1[:, None] * (1 - cand1)).sum(axis=0) / total
    marg2[:, 1] = (weight2[:, None] * cand2).sum(axis=0) / total
    marg2[:, 0] = (weight2[:, None] * (1 - cand2)).sum(axis=0) / total

    return BruteForceResult(
        u1_marginals=marg1,
        u2_marginals=marg2,
        map_u1=cand1[best_i].copy(),
        map_u2=cand2[best_j].copy(),
    )


def _syndrome_consistent(words: np.ndarray, h: SparseParityMatrix, s: np.ndarray):
    """Boolean mask of rows of ``words`` whose syndrome under h equals s."""
    # a row holds at most n <= 16 ones, so the uint8 sums cannot wrap
    return ((words @ h.to_dense().T) & 1 == s).all(axis=1)


def is_cycle_free(graph) -> bool:
    """True iff the bipartite var/check graph contains no cycle.

    ``graph`` is a ``_decoder_reference.ReferenceGraph``, in either form.

    Sum-product posteriors are exact marginals precisely on such graphs,
    which is what the brute-force oracle tests rely on.
    """
    parent = list(range(graph.var_count + graph.check_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v, c in zip(graph.edge_var, graph.edge_check):
        rv, rc = find(int(v)), find(int(c) + graph.var_count)
        if rv == rc:
            return False
        parent[rv] = rc
    return True


def gf2_rank(h: SparseParityMatrix) -> int:
    """Rank of H over GF(2).

    Random regular constructions are occasionally rank-deficient; they
    still work, the deficiency just wastes syndrome bits. The true rate
    of a code is gf2_rank(h)/h.n rather than h.m/h.n.
    """
    rows = [0] * h.m  # each row as an integer, bit i set for column i
    for i, j in zip(*(ids.tolist() for ids in h.entries)):
        rows[j] |= 1 << i
    pivots: dict[int, int] = {}
    rank = 0
    for acc in rows:
        while acc:
            top = acc.bit_length() - 1
            if top in pivots:
                acc ^= pivots[top]
            else:
                pivots[top] = acc
                rank += 1
                break
    return rank
