"""Joint sum-product decoding of two syndrome-compressed correlated sources.

Messages are LLRs under the convention L(x) = ln(P(x=0)/P(x=1)), so a
positive value favors bit 0. The schedule is flooding: every iteration
updates all variable-to-check messages, then all check-to-variable
messages, then the posteriors.

Update rules (messages clamped to +/- LLR_MAX at every step):

* variable v to check c: prior(v) plus the sum of incoming check messages
  excluding the one from c. It is computed as the posterior of v from the
  previous iteration minus the message from c (the standard flooding
  identity), so no per-edge leave-one-out pass is needed. The subtraction
  rounds: a message differs from the exact leave-one-out sum by about
  1e-15 relative to the posterior, and a degree-1 variable sends its
  prior to within that rounding rather than bit for bit.
* check c (target parity b, check factor f) to variable v:
  2 atanh((1-2b) * f * prod tanh(m/2)) over incoming messages excluding
  the one from v. Code checks use their syndrome bit as b and f = 1;
  correlation checks use b = 0, and in folded form f = tanh(llr/2)
  stands in for the eliminated hidden-bit node.

Hard decisions take bit 1 where the posterior is strictly negative, so an
exactly zero posterior resolves to 0.

``brute_force_marginals`` provides the exact reference for small blocks:
it enumerates every pair of syndrome-consistent words, weighs each pair
by the correlation model, and reports exact per-bit posteriors and the
maximum-weight pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .correlation import LLR_MAX, CorrelationModel
from .graph import JointTannerGraph
from .ldpc import SparseParityMatrix, as_bit_array

# Largest magnitude tanh(m/2) can reach under the message clamp; the
# atanh argument is clipped here so saturated products stay finite.
_TANH_LIMIT = float(np.tanh(LLR_MAX * 0.5))


@dataclass(frozen=True)
class DecoderConfig:
    max_iterations: int = 100
    damping: float = 0.0
    early_stop: bool = True

    def __post_init__(self):
        if not isinstance(self.max_iterations, int) or self.max_iterations < 1:
            raise ValueError("max_iterations must be a positive integer")
        if not 0.0 <= self.damping < 1.0:
            raise ValueError("damping must lie in [0, 1)")


@dataclass(frozen=True, eq=False)
class IterationInfo:
    """Snapshot passed to the per-iteration hook (arrays are copies)."""

    iteration: int
    unsatisfied_checks: int
    mean_abs_posterior: float
    v2c: np.ndarray
    c2v: np.ndarray
    posteriors: np.ndarray


@dataclass(frozen=True, eq=False)
class DecodeResult:
    u1_hat: np.ndarray
    u2_hat: np.ndarray
    z_hat: np.ndarray
    converged: bool
    iterations_used: int
    posterior_llrs: np.ndarray  # length 2n: u1 block then u2 block


def decode(
    graph: JointTannerGraph,
    s1,
    s2,
    config: Optional[DecoderConfig] = None,
    iteration_hook: Optional[Callable[[IterationInfo], None]] = None,
) -> DecodeResult:
    """Run joint belief propagation for one pair of syndromes.

    Args:
        graph: joint Tanner graph (either form).
        s1: syndrome of the first source, length graph.m1.
        s2: syndrome of the second source, length graph.m2.
        config: decoder settings; defaults to DecoderConfig().
        iteration_hook: optional callable invoked after every iteration
            with an IterationInfo snapshot.

    Returns:
        DecodeResult. ``converged`` is True iff the returned hard
        decisions reproduce both syndromes; the correlation checks are
        satisfied by construction through z_hat = u1_hat xor u2_hat.
    """
    if config is None:
        config = DecoderConfig()
    s1 = as_bit_array(s1, graph.m1)
    s2 = as_bit_array(s2, graph.m2)
    n = graph.n
    layout = graph._decode_layout()
    edge_var = graph.edge_var
    priors = graph.priors

    # Per-edge constant: target-parity sign times check factor (exact, as
    # the sign is +/-1). Correlation checks have parity 0, so only the
    # code blocks consult the syndromes.
    parity = np.zeros(graph.check_count)
    parity[: graph.m1] = s1
    parity[graph.m1 : graph.num_code_checks] = s2
    edge_scale = ((1.0 - 2.0 * parity) * layout["check_factor"])[graph.edge_check]
    syndrome_bits = np.concatenate([s1, s2]).astype(np.int64)
    # The code checks' edges come first in the check-major edge lists.
    code_edges = slice(0, graph.h1.num_entries + graph.h2.num_entries)

    posteriors = priors
    c2v = np.zeros(graph.num_edges)
    converged = False
    iterations_used = 0

    for iteration in range(1, config.max_iterations + 1):
        # Variable update: each edge sends the posterior minus its own
        # incoming message.
        v2c = posteriors[edge_var] - c2v
        np.clip(v2c, -LLR_MAX, LLR_MAX, out=v2c)

        # Check update: leave-one-out tanh products per check degree. A
        # degree-1 check excludes its only edge, so its product stays 1; a
        # degree-2 check passes each edge its partner's value.
        t = np.tanh(v2c * 0.5)
        excl = np.ones_like(t)
        for degree, slots in layout["check_groups"]:
            if degree == 2:
                excl[slots] = t[slots[:, ::-1]]
            elif degree > 2:
                block = t[slots]
                left = np.ones_like(block)
                np.cumprod(block[:, :-1], axis=1, out=left[:, 1:])
                right = np.ones_like(block)
                right[:, :-1] = np.cumprod(block[:, :0:-1], axis=1)[:, ::-1]
                excl[slots] = left * right
        arg = edge_scale * excl
        np.clip(arg, -_TANH_LIMIT, _TANH_LIMIT, out=arg)
        fresh = 2.0 * np.arctanh(arg)
        np.clip(fresh, -LLR_MAX, LLR_MAX, out=fresh)
        if config.damping > 0.0:
            fresh = (1.0 - config.damping) * fresh + config.damping * c2v
        c2v = fresh
        if not np.all(np.isfinite(c2v)):
            raise FloatingPointError("non-finite check message despite clamping")

        posteriors = priors + np.bincount(
            edge_var, weights=c2v, minlength=graph.var_count
        )
        hard = (posteriors < 0).astype(np.uint8)

        # Convergence test: z_hat = u1_hat xor u2_hat satisfies every
        # correlation check, so only the code checks can be violated.
        code_parity = (
            np.bincount(
                graph.edge_check[code_edges],
                weights=hard[edge_var[code_edges]].astype(np.float64),
                minlength=graph.num_code_checks,
            ).astype(np.int64)
            & 1
        )
        unsatisfied = int(np.count_nonzero(code_parity != syndrome_bits))
        converged = unsatisfied == 0
        iterations_used = iteration

        if iteration_hook is not None:
            iteration_hook(
                IterationInfo(
                    iteration=iteration,
                    unsatisfied_checks=unsatisfied,
                    mean_abs_posterior=float(np.abs(posteriors[: 2 * n]).mean()),
                    v2c=v2c.copy(),
                    c2v=c2v.copy(),
                    posteriors=posteriors[: 2 * n].copy(),
                )
            )
        if converged and config.early_stop:
            break

    u1_hat = hard[:n].copy()
    u2_hat = hard[n : 2 * n].copy()
    return DecodeResult(
        u1_hat=u1_hat,
        u2_hat=u2_hat,
        z_hat=u1_hat ^ u2_hat,
        converged=converged,
        iterations_used=iterations_used,
        posterior_llrs=posteriors[: 2 * n].copy(),
    )


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
    mask = np.ones(len(words), dtype=bool)
    for j, row in enumerate(h.rows):
        parity = words[:, list(row)].sum(axis=1) & 1 if row else np.zeros(len(words), dtype=np.uint8)
        mask &= parity == s[j]
    return mask
