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
  stands in for the eliminated hidden-bit node. The update runs on the
  graph's check-degree groups (see ``JointTannerGraph._decode_layout``):
  each group is one contiguous run of edges in a decode-local order, read
  as a (checks, degree) view. A degree-1 check's product is empty (1); a
  degree-2 check passes each edge its partner's value; for larger degrees
  the leave-one-out products are built column by column, prefix products
  from the left and suffix products from the right. Each product is
  multiplied in the same order as a forward and a backward ``np.cumprod``
  along the row and then joined by one multiplication, so it rounds
  exactly as the cumulative products did. For the graphs that
  ``build_joint_graph`` makes from regular codes the decode-local order is
  the check-major order itself; other graphs pay one gather into it and
  one scatter back per iteration.

Hard decisions take bit 1 where the posterior is strictly negative, so an
exactly zero posterior resolves to 0. The convergence test needs only the
code checks (the correlation checks hold by construction of z_hat): it
xors the hard decisions over each code check's edges, one (degree, rows)
block per check-degree group, in integers, and counts a code row without
entries as unsatisfied exactly when its syndrome bit is 1.

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
    damping = config.damping

    # Per-edge constant: target-parity sign times check factor (exact, as
    # the sign is +/-1). Correlation checks have parity 0, so only the
    # code blocks consult the syndromes.
    parity = np.zeros(graph.check_count)
    parity[: graph.m1] = s1
    parity[graph.m1 : graph.num_code_checks] = s2
    edge_scale = ((1.0 - 2.0 * parity) * layout["check_factor"])[graph.edge_check]
    syndrome_bits = np.concatenate([s1, s2]).astype(bool)

    # Message buffers, reused by every iteration. A degree-1 check's
    # leave-one-out product is empty, so its entries of ``excl`` stay 1.
    num_edges = graph.num_edges
    v2c = np.empty(num_edges)
    t = np.empty(num_edges)
    excl = np.ones(num_edges)
    arg = np.empty(num_edges)
    c2v = np.zeros(num_edges)
    fresh = np.empty(num_edges)
    group_order = layout["group_order"]
    if group_order is None:
        t_grouped, excl_grouped = t, excl
    else:
        t_grouped, excl_grouped = np.empty(num_edges), np.ones(num_edges)
    check_groups = []
    for degree, start, stop in layout["check_groups"]:
        t_cols = list(t_grouped[start:stop].reshape(-1, degree).T)
        out_cols = list(excl_grouped[start:stop].reshape(-1, degree).T)
        if degree == 2:
            check_groups.append((t_cols, out_cols, None, None))
        elif degree > 2:
            # prefixes[j] receives the product of columns 0..j
            rows = len(t_cols[0])
            prefixes = [t_cols[0], *np.empty((degree - 3, rows)), out_cols[-1]]
            check_groups.append((t_cols, out_cols, prefixes, np.empty(rows)))

    # Convergence test: per group, the variables of the code rows' edges,
    # one column per row, and the rows' syndrome bits. A code row without
    # entries has parity 0, so it fails iff its bit is 1.
    code_groups = [
        (variables, syndrome_bits[checks]) for variables, checks in layout["code_groups"]
    ]
    empty_unsatisfied = int(np.count_nonzero(syndrome_bits)) - sum(
        int(np.count_nonzero(target)) for _, target in code_groups
    )

    posteriors = priors
    converged = False
    iterations_used = 0

    for iteration in range(1, config.max_iterations + 1):
        # Variable update: each edge sends the posterior minus its own
        # incoming message.
        np.subtract(posteriors[edge_var], c2v, out=v2c)
        v2c.clip(-LLR_MAX, LLR_MAX, out=v2c)

        # Check update on the contiguous degree groups: a degree-2 check
        # passes each edge its partner's value, larger degrees take
        # leave-one-out products.
        np.multiply(v2c, 0.5, out=arg)
        np.tanh(arg, out=t)
        if group_order is not None:
            t.take(group_order, out=t_grouped)
        for t_cols, out_cols, prefixes, suffix in check_groups:
            if prefixes is None:
                out_cols[0][...] = t_cols[1]
                out_cols[1][...] = t_cols[0]
            else:
                _leave_one_out(t_cols, out_cols, prefixes, suffix)
        if group_order is not None:
            excl[group_order] = excl_grouped
        np.multiply(edge_scale, excl, out=arg)
        arg.clip(-_TANH_LIMIT, _TANH_LIMIT, out=arg)
        np.arctanh(arg, out=fresh)
        np.multiply(fresh, 2.0, out=fresh)
        fresh.clip(-LLR_MAX, LLR_MAX, out=fresh)
        if damping > 0.0:
            np.multiply(fresh, 1.0 - damping, out=fresh)
            np.multiply(c2v, damping, out=c2v)
            np.add(fresh, c2v, out=fresh)
        c2v, fresh = fresh, c2v
        if not np.isfinite(c2v).all():
            raise FloatingPointError("non-finite check message despite clamping")

        posteriors = np.bincount(edge_var, weights=c2v, minlength=graph.var_count)
        posteriors += priors
        hard = posteriors < 0

        # Convergence test: z_hat = u1_hat xor u2_hat satisfies every
        # correlation check, so only the code checks can be violated.
        unsatisfied = empty_unsatisfied
        for variables, target in code_groups:
            row_parity = np.bitwise_xor.reduce(hard[variables], axis=0)
            unsatisfied += int(np.count_nonzero(row_parity != target))
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

    u1_hat = hard[:n].astype(np.uint8)
    u2_hat = hard[n : 2 * n].astype(np.uint8)
    return DecodeResult(
        u1_hat=u1_hat,
        u2_hat=u2_hat,
        z_hat=u1_hat ^ u2_hat,
        converged=converged,
        iterations_used=iterations_used,
        posterior_llrs=posteriors[: 2 * n].copy(),
    )


def _leave_one_out(t_cols, out_cols, prefixes, suffix):
    """Set each column of a check group to the product of the other columns.

    ``t_cols`` and ``out_cols`` are the columns of a (checks, degree) block
    with degree >= 3. ``prefixes[j]`` receives the product of columns 0..j:
    its first entry is ``t_cols[0]`` itself and its last is
    ``out_cols[-1]``, whose leave-one-out product that is. ``suffix`` is a
    (checks,) scratch buffer. Column k gets the product of columns 0..k-1
    times the product of columns degree-1..k+1, each multiplied in one
    column at a time in that order: the same chain of roundings as a
    forward and a backward ``np.cumprod`` along each row.
    """
    degree = len(t_cols)
    for k in range(1, degree - 1):
        np.multiply(prefixes[k - 1], t_cols[k], out=prefixes[k])
    running = t_cols[-1]
    for k in range(degree - 2, 0, -1):
        np.multiply(prefixes[k - 1], running, out=out_cols[k])
        following = out_cols[0] if k == 1 else suffix
        np.multiply(running, t_cols[k], out=following)
        running = following


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
