"""Joint Tanner graph over two codes coupled by per-index correlation checks.

The decoder's graph contains the Tanner graphs of both codes plus, for
every bit position i, a correlation check enforcing u1[i] + u2[i] + z[i] = 0
over GF(2), where z[i] is the hidden error bit of the source pair. Two
equivalent forms are supported:

* ``explicit``: each correlation check has degree 3 and is attached to a
  degree-1 z variable node whose prior is the constant hidden-bit LLR.
* ``folded``: the z node is eliminated algebraically. The correlation
  check has degree 2 and carries the hidden LLR as a check-local
  parameter. Because a degree-1 variable always emits its prior, the two
  forms exchange the same messages on the u1/u2 edges, up to the rounding
  of the decoder's variable update.

Node ids are assigned deterministically so message traces are comparable
across runs: variables are the u1 block [0, n), the u2 block [n, 2n) and,
in explicit form, the z block [2n, 3n); checks are code-1 rows [0, m1),
code-2 rows [m1, m1+m2) and correlation checks [m1+m2, m1+m2+n). Edges are
stored check-major with ascending variable ids inside each check.

A graph stores its form, model and codes; the edge lists, priors and the
kernel's plan of the edges (:class:`_KernelPlan`) are built on first use
and kept by that graph alone.

When h1 is the identity, u1 is sent raw and known from s1, and the
decoder runs on H2 alone: ``JointTannerGraph._known_u1`` holds that
:class:`KnownU1Graph`, with its own plan over h2's entries, and a graph
decoded that way never builds its joint edge lists, priors or plan. The
decoder module states when the reduction applies and why it returns what
the joint graph returns.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .correlation import LLR_MAX, CorrelationModel, hidden_llr
from .ldpc import SparseParityMatrix

EXPLICIT_Z = "explicit"
FOLDED_Z = "folded"

# Largest magnitude tanh(m/2) can reach under the message clamp. Every
# atanh argument is a tanh value or a product of them times a factor
# |f| <= 1, so it stays inside this bound and 2 atanh of it inside LLR_MAX;
# the decoder tests pin numpy's tanh to it at the clamp.
_TANH_LIMIT = float(np.tanh(LLR_MAX * 0.5))

# A degree-1 code check's message, indexed by its syndrome bit: +c_id and
# -c_id, c_id = 2 atanh(_TANH_LIMIT), as its empty product is stored as
# _TANH_LIMIT (see decoder._flood). It does not depend on the model.
_IDENTITY_BY_BIT = np.array([1.0, -1.0]) * (np.arctanh(_TANH_LIMIT) * 2.0)


@dataclass(frozen=True, eq=False)
class JointTannerGraph:
    """Immutable structure of the joint decoding graph.

    The sizes are read off the four fields. ``edge_var``, ``edge_check``,
    ``priors`` and the decode plan ``_plan`` are built on first use and
    kept on the graph, so a graph that only takes the known-u1 path
    (``_known_u1``) never builds them. The decoder keeps its message
    buffers between frames in the plan it decodes on: the joint decode's
    in ``_plan``, the known-u1 decode's in ``_known_u1._plan``. No other
    graph shares them, and a decode that runs meanwhile over the same
    graph (another thread, or an iteration hook) builds its own.
    """

    form: str
    model: CorrelationModel
    h1: SparseParityMatrix
    h2: SparseParityMatrix

    @property
    def n(self) -> int:
        return self.h1.n

    @property
    def m1(self) -> int:
        return self.h1.m

    @property
    def m2(self) -> int:
        return self.h2.m

    @property
    def num_code_checks(self) -> int:
        return self.m1 + self.m2

    @property
    def check_count(self) -> int:
        return self.m1 + self.m2 + self.n

    @property
    def _corr_degree(self) -> int:  # one edge into each variable block
        return 3 if self.form == EXPLICIT_Z else 2

    @property
    def var_count(self) -> int:
        return self._corr_degree * self.n

    @property
    def num_edges(self) -> int:
        code_edges = len(self.h1.entries[0]) + len(self.h2.entries[0])
        return code_edges + self._corr_degree * self.n

    @property
    def corr_param(self) -> float:  # hidden-bit LLR of the correlation checks
        return hidden_llr(self.model)

    # Check-major: h1 rows, h2 rows, then one correlation check per index
    # attached to u1[i], u2[i] and, in explicit form, z[i].

    @cached_property
    def edge_var(self) -> np.ndarray:
        n = self.n
        corr = np.arange(n, dtype=np.int64)[:, None] + n * np.arange(self._corr_degree)
        return np.concatenate([self.h1.entries[0], self.h2.entries[0] + n, corr.ravel()])

    @cached_property
    def edge_check(self) -> np.ndarray:
        corr = np.arange(self.num_code_checks, self.check_count, dtype=np.int64)
        return np.concatenate(
            [self.h1.entries[1], self.h2.entries[1] + self.m1, corr.repeat(self._corr_degree)]
        )

    @cached_property
    def priors(self) -> np.ndarray:
        priors = np.zeros(self.var_count)
        if self.form == EXPLICIT_Z:
            priors[2 * self.n:] = self.corr_param
        return priors

    @cached_property
    def _plan(self) -> "_KernelPlan":
        degrees = np.concatenate(
            [_row_weights(self.h1), _row_weights(self.h2), np.full(self.n, self._corr_degree)]
        )
        return _KernelPlan(self.edge_var, degrees)

    @cached_property
    def _known_u1(self) -> "KnownU1Graph | None":
        """The H2-only graph that decodes this graph when u1 is known, or
        None, from :func:`_reduce_known_u1`, which builds no joint edges."""
        return _reduce_known_u1(self)


@dataclass(frozen=True, eq=False)
class KnownU1Graph:
    """H2 alone, which decodes a joint graph whose u1 is known.

    Variables are the u2 block numbered from 0, checks are the h2 rows and
    the edges are h2's ``entries``; ``_plan``, built on first use, is the
    kernel's plan over them. ``corr_factor`` is f = tanh(llr/2) of the
    correlation checks, and ``half_prior_by_bit`` a correlation check's
    message to u2 in half-LLR units, the kernel's unit, indexed by the u1
    bit: +q/2 and -q/2. The decoder module describes the decode.
    """

    h2: SparseParityMatrix
    corr_factor: float
    half_prior_by_bit: np.ndarray

    @cached_property
    def _plan(self) -> "_KernelPlan":
        return _KernelPlan(self.h2.entries[0], _row_weights(self.h2))


class _KernelPlan:
    """The decode kernel's layout of one graph's check-major edges.

    ``edge_var`` maps each edge to its variable; ``check_groups`` and
    ``group_order`` are :func:`_group_checks` of the check degrees. The
    decoder keeps its message buffers for these edges in ``idle`` between
    decodes, at most one set (see ``decoder._flood``).
    """

    def __init__(self, edge_var: np.ndarray, degrees: np.ndarray):
        self.edge_var = edge_var
        self.check_groups, self.group_order = _group_checks(degrees)
        self.idle = deque(maxlen=1)


def _row_weights(h: SparseParityMatrix) -> np.ndarray:
    """Each row's number of entries, read off the row blocks."""
    weights = np.empty(h.m, dtype=np.int64)
    for block, rows in h._row_blocks:
        weights[rows] = len(block)
    return weights


def _group_checks(degrees: np.ndarray):
    """Check-degree groups of check-major edges, from each check's degree.

    The decoder works in a decode-local order where all checks of one
    degree are one run: the checks stably sorted by the order in which each
    degree first appears (checks without edges take no part). Returns
    ``check_groups``, one ``(degree, start, stop)`` edge range per degree
    in that order, so that a ``(checks, degree)`` reshape of a range is a
    view with one row per check, rows in ascending check id; and
    ``group_order``, the sort as an edge permutation, or None when the
    check-major order is already grouped, as in every graph that
    ``build_joint_graph`` makes from regular codes (identity rows, code
    rows and correlation checks each have one degree).
    """
    present = degrees[degrees > 0]
    # the degree of each run of equal degrees, in check order
    runs = present[:1].tolist() + present[1:][present[1:] != present[:-1]].tolist()
    appearance = list(dict.fromkeys(runs))
    counts = np.bincount(present).tolist()
    check_groups = []
    stop = 0
    for degree in appearance:
        start, stop = stop, stop + degree * counts[degree]
        check_groups.append((degree, start, stop))
    group_order = None
    if len(runs) > len(appearance):  # some degree comes back after another
        starts = np.cumsum(degrees) - degrees
        group_order = np.concatenate(
            [(starts[degrees == d][:, None] + np.arange(d)).ravel() for d in appearance]
        )
    return tuple(check_groups), group_order


def _reduce_known_u1(graph: JointTannerGraph) -> KnownU1Graph | None:
    """The :class:`KnownU1Graph` of a graph whose u1 is known, or None.

    It applies to a folded graph whose h1 is the identity, rows in order,
    and whose H2 has entries but no degree-1 row; the decoder module says
    why each condition is needed.
    """
    if graph.form != FOLDED_Z:
        return None
    ids = np.arange(graph.n)
    if not all(np.array_equal(a, ids) for a in graph.h1.entries):
        return None
    if len(graph.h2.entries[1]) == 0 or any(len(block) == 1 for block, _ in graph.h2._row_blocks):
        return None
    factor = np.tanh(graph.corr_param * 0.5)
    half_q = np.arctanh(factor * np.tanh(_IDENTITY_BY_BIT[0] * 0.5))
    return KnownU1Graph(graph.h2, float(factor), np.array([half_q, -half_q]))


def build_joint_graph(
    h1: SparseParityMatrix,
    h2: SparseParityMatrix,
    model: CorrelationModel,
    form: str = FOLDED_Z,
) -> JointTannerGraph:
    """Assemble the joint graph for two codes over correlated sources.

    Args:
        h1: code for the first source (identity for the uncompressed
            corner point).
        h2: code for the second source; must have the same block length.
        model: correlation model; its hidden-bit LLR becomes the z priors
            (explicit form) or the correlation-check parameter (folded).
        form: EXPLICIT_Z or FOLDED_Z.
    """
    if h1.n != h2.n:
        raise ValueError(f"codes disagree on block length: {h1.n} vs {h2.n}")
    if form not in (EXPLICIT_Z, FOLDED_Z):
        raise ValueError(f"unknown graph form {form!r}")
    return JointTannerGraph(form=form, model=model, h1=h1, h2=h2)
