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

When h1 pins every u1 bit through a degree-1 check (the identity at the
corner point, or any row order of it), u1 is known from s1 and the joint
graph decodes like H2 alone. ``JointTannerGraph._known_u1`` detects this
from the structure once per graph and holds a :class:`KnownU1Graph`: h2,
whose edge lists and kernel layout it uses, and the constant messages of
the identity and correlation checks; ``_KNOWN_U1_OFFSET`` joint iterations
precede the reduced loop (see :func:`_reduce_known_u1` and the decoder
module).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

# Joint iterations that precede the known-u1 loop (see _reduce_known_u1).
_KNOWN_U1_OFFSET = 2


@dataclass(frozen=True, eq=False)
class JointTannerGraph:
    """Immutable structure of the joint decoding graph.

    Message storage is not part of the graph's structure. The decoder keeps
    one set of message buffers per layout under its ``"workspace"`` key, so
    that frames after the first allocate none: the joint decode's in this
    graph's ``_layout``, and the known-u1 decode's in h2's
    ``_check_layout``, which every graph over the same h2 object shares
    (and so every ``run_trials`` call and sweep point over one code). A
    decode checks the workspace out with ``dict.pop`` and puts it back when
    it returns; a decode that runs meanwhile (in another thread, from an
    iteration hook, or over another graph on the same h2) finds none and
    builds its own. So any number of decodes may run concurrently over
    shared graphs and codes.
    """

    form: str
    model: CorrelationModel
    h1: SparseParityMatrix
    h2: SparseParityMatrix
    n: int
    m1: int
    m2: int
    var_count: int
    check_count: int
    edge_var: np.ndarray
    edge_check: np.ndarray
    priors: np.ndarray
    corr_param: float  # hidden-bit LLR attached to the correlation checks

    @property
    def num_edges(self) -> int:
        return len(self.edge_var)

    @property
    def num_code_checks(self) -> int:
        return self.m1 + self.m2

    @cached_property
    def _layout(self) -> dict:
        """Index structures used by the message-passing sweeps, built once.

        ``check_groups`` and ``group_order`` come from
        :func:`_flood_layout` over the graph's edge lists. ``check_factor``
        holds each check's factor f: 1 for code checks and, in folded form,
        tanh(llr/2) for the correlation checks. The decoder adds its
        ``"workspace"`` (see the class notes).
        """
        layout = _flood_layout(self.edge_check, self.check_count)
        factor = np.ones(self.check_count)
        if self.form == FOLDED_Z:
            factor[self.num_code_checks:] = np.tanh(self.corr_param * 0.5)
        layout["check_factor"] = factor
        return layout

    @cached_property
    def _known_u1(self) -> "KnownU1Graph | None":
        """The H2-only graph that decodes this graph when u1 is known, or None.

        Computed once per graph by :func:`_reduce_known_u1`; it never
        builds the joint layout.
        """
        return _reduce_known_u1(self)


@dataclass(frozen=True, eq=False)
class KnownU1Graph:
    """H2 alone, with u1 read off s1 (see :func:`_reduce_known_u1`).

    Variables are the u2 block numbered from 0, checks are the h2 rows.
    The structure is h2's: ``edge_var`` and ``edge_check`` are its
    ``entries`` and ``layout`` is its ``_check_layout``, built once per h2
    object and holding the decoder's workspace for every graph over it.
    The graph keeps only what depends on the model: the constant messages
    and, indexed by a u1 bit, the identity check's message to u1
    (``identity_by_bit``) and the correlation check's message to u2 in
    half-LLR units (``half_prior_by_bit``), the kernel's unit.
    """

    h2: SparseParityMatrix
    u1_check: np.ndarray  # the h1 row that pins each u1 variable
    corr_factor: float  # f = tanh(llr/2) of the correlation checks
    identity_message: float  # c_id: a degree-1 h1 check's message for bit 0
    corr_message: float  # q: a correlation check's message to u2 for u1 = 0
    identity_by_bit: np.ndarray = field(init=False)
    half_prior_by_bit: np.ndarray = field(init=False)

    def __post_init__(self):
        # c (1 - 2 b) is +c or -c exactly, so a table lookup stands in for it
        c_id, half_q = self.identity_message, self.corr_message * 0.5
        object.__setattr__(self, "identity_by_bit", np.array([c_id, -c_id]))
        object.__setattr__(self, "half_prior_by_bit", np.array([half_q, -half_q]))

    @property
    def edge_var(self) -> np.ndarray:
        return self.h2.entries[0]

    @property
    def edge_check(self) -> np.ndarray:
        return self.h2.entries[1]

    @property
    def layout(self) -> dict:
        return self.h2._check_layout


def _reduce_known_u1(graph: JointTannerGraph) -> KnownU1Graph | None:
    """Take the u1 block out of a folded graph whose h1 pins every u1 bit.

    It applies when every u1 variable's only code edge goes to a degree-1
    h1 check: h1 is the identity, or its rows in any order, however it was
    built or loaded. Such a check sends u1 the constant +/- c_id, and from
    the second joint iteration on each correlation check sends u2 the
    constant +/- q; the decoder module describes the resulting schedule.

    It also requires the folded form (explicit z nodes change the
    messages) and an H2 with entries but no degree-1 row, whose iteration-1
    message would move u2 off 0 and so shift ``_KNOWN_U1_OFFSET``. Last,
    u1's hard decisions must stay equal to s1: the correlation message to
    u1 is at most 2 atanh(|f| tanh(LLR_MAX/2)), which must stay strictly
    below c_id.
    Under LLR_MAX = 30 that holds for every model (29.31 against 29.9998).
    """
    if graph.form != FOLDED_Z:
        return None
    n = graph.n
    cols1, rows1 = graph.h1.entries
    rows2 = graph.h2.entries[1]
    if not (np.array_equal(rows1, np.arange(n)) and np.bincount(cols1, minlength=n).max() == 1):
        return None
    if len(rows2) == 0 or any(len(block) == 1 for block, _ in graph.h2._row_blocks):
        return None
    factor = np.tanh(graph.corr_param * 0.5)
    # a degree-1 check's empty product is stored as _TANH_LIMIT (see _flood)
    identity = np.arctanh(_TANH_LIMIT) * 2.0
    bound = np.arctanh(abs(factor) * _TANH_LIMIT) * 2.0
    if not bound < identity:
        return None
    u1_check = np.empty(n, dtype=np.int64)
    u1_check[cols1] = rows1
    return KnownU1Graph(
        h2=graph.h2,
        u1_check=u1_check,
        corr_factor=float(factor),
        identity_message=float(identity),
        corr_message=float(np.arctanh(factor * np.tanh(identity * 0.5)) * 2.0),
    )


def _flood_layout(edge_check, check_count) -> dict:
    """Check-degree groups of a check-major edge list, for the decode kernel.

    Every check's edges are one run of the check-major edge lists. The
    decoder works in a decode-local order where, in addition, all checks
    of one degree are one run: the check-major edges stably sorted by
    the order in which each check degree first appears. ``check_groups``
    holds one ``(degree, start, stop)`` range per degree in that order,
    so a ``(checks, degree)`` reshape of a range is a view with one row
    per check, rows in ascending check id. ``group_order`` is the sort
    as an edge permutation, or None when the check-major order is
    already grouped. Every graph that ``build_joint_graph`` makes from
    regular codes is already grouped (identity rows, code rows and
    correlation checks each have one degree and follow each other), so
    the decoder then neither gathers nor scatters. The variable update
    and the convergence test need no layout of their own: they read the
    posteriors through ``edge_var`` and the codes' row blocks.
    """
    degrees = np.bincount(edge_check, minlength=check_count)
    edge_degree = degrees[edge_check]
    _, first = np.unique(edge_degree, return_index=True)
    appearance = edge_degree[np.sort(first)]
    rank = np.zeros(appearance.max(initial=0) + 1, dtype=np.int64)
    rank[appearance] = np.arange(len(appearance))
    edge_rank = rank[edge_degree]
    group_order = None
    if np.any(edge_rank[1:] < edge_rank[:-1]):
        group_order = np.argsort(edge_rank, kind="stable")

    check_groups = []
    stop = 0
    for degree, size in zip(appearance.tolist(), np.bincount(edge_rank).tolist()):
        start, stop = stop, stop + size
        check_groups.append((degree, start, stop))
    return {"check_groups": tuple(check_groups), "group_order": group_order}


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
    n, m1, m2 = h1.n, h1.m, h2.m
    llr = hidden_llr(model)

    # Check-major: h1 rows, h2 rows, then one correlation check per index
    # attached to u1[i], u2[i] and, in explicit form, z[i].
    cols1, rows1 = h1.entries
    cols2, rows2 = h2.entries
    per_corr = 3 if form == EXPLICIT_Z else 2
    index = np.arange(n, dtype=np.int64)
    edge_var = np.concatenate(
        [cols1, cols2 + n, (index[:, None] + n * np.arange(per_corr)).ravel()]
    )
    edge_check = np.concatenate(
        [rows1, rows2 + m1, np.repeat(index + m1 + m2, per_corr)]
    )

    var_count = 3 * n if form == EXPLICIT_Z else 2 * n
    priors = np.zeros(var_count)
    if form == EXPLICIT_Z:
        priors[2 * n:] = llr

    return JointTannerGraph(
        form=form,
        model=model,
        h1=h1,
        h2=h2,
        n=n,
        m1=m1,
        m2=m2,
        var_count=var_count,
        check_count=m1 + m2 + n,
        edge_var=edge_var,
        edge_check=edge_check,
        priors=priors,
        corr_param=llr,
    )
