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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .correlation import CorrelationModel, hidden_llr
from .ldpc import SparseParityMatrix

EXPLICIT_Z = "explicit"
FOLDED_Z = "folded"


@dataclass(frozen=True, eq=False)
class JointTannerGraph:
    """Immutable structure of the joint decoding graph.

    Message storage is deliberately not part of the graph: a decode
    session allocates its own buffers, so any number of sessions may run
    concurrently over one shared graph.
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

    # decoding layout derived from the edge lists (see _decode_layout)
    _layout: dict | None = field(init=False, default=None, repr=False, compare=False)

    @property
    def num_edges(self) -> int:
        return len(self.edge_var)

    @property
    def num_code_checks(self) -> int:
        return self.m1 + self.m2

    def var_role(self, var_id: int) -> tuple[str, int]:
        """Role tag ('u1' | 'u2' | 'z') and block-local index of a variable."""
        if 0 <= var_id < self.n:
            return "u1", var_id
        if self.n <= var_id < 2 * self.n:
            return "u2", var_id - self.n
        if self.form == EXPLICIT_Z and 2 * self.n <= var_id < 3 * self.n:
            return "z", var_id - 2 * self.n
        raise IndexError(f"variable id {var_id} out of range")

    def check_role(self, check_id: int) -> tuple[str, int]:
        """Role tag ('code1' | 'code2' | 'corr') and local index of a check.

        For code checks the local index is the syndrome position.
        """
        if 0 <= check_id < self.m1:
            return "code1", check_id
        if self.m1 <= check_id < self.m1 + self.m2:
            return "code2", check_id - self.m1
        if self.m1 + self.m2 <= check_id < self.check_count:
            return "corr", check_id - self.m1 - self.m2
        raise IndexError(f"check id {check_id} out of range")

    def check_degrees(self) -> np.ndarray:
        return np.bincount(self.edge_check, minlength=self.check_count)

    def var_degrees(self) -> np.ndarray:
        return np.bincount(self.edge_var, minlength=self.var_count)

    def structure_equal(self, other: "JointTannerGraph") -> bool:
        """Node-for-node, edge-for-edge structural equality."""
        return (
            self.form == other.form
            and self.n == other.n
            and self.m1 == other.m1
            and self.m2 == other.m2
            and self.var_count == other.var_count
            and self.check_count == other.check_count
            and self.corr_param == other.corr_param
            and np.array_equal(self.edge_var, other.edge_var)
            and np.array_equal(self.edge_check, other.edge_check)
            and np.array_equal(self.priors, other.priors)
        )

    def serialize(self) -> str:
        """Plain-text adjacency dump for golden-file comparisons.

        One line per node ("V <role> <i>", "C <role> <i>", correlation
        checks additionally show their parity and LLR parameter), then one
        line per edge ("E <var-id> <check-id>") sorted by (var, check).
        """
        lines = []
        for v in range(self.var_count):
            role, i = self.var_role(v)
            lines.append(f"V {role} {i}")
        for c in range(self.check_count):
            role, i = self.check_role(c)
            if role == "corr":
                lines.append(f"C corr {i} parity=0 param={self.corr_param!r}")
            else:
                lines.append(f"C {role} {i}")
        order = np.lexsort((self.edge_check, self.edge_var))
        for e in order:
            lines.append(f"E {self.edge_var[e]} {self.edge_check[e]}")
        return "\n".join(lines) + "\n"

    def _decode_layout(self) -> dict:
        """Index structures used by the message-passing sweeps.

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
        the decoder then neither gathers nor scatters.

        The convergence test reads the code checks in the same order. Code
        checks precede correlation checks, so they lead every group:
        ``code_groups`` holds, for each group with code rows, the variables
        of those rows' edges as a contiguous ``(degree, rows)`` array (edge
        k of every row in row k) and the rows' check ids. Code rows without
        entries belong to no group. The variable update needs no layout of
        its own; it reads the posteriors through ``edge_var``.
        """
        if self._layout is None:
            degrees = np.bincount(self.edge_check, minlength=self.check_count)
            edge_degree = degrees[self.edge_check]
            _, first = np.unique(edge_degree, return_index=True)
            appearance = edge_degree[np.sort(first)]
            rank = np.zeros(appearance.max() + 1, dtype=np.int64)
            rank[appearance] = np.arange(len(appearance))
            edge_rank = rank[edge_degree]
            group_order = None
            grouped_var, grouped_check = self.edge_var, self.edge_check
            if np.any(edge_rank[1:] < edge_rank[:-1]):
                group_order = np.argsort(edge_rank, kind="stable")
                grouped_var = grouped_var[group_order]
                grouped_check = grouped_check[group_order]

            check_groups, code_groups = [], []
            stop = 0
            for degree, size in zip(appearance.tolist(), np.bincount(edge_rank).tolist()):
                start, stop = stop, stop + size
                check_groups.append((degree, start, stop))
                checks = grouped_check[start:stop:degree]
                rows = int(np.count_nonzero(checks < self.num_code_checks))
                if rows:
                    block = grouped_var[start : start + rows * degree]
                    code_groups.append((block.reshape(rows, degree).T.copy(), checks[:rows]))

            factor = np.ones(self.check_count)
            if self.form == FOLDED_Z:
                factor[self.num_code_checks:] = np.tanh(self.corr_param * 0.5)
            layout = {
                "check_groups": tuple(check_groups),
                "group_order": group_order,
                "check_factor": factor,
                "code_groups": tuple(code_groups),
            }
            object.__setattr__(self, "_layout", layout)
        return self._layout


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


def fold_hidden(graph: JointTannerGraph) -> JointTannerGraph:
    """Eliminate the degree-1 z nodes of an explicit-form graph.

    A degree-1 variable always sends its prior, so a correlation check's
    messages to u1/u2 reduce exactly to a degree-2 check rule with the
    constant tanh(llr/2) factor absorbed into the check. The returned
    graph is structurally identical to building the folded form directly.
    """
    if graph.form != EXPLICIT_Z:
        raise ValueError(f"can only fold an explicit-form graph, got {graph.form!r}")
    keep = graph.edge_var < 2 * graph.n
    return JointTannerGraph(
        form=FOLDED_Z,
        model=graph.model,
        h1=graph.h1,
        h2=graph.h2,
        n=graph.n,
        m1=graph.m1,
        m2=graph.m2,
        var_count=2 * graph.n,
        check_count=graph.check_count,
        edge_var=graph.edge_var[keep].copy(),
        edge_check=graph.edge_check[keep].copy(),
        priors=graph.priors[: 2 * graph.n].copy(),
        corr_param=graph.corr_param,
    )


def is_cycle_free(graph: JointTannerGraph) -> bool:
    """True iff the bipartite var/check graph contains no cycle.

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
