"""Reference joint graph and flooding decoder, kept as test oracles.

``ReferenceGraph`` builds the edge lists of the joint graph from ``(h1, h2,
model)`` by a plain loop over the rows, in either of two forms that pass
the same messages on the u1/u2 edges, up to rounding:

* ``FOLDED_Z``, the form that :mod:`swldpc.decoder` decodes: each
  correlation check has degree 2 and scales its messages by
  f = tanh(llr/2);
* ``EXPLICIT_Z``, the graph of the paper: each correlation check has
  degree 3, its third edge going to a degree-1 z variable, numbered
  2n + i, whose prior is the hidden-bit LLR, and f = 1.

``decode_reference`` is the plain form of the loop that
:func:`swldpc.decoder.decode` runs on contiguous views: every check-degree
group is gathered into a slot matrix, its leave-one-out products come from
two ``np.cumprod`` calls, and the convergence test counts each code check's
ones with a float ``bincount``. Its hook receives a ``Snapshot`` of each
iteration: its number, unsatisfied checks, mean |posterior|, posteriors
and messages. The differential tests require ``decode`` to return
bit-identical results, traces and snapshots (``recorded_decode``, from
the record that ``_decode`` fills) to this loop on the folded graph, and
the library kernel on the joint graph (``kernel_snapshots``)
bit-identical messages, so this file must keep the arithmetic exactly as
it is. The kernel records no messages; ``kernel_snapshots`` reads each
iteration's check messages from a decode that the budget ends there, and
derives its variable messages from the snapshot before by the kernel's
own rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from swldpc import (
    FOLDED_Z,
    LLR_MAX,
    CorrelationModel,
    DecodeResult,
    DecoderConfig,
    SparseParityMatrix,
    build_joint_graph,
    hidden_llr,
)
from swldpc.decoder import _decode, _flood
from swldpc.ldpc import as_bit_array

from _strategies import rows_of

EXPLICIT_Z = "explicit"

_TANH_LIMIT = float(np.tanh(LLR_MAX * 0.5))


@dataclass(frozen=True, eq=False)
class Snapshot:
    """One iteration of a joint decode: its number, its count of
    unsatisfied code checks, the mean |posterior| of its 2n posteriors,
    the messages ``v2c`` and ``c2v`` of every edge, in check-major order,
    as copies (None where ``recorded_decode`` took it), and the 2n
    posteriors. ``kernel_snapshots`` derives ``v2c``, which the kernel
    does not keep."""

    iteration: int
    unsatisfied_checks: int
    mean_abs_posterior: float
    v2c: np.ndarray
    c2v: np.ndarray
    posteriors: np.ndarray


def kernel_snapshots(graph, s1, s2, config=None) -> list:
    """The ``Snapshot`` of every iteration of the library kernel on the
    joint graph of ``graph``'s codes and model, which ``decode`` runs only
    under damping or where the known-u1 reduction does not apply. The plan
    is built on a new ``JointTannerGraph``, so ``graph`` gains nothing.

    The unsatisfied checks and posteriors of every iteration come from
    the record of one decode with ``config``. The check messages of
    iteration k come from the workspace that a decode of budget k, with
    early stop off, leaves in the plan: its ``c2v``, in half-LLRs by slot.
    Early stop only ends the loop, so that decode runs iterations 1..k as
    the recorded one does. ``v2c`` follows the kernel's rule: the last
    posteriors gathered to each edge, minus that edge's last check
    message, clamped; before iteration 1 both are zero. Doubling is exact,
    so the rule gives in LLRs what the kernel computes in half-LLRs, bit
    for bit."""
    joint = build_joint_graph(graph.h1, graph.h2, graph.model)
    plan = joint._plan
    bits = np.concatenate([as_bit_array(s1, graph.m1), as_bit_array(s2, graph.m2)])
    config, record = config or DecoderConfig(), []
    _flood(plan, bits, np.zeros(2 * graph.n), config, record=record)
    snapshots = []
    last = np.zeros(2 * graph.n), np.zeros(joint.num_edges)  # posteriors, c2v
    for iteration, (unsatisfied_checks, posteriors) in enumerate(record, start=1):
        budget = replace(config, max_iterations=iteration, early_stop=False)
        _flood(plan, bits, np.zeros(2 * graph.n), budget)
        # the kernel's check messages, half-LLRs by slot, in LLRs by edge
        c2v = plan.idle[0].c2v.take(plan.slot_of_edge) * 2.0
        v2c = np.subtract(last[0].take(joint.edge_var), last[1])
        np.clip(v2c, -LLR_MAX, LLR_MAX, out=v2c)
        mean = float(np.abs(posteriors).mean())
        snapshots.append(Snapshot(iteration, unsatisfied_checks, mean, v2c, c2v, posteriors))
        last = posteriors, c2v
    return snapshots


def recorded_decode(graph, s1, s2, config, on_snapshot):
    """``decode`` through the record of ``_decode``, which holds the joint
    graph's 2n posteriors by id on every path: once the decode returns,
    ``on_snapshot`` gets the ``Snapshot`` of each iteration, in order,
    without messages. Returns the result."""
    bits = as_bit_array(s1, graph.m1), as_bit_array(s2, graph.m2)
    record = []
    result = _decode(graph, *bits, config, record)
    for iteration, (unsatisfied_checks, posteriors) in enumerate(record, start=1):
        mean = float(np.abs(posteriors).mean())
        on_snapshot(Snapshot(iteration, unsatisfied_checks, mean, None, None, posteriors))
    return result


@dataclass(frozen=True, eq=False)
class ReferenceGraph:
    """The joint graph of two codes as check-major edge lists.

    Variables are the u1 block [0, n), the u2 block [n, 2n) and, in
    explicit form, the z block [2n, 3n); checks are code-1 rows [0, m1),
    code-2 rows [m1, m1+m2) and correlation checks [m1+m2, m1+m2+n).
    Edges are listed check by check, variables ascending inside each.
    """

    h1: SparseParityMatrix
    h2: SparseParityMatrix
    model: CorrelationModel
    form: str = FOLDED_Z

    def __post_init__(self):
        if self.form not in (EXPLICIT_Z, FOLDED_Z):
            raise ValueError(f"unknown graph form {self.form!r}")

    @property
    def explicit(self) -> bool:
        return self.form == EXPLICIT_Z

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
    def var_count(self) -> int:
        return (3 if self.explicit else 2) * self.n

    @property
    def num_edges(self) -> int:
        return len(self.edge_var)

    @cached_property
    def _edges(self):
        n, m1, m2 = self.n, self.m1, self.m2
        edge_var, edge_check = [], []
        for j, row in enumerate(rows_of(self.h1)):
            edge_var.extend(row)
            edge_check.extend([j] * len(row))
        for k, row in enumerate(rows_of(self.h2)):
            edge_var.extend(n + i for i in row)
            edge_check.extend([m1 + k] * len(row))
        for i in range(n):
            attached = (i, n + i, 2 * n + i) if self.explicit else (i, n + i)
            edge_var.extend(attached)
            edge_check.extend([m1 + m2 + i] * len(attached))
        return np.array(edge_var, dtype=np.int64), np.array(edge_check, dtype=np.int64)

    @property
    def edge_var(self) -> np.ndarray:
        return self._edges[0]

    @property
    def edge_check(self) -> np.ndarray:
        return self._edges[1]

    @cached_property
    def priors(self) -> np.ndarray:
        """One LLR per variable: 0 on u1 and u2, the hidden-bit LLR on z."""
        priors = np.zeros(self.var_count)
        priors[2 * self.n :] = hidden_llr(self.model)
        return priors

    @cached_property
    def check_factor(self) -> np.ndarray:
        """f of every check: 1, but tanh(llr/2) on folded correlation checks."""
        factor = np.ones(self.check_count)
        if not self.explicit:
            factor[self.num_code_checks :] = np.tanh(hidden_llr(self.model) * 0.5)
        return factor


def _degree_groups(edge_check: np.ndarray, count: int):
    """(degree, slot_matrix) pairs: one row per check of that degree holding
    the positions of its edges in the check-major edge lists."""
    degrees = np.bincount(edge_check, minlength=count)
    starts = np.concatenate(([0], np.cumsum(degrees)))
    groups = []
    for d in np.unique(degrees):
        if d == 0:
            continue
        slots = starts[:-1][degrees == d][:, None] + np.arange(d)[None, :]
        groups.append((int(d), slots))
    return groups


def decode_reference(graph, s1, s2, config=None, hook=None) -> DecodeResult:
    """Flooding belief propagation on a ``ReferenceGraph``; any other graph,
    such as a ``JointTannerGraph``, is decoded on the folded
    ``ReferenceGraph`` of its codes and model."""
    if not isinstance(graph, ReferenceGraph):
        graph = ReferenceGraph(graph.h1, graph.h2, graph.model)
    if config is None:
        config = DecoderConfig()
    s1 = as_bit_array(s1, graph.m1)
    s2 = as_bit_array(s2, graph.m2)
    n = graph.n
    edge_var = graph.edge_var
    priors = graph.priors
    check_groups = _degree_groups(graph.edge_check, graph.check_count)
    check_factor = graph.check_factor

    parity = np.zeros(graph.check_count)
    parity[: graph.m1] = s1
    parity[graph.m1 : graph.num_code_checks] = s2
    edge_scale = ((1.0 - 2.0 * parity) * check_factor)[graph.edge_check]
    syndrome_bits = np.concatenate([s1, s2]).astype(np.int64)
    code_edges = slice(0, len(graph.h1.entries[0]) + len(graph.h2.entries[0]))

    posteriors = priors
    c2v = np.zeros(graph.num_edges)
    converged = False
    iterations_used = 0

    for iteration in range(1, config.max_iterations + 1):
        v2c = posteriors[edge_var] - c2v
        np.clip(v2c, -LLR_MAX, LLR_MAX, out=v2c)

        t = np.tanh(v2c * 0.5)
        excl = np.ones_like(t)
        for degree, slots in check_groups:
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

        if hook is not None:
            hook(
                Snapshot(
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
        converged=converged,
        iterations_used=iterations_used,
        build_posteriors=partial(np.asarray, posteriors[: 2 * n].copy()),
    )
