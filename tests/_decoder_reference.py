"""Reference flooding decoder with fancy-index degree groups, kept as a test oracle.

This is the plain form of the loop that :func:`swldpc.decoder.decode` runs on
contiguous views: every check-degree group is gathered into a slot matrix,
its leave-one-out products come from two ``np.cumprod`` calls, and the
convergence test counts each code check's ones with a float ``bincount``.
The differential tests require ``decode`` to return bit-identical results and
hook snapshots, so this file must keep the arithmetic exactly as it is.
"""

from __future__ import annotations

import numpy as np

from swldpc import LLR_MAX, DecodeResult, DecoderConfig, IterationInfo
from swldpc.decoder import FOLDED_Z
from swldpc.ldpc import as_bit_array

_TANH_LIMIT = float(np.tanh(LLR_MAX * 0.5))


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


def decode_reference(graph, s1, s2, config=None, iteration_hook=None) -> DecodeResult:
    if config is None:
        config = DecoderConfig()
    s1 = as_bit_array(s1, graph.m1)
    s2 = as_bit_array(s2, graph.m2)
    n = graph.n
    edge_var = graph.edge_var
    priors = graph.priors
    check_groups = _degree_groups(graph.edge_check, graph.check_count)
    check_factor = np.ones(graph.check_count)
    if graph.form == FOLDED_Z:
        check_factor[graph.num_code_checks :] = np.tanh(graph.corr_param * 0.5)

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
