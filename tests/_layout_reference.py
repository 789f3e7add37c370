"""Check-degree groups of a check-major edge list, kept as a test oracle.

The edge-based form of ``swldpc.graph._group_checks``: it reads the check
of every edge instead of each check's degree, ranks every edge by the
order in which its check's degree first appears along the edge lists, and
sorts the edges stably by that rank.
"""

from __future__ import annotations

import numpy as np


def flood_layout_reference(edge_check: np.ndarray, check_count: int):
    """``(check_groups, group_order)`` of check-major edges.

    ``check_groups`` holds one ``(degree, start, stop)`` range per degree,
    in the order in which the degrees first appear along the edge lists,
    of the edges stably sorted by that order; ``group_order`` is the sort
    as an edge permutation, or None when the edges are already grouped.
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
    return tuple(check_groups), group_order
