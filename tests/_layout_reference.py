"""The decode kernel's layout of a graph, built by plain loops, kept as a
test oracle.

The position-major order of ``swldpc.decoder._KernelPlan``. Checks come in
sections (a code's rows, or the correlation checks), and each section is
grouped on its own: by degree, in the order in which the degrees first
appear down the section, each group's checks in ascending order. A group
of degree d lists entry 0 of each of its checks, then entry 1 of each, up
to entry d - 1, one slot per edge; checks without entries have no slots.
Every variable lists the slots of its edges in check-major order; the
variables are ordered by degree, lightest first, ties by id, and row k of
the staircase holds the k-th slot of every variable that has more than k.
"""

from __future__ import annotations

from dataclasses import dataclass

from _strategies import rows_of


@dataclass(frozen=True)
class LayoutReference:
    """``slot_var`` and ``slot_check`` give the variable and the check of
    every slot; ``check_groups`` one ``(degree, start, stop)`` slot range per
    group; ``edge_slot`` the slot of every edge in check-major order;
    ``var_slots`` the slots of every variable's edges, in check-major order;
    ``var_order`` the variables by degree, lightest first; ``staircase`` its
    rows; ``empty_checks`` the checks without entries."""

    slot_var: list
    slot_check: list
    check_groups: list
    edge_slot: list
    var_slots: list
    var_order: list
    staircase: list
    empty_checks: list


def _by_degree(degrees):
    """``(degree, ids)`` pairs, degrees in order of first appearance."""
    return [(d, [i for i, e in enumerate(degrees) if e == d]) for d in dict.fromkeys(degrees)]


def kernel_layout_reference(sections, num_vars) -> LayoutReference:
    """The layout of checks given as ``sections``, each a list of checks in
    check-major order, each check the ascending tuple of its variables;
    checks are numbered across the sections in order."""
    slot_var, slot_check, check_groups, empty_checks = [], [], [], []
    slot_of = {}  # (check, entry) -> slot
    first = 0
    for section in sections:
        for degree, members in _by_degree([len(check) for check in section]):
            if degree == 0:
                empty_checks.extend(first + i for i in members)
                continue
            start = len(slot_var)
            for k in range(degree):
                for i in members:
                    slot_of[(first + i, k)] = len(slot_var)
                    slot_var.append(section[i][k])
                    slot_check.append(first + i)
            check_groups.append((degree, start, len(slot_var)))
        first += len(section)

    edge_slot, var_slots = [], [[] for _ in range(num_vars)]
    checks = [check for section in sections for check in section]
    for c, check in enumerate(checks):
        for k, v in enumerate(check):
            edge_slot.append(slot_of[(c, k)])
            var_slots[v].append(slot_of[(c, k)])
    var_order = sorted(range(num_vars), key=lambda v: (len(var_slots[v]), v))
    staircase = []
    for k in range(max((len(slots) for slots in var_slots), default=0)):
        staircase.append([var_slots[v][k] for v in var_order if len(var_slots[v]) > k])
    return LayoutReference(
        slot_var, slot_check, check_groups, edge_slot, var_slots, var_order, staircase,
        empty_checks,
    )


def code_sections(h):
    """The one section of a code's rows."""
    return [list(rows_of(h))]


def joint_sections(h1, h2):
    """The sections of the folded joint graph: h1's rows, h2's rows over
    the u2 block, then the correlation checks, u1[i] and u2[i]."""
    n = h1.n
    return [
        list(rows_of(h1)),
        [tuple(n + v for v in row) for row in rows_of(h2)],
        [(i, n + i) for i in range(n)],
    ]
