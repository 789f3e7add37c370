"""The joint graph and its decoder, ``swldpc.decoder``, against the oracles
under ``tests/``: the reference graph and loop in ``_decoder_reference``,
which also builds the explicit graph of the paper, the exact marginals in
``_exact_reference`` and the plain-loop layout in ``_layout_reference``."""

import dataclasses
import inspect
import pickle
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swldpc import (
    FOLDED_Z,
    LLR_MAX,
    CorrelationModel,
    DecodeResult,
    DecoderConfig,
    JointTannerGraph,
    SimConfig,
    SparseParityMatrix,
    build_joint_graph,
    decode,
    gallager_construct,
    hidden_llr,
    identity_matrix,
    load_alist,
    run_trials,
    sample_pair,
    save_alist,
    syndrome,
)
import swldpc
from swldpc import decoder as decoder_module
from swldpc import sim as sim_module
from swldpc.decoder import _IDENTITY_BY_BIT, _TANH_LIMIT, _KernelPlan
from swldpc.ldpc import _row_parity

from _decoder_reference import (
    EXPLICIT_Z,
    ReferenceGraph,
    decode_reference,
    hooked_decode,
    kernel_snapshots,
)
from _exact_reference import brute_force_marginals, is_cycle_free
from _forest import random_forest_instance
from _layout_reference import code_sections, joint_sections, kernel_layout_reference
from _strategies import mixed_weight_matrices, rows_of

LN_9 = 2.1972245773362196


def _corner_instance(n, p, seed, code_seed=7):
    h1 = identity_matrix(n)
    h2 = gallager_construct(n, 3, 6, seed=code_seed)
    model = CorrelationModel(p)
    pair = sample_pair(model, n, seed=seed)
    graph = build_joint_graph(h1, h2, model)
    return graph, h1, h2, pair, syndrome(h1, pair.u1), syndrome(h2, pair.u2)


H1 = identity_matrix(2)
H2 = SparseParityMatrix.from_rows(2, ((0, 1),))
MODEL = CorrelationModel(0.9)


class TestBuild:
    def test_folded_shape(self):
        g = build_joint_graph(H1, H2, MODEL)
        assert g.form == FOLDED_Z
        assert (g.n, g.m1, g.m2) == (2, 2, 1)
        assert g.num_edges == 2 + 2 + 2 * 2
        reference = ReferenceGraph(H1, H2, MODEL)
        assert (reference.var_count, reference.check_count, reference.num_code_checks) == (4, 5, 3)
        assert reference.num_edges == g.num_edges

    def test_explicit_shape(self):
        g = ReferenceGraph(H1, H2, MODEL, EXPLICIT_Z)
        assert g.var_count == 6
        assert g.check_count == 5
        assert g.num_edges == 2 + 2 + 3 * 2

    def test_explicit_correlation_adjacency(self):
        h2 = gallager_construct(12, 3, 6, seed=2)
        g = ReferenceGraph(identity_matrix(12), h2, MODEL, EXPLICIT_Z)
        for i in range(g.n):
            check = g.m1 + g.m2 + i
            attached = sorted(g.edge_var[g.edge_check == check])
            assert attached == [i, g.n + i, 2 * g.n + i]

    def test_priors(self, monkeypatch):
        llr = hidden_llr(MODEL)
        explicit = ReferenceGraph(H1, H2, MODEL, EXPLICIT_Z)
        assert not explicit.priors[:4].any()
        assert np.all(explicit.priors[4:] == llr)
        # the folded graph carries the hidden-bit LLR as its correlation
        # checks' factor f = tanh(llr/2)
        graph = build_joint_graph(H1, H2, MODEL)
        assert not hasattr(graph, "corr_param")
        assert graph._plan.corr_factor == graph._corr_factor == np.tanh(llr / 2)
        # f is computed once per graph, however many plans and frames read it
        calls = []
        monkeypatch.setattr(decoder_module, "hidden_llr", lambda model: calls.append(model) or llr)
        graph = build_joint_graph(H1, H2, MODEL)
        configs = DecoderConfig(max_iterations=5, early_stop=False), DecoderConfig(damping=0.3)
        for config in configs:
            for s2 in ([0], [1]):
                decode(graph, [1, 0], s2, config, trace=True)
                decode(graph, [1, 0], s2, config).posterior_llrs
        assert {"_plan", "_known_u1", "_known_u1_priors"} <= set(vars(graph))
        assert calls == [MODEL]

    def test_degrees(self):
        g = build_joint_graph(H1, H2, MODEL)
        reference = ReferenceGraph(H1, H2, MODEL)
        assert np.bincount(reference.edge_check).tolist() == [1, 1, 2, 2, 2]
        assert np.bincount(g.edge_var).tolist() == [2, 2, 2, 2]

    def test_build_joint_graph_is_the_class(self):
        assert build_joint_graph is JointTannerGraph
        g = JointTannerGraph(H1, H2, MODEL)
        assert (g.h1, g.h2, g.model, g.form) == (H1, H2, MODEL, FOLDED_Z)
        # the field order before build_joint_graph became the class fails on
        # the form, the first field checked
        with pytest.raises(ValueError, match="unknown graph form SparseParityMatrix"):
            JointTannerGraph(FOLDED_Z, MODEL, H1, H2)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="codes disagree on block length: 3 vs 2"):
            build_joint_graph(identity_matrix(3), H2, MODEL)
        # a corner graph over an h2 of half the length, every field by name
        h1, h2 = identity_matrix(64), gallager_construct(32, 3, 6, seed=1)
        with pytest.raises(ValueError, match="codes disagree on block length: 64 vs 32"):
            JointTannerGraph(form=FOLDED_Z, model=MODEL, h1=h1, h2=h2)

    @pytest.mark.parametrize("form", ["explicit", "implicit", "Folded", None])
    def test_rejects_unknown_form(self, form):
        # the explicit form of the paper is a test oracle only
        with pytest.raises(ValueError, match=re.escape(f"unknown graph form {form!r}")):
            build_joint_graph(H1, H2, MODEL, form=form)

    @pytest.mark.parametrize(
        "model", [0.9, None, "0.9", hidden_llr(MODEL)], ids=["p", "none", "str", "llr"]
    )
    def test_rejects_a_model_that_is_not_a_correlation_model(self, model):
        message = re.escape(f"model must be a CorrelationModel, got {model!r}")
        with pytest.raises(ValueError, match=message):
            build_joint_graph(H1, H2, model)

    @pytest.mark.parametrize("name", ["h1", "h2"])
    @pytest.mark.parametrize(
        "code", [None, np.eye(2, dtype=np.uint8), [(0,), (1,)]], ids=["none", "dense", "rows"]
    )
    def test_rejects_a_code_that_is_not_a_matrix(self, name, code):
        """Refused where it is passed, not where its block length is read."""
        codes = {"h1": H1, "h2": H2, name: code}
        message = re.escape(f"{name} must be a SparseParityMatrix, got {code!r}")
        with pytest.raises(ValueError, match=message):
            JointTannerGraph(codes["h1"], codes["h2"], MODEL)


IRREGULAR = SparseParityMatrix.from_rows(12, [(), (0, 5, 11), (3,), (), (1, 2, 4, 6, 7, 8)])


class TestEdgeLists:
    @pytest.mark.parametrize("form", [EXPLICIT_Z, FOLDED_Z])
    @pytest.mark.parametrize(
        "h1, h2",
        [
            (identity_matrix(24), gallager_construct(24, 3, 6, seed=3)),
            (gallager_construct(24, 3, 6, seed=4), gallager_construct(24, 3, 6, seed=3)),
            (IRREGULAR, identity_matrix(12)),
            (gallager_construct(12, 3, 6, seed=1), IRREGULAR),
            (IRREGULAR, SparseParityMatrix.from_rows(12, [])),
        ],
    )
    def test_match_per_row_loop(self, h1, h2, form):
        """The graph's edges are the oracle's, in either form, without the
        explicit form's z edges."""
        g = build_joint_graph(h1, h2, MODEL)
        reference = ReferenceGraph(h1, h2, MODEL, form)
        assert g.edge_var.dtype == np.int64
        assert g.edge_var.tolist() == reference.edge_var[reference.edge_var < 2 * g.n].tolist()
        assert g.num_edges == reference.num_edges - (g.n if form == EXPLICIT_Z else 0)


class TestDecodeLayout:
    """The position-major blocks that the decoder reads as contiguous rows."""

    @pytest.mark.parametrize(
        "h1",
        [identity_matrix(1024), gallager_construct(1024, 3, 6, seed=8)],
        ids=["corner", "symmetric"],
    )
    def test_regular_graphs_need_no_permutation(self, h1):
        g = build_joint_graph(h1, gallager_construct(1024, 3, 6, seed=7), MODEL)
        plan = g._plan
        # regular columns: the kernel numbers the variables by their ids
        assert plan.variables is None
        ranges = [(start, stop) for _, start, stop in plan.check_groups]
        # the ranges tile [0, num_edges) once, in order
        assert [start for start, _ in ranges] == [0] + [stop for _, stop in ranges[:-1]]
        assert ranges[-1][1] == g.num_edges
        # the codes' row blocks, h1's then h2's, then the correlation checks
        blocks = [block for block, _ in g.h1._row_blocks]
        blocks += [block + g.n for block, _ in g.h2._row_blocks]
        assert [d for d, _, _ in plan.check_groups] == [len(block) for block in blocks] + [2]
        # the convergence test's groups are the code blocks, with their rows;
        # no row is empty, so no group of degree 0 follows
        rows = [rows for _, rows in g.h1._row_blocks]
        rows += [rows + g.m1 for _, rows in g.h2._row_blocks]
        assert [(d, start) for d, start, _ in plan.parity_groups] == [
            (d, start) for d, start, _ in plan.check_groups[:-1]
        ]
        assert all(np.array_equal(got, want) for (_, _, got), want in zip(plan.parity_groups, rows))
        assert plan.corr_factor == g._corr_factor
        corr = np.arange(2 * g.n)
        want = np.concatenate([block.ravel() for block in blocks] + [corr])
        assert np.array_equal(plan.edge_var, want)

    @pytest.mark.parametrize(
        "h1, h2",
        [
            (identity_matrix(24), gallager_construct(24, 3, 6, seed=3)),
            (IRREGULAR, identity_matrix(12)),
            (gallager_construct(12, 3, 6, seed=1), IRREGULAR),
            (IRREGULAR, SparseParityMatrix.from_rows(12, [])),
        ],
    )
    def test_groups_hold_whole_checks_of_their_degree(self, h1, h2):
        g = build_joint_graph(h1, h2, MODEL)
        plan = g._plan
        all_checks = ReferenceGraph(h1, h2, MODEL).edge_check
        # the check and the variable of every slot, through the slot of every edge
        assert sorted(plan.slot_of_edge.tolist()) == list(range(g.num_edges))
        slot_check = np.empty_like(all_checks)
        slot_check[plan.slot_of_edge] = all_checks
        slot_var = np.empty_like(all_checks)
        slot_var[plan.slot_of_edge] = g.edge_var
        assert np.array_equal(_slot_vars(plan), slot_var)
        degrees = np.bincount(all_checks)
        covered = 0
        for degree, start, stop in plan.check_groups:
            assert start == covered
            covered = stop
            block = slot_check[start:stop].reshape(degree, -1)
            # each column is one whole check of this degree, in ascending id
            assert (block == block[:1]).all()
            assert (degrees[block[0]] == degree).all()
            assert (np.diff(block[0]) > 0).all()
            # row k holds entry k of every check: variables ascend down a column
            assert (np.diff(slot_var[start:stop].reshape(degree, -1), axis=0) > 0).all()
        assert covered == g.num_edges
        # the code checks come first, and no block mixes them with the
        # correlation checks: the convergence test's groups are the code
        # blocks, each with the checks of its first row, then the checks of
        # degree 0, only where there are any
        code_slots = 0
        for degree, start, rows in plan.parity_groups:
            if degree:
                assert start == code_slots
                code_slots += degree * len(rows)
                assert np.array_equal(rows, slot_check[start : start + len(rows)])
        assert code_slots == sum(stop - start for _, start, stop in plan.check_groups[:-1])
        assert (slot_check[:code_slots] < g.m1 + g.m2).all()
        assert (slot_check[code_slots:] >= g.m1 + g.m2).all()
        empty = np.flatnonzero(np.bincount(all_checks, minlength=g.m1 + g.m2)[: g.m1 + g.m2] == 0)
        assert [rows.tolist() for d, _, rows in plan.parity_groups if not d] == (
            [empty.tolist()] if len(empty) else []
        )
        # the convergence test's blocks: each code row once, also one
        # without entries, its variables (counted from the code's first
        # variable) down one column
        for h, first_check, first_var in ((g.h1, 0, 0), (g.h2, g.m1, g.n)):
            listed = {}
            for variables, rows in h._row_blocks:
                assert variables.flags.c_contiguous
                assert variables.shape[1] == len(rows)
                for r, column in zip(rows.tolist(), variables.T.tolist()):
                    assert r < h.m and r not in listed
                    listed[r] = column
            assert listed == {
                r: (g.edge_var[all_checks == first_check + r] - first_var).tolist()
                for r in range(h.m)
            }


def _slot_vars(plan):
    """The variable id of every slot of a kernel plan."""
    return plan.edge_var if plan.variables is None else plan.variables[plan.edge_var]


def _assert_layout(plan, want):
    """A kernel plan equals the plain-loop layout oracle ``want``."""
    assert list(plan.check_groups) == want.check_groups
    assert _slot_vars(plan).tolist() == want.slot_var
    # the convergence test's groups: each code block's degree, first slot
    # and checks, then the checks without entries, only where there are any
    code_groups = want.check_groups[: len(want.check_groups) - (plan.corr_factor is not None)]
    parity = [(d, start, want.slot_check[start : start + (stop - start) // d])
              for d, start, stop in code_groups]
    if want.empty_checks:
        parity.append((0, 0, want.empty_checks))
    assert [(d, start, rows.tolist()) for d, start, rows in plan.parity_groups] == parity
    assert plan.slot_of_edge.tolist() == want.edge_slot
    # the variables by degree, and the staircase of their edges' slots
    if want.var_order == sorted(want.var_order):
        assert plan.variables is None
    else:
        assert plan.variables.tolist() == want.var_order
    assert list(plan.var_counts) == [len(row) for row in want.staircase]
    assert plan.var_slots.tolist() == [slot for row in want.staircase for slot in row]
    assert len(plan.var_slots) == len(plan.edge_var)


# row weights 0, 1 and 3 interleaved down the matrix, so that the groups
# are not runs
INTERLEAVED = SparseParityMatrix.from_rows(
    9, [(0, 4, 8), (), (2,), (1, 3, 5), (), (7,), (0, 6, 7), (3,)]
)
# matrices that each draw rows of weights 0, 1 and 3 only
ZERO_ONE_THREE = mixed_weight_matrices(max_n=12, weights=(0, 1, 3))


def _code_plan(h):
    """The kernel plan of the H2-only graph over h."""
    return _KernelPlan(h._row_blocks, None, h.n, *h._slots)


class TestKernelPlan:
    """The kernel plans, over one code and over the joint graph, against
    the plain-loop layout in ``tests/_layout_reference.py``; the code plan's
    slots are the code's row blocks (``ldpc._degree_groups``)."""

    @pytest.mark.parametrize(
        "h",
        [
            IRREGULAR,
            SparseParityMatrix.from_rows(12, []),
            SparseParityMatrix.from_rows(5, [(), (), ()]),
            SparseParityMatrix.from_rows(6, [(0, 1), (2,), (3, 4), (5,), (0, 2, 4)]),
            INTERLEAVED,
            gallager_construct(1024, 3, 6, seed=7),
            identity_matrix(64),
        ],
        ids=["irregular", "no-rows", "all-empty", "weights-out-of-order", "interleaved",
             "regular", "identity"],
    )
    def test_code_plans(self, h):
        plan = _code_plan(h)
        _assert_layout(plan, kernel_layout_reference(code_sections(h), h.n))
        # the slots are the code's row blocks, raveled one after another
        blocks = [block.ravel() for block, _ in h._row_blocks]
        assert np.array_equal(_slot_vars(plan), np.concatenate(blocks + [np.zeros(0, int)]))
        assert plan.slot_of_edge is h._slots[0]

    @settings(max_examples=100, deadline=None)
    @given(h=st.one_of(mixed_weight_matrices(), ZERO_ONE_THREE))
    @example(h=INTERLEAVED)
    def test_code_plan_is_the_flood_layout_of_the_entries(self, h):
        plan = _code_plan(h)
        _assert_layout(plan, kernel_layout_reference(code_sections(h), h.n))
        # the row blocks of the same weights come in the same order, the
        # rows without entries, which have no edges, left out
        weights = [len(block) for block, _ in h._row_blocks]
        assert [degree for degree, _, _ in plan.check_groups] == [w for w in weights if w]
        assert sorted(weights) == sorted(set(len(row) for row in rows_of(h)))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_joint_plan_is_the_flood_layout_of_the_edges(self, data):
        h1 = data.draw(st.one_of(mixed_weight_matrices(), ZERO_ONE_THREE), label="h1")
        pools = [mixed_weight_matrices(n=h1.n, weights=w) for w in (None, (0, 1, 3))]
        h2 = data.draw(st.one_of(pools), label="h2")
        g = build_joint_graph(h1, h2, MODEL)
        plan = g._plan
        assert g.num_edges == len(g.edge_var) == len(plan.edge_var)
        _assert_layout(plan, kernel_layout_reference(joint_sections(h1, h2), 2 * h1.n))


# messages and priors of either sign, zeros of both signs often among them
_SIGNED_VALUES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-15.0, 15.0))


def _drawn_plan(data):
    """A drawn code with interleaved row and column weights, and either its
    H2-only plan or the plan of a joint graph over it and a second code:
    the plan, the check-major edge list and the codes with their first
    variables."""
    h = data.draw(st.one_of(mixed_weight_matrices(), ZERO_ONE_THREE), label="h")
    if not data.draw(st.booleans(), label="joint"):
        return _code_plan(h), h.entries[0], ((h, 0),)
    h2 = data.draw(mixed_weight_matrices(n=h.n), label="h2")
    g = build_joint_graph(h, h2, MODEL)
    return g._plan, g.edge_var, ((h, 0), (h2, h.n))


class TestKernelSums:
    """The posterior sums and the fused convergence test on the
    position-major layout, against ``np.bincount`` over the check-major
    edges and against ``ldpc._row_parity``, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_posterior_sum_is_the_bincount_plus_the_priors(self, data):
        plan, edge_var, codes = _drawn_plan(data)
        num_vars = sum(h.n for h, _ in codes)
        c2v = np.array(data.draw(st.lists(_SIGNED_VALUES, min_size=len(edge_var),
                                          max_size=len(edge_var)), label="c2v"))
        priors = np.array(data.draw(st.lists(_SIGNED_VALUES, min_size=num_vars,
                                             max_size=num_vars), label="priors"))
        by_slot = np.empty_like(c2v)
        by_slot[plan.slot_of_edge] = c2v
        workspace = decoder_module._Workspace(plan)
        np.add(plan.kernel_order(priors), 0.0, out=workspace.base)  # as _flood sets it
        got = plan.by_id(decoder_module._sum_messages(workspace, by_slot, 0))
        want = np.bincount(edge_var, weights=c2v, minlength=num_vars) + priors
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_fused_count_is_the_row_parity_count(self, data):
        """Two frames loaded in turn on one workspace: each count, and each
        edge sign, is that of the frame loaded last."""
        plan, _, codes = _drawn_plan(data)
        num_vars = sum(h.n for h, _ in codes)
        posteriors = np.array(data.draw(st.lists(_SIGNED_VALUES, min_size=num_vars,
                                                 max_size=num_vars), label="posteriors"))
        frames = [
            [np.array(data.draw(st.lists(st.integers(0, 1), min_size=h.m, max_size=h.m),
                                label="bits"), dtype=np.uint8) for h, _ in codes]
            for _ in range(2)
        ]
        hard = posteriors < 0
        workspace = decoder_module._Workspace(plan)
        # the posteriors gathered to the slots, as the kernel gathers them
        plan.kernel_order(posteriors).take(plan.edge_var, out=workspace.t)
        for bits in (frames[0], frames[1], frames[0]):
            want = sum(
                int(np.count_nonzero(_row_parity(h, hard[first : first + h.n]) != s))
                for (h, first), s in zip(codes, bits)
            )
            workspace.load(np.concatenate(bits))
            assert workspace.unsatisfied() == want
            assert workspace.unsatisfied() == want  # the buffers are reused
            assert workspace.signs.tobytes() == _edge_signs(plan, codes, bits).tobytes()


def _edge_signs(plan, codes, bits):
    """Every slot's target-parity sign times its check factor: 1 - 2b for a
    code check with syndrome bit b, f of ``MODEL`` for a correlation check
    (a joint plan's checks after the codes')."""
    checks = np.concatenate([h.entries[1] + sum(g.m for g, _ in codes[:k])
                             for k, (h, _) in enumerate(codes)])
    signs = np.full(len(plan.edge_var), np.tanh(hidden_llr(MODEL) * 0.5))
    signs[plan.slot_of_edge[: len(checks)]] = 1.0 - 2.0 * np.concatenate(bits)[checks]
    return signs


class TestFold:
    def test_fold_matches_direct_build(self):
        # the folded form is the explicit form without the z block
        for h2 in (H2, gallager_construct(24, 3, 6, seed=3)):
            h1 = identity_matrix(h2.n)
            explicit = ReferenceGraph(h1, h2, MODEL, EXPLICIT_Z)
            folded = ReferenceGraph(h1, h2, MODEL)
            keep = explicit.edge_var < 2 * h2.n
            assert np.array_equal(explicit.edge_var[keep], folded.edge_var)
            assert np.array_equal(explicit.edge_check[keep], folded.edge_check)
            assert np.array_equal(explicit.priors[: 2 * h2.n], folded.priors)
            assert np.array_equal(folded.edge_var, build_joint_graph(h1, h2, MODEL).edge_var)


class TestSerialize:
    """The edge lists of the smallest corner graph, spelled out by hand."""

    def test_golden_folded(self):
        g = build_joint_graph(H1, H2, MODEL)
        assert g.edge_var.tolist() == [0, 1, 2, 3, 0, 2, 1, 3]
        assert ReferenceGraph(H1, H2, MODEL).edge_check.tolist() == [0, 1, 2, 2, 3, 3, 4, 4]
        assert hidden_llr(g.model) == 2.1972245773362196


class TestCycleFree:
    def test_chain_is_a_tree(self):
        assert is_cycle_free(ReferenceGraph(H1, H2, MODEL))
        assert is_cycle_free(ReferenceGraph(H1, H2, MODEL, EXPLICIT_Z))

    def test_repeated_row_creates_a_cycle(self):
        h2 = SparseParityMatrix.from_rows(2, ((0, 1), (0, 1)))
        assert not is_cycle_free(ReferenceGraph(H1, h2, MODEL))

    def test_regular_code_graph_is_loopy(self):
        h2 = gallager_construct(24, 3, 6, seed=1)
        assert not is_cycle_free(ReferenceGraph(identity_matrix(24), h2, MODEL))


class TestKnownU1:
    """The pass that takes a known u1 block out of the joint graph."""

    H2 = gallager_construct(64, 3, 6, seed=3)

    @pytest.mark.parametrize(
        "h1", [identity_matrix(64), load_alist(save_alist(identity_matrix(64)))],
        ids=["built", "alist"],
    )
    def test_applies_to_the_corner_graph(self, h1):
        g = build_joint_graph(h1, self.H2, CorrelationModel(0.96))
        plan = g._known_u1
        assert isinstance(plan, _KernelPlan) and g._known_u1 is plan  # built once
        assert g.num_edges == 6 * 64 and len(plan.edge_var) == 3 * 64
        # the slots are h2's one row block, variables numbered from u2's first
        (block, _), = self.H2._row_blocks
        assert np.array_equal(plan.edge_var, block.ravel()) and plan.variables is None
        assert plan.check_groups == ((6, 0, 3 * 64),) and plan.corr_factor is None
        (degree, start, rows), = plan.parity_groups
        assert (degree, start) == (6, 0) and rows is self.H2._row_blocks[0][1]
        assert plan.slot_of_edge is self.H2._slots[0]
        # q is the correlation check's message, not the hidden-bit LLR
        q = 3.1780538303457027
        priors = g._known_u1_priors
        assert priors.tolist() == [q, -q] and g._known_u1_priors is priors  # built once
        assert hidden_llr(CorrelationModel(0.96)) == 3.1780538303479444
        # no joint structure is built
        assert list(vars(g)) == [
            "h1", "h2", "model", "form", "_known_u1", "_corr_factor", "_known_u1_priors"
        ]

    def test_permuted_identity(self):
        # the identity's rows in another order run on the joint graph, which
        # decodes them as well
        perm = [3, 0, 2, 1]
        h1 = SparseParityMatrix.from_rows(4, [(i,) for i in perm])
        h2 = SparseParityMatrix.from_rows(4, ((0, 1, 2), (1, 2, 3)))
        graph = build_joint_graph(h1, h2, MODEL)
        assert graph._known_u1 is None
        for u1, s2 in (([1, 0, 1, 1], [1, 0]), ([0, 1, 1, 0], [0, 1]), ([0, 0, 0, 1], [0, 0])):
            s1 = syndrome(h1, u1)
            for config in (DecoderConfig(), DecoderConfig(max_iterations=2, early_stop=False)):
                result = _assert_same_result(graph, s1, s2, config)
                assert result.u1_hat.tolist() == u1

    def test_u1_keeps_the_sign_of_s1(self):
        """The largest correlation message to u1, 2 atanh(|f| tanh(LLR_MAX/2)),
        stays below the identity check's c_id for every model, so u1's hard
        decisions equal s1 (see the decoder module)."""
        c_id = _IDENTITY_BY_BIT[0]
        assert _IDENTITY_BY_BIT.tolist() == [c_id, -c_id]
        assert c_id == np.arctanh(_TANH_LIMIT) * 2.0

        def bound(p):
            factor = np.tanh(hidden_llr(CorrelationModel(p)) * 0.5)
            assert abs(factor) <= _TANH_LIMIT
            return np.arctanh(abs(factor) * _TANH_LIMIT) * 2.0

        # both clamped extremes: 29.31 against 29.9998
        for p in (1e-16, 1 - 1e-16, 1 - 1e-14, 1e-300):
            assert abs(hidden_llr(CorrelationModel(p))) == LLR_MAX
            assert round(bound(p), 4) == 29.3067 and round(c_id, 4) == 29.9998
        grid = np.concatenate([np.linspace(0.001, 0.999, 999), np.logspace(-15, -1, 57)])
        for p in np.concatenate([grid, 1.0 - grid]).tolist():
            assert bound(p) < c_id

    @pytest.mark.parametrize(
        "h1, h2",
        [
            # the identity's first n - 1 rows leave u1 variable 3 unpinned
            (
                SparseParityMatrix.from_rows(4, ((0,), (1,), (2,))),
                SparseParityMatrix.from_rows(4, ((0, 1, 2),)),
            ),
            (gallager_construct(12, 3, 6, seed=2), gallager_construct(12, 3, 6, seed=1)),
            # u1 variable 0 has a second code edge
            (
                SparseParityMatrix.from_rows(4, ((0, 1), (1,), (2,), (3,))),
                SparseParityMatrix.from_rows(4, ((0, 1, 2),)),
            ),
            # an h1 row without entries leaves u1 variable 1 unpinned
            (
                SparseParityMatrix.from_rows(4, ((0,), (), (2,), (3,))),
                SparseParityMatrix.from_rows(4, ((0, 1, 2),)),
            ),
            (identity_matrix(4), SparseParityMatrix.from_rows(4, ((0, 1, 2), (3,)))),
            (identity_matrix(4), SparseParityMatrix.from_rows(4, ((), ()))),
        ],
        ids=["h1-missing-row", "symmetric", "u1-degree-2", "h1-empty-row", "h2-degree-1",
             "h2-no-entries"],
    )
    def test_does_not_apply(self, h1, h2):
        g = build_joint_graph(h1, h2, MODEL)
        assert g._known_u1 is None
        assert "_known_u1" in vars(g)  # None is cached too

    def test_applies_with_an_empty_h2_row(self):
        h2 = SparseParityMatrix.from_rows(4, ((0, 1, 2), (), (1, 3)))
        plan = build_joint_graph(identity_matrix(4), h2, MODEL)._known_u1
        assert plan is not None and len(plan.edge_var) == 5


class TestConfig:
    def test_defaults(self):
        config = DecoderConfig()
        assert config.max_iterations == 100
        assert config.damping == 0.0
        assert config.early_stop

    def test_validation(self):
        with pytest.raises(ValueError):
            DecoderConfig(max_iterations=0)
        with pytest.raises(ValueError):
            DecoderConfig(damping=1.0)
        with pytest.raises(ValueError):
            DecoderConfig(damping=-0.1)

    @pytest.mark.parametrize("damping", ["0.1", None, float("nan"), 1.0, False, True])
    def test_damping_must_be_a_number_in_range(self, damping):
        message = re.escape(f"damping must lie in [0, 1), got {damping!r}")
        with pytest.raises(ValueError, match=message):
            DecoderConfig(damping=damping)
        assert DecoderConfig(damping=np.float64(0.25)).damping == 0.25

    @pytest.mark.parametrize("count", [True, 10.0])
    def test_iteration_cap_must_be_an_integer(self, count):
        message = f"max_iterations must be a positive integer, got {count}"
        with pytest.raises(ValueError, match=message):
            DecoderConfig(max_iterations=count)

    @pytest.mark.parametrize(
        "early_stop", ["no", None, 0, 1, 1.0, np.int64(1)],
        ids=["str", "none", "int-0", "int-1", "float", "numpy-int"],
    )
    def test_early_stop_must_be_a_bool(self, early_stop):
        message = re.escape(f"early_stop must be a bool, got {early_stop!r}")
        with pytest.raises(ValueError, match=message):
            DecoderConfig(early_stop=early_stop)

    @pytest.mark.parametrize(
        "early_stop", [False, np.bool_(False), True, np.bool_(True)],
        ids=["false", "numpy-false", "true", "numpy-true"],
    )
    def test_early_stop_takes_numpy_bools(self, early_stop):
        config = DecoderConfig(early_stop=early_stop)
        assert config.early_stop is bool(early_stop)
        assert config == DecoderConfig(early_stop=bool(early_stop))

    @pytest.mark.parametrize(
        "config", [5, {"max_iterations": 5}, "default"], ids=["int", "dict", "str"]
    )
    def test_decode_rejects_a_config_that_is_not_a_decoder_config(self, config):
        s1, s2 = np.zeros(H1.m, np.uint8), np.zeros(H2.m, np.uint8)
        message = re.escape(f"config must be a DecoderConfig, got {config!r}")
        with pytest.raises(ValueError, match=message):
            decode(build_joint_graph(H1, H2, MODEL), s1, s2, config)

    @pytest.mark.parametrize(
        "graph",
        [None, (H1, H2, MODEL), ReferenceGraph(H1, H2, MODEL)],
        ids=["none", "fields", "reference-graph"],
    )
    def test_decode_rejects_a_graph_that_is_not_a_joint_graph(self, graph):
        s1, s2 = np.zeros(H1.m, np.uint8), np.zeros(H2.m, np.uint8)
        message = re.escape(f"graph must be a JointTannerGraph, got {graph!r}")
        with pytest.raises(ValueError, match=message):
            decode(graph, s1, s2)


class TestSingleBit:
    """n = 1, u1 pinned by its syndrome, u2 informed only by correlation."""

    def _setup(self):
        h1 = identity_matrix(1)
        h2 = SparseParityMatrix.from_rows(1, ())
        graph = build_joint_graph(h1, h2, CorrelationModel(0.9))
        return graph

    def test_correlation_pulls_u2_toward_u1(self):
        graph = self._setup()
        result = decode(
            graph, [1], [], DecoderConfig(max_iterations=4, early_stop=False)
        )
        assert result.converged
        assert list(result.u1_hat) == [1]
        assert list(result.u2_hat) == [1]
        assert list(result.z_hat) == [0]
        assert result.posterior_llrs[0] < -29.0
        # u2 posterior is the hidden-bit LLR routed through the check
        assert result.posterior_llrs[1] == pytest.approx(-LN_9, abs=1e-9)

    def test_early_stop_keeps_zero_posterior_tie(self):
        # syndromes are satisfied after one iteration, before any
        # correlation message reaches u2; its posterior is exactly 0 and
        # the tie resolves to bit 0
        result = decode(self._setup(), [1], [])
        assert result.iterations_used == 1
        assert result.converged
        assert result.posterior_llrs[1] == 0.0
        assert list(result.u2_hat) == [0]


class TestConvergenceFlag:
    def test_flag_matches_reencoded_syndromes(self):
        saw_converged = saw_failed = False
        for seed in range(12):
            p = (0.85, 0.96)[seed % 2]
            graph, h1, h2, pair, s1, s2 = _corner_instance(64, p, seed=seed)
            result = decode(graph, s1, s2, DecoderConfig(max_iterations=30))
            consistent = np.array_equal(
                syndrome(h1, result.u1_hat), s1
            ) and np.array_equal(syndrome(h2, result.u2_hat), s2)
            assert result.converged == consistent
            assert np.array_equal(result.z_hat, result.u1_hat ^ result.u2_hat)
            saw_converged |= result.converged
            saw_failed |= not result.converged
        assert saw_converged and saw_failed

    def test_z_hat_is_derived(self):
        """z_hat is not a field: it is u1_hat xor u2_hat, built when first
        read and kept, on the known-u1 path and the joint one."""
        names = [f.name for f in dataclasses.fields(DecodeResult)]
        assert names == ["u1_hat", "u2_hat", "converged", "iterations_used", "build_posteriors",
                         "trace"]
        graph, _, _, pair, s1, s2 = _corner_instance(64, 0.96, seed=1)
        for config in (DecoderConfig(), DecoderConfig(damping=0.3)):
            result = decode(graph, s1, s2, config)
            assert result.converged and "z_hat" not in vars(result)
            assert result.z_hat.dtype == np.uint8 and result.z_hat.tolist() == pair.z.tolist()
            assert result.z_hat is result.z_hat

    def test_corner_point_exact_recovery(self):
        for seed in (1, 2, 3, 4, 5):
            graph, _, _, pair, s1, s2 = _corner_instance(256, 0.96, seed=seed)
            result = decode(graph, s1, s2)
            assert result.converged
            assert result.iterations_used <= 50
            assert np.array_equal(result.u1_hat, pair.u1)
            assert np.array_equal(result.u2_hat, pair.u2)
            assert np.array_equal(result.z_hat, pair.z)

    def test_early_stop_off_runs_full_budget(self):
        graph, _, _, _, s1, s2 = _corner_instance(64, 0.96, seed=3)
        config = DecoderConfig(max_iterations=15, early_stop=False)
        result = decode(graph, s1, s2, config)
        assert result.iterations_used == 15

    def test_damping_still_decodes(self):
        graph, _, _, pair, s1, s2 = _corner_instance(256, 0.96, seed=2)
        result = decode(graph, s1, s2, DecoderConfig(damping=0.3))
        assert result.converged
        assert np.array_equal(result.u2_hat, pair.u2)

    def test_rejects_wrong_syndrome_length(self):
        graph, _, _, _, s1, s2 = _corner_instance(64, 0.9, seed=0)
        with pytest.raises(ValueError):
            decode(graph, s1[:-1], s2)
        with pytest.raises(ValueError):
            decode(graph, s1, np.concatenate([s2, [0]]))


class TestIterationHook:
    def test_snapshots_cover_every_iteration(self):
        """The private hook of ``_decode``, and the trace that ``decode``
        returns from it, which is the public way to watch a decode."""
        graph, _, _, _, s1, s2 = _corner_instance(64, 0.96, seed=4)
        snapshots = []
        config = DecoderConfig(max_iterations=25)
        result = hooked_decode(graph, s1, s2, config, snapshots.append)
        assert [info.iteration for info in snapshots] == list(
            range(1, result.iterations_used + 1)
        )
        assert (snapshots[-1].unsatisfied_checks == 0) == result.converged
        assert snapshots[-1].posteriors.shape == (2 * graph.n,)
        assert np.array_equal(snapshots[-1].posteriors, result.posterior_llrs)
        assert all(np.isfinite(info.mean_abs_posterior) for info in snapshots)
        traced = decode(graph, s1, s2, config, trace=True)
        assert traced.trace == tuple(
            (info.unsatisfied_checks, info.mean_abs_posterior) for info in snapshots
        )
        assert result.trace is None and decode(graph, s1, s2, config).trace is None
        # the hook and the trace keep the decode on the known-u1 path
        assert not _JOINT_STRUCTURE & set(vars(graph))

    def test_no_public_hook(self):
        """A decode is watched through its trace alone."""
        assert "IterationInfo" not in swldpc.__all__ and len(swldpc.__all__) == 34
        assert not hasattr(decoder_module, "IterationInfo")
        assert list(inspect.signature(decode).parameters) == [
            "graph", "s1", "s2", "config", "trace"
        ]
        graph, _, _, _, s1, s2 = _corner_instance(64, 0.96, seed=4)
        with pytest.raises(TypeError, match="iteration_hook"):
            decode(graph, s1, s2, iteration_hook=print)
        with pytest.raises(TypeError, match="positional"):
            decode(graph, s1, s2, None, print)  # a hook passed the old way


def _leave_one_out_v2c(graph, c2v):
    """Variable-to-check messages by their definition on a
    ``ReferenceGraph``: the prior plus the incoming check messages of every
    other edge of the variable, clamped."""
    edges_of = {}
    for e, v in enumerate(graph.edge_var):
        edges_of.setdefault(int(v), []).append(e)
    expected = np.empty(graph.num_edges)
    for e, v in enumerate(graph.edge_var):
        total = float(graph.priors[v])
        for other in edges_of[int(v)]:
            if other != e:
                total += float(c2v[other])
        expected[e] = min(max(total, -LLR_MAX), LLR_MAX)
    return expected


class TestVariableUpdate:
    @pytest.mark.parametrize("form", [EXPLICIT_Z, FOLDED_Z])
    @pytest.mark.parametrize("damping", [0.0, 0.3])
    def test_matches_leave_one_out_definition(self, form, damping):
        """The library kernel on the folded joint graph, and the reference
        loop on the explicit graph, whose z variables have degree 1."""
        # identity h1 gives degree-1 checks
        graph, _, _, _, s1, s2 = _corner_instance(32, 0.9, seed=5)
        reference = ReferenceGraph(graph.h1, graph.h2, graph.model, form)
        assert np.bincount(reference.edge_check).min() == 1
        var_degrees = np.bincount(reference.edge_var, minlength=reference.var_count)
        assert (var_degrees.min() == 1) == (form == EXPLICIT_Z)
        snaps = []
        config = DecoderConfig(max_iterations=12, damping=damping, early_stop=False)
        if form == EXPLICIT_Z:
            decode_reference(reference, s1, s2, config, hook=snaps.append)
        else:
            snaps = kernel_snapshots(graph, s1, s2, config)
        assert len(snaps) == 12
        previous = np.zeros(reference.num_edges)
        for info in snaps:
            expected = _leave_one_out_v2c(reference, previous)
            assert np.abs(info.v2c - expected).max() <= 1e-12
            previous = info.c2v


class TestEdgeCases:
    @pytest.mark.parametrize("p", [1 - 1e-14, 1e-14])
    def test_saturated_hidden_llr(self, p):
        model = CorrelationModel(p)
        assert abs(hidden_llr(model)) == LLR_MAX
        graph, _, _, pair, s1, s2 = _corner_instance(64, p, seed=8)
        result = decode(graph, s1, s2)
        assert result.converged
        assert np.array_equal(result.u1_hat, pair.u1)
        assert np.array_equal(result.u2_hat, pair.u2)
        assert np.all(np.isfinite(result.posterior_llrs))

    @pytest.mark.parametrize("form", [EXPLICIT_Z, FOLDED_Z])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_all_zero_syndromes(self, form, symmetric):
        """decode, and the reference loop on the graph of either form."""
        n = 64
        h2 = gallager_construct(n, 3, 6, seed=5)
        h1 = gallager_construct(n, 3, 6, seed=6) if symmetric else identity_matrix(n)
        model = CorrelationModel(0.9)
        runs = [(decode, build_joint_graph(h1, h2, model)),
                (decode_reference, ReferenceGraph(h1, h2, model, form))]
        for run, graph in runs:
            result = run(graph, np.zeros(h1.m, np.uint8), np.zeros(h2.m, np.uint8))
            assert result.converged
            assert result.iterations_used == 1
            assert not result.u1_hat.any()
            assert not result.u2_hat.any()
            assert not result.z_hat.any()
            assert np.all(np.isfinite(result.posterior_llrs))

    def test_graph_without_code_checks(self):
        """h1 and h2 without rows: the workspace holds zero-length bits and
        no parity group, and every frame holds after iteration 1."""
        n = 16
        empty = SparseParityMatrix.from_rows(n, ())
        graph = build_joint_graph(empty, empty, CorrelationModel(0.9))
        bits = np.zeros(0, np.uint8)
        result = decode(graph, bits, bits)
        assert result.converged and result.iterations_used == 1
        workspace, = graph._plan.idle
        assert len(workspace.bits) == len(workspace.check_signs) == 0 and not workspace.parity
        config = DecoderConfig(max_iterations=5, early_stop=False)
        result = _assert_matches_reference(graph, bits, bits, config)
        assert result.converged and result.iterations_used == 5

    def test_saturated_frame_at_iteration_cap_stays_finite(self):
        # the model says u1 == u2 with near certainty while the syndromes
        # say they differ in three bits, so saturated messages conflict
        n = 64
        h1 = identity_matrix(n)
        h2 = gallager_construct(n, 3, 6, seed=7)
        u1 = np.random.default_rng(9).integers(0, 2, n).astype(np.uint8)
        u2 = u1.copy()
        u2[[3, 17, 40]] ^= 1
        graph = build_joint_graph(h1, h2, CorrelationModel(1 - 1e-14))
        s1, s2 = syndrome(h1, u1), syndrome(h2, u2)
        snaps = []
        config = DecoderConfig(max_iterations=100, early_stop=False)
        result = hooked_decode(graph, s1, s2, config, snaps.append)
        assert result.iterations_used == len(snaps) == 100
        assert np.all(np.isfinite(result.posterior_llrs))
        assert all(np.all(np.isfinite(info.posteriors)) for info in snaps)
        # the same frame on the joint graph: the reference loop's variable
        # messages hit the clamp, and the kernel's check messages and
        # posteriors equal the reference loop's bit for bit, which they
        # would not if the kernel clamped its variable messages otherwise
        messages = kernel_snapshots(graph, s1, s2, config)
        ref_snaps = []
        decode_reference(graph, s1, s2, config, hook=ref_snaps.append)
        assert max(np.abs(snap.v2c).max() for snap in ref_snaps) == LLR_MAX
        _assert_same_snapshots(messages, ref_snaps, ("c2v", "posteriors"))
        for snap in messages:
            assert np.all(np.isfinite(snap.posteriors))
            assert np.abs(snap.c2v).max() <= LLR_MAX

    def test_check_messages_stay_inside_the_clamp(self):
        # the atanh argument is at most _TANH_LIMIT in magnitude (see
        # TestTanhBound): 2 atanh of that bound must stay below LLR_MAX
        # through numpy's scalar path and its (vectorised) array path
        assert 2.0 * np.arctanh(np.float64(_TANH_LIMIT)) < LLR_MAX
        edge = np.tile([-_TANH_LIMIT, _TANH_LIMIT], 512)
        fresh = np.arctanh(edge)
        np.multiply(fresh, 2.0, out=fresh)
        assert np.abs(fresh).max() < LLR_MAX
        # damping mixes two such messages
        assert (fresh * 0.7 + fresh * 0.3).max() < LLR_MAX


class TestTanhBound:
    """numpy's tanh never leaves +/- _TANH_LIMIT on the clamped range
    [-LLR_MAX/2, LLR_MAX/2], so no atanh argument can: it is one tanh value
    or a product of them times a sign and a factor |f| <= 1. This is what
    lets the kernel skip any clip of the argument; the tests cover the
    scalar path and the vectorised loops with their tails and unaligned
    starts."""

    LIMIT = LLR_MAX * 0.5  # the kernel's clamp in half-LLR units
    NEAR = np.concatenate(
        [[LIMIT, np.nextafter(LIMIT, 0.0)], np.linspace(14.9, LIMIT, 101)]
    )

    @staticmethod
    def _assert_bounded(x):
        assert np.all(np.tanh(x) <= _TANH_LIMIT)
        assert np.all(np.tanh(-x) >= -_TANH_LIMIT)
        out = np.empty_like(x)
        np.tanh(x, out=out)  # the kernel's call
        assert np.all(out <= _TANH_LIMIT)

    def test_scalar_path(self):
        for x in self.NEAR.tolist():
            for value in (x, np.float64(x)):
                assert np.tanh(value) <= _TANH_LIMIT
                assert np.tanh(-value) >= -_TANH_LIMIT

    @pytest.mark.parametrize("length", range(1, 65))
    def test_array_lengths_and_offsets(self, length):
        near = np.resize(self.NEAR, length)
        for x in (np.full(length, self.LIMIT), near, near[::-1].copy()):
            for offset in range(4):
                # a slice at an offset starts off the vector alignment
                buffer = np.zeros(length + offset)
                buffer[offset:] = x
                self._assert_bounded(buffer[offset:])
        self._assert_bounded(np.resize(self.NEAR, 2 * length)[::2])

    @pytest.mark.parametrize("p", [1e-14, 1 - 1e-14])
    def test_correlation_factor_at_the_llr_clamp(self, p):
        llr = hidden_llr(CorrelationModel(p))
        assert abs(llr) == LLR_MAX
        assert abs(np.tanh(llr * 0.5)) <= _TANH_LIMIT


class TestTreeExactness:
    def test_matches_enumeration_on_forests(self):
        config = DecoderConfig(max_iterations=60, early_stop=False)
        for seed in range(6):
            h1, h2, model, s1, s2 = random_forest_instance(seed)
            oracle = brute_force_marginals(h1, h2, model, s1, s2)
            reference = oracle.posterior_llrs()
            assert is_cycle_free(ReferenceGraph(h1, h2, model))
            result = decode(build_joint_graph(h1, h2, model), s1, s2, config)
            assert result.posterior_llrs == pytest.approx(reference, abs=1e-9)
            explicit = ReferenceGraph(h1, h2, model, EXPLICIT_Z)
            assert is_cycle_free(explicit)
            result = decode_reference(explicit, s1, s2, config)
            assert result.posterior_llrs == pytest.approx(reference, abs=1e-9)


class TestFormEquivalence:
    def test_message_trajectories_agree(self):
        """The library kernel on the folded joint graph against the
        reference loop on the explicit graph of the paper."""
        h1 = identity_matrix(64)
        h2 = gallager_construct(64, 3, 6, seed=3)
        model = CorrelationModel(0.9)
        pair = sample_pair(model, 64, seed=11)
        s1, s2 = syndrome(h1, pair.u1), syndrome(h2, pair.u2)
        config = DecoderConfig(max_iterations=20, early_stop=False)

        explicit = ReferenceGraph(h1, h2, model, EXPLICIT_Z)
        exp_snaps = []
        expected = decode_reference(explicit, s1, s2, config, hook=exp_snaps.append)
        folded = build_joint_graph(h1, h2, model)
        result = decode(folded, s1, s2, config)
        fold_snaps = kernel_snapshots(folded, s1, s2, config)

        shared = explicit.edge_var < 2 * explicit.n  # u1/u2 edges, same order in both forms
        assert len(exp_snaps) == len(fold_snaps) == 20
        for a, b in zip(exp_snaps, fold_snaps):
            assert np.abs(a.v2c[shared] - b.v2c).max() <= 1e-12
            assert np.abs(a.c2v[shared] - b.c2v).max() <= 1e-12
            assert np.abs(a.posteriors - b.posteriors).max() <= 1e-12
        assert np.array_equal(expected.u1_hat, result.u1_hat)
        assert np.array_equal(expected.u2_hat, result.u2_hat)


def _assert_same_decode(result, expected):
    """Two DecodeResults agree bit for bit. ``result``'s posteriors, built
    where they are first read, are kept, and building them again gives the
    same bytes and leaves every hard decision as it was."""
    decisions = ("u1_hat", "u2_hat", "z_hat")
    hard = [getattr(result, name).tobytes() for name in decisions]
    llrs = result.posterior_llrs
    assert result.posterior_llrs is llrs
    assert result.build_posteriors().tobytes() == llrs.tobytes()
    assert [getattr(result, name).tobytes() for name in decisions] == hard
    for name in ("u1_hat", "u2_hat", "z_hat", "posterior_llrs"):
        got, want = getattr(result, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert result.converged == expected.converged
    assert result.iterations_used == expected.iterations_used


def _assert_same_snapshots(snaps, ref_snaps, arrays=("posteriors",)):
    """Two lists of snapshots agree bit for bit: the iteration, its
    unsatisfied checks and mean |posterior|, and the arrays that
    ``arrays`` names."""
    assert len(snaps) == len(ref_snaps)
    for got, want in zip(snaps, ref_snaps):
        assert got.iteration == want.iteration
        assert got.unsatisfied_checks == want.unsatisfied_checks, got.iteration
        assert got.mean_abs_posterior == want.mean_abs_posterior, got.iteration
        for name in arrays:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (
                got.iteration,
                name,
            )


# How far the explicit graph's messages may drift from the folded graph's:
# they differ by the rounding of each z variable's update (its prior plus a
# check message, minus that message), which the iterations carry on; 40
# damped iterations at n = 256 reach 3.6e-12. This is criterion 3's
# tolerance.
_FORM_TOL = 1e-9


def _assert_forms_agree(result, expected, snaps, ref_snaps, shared):
    """A folded decode and an explicit one agree: every decision and count
    exactly, the u1/u2 messages (``shared`` of the explicit edges) and
    the posteriors within ``_FORM_TOL``."""
    for name in ("u1_hat", "u2_hat", "z_hat"):
        assert np.array_equal(getattr(result, name), getattr(expected, name)), name
    assert result.converged == expected.converged
    assert result.iterations_used == expected.iterations_used
    assert np.abs(result.posterior_llrs - expected.posterior_llrs).max() <= _FORM_TOL
    assert len(snaps) == len(ref_snaps)
    for got, want in zip(snaps, ref_snaps):
        assert (got.iteration, got.unsatisfied_checks) == (want.iteration, want.unsatisfied_checks)
        for a, b in ((got.v2c, want.v2c[shared]), (got.c2v, want.c2v[shared]),
                     (got.posteriors, want.posteriors)):
            assert np.abs(a - b).max() <= _FORM_TOL, got.iteration


def _assert_matches_reference(graph, s1, s2, config, form=FOLDED_Z, hooked=True):
    """decode and the reference loop on the graph of ``form`` agree: bit
    for bit on the folded graph, which decode runs, and as
    ``_assert_forms_agree`` says on the explicit one. When ``hooked``, so
    do the snapshots of decode's private hook, and the trace of a traced
    decode, with those of the library kernel on the joint graph
    (``kernel_snapshots``), messages included, which decode may not run;
    decode's private hook shows the kernel's bit for bit."""
    infos, ref_snaps = [], []
    if hooked:
        result = hooked_decode(graph, s1, s2, config, infos.append)
    else:
        result = decode(graph, s1, s2, config)
    assert not np.shares_memory(result.u1_hat, s1)
    reference = ReferenceGraph(graph.h1, graph.h2, graph.model, form)
    expected = decode_reference(reference, s1, s2, config, ref_snaps.append if hooked else None)
    assert len(infos) == (result.iterations_used if hooked else 0)
    snaps = kernel_snapshots(graph, s1, s2, config) if hooked else []
    _assert_same_snapshots(infos, snaps)
    if hooked:
        _assert_same_trace(decode(graph, s1, s2, config, trace=True), result, snaps)
    if form == EXPLICIT_Z:
        _assert_forms_agree(result, expected, snaps, ref_snaps, reference.edge_var < 2 * graph.n)
    else:
        _assert_same_decode(result, expected)
        _assert_same_snapshots(snaps, ref_snaps, ("v2c", "c2v", "posteriors"))
    return result


def _interleaved_code(n, seed):
    """Irregular code whose row degrees (1 to 5, some rows empty) interleave,
    so the check-degree groups are not contiguous in check-major order."""
    rng = np.random.default_rng(seed)
    rows = []
    for j in range(n // 2):
        degree = 0 if j % 7 == 3 else 1 + j % 5
        rows.append(tuple(int(c) for c in rng.choice(n, degree, replace=False)))
    return SparseParityMatrix.from_rows(n, tuple(rows))


def _frame_syndromes(h1, h2, model, seed):
    pair = sample_pair(model, h1.n, seed=seed)
    return syndrome(h1, pair.u1), syndrome(h2, pair.u2)


class TestMatchesReference:
    """The position-major kernel against the slot-matrix reference loop, on
    the folded graph and on the explicit one."""

    @pytest.mark.parametrize("form", [EXPLICIT_Z, FOLDED_Z])
    @pytest.mark.parametrize("p, seeds", [(0.96, (0, 1)), (0.92, (2, 3))])
    def test_corner_point(self, form, p, seeds):
        n = 1024
        h1, h2 = identity_matrix(n), gallager_construct(n, 3, 6, seed=7)
        model = CorrelationModel(p)
        graph = build_joint_graph(h1, h2, model)
        assert graph._plan.variables is None
        outcomes = set()
        for seed in seeds:
            s1, s2 = _frame_syndromes(h1, h2, model, seed)
            result = _assert_matches_reference(graph, s1, s2, DecoderConfig(), form)
            outcomes.add(result.converged)
        # p = 0.92 covers a frame at the iteration cap as well
        assert outcomes == ({True} if p == 0.96 else {True, False})

    @pytest.mark.parametrize("form", [EXPLICIT_Z, FOLDED_Z])
    @pytest.mark.parametrize("damping", [0.0, 0.3])
    def test_damping_and_full_budget(self, form, damping):
        n = 256
        h1, h2 = identity_matrix(n), gallager_construct(n, 3, 6, seed=3)
        model = CorrelationModel(0.93)
        graph = build_joint_graph(h1, h2, model)
        s1, s2 = _frame_syndromes(h1, h2, model, 5)
        config = DecoderConfig(max_iterations=40, damping=damping, early_stop=False)
        _assert_matches_reference(graph, s1, s2, config, form)

    @pytest.mark.parametrize("form", [EXPLICIT_Z, FOLDED_Z])
    def test_symmetric_point(self, form):
        # without degree-1 checks every message stays at the all-zero fixed
        # point; the interleaved code below carries nonzero messages
        n = 256
        h1, h2 = gallager_construct(n, 3, 6, seed=1), gallager_construct(n, 3, 6, seed=2)
        model = CorrelationModel(0.99)
        graph = build_joint_graph(h1, h2, model)
        assert graph._plan.variables is None
        for seed in range(2):
            s1, s2 = _frame_syndromes(h1, h2, model, seed)
            _assert_matches_reference(graph, s1, s2, DecoderConfig(), form)

    @pytest.mark.parametrize("form", [EXPLICIT_Z, FOLDED_Z])
    @pytest.mark.parametrize("damping", [0.0, 0.3])
    def test_interleaved_irregular_code(self, form, damping):
        n = 96
        h1, h2 = _interleaved_code(n, 1), _interleaved_code(n, 2)
        model = CorrelationModel(0.9)
        graph = build_joint_graph(h1, h2, model)
        # the row blocks interleave, and the kernel renumbers the variables
        assert len(h1._row_blocks) == len(h2._row_blocks) == 6
        assert graph._plan.variables is not None
        for seed in range(3):
            s1, s2 = _frame_syndromes(h1, h2, model, seed)
            result = _assert_matches_reference(graph, s1, s2, DecoderConfig(damping=damping), form)
            assert np.count_nonzero(result.posterior_llrs) > n // 2

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_small_graphs(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        codes = []
        for name in ("h1", "h2"):
            m = data.draw(st.integers(0, n), label=f"{name} rows")
            rows = data.draw(
                st.lists(st.sets(st.integers(0, n - 1)), min_size=m, max_size=m),
                label=name,
            )
            codes.append(SparseParityMatrix.from_rows(n, tuple(tuple(r) for r in rows)))
        h1, h2 = codes
        bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
        s1 = syndrome(h1, data.draw(bits, label="u1"))
        s2 = data.draw(st.lists(st.integers(0, 1), min_size=h2.m, max_size=h2.m), label="s2")
        p = data.draw(st.sampled_from([0.55, 0.9, 0.99, 1 - 1e-14]), label="p")
        config = DecoderConfig(
            max_iterations=data.draw(st.integers(1, 15), label="max_iterations"),
            damping=data.draw(st.sampled_from([0.0, 0.3]), label="damping"),
            early_stop=data.draw(st.booleans(), label="early_stop"),
        )
        graph = build_joint_graph(h1, h2, CorrelationModel(p))
        _assert_matches_reference(graph, s1, s2, config)


def _assert_same_trace(traced, expected, snaps):
    """A traced decode returns ``expected``, bit for bit, and one pair per
    iteration: the unsatisfied checks and mean |posterior| of ``snaps``."""
    _assert_same_decode(traced, expected)
    assert len(traced.trace) == traced.iterations_used == len(snaps)
    assert traced.trace == tuple((s.unsatisfied_checks, s.mean_abs_posterior) for s in snaps)


def _assert_same_result(graph, s1, s2, config, hooked=False):
    """decode, which takes the known-u1 graph where it applies, returns bit
    for bit what the reference loop on the joint graph returns. When
    ``hooked``, so do a decode with the private hook, whose snapshots are
    the reference loop's, bit for bit, and a traced decode, whose trace
    holds their counts and means."""
    result = decode(graph, s1, s2, config)
    assert not np.shares_memory(result.u1_hat, s1)
    assert result.trace is None
    ref_snaps = []
    hook = ref_snaps.append if hooked else None
    expected = decode_reference(graph, s1, s2, config, hook=hook)
    _assert_same_decode(result, expected)
    if hooked:
        snaps = []
        _assert_same_decode(hooked_decode(graph, s1, s2, config, snaps.append), expected)
        _assert_same_snapshots(snaps, ref_snaps)
        _assert_same_trace(decode(graph, s1, s2, config, trace=True), expected, ref_snaps)
    return result


class TestKnownU1MatchesReference:
    """The known-u1 decode on H2 alone against the joint reference loop,
    with the private hook, traced and plain: every snapshot, iteration by
    iteration."""

    @staticmethod
    def _corner(n, p, code_seed=7):
        h1, h2 = identity_matrix(n), gallager_construct(n, 3, 6, seed=code_seed)
        model = CorrelationModel(p)
        graph = build_joint_graph(h1, h2, model)
        assert graph._known_u1 is not None
        return graph, h1, h2, model

    @pytest.mark.parametrize(
        "p, seeds",
        # at p = 0.5 every frame stalls to the cap
        [(0.96, range(3)), (0.92, range(3, 7)), (0.90, range(7, 10)), (0.5, range(10, 12))],
    )
    def test_corner_point(self, p, seeds):
        graph, h1, h2, model = self._corner(1024, p)
        outcomes = set()
        for seed in seeds:
            s1, s2 = _frame_syndromes(h1, h2, model, seed)
            outcomes.add(_assert_same_result(graph, s1, s2, DecoderConfig(), hooked=True).converged)
        # the joint plan was never needed (the reference reads the edge lists)
        assert "_plan" not in vars(graph)
        assert True in outcomes if p == 0.96 else False in outcomes

    def test_exits_in_iterations_1_and_2(self):
        graph, h1, h2, model = self._corner(256, 0.999)
        iterations = []
        for seed in range(12):
            s1, s2 = _frame_syndromes(h1, h2, model, seed)
            result = _assert_same_result(graph, s1, s2, DecoderConfig(), hooked=True)
            iterations.append(result.iterations_used)
            # a zero s2 holds after iteration 1, whatever u1 is
            zero = _assert_same_result(graph, s1, np.zeros_like(s2), DecoderConfig(), hooked=True)
            assert zero.converged and zero.iterations_used == 1
        assert {2, 3} <= set(iterations)

    @pytest.mark.parametrize("max_iterations", [1, 2, 3])
    @pytest.mark.parametrize("early_stop", [True, False])
    @pytest.mark.parametrize("p", [0.999, 0.5, 0.3, 1e-14, 1e-9, 0.04, 1 - 1e-9])
    def test_small_budgets(self, max_iterations, early_stop, p):
        """Iteration 2 leaves through the u1 rebuild, which adds
        2 atanh(f tanh(0)) to +/- c_id: +0.0, or -0.0 where f < 0 (p < 0.5);
        at p = 0.5 f is 0 and the priors are +/-0.0; at p = 1e-14 f is
        about -1, the hidden-bit LLR clamped. Each frame is also decoded
        with s2 = 0 and with u2 = u1, and with the hook, whose iterations 1
        and 2 come from the closed form and the kernel's start state."""
        graph, h1, h2, model = self._corner(256, p)
        config = DecoderConfig(max_iterations=max_iterations, early_stop=early_stop)
        for seed in range(6):
            s1, s2 = _frame_syndromes(h1, h2, model, seed)
            for s2 in (s2, np.zeros_like(s2), syndrome(h2, s1)):  # s1 is u1
                _assert_same_result(graph, s1, s2, config, hooked=True)

    @pytest.mark.parametrize("damping", [0.0, 0.3])
    def test_full_budget_and_damping(self, damping):
        graph, h1, h2, model = self._corner(256, 0.93)
        config = DecoderConfig(max_iterations=40, damping=damping, early_stop=False)
        for seed in range(3):
            s1, s2 = _frame_syndromes(h1, h2, model, seed)
            _assert_same_result(graph, s1, s2, config, hooked=True)
            _assert_same_result(graph, s1, s2, DecoderConfig(damping=damping), hooked=True)

    @pytest.mark.parametrize("p", [1 - 1e-14, 0.9999999, 1 - 1e-9, 1e-9])
    def test_saturated_correlation(self, p):
        # at 1 - 1e-14 the hidden-bit LLR is clamped to LLR_MAX
        graph, h1, h2, model = self._corner(256, p)
        for seed in range(4):
            s1, s2 = _frame_syndromes(h1, h2, model, seed)
            _assert_same_result(graph, s1, s2, DecoderConfig(), hooked=True)
            config = DecoderConfig(max_iterations=6, early_stop=False)
            _assert_same_result(graph, s1, s2, config, hooked=True)

    @pytest.mark.parametrize(
        "h2",
        [
            SparseParityMatrix.from_rows(12, ((0, 1, 2), (), (3, 4, 5, 6), (7, 11), (2, 8, 9, 10))),
            SparseParityMatrix.from_rows(12, ((0, 1, 2), (5,), (3, 4, 5, 6), (7, 11), (2, 8, 9, 10))),
        ],
        ids=["empty-row", "degree-1-row"],
    )
    def test_irregular_h2(self, h2):
        h1, model = identity_matrix(12), CorrelationModel(0.9)
        graph = build_joint_graph(h1, h2, model)
        assert (graph._known_u1 is None) == any(len(row) == 1 for row in rows_of(h2))
        for seed in range(6):
            s1, s2 = _frame_syndromes(h1, h2, model, seed)
            for bit in (0, 1):
                s2[1] = bit
                for config in (DecoderConfig(max_iterations=30),
                               DecoderConfig(max_iterations=30, early_stop=False)):
                    _assert_same_result(graph, s1, s2, config, hooked=True)

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_graphs_that_do_not_reduce(self, symmetric):
        n = 128
        h2 = gallager_construct(n, 3, 6, seed=2)
        # the identity's rows in reverse order
        reversed_identity = SparseParityMatrix.from_rows(n, [(i,) for i in range(n - 1, -1, -1)])
        h1 = gallager_construct(n, 3, 6, seed=1) if symmetric else reversed_identity
        model = CorrelationModel(0.95)
        graph = build_joint_graph(h1, h2, model)
        assert graph._known_u1 is None
        for seed in range(2):
            s1, s2 = _frame_syndromes(h1, h2, model, seed)
            _assert_same_result(graph, s1, s2, DecoderConfig(max_iterations=30))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_small_codes(self, data):
        n = data.draw(st.integers(1, 10), label="n")
        m = data.draw(st.integers(0, n), label="h2 rows")
        rows = data.draw(
            st.lists(st.sets(st.integers(0, n - 1)), min_size=m, max_size=m), label="h2"
        )
        h2 = SparseParityMatrix.from_rows(n, tuple(tuple(r) for r in rows))
        # identity, or the rows of the identity in any order
        order = data.draw(st.permutations(range(n)), label="h1 row order")
        h1 = SparseParityMatrix.from_rows(n, tuple((i,) for i in order))
        u1 = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="u1"))
        s2 = data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m), label="s2")
        p = data.draw(st.sampled_from([0.04, 0.5, 0.55, 0.9, 0.99, 1 - 1e-14]), label="p")
        config = DecoderConfig(
            max_iterations=data.draw(st.integers(1, 15), label="max_iterations"),
            damping=data.draw(st.sampled_from([0.0, 0.0, 0.3]), label="damping"),
            early_stop=data.draw(st.booleans(), label="early_stop"),
        )
        graph = build_joint_graph(h1, h2, CorrelationModel(p))
        _assert_same_result(graph, syndrome(h1, u1), s2, config, hooked=True)


class TestWorkspace:
    """The kernel keeps its buffers in the graph's plan between decodes:
    every decode checks them out and puts them back, and a decode that
    finds none (a nested or concurrent one) builds its own."""

    @staticmethod
    def _graphs():
        """The known-u1 corner graph and an irregular graph whose plan
        renumbers its variables, each followed by three frames of syndromes."""
        corner, h1, h2, model = TestKnownU1MatchesReference._corner(256, 0.93)
        corner_frames = [_frame_syndromes(h1, h2, model, seed) for seed in range(3)]
        h1, h2 = _interleaved_code(96, 1), _interleaved_code(96, 2)
        model = CorrelationModel(0.9)
        irregular = build_joint_graph(h1, h2, model)
        assert irregular._plan.variables is not None
        irregular_frames = [_frame_syndromes(h1, h2, model, seed) for seed in range(3)]
        return corner, corner_frames, irregular, irregular_frames

    def test_alternating_frames(self):
        corner, corner_frames, irregular, irregular_frames = self._graphs()
        order = [0, 1, 0, 2, 2, 1, 0]
        for k in order:
            # the known-u1 graph, then the joint one, with and without damping
            result = _assert_same_result(corner, *corner_frames[k], DecoderConfig())
            assert result.iterations_used > 3
            _assert_matches_reference(corner, *corner_frames[k], DecoderConfig(damping=0.3))
            _assert_same_result(corner, *corner_frames[k], DecoderConfig(damping=0.3))
            for damping in (0.0, 0.3):
                _assert_matches_reference(
                    irregular, *irregular_frames[k], DecoderConfig(damping=damping)
                )
        for plan in (corner._known_u1, corner._plan, irregular._plan):
            assert len(plan.idle) == 1

    def test_hook_decodes_the_same_graph(self):
        corner, frames, _, _ = self._graphs()
        configs = [DecoderConfig(damping=0.3), DecoderConfig()]  # joint, known u1
        inner, snaps, ref_snaps = [], [], []

        def hook(info):
            if info.iteration == 2:
                # the outer decode, on the known-u1 path, holds that plan's
                # workspace from its test of iteration 2 on, which it has
                # taken from the inner decode of iteration 1
                assert not corner._known_u1.idle
            snaps.append(info)
            config = configs[info.iteration % 2]
            s1, s2 = frames[1 + info.iteration % 2]
            inner.append((s1, s2, config, decode(corner, s1, s2, config)))

        config = DecoderConfig(max_iterations=12, early_stop=False)
        result = hooked_decode(corner, *frames[0], config, hook)
        expected = decode_reference(corner, *frames[0], config, hook=ref_snaps.append)
        _assert_same_decode(result, expected)
        _assert_same_snapshots(snaps, ref_snaps)
        assert len(inner) == 12
        for s1, s2, config, got in inner:
            _assert_same_decode(got, decode_reference(corner, s1, s2, config))
        assert len(corner._plan.idle) == len(corner._known_u1.idle) == 1

    def test_damped_hooked_frame_mixes_in_place(self):
        """A hooked, damped frame runs on the buffers of a plain one: the
        workspace holds no other message buffer, and after an odd number
        of iterations its ``c2v`` holds the last check messages, as a swap
        of two buffers would not."""
        corner, frames, _, _ = self._graphs()
        config = DecoderConfig(max_iterations=7, damping=0.3, early_stop=False)
        snaps, ref_snaps = [], []
        hooked_decode(corner, *frames[0], config, snaps.append)
        decode_reference(corner, *frames[0], config, hook=ref_snaps.append)
        assert len(snaps) == len(ref_snaps) == 7
        workspace, = corner._plan.idle
        assert not hasattr(workspace, "v2c") and not hasattr(workspace, "fresh")
        last = workspace.c2v.take(corner._plan.slot_of_edge) * 2.0
        assert ref_snaps[-1].c2v.any()
        assert last.tobytes() == ref_snaps[-1].c2v.tobytes()

    def test_buffers_are_page_aligned(self, monkeypatch):
        """Every buffer a workspace allocates, and the plan's index arrays,
        start on a page boundary, the empty leave-one-out scratch of a
        degree-3 block included; every float and bool array the workspace
        holds lies in one of those buffers, and the degree-1 entries of
        ``excl`` hold ``_TANH_LIMIT``."""
        corner, _, irregular, _ = self._graphs()
        large = TestKnownU1MatchesReference._corner(16384, 0.96)[0]
        # the joint corner plan, which damped frames run, has degree-1 h1
        # rows and the correlation block; the irregular one renumbers its
        # variables and has a degree-0 parity group
        assert 1 in _group_degrees(corner._plan) and corner._plan.corr_factor is not None
        assert {0, 3} <= {degree for degree, _, _ in irregular._plan.parity_groups}
        page_aligned, made = decoder_module._page_aligned, []

        def recording(*args, **kwargs):
            made.append(page_aligned(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(decoder_module, "_page_aligned", recording)
        for plan in (corner._known_u1, corner._plan, irregular._plan, large._known_u1):
            assert plan.edge_var.ctypes.data % 4096 == plan.var_slots.ctypes.data % 4096 == 0
            made.clear()
            workspace = decoder_module._Workspace(plan)
            assert [buffer.ctypes.data % 4096 for buffer in made] == [0] * len(made)
            held = [a for a in _arrays(vars(workspace)) if a.size and a.dtype.kind in "fb"]
            for array in held:
                assert any(np.shares_memory(array, buffer) for buffer in made)
            for degree, start, stop in plan.check_groups:
                if degree == 1:
                    assert (workspace.excl[start:stop] == _TANH_LIMIT).all()

    @pytest.mark.parametrize(
        "config, hooked",
        [(DecoderConfig(), False), (DecoderConfig(damping=0.3), False), (DecoderConfig(), True)],
        ids=["known-u1", "damped", "hooked"],
    )
    def test_threads_share_one_graph(self, config, hooked):
        graph, h1, h2, model = TestKnownU1MatchesReference._corner(1024, 0.93)
        frames = [_frame_syndromes(h1, h2, model, seed) for seed in range(6)] * 2

        def run(frame):
            snaps = []
            if hooked:
                return hooked_decode(graph, *frame, config, snaps.append), snaps
            return decode(graph, *frame, config), snaps

        serial = [run(frame) for frame in frames]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside the loop
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                threaded = list(pool.map(run, frames, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for (got, got_snaps), (want, want_snaps) in zip(threaded, serial):
            _assert_same_decode(got, want)
            _assert_same_snapshots(got_snaps, want_snaps)


class TestSharedCode:
    """Graphs over one h2 object share only its row blocks and slots: each
    graph holds its own known-u1 plan, with the kernel workspace kept
    there, and what depends on the model. Every decode equals one on a
    fresh graph over a fresh copy of the code, which shares nothing."""

    N = 256

    @classmethod
    def _setup(cls):
        h1, h2 = identity_matrix(cls.N), gallager_construct(cls.N, 3, 6, seed=3)
        models = [CorrelationModel(0.93), CorrelationModel(0.96)]
        graphs = [build_joint_graph(h1, h2, model) for model in models]
        frames = [[_frame_syndromes(h1, h2, model, seed) for seed in range(3)] for model in models]
        return h2, models, graphs, frames

    @staticmethod
    def _fresh(h2, model, s1, s2):
        copy = pickle.loads(pickle.dumps(h2))  # a copy carries no cache
        assert not {"_row_blocks", "_slots"} & set(vars(copy))
        return decode(build_joint_graph(identity_matrix(h2.n), copy, model), s1, s2)

    def test_graphs_share_only_the_row_blocks(self):
        """The row blocks and the slots, the code's two caches."""
        h2, _, graphs, frames = self._setup()
        for graph, model_frames in zip(graphs, frames):
            decode(graph, *model_frames[0])
        first, second = (graph._known_u1 for graph in graphs)
        assert first is not second
        assert len(first.idle) == len(second.idle) == 1
        assert first.idle[0] is not second.idle[0]
        assert first.slot_of_edge is second.slot_of_edge is h2._slots[0]
        assert list(vars(h2)) == ["n", "m", "entries", "_row_blocks", "_slots"]
        assert graphs[0]._known_u1_priors[0] != graphs[1]._known_u1_priors[0]

    def test_alternating_frames(self):
        h2, models, graphs, frames = self._setup()
        for k in [0, 1, 0, 2, 2, 1]:
            for model, graph, model_frames in zip(models, graphs, frames):
                s1, s2 = model_frames[k]
                want = self._fresh(h2, model, s1, s2)
                _assert_same_decode(decode(graph, s1, s2), want)
                # a new graph on every call, as every run_trials call builds
                again = build_joint_graph(identity_matrix(self.N), h2, model)
                _assert_same_decode(decode(again, s1, s2), want)
        assert list(vars(h2)) == ["n", "m", "entries", "_row_blocks", "_slots"]

    def test_threads_over_two_graphs(self):
        h2, models, graphs, frames = self._setup()
        jobs = [
            (model, graph, model_frames[k])
            for k in range(3)
            for model, graph, model_frames in zip(models, graphs, frames)
        ] * 3
        serial = [self._fresh(h2, model, *frame) for model, _, frame in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside the loop
        try:
            # more workers than the two cores of a small host
            with ThreadPoolExecutor(max_workers=3) as pool:
                threaded = list(pool.map(lambda job: decode(job[1], *job[2]), jobs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(threaded) == len(jobs)
        for got, want in zip(threaded, serial):
            _assert_same_decode(got, want)

    def test_hook_decodes_another_graph_on_the_code(self):
        h2, models, graphs, frames = self._setup()
        inner = []

        def hook(info):
            # both graphs' known-u1 decodes, over the outer decode's h2
            for model, graph, model_frames in zip(models, graphs, frames):
                s1, s2 = model_frames[info.iteration % 3]
                inner.append((model, s1, s2, decode(graph, s1, s2)))

        config = DecoderConfig(max_iterations=8, early_stop=False)
        s1, s2 = frames[0][0]
        result = hooked_decode(graphs[0], s1, s2, config, hook)
        _assert_same_decode(result, decode_reference(graphs[0], s1, s2, config))
        assert len(inner) == 16
        for model, s1, s2, got in inner:
            _assert_same_decode(got, self._fresh(h2, model, s1, s2))


# what a graph builds only when it decodes on the joint graph
_JOINT_STRUCTURE = {"edge_var", "_plan"}


class TestCornerBuildsNoJointStructure:
    """A corner decode on the known-u1 path builds neither the joint edge
    list nor the plan; the decodes that run the joint graph build them and
    still match the reference loop bit for bit."""

    @staticmethod
    def _recorded_graphs(monkeypatch, module):
        """Graphs that ``module`` builds from now on, in order."""
        graphs = []

        def recording(*args, **kwargs):
            graphs.append(build_joint_graph(*args, **kwargs))
            return graphs[-1]

        monkeypatch.setattr(module, "build_joint_graph", recording)
        return graphs

    def test_decode(self):
        graph, h1, h2, pair, s1, s2 = _corner_instance(256, 0.96, seed=1)
        for s2 in (s2, np.zeros_like(s2)):  # the loop runs, and it does not
            result = decode(graph, s1, s2)
            assert result.converged
        assert graph._known_u1 is not None
        assert not _JOINT_STRUCTURE & set(vars(graph))

    def test_run_trials(self, monkeypatch):
        graphs = self._recorded_graphs(monkeypatch, sim_module)
        h2 = gallager_construct(256, 3, 6, seed=7)
        record = run_trials(SimConfig(CorrelationModel(0.94), h2, trials=6, master_seed=3))
        assert record.avg_iterations > 3  # the known-u1 loop ran
        assert len(graphs) == 1 and graphs[0]._known_u1 is not None
        assert not _JOINT_STRUCTURE & set(vars(graphs[0]))

    @pytest.mark.parametrize("form", [EXPLICIT_Z, FOLDED_Z])
    @pytest.mark.parametrize(
        "h1, h2",
        [
            (identity_matrix(64), gallager_construct(64, 3, 6, seed=2)),
            (gallager_construct(64, 3, 6, seed=1), gallager_construct(64, 3, 6, seed=2)),
            (_interleaved_code(48, 1), _interleaved_code(48, 2)),
            (identity_matrix(8), SparseParityMatrix.from_rows(8, [])),
        ],
        ids=["corner", "symmetric", "interleaved", "h2-without-rows"],
    )
    def test_num_edges_is_counted_without_the_edges(self, h1, h2, form):
        """The folded graph has the edges of the graph of either form, but
        for the explicit form's n z edges."""
        model = CorrelationModel(0.9)
        graph = build_joint_graph(h1, h2, model)
        num_edges = graph.num_edges
        assert not _JOINT_STRUCTURE & set(vars(graph))
        assert num_edges == len(graph.edge_var)
        z_edges = h1.n if form == EXPLICIT_Z else 0
        assert num_edges == ReferenceGraph(h1, h2, model, form).num_edges - z_edges

    @pytest.mark.parametrize(
        "form, config, hooked, joint",
        [
            (FOLDED_Z, DecoderConfig(), True, False),
            (FOLDED_Z, DecoderConfig(damping=0.3), False, True),
            (FOLDED_Z, DecoderConfig(max_iterations=1), False, False),
            (FOLDED_Z, DecoderConfig(max_iterations=2, early_stop=False), False, False),
            (EXPLICIT_Z, DecoderConfig(), True, False),
        ],
        ids=["hook", "damping", "max-iterations-1", "max-iterations-2", "explicit"],
    )
    def test_joint_decodes_match_the_reference(self, form, config, hooked, joint):
        """Only damping runs the joint graph: a hook and the budgets 1 and 2
        stay on the known-u1 path. The reference loop runs on the graph of
        ``form``, and the kernel's messages come from a graph of their own."""
        h1, h2 = identity_matrix(256), gallager_construct(256, 3, 6, seed=7)
        model = CorrelationModel(0.93)
        graph = build_joint_graph(h1, h2, model)
        for seed in range(3):
            s1, s2 = _frame_syndromes(h1, h2, model, seed)
            _assert_matches_reference(graph, s1, s2, config, form, hooked)
        # the reference loop builds its own edge lists, and no plan
        assert ("_plan" in vars(graph)) == joint
        if not joint:
            # budget 1 runs no kernel, so its plan keeps no workspace;
            # budget 2 runs the kernel to test iteration 2, but its loop
            # runs no iteration, so no check message is ever written into
            # the workspace it keeps
            plan = graph._known_u1
            assert len(plan.idle) == (config.max_iterations > 1)
            if config.max_iterations == 2:
                workspace, = plan.idle
                assert not workspace.c2v.any()

    @pytest.mark.parametrize("form", [EXPLICIT_Z, FOLDED_Z])
    @pytest.mark.parametrize("case", ["hooked", "damped", "symmetric"])
    def test_joint_decode_builds_no_edge_checks(self, case, form):
        """A joint decode takes each edge's check sign from its code's row
        ids: it builds the edge list and the plan, but no list of each
        edge's check. The reference loop runs on the graph of ``form``."""
        if case == "symmetric":  # both codes regular: variables keep their ids
            h1, h2 = gallager_construct(64, 3, 6, seed=1), gallager_construct(64, 3, 6, seed=2)
        else:  # an interleaved h2 makes the decode renumber its variables
            h1, h2 = identity_matrix(64), _interleaved_code(64, 2)
        model = CorrelationModel(0.93)
        graph = build_joint_graph(h1, h2, model)
        config = DecoderConfig(max_iterations=12, damping=0.3 if case == "damped" else 0.0)
        s1, s2 = _frame_syndromes(h1, h2, model, seed=4)
        _assert_matches_reference(graph, s1, s2, config, form, hooked=case == "hooked")
        assert _JOINT_STRUCTURE <= set(vars(graph)) and not hasattr(graph, "edge_check")
        assert (graph._plan.variables is None) == (case == "symmetric")


class TestParityTest:
    """The convergence test (``_Workspace.unsatisfied``) counts the code
    rows whose syndrome of the hard decisions differs from the received bit;
    it reads the posteriors as the kernel gathers them to the slots."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_count_matches_the_dense_product(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        codes = []
        for name in ("h1", "h2"):
            m = data.draw(st.integers(0, n), label=f"{name} rows")
            rows = data.draw(
                st.lists(st.sets(st.integers(0, n - 1)), min_size=m, max_size=m), label=name
            )
            codes.append(SparseParityMatrix.from_rows(n, rows))
        h1, h2 = codes
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        s1 = rng.integers(0, 2, h1.m, dtype=np.uint8)
        s2 = rng.integers(0, 2, h2.m, dtype=np.uint8)
        joint, alone = build_joint_graph(h1, h2, MODEL)._plan, _code_plan(h2)
        for hard in (np.zeros(2 * n, bool), rng.integers(0, 2, 2 * n).astype(bool)):
            u1, u2 = hard[:n].astype(np.int64), hard[n : 2 * n].astype(np.int64)
            wrong1 = int(np.count_nonzero(h1.to_dense() @ u1 % 2 != s1))
            wrong2 = int(np.count_nonzero(h2.to_dense() @ u2 % 2 != s2))
            # a zero posterior of either sign decides bit 0
            posteriors = np.where(hard, -1.0, rng.choice([0.0, -0.0, 1.0], 2 * n))
            count = _unsatisfied(joint, np.concatenate([s1, s2]), posteriors)
            assert count == wrong1 + wrong2
            assert _unsatisfied(alone, s2, posteriors[n:]) == wrong2


def _unsatisfied(plan, bits, posteriors):
    """The convergence test of a new workspace of ``plan``, loaded with the
    syndrome ``bits``, on the posteriors by id gathered to the slots as the
    kernel gathers them."""
    workspace = decoder_module._Workspace(plan)
    workspace.load(bits)
    plan.kernel_order(posteriors).take(plan.edge_var, out=workspace.t)
    return workspace.unsatisfied()


def _irregular_h2(n, degrees, seed):
    """An H2 whose rows take the row degrees in ``degrees`` in turn, so the
    check-degree groups interleave; no row has degree 1."""
    rng = np.random.default_rng(seed)
    rows = [rng.choice(n, degrees[j % len(degrees)], replace=False) for j in range(n // 2)]
    return SparseParityMatrix.from_rows(n, rows)


def _group_degrees(plan):
    return {degree for degree, _, _ in plan.check_groups}


def _arrays(value):
    """The numpy arrays in ``value``, through lists, tuples and dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _arrays(item)


class TestAtanhArgumentClip:
    """The kernel has no clip of the atanh argument, which the oracle keeps.
    Graphs with degree-2 checks, whose argument is a single tanh value,
    decode bit for bit like the clipping oracle, and a degree-1 check's
    product is stored as the clip bound."""

    @pytest.mark.parametrize(
        "degrees, has_degree_2", [((2, 3, 5, 2, 4), True), ((3, 5, 4), False)],
        ids=["degree-2-rows", "no-degree-2-row"],
    )
    @pytest.mark.parametrize("p", [0.92, 0.96])
    @pytest.mark.parametrize("early_stop", [True, False])
    def test_known_u1_graph(self, degrees, has_degree_2, p, early_stop):
        n = 120
        h1, h2 = identity_matrix(n), _irregular_h2(n, degrees, seed=5)
        model = CorrelationModel(p)
        graph = build_joint_graph(h1, h2, model)
        plan = graph._known_u1
        # one block per row weight, the weights interleaved down the rows
        assert plan is not None and len(plan.check_groups) == len(set(degrees))
        assert [len(block) for block, _ in h2._row_blocks] == list(dict.fromkeys(degrees))
        assert (2 in _group_degrees(plan)) == has_degree_2
        config = DecoderConfig(max_iterations=60, early_stop=early_stop)
        iterations = set()
        for seed in range(4):
            s1, s2 = _frame_syndromes(h1, h2, model, seed)
            iterations.add(_assert_same_result(graph, s1, s2, config).iterations_used)
            # decode's private hook and trace, and the kernel on the joint
            # graph, snapshot by snapshot
            _assert_matches_reference(graph, s1, s2, config)
        assert max(iterations) > 3  # the reduced loop ran

    def test_joint_graph_with_degree_1_checks(self):
        # the joint corner graph, whose messages _assert_matches_reference
        # compares: identity rows have degree 1, and the preset alone
        # bounds their messages
        n = 256
        h1, h2 = identity_matrix(n), gallager_construct(n, 3, 6, seed=3)
        model = CorrelationModel(0.93)
        graph = build_joint_graph(h1, h2, model)
        assert _group_degrees(graph._plan) == {1, 2, 6}
        s1, s2 = _frame_syndromes(h1, h2, model, 2)
        result = _assert_matches_reference(graph, s1, s2, DecoderConfig(max_iterations=30))
        assert result.iterations_used > 2


class TestNonFiniteCheckMessages:
    """The finiteness test runs where the loop exits and before each hook
    call; a NaN check message still raises."""

    N = 64

    @classmethod
    def _with_a_nan_hidden_bit(cls):
        """A graph whose z[5] has a NaN LLR, and a frame: in the explicit
        reference graph its prior, in the folded graph the factor f of
        correlation check 5 on that check's two edge signs, in the
        workspace that the graph's plan keeps for its next decode: the
        correlation checks' block holds the u1 row then the u2 row, so those
        are slots 5 and n + 5 of it. h1 is the identity's rows in reverse
        order, so that decode runs the joint graph."""
        n = cls.N
        h1 = SparseParityMatrix.from_rows(n, [(i,) for i in range(n - 1, -1, -1)])
        h2 = gallager_construct(n, 3, 6, seed=5)
        model = CorrelationModel(0.93)
        graph = build_joint_graph(h1, h2, model)
        plan = graph._plan
        workspace = decoder_module._Workspace(plan)
        _, start, _ = plan.check_groups[-1]  # the correlation checks' block
        assert workspace.signs[start] == plan.corr_factor
        workspace.signs[[start + 5, start + n + 5]] = np.nan
        plan.idle.append(workspace)
        explicit = ReferenceGraph(h1, h2, model, EXPLICIT_Z)
        explicit.priors[2 * n + 5] = np.nan  # one z prior, in the graph's cached priors
        s1, s2 = _frame_syndromes(h1, h2, model, 1)
        return graph, explicit, s1, s2

    @pytest.mark.parametrize("max_iterations", [1, 7, 100])
    @pytest.mark.parametrize("early_stop", [True, False])
    @pytest.mark.parametrize("zero_syndromes", [True, False])
    def test_joint_graph(self, max_iterations, early_stop, zero_syndromes):
        graph, explicit, s1, s2 = self._with_a_nan_hidden_bit()
        if zero_syndromes:  # converges at iteration 1 despite the NaN
            s1, s2 = np.zeros_like(s1), np.zeros_like(s2)
        config = DecoderConfig(max_iterations=max_iterations, early_stop=early_stop)
        assert graph._known_u1 is None
        for run, g in ((decode, graph), (decode_reference, explicit)):
            with pytest.raises(FloatingPointError, match="non-finite check message"):
                run(g, s1, s2, config)

    def test_hook_sees_no_non_finite_message(self):
        graph, _, s1, s2 = self._with_a_nan_hidden_bit()
        snaps = []
        with pytest.raises(FloatingPointError, match="non-finite check message"):
            hooked_decode(graph, s1, s2, DecoderConfig(early_stop=False), snaps.append)
        assert snaps == []

    @pytest.mark.parametrize("early_stop", [True, False])
    def test_known_u1_graph(self, early_stop):
        n = 64
        h1, h2 = identity_matrix(n), gallager_construct(n, 3, 6, seed=5)
        model = CorrelationModel(0.93)
        graph = build_joint_graph(h1, h2, model)
        # a NaN correlation message makes the reduced loop's priors NaN
        assert graph._known_u1 is not None
        vars(graph)["_known_u1_priors"] = np.full(2, np.nan)
        s1, s2 = _frame_syndromes(h1, h2, model, 1)
        assert s2.any()
        config = DecoderConfig(max_iterations=20, early_stop=early_stop)
        with pytest.raises(FloatingPointError, match="non-finite check message"):
            decode(graph, s1, s2, config)


def _unsatisfied_from_posteriors(graph, posteriors, s1, s2):
    hard = (posteriors < 0).astype(np.uint8)
    u1, u2 = hard[: graph.n], hard[graph.n :]
    return int(
        np.count_nonzero(syndrome(graph.h1, u1) != s1)
        + np.count_nonzero(syndrome(graph.h2, u2) != s2)
    )


class TestStalledGraphs:
    """A graph whose first iteration leaves every check message zero
    repeats that iteration up to the cap; decode returns after it, with
    what the full loop returns."""

    @staticmethod
    def _count_iterations(monkeypatch):
        """Count the convergence tests that decode runs, one per iteration."""
        calls = []
        unsatisfied = decoder_module._Workspace.unsatisfied

        def counting(workspace):
            calls.append(1)
            return unsatisfied(workspace)

        monkeypatch.setattr(decoder_module._Workspace, "unsatisfied", counting)
        return calls

    @staticmethod
    def _assert_same_bits(graph, s1, s2, config, form=FOLDED_Z):
        """decode returns bit for bit what the reference loop returns on the
        folded graph and, with every message zero, on the explicit one."""
        result = _assert_same_result(graph, s1, s2, config)
        reference = ReferenceGraph(graph.h1, graph.h2, graph.model, form)
        expected = decode_reference(reference, s1, s2, config)
        _assert_same_decode(result, expected)
        # array_equal would not tell -0.0 from 0.0
        assert result.posterior_llrs.tobytes() == expected.posterior_llrs.tobytes()
        return result

    @pytest.mark.parametrize("form", [EXPLICIT_Z, FOLDED_Z])
    @pytest.mark.parametrize("early_stop", [True, False])
    @pytest.mark.parametrize("damping", [0.0, 0.3])
    def test_symmetric_point(self, monkeypatch, form, early_stop, damping):
        n = 128
        h1, h2 = gallager_construct(n, 3, 6, seed=1), gallager_construct(n, 3, 6, seed=2)
        model = CorrelationModel(0.99)
        graph = build_joint_graph(h1, h2, model)
        calls = self._count_iterations(monkeypatch)
        config = DecoderConfig(max_iterations=50, damping=damping, early_stop=early_stop)
        for seed in range(3):
            s1, s2 = _frame_syndromes(h1, h2, model, seed)
            calls.clear()
            result = self._assert_same_bits(graph, s1, s2, config, form)
            assert not result.converged and result.iterations_used == 50
            assert len(calls) == 1

    @pytest.mark.parametrize("form", [EXPLICIT_Z, FOLDED_Z])
    @pytest.mark.parametrize("early_stop", [True, False])
    @pytest.mark.parametrize("max_iterations", [1, 2, 7])
    def test_all_zero_syndromes(self, monkeypatch, form, early_stop, max_iterations):
        n = 64
        h1, h2 = gallager_construct(n, 3, 6, seed=6), gallager_construct(n, 3, 6, seed=5)
        graph = build_joint_graph(h1, h2, CorrelationModel(0.9))
        calls = self._count_iterations(monkeypatch)
        config = DecoderConfig(max_iterations=max_iterations, early_stop=early_stop)
        result = self._assert_same_bits(
            graph, np.zeros(h1.m, np.uint8), np.zeros(h2.m, np.uint8), config, form
        )
        assert result.converged
        assert result.iterations_used == (1 if early_stop else max_iterations)
        assert len(calls) == 1

    @pytest.mark.parametrize("early_stop", [True, False])
    @pytest.mark.parametrize("max_iterations", [3, 4, 20])
    def test_uncorrelated_corner_point(self, monkeypatch, early_stop, max_iterations):
        # at p = 0.5 the correlation message is 0, so H2 alone runs on the
        # priors +/-0.0 and the joint graph never moves u2 either
        graph, h1, h2, model = TestKnownU1MatchesReference._corner(128, 0.5)
        calls = self._count_iterations(monkeypatch)
        config = DecoderConfig(max_iterations=max_iterations, early_stop=early_stop)
        for seed in range(4):
            s1, s2 = _frame_syndromes(h1, h2, model, seed)
            calls.clear()
            result = self._assert_same_bits(graph, s1, s2, config)
            assert not result.converged and result.iterations_used == max_iterations
            # the test of joint iteration 2, on the gather that iteration 3
            # starts from, then one iteration on H2
            assert len(calls) == 2

    @pytest.mark.parametrize("case", ["corner", "symmetric", "damped"])
    def test_traced_frame_runs_one_iteration(self, monkeypatch, case):
        """A traced frame, and one with the private hook, stalls as a plain
        one does: after one kernel iteration. Its trace and its snapshots
        repeat that iteration's up to the cap, as the reference loop's do."""
        if case == "corner":  # uncorrelated, as in test_uncorrelated_corner_point
            graph, h1, h2, model = TestKnownU1MatchesReference._corner(128, 0.5)
        else:
            h1, h2 = gallager_construct(128, 3, 6, seed=1), gallager_construct(128, 3, 6, seed=2)
            model = CorrelationModel(0.99)
            graph = build_joint_graph(h1, h2, model)
        config = DecoderConfig(max_iterations=40, damping=0.3 if case == "damped" else 0.0)
        # the corner also tests joint iteration 2, the kernel's start state
        kernel_tests = 2 if case == "corner" else 1
        calls = self._count_iterations(monkeypatch)
        for seed in range(2):
            s1, s2 = _frame_syndromes(h1, h2, model, seed)
            ref_snaps = []
            expected = decode_reference(graph, s1, s2, config, ref_snaps.append)
            assert not expected.converged and len(ref_snaps) == 40
            calls.clear()
            traced = decode(graph, s1, s2, config, trace=True)
            assert len(calls) == kernel_tests
            _assert_same_trace(traced, expected, ref_snaps)
            assert len(traced.trace) == 40 and len(set(traced.trace[2:])) == 1
            calls.clear()
            snaps = []
            _assert_same_decode(hooked_decode(graph, s1, s2, config, snaps.append), expected)
            assert len(calls) == kernel_tests
            _assert_same_snapshots(snaps, ref_snaps)

    def test_moving_messages_run_every_iteration(self, monkeypatch):
        graph, h1, h2, model = TestKnownU1MatchesReference._corner(128, 0.92)
        calls = self._count_iterations(monkeypatch)
        s1, s2 = _frame_syndromes(h1, h2, model, 0)
        config = DecoderConfig(max_iterations=12, early_stop=False)
        self._assert_same_bits(graph, s1, s2, config)
        # the test of iteration 2, then one test in each of iterations 3 to 12
        assert len(calls) == 11


class TestEmptyCodeRows:
    """A code row without entries has parity 0: it holds iff its bit is 0."""

    @pytest.mark.parametrize("form", [EXPLICIT_Z, FOLDED_Z])
    @pytest.mark.parametrize("empty_in", ["h1", "h2"])
    @pytest.mark.parametrize("bit", [0, 1])
    def test_empty_row(self, form, empty_in, bit):
        n = 12
        model = CorrelationModel(0.95)
        h1 = identity_matrix(n)
        # row 1 of h2 is empty; so is row 1 of h1 when the bit goes there
        h2 = SparseParityMatrix.from_rows(n, ((0, 1, 2), (), (3, 4, 5, 6), (7, 11)))
        if empty_in == "h1":
            h1 = SparseParityMatrix.from_rows(n, ((0,), (), *((i,) for i in range(1, n - 1))))
        pair = sample_pair(model, n, seed=4)
        s1, s2 = syndrome(h1, pair.u1), syndrome(h2, pair.u2)
        with_empty_row = s1 if empty_in == "h1" else s2
        assert with_empty_row[1] == 0
        with_empty_row[1] = bit
        config = DecoderConfig(max_iterations=30)
        # decode through its private hook, and the reference loop on the
        # graph of ``form``
        runs = [(hooked_decode, build_joint_graph(h1, h2, model)),
                (decode_reference, ReferenceGraph(h1, h2, model, form))]
        for run, graph in runs:
            snaps = []
            result = run(graph, s1, s2, config, snaps.append)
            for info in snaps:
                expected = _unsatisfied_from_posteriors(graph, info.posteriors, s1, s2)
                assert info.unsatisfied_checks == expected
                assert info.unsatisfied_checks >= bit
            if bit:
                assert not result.converged
                assert result.iterations_used == config.max_iterations
            else:
                assert result.converged
                assert snaps[-1].unsatisfied_checks == 0


class TestBruteForce:
    def test_worked_example(self):
        # u1 pinned to (1,0,1) by the identity code; u2 constrained by
        # u2[0]+u2[1] = 0 and u2[1]+u2[2] = 1, so u2 is (0,0,1) with weight
        # 0.9^2 * 0.1 or (1,1,0) with weight 0.9 * 0.1^2
        h1 = identity_matrix(3)
        h2 = SparseParityMatrix.from_rows(3, ((0, 1), (1, 2)))
        result = brute_force_marginals(
            h1, h2, CorrelationModel(0.9), [1, 0, 1], [0, 1]
        )
        assert list(result.map_u1) == [1, 0, 1]
        assert list(result.map_u2) == [0, 0, 1]
        assert result.u2_marginals[:, 1] == pytest.approx([0.1, 0.1, 0.9], abs=1e-12)
        assert result.u1_marginals[:, 1].tolist() == [1.0, 0.0, 1.0]
        llrs = result.posterior_llrs()
        assert np.isneginf(llrs[0]) and np.isposinf(llrs[1]) and np.isneginf(llrs[2])
        assert llrs[4] == pytest.approx(LN_9, abs=1e-12)

    def test_marginals_are_distributions(self):
        for seed in range(4):
            h1, h2, model, s1, s2 = random_forest_instance(seed)
            result = brute_force_marginals(h1, h2, model, s1, s2)
            assert result.u1_marginals.sum(axis=1) == pytest.approx(1.0, abs=1e-12)
            assert result.u2_marginals.sum(axis=1) == pytest.approx(1.0, abs=1e-12)
            assert (result.u1_marginals >= 0).all()

    def test_map_tie_breaks_lexicographically(self):
        h = SparseParityMatrix.from_rows(2, ((0, 1),))
        result = brute_force_marginals(h, h, CorrelationModel(0.7), [1], [1])
        # (0,1)/(0,1) and (1,0)/(1,0) tie at weight p^2; the smaller wins
        assert list(result.map_u1) == [0, 1]
        assert list(result.map_u2) == [0, 1]
        assert result.u1_marginals[:, 1] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_inconsistent_syndromes(self):
        h2 = SparseParityMatrix.from_rows(2, ((0, 1), (0, 1)))
        with pytest.raises(ValueError, match="no source pair"):
            brute_force_marginals(
                identity_matrix(2), h2, CorrelationModel(0.9), [0, 0], [0, 1]
            )

    def test_rejects_large_blocks(self):
        h = identity_matrix(17)
        with pytest.raises(ValueError, match="n <= 16"):
            brute_force_marginals(h, h, CorrelationModel(0.9), [0] * 17, [0] * 17)

    def test_rejects_mismatched_codes(self):
        with pytest.raises(ValueError):
            brute_force_marginals(
                identity_matrix(2), identity_matrix(3), CorrelationModel(0.9), [0, 0], [0, 0, 0]
            )

    def test_agrees_with_direct_enumeration(self):
        # independent dense reference, deliberately written differently
        h1, h2, model, s1, s2 = random_forest_instance(12)
        n = h1.n
        d1, d2 = h1.to_dense(), h2.to_dense()
        total = 0.0
        acc1 = np.zeros(n)
        acc2 = np.zeros(n)
        for a in range(2**n):
            u1 = np.array([(a >> (n - 1 - k)) & 1 for k in range(n)], dtype=np.uint8)
            if not np.array_equal(d1 @ u1 % 2, s1):
                continue
            for b in range(2**n):
                u2 = np.array([(b >> (n - 1 - k)) & 1 for k in range(n)], dtype=np.uint8)
                if not np.array_equal(d2 @ u2 % 2, s2):
                    continue
                d = int((u1 != u2).sum())
                w = model.p ** (n - d) * (1 - model.p) ** d
                total += w
                acc1 += w * u1
                acc2 += w * u2
        result = brute_force_marginals(h1, h2, model, s1, s2)
        assert result.u1_marginals[:, 1] == pytest.approx(acc1 / total, abs=1e-12)
        assert result.u2_marginals[:, 1] == pytest.approx(acc2 / total, abs=1e-12)
