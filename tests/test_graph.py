import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swldpc import (
    EXPLICIT_Z,
    FOLDED_Z,
    LLR_MAX,
    CorrelationModel,
    DecoderConfig,
    JointTannerGraph,
    SparseParityMatrix,
    build_joint_graph,
    decode,
    gallager_construct,
    hidden_llr,
    identity_matrix,
    is_cycle_free,
    load_alist,
    save_alist,
    syndrome,
)
from swldpc.decoder import _IDENTITY_BY_BIT, _TANH_LIMIT, KnownU1Graph

from _decoder_reference import decode_reference
from _layout_reference import flood_layout_reference
from _strategies import mixed_weight_matrices, rows_of

H1 = identity_matrix(2)
H2 = SparseParityMatrix.from_rows(2, ((0, 1),))
MODEL = CorrelationModel(0.9)

class TestBuild:
    def test_folded_shape(self):
        g = build_joint_graph(H1, H2, MODEL)
        assert g.form == FOLDED_Z
        assert (g.n, g.m1, g.m2) == (2, 2, 1)
        assert g.var_count == 4
        assert g.check_count == 5
        assert g.num_edges == 2 + 2 + 2 * 2
        assert g.num_code_checks == 3

    def test_explicit_shape(self):
        g = build_joint_graph(H1, H2, MODEL, form=EXPLICIT_Z)
        assert g.var_count == 6
        assert g.check_count == 5
        assert g.num_edges == 2 + 2 + 3 * 2

    def test_explicit_correlation_adjacency(self):
        h2 = gallager_construct(12, 3, 6, seed=2)
        g = build_joint_graph(identity_matrix(12), h2, MODEL, form=EXPLICIT_Z)
        for i in range(g.n):
            check = g.m1 + g.m2 + i
            attached = sorted(g.edge_var[g.edge_check == check])
            assert attached == [i, g.n + i, 2 * g.n + i]

    def test_priors(self):
        llr = hidden_llr(MODEL)
        explicit = build_joint_graph(H1, H2, MODEL, form=EXPLICIT_Z)
        assert not explicit.priors[:4].any()
        assert np.all(explicit.priors[4:] == llr)
        folded = build_joint_graph(H1, H2, MODEL)
        assert not folded.priors.any()
        assert folded.corr_param == llr

    def test_degrees(self):
        g = build_joint_graph(H1, H2, MODEL)
        assert np.bincount(g.edge_check, minlength=g.check_count).tolist() == [1, 1, 2, 2, 2]
        assert np.bincount(g.edge_var, minlength=g.var_count).tolist() == [2, 2, 2, 2]

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
        with pytest.raises(ValueError, match="codes disagree on block length: 3 vs 2"):
            JointTannerGraph(identity_matrix(3), H2, MODEL, FOLDED_Z)
        # a corner graph over an h2 of half the length
        h1, h2 = identity_matrix(64), gallager_construct(32, 3, 6, seed=1)
        with pytest.raises(ValueError, match="codes disagree on block length: 64 vs 32"):
            JointTannerGraph(form=FOLDED_Z, model=MODEL, h1=h1, h2=h2)

    def test_rejects_unknown_form(self):
        for form in ("implicit", "Folded", None):
            message = re.escape(f"unknown graph form {form!r}")
            with pytest.raises(ValueError, match=message):
                build_joint_graph(H1, H2, MODEL, form=form)
            with pytest.raises(ValueError, match=message):
                JointTannerGraph(form=form, model=MODEL, h1=H1, h2=H2)


def _reference_edges(h1, h2, form):
    """Edge lists built by a plain loop over the rows (check-major order)."""
    n, m1, m2 = h1.n, h1.m, h2.m
    edge_var, edge_check = [], []
    for j, row in enumerate(rows_of(h1)):
        edge_var.extend(row)
        edge_check.extend([j] * len(row))
    for k, row in enumerate(rows_of(h2)):
        edge_var.extend(n + i for i in row)
        edge_check.extend([m1 + k] * len(row))
    for i in range(n):
        attached = (i, n + i, 2 * n + i) if form == EXPLICIT_Z else (i, n + i)
        edge_var.extend(attached)
        edge_check.extend([m1 + m2 + i] * len(attached))
    return edge_var, edge_check


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
        g = build_joint_graph(h1, h2, MODEL, form=form)
        edge_var, edge_check = _reference_edges(h1, h2, form)
        assert g.edge_var.dtype == np.int64 and g.edge_check.dtype == np.int64
        assert g.edge_var.tolist() == edge_var
        assert g.edge_check.tolist() == edge_check


class TestDecodeLayout:
    """The check-degree groups that the decoder reads as contiguous views."""

    @staticmethod
    def _grouped(g):
        plan = g._plan
        order = plan.group_order
        if order is None:
            return plan, g.edge_var, g.edge_check
        return plan, g.edge_var[order], g.edge_check[order]

    @pytest.mark.parametrize("form", [EXPLICIT_Z, FOLDED_Z])
    @pytest.mark.parametrize(
        "h1",
        [identity_matrix(1024), gallager_construct(1024, 3, 6, seed=8)],
        ids=["corner", "symmetric"],
    )
    def test_regular_graphs_need_no_permutation(self, h1, form):
        g = build_joint_graph(h1, gallager_construct(1024, 3, 6, seed=7), MODEL, form=form)
        plan = g._plan
        assert plan.group_order is None and plan.edge_var is g.edge_var
        ranges = [(start, stop) for _, start, stop in plan.check_groups]
        # the ranges tile [0, num_edges) once, in order
        assert [start for start, _ in ranges] == [0] + [stop for _, stop in ranges[:-1]]
        assert ranges[-1][1] == g.num_edges
        # degrees in order of first appearance along the edge lists
        appearance = []
        degrees = np.bincount(g.edge_check, minlength=g.check_count)
        for d in degrees[g.edge_check]:
            if d not in appearance:
                appearance.append(int(d))
        assert [d for d, _, _ in plan.check_groups] == appearance

    @pytest.mark.parametrize("form", [EXPLICIT_Z, FOLDED_Z])
    @pytest.mark.parametrize(
        "h1, h2",
        [
            (identity_matrix(24), gallager_construct(24, 3, 6, seed=3)),
            (IRREGULAR, identity_matrix(12)),
            (gallager_construct(12, 3, 6, seed=1), IRREGULAR),
            (IRREGULAR, SparseParityMatrix.from_rows(12, [])),
        ],
    )
    def test_groups_hold_whole_checks_of_their_degree(self, h1, h2, form):
        g = build_joint_graph(h1, h2, MODEL, form=form)
        plan, edge_var, edge_check = self._grouped(g)
        degrees = np.bincount(g.edge_check, minlength=g.check_count)
        assert sorted(edge_check.tolist()) == sorted(g.edge_check.tolist())
        covered = 0
        for degree, start, stop in plan.check_groups:
            assert start == covered
            covered = stop
            block = edge_check[start:stop].reshape(-1, degree)
            # each row is one whole check of this degree, in ascending id
            assert (block == block[:, :1]).all()
            assert (degrees[block[:, 0]] == degree).all()
            assert (np.diff(block[:, 0]) > 0).all()
        assert covered == g.num_edges
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
                r: (g.edge_var[g.edge_check == first_check + r] - first_var).tolist()
                for r in range(h.m)
            }


def _assert_same_groups(plan, want):
    """A kernel plan's groups equal the edge-based oracle's."""
    groups, order = plan.check_groups, plan.group_order
    want_groups, want_order = want
    assert groups == want_groups
    if want_order is None:
        assert order is None
    else:
        assert order.dtype == np.int64 and np.array_equal(order, want_order)


# row weights 0, 1 and 3 interleaved down the matrix, so that the groups
# are not runs: every plan of it needs a permutation
INTERLEAVED = SparseParityMatrix.from_rows(
    9, [(0, 4, 8), (), (2,), (1, 3, 5), (), (7,), (0, 6, 7), (3,)]
)
# matrices that each draw rows of weights 0, 1 and 3 only
ZERO_ONE_THREE = mixed_weight_matrices(max_n=12, weights=(0, 1, 3))


def _code_plan(h):
    """The kernel plan of the H2-only graph over h."""
    return KnownU1Graph(h, 1.0, np.zeros(2))._plan


class TestKernelPlan:
    """The one plan builder, from check degrees, against the edge-based
    oracle in ``tests/_layout_reference.py``, and grouped by the rule that
    groups a matrix's rows (``ldpc._degree_groups``)."""

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
        assert plan.edge_var is h.entries[0]
        _assert_same_groups(plan, flood_layout_reference(h.entries[1], h.m))
        # one weight in row order needs no permutation
        if len(h._row_blocks) == 1:
            assert plan.group_order is None

    @settings(max_examples=100, deadline=None)
    @given(h=st.one_of(mixed_weight_matrices(), ZERO_ONE_THREE))
    @example(h=INTERLEAVED)
    def test_code_plan_is_the_flood_layout_of_the_entries(self, h):
        plan = _code_plan(h)
        want = flood_layout_reference(h.entries[1], h.m)
        _assert_same_groups(plan, want)
        # the row blocks of the same weights come in the same order, the
        # rows without entries, which have no edges, left out
        weights = [len(block) for block, _ in h._row_blocks]
        assert [degree for degree, _, _ in plan.check_groups] == [w for w in weights if w]
        assert sorted(weights) == sorted(set(len(row) for row in rows_of(h)))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), form=st.sampled_from([EXPLICIT_Z, FOLDED_Z]))
    def test_joint_plan_is_the_flood_layout_of_the_edges(self, data, form):
        h1 = data.draw(st.one_of(mixed_weight_matrices(), ZERO_ONE_THREE), label="h1")
        pools = [mixed_weight_matrices(n=h1.n, weights=w) for w in (None, (0, 1, 3))]
        h2 = data.draw(st.one_of(pools), label="h2")
        g = build_joint_graph(h1, h2, MODEL, form=form)
        plan = g._plan
        assert plan.edge_var is g.edge_var and g.num_edges == len(g.edge_var)
        want = flood_layout_reference(g.edge_check, g.check_count)
        _assert_same_groups(plan, want)


class TestFold:
    def test_fold_matches_direct_build(self):
        # the folded form is the explicit form without the z block
        for h2 in (H2, gallager_construct(24, 3, 6, seed=3)):
            h1 = identity_matrix(h2.n)
            explicit = build_joint_graph(h1, h2, MODEL, form=EXPLICIT_Z)
            direct = build_joint_graph(h1, h2, MODEL, form=FOLDED_Z)
            keep = explicit.edge_var < 2 * h2.n
            assert np.array_equal(explicit.edge_var[keep], direct.edge_var)
            assert np.array_equal(explicit.edge_check[keep], direct.edge_check)
            assert np.array_equal(explicit.priors[: 2 * h2.n], direct.priors)
            assert explicit.corr_param == direct.corr_param


class TestSerialize:
    """The edge lists of the smallest corner graph, spelled out by hand."""

    def test_golden_folded(self):
        g = build_joint_graph(H1, H2, MODEL)
        assert g.edge_var.tolist() == [0, 1, 2, 3, 0, 2, 1, 3]
        assert g.edge_check.tolist() == [0, 1, 2, 2, 3, 3, 4, 4]
        assert g.corr_param == 2.1972245773362196


class TestCycleFree:
    def test_chain_is_a_tree(self):
        assert is_cycle_free(build_joint_graph(H1, H2, MODEL))
        assert is_cycle_free(build_joint_graph(H1, H2, MODEL, form=EXPLICIT_Z))

    def test_repeated_row_creates_a_cycle(self):
        h2 = SparseParityMatrix.from_rows(2, ((0, 1), (0, 1)))
        assert not is_cycle_free(build_joint_graph(H1, h2, MODEL))

    def test_regular_code_graph_is_loopy(self):
        h2 = gallager_construct(24, 3, 6, seed=1)
        assert not is_cycle_free(build_joint_graph(identity_matrix(24), h2, MODEL))


class TestKnownU1:
    """The pass that takes a known u1 block out of the joint graph."""

    H2 = gallager_construct(64, 3, 6, seed=3)

    @pytest.mark.parametrize(
        "h1", [identity_matrix(64), load_alist(save_alist(identity_matrix(64)))],
        ids=["built", "alist"],
    )
    def test_applies_to_the_corner_graph(self, h1):
        g = build_joint_graph(h1, self.H2, CorrelationModel(0.96))
        known = g._known_u1
        assert known is not None and g._known_u1 is known  # computed once
        plan = known._plan
        assert known._plan is plan  # built once
        assert g.num_edges == 6 * 64 and len(plan.edge_var) == 3 * 64
        # the edges are h2's entries, variables numbered from u2's first
        assert plan.edge_var is self.H2.entries[0]
        assert plan.group_order is None and plan.check_groups == ((6, 0, 3 * 64),)
        # q is the correlation check's message, not the hidden-bit LLR; the
        # table holds +/- q/2, the kernel's half-LLR unit
        q = 3.1780538303457027
        assert (known.half_prior_by_bit * 2.0).tolist() == [q, -q]
        assert hidden_llr(CorrelationModel(0.96)) == 3.1780538303479444
        # no joint structure is built
        assert list(vars(g)) == ["h1", "h2", "model", "form", "_known_u1"]

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
                result = decode(graph, s1, s2, config)
                expected = decode_reference(graph, s1, s2, config)
                for name in ("u1_hat", "u2_hat", "z_hat", "posterior_llrs"):
                    assert getattr(result, name).tobytes() == getattr(expected, name).tobytes()
                assert result.converged == expected.converged
                assert result.iterations_used == expected.iterations_used
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
        "h1, h2, form",
        [
            (identity_matrix(12), gallager_construct(12, 3, 6, seed=1), EXPLICIT_Z),
            (gallager_construct(12, 3, 6, seed=2), gallager_construct(12, 3, 6, seed=1), FOLDED_Z),
            # u1 variable 0 has a second code edge
            (
                SparseParityMatrix.from_rows(4, ((0, 1), (1,), (2,), (3,))),
                SparseParityMatrix.from_rows(4, ((0, 1, 2),)),
                FOLDED_Z,
            ),
            # an h1 row without entries leaves u1 variable 1 unpinned
            (
                SparseParityMatrix.from_rows(4, ((0,), (), (2,), (3,))),
                SparseParityMatrix.from_rows(4, ((0, 1, 2),)),
                FOLDED_Z,
            ),
            (identity_matrix(4), SparseParityMatrix.from_rows(4, ((0, 1, 2), (3,))), FOLDED_Z),
            (identity_matrix(4), SparseParityMatrix.from_rows(4, ((), ())), FOLDED_Z),
        ],
        ids=["explicit", "symmetric", "u1-degree-2", "h1-empty-row", "h2-degree-1", "h2-no-entries"],
    )
    def test_does_not_apply(self, h1, h2, form):
        g = build_joint_graph(h1, h2, MODEL, form=form)
        assert g._known_u1 is None
        assert "_known_u1" in vars(g)  # None is cached too

    def test_applies_with_an_empty_h2_row(self):
        h2 = SparseParityMatrix.from_rows(4, ((0, 1, 2), (), (1, 3)))
        known = build_joint_graph(identity_matrix(4), h2, MODEL)._known_u1
        assert known is not None and len(known._plan.edge_var) == 5
