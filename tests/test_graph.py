import numpy as np
import pytest

from swldpc import (
    EXPLICIT_Z,
    FOLDED_Z,
    CorrelationModel,
    SparseParityMatrix,
    build_joint_graph,
    fold_hidden,
    gallager_construct,
    hidden_llr,
    identity_matrix,
    is_cycle_free,
)

H1 = identity_matrix(2)
H2 = SparseParityMatrix.from_rows(2, ((0, 1),))
MODEL = CorrelationModel(0.9)

GOLDEN_FOLDED = (
    "V u1 0\nV u1 1\nV u2 0\nV u2 1\n"
    "C code1 0\nC code1 1\nC code2 0\n"
    "C corr 0 parity=0 param=2.1972245773362196\n"
    "C corr 1 parity=0 param=2.1972245773362196\n"
    "E 0 0\nE 0 3\nE 1 1\nE 1 4\nE 2 2\nE 2 3\nE 3 2\nE 3 4\n"
)


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
        assert list(g.check_degrees()) == [1, 1, 2, 2, 2]
        assert list(g.var_degrees()) == [2, 2, 2, 2]

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            build_joint_graph(identity_matrix(3), H2, MODEL)

    def test_rejects_unknown_form(self):
        with pytest.raises(ValueError):
            build_joint_graph(H1, H2, MODEL, form="implicit")


def _reference_edges(h1, h2, form):
    """Edge lists built by a plain loop over the rows (check-major order)."""
    n, m1, m2 = h1.n, h1.m, h2.m
    edge_var, edge_check = [], []
    for j, row in enumerate(h1.rows):
        edge_var.extend(row)
        edge_check.extend([j] * len(row))
    for k, row in enumerate(h2.rows):
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
        layout = g._decode_layout()
        order = layout["group_order"]
        if order is None:
            return layout, g.edge_var, g.edge_check
        return layout, g.edge_var[order], g.edge_check[order]

    @pytest.mark.parametrize("form", [EXPLICIT_Z, FOLDED_Z])
    @pytest.mark.parametrize(
        "h1",
        [identity_matrix(1024), gallager_construct(1024, 3, 6, seed=8)],
        ids=["corner", "symmetric"],
    )
    def test_regular_graphs_need_no_permutation(self, h1, form):
        g = build_joint_graph(h1, gallager_construct(1024, 3, 6, seed=7), MODEL, form=form)
        layout = g._decode_layout()
        assert layout["group_order"] is None
        ranges = [(start, stop) for _, start, stop in layout["check_groups"]]
        # the ranges tile [0, num_edges) once, in order
        assert [start for start, _ in ranges] == [0] + [stop for _, stop in ranges[:-1]]
        assert ranges[-1][1] == g.num_edges
        # degrees in order of first appearance along the edge lists
        appearance = []
        for d in g.check_degrees()[g.edge_check]:
            if d not in appearance:
                appearance.append(int(d))
        assert [d for d, _, _ in layout["check_groups"]] == appearance

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
        layout, edge_var, edge_check = self._grouped(g)
        degrees = g.check_degrees()
        assert sorted(edge_check.tolist()) == sorted(g.edge_check.tolist())
        covered = 0
        for degree, start, stop in layout["check_groups"]:
            assert start == covered
            covered = stop
            block = edge_check[start:stop].reshape(-1, degree)
            # each row is one whole check of this degree, in ascending id
            assert (block == block[:, :1]).all()
            assert (degrees[block[:, 0]] == degree).all()
            assert (np.diff(block[:, 0]) > 0).all()
        assert covered == g.num_edges
        # the convergence test's blocks: each code row with entries once,
        # its variables down one column
        listed = {}
        for variables, checks in layout["code_groups"]:
            assert variables.flags.c_contiguous
            assert variables.shape[1] == len(checks)
            for c, column in zip(checks.tolist(), variables.T.tolist()):
                assert c < g.num_code_checks and c not in listed
                listed[c] = column
        assert listed == {
            c: g.edge_var[g.edge_check == c].tolist()
            for c in range(g.num_code_checks)
            if degrees[c]
        }


class TestRoles:
    def test_round_trip(self):
        g = build_joint_graph(H1, H2, MODEL, form=EXPLICIT_Z)
        assert g.var_role(0) == ("u1", 0)
        assert g.var_role(3) == ("u2", 1)
        assert g.var_role(4) == ("z", 0)
        assert g.check_role(1) == ("code1", 1)
        assert g.check_role(2) == ("code2", 0)
        assert g.check_role(4) == ("corr", 1)

    def test_out_of_range(self):
        g = build_joint_graph(H1, H2, MODEL)
        with pytest.raises(IndexError):
            g.var_role(4)  # z block absent in folded form
        with pytest.raises(IndexError):
            g.check_role(5)


class TestFold:
    def test_fold_matches_direct_build(self):
        for h2 in (H2, gallager_construct(24, 3, 6, seed=3)):
            h1 = identity_matrix(h2.n)
            explicit = build_joint_graph(h1, h2, MODEL, form=EXPLICIT_Z)
            direct = build_joint_graph(h1, h2, MODEL, form=FOLDED_Z)
            assert fold_hidden(explicit).structure_equal(direct)

    def test_fold_requires_explicit(self):
        with pytest.raises(ValueError):
            fold_hidden(build_joint_graph(H1, H2, MODEL))

    def test_structure_equal_notices_model_change(self):
        a = build_joint_graph(H1, H2, CorrelationModel(0.9))
        b = build_joint_graph(H1, H2, CorrelationModel(0.8))
        assert not a.structure_equal(b)


class TestSerialize:
    def test_golden_folded(self):
        assert build_joint_graph(H1, H2, MODEL).serialize() == GOLDEN_FOLDED

    def test_explicit_adds_z_rows(self):
        text = build_joint_graph(H1, H2, MODEL, form=EXPLICIT_Z).serialize()
        assert "V z 0\n" in text and "V z 1\n" in text
        assert text.count("E ") == 10
        # shared structure prints identically
        for line in GOLDEN_FOLDED.splitlines():
            assert line in text

    def test_serialize_is_deterministic(self):
        h2 = gallager_construct(24, 3, 6, seed=5)
        g1 = build_joint_graph(identity_matrix(24), h2, MODEL)
        g2 = build_joint_graph(identity_matrix(24), h2, MODEL)
        assert g1.serialize() == g2.serialize()


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
