import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swldpc import (
    EXPLICIT_Z,
    FOLDED_Z,
    LLR_MAX,
    CorrelationModel,
    DecoderConfig,
    SparseParityMatrix,
    brute_force_marginals,
    build_joint_graph,
    decode,
    gallager_construct,
    hidden_llr,
    identity_matrix,
    is_cycle_free,
    sample_pair,
    syndrome,
)

from _decoder_reference import decode_reference
from _forest import random_forest_instance

LN_9 = 2.1972245773362196


def _corner_instance(n, p, seed, code_seed=7):
    h1 = identity_matrix(n)
    h2 = gallager_construct(n, 3, 6, seed=code_seed)
    model = CorrelationModel(p)
    pair = sample_pair(model, n, seed=seed)
    graph = build_joint_graph(h1, h2, model)
    return graph, h1, h2, pair, syndrome(h1, pair.u1), syndrome(h2, pair.u2)


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
        graph, _, _, _, s1, s2 = _corner_instance(64, 0.96, seed=4)
        snapshots = []
        result = decode(
            graph,
            s1,
            s2,
            DecoderConfig(max_iterations=25),
            iteration_hook=snapshots.append,
        )
        assert [info.iteration for info in snapshots] == list(
            range(1, result.iterations_used + 1)
        )
        assert (snapshots[-1].unsatisfied_checks == 0) == result.converged
        assert snapshots[-1].posteriors.shape == (2 * graph.n,)
        assert np.array_equal(snapshots[-1].posteriors, result.posterior_llrs)
        assert all(np.isfinite(info.mean_abs_posterior) for info in snapshots)


def _leave_one_out_v2c(graph, c2v):
    """Variable-to-check messages by their definition: the prior plus the
    incoming check messages of every other edge of the variable, clamped."""
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
        # identity h1 gives degree-1 checks; the explicit form adds
        # degree-1 z variables
        graph, _, _, _, s1, s2 = _corner_instance(32, 0.9, seed=5)
        graph = build_joint_graph(graph.h1, graph.h2, graph.model, form=form)
        assert graph.check_degrees().min() == 1
        assert (graph.var_degrees().min() == 1) == (form == EXPLICIT_Z)
        snaps = []
        config = DecoderConfig(max_iterations=12, damping=damping, early_stop=False)
        decode(graph, s1, s2, config, iteration_hook=snaps.append)
        previous = np.zeros(graph.num_edges)
        for info in snaps:
            expected = _leave_one_out_v2c(graph, previous)
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
        n = 64
        h2 = gallager_construct(n, 3, 6, seed=5)
        h1 = gallager_construct(n, 3, 6, seed=6) if symmetric else identity_matrix(n)
        graph = build_joint_graph(h1, h2, CorrelationModel(0.9), form=form)
        result = decode(graph, np.zeros(h1.m, np.uint8), np.zeros(h2.m, np.uint8))
        assert result.converged
        assert result.iterations_used == 1
        assert not result.u1_hat.any()
        assert not result.u2_hat.any()
        assert not result.z_hat.any()
        assert np.all(np.isfinite(result.posterior_llrs))

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
        snaps = []
        config = DecoderConfig(max_iterations=100, early_stop=False)
        result = decode(
            graph, syndrome(h1, u1), syndrome(h2, u2), config, iteration_hook=snaps.append
        )
        assert result.iterations_used == 100
        assert np.all(np.isfinite(result.posterior_llrs))
        # variable messages hit the clamp
        assert max(np.abs(info.v2c).max() for info in snaps) == LLR_MAX
        for info in snaps:
            assert np.all(np.isfinite(info.posteriors))
            assert np.abs(info.v2c).max() <= LLR_MAX
            assert np.abs(info.c2v).max() <= LLR_MAX


class TestTreeExactness:
    def test_matches_enumeration_on_forests(self):
        config = DecoderConfig(max_iterations=60, early_stop=False)
        for seed in range(6):
            h1, h2, model, s1, s2 = random_forest_instance(seed)
            oracle = brute_force_marginals(h1, h2, model, s1, s2)
            reference = oracle.posterior_llrs()
            for form in (EXPLICIT_Z, FOLDED_Z):
                graph = build_joint_graph(h1, h2, model, form=form)
                assert is_cycle_free(graph)
                result = decode(graph, s1, s2, config)
                assert result.posterior_llrs == pytest.approx(reference, abs=1e-9)


class TestFormEquivalence:
    def test_message_trajectories_agree(self):
        h1 = identity_matrix(64)
        h2 = gallager_construct(64, 3, 6, seed=3)
        model = CorrelationModel(0.9)
        pair = sample_pair(model, 64, seed=11)
        s1, s2 = syndrome(h1, pair.u1), syndrome(h2, pair.u2)
        config = DecoderConfig(max_iterations=20, early_stop=False)

        trajectories = {}
        results = {}
        for form in (EXPLICIT_Z, FOLDED_Z):
            graph = build_joint_graph(h1, h2, model, form=form)
            snaps = []
            results[form] = decode(graph, s1, s2, config, iteration_hook=snaps.append)
            trajectories[form] = (graph, snaps)

        g_exp, exp_snaps = trajectories[EXPLICIT_Z]
        _, fold_snaps = trajectories[FOLDED_Z]
        shared = g_exp.edge_var < 2 * g_exp.n  # u1/u2 edges, same order in both forms
        for a, b in zip(exp_snaps, fold_snaps):
            assert np.abs(a.v2c[shared] - b.v2c).max() <= 1e-12
            assert np.abs(a.c2v[shared] - b.c2v).max() <= 1e-12
            assert np.abs(a.posteriors - b.posteriors).max() <= 1e-12
        assert np.array_equal(
            results[EXPLICIT_Z].u1_hat, results[FOLDED_Z].u1_hat
        )
        assert np.array_equal(
            results[EXPLICIT_Z].u2_hat, results[FOLDED_Z].u2_hat
        )


def _assert_matches_reference(graph, s1, s2, config):
    """decode and the reference loop agree bit for bit, snapshot by snapshot."""
    snaps, ref_snaps = [], []
    result = decode(graph, s1, s2, config, iteration_hook=snaps.append)
    expected = decode_reference(graph, s1, s2, config, iteration_hook=ref_snaps.append)
    for name in ("u1_hat", "u2_hat", "z_hat", "posterior_llrs"):
        got, want = getattr(result, name), getattr(expected, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert result.converged == expected.converged
    assert result.iterations_used == expected.iterations_used
    assert len(snaps) == len(ref_snaps) == result.iterations_used
    for got, want in zip(snaps, ref_snaps):
        assert got.iteration == want.iteration
        assert got.unsatisfied_checks == want.unsatisfied_checks, got.iteration
        assert got.mean_abs_posterior == want.mean_abs_posterior, got.iteration
        for name in ("v2c", "c2v", "posteriors"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (
                got.iteration,
                name,
            )
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
    """The contiguous-view kernel against the slot-matrix reference loop."""

    @pytest.mark.parametrize("form", [EXPLICIT_Z, FOLDED_Z])
    @pytest.mark.parametrize("p, seeds", [(0.96, (0, 1)), (0.92, (2, 3))])
    def test_corner_point(self, form, p, seeds):
        n = 1024
        h1, h2 = identity_matrix(n), gallager_construct(n, 3, 6, seed=7)
        model = CorrelationModel(p)
        graph = build_joint_graph(h1, h2, model, form=form)
        assert graph._decode_layout()["group_order"] is None
        outcomes = set()
        for seed in seeds:
            s1, s2 = _frame_syndromes(h1, h2, model, seed)
            result = _assert_matches_reference(graph, s1, s2, DecoderConfig())
            outcomes.add(result.converged)
        # p = 0.92 covers a frame at the iteration cap as well
        assert outcomes == ({True} if p == 0.96 else {True, False})

    @pytest.mark.parametrize("form", [EXPLICIT_Z, FOLDED_Z])
    @pytest.mark.parametrize("damping", [0.0, 0.3])
    def test_damping_and_full_budget(self, form, damping):
        n = 256
        h1, h2 = identity_matrix(n), gallager_construct(n, 3, 6, seed=3)
        model = CorrelationModel(0.93)
        graph = build_joint_graph(h1, h2, model, form=form)
        s1, s2 = _frame_syndromes(h1, h2, model, 5)
        config = DecoderConfig(max_iterations=40, damping=damping, early_stop=False)
        _assert_matches_reference(graph, s1, s2, config)

    @pytest.mark.parametrize("form", [EXPLICIT_Z, FOLDED_Z])
    def test_symmetric_point(self, form):
        # without degree-1 checks every message stays at the all-zero fixed
        # point; the interleaved code below carries nonzero messages
        n = 256
        h1, h2 = gallager_construct(n, 3, 6, seed=1), gallager_construct(n, 3, 6, seed=2)
        model = CorrelationModel(0.99)
        graph = build_joint_graph(h1, h2, model, form=form)
        assert graph._decode_layout()["group_order"] is None
        for seed in range(2):
            s1, s2 = _frame_syndromes(h1, h2, model, seed)
            _assert_matches_reference(graph, s1, s2, DecoderConfig())

    @pytest.mark.parametrize("form", [EXPLICIT_Z, FOLDED_Z])
    @pytest.mark.parametrize("damping", [0.0, 0.3])
    def test_interleaved_irregular_code(self, form, damping):
        n = 96
        h1, h2 = _interleaved_code(n, 1), _interleaved_code(n, 2)
        model = CorrelationModel(0.9)
        graph = build_joint_graph(h1, h2, model, form=form)
        assert graph._decode_layout()["group_order"] is not None
        for seed in range(3):
            s1, s2 = _frame_syndromes(h1, h2, model, seed)
            result = _assert_matches_reference(graph, s1, s2, DecoderConfig(damping=damping))
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
        form = data.draw(st.sampled_from([EXPLICIT_Z, FOLDED_Z]), label="form")
        config = DecoderConfig(
            max_iterations=data.draw(st.integers(1, 15), label="max_iterations"),
            damping=data.draw(st.sampled_from([0.0, 0.3]), label="damping"),
            early_stop=data.draw(st.booleans(), label="early_stop"),
        )
        graph = build_joint_graph(h1, h2, CorrelationModel(p), form=form)
        _assert_matches_reference(graph, s1, s2, config)


def _unsatisfied_from_posteriors(graph, posteriors, s1, s2):
    hard = (posteriors < 0).astype(np.uint8)
    u1, u2 = hard[: graph.n], hard[graph.n :]
    return int(
        np.count_nonzero(syndrome(graph.h1, u1) != s1)
        + np.count_nonzero(syndrome(graph.h2, u2) != s2)
    )


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
        graph = build_joint_graph(h1, h2, model, form=form)
        snaps = []
        config = DecoderConfig(max_iterations=30)
        result = decode(graph, s1, s2, config, iteration_hook=snaps.append)
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
