import numpy as np
import pytest

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
