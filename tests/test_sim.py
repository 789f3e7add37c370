import os
import pickle
import re
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

from swldpc import (
    CorrelationModel,
    DecoderConfig,
    SimConfig,
    SimRecord,
    configs_over_p,
    derive_trial_seed,
    format_csv,
    gallager_construct,
    identity_matrix,
    joint_entropy,
    run_trials,
    sweep,
)
from swldpc import sim
from swldpc.sim import CSV_COLUMNS, _split

H2_64 = gallager_construct(64, 3, 6, seed=2)
H2_256 = gallager_construct(256, 3, 6, seed=6)


def _config(p=0.95, h2=H2_64, trials=20, seed=11, **kwargs):
    return SimConfig(
        model=CorrelationModel(p), h2=h2, trials=trials, master_seed=seed, **kwargs
    )


@pytest.fixture
def pools(monkeypatch):
    """Stands in for the worker pool: each pool opened is recorded by its
    ``max_workers`` and maps in this process, so no process starts."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(sim, "ProcessPoolExecutor", InlinePool)
    return sizes


class TestTrialSeeds:
    def test_frozen_values(self):
        assert derive_trial_seed(0, 0) == 16294208416658607535
        assert derive_trial_seed(2024, 7) == 11000608607208515474
        assert derive_trial_seed(2**64 - 1, 3) == 7862637804313477842

    def test_no_collisions_in_long_streams(self):
        seeds = {derive_trial_seed(42, t) for t in range(10_000)}
        assert len(seeds) == 10_000
        assert all(0 <= s < 2**64 for s in seeds)

    def test_rejects_negative_trial(self):
        with pytest.raises(ValueError):
            derive_trial_seed(1, -1)

    def test_numpy_integers(self):
        # a trial replayed from numpy values draws the same seed
        assert derive_trial_seed(np.int64(5), 0) == derive_trial_seed(5, 0)
        assert derive_trial_seed(5, np.int64(0)) == derive_trial_seed(5, 0)
        assert derive_trial_seed(np.uint64(2**64 - 1), np.int32(3)) == 7862637804313477842

    @pytest.mark.parametrize(
        "master_seed, trial, name",
        [(1.5, 0, "master_seed"), (5.0, 0, "master_seed"), (True, 0, "master_seed"),
         (5, 1.0, "trial"), (5, False, "trial"), (5, np.float64(2), "trial")],
    )
    def test_rejects_non_integers(self, master_seed, trial, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            derive_trial_seed(master_seed, trial)


class TestConfigValidation:
    def test_block_length_must_agree(self):
        with pytest.raises(ValueError):
            _config(h1=gallager_construct(128, 3, 6, seed=9))

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            _config(trials=0)

    @pytest.mark.parametrize("trials", [True, 2.0])
    def test_trials_must_be_an_integer(self, trials):
        with pytest.raises(ValueError, match=f"trials must be a positive integer, got {trials}"):
            _config(trials=trials)

    @pytest.mark.parametrize("seed", [1.5, "1", None, True])
    def test_master_seed_must_be_an_integer(self, seed):
        message = re.escape(f"master_seed must be an integer, got {seed!r}")
        with pytest.raises(ValueError, match=message):
            _config(seed=seed)

    @pytest.mark.parametrize("field", ["model", "decode_model"])
    @pytest.mark.parametrize("model", [0.9, "0.9", 2.1972245773362196], ids=["p", "str", "llr"])
    def test_models_must_be_correlation_models(self, field, model):
        """A bare probability is refused where it is passed, not where a
        trial first reads its ``p``."""
        config = dict(model=CorrelationModel(0.9), h2=H2_64, trials=2, master_seed=1)
        config[field] = model
        message = re.escape(f"{field} must be a CorrelationModel, got {model!r}")
        with pytest.raises(ValueError, match=message):
            SimConfig(**config)
        if field == "decode_model":  # None decodes with the sampling model
            assert SimConfig(**dict(config, decode_model=None)).decode_model is None

    @pytest.mark.parametrize(
        "field, code",
        [("h2", None), ("h2", np.eye(64, dtype=np.uint8)), ("h2", "code.alist"),
         ("h1", np.eye(64, dtype=np.uint8)), ("h1", "code.alist")],
        ids=["h2-none", "h2-dense", "h2-path", "h1-dense", "h1-path"],
    )
    def test_codes_must_be_matrices(self, field, code):
        """Refused where it is passed, not inside ``run_trials``; None is
        the identity for h1 only."""
        message = re.escape(f"{field} must be a SparseParityMatrix, got {code!r}")
        with pytest.raises(ValueError, match=message):
            _config(**{field: code})

    @pytest.mark.parametrize(
        "decoder", [None, 30, {"max_iterations": 30}], ids=["none", "int", "dict"]
    )
    def test_decoder_must_be_a_decoder_config(self, decoder):
        message = re.escape(f"decoder must be a DecoderConfig, got {decoder!r}")
        with pytest.raises(ValueError, match=message):
            _config(decoder=decoder)

    def test_numpy_integers(self):
        config = _config(trials=np.int64(3), seed=np.uint64(2**64 - 1))
        assert type(config.trials) is int and type(config.master_seed) is int
        decoder = DecoderConfig(max_iterations=np.int32(30))
        assert type(decoder.max_iterations) is int
        record = run_trials(replace(config, decoder=decoder), jobs=np.int64(1))
        expected = run_trials(_config(trials=3, seed=2**64 - 1, decoder=DecoderConfig(30)))
        assert format_csv([record]) == format_csv([expected])


class TestRunTrials:
    def test_deterministic(self):
        assert run_trials(_config()) == run_trials(_config())

    def test_jobs_do_not_change_the_result(self):
        record = run_trials(_config(trials=24))
        assert run_trials(_config(trials=24), jobs=3) == record
        assert run_trials(_config(trials=24), jobs=7) == record

    def test_caches_never_travel(self):
        """A code's caches (its row blocks and slots) stay in the process
        that built them: the pickle that a worker receives is the same
        before and after a run warms them, and workers that build their own
        give the record one process gives."""
        h2 = gallager_construct(256, 3, 6, seed=6)
        config = _config(p=0.94, h2=h2, trials=8)
        before = pickle.dumps(h2), pickle.dumps(config)
        record = run_trials(config)
        assert {"_row_blocks", "_slots"} <= set(vars(h2))  # warm
        assert (pickle.dumps(h2), pickle.dumps(config)) == before
        assert run_trials(config, jobs=2) == record == run_trials(config, jobs=1)

    @pytest.mark.parametrize(
        "trials",
        [1, 2, 7, 24, 100, 2**53 - 1, 2**53 + 1, 10**17 + 3, 2**63 - 1, 2**64 - 1, 2**64],
    )
    @pytest.mark.parametrize("jobs", [1, 2, 3, 7])
    def test_split_is_exact(self, trials, jobs):
        # no trial is run: the ranges tile [0, trials) once, in order, and
        # their sizes differ by at most one, beyond float precision too
        jobs = min(jobs, trials)
        chunks = _split(trials, jobs)
        assert len(chunks) == jobs and chunks[0][0] == 0 and chunks[-1][1] == trials
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        sizes = {hi - lo for lo, hi in chunks}
        assert sizes <= {trials // jobs, -(-trials // jobs)} and min(sizes) > 0
        assert all(type(bound) is int for chunk in chunks for bound in chunk)

    def test_record_fields(self):
        config = _config(p=0.9, trials=25)
        record = run_trials(config)
        assert record.p == 0.9
        assert record.n == 64
        assert record.r1 == 1.0  # identity code for source 1
        assert record.r2 == 0.5
        assert record.trials == 25
        assert 0.0 <= record.ber1 <= 0.5 + 1e-9
        assert 0.0 <= record.ber2 <= 0.5 + 1e-9
        assert record.ber1 <= record.fer <= 1.0
        assert record.ber2 <= record.fer <= 1.0
        assert 1.0 <= record.avg_iterations <= 100.0
        assert 0.0 <= record.converged_fraction <= 1.0
        assert record.sw_sum_slack == record.r1 + record.r2 - joint_entropy(config.model)

    def test_degenerate_correlation_recovers_exactly(self):
        record = run_trials(_config(p=1 - 1e-9, trials=50, seed=5))
        assert record.ber1 == 0.0
        assert record.ber2 == 0.0
        assert record.fer == 0.0
        assert record.converged_fraction == 1.0

    def test_symmetric_mode_record(self):
        config = SimConfig(
            model=CorrelationModel(0.99),
            h2=gallager_construct(24, 3, 6, seed=1),
            h1=gallager_construct(24, 3, 6, seed=9),
            trials=5,
            master_seed=11,
        )
        record = run_trials(config)
        assert record.r1 == 0.5 and record.r2 == 0.5
        assert run_trials(config) == record

    def test_identity_h1_matches_no_h1(self):
        # a given h1 is applied by syndrome; the identity's is u1 itself
        config = _config(p=0.92, trials=12)
        with_identity = _config(p=0.92, trials=12, h1=identity_matrix(64))
        assert run_trials(with_identity) == run_trials(config)

    def test_frames_wrong_in_source_1_alone_count(self):
        """The mirrored corner point, h2 the identity: u2 is sent raw and
        decoded without error, so every frame error is in source 1."""
        config = SimConfig(
            model=CorrelationModel(0.9),
            h2=identity_matrix(256),
            h1=gallager_construct(256, 3, 6, seed=2),
            trials=40,
            master_seed=3,
        )
        record = run_trials(config)
        assert record.ber2 == 0.0 and record.ber1 > 0.0
        assert record.fer == 0.875 and record.converged_fraction == 0.125

    def test_mismatched_decode_model_hurts(self):
        enabled = _config(p=0.92, h2=H2_256, trials=100, seed=3)
        disabled = _config(
            p=0.92, h2=H2_256, trials=100, seed=3, decode_model=CorrelationModel(0.5)
        )
        assert run_trials(disabled).ber2 >= run_trials(enabled).ber2

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            run_trials(_config(), jobs=0)
        for jobs in (True, 2.0):
            with pytest.raises(ValueError, match=f"jobs must be a positive integer, got {jobs}"):
                run_trials(_config(), jobs=jobs)


class TestSweep:
    def test_order_and_single_point(self):
        config = _config(trials=10)
        records = sweep(configs_over_p(config, [0.99, 0.9]))
        assert [r.p for r in records] == [0.99, 0.9]
        assert sweep([config]) == [run_trials(config)]

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            sweep([])

    def test_error_rate_grows_as_correlation_weakens(self):
        config = _config(h2=H2_256, trials=30, seed=17)
        records = sweep(configs_over_p(config, [0.99, 0.96, 0.92, 0.88]))
        ber2 = [r.ber2 for r in records]
        assert ber2 == sorted(ber2)
        assert records[0].ber2 == 0.0
        assert records[-1].fer > 0.9

    def test_single_trial_fer_is_binary(self):
        records = sweep(configs_over_p(_config(trials=1), [0.99, 0.7]))
        assert all(r.fer in (0.0, 1.0) for r in records)

    def test_one_pool_per_call(self, pools):
        configs = configs_over_p(_config(trials=6), [0.99, 0.95, 0.9])
        records = sweep(configs, jobs=2)
        assert pools == [2]
        assert records == sweep(configs, jobs=1)

    @pytest.mark.parametrize("trials, jobs", [(6, 1), (1, 4)])
    def test_no_pool_when_every_point_is_one_range(self, pools, trials, jobs):
        sweep(configs_over_p(_config(trials=trials), [0.99, 0.9]), jobs=jobs)
        assert pools == []

    @pytest.mark.parametrize(
        "trials, jobs, cpus, workers, ranges",
        [((1, 5, 2), 3, 8, 3, 6), ((1, 2), 4, 8, 2, 3), ((12,), 5000, 3, 3, 3),
         ((12,), 5000, None, 3, 3)],
        ids=["widest-point", "short-points", "affinity", "cpu-count"],
    )
    def test_pool_capped_at_usable_cpus(self, pools, monkeypatch, trials, jobs, cpus, workers,
                                        ranges):
        # each point splits into at most as many ranges as the CPUs this
        # process may use (os.cpu_count where the affinity is unknown), and
        # the pool has as many workers as the point with the most ranges;
        # the records stay those of jobs=1
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 3)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        calls = []
        run_range = sim._run_range
        monkeypatch.setattr(sim, "_run_range", lambda *task: calls.append(task) or run_range(*task))
        configs = [_config(p=0.95 - 0.02 * k, trials=t) for k, t in enumerate(trials)]
        records = sweep(configs, jobs=jobs)
        assert pools == [workers]
        assert len(calls) == ranges
        assert records == sweep(configs, jobs=1)

    def test_points_of_unequal_length_share_one_pool(self):
        configs = [_config(p=0.95, trials=1), _config(p=0.9, trials=5), _config(p=0.93, trials=2)]
        records = sweep(configs, jobs=3)
        assert records == sweep(configs, jobs=1) == [run_trials(c) for c in configs]

    def test_decode_model_swept_along(self):
        config = _config(trials=5, decode_model=CorrelationModel(0.95))
        points = configs_over_p(config, [0.9, 0.8])
        assert [c.decode_model.p for c in points] == [0.9, 0.8]
        plain = configs_over_p(_config(trials=5), [0.9])
        assert plain[0].decode_model is None


class TestCsv:
    def test_golden_rows(self):
        records = [
            SimRecord(
                p=0.9,
                n=4,
                r1=1.0,
                r2=0.5,
                trials=10,
                ber1=0.0,
                ber2=0.125,
                fer=0.5,
                avg_iterations=3.4,
                converged_fraction=0.9,
                sw_sum_slack=0.031004406410718888,
            )
        ]
        expected = (
            "p,n,r1,r2,trials,ber1,ber2,fer,avg_iterations,converged_fraction,sw_sum_slack\n"
            "0.9,4,1.0,0.5,10,0.0,0.125,0.5,3.4,0.9,0.031004406410718888\n"
        )
        assert format_csv(records) == expected

    def test_header_only_for_no_records(self):
        assert format_csv([]) == ",".join(CSV_COLUMNS) + "\n"

    def test_byte_deterministic(self):
        records = sweep(configs_over_p(_config(trials=8), [0.95, 0.9]))
        assert format_csv(records) == format_csv(records)
        assert format_csv(records).encode("ascii")

    def test_round_trip_precision(self):
        record = run_trials(_config(p=0.9, trials=7))
        row = format_csv([record]).splitlines()[1].split(",")
        assert float(row[0]) == record.p
        assert float(row[10]) == record.sw_sum_slack
        assert int(row[4]) == record.trials
