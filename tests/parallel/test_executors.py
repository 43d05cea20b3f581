"""Tests for the zero-copy execution layer (repro.parallel.executors / shm).

The load-bearing guarantees:

* every executor backend × every ``n_jobs`` × every null model produces a
  **bit-identical** ``RunResult`` (the JSON text, not just the values);
* the process backend really is zero-copy: a registered model ships as a
  token of a few dozen bytes per draw, not as a per-draw model pickle;
* lifecycle is leak-free: a raising Monte-Carlo collection tears down its
  pool and every shared-memory segment, even on the exception path.
"""

from __future__ import annotations

import concurrent.futures
import gc
import multiprocessing
import pickle
import time
import warnings

import numpy as np
import pytest

from repro.core.lambda_estimation import MonteCarloNullEstimator
from repro.core.null_models import BernoulliNull, SwapRandomizationNull
from repro.data.generators import PlantedItemset, generate_planted_dataset
from repro.data.random_model import RandomDatasetModel
from repro.engine import Engine, RunSpec
from repro.fim.bitmap import pack_int_bitsets, unpack_int_bitsets
from repro.parallel import (
    EXECUTOR_NAMES,
    CompatExecutor,
    ProcessExecutor,
    SerialExecutor,
    ShmSession,
    ThreadExecutor,
    as_executor,
    executor_spec_kind,
    export_model,
    import_model,
)


@pytest.fixture(scope="module")
def dataset():
    frequencies = {item: 0.12 for item in range(10)}
    planted = [PlantedItemset(items=(0, 1), extra_support=30)]
    return generate_planted_dataset(
        frequencies, num_transactions=120, planted=planted, rng=5, name="exec-data"
    )


# ----------------------------------------------------------------------
# Executor resolution
# ----------------------------------------------------------------------
class TestResolution:
    def test_names_resolve(self):
        for name, cls in (
            ("serial", SerialExecutor),
            ("thread", ThreadExecutor),
            ("process", ProcessExecutor),
        ):
            executor, owned = as_executor(name, n_jobs=2)
            try:
                assert isinstance(executor, cls)
                assert owned
                assert executor.kind == name
            finally:
                executor.close()

    def test_none_follows_n_jobs(self):
        assert executor_spec_kind(None, n_jobs=1) == "serial"
        assert executor_spec_kind(None, n_jobs=4) == "process"

    def test_instances_are_borrowed(self):
        with SerialExecutor() as serial:
            resolved, owned = as_executor(serial, n_jobs=3)
            assert resolved is serial
            assert not owned

    def test_concurrent_futures_pool_wrapped_as_compat(self):
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
            resolved, owned = as_executor(pool)
            assert isinstance(resolved, CompatExecutor)
            assert not owned

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            executor_spec_kind("gpu")
        with pytest.raises(ValueError, match="unknown executor"):
            MonteCarloNullEstimator(
                RandomDatasetModel({0: 0.5}, 10), 1, 1, 1, executor="gpu"
            )
        with pytest.raises(ValueError, match="unknown executor"):
            Engine(executor="gpu")

    def test_non_spec_types_fail_fast_with_type_error(self):
        from repro.core.miner import MinerConfig

        with pytest.raises(TypeError, match="executor must be"):
            executor_spec_kind(42)
        with pytest.raises(TypeError, match="executor must be"):
            Engine(executor=42)
        with pytest.raises(TypeError, match="executor must be"):
            MinerConfig(executor=42)
        with pytest.raises(TypeError, match="executor must be"):
            MonteCarloNullEstimator(
                RandomDatasetModel({0: 0.5}, 10), 1, 1, 1, executor=42
            )


# ----------------------------------------------------------------------
# Determinism: identical RunResult JSON across the whole matrix
# ----------------------------------------------------------------------
class TestDeterminismMatrix:
    SPEC = {"ks": (2,), "num_datasets": 8, "procedures": "both", "seed": 11}

    @pytest.fixture(scope="class")
    def baselines(self, dataset):
        texts = {}
        for null_model in ("bernoulli", "swap"):
            with Engine() as engine:
                spec = RunSpec(null_model=null_model, **self.SPEC)
                texts[null_model] = engine.run(spec, dataset=dataset).to_json()
        return texts

    @pytest.mark.parametrize("null_model", ["bernoulli", "swap"])
    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    @pytest.mark.parametrize("executor", list(EXECUTOR_NAMES))
    def test_run_result_json_identical(
        self, dataset, baselines, executor, n_jobs, null_model
    ):
        with Engine(executor=executor, n_jobs=n_jobs) as engine:
            spec = RunSpec(null_model=null_model, **self.SPEC)
            text = engine.run(spec, dataset=dataset).to_json()
        assert text == baselines[null_model]

    def test_adaptive_budget_identical_across_executors(self, dataset):
        spec = RunSpec(
            ks=(2,),
            num_datasets=8,
            delta_max=32,
            null_model="swap",
            procedures="both",
            seed=11,
        )
        texts = set()
        for executor in EXECUTOR_NAMES:
            with Engine(executor=executor, n_jobs=2) as engine:
                texts.add(engine.run(spec, dataset=dataset).to_json())
        assert len(texts) == 1


# ----------------------------------------------------------------------
# Shared-memory codecs and the zero-copy protocol
# ----------------------------------------------------------------------
class TestSharedMemory:
    def test_int_bitset_matrix_round_trip(self):
        bitsets = [0, 1, (1 << 70) | 5, (1 << 128) - 1]
        matrix = pack_int_bitsets(bitsets, 130)
        assert matrix.dtype == np.uint64
        assert matrix.shape == (4, 3)
        assert unpack_int_bitsets(matrix) == bitsets

    def test_int_bitset_empty_domain(self):
        assert unpack_int_bitsets(pack_int_bitsets([0, 0], 0)) == [0, 0]

    def test_bernoulli_export_import_samples_identically(self, dataset):
        model = BernoulliNull.from_dataset(dataset)
        with ShmSession() as session:
            token = export_model(model, session)
            assert token is not None
            rebuilt = import_model(token)
            a = model.sample_packed(np.random.default_rng(3))
            b = rebuilt.sample_packed(np.random.default_rng(3))
            np.testing.assert_array_equal(a.rows, b.rows)
            assert a.items == b.items

    def test_swap_export_import_samples_identically(self, dataset):
        model = SwapRandomizationNull(dataset)
        with ShmSession() as session:
            token = export_model(model, session)
            rebuilt = import_model(token)
            a = model.sample_packed(np.random.default_rng(9))
            b = rebuilt.sample_packed(np.random.default_rng(9))
            np.testing.assert_array_equal(a.rows, b.rows)
            # The rebuilt model is sampling-only.
            with pytest.raises(RuntimeError, match="shared-memory"):
                rebuilt.max_expected_support(2)

    def test_packed_index_round_trips_zero_copy(self, dataset):
        """A PackedIndex shares its uint64 rows buffer, attached zero-copy."""
        index = dataset.packed()
        with ShmSession() as session:
            token = export_model(index, session)
            rebuilt = import_model(token)
            assert rebuilt.items == index.items
            assert rebuilt.num_transactions == index.num_transactions
            np.testing.assert_array_equal(rebuilt.rows, index.rows)
            # Zero-copy: the rebuilt rows are a view over the shared segment,
            # not an owning copy.
            assert not rebuilt.rows.flags.owndata

    def test_unsupported_model_returns_none(self):
        with ShmSession() as session:
            assert export_model(object(), session) is None

    def test_registration_is_memoized(self, dataset):
        model = BernoulliNull.from_dataset(dataset)
        with ProcessExecutor(n_jobs=2) as executor:
            first = executor.register(model)
            second = executor.register(model)
            assert first is second

    def test_token_is_orders_of_magnitude_smaller_than_model(self, dataset):
        """The zero-copy guard: per-draw traffic must stay token-sized.

        Host-independent regression test for the whole point of the process
        backend — the PR-3 path pickled the model (for the swap null: the
        entire observed matrix) once per draw.
        """
        model = SwapRandomizationNull(dataset)
        with ProcessExecutor(n_jobs=2) as executor:
            token = executor.register(model)
            token_size = len(pickle.dumps(token))
            model_size = len(pickle.dumps(model))
            assert token_size < 200
            assert model_size > 20 * token_size


# ----------------------------------------------------------------------
# Lifecycle: context management, exception paths, no leaks
# ----------------------------------------------------------------------
class _ExplodingModel:
    """A picklable null model whose draws raise in the worker."""

    kind = "exploding"

    def __init__(self, inner):
        self.inner = inner

    @property
    def items(self):
        return self.inner.items

    @property
    def num_items(self):
        return self.inner.num_items

    @property
    def num_transactions(self):
        return self.inner.num_transactions

    @property
    def name(self):
        return "exploding"

    def max_expected_support(self, k):
        return self.inner.max_expected_support(k)

    def sample(self, rng=None):
        raise ValueError("boom")

    def sample_packed(self, rng=None):
        raise ValueError("boom")


class TestLifecycle:
    def _assert_no_orphans(self):
        deadline = time.time() + 10.0
        while multiprocessing.active_children() and time.time() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []

    def test_raising_collection_leaks_nothing(self, dataset):
        """Satellite regression: a raising fit must not orphan pools or shm."""
        model = _ExplodingModel(RandomDatasetModel.from_dataset(dataset))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(ValueError, match="boom"):
                MonteCarloNullEstimator(
                    model,
                    2,
                    num_datasets=6,
                    mining_support=2,
                    rng=0,
                    executor="process",
                    n_jobs=2,
                )
            gc.collect()
        self._assert_no_orphans()

    def test_raising_run_through_engine_closes_session_executor(self, dataset):
        model = _ExplodingModel(RandomDatasetModel.from_dataset(dataset))
        with pytest.raises(ValueError, match="boom"):
            with Engine(executor="process", n_jobs=2) as engine:
                engine.register(dataset)
                engine.threshold(dataset, 2, num_datasets=6, null_model=model)
        self._assert_no_orphans()

    def test_process_executor_unlinks_shared_memory(self, dataset):
        from multiprocessing import shared_memory

        model = SwapRandomizationNull(dataset)
        executor = ProcessExecutor(n_jobs=2)
        token = executor.register(model)
        executor.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=token.name)
        self._assert_no_orphans()

    def test_close_is_idempotent(self):
        for spec in EXECUTOR_NAMES:
            executor, _ = as_executor(spec, n_jobs=2)
            executor.close()
            executor.close()
            assert executor.closed

    def test_closed_pool_refuses_new_work(self, dataset):
        executor = ThreadExecutor(n_jobs=2)
        executor.close()
        model = BernoulliNull.from_dataset(dataset)
        with pytest.raises(RuntimeError, match="closed"):
            list(
                executor.map_draws(
                    _sample_support, model, (), [np.random.default_rng(0)]
                )
            )

    def test_engine_close_then_reuse_builds_fresh_executor(self, dataset):
        engine = Engine(executor="thread", n_jobs=2)
        first = engine.run(
            RunSpec(ks=(2,), num_datasets=6, seed=3), dataset=dataset
        )
        engine.close()
        # A closed Engine transparently rebuilds on the next simulation.
        second_spec = RunSpec(ks=(2,), num_datasets=6, seed=4)
        second = engine.run(second_spec, dataset=dataset)
        engine.close()
        assert first.queries and second.queries

    def test_miner_refit_closes_previous_session(self, dataset):
        """A refit must not strand the previous fit's executor pool."""
        from repro.core.miner import SignificantItemsetMiner

        other = generate_planted_dataset(
            {item: 0.12 for item in range(10)},
            num_transactions=120,
            planted=[PlantedItemset(items=(0, 1), extra_support=30)],
            rng=6,
            name="exec-data-2",
        )
        miner = SignificantItemsetMiner(
            k=2, num_datasets=6, rng=0, executor="process", n_jobs=2
        )
        miner.fit(dataset)
        first_engine = miner._engine
        miner.fit(other)
        assert first_engine._executor is None  # closed, not leaked
        miner.close()
        self._assert_no_orphans()

    def test_legacy_concurrent_futures_executor_still_works(self, dataset):
        """The PR-3 path: a borrowed pool, model pickled per draw."""
        model = BernoulliNull.from_dataset(dataset)
        reference = MonteCarloNullEstimator(
            model, 2, num_datasets=6, mining_support=2, rng=0
        )
        with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
            legacy = MonteCarloNullEstimator(
                model,
                2,
                num_datasets=6,
                mining_support=2,
                rng=0,
                executor=pool,
                n_jobs=2,
            )
        np.testing.assert_array_equal(reference._profiles, legacy._profiles)
        self._assert_no_orphans()


def _sample_support(model, rng):
    return int(model.sample_packed(rng).supports_array().sum())


def _indexed_task(model, offset, rng, draw):
    return model + offset + draw


_indexed_task.needs_draw_index = True


def _plain_task(model, offset, rng):
    return model + offset


class TestDrawIndexOptIn:
    """Tasks with ``needs_draw_index`` receive their draw ordinal.

    This is the convention sharded out-of-core counting rides on: one
    executor draw per shard, the draw index selecting the shard (see
    :mod:`repro.data.sharded`).
    """

    def _rngs(self, count):
        return [np.random.default_rng(i) for i in range(count)]

    @pytest.mark.parametrize("kind", ["serial", "thread", "process"])
    def test_indexed_task_sees_ordinals(self, kind):
        executor, _ = as_executor(kind, n_jobs=2)
        with executor:
            results = list(
                executor.map_draws(_indexed_task, 100, (10,), self._rngs(4))
            )
        assert results == [110, 111, 112, 113]

    @pytest.mark.parametrize("kind", ["serial", "thread"])
    def test_plain_task_signature_unchanged(self, kind):
        executor, _ = as_executor(kind, n_jobs=2)
        with executor:
            results = list(
                executor.map_draws(_plain_task, 100, (10,), self._rngs(3))
            )
        assert results == [110, 110, 110]

    def test_indexed_task_through_retry_path(self):
        from repro.parallel.faults import RetryPolicy

        with SerialExecutor(retry_policy=RetryPolicy(max_retries=1)) as executor:
            results = list(
                executor.map_draws(_indexed_task, 0, (0,), self._rngs(3))
            )
        assert results == [0, 1, 2]

    def test_compat_executor_forwards_index(self):
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            compat = CompatExecutor(pool)
            results = list(
                compat.map_draws(_indexed_task, 5, (0,), self._rngs(3))
            )
        assert results == [5, 6, 7]


def _wait_for_all_workers(model, barrier, rng):
    barrier.wait(timeout=10)
    return True


class TestThreadPlacement:
    """Thread workers start spread over the CPUs the process may use.

    A new thread starts on its spawner's CPU; where the OS never balances
    load across CPUs, unplaced workers would all share one.  Each worker is
    moved to the next CPU round-robin, and its full CPU set is restored at
    once (the OS stays free to migrate it).  Recorded with fake affinity
    calls, so the check is the same on every host.
    """

    def test_workers_start_round_robin_and_keep_the_full_set(self, monkeypatch):
        import threading

        from repro.parallel import executors

        calls = []
        lock = threading.Lock()

        def record(pid, cpus):
            with lock:
                calls.append((threading.get_ident(), frozenset(cpus)))

        monkeypatch.setattr(
            executors.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        monkeypatch.setattr(executors.os, "sched_setaffinity", record, raising=False)
        barrier = threading.Barrier(3)
        with ThreadExecutor(n_jobs=3) as executor:
            results = list(
                executor.map_draws(
                    _wait_for_all_workers,
                    None,
                    (barrier,),
                    np.random.default_rng(0).spawn(3),
                )
            )
        assert results == [True, True, True]
        per_worker = {}
        for ident, cpus in calls:
            per_worker.setdefault(ident, []).append(cpus)
        assert len(per_worker) == 3
        firsts = sorted(min(sets[0]) for sets in per_worker.values())
        assert firsts == [0, 1, 2]
        for sets in per_worker.values():
            assert len(sets[0]) == 1  # moved to one CPU ...
            assert sets[1] == {0, 1, 2}  # ... then the full set restored

    def test_single_job_pool_is_not_placed(self, monkeypatch):
        from repro.parallel import executors

        calls = []
        monkeypatch.setattr(
            executors.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        monkeypatch.setattr(
            executors.os,
            "sched_setaffinity",
            lambda pid, cpus: calls.append(cpus),
            raising=False,
        )
        with ThreadExecutor(n_jobs=1) as executor:
            assert list(
                executor.map_draws(_plain_task, 1, (2,), [np.random.default_rng(0)])
            ) == [3]
        assert calls == []
