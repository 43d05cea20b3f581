"""Fault-injection tests for the robust execution layer and the store.

The load-bearing guarantees (see ``docs/robustness.md``):

* recovery is **bit-identical**: a run that loses a worker to SIGKILL (or a
  transient draw failure, or a straggler timeout) mid-collection produces
  the same RunResult JSON as a fault-free serial run — draws are pure
  functions of ``(model, draw index)``;
* degradation is **honest and deterministic**: when retries are exhausted,
  the run keeps the strict prefix of draws actually collected, flags every
  downstream result ``degraded=True``, and never leaks a raw
  ``BrokenProcessPool``;
* the directory store is **crash-safe**: torn writes read back as clean
  cache misses, and concurrent load-miss-then-simulate callers pay exactly
  one simulation per key across processes.
"""

from __future__ import annotations

import json
import multiprocessing
import pickle
import time

import numpy as np
import pytest

from repro.core.lambda_estimation import MonteCarloNullEstimator
from repro.core.null_models import BernoulliNull, SwapRandomizationNull
from repro.core.poisson_threshold import (
    PoissonThresholdResult,
    find_poisson_threshold,
)
from repro.data.benchmarks import generate_benchmark
from repro.data.generators import PlantedItemset, generate_planted_dataset
from repro.engine import DirectoryArtifactStore, Engine, RunResult, RunSpec
from repro.engine.store import NullArtifact
from repro.parallel import (
    DEFAULT_RETRY_POLICY,
    DrawRetriesExhausted,
    FaultInjectionError,
    FaultPlan,
    ProcessExecutor,
    RetryPolicy,
    SerialExecutor,
    ThreadExecutor,
)


@pytest.fixture(scope="module")
def dataset():
    frequencies = {item: 0.12 for item in range(10)}
    planted = [PlantedItemset(items=(0, 1), extra_support=30)]
    return generate_planted_dataset(
        frequencies, num_transactions=120, planted=planted, rng=5, name="faults-data"
    )


def _sample_support(model, rng):
    return int(model.sample_packed(rng).supports_array().sum())


def _collect(executor, model, num_draws, seed=0):
    rngs = np.random.default_rng(seed).spawn(num_draws)
    return list(executor.map_draws(_sample_support, model, (), rngs))


def _draw_block_then_fail_once(model, failed, rngs, draw):
    """Consume every generator of a block, then fail the block's first run."""
    values = [int(rng.integers(2**62)) for rng in rngs]
    if draw not in failed:
        failed.add(draw)
        raise RuntimeError(f"transient failure after consuming block {draw}")
    return values


_draw_block_then_fail_once.needs_draw_index = True


# ----------------------------------------------------------------------
# RetryPolicy and FaultPlan semantics
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="backoff must"):
            RetryPolicy(backoff=-0.1)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="draw_timeout"):
            RetryPolicy(draw_timeout=0.0)

    def test_backoff_schedule_is_exponential(self):
        policy = RetryPolicy(backoff=0.1, backoff_factor=2.0)
        assert policy.delay_before_retry(1) == pytest.approx(0.1)
        assert policy.delay_before_retry(2) == pytest.approx(0.2)
        assert policy.delay_before_retry(3) == pytest.approx(0.4)

    def test_zero_backoff_never_sleeps(self):
        policy = RetryPolicy(backoff=0.0)
        assert policy.delay_before_retry(5) == 0.0

    def test_default_policy_recovers_crashes(self):
        assert DEFAULT_RETRY_POLICY.max_retries >= 1
        assert DEFAULT_RETRY_POLICY.backoff == 0.0


class TestFaultPlan:
    def test_fault_matches_draw_and_attempt(self):
        plan = FaultPlan().fail_draw(3, attempt=1)
        plan.apply_draw_fault(3, 0)  # wrong attempt: no fire
        plan.apply_draw_fault(2, 1)  # wrong draw: no fire
        with pytest.raises(FaultInjectionError):
            plan.apply_draw_fault(3, 1)

    def test_attempt_none_matches_every_attempt(self):
        plan = FaultPlan().fail_draw(1, attempt=None)
        for attempt in range(4):
            with pytest.raises(FaultInjectionError):
                plan.apply_draw_fault(1, attempt)

    def test_kill_fault_refuses_to_kill_the_parent(self):
        # In the plan's own process a kill fault degrades to a plain raise —
        # SIGKILL-ing the test process would be a very bad unit test.
        plan = FaultPlan().kill_worker(0)
        with pytest.raises(FaultInjectionError, match="parent"):
            plan.apply_draw_fault(0, 0)

    def test_plan_round_trips_through_pickle(self):
        plan = FaultPlan().fail_draw(2).kill_worker(5, attempt=None)
        clone = pickle.loads(pickle.dumps(plan))
        with pytest.raises(FaultInjectionError):
            clone.apply_draw_fault(2, 0)

    def test_torn_payload_matches_write_ordinal(self):
        plan = FaultPlan().tear_write(target="json", at_byte=4, ordinal=1)
        payload = b"0123456789"
        assert plan.torn_payload("json", payload) is None  # write 0 intact
        assert plan.torn_payload("json", payload) == b"0123"  # write 1 torn
        assert plan.torn_payload("json", payload) is None  # consumed

    def test_torn_payload_counts_targets_separately(self):
        plan = FaultPlan().tear_write(target="npz", at_byte=0, ordinal=0)
        assert plan.torn_payload("json", b"xx") is None
        assert plan.torn_payload("npz", b"xx") == b""


# ----------------------------------------------------------------------
# Retries: transient faults recover bit-identically on every backend
# ----------------------------------------------------------------------
class TestRetries:
    def test_serial_transient_fault_recovers_identically(self, dataset):
        model = BernoulliNull.from_dataset(dataset)
        with SerialExecutor() as clean:
            baseline = _collect(clean, model, 8)
        faulty = SerialExecutor(
            retry_policy=RetryPolicy(max_retries=1),
            fault_plan=FaultPlan().fail_draw(3),
        )
        with faulty:
            assert _collect(faulty, model, 8) == baseline

    def test_thread_transient_fault_recovers_identically(self, dataset):
        model = BernoulliNull.from_dataset(dataset)
        with SerialExecutor() as clean:
            baseline = _collect(clean, model, 8)
        faulty = ThreadExecutor(
            n_jobs=2,
            retry_policy=RetryPolicy(max_retries=1),
            fault_plan=FaultPlan().fail_draw(3).fail_draw(6),
        )
        with faulty:
            assert _collect(faulty, model, 8) == baseline

    def test_without_policy_faults_propagate_raw(self, dataset):
        model = BernoulliNull.from_dataset(dataset)
        with SerialExecutor(fault_plan=FaultPlan().fail_draw(2)) as executor:
            with pytest.raises(FaultInjectionError):
                _collect(executor, model, 8)

    def test_exhausted_retries_raise_at_the_failing_draw(self, dataset):
        model = BernoulliNull.from_dataset(dataset)
        executor = SerialExecutor(
            retry_policy=RetryPolicy(max_retries=2),
            fault_plan=FaultPlan().fail_draw(5, attempt=None),
        )
        with executor, pytest.raises(DrawRetriesExhausted) as excinfo:
            _collect(executor, model, 8)
        assert excinfo.value.draw == 5
        assert excinfo.value.attempts == 3  # first run + 2 retries
        assert isinstance(excinfo.value.cause, FaultInjectionError)

    def test_timeout_reschedules_stragglers_identically(self, dataset):
        model = BernoulliNull.from_dataset(dataset)
        with SerialExecutor() as clean:
            baseline = _collect(clean, model, 6)
        slow = ThreadExecutor(
            n_jobs=2,
            retry_policy=RetryPolicy(max_retries=2, draw_timeout=0.2),
            fault_plan=FaultPlan().delay_draw(1, seconds=1.0),
        )
        with slow:
            assert _collect(slow, model, 6) == baseline

    @pytest.mark.parametrize("executor_kind", ["serial", "thread"])
    def test_retry_restarts_every_generator_of_a_block(self, executor_kind):
        """A retried block reruns all its generators from their initial state.

        The task advances every generator of its block before failing, so a
        retry that reused any advanced generator would draw other values.
        """

        def blocks():
            children = np.random.default_rng(3).spawn(6)
            return [tuple(children[start : start + 3]) for start in (0, 3)]

        expected = [[int(rng.integers(2**62)) for rng in block] for block in blocks()]
        policy = RetryPolicy(max_retries=1)
        executor = (
            SerialExecutor(retry_policy=policy)
            if executor_kind == "serial"
            else ThreadExecutor(n_jobs=2, retry_policy=policy)
        )
        with executor:
            got = list(
                executor.map_draws(
                    _draw_block_then_fail_once, None, (set(),), blocks()
                )
            )
        assert got == expected


# ----------------------------------------------------------------------
# Process-pool chaos: SIGKILL recovery and graceful degradation
# ----------------------------------------------------------------------
@pytest.mark.chaos
class TestProcessChaos:
    SPEC = RunSpec(ks=(2,), num_datasets=10, seed=7, procedures="both")

    @pytest.fixture(scope="class")
    def bms1(self):
        return generate_benchmark("bms1", scale=0.01, rng=0)

    @pytest.fixture(scope="class")
    def serial_baseline(self, bms1):
        with Engine() as engine:
            return engine.run(self.SPEC, dataset=bms1).to_json()

    def test_worker_sigkill_recovers_bit_identically(self, bms1, serial_baseline):
        """The acceptance scenario: lose a worker mid-collection, same JSON."""
        plan = FaultPlan().kill_worker(3)
        with ProcessExecutor(n_jobs=2, fault_plan=plan) as executor:
            with Engine(executor=executor) as engine:
                result = engine.run(self.SPEC, dataset=bms1)
        assert result.to_json() == serial_baseline
        assert not result.degraded

    def test_repeated_crashes_on_distinct_draws_still_recover(self, dataset):
        model = BernoulliNull.from_dataset(dataset)
        with SerialExecutor() as clean:
            baseline = _collect(clean, model, 8)
        plan = FaultPlan().kill_worker(1).kill_worker(6)
        with ProcessExecutor(n_jobs=2, fault_plan=plan) as executor:
            assert _collect(executor, model, 8) == baseline

    def test_exhausted_retries_degrade_to_the_collected_prefix(self, bms1, tmp_path):
        """Persistent kills never escape as BrokenProcessPool: the run comes
        back ``degraded=True`` on the strict prefix of draws collected, and
        the degraded artifact is served this session but never persisted."""
        store = DirectoryArtifactStore(tmp_path / "store")
        plan = FaultPlan().kill_worker(3, attempt=None)
        with ProcessExecutor(n_jobs=1, fault_plan=plan) as executor:
            with Engine(store, executor=executor) as engine:
                result = engine.run(self.SPEC, dataset=bms1)
        assert result.degraded
        threshold = result.thresholds[2]
        assert threshold.degraded
        # Draw 3 is unrecoverable, so each collection pass keeps draws 0-2.
        assert threshold.delta_spent == 3
        # Honest serialization: the flag survives the JSON round trip.
        round_tripped = RunResult.from_json(result.to_json())
        assert round_tripped.degraded
        # Degraded artifacts are never persisted: the store stayed empty, so
        # a healthy session re-simulates instead of inheriting the prefix.
        assert list(store.keys()) == []

    def test_degraded_threshold_round_trips_with_flag(self, dataset):
        plan = FaultPlan().kill_worker(4, attempt=None)
        with ProcessExecutor(n_jobs=1, fault_plan=plan) as executor:
            result = find_poisson_threshold(
                BernoulliNull.from_dataset(dataset),
                2,
                num_datasets=10,
                rng=3,
                executor=executor,
            )
        assert result.degraded
        assert result.delta_spent == 4
        clone = PoissonThresholdResult.from_dict(result.to_dict())
        assert clone.degraded


# ----------------------------------------------------------------------
# Graceful degradation in the estimator (in-process, coverage-visible)
# ----------------------------------------------------------------------
class TestDegradedEstimator:
    def test_degraded_prefix_is_bit_identical_to_a_smaller_budget(self, dataset):
        model = BernoulliNull.from_dataset(dataset)
        faulty = SerialExecutor(
            retry_policy=RetryPolicy(max_retries=1),
            fault_plan=FaultPlan().fail_draw(4, attempt=None),
        )
        with faulty:
            degraded = MonteCarloNullEstimator(
                model, 2, num_datasets=10, mining_support=2, rng=0, executor=faulty
            )
        assert degraded.degraded
        assert degraded.num_datasets == 4
        reference = MonteCarloNullEstimator(
            model, 2, num_datasets=4, mining_support=2, rng=0
        )
        np.testing.assert_array_equal(degraded._profiles, reference._profiles)

    def test_zero_collected_propagates_the_cause(self, dataset):
        model = BernoulliNull.from_dataset(dataset)
        faulty = SerialExecutor(
            retry_policy=RetryPolicy(max_retries=0),
            fault_plan=FaultPlan().fail_draw(0, attempt=None),
        )
        with faulty, pytest.raises(FaultInjectionError):
            MonteCarloNullEstimator(
                model, 2, num_datasets=6, mining_support=2, rng=0, executor=faulty
            )

    # The swap null under the packed walk hands each task a block of draws,
    # so fault-plan indices, retries and degraded prefixes count blocks:
    # Δ = 10 runs as two blocks of 5 draws.
    @pytest.mark.parametrize(
        "make_executor",
        [
            lambda **kw: SerialExecutor(**kw),
            lambda **kw: ThreadExecutor(n_jobs=2, **kw),
            lambda **kw: ProcessExecutor(n_jobs=2, **kw),
        ],
        ids=["serial", "thread", "process"],
    )
    def test_swap_null_transient_fault_recovers_identically(
        self, dataset, make_executor
    ):
        model = SwapRandomizationNull(dataset, walk="packed")
        clean = MonteCarloNullEstimator(
            model, 2, num_datasets=10, mining_support=2, rng=0
        )
        faulty = make_executor(
            retry_policy=RetryPolicy(max_retries=1),
            fault_plan=FaultPlan().fail_draw(0).fail_draw(1),
        )
        with faulty:
            recovered = MonteCarloNullEstimator(
                model, 2, num_datasets=10, mining_support=2, rng=0, executor=faulty
            )
        assert not recovered.degraded
        assert recovered._itemsets == clean._itemsets
        np.testing.assert_array_equal(recovered._profiles, clean._profiles)

    def test_swap_null_degraded_prefix_is_the_leading_draws(self, dataset):
        model = SwapRandomizationNull(dataset, walk="packed")
        faulty = SerialExecutor(
            retry_policy=RetryPolicy(max_retries=1),
            fault_plan=FaultPlan().fail_draw(1, attempt=None),
        )
        with faulty:
            degraded = MonteCarloNullEstimator(
                model, 2, num_datasets=10, mining_support=2, rng=0, executor=faulty
            )
        assert degraded.degraded
        assert degraded.num_datasets == 5  # block 0 survives, block 1 is lost
        clean = MonteCarloNullEstimator(
            model, 2, num_datasets=10, mining_support=2, rng=0
        )
        assert degraded.num_datasets < clean.num_datasets
        # The prefix is the fault-free run's leading draws, itemset for itemset.
        for itemset in clean.union_itemsets:
            np.testing.assert_array_equal(
                degraded.support_profile(itemset),
                clean.support_profile(itemset)[:5],
            )
        assert set(degraded.union_itemsets) <= set(clean.union_itemsets)

    def test_degraded_flag_survives_state_round_trip(self, dataset):
        model = BernoulliNull.from_dataset(dataset)
        faulty = SerialExecutor(
            retry_policy=RetryPolicy(max_retries=0),
            fault_plan=FaultPlan().fail_draw(3, attempt=None),
        )
        with faulty:
            estimator = MonteCarloNullEstimator(
                model, 2, num_datasets=6, mining_support=2, rng=0, executor=faulty
            )
        assert estimator.degraded
        clone = MonteCarloNullEstimator.from_state(estimator.state_dict())
        assert clone.degraded
        assert clone.num_datasets == 3


# ----------------------------------------------------------------------
# Crash-safe store: atomic writes, torn-write recovery, single flight
# ----------------------------------------------------------------------
def _make_artifact(dataset, key="k"):
    threshold = find_poisson_threshold(
        BernoulliNull.from_dataset(dataset), 2, num_datasets=6, rng=0
    )
    return NullArtifact(key=key, threshold=threshold)


@pytest.mark.chaos
class TestStoreCrashSafety:
    def test_torn_json_write_reads_as_cache_miss(self, dataset, tmp_path):
        plan = FaultPlan().tear_write(target="json", at_byte=20)
        store = DirectoryArtifactStore(tmp_path, fault_plan=plan)
        artifact = _make_artifact(dataset)
        with pytest.raises(FaultInjectionError):
            store.save("k", artifact)
        assert store.load("k") is None
        assert list(store.keys()) == []
        # The tear ordinal is consumed: a retried save with the same store
        # heals the torn entry in place.
        store.save("k", artifact)
        loaded = store.load("k")
        assert loaded is not None
        assert loaded.threshold.s_min == artifact.threshold.s_min

    def test_torn_npz_write_reads_as_cache_miss(self, dataset, tmp_path):
        plan = FaultPlan().tear_write(target="npz", at_byte=10)
        store = DirectoryArtifactStore(tmp_path, fault_plan=plan)
        artifact = _make_artifact(dataset)
        with pytest.raises(FaultInjectionError):
            store.save("k", artifact)
        assert store.load("k") is None
        store.save("k", artifact)
        assert store.load("k") is not None

    def test_no_temp_or_lock_droppings_visible_as_keys(self, dataset, tmp_path):
        store = DirectoryArtifactStore(tmp_path)
        store.save("k", _make_artifact(dataset))
        assert list(store.keys()) == ["k"]
        assert not list(tmp_path.glob("*.tmp*"))

    def test_single_flight_computes_once_then_hits(self, dataset, tmp_path):
        store = DirectoryArtifactStore(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return _make_artifact(dataset)

        first, fresh_first = store.single_flight("k", compute)
        second, fresh_second = store.single_flight("k", compute)
        assert fresh_first and not fresh_second
        assert len(calls) == 1
        assert second.threshold.s_min == first.threshold.s_min

    def test_single_flight_persist_predicate_skips_saving(self, dataset, tmp_path):
        store = DirectoryArtifactStore(tmp_path)
        artifact, fresh = store.single_flight(
            "k", lambda: _make_artifact(dataset), persist=lambda a: False
        )
        assert fresh
        assert store.load("k") is None


def _race_worker(root, barrier, queue):
    """One contender in the cross-process single-flight race."""
    dataset = generate_benchmark("bms1", scale=0.01, rng=0)
    store = DirectoryArtifactStore(root)
    barrier.wait()
    with Engine(store) as engine:
        threshold = engine.threshold(dataset, 2, num_datasets=10, seed=7)
    queue.put((engine.stats.simulations_run, threshold.s_min))


@pytest.mark.chaos
class TestConcurrentStoreAccess:
    def test_two_processes_racing_a_miss_pay_one_simulation(self, tmp_path):
        """The acceptance scenario: concurrent load-miss → simulate → save
        callers serialize on the key lock; exactly one simulation runs and
        both processes read the same uncorrupted artifact."""
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        queue = ctx.Queue()
        workers = [
            ctx.Process(target=_race_worker, args=(tmp_path, barrier, queue))
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        results = [queue.get(timeout=120) for _ in workers]
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        assert sum(simulations for simulations, _ in results) == 1
        assert len({s_min for _, s_min in results}) == 1
        store = DirectoryArtifactStore(tmp_path)
        assert len(list(store.keys())) == 1


# ----------------------------------------------------------------------
# Lifecycle: close() safe on half-built objects
# ----------------------------------------------------------------------
class TestCloseAfterFailedInit:
    def test_executor_close_safe_after_failed_init(self):
        for cls in (ThreadExecutor, ProcessExecutor):
            executor = cls.__new__(cls)
            with pytest.raises(ValueError):
                executor.__init__(0)
            executor.close()  # must not raise
            executor.close()  # and stays idempotent

    def test_engine_close_safe_after_failed_init(self):
        engine = Engine.__new__(Engine)
        with pytest.raises(ValueError):
            engine.__init__(n_jobs=0)
        engine.close()
        engine.close()

    def test_engine_context_manager_closes_on_error(self, dataset):
        with pytest.raises(KeyError):
            with Engine(executor="thread", n_jobs=2) as engine:
                engine.run(RunSpec(ks=(2,), num_datasets=4), dataset="nope")
        assert engine._executor is None
