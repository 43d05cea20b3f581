"""Execution backends for the Monte-Carlo draw loop.

Every Monte-Carlo consumer (the Δ sample/mine passes of
:class:`~repro.core.lambda_estimation.MonteCarloNullEstimator`, and through
it Algorithm 1 and both procedures) funnels its draws through one
:class:`Executor`.  Three backends ship:

* :class:`SerialExecutor` — in-process loop; zero overhead, the default.
* :class:`ThreadExecutor` — a thread pool with *no serialization at all*
  (the model and the result arrays are shared by reference).  Threads
  overlap tasks on multi-core hosts as far as the tasks' NumPy calls run on
  arrays wide enough for NumPy to release the GIL (loops over about 500
  elements): the packed counting sweeps are, one swap-walk chain's rounds
  are not — so the estimator hands swap draws to the pool in blocks whose
  chains one task walks together (see :mod:`repro.data.swap`).  Workers
  start round-robin over the process's CPUs, so they run apart even where
  the OS never balances load.
* :class:`ProcessExecutor` — a process pool with the zero-copy protocol of
  :mod:`repro.parallel.shm`: the null model's heavy buffers are placed in
  ``multiprocessing.shared_memory`` once per session (``register``), and each
  draw ships only a :class:`~repro.parallel.shm.ModelToken` plus its child
  generator.  Models the shm codec does not understand fall back to per-draw
  pickling (the pre-zero-copy behaviour), so custom nulls keep working.

All backends submit one task per work unit — a draw, or a block of draws
whose child generators travel together as a tuple — and yield results in
submission order, so — together with the per-draw spawned child generators
upstream — results are bit-identical across every backend and every
``n_jobs``.  Retries, fault-plan indices and cancellation polls count these
tasks (blocks, for the estimator's packed swap draws).

Fault tolerance: every draw is a pure function of ``(model, draw index)``
through its own child generator, so each attempt at a task runs on a clone
of the *initial* state of its generator (of every generator of a block) —
retries, worker-crash re-execution and speculative straggler rescheduling
are all bit-identical to a fault-free run.  The process backend recovers
from ``BrokenProcessPool`` out of the box (rebuilding the pool,
re-validating the shared-memory exports, and re-running only the draws
without a harvested result); pass a
:class:`~repro.parallel.faults.RetryPolicy` to tune the retry budget and
backoff, or ``retry_policy=None`` for the raw fail-fast behaviour.  The
serial and thread backends accept the same surface (default: no retries,
raw propagation).  A :class:`~repro.parallel.faults.FaultPlan` injects
deterministic chaos for testing; see ``docs/robustness.md``.

Lifecycle: executors are context managers; :meth:`Executor.close` is
idempotent and safe even after a failed ``__init__``, and tears down the
pool *and* every shared-memory segment.  A
:class:`concurrent.futures.Executor` can still be passed wherever an
executor specification is accepted (wrapped in :class:`CompatExecutor`,
which pickles the model per draw and never closes the borrowed pool) — that
is exactly the PR-3 process path, kept as the benchmark baseline.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import os
import time
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from repro.parallel.faults import (
    DEFAULT_RETRY_POLICY,
    DrawRetriesExhausted,
    FaultPlan,
    RetryPolicy,
    call_task,
    perform_draw,
)
from repro.parallel.shm import (
    ModelToken,
    ShmSession,
    attach_shared_memory,
    export_model,
    import_model,
)

__all__ = [
    "EXECUTOR_NAMES",
    "CompatExecutor",
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "as_executor",
    "executor_spec_kind",
]

#: Executor backends selectable by name.
EXECUTOR_NAMES = ("serial", "thread", "process")

#: Anything `as_executor` accepts.
ExecutorSpec = Union[str, "Executor", concurrent.futures.Executor, None]


def _clone_rng(rng):
    """A fresh copy of a task's generator, or of every generator of a block.

    ``rng`` is one :class:`numpy.random.Generator` or a tuple of them (a
    block of draws).  Every execution attempt of a task starts from the
    state its child generators were spawned with, never from a state a
    failed attempt may have advanced in-place (thread/serial backends share
    address space).
    """
    if isinstance(rng, np.random.Generator):
        bit_generator = type(rng.bit_generator)()
        bit_generator.state = rng.bit_generator.state
        return np.random.Generator(bit_generator)
    return tuple(_clone_rng(generator) for generator in rng)


class Executor:
    """Base class: ordered fan-out of per-draw tasks over a backend.

    Subclasses implement :meth:`map_draws`; everything else (context
    management, idempotent close) is shared.  ``task`` must be a picklable
    module-level callable invoked as ``task(model, *args, rng)``, where
    ``rng`` is one generator or a tuple of them (a block of draws the task
    samples together); a task with a truthy ``needs_draw_index`` attribute
    is instead invoked as ``task(model, *args, rng, draw)`` — the opt-in for
    indexed work units such as per-shard counting (see
    :func:`repro.parallel.faults.call_task`).
    """

    kind: str = "base"

    def __init__(
        self,
        *,
        retry_policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self._closed = False
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return getattr(self, "_closed", False)

    def register(self, model: object) -> None:
        """Pre-place a model's buffers wherever the backend needs them.

        A no-op for the in-address-space backends; the process backend
        exports the model to shared memory exactly once per session.
        """

    def map_draws(
        self,
        task,
        model: object,
        args: Sequence,
        rngs: Iterable[Union[np.random.Generator, tuple]],
        cancel=None,
    ) -> Iterator:
        """Yield ``task(model, *args, rng)`` for each rng, in order.

        ``cancel`` is an optional
        :class:`~repro.parallel.cancellation.CancelToken` polled *between*
        draws (never mid-draw): once it fires, the pass stops yielding and
        the consumer holds a strict prefix of completed draws.  The first
        draw is always yielded before the first poll, so a cancelled pass
        still produces at least one honest result.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release the backend's resources (idempotent, crash-safe)."""
        self._closed = True

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"<{type(self).__name__}: {state}>"


def _run_draw_with_retries(task, model, args, rng, draw, policy, plan):
    """Execute one task inline, honouring the retry policy and fault plan."""
    pristine = _clone_rng(rng)
    failures = 0
    attempt = 0
    while True:
        try:
            clone = _clone_rng(pristine)
            return perform_draw(task, model, args, clone, draw, attempt, plan)
        except Exception as error:
            if policy is None:
                raise
            failures += 1
            attempt += 1
            if failures > policy.max_retries:
                raise DrawRetriesExhausted(draw, failures, error) from error
            delay = policy.delay_before_retry(failures)
            if delay > 0.0:
                time.sleep(delay)


class SerialExecutor(Executor):
    """In-process sequential execution (the default; zero overhead)."""

    kind = "serial"

    def map_draws(self, task, model, args, rngs, cancel=None):
        """Run every draw inline, yielding as computed."""
        plain = self.retry_policy is None and self.fault_plan is None
        for draw, rng in enumerate(rngs):
            if draw and cancel is not None and cancel.should_stop():
                return
            if plain:
                yield call_task(task, model, args, rng, draw)
            else:
                yield _run_draw_with_retries(
                    task, model, args, rng, draw, self.retry_policy,
                    self.fault_plan,
                )


class _DrawState:
    """Bookkeeping for one task inside a pool ``map_draws`` pass."""

    __slots__ = (
        "index",
        "rng",
        "attempt",
        "failures",
        "future",
        "result",
        "harvested",
    )

    def __init__(self, index: int, rng) -> None:
        self.index = index
        self.rng = _clone_rng(rng)  # pristine initial state, never run
        self.attempt = 0  # submission ordinal (grows on every re-submission)
        self.failures = 0  # task failures/timeouts counted against the policy
        self.future: Optional[concurrent.futures.Future] = None
        self.result = None
        self.harvested = False


class _PoolExecutor(Executor):
    """Shared submit/consume/retry/recovery machinery for the pool backends."""

    def __init__(
        self,
        n_jobs: int,
        *,
        retry_policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        super().__init__(retry_policy=retry_policy, fault_plan=fault_plan)
        self._pool: Optional[concurrent.futures.Executor] = None
        if n_jobs < 1:
            raise ValueError("n_jobs must be at least 1")
        self.n_jobs = int(n_jobs)

    def _make_pool(self) -> concurrent.futures.Executor:
        raise NotImplementedError

    def _submit(self, pool, task, model, args, rng, draw, attempt):
        if self.fault_plan is None:
            return pool.submit(call_task, task, model, tuple(args), rng, draw)
        return pool.submit(
            perform_draw, task, model, tuple(args), rng, draw, attempt,
            self.fault_plan,
        )

    def _recover_pool(self) -> None:
        """Replace a broken pool with a fresh one."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        self._pool = self._make_pool()

    def map_draws(self, task, model, args, rngs, cancel=None):
        """Submit every draw to the (lazily created) pool; yield in order.

        Task failures and result timeouts are retried per the policy; a
        broken pool is rebuilt and only the draws without a harvested
        result are re-submitted.  Every attempt runs on a clone of the
        draw's initial generator state, so recovery is bit-identical.
        A fired ``cancel`` token stops the harvest between draws; the
        ``finally`` clause below cancels whatever is still queued.
        """
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")
        if self._pool is None:
            self._pool = self._make_pool()
        policy = self.retry_policy
        draws = [_DrawState(index, rng) for index, rng in enumerate(rngs)]
        discarded: list[concurrent.futures.Future] = []
        stale_crashes = 0

        def submit(entry: _DrawState) -> None:
            rng = _clone_rng(entry.rng)
            entry.future = self._submit(
                self._pool, task, model, args, rng, entry.index, entry.attempt
            )

        def record_failure(entry: _DrawState, error: BaseException) -> None:
            """Count one failed execution; re-submit or give up."""
            if policy is None:
                raise error
            entry.failures += 1
            entry.attempt += 1
            if entry.failures > policy.max_retries:
                raise DrawRetriesExhausted(
                    entry.index, entry.failures, error
                ) from error
            delay = policy.delay_before_retry(entry.failures)
            if delay > 0.0:
                time.sleep(delay)
            submit(entry)

        def recover(cause: concurrent.futures.BrokenExecutor) -> None:
            """Harvest what the broken pool finished, rebuild, re-submit."""
            nonlocal stale_crashes
            if policy is None:
                raise cause
            progress = 0
            for entry in draws:
                if entry.harvested or entry.future is None:
                    continue
                future = entry.future
                if not future.done():
                    continue
                try:
                    entry.result = future.result()
                except BaseException:
                    # Result lost with the worker (or a real task failure:
                    # deterministic, so the re-run raises it again and the
                    # ordinary retry accounting takes over).
                    continue
                entry.harvested = True
                progress += 1
            if progress == 0:
                stale_crashes += 1
            else:
                stale_crashes = 0
            if stale_crashes > policy.max_retries:
                first = next(e for e in draws if not e.harvested)
                raise DrawRetriesExhausted(
                    first.index, first.attempt + 1, cause
                ) from cause
            self._recover_pool()
            for entry in draws:
                if not entry.harvested:
                    entry.attempt += 1
                    submit(entry)

        try:
            for entry in draws:
                submit(entry)
            for position, entry in enumerate(draws):
                if position and cancel is not None and cancel.should_stop():
                    return
                while not entry.harvested:
                    timeout = policy.draw_timeout if policy is not None else None
                    try:
                        entry.result = entry.future.result(timeout=timeout)
                        entry.harvested = True
                    except concurrent.futures.BrokenExecutor as error:
                        recover(error)
                    except TimeoutError as error:
                        # Straggler: discard it, reschedule speculatively.
                        discarded.append(entry.future)
                        entry.future = None
                        record_failure(entry, error)
                    except Exception as error:
                        record_failure(entry, error)
                yield entry.result
        finally:
            # Early truncation stops consuming; drop the queued remainder.
            for entry in draws:
                if entry.future is not None:
                    entry.future.cancel()
            for future in discarded:
                future.cancel()

    def close(self) -> None:
        """Shut the pool down, cancelling anything still queued."""
        if self.closed:
            return
        self._closed = True
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


class ThreadExecutor(_PoolExecutor):
    """Thread-pool backend: shared address space, zero serialization.

    Threads overlap real work on multi-core hosts while a task's NumPy
    calls run on arrays wide enough for NumPy to release the GIL.  The
    packed counting sweeps are that wide.  One chain of the packed swap
    walk is not — its rounds decide a few hundred proposals each, and the
    Python dispatch between them holds the GIL — so swap draws overlap here
    because each task walks a block of chains in one pass
    (:meth:`~repro.core.null_models.SwapRandomizationNull.sample_packed_block`;
    large matrices walk wide rounds already and keep one draw per task).
    The python swap walk stays GIL-bound.  Each new worker starts on the
    next CPU of the process's CPU set, round-robin (:func:`_start_on_next_cpu`),
    so threads run apart even where the OS never balances them.  On a
    single core this backend degrades to serial speed (still no pickling).
    """

    kind = "thread"

    def _make_pool(self) -> concurrent.futures.Executor:
        cpus = (
            tuple(sorted(os.sched_getaffinity(0)))
            if hasattr(os, "sched_getaffinity")
            else ()
        )
        spread = len(cpus) > 1 and self.n_jobs > 1
        return concurrent.futures.ThreadPoolExecutor(
            max_workers=self.n_jobs,
            thread_name_prefix="repro-draw",
            initializer=_start_on_next_cpu if spread else None,
            initargs=(cpus, itertools.count()) if spread else (),
        )


def _start_on_next_cpu(cpus: tuple[int, ...], ordinal: Iterator[int]) -> None:
    """Move a new pool worker to the next CPU of ``cpus``, round-robin.

    A new thread starts on the CPU of the thread that spawned it.  On a host
    whose scheduler does not balance load across CPUs (e.g. a cpuset with
    ``sched_load_balance`` off) all workers would stay on that one CPU and
    never overlap.  The worker is pinned to its CPU only long enough to
    move there; the full set is restored at once, so the OS stays free to
    migrate it later.
    """
    try:
        os.sched_setaffinity(0, {cpus[next(ordinal) % len(cpus)]})
        os.sched_setaffinity(0, cpus)
    except OSError:  # pragma: no cover - affinity changes refused
        pass


def _run_tokenized(task, token: ModelToken, args: tuple, rng, draw):
    """Worker-side trampoline: resolve the token, run the draw."""
    model = import_model(token)
    return call_task(task, model, args, rng, draw)


def _run_tokenized_faulty(task, token: ModelToken, args: tuple, rng, draw, attempt, plan):
    """Tokenized trampoline with fault injection (fires before the import)."""
    plan.apply_draw_fault(draw, attempt)
    model = import_model(token)
    return call_task(task, model, args, rng, draw)


class ProcessExecutor(_PoolExecutor):
    """Process-pool backend with zero-copy model placement.

    :meth:`register` exports a model's heavy buffers into shared memory once
    (memoized per model object); every draw of a registered model then ships
    only the :class:`~repro.parallel.shm.ModelToken` and the per-draw child
    generator to the persistent workers.  Unregistered / unsupported models
    are pickled per draw, the pre-zero-copy behaviour.

    Worker crashes (``BrokenProcessPool``) recover out of the box: the
    default :data:`~repro.parallel.faults.DEFAULT_RETRY_POLICY` rebuilds the
    pool, re-validates the shared-memory exports, and re-runs only the draws
    without a harvested result.  Pass ``retry_policy=None`` to restore raw
    fail-fast propagation.
    """

    kind = "process"

    def __init__(
        self,
        n_jobs: int,
        *,
        retry_policy: Optional[RetryPolicy] = DEFAULT_RETRY_POLICY,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        super().__init__(n_jobs, retry_policy=retry_policy, fault_plan=fault_plan)
        self._shm = ShmSession()
        # id() memo is safe because the value tuple keeps the model alive.
        self._tokens: dict[int, tuple[object, Optional[ModelToken]]] = {}

    def _make_pool(self) -> concurrent.futures.Executor:
        return concurrent.futures.ProcessPoolExecutor(max_workers=self.n_jobs)

    def register(self, model: object) -> Optional[ModelToken]:
        """Export (once) a model to shared memory; returns its token, if any."""
        if self._closed:
            raise RuntimeError("ProcessExecutor is closed")
        entry = self._tokens.get(id(model))
        if entry is not None and entry[0] is model:
            return entry[1]
        token = export_model(model, self._shm)
        self._tokens[id(model)] = (model, token)
        return token

    def _recover_pool(self) -> None:
        """Rebuild the pool and re-export any shared segment that was lost."""
        super()._recover_pool()
        for ident, (model, token) in list(self._tokens.items()):
            if token is None:
                continue
            try:
                segment = attach_shared_memory(token.name)
            except FileNotFoundError:
                del self._tokens[ident]
                self.register(model)
            else:
                segment.close()

    def _submit(self, pool, task, model, args, rng, draw, attempt):
        token = self.register(model)
        plan = self.fault_plan
        if token is None:
            if plan is None:
                return pool.submit(call_task, task, model, tuple(args), rng, draw)
            return pool.submit(
                perform_draw, task, model, tuple(args), rng, draw, attempt, plan
            )
        if plan is None:
            return pool.submit(_run_tokenized, task, token, tuple(args), rng, draw)
        return pool.submit(
            _run_tokenized_faulty, task, token, tuple(args), rng, draw, attempt,
            plan,
        )

    def close(self) -> None:
        """Shut the pool down and unlink every shared-memory segment."""
        if self.closed:
            return
        super().close()
        tokens = getattr(self, "_tokens", None)
        if tokens is not None:
            tokens.clear()
        shm = getattr(self, "_shm", None)
        if shm is not None:
            shm.close()


class CompatExecutor(Executor):
    """Adapter around a borrowed :class:`concurrent.futures.Executor`.

    Submits ``task(model, *args, rng)`` directly — the model is pickled per
    draw exactly as the PR-3 process path did.  The wrapped pool's lifecycle
    belongs to the caller: :meth:`close` does *not* shut it down.
    """

    kind = "compat"

    def __init__(self, pool: concurrent.futures.Executor) -> None:
        super().__init__()
        self._pool = pool

    def map_draws(self, task, model, args, rngs, cancel=None):
        """Submit every draw to the borrowed pool; yield in order."""
        futures = [
            self._pool.submit(call_task, task, model, tuple(args), rng, draw)
            for draw, rng in enumerate(rngs)
        ]
        try:
            for position, future in enumerate(futures):
                if position and cancel is not None and cancel.should_stop():
                    return
                yield future.result()
        finally:
            for future in futures:
                future.cancel()


def executor_spec_kind(spec: ExecutorSpec, n_jobs: int = 1) -> str:
    """The backend name a specification resolves to (without building it).

    Also the fail-fast validator the constructors (`Engine`, `MinerConfig`,
    `MonteCarloNullEstimator`) call, so a bad spec raises at configuration
    time rather than deep inside the first Monte-Carlo pass.
    """
    if isinstance(spec, Executor):
        return spec.kind
    if isinstance(spec, concurrent.futures.Executor):
        return "compat"
    if spec is None:
        return "process" if n_jobs > 1 else "serial"
    if not isinstance(spec, str):
        raise TypeError(
            f"executor must be a backend name ({', '.join(EXECUTOR_NAMES)}), "
            "a repro.parallel.Executor, a concurrent.futures.Executor, or "
            f"None; got {type(spec).__name__}"
        )
    name = spec.strip().lower()
    if name not in EXECUTOR_NAMES:
        raise ValueError(
            f"unknown executor {spec!r}; expected one of "
            f"{', '.join(EXECUTOR_NAMES)} (or an Executor instance)"
        )
    return name


def as_executor(
    spec: ExecutorSpec,
    n_jobs: int = 1,
    *,
    retry_policy: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> tuple[Executor, bool]:
    """Resolve an executor specification.

    Parameters
    ----------
    spec:
        ``None`` (serial when ``n_jobs == 1``, else the zero-copy process
        backend — the historical ``n_jobs`` semantics), a backend name from
        :data:`EXECUTOR_NAMES`, a ready-made :class:`Executor` (returned
        as-is), or a raw :class:`concurrent.futures.Executor` (wrapped in
        :class:`CompatExecutor`; per-draw pickling, caller-owned lifecycle).
    n_jobs:
        Worker count for pool backends built here.
    retry_policy, fault_plan:
        Applied to executors *built here*; instances keep their own.  When
        no policy is given the process backend gets
        :data:`~repro.parallel.faults.DEFAULT_RETRY_POLICY` (crash recovery
        on), serial/thread get none (raw propagation).

    Returns
    -------
    (executor, owned):
        ``owned`` tells the caller whether it is responsible for closing the
        executor (true only for executors built by this call).
    """
    if isinstance(spec, Executor):
        return spec, False
    if isinstance(spec, concurrent.futures.Executor):
        return CompatExecutor(spec), False
    kind = executor_spec_kind(spec, n_jobs)
    if kind == "serial":
        return SerialExecutor(retry_policy=retry_policy, fault_plan=fault_plan), True
    if kind == "thread":
        return (
            ThreadExecutor(n_jobs, retry_policy=retry_policy, fault_plan=fault_plan),
            True,
        )
    if retry_policy is None:
        retry_policy = DEFAULT_RETRY_POLICY
    return (
        ProcessExecutor(n_jobs, retry_policy=retry_policy, fault_plan=fault_plan),
        True,
    )
