"""repro.parallel — the zero-copy execution layer and adaptive Monte-Carlo budgets.

Two orthogonal levers over the cost of the Monte-Carlo null simulations that
dominate the whole methodology (see ``docs/parallel.md``):

* **Executors** (:mod:`repro.parallel.executors`): ``serial``, ``thread``
  and ``process`` backends behind one :class:`Executor` interface.  The
  process backend places each null model's heavy buffers in
  ``multiprocessing.shared_memory`` once per session and ships only a token
  plus a per-draw seed to persistent workers; the thread backend shares the
  address space outright and overlaps tasks whose NumPy calls are wide
  enough to release the GIL (packed swap draws reach it in blocks walked in
  one pass).  All backends produce bit-identical results for every
  ``n_jobs``.
* **Adaptive budgets** (:mod:`repro.parallel.adaptive`): geometric
  ``Δ₀ → Δ_max`` schedules with confidence-interval stopping rules, so
  Algorithm 1 and Procedure 1 stop simulating as soon as their decision is
  clear of its boundary — while a run that stops at budget ``Δ_s`` stays
  bit-identical to the same run capped at ``delta_max = Δ_s`` (draws are a
  strict prefix; see ``docs/parallel.md`` for the precise replay contract).

Select an executor by name wherever the old ``n_jobs`` knob is accepted
(``Engine(executor="thread", n_jobs=4)``, ``--executor`` on the CLI);
``delta_max`` (CLI ``--delta-max``) switches the budget from fixed to
adaptive.

Fault tolerance (:mod:`repro.parallel.faults`): the process backend
recovers from worker crashes bit-identically by default; a
:class:`RetryPolicy` tunes the retry budget, and a deterministic
:class:`FaultPlan` injects reproducible chaos for testing.  See
``docs/robustness.md`` for the failure semantics and the degraded-result
contract.
"""

from repro.parallel.cancellation import CancelToken
from repro.parallel.adaptive import (
    clopper_pearson_interval,
    decide_proportion,
    next_budget,
    wilson_interval,
)
from repro.parallel.executors import (
    EXECUTOR_NAMES,
    CompatExecutor,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    as_executor,
    executor_spec_kind,
)
from repro.parallel.faults import (
    DEFAULT_RETRY_POLICY,
    DrawRetriesExhausted,
    FaultInjectionError,
    FaultPlan,
    RetryPolicy,
)
from repro.parallel.shm import ModelToken, ShmSession, export_model, import_model

__all__ = [
    "DEFAULT_RETRY_POLICY",
    "EXECUTOR_NAMES",
    "CancelToken",
    "CompatExecutor",
    "DrawRetriesExhausted",
    "Executor",
    "FaultInjectionError",
    "FaultPlan",
    "ModelToken",
    "ProcessExecutor",
    "RetryPolicy",
    "SerialExecutor",
    "ShmSession",
    "ThreadExecutor",
    "as_executor",
    "clopper_pearson_interval",
    "decide_proportion",
    "executor_spec_kind",
    "export_model",
    "import_model",
    "next_budget",
    "wilson_interval",
]
