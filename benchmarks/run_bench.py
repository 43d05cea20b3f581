"""Counting-backend benchmark: pure-Python vs NumPy packed bitmaps.

Times the two counting backends on the ``bms1`` benchmark-analogue workloads
that drive the whole methodology and emits ``BENCH_counting.json`` next to
this script, so later PRs have a perf trajectory to regress against:

* ``mine_k_itemsets`` at the "interesting region" support (``t / 200``) for
  ``k = 2, 3, 4`` — the fixed-k primitive issued by Algorithm 1, Procedure 1
  and Procedure 2;
* ``sparse_counting``: the same primitive on the lowest-density analogue
  (kosarak), packed ``uint64`` bitmaps vs the ``scipy.sparse`` CSC backend,
  with the resident index bytes of each (skipped without scipy);
* the end-to-end ``SignificantItemsetMiner.fit`` (Algorithm 1 with Δ = 100
  Monte-Carlo datasets);
* the overlapping-pair kernel behind the Chen–Stein ``b2`` estimate
  (vectorized ragged-arange expansion vs the legacy Python double loop over
  a recorded Monte-Carlo union ``W``);
* the swap-randomisation walk: one full margin-preserving draw under the
  pure-Python int-bitset walk vs the vectorized packed ``uint64`` walk
  (``repro.data.swap``), plus the thread-executor scaling of Δ packed swap
  draws (each executor task walks a block of draws in one pass, wide
  enough for NumPy to release the GIL);
* the null models end-to-end: ``fit`` + Procedure 2 under
  ``null_model="bernoulli"`` vs ``null_model="swap"`` on the numpy backend
  (reported as a cost *ratio* — it documents that Δ margin-preserving swap
  datasets are affordable, not that one null is faster);
* the execution layer: end-to-end ``Engine`` threshold runs at Δ = 512
  under every executor backend versus the PR-3 process path (a raw
  ``concurrent.futures`` pool that re-pickles the null model per draw),
  including the per-draw serialization payload (model pickle vs
  shared-memory token);
* the Δ-adaptive budget: the same Δ = 512 threshold run with a fixed budget
  versus ``Δ₀ = 64 → Δ_max = 512`` adaptive growth (recording the budget the
  run actually stopped at).

Run as a script::

    PYTHONPATH=src python benchmarks/run_bench.py [output.json]
    PYTHONPATH=src python benchmarks/run_bench.py --smoke [output.json]

``--smoke`` runs only the executor + adaptive workloads at a small Δ — the
fast regression probe ``make bench-smoke`` (and CI) uses.

The functions are also imported by ``benchmarks/test_backend_speedup.py``,
which asserts (with slacker thresholds, to stay robust on noisy CI hosts)
that the speedups recorded here do not regress.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Callable, Optional

DEFAULT_OUTPUT = os.path.join(os.path.dirname(__file__), "BENCH_counting.json")

#: Scale of the bms1 analogue used for the fixed-k workloads (the same
#: "half default scale" convention as benchmarks/test_miner_performance.py
#: uses keeps the python baseline affordable).
FIXED_K_SCALE = 0.5
FIXED_K_SIZES = (2, 3, 4)
FIT_NUM_DATASETS = 100


def _time_call(function: Callable[[], object], repeats: int) -> float:
    """Best wall-clock time of ``function()`` over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _workload_entry(name: str, python_seconds: float, numpy_seconds: float) -> dict:
    return {
        "workload": name,
        "python_seconds": round(python_seconds, 6),
        "numpy_seconds": round(numpy_seconds, 6),
        "speedup": round(python_seconds / numpy_seconds, 3),
    }


def bench_fixed_k(repeats: int = 3) -> list[dict]:
    """Time ``mine_k_itemsets`` on bms1 for each backend and each k."""
    from repro.data.benchmarks import generate_benchmark
    from repro.fim.kitemsets import mine_k_itemsets

    dataset = generate_benchmark("bms1", scale=FIXED_K_SCALE, rng=0)
    min_support = max(2, dataset.num_transactions // 200)
    # Warm both cached views so the timings isolate the mining kernels.
    dataset.vertical()
    dataset.packed()

    entries: list[dict] = []
    python_total = 0.0
    numpy_total = 0.0
    for k in FIXED_K_SIZES:
        seconds = {}
        for backend in ("python", "numpy"):
            seconds[backend] = _time_call(
                lambda b=backend: mine_k_itemsets(dataset, k, min_support, backend=b),
                repeats,
            )
        python_total += seconds["python"]
        numpy_total += seconds["numpy"]
        entries.append(
            _workload_entry(
                f"mine_k_itemsets[bms1,scale={FIXED_K_SCALE},k={k},s={min_support}]",
                seconds["python"],
                seconds["numpy"],
            )
        )
    entries.append(
        _workload_entry(
            f"mine_k_itemsets[bms1,scale={FIXED_K_SCALE},k={FIXED_K_SIZES},"
            f"s={min_support},aggregate]",
            python_total,
            numpy_total,
        )
    )
    return entries


#: Fixed k sizes of the sparse-counting workload.
SPARSE_K_SIZES = (2, 3)


def bench_sparse_counting(repeats: int = 3) -> dict:
    """``mine_k_itemsets`` on the lowest-density analogue: packed vs sparse CSC.

    The kosarak analogue is the sparsest workload the generator produces
    (incidence density ~2e-3; the real FIMI files go down to ~1e-5, where
    the dense packed index stops fitting at all).  Results are asserted
    bit-identical before timing; the entry also records the resident bytes
    of each index — the structural reason the sparse backend exists: its
    footprint scales with the *occurrences*, the packed index with
    ``n_items x ceil(n_txns/64)`` regardless of density.
    """
    from repro.fim.sparse import HAS_SCIPY

    if not HAS_SCIPY:
        return {
            "workload": "sparse_counting[kosarak]",
            "skipped": "scipy not installed",
        }

    from repro.data.benchmarks import generate_benchmark
    from repro.fim.kitemsets import mine_k_itemsets

    dataset = generate_benchmark("kosarak", rng=0)
    t, n = dataset.num_transactions, dataset.num_items
    occurrences = sum(len(txn) for txn in dataset.transactions)
    min_support = max(2, t // 200)
    packed = dataset.packed()
    sparse = dataset.sparse()
    matrix = sparse.matrix

    numpy_total = 0.0
    sparse_total = 0.0
    per_k = {}
    for k in SPARSE_K_SIZES:
        assert mine_k_itemsets(dataset, k, min_support, backend="numpy") == (
            mine_k_itemsets(dataset, k, min_support, backend="sparse")
        )
        seconds = {}
        for backend in ("numpy", "sparse"):
            seconds[backend] = _time_call(
                lambda b=backend, kk=k: mine_k_itemsets(
                    dataset, kk, min_support, backend=b
                ),
                repeats,
            )
        numpy_total += seconds["numpy"]
        sparse_total += seconds["sparse"]
        per_k[f"k{k}"] = {
            "numpy_seconds": round(seconds["numpy"], 6),
            "sparse_seconds": round(seconds["sparse"], 6),
        }
    return {
        "workload": (
            f"sparse_counting[kosarak,t={t},n={n},s={min_support},"
            f"k={SPARSE_K_SIZES}]"
        ),
        "density": round(occurrences / (t * n), 6) if t and n else 0.0,
        "numpy_seconds": round(numpy_total, 6),
        "sparse_seconds": round(sparse_total, 6),
        "ratio_sparse_vs_numpy": round(sparse_total / numpy_total, 3),
        "per_k": per_k,
        "packed_index_bytes": int(packed.rows.nbytes),
        "sparse_index_bytes": int(
            matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        ),
    }


def bench_fit(repeats: int = 1) -> dict:
    """Time end-to-end ``SignificantItemsetMiner.fit`` for each backend."""
    from repro.core.miner import SignificantItemsetMiner
    from repro.data.benchmarks import generate_benchmark

    dataset = generate_benchmark("bms1", rng=0)
    seconds = {}
    for backend in ("python", "numpy"):
        seconds[backend] = _time_call(
            lambda b=backend: SignificantItemsetMiner(
                k=2, num_datasets=FIT_NUM_DATASETS, rng=0, backend=b
            ).fit(dataset),
            repeats,
        )
    return _workload_entry(
        f"miner_fit[bms1,k=2,delta={FIT_NUM_DATASETS}]",
        seconds["python"],
        seconds["numpy"],
    )


def bench_overlap_kernel(repeats: int = 3) -> dict:
    """Time the overlapping-pair index: vectorized vs legacy double loop.

    The union ``W`` is recorded once from a Monte-Carlo estimator over a
    dense uniform model, mined low enough that ``W`` holds tens of thousands
    of itemsets (the regime the ROADMAP flagged as dominating Algorithm 1);
    both constructions then rebuild the pair index from the same ``W``.
    """
    from repro.core.lambda_estimation import MonteCarloNullEstimator
    from repro.data.random_model import RandomDatasetModel

    model = RandomDatasetModel(
        {item: 0.05 for item in range(300)}, num_transactions=1000
    )
    estimator = MonteCarloNullEstimator(
        model, k=2, num_datasets=20, mining_support=2, rng=0
    )
    itemsets = list(estimator._itemsets)

    def double_loop() -> int:
        by_item: dict[int, list[int]] = {}
        for position, itemset in enumerate(itemsets):
            for item in itemset:
                by_item.setdefault(item, []).append(position)
        pair_set: set[tuple[int, int]] = set()
        for positions in by_item.values():
            positions.sort()
            for a_pos in range(len(positions)):
                first = positions[a_pos]
                for b_pos in range(a_pos + 1, len(positions)):
                    pair_set.add((first, positions[b_pos]))
        return len(pair_set)

    def vectorized() -> int:
        estimator._pair_indices = None
        left, _ = estimator._overlapping_pair_indices()
        return left.size

    num_pairs = vectorized()
    assert num_pairs == double_loop()
    seconds_loop = _time_call(double_loop, repeats)
    seconds_vectorized = _time_call(vectorized, repeats)
    return _workload_entry(
        f"overlap_kernel[uniform(n=300,f=0.05,t=1000),union={len(itemsets)},"
        f"pairs={num_pairs}]",
        seconds_loop,
        seconds_vectorized,
    )


def bench_null_models(repeats: int = 1) -> dict:
    """Time ``fit`` + Procedure 2 under the Bernoulli vs swap null (numpy).

    Unlike the backend entries this compares two *statistical models*, not
    two implementations of the same computation, so the entry reports the
    swap/bernoulli cost ``ratio`` — the headline being that Δ
    margin-preserving swap datasets are affordable at all.
    """
    from repro.core.miner import SignificantItemsetMiner
    from repro.data.benchmarks import generate_benchmark

    dataset = generate_benchmark("bms1", rng=0)
    seconds = {}
    for null_model in ("bernoulli", "swap"):
        def run(null=null_model):
            miner = SignificantItemsetMiner(
                k=2,
                num_datasets=FIT_NUM_DATASETS,
                rng=0,
                backend="numpy",
                null_model=null,
            ).fit(dataset)
            miner.procedure2()

        seconds[null_model] = _time_call(run, repeats)
    return {
        "workload": f"null_model[bms1,k=2,delta={FIT_NUM_DATASETS},"
        "fit+procedure2,numpy]",
        "bernoulli_seconds": round(seconds["bernoulli"], 6),
        "swap_seconds": round(seconds["swap"], 6),
        "ratio": round(seconds["swap"] / seconds["bernoulli"], 3),
    }


#: Δ swap draws of the swap-walk thread-scaling probe.
SWAP_WALK_DELTA = 12


def bench_swap_walk(repeats: int = 3) -> dict:
    """The swap-randomisation walk: python int bitsets vs the packed walk.

    Times one full swap-null draw (walk plus transpose into the packed
    index) on the bms1 workload under each walk implementation, and measures
    the thread-executor scaling of Δ packed-walk draws through the
    Monte-Carlo estimator — the parallelism the GIL-bound python walk denied
    the ``thread`` backend (PR 4's open item).  ``thread_scaling`` > 1
    requires a multi-core host; ``cpu_count`` is recorded so single-core
    measurements read as what they are.
    """
    import os

    from repro.core.lambda_estimation import MonteCarloNullEstimator
    from repro.core.null_models import SwapRandomizationNull
    from repro.data.benchmarks import generate_benchmark
    from repro.data.swap import swap_randomize_packed

    dataset = generate_benchmark("bms1", rng=0)
    num_swaps = 5 * sum(len(txn) for txn in dataset.transactions)
    seconds = {}
    for walk in ("python", "packed"):
        seconds[walk] = _time_call(
            lambda w=walk: swap_randomize_packed(dataset, rng=0, walk=w), repeats
        )

    mining_support = max(2, dataset.num_transactions // 200)

    def estimate(executor: str, n_jobs: int) -> None:
        MonteCarloNullEstimator(
            SwapRandomizationNull(dataset, walk="packed"),
            k=2,
            num_datasets=SWAP_WALK_DELTA,
            mining_support=mining_support,
            rng=0,
            executor=executor,
            n_jobs=n_jobs,
        )

    serial_seconds = _time_call(lambda: estimate("serial", 1), repeats)
    thread_seconds = _time_call(lambda: estimate("thread", 2), repeats)
    entry = _workload_entry(
        f"swap_walk[bms1,num_swaps={num_swaps},draw]",
        seconds["python"],
        seconds["packed"],
    )
    entry.update(
        {
            "delta": SWAP_WALK_DELTA,
            "serial_seconds": round(serial_seconds, 6),
            "thread_seconds": round(thread_seconds, 6),
            "thread_scaling": round(serial_seconds / thread_seconds, 3),
            "cpu_count": os.cpu_count(),
        }
    )
    return entry


#: Monte-Carlo budget of the execution-layer / adaptive workloads.
EXECUTOR_DELTA = 512
#: Seed budget of the adaptive workload.
ADAPTIVE_DELTA0 = 64


def _engine_threshold_seconds(
    dataset, executor, n_jobs: int, delta: int, delta_max: Optional[int] = None
) -> tuple[float, int]:
    """One end-to-end ``Engine`` threshold run; returns (seconds, Δ spent)."""
    import time

    from repro.engine import Engine

    with Engine(executor=executor, n_jobs=n_jobs) as engine:
        handle = engine.register(dataset)
        start = time.perf_counter()
        result = engine.threshold(
            handle, 2, num_datasets=delta, seed=0, delta_max=delta_max
        )
        seconds = time.perf_counter() - start
    return seconds, result.spent_num_datasets


def _legacy_process_seconds(dataset, delta: int, n_jobs: int = 2) -> float:
    """The PR-3 baseline: a raw pool, the null model pickled per draw."""
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        seconds, _ = _engine_threshold_seconds(dataset, pool, n_jobs, delta)
    return seconds


def _payload_bytes(dataset) -> dict:
    """Per-draw serialization payload: PR-3 model pickle vs zero-copy token."""
    import pickle

    from repro.core.null_models import BernoulliNull
    from repro.parallel import ProcessExecutor

    model = BernoulliNull.from_dataset(dataset)
    with ProcessExecutor(n_jobs=1) as executor:
        token = executor.register(model)
        return {
            "legacy_model_pickle": len(pickle.dumps(model)),
            "zero_copy_token": len(pickle.dumps(token)),
        }


def bench_executor(delta: int = EXECUTOR_DELTA, legacy_seconds: Optional[float] = None) -> dict:
    """Engine threshold runs at Δ under every executor vs the PR-3 pool.

    On a multi-core host the thread / process backends add parallel speedup;
    on a single core they expose exactly the overhead the zero-copy protocol
    removes (per-draw pickling, pool churn).  The payload fields record the
    structural win independently of the host: a registered model ships as a
    token of a few dozen bytes per draw instead of a model pickle.
    """
    from repro.data.benchmarks import generate_benchmark

    dataset = generate_benchmark("bms1", rng=0)
    dataset.packed()  # warm the index so timings isolate the simulations
    if legacy_seconds is None:
        legacy_seconds = _legacy_process_seconds(dataset, delta)
    serial_seconds, _ = _engine_threshold_seconds(dataset, "serial", 1, delta)
    thread_seconds, _ = _engine_threshold_seconds(dataset, "thread", 2, delta)
    process_seconds, _ = _engine_threshold_seconds(dataset, "process", 2, delta)
    best = min(serial_seconds, thread_seconds, process_seconds)
    return {
        "workload": f"executor[bms1,k=2,delta={delta},engine_threshold]",
        "process_legacy_seconds": round(legacy_seconds, 6),
        "serial_seconds": round(serial_seconds, 6),
        "thread_seconds": round(thread_seconds, 6),
        "process_shm_seconds": round(process_seconds, 6),
        "per_draw_payload_bytes": _payload_bytes(dataset),
        "speedup": round(legacy_seconds / best, 3),
    }


def bench_adaptive_delta(
    delta: int = EXECUTOR_DELTA,
    delta0: int = ADAPTIVE_DELTA0,
    legacy_seconds: Optional[float] = None,
) -> dict:
    """Fixed Δ vs adaptive Δ₀ → Δ_max on the same Engine threshold run.

    ``speedup`` compares the adaptive run against the PR-3 process path at
    the fixed Δ (the end-to-end claim); ``speedup_vs_fixed_serial`` isolates
    the pure budget saving (same serial executor on both sides), which is
    host-independent.
    """
    from repro.data.benchmarks import generate_benchmark

    dataset = generate_benchmark("bms1", rng=0)
    dataset.packed()
    if legacy_seconds is None:
        legacy_seconds = _legacy_process_seconds(dataset, delta)
    fixed_seconds, _ = _engine_threshold_seconds(dataset, "serial", 1, delta)
    adaptive_seconds, delta_spent = _engine_threshold_seconds(
        dataset, "serial", 1, delta0, delta_max=delta
    )
    return {
        "workload": (
            f"adaptive_delta[bms1,k=2,delta0={delta0},delta_max={delta},"
            "engine_threshold]"
        ),
        "process_legacy_seconds": round(legacy_seconds, 6),
        "fixed_serial_seconds": round(fixed_seconds, 6),
        "adaptive_seconds": round(adaptive_seconds, 6),
        "delta_spent": delta_spent,
        "speedup": round(legacy_seconds / adaptive_seconds, 3),
        "speedup_vs_fixed_serial": round(fixed_seconds / adaptive_seconds, 3),
    }


def run_smoke(delta: int = 96, delta0: int = 24) -> dict:
    """The fast probe behind ``make bench-smoke``: executor + adaptive only."""
    import platform

    import numpy

    from repro.data.benchmarks import generate_benchmark

    dataset = generate_benchmark("bms1", rng=0)
    dataset.packed()
    legacy = _legacy_process_seconds(dataset, delta)
    return {
        "benchmark": "counting-backend-smoke",
        "dataset": "bms1",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workloads": [
            bench_sparse_counting(repeats=1),
            bench_executor(delta=delta, legacy_seconds=legacy),
            bench_adaptive_delta(delta=delta, delta0=delta0, legacy_seconds=legacy),
        ],
    }


def run_all(repeats: int = 3, fit_repeats: int = 1) -> dict:
    """Run every workload and return the report dictionary."""
    import numpy
    import platform

    from repro.data.benchmarks import generate_benchmark

    workloads = bench_fixed_k(repeats=repeats)
    workloads.append(bench_sparse_counting(repeats=repeats))
    workloads.append(bench_fit(repeats=fit_repeats))
    workloads.append(bench_overlap_kernel(repeats=repeats))
    workloads.append(bench_swap_walk(repeats=repeats))
    workloads.append(bench_null_models(repeats=fit_repeats))
    # The execution-layer workloads share one PR-3 baseline measurement.
    baseline_dataset = generate_benchmark("bms1", rng=0)
    baseline_dataset.packed()
    legacy_seconds = _legacy_process_seconds(baseline_dataset, EXECUTOR_DELTA)
    workloads.append(bench_executor(legacy_seconds=legacy_seconds))
    workloads.append(bench_adaptive_delta(legacy_seconds=legacy_seconds))
    return {
        "benchmark": "counting-backend",
        "dataset": "bms1",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workloads": workloads,
    }


def write_report(report: dict, output_path: Optional[str] = None) -> str:
    path = output_path or DEFAULT_OUTPUT
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return path


def _print_entry(entry: dict) -> None:
    workload = entry["workload"]
    if "skipped" in entry:
        print(f"{workload}: skipped ({entry['skipped']})")
    elif "sparse_seconds" in entry:
        print(
            f"{workload}: numpy={entry['numpy_seconds']:.4f}s "
            f"sparse={entry['sparse_seconds']:.4f}s "
            f"ratio={entry['ratio_sparse_vs_numpy']:.2f}x "
            f"density={entry['density']:.4g} "
            f"bytes packed={entry['packed_index_bytes']} "
            f"sparse={entry['sparse_index_bytes']}"
        )
    elif "python_seconds" in entry:
        extra = ""
        if "thread_scaling" in entry:
            extra = (
                f" thread_scaling={entry['thread_scaling']:.2f}x"
                f" (cpus={entry['cpu_count']})"
            )
        print(
            f"{workload}: python={entry['python_seconds']:.4f}s "
            f"numpy={entry['numpy_seconds']:.4f}s speedup={entry['speedup']:.2f}x"
            f"{extra}"
        )
    elif "bernoulli_seconds" in entry:
        print(
            f"{workload}: bernoulli={entry['bernoulli_seconds']:.4f}s "
            f"swap={entry['swap_seconds']:.4f}s ratio={entry['ratio']:.2f}x"
        )
    elif "adaptive_seconds" in entry:
        print(
            f"{workload}: legacy={entry['process_legacy_seconds']:.4f}s "
            f"fixed={entry['fixed_serial_seconds']:.4f}s "
            f"adaptive={entry['adaptive_seconds']:.4f}s "
            f"(spent delta={entry['delta_spent']}) "
            f"speedup={entry['speedup']:.2f}x"
        )
    else:
        print(
            f"{workload}: legacy={entry['process_legacy_seconds']:.4f}s "
            f"serial={entry['serial_seconds']:.4f}s "
            f"thread={entry['thread_seconds']:.4f}s "
            f"process-shm={entry['process_shm_seconds']:.4f}s "
            f"speedup={entry['speedup']:.2f}x"
        )


def main(argv: list[str]) -> int:
    arguments = [argument for argument in argv[1:] if argument != "--smoke"]
    smoke = "--smoke" in argv[1:]
    if smoke:
        report = run_smoke()
        output_path = arguments[0] if arguments else None
        if output_path is None:
            import tempfile

            output_path = os.path.join(tempfile.gettempdir(), "bench_smoke.json")
    else:
        report = run_all()
        output_path = arguments[0] if arguments else DEFAULT_OUTPUT
    path = write_report(report, output_path)
    for entry in report["workloads"]:
        _print_entry(entry)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
