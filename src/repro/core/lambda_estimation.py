"""Estimators of ``λ(s) = E[Q̂_{k,s}]`` and of the empirical Chen–Stein terms.

Both Algorithm 1 (the Monte-Carlo Poisson threshold) and Procedure 2 (the
support threshold ``s*``) need properties of the random-dataset distribution
of k-itemset supports:

* Algorithm 1 needs, for each candidate support ``s``, the empirical
  probabilities ``p_X(s) = Pr(support(X) >= s)`` and joint probabilities
  ``p_{X,Y}(s)`` for overlapping itemsets, from which it builds the
  Monte-Carlo estimates of ``b1(s)`` and ``b2(s)``;
* Procedure 2 needs ``λ_i = E[Q̂_{k,s_i}]`` for its geometrically spaced
  supports ``s_i``.

The paper notes (Section 3.2) that the same ``Δ`` random datasets can serve
both purposes; :class:`MonteCarloNullEstimator` is that shared object.  It
samples ``Δ`` datasets from a :class:`~repro.core.null_models.NullModel`
(the paper's Bernoulli null by default, the margin-preserving
swap-randomisation null with ``null_model="swap"`` upstream), mines the
k-itemsets with support at least a base threshold in each, and answers all
the queries above from a dense support-profile matrix (one row per itemset
of the union ``W``, one column per sampled dataset).  All per-support
queries are vectorised over that matrix, so evaluating the Chen–Stein bounds
at many candidate supports stays cheap even when ``W`` contains tens of
thousands of itemsets; the overlapping-pair index behind ``b2`` is likewise
built with pure array ops (a grouped ragged-pair expansion over the
item -> itemset incidence, no Python double loop).

With the default ``numpy`` counting backend the Δ datasets never exist as
Python transaction lists: each one is drawn directly in packed-bitmap form
(``NullModel.sample_packed``) and mined with the vectorized kernels of
:mod:`repro.fim.bitmap`, whose array-native k-itemset collection
(:func:`~repro.fim.bitmap.kitemset_supports_packed`) lets the Δ datasets be
aggregated with ``np.union1d``/``np.searchsorted`` for *any* ``k``.  Set
``REPRO_BACKEND=python`` (or ``backend="python"``) to fall back to the
pure-Python pipeline.  The Δ sample/mine tasks run on an executor from
:mod:`repro.parallel.executors` — ``"serial"`` (default), ``"thread"``
(shared address space), or ``"process"`` (zero-copy workers: the null
model's buffers live in shared memory, each task ships only a token and its
child generators).  Null models that walk a block of draws in one pass (the
swap null under the packed walk, on matrices small enough to stack) get a
block of draws per task: the wider NumPy calls of a block are what let
threads overlap swap draws.  Collection draws one spawned child generator
per dataset on every backend, so results are deterministic per seed *and
identical for every executor, block size and* ``n_jobs``; pass a live
:class:`repro.parallel.Executor` to reuse one pool across many estimators
(as the halving loop of Algorithm 1 and the Engine do).
:meth:`MonteCarloNullEstimator.extend` grows the budget in place while
keeping the already-collected draws as a strict prefix — the primitive the
Δ-adaptive budgets are built on.

:func:`analytic_lambda` provides an independent, truncated analytic estimate
of ``λ(s)`` (a sum of Binomial tails over the highest-frequency itemsets) used
to cross-validate the Monte-Carlo estimator in the tests.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from contextlib import contextmanager
from heapq import nlargest
from itertools import combinations
from typing import Optional, Union

import numpy as np

from repro.core.null_models import NullModel, as_null_model
from repro.data.random_model import RandomDatasetModel
from repro.fim.bitmap import resolve_backend
from repro.fim.itemsets import Itemset
from repro.fim.kitemsets import mine_k_itemsets
from repro.stats.binomial import binomial_sf

__all__ = ["MonteCarloNullEstimator", "analytic_lambda"]

#: Version of the :meth:`MonteCarloNullEstimator.state_dict` schema.  Bumped
#: whenever the recorded fields change meaning; :meth:`from_state` refuses
#: other versions, so stale on-disk artifacts surface as cache misses rather
#: than being silently mis-read.
ESTIMATOR_STATE_VERSION = 2


#: Most draws one executor task samples, for null models that walk a block
#: of draws in one pass (``block_draws`` > 1: the swap null under the packed
#: walk, on matrices small enough to stack).  Δ is split evenly into blocks
#: of at most this many draws; the block size changes the wall-clock (wider
#: NumPy calls that let threads overlap tasks), never a result.
_MAX_DRAW_BLOCK = 6


def _sample_packed_block(
    model: NullModel, generators: tuple[np.random.Generator, ...]
) -> list:
    """One packed null dataset per generator (one pass for a block)."""
    if len(generators) == 1:
        return [model.sample_packed(generators[0])]
    return model.sample_packed_block(generators)


def _mine_null_samples(
    model: NullModel,
    k: int,
    mining_support: int,
    backend: str,
    generators: tuple[np.random.Generator, ...],
) -> list[dict[Itemset, int]]:
    """Sample one task's null datasets and mine their k-itemsets.

    Module-level so that ``n_jobs > 1`` can ship it to worker processes.
    """
    if backend == "numpy":
        return [
            mine_k_itemsets(packed, k, mining_support)
            for packed in _sample_packed_block(model, generators)
        ]
    return [
        mine_k_itemsets(model.sample(generator), k, mining_support, backend=backend)
        for generator in generators
    ]


def _kitemset_arrays_samples(
    model: NullModel,
    k: int,
    mining_support: int,
    generators: tuple[np.random.Generator, ...],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Sample one task's packed null datasets; their frequent k-itemsets as arrays.

    The itemsets are encoded as base-``n`` integer keys over positions into
    the model's sorted item universe (``n = model.num_items``), so the whole
    Δ-dataset collection can be aggregated with ``np.union1d`` /
    ``np.searchsorted`` instead of per-itemset Python dictionaries.
    Module-level for ``n_jobs`` pickling.
    """
    from repro.fim.bitmap import kitemset_supports_packed

    results = []
    for packed in _sample_packed_block(model, generators):
        sets, counts = kitemset_supports_packed(packed, k, mining_support)
        results.append((_encode_positions(sets, model.num_items), counts))
    return results


def _encode_positions(sets: np.ndarray, num_items: int) -> np.ndarray:
    """Encode an ``(M, k)`` position array into base-``num_items`` int64 keys."""
    if sets.size == 0:
        return np.empty(0, dtype=np.int64)
    keys = sets[:, 0].astype(np.int64, copy=True)
    for column in range(1, sets.shape[1]):
        keys *= np.int64(num_items)
        keys += sets[:, column]
    return keys


def _decode_keys(keys: np.ndarray, k: int, num_items: int) -> np.ndarray:
    """Decode base-``num_items`` keys back into an ``(M, k)`` position array."""
    positions = np.empty((keys.size, k), dtype=np.int64)
    remainder = keys.astype(np.int64, copy=True)
    for column in range(k - 1, -1, -1):
        positions[:, column] = remainder % num_items
        remainder //= num_items
    return positions


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D array.

    Equivalent to ``np.unique`` but implemented as sort + neighbour mask:
    on large integer arrays this is orders of magnitude faster than the
    hash-assisted path some NumPy builds take (measured ~100x on 13M
    ``int64`` keys), and these unions sit on the hot path of every
    Monte-Carlo collection.
    """
    if values.size == 0:
        return values
    ordered = np.sort(values, kind="stable")
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


class MonteCarloNullEstimator:
    """Monte-Carlo view of the null distribution of k-itemset supports.

    Parameters
    ----------
    model:
        The null model to sample from: a
        :class:`~repro.core.null_models.NullModel` (e.g.
        :class:`~repro.core.null_models.BernoulliNull` or
        :class:`~repro.core.null_models.SwapRandomizationNull`) or a bare
        :class:`~repro.data.random_model.RandomDatasetModel`, which is
        wrapped in a Bernoulli null automatically.
    k:
        Itemset size.
    num_datasets:
        The Monte-Carlo budget ``Δ`` (the paper uses 1000; Theorem 4 shows
        ``O(log(1/δ)/ε)`` suffices for a ``1 − δ`` guarantee).
    mining_support:
        Only itemsets reaching this support in a sampled dataset are recorded;
        queries below this threshold are refused (they would be biased).
    rng:
        Seed or :class:`numpy.random.Generator`.
    max_union_size:
        Advisory limit used by callers (Algorithm 1 raises its starting
        support when the union ``W`` exceeds it); the pairwise (``b2``)
        machinery also refuses to build its pair index beyond this size.
    backend:
        Counting backend for the Δ sample/mine passes: ``"numpy"`` (packed
        bitmaps, the default) or ``"python"``; ``None`` defers to the
        ``REPRO_BACKEND`` environment variable.
    n_jobs:
        Number of workers for the Δ sample/mine passes (1 = sequential,
        in-process).  Each dataset draws from its own spawned child
        generator regardless of ``n_jobs``, so the collected profiles are
        identical for every ``n_jobs`` value given the same seed.
    executor:
        How to run the Δ passes: an executor name (``"serial"``,
        ``"thread"``, ``"process"`` — see :mod:`repro.parallel.executors`),
        a ready-made :class:`repro.parallel.Executor` (borrowed: one session
        executor can serve many estimators, as Algorithm 1's halving loop
        and the Engine do; never shut down here), a raw
        :class:`concurrent.futures.Executor` (legacy per-draw-pickling
        compatibility path), or ``None`` — serial when ``n_jobs == 1``, the
        zero-copy process backend otherwise.  Executors built here are
        context-managed around each collection pass, so no pool or
        shared-memory segment survives an exception.
    """

    def __init__(
        self,
        model: Union[NullModel, RandomDatasetModel],
        k: int,
        num_datasets: int,
        mining_support: int,
        rng: Optional[Union[int, np.random.Generator]] = None,
        max_union_size: int = 50_000,
        backend: Optional[str] = None,
        n_jobs: int = 1,
        executor=None,
        cancel=None,
    ) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        if num_datasets < 1:
            raise ValueError("num_datasets must be at least 1")
        if mining_support < 1:
            raise ValueError("mining_support must be at least 1")
        if n_jobs < 1:
            raise ValueError("n_jobs must be at least 1")
        self.model = as_null_model(model, model)
        self.k = k
        self.num_datasets = int(num_datasets)
        self.mining_support = int(mining_support)
        self.max_union_size = int(max_union_size)
        self.backend = resolve_backend(backend)
        self.n_jobs = int(n_jobs)
        self._executor_spec = executor
        from repro.parallel.executors import executor_spec_kind

        executor_spec_kind(executor)  # fail fast on typos and bad spec types
        self._delta_requested = int(num_datasets)
        self._rng = (
            rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        )
        self._itemsets: list[Itemset] = []
        self._index_of: dict[Itemset, int] = {}
        self._profiles: np.ndarray = np.zeros((0, self.num_datasets), dtype=np.int64)
        self._pair_indices: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._max_observed_support = 0
        #: True when a collection pass lost draws to exhausted retries and
        #: the estimator holds the strict prefix actually collected (its
        #: intervals are honest, just wider than requested).
        self.degraded = False
        #: Optional CancelToken polled between draws: a deadline or client
        #: cancellation stops collection/extension the same way exhausted
        #: retries do — strict prefix kept, ``degraded`` set.
        self._cancel = cancel
        self._collect()

    # ------------------------------------------------------------------
    # Sampling and mining
    # ------------------------------------------------------------------
    @contextmanager
    def _executor_scope(self):
        """The executor for one collection pass.

        Borrowed executors (instances passed in by the Engine or Algorithm
        1's halving loop) are yielded as-is; executors resolved from a name
        / ``n_jobs`` are created here and closed on exit — including the
        exception path, so a raising collection can never leak a process
        pool or a shared-memory segment.
        """
        from repro.parallel.executors import as_executor

        executor, owned = as_executor(self._executor_spec, self.n_jobs)
        if not owned:
            yield executor
            return
        try:
            yield executor
        finally:
            executor.close()

    def _draw_block_size(self, count: int) -> int:
        """Draws per executor task for a pass of ``count`` draws.

        Null models that walk a block of packed draws in one pass get ``count``
        split evenly into blocks of at most ``min(_MAX_DRAW_BLOCK,
        model.block_draws)`` draws (the last one may be shorter); every other
        model gets one draw per task.
        """
        limit = (
            min(_MAX_DRAW_BLOCK, getattr(self.model, "block_draws", 1))
            if self.backend == "numpy"
            else 1
        )
        if limit <= 1 or count <= 1:
            return 1
        num_blocks = -(-count // limit)
        return -(-count // num_blocks)

    def _iter_samples(self, worker, args: tuple, count: Optional[int] = None) -> Iterator:
        """Yield the per-dataset results of ``worker`` for ``count`` datasets.

        Every dataset gets its own spawned child generator, drawn from the
        estimator's RNG in one batch up front.  Consecutive children are
        grouped into blocks (:meth:`_draw_block_size`), the configured
        executor runs ``worker(model, *args, block)`` once per block
        (in-process, threads, or zero-copy worker processes), and the
        per-dataset results are yielded in draw order.  A block's draws are
        bit-identical to the same draws sampled one by one, so all backends
        and block sizes produce *identical* results for the same seed — the
        executor and ``n_jobs`` only change the wall-clock, never the
        statistics.  Because the children are spawned incrementally from one
        generator, draws ``0..Δ₀`` of any collection are a strict prefix of
        draws ``0..Δ`` of a larger one (the property :meth:`extend` and the
        Δ-adaptive budgets rely on).  Retries, cancellation polls and
        degraded prefixes act on whole blocks.
        """
        count = self.num_datasets if count is None else count
        child_rngs = self._rng.spawn(count)
        size = self._draw_block_size(count)
        blocks = [
            tuple(child_rngs[start : start + size]) for start in range(0, count, size)
        ]
        with self._executor_scope() as executor:
            for results in executor.map_draws(
                worker, self.model, args, blocks, cancel=self._cancel
            ):
                yield from results

    def _degrade_collection(self, collected: int, error) -> None:
        """Graceful degradation: keep the strict prefix a failing pass built.

        ``error`` is the :class:`~repro.parallel.faults.DrawRetriesExhausted`
        the executor raised.  With nothing collected there is no prefix to
        keep, so the failure propagates (task errors as themselves, pool
        breakage still wrapped — a raw ``BrokenProcessPool`` never escapes);
        otherwise the estimator shrinks to the ``collected`` draws and flags
        itself ``degraded`` so every downstream result carries the flag.
        """
        if collected == 0:
            propagated = error.propagation_error()
            if propagated is error:
                raise error
            raise propagated from error
        self.degraded = True
        self.num_datasets = collected

    def _iter_mined(self, count: Optional[int] = None) -> Iterator[dict[Itemset, int]]:
        """Yield the mined k-itemset dict of each of the Δ null datasets."""
        return self._iter_samples(
            _mine_null_samples,
            (self.k, self.mining_support, self.backend),
            count=count,
        )

    def _keys_fit_in_int64(self) -> bool:
        """Whether base-``n`` k-itemset keys stay clear of int64 overflow."""
        return self.model.num_items ** self.k < 2**62

    def _collect_arrays_numpy(self) -> None:
        """Array-native Δ-dataset collection (numpy backend, any ``k``).

        Each dataset contributes a key array (k-itemsets encoded base-``n``
        over item positions) and a support array straight from the packed
        k-itemset kernel; the union ``W`` is maintained with ``np.union1d``
        and the profile matrix is scattered with ``np.searchsorted`` — the
        only per-itemset Python loop left is the one that decodes the final
        union back into itemset tuples, once.
        """
        from repro.parallel.faults import DrawRetriesExhausted

        self.truncated = False
        items = self.model.items
        num_items = len(items)
        key_arrays: list[np.ndarray] = []
        count_arrays: list[np.ndarray] = []
        union_keys = np.empty(0, dtype=np.int64)
        try:
            for keys, counts in self._iter_samples(
                _kitemset_arrays_samples, (self.k, self.mining_support)
            ):
                key_arrays.append(keys)
                count_arrays.append(counts)
                if counts.size:
                    top = int(counts.max())
                    if top > self._max_observed_support:
                        self._max_observed_support = top
                union_keys = _sorted_unique(np.concatenate((union_keys, keys)))
                if union_keys.size > self.max_union_size:
                    self.truncated = True
                    break
        except DrawRetriesExhausted as error:
            self._degrade_collection(len(key_arrays), error)

        if (
            not self.truncated
            and self._cancel is not None
            and self._cancel.cancelled
            and len(key_arrays) < self.num_datasets
        ):
            # Cancelled between draws: keep the strict prefix, same contract
            # as retry exhaustion (the executors guarantee at least one draw).
            self.degraded = True
            self.num_datasets = len(key_arrays)

        positions = _decode_keys(union_keys, self.k, num_items)
        self._itemsets = [
            tuple(items[position] for position in row) for row in positions.tolist()
        ]
        self._index_of = {
            itemset: position for position, itemset in enumerate(self._itemsets)
        }
        if self.truncated:
            self._profiles = np.zeros((0, self.num_datasets), dtype=np.int64)
            return
        profiles = np.zeros((union_keys.size, self.num_datasets), dtype=np.int64)
        for column, (keys, counts) in enumerate(zip(key_arrays, count_arrays)):
            if keys.size:
                profiles[np.searchsorted(union_keys, keys), column] = counts
        self._profiles = profiles

    def _collect(self) -> None:
        """Sample Δ datasets and record, per itemset, its support profile.

        Collection stops early (leaving the estimator in a "truncated" state
        with ``union_size > max_union_size``) as soon as the union exceeds
        ``max_union_size``: callers such as Algorithm 1 interpret that as
        "the mining support is too low" and retry at a higher support, so
        finishing the expensive collection would be wasted work.

        On the numpy backend the whole collection is array-native for any
        ``k`` (:meth:`_collect_arrays_numpy`): each dataset's frequent
        k-itemsets arrive as key/support arrays from the packed kernel and
        the union and profile matrix are built with ``np.union1d`` /
        ``np.searchsorted`` — no per-itemset Python work.  The dict-based
        path remains for the python backend (and as a fallback when the item
        universe is so large that base-``n`` keys would overflow ``int64``).
        """
        if self.backend == "numpy" and self._keys_fit_in_int64():
            self._collect_arrays_numpy()
            return
        from repro.parallel.faults import DrawRetriesExhausted

        per_dataset: list[dict[Itemset, int]] = []
        index_of: dict[Itemset, int] = {}
        self.truncated = False
        try:
            for mined in self._iter_mined():
                per_dataset.append(mined)
                for itemset, support in mined.items():
                    if itemset not in index_of:
                        index_of[itemset] = len(index_of)
                    if support > self._max_observed_support:
                        self._max_observed_support = support
                if len(index_of) > self.max_union_size:
                    self.truncated = True
                    break
        except DrawRetriesExhausted as error:
            self._degrade_collection(len(per_dataset), error)

        if (
            not self.truncated
            and self._cancel is not None
            and self._cancel.cancelled
            and len(per_dataset) < self.num_datasets
        ):
            self.degraded = True
            self.num_datasets = len(per_dataset)

        self._index_of = index_of
        self._itemsets = [None] * len(index_of)  # type: ignore[list-item]
        for itemset, position in index_of.items():
            self._itemsets[position] = itemset
        if self.truncated:
            # The profile matrix would be both huge and unusable; keep it
            # empty.  All per-support queries on a truncated estimator are
            # invalid and refuse to run.
            self._profiles = np.zeros((0, self.num_datasets), dtype=np.int64)
            return
        profiles = np.zeros((len(index_of), self.num_datasets), dtype=np.int64)
        for column, mined in enumerate(per_dataset):
            for itemset, support in mined.items():
                profiles[index_of[itemset], column] = support
        self._profiles = profiles

    # ------------------------------------------------------------------
    # Δ extension (adaptive budgets)
    # ------------------------------------------------------------------
    def extend(self, additional: int) -> bool:
        """Grow the Monte-Carlo budget by ``additional`` datasets, in place.

        The new datasets continue the estimator's child-generator spawn
        stream, so the profile matrix after ``extend`` is *bit-identical* to
        the one a fresh estimator with ``num_datasets = Δ + additional`` and
        the same seed would have collected — the first Δ columns are a strict
        prefix.  This is what lets the Δ-adaptive budgets of Algorithm 1 and
        Procedure 1 stop early without changing any fixed-budget result.

        Returns
        -------
        bool
            ``True`` on success.  ``False`` when the budget cannot grow
            further and callers should stop: either the grown union would
            exceed ``max_union_size`` (the estimator is then left
            **unchanged**, though the ``additional`` child generators have
            been consumed), or draw retries were exhausted mid-extension —
            the strict prefix of new draws actually collected is committed
            and the estimator flags itself ``degraded``.

        Raises
        ------
        RuntimeError
            If the estimator is truncated, or was rebuilt via
            :meth:`from_state` without a live model to sample from.
        """
        if additional < 1:
            raise ValueError("additional must be at least 1")
        if getattr(self, "truncated", False):
            raise RuntimeError("cannot extend a truncated estimator")
        if self.model is None:
            raise RuntimeError(
                "cannot extend an estimator restored without a model; "
                "reattach the null model first"
            )
        if self.backend == "numpy" and self._keys_fit_in_int64():
            return self._extend_arrays_numpy(additional)
        return self._extend_dicts(additional)

    def _extend_arrays_numpy(self, additional: int) -> bool:
        """Array-native extension (numpy backend, any ``k``)."""
        items = self.model.items
        num_items = len(items)
        position_of = {item: position for position, item in enumerate(items)}
        if self._itemsets:
            old_positions = np.array(
                [[position_of[item] for item in itemset] for itemset in self._itemsets],
                dtype=np.int64,
            )
        else:
            old_positions = np.empty((0, self.k), dtype=np.int64)
        old_keys = _encode_positions(old_positions, num_items)

        from repro.parallel.faults import DrawRetriesExhausted

        key_arrays: list[np.ndarray] = []
        count_arrays: list[np.ndarray] = []
        union_keys = old_keys
        max_support = self._max_observed_support
        degraded = False
        try:
            for keys, counts in self._iter_samples(
                _kitemset_arrays_samples,
                (self.k, self.mining_support),
                count=additional,
            ):
                key_arrays.append(keys)
                count_arrays.append(counts)
                if counts.size:
                    max_support = max(max_support, int(counts.max()))
                union_keys = _sorted_unique(np.concatenate((union_keys, keys)))
                if union_keys.size > self.max_union_size:
                    return False
        except DrawRetriesExhausted:
            # Commit whatever prefix of the extension was collected; the
            # budget cannot grow further, so the caller must stop.
            self.degraded = True
            degraded = True
            if not key_arrays:
                return False
            additional = len(key_arrays)

        if (
            self._cancel is not None
            and self._cancel.cancelled
            and len(key_arrays) < additional
        ):
            # Cancelled mid-extension: commit the strict prefix and stop.
            self.degraded = True
            degraded = True
            if not key_arrays:
                return False
            additional = len(key_arrays)

        positions = _decode_keys(union_keys, self.k, num_items)
        itemsets = [
            tuple(items[position] for position in row) for row in positions.tolist()
        ]
        profiles = np.zeros(
            (union_keys.size, self.num_datasets + additional), dtype=np.int64
        )
        if old_keys.size:
            profiles[
                np.searchsorted(union_keys, old_keys), : self.num_datasets
            ] = self._profiles
        for offset, (keys, counts) in enumerate(zip(key_arrays, count_arrays)):
            if keys.size:
                profiles[
                    np.searchsorted(union_keys, keys), self.num_datasets + offset
                ] = counts
        self._commit_extension(itemsets, profiles, additional, max_support)
        return not degraded

    def _extend_dicts(self, additional: int) -> bool:
        """Dict-based extension (python backend / huge item universes)."""
        from repro.parallel.faults import DrawRetriesExhausted

        index_of = dict(self._index_of)
        per_dataset: list[dict[Itemset, int]] = []
        max_support = self._max_observed_support
        degraded = False
        try:
            for mined in self._iter_mined(count=additional):
                per_dataset.append(mined)
                for itemset, support in mined.items():
                    if itemset not in index_of:
                        index_of[itemset] = len(index_of)
                    if support > max_support:
                        max_support = support
                if len(index_of) > self.max_union_size:
                    return False
        except DrawRetriesExhausted:
            self.degraded = True
            degraded = True
            if not per_dataset:
                return False
            additional = len(per_dataset)

        if (
            self._cancel is not None
            and self._cancel.cancelled
            and len(per_dataset) < additional
        ):
            self.degraded = True
            degraded = True
            if not per_dataset:
                return False
            additional = len(per_dataset)

        itemsets: list[Itemset] = [None] * len(index_of)  # type: ignore[list-item]
        for itemset, position in index_of.items():
            itemsets[position] = itemset
        profiles = np.zeros(
            (len(index_of), self.num_datasets + additional), dtype=np.int64
        )
        # New itemsets were appended after the existing ones, so the old rows
        # keep their positions and the old matrix pastes in as a block.
        profiles[: self._profiles.shape[0], : self.num_datasets] = self._profiles
        for offset, mined in enumerate(per_dataset):
            column = self.num_datasets + offset
            for itemset, support in mined.items():
                profiles[index_of[itemset], column] = support
        self._commit_extension(itemsets, profiles, additional, max_support)
        return not degraded

    def _commit_extension(
        self,
        itemsets: list[Itemset],
        profiles: np.ndarray,
        additional: int,
        max_support: int,
    ) -> None:
        self._itemsets = itemsets
        self._index_of = {
            itemset: position for position, itemset in enumerate(itemsets)
        }
        self._profiles = profiles
        self.num_datasets += int(additional)
        self._max_observed_support = int(max_support)
        self._pair_indices = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def union_itemsets(self) -> list[Itemset]:
        """The union ``W`` of itemsets mined from any of the Δ datasets."""
        return sorted(self._itemsets)

    @property
    def union_size(self) -> int:
        """``|W|``."""
        return len(self._itemsets)

    @property
    def max_observed_support(self) -> int:
        """Largest support observed in any sampled dataset (``s_max`` of Alg. 1)."""
        return self._max_observed_support

    def support_profile(self, itemset: Itemset) -> np.ndarray:
        """Per-dataset supports of one itemset of ``W`` (zeros if absent)."""
        position = self._index_of.get(tuple(sorted(itemset)))
        if position is None:
            return np.zeros(self.num_datasets, dtype=np.int64)
        return self._profiles[position].copy()

    def _require_valid_support(self, s: int) -> None:
        if getattr(self, "truncated", False):
            raise RuntimeError(
                "the Monte-Carlo union exceeded max_union_size during "
                "collection; rebuild the estimator with a higher mining_support"
            )
        if s < self.mining_support:
            raise ValueError(
                f"support {s} is below the mining support {self.mining_support}; "
                "rebuild the estimator with a lower mining_support"
            )

    # ------------------------------------------------------------------
    # λ(s) and empirical probabilities
    # ------------------------------------------------------------------
    def lambda_at(self, s: int, floor: float = 0.0) -> float:
        """Monte-Carlo estimate of ``λ(s) = E[Q̂_{k,s}]`` for ``s >= mining_support``.

        Parameters
        ----------
        s:
            Support threshold.
        floor:
            Lower bound applied to the estimate (e.g. ``1/Δ`` to avoid a hard
            zero caused purely by the finite Monte-Carlo budget).
        """
        self._require_valid_support(s)
        if self._profiles.size == 0:
            return max(0.0, floor)
        total = int(np.count_nonzero(self._profiles >= s))
        return max(total / self.num_datasets, floor)

    def empirical_probability(self, itemset: Itemset, s: int) -> float:
        """Empirical ``p_X(s) = Pr(support(X) >= s)`` for an itemset of ``W``."""
        self._require_valid_support(s)
        position = self._index_of.get(tuple(sorted(itemset)))
        if position is None:
            return 0.0
        return float(np.count_nonzero(self._profiles[position] >= s)) / self.num_datasets

    def exceedance_count(self, itemset: Itemset, s: int) -> int:
        """``#{d : support_d(X) >= s}`` — the raw Monte-Carlo evidence.

        The Binomial count behind :meth:`empirical_pvalue`; the Δ-adaptive
        budget of Procedure 1 puts its Wilson / Clopper–Pearson interval
        around this count.
        """
        self._require_valid_support(s)
        position = self._index_of.get(tuple(sorted(itemset)))
        if position is None:
            return 0
        return int(np.count_nonzero(self._profiles[position] >= s))

    def empirical_pvalue(self, itemset: Itemset, s: int) -> float:
        """Monte-Carlo p-value of ``support(X) >= s`` with add-one correction.

        Returns ``(1 + #{d : support_d(X) >= s}) / (1 + Δ)``, the standard
        finite-sample Monte-Carlo p-value (never exactly zero; its resolution
        is ``1/(Δ+1)``).  Used by Procedure 1 when the null model has no
        closed-form marginal (e.g. the swap-randomisation null).
        """
        return (1 + self.exceedance_count(itemset, s)) / (1 + self.num_datasets)

    def empirical_probabilities(self, s: int) -> dict[Itemset, float]:
        """Empirical ``p_X(s)`` for every itemset of ``W`` (zeros omitted)."""
        self._require_valid_support(s)
        if self._profiles.size == 0:
            return {}
        counts = (self._profiles >= s).sum(axis=1)
        return {
            self._itemsets[position]: counts[position] / self.num_datasets
            for position in np.nonzero(counts)[0]
        }

    # ------------------------------------------------------------------
    # Chen–Stein estimates
    # ------------------------------------------------------------------
    def _overlapping_pair_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays of the unordered pairs of distinct overlapping itemsets.

        Fully vectorized: the (itemset position, item) incidence pairs are
        lexsorted by item, each item's group of positions is expanded into
        its within-group ordered pairs with a ragged-``arange`` construction
        (no Python loop over the union ``W``), and pairs sharing several
        items are deduplicated with one ``np.unique`` over encoded keys.
        """
        if self._pair_indices is not None:
            return self._pair_indices
        union_size = self.union_size
        if union_size > self.max_union_size:
            raise RuntimeError(
                f"the Monte-Carlo union contains {union_size} itemsets "
                f"(> max_union_size={self.max_union_size}); raise mining_support"
            )
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        if union_size == 0:
            self._pair_indices = empty
            return self._pair_indices
        sets = np.asarray(self._itemsets, dtype=np.int64)  # (W, k)
        positions = np.repeat(np.arange(union_size, dtype=np.int64), sets.shape[1])
        item_ids = sets.ravel()
        order = np.lexsort((positions, item_ids))
        items_sorted = item_ids[order]
        pos_sorted = positions[order]

        # Group boundaries: one group per distinct item.
        new_group = np.empty(items_sorted.size, dtype=bool)
        new_group[0] = True
        np.not_equal(items_sorted[1:], items_sorted[:-1], out=new_group[1:])
        group_start = np.flatnonzero(new_group)
        group_id = np.cumsum(new_group) - 1
        group_sizes = np.diff(np.append(group_start, items_sorted.size))
        # Element at local index i of a group of size c pairs with the
        # c - 1 - i later elements of the same group.
        local = np.arange(items_sorted.size) - group_start[group_id]
        reps = group_sizes[group_id] - 1 - local
        total = int(reps.sum())
        if total == 0:
            self._pair_indices = empty
            return self._pair_indices
        left = np.repeat(pos_sorted, reps)
        # Ragged arange: for each element, the indices of its later
        # group-mates in the sorted order.
        cumulative = np.cumsum(reps)
        right_indices = (
            np.arange(total)
            - np.repeat(cumulative - reps, reps)
            + np.repeat(np.arange(items_sorted.size) + 1, reps)
        )
        right = pos_sorted[right_indices]
        # Positions ascend within a group, so left < right already holds;
        # pairs sharing several items appear once per shared item — dedupe.
        keys = _sorted_unique(left * np.int64(union_size) + right)
        self._pair_indices = (keys // union_size, keys % union_size)
        return self._pair_indices

    def chen_stein_estimates(self, s: int) -> tuple[float, float]:
        """Monte-Carlo estimates of ``(b1(s), b2(s))``.

        ``b1(s)`` sums ``p_X p_Y`` over ordered pairs with ``Y ∈ I(X)``
        (including ``Y = X``); ``b2(s)`` sums the empirical joint probability
        ``Pr(Z_X = 1 ∧ Z_Y = 1)`` over ordered pairs of *distinct* overlapping
        itemsets.  Itemsets outside ``W`` contribute zero, exactly as in
        Section 2.1 of the paper.
        """
        self._require_valid_support(s)
        if self._profiles.size == 0:
            return 0.0, 0.0
        indicator = self._profiles >= s
        probabilities = indicator.sum(axis=1) / self.num_datasets
        b1 = float(np.dot(probabilities, probabilities))

        left, right = self._overlapping_pair_indices()
        if left.size == 0:
            return b1, 0.0
        # Restrict the pair computation to itemsets that are still "alive" at
        # this support; pairs with a dead member contribute nothing.
        alive = probabilities > 0.0
        keep = alive[left] & alive[right]
        if not np.any(keep):
            return b1, 0.0
        left_kept = left[keep]
        right_kept = right[keep]
        b1 += 2.0 * float(np.dot(probabilities[left_kept], probabilities[right_kept]))
        # Joint counts are accumulated in chunks to bound peak memory when the
        # number of overlapping pairs is in the millions.
        joint_total = 0
        chunk = 200_000
        for start in range(0, left_kept.size, chunk):
            stop = start + chunk
            joint_total += int(
                np.count_nonzero(
                    indicator[left_kept[start:stop]] & indicator[right_kept[start:stop]]
                )
            )
        b2 = 2.0 * float(joint_total) / self.num_datasets
        return b1, b2

    def chen_stein_interval(
        self, s: int, confidence: float = 0.99
    ) -> tuple[float, float, float]:
        """``b1(s) + b2(s)`` with a delta-method confidence interval.

        The Chen–Stein criterion statistic is a smooth function of the mean
        vector of per-dataset indicators, not a single Bernoulli proportion,
        so a Wilson/Clopper–Pearson interval on ``(b1+b2)·Δ`` would be badly
        mis-calibrated (grossly too wide when the statistic aggregates many
        near-independent terms).  Instead this linearises the statistic: per
        dataset ``d`` the influence value is

        ``u_d = Σ_X q_X Z_{X,d} + Y_d``   with
        ``q_X = 2 p_X + 2 Σ_{Y ∈ I(X)} p_Y`` (the gradient of ``b1``) and
        ``Y_d = 2 · #{overlapping pairs both alive in d}`` (whose mean is
        ``b2``), and the standard error is ``std(u) / √Δ``.  Used by the
        Δ-adaptive budget of Algorithm 1 as a *stopping heuristic* (the
        normal approximation is asymptotic); the reproducibility guarantee —
        a run stopping at ``Δ_s`` is bit-identical to a fixed-``Δ_s`` run —
        never depends on its calibration.

        Returns
        -------
        (estimate, low, high):
            The point estimate ``b1(s) + b2(s)`` and the two-sided interval
            (clamped below at 0).
        """
        self._require_valid_support(s)
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")
        if self._profiles.size == 0:
            return 0.0, 0.0, 0.0
        from statistics import NormalDist

        delta = self.num_datasets
        indicator = self._profiles >= s
        probabilities = indicator.sum(axis=1) / delta

        left, right = self._overlapping_pair_indices()
        gradient = 2.0 * probabilities.copy()
        joint_per_dataset = np.zeros(delta, dtype=np.float64)
        if left.size:
            alive = probabilities > 0.0
            keep = alive[left] & alive[right]
            left_kept = left[keep]
            right_kept = right[keep]
            np.add.at(gradient, left_kept, 2.0 * probabilities[right_kept])
            np.add.at(gradient, right_kept, 2.0 * probabilities[left_kept])
            chunk = 200_000
            for start in range(0, left_kept.size, chunk):
                stop = start + chunk
                joint_per_dataset += 2.0 * (
                    indicator[left_kept[start:stop]] & indicator[right_kept[start:stop]]
                ).sum(axis=0)
        b2 = float(joint_per_dataset.mean())
        b1 = float(np.dot(probabilities, probabilities))
        if left.size:
            b1 += 2.0 * float(np.dot(probabilities[left_kept], probabilities[right_kept]))

        # Σ_X q_X Z_{X,d}, chunked over W to bound the bool -> float upcast.
        linear = np.zeros(delta, dtype=np.float64)
        row_chunk = max(1, 8_000_000 // max(delta, 1))
        for start in range(0, indicator.shape[0], row_chunk):
            stop = start + row_chunk
            linear += gradient[start:stop] @ indicator[start:stop].astype(np.float64)
        influence = linear + joint_per_dataset
        estimate = b1 + b2
        if delta < 2:
            return estimate, 0.0, float("inf")
        standard_error = float(influence.std(ddof=1)) / math.sqrt(delta)
        z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
        return (
            estimate,
            max(0.0, estimate - z * standard_error),
            estimate + z * standard_error,
        )

    def candidate_supports(self, low: int, high: Optional[int] = None) -> list[int]:
        """Distinct support values where the empirical bounds can change.

        The empirical ``b1``/``b2`` are step functions of ``s`` that only
        change at observed support values ``+ 1``; this returns those
        breakpoints within ``[low, high]`` plus the endpoints, sorted.
        """
        low = max(low, self.mining_support)
        if high is None:
            high = self._max_observed_support + 1
        values: set[int] = {low, high}
        if self._profiles.size:
            for support in _sorted_unique(self._profiles.ravel()):
                support = int(support)
                if support <= 0:
                    continue
                for breakpoint in (support, support + 1):
                    if low <= breakpoint <= high:
                        values.add(breakpoint)
        return sorted(values)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Everything needed to answer queries, as plain metadata + arrays.

        The returned dict has JSON-compatible scalar entries plus two NumPy
        arrays (``"itemsets"``: the union ``W`` as an ``(|W|, k)`` int64
        item-id matrix; ``"profiles"``: the ``(|W|, Δ)`` support-profile
        matrix).  :meth:`from_state` inverts it without re-running the
        Monte-Carlo collection, which is what makes Engine artifact stores
        resumable across processes.  Only estimators over integer item
        identifiers can be exported (always true for datasets read through
        :mod:`repro.data`).
        """
        if self._itemsets:
            itemsets = np.asarray(self._itemsets, dtype=np.int64)
        else:
            itemsets = np.empty((0, self.k), dtype=np.int64)
        kind = getattr(self.model, "kind", None)
        if kind is None:
            # A model-less estimator (from_state without reattachment) still
            # carries the original null family in self.kind; falling back to
            # "bernoulli" here would mislabel re-saved swap artifacts.
            kind = getattr(self, "kind", "bernoulli")
        # The swap null's random stream depends on which walk produced it
        # (packed vs python); record the stream tag so stores can refuse to
        # replay an artifact under the wrong walk.  None for walk-less nulls.
        walk_version = getattr(self.model, "walk_version", None)
        if walk_version is None:
            walk_version = getattr(self, "walk_version", None)
        return {
            "version": ESTIMATOR_STATE_VERSION,
            "k": self.k,
            "num_datasets": self.num_datasets,
            "delta_requested": self._delta_requested,
            "delta_spent": self.num_datasets,
            "mining_support": self.mining_support,
            "max_union_size": self.max_union_size,
            "backend": self.backend,
            "truncated": bool(getattr(self, "truncated", False)),
            "degraded": bool(getattr(self, "degraded", False)),
            "max_observed_support": self._max_observed_support,
            "kind": str(kind),
            "walk_version": walk_version,
            "itemsets": itemsets,
            "profiles": self._profiles,
        }

    @classmethod
    def from_state(
        cls, state: dict, model: Optional[NullModel] = None
    ) -> "MonteCarloNullEstimator":
        """Rebuild an estimator from :meth:`state_dict` output — no sampling.

        Parameters
        ----------
        state:
            A dict produced by :meth:`state_dict` (arrays may arrive as the
            lazily loaded members of an ``npz`` file).
        model:
            Optional live null model to reattach.  All per-support queries
            (``lambda_at``, ``chen_stein_estimates``, ``empirical_pvalue``)
            work without one; attaching the model restores the full interface
            (e.g. ``max_expected_support`` and the ``model.kind`` introspection
            used by the procedures).
        """
        version = int(state.get("version", 1))
        if version != ESTIMATOR_STATE_VERSION:
            raise ValueError(
                f"unsupported estimator state version {version} (this build "
                f"reads version {ESTIMATOR_STATE_VERSION}); re-run the "
                "simulation instead of loading the stale artifact"
            )
        self = cls.__new__(cls)
        self.model = model
        self.k = int(state["k"])
        self.num_datasets = int(state["num_datasets"])
        self._delta_requested = int(state.get("delta_requested", state["num_datasets"]))
        self.mining_support = int(state["mining_support"])
        self.max_union_size = int(state["max_union_size"])
        self.backend = str(state["backend"])
        self.n_jobs = 1
        self._executor_spec = None
        self._rng = np.random.default_rng()
        self._cancel = None
        self.truncated = bool(state["truncated"])
        self.degraded = bool(state.get("degraded", False))
        self._max_observed_support = int(state["max_observed_support"])
        itemsets = np.asarray(state["itemsets"], dtype=np.int64)
        self._itemsets = [tuple(row) for row in itemsets.tolist()]
        self._index_of = {
            itemset: position for position, itemset in enumerate(self._itemsets)
        }
        self._profiles = np.asarray(state["profiles"], dtype=np.int64)
        self._pair_indices = None
        if model is None:
            # Let callers that introspect the null family (Procedures 1/2)
            # still see the original kind even before a model is reattached.
            self.kind = str(state.get("kind", "bernoulli"))
            walk_version = state.get("walk_version")
            if walk_version is not None:
                self.walk_version = str(walk_version)
        return self


def analytic_lambda(
    model: Union[RandomDatasetModel, NullModel],
    k: int,
    s: int,
    max_items: int = 60,
) -> float:
    """Truncated analytic estimate of ``λ(s) = E[Q̂_{k,s}]`` (Bernoulli null).

    ``λ(s) = Σ_X Pr(Bin(t, f_X) >= s)`` over all ``C(n, k)`` itemsets; the sum
    is dominated by itemsets built from the highest-frequency items when ``s``
    is in the high-support region, so we enumerate only the k-subsets of the
    ``max_items`` most frequent items.  The result is therefore a *lower*
    bound that converges to ``λ(s)`` as ``max_items`` grows; it is used for
    cross-validating the Monte-Carlo estimator, not inside the procedures.
    It only applies to the Bernoulli null (the swap null has no closed-form
    itemset marginals).

    Parameters
    ----------
    model:
        The null model (a :class:`~repro.data.random_model.RandomDatasetModel`
        or a Bernoulli :class:`~repro.core.null_models.NullModel` exposing
        ``frequencies``).
    k:
        Itemset size.
    s:
        Support threshold.
    max_items:
        How many of the most frequent items to enumerate over (the number of
        enumerated itemsets is ``C(max_items, k)``).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if s < 0:
        raise ValueError("s must be non-negative")
    frequencies = model.frequencies
    if len(frequencies) < k:
        return 0.0
    top = nlargest(max_items, frequencies.items(), key=lambda pair: pair[1])
    t = model.num_transactions
    total = 0.0
    for combo in combinations(top, k):
        probability = math.prod(freq for _, freq in combo)
        total += binomial_sf(s, t, probability)
    return total
