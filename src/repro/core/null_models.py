"""Pluggable null models for the significance machinery.

The paper defines its significance guarantees against the *Bernoulli*
(independent-items) null: random datasets with the observed item frequencies,
items placed independently (Section 1.1).  It also notes that the technique
"could conceivably be adapted" to the margin-preserving null of Gionis et
al., in which random datasets preserve the exact row *and* column margins of
the observed matrix and are sampled by swap randomisation.

This module is that adaptation point.  Every Monte-Carlo consumer of the
methodology — :class:`~repro.core.lambda_estimation.MonteCarloNullEstimator`,
Algorithm 1 (:func:`~repro.core.poisson_threshold.find_poisson_threshold`),
Procedures 1 and 2, the :class:`~repro.core.miner.SignificantItemsetMiner`
facade and the CLI — draws its Δ random datasets through the
:class:`NullModel` interface instead of a hard-wired
:class:`~repro.data.random_model.RandomDatasetModel`.  Two implementations
ship:

* :class:`BernoulliNull` — the paper's null, a thin wrapper around
  :class:`~repro.data.random_model.RandomDatasetModel` (and the default
  everywhere, so existing behaviour is unchanged);
* :class:`SwapRandomizationNull` — the Gionis et al. null: each draw is a
  swap-randomised copy of the *observed* dataset, produced by the packed
  walk of :mod:`repro.data.swap` (directly in bitmap form for the NumPy
  backend, so Δ margin-preserving datasets cost about the same as Δ
  Bernoulli ones).

Select a model by name (``null_model="bernoulli" | "swap"`` on the
procedures, :class:`~repro.core.miner.MinerConfig`, or ``--null-model`` on
the CLI), or pass any object satisfying :class:`NullModel` for a custom
null.  :func:`as_null_model` performs the resolution.

Statistical caveat
------------------
The Chen–Stein/Poisson theory backing the ``s_min`` threshold (Theorems 1–4)
is *proved* for the Bernoulli null.  Under the swap null the same Monte-Carlo
machinery runs unchanged and the empirical ``b1 + b2 <= ε/4`` criterion is
still evaluated — on swap-randomised draws — but the approximation guarantee
is heuristic rather than proved.  Procedure 1 under a non-Bernoulli null
replaces its closed-form Binomial p-values with Monte-Carlo empirical
p-values ``(1 + #exceedances) / (1 + Δ)``, whose resolution is limited by the
Monte-Carlo budget Δ.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Optional,
    Protocol,
    Sequence,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.data.dataset import TransactionDataset
from repro.data.random_model import RandomDatasetModel
from repro.data.swap import (
    WALK_VERSIONS,
    chains_per_pass,
    resolve_walk,
    transaction_bitsets,
    walk_to_packed,
    walk_to_transactions,
    walks_to_packed,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import (cycle guard)
    from repro.fim.bitmap import PackedIndex

__all__ = [
    "NULL_MODEL_NAMES",
    "BernoulliNull",
    "NullModel",
    "SwapRandomizationNull",
    "as_null_model",
    "null_model_kind",
]

#: Null models selectable by name.
NULL_MODEL_NAMES = ("bernoulli", "swap")


@runtime_checkable
class NullModel(Protocol):
    """What the Monte-Carlo machinery needs from a null model.

    Any object with these members can be passed wherever a ``null_model`` is
    accepted; the two shipped implementations are :class:`BernoulliNull` and
    :class:`SwapRandomizationNull`.  Implementations must be picklable when
    ``n_jobs > 1`` (each Δ draw may be shipped to a worker process).
    """

    @property
    def kind(self) -> str:
        """Short name of the null family (e.g. ``"bernoulli"``, ``"swap"``)."""

    @property
    def items(self) -> tuple[int, ...]:
        """Sorted item universe shared by every sampled dataset."""

    @property
    def num_items(self) -> int:
        """Number of items ``n``."""

    @property
    def num_transactions(self) -> int:
        """Number of transactions ``t`` of every sampled dataset."""

    @property
    def name(self) -> Optional[str]:
        """Optional display name."""

    def max_expected_support(self, k: int) -> float:
        """Largest expected support of any k-itemset (``s̃`` of Algorithm 1)."""

    def sample(
        self, rng: Optional[Union[int, np.random.Generator]] = None
    ) -> TransactionDataset:
        """Draw one random dataset (used by the pure-Python backend)."""

    def sample_packed(
        self, rng: Optional[Union[int, np.random.Generator]] = None
    ) -> "PackedIndex":
        """Draw one random dataset in packed-bitmap form (NumPy backend)."""


class BernoulliNull:
    """The paper's independent-items null, as a :class:`NullModel`.

    Wraps a :class:`~repro.data.random_model.RandomDatasetModel` (the object
    that knows the frequencies and how to sample) and exposes the uniform
    null-model interface.  Attribute access falls through to the wrapped
    model, so analytic helpers such as
    :meth:`~repro.data.random_model.RandomDatasetModel.itemset_probability`
    remain reachable.

    Parameters
    ----------
    model:
        The random-dataset model defining the null.
    """

    kind = "bernoulli"

    def __init__(self, model: RandomDatasetModel) -> None:
        self.model = model

    @classmethod
    def from_dataset(cls, dataset: TransactionDataset) -> "BernoulliNull":
        """Null model matching a real dataset (same ``t``, same frequencies)."""
        return cls(RandomDatasetModel.from_dataset(dataset))

    @property
    def items(self) -> tuple[int, ...]:
        """Sorted item universe."""
        return self.model.items

    @property
    def num_items(self) -> int:
        """Number of items ``n``."""
        return self.model.num_items

    @property
    def num_transactions(self) -> int:
        """Number of transactions ``t``."""
        return self.model.num_transactions

    @property
    def name(self) -> Optional[str]:
        """Model name, if any."""
        return self.model.name

    def max_expected_support(self, k: int) -> float:
        """``t`` times the product of the ``k`` largest item frequencies."""
        return self.model.max_expected_support(k)

    def sample(
        self, rng: Optional[Union[int, np.random.Generator]] = None
    ) -> TransactionDataset:
        """One Bernoulli draw as a :class:`TransactionDataset`."""
        return self.model.sample(rng)

    def sample_packed(
        self, rng: Optional[Union[int, np.random.Generator]] = None
    ) -> "PackedIndex":
        """One Bernoulli draw directly in packed-bitmap form."""
        return self.model.sample_packed(rng)

    def __getattr__(self, attribute: str):
        # Fall through to the wrapped RandomDatasetModel for its analytic
        # helpers; dunder lookups must fail normally or pickling breaks.
        if attribute.startswith("_"):
            raise AttributeError(attribute)
        return getattr(self.model, attribute)

    def __repr__(self) -> str:
        return f"BernoulliNull({self.model!r})"


class SwapRandomizationNull:
    """The margin-preserving null of Gionis et al., as a :class:`NullModel`.

    Each draw is a swap-randomised copy of the *observed* dataset: the exact
    transaction lengths and item supports are preserved, only the
    co-occurrence structure is destroyed.  The observed dataset is packed
    into transaction-major bitsets once at construction; every draw then
    costs one walk of ``num_swaps`` attempted swaps plus one transpose into
    the requested representation.

    Parameters
    ----------
    dataset:
        The observed dataset whose margins define the null.
    num_swaps:
        Attempted swaps per draw; defaults to five times the number of item
        occurrences (the usual mixing heuristic).
    walk:
        Walk implementation: ``"packed"`` (vectorized over the ``uint64``
        matrix, the default) or ``"python"`` (int bitsets); ``None`` defers
        to the ``REPRO_SWAP_WALK`` environment variable.  Both walks sample
        the same margin class, but their random streams differ, so the
        resolved walk is part of the model's cache identity
        (:attr:`walk_version`).
    """

    kind = "swap"

    def __init__(
        self,
        dataset: TransactionDataset,
        num_swaps: Optional[int] = None,
        walk: Optional[str] = None,
    ) -> None:
        if num_swaps is not None and num_swaps < 0:
            raise ValueError("num_swaps must be non-negative")
        self.dataset = dataset
        self.num_swaps = num_swaps
        self.walk = resolve_walk(walk)
        self._rows: Optional[list[int]] = transaction_bitsets(dataset)
        self._matrix = None  # packed (t, ceil(n/64)) observed matrix, lazy
        self._items = dataset.items
        self._num_transactions = dataset.num_transactions
        # Resolved walk length (the `5 x occurrences` mixing heuristic when
        # num_swaps is None), fixed here so draws are identical whether the
        # model samples in-process or from a shared-memory reconstruction.
        occurrences = sum(row.bit_count() for row in self._rows)
        self._effective_num_swaps = (
            num_swaps if num_swaps is not None else 5 * occurrences
        )
        self._name = f"swap({dataset.name})" if dataset.name else None
        # The independence approximation used only to seed Algorithm 1's
        # starting support s̃; margins match the observed dataset exactly.
        self._frequency_model = RandomDatasetModel.from_dataset(dataset)

    @classmethod
    def _from_parts(
        cls,
        rows: Optional[list[int]],
        items: tuple[int, ...],
        num_transactions: int,
        effective_num_swaps: int,
        num_swaps: Optional[int],
        name: Optional[str],
        walk: str = "packed",
        matrix=None,
    ) -> "SwapRandomizationNull":
        """Rebuild a sampling-capable model from its exported parts.

        Used by the zero-copy process executor: workers receive the observed
        transaction/item matrix through shared memory (see
        :mod:`repro.parallel.shm`) and reconstruct a model that draws
        *identically* to the original — same walk, same RNG stream.  Either
        representation of the observed matrix (int bitsets or the packed
        ``uint64`` matrix) is accepted; the missing one is derived lazily.
        The rebuilt model has no :class:`TransactionDataset` attached, so only
        the sampling surface works (``max_expected_support`` needs the
        parent's full model and raises).
        """
        if rows is None and matrix is None:
            raise ValueError("need rows or matrix to rebuild a swap null")
        self = cls.__new__(cls)
        self.dataset = None
        self.num_swaps = num_swaps
        self.walk = resolve_walk(walk)
        self._rows = rows
        self._matrix = matrix
        self._items = tuple(items)
        self._num_transactions = int(num_transactions)
        self._effective_num_swaps = int(effective_num_swaps)
        self._name = name
        self._frequency_model = None
        return self

    @property
    def walk_version(self) -> str:
        """Stream-identity tag of the resolved walk (cache-key fragment)."""
        return WALK_VERSIONS[self.walk]

    def _walk_base(self):
        """The observed matrix in the representation the resolved walk wants.

        The packed walk consumes the ``uint64`` matrix (packed once, cached);
        the python walk consumes the int bitsets.  Whichever representation
        arrived first (constructor or shared-memory import) seeds the other.
        """
        if self.walk == "packed":
            if self._matrix is None:
                from repro.fim.bitmap import pack_int_bitsets

                self._matrix = pack_int_bitsets(self._rows, len(self._items))
            return self._matrix
        if self._rows is None:
            from repro.fim.bitmap import unpack_int_bitsets

            self._rows = unpack_int_bitsets(self._matrix)
        return self._rows

    @property
    def items(self) -> tuple[int, ...]:
        """Sorted item universe (identical to the observed dataset's)."""
        return self._items

    @property
    def num_items(self) -> int:
        """Number of items ``n``."""
        return len(self._items)

    @property
    def num_transactions(self) -> int:
        """Number of transactions ``t`` (identical in every draw)."""
        return self._num_transactions

    @property
    def name(self) -> Optional[str]:
        """``"swap(<dataset name>)"`` when the dataset is named."""
        return self._name

    def max_expected_support(self, k: int) -> float:
        """Independence-based starting support for Algorithm 1.

        Under the swap null the expected k-itemset supports have no closed
        form; the Bernoulli value ``t · Π f_i`` over the top-k frequencies is
        a good starting point for the halving search (Algorithm 1 only uses
        it as the initial ``s̃``, never in the significance statement).
        """
        if self._frequency_model is None:
            raise RuntimeError(
                "this SwapRandomizationNull was rebuilt from shared-memory "
                "parts and only supports sampling; max_expected_support "
                "requires the original model"
            )
        return self._frequency_model.max_expected_support(k)

    def sample(
        self, rng: Optional[Union[int, np.random.Generator]] = None
    ) -> TransactionDataset:
        """One swap-randomised copy as a :class:`TransactionDataset`."""
        generator = (
            rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        )
        return walk_to_transactions(
            self._walk_base(),
            self._items,
            self._effective_num_swaps,
            generator,
            name=self._name,
            walk=self.walk,
        )

    def sample_packed(
        self, rng: Optional[Union[int, np.random.Generator]] = None
    ) -> "PackedIndex":
        """One swap-randomised copy directly in packed-bitmap form."""
        generator = (
            rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        )
        return walk_to_packed(
            self._walk_base(),
            self._items,
            self._num_transactions,
            self._effective_num_swaps,
            generator,
            name=self._name,
            walk=self.walk,
        )

    @property
    def block_draws(self) -> int:
        """Most draws :meth:`sample_packed_block` walks to advantage in one pass.

        Under the packed walk, :func:`~repro.data.swap.chains_per_pass` of the
        observed matrix: small matrices, whose single chains walk narrow
        rounds, get blocks; large ones already walk wide rounds and get 1.
        The python walk gains nothing from blocks: 1.  The Monte-Carlo
        estimator hands each executor task a block of at most this many
        draws.
        """
        if self.walk != "packed":
            return 1
        return chains_per_pass(self._walk_base())

    def sample_packed_block(
        self, rngs: Sequence[np.random.Generator]
    ) -> list["PackedIndex"]:
        """One swap-randomised copy per generator, in packed-bitmap form.

        Draw ``i`` is bit-identical to ``sample_packed(rngs[i])``.  Under the
        packed walk the block's chains are walked together in one pass
        (:func:`~repro.data.swap.walks_to_packed`), whose wider NumPy calls
        let threads overlap blocks of draws.
        """
        if self.walk != "packed":
            return [self.sample_packed(rng) for rng in rngs]
        return walks_to_packed(
            self._walk_base(),
            self._items,
            self._num_transactions,
            self._effective_num_swaps,
            rngs,
            name=self._name,
        )

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<SwapRandomizationNull{label}: t={self.num_transactions}, "
            f"n={self.num_items}, walk={self.walk}>"
        )


def null_model_kind(
    null_model: Union[str, NullModel, RandomDatasetModel, None]
) -> str:
    """The null-family name of a specification, without building a model.

    Cheap companion to :func:`as_null_model` for callers that only need to
    *branch* on the null family (e.g. Procedure 1 choosing between
    closed-form and empirical p-values) and must not pay the O(dataset)
    model construction on the default path.

    Parameters
    ----------
    null_model:
        Anything :func:`as_null_model` accepts.

    Returns
    -------
    str
        ``"bernoulli"``, ``"swap"``, or a custom model's ``kind``.

    Raises
    ------
    ValueError
        On an unknown name.
    """
    if null_model is None:
        return "bernoulli"
    if isinstance(null_model, str):
        spec = null_model.strip().lower()
        if spec not in NULL_MODEL_NAMES:
            raise ValueError(
                f"unknown null model {null_model!r}; expected one of "
                f"{', '.join(NULL_MODEL_NAMES)} (or a NullModel instance)"
            )
        return spec
    if isinstance(null_model, RandomDatasetModel):
        return "bernoulli"
    return getattr(null_model, "kind", "bernoulli")


def as_null_model(
    null_model: Union[str, NullModel, RandomDatasetModel, None],
    source: Union[TransactionDataset, RandomDatasetModel, NullModel, None] = None,
) -> NullModel:
    """Resolve a null-model specification into a :class:`NullModel`.

    Parameters
    ----------
    null_model:
        ``None`` or ``"bernoulli"`` for the paper's independent-items null,
        ``"swap"`` for the margin-preserving swap-randomisation null, a
        :class:`~repro.data.random_model.RandomDatasetModel` (wrapped in a
        :class:`BernoulliNull`), or any ready-made :class:`NullModel`
        instance (returned unchanged).
    source:
        The observed dataset (or a pre-built model) the null should match.
        Required when ``null_model`` is a name: ``"bernoulli"`` accepts a
        dataset or a :class:`RandomDatasetModel`; ``"swap"`` requires the
        actual :class:`~repro.data.dataset.TransactionDataset` because its
        draws are permutations of the observed matrix.

    Returns
    -------
    NullModel
        The resolved model.

    Raises
    ------
    ValueError
        On an unknown name, or when ``"swap"`` is requested without an
        observed dataset to randomise.
    """
    if isinstance(null_model, str):
        spec = null_model.strip().lower()
        if spec not in NULL_MODEL_NAMES:
            raise ValueError(
                f"unknown null model {null_model!r}; expected one of "
                f"{', '.join(NULL_MODEL_NAMES)} (or a NullModel instance)"
            )
        if spec == "swap":
            if isinstance(source, SwapRandomizationNull):
                return source
            if not isinstance(source, TransactionDataset):
                raise ValueError(
                    "null_model='swap' requires the observed TransactionDataset "
                    "(its draws are swap-randomised copies of the real data); "
                    f"got {type(source).__name__}"
                )
            return SwapRandomizationNull(source)
        null_model = None  # "bernoulli": resolve from the source below.
    if null_model is None:
        if isinstance(source, TransactionDataset):
            return BernoulliNull.from_dataset(source)
        if isinstance(source, RandomDatasetModel):
            return BernoulliNull(source)
        if source is not None and isinstance(source, NullModel):
            return source
        raise ValueError(
            "cannot build a null model: provide a dataset, a "
            "RandomDatasetModel, or a NullModel instance"
        )
    if isinstance(null_model, RandomDatasetModel):
        return BernoulliNull(null_model)
    if isinstance(null_model, NullModel):
        return null_model
    raise ValueError(
        f"cannot interpret {type(null_model).__name__} as a null model"
    )
