"""Swap randomisation: the margin-preserving null model of Gionis et al.

The paper's null model (Section 1.1) keeps item frequencies but lets
transaction lengths vary.  An alternative null model, proposed by Gionis,
Mannila, Mielikäinen and Tsaparas ("Assessing data mining results via swap
randomization", KDD 2006) and mentioned in the paper's Section 1.1, keeps both
the exact item frequencies *and* the exact transaction lengths by performing
random swaps on the binary transaction/item matrix.

A *swap* picks two transactions ``u`` and ``v`` and two items ``a`` and ``b``
such that ``a ∈ u``, ``a ∉ v``, ``b ∈ v``, ``b ∉ u``, and exchanges them
(``a`` moves to ``v``, ``b`` moves to ``u``).  Row and column margins are
invariant under swaps, and a long enough random walk over swaps approximately
samples uniformly from the set of matrices with those margins.

Walk implementations
--------------------
Two interchangeable walks run the chain; both preserve the margins exactly
and both are deterministic per seed, but they consume the random stream
differently, so the same seed yields *different* (equally valid) members of
the margin class.  Select one with the ``walk=`` argument on every entry
point, the ``REPRO_SWAP_WALK`` environment variable (``packed`` or
``python``), or accept the default (``packed``):

* ``packed`` (default) — :func:`_run_swap_walk_packed`: the walk state is the
  2-D ``uint64`` transaction/item matrix (rows of ``W = ceil(num_items/64)``
  words, the :func:`~repro.fim.bitmap.pack_int_bitsets` /
  :class:`~repro.fim.bitmap.PackedIndex` layout).  Swap proposals are drawn
  in bulk up front and processed in NumPy chunks: one vectorized
  AND/popcount sweep screens a whole chunk (``only_u = row_u & ~row_v``),
  item bits are selected by rank with a byte-level lookup table from
  *integer* draws (``draw mod count`` of a 64-bit variate — no
  ``float * count`` rounding, see :func:`_select_set_bits`), and accepted
  swaps are applied with conflict-aware replay: the longest prefix of the
  chunk whose transactions are untouched by an earlier accepted swap of the
  same chunk is applied in one shot, and the remainder is re-screened
  against the updated matrix.  The executed chain is therefore *exactly*
  the sequential chain over the same proposal stream — chunking changes the
  wall-clock, never the statistics.  One pass walks a *block* of
  independent chains (:func:`walks_to_packed`; a single draw is the
  one-chain block): the chains' proposals are interleaved over a stacked
  copy of the matrix, so each round decides proposals of every chain and
  its NumPy calls run on arrays the block size times wider.  That width is
  what lets the ``thread`` executor of :mod:`repro.parallel` overlap swap
  draws: one chain's rounds decide only a few hundred proposals each, where
  Python dispatch holds the GIL and NumPy releases it only for loops over
  about 500 elements, so :class:`~repro.core.lambda_estimation.MonteCarloNullEstimator`
  hands each executor task a block of draws.
* ``python`` — :func:`_run_swap_walk`: the original walk over
  arbitrary-precision ``int`` bitsets, kept as the reference implementation
  and for hosts where NumPy is a liability.

Because the two walks define different random streams, every cached product
of a walk is tagged with a *walk version* (:func:`walk_version`,
``packed-v1`` / ``python-v1``): the Engine bakes it into swap-null artifact
keys and the Monte-Carlo estimator records it in ``state_dict``, so stored
artifacts from one walk can never be replayed as the other's.

Two entry points share the walk:

* :func:`swap_randomize` returns a :class:`~repro.data.dataset.TransactionDataset`;
* :func:`swap_randomize_packed` returns a
  :class:`~repro.fim.bitmap.PackedIndex` directly, skipping the Python
  transaction lists entirely — this is what lets
  :class:`~repro.core.null_models.SwapRandomizationNull` feed the vectorized
  NumPy counting kernels with Δ margin-preserving datasets at the same
  per-dataset cost as the Bernoulli null.

Walking a block changes no draw: each chain consumes its own generator
exactly as a single walk would, so chain ``i`` of a block is bit-identical
to a one-chain walk on the same generator, and the ``packed-v1`` stream
holds for every block size.

The paper notes that its technique "could conceivably be adapted" to this
model; :mod:`repro.core.null_models` provides exactly that adaptation for
Algorithm 1 and Procedures 1/2 (see also ``examples/null_model_robustness.py``).
"""

from __future__ import annotations

import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from repro.data.dataset import TransactionDataset

if TYPE_CHECKING:  # pragma: no cover - type-only import (cycle guard)
    from repro.fim.bitmap import PackedIndex

__all__ = [
    "WALK_ENV_VAR",
    "WALK_NAMES",
    "resolve_walk",
    "swap_randomize",
    "swap_randomize_packed",
    "walk_to_packed",
    "walk_to_transactions",
    "walk_version",
    "walks_to_packed",
]

#: Environment variable overriding the default swap-walk implementation.
WALK_ENV_VAR = "REPRO_SWAP_WALK"

#: Walk implementations selectable by name.
WALK_NAMES = ("packed", "python")

#: Stream-identity tag of each walk.  Bumped whenever a walk's RNG
#: consumption or proposal semantics change: the tag participates in Engine
#: artifact keys and estimator state, so caches from an older stream read as
#: misses instead of being silently replayed.
WALK_VERSIONS = {"packed": "packed-v1", "python": "python-v1"}

#: Transaction-major walk state: a list of Python ``int`` bitsets or the
#: packed ``(num_transactions, ceil(num_items/64))`` ``uint64`` matrix.
WalkRows = Union[Sequence[int], np.ndarray]


def resolve_walk(walk: Optional[str] = None) -> str:
    """Resolve which swap-walk implementation to use.

    Precedence: the explicit ``walk`` argument, then the ``REPRO_SWAP_WALK``
    environment variable, then the default (``packed``).  ``auto`` (or an
    empty string) means "use the default".
    """
    value = walk if walk is not None else os.environ.get(WALK_ENV_VAR, "")
    value = value.strip().lower()
    if value in ("", "auto"):
        return "packed"
    if value not in WALK_NAMES:
        raise ValueError(
            f"unknown swap walk {value!r}; expected one of "
            f"{', '.join(WALK_NAMES)} (or 'auto')"
        )
    return value


def walk_version(walk: Optional[str] = None) -> str:
    """The stream-identity tag of a walk specification (cache-key fragment)."""
    return WALK_VERSIONS[resolve_walk(walk)]


def transaction_bitsets(dataset: TransactionDataset) -> list[int]:
    """Pack a dataset into transaction-major int bitsets of item *positions*.

    Bit ``p`` of entry ``tid`` is set iff transaction ``tid`` contains the
    ``p``-th item of the sorted item universe ``dataset.items``.  This is the
    representation the swap walk operates on;
    :class:`~repro.core.null_models.SwapRandomizationNull` caches it so the
    Δ-dataset Monte-Carlo loop packs the observed dataset only once.
    """
    position_of = {item: position for position, item in enumerate(dataset.items)}
    rows: list[int] = []
    for txn in dataset.transactions:
        bits = 0
        for item in txn:
            bits |= 1 << position_of[item]
        rows.append(bits)
    return rows


# ----------------------------------------------------------------------
# Python walk (reference implementation, int bitsets)
# ----------------------------------------------------------------------
def _run_swap_walk(
    rows: list[int], num_swaps: int, generator: np.random.Generator
) -> list[int]:
    """Run the swap walk on a copy of ``rows`` and return the shuffled copy."""
    rows = list(rows)
    # Transactions with no items can never participate in a swap.
    eligible = [tid for tid, row in enumerate(rows) if row]
    if len(eligible) < 2 or num_swaps <= 0:
        return rows
    # Precomputed candidate arrays: the transaction pair of every attempted
    # swap and the uniform variates that select one item out of each
    # difference bitset — three bulk RNG calls for the whole walk.
    eligible_arr = np.array(eligible, dtype=np.int64)
    u_choices = generator.choice(eligible_arr, size=num_swaps)
    v_choices = generator.choice(eligible_arr, size=num_swaps)
    picks = generator.random((num_swaps, 2))
    for index in range(num_swaps):
        u = int(u_choices[index])
        v = int(v_choices[index])
        if u == v:
            continue
        row_u = rows[u]
        row_v = rows[v]
        only_u = row_u & ~row_v
        if not only_u:
            continue
        only_v = row_v & ~row_u
        if not only_v:
            continue
        a_bit = _nth_set_bit(only_u, _uniform_index(picks[index, 0], only_u))
        b_bit = _nth_set_bit(only_v, _uniform_index(picks[index, 1], only_v))
        rows[u] = (row_u ^ a_bit) | b_bit
        rows[v] = (row_v ^ b_bit) | a_bit
    return rows


# ----------------------------------------------------------------------
# Packed walk (vectorized chunks over the uint64 matrix)
# ----------------------------------------------------------------------
#: ``_SELECT_LUT[byte, j]`` is the position (0..7) of the ``j``-th set bit of
#: ``byte`` (lowest first); unused entries stay 0 and are never read because
#: ranks are always reduced below the byte's population count first.
_SELECT_LUT = np.zeros((256, 8), dtype=np.uint8)
for _byte in range(256):
    for _j, _p in enumerate(p for p in range(8) if _byte >> p & 1):
        _SELECT_LUT[_byte, _j] = _p
del _byte

#: Chunk-size bounds of the packed walk's adaptive proposal batching.  The
#: chunk tracks the measured per-round throughput (dense tiny matrices defer
#: often and shrink it; large sparse ones grow it), so the result never
#: depends on these values — only the wall-clock does.
_MIN_CHUNK = 32
_MAX_CHUNK = 65536

#: Byte budget of the stacked matrix of one packed pass (about a per-core L2
#: cache).  A block of chains pays only while one chain's rounds are narrow,
#: which is on small matrices; past the cache, every round's row gathers
#: slow down.  Measured serially on a 2 MiB-L2 Xeon: six stacked copies of
#: the 1.9 MB bms1@0.5 matrix cost ~45% more per chain than one, six of
#: the 0.3 MB bms1 matrix ~12% less.
_BLOCK_BYTES = 2 << 20


def chains_per_pass(matrix: np.ndarray) -> int:
    """Most chains one pass of the packed walk should walk over ``matrix``.

    As many stacked copies as fit in :data:`_BLOCK_BYTES`, at least one.
    Like the chunk bounds, this changes the wall-clock, never a draw.
    """
    return max(1, _BLOCK_BYTES // max(matrix.nbytes, 1))


def _word_bytes(words: np.ndarray) -> np.ndarray:
    """View a 1-D ``uint64`` array as its ``(M, 8)`` little-endian bytes."""
    contiguous = np.ascontiguousarray(words)
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts only
        contiguous = contiguous.byteswap()
    return contiguous.view(np.uint8).reshape(-1, 8)


#: Per-byte population counts for the byte stage of :func:`_select_set_bits`
#: (``int64`` so one gather yields accumulation-ready counts).
_BYTE_POPCOUNT_LOCAL = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.int64
)

#: ``_BIT_MASKS[p]`` is ``1 << p`` as ``uint64`` (table lookup beats a
#: vectorized shift-plus-cast pair on the small apply batches).
_BIT_MASKS = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


def _rank_in_columns(
    counts: np.ndarray, ranks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Which column holds each rank, and the rank rebased into that column.

    ``counts`` is ``(C, M)``: set bits in column ``c`` (a word, or a byte) of
    row ``i``; ``0 <= ranks[i] < counts[:, i].sum()``.  The chosen column is
    the number of columns whose inclusive prefix count is still ``<= rank``,
    and the exclusive prefix there rebases the rank.  The prefix is built
    by ``C - 1`` full-width adds over contiguous ``(M,)`` rows (``np.cumsum``
    along axis 0 runs its inner loop along the short axis and costs more);
    everything else is one whole-batch op.
    """
    columns, size = counts.shape
    before = np.empty_like(counts)  # before[c] = counts[:c].sum(axis=0)
    before[0] = 0
    for column in range(1, columns):
        np.add(before[column - 1], counts[column - 1], out=before[column])
    index = (before[1:] <= ranks).sum(axis=0)
    return index, ranks - before.ravel().take(index * size + np.arange(size))


def _select_set_bits(
    bitrows: np.ndarray,
    ranks: np.ndarray,
    word_counts: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Bit position of the ``ranks[i]``-th set bit of each packed row.

    ``bitrows`` is ``(M, W)`` ``uint64``; ``ranks`` is ``(M,)`` with
    ``0 <= ranks[i] < popcount(bitrows[i])``.  Ranks count set bits lowest
    first, exactly like the python walk's :func:`_nth_set_bit`.  The word
    and then the byte holding the rank are found by prefix scans over the
    transposed ``(W, M)`` / ``(8, M)`` count layouts
    (:func:`_rank_in_columns`) — the batches are wide and shallow, so
    whole-batch ops along contiguous rows beat ``(M, W)`` reductions along
    the tiny axis 1.  ``word_counts`` is the ``(W, M)`` popcount of
    ``bitrows.T`` when the caller has it already.
    """
    from repro.fim.bitmap import popcount_words

    count, num_words = bitrows.shape
    row_offsets = np.arange(count, dtype=np.int64)
    if num_words == 1:
        word_index = np.zeros(count, dtype=np.int64)
        rank_in_word = ranks
        words = bitrows[:, 0]
    else:
        if word_counts is None:
            word_counts = popcount_words(np.ascontiguousarray(bitrows.T))
        word_index, rank_in_word = _rank_in_columns(word_counts, ranks)
        words = bitrows.ravel().take(row_offsets * num_words + word_index)
    max_rank = int(rank_in_word.max()) if count else 0
    if max_rank <= 8:
        # Typical sparse-data case: ranks are tiny, so clearing the lowest
        # set bit `rank` times and isolating the survivor is cheaper than a
        # byte scan (rows past their rank subtract 0: a no-op).  ``log2`` is
        # exact on powers of two up to 2**63.
        remaining = words.copy()
        for step in range(max_rank):
            remaining &= remaining - (rank_in_word > step)
        isolated = remaining & (np.uint64(0) - remaining)
        bit_in_word = np.log2(isolated.astype(np.float64)).astype(np.int64)
        return word_index * 64 + bit_in_word
    word_bytes = _word_bytes(words)
    byte_index, rank_in_byte = _rank_in_columns(
        _BYTE_POPCOUNT_LOCAL[word_bytes.T], rank_in_word  # (8, M) counts
    )
    byte_values = word_bytes.ravel()[row_offsets * 8 + byte_index]
    bit = _SELECT_LUT[byte_values, rank_in_byte].astype(np.int64)
    return word_index * 64 + byte_index * 8 + bit


def _first_toucher_mask(pairs: np.ndarray, num_transactions: int) -> np.ndarray:
    """Which proposals of a round are safe to decide from one screening.

    ``pairs`` holds the ``(u, v)`` rows of the round's proposals, in order.
    A proposal's precomputed screening (and item selection) is valid iff
    neither of its transactions can have been modified by an earlier
    proposal of the same round — pessimistically, iff the proposal is the
    *first* to touch both of its rows (a self-pair ``u == v`` counts as
    touching its row, though it never modifies it: deferring behind it is
    merely cautious).  Everything else is deferred, in order, and
    re-screened against the updated matrix next round.

    This keeps the executed chain exactly sequential: decided proposals see
    their rows in the sequential state (nothing earlier touched them), the
    accepted ones touch pairwise-disjoint rows (alias-free application), and
    every applied swap commutes with the deferred proposals it overtakes
    (disjoint rows again), so re-screening the deferred suffix later yields
    the same matrices the one-at-a-time chain would have produced.
    """
    size = len(pairs)
    positions = np.arange(size, dtype=np.int64)
    first_touch = np.full(num_transactions, size, dtype=np.int64)
    np.minimum.at(first_touch, pairs.ravel(), positions.repeat(2))
    touched = first_touch.take(pairs)
    return np.minimum(touched[:, 0], touched[:, 1]) >= positions


def _run_swap_walk_packed(
    matrix: np.ndarray, num_swaps: int, generator: np.random.Generator
) -> np.ndarray:
    """Run the swap walk on a copy of the packed matrix and return the copy.

    The one-chain case of :func:`_run_swap_walks_packed`.
    """
    return _run_swap_walks_packed(matrix, num_swaps, (generator,))[0]


def _run_swap_walks_packed(
    matrix: np.ndarray,
    num_swaps: int,
    generators: Sequence[np.random.Generator],
) -> np.ndarray:
    """Run one independent swap walk per generator in a single round loop.

    ``matrix`` is the ``(num_transactions, ceil(num_items/64))`` ``uint64``
    transaction-major bit matrix (:func:`~repro.fim.bitmap.pack_int_bitsets`
    layout).  Returns the ``(len(generators),) + matrix.shape`` stack of
    walked copies, chain ``c`` at index ``c``.

    Each chain's random stream is three bulk draws from its own generator —
    the ``u`` picks, the ``v`` picks, and one ``(num_swaps, 2)`` block of
    64-bit integers for the item-rank selection — so the RNG consumption is
    a fixed function of ``num_swaps``.  The observed matrix is stacked once
    per chain, each chain's picks are offset to its own row block, and the
    chains' proposals are interleaved into one sequence.  Chains touch
    disjoint rows, so the first-toucher replay of that sequence runs each
    chain's own sequential chain: every chain's result is independent of
    chunking, replay and the other chains of the block, and walking B chains
    together gives, chain for chain, the matrices of B single-chain walks.
    What the block buys is width: every round decides proposals of all B
    chains, so its NumPy calls work on B times more elements for the same
    Python dispatch.

    Item ranks are ``draw mod count`` of a uniform 64-bit integer: exact
    integer arithmetic (no ``float * count`` rounding cliff at word
    boundaries), with a modulo bias below ``count / 2**64`` — unmeasurable
    for any real item universe.
    """
    from repro.fim.bitmap import popcount_rows, popcount_words

    base = np.ascontiguousarray(matrix, dtype=np.uint64)
    num_chains = len(generators)
    chain_rows, num_words = base.shape
    walked_shape = (num_chains,) + base.shape
    matrix = np.tile(base, (num_chains, 1))  # chain `c` owns rows c*t..(c+1)*t
    eligible = np.flatnonzero(popcount_rows(base) > 0)
    if eligible.size < 2 or num_swaps <= 0:
        return matrix.reshape(walked_shape)
    num_transactions = matrix.shape[0]
    words = matrix.reshape(-1)  # flat view: word `w` of row `r` at `r * W + w`
    # Proposal `j` of chain `c` sits at global index `j * num_chains + c`:
    # `pairs` holds its (u, v) rows, offset into chain `c`'s block of the
    # stacked matrix, and `rank_draws` its two item-rank variates.
    pairs = np.empty((num_swaps, num_chains, 2), dtype=np.int64)
    rank_draws = np.empty((num_swaps, num_chains, 2), dtype=np.uint64)
    for chain, generator in enumerate(generators):
        rows = eligible + chain * chain_rows
        for side in (0, 1):  # the u picks, then the v picks
            pairs[:, chain, side] = rows[
                generator.integers(0, eligible.size, size=num_swaps)
            ]
        rank_draws[:, chain] = generator.integers(
            0, 2**64, size=(num_swaps, 2), dtype=np.uint64
        )
    pairs = pairs.reshape(-1, 2)
    rank_draws = rank_draws.reshape(-1, 2)
    num_proposals = len(pairs)

    # Global proposal order is preserved across rounds: the deferred indices
    # of earlier rounds (all smaller than any fresh index) lead each round's
    # batch, so `indices` is always strictly increasing.
    pending = np.empty(0, dtype=np.int64)
    next_fresh = 0
    chunk = _MIN_CHUNK
    while pending.size or next_fresh < num_proposals:
        take = min(num_proposals - next_fresh, max(chunk - pending.size, 0))
        indices = np.concatenate(
            (pending, np.arange(next_fresh, next_fresh + take, dtype=np.int64))
        )
        next_fresh += take
        # Decidability is a pure function of the proposal rows, so the matrix
        # is only ever gathered and screened for decidable proposals —
        # deferred ones wait unscreened for the next round.
        batch = pairs.take(indices, axis=0)
        decidable = _first_toucher_mask(batch, num_transactions)
        pending = indices[~decidable]
        decided_indices = indices[decidable]
        decided = batch[decidable]  # (half, 2): the rows of each proposal
        half = len(decided)
        # Rows gathered pairwise (u0, v0, u1, v1, ...) with `take` (about
        # twice as fast as fancy indexing here, and GIL-free); reversing
        # each pair screens both directions in one AND-NOT:
        # `only[i] = (row_u & ~row_v, row_v & ~row_u)`.
        rows = matrix.take(decided.ravel(), axis=0).reshape(half, 2, num_words)
        only = (rows & ~rows[:, ::-1]).reshape(2 * half, num_words)
        # Popcount in the transposed (W, 2·half) layout, made contiguous:
        # the axis-0 reduction then runs along contiguous memory, and the
        # per-word counts feed the item selection below.
        word_counts = popcount_words(np.ascontiguousarray(only.T))
        counts = word_counts.sum(axis=0)
        # A self-pair's `only_u = row_u & ~row_u` is empty: never selected.
        selected = (np.minimum(counts[0::2], counts[1::2]) > 0).nonzero()[0]
        if selected.size:
            sides = (2 * selected[:, None] + (0, 1)).ravel()  # u, v of each
            draws = rank_draws.take(decided_indices[selected], axis=0).ravel()
            ranks = (draws % counts[sides].astype(np.uint64)).astype(np.int64)
            positions = _select_set_bits(
                only.take(sides, axis=0), ranks, word_counts.take(sides, axis=1)
            )
            # Each accepted row gives up its own chosen item and receives
            # its partner's: a leaves u and arrives in v, b the other way.
            # Accepted first-toucher rows are pairwise distinct, so every
            # flat word index below is unique within its statement: the
            # in-place fancy-indexed updates are alias-free.
            offsets = decided[selected] * num_words  # (accepted, 2)
            chosen = positions >> 6
            masks = _BIT_MASKS[positions & 63]
            words[offsets.ravel() + chosen] ^= masks  # leave
            words[offsets[:, ::-1].ravel() + chosen] |= masks  # arrive
        # Track the measured per-round throughput: grow while rounds decide
        # most of what they admit, shrink when deferrals dominate (tiny or
        # near-complete matrices), bounded so memory stays predictable.
        chunk = min(_MAX_CHUNK, max(_MIN_CHUNK, 2 * half))
    return matrix.reshape(walked_shape)


def _as_walk_matrix(base_rows: WalkRows, num_items: int) -> np.ndarray:
    """Coerce walk state to the packed matrix representation."""
    from repro.fim.bitmap import pack_int_bitsets

    if isinstance(base_rows, np.ndarray):
        return base_rows
    return pack_int_bitsets(list(base_rows), num_items)


def _as_walk_bitsets(base_rows: WalkRows) -> list[int]:
    """Coerce walk state to the int-bitset representation."""
    from repro.fim.bitmap import unpack_int_bitsets

    if isinstance(base_rows, np.ndarray):
        return unpack_int_bitsets(base_rows)
    return list(base_rows)


def _default_num_swaps(dataset: TransactionDataset) -> int:
    """Five times the number of item occurrences (the usual mixing heuristic)."""
    return 5 * sum(len(txn) for txn in dataset.transactions)


def swap_randomize(
    dataset: TransactionDataset,
    num_swaps: Optional[int] = None,
    rng: Optional[Union[int, np.random.Generator]] = None,
    name: Optional[str] = None,
    walk: Optional[str] = None,
) -> TransactionDataset:
    """Produce a swap-randomised copy of ``dataset``.

    Parameters
    ----------
    dataset:
        The dataset whose margins should be preserved.
    num_swaps:
        Number of *attempted* swaps.  Defaults to five times the total number
        of item occurrences, a common heuristic for approximate mixing.
    rng:
        Seed or :class:`numpy.random.Generator`.
    name:
        Name for the randomised dataset (defaults to ``"swap(<name>)"``).
    walk:
        Walk implementation: ``"packed"`` (vectorized, the default) or
        ``"python"`` (int bitsets); ``None`` defers to ``REPRO_SWAP_WALK``.
        The walks consume the random stream differently, so the same seed
        produces different (equally margin-preserving) outputs per walk.

    Returns
    -------
    TransactionDataset
        A dataset with exactly the same transaction lengths and item supports
        as the input, but with co-occurrence structure destroyed.
    """
    generator = (
        rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    )
    items = dataset.items
    if num_swaps is None:
        num_swaps = _default_num_swaps(dataset)
    result_name = name or (f"swap({dataset.name})" if dataset.name else None)
    return walk_to_transactions(
        transaction_bitsets(dataset),
        items,
        num_swaps,
        generator,
        name=result_name,
        walk=walk,
    )


def walk_to_transactions(
    base_rows: WalkRows,
    items: tuple[int, ...],
    num_swaps: int,
    generator: np.random.Generator,
    name: Optional[str] = None,
    walk: Optional[str] = None,
) -> TransactionDataset:
    """Run the swap walk on pre-packed rows and decode a :class:`TransactionDataset`.

    The parts-based core of :func:`swap_randomize`: callers that already hold
    the transaction-major walk state — int bitsets or the packed ``uint64``
    matrix, e.g. a worker process that received the observed matrix through
    shared memory — can draw without ever materialising the original dataset
    object.
    """
    if resolve_walk(walk) == "packed":
        from repro.fim.bitmap import unpack_rows_bool

        matrix = _run_swap_walk_packed(
            _as_walk_matrix(base_rows, len(items)), num_swaps, generator
        )
        bools = unpack_rows_bool(matrix, len(items))
        transactions = [
            tuple(items[position] for position in np.flatnonzero(row))
            for row in bools
        ]
        return TransactionDataset(transactions, items=items, name=name)
    rows = _run_swap_walk(_as_walk_bitsets(base_rows), num_swaps, generator)
    transactions = [
        tuple(items[position] for position in _iter_set_bits(row)) for row in rows
    ]
    return TransactionDataset(transactions, items=items, name=name)


def swap_randomize_packed(
    dataset: TransactionDataset,
    num_swaps: Optional[int] = None,
    rng: Optional[Union[int, np.random.Generator]] = None,
    name: Optional[str] = None,
    _rows: Optional[WalkRows] = None,
    walk: Optional[str] = None,
) -> "PackedIndex":
    """Swap-randomise ``dataset`` straight into packed-bitmap form.

    Identical walk and RNG stream as :func:`swap_randomize` under the same
    ``walk`` selection (the same seed yields the same random matrix), but the
    result is returned as a :class:`~repro.fim.bitmap.PackedIndex` without
    ever materialising Python transaction tuples — the representation the
    NumPy counting kernels mine directly.

    Parameters
    ----------
    dataset:
        The dataset whose margins should be preserved.
    num_swaps:
        Number of attempted swaps (default: five times the occurrences).
    rng:
        Seed or :class:`numpy.random.Generator`.
    name:
        Name for the packed index (defaults to ``"swap(<name>)"``).
    _rows:
        Internal: precomputed walk state of ``dataset`` (int bitsets or the
        packed matrix), used by
        :class:`~repro.core.null_models.SwapRandomizationNull` to avoid
        re-packing the observed dataset for every Monte-Carlo draw.
    walk:
        Walk implementation (``"packed"``/``"python"``/``None`` for the
        ``REPRO_SWAP_WALK`` default), as in :func:`swap_randomize`.
    """
    generator = (
        rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    )
    items = dataset.items
    if num_swaps is None:
        num_swaps = _default_num_swaps(dataset)
    base: WalkRows = transaction_bitsets(dataset) if _rows is None else _rows
    result_name = name or (f"swap({dataset.name})" if dataset.name else None)
    return walk_to_packed(
        base,
        items,
        dataset.num_transactions,
        num_swaps,
        generator,
        name=result_name,
        walk=walk,
    )


def walk_to_packed(
    base_rows: WalkRows,
    items: tuple[int, ...],
    num_transactions: int,
    num_swaps: int,
    generator: np.random.Generator,
    name: Optional[str] = None,
    walk: Optional[str] = None,
) -> "PackedIndex":
    """Run the swap walk on pre-packed rows and transpose into a :class:`PackedIndex`.

    The parts-based core of :func:`swap_randomize_packed` — identical walk and
    RNG stream, but taking the transaction-major walk state (int bitsets or
    the packed ``uint64`` matrix), item universe and a resolved ``num_swaps``
    directly so shared-memory workers can draw without the original
    :class:`~repro.data.dataset.TransactionDataset`.
    """
    from repro.fim.bitmap import PackedIndex

    if resolve_walk(walk) == "packed":
        return walks_to_packed(
            base_rows, items, num_transactions, num_swaps, (generator,), name=name
        )[0]

    int_rows = _run_swap_walk(_as_walk_bitsets(base_rows), num_swaps, generator)

    # Transpose the transaction-major walk representation into the item-major
    # vertical bitsets the packed index is built from (O(occurrences)).
    item_bits = [0] * len(items)
    for tid, row in enumerate(int_rows):
        tid_bit = 1 << tid
        while row:
            low = row & -row
            item_bits[low.bit_length() - 1] |= tid_bit
            row ^= low
    return PackedIndex.from_vertical_bitsets(
        {item: item_bits[position] for position, item in enumerate(items)},
        num_transactions,
        items=items,
        name=name,
    )


def walks_to_packed(
    base_rows: WalkRows,
    items: tuple[int, ...],
    num_transactions: int,
    num_swaps: int,
    generators: Sequence[np.random.Generator],
    name: Optional[str] = None,
) -> list["PackedIndex"]:
    """Walk one packed chain per generator in a single pass (the draw block).

    Returns one :class:`PackedIndex` per generator, in order; index ``i`` is
    bit-identical to :func:`walk_to_packed` with ``walk="packed"`` on
    ``generators[i]`` (see :func:`_run_swap_walks_packed`).  Walking the
    block together widens every NumPy call of the walk by the block size,
    which is what lets threads overlap blocks of swap draws.
    """
    from repro.fim.bitmap import PackedIndex, pack_bool_columns, unpack_rows_bool

    walked = _run_swap_walks_packed(
        _as_walk_matrix(base_rows, len(items)), num_swaps, generators
    )
    # Vectorized bit-matrix transpose per chain: transaction-major words ->
    # bool incidence -> item-major vertical bitsets.
    return [
        PackedIndex(
            pack_bool_columns(unpack_rows_bool(matrix, len(items))),
            items,
            num_transactions,
            name=name,
        )
        for matrix in walked
    ]


def _uniform_index(variate: float, bits: int) -> int:
    """Map a uniform [0, 1) variate to an index over the set bits of ``bits``.

    Kept (clamp included) as the python walk's historical stream contract:
    ``int(variate * count)`` can round up to ``count`` at the float edge, so
    the last index absorbs that sliver of probability.  The packed walk
    replaces this with exact integer arithmetic (``draw mod count``) — see
    :func:`_run_swap_walk_packed`.
    """
    count = bits.bit_count()
    return min(int(variate * count), count - 1)


def _nth_set_bit(bits: int, n: int) -> int:
    """The mask of the ``n``-th (0-based, lowest first) set bit of ``bits``."""
    for _ in range(n):
        bits &= bits - 1
    return bits & -bits


def _iter_set_bits(bits: int):
    """Yield the positions of the set bits of ``bits``, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low
