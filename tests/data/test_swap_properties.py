"""Property and statistical-correctness suite for the swap-walk implementations.

Exactness tests (margins, determinism, stream contracts) cannot see a broken
*distribution*: a rewritten walk can preserve every margin and every seed
contract while silently sampling the margin class non-uniformly.  This module
therefore pairs the randomized property suite (run over **both** walks) with
a statistical acceptance harness:

* chi-square goodness-of-fit of sampled matrices against the exhaustively
  enumerated margin class of a small matrix (the ``slow``-marked tests);
* a uniformity regression for the packed walk's integer-draw item-bit
  selection over a bitset straddling a 64-bit word boundary (the float
  ``variate * count`` edge the python walk clamps away);
* chunk-schedule invariance: the packed walk's conflict-aware replay must
  produce bit-identical matrices for *any* chunking, including fully
  sequential (chunk = 1) — the property that makes it exactly the
  one-swap-at-a-time chain;
* block invariance: a block of chains walked in one pass must equal, chain
  for chain, the single-chain walks on the same generators;
* RNG-stream contracts: per-seed reproducibility of the packed walk across
  every executor backend, ``n_jobs`` and draw-block size.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.data.swap as swap_module
from repro.core.null_models import SwapRandomizationNull
from repro.data.dataset import TransactionDataset
from repro.data.swap import (
    WALK_NAMES,
    _nth_set_bit,
    _run_swap_walk_packed,
    _run_swap_walks_packed,
    _select_set_bits,
    resolve_walk,
    swap_randomize,
    swap_randomize_packed,
    transaction_bitsets,
    walk_version,
)
from repro.fim.bitmap import (
    PackedIndex,
    pack_int_bitsets,
    popcount_rows,
    unpack_rows_bool,
)

BOTH_WALKS = pytest.mark.parametrize("walk", list(WALK_NAMES))


def margins(dataset: TransactionDataset):
    return (
        [len(txn) for txn in dataset.transactions],
        dataset.item_supports,
    )


# ----------------------------------------------------------------------
# Walk selection
# ----------------------------------------------------------------------
class TestWalkSelection:
    def test_default_is_packed(self, monkeypatch):
        monkeypatch.delenv(swap_module.WALK_ENV_VAR, raising=False)
        assert resolve_walk() == "packed"
        assert resolve_walk("auto") == "packed"
        assert walk_version() == "packed-v1"

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv(swap_module.WALK_ENV_VAR, "python")
        assert resolve_walk() == "python"
        assert walk_version() == "python-v1"
        # The explicit argument wins over the environment.
        assert resolve_walk("packed") == "packed"

    def test_unknown_walk_rejected(self):
        with pytest.raises(ValueError, match="unknown swap walk"):
            resolve_walk("simd")

    def test_null_model_resolves_walk(self, tiny_dataset):
        assert SwapRandomizationNull(tiny_dataset, walk="python").walk == "python"
        assert SwapRandomizationNull(tiny_dataset).walk == "packed"
        assert (
            SwapRandomizationNull(tiny_dataset).walk_version == "packed-v1"
        )


# ----------------------------------------------------------------------
# Randomized property suite (both walks)
# ----------------------------------------------------------------------
class TestWalkProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        transactions=st.lists(
            st.lists(st.integers(min_value=0, max_value=90), min_size=0, max_size=8),
            min_size=0,
            max_size=25,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_margins_exactly_preserved_both_walks(self, seed, transactions):
        data = TransactionDataset(transactions)
        for walk in WALK_NAMES:
            shuffled = swap_randomize(data, num_swaps=80, rng=seed, walk=walk)
            assert margins(shuffled) == margins(data), walk

    @BOTH_WALKS
    def test_per_seed_determinism(self, correlated_dataset, walk):
        first = swap_randomize(correlated_dataset, rng=7, walk=walk)
        second = swap_randomize(correlated_dataset, rng=7, walk=walk)
        assert first.transactions == second.transactions
        third = swap_randomize(correlated_dataset, rng=8, walk=walk)
        assert third.transactions != first.transactions

    @BOTH_WALKS
    def test_zero_swaps_is_identity(self, tiny_dataset, walk):
        shuffled = swap_randomize(tiny_dataset, num_swaps=0, rng=1, walk=walk)
        assert shuffled.transactions == tiny_dataset.transactions

    @BOTH_WALKS
    def test_edge_cases(self, walk):
        empty = TransactionDataset([])
        assert swap_randomize(empty, rng=0, walk=walk).num_transactions == 0
        single = TransactionDataset([[1, 2, 3]])
        assert (
            swap_randomize(single, rng=0, walk=walk).transactions
            == single.transactions
        )
        all_empty = TransactionDataset([[], [], []], items=(1, 2))
        assert (
            swap_randomize(all_empty, num_swaps=25, rng=0, walk=walk).transactions
            == all_empty.transactions
        )

    @BOTH_WALKS
    def test_packed_entry_point_matches_transactions_entry_point(
        self, correlated_dataset, walk
    ):
        """Same seed + same walk => the same matrix from both entry points."""
        as_dataset = swap_randomize(correlated_dataset, rng=13, walk=walk)
        as_index = swap_randomize_packed(correlated_dataset, rng=13, walk=walk)
        np.testing.assert_array_equal(
            PackedIndex.from_dataset(as_dataset).rows, as_index.rows
        )
        assert as_index.items == as_dataset.items

    def test_walks_agree_on_the_invariants(self, correlated_dataset):
        """Different streams, same margin class membership."""
        packed = swap_randomize(correlated_dataset, rng=3, walk="packed")
        python = swap_randomize(correlated_dataset, rng=3, walk="python")
        assert margins(packed) == margins(python) == margins(correlated_dataset)

    def test_packed_walk_chunk_schedule_invariance(self, rng):
        """Conflict-aware replay must equal the sequential chain exactly.

        Forcing the chunk bounds down to one proposal per round makes the
        walk literally one-swap-at-a-time; every schedule in between must
        produce the same matrix bit for bit.
        """
        for trial in range(8):
            num_transactions = int(rng.integers(2, 30))
            num_items = int(rng.integers(2, 150))
            incidence = rng.random((num_transactions, num_items)) < 0.3
            rows = [
                int.from_bytes(
                    np.packbits(row, bitorder="little").tobytes(), "little"
                )
                for row in incidence
            ]
            matrix = pack_int_bitsets(rows, num_items)
            seed = int(rng.integers(1_000_000))
            num_swaps = int(rng.integers(0, 300))
            reference = _run_swap_walk_packed(
                matrix, num_swaps, np.random.default_rng(seed)
            )
            bounds = (swap_module._MIN_CHUNK, swap_module._MAX_CHUNK)
            try:
                for low, high in ((1, 1), (3, 7), (257, 257)):
                    swap_module._MIN_CHUNK = low
                    swap_module._MAX_CHUNK = high
                    np.testing.assert_array_equal(
                        reference,
                        _run_swap_walk_packed(
                            matrix, num_swaps, np.random.default_rng(seed)
                        ),
                    )
            finally:
                swap_module._MIN_CHUNK, swap_module._MAX_CHUNK = bounds

    def test_packed_walk_block_matches_single_chain_walks(self, rng):
        """B chains walked in one pass are B single-chain walks, bit for bit.

        Each chain owns its own row block of the stacked matrix, so the
        interleaved first-toucher replay must run every chain's own
        sequential chain — at the default chunk bounds and fully sequential
        (chunk = 1) alike.  Sparse trials leave empty (ineligible) rows.
        """
        bounds = (swap_module._MIN_CHUNK, swap_module._MAX_CHUNK)
        for trial in range(6):
            num_transactions = int(rng.integers(2, 30))
            num_items = int(rng.integers(2, 150))
            density = float(rng.uniform(0.02, 0.5))
            incidence = rng.random((num_transactions, num_items)) < density
            rows = [
                int.from_bytes(
                    np.packbits(row, bitorder="little").tobytes(), "little"
                )
                for row in incidence
            ]
            matrix = pack_int_bitsets(rows, num_items)
            num_swaps = int(rng.integers(0, 300))
            for num_chains in (1, 2, 3):
                seeds = [int(seed) for seed in rng.integers(1_000_000, size=num_chains)]
                singles = [
                    _run_swap_walk_packed(
                        matrix, num_swaps, np.random.default_rng(seed)
                    )
                    for seed in seeds
                ]
                try:
                    for low, high in (bounds, (1, 1)):
                        swap_module._MIN_CHUNK = low
                        swap_module._MAX_CHUNK = high
                        block = _run_swap_walks_packed(
                            matrix,
                            num_swaps,
                            [np.random.default_rng(seed) for seed in seeds],
                        )
                        assert block.shape == (num_chains,) + matrix.shape
                        for chain, single in enumerate(singles):
                            np.testing.assert_array_equal(block[chain], single)
                finally:
                    swap_module._MIN_CHUNK, swap_module._MAX_CHUNK = bounds


# ----------------------------------------------------------------------
# Item-bit selection: integer draws, no float rounding
# ----------------------------------------------------------------------
class TestSelectSetBits:
    def test_matches_python_reference_exhaustively(self, rng):
        """Every rank of random bitsets, against the int-walk's _nth_set_bit."""
        for trial in range(120):
            num_words = int(rng.integers(1, 5))
            if trial % 3 == 0:
                bits = int.from_bytes(rng.bytes(8 * num_words), "little")
            else:
                bits = 0
                for position in rng.choice(
                    64 * num_words, size=int(rng.integers(1, 6)), replace=False
                ):
                    bits |= 1 << int(position)
            if not bits:
                continue
            row = pack_int_bitsets([bits], 64 * num_words)
            count = bits.bit_count()
            ranks = np.arange(count, dtype=np.int64)
            got = _select_set_bits(np.repeat(row, count, axis=0), ranks)
            expected = [
                _nth_set_bit(bits, rank).bit_length() - 1 for rank in range(count)
            ]
            np.testing.assert_array_equal(got, expected)

    def test_word_boundary_straddling_bitset_is_uniform(self):
        """Regression for the float `variate * count` clamp of _uniform_index.

        The packed walk selects the item bit as ``draw mod count`` of a
        64-bit integer draw.  Over a bitset whose set bits straddle the
        64-bit word boundary (positions 58..70), the selected bit must be
        uniform: every residue class maps to exactly one bit, and a
        chi-square over many integer draws shows no preference for either
        word (the float path's rounding lived exactly at edges like this).
        """
        positions = list(range(58, 71))  # crosses the word 0 / word 1 boundary
        bits = 0
        for position in positions:
            bits |= 1 << position
        row = pack_int_bitsets([bits], 128)
        count = len(positions)

        # Exactness: each rank maps to the right bit, across the boundary.
        ranks = np.arange(count, dtype=np.int64)
        np.testing.assert_array_equal(
            _select_set_bits(np.repeat(row, count, axis=0), ranks), positions
        )

        # Uniformity of the integer-draw reduction over the real draw path.
        draws = np.random.default_rng(123).integers(
            0, 2**64, size=20_000, dtype=np.uint64
        )
        selected = _select_set_bits(
            np.repeat(row, draws.size, axis=0),
            (draws % np.uint64(count)).astype(np.int64),
        )
        observed = np.bincount(selected, minlength=128)[positions]
        expected = draws.size / count
        chi_square = float(((observed - expected) ** 2 / expected).sum())
        assert chi_square < chi_square_quantile(count - 1, 0.9999), observed


# ----------------------------------------------------------------------
# RNG-stream contracts across executors
# ----------------------------------------------------------------------
class TestExecutorStreamContract:
    @pytest.fixture(scope="class")
    def planted(self):
        from repro.data.generators import PlantedItemset, generate_planted_dataset

        frequencies = {item: 0.12 for item in range(10)}
        return generate_planted_dataset(
            frequencies,
            num_transactions=100,
            planted=[PlantedItemset(items=(0, 1), extra_support=25)],
            rng=5,
            name="stream-contract",
        )

    def test_packed_walk_identical_across_executors_and_n_jobs(self, planted):
        """Δ packed-walk draws are bit-identical for every execution plan."""
        from repro.core.lambda_estimation import MonteCarloNullEstimator

        def profiles(executor, n_jobs):
            estimator = MonteCarloNullEstimator(
                SwapRandomizationNull(planted, walk="packed"),
                k=2,
                num_datasets=6,
                mining_support=1,
                rng=11,
                executor=executor,
                n_jobs=n_jobs,
            )
            return estimator._itemsets, estimator._profiles

        baseline_sets, baseline_profiles = profiles("serial", 1)
        for executor, n_jobs in (
            ("serial", 1),
            ("thread", 2),
            ("process", 2),
        ):
            sets, matrix = profiles(executor, n_jobs)
            assert sets == baseline_sets, executor
            np.testing.assert_array_equal(matrix, baseline_profiles, executor)

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_blocked_draws_match_one_draw_per_task(
        self, planted, executor, monkeypatch
    ):
        """Draw blocks change tasks, never draws: same union and profiles.

        Δ = 13 splits into blocks of 5, 5 and a ragged 3; forcing the block
        constant to 1 sends one draw per task, the pre-block schedule.
        """
        from repro.core import lambda_estimation
        from repro.core.lambda_estimation import MonteCarloNullEstimator

        def estimate():
            return MonteCarloNullEstimator(
                SwapRandomizationNull(planted, walk="packed"),
                k=2,
                num_datasets=13,
                mining_support=1,
                rng=11,
                executor=executor,
                n_jobs=2,
            )

        blocked = estimate()
        assert blocked._draw_block_size(13) == 5
        monkeypatch.setattr(lambda_estimation, "_MAX_DRAW_BLOCK", 1)
        single = estimate()
        assert single._draw_block_size(13) == 1
        assert blocked.union_itemsets == single.union_itemsets
        assert blocked._itemsets == single._itemsets
        np.testing.assert_array_equal(blocked._profiles, single._profiles)

    def test_block_size_follows_the_stacking_budget(self, planted, monkeypatch):
        """Blocks stack the matrix only while the stack fits the byte budget.

        A matrix too large to stack twice walks one draw per task, exactly
        as the python walk always does.
        """
        from repro.core.lambda_estimation import MonteCarloNullEstimator

        model = SwapRandomizationNull(planted, walk="packed")
        matrix_bytes = model._walk_base().nbytes
        assert model.block_draws == swap_module._BLOCK_BYTES // matrix_bytes
        assert SwapRandomizationNull(planted, walk="python").block_draws == 1
        estimator = MonteCarloNullEstimator(
            model, k=2, num_datasets=1, mining_support=1, rng=0
        )
        monkeypatch.setattr(swap_module, "_BLOCK_BYTES", 2 * matrix_bytes)
        assert model.block_draws == 2
        assert estimator._draw_block_size(13) == 2  # six blocks of 2, then 1
        monkeypatch.setattr(swap_module, "_BLOCK_BYTES", 2 * matrix_bytes - 1)
        assert model.block_draws == 1
        assert estimator._draw_block_size(13) == 1


# ----------------------------------------------------------------------
# Statistical acceptance: uniformity over the enumerated margin class
# ----------------------------------------------------------------------
def chi_square_quantile(degrees: int, probability: float) -> float:
    """Wilson–Hilferty approximation of the chi-square quantile (no SciPy)."""
    from statistics import NormalDist

    z = NormalDist().inv_cdf(probability)
    term = 2.0 / (9.0 * degrees)
    return degrees * (1.0 - term + z * math.sqrt(term)) ** 3


def enumerate_margin_class(dataset: TransactionDataset) -> set[tuple[int, ...]]:
    """All transaction-major bitset tuples with the dataset's exact margins."""
    from itertools import combinations, product

    num_items = len(dataset.items)
    base_rows = transaction_bitsets(dataset)
    row_sizes = [row.bit_count() for row in base_rows]
    column_sums = tuple(
        sum(row >> position & 1 for row in base_rows)
        for position in range(num_items)
    )
    per_row = [
        [
            sum(1 << position for position in chosen)
            for chosen in combinations(range(num_items), size)
        ]
        for size in row_sizes
    ]
    matches = set()
    for candidate in product(*per_row):
        sums = tuple(
            sum(row >> position & 1 for row in candidate)
            for position in range(num_items)
        )
        if sums == column_sums:
            matches.add(candidate)
    return matches


@pytest.mark.slow
class TestStationaryDistribution:
    """Chi-square GOF against the exhaustively enumerated margin class.

    This is the test no exactness check subsumes: a walk that preserved
    margins and determinism but biased its proposals (wrong item-selection
    distribution, replay that reorders conflicting swaps, a stale screening
    decision) shifts mass between members of the margin class and shows up
    here as a chi-square blowup.  Seeded, so the verdict is reproducible.
    """

    CASES = {
        # 3x3 cycle matrix: margin class of 6 permutation-complement matrices.
        "3x3-cycle": TransactionDataset([[0, 1], [0, 2], [1, 2]]),
        # Mixed row sizes, 4 transactions over 3 items.
        "4x3-mixed": TransactionDataset([[0, 1, 2], [0, 1], [2], [0]]),
    }

    @BOTH_WALKS
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_walk_samples_margin_class_uniformly(self, walk, case):
        dataset = self.CASES[case]
        margin_class = sorted(enumerate_margin_class(dataset))
        assert len(margin_class) >= 3, "degenerate margin class"
        index_of = {rows: i for i, rows in enumerate(margin_class)}

        draws_per_class = 260
        num_draws = draws_per_class * len(margin_class)
        num_swaps = 64  # far beyond mixing for these tiny chains
        root = np.random.default_rng(2024)
        observed = np.zeros(len(margin_class), dtype=np.int64)
        for child in root.spawn(num_draws):
            shuffled = swap_randomize(
                dataset, num_swaps=num_swaps, rng=child, walk=walk
            )
            observed[index_of[tuple(transaction_bitsets(shuffled))]] += 1

        assert observed.sum() == num_draws  # every draw stayed in the class
        expected = num_draws / len(margin_class)
        chi_square = float(((observed - expected) ** 2 / expected).sum())
        critical = chi_square_quantile(len(margin_class) - 1, 0.9999)
        assert chi_square < critical, (walk, case, observed.tolist(), chi_square)


# ----------------------------------------------------------------------
# Packed representation details
# ----------------------------------------------------------------------
class TestPackedRepresentation:
    def test_walk_accepts_matrix_or_bitsets(self, correlated_dataset):
        """walk_to_* take either transaction-major representation."""
        from repro.data.swap import walk_to_packed

        rows = transaction_bitsets(correlated_dataset)
        matrix = pack_int_bitsets(rows, len(correlated_dataset.items))
        from_bitsets = walk_to_packed(
            rows,
            correlated_dataset.items,
            correlated_dataset.num_transactions,
            200,
            np.random.default_rng(4),
            walk="packed",
        )
        from_matrix = walk_to_packed(
            matrix,
            correlated_dataset.items,
            correlated_dataset.num_transactions,
            200,
            np.random.default_rng(4),
            walk="packed",
        )
        np.testing.assert_array_equal(from_bitsets.rows, from_matrix.rows)

    def test_unpack_rows_bool_round_trips(self, rng):
        from repro.fim.bitmap import pack_bool_columns

        bools = rng.random((37, 130)) < 0.4
        packed = pack_int_bitsets(
            [
                int.from_bytes(
                    np.packbits(row, bitorder="little").tobytes(), "little"
                )
                for row in bools
            ],
            130,
        )
        np.testing.assert_array_equal(unpack_rows_bool(packed, 130), bools)
        # The walk result transposes through pack_bool_columns; supports of
        # the transpose must equal the column sums.
        vertical = pack_bool_columns(bools)
        np.testing.assert_array_equal(popcount_rows(vertical), bools.sum(axis=0))

    def test_null_model_caches_packed_matrix(self, correlated_dataset):
        model = SwapRandomizationNull(correlated_dataset, walk="packed")
        first = model._walk_base()
        assert first is model._walk_base()  # packed once, reused per draw
        model.sample_packed(0)
        np.testing.assert_array_equal(first, model._walk_base())  # unmutated
