"""Parity contracts of the binned kernel against the pairwise oracle.

The vectorized length-binned row kernels (byte-term LUT gather, upper
band, all-offsets sliding minimum) is a pure optimization: on every
input it must agree with the per-pair reference oracles of
``tests/core/oracles.py`` — one ``canberra_distance`` /
``canberra_dissimilarity`` call per pair — within 1e-12 absolute (in
practice bit-identically).  Violations here
mean the kernel rewrite changed the numerics and every downstream stage
(autoconf, DBSCAN, refinement) silently drifts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.canberra import (
    COLUMN_SUM_TERMS,
    DEFAULT_PENALTY_FACTOR,
    _term_means,
    byte_term_lut,
    canberra_dissimilarity,
    cross_length_rows,
    equal_length_cross_rows,
    sliding_windows,
)
from repro.core.matrix import DissimilarityMatrix, MatrixBuildOptions
from repro.core.segments import Segment, unique_segments
from tests.core.oracles import (
    cross_length_block_reference,
    equal_length_cross_block_reference,
    pairwise_equal_length_reference,
    reference_matrix,
)

PARITY_ATOL = 1e-12


def as_unique_segments(datas):
    return unique_segments(
        [Segment(message_index=i, offset=0, data=d) for i, d in enumerate(datas)],
        min_length=0,
    )


def build(datas, workers=1, **kwargs):
    options = MatrixBuildOptions(workers=workers, use_cache=False, **kwargs)
    return DissimilarityMatrix.build(as_unique_segments(datas), options=options)


def oracle(datas):
    """The per-pair reference matrix over the same unique segments."""
    return reference_matrix(as_unique_segments(datas))


def uint8_block(rng, count, length):
    return rng.integers(0, 256, size=(count, length), dtype=np.uint8)


def equal_rows(block, row_start=0, row_stop=None, cells_budget=None):
    """Rows ``[row_start, row_stop)`` of one equal-length bin, upper band.

    The matrix builder's "same" tile: the rows against the bin from
    *row_start* on.  All rows give the whole symmetric square.
    """
    row_stop = block.shape[0] if row_stop is None else row_stop
    return equal_length_cross_rows(
        block, block[row_start:], row_start, row_stop, cells_budget=cells_budget
    )


def cross_rows(short, long, penalty_factor=DEFAULT_PENALTY_FACTOR, cells_budget=None):
    """Every row of a short block against one longer block."""
    return cross_length_rows(
        short,
        sliding_windows([long], short.shape[1]),
        0,
        short.shape[0],
        penalty_factor,
        cells_budget=cells_budget,
    )


class TestByteTermLut:
    def test_matches_the_formula_exactly(self):
        lut = byte_term_lut()
        assert lut.shape == (256, 256)
        assert lut[0, 0] == 0.0  # 0/0 := 0
        for i, j in [(0, 1), (1, 3), (128, 192), (255, 255), (7, 0)]:
            expected = abs(i - j) / (i + j) if i + j else 0.0
            assert lut[i, j] == expected
        assert np.array_equal(lut, lut.T)


def with_edge_rows(block, value):
    """*block* with an all-zero first row and *value* in every byte of the second."""
    block = block.copy()
    block[0] = 0
    block[1] = value
    return block


class TestColumnOrderedReduction:
    """The kernels' term reduction pinned to numpy's own ``.mean``.

    Rows of up to :data:`COLUMN_SUM_TERMS` bytes are reduced by adding
    whole term planes in the order numpy's ``add.reduce`` uses inside
    one output cell (left to right below 8 terms, a pairwise tree at
    exactly 8).  Random byte terms make every cell's rounding depend on
    that order, so a numpy release that changes it fails here instead
    of in the golden corpus digests.
    """

    @pytest.mark.parametrize("m", range(1, COLUMN_SUM_TERMS + 1))
    @pytest.mark.parametrize("rows, cols", [(61, 13), (13, 61)])
    def test_bit_identical_to_mean_over_the_3d_gather(self, m, rows, cols):
        # rows > cols and rows < cols take the two gather orientations;
        # the edge rows give 0/0 terms (zero against zero) and 0 against 255.
        rng = np.random.default_rng(m)
        a = with_edge_rows(uint8_block(rng, rows, m), 0)
        b = with_edge_rows(uint8_block(rng, cols, m), 255)
        lut = byte_term_lut()
        expected = lut[a[:, np.newaxis, :], b[np.newaxis]].mean(axis=-1)
        assert _term_means(a, b).tobytes() == expected.tobytes()
        assert _term_means(b, a).tobytes() == expected.T.tobytes()

    @pytest.mark.parametrize("m", range(1, 41))
    def test_kernels_equal_the_per_pair_oracles(self, m):
        # Past COLUMN_SUM_TERMS the kernels keep ``.mean``; on both
        # sides of the switch they equal one canberra_* call per pair.
        rng = np.random.default_rng(100 + m)
        block = with_edge_rows(uint8_block(rng, 9, m), 255)
        other = uint8_block(rng, 5, m)
        longer = uint8_block(rng, 4, m + 3)
        assert (
            equal_rows(block).tobytes()
            == pairwise_equal_length_reference(block).tobytes()
        )
        assert (
            equal_length_cross_rows(block, other, 0, 9).tobytes()
            == equal_length_cross_block_reference(block, other).tobytes()
        )
        assert (
            cross_rows(block, longer).tobytes()
            == cross_length_block_reference(block, longer).tobytes()
        )


class TestEqualLengthKernelParity:
    def test_uint8_fast_path_matches_reference(self):
        block = uint8_block(np.random.default_rng(1), 37, 8)
        fast = equal_rows(block)
        oracle = pairwise_equal_length_reference(block)
        assert np.abs(fast - oracle).max() <= PARITY_ATOL
        assert np.array_equal(fast, fast.T)

    def test_degenerate_shapes(self):
        assert equal_rows(np.zeros((0, 4), dtype=np.uint8)).shape == (0, 0)
        assert equal_rows(np.zeros((1, 4), dtype=np.uint8))[0, 0] == 0.0
        assert np.array_equal(
            equal_rows(np.zeros((3, 0), dtype=np.uint8)), np.zeros((3, 3))
        )

    def test_upper_band_tiles_are_the_whole_squares_bytes(self):
        # However the rows are tiled, each tile's band holds the whole
        # square's bytes: the builder only ever computes the bands.
        block = uint8_block(np.random.default_rng(6), 23, 7)
        whole = equal_rows(block)
        for start, stop in ((0, 5), (5, 6), (6, 17), (17, 23), (23, 23)):
            tile = equal_rows(block, start, stop, cells_budget=64)
            assert tile.shape == (stop - start, 23 - start)
            assert tile.tobytes() == whole[start:stop, start:].tobytes()

    def test_chunked_mirroring_is_consistent(self):
        # Force many tiny row chunks so the upper band spans chunks.
        block = uint8_block(np.random.default_rng(3), 19, 6)
        fast = equal_rows(block, cells_budget=64)
        assert np.abs(fast - pairwise_equal_length_reference(block)).max() <= PARITY_ATOL
        assert fast.tobytes() == equal_rows(block).tobytes()

    @pytest.mark.parametrize(
        "kernel",
        [
            lambda block: equal_rows(block),
            lambda block: equal_length_cross_rows(block, block, 0, 2),
            lambda block: cross_rows(block[:, :2], block),
        ],
    )
    def test_rejects_non_uint8_blocks(self, kernel):
        # The kernels gather from the byte-term table; other dtypes are
        # not byte values.
        block = uint8_block(np.random.default_rng(2), 2, 5).astype(np.float64)
        with pytest.raises(TypeError, match="uint8"):
            kernel(block)


class TestCrossLengthKernelParity:
    def test_uint8_fast_path_matches_reference(self):
        rng = np.random.default_rng(4)
        short = uint8_block(rng, 11, 3)
        long = uint8_block(rng, 9, 10)
        fast = cross_rows(short, long)
        oracle = cross_length_block_reference(short, long)
        assert np.abs(fast - oracle).max() <= PARITY_ATOL

    def test_nondefault_penalty(self):
        rng = np.random.default_rng(5)
        short = uint8_block(rng, 7, 2)
        long = uint8_block(rng, 8, 5)
        fast = cross_rows(short, long, penalty_factor=0.25)
        oracle = cross_length_block_reference(short, long, penalty_factor=0.25)
        assert np.abs(fast - oracle).max() <= PARITY_ATOL

    def test_rejects_equal_or_longer_short_block(self):
        block = uint8_block(np.random.default_rng(6), 4, 4)
        with pytest.raises(ValueError):
            cross_rows(block, block)
        with pytest.raises(ValueError):
            cross_length_block_reference(block, block)

    def test_chunked_path(self):
        rng = np.random.default_rng(7)
        short = uint8_block(rng, 13, 4)
        long = uint8_block(rng, 6, 9)
        fast = cross_rows(short, long, cells_budget=64)
        assert np.abs(fast - cross_length_block_reference(short, long)).max() <= PARITY_ATOL
        assert fast.tobytes() == cross_rows(short, long).tobytes()

    @pytest.mark.parametrize("m", [1, 8, 9])
    def test_deduplicated_and_sliding_windows_agree(self, m):
        # m <= 8 scores deduplicated windows, m = 9 slides; both must
        # equal the oracle on blocks with many repeated windows.
        rng = np.random.default_rng(m)
        short = rng.integers(0, 4, size=(9, m), dtype=np.uint8)
        long = rng.integers(0, 4, size=(7, m + 5), dtype=np.uint8)
        fast = cross_rows(short, long)
        assert np.abs(fast - cross_length_block_reference(short, long)).max() <= PARITY_ATOL

    def test_empty_short_block(self):
        short = np.zeros((1, 0), dtype=np.uint8)
        long = uint8_block(np.random.default_rng(8), 3, 2)
        assert np.array_equal(cross_rows(short, long), np.ones((1, 3)))
        assert np.array_equal(cross_length_block_reference(short, long), np.ones((1, 3)))


# Ragged segment sets: lengths 0–64, deliberately including repeated
# values (collapsed by unique_segments) and repeated lengths.
ragged_segment_sets = st.lists(
    st.binary(min_size=0, max_size=64), min_size=2, max_size=14, unique=True
)


class TestKernelPropertyParity:
    @settings(max_examples=60, deadline=None)
    @given(datas=ragged_segment_sets)
    def test_binned_equals_pairwise_on_ragged_sets(self, datas):
        binned = build(datas)
        assert np.abs(binned.values - oracle(datas)).max() <= PARITY_ATOL

    @settings(max_examples=30, deadline=None)
    @given(
        datas=st.lists(st.binary(min_size=6, max_size=6), min_size=2, max_size=12, unique=True)
    )
    def test_all_equal_lengths(self, datas):
        binned = build(datas)
        assert np.abs(binned.values - oracle(datas)).max() <= PARITY_ATOL

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_all_distinct_lengths(self, seed):
        rng = np.random.default_rng(seed)
        datas = [
            bytes(rng.integers(0, 256, length).tolist())
            for length in rng.permutation(np.arange(1, 11))
        ]
        binned = build(datas)
        assert np.abs(binned.values - oracle(datas)).max() <= PARITY_ATOL

    def test_empty_segment_against_nonempty(self):
        # The empty segment overlaps nothing: d = 1 against any other,
        # as canberra_dissimilarity and the pairwise oracle define it.
        datas = [b"", b"ab", b"\x01"]
        for values in (build(datas).values, oracle(datas)):
            assert not np.isnan(values).any()
            assert np.array_equal(values[0], [0.0, 1.0, 1.0])
            assert np.array_equal(values[:, 0], [0.0, 1.0, 1.0])

    def test_duplicate_values_collapse_identically(self):
        # Duplicate occurrences collapse to one unique segment; the
        # kernel and the oracle must see the identical deduplicated set.
        datas = [b"\x01\x02\x03", b"\x01\x02\x03", b"\xff\x00", b"\xff\x00", b"\x04"]
        segments = [
            Segment(message_index=i, offset=0, data=d) for i, d in enumerate(datas)
        ]
        unique = unique_segments(segments, min_length=1)
        assert len(unique) == 3
        binned = DissimilarityMatrix.build(
            unique, options=MatrixBuildOptions(workers=1, use_cache=False)
        )
        assert np.abs(binned.values - reference_matrix(unique)).max() <= PARITY_ATOL

    @settings(max_examples=40, deadline=None)
    @given(datas=ragged_segment_sets)
    def test_matrix_matches_per_pair_definition(self, datas):
        """The built matrix equals the documented per-pair function."""
        segments = as_unique_segments(datas)
        matrix = build([s.data for s in segments])
        for i, a in enumerate(segments):
            for j, b in enumerate(segments):
                assert matrix.values[i, j] == pytest.approx(
                    canberra_dissimilarity(a.data, b.data), abs=PARITY_ATOL
                )


def make_ragged_datas(count, seed=17, max_length=12):
    rng = np.random.default_rng(seed)
    datas = set()
    while len(datas) < count:
        length = int(rng.integers(1, max_length + 1))
        datas.add(bytes(rng.integers(0, 256, length).tolist()))
    return sorted(datas)


class TestBuildPathParity:
    """binned == pairwise oracle through the full ``DissimilarityMatrix.build``."""

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.usefixtures("threads_at_any_size")
    def test_build_parity_across_worker_counts(self, workers):
        datas = make_ragged_datas(90)
        matrix = build(datas, workers=workers)
        assert np.abs(matrix.values - oracle(datas)).max() <= PARITY_ATOL

    @pytest.mark.usefixtures("threads_at_any_size")
    def test_parallel_binned_matches_serial_pairwise(self):
        datas = make_ragged_datas(120, seed=23)
        parallel_binned = build(datas, workers=2)
        assert parallel_binned.stats.backend == "parallel"
        assert np.abs(oracle(datas) - parallel_binned.values).max() <= PARITY_ATOL

    def test_stats_record_kernel_and_vectorized_pairs(self):
        # Every unique pair goes through the vectorized kernel.
        datas = make_ragged_datas(40, seed=29)
        binned = build(datas)
        count = len(datas)
        assert binned.stats.pairs_vectorized == count * (count - 1) // 2

    def test_unknown_kernel_is_rejected(self):
        # The kernel option is retired: passing one fails loudly.
        with pytest.raises(TypeError):
            MatrixBuildOptions(kernel="pairwise")
