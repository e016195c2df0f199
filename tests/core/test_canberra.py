import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.canberra import (
    canberra_dissimilarity,
    canberra_distance,
    canberra_terms,
    cross_length_rows,
    equal_length_cross_rows,
    sliding_min_distance,
    sliding_windows,
)

byte_vectors = st.binary(min_size=1, max_size=16)


class TestCanberraTerms:
    def test_zero_over_zero_is_zero(self):
        assert canberra_terms(np.array([0.0]), np.array([0.0]))[0] == 0.0

    def test_max_term(self):
        # |0-255| / (0+255) = 1
        assert canberra_terms(np.array([0.0]), np.array([255.0]))[0] == 1.0

    def test_half(self):
        # |1-3| / (1+3) = 0.5
        assert canberra_terms(np.array([1.0]), np.array([3.0]))[0] == 0.5


class TestCanberraDistance:
    def test_identity(self):
        assert canberra_distance(b"\x01\x02\x03", b"\x01\x02\x03") == 0.0

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            canberra_distance(b"\x01", b"\x01\x02")

    def test_known_value(self):
        # terms: |1-3|/4=0.5, |2-2|/4=0  -> mean 0.25
        assert canberra_distance(b"\x01\x02", b"\x03\x02") == pytest.approx(0.25)

    @given(byte_vectors)
    def test_self_distance_zero(self, data):
        assert canberra_distance(data, data) == 0.0

    @given(st.binary(min_size=4, max_size=4), st.binary(min_size=4, max_size=4))
    def test_symmetry(self, x, y):
        assert canberra_distance(x, y) == pytest.approx(canberra_distance(y, x))

    @given(st.binary(min_size=2, max_size=8), st.binary(min_size=2, max_size=8))
    def test_range(self, x, y):
        if len(x) != len(y):
            x = x[: min(len(x), len(y))]
            y = y[: len(x)]
        d = canberra_distance(x, y)
        assert 0.0 <= d <= 1.0


class TestSlidingMinDistance:
    def test_exact_substring_is_zero(self):
        u = np.array([10.0, 20.0])
        v = np.array([1.0, 10.0, 20.0, 3.0])
        assert sliding_min_distance(u, v) == 0.0

    def test_picks_best_offset(self):
        u = np.array([100.0])
        v = np.array([0.0, 100.0])
        assert sliding_min_distance(u, v) == 0.0


class TestCanberraDissimilarity:
    def test_equal_length_matches_distance(self):
        assert canberra_dissimilarity(b"\x01\x02", b"\x03\x02") == pytest.approx(
            canberra_distance(b"\x01\x02", b"\x03\x02")
        )

    def test_substring_penalized_by_length_only(self):
        # Perfect overlap (d_min = 0): d = (n-m)/n * pf
        d = canberra_dissimilarity(b"\x0a\x14", b"\x00\x0a\x14\x00", penalty_factor=0.33)
        assert d == pytest.approx((4 - 2) / 4 * 0.33)

    def test_longer_mismatch_costs_more(self):
        short = canberra_dissimilarity(b"\x0a\x14", b"\x00\x0a\x14")
        long = canberra_dissimilarity(b"\x0a\x14", b"\x00\x00\x00\x00\x0a\x14")
        assert long > short

    @given(byte_vectors, byte_vectors)
    @settings(max_examples=200)
    def test_symmetry_and_range(self, u, v):
        d1 = canberra_dissimilarity(u, v)
        d2 = canberra_dissimilarity(v, u)
        assert d1 == pytest.approx(d2)
        assert 0.0 <= d1 <= 1.0

    @given(byte_vectors)
    def test_identity_property(self, u):
        assert canberra_dissimilarity(u, u) == 0.0

    def test_empty_vs_nonempty(self):
        assert canberra_dissimilarity(b"", b"\x01") == 1.0
        assert canberra_dissimilarity(b"", b"") == 0.0


class TestBlockKernels:
    def test_pairwise_block_matches_scalar(self):
        data = [b"\x01\x02\x03", b"\x03\x02\x01", b"\xff\x00\x10"]
        block = np.array([list(d) for d in data], dtype=np.uint8)
        matrix = equal_length_cross_rows(block, block, 0, 3)
        for i in range(3):
            for j in range(3):
                assert matrix[i, j] == pytest.approx(canberra_distance(data[i], data[j]))

    def test_cross_block_matches_scalar(self):
        shorts = [b"\x01\x02", b"\x10\x20"]
        longs = [b"\x00\x01\x02\x03", b"\xaa\xbb\xcc\xdd"]
        short_block = np.array([list(d) for d in shorts], dtype=np.uint8)
        long_block = np.array([list(d) for d in longs], dtype=np.uint8)
        matrix = cross_length_rows(short_block, sliding_windows([long_block], 2), 0, 2)
        for i, u in enumerate(shorts):
            for j, v in enumerate(longs):
                assert matrix[i, j] == pytest.approx(canberra_dissimilarity(u, v))

    def test_cross_block_rejects_equal_length(self):
        block = np.zeros((2, 3), dtype=np.uint8)
        with pytest.raises(ValueError):
            sliding_windows([block], 3)

    def test_pairwise_diagonal_zero(self):
        block = np.random.default_rng(0).integers(0, 256, size=(20, 8), dtype=np.uint8)
        matrix = equal_length_cross_rows(block, block, 0, 20)
        assert np.allclose(np.diag(matrix), 0.0)
        assert np.allclose(matrix, matrix.T)
