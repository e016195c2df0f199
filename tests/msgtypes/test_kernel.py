"""The batched similarity kernel against the scalar per-pair oracle.

``alignment_dissimilarities`` runs the Needleman–Wunsch DP for blocks
of message pairs at once.  Its contract is bit identity with one scalar
DP per pair (``tests/msgtypes/oracle.py``), also when only the pairs
beyond a known prefix are aligned.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.msgtypes import similarity
from repro.msgtypes.similarity import (
    GAP_PENALTY,
    alignment_dissimilarities,
    alignment_work,
)
from tests.msgtypes.oracle import oracle_dissimilarities

UNIQUE = 12


def segment_distances(seed: int, size: int = UNIQUE) -> np.ndarray:
    """A symmetric dissimilarity table with a zero diagonal."""
    values = np.random.default_rng(seed).random((size, size))
    values = (values + values.T) / 2
    np.fill_diagonal(values, 0.0)
    return values


#: Index sequences: -1 (excluded segment) included; empty and length-1
#: sequences are frequent.
sequences = st.lists(
    st.lists(st.integers(-1, UNIQUE - 1), max_size=6), max_size=14
)


#: Mostly 0/1-segment messages plus a few 40-segment ones.
skewed = st.lists(
    st.one_of(
        st.lists(st.integers(-1, UNIQUE - 1), max_size=1),
        st.lists(st.integers(-1, UNIQUE - 1), min_size=40, max_size=40),
    ),
    min_size=2,
    max_size=8,
)


def assert_bits_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(sequences, st.integers(0, 2**16), st.sampled_from([GAP_PENALTY, 0.3, 1.5]))
    def test_matches_oracle(self, indexed, seed, gap_penalty):
        distances = segment_distances(seed)
        assert_bits_equal(
            alignment_dissimilarities(indexed, distances, gap_penalty),
            oracle_dissimilarities(indexed, distances, gap_penalty),
        )

    @settings(max_examples=25, deadline=None)
    @given(skewed, st.integers(0, 2**16))
    def test_skewed_lengths(self, indexed, seed):
        distances = segment_distances(seed)
        assert_bits_equal(
            alignment_dissimilarities(indexed, distances),
            oracle_dissimilarities(indexed, distances, GAP_PENALTY),
        )

    @settings(max_examples=25, deadline=None)
    @given(sequences, st.integers(0, 2**16), st.integers(1, 5))
    def test_many_blocks(self, indexed, seed, block):
        """Blocks far smaller than the pair count: pairs of different
        lengths share blocks and every block boundary is crossed."""
        distances = segment_distances(seed)
        with mock.patch.object(similarity, "PAIR_BLOCK", block):
            actual = alignment_dissimilarities(indexed, distances)
        assert_bits_equal(actual, oracle_dissimilarities(indexed, distances, GAP_PENALTY))

    def test_more_pairs_than_one_block(self):
        rng = np.random.default_rng(7)
        indexed = [
            rng.integers(-1, UNIQUE, size=rng.integers(0, 7)).tolist() for _ in range(60)
        ]
        pairs = len(indexed) * (len(indexed) - 1) // 2
        assert pairs > similarity.PAIR_BLOCK
        distances = segment_distances(7)
        assert_bits_equal(
            alignment_dissimilarities(indexed, distances),
            oracle_dissimilarities(indexed, distances, GAP_PENALTY),
        )

    def test_float32_table(self):
        distances = segment_distances(3).astype(np.float32)
        indexed = [[0, 1, 2], [2, -1, 1, 0], [], [5], [5, 5, 5, 5, 5]]
        assert_bits_equal(
            alignment_dissimilarities(indexed, distances),
            oracle_dissimilarities(indexed, distances, GAP_PENALTY),
        )

    def test_no_messages(self):
        assert alignment_dissimilarities([], segment_distances(0)).shape == (0, 0)


class TestPrefixReuse:
    @settings(max_examples=40, deadline=None)
    @given(sequences, st.integers(0, 2**16), st.data())
    def test_known_prefix_bit_equals_full(self, indexed, seed, data):
        distances = segment_distances(seed)
        known = data.draw(st.integers(0, len(indexed)))
        full = alignment_dissimilarities(indexed, distances)
        prefix = alignment_dissimilarities(indexed[:known], distances)
        assert_bits_equal(
            alignment_dissimilarities(indexed, distances, known_distances=prefix), full
        )

    def test_reuse_copies_the_known_block(self):
        """Known pairs are taken as given, never realigned."""
        distances = segment_distances(1)
        indexed = [[0, 1], [1, 2], [3]]
        known = np.full((2, 2), 0.5)
        out = alignment_dissimilarities(indexed, distances, known_distances=known)
        assert out[0, 1] == 0.5 and out[1, 0] == 0.5
        assert out[0, 2] == oracle_dissimilarities(indexed, distances, GAP_PENALTY)[0, 2]

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (4,)])
    def test_rejects_malformed_known_block(self, shape):
        with pytest.raises(ValueError):
            alignment_dissimilarities(
                [[0], [1]], segment_distances(0), known_distances=np.zeros(shape)
            )


class TestAlignmentWork:
    @settings(max_examples=40, deadline=None)
    @given(sequences, st.data())
    def test_counts_the_new_nonempty_pairs(self, indexed, data):
        known = data.draw(st.integers(0, len(indexed)))
        pairs = [
            (len(indexed[i]), len(indexed[j]))
            for j in range(known, len(indexed))
            for i in range(j)
            if indexed[i] and indexed[j]
        ]
        assert alignment_work(indexed, known) == {
            "pairs_aligned": len(pairs),
            "pairs_reused": known * (known - 1) // 2,
            "dp_cells": sum(m * n for m, n in pairs),
        }
