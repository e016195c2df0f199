import numpy as np
import pytest

from repro.core.segments import Segment
from repro.errors import IngestError
from repro.msgtypes.similarity import (
    message_dissimilarity_matrix,
    segment_sequences,
)


def seg(data, msg, offset=0):
    return Segment(message_index=msg, offset=offset, data=data)


class TestSegmentSequences:
    def test_grouping_and_order(self):
        segments = [
            seg(b"bb", 0, offset=2),
            seg(b"aa", 0, offset=0),
            seg(b"cc", 1, offset=0),
        ]
        sequences = segment_sequences(segments, 3)
        assert [s.data for s in sequences[0]] == [b"aa", b"bb"]
        assert [s.data for s in sequences[1]] == [b"cc"]
        assert sequences[2] == []

    @pytest.mark.parametrize("index", [3, -1])
    def test_message_index_out_of_range_raises(self, index):
        segments = [seg(b"aa", 0), seg(b"bb", index)]
        with pytest.raises(IngestError, match=f"message {index}, outside the 3"):
            segment_sequences(segments, 3)


class TestMessageDissimilarity:
    def test_identical_messages_zero(self):
        segments = [seg(b"aa", 0), seg(b"bb", 0, 2), seg(b"aa", 1), seg(b"bb", 1, 2)]
        matrix = message_dissimilarity_matrix(segments, 2)
        assert matrix[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_disjoint_value_messages_high(self):
        segments = [
            seg(b"\x00\x01", 0),
            seg(b"\x02\x03", 0, 2),
            seg(b"\xf0\xf1", 1),
            seg(b"\xd0\xd1", 1, 2),
        ]
        matrix = message_dissimilarity_matrix(segments, 2)
        assert matrix[0, 1] > 0.4

    def test_shared_prefix_intermediate(self):
        shared = seg(b"\x10\x20", 0)
        segments = [
            shared,
            seg(b"\x02\x03", 0, 2),
            seg(b"\x10\x20", 1),
            seg(b"\xd0\xd1", 1, 2),
        ]
        matrix = message_dissimilarity_matrix(segments, 2)
        assert 0.05 < matrix[0, 1] < 0.9

    def test_symmetric_zero_diagonal(self):
        segments = [
            seg(bytes([i, i + 1]), m, offset=o * 2)
            for m in range(4)
            for o, i in enumerate((m, m + 3, m + 6))
        ]
        matrix = message_dissimilarity_matrix(segments, 4)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)
        assert matrix.min() >= 0.0 and matrix.max() <= 1.0

    def test_empty_message_maximally_distant(self):
        segments = [seg(b"aa", 0)]
        matrix = message_dissimilarity_matrix(segments, 2)
        assert matrix[0, 1] == 1.0

    def test_different_lengths_aligned(self):
        # Message 1 has an extra segment: still similar, not identical.
        segments = [
            seg(b"\x10\x20", 0),
            seg(b"\x30\x40", 0, 2),
            seg(b"\x10\x20", 1),
            seg(b"\x30\x40", 1, 2),
            seg(b"\x55\x66", 1, 4),
        ]
        # score(A,B) = 2 matches - 1 gap = 1.2, normalized by the longer
        # self-score 3.0 -> dissimilarity 0.6.
        matrix = message_dissimilarity_matrix(segments, 2)
        assert 0.0 < matrix[0, 1] <= 0.6 + 1e-9
