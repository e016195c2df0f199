import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.net.trace import Trace, TraceMessage
from repro.segmenters.nemesys import NemesysSegmenter, bit_congruence
from tests.segmenters.nemesys_oracle import delta_bc, smoothed_delta_bc


class TestBitCongruence:
    def test_identical_bytes(self):
        assert list(bit_congruence(b"\xaa\xaa")) == [1.0]

    def test_complement_bytes(self):
        assert list(bit_congruence(b"\x00\xff")) == [0.0]

    def test_half_match(self):
        # 0x0f vs 0x00: four equal bits.
        assert list(bit_congruence(b"\x0f\x00")) == [0.5]

    def test_short_input(self):
        assert bit_congruence(b"").size == 0
        assert bit_congruence(b"x").size == 0

    @given(st.binary(min_size=2, max_size=32))
    def test_range_property(self, data):
        bc = bit_congruence(data)
        assert bc.size == len(data) - 1
        assert np.all((0.0 <= bc) & (bc <= 1.0))


class TestDelta:
    def test_sizes(self):
        assert delta_bc(b"abc").size == 1
        assert smoothed_delta_bc(b"abcdef").size == 4

    def test_smoothing_reduces_variation(self):
        data = bytes([0, 255] * 20)
        raw = delta_bc(data)
        smooth = smoothed_delta_bc(data)
        assert np.abs(smooth).max() <= np.abs(raw).max() + 1e-9


class TestNemesysSegmenter:
    def test_tiles_message(self):
        seg = NemesysSegmenter()
        data = bytes(range(50))
        segments = seg.segment_message(data, 3)
        assert b"".join(s.data for s in segments) == data
        assert all(s.message_index == 3 for s in segments)

    def test_finds_structure_transition(self):
        # Constant block followed by a very different constant block:
        # bit congruence dips exactly at the transition.
        data = b"\x00" * 8 + b"\xff\x0f\xff\x0f\xff\x0f\xff\x0f"
        boundaries = NemesysSegmenter().boundaries(data)
        assert any(7 <= b <= 9 for b in boundaries), boundaries

    def test_char_sequences_kept_together(self):
        data = b"\x01\x02" + b"hostname-string" + b"\x80\x81\x07\xff"
        seg = NemesysSegmenter()
        segments = seg.segment_message(data, 0)
        text_segments = [s for s in segments if b"hostname" in s.data]
        assert len(text_segments) == 1
        assert text_segments[0].data == b"hostname-string"

    def test_tiny_messages(self):
        seg = NemesysSegmenter()
        for data in (b"", b"a", b"ab"):
            segments = seg.segment_message(data, 0)
            assert b"".join(s.data for s in segments) == data

    def test_segment_trace(self):
        trace = Trace(
            messages=[TraceMessage(data=bytes(range(i, i + 20))) for i in range(5)]
        )
        segments = NemesysSegmenter().segment(trace)
        assert {s.message_index for s in segments} == set(range(5))

    @given(st.binary(max_size=128))
    def test_tiling_property(self, data):
        segments = NemesysSegmenter().segment_message(data, 0)
        assert b"".join(s.data for s in segments) == data


class TestZeroRunRefinement:
    def test_zero_run_isolated_when_enabled(self):
        data = b"\x81\x42\x07" + bytes(20) + b"\x99\x17\xee\x31"
        seg = NemesysSegmenter(zero_min_run=4)
        segments = seg.segment_message(data, 0)
        zero_segments = [s for s in segments if s.data == bytes(20)]
        assert len(zero_segments) == 1
        assert zero_segments[0].offset == 3

    def test_disabled_by_default(self):
        seg = NemesysSegmenter()
        assert seg.zero_min_run is None

    def test_short_zero_runs_untouched(self):
        data = b"\xff\x00\x00\xff" * 4
        seg = NemesysSegmenter(zero_min_run=8)
        segments = seg.segment_message(data, 0)
        assert b"".join(s.data for s in segments) == data

    @given(st.binary(max_size=96))
    def test_tiling_with_zero_refinement(self, data):
        segments = NemesysSegmenter(zero_min_run=3).segment_message(data, 0)
        assert b"".join(s.data for s in segments) == data
