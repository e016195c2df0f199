"""Whole-trace NEMESYS against the per-message oracle.

:class:`NemesysSegmenter` segments a trace in one vectorized pass over
the concatenated messages.  Its contract is that every message comes
out exactly as segmenting it alone would: the same ``Segment`` list
(message index, offset, bytes) as the per-message reference in
``tests/segmenters/nemesys_oracle.py``, and the same ``boundaries()``.
The generated traces mix many messages per call, including the empty,
1-, 2- and 3-byte messages at the algorithm's length cut-offs, with
printable-heavy, zero-heavy and random bytes, so runs and rising edges
meet message edges often.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.trace import Trace, TraceMessage
from repro.protocols import get_model
from repro.segmenters.nemesys import NemesysSegmenter
from tests.segmenters.nemesys_oracle import reference_boundaries, reference_segments

ALPHABETS = {
    "printable": b"abcXYZ 09-./\x00\x01\xff",
    "zero": b"\x00\x00\x00\x00\x01\x07\x80\xff",
    "random": bytes(range(256)),
}


@st.composite
def messages(draw):
    alphabet = ALPHABETS[draw(st.sampled_from(sorted(ALPHABETS)))]
    length = draw(st.integers(0, 40) | st.sampled_from([0, 1, 2, 3]))
    values = draw(st.lists(st.sampled_from(alphabet), min_size=length, max_size=length))
    return bytes(values)


def segment(datas, **parameters):
    trace = Trace(messages=[TraceMessage(data=data) for data in datas])
    return NemesysSegmenter(**parameters).segment_trace(trace)


@settings(max_examples=150, deadline=None)
@given(
    datas=st.lists(messages(), max_size=30),
    zero_min_run=st.sampled_from([None, 2, 4]),
    char_min_run=st.sampled_from([1, 4]),
)
def test_trace_pass_equals_per_message_oracle(datas, zero_min_run, char_min_run):
    parameters = {"zero_min_run": zero_min_run, "char_min_run": char_min_run}
    assert segment(datas, **parameters) == reference_segments(datas, **parameters)
    segmenter = NemesysSegmenter(**parameters)
    for data in datas:
        assert segmenter.boundaries(data) == reference_boundaries(data, **parameters)


@settings(max_examples=40, deadline=None)
@given(
    datas=st.lists(messages(), max_size=12),
    sigma=st.sampled_from([0.3, 1.5, 4.0]),
)
def test_wider_kernels_mirror_short_messages(datas, sigma):
    # A radius past a message's delta length reflects the padding more
    # than once, as gaussian_filter1d's reflect mode does.
    assert segment(datas, sigma=sigma) == reference_segments(datas, sigma=sigma)


@pytest.mark.parametrize("protocol", ["dns", "dhcp", "awdl", "smb"])
def test_protocol_traces_equal_per_message_oracle(protocol):
    datas = [message.data for message in get_model(protocol).generate(150, seed=3)]
    assert segment(datas, zero_min_run=4) == reference_segments(datas, zero_min_run=4)
    assert segment(datas) == reference_segments(datas)


def test_empty_trace():
    assert segment([]) == []
    assert segment([b"", b""]) == []
    assert NemesysSegmenter().boundaries(b"") == []


def test_segment_message_numbers_from_its_index():
    data = b"\x01\x02hostname\x00\x00\x00\x00\x81\x07"
    expected = [replace(s, message_index=7) for s in reference_segments([data])]
    assert len(expected) > 1
    assert NemesysSegmenter().segment_message(data, 7) == expected
