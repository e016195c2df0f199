"""NEMESYS heuristic segmenter (Kleber, Kopp, Kargl — WOOT 2018).

NEMESYS infers probable field boundaries from the *bit congruence* of
consecutive bytes: the fraction of equal bits between byte i-1 and
byte i.  Field starts show up as distinctive changes in this signal.
The algorithm:

1. compute the bit congruence ``BC(i)`` for every byte,
2. take its delta ``dBC(i) = BC(i) - BC(i-1)``,
3. smooth with a small Gaussian kernel (sigma 0.6),
4. place a boundary at the inflection point of each rising edge of the
   smoothed delta (the steepest ascent between a local minimum and the
   following local maximum),
5. apply the paper's "safety net" refinements: isolate printable
   character runs as their own segments and merge runs of zero bytes
   with a trailing boundary correction.

Every message is segmented on its own, but the steps run over a whole
trace at once: the messages are concatenated, each step is one array
operation over every byte, and whatever would cross from one message
into the next (a bit-congruence pair, the smoothing window, a rising
edge, a printable run) is cut at the message edges.  A single message
is the one-message case of the same pass.

Boundary errors on high-entropy fields (timestamps, signatures) are an
inherent property of the heuristic — the paper's Figure 3 shows exactly
this failure, which we reproduce faithfully.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import gaussian_filter1d

from repro.core.segments import Segment
from repro.net.trace import Trace
from repro.segmenters.base import Segmenter

_POPCOUNT = np.array([bin(x).count("1") for x in range(256)], dtype=np.float64)

#: Shortest message with a rising edge: its smoothed delta needs three
#: values to hold a local minimum and the rise after it.
_MIN_EDGE_BYTES = 5

#: Shortest message NEMESYS segments at all; shorter ones stay whole.
_MIN_SEGMENTED_BYTES = 3

#: ``gaussian_filter1d``'s default: the kernel reaches 4 sigma each way.
_GAUSSIAN_TRUNCATE = 4.0


def bit_congruence(data: bytes) -> np.ndarray:
    """BC(i) for i in [1, len): fraction of equal bits of bytes i-1, i."""
    if len(data) < 2:
        return np.zeros(0)
    arr = np.frombuffer(data, dtype=np.uint8)
    xor = np.bitwise_xor(arr[:-1], arr[1:])
    return 1.0 - _POPCOUNT[xor] / 8.0


def _edge_cuts(
    flat: bytes, starts: np.ndarray, lengths: np.ndarray, sigma: float
) -> np.ndarray:
    """Rising-edge boundaries of every message, as positions in *flat*.

    The delta of the bit congruence is taken over the concatenated bytes
    once; message i's delta is its ``lengths[i] - 2`` values from
    ``starts[i]`` on, so pairs that straddle two messages are never
    read.  Each message's delta is padded by the Gaussian radius with
    its own mirror image (``gaussian_filter1d``'s ``reflect`` mode) and
    all of them are smoothed by one filter call, which gives every
    interior value exactly as filtering the message alone would.

    A rising edge is a maximal run of steps up of one message's smoothed
    delta; its boundary sits after the first steepest step, 3 bytes past
    the step's index.  Each run's steepest step comes from one
    ``np.maximum.reduceat`` over the slopes with every other step masked
    to −inf, because ``reduceat`` reduces up to the *next* run start.
    """
    edged = lengths >= _MIN_EDGE_BYTES
    if not edged.any():
        return np.zeros(0, dtype=np.int64)
    delta = np.diff(bit_congruence(flat))
    first = starts[:-1][edged]
    count = lengths[edged] - 2
    radius = int(_GAUSSIAN_TRUNCATE * float(sigma) + 0.5)
    padded = count + 2 * radius
    local = np.arange(padded.sum()) - np.repeat(np.cumsum(padded) - padded + radius, padded)
    span = np.repeat(count, padded)
    mirrored = local % (2 * span)
    mirrored = np.where(mirrored < span, mirrored, 2 * span - 1 - mirrored)
    smoothed = gaussian_filter1d(delta[np.repeat(first, padded) + mirrored], sigma)
    smoothed = smoothed[(local >= 0) & (local < span)]
    # One flag per step smoothed[k] -> smoothed[k + 1]; the step out of
    # each message's last value leads into the next message.
    rising = smoothed[1:] > smoothed[:-1]
    rising[np.cumsum(count)[:-1] - 1] = False
    begins = rising & ~np.concatenate(([False], rising[:-1]))
    run_starts = np.flatnonzero(begins)
    if run_starts.size == 0:
        return np.zeros(0, dtype=np.int64)
    slope = np.where(rising, np.diff(smoothed), -np.inf)
    steepest = np.maximum.reduceat(slope, run_starts)
    run = np.cumsum(begins) - 1
    hits = np.flatnonzero(rising & (slope == steepest[run]))
    hit_runs = run[hits]
    steps = hits[np.concatenate(([True], hit_runs[1:] != hit_runs[:-1]))]
    # Step k of the concatenated smoothed deltas lies in message j at
    # local step k - (its first smoothed index); the boundary is 3 past it.
    shift = np.repeat(first - (np.cumsum(count) - count), count)
    return steps + shift[steps] + 3


def _runs(
    mask: np.ndarray, starts: np.ndarray, lengths: np.ndarray, min_run: int
) -> tuple[np.ndarray, np.ndarray]:
    """``[start, end)`` positions of *mask* runs of at least *min_run* bytes.

    Runs are broken at message edges and only messages of at least
    :data:`_MIN_SEGMENTED_BYTES` bytes have them.
    """
    message_start = np.zeros(mask.size + 1, dtype=bool)
    message_start[starts] = True
    mask = mask & np.repeat(lengths >= _MIN_SEGMENTED_BYTES, lengths)
    # continues[i]: byte i + 1 carries byte i's run on.
    continues = mask[:-1] & mask[1:] & ~message_start[1:-1]
    run_starts = np.flatnonzero(mask & ~np.concatenate(([False], continues)))
    run_ends = np.flatnonzero(mask & ~np.concatenate((continues, [False]))) + 1
    long_enough = run_ends - run_starts >= min_run
    return run_starts[long_enough], run_ends[long_enough]


def _refine(
    cuts: np.ndarray, runs: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Drop cuts strictly inside a run; cut at every run's edges.

    Runs are disjoint and sorted, so the only run that can hold a cut
    is the last one starting before it.
    """
    run_starts, run_ends = runs
    if run_starts.size == 0:
        return cuts
    before = np.searchsorted(run_starts, cuts) - 1
    inside = (before >= 0) & (cuts < run_ends[before])
    return np.concatenate((cuts[~inside], run_starts, run_ends))


class NemesysSegmenter(Segmenter):
    """Bit-congruence-based heuristic segmentation."""

    name = "nemesys"

    def __init__(
        self,
        sigma: float = 0.6,
        char_min_run: int = 4,
        zero_min_run: int | None = None,
    ):
        self.sigma = sigma
        self.char_min_run = char_min_run
        #: Isolate zero runs of at least this length as their own
        #: segments (the NEMESYS paper's padding refinement).  Off by
        #: default to keep the Table II results at their recorded
        #: configuration; enable for padding-heavy protocols (DHCP).
        self.zero_min_run = zero_min_run

    def _cuts(self, flat: bytes, starts: np.ndarray) -> np.ndarray:
        """Sorted inner boundaries of every message, as positions in *flat*.

        *flat* is the messages concatenated and *starts* their offsets
        in it, followed by its length.
        """
        if len(flat) < _MIN_SEGMENTED_BYTES:
            return np.zeros(0, dtype=np.int64)
        lengths = np.diff(starts)
        data = np.frombuffer(flat, dtype=np.uint8)
        cuts = _edge_cuts(flat, starts, lengths, self.sigma)
        # A long printable run is most likely one text field, and a long
        # zero run padding or an unset field: either keeps no inner
        # boundary and is cut at its edges.
        printable = (data >= 0x20) & (data < 0x7F)
        cuts = _refine(cuts, _runs(printable, starts, lengths, self.char_min_run))
        if self.zero_min_run is not None:
            cuts = _refine(cuts, _runs(data == 0, starts, lengths, self.zero_min_run))
        # Run edges may fall on a message's own start or end.
        return np.setdiff1d(cuts, starts)

    def _segments(self, datas: list[bytes], first_index: int = 0) -> list[Segment]:
        """Segments of *datas*, numbered from *first_index*, in message order."""
        flat = b"".join(datas)
        lengths = np.fromiter(map(len, datas), dtype=np.int64, count=len(datas))
        starts = np.concatenate(([0], np.cumsum(lengths)))
        seg_starts = np.union1d(starts[:-1][lengths > 0], self._cuts(flat, starts))
        seg_ends = np.append(seg_starts[1:], len(flat))
        message = np.searchsorted(starts[:-1], seg_starts, side="right") - 1
        offsets = seg_starts - starts[message]
        return [
            Segment(message_index=index, offset=offset, data=flat[start:end])
            for index, offset, start, end in zip(
                (message + first_index).tolist(),
                offsets.tolist(),
                seg_starts.tolist(),
                seg_ends.tolist(),
            )
        ]

    def boundaries(self, data: bytes) -> list[int]:
        """Inner boundary offsets for one message."""
        return self._cuts(data, np.array([0, len(data)])).tolist()

    def segment_message(self, data: bytes, message_index: int = 0) -> list[Segment]:
        return self._segments([data], message_index)

    def segment_trace(self, trace: Trace) -> list[Segment]:
        """Segment every message in one pass over the whole trace."""
        return self._segments([message.data for message in trace])
