"""Per-message NEMESYS reference: the oracle of the whole-trace segmenter.

:class:`~repro.segmenters.nemesys.NemesysSegmenter` segments a whole
trace in one vectorized pass.  This module keeps the straightforward
per-message formulation — smooth one message's bit-congruence delta,
walk its rising edges byte by byte, scan its printable and zero runs —
so the tests can check the production path against it bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import gaussian_filter1d

from repro.core.segments import Segment
from repro.segmenters.base import boundaries_to_segments
from repro.segmenters.nemesys import bit_congruence


def delta_bc(data: bytes) -> np.ndarray:
    """Delta of the bit congruence, aligned so index i maps to byte i+2."""
    bc = bit_congruence(data)
    if bc.size < 2:
        return np.zeros(0)
    return np.diff(bc)


def smoothed_delta_bc(data: bytes, sigma: float = 0.6) -> np.ndarray:
    delta = delta_bc(data)
    if delta.size == 0:
        return delta
    return gaussian_filter1d(delta, sigma=sigma)


def rising_inflections(smoothed: np.ndarray) -> list[int]:
    """Indices of the steepest rise between each local min and next max."""
    if smoothed.size < 3:
        return []
    boundaries = []
    slope = np.diff(smoothed)
    i = 0
    size = smoothed.size
    while i < size - 1:
        # Find a local minimum (start of a rising edge).
        if smoothed[i + 1] > smoothed[i] and (i == 0 or smoothed[i - 1] >= smoothed[i]):
            j = i
            while j < size - 1 and smoothed[j + 1] > smoothed[j]:
                j += 1
            # Steepest single-step ascent within (i, j].
            rise = slope[i:j]
            if rise.size:
                steepest = i + int(np.argmax(rise)) + 1
                boundaries.append(steepest)
            i = j
        else:
            i += 1
    return boundaries


def _runs(data: bytes, predicate, min_run: int) -> tuple[list[int], list[int]]:
    """Start/end cut positions of runs of *predicate* bytes of at least *min_run*."""
    starts: list[int] = []
    ends: list[int] = []
    run_start = None
    for index in range(len(data) + 1):
        inside = index < len(data) and predicate(data[index])
        if inside and run_start is None:
            run_start = index
        elif not inside and run_start is not None:
            if index - run_start >= min_run:
                starts.append(run_start)
                ends.append(index)
            run_start = None
    return starts, ends


def char_run_boundaries(data: bytes, min_run: int = 4) -> tuple[list[int], list[int]]:
    """Start/end cut positions of printable character runs of min length."""
    return _runs(data, lambda byte: 0x20 <= byte < 0x7F, min_run)


def zero_run_boundaries(data: bytes, min_run: int) -> tuple[list[int], list[int]]:
    """Start/end cut positions of zero-byte runs of at least *min_run*."""
    return _runs(data, lambda byte: byte == 0, min_run)


def _apply_run_refinement(
    boundaries: list[int], runs: tuple[list[int], list[int]]
) -> list[int]:
    """Drop boundaries inside detected runs; cut at the run edges."""
    starts, ends = runs
    if not starts:
        return boundaries
    kept = [b for b in boundaries if not any(s < b < e for s, e in zip(starts, ends))]
    return kept + starts + ends


def reference_boundaries(
    data: bytes,
    sigma: float = 0.6,
    char_min_run: int = 4,
    zero_min_run: int | None = None,
) -> list[int]:
    """Inner boundary offsets of one message, computed message by message."""
    if len(data) < 3:
        return []
    smoothed = smoothed_delta_bc(data, sigma=sigma)
    raw = [i + 2 for i in rising_inflections(smoothed)]
    raw = _apply_run_refinement(raw, char_run_boundaries(data, char_min_run))
    if zero_min_run is not None:
        raw = _apply_run_refinement(raw, zero_run_boundaries(data, zero_min_run))
    return sorted({b for b in raw if 0 < b < len(data)})


def reference_segments(datas, **parameters) -> list[Segment]:
    """Segments of every message in *datas*, one message at a time."""
    segments: list[Segment] = []
    for index, data in enumerate(datas):
        boundaries = reference_boundaries(data, **parameters)
        segments.extend(boundaries_to_segments(data, boundaries, index))
    return segments
