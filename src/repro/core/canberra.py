"""Canberra dissimilarity between byte-value vectors (paper Section III-C).

Two layers:

- :func:`canberra_distance` — the classic Canberra distance of Lance &
  Williams (1966) between equal-length vectors, normalized by the
  dimension so it lies in [0, 1].
- :func:`canberra_dissimilarity` — the length-tolerant extension from
  the authors' NEMETYL paper (Kleber et al., INFOCOM 2020): the shorter
  segment slides over the longer one; the best-matching overlap is
  combined with a penalty for the non-overlapping remainder:

  ``d(u, v) = (m * d_min + (n - m) * p) / n``  with
  ``p = pf + (1 - pf) * d_min`` and ``pf`` the penalty floor (0.33).

  The penalty interpolates between a floor for the length mismatch and
  the observed overlap dissimilarity, keeping ``d`` within [0, 1],
  monotone in the overlap quality, and monotone in the length mismatch
  (see DESIGN.md for the rationale where the paper under-specifies).

On top of the per-pair functions sit the two **row kernels** the
matrix builder's tiles run, each computing a range of rows of one uint8
block at once: :func:`equal_length_cross_rows` for equal-length pairs
(an equal-length bin's upper band is its rows against the bin from the
tile's first row on) and :func:`cross_length_rows` for unequal
lengths.  Because byte values live in ``[0, 255]``, every Canberra
term is one of 256×256 possible values; the kernels resolve them
through a precomputed 512 KB lookup table (:func:`byte_term_lut`),
replacing the abs/add/divide/where chain by a single gather.  Both
reduce the gathered terms of a cell to their mean through one helper:
rows of up to 8 bytes add m 2-D term planes in numpy's own
``add.reduce`` order, so the result is bit-identical to
``.mean(axis=-1)`` over the 3-D gather without paying one inner-loop
call per cell; longer rows use ``.mean`` itself.  The cross-length
kernel compares a short block with a whole group of longer blocks:
their m-byte windows are collected once (:func:`sliding_windows`),
deduplicated when m ≤ :data:`WINDOW_KEY_BYTES`, scored, and reduced to
each longer segment's sliding minimum.  Work is chunked to a fixed
temporary budget so peak memory stays bounded.  The tests pin these
kernels against per-pair oracles built on the two functions above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Penalty floor for non-overlapping bytes of unequal-length segments.
#: Chosen so that a segment of half the other's length keeps a floor
#: dissimilarity of 0.3 even on a perfect sliding match — below that,
#: short random values (counters, ids) chain into longer high-entropy
#: fields (timestamps, signatures) through coincidental substring
#: matches and drag whole types together (observed on SMB and AWDL).
DEFAULT_PENALTY_FACTOR = 0.6


def canberra_terms(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise Canberra terms ``|x-y| / (x+y)`` with 0/0 := 0."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    denominator = np.abs(x) + np.abs(y)
    numerator = np.abs(x - y)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(denominator > 0, numerator / denominator, 0.0)
    return terms


def canberra_distance(x, y) -> float:
    """Normalized Canberra distance between equal-length byte vectors."""
    x = _as_vector(x)
    y = _as_vector(y)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if x.size == 0:
        return 0.0
    return float(canberra_terms(x, y).mean())


def canberra_dissimilarity(
    u, v, penalty_factor: float = DEFAULT_PENALTY_FACTOR
) -> float:
    """Length-tolerant Canberra dissimilarity in [0, 1].

    Equal-length inputs reduce to :func:`canberra_distance`.
    """
    u = _as_vector(u)
    v = _as_vector(v)
    if len(u) > len(v):
        u, v = v, u
    m, n = len(u), len(v)
    if m == 0:
        return 1.0 if n else 0.0
    if m == n:
        return float(canberra_terms(u, v).mean())
    d_min = sliding_min_distance(u, v)
    penalty = penalty_factor + (1.0 - penalty_factor) * d_min
    return float((m * d_min + (n - m) * penalty) / n)


def sliding_min_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Minimum mean Canberra term over all alignments of *u* within *v*."""
    m, n = len(u), len(v)
    windows = np.lib.stride_tricks.sliding_window_view(v, m)  # (n-m+1, m)
    terms = canberra_terms(u[np.newaxis, :], windows)
    return float(terms.mean(axis=1).min())


def _as_vector(data) -> np.ndarray:
    if isinstance(data, (bytes, bytearray, memoryview)):
        return np.frombuffer(bytes(data), dtype=np.uint8).astype(np.float64)
    return np.asarray(data, dtype=np.float64)


#: Cap on temporary broadcast cells (float64) per chunk: ~160 MB.  Also
#: the tile-size target of the matrix scheduler — one work item covers
#: about one chunk's worth of gather cells, so tile boundaries are
#: deterministic (worker-count independent) and per-tile temporaries
#: stay inside this budget.
CHUNK_CELL_BUDGET = 20_000_000

_BYTE_TERM_LUT: np.ndarray | None = None


def _chunk_rows_for(cells_per_row: int, cells_budget: int | None = None) -> int:
    budget = CHUNK_CELL_BUDGET if cells_budget is None else cells_budget
    return max(1, budget // max(1, cells_per_row))


def _uint8_block(block) -> np.ndarray:
    """*block* as an array, which the LUT kernels need to be uint8."""
    block = np.asarray(block)
    if block.dtype != np.uint8:
        raise TypeError(f"kernel blocks must be uint8, got {block.dtype}")
    return block


def byte_term_lut() -> np.ndarray:
    """The 256×256 float64 table of Canberra byte terms ``|i−j|/(i+j)``.

    Built lazily with :func:`canberra_terms` itself, so each entry is the
    exact IEEE-754 value the broadcast formula would produce — gathering
    from the table is bit-identical to computing the term, just cheaper
    (one indexed load instead of abs/add/divide/select per cell).
    """
    global _BYTE_TERM_LUT
    if _BYTE_TERM_LUT is None:
        values = np.arange(256, dtype=np.float64)
        _BYTE_TERM_LUT = canberra_terms(values[:, np.newaxis], values[np.newaxis, :])
    return _BYTE_TERM_LUT


#: Widest rows :func:`_term_means` sums column by column.  numpy's
#: ``add.reduce`` adds fewer than 8 contiguous terms left to right and
#: exactly 8 as the tree ``((t0+t1)+(t2+t3))+((t4+t5)+(t6+t7))``; past
#: 8 it runs 8 strided accumulators plus a remainder, which is not
#: mirrored here.
COLUMN_SUM_TERMS = 8


def _term_means(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mean Canberra term of every row of *a* against every row of *b*.

    Both are ``(count, m)`` uint8 with ``m >= 1``; returns the
    ``(len(a), len(b))`` float64 block, bit-identical to
    ``lut[a[:, None, :], b[None]].mean(axis=-1)``.  For m ≤
    :data:`COLUMN_SUM_TERMS` the m terms are gathered as m 2-D
    ``(len(a), len(b))`` planes and added in numpy's own reduction
    order, then divided by m as ``.mean`` does: whole-plane adds
    instead of one ufunc inner-loop call per cell, and 2-D temporaries
    instead of an m-deep 3-D one.  Each plane first takes the LUT
    entries of the operand with fewer rows, a narrow ``(256, rows)``
    table, and then gathers the taller operand along it.  Wider rows
    keep ``.mean``.
    """
    lut = byte_term_lut()
    m = a.shape[1]
    if m > COLUMN_SUM_TERMS:
        return lut[a[:, np.newaxis, :], b[np.newaxis]].mean(axis=-1)
    if b.shape[0] < a.shape[0]:

        def term(k: int) -> np.ndarray:
            return lut[:, b[:, k]][a[:, k]]

    else:

        def term(k: int) -> np.ndarray:
            return np.take(lut[a[:, k]], b[:, k], axis=1)

    if m == COLUMN_SUM_TERMS:

        def pair(k: int) -> np.ndarray:
            total = term(k)
            total += term(k + 1)
            return total

        total = pair(0)
        total += pair(2)
        right = pair(4)
        right += pair(6)
        total += right
    else:
        total = term(0)
        for k in range(1, m):
            total += term(k)
    total /= m
    return total


#: Longest window the cross-length kernel deduplicates: up to 8 bytes
#: pack into one big-endian ``uint64`` key, so ``np.unique`` sorts plain
#: integers.  Longer windows would need a void-row ``np.unique``, which
#: costs more than the gathers it saves.
WINDOW_KEY_BYTES = 8


@dataclass(frozen=True)
class SlidingWindows:
    """The m-byte windows of a group of longer blocks.

    Windows are numbered block by block, row by row, offset by offset,
    so each longer segment owns one contiguous run of them.  Windows of
    at most :data:`WINDOW_KEY_BYTES` bytes are deduplicated:
    *unique* holds the distinct windows and *inverse* maps every window
    to its row there.  Otherwise both are None and the kernel slides
    over the blocks directly.
    """

    length: int
    long_blocks: tuple[np.ndarray, ...]
    unique: np.ndarray | None = None
    inverse: np.ndarray | None = None

    @property
    def count(self) -> int:
        """Windows collected over every longer segment."""
        return sum(
            block.shape[0] * (block.shape[1] - self.length + 1)
            for block in self.long_blocks
        )

    @property
    def unique_count(self) -> int:
        """Windows the kernel scores: the distinct ones when deduplicated."""
        return self.count if self.unique is None else self.unique.shape[0]


def sliding_windows(long_blocks, length: int) -> SlidingWindows:
    """Collect the *length*-byte windows of *long_blocks*, deduplicated if they fit a key.

    Every block is ``(count, n)`` uint8 with ``n > length``.  The windows are
    packed into big-endian ``uint64`` keys and deduplicated with one
    ``np.unique``; decoding the distinct keys gives back their exact
    bytes, so scoring a distinct window is the same gather as scoring
    any of its copies.
    """
    blocks = tuple(_uint8_block(block) for block in long_blocks)
    for block in blocks:
        if length >= block.shape[1]:
            raise ValueError(f"short block must be shorter: {length} >= {block.shape[1]}")
    if not blocks or not 0 < length <= WINDOW_KEY_BYTES:
        return SlidingWindows(length, blocks)
    keys = np.concatenate([_window_keys(block, length).ravel() for block in blocks])
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    shifts = np.arange(8 * (length - 1), -1, -8, dtype=np.uint64)
    unique = (unique_keys[:, np.newaxis] >> shifts).astype(np.uint8)
    return SlidingWindows(length, blocks, unique, inverse.reshape(-1))


def _window_keys(block: np.ndarray, length: int) -> np.ndarray:
    """Big-endian ``uint64`` key of every window: ``(count, n - length + 1)``."""
    offsets = block.shape[1] - length + 1
    keys = block[:, :offsets].astype(np.uint64)
    for column in range(1, length):
        keys <<= np.uint64(8)
        keys |= block[:, column : column + offsets]
    return keys


def _penalized(d_min: np.ndarray, m: int, n: int, penalty_factor: float) -> np.ndarray:
    """:func:`canberra_dissimilarity`'s length penalty over sliding minima."""
    penalty = penalty_factor + (1.0 - penalty_factor) * d_min
    return (m * d_min + (n - m) * penalty) / n


def cross_length_rows(
    short_block: np.ndarray,
    windows: SlidingWindows,
    row_start: int,
    row_stop: int,
    penalty_factor: float = DEFAULT_PENALTY_FACTOR,
    *,
    cells_budget: int | None = None,
) -> np.ndarray:
    """Rows ``[row_start, row_stop)`` of a short block against a window group.

    The cross-length kernel: *short_block* is ``(a, m)`` and *windows*
    holds the m-byte windows of every longer block it is compared to.
    Returns the ``(row_stop - row_start, b)`` dissimilarities, ``b`` the
    longer segments in block order.

    Deduplicated windows are scored once with
    :func:`equal_length_cross_rows`, and each longer segment takes the
    minimum over its own run of them by index gather.  Otherwise the
    rows slide over each longer block in turn.  Either way a window's
    value is the same LUT gather reduced in the same order over its m
    terms, and ``min`` is exact, so the result is bit-identical to a
    per-block sliding minimum.  *cells_budget* bounds every per-chunk
    temporary: the LUT gather, the window means and the minimum gather.
    """
    short_block = _uint8_block(short_block)
    m = windows.length
    count, length = short_block.shape
    if length != m:
        raise ValueError(f"short block length {length} != window length {m}")
    if not 0 <= row_start <= row_stop <= count:
        raise ValueError(
            f"tile rows [{row_start}, {row_stop}) outside block of {count} rows"
        )
    long_blocks = windows.long_blocks
    shape = (row_stop - row_start, sum(block.shape[0] for block in long_blocks))
    if m == 0:
        # An empty segment has no overlap with any longer one.
        return np.ones(shape, dtype=np.float64)
    out = np.empty(shape, dtype=np.float64)
    unique = windows.unique
    lut = byte_term_lut()
    widest = max(
        (block.shape[0] * (block.shape[1] - m + 1) for block in long_blocks), default=0
    )
    if unique is None:
        cells_per_row = widest * (m + 1)
    else:
        cells_per_row = unique.shape[0] * (m + 1) + widest
    chunk_rows = _chunk_rows_for(cells_per_row, cells_budget)
    for start in range(row_start, row_stop, chunk_rows):
        stop = min(start + chunk_rows, row_stop)
        if unique is not None:
            # (unique, c): the LUT is exactly symmetric, so scoring the
            # windows against the rows is the row-major gather
            # transposed, term for term — and lets the minimum gather
            # below copy whole rows.
            scores = equal_length_cross_rows(
                unique,
                short_block[start:stop],
                0,
                unique.shape[0],
                cells_budget=cells_budget,
            )
        column = first = 0
        for block in long_blocks:
            b, n = block.shape
            offsets = n - m + 1
            if unique is not None:
                runs = windows.inverse[first : first + b * offsets].reshape(b, offsets)
                d_min = scores[runs].min(axis=1).T  # (c, b)
            else:
                left = short_block[start:stop, np.newaxis, np.newaxis, :]  # (c,1,1,m)
                right = np.lib.stride_tricks.sliding_window_view(block, m, axis=1)[
                    np.newaxis
                ]  # (1,b,offsets,m)
                d_min = lut[left, right].mean(axis=3).min(axis=2)  # (c, b)
            out[start - row_start : stop - row_start, column : column + b] = _penalized(
                d_min, m, n, penalty_factor
            )
            column += b
            first += b * offsets
    return out


def equal_length_cross_rows(
    block_a: np.ndarray,
    block_b: np.ndarray,
    row_start: int,
    row_stop: int,
    *,
    cells_budget: int | None = None,
) -> np.ndarray:
    """Rows ``[row_start, row_stop)`` of *block_a* against every row of *block_b*.

    The equal-length kernel: both blocks are ``(count, length)`` uint8
    with the same length, and the result is the
    ``(row_stop - row_start, count_b)`` block of normalized Canberra
    distances.  It serves every equal-length tile of the matrix
    builder: an equal-length bin's upper band is
    ``equal_length_cross_rows(block, block[row_start:], row_start,
    row_stop)``, and an append's new-vs-old rectangle pairs the new
    block with the old one.  Every cell is the mean of the same
    gathered terms, reduced in the same order, no matter how rows are
    tiled or chunked or which block a pair sits in — so tiled builds
    stay bit-identical to one whole-bin tile, and an appended matrix to
    a batch build over the union.  *cells_budget* caps the per-chunk
    temporary (default: the whole :data:`CHUNK_CELL_BUDGET`); the
    threaded scheduler divides it across workers so aggregate peak
    memory is worker-count independent.
    """
    block_a = _uint8_block(block_a)
    block_b = _uint8_block(block_b)
    count_a, length_a = block_a.shape
    count_b, length_b = block_b.shape
    if length_a != length_b:
        raise ValueError(
            f"equal-length cross kernel needs equal lengths: "
            f"{length_a} != {length_b}"
        )
    if not 0 <= row_start <= row_stop <= count_a:
        raise ValueError(
            f"tile rows [{row_start}, {row_stop}) outside block of {count_a} rows"
        )
    out = np.zeros((row_stop - row_start, count_b), dtype=np.float64)
    if length_a == 0:
        return out
    chunk_rows = _chunk_rows_for(count_b * length_a, cells_budget)
    for start in range(row_start, row_stop, chunk_rows):
        stop = min(start + chunk_rows, row_stop)
        out[start - row_start : stop - row_start] = _term_means(
            block_a[start:stop], block_b
        )
    return out
