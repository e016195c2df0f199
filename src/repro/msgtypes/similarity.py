"""Continuous segment similarity between messages (NEMETYL's core idea).

Two messages are similar when their *segment sequences* align well:
matching positions contribute the Canberra similarity of the aligned
segments, gaps are penalized.  The pairwise segment dissimilarities are
precomputed once over unique segment values (vectorized), so the
alignment DP only performs table lookups, and it runs for blocks of
message pairs at once (:func:`alignment_dissimilarities`).

The module exposes two layers: :func:`indexed_sequences` /
:func:`alignment_dissimilarities` work from an existing unique-segment
dissimilarity matrix — the message-type stage feeds them the field-type
pipeline's own matrix, which is what makes batch / prebuilt-matrix /
incremental-session message typing produce identical labels — while
:func:`message_dissimilarity_matrix` is the standalone convenience that
builds its matrix from scratch.
"""

from __future__ import annotations

import numpy as np

from repro.core.matrix import DissimilarityMatrix
from repro.core.segments import Segment, unique_segments
from repro.errors import IngestError

GAP_PENALTY = 0.8


def segment_sequences(segments: list[Segment], message_count: int) -> list[list[Segment]]:
    """Group a flat segment list into ordered per-message sequences.

    Raises :class:`~repro.errors.IngestError` for a segment whose
    message index is outside ``range(message_count)``.
    """
    sequences: list[list[Segment]] = [[] for _ in range(message_count)]
    for segment in segments:
        if not 0 <= segment.message_index < message_count:
            raise IngestError(
                f"segment at offset {segment.offset} belongs to message "
                f"{segment.message_index}, outside the {message_count} messages"
            )
        sequences[segment.message_index].append(segment)
    for sequence in sequences:
        sequence.sort(key=lambda s: s.offset)
    return sequences


def indexed_sequences(
    segments: list[Segment],
    message_count: int,
    index_of: dict[bytes, int],
) -> list[list[int]]:
    """Per-message sequences of unique-segment indices.

    *index_of* maps segment values to their row in the unique-segment
    dissimilarity matrix; values absent from the table (segments
    excluded from clustering, e.g. 1-byte segments) become index -1,
    which the alignment matches with score 0.
    """
    return [
        [index_of.get(s.data, -1) for s in sequence]
        for sequence in segment_sequences(segments, message_count)
    ]


#: Message pairs per DP block.  Pairs are sorted by their sequence
#: lengths, so each block trims its work arrays to its own longest
#: pair; the constant bounds those ``(segments + 1, PAIR_BLOCK)`` arrays
#: and with them the kernel's peak memory.
PAIR_BLOCK = 1024


def _padded(indexed: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Index sequences as one ``(messages, longest)`` array padded with
    -1, plus the per-message sequence lengths."""
    lengths = np.array([len(sequence) for sequence in indexed], dtype=np.int64)
    width = max(int(lengths.max(initial=0)), 1)
    padded = np.full((len(indexed), width), -1, dtype=np.int64)
    for row, sequence in enumerate(indexed):
        padded[row, : len(sequence)] = sequence
    return padded, lengths


def _pair_scores(
    first: np.ndarray,
    second: np.ndarray,
    padded: np.ndarray,
    lengths: np.ndarray,
    distances: np.ndarray,
    gap_penalty: float,
) -> np.ndarray:
    """Needleman–Wunsch scores of the message pairs ``(first[k], second[k])``.

    Match score is ``1 - d`` for the aligned segments' dissimilarity;
    gaps cost ``-gap_penalty``.  Index -1 denotes a segment excluded
    from the distance table (1-byte segments), matched with score 0.

    Each block of pairs runs the DP row by row on ``(n + 1, pairs)``
    arrays: the diagonal and up moves for a whole row at once, the
    left dependency as a scan over columns that is vectorized across
    pairs only.  A pair's cells at or before ``(len a, len b)`` never
    read the -1 padding to its right or below, so every pair performs
    exactly the float operations of a scalar DP over its own sequences
    and its score is bit-identical to it.
    """
    scores = np.empty(len(first), dtype=np.float64)
    order = np.lexsort((lengths[second], lengths[first]))
    for start in range(0, len(order), PAIR_BLOCK):
        block = order[start : start + PAIR_BLOCK]
        rows, cols = lengths[first[block]], lengths[second[block]]
        m, n = int(rows[-1]), int(cols.max())
        a = padded[first[block], :m].T
        b = padded[second[block], :n].T
        b_valid = b >= 0
        b_index = np.where(b_valid, b, 0)
        previous = np.repeat((-gap_penalty * np.arange(n + 1))[:, None], len(block), axis=1)
        current = np.empty_like(previous)
        shifted = np.empty(len(block))
        for i in range(1, m + 1):
            ai = a[i - 1]
            valid = b_valid & (ai >= 0)
            match = np.where(
                valid, 1.0 - distances[np.where(ai >= 0, ai, 0), b_index], 0.0
            )
            best = np.maximum(previous[:-1] + match, previous[1:] - gap_penalty)
            current[0] = -gap_penalty * i
            for j in range(1, n + 1):
                np.subtract(current[j - 1], gap_penalty, out=shifted)
                np.maximum(best[j - 1], shifted, out=current[j])
            done = np.flatnonzero(rows == i)
            scores[block[done]] = current[cols[done], done]
            previous, current = current, previous
    return scores


def alignment_dissimilarities(
    indexed: list[list[int]],
    distances: np.ndarray,
    gap_penalty: float = GAP_PENALTY,
    *,
    known_distances: np.ndarray | None = None,
) -> np.ndarray:
    """Pairwise message dissimilarities in [0, 1] from index sequences.

    The alignment similarity is normalized by the self-alignment scores:
    ``d(A, B) = 1 - score(A, B) / max(score(A, A), score(B, B))``,
    clipped to [0, 1].  Empty sequences are maximally dissimilar to
    everything (1.0).

    *known_distances* is this function's earlier result over the first
    K messages of *indexed*: it is copied, and only the pairs that
    involve a message at index K or later are aligned.  A pair's
    dissimilarity depends only on its two sequences and their entries
    in *distances*, so the result is bit-identical to a computation
    from scratch as long as those are unchanged.
    """
    message_count = len(indexed)
    known = 0 if known_distances is None else len(known_distances)
    if known_distances is not None and (
        known_distances.shape != (known, known) or known > message_count
    ):
        raise ValueError(
            f"known_distances of shape {known_distances.shape} is not a "
            f"square block of {message_count} messages"
        )
    out = np.zeros((message_count, message_count), dtype=np.float64)
    if known:
        out[:known, :known] = known_distances
    padded, lengths = _padded(indexed)
    first, second = np.triu_indices(message_count, 1)
    new = second >= known
    first, second = first[new], second[new]
    out[first, second] = out[second, first] = 1.0
    aligned = (lengths[first] > 0) & (lengths[second] > 0)
    first, second = first[aligned], second[aligned]
    if not len(first):
        return out
    nonempty = np.flatnonzero(lengths > 0)
    self_scores = np.zeros(message_count, dtype=np.float64)
    self_scores[nonempty] = _pair_scores(
        nonempty, nonempty, padded, lengths, distances, gap_penalty
    )
    scores = _pair_scores(first, second, padded, lengths, distances, gap_penalty)
    norm = np.maximum(self_scores[first], self_scores[second])
    with np.errstate(divide="ignore", invalid="ignore"):
        dissimilarity = np.where(norm > 0, 1.0 - scores / norm, 1.0)
    out[first, second] = out[second, first] = np.clip(dissimilarity, 0.0, 1.0)
    return out


def alignment_work(indexed: list[list[int]], known: int = 0) -> dict[str, int]:
    """What :func:`alignment_dissimilarities` aligns given *known*
    messages' distances: ``pairs_aligned`` (message pairs it scores
    with the DP), ``pairs_reused`` (pairs copied from the known block)
    and ``dp_cells`` (``Σ |a|·|b|`` over the aligned pairs)."""
    lengths = np.array([len(sequence) for sequence in indexed], dtype=np.int64)
    before = np.cumsum(lengths) - lengths
    nonempty_before = np.cumsum(lengths > 0) - (lengths > 0)
    new = lengths[known:]
    return {
        "pairs_aligned": int(np.dot(new > 0, nonempty_before[known:])),
        "pairs_reused": known * (known - 1) // 2,
        "dp_cells": int(np.dot(new, before[known:])),
    }


def message_dissimilarity_matrix(
    segments: list[Segment],
    message_count: int,
    gap_penalty: float = GAP_PENALTY,
    min_segment_length: int = 2,
) -> np.ndarray:
    """Pairwise message dissimilarities in [0, 1], matrix built in place.

    Builds the unique-segment dissimilarity matrix from *segments* and
    delegates to :func:`alignment_dissimilarities`; callers that already
    own a matrix (the message-type stage reuses the field pipeline's)
    call the two lower-level helpers directly.
    """
    uniques = unique_segments(segments, min_length=min_segment_length)
    matrix = DissimilarityMatrix.build(uniques)
    index_of = {u.data: i for i, u in enumerate(matrix.segments)}
    indexed = indexed_sequences(segments, message_count, index_of)
    return alignment_dissimilarities(indexed, matrix.values, gap_penalty)
