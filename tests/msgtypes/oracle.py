"""Scalar Needleman–Wunsch reference for the batched similarity kernel.

One Python DP per message pair, exactly as the message-type stage
computed distances before the DP was batched across pairs.  The
property tests in ``test_kernel.py`` hold
:func:`repro.msgtypes.similarity.alignment_dissimilarities` to these
results bit for bit.
"""

from __future__ import annotations

import numpy as np


def align_score(
    a: list[int], b: list[int], distances: np.ndarray, gap_penalty: float
) -> float:
    """Needleman–Wunsch similarity score of two index sequences.

    Match score is ``1 - d`` for the aligned segments' dissimilarity;
    gaps cost ``-gap_penalty``.  Index -1 denotes a segment excluded
    from the distance table (1-byte segments), matched with score 0.
    """
    m, n = len(a), len(b)
    previous = -gap_penalty * np.arange(n + 1)
    for i in range(1, m + 1):
        current = np.empty(n + 1)
        current[0] = -gap_penalty * i
        ai = a[i - 1]
        if ai >= 0:
            b_arr = np.array(b, dtype=np.int64)
            valid = b_arr >= 0
            match_scores = np.zeros(n)
            match_scores[valid] = 1.0 - distances[ai, b_arr[valid]]
        else:
            match_scores = np.zeros(n)
        diagonal = previous[:-1] + match_scores
        up = previous[1:] - gap_penalty
        best = np.maximum(diagonal, up)
        # Left dependency is sequential.
        running = current[0]
        for j in range(1, n + 1):
            running = max(best[j - 1], running - gap_penalty)
            current[j] = running
        previous = current
    return float(previous[-1])


def oracle_dissimilarities(
    indexed: list[list[int]], distances: np.ndarray, gap_penalty: float
) -> np.ndarray:
    """Pairwise message dissimilarities, one scalar DP per pair."""
    message_count = len(indexed)
    self_scores = np.array(
        [
            align_score(seq, seq, distances, gap_penalty) if seq else 0.0
            for seq in indexed
        ]
    )
    out = np.zeros((message_count, message_count), dtype=np.float64)
    for i in range(message_count):
        for j in range(i + 1, message_count):
            if not indexed[i] or not indexed[j]:
                out[i, j] = out[j, i] = 1.0
                continue
            score = align_score(indexed[i], indexed[j], distances, gap_penalty)
            norm = max(self_scores[i], self_scores[j])
            dissimilarity = 1.0 - score / norm if norm > 0 else 1.0
            out[i, j] = out[j, i] = float(np.clip(dissimilarity, 0.0, 1.0))
    return out
