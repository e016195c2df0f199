"""Reference oracles the fast production paths are pinned against.

Each oracle is the direct, slow transcription of a definition:

- per-pair Canberra kernels — one :func:`canberra_distance` /
  :func:`canberra_dissimilarity` call per pair, quadratic in Python-call
  overhead — for the vectorized row kernels of
  :mod:`repro.core.canberra`;
- :func:`reference_matrix` — the whole dissimilarity matrix, one
  :func:`canberra_dissimilarity` call per unordered pair, for
  :meth:`repro.core.matrix.DissimilarityMatrix.build`;
- :func:`knn_distances` — one k-th-NN column by a full row sort, for
  :meth:`repro.core.matrix.DissimilarityMatrix.knn_distances_all`;
- :func:`dense_dbscan` — DBSCAN over the full n×n ``distances <=
  epsilon`` boolean matrix, for the blockwise CSR neighborhoods of
  :func:`repro.core.dbscan.dbscan`.

On the inputs the tests use, the per-pair oracles agree with the
vectorized kernels to the bit, and the dense DBSCAN yields identical
labels.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.canberra import (
    DEFAULT_PENALTY_FACTOR,
    canberra_dissimilarity,
    canberra_distance,
)
from repro.core.dbscan import NOISE, UNVISITED, DbscanResult
from repro.core.matrix import DissimilarityMatrix
from repro.core.segments import UniqueSegment


def pairwise_equal_length_reference(block: np.ndarray) -> np.ndarray:
    """Per-pair oracle for one equal-length bin's whole symmetric square.

    The kernel side is :func:`repro.core.canberra.equal_length_cross_rows`
    of the block against itself.
    """
    block = np.asarray(block, dtype=np.float64)
    count = block.shape[0]
    result = np.zeros((count, count), dtype=np.float64)
    for i in range(count):
        for j in range(i + 1, count):
            result[i, j] = result[j, i] = canberra_distance(block[i], block[j])
    return result


def equal_length_cross_block_reference(
    block_a: np.ndarray, block_b: np.ndarray
) -> np.ndarray:
    """Per-pair oracle for :func:`repro.core.canberra.equal_length_cross_rows`."""
    block_a = np.asarray(block_a, dtype=np.float64)
    block_b = np.asarray(block_b, dtype=np.float64)
    if block_a.shape[1] != block_b.shape[1]:
        raise ValueError(
            f"equal-length cross kernel needs equal lengths: "
            f"{block_a.shape[1]} != {block_b.shape[1]}"
        )
    result = np.empty((block_a.shape[0], block_b.shape[0]), dtype=np.float64)
    for i, left in enumerate(block_a):
        for j, right in enumerate(block_b):
            result[i, j] = canberra_distance(left, right)
    return result


def cross_length_block_reference(
    short_block: np.ndarray,
    long_block: np.ndarray,
    penalty_factor: float = DEFAULT_PENALTY_FACTOR,
) -> np.ndarray:
    """Per-pair oracle for :func:`repro.core.canberra.cross_length_rows`."""
    short_block = np.asarray(short_block, dtype=np.float64)
    long_block = np.asarray(long_block, dtype=np.float64)
    if short_block.shape[1] >= long_block.shape[1]:
        raise ValueError(
            f"short block must be shorter: "
            f"{short_block.shape[1]} >= {long_block.shape[1]}"
        )
    result = np.empty((short_block.shape[0], long_block.shape[0]), dtype=np.float64)
    for i, short in enumerate(short_block):
        for j, long in enumerate(long_block):
            result[i, j] = canberra_dissimilarity(
                short, long, penalty_factor=penalty_factor
            )
    return result


def reference_matrix(
    segments: list[UniqueSegment],
    penalty_factor: float = DEFAULT_PENALTY_FACTOR,
) -> np.ndarray:
    """The dissimilarity matrix over *segments*, one call per unordered pair."""
    count = len(segments)
    values = np.zeros((count, count), dtype=np.float64)
    for i in range(count):
        for j in range(i + 1, count):
            values[i, j] = values[j, i] = canberra_dissimilarity(
                segments[i].data, segments[j].data, penalty_factor=penalty_factor
            )
    return values


def knn_distances(matrix: DissimilarityMatrix, k: int) -> np.ndarray:
    """Dissimilarity of every segment to its k-th nearest neighbor, by full sort.

    Neighbors exclude the segment itself (k=1 is the closest other
    segment).  Requires ``k < len(matrix)``.
    """
    count = len(matrix)
    if not 1 <= k < count:
        raise ValueError(f"k must be in [1, {count - 1}], got {k}")
    # Column 0 is the self-distance (diagonal zero); column k is the
    # k-th nearest other segment.  Duplicate zero distances cannot
    # occur because segments are unique values.
    return np.sort(matrix.values, axis=1)[:, k]


def dense_dbscan(
    distances: np.ndarray,
    epsilon: float,
    min_samples: int,
    weights: np.ndarray | None = None,
) -> DbscanResult:
    """Textbook DBSCAN over the dense ``distances <= epsilon`` matrix.

    Visits points in index order and expands each neighborhood in
    ascending index order, with the point itself counted toward its
    (weighted) density.
    """
    distances = np.asarray(distances)
    count = distances.shape[0]
    weights = (
        np.ones(count, dtype=np.float64)
        if weights is None
        else np.asarray(weights, dtype=np.float64)
    )
    within = distances <= epsilon
    is_core = within @ weights >= min_samples
    labels = np.full(count, UNVISITED, dtype=np.int64)
    cluster = 0
    for point in range(count):
        if labels[point] != UNVISITED:
            continue
        if not is_core[point]:
            labels[point] = NOISE
            continue
        labels[point] = cluster
        queue = deque(np.nonzero(within[point])[0].tolist())
        while queue:
            neighbor = queue.popleft()
            if labels[neighbor] == NOISE:
                labels[neighbor] = cluster
            if labels[neighbor] != UNVISITED:
                continue
            labels[neighbor] = cluster
            if is_core[neighbor]:
                queue.extend(np.nonzero(within[neighbor])[0].tolist())
        cluster += 1
    return DbscanResult(labels=labels, epsilon=epsilon, min_samples=min_samples)
