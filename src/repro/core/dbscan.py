"""DBSCAN over a precomputed dissimilarity matrix (Ester et al., 1996).

The paper chooses DBSCAN because it needs neither a target cluster
count nor shape assumptions and treats outliers as noise; its
parameters (epsilon, min_samples) come from
:mod:`repro.core.autoconf`.  This is the textbook algorithm:
density-core expansion over epsilon-neighborhoods, with the point
itself included in its neighborhood count (the scikit-learn
convention, which the original implementation relied on).

The epsilon-graph feeding the expansion is assembled blockwise into a
compact CSR adjacency (``indptr``/``indices``): the matrix is scanned
one row block at a time under a configurable memory bound, so the only
n×n-shaped temporary that ever exists is one block's boolean mask.
Peak extra memory is the bound plus the adjacency itself (8 bytes per
epsilon-edge), instead of a dense n² boolean matrix.  Points are
visited in index order and each neighborhood is enumerated in ascending
index order, so the labels (including border-point tie-breaking) equal
those of the dense textbook formulation the tests keep as an oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.membound import rows_per_block
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer

NOISE = -1
UNVISITED = -2

ROWS_SCANNED_METRIC = "repro_dbscan_rows_scanned_total"

_ROWS_HELP = (
    "Matrix rows scanned while building DBSCAN epsilon-neighborhoods "
    "(mode: csr)."
)


@dataclass(frozen=True)
class DbscanResult:
    """Cluster labels per point: 0..m-1 for clusters, -1 for noise."""

    labels: np.ndarray
    epsilon: float
    min_samples: int

    @property
    def cluster_count(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size and self.labels.max() >= 0 else 0

    def members(self, cluster: int) -> np.ndarray:
        return np.nonzero(self.labels == cluster)[0]

    @property
    def noise(self) -> np.ndarray:
        return np.nonzero(self.labels == NOISE)[0]

    def clusters(self) -> list[np.ndarray]:
        return [self.members(c) for c in range(self.cluster_count)]


def _csr_neighborhoods(
    distances: np.ndarray,
    weights: np.ndarray,
    epsilon: float,
    memory_bound_bytes: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blockwise CSR epsilon-adjacency: (indptr, indices, neighbor_counts).

    Scans row blocks sized to the memory bound; each block holds one
    boolean mask plus its extracted column indices, never the full n×n
    boolean matrix.  Column indices come out of ``np.nonzero`` in
    ascending order per row, and the per-row weighted counts are the
    ``mask @ weights`` contraction over the same mask.
    """
    count = distances.shape[0]
    # Working set per row: the distance row read, its boolean mask, and
    # the extracted int64 column indices (worst case one per cell).
    row_bytes = count * (distances.dtype.itemsize + 1 + 8)
    block = rows_per_block(row_bytes, memory_bound_bytes)
    indptr = np.zeros(count + 1, dtype=np.int64)
    index_chunks: list[np.ndarray] = []
    count_chunks: list[np.ndarray] = []
    for start in range(0, count, block):
        stop = min(count, start + block)
        within = distances[start:stop] <= epsilon
        count_chunks.append(within @ weights)
        rows, cols = np.nonzero(within)
        indptr[start + 1 : stop + 1] = np.bincount(rows, minlength=stop - start)
        index_chunks.append(cols.astype(np.int64, copy=False))
    np.cumsum(indptr, out=indptr)
    indices = (
        np.concatenate(index_chunks) if index_chunks else np.empty(0, np.int64)
    )
    neighbor_counts = (
        np.concatenate(count_chunks)
        if count_chunks
        else np.empty(0, np.float64)
    )
    return indptr, indices, neighbor_counts


def dbscan(
    distances: np.ndarray,
    epsilon: float,
    min_samples: int,
    weights: np.ndarray | None = None,
    memory_bound_bytes: int | None = None,
) -> DbscanResult:
    """Run DBSCAN on a square distance matrix.

    Points with at least *min_samples* neighbors within *epsilon*
    (including themselves) are core points; clusters are the connected
    components of core points under the epsilon relation, plus border
    points attached to the first core that reaches them.

    *weights* gives each point a multiplicity for the density test (the
    scikit-learn ``sample_weight`` semantics).  The clustering pipeline
    deduplicates segment values for the distance computation but passes
    each value's occurrence count here, so a value repeated across many
    messages still forms a density core — exactly as if the duplicates
    had participated at mutual distance zero.

    The epsilon-neighborhoods are scanned blockwise under
    *memory_bound_bytes* (see the module docstring).
    """
    distances = np.asarray(distances)
    if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
        raise ValueError(f"need a square matrix, got {distances.shape}")
    count = distances.shape[0]
    if weights is None:
        weights = np.ones(count, dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (count,):
            raise ValueError(f"weights shape {weights.shape} != ({count},)")

    with get_tracer().span("dbscan.neighborhoods", mode="csr", rows=count) as span:
        indptr, indices, neighbor_counts = _csr_neighborhoods(
            distances, weights, epsilon, memory_bound_bytes
        )
        span.set(edges=int(indices.size))
    get_metrics().counter(ROWS_SCANNED_METRIC, help=_ROWS_HELP).inc(count, mode="csr")

    def row(i: int) -> np.ndarray:
        return indices[indptr[i] : indptr[i + 1]]

    is_core = neighbor_counts >= min_samples
    labels = np.full(count, UNVISITED, dtype=np.int64)
    cluster = 0
    for point in range(count):
        if labels[point] != UNVISITED:
            continue
        if not is_core[point]:
            labels[point] = NOISE
            continue
        labels[point] = cluster
        queue = deque(row(point).tolist())
        while queue:
            neighbor = queue.popleft()
            if labels[neighbor] == NOISE:
                labels[neighbor] = cluster  # border point reclaimed from noise
            if labels[neighbor] != UNVISITED:
                continue
            labels[neighbor] = cluster
            if is_core[neighbor]:
                queue.extend(row(neighbor).tolist())
        cluster += 1
    return DbscanResult(labels=labels, epsilon=epsilon, min_samples=min_samples)
