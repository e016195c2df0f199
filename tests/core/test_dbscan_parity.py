"""CSR-vs-dense neighborhood parity and blockwise-refinement parity.

The memory-bounded paths (CSR epsilon-adjacency, blockwise refinement
scans, single-pass k-NN extraction) are only admissible because they
are *bit-identical* to their dense references — the dense DBSCAN oracle
lives in ``tests/core/oracles.py`` — same BFS
enumeration order, same argmin tie-breaking, same order statistics.
These tests pin that equivalence on random symmetric matrices
(hypothesis), on real golden-trace dissimilarity matrices, and at both
extremes of the memory bound (one row per block vs everything in one
block).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dbscan import dbscan
from repro.core.matrix import DissimilarityMatrix, MatrixBuildOptions
from repro.core.refinement import cluster_stats, link_segments
from repro.core.segments import unique_segments
from tests.core.oracles import dense_dbscan, knn_distances

#: One row per block vs one block for everything.
BOUNDS = (1, None)


def symmetric_matrix(seed: int, size: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.random((size, size))
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, 0.0)
    return m


def golden_matrix(protocol: str = "ntp") -> DissimilarityMatrix:
    from repro.protocols import get_model
    from repro.segmenters.groundtruth import GroundTruthSegmenter

    model = get_model(protocol)
    trace = model.generate(80, seed=1202).preprocess()
    segments = GroundTruthSegmenter(model).segment(trace)
    uniq = unique_segments(segments)
    return DissimilarityMatrix.build(
        uniq, options=MatrixBuildOptions(workers=1, use_cache=False)
    )


class TestCsrDenseParity:
    @given(
        seed=st.integers(0, 10_000),
        size=st.integers(2, 40),
        epsilon=st.floats(0.05, 0.95),
        min_samples=st.integers(2, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_matrices(self, seed, size, epsilon, min_samples):
        m = symmetric_matrix(seed, size)
        dense = dense_dbscan(m, epsilon, min_samples)
        for bound in BOUNDS:
            csr = dbscan(m, epsilon, min_samples, memory_bound_bytes=bound)
            assert np.array_equal(csr.labels, dense.labels)

    @given(seed=st.integers(0, 10_000), size=st.integers(2, 30))
    @settings(max_examples=40, deadline=None)
    def test_random_matrices_weighted(self, seed, size):
        m = symmetric_matrix(seed, size)
        rng = np.random.default_rng(seed + 1)
        weights = rng.integers(1, 6, size).astype(np.float64)
        dense = dense_dbscan(m, 0.4, 4, weights=weights)
        for bound in BOUNDS:
            csr = dbscan(m, 0.4, 4, weights=weights, memory_bound_bytes=bound)
            assert np.array_equal(csr.labels, dense.labels)

    @pytest.mark.parametrize("protocol", ["ntp", "dns"])
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_golden_trace_matrices(self, protocol, bound):
        matrix = golden_matrix(protocol)
        values = matrix.values
        # A mid-scale epsilon exercises non-trivial neighborhoods.
        epsilon = float(np.median(matrix.condensed()))
        dense = dense_dbscan(values, epsilon, 3)
        csr = dbscan(values, epsilon, 3, memory_bound_bytes=bound)
        assert np.array_equal(csr.labels, dense.labels)
        assert dense.cluster_count > 0

    def test_empty_matrix_both_backends(self):
        for run in (dbscan, dense_dbscan):
            result = run(np.zeros((0, 0)), 0.5, 2)
            assert result.cluster_count == 0

    def test_unknown_mode_rejected(self):
        # The neighborhood mode is retired: passing one fails loudly.
        with pytest.raises(TypeError):
            dbscan(np.zeros((2, 2)), 0.5, 2, neighborhoods="dense")


class TestBlockwiseRefinementParity:
    @given(seed=st.integers(0, 10_000), size=st.integers(4, 40))
    @settings(max_examples=40, deadline=None)
    def test_link_segments_any_bound(self, seed, size):
        m = symmetric_matrix(seed, size)
        split = size // 2
        a, b = np.arange(split), np.arange(split, size)
        reference = link_segments(m, a, b)
        for bound in BOUNDS:
            assert link_segments(m, a, b, memory_bound_bytes=bound) == reference

    def test_link_segments_tie_breaking(self):
        # Several equal minima: the blockwise scan must keep np.argmin's
        # first-occurrence (row-major) winner at every bound.
        m = np.full((6, 6), 0.5)
        np.fill_diagonal(m, 0.0)
        m[0, 3] = m[3, 0] = 0.2
        m[1, 4] = m[4, 1] = 0.2
        m[2, 5] = m[5, 2] = 0.2
        a, b = np.array([0, 1, 2]), np.array([3, 4, 5])
        for bound in BOUNDS:
            assert link_segments(m, a, b, memory_bound_bytes=bound) == (0, 3, 0.2)

    @given(seed=st.integers(0, 10_000), size=st.integers(2, 40))
    @settings(max_examples=40, deadline=None)
    def test_cluster_stats_blockwise_matches_exact(self, seed, size):
        m = symmetric_matrix(seed, size)
        indices = np.arange(size)
        exact = cluster_stats(m, indices)
        blockwise = cluster_stats(m, indices, memory_bound_bytes=1)
        assert blockwise.mean_dissimilarity == pytest.approx(
            exact.mean_dissimilarity, rel=1e-12
        )
        assert blockwise.max_extent == exact.max_extent
        assert blockwise.minmed == exact.minmed


class TestKnnDistancesAllParity:
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_matches_per_k_reference(self, bound):
        matrix = golden_matrix("ntp")
        k_max = min(6, len(matrix) - 1)
        matrix._knn_columns = None  # defeat the cache for the bounded run
        columns = matrix.knn_distances_all(k_max, memory_bound_bytes=bound)
        assert columns.shape == (len(matrix), k_max)
        for k in range(1, k_max + 1):
            assert np.array_equal(columns[:, k - 1], knn_distances(matrix, k))

    def test_cache_reused_and_extended(self):
        matrix = golden_matrix("ntp")
        wide = matrix.knn_distances_all(5)
        narrow = matrix.knn_distances_all(3)
        assert np.array_equal(narrow, wide[:, :3])
        assert np.shares_memory(matrix.knn_distances_all(5), wide)  # no recompute
        assert np.shares_memory(narrow, wide)

    def test_k_max_bounds_validated(self):
        matrix = golden_matrix("ntp")
        with pytest.raises(ValueError):
            matrix.knn_distances_all(0)
        with pytest.raises(ValueError):
            matrix.knn_distances_all(len(matrix))
