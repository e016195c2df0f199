"""Parity contracts of the matrix execution backends.

The parallel builder and the on-disk cache are pure optimizations: every
path must reproduce the serial reference matrix exactly, on mixed-length
segment sets and in the degenerate configurations (one worker, a single
length block, permuted segment order).
"""

import hashlib
import struct

import numpy as np
import pytest

from repro.core.matrix import DissimilarityMatrix, MatrixBuildOptions
from repro.core.matrixcache import (
    cache_counters,
    default_cache_dir,
    matrix_cache_key,
    matrix_checksum,
    reset_cache_counters,
)
from repro.core.segments import Segment, unique_segments

SERIAL = MatrixBuildOptions(workers=1, use_cache=False)


def make_segments(count: int, lengths=(3, 5, 8), seed: int = 13):
    rng = np.random.default_rng(seed)
    datas = set()
    while len(datas) < count:
        length = lengths[int(rng.integers(0, len(lengths)))]
        datas.add(bytes(rng.integers(0, 256, length).tolist()))
    return unique_segments(
        [Segment(message_index=i, offset=0, data=d) for i, d in enumerate(sorted(datas))]
    )


@pytest.fixture(autouse=True)
def _fresh_counters():
    reset_cache_counters()
    yield
    reset_cache_counters()


class TestParallelParity:
    @pytest.mark.usefixtures("threads_at_any_size")
    def test_matches_serial_on_mixed_lengths(self):
        segments = make_segments(120)
        serial = DissimilarityMatrix.build(segments, options=SERIAL)
        parallel = DissimilarityMatrix.build(
            segments, options=MatrixBuildOptions(workers=2)
        )
        assert np.allclose(serial.values, parallel.values)
        assert np.array_equal(serial.values, parallel.values)

    @pytest.mark.usefixtures("threads_at_any_size")
    def test_one_worker_degenerates_to_serial(self):
        segments = make_segments(40)
        serial = DissimilarityMatrix.build(segments, options=SERIAL)
        one = DissimilarityMatrix.build(
            segments, options=MatrixBuildOptions(workers=1)
        )
        assert one.stats.backend == "serial"
        assert np.array_equal(serial.values, one.values)

    @pytest.mark.usefixtures("threads_at_any_size")
    def test_single_length_block(self):
        segments = make_segments(60, lengths=(4,))
        serial = DissimilarityMatrix.build(segments, options=SERIAL)
        parallel = DissimilarityMatrix.build(
            segments, options=MatrixBuildOptions(workers=2)
        )
        # One length → one work item, still split into tiles.
        assert parallel.stats.task_count == 1
        assert np.array_equal(serial.values, parallel.values)

    def test_below_threshold_stays_serial(self):
        segments = make_segments(30)
        matrix = DissimilarityMatrix.build(
            segments, options=MatrixBuildOptions(workers=4)
        )
        assert matrix.stats.backend == "serial"

    @pytest.mark.usefixtures("threads_at_any_size")
    def test_nondefault_penalty_factor(self):
        segments = make_segments(90)
        serial = DissimilarityMatrix.build(segments, penalty_factor=0.2, options=SERIAL)
        parallel = DissimilarityMatrix.build(
            segments,
            penalty_factor=0.2,
            options=MatrixBuildOptions(workers=2),
        )
        assert np.array_equal(serial.values, parallel.values)


class TestCacheRoundTrip:
    def test_round_trip_is_exact(self, tmp_path):
        segments = make_segments(80)
        serial = DissimilarityMatrix.build(segments, options=SERIAL)
        options = MatrixBuildOptions(workers=1, use_cache=True, cache_dir=tmp_path)
        cold = DissimilarityMatrix.build(segments, options=options)
        warm = DissimilarityMatrix.build(segments, options=options)
        assert not cold.stats.cache_hit
        assert warm.stats.cache_hit and warm.stats.backend == "cache"
        assert np.array_equal(serial.values, cold.values)
        assert np.array_equal(serial.values, warm.values)
        assert cache_counters() == {"hits": 1, "misses": 1, "stores": 1}

    def test_hit_is_order_independent(self, tmp_path):
        """The key is over *sorted* values, so a permuted segment list
        hits the same entry and gets correctly permuted rows back."""
        segments = make_segments(70)
        options = MatrixBuildOptions(workers=1, use_cache=True, cache_dir=tmp_path)
        DissimilarityMatrix.build(segments, options=options)
        shuffled = list(segments)
        np.random.default_rng(3).shuffle(shuffled)
        warm = DissimilarityMatrix.build(shuffled, options=options)
        reference = DissimilarityMatrix.build(shuffled, options=SERIAL)
        assert warm.stats.cache_hit
        assert np.array_equal(reference.values, warm.values)

    def test_penalty_factor_changes_the_key(self, tmp_path):
        segments = make_segments(30)
        options = MatrixBuildOptions(workers=1, use_cache=True, cache_dir=tmp_path)
        DissimilarityMatrix.build(segments, options=options)
        other = DissimilarityMatrix.build(
            segments, penalty_factor=0.1, options=options
        )
        assert not other.stats.cache_hit
        assert cache_counters()["misses"] == 2

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        segments = make_segments(25)
        options = MatrixBuildOptions(workers=1, use_cache=True, cache_dir=tmp_path)
        cold = DissimilarityMatrix.build(segments, options=options)
        entry = next(tmp_path.glob("matrix-*.npz"))
        entry.write_bytes(b"not an npz")
        rebuilt = DissimilarityMatrix.build(segments, options=options)
        assert not rebuilt.stats.cache_hit
        assert np.array_equal(cold.values, rebuilt.values)

    def test_cache_key_is_deterministic(self):
        datas = [b"\x01\x02", b"\x03\x04\x05"]
        assert matrix_cache_key(datas, 0.6) == matrix_cache_key(iter(datas), 0.6)
        assert matrix_cache_key(datas, 0.6) != matrix_cache_key(datas, 0.5)

    def test_env_var_overrides_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"
        segments = make_segments(20)
        options = MatrixBuildOptions(workers=1, use_cache=True)
        DissimilarityMatrix.build(segments, options=options)
        assert list((tmp_path / "custom").glob("matrix-*.npz"))


def copying_checksum(values: np.ndarray) -> str:
    """The checksum formula as first shipped: hash a ``tobytes()`` copy."""
    digest = hashlib.sha256()
    digest.update(b"repro-matrix-payload-v2\0")
    digest.update(struct.pack("<QQ", *values.shape))
    digest.update(np.ascontiguousarray(values).tobytes())
    return digest.hexdigest()


class TestMatrixChecksum:
    """Existing cache entries keep verifying: the digest never changed."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_the_copying_formula(self, dtype):
        values = np.random.default_rng(7).random((37, 37)).astype(dtype)
        strided = np.random.default_rng(8).random((40, 60)).astype(dtype)[::2, 1::3]
        for case in (values, values.T, strided, values[:0, :0]):
            assert matrix_checksum(case) == copying_checksum(case)
        assert not strided.flags.c_contiguous

    def test_memmap_matches(self, tmp_path):
        values = np.memmap(tmp_path / "v", dtype=np.float64, mode="w+", shape=(9, 9))
        values[:] = np.random.default_rng(9).random((9, 9))
        assert matrix_checksum(values) == copying_checksum(values)


class TestDefaultOptions:
    def test_build_stats_populated(self):
        segments = make_segments(35)
        matrix = DissimilarityMatrix.build(segments, options=SERIAL)
        stats = matrix.stats
        assert stats is not None
        assert stats.unique_count == len(segments)
        assert stats.task_count >= 1
        assert stats.seconds["total"] >= stats.seconds["compute"] >= 0
