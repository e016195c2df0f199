"""Fault injection, compute: a poisoned matrix cache is never trusted.

Acceptance path: a bit-flipped, replaced or truncated cache entry is
detected on load, deleted, and the matrix recomputed bit-identical to
the serial reference.  Failing tiles of the threaded build are covered
by ``test_thread_faults.py``.
"""

import numpy as np
import pytest

from repro.core import matrixcache
from repro.core.matrix import DissimilarityMatrix, MatrixBuildOptions
from repro.core.segments import UniqueSegment
from repro.obs.metrics import MetricsRegistry, use_metrics

pytestmark = pytest.mark.faults


def _segments():
    """Enough unique segments of two lengths for several block tasks."""
    datas = [bytes([i, 255 - i, i ^ 0x5A]) for i in range(40)]
    datas += [bytes([i, i, 7, 200 - i]) for i in range(40)]
    return [UniqueSegment(data=d) for d in datas]


def _options(tmp_path):
    return MatrixBuildOptions(workers=1, use_cache=True, cache_dir=tmp_path / "cache")


@pytest.fixture
def serial_reference():
    built = DissimilarityMatrix.build(
        _segments(), options=MatrixBuildOptions(workers=1)
    )
    assert built.stats.backend == "serial"
    return built.values


class TestBitFlippedCache:
    def _cache_entry(self, tmp_path, options):
        built = DissimilarityMatrix.build(_segments(), options=options)
        path = matrixcache.cache_path(built.stats.cache_key, options.cache_dir)
        assert path.exists()
        return built, path

    def test_bit_flip_detected_and_recomputed(self, tmp_path, serial_reference):
        options = _options(tmp_path)
        _, path = self._cache_entry(tmp_path, options)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # flip a payload bit
        path.write_bytes(bytes(raw))

        registry = MetricsRegistry()
        with use_metrics(registry):
            rebuilt = DissimilarityMatrix.build(_segments(), options=options)
            corrupt = registry.counter(matrixcache.CORRUPT_METRIC).value()
        assert not rebuilt.stats.cache_hit  # poisoned entry was not served
        assert np.array_equal(rebuilt.values, serial_reference)
        assert corrupt == 1

    def test_corrupt_entry_is_replaced(self, tmp_path, serial_reference):
        options = _options(tmp_path)
        _, path = self._cache_entry(tmp_path, options)
        path.write_bytes(b"not an npz at all")
        DissimilarityMatrix.build(_segments(), options=options)
        # The recompute overwrote the damaged entry: next load is a hit.
        again = DissimilarityMatrix.build(_segments(), options=options)
        assert again.stats.cache_hit
        assert np.array_equal(again.values, serial_reference)

    def test_truncated_entry_detected(self, tmp_path, serial_reference):
        options = _options(tmp_path)
        _, path = self._cache_entry(tmp_path, options)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        rebuilt = DissimilarityMatrix.build(_segments(), options=options)
        assert not rebuilt.stats.cache_hit
        assert np.array_equal(rebuilt.values, serial_reference)
