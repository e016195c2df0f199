"""Parallelism parity: the threaded bin scheduler is a pure optimization.

The threaded backend writes disjoint tiles of the shared output matrix
from a thread pool.  Its contract is *bit identity*: for any segment
set, worker count, value dtype, and storage mode, the produced bytes
are exactly the serial reference's — not close, identical.  The tests
here pin that contract:

- hypothesis property tests over ragged/equal/duplicate-length segment
  sets, workers in {1, 2, 4};
- a dtype × storage × workers grid on a fixed ragged corpus;
- a determinism run (same trace, three worker counts, raw-byte compare);
- tiny-tile runs (budget monkeypatched down) so one bin spans many
  tiles and the cross-tile mirror writes are exercised;
- the grouped cross-length kernel (one task per short length, windows
  deduplicated up to 8 bytes): serial, threaded and 3-chunk appended
  builds and the per-pair oracle of ``tests/core/oracles.py`` agree
  byte for byte;
- the workers convention shared by the library and both CLIs
  (``None`` ⇒ the usable cores, ``0`` ⇒ serial, ``N >= 1`` ⇒ exactly
  N, negative ⇒ rejected);
- the threaded build's observability surface (``matrix.bin`` spans
  with worker/tile tags, queue-wait histogram, scheduled-tiles
  counter);
- the one-queue contract: a serial build walks the threaded build's
  tile queue inline — the same tiles and ``matrix.bin`` set, without
  worker or queue-wait tags.

Inputs here are small, so the module runs under the
``threads_at_any_size`` fixture (``tests/conftest.py``).

The golden-trace corpus rides through the threaded backend in
``tests/golden/test_golden_traces.py::test_golden_trace_threaded``.
"""

import argparse
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cliopts import backend_parent
from repro.core import matrix as matrix_mod
from repro.core.canberra import CHUNK_CELL_BUDGET
from repro.core.matrix import (
    DTYPE_FLOAT32,
    DTYPE_FLOAT64,
    STORAGE_MEMMAP,
    STORAGE_RAM,
    AppendableMatrix,
    DissimilarityMatrix,
    MatrixBuildOptions,
)
from repro.core.pipeline import ClusteringConfig
from repro.core.segments import Segment, unique_segments
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.tracer import Tracer, use_tracer
from tests.core.oracles import reference_matrix

#: The suite's inputs sit below the production thread threshold.
pytestmark = pytest.mark.usefixtures("threads_at_any_size")


def as_unique_segments(datas):
    return unique_segments(
        [Segment(message_index=i, offset=0, data=d) for i, d in enumerate(datas)],
        min_length=1,
    )


def serial_build(datas, **kwargs):
    built = DissimilarityMatrix.build(
        as_unique_segments(datas),
        options=MatrixBuildOptions(workers=0, use_cache=False, **kwargs),
    )
    assert built.stats.backend == "serial"
    return built


def threaded_build(datas, workers, **kwargs):
    options = MatrixBuildOptions(workers=workers, use_cache=False, **kwargs)
    return DissimilarityMatrix.build(as_unique_segments(datas), options=options)


def make_ragged_datas(count=60, seed=17, max_length=12):
    """Deterministic unique segments spread over many lengths."""
    rng = np.random.default_rng(seed)
    datas, seen = [], set()
    while len(datas) < count:
        length = int(rng.integers(1, max_length + 1))
        data = bytes(rng.integers(0, 256, size=length, dtype=np.uint8))
        if data not in seen:
            seen.add(data)
            datas.append(data)
    return datas


#: Ragged, equal, and duplicate-length sets all fall out of this one
#: strategy: lengths repeat freely, only the byte values are unique.
segment_sets = st.lists(
    st.binary(min_size=1, max_size=24), min_size=2, max_size=14, unique=True
)


class TestThreadedParity:
    @settings(max_examples=30, deadline=None)
    @given(datas=segment_sets, workers=st.sampled_from([1, 2, 4]))
    def test_bit_identical_to_serial(self, datas, workers):
        reference = serial_build(datas)
        built = threaded_build(datas, workers)
        assert built.values.dtype == reference.values.dtype
        assert built.values.tobytes() == reference.values.tobytes()

    @settings(max_examples=15, deadline=None)
    @given(datas=segment_sets)
    def test_float32_bit_identical_to_serial(self, datas):
        reference = serial_build(datas, dtype=DTYPE_FLOAT32)
        built = threaded_build(datas, 4, dtype=DTYPE_FLOAT32)
        assert built.values.dtype == np.float32
        assert built.values.tobytes() == reference.values.tobytes()

    @pytest.mark.parametrize("dtype", [DTYPE_FLOAT64, DTYPE_FLOAT32])
    @pytest.mark.parametrize("storage", [STORAGE_RAM, STORAGE_MEMMAP])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_dtype_storage_workers_grid(self, dtype, storage, workers):
        datas = make_ragged_datas(count=50, seed=23)
        reference = serial_build(datas, dtype=dtype)
        built = threaded_build(datas, workers, dtype=dtype, storage=storage)
        assert built.stats.backend == "parallel"
        assert built.stats.workers == workers
        assert np.asarray(built.values).tobytes() == reference.values.tobytes()

    def test_equal_length_only_set(self):
        rng = np.random.default_rng(3)
        datas = list({bytes(rng.integers(0, 256, size=6, dtype=np.uint8)): None
                      for _ in range(40)})
        reference = serial_build(datas)
        built = threaded_build(datas, 4)
        # A single equal-length bin still threads (tiles, not blocks,
        # are the unit of work).
        assert built.stats.backend == "parallel"
        assert built.values.tobytes() == reference.values.tobytes()

    def test_many_tiles_per_bin(self, monkeypatch):
        # Shrink the tile budget so single bins split into many tiles
        # and the scheduler's cross-tile band mirroring is exercised.
        monkeypatch.setattr(matrix_mod, "CHUNK_CELL_BUDGET", 64)
        datas = make_ragged_datas(count=70, seed=29, max_length=8)
        reference = serial_build(datas)
        built = threaded_build(datas, 4)
        assert built.stats.tile_count > built.stats.task_count
        assert built.values.tobytes() == reference.values.tobytes()

    def test_determinism_across_worker_counts(self):
        datas = make_ragged_datas(count=80, seed=31)
        reference = serial_build(datas)
        fingerprints = set()
        for workers in (2, 3, 4):
            built = threaded_build(datas, workers)
            assert built.stats.backend == "parallel"
            fingerprints.add(built.values.tobytes())
        assert fingerprints == {reference.values.tobytes()}

    def test_auto_backend_resolves_to_threads_for_binned(self):
        # Default options with more than one worker run the tile queue.
        datas = make_ragged_datas(count=40, seed=37)
        built = DissimilarityMatrix.build(
            as_unique_segments(datas),
            options=MatrixBuildOptions(workers=2, use_cache=False),
        )
        assert built.stats.backend == "parallel"
        assert built.stats.tile_count > 0


class TestGroupedCrossKernel:
    """One cross task per short length: every build path, the same bytes."""

    @pytest.mark.parametrize("budget", [256, CHUNK_CELL_BUDGET])
    @pytest.mark.parametrize("seed", [3, 5])
    def test_serial_threaded_and_appended_builds_are_bit_identical(
        self, monkeypatch, seed, budget
    ):
        # A 4-symbol alphabet makes windows repeat, so deduplication
        # collapses many of them; lengths 1-12 put short lengths on
        # both sides of the 8/9-byte key boundary.  A tiny budget splits
        # every task into many tiles and chunks; the full one computes
        # each task as one tile.  Both must give the oracle's bytes for
        # same, eqcross (appends) and cross tiles alike.
        monkeypatch.setattr(matrix_mod, "CHUNK_CELL_BUDGET", budget)
        rng = np.random.default_rng(seed)
        datas = list(
            dict.fromkeys(
                bytes(rng.integers(0, 4, size=int(rng.integers(1, 13)), dtype=np.uint8))
                for _ in range(160)
            )
        )
        reference = serial_build(datas).values.tobytes()
        # The per-pair oracle slides each pair on its own; on these
        # inputs it agrees to the bit.
        assert reference_matrix(as_unique_segments(datas)).tobytes() == reference
        tracer = Tracer()
        with use_tracer(tracer):
            for workers in (2, 4):
                built = threaded_build(datas, workers)
                split = built.stats.tile_count > built.stats.task_count
                assert split == (budget < CHUNK_CELL_BUDGET)
                assert built.values.tobytes() == reference
        cross = [s for s in tracer.find("matrix.bin") if s.attributes["kind"] == "cross"]
        assert {s.attributes["len_a"] for s in cross} >= {1, 8, 9}
        assert any(
            s.attributes["unique_windows"] < s.attributes["windows"] for s in cross
        )
        assert all(
            s.attributes["unique_windows"] == s.attributes["windows"]
            for s in cross
            if s.attributes["len_a"] > 8
        )

        segments = as_unique_segments(datas)
        for workers in (0, 2):
            grown = AppendableMatrix(
                segments[:60],
                options=MatrixBuildOptions(workers=workers, use_cache=False),
            )
            grown.append(segments[60:110])
            grown.append(segments[110:])
            assert np.asarray(grown.matrix.values).tobytes() == reference


def usable_cores():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class TestWorkersConvention:
    """None ⇒ usable cores, 0 ⇒ serial, N ⇒ exactly N — everywhere."""

    def test_effective_workers_resolution(self):
        assert MatrixBuildOptions(workers=None).effective_workers() == usable_cores()
        assert MatrixBuildOptions(workers=0).effective_workers() == 1
        assert MatrixBuildOptions(workers=1).effective_workers() == 1
        assert MatrixBuildOptions(workers=5).effective_workers() == 5

    def test_none_resolves_to_the_affinity_mask(self, monkeypatch):
        # 8 CPUs on the machine, but taskset/cpusets allow only CPU 0.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert MatrixBuildOptions(workers=None).effective_workers() == 1

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 0"):
            MatrixBuildOptions(workers=-1)

    def test_workers_zero_forces_serial_past_the_threshold(self):
        # The threshold is 0 here, yet workers=0 stays on the calling
        # thread: it walks the same tile queue a threaded build runs.
        datas = make_ragged_datas(count=40, seed=43)
        built = serial_build(datas)
        threaded = threaded_build(datas, 2)
        assert built.stats.workers == 1
        assert threaded.stats.backend == "parallel"
        assert built.stats.tile_count == threaded.stats.tile_count > 0
        assert built.values.tobytes() == threaded.values.tobytes()

    def _parse(self, *argv):
        parser = argparse.ArgumentParser(parents=[backend_parent()])
        return parser.parse_args(list(argv))

    def test_cli_workers_zero_means_serial(self):
        args = self._parse("--workers", "0")
        config = ClusteringConfig.from_args(args)
        assert config.matrix_options.workers == 0
        assert config.matrix_options.effective_workers() == 1

    def test_cli_workers_default_means_all_cores(self):
        args = self._parse()
        options = ClusteringConfig.from_args(args).matrix_options
        assert options.workers is None
        assert options.effective_workers() == usable_cores()


class TestThreadedObservability:
    def test_bin_spans_and_queue_metrics(self):
        datas = make_ragged_datas(count=50, seed=47)
        tracer = Tracer()
        registry = MetricsRegistry()
        with use_tracer(tracer), use_metrics(registry):
            built = threaded_build(datas, 2)
        assert built.stats.backend == "parallel"
        assert built.stats.tile_count > 0

        bins = tracer.find("matrix.bin")
        assert len(bins) == built.stats.tile_count
        for span in bins:
            assert span.attributes["worker"].startswith("repro-matrix")
            start, _, stop = span.attributes["tile"].partition(":")
            assert int(start) < int(stop)
            assert span.attributes["queue_seconds"] >= 0.0
            assert span.attributes["kind"] in ("same", "cross")

        queue = registry.histogram(matrix_mod.BIN_QUEUE_METRIC)
        assert queue.snapshot()["count"] == built.stats.tile_count
        scheduled = registry.counter(matrix_mod.BINS_SCHEDULED_METRIC)
        total = sum(
            scheduled.value(**dict(labels)) for labels in scheduled.label_sets()
        )
        assert total == built.stats.tile_count

        builds = tracer.find("matrix.build")
        assert len(builds) == 1
        attributes = builds[0].attributes
        assert attributes["tiles"] == built.stats.tile_count
        assert attributes["backend"] == "parallel"

    def test_threaded_tiles_record_their_thread_cpu(self):
        # Each worker measures its tile with time.thread_time(), so the
        # tiles' CPU shows per tile, not only on the enclosing build.
        datas = make_ragged_datas(count=200, seed=59)
        tracer = Tracer()
        with use_tracer(tracer):
            built = threaded_build(datas, 2)
        assert built.stats.backend == "parallel"
        bins = tracer.find("matrix.bin")
        assert bins and all(span.cpu_seconds >= 0.0 for span in bins)
        assert sum(span.cpu_seconds for span in bins) > 0.0

    def test_serial_build_has_no_threaded_artifacts(self, monkeypatch):
        # A serial build runs the threaded build's tiles, one matrix.bin
        # span each, but without the queue: no worker, no queue wait.
        monkeypatch.setattr(matrix_mod, "CHUNK_CELL_BUDGET", 256)
        datas = make_ragged_datas(count=20, seed=53)

        def bins(tracer):
            return sorted(
                tuple(span.attributes[key] for key in ("kind", "len_a", "len_b", "tile"))
                for span in tracer.find("matrix.bin")
            )

        tracer = Tracer()
        registry = MetricsRegistry()
        with use_tracer(tracer), use_metrics(registry):
            built = serial_build(datas)
        threaded_tracer = Tracer()
        with use_tracer(threaded_tracer):
            threaded = threaded_build(datas, 2)
        assert built.stats.tile_count == threaded.stats.tile_count
        assert built.stats.tile_count > built.stats.task_count
        assert bins(tracer) == bins(threaded_tracer)
        assert len(bins(tracer)) == built.stats.tile_count
        for span in tracer.find("matrix.bin"):
            assert "worker" not in span.attributes
            assert "queue_seconds" not in span.attributes
        assert registry.histogram(matrix_mod.BIN_QUEUE_METRIC).snapshot()[
            "count"
        ] == 0
        assert tracer.find("matrix.build")[0].attributes["tiles"] == built.stats.tile_count
