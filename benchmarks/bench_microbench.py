"""Microbenchmarks of the computational kernels.

Unlike the experiment benchmarks (single deterministic runs), these are
true repeated-timing benchmarks of the hot paths: Canberra dissimilarity
matrix construction (the binned kernel serial and threaded, against the
per-pair reference oracle of ``tests/core/oracles.py`` — the grid is
persisted to ``BENCH_matrix.json`` as the perf trajectory baseline),
k-NN extraction, DBSCAN, and the NEMESYS segmenter.
"""

import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import attach_matrix_stats
from repro.core.autoconf import configure
from repro.core.dbscan import dbscan
from repro.core.matrix import DissimilarityMatrix, MatrixBuildOptions
from repro.core.matrixcache import cache_counters
from repro.core.segments import Segment, unique_segments
from repro.protocols import get_model
from repro.segmenters import CspSegmenter, NemesysSegmenter
from tests.core.oracles import knn_distances, reference_matrix

SERIAL = MatrixBuildOptions(workers=1, use_cache=False)

#: Where the kernel-grid baseline lands (committed alongside the bench).
BENCH_MATRIX_PATH = Path(__file__).parent / "BENCH_matrix.json"

#: Matrix sizes of the kernel grid (unique segments).
KERNEL_GRID_SIZES = (200, 1000)

#: Acceptance floor: binned must beat the per-pair oracle single-core.
MIN_SINGLE_CORE_SPEEDUP = 5.0


def synthetic_unique_segments(count: int, seed: int = 5) -> list:
    """Deterministic mixed-length random segments (all values unique)."""
    rng = np.random.default_rng(seed)
    lengths = (4, 6, 8, 10)
    datas: set[bytes] = set()
    while len(datas) < count:
        length = lengths[int(rng.integers(0, len(lengths)))]
        datas.add(bytes(rng.integers(0, 256, length).tolist()))
    segments = [
        Segment(message_index=i, offset=0, data=d)
        for i, d in enumerate(sorted(datas))
    ]
    return unique_segments(segments)


@pytest.fixture(scope="module")
def ntp_segments():
    model = get_model("ntp")
    trace = model.generate(200, seed=9).preprocess()
    from repro.core.segments import segments_from_fields

    segments = []
    for i, msg in enumerate(trace):
        segments.extend(segments_from_fields(i, msg.data, model.dissect(msg.data)))
    return unique_segments(segments)


@pytest.fixture(scope="module")
def ntp_matrix(ntp_segments):
    return DissimilarityMatrix.build(ntp_segments)


def test_matrix_build(benchmark, ntp_segments, matrix_options):
    matrix = benchmark(DissimilarityMatrix.build, ntp_segments, options=matrix_options)
    assert len(matrix) == len(ntp_segments)
    attach_matrix_stats(benchmark, matrix)


def test_knn_distances(benchmark, ntp_matrix):
    knn = benchmark(knn_distances, ntp_matrix, 2)
    assert knn.shape == (len(ntp_matrix),)


def test_autoconf(benchmark, ntp_matrix):
    auto = benchmark(configure, ntp_matrix)
    assert auto.epsilon > 0


def test_dbscan(benchmark, ntp_matrix):
    result = benchmark(dbscan, ntp_matrix.values, 0.1, 5)
    assert result.labels.shape == (len(ntp_matrix),)


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


#: Parallel worker count the kernel grid requests explicitly, so the
#: grid measures the same configuration on every machine.
GRID_WORKERS = 4

#: Scaling floor for the threaded binned build at n=1000 on a box with
#: at least GRID_WORKERS usable cores; relaxed floor from 2 cores up.
MIN_PARALLEL_SPEEDUP_4CORE = 2.0
MIN_PARALLEL_SPEEDUP_2CORE = 1.2


@pytest.mark.usefixtures("threads_at_any_size")
def test_matrix_kernel_grid(benchmark):
    """binned serial vs binned threaded vs the per-pair oracle, n ∈ {200, 1000}.

    The whole grid must agree within 1e-12 (the oracle is numerically
    interchangeable with the kernel), the binned kernel must beat the
    per-pair oracle by ≥5× single-core, and the measured grid is
    written to ``BENCH_matrix.json`` so future PRs have a perf
    trajectory.  The oracle runs serially, straight from the test
    helper.

    Honesty contract of the baseline: the parallel row requests
    ``workers=4`` explicitly and records the backend that *actually*
    ran, ``cpus`` records both ``os.cpu_count()`` and the scheduler
    affinity, and a parallel row silently degrading to serial fails the
    bench outright — a baseline that says "parallel" must have run
    parallel.  The threaded binned build additionally has a scaling
    floor at n=1000 (≥2× on ≥4 usable cores, ≥1.2× on 2–3), so a
    scheduler regression cannot hide behind a green parity run.
    """
    cases = []
    speedups = {}
    cpus = available_cpus()
    for n in KERNEL_GRID_SIZES:
        segments = synthetic_unique_segments(n, seed=3)
        seconds = {}
        reference = None
        for backend, options in (
            ("serial", SERIAL),
            (
                "parallel",
                MatrixBuildOptions(workers=GRID_WORKERS, use_cache=False),
            ),
        ):
            started = time.perf_counter()
            matrix = DissimilarityMatrix.build(segments, options=options)
            elapsed = time.perf_counter() - started
            seconds[backend] = elapsed
            if reference is None:
                reference = matrix.values
            else:
                drift = float(np.abs(reference - matrix.values).max())
                assert drift <= 1e-12, f"kernel grid drift {drift} at n={n} {backend}"
            if backend == "parallel":
                # The baseline must not lie: a row labelled "parallel"
                # that ran serially (executor unavailable, gate
                # regression) fails the bench instead of being
                # committed as a fake speedup.
                assert matrix.stats.backend == "parallel", (
                    f"requested parallel build degraded to "
                    f"{matrix.stats.backend!r} at n={n} "
                    f"(workers={GRID_WORKERS}, {cpus} usable cores)"
                )
            cases.append(
                {
                    "n": n,
                    "kernel": "binned",
                    "requested_backend": backend,
                    "backend": matrix.stats.backend,
                    "workers": matrix.stats.workers,
                    "tiles": matrix.stats.tile_count,
                    "pairs_vectorized": matrix.stats.pairs_vectorized,
                    "seconds": round(elapsed, 4),
                }
            )
        started = time.perf_counter()
        oracle = reference_matrix(segments)
        seconds["oracle"] = time.perf_counter() - started
        drift = float(np.abs(reference - oracle).max())
        assert drift <= 1e-12, f"kernel grid drift {drift} at n={n} oracle"
        cases.append(
            {
                "n": n,
                "kernel": "pairwise",
                "requested_backend": "serial",
                "backend": "serial",
                "workers": 1,
                "tiles": 0,
                "pairs_vectorized": 0,
                "seconds": round(seconds["oracle"], 4),
            }
        )
        single_core = seconds["oracle"] / seconds["serial"]
        parallel_scaling = seconds["serial"] / seconds["parallel"]
        speedups[str(n)] = {
            "binned_vs_pairwise_serial": round(single_core, 1),
            "binned_parallel_vs_serial": round(parallel_scaling, 2),
        }
        assert single_core >= MIN_SINGLE_CORE_SPEEDUP, (
            f"binned kernel only {single_core:.1f}x faster than the per-pair "
            f"oracle at n={n} (floor: {MIN_SINGLE_CORE_SPEEDUP}x single-core)"
        )
        if n >= 1000:
            floor = (
                MIN_PARALLEL_SPEEDUP_4CORE
                if cpus >= GRID_WORKERS
                else MIN_PARALLEL_SPEEDUP_2CORE if cpus >= 2 else None
            )
            if floor is not None:
                assert parallel_scaling >= floor, (
                    f"threaded binned build only {parallel_scaling:.2f}x faster "
                    f"than serial at n={n} on {cpus} usable cores "
                    f"(floor: {floor}x)"
                )
        benchmark.extra_info[f"speedup_serial_n{n}"] = round(single_core, 1)
        benchmark.extra_info[f"scaling_parallel_n{n}"] = round(parallel_scaling, 2)
    payload = {
        "schema": "repro.bench-matrix/v3",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "cpus_available": cpus,
        "grid_workers": GRID_WORKERS,
        "cases": cases,
        "speedups": speedups,
    }
    BENCH_MATRIX_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    # Register one timed binned serial build in the benchmark report.
    segments = synthetic_unique_segments(KERNEL_GRID_SIZES[0], seed=3)
    matrix = benchmark.pedantic(
        DissimilarityMatrix.build,
        args=(segments,),
        kwargs={"options": SERIAL},
        rounds=1,
        iterations=1,
    )
    attach_matrix_stats(benchmark, matrix)


def test_matrix_build_parallel(benchmark):
    """Parallel backend parity + speedup on a ≥2000-unique-segment trace.

    The speedup assertion is scaled to the runner: ≥2x on a proper
    multi-core machine, parity-only on single-core boxes where the
    backend falls back to serial anyway.
    """
    segments = synthetic_unique_segments(2200)
    started = time.perf_counter()
    serial = DissimilarityMatrix.build(segments, options=SERIAL)
    serial_seconds = time.perf_counter() - started

    parallel_options = MatrixBuildOptions(use_cache=False)
    started = time.perf_counter()
    parallel = DissimilarityMatrix.build(segments, options=parallel_options)
    parallel_seconds = time.perf_counter() - started
    # Register one timed parallel build in the benchmark report too.
    matrix = benchmark.pedantic(
        DissimilarityMatrix.build,
        args=(segments,),
        kwargs={"options": parallel_options},
        rounds=1,
        iterations=1,
    )

    assert np.array_equal(serial.values, parallel.values)
    assert np.array_equal(serial.values, matrix.values)
    speedup = serial_seconds / parallel_seconds
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 3)
    benchmark.extra_info["parallel_seconds"] = round(parallel_seconds, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["backend"] = parallel.stats.backend
    attach_matrix_stats(benchmark, parallel)
    cpus = available_cpus()
    if cpus >= 4:
        assert parallel.stats.backend == "parallel"
        assert speedup >= 2.0, f"parallel speedup {speedup:.2f}x < 2x on {cpus} cores"
    elif cpus >= 2:
        assert parallel.stats.backend == "parallel"
        assert speedup >= 1.2, f"parallel speedup {speedup:.2f}x < 1.2x on {cpus} cores"


def test_matrix_cache_warm(benchmark, tmp_path):
    """Warm-cache rebuild must be ≥10x faster than the cold build."""
    segments = synthetic_unique_segments(1600, seed=11)
    options = MatrixBuildOptions(workers=1, use_cache=True, cache_dir=tmp_path)
    started = time.perf_counter()
    cold = DissimilarityMatrix.build(segments, options=options)
    cold_seconds = time.perf_counter() - started
    assert not cold.stats.cache_hit

    warm_seconds = []
    for _ in range(3):
        started = time.perf_counter()
        warm = DissimilarityMatrix.build(segments, options=options)
        warm_seconds.append(time.perf_counter() - started)
        assert warm.stats.cache_hit
        assert np.array_equal(cold.values, warm.values)
    matrix = benchmark.pedantic(
        DissimilarityMatrix.build,
        args=(segments,),
        kwargs={"options": options},
        rounds=1,
        iterations=1,
    )
    assert np.array_equal(cold.values, matrix.values)

    speedup = cold_seconds / min(warm_seconds)
    counters = cache_counters()
    assert counters["hits"] >= 4 and counters["misses"] == 1
    benchmark.extra_info["cold_seconds"] = round(cold_seconds, 3)
    benchmark.extra_info["warm_seconds"] = round(min(warm_seconds), 4)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    attach_matrix_stats(benchmark, matrix)
    assert speedup >= 10.0, f"warm cache speedup {speedup:.1f}x < 10x"


def test_nemesys_segmentation(benchmark):
    model = get_model("dns")
    trace = model.generate(200, seed=9).preprocess()
    segmenter = NemesysSegmenter()
    segments = benchmark(segmenter.segment, trace)
    assert segments


def test_csp_mining(benchmark):
    model = get_model("dns")
    trace = model.generate(200, seed=9).preprocess()
    segmenter = CspSegmenter()
    segments = benchmark(segmenter.segment, trace)
    assert segments
