"""Pairwise dissimilarity matrix over unique segments (paper Section III-C).

Builds the full symmetric matrix **D** used as DBSCAN's precomputed
metric and as the source of the k-NN distance distributions for the
epsilon auto-configuration.  Computation is grouped by segment length so
that equal-length pairs use the plain normalized Canberra distance and
unequal-length pairs use the sliding/penalty extension.  Per length m
there are at most two tasks: the equal-length bin (when it holds two or
more segments), and one cross task pairing the length-m block with
every longer block, so the longer segments'
m-byte windows are collected (and deduplicated) once per short length.
Every task is cut into row tiles, and every tile runs one vectorized
row kernel of :mod:`repro.core.canberra`: a byte-term lookup table
gather over equal-length rows, and a sliding minimum over deduplicated
windows for unequal lengths.  A tile is the only way a cell is
computed, and one scheduler (:func:`_compute_tiles`) runs the whole
tile queue, longest-processing-time-first, in one of two places; the
disk cache can skip it:

- **threads** — from :data:`PARALLEL_THRESHOLD` segments on with more
  than one worker, the queue runs on a
  :class:`concurrent.futures.ThreadPoolExecutor`
  (:attr:`MatrixBuildOptions.workers`, default: the usable cores).
  The numpy LUT gathers release the GIL, so worker threads share the
  uint8 blocks and the output matrix (RAM or memmap) zero-copy: each
  worker writes its disjoint tile straight into the output — no result
  shipping, no pickling;
- **serial** — otherwise the same queue is walked inline on the calling
  thread;
- **cached** — a content-addressed ``.npz`` on disk
  (:mod:`repro.core.matrixcache`) short-circuits the whole computation
  for a previously seen segment set + penalty factor.

Tile boundaries are deterministic (worker-count independent) and every
cell is the same reduction however rows are tiled, so the bytes are
identical regardless of worker count or completion order.  A tile that
raises fails the build with a :class:`~repro.errors.ComputeError`
naming its bin, on either path.

:class:`BuildStats` on the returned matrix records which path ran and
how long each stage took, so speedups stay observable.
"""

from __future__ import annotations

import logging
import os
import tempfile
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.core import matrixcache
from repro.core.canberra import (
    CHUNK_CELL_BUDGET,
    DEFAULT_PENALTY_FACTOR,
    cross_length_rows,
    equal_length_cross_rows,
    sliding_windows,
)
from repro.core.membound import divide_bound, rows_per_block
from repro.core.segments import UniqueSegment
from repro.errors import ComputeError
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer

logger = logging.getLogger(__name__)

BUILDS_METRIC = "repro_matrix_builds_total"
FAULTS_METRIC = "repro_matrix_faults_total"
PAIRS_VECTORIZED_METRIC = "repro_matrix_pairs_vectorized_total"
KNN_PARTITION_METRIC = "repro_knn_partition_seconds"
BIN_QUEUE_METRIC = "repro_matrix_bin_queue_seconds"
BINS_SCHEDULED_METRIC = "repro_matrix_bins_scheduled_total"

#: Matrix value dtypes (``MatrixBuildOptions.dtype``): float64 is the
#: bit-exact reference; float32 halves resident memory for large n at
#: ~1e-7 relative rounding on each value.
DTYPE_FLOAT64 = "float64"
DTYPE_FLOAT32 = "float32"
DTYPES = (DTYPE_FLOAT64, DTYPE_FLOAT32)

#: Matrix storage modes (``MatrixBuildOptions.storage``): "ram" is a
#: plain in-heap array; "memmap" backs the values with an unlinked
#: temporary file so the OS can evict cold pages under pressure.
STORAGE_RAM = "ram"
STORAGE_MEMMAP = "memmap"
STORAGES = (STORAGE_RAM, STORAGE_MEMMAP)

#: Minimum unique-segment count before starting worker threads pays
#: for itself; below it every build walks its tile queue inline,
#: whatever :attr:`MatrixBuildOptions.workers` says.
PARALLEL_THRESHOLD = 512

#: How many chunk budgets the threaded scheduler carves from each
#: worker's share of :data:`repro.core.canberra.CHUNK_CELL_BUDGET`.  A
#: cross task against every longer length fills its chunks, which
#: per-pair bins seldom did; at a quarter of the share the measured peak
#: RSS of threaded builds stays at or below the per-pair scheduler's.
CHUNKS_PER_WORKER = 4

#: Geometric over-allocation of :class:`AppendableMatrix` storage: each
#: regrow reserves this factor of the current capacity, so repeated
#: appends amortize the O(n²) copy.
RESERVE_FACTOR = 1.5

_KNN_HELP = (
    "Seconds per all-k nearest-neighbor column extraction "
    "(one np.partition pass over the dissimilarity matrix)."
)

_PAIRS_HELP = "Unique segment pairs computed by the vectorized kernel."

_FAULTS_HELP = (
    "Failed tiles during matrix builds (kind: bin_error; a tile failure "
    "fails the build)."
)

_BIN_QUEUE_HELP = (
    "Seconds a matrix tile waited in the threaded scheduler's queue "
    "between submission and execution start."
)

_BINS_SCHEDULED_HELP = (
    "Tiles enqueued by the threaded matrix scheduler (kind: same/cross)."
)


@dataclass(frozen=True)
class MatrixBuildOptions:
    """Execution knobs for :meth:`DissimilarityMatrix.build`.

    The defaults are safe for library use: auto worker count (serial on
    single-core machines and below :data:`PARALLEL_THRESHOLD` segments)
    and no disk cache.  ``options=None`` anywhere means ``MatrixBuildOptions()``.
    The CLIs enable the cache and expose every knob as a flag.
    """

    #: Parallel worker count.  The convention is uniform across the
    #: library and both CLIs: ``None`` ⇒ one worker per usable core,
    #: ``0`` ⇒ serial (an explicit opt-out, same as ``--workers 0``),
    #: ``N >= 1`` ⇒ exactly N workers.  Negative values are rejected.
    workers: int | None = None
    #: Reuse/persist matrices in the content-addressed on-disk cache.
    use_cache: bool = False
    #: Cache location; None means ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.
    cache_dir: str | Path | None = None
    #: Value dtype: "float64" (bit-exact reference, default) or
    #: "float32" (half the resident matrix memory for large traces;
    #: each value rounds once from the float64 block result).
    dtype: str = DTYPE_FLOAT64
    #: Value storage: "ram" (default) or "memmap" (values live in an
    #: unlinked temporary file, so cold pages are reclaimable and the
    #: matrix survives traces larger than physical memory).
    storage: str = STORAGE_RAM

    def __post_init__(self) -> None:
        if self.dtype not in DTYPES:
            raise ValueError(
                f"unknown matrix dtype {self.dtype!r} (choices: {DTYPES})"
            )
        if self.storage not in STORAGES:
            raise ValueError(
                f"unknown matrix storage {self.storage!r} (choices: {STORAGES})"
            )
        if self.workers is not None and int(self.workers) < 0:
            raise ValueError(
                f"workers must be >= 0 (0 = serial) or None (= usable cores), "
                f"got {self.workers}"
            )

    def effective_workers(self) -> int:
        """Resolved worker count (>= 1).

        ``None`` resolves to the usable cores: the CPUs this process may
        run on (``os.sched_getaffinity``, which honors ``taskset`` and
        cpusets), or ``os.cpu_count()`` where the platform has no
        affinity call.  ``0`` resolves to 1 — it *means* serial (the
        ``--workers 0`` convention shared by both CLIs), and the build
        honors that because the threaded path only engages when the
        resolved count exceeds one.
        """
        if self.workers is None:
            if hasattr(os, "sched_getaffinity"):
                return len(os.sched_getaffinity(0))
            return os.cpu_count() or 1
        return int(self.workers) or 1


@dataclass
class BuildStats:
    """Observability record for one matrix build."""

    unique_count: int = 0
    #: "serial", "parallel", "cache", or "append" — the path that
    #: produced values (append = incremental growth of an existing
    #: matrix; only the new cells were computed).
    backend: str = "serial"
    #: "float64" or "float32" — the stored value dtype.
    dtype: str = DTYPE_FLOAT64
    #: "ram" or "memmap" — where the values live.
    storage: str = STORAGE_RAM
    workers: int = 1
    #: Independent work items (same-length bins + cross-length groups).
    task_count: int = 0
    #: Tiles in the build's queue (tasks sub-tiled to the kernel's
    #: temporary budget), the same whether they ran inline or on threads;
    #: 0 on a cache hit.
    tile_count: int = 0
    #: Unique segment pairs computed by the vectorized kernel.
    pairs_vectorized: int = 0
    cache_hit: bool = False
    cache_key: str | None = None
    #: Per-stage wall-clock seconds: blocks/compute/cache_load/cache_store/total.
    seconds: dict[str, float] = field(default_factory=dict)


def _by_length(
    segments: list[UniqueSegment], start: int, stop: int
) -> dict[int, list[int]]:
    """Indices ``[start, stop)`` of *segments* grouped by segment length."""
    by_length: dict[int, list[int]] = {}
    for index in range(start, stop):
        by_length.setdefault(segments[index].length, []).append(index)
    return by_length


def _segment_blocks(
    segments: list[UniqueSegment], by_length: dict[int, list[int]]
) -> dict[int, np.ndarray]:
    """One (count, length) uint8 block per segment length.

    Rows are decoded with ``np.frombuffer`` over the concatenated raw
    bytes — no per-byte Python list round-trip.  Kept as raw uint8 so
    the kernel can gather Canberra terms straight from the byte-term
    lookup table.
    """
    blocks = {}
    for length, indices in by_length.items():
        raw = b"".join(segments[i].data for i in indices)
        blocks[length] = np.frombuffer(raw, dtype=np.uint8).reshape(
            len(indices), length
        )
    return blocks


class _Task(NamedTuple):
    """One independent work item of a build or an append.

    ``"same"`` is the upper triangle of one length bin (*block_b* is
    None), ``"eqcross"`` an equal-length rectangle between disjoint
    index sets (the append path's new-vs-old cells), and ``"cross"`` a
    short length m against a group of longer blocks: *block_b* is the
    tuple of those blocks and *len_b* the longest of their lengths.
    *rows* and *cols* are the global matrix indices the result scatters
    to (for a cross task, the longer blocks' indices in block order).
    """

    kind: str
    len_a: int
    len_b: int
    block_a: np.ndarray
    block_b: np.ndarray | tuple[np.ndarray, ...] | None
    penalty_factor: float
    rows: list[int]
    cols: list[int]


def _cross_task(
    short: tuple[np.ndarray, list[int]],
    longer: list[tuple[np.ndarray, list[int]]],
    penalty_factor: float,
) -> _Task:
    """The cross-length task of one short block against its longer blocks."""
    block, rows = short
    return _Task(
        "cross",
        block.shape[1],
        max(long_block.shape[1] for long_block, _ in longer),
        block,
        tuple(long_block for long_block, _ in longer),
        penalty_factor,
        rows,
        [index for _, indices in longer for index in indices],
    )


def _tasks(
    old_by_length: dict[int, list[int]],
    new_by_length: dict[int, list[int]],
    old_blocks: dict[int, np.ndarray],
    new_blocks: dict[int, np.ndarray],
    penalty_factor: float,
) -> list[_Task]:
    """Work items covering exactly the cells with a *new* segment on a side.

    A batch build has no old segments, so every cell is new.  Per length
    over the union of old and new lengths: the new "same" triangle (a
    bin of one segment has no pairs), the new-vs-old "eqcross"
    rectangle, and at most two "cross" tasks — the new length-m block
    against every longer block of both generations, and the old
    length-m block against the longer new blocks.  Each cross task pairs
    the length-m block with a whole group of longer blocks, so their
    m-byte windows are collected (and deduplicated) once per short
    length rather than once per length pair.  Old-vs-old cells already
    hold their final values and are never touched, which is what keeps
    concurrent tile writes disjoint from the live matrix view.  Each
    cell goes through the same kernel reduction as a batch build over
    the union, so an appended matrix is bit-identical to a from-scratch
    build.
    """
    tasks = []
    lengths = sorted(set(old_by_length) | set(new_by_length))
    for li, length in enumerate(lengths):
        old = old_by_length.get(length)
        new = new_by_length.get(length)
        if new and len(new) > 1:
            tasks.append(
                _Task(
                    "same",
                    length,
                    length,
                    new_blocks[length],
                    None,
                    penalty_factor,
                    new,
                    new,
                )
            )
        if new and old:
            tasks.append(
                _Task(
                    "eqcross",
                    length,
                    length,
                    new_blocks[length],
                    old_blocks[length],
                    penalty_factor,
                    new,
                    old,
                )
            )
        longer_new = [
            (new_blocks[n], new_by_length[n])
            for n in lengths[li + 1 :]
            if n in new_by_length
        ]
        longer_old = [
            (old_blocks[n], old_by_length[n])
            for n in lengths[li + 1 :]
            if n in old_by_length
        ]
        if new and (longer_old or longer_new):
            tasks.append(
                _cross_task(
                    (new_blocks[length], new), longer_old + longer_new, penalty_factor
                )
            )
        if old and longer_new:
            tasks.append(
                _cross_task((old_blocks[length], old), longer_new, penalty_factor)
            )
    return tasks


def _task_tiles(tasks: list[_Task]) -> list[tuple[int, int, int, int]]:
    """The build's work queue: ``(task, row_start, row_stop, cost)``.

    Each task is sub-tiled along its rows so one tile's gather stays
    inside the kernel's fixed temporary budget
    (:data:`repro.core.canberra.CHUNK_CELL_BUDGET`, ~160 MB of float64
    cells).  A cross row is costed at the byte terms it would gather
    without window dedup, which depends on shapes alone.  Boundaries
    depend only on the task shapes, never on the worker count, so the
    queue is deterministic; *cost* estimates the tile's gather cells and
    drives the longest-processing-time-first schedule.
    """
    tiles = []
    for index, task in enumerate(tasks):
        rows, length = task.block_a.shape
        if task.kind == "same":
            cells_per_row = max(1, rows * length)
        elif task.kind == "eqcross":
            cells_per_row = max(1, task.block_b.shape[0] * length)
        else:
            windows = sum(b * (n - length + 1) for b, n in (x.shape for x in task.block_b))
            cells_per_row = max(1, windows * length)
        tile_rows = max(1, CHUNK_CELL_BUDGET // cells_per_row)
        for start in range(0, rows, tile_rows):
            stop = min(rows, start + tile_rows)
            if task.kind == "same":
                # The tile only gathers the upper band (columns start:).
                cost = (stop - start) * (rows - start) * length
            else:
                cost = (stop - start) * cells_per_row
            tiles.append((index, start, stop, cost))
    return tiles


def _tile_pair_count(task: _Task, row_start: int, row_stop: int) -> int:
    """Unique segment pairs one tile covers."""
    rows = row_stop - row_start
    if task.kind == "same":
        # Row i pairs with the count - 1 - i rows after it.
        count = task.block_a.shape[0]
        return rows * (2 * count - 1 - row_start - row_stop) // 2
    return rows * len(task.cols)


def _compute_tile_into(
    values: np.ndarray,
    task: _Task,
    row_start: int,
    row_stop: int,
    cells_budget: int,
) -> dict:
    """Compute one tile and write it (plus its mirror) into *values*.

    The one unit of work of every build.  Tiles of one build cover
    disjoint cells of *values* (an equal-length tile owns its upper
    band rows and their transposes; a cross-length or eqcross tile owns
    its rows and their transposes), so concurrent workers never write
    the same cell — except the symmetric diagonal band *within* one
    tile, which the same thread overwrites with bit-identical values.
    Returns the tile's extra ``matrix.bin`` span attributes: a cross
    tile collects and deduplicates its task's windows itself, so tiles
    share no state, and reports their counts.
    """
    attributes: dict = {}
    rows = task.rows[row_start:row_stop]
    cols = task.cols
    if task.kind != "cross":
        right = task.block_b
        if task.kind == "same":
            # The upper band: the tile's rows against every row from its first on.
            right = task.block_a[row_start:]
            cols = task.cols[row_start:]
        tile = equal_length_cross_rows(
            task.block_a, right, row_start, row_stop, cells_budget=cells_budget
        )
    else:
        windows = sliding_windows(task.block_b, task.len_a)
        tile = cross_length_rows(
            task.block_a,
            windows,
            row_start,
            row_stop,
            penalty_factor=task.penalty_factor,
            cells_budget=cells_budget,
        )
        attributes = {"windows": windows.count, "unique_windows": windows.unique_count}
    values[np.ix_(rows, cols)] = tile
    values[np.ix_(cols, rows)] = tile.T
    return attributes


def _bin_error(
    task: _Task, row_start: int, row_stop: int, where: str, error: Exception
) -> ComputeError:
    """The build's failure when one of *task*'s tiles raised *error*."""
    return ComputeError(
        f"matrix bin ({task.len_a}, {task.len_b}) failed in the {where} "
        f"(tile rows [{row_start}, {row_stop})): {error}"
    )


def _run_tile(
    values: np.ndarray,
    task: _Task,
    tile: tuple[int, int, int, int],
    cells_budget: int,
    enqueued: float,
) -> dict:
    """Compute + measure one tile, on a worker thread or inline.

    Returns the observability record the calling thread turns into a
    ``matrix.bin`` span and queue-wait histogram sample — workers never
    touch the tracer or metrics registry themselves (both are bound via
    :mod:`contextvars`, which executor threads do not inherit, and
    neither is thread-safe).
    """
    _, row_start, row_stop, _ = tile
    started = time.perf_counter()
    started_unix = time.time()
    started_cpu = time.thread_time()
    attributes = _compute_tile_into(values, task, row_start, row_stop, cells_budget)
    return {
        "worker": threading.current_thread().name,
        "queue_seconds": started - enqueued,
        "wall_seconds": time.perf_counter() - started,
        "cpu_seconds": time.thread_time() - started_cpu,
        "started_unix": started_unix,
        "attributes": attributes,
    }


def _walk_inline(values: np.ndarray, tasks: list[_Task], futures: dict):
    """Run the tiles of *futures* on the calling thread, in order, yielding each when done.

    A tile whose future was cancelled meanwhile is yielded without running.
    """
    for future, tile in futures.items():
        if future.set_running_or_notify_cancel():
            try:
                future.set_result(
                    _run_tile(
                        values, tasks[tile[0]], tile, CHUNK_CELL_BUDGET, time.perf_counter()
                    )
                )
            except Exception as error:
                future.set_exception(error)
        yield tile, future


def _compute_tiles(
    tasks: list[_Task], values: np.ndarray, workers: int, stats: BuildStats
) -> None:
    """Run the build's tile queue into *values*: inline, or on *workers* threads.

    The one scheduler of every build.  Tiles go
    longest-processing-time-first (by estimated gather cells): on threads
    the big tasks start at once and the small ones backfill, keeping the
    makespan within 4/3 of optimal; one worker walks the same queue
    inline, so a serial build gathers the same upper bands as a threaded
    one.  Threads share the uint8 blocks and the output matrix zero-copy
    and split the kernel's temporary budget
    (:func:`repro.core.membound.divide_bound`, then by
    :data:`CHUNKS_PER_WORKER`), so concurrent tiles together stay inside
    one inline tile's bound.

    Each finished tile becomes one ``matrix.bin`` span on the calling
    thread; threaded tiles add ``worker`` and ``queue_seconds`` and a
    queue-wait sample.  A tile that raises fails the build with a
    :class:`ComputeError` naming its bin: the scheduler cancels every
    tile not started yet, drains the ones running (threads cannot be
    killed), and only then raises.
    """
    tiles = _task_tiles(tasks)
    # LPT: largest estimated tile first, index as deterministic tie-break.
    queue = [tiles[i] for i in sorted(range(len(tiles)), key=lambda i: (-tiles[i][3], i))]
    stats.tile_count = len(queue)
    tracer = get_tracer()
    metrics = get_metrics()
    threaded = workers > 1
    executor = None
    failure: tuple[tuple[int, int, int, int], Exception] | None = None
    drained = 0
    try:
        if threaded:
            executor = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-matrix"
            )
            budget = divide_bound(CHUNK_CELL_BUDGET, workers * CHUNKS_PER_WORKER)
            futures = {
                executor.submit(
                    _run_tile, values, tasks[tile[0]], tile, budget, time.perf_counter()
                ): tile
                for tile in queue
            }
            finished = ((futures[future], future) for future in as_completed(futures))
            queue_histogram = metrics.histogram(BIN_QUEUE_METRIC, help=_BIN_QUEUE_HELP)
            scheduled = metrics.counter(BINS_SCHEDULED_METRIC, help=_BINS_SCHEDULED_HELP)
            for tile in queue:
                scheduled.inc(kind=tasks[tile[0]].kind)
        else:
            futures = {Future(): tile for tile in queue}
            finished = _walk_inline(values, tasks, futures)
        for tile, future in finished:
            task = tasks[tile[0]]
            if future.cancelled():
                # CancelledError is a BaseException; count the tile as
                # drained instead of letting result() raise it.
                drained += 1
                continue
            try:
                record = future.result()
            except Exception as error:
                metrics.counter(FAULTS_METRIC, help=_FAULTS_HELP).inc(kind="bin_error")
                if failure is None:
                    failure = (tile, error)
                    for pending in futures:
                        pending.cancel()
                continue
            extra = record["attributes"]
            if threaded:
                queue_histogram.observe(record["queue_seconds"])
                extra = dict(
                    extra,
                    worker=record["worker"],
                    queue_seconds=round(record["queue_seconds"], 6),
                )
            tracer.record(
                "matrix.bin",
                wall_seconds=record["wall_seconds"],
                cpu_seconds=record["cpu_seconds"],
                started_unix=record["started_unix"],
                kind=task.kind,
                len_a=task.len_a,
                len_b=task.len_b,
                pairs=_tile_pair_count(task, tile[1], tile[2]),
                tile=f"{tile[1]}:{tile[2]}",
                **extra,
            )
    finally:
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
    if failure is not None:
        (index, row_start, row_stop, _), error = failure
        where = (
            f"threaded build, {drained} queued tiles drained" if threaded else "serial build"
        )
        raise _bin_error(tasks[index], row_start, row_stop, where, error) from error
    stats.pairs_vectorized = sum(_tile_pair_count(tasks[t[0]], t[1], t[2]) for t in tiles)


def _compute_cells(
    values: np.ndarray,
    segments: list[UniqueSegment],
    old_count: int,
    penalty_factor: float,
    options: MatrixBuildOptions,
    stats: BuildStats,
) -> bool:
    """Fill every cell of *values* with a segment past *old_count* on a side.

    Groups the segments by length into uint8 blocks, turns them into
    :func:`_tasks` and computes those (``old_count=0`` is a batch
    build).  Threads engage from :data:`PARALLEL_THRESHOLD` segments on
    with more than one worker; otherwise the tile queue runs inline.
    Returns whether the threaded path ran.
    """
    blocks_started = time.perf_counter()
    old_by_length = _by_length(segments, 0, old_count)
    new_by_length = _by_length(segments, old_count, len(segments))
    tasks = _tasks(
        old_by_length,
        new_by_length,
        _segment_blocks(segments, old_by_length),
        _segment_blocks(segments, new_by_length),
        penalty_factor,
    )
    stats.seconds["blocks"] = time.perf_counter() - blocks_started
    stats.task_count = len(tasks)

    compute_started = time.perf_counter()
    workers = options.effective_workers()
    threaded = workers > 1 and bool(tasks) and len(segments) >= PARALLEL_THRESHOLD
    stats.workers = workers if threaded else 1
    _compute_tiles(tasks, values, stats.workers, stats)
    stats.seconds["compute"] = time.perf_counter() - compute_started
    get_metrics().counter(PAIRS_VECTORIZED_METRIC, help=_PAIRS_HELP).inc(
        stats.pairs_vectorized
    )
    return threaded


def _allocate_values(count: int, dtype: str, storage: str) -> np.ndarray:
    """Zero-filled (count, count) value storage per the requested mode.

    The memmap mode backs the array with an unlinked temporary file
    (``$TMPDIR``): the mapping stays valid after the unlink on POSIX, so
    no cleanup handle is needed — the space is reclaimed when the array
    is garbage-collected.  Falls back to RAM when the filesystem refuses
    (read-only temp dir, exotic platforms).
    """
    if storage == STORAGE_MEMMAP:
        try:
            fd, name = tempfile.mkstemp(prefix="repro-matrix-", suffix=".values")
            try:
                size = count * count * np.dtype(dtype).itemsize
                os.ftruncate(fd, max(1, size))
                with os.fdopen(fd, "r+b") as handle:
                    fd = None
                    values = np.memmap(
                        handle, dtype=dtype, mode="r+", shape=(count, count)
                    )
            finally:
                if fd is not None:
                    os.close(fd)
                os.unlink(name)
            return values
        except OSError as error:
            logger.warning("memmap storage unavailable (%s); using RAM", error)
    return np.zeros((count, count), dtype=dtype)


@dataclass
class DissimilarityMatrix:
    """Symmetric matrix of Canberra dissimilarities between unique segments."""

    segments: list[UniqueSegment]
    values: np.ndarray
    stats: BuildStats | None = None
    #: Cached k-th-NN distance columns (one per k, widest request wins);
    #: see :meth:`knn_distances_all`.
    _knn_columns: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def build(
        cls,
        segments: list[UniqueSegment],
        penalty_factor: float = DEFAULT_PENALTY_FACTOR,
        options: MatrixBuildOptions | None = None,
    ) -> "DissimilarityMatrix":
        """Build D over *segments*, honoring the execution *options*.

        ``options=None`` means ``MatrixBuildOptions()``.  Every
        execution path returns values bit-identical to the serial one.
        """
        if options is None:
            options = MatrixBuildOptions()
        matrixcache.declare_cache_metrics()
        with get_tracer().span(
            "matrix.build", unique_segments=len(segments)
        ) as span:
            started = time.perf_counter()
            stats = BuildStats(
                unique_count=len(segments),
                dtype=options.dtype,
                storage=options.storage,
            )

            order: list[int] | None = None
            if options.use_cache:
                stats.cache_key, order = matrixcache.canonical_order_key(
                    [segment.data for segment in segments],
                    penalty_factor,
                    dtype=options.dtype,
                )
                load_started = time.perf_counter()
                canonical = matrixcache.load_matrix(stats.cache_key, options.cache_dir)
                stats.seconds["cache_load"] = time.perf_counter() - load_started
                if canonical is not None and canonical.shape[0] == len(segments):
                    # Stored in canonical (byte-sorted) order; permute back
                    # to the caller's segment order.
                    rank = np.empty(len(segments), dtype=np.int64)
                    rank[order] = np.arange(len(segments))
                    values = np.ascontiguousarray(canonical[np.ix_(rank, rank)])
                    stats.backend = "cache"
                    stats.cache_hit = True
                    stats.seconds["total"] = time.perf_counter() - started
                    cls._record_build(span, stats)
                    return cls(segments=segments, values=values, stats=stats)

            values = _allocate_values(len(segments), options.dtype, options.storage)
            if _compute_cells(values, segments, 0, penalty_factor, options, stats):
                stats.backend = "parallel"

            if options.use_cache and stats.cache_key is not None and order is not None:
                store_started = time.perf_counter()
                canonical = np.ascontiguousarray(values[np.ix_(order, order)])
                matrixcache.store_matrix(stats.cache_key, canonical, options.cache_dir)
                stats.seconds["cache_store"] = time.perf_counter() - store_started

            stats.seconds["total"] = time.perf_counter() - started
            cls._record_build(span, stats)
            return cls(segments=segments, values=values, stats=stats)

    @staticmethod
    def _record_build(span, stats: BuildStats) -> None:
        """Mirror one build's :class:`BuildStats` into span + metrics."""
        span.set(
            backend=stats.backend,
            dtype=stats.dtype,
            storage=stats.storage,
            workers=stats.workers,
            tasks=stats.task_count,
            cache_hit=stats.cache_hit,
            cache_key=stats.cache_key,
        )
        if stats.tile_count:
            span.set(tiles=stats.tile_count)
        get_metrics().counter(
            BUILDS_METRIC, help="Dissimilarity-matrix builds by backend."
        ).inc(backend=stats.backend)

    def __len__(self) -> int:
        return len(self.segments)

    def distance(self, i: int, j: int) -> float:
        return float(self.values[i, j])

    def knn_distances_all(
        self, k_max: int, memory_bound_bytes: int | None = None
    ) -> np.ndarray:
        """Every k-th-NN distance column for k in [1, k_max], at once.

        Returns a ``(n, k_max)`` array whose column ``k - 1`` holds every
        segment's dissimilarity to its k-th nearest neighbor, the segment
        itself excluded (k=1 is the closest other segment).  The k-th
        order statistic of a row is the same value whether it comes from
        a full sort or a partial partition, so the columns are
        bit-identical to a full-sort reference.  One ``np.partition``
        pass costs O(n²) per row block instead of an O(n² log n) full
        sort per k, and the scan is
        blocked under *memory_bound_bytes* (partition copies its input
        block, so a full-matrix pass would transiently double the
        resident matrix).

        The widest computed result is cached on the matrix: Algorithm 1
        retrims and repeated ``configure()`` calls reuse the columns
        instead of re-scanning the matrix.
        """
        count = len(self)
        if not 1 <= k_max < count:
            raise ValueError(f"k_max must be in [1, {count - 1}], got {k_max}")
        cached = self._knn_columns
        if cached is not None and cached.shape[1] >= k_max:
            return cached[:, :k_max]
        with get_tracer().span(
            "matrix.knn", k_max=k_max, rows=count
        ) as span:
            started = time.perf_counter()
            kth = np.arange(1, k_max + 1)
            columns = np.empty((count, k_max), dtype=self.values.dtype)
            # One row costs its matrix row plus the partition's copy of it.
            block = rows_per_block(
                count * self.values.dtype.itemsize,
                memory_bound_bytes,
                copies=2,
            )
            for start in range(0, count, block):
                stop = min(count, start + block)
                part = np.partition(self.values[start:stop], kth, axis=1)
                # Column 0 of the sorted row would be the self-distance
                # (diagonal zero); columns 1..k_max are the k nearest
                # other segments.
                columns[start:stop] = part[:, 1 : k_max + 1]
            elapsed = time.perf_counter() - started
            span.set(seconds=round(elapsed, 6), block_rows=block)
        get_metrics().histogram(KNN_PARTITION_METRIC, help=_KNN_HELP).observe(elapsed)
        self._knn_columns = columns
        return columns

    def condensed(self) -> np.ndarray:
        """Upper-triangle distances as a flat vector (scipy convention)."""
        iu = np.triu_indices(len(self), k=1)
        return self.values[iu]


class AppendableMatrix:
    """A dissimilarity matrix that grows in place as segments arrive.

    Wraps :class:`DissimilarityMatrix` with capacity-managed backing
    storage (over-allocated by :data:`RESERVE_FACTOR`) and an
    :meth:`append` that computes only the new-vs-old rectangles and the
    new-vs-new diagonal — through the same tasks and tiles as a batch
    build, so the
    grown matrix is bit-identical to ``DissimilarityMatrix.build`` over
    the union of segments.  The cached k-NN columns are folded forward
    with a rank-k merge instead of re-partitioning every old row.

    The live view is :attr:`matrix`; views handed out before an append
    stay valid (their old-vs-old cells are never rewritten), so a
    snapshot taken at n segments keeps describing those n segments.
    """

    def __init__(
        self,
        segments: list[UniqueSegment],
        penalty_factor: float = DEFAULT_PENALTY_FACTOR,
        options: MatrixBuildOptions | None = None,
    ) -> None:
        if options is None:
            options = MatrixBuildOptions()
        self.options = options
        self.penalty_factor = penalty_factor
        segments = list(segments)
        built = DissimilarityMatrix.build(segments, penalty_factor, options)
        count = len(segments)
        capacity = max(1, count, int(count * RESERVE_FACTOR))
        self._backing = _allocate_values(capacity, options.dtype, options.storage)
        self._backing[:count, :count] = built.values
        self._count = count
        self._matrix = DissimilarityMatrix(
            segments=segments,
            values=self._backing[:count, :count],
            stats=built.stats,
        )
        self._matrix._knn_columns = built._knn_columns

    @property
    def matrix(self) -> DissimilarityMatrix:
        """The live matrix over every segment appended so far."""
        return self._matrix

    @property
    def segments(self) -> list[UniqueSegment]:
        return self._matrix.segments

    def __len__(self) -> int:
        return self._count

    def _ensure_capacity(self, needed: int) -> None:
        capacity = self._backing.shape[0]
        if needed <= capacity:
            return
        new_capacity = max(needed, int(capacity * RESERVE_FACTOR) + 1)
        grown = _allocate_values(new_capacity, self.options.dtype, self.options.storage)
        grown[: self._count, : self._count] = self._backing[
            : self._count, : self._count
        ]
        # The previous backing stays alive as long as older matrix
        # views reference it; their values are final, so nothing is lost.
        self._backing = grown

    def append(self, new_segments: list[UniqueSegment]) -> DissimilarityMatrix:
        """Grow the matrix by *new_segments*; returns the new live view.

        *new_segments* must be unique among themselves and against every
        segment already in the matrix (the caller deduplicates — the
        session does, via its payload registry).  Only the cells with a
        new index on at least one side are computed; everything else is
        carried forward untouched.
        """
        new_segments = list(new_segments)
        added = len(new_segments)
        if not added:
            return self._matrix
        old_count = self._count
        count = old_count + added
        options = self.options
        with get_tracer().span(
            "matrix.append", old_segments=old_count, new_segments=added
        ) as span:
            started = time.perf_counter()
            self._ensure_capacity(count)
            values = self._backing[:count, :count]
            stats = BuildStats(
                unique_count=count,
                backend="append",
                dtype=options.dtype,
                storage=options.storage,
            )

            segments = self._matrix.segments + new_segments
            _compute_cells(values, segments, old_count, self.penalty_factor, options, stats)

            merged_knn = self._merged_knn_columns(values, old_count, count)
            stats.seconds["total"] = time.perf_counter() - started
            DissimilarityMatrix._record_build(span, stats)
            matrix = DissimilarityMatrix(segments=segments, values=values, stats=stats)
            matrix._knn_columns = merged_knn
            self._matrix = matrix
            self._count = count
        return matrix

    def _merged_knn_columns(
        self, values: np.ndarray, old_count: int, count: int
    ) -> np.ndarray | None:
        """Rank-k merge of the cached k-NN columns with the new cells.

        An old row's k nearest neighbors within the union are the k
        smallest of (its cached k nearest among the old rows) ∪ (its
        distances to the new rows) — the cached columns provably
        contain every union minimum that is an old segment.  New rows
        get one partition over their full rows, exactly as
        :meth:`DissimilarityMatrix.knn_distances_all` would.  Both are
        the same order statistics the batch path extracts, hence
        bit-identical; only O(n·(k+m)) work instead of O(n²).
        """
        cached = self._matrix._knn_columns
        if cached is None:
            return None
        k = min(cached.shape[1], count - 1)
        if k < 1:
            return None
        with get_tracer().span("matrix.knn_merge", k_max=k, rows=count) as span:
            started = time.perf_counter()
            old_merged = np.partition(
                np.concatenate(
                    [cached[:, :k], values[:old_count, old_count:count]], axis=1
                ),
                np.arange(k),
                axis=1,
            )[:, :k]
            # New rows include their own diagonal zero at sorted position
            # 0, so columns 1..k are the k nearest other segments.
            new_part = np.partition(
                values[old_count:count, :count], np.arange(1, k + 1), axis=1
            )
            columns = np.concatenate([old_merged, new_part[:, 1 : k + 1]], axis=0)
            elapsed = time.perf_counter() - started
            span.set(seconds=round(elapsed, 6))
        get_metrics().histogram(KNN_PARTITION_METRIC, help=_KNN_HELP).observe(elapsed)
        return columns

    def replace_segments(self, segments: list[UniqueSegment]) -> DissimilarityMatrix:
        """Swap in refreshed segment objects without touching the values.

        The session uses this after merging occurrence lists: the byte
        values (and therefore every dissimilarity and the cache key)
        must be unchanged, position by position — only metadata like
        occurrence tuples may differ.
        """
        segments = list(segments)
        if len(segments) != self._count:
            raise ValueError(
                f"expected {self._count} replacement segments, got {len(segments)}"
            )
        for position, (old, new) in enumerate(zip(self._matrix.segments, segments)):
            if old.data != new.data:
                raise ValueError(
                    f"replacement segment {position} changes the byte value"
                )
        matrix = DissimilarityMatrix(
            segments=segments,
            values=self._matrix.values,
            stats=self._matrix.stats,
        )
        matrix._knn_columns = self._matrix._knn_columns
        self._matrix = matrix
        return matrix

    def persist(self, cache_dir: str | Path | None = None) -> None:
        """Store the live matrix in the on-disk cache.

        After this, a batch ``DissimilarityMatrix.build`` over the same
        segment set (with ``use_cache=True``) hits instead of paying the
        full O(n²) computation — e.g. a later offline re-analysis of a
        capture a session already grew through.
        """
        datas = [segment.data for segment in self._matrix.segments]
        key, order = matrixcache.canonical_order_key(
            datas, self.penalty_factor, dtype=self.options.dtype
        )
        canonical = np.ascontiguousarray(self._matrix.values[np.ix_(order, order)])
        matrixcache.store_matrix(key, canonical, cache_dir or self.options.cache_dir)
