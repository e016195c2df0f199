"""Layer self times from span trees, and Chrome trace-event export.

The benchmark records one span around every public call it makes, on a
:class:`repro.obs.tracer.Tracer` that it also hands to the program, so
the program's own spans (``segment``, ``matrix.bin``, ``autoconf``,
``msgtypes.similarity``, ...) nest under the benchmark's.  Each span is
assigned a layer by name; a span without a layer of its own belongs to
its parent's.

A layer's time is the wall time its spans cover, minus the time covered
by nested spans of other layers.  Both are unions of intervals, so
children that ran in parallel on threads (the matrix tiles) are counted
once, not added up one after another.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Iterable

from repro.obs.tracer import Span

#: Span names -> the layer they time.  The first block names the
#: benchmark's own spans (one per public call); the second the spans
#: the program records inside those calls.  Unlisted spans (for
#: example ``pipeline``, ``session.recluster`` or ``matrix.knn``, the
#: k-NN columns autoconf reads) belong to their parent's layer, and a
#: root without a layer (``cluster_matrix`` around autoconf/DBSCAN/
#: refine) is glue that no layer is charged for.
LAYER_OF_SPAN = {
    "load_trace": "net.load",
    "Trace.preprocess": "net.preprocess",
    "Segmenter.segment": "segmenters",
    "DissimilarityMatrix.build": "core.matrix",
    "infer_session_machine": "statemachine",
    "AnalysisReport.build": "report",
    "AnalysisSession.append": "session",
    "AnalysisSession.snapshot": "session",
    "segment": "segmenters",
    "matrix.build": "core.matrix",
    "matrix.append": "core.matrix",
    "matrix.bin": "core.matrix",
    "autoconf": "core.autoconf",
    "dbscan": "core.dbscan",
    "refine": "core.refine",
    "msgtypes.similarity": "msgtypes.similarity",
    "msgtypes.cluster": "msgtypes.cluster",
    "statemachine.infer": "statemachine",
}


def interval(span: Span) -> tuple[float, float]:
    return span.started_unix, span.started_unix + span.wall_seconds


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def _foreign_descendants(span: Span, layer: str, layer_of) -> list[Span]:
    """Nearest descendants of *span* whose layer differs from *layer*."""
    found = []
    for child in span.children:
        child_layer = layer_of(child.name) or layer
        if child_layer != layer:
            found.append(child)
        else:
            found.extend(_foreign_descendants(child, layer, layer_of))
    return found


def _clip(inner: tuple[float, float], outer: tuple[float, float]):
    lo, hi = max(inner[0], outer[0]), min(inner[1], outer[1])
    return (lo, hi) if hi > lo else None


def layer_seconds(
    roots: Iterable[Span],
    layer_of: Callable[[str], str | None] = LAYER_OF_SPAN.get,
) -> tuple[dict[str, float], dict[str, float]]:
    """Exclusive wall and CPU seconds per layer over the span trees *roots*.

    Every span that starts a layer (its layer differs from its
    parent's) contributes the part of its interval not covered by its
    nearest descendants of another layer.  Same-layer children (for
    example parallel ``matrix.bin`` tiles under ``matrix.build``) sit
    inside their parent's interval and add nothing on top of it.  CPU
    seconds are process-wide (all threads) over the same spans, minus
    those of the nested other-layer spans, which ran one after another
    on the calling thread.
    """
    wall: dict[str, float] = {}
    cpu: dict[str, float] = {}

    def visit(span: Span, parent_layer: str | None) -> None:
        layer = layer_of(span.name) or parent_layer
        if layer is not None and layer != parent_layer:
            outer = interval(span)
            foreign = _foreign_descendants(span, layer, layer_of)
            covered = [
                clipped
                for child in foreign
                if (clipped := _clip(interval(child), outer)) is not None
            ]
            own = (outer[1] - outer[0]) - union_length(covered)
            wall[layer] = wall.get(layer, 0.0) + own
            own_cpu = span.cpu_seconds - sum(child.cpu_seconds for child in foreign)
            cpu[layer] = cpu.get(layer, 0.0) + own_cpu
        for child in span.children:
            visit(child, layer)

    for root in roots:
        visit(root, None)
    return wall, cpu


def chrome_trace(roots: Iterable[Span], metadata: dict | None = None) -> dict:
    """Chrome trace-event JSON (opens in Perfetto and chrome://tracing).

    Spans become complete ("X") events in microseconds.  Matrix tiles
    recorded by worker threads go on one track per worker, so parallel
    tiles show side by side instead of overlapping on the main track.
    """
    pid = os.getpid()
    events = [
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": "main"}},
    ]
    tracks: dict[str, int] = {}

    def emit(span: Span) -> None:
        worker = span.attributes.get("worker")
        if worker is None:
            tid = 0
        elif worker in tracks:
            tid = tracks[worker]
        else:
            tid = tracks[worker] = len(tracks) + 1
            events.append(
                {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                 "args": {"name": str(worker)}}
            )
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": span.started_unix * 1e6,
                "dur": span.wall_seconds * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {
                    key: value
                    for key, value in span.attributes.items()
                    if isinstance(value, (str, int, float, bool)) or value is None
                },
            }
        )
        for child in span.children:
            emit(child)

    for root in roots:
        emit(root)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": metadata or {},
    }


def write_chrome_trace(path: str | Path, roots, metadata: dict | None = None) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as stream:
        json.dump(chrome_trace(roots, metadata), stream)
