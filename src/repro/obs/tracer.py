"""Nestable tracing spans for the clustering pipeline.

A :class:`Span` records one named unit of work — a pipeline stage, a
segmenter run, a matrix build — with wall-clock seconds, process CPU
seconds, the process peak RSS observed by its end, free-form
attributes, and child spans.  A :class:`Tracer` assembles spans into a
tree via a reentrant context manager::

    tracer = Tracer()
    with tracer.span("pipeline", segments=1234):
        with tracer.span("matrix") as span:
            ...
            span.set(backend="parallel")

Spans always *measure*, even on a disabled tracer, so cheap views like
the pipeline's ``timings`` dict work without any tracer plumbing; a
disabled tracer simply retains nothing (``roots`` stays empty), which
keeps long-lived library processes from accumulating span trees.  The
active tracer is a :mod:`contextvars` binding — :func:`get_tracer`
inside the pipeline picks up whatever :func:`use_tracer` scope the
caller (CLI, :mod:`repro.api`, a test) established, with a process-wide
disabled tracer as the default.

Exception safety: a span whose body raises is marked ``status="error"``
with the exception summary recorded, then closed normally; the
exception propagates unchanged.
"""

from __future__ import annotations

import contextvars
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

try:  # pragma: no cover - absent only on non-unix platforms
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None


def peak_rss_kib() -> int | None:
    """Process peak resident set size in KiB, or None if unavailable."""
    if _resource is None:
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS, KiB on Linux
        peak //= 1024
    return int(peak)


@dataclass
class Span:
    """One named, timed unit of work inside a span tree."""

    name: str
    attributes: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    #: Unix epoch seconds when the span started (for cross-run ordering).
    started_unix: float = 0.0
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    #: Process-wide peak RSS in KiB observed by span end (monotonic).
    peak_rss_kib: int | None = None
    status: str = "ok"
    error: str | None = None
    _wall_anchor: float = field(default=0.0, repr=False)
    _cpu_anchor: float = field(default=0.0, repr=False)

    def set(self, **attributes) -> "Span":
        """Attach attributes to the span; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def begin(self) -> None:
        """Anchor the span's clocks (called by :meth:`Tracer.span`)."""
        self.started_unix = time.time()
        self._wall_anchor = time.perf_counter()
        self._cpu_anchor = time.process_time()

    def end(self) -> None:
        """Close the span's clocks (called by :meth:`Tracer.span`)."""
        self.wall_seconds = time.perf_counter() - self._wall_anchor
        self.cpu_seconds = time.process_time() - self._cpu_anchor
        self.peak_rss_kib = peak_rss_kib()

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        """JSON-ready representation (the manifest's span node schema)."""
        return {
            "name": self.name,
            "started_unix": self.started_unix,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "peak_rss_kib": self.peak_rss_kib,
            "status": self.status,
            "error": self.error,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }


class Tracer:
    """Collects spans into trees; one instance per run (not thread-safe).

    *max_roots* bounds how many root span trees are retained: once
    reached, further root spans still measure but are not kept (counted
    in :attr:`dropped_roots`).  Long-running processes — the
    ``repro-serve`` session service traces every append as its own root
    — set a bound so the tracer cannot grow without limit; ``None``
    (the default) retains everything, which is right for one-shot runs.
    """

    def __init__(self, enabled: bool = True, max_roots: int | None = None):
        if max_roots is not None and max_roots < 1:
            raise ValueError(f"max_roots must be >= 1, got {max_roots}")
        self.enabled = enabled
        self.max_roots = max_roots
        self.roots: list[Span] = []
        self.dropped_roots = 0
        self._stack: list[Span] = []

    def reset(self) -> None:
        """Drop every retained root tree (e.g. after exporting them).

        Spans currently open keep recording into their existing tree,
        which is simply no longer retained; new roots are kept again.
        """
        self.roots = []
        self.dropped_roots = 0

    def _retain_root(self, span: Span) -> None:
        if self.max_roots is not None and len(self.roots) >= self.max_roots:
            self.dropped_roots += 1
            return
        self.roots.append(span)

    @contextmanager
    def span(self, name: str, **attributes):
        """Open a child span of the innermost active span (or a new root)."""
        span = Span(name=name, attributes=dict(attributes))
        if self.enabled:
            if self._stack:
                self._stack[-1].children.append(span)
            else:
                self._retain_root(span)
        self._stack.append(span)
        span.begin()
        try:
            yield span
        except BaseException as exc:
            span.status = "error"
            span.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            span.end()
            self._stack.pop()

    def record(
        self,
        name: str,
        *,
        wall_seconds: float = 0.0,
        cpu_seconds: float = 0.0,
        started_unix: float | None = None,
        **attributes,
    ) -> Span:
        """Attach one already-measured, closed span to the active span.

        The threaded matrix scheduler uses this: worker threads run in
        their own :mod:`contextvars` context (so ``get_tracer()`` there
        would miss the caller's binding) and the tracer itself is not
        thread-safe, so workers only *measure* their tiles and the main
        thread records them after each completion.  The span is created
        closed, with the caller-supplied clocks: a worker measures its
        tile's CPU with :func:`time.thread_time`, which counts only its
        own thread.  Peak RSS is process-wide, so it stays None.
        """
        span = Span(name=name, attributes=dict(attributes))
        span.started_unix = time.time() if started_unix is None else started_unix
        span.wall_seconds = float(wall_seconds)
        span.cpu_seconds = float(cpu_seconds)
        if self.enabled:
            if self._stack:
                self._stack[-1].children.append(span)
            else:
                self._retain_root(span)
        return span

    def walk(self) -> Iterator[Span]:
        """Depth-first iteration over every retained span."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> list[Span]:
        """All retained spans with the given name, in tree order."""
        return [span for span in self.walk() if span.name == name]

    def stage_timings(self) -> dict[str, float]:
        """Wall seconds per span name (summed over repeats), tree order.

        This is the data behind the CLIs' ``--timings`` view.
        """
        timings: dict[str, float] = {}
        for span in self.walk():
            timings[span.name] = timings.get(span.name, 0.0) + span.wall_seconds
        return timings


#: Default binding: measure-only, retain nothing.
_DISABLED = Tracer(enabled=False)
_ACTIVE: contextvars.ContextVar[Tracer] = contextvars.ContextVar(
    "repro_active_tracer", default=_DISABLED
)


def get_tracer() -> Tracer:
    """The tracer bound to the current context (default: disabled)."""
    return _ACTIVE.get()


@contextmanager
def use_tracer(tracer: Tracer):
    """Bind *tracer* as the active tracer for the enclosed block."""
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)
