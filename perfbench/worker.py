"""In-process workloads, run in a fresh process per benchmark run.

``python3 perfbench/worker.py SPEC.json`` imports the library, prints
``ready`` (the end of set-up as the parent measures it), runs the timed
passes the spec asks for, checks the outputs, and prints one JSON
result line.  ``python3 perfbench/worker.py --probe`` only imports and
prints ``ready``: the parent uses it for further set-up samples.

A fresh process per run keeps ``ru_maxrss`` meaningful, because the
peak only ever grows within a process.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.api import run_analysis  # noqa: E402
from repro.core.matrix import DissimilarityMatrix  # noqa: E402
from repro.core.pipeline import ClusteringConfig, FieldTypeClusterer  # noqa: E402
from repro.core.segments import unique_segments  # noqa: E402
from repro.msgtypes import cluster_message_types  # noqa: E402
from repro.msgtypes.similarity import segment_sequences  # noqa: E402
from repro.net.trace import load_trace  # noqa: E402
from repro.obs.tracer import Tracer, use_tracer  # noqa: E402
from repro.report import AnalysisReport  # noqa: E402
from repro.segmenters.registry import resolve_segmenter  # noqa: E402
from repro.session import AnalysisSession  # noqa: E402
from repro.statemachine.stage import infer_session_machine  # noqa: E402

from spans import layer_seconds, write_chrome_trace  # noqa: E402

#: Passes per timed phase at the least, so a median exists.
MIN_PASSES = 3


class Ops:
    """Attempted and failed operations, with the reason for each failure,
    and how many output comparisons were made."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.failures: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)


def alignment_work(segments, message_count: int) -> tuple[int, int]:
    """Message pairs one similarity run aligns, and their DP cells
    (Σ|a|·|b| over the pairs, in segments)."""
    lengths = [len(s) for s in segment_sequences(segments, message_count)]
    total = sum(lengths)
    pairs = message_count * (message_count - 1) // 2
    return pairs, (total * total - sum(n * n for n in lengths)) // 2


def timed_passes(run_pass, seconds: float) -> list:
    """Run *run_pass* until *seconds* elapsed and at least MIN_PASSES ran.

    The garbage the previous pass left is collected before each pass,
    outside the timed region, so no pass pays for another's.
    """
    results = []
    started = time.perf_counter()
    while len(results) < MIN_PASSES or time.perf_counter() - started < seconds:
        gc.collect()
        wall = time.perf_counter()
        cpu = time.process_time()
        outcome = run_pass()
        outcome["wall_s"] = time.perf_counter() - wall
        outcome["cpu_s"] = time.process_time() - cpu
        results.append(outcome)
    return results


# -- batch: run_analysis(path) ----------------------------------------


def batch_pass(captures: list[dict], statemachine: bool, ops: Ops) -> dict:
    latencies, reports = [], []
    for capture in captures:
        ops.attempted += 1
        started = time.perf_counter()
        try:
            run = run_analysis(
                capture["path"],
                protocol=capture["protocol"],
                statemachine=statemachine,
            )
        except Exception as error:  # an op that raises counts as failed
            ops.fail(f"run_analysis({capture['protocol']}): {error!r}")
            latencies.append(None)
            reports.append(None)
            continue
        latencies.append(time.perf_counter() - started)
        if run.result.matrix.stats.cache_hit:
            ops.fail(f"run_analysis({capture['protocol']}): matrix cache hit")
        reports.append(run.report)
    return {"op_s": latencies, "reports": reports}


def chain(capture: dict, statemachine: bool, tracer: Tracer) -> tuple:
    """``run_analysis`` spelled out as its public calls, one span each.

    Returns the report and the per-layer counts of this capture.
    """
    config = ClusteringConfig()
    types = machine = None
    with use_tracer(tracer):
        with tracer.span("load_trace"):
            raw = load_trace(capture["path"], protocol=capture["protocol"])
        with tracer.span("Trace.preprocess"):
            trace = raw.preprocess()
        with tracer.span("Segmenter.segment"):
            segmenter = resolve_segmenter(
                "nemesys", refinement=config.refinement, config=config
            )
            segments = segmenter.segment(trace)
        with tracer.span("DissimilarityMatrix.build"):
            uniques = unique_segments(segments, min_length=1)
            analyzable = [u for u in uniques if u.length >= config.min_segment_length]
            excluded = [u for u in uniques if u.length < config.min_segment_length]
            matrix = DissimilarityMatrix.build(
                analyzable,
                penalty_factor=config.penalty_factor,
                options=config.matrix_options,
            )
        with tracer.span("FieldTypeClusterer.cluster_matrix"):
            result = FieldTypeClusterer(config).cluster_matrix(matrix, excluded)
        if statemachine:
            with tracer.span("cluster_message_types"):
                types = cluster_message_types(
                    segments, len(trace), matrix=result.matrix, trace=trace
                )
            with tracer.span("infer_session_machine"):
                machine = infer_session_machine(raw, types, labeled_trace=trace)
        with tracer.span("AnalysisReport.build"):
            report = AnalysisReport.build(
                result, trace, None, msgtypes=types, statemachine=machine
            )
    unique = len(analyzable)
    counts = {
        "net.frames": len(raw),
        "net.dedup_dropped": len(raw) - len(trace),
        "segmenters.segments": len(segments),
        "core.matrix.unique_segments": unique,
        "core.matrix.cells": unique * (unique - 1) // 2,
        "core.matrix.workers": matrix.stats.workers,
        "core.autoconf.retrims": result.retrims,
        "core.clusters": result.cluster_count,
        "cache_hit": matrix.stats.cache_hit,
    }
    if statemachine:
        pairs, cells = alignment_work(segments, len(trace))
        counts.update(
            {
                "msgtypes.alignments": pairs,
                "msgtypes.dp_cells": cells,
                "msgtypes.types": types.type_count,
                "statemachine.sessions": machine.session_count,
                "statemachine.states": machine.state_count,
            }
        )
    return report, counts


def run_chains(captures, statemachine, traced: bool, ops: Ops) -> dict:
    tracer = Tracer(enabled=traced)
    reports, counts = [], {}
    cpu = time.process_time()
    started = time.perf_counter()
    for capture in captures:
        ops.attempted += 1
        try:
            report, capture_counts = chain(capture, statemachine, tracer)
        except Exception as error:
            ops.fail(f"chain({capture['protocol']}): {error!r}")
            reports.append(None)
            continue
        if capture_counts.pop("cache_hit"):
            ops.fail(f"chain({capture['protocol']}): matrix cache hit")
        reports.append(report)
        workers = capture_counts.pop("core.matrix.workers")
        counts["core.matrix.workers"] = max(counts.get("core.matrix.workers", 0), workers)
        for name, value in capture_counts.items():
            counts[name] = counts.get(name, 0) + value
    return {
        "reports": reports,
        "counts": counts,
        "tracer": tracer,
        "wall_s": time.perf_counter() - started,
        "cpu_s": time.process_time() - cpu,
    }


def batch_workload(spec: dict, ops: Ops) -> dict:
    captures, statemachine = spec["captures"], spec["statemachine"]
    seconds = spec["seconds"] / 2 if spec["trace"] else spec["seconds"]
    passes = timed_passes(lambda: batch_pass(captures, statemachine, ops), seconds)
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Output check: every run_analysis report equals the report of the
    # same capture analysed by the chain of public calls.
    if spec["trace"]:
        traced = timed_passes(
            lambda: run_chains(captures, statemachine, True, ops), seconds
        )
        reference = traced[0]
    else:
        traced = []
        reference = run_chains(captures, statemachine, False, ops)
    for outcome in passes:
        for capture, got, want in zip(captures, outcome.pop("reports"), reference["reports"]):
            ops.checks += 1
            if got is not None and got != want:
                ops.fail(f"run_analysis({capture['protocol']}) report != chain report")
    for outcome in traced:
        for capture, got, want in zip(captures, outcome["reports"], reference["reports"]):
            ops.checks += 1
            if got != want:
                ops.fail(f"chain({capture['protocol']}) report differs between passes")
    return {
        "passes": passes,
        "peak_rss_kib": peak_rss_kib,
        "traced": [layer_summary(outcome) for outcome in traced],
        "counts": reference["counts"],
        "trace_roots": traced[0]["tracer"].roots if traced else None,
    }


# -- session: AnalysisSession append + snapshot ----------------------


def session_pass(spec: dict, tracer: Tracer, ops: Ops) -> dict:
    snapshots, final = [], None
    counts = {}
    alignments = dp_cells = 0
    with use_tracer(tracer):
        session = AnalysisSession(
            protocol=spec["protocol"],
            msgtypes=True,
            statemachine=spec["statemachine"],
        )
        chunks = spec["chunks"]
        for index, chunk in enumerate(chunks):
            ops.attempted += 1
            try:
                with tracer.span("AnalysisSession.append"):
                    session.append(chunk)
            except Exception as error:
                ops.fail(f"append({index}): {error!r}")
                continue
            if index % 2 == 1 or index == len(chunks) - 1:
                ops.attempted += 1
                started = time.perf_counter()
                try:
                    with tracer.span("AnalysisSession.snapshot"):
                        run = session.snapshot()
                except Exception as error:
                    ops.fail(f"snapshot({index}): {error!r}")
                    snapshots.append(None)
                    continue
                snapshots.append(time.perf_counter() - started)
                final = run
                # Every snapshot aligns every message pair again.
                pairs, cells = alignment_work(run.segments, len(run.trace))
                alignments += pairs
                dp_cells += cells
        if final is not None:
            if final.result.matrix.stats is not None and final.result.matrix.stats.cache_hit:
                ops.fail("snapshot: matrix cache hit")
            unique = session.unique_segment_count
            counts = {
                "segmenters.segments": len(final.segments),
                "core.matrix.unique_segments": unique,
                "core.matrix.cells": unique * (unique - 1) // 2,
                "core.autoconf.retrims": final.result.retrims,
                "core.clusters": final.result.cluster_count,
                "msgtypes.alignments": alignments,
                "msgtypes.dp_cells": dp_cells,
                "msgtypes.types": final.msgtypes.type_count,
                "session.appends": session.appends,
                "session.reclusters": session.reclusters,
                "session.matrix_rows": unique,
                "core.matrix.workers": final.result.matrix.stats.workers,
            }
            if final.statemachine is not None:
                counts["statemachine.sessions"] = final.statemachine.session_count
                counts["statemachine.states"] = final.statemachine.state_count
        session.close()
    return {
        "op_s": snapshots,
        "report": final.report if final is not None else None,
        "counts": counts,
        "tracer": tracer,
    }


def session_workload(spec: dict, ops: Ops) -> dict:
    seconds = spec["seconds"] / 2 if spec["trace"] else spec["seconds"]
    passes = timed_passes(lambda: session_pass(spec, Tracer(enabled=False), ops), seconds)
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    traced = []
    if spec["trace"]:
        traced = timed_passes(lambda: session_pass(spec, Tracer(), ops), seconds)
    # Output check: the final snapshot's whole report equals a batch
    # run_analysis over the same capture.
    ops.attempted += 1
    batch = run_analysis(
        spec["capture"],
        protocol=spec["protocol"],
        msgtypes=True,
        statemachine=spec["statemachine"],
    ).report
    for outcome in passes + traced:
        report = outcome.pop("report")
        ops.checks += 1
        if report is not None and report != batch:
            differing = sorted(
                name for name in vars(report) if getattr(report, name) != getattr(batch, name)
            )
            ops.fail(f"final snapshot report != batch report ({', '.join(differing)})")
    return {
        "passes": passes,
        "peak_rss_kib": peak_rss_kib,
        "traced": [layer_summary(outcome) for outcome in traced],
        "counts": (traced or passes)[0]["counts"],
        "trace_roots": traced[0]["tracer"].roots if traced else None,
    }


def layer_summary(outcome: dict) -> dict:
    """Per-layer seconds of one traced pass, plus its wall time."""
    roots = outcome["tracer"].roots
    wall, cpu = layer_seconds(roots)
    for name in ("AnalysisSession.append", "AnalysisSession.snapshot"):
        wall[name] = sum(r.wall_seconds for r in roots if r.name == name)
    wall["core.matrix.cpu"] = cpu.get("core.matrix", 0.0)
    tiles = sum(1 for span in outcome["tracer"].walk() if span.name == "matrix.bin")
    return {"wall_s": outcome["wall_s"], "layers": wall, "tiles": tiles}


def main(argv: list[str]) -> int:
    if argv[1:] == ["--probe"]:
        print("ready", flush=True)
        return 0
    spec = json.loads(Path(argv[1]).read_text())
    print("ready", flush=True)
    ops = Ops()
    if spec["kind"] == "batch":
        result = batch_workload(spec, ops)
    else:
        result = session_workload(spec, ops)
    roots = result.pop("trace_roots")
    if roots is not None:
        write_chrome_trace(spec["trace_out"], roots, spec.get("machine"))
    for outcome in result["passes"]:
        outcome.pop("tracer", None)
        outcome.pop("counts", None)
    result.update(
        attempted=ops.attempted, failed=ops.failed, checks=ops.checks, failures=ops.failures
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
