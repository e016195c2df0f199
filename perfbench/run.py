"""End-to-end benchmark of the analysis pipeline, its session and its service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-fields --seed 1 --seconds 12 --trace 0

Writes seeded pcap captures to a scratch directory, drives the public
entry points on them (``run_analysis``, ``AnalysisSession``, a
``repro-serve`` socket), checks the outputs and prints one JSON line
last: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` they are the per-layer ones from a traced run, and
the span tree is written as Chrome trace-event JSON.  The workloads,
metrics and their meaning are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Seconds a worker may take beyond the measured time before it is
#: considered hung (its checks run after the timed passes).
WORKER_GRACE_S = 120.0

#: Workload name -> what it runs.  Sizes are message counts before
#: retransmits are added.
WORKLOADS = {
    "batch-fields": {
        "kind": "batch",
        "captures": [("dns", 300), ("dhcp", 300), ("awdl", 300), ("smb", 300)],
        "statemachine": False,
    },
    "batch-stateful": {
        "kind": "batch",
        "captures": [("dns", 100), ("dhcp", 100)],
        "statemachine": True,
    },
    "session-msgtypes": {
        "kind": "session",
        "protocol": "dns",
        "messages": 120,
        "statemachine": False,
    },
    "session-snapshots": {
        "kind": "session",
        "protocol": "dns",
        "messages": 120,
        "statemachine": True,
    },
    "serve-stream": {
        "kind": "serve",
        "protocol": "dns",
        #: Appends per second, open loop (see README: how it was chosen).
        "rate": 10.0,
    },
}
#: Messages per append chunk (session and serve workloads).
CHUNK = 10
#: Fewest appends in a serve stream (one state poll's worth).
POLL_CHUNKS = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "op_latency_ms": "ms",
}

PER_LAYER = {
    "net.load_s": "s",
    "net.frames": "count",
    "net.preprocess_s": "s",
    "net.dedup_dropped": "count",
    "segmenters.segment_s": "s",
    "segmenters.segments": "count",
    "core.matrix.build_s": "s",
    "core.matrix.cpu_s": "s",
    "core.matrix.unique_segments": "count",
    "core.matrix.cells": "count",
    "core.matrix.tiles": "count",
    "core.matrix.workers": "count",
    "core.autoconf_s": "s",
    "core.autoconf.retrims": "count",
    "core.dbscan_s": "s",
    "core.refine_s": "s",
    "core.clusters": "count",
    "msgtypes.similarity_s": "s",
    "msgtypes.alignments": "count",
    "msgtypes.dp_cells": "count",
    "msgtypes.cluster_s": "s",
    "msgtypes.types": "count",
    "statemachine.infer_s": "s",
    "statemachine.sessions": "count",
    "statemachine.states": "count",
    "report.build_s": "s",
    "session.append_s": "s",
    "session.appends": "count",
    "session.reclusters": "count",
    "session.recluster_ratio": "ratio",
    "session.snapshot_s": "s",
    "session.matrix_rows": "count",
    "serve.rtt_append_ms": "ms",
    "serve.append_p95_ms": "ms",
    "serve.exec_append_s": "s",
    "serve.queue_wire_s": "s",
    "serve.encode_s": "s",
    "serve.rejected": "count",
    "serve.wal_bytes": "B",
    "serve.late_ms": "ms",
    "serve.read_p50_ms": "ms",
    "obs.tracing_overhead_ratio": "ratio",
    "machine.nproc": "count",
    "machine.cpus_allowed": "count",
}

#: Layer (as spans.layer_seconds names it) -> per-layer time metric.
LAYER_METRIC = {
    "net.load": "net.load_s",
    "net.preprocess": "net.preprocess_s",
    "segmenters": "segmenters.segment_s",
    "core.matrix": "core.matrix.build_s",
    "core.autoconf": "core.autoconf_s",
    "core.dbscan": "core.dbscan_s",
    "core.refine": "core.refine_s",
    "msgtypes.similarity": "msgtypes.similarity_s",
    "msgtypes.cluster": "msgtypes.cluster_s",
    "statemachine": "statemachine.infer_s",
    "report": "report.build_s",
    "AnalysisSession.append": "session.append_s",
    "AnalysisSession.snapshot": "session.snapshot_s",
    "core.matrix.cpu": "core.matrix.cpu_s",
}


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def quantile(values: list[float], share: float) -> float:
    """The *share* quantile by linear interpolation (no samples: 0)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


# -- inputs ------------------------------------------------------------


def write_inputs(workload: dict, seed: int, scale: float, seconds: float, workdir: Path) -> dict:
    """Write the workload's captures; returns what the run needs of them."""
    from captures import RETRANSMIT_SHARE, capture_messages, write_capture

    def scaled(count: int) -> int:
        return max(12, round(count * scale))

    kind = workload["kind"]
    if kind == "batch":
        captures = []
        for protocol, count in workload["captures"]:
            path = workdir / f"{protocol}.pcap"
            messages = capture_messages(protocol, scaled(count), seed)
            write_capture(path, messages)
            captures.append({"protocol": protocol, "path": str(path), "frames": len(messages)})
        return {"captures": captures, "messages": sum(c["frames"] for c in captures)}
    protocol = workload["protocol"]
    if kind == "session":
        messages = capture_messages(protocol, scaled(workload["messages"]), seed)
    else:
        appends = max(POLL_CHUNKS, round(workload["rate"] * seconds * scale))
        generated = round(appends * CHUNK / (1 + RETRANSMIT_SHARE)) + CHUNK
        messages = capture_messages(protocol, generated, seed)[: appends * CHUNK]
    path = workdir / f"{protocol}.pcap"
    write_capture(path, messages)
    chunks = []
    for index in range(0, len(messages), CHUNK):
        chunk_path = workdir / f"{protocol}-{index // CHUNK:04d}.pcap"
        write_capture(chunk_path, messages[index : index + CHUNK])
        chunks.append(str(chunk_path))
    return {"capture": str(path), "chunks": chunks, "messages": len(messages)}


# -- in-process workloads (batch, session) -----------------------------


def probe_setup() -> float:
    """Seconds from process start until the library is imported."""
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--probe"],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    line = process.stdout.readline()
    elapsed = time.perf_counter() - started
    process.stdout.close()
    if process.wait(60) != 0 or line.strip() != "ready":
        raise RuntimeError("worker probe failed to import the library")
    return elapsed


def run_worker(spec: dict, workdir: Path, seconds: float) -> tuple[dict, float]:
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(spec_path)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        first = process.stdout.readline()
        setup_s = time.perf_counter() - started
        if first.strip() != "ready":
            raise RuntimeError(f"worker did not start: {first!r}")
        lines = process.communicate(timeout=seconds + WORKER_GRACE_S)[0].splitlines()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if process.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {process.returncode}")
    return json.loads(lines[-1]), setup_s


def in_process(workload, inputs, args, workdir, trace_out) -> tuple[dict, dict]:
    spec = dict(workload, **inputs, seconds=args.seconds, trace=bool(args.trace))
    spec["trace_out"] = str(trace_out)
    spec["machine"] = MACHINE
    setups = [probe_setup() for _ in range(SETUP_SAMPLES - 1)]
    result, setup_s = run_worker(spec, workdir, args.seconds)
    setups.append(setup_s)
    passes = result["passes"]
    # The calls of one pass differ in size (a DNS and an SMB capture, the
    # first and the last snapshot), so a median over calls would sit on
    # one of them and jump between sizes: average within the pass instead.
    op_means = [
        statistics.mean(s for s in p["op_s"] if s is not None) for p in passes
    ]
    wall_s = statistics.median(p["wall_s"] for p in passes)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "peak_rss_mb": result["peak_rss_kib"] / 1024,
        "op_latency_ms": 1000 * statistics.median(op_means),
    }
    layers = {}
    if args.trace:
        traced = result["traced"]
        for layer, metric in LAYER_METRIC.items():
            layers[metric] = statistics.median(t["layers"].get(layer, 0.0) for t in traced)
        layers.update(result["counts"])
        layers["core.matrix.tiles"] = traced[0]["tiles"]
        layers["obs.tracing_overhead_ratio"] = (
            statistics.median(t["wall_s"] for t in traced) / wall_s
        )
        if workload["kind"] == "session":
            appends = layers.get("session.appends", 0)
            layers["session.recluster_ratio"] = (
                layers.get("session.reclusters", 0) / appends if appends else 0.0
            )
    detail = {
        "msgs_per_s": inputs["messages"] / wall_s,
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "checks": result["checks"],
        "failures": result["failures"],
    }
    return (
        {"attempted": result["attempted"], "failed": result["failed"], "end_to_end": end_to_end, "layers": layers},
        detail,
    )


# -- serve-stream ------------------------------------------------------


def serve(workload, inputs, args, workdir, trace_out) -> tuple[dict, dict]:
    from repro.net.trace import load_trace
    from repro.obs.export import parse_prometheus_text
    from repro.session import AnalysisSession
    from serveload import REJECTIONS, Server, run_stream

    protocol = workload["protocol"]
    # The client reads the capture chunks from disk, like a capture tool.
    chunks = [load_trace(path, protocol=protocol).messages for path in inputs["chunks"]]
    setups = []
    for probe in range(SETUP_SAMPLES - 1):
        with Server(ROOT, protocol, workdir / f"probe-{probe}.wal.jsonl", None) as server:
            setups.append(server.setup_s)
    attempted = failed = checks = 0
    failures = []

    def check(stream: dict) -> None:
        """Count ops; the final digest must equal an in-process session's."""
        nonlocal attempted, failed, checks
        acked = []
        digest = None
        for outcome in stream["outcomes"]:
            attempted += 1
            if not outcome.response.get("ok"):
                failed += 1
                failures.append(f"{outcome.op}: {outcome.response.get('error')}")
            elif outcome.op == "append":
                acked.extend(chunks[outcome.chunk])
            elif outcome.op == "digest":
                digest = outcome.response["digest"]
        attempted += 1
        with AnalysisSession(protocol=protocol) as reference:
            reference.append(acked)
            expected = reference.digest()
        checks += 1
        if digest != expected:
            failed += 1
            failures.append(f"digest {digest} != in-process {expected}")

    halves = 2 if args.trace else 1
    duration = len(chunks) / workload["rate"]
    untraced = run_stream(ROOT, workdir, protocol, chunks[: len(chunks) // halves], workload["rate"], "untraced")
    setups.append(untraced["setup_s"])
    check(untraced)

    def stream_wall(stream: dict) -> float:
        outcomes = stream["outcomes"]
        return outcomes[-1].received - outcomes[0].due

    appends = [o for o in untraced["outcomes"] if o.op == "append"]
    append_ms = [1000 * (o.received - o.due) for o in appends]
    wall_s = stream_wall(untraced)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "peak_rss_mb": untraced["peak_rss_mib"],
        "op_latency_ms": statistics.median(append_ms),
    }
    layers = {}
    if args.trace:
        traced = run_stream(ROOT, workdir, protocol, chunks[: len(chunks) // halves], workload["rate"], "traced")
        check(traced)
        layers = serve_layers(traced, parse_prometheus_text(traced["metrics_text"]), REJECTIONS)
        layers["obs.tracing_overhead_ratio"] = stream_wall(traced) / wall_s
        write_serve_trace(trace_out, traced)
    detail = {
        "msgs_per_s": sum(len(chunks[o.chunk]) for o in appends) / wall_s,
        "cpu_s": untraced["cpu_s"],
        "appends": len(appends),
        "duration_s": duration / halves,
        "checks": checks,
        "failures": failures[:20],
    }
    return (
        {"attempted": attempted, "failed": failed, "end_to_end": end_to_end, "layers": layers},
        detail,
    )


def _metric_sum(samples: dict, name: str, **labels) -> float:
    wanted = set(labels.items())
    return sum(
        value for (metric, labelset), value in samples.items()
        if metric == name and wanted <= set(labelset)
    )


def serve_layers(stream: dict, samples: dict, rejections: set) -> dict:
    outcomes = stream["outcomes"]
    appends = [o for o in outcomes if o.op == "append"]
    polls = [o for o in outcomes if o.op == "state"]
    rtt_s = [o.received - o.sent for o in appends]
    exec_append_s = _metric_sum(samples, "repro_serve_op_seconds_sum", op="append")
    state = polls[-1].response.get("state", {})
    rows = state.get("unique_segments") or 0
    layers = {
        "serve.rtt_append_ms": 1000 * quantile(rtt_s, 0.5),
        "serve.append_p95_ms": 1000 * quantile([o.received - o.due for o in appends], 0.95),
        "serve.exec_append_s": exec_append_s,
        "serve.queue_wire_s": sum(rtt_s) - exec_append_s,
        "serve.encode_s": stream["encode_s"],
        "serve.rejected": sum(1 for o in outcomes if o.response.get("error") in rejections),
        "serve.wal_bytes": stream["wal_bytes"],
        "serve.late_ms": 1000 * quantile([o.sent - o.due for o in outcomes], 0.95),
        "serve.read_p50_ms": 1000 * quantile([o.received - o.due for o in polls], 0.5),
        "session.append_s": exec_append_s,
        "session.appends": state.get("appends", 0),
        "session.reclusters": state.get("reclusters", 0),
        "session.matrix_rows": rows,
        "core.matrix.unique_segments": rows,
        "core.matrix.cells": rows * (rows - 1) // 2,
        "core.clusters": state.get("clusters") or 0,
        "segmenters.segments": int(_metric_sum(samples, "repro_segments_total")),
        "core.autoconf_s": _metric_sum(samples, "repro_stage_seconds_sum", stage="autoconf"),
        "core.dbscan_s": _metric_sum(samples, "repro_stage_seconds_sum", stage="dbscan"),
        "core.refine_s": _metric_sum(samples, "repro_stage_seconds_sum", stage="refine"),
    }
    appends_done = layers["session.appends"]
    layers["session.recluster_ratio"] = (
        layers["session.reclusters"] / appends_done if appends_done else 0.0
    )
    return layers


def write_serve_trace(path: Path, stream: dict) -> None:
    """Client-side request spans as Chrome trace-event JSON."""
    origin = stream["outcomes"][0].due
    events = [
        {
            "name": outcome.op,
            "ph": "X",
            "ts": 1e6 * (outcome.sent - origin),
            "dur": 1e6 * (outcome.received - outcome.sent),
            "pid": 1,
            "tid": 0,
            "args": {"late_ms": 1000 * (outcome.sent - outcome.due), "ok": bool(outcome.response.get("ok"))},
        }
        for outcome in stream["outcomes"]
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms", "otherData": MACHINE}))


# -- main --------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every input size (the smoke test runs tiny inputs)",
    )
    return parser.parse_args(argv)


MACHINE: dict = {}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    MACHINE.update(machine())
    workload = WORKLOADS[args.workload]
    trace_out = OUT / f"{args.workload}-seed{args.seed}.trace.json"
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        inputs = write_inputs(workload, args.seed, args.scale, args.seconds, workdir)
        runner = serve if workload["kind"] == "serve" else in_process
        outcome, detail = runner(workload, inputs, args, workdir, trace_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        metrics = {name: 0 for name in PER_LAYER}
        metrics.update(outcome["layers"])
        metrics["machine.nproc"] = MACHINE["nproc"]
        metrics["machine.cpus_allowed"] = len(MACHINE["sched_getaffinity"])
        units = PER_LAYER
    else:
        metrics, units = outcome["end_to_end"], END_TO_END
    unknown = set(metrics) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from the declared set: {sorted(unknown)}")
    detail.update(workload=args.workload, seed=args.seed, machine=MACHINE)
    if args.trace:
        detail["trace_out"] = str(trace_out)
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": outcome["failed"] == 0,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
