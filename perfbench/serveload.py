"""Open-loop client for the ``serve-stream`` workload.

Starts ``repro-serve`` (``python3 -m repro.serve``) on an ephemeral
port with a write-ahead checkpoint, streams ``append`` requests on one
connection on a fixed schedule whether or not earlier ones were
answered, sends a ``state`` poll after every ``POLL_EVERY`` appends and
one final ``digest``.  Each latency is measured from the time the
request was due, so a stall also counts against the requests queued
behind it.

Like a well-behaved capture tool, the client keeps at most
``MAX_IN_FLIGHT`` requests outstanding, the server's default
``--max-inflight``; a request due while the window is full waits in the
client, and that wait is part of its latency.  Without the window a
stall of ``MAX_IN_FLIGHT / rate`` seconds would turn into ``overloaded``
refusals.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: A ``state`` poll follows every this many appends.
POLL_EVERY = 10
#: Seconds to wait for the server's exit, or for the last answer after
#: the last request was due.
SERVER_TIMEOUT_S = 60.0
#: Requests outstanding at most: ``repro-serve``'s default ``--max-inflight``.
MAX_IN_FLIGHT = 8
#: Refusal codes counted as ``serve.rejected`` (admission, not errors).
REJECTIONS = {"overloaded", "resource_exhausted", "draining"}


def message_record(message) -> dict:
    """The wire record of one message, as a capture tool would send it."""
    record = {"data": message.data.hex(), "timestamp": message.timestamp}
    if message.src_ip is not None:
        record.update(
            src_ip=message.src_ip.hex(),
            dst_ip=message.dst_ip.hex(),
            src_port=message.src_port,
            dst_port=message.dst_port,
        )
    return record


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of process *pid* so far."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mib(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Server:
    """A ``repro-serve`` subprocess; stopped and waited for on exit."""

    def __init__(self, root: Path, protocol: str, checkpoint: Path, metrics_out: Path | None):
        command = [
            sys.executable, "-m", "repro.serve",
            "--port", "0",
            "--protocol", protocol,
            "--checkpoint", str(checkpoint),
        ]
        if metrics_out is not None:
            command += ["--metrics-out", str(metrics_out)]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, text=True
        )
        line = self.process.stdout.readline()
        self.setup_s = time.perf_counter() - started
        try:
            event = json.loads(line)
        except ValueError:
            self.stop()
            raise RuntimeError(f"repro-serve did not start: {line!r}") from None
        if event.get("event") != "listening":
            self.stop()
            raise RuntimeError(f"unexpected first line from repro-serve: {line!r}")
        self.port = int(event["port"])

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self) -> None:
        """Ask for a graceful shutdown; kill if it does not come."""
        if self.process.poll() is None:
            try:
                asyncio.run(_request(self.port, {"op": "shutdown"}))
            except OSError:
                pass
            try:
                self.process.wait(SERVER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


async def _request(port: int, request: dict) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(json.dumps(request).encode() + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())
    finally:
        writer.close()
        await writer.wait_closed()


@dataclass
class Outcome:
    """One request: when it was due, sent and answered, and the answer."""

    op: str
    due: float
    sent: float = 0.0
    received: float = 0.0
    response: dict = field(default_factory=dict)
    chunk: int | None = None


async def _stream(port: int, chunks: list[list], rate: float) -> tuple[list[Outcome], float]:
    """Send the schedule open-loop; returns the outcomes and encode seconds."""
    loop = asyncio.get_running_loop()
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 26)
    start = loop.time() + 0.05
    schedule: list[Outcome] = []
    for index in range(len(chunks)):
        due = start + index / rate
        schedule.append(Outcome("append", due, chunk=index))
        if (index + 1) % POLL_EVERY == 0 or index == len(chunks) - 1:
            schedule.append(Outcome("state", due))
    schedule.append(Outcome("digest", start + len(chunks) / rate))
    in_flight: asyncio.Queue = asyncio.Queue()
    window = asyncio.Semaphore(MAX_IN_FLIGHT)
    encode_s = 0.0

    async def send() -> None:
        nonlocal encode_s
        for outcome in schedule:
            delay = outcome.due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            encoding = time.perf_counter()
            request = {"op": outcome.op}
            if outcome.op == "append":
                request["messages"] = [message_record(m) for m in chunks[outcome.chunk]]
            line = json.dumps(request).encode() + b"\n"
            encode_s += time.perf_counter() - encoding
            await window.acquire()
            outcome.sent = loop.time()
            in_flight.put_nowait(outcome)
            writer.write(line)
            await writer.drain()

    async def receive() -> None:
        for _ in schedule:
            line = await reader.readline()
            outcome = await in_flight.get()
            outcome.received = loop.time()
            outcome.response = json.loads(line) if line else {"ok": False, "error": "eof"}
            window.release()

    try:
        await asyncio.wait_for(
            asyncio.gather(send(), receive()), len(chunks) / rate + SERVER_TIMEOUT_S
        )
    finally:
        writer.close()
        await writer.wait_closed()
    return schedule, encode_s


def run_stream(root: Path, workdir: Path, protocol: str, chunks, rate: float, name: str) -> dict:
    """One server, one open-loop stream; measurements of both sides."""
    checkpoint = workdir / f"{name}.wal.jsonl"
    metrics_out = workdir / f"{name}.prom"
    with Server(root, protocol, checkpoint, metrics_out) as server:
        pid = server.process.pid
        cpu = proc_cpu_seconds(pid)
        outcomes, encode_s = asyncio.run(_stream(server.port, chunks, rate))
        cpu_s = proc_cpu_seconds(pid) - cpu
        peak_rss_mib = proc_peak_rss_mib(pid)
    return {
        "setup_s": server.setup_s,
        "outcomes": outcomes,
        "encode_s": encode_s,
        "cpu_s": cpu_s,
        "peak_rss_mib": peak_rss_mib,
        "wal_bytes": checkpoint.stat().st_size,
        "metrics_text": metrics_out.read_text() if metrics_out.exists() else "",
    }
