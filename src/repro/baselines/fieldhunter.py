"""FieldHunter re-implementation (Bermudez et al., Computer
Communications 2016) — the paper's rule-based state-of-the-art baseline.

FieldHunter types *fixed-offset n-gram fields* with a closed set of
heuristics, each binding a field candidate to transport/addressing
context:

- **MSG-Type** — small-cardinality value correlated between a request
  and its response (mutual information),
- **MSG-Len**  — numeric value linearly correlated with message length,
- **Trans-ID** — high-entropy value echoed verbatim in the response,
- **Host-ID**  — value constant per source host, differing across hosts,
- **Session-ID** — value constant per (source, destination) pair,
- **Accumulator** — value monotonically non-decreasing over a flow
  (counters, timestamps).

Because every rule leans on context (addresses, request/response
pairing, flows), FieldHunter is inapplicable to protocols without IP
encapsulation — AWDL and AU in the paper — and on the others it types
only a handful of header bytes.  The evaluation uses the resulting
byte *coverage* (paper Section IV-D: ~3 % on average, vs. 87 % for
clustering).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from repro.metrics.coverage import Coverage
from repro.net.trace import Trace, TraceMessage

#: n-gram widths FieldHunter considers at each offset.
NGRAM_WIDTHS = (4, 2, 1)

MSG_TYPE_MAX_CARDINALITY = 12
MSG_TYPE_MIN_MI = 0.7
MSG_LEN_MIN_CORRELATION = 0.95
TRANS_ID_MIN_ECHO = 0.95
TRANS_ID_MIN_ENTROPY = 0.7
HOST_ID_MIN_HOSTS = 5
ACCUMULATOR_MIN_MONOTONE = 0.98


@dataclass(frozen=True)
class TypedField:
    """One inferred fixed-offset field."""

    offset: int
    width: int
    ftype: str
    confidence: float

    @property
    def end(self) -> int:
        return self.offset + self.width


@dataclass
class FieldHunterResult:
    """Typed fields plus coverage accounting for one trace."""

    fields: list[TypedField]
    trace_bytes: int
    typed_bytes: int
    applicable: bool = True

    @property
    def coverage(self) -> Coverage:
        return Coverage(covered_bytes=self.typed_bytes, total_bytes=self.trace_bytes)


def _entropy(counts: Counter) -> float:
    total = sum(counts.values())
    if total <= 1:
        return 0.0
    return -sum((c / total) * math.log2(c / total) for c in counts.values())


def _normalized_mutual_information(pairs: list[tuple[bytes, bytes]]) -> float:
    if len(pairs) < 2:
        return 0.0
    left = Counter(a for a, _ in pairs)
    right = Counter(b for _, b in pairs)
    joint = Counter(pairs)
    h_left = _entropy(left)
    h_right = _entropy(right)
    h_joint = _entropy(joint)
    mi = h_left + h_right - h_joint
    denominator = max(h_left, h_right)
    return mi / denominator if denominator > 0 else 0.0


def _values_at(messages: list[TraceMessage], offset: int, width: int) -> list[bytes]:
    return [
        m.data[offset : offset + width]
        for m in messages
        if len(m.data) >= offset + width
    ]


def _pair_requests_responses(
    trace: Trace,
) -> list[tuple[TraceMessage, TraceMessage]]:
    """Match each request to the next response of the same conversation."""
    pending: dict[tuple, TraceMessage] = {}
    pairs = []
    for message in trace:
        if message.src_ip is None:
            continue
        if message.direction == "request":
            key = (message.src_ip, message.dst_ip, message.src_port, message.dst_port)
            pending[key] = message
        elif message.direction == "response":
            key = (message.dst_ip, message.src_ip, message.dst_port, message.src_port)
            request = pending.pop(key, None)
            if request is not None:
                pairs.append((request, message))
    return pairs


class FieldHunter:
    """Rule-based field type inference over fixed-offset n-grams."""

    def __init__(self, max_offset: int = 64):
        self.max_offset = max_offset

    def analyze(self, trace: Trace) -> FieldHunterResult:
        total_bytes = trace.total_bytes
        messages = list(trace)
        if not messages or all(m.src_ip is None for m in messages):
            # No addressing context: every rule is inapplicable (AWDL, AU).
            return FieldHunterResult(
                fields=[], trace_bytes=total_bytes, typed_bytes=0, applicable=False
            )
        pairs = _pair_requests_responses(trace)
        claimed = np.zeros(self.max_offset, dtype=bool)
        fields: list[TypedField] = []

        def claim(offset: int, width: int, ftype: str, confidence: float) -> None:
            fields.append(
                TypedField(offset=offset, width=width, ftype=ftype, confidence=confidence)
            )
            claimed[offset : offset + width] = True

        min_len = min(len(m.data) for m in messages)
        limit = min(self.max_offset, min_len)
        # Rules in FieldHunter's precedence order; each byte is typed once.
        for rule in (
            self._find_msg_type,
            self._find_msg_len,
            self._find_trans_id,
            self._find_host_id,
            self._find_session_id,
            self._find_accumulator,
        ):
            for offset, width, ftype, confidence in rule(messages, pairs, limit):
                if not claimed[offset : offset + width].any():
                    claim(offset, width, ftype, confidence)

        typed_per_message = sum(
            sum(f.width for f in fields if len(m.data) >= f.end) for m in messages
        )
        return FieldHunterResult(
            fields=sorted(fields, key=lambda f: f.offset),
            trace_bytes=total_bytes,
            typed_bytes=typed_per_message,
        )

    # -- individual rules ----------------------------------------------------

    def _find_msg_type(self, messages, pairs, limit):
        for width in (1, 2):
            for offset in range(0, limit - width + 1):
                values = _values_at(messages, offset, width)
                cardinality = len(set(values))
                if not 1 < cardinality <= MSG_TYPE_MAX_CARDINALITY:
                    continue
                value_pairs = [
                    (req.data[offset : offset + width], resp.data[offset : offset + width])
                    for req, resp in pairs
                    if len(req.data) >= offset + width and len(resp.data) >= offset + width
                ]
                mi = _normalized_mutual_information(value_pairs)
                if mi >= MSG_TYPE_MIN_MI:
                    yield offset, width, "msg-type", mi

    def _find_msg_len(self, messages, pairs, limit):
        lengths = np.array([len(m.data) for m in messages], dtype=float)
        if lengths.std() == 0:
            return
        for width in (2, 4):
            for offset in range(0, limit - width + 1):
                raw = _values_at(messages, offset, width)
                if len(raw) < len(messages):
                    continue
                for order in ("big", "little"):
                    values = np.array(
                        [int.from_bytes(v, order) for v in raw], dtype=float
                    )
                    if values.std() == 0:
                        continue
                    corr = float(np.corrcoef(values, lengths)[0, 1])
                    if corr >= MSG_LEN_MIN_CORRELATION:
                        yield offset, width, "msg-len", corr
                        break

    def _find_trans_id(self, messages, pairs, limit):
        if not pairs:
            return
        for width in (2, 4):
            for offset in range(0, limit - width + 1):
                value_pairs = [
                    (req.data[offset : offset + width], resp.data[offset : offset + width])
                    for req, resp in pairs
                    if len(req.data) >= offset + width and len(resp.data) >= offset + width
                ]
                if len(value_pairs) < 3:
                    continue
                echoed = sum(1 for a, b in value_pairs if a == b) / len(value_pairs)
                if echoed < TRANS_ID_MIN_ECHO:
                    continue
                counts = Counter(a for a, _ in value_pairs)
                max_entropy = math.log2(len(value_pairs))
                if max_entropy <= 0:
                    continue
                if _entropy(counts) / max_entropy >= TRANS_ID_MIN_ENTROPY:
                    yield offset, width, "trans-id", echoed

    def _find_host_id(self, messages, pairs, limit):
        yield from self._find_endpoint_id(
            messages, limit, key=lambda m: m.src_ip, ftype="host-id"
        )

    def _find_session_id(self, messages, pairs, limit):
        yield from self._find_endpoint_id(
            messages,
            limit,
            key=lambda m: (m.src_ip, m.dst_ip),
            ftype="session-id",
        )

    def _find_endpoint_id(self, messages, limit, key, ftype):
        for width in (2, 4):
            for offset in range(0, limit - width + 1):
                per_key: dict = defaultdict(set)
                for m in messages:
                    if len(m.data) >= offset + width and key(m) is not None:
                        per_key[key(m)].add(m.data[offset : offset + width])
                if len(per_key) < HOST_ID_MIN_HOSTS:
                    continue
                consistent = all(len(values) == 1 for values in per_key.values())
                distinct = {next(iter(v)) for v in per_key.values() if len(v) == 1}
                if consistent and len(distinct) >= HOST_ID_MIN_HOSTS:
                    yield offset, width, ftype, 1.0

    def _find_accumulator(self, messages, pairs, limit):
        # Flows: messages grouped by (src, dst), kept in capture order.
        flows: dict = defaultdict(list)
        for m in messages:
            if m.src_ip is not None:
                flows[(m.src_ip, m.dst_ip)].append(m)
        for width in (4, 8):
            for offset in range(0, limit - width + 1):
                steps = 0
                monotone = 0
                distinct: set = set()
                for flow in flows.values():
                    values = [
                        int.from_bytes(m.data[offset : offset + width], "big")
                        for m in flow
                        if len(m.data) >= offset + width
                    ]
                    distinct.update(values)
                    for a, b in zip(values, values[1:]):
                        steps += 1
                        if b >= a:
                            monotone += 1
                if steps < 5 or len(distinct) < 3:
                    continue
                if monotone / steps >= ACCUMULATOR_MIN_MONOTONE:
                    yield offset, width, "accumulator", monotone / steps
