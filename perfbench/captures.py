"""Seeded capture files for the benchmark workloads.

Each capture is generator output (``get_model(p).generate(n, seed)``)
framed the way ``repro generate`` frames it: UDP/IPv4 over Ethernet when
the model has IP context, the bare payload under ``LINKTYPE_USER0``
otherwise (AWDL).  A fixed share of the messages is sent a second time
``RETRANSMIT_DELAY_S`` after the original, with the same addressing, so
that de-duplication and session tracking see repeated payloads the way
real captures contain them.
"""

from __future__ import annotations

import random
from pathlib import Path

from repro.net.packet import build_udp_ipv4_frame
from repro.net.pcap import LINKTYPE_ETHERNET, LINKTYPE_USER0, PcapPacket, write_pcap
from repro.net.trace import TraceMessage
from repro.protocols import get_model

RETRANSMIT_SHARE = 0.10
RETRANSMIT_DELAY_S = 0.2


def with_retransmits(messages: list[TraceMessage], seed: int) -> list[TraceMessage]:
    """*messages* plus a seeded ``RETRANSMIT_SHARE`` of them re-sent later.

    The result is ordered by timestamp; a retransmit sorts after its
    original (the sort is stable and the delay is positive).
    """
    rng = random.Random(seed)
    picked = rng.sample(range(len(messages)), round(RETRANSMIT_SHARE * len(messages)))
    resent = [
        TraceMessage(
            data=messages[i].data,
            timestamp=messages[i].timestamp + RETRANSMIT_DELAY_S,
            src_ip=messages[i].src_ip,
            dst_ip=messages[i].dst_ip,
            src_port=messages[i].src_port,
            dst_port=messages[i].dst_port,
        )
        for i in sorted(picked)
    ]
    return sorted(messages + resent, key=lambda m: m.timestamp)


def capture_messages(protocol: str, count: int, seed: int) -> list[TraceMessage]:
    """The messages of one seeded capture, retransmits included."""
    generated = get_model(protocol).generate(count, seed=seed).messages
    return with_retransmits(generated, seed)


def write_capture(path: str | Path, messages: list[TraceMessage]) -> int:
    """Write *messages* as a pcap framed like ``repro generate``."""
    if messages[0].src_ip is None:
        packets = [PcapPacket(timestamp=m.timestamp, data=m.data) for m in messages]
        return write_pcap(path, packets, linktype=LINKTYPE_USER0)
    packets = [
        PcapPacket(
            timestamp=m.timestamp,
            data=build_udp_ipv4_frame(
                m.data,
                src_ip=m.src_ip,
                dst_ip=m.dst_ip,
                src_port=m.src_port,
                dst_port=m.dst_port,
            ),
        )
        for m in messages
    ]
    return write_pcap(path, packets, linktype=LINKTYPE_ETHERNET)
