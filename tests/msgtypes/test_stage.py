"""Message-type stage parity: every entry path lands on the same labels.

The stage promises parity by construction — the batch API, the raw
``cluster_message_types`` function fed a prebuilt matrix, the
``cluster_matrix`` two-step, and the incremental session all reuse the
field pipeline's dissimilarity matrix, so the message distances (and
hence the DBSCAN labels) must be identical bit-for-bit.  These tests
pin that promise end to end, plus the report round-trip that carries
the stage's summary, and the session's reuse of the message distances
of its previous snapshot.
"""

from dataclasses import replace

from repro import AnalysisSession, api
from repro.core.matrix import DissimilarityMatrix, MatrixBuildOptions
from repro.core.pipeline import ClusteringConfig, FieldTypeClusterer
from repro.msgtypes import cluster_message_types
from repro.net.packet import build_udp_ipv4_frame
from repro.net.pcap import LINKTYPE_ETHERNET, PcapPacket, write_pcap
from repro.obs.tracer import Tracer
from repro.protocols import get_model
from repro.report import AnalysisReport
from repro.segmenters.groundtruth import GroundTruthSegmenter

PROTOCOL = "ntp"
MESSAGES = 60
SEED = 11


def serial_config() -> ClusteringConfig:
    return ClusteringConfig(
        matrix_options=MatrixBuildOptions(workers=1, use_cache=False)
    )


def make_trace():
    model = get_model(PROTOCOL)
    trace = model.generate(MESSAGES, seed=SEED).preprocess()
    return model, trace


class TestParity:
    def test_analyze_matches_manual_stage(self):
        model, trace = make_trace()
        segmenter = GroundTruthSegmenter(model)
        run = api.run_analysis(
            trace, serial_config(), segmenter=segmenter, msgtypes=True
        )
        assert run.msgtypes is not None

        segments = GroundTruthSegmenter(model).segment(trace)
        manual = cluster_message_types(
            segments, len(trace), matrix=run.result.matrix, trace=trace
        )
        assert list(run.msgtypes.labels) == list(manual.labels)
        assert run.msgtypes.epsilon == manual.epsilon

    def test_cluster_matrix_two_step_matches_analyze(self):
        model, trace = make_trace()
        run = api.run_analysis(
            trace,
            serial_config(),
            segmenter=GroundTruthSegmenter(model),
            msgtypes=True,
        )

        segments = GroundTruthSegmenter(model).segment(trace)
        config = serial_config()
        clusterer = FieldTypeClusterer(config)
        analyzable, excluded = clusterer._partition_unique(segments)
        matrix = DissimilarityMatrix.build(
            analyzable,
            penalty_factor=config.penalty_factor,
            options=config.matrix_options,
        )
        result = clusterer.cluster_matrix(matrix, excluded=excluded)
        types = cluster_message_types(
            segments, len(trace), matrix=result.matrix, trace=trace
        )
        assert run.msgtypes is not None
        assert list(types.labels) == list(run.msgtypes.labels)
        assert types.type_count == run.msgtypes.type_count
        assert types.noise_count == run.msgtypes.noise_count

    def test_session_replay_matches_batch(self):
        model, trace = make_trace()
        session = AnalysisSession(
            serial_config(),
            segmenter=GroundTruthSegmenter(model),
            protocol=PROTOCOL,
            msgtypes=True,
        )
        messages = list(trace.messages)
        third = (len(messages) + 2) // 3
        for start in range(0, len(messages), third):
            session.append(messages[start : start + third])
        streamed = session.snapshot()
        assert streamed.msgtypes is not None

        batch = api.run_analysis(
            trace,
            serial_config(),
            segmenter=GroundTruthSegmenter(model),
            msgtypes=True,
        )
        assert batch.msgtypes is not None
        assert list(streamed.msgtypes.labels) == list(batch.msgtypes.labels)
        assert streamed.msgtypes.epsilon == batch.msgtypes.epsilon
        assert streamed.report.msgtype_sizes == batch.report.msgtype_sizes

    def test_msgtypes_off_by_default(self):
        model, trace = make_trace()
        run = api.run_analysis(
            trace, serial_config(), segmenter=GroundTruthSegmenter(model)
        )
        assert run.msgtypes is None
        assert run.report.message_types is None
        assert run.report.msgtype_sizes == []


class TestReport:
    def test_report_carries_stage_summary(self):
        model, trace = make_trace()
        report = api.analyze(
            trace,
            serial_config(),
            segmenter=GroundTruthSegmenter(model),
            msgtypes=True,
        )
        assert report.message_types is not None and report.message_types >= 1
        assert sum(report.msgtype_sizes) + report.msgtype_noise == len(trace)
        assert report.msgtype_sizes == sorted(report.msgtype_sizes, reverse=True)
        assert "message types:" in report.render()

    def test_report_json_round_trip(self):
        model, trace = make_trace()
        report = api.analyze(
            trace,
            serial_config(),
            segmenter=GroundTruthSegmenter(model),
            msgtypes=True,
        )
        restored = AnalysisReport.from_json(report.to_json())
        assert restored.message_types == report.message_types
        assert restored.msgtype_sizes == report.msgtype_sizes
        assert restored.msgtype_noise == report.msgtype_noise
        assert restored.msgtype_epsilon == report.msgtype_epsilon


def write_capture(path, messages) -> None:
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
    write_pcap(path, packets, linktype=LINKTYPE_ETHERNET)


def dns_chunks_with_retransmits(chunk: int = 15, chunks: int = 4) -> list[list]:
    """DNS chunks where each chunk re-sends two messages of the chunk
    before it and one of its own, with timestamps kept increasing."""
    generated = get_model("dns").generate(chunk * chunks, seed=SEED).messages
    out, clock = [], 0.0
    for index in range(chunks):
        fresh = generated[index * chunk : (index + 1) * chunk]
        resent = (out[-1][:2] if out else []) + fresh[:1]
        stamped = []
        for message in fresh + resent:
            clock += 0.01
            stamped.append(replace(message, timestamp=clock))
        out.append(stamped)
    return out


class TestSnapshotReuse:
    def test_every_snapshot_bit_equals_batch_over_its_prefix(self, tmp_path):
        tracer = Tracer()
        session = AnalysisSession(
            serial_config(), protocol="dns", msgtypes=True, tracer=tracer
        )
        prefix, counts = [], []
        for index, chunk in enumerate(dns_chunks_with_retransmits()):
            path = tmp_path / f"chunk{index}.pcap"
            write_capture(path, chunk)
            session.append(path)
            streamed = session.snapshot()
            prefix += chunk
            whole = tmp_path / f"prefix{index}.pcap"
            write_capture(whole, prefix)
            batch = api.run_analysis(
                whole, serial_config(), protocol="dns", msgtypes=True
            )
            assert streamed.msgtypes is not None and batch.msgtypes is not None
            assert len(streamed.trace) < len(prefix)  # retransmits dropped
            assert (
                streamed.msgtypes.distances.tobytes()
                == batch.msgtypes.distances.tobytes()
            )
            assert list(streamed.msgtypes.labels) == list(batch.msgtypes.labels)
            counts.append(len(streamed.trace))

        spans = tracer.find("msgtypes.similarity")
        assert len(spans) == len(counts)
        assert spans[0].attributes["pairs_reused"] == 0
        for known, count, span in zip(counts, counts[1:], spans[1:]):
            new_pairs = count * (count - 1) // 2 - known * (known - 1) // 2
            assert span.attributes["pairs_reused"] == known * (known - 1) // 2
            assert 0 < span.attributes["pairs_aligned"] <= new_pairs
            assert span.attributes["dp_cells"] > 0
