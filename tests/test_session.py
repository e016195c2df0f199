"""Incremental session lifecycle: split-invariance, drift gate, resume.

The core contract — the reason :class:`repro.AnalysisSession` may exist
at all — is that chunking must not change the answer: any split of a
message stream into append batches yields a :meth:`snapshot` whose
matrix is byte-identical to a batch :func:`repro.api.run_analysis` over
the same messages, with the same epsilon, clusters, and segments.
Hypothesis drives the splits; further tests pin the drift gate,
provisional labels, checkpoint resume, and the ``run_analysis``
quarantine regression this PR fixes.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run_analysis
from repro.core.matrix import MatrixBuildOptions
from repro.core.pipeline import ClusteringConfig
from repro.errors import QuarantineReport
from repro.net.trace import Trace, TraceMessage
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.session import (
    SESSION_APPENDS_METRIC,
    SESSION_RECLUSTERS_METRIC,
    AnalysisSession,
    SessionCheckpoint,
    session_fingerprint,
)


def make_messages(count: int, seed: int = 0) -> list[TraceMessage]:
    rng = random.Random(seed)
    return [
        TraceMessage(
            data=bytes(rng.randrange(256) for _ in range(rng.randrange(4, 24)))
        )
        for _ in range(count)
    ]


def assert_same_run(run_a, run_b):
    """Matrix bytes, epsilon, clusters, and segments all identical."""
    a, b = run_a.result, run_b.result
    assert [s.data for s in a.matrix.segments] == [s.data for s in b.matrix.segments]
    assert (
        np.asarray(a.matrix.values).tobytes() == np.asarray(b.matrix.values).tobytes()
    )
    assert a.epsilon == b.epsilon
    assert [sorted(c.tolist()) for c in a.clusters] == [
        sorted(c.tolist()) for c in b.clusters
    ]
    assert a.noise.tolist() == b.noise.tolist()
    assert [(s.message_index, s.offset, s.data) for s in run_a.segments] == [
        (s.message_index, s.offset, s.data) for s in run_b.segments
    ]
    assert [u.data for u in a.excluded] == [u.data for u in b.excluded]
    assert [len(u.occurrences) for u in a.segments] == [
        len(u.occurrences) for u in b.segments
    ]


class TestSplitInvariance:
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(1, 59), min_size=0, max_size=4),
    )
    @settings(max_examples=10, deadline=None)
    def test_any_split_matches_batch(self, seed, cuts):
        messages = make_messages(60, seed=seed)
        batch = run_analysis(Trace(messages=list(messages), protocol="p"))
        session = AnalysisSession(protocol="p")
        edges = [0, *sorted(set(cuts)), len(messages)]
        for start, stop in zip(edges, edges[1:]):
            if stop > start:
                session.append(messages[start:stop])
        assert_same_run(session.snapshot(), batch)

    def test_duplicates_and_empties_drop_like_preprocess(self):
        messages = make_messages(40, seed=7)
        noisy = [*messages, *messages[:10], TraceMessage(data=b"")]
        batch = run_analysis(Trace(messages=list(noisy), protocol="p"))
        session = AnalysisSession(protocol="p")
        update = session.append(noisy[:30])
        assert update.appended_messages == 30
        update = session.append(noisy[30:])
        assert update.dropped_messages == 11
        assert_same_run(session.snapshot(), batch)
        assert session.message_count == 40

    def test_session_survives_snapshot(self):
        messages = make_messages(50, seed=3)
        session = AnalysisSession(protocol="p")
        session.append(messages[:30])
        first = session.snapshot()
        session.append(messages[30:])
        second = session.snapshot()
        batch = run_analysis(Trace(messages=list(messages), protocol="p"))
        assert_same_run(second, batch)
        assert len(first.trace) == 30  # earlier snapshot is unaffected


class TestDriftGate:
    def test_first_append_reclusters(self):
        session = AnalysisSession(protocol="p")
        update = session.append(make_messages(30, seed=1))
        assert update.reclustered and update.reason == "initial"

    def test_small_append_stays_provisional(self):
        session = AnalysisSession(protocol="p", epsilon_tolerance=10.0)
        session.append(make_messages(200, seed=2))
        update = session.append(make_messages(3, seed=99))
        assert not update.reclustered and update.reason == "stable"
        assert update.provisional_segments > 0
        labels = session.labels()
        assert len(labels) == session.unique_segment_count

    def test_large_append_trips_fraction_gate(self):
        session = AnalysisSession(protocol="p", epsilon_tolerance=10.0)
        session.append(make_messages(40, seed=4))
        update = session.append(make_messages(40, seed=5))
        assert update.reclustered and update.reason == "appended_fraction"

    def test_epsilon_drift_trips_gate(self):
        # Tolerance 0: any epsilon movement forces a reclustering.
        session = AnalysisSession(
            protocol="p", recluster_fraction=1e9, epsilon_tolerance=0.0
        )
        session.append(make_messages(120, seed=6))
        update = session.append(make_messages(20, seed=7))
        assert update.reclustered == (update.reason == "epsilon_drift")

    def test_rejects_trace_global_segmenters(self):
        with pytest.raises(ValueError, match="incrementally"):
            AnalysisSession(segmenter="netzob")
        with pytest.raises(ValueError, match="incrementally"):
            AnalysisSession(segmenter="csp")

    def test_observability(self):
        tracer = Tracer()
        metrics = MetricsRegistry()
        session = AnalysisSession(protocol="p", tracer=tracer, metrics=metrics)
        session.append(make_messages(30, seed=8))
        session.snapshot()
        assert tracer.find("session.append")
        assert tracer.find("session.snapshot")
        assert tracer.find("session.recluster")
        assert metrics.counter(SESSION_APPENDS_METRIC).value() == 1
        assert metrics.counter(SESSION_RECLUSTERS_METRIC).value(reason="initial") == 1


class TestLifecycle:
    def test_closed_session_refuses(self):
        session = AnalysisSession(protocol="p")
        session.close()
        with pytest.raises(ValueError, match="closed"):
            session.append([b"\x01\x02"])
        with pytest.raises(ValueError, match="closed"):
            session.snapshot()

    def test_empty_snapshot_raises(self):
        with AnalysisSession(protocol="p") as session:
            with pytest.raises(ValueError, match="no messages"):
                session.snapshot()

    def test_append_accepts_raw_bytes(self):
        session = AnalysisSession(protocol="p")
        update = session.append([b"\x01\x02\x03\x04", b"\x05\x06\x07\x08"])
        assert update.appended_messages == 2
        with pytest.raises(TypeError):
            session.append([42])


class TestCheckpointResume:
    def test_resume_replays_to_identical_state(self, tmp_path):
        path = tmp_path / "session.jsonl"
        messages = make_messages(60, seed=9)
        first = AnalysisSession(protocol="p", checkpoint_path=path)
        first.append(messages[:25])
        first.append(messages[25:45])
        # "crash": abandon the session object, resume from the journal.
        resumed = AnalysisSession(protocol="p", checkpoint_path=path)
        assert resumed.message_count == first.message_count
        assert (
            np.asarray(resumed._appendable.matrix.values).tobytes()
            == np.asarray(first._appendable.matrix.values).tobytes()
        )
        resumed.append(messages[45:])
        batch = run_analysis(Trace(messages=list(messages), protocol="p"))
        assert_same_run(resumed.snapshot(), batch)

    def test_foreign_fingerprint_is_not_replayed(self, tmp_path):
        path = tmp_path / "session.jsonl"
        session = AnalysisSession(protocol="p", checkpoint_path=path)
        session.append(make_messages(10, seed=10))
        other_config = AnalysisSession(
            ClusteringConfig(penalty_factor=0.123),
            protocol="p",
            checkpoint_path=path,
        )
        assert other_config.message_count == 0
        other_protocol = AnalysisSession(protocol="q", checkpoint_path=path)
        assert other_protocol.message_count == 0

    def test_resumes_under_other_execution_options(self, tmp_path):
        # Worker count, cache, storage and memory bound change how the
        # work runs, never its result: a journal written under one set
        # replays under another.  The value dtype changes results.
        path = tmp_path / "session.jsonl"
        first = AnalysisSession(
            ClusteringConfig(matrix_options=MatrixBuildOptions(workers=2)),
            protocol="p",
            checkpoint_path=path,
        )
        first.append(make_messages(30, seed=13))
        resumed = AnalysisSession(
            ClusteringConfig(
                matrix_options=MatrixBuildOptions(
                    workers=1,
                    use_cache=True,
                    cache_dir=tmp_path / "cache",
                    storage="memmap",
                ),
                memory_bound_bytes=1 << 20,
            ),
            protocol="p",
            checkpoint_path=path,
        )
        assert resumed.message_count == first.message_count > 0
        assert (
            np.asarray(resumed._appendable.matrix.values).tobytes()
            == np.asarray(first._appendable.matrix.values).tobytes()
        )
        default = AnalysisSession(protocol="p", checkpoint_path=path)
        assert default.message_count == first.message_count
        float32 = AnalysisSession(
            ClusteringConfig(matrix_options=MatrixBuildOptions(dtype="float32")),
            protocol="p",
            checkpoint_path=path,
        )
        assert float32.message_count == 0

    def test_torn_tail_line_is_skipped(self, tmp_path):
        path = tmp_path / "session.jsonl"
        session = AnalysisSession(protocol="p", checkpoint_path=path)
        session.append(make_messages(10, seed=11))
        with open(path, "a") as handle:
            handle.write('{"schema": "repro.session-checkpoint/v1", "fing')
        resumed = AnalysisSession(protocol="p", checkpoint_path=path)
        assert resumed.message_count == session.message_count

    def test_resume_disabled(self, tmp_path):
        path = tmp_path / "session.jsonl"
        AnalysisSession(protocol="p", checkpoint_path=path).append(
            make_messages(5, seed=12)
        )
        fresh = AnalysisSession(protocol="p", checkpoint_path=path, resume=False)
        assert fresh.message_count == 0

    def test_fingerprint_is_config_sensitive(self):
        base = session_fingerprint(ClusteringConfig(), "nemesys", "p")
        assert base == session_fingerprint(ClusteringConfig(), "nemesys", "p")
        assert base != session_fingerprint(
            ClusteringConfig(penalty_factor=0.5), "nemesys", "p"
        )
        assert base != session_fingerprint(ClusteringConfig(), "nemesys", "q")

    def test_default_fingerprints_are_pinned(self):
        # Checkpoints written with the default config by earlier releases
        # must keep replaying: these digests may only change on purpose.
        assert session_fingerprint(ClusteringConfig(), "nemesys", "unknown") == (
            "9e9c89c4d8eecdf04706f49a773d1e531988e340288ae88509ad6f2086d688ce"
        )
        assert session_fingerprint(ClusteringConfig(), "nemesys", "dns") == (
            "1991c653086dd9f1b186f6c08e7b548ce2412ba8b2515dbf8e914b9f0ccef320"
        )

    def test_checkpoint_roundtrips_message_context(self, tmp_path):
        checkpoint = SessionCheckpoint(tmp_path / "c.jsonl", "f")
        message = TraceMessage(
            data=b"\x01\x02",
            timestamp=3.5,
            src_ip=b"\x0a\x00\x00\x01",
            dst_ip=b"\x0a\x00\x00\x02",
            src_port=1234,
            dst_port=53,
            direction="request",
        )
        checkpoint.record_chunk(0, [message])
        [[loaded]] = checkpoint.load_chunks()
        assert loaded == message


class TestWalRotation:
    def _grow(self, path, chunks=4, per_chunk=15, wal_max_bytes=600):
        session = AnalysisSession(
            protocol="p", checkpoint_path=path, wal_max_bytes=wal_max_bytes
        )
        for index in range(chunks):
            session.append(make_messages(per_chunk, seed=100 + index))
        return session

    def test_rotation_compacts_and_resumes_from_snapshot(self, tmp_path):
        path = tmp_path / "session.jsonl"
        session = self._grow(path)
        assert session.compactions >= 1
        assert SessionCheckpoint(path, "f").snapshot_path.exists()
        digest = session.digest()
        resumed = AnalysisSession(
            protocol="p", checkpoint_path=path, wal_max_bytes=600
        )
        assert resumed.replayed["snapshot"] == "ok"
        assert resumed.replayed["snapshot_messages"] == session.message_count
        # Fast path: only the live-WAL tail is replayed, not the journal.
        assert resumed.replayed["archive_chunks"] == 0
        assert resumed.replayed["wal_chunks"] < 4
        assert resumed.digest() == digest

    def test_corrupt_snapshot_falls_back_to_full_journal(self, tmp_path):
        path = tmp_path / "session.jsonl"
        digest = self._grow(path).digest()
        snapshot_path = SessionCheckpoint(path, "f").snapshot_path
        snapshot_path.write_bytes(snapshot_path.read_bytes()[:-40] + b"x" * 40)
        resumed = AnalysisSession(
            protocol="p", checkpoint_path=path, wal_max_bytes=600
        )
        assert resumed.replayed["snapshot"] == "corrupt"
        assert resumed.replayed["archive_chunks"] >= 1
        assert resumed.digest() == digest

    def test_snapshot_checksum_detects_tamper(self, tmp_path):
        import json as json_module

        checkpoint = SessionCheckpoint(tmp_path / "c.jsonl", "fp")
        checkpoint.write_snapshot(make_messages(3, seed=1), {"k": "v"})
        assert checkpoint.load_snapshot()[0] == "ok"
        document = json_module.loads(checkpoint.snapshot_path.read_text())
        document["payload"]["meta"]["k"] = "tampered"
        checkpoint.snapshot_path.write_text(json_module.dumps(document))
        status, messages = checkpoint.load_snapshot()
        assert status == "corrupt" and messages is None

    def test_snapshot_fingerprint_mismatch(self, tmp_path):
        checkpoint = SessionCheckpoint(tmp_path / "c.jsonl", "fp-a")
        checkpoint.write_snapshot(make_messages(3, seed=2))
        other = SessionCheckpoint(tmp_path / "c.jsonl", "fp-b")
        status, messages = other.load_snapshot()
        assert status == "mismatch" and messages is None

    def test_missing_snapshot(self, tmp_path):
        checkpoint = SessionCheckpoint(tmp_path / "c.jsonl", "fp")
        assert checkpoint.load_snapshot() == ("missing", None)

    def test_binary_garbage_snapshot_is_corrupt(self, tmp_path):
        checkpoint = SessionCheckpoint(tmp_path / "c.jsonl", "fp")
        checkpoint.snapshot_path.write_bytes(b"\xff\xfe" * 64)
        assert checkpoint.load_snapshot() == ("corrupt", None)

    def test_failed_rotation_keeps_wal_and_session_alive(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "session.jsonl"
        session = AnalysisSession(
            protocol="p", checkpoint_path=path, wal_max_bytes=200
        )
        monkeypatch.setattr(
            SessionCheckpoint,
            "write_snapshot",
            lambda *a, **k: (_ for _ in ()).throw(OSError("disk full")),
        )
        session.append(make_messages(20, seed=3))
        assert session.compactions == 0
        assert session.wal_bytes() > 200  # WAL untouched, nothing lost
        monkeypatch.undo()
        digest = session.digest()
        resumed = AnalysisSession(protocol="p", checkpoint_path=path)
        assert resumed.digest() == digest

    def test_rejects_nonpositive_bound(self, tmp_path):
        with pytest.raises(ValueError, match="wal_max_bytes"):
            SessionCheckpoint(tmp_path / "c.jsonl", "fp", wal_max_bytes=0)

    def test_digest_is_chunking_invariant(self):
        messages = make_messages(40, seed=4)
        one = AnalysisSession(protocol="p")
        one.append(messages)
        split = AnalysisSession(protocol="p")
        split.append(messages[:13])
        split.append(messages[13:])
        assert one.digest() == split.digest()


class TestQuarantineRegression:
    def _lenient_trace(self):
        trace = Trace(messages=make_messages(20, seed=13), protocol="p")
        trace.quarantine = QuarantineReport(source="x.pcap", ok_count=20)
        trace.quarantine.records.append(object())
        return trace

    def test_run_analysis_keeps_quarantine_after_preprocess(self):
        trace = self._lenient_trace()
        run = run_analysis(trace)
        assert run.quarantine is trace.quarantine
        # The regression: preprocess() returns a fresh Trace that used
        # to lose the report, leaving run.trace.quarantine None.
        assert run.trace.quarantine is trace.quarantine

    def test_session_merges_quarantines_into_snapshot(self):
        session = AnalysisSession(protocol="p")
        trace_a = Trace(messages=make_messages(15, seed=14), protocol="p")
        trace_a.quarantine = QuarantineReport(source="a.pcap", ok_count=15)
        trace_a.quarantine.records.append("r1")
        trace_b = Trace(messages=make_messages(15, seed=15), protocol="p")
        trace_b.quarantine = QuarantineReport(
            source="b.pcap", ok_count=15, truncated_tail=True
        )
        session.append(trace_a)
        session.append(trace_b)
        run = session.snapshot()
        assert run.quarantine is not None
        assert run.quarantine.ok_count == 30
        assert run.quarantine.truncated_tail
        assert run.quarantine.quarantined_count == 1
        assert run.trace.quarantine is run.quarantine
