import warnings

import numpy as np
import pytest

from repro.core.ecdf import Ecdf
from repro.core.pipeline import ClusteringConfig, FieldTypeClusterer
from repro.core.segments import Segment, segments_from_fields
from repro.metrics import score_result
from repro.obs.tracer import Tracer, use_tracer
from repro.protocols import get_model


def synthetic_two_type_segments(rng, per_type=80):
    """Two clearly distinct pseudo data types plus 1-byte rejects."""
    segments = []
    for i in range(per_type):
        low = bytes(rng.integers(30, 42, size=4).tolist())
        segments.append(Segment(message_index=i, offset=0, data=low, ftype="low"))
        high = bytes(rng.integers(200, 256, size=4).tolist())
        segments.append(Segment(message_index=i, offset=4, data=high, ftype="high"))
        segments.append(Segment(message_index=i, offset=8, data=b"\x42", ftype="one"))
    return segments


class TestFieldTypeClusterer:
    def test_separates_obvious_types(self):
        rng = np.random.default_rng(3)
        result = FieldTypeClusterer().cluster(synthetic_two_type_segments(rng))
        score = score_result(result)
        assert score.precision == pytest.approx(1.0)
        assert score.recall > 0.5

    def test_one_byte_segments_excluded(self):
        rng = np.random.default_rng(4)
        result = FieldTypeClusterer().cluster(synthetic_two_type_segments(rng))
        assert all(s.length >= 2 for s in result.segments)
        assert any(s.length == 1 for s in result.excluded)

    def test_raises_without_analyzable_segments(self):
        segments = [Segment(message_index=0, offset=0, data=b"\x01")]
        with pytest.raises(ValueError, match="no analyzable"):
            FieldTypeClusterer().cluster(segments)

    def test_labels_consistent_with_clusters(self):
        rng = np.random.default_rng(5)
        result = FieldTypeClusterer().cluster(synthetic_two_type_segments(rng))
        labels = result.labels()
        for ci, members in enumerate(result.clusters):
            assert np.all(labels[members] == ci)
        assert np.all(labels[result.noise] == -1)

    def test_clusters_and_noise_partition_segments(self):
        rng = np.random.default_rng(6)
        result = FieldTypeClusterer().cluster(synthetic_two_type_segments(rng))
        clustered = {int(i) for c in result.clusters for i in c}
        noise = {int(i) for i in result.noise}
        assert clustered.isdisjoint(noise)
        assert clustered | noise == set(range(len(result.segments)))

    def test_fixed_epsilon_override(self):
        rng = np.random.default_rng(7)
        config = ClusteringConfig(fixed_epsilon=0.42)
        result = FieldTypeClusterer(config).cluster(synthetic_two_type_segments(rng))
        assert result.epsilon == 0.42

    def test_covered_bytes_counts_occurrences(self):
        rng = np.random.default_rng(8)
        result = FieldTypeClusterer().cluster(synthetic_two_type_segments(rng))
        expected = sum(
            result.segments[i].covered_bytes for c in result.clusters for i in c
        )
        assert result.covered_bytes() == expected

    def test_degenerate_retrim_keeps_previous_clustering(self, monkeypatch):
        # Regression: when every k-NN distribution empties under the
        # Section III-E trim (the near-constant-dissimilarity degenerate
        # case, where the ECDF grid collapses to the knee itself),
        # ``configure`` raises ValueError from inside the retrim loop.
        # That used to escape ``cluster()``; it must instead end the
        # fallback and keep the clustering found before the retrim.
        rng = np.random.default_rng(5)
        segments = []
        base = bytes([40, 80, 120, 160])
        for i in range(120):
            data = bytes((b + rng.integers(0, 6)) % 256 for b in base)
            segments.append(Segment(message_index=i, offset=0, data=data))
        for i in range(30):
            data = bytes(rng.integers(0, 256, size=4).tolist())
            segments.append(Segment(message_index=120 + i, offset=0, data=data))

        baseline = FieldTypeClusterer().cluster(segments)
        assert baseline.retrims >= 1  # the trace really exercises the fallback

        trim_calls = []

        def degenerate_trim(self, threshold):
            trim_calls.append(threshold)
            raise ValueError(f"no samples below {threshold}")

        monkeypatch.setattr(Ecdf, "trim_below", degenerate_trim)
        result = FieldTypeClusterer().cluster(segments)
        assert trim_calls, "the retrim path was never reached"
        # The fallback was abandoned, not crashed: the pre-retrim
        # clustering survives and no retrim is counted.
        assert result.retrims == 0
        assert result.cluster_count >= 1

    def test_deterministic(self):
        rng1 = np.random.default_rng(9)
        rng2 = np.random.default_rng(9)
        r1 = FieldTypeClusterer().cluster(synthetic_two_type_segments(rng1))
        r2 = FieldTypeClusterer().cluster(synthetic_two_type_segments(rng2))
        assert r1.epsilon == r2.epsilon
        assert [c.tolist() for c in r1.clusters] == [c.tolist() for c in r2.clusters]


    def test_cluster_matrix_runs_the_same_stages(self):
        rng = np.random.default_rng(10)
        batch_tracer, matrix_tracer = Tracer(), Tracer()
        with use_tracer(batch_tracer):
            batch = FieldTypeClusterer().cluster(synthetic_two_type_segments(rng))
        with use_tracer(matrix_tracer):
            again = FieldTypeClusterer().cluster_matrix(batch.matrix, batch.excluded)
        assert again.epsilon == batch.epsilon
        assert np.array_equal(again.labels(), batch.labels())
        assert again.excluded == batch.excluded
        assert again.timings["matrix"] == 0.0 < batch.timings["matrix"]

        def stages(tracer):
            (root,) = tracer.roots
            return root.name, [child.name for child in root.children]

        assert stages(batch_tracer) == (
            "pipeline", ["matrix", "autoconf", "dbscan", "refine"]
        )
        assert stages(matrix_tracer) == ("pipeline", ["autoconf", "dbscan", "refine"])

    def test_neighborhoods_field_is_deprecated_and_ignored(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ClusteringConfig(neighborhoods="csr")
        with pytest.warns(DeprecationWarning, match="neighborhoods"):
            dense = ClusteringConfig(neighborhoods="dense")
        segments = synthetic_two_type_segments(np.random.default_rng(11))
        expected = FieldTypeClusterer().cluster(segments)
        result = FieldTypeClusterer(dense).cluster(segments)
        assert np.array_equal(result.labels(), expected.labels())


class TestPipelineOnProtocols:
    """Integration: ground-truth segmentation of real protocol models."""

    @pytest.mark.parametrize("proto", ["ntp", "dns", "nbns"])
    def test_high_precision_on_simple_protocols(self, proto):
        model = get_model(proto)
        trace = model.generate(120, seed=11).preprocess()
        segments = []
        for i, msg in enumerate(trace):
            segments.extend(segments_from_fields(i, msg.data, model.dissect(msg.data)))
        result = FieldTypeClusterer().cluster(segments)
        score = score_result(result)
        assert score.precision >= 0.9
        assert score.fscore >= 0.8

    def test_au_precision(self):
        model = get_model("au")
        trace = model.generate(123, seed=11).preprocess()
        segments = []
        for i, msg in enumerate(trace):
            segments.extend(segments_from_fields(i, msg.data, model.dissect(msg.data)))
        result = FieldTypeClusterer().cluster(segments)
        score = score_result(result)
        assert score.precision >= 0.9
