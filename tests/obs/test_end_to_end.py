"""End-to-end observability: facade, spans per stage, manifest artefacts."""

import json

from repro import analyze, cluster_segments, run_analysis
from repro.obs.export import parse_prometheus_text, validate_manifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.protocols import get_model

PIPELINE_STAGES = ("matrix", "autoconf", "dbscan", "refine")


def ntp_trace(count=60):
    trace = get_model("ntp").generate(count, seed=42)
    trace.protocol = "ntp"
    return trace


class TestFacade:
    def test_analyze_works_without_cli(self):
        report = analyze(ntp_trace())
        assert report.protocol == "ntp"
        assert report.cluster_count >= 1
        assert report.unique_segments > 0

    def test_analyze_from_pcap_path(self, tmp_path):
        from repro.__main__ import main as repro_main

        pcap = tmp_path / "ntp.pcap"
        assert repro_main(["generate", "ntp", "-n", "80", "-o", str(pcap)]) == 0
        report = analyze(pcap, protocol="ntp", port=123, segmenter="csp")
        assert report.protocol == "ntp"
        assert report.message_count > 0

    def test_analyze_rejects_unknown_segmenter(self):
        import pytest

        with pytest.raises(ValueError, match="unknown segmenter"):
            analyze(ntp_trace(), segmenter="nope")

    def test_cluster_segments_facade(self):
        from repro.segmenters import GroundTruthSegmenter

        model = get_model("ntp")
        trace = model.generate(60, seed=42).preprocess()
        segments = GroundTruthSegmenter(model).segment(trace)
        result = cluster_segments(segments)
        assert result.cluster_count >= 1

    def test_run_analysis_returns_intermediates(self):
        run = run_analysis(ntp_trace(), semantics=True)
        assert run.segments and run.result.cluster_count >= 1
        assert run.semantics is not None
        assert run.report.cluster_count == run.result.cluster_count


class TestSpansPerStage:
    def test_one_span_per_pipeline_stage(self):
        tracer = Tracer()
        trace = ntp_trace()
        analyze(trace, tracer=tracer)
        assert len(tracer.find("segment")) == 1
        # The segment span records the payload it segmented, so its
        # time reads as a cost per byte.
        (segment,) = tracer.find("segment")
        assert segment.attributes["bytes"] == sum(len(m.data) for m in trace.preprocess())
        assert len(tracer.find("pipeline")) == 1
        for stage in PIPELINE_STAGES:
            assert len(tracer.find(stage)) == 1, f"expected one {stage} span"
        # The stage spans are children of the pipeline root.
        (pipeline,) = tracer.find("pipeline")
        child_names = [child.name for child in pipeline.children]
        assert child_names == list(PIPELINE_STAGES)

    def test_semantics_span_present_when_enabled(self):
        tracer = Tracer()
        analyze(ntp_trace(), semantics=True, tracer=tracer)
        assert len(tracer.find("semantics")) == 1

    def test_metrics_recorded_into_callers_registry(self):
        metrics = MetricsRegistry()
        analyze(ntp_trace(), metrics=metrics)
        assert metrics.counter("repro_pipeline_runs_total").value() == 1
        assert metrics.gauge("repro_clusters").value() >= 1
        assert (
            metrics.counter("repro_segments_total").value(segmenter="nemesys") > 0
        )
        snapshot = metrics.snapshot()
        assert "repro_matrix_cache_hits_total" in snapshot
        assert "repro_matrix_cache_misses_total" in snapshot


class TestCliArtefacts:
    def run_analyze(self, tmp_path, monkeypatch, extra=()):
        from repro.__main__ import main as repro_main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        manifest_path = tmp_path / "run.json"
        metrics_path = tmp_path / "run.prom"
        code = repro_main(
            [
                "analyze",
                "--model",
                "ntp",
                "-n",
                "60",
                "--trace-out",
                str(manifest_path),
                "--metrics-out",
                str(metrics_path),
                *extra,
            ]
        )
        assert code == 0
        return manifest_path, metrics_path

    def test_manifest_has_all_stages_and_cache_counters(self, tmp_path, monkeypatch):
        manifest_path, _ = self.run_analyze(tmp_path, monkeypatch)
        manifest = validate_manifest(json.loads(manifest_path.read_text()))
        names = []

        def walk(node):
            names.append(node["name"])
            for child in node["children"]:
                walk(child)

        for root in manifest["spans"]:
            walk(root)
        for stage in ("segment", *PIPELINE_STAGES):
            assert names.count(stage) == 1, f"expected one {stage} span, got {names}"
        hits = manifest["metrics"]["repro_matrix_cache_hits_total"]
        misses = manifest["metrics"]["repro_matrix_cache_misses_total"]
        assert hits["type"] == "counter" and misses["type"] == "counter"
        # First run over an empty cache dir: one miss, no hit.
        assert misses["series"][0]["value"] == 1
        assert hits["series"][0]["value"] == 0
        assert manifest["config_fingerprint"]
        assert manifest["config"]["matrix_options"]["use_cache"] is True

    def test_prometheus_file_parses(self, tmp_path, monkeypatch):
        _, metrics_path = self.run_analyze(tmp_path, monkeypatch)
        samples = parse_prometheus_text(metrics_path.read_text())
        assert samples[("repro_pipeline_runs_total", ())] == 1
        assert samples[("repro_matrix_cache_misses_total", ())] == 1
        assert ("repro_unique_segments", ()) in samples
        bucket_samples = [
            key for key in samples if key[0] == "repro_stage_seconds_bucket"
        ]
        assert bucket_samples, "stage-seconds histogram missing"

    def test_second_run_hits_matrix_cache(self, tmp_path, monkeypatch):
        self.run_analyze(tmp_path, monkeypatch)
        manifest_path, _ = self.run_analyze(tmp_path, monkeypatch)
        manifest = json.loads(manifest_path.read_text())
        hits = manifest["metrics"]["repro_matrix_cache_hits_total"]
        assert hits["series"][0]["value"] == 1

    def test_timings_view_reads_span_data(self, tmp_path, monkeypatch, capsys):
        self.run_analyze(tmp_path, monkeypatch, extra=["--timings"])
        err = capsys.readouterr().err
        assert "timings:" in err
        for stage in ("segment", "matrix", "autoconf", "dbscan", "refine"):
            assert f"{stage}=" in err
        assert "matrix cache: hits=0 misses=1 stores=1" in err

    def test_analyze_verb_is_optional(self, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main as repro_main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert repro_main(["--model", "ntp", "-n", "60"]) == 0
        assert "pseudo data types" in capsys.readouterr().out

    def test_eval_cli_emits_artefacts(self, tmp_path, monkeypatch, capsys):
        from repro.eval.__main__ import main as eval_main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        manifest_path = tmp_path / "eval.json"
        metrics_path = tmp_path / "eval.prom"
        code = eval_main(
            [
                "table1",
                "--quick",
                "--trace-out",
                str(manifest_path),
                "--metrics-out",
                str(metrics_path),
            ]
        )
        assert code == 0
        manifest = validate_manifest(json.loads(manifest_path.read_text()))
        assert manifest["meta"]["artefact"] == "table1"
        assert any(root["name"] == "eval.cell" for root in manifest["spans"])
        samples = parse_prometheus_text(metrics_path.read_text())
        assert samples[("repro_pipeline_runs_total", ())] >= 1
