import json

import pytest

from repro.__main__ import main as repro_main
from repro.core.membound import rows_per_block
from repro.eval.__main__ import main as eval_main


class TestReproCli:
    def test_protocols(self, capsys):
        assert repro_main(["protocols"]) == 0
        out = capsys.readouterr().out
        assert "ntp" in out and "awdl" in out
        assert "no IP context" in out

    def test_generate_and_analyze_capture(self, tmp_path, capsys):
        pcap = tmp_path / "dns.pcap"
        assert repro_main(["generate", "dns", "-n", "120", "-o", str(pcap)]) == 0
        assert pcap.stat().st_size > 0
        report_path = tmp_path / "report.json"
        code = repro_main(
            [
                "analyze",
                str(pcap),
                "--port",
                "53",
                "--segmenter",
                "csp",
                "--json",
                str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["cluster_count"] >= 1
        assert report["message_count"] > 0

    def test_generate_no_ip_protocol(self, tmp_path):
        pcap = tmp_path / "au.pcap"
        assert repro_main(["generate", "au", "-n", "50", "-o", str(pcap)]) == 0
        from repro.net.pcap import read_pcap

        linktype, packets = read_pcap(pcap)
        assert linktype == 147  # USER0: raw payload capture
        assert len(packets) == 50

    def test_analyze_model_with_semantics(self, capsys):
        code = repro_main(
            ["analyze", "--model", "ntp", "-n", "150", "--semantics"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pseudo data types" in out

    def test_analyze_requires_input(self, capsys):
        assert repro_main(["analyze"]) == 2

    def test_analyze_missing_capture_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            repro_main(["analyze", str(tmp_path / "missing.pcap")])


class TestEvalCli:
    def test_fig3(self, capsys):
        assert eval_main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out

    def test_quick_fig2(self, capsys):
        assert eval_main(["fig2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "knee" in out

    def test_memory_bound_reaches_the_tables(self, tmp_path):
        # --memory-bound-mb must size every k-NN scan of the sweep, not
        # only the analyze path's.
        manifest = tmp_path / "eval.json"
        argv = ["table1", "--quick", "--no-cache", "--memory-bound-mb", "1"]
        assert eval_main(argv + ["--trace-out", str(manifest)]) == 0
        spans, pending = [], json.loads(manifest.read_text())["spans"]
        while pending:
            span = pending.pop()
            spans.append(span)
            pending.extend(span["children"])
        knn = [span["attributes"] for span in spans if span["name"] == "matrix.knn"]
        assert knn
        for attributes in knn:
            row_bytes = attributes["rows"] * 8  # float64 matrix rows
            assert attributes["block_rows"] == rows_per_block(
                row_bytes, 1024 * 1024, copies=2
            )

    @pytest.mark.parametrize(
        "flag",
        [
            ["--kernel", "pairwise"],
            ["--parallel-backend", "processes"],
            ["--block-timeout", "1"],
            ["--max-retries", "1"],
            ["--neighborhoods", "dense"],
        ],
    )
    def test_retired_backend_flags_are_rejected(self, flag):
        with pytest.raises(SystemExit):
            eval_main(["fig3", *flag])
