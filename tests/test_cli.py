"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_campaign_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_analyze_report_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "x.json", "--report", "bogus"])

    def test_defaults(self):
        args = build_parser().parse_args(["summary"])
        assert args.seed == 11
        assert args.countries is None


class TestCommands:
    def test_summary(self, capsys):
        assert main(["summary", "--seed", "3", "--countries", "8"]) == 0
        out = capsys.readouterr().out
        assert "as_total" in out
        assert "facilities" in out

    def test_funnel(self, capsys):
        assert main(["funnel", "--seed", "3", "--countries", "8"]) == 0
        out = capsys.readouterr().out
        assert "initial" in out
        assert "rtt_geolocation" in out
        assert "verified pool" in out

    def test_campaign_and_analyze(self, tmp_path, capsys):
        out_file = tmp_path / "result.json"
        code = main(
            [
                "campaign",
                "--seed", "3",
                "--countries", "8",
                "--rounds", "2",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        assert out_file.exists()
        capsys.readouterr()

        for report in ("summary", "fig2", "fig4", "countries", "voip", "stability"):
            assert main(["analyze", str(out_file), "--report", report]) == 0
            out = capsys.readouterr().out
            assert out.strip(), f"report {report} printed nothing"

    def test_analyze_fig3_renders_chart(self, tmp_path, capsys):
        out_file = tmp_path / "result.json"
        main(["campaign", "--seed", "3", "--countries", "8", "--rounds", "2",
              "--out", str(out_file)])
        capsys.readouterr()
        assert main(["analyze", str(out_file), "--report", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "top-N relays" in out

    def test_analyze_table1_needs_seed(self, tmp_path, capsys):
        out_file = tmp_path / "result.json"
        main(["campaign", "--seed", "3", "--countries", "8", "--rounds", "1",
              "--out", str(out_file)])
        capsys.readouterr()
        assert main(["analyze", str(out_file), "--report", "table1"]) == 2
        assert main(
            ["analyze", str(out_file), "--report", "table1",
             "--seed", "3", "--countries", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "Facility" in out

    def test_serve_bench(self, tmp_path, capsys):
        report_file = tmp_path / "serve.json"
        code = main(
            [
                "serve-bench",
                "--seed", "3",
                "--countries", "6",
                "--rounds", "2",
                "--queries", "4000",
                "--batch-size", "512",
                "--min-qps", "1000",
                "--json-out", str(report_file),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        import json

        report = json.loads(report_file.read_text())
        assert report["ok"] is True
        assert report["snapshot_roundtrip_ok"] is True
        assert report["replay"]["queries"] == 4000
        assert sum(report["replay"]["tier_counts"].values()) == 4000
        assert "queries/s" in captured.err

    def test_serve_bench_from_stored_result(self, tmp_path, capsys):
        out_file = tmp_path / "result.json"
        main(["campaign", "--seed", "3", "--countries", "6", "--rounds", "2",
              "--out", str(out_file)])
        capsys.readouterr()
        code = main(
            ["serve-bench", "--result", str(out_file), "--queries", "2000"]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "stored result" in captured.err

    def test_serve_bench_result_conflicts_with_scenario(self, tmp_path, capsys):
        code = main(
            ["serve-bench", "--result", str(tmp_path / "r.json"),
             "--scenario", "baseline"]
        )
        assert code == 2
        assert "cannot be combined" in capsys.readouterr().err

    def test_missing_result_file_is_clean_error(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "none.json")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_analyze_non_result_file_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1,2]")
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(path) in err

    def test_metrics_summarize_missing_file_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "none.json"
        assert main(["metrics", "summarize", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: no such file\n"

    def test_metrics_summarize_non_json_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "result.npz"
        path.write_bytes(b"PK\x03\x04 not json")
        assert main(["metrics", "summarize", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: not JSON")

    @pytest.mark.parametrize("text", ['{"scenarios": {}}', "[1, 2]"])
    def test_metrics_summarize_other_json_is_clean_error(self, tmp_path, capsys, text):
        path = tmp_path / "other.json"
        path.write_text(text)
        assert main(["metrics", "summarize", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not a repro.obs metrics artifact")

    def test_campaign_checks_out_dir_before_running(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "r.json"
        code = main(["campaign", "--seed", "3", "--countries", "8",
                     "--rounds", "1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(out) in err
        assert "round 0" not in err  # failed before the campaign ran

    def test_analyze_full_report(self, tmp_path, capsys):
        out_file = tmp_path / "result.json"
        main(["campaign", "--seed", "3", "--countries", "8", "--rounds", "2",
              "--out", str(out_file)])
        capsys.readouterr()
        assert main(
            ["analyze", str(out_file), "--report", "full",
             "--seed", "3", "--countries", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "campaign report" in out
        assert "Facilities of the top Colo relays" in out
