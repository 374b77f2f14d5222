"""Tests for the workload command-line runner."""

import json

import pytest

from repro.telemetry.chrome_trace import CHIP_PID
from repro.workloads import runner
from repro.workloads.runner import WORKLOADS, main

#: A small run of every workload in the CLI table, with the thread
#: count it asks for.
SMALL = {
    "stream": (["--threads", "4", "--elements", "512"], 4),
    "fft": (["--points", "64", "--threads", "4"], 4),
    "lu": (["--n", "16", "--threads", "2"], 2),
    "radix": (["--keys", "512", "--threads", "2"], 2),
    "ocean": (["--grid", "18", "--threads", "2"], 2),
    "barnes": (["--bodies", "64", "--threads", "2"], 2),
    "fmm": (["--bodies", "64", "--levels", "2", "--threads", "2"], 2),
    "md": (["--particles", "64", "--threads", "2"], 2),
    "raytrace": (["--width", "8", "--height", "8", "--threads", "2"], 2),
    "dgemm": (["--n", "16", "--threads", "2"], 2),
}


def trace_spans(path) -> list:
    doc = json.loads(path.read_text())
    return [e for e in doc["traceEvents"]
            if e.get("pid") == CHIP_PID and e.get("ph") == "X"]


class TestWorkloadCli:
    def test_stream(self, capsys):
        assert main(["stream", "--kernel", "copy", "--threads", "4",
                     "--elements", "512"]) == 0
        out = capsys.readouterr().out
        assert "GB/s" in out
        assert "verified=True" in out

    def test_stream_with_utilization(self, capsys):
        assert main(["stream", "--threads", "4", "--elements", "512",
                     "--utilization"]) == 0
        out = capsys.readouterr().out
        assert "Chip utilization" in out
        assert "memory banks busy" in out

    def test_fft(self, capsys):
        assert main(["fft", "--points", "64", "--threads", "4"]) == 0
        out = capsys.readouterr().out
        assert "verified=True" in out

    def test_fft_with_utilization(self, capsys):
        assert main(["fft", "--points", "64", "--threads", "4",
                     "--utilization"]) == 0
        out = capsys.readouterr().out
        assert "Chip utilization" in out
        assert "memory banks busy" in out

    @pytest.mark.parametrize("argv", [
        ["lu", "--n", "16", "--threads", "2"],
        ["radix", "--keys", "512", "--threads", "2"],
        ["ocean", "--grid", "18", "--threads", "2"],
        ["barnes", "--bodies", "64", "--threads", "2"],
        ["fmm", "--bodies", "64", "--levels", "2", "--threads", "2"],
        ["md", "--particles", "64", "--threads", "2"],
        ["raytrace", "--width", "8", "--height", "8", "--threads", "2"],
        ["dgemm", "--n", "16", "--threads", "2"],
        ["dgemm", "--n", "16", "--threads", "2", "--no-scratchpad"],
    ])
    def test_every_workload_runs_and_verifies(self, argv, capsys):
        assert main(argv) == 0
        assert "verified=True" in capsys.readouterr().out

    def test_balanced_policy_flag(self, capsys):
        assert main(["md", "--particles", "64", "--threads", "4",
                     "--policy", "balanced"]) == 0
        assert "verified=True" in capsys.readouterr().out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["make-coffee"])

    def test_invalid_params_exit_cleanly(self, capsys):
        assert main(["fft", "--points", "100", "--threads", "4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestReportCli:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_report_and_trace(self, workload, tmp_path, capsys):
        argv, threads = SMALL[workload]
        report, trace = tmp_path / "r.json", tmp_path / "t.json"
        assert main([workload, *argv, "--report", str(report),
                     "--trace", str(trace)]) == 0
        doc = json.loads(report.read_text())
        assert doc["results"]["verified"] is True
        aggregate = doc["aggregate"]
        assert aggregate["run_cycles"] > 0
        assert doc["metrics"]["gauges"]["chip.run_cycles"] \
            == aggregate["run_cycles"]
        assert len(trace_spans(trace)) == threads

    def test_stream_with_trace_and_report(self, tmp_path):
        trace = tmp_path / "out.trace.json"
        report = tmp_path / "out.report.json"
        code = main(["stream", "--threads", "8", "--elements", "512",
                     "--trace", str(trace), "--report", str(report)])
        assert code == 0
        assert len(trace_spans(trace)) == 8
        report_doc = json.loads(report.read_text())
        assert report_doc["aggregate"]["run_cycles"] > 0
        assert report_doc["metrics"]["gauges"]["chip.run_cycles"] \
            == report_doc["aggregate"]["run_cycles"]
        assert "simulate" in report_doc["host"]

    def test_fft_workload(self, tmp_path, capsys):
        report = tmp_path / "fft.json"
        code = main(["fft", "--threads", "4", "--points", "64",
                     "--report", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["results"]["verified"] is True
        assert doc["workload"] == "fft"

    def test_uninstrumented_run_leaves_telemetry_off(self, monkeypatch,
                                                     capsys):
        chips = []

        class RecordingChip(runner.Chip):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                chips.append(self)

        monkeypatch.setattr(runner, "Chip", RecordingChip)
        assert main(["stream", "--threads", "4", "--elements", "256"]) == 0
        assert [chip.telemetry for chip in chips] == [None]

    def test_sanitized_run_writes_a_report(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert main(["fft", "--points", "64", "--threads", "4",
                     "--sanitize", "--report", str(report)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out
        assert json.loads(report.read_text())["results"]["verified"] is True
