"""Tests for the experiment drivers (quick mode) and the CLI runner."""

import json
import multiprocessing
import signal
import time

import pytest

from repro.errors import CyclopsError
from repro.experiments import REGISTRY, get_experiment
from repro.experiments.runner import main
from repro.jobs.spec import JobSpec


class TestRegistry:
    def test_all_artifacts_registered(self):
        assert set(REGISTRY) >= {
            "table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig7",
        }
        # The exploration families (docs/exploration.md).
        assert {"saturation", "bandwidth", "contention"} <= set(REGISTRY)

    def test_unknown_experiment(self):
        with pytest.raises(CyclopsError):
            get_experiment("fig99")

    def test_experiments_md_catalog_matches_registry(self):
        """EXPERIMENTS.md's catalog lists exactly the registered ids."""
        import pathlib
        import re

        text = pathlib.Path(__file__).parent.parent.joinpath(
            "EXPERIMENTS.md").read_text(encoding="utf-8")
        catalog = text.split("## Experiment catalog", 1)[1].split("\n## ", 1)[0]
        listed = set(re.findall(r"^\| `([a-z0-9]+)` \|", catalog,
                                flags=re.MULTILINE))
        assert listed == set(REGISTRY)


class TestQuickRuns:
    """Each driver must complete in quick mode with a sane report."""

    def test_table1(self):
        report = get_experiment("table1")(quick=True)
        assert report.measurements["all_group_imbalance"] < 1.5
        assert len(report.tables) == 2

    def test_table2_exact_latencies(self):
        report = get_experiment("table2")(quick=True)
        assert report.measurements["mismatches"] == 0

    def test_fig3(self):
        report = get_experiment("fig3")(quick=True)
        assert len(report.series) == 6
        for series in report.series:
            assert series.y[0] == pytest.approx(1.0)

    def test_fig4(self):
        report = get_experiment("fig4")(quick=True)
        assert len(report.series) == 8  # 4 kernels x 2 panels

    def test_fig5(self):
        report = get_experiment("fig5")(quick=True)
        m = report.measurements
        assert m["best_local_gb_s"] > 0

    def test_fig6(self):
        report = get_experiment("fig6")(quick=True)
        labels = {s.label for s in report.series}
        assert any(l.startswith("cyclops") for l in labels)
        assert any(l.startswith("origin") for l in labels)

    def test_fig7(self):
        report = get_experiment("fig7")(quick=True)
        assert len(report.tables) == 2

    def test_sampling(self):
        report = get_experiment("sampling")(quick=True)
        m = report.measurements
        assert abs(m["worst_error_pct"]) <= 2.0
        assert m["stream_state_matches"] == 1.0
        assert m["fft_state_matches"] == 1.0
        assert m["stream_speedup"] > 1.0
        assert not any(n.startswith(("TOLERANCE", "STATE"))
                       for n in report.notes)

    def test_render_is_text(self):
        report = get_experiment("table1")(quick=True)
        text = report.render()
        assert "table1" in text
        assert "Paper:" in text


class TestRunnerCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "table2" in out

    def test_run_one(self, capsys):
        assert main(["run", "table1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Interest group" in out

    def test_run_writes_files(self, tmp_path, capsys):
        assert main(["run", "table2", "--quick", "-o", str(tmp_path)]) == 0
        assert (tmp_path / "table2.txt").exists()

    def test_unknown_id_exits_2_listing_known(self, capsys):
        assert main(["run", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'nope'" in err
        # The known ids are printed so the user can correct the typo.
        assert "table2" in err and "fig7" in err

    def test_bad_worker_count_exits_2(self, capsys):
        assert main(["run", "table2", "-j", "0"]) == 2
        assert "-j must be >= 1" in capsys.readouterr().err
        # Pool-only flags are refused without -j, not silently ignored.
        for flag in (["--no-cache"], ["--cache-dir", "c"],
                     ["--job-timeout", "5"]):
            assert main(["run", "table2", "--quick", *flag]) == 2
            err = capsys.readouterr().err
            assert f"{flag[0]} requires -j" in err
            assert len(err.splitlines()) == 1

    def test_retries_requires_jobs(self, capsys):
        assert main(["run", "table2", "--quick", "--retries", "1"]) == 2
        err = capsys.readouterr().err
        assert "--retries requires -j" in err
        assert len(err.splitlines()) == 1

    def test_retries_default_applies_under_jobs(self, capsys, monkeypatch):
        from repro.experiments import runner

        seen = []

        class RecordingRunner(runner.JobRunner):
            def __init__(self, *args, **kwargs):
                seen.append(kwargs["retries"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(runner, "JobRunner", RecordingRunner)
        for extra in ([], ["--retries", "0"]):
            assert main(["run", "table2", "--quick", "-j", "1",
                         "--no-cache", *extra]) == 0
        capsys.readouterr()
        assert seen == [runner.DEFAULT_RETRIES, 0]
        assert runner.DEFAULT_RETRIES == 2

    def test_run_all_reports_failures_at_end(self, capsys, monkeypatch):
        """One broken driver no longer aborts the whole batch."""
        from repro.experiments import registry, runner

        calls = []

        def broken(quick=False, runner=None):
            calls.append("broken")
            raise RuntimeError("induced driver failure")

        def healthy(quick=False, runner=None):
            calls.append("healthy")
            return registry.ExperimentReport(
                experiment_id="zz_ok", title="ok", paper="-")

        fake = {"aa_broken": broken, "zz_ok": healthy}
        monkeypatch.setattr(registry, "REGISTRY", fake)
        monkeypatch.setattr(runner, "REGISTRY", fake)
        assert main(["run", "all", "--quick"]) == 1
        captured = capsys.readouterr()
        # The failing driver ran first yet the healthy one still ran.
        assert calls == ["broken", "healthy"]
        assert "zz_ok" in captured.out
        assert "1 of 2" in captured.err and "aa_broken" in captured.err
        assert "induced driver failure" in captured.err


class TestRunnerJobsMode:
    """The -j path: pooled execution, caching, and diffable JSON."""

    def test_quick_json_omits_elapsed(self, tmp_path, capsys):
        path = tmp_path / "quick.json"
        assert main(["run", "table2", "--quick", "--json", str(path)]) == 0
        capsys.readouterr()
        entry = json.loads(path.read_text())["table2"]
        assert "elapsed_seconds" not in entry
        assert entry["quick"] is True

    def test_full_json_keeps_elapsed(self, tmp_path, capsys):
        path = tmp_path / "full.json"
        # table2 is latency microbenchmarks — fast even at full scale.
        assert main(["run", "table2", "--json", str(path)]) == 0
        capsys.readouterr()
        entry = json.loads(path.read_text())["table2"]
        assert entry["elapsed_seconds"] >= 0
        assert entry["quick"] is False

    def test_quick_sampling_json_is_reproducible(self, tmp_path, capsys):
        """Host-timed speedups stay out of ``--quick`` JSON, so repeated
        (or pooled and serial) runs of ``sampling`` compare equal."""
        docs = []
        for name in ("first.json", "second.json"):
            path = tmp_path / name
            assert main(["run", "sampling", "--quick", "--json",
                         str(path)]) == 0
            docs.append(json.loads(path.read_text()))
        capsys.readouterr()
        first, second = (doc["sampling"] for doc in docs)
        assert first == second
        assert set(first["host_timed"]) == {"stream_speedup", "fft_speedup"}
        assert not set(first["host_timed"]) & set(first["measurements"])

    def test_jobs_mode_matches_serial_and_caches(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS_CACHE_DIR",
                           str(tmp_path / "cache"))
        serial = tmp_path / "serial.json"
        cold = tmp_path / "cold.json"
        warm = tmp_path / "warm.json"
        assert main(["run", "table2", "--quick", "--json",
                     str(serial)]) == 0
        assert main(["run", "table2", "--quick", "-j", "2", "--json",
                     str(cold)]) == 0
        assert main(["run", "table2", "--quick", "-j", "2", "--json",
                     str(warm)]) == 0
        capsys.readouterr()
        serial_doc = json.loads(serial.read_text())
        cold_doc = json.loads(cold.read_text())
        warm_doc = json.loads(warm.read_text())
        assert serial_doc["table2"] == cold_doc["table2"] \
            == warm_doc["table2"]
        assert cold_doc["_jobs"]["cache_hits"] == 0
        assert warm_doc["_jobs"]["cache_hits"] \
            == warm_doc["_jobs"]["submitted"]

    @pytest.mark.parametrize("experiment_id,n_points", [
        ("fig4", 16),  # 4 kernels x (2 single + 2 multi sizes)
        ("fig5", 16),  # 4 modes x 2 kernels x 2 sizes
        ("fig6", 6),   # 2 kernels x 3 thread counts
        ("fig7", 8),   # 2 inputs x 2 thread counts x 2 barriers
        ("mix", 7),    # one point per workload case
    ])
    def test_pooled_points_match_serial(
            self, tmp_path, capsys, monkeypatch, experiment_id, n_points):
        """Every point goes through the pool; the report is unchanged."""
        monkeypatch.setenv("REPRO_JOBS_CACHE_DIR", str(tmp_path / "cache"))
        serial = tmp_path / "serial.json"
        pooled = tmp_path / "pooled.json"
        assert main(["run", experiment_id, "--quick", "--json",
                     str(serial)]) == 0
        assert main(["run", experiment_id, "--quick", "-j", "2", "--json",
                     str(pooled)]) == 0
        capsys.readouterr()
        serial_doc = json.loads(serial.read_text())
        pooled_doc = json.loads(pooled.read_text())
        assert pooled_doc[experiment_id] == serial_doc[experiment_id]
        assert pooled_doc["_jobs"]["submitted"] == n_points
        assert pooled_doc["_jobs"]["completed"] == n_points

    @pytest.mark.parametrize("jobs", [[], ["-j", "2", "--no-cache"]],
                             ids=["inline", "pooled"])
    def test_point_traceback_reaches_the_detail_block(
            self, capsys, monkeypatch, jobs):
        from repro.experiments import registry, runner

        def sweep(quick=False, runner=None):
            runner.map([
                JobSpec(task="repro.jobs.testing:square", payload={"n": 3}),
                JobSpec(task="repro.jobs.testing:fail",
                        payload={"message": "point exploded"}),
            ])

        fake = {"sweep": sweep}
        monkeypatch.setattr(registry, "REGISTRY", fake)
        monkeypatch.setattr(runner, "REGISTRY", fake)
        assert main(["run", "all", "--quick", *jobs]) == 1
        err = capsys.readouterr().err
        # The summary line is the point's own exception ...
        assert "  sweep: repro.errors.JobError: point exploded" in err
        # ... and the detail block reaches the frame that raised it.
        block = err[err.index("--- sweep ---"):]
        assert "1/2 jobs failed; first: fail(message=point exploded)" \
            in block
        assert 'testing.py", line' in block and ", in fail" in block


class TestRunnerInterrupt:
    """``run -j N`` under SIGINT: drain first, kill on the second."""

    def _interrupt(self, monkeypatch, signals: int, seconds: float):
        from repro.experiments import registry, runner

        swept = []

        def sleep_points(runner, count):
            runner.map([JobSpec(task="repro.jobs.testing:sleep",
                                payload={"seconds": seconds, "i": i})
                        for i in range(count)])
            return registry.ExperimentReport(
                experiment_id="sleeper", title="s", paper="-")

        def sleeper(quick=False, runner=None):
            return sleep_points(runner, 1)

        def sweep(quick=False, runner=None):
            swept.append(True)
            return sleep_points(runner, 3)

        fake = {name: sleeper for name in ("a1", "a2", "a3", "a4")}
        fake["z_sweep"] = sweep
        monkeypatch.setattr(registry, "REGISTRY", fake)
        monkeypatch.setattr(runner, "REGISTRY", fake)

        def interrupt_on_first_start(event):
            if event.kind == "start" and event.index == 0:
                for _ in range(signals):
                    signal.raise_signal(signal.SIGINT)

        monkeypatch.setattr(runner, "_progress", interrupt_on_first_start)
        before = signal.getsignal(signal.SIGINT)
        started = time.monotonic()
        code = main(["run", "all", "--quick", "-j", "2", "--no-cache"])
        elapsed = time.monotonic() - started
        assert signal.getsignal(signal.SIGINT) is before
        assert not swept, "a sweep started after the stop"
        return code, elapsed

    def test_first_signal_drains_and_cancels_the_rest(
            self, capsys, monkeypatch):
        code, _ = self._interrupt(monkeypatch, signals=1, seconds=0.3)
        captured = capsys.readouterr()
        assert code == 1
        # a1 was in flight and finished; nothing else was dispatched.
        assert "sleeper" in captured.out
        assert "4 of 5 experiments FAILED" in captured.err
        for name in ("a2", "a3", "a4", "z_sweep"):
            assert f"  {name}: cancelled" in captured.err
            # The summary line says it all: no detail block repeats it.
            assert f"--- {name} ---" not in captured.err
        assert captured.err.count("cancelled") == 4
        assert "Traceback" not in captured.err
        assert multiprocessing.active_children() == []

    def test_second_signal_kills_the_in_flight_job(
            self, capsys, monkeypatch):
        code, elapsed = self._interrupt(monkeypatch, signals=2, seconds=60)
        captured = capsys.readouterr()
        assert code == 1 and elapsed < 30
        assert "5 of 5 experiments FAILED" in captured.err
        assert "Traceback" not in captured.err
        assert multiprocessing.active_children() == []

    def test_raising_experiment_keeps_its_traceback_block(
            self, capsys, monkeypatch):
        from repro.experiments import registry, runner

        def ok(quick=False, runner=None):
            return registry.ExperimentReport(
                experiment_id="ok", title="o", paper="-")

        def boom(quick=False, runner=None):
            raise RuntimeError("driver exploded")

        fake = {"a_ok": ok, "b_boom": boom}
        monkeypatch.setattr(registry, "REGISTRY", fake)
        monkeypatch.setattr(runner, "REGISTRY", fake)
        assert main(["run", "all", "--quick"]) == 1
        err = capsys.readouterr().err
        assert "1 of 2 experiments FAILED" in err
        assert "  b_boom: RuntimeError: driver exploded" in err
        block = err[err.index("--- b_boom ---"):]
        assert "Traceback" in block and "driver exploded" in block
        assert "--- a_ok ---" not in err
