"""Tests for repro.jobs: specs, cache, pool, fault tolerance, CLI."""

import json
import os
import time

import pytest

from repro.errors import JobError
from repro.jobs import (
    JobRunner,
    JobSpec,
    ResultCache,
    execute_spec,
    install_signal_handlers,
    jsonify,
    stats_document,
)
from repro.jobs.pool import CANCELLED
from repro.jobs.__main__ import main as jobs_main

SQUARE = "repro.jobs.testing:square"
ECHO = "repro.jobs.testing:echo"


@pytest.fixture(autouse=True)
def pinned_code_version(monkeypatch):
    """Pin the fingerprint so tests never hash the whole source tree."""
    monkeypatch.setenv("REPRO_JOBS_CODE_VERSION", "test-version")


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


# ---------------------------------------------------------------------------
# Specs and hashing
# ---------------------------------------------------------------------------
class TestJobSpec:
    def test_roundtrip(self):
        spec = JobSpec(task=ECHO, payload={"a": 1, "b": [1, 2]}, seed=7)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_fingerprint_is_stable(self):
        a = JobSpec(task=SQUARE, payload={"n": 3})
        b = JobSpec(task=SQUARE, payload={"n": 3})
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_tracks_payload_and_seed(self):
        base = JobSpec(task=SQUARE, payload={"n": 3})
        assert base.fingerprint() != \
            JobSpec(task=SQUARE, payload={"n": 4}).fingerprint()
        assert base.fingerprint() != \
            JobSpec(task=SQUARE, payload={"n": 3}, seed=1).fingerprint()

    def test_fingerprint_tracks_code_version(self, monkeypatch):
        spec = JobSpec(task=SQUARE, payload={"n": 3})
        before = spec.fingerprint()
        monkeypatch.setenv("REPRO_JOBS_CODE_VERSION", "other-version")
        assert spec.fingerprint() != before

    def test_fingerprint_tracks_config(self):
        from repro.config import ChipConfig
        from repro.configio import config_to_dict

        plain = JobSpec(task=ECHO)
        small = JobSpec(task=ECHO,
                        config=config_to_dict(ChipConfig.small()))
        assert plain.fingerprint() != small.fingerprint()
        assert small.chip_config().n_threads == 16

    def test_execute_resolves_by_name(self):
        value, elapsed = execute_spec(JobSpec(task=SQUARE,
                                              payload={"n": 9}))
        assert value == 81
        assert elapsed >= 0

    def test_bad_task_references(self):
        with pytest.raises(JobError):
            execute_spec(JobSpec(task="no-colon"))
        with pytest.raises(JobError):
            execute_spec(JobSpec(task="repro.jobs.testing:missing"))
        with pytest.raises(JobError):
            execute_spec(JobSpec(task="no.such.module:fn"))

    def test_jsonify_rejects_live_objects(self):
        assert jsonify({"t": (1, 2)}) == {"t": [1, 2]}
        with pytest.raises(JobError):
            jsonify({"bad": object()})

    def test_jsonify_collapses_numpy_scalars(self):
        np = pytest.importorskip("numpy")
        out = jsonify({"f": np.float64(1.5), "i": np.int64(3),
                       "b": np.bool_(True)})
        assert out == {"f": 1.5, "i": 3, "b": True}
        assert type(out["f"]) is float and type(out["i"]) is int


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------
class TestResultCache:
    def test_miss_then_hit(self, cache):
        spec = JobSpec(task=SQUARE, payload={"n": 5})
        assert cache.get(spec) is None
        cache.put(spec, 25, elapsed=0.5)
        entry = cache.get(spec)
        assert entry["result"] == 25
        assert entry["meta"]["elapsed_seconds"] == 0.5

    def test_spec_change_invalidates(self, cache):
        cache.put(JobSpec(task=SQUARE, payload={"n": 5}), 25, 0.0)
        assert cache.get(JobSpec(task=SQUARE, payload={"n": 6})) is None

    def test_code_version_change_invalidates(self, cache, monkeypatch):
        spec = JobSpec(task=SQUARE, payload={"n": 5})
        cache.put(spec, 25, 0.0)
        monkeypatch.setenv("REPRO_JOBS_CODE_VERSION", "new-version")
        assert cache.get(spec) is None

    def test_corrupt_entry_is_a_miss(self, cache):
        spec = JobSpec(task=SQUARE, payload={"n": 5})
        key = cache.put(spec, 25, 0.0)
        (cache.root / f"{key}.json").write_text("{not json")
        assert cache.get(spec) is None

    def test_entries_and_clear(self, cache):
        for n in range(3):
            cache.put(JobSpec(task=SQUARE, payload={"n": n}), n * n, 0.0)
        assert len(cache.entries()) == 3
        assert cache.stats()["entries"] == 3
        assert cache.clear() == 3
        assert cache.entries() == []


# ---------------------------------------------------------------------------
# Runner: inline path
# ---------------------------------------------------------------------------
class TestInlineRunner:
    def test_single_worker_runs_inline(self, monkeypatch):
        """-j 1 must not fork: executing in-process is the fallback."""
        import repro.jobs.pool as pool

        def forbid(*args, **kwargs):  # pragma: no cover - guard only
            raise AssertionError("inline runner spawned a process")

        monkeypatch.setattr(pool.JobRunner, "_spawn_worker", forbid)
        runner = JobRunner(n_workers=1)
        results = runner.run(
            [JobSpec(task=SQUARE, payload={"n": n}) for n in range(4)])
        assert [r.value for r in results] == [0, 1, 4, 9]

    def test_inline_task_error_is_captured(self):
        runner = JobRunner()
        result = runner.run(
            [JobSpec(task="repro.jobs.testing:fail",
                     payload={"message": "boom"})])[0]
        assert not result.ok
        assert "boom" in result.error
        assert runner.stats["failed"] == 1

    def test_map_raises_on_failure(self):
        with pytest.raises(JobError, match="boom"):
            JobRunner().map(
                [JobSpec(task="repro.jobs.testing:fail",
                         payload={"message": "boom"})])


# ---------------------------------------------------------------------------
# Runner: pooled path
# ---------------------------------------------------------------------------
class TestPooledRunner:
    def test_results_preserve_submit_order(self):
        specs = [JobSpec(task=SQUARE, payload={"n": n}) for n in range(16)]
        results = JobRunner(n_workers=4).run(specs)
        assert [r.value for r in results] == [n * n for n in range(16)]

    def test_pooled_identical_to_inline(self):
        """Byte-for-byte determinism: the pool may not change results."""
        specs = [JobSpec(task=ECHO, payload={"n": n, "tag": f"t{n}"},
                         seed=n) for n in range(10)]
        inline = JobRunner(n_workers=1).run(specs)
        pooled = JobRunner(n_workers=4).run(specs)
        assert json.dumps([r.value for r in inline], sort_keys=True) \
            == json.dumps([r.value for r in pooled], sort_keys=True)

    def test_worker_crash_is_retried(self, tmp_path):
        marker = tmp_path / "crashed.marker"
        runner = JobRunner(n_workers=2, retries=2, backoff=0.01)
        result = runner.run(
            [JobSpec(task="repro.jobs.testing:crash_once",
                     payload={"marker": str(marker)})])[0]
        assert result.ok
        assert result.value == {"recovered": True}
        assert result.attempts == 2
        assert runner.stats["respawns"] >= 1
        assert marker.exists()

    def test_crash_injection_env(self, monkeypatch):
        import repro.jobs.pool as pool

        monkeypatch.setenv(pool.CRASH_ENV, "0")
        runner = JobRunner(n_workers=2, retries=2, backoff=0.01)
        results = runner.run(
            [JobSpec(task=SQUARE, payload={"n": n}) for n in range(3)])
        assert [r.value for r in results] == [0, 1, 4]
        assert runner.stats["respawns"] >= 1

    def test_exhausted_retries_fail_with_crash_reason(self, tmp_path):
        # retries=0: the single crashing attempt must surface as the
        # job's error rather than hang or kill the batch.
        runner = JobRunner(n_workers=2, retries=0)
        result = runner.run(
            [JobSpec(task="repro.jobs.testing:crash_once",
                     payload={"marker": str(tmp_path / "m.marker")})])[0]
        assert not result.ok
        assert "worker crashed" in result.error
        assert runner.stats["failed"] == 1

    def test_per_job_timeout(self):
        runner = JobRunner(n_workers=2, timeout=0.4, retries=0)
        started = time.monotonic()
        result = runner.run(
            [JobSpec(task="repro.jobs.testing:sleep",
                     payload={"seconds": 60})])[0]
        assert time.monotonic() - started < 20
        assert not result.ok
        assert "timed out after 0.4s" in result.error
        assert runner.stats["timeouts"] == 1

    def test_task_error_retries_then_fails(self):
        runner = JobRunner(n_workers=2, retries=1, backoff=0.01)
        result = runner.run(
            [JobSpec(task="repro.jobs.testing:fail",
                     payload={"message": "always"})])[0]
        assert not result.ok
        assert result.attempts == 2
        assert runner.stats["retries"] == 1


# ---------------------------------------------------------------------------
# Runner: caching
# ---------------------------------------------------------------------------
class TestCachedRunner:
    def test_cold_then_warm(self, cache):
        specs = [JobSpec(task=SQUARE, payload={"n": n}) for n in range(5)]
        cold = JobRunner(n_workers=2, cache=cache)
        assert [r.cached for r in cold.run(specs)] == [False] * 5
        warm = JobRunner(n_workers=2, cache=cache)
        results = warm.run(specs)
        assert [r.cached for r in results] == [True] * 5
        assert [r.value for r in results] == [n * n for n in range(5)]
        assert warm.stats["cache_hits"] == 5
        assert warm.stats["completed"] == 0  # nothing simulated

    def test_spec_change_misses(self, cache):
        runner = JobRunner(cache=cache)
        runner.run([JobSpec(task=SQUARE, payload={"n": 2})])
        results = runner.run([JobSpec(task=SQUARE, payload={"n": 3})])
        assert results[0].cached is False
        assert results[0].value == 9

    def test_failures_are_not_cached(self, cache):
        runner = JobRunner(cache=cache)
        spec = JobSpec(task="repro.jobs.testing:fail",
                       payload={"message": "no"})
        assert not runner.run([spec])[0].ok
        assert cache.get(spec) is None

    def test_events_observed(self, cache):
        events = []
        runner = JobRunner(cache=cache, on_event=events.append)
        spec = JobSpec(task=SQUARE, payload={"n": 4})
        runner.run([spec])
        runner.run([spec])
        kinds = [e.kind for e in events]
        assert kinds == ["submitted", "start", "done", "submitted", "hit"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestJobsCli:
    def test_submit_inline(self, tmp_path, capsys):
        code = jobs_main([
            "submit", SQUARE, "--payload", '{"n": 12}',
            "--cache-dir", str(tmp_path),
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"] == 144
        assert doc["ok"] is True and doc["cached"] is False

        code = jobs_main([
            "submit", SQUARE, "--payload", '{"n": 12}',
            "--cache-dir", str(tmp_path),
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["cached"] is True

    def test_submit_bad_payload(self, capsys):
        assert jobs_main(["submit", SQUARE, "--payload", "nope"]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_submit_failure_exit_code(self, tmp_path, capsys):
        code = jobs_main([
            "submit", "repro.jobs.testing:fail",
            "--payload", '{"message": "cli boom"}',
            "--no-cache",
        ])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False and "cli boom" in doc["error"]

    def test_status_and_cache_commands(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "c")
        jobs_main(["submit", SQUARE, "--payload", '{"n": 2}',
                   "--cache-dir", cache_dir])
        capsys.readouterr()
        assert jobs_main(["status", "--cache-dir", cache_dir]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["cache"]["entries"] == 1
        assert status["last_run"]["submitted"] == 1

        assert jobs_main(["cache", "ls", "--cache-dir", cache_dir]) == 0
        assert "square" in capsys.readouterr().out
        assert jobs_main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert jobs_main(["cache", "ls", "--cache-dir", cache_dir]) == 0
        assert "empty" in capsys.readouterr().out

    def test_cache_json_stats(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "c")
        jobs_main(["submit", SQUARE, "--payload", '{"n": 3}',
                   "--cache-dir", cache_dir])
        jobs_main(["submit", SQUARE, "--payload", '{"n": 3}',
                   "--cache-dir", cache_dir])
        capsys.readouterr()
        assert jobs_main(["cache", "--json", "--cache-dir", cache_dir]) == 0
        document = json.loads(capsys.readouterr().out)
        assert set(document) >= {"directory", "entries", "bytes",
                                 "hits", "misses"}
        assert document["entries"] == 1
        assert document["bytes"] > 0
        # last_run.state reflects the warm second submission.
        assert document["hits"] == 1
        assert document["misses"] == 0

    def test_stats_document_matches_cli(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        runner = JobRunner(n_workers=1, cache=cache)
        spec = JobSpec(task=SQUARE, payload={"n": 4})
        runner.run([spec])
        runner.run([spec])
        document = stats_document(cache)
        assert document["entries"] == 1
        assert document["hits"] == 1


# ---------------------------------------------------------------------------
# Graceful shutdown
# ---------------------------------------------------------------------------
class TestGracefulShutdown:
    def test_inline_stop_cancels_remaining_jobs(self):
        runner = JobRunner(n_workers=1)
        specs = [JobSpec(task=SQUARE, payload={"n": n}) for n in range(6)]

        def stop_after_two(event):
            if event.kind == "done" and event.index == 1:
                runner.request_stop()

        runner.on_event = stop_after_two
        results = runner.run(specs)
        assert [r.ok for r in results[:2]] == [True, True]
        assert all(not r.ok and r.error == CANCELLED for r in results[2:])
        assert runner.stats["cancelled"] == 4
        assert runner.stopping

    def test_pooled_stop_drains_without_orphans(self):
        import multiprocessing

        runner = JobRunner(n_workers=2)
        specs = [JobSpec(task="repro.jobs.testing:sleep",
                         payload={"seconds": 0.05, "which": n})
                 for n in range(8)]

        def stop_on_first_done(event):
            if event.kind == "done":
                runner.request_stop()

        runner.on_event = stop_on_first_done
        results = runner.run(specs)
        done = [r for r in results if r.ok]
        cancelled = [r for r in results if not r.ok]
        assert done, "at least the triggering job completed"
        assert cancelled, "undispatched jobs were cancelled"
        assert all(r.error == CANCELLED for r in cancelled)
        assert runner.stats["cancelled"] == len(cancelled)
        assert multiprocessing.active_children() == []

    def test_stopped_runner_cancels_everything_up_front(self):
        runner = JobRunner(n_workers=2)
        runner.request_stop()
        results = runner.run([JobSpec(task=SQUARE, payload={"n": 3})])
        assert not results[0].ok and results[0].error == CANCELLED

    def test_force_stop_kills_in_flight_jobs(self):
        import multiprocessing
        import threading

        runner = JobRunner(n_workers=2)
        specs = [JobSpec(task="repro.jobs.testing:sleep",
                         payload={"seconds": 60, "which": n})
                 for n in range(2)]

        def stop_on_start(event):
            if event.kind == "start" and event.index == 0:
                threading.Thread(
                    target=lambda: runner.request_stop(force=True)).start()

        runner.on_event = stop_on_start
        started = time.time()
        results = runner.run(specs)
        assert time.time() - started < 30, "force stop did not kill sleeps"
        assert all(not r.ok for r in results)
        assert multiprocessing.active_children() == []

    def test_signal_handlers_request_stop_then_escalate(self):
        import signal

        runner = JobRunner(n_workers=1)
        restore = install_signal_handlers(runner, signals=(signal.SIGTERM,))
        try:
            assert not runner.stopping
            signal.raise_signal(signal.SIGTERM)
            assert runner.stopping and not runner._stop_force
            signal.raise_signal(signal.SIGTERM)
            assert runner._stop_force
        finally:
            restore()
        assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL


# ---------------------------------------------------------------------------
# Integration with a real simulation point
# ---------------------------------------------------------------------------
class TestSimulationIntegration:
    def test_fig3_point_pooled_equals_direct(self, cache):
        """A real simulation through the pool is byte-identical and
        cache-served on the second run."""
        from repro.experiments.fig3_splash_speedups import (
            POINT_TASK,
            simulate_point,
        )

        spec = JobSpec(task=POINT_TASK, payload={
            "kernel": "LU", "n_threads": 2, "quick": True,
        })
        direct = simulate_point("LU", 2, True)
        runner = JobRunner(n_workers=2, cache=cache)
        first = runner.run([spec])[0]
        assert first.ok and not first.cached
        assert first.value == {"cycles": int(direct)}
        second = runner.run([spec])[0]
        assert second.cached and second.value == first.value
