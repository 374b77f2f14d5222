"""Fault-tolerant execution of job specs: worker pool + inline fallback.

:class:`JobRunner` is the one front door. It takes a batch of
:class:`~repro.jobs.spec.JobSpec`, serves what it can from the
:class:`~repro.jobs.cache.ResultCache`, and executes the rest either
inline (``n_workers <= 1``, or after the pool degrades) or on a pool of
``multiprocessing`` workers. Results always come back in submit order,
so a pooled sweep is byte-identical to a serial one.

Failure semantics, in one place:

* a task that **raises** consumes one attempt; deterministic failures
  therefore fail fast inline (one attempt, no isolation to pay for) and
  retry with exponential backoff under the pool;
* a worker that **dies** (segfault, ``os._exit``, OOM-kill) is detected
  by liveness polling; the job it held is retried on a fresh worker;
* a job that exceeds its **timeout** gets its worker killed (the only
  way to interrupt a stuck simulation) and is retried or failed;
* when respawns exceed a small budget the pool assumes the host is
  hostile, shuts down, and finishes the remaining jobs inline — the
  batch still completes, just without parallelism.

Setting ``REPRO_JOBS_INJECT_CRASH=<index>`` makes the worker holding job
*index* die before its first attempt — the hook the CI smoke job and the
fault-injection tests use to prove recovery end to end.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import signal as signal_module
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import JobError
from repro.jobs.cache import ResultCache
from repro.jobs.spec import JobSpec, execute_spec

#: Kill the worker before attempt 0 of this job index (fault injection).
CRASH_ENV = "REPRO_JOBS_INJECT_CRASH"

#: How often the manager polls for results / deadlines / dead workers.
_POLL_SECONDS = 0.02

#: Error string of a job cancelled by a graceful shutdown.
CANCELLED = "cancelled: runner stopping (graceful shutdown)"


@dataclass
class JobResult:
    """Outcome of one spec: a value or an error, plus provenance."""

    spec: JobSpec
    value: Any = None
    error: str | None = None
    #: Served from the result cache (no simulation ran).
    cached: bool = False
    #: Execution attempts consumed (0 for a cache hit).
    attempts: int = 0
    #: Task wall-clock of the successful attempt (stored one on a hit).
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class JobEvent:
    """One progress notification handed to ``on_event`` observers.

    ``kind`` is one of ``submitted``, ``hit``, ``start``, ``done``,
    ``error``, ``retry``, ``respawn``, ``timeout``, ``degrade``.
    """

    kind: str
    index: int
    spec: JobSpec | None = None
    attempt: int = 0
    detail: str = ""


def failure_text(results: list[JobResult]) -> str | None:
    """The error text of a batch, or None when every job succeeded.

    It names the first failed job and carries its whole error text —
    for a raising task, the traceback down to the frame that raised,
    inline or pooled — so its last line is still the task's own
    exception.
    """
    failures = [r for r in results if not r.ok]
    if not failures:
        return None
    first = failures[0]
    return (f"{len(failures)}/{len(results)} jobs failed; first: "
            f"{first.spec.describe()}:\n"
            f"{(first.error or 'unknown error').strip()}")


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------
def kill_process(process, grace: float = 1.0) -> None:
    """Terminate *process*, escalating to SIGKILL after *grace* seconds.

    The one sanctioned way to take down a simulation child anywhere in
    the tree — the worker pool here and the parallel-DES coordinator
    (:mod:`repro.pdes.coordinator`) both use it, so escalation policy
    lives in one place.
    """
    if process.ident is None:
        return  # never started (e.g. spawn itself failed) — nothing to kill
    if process.is_alive():
        process.terminate()
    process.join(grace)
    if process.is_alive():
        process.kill()
        process.join(grace)


def _worker_main(task_queue, result_queue) -> None:
    """Worker loop: pull ``(index, attempt, spec_dict)``, push results.

    Runs in a child process. Catches everything including
    ``KeyboardInterrupt`` so a failing task becomes a structured error
    message, not a dead worker; only genuine process death (tested via
    the crash-injection hook) exercises the respawn path.

    The manager alone answers SIGINT (a terminal's Ctrl-C reaches the
    whole process group), and SIGTERM must kill: a forked worker would
    otherwise inherit the manager's drain handler for both.
    """
    signal_module.signal(signal_module.SIGINT, signal_module.SIG_IGN)
    signal_module.signal(signal_module.SIGTERM, signal_module.SIG_DFL)
    while True:
        message = task_queue.get()
        if message is None:
            return
        index, attempt, spec_dict = message
        if attempt == 0 and os.environ.get(CRASH_ENV) == str(index):
            os._exit(3)
        try:
            value, elapsed = execute_spec(JobSpec.from_dict(spec_dict))
        except BaseException:
            result_queue.put(
                (index, attempt, False, traceback.format_exc(limit=20), 0.0)
            )
        else:
            result_queue.put((index, attempt, True, value, elapsed))


@dataclass
class _Worker:
    """Manager-side handle on one worker process."""

    process: multiprocessing.Process
    task_queue: Any
    #: ``(index, attempt, deadline | None)`` of the in-flight job.
    busy: tuple[int, int, float | None] | None = None


@dataclass
class _JobState:
    """Manager-side bookkeeping for one submitted job."""

    index: int
    spec: JobSpec
    attempts: int = 0
    #: Earliest dispatch time (monotonic) after a backoff.
    not_before: float = 0.0
    finished: bool = False


def _new_stats() -> dict:
    return {
        "submitted": 0,
        "completed": 0,
        "failed": 0,
        "cache_hits": 0,
        "cache_misses": 0,
        "retries": 0,
        "respawns": 0,
        "timeouts": 0,
        "degraded": 0,
        "cancelled": 0,
    }


class JobRunner:
    """Run batches of job specs with caching, workers, and retries.

    The default construction — ``JobRunner()`` — is a pure inline,
    cache-free executor whose behaviour is indistinguishable from
    calling the tasks directly; an experiment run without a runner
    uses it, which is what keeps ``-j 1`` and library-level calls
    exactly as deterministic as before the subsystem existed.
    """

    def __init__(
        self,
        n_workers: int = 1,
        cache: ResultCache | None = None,
        timeout: float | None = None,
        retries: int = 2,
        backoff: float = 0.05,
        on_event: Callable[[JobEvent], None] | None = None,
    ) -> None:
        if n_workers < 1:
            raise JobError(f"n_workers must be >= 1, got {n_workers}")
        if retries < 0:
            raise JobError(f"retries must be >= 0, got {retries}")
        self.n_workers = n_workers
        self.cache = cache
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.on_event = on_event
        #: Lifetime counters, accumulated across every ``run`` call.
        self.stats = _new_stats()
        self._stop_event = threading.Event()
        self._stop_force = False

    # ------------------------------------------------------------------
    # Graceful shutdown
    # ------------------------------------------------------------------
    @property
    def stopping(self) -> bool:
        """True once :meth:`request_stop` has been called."""
        return self._stop_event.is_set()

    def request_stop(self, force: bool = False) -> None:
        """Ask a running batch to wind down (thread- and signal-safe).

        Graceful (default): nothing new is dispatched, jobs already on a
        worker run to completion, then the workers are joined and every
        undispatched job resolves with a :data:`CANCELLED` error. With
        ``force=True`` the in-flight jobs are killed too — the recourse
        when a drain deadline has passed. Once stopped, later ``run``
        calls cancel their whole batch immediately.
        """
        if force:
            self._stop_force = True
        self._stop_event.set()

    def _cancel(self, results, state: "_JobState") -> None:
        self.stats["cancelled"] += 1
        self._finish_error(results, state, CANCELLED)

    # ------------------------------------------------------------------
    def _emit(self, kind: str, index: int, spec: JobSpec | None = None,
              attempt: int = 0, detail: str = "") -> None:
        if self.on_event is None:
            return
        try:
            self.on_event(JobEvent(kind, index, spec, attempt, detail))
        except Exception:
            pass  # observers must never break the batch

    # ------------------------------------------------------------------
    def run(self, specs: list[JobSpec]) -> list[JobResult]:
        """Execute *specs*; the result list matches the submit order."""
        results: list[JobResult | None] = [None] * len(specs)
        misses: list[int] = []
        for index, spec in enumerate(specs):
            self.stats["submitted"] += 1
            self._emit("submitted", index, spec)
            if self.cache is not None:
                entry = self.cache.get(spec)
                if entry is not None:
                    meta = entry.get("meta", {})
                    results[index] = JobResult(
                        spec, value=entry.get("result"), cached=True,
                        elapsed=float(meta.get("elapsed_seconds", 0.0)),
                    )
                    self.stats["cache_hits"] += 1
                    self._emit("hit", index, spec)
                    continue
                self.stats["cache_misses"] += 1
            misses.append(index)

        if misses:
            if self.n_workers <= 1:
                self._run_inline(specs, misses, results)
            else:
                self._run_pool(specs, misses, results)
            for index in misses:
                result = results[index]
                if result is not None and result.ok and self.cache is not None:
                    self.cache.put(result.spec, result.value, result.elapsed)
        self._write_state()
        return results  # type: ignore[return-value]

    def map(self, specs: list[JobSpec]) -> list[Any]:
        """Like :meth:`run` but unwrap values; raise on any failure.

        The :class:`~repro.errors.JobError` carries the batch's
        :func:`failure_text`.
        """
        results = self.run(specs)
        error = failure_text(results)
        if error is not None:
            raise JobError(error)
        return [r.value for r in results]

    # ------------------------------------------------------------------
    # Inline execution
    # ------------------------------------------------------------------
    def _finish_ok(self, results, state: "_JobState", value, elapsed) -> None:
        state.finished = True
        results[state.index] = JobResult(
            state.spec, value=value, attempts=state.attempts,
            elapsed=elapsed,
        )
        self.stats["completed"] += 1
        self._emit("done", state.index, state.spec, state.attempts)

    def _finish_error(self, results, state: "_JobState", error: str) -> None:
        state.finished = True
        results[state.index] = JobResult(
            state.spec, error=error, attempts=state.attempts,
        )
        self.stats["failed"] += 1
        self._emit("error", state.index, state.spec, state.attempts, error)

    def _run_inline(self, specs, indices, results) -> None:
        """Sequential in-process execution (no isolation, no timeout)."""
        for index in indices:
            if self._stop_event.is_set():
                self._cancel(results, _JobState(index, specs[index]))
                continue
            state = _JobState(index, specs[index], attempts=1)
            self._emit("start", index, state.spec, 1)
            try:
                value, elapsed = execute_spec(state.spec)
            except Exception:
                self._finish_error(results, state,
                                   traceback.format_exc(limit=20))
            else:
                self._finish_ok(results, state, value, elapsed)

    # ------------------------------------------------------------------
    # Pooled execution
    # ------------------------------------------------------------------
    def _spawn_worker(self, ctx, result_queue) -> _Worker:
        task_queue = ctx.SimpleQueue()
        process = ctx.Process(
            target=_worker_main, args=(task_queue, result_queue),
            daemon=False,
        )
        process.start()
        return _Worker(process=process, task_queue=task_queue)

    def _run_pool(self, specs, indices, results) -> None:
        if self._stop_event.is_set():
            for index in indices:
                self._cancel(results, _JobState(index, specs[index]))
            return
        ctx = multiprocessing.get_context()
        n = min(self.n_workers, len(indices))
        result_queue = ctx.Queue()
        try:
            workers = [self._spawn_worker(ctx, result_queue)
                       for _ in range(n)]
        except OSError as error:
            # Cannot start processes at all (fd/PID exhaustion, sandbox):
            # degrade immediately rather than fail the batch.
            self.stats["degraded"] += 1
            self._emit("degrade", -1, detail=f"cannot spawn workers: {error}")
            self._run_inline(specs, indices, results)
            return
        jobs = {index: _JobState(index, specs[index]) for index in indices}
        ready: deque[int] = deque(indices)
        waiting: list[int] = []  # backing off; gated by not_before
        respawn_budget = max(4, 2 * n)
        try:
            self._pool_loop(ctx, result_queue, workers, jobs, ready,
                            waiting, results, respawn_budget)
        except OSError:
            pass  # a respawn failed — the inline sweep below finishes up
        finally:
            self._shutdown(workers)
        # Degraded exit: anything unfinished runs inline.
        remaining = [i for i in indices if not jobs[i].finished]
        if remaining:
            self.stats["degraded"] += 1
            self._emit("degrade", -1,
                       detail=f"{len(remaining)} jobs finishing inline")
            self._run_inline(specs, remaining, results)

    def _retry_or_fail(self, results, state: _JobState, waiting: list[int],
                       reason: str) -> None:
        """After a failed attempt: back off and requeue, or give up."""
        if state.attempts <= self.retries:
            delay = self.backoff * (2 ** (state.attempts - 1))
            state.not_before = time.monotonic() + delay
            waiting.append(state.index)
            self.stats["retries"] += 1
            self._emit("retry", state.index, state.spec, state.attempts,
                       reason)
        else:
            self._finish_error(results, state, reason)

    def _pool_loop(self, ctx, result_queue, workers, jobs, ready, waiting,
                   results, respawn_budget) -> None:
        respawns = 0
        while any(not state.finished for state in jobs.values()):
            if self._stop_event.is_set():
                if self._stop_force:
                    for worker in workers:
                        if worker.busy is not None:
                            kill_process(worker.process)
                            worker.busy = None
                if all(worker.busy is None for worker in workers):
                    # Drained (or force-killed): everything not yet
                    # delivered resolves as cancelled.
                    for state in jobs.values():
                        if not state.finished:
                            self._cancel(results, state)
                    return
            now = time.monotonic()
            # Promote jobs whose backoff has elapsed.
            still = []
            for index in waiting:
                if jobs[index].not_before <= now:
                    ready.append(index)
                else:
                    still.append(index)
            waiting[:] = still

            # Dispatch to idle live workers (never while draining).
            for worker in workers:
                if self._stop_event.is_set():
                    break
                if worker.busy is not None or not worker.process.is_alive():
                    continue
                index = None
                while ready:
                    candidate = ready.popleft()
                    # A stale late delivery may have finished the job
                    # while its retry sat in the queue — skip those.
                    if not jobs[candidate].finished:
                        index = candidate
                        break
                if index is None:
                    break
                state = jobs[index]
                state.attempts += 1
                deadline = now + self.timeout if self.timeout else None
                worker.busy = (index, state.attempts - 1, deadline)
                worker.task_queue.put(
                    (index, state.attempts - 1, state.spec.to_dict())
                )
                self._emit("start", index, state.spec, state.attempts)

            # Drain one result (bounded wait doubles as the poll tick).
            try:
                message = result_queue.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                message = None
            if message is not None:
                index, attempt, ok, payload, elapsed = message
                for worker in workers:
                    if worker.busy and worker.busy[0] == index:
                        worker.busy = None
                        break
                state = jobs.get(index)
                # Stale deliveries (job already resolved another way)
                # are dropped on the floor.
                if state is not None and not state.finished \
                        and attempt == state.attempts - 1:
                    if ok:
                        self._finish_ok(results, state, payload, elapsed)
                    else:
                        self._retry_or_fail(
                            results, state, waiting,
                            f"task raised (attempt {state.attempts}):\n"
                            f"{payload}",
                        )

            # Liveness and deadlines.
            now = time.monotonic()
            for position, worker in enumerate(workers):
                alive = worker.process.is_alive()
                if worker.busy is not None:
                    index, _, deadline = worker.busy
                    state = jobs[index]
                    if not alive:
                        exitcode = worker.process.exitcode
                        worker.busy = None
                        respawns += 1
                        self.stats["respawns"] += 1
                        self._emit("respawn", index, state.spec,
                                   state.attempts,
                                   f"worker died (exit {exitcode})")
                        if not state.finished:
                            self._retry_or_fail(
                                results, state, waiting,
                                f"worker crashed with exit code {exitcode} "
                                f"(attempt {state.attempts})",
                            )
                        workers[position] = self._spawn_worker(
                            ctx, result_queue)
                    elif deadline is not None and now > deadline:
                        # Killing the process is the only way to stop a
                        # stuck simulation; the job pays one attempt.
                        kill_process(worker.process)
                        worker.busy = None
                        respawns += 1
                        self.stats["respawns"] += 1
                        self.stats["timeouts"] += 1
                        self._emit("timeout", index, state.spec,
                                   state.attempts,
                                   f"exceeded {self.timeout}s")
                        if not state.finished:
                            self._retry_or_fail(
                                results, state, waiting,
                                f"timed out after {self.timeout}s "
                                f"(attempt {state.attempts})",
                            )
                        workers[position] = self._spawn_worker(
                            ctx, result_queue)
                elif not alive and not self._stop_event.is_set():
                    # An idle worker died: replace it quietly.
                    respawns += 1
                    self.stats["respawns"] += 1
                    workers[position] = self._spawn_worker(ctx, result_queue)
            if respawns > respawn_budget:
                # The host keeps killing workers — stop burning processes;
                # _run_pool finishes the leftovers inline.
                return

    def _shutdown(self, workers) -> None:
        for worker in workers:
            if worker.process.is_alive():
                try:
                    worker.task_queue.put(None)
                except (OSError, ValueError):
                    pass
        deadline = time.monotonic() + 2.0
        for worker in workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(0.5)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(0.5)

    # ------------------------------------------------------------------
    def _write_state(self) -> None:
        """Persist lifetime stats next to the cache (``status`` reads it)."""
        if self.cache is None:
            return
        import json

        try:
            self.cache.root.mkdir(parents=True, exist_ok=True)
            path = self.cache.root / "last_run.state"
            path.write_text(json.dumps(self.stats, indent=2, sort_keys=True))
        except OSError:
            pass


def install_signal_handlers(
    runner: JobRunner,
    signals: tuple[int, ...] = (signal_module.SIGINT, signal_module.SIGTERM),
) -> Callable[[], None]:
    """Wire SIGINT/SIGTERM to a graceful drain of *runner*.

    The first signal calls :meth:`JobRunner.request_stop` — in-flight
    jobs finish, workers are joined, nothing is orphaned. A second
    signal escalates to ``force=True``, killing the in-flight jobs too.
    Returns a zero-argument function that restores the previous
    handlers. Only callable from the main thread (a CPython
    ``signal.signal`` constraint).
    """
    previous: dict[int, object] = {}
    hits = {"count": 0}

    def _handler(signum, frame):
        hits["count"] += 1
        runner.request_stop(force=hits["count"] > 1)

    for signum in signals:
        previous[signum] = signal_module.signal(signum, _handler)

    def restore() -> None:
        for signum, handler in previous.items():
            signal_module.signal(signum, handler)

    return restore
