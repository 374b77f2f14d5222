"""Parallel simulation-job orchestration with result caching.

The paper's evaluation — STREAM variants, Splash-2 at 1..128 threads,
barrier and interest-group sweeps — is a fleet of *independent*
simulations, which makes the host-side orchestration layer the missing
subsystem: this package runs those fleets in parallel, caches every
result by content, and survives crashing or hanging workers.

* :mod:`repro.jobs.spec` — :class:`JobSpec`, the pickle-free unit of
  work (task reference + JSON payload + chip config + seed) with a
  content fingerprint that includes the code version;
* :mod:`repro.jobs.cache` — :class:`ResultCache`, fingerprint-addressed
  JSON files with atomic writes;
* :mod:`repro.jobs.pool` — :class:`JobRunner`, the front door: cache
  lookups, a ``multiprocessing`` worker pool with per-job timeout and
  bounded backoff retry, and graceful degradation to inline execution;
* ``python -m repro.jobs`` — ``submit`` / ``status`` / ``cache`` CLI.

The consumer: every experiment driver maps its simulation points
through one :class:`JobRunner`, inline by default;
``python -m repro.experiments run all --quick -j 4`` spreads the points
of every experiment across four workers; a warm rerun is served from
the cache. See ``docs/orchestration.md``.
"""

from repro.errors import JobError
from repro.jobs.cache import ResultCache, stats_document
from repro.jobs.pool import (
    JobEvent,
    JobResult,
    JobRunner,
    install_signal_handlers,
)
from repro.jobs.spec import JobSpec, code_version, execute_spec, jsonify

__all__ = [
    "JobError",
    "JobEvent",
    "JobResult",
    "JobRunner",
    "JobSpec",
    "ResultCache",
    "code_version",
    "execute_spec",
    "install_signal_handlers",
    "jsonify",
    "stats_document",
]
