"""Content-addressed on-disk cache of simulation results.

Every entry is one JSON file named by the job's fingerprint
(:meth:`repro.jobs.spec.JobSpec.fingerprint` — spec content plus the
code-version fingerprint), holding the spec, the result value, and a
little metadata. Because the address already encodes everything that
determines the result, reads need no validation beyond "does the file
parse" — a stale or truncated entry is simply treated as a miss.

Writes go through a temporary file and :func:`os.replace`, so a reader
never observes a half-written entry even with several pool managers
sharing one cache directory.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import time
from typing import Any

from repro.jobs.spec import JobSpec, code_version

#: Environment override for the default cache location.
CACHE_DIR_ENV = "REPRO_JOBS_CACHE_DIR"

#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache/jobs"


class ResultCache:
    """Fingerprint-addressed store of completed job results."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = pathlib.Path(root)

    @classmethod
    def default(cls) -> "ResultCache":
        """The standard location: ``$REPRO_JOBS_CACHE_DIR`` or cwd-local."""
        return cls(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)

    # ------------------------------------------------------------------
    def _path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    def get(self, spec: JobSpec) -> dict | None:
        """The stored entry for *spec*, or ``None`` on a miss.

        Entries look like ``{"spec": ..., "result": ..., "meta": ...}``;
        corrupt files are ignored (and left for a later ``put`` to
        overwrite) rather than raised, so a killed writer cannot poison
        every future run.
        """
        path = self._path(spec.fingerprint())
        try:
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None

    def put(self, spec: JobSpec, result: Any, elapsed: float) -> str:
        """Store *result* for *spec*; returns the entry key."""
        key = spec.fingerprint()
        entry = {
            "spec": spec.to_dict(),
            "result": result,
            "meta": {
                "code_version": code_version(),
                "created": time.time(),
                "elapsed_seconds": round(elapsed, 6),
            },
        }
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, sort_keys=True)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return key

    # ------------------------------------------------------------------
    def entries(self) -> list[dict]:
        """Every readable entry, newest first, with its key attached."""
        found = []
        if not self.root.is_dir():
            return found
        for path in self.root.glob("*.json"):
            try:
                with open(path, encoding="utf-8") as handle:
                    entry = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue
            entry["key"] = path.stem
            found.append(entry)
        found.sort(key=lambda e: e.get("meta", {}).get("created", 0),
                   reverse=True)
        return found

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in list(self.root.glob("*.json")):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> dict:
        """Entry count and on-disk footprint (for ``status`` / reports)."""
        count = 0
        total = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    total += path.stat().st_size
                except OSError:
                    continue
                count += 1
        return {
            "directory": str(self.root),
            "entries": count,
            "bytes": total,
        }

    def __len__(self) -> int:
        return self.stats()["entries"]


def stats_document(cache: ResultCache) -> dict:
    """Machine-readable cache stats: footprint plus hit/miss counters.

    The counters come from the ``last_run.state`` file the pool writes
    beside the cache (lifetime totals of the most recent
    :class:`~repro.jobs.pool.JobRunner`); a cache nobody has run
    against reports zeros. This is the document behind
    ``python -m repro.jobs cache --json``.
    """
    document = cache.stats()
    state: dict = {}
    try:
        state = json.loads((cache.root / "last_run.state").read_text())
    except (OSError, json.JSONDecodeError):
        pass
    document["hits"] = int(state.get("cache_hits", 0))
    document["misses"] = int(state.get("cache_misses", 0))
    return document
