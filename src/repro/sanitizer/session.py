"""Process-wide sanitizer session: the enable switch and the roster.

Chips are created deep inside workloads and experiment drivers, so the
CLIs cannot hand a sanitizer object down to them. Instead this module
holds two tiny pieces of process state:

* the *enable switch* — :func:`force`, what ``--sanitize`` flips —
  consulted by :class:`~repro.core.chip.Chip` at construction time;
* the *roster* of every sanitizer attached during the session, so a CLI
  can aggregate findings across however many chips its run created.

Nothing here imports the rest of the package, so the enable check costs
one global load even when the sanitizer never activates.
"""

from __future__ import annotations

_forced = False

_active: list = []


def forced() -> bool:
    """Should new chips attach a sanitizer? (set by :func:`force`)."""
    return _forced


def force(enabled: bool) -> None:
    """Programmatic master switch (the CLIs' ``--sanitize`` flag)."""
    global _forced
    _forced = enabled


def register(sanitizer) -> None:
    """Add an attached sanitizer to the session roster."""
    _active.append(sanitizer)


def reset() -> None:
    """Forget every registered sanitizer (start of a CLI run or test)."""
    _active.clear()


def active() -> list:
    """All sanitizers attached since the last :func:`reset`."""
    return list(_active)


def all_findings() -> list:
    """Every finding from every registered sanitizer, in attach order."""
    return [finding for san in _active for finding in san.findings]


def total_counts() -> dict[str, int]:
    """Finding occurrence counts summed across the session's sanitizers."""
    totals: dict[str, int] = {}
    for san in _active:
        for kind, count in san.counts.items():
            totals[kind] = totals.get(kind, 0) + count
    return totals
