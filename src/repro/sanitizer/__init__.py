"""Dynamic coherence sanitizer for the software-managed caches.

Cyclops has no hardware cache coherence (PAPER.md Section 2): programs
keep themselves coherent with interest groups, barriers, and explicit
``dcbf``/``dcbi`` line operations. Getting that discipline wrong does
not crash the simulator — it silently reads stale data, exactly as it
would on the real chip. This package is the opt-in checker that makes
such bugs loud.

The sanitizer maintains *shadow state* beside the simulated memory
system: for every cache line it records which caches hold a copy, how
new each copy is, who wrote the newest version (TU / PC / cycle), and a
barrier-epoch happens-before counter per thread unit. From that it
reports four classes of findings, each with full provenance:

``stale-read``
    a load returned a line copy older than the newest written version
    (hit on a stale replica, or a miss fill while the newest version is
    still dirty in another cache — a missing ``dcbf``/``dcbi`` pair);
``write-write-conflict``
    two thread units dirtied copies of one line in different caches
    within the same barrier epoch — last writeback wins, unordered;
``ig-misroute``
    one physical line reached through interest-group encodings that
    home it in two different caches (including an OWN-group access
    replicating a line that has a shared home);
``barrier-misuse``
    a wired-OR barrier ``arrive`` without a matching ``participate``
    (or a double arrive in one barrier cycle).

Enabling it
-----------

* ``Chip(sanitize=True)`` — per-chip, programmatic;
* ``--sanitize`` on ``python -m repro.workloads`` and
  ``python -m repro.experiments run`` — every :class:`Chip` the run
  builds attaches a sanitizer (through
  :func:`repro.sanitizer.session.force`); the CLI also prints a
  findings report and exits non-zero if anything was found;
* ``CoherenceSanitizer().attach(chip)`` — explicit, before any kernel
  or interpreter threads are created on the chip.

When disabled, nothing here is imported and no hook in the simulator
does more than test an attribute against ``None`` on cold paths — the
hot access path is untouched (see docs/memory-model.md, "Sanitizer").
"""

from repro.sanitizer.shadow import CoherenceSanitizer, Finding, SanitizedMemory

__all__ = [
    "CoherenceSanitizer",
    "Finding",
    "SanitizedMemory",
]
