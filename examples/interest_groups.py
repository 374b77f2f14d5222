#!/usr/bin/env python3
"""Interest groups in action: software-controlled cache placement.

Shows the three placement regimes of Table 1:

1. the default one-of-all group — one coherent 512 KB unit, mostly
   remote hits (only 1 in 32 accesses lands locally);
2. a pinned single cache — deterministic home, fast for its owner quad;
3. the thread's-own group — per-quad replication of shared read-only
   data, every access a local hit;

and, in strict-incoherence mode, the hazard the paper warns about: OWN
replication without software coherence lets two quads observe different
values for the same physical address.

The interest-group byte is the top byte of the 32-bit effective address
(paper Section 2.1 / Table 1): bits 7-5 select the sharing level (own /
1 / 2 / 4 / 8 / 16 / all-32 caches) and bits 4-0 select which set of
caches at that level — see docs/memory-model.md for the full encoding
table. The final section replays the stale-read hazard under the
coherence sanitizer (repro.sanitizer), which pinpoints the guilty write.

Run:  python examples/interest_groups.py
"""

from repro import Chip, IG_OWN, InterestGroup, Kernel, Level
from repro.memory.address import make_effective
from repro.sanitizer import CoherenceSanitizer


def measure(kernel, label, ig_byte, n_words=256):
    """Average load latency over a small array under one interest group."""
    chip = kernel.chip
    base = kernel.heap.alloc(4 * n_words)

    def body(ctx):
        start = ctx.time
        t = 0
        for i in range(n_words):
            t, _ = yield from ctx.load_u32(
                make_effective(base + 4 * i, ig_byte), deps=(t,))
        first_pass = ctx.time - start
        start = ctx.time
        t = 0
        for i in range(n_words):
            t, _ = yield from ctx.load_u32(
                make_effective(base + 4 * i, ig_byte), deps=(t,))
        return first_pass, ctx.time - start

    thread = kernel.spawn(body)
    kernel.run()
    cold, warm = thread.result
    print(f"{label:42s} cold {cold / n_words:5.1f}  "
          f"warm {warm / n_words:5.1f} cycles/load")


def main() -> None:
    print("Average load latency per interest group (one thread, quad 0):\n")
    for label, ig_byte in [
        ("one-of-all (default 512 KB unit)",
         InterestGroup(Level.ALL).encode()),
        ("pinned to the local cache (ONE, 0)",
         InterestGroup(Level.ONE, 0).encode()),
        ("pinned to a remote cache (ONE, 20)",
         InterestGroup(Level.ONE, 20).encode()),
        ("thread's own cache (group zero)", IG_OWN),
    ]:
        measure(Kernel(Chip()), label, ig_byte)

    print("\nReplication without hardware coherence (strict mode):")
    chip = Chip(strict_incoherence=True)
    ea = make_effective(0x1000, IG_OWN)
    # Quad 0 and quad 9 each pull the line into their own cache.
    chip.memory.load_f64(0, 0, ea)
    chip.memory.load_f64(10, 9, ea)
    # Quad 0 stores 1.0 — only its own copy changes.
    chip.memory.store_f64(20, 0, ea, 1.0)
    _, seen_by_0 = chip.memory.load_f64(30, 0, ea)
    _, seen_by_9 = chip.memory.load_f64(40, 9, ea)
    print(f"  quad 0 reads {seen_by_0}, quad 9 reads {seen_by_9} "
          f"-> stale copy, exactly the paper's caveat: software must "
          f"manage OWN-group replication")
    # Software-managed coherence: flush the writer, invalidate the reader.
    chip.memory.flush_cache(0)
    chip.memory.caches[9].invalidate(0x1000)
    _, after = chip.memory.load_f64(50, 9, ea)
    print(f"  after flush+invalidate quad 9 reads {after}")

    # The same bug, caught automatically: the coherence sanitizer keeps
    # shadow state beside the caches and reports the stale read with the
    # provenance of the write that never reached the reader's copy.
    print("\nThe same hazard under the coherence sanitizer:")
    chip = Chip()
    sanitizer = CoherenceSanitizer().attach(chip)
    writer = sanitizer.thread_view(chip.memory, tid=0)   # a TU in quad 0
    reader = sanitizer.thread_view(chip.memory, tid=36)  # a TU in quad 9
    writer.load_f64(0, 0, ea)
    reader.load_f64(10, 9, ea)   # both quads now replicate the line
    writer.store_f64(20, 0, ea, 1.0)  # only quad 0's copy changes
    reader.load_f64(30, 9, ea)   # quad 9 still reads its old copy
    for finding in sanitizer.findings:
        print(f"  {finding.render()}")


if __name__ == "__main__":
    main()
