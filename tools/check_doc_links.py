#!/usr/bin/env python3
"""Check that relative markdown links point at files that exist.

Scans every top-level ``*.md`` file and everything under ``docs/`` by
default (pass explicit paths to scan something else), extracts inline markdown links,
and verifies every relative target resolves against the linking file's
directory. External links (``http(s)://``, ``mailto:``) and pure
in-page anchors (``#...``) are ignored; a ``path#anchor`` target is
checked for the path only.

Exit status 0 when every link resolves, 1 otherwise (one line per dead
link, ``file:line: target``). Run from anywhere inside the repo:

    python tools/check_doc_links.py
"""

from __future__ import annotations

import pathlib
import re
import sys

#: Inline markdown link: [text](target) — target captured up to the
#: first unescaped closing parenthesis (no nested parens in our docs).
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")


def dead_links(paths: list[pathlib.Path]) -> list[tuple[pathlib.Path, int, str]]:
    """All unresolvable relative links as (file, line_number, target)."""
    dead = []
    for path in paths:
        for line_number, line in enumerate(
                path.read_text().splitlines(), start=1):
            for target in LINK.findall(line):
                if target.startswith(SKIP_PREFIXES):
                    continue
                candidate = target.split("#", 1)[0]
                if not candidate:
                    continue
                if not (path.parent / candidate).exists():
                    dead.append((path, line_number, target))
    return dead


def default_paths(root: pathlib.Path) -> list[pathlib.Path]:
    """Every top-level markdown file plus every one under docs/."""
    return sorted(root.glob("*.md")) + sorted((root / "docs").glob("*.md"))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(__file__).resolve().parent.parent
    paths = [pathlib.Path(arg) for arg in argv] if argv \
        else default_paths(root)
    dead = dead_links(paths)
    for path, line_number, target in dead:
        try:
            shown = path.resolve().relative_to(root)
        except ValueError:
            shown = path
        print(f"{shown}:{line_number}: dead link -> {target}")
    if dead:
        print(f"{len(dead)} dead link(s) in {len(paths)} file(s)",
              file=sys.stderr)
        return 1
    print(f"ok: all relative links resolve in {len(paths)} file(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
