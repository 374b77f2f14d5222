"""The package reads exactly four environment variables.

Every execution mode has one switch, an argument or a CLI flag
(``sampled=``, ``domains=``, ``sanitize=``/``--sanitize``,
``n_workers``/``-j``). The environment holds only what is not a mode: a
deployment path, a cache-key pin and two fault hooks that must reach
child processes. This check reads the source with :mod:`ast` (it never
imports repro code), finds every ``os.environ``/``os.getenv`` use under
``src/repro``, resolves each key through string literals and
module-level string constants (its own module's or imported from
another module of the package), and fails on any other name or on a
use whose key it cannot resolve.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The variables the package may read, each with why it is not a mode.
ALLOWED = {
    "REPRO_JOBS_CACHE_DIR": "deployment path of the result cache",
    "REPRO_JOBS_CODE_VERSION": "pins the cache key's code version",
    "REPRO_JOBS_INJECT_CRASH": "fault hook that must reach pool workers",
    "CYCLOPS_PDES_INJECT_CRASH": "fault hook that must reach pdes domains",
}


def string_constants(tree: ast.Module) -> dict[str, str]:
    """Module-level ``NAME = "literal"`` assignments."""
    found = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    found[target.id] = node.value.value
    return found


def is_environ(node: ast.AST) -> bool:
    """``os.environ`` (or a bare ``environ`` imported from os)."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "environ" and isinstance(node.value, ast.Name)
                and node.value.id == "os")
    return isinstance(node, ast.Name) and node.id == "environ"


def is_getenv(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return (node.attr == "getenv" and isinstance(node.value, ast.Name)
                and node.value.id == "os")
    return isinstance(node, ast.Name) and node.id == "getenv"


def environment_reads(path: Path, package: dict[str, dict[str, str]]
                      ) -> list[tuple[int, str | None]]:
    """``(line, key)`` for every environment use in the file; the key is
    ``None`` when it is not a literal or a module-level constant.

    *package* maps each dotted module name to its string constants, to
    resolve names the file imports with ``from module import NAME``.
    """
    tree = ast.parse(path.read_text(), str(path))
    constants = string_constants(tree)
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module in package:
            for alias in node.names:
                value = package[node.module].get(alias.name)
                if value is not None:
                    constants[alias.asname or alias.name] = value
    parents = {child: parent for parent in ast.walk(tree)
               for child in ast.iter_child_nodes(parent)}

    def resolve(node: ast.AST | None) -> str | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return constants.get(node.id)
        return None

    reads = []
    for node in ast.walk(tree):
        if is_getenv(node):
            call = parents.get(node)
            key = (call.args[0] if isinstance(call, ast.Call)
                   and call.func is node and call.args else None)
            reads.append((node.lineno, resolve(key)))
        elif is_environ(node):
            parent = parents.get(node)
            key = None
            if isinstance(parent, ast.Attribute) and parent.attr == "get":
                call = parents.get(parent)
                if isinstance(call, ast.Call) and call.args:
                    key = call.args[0]
            elif isinstance(parent, ast.Subscript) and parent.value is node:
                key = parent.slice
            elif (isinstance(parent, ast.Compare)
                  and node in parent.comparators
                  and len(parent.comparators) == 1
                  and isinstance(parent.ops[0], (ast.In, ast.NotIn))):
                key = parent.left
            reads.append((node.lineno, resolve(key)))
    return reads


def module_name(path: Path, src: Path) -> str:
    """Dotted name of *path*; *src* is the package directory."""
    parts = path.relative_to(src.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def scan(src: Path) -> dict[str, list[str]]:
    """Variable name (``None`` if unresolved) -> ``file:line`` uses."""
    paths = sorted(src.rglob("*.py"))
    package = {module_name(path, src):
               string_constants(ast.parse(path.read_text(), str(path)))
               for path in paths}
    found: dict[str, list[str]] = {}
    for path in paths:
        for line, key in environment_reads(path, package):
            where = f"{path.relative_to(src)}:{line}"
            found.setdefault(key, []).append(where)
    return found


def test_scan_resolves_constants_and_literals(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "knobs.py").write_text("E_NAME = 'E_KNOB'\n")
    (package / "mod.py").write_text(
        "import os\n"
        "from pkg.knobs import E_NAME\n"
        "KNOB = 'A_KNOB'\n"
        "a = os.environ.get(KNOB)\n"
        "b = os.getenv('B_KNOB', '')\n"
        "c = os.environ['C_KNOB']\n"
        "d = 'D_KNOB' in os.environ\n"
        "e = os.environ.get(E_NAME)\n"
        "f = os.environ.get(compute())\n"
    )
    assert scan(package) == {
        "A_KNOB": ["mod.py:4"],
        "B_KNOB": ["mod.py:5"],
        "C_KNOB": ["mod.py:6"],
        "D_KNOB": ["mod.py:7"],
        "E_KNOB": ["mod.py:8"],
        None: ["mod.py:9"],
    }


def test_environment_reads_are_exactly_the_allowed_four():
    found = scan(SRC)
    unresolved = found.pop(None, [])
    assert not unresolved, (
        "environment uses whose key is not a literal or a module-level "
        f"constant: {unresolved}"
    )
    extra = {name: where for name, where in found.items()
             if name not in ALLOWED}
    assert not extra, (
        f"environment variables read outside {sorted(ALLOWED)}: {extra}; "
        "make an execution mode an argument or a CLI flag instead"
    )
    assert set(found) == set(ALLOWED)
