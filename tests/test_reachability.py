"""Every module under ``src/repro`` is reached from an entry point.

The paper's tables and figures are regenerated from the experiment
registry, the ``python -m repro.*`` CLIs, ``benchmarks/``, ``examples/``
and ``perfbench/``. A module that only tests import is dead weight: this
check reads the source with :mod:`ast` (it never imports or runs repro
code), follows imports and ``"module:function"`` job task references
from those entry points, and names every module it does not reach.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Entry points inside the package: the experiment registry (the CLIs'
#: ``__main__`` modules are found by :func:`entry_files`).
REGISTRY_MODULES = ("repro.experiments",)

#: Directories whose non-test scripts are entry points.
SCRIPT_DIRS = ("benchmarks", "examples", "perfbench")

#: Modules no entry point imports, each with the reason it stays.
ALLOWED = {
    "repro.jobs.testing": (
        "pool workers import its tasks by name, and tests submit them "
        "as jobs to exercise the runner"
    ),
}

#: A job task reference, e.g. ``"repro.experiments.fig7_barriers:point"``;
#: workers import the module part by name.
TASK_REF = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*):[A-Za-z_]\w*")


def module_name(path: Path, base: Path) -> tuple[str, bool]:
    """The dotted name of ``path`` relative to ``base``, and whether it
    is a package ``__init__``."""
    parts = path.relative_to(base).with_suffix("").parts
    if parts[-1] == "__init__":
        return ".".join(parts[:-1]), True
    return ".".join(parts), False


def module_index(src: Path) -> dict[str, Path]:
    """Dotted module name -> source file, for every module under ``src``."""
    return {module_name(path, src)[0]: path for path in src.rglob("*.py")}


def is_test_file(path: Path) -> bool:
    return path.name.startswith("test_") or path.name == "conftest.py"


def entry_files(root: Path, package: str,
                registries: tuple[str, ...] = ()) -> list[Path]:
    """The package's registries and ``__main__`` modules, plus every
    non-test script under :data:`SCRIPT_DIRS`."""
    src = root / "src"
    files = [src.joinpath(*name.split("."), "__init__.py")
             for name in registries]
    files += sorted((src / package).rglob("__main__.py"))
    for name in SCRIPT_DIRS:
        files += sorted(path for path in (root / name).rglob("*.py")
                        if not is_test_file(path))
    return files


def references(path: Path, name: str, is_package: bool) -> set[str]:
    """Dotted names the source at ``path`` imports or names as a task."""
    tree = ast.parse(path.read_text(), str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = name if is_package else name.rpartition(".")[0]
                for _ in range(node.level - 1):
                    package = package.rpartition(".")[0]
                base = f"{package}.{base}" if base else package
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = TASK_REF.fullmatch(node.value)
            if match:
                found.add(match.group(1))
    return found


def unreached(root: Path, package: str,
              registries: tuple[str, ...] = ()) -> list[str]:
    """Modules of ``package`` under ``root/src`` that no entry point
    reaches through imports (parent packages included) or task strings."""
    src = root / "src"
    modules = module_index(src)
    seen: set[str] = set()
    stack = list(entry_files(root, package, registries))
    while stack:
        path = stack.pop()
        name, is_package = module_name(
            path, src if path.is_relative_to(src) else root)
        seen.add(name)
        for ref in references(path, name, is_package):
            parts = ref.split(".")
            for i in range(1, len(parts) + 1):
                target = ".".join(parts[:i])
                if target in modules and target not in seen:
                    seen.add(target)
                    stack.append(modules[target])
    return sorted(name for name in modules
                  if name.split(".")[0] == package and name not in seen)


def test_every_module_is_reached():
    dead = [name for name in unreached(ROOT, "repro", REGISTRY_MODULES)
            if name not in ALLOWED]
    assert not dead, (
        "modules no entry point reaches (delete them, or add them to "
        f"ALLOWED with a reason): {', '.join(dead)}")


def test_allowlist_entries_are_needed():
    modules = module_index(ROOT / "src")
    dead = unreached(ROOT, "repro", REGISTRY_MODULES)
    for name, reason in ALLOWED.items():
        assert name in modules, f"{name} no longer exists"
        assert name in dead, f"{name} is reached; drop it from ALLOWED"
        assert reason.strip()


def test_scanner_follows_task_strings_and_ignores_tests(tmp_path):
    files = {
        "src/pkg/__init__.py": "",
        "src/pkg/__main__.py": (
            "from . import used\n"
            "TASK = 'pkg.tasks:work'\n"
        ),
        "src/pkg/used.py": "from .sub.leaf import VALUE\n",
        "src/pkg/sub/__init__.py": "",
        "src/pkg/sub/leaf.py": "VALUE = 1\n",
        "src/pkg/tasks.py": "def work(spec):\n    return spec\n",
        "src/pkg/orphan.py": "X = 1\n",
        "src/pkg/scripted.py": "",
        "tests/test_orphan.py": "import pkg.orphan\n",
        "examples/demo.py": "def main():\n    import pkg.scripted\n",
        "benchmarks/test_bench.py": "from pkg import orphan\n",
    }
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert unreached(tmp_path, "pkg") == ["pkg.orphan"]
