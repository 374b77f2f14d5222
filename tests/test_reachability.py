"""Every module, name and dataclass field under ``src/repro`` is reached.

The paper's tables and figures are regenerated from the experiment
registry, the ``python -m repro.*`` CLIs, ``benchmarks/``, ``examples/``
and ``perfbench/``. Code that only tests reach is dead weight. This
check reads the source with :mod:`ast`; it never imports or runs repro
code.

*Modules.* From the entry points it follows imports and
``"module:function"`` job task strings, and names every module it does
not reach.

*Names.* Inside the reached modules it checks every top-level function
and class, every method and property of those classes (dunders are
exempt: Python calls them) and every field of a ``@dataclass``. A name
is used when its identifier occurs outside its own definition, in live
code: a name, an attribute, an import, or a word of a string constant
(which covers ``getattr``, report fields and task strings; docstrings
do not count). A package ``__init__``'s imports and ``__all__`` only
re-export names, so they do not count either. A field is used only
when something reads it: setting it by keyword is not a read, nor is
a generic loop over ``dataclasses.fields``. Live code is module-level
code of the reached modules and entry scripts plus the bodies of used
names, so a name used only inside dead names is dead too; the check
iterates to a fixpoint.

Matching is by identifier, not by call graph: a dead method that shares
its name with a live one (``run``, ``reset``) passes. The check finds
names nothing mentions; it does not prove a mentioned name is called.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable

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


def reached(root: Path, package: str,
            registries: tuple[str, ...] = ()) -> set[str]:
    """Modules (of any package) under ``root/src`` that an entry point
    reaches through imports (parent packages included) or task strings,
    plus the entry scripts' own names."""
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
    return seen


def unreached(root: Path, package: str,
              registries: tuple[str, ...] = ()) -> list[str]:
    """Modules of ``package`` under ``root/src`` that no entry point
    reaches."""
    seen = reached(root, package, registries)
    return sorted(name for name in module_index(root / "src")
                  if name.split(".")[0] == package and name not in seen)


#: Names no live code uses, each kept for one kind of :data:`REASONS`:
#: ``name -> (kind, file)``, where ``file`` shows a call of the name
#: (for a job task, its ``":name"`` task string).
ALLOWED_NAMES = {
    "repro.isa.kernels.fft_host_reference": (
        "test oracle", "tests/test_isa_kernels.py"),
    "repro.configio.save_spec": ("documented API", "docs/exploration.md"),
    "repro.configio.load_spec": ("documented API", "docs/exploration.md"),
    "repro.runtime.context.ThreadCtx.invalidate_line": (
        "documented API", "docs/memory-model.md"),
    "repro.system.collectives.broadcast": (
        "documented API", "docs/workloads.md"),
    "repro.system.collectives.all_reduce_sum": (
        "documented API", "docs/workloads.md"),
}

#: The reasons a name may stay without a live use.
REASONS = ("test oracle", "job task", "documented API")

#: A word of a string constant: ``"pkg.mod:point"`` uses ``point``, and
#: ``getattr(counters, "run_cycles")`` uses ``run_cycles``.
WORD = re.compile(r"[A-Za-z_]\w*")

#: A definition's key: its module and its qualified name in the module.
Key = tuple[str, str]


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def is_reexport(stmt: ast.stmt) -> bool:
    """Whether a module-level statement is an import or sets
    ``__all__``: in a package ``__init__``, a re-export."""
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return True
    targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
    return any(isinstance(target, ast.Name) and target.id == "__all__"
               for target in targets)


def is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        name = getattr(decorator, "id", getattr(decorator, "attr", None))
        if name == "dataclass":
            return True
    return False


class NameGraph:
    """The definitions in the reached modules of ``package``, and which
    owners mention each identifier. An owner is a definition's key, or
    ``None`` for module-level and entry-script code, which is always
    live. Code of ``allowed_modules`` is live and not checked."""

    def __init__(self, root: Path, package: str,
                 registries: tuple[str, ...] = (),
                 allowed_modules: tuple[str, ...] = ()) -> None:
        #: key -> (parent class key, identifier, is a dataclass field)
        self.defs: dict[Key, tuple[Key | None, str, bool]] = {}
        self.uses: dict[str, set[Key | None]] = {}
        self.reads: dict[str, set[Key | None]] = {}
        src = root / "src"
        modules = module_index(src)
        for name in sorted(reached(root, package, registries)
                           | set(allowed_modules)):
            if name not in modules:
                continue
            path = modules[name]
            tree = ast.parse(path.read_text(), str(path))
            if name.split(".")[0] == package and name not in allowed_modules:
                self.scan_module(tree, name, path.name == "__init__.py")
            else:
                self.scan([tree], None)
        for path in entry_files(root, package, registries):
            if not path.is_relative_to(src):
                self.scan([ast.parse(path.read_text(), str(path))], None)

    def add(self, word: str, owner: Key | None, read: bool) -> None:
        self.uses.setdefault(word, set()).add(owner)
        if read:
            self.reads.setdefault(word, set()).add(owner)

    def scan(self, nodes: list[ast.AST], owner: Key | None) -> None:
        """Record the identifiers ``nodes`` use: names and attributes
        loaded, imports, and the words of string constants that are not
        docstrings. Attributes and strings also count as reads."""
        docstrings = {
            id(stmt.value) for node in nodes for stmt in ast.walk(node)
            if isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)}
        for node in nodes:
            for sub in ast.walk(node):
                loaded = isinstance(getattr(sub, "ctx", None), ast.Load)
                if isinstance(sub, ast.Name) and loaded:
                    self.add(sub.id, owner, False)
                elif isinstance(sub, ast.Attribute) and loaded:
                    self.add(sub.attr, owner, True)
                elif (isinstance(sub, ast.AugAssign)
                      and isinstance(sub.target, ast.Attribute)):
                    self.add(sub.target.attr, owner, True)
                elif isinstance(sub, ast.alias):
                    for word in sub.name.split("."):
                        self.add(word, owner, False)
                elif (isinstance(sub, ast.Constant)
                      and isinstance(sub.value, str)
                      and id(sub) not in docstrings):
                    for word in WORD.findall(sub.value):
                        self.add(word, owner, True)

    def scan_module(self, tree: ast.Module, module: str,
                    is_package: bool = False) -> None:
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                key = (module, stmt.name)
                self.defs[key] = (None, stmt.name, False)
                self.scan([stmt], key)
            elif isinstance(stmt, ast.ClassDef):
                self.scan_class(stmt, module)
            elif not (is_package and is_reexport(stmt)):
                self.scan([stmt], None)

    def scan_class(self, node: ast.ClassDef, module: str) -> None:
        """A class owns its decorators, bases, dunders, nested classes
        and field defaults; each other method or field is a definition."""
        key = (module, node.name)
        self.defs[key] = (None, node.name, False)
        own = [*node.decorator_list, *node.bases, *node.keywords]
        fields = is_dataclass(node)
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef) and not is_dunder(stmt.name):
                member = (module, f"{node.name}.{stmt.name}")
                self.defs[member] = (key, stmt.name, False)
                self.scan([stmt], member)
            elif (fields and isinstance(stmt, ast.AnnAssign)
                  and isinstance(stmt.target, ast.Name)):
                member = (module, f"{node.name}.{stmt.target.id}")
                self.defs[member] = (key, stmt.target.id, True)
                own += [stmt.annotation] + ([stmt.value] if stmt.value else [])
            else:
                own.append(stmt)
        self.scan(own, key)

    def unused(self, allowed_names: Iterable[str] = ()) -> list[str]:
        """Dotted names of the definitions no live code uses, counting
        ``allowed_names`` as used (see the module docstring)."""
        allowed = set(allowed_names)

        def outside(owner: Key | None, key: Key) -> bool:
            """Whether ``owner``'s code lies outside ``key``'s definition."""
            return owner is None or not (
                owner[0] == key[0]
                and (owner[1] == key[1] or owner[1].startswith(key[1] + ".")))

        live: set[Key | None] = {None}
        grown = True
        while grown:
            grown = False
            for key, (parent, word, field) in self.defs.items():
                if key in live or (parent is not None and parent not in live):
                    continue
                owners = (self.reads if field else self.uses).get(word, ())
                if (".".join(key) in allowed
                        or any(owner in live and outside(owner, key)
                               for owner in owners)):
                    live.add(key)
                    grown = True
        return sorted(".".join(key) for key in self.defs if key not in live)


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


def repo_names() -> NameGraph:
    return NameGraph(ROOT, "repro", REGISTRY_MODULES, tuple(ALLOWED))


def test_every_name_is_used():
    dead = repo_names().unused(ALLOWED_NAMES)
    assert not dead, (
        "names no live code uses (delete them, or add them to "
        f"ALLOWED_NAMES with a reason): {', '.join(dead)}")


def test_name_allowlist_entries_are_needed():
    names = repo_names()
    for name, (kind, caller) in ALLOWED_NAMES.items():
        others = set(ALLOWED_NAMES) - {name}
        assert name in names.unused(others), (
            f"{name} does not exist, or is used; drop it from ALLOWED_NAMES")
        assert kind in REASONS, f"{name}: {kind!r} is not one of {REASONS}"
        short = name.rpartition(".")[2]
        shown = f":{short}" if kind == "job task" else f"{short}("
        assert shown in (ROOT / caller).read_text(), (
            f"{caller} does not show {name} ({shown!r})")


def write_tree(root: Path, files: dict[str, str]) -> None:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


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
    write_tree(tmp_path, files)
    assert unreached(tmp_path, "pkg") == ["pkg.orphan"]


def test_names_flags_dead_methods_properties_chains_and_fields(tmp_path):
    write_tree(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/__main__.py": (
            "from .core import Engine, Result, helper\n"
            "engine = Engine()\n"
            "engine.start()\n"
            "print(Result(cycles=1, unread=2).cycles, helper())\n"
            "print(getattr(engine, 'by_name')())\n"
        ),
        "src/pkg/core.py": (
            "from dataclasses import dataclass\n"
            "class Engine:\n"
            "    def __init__(self):\n"
            "        self.state = 0\n"
            "    def start(self):\n"
            "        \"\"\"Unlike ``dead_method``, this runs.\"\"\"\n"
            "        return self._step()\n"
            "    def _step(self):\n"
            "        return self._step() if self.state else 1\n"
            "    def dead_method(self):\n"
            "        return self.only_from_dead()\n"
            "    def only_from_dead(self):\n"
            "        return 2\n"
            "    @property\n"
            "    def dead_property(self):\n"
            "        return self.dead_property\n"
            "    def by_name(self):\n"
            "        return 4\n"
            "@dataclass\n"
            "class Result:\n"
            "    cycles: int\n"
            "    unread: int\n"
            "def helper():\n"
            "    return 3\n"
            "def oracle():\n"
            "    return callee()\n"
            "def callee():\n"
            "    return 5\n"
        ),
        "tests/test_core.py": (
            "from pkg.core import Engine, oracle\n"
            "Engine().dead_method()\n"
        ),
    })
    names = NameGraph(tmp_path, "pkg")
    dead = ["pkg.core.Engine.dead_method", "pkg.core.Engine.dead_property",
            "pkg.core.Engine.only_from_dead", "pkg.core.Result.unread"]
    assert names.unused(["pkg.core.oracle"]) == dead
    assert names.unused() == sorted(
        dead + ["pkg.core.callee", "pkg.core.oracle"])


def test_names_does_not_count_package_reexports(tmp_path):
    write_tree(tmp_path, {
        "src/pkg/__init__.py": (
            "from .core import called, exported, used\n"
            "__all__ = ['exported', 'used']\n"
            "SETUP = called()\n"
        ),
        "src/pkg/__main__.py": "from pkg import used\nused()\n",
        "src/pkg/core.py": (
            "def called():\n    return 1\n"
            "def exported():\n    return 2\n"
            "def used():\n    return 3\n"
        ),
    })
    assert NameGraph(tmp_path, "pkg").unused() == ["pkg.core.exported"]
