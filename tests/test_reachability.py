"""Every module under ``src/repro`` is reached from an entry point.

The walk reads import statements with :mod:`ast` and imports nothing.
It starts from the entry points -- ``python -m repro`` (the CLI), the
library API, the daemon -- and from every ``repro`` import in
``benchmarks/`` and ``examples/``.  It follows each import to the module
that defines the imported name, including imports inside functions.  A
package ``__init__`` is reached whenever one of its submodules is, but
its re-exports are followed only for the names an importer asks for: a
module that only a package re-exports is code nothing runs.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

ENTRY_POINTS = ("repro.__main__", "repro.cli", "repro.api", "repro.service.daemon")
ENTRY_DIRS = ("benchmarks", "examples")

#: Modules no entry point reaches, each with the reason it stays.
ALLOWED_UNREACHED: Dict[str, str] = {}


def _module_paths() -> Dict[str, Path]:
    paths = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        paths[".".join(parts)] = path
    return paths


MODULES = _module_paths()


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


def _imports(path: Path, package: str) -> Iterator[Tuple[str, Sequence[str]]]:
    """``(module, names)`` for every import in ``path``; ``names`` is
    empty for ``import module``.  Relative imports resolve against
    ``package``; with no package only absolute imports count."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                if not package:
                    continue
                parts = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(parts + ([base] if base else []))
            yield base, tuple(alias.name for alias in node.names)


def _targets(module: str, names: Sequence[str]) -> Set[str]:
    """The modules an import of ``names`` from ``module`` makes run,
    resolving a package's re-exports to the modules defining them."""
    if module not in MODULES:
        return set()
    parts = module.split(".")
    found = {".".join(parts[:i]) for i in range(1, len(parts) + 1)}
    for name in names:
        submodule = f"{module}.{name}"
        if submodule in MODULES:
            found |= _targets(submodule, ())
        elif _is_package(module):
            for source, imported in _imports(MODULES[module], module):
                if name in imported:
                    found |= _targets(source, (name,))
    return found


def reached_modules() -> Set[str]:
    frontier = set()
    for entry in ENTRY_POINTS:
        frontier |= _targets(entry, ())
    for directory in ENTRY_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for module, names in _imports(path, ""):
                frontier |= _targets(module, names)
    reached: Set[str] = set()
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        if not _is_package(name):
            for module, names in _imports(MODULES[name], name.rpartition(".")[0]):
                frontier |= _targets(module, names) - reached
    return reached


def test_every_module_is_reached_from_an_entry_point():
    unreached = set(MODULES) - reached_modules() - set(ALLOWED_UNREACHED)
    assert not unreached, f"no entry point reaches {sorted(unreached)}"


def test_the_allowlist_names_only_unreached_modules():
    reached = reached_modules()
    for name in ALLOWED_UNREACHED:
        assert name in MODULES, name
        assert name not in reached, f"{name} is reached; drop it from the allowlist"


def test_a_package_reexport_reaches_only_the_module_defining_the_name():
    assert _targets("repro.ir", ("Module",)) == {"repro", "repro.ir", "repro.ir.module"}


def test_a_name_resolved_on_first_use_reaches_the_module_defining_it():
    # ``repro`` and ``repro.runtime`` import these names inside a PEP 562
    # ``__getattr__``; the walk follows those imports like any other.
    assert _targets("repro", ("compile_minic",)) == {"repro", "repro.api"}
    assert _targets("repro.runtime", ("run_module",)) == {
        "repro", "repro.runtime", "repro.runtime.interpreter",
    }
