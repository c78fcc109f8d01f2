#!/usr/bin/env python
"""Layering contracts for ``src/repro``: imports point downward only,
and every module and public name has a caller that is not a test.

Four checks, all over the packages' ASTs:

**One declared package order** (:data:`LAYERS`, lowest first).  A module
may import its own layer entry and any entry on an earlier line — never
a later line, never another package on its own line — whether the
import is spelled absolute (``from repro.sim import ...``) or relative
(``from ..sim import ...``), at module level or inside a function.
Package ``__init__`` files are modules like any other, so none can
re-export a name from a package above its own.  The order is what makes
``import repro.net`` load the deployment and nothing else: the
experiments' library (``analysis``, ``sim``, ``baselines``, ...) ranks
above ``net`` and therefore cannot be reached from it.

**Sans-IO cores.**  ``repro.protocol``, ``repro.dataplane`` and the
``repro.obs`` core (everything but ``obs/http.py``) are event in,
effects out: no ``asyncio``, ``socket`` or ``selectors``.  (That they
never import a driver package is the order's job: ``net`` and ``sim``
rank above them.)

**No bystanders.**  Every module under ``src/repro`` is imported by some
file that is not a test — another ``src/repro`` module (a package's own
``__init__`` re-exporting it does not count), an example, or a
benchmark/experiment script — apart from the entry point ``cli`` and the
modules :data:`KNOWN_UNCALLED` lists with a reason.

**No test-only names.**  The same rule one level down: every public
top-level ``def`` and ``class`` in ``src/repro`` is mentioned by some
non-test file — as a ``Name``, an ``Attribute`` or an identifier string
constant (``benchmarks/e2e/trace.py`` resolves its tables with
``getattr``) — outside its own definition, imports and ``__all__``.
A name that tests use to check something else (an oracle, a fake, a
golden producer) is listed in :data:`KNOWN_TEST_ONLY` with its reason;
an entry there that names nothing, or whose names all have a non-test
caller, is itself a violation.  Methods are not checked: too many share
a name for a bare-name scan to tell them apart.

Run from the repo root (CI's lint job does, and a tier-1 test wraps
it):

    python tools/check_layering.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
_REPRO = REPO_ROOT / "src" / "repro"
PROTOCOL_DIR = _REPRO / "protocol"
OBS_DIR = _REPRO / "obs"
DATAPLANE_DIR = _REPRO / "dataplane"

#: The declared order, lowest layer first; names are dotted prefixes
#: under ``repro`` and the longest matching prefix wins (``net.testing``
#: is the chaos/swarm/soak harness, a layer of its own above the
#: drivers it stands up).  docs/architecture.md draws the same order.
LAYERS: tuple[tuple[str, ...], ...] = (
    ("gf",),
    ("coding", "core"),
    ("protocol",),
    ("dataplane",),
    ("obs",),
    ("net",),
    ("analysis", "metrics", "workloads"),
    ("theory", "sim"),
    ("baselines", "failures"),
    ("net.testing",),
    ("cli",),
)

#: (importing module, imported layer entry) pairs the order does not
#: explain.  ``OverlayNetwork`` is the facade that answers "how
#: connected is this overlay?", so it alone in ``core`` calls the flow
#: solver and defect counter that are written on top of the matrix.
ORDER_EXCEPTIONS = {
    ("core.overlay", "analysis"),
}

#: Modules of ``repro.obs`` that are allowed to do I/O (everything else
#: in the package must stay sans-IO like the protocol core).
OBS_IO_MODULES = {"http.py"}

#: Module roots a sans-IO core may never import.
IO_ROOTS = {"asyncio", "socket", "selectors"}

#: Modules that run rather than get imported.
ENTRY_POINTS = {"cli"}

#: Modules nothing calls yet, each with the reason it stays.
KNOWN_UNCALLED = {
    # ROADMAP 4a: the §7 entropy/jamming attacks the Byzantine-relay
    # chaos scenarios are to run.
    "failures.attacks",
}

#: Public top-level names (``module.name``), or whole modules and
#: packages, that no non-test file uses, each with the reason it stays:
#: the tests use it to check something else, or a ROADMAP item names it.
#: (The names of a :data:`KNOWN_UNCALLED` module need no entry.)
KNOWN_TEST_ONLY: dict[str, str] = {
    # Oracles, fakes and golden producers.
    "baselines.edmonds.verify_packing":
        "oracle: checks curtain_tree_decomposition's packings",
    "coding.packet.combine":
        "oracle: the one-packet form of the mixing the kernels batch",
    "coding.wire.decode_packet":
        "oracle: exact-frame inverse of encode_packet in the wire tests",
    "protocol.trace.EngineLog":
        "records the effect traces the conformance goldens pin",
    "protocol.trace.replay":
        "replays EngineLog traces for the determinism properties",
    "sim.runtime.StaticTopology":
        "fake: explicit-edge topology for the slotted-runtime tests",
    "workloads.trace.TraceRecorder":
        "golden producer: writes tests/goldens/workload_steady.json",
    # Reads what a command writes.
    "workloads.trace.replay":
        "reads the files `repro soak --trace-out` writes",
    # Named by a README no change may edit.
    "net.testing.swarm.run_swarm_round":
        "named in benchmarks/e2e/README.md (frozen)",
    # Whole modules.
    "gf.field": "numpy oracle surface the native kernels are tested against",
    "gf.linalg": "numpy oracle surface the native kernels are tested against",
    "gf.kernels": "numpy oracle surface the native kernels are tested against",
    "theory": "ROADMAP 3: source of the server's defect and drift gauges",
    "analysis.defects":
        "ROADMAP 3: source of the server's defect and drift gauges",
}

#: Where non-test importers live, relative to the repo root.
CALLER_DIRS = ("examples", "benchmarks")


# ----------------------------------------------------------------------
# Reading imports


def _module_name(path: Path, root: Path) -> str:
    """Dotted name of ``path`` under ``root`` ('' for the root package)."""
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _tree_modules(root: Path) -> dict[str, Path]:
    return {_module_name(p, root): p for p in sorted(root.rglob("*.py"))}


def _imports(path: Path, module: Optional[str]) -> Iterator[tuple[int, str, Optional[str]]]:
    """Yield ``(lineno, base, name)`` for every import of ``repro`` code.

    ``base`` is the imported module's dotted name under ``repro`` ('' for
    the root package) and ``name`` the attribute taken from it, or None
    for a plain ``import``.  Relative imports are resolved against
    ``module`` (the importer's own name; None for a file outside the
    tree, whose relative imports are skipped).
    """
    is_package = path.name == "__init__.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    yield node.lineno, alias.name[len("repro."):], None
        elif isinstance(node, ast.ImportFrom):
            imported = node.module or ""
            if node.level == 0:
                if imported != "repro" and not imported.startswith("repro."):
                    continue
                base = imported[len("repro."):]
            elif module is None:
                continue
            else:
                package = module.split(".") if module else []
                if not is_package:
                    package = package[:-1]
                climb = node.level - 1
                if climb > len(package):
                    continue  # escapes the tree; not ours to judge
                package = package[:len(package) - climb]
                base = ".".join(package + ([imported] if imported else []))
            for alias in node.names:
                yield node.lineno, base, alias.name


def _target(base: str, name: Optional[str], modules: dict[str, Path]) -> str:
    """The module an import reaches: ``base.name`` when that is one."""
    if name is not None:
        candidate = f"{base}.{name}" if base else name
        if candidate in modules:
            return candidate
    return base


# ----------------------------------------------------------------------
# The declared order


def _layer_of(module: str) -> Optional[tuple[int, str]]:
    """``(rank, entry)`` of the longest :data:`LAYERS` prefix of ``module``."""
    best: Optional[tuple[int, str]] = None
    for rank, entries in enumerate(LAYERS):
        for entry in entries:
            if module == entry or module.startswith(entry + "."):
                if best is None or len(entry) > len(best[1]):
                    best = (rank, entry)
    return best


def check_order(root: Path = _REPRO) -> list[str]:
    """One violation string per import that does not point downward."""
    modules = _tree_modules(root)
    violations = []
    for module, path in modules.items():
        if module == "":
            source = (-1, "")  # the root package: below everything
        else:
            source = _layer_of(module)
            if source is None:
                violations.append(
                    f"{path}: {module!r} is in no declared layer")
                continue
        reaches = {(lineno, _target(base, name, modules))
                   for lineno, base, name in _imports(path, module)}
        for lineno, target in sorted(reaches):
            if target == "":
                continue  # ``repro`` itself exports only __version__
            reached = _layer_of(target)
            if reached is None:
                violations.append(
                    f"{path}:{lineno}: imports {target!r}, "
                    f"which is in no declared layer")
            elif reached[1] == source[1] or reached[0] < source[0]:
                continue
            elif (module, reached[1]) not in ORDER_EXCEPTIONS:
                direction = "sideways" if reached[0] == source[0] else "upward"
                violations.append(
                    f"{path}:{lineno}: {direction} import of {target!r} "
                    f"(layer {reached[1]!r}) from layer {source[1]!r}")
    return violations


# ----------------------------------------------------------------------
# Sans-IO cores


def check_file(path: Path) -> list[str]:
    """One violation string per event-loop or socket import in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    violations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if name.split(".")[0] in IO_ROOTS:
                violations.append(f"{path}:{node.lineno}: imports {name!r}")
    return violations


def check_protocol_package(root: Path = PROTOCOL_DIR) -> list[str]:
    violations = []
    for path in sorted(root.rglob("*.py")):
        violations.extend(check_file(path))
    return violations


def check_obs_package(root: Path = OBS_DIR) -> list[str]:
    """The obs core (everything but ``http.py``) is held to the same bans."""
    violations = []
    for path in sorted(root.rglob("*.py")):
        if path.name in OBS_IO_MODULES:
            continue
        violations.extend(check_file(path))
    return violations


def check_dataplane_package(root: Path = DATAPLANE_DIR) -> list[str]:
    """The data-plane engines are a sans-IO core like the protocol's."""
    violations = []
    for path in sorted(root.rglob("*.py")):
        violations.extend(check_file(path))
    return violations


# ----------------------------------------------------------------------
# No bystanders


def _provider(base: str, name: Optional[str], modules: dict[str, Path],
              exports: dict[str, dict[str, str]]) -> str:
    """The module a name comes from, looking through package re-exports."""
    target = _target(base, name, modules)
    if target == base and name is not None:
        return exports.get(base, {}).get(name, base)
    return target


def _caller_files(caller_roots: Optional[list[Path]]) -> Iterator[Path]:
    """The non-test files under ``caller_roots`` (default
    :data:`CALLER_DIRS`)."""
    if caller_roots is None:
        caller_roots = [REPO_ROOT / d for d in CALLER_DIRS]
    for caller_root in caller_roots:
        for path in sorted(caller_root.rglob("*.py")):
            if not path.name.startswith("test_"):
                yield path


def check_uncalled(root: Path = _REPRO,
                   caller_roots: Optional[list[Path]] = None) -> list[str]:
    """One string per module that only tests (or nothing) import."""
    modules = _tree_modules(root)
    # package -> {re-exported name: providing submodule}
    exports: dict[str, dict[str, str]] = {}
    for module, path in modules.items():
        if path.name == "__init__.py":
            for _lineno, base, name in _imports(path, module):
                target = _target(base, name, modules)
                if name is not None and target.startswith(module + "."):
                    exports.setdefault(module, {})[name] = target
    called: set[str] = set()
    for module, path in modules.items():
        own = module + "." if path.name == "__init__.py" else None
        for _lineno, base, name in _imports(path, module):
            provider = _provider(base, name, modules, exports)
            if own is None or not provider.startswith(own):
                called.add(provider)
    for path in _caller_files(caller_roots):
        for _lineno, base, name in _imports(path, None):
            called.add(_provider(base, name, modules, exports))
    return [
        f"{path}: {module!r} is imported by no non-test file"
        for module, path in modules.items()
        if path.name != "__init__.py"
        and module not in called
        and module not in ENTRY_POINTS
        and module not in KNOWN_UNCALLED
    ]


def _references(tree: ast.Module) -> set[str]:
    """Names a module mentions, outside imports, ``__all__`` and each
    top-level definition's mentions of its own name."""
    found: set[str] = set()
    for statement in tree.body:
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            continue
        targets = (statement.targets if isinstance(statement, ast.Assign)
                   else [getattr(statement, "target", None)])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            continue
        mentioned: set[str] = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                mentioned.add(node.id)
            elif isinstance(node, ast.Attribute):
                mentioned.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier()):
                mentioned.add(node.value)
        mentioned.discard(getattr(statement, "name", None))
        found |= mentioned
    return found


def check_unused_names(root: Path = _REPRO,
                       caller_roots: Optional[list[Path]] = None) -> list[str]:
    """One string per public top-level ``def``/``class`` that only tests
    (or nothing) mention, and per stale :data:`KNOWN_TEST_ONLY` entry."""
    modules = _tree_modules(root)
    definitions: dict[tuple[str, str], tuple[Path, int]] = {}
    referenced: set[str] = set()
    for module, path in modules.items():
        tree = ast.parse(path.read_text(), filename=str(path))
        for statement in tree.body:
            if (isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                    and not statement.name.startswith("_")):
                definitions[module, statement.name] = (path, statement.lineno)
        referenced |= _references(tree)
    for path in _caller_files(caller_roots):
        referenced |= _references(ast.parse(path.read_text(), filename=str(path)))

    def covers(entry: str, dotted: str) -> bool:
        return (dotted + ".").startswith(entry + ".")

    violations = []
    excused: set[str] = set()
    for (module, name), (path, lineno) in definitions.items():
        if name in referenced or module in KNOWN_UNCALLED:
            continue
        dotted = f"{module}.{name}"
        entry = next((e for e in KNOWN_TEST_ONLY if covers(e, dotted)), None)
        if entry is None:
            violations.append(
                f"{path}:{lineno}: {dotted} is used by no non-test file")
        else:
            excused.add(entry)
    for entry in sorted(set(KNOWN_TEST_ONLY) - excused):
        named = any(covers(entry, f"{module}.{name}")
                    for module, name in definitions)
        violations.append(
            f"KNOWN_TEST_ONLY[{entry!r}]: " + (
                "now has a non-test caller" if named else "names nothing"))
    return violations


# ----------------------------------------------------------------------


def main() -> int:
    if not _REPRO.is_dir():
        print(f"error: {_REPRO} not found", file=sys.stderr)
        return 2
    status = 0
    for name, checker in (
        ("package order", check_order),
        ("repro.protocol sans-IO", check_protocol_package),
        ("repro.obs core sans-IO", check_obs_package),
        ("repro.dataplane sans-IO", check_dataplane_package),
        ("no uncalled module", check_uncalled),
        ("no test-only name", check_unused_names),
    ):
        violations = checker()
        if violations:
            print(f"{name} violations:", file=sys.stderr)
            for violation in violations:
                print(f"  {violation}", file=sys.stderr)
            status = 1
        else:
            print(f"{name}: clean")
    return status


if __name__ == "__main__":
    sys.exit(main())
