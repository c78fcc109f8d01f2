#!/usr/bin/env python
"""Layering contracts for ``src/repro``: imports point downward only,
and every module, public name, option and method has a caller that is
not a test.

Six checks, all over the packages' ASTs:

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
caller, is itself a violation.

**No test-only options.**  An *option* is a defaulted parameter of a
public function, method or constructor, or a defaulted field of a
config dataclass (one not named for :data:`NOT_CONFIG_SUFFIXES`: stats,
reports and state hold results, not settings).  Each is set by some
non-test call site — in ``src/repro`` or under :data:`CALLER_DIRS` —
to something other than its literal default: by keyword, by a
positional argument that reaches it, through ``functools.partial``,
``super().__init__``, a subclass that inherits the constructor or
``dataclasses.replace``, by attribute assignment or ``setattr``, or by
``**mapping``.  A module-level dict literal sets its own keys, a
function's own ``**kwargs`` passed on sets what its callers pass it,
and any other ``**`` sets every option of the callee.  Callees are
matched by bare name, which errs towards "set".  An option nobody sets
becomes a constant; :data:`KNOWN_TEST_ONLY_OPTIONS` lists the ones that
stay, each with its reason.

**No test-only methods.**  Every public method and property is
mentioned, by the name scan above, outside its own ``def`` by some
non-test file.  Only names nobody mentions are flagged, so a method
that shares its name with a used one is never reported;
:data:`KNOWN_TEST_ONLY_METHODS` lists the oracles and golden producers
that stay.  Stale entries in either table are violations, as above.

Run from the repo root (CI's lint job does, and a tier-1 test wraps
it):

    python tools/check_layering.py

It ends with the surface it counted: options and public methods.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, NamedTuple, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
_REPRO = REPO_ROOT / "src" / "repro"
PROTOCOL_DIR = _REPRO / "protocol"
OBS_DIR = _REPRO / "obs"
DATAPLANE_DIR = _REPRO / "dataplane"
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

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
}

#: Dataclasses whose fields are counters, results or state, not
#: settings: the option pass skips a dataclass whose name ends so.
NOT_CONFIG_SUFFIXES = ("Stats", "Report", "Result", "Outcome", "State",
                       "Summary", "Trajectory", "Log", "Graph", "Info")

#: Options (``module.function.param``, ``module.Class.method.param``,
#: ``module.Class.field``) or whole functions, classes and modules whose
#: options no non-test caller sets, each with the reason they stay.
KNOWN_TEST_ONLY_OPTIONS: dict[str, str] = {
    # Deployment addresses.
    "net.peer.PeerNode.host": "deployment address the peer listens on",
    "obs.http.MetricsServer.host": "deployment address of the scrape endpoint",
    # The frozen surface: benchmarks/e2e/trace.py wraps these by name.
    "gf.kernels": "kernel surface kept whole: trace.py wraps its entry "
                  "points, the backend tests check each out= path",
    "coding.wire.encode_packets_into": "frozen: named in trace.py's FUNCTIONS",
    "coding.wire.read_frame_at": "frozen: named in trace.py's FUNCTIONS",
    # Set, but through an alias the bare-name scan cannot follow.
    "sim.session.file_download.seed":
        "`repro scenario` calls each preset with seed= through a table",
    "sim.session.flash_crowd.seed":
        "`repro scenario` calls each preset with seed= through a table",
}

#: Public methods (``module.Class.name``) no non-test file calls, each
#: with the reason it stays.
KNOWN_TEST_ONLY_METHODS: dict[str, str] = {
    # Oracles and golden producers.
    "core.matrix.ThreadMatrix.to_dense":
        "oracle: the dense 0/1 matrix the flow and defect tests check against",
    "core.topology.OverlayGraph.in_degree":
        "oracle: degree checks of the built overlay graphs",
    "core.topology.OverlayGraph.out_degree":
        "oracle: degree checks of the built overlay graphs",
    "core.topology.OverlayGraph.edge_count":
        "oracle: edge counts of the built overlay graphs",
    "core.topology.OverlayGraph.is_acyclic":
        "invariant: the curtain overlay is a DAG (ROADMAP 5a)",
    "core.random_graph.RandomGraphOverlay.is_acyclic":
        "invariant: the §6 overlay stays a DAG under churn (ROADMAP 5a)",
    "protocol.trace.EngineLog.effect_reprs":
        "golden producer: the conformance goldens pin its output",
    "sim.report.RunReport.mean_unique_fraction":
        "pinned by tests/goldens/{store_forward,rarest_first}.json",
    # Retired with the private-writer route.
    "net.testing.scenarios.ChaosHarness.congest":
        "ROADMAP 7 retires it with the private-writer route",
    "net.testing.scenarios.ChaosHarness.uncongest":
        "ROADMAP 7 retires it with the private-writer route",
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


def _mentions(node: ast.AST) -> set[str]:
    """Names ``node`` mentions — as a ``Name``, an ``Attribute`` or an
    identifier string — less each definition's mentions of its own name."""
    found: set[str] = set()
    for child in ast.iter_child_nodes(node):
        found |= _mentions(child)
    if isinstance(node, ast.Name):
        found.add(node.id)
    elif isinstance(node, ast.Attribute):
        found.add(node.attr)
    elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
          and node.value.isidentifier()):
        found.add(node.value)
    elif isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
        found.discard(node.name)
    return found


def _references(tree: ast.Module) -> set[str]:
    """Names a module mentions, outside imports, ``__all__`` and each
    definition's mentions of its own name."""
    found: set[str] = set()
    for statement in tree.body:
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            continue
        targets = (statement.targets if isinstance(statement, ast.Assign)
                   else [getattr(statement, "target", None)])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            continue
        found |= _mentions(statement)
    return found


def _covers(entry: str, dotted: str) -> bool:
    return (dotted + ".").startswith(entry + ".")


def _judge(unused: dict[str, tuple[Path, int]], defined: Iterator[str],
           known: dict[str, str], table: str, complaint: str) -> list[str]:
    """One string per ``unused`` name no ``known`` entry covers, and per
    ``known`` entry that covers none of them (stale)."""
    violations = []
    excused: set[str] = set()
    for dotted, (path, lineno) in unused.items():
        entry = next((e for e in known if _covers(e, dotted)), None)
        if entry is None:
            violations.append(f"{path}:{lineno}: {dotted} {complaint}")
        else:
            excused.add(entry)
    defined = list(defined)
    for entry in sorted(set(known) - excused):
        named = any(_covers(entry, dotted) for dotted in defined)
        violations.append(f"{table}[{entry!r}]: " + (
            "now has a non-test caller" if named else "names nothing"))
    return violations


def check_unused_names(root: Path = _REPRO,
                       caller_roots: Optional[list[Path]] = None) -> list[str]:
    """One string per public top-level ``def``/``class`` that only tests
    (or nothing) mention, and per stale :data:`KNOWN_TEST_ONLY` entry."""
    modules = _tree_modules(root)
    definitions: dict[str, tuple[Path, int]] = {}
    uncalled: set[str] = set()
    referenced: set[str] = set()
    for module, path in modules.items():
        tree = ast.parse(path.read_text(), filename=str(path))
        for statement in tree.body:
            if (isinstance(statement, (*_FUNCTIONS, ast.ClassDef))
                    and not statement.name.startswith("_")):
                dotted = f"{module}.{statement.name}"
                definitions[dotted] = (path, statement.lineno)
                if module in KNOWN_UNCALLED:
                    uncalled.add(dotted)
        referenced |= _references(tree)
    for path in _caller_files(caller_roots):
        referenced |= _references(ast.parse(path.read_text(), filename=str(path)))
    unused = {dotted: where for dotted, where in definitions.items()
              if dotted.rpartition(".")[2] not in referenced
              and dotted not in uncalled}
    return _judge(unused, iter(definitions), KNOWN_TEST_ONLY,
                  "KNOWN_TEST_ONLY", "is used by no non-test file")


# ----------------------------------------------------------------------
# No test-only options or methods


def _bare(node: ast.expr) -> Optional[str]:
    """The name a callee goes by: ``f`` for ``f`` and for ``x.y.f``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class _Option(NamedTuple):
    #: ``module.function.param``, ``module.Class.method.param``, or
    #: ``module.Class.name`` for a constructor parameter or a field.
    key: str
    path: Path
    lineno: int
    #: The bare names a call reaching it goes by: the function or method
    #: name, or the class and each subclass that inherits the parameter.
    callees: frozenset[str]
    name: str
    #: Index among the positional arguments (``self`` excluded), or None
    #: for a keyword-only parameter.
    position: Optional[int]
    default: ast.expr
    #: A dataclass field, which ``replace`` and attribute assignment set.
    is_field: bool


def _dataclass_fields(cls: ast.ClassDef, classes: dict[str, ast.ClassDef]
                      ) -> list[ast.AnnAssign]:
    """``cls``'s fields in constructor order, inherited ones first."""
    fields: dict[str, ast.AnnAssign] = {}
    for base in cls.bases:
        parent = classes.get(_bare(base) or "")
        if parent is not None and _is_dataclass(parent):
            fields.update((f.target.id, f)
                          for f in _dataclass_fields(parent, classes))
    for statement in cls.body:
        if (isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)):
            fields[statement.target.id] = statement
    return list(fields.values())


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(_bare(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in cls.decorator_list)


def _heirs(cls: ast.ClassDef, classes: dict[str, ast.ClassDef],
           overrides) -> frozenset[str]:
    """``cls``'s name and its subclasses' that don't ``overrides(sub)``."""
    names = {cls.name}
    grew = True
    while grew:
        grew = False
        for other in classes.values():
            if (other.name not in names and not overrides(other)
                    and any(_bare(b) in names for b in other.bases)):
                names.add(other.name)
                grew = True
    return frozenset(names)


def _parameters(fn: ast.FunctionDef, skip_first: bool
                ) -> Iterator[tuple[str, Optional[int], ast.expr]]:
    """``(name, position, default)`` of ``fn``'s defaulted parameters."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args][int(skip_first):]
    first = len(positional) - len(args.defaults)
    for index, default in enumerate(args.defaults):
        yield positional[first + index].arg, first + index, default
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None, default


def _options(root: Path = _REPRO) -> list[_Option]:
    """Every option in the tree: the defaulted parameters of public
    functions, methods and constructors, and the defaulted fields of
    config dataclasses (any not named for :data:`NOT_CONFIG_SUFFIXES`)."""
    parsed = [(module, path, ast.parse(path.read_text(), filename=str(path)))
              for module, path in _tree_modules(root).items()]
    classes = {node.name: node for _m, _p, tree in parsed
               for node in tree.body if isinstance(node, ast.ClassDef)}
    options = []
    for module, path, tree in parsed:
        if module in KNOWN_UNCALLED:
            continue
        for node in tree.body:
            if isinstance(node, _FUNCTIONS) and not node.name.startswith("_"):
                options.extend(
                    _Option(f"{module}.{node.name}.{name}", path,
                            default.lineno, frozenset({node.name}), name,
                            position, default, False)
                    for name, position, default in _parameters(node, False))
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            prefix = f"{module}.{node.name}"
            if _is_dataclass(node) and not node.name.endswith(NOT_CONFIG_SUFFIXES):
                order = [f.target.id for f in _dataclass_fields(node, classes)]
                inherited = {f.target.id for base in node.bases
                             if _bare(base) in classes
                             for f in _dataclass_fields(classes[_bare(base)], classes)}
                callees = _heirs(node, classes, lambda sub: False)
                for field in node.body:
                    # A redeclared inherited field is the base's option.
                    if (isinstance(field, ast.AnnAssign) and field.value is not None
                            and isinstance(field.target, ast.Name)
                            and not field.target.id.startswith("_")
                            and field.target.id not in inherited):
                        name = field.target.id
                        options.append(_Option(
                            f"{prefix}.{name}", path, field.lineno, callees,
                            name, order.index(name), field.value, True))
            for method in node.body:
                if not isinstance(method, _FUNCTIONS):
                    continue
                if method.name == "__init__":
                    owner, callees = prefix, _heirs(node, classes, lambda sub: any(
                        isinstance(s, _FUNCTIONS) and s.name == "__init__"
                        for s in sub.body))
                elif not method.name.startswith("_"):
                    owner = f"{prefix}.{method.name}"
                    callees = frozenset({method.name})
                else:
                    continue
                static = any(_bare(d) == "staticmethod"
                             for d in method.decorator_list)
                options.extend(
                    _Option(f"{owner}.{name}", path, default.lineno, callees,
                            name, position, default, False)
                    for name, position, default in _parameters(method, not static))
    return options


class _Call(NamedTuple):
    callee: str
    #: Positional arguments up to the first ``*args``.
    args: list[ast.expr]
    #: True when a ``*args`` follows them (it may reach any position).
    starred: bool
    #: Keyword arguments; None stands for a value the scan cannot see.
    keywords: dict[str, Optional[ast.expr]]
    #: A ``**mapping`` the scan cannot read: it may set anything.
    splat: bool


class _CallScan(ast.NodeVisitor):
    """The calls, forwarded ``**kwargs`` and attribute assignments of
    one file."""

    def __init__(self, tree: ast.Module) -> None:
        self.calls: list[_Call] = []
        #: (callee, forwarder, forwarder's named parameters): a call
        #: passing the forwarder's own ``**kwargs`` on to ``callee``.
        self.forwards: list[tuple[str, str, frozenset[str]]] = []
        #: Names assigned as an attribute of anything but ``self``.
        self.assigned: set[str] = set()
        self._classes: list[ast.ClassDef] = []
        self._functions: list[ast.FunctionDef] = []
        #: Module-level dict literals: their keys are what a ``**`` sets.
        self._dicts: dict[str, list[str]] = {}
        for statement in tree.body:
            if (isinstance(statement, ast.Assign) and len(statement.targets) == 1
                    and isinstance(statement.targets[0], ast.Name)):
                keys = _literal_keys(statement.value)
                if keys is not None:
                    self._dicts[statement.targets[0].id] = keys
        self.visit(tree)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._classes.append(node)
        self.generic_visit(node)
        self._classes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._functions.append(node)
        self.generic_visit(node)
        self._functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _assign(self, targets: list[ast.expr]) -> None:
        for target in targets:
            for node in ast.walk(target):
                if (isinstance(node, ast.Attribute)
                        and not (isinstance(node.value, ast.Name)
                                 and node.value.id == "self")):
                    self.assigned.add(node.attr)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._assign(node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._assign([node.target])
        self.generic_visit(node)

    visit_AnnAssign = visit_AugAssign

    def _forward(self, callee: str, forwarder: ast.FunctionDef) -> None:
        own = forwarder.name
        if own == "__init__" and self._classes:
            own = self._classes[-1].name
        named = frozenset(a.arg for a in (
            *forwarder.args.posonlyargs, *forwarder.args.args,
            *forwarder.args.kwonlyargs))
        self.forwards.append((callee, own, named))

    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        func, args = node.func, list(node.args)
        callees = [_bare(func)]
        if callees[0] == "partial" and args:
            callees, args = [_bare(args[0])], args[1:]
        elif (isinstance(func, ast.Attribute) and func.attr == "__init__"
              and isinstance(func.value, ast.Call)
              and _bare(func.value.func) == "super" and self._classes):
            callees = [_bare(base) for base in self._classes[-1].bases]
        elif callees[0] == "cls" and self._classes:
            callees = [self._classes[-1].name]
        elif callees[0] == "setattr" and len(args) > 1:
            # A literal key is an attribute assignment; a computed one, in
            # a function taking ``**kwargs``, sets what its callers pass.
            key, forwarder = args[1], self._functions[-1] if self._functions else None
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                self.assigned.add(key.value)
            elif forwarder is not None and forwarder.args.kwarg is not None:
                self._forward("replace", forwarder)
        starred = next((i for i, a in enumerate(args)
                        if isinstance(a, ast.Starred)), None)
        keywords: dict[str, Optional[ast.expr]] = {}
        splat = False
        for keyword in node.keywords:
            if keyword.arg is not None:
                keywords[keyword.arg] = keyword.value
                continue
            mapping = keyword.value
            name = mapping.id if isinstance(mapping, ast.Name) else None
            forwarder = self._functions[-1] if self._functions else None
            if name in self._dicts:
                keywords.update(dict.fromkeys(self._dicts[name]))
            elif (forwarder is not None and forwarder.args.kwarg is not None
                  and forwarder.args.kwarg.arg == name):
                for callee in filter(None, callees):
                    self._forward(callee, forwarder)
            else:
                keys = _literal_keys(mapping)
                if keys is None:
                    splat = True
                else:
                    keywords.update(dict.fromkeys(keys))
        for callee in callees:
            if callee:
                self.calls.append(_Call(
                    callee, args if starred is None else args[:starred],
                    starred is not None, keywords, splat))


def _literal_keys(node: ast.expr) -> Optional[list[str]]:
    """The keys of a dict display or ``dict(k=...)`` call, else None."""
    if isinstance(node, ast.Dict) and all(
            isinstance(k, ast.Constant) and isinstance(k.value, str)
            for k in node.keys):
        return [k.value for k in node.keys]
    if (isinstance(node, ast.Call) and _bare(node.func) == "dict"
            and not node.args and all(k.arg for k in node.keywords)):
        return [k.arg for k in node.keywords]
    return None


def _same(value: Optional[ast.expr], default: ast.expr) -> bool:
    """True when ``value`` is a literal equal to the literal ``default``."""
    if value is None:
        return False
    try:
        a, b = ast.literal_eval(value), ast.literal_eval(default)
    except ValueError:
        return False
    return type(a) is type(b) and a == b


def _settings(root: Path, caller_roots: Optional[list[Path]]
              ) -> tuple[dict[str, list[_Call]], set[str]]:
    """Every non-test call by callee name, with each forwarded
    ``**kwargs`` followed to its destination, and the field names
    ``replace`` or an attribute assignment sets."""
    calls: dict[str, list[_Call]] = {}
    forwards: list[tuple[str, str, frozenset[str]]] = []
    fields: set[str] = set()
    paths = [*sorted(root.rglob("*.py")), *_caller_files(caller_roots)]
    for path in paths:
        scan = _CallScan(ast.parse(path.read_text(), filename=str(path)))
        for call in scan.calls:
            calls.setdefault(call.callee, []).append(call)
        forwards.extend(scan.forwards)
        fields |= scan.assigned
    seen: set[tuple[str, tuple[str, ...], bool]] = set()
    while True:
        fresh = []
        for callee, forwarder, named in forwards:
            for call in calls.get(forwarder, ()):
                extra = tuple(sorted(set(call.keywords) - named))
                if (extra or call.splat) and (callee, extra, call.splat) not in seen:
                    seen.add((callee, extra, call.splat))
                    fresh.append(_Call(callee, [], False,
                                       dict.fromkeys(extra), call.splat))
        if not fresh:
            break
        for call in fresh:
            calls.setdefault(call.callee, []).append(call)
    for call in calls.get("replace", ()):
        fields |= set(call.keywords)
        if call.splat:
            fields.add("*")
    return calls, fields


def _is_set(option: _Option, calls: dict[str, list[_Call]],
            fields: set[str]) -> bool:
    if option.is_field and (option.name in fields or "*" in fields):
        return True
    for callee in option.callees:
        for call in calls.get(callee, ()):
            if call.splat:
                return True
            if option.name in call.keywords:
                value = call.keywords[option.name]
            elif option.position is not None and option.position < len(call.args):
                value = call.args[option.position]
            elif option.position is not None and call.starred:
                return True
            else:
                continue
            if not _same(value, option.default):
                return True
    return False


def check_test_only_options(root: Path = _REPRO,
                            caller_roots: Optional[list[Path]] = None
                            ) -> list[str]:
    """One string per option no non-test call site sets to anything but
    its default, and per stale :data:`KNOWN_TEST_ONLY_OPTIONS` entry."""
    options = _options(root)
    calls, fields = _settings(root, caller_roots)
    unused = {option.key: (option.path, option.lineno) for option in options
              if not _is_set(option, calls, fields)}
    return _judge(unused, (option.key for option in options),
                  KNOWN_TEST_ONLY_OPTIONS, "KNOWN_TEST_ONLY_OPTIONS",
                  "is set by no non-test caller")


def _methods(root: Path = _REPRO) -> dict[str, tuple[Path, int]]:
    """Every public method and property, as ``module.Class.name``."""
    methods = {}
    for module, path in _tree_modules(root).items():
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _FUNCTIONS) and not item.name.startswith("_"):
                        methods[f"{module}.{node.name}.{item.name}"] = (
                            path, item.lineno)
    return methods


def check_test_only_methods(root: Path = _REPRO,
                            caller_roots: Optional[list[Path]] = None
                            ) -> list[str]:
    """One string per public method or property whose bare name no
    non-test file mentions outside its own ``def``, and per stale
    :data:`KNOWN_TEST_ONLY_METHODS` entry."""
    methods = _methods(root)
    referenced: set[str] = set()
    for path in [*sorted(root.rglob("*.py")), *_caller_files(caller_roots)]:
        referenced |= _references(ast.parse(path.read_text(), filename=str(path)))
    unused = {dotted: where for dotted, where in methods.items()
              if dotted.rpartition(".")[2] not in referenced}
    return _judge(unused, iter(methods), KNOWN_TEST_ONLY_METHODS,
                  "KNOWN_TEST_ONLY_METHODS", "is called by no non-test file")


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
        ("no test-only option", check_test_only_options),
        ("no test-only method", check_test_only_methods),
    ):
        violations = checker()
        if violations:
            print(f"{name} violations:", file=sys.stderr)
            for violation in violations:
                print(f"  {violation}", file=sys.stderr)
            status = 1
        else:
            print(f"{name}: clean")
    print(f"surface: {len(_options())} options, {len(_methods())} public methods")
    return status


if __name__ == "__main__":
    sys.exit(main())
