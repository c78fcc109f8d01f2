#!/usr/bin/env python
"""Layering contract for the sans-IO protocol core.

``repro.protocol`` must stay pure: event in, effects out, no I/O and no
knowledge of any driver.  This checker walks the package's ASTs and
rejects any import of

* ``asyncio`` (or any stdlib I/O loop: ``socket``, ``selectors``),
* ``repro.net`` / ``repro.sim`` — the drivers that pump the engines
  must depend on the core, never the reverse —

whether spelled absolute or relative (``from ..net import ...``).

The same contract covers the ``repro.obs`` core: registries, flight
recorder, exporters, and instruments are snapshot-on-read data
structures any driver may embed, so everything except the explicitly
I/O module ``obs/http.py`` must stay free of event loops and driver
imports.  (``obs`` may import ``repro.protocol`` — instruments classify
engine effects — but never the reverse; engines reach obs only through
duck-typed attributes.)

``repro.dataplane`` — the data-plane twin of the protocol core — is
held to the identical bans: it may import the pure coding layer (the
recoder/encoder it wraps) and the protocol core's trace vocabulary, but
never an event loop or a driver package.

Run from the repo root (CI's lint job does, and a tier-1 test wraps
it):

    python tools/check_layering.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"
PROTOCOL_DIR = _REPRO / "protocol"
OBS_DIR = _REPRO / "obs"
DATAPLANE_DIR = _REPRO / "dataplane"

#: Modules of ``repro.obs`` that are allowed to do I/O (everything else
#: in the package must stay sans-IO like the protocol core).
OBS_IO_MODULES = {"http.py"}

#: Module roots the protocol core may never import.
BANNED_ROOTS = {
    "asyncio",
    "socket",
    "selectors",
    "repro.net",
    "repro.sim",
}

#: Sibling packages of ``repro.protocol`` that are off-limits when
#: reached by relative import (``from ..net import ...``).
BANNED_SIBLINGS = {"net", "sim"}


def _banned(module: str) -> bool:
    return any(
        module == root or module.startswith(root + ".")
        for root in BANNED_ROOTS
    )


def check_file(path: Path) -> list[str]:
    """Return one violation string per banned import in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    violations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _banned(alias.name):
                    violations.append(
                        f"{path}:{node.lineno}: imports {alias.name!r}"
                    )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and _banned(module):
                violations.append(
                    f"{path}:{node.lineno}: imports from {module!r}"
                )
            elif node.level >= 2:
                # from ..<sibling> import ... escapes the package; only
                # pure layers (repro.core, repro.coding) are allowed.
                root = module.split(".")[0] if module else ""
                if root in BANNED_SIBLINGS:
                    violations.append(
                        f"{path}:{node.lineno}: imports from "
                        f"{'.' * node.level}{module!r}"
                    )
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


def main() -> int:
    status = 0
    for name, directory, checker in (
        ("repro.protocol", PROTOCOL_DIR, check_protocol_package),
        ("repro.obs core", OBS_DIR, check_obs_package),
        ("repro.dataplane", DATAPLANE_DIR, check_dataplane_package),
    ):
        if not directory.is_dir():
            print(f"error: {directory} not found", file=sys.stderr)
            return 2
        violations = checker()
        if violations:
            print(f"{name} layering violations:", file=sys.stderr)
            for violation in violations:
                print(f"  {violation}", file=sys.stderr)
            status = 1
        else:
            print(f"{name} layering: clean")
    return status


if __name__ == "__main__":
    sys.exit(main())
