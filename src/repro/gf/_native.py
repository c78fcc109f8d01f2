"""Compile-once loader for the native GF(2^8) kernels (``_gf256.c``).

:func:`load` is called once, when :mod:`repro.gf.kernels` is imported.
It compiles the C file beside this module with the system ``cc`` into a
user-private cache directory and imports the result as a CPython
extension; later imports, in any process, find the cached object.  It
returns ``None`` — and ``kernels`` stays on numpy — when there is no
compiler, no ``Python.h`` or no usable cache directory, and never
raises.

The cache is ``$XDG_CACHE_HOME/repro-gf`` (``~/.cache/repro-gf``), one
file per ``hash(source + flags + compiler + interpreter ABI)``; delete
the directory to force a rebuild.  Loading a shared object is code
execution, so the directory is created ``0700`` and is not used if
someone else owns it or may write to it (a fresh ``mkdtemp`` serves that
one process instead), objects are published by atomic rename, and each
carries a SHA-256 trailer that is checked before ``dlopen`` sees it.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import logging
import os
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from types import ModuleType
from typing import Optional

import numpy as np

from .tables import MUL

log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_gf256.c")
#: No ``-march``: the C picks its SIMD path at run time, so a cached
#: object is valid on every host of the same architecture.
FLAGS = ("-O2", "-fPIC", "-shared")
_DIGEST = hashlib.sha256().digest_size


def load(cache_root: Optional[Path] = None) -> Optional[ModuleType]:
    """The native kernel module, built if need be; ``None`` if it cannot be."""
    try:
        return _load(cache_root)
    except _Unavailable as exc:
        log.info("GF(2^8) kernels run on numpy: %s", exc)
    except _BuildFailed as exc:
        log.warning("GF(2^8) kernels run on numpy: building %s failed:\n%s",
                    SOURCE.name, exc)
    except (OSError, ImportError) as exc:
        log.warning("GF(2^8) kernels run on numpy: %s", exc)
    return None


class _Unavailable(Exception):
    """Nothing to build with: the expected state of a compiler-less host."""


class _BuildFailed(Exception):
    """A compiler is present and rejected the source, or built it wrong."""


def _load(cache_root: Optional[Path]) -> ModuleType:
    cc = shutil.which("cc")
    if cc is None:
        raise _Unavailable("no `cc` on PATH")
    include = sysconfig.get_paths()["include"]
    if not Path(include, "Python.h").is_file():
        raise _Unavailable(f"no Python.h in {include}")
    command = [cc, *FLAGS, f"-I{include}"]
    compiler = os.stat(cc)
    # Everything the object's bytes depend on, and not where the source
    # sits: every checkout of one version shares one cached object.
    key = hashlib.sha256(repr((
        SOURCE.read_bytes(), command, os.path.realpath(cc), compiler.st_size,
        compiler.st_mtime_ns, sysconfig.get_config_var("EXT_SUFFIX"),
        sysconfig.get_platform(),
    )).encode()).hexdigest()[:20]

    directory, keep = _cache_dir(cache_root)
    try:
        target = directory / f"_gf256-{key}.so"
        try:
            module = _import(target)
        except (OSError, ImportError):
            # Absent, truncated or corrupt: (re)build over it.
            _build(command, target)
            module = _import(target)
    finally:
        if not keep:
            shutil.rmtree(directory, ignore_errors=True)
    _self_check(module)
    return module


def _cache_dir(cache_root: Optional[Path]) -> tuple[Path, bool]:
    """The directory to build in, and whether it outlives this process."""
    if cache_root is None:
        cache_root = Path(os.environ.get("XDG_CACHE_HOME")
                          or Path.home() / ".cache")
    directory = Path(cache_root) / "repro-gf"
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    status = directory.stat()
    if status.st_uid == os.getuid() and not status.st_mode & 0o022:
        return directory, True
    log.warning("%s is owned or writable by another user; building the "
                "GF(2^8) kernels in a temporary directory instead", directory)
    return Path(tempfile.mkdtemp(prefix="repro-gf-")), False


def _build(command: list[str], target: Path) -> None:
    """Compile, seal with a digest trailer, publish by atomic rename."""
    with tempfile.TemporaryDirectory(dir=target.parent) as work:
        built = Path(work, "_gf256.so")
        done = subprocess.run([*command, str(SOURCE), "-o", str(built)],
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise _BuildFailed(done.stderr.strip())
        blob = built.read_bytes()
        built.write_bytes(blob + hashlib.sha256(blob).digest())
        os.replace(built, target)


def _import(path: Path) -> ModuleType:
    blob = path.read_bytes()
    if hashlib.sha256(blob[:-_DIGEST]).digest() != blob[-_DIGEST:]:
        raise ImportError(f"{path} fails its digest")
    name = f"{__package__}._gf256"
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    spec = importlib.util.spec_from_file_location(name, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def _self_check(module: ModuleType) -> None:
    """One product spanning a SIMD body, both tails and a zero scalar."""
    rows = (np.arange(5 * 183) * 40503 >> 4).astype(np.uint8).reshape(5, 183)
    coeffs = np.array([[1, 0, 2, 141, 255]], dtype=np.uint8)
    out = np.empty((1, 183), dtype=np.uint8)
    module.mad(out, coeffs, rows)
    if not np.array_equal(out[0], np.bitwise_xor.reduce(MUL[coeffs[0][:, None], rows])):
        raise _BuildFailed("the built kernels miscompute a known product")
