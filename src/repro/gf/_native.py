"""Compile-once loader for the native GF(2^8) kernels and frame codec
(``_gf256.c``).

:func:`load` is called once, when :mod:`repro.gf.kernels` is imported.
It compiles the C file beside this module with the system ``cc`` into a
user-private cache directory and imports the result as a CPython
extension; later imports, in any process, find the cached object.  The
object links numpy's ``libnpyrandom.a`` (shipped with numpy for
extensions), so the coefficient draws are numpy's bounded-integer code
itself, and the frame primitives build their arrays with numpy's C API.
It returns ``None`` — and ``kernels`` stays on numpy — when there is no
compiler, no ``Python.h``, no numpy random library or header, or no
usable cache directory, and never raises.  A built object that does not
reproduce a known product, a frame with zlib's CRC-32,
``Generator.integers``' stream, ``Generator.choice``'s sample or the
numpy reference's insertion is not used either.

The cache is ``$XDG_CACHE_HOME/repro-gf`` (``~/.cache/repro-gf``), one
file per ``hash(source + flags + compiler + numpy + interpreter ABI)``; delete
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
import struct
import subprocess
import sysconfig
import tempfile
import zlib
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
#: numpy's C headers (``numpy/random/distributions.h``) and the static
#: library behind them that the draws link.
NUMPY_INCLUDE = Path(np.get_include())
NPYRANDOM = Path(np.__file__).with_name("random") / "lib" / "libnpyrandom.a"
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
    if not (NUMPY_INCLUDE / "numpy" / "random" / "distributions.h").is_file():
        raise _Unavailable(f"no numpy/random/distributions.h in {NUMPY_INCLUDE}")
    if not NPYRANDOM.is_file():
        raise _Unavailable(f"no {NPYRANDOM}")
    command = [cc, *FLAGS, f"-I{include}", f"-I{NUMPY_INCLUDE}"]
    link = [str(NPYRANDOM), "-lm"]
    compiler, library = os.stat(cc), NPYRANDOM.stat()
    # Everything the object's bytes depend on, and not where the source
    # sits: every checkout of one version shares one cached object.
    key = hashlib.sha256(repr((
        SOURCE.read_bytes(), command, link, os.path.realpath(cc),
        compiler.st_size, compiler.st_mtime_ns, np.__version__,
        library.st_size, library.st_mtime_ns,
        sysconfig.get_config_var("EXT_SUFFIX"), sysconfig.get_platform(),
    )).encode()).hexdigest()[:20]

    directory, keep = _cache_dir(cache_root)
    try:
        target = directory / f"_gf256-{key}.so"
        try:
            module = _import(target)
        except (OSError, ImportError):
            # Absent, truncated or corrupt: (re)build over it.
            _build([*command, str(SOURCE), *link], target)
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
    """Compile and link ``command``, seal the object with a digest
    trailer, publish it by atomic rename."""
    with tempfile.TemporaryDirectory(dir=target.parent) as work:
        built = Path(work, "_gf256.so")
        done = subprocess.run([*command, "-o", str(built)],
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
    """Known answers the built object must give before it is used.

    One product whose coefficient row holds every scalar, over a width
    that spans a 128-byte block, a 32- and a 16-byte step and a byte
    tail; frames from ``frame_rows`` of both heads, over 1 KiB long and
    under 64 bytes, against a ``struct`` and ``zlib.crc32`` reference,
    and one of each length opened back by ``open_frame``; the draws of
    ``Generator.integers`` for both ``low`` values, through a zero row
    that ends a ``low=0`` draw early, and the generator state after
    them; the samples of ``Generator.choice`` without replacement,
    through a full permutation and a one-element sample, and the state
    after them; and every insertion into a 4 x 12 system, as the numpy
    reference makes it.  A numpy whose ``bitgen_t`` or bounded-integer
    algorithm moved fails here and leaves the kernels on numpy, instead
    of shifting every seeded run.
    """
    rows = np.random.default_rng(3).integers(0, 256, (256, 183), dtype=np.uint8)
    coeffs = (np.arange(256, dtype=np.uint8) * 167)[None, :]
    out = np.empty((1, 183), dtype=np.uint8)
    module.mad(out, coeffs, rows)
    if not np.array_equal(out[0], np.bitwise_xor.reduce(MUL[coeffs[0][:, None], rows])):
        raise _BuildFailed("the built kernels miscompute a known product")
    # Row 1 of each call is one 1 among zeros, the others are mixed.
    # The long frames fold where the CPU folds; the short ones run on
    # the CRC tables alone and read every entry of every table, in all
    # likelihood (each is missed with odds under 1e-12).
    heads = (b"plain-head", b"unit-head!")
    draw = np.random.default_rng(5)
    for count, width in ((2, 1100), (1024, 40)):
        coefficients = draw.integers(2, 256, (count, 9), dtype=np.uint8)
        coefficients[1] = np.eye(1, 9, 4, dtype=np.uint8)
        payload = draw.integers(0, 256, (count, width), dtype=np.uint8)
        frames = module.frame_rows(coefficients, payload, b"pre", *heads)
        opened = module.open_frame(frames[0], 3, len(heads[0]), 9, width)
        if (len(frames) != count or opened is None
                or not np.array_equal(opened[0], coefficients[0])
                or not np.array_equal(opened[1], payload[0])):
            raise _BuildFailed("the built frame codec leaves CRC-32 or the layout")
        for i, frame in enumerate(frames):
            checked = heads[i == 1] + coefficients[i].tobytes() + payload[i].tobytes()
            if frame != b"pre" + checked + struct.pack(">I", zlib.crc32(checked)):
                raise _BuildFailed("the built frame codec leaves CRC-32 or the layout")
    # Seed 120's one-byte stream reads 0 at its fifth draw.
    for low, width, drawn in ((1, 37, 6), (0, 37, 6), (0, 1, 5)):
        ours, theirs = np.random.default_rng(120), np.random.default_rng(120)
        draws = np.empty((6, width), dtype=np.uint8)
        expected = [theirs.integers(low, 256, size=width, dtype=np.uint8)
                    for _ in range(drawn)]
        if (module.draw_rows(ours, draws, low) != drawn
                or not np.array_equal(draws[:drawn], expected)
                or ours.bit_generator.state != theirs.bit_generator.state):
            raise _BuildFailed("the built draws leave Generator.integers' stream")
    ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
    for n, d in ((32, 2), (8, 8), (5, 1), (40, 7)):
        expected = theirs.choice(n, size=d, replace=False).tolist()
        if module.draw_distinct(ours, n, d) != expected:
            raise _BuildFailed("the built sample is not Generator.choice's")
    if ours.bit_generator.state != theirs.bit_generator.state:
        raise _BuildFailed("the built sample leaves Generator.choice's stream")
    from .kernels import NUMPY  # defined before kernels loads this module
    packets = np.random.default_rng(3).integers(0, 256, (6, 12), dtype=np.uint8)
    packets[2] = packets[0] ^ packets[1]    # dependent on the first two
    packets[4] = 0
    systems = []
    for backend in (module, NUMPY):
        basis = np.zeros((4, 12), dtype=np.uint8)
        pivot_cols = np.zeros(4, dtype=np.intp)
        rank, pivots = 0, []
        for packet in packets:
            pivots.append(backend.insert_row(basis, pivot_cols, rank,
                                             packet[:4], packet[4:]))
            rank += pivots[-1] >= 0
        systems.append((pivots, basis.tobytes(), pivot_cols.tobytes()))
    if systems[0] != systems[1]:
        raise _BuildFailed("the built decoder insertion leaves the reference's")
