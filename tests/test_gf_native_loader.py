"""The compile-once loader behind ``repro.gf.kernels`` is production code.

It runs inside ``import repro`` on every host, so every way it can fail
must end in the numpy backend and one log line, never an exception —
and it loads a shared object, so where that object may come from is a
security boundary.
"""

import hashlib
import logging
import os
import shutil
import stat
import subprocess
import sys
import types

import pytest

from repro.gf import _native

pytestmark = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler: nothing to build"
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE = "from repro.gf import kernels; print(kernels.BACKEND)"


def probe(cache_root, **env):
    """``kernels.BACKEND`` as a fresh interpreter with this cache sees it."""
    return subprocess.Popen(
        [sys.executable, "-c", PROBE], cwd=REPO, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "XDG_CACHE_HOME": str(cache_root), **env},
    )


def objects(cache_root):
    return sorted((cache_root / "repro-gf").iterdir())


@pytest.fixture
def builds(monkeypatch):
    """Targets ``_native._build`` was asked to produce, in order."""
    calls = []
    real = _native._build

    def counting(command, target):
        calls.append(target)
        real(command, target)

    monkeypatch.setattr(_native, "_build", counting)
    return calls


def test_empty_cache_builds_once_into_a_private_directory(tmp_path, builds):
    first = _native.load(tmp_path)
    again = _native.load(tmp_path)
    assert first is not None and again is not None
    assert first.isa == again.isa
    assert len(builds) == 1
    directory = tmp_path / "repro-gf"
    assert stat.S_IMODE(directory.stat().st_mode) == 0o700
    assert objects(tmp_path) == [builds[0]]     # no build litter


def test_two_processes_racing_on_an_empty_cache_both_load(tmp_path):
    racers = [probe(tmp_path) for _ in range(2)]
    for racer in racers:
        out, err = racer.communicate(timeout=90)
        assert racer.returncode == 0, err
        assert out.startswith("native-"), (out, err)
    assert len(objects(tmp_path)) == 1
    # Whoever lost the rename race left a whole object behind, not half.
    assert probe(tmp_path).communicate(timeout=90)[0].startswith("native-")


@pytest.mark.parametrize("damage", ["truncated", "garbage", "sealed_garbage"])
def test_damaged_cached_object_is_rebuilt(tmp_path, builds, damage):
    assert probe(tmp_path).communicate(timeout=90)[0].startswith("native-")
    (cached,) = objects(tmp_path)
    blob = cached.read_bytes()
    if damage == "truncated":
        cached.write_bytes(blob[: len(blob) // 2])
    elif damage == "garbage":
        cached.write_bytes(bytes(reversed(blob)))
    else:   # a valid digest over something dlopen() will refuse
        junk = b"not an ELF object" * 64
        cached.write_bytes(junk + hashlib.sha256(junk).digest())
    module = _native.load(tmp_path)
    assert module is not None
    assert builds == [cached]
    assert cached.read_bytes() == blob      # same compiler, same bytes


def test_compiler_that_rejects_the_source_warns_once_with_its_stderr(
        tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(_native, "FLAGS", (*_native.FLAGS, "--no-such-flag"))
    with caplog.at_level(logging.INFO, logger=_native.__name__):
        assert _native.load(tmp_path) is None
    (record,) = caplog.records
    assert record.levelno == logging.WARNING
    assert "no-such-flag" in record.getMessage()
    assert objects(tmp_path) == []


def test_no_compiler_on_path_is_quietly_numpy(tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("PATH", "")
    with caplog.at_level(logging.INFO, logger=_native.__name__):
        assert _native.load(tmp_path) is None
    (record,) = caplog.records
    assert record.levelno == logging.INFO
    assert not (tmp_path / "repro-gf").exists()
    out, err = probe(tmp_path, PATH="").communicate(timeout=90)
    assert (out.strip(), err) == ("numpy", "")


@pytest.mark.parametrize("missing", ["library", "header"])
def test_no_numpy_random_library_or_header_is_quietly_numpy(
        tmp_path, monkeypatch, caplog, builds, missing):
    if missing == "library":
        monkeypatch.setattr(_native, "NPYRANDOM", tmp_path / "libnpyrandom.a")
    else:
        monkeypatch.setattr(_native, "NUMPY_INCLUDE", tmp_path)
    with caplog.at_level(logging.INFO, logger=_native.__name__):
        assert _native.load(tmp_path) is None
    (record,) = caplog.records
    assert record.levelno == logging.INFO
    assert builds == []


def _skew(module, name, wrap):
    """``module`` with entry point ``name`` replaced by ``wrap(original)``."""
    entries = {key: getattr(module, key) for key in dir(module)
               if not key.startswith("__")}
    entries[name] = wrap(entries[name])
    return types.SimpleNamespace(**entries)


def _one_draw_too_many(draw_rows):
    def draw(rng, out, low):
        drawn = draw_rows(rng, out, low)
        rng.random()        # same rows, generator left elsewhere
        return drawn
    return draw


def _flip_a_basis_byte(insert_row):
    def insert(basis, pivot_cols, rank, coefficients, payload):
        pivot = insert_row(basis, pivot_cols, rank, coefficients, payload)
        basis[rank, -1] ^= 1
        return pivot
    return insert


@pytest.mark.parametrize("name, wrap, complaint", [
    ("draw_rows", _one_draw_too_many, "Generator.integers"),
    ("insert_row", _flip_a_basis_byte, "insertion"),
])
def test_object_that_strays_from_numpy_is_not_used(
        tmp_path, monkeypatch, caplog, name, wrap, complaint):
    """What a numpy whose ``bitgen_t`` or bounded-integer algorithm moved
    would look like: the load-time check refuses the object, so seeded
    runs keep numpy's stream on the numpy backend."""
    real = _native._import
    monkeypatch.setattr(_native, "_import",
                        lambda path: _skew(real(path), name, wrap))
    with caplog.at_level(logging.INFO, logger=_native.__name__):
        assert _native.load(tmp_path) is None
    (record,) = caplog.records
    assert record.levelno == logging.WARNING
    assert complaint in record.getMessage()


def test_unusable_cache_directory_is_numpy_with_one_line(tmp_path, caplog):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    with caplog.at_level(logging.INFO, logger=_native.__name__):
        assert _native.load(blocker) is None
    assert len(caplog.records) == 1
    out, err = probe(blocker).communicate(timeout=90)
    assert out.strip() == "numpy"
    assert len(err.splitlines()) == 1 and "Not a directory" in err


@pytest.mark.parametrize("threat", ["foreign_owner", "world_writable"])
def test_directory_others_control_is_not_loaded_from(
        tmp_path, monkeypatch, caplog, builds, threat):
    directory = tmp_path / "repro-gf"
    directory.mkdir()
    if threat == "foreign_owner":
        mine = os.getuid()
        monkeypatch.setattr(_native.os, "getuid", lambda: mine + 1)
    else:
        directory.chmod(0o777)
    with caplog.at_level(logging.WARNING, logger=_native.__name__):
        module = _native.load(tmp_path)
    assert module is not None               # still native: built elsewhere
    assert list(directory.iterdir()) == []
    (target,) = builds
    assert target.parent != directory
    assert not target.parent.exists()       # the stand-in does not outlive the load
    assert len(caplog.records) == 1
