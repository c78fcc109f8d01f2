"""Tier-1 wrapper around the layering contracts.

Imports under ``src/repro`` point downward along one declared package
order, the sans-IO cores never import an event loop or a socket, and no
module is a bystander that only its own tests import.  CI's lint job
runs ``tools/check_layering.py`` directly; this test keeps the contracts
enforced for anyone who only runs pytest, and shows the checker
rejecting planted violations.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_layering  # noqa: E402


def _plant(tmp_path, files: dict) -> Path:
    """A throwaway ``repro`` tree holding ``files`` (path -> source)."""
    root = tmp_path / "repro"
    for name, source in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        for package in path.relative_to(root).parents:
            (root / package / "__init__.py").touch()
    return root


class TestProtocolLayering:
    def test_protocol_package_is_sans_io(self):
        violations = check_layering.check_protocol_package()
        assert violations == []

    def test_obs_core_is_sans_io(self):
        violations = check_layering.check_obs_package()
        assert violations == []

    def test_dataplane_package_is_sans_io(self):
        violations = check_layering.check_dataplane_package()
        assert violations == []

    def test_obs_http_is_the_only_exempt_module(self):
        """The I/O escape hatch stays exactly one module wide."""
        assert check_layering.OBS_IO_MODULES == {"http.py"}
        assert (check_layering.OBS_DIR / "http.py").is_file()

    def test_checker_catches_absolute_import(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import asyncio\nfrom socket import socket\n")
        violations = check_layering.check_file(bad)
        assert len(violations) == 2
        assert "asyncio" in violations[0]
        assert "socket" in violations[1]

    def test_checker_catches_relative_escape(self, tmp_path):
        """A driver import out of a sans-IO core is an upward import,
        however it is spelled."""
        tree = _plant(tmp_path, {
            "protocol/bad.py": "from ..net.transport import Transport\n",
            "net/transport.py": "",
        })
        violations = check_layering.check_order(tree)
        assert len(violations) == 1
        assert "upward import of 'net.transport'" in violations[0]

    def test_checker_allows_pure_layers(self, tmp_path):
        tree = _plant(tmp_path, {
            "protocol/good.py": (
                "from dataclasses import dataclass\n"
                "from ..core.matrix import SERVER\n"
                "from .messages import KeepAlive\n"
            ),
            "protocol/messages.py": "",
            "core/matrix.py": "",
        })
        assert check_layering.check_order(tree) == []
        assert check_layering.check_file(tree / "protocol" / "good.py") == []

    def test_checker_cli_passes_on_this_tree(self):
        """The exact command CI's lint job runs."""
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_layering.py")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr


class TestPackageOrder:
    """One declared order; every import under ``src/repro`` points down."""

    def test_this_tree_points_downward(self):
        assert check_layering.check_order() == []

    def test_every_package_is_in_the_order_once(self):
        entries = [e for line in check_layering.LAYERS for e in line]
        assert len(entries) == len(set(entries))
        packages = {p.name for p in check_layering._REPRO.iterdir()
                    if (p / "__init__.py").is_file()}
        assert packages <= set(entries)

    def test_the_overlay_facade_is_the_only_exception(self):
        assert check_layering.ORDER_EXCEPTIONS == {("core.overlay", "analysis")}

    @pytest.mark.parametrize("source", [
        "from repro.sim.session import SessionConfig\n",
        "from ..sim.session import SessionConfig\n",
        "def late():\n    from ..sim import session\n",
        "import repro.sim.session\n",
    ])
    def test_planted_upward_import_is_rejected(self, tmp_path, source):
        tree = _plant(tmp_path, {
            "workloads/scenarios.py": source,
            "sim/session.py": "",
        })
        violations = check_layering.check_order(tree)
        assert len(violations) == 1, violations
        assert "scenarios.py:" in violations[0]
        assert "upward import of 'sim.session'" in violations[0]

    def test_planted_sideways_import_is_rejected(self, tmp_path):
        tree = _plant(tmp_path, {
            "coding/x.py": "from ..core.matrix import SERVER\n",
            "core/matrix.py": "",
        })
        (violation,) = check_layering.check_order(tree)
        assert "sideways import of 'core.matrix'" in violation

    def test_package_init_cannot_reexport_from_above(self, tmp_path):
        tree = _plant(tmp_path, {
            "core/matrix.py": "",
            "sim/runtime.py": "",
        })
        (tree / "core" / "__init__.py").write_text(
            "from ..sim.runtime import SlottedRuntime\n")
        (violation,) = check_layering.check_order(tree)
        assert "core/__init__.py:1: upward import" in violation

    def test_harness_layer_sits_above_the_drivers(self, tmp_path):
        """``net.testing`` may use the workload generators; ``net`` may not."""
        tree = _plant(tmp_path, {
            "net/testing/soak.py": "from ...workloads.trace import ChurnTrace\n",
            "net/peer.py": "from ..workloads.trace import ChurnTrace\n",
            "workloads/trace.py": "",
        })
        (violation,) = check_layering.check_order(tree)
        assert "net/peer.py:1: upward import" in violation

    def test_undeclared_package_is_rejected(self, tmp_path):
        tree = _plant(tmp_path, {"security/codec.py": ""})
        violations = check_layering.check_order(tree)
        assert violations and all("no declared layer" in v for v in violations)


class TestNoBystanders:
    """Every module under ``src/repro`` has a caller that is not a test."""

    def test_this_tree_has_no_uncalled_module(self):
        assert check_layering.check_uncalled() == []
        assert check_layering.KNOWN_UNCALLED == {"failures.attacks"}

    def test_reexport_alone_does_not_count_as_a_caller(self, tmp_path):
        tree = _plant(tmp_path, {
            "coding/entropy.py": "def packets_rank(): ...\n",
            "coding/decoder.py": "class Decoder: ...\n",
        })
        (tree / "coding" / "__init__.py").write_text(
            "from .entropy import packets_rank\n"
            "from .decoder import Decoder\n")
        callers = tmp_path / "examples"
        callers.mkdir()
        (callers / "demo.py").write_text("from repro.coding import Decoder\n")
        (callers / "test_demo.py").write_text(
            "from repro.coding import packets_rank\n")
        (violation,) = check_layering.check_uncalled(tree, [callers])
        assert "'coding.entropy' is imported by no non-test file" in violation

    def test_this_tree_has_no_test_only_name(self):
        assert check_layering.check_unused_names() == []
        assert all(check_layering.KNOWN_TEST_ONLY.values())

    @staticmethod
    def _names_tree(tmp_path, caller: str):
        """A planted tree with three public names, plus one example file
        (``caller``) and one test that calls all of them."""
        tree = _plant(tmp_path, {
            "coding/mix.py": (
                "def used():\n    return helper()\n\n"
                "def helper():\n    return 1\n\n"
                "def orphan():\n    return orphan\n\n"
                "def _private():\n    ...\n"
            ),
        })
        (tree / "coding" / "__init__.py").write_text(
            "from .mix import orphan, used\n__all__ = ['orphan', 'used']\n")
        callers = tmp_path / "examples"
        callers.mkdir()
        (callers / "demo.py").write_text(caller)
        (callers / "test_demo.py").write_text(
            "from repro.coding.mix import helper, orphan, used\n"
            "orphan(); helper(); used()\n")
        return tree, [callers]

    def test_planted_unreferenced_function_is_reported(self, tmp_path, monkeypatch):
        """Imports, ``__all__``, the definition's own body and tests do
        not count; a call from another source function does."""
        monkeypatch.setattr(check_layering, "KNOWN_TEST_ONLY", {})
        tree, callers = self._names_tree(
            tmp_path, "from repro.coding import mix\nmix.used()\n")
        (violation,) = check_layering.check_unused_names(tree, callers)
        assert violation.endswith(
            "mix.py:7: coding.mix.orphan is used by no non-test file")

    def test_string_constant_reference_counts(self, tmp_path, monkeypatch):
        monkeypatch.setattr(check_layering, "KNOWN_TEST_ONLY", {})
        tree, callers = self._names_tree(
            tmp_path,
            "import importlib\n"
            "mix = importlib.import_module('repro.coding.mix')\n"
            "for name in ('used', 'orphan'):\n"
            "    getattr(mix, name)()\n")
        assert check_layering.check_unused_names(tree, callers) == []

    def test_stale_table_entries_are_reported(self, tmp_path, monkeypatch):
        monkeypatch.setattr(check_layering, "KNOWN_TEST_ONLY", {
            "coding.mix.orphan": "oracle",
            "coding.mix.used": "oracle",
            "coding.mix.gone": "oracle",
        })
        tree, callers = self._names_tree(tmp_path, "from repro.coding import used\nused()\n")
        assert check_layering.check_unused_names(tree, callers) == [
            "KNOWN_TEST_ONLY['coding.mix.gone']: names nothing",
            "KNOWN_TEST_ONLY['coding.mix.used']: now has a non-test caller",
        ]


class TestNoTestOnlyOptionsOrMethods:
    """Every defaulted parameter and config field is set by a non-test
    call site, and every public method is named by a non-test file."""

    def test_this_tree_is_clean(self):
        assert check_layering.check_test_only_options() == []
        assert check_layering.check_test_only_methods() == []
        assert all(check_layering.KNOWN_TEST_ONLY_OPTIONS.values())
        assert all(check_layering.KNOWN_TEST_ONLY_METHODS.values())

    #: A module with one option of each kind: a function's, a
    #: constructor's, a method's, a config field, and a stats field.
    LIBRARY = (
        "from dataclasses import dataclass\n\n"
        "def mix(rows, rounds=1, *, seed=None):\n    return rows\n\n"
        "class Mixer:\n"
        "    def __init__(self, rows, width=8):\n        self.rows = rows\n\n"
        "    def emit(self, count=1):\n        return count\n\n"
        "class Turbo(Mixer):\n    pass\n\n"
        "@dataclass\nclass MixConfig:\n    k: int\n    d: int = 2\n\n"
        "@dataclass\nclass MixStats:\n    sent: int = 0\n"
    )
    OPTIONS = {"coding.mix.mix.rounds", "coding.mix.mix.seed",
               "coding.mix.Mixer.width", "coding.mix.Mixer.emit.count",
               "coding.mix.MixConfig.d"}

    def _unset(self, tmp_path, monkeypatch, caller: str) -> set[str]:
        monkeypatch.setattr(check_layering, "KNOWN_TEST_ONLY_OPTIONS", {})
        tree = _plant(tmp_path, {"coding/mix.py": self.LIBRARY})
        callers = tmp_path / "examples"
        callers.mkdir()
        (callers / "demo.py").write_text(caller)
        (callers / "test_demo.py").write_text(
            "mix(1, rounds=2, seed=3)\nMixer(1, width=4).emit(count=5)\n"
            "MixConfig(k=1, d=5)\n")
        return {v.split(": ")[1].split()[0]
                for v in check_layering.check_test_only_options(tree, [callers])}

    def test_planted_unused_options_are_reported(self, tmp_path, monkeypatch):
        """Tests, a call passing the default, and a stats field do not
        count; every other option is reported."""
        assert self._unset(tmp_path, monkeypatch,
                           "mix(1, 1)\nMixer(1, width=8)\n") == self.OPTIONS

    @pytest.mark.parametrize("caller, set_", [
        ("mix(1, 2)", "coding.mix.mix.rounds"),
        ("mix(1, seed=4)", "coding.mix.mix.seed"),
        ("from functools import partial\npartial(mix, seed=4)",
         "coding.mix.mix.seed"),
        ("class Fast(Mixer):\n    def __init__(self):\n"
         "        super().__init__(1, width=2)", "coding.mix.Mixer.width"),
        ("Turbo(1, 16)", "coding.mix.Mixer.width"),
        ("m.emit(3)", "coding.mix.Mixer.emit.count"),
        ("from dataclasses import replace\nreplace(c, d=3)",
         "coding.mix.MixConfig.d"),
        ("c.d = 3", "coding.mix.MixConfig.d"),
        ("GEOMETRY = dict(d=3)\nMixConfig(k=1, **GEOMETRY)",
         "coding.mix.MixConfig.d"),
        ("def build(**geometry):\n    return MixConfig(k=1, **geometry)\n"
         "build(d=3)", "coding.mix.MixConfig.d"),
    ])
    def test_each_way_of_setting_counts(self, tmp_path, monkeypatch,
                                        caller, set_):
        assert self._unset(tmp_path, monkeypatch, caller) == self.OPTIONS - {set_}

    def test_any_other_splat_sets_everything(self, tmp_path, monkeypatch):
        unset = self._unset(tmp_path, monkeypatch,
                            "mix(1, **load())\nMixConfig(**load())\n")
        assert unset == self.OPTIONS - {
            "coding.mix.mix.rounds", "coding.mix.mix.seed",
            "coding.mix.MixConfig.d"}

    def test_planted_test_only_method_is_reported(self, tmp_path, monkeypatch):
        """Its own body and tests do not count; a mention elsewhere,
        even as an identifier string, does."""
        monkeypatch.setattr(check_layering, "KNOWN_TEST_ONLY_METHODS", {})
        tree = _plant(tmp_path, {"coding/mix.py": (
            "class Mixer:\n"
            "    def emit(self):\n        return self.emit\n\n"
            "    def drain(self):\n        return 1\n\n"
            "    def flush(self):\n        return 2\n\n"
            "    def _private(self):\n        return 3\n"
        )})
        callers = tmp_path / "examples"
        callers.mkdir()
        (callers / "demo.py").write_text(
            "Mixer().drain()\ngetattr(Mixer(), 'flush')()\n")
        (callers / "test_demo.py").write_text("Mixer().emit()\n")
        (violation,) = check_layering.check_test_only_methods(tree, [callers])
        assert violation.endswith(
            "mix.py:2: coding.mix.Mixer.emit is called by no non-test file")

    def test_stale_table_entries_are_reported(self, tmp_path, monkeypatch):
        monkeypatch.setattr(check_layering, "KNOWN_TEST_ONLY_OPTIONS", {
            "coding.mix.mix.rounds": "oracle",
            "coding.mix.mix.gone": "oracle",
        })
        monkeypatch.setattr(check_layering, "KNOWN_TEST_ONLY_METHODS", {
            "coding.mix.Mixer.emit": "oracle",
            "coding.mix.Mixer.gone": "oracle",
        })
        tree = _plant(tmp_path, {"coding/mix.py": self.LIBRARY})
        callers = tmp_path / "examples"
        callers.mkdir()
        (callers / "demo.py").write_text(
            "mix(1, 2, seed=3)\nMixer(1, 4).emit(5)\nMixConfig(1, 5)\n")
        assert check_layering.check_test_only_options(tree, [callers]) == [
            "KNOWN_TEST_ONLY_OPTIONS['coding.mix.mix.gone']: names nothing",
            "KNOWN_TEST_ONLY_OPTIONS['coding.mix.mix.rounds']: "
            "now has a non-test caller",
        ]
        assert check_layering.check_test_only_methods(tree, [callers]) == [
            "KNOWN_TEST_ONLY_METHODS['coding.mix.Mixer.emit']: "
            "now has a non-test caller",
            "KNOWN_TEST_ONLY_METHODS['coding.mix.Mixer.gone']: names nothing",
        ]


class TestDeploymentImports:
    #: Packages of the experiments' library (and the relocated codec):
    #: the deployment path must not execute any of them.
    LIBRARY_ONLY = ("sim", "baselines", "metrics", "theory", "failures",
                    "workloads", "security")

    def _run(self, program: str) -> "subprocess.CompletedProcess":
        return subprocess.run(
            [sys.executable, "-c", program], cwd=REPO_ROOT,
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")])},
        )

    def test_importing_the_deployment_loads_no_library_package(self):
        """``import repro.net`` executes the drivers and the layers below
        them — not the simulator, the baselines or the theory."""
        result = self._run(
            "import sys\n"
            "import repro.net\n"
            "print('\\n'.join(sorted(m for m in sys.modules\n"
            "                        if m == 'repro' or m.startswith('repro.'))))\n"
        )
        assert result.returncode == 0, result.stderr
        loaded = result.stdout.split()
        strays = [m for m in loaded
                  if m.split(".")[1:2] and m.split(".")[1] in self.LIBRARY_ONLY]
        assert strays == []
        assert "repro.net.testing" not in loaded
        assert len(loaded) <= 66, len(loaded)

    def test_deployment_path_does_not_load_scipy(self):
        """``scipy.stats`` is a second of start-up and tens of MB of RSS;
        only the analysis functions that use it may import it."""
        result = self._run(
            "import sys\n"
            "import repro, repro.cli, repro.net.testing.scenarios\n"
            "sys.exit('scipy' in sys.modules)\n"
        )
        assert result.returncode == 0
