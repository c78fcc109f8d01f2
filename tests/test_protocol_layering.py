"""Tier-1 wrapper around the sans-IO layering contract.

``repro.protocol`` must never import asyncio, sockets, or any driver
package (``repro.net``, ``repro.sim``).  CI's lint job runs
``tools/check_layering.py`` directly; this test keeps the contract
enforced for anyone who only runs pytest.
"""

import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_layering  # noqa: E402


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
        bad.write_text("import asyncio\nfrom repro.net import PeerNode\n")
        violations = check_layering.check_file(bad)
        assert len(violations) == 2
        assert "asyncio" in violations[0]
        assert "repro.net" in violations[1]

    def test_checker_catches_relative_escape(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("from ..net.transport import Transport\n")
        violations = check_layering.check_file(bad)
        assert len(violations) == 1

    def test_checker_allows_pure_layers(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text(
            "from dataclasses import dataclass\n"
            "from ..core.matrix import SERVER\n"
            "from .messages import KeepAlive\n"
        )
        assert check_layering.check_file(good) == []

    def test_checker_cli_passes_on_this_tree(self):
        """The exact command CI's lint job runs."""
        import subprocess

        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_layering.py")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr


class TestDeploymentImports:
    def test_deployment_path_does_not_load_scipy(self):
        """``scipy.stats`` is a second of start-up and tens of MB of RSS;
        only the analysis functions that use it may import it."""
        import subprocess

        program = (
            "import sys\n"
            "import repro, repro.cli, repro.net.testing.scenarios\n"
            "sys.exit('scipy' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", program], cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")])},
        )
        assert result.returncode == 0
