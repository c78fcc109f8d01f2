"""Shared fixtures for the test suite."""

from __future__ import annotations

import asyncio
import signal
import threading

import numpy as np
import pytest

from repro.core import OverlayNetwork
from repro.net.testing import ChaosConfig, ChaosHarness

try:
    import pytest_timeout  # noqa: F401

    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False

#: Hard cap applied to every test when no ``timeout`` marker overrides
#: it.  CI installs pytest-timeout (which takes precedence and handles
#: its own enforcement); this SIGALRM fallback keeps local runs hang-
#: proof without adding a dependency.
_DEFAULT_TEST_TIMEOUT = 120


class _TestTimeout(BaseException):
    """Raised by the SIGALRM fallback: a BaseException so it cannot be
    swallowed by ``except Exception`` / ``except TimeoutError`` blocks
    inside the code under test."""


if not _HAVE_PYTEST_TIMEOUT and hasattr(signal, "SIGALRM"):

    @pytest.fixture(autouse=True)
    def _per_test_timeout(request):
        marker = request.node.get_closest_marker("timeout")
        seconds = _DEFAULT_TEST_TIMEOUT
        if marker is not None and marker.args:
            seconds = int(marker.args[0])
        if (
            seconds <= 0
            or threading.current_thread() is not threading.main_thread()
        ):
            yield
            return

        def _alarm(signum, frame):
            raise _TestTimeout(
                f"{request.node.nodeid} exceeded the {seconds}s hard cap "
                "(SIGALRM fallback; install pytest-timeout for nicer output)"
            )

        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator, fresh per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_net() -> OverlayNetwork:
    """A 40-node overlay with k=12, d=3 (append ordering)."""
    net = OverlayNetwork(k=12, d=3, seed=77)
    net.grow(40)
    return net


@pytest.fixture
def tiny_net() -> OverlayNetwork:
    """A 10-node overlay with k=6, d=2 (small enough for exact defects)."""
    net = OverlayNetwork(k=6, d=2, seed=11)
    net.grow(10)
    return net


@pytest.fixture
def uniform_net() -> OverlayNetwork:
    """A 40-node overlay using §5 random row insertion."""
    net = OverlayNetwork(k=12, d=3, seed=78, insert_mode="uniform")
    net.grow(40)
    return net


@pytest.fixture
def deploy():
    """``deploy(script, **config)``: start a :class:`ChaosHarness` on the
    virtual network, let the joins' control traffic land, await
    ``script(harness)``, tear down, return the script's result.

    The defaults are the control-plane test geometry: one small
    generation, sub-second timers, and the ``"innovative"`` forward
    policy that swarms run.  ``"eager"`` converges here as well — each
    child is sent only what it lacks, so neither policy floods the
    virtual net (40 peers at k=12, d=2: 575 frames under either).
    """

    def run(script, **config):
        config = {
            "k": 12, "d": 2, "seed": 3, "generations": 1,
            "keepalive_interval": 0.2, "silence_timeout": 0.5,
            "probe_timeout": 0.3, "forward_policy": "innovative",
            "seed_burst": 8, **config,
        }

        async def main():
            harness = ChaosHarness(ChaosConfig(**config), record_trace=False)
            try:
                await harness.start()
                await harness.settle(1.0)
                return await script(harness)
            finally:
                await harness.teardown()

        return asyncio.run(main())

    return run
