"""The need view end to end: what a deployment sends once every sender
knows which generations each child has finished.

Three pins on whole deployments (the engine-level properties live in
``test_dataplane_engine``, the hostile-input rules in
``test_net_inbound``, the lossy re-clip in ``test_net_chaos``):

* wire efficiency — total bytes on every data connection, feedback
  included, against the floor of the framing, and against what the
  virtual network itself carried;
* ``forward_policy="innovative"`` over many generations converges at
  the source's pace, not at the idle-fill lottery's;
* (slow) same-seed runs on real sockets deliver the same packet count.
"""

import asyncio
from time import perf_counter

import pytest

from repro.net.control import DataHello, encode_control
from repro.net.framing import KIND_CONTROL, FrameBuffer, encode_frame
from repro.net.testing import ChaosConfig, ChaosHarness, virtualnet

HELLO_BYTES = len(encode_frame(
    KIND_CONTROL, encode_control(DataHello(node_id=0, column=0))))


def _bytes_sent(harness) -> int:
    return sum(
        stats.bytes_sent
        for node in (harness.server, *harness.peers)
        for stats in node.sender_stats
    )


class TestWireEfficiency:
    CONFIG = ChaosConfig(
        peers=8, k=8, d=2, seed=1,
        generation_size=16, payload_size=256, generations=4,
        send_interval=0.01, keepalive_interval=2.0, silence_timeout=10.0,
        probe_timeout=5.0,
    )
    #: Bytes a data frame spends per payload byte at this geometry:
    #: 5 of stream prefix, 16 of wire header, the coefficient vector,
    #: the payload, 4 of CRC.
    FLOOR = (5 + 16 + 16 + 256 + 4) / 256

    def test_bytes_on_the_wire_stay_near_the_floor_and_are_all_counted(
            self, monkeypatch):
        """``Σ bytes_sent`` over every node's ``sender_stats`` is what
        the benchmark divides by the content delivered.  It must be
        within 1.5x of the framing floor — before the need view it was
        3x — and it must be *every* byte the data connections carried,
        both ways: data frames and keep-alives down, completed-set
        reports up (only the 12-byte hellos are not a sender's)."""
        pipes = []

        class Counted(virtualnet._Pipe):
            def __init__(self, *args):
                super().__init__(*args)
                self.fed = bytearray()
                pipes.append(self)

            def feed(self, frames):
                frames = list(frames)
                self.fed += b"".join(frames)
                super().feed(frames)

        monkeypatch.setattr(virtualnet, "_Pipe", Counted)

        async def scenario():
            harness = ChaosHarness(self.CONFIG, record_trace=False)
            try:
                await harness.start()
                assert await harness.run_until(harness.converged)
                carried = dials = 0
                # open_connection builds each connection's two pipes
                # back to back: the dialler's, then the listener's.
                for out, back in zip(pipes[::2], pipes[1::2]):
                    opening = FrameBuffer()
                    opening.feed(bytes(out.fed))
                    if isinstance(opening.next_message(), DataHello):
                        carried += len(out.fed) + len(back.fed)
                        dials += 1
                sent = _bytes_sent(harness)
                harness.check_invariants()
                return sent, carried, dials, harness.violations
            finally:
                await harness.teardown()

        sent, carried, dials, violations = asyncio.run(scenario())
        assert violations == []
        assert dials == self.CONFIG.peers * self.CONFIG.d
        assert sent == carried - dials * HELLO_BYTES
        ratio = sent / (self.CONFIG.content_size * self.CONFIG.peers)
        assert ratio <= 1.5 * self.FLOOR, ratio


class TestInnovativeOverManyGenerations:
    def test_sixteen_generations_converge_at_the_sources_pace(self):
        """Under ``innovative`` a relay forwards on rank-raising
        arrivals and fills idle links.  When each of those serves what
        the child lacks, 128 degrees of freedom reach eight peers in
        about the 3.3 virtual seconds the source needs to emit them;
        when they drew a generation at random it took 36-70."""
        config = ChaosConfig(
            peers=8, k=8, d=2, generation_size=8, payload_size=64,
            generations=16, forward_policy="innovative", deadline=10.0,
        )

        async def scenario():
            harness = ChaosHarness(config, record_trace=False)
            try:
                await harness.start()
                converged = await harness.run_until(harness.converged)
                await harness.settle()
                harness.check_invariants()
                return converged, harness.violations
            finally:
                await harness.teardown()

        converged, violations = asyncio.run(scenario())
        assert converged, "missed the 10 s virtual deadline"
        assert violations == []


@pytest.mark.slow
def test_same_seed_live_runs_deliver_the_same_packet_count(capsys):
    """The ``bulk_virtual`` geometry on real loopback sockets, five
    times on one seed.  Which packet wins a race differs from run to
    run; how many packets it takes must not — that count is what the
    generation lottery used to inflate 2x between same-seed runs."""
    config = ChaosConfig(
        peers=8, k=8, d=2, seed=0,
        generation_size=64, payload_size=1024, generations=8,
        send_interval=0.01, keepalive_interval=2.0, silence_timeout=10.0,
        probe_timeout=5.0, deadline=120.0,
    )

    async def rep():
        harness = ChaosHarness(config, transport="live")
        try:
            await harness.start()
            begin = perf_counter()
            assert await harness.run_until(harness.converged)
            wall = perf_counter() - begin
            received = sum(peer.dataplane.obs.packets_in.value
                           for peer in harness.peers)
            assert all(
                peer.recovered_content() == harness.content
                for peer in harness.peers)
            return received, wall
        finally:
            await harness.teardown()

    runs = [asyncio.run(rep()) for _ in range(5)]
    counts = [received for received, _ in runs]
    with capsys.disabled():
        print("\nlive same-seed runs (packets received, wall s):",
              [(received, round(wall, 2)) for received, wall in runs])
    assert max(counts) / min(counts) < 1.3, counts
