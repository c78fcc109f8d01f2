"""Command-line interface: run scenarios, live transport, quick analyses.

Usage::

    python -m repro.cli scenario live_streaming --seed 3
    python -m repro.cli scenario file_download --population 40
    python -m repro.cli overlay --k 24 --d 3 --peers 200 --fail 5
    python -m repro.cli collapse --k 12 --d 2 --p 0.03 --runs 10
    python -m repro.cli demo --peers 8 --kill 1
    python -m repro.cli chaos --list
    python -m repro.cli chaos all --seed 3
    python -m repro.cli chaos crash_parent_midstream --transport live
    python -m repro.cli serve --port 9470 &
    python -m repro.cli join --port 9470

The CLI is a thin veneer over the library; everything it prints is
reachable programmatically (see README quickstart).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .gf.kernels import BACKEND


def _configure_logging(level: Optional[str]) -> None:
    """Route ``repro.net.*`` logs to stderr at the requested level.

    Without ``--log-level`` the library stays silent below WARNING
    (Python's last-resort handler), so tests and benches see no output.
    """
    if not level:
        return
    handler = logging.StreamHandler()
    handler.setFormatter(
        logging.Formatter("%(asctime)s %(name)s %(levelname)s %(message)s")
    )
    logger = logging.getLogger("repro.net")
    logger.addHandler(handler)
    logger.setLevel(getattr(logging, level.upper()))


def _write_stats_json(path: Optional[str], snapshot: Optional[dict]) -> None:
    """Dump one obs snapshot to ``path`` (no-op when either is unset)."""
    if path is None or snapshot is None:
        return
    text = json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text)
    print(f"stats snapshot written to {path}")


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .sim import file_download, flash_crowd, live_streaming, run_session

    presets = {
        "live_streaming": live_streaming,
        "file_download": file_download,
        "flash_crowd": flash_crowd,
    }
    preset = presets[args.name]
    overrides = {}
    if args.population:
        overrides["population"] = args.population
    if args.max_slots:
        overrides["max_slots"] = args.max_slots
    config = preset(seed=args.seed, **overrides)
    if args.topology != "curtain":
        config.topology = args.topology
        config.fail_probability = 0.0  # the §6 overlay has no repair protocol
    print(f"running scenario {args.name!r}: k={config.k} d={config.d} "
          f"N={config.population} content={config.content_size}B "
          f"topology={config.topology}")
    result = run_session(config)
    report = result.report
    print(f"slots: {report.slots}")
    print(f"completion: {report.completion_fraction:.1%}")
    print(f"failures/repairs: {result.failures_injected}/{result.repairs_performed}"
          f"  joins: {result.joins}  leaves: {result.graceful_leaves}")
    print(f"link delivery: {report.link_stats.delivery_ratio:.3f}")
    slots = report.completion_slots()
    if slots:
        print(f"decode slots: min {min(slots)} median "
              f"{sorted(slots)[len(slots) // 2]} max {max(slots)}")
    bad = [n.node_id for n in report.nodes if n.decoded_ok is False]
    print(f"corrupt decodes: {len(bad)}")
    return 0 if not bad else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    """RLNC vs the uncoded baselines on one overlay, one data plane.

    All three schemes run through :class:`repro.sim.SlottedRuntime` with
    the same curtain topology, loss model, and slot budget — the
    apples-to-apples comparison the unified runtime exists for.
    """
    from .coding.generation import GenerationParams
    from .core import OverlayNetwork
    from .sim import LossModel, RarestFirstBehavior, rlnc, uncoded

    def build_net():
        net = OverlayNetwork(k=args.k, d=args.d, seed=args.seed)
        net.grow(args.peers)
        return net

    rng = np.random.default_rng(args.seed)
    content = bytes(
        rng.integers(0, 256, size=args.g * args.payload, dtype=np.uint8)
    )
    loss = LossModel(args.p)
    coded = rlnc(
        build_net(), content, GenerationParams(args.g, args.payload),
        seed=args.seed, loss=loss,
    )
    flood = uncoded(build_net(), args.g, seed=args.seed, loss=loss)
    rarest = uncoded(build_net(), args.g, seed=args.seed, loss=loss,
                     behavior=RarestFirstBehavior)
    print(f"comparing schemes: k={args.k} d={args.d} N={args.peers} "
          f"g={args.g} loss={args.p} budget={args.max_slots} slots")
    rows = [
        ("rlnc", coded.run_until_complete(max_slots=args.max_slots)),
        ("store-forward", flood.run_until_complete(max_slots=args.max_slots)),
        ("rarest-first", rarest.run_until_complete(max_slots=args.max_slots)),
    ]
    for name, report in rows:
        slots = report.completion_slots()
        last = max(slots) if slots else args.max_slots
        print(f"  {name:>14}: completion {report.completion_fraction:.1%}  "
              f"mean slot {report.mean_completion_slot():.1f}  "
              f"p95 {report.completion_percentile(95):.0f}  last {last}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    """One-process live deployment: server + N peers over loopback TCP."""
    from .net.testing import ChaosConfig, ChaosHarness
    from .obs import snapshot_obj
    from .obs.http import MetricsServer

    if args.peers < 1 or args.kill >= args.peers:
        print(f"demo: need --peers >= 1 and --kill below it, got "
              f"--peers {args.peers} --kill {args.kill}", file=sys.stderr)
        return 2
    _configure_logging(args.log_level)
    config = ChaosConfig(
        peers=args.peers, k=args.k, d=args.d,
        generation_size=args.g, payload_size=args.payload,
        generations=args.generations, seed=args.seed,
        insert_mode=args.insert_mode, deadline=args.deadline,
        # Wall-clock pacing for loopback sockets; the ChaosConfig
        # defaults are sized for virtual time.
        send_interval=0.004, keepalive_interval=0.1,
        silence_timeout=0.4, probe_timeout=0.2,
    )
    print(f"loopback demo: {config.peers} peers  k={config.k} d={config.d}  "
          f"{config.generations} generations of "
          f"g={config.generation_size}x{config.payload_size}B  "
          f"insert={config.insert_mode}"
          + (f"  killing peer #{args.kill} mid-run" if args.kill >= 0 else ""))

    async def _run() -> int:
        harness = ChaosHarness(config, transport="live")

        def snapshot() -> dict:
            nodes = [harness.server, *harness.peers]
            return snapshot_obj({n.registry.name: n.registry for n in nodes})

        metrics = None
        try:
            await harness.start()
            if args.metrics_port is not None:
                metrics = await MetricsServer(
                    snapshot, port=args.metrics_port
                ).start()
                print(f"metrics on http://127.0.0.1:{metrics.port}/metrics "
                      f"(JSON at /metrics.json)", flush=True)
            started = harness.clock.time()
            # --kill is crash_parent_midstream with a chosen victim.
            if args.kill >= 0 and await harness.run_until(
                lambda: harness.progress() >= 0.25
            ):
                harness.kill(args.kill)
            await harness.run_until(
                harness.converged,
                timeout=config.deadline - (harness.clock.time() - started),
            )
            await harness.settle()
            result = harness.result("demo")
            # Snapshot before teardown so callback gauges read live state.
            final_snapshot = snapshot()
        finally:
            if metrics is not None:
                await metrics.stop()
            await harness.teardown()
        _write_stats_json(args.stats_json, final_snapshot)
        survivors = [peer for _, peer in harness.alive()]
        done = [peer for peer in survivors if peer.completed]
        server = harness.server
        print(f"converged: {result.converged}  "
              f"wall clock: {result.elapsed:.2f}s  rounds: {server.stats.rounds}")
        print(f"completion: {len(done) / max(len(survivors), 1):.1%}  "
              f"server packets: {server.dataplane.obs.mixtures_out.value}  "
              f"backpressure drops: {result.drops}")
        print(f"repairs: {result.repairs}  reconnects: {result.reconnects}  "
              f"complaints: {result.complaints}")
        bad = [peer.node_id for peer in done
               if peer.recovered_content() != harness.content]
        print(f"corrupt decodes: {len(bad)}")
        return 0 if result.converged and not bad else 1

    return asyncio.run(_run())


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Replay chaos scenarios against the virtual or the live transport."""
    from .net.testing import SCENARIOS, run_scenario_sync, trace_digest

    if args.list:
        for spec in SCENARIOS.values():
            transports = "virtual" if spec.requires_virtual else "virtual, live"
            print(f"{spec.name}  [{transports}]")
            print(f"    {spec.description}")
        return 0
    if args.name is None:
        print("chaos: name a scenario or pass --list", file=sys.stderr)
        return 2
    if args.name == "all":
        names = [
            name for name, spec in SCENARIOS.items()
            if args.transport == "virtual" or not spec.requires_virtual
        ]
    else:
        names = [args.name]
    failures = 0
    for name in names:
        result = run_scenario_sync(
            name, seed=args.seed, transport=args.transport
        )
        line = result.summary()
        if result.trace:
            line += f"  trace={len(result.trace)} events digest={trace_digest(result.trace)}"
        print(line)
        failures += 0 if result.ok else 1
    if len(names) > 1:
        print(f"{len(names) - failures}/{len(names)} scenarios ok "
              f"(transport={args.transport}, seed={args.seed})")
    return 0 if failures == 0 else 1


def _cmd_soak(args: argparse.Namespace) -> int:
    """Long-horizon churn soak on the virtual network."""
    from .net.testing import SoakConfig, run_soak

    peers, hours, epoch = args.peers, args.hours, args.epoch
    if args.smoke:
        # CI-grade preset: small population, minutes of virtual time.
        peers = peers if args.peers != 1000 else 200
        hours = min(hours, 0.1)
        epoch = min(epoch, 30.0)
    config = SoakConfig(
        peers=peers,
        hours=hours,
        epoch=epoch,
        trace=args.trace,
        seed=args.seed,
    )
    print(f"soaking {config.trace!r}: n={config.peers} "
          f"horizon={config.hours:g}h epoch={config.epoch:g}s "
          f"seed={config.seed}")
    report = asyncio.run(run_soak(config))
    print(report.summary())
    for violation in report.violations:
        print(f"  violation: {violation}")
    if report.flight_dump and args.dump:
        print(report.flight_dump)
    if args.trace_out:
        report.history.save(args.trace_out)
        print(f"churn trace ({len(report.history)} events) written to "
              f"{args.trace_out}")
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run a standalone coordination + source server."""
    from .coding.generation import GenerationParams
    from .net import ServerNode
    from .obs.http import MetricsServer

    _configure_logging(args.log_level)
    params = GenerationParams(args.g, args.payload)
    rng = np.random.default_rng(args.seed)
    content = rng.integers(
        0, 256, size=args.generations * params.generation_bytes, dtype=np.uint8
    ).tobytes()

    async def _run() -> int:
        server = ServerNode(
            content, params, k=args.k, d=args.d,
            host=args.host, port=args.port, seed=args.seed,
            insert_mode=args.insert_mode, send_interval=args.interval,
        )
        await server.start()
        print(f"serving on {server.host}:{server.port}  k={args.k} d={args.d}  "
              f"{args.generations} generations of g={args.g}x{args.payload}B")
        metrics = None
        if args.metrics_port is not None:
            metrics = await MetricsServer(
                server.snapshot, port=args.metrics_port
            ).start()
            print(f"metrics on http://127.0.0.1:{metrics.port}/metrics "
                  f"(JSON at /metrics.json)", flush=True)
        try:
            if args.duration > 0:
                await asyncio.sleep(args.duration)
            else:
                await server.serve_forever()
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            snapshot = server.snapshot()
            if metrics is not None:
                await metrics.stop()
            await server.stop()
        counts = server.engine.obs
        print(f"served {server.dataplane.obs.mixtures_out.value} packets "
              f"over {server.stats.rounds} rounds; "
              f"joins={counts.joins.value} leaves={counts.leaves.value} "
              f"repairs={counts.repairs.value}")
        _write_stats_json(args.stats_json, snapshot)
        return 0

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:
        return 0


def _cmd_join(args: argparse.Namespace) -> int:
    """Join a running server as one live peer; exit when decoded."""
    from .net import PeerNode
    from .obs.http import MetricsServer

    _configure_logging(args.log_level)

    async def _run() -> int:
        done = asyncio.Event()
        peer = PeerNode(args.host, args.port, seed=args.seed,
                        on_complete=lambda _peer: done.set())
        loop = asyncio.get_running_loop()
        give_up = loop.time() + args.deadline
        try:
            await asyncio.wait_for(peer.start(), timeout=args.deadline)
        except (asyncio.TimeoutError, OSError) as error:
            reason = str(error) or f"no grant within {args.deadline:g}s"
            print(f"join: not admitted by {args.host}:{args.port}: {reason}",
                  file=sys.stderr)
            return 1
        print(f"joined as node {peer.node_id}: "
              f"threads {sorted(peer.parents)}  listening on {peer.port}")
        metrics = None
        if args.metrics_port is not None:
            metrics = await MetricsServer(
                peer.snapshot, port=args.metrics_port
            ).start()
            print(f"metrics on http://127.0.0.1:{metrics.port}/metrics "
                  f"(JSON at /metrics.json)", flush=True)
        try:
            await asyncio.wait_for(
                done.wait(), timeout=max(0.0, give_up - loop.time()))
        except asyncio.TimeoutError:
            pass
        ok = peer.completed
        print(f"rank {peer.rank}/{peer.needed}  "
              f"received {peer.dataplane.obs.packets_in.value} "
              f"(innovative {peer.dataplane.obs.innovative_in.value})  "
              f"reconnects {peer.stats.reconnects}")
        if ok:
            print(f"decoded {len(peer.recovered_content())} bytes")
        if args.linger > 0:
            # Keep forwarding to children after our own decode (a seed).
            await asyncio.sleep(args.linger)
        snapshot = peer.snapshot()
        if metrics is not None:
            await metrics.stop()
        await peer.leave()
        _write_stats_json(args.stats_json, snapshot)
        return 0 if ok else 1

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:
        return 0


def _cmd_overlay(args: argparse.Namespace) -> int:
    from .analysis import delay_profile
    from .core import OverlayNetwork

    net = OverlayNetwork(k=args.k, d=args.d, seed=args.seed,
                         insert_mode=args.insert_mode)
    net.grow(args.peers)
    for _ in range(args.fail):
        net.fail(net.random_working_node())
    print(f"overlay: k={args.k} d={args.d} peers={net.population} "
          f"failed={len(net.failed)} insert={args.insert_mode}")
    print(f"connectivity histogram: {net.connectivity_histogram()}")
    profile = delay_profile(net.graph())
    print(f"depth: mean {profile.mean_depth:.1f}  p95 {profile.p95_depth:.0f}  "
          f"max {profile.max_depth}  unreachable {profile.unreachable}")
    summary = net.defect_summary(samples=args.defect_samples)
    print(f"defect (B/A estimate over {summary.samples} tuples): "
          f"{summary.mean_defect:.4f}  bad-tuple fraction: {summary.bad_fraction:.4f}")
    return 0


def _cmd_trajectory(args: argparse.Namespace) -> int:
    from .analysis import measure_defect_trajectory
    from .metrics import sparkline
    from .theory import theorem4_prediction

    trajectory = measure_defect_trajectory(
        k=args.k, d=args.d, p=args.p, arrivals=args.arrivals,
        sample_every=args.sample_every, seed=args.seed,
    )
    try:
        attractor = theorem4_prediction(args.k, args.d, args.p).attractor
    except ValueError:
        attractor = None  # outside the drift regime (pd too large)
    values = trajectory.values
    ceiling = max(max(values), attractor or 0.0) or 1.0
    print(f"defect trajectory  k={args.k} d={args.d} p={args.p} "
          f"({args.arrivals} arrivals, sampled every {args.sample_every})")
    print(f"  {sparkline(values, low=0.0, high=ceiling)}")
    print(f"steady-state mean B/A: {trajectory.steady_state_mean():.4f}   "
          f"peak: {trajectory.peak():.4f}")
    if attractor is None:
        print(f"paper: pd = {args.p * args.d:.4f}   "
              "(pd too large for a drift attractor at this k, d)")
    else:
        print(f"paper: pd = {args.p * args.d:.4f}   "
              f"drift attractor a1 = {attractor:.4f}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Render an obs snapshot (file or live endpoint) as tables."""
    from .metrics.report import render_table
    from .obs import validate_snapshot

    if args.source.startswith(("http://", "https://")):
        from urllib.request import urlopen

        with urlopen(args.source) as response:
            obj = json.load(response)
    else:
        obj = json.loads(Path(args.source).read_text())
    problems = validate_snapshot(obj)
    if problems:
        print(f"invalid snapshot {args.source!r}:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    for name in sorted(obj["registries"]):
        sections = obj["registries"][name]
        rows = []
        for metric, value in sorted(sections["counters"].items()):
            rows.append(("counter", metric, value))
        for metric, value in sorted(sections["gauges"].items()):
            rows.append(("gauge", metric, value))
        for metric, hist in sorted(sections["histograms"].items()):
            count = hist["count"]
            mean = hist["sum"] / count if count else 0.0
            rows.append(
                ("histogram", metric, f"n={count} mean={mean:.3g}")
            )
        print(render_table(("kind", "metric", "value"), rows,
                           title=f"registry: {name}"))
        print()
    return 0


def _cmd_collapse(args: argparse.Namespace) -> int:
    from .theory import collapse_exponent, mean_walk_collapse_time

    rng = np.random.default_rng(args.seed)
    mean, censored = mean_walk_collapse_time(
        k=args.k, d=args.d, p=args.p, runs=args.runs, rng=rng,
        max_steps=args.max_steps,
    )
    print(f"k={args.k} d={args.d} p={args.p}  k/d^3={collapse_exponent(args.k, args.d):.2f}")
    print(f"mean collapse steps over {args.runs} walks: {mean:.0f} "
          f"({censored} censored at {args.max_steps})")
    return 0


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by the live-transport commands."""
    parser.add_argument("--metrics-port", type=int, default=None,
                        dest="metrics_port", metavar="PORT",
                        help="serve Prometheus/JSON metrics over HTTP "
                             "(0 = ephemeral port)")
    parser.add_argument("--stats-json", default=None, dest="stats_json",
                        metavar="PATH",
                        help="write the final obs snapshot to this file")
    parser.add_argument("--log-level", default=None, dest="log_level",
                        choices=["debug", "info", "warning"],
                        help="emit repro.net.* logs to stderr at this level")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="P2P broadcast overlays with network coding"
    )
    parser.add_argument(
        "--version", action="version",
        version=f"repro {__version__} (gf kernels: {BACKEND})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scenario = sub.add_parser("scenario", help="run a named end-to-end scenario")
    scenario.add_argument("name",
                          choices=["live_streaming", "file_download", "flash_crowd"])
    scenario.add_argument("--seed", type=int, default=0)
    scenario.add_argument("--population", type=int, default=0)
    scenario.add_argument("--max-slots", type=int, default=0, dest="max_slots")
    scenario.add_argument("--topology", choices=["curtain", "graph"],
                          default="curtain",
                          help="overlay family (curtain matrix or §6 random graph)")
    scenario.set_defaults(func=_cmd_scenario)

    compare = sub.add_parser(
        "compare", help="RLNC vs uncoded baselines on the unified data plane"
    )
    compare.add_argument("--k", type=int, default=8)
    compare.add_argument("--d", type=int, default=2)
    compare.add_argument("--peers", type=int, default=32)
    compare.add_argument("--g", type=int, default=16)
    compare.add_argument("--payload", type=int, default=128)
    compare.add_argument("--p", type=float, default=0.02)
    compare.add_argument("--max-slots", type=int, default=600, dest="max_slots")
    compare.add_argument("--seed", type=int, default=0)
    compare.set_defaults(func=_cmd_compare)

    demo = sub.add_parser(
        "demo", help="live loopback deployment: server + N peers on real sockets"
    )
    demo.add_argument("--peers", type=int, default=8)
    demo.add_argument("--k", type=int, default=4)
    demo.add_argument("--d", type=int, default=2)
    demo.add_argument("--g", type=int, default=16)
    demo.add_argument("--payload", type=int, default=128)
    demo.add_argument("--generations", type=int, default=3)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--insert-mode", choices=["append", "uniform"],
                      default="append", dest="insert_mode")
    demo.add_argument("--kill", type=int, default=-1, metavar="INDEX",
                      help="kill this peer mid-run to exercise repair (-1 = off)")
    demo.add_argument("--deadline", type=float, default=60.0,
                      help="hard wall-clock limit in seconds")
    _add_obs_flags(demo)
    demo.set_defaults(func=_cmd_demo)

    chaos = sub.add_parser(
        "chaos",
        help="replay fault-injection scenarios on the virtual or live transport",
    )
    chaos.add_argument("name", nargs="?", default=None,
                       help="scenario name, or 'all'")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--transport", choices=["virtual", "live"],
                       default="virtual",
                       help="in-memory deterministic network, or real loopback TCP")
    chaos.add_argument("--list", action="store_true",
                       help="list known scenarios and exit")
    chaos.set_defaults(func=_cmd_chaos)

    soak = sub.add_parser(
        "soak",
        help="virtual-hours churn soak against a large swarm",
    )
    soak.add_argument("--peers", type=int, default=1000,
                      help="initial population (default 1000)")
    soak.add_argument("--hours", type=float, default=2.0,
                      help="soak horizon in virtual hours")
    soak.add_argument("--epoch", type=float, default=60.0,
                      help="epoch length in virtual seconds")
    soak.add_argument("--trace", choices=["steady", "flash", "correlated"],
                      default="steady", help="churn trace shape")
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument("--smoke", action="store_true",
                      help="CI preset: 200 peers, 0.1 virtual hours")
    soak.add_argument("--dump", action="store_true",
                      help="print the flight-recorder dump on violation")
    soak.add_argument("--trace-out", default=None, metavar="PATH",
                      help="save the applied churn trace as JSON")
    soak.set_defaults(func=_cmd_soak)

    serve = sub.add_parser("serve", help="run a live coordination + source server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument("--k", type=int, default=4)
    serve.add_argument("--d", type=int, default=2)
    serve.add_argument("--g", type=int, default=16)
    serve.add_argument("--payload", type=int, default=128)
    serve.add_argument("--generations", type=int, default=3)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--insert-mode", choices=["append", "uniform"],
                       default="append", dest="insert_mode")
    serve.add_argument("--interval", type=float, default=0.005,
                       help="seconds between emission rounds")
    serve.add_argument("--duration", type=float, default=0.0,
                       help="stop after this many seconds (0 = run forever)")
    _add_obs_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    join = sub.add_parser("join", help="join a live server as one peer")
    join.add_argument("--host", default="127.0.0.1")
    join.add_argument("--port", type=int, required=True)
    join.add_argument("--seed", type=int, default=0)
    join.add_argument("--deadline", type=float, default=60.0,
                      help="give up joining and decoding after this "
                           "many seconds")
    join.add_argument("--linger", type=float, default=0.0,
                      help="keep forwarding this long after decoding")
    _add_obs_flags(join)
    join.set_defaults(func=_cmd_join)

    stats = sub.add_parser(
        "stats", help="render an obs snapshot (JSON file or live endpoint)"
    )
    stats.add_argument("source",
                       help="path to a --stats-json file, or an http:// "
                            "metrics.json URL")
    stats.set_defaults(func=_cmd_stats)

    overlay = sub.add_parser("overlay", help="build an overlay and report health")
    overlay.add_argument("--k", type=int, default=24)
    overlay.add_argument("--d", type=int, default=3)
    overlay.add_argument("--peers", type=int, default=200)
    overlay.add_argument("--fail", type=int, default=0)
    overlay.add_argument("--seed", type=int, default=0)
    overlay.add_argument("--insert-mode", choices=["append", "uniform"],
                         default="append", dest="insert_mode")
    overlay.add_argument("--defect-samples", type=int, default=200,
                         dest="defect_samples")
    overlay.set_defaults(func=_cmd_overlay)

    trajectory = sub.add_parser(
        "trajectory", help="sample the defect process (Theorem 4 dynamics)"
    )
    trajectory.add_argument("--k", type=int, default=32)
    trajectory.add_argument("--d", type=int, default=2)
    trajectory.add_argument("--p", type=float, default=0.02)
    trajectory.add_argument("--arrivals", type=int, default=600)
    trajectory.add_argument("--sample-every", type=int, default=25,
                            dest="sample_every")
    trajectory.add_argument("--seed", type=int, default=0)
    trajectory.set_defaults(func=_cmd_trajectory)

    collapse = sub.add_parser("collapse", help="Theorem 5 collapse-walk estimate")
    collapse.add_argument("--k", type=int, default=12)
    collapse.add_argument("--d", type=int, default=2)
    collapse.add_argument("--p", type=float, default=0.03)
    collapse.add_argument("--runs", type=int, default=10)
    collapse.add_argument("--max-steps", type=int, default=400_000,
                          dest="max_steps")
    collapse.add_argument("--seed", type=int, default=0)
    collapse.set_defaults(func=_cmd_collapse)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout was a pipe whose reader exited early (`repro stats ... |
        # head`); behave like a Unix filter and leave quietly.  Python
        # flushes stdout again at interpreter exit, so point the fd at
        # devnull first or the flush re-raises.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
