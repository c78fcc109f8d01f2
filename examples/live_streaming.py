#!/usr/bin/env python
"""Live streaming: a television-style broadcast surviving constant churn.

The §1 scenario: a server with bandwidth for tens of peers serves a live
event to a much larger audience through the overlay.  Peers fail and are
repaired continuously; ergodic packet loss runs at 1%; latecomers tune
in mid-stream.  We track the audience's decoding progress generation by
generation — the streaming analogue of staying ahead of the playhead.

Run:  python examples/live_streaming.py
"""


from repro.sim import live_streaming, run_session


def main() -> None:
    config = live_streaming(
        seed=7,
        population=60,
        content_size=18_000,
        generation_size=10,
        payload_size=180,
        fail_probability=0.01,
        repair_interval=8,
        join_rate=1,
        loss_rate=0.01,
        max_slots=2_500,
    )
    print("live event:", config.content_size, "bytes at k =", config.k,
          "threads, audience", config.population, "+ latecomers")

    result = run_session(config)
    report = result.report

    print(f"\nran {report.slots} slots")
    print(f"failures injected: {result.failures_injected}, "
          f"repairs: {result.repairs_performed}, "
          f"latecomers joined: {result.joins}")
    print(f"link delivery ratio (after 1% ergodic loss): "
          f"{report.link_stats.delivery_ratio:.3f}")

    completed = [n for n in report.nodes if n.completed_at is not None]
    print(f"\naudience that decoded the full event: "
          f"{len(completed)}/{len(report.nodes)}")
    if completed:
        slots = sorted(n.completed_at for n in completed)
        print(f"decode times: median slot {slots[len(slots) // 2]}, "
              f"p95 slot {slots[int(0.95 * (len(slots) - 1))]}")
    ok = all(n.decoded_ok for n in completed)
    print(f"every completed decode bit-exact: {ok}")

    # streaming health: innovative packets per slot per peer ≈ the rate
    # the audience can actually play at
    goodput = report.mean_goodput
    print(f"mean goodput: {goodput:.2f} innovative packets/slot/peer "
          f"(d = {config.d} is the ceiling)")
    assert ok


if __name__ == "__main__":
    main()
