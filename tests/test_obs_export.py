"""Snapshot schema, Prometheus rendering, and the scrape endpoint."""

import asyncio
import json

from repro.obs import (
    Registry,
    SCHEMA,
    prometheus_text,
    snapshot_obj,
    validate_snapshot,
)
from repro.obs.http import MetricsServer


def _populated_registry(name="r") -> Registry:
    registry = Registry(name)
    registry.counter("engine.events").inc(3)
    registry.gauge("net.rank").set(5)
    hist = registry.histogram("sim.slot_seconds", bounds=(0.001, 0.01))
    hist.observe(0.0005)
    hist.observe(0.5)
    return registry


class TestSnapshotSchema:
    def test_snapshot_validates(self):
        obj = snapshot_obj(_populated_registry())
        assert obj["schema"] == SCHEMA
        assert validate_snapshot(obj) == []

    def test_mapping_of_registries(self):
        obj = snapshot_obj({
            "server:1": _populated_registry("server:1"),
            "peer:2": _populated_registry("peer:2"),
        })
        assert set(obj["registries"]) == {"server:1", "peer:2"}
        assert validate_snapshot(obj) == []

    def test_wrong_schema_tag_rejected(self):
        obj = snapshot_obj(_populated_registry())
        obj["schema"] = "repro.obs/999"
        assert any("schema" in e for e in validate_snapshot(obj))

    def test_negative_counter_rejected(self):
        obj = snapshot_obj(_populated_registry())
        obj["registries"]["r"]["counters"]["engine.events"] = -1
        assert any("non-negative" in e for e in validate_snapshot(obj))

    def test_histogram_count_mismatch_rejected(self):
        obj = snapshot_obj(_populated_registry())
        obj["registries"]["r"]["histograms"]["sim.slot_seconds"]["count"] = 99
        assert any("sum to count" in e for e in validate_snapshot(obj))

    def test_missing_section_rejected(self):
        obj = snapshot_obj(_populated_registry())
        del obj["registries"]["r"]["gauges"]
        assert any("sections" in e for e in validate_snapshot(obj))

    def test_non_dict_input_rejected(self):
        assert validate_snapshot([1, 2]) != []


class TestPrometheusText:
    def test_names_prefixed_and_sanitised(self):
        text = prometheus_text(_populated_registry())
        assert 'repro_engine_events{registry="r"} 3' in text
        assert 'repro_net_rank{registry="r"} 5' in text
        assert "engine.events" not in text  # dots never leak

    def test_type_declared_once_per_metric(self):
        text = prometheus_text({
            "a": _populated_registry("a"), "b": _populated_registry("b"),
        })
        assert text.count("# TYPE repro_engine_events counter") == 1

    def test_histogram_buckets_are_cumulative(self):
        text = prometheus_text(_populated_registry())
        lines = [l for l in text.splitlines() if "slot_seconds_bucket" in l]
        assert lines == [
            'repro_sim_slot_seconds_bucket{registry="r",le="0.001"} 1',
            'repro_sim_slot_seconds_bucket{registry="r",le="0.01"} 1',
            'repro_sim_slot_seconds_bucket{registry="r",le="+Inf"} 2',
        ]
        assert 'repro_sim_slot_seconds_count{registry="r"} 2' in text

    def test_accepts_a_prebuilt_snapshot(self):
        obj = snapshot_obj(_populated_registry())
        assert prometheus_text(obj) == prometheus_text(_populated_registry())


class TestMetricsServer:
    def _request(self, raw: bytes) -> bytes:
        async def _run() -> bytes:
            server = await MetricsServer(
                lambda: snapshot_obj(_populated_registry())
            ).start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(raw)
                await writer.drain()
                response = await reader.read()
                writer.close()
                return response
            finally:
                await server.stop()
        return asyncio.run(_run())

    def test_metrics_endpoint_serves_prometheus(self):
        response = self._request(b"GET /metrics HTTP/1.0\r\n\r\n")
        assert response.startswith(b"HTTP/1.0 200 OK")
        assert b"text/plain; version=0.0.4" in response
        assert b'repro_engine_events{registry="r"} 3' in response

    def test_json_endpoint_serves_valid_snapshot(self):
        response = self._request(b"GET /metrics.json HTTP/1.0\r\n\r\n")
        body = response.split(b"\r\n\r\n", 1)[1]
        assert validate_snapshot(json.loads(body)) == []

    def test_unknown_path_is_404(self):
        assert self._request(b"GET /nope HTTP/1.0\r\n\r\n").startswith(
            b"HTTP/1.0 404"
        )

    def test_non_get_is_405(self):
        assert self._request(b"POST /metrics HTTP/1.0\r\n\r\n").startswith(
            b"HTTP/1.0 405"
        )

