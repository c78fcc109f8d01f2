"""Exporters: versioned JSON snapshots and Prometheus text format.

One snapshot shape serves every surface — the ``--stats-json`` file a
node writes on exit, the ``/metrics.json`` endpoint a scraper polls,
the ``repro stats`` table renderer, and the CI schema gate::

    {
      "schema": "repro.obs/1",
      "registries": {
        "<registry>": {
          "counters":   {"<name>": <int>},
          "gauges":     {"<name>": <number>},
          "histograms": {"<name>": {"bounds": [...],
                                    "bucket_counts": [...],
                                    "count": <int>, "sum": <number>}}
        }
      }
    }

The schema string is versioned; consumers reject what they don't
recognise instead of guessing.  :func:`validate_snapshot` is the one
validator everything (tests, CI, the stats subcommand) shares.

The Prometheus rendering is the text exposition format: instrument
names are sanitised into ``repro_<name>`` metrics, the owning registry
becomes a ``registry`` label, and histograms emit cumulative
``_bucket``/``_sum``/``_count`` series.
"""

from __future__ import annotations

import re
from typing import Mapping, Union

from .registry import Registry

__all__ = [
    "SCHEMA",
    "prometheus_text",
    "snapshot_obj",
    "validate_snapshot",
]

#: Version tag stamped into (and required of) every snapshot.
SCHEMA = "repro.obs/1"

_KINDS = ("counters", "gauges", "histograms")

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def snapshot_obj(
    registries: Union[Registry, Mapping[str, Registry]],
) -> dict:
    """Snapshot one registry (keyed by its own name) or a mapping."""
    if isinstance(registries, Registry):
        registries = {registries.name: registries}
    return {
        "schema": SCHEMA,
        "registries": {
            name: registry.snapshot() for name, registry in registries.items()
        },
    }


def validate_snapshot(obj: object) -> list[str]:
    """Every way ``obj`` fails the snapshot schema (empty = valid)."""
    errors: list[str] = []
    if not isinstance(obj, dict):
        return [f"snapshot must be an object, got {type(obj).__name__}"]
    if obj.get("schema") != SCHEMA:
        errors.append(f"schema must be {SCHEMA!r}, got {obj.get('schema')!r}")
    registries = obj.get("registries")
    if not isinstance(registries, dict):
        errors.append("registries must be an object")
        return errors
    for reg_name, sections in registries.items():
        where = f"registries[{reg_name!r}]"
        if not isinstance(sections, dict):
            errors.append(f"{where} must be an object")
            continue
        if sorted(sections) != sorted(_KINDS):
            errors.append(f"{where} must have exactly the sections {_KINDS}")
            continue
        for name, value in sections["counters"].items():
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                errors.append(
                    f"{where} counter {name!r} must be a non-negative int"
                )
        for name, value in sections["gauges"].items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"{where} gauge {name!r} must be a number")
        for name, value in sections["histograms"].items():
            errors.extend(
                f"{where} histogram {name!r}: {problem}"
                for problem in _histogram_problems(value)
            )
    return errors


def _histogram_problems(value: object) -> list[str]:
    if not isinstance(value, dict):
        return ["must be an object"]
    problems = []
    bounds = value.get("bounds")
    counts = value.get("bucket_counts")
    if not isinstance(bounds, list) or not all(
        isinstance(b, (int, float)) and not isinstance(b, bool) for b in bounds
    ):
        problems.append("bounds must be a list of numbers")
    if not isinstance(counts, list) or not all(
        isinstance(c, int) and not isinstance(c, bool) and c >= 0 for c in counts
    ):
        problems.append("bucket_counts must be a list of non-negative ints")
    elif isinstance(bounds, list) and len(counts) != len(bounds) + 1:
        problems.append("bucket_counts must have len(bounds) + 1 entries")
    count = value.get("count")
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        problems.append("count must be a non-negative int")
    elif isinstance(counts, list) and all(isinstance(c, int) for c in counts) \
            and sum(counts) != count:
        problems.append("bucket_counts must sum to count")
    if not isinstance(value.get("sum"), (int, float)) \
            or isinstance(value.get("sum"), bool):
        problems.append("sum must be a number")
    return problems


# ----------------------------------------------------------------------
# Prometheus text exposition


def _metric_name(name: str) -> str:
    return "repro_" + _NAME_OK.sub("_", name)


def _fmt(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def prometheus_text(
    registries: Union[Registry, Mapping[str, Registry], dict],
) -> str:
    """Render registries (or an existing snapshot) as Prometheus text."""
    if isinstance(registries, dict) and registries.get("schema") == SCHEMA:
        snapshot = registries
    else:
        snapshot = snapshot_obj(registries)
    lines: list[str] = []
    typed: set[str] = set()

    def declare(metric: str, kind: str) -> None:
        if metric not in typed:
            typed.add(metric)
            lines.append(f"# TYPE {metric} {kind}")

    for reg_name in sorted(snapshot["registries"]):
        sections = snapshot["registries"][reg_name]
        label = f'{{registry="{reg_name}"}}'
        for kind, section_name in (("counter", "counters"), ("gauge", "gauges")):
            for name in sorted(sections[section_name]):
                metric = _metric_name(name)
                declare(metric, kind)
                value = sections[section_name][name]
                lines.append(f"{metric}{label} {_fmt(value)}")
        for name in sorted(sections["histograms"]):
            metric = _metric_name(name)
            declare(metric, "histogram")
            histogram = sections["histograms"][name]
            cumulative = 0
            for bound, bucket in zip(
                histogram["bounds"], histogram["bucket_counts"]
            ):
                cumulative += bucket
                lines.append(
                    f'{metric}_bucket{{registry="{reg_name}",le="{_fmt(bound)}"}}'
                    f" {cumulative}"
                )
            lines.append(
                f'{metric}_bucket{{registry="{reg_name}",le="+Inf"}}'
                f" {histogram['count']}"
            )
            lines.append(f"{metric}_sum{label} {_fmt(histogram['sum'])}")
            lines.append(f"{metric}_count{label} {histogram['count']}")
    return "\n".join(lines) + "\n"
