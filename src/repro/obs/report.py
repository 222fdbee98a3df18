"""Run reports: one JSON document per join execution.

The benchmark scripts print tables and the CLI prints counters, but
neither leaves a *stable machine-readable artifact* behind — nothing a
perf-trajectory tracker (or the next PR) can diff.  A run report is that
artifact: algorithm, configuration (``k``, granule durations, cost
weights), wall-clock phase timings, the garbage-collector pauses of the
run (:mod:`repro.obs.gcpause`), the full
:class:`~repro.storage.metrics.CostCounters` /
:class:`~repro.storage.metrics.ResilienceCounters`, the governor outcome
and the trace span tree.

Reports are produced by
:meth:`repro.core.base.OverlapJoinAlgorithm.join` for every algorithm
when ``collect_report=True`` (the CLI flags ``--report`` / ``--json``
turn it on), exposed on ``JoinResult.report``, written with
:func:`write_report` and validated against the checked-in JSON schema
(``run_report.schema.json``) by :func:`validate_report` — a
dependency-free validator covering the schema subset the report uses
(types, required, properties, items, enum, minimum,
additionalProperties, local ``$ref``).

Counter sections are exact integers straight from the run, so two
executions of the same join — with different kernels, say — produce
reports with *identical* ``counters``/``resilience`` sections, which is
what ``tests/obs/test_report.py`` pins down.  Reports written before the
in-query worker pool was removed may carry an ``execution`` object; the
schema still accepts it, and new reports no longer write it.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from .trace import Span, span_tree

__all__ = [
    "REPORT_VERSION",
    "ReportValidationError",
    "build_report",
    "phase_table",
    "dumps_report",
    "write_report",
    "load_report",
    "load_schema",
    "validate_report",
]

#: Report document format version.
REPORT_VERSION = 1

_SCHEMA_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "run_report.schema.json"
)
_SCHEMA: Optional[Dict[str, Any]] = None


class ReportValidationError(ValueError):
    """A run-report document does not conform to the schema."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"at {path or '$'}: {message}")
        self.path = path


# ----------------------------------------------------------------------
# Building.
# ----------------------------------------------------------------------


def _jsonable(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(key): _jsonable(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(val) for val in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def phase_table(root: Optional[Span]) -> List[Dict[str, Any]]:
    """Aggregate the root span's direct children into the phase table.

    Phases are matched by span name — repeated spans of one phase (e.g.
    ``oipcreate`` per side) aggregate into one row — and listed in first
    -appearance order, which is execution order for a single-threaded
    driver.
    """
    if root is None:
        return []
    rows: List[Dict[str, Any]] = []
    index: Dict[str, Dict[str, Any]] = {}
    for child in root.children:
        row = index.get(child.name)
        if row is None:
            row = {"name": child.name, "duration_ms": 0.0, "spans": 0}
            index[child.name] = row
            rows.append(row)
        row["duration_ms"] += child.duration_ms
        row["spans"] += 1
    return rows


def _gc_section(root: Optional[Span]) -> Optional[Dict[str, Any]]:
    """The collector pauses the root span recorded (see
    :mod:`repro.obs.gcpause`), or None when it recorded none."""
    if root is None or "gc_ms" not in root.attributes:
        return None
    return {
        "ms": root.attributes["gc_ms"],
        "collections": list(root.attributes["gc_collections"]),
    }


def build_report(
    result: Any,
    device: Any,
    weights: Any,
    root: Optional[Span] = None,
    span_count: int = 0,
    event_count: int = 0,
    governor: Optional[Dict[str, Any]] = None,
    metrics: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the report document for one executed join.

    *result* is the :class:`~repro.core.base.JoinResult`; *device* /
    *weights* the environment it ran under; *root* the run's root trace
    span (``None`` degrades to an empty stub tree so an un-traced report
    still validates).
    """
    return {
        "version": REPORT_VERSION,
        "algorithm": result.algorithm,
        "elapsed_ms": float(getattr(result, "elapsed_ms", 0.0)),
        "completed": bool(result.completed),
        "result": {
            "pairs": len(result.pairs),
            "false_hit_ratio": result.counters.false_hit_ratio(),
        },
        "config": {
            "device": device.name,
            "weights": {"cpu": weights.cpu, "io": weights.io},
            "details": _jsonable(result.details),
        },
        "counters": result.counters.snapshot(),
        "resilience": result.resilience.snapshot(),
        "phases": phase_table(root),
        "trace": {
            "spans": span_count,
            "events": event_count,
            "root": span_tree(root),
        },
        "governor": _jsonable(governor) if governor is not None else None,
        "metrics": _jsonable(metrics) if metrics is not None else None,
        "gc": _gc_section(root),
        "index": (
            _jsonable(result.details["index"])
            if isinstance(getattr(result, "details", None), dict)
            and "index" in result.details
            else None
        ),
    }


# ----------------------------------------------------------------------
# Persistence.
# ----------------------------------------------------------------------


def dumps_report(report: Dict[str, Any]) -> str:
    """The canonical JSON serialization of a report (shared by
    :func:`write_report` and the CLI's ``--json`` output, so the bytes on
    disk and on stdout are identical for the same run)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_report(report: Dict[str, Any], path: str) -> str:
    """Atomically write *report* as JSON; returns *path*."""
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write(dumps_report(report))
    os.replace(tmp_path, path)
    return path


def load_report(path: str) -> Dict[str, Any]:
    """Load and validate a run report from *path*."""
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    validate_report(report)
    return report


def load_schema() -> Dict[str, Any]:
    """The checked-in run-report JSON schema."""
    global _SCHEMA
    if _SCHEMA is None:
        with open(_SCHEMA_PATH, "r", encoding="utf-8") as handle:
            _SCHEMA = json.load(handle)
    return _SCHEMA


# ----------------------------------------------------------------------
# Validation (dependency-free JSON-schema subset).
# ----------------------------------------------------------------------

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _type_matches(value: Any, expected: str) -> bool:
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, _TYPES[expected])


def _resolve_ref(ref: str, root_schema: Dict[str, Any]) -> Dict[str, Any]:
    if not ref.startswith("#/"):
        raise ReportValidationError("$ref", f"unsupported reference {ref!r}")
    node: Any = root_schema
    for part in ref[2:].split("/"):
        node = node[part]
    return node


def _validate(
    value: Any,
    schema: Dict[str, Any],
    root_schema: Dict[str, Any],
    path: str,
) -> None:
    ref = schema.get("$ref")
    if ref is not None:
        _validate(value, _resolve_ref(ref, root_schema), root_schema, path)
        return
    expected = schema.get("type")
    if expected is not None:
        types = expected if isinstance(expected, list) else [expected]
        if not any(_type_matches(value, t) for t in types):
            raise ReportValidationError(
                path,
                f"expected type {' or '.join(types)}, "
                f"got {type(value).__name__}",
            )
    enum = schema.get("enum")
    if enum is not None and value not in enum:
        raise ReportValidationError(path, f"{value!r} not in enum {enum}")
    minimum = schema.get("minimum")
    if (
        minimum is not None
        and isinstance(value, (int, float))
        and not isinstance(value, bool)
        and value < minimum
    ):
        raise ReportValidationError(path, f"{value} is below minimum {minimum}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise ReportValidationError(path, f"missing required key {key!r}")
        properties = schema.get("properties", {})
        additional = schema.get("additionalProperties", True)
        for key, item in value.items():
            key_path = f"{path}.{key}" if path else key
            if key in properties:
                _validate(item, properties[key], root_schema, key_path)
            elif isinstance(additional, dict):
                _validate(item, additional, root_schema, key_path)
            elif additional is False:
                raise ReportValidationError(
                    path, f"unexpected key {key!r}"
                )
    elif isinstance(value, list):
        items = schema.get("items")
        if items is not None:
            for position, item in enumerate(value):
                _validate(item, items, root_schema, f"{path}[{position}]")


def validate_report(
    report: Dict[str, Any], schema: Optional[Dict[str, Any]] = None
) -> None:
    """Validate *report* against the run-report schema; raises
    :class:`ReportValidationError` on the first violation."""
    if schema is None:
        schema = load_schema()
    _validate(report, schema, schema, "")
