"""Wire format: assess results and diagnostics as JSON documents.

One serializer, used by both the HTTP handlers and the test battery —
``tests/test_server_concurrency.py`` proves served responses are
bit-identical to direct :class:`~repro.api.AssessSession` execution by
serializing the direct result through these same functions and
comparing parsed JSON trees.  Floats round-trip exactly through
``json`` (``repr`` encoding); ``NaN`` is mapped to ``null`` so the
documents stay strict JSON.

A result is columnar: one member array per level under ``members``,
and one array each for ``value``, ``benchmark``, ``comparison`` and
``label``, all ``rows`` long and in the coordinate order of
:meth:`~repro.core.result.AssessResult.coordinate_order`.  Row ``i``
of every array is one cell.  The arrays are gathered with numpy and
converted with ``tolist()``; no per-cell objects are built.

The response schema is versioned (:data:`SCHEMA_VERSION`) and
structurally validated by ``tools/check_server_schema.py``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

SCHEMA_VERSION = 2
"""Bump when a response field changes meaning; the validator pins it.

Version 2 replaced the per-cell ``cells`` array with column arrays."""

_PLAIN = frozenset((str, int, bool, type(None)))
"""Member types that are JSON scalars as they are."""


def _numbers(column: np.ndarray) -> List[Optional[float]]:
    """A contract column as JSON numbers (NaN/None → null)."""
    values = np.asarray(column, dtype=np.float64)
    numbers = values.tolist()
    for row in np.flatnonzero(np.isnan(values)).tolist():
        numbers[row] = None
    return numbers


def _member(value) -> object:
    """A coordinate member as a JSON scalar (numpy scalars unwrapped)."""
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return None if math.isnan(value) else value
    return str(value)


def _members(column: np.ndarray) -> List[object]:
    """A level's member column as JSON scalars."""
    if column.dtype.kind == "f":
        return _numbers(column)
    members = column.tolist()
    if set(map(type, members)) <= _PLAIN:
        return members
    return [_member(member) for member in members]


def _label_key(label) -> str:
    return "null" if label is None else str(label)


def serialize_result(result) -> Dict[str, object]:
    """One :class:`~repro.core.result.AssessResult` as a JSON document.

    Rows come out in the coordinate order of ``result.cells()``, so two
    executions of the same statement — served or direct, serial or
    parallel — serialize identically.
    """
    cube = result.cube
    levels = list(cube.group_by.levels)
    order = result.coordinate_order()
    return {
        "plan": result.plan_name,
        "levels": levels,
        "measure": result.measure,
        "rows": len(result),
        "members": {level: _members(cube.coords[level][order]) for level in levels},
        "value": _numbers(cube.measure(result.measure)[order]),
        "benchmark": _numbers(cube.measure(result.benchmark_measure)[order]),
        "comparison": _numbers(cube.measure(result.comparison_measure)[order]),
        "label": cube.measure(result.label_measure)[order].tolist(),
        "label_counts": {
            _label_key(label): count
            for label, count in sorted(
                result.label_counts().items(), key=lambda item: _label_key(item[0])
            )
        },
        "timings": {
            step: round(float(seconds), 9)
            for step, seconds in result.timings.items()
        },
    }


def serialize_batch(batch) -> Dict[str, object]:
    """A :class:`~repro.batch.BatchResult` (results + sharing report)."""
    return {
        "results": [serialize_result(result) for result in batch.results],
        "seconds": [round(float(seconds), 9) for seconds in batch.seconds],
        "sharing": {
            key: value for key, value in batch.report.to_dict().items()
        },
    }


def serialize_diagnostics(bag) -> List[Dict[str, object]]:
    """A diagnostic bag in the lint JSON layout (ASSESSxxx codes first-class)."""
    documents: List[Dict[str, object]] = []
    for diagnostic in bag.sorted():
        span = diagnostic.span
        documents.append({
            "code": diagnostic.code,
            "severity": str(diagnostic.severity),
            "message": diagnostic.message,
            "span": None if span is None else {
                "start": span.start,
                "end": span.end,
                "line": span.line,
                "column": span.column,
            },
            "hint": diagnostic.hint,
        })
    return documents
