"""The columnar wire document against an independent oracle.

A schema-v2 result document is decoded back into
``(coordinate, value, benchmark, comparison, label)`` rows and compared,
element by element and type by type, with :meth:`AssessResult.cells`
converted to JSON scalars by the rules below — not by the serializer's
own helpers.  The coordinate order of ``cells()`` is itself checked
against its definition: a stable sort on the ``repr`` of each member.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.api import AssessSession
from repro.core import Cube, CubeSchema, GroupBySet, Hierarchy, Level, Measure
from repro.core.result import AssessResult
from repro.experiments.statements import INTENTIONS, prepare_engine, statement_text
from repro.server.wire import SCHEMA_VERSION, serialize_batch, serialize_result


def _json_member(member):
    if isinstance(member, np.generic):
        member = member.item()
    if isinstance(member, float):
        return None if math.isnan(member) else member
    if member is None or isinstance(member, (str, int)):
        return member
    return str(member)


def _json_number(value):
    if value is None or math.isnan(value):
        return None
    return float(value)


def expected_rows(result):
    return [
        (
            tuple(_json_member(member) for member in cell.coordinate),
            _json_number(cell.value),
            _json_number(cell.benchmark),
            _json_number(cell.comparison),
            cell.label,
        )
        for cell in result.cells()
    ]


def decoded_rows(document):
    """The rows of a v2 result document, in document order."""
    members = [document["members"][level] for level in document["levels"]]
    return [
        (
            tuple(column[row] for column in members),
            document["value"][row],
            document["benchmark"][row],
            document["comparison"][row],
            document["label"][row],
        )
        for row in range(document["rows"])
    ]


def _same(left, right) -> bool:
    """Equal and of the same type, recursively (``1 != 1.0 != True``)."""
    if isinstance(left, tuple):
        return (
            isinstance(right, tuple) and len(left) == len(right)
            and all(_same(a, b) for a, b in zip(left, right))
        )
    return type(left) is type(right) and left == right


def assert_oracle(result):
    document = json.loads(json.dumps(serialize_result(result), allow_nan=False))
    assert "cells" not in document
    assert document["rows"] == len(result)
    assert document["levels"] == list(result.cube.group_by.levels)
    decoded = decoded_rows(document)
    expected = expected_rows(result)
    assert len(decoded) == len(expected)
    for row, (got, want) in enumerate(zip(decoded, expected)):
        assert _same(got, want), f"row {row}: {got!r} != {want!r}"
    counts = {}
    for label in document["label"]:
        key = "null" if label is None else label
        counts[key] = counts.get(key, 0) + 1
    assert document["label_counts"] == counts


def assert_repr_order(result):
    by_repr = sorted(result, key=lambda cell: tuple(map(repr, cell.coordinate)))
    assert [cell.coordinate for cell in result.cells()] == [
        cell.coordinate for cell in by_repr
    ]
    assert result.cells() == by_repr


# ----------------------------------------------------------------------
# Hand-built results
# ----------------------------------------------------------------------
def _object_column(values):
    column = np.empty(len(values), dtype=object)
    column[:] = list(values)
    return column


def make_result(coords, value, benchmark, comparison, labels):
    levels = list(coords)
    schema = CubeSchema(
        "S", [Hierarchy(f"H{level}", [Level(level)]) for level in levels],
        [Measure("m")],
    )
    cube = Cube(
        schema, GroupBySet(schema, levels), coords,
        {
            "m": np.asarray(value, dtype=np.float64),
            "b": np.asarray(benchmark, dtype=np.float64),
            "c": np.asarray(comparison, dtype=np.float64),
            "label": _object_column(labels),
        },
    )
    return AssessResult(cube, "m", "b", "c", "label", plan_name="NP")


MEMBER_POOLS = {
    "text": ["a", "b", "Z", "it's", 'say "hi"', "é", "10", "9", "", "a b"],
    "ints": [9, 10, 100, -3, 0, 2**40, 11, 1],
    "numpy_ints": [np.int64(v) for v in (9, 10, 100, -3, 0, 11)],
    "floats": [0.5, -0.0, 2.0, 10.25, 1e-9, float("nan"), 3.0],
    "mixed": ["9", 10, np.int64(9), 1.5, None, True, "x"],
}


@pytest.mark.parametrize("seed", range(12))
def test_random_results_decode_to_cells(seed):
    rng = np.random.default_rng(seed)
    pools = list(MEMBER_POOLS)
    levels = [f"l{i}" for i in range(int(rng.integers(1, 4)))]
    chosen = {level: pools[int(rng.integers(len(pools)))] for level in levels}
    # Distinct coordinates: a random sample of the members' product.
    grids = np.meshgrid(
        *[np.arange(len(MEMBER_POOLS[chosen[level]])) for level in levels],
        indexing="ij",
    )
    product = np.stack([grid.ravel() for grid in grids], axis=1)
    n = int(rng.integers(1, min(len(product), 40) + 1))
    picked = product[rng.permutation(len(product))[:n]]
    coords = {}
    for index, level in enumerate(levels):
        pool = MEMBER_POOLS[chosen[level]]
        members = [pool[i] for i in picked[:, index]]
        typed = chosen[level] in ("ints", "floats") and rng.random() < 0.5
        coords[level] = np.asarray(members) if typed else _object_column(members)
    value = rng.normal(100, 50, n).round(int(rng.integers(0, 4)))
    benchmark = rng.normal(100, 50, n)
    comparison = value / benchmark
    comparison[rng.random(n) < 0.3] = np.nan
    benchmark[rng.random(n) < 0.2] = np.nan
    labels = [
        None if rng.random() < 0.25 else str(rng.choice(["low", "ok", "high"]))
        for _ in range(n)
    ]
    result = make_result(coords, value, benchmark, comparison, labels)
    assert_repr_order(result)
    assert_oracle(result)


def test_integer_members_sort_as_strings():
    result = make_result(
        {"year": np.array([9, 10, 100, 2])},
        [1.0, 2.0, 3.0, 4.0], [1.0] * 4, [1.0] * 4, ["a"] * 4,
    )
    document = serialize_result(result)
    assert document["members"]["year"] == [10, 100, 2, 9]
    assert [cell.coordinate for cell in result.cells()] == [
        (np.int64(10),), (np.int64(100),), (np.int64(2),), (np.int64(9),)
    ]
    assert_oracle(result)


def test_nan_and_none_map_to_null():
    result = make_result(
        {"x": _object_column(["a", "b"])},
        [1.0, float("nan")], [float("nan"), 2.0], [float("nan"), 0.5],
        [None, "ok"],
    )
    document = serialize_result(result)
    assert document["value"] == [1.0, None]
    assert document["benchmark"] == [None, 2.0]
    assert document["comparison"] == [None, 0.5]
    assert document["label"] == [None, "ok"]
    assert document["label_counts"] == {"null": 1, "ok": 1}
    assert_oracle(result)


def test_empty_result():
    result = make_result(
        {"a": _object_column([]), "b": _object_column([])}, [], [], [], [],
    )
    document = serialize_result(result)
    assert document["rows"] == 0
    assert document["members"] == {"a": [], "b": []}
    for key in ("value", "benchmark", "comparison", "label"):
        assert document[key] == []
    assert document["label_counts"] == {}
    assert result.cells() == []
    assert_oracle(result)


# ----------------------------------------------------------------------
# The four benchmark types of the paper's Section 6 intentions
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def ssb_session():
    return AssessSession(prepare_engine(3_000, seed=7))


@pytest.mark.parametrize("intention", INTENTIONS)
def test_intentions_decode_to_cells(ssb_session, intention):
    result = ssb_session.assess(statement_text(intention))
    assert len(result) > 0
    assert_repr_order(result)
    assert_oracle(result)


def test_batch_results_are_v2_documents(ssb_session):
    batch = ssb_session.execute_many(
        [statement_text(intention) for intention in INTENTIONS]
    )
    document = json.loads(json.dumps(serialize_batch(batch), allow_nan=False))
    assert len(document["results"]) == len(INTENTIONS)
    for result, served in zip(batch.results, document["results"]):
        assert decoded_rows(served) == expected_rows(result)
    assert SCHEMA_VERSION == 2
