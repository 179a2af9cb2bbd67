"""Morsel tasks and the per-morsel worker.

A *morsel* is a run of ``morsel_rows`` consecutive surviving fact rows of
one fact pass (:func:`cut_selection` cuts them from the zone-pruned row
ranges).  The driver (the engine executor) gathers every per-row input —
foreign-key columns, fact-resident predicate columns, dictionary codes,
measures — into one :class:`MorselTask` per morsel.  :func:`run_morsel`
then performs the whole scan pipeline locally: semi-join position
resolution, predicate masking, group-key folding, and partial
aggregation, returning a :class:`MorselResult` of *global* combined group
keys with per-key partials.

Everything in a task is either a NumPy array (zero-copy under the thread
backend, pickled by value under the process backend) or a small shared
object (a key index, a pre-computed dimension mask).  This module
deliberately imports nothing from :mod:`repro.engine` — tasks treat
predicates and key indexes as opaque, which keeps the dependency graph
acyclic and the worker importable from a process pool.

Determinism contract (see :mod:`repro.parallel.merge`): the combined
group keys a worker emits are *globally* comparable because every code
column is encoded against the full table's dictionary — morsels never
build private dictionaries.  Folding uses
:func:`repro.core.aggregate.fold_codes`, so a group's key is the same
integer no matter which morsel(s) it appears in, and the merged
sorted-key order is the group order of a one-morsel pass.
"""

from __future__ import annotations

import time
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..core.aggregate import aggregate, fold_codes, group_keys


def morsel_ranges(n_rows: int, morsel_rows: int) -> List[Tuple[int, int]]:
    """Split ``n_rows`` into contiguous ``[lo, hi)`` ranges."""
    return [morsel[0] for morsel in cut_selection(None, n_rows, morsel_rows)]


def cut_selection(
    ranges: Optional[List[Tuple[int, int]]], n_rows: int, morsel_rows: int
) -> List[List[Tuple[int, int]]]:
    """Cut a row selection into morsels of ``morsel_rows`` selected rows.

    ``ranges`` are ordered, disjoint ``[lo, hi)`` fact-row ranges
    (``None`` selects all ``n_rows``).  Each morsel is the list of
    fact-row ranges holding its rows, in row order; only the last morsel
    may be short.
    """
    morsel_rows = max(int(morsel_rows), 1)
    morsels: List[List[Tuple[int, int]]] = []
    current: List[Tuple[int, int]] = []
    filled = 0
    for lo, hi in [(0, n_rows)] if ranges is None else ranges:
        while lo < hi:
            take = min(hi - lo, morsel_rows - filled)
            current.append((lo, lo + take))
            lo += take
            filled += take
            if filled == morsel_rows:
                morsels.append(current)
                current, filled = [], 0
    if current:
        morsels.append(current)
    return morsels


class JoinSpec(NamedTuple):
    """One semi-join leg of a morsel: resolve FK values to dim positions."""

    alias: str  # dimension alias, referenced by dim predicates / key specs
    index: object  # the dimension's KeyIndex (opaque; exposes positions_of)
    fk_values: np.ndarray  # this morsel's rows of the fact FK column


class FactPredicate(NamedTuple):
    """A predicate over a fact-resident column (this morsel's rows)."""

    predicate: object  # opaque; exposes mask(values) -> bool array
    values: np.ndarray


class DimPredicate(NamedTuple):
    """A predicate over a dimension attribute, pre-evaluated per dim row.

    The (tiny) dimension-side mask is computed once by the driver and
    shared by every morsel; the worker just propagates it through the
    morsel's FK positions (the semi-join).
    """

    alias: str
    dim_mask: np.ndarray


class KeySpec(NamedTuple):
    """One column of the group-by key, already dictionary-encoded.

    ``kind == "fact"``: ``codes`` are the fact column's global dictionary
    codes of this morsel's rows.  ``kind == "dim"``: ``codes`` is
    the *whole* dimension column's codes, gathered through the morsel's
    FK positions by the worker.
    """

    kind: str  # "fact" | "dim"
    alias: Optional[str]  # dimension alias when kind == "dim"
    codes: np.ndarray
    cardinality: int


class AggSpec(NamedTuple):
    """One physical partial aggregate: op in {sum, count, min, max}.

    ``values`` are the morsel's measure values (``None`` for count).  The
    driver lowers logical aggregates onto these: ``avg`` becomes a sum
    partial plus a count partial, divided after the merge.
    """

    op: str
    values: Optional[np.ndarray]


class MorselTask(NamedTuple):
    """One morsel: rows ``[lo, hi)`` of the pass's surviving-row sequence.

    Positions count surviving rows only, so a zone-pruned pass cuts its
    morsels from what is left and ``hi - lo`` is the rows the task scans.
    """

    index: int
    lo: int
    hi: int
    joins: Tuple[JoinSpec, ...]
    fact_predicates: Tuple[FactPredicate, ...]
    dim_predicates: Tuple[DimPredicate, ...]
    keys: Tuple[KeySpec, ...]
    aggs: Tuple[AggSpec, ...]


class MorselResult(NamedTuple):
    index: int
    keys: np.ndarray  # sorted distinct combined group keys of this morsel
    partials: List[np.ndarray]  # one array per AggSpec, aligned with keys
    rows_in: int
    rows_matched: int
    seconds: float


def select_rows(
    task: MorselTask,
) -> Tuple[Dict[str, np.ndarray], Optional[np.ndarray], int]:
    """The semi-join: FK positions, the predicate mask, the matched rows.

    Returns ``(positions, mask, matched)``; ``mask`` is ``None`` when no
    predicate applies and every row of the morsel matches.
    """
    positions = {}
    for alias, index, fk_values in task.joins:
        positions[alias] = index.positions_of(fk_values)

    mask: Optional[np.ndarray] = None
    for predicate, values in task.fact_predicates:
        part = predicate.mask(values)
        mask = part if mask is None else (mask & part)
    for alias, dim_mask in task.dim_predicates:
        part = dim_mask[positions[alias]]
        mask = part if mask is None else (mask & part)
    matched = task.hi - task.lo if mask is None else int(mask.sum())
    return positions, mask, matched


def partial_aggregate(
    task: MorselTask,
    positions: Dict[str, np.ndarray],
    mask: Optional[np.ndarray],
    matched: int,
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Fold the group key of the matched rows and compute every partial.

    Returns the sorted distinct combined keys and one partial per
    :class:`AggSpec`, aligned with the keys.
    """
    code_columns = []
    for kind, alias, codes, cardinality in task.keys:
        if kind == "fact":
            column_codes = codes if mask is None else codes[mask]
        else:
            pos = positions[alias]
            column_codes = codes[pos if mask is None else pos[mask]]
        code_columns.append((column_codes, cardinality))
    keys, group_ids = group_keys(*fold_codes(code_columns, matched))

    partials = [
        aggregate(
            group_ids, len(keys),
            values if values is None or mask is None else values[mask], op,
        )
        for op, values in task.aggs
    ]
    return keys, partials


def run_morsel(task: MorselTask) -> MorselResult:
    """Execute one morsel: semi-join, mask, fold, partial-aggregate.

    Runs entirely on worker-local arrays; emits no traces and touches no
    shared mutable state, so it is safe under both pool backends.
    """
    start = time.perf_counter()
    positions, mask, matched = select_rows(task)
    keys, partials = partial_aggregate(task, positions, mask, matched)
    return MorselResult(
        index=task.index,
        keys=keys,
        partials=partials,
        rows_in=task.hi - task.lo,
        rows_matched=matched,
        seconds=time.perf_counter() - start,
    )
