"""Group-by kernels over integer codes: key folding and aggregation.

Every layer that groups rows uses these two kernels — the engine's fact
pass and its morsel workers, the morsel merge, the spill merge, cache
derivation and in-memory roll-up — so a group's key and a measure's
partial are computed the same way wherever they are computed.  The
module imports only NumPy and :mod:`repro.core.errors`, which keeps the
process-pool morsel worker importable without the engine package.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .errors import EngineError


def fold_codes(
    code_columns: "Sequence[Tuple[np.ndarray, int]]", n_rows: int
) -> Tuple[np.ndarray, int]:
    """Fold ``(codes, cardinality)`` columns into one lexicographic key.

    Returns the per-row combined key and the key space (the product of
    the cardinalities).  With no columns every row gets key 0.
    """
    combined = np.zeros(n_rows, dtype=np.int64)
    key_space = 1
    for codes, cardinality in code_columns:
        combined = combined * cardinality + codes
        key_space *= max(1, int(cardinality))
    return combined, key_space


def group_keys(combined: np.ndarray, key_space: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys of ``combined`` and each row's dense group id.

    When the key space is small relative to the row count the
    factorisation runs through a counting pass (``np.bincount``) instead
    of ``np.unique``'s sort — O(n + key_space) versus O(n log n), with the
    same sorted-key group order.
    """
    if combined.size and key_space <= max(1 << 16, 2 * combined.size):
        keys = np.flatnonzero(np.bincount(combined, minlength=key_space))
        lookup = np.empty(key_space, dtype=np.int64)
        lookup[keys] = np.arange(len(keys), dtype=np.int64)
        return keys, lookup[combined]
    keys, group_ids = np.unique(combined, return_inverse=True)
    return keys, group_ids.astype(np.int64, copy=False)


def combine_codes(
    code_columns: "Sequence[Tuple[np.ndarray, int]]", n_rows: int
) -> Tuple[np.ndarray, int, np.ndarray]:
    """Fold pre-encoded columns into dense group ids.

    Returns ``(group_ids, group_count, first_row_of_group)``.  Group ids
    follow the sorted combined-key order, i.e. the lexicographic order of
    the key columns' codes; ``first_row_of_group[g]`` is the first row of
    group ``g``.  With no grouping columns every row is one group
    (complete aggregation).
    """
    combined, key_space = fold_codes(code_columns, n_rows)
    keys, group_ids = group_keys(combined, key_space)
    # reversed assignment leaves each slot holding its first occurrence
    first = np.empty(len(keys), dtype=np.int64)
    first[group_ids[::-1]] = np.arange(n_rows - 1, -1, -1, dtype=np.int64)
    return group_ids, len(keys), first


def aggregate(
    group_ids: np.ndarray, group_count: int, values, op: str
) -> np.ndarray:
    """Aggregate ``values`` per group: sum, count, avg, min or max.

    ``count`` counts rows and ignores ``values``; re-aggregating counted
    partials is therefore a ``sum``.  Sums add in row order, so the result
    depends only on which rows fall in each group and in what order.
    """
    if op == "count":
        return np.bincount(group_ids, minlength=group_count).astype(np.float64)
    values = np.asarray(values, dtype=np.float64)
    if op == "sum":
        return np.bincount(group_ids, weights=values, minlength=group_count)
    if op == "avg":
        totals = np.bincount(group_ids, weights=values, minlength=group_count)
        counts = np.bincount(group_ids, minlength=group_count)
        with np.errstate(divide="ignore", invalid="ignore"):
            return totals / counts
    if op == "min":
        out = np.full(group_count, np.inf)
        np.minimum.at(out, group_ids, values)
        return out
    if op == "max":
        out = np.full(group_count, -np.inf)
        np.maximum.at(out, group_ids, values)
        return out
    raise EngineError(f"unsupported aggregation operator {op!r}")
