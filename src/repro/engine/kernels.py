"""Group-by factorization kernels.

The engine's group-by pipeline reduces a multi-column key to dense integer
group ids.  Two implementations are provided:

* :func:`factorize_numpy` — the production kernel: per-column ``np.unique``
  encoding combined into a single integer key, factorised once more.  Fully
  vectorised; this is what makes pushed gets fast.
* :func:`factorize_python` — a dict-based row-at-a-time reference kernel.
  Semantically identical, used (a) as an oracle in tests and (b) by the
  kernel ablation benchmark to quantify what vectorisation buys.

Both return ``(group_ids, group_count, first_row_of_group)`` where
``first_row_of_group[g]`` is a representative row of group ``g``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.aggregate import combine_codes


def encode_column(column: np.ndarray) -> Tuple[np.ndarray, int]:
    """Dense integer codes of one column plus its cardinality."""
    uniques, codes = np.unique(column, return_inverse=True)
    return codes.astype(np.int64, copy=False), len(uniques)


def sums_exactly(values: np.ndarray) -> bool:
    """Whether summing these values is exact in float64.

    Integer-valued floats add exactly while every intermediate sum stays
    below 2**53, so integral measures (quantities, counts, money in
    integral units) aggregate bit-identically in any association order.
    Fractional values do not — callers must fall back to the one
    canonical summation order (a cold scan) instead.
    """
    if len(values) == 0:
        return True
    floats = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(floats)):
        return False
    if np.any(floats != np.trunc(floats)):
        return False
    bound = float(np.abs(floats).max()) * len(floats)
    return bound < 2.0**53


def factorize_numpy(
    columns: Sequence[np.ndarray], n_rows: int
) -> Tuple[np.ndarray, int, np.ndarray]:
    """Vectorised multi-column factorization.

    Encodes each column through :func:`encode_column` and delegates the fold
    to :func:`combine_codes` — the same kernel the engine executor feeds
    with dictionary codes, so the ablation benchmark measures the real
    production path.
    """
    return combine_codes([encode_column(column) for column in columns], n_rows)


def factorize_python(
    columns: Sequence[np.ndarray], n_rows: int
) -> Tuple[np.ndarray, int, np.ndarray]:
    """Dict-based reference factorization (row at a time).

    Group ids are assigned by *sorted key order* so the output is
    exchangeable with :func:`factorize_numpy`.
    """
    if not columns:
        group_ids = np.zeros(n_rows, dtype=np.int64)
        first = np.zeros(1 if n_rows else 0, dtype=np.int64)
        return group_ids, (1 if n_rows else 0), first
    length = len(columns[0])
    keys: List[Tuple] = list(zip(*columns))
    first_seen: Dict[Tuple, int] = {}
    for row, key in enumerate(keys):
        if key not in first_seen:
            first_seen[key] = row
    ordered = sorted(first_seen)
    slot_of = {key: slot for slot, key in enumerate(ordered)}
    group_ids = np.fromiter(
        (slot_of[key] for key in keys), dtype=np.int64, count=length
    )
    first = np.fromiter(
        (first_seen[key] for key in ordered), dtype=np.int64, count=len(ordered)
    )
    return group_ids, len(ordered), first
