"""Morsel-driven parallel execution with a deterministic merge layer.

Public surface:

* :class:`ParallelConfig` — degree / morsel size / backend / eligibility.
* :func:`cut_selection`, :func:`morsel_ranges`, :func:`run_morsel` —
  morsel cutting + worker.
* :func:`merge_morsels`, :func:`decode_keys` — the order-stable merge.

The engine integration lives in :mod:`repro.engine.executor`
(``EngineExecutor.parallel``, the *pool* dispatch of its fact pass);
sessions enable it via ``AssessSession(parallelism=N)`` or the
``REPRO_PARALLELISM`` environment variable.  Results are bit-identical to
one inline morsel — passes that cannot guarantee that (fractional sums,
by the ``Table.sums_exactly`` gate) transparently run inline.  See
docs/performance.md, "Execution: one fact pass".
"""

from .config import DEFAULT_MORSEL_ROWS, ParallelConfig, env_parallelism
from .merge import decode_keys, merge_morsels
from .morsel import (
    AggSpec,
    DimPredicate,
    FactPredicate,
    JoinSpec,
    KeySpec,
    MorselResult,
    MorselTask,
    cut_selection,
    morsel_ranges,
    run_morsel,
)

__all__ = [
    "AggSpec",
    "DEFAULT_MORSEL_ROWS",
    "DimPredicate",
    "FactPredicate",
    "JoinSpec",
    "KeySpec",
    "MorselResult",
    "MorselTask",
    "ParallelConfig",
    "cut_selection",
    "decode_keys",
    "env_parallelism",
    "merge_morsels",
    "morsel_ranges",
    "run_morsel",
]
