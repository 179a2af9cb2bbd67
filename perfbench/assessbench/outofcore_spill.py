"""outofcore-spill: a partitioned SSB store served under a memory budget.

A separate set-up process builds a partitioned v2 store with
``build_ssb_store`` (fact clustered by date) and computes the reference
answers: every statement of the mix, unbudgeted, on the store loaded
fully into RAM.  The timed process opens the store memory-mapped with
parallelism 2 and an 8 MB ``memory_budget``, cache off, and runs a fixed
mix per cycle of eleven ops, shuffled by the seed:

* four ``quantity`` statements sliced on ``year`` (zone-map prunable),
* five ``quantity`` statements that no zone map can prune,
* two runs of the one ``revenue`` statement, which the spill tier
  declines today.

Every answer's digest must equal its reference.
"""

from __future__ import annotations

import random
import shutil
from typing import Dict, Iterator, List, Tuple

from . import sessions
from .common import WORK, Clock, Verdicts, describe, digest

NAME = "outofcore-spill"
ROWS = 400_000
PARTITION_ROWS = 131_072
PARALLELISM = 2
MEMORY_BUDGET = 8 << 20
LABELS = "labels {[0, 1): low, [1, inf]: high}"
YEARS = tuple(str(year) for year in range(1992, 1999))
REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")


def _statement(head: str, measure: str, constant: int) -> str:
    return (f"with SSB {head} assess {measure} against {constant} "
            f"using ratio({measure}, {constant}) {LABELS}")


def mix() -> Dict[str, List[str]]:
    """Every statement of the mix, by op kind."""
    return {
        "year-city": [_statement(f"for year = '{y}' by month, c_city", "quantity", 100)
                      for y in YEARS],
        "year-brand": [_statement(f"for year = '{y}' by month, brand", "quantity", 50)
                       for y in YEARS],
        "all": [_statement("by month, c_nation", "quantity", 1000)],
        "region": [_statement(f"for c_region = '{r}' by year, s_nation", "quantity", 1000)
                   for r in REGIONS],
        "revenue": [_statement("by year, c_region", "revenue", 100_000)],
    }


CYCLE = ("year-city", "year-city", "year-brand", "year-brand",
         "all", "all", "region", "region", "region", "revenue", "revenue")
"""Eleven ops: the fast pruned kinds, the full-scan kinds and ``revenue``
each hold a block of the latency distribution wide enough that the
median and the 90th percentile fall inside one block, not between two."""


def schedule(seed: int, statements: Dict[str, List[str]]) -> Iterator[Tuple[str, str]]:
    """Endless ``(kind, statement)`` ops, one shuffled ``CYCLE`` at a time."""
    rng = random.Random(seed)
    while True:
        kinds = list(CYCLE)
        rng.shuffle(kinds)
        for kind in kinds:
            yield kind, rng.choice(statements[kind])


def run(args, verdicts: Verdicts):
    from repro import AssessSession

    rows = max(20_000, int(ROWS * args.scale))
    statements = mix()
    texts = [text for group in statements.values() for text in group]
    work = sessions.fresh_dir(WORK / "work" / NAME)
    report = sessions.set_up({
        "kind": "chunked", "rows": rows, "seed": args.seed, "partition_rows": PARTITION_ROWS,
        "reps": sessions.SETUP_REPS, "dir": str(work),
        "reference": {str(i): text for i, text in enumerate(texts)},
    })
    reference = {texts[int(key)]: value for key, value in report["reference"].items()}
    record = describe(NAME, args.seed, {
        "lineorder_rows": rows, "partition_rows": PARTITION_ROWS, "parallelism": PARALLELISM,
        "memory_budget_bytes": MEMORY_BUDGET, "cache": "off", "cycle": list(CYCLE),
    })

    def phase(seconds, min_samples, tracer):
        engine = sessions.open_store(report["store"])
        engine.result_cache.enabled = False
        session = AssessSession(engine, parallelism=PARALLELISM, memory_budget=MEMORY_BUDGET)

        def execute(index, op):
            return sessions.assess_op(session, op[1], "best", tracer, index)

        def check(index, op, result):
            verdicts.check(digest(result), reference[op[1]], f"op {index}: {op[1]}")

        return sessions.measured(engine, lambda: sessions.closed_loop(
            schedule(args.seed, statements), execute, check, Clock(seconds, min_samples),
            verdicts, kind_of=lambda op: op[0],
        ))

    try:
        metrics, tracer = sessions.run_session_workload(args, report, phase, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return metrics, record, tracer
