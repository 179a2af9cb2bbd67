"""explore-cache: a seeded analyst walk over SSB with the result cache on.

Each episode keeps one slice, one measure and one benchmark constant,
and follows a fixed script of drill-downs and roll-ups across the four
hierarchies, so later statements revisit (cache hits) or roll up from
(cache derivations) earlier ones.  Every hundredth op is a write: a
fact-table append through ``engine.catalog.register(table,
replace=True)``, which invalidates the cache entries that depend on the
fact.

Sampled answers are checked after the timed phase by replaying them on
a cache-disabled session over the same store with the same appends.
"""

from __future__ import annotations

import gc
import random
import shutil
from typing import Dict, Iterator, List, Tuple

import numpy as np

from . import sessions
from .common import WORK, Clock, Verdicts, describe, digest

NAME = "explore-cache"
ROWS = 300_000
PARALLELISM = 2
WRITE_EVERY = 100
APPEND_ROWS = 300
SAMPLE_EVERY = 7
REPLAYS = 30

HIERARCHIES = {
    "Date": ("year", "month"),
    "Customer": ("c_region", "c_nation", "c_city"),
    "Supplier": ("s_region", "s_nation", "s_city"),
    "Part": ("mfgr", "category", "brand"),
}
SLICES = (
    [None]
    + [("year", str(year)) for year in range(1992, 1999)]
    + [("c_region", region) for region in ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")]
    + [("mfgr", f"MFGR#{k}") for k in range(1, 6)]
)
MEASURES = ("quantity", "quantity", "quantity", "revenue")


def statement(measure: str, where, depth: Dict[str, int], constant: int) -> str:
    levels = ", ".join(HIERARCHIES[h][d] for h, d in depth.items())
    slice_clause = f"for {where[0]} = '{where[1]}' " if where else ""
    return (
        f"with SSB {slice_clause}by {levels} assess {measure} against {constant} "
        f"using ratio({measure}, {constant}) "
        "labels {[0, 0.5): low, [0.5, 2]: typical, (2, inf): high}"
    )


SCRIPT = ((0, +1), (1, +1), (0, -1), (0, +1), (0, +1), (1, -1), (0, -1), (0, -1), (1, None))
"""An episode after its first statement: ``(slot, move)`` steps over the
two hierarchies in play; +1 drills down, -1 rolls up, ``None`` swaps the
hierarchy for an unused one at its top level.  The script fixes the mix
of misses, revisits (hits) and roll-ups of cached results (derivations);
the seed picks hierarchies, slice and constant."""


def walk(seed: int) -> Iterator[Tuple[str, object]]:
    """Ops ``("assess", text)`` and, every ``WRITE_EVERY``-th, ``("write", n)``."""
    rng = random.Random(seed)
    drillable = sorted(h for h, levels in HIERARCHIES.items() if len(levels) == 3)
    index = writes = episode = 0
    while True:
        measure = MEASURES[episode % len(MEASURES)]
        episode += 1
        where = rng.choice(SLICES)
        constant = rng.choice((10, 100, 1000, 10_000))
        in_play = rng.sample(drillable, 2)
        depth = [0, 0]
        for step in (None,) + SCRIPT:
            if step is not None:
                slot, move = step
                if move is None:
                    in_play[slot] = rng.choice(sorted(set(HIERARCHIES) - set(in_play)))
                    depth[slot] = 0
                else:
                    depth[slot] += move
            index += 1
            if index % WRITE_EVERY == 0:
                writes += 1
                yield "write", writes
            levels = {h: d for h, d in zip(in_play, depth)}
            yield "assess", statement(measure, where, levels, constant)


def append_rows(catalog, seed: int, number: int) -> Dict[str, np.ndarray]:
    """``APPEND_ROWS`` new LINEORDER rows for write ``number`` (seeded)."""
    rng = np.random.default_rng([seed, number])
    price = np.asarray(catalog.table("ssb_part").column("p_price"))
    part = rng.integers(0, len(price), APPEND_ROWS)
    quantity = rng.integers(1, 51, APPEND_ROWS).astype(np.float64)
    discount = rng.integers(0, 11, APPEND_ROWS).astype(np.float64)
    extended = np.round(quantity * price[part], 2)
    return {
        "lo_datekey": rng.integers(0, len(catalog.table("ssb_date")), APPEND_ROWS),
        "lo_custkey": rng.integers(0, len(catalog.table("ssb_customer")), APPEND_ROWS),
        "lo_suppkey": rng.integers(0, len(catalog.table("ssb_supplier")), APPEND_ROWS),
        "lo_partkey": part,
        "lo_quantity": quantity,
        "lo_extendedprice": extended,
        "lo_discount": discount,
        "lo_revenue": np.round(extended * (100.0 - discount) / 100.0, 2),
        "lo_supplycost": np.round(0.6 * extended * rng.uniform(0.9, 1.1, APPEND_ROWS), 2),
    }


def append(engine, rows: Dict[str, np.ndarray]) -> None:
    """Replace the fact table by itself plus ``rows`` (a write)."""
    from repro.engine.table import Table

    fact = engine.catalog.table("ssb_lineorder")
    columns = {}
    for name in fact.column_names:
        old = np.asarray(fact.column(name))
        columns[name] = np.concatenate([old, rows[name].astype(old.dtype)])
    engine.catalog.register(Table("ssb_lineorder", columns), replace=True)


def run(args, verdicts: Verdicts):
    from repro import AssessSession

    rows = max(2_000, int(ROWS * args.scale))
    work = sessions.fresh_dir(WORK / "work" / NAME)
    report = sessions.set_up({
        "kind": "catalog", "rows": rows, "seed": args.seed,
        "reps": sessions.SETUP_REPS, "dir": str(work),
    })
    record = describe(NAME, args.seed, {
        "lineorder_rows": rows, "parallelism": PARALLELISM, "cache": "on",
        "episode_ops": len(SCRIPT) + 1, "write_every": WRITE_EVERY, "append_rows": APPEND_ROWS,
    })

    def open_session(cache: bool):
        engine = sessions.open_store(report["store"])
        engine.result_cache.enabled = cache
        return AssessSession(engine, parallelism=PARALLELISM)

    def phase(seconds, min_samples, tracer):
        session = open_session(cache=True)
        engine = session.engine
        writes: List[Dict[str, np.ndarray]] = []
        sampled: List[Tuple[int, int, str, str]] = []

        def execute(index, op):
            kind, payload = op
            if kind == "assess":
                return sessions.assess_op(session, payload, "best", tracer, index)
            rows_new = append_rows(engine.catalog, args.seed, payload)
            with tracer.op(index), tracer.span("append"):
                append(engine, rows_new)
            writes.append(rows_new)
            return None

        def check(index, op, result):
            if op[0] == "write":
                # A replaced fact table sits in a reference cycle until the
                # cyclic collector runs; collect now, between ops, so peak
                # RSS measures live data, not when a collection happens.
                gc.collect()
            elif index % SAMPLE_EVERY == 0:
                sampled.append((len(writes), index, op[1], digest(result)))

        measured = sessions.measured(engine, lambda: sessions.closed_loop(
            walk(args.seed), execute, check, Clock(seconds, min_samples), verdicts,
            kind_of=lambda op: op[0],
        ))
        replay(sampled, writes)
        return measured

    def replay(sampled, writes):
        """Re-answer sampled ops without the cache, at their write epoch."""
        chosen = sorted(random.Random(args.seed).sample(sampled, min(REPLAYS, len(sampled))))
        session = open_session(cache=False)
        applied = 0
        for epoch, index, text, expected in chosen:
            while applied < epoch:
                append(session.engine, writes[applied])
                gc.collect()
                applied += 1
            verdicts.check(digest(session.assess(text)), expected, f"op {index}: {text}")
        record.setdefault("replayed", []).append(len(chosen))

    try:
        metrics, tracer = sessions.run_session_workload(args, report, phase, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return metrics, record, tracer
