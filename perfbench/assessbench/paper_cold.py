"""paper-cold: the four Section 6 intentions under every feasible plan.

Each op is one (intention, plan) pair, run through ``AssessSession``
with the result cache off and parallelism 2, over an SSB store opened
memory-mapped.  Every pass visits all nine pairs in a seeded order,
Constant's and External's twice.  An answer's cells must be
bit-identical to those of the first answer to its intention, which
checks both that all plans agree and that answers are stable across
passes.
"""

from __future__ import annotations

import random
import shutil
from typing import Dict, Iterator, List, Tuple

from . import sessions
from .common import WORK, Clock, Verdicts, describe, same_cells

NAME = "paper-cold"
ROWS = 80_000
PARALLELISM = 2
REPEAT = {"Constant": 2, "External": 2}
"""Runs per pass of an intention's plans (default 1): twelve ops a pass,
two to four per intention.  This puts the median inside Constant NP's
latencies and the 90th percentile inside External NP's, rather than on
the edge between two pairs."""

Pair = Tuple[str, str, str]


def pairs(session) -> List[Pair]:
    """Every (intention, plan, statement) the planner deems feasible."""
    from repro.experiments.statements import INTENTIONS, statement_text

    return [
        (intention, plan, statement_text(intention))
        for intention in INTENTIONS
        for plan in session.feasible_plans(statement_text(intention))
        for _ in range(REPEAT.get(intention, 1))
    ]


def schedule(seed: int, items: List[Pair]) -> Iterator[Pair]:
    rng = random.Random(seed)
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def run(args, verdicts: Verdicts):
    from repro import AssessSession

    rows = max(2_000, int(ROWS * args.scale))
    work = sessions.fresh_dir(WORK / "work" / NAME)
    report = sessions.set_up({
        "kind": "catalog", "rows": rows, "seed": args.seed,
        "reps": sessions.SETUP_REPS, "dir": str(work),
    })
    record = describe(NAME, args.seed, {"lineorder_rows": rows, "parallelism": PARALLELISM,
                                        "cache": "off"})
    reference: Dict[str, object] = {}

    def phase(seconds, min_samples, tracer):
        engine = sessions.open_store(report["store"])
        engine.result_cache.enabled = False
        session = AssessSession(engine, parallelism=PARALLELISM)
        items = pairs(session)
        record["pairs"] = [f"{intention}/{plan}" for intention, plan, _ in items]

        def execute(index, op):
            _, plan, text = op
            return sessions.assess_op(session, text, plan, tracer, index)

        def check(index, op, result):
            intention, plan, _ = op
            first = reference.setdefault(intention, result)
            verdicts.check(same_cells(result, first), True, f"{intention} under {plan}")

        return sessions.measured(engine, lambda: sessions.closed_loop(
            schedule(args.seed, items), execute, check, Clock(seconds, min_samples), verdicts,
            kind_of=lambda op: f"{op[0]}/{op[1]}",
        ))

    try:
        metrics, tracer = sessions.run_session_workload(args, report, phase, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return metrics, record, tracer
