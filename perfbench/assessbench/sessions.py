"""Session workloads: store set-up in a child process, the closed loop.

Set-up (generate and save an SSB store) runs in a separate process, so
the timed process's peak RSS is its own: it only opens the store
memory-mapped and serves the ops.  The child repeats the build and
reports each repetition's times, measured inside the child.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Tuple

from .common import (
    FAILED, GAUGE_EVERY_S, ROOT, Clock, HostGauge, Op, Verdicts, count_metrics, counters, delta,
    digest, median, p90, peak_rss_mb, per, timing_metrics,
)
from .trace import NullTracer, Tracer, layer_metrics

SETUP_REPS = 3
"""Set-up repetitions per run; ``setup_s`` is their median."""


# ----------------------------------------------------------------------
# Set-up child
# ----------------------------------------------------------------------
def build_in_child(spec: Mapping[str, object], timeout: float = 170.0) -> Dict[str, object]:
    """Run :func:`build_main` in a child process and return its report."""
    process = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--build", json.dumps(spec)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=timeout,
    )
    if process.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{process.stderr[-4000:]}")
    return json.loads(process.stdout.strip().splitlines()[-1])


def build_main(spec: Mapping[str, object]) -> Dict[str, object]:
    """Child side: build the store ``reps`` times; keep the last copy.

    ``kind`` is ``catalog`` (generate the SSB catalog in RAM with the
    BUDGET cube, then save it as a v2 store) or ``chunked``
    (:func:`build_ssb_store`, which generates and writes partition by
    partition; its whole time is reported as ``save_s``).  With
    ``reference`` statements, digests of their unbudgeted in-RAM answers
    are returned as well.
    """
    from repro.engine.persist import save_catalog

    directory = Path(str(spec["dir"]))
    reps: List[Dict[str, float]] = []
    final = directory / "store"
    gauge = HostGauge()
    for rep in range(int(spec["reps"])):
        target = directory / f"store-{rep}"
        shutil.rmtree(target, ignore_errors=True)
        start = time.perf_counter()
        if spec["kind"] == "catalog":
            from repro.experiments.statements import prepare_engine

            engine = prepare_engine(int(spec["rows"]), seed=int(spec["seed"]))
            generated = time.perf_counter()
            save_catalog(engine.catalog, str(target), format="v2")
            del engine
        else:
            from repro.datagen.ssb import build_ssb_store

            generated = start
            build_ssb_store(
                str(target), int(spec["rows"]), seed=int(spec["seed"]),
                partition_rows=int(spec["partition_rows"]),
            )
        saved = time.perf_counter()
        reps.append({"generate_s": generated - start, "save_s": saved - generated})
        gauge.measure()
        if rep:
            shutil.rmtree(directory / f"store-{rep - 1}")
    shutil.rmtree(final, ignore_errors=True)
    os.replace(directory / f"store-{int(spec['reps']) - 1}", final)
    for rep, entry in enumerate(reps):
        entry["scale"] = gauge.scale(rep)
    report: Dict[str, object] = {"store": str(final), "reps": reps}
    if spec.get("reference"):
        engine = open_store(str(final), mmap=False)
        engine.result_cache.enabled = False
        from repro import AssessSession

        session = AssessSession(engine)
        report["reference"] = {
            key: digest(session.assess(text))
            for key, text in dict(spec["reference"]).items()
        }
    return report


def open_store(path: str, mmap: bool = True):
    from repro.datagen.ssb import ssb_engine_from_catalog
    from repro.engine.persist import load_catalog

    return ssb_engine_from_catalog(load_catalog(path, mmap=mmap))


def set_up(spec: Dict[str, object]) -> Dict[str, object]:
    """Build in a child, then open the store ``reps`` times here.

    Returns the report with ``setup_s`` (median of generate + save +
    open over the repetitions) and per-stage medians, each repetition's
    stages scaled by the host gauge read around it (``unscaled_setup_s``
    is the median without the scaling).
    """
    Path(str(spec["dir"])).mkdir(parents=True, exist_ok=True)
    report = build_in_child(spec)
    gauge = HostGauge()
    opens = []
    for _ in report["reps"]:
        start = time.perf_counter()
        open_store(report["store"])
        opens.append(time.perf_counter() - start)
        gauge.measure()
    reps = report["reps"]
    opened = [seconds * gauge.scale(rep) for rep, seconds in enumerate(opens)]
    generated = [rep["generate_s"] * rep["scale"] for rep in reps]
    saved = [rep["save_s"] * rep["scale"] for rep in reps]
    report.update(
        setup_s=median([sum(stages) for stages in zip(generated, saved, opened)]),
        unscaled_setup_s=median([
            rep["generate_s"] + rep["save_s"] + seconds for rep, seconds in zip(reps, opens)
        ]),
        generate_s=median(generated),
        save_s=median(saved),
        open_s=median(opened),
    )
    return report


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
def assess_op(session, text: str, plan: str, tracer, op_id: int):
    """One single-statement op: ``AssessSession.assess`` untraced, or
    its ``parse`` -> ``plan`` -> ``execute_plan`` chain with the result's
    step timings as child spans."""
    if isinstance(tracer, NullTracer):
        return session.assess(text, plan=plan)
    with tracer.op(op_id):
        with tracer.span("parse"):
            statement = session.parse(text)
        with tracer.span("plan"):
            built = session.plan(statement, plan)
        with tracer.span("execute_plan") as span:
            result = session.execute_plan(built, statement)
        tracer.steps(span, result.timings)
    return result


class LoopResult:
    def __init__(self) -> None:
        self.assess: List[float] = []
        self.by_kind: Dict[str, List[float]] = {}
        self.trail: List[Op] = []
        self.gauge = HostGauge()
        self.busy = 0.0
        self.completed = 0
        self.writes = 0
        self.peak_rss_mb = 0.0

    def latencies(self) -> Dict[str, Dict[str, float]]:
        """Median, p90 and sample count of each op kind (for the record)."""
        return {
            kind: {"n": len(values), "p50_ms": 1000 * median(values), "p90_ms": 1000 * p90(values)}
            for kind, values in sorted(self.by_kind.items())
        }


def closed_loop(
    ops: Iterable[object],
    execute: Callable[[int, object], object],
    check: Callable[[int, object, object], None],
    clock: Clock,
    verdicts: Verdicts,
    kind_of: Callable[[object], str] = lambda op: "assess",
) -> LoopResult:
    """One client: issue an op, wait for it, check it, issue the next.

    Only the op itself is timed; the check, and a reading of the host
    gauge after every ``GAUGE_EVERY_S`` of timed work, run between ops
    and are not part of ``busy``, the time ``ops_per_s`` is computed
    over.  Ops of kind ``write`` are counted but are not
    single-statement latencies.
    """
    loop = LoopResult()
    since_reading = 0.0
    for index, op in enumerate(ops):
        if not clock.running(len(loop.assess)):
            break
        verdicts.attempted += 1
        start = time.perf_counter()
        try:
            result = execute(index, op)
        except Exception:  # noqa: BLE001 - counted and reported, never fatal
            elapsed = time.perf_counter() - start
            kind = FAILED
            verdicts.error(f"op {index}: {traceback.format_exc(limit=-3)}")
        else:
            elapsed = time.perf_counter() - start
            loop.completed += 1
            kind = kind_of(op)
            loop.by_kind.setdefault(kind, []).append(elapsed)
            if kind == "write":
                loop.writes += 1
            else:
                loop.assess.append(elapsed)
            check(index, op, result)
        loop.busy += elapsed
        loop.trail.append((kind, elapsed, loop.gauge.segment))
        since_reading += elapsed
        if since_reading >= GAUGE_EVERY_S:
            loop.gauge.measure()
            since_reading = 0.0
    if since_reading:
        loop.gauge.measure()
    # Read now: checks that run after the timed phase must not count.
    loop.peak_rss_mb = peak_rss_mb()
    return loop


def end_to_end(loop: LoopResult, setup_s: float, record: Dict[str, object]) -> Dict[str, float]:
    """The end-to-end metrics, timings scaled to the gauge's reference
    speed; the unscaled timings and the gauge's readings go to the run
    record."""
    spans = [(latency, segment) for _, latency, segment in loop.trail]
    record["unscaled"] = timing_metrics(loop.trail, spans)
    record["gauge_ms"] = [1000.0 * reading for reading in loop.gauge.readings]
    return {
        "setup_s": setup_s,
        **timing_metrics(loop.trail, spans, loop.gauge.scale, suffix="_norm"),
        "peak_rss_mb": loop.peak_rss_mb,
    }


def ops_per_s(loop: LoopResult) -> float:
    return per(loop.completed, loop.busy)


SERVER_ONLY = (
    "batch.exec_ms_per_batch", "batch.engine_scans_per_batch", "wire.bytes_per_op",
    "server.handler_ms_per_op", "server.transport_ms_per_op", "server.batch_p50_ms",
    "server.batch_p90_ms", "telemetry.records_per_op",
)
"""Per-layer metrics only the server workload exercises (0 elsewhere)."""

Phase = Callable[[float, int, object], Tuple[LoopResult, Dict[str, int], int]]
"""``(seconds, min_samples, tracer) -> (loop, counter delta, cached bytes)``."""


def run_session_workload(args, report: Mapping[str, object], phase: Phase,
                         record: Dict[str, object]):
    """The untraced run (end-to-end metrics) or the traced run (per-layer).

    The traced run spends half its time untraced and half traced, each
    on freshly opened state, so ``trace.overhead_ratio`` compares like
    with like; counts come from the traced half.
    """
    record["setup"] = {
        key: report[key]
        for key in ("reps", "generate_s", "save_s", "open_s", "setup_s", "unscaled_setup_s")
    }
    if not args.trace:
        loop, _, _ = phase(args.seconds, args.min_samples, NullTracer())
        record["samples"] = {"assess": len(loop.assess), "writes": loop.writes}
        record["latency_by_kind"] = loop.latencies()
        return end_to_end(loop, float(report["setup_s"]), record), None
    half = args.seconds / 2
    plain, _, _ = phase(half, 0, NullTracer())
    tracer = Tracer()
    traced, counts, cached_bytes = phase(half, 0, tracer)
    record["samples"] = {"untraced_ops": plain.completed, "traced_ops": traced.completed,
                         "writes": traced.writes}
    metrics = layer_metrics(tracer, traced.completed)
    metrics.update(count_metrics(counts, traced.completed, traced.writes, cached_bytes))
    metrics.update({name: 0.0 for name in SERVER_ONLY})
    metrics.update({
        "trace.overhead_ratio": per(ops_per_s(plain), ops_per_s(traced)),
        "setup.generate_s": float(report["generate_s"]),
        "setup.save_s": float(report["save_s"]),
        "setup.open_s": float(report["open_s"]),
    })
    return metrics, tracer


def measured(engine, loop_fn) -> Tuple[LoopResult, Dict[str, int], int]:
    """Run ``loop_fn()`` and return it with the engine's counter delta
    and the result cache's occupancy afterwards."""
    before = counters([engine])
    loop = loop_fn()
    after = counters([engine])
    return loop, delta(after, before), after["cache.cached_bytes"]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
