"""Spans recorded by the benchmark around its calls into each layer.

A span is ``(name, start, end, parent, op)``; spans live in memory and
are written out once, at the end of the run.  A layer's time is the
*self* time of its spans: duration minus the part covered by child
spans.  The root ``op`` span's self time is the ``unattributed``
remainder, so the per-layer times of an op always sum to its wall time.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional

LAYER_OF_SPAN = {
    "parse": "parser.ms_per_op",
    "plan": "algebra.plan_ms_per_op",
    "analyze": "analysis.lint_ms_per_op",
    "get_target": "engine.get_ms_per_op",
    "get_benchmark": "engine.get_ms_per_op",
    "get_combined": "engine.get_ms_per_op",
    "join": "algebra.join_ms_per_op",
    "transform": "algebra.transform_ms_per_op",
    "compare": "algebra.compare_ms_per_op",
    "label": "algebra.label_ms_per_op",
    "execute_plan": "session.other_ms_per_op",
    "assess": "session.other_ms_per_op",
    "execute_many": "batch.exec_ms_per_op",
    "serialize": "wire.serialize_ms_per_op",
    "json.dumps": "wire.encode_ms_per_op",
    "acquire": "server.admission_ms_per_op",
    "release": "server.admission_ms_per_op",
    "append": "engine.write_ms_per_op",
}
"""Span name -> the per-layer time metric its self time is charged to.

Step names come from ``AssessResult.timings``; a step name not listed
here is charged to ``session.other_ms_per_op``.
"""

UNATTRIBUTED = "unattributed_ms_per_op"
TIME_METRICS = tuple(sorted(set(LAYER_OF_SPAN.values()))) + (UNATTRIBUTED,)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._op: Optional[int] = None

    @contextlib.contextmanager
    def op(self, op_id: int) -> Iterator[int]:
        self._op = op_id
        with self.span("op") as index:
            yield index
        self._op = None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self._op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def steps(self, parent: int, timings: Mapping[str, float]) -> None:
        """Children of ``parent`` from a result's per-step timings, laid
        end to end from the parent's start (the steps run in sequence)."""
        start = self.spans[parent][1]
        for step, seconds in timings.items():
            self.spans.append([step, start, start + float(seconds), parent, self._op])
            start += float(seconds)

    def layer_times(self) -> Dict[str, float]:
        """Seconds of self time per layer metric, plus ``op`` wall time."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals = {metric: 0.0 for metric in TIME_METRICS}
        totals["op_wall"] = 0.0
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            self_time = (end - start) - covered[index]
            if name == "op":
                totals[UNATTRIBUTED] += self_time
                totals["op_wall"] += end - start
            else:
                totals[LAYER_OF_SPAN.get(name, "session.other_ms_per_op")] += self_time
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")


class NullTracer:
    """The untraced stand-in: same calls, no records."""

    def op(self, op_id: int):
        return contextlib.nullcontext(0)

    def span(self, name: str):
        return contextlib.nullcontext(0)

    def steps(self, parent: int, timings: Mapping[str, float]) -> None:
        pass


def layer_metrics(tracer: Tracer, ops: int) -> Dict[str, float]:
    """Per-op milliseconds for every time metric plus ``op_wall_ms_per_op``."""
    totals = tracer.layer_times()
    metrics = {
        metric: 1000.0 * totals[metric] / ops if ops else 0.0
        for metric in TIME_METRICS
    }
    metrics["op_wall_ms_per_op"] = 1000.0 * totals["op_wall"] / ops if ops else 0.0
    return metrics
