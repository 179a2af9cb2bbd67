"""Shared pieces: metric spec, statistics, digests, counters, the run record."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
"""The checkout root: the directory holding ``BENCHMARK.json``."""

WORK = ROOT / ".perfbench"
"""Everything a run writes (stores, spill files, telemetry, records)."""

MIN_SAMPLES = 100
"""Samples of every reported op type a run collects before it stops."""


class UnknownMetric(ValueError):
    """A workload produced a metric that ``BENCHMARK.json`` does not name."""


# ----------------------------------------------------------------------
# The metric spec
# ----------------------------------------------------------------------
def load_spec(path: Path = ROOT / "BENCHMARK.json") -> Dict[str, object]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def emit_metrics(
    values: Mapping[str, float], spec: Mapping[str, object], trace: bool
) -> Dict[str, Dict[str, object]]:
    """The ``metrics`` object of the result line, checked against the spec.

    Every metric of the mode's section (``per_layer`` when tracing,
    ``end_to_end`` otherwise) must be present, and no other name may
    appear: an unknown or missing name raises :class:`UnknownMetric`.
    """
    section = spec["per_layer" if trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in section}
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise UnknownMetric(f"metrics not named in BENCHMARK.json: {unknown}")
    missing = sorted(set(units) - set(values))
    if missing:
        raise UnknownMetric(f"metrics named in BENCHMARK.json but not measured: {missing}")
    return {
        name: {"value": float(values[name]), "unit": units[name]}
        for name in units
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: Sequence[float]) -> float:
    """The 90th percentile (``statistics.quantiles``' exclusive method)."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# Host speed and the end-to-end timings
# ----------------------------------------------------------------------
GAUGE_EVERY_S = 0.25
"""Seconds of timed work between two readings of the host gauge."""

GAUGE_SPAN = 2
"""Readings on each side of a segment that its scale is the median of."""

GAUGE_REF_S = 0.012
"""The gauge kernel's reference time.  A timing scaled by
``GAUGE_REF_S / reading`` reads as it would on a host that runs the
kernel in exactly this time."""

FAILED = "failed"
"""The kind of an op that raised or was refused: its time counts, it
does not complete."""

NOT_SINGLE = ("write", "batch")
"""Kinds of completed ops whose latency is not a single statement's."""


class HostGauge:
    """A fixed reference kernel, timed between ops to track host speed.

    On a shared host the speed of the same code drifts by 10-50% over
    seconds to minutes, in runs long enough that a whole run can sit in
    a slow stretch.  The kernel uses fixed inputs and no program code,
    so its time moves with the host and not with the program.  It does
    the program's kinds of work: a numpy group-by (sort-based unique and
    bincount), a stable argsort, a gather-and-sum, and a Python dict
    loop over strings.  Timed work between two readings is scaled by the
    median of the readings around it, which cancels most of the host's
    drift; a change in the program's own speed passes through unscaled.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.keys = rng.integers(0, 5_000, 50_000)
        self.values = rng.random(50_000)
        self.words = [f"k{i % 997}" for i in range(20_000)]
        self.readings: List[float] = []
        self.measure()  # warm-up: first-touch allocations
        self.readings.clear()
        self.measure()

    def measure(self) -> float:
        import numpy as np

        start = time.perf_counter()
        inverse = np.unique(self.keys, return_inverse=True)[1]
        np.bincount(inverse, weights=self.values)
        np.argsort(self.values, kind="stable")
        float(self.values[inverse % 1_000].sum())
        counts: Dict[str, int] = {}
        for word in self.words:
            counts[word] = counts.get(word, 0) + 1
        self.readings.append(time.perf_counter() - start)
        return self.readings[-1]

    @property
    def segment(self) -> int:
        """The segment timed work done now belongs to: the readings
        ``segment`` and ``segment + 1`` bracket it."""
        return len(self.readings) - 1

    def scale(self, segment: int) -> float:
        """The factor for timed work of ``segment``: ``GAUGE_REF_S`` over
        the median of the ``GAUGE_SPAN`` readings on each side of it."""
        around = self.readings[max(0, segment + 1 - GAUGE_SPAN):segment + 1 + GAUGE_SPAN]
        return GAUGE_REF_S / median(around)


Op = Tuple[str, float, int]
"""``(kind, latency_s, segment)`` of one attempted op."""


def timing_metrics(
    ops: Sequence[Op], spans: Sequence[Tuple[float, int]],
    scale: Callable[[int], float] = lambda segment: 1.0, suffix: str = "",
) -> Dict[str, float]:
    """Ops per second and single-statement latency (median and 90th
    percentile), with every time scaled by its segment's ``scale``.

    ``spans`` are the ``(seconds, segment)`` the throughput is computed
    over: each op's own time in a closed loop, each round's wall time
    for concurrent clients.  Ops of a ``NOT_SINGLE`` kind count as
    completed but are not single-statement latencies.
    """
    completed = [(kind, latency * scale(segment))
                 for kind, latency, segment in ops if kind != FAILED]
    assess = [latency for kind, latency in completed if kind not in NOT_SINGLE]
    return {
        "ops_per_s" + suffix: per(len(completed),
                                  sum(seconds * scale(segment) for seconds, segment in spans)),
        "assess_p50_ms" + suffix: 1000.0 * median(assess),
        "assess_p90_ms" + suffix: 1000.0 * p90(assess),
    }


# ----------------------------------------------------------------------
# Results: digests and counters
# ----------------------------------------------------------------------
ROLES = ("measure", "benchmark_measure", "comparison_measure", "label_measure")
"""The ``AssessResult`` attributes naming the columns of an answer's cells:
value, benchmark, comparison and label.  Auxiliary columns a plan keeps
along the way are not part of the answer."""


def digest(result) -> str:
    """A content hash of an assess result's cells in row order: levels,
    coordinates, and the four cell columns (floats by their exact bytes)."""
    cube = result.cube
    levels = tuple(cube.group_by.levels)
    h = hashlib.sha256(repr(levels).encode())
    for level in levels:
        h.update("\x1f".join(map(str, cube.coords[level].tolist())).encode() + b"\x1e")
    for role in ROLES:
        column = cube.measure(getattr(result, role))
        h.update(f"{role}:{column.dtype}".encode())
        if column.dtype.kind == "f":
            h.update(column.tobytes())
        else:
            h.update("\x1f".join(map(str, column.tolist())).encode())
        h.update(b"\x1e")
    return h.hexdigest()


def same_cells(left, right) -> bool:
    """Whether two assess results hold the same cells, bit for bit.

    Cells are compared in coordinate order, the order
    :meth:`AssessResult.cells` and the wire format use, so two plans
    that emit the same cells in different row orders agree.
    """
    import numpy as np

    a, b = left.cube, right.cube
    levels = tuple(a.group_by.levels)
    if levels != tuple(b.group_by.levels) or len(a) != len(b):
        return False
    rows_a = rows_b = np.arange(len(a))
    if not all(np.array_equal(a.coords[level], b.coords[level]) for level in levels):
        rows_a, rows_b = (
            np.lexsort([cube.coords[level].astype(str) for level in reversed(levels)])
            for cube in (a, b)
        )
        if not all(np.array_equal(a.coords[level][rows_a], b.coords[level][rows_b])
                   for level in levels):
            return False
    for role in ROLES:
        x = a.measure(getattr(left, role))[rows_a]
        y = b.measure(getattr(right, role))[rows_b]
        if x.dtype != y.dtype:
            return False
        if x.dtype.kind == "f" and x.tobytes() != y.tobytes():
            return False
        if x.dtype.kind != "f" and not np.array_equal(x, y):
            return False
    return True


def counters(engines: Iterable) -> Dict[str, int]:
    """Summed engine counters plus result-cache occupancy."""
    total: Dict[str, int] = {}
    for engine in engines:
        for key, value in engine.metrics.snapshot()["counters"].items():
            total[key] = total.get(key, 0) + int(value)
        stats = engine.result_cache.stats()
        for key in ("hits", "misses", "derivations", "invalidations", "cached_bytes"):
            total[f"cache.{key}"] = total.get(f"cache.{key}", 0) + int(stats[key])
    return total


def delta(after: Mapping[str, int], before: Mapping[str, int]) -> Dict[str, int]:
    return {key: after.get(key, 0) - before.get(key, 0) for key in set(after) | set(before)}


def count_metrics(
    d: Mapping[str, int], ops: int, writes: int, cached_bytes: int
) -> Dict[str, float]:
    """Per-layer counts and ratios from an engine-counter delta.

    A fact pass is one ``engine.scans`` bump; it ran on the parallel
    tier (``engine.parallel.queries``), the spill tier
    (``engine.spill.queries``) or serially (everything else, including
    the passes either tier declined).
    """
    passes = d.get("engine.scans", 0)
    parallel = d.get("engine.parallel.queries", 0)
    spill = d.get("engine.spill.queries", 0)
    p_fallbacks = d.get("engine.parallel.fallbacks", 0)
    s_fallbacks = d.get("engine.spill.fallbacks", 0)
    lookups = d.get("cache.hits", 0) + d.get("cache.derivations", 0) + d.get("cache.misses", 0)
    scanned = d.get("engine.rows_scanned", 0)
    pruned = d.get("engine.storage.rows_pruned", 0)
    return {
        "engine.scans_per_op": per(passes, ops),
        "engine.rows_scanned_per_op": per(scanned, ops),
        "cache.hit_ratio": per(d.get("cache.hits", 0), lookups),
        "cache.derive_ratio": per(d.get("cache.derivations", 0), lookups),
        "cache.miss_ratio": per(d.get("cache.misses", 0), lookups),
        "cache.invalidations_per_write": per(d.get("cache.invalidations", 0), writes),
        "cache.cached_mb": cached_bytes / 2**20,
        "parallel.fallback_ratio": per(p_fallbacks, parallel + p_fallbacks),
        "parallel.morsels_per_op": per(d.get("engine.parallel.morsels", 0), ops),
        "storage.rows_pruned_ratio": per(pruned, scanned + pruned),
        "spill.bytes_per_op": per(d.get("engine.spill.bytes_spilled", 0), ops),
        "spill.fallback_ratio": per(s_fallbacks, spill + s_fallbacks),
        "tier.serial_share": per(passes - parallel - spill, passes),
        "tier.parallel_share": per(parallel, passes),
        "tier.spill_share": per(spill, passes),
        "tier.parallel_fallback_share": per(p_fallbacks, passes),
        "tier.spill_fallback_share": per(s_fallbacks, passes),
        "workload.write_share": per(writes, ops),
    }


# ----------------------------------------------------------------------
# Correctness bookkeeping
# ----------------------------------------------------------------------
class Verdicts:
    """Counts attempted, failed (error/refused) and wrong-result ops.

    ``inject_every=k`` corrupts the observed answer of every k-th check,
    which is how the benchmark's own tests prove a wrong result is
    caught and counted.
    """

    def __init__(self, inject_every: int = 0):
        self.inject_every = inject_every
        self.attempted = 0
        self.errors = 0
        self.wrong = 0
        self.checked = 0
        self.examples: List[str] = []

    def error(self, message: str) -> None:
        self.errors += 1
        if len(self.examples) < 5:
            self.examples.append(message)

    def check(self, observed, expected, what: str) -> bool:
        self.checked += 1
        if self.inject_every and self.checked % self.inject_every == 0:
            observed = ("corrupted", observed)
        if observed == expected:
            return True
        self.wrong += 1
        if len(self.examples) < 5:
            self.examples.append(f"wrong result: {what}")
        return False

    @property
    def failed(self) -> int:
        return self.errors + self.wrong


# ----------------------------------------------------------------------
# Host and run record
# ----------------------------------------------------------------------
def git_commit() -> str:
    """The checkout's commit, read from ``.git`` files (no git process,
    nothing outside the checkout); ``unknown`` outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record() -> Dict[str, object]:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def peak_rss_mb() -> float:
    from repro.obs.rss import peak_rss_bytes

    return peak_rss_bytes() / 2**20


def write_record(name: str, record: Mapping[str, object]) -> Path:
    path = WORK / "runs" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True, default=str))
    return path


class Clock:
    """A deadline for one timed phase, extended until enough samples."""

    def __init__(self, seconds: float, min_samples: int):
        self.seconds = seconds
        self.min_samples = min_samples
        self.start = time.perf_counter()
        # Never run past three times the requested length, whatever the
        # sample count: the run must end in bounded time.
        self.hard_stop = self.start + max(3 * seconds, seconds + 30)

    def running(self, samples: int) -> bool:
        now = time.perf_counter()
        if now >= self.hard_stop:
            return False
        return now < self.start + self.seconds or samples < self.min_samples


def describe(workload: str, seed: int, sizes: Mapping[str, object]) -> Dict[str, object]:
    """The start of a run record: what ran, on which inputs and host."""
    return {
        "workload": workload,
        "seed": seed,
        "sizes": dict(sizes),
        "host": host_record(),
        "argv": sys.argv[1:],
    }
