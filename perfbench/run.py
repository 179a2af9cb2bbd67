"""Run one workload of the assess benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 15 --trace 0

Workloads (``BENCHMARK.json`` says why each exists): ``paper-cold``,
``explore-cache``, ``server-mixed`` and ``outofcore-spill``.  The
program under test is imported from the checkout's ``src/`` and driven
only through its public API (HTTP for the server).  Inputs are made
from ``--seed``; every answer is checked.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run record (host, commit, seed, input sizes, sample
counts, why the workload exists) goes to ``.perfbench/runs/`` and the
traced run's spans to ``.perfbench/spans/``.

Times are scaled to a reference host speed.  A shared host's speed
drifts by 10-50% over seconds to minutes, which spreads runs of the
same code by 10-20%.  So a fixed reference kernel
(``common.HostGauge``) is timed between ops every quarter second of
timed work, and after every set-up repetition, and each stretch of
work is scaled by ``GAUGE_REF_S`` over the median of the readings
around it.  The ``_norm`` metrics (ops per second, median and
90th-percentile single-statement latency) and ``setup_s`` are scaled;
the unscaled figures and the readings go to the run record.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-cold", "explore-cache", "server-mixed", "outofcore-spill")


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise ImportError(f"repro imported from {source}, not from {ROOT / 'src'}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Knobs for the benchmark's own tests: shrink inputs and sample
    # floors, or corrupt every k-th checked answer.
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--min-samples", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--inject-every", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--build", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.build is None and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    work = ROOT / ".perfbench"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    # Spill files and any other temporary file stay inside the checkout.
    os.environ["REPRO_SPILL_DIR"] = os.environ["TMPDIR"] = str(work / "tmp")
    import_program()

    from assessbench import sessions

    if args.build is not None:
        print(json.dumps(sessions.build_main(json.loads(args.build))))
        return 0

    from assessbench import common

    spec = common.load_spec()
    if args.min_samples is None:
        args.min_samples = common.MIN_SAMPLES
    module = importlib.import_module("assessbench." + args.workload.replace("-", "_"))
    verdicts = common.Verdicts(inject_every=args.inject_every)
    metrics, record, tracer = module.run(args, verdicts)
    record["why"] = {entry["name"]: entry["why"] for entry in spec["workloads"]}[args.workload]
    emitted = common.emit_metrics(metrics, spec, bool(args.trace))

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record.update(
        metrics=emitted,
        attempted=verdicts.attempted, failed=verdicts.failed, errors=verdicts.errors,
        wrong=verdicts.wrong, checked=verdicts.checked, failure_examples=verdicts.examples,
        error_rate=common.per(verdicts.failed, verdicts.attempted),
    )
    if tracer is not None:
        spans = work / "spans" / f"{name}.jsonl"
        tracer.write(spans)
        record["spans"] = str(spans.relative_to(ROOT))
    record_path = common.write_record(name, record)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"samples={record.get('samples')} record={record_path.relative_to(ROOT)}")
    print(f"# error_rate {record['error_rate']:.6f} ({verdicts.failed}/{verdicts.attempted}; "
          f"{verdicts.checked} answers checked, {verdicts.wrong} wrong)")
    for metric, entry in emitted.items():
        print(f"# {metric} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": verdicts.wrong == 0 and verdicts.checked > 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": emitted,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
