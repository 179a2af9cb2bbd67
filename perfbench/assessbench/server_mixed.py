"""server-mixed: two HTTP clients against an in-process ``ReproServer``.

Two tenants (SALES and SSB), one pooled session each, telemetry on.
Two closed-loop clients, each on its own keep-alive connection, mix
``POST /v1/query`` and ``POST /v1/batch`` (see ``CYCLE``): the queries,
with distinct constants, alternate between the tenants, and every batch
sends the four Section 6 intentions to the SSB tenant.

The clients run in rounds: in each, both send one ``CYCLE`` and the
round ends when both are done, so the host gauge can be read with no
request in flight.  Each client parses and checks a response before
sending its next request, so ``ops_per_s`` (completed requests over
the rounds' wall time) includes that client-side work.  Every response
is checked against ``repro.server.wire`` serialization of direct
execution of the same statements on a separate, cache-disabled engine
over the same data.  The traced run adds the handler/transport split over HTTP, then
replays the same ops by calling the handler's public steps directly
(``Tenant.acquire``, ``AssessSession.analyze``,
``assess``/``execute_many``, ``wire.serialize_*``, ``json.dumps``,
``Tenant.release``), untraced and traced.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import shutil
import threading
import time
from typing import Dict, Iterator, List, Tuple

from . import sessions
from .common import (
    FAILED, GAUGE_EVERY_S, WORK, Clock, HostGauge, Op, Verdicts, count_metrics, counters, delta,
    describe, median, p90, peak_rss_mb, per, timing_metrics,
)
from .trace import NullTracer, Tracer, layer_metrics

NAME = "server-mixed"
SALES_ROWS = 20_000
SSB_ROWS = 2_000
CLIENTS = 2
SETUP_REPS = 15
CONSTANTS = 12
LABELS = "labels {[0, 1): low, [1, 10]: near, (10, inf): high}"

SALES_SHAPES = (
    "with SALES by month assess storeSales",
    "with SALES by product assess quantity",
    "with SALES for country = 'Italy' by month, product assess storeSales",
    "with SALES by city assess storeCost",
)
SSB_SHAPES = (
    "with SSB by year assess revenue",
    "with SSB by c_region, year assess quantity",
    "with SSB for s_region = 'ASIA' by mfgr assess revenue",
    "with SSB by category assess quantity",
)
VOLATILE = ("timings", "elapsed_s", "tenant", "schema_version")


def statements(seed: int) -> Dict[str, List[str]]:
    """Each tenant's distinct query statements (shape x constant)."""
    rng = random.Random(seed)
    found = {}
    for tenant, shapes in (("acme", SALES_SHAPES), ("globex", SSB_SHAPES)):
        constants = rng.sample(range(10, 100_000), CONSTANTS)
        found[tenant] = [
            f"{shape} against {c} using ratio({shape.split()[-1]}, {c}) {LABELS}"
            for shape in shapes for c in constants
        ]
    return found


CYCLE = (("query", "acme"), ("batch", "globex"), ("query", "acme"), ("query", "globex"))
"""One client's repeating request pattern.  With one pooled session per
tenant, an SSB query often queues behind a batch while a SALES query
does not; two SALES queries per SSB query put the median inside the
SALES latencies and the 90th percentile inside the queued SSB ones,
rather than on the edge between them."""


def client_ops(seed: int, client: int, queries: Dict[str, List[str]],
               batch: List[str]) -> Iterator[Tuple[str, str, object]]:
    """Client ``client``'s endless ``CYCLE`` of ``("query", tenant,
    statement)`` and ``("batch", "globex", statements)`` ops; the second
    client starts half a cycle later, so the two do not batch in step."""
    rng = random.Random(seed * 1000 + client)
    for position in itertools.count(client * len(CYCLE) // 2):
        kind, tenant = CYCLE[position % len(CYCLE)]
        yield (kind, tenant, batch if kind == "batch" else rng.choice(queries[tenant]))


def canonical(document) -> object:
    """A response document without its per-execution fields."""
    if "results" in document:
        return [canonical(result) for result in document["results"]]
    return {key: value for key, value in document.items() if key not in VOLATILE}


def config(work, sales_rows: int, ssb_rows: int):
    from repro.server import AdmissionConfig, ServerConfig, TenantConfig

    return ServerConfig(
        host="127.0.0.1", port=0,
        admission=AdmissionConfig(max_queue=8, deadline_s=60.0),
        tenants=[
            TenantConfig("acme", cube="sales", rows=sales_rows, pool_size=1,
                         telemetry_dir=str(work / "telemetry-acme")),
            TenantConfig("globex", cube="ssb", rows=ssb_rows, pool_size=1,
                         telemetry_dir=str(work / "telemetry-globex")),
        ],
    )


def expected_documents(server_config, queries, batch) -> Dict[str, object]:
    """Direct execution on fresh cache-disabled engines, serialized."""
    from repro import AssessSession
    from repro.server.tenant import build_engine
    from repro.server.wire import serialize_batch, serialize_result

    expected: Dict[str, object] = {}
    for tenant_id, tenant_config in server_config.tenants.items():
        engine = build_engine(tenant_config)
        engine.result_cache.enabled = False
        session = AssessSession(engine)
        for text in queries[tenant_id]:
            document = json.loads(json.dumps(serialize_result(session.assess(text))))
            expected[text] = canonical(document)
        if tenant_id == "globex":
            document = json.loads(json.dumps(serialize_batch(session.execute_many(batch))))
            expected["batch"] = canonical(document)
    return expected


class HttpStats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.query: List[float] = []
        self.batch: List[float] = []
        self.handler: List[float] = []
        self.transport: List[float] = []
        self.completed = 0
        self.ops: List[Op] = []
        """Every request: ``assess`` (a query), ``batch`` or ``FAILED``."""
        self.rounds: List[Tuple[float, int]] = []
        """``(wall seconds, gauge segment)`` of every round."""


def http_phase(server, seed, seconds, min_samples, verdicts, queries, batch, expected):
    """Both clients over HTTP, in rounds, until the clock stops.

    In a round each client sends one ``CYCLE`` of requests, each after
    the previous response; the round ends when both clients are done.
    Between rounds, with no request in flight, the host gauge is read
    after every ``GAUGE_EVERY_S`` of round time.  Returns the stats and
    the gauge.
    """
    stats = HttpStats()
    clock = Clock(seconds, min_samples)
    gauge = HostGauge()
    go = threading.Barrier(CLIENTS + 1, timeout=180)
    done = threading.Barrier(CLIENTS + 1, timeout=180)
    stop = threading.Event()

    def request(connection, kind, tenant, payload) -> None:
        body = {"tenant": tenant}
        body["statement" if kind == "query" else "statements"] = payload
        encoded = json.dumps(body).encode()
        segment = gauge.segment
        with stats.lock:
            verdicts.attempted += 1
        began = time.perf_counter()
        try:
            connection.request("POST", f"/v1/{kind}", body=encoded,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as error:
            connection.close()
            with stats.lock:
                stats.ops.append((FAILED, time.perf_counter() - began, segment))
                verdicts.error(f"{kind}: {type(error).__name__}: {error}")
            return
        latency = time.perf_counter() - began
        if response.status != 200:
            with stats.lock:
                stats.ops.append((FAILED, latency, segment))
                verdicts.error(f"{kind}: HTTP {response.status}: {data[:200]!r}")
            return
        document = json.loads(data)
        key = payload if kind == "query" else "batch"
        with stats.lock:
            stats.completed += 1
            stats.ops.append(("assess" if kind == "query" else kind, latency, segment))
            (stats.query if kind == "query" else stats.batch).append(latency)
            stats.handler.append(document["elapsed_s"])
            stats.transport.append(latency - document["elapsed_s"])
            verdicts.check(canonical(document), expected[key], f"{kind} {key[:60]}")

    def client(index: int) -> None:
        connection = http.client.HTTPConnection(server.host, server.port, timeout=120)
        ops = client_ops(seed, index, queries, batch)
        try:
            while True:
                go.wait()
                if stop.is_set():
                    return
                for _ in CYCLE:
                    request(connection, *next(ops))
                done.wait()
        except threading.BrokenBarrierError:
            return
        except BaseException:
            go.abort()
            done.abort()
            raise
        finally:
            connection.close()

    threads = [threading.Thread(target=client, args=(index,)) for index in range(CLIENTS)]
    for thread in threads:
        thread.start()
    since_reading = 0.0
    try:
        while True:
            if not clock.running(min(len(stats.query), len(stats.batch))):
                stop.set()
            go.wait()
            if stop.is_set():
                break
            began = time.perf_counter()
            done.wait()
            wall = time.perf_counter() - began
            stats.rounds.append((wall, gauge.segment))
            since_reading += wall
            if since_reading >= GAUGE_EVERY_S:
                gauge.measure()
                since_reading = 0.0
        if since_reading:
            gauge.measure()
    except threading.BrokenBarrierError:
        raise RuntimeError("an HTTP client failed; see its traceback above") from None
    finally:
        stop.set()
        go.abort()
        done.abort()
        for thread in threads:
            thread.join()
    return stats, gauge


def direct_phase(server, seed, seconds, verdicts, queries, batch, expected, tracer):
    """The handler's public steps called in-process, one op at a time."""
    from repro.server.tenant import Deadline
    from repro.server.wire import SCHEMA_VERSION, serialize_batch, serialize_result

    loop = sessions.LoopResult()
    sizes: List[int] = []
    scans: List[int] = []
    clock = Clock(seconds, 0)
    ops = client_ops(seed, 0, queries, batch)
    index = 0
    while clock.running(0):
        kind, tenant_id, payload = next(ops)
        tenant = server.tenants[tenant_id]
        verdicts.attempted += 1
        began = time.perf_counter()
        with tracer.op(index):
            with tracer.span("acquire"):
                session = tenant.acquire(Deadline(60.0))
            try:
                if kind == "query":
                    with tracer.span("analyze"):
                        bags = [session.analyze(payload)]
                    with tracer.span("assess") as span:
                        result = session.assess(payload)
                    tracer.steps(span, result.timings)
                    with tracer.span("serialize"):
                        document = serialize_result(result)
                else:
                    with tracer.span("analyze"):
                        bags = [session.analyze(text) for text in payload]
                    with tracer.span("execute_many"):
                        outcome = session.execute_many(list(payload))
                    scans.append(outcome.report.engine_scans)
                    with tracer.span("serialize"):
                        document = serialize_batch(outcome)
                document.update(schema_version=SCHEMA_VERSION, tenant=tenant_id,
                                elapsed_s=time.perf_counter() - began)
                with tracer.span("json.dumps"):
                    body = json.dumps(document, sort_keys=True, separators=(",", ":"),
                                      allow_nan=False).encode("utf-8")
            finally:
                with tracer.span("release"):
                    tenant.release(session)
        loop.busy += time.perf_counter() - began
        loop.completed += 1
        index += 1
        sizes.append(len(body))
        key = payload if kind == "query" else "batch"
        if any(bag.has_errors for bag in bags):
            verdicts.error(f"{kind}: lint errors")
        else:
            verdicts.check(canonical(json.loads(body)), expected[key], f"direct {kind}")
    return loop, sizes, scans


def records(server) -> int:
    """Query-log records written so far by every tenant."""
    from repro.obs.qlog import iter_records

    return sum(
        sum(1 for _ in iter_records(tenant.telemetry.directory))
        for tenant in server.tenants.values()
    )


def run(args, verdicts: Verdicts):
    from repro.experiments.statements import INTENTIONS, statement_text
    from repro.server import ReproServer

    sales_rows = max(500, int(SALES_ROWS * args.scale))
    ssb_rows = max(500, int(SSB_ROWS * args.scale))
    work = sessions.fresh_dir(WORK / "work" / NAME)
    queries = statements(args.seed)
    batch = [statement_text(intention) for intention in INTENTIONS]
    record = describe(NAME, args.seed, {
        "sales_rows": sales_rows, "ssb_rows": ssb_rows, "clients": CLIENTS, "pool_size": 1,
        "telemetry": "on", "distinct_queries": sum(len(v) for v in queries.values()),
    })

    builds = []
    server = None
    setup_gauge = HostGauge()
    for _ in range(SETUP_REPS):
        if server is not None:
            server.shutdown()
        began = time.perf_counter()
        server = ReproServer(config(work, sales_rows, ssb_rows))
        builds.append(time.perf_counter() - began)
        setup_gauge.measure()
    # Each build scaled by the host gauge read around it, as the timings are.
    setup_s = median([seconds * setup_gauge.scale(rep) for rep, seconds in enumerate(builds)])
    record["setup"] = {"reps": builds, "setup_s": setup_s, "unscaled_setup_s": median(builds)}
    expected = expected_documents(config(work, sales_rows, ssb_rows), queries, batch)
    server.start()
    try:
        if not args.trace:
            stats, gauge = http_phase(server, args.seed, args.seconds, args.min_samples,
                                      verdicts, queries, batch, expected)
            record["samples"] = {"query": len(stats.query), "batch": len(stats.batch),
                                 "rounds": len(stats.rounds)}
            record["batch_ms"] = {"p50": 1000 * median(stats.batch),
                                  "p90": 1000 * p90(stats.batch)}
            record["unscaled"] = timing_metrics(stats.ops, stats.rounds)
            record["gauge_ms"] = [1000.0 * reading for reading in gauge.readings]
            return {
                "setup_s": setup_s,
                **timing_metrics(stats.ops, stats.rounds, gauge.scale, suffix="_norm"),
                "peak_rss_mb": peak_rss_mb(),
            }, record, None

        third = args.seconds / 3
        stats, _ = http_phase(server, args.seed, third, 0, verdicts, queries, batch, expected)
        plain, _, _ = direct_phase(server, args.seed, third, verdicts, queries, batch,
                                   expected, NullTracer())
        tracer = Tracer()
        engines = [tenant.engine for tenant in server.tenants.values()]
        before, logged = counters(engines), records(server)
        traced, sizes, scans = direct_phase(server, args.seed, third, verdicts, queries,
                                            batch, expected, tracer)
        after = counters(engines)
        ops = traced.completed
        record["samples"] = {"http_query": len(stats.query), "http_batch": len(stats.batch),
                             "untraced_ops": plain.completed, "traced_ops": ops,
                             "traced_batches": len(scans)}
        metrics = layer_metrics(tracer, ops)
        metrics.update(count_metrics(delta(after, before), ops, 0, after["cache.cached_bytes"]))
        totals = tracer.layer_times()
        metrics.update({
            "batch.exec_ms_per_batch": 1000.0 * per(totals["batch.exec_ms_per_op"], len(scans)),
            "batch.engine_scans_per_batch": per(sum(scans), len(scans)),
            "wire.bytes_per_op": per(sum(sizes), ops),
            "server.handler_ms_per_op": 1000.0 * per(sum(stats.handler), len(stats.handler)),
            "server.transport_ms_per_op": 1000.0 * per(sum(stats.transport), len(stats.transport)),
            "server.batch_p50_ms": 1000.0 * median(stats.batch),
            "server.batch_p90_ms": 1000.0 * p90(stats.batch),
            "telemetry.records_per_op": per(records(server) - logged, ops),
            "trace.overhead_ratio": per(sessions.ops_per_s(plain), sessions.ops_per_s(traced)),
            "setup.generate_s": setup_s,
            "setup.save_s": 0.0,
            "setup.open_s": 0.0,
        })
        return metrics, record, tracer
    finally:
        server.shutdown()
        shutil.rmtree(work, ignore_errors=True)
