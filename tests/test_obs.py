"""Observability: tracer spans, metrics registry, EXPLAIN ANALYZE.

The central property mirrors the cache and batch suites': tracing is an
*observer* — with the tracer installed, every answer is bit-identical to
untraced execution, across random star schemas, warm-cache replays, and
fused batches.  The rest of the suite pins the span-tree shape per
algebra operator, metrics propagation/reset semantics, the
estimated-vs-actual annotations of ``explain_analyze``, and the trace
export schema.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import AssessSession
from repro.batch import results_identical
from repro.core.errors import ExecutionError
from repro.datagen import sales_engine
from repro.obs import (
    METRICS,
    MetricsRegistry,
    NULL_TRACER,
    Tracer,
    active,
    install,
    tracing,
)
from repro.obs.analyze import trace_diagnostics
from repro.obs.export import (
    TraceFormatError,
    summarize_spans,
    trace_to_chrome,
    trace_to_json,
    validate_trace,
)

from tests.test_batch import _random_statements
from tests.test_cache import _random_engine

SALES_STATEMENT = """
    with SALES for year = '1997' by month, product assess quantity
    against 1000 using ratio(quantity, 1000)
    labels {[0, 0.9): low, [0.9, 1.1]: expected, (1.1, inf): high}
"""


def _fresh_sales_session() -> AssessSession:
    return AssessSession(sales_engine(n_rows=2_000, seed=42))


def _ssb_runner_session(rows: int = 4_000) -> AssessSession:
    from repro.experiments.statements import prepare_engine

    return AssessSession(prepare_engine(rows))


def _span_names(tracer: Tracer):
    names = []
    for root in tracer.roots:
        for span in root.walk():
            names.append(span.name)
    return names


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_inc_get_snapshot(self):
        metrics = MetricsRegistry()
        metrics.inc("a")
        metrics.inc("a", 2)
        assert metrics.get("a") == 3
        assert metrics.get("missing") == 0
        assert metrics.snapshot()["counters"] == {"a": 3}

    def test_observe_histogram(self):
        metrics = MetricsRegistry()
        metrics.observe("t", 2.0)
        metrics.observe("t", 4.0)
        bucket = metrics.histogram("t")
        assert bucket["count"] == 2
        assert bucket["total"] == pytest.approx(6.0)
        assert bucket["min"] == pytest.approx(2.0)
        assert bucket["max"] == pytest.approx(4.0)

    def test_parent_propagation_with_prefix(self):
        parent = MetricsRegistry()
        child = MetricsRegistry(parent=parent, prefix="cache.")
        child.inc("hits", 2)
        child.observe("seconds", 0.5)
        assert child.get("hits") == 2
        assert parent.get("cache.hits") == 2
        assert parent.histogram("cache.seconds")["count"] == 1

    def test_reset_is_local(self):
        parent = MetricsRegistry()
        child = MetricsRegistry(parent=parent)
        child.inc("n", 5)
        child.reset()
        assert child.get("n") == 0
        assert parent.get("n") == 5  # reset does not cascade upward

    def test_engine_metrics_roll_up_to_global(self):
        session = _fresh_sales_session()
        before = METRICS.get("engine.scans")
        session.assess(SALES_STATEMENT)
        assert session.engine.metrics.get("engine.scans") >= 1
        assert METRICS.get("engine.scans") >= before + 1


# ----------------------------------------------------------------------
# Tracer basics
# ----------------------------------------------------------------------
class TestTracer:
    def test_null_tracer_is_default_and_recordless(self):
        assert active() is NULL_TRACER
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("anything", x=1) as span:
            span.set(y=2)  # must be a no-op, not an error

    def test_tracing_installs_and_restores(self):
        with tracing() as tracer:
            assert active() is tracer
        assert active() is NULL_TRACER

    def test_tracing_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with tracing():
                raise RuntimeError("boom")
        assert active() is NULL_TRACER

    def test_span_nesting_and_self_time(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        (outer,) = tracer.roots
        assert [child.name for child in outer.children] == ["inner"]
        assert outer.self_time <= outer.duration
        assert outer.duration >= outer.children[0].duration

    def test_event_is_zero_duration_child(self):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.event("marker", detail="x")
        (outer,) = tracer.roots
        (marker,) = outer.children
        assert marker.duration == 0.0
        assert marker.attrs["detail"] == "x"

    def test_span_durations_feed_metrics(self):
        metrics = MetricsRegistry()
        tracer = Tracer(metrics=metrics)
        with tracer.span("op.get"):
            pass
        assert metrics.histogram("op.get.seconds")["count"] == 1


# ----------------------------------------------------------------------
# Span-tree shape per execution layer
# ----------------------------------------------------------------------
class TestSpanShapes:
    def test_sales_np_operator_chain(self):
        session = _fresh_sales_session()
        with tracing() as tracer:
            session.assess(SALES_STATEMENT, plan="NP")
        (root,) = tracer.roots
        chain = []
        span = root
        while True:
            chain.append(span.name)
            ops = [c for c in span.children if c.name.startswith("op.")]
            if not ops:
                break
            span = ops[0]
        assert chain == [
            "op.labeling", "op.h-transform", "op.add-constant", "op.get",
        ]

    def test_operator_spans_carry_row_counts(self):
        session = _fresh_sales_session()
        with tracing() as tracer:
            result = session.assess(SALES_STATEMENT, plan="NP")
        (root,) = tracer.roots
        for span in root.walk():
            if span.name.startswith("op."):
                assert span.attrs["rows_out"] >= 0
                assert span.attrs["cells_out"] >= span.attrs["rows_out"]
                assert "step" in span.attrs
        assert root.attrs["rows_out"] == len(result)

    def test_engine_scan_children(self, monkeypatch):
        # the semi-join/group-by children belong to an inline (serial) scan
        monkeypatch.delenv("REPRO_PARALLELISM", raising=False)
        monkeypatch.delenv("REPRO_MORSEL_ROWS", raising=False)
        session = _fresh_sales_session()
        with tracing() as tracer:
            session.assess(SALES_STATEMENT, plan="NP")
        names = _span_names(tracer)
        assert "engine.scan" in names
        assert "engine.semijoin" in names
        assert "engine.groupby" in names
        assert "cache.lookup" in names

    def test_cache_hit_and_derivation_spans(self):
        session = _fresh_sales_session()
        with tracing() as tracer:
            session.assess(SALES_STATEMENT)  # cold: miss
            session.assess(SALES_STATEMENT)  # exact hit
            # coarser group-by: derived by roll-up from the cached result
            session.assess(
                """with SALES for year = '1997' by year, product
                   assess quantity against 1000 using ratio(quantity, 1000)
                   labels {[0, 0.9): low, [0.9, 1.1]: ok, (1.1, inf): high}"""
            )
        lookups = [
            span for root in tracer.roots for span in root.walk()
            if span.name == "cache.lookup"
        ]
        outcomes = [span.attrs["outcome"] for span in lookups]
        assert outcomes == ["miss", "hit", "derive"]
        for span in lookups:
            assert "fingerprint" in span.attrs
        derivations = [
            span for root in tracer.roots for span in root.walk()
            if span.name == "cache.rollup-derivation"
        ]
        assert len(derivations) == 1
        assert "source_fingerprint" in derivations[0].attrs

    def test_join_and_pivot_plan_spans(self):
        from repro.experiments.statements import statement_text

        session = _ssb_runner_session()
        with tracing() as tracer:
            session.assess(statement_text("External"), plan="JOP")
            session.assess(statement_text("Sibling"), plan="POP")
            session.assess(statement_text("Past"), plan="NP")
        names = _span_names(tracer)
        assert "op.join" in names
        assert "engine.join" in names
        assert "op.pivot" in names
        assert "engine.pivot" in names
        assert "op.cell-transform" in names  # Past's Predict operator
        sides = [
            span.attrs["side"]
            for root in tracer.roots
            for span in root.walk()
            if span.name == "engine.side"
        ]
        assert {"left", "right", "base"} <= set(sides)

    def test_batch_span_nesting(self):
        from repro.experiments.statements import INTENTIONS, statement_text

        session = _ssb_runner_session()
        statements = [statement_text(name) for name in INTENTIONS]
        with tracing() as tracer:
            batch = session.execute_many(statements)
        (root,) = tracer.roots
        assert root.name == "batch"
        assert root.attrs["statements"] == len(statements)
        children = [c.name for c in root.children]
        assert children == ["statement"] * len(statements)
        assert [c.attrs["index"] for c in root.children] == [0, 1, 2, 3]
        names = _span_names(tracer)
        if batch.report.fused_groups:
            assert "batch.fused-group" in names
        if batch.report.shared_hits:
            assert "batch.cse-hit" in names


# ----------------------------------------------------------------------
# The observer property: traced ≡ untraced, bit-identical
# ----------------------------------------------------------------------
class TestTracedUntracedIdentity:
    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_random_sessions_identical(self, seed):
        rng = np.random.default_rng(seed)
        engine, hierarchies = _random_engine(seed)
        reference_engine, _ = _random_engine(seed)
        traced_session = AssessSession(engine)
        reference_session = AssessSession(reference_engine)
        statements = _random_statements(rng, hierarchies, count=6)
        # Two passes: the second exercises warm-cache (hit/derive) paths
        # under tracing too.
        for _ in range(2):
            for text in statements:
                with tracing():
                    ours = traced_session.assess(text)
                theirs = reference_session.assess(text)
                assert results_identical(ours, theirs)

    @pytest.mark.parametrize("seed", [11, 23])
    def test_traced_batch_identical(self, seed):
        rng = np.random.default_rng(seed)
        engine, hierarchies = _random_engine(seed)
        reference_engine, _ = _random_engine(seed)
        batch_session = AssessSession(engine)
        reference_session = AssessSession(reference_engine)
        statements = _random_statements(rng, hierarchies, count=8)
        with tracing():
            batch = batch_session.execute_many(statements)
        for ours, text in zip(batch.results, statements):
            theirs = reference_session.assess(text)
            assert results_identical(ours, theirs)

    def test_traced_fused_workload_identical(self):
        from repro.experiments.statements import INTENTIONS, statement_text

        statements = [statement_text(name) for name in INTENTIONS]
        traced = _ssb_runner_session()
        untraced = _ssb_runner_session()
        with tracing():
            ours = traced.execute_many(statements)
        theirs = untraced.execute_many(statements)
        for left, right in zip(ours.results, theirs.results):
            assert results_identical(left, right)


# ----------------------------------------------------------------------
# cache_stats compatibility and batch counters
# ----------------------------------------------------------------------
class TestCacheStats:
    def test_stats_served_from_metrics(self):
        session = _fresh_sales_session()
        session.assess(SALES_STATEMENT)
        session.assess(SALES_STATEMENT)
        stats = session.cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        assert session.engine.metrics.get("cache.hits") == 1

    def test_batch_counters_in_stats(self):
        from repro.experiments.statements import INTENTIONS, statement_text

        session = _ssb_runner_session()
        batch = session.execute_many(
            [statement_text(name) for name in INTENTIONS]
        )
        stats = session.cache_stats()
        assert stats["batch_statements"] == 4
        assert stats["batch_cse_hits"] == batch.report.shared_hits
        assert stats["batch_fused_groups"] == batch.report.fused_groups


# ----------------------------------------------------------------------
# EXPLAIN ANALYZE
# ----------------------------------------------------------------------
class TestExplainAnalyze:
    def test_every_node_annotated_all_intentions_and_plans(self):
        from repro.experiments.statements import INTENTIONS, statement_text

        session = _ssb_runner_session()
        for intention in INTENTIONS:
            text = statement_text(intention)
            for plan_name in session.feasible_plans(text):
                report = session.explain_analyze(text, plan=plan_name)
                (annotations,) = report.annotations
                assert annotations, f"{intention}/{plan_name}: no nodes"
                for annotation in annotations:
                    assert annotation.est_rows is not None
                    assert annotation.est_cost is not None
                    if annotation.executed:
                        assert annotation.actual_rows is not None, (
                            f"{intention}/{plan_name}: node without actuals"
                        )

    def test_batch_mode_annotates_every_statement(self):
        from repro.experiments.statements import INTENTIONS, statement_text

        session = _ssb_runner_session()
        statements = [statement_text(name) for name in INTENTIONS]
        report = session.explain_analyze(statements)
        assert len(report.annotations) == len(statements)
        assert report.batch_report is not None
        for annotations in report.annotations:
            executed = [a for a in annotations if a.executed]
            assert executed
            for annotation in executed:
                assert annotation.actual_rows is not None

    def test_render_and_estimates(self):
        session = _fresh_sales_session()
        report = session.explain_analyze(SALES_STATEMENT)
        text = report.render()
        assert "estimated cost" in text
        assert "est rows≈" in text
        assert "ms" in text
        assert len(report.result) > 0

    def test_provenance_reflects_cache(self):
        session = _fresh_sales_session()
        session.assess(SALES_STATEMENT)  # warm the cache
        report = session.explain_analyze(SALES_STATEMENT)
        (annotations,) = report.annotations
        provenances = {a.provenance for a in annotations if a.provenance}
        assert "cache-hit" in provenances

    def test_explain_includes_estimates(self):
        session = _fresh_sales_session()
        text = session.explain(SALES_STATEMENT)
        assert "est rows≈" in text
        assert "-- pushed query 1" in text

    def test_unregistered_cube_raises_assess401(self):
        session = _fresh_sales_session()
        bad = SALES_STATEMENT.replace("SALES", "NOPE")
        bag = trace_diagnostics(session, [bad])
        assert [d.code for d in bag.diagnostics] == ["ASSESS401"]
        assert bag.has_errors
        with pytest.raises(ExecutionError, match="ASSESS401"):
            session.explain_analyze(bad)

    def test_registered_cube_passes_preflight(self):
        session = _fresh_sales_session()
        bag = trace_diagnostics(session, [SALES_STATEMENT])
        assert not bag.diagnostics


# ----------------------------------------------------------------------
# Export formats
# ----------------------------------------------------------------------
class TestExport:
    def _traced(self):
        session = _fresh_sales_session()
        with tracing() as tracer:
            session.assess(SALES_STATEMENT)
        return tracer

    def test_json_roundtrip_validates(self):
        import json

        tracer = self._traced()
        document = trace_to_json(tracer)
        validate_trace(json.loads(json.dumps(document)))
        assert document["version"] == 1
        assert document["spans"][0]["name"] == "op.labeling"

    def test_explain_analyze_to_json_validates(self):
        session = _fresh_sales_session()
        report = session.explain_analyze(SALES_STATEMENT)
        document = report.to_json()
        validate_trace(document["trace"])
        (statement,) = document["statements"]
        assert statement["plan"]
        assert statement["nodes"]

    def test_chrome_events(self):
        events = trace_to_chrome(self._traced())
        assert events
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0
            assert event["dur"] >= 0

    def test_validate_rejects_malformed(self):
        with pytest.raises(TraceFormatError):
            validate_trace({"version": 2, "spans": []})
        with pytest.raises(TraceFormatError):
            validate_trace({"version": 1, "spans": [{"name": ""}]})
        with pytest.raises(TraceFormatError):
            validate_trace(
                {"version": 1,
                 "spans": [{"name": "x", "start_us": -1.0,
                            "duration_us": 0.0, "attrs": {}, "children": []}]}
            )

    def test_summarize_spans(self):
        summary = summarize_spans(self._traced())
        assert summary["op.get"]["count"] == 1
        assert summary["op.get"]["total_ms"] >= summary["op.get"]["self_ms"]
