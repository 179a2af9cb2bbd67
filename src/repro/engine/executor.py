"""Vectorised execution of pushed queries (the engine's query processor).

This is the substitute for the paper's DBMS: it evaluates the three query
shapes of :mod:`repro.engine.query` with set-oriented NumPy kernels —
semi-join filtering through dimension tables, factorised multi-column
group-by, hash drill-across, and scatter-based pivot.  Its performance
profile mirrors a real DBMS closely enough for the NP/JOP/POP comparison to
be meaningful: pushing a join or pivot here is significantly cheaper than
performing it cell-at-a-time on cube objects.
"""

from __future__ import annotations

import itertools
import os
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.aggregate import aggregate, combine_codes as _combine_codes
from ..core.errors import EngineError
from ..obs.metrics import METRICS, MetricsRegistry
from ..obs.tracer import active as _active_tracer
from ..parallel.config import DEFAULT_MORSEL_ROWS, ParallelConfig, env_morsel_rows
from ..parallel.merge import decode_keys as _decode_keys
from ..parallel.merge import merge_morsels as _merge_morsels
from ..parallel.morsel import (
    AggSpec,
    DimPredicate,
    FactPredicate,
    JoinSpec,
    KeySpec,
    MorselTask,
    cut_selection,
    partial_aggregate as _partial_aggregate,
    run_morsel,
    select_rows as _select_rows,
)
from .catalog import Catalog
from .columns import (
    Ranges,
    ZonePruner,
    plan_zone_pruning as _plan_zone_pruning,
    ranges_length as _ranges_length,
)
from .kernels import encode_column as _encode_column
from .spill import (
    SpillAggregator,
    choose_partitions as _choose_partitions,
    env_memory_budget as _env_memory_budget,
    grouping_state_bytes as _grouping_state_bytes,
)
from .query import (
    AggregateQuery,
    ColumnPredicate,
    DrillAcrossQuery,
    FACT,
    PivotQuery,
)
from .table import Table

_MAX_COMBINED_KEY = 2**62
"""Bail out of key folding when the cardinality product nears int64."""


class ResultSet:
    """A query result: ordered named columns of equal length."""

    def __init__(self, columns: "Dict[str, np.ndarray]"):
        self.columns = columns
        lengths = {len(col) for col in columns.values()}
        if len(lengths) > 1:
            raise EngineError(f"ragged result columns: {sorted(lengths)}")
        self._n = lengths.pop() if lengths else 0

    def __len__(self) -> int:
        return self._n

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise EngineError(
                f"result has no column {name!r} (columns: {list(self.columns)})"
            ) from None

    @property
    def column_names(self) -> Tuple[str, ...]:
        return tuple(self.columns)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultSet(rows={self._n}, columns={list(self.columns)})"


class EngineExecutor:
    """Evaluates pushed queries against a catalog."""

    def __init__(self, catalog: Catalog, metrics: Optional[MetricsRegistry] = None):
        self.catalog = catalog
        # Fact passes actually executed (aggregates, fused shared passes,
        # and fused members run as their own pass).  Cache hits and derived
        # results do not count; the batch sharing report reads this.
        self.scan_count = 0
        # Counter registry ("engine.scans", "engine.rows_scanned", ...);
        # engine-owned executors share their engine's registry, standalone
        # ones report straight into the process-wide aggregate.
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry(parent=METRICS)
        )
        # Morsel-driven parallel execution, off unless a session enables
        # it (AssessSession(parallelism=N) / REPRO_PARALLELISM).  When
        # set, eligible fact passes run their morsels on the config's
        # worker pool (see _fact_pass and docs/performance.md).
        self.parallel: Optional[ParallelConfig] = None
        # Zone-map morsel pruning (skipping fact zones whose min/max
        # statistics prove no row can pass the predicates).  Only active
        # on tables that carry zone maps (v2 column stores, or explicit
        # Table.ensure_zone_maps); REPRO_NO_PRUNE=1 disables it for
        # ablation benchmarks and differential tests.
        self.zone_pruning = not os.environ.get("REPRO_NO_PRUNE")
        # Bounded-memory execution: when a byte budget is set
        # (REPRO_MEMORY_BYTES / REPRO_SPILL_BYTES env, or
        # AssessSession(memory_budget=)), fact passes whose worst-case
        # grouping state exceeds it stream their morsels into the
        # spill-to-disk partitioned aggregation (engine/spill.py).
        self.memory_budget: Optional[int] = _env_memory_budget()

    def _count_scan(self, rows: int) -> None:
        """One executed fact pass over ``rows`` post-pruning rows."""
        self.scan_count += 1
        self.metrics.inc("engine.scans")
        self.metrics.inc("engine.rows_scanned", rows)

    def _zone_pruner(
        self,
        fact: Table,
        fact_name: str,
        predicates: Sequence[ColumnPredicate],
        joins,
    ) -> Optional[ZonePruner]:
        """Plan zone-map pruning for one scan; ``None`` when inapplicable.

        Emits a ``storage.prune`` span and the ``engine.storage.*``
        counters.  Soundness: a pruned zone provably holds no row passing
        ``predicates``, so dropping it removes only mask-rejected rows —
        the surviving masked row sequence (and every float summation
        order) is unchanged and results stay bit-identical.
        """
        if not self.zone_pruning or not fact.has_zone_maps:
            return None
        with _active_tracer().span("storage.prune", fact=fact_name) as span:
            pruner = _plan_zone_pruning(
                self.catalog, fact, fact_name, predicates, joins
            )
            if pruner is None:
                span.set(zones=0, zones_pruned=0, rows_pruned=0)
                return None
            self._count_pruning(pruner)
            span.set(
                zones=pruner.zones_checked,
                zones_pruned=pruner.zones_pruned,
                rows_pruned=pruner.rows_pruned,
            )
            return pruner

    def _count_pruning(self, pruner: ZonePruner) -> None:
        self.metrics.inc("engine.storage.prunes")
        self.metrics.inc("engine.storage.zones_checked", pruner.zones_checked)
        self.metrics.inc("engine.storage.zones_pruned", pruner.zones_pruned)
        self.metrics.inc("engine.storage.rows_pruned", pruner.rows_pruned)
        # zones_checked forces the survival vector, so planning-time and
        # apply-time misalignment drops are both counted by now.
        if pruner.misaligned:
            self.metrics.inc("engine.storage.zone_misaligned", pruner.misaligned)

    # ------------------------------------------------------------------
    # Aggregate (get) and fused batches: one fact pass
    # ------------------------------------------------------------------
    def execute(self, query) -> ResultSet:
        """Dispatch on the query shape."""
        if isinstance(query, AggregateQuery):
            return self.execute_aggregate(query)
        if isinstance(query, DrillAcrossQuery):
            return self.execute_drill_across(query)
        if isinstance(query, PivotQuery):
            return self.execute_pivot(query)
        raise EngineError(f"cannot execute query of type {type(query).__name__}")

    def execute_aggregate(self, query: AggregateQuery) -> ResultSet:
        """Star join + filter + group-by + aggregate.

        A single aggregate is a fact pass of one member whose key is the
        finest key and which has no residual (see :meth:`_fact_pass`).
        """
        return self._fact_pass(
            query.fact, query.joins, query.where, [query], [()]
        )[0]

    def execute_fused(
        self,
        queries: Sequence[AggregateQuery],
        scan_where: Sequence[ColumnPredicate],
        residuals: Sequence[Sequence[ColumnPredicate]],
    ) -> "Tuple[List[ResultSet], List[bool]]":
        """Answer several compatible aggregate queries from one fact pass.

        All queries must share the same fact table and joins, and each
        query's predicate set must equal ``scan_where ∧ residuals[i]``
        (the caller — the batch fusion planner — guarantees this, using
        predicate subsumption so the scan is never broader than what some
        member itself requires).

        The shared pass groups by the *finest shared key* (the union of
        every member's grouping columns plus residual predicate columns);
        each member is then derived from the finest partials via the
        distributive re-aggregation rules, with residual predicates
        evaluated on the (tiny) finest-group coordinates.  A member is
        derived only when re-aggregation is exact: sum, count, min and
        max, with every summed measure passing ``Table.sums_exactly``.
        Any other member (avg, fractional sums), and every member when the
        finest key would overflow the int64 fold, runs as its own
        one-member pass — never different by a bit.

        Returns the per-query results (input order) and a parallel list of
        flags: ``True`` when the result was derived from the shared pass,
        ``False`` when it ran as its own pass.
        """
        if not queries:
            return [], []
        fact_name = queries[0].fact
        fact = self.catalog.table(fact_name)
        _, key_space = self._key_infos(
            fact, _finest_key(fact_name, queries, residuals)
        )
        derived = [
            key_space < _MAX_COMBINED_KEY and _derivable(fact, query)
            for query in queries
        ]
        shared = [i for i, ok in enumerate(derived) if ok]
        results: Dict[int, ResultSet] = {}
        with _active_tracer().span(
            "engine.fused-scan", members=len(queries)
        ) as span:
            if shared:
                self.metrics.inc("engine.fused_scans")
                outputs = self._fact_pass(
                    fact_name, queries[0].joins, scan_where,
                    [queries[i] for i in shared], [residuals[i] for i in shared],
                )
                for i, result in zip(shared, outputs):
                    results[i] = result
                self.metrics.inc("engine.fused_derived", len(shared))
            for i, ok in enumerate(derived):
                if not ok:
                    results[i] = self._fact_pass(
                        fact_name, queries[i].joins,
                        tuple(scan_where) + tuple(residuals[i]),
                        [queries[i]], [()],
                    )[0]
                    self.metrics.inc("engine.fused_fallbacks")
            span.set(
                derived=len(shared),
                fallbacks=len(queries) - len(shared),
                rows_out=sum(len(result) for result in results.values()),
            )
        return [results[i] for i in range(len(queries))], derived

    def _fact_pass(
        self,
        fact_name: str,
        joins,
        where: Sequence[ColumnPredicate],
        queries: Sequence[AggregateQuery],
        residuals: Sequence[Sequence[ColumnPredicate]],
    ) -> List[ResultSet]:
        """One star-join group-by pass over the fact table for every member.

        1. **Lower**: the finest key (every member grouping column and
           residual predicate column) and the partial slots, with avg
           lowered to a sum plus a count.
        2. **Cut and run morsels** from the zone-pruned surviving rows,
           dispatched *inline* (one morsel of every surviving row),
           *pool* (morsels of ``morsel_rows`` on the worker pool) or
           *streamed* (morsels built and dropped one at a time, or in pool
           waves, into a :class:`SpillAggregator`).
        3. **Merge** the morsel partials — the identity with one morsel.
        4. **Finish**: decode the keys, then finalize or derive each member.

        Splitting a group over several morsels re-associates its sums, so
        the pool and streamed dispatches require every summed measure to
        pass ``Table.sums_exactly``; a gate failure runs the pass inline
        (counted as a parallel or spill fallback).  One inline morsel adds
        every group's rows in row order and needs no gate.
        """
        fact = self.catalog.table(fact_name)
        finest = _finest_key(fact_name, queries, residuals)
        infos, key_space = self._key_infos(fact, finest)
        if key_space >= _MAX_COMBINED_KEY:
            raise EngineError(
                f"group-by key space {key_space} of a scan over {fact_name!r} "
                "overflows the int64 key fold"
            )
        slots = _partial_slots(queries)
        ops = [op for op, _ in slots]
        pruner = self._zone_pruner(fact, fact_name, where, joins)
        ranges = None if pruner is None else pruner.surviving_row_ranges()
        rows = _ranges_length(ranges, len(fact))
        build = self._task_builder(fact, fact_name, where, joins, finest, slots)
        dispatch = self._dispatch(
            fact, slots, sum(len(query.aggregates) for query in queries)
        )
        attrs: Dict[str, object] = {}
        if dispatch == "pool":
            assert self.parallel is not None
            attrs = {"parallel": True, "degree": self.parallel.degree}
            morsel_rows = self.parallel.morsel_rows
        elif dispatch == "streamed":
            attrs = {"spill": True}
            morsel_rows = (
                self.parallel.morsel_rows if self.parallel is not None
                else env_morsel_rows() or DEFAULT_MORSEL_ROWS
            )

        tracer = _active_tracer()
        with tracer.span("engine.scan", fact=fact_name, **attrs) as span:
            self._count_scan(rows)
            if dispatch == "inline":
                keys, merged = self._run_inline(
                    build(0, 0, ranges), len(where), tracer
                )
            else:
                morsels = cut_selection(ranges, len(fact), morsel_rows)
                span.set(morsels=len(morsels))
                if pruner is not None:
                    unpruned = -(-len(fact) // morsel_rows)
                    if unpruned > len(morsels):
                        self.metrics.inc(
                            "engine.storage.morsels_pruned",
                            unpruned - len(morsels),
                        )
                tasks = (
                    build(index, index * morsel_rows, selection)
                    for index, selection in enumerate(morsels)
                )
                if dispatch == "pool":
                    self.metrics.inc("engine.parallel.queries")
                    outputs = self._run_pool(list(tasks), tracer)
                    with tracer.span(
                        "parallel.merge", morsels=len(outputs)
                    ) as merge_span:
                        keys, merged = _merge_morsels(outputs, ops)
                        merge_span.set(rows_out=len(keys))
                else:
                    self.metrics.inc("engine.spill.queries")
                    keys, merged, spills = self._run_streamed(
                        tasks, key_space, ops,
                        _grouping_state_bytes(len(fact), len(finest), len(slots)),
                        tracer,
                    )
                    span.set(spills=spills)

            cardinalities = [cardinality for cardinality, _ in infos]
            codes = _decode_keys(keys, cardinalities)
            groups = _Groups(
                finest, codes, cardinalities,
                [uniques[code] for (_, uniques), code in zip(infos, codes)],
                len(keys), dict(zip(slots, merged)),
            )
            results = [
                _finish(fact_name, query, residual, groups)
                for query, residual in zip(queries, residuals)
            ]
            span.set(
                rows_in=rows,
                rows_out=sum(len(result) for result in results),
                cells_out=sum(
                    len(result) * max(len(result.column_names), 1)
                    for result in results
                ),
            )
        return results

    def _key_infos(self, fact: Table, finest: "Sequence[Tuple[str, str]]"):
        """``(cardinality, dictionary values)`` of each finest key column.

        Also returns the folded key space, the product of cardinalities.
        The dictionaries are global, so a combined key means the same
        group in every morsel and decodes back through these values.
        """
        infos = []
        key_space = 1
        for table, column in finest:
            source = fact if table == FACT else self.catalog.table(table)
            uniques = source.dictionary_values(column)
            cardinality = max(len(uniques), 1)
            infos.append((cardinality, uniques))
            key_space *= cardinality
        return infos, key_space

    def _dispatch(self, fact: Table, slots, n_aggregates: int) -> str:
        """``"streamed"``, ``"pool"`` or ``"inline"`` for one fact pass.

        Streamed when a memory budget is set and the pessimistic grouping
        state estimate (every row opening a group; the analyzer's
        ASSESS508 and the cost model mirror it) exceeds it; pool when the
        parallel config finds the fact table eligible; both only when
        every summed measure passes the exactness gate.
        """
        spill = (
            self.memory_budget is not None
            and _grouping_state_bytes(len(fact), 0, n_aggregates)
            > self.memory_budget
        )
        pool = self.parallel is not None and self.parallel.eligible(len(fact))
        if not (spill or pool):
            return "inline"
        exact = all(
            fact.sums_exactly(column) for op, column in slots if op == "sum"
        )
        if spill:
            if exact:
                return "streamed"
            self.metrics.inc("engine.spill.fallbacks")
        if pool:
            if exact:
                return "pool"
            self.metrics.inc("engine.parallel.fallbacks")
        return "inline"

    def _task_builder(
        self,
        fact: Table,
        fact_name: str,
        where: Sequence[ColumnPredicate],
        joins,
        finest: "Sequence[Tuple[str, str]]",
        slots: "Sequence[Tuple[str, Optional[str]]]",
    ):
        """Per-morsel task construction, shared by every dispatch.

        Dimension-side work (key indexes, dimension predicate masks,
        dimension dictionaries) is done once here and shared by every
        task; per-fact-row inputs are gathered per morsel, so compressed
        or memory-mapped columns decode only the morsel's rows.  Returns
        ``build(index, lo, selection)``, where ``selection`` is the
        morsel's fact-row ranges (``None`` = every row).
        """
        fact_predicates = []
        dim_predicates = []
        for cp in where:
            if cp.table in (FACT, fact_name):
                fact_predicates.append((cp.predicate, cp.column))
            else:
                dimension = self.catalog.table(cp.table)
                dim_mask = cp.predicate.mask(dimension.column(cp.column))
                dim_predicates.append(DimPredicate(cp.table, dim_mask))
        # join elimination: dimensions no key or predicate touches are skipped
        referenced = {table for table, _ in finest} | {cp.table for cp in where}
        join_sources = [
            (
                join.table,
                self.catalog.table(join.table).key_index(join.dim_key),
                join.fact_fk,
            )
            for join in joins
            if join.table in referenced
        ]
        # dimension key columns ship their whole (small) code array
        dim_keys = [
            None if table == FACT
            else KeySpec("dim", table, *self.catalog.table(table).dictionary(column))
            for table, column in finest
        ]
        measures = {column for _, column in slots if column is not None}

        def build(index: int, lo: int, selection: Ranges) -> MorselTask:
            keys = tuple(
                KeySpec("fact", None, *fact.dictionary_gather(column, selection))
                if spec is None else spec
                for spec, (_, column) in zip(dim_keys, finest)
            )
            values = {
                column: fact.gather(column, selection) for column in measures
            }
            return MorselTask(
                index,
                lo,
                lo + _ranges_length(selection, len(fact)),
                tuple(
                    JoinSpec(alias, key_index, fact.gather(fk_column, selection))
                    for alias, key_index, fk_column in join_sources
                ),
                tuple(
                    FactPredicate(predicate, fact.gather(column, selection))
                    for predicate, column in fact_predicates
                ),
                tuple(dim_predicates),
                keys,
                tuple(
                    AggSpec(op, None if column is None else values[column])
                    for op, column in slots
                ),
            )

        return build

    @staticmethod
    def _run_inline(task: MorselTask, n_predicates: int, tracer):
        """Run the one morsel of an inline pass on the calling thread."""
        with tracer.span("engine.semijoin") as semijoin:
            positions, mask, matched = _select_rows(task)
            semijoin.set(
                rows_in=task.hi - task.lo,
                rows_matched=matched,
                predicates=n_predicates,
            )
        with tracer.span("engine.groupby") as groupby:
            keys, partials = _partial_aggregate(task, positions, mask, matched)
            groupby.set(rows_out=len(keys), keys=len(task.keys))
        return keys, partials

    def _run_pool(self, tasks: List[MorselTask], tracer):
        """Run the tasks on the pool; emit per-morsel trace events."""
        assert self.parallel is not None
        results = self.parallel.map_ordered(run_morsel, tasks)
        self.metrics.inc("engine.parallel.morsels", len(tasks))
        if tracer.enabled:
            for result in results:
                event = tracer.event(
                    "parallel.morsel",
                    index=result.index,
                    rows_in=result.rows_in,
                    rows_matched=result.rows_matched,
                    groups=len(result.keys),
                )
                # Workers cannot emit spans (the tracer is driver-local),
                # so the driver back-fills the measured worker time.
                event.duration = result.seconds
        return results

    def _run_streamed(self, tasks, key_space, ops, estimate, tracer):
        """Stream morsel partials into a :class:`SpillAggregator`.

        With a parallel config the morsels run in bounded waves on the
        worker pool; serially each task is built, run and dropped before
        the next, so only one morsel's decoded rows are ever live.
        """
        budget = self.memory_budget
        assert budget is not None
        with SpillAggregator(
            key_space, ops, budget, metrics=self.metrics,
            n_partitions=_choose_partitions(estimate, budget),
        ) as spiller:
            if self.parallel is not None and self.parallel.enabled:
                wave = self.parallel.degree * 4
                while True:
                    batch = list(itertools.islice(tasks, wave))
                    if not batch:
                        break
                    for morsel in self._run_pool(batch, tracer):
                        spiller.add(morsel.keys, morsel.partials)
            else:
                for task in tasks:
                    morsel = run_morsel(task)
                    spiller.add(morsel.keys, morsel.partials)
            keys, merged = spiller.merge_all()
            return keys, merged, spiller.spills

    # ------------------------------------------------------------------
    # Drill-across (JOP)
    # ------------------------------------------------------------------
    def execute_drill_across(self, query: DrillAcrossQuery) -> ResultSet:
        """Join two aggregate results on grouping aliases (hash join).

        Implemented by jointly factorising the join-key columns of both
        sides into shared integer codes, then matching codes through a dense
        lookup table — the vectorised analogue of the DBMS hash join the
        paper's JOP relies on.
        """
        self.metrics.inc("engine.drill_across")
        tracer = _active_tracer()
        with tracer.span("engine.join", multi=bool(query.multi)) as span:
            with tracer.span("engine.side", side="left") as side:
                left = self.execute_aggregate(query.left)
                side.set(rows_out=len(left))
            with tracer.span("engine.side", side="right") as side:
                right = self.execute_aggregate(query.right)
                side.set(rows_out=len(right))
            result = self._drill_across_join(query, left, right)
            if tracer.enabled:
                span.set(rows_in=len(left) + len(right), rows_out=len(result))
            return result

    def _drill_across_join(
        self, query: DrillAcrossQuery, left: ResultSet, right: ResultSet
    ) -> ResultSet:
        """The join itself, after both sides have been aggregated."""
        left_keys = [left.column(alias) for alias in query.join_on]
        right_keys = [right.column(alias) for alias in query.join_on]
        left_codes, right_codes = _joint_codes(left_keys, right_keys)

        if query.multi:
            return self._drill_across_multi(query, left, right, left_codes, right_codes)

        order = np.argsort(right_codes, kind="stable")
        sorted_codes = right_codes[order]
        if len(sorted_codes) > 1 and np.any(sorted_codes[1:] == sorted_codes[:-1]):
            raise EngineError(
                "drill-across join key is not unique on the right side; "
                "use multi=True for fan-in partial joins"
            )
        positions = np.searchsorted(sorted_codes, left_codes)
        clipped = np.minimum(positions, max(len(sorted_codes) - 1, 0))
        if len(sorted_codes):
            found = sorted_codes[clipped] == left_codes
            matches = np.where(found, order[clipped], -1)
        else:
            matches = np.full(len(left_codes), -1, dtype=np.int64)
        keep = matches >= 0
        if query.outer:
            keep = np.ones(len(left_codes), dtype=bool)

        columns: Dict[str, np.ndarray] = {
            name: left.column(name)[keep] for name in left.column_names
        }
        matched = matches[keep]
        for agg in query.right.aggregates:
            name = query.renames.get(agg.alias, agg.alias)
            source = right.column(agg.alias)
            columns[name] = _gather_float(source, matched)
        return ResultSet(columns)

    def _drill_across_multi(
        self,
        query: DrillAcrossQuery,
        left: ResultSet,
        right: ResultSet,
        left_codes: np.ndarray,
        right_codes: np.ndarray,
    ) -> ResultSet:
        """Fan-in partial join: append each right match as extra columns.

        Each match is slotted by its *residual coordinate* — the right
        side's grouping values outside the join key — against the globally
        sorted list of distinct residual coordinates.  For a past benchmark
        the residual is the time slice, so slice ``i`` always lands in
        column ``name_i`` (oldest first) and a missing slice stays NaN,
        preserving the time alignment the regression transform needs.
        """
        right_group_aliases = [gb.alias for gb in query.right.group_by]
        residual_aliases = [
            alias for alias in right_group_aliases if alias not in query.join_on
        ]
        slots, width = self._residual_slots(right, residual_aliases)

        # Sort-based join: for each left code, its right matches are the
        # contiguous run [lo, hi) in the sorted right codes.
        order = np.argsort(right_codes, kind="stable")
        sorted_codes = right_codes[order]
        lo = np.searchsorted(sorted_codes, left_codes, side="left")
        hi = np.searchsorted(sorted_codes, left_codes, side="right")
        counts = hi - lo
        keep = (counts > 0) if not query.outer else np.ones(len(left_codes), bool)
        index = np.nonzero(keep)[0].astype(np.int64)
        columns: Dict[str, np.ndarray] = {
            name: left.column(name)[index] for name in left.column_names
        }

        # Scatter every (kept left row, residual slot) pair in one pass.
        kept_counts = counts[index]
        total = int(kept_counts.sum())
        padded = np.full((len(index), max(width, 1)), -1, dtype=np.int64)
        if total:
            out_rows = np.repeat(np.arange(len(index), dtype=np.int64), kept_counts)
            offsets = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(kept_counts) - kept_counts, kept_counts
            )
            right_rows = order[np.repeat(lo[index], kept_counts) + offsets]
            padded[out_rows, slots[right_rows]] = right_rows
        for agg in query.right.aggregates:
            base_name = query.renames.get(agg.alias, agg.alias)
            source = right.column(agg.alias)
            if width <= 1:
                columns[base_name] = _gather_float(source, padded[:, 0])
            else:
                for slot in range(width):
                    columns[f"{base_name}_{slot + 1}"] = _gather_float(
                        source, padded[:, slot]
                    )
        return ResultSet(columns)

    @staticmethod
    def _residual_slots(
        right: ResultSet, residual_aliases: "List[str]"
    ) -> "Tuple[np.ndarray, int]":
        """Slot id of every right row by its residual coordinate.

        The residual columns are factorised into dense codes; only the (few)
        distinct coordinates are materialised as tuples to fix the slot
        order — sorted by ``repr``, oldest-first for time slices — so slice
        ``i`` always lands in column ``name_i``.
        """
        n_right = len(right)
        if not residual_aliases:
            return np.zeros(n_right, dtype=np.int64), 1
        code_columns = []
        for alias in residual_aliases:
            column = right.column(alias)
            if column.dtype == object:
                code_columns.append(_hash_encode(column))
            else:
                code_columns.append(_encode_column(column))
        inverse, count, first_rows = _combine_codes(code_columns, n_right)
        distinct = [
            tuple(right.column(alias)[row] for alias in residual_aliases)
            for row in first_rows
        ]
        by_repr = sorted(range(count), key=lambda i: repr(distinct[i]))
        slot_of_code = np.empty(count, dtype=np.int64)
        for slot, code in enumerate(by_repr):
            slot_of_code[code] = slot
        return slot_of_code[inverse], count

    # ------------------------------------------------------------------
    # Pivot (POP)
    # ------------------------------------------------------------------
    def execute_pivot(self, query: PivotQuery) -> ResultSet:
        """Evaluate the base aggregate once and pivot one grouping column.

        The rest-key (all grouping columns but the pivoted one) is
        factorised into dense ids; a ``(rest_groups × members)`` matrix is
        then filled by scatter for each aggregate, and reference rows are
        emitted with their neighbours' values as extra columns (Listing 5).
        """
        self.metrics.inc("engine.pivots")
        tracer = _active_tracer()
        with tracer.span("engine.pivot") as span:
            with tracer.span("engine.side", side="base") as side:
                base = self.execute_aggregate(query.base)
                side.set(rows_out=len(base))
            result = self._pivot_of_base(query, base)
            if tracer.enabled:
                span.set(rows_in=len(base), rows_out=len(result))
            return result

    def _pivot_of_base(self, query: PivotQuery, base: ResultSet) -> ResultSet:
        """The pivot scatter itself, after the base has been aggregated."""
        rest_aliases = [
            gb.alias for gb in query.base.group_by if gb.alias != query.pivot_alias
        ]
        code_columns = []
        for alias in rest_aliases:
            column = base.column(alias)
            if column.dtype == object:
                code_columns.append(_hash_encode(column))
            else:
                code_columns.append(_encode_column(column))
        rest_ids, rest_count, _ = _combine_codes(code_columns, len(base))

        pivot_column = base.column(query.pivot_alias)
        members = [query.reference] + list(query.members.keys())
        member_slot = {member: i for i, member in enumerate(members)}
        pivot_codes, mapping = _hash_encode_with_mapping(pivot_column)
        slot_of_code = np.full(max(len(mapping), 1), -1, dtype=np.int64)
        for value, code in mapping.items():
            slot_of_code[code] = member_slot.get(value, -1)
        slots = slot_of_code[pivot_codes]
        valid = slots >= 0

        n_slots = len(members)
        row_of = np.full((rest_count, n_slots), -1, dtype=np.int64)
        row_of[rest_ids[valid], slots[valid]] = np.nonzero(valid)[0]

        reference_rows = row_of[:, 0]
        keep_groups = reference_rows >= 0
        if query.require_all:
            keep_groups &= (row_of >= 0).all(axis=1)
        reference_rows = reference_rows[keep_groups]

        columns: Dict[str, np.ndarray] = {}
        for alias in [gb.alias for gb in query.base.group_by]:
            columns[alias] = base.column(alias)[reference_rows]
        for agg in query.base.aggregates:
            columns[agg.alias] = base.column(agg.alias)[reference_rows]
        for slot, (member, renames) in enumerate(query.members.items(), start=1):
            member_rows = row_of[keep_groups, slot]
            for agg_alias, new_name in renames.items():
                source = base.column(agg_alias)
                columns[new_name] = _gather_float(source, member_rows)
        return ResultSet(columns)


# ----------------------------------------------------------------------
# Fact-pass helpers
# ----------------------------------------------------------------------
def _column_key(fact_name: str, table: str, column: str) -> Tuple[str, str]:
    """A key column's identity, with fact-resident columns under ``FACT``."""
    return (FACT if table in (FACT, fact_name) else table, column)


def _finest_key(
    fact_name: str,
    queries: Sequence[AggregateQuery],
    residuals: Sequence[Sequence[ColumnPredicate]],
) -> List[Tuple[str, str]]:
    """Every member grouping and residual predicate column, in first-use order."""
    finest: List[Tuple[str, str]] = []
    for query, residual in zip(queries, residuals):
        columns = [(gb.table, gb.column) for gb in query.group_by]
        columns += [(cp.table, cp.column) for cp in residual]
        for table, column in columns:
            key = _column_key(fact_name, table, column)
            if key not in finest:
                finest.append(key)
    return finest


def _partial_slots(
    queries: Sequence[AggregateQuery],
) -> List[Tuple[str, Optional[str]]]:
    """The distinct ``(op, column)`` partials a pass computes.

    Ops are sum, count, min and max; avg lowers to a sum and a count
    partial, divided when the member is finished.
    """
    slots: List[Tuple[str, Optional[str]]] = []
    for query in queries:
        for agg in query.aggregates:
            if agg.op == "count":
                needed = [("count", None)]
            elif agg.op == "avg":
                needed = [("sum", agg.column), ("count", None)]
            elif agg.op in ("sum", "min", "max"):
                needed = [(agg.op, agg.column)]
            else:
                raise EngineError(f"unsupported aggregation operator {agg.op!r}")
            for slot in needed:
                if slot not in slots:
                    slots.append(slot)
    return slots


def _derivable(fact: Table, query: AggregateQuery) -> bool:
    """Whether a fused member re-aggregates exactly from finest partials."""
    return all(
        agg.op in ("count", "min", "max")
        or (agg.op == "sum" and fact.sums_exactly(agg.column))
        for agg in query.aggregates
    )


class _Groups(NamedTuple):
    """The merged finest groups of one fact pass, decoded."""

    finest: List[Tuple[str, str]]  # the key columns
    codes: List[np.ndarray]  # each key column's dictionary code per group
    cardinalities: List[int]
    values: List[np.ndarray]  # each key column's value per group
    count: int
    partials: "Dict[Tuple[str, Optional[str]], np.ndarray]"  # per slot


def _finish(
    fact_name: str,
    query: AggregateQuery,
    residual: Sequence[ColumnPredicate],
    groups: _Groups,
) -> ResultSet:
    """Finalize or derive one member from the merged finest groups.

    A member whose key is the finest key and which has no residual takes
    the merged groups as they are.  Any other member re-aggregates them
    with the distributive rules, residual predicates evaluated on the
    finest-group values (residual columns are part of the finest key, so
    they are constant within each finest group).
    """
    position = {key: i for i, key in enumerate(groups.finest)}
    rmask: Optional[np.ndarray] = None
    for cp in residual:
        values = groups.values[position[_column_key(fact_name, cp.table, cp.column)]]
        part = cp.predicate.mask(values)
        rmask = part if rmask is None else (rmask & part)

    def pick(array: np.ndarray) -> np.ndarray:
        return array if rmask is None else array[rmask]

    member = [
        position[_column_key(fact_name, gb.table, gb.column)]
        for gb in query.group_by
    ]
    ids: Optional[np.ndarray] = None
    count = groups.count
    first: object = slice(None)
    if rmask is not None or member != list(range(len(groups.finest))):
        ids, count, first = _combine_codes(
            [(pick(groups.codes[i]), groups.cardinalities[i]) for i in member],
            count if rmask is None else int(rmask.sum()),
        )

    def partial(slot: Tuple[str, Optional[str]], reagg: str) -> np.ndarray:
        values = pick(groups.partials[slot])
        return values if ids is None else aggregate(ids, count, values, reagg)

    columns: Dict[str, np.ndarray] = {
        gb.alias: pick(groups.values[i])[first]
        for gb, i in zip(query.group_by, member)
    }
    for agg in query.aggregates:
        if agg.op == "avg":
            totals = partial(("sum", agg.column), "sum")
            counts = partial(("count", None), "sum")
            with np.errstate(divide="ignore", invalid="ignore"):
                columns[agg.alias] = totals / counts
        elif agg.op == "count":
            columns[agg.alias] = partial(("count", None), "sum")
        else:
            columns[agg.alias] = partial((agg.op, agg.column), agg.op)
    return ResultSet(columns)


def _joint_codes(
    left_keys: Sequence[np.ndarray], right_keys: Sequence[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Factorise the key columns of both join sides into shared codes.

    Numeric columns are encoded with ``np.unique`` (fast integer sorts);
    object columns with a hash-map pass, which beats comparison-sorting
    Python strings.  Code order is arbitrary but consistent across the two
    sides, which is all an equality join needs.
    """
    n_left = len(left_keys[0]) if left_keys else 0
    left_codes = np.zeros(n_left, dtype=np.int64)
    right_codes = np.zeros(len(right_keys[0]) if right_keys else 0, dtype=np.int64)
    for left_column, right_column in zip(left_keys, right_keys):
        stacked = np.concatenate([left_column, right_column])
        if stacked.dtype == object:
            codes, cardinality = _hash_encode(stacked)
        else:
            codes, cardinality = _encode_column(stacked)
        left_codes = left_codes * cardinality + codes[:n_left]
        right_codes = right_codes * cardinality + codes[n_left:]
    return left_codes, right_codes


def _hash_encode(column: np.ndarray) -> Tuple[np.ndarray, int]:
    """Dictionary-encode an object column via one hash-map pass."""
    codes, mapping = _hash_encode_with_mapping(column)
    return codes, max(len(mapping), 1)


def _hash_encode_with_mapping(column: np.ndarray) -> Tuple[np.ndarray, Dict]:
    """Dictionary-encode a column, also returning the value→code mapping."""
    mapping: Dict = {}
    setdefault = mapping.setdefault
    codes = np.fromiter(
        (setdefault(value, len(mapping)) for value in column),
        dtype=np.int64,
        count=len(column),
    )
    return codes, mapping


def _gather_float(source: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Gather float values treating row ``-1`` as NULL (NaN)."""
    missing = rows < 0
    safe = np.where(missing, 0, rows)
    if len(source) == 0:
        return np.full(len(rows), np.nan)
    gathered = np.asarray(source, dtype=np.float64)[safe].copy()
    gathered[missing] = np.nan
    return gathered
