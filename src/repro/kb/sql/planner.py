"""Query planning: compile a parsed SELECT into a reusable execution plan.

The paper's per-intent structured query templates are executed on every
conversation turn, so the serving hot path must not re-parse, re-resolve
or re-plan SQL per request.  :func:`compile_plan` does all of that once:

* validates tables and resolves every column reference up front,
* picks a join strategy per JOIN (index-backed hash join for equality
  keys, nested loop otherwise),
* pushes sargable WHERE conjuncts (``col = ?`` / ``col IN (...)``) down
  to the table they constrain, so execution probes a lazily-built
  :meth:`~repro.kb.table.Table.secondary_index` instead of scanning.

The resulting :class:`CompiledPlan` executes with bindings only, and its
:meth:`CompiledPlan.plan` method renders an EXPLAIN-style description of
the index-vs-scan decisions that tests and audits can assert against.

Correctness contract: a plan compiled with ``use_indexes=False`` (the
reference scan path) and one with ``use_indexes=True`` return
byte-identical result sets.  The pushdown filters are re-applied as part
of the full WHERE evaluation, and index probes share the executor's
equality normalization (NULL never matches, booleans never match
integers), so the index path can only skip rows the scan path would have
discarded — in particular, pushing a null-rejecting filter below a LEFT
JOIN is safe because any extra padded rows it creates are dropped when
the full WHERE is evaluated.

:class:`PlanCache` memoizes compiled plans per SQL text behind a lock so
many serving threads can share one cache; entries are invalidated when
the database schema generation moves.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import (
    AmbiguousColumnError,
    BindingError,
    UnknownColumnError,
    UnknownTableError,
)
from repro.kb.sql import ast
from repro.kb.sql.executor import (
    _eval_predicate,
    _project_grouped,
    _project_plain,
    _Scope,
    _sort_key,
    _split_equi_join,
    _norm_key,
)
from repro.kb.sql.result import ResultSet
from repro.kb.types import normalize_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kb.database import Database
    from repro.kb.table import Table


# ---------------------------------------------------------------------------
# EXPLAIN-style plan description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanStep:
    """One step of a query plan, for observability and tests."""

    op: str            # scan | index-lookup | hash-join | nested-loop-join | ...
    target: str = ""   # table or binding the step operates on
    detail: str = ""   # human-readable specifics (keys, pushed filters)

    def render(self) -> str:
        parts = [self.op]
        if self.target:
            parts.append(self.target)
        text = " ".join(parts)
        return f"{text} ({self.detail})" if self.detail else text


@dataclass(frozen=True)
class QueryPlan:
    """An EXPLAIN-style, parameter-independent description of a plan."""

    steps: tuple[PlanStep, ...]

    def ops(self) -> list[str]:
        return [step.op for step in self.steps]

    @property
    def uses_index(self) -> bool:
        """True when any step probes a secondary index."""
        return any(
            step.op == "index-lookup" or "index" in step.detail
            for step in self.steps
        )

    def explain(self) -> str:
        return "\n".join(
            f"{i + 1}. {step.render()}" for i, step in enumerate(self.steps)
        )


def _expr_label(node: ast.Expression) -> str:
    if isinstance(node, ast.Literal):
        return repr(node.value)
    if isinstance(node, ast.Parameter):
        return f":{node.name}"
    if isinstance(node, ast.ColumnRef):
        return str(node)
    return type(node).__name__


# ---------------------------------------------------------------------------
# Pushdown analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _PushedFilter:
    """A sargable WHERE conjunct bound to one table segment.

    ``column_position`` indexes into that table's own row tuple;
    ``values`` are the Literal/Parameter expressions the column must
    equal (one for ``=``, several for ``IN``).  Only null-rejecting
    forms are pushed, which is what makes pushdown below LEFT JOIN safe.
    """

    column_position: int
    values: tuple[ast.Expression, ...]
    label: str


@dataclass(frozen=True)
class _Segment:
    """One table's slice of the combined join row."""

    binding: str
    table: "Table"
    offset: int
    width: int


def _conjuncts(node: ast.Expression) -> list[ast.Expression]:
    if isinstance(node, ast.And):
        return _conjuncts(node.left) + _conjuncts(node.right)
    return [node]


def _sargable(conjunct: ast.Expression) -> tuple[
    ast.ColumnRef, tuple[ast.Expression, ...]
] | None:
    """``col = value`` / ``col IN (values)`` → (col, values), else None."""
    if isinstance(conjunct, ast.Comparison) and conjunct.op == "=":
        for col, value in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if isinstance(col, ast.ColumnRef) and isinstance(
                value, (ast.Literal, ast.Parameter)
            ):
                return col, (value,)
        return None
    if isinstance(conjunct, ast.InPredicate) and not conjunct.negated:
        if isinstance(conjunct.operand, ast.ColumnRef) and all(
            isinstance(value, (ast.Literal, ast.Parameter))
            for value in conjunct.values
        ):
            return conjunct.operand, tuple(conjunct.values)
    return None


def _filter_value(node: ast.Expression, params: dict[str, Any]) -> Any:
    if isinstance(node, ast.Literal):
        return node.value
    if node.name not in params:  # ast.Parameter
        raise BindingError(f"missing parameter :{node.name}")
    return params[node.name]


# ---------------------------------------------------------------------------
# The compiled plan
# ---------------------------------------------------------------------------


@dataclass
class _JoinStep:
    """Precompiled strategy for one JOIN clause."""

    join: ast.Join
    table: "Table"
    right_width: int
    combined_scope: _Scope
    equi: tuple[int, int] | None   # (left row index, right column position)
    pushed: tuple[_PushedFilter, ...]


class CompiledPlan:
    """A parsed, resolved, strategy-selected SELECT, ready to execute.

    Compile once via :func:`compile_plan` (or
    :meth:`~repro.kb.database.Database.prepare`), then call
    :meth:`execute` with parameter bindings only.  Plans are shared
    between serving threads; the ``executions``/``index_probes``
    counters are best-effort (unlocked) telemetry.
    """

    def __init__(
        self,
        database: "Database",
        select: ast.Select,
        sql: str | None = None,
        use_indexes: bool = True,
    ) -> None:
        self.database = database
        self.select = select
        self.sql = sql
        self.use_indexes = use_indexes
        self.schema_generation = getattr(database, "schema_generation", 0)
        self.executions = 0
        self.index_probes = 0
        self._compile()

    # -- compilation ---------------------------------------------------------

    def _compile(self) -> None:
        select, database = self.select, self.database
        for table_ref in [select.source] + [j.table for j in select.joins]:
            if not database.has_table(table_ref.table):
                raise UnknownTableError(table_ref.table)

        self.base_table: "Table" = database.table(select.source.table)
        base_columns = self.base_table.schema.column_names()

        # Segments: each table's slice of the combined row.
        segments: list[_Segment] = [
            _Segment(select.source.binding, self.base_table, 0, len(base_columns))
        ]
        scope = _Scope()
        scope.add_table(select.source.binding, base_columns)

        self.join_steps: list[_JoinStep] = []
        for join in select.joins:
            right = database.table(join.table.table)
            right_columns = right.schema.column_names()
            right_scope = _Scope()
            right_scope.add_table(join.table.binding, right_columns)

            combined = _Scope()
            for segment in segments:
                combined.add_table(
                    segment.binding, segment.table.schema.column_names()
                )
            combined.add_table(join.table.binding, right_columns)

            equi = _split_equi_join(join.condition, scope, right_scope)
            segments.append(
                _Segment(
                    join.table.binding,
                    right,
                    sum(s.width for s in segments),
                    len(right_columns),
                )
            )
            self.join_steps.append(
                _JoinStep(
                    join=join,
                    table=right,
                    right_width=len(right_columns),
                    combined_scope=combined,
                    equi=equi,
                    pushed=(),
                )
            )
            scope = combined

        self.final_scope = scope
        self.segments = segments

        # Resolve every WHERE column reference now, so unknown/ambiguous
        # references fail at prepare time on both the scan and the index
        # path (an index prefilter that empties the row set must not
        # swallow a resolution error the scan path would have raised).
        if select.where is not None:
            self._resolve_refs(select.where)

        # Pushdown: bind each sargable conjunct to its table segment.
        pushed_by_segment: dict[int, list[_PushedFilter]] = {}
        if select.where is not None:
            for conjunct in _conjuncts(select.where):
                sarg = _sargable(conjunct)
                if sarg is None:
                    continue
                col, values = sarg
                position = self.final_scope.resolve(col)
                for seg_index, segment in enumerate(segments):
                    if segment.offset <= position < segment.offset + segment.width:
                        label = "{} = {}".format(
                            _expr_label(col), _expr_label(values[0])
                        ) if len(values) == 1 else "{} IN ({})".format(
                            _expr_label(col),
                            ", ".join(_expr_label(v) for v in values),
                        )
                        pushed_by_segment.setdefault(seg_index, []).append(
                            _PushedFilter(
                                position - segment.offset, values, label
                            )
                        )
                        break

        self.base_pushed: tuple[_PushedFilter, ...] = tuple(
            pushed_by_segment.get(0, ())
        )
        for i, step in enumerate(self.join_steps):
            step.pushed = tuple(pushed_by_segment.get(i + 1, ()))

        self._has_aggregates = any(
            isinstance(item.expression, ast.Aggregate) for item in select.items
        )

    def _resolve_refs(self, node: ast.Expression) -> None:
        if isinstance(node, ast.ColumnRef):
            self.final_scope.resolve(node)
        elif isinstance(node, (ast.And, ast.Or, ast.Comparison)):
            self._resolve_refs(node.left)
            self._resolve_refs(node.right)
        elif isinstance(node, ast.Not):
            self._resolve_refs(node.operand)
        elif isinstance(node, ast.LikePredicate):
            self._resolve_refs(node.operand)
            self._resolve_refs(node.pattern)
        elif isinstance(node, ast.InPredicate):
            self._resolve_refs(node.operand)
            for value in node.values:
                self._resolve_refs(value)
        elif isinstance(node, ast.IsNullPredicate):
            self._resolve_refs(node.operand)

    # -- observability -------------------------------------------------------

    def plan(self) -> QueryPlan:
        """The EXPLAIN-style description of this plan's decisions."""
        steps: list[PlanStep] = []
        base_name = self.base_table.name
        if self.use_indexes and self.base_pushed:
            steps.append(PlanStep(
                "index-lookup", base_name,
                ", ".join(f.label for f in self.base_pushed),
            ))
        else:
            steps.append(PlanStep("scan", base_name))
        for step in self.join_steps:
            pushed = ", ".join(f.label for f in step.pushed)
            if step.equi is not None:
                op = "hash-join"
                cond = step.join.condition
                detail = "{} = {}".format(
                    _expr_label(cond.left), _expr_label(cond.right)
                )
                if self.use_indexes:
                    detail += (
                        f"; index-lookup push: {pushed}" if pushed
                        else "; index on join key"
                    )
            else:
                op = "nested-loop-join"
                detail = _expr_label(step.join.condition)
                if self.use_indexes and pushed:
                    detail += f"; index-lookup push: {pushed}"
            steps.append(PlanStep(op, step.table.name, detail))
        if self.select.where is not None:
            steps.append(PlanStep("filter", detail="WHERE"))
        if self.select.group_by or self._has_aggregates:
            steps.append(PlanStep("aggregate"))
        if self.select.distinct:
            steps.append(PlanStep("distinct"))
        if self.select.order_by:
            steps.append(PlanStep("sort", detail=", ".join(
                str(item.column) + (" DESC" if item.descending else "")
                for item in self.select.order_by
            )))
        if self.select.limit is not None or self.select.offset:
            steps.append(PlanStep("limit", detail=(
                f"limit={self.select.limit} offset={self.select.offset or 0}"
            )))
        return QueryPlan(tuple(steps))

    def explain(self) -> str:
        return self.plan().explain()

    # -- execution -----------------------------------------------------------

    def _probe_positions(
        self,
        table: "Table",
        filters: tuple[_PushedFilter, ...],
        params: dict[str, Any],
    ) -> list[int]:
        """Row positions matching every pushed filter, ascending."""
        result: set[int] | None = None
        for pushed in filters:
            index = table.secondary_index(pushed.column_position)
            self.index_probes += 1
            positions: set[int] = set()
            for value_expr in pushed.values:
                value = _filter_value(value_expr, params)
                if value is None:
                    continue  # NULL never equals anything
                positions.update(index.get(normalize_key(value), ()))
            result = positions if result is None else result & positions
            if not result:
                break
        return sorted(result or ())

    def _base_rows(self, params: dict[str, Any]) -> list[tuple]:
        if self.use_indexes and self.base_pushed:
            positions = self._probe_positions(
                self.base_table, self.base_pushed, params
            )
            stored = self.base_table.rows
            return [stored[p] for p in positions]
        return list(self.base_table.rows)

    def _right_rows(self, step: _JoinStep, params: dict[str, Any]) -> list[tuple]:
        if self.use_indexes and step.pushed:
            positions = self._probe_positions(step.table, step.pushed, params)
            stored = step.table.rows
            return [stored[p] for p in positions]
        return list(step.table.rows)

    def _apply_join(
        self, step: _JoinStep, rows: list[tuple], params: dict[str, Any]
    ) -> list[tuple]:
        join = step.join
        right_width = step.right_width
        new_rows: list[tuple] = []
        if step.equi is not None:
            left_idx, right_col = step.equi
            if self.use_indexes and not step.pushed:
                # Probe the table's persistent index: no per-execution
                # hash build.  Positions are ascending, so matches come
                # out in the same order the scan-path hash join yields.
                index = step.table.secondary_index(right_col)
                self.index_probes += 1
                stored = step.table.rows
                for lrow in rows:
                    key = lrow[left_idx]
                    matches = (
                        index.get(normalize_key(key), ())
                        if key is not None else ()
                    )
                    if matches:
                        for position in matches:
                            new_rows.append(lrow + stored[position])
                    elif join.kind == "left":
                        new_rows.append(lrow + (None,) * right_width)
                return new_rows
            # Per-execution hash join over the (possibly prefiltered)
            # right rows.  NULL keys are excluded on both sides — NULL
            # never equals NULL.
            right_rows = self._right_rows(step, params)
            index_map: dict[Any, list[tuple]] = {}
            for rrow in right_rows:
                key = rrow[right_col]
                if key is not None:
                    index_map.setdefault(normalize_key(key), []).append(rrow)
            for lrow in rows:
                key = lrow[left_idx]
                matches = (
                    index_map.get(normalize_key(key), [])
                    if key is not None else []
                )
                if matches:
                    for rrow in matches:
                        new_rows.append(lrow + rrow)
                elif join.kind == "left":
                    new_rows.append(lrow + (None,) * right_width)
            return new_rows
        # Nested loop: arbitrary join condition.
        right_rows = self._right_rows(step, params)
        for lrow in rows:
            matched = False
            for rrow in right_rows:
                candidate = lrow + rrow
                if _eval_predicate(
                    join.condition, candidate, step.combined_scope, params
                ):
                    new_rows.append(candidate)
                    matched = True
            if not matched and join.kind == "left":
                new_rows.append(lrow + (None,) * right_width)
        return new_rows

    def execute(self, params: dict[str, Any] | None = None) -> ResultSet:
        """Run the plan with ``params`` bound and return the result set."""
        params = params or {}
        self.executions += 1
        select = self.select

        rows = self._base_rows(params)
        for step in self.join_steps:
            rows = self._apply_join(step, rows, params)

        scope = self.final_scope
        if select.where is not None:
            where = select.where
            rows = [
                row for row in rows
                if _eval_predicate(where, row, scope, params)
            ]

        if select.group_by or self._has_aggregates:
            result_columns, out_rows = _project_grouped(select, rows, scope)
        else:
            result_columns, out_rows = _project_plain(
                select, rows, scope, self.database
            )

        if select.distinct:
            seen: set = set()
            deduped = []
            kept_source_rows = []
            for position, row in enumerate(out_rows):
                key = tuple(_norm_key(v) for v in row)
                if key not in seen:
                    seen.add(key)
                    deduped.append(row)
                    if position < len(rows):
                        kept_source_rows.append(rows[position])
            out_rows = deduped
            # Keep ORDER BY's source rows aligned with the deduplicated output.
            if len(kept_source_rows) == len(out_rows):
                rows = kept_source_rows

        if select.order_by:
            if select.group_by or self._has_aggregates:
                # ORDER BY must reference output columns after grouping.
                lowered = [c.lower() for c in result_columns]
                # Sort ascending first, then apply per-key direction via
                # stable sorts.
                for item in reversed(select.order_by):
                    name = item.column.column.lower()
                    matches = [i for i, c in enumerate(lowered) if c == name]
                    if not matches:
                        raise UnknownColumnError(item.column.column)
                    if len(matches) > 1:
                        raise AmbiguousColumnError(
                            item.column.column,
                            tuple(f"output column {i + 1}" for i in matches),
                        )
                    idx = matches[0]
                    out_rows.sort(
                        key=lambda r: _sort_key(r[idx]), reverse=item.descending
                    )
            else:
                for item in reversed(select.order_by):
                    idx = scope.resolve(item.column)
                    paired = sorted(
                        zip(rows, out_rows),
                        key=lambda pair: _sort_key(pair[0][idx]),
                        reverse=item.descending,
                    )
                    rows = [p[0] for p in paired]
                    out_rows = [p[1] for p in paired]

        if select.offset:
            out_rows = out_rows[select.offset:]
        if select.limit is not None:
            out_rows = out_rows[: select.limit]

        return ResultSet(columns=result_columns, rows=out_rows)


def compile_plan(
    database: "Database",
    select: ast.Select,
    sql: str | None = None,
    use_indexes: bool = True,
) -> CompiledPlan:
    """Compile ``select`` against ``database`` into a reusable plan."""
    return CompiledPlan(database, select, sql=sql, use_indexes=use_indexes)


# ---------------------------------------------------------------------------
# The plan cache
# ---------------------------------------------------------------------------


class PlanCache:
    """A thread-safe LRU cache of compiled plans, keyed by SQL text.

    Entries are invalidated when the owning database's schema generation
    moves (new tables change what a SQL text can resolve to).  Data
    mutations do *not* invalidate plans: plans read rows and secondary
    indexes live at execution time, and the tables themselves rebuild
    stale indexes.
    """

    def __init__(self, max_plans: int = 256) -> None:
        if max_plans < 1:
            raise ValueError("max_plans must be >= 1")
        self.max_plans = max_plans
        self._lock = threading.Lock()
        self._plans: "OrderedDict[tuple[str, bool], CompiledPlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __getstate__(self) -> dict[str, Any]:
        # Locks can't be copied/pickled; a copied database starts with a
        # fresh, empty cache (cached plans point at the original tables).
        return {"max_plans": self.max_plans}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__init__(state["max_plans"])

    def get_or_compile(
        self, database: "Database", sql: str, use_indexes: bool = True
    ) -> CompiledPlan:
        from repro.kb.sql.parser import parse

        key = (sql, use_indexes)
        schema_generation = getattr(database, "schema_generation", 0)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None and plan.schema_generation == schema_generation:
                self.hits += 1
                self._plans.move_to_end(key)
                return plan
            self.misses += 1
        # Compile outside the lock: parsing + resolution can be slow and
        # must not serialize unrelated queries.  A concurrent duplicate
        # compile is harmless — last writer wins.
        plan = CompiledPlan(database, parse(sql), sql=sql, use_indexes=use_indexes)
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.max_plans:
                self._plans.popitem(last=False)
        return plan

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "plans": len(self._plans),
                "hits": self.hits,
                "misses": self.misses,
                "executions": sum(p.executions for p in self._plans.values()),
                "index_probes": sum(
                    p.index_probes for p in self._plans.values()
                ),
            }
