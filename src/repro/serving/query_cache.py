"""LRU+TTL query-result cache wrapped around :class:`Database` execution.

The dominant MDX pattern class is the direct lookup (§4.3), and under
real traffic the same (template, bindings) pair recurs constantly —
every clinician asking "dosage for aspirin" instantiates the identical
SQL with identical parameters.  :class:`QueryCache` memoizes executed
result sets keyed on the SQL text plus the bound parameters, and
:class:`CachingDatabase` is a drop-in proxy for
:class:`~repro.kb.database.Database` that consults the cache on
``query`` and invalidates it on any write.

Coherence is belt-and-braces: writes through the proxy drop the whole
cache eagerly, *and* every entry is tagged with the database
:attr:`~repro.kb.database.Database.generation` at store time and
rejected on lookup if the generation has since moved.  The generation
counter covers programmatic mutations that bypass the proxy (inserting
through a raw :class:`~repro.kb.table.Table` handle), so a stale cached
answer is impossible by construction, not merely by discipline.

Cached :class:`~repro.kb.sql.result.ResultSet` objects are shared
between threads and must be treated as immutable by callers (the agent
already copies ``result.rows`` before storing them in context).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Iterable

from repro.kb.backend import KBHandle
from repro.kb.database import Database
from repro.kb.sql.planner import CompiledPlan
from repro.kb.sql.result import ResultSet

CacheKey = tuple[str, tuple[tuple[str, Any], ...]]


def make_key(sql: str, params: dict[str, Any] | None) -> CacheKey:
    """A hashable cache key: SQL text + sorted bound parameters."""
    items = tuple(sorted((params or {}).items(), key=lambda kv: kv[0]))
    return (sql, items)


class QueryCache:
    """A thread-safe LRU cache with per-entry TTL and hit/miss counters.

    ``clock`` is injectable (monotonic seconds) so tests can drive TTL
    expiry deterministically.  Entries remember the ``generation`` they
    were stored under; a lookup presenting a different generation treats
    the entry as stale and drops it.
    """

    def __init__(
        self,
        max_entries: int = 512,
        ttl: float = 300.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.ttl = ttl
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: (
            "OrderedDict[CacheKey, tuple[float, int | None, ResultSet]]"
        ) = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        # Refresh observability: entries dropped because their stored
        # generation no longer matches (the KB was swapped/mutated), and
        # hits served despite a generation mismatch.  The latter is zero
        # by construction — the lookup below drops instead of serving —
        # and is exported to /metrics so a refresh drill can assert it.
        self.stale_drops = 0
        self.stale_served = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(
        self,
        sql: str,
        params: dict[str, Any] | None,
        generation: int | None = None,
    ) -> ResultSet | None:
        """Return the cached result, or None on miss/expiry/stale generation."""
        key = make_key(sql, params)
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            expires_at, stored_generation, result = entry
            if now >= expires_at or stored_generation != generation:
                if now < expires_at:
                    self.stale_drops += 1
                del self._entries[key]
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return result

    def store(
        self,
        sql: str,
        params: dict[str, Any] | None,
        result: ResultSet,
        generation: int | None = None,
    ) -> None:
        key = make_key(sql, params)
        with self._lock:
            self._entries[key] = (self._clock() + self.ttl, generation, result)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate(self, sql: str | None = None) -> int:
        """Drop entries for one SQL text, or everything; returns the count."""
        with self._lock:
            if sql is None:
                dropped = len(self._entries)
                self._entries.clear()
            else:
                stale = [k for k in self._entries if k[0] == sql]
                for key in stale:
                    del self._entries[key]
                dropped = len(stale)
            self.invalidations += dropped
            return dropped

    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (1.0 when no lookups)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 1.0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "stale_drops": self.stale_drops,
                "stale_served": self.stale_served,
            }


class _CachingPrepared:
    """A compiled plan whose ``execute`` consults the result cache.

    Returned by :meth:`CachingDatabase.prepare` so that template-layer
    callers holding prepared statements still benefit from (and stay
    coherent with) the serving result cache.
    """

    def __init__(self, owner: "CachingDatabase", plan: CompiledPlan) -> None:
        self._owner = owner
        self._plan = plan

    @property
    def plan(self) -> CompiledPlan:
        return self._plan

    def execute(self, params: dict[str, Any] | None = None) -> ResultSet:
        sql = self._plan.sql
        if sql is None:  # no cache key without SQL text
            return self._plan.execute(params)
        return self._owner._cached_execute(sql, params, self._plan)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._plan, name)


class CachingDatabase:
    """A :class:`Database` proxy that serves ``query`` through a cache.

    Reads (``query``) consult the cache first; every write entry point
    (``insert``, ``insert_many``, ``create_table``) delegates to the
    wrapped database and then invalidates the whole cache.  Entries are
    additionally generation-tagged (see module docstring), so mutations
    that bypass the proxy still can never yield a stale answer.
    Everything else is delegated untouched, so the proxy can stand
    wherever a ``Database`` is expected.
    """

    def __init__(
        self, database: KBHandle | Database, cache: QueryCache | None = None
    ) -> None:
        self._database = database
        self.cache = cache if cache is not None else QueryCache()

    @property
    def wrapped(self) -> KBHandle | Database:
        return self._database

    def _cached_execute(
        self,
        sql: str,
        params: dict[str, Any] | None,
        plan: CompiledPlan | None = None,
    ) -> ResultSet:
        generation = self._database.generation
        cached = self.cache.lookup(sql, params, generation=generation)
        if cached is not None:
            return cached
        if plan is not None:
            result = plan.execute(params)
        else:
            result = self._database.query(sql, params)
        self.cache.store(sql, params, result, generation=generation)
        return result

    def query(self, sql: str, params: dict[str, Any] | None = None) -> ResultSet:
        return self._cached_execute(sql, params)

    def prepare(self, sql: str, *, use_indexes: bool = True) -> _CachingPrepared:
        """Prepare through the wrapped database, keeping the result cache.

        Without this override, ``__getattr__`` would hand back the inner
        database's plan directly and prepared execution would silently
        bypass the result cache.
        """
        plan = self._database.prepare(sql, use_indexes=use_indexes)
        return _CachingPrepared(self, plan)

    def insert(
        self, table_name: str, values: dict[str, Any] | Iterable[Any]
    ) -> tuple[Any, ...]:
        row = self._database.insert(table_name, values)
        self.cache.invalidate()
        return row

    def insert_many(
        self, table_name: str, rows: Iterable[dict[str, Any] | Iterable[Any]]
    ) -> int:
        count = self._database.insert_many(table_name, rows)
        self.cache.invalidate()
        return count

    def create_table(self, schema: Any) -> Any:
        table = self._database.create_table(schema)
        self.cache.invalidate()
        return table

    def __getattr__(self, name: str) -> Any:
        return getattr(self._database, name)
