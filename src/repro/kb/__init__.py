"""Relational knowledge-base engine.

This package is the storage substrate of the reproduction: the paper keeps
its medical KB in Db2-on-Cloud and answers every intent by executing a
structured (SQL) query template against it.  We provide the equivalent:

* :mod:`repro.kb.types` — column data types and value coercion,
* :mod:`repro.kb.schema` — table schemas with primary/foreign keys,
* :mod:`repro.kb.table` — row storage with constraint enforcement,
* :mod:`repro.kb.database` — the database catalog and query entry point,
* :mod:`repro.kb.statistics` — column statistics used by the ontology
  bootstrapping process (categorical-attribute detection),
* :mod:`repro.kb.sql` — a SQL subset (lexer, parser, executor) sufficient
  for the paper's SELECT/JOIN/WHERE query templates,
* :mod:`repro.kb.backend` — immutable :class:`KBSnapshot` views and the
  copy-on-write :class:`KBHandle` that swaps generation-tagged
  snapshots under live traffic,
* :mod:`repro.kb.io` — import/export as a CSV directory or an SQLite
  ``kb.db`` file; both load back into a :class:`Database`.
"""

from repro.kb.backend import KBHandle, KBSnapshot, wrap_database
from repro.kb.database import Database
from repro.kb.schema import Column, ForeignKey, TableSchema
from repro.kb.statistics import ColumnStatistics, TableStatistics
from repro.kb.table import Table
from repro.kb.types import DataType
from repro.kb.sql.result import ResultSet

__all__ = [
    "Column",
    "ColumnStatistics",
    "DataType",
    "Database",
    "ForeignKey",
    "KBHandle",
    "KBSnapshot",
    "ResultSet",
    "Table",
    "TableSchema",
    "TableStatistics",
    "wrap_database",
]
