"""Import/export for knowledge bases: a CSV directory or a SQLite file.

Both formats carry the same schema manifest (columns, types, keys,
creation order) and load back into a plain in-memory
:class:`~repro.kb.database.Database`; the in-memory engine is the only
query engine.

* **CSV directory** — one CSV file per table plus a ``schema.json``
  manifest.  NULL is written as ``\\N`` (the Postgres COPY convention),
  so empty strings stay distinguishable.
* **SQLite file** (``kb.db``) — one SQLite table per KB table plus a
  ``_repro_meta_`` table holding the manifest and the source's
  generation counters.  Columns carry no declared type, so ints, floats
  and text come back bit-for-bit; booleans are stored as 0/1 and
  restored from the manifest's column types.  A hidden ``_repro_pos_``
  column records each row's insertion position, so row order survives.

:func:`load_database` picks the format from the path: an existing file
(or any ``*.db`` path) is read as SQLite, anything else as a CSV
directory.
"""

from __future__ import annotations

import csv
import json
import os
import sqlite3
from pathlib import Path

from repro.errors import KBError
from repro.kb.database import Database
from repro.kb.schema import Column, ForeignKey, TableSchema
from repro.kb.types import DataType

_NULL = "\\N"
MANIFEST_NAME = "schema.json"

#: SQLite table carrying the schema manifest + generations.
META_TABLE = "_repro_meta_"

#: Hidden per-row insertion-position column of every SQLite table.
POSITION_COLUMN = "_repro_pos_"


def _encode(value) -> str:
    if value is None:
        return _NULL
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _decode(text: str, data_type: DataType):
    if text == _NULL:
        return None
    if data_type is DataType.INTEGER:
        return int(text)
    if data_type is DataType.FLOAT:
        return float(text)
    if data_type is DataType.BOOLEAN:
        return text == "true"
    return text


def database_manifest(database: Database) -> dict:
    """The JSON-safe schema manifest for ``database``.

    Shared by the CSV directory's ``schema.json`` and the SQLite file's
    metadata table, so both formats describe schemas identically.
    """
    return {
        "database": database.name,
        "tables": [
            {
                "name": table.schema.name,
                "primary_key": table.schema.primary_key,
                "columns": [
                    {
                        "name": col.name,
                        "type": col.data_type.value,
                        "nullable": col.nullable,
                    }
                    for col in table.schema.columns
                ],
                "foreign_keys": [
                    {
                        "column": fk.column,
                        "referenced_table": fk.referenced_table,
                        "referenced_column": fk.referenced_column,
                    }
                    for fk in table.schema.foreign_keys
                ],
            }
            for table in database.tables()
        ],
    }


def table_schema_from_manifest(tdata: dict) -> TableSchema:
    """Rebuild one :class:`TableSchema` from its manifest entry."""
    return TableSchema(
        name=tdata["name"],
        columns=[
            Column(
                c["name"],
                DataType(c["type"]),
                nullable=c.get("nullable", True),
            )
            for c in tdata["columns"]
        ],
        primary_key=tdata.get("primary_key"),
        foreign_keys=[
            ForeignKey(
                fk["column"], fk["referenced_table"], fk["referenced_column"]
            )
            for fk in tdata.get("foreign_keys", [])
        ],
    )


def save_database(database: Database, directory: str | Path) -> Path:
    """Write ``database`` to ``directory`` (created if needed).

    Returns the manifest path.  Layout: ``schema.json`` plus one
    ``<table>.csv`` per table with a header row.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = database_manifest(database)
    manifest_path = directory / MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    for table in database.tables():
        with open(directory / f"{table.name}.csv", "w", newline="",
                  encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(table.schema.column_names())
            for row in table.rows:
                writer.writerow([_encode(v) for v in row])
    return manifest_path


def load_database(path: str | Path) -> Database:
    """Load a database written by :func:`save_database` or :func:`save_sqlite`.

    An existing file or a ``*.db`` path is read as SQLite; anything else
    as a CSV directory.  Tables are created and filled in manifest
    order, so foreign keys validate as rows stream in.
    """
    path = Path(path)
    if path.is_file() or path.suffix == ".db":
        return _load_sqlite(path)
    return _load_csv(path)


def _load_csv(directory: Path) -> Database:
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise KBError(f"no {MANIFEST_NAME} manifest in {directory}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise KBError(f"invalid manifest: {exc}") from exc

    database = Database(manifest.get("database", "kb"))
    for tdata in manifest.get("tables", []):
        schema = table_schema_from_manifest(tdata)
        database.create_table(schema)
        csv_path = directory / f"{schema.name}.csv"
        if not csv_path.exists():
            continue  # an empty table need not ship a CSV
        with open(csv_path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                continue
            expected = [c.lower() for c in schema.column_names()]
            if [h.lower() for h in header] != expected:
                raise KBError(
                    f"{csv_path.name}: header {header} does not match the "
                    f"manifest columns {schema.column_names()}"
                )
            types = [col.data_type for col in schema.columns]
            for line_number, raw in enumerate(reader, start=2):
                if len(raw) != len(types):
                    raise KBError(
                        f"{csv_path.name}: line {line_number} has "
                        f"{len(raw)} fields, expected {len(types)}"
                    )
                try:
                    values = [
                        _decode(text, data_type)
                        for text, data_type in zip(raw, types)
                    ]
                except ValueError as exc:
                    raise KBError(
                        f"{csv_path.name}: line {line_number}: {exc}"
                    ) from exc
                database.insert(schema.name, values)
    return database


def _quote(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def save_sqlite(database: Database, path: str | Path) -> Path:
    """Write ``database`` to the SQLite file ``path``, replacing it.

    The file is built next to ``path`` and renamed into place, so a
    reader never sees a half-written KB.  Returns ``path``.
    """
    path = Path(path)
    tables = list(database.tables())
    for table in tables:
        if table.name.lower() == META_TABLE:
            raise KBError(f"table name {META_TABLE!r} is reserved")
        for column in table.schema.column_names():
            if column.lower() == POSITION_COLUMN:
                raise KBError(
                    f"column name {POSITION_COLUMN!r} is reserved "
                    f"(table {table.name!r})"
                )
    manifest = database_manifest(database)
    manifest["generation"] = int(database.generation)
    manifest["schema_generation"] = int(database.schema_generation)

    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".partial")
    partial.unlink(missing_ok=True)
    connection = sqlite3.connect(partial)
    try:
        with connection:
            connection.execute(
                f'CREATE TABLE {_quote(META_TABLE)} ("key" TEXT PRIMARY KEY, '
                '"value" TEXT)'
            )
            connection.execute(
                f"INSERT INTO {_quote(META_TABLE)} VALUES ('manifest', ?)",
                (json.dumps(manifest),),
            )
            for table in tables:
                names = table.schema.column_names() + [POSITION_COLUMN]
                columns = ", ".join(_quote(name) for name in names)
                # No declared column types: values are stored exactly as
                # bound, so ints stay ints and floats stay floats.
                connection.execute(f"CREATE TABLE {_quote(table.name)} ({columns})")
                connection.executemany(
                    f"INSERT INTO {_quote(table.name)} ({columns}) "
                    f"VALUES ({', '.join('?' for _ in names)})",
                    (
                        tuple(
                            int(value) if isinstance(value, bool) else value
                            for value in row
                        ) + (position,)
                        for position, row in enumerate(table.rows)
                    ),
                )
    except (sqlite3.Error, OverflowError) as exc:
        connection.close()
        partial.unlink(missing_ok=True)
        raise KBError(f"could not write SQLite KB {str(path)!r}: {exc}") from exc
    connection.close()
    os.replace(partial, path)
    return path


def _load_sqlite(path: Path) -> Database:
    if not path.is_file():
        raise KBError(f"no SQLite KB database at {str(path)!r}")
    connection = sqlite3.connect(path)
    try:
        try:
            rows = connection.execute(
                f'SELECT "value" FROM {_quote(META_TABLE)} '
                "WHERE \"key\" = 'manifest'"
            ).fetchall()
        except sqlite3.Error as exc:
            raise KBError(
                f"{str(path)!r} is not a repro KB SQLite database: {exc}"
            ) from exc
        if not rows:
            raise KBError(f"{str(path)!r} has no KB manifest")
        try:
            manifest = json.loads(rows[0][0])
            schemas = [
                table_schema_from_manifest(tdata)
                for tdata in manifest.get("tables", [])
            ]
        except (TypeError, KeyError, ValueError, AttributeError) as exc:
            raise KBError(
                f"{str(path)!r} has a corrupt KB manifest: {exc}"
            ) from exc
        database = Database(manifest.get("database", "kb"))
        for schema in schemas:
            database.create_table(schema)
            columns = ", ".join(_quote(name) for name in schema.column_names())
            try:
                cursor = connection.execute(
                    f"SELECT {columns} FROM {_quote(schema.name)} "
                    f"ORDER BY {_quote(POSITION_COLUMN)}"
                )
                # Column types restore booleans from their 0/1 storage.
                for row in cursor:
                    database.insert(schema.name, row)
            except sqlite3.Error as exc:
                raise KBError(
                    f"{str(path)!r}: cannot read table {schema.name!r}: {exc}"
                ) from exc
        return database
    finally:
        connection.close()
