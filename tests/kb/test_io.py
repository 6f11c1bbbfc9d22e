"""Tests for KB import/export: the CSV directory and the SQLite file."""

import sqlite3

import pytest

from repro.errors import KBError
from repro.kb import Column, Database, DataType, TableSchema
from repro.kb.io import (
    META_TABLE,
    POSITION_COLUMN,
    load_database,
    save_database,
    save_sqlite,
)
from tests.conftest import make_toy_database


def make_typed_database() -> Database:
    """A KB exercising every data type plus NULLs and duplicate keys."""
    db = Database("typed")
    db.create_table(TableSchema(
        "item",
        [Column("item_id", DataType.INTEGER, nullable=False),
         Column("label", DataType.TEXT),
         Column("score", DataType.FLOAT),
         Column("active", DataType.BOOLEAN)],
        primary_key="item_id",
    ))
    rows = [
        (5, "gamma", 2.25, False),
        (1, "Alpha", 1.5, True),
        (2, "beta", None, False),
        (3, None, 2.0, True),
        (4, "ALPHA", 0.5, None),
    ]
    for item_id, label, score, active in rows:
        db.insert("item", {
            "item_id": item_id, "label": label,
            "score": score, "active": active,
        })
    return db


def typed_rows(table) -> list[list[tuple[str, object]]]:
    """Rows with each value's Python type, so 1 != True != 1.0."""
    return [[(type(v).__name__, v) for v in row] for row in table.rows]


class TestRoundTrip:
    def test_all_tables_and_rows_preserved(self, toy_db, tmp_path):
        save_database(toy_db, tmp_path)
        restored = load_database(tmp_path)
        assert restored.table_names() == toy_db.table_names()
        for name in toy_db.table_names():
            assert restored.table(name).rows == toy_db.table(name).rows

    def test_schema_preserved(self, toy_db, tmp_path):
        save_database(toy_db, tmp_path)
        restored = load_database(tmp_path)
        schema = restored.table("precaution").schema
        assert schema.primary_key == "p_id"
        assert schema.foreign_key_for("drug_id").referenced_table == "drug"

    def test_nulls_and_types_preserved(self, tmp_path):
        from repro.kb import Column, Database, DataType, TableSchema
        db = Database("typed")
        db.create_table(TableSchema("t", [
            Column("i", DataType.INTEGER),
            Column("f", DataType.FLOAT),
            Column("s", DataType.TEXT),
            Column("b", DataType.BOOLEAN),
        ]))
        db.insert("t", {"i": 1, "f": 2.5, "s": "x", "b": True})
        db.insert("t", {"i": None, "f": None, "s": None, "b": False})
        db.insert("t", {"s": ""})  # empty string is not NULL
        save_database(db, tmp_path)
        restored = load_database(tmp_path)
        rows = restored.table("t").rows
        assert rows[0] == (1, 2.5, "x", True)
        assert rows[1] == (None, None, None, False)
        assert rows[2][2] == ""

    def test_queries_work_after_reload(self, toy_db, tmp_path):
        save_database(toy_db, tmp_path)
        restored = load_database(tmp_path)
        result = restored.query(
            "SELECT name FROM drug WHERE drug_id = :id", {"id": 1}
        )
        assert result.rows == [("Aspirin",)]

    def test_mdx_round_trips(self, mdx_small_db, tmp_path):
        save_database(mdx_small_db, tmp_path)
        restored = load_database(tmp_path)
        assert sum(len(t) for t in restored.tables()) == sum(
            len(t) for t in mdx_small_db.tables()
        )


class TestValidation:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(KBError, match="manifest"):
            load_database(tmp_path)

    def test_corrupt_manifest(self, tmp_path):
        (tmp_path / "schema.json").write_text("{broken")
        with pytest.raises(KBError, match="invalid manifest"):
            load_database(tmp_path)

    def test_header_mismatch(self, toy_db, tmp_path):
        save_database(toy_db, tmp_path)
        csv_path = tmp_path / "drug.csv"
        lines = csv_path.read_text().splitlines()
        lines[0] = "wrong,header,here"
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(KBError, match="header"):
            load_database(tmp_path)

    def test_bad_value_reports_line(self, toy_db, tmp_path):
        save_database(toy_db, tmp_path)
        csv_path = tmp_path / "drug.csv"
        lines = csv_path.read_text().splitlines()
        lines[1] = "notanint,Aspirin,Bayer"
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(KBError, match="line 2"):
            load_database(tmp_path)

    def test_missing_csv_leaves_table_empty(self, toy_db, tmp_path):
        save_database(toy_db, tmp_path)
        (tmp_path / "risk.csv").unlink()
        # risk rows gone; its children's FK rows now fail to validate —
        # remove them too for a consistent reload.
        (tmp_path / "contra_indication.csv").unlink()
        (tmp_path / "black_box_warning.csv").unlink()
        restored = load_database(tmp_path)
        assert len(restored.table("risk")) == 0
        assert len(restored.table("drug")) == 7


class TestSQLiteRoundTrip:
    def test_schema_and_generations_survive(self, tmp_path):
        db = make_toy_database()
        restored = load_database(save_sqlite(db, tmp_path / "kb.db"))
        assert isinstance(restored, Database)
        assert restored.name == db.name
        assert restored.generation == db.generation
        assert restored.schema_generation == db.schema_generation
        assert restored.table_names() == db.table_names()
        for name in db.table_names():
            original = db.table(name).schema
            schema = restored.table(name).schema
            assert schema.column_names() == original.column_names()
            assert [c.data_type for c in schema.columns] == [
                c.data_type for c in original.columns
            ]
            assert schema.primary_key == original.primary_key
            assert schema.foreign_keys == original.foreign_keys

    def test_rows_identical_per_table(self, tmp_path):
        db = make_toy_database()
        restored = load_database(save_sqlite(db, tmp_path / "kb.db"))
        for name in db.table_names():
            assert typed_rows(restored.table(name)) == typed_rows(db.table(name))

    def test_types_and_row_order_survive_exactly(self, tmp_path):
        db = make_typed_database()
        restored = load_database(save_sqlite(db, tmp_path / "kb.db"))
        # bools are bools again (not 0/1), 2.0 stays a float, NULLs stay
        # None, and rows keep insertion order rather than key order.
        assert typed_rows(restored.table("item")) == typed_rows(db.table("item"))
        assert [row[0] for row in restored.table("item").rows] == [5, 1, 2, 3, 4]

    def test_statistics_match(self, tmp_path):
        db = make_toy_database()
        restored = load_database(save_sqlite(db, tmp_path / "kb.db"))
        assert restored.statistics("drug").row_count == db.statistics("drug").row_count
        assert set(restored.all_statistics()) == set(db.all_statistics())

    def test_queries_work_after_reload(self, tmp_path):
        db = make_typed_database()
        restored = load_database(save_sqlite(db, tmp_path / "kb.db"))
        sql = "SELECT label FROM item WHERE active = TRUE ORDER BY item_id"
        assert restored.query(sql) == db.query(sql)

    def test_save_replaces_an_existing_file(self, tmp_path):
        path = tmp_path / "kb.db"
        save_sqlite(make_toy_database(), path)
        save_sqlite(make_typed_database(), path)
        assert load_database(path).table_names() == ["item"]
        assert [p.name for p in tmp_path.iterdir()] == ["kb.db"]

    def test_mdx_round_trips(self, mdx_small_db, tmp_path):
        restored = load_database(save_sqlite(mdx_small_db, tmp_path / "kb.db"))
        for table in mdx_small_db.tables():
            assert typed_rows(restored.table(table.name)) == typed_rows(table)


class TestReservedNames:
    def test_reserved_table_name(self, tmp_path):
        db = Database("bad")
        db.create_table(TableSchema(META_TABLE, [Column("x", DataType.INTEGER)]))
        with pytest.raises(KBError, match="reserved"):
            save_sqlite(db, tmp_path / "kb.db")
        assert not (tmp_path / "kb.db").exists()

    def test_reserved_column_name(self, tmp_path):
        db = Database("bad")
        db.create_table(TableSchema("t", [Column(POSITION_COLUMN, DataType.INTEGER)]))
        with pytest.raises(KBError, match="reserved"):
            save_sqlite(db, tmp_path / "kb.db")


class TestSQLiteValidation:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(KBError, match="no SQLite KB database"):
            load_database(tmp_path / "absent.db")
        assert not (tmp_path / "absent.db").exists()

    def test_foreign_file_raises(self, tmp_path):
        path = tmp_path / "foreign.db"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE t (x)")
        conn.commit()
        conn.close()
        with pytest.raises(KBError, match="not a repro KB"):
            load_database(path)

    def test_non_sqlite_file_raises(self, tmp_path):
        path = tmp_path / "notes.db"
        path.write_text("not a database\n" * 100)
        with pytest.raises(KBError, match="not a repro KB"):
            load_database(path)

    @pytest.mark.parametrize("manifest", ["{broken", "[1, 2]", '{"tables": [{}]}'])
    def test_corrupt_manifest_raises(self, tmp_path, manifest):
        path = save_sqlite(make_toy_database(), tmp_path / "kb.db")
        conn = sqlite3.connect(path)
        conn.execute(f"UPDATE {META_TABLE} SET value = ?", (manifest,))
        conn.commit()
        conn.close()
        with pytest.raises(KBError, match="corrupt KB manifest"):
            load_database(path)

    def test_missing_manifest_row_raises(self, tmp_path):
        path = save_sqlite(make_toy_database(), tmp_path / "kb.db")
        conn = sqlite3.connect(path)
        conn.execute(f"DELETE FROM {META_TABLE}")
        conn.commit()
        conn.close()
        with pytest.raises(KBError, match="no KB manifest"):
            load_database(path)
