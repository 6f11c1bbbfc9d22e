"""`repro check/audit --data kb.db`: validating an exported SQLite KB.

The toolchain must be able to audit exactly what a server started with
``--data kb.db`` would serve, and catch a replica that drifted from the
conversation space.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.kb.io import save_database, save_sqlite
from repro.bootstrap import space_to_dict
from tests.serving.conftest import build_toy_agent


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory: pytest.TempPathFactory) -> Path:
    """Exported toy space + CSV KB + kb.db."""
    out = tmp_path_factory.mktemp("toy-audit")
    agent = build_toy_agent()
    (out / "space.json").write_text(
        json.dumps(space_to_dict(agent.space)), encoding="utf-8"
    )
    save_database(agent.database, out / "kb")
    save_sqlite(agent.database, out / "kb.db")
    return out


def check_args(artifacts: Path, data: Path | None = None) -> list[str]:
    return [
        "check",
        "--space", str(artifacts / "space.json"),
        "--data", str(data if data is not None else artifacts / "kb"),
    ]


class TestBackendSelection:
    def test_memory_default_passes(self, artifacts):
        assert main(check_args(artifacts)) == 0

    def test_exported_kb_db_passes(self, artifacts):
        assert main(check_args(artifacts, artifacts / "kb.db")) == 0

    def test_audit_accepts_backend_too(self, artifacts):
        assert main([
            "audit",
            "--space", str(artifacts / "space.json"),
            "--data", str(artifacts / "kb.db"),
        ]) == 0


class TestDriftDetection:
    def test_drifted_replica_fails_check(self, artifacts, tmp_path):
        # A kb.db missing a table the space queries: checking the CSV KB
        # passes, checking the drifted replica must not.
        from repro.kb import Database

        agent = build_toy_agent()
        source = agent.database.backend
        broken = Database(source.name)
        for table in source.tables():
            if table.name == "dosage":
                continue
            broken.create_table(table.schema)
            for row in table.rows:
                broken.table(table.name).insert(list(row))
        drifted = save_sqlite(broken, tmp_path / "drifted.db")

        assert main(check_args(artifacts)) == 0
        assert main(check_args(artifacts, drifted)) == 1

    def test_missing_kb_db_exits_cleanly(self, artifacts, tmp_path):
        with pytest.raises(SystemExit):
            main(check_args(artifacts, tmp_path / "absent.db"))
