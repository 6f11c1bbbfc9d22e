"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, cmd_chat, cmd_export, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_chat_defaults(self):
        args = build_parser().parse_args(["chat"])
        assert args.space is None
        assert args.name == "Assistant"
        assert args.trace is False

    def test_chat_trace_flag(self):
        args = build_parser().parse_args(["chat", "--trace"])
        assert args.trace is True

    def test_simulate_options(self):
        args = build_parser().parse_args(["simulate", "-n", "50", "--seed", "3"])
        assert args.interactions == 50
        assert args.seed == 3


class TestExportAndChatRoundTrip:
    def test_export_writes_artifacts(self, tmp_path):
        out = tmp_path / "artifacts"
        lines = []
        args = build_parser().parse_args(["export", "--out", str(out)])
        assert cmd_export(args, output_fn=lines.append) == 0
        assert (out / "conversation_space.json").exists()
        assert (out / "ontology.owl").exists()
        assert (out / "kb" / "schema.json").exists()
        assert (out / "dialogue_logic_table.txt").exists()
        space = json.loads((out / "conversation_space.json").read_text())
        assert any(
            i["name"] == "Drugs That Treat Condition" for i in space["intents"]
        )

    def test_chat_from_exported_artifacts(self, tmp_path):
        out = tmp_path / "artifacts"
        export_args = build_parser().parse_args(["export", "--out", str(out)])
        cmd_export(export_args, output_fn=lambda _line: None)

        chat_args = build_parser().parse_args([
            "chat", "--space", str(out / "conversation_space.json"),
            "--data", str(out / "kb"),
            "--name", "Micromedex", "--domain", "drug reference",
        ])
        script = iter(["adverse effects of aspirin", "+1", "quit"])
        transcript = []
        code = cmd_chat(
            chat_args,
            input_fn=lambda _prompt: next(script),
            output_fn=transcript.append,
        )
        assert code == 0
        answers = [t for t in transcript if t.startswith("A: Here are the")]
        assert answers
        assert "Aspirin" in answers[0]

    def test_chat_trace_prints_stage_breakdown(self, tmp_path):
        out = tmp_path / "artifacts"
        export_args = build_parser().parse_args(["export", "--out", str(out)])
        cmd_export(export_args, output_fn=lambda _line: None)

        chat_args = build_parser().parse_args([
            "chat", "--trace",
            "--space", str(out / "conversation_space.json"),
            "--data", str(out / "kb"),
        ])
        script = iter(["adverse effects of aspirin", "quit"])
        transcript = []
        code = cmd_chat(
            chat_args,
            input_fn=lambda _prompt: next(script),
            output_fn=transcript.append,
        )
        assert code == 0
        traces = [t for t in transcript if "decided by" in t]
        assert traces, transcript
        assert "classify" in traces[0]
        assert "decided by [answer]" in traces[0]
        assert "kind=answer" in traces[0]

    def test_export_sqlite_reloads_equal_database(self, tmp_path):
        from repro.kb.io import load_database
        from repro.medical import build_mdx_database

        out = tmp_path / "artifacts"
        lines = []
        args = build_parser().parse_args(["export", "--sqlite", "--out", str(out)])
        assert cmd_export(args, output_fn=lines.append) == 0
        assert "kb.db" in lines[-1]

        source = build_mdx_database()
        restored = load_database(out / "kb.db")
        assert restored.table_names() == source.table_names()
        for table in source.tables():
            reloaded = restored.table(table.name)
            assert reloaded.schema.columns == table.schema.columns
            assert [
                [(type(v), v) for v in row] for row in reloaded.rows
            ] == [[(type(v), v) for v in row] for row in table.rows]

        chat_args = build_parser().parse_args([
            "chat", "--space", str(out / "conversation_space.json"),
            "--data", str(out / "kb.db"),
        ])
        script = iter(["adverse effects of aspirin", "quit"])
        transcript = []
        assert cmd_chat(
            chat_args,
            input_fn=lambda _prompt: next(script),
            output_fn=transcript.append,
        ) == 0
        answers = [t for t in transcript if t.startswith("A: Here are the")]
        assert answers and "Aspirin" in answers[0]

    def test_chat_space_without_data_rejected(self):
        args = build_parser().parse_args(["chat", "--space", "x.json"])
        with pytest.raises(SystemExit):
            cmd_chat(args, input_fn=lambda _p: "quit", output_fn=lambda _l: None)


def test_main_dispatches(tmp_path):
    out = tmp_path / "artifacts"
    assert main(["export", "--out", str(out)]) == 0
    assert (out / "ontology.owl").exists()
