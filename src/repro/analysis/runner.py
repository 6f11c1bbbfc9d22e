"""CLI entry points for ``python -m repro check|lint|race|purity|audit|baseline``.

All commands share one reporting pipeline: run the checkers, subtract
the baseline, render pretty text or JSON, and exit non-zero when any
non-baselined error remains (warnings too under ``--strict``).
``audit`` runs the semantic layers (type/dataflow + ambiguity) that
``check`` leaves out; ``purity`` runs the replay-determinism and
exception-flow rules; ``check --deep``/``lint --deep`` run everything;
``baseline --update`` regenerates the suppression file from current
findings.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.analysis.ambiguity import AmbiguityConfig, check_ambiguity
from repro.analysis.baseline import Baseline, render_baseline
from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticCollector,
    Location,
    error_count,
    render_json,
    render_pretty,
    sort_key,
)
from repro.analysis.linter import LintConfig, lint_paths
from repro.analysis.model import build_model
from repro.analysis.purity import PurityConfig, analyze_purity_model
from repro.analysis.race import RaceConfig, analyze_model
from repro.analysis.space_checker import build_artifacts, check_space
from repro.analysis.type_checker import check_types
from repro.errors import ReproError


def _load_baseline(args: argparse.Namespace) -> Baseline:
    if getattr(args, "baseline", None):
        return Baseline.load(args.baseline)
    return Baseline.discover()


def _report(
    diagnostics: list[Diagnostic],
    baseline: Baseline,
    args: argparse.Namespace,
    output_fn,
    header: str,
    code_prefixes: tuple[str, ...] | None = None,
) -> int:
    """Render and compute the exit code.

    ``code_prefixes`` scopes the unused-baseline-entry notes to the
    codes this command can actually emit — ``repro lint`` should not
    nag about an ``A003`` entry it could never match.
    """
    active, suppressed = baseline.apply(diagnostics)
    if args.format == "json":
        output_fn(render_json(active))
    else:
        output_fn(header)
        output_fn(render_pretty(active))
        if suppressed:
            output_fn(f"({len(suppressed)} finding(s) suppressed by baseline)")
        for entry in baseline.unused_entries(diagnostics):
            if code_prefixes is not None and entry.code != "*" and not any(
                entry.code.startswith(prefix) for prefix in code_prefixes
            ):
                continue
            output_fn(
                f"note: baseline entry '{entry.code} "
                f"{entry.location_pattern}' matched nothing — consider "
                "removing it"
            )
    return 1 if error_count(active, strict=args.strict) else 0


def _build_space(args: argparse.Namespace):
    """The space under check: exported artifacts, or the shipped MDX."""
    if args.space:
        if not args.data:
            raise SystemExit(
                "--space requires --data (a CSV KB directory or a kb.db file)"
            )
        from repro.bootstrap import space_from_dict
        from repro.errors import KBError
        from repro.kb.io import load_database

        try:
            database = load_database(args.data)
        except KBError as exc:
            raise SystemExit(f"--data: {exc}") from exc
        space = space_from_dict(
            json.loads(Path(args.space).read_text(encoding="utf-8")),
            database=database,
        )
        return space, database
    from repro.medical import build_mdx_database, build_mdx_space
    from repro.medical.build import rename_to_paper_intents

    database = build_mdx_database()
    space = build_mdx_space(database)
    # Mirror what `repro serve` ships: the paper's intent names.
    rename_to_paper_intents(space)
    return space, database


def _ambiguity_config(args: argparse.Namespace) -> AmbiguityConfig:
    threshold = getattr(args, "near_duplicate_threshold", None)
    if threshold is None:
        return AmbiguityConfig()
    return AmbiguityConfig(near_duplicate_threshold=threshold)


def _audit_diagnostics(
    space, database, config: AmbiguityConfig
) -> tuple[list[Diagnostic], int]:
    """The semantic layers: typed symbolic evaluation + ambiguity.

    Returns the findings plus the number of templates walked (for the
    report header).
    """
    try:
        artifacts = build_artifacts(space, database)
    except ReproError as exc:
        out = DiagnosticCollector()
        out.error(
            "T001",
            f"artifact generation failed: {exc}",
            Location(path="space:space", symbol=space.ontology.name),
            rule="type-mismatch",
        )
        return out.sorted(), 0
    diagnostics = sorted(
        check_types(artifacts) + check_ambiguity(artifacts, config),
        key=sort_key,
    )
    return diagnostics, sum(len(t) for t in artifacts.templates.values())


def cmd_check(args: argparse.Namespace, output_fn=print) -> int:
    """Validate the conversation space without executing a query."""
    started = time.perf_counter()
    space, database = _build_space(args)
    diagnostics = check_space(space, database)
    deep = getattr(args, "deep", False)
    if deep:
        audit, _ = _audit_diagnostics(space, database, _ambiguity_config(args))
        diagnostics = sorted(diagnostics + audit, key=sort_key)
    baseline = _load_baseline(args)
    elapsed = time.perf_counter() - started
    header = (
        f"repro check{' --deep' if deep else ''}: "
        f"{len(space.intents)} intents, "
        f"{len(space.entities)} entities validated in {elapsed:.2f}s"
    )
    prefixes = ("C", "T", "A") if deep else ("C",)
    return _report(
        diagnostics, baseline, args, output_fn, header, code_prefixes=prefixes
    )


def _lint_targets(args: argparse.Namespace) -> list[str]:
    paths = args.paths or ["src/repro"]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        raise SystemExit(f"no such path: {', '.join(missing)}")
    return paths


def cmd_lint(args: argparse.Namespace, output_fn=print) -> int:
    """Run the concurrency/purity lint over the codebase."""
    paths = _lint_targets(args)
    diagnostics = lint_paths(paths, LintConfig())
    deep = getattr(args, "deep", False)
    if deep:
        model = build_model(paths)
        diagnostics = sorted(
            diagnostics
            + analyze_model(model, RaceConfig()).run()
            + analyze_purity_model(model, PurityConfig()).run(),
            key=sort_key,
        )
    header = (
        f"repro lint{' --deep' if deep else ''}: "
        f"{', '.join(str(p) for p in paths)}"
    )
    baseline = _load_baseline(args)
    prefixes = ("L", "R", "D", "P", "X") if deep else ("L",)
    return _report(
        diagnostics, baseline, args, output_fn, header, code_prefixes=prefixes
    )


def cmd_race(args: argparse.Namespace, output_fn=print) -> int:
    """Run the whole-program concurrency & crash-consistency analyzer."""
    started = time.perf_counter()
    paths = _lint_targets(args)
    analysis = analyze_model(build_model(paths), RaceConfig())
    if getattr(args, "graph", False):
        output_fn(analysis.graph_dot())
        return 0
    diagnostics = analysis.run()
    elapsed = time.perf_counter() - started
    header = (
        f"repro race: {', '.join(str(p) for p in paths)} — "
        f"{len(analysis.functions)} functions, "
        f"{len(analysis.lock_nodes)} locks, {len(analysis.edges)} "
        f"lock-order edges analyzed in {elapsed:.2f}s"
    )
    return _report(
        diagnostics, baseline=_load_baseline(args), args=args,
        output_fn=output_fn, header=header, code_prefixes=("R", "D"),
    )


def cmd_purity(args: argparse.Namespace, output_fn=print) -> int:
    """Run the replay-determinism & exception-flow analyzer."""
    started = time.perf_counter()
    paths = _lint_targets(args)
    analysis = analyze_purity_model(build_model(paths), PurityConfig())
    diagnostics = analysis.run()
    elapsed = time.perf_counter() - started
    header = (
        f"repro purity: {', '.join(str(p) for p in paths)} — "
        f"{len(analysis.functions)} functions, "
        f"{len(analysis.entries)} stage entry points, "
        f"{len(analysis.reach)} turn-path functions analyzed in "
        f"{elapsed:.2f}s"
    )
    return _report(
        diagnostics, baseline=_load_baseline(args), args=args,
        output_fn=output_fn, header=header, code_prefixes=("P", "X"),
    )


def cmd_audit(args: argparse.Namespace, output_fn=print) -> int:
    """Run the semantic audit: SQL type/dataflow + conversation ambiguity."""
    started = time.perf_counter()
    space, database = _build_space(args)
    diagnostics, template_count = _audit_diagnostics(
        space, database, _ambiguity_config(args)
    )
    baseline = _load_baseline(args)
    elapsed = time.perf_counter() - started
    header = (
        f"repro audit: {template_count} templates, "
        f"{len(space.training_examples)} training examples audited "
        f"in {elapsed:.2f}s"
    )
    return _report(
        diagnostics, baseline, args, output_fn, header,
        code_prefixes=("T", "A"),
    )


def _all_diagnostics(args: argparse.Namespace) -> list[Diagnostic]:
    """Every finding the analysis commands can produce, for ``baseline``."""
    space, database = _build_space(args)
    diagnostics = check_space(space, database)
    audit, _ = _audit_diagnostics(space, database, _ambiguity_config(args))
    diagnostics += audit
    lint_root = Path("src/repro")
    if lint_root.exists():
        diagnostics += lint_paths([lint_root], LintConfig())
        model = build_model([lint_root])
        diagnostics += analyze_model(model, RaceConfig()).run()
        diagnostics += analyze_purity_model(model, PurityConfig()).run()
    return sorted(diagnostics, key=sort_key)


def cmd_baseline(args: argparse.Namespace, output_fn=print) -> int:
    """Show baseline status, or regenerate the file with ``--update``."""
    explicit = getattr(args, "baseline", None)
    if explicit and not Path(explicit).is_file():
        # A fresh --update target: start from an empty baseline.
        baseline = Baseline(path=Path(explicit))
    else:
        baseline = _load_baseline(args)
    diagnostics = _all_diagnostics(args)
    if not args.update:
        active, suppressed = baseline.apply(diagnostics)
        source = baseline.path or "(no baseline file)"
        output_fn(
            f"repro baseline: {source} — {len(baseline.entries)} entries, "
            f"{len(suppressed)} finding(s) suppressed, "
            f"{len(active)} active"
        )
        for entry in baseline.unused_entries(diagnostics):
            output_fn(
                f"  unused: {entry.code} {entry.location_pattern}"
            )
        output_fn("(run with --update to regenerate from current findings)")
        return 0
    target = Path(args.baseline) if getattr(args, "baseline", None) else (
        baseline.path or Path(".repro-baseline")
    )
    text = render_baseline(diagnostics, previous=baseline)
    target.write_text(text, encoding="utf-8")
    output_fn(
        f"repro baseline: wrote {target} suppressing "
        f"{len(diagnostics)} finding(s)"
    )
    return 0


def add_audit_arguments(parser: argparse.ArgumentParser) -> None:
    """Options for the semantic audit (``audit`` and ``check --deep``)."""
    parser.add_argument(
        "--near-duplicate-threshold", type=float, default=None,
        metavar="COSINE",
        help="A002 cross-intent near-duplicate cosine threshold "
        "(default: 0.9)",
    )


def add_analysis_arguments(parser: argparse.ArgumentParser) -> None:
    """Options shared by every analysis command."""
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline suppression file (default: .repro-baseline if present)",
    )
    parser.add_argument(
        "--format", choices=("pretty", "json"), default="pretty",
        help="report format",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="treat warnings as errors for the exit code",
    )
