#!/usr/bin/env python
"""Executor benchmark: indexed/prepared execution vs the full-scan path.

Two modes, one differential core:

* **Timing mode** (default) — builds the full-scale MDX database, then
  measures median per-execution latency of representative template
  queries on the reference full-scan path (``use_indexes=False``)
  against the secondary-index path, and enforces the acceptance gate of
  a >= 5x median speedup on indexed key-concept lookups.
* **Smoke mode** (``--smoke``, run in CI) — skips timing and instead
  runs every shipped MDX structured-query template on both paths and
  asserts the result sets are byte-identical (columns and rows).  This
  is the differential correctness harness: the index path may only ever
  change *how* rows are found, never *which* rows come back.

Either mode can emit a JSON report via ``--json PATH`` for the CI
artifact upload.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_executor.py --smoke --json out.json
    PYTHONPATH=src python benchmarks/bench_executor.py --repeats 300
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Any

from repro.errors import NLQError, TemplateError
from repro.medical import build_mdx_database, build_mdx_ontology, build_mdx_space
from repro.nlq.templates import StructuredQueryTemplate, templates_for_intent

#: Acceptance gate: indexed key-concept lookups must beat the scan path
#: by at least this factor (median over repeats).
SPEEDUP_FLOOR = 5.0


def build_corpus() -> tuple[Any, list[StructuredQueryTemplate], dict[str, str]]:
    """The full-scale MDX database, its templates, and concept bindings."""
    database = build_mdx_database()
    space = build_mdx_space(database, build_mdx_ontology(database))

    templates: list[StructuredQueryTemplate] = []
    for intent in space.intents:
        if intent.custom_templates:
            templates.extend(intent.custom_templates)
            continue
        if not intent.patterns:
            continue
        try:
            templates.extend(
                templates_for_intent(intent, space.ontology, database)
            )
        except (NLQError, TemplateError):
            continue

    # One representative instance value per concept, taken from the
    # bootstrapped entity populations (kind "instance" entities hold KB
    # instances of categorical key/dependent concepts).
    bindings: dict[str, str] = {}
    for entity in space.entities:
        if entity.kind == "instance" and entity.concept and entity.values:
            bindings.setdefault(entity.concept.lower(), entity.values[0].value)
    return database, templates, bindings


def template_bindings(
    template: StructuredQueryTemplate, bindings: dict[str, str]
) -> dict[str, str] | None:
    """Concept→value bindings for one template, or None if unbindable."""
    out: dict[str, str] = {}
    for concept in template.required_concepts():
        value = bindings.get(concept.lower())
        if value is None:
            return None
        out[concept] = value
    return out


def differential_check(
    database: Any,
    templates: list[StructuredQueryTemplate],
    bindings: dict[str, str],
) -> dict[str, Any]:
    """Run every template on both paths; collect mismatches."""
    checked = 0
    skipped: list[str] = []
    mismatches: list[dict[str, str]] = []
    for template in templates:
        concept_values = template_bindings(template, bindings)
        if concept_values is None:
            skipped.append(template.sql)
            continue
        params = template.instantiate(concept_values)
        scan = database.prepare(template.sql, use_indexes=False).execute(params)
        indexed = database.prepare(template.sql, use_indexes=True).execute(params)
        checked += 1
        if scan.columns != indexed.columns or scan.rows != indexed.rows:
            mismatches.append(
                {
                    "sql": template.sql,
                    "scan_rows": repr(scan.rows[:5]),
                    "indexed_rows": repr(indexed.rows[:5]),
                }
            )
    return {
        "templates": len(templates),
        "checked": checked,
        "skipped": skipped,
        "mismatches": mismatches,
    }


def median_seconds(plan: Any, params: dict[str, Any], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        plan.execute(params)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def timing_run(
    database: Any,
    templates: list[StructuredQueryTemplate],
    bindings: dict[str, str],
    repeats: int,
) -> dict[str, Any]:
    """Median scan-vs-indexed latency for representative queries."""
    cases: list[dict[str, Any]] = []

    # Case 1: the indexed key-concept point lookup the gate applies to.
    lookup_sql = "SELECT name, description FROM drug WHERE name = :n"
    drug = bindings.get("drug")
    if drug is None:
        raise SystemExit("no drug instance available for the lookup case")
    cases.append({"name": "point-lookup(drug.name)", "sql": lookup_sql,
                  "params": {"n": drug}, "gated": True})

    # Case 2/3: the first join templates we can bind — the paper's
    # dominant relationship-lookup shape (filter on the joined table).
    joined = 0
    for template in templates:
        if " JOIN " not in template.sql.upper() or joined >= 2:
            continue
        concept_values = template_bindings(template, bindings)
        if concept_values is None:
            continue
        cases.append({
            "name": f"template[{template.intent_name}]",
            "sql": template.sql,
            "params": template.instantiate(concept_values),
            "gated": False,
        })
        joined += 1

    results = []
    for case in cases:
        scan_plan = database.prepare(case["sql"], use_indexes=False)
        indexed_plan = database.prepare(case["sql"], use_indexes=True)
        # Warm up once: builds lazy indexes outside the timed region the
        # same way a long-lived serving process amortizes them.
        scan_plan.execute(case["params"])
        indexed_plan.execute(case["params"])
        scan_s = median_seconds(scan_plan, case["params"], repeats)
        indexed_s = median_seconds(indexed_plan, case["params"], repeats)
        results.append({
            "case": case["name"],
            "sql": case["sql"],
            "scan_median_us": round(scan_s * 1e6, 2),
            "indexed_median_us": round(indexed_s * 1e6, 2),
            "speedup": round(scan_s / indexed_s, 2) if indexed_s else float("inf"),
            "gated": case["gated"],
        })
    return {"repeats": repeats, "cases": results}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="correctness-only differential run over every MDX template",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the report as JSON to PATH"
    )
    parser.add_argument(
        "--repeats", type=int, default=200,
        help="timed executions per case (timing mode)",
    )
    args = parser.parse_args(argv)

    database, templates, bindings = build_corpus()
    report: dict[str, Any] = {
        "benchmark": "executor",
        "mode": "smoke" if args.smoke else "timing",
        "drug_rows": len(database.table("drug")),
    }

    # Both modes run the differential check: timing numbers for a path
    # that returns different rows would be meaningless.
    diff = differential_check(database, templates, bindings)
    report["differential"] = diff
    ok = not diff["mismatches"] and diff["checked"] > 0

    print(f"templates: {diff['templates']}  checked: {diff['checked']}  "
          f"skipped: {len(diff['skipped'])}  mismatches: {len(diff['mismatches'])}")
    for mismatch in diff["mismatches"]:
        print(f"MISMATCH: {mismatch['sql']}")

    if not args.smoke:
        timing = timing_run(database, templates, bindings, args.repeats)
        report["timing"] = timing
        for case in timing["cases"]:
            gate = " [gate >=5x]" if case["gated"] else ""
            print(f"{case['case']}: scan {case['scan_median_us']}us  "
                  f"indexed {case['indexed_median_us']}us  "
                  f"speedup {case['speedup']}x{gate}")
        gated = [c for c in timing["cases"] if c["gated"]]
        if any(c["speedup"] < SPEEDUP_FLOOR for c in gated):
            print(f"FAIL: gated speedup below {SPEEDUP_FLOOR}x")
            ok = False

    report["ok"] = ok
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.json}")
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
