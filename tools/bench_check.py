#!/usr/bin/env python3
"""Allocation-ceiling gate for the repo benchmark.

Usage:
    python3 tools/bench_check.py --alloc-ceilings CEILINGS RESULTS

RESULTS is the ``benchmark/out/results.json`` of a ``benchmark/run.sh
--quick`` run (``meta.quick``; any other run fails). CEILINGS
(``tools/alloc_ceilings.json``) maps each gated metric —
``alloc.count_per_row`` (a ``per_layer`` metric: allocator calls) and
``alloc_bytes_per_row`` (an ``end_to_end`` one: bytes requested) — to the
most it may read per workload, and every workload in RESULTS must have a
ceiling. The workloads are single-threaded, so both metrics are exact —
the same on every machine — and a buffer allocated per envelope, or a
singleton that owns a ``Vec`` again, moves them by far more than the few
percent of headroom the ceilings carry. A ceiling more than ``SLACK``
above what it caps fails too: a change that lowered the counts must lower
the ceiling with it, or the ceiling stops catching the next regression.
"""

import json
import sys


def fail(msg: str) -> None:
    print(f"bench_check: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        fail(f"{path}: file not found")
    except json.JSONDecodeError as e:
        fail(f"{path}: malformed JSON ({e})")
    if not isinstance(doc, dict):
        fail(f"{path}: top level must be an object")
    return doc


# The gated metrics and the section of a workload's results each lives in.
ALLOC_METRICS = {"alloc.count_per_row": "per_layer", "alloc_bytes_per_row": "end_to_end"}

# The most a ceiling may sit above the value it caps.
SLACK = 0.15


def check_alloc_ceilings(ceilings_path: str, results_path: str) -> None:
    doc = load(ceilings_path)
    results = load(results_path)
    meta = results.get("meta")
    if not isinstance(meta, dict) or meta.get("quick") is not True:
        fail(
            f"{results_path}: not a --quick run (meta.quick is "
            f"{meta.get('quick') if isinstance(meta, dict) else None!r}); "
            "the ceilings are measured on `benchmark/run.sh --quick`"
        )
    measured = results.get("workloads")
    if not isinstance(measured, dict) or not measured:
        fail(f"{results_path}: no 'workloads' object")
    for metric, section in ALLOC_METRICS.items():
        ceilings = doc.get(metric)
        if not isinstance(ceilings, dict) or not ceilings:
            fail(f"{ceilings_path}: no {metric!r} ceilings")
        for workload in sorted(set(measured) - set(ceilings)):
            fail(f"{ceilings_path}: no {metric} ceiling for workload {workload!r}")
        for workload, ceiling in sorted(ceilings.items()):
            try:
                value = measured[workload][section][metric]["value"]
            except (KeyError, TypeError):
                fail(f"{results_path}: no {metric} for workload {workload!r}")
            if not isinstance(value, (int, float)) or value <= 0:
                fail(f"{results_path}: {metric} of {workload} is {value!r}")
            if value > ceiling:
                fail(
                    f"{results_path}: {workload} reads {metric} {value:.3f}, ceiling "
                    f"{ceiling} ({ceilings_path}) — something on the per-tuple path "
                    "allocates again"
                )
            if ceiling > value * (1 + SLACK):
                fail(
                    f"{results_path}: {workload} reads {metric} {value:.3f}, ceiling "
                    f"{ceiling} ({ceilings_path}) is more than {SLACK:.0%} above it — "
                    "lower the ceiling to what the code now does"
                )
            print(f"bench_check: OK {workload} {metric} {value:.3f} <= {ceiling}")


def main(argv: "list[str]") -> None:
    if len(argv) != 3 or argv[0] != "--alloc-ceilings":
        fail("usage: bench_check.py --alloc-ceilings CEILINGS RESULTS")
    check_alloc_ceilings(argv[1], argv[2])


if __name__ == "__main__":
    main(sys.argv[1:])
