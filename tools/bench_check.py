#!/usr/bin/env python3
"""Bench-regression gate for the committed BENCH_*.json baselines.

Usage:
    python3 tools/bench_check.py COMMITTED:FRESH [COMMITTED:FRESH ...]

Each argument pairs a committed baseline (e.g. BENCH_2.json) with a
freshly generated output of the same benchmark binary. For every file
(committed *and* fresh) the gate enforces, beyond well-formed JSON:

  1. every series carries a ``result_hash`` field (the benches' sorted
     multiset hash of the canonical query results);
  2. **cross-series result equality** — within one workload, every series
     (scalar / batched / chunked / fused / sharded) must report the same
     ``result_hash``: the perf variants claim observational equivalence,
     and a silent result drift is a correctness regression even when the
     JSON parses fine;
  3. the fresh run exposes exactly the committed series labels (a renamed
     or dropped series would otherwise rot the baseline unnoticed);
  4. when the fresh run used the committed row count (CI runs the full
     rows with STEMS_BENCH_RUNS=1), its hashes must equal the committed
     ones — the cross-commit result-regression check.

Timing fields are deliberately *not* gated: wall-clock numbers are noisy
on shared runners; result hashes are not.

    python3 tools/bench_check.py --alloc-ceilings CEILINGS RESULTS

The second form gates the repo benchmark's allocation counts instead:
RESULTS is the ``benchmark/out/results.json`` of a ``benchmark/run.sh
--quick`` run, CEILINGS (``tools/alloc_ceilings.json``) maps each gated
metric — ``alloc.count_per_row`` (a ``per_layer`` metric: allocator
calls) and ``alloc_bytes_per_row`` (an ``end_to_end`` one: bytes
requested) — to the most it may read per workload. The listed workloads
are single-threaded, so both are exact — the same on every machine — and
a buffer allocated per envelope, or a singleton that owns a ``Vec``
again, moves them by far more than the few percent of headroom the
ceilings carry.
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


def workloads(path: str, doc: dict) -> "dict[str, list]":
    """Normalize both schemas to {workload_name: [series entries]}."""
    if "workloads" in doc:
        out = {}
        for w in doc["workloads"]:
            name = w.get("name")
            if not name or "series" not in w:
                fail(f"{path}: workload missing name/series")
            out[name] = w["series"]
        return out
    if "series" in doc:
        return {"": doc["series"]}
    fail(f"{path}: neither 'series' nor 'workloads' present")


def series_hashes(path: str, groups: "dict[str, list]") -> "dict[tuple, str]":
    """Per-(workload, label) result hash, with cross-series equality
    enforced within each workload."""
    hashes = {}
    for wname, series in groups.items():
        if not series:
            fail(f"{path}: workload {wname!r} has no series")
        seen = {}
        for entry in series:
            label = entry.get("label")
            if not label:
                fail(f"{path}: series entry missing 'label' in {wname!r}")
            h = entry.get("result_hash")
            if not h:
                fail(f"{path}: series {wname!r}/{label!r} missing 'result_hash'")
            seen[label] = h
            hashes[(wname, label)] = h
        distinct = set(seen.values())
        if len(distinct) != 1:
            # Name the series that drifted: the majority hash is the
            # reference, minority series are the suspects. With no clear
            # majority (e.g. two series disagreeing 1-1) blame would be
            # arbitrary, so just list everything.
            counts = {}
            for h in seen.values():
                counts[h] = counts.get(h, 0) + 1
            majority = max(counts, key=lambda h: counts[h])
            everything = ", ".join(f"{l}={h}" for l, h in sorted(seen.items()))
            if list(counts.values()).count(counts[majority]) > 1:
                fail(
                    f"{path}: cross-series result inequality in workload {wname!r} "
                    f"(no majority hash to blame): {everything}"
                )
            drifted = sorted(l for l, h in seen.items() if h != majority)
            fail(
                f"{path}: cross-series result inequality in workload {wname!r}: "
                f"series {', '.join(drifted)} drifted from the majority hash "
                f"{majority} ({everything})"
            )
    return hashes


def context_notes(committed_path: str, fresh_path: str, committed: dict, fresh: dict) -> None:
    """Hardware/runtime context fields (``cores``, ``workers``): reported
    when they differ, never gated — a baseline generated on a different
    machine or worker budget is still a valid *result* baseline, the
    context only matters for reading the (ungated) timing numbers."""
    for field in ("cores", "workers"):
        c, f = committed.get(field), fresh.get(field)
        if c is not None and f is not None and c != f:
            print(
                f"bench_check: note: {fresh_path} ran with {field}={f}, "
                f"{committed_path} was recorded with {field}={c} "
                "(informational — timing fields are not gated)"
            )


def check_pair(committed_path: str, fresh_path: str) -> None:
    committed = load(committed_path)
    fresh = load(fresh_path)
    context_notes(committed_path, fresh_path, committed, fresh)
    committed_hashes = series_hashes(committed_path, workloads(committed_path, committed))
    fresh_hashes = series_hashes(fresh_path, workloads(fresh_path, fresh))

    missing = sorted(set(committed_hashes) - set(fresh_hashes))
    if missing:
        fail(
            f"{fresh_path}: missing series present in {committed_path}: "
            + ", ".join(f"{w or '-'}/{l}" for w, l in missing)
        )

    committed_rows = committed.get("rows")
    fresh_rows = fresh.get("rows")
    if committed_rows is None:
        fail(f"{committed_path}: missing 'rows' field")
    if fresh_rows is None:
        # A fresh output without 'rows' would silently disable the
        # cross-commit comparison below forever — refuse instead.
        fail(f"{fresh_path}: missing 'rows' field")
    if fresh_rows == committed_rows:
        for key, want in committed_hashes.items():
            got = fresh_hashes[key]
            if got != want:
                wname, label = key
                fail(
                    f"{fresh_path}: result hash of {wname or '-'}/{label} is {got}, "
                    f"committed {committed_path} has {want} — the benchmark's query "
                    "results changed"
                )
        print(
            f"bench_check: OK {fresh_path} vs {committed_path} "
            f"({len(committed_hashes)} series, hashes match committed baseline)"
        )
    else:
        print(
            f"bench_check: OK {fresh_path} vs {committed_path} "
            f"({len(fresh_hashes)} series internally consistent; rows "
            f"{fresh_rows} != committed {committed_rows}, cross-commit hash "
            "comparison skipped)"
        )


# The gated metrics and the section of a workload's results each lives in.
ALLOC_METRICS = {"alloc.count_per_row": "per_layer", "alloc_bytes_per_row": "end_to_end"}


def check_alloc_ceilings(ceilings_path: str, results_path: str) -> None:
    doc = load(ceilings_path)
    measured = load(results_path).get("workloads")
    if not isinstance(measured, dict):
        fail(f"{results_path}: no 'workloads' object")
    for metric, section in ALLOC_METRICS.items():
        ceilings = doc.get(metric)
        if not isinstance(ceilings, dict) or not ceilings:
            fail(f"{ceilings_path}: no {metric!r} ceilings")
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
            print(f"bench_check: OK {workload} {metric} {value:.3f} <= {ceiling}")


def main(argv: "list[str]") -> None:
    if not argv:
        fail("usage: bench_check.py COMMITTED:FRESH [COMMITTED:FRESH ...]")
    if argv[0] == "--alloc-ceilings":
        if len(argv) != 3:
            fail("usage: bench_check.py --alloc-ceilings CEILINGS RESULTS")
        check_alloc_ceilings(argv[1], argv[2])
        return
    for arg in argv:
        if ":" not in arg:
            fail(f"argument {arg!r} is not of the form COMMITTED:FRESH")
        committed, fresh = arg.split(":", 1)
        check_pair(committed, fresh)


if __name__ == "__main__":
    main(sys.argv[1:])
