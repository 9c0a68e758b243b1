#!/usr/bin/env python3
"""Apply the bench gate table to bench JSON reports.

Usage:
  check_bench_regression.py GATES.json REPORT.json [REPORT.json ...]

Every bench writes one report shape (bench/harness.h, JsonReport): a
header of run fields ("bench", the run parameters, "hardware_threads",
"node_search_path") and named blocks of flat rows. Each report is matched
to gates by its "bench" header field. Every gate in GATES.json (see
tools/bench_gates.json) is one entry:

  name      printed on every line the gate emits
  file      the "bench" name of the report it reads
  block     a block name, or a list of them
  when      optional {field: pattern} over HEADER fields; a gate whose
            header does not match is not applicable and is skipped
  where     optional {field: pattern} over ROW fields; selects rows
  metric    the row field checked
  op        >=, <=, >, ==, or within (|metric / bound - 1| <= tolerance)
  bound     a number, or the name of another field of the same row
  baseline  optional path (relative to the working directory) of a
            checked-in report: the gate then compares metric row by row
            against the baseline rows sharing the "key" fields (and
            block), and applies op/bound to the geometric mean of the
            current/baseline ratios. A single noisy row cannot fail it; a
            broad slowdown does. Every per-row ratio is printed.

A pattern is a glob over string fields ("part:*"), negated by a leading
"!" ("!scalar"), or a literal compared for equality (true, 3). Each bound
is a within-run ratio or invariant, so it transfers across machines.

The rules are the same for every gate: a gate that matches no row fails
(so a gate cannot pass by its rows going missing), a matched row without
the metric or bound field fails with a named line, every checked value
is printed, and the exit status is 1 when any check failed.
"""

import fnmatch
import json
import math
import sys

LABEL_FIELDS = ("scenario", "mix", "spec", "batch", "threads", "buffer_pages")
OPS = {">=": lambda v, b: v >= b, "<=": lambda v, b: v <= b,
       ">": lambda v, b: v > b, "==": lambda v, b: v == b}


def matches(value, pattern):
    if not isinstance(pattern, str):
        return value == pattern
    negate = pattern.startswith("!")
    hit = isinstance(value, str) and fnmatch.fnmatchcase(
        value, pattern[1:] if negate else pattern)
    return hit != negate


def number(row, field):
    value = row.get(field)
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    return value if ok else None


def fmt(value):
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def select(doc, gate):
    """The gate's rows of `doc`, each as (block, row)."""
    blocks = gate["block"]
    blocks = [blocks] if isinstance(blocks, str) else blocks
    where = gate.get("where", {})
    return [(block, row) for block in blocks for row in doc.get(block, [])
            if all(matches(row.get(k), p) for k, p in where.items())]


def label(block, row):
    return " ".join([block] + [f"{k}={row[k]}" for k in LABEL_FIELDS
                               if k in row])


def check_rows(gate, rows, fail):
    name, metric, op, bound = (gate["name"], gate["metric"], gate["op"],
                               gate["bound"])
    for block, row in rows:
        where = f"{name}: {label(block, row)}"
        value = number(row, metric)
        limit = number(row, bound) if isinstance(bound, str) else bound
        if value is None or limit is None:
            missing = metric if value is None else bound
            fail(f"{where} has no numeric {missing}")
            continue
        shown = fmt(limit)
        if isinstance(bound, str):
            shown = f"{bound}={shown}"
        if op == "within":
            deviation = abs(value / limit - 1) if limit else math.inf
            passed = deviation <= gate["tolerance"]
            text = (f"{metric}={fmt(value)} within {gate['tolerance']:.0%} "
                    f"of {shown} (deviation {deviation:.3f})")
        else:
            passed = OPS[op](value, limit)
            text = f"{metric}={fmt(value)} {op} {shown}"
        if passed:
            print(f"ok   {where} {text}")
        else:
            fail(f"{where} {text}")


def check_baseline(gate, rows, fail):
    name, metric = gate["name"], gate["metric"]
    with open(gate["baseline"]) as f:
        base_doc = json.load(f)
    keyed = {}
    for block, row in select(base_doc, gate):
        keyed[(block,) + tuple(row.get(k) for k in gate["key"])] = row
    logs = []
    for block, row in rows:
        key = (block,) + tuple(row.get(k) for k in gate["key"])
        if key not in keyed:
            continue
        base, cur = number(keyed[key], metric), number(row, metric)
        if base is None or cur is None or base <= 0 or cur <= 0:
            fail(f"{name}: {label(block, row)} has no positive {metric} "
                 f"(baseline {base}, current {cur})")
            continue
        logs.append(math.log(cur / base))
        print(f"     {name}: {label(block, row):<48} base={base:.3f} "
              f"cur={cur:.3f} ratio={cur / base:.3f}")
    if logs:
        geomean = math.exp(sum(logs) / len(logs))
        text = (f"{name}: rows={len(logs)} geomean {metric} ratio="
                f"{geomean:.3f} {gate['op']} {gate['bound']} "
                f"vs {gate['baseline']}")
        if OPS[gate["op"]](geomean, gate["bound"]):
            print(f"ok   {text}")
        else:
            fail(text)
    return len(logs)


def main(argv):
    if len(argv) < 3:
        print(__doc__)
        return 2
    with open(argv[1]) as f:
        gates = json.load(f)
    reports = {}
    for path in argv[2:]:
        with open(path) as f:
            doc = json.load(f)
        reports[doc.get("bench")] = doc
    failures = []

    def fail(message):
        print(f"FAIL {message}")
        failures.append(message)

    for gate in gates:
        name = gate["name"]
        doc = reports.get(gate["file"])
        if doc is None:
            fail(f"{name}: no {gate['file']} report given")
            continue
        when = gate.get("when", {})
        if not all(matches(doc.get(k), p) for k, p in when.items()):
            shown = ", ".join(f"{k}={doc.get(k)}" for k in when)
            print(f"skip {name}: not applicable ({shown})")
            continue
        rows = select(doc, gate)
        if "baseline" in gate:
            checked = check_baseline(gate, rows, fail)
        else:
            check_rows(gate, rows, fail)
            checked = len(rows)
        if checked == 0:
            fail(f"{name}: matched no row in {gate['file']} "
                 f"block {gate['block']}")
    if failures:
        print(f"\nFAIL: {len(failures)} check(s) failed")
        return 1
    print(f"\nOK: {len(gates)} gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
