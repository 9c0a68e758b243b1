#!/usr/bin/env python3
"""Self-test of the bench gates: every gate must still be able to fail.

Runs tools/check_bench_regression.py with tools/bench_gates.json on the
small reports in tools/testdata. Each case in testdata/cases.json edits
the fixtures ("set" or "delete" a "report:path/to/field", or "omit" a
report) and names the gates that must fail; an empty list means the
checker must pass. Every gate in the table needs at least one case that
fails it, so a gate that can no longer fail breaks this test.

  $ python3 tools/bench_gates_selftest.py
"""

import json
import os
import re
import subprocess
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(TOOLS, "testdata")
REPORTS = ("batch_lookup", "serving", "paged", "advisor")


def load(name):
    with open(os.path.join(DATA, name + ".json")) as f:
        return json.load(f)


def locate(docs, address):
    """(container, key) for "report:a/0/b"; list indexes are numeric."""
    report, path = address.split(":", 1)
    node, parts = docs[report], path.split("/")
    for part in parts[:-1]:
        node = node[int(part)] if isinstance(node, list) else node[part]
    last = parts[-1]
    return node, int(last) if isinstance(node, list) else last


def run_case(case, gates_path):
    docs = {name: load(name) for name in REPORTS + ("baseline",)}
    for address, value in case.get("set", {}).items():
        node, key = locate(docs, address)
        node[key] = value
    for address in case.get("delete", []):
        node, key = locate(docs, address)
        del node[key]
    with tempfile.TemporaryDirectory() as tmp:
        # The baseline gate reads its baseline relative to the working
        # directory, as CI does from the repository root.
        with open(os.path.join(tmp, "BENCH_batch_lookup.json"), "w") as f:
            json.dump(docs["baseline"], f)
        paths = []
        for name in REPORTS:
            if name in case.get("omit", []):
                continue
            paths.append(os.path.join(tmp, name + ".json"))
            with open(paths[-1], "w") as f:
                json.dump(docs[name], f)
        proc = subprocess.run(
            [sys.executable, os.path.join(TOOLS, "check_bench_regression.py"),
             gates_path] + paths, cwd=tmp, capture_output=True, text=True)
    failed = set(re.findall(r"^FAIL (\w+):", proc.stdout, re.M))
    want = set(case["fails"])
    problems = []
    if proc.returncode != (1 if want else 0):
        problems.append(f"exit {proc.returncode}")
    if failed != want:
        problems.append(f"failed gates {sorted(failed)}, want {sorted(want)}")
    if proc.stderr:
        problems.append("stderr: " + proc.stderr.strip())
    return problems, proc.stdout


def main():
    gates_path = os.path.join(TOOLS, "bench_gates.json")
    with open(gates_path) as f:
        gate_names = {gate["name"] for gate in json.load(f)}
    with open(os.path.join(DATA, "cases.json")) as f:
        cases = json.load(f)
    bad = 0
    for case in cases:
        problems, stdout = run_case(case, gates_path)
        print(f"{'FAIL' if problems else 'ok'}  {case['case']}")
        if problems:
            bad += 1
            print("      " + "; ".join(problems))
            print(stdout)
    covered = {name for case in cases for name in case["fails"]}
    for name in sorted(gate_names - covered):
        bad += 1
        print(f"FAIL  gate {name} has no case that makes it fail")
    for name in sorted(covered - gate_names):
        bad += 1
        print(f"FAIL  cases name {name}, which is not in the gate table")
    print(f"\n{len(cases)} cases, {len(gate_names)} gates, {bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
