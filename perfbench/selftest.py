#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-size run of every workload.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py

For every workload run.py knows (those in BENCHMARK.json plus seq-fd, which
is kept runnable but out of BENCHMARK.json) it runs ``perfbench/run.py`` once
untraced and once traced at ``--scale tiny`` and asserts that

* the result line names exactly the end-to-end (untraced) or per-layer
  (traced) metrics of BENCHMARK.json, each with its unit, and the
  human-readable lines print every end-to-end metric plus failed_op_ratio;
* failed_op_ratio is 0: no check failed and the run reports correct;
* the traced run's spans nest, each inside exactly one earlier parent, and
  its layer ledger passed;
* perfbench/layers.json maps every per-layer metric to a layer, and names
  only known end-to-end metrics and workloads.

Exits non-zero on the first failure.
"""

import json
import os
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def fail(msg):
    sys.exit("selftest: FAIL: " + msg)


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        fail("%s trace=%d exited with %d:\n%s" % (
            workload, trace, done.returncode, done.stderr[-2000:]))
    lines = done.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def check_metrics(workload, trace, result, specs):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in specs}
    if set(got) != set(want):
        fail("%s trace=%d metrics differ: missing %s, extra %s" % (
            workload, trace, sorted(set(want) - set(got)),
            sorted(set(got) - set(want))))
    for name, unit in want.items():
        if got[name]["unit"] != unit:
            fail("%s %s unit %r, expected %r" % (workload, name, got[name]["unit"], unit))
        if not isinstance(got[name]["value"], (int, float)):
            fail("%s %s value is not a number" % (workload, name))
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail("%s trace=%d: correct=%s failed=%s attempted=%s" % (
            workload, trace, result["correct"], result["failed"], result["attempted"]))


def check_printed(workload, lines, specs):
    printed = {}
    for line in lines:
        m = re.match(r"metric (\S+)\s+(\S+) (\S+)", line)
        if m:
            printed[m.group(1)] = (float(m.group(2)), m.group(3))
    for spec in specs:
        if printed.get(spec["name"], (None, None))[1] != spec["unit"]:
            fail("%s does not print %s with unit %s" % (workload, spec["name"], spec["unit"]))
    if printed.get("failed_op_ratio") != (0.0, "ratio"):
        fail("%s failed_op_ratio is %s, expected 0" % (workload, printed.get("failed_op_ratio")))


def check_spans(workload, lines, path):
    if not any(line.startswith("ledger: ok") for line in lines):
        fail("%s: layer ledger did not pass" % workload)
    spans = json.loads(path.read_text())
    if not spans or spans[0]["parent"] != -1:
        fail("%s: first span is not the root" % workload)
    for span in spans:
        if span["start_ns"] > span["end_ns"]:
            fail("%s: span %d ends before it starts" % (workload, span["id"]))
        if span["id"] == 0:
            continue
        parent = span["parent"]
        if not 0 <= parent < span["id"]:
            fail("%s: span %d has no single earlier parent" % (workload, span["id"]))
        p = spans[parent]
        if span["start_ns"] < p["start_ns"] or span["end_ns"] > p["end_ns"]:
            fail("%s: span %d (%s) lies outside its parent %s" % (
                workload, span["id"], span["name"], p["name"]))
    names = {s["name"] for s in spans}
    if len(names) < 4:
        fail("%s: traced run recorded only %s" % (workload, sorted(names)))


def check_layers(bench):
    layers = json.loads((HERE / "layers.json").read_text())
    e2e = {m["name"] for m in bench["end_to_end"]} | {"failed_op_ratio"}
    workloads = {w["name"] for w in bench["workloads"]}
    mapped = []
    for layer in layers["layers"]:
        mapped += layer["metrics"]
        for m in layer["moves"]:
            if m not in e2e:
                fail("layers.json: %s moves unknown metric %s" % (layer["layer"], m))
        for key in ("most_work", "least_work"):
            for w in layer[key].split(", "):
                if w not in workloads | {"-", "all"}:
                    fail("layers.json: %s names unknown workload %s" % (layer["layer"], w))
    per_layer = [m["name"] for m in bench["per_layer"]]
    if sorted(mapped) != sorted(per_layer):
        fail("layers.json does not map each per-layer metric exactly once")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_layers(bench)
    trace_dir = ROOT / (os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    for workload in WORKLOADS:
        lines, result = run(workload, 0)
        check_metrics(workload, 0, result, bench["end_to_end"])
        check_printed(workload, lines, bench["end_to_end"])
        lines, result = run(workload, 1)
        check_metrics(workload, 1, result, bench["per_layer"])
        check_spans(workload, lines, trace_dir / ("trace_%s.json" % workload))
        print("selftest: %s ok" % workload, flush=True)
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
