#!/usr/bin/env python3
"""Same-host A/B of the end-to-end benchmark: a parent revision against this checkout.

Usage (from the root of a checkout):

    scripts/ab_perfbench.py PARENT_REV [--workload W] [--pairs N]
                            [--first-seed K] [--workdir DIR] [--out FILE]

The parent revision is resolved to its commit and exported with
``git archive`` into ``parent-<commit>`` under the work directory; each
side builds ``perfbench/swbench`` into its own ``CARGO_TARGET_DIR``. Pair i
runs ``perfbench/run.py`` on both sides with seed K + i for BENCHMARK.json's
``run_seconds``, alternating which side runs first. ``--workload`` may be
given more than once and defaults to every workload in BENCHMARK.json.

For each workload and each end-to-end metric of BENCHMARK.json the report
prints both medians, the change relative to the parent, the parent's
iqr/median, the pairs the change won (ties count for neither side) and a
verdict against the metric's bound:

  gain        the change won at least 9/10 of the pairs and its median is
              better than the parent's by more than the parent's
              iqr/median (the rule a claimed gain must meet)
  ok          the change's median is no worse than the parent's by more
              than the bound
  worse       it is worse by more than the bound
  unresolved  the parent's iqr/median exceeds the bound and not every
              change run beats every parent run

``failed_op_ratio`` (failed / attempted operations) is compared as well:
any increase over the parent is ``worse``. Exit status is 1 when any
verdict is ``worse`` or a run fails, else 0.
"""

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def resolve_commit(rev):
    """Returns the full hash of the commit `rev` names."""
    return subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
        stdout=subprocess.PIPE, check=True, text=True).stdout.strip()


def export_parent(commit, dest):
    """Writes the tree of `commit` into `dest` via git archive."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                   check=True)


def run_side(root, build_dir, workload, seed, seconds):
    """Runs one perfbench/run.py invocation; returns its JSON result."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(build_dir))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "%g" % seconds]
    done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().split("\n")
    if not lines or not lines[-1].startswith("{"):
        sys.exit("ab_perfbench: %s (seed %d) in %s produced no result line"
                 % (workload, seed, root))
    return json.loads(lines[-1])


def quartile_spread(values):
    """(q3 - q1) / median, 0 for a zero median or fewer than two runs."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def verdict(parent, change, bound, lower_is_better):
    """Returns (change vs parent median, parent iqr/median, wins, verdict)."""
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    if p_med:
        rel = (c_med - p_med) / abs(p_med)
    else:
        rel = 0.0 if c_med == 0 else float("inf") * (c_med - p_med)
    worse_by = rel if lower_is_better else -rel
    better = (lambda c, p: c < p) if lower_is_better else (lambda c, p: c > p)
    wins = sum(1 for c, p in zip(change, parent) if better(c, p))
    spread = quartile_spread(parent)
    if wins * 10 >= 9 * len(change) and -worse_by > spread:
        return rel, spread, wins, "gain"
    if spread > bound and not all(better(c, p) for c in change for p in parent):
        return rel, spread, wins, "unresolved"
    return rel, spread, wins, "worse" if worse_by > bound else "ok"


def report(workload, runs, end_to_end):
    """Prints one workload's table; returns True when any verdict is worse."""
    pairs = len(runs["parent"])
    print("\n== %s (%d pairs) ==" % (workload, pairs))
    print("%-18s %14s %14s %8s %10s %6s  %s" % (
        "metric", "parent_med", "change_med", "change", "p_iqr/med", "wins",
        "verdict"))
    any_worse = False
    for metric in end_to_end:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        rel, spread, wins, v = verdict(
            parent, change, metric["bound"], metric["better"] == "lower")
        any_worse |= v == "worse"
        print("%-18s %14.6g %14.6g %+7.1f%% %10.3f %3d/%-2d  %s (bound %g)" % (
            name, statistics.median(parent), statistics.median(change),
            100.0 * rel, spread, wins, pairs, v, metric["bound"]))
    ratios = {}
    for side in ("parent", "change"):
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        ratios[side] = failed / attempted if attempted else 0.0
    failed_verdict = "worse" if ratios["change"] > ratios["parent"] else "ok"
    any_worse |= failed_verdict == "worse"
    print("%-18s %14.6g %14.6g %8s %10s %6s  %s" % (
        "failed_op_ratio", ratios["parent"], ratios["change"], "", "", "",
        failed_verdict))
    incorrect = [side for side in runs for r in runs[side] if not r["correct"]]
    if incorrect:
        print("runs reporting correct=false: %s" % ", ".join(sorted(set(incorrect))))
        any_worse = True
    return any_worse


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workdir",
                        help="keeps the parent tree and both build dirs here "
                             "for reuse (default: a temporary directory, "
                             "removed after)")
    parser.add_argument("--out", help="also writes every run's result as JSON")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    commit = resolve_commit(args.parent_rev)

    workdir = pathlib.Path(args.workdir or tempfile.mkdtemp(prefix="ab_perfbench_"))
    try:
        # Keyed by commit, so a reused --workdir never benchmarks a tree
        # other than the one PARENT_REV names.
        parent_root = workdir / ("parent-" + commit)
        if not parent_root.exists():
            export_parent(commit, parent_root)
        sides = {"parent": (parent_root, workdir / ("build-parent-" + commit)),
                 "change": (ROOT, workdir / "build-change")}
        results = {}
        any_worse = False
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    root, build = sides[side]
                    runs[side].append(run_side(root, build, workload, seed, seconds))
                print("%s pair %d/%d (seed %d, %s first) done" % (
                    workload, i + 1, args.pairs, seed, order[0]),
                    file=sys.stderr, flush=True)
            results[workload] = runs
            any_worse |= report(workload, runs, bench["end_to_end"])
        if args.out:
            pathlib.Path(args.out).write_text(json.dumps(results, indent=1))
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
