#!/usr/bin/env python3
"""Alternating A/B pairs of the repository benchmark between two checkouts.

  python3 scripts/perf_ab.py --parent ../parent --change . \\
      --pairs 10 --first-seed 1201 --out ab.jsonl
  python3 scripts/perf_ab.py --summarize ab.jsonl

Run mode builds both trees' perfbench binaries, then runs every workload
of BENCHMARK.json for its run_seconds with `perfbench/run.py --trace 0`,
in each tree once per pair. Pair i uses seed first_seed + i for both
sides, and the side that goes first alternates from pair to pair, so a
slow spell of the host does not land on one side only. Each tree builds
into its own .bench_build, run.py's default: an inherited CARGO_TARGET_DIR
is unset, since with it run.py would run one build for both trees. Every
run appends one JSON line to --out as soon as it ends, so an interrupted
comparison keeps what it measured.

Summarize mode prints, per workload and end-to-end metric of
BENCHMARK.json, each side's median and quartiles and the pairs the change
won. It exits 1 and says why if a run was not correct, a workload of
BENCHMARK.json has fewer than 10 complete pairs (both sides correct), or a
metric's change median is worse than the parent's by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
MIN_PAIRS = 10
# run.py builds into $CARGO_TARGET_DIR, else into the tree's .bench_build;
# an inherited value would make both trees share one build.
ENV = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(tree):
    """Builds the tree's benchmark binary through its own run.py, untimed."""
    code = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
            "sys.exit(0 if run.build() else 1)")
    done = subprocess.run([sys.executable, "-B", "-c", code], cwd=tree,
                          env=ENV)
    if done.returncode != 0:
        sys.exit(f"perf_ab.py: build failed in {tree}")


def run_one(tree, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, env=ENV,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    record = {"exit": done.returncode, "correct": False, "metrics": {}}
    try:
        result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
        record["correct"] = bool(result["correct"])
        record["failed"] = result["failed"]
        record["attempted"] = result["attempted"]
        record["metrics"] = {name: m["value"]
                             for name, m in result["metrics"].items()}
    except (ValueError, KeyError, TypeError):
        record["stderr"] = done.stderr[-2000:]
    return record


def run_pairs(args):
    spec = load_spec()
    seconds = spec["run_seconds"]
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for side in SIDES:
        build(trees[side])
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in (w["name"] for w in spec["workloads"]):
            for slot, side in enumerate(order):
                record = {"workload": workload, "side": side, "pair": i,
                          "seed": seed, "slot": slot, "seconds": seconds,
                          "tree": trees[side]}
                record.update(run_one(trees[side], workload, seed, seconds))
                with open(args.out, "a") as f:
                    f.write(json.dumps(record) + "\n")
                p50 = record["metrics"].get("phase_ms_p50", float("nan"))
                print(f"pair {i} seed {seed} {workload} {side}: "
                      f"phase_ms_p50 {p50:.3f} correct {record['correct']}",
                      flush=True)
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(path):
    spec = load_spec()
    runs = []
    with open(path) as f:
        for line in f:
            if line.strip():
                runs.append(json.loads(line))
    bad = False
    for r in runs:
        if not r["correct"] or r["exit"] != 0:
            bad = True
            print(f"NOT CORRECT: {r['workload']} {r['side']} pair "
                  f"{r['pair']} seed {r['seed']} (exit {r['exit']})")
    for workload in (w["name"] for w in spec["workloads"]):
        by_side = {side: {r["pair"]: r["metrics"] for r in runs
                          if r["workload"] == workload and r["side"] == side
                          and r["correct"]}
                   for side in SIDES}
        pairs = sorted(set(by_side["parent"]) & set(by_side["change"]))
        print(f"\n{workload}: {len(pairs)} complete pairs")
        if len(pairs) < MIN_PAIRS:
            bad = True
            print(f"  TOO FEW: {workload} needs at least {MIN_PAIRS} "
                  f"complete pairs")
            if not pairs:
                continue
        print(f"  {'metric':<13} {'parent median [q1, q3]':<34} "
              f"{'change median [q1, q3]':<34} {'ratio':>6} {'won':>6}")
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            vals = {side: [by_side[side][p][name] for p in pairs
                           if name in by_side[side][p]] for side in SIDES}
            if not vals["parent"] or not vals["change"]:
                continue
            cells = {}
            for side in SIDES:
                q1, q2, q3 = quartiles(vals[side])
                cells[side] = (q2, f"{q2:.4g} [{q1:.4g}, {q3:.4g}]")
            ratio = cells["change"][0] / cells["parent"][0]
            won = 0
            for p in pairs:
                a, b = by_side["change"][p][name], by_side["parent"][p][name]
                won += a < b if lower else a > b
            worse = ratio > 1 + m["bound"] if lower else ratio < 1 - m["bound"]
            bad = bad or worse
            mark = f"  WORSE than the {m['bound']:.0%} bound" if worse else ""
            print(f"  {name:<13} {cells['parent'][1]:<34} "
                  f"{cells['change'][1]:<34} {ratio:>6.3f} "
                  f"{won:>3}/{len(pairs):<2}{mark}")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(
        description="Alternating perfbench A/B pairs between two checkouts.")
    ap.add_argument("--summarize", metavar="FILE",
                    help="summarize a results file instead of running")
    ap.add_argument("--parent", help="checkout of the parent revision")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="JSON-lines file the runs append to")
    args = ap.parse_args()
    if args.summarize:
        return summarize(args.summarize)
    if not (args.parent and args.change and args.out):
        ap.error("run mode needs --parent, --change and --out")
    return run_pairs(args)


if __name__ == "__main__":
    sys.exit(main())
