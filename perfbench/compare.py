#!/usr/bin/env python3
"""Compares two commits on the repository benchmark, or measures spread.

Pairs mode (choosing-metrics guide, section 8): runs the benchmark on a
parent and a change checkout in alternating order, one seed per pair,
and reports for every workload and end-to-end metric each side's median
and quartiles, the change's win rate, and a verdict:

    python3 perfbench/compare.py pairs --parent DIR --change DIR \\
        [--pairs 10] [--workload NAME ...] [--json OUT]

  gain          the change wins at least 9 of 10 pairs (ties count for
                neither side) and the medians differ by more than the
                distance between the parent's quartiles;
  regression    the change's median is worse than the parent's by more
                than the metric's bound in BENCHMARK.json;
  unresolved    the parent's spread is wider than the bound and not every
                change run beats every parent run;
  no regression otherwise.

A gain is void when the change fails a larger share of its operations.
Each side's count of certified answers that hit the known certificate
fault (README, "Known fault") is printed next to the table, so that a
change that makes it more frequent shows even while it stays within the
share the run allows.

Steady mode runs one checkout N times, one seed per run (seeds 1..N),
at BENCHMARK.json's run length, and prints the spread the bounds were
set from: the distance between the quartiles
(statistics.quantiles(values, n=4)) as a share of the median.

    python3 perfbench/compare.py steady [--checkout DIR] [--runs 10] \\
        [--workload NAME ...] [--json OUT]

Each checkout builds into its own .bench_build. Both sides must carry the
same perfbench/ directory (the benchmark is not part of a change that
claims a gain); pairs mode refuses to compare otherwise.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Seeds of pairs mode start here, of steady mode at 1.
PAIRS_SEED_BASE = 1000


def load_spec(checkout):
    return json.loads((Path(checkout) / "BENCHMARK.json").read_text())


def bench_digest(checkout):
    h = hashlib.sha256()
    root = Path(checkout) / "perfbench"
    for p in sorted(root.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def run(checkout, workload, seed, seconds):
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = str(Path(checkout).resolve() / ".bench_build")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=1200)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited "
                           f"{done.returncode}")
    result = json.loads(lines[-1])
    misses = next((l.split() for l in lines
                   if l.startswith("known_certificate_misses ")), [])
    result["known_misses"] = (int(misses[1]) if len(misses) > 1
                              and misses[1].isdigit() else 0)
    print(f"  {Path(checkout).name} {workload} seed {seed}: correct="
          f"{result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} known certificate misses="
          f"{result['known_misses']}", file=sys.stderr, flush=True)
    return result


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def fail_share(results):
    return sorted({r["failed"] / r["attempted"] for r in results})


def steady(args):
    spec = load_spec(args.checkout)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    report = {}
    for w in workloads:
        results = [run(args.checkout, w, 1 + i, seconds)
                   for i in range(args.runs)]
        rows = []
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            s = spread(values)
            bound = m["bound"]
            verdict = ("steady" if s < bound / 3 else
                       "within bound" if s <= bound else "too wide")
            rows.append({"metric": m["name"], "unit": m["unit"], "median": med,
                         "q1": q1, "q3": q3, "spread": s, "bound": bound,
                         "verdict": verdict, "values": values})
        report[w] = {"rows": rows,
                     "correct": all(r["correct"] for r in results),
                     "failed_share": fail_share(results)}
        print(f"\n== {w}: {args.runs} runs, all correct: "
              f"{report[w]['correct']}, failed share(s): "
              f"{report[w]['failed_share']}")
        print(f"{'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>8s} {'bound':>6s}  verdict")
        for r in rows:
            print(f"{r['metric']:34s} {r['median']:14.6g} {r['q1']:14.6g} "
                  f"{r['q3']:14.6g} {r['spread']:8.4f} {r['bound']:6.3f}  "
                  f"{r['verdict']}")
    return report


def better(direction, a, b):
    """True when value a is better than value b."""
    return a > b if direction == "higher" else a < b


def pairs(args):
    spec = load_spec(args.change)
    if bench_digest(args.parent) != bench_digest(args.change):
        sys.exit("perfbench/ differs between the checkouts: measure both "
                 "commits with identical benchmark code")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    report = {}
    for w in workloads:
        parent, change = [], []
        for i in range(args.pairs):
            seed = PAIRS_SEED_BASE + i
            order = [("parent", args.parent), ("change", args.change)]
            if i % 2 == 1:
                order.reverse()
            for side, checkout in order:
                (parent if side == "parent" else change).append(
                    run(checkout, w, seed, seconds))
        pf, cf = fail_share(parent), fail_share(change)
        more_failures = max(cf) > max(pf)
        rows = []
        for m in spec["end_to_end"]:
            name, bound, direction = m["name"], m["bound"], m["better"]
            pv = [r["metrics"][name]["value"] for r in parent]
            cv = [r["metrics"][name]["value"] for r in change]
            pq1, pmed, pq3 = quartiles(pv)
            cq1, cmed, cq3 = quartiles(cv)
            wins = sum(better(direction, c, p) for p, c in zip(pv, cv))
            losses = sum(better(direction, p, c) for p, c in zip(pv, cv))
            worse_by = ((pmed - cmed) if direction == "higher"
                        else (cmed - pmed)) / pmed if pmed else 0.0
            all_better = all(better(direction, c, p) for c in cv for p in pv)
            if (wins >= 0.9 * len(pv) and abs(cmed - pmed) > (pq3 - pq1)
                    and better(direction, cmed, pmed) and not more_failures):
                verdict = "gain"
            elif worse_by > bound:
                verdict = "regression"
            elif spread(pv) > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "no regression"
            rows.append({"metric": name, "parent_median": pmed,
                         "parent_q1": pq1, "parent_q3": pq3,
                         "change_median": cmed, "change_q1": cq1,
                         "change_q3": cq3, "wins": wins, "losses": losses,
                         "pairs": len(pv), "worse_by": worse_by,
                         "bound": bound, "verdict": verdict})
        pm = [r["known_misses"] for r in parent]
        cm = [r["known_misses"] for r in change]
        report[w] = {"rows": rows, "parent_failed_share": pf,
                     "change_failed_share": cf,
                     "parent_known_misses": pm, "change_known_misses": cm,
                     "correct": all(r["correct"] for r in parent + change)}
        print(f"\n== {w}: {args.pairs} pairs, all correct: "
              f"{report[w]['correct']}, failed share parent {pf} change {cf}")
        print(f"known certificate misses per run: parent {pm} (total "
              f"{sum(pm)}), change {cm} (total {sum(cm)})")
        print(f"{'metric':34s} {'parent med [q1, q3]':>34s} "
              f"{'change med [q1, q3]':>34s} {'wins':>7s} {'worse':>7s} "
              f"{'bound':>6s}  verdict")
        for r in rows:
            p = (f"{r['parent_median']:.5g} [{r['parent_q1']:.4g}, "
                 f"{r['parent_q3']:.4g}]")
            c = (f"{r['change_median']:.5g} [{r['change_q1']:.4g}, "
                 f"{r['change_q3']:.4g}]")
            print(f"{r['metric']:34s} {p:>34s} {c:>34s} "
                  f"{r['wins']:>3d}/{r['pairs']:<3d} {r['worse_by']:7.3f} "
                  f"{r['bound']:6.3f}  {r['verdict']}")
    return report


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("pairs", help="parent vs change, alternating pairs")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workload", action="append")
    p.add_argument("--json")
    s = sub.add_parser("steady", help="one checkout, N runs, spreads")
    s.add_argument("--checkout", default=str(HERE.parent))
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--workload", action="append")
    s.add_argument("--json")
    args = parser.parse_args()
    if args.mode == "pairs" and args.pairs < 10:
        sys.exit("pairs mode needs at least 10 pairs")
    report = pairs(args) if args.mode == "pairs" else steady(args)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
