#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the benchmark package
(perfbench/CMakeLists.txt: the engine library from src/ plus the
perfbench binary) into $CARGO_TARGET_DIR, or .bench_build when that is
unset, then runs the workload in a process of its own and prints, as
the last line of standard output, one JSON object:

    {"correct": true, "attempted": N, "failed": N,
     "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, from
an untraced run. With --trace 1 they are its per_layer metrics: the
workload runs twice, untraced and then traced (spans recorded by the
benchmark's wrappers, written to <build>/traces/), and the per-layer
metrics come from the traced run's spans plus the tracing overhead
(traced minus untraced). The lines before the result are the tally of
certified answers that hit the known certificate fault (README, "Known
fault") and the host fingerprint. Exit status 0 means a result was
printed; anything else means the benchmark could not run (no result
line).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
# One run may take at most 180 s after the build; leave room to clean up.
RUN_BUDGET_S = 170.0
BUILD_TIMEOUT_S = 850.0
# End-to-end metrics whose traced-minus-untraced difference is reported
# as the tracing overhead.
OVERHEAD_METRICS = (
    "ingest_rows_per_s",
    "certified_query_p50_us",
    "where_query_p50_us",
    "freshness_p50_ms",
)


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR")
    return Path(target).resolve() if target else ROOT / ".bench_build"


def build(bdir):
    if not (ROOT / "src" / "ingest" / "streaming_cube.h").is_file():
        fail(f"engine sources not found under {ROOT / 'src'}", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    bdir.mkdir(parents=True, exist_ok=True)
    log_path = bdir / "perfbench-build.log"
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(cmd)}", 3)
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})", 3)
    exe = bdir / "perfbench"
    if not exe.is_file():
        fail(f"build produced no {exe}", 3)
    return exe


def run_once(exe, args, trace, workdir, spans, deadline):
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
           "--workdir", str(workdir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("no time left for the run", 4)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout,
                              text=True)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish in time", 4)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if done.returncode != 0 or not lines:
        fail(f"perfbench exited with {done.returncode}", 4)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"unreadable result line: {lines[-1][:200]}", 4)
    host = next((l for l in lines if l.startswith("host ")), "host {}")
    misses = next((l for l in lines
                   if l.startswith("known_certificate_misses ")),
                  "known_certificate_misses unknown")
    return result, host, misses


def check_names(wanted, got, kind, problems):
    for m in wanted:
        name = m["name"]
        if name not in got:
            problems.append(f"{kind} metric {name} missing")
        elif got[name]["unit"] != m["unit"]:
            problems.append(f"{kind} metric {name} has unit "
                            f"{got[name]['unit']}, expected {m['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found", 2)
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}", 2)
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    bdir = build_dir()
    exe = build(bdir)
    deadline = time.monotonic() + RUN_BUDGET_S
    runs = bdir / "runs"
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"

    problems = []
    base, host, misses = run_once(exe, args, False, runs / tag, None,
                                  deadline)
    check_names(spec["end_to_end"], base["metrics"], "end-to-end", problems)
    for name, m in base["metrics"].items():
        if name in [e["name"] for e in spec["end_to_end"]] and not m["value"] > 0:
            problems.append(f"end-to-end metric {name} reads {m['value']}")
    correct = bool(base["correct"])
    attempted = int(base["attempted"])
    failed = int(base["failed"])

    if args.trace:
        traces = bdir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        traced, host, traced_misses = run_once(
            exe, args, True, runs / (tag + "-traced"),
            traces / f"{args.workload}-{args.seed}.tsv", deadline)
        layers = dict(traced.get("layers", {}))
        for name in OVERHEAD_METRICS:
            b = base["metrics"].get(name, {}).get("value", 0.0)
            t = traced["metrics"].get(name, {}).get("value", 0.0)
            layers[f"trace.overhead_pct.{name}"] = {
                "value": (t - b) / b * 100.0 if b else 0.0, "unit": "%"}
        check_names(spec["per_layer"], layers, "per-layer", problems)
        wanted = {m["name"] for m in spec["per_layer"]}
        metrics = {k: v for k, v in layers.items() if k in wanted}
        correct = correct and bool(traced["correct"])
        attempted += int(traced["attempted"])
        failed += int(traced["failed"])
    else:
        wanted = {m["name"] for m in spec["end_to_end"]}
        metrics = {k: v for k, v in base["metrics"].items() if k in wanted}

    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(misses)
    if args.trace:
        print(traced_misses.replace("known_certificate_misses",
                                    "traced known_certificate_misses", 1))
    print(host)
    print(json.dumps({"correct": correct and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
