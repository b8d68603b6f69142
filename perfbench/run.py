#!/usr/bin/env python3
"""Sweep benchmark: builds `mstbench` from this checkout's sources and runs it.

Run from the root of the checkout:

    python3 perfbench/run.py --workload exact-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --compare OLD_REPORT.json NEW_REPORT.json

`--trace 0` is the untraced end-to-end run (four workers), `--trace 1` the
single-threaded traced per-layer run, which also writes a Chrome trace.
`--workload all` runs every workload of BENCHMARK.json both ways.  The last
line of standard output is the result as one JSON object.  The build, the
per-run reports and the traces go under $CARGO_TARGET_DIR (default
`.bench_build`).  `--compare` sets two reports side by side; when their
hosts differ it only warns, it does not judge.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent


def out_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark; compiler output goes to stderr."""
    if not (ROOT / "src" / "mst").is_dir():
        fail("no library sources at src/mst; run from the root of a full checkout")
    build_dir = out_dir() / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", str(build_dir), "-j4"],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "mstbench"


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload once; returns (exit code, output lines, result dict)."""
    for sub in ("reports", "traces", "work"):
        (out_dir() / sub).mkdir(parents=True, exist_ok=True)
    report = out_dir() / "reports" / f"{workload}-seed{seed}-trace{trace}.json"
    trace_file = out_dir() / "traces" / f"{workload}-seed{seed}.json"
    command = [str(binary), f"--workload={workload}", f"--seed={seed}",
               f"--seconds={seconds}", f"--trace={trace}",
               f"--work-dir={out_dir() / 'work' / f'{workload}-{seed}-{trace}-{os.getpid()}'}",
               f"--report={report}"]
    if trace:
        command.append(f"--trace-out={trace_file}")
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"mstbench exited with {proc.returncode} on {workload}")
    result = json.loads(lines[-1])
    if trace:
        # The trace must load as JSON (Chrome trace-event format).
        result["attempted"] += 1
        try:
            with open(trace_file) as handle:
                events = len(json.load(handle)["traceEvents"])
            lines.insert(-1, f"trace {trace_file} ({events} events)")
        except (OSError, ValueError, KeyError) as error:
            result["failed"] += 1
            result["correct"] = False
            lines.insert(-1, f"FAILED: trace {trace_file} does not parse: {error}")
    lines[-1] = json.dumps(result)
    code = 0 if result["correct"] and proc.returncode == 0 else 1
    return code, lines, result


def compare(old_path, new_path):
    """Prints two reports side by side; judges only reports of the same host."""
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    bounds, better = {}, {}
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        for metric in spec["end_to_end"] + spec["per_layer"]:
            bounds[metric["name"]] = metric.get("bound")
            better[metric["name"]] = metric["better"]
    same_host = old["host"] == new["host"]
    if not same_host:
        print("WARNING: the reports come from different hosts; ratios are shown, not judged")
        print(f"  old: {old['host']}\n  new: {new['host']}")
    print(f"{'metric':24} {'old median [q1, q3]':>36} {'new median [q1, q3]':>36} {'new/old':>8}")
    for name, n in new["metrics"].items():
        o = old["metrics"].get(name)
        if o is None:
            continue
        ratio = n["value"] / o["value"] if o["value"] else float("nan")
        verdict = ""
        if same_host and bounds.get(name) is not None:
            worse = ratio - 1 if better[name] == "lower" else 1 - ratio
            spread = (o["q3"] - o["q1"]) / o["value"] if o["value"] else 0
            if spread > bounds[name]:
                verdict = "unresolved (spread wider than bound)"
            else:
                verdict = "REGRESSION" if worse > bounds[name] else "ok"
        print(f"{name:24} {o['value']:>14.6g} [{o['q1']:.4g}, {o['q3']:.4g}]"
              f"{'':>2}{n['value']:>14.6g} [{n['q1']:.4g}, {n['q3']:.4g}]"
              f" {ratio:>8.3f} {verdict}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return 0
    if not args.workload:
        parser.error("--workload is required")
    binary = build()
    if args.workload != "all":
        code, lines, _ = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        return code

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            one_code, lines, result = run_one(binary, workload, args.seed, args.seconds, trace)
            print("\n".join(lines[:-1]) + "\n", flush=True)
            code = max(code, one_code)
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                total["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(total), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
