"""Benchmark entry point for the cobweb library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in fresh child
processes (perfbench/workloads.py), one at a time, against the library
under src/.  With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 it carries the per-layer metrics and the tracing
overhead.  The lines before it give provenance, the failed fraction and
the known-defect inputs by name.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("construct-verify", "exact-count", "graph-clique", "cli-session")
SETUP_PROBES = 8  # extra start-ups that stop before the first timed call
CHILD_TIMEOUT_S = 170
# The yardstick kernel's mean time at the reference speed of the host the
# benchmark was written on (2 vCPUs, Python 3.11).  Set-up and in-process
# operation times are scaled by this over their process's own kernel
# time; see NOTES.md.
YARDSTICK_REFERENCE_S = 0.003


def run_child(args, *extra: str) -> dict:
    """Start one workload process, wait for it, and return its JSON line."""
    t0 = perf_counter()
    command = [sys.executable, str(BENCH / "workloads.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--t0", repr(t0), *extra]
    if args.tiny:
        command.append("--tiny")
    if args.wrong_pin:
        command.append("--wrong-pin")
    env = dict(os.environ, PYTHONHASHSEED="0")  # same dict layouts in every run
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cobweb benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--wrong-pin", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cobweb" / "__init__.py").is_file():
        print(f"error: no cobweb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    provenance = {"workload": args.workload, "seed": args.seed, "nproc": os.cpu_count(),
                  "python": platform.python_version(), "platform": platform.platform(),
                  "commit": commit(), "trace": args.trace}
    print("provenance " + json.dumps(provenance, sort_keys=True))

    starts = [run_child(args, "--setup-only") for _ in range(0 if args.trace else SETUP_PROBES)]
    child = run_child(args)
    starts.append(child)

    attempted, failed = child["attempted"], child["failed"]
    for line in child["failures"]:
        print("failure " + line)
    print(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted} operations, "
          f"{child['passes']} passes)")
    defects = sorted(name for name, problems in child["probes"].items() if problems)
    for name in defects:
        print(f"known-defect input failing: {name}: {'; '.join(child['probes'][name])}")
    if child["probes"]:
        print(f"known-defect inputs failing: {len(defects)} of {len(child['probes'])} "
              f"(not counted in failed_frac)")

    if args.trace:
        layers = child["layers"]
        untraced = statistics.median(map(sum, child["pass_times"]))
        traced = statistics.median(map(sum, child["traced_pass_times"]))
        layers["trace.wall_s"] = traced
        layers["trace.overhead_s"] = traced - untraced
        print(f"spans written to {child['spans_file']}")
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in layers.items()}
    else:
        samples = child["yardstick"]
        speed = YARDSTICK_REFERENCE_S / statistics.mean(samples) if samples else 1.0
        wall = statistics.mean(map(sum, child["pass_times"]))
        scaled = statistics.mean(
            sum(t * speed if local else t for t, local in zip(times, child["local"]))
            for times in child["pass_times"])
        setups = [start["setup_s"] * YARDSTICK_REFERENCE_S / start["setup_yardstick_s"]
                  for start in starts]
        print(f"unscaled wall_s {wall} s; host speed {speed} of reference "
              f"over {len(samples)} yardstick samples; unscaled setup_s "
              f"{statistics.median(start['setup_s'] for start in starts)} s")
        # not gated: on the library workloads the median operation is one
        # 3 ms call whose time swings by 25% with the host
        cmd = 1000 * statistics.median(t for times in child["pass_times"] for t in times)
        print(f"cmd_p50_ms {cmd} ms (unscaled)")
        metrics = {
            "wall_s": {"value": scaled, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": child["peak_rss_kib"] / 1024, "unit": "MiB"},
        }
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("ms"):
        return "ms"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("ratio") or name.endswith("_per_node"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
