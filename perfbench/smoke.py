"""Smoke test of the benchmark itself; exits non-zero on the first problem.

    python3 perfbench/smoke.py

For tiny versions of every workload it checks that a run is correct, that
every emitted metric is declared in BENCHMARK.json with the same unit
(end-to-end metrics untraced, per-layer metrics traced), and that a
deliberately wrong pinned answer is counted as a failure.  It also checks
that the benchmark refuses to run without the library sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--seed", "5", "--seconds", "1",
                           *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-500:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(out)}")
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in declared.items():
            out = result(run("--workload", workload, "--trace", trace, "--tiny"))
            emitted = {name: m["unit"] for name, m in out["metrics"].items()}
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                raise AssertionError(f"{workload} trace {trace}: {out['failed']} failed")
            if emitted != names:
                diff = set(emitted.items()) ^ set(names.items())
                raise AssertionError(f"{workload} trace {trace}: undeclared or missing {diff}")
        out = result(run("--workload", workload, "--trace", "0", "--tiny", "--wrong-pin"))
        if out["correct"] or out["failed"] < 1:
            raise AssertionError(f"{workload}: a wrong pinned answer was not counted")
        print(f"ok {workload}")

    with tempfile.TemporaryDirectory(prefix="bare-", dir=BENCH / "out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run("--workload", spec["workloads"][0]["name"], "--trace", "0", cwd=bare)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        if proc.returncode == 0 or last[0].startswith("{"):
            raise AssertionError("ran without the library sources")
    print("ok refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
