#!/usr/bin/env python3
"""Smoke test of the benchmark on the tiny campus.

    python3 perfbench/smoke_test.py

Runs every workload once untraced and once traced through run.py and
asserts that each run exits 0, that every metric BENCHMARK.json names
for the mode is printed with its unit (in the table and in the final
JSON line) and that every output check passed. Takes about a minute
after the first build.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("replay-s3", "replay-online-repl", "serve-stream", "serve-social")


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny", "--social-every", "400"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    return done.returncode, done.stdout, done.stderr


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            wanted = spec["per_layer" if trace else "end_to_end"]
            tag = f"{workload} --trace {trace}"
            code, out, err = run(workload, trace)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append(f"{tag}: exit {code}\n{err[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: bad result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{tag}: output checks failed")
            if "# checks:" not in out or "FAILED" in out:
                problems.append(f"{tag}: check summary missing or failing")
            if result["attempted"] < 1:
                problems.append(f"{tag}: nothing attempted")
            if set(result["metrics"]) != {m["name"] for m in wanted}:
                problems.append(f"{tag}: metric set differs from BENCHMARK.json")
            for m in wanted:
                got = result["metrics"].get(m["name"], {})
                if got.get("unit") != m["unit"]:
                    problems.append(f"{tag}: {m['name']} lacks unit {m['unit']}")
                row = rf"^\s+{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}\s+\(n=\d+\)$"
                if not re.search(row, out, re.MULTILINE):
                    problems.append(f"{tag}: {m['name']} not printed with unit")
            if workload == "serve-social" and not trace and not re.search(
                    r"^\s+social_p50_ms\s+\S+\s+ms\s+\(n=\d+\)$", out, re.MULTILINE):
                problems.append(f"{tag}: social_p50_ms not printed with unit")
            print(f"ok   {tag}" if not problems else f"..   {tag}", flush=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        sys.exit(1)
    print("smoke test passed")


if __name__ == "__main__":
    main()
