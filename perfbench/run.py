#!/usr/bin/env python3
"""s3lb end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
                             [--social-every K]   (required by serve-social)

Run from the root of a source checkout. The script builds the
repository's libraries and the benchmark's two programs from source
(Release, into .bench_build/), generates the seed's inputs in a separate
process and caches them per seed (.bench_cache/), then runs the
workload in its own measured process and checks its outputs.

Workloads (see perfbench/README.md for why each exists):
    replay-s3           S3 trace replay of the 3 test days, full campus
    replay-online-repl  replicated S3-online replay under controller churn
    serve-stream        live placement stream, 2 domain-sharded workers
    serve-social        sequential live stream with periodic `social` requests

--trace 0 prints the end-to-end metrics named in BENCHMARK.json, --trace 1
the per-layer metrics of a traced run (spans go to .bench_cache/spans/).
The last stdout line is one JSON object: correct, attempted, failed,
metrics. The exit code is non-zero when the build, the inputs or any
output check fails.

Claims: tune on seed 42, confirm on seed 7 (CLAIM_SEEDS).
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
CACHE = ROOT / ".bench_cache"
# Compilers and tools write their temporaries inside the checkout too.
ENV = dict(os.environ, TMPDIR=str(ROOT / ".bench_build" / "tmp"))

WORKLOADS = {
    # name: (scale, workers)
    "replay-s3": ("full", 2),
    "replay-online-repl": ("full", 2),
    "serve-stream": ("full", 2),
    "serve-social": ("small", 1),
}
CLAIM_SEEDS = (42, 7)
KEEP_SEEDS_PER_SCALE = 12
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(1)


def build_programs():
    """Configures (once) and builds; a no-op build takes about a second."""
    gen = shutil.which("ninja")
    configure = ["cmake", "-S", str(PKG), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if gen and not (BUILD / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", str(BUILD), "-j3",
                 "--target", "perfbench_gen", "perfbench_run"]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=ENV)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def inputs_for(scale, seed):
    """Generates the seed's inputs once per generator build; keeps the
    newest few per scale and drops inputs of other builds."""
    gen = BUILD / "perfbench_gen"
    stamp = hashlib.sha256(gen.read_bytes()).hexdigest()[:12]
    for old in CACHE.glob("gen-*"):
        if old.name != f"gen-{stamp}":
            shutil.rmtree(old, ignore_errors=True)
    cache = CACHE / f"gen-{stamp}"
    final = cache / f"{scale}-seed{seed}"
    if not (final / "done").exists():
        tmp = cache / f"{scale}-seed{seed}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        t0 = time.monotonic()
        done = subprocess.run(
            [str(gen), "--scale", scale, "--seed",
             str(seed), "--out", str(tmp)],
            stdout=sys.stderr, stderr=sys.stderr, env=ENV)
        if done.returncode != 0:
            shutil.rmtree(tmp, ignore_errors=True)
            fail(f"input generation failed for {scale} seed {seed}")
        (tmp / "done").write_text("ok\n")
        shutil.rmtree(final, ignore_errors=True)
        tmp.rename(final)
        log(f"generated {scale} inputs for seed {seed} in "
            f"{time.monotonic() - t0:.1f}s")
    os.utime(final)
    cached = sorted((d for d in cache.glob(f"{scale}-seed*")
                     if (d / "done").exists()),
                    key=lambda d: d.stat().st_mtime, reverse=True)
    for old in cached[KEEP_SEEDS_PER_SCALE:]:
        shutil.rmtree(old, ignore_errors=True)
    return final


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():  # never pick up an enclosing repository
        return "none"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--social-every", type=int,
                    help="serve-social: a social request every K-th arrival "
                         "(BENCHMARK.json's command fixes K)")
    ap.add_argument("--scale", choices=("full", "small", "tiny"),
                    help="override the workload's campus scale (smoke test)")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src").is_dir() or not spec_path.is_file():
        fail(f"{ROOT} is not a source checkout with BENCHMARK.json")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    if args.workload == "serve-social" and not args.social_every:
        fail("serve-social needs --social-every K")
    scale, workers = WORKLOADS[args.workload]
    scale = args.scale or scale
    CACHE.mkdir(exist_ok=True)
    Path(ENV["TMPDIR"]).mkdir(parents=True, exist_ok=True)
    with open(CACHE / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build/generation at a time
        build_programs()
        inputs = inputs_for(scale, args.seed)

    spans = CACHE / "spans" / f"{args.workload}-seed{args.seed}.csv"
    cmd = [str(BUILD / "perfbench_run"), "--workload", args.workload,
           "--scale", scale, "--seed", str(args.seed), "--inputs", str(inputs),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--social-every", str(args.social_every or 0)]
    if args.trace:
        spans.parent.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=ENV)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S}s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {done.returncode}")
    result = json.loads(lines[-1])

    header = {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "compiler": result["build"]["compiler"],
        "build_type": result["build"]["build_type"],
        "nproc": os.cpu_count(),
        "hardware_concurrency": result["build"]["hardware_concurrency"],
        "workers": workers,
        "scale": scale,
        "seed": args.seed,
        "claim_seeds": list(CLAIM_SEEDS),
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "passes": result["passes"],
    }
    print("# run " + json.dumps(header))
    measured = result["metrics"]
    for name, m in measured.items():
        print(f"  {name:<32} {m['value']:>16.6g} {m['unit']:<6} "
              f"(n={m['samples']})")
    failed_checks = [c for c in result["checks"] if not c["ok"]]
    print(f"# checks: {len(result['checks']) - len(failed_checks)}/"
          f"{len(result['checks'])} passed")
    for c in failed_checks:
        print(f"  FAILED {c['name']}: {c['detail']}")
    print(f"# operations: {result['attempted']} attempted, "
          f"{result['failed']} failed; placement digest {result['digest']}")
    if args.trace:
        print(f"# spans: {spans.relative_to(ROOT)}")

    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} ({m['unit']}) missing from the run")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = not failed_checks and result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
