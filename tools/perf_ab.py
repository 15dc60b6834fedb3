#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark on two git revisions.

    python3 tools/perf_ab.py PARENT CHANGE --workload W --seed S [--pairs N]
                             [--record]

Run from inside a checkout. Each revision is exported with `git archive`
into .perf_ab/<sha>/ (reused when already there), so both sides build and
run their own committed sources with their own benchmark code. Every
pair runs BENCHMARK.json's `command` plus `--workload W --seed S
--seconds <run_seconds> --trace 0` once in each tree, alternating which
side goes first. The first run in a tree also builds it and generates
the seed's inputs; the benchmark does both before it starts measuring.

For every end-to-end metric the report gives each side's median and
quartiles, the change/parent ratio of the medians, the pairs the change
won (direction from the metric's `better`; ties count for neither), the
metric's bound and a verdict:

    gain          at least 10 pairs ran, the change won at least 9/10
                  of them, and the medians differ in the better
                  direction by more than the parent's interquartile
                  range and by more than a tenth of the bound times the
                  parent's median (the minimum effect: a move far
                  inside the bound is no gain however steady it is)
    worse         the change's median is worse than the parent's by more
                  than the bound
    unresolved    otherwise, when either side's runs spread (max - min)
                  by more than the bound relative to their median, unless
                  every change run beats every parent run
    within bound  otherwise

After the per-side lines, one line says whether the parent's and the
change's sets of placement digests are identical. It does not affect the
exit status, since some workloads place differently from run to run.

The bounds, run length and command come from the parent's BENCHMARK.json.
Raw results go to .perf_ab/<parent>-<change>-<workload>-seed<S>-<time>.json.
With --record, the summary also replaces the entry for this workload and
seed in BENCH_perfbench.json at the repository root (created when
missing): the sha pair and pair count, each side's median and quartiles
per end-to-end metric with the ratio, wins and verdict, both sides'
placement digests, and the run header (compiler, nproc, hardware
threads, run seconds). Keys are sorted so a re-recorded entry diffs
small; commit the file with the change it measures.
Exit status: 0 when every run was correct and the change's failed share
is no higher than the parent's, 1 otherwise, 2 on usage errors.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

OUT_DIR = ".perf_ab"
RECORD_FILE = "BENCH_perfbench.json"


def log(msg):
    print(f"perf_ab: {msg}", file=sys.stderr, flush=True)


def git(root, *args):
    done = subprocess.run(["git", "-C", str(root), *args],
                          capture_output=True, text=True)
    if done.returncode != 0:
        log(f"git {' '.join(args)}: {done.stderr.strip()}")
        sys.exit(2)
    return done.stdout.strip()


def export(root, sha):
    """The revision's tree under .perf_ab/<sha>/, exported once."""
    tree = root / OUT_DIR / sha
    if (tree / ".exported").exists():
        return tree
    tree.mkdir(parents=True, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", str(root), "archive", sha],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(tree)],
                           stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        log(f"cannot export {sha}")
        sys.exit(2)
    (tree / ".exported").write_text(sha + "\n")
    return tree


def run_once(tree, cmd):
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"no result from {tree.name[:10]} (exit {done.returncode}); "
            "stderr tail:")
        for line in done.stderr.strip().splitlines()[-15:]:
            print("    " + line, file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 0,
                "metrics": {}, "digest": None}
    result["digest"] = None
    result["header"] = None
    for line in lines:
        if "placement digest" in line:
            result["digest"] = line.rsplit(" ", 1)[-1]
        if line.startswith("# run "):
            result["header"] = json.loads(line[len("# run "):])
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


MIN_EFFECT = 0.1  # a gain must move the median by this share of the bound


def verdict(parent, change, better, bound):
    """Verdict of one metric from its parent and change runs (paired by
    index); see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    min_gap = max(p_q3 - p_q1, MIN_EFFECT * bound * abs(p_med))
    if (len(pairs) >= 10 and 10 * wins >= 9 * len(pairs) and
            sign * (c_med - p_med) > min_gap):
        return wins, "gain"
    base = abs(p_med) if p_med else 1.0
    if -sign * (c_med - p_med) / base > bound:
        return wins, "worse"
    spread = max((max(v) - min(v)) / (abs(statistics.median(v)) or 1.0)
                 for v in (parent, change))
    every_change_better = all(sign * (c - p) > 0
                              for p in parent for c in change)
    if spread > bound and not every_change_better:
        return wins, "unresolved"
    return wins, "within bound"


def digest_line(parent, change):
    """Whether both sides reported the same set of placement digests.
    Informational only: some workloads (serve-stream) place differently
    from run to run on either side, so it does not set the exit status."""
    if not parent and not change:
        return "# placement digests: none reported"
    if parent == change:
        return "# placement digests: identical sets on both sides"
    return ("# placement digests: the sets differ "
            f"(parent only: {', '.join(sorted(parent - change)) or 'none'}; "
            f"change only: {', '.join(sorted(change - parent)) or 'none'})")


def summarize(spec, runs, pairs):
    """One row per end-to-end metric: each side's median and quartiles,
    the ratio, wins and verdict; None for a metric some run lacks."""
    rows = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]
                         if name in r["metrics"]] for side in runs}
        if len(values["parent"]) != pairs or len(values["change"]) != pairs:
            rows[name] = None
            continue
        row = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
        for side in ("parent", "change"):
            q1, q3 = quartiles(values[side])
            row[side] = {"median": statistics.median(values[side]),
                         "q1": q1, "q3": q3}
        p_med = row["parent"]["median"]
        row["ratio"] = row["change"]["median"] / p_med if p_med else 0.0
        row["wins"], row["verdict"] = verdict(
            values["parent"], values["change"], m["better"], m["bound"])
        rows[name] = row
    return rows


def record_entry(workload, seed, shas, spec, runs, rows):
    """The BENCH_perfbench.json entry of one A/B run."""
    header = next((r["header"] for side in ("change", "parent")
                   for r in runs[side] if r.get("header")), None) or {}
    return {
        "workload": workload,
        "seed": seed,
        "parent": shas["parent"],
        "change": shas["change"],
        "pairs": len(runs["parent"]),
        "metrics": {name: row for name, row in rows.items() if row},
        "placement_digests": {
            side: sorted({r["digest"] for r in runs[side] if r["digest"]})
            for side in ("parent", "change")},
        "host": {
            "compiler": header.get("compiler"),
            "nproc": header.get("nproc"),
            "hardware_concurrency": header.get("hardware_concurrency"),
            "run_seconds": spec["run_seconds"],
        },
    }


def record(path, entry):
    """Adds `entry` to the trajectory file at `path`, replacing the
    entry of the same workload and seed."""
    path = Path(path)
    data = json.loads(path.read_text()) if path.exists() else {}
    entries = data.setdefault("entries", {})
    entries[f"{entry['workload']} seed {entry['seed']}"] = entry
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]))
    ap.add_argument("parent", help="baseline revision")
    ap.add_argument("change", help="revision under test")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--record", action="store_true",
                    help=f"write the summary into {RECORD_FILE}")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    shas = {side: git(root, "rev-parse", "--verify", rev + "^{commit}")
            for side, rev in (("parent", args.parent),
                              ("change", args.change))}
    specs = {side: json.loads(git(root, "show", f"{sha}:BENCHMARK.json"))
             for side, sha in shas.items()}
    spec = specs["parent"]
    if specs["change"] != spec:
        log("warning: BENCHMARK.json differs; using the parent's")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        ap.error(f"unknown workload {args.workload!r} (have {names})")
    trees = {side: export(root, sha) for side, sha in shas.items()}
    cmd = [*spec["command"], "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
           "--trace", "0"]

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(trees[side], cmd)
            runs[side].append(result)
            shown = ", ".join(
                f"{m['name']} {result['metrics'][m['name']]['value']:.6g}"
                for m in spec["end_to_end"]
                if m["name"] in result["metrics"])
            log(f"pair {i + 1}/{args.pairs} {side}: "
                f"correct={result['correct']} {shown}")

    print(f"# {args.workload} seed {args.seed}: {args.pairs} pairs, "
          f"{spec['run_seconds']} s runs; parent {shas['parent'][:10]}, "
          f"change {shas['change'][:10]}")
    print(f"{'metric':<16} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'ratio':>7} {'wins':>6} "
          f"{'bound':>6}  verdict")
    rows = summarize(spec, runs, args.pairs)
    for name, row in rows.items():
        if row is None:
            print(f"{name:<16} missing from some runs")
            continue
        cells = [f"{row[side]['median']:.4g} "
                 f"[{row[side]['q1']:.4g}, {row[side]['q3']:.4g}]"
                 for side in ("parent", "change")]
        print(f"{name:<16} {cells[0]:>30} {cells[1]:>30} "
              f"{row['ratio']:>7.3f} {row['wins']:>3}/{args.pairs:<2} "
              f"{row['bound']:>6}  {row['verdict']}")

    ok = True
    digests = {}
    for side in ("parent", "change"):
        correct = sum(1 for r in runs[side] if r["correct"])
        digests[side] = {r["digest"] for r in runs[side] if r["digest"]}
        print(f"# {side}: {correct}/{args.pairs} runs correct, failed share "
              f"{failed_share(runs[side]):.6g}, placement digests "
              f"{', '.join(sorted(digests[side])) or 'none'}")
        ok = ok and correct == args.pairs
    print(digest_line(digests["parent"], digests["change"]))
    if failed_share(runs["change"]) > failed_share(runs["parent"]):
        print("# the change's failed share is higher than the parent's")
        ok = False

    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    raw = root / OUT_DIR / (f"{shas['parent'][:10]}-{shas['change'][:10]}-"
                            f"{args.workload}-seed{args.seed}-{stamp}.json")
    raw.write_text(json.dumps({"parent": shas["parent"],
                               "change": shas["change"],
                               "command": cmd, "runs": runs}, indent=1))
    print(f"# raw runs: {raw.relative_to(root)}")
    if args.record:
        record(root / RECORD_FILE, record_entry(
            args.workload, args.seed, shas, spec, runs, rows))
        print(f"# recorded in {RECORD_FILE}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
