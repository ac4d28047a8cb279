#!/usr/bin/env python3
"""Runs bench/engine_throughput and records the results in BENCH_engine.json.

The JSON file is the engine's perf trajectory: each entry is one labeled run
(a list of per-scenario results straight from the bench's JSON-lines
output), stamped with the host's CPU count (nproc). Each result is compared
against its reference — the latest re-baseline entry that has it, else the
first entry — as a speedup, and its trace hash is checked against it. The
speedup is the events/s ratio, or, when the event counts differ, the
wall-time ratio with both counts: a change that stops running no-op events
does the same scenario and seed in fewer events, which events/s would score
as a slowdown. An engine optimization that changes the event schedule is a
determinism bug, and this runner is the first place it shows up. A
deliberate schedule change is recorded once with --rebaseline REASON, which
makes the new entry the reference for every result it carries. Threaded-lane
results (lanes > 1) are only timed against a reference taken with the same
nproc: their wall time measures the host's cores as much as the engine.

Exit status: nonzero if the bench binary is missing or crashes. Perf
regressions only WARN (perf moves for legitimate reasons). Trace-hash
divergence WARNs by default but is a hard failure under --strict-hash: an
engine change that alters the event schedule is a determinism bug, and CI
(ci/check.sh) must fail on it at the first observation rather than relying
on a later gate to notice.

Usage:
  tools/bench_baseline.py --build-dir build --label pre_overhaul
  tools/bench_baseline.py --build-dir build --smoke --strict-hash
  tools/bench_baseline.py --build-dir build --label new_order --rebaseline "why"
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path


def load_trajectory(path: Path) -> dict:
    if path.exists():
        with path.open() as f:
            return json.load(f)
    return {"entries": []}


def result_key(result: dict) -> tuple:
    return (result["scenario"], result["seed"], result.get("lanes", 0))


def references(trajectory: dict, smoke: bool) -> dict:
    """Maps result key -> (entry, result) it is checked against: the latest
    re-baseline entry carrying the key, else the first entry carrying it."""
    refs = {}
    for entry in trajectory["entries"]:
        if entry.get("smoke", False) != smoke:
            continue
        for r in entry["results"]:
            key = result_key(r)
            if key not in refs or "rebaseline" in entry:
                refs[key] = (entry, r)
    return refs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build",
                        help="CMake build dir containing bench/engine_throughput")
    parser.add_argument("--label", default="run",
                        help="name for this entry in the trajectory file")
    parser.add_argument("--output", default=None,
                        help="trajectory file (default: <repo>/BENCH_engine.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="short run (~2s): proves the bench works, not perf")
    parser.add_argument("--strict-hash", action="store_true",
                        help="exit nonzero if any trace_hash diverges from "
                             "its reference entry")
    parser.add_argument("--rebaseline", metavar="REASON", default=None,
                        help="record this entry as the new reference for its "
                             "results, stating why their hashes changed")
    args = parser.parse_args()

    repo = Path(__file__).resolve().parent.parent
    output = Path(args.output) if args.output else repo / "BENCH_engine.json"
    bench = Path(args.build_dir) / "bench" / "engine_throughput"
    if not bench.exists():
        print(f"bench_baseline: {bench} not built", file=sys.stderr)
        return 1

    cmd = [str(bench)] + (["--smoke"] if args.smoke else [])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    except subprocess.TimeoutExpired:
        print("bench_baseline: bench timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"bench_baseline: bench exited {proc.returncode}", file=sys.stderr)
        sys.stderr.write(proc.stderr)
        return 1

    results = []
    for line in proc.stdout.splitlines():
        line = line.strip()
        if line.startswith("{"):
            results.append(json.loads(line))
    if not results:
        print("bench_baseline: bench produced no results", file=sys.stderr)
        return 1

    trajectory = load_trajectory(output)
    refs = references(trajectory, args.smoke)
    if not refs and args.strict_hash:
        # Without a reference the hash check is vacuous; failing here keeps
        # the CI gate honest instead of silently passing.
        print("bench_baseline: --strict-hash but the trajectory has no "
              f"{'smoke' if args.smoke else 'full'} entry to compare against",
              file=sys.stderr)
        return 1
    nproc = os.cpu_count()
    entry = {"label": args.label, "smoke": args.smoke, "nproc": nproc}
    if args.rebaseline:
        entry["rebaseline"] = args.rebaseline
    entry["results"] = results

    diverged = 0
    for r in results:
        lanes = r.get("lanes", 0)
        name = r["scenario"] + (f"@{lanes}" if lanes else "")
        print(f"  {name:<22} seed {r['seed']:<6} "
              f"{r['events_per_s']:>12,.0f} events/s  "
              f"{r['allocs_per_event']:>8.3f} allocs/event  {r['trace_hash']}")
        ref = refs.get(result_key(r))
        if ref is None:
            continue
        ref_entry, base = ref
        if lanes > 1 and ref_entry.get("nproc") != nproc:
            print(f"    not timed: threaded lanes measured on nproc "
                  f"{ref_entry.get('nproc', 'unknown')} in '{ref_entry['label']}', "
                  f"{nproc} here")
        elif base["events"] != r["events"]:
            if r["wall_s"] > 0:
                speedup = base["wall_s"] / r["wall_s"]
                print(f"    {speedup:.2f}x wall time vs '{ref_entry['label']}' "
                      f"(events {base['events']:,} there, {r['events']:,} here)")
        elif base["events_per_s"] > 0:
            speedup = r["events_per_s"] / base["events_per_s"]
            print(f"    {speedup:.2f}x vs '{ref_entry['label']}'")
        if base["trace_hash"] != r["trace_hash"] and args.rebaseline:
            print(f"    re-baselined: was {base['trace_hash']} in "
                  f"'{ref_entry['label']}'")
        elif base["trace_hash"] != r["trace_hash"]:
            diverged += 1
            severity = "ERROR" if args.strict_hash else "WARNING"
            print(f"    {severity}: trace_hash diverged from "
                  f"'{ref_entry['label']}' ({base['trace_hash']}) — the "
                  f"event schedule changed",
                  file=sys.stderr)

    trajectory["entries"].append(entry)
    with output.open("w") as f:
        json.dump(trajectory, f, indent=2)
        f.write("\n")
    print(f"bench_baseline: appended entry '{args.label}' to {output}")
    if diverged and args.strict_hash:
        print(f"bench_baseline: {diverged} trace hash(es) diverged under "
              "--strict-hash", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
