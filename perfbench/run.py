#!/usr/bin/env python3
"""Rocksteady benchmark: build, run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload migrate_b --seed 42 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --compare OLD.json NEW.json

A run builds the perfbench program from source (this directory's CMake project,
which compiles the repository's src/ beside it) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the workload for --seconds.
--trace 0 reports BENCHMARK.json's end_to_end metrics; --trace 1 runs the
traced variant and reports its per_layer metrics. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics; the
exit code is 0 only if the output check passed. Each run also writes a record
stamped with nproc, build type, compiler, seed and trace hash to
<build dir>/results/, and a traced run writes its spans (Chrome trace JSON)
next to it.

--selftest runs every workload at a tiny size, twice per mode, and checks
that every named metric has a unit and a finite value and that every
simulated metric, count and trace hash repeats exactly.

--compare prints NEW against OLD (two result records) metric by metric, and
refuses scale24_lanes4 records taken on hosts with different CPU counts:
threaded-lane timings only compare on equal cores.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("migrate_b", "write_a", "scale24_lanes4")
PROGRAM_TIMEOUT_S = 170
THREADED_WORKLOADS = ("scale24_lanes4",)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ beside perfbench/: run from the root of a full checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode
            except OSError as e:
                fail(f"cannot run {cmd[0]}: {e}")
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    print(f.read()[-4000:], file=sys.stderr)
                fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run_program(binary, workload, seed, seconds, trace, size="full"):
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--size", size, "--out", results]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {PROGRAM_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stderr[-4000:], file=sys.stderr)
        fail(f"perfbench exited with code {proc.returncode}")
    return json.loads(lines[-1])


def spec_metrics(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def select(result, spec, trace):
    """The BENCHMARK.json metrics of this mode, with units; problems found."""
    metrics, problems = {}, []
    for m in spec_metrics(spec, trace):
        value = result["metrics"].get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {m['name']} is missing or not finite")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics, problems


def targets_problems(spec, targets):
    """Every BENCHMARK.json metric needs an entry in metrics.json, and every
    per-layer metric the end-to-end metrics and workloads it should move."""
    problems = []
    e2e = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    for m in spec["end_to_end"]:
        if m["name"] not in targets["end_to_end"]:
            problems.append(f"metrics.json lacks end-to-end metric {m['name']}")
    for m in spec["per_layer"]:
        t = targets["per_layer"].get(m["name"])
        if not t or not t.get("moves") or not t.get("on"):
            problems.append(f"metrics.json gives no target for {m['name']}")
        elif not set(t["moves"]) <= e2e or not set(t["on"]) <= workloads:
            problems.append(f"metrics.json target of {m['name']} names unknown metrics or workloads")
    return problems


def report(result, metrics, targets, trace):
    stamp = result["stamp"]
    print(f"# {result['workload']} seed {result['seed']} trace {trace}: nproc {stamp['nproc']}, "
          f"{stamp['build_type']} build, {stamp['compiler']}, trace hash {stamp['trace_hash']}, "
          f"lanes {stamp['lanes']}{' threaded' if stamp['lane_threads'] else ''}, "
          f"1 warm-up + {stamp['reps']} untraced + {stamp['traced_reps']} traced repetitions")
    print(f"# ops attempted {result['attempted']}, failed {result['failed']}; latency samples: "
          f"{result['samples']['read']} reads, {result['samples']['write']} writes")
    table = targets["per_layer" if trace else "end_to_end"]
    for name, m in metrics.items():
        t = table.get(name, {})
        where = f"  -> {','.join(t['moves'])} on {','.join(t['on'])}" if trace and t else ""
        print(f"#   {name:34s} {m['value']:.6g} {m['unit']}{where}")
    if trace:
        raw = result["metrics"]
        hooked = raw["sim.lane_busy_s"] + raw["sim.merge_s"]
        print(f"# lane windows + merge {hooked:.4f} s of traced host_run_s {raw['host_run_s']:.4f} s "
              f"(difference {raw['host_run_s'] - hooked:.4f} s); tracing overhead "
              f"{raw['sim.trace_overhead'] * 100:.1f}% over the untraced run; spans in {stamp['spans']}")
    for error in result["errors"]:
        print(f"# CHECK FAILED: {error}")


def run(args):
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    targets = load_json(os.path.join(HERE, "metrics.json"))
    seed = targets["default_seed"] if args.seed is None else args.seed
    binary = build()
    result = run_program(binary, args.workload, seed, args.seconds, args.trace)
    metrics, problems = select(result, spec, args.trace)
    problems += targets_problems(spec, targets)
    result["errors"] += problems
    correct = bool(result["correct"]) and not problems
    report(result, metrics, targets, args.trace)
    record = dict(result, correct=correct)
    path = os.path.join(build_dir(), "results",
                        f"{args.workload}-seed{seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def selftest(args):
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    targets = load_json(os.path.join(HERE, "metrics.json"))
    seed = targets["default_seed"] if args.seed is None else args.seed
    binary = build()
    problems = targets_problems(spec, targets)
    for workload in WORKLOADS:
        for trace in (0, 1):
            runs = [run_program(binary, workload, seed, 1, trace, size="tiny") for _ in range(2)]
            for r in runs:
                metrics, found = select(r, spec, trace)
                problems += [f"{workload} trace {trace}: {p}" for p in found + r["errors"]]
                for name, m in metrics.items():
                    print(f"{workload} trace {trace} {name} {m['value']:.6g} {m['unit']}")
            table = targets["per_layer" if trace else "end_to_end"]
            exact = [m["name"] for m in spec_metrics(spec, trace)
                     if table.get(m["name"], {}).get("kind") == "sim"]
            a, b = runs
            for name in exact:
                if a["metrics"].get(name) != b["metrics"].get(name):
                    problems.append(f"{workload} trace {trace}: {name} differs between runs: "
                                    f"{a['metrics'].get(name)} vs {b['metrics'].get(name)}")
            for key in ("attempted", "failed"):
                if a[key] != b[key]:
                    problems.append(f"{workload} trace {trace}: {key} differs between runs")
            if a["stamp"]["trace_hash"] != b["stamp"]["trace_hash"]:
                problems.append(f"{workload} trace {trace}: trace hash differs between runs")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def compare(old_path, new_path):
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    old, new = load_json(old_path), load_json(new_path)
    if old["workload"] != new["workload"] or old["trace"] != new["trace"]:
        fail("records are of different workloads or modes")
    if old["workload"] in THREADED_WORKLOADS and old["stamp"]["nproc"] != new["stamp"]["nproc"]:
        print(f"refused: {old['workload']} runs threaded lanes; records come from hosts with "
              f"nproc {old['stamp']['nproc']} and {new['stamp']['nproc']}")
        return 3
    bounds = {m["name"]: m for m in spec_metrics(spec, old["trace"])}
    worse = 0
    for name, m in bounds.items():
        a, b = old["metrics"].get(name), new["metrics"].get(name)
        if a is None or b is None:
            continue
        change = (b - a) / a if a else 0.0
        regress = change if m["better"] == "lower" else -change
        flag = ""
        if "bound" in m and regress > m["bound"]:
            flag = f"  WORSE than bound {m['bound']}"
            worse += 1
        print(f"{name:34s} {a:12.6g} -> {b:12.6g} {m['unit']:8s} {change * 100:+7.2f}%{flag}")
    return 1 if worse else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.selftest:
        return selftest(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
