#!/usr/bin/env python3
"""Checks every figure binary's stdout against its recorded digest.

Each figure driver in bench/ is a deterministic simulation: run with no
arguments it prints the same bytes on every run and every host with the same
compiler and build type. bench/figure_digests.txt records the SHA-256 of each
figure's stdout; this tool runs the figures (in parallel with -j), hashes
their output and compares. A change meant to move no figure proves it here;
a change meant to move one re-records that figure's entry (--record with its
name) and says why in the file's header.

Every run's stdout is kept in <build-dir>/figure_outputs/<figure>.txt, so a
mismatch can be diffed against the same file from a build of the parent
commit.

Exit status: nonzero if a binary is missing, exits nonzero, or (without
--record) prints output whose digest differs from the recorded one.

Usage:
  tools/figure_digests.py --build-dir build -j 4
  tools/figure_digests.py --build-dir build --record ablation_migration
  tools/figure_digests.py --build-dir build --record     # every figure
"""

import argparse
import concurrent.futures
import hashlib
import subprocess
import sys
import time
from pathlib import Path

# Longest-running first, so a parallel run ends soon after its slowest job.
FIGURES = [
    "ablation_migration",
    "fig09_migration_impact",
    "fig04_index_scaling",
    "fig12_skew",
    "fig03_spread",
    "fig13_priority_pulls",
    "fig_rebalance",
    "fig05_bottlenecks",
    "fig15_scalability",
    "fig_scenarios",
    "fig_overload_pacing",
    "table1_config",
]

REPO = Path(__file__).resolve().parent.parent
DIGESTS = REPO / "bench" / "figure_digests.txt"


def read_digests(path: Path) -> tuple:
    """Returns (header comment lines, {figure: digest})."""
    header, digests = [], {}
    if path.exists():
        for line in path.read_text().splitlines():
            if line.startswith("#") or not line.strip():
                header.append(line)
            else:
                figure, digest = line.split()
                digests[figure] = digest
    return header, digests


def write_digests(path: Path, header: list, digests: dict) -> None:
    lines = header + [f"{f} {digests[f]}" for f in FIGURES if f in digests]
    path.write_text("\n".join(lines) + "\n")


def run_figure(build_dir: Path, out_dir: Path, figure: str) -> tuple:
    """Runs one figure; returns (figure, digest or None, seconds, error)."""
    binary = build_dir / "bench" / figure
    if not binary.exists():
        return figure, None, 0.0, f"{binary} not built"
    start = time.monotonic()
    proc = subprocess.run([str(binary)], capture_output=True)
    seconds = time.monotonic() - start
    (out_dir / f"{figure}.txt").write_bytes(proc.stdout)
    if proc.returncode != 0:
        return figure, None, seconds, (f"exited {proc.returncode}: "
                                       f"{proc.stderr.decode(errors='replace')[-400:]}")
    return figure, hashlib.sha256(proc.stdout).hexdigest(), seconds, None


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--build-dir", required=True,
                        help="CMake build dir containing bench/<figure>")
    parser.add_argument("--record", action="store_true",
                        help="write the fresh digests instead of checking them")
    parser.add_argument("-j", "--jobs", type=int, default=1,
                        help="figures run at once (fig09 alone peaks near 1.1 GB)")
    parser.add_argument("figures", nargs="*", metavar="FIGURE",
                        help=f"subset to run (default: all of {', '.join(FIGURES)})")
    args = parser.parse_args()

    unknown = [f for f in args.figures if f not in FIGURES]
    if unknown:
        print(f"figure_digests: unknown figure(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    figures = [f for f in FIGURES if not args.figures or f in args.figures]
    build_dir = Path(args.build_dir).resolve()
    out_dir = build_dir / "figure_outputs"
    out_dir.mkdir(parents=True, exist_ok=True)
    header, recorded = read_digests(DIGESTS)

    failures = 0
    fresh = {}
    with concurrent.futures.ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        jobs = [pool.submit(run_figure, build_dir, out_dir, f) for f in figures]
        for job in concurrent.futures.as_completed(jobs):
            figure, digest, seconds, error = job.result()
            if error is not None:
                failures += 1
                print(f"  FAIL     {figure:<24} {error}", file=sys.stderr)
                continue
            fresh[figure] = digest
            if args.record:
                status = "recorded"
            elif recorded.get(figure) == digest:
                status = "ok"
            else:
                failures += 1
                status = "MISMATCH"
            print(f"  {status:<8} {figure:<24} {seconds:6.1f} s  {digest[:16]}", flush=True)
            if status == "MISMATCH":
                print(f"           was {recorded.get(figure, 'not recorded')[:16]}; "
                      f"stdout kept in {out_dir / (figure + '.txt')}", file=sys.stderr)

    if args.record and not failures:
        recorded.update(fresh)
        write_digests(DIGESTS, header, recorded)
        print(f"figure_digests: recorded {len(fresh)} digest(s) in {DIGESTS}")
    elif failures:
        print(f"figure_digests: {failures} of {len(figures)} figure(s) failed", file=sys.stderr)
    else:
        print(f"figure_digests: all {len(figures)} figure digest(s) match")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
