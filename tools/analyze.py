#!/usr/bin/env python3
"""Unified static analysis gate: semantic shard-safety/determinism rules
(tools/analyzer/) plus the regex determinism lint (tools/lint_determinism.py).

The semantic pass enforces what regexes cannot see (types, scopes, data
flow), in four rules that gate the move to sharded execution (ROADMAP 1):

  shard-unannotated    every mutable static-storage variable (non-const
                       global, static data member, function-local static)
                       must carry ROCKSTEADY_SHARD_LOCAL or
                       ROCKSTEADY_SHARED_GUARDED("why"); the full inventory
                       of such state is written to build/shard_state.json
  iter-order-escape    range-for over std::unordered_{map,set} whose body
                       schedules events / sends messages / appends to an
                       ordered container: unspecified iteration order would
                       leak into the event trace
  flatmap-iteration    any iteration over FlatMap64 (iteration-free by
                       design; probe order is hash-layout-dependent)
  unchecked-status     a Status-returning call whose result is discarded
                       (suppress per line: lint:allow-unchecked: <reason>)
  handler-idempotency  RPC handlers registered without an idempotency
                       review: annotate ROCKSTEADY_IDEMPOTENT("why") or
                       guard with an explicit dedup check — a retransmission
                       re-runs a call whose execution a crash cut short, so
                       at-least-once delivery can re-execute any handler

Frontend: a token/scope pass with no dependencies (tools/analyzer/
frontend_tokens.py). Grandfathered findings live in
tools/analyzer/baseline.json (currently empty — keep it that way);
`--write-baseline` regenerates it.

Exit status: 0 clean (or all findings baselined), 1 findings, 2 usage.

Usage:
  tools/analyze.py src/
  tools/analyze.py src/ --json build/analysis.json
  tools/analyze.py src/ --baseline tools/analyzer/baseline.json
"""

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import lint_determinism  # noqa: E402
from analyzer import baseline as baseline_mod  # noqa: E402
from analyzer import frontend_tokens, rules  # noqa: E402
from analyzer.model import Finding, Index  # noqa: E402

SOURCE_EXTS = (".cc", ".cpp", ".h", ".hpp")


def collect_files(paths):
    files = []
    for arg in paths:
        path = Path(arg)
        if path.is_dir():
            for ext in SOURCE_EXTS:
                files.extend(sorted(path.rglob(f"*{ext}")))
        elif path.exists():
            files.append(path)
        else:
            print(f"analyze: no such path: {path}", file=sys.stderr)
            return None
    return files


def run_semantic(files):
    """Returns (findings, all_facts)."""
    index = Index()
    texts = {}
    for path in files:
        text = path.read_text(encoding="utf-8", errors="replace")
        texts[path] = text
        frontend_tokens.build_index_for_file(text, index)

    findings = []
    all_facts = []
    for path in files:
        facts = frontend_tokens.analyze_file(texts[path], str(path), index)
        all_facts.append(facts)
        findings.extend(rules.check_tu(facts, index, texts[path].splitlines()))
    return findings, all_facts


def run_regex_lint(files):
    findings = []
    for path in files:
        for lineno, name, message in lint_determinism.lint_file(path):
            findings.append(Finding(rule=name, file=str(path), line=lineno,
                                    message=message))
    return findings


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="+", help="files or directories")
    parser.add_argument("--build-dir", default=str(REPO / "build"),
                        help="where shard_state.json is written")
    parser.add_argument("--json", default=None,
                        help="also write findings as JSON to this path")
    parser.add_argument("--baseline",
                        default=str(REPO / "tools/analyzer/baseline.json"))
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline file")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write current findings as the new baseline "
                             "and exit 0")
    parser.add_argument("--shard-state", default=None,
                        help="where to write the mutable-state inventory "
                             "(default: <build-dir>/shard_state.json)")
    parser.add_argument("--no-regex-lint", action="store_true",
                        help="run only the semantic rules (the fixture "
                             "runner drives lint_determinism separately)")
    args = parser.parse_args(argv[1:])

    files = collect_files(args.paths)
    if files is None:
        return 2
    if not files:
        print("analyze: no source files found", file=sys.stderr)
        return 2

    findings, all_facts = run_semantic(files)
    if not args.no_regex_lint:
        findings.extend(run_regex_lint(files))
    findings.sort(key=lambda f: (f.file, f.line, f.rule))

    # Shard-state inventory: always written, even when the gate fails —
    # it is the work-list, not a success artifact.
    shard_state_path = Path(args.shard_state) if args.shard_state else \
        Path(args.build_dir) / "shard_state.json"
    inventory = rules.shard_state_inventory(all_facts)
    shard_state_path.parent.mkdir(parents=True, exist_ok=True)
    with shard_state_path.open("w", encoding="utf-8") as f:
        json.dump(inventory, f, indent=2)
        f.write("\n")

    if args.write_baseline:
        baseline_mod.dump(findings, args.baseline)
        print(f"analyze: wrote {len(findings)} finding(s) to "
              f"{args.baseline}")
        return 0

    baselined = []
    if not args.no_baseline:
        entries = baseline_mod.load(args.baseline)
        findings, baselined, stale = baseline_mod.filter_findings(
            findings, entries)
        for entry in stale:
            print(f"analyze: note: stale baseline entry no longer matches: "
                  f"{entry.get('file')}:{entry.get('line')} "
                  f"[{entry.get('rule')}]", file=sys.stderr)

    if args.json:
        payload = {
            "files_analyzed": len(files),
            "findings": [vars(f) for f in findings],
            "baselined": len(baselined),
            "shard_state": str(shard_state_path),
        }
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")

    for finding in findings:
        print(f"{finding.file}:{finding.line}: [{finding.rule}] "
              f"{finding.message}", file=sys.stderr)
    suffix = f", {len(baselined)} baselined" if baselined else ""
    if findings:
        print(f"analyze: {len(findings)} finding(s) in "
              f"{len(files)} files{suffix} — see rule docs in "
              "tools/analyze.py / DESIGN.md", file=sys.stderr)
        return 1
    print(f"analyze: {len(files)} files clean{suffix}; "
          f"shard-state inventory: {shard_state_path} "
          f"({inventory['total_sites']} mutable site(s), "
          f"{inventory['unannotated']} unannotated)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
