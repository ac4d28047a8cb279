#!/usr/bin/env python3
"""Fixture tests for the static-analysis stack (tools/analyze.py).

Each fixture under tests/analyzer/fixtures/ is a small C++ file annotated
with `// expect-finding:<rule>` comments. For every fixture the runner
computes the analyzer's actual findings (semantic rules from
tools/analyzer/ plus the regex lint from tools/lint_determinism.py) and
asserts the (line, rule) multiset matches the expectations exactly — no
missing findings, no extras. `expect-finding[+N]:<rule>` expects the
finding N lines below the marker, for rules whose evidence window would
otherwise read the marker itself (unbounded-member).

Fixture directory names matter: lint_determinism routes rule families by
path parts (rpc/ → hot-path + request-path rules, rebalance/ →
magic-threshold), so fixtures live in subdirectories named after the
source trees whose rules they exercise.

Runs with stdlib unittest (works under pytest too):

  python3 tests/analyzer/run_fixture_tests.py
"""

import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent
REPO = TESTS_DIR.parent.parent
sys.path.insert(0, str(REPO / "tools"))

import lint_determinism  # noqa: E402
from analyzer import frontend_tokens, rules  # noqa: E402
from analyzer.model import Index  # noqa: E402

FIXTURES = TESTS_DIR / "fixtures"
FIXTURE_EXTS = (".cc", ".h", ".cpp", ".hpp")
EXPECT = re.compile(r"expect-finding(?:\[\+(\d+)\])?:([\w-]+)")

SEMANTIC_RULES = {
    "shard-unannotated", "iter-order-escape", "flatmap-iteration",
    "unchecked-status", "handler-idempotency",
}
REGEX_RULES = {
    "wall-clock", "libc-random", "std-random", "unseeded-draw", "threads",
    "pointer-keyed-container", "hot-path-churn", "unbounded-member",
    "magic-threshold",
}


def fixture_files():
    return sorted(p for p in FIXTURES.rglob("*") if p.suffix in FIXTURE_EXTS)


def expected_findings(path):
    expected = []
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        for match in EXPECT.finditer(line):
            offset = int(match.group(1)) if match.group(1) else 0
            expected.append((lineno + offset, match.group(2)))
    return sorted(expected)


def actual_findings(path):
    """Runs both analysis passes over one fixture in isolation (per-file
    Index, so Status functions declared in one fixture don't leak into
    another)."""
    text = path.read_text(encoding="utf-8")
    index = Index()
    frontend_tokens.build_index_for_file(text, index)
    facts = frontend_tokens.analyze_file(text, str(path), index)
    found = [(finding.line, finding.rule)
             for finding in rules.check_tu(facts, index, text.splitlines())]
    found.extend((lineno, name)
                 for lineno, name, _ in lint_determinism.lint_file(path))
    return sorted(found)


class FixtureTests(unittest.TestCase):
    """One generated test per fixture file: exact finding-set equality."""
    maxDiff = None


def _add_fixture_case(path):
    name = "test_" + re.sub(r"\W+", "_", str(path.relative_to(FIXTURES)))

    def case(self, path=path):
        self.assertEqual(expected_findings(path), actual_findings(path),
                         f"finding mismatch in {path} "
                         "(left=expected, right=actual)")

    setattr(FixtureTests, name, case)


for _path in fixture_files():
    _add_fixture_case(_path)


class FixtureSuiteSanity(unittest.TestCase):
    """Guards the suite itself: fixtures present, every rule family
    exercised at least once."""

    def test_fixtures_exist(self):
        self.assertGreaterEqual(len(fixture_files()), 7)

    def test_every_rule_family_is_covered(self):
        covered = set()
        for path in fixture_files():
            covered.update(rule for _, rule in expected_findings(path))
        self.assertEqual(
            (SEMANTIC_RULES | REGEX_RULES) - covered, set(),
            "rule families with no positive fixture case")

    def test_expectations_name_real_rules(self):
        for path in fixture_files():
            for _, rule in expected_findings(path):
                self.assertIn(rule, SEMANTIC_RULES | REGEX_RULES,
                              f"{path} expects unknown rule {rule!r}")


class InventoryTests(unittest.TestCase):
    """shard_state.json contents: lane-shared instance members are
    inventoried (kind 'member', always annotated), and the real lane
    structures in src/ actually appear there."""

    @staticmethod
    def _inventory_for(paths):
        all_facts = []
        for path in paths:
            text = path.read_text(encoding="utf-8")
            index = Index()
            frontend_tokens.build_index_for_file(text, index)
            all_facts.append(
                frontend_tokens.analyze_file(text, str(path), index))
        return rules.shard_state_inventory(all_facts)

    def test_fixture_member_is_inventoried(self):
        inventory = self._inventory_for(
            [FIXTURES / "common" / "lane_shared_members.cc"])
        by_name = {s["name"]: s for s in inventory["sites"]}
        self.assertIn("entries_", by_name)
        self.assertEqual(by_name["entries_"]["kind"], "member")
        self.assertEqual(by_name["entries_"]["annotation"], "shared_guarded")
        # Plain per-instance members stay out of the inventory.
        self.assertNotIn("cursor_", by_name)
        # Members only enter the inventory via the annotation, so they can
        # never add unannotated sites.
        self.assertEqual(
            [s["name"] for s in inventory["sites"]
             if s["annotation"] == "MISSING"], ["g_posts"])

    def test_lane_structures_appear_in_src_inventory(self):
        # The sharded-execution structures themselves: cross-lane mailboxes,
        # the published window fronts, the per-node event clocks, the run
        # bound, and the per-lane shards in Network/RpcSystem/FaultInjector.
        inventory = self._inventory_for([
            REPO / "src" / "sim" / "lane_set.h",
            REPO / "src" / "sim" / "network.h",
            REPO / "src" / "rpc" / "rpc_system.h",
            REPO / "src" / "sim" / "fault_injector.h",
        ])
        members = {s["name"] for s in inventory["sites"]
                   if s["kind"] == "member"}
        for required in ("mail_", "fronts_", "clocks_", "cap_",
                         "pools_", "counters_", "pending_lanes_",
                         "sender_rng_"):
            self.assertIn(required, members,
                          f"lane structure {required!r} missing from the "
                          "shard-state inventory")
        self.assertEqual(inventory["unannotated"], 0,
                         "unannotated mutable state in the lane headers")


class DriverTests(unittest.TestCase):
    """tools/analyze.py end to end: exit codes, JSON output, baseline."""

    def _run(self, args):
        return subprocess.run(
            [sys.executable, str(REPO / "tools" / "analyze.py"), *args],
            capture_output=True, text=True)

    def test_fixtures_fail_the_gate(self):
        with tempfile.TemporaryDirectory() as tmp:
            proc = self._run([str(FIXTURES), "--no-baseline", "--build-dir", tmp,
                              "--json", f"{tmp}/findings.json"])
            self.assertEqual(proc.returncode, 1, proc.stderr)
            self.assertTrue(Path(tmp, "findings.json").exists())
            self.assertTrue(Path(tmp, "shard_state.json").exists())

    def test_clean_file_exits_zero(self):
        with tempfile.TemporaryDirectory() as tmp:
            clean = Path(tmp) / "clean.cc"
            clean.write_text(
                "namespace rocksteady {\n"
                "constexpr int kAnswer = 42;\n"
                "int Twice(int value) { return value + value; }\n"
                "}  // namespace rocksteady\n", encoding="utf-8")
            proc = self._run([str(clean), "--no-baseline", "--build-dir", tmp])
            self.assertEqual(proc.returncode, 0,
                             proc.stderr + proc.stdout)

    def test_baseline_grandfathers_known_findings(self):
        with tempfile.TemporaryDirectory() as tmp:
            dirty = Path(tmp) / "dirty.cc"
            dirty.write_text(
                "namespace rocksteady {\n"
                "int g_mutable = 0;\n"
                "}  // namespace rocksteady\n", encoding="utf-8")
            baseline = Path(tmp) / "baseline.json"
            wrote = self._run([str(dirty), "--build-dir", tmp,
                               "--baseline", str(baseline),
                               "--write-baseline"])
            self.assertEqual(wrote.returncode, 0, wrote.stderr)
            gated = self._run([str(dirty), "--build-dir", tmp,
                               "--baseline", str(baseline)])
            self.assertEqual(gated.returncode, 0, gated.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
