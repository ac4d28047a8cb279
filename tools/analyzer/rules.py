"""The four semantic rules, evaluated over model.TuFacts.

Rules only see frontend-neutral facts (model.py). Suppression markers are matched against the raw source
line (same convention as lint_determinism.py):

  lint:allow-iter-order: <reason>   range-for over an unordered container
                                    whose escape is order-independent
  lint:allow-unchecked: <reason>    deliberately discarded Status

Shard-state and handler findings have no comment escape: the annotation
macros from src/common/annotations.h are the suppression, because they are
what the sharding refactor will read.
"""

from .frontend_tokens import SCHEDULE_ESCAPES
from .model import Finding

ITER_SUPPRESS = "lint:allow-iter-order"
UNCHECKED_SUPPRESS = "lint:allow-unchecked"

RULE_SHARD = "shard-unannotated"
RULE_ITER = "iter-order-escape"
RULE_FLATMAP = "flatmap-iteration"
RULE_UNCHECKED = "unchecked-status"
RULE_HANDLER = "handler-idempotency"

ALL_RULES = (RULE_SHARD, RULE_ITER, RULE_FLATMAP, RULE_UNCHECKED,
             RULE_HANDLER)


def _line_has(raw_lines, line, marker, lookback=2):
    """True if the marker sits on the line or a nearby preceding comment line
    (reasons usually don't fit in a trailing comment)."""
    if not raw_lines or line < 1 or line > len(raw_lines):
        return False
    for k in range(max(0, line - 1 - lookback), line):
        if marker in raw_lines[k]:
            return True
    return False


def _unique_category(index, names):
    """Resolves the range expression's idents against declared container
    names; returns a category only when it is unambiguous."""
    for name in reversed(names):  # Last ident is usually the container.
        cats = index.container_vars.get(name)
        if cats and len(cats) == 1:
            return next(iter(cats))
    return ""


def check_tu(facts, index, raw_lines=None):
    """Returns a list of Findings for one TU."""
    findings = []

    for site in facts.state_sites:
        if site.is_const:
            continue
        if site.annotation:
            continue
        findings.append(Finding(
            rule=RULE_SHARD, file=site.file, line=site.line,
            message=(f"{site.kind} '{site.name}' is mutable static-storage "
                     "state with no shard-safety annotation; mark it "
                     "ROCKSTEADY_SHARD_LOCAL or "
                     "ROCKSTEADY_SHARED_GUARDED(\"why\") "
                     "(src/common/annotations.h)")))

    for rf in facts.range_fors:
        category = rf.direct_category or _unique_category(
            index, rf.container_names)
        if category == "flatmap":
            findings.append(Finding(
                rule=RULE_FLATMAP, file=rf.file, line=rf.line,
                message=(f"iteration over FlatMap64 ({rf.container_text!r}): "
                         "FlatMap64 is iteration-free by design — its probe "
                         "order is hash-layout-dependent; restructure to "
                         "keyed lookups or keep a side list of keys")))
            continue
        if category != "unordered":
            continue
        if _line_has(raw_lines, rf.line, ITER_SUPPRESS):
            continue
        escapes = sorted(rf.body_calls & SCHEDULE_ESCAPES)
        appends = [(recv, m) for recv, m in rf.body_appends
                   if _unique_category(index, [recv]) in ("ordered", "")]
        if not escapes and not appends:
            continue
        leak = ", ".join(escapes + [f"{r}.{m}" for r, m in appends])
        findings.append(Finding(
            rule=RULE_ITER, file=rf.file, line=rf.line,
            message=(f"range-for over unordered container "
                     f"({rf.container_text!r}) leaks iteration order into "
                     f"the schedule via {leak}; iterate a sorted copy of the "
                     "keys, or justify with "
                     f"'{ITER_SUPPRESS}: <why order cannot escape>'")))

    for call in facts.discarded_calls:
        if _line_has(raw_lines, call.line, UNCHECKED_SUPPRESS):
            continue
        findings.append(Finding(
            rule=RULE_UNCHECKED, file=call.file, line=call.line,
            message=(f"result of Status-returning '{call.callee}' is "
                     "discarded; handle it, or state why with "
                     f"'{UNCHECKED_SUPPRESS}: <reason>'")))

    for reg in facts.handler_regs:
        if reg.has_idempotent or reg.has_dedup_guard:
            continue
        findings.append(Finding(
            rule=RULE_HANDLER, file=reg.file, line=reg.line,
            message=(f"handler for Opcode::{reg.opcode} is registered "
                     "without an idempotency review: a retransmission after "
                     "a crash cut its execution short re-executes it. Annotate the "
                     "registration ROCKSTEADY_IDEMPOTENT(\"why re-execution "
                     "is safe\") or guard the handler with its own dedup "
                     "check")))

    return findings


def shard_state_inventory(all_facts):
    """The machine-readable inventory of cross-shard mutable state: every
    non-const static-storage site, annotated or not. This is the work-list
    for ROADMAP item 1 (per-shard event lanes)."""
    sites = []
    for facts in all_facts:
        for site in facts.state_sites:
            if site.is_const:
                continue
            sites.append({
                "file": site.file,
                "line": site.line,
                "kind": site.kind,
                "name": site.name,
                "type": site.type_text,
                "annotation": site.annotation or "MISSING",
            })
    sites.sort(key=lambda s: (s["file"], s["line"]))
    return {
        "description": (
            "Mutable static-storage state in src/ — each site must be "
            "per-shard (shard_local) or explicitly shared (shared_guarded) "
            "before the engine is partitioned into per-shard event lanes."),
        "total_sites": len(sites),
        "unannotated": sum(1 for s in sites if s["annotation"] == "MISSING"),
        "sites": sites,
    }
