"""Frontend-neutral facts extracted from one translation unit.

The token/scope frontend reduces a TU to these records; rules.py never
looks at tokens, so the rules stay independent of how the facts were
extracted and the fixture tests exercise them through the facts alone.
"""

from dataclasses import dataclass, field


@dataclass
class StateSite:
    """A variable with static storage duration (candidate shared state), or
    an instance member explicitly annotated as lane-shared."""
    kind: str  # 'global' | 'static-member' | 'local-static' | 'member'
    name: str
    type_text: str
    file: str
    line: int
    is_const: bool
    annotation: str = ""  # '' | 'shard_local' | 'shared_guarded'
    why: str = ""


@dataclass
class RangeFor:
    """A range-based for loop."""
    file: str
    line: int
    container_text: str          # Source text of the range expression.
    container_names: list = field(default_factory=list)  # Idents in it.
    direct_category: str = ""    # Category if the range expr names a type.
    body_calls: set = field(default_factory=set)     # Callee identifiers.
    body_appends: list = field(default_factory=list)  # (receiver, method).


@dataclass
class DiscardedCall:
    """A call whose result is discarded at statement level."""
    file: str
    line: int
    callee: str


@dataclass
class HandlerReg:
    """An RpcEndpoint::Register(Opcode::..., handler) site."""
    file: str
    line: int
    opcode: str
    has_idempotent: bool
    has_dedup_guard: bool


@dataclass
class TuFacts:
    file: str
    state_sites: list = field(default_factory=list)
    range_fors: list = field(default_factory=list)
    discarded_calls: list = field(default_factory=list)
    handler_regs: list = field(default_factory=list)


@dataclass
class Index:
    """Cross-file context shared by every TU analysis."""
    # Variable/parameter name -> set of container categories seen for that
    # name anywhere in the analyzed tree ('unordered', 'flatmap', 'ordered',
    # 'sorted'). Names are unqualified; the tree's naming conventions make
    # them effectively unique, and rules only act when the categories are
    # unambiguous.
    container_vars: dict = field(default_factory=dict)
    # Names of functions whose declared return type is Status.
    status_fns: set = field(default_factory=set)


@dataclass(frozen=True)
class Finding:
    rule: str
    file: str
    line: int
    message: str
