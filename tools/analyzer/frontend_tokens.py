"""Token/scope frontend: builds model.TuFacts without a compiler.

This is the analyzer's only frontend: it needs no compiler. It is not a
parser; it is a set of targeted scans over the token stream plus a
brace-tracking scope machine, tuned to this codebase's style (Google-ish
C++, no macros that hide braces). Where C++ is genuinely ambiguous it
prefers silence over noise — the rules it feeds are hard CI gates.
"""

from .lexer import lex, match_brace, match_paren, skip_template_args
from .model import (DiscardedCall, HandlerReg, Index, RangeFor, StateSite,
                    TuFacts)

# Container spellings -> category used by the iteration-order rule.
CONTAINER_CATEGORIES = {
    "unordered_map": "unordered",
    "unordered_set": "unordered",
    "unordered_multimap": "unordered",
    "unordered_multiset": "unordered",
    "FlatMap64": "flatmap",
    "vector": "ordered",
    "deque": "ordered",
    "string": "ordered",
    "map": "sorted",
    "set": "sorted",
    "multimap": "sorted",
    "multiset": "sorted",
}
_STD_ONLY = {k for k in CONTAINER_CATEGORIES if k != "FlatMap64"}

ANNOTATION_TOKENS = {
    "ROCKSTEADY_SHARD_LOCAL": "shard_local",
    "ROCKSTEADY_SHARED_GUARDED": "shared_guarded",
}

# Calls that feed the event schedule / outbound messages: nondeterministic
# iteration order reaching any of these escapes into the trace. Fail appends
# to the audit report's ordered message list.
SCHEDULE_ESCAPES = {
    "At", "After", "Send", "Call", "EnqueueDispatch", "EnqueueWorker",
    "EnqueueWorkerHeld", "Enqueue", "Fail",
}
APPEND_METHODS = {"push_back", "emplace_back", "push_front", "append"}

_DECL_STOPPERS = {";", "{", "=", ":"}
_STMT_STARTERS = {";", "{", "}", ")", "else", "do", ":", ","}
_NOT_DECL_KEYWORDS = {
    "using", "typedef", "template", "friend", "static_assert", "namespace",
    "class", "struct", "enum", "union", "public", "private", "protected",
    "return", "if", "for", "while", "switch", "case", "default", "goto",
    "operator", "concept", "requires",
}


def _categorize_container_at(tokens, i):
    """If tokens[i] starts a known container type spelling, returns
    (category, index_past_type) else (None, i). Handles `std::` prefixes and
    balanced template args."""
    t = tokens[i]
    if t.kind != "ident":
        return None, i
    j = i
    name = None
    if t.text == "std" and j + 2 < len(tokens) and tokens[j + 1].text == "::":
        cand = tokens[j + 2].text
        if cand in _STD_ONLY:
            name = cand
            j += 3
    elif t.text == "FlatMap64":
        # Bare spelling (it lives in namespace rocksteady, used unqualified).
        name = "FlatMap64"
        j += 1
    if name is None:
        return None, i
    # `std::string` has no template args at use sites; the rest do.
    if j < len(tokens) and tokens[j].text == "<":
        past = skip_template_args(tokens, j)
        if past < 0:
            return None, i
        j = past
    return CONTAINER_CATEGORIES[name], j


def build_index_for_file(text, index: Index):
    """Pass A: records container-typed declaration names and Status-returning
    function names from one file into the shared Index."""
    tokens = lex(text)
    n = len(tokens)
    for i in range(n):
        # Status-returning functions: `Status Name(`, excluding parameter
        # positions (`(Status s` / `, Status s`) and template args.
        t = tokens[i]
        if t.text == "Status" and t.kind == "ident":
            prev = tokens[i - 1].text if i > 0 else ";"
            if prev in ("(", ",", "<", "::"):
                continue
            if i + 2 < n and tokens[i + 1].kind == "ident" and \
                    tokens[i + 2].text == "(":
                index.status_fns.add(tokens[i + 1].text)
            continue
        cat, past = _categorize_container_at(tokens, i)
        if cat is None:
            continue
        # Declarator: optional cv/ref tokens, then the declared name, then a
        # declaration-ish terminator. Covers members, locals, params.
        j = past
        while j < n and tokens[j].text in ("const", "&", "*", "&&"):
            j += 1
        if j < n and tokens[j].kind == "ident":
            nxt = tokens[j + 1].text if j + 1 < n else ";"
            if nxt in (";", "=", "{", ",", ")", ":"):
                index.container_vars.setdefault(tokens[j].text, set()).add(cat)


# --- State sites (the scope machine). ---

def _scan_state_sites(tokens, path, facts):
    """Walks scopes to classify static-storage variable declarations."""
    n = len(tokens)
    scopes = []  # Each entry: 'namespace' | 'class' | 'enum' | 'fn' | 'init'
    stmt = []    # Tokens since the last statement boundary at this depth.
    i = 0
    while i < n:
        t = tokens[i]
        text = t.text
        if text == "{":
            kind = _classify_brace(stmt, scopes)
            if kind != "init":
                _process_stmt(stmt, scopes, path, facts)
                stmt = []
            scopes.append(kind)
            i += 1
            continue
        if text == "}":
            if scopes and scopes[-1] == "init":
                scopes.pop()
                stmt.append(t)  # Keep the surrounding statement alive.
            else:
                if scopes:
                    scopes.pop()
                stmt = []
            i += 1
            continue
        if text == ";":
            _process_stmt(stmt, scopes, path, facts)
            stmt = []
            i += 1
            continue
        stmt.append(t)
        i += 1


def _in_function(scopes):
    return any(s == "fn" for s in scopes)


def _classify_brace(stmt, scopes):
    texts = [t.text for t in stmt]
    if "namespace" in texts:
        return "namespace"
    if ("class" in texts or "struct" in texts or "union" in texts) \
            and "=" not in texts and "(" not in texts[:1]:
        # `struct X {` / `class Y : public Z {`. A `struct X x = {` init has
        # an '='; a function returning a struct has '(' later but also the
        # keyword — returning struct types by keyword is not a style used
        # here, so keyword wins.
        return "class"
    if "enum" in texts:
        return "enum"
    if _in_function(scopes):
        if not texts:
            return "fn"  # Bare block.
        if texts[-1] in ("=", ",", "(", "return") or texts[-1] == "]":
            return "init"
        if texts[-1] == ")" or texts[-1] in ("else", "do", "try", "const",
                                             "noexcept", "mutable", "->"):
            return "fn"  # Control statement body or lambda.
        if texts[-1] == ">":
            return "fn"  # `...) -> RetType {`.
        return "init"  # Uniform-init of a local: `Foo x{...}`.
    # Namespace/class scope.
    if "(" in texts and texts[-1] != "=":
        return "fn"  # Function definition (possibly after a ctor-init list).
    if texts and texts[-1] == "=":
        return "init"
    if texts and texts[-1] == "]":
        return "init"  # `int x[] = {` never reaches here, but arrays do.
    if not texts:
        return "namespace"  # Stray block at namespace scope; harmless.
    return "init"  # `Foo kTable {` style aggregate init.


def _decl_constness(texts, name_pos):
    return "const" in texts[:name_pos + 1] or "constexpr" in texts \
        or "consteval" in texts or "constinit" in texts


def _find_declared_name(stmt):
    """Returns (index, name) of the declared variable in a decl statement."""
    texts = [t.text for t in stmt]
    # Name = last ident before the first top-level '=' / '{' / end, skipping
    # template/paren groups is unnecessary because stmt stops at '{' and ';'.
    stop = len(texts)
    for marker in ("=",):
        if marker in texts:
            stop = min(stop, texts.index(marker))
    k = stop - 1
    while k >= 0:
        if stmt[k].kind == "ident" and texts[k] not in (
                "const", "constexpr", "inline", "static", "thread_local",
                "mutable", "volatile"):
            return k, texts[k]
        k -= 1
    return -1, ""


def _strip_annotations(stmt):
    """Removes annotation-macro tokens (and SHARED_GUARDED's argument group)
    from the statement so the macro's parens don't make a variable declaration
    look like a function signature. Returns (stripped_stmt, annotation_kind).
    """
    annotation = ""
    out = []
    i = 0
    while i < len(stmt):
        kind = ANNOTATION_TOKENS.get(stmt[i].text)
        if kind is None:
            out.append(stmt[i])
            i += 1
            continue
        annotation = kind
        i += 1
        if i < len(stmt) and stmt[i].text == "(":
            close = match_paren(stmt, i)
            i = (close + 1) if close >= 0 else len(stmt)
    return out, annotation


def _process_stmt(stmt, scopes, path, facts):
    stmt, annotation = _strip_annotations(stmt)
    # ':' is not a statement boundary, so the first member after an access
    # specifier arrives as `public : <decl>` — drop the specifier prefix.
    while len(stmt) >= 2 and stmt[0].text in ("public", "private",
                                              "protected") \
            and stmt[1].text == ":":
        stmt = stmt[2:]
    if not stmt:
        return
    texts = [t.text for t in stmt]
    if texts[0] in _NOT_DECL_KEYWORDS or "operator" in texts:
        return
    if "static_assert" in texts:
        return
    scope = scopes[-1] if scopes else "namespace"
    in_fn = _in_function(scopes)
    has_static = "static" in texts
    has_tls = "thread_local" in texts
    # Function declarations, definitions (their signature is the statement
    # preceding the body's '{'), and ctor-init lists all contain a '(' with
    # no '=' before it. At namespace/class scope a variable definition is
    # either parenless or '='-initialized in this tree, so '(' before any
    # '=' means "not a variable". (Bias: a ctor-style namespace-scope
    # variable would be missed — preferable to flagging every parameter.)
    paren = texts.index("(") if "(" in texts else None
    eq = texts.index("=") if "=" in texts else None
    callable_shape = paren is not None and (eq is None or paren < eq)
    if in_fn:
        if not (has_static or has_tls):
            return
        kind = "local-static"  # Ctor-style locals (`static Foo x(1);`) are
        # variables: local function declarations are not a style used here.
    elif scope == "class":
        if not (has_static or has_tls):
            # Plain data members are per-instance, not static storage — but
            # an instance member explicitly marked SHARED_GUARDED is part of
            # the sharded-execution contract (lane mailboxes, safe horizons,
            # per-lane shards) and belongs in the inventory.
            if annotation != "shared_guarded" or callable_shape:
                return
            kind = "member"
        else:
            if callable_shape:
                return  # Static member function.
            kind = "static-member"
    elif scope in ("namespace",) or not scopes:
        if callable_shape:
            return  # Free function / method definition signature.
        if "extern" in texts and "=" not in texts:
            return  # Declaration only; the defining TU owns the site.
        if "using" in texts:
            return
        kind = "global"
    else:
        return  # enum / init contexts.

    name_pos, name = _find_declared_name(stmt)
    if name_pos < 0:
        return
    # `Foo x[N]` arrays: name found is x, fine. Type text = prefix.
    type_text = " ".join(
        texts[:name_pos]).replace(" :: ", "::").replace(" < ", "<").replace(
        " > ", ">").replace(" , ", ", ")
    is_const = _decl_constness(texts, name_pos)
    why = ""
    if annotation == "shared_guarded":
        # ROCKSTEADY_SHARED_GUARDED("why"): the reason string is the token
        # after the macro's '('; the lexer blanks string contents, so recover
        # it from the raw line in the driver if needed — here keep position.
        why = "(see source)"
    facts.state_sites.append(StateSite(
        kind=kind, name=name, type_text=type_text.strip(), file=path,
        line=stmt[0].line, is_const=is_const, annotation=annotation, why=why))


# --- Range-based for loops. ---

def _scan_range_fors(tokens, path, facts):
    n = len(tokens)
    i = 0
    while i < n:
        if tokens[i].text != "for" or tokens[i].kind != "ident":
            i += 1
            continue
        if i + 1 >= n or tokens[i + 1].text != "(":
            i += 1
            continue
        close = match_paren(tokens, i + 1)
        if close < 0:
            i += 1
            continue
        # Find the range-for ':' at paren depth 1 (not '::', not inside
        # nested parens/templates, not after a ';' — that's a classic for).
        colon = -1
        depth = 0
        classic = False
        for j in range(i + 1, close + 1):
            tj = tokens[j].text
            if tj == "(":
                depth += 1
            elif tj == ")":
                depth -= 1
            elif tj == ";" and depth == 1:
                classic = True
                break
            elif tj == ":" and depth == 1 and colon < 0:
                colon = j
        if classic or colon < 0:
            i += 1
            continue
        range_tokens = tokens[colon + 1:close]
        rf = RangeFor(
            file=path, line=tokens[i].line,
            container_text=" ".join(t.text for t in range_tokens),
            container_names=[t.text for t in range_tokens
                             if t.kind == "ident"])
        # Direct type spelling in the range expression (rare but decisive).
        k = colon + 1
        while k < close:
            cat, past = _categorize_container_at(tokens, k)
            if cat is not None:
                rf.direct_category = cat
                break
            k += 1
        # Body span.
        body_start = close + 1
        if body_start < n and tokens[body_start].text == "{":
            body_end = match_brace(tokens, body_start)
        else:
            body_end = body_start
            while body_end < n and tokens[body_end].text != ";":
                body_end += 1
        for j in range(body_start, min(max(body_end, body_start), n)):
            tj = tokens[j]
            if tj.kind == "ident" and j + 1 < n and tokens[j + 1].text == "(":
                rf.body_calls.add(tj.text)
                if tj.text in APPEND_METHODS and j >= 2 and \
                        tokens[j - 1].text in (".", "->") and \
                        tokens[j - 2].kind == "ident":
                    rf.body_appends.append((tokens[j - 2].text, tj.text))
        facts.range_fors.append(rf)
        i = close + 1


# --- Discarded Status-returning calls. ---

def _chain_start(tokens, i):
    """First token index of the postfix chain ending in the callee at `i`
    (e.g. `cluster_->coordinator().Split` from `Split` back to `cluster_`).
    Steps over member-access operators and balanced call/index groups; an
    identifier is consumed only when reached through an accessor, so a
    declaration's `Status Split(...)` keeps `Split` as its own head."""
    k = i
    while k >= 1 and tokens[k - 1].text in (".", "->", "::"):
        j = k - 2  # Operand to the left of the accessor.
        if j >= 0 and tokens[j].text in (")", "]"):
            depth = 1
            j -= 1
            while j >= 0 and depth > 0:
                tj = tokens[j].text
                if tj in (")", "]"):
                    depth += 1
                elif tj in ("(", "["):
                    depth -= 1
                j -= 1
            # j is now just before the matching open bracket; a call has its
            # callee identifier there.
            if j >= 0 and tokens[j].kind == "ident":
                k = j
            else:
                k = j + 1
        elif j >= 0 and (tokens[j].kind == "ident"
                         or tokens[j].text == "this"):
            k = j
        else:
            break
    return k


def _scan_discarded_calls(tokens, path, facts, status_fns):
    n = len(tokens)
    for i in range(n):
        t = tokens[i]
        if t.kind != "ident" or t.text not in status_fns:
            continue
        if i + 1 >= n or tokens[i + 1].text != "(":
            continue
        close = match_paren(tokens, i + 1)
        if close < 0 or close + 1 >= n:
            continue
        if tokens[close + 1].text != ";":
            continue  # Result flows onward (or this is a definition).
        head = _chain_start(tokens, i)
        before = tokens[head - 1].text if head >= 1 else ";"
        # `(void) Call();` is a deliberate, visible discard.
        if before == ")" and head >= 3 and tokens[head - 2].text == "void" \
                and tokens[head - 3].text == "(":
            continue
        if before in _STMT_STARTERS:
            facts.discarded_calls.append(
                DiscardedCall(file=path, line=t.line, callee=t.text))


# --- RPC handler registrations. ---

def _scan_handler_regs(tokens, path, facts):
    n = len(tokens)
    for i in range(n):
        if tokens[i].text != "Register" or tokens[i].kind != "ident":
            continue
        if i + 1 >= n or tokens[i + 1].text != "(":
            continue
        close = match_paren(tokens, i + 1)
        if close < 0:
            continue
        span = tokens[i:close + 1]
        texts = [t.text for t in span]
        opcode = ""
        for j in range(len(texts) - 2):
            if texts[j] == "Opcode" and texts[j + 1] == "::":
                opcode = texts[j + 2]
                break
        if not opcode:
            continue  # Some other Register() overload.
        has_idempotent = "ROCKSTEADY_IDEMPOTENT" in texts
        has_dedup = any(t.kind == "ident" and "edup" in t.text for t in span)
        facts.handler_regs.append(HandlerReg(
            file=path, line=tokens[i].line, opcode=opcode,
            has_idempotent=has_idempotent, has_dedup_guard=has_dedup))


def analyze_file(text, path, index: Index) -> TuFacts:
    """Pass B: extracts all facts from one file."""
    tokens = lex(text)
    facts = TuFacts(file=path)
    _scan_state_sites(tokens, path, facts)
    _scan_range_fors(tokens, path, facts)
    _scan_discarded_calls(tokens, path, facts, index.status_fns)
    _scan_handler_regs(tokens, path, facts)
    return facts
