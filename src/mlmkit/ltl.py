"""Temporal formulas as models over the supplementary logic hierarchy, and
runtime verification by rewriting.

Formulas are ordinary models: operator nodes typed by the logic model, glued
by formula/left/right arrows under a single root marker.  Atomic propositions
are double-typed nodes whose application types form an embedded pattern
fragment, evaluated by matching the fragment against a snapshot.  One monitor
step unrolls the temporal operators (the residual is a copy of the term, so
it stays intact), evaluates the atoms outside the next-operator region, folds
boolean constants and finally strips the next operators.  Each stage reads
the formula model as a term and writes the model afresh.
"""

from __future__ import annotations

import re

from .graph import Arrow, graph
from .hierarchy import (
    APPLICATION,
    ROOT_MODEL,
    ElementTyping,
    Hierarchy,
    Model,
    SUPPLEMENTARY,
    System,
    TypeRef,
)
from .matching import typed_matches
from .rewrite import _survivors
from .rules import PatternBlock, PatternElement

UNARY_OPS = {"not": "Not", "X": "X", "F": "F", "G": "G"}
BINARY_OPS = {"and": "And", "or": "Or", "impl": "Implication", "U": "U", "R": "R"}
NODE_TO_OP = {v: k for k, v in {**UNARY_OPS, **BINARY_OPS}.items()}


def make_ltl_hierarchy() -> Hierarchy:
    """The supplementary logic hierarchy: one model with the operator grammar
    encoded as nodes, specialisation arrows and the three structure arrows."""
    ops = ["Not", "X", "F", "G", "And", "Or", "Implication", "U", "R"]
    leaves = ["Atomic", "True", "False"]
    nodes = ["Formula", "Unary", "Binary", "Root"] + ops + leaves
    inherits = []
    for n in ["Not", "X", "F", "G"]:
        inherits.append(Arrow(f"s_{n}", n, "Unary"))
    for n in ["And", "Or", "Implication", "U", "R"]:
        inherits.append(Arrow(f"s_{n}", n, "Binary"))
    for n in ["Unary", "Binary"] + leaves:
        inherits.append(Arrow(f"s_{n}", n, "Formula"))
    arrows = [
        Arrow("formula", "Unary", "Formula"),
        Arrow("left", "Binary", "Formula"),
        Arrow("right", "Binary", "Formula"),
        Arrow("rootf", "Root", "Formula"),
    ]
    m = Model(
        "ltl",
        graph(nodes, arrows + inherits),
        abstract=frozenset({"Formula", "Unary", "Binary"}),
        inherit_arrows=frozenset(inherits),
    )
    return Hierarchy("ltl", SUPPLEMENTARY).with_model(m, ROOT_MODEL)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------
#
# ("const", bool) | ("atom", name) | (op, sub...) with op in UNARY/BINARY_OPS


_TOK = re.compile(r"\s*([()!]|->|&|\||[A-Za-z_][A-Za-z_0-9]*)")


def parse_formula(text: str):
    """Convenience notation: `G(obs -> X(!obs U to))`; `!`, `&`, `|`, `->`,
    `X F G U R` as operators, lowercase names as atoms, true/false constants."""
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOK.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad formula at {text[pos:]!r}")
            break
        toks.append(m.group(1))
        pos = m.end()
    out, rest = _parse_impl(toks)
    if rest:
        raise ValueError(f"trailing input {rest!r}")
    return out


def _parse_impl(toks):
    left, toks = _parse_or(toks)
    if toks and toks[0] == "->":
        right, toks = _parse_impl(toks[1:])
        return ("impl", left, right), toks
    return left, toks


def _parse_or(toks):
    left, toks = _parse_and(toks)
    while toks and toks[0] == "|":
        right, toks = _parse_and(toks[1:])
        left = ("or", left, right)
    return left, toks


def _parse_and(toks):
    left, toks = _parse_until(toks)
    while toks and toks[0] == "&":
        right, toks = _parse_until(toks[1:])
        left = ("and", left, right)
    return left, toks


def _parse_until(toks):
    left, toks = _parse_unary(toks)
    if toks and toks[0] in ("U", "R"):
        op = toks[0]
        right, toks = _parse_until(toks[1:])
        return (op, left, right), toks
    return left, toks


def _parse_unary(toks):
    if not toks:
        raise ValueError("unexpected end of formula")
    t = toks[0]
    if t == "!":
        sub, toks = _parse_unary(toks[1:])
        return ("not", sub), toks
    if t in ("X", "F", "G"):
        sub, toks = _parse_unary(toks[1:])
        return (t, sub), toks
    if t == "(":
        sub, toks = _parse_impl(toks[1:])
        if not toks or toks[0] != ")":
            raise ValueError("missing )")
        return sub, toks[1:]
    if t == "true":
        return ("const", True), toks[1:]
    if t == "false":
        return ("const", False), toks[1:]
    if re.fullmatch(r"[a-z_][A-Za-z_0-9]*", t):
        return ("atom", t), toks[1:]
    raise ValueError(f"unexpected token {t!r}")


def render_term(t) -> str:
    op = t[0]
    if op == "const":
        return "true" if t[1] else "false"
    if op == "atom":
        return t[1]
    if op == "not":
        return f"!{render_term(t[1])}"
    if op in ("X", "F", "G"):
        return f"{op}({render_term(t[1])})"
    sym = {"and": "&", "or": "|", "impl": "->", "U": "U", "R": "R"}[op]
    return f"({render_term(t[1])} {sym} {render_term(t[2])})"


# ---------------------------------------------------------------------------
# Formula models
# ---------------------------------------------------------------------------


def _ltl_kind(model: Model, key):
    """The logic-operator node typing an element, or None."""
    for ref in model.typings[key].supplementary.values():
        return ref.elem
    return None


def build_formula_model(
    term,
    name: str = "property",
    fragments: dict | None = None,
) -> Model:
    """A fresh model for the term: operator nodes n1, n2, ... under a root
    marker r0.  `fragments` maps atom names to application TypeRefs, attached
    as second types on the atomic nodes."""
    fragments = fragments or {}
    return _write(term, name, lambda t: (fragments.get(t[1]), {"prop": t[1]}))


def _write(term, name: str, atom) -> Model:
    """build_formula_model, with atom(t) giving an atomic node's own type
    and attribute values."""
    ltl_name = "ltl"
    nodes: list[str] = []
    arrows: list[Arrow] = []
    typings: dict = {}
    attr_values: dict = {}
    counter = [0]

    def supp(key, type_name, own=None):
        typings[key] = ElementTyping(own, {ltl_name: TypeRef(ltl_name, type_name)})

    def emit(t) -> str:
        counter[0] += 1
        me = f"n{counter[0]}"
        nodes.append(me)
        op = t[0]
        if op == "const":
            supp(me, "True" if t[1] else "False")
        elif op == "atom":
            own, attr_values[me] = atom(t)
            supp(me, "Atomic", own)
        elif op in UNARY_OPS:
            supp(me, UNARY_OPS[op])
            child = emit(t[1])
            a = Arrow(f"f{me}", me, child)
            arrows.append(a)
            supp(a, Arrow("formula", "Unary", "Formula"))
        else:
            supp(me, BINARY_OPS[op])
            l = emit(t[1])
            r = emit(t[2])
            la = Arrow(f"l{me}", me, l)
            ra = Arrow(f"r{me}", me, r)
            arrows.extend((la, ra))
            supp(la, Arrow("left", "Binary", "Formula"))
            supp(ra, Arrow("right", "Binary", "Formula"))
        return me

    top = emit(term)
    del emit  # a closure that calls itself is a reference cycle: free it now
    nodes.append("r0")
    supp("r0", "Root")
    ra = Arrow("rootf0", "r0", top)
    arrows.append(ra)
    supp(ra, Arrow("rootf", "Root", "Formula"))
    return Model(name, graph(nodes, arrows), typings, attr_values=attr_values)


def formula_system(term, fragments: dict | None = None) -> System:
    """A standalone system holding one formula model typed by the logic
    hierarchy (application side defaults to the root types)."""
    model = build_formula_model(term, "property", fragments)
    app = Hierarchy("formulas", APPLICATION).with_model(model, ROOT_MODEL)
    return System(app, {"ltl": make_ltl_hierarchy()})


def _structure(model: Model):
    """Logic kinds, child maps and root node (None without a root marker) of
    a formula model."""
    kinds = {n: _ltl_kind(model, n) for n in model.graph.nodes}
    out: dict[str, dict[str, str]] = {n: {} for n in model.graph.nodes}
    root = None
    for a in model.plain_arrows:
        kind = _ltl_kind(model, a)
        if not isinstance(kind, Arrow):
            continue
        if kind.name == "rootf":
            root = a.tgt
        else:
            out[a.src][kind.name] = a.tgt
    return kinds, out, root


def _read(model: Model, atom=lambda t, now: t):
    """The unfolding of to_term, where an atomic node reads as
    ("atom", prop, node) passed through atom(term, now): now says the walk
    reached it without crossing a next operator."""
    kinds, children, root = _structure(model)
    if root is None:
        raise ValueError(f"{model.name} has no root formula")

    def walk(n, now, depth=0):
        if depth > model.graph.size + 2:
            raise ValueError("formula structure is cyclic")
        k = kinds.get(n)
        if k == "True":
            return ("const", True)
        if k == "False":
            return ("const", False)
        if k == "Atomic":
            return atom(("atom", model.attr_values.get(n, {}).get("prop", n), n), now)
        if k in ("Not", "X", "F", "G"):
            return (NODE_TO_OP[k], walk(children[n]["formula"], now and k != "X", depth + 1))
        if k in ("And", "Or", "Implication", "U", "R"):
            return (
                NODE_TO_OP[k],
                walk(children[n]["left"], now, depth + 1),
                walk(children[n]["right"], now, depth + 1),
            )
        raise ValueError(f"node {n} is not a formula element (kind {k})")

    term = walk(root, True)
    del walk  # a closure that calls itself is a reference cycle: free it now
    return term


def to_term(system: System, model_name: str):
    """Unfold the model from its root into a term; shared subgraphs are
    duplicated, unreachable junk ignored."""
    return _read(system.find_model(model_name), lambda t, now: t[:2])


def _rebuild(system: System, model: Model, term) -> System:
    """The system with the formula model written afresh for a term read from
    it: each atomic node keeps the own type and the attribute values of the
    node its atom was read from."""

    def atom(t):
        _, prop, node = t
        return model.typings[node].own, {**model.attr_values.get(node, {}), "prop": prop}

    return system.replace_model(_write(term, model.name, atom))


# ---------------------------------------------------------------------------
# The library step: read the model as a term, step the term, write it back
# ---------------------------------------------------------------------------


def unroll(system: System, model_name: str) -> System:
    """One unrolling generation: every until/release/eventually/globally node
    outside a next operator is split into its now-part and a next-state copy
    of itself, which stays raw."""
    model = system.find_model(model_name)
    return _rebuild(system, model, _unroll(_read(model)))


def evaluate_atomics(system: System, model_name: str, snapshot: str) -> System:
    """Replace each atomic proposition outside the next-operator region by the
    truth of matching its embedded fragment against the snapshot."""
    model = system.find_model(model_name)

    def atom(t, now):
        return ("const", fragment_holds(system, model_name, t[2], snapshot)) if now else t

    return _rebuild(system, model, _read(model, atom))


def simplify_and_step(system: System, model_name: str) -> System:
    """Fold boolean constants, then strip every next operator so the residual
    is ready for the following snapshot."""
    model = system.find_model(model_name)
    return _rebuild(system, model, _simplify(_strip_next(_simplify(_read(model)))))


def monitor_step(system: System, model_name: str, snapshot: str) -> System:
    """One verification step against one snapshot: unroll, evaluate the atoms
    outside the next region, simplify, strip the next operators."""
    system = unroll(system, model_name)
    system = evaluate_atomics(system, model_name, snapshot)
    return simplify_and_step(system, model_name)


def _unroll(t):
    op = t[0]
    if op in ("const", "atom", "X"):  # a next operator's operand stays raw
        return t
    if op == "F":
        return ("or", _unroll(t[1]), ("X", t))
    if op == "G":
        return ("and", _unroll(t[1]), ("X", t))
    if op == "U":
        return ("or", _unroll(t[2]), ("and", _unroll(t[1]), ("X", t)))
    if op == "R":
        return ("and", _unroll(t[2]), ("or", _unroll(t[1]), ("X", t)))
    return (op, *map(_unroll, t[1:]))


def _strip_next(t):
    op = t[0]
    if op == "X":
        return _strip_next(t[1])
    if op in ("const", "atom"):
        return t
    return (op, *map(_strip_next, t[1:]))


TRUE, FALSE = ("const", True), ("const", False)


def _simplify(t):
    """Fold boolean constants bottom-up, through the temporal operators too."""
    op = t[0]
    if op in ("const", "atom"):
        return t
    if op in UNARY_OPS:
        s = _simplify(t[1])
        if op == "not" and s[0] == "const":
            return ("const", not s[1])
        if (op, s) in (("F", TRUE), ("G", FALSE)):
            return s
        return (op, s)
    l, r = _simplify(t[1]), _simplify(t[2])
    if op == "and":
        if FALSE in (l, r):
            return FALSE
        if l == TRUE:
            return r
        if r == TRUE:
            return l
    elif op == "or":
        if TRUE in (l, r):
            return TRUE
        if l == FALSE:
            return r
        if r == FALSE:
            return l
    elif op == "impl":
        if l == FALSE or r == TRUE:
            return TRUE
        if l == TRUE:
            return r
        if r == FALSE:
            return ("not", l)
    elif op == "U":
        if r == TRUE:
            return TRUE
        if l == FALSE:
            return r
    elif op == "R":
        if r == FALSE:
            return FALSE
        if l == TRUE:
            return r
    return (op, l, r)


def fragment_holds(system: System, model_name: str, atomic: str, snapshot: str) -> bool:
    """Match the atomic node's embedded pattern fragment (its application-typed
    projection) into the snapshot, each element's image typed by the
    element's own type; an empty fragment holds trivially."""
    model = system.find_model(model_name)
    frag = _fragment_elements(system, model, atomic)
    if not frag:
        return True
    pattern = PatternBlock.of(
        PatternElement(e.name, "arrow", src=e.src, tgt=e.tgt)
        if isinstance(e, Arrow)
        else PatternElement(e, "node")
        for e in frag
    )

    def type_of(el: PatternElement):
        own = model.typings[el.key].own
        return (own.model, own.elem)

    return bool(typed_matches(system, pattern, snapshot, type_of))


def _fragment_elements(system: System, model: Model, atomic: str):
    """Application-typed elements connected to the atomic node (including it),
    via application-typed arrows."""

    def app_typed(key) -> bool:
        own = model.typings[key].own
        if own.model == ROOT_MODEL:
            return False
        return system.hierarchy_of(own.model).dimension == APPLICATION

    if not app_typed(atomic):
        return []
    elems = {atomic}
    changed = True
    while changed:
        changed = False
        for a in model.plain_arrows:
            if not app_typed(a):
                continue
            if (a.src in elems or a.tgt in elems) and a not in elems:
                if app_typed(a.src) and app_typed(a.tgt):
                    elems.update((a, a.src, a.tgt))
                    changed = True
    return sorted(elems, key=repr)



# ---------------------------------------------------------------------------
# The same step driven by the shipped rewrite rules
# ---------------------------------------------------------------------------


def _live(system: System, model_name: str):
    """One breadth-first walk from the root over the structure arrows, which
    collects the formula garbage and describes the live formula.  Formula
    nodes the walk does not reach are dropped with their arrows, typings and
    attributes (the model is rebuilt only if there are any); root markers and
    nodes without a logic kind stay.  Returns the system, the logic kinds
    present, each live node's shortest distance from the root marker (next
    operators included, the marker at -1) and the now-positions: the marker
    and the nodes reached without crossing a next operator, next operators
    excluded."""
    model = system.find_model(model_name)
    kinds, children, root = _structure(model)
    depths = {n: -1 for n, k in kinds.items() if k == "Root"}
    now = set(depths)
    walk = [(root, 0, True)]
    for n, d, unguarded in walk:  # grows while it is read
        unguarded = unguarded and kinds.get(n) != "X"  # an X's operand is the next state
        if n is None or n in (now if unguarded else depths):
            continue
        depths.setdefault(n, d)
        if unguarded:
            now.add(n)
        walk.extend((c, d + 1, unguarded) for c in children[n].values())
    live = {n for n, k in kinds.items() if k is None or n in depths}
    if len(live) < len(kinds):
        arrows = (a for a in model.graph.arrows if a.src in live and a.tgt in live)
        system = system.replace_model(_survivors(model, graph(live, arrows), {}, {}))
    return system, {kinds[n] for n in live}, depths, now


def _concrete_kinds(system: System, model_name: str) -> frozenset:
    """The logic kinds of the models typing the formula that no
    specialisation arrow points into: a node matched against such a kind
    has exactly that kind."""
    model = system.find_model(model_name)
    names = {ref.model for t in model.typings.values() for ref in t.supplementary.values()}
    logic = [system.find_model(name) for name in names]
    kinds = set().union(*(m.graph.nodes for m in logic))
    return frozenset(kinds - {a.tgt for m in logic for a in m.inherit_arrows})


def rewrite_with_rules(system: System, model_name: str, rules: dict, cap: int = 4000) -> System:
    """Apply the shipped formula rules in phases: unrolling on the next-free
    region (outermost positions first, so next-state copies stay raw), boolean
    and temporal-constant folding, next removal, folding again.  Equivalent on
    unfolded terms to unroll followed by simplify_and_step.  A rule is tried
    only while every concrete logic kind its FROM nodes are typed by occurs
    in the live formula; otherwise one of them has no candidate.

    Each application is a term graph rewrite step in three parts (Plump,
    "Term graph rewriting", 1999): apply_rule builds the new subterm and
    redirects the parent's arrow to it, then the formula nodes the
    redirection left unreachable from the root marker are collected with
    their arrows, typings and attributes, so matching scans only the live
    formula.

    The meta bindings come from matching.meta_bindings.  They read only the
    stack above the formula model, which the rewrites never change, so each
    new system value carries them over and the meta chains are matched once
    per call.  More than cap applications raise a RuntimeError naming the
    phase, the last rule applied and the formula reached."""
    from .matching import bind_lhs, meta_bindings
    from .rewrite import NotApplicable, apply_rule

    spent = 0

    def applied(phase: str, name: str) -> None:
        nonlocal spent
        spent += 1
        if spent > cap:
            raise RuntimeError(
                f"formula rewriting did not converge within {cap} rule applications "
                f"(phase {phase}, last rule {name}): {render_term(to_term(system, model_name))}"
            )

    concrete = _concrete_kinds(system, model_name)
    needs = {name: rule.from_kinds & concrete for name, rule in rules.items()}
    phases = (("Unroll", True), ("Fold", False), ("DeleteNext", False), ("Fold", False))
    for phase, guarded in phases:
        names = [n for n in sorted(rules) if n.startswith(phase)]
        if guarded:
            # outermost-first: always rewrite the shallowest now-position
            while True:
                system, kinds_here, depths, now = _live(system, model_name)
                best = None
                for name in names:
                    rule = rules[name]
                    if not needs[name] <= kinds_here:
                        continue
                    for b in meta_bindings(system, rule, model_name):
                        for m in bind_lhs(system, rule, b, model_name):
                            p = m.mu_map().get("p")
                            if p not in now:
                                continue
                            key = (depths[p], name, m.sort_key())
                            if best is None or key < best[0]:
                                best = (key, rule, m)
                if best is None:
                    break
                _, rule, m = best
                system = apply_rule(system, rule, model_name, m, postfilter=False).system
                applied(phase, rule.name)
        else:
            progress = True
            while progress:
                progress = False
                system, kinds_here, _, _ = _live(system, model_name)
                for name in names:
                    rule = rules[name]
                    while needs[name] <= kinds_here:
                        m = None
                        for b in meta_bindings(system, rule, model_name):
                            hits = bind_lhs(system, rule, b, model_name)
                            if hits:
                                m = hits[0]
                                break
                        if m is None:
                            break
                        try:
                            system = apply_rule(
                                system, rule, model_name, m, postfilter=False
                            ).system
                        except NotApplicable:
                            break
                        progress = True
                        applied(phase, name)
                        system, kinds_here, _, _ = _live(system, model_name)
    return system


def verdict(system: System, model_name: str):
    """True/False once decided, None while still open."""
    t = to_term(system, model_name)
    if t == ("const", True):
        return True
    if t == ("const", False):
        return False
    return None
