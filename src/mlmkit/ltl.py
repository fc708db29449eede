"""Temporal formulas as models over the supplementary logic hierarchy, and
runtime verification by rewriting.

Formulas are ordinary models: operator nodes typed by the logic model, glued
by formula/left/right arrows under a single root marker.  Atomic propositions
are double-typed nodes whose application types form an embedded pattern
fragment, evaluated by matching the fragment against a snapshot.  One monitor
step unrolls the temporal operators (copying subformulas, so the residual
stays intact), evaluates the atoms outside the next-operator region, folds
boolean constants and finally strips the next operators.
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


def _supp_type(system: System, model: Model, key):
    for ref in model.typings[key].supplementary.values():
        return ref
    return None


def _ltl_kind(system: System, model: Model, key):
    """The logic-operator node typing an element, or None."""
    ref = _supp_type(system, model, key)
    return ref.elem if ref else None


def build_formula_model(
    term,
    name: str = "property",
    fragments: dict | None = None,
) -> Model:
    """A fresh model for the term: operator nodes n1, n2, ... under a root
    marker r0.  `fragments` maps atom names to application TypeRefs, attached
    as second types on the atomic nodes."""
    fragments = fragments or {}
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
            supp(me, "Atomic", fragments.get(t[1]))
            attr_values[me] = {"prop": t[1]}
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


def _structure(system: System, model: Model):
    """Logic kinds, child maps and root node (None without a root marker) of
    a formula model."""
    kinds = {n: _ltl_kind(system, model, n) for n in model.graph.nodes}
    out: dict[str, dict[str, str]] = {n: {} for n in model.graph.nodes}
    root = None
    for a in model.plain_arrows:
        kind = _ltl_kind(system, model, a)
        if not isinstance(kind, Arrow):
            continue
        if kind.name == "rootf":
            root = a.tgt
        else:
            out[a.src][kind.name] = a.tgt
    return kinds, out, root


def to_term(system: System, model_name: str):
    """Unfold the model from its root into a term; shared subgraphs are
    duplicated, unreachable junk ignored."""
    model = system.find_model(model_name)
    kinds, children, root = _structure(system, model)
    if root is None:
        raise ValueError(f"{model_name} has no root formula")

    def walk(n, depth=0):
        if depth > model.graph.size + 2:
            raise ValueError("formula structure is cyclic")
        k = kinds.get(n)
        if k == "True":
            return ("const", True)
        if k == "False":
            return ("const", False)
        if k == "Atomic":
            return ("atom", model.attr_values.get(n, {}).get("prop", n))
        if k in ("Not", "X", "F", "G"):
            return (NODE_TO_OP[k], walk(children[n]["formula"], depth + 1))
        if k in ("And", "Or", "Implication", "U", "R"):
            return (
                NODE_TO_OP[k],
                walk(children[n]["left"], depth + 1),
                walk(children[n]["right"], depth + 1),
            )
        raise ValueError(f"node {n} is not a formula element (kind {k})")

    term = walk(root)
    del walk  # a closure that calls itself is a reference cycle: free it now
    return term


# ---------------------------------------------------------------------------
# The rewriting operations (graph level)
# ---------------------------------------------------------------------------


class _Builder:
    """Accumulates a rewritten formula model with fresh deterministic names:
    its nodes, arrows, typings and attribute values, from which finish
    constructs the model."""

    def __init__(self, system: System, model: Model):
        self.system = system
        self.model = model
        self.nodes: list[str] = []
        self.arrows: list[Arrow] = []
        self.typings: dict = {}
        self.attr_values: dict = {}
        self.counter = 0
        self.supp_hier = next(iter(model.typings[next(iter(model.graph.nodes))].supplementary))

    def fresh(self, kind: str, own: TypeRef | None = None) -> str:
        self.counter += 1
        name = f"n{self.counter}"
        while name in self.model.graph.nodes or name in self.nodes:
            self.counter += 1
            name = f"n{self.counter}"
        self.nodes.append(name)
        self.typings[name] = ElementTyping(own, {self.supp_hier: TypeRef(self.supp_hier, kind)})
        return name

    def link(self, src: str, tgt: str, slot: str):
        self.counter += 1
        a = Arrow(f"{slot[0]}{src}_{self.counter}", src, tgt)
        self.arrows.append(a)
        kind = {
            "formula": Arrow("formula", "Unary", "Formula"),
            "left": Arrow("left", "Binary", "Formula"),
            "right": Arrow("right", "Binary", "Formula"),
            "rootf": Arrow("rootf", "Root", "Formula"),
        }[slot]
        self.typings[a] = ElementTyping(None, {self.supp_hier: TypeRef(self.supp_hier, kind)})
        return a

    def kind_of(self, n: str):
        """The logic kind of a node already built."""
        return next(iter(self.typings[n].supplementary.values())).elem

    def finish(self) -> System:
        model = Model(
            self.model.name,
            graph(self.nodes, self.arrows),
            self.typings,
            attr_values=self.attr_values,
        )
        return self.system.replace_model(model)


def unroll(system: System, model_name: str) -> System:
    """One unrolling generation: every until/release/eventually/globally node
    is split into its now-part and a next-state copy; subformulas are copied
    so later evaluation cannot corrupt the residual."""
    model = system.find_model(model_name)
    kinds, children, root = _structure(system, model)
    b = _Builder(system, model)

    def copy_subtree(n: str) -> str:
        return _copy_any(b, model, kinds, children, n)

    def walk(n: str) -> str:
        # guarded normal form: temporal operators outside an X expand, the
        # next-state copies under the created X stay raw
        k = kinds[n]
        if k == "U":
            phi, psi = children[n]["left"], children[n]["right"]
            or_ = b.fresh("Or")
            and_ = b.fresh("And")
            x = b.fresh("X")
            b.link(or_, walk(psi), "left")
            b.link(or_, and_, "right")
            b.link(and_, walk(phi), "left")
            b.link(and_, x, "right")
            u2 = b.fresh("U")
            b.link(u2, copy_subtree(phi), "left")
            b.link(u2, copy_subtree(psi), "right")
            b.link(x, u2, "formula")
            return or_
        if k == "R":
            phi, psi = children[n]["left"], children[n]["right"]
            and_ = b.fresh("And")
            or_ = b.fresh("Or")
            x = b.fresh("X")
            b.link(and_, walk(psi), "left")
            b.link(and_, or_, "right")
            b.link(or_, walk(phi), "left")
            b.link(or_, x, "right")
            r2 = b.fresh("R")
            b.link(r2, copy_subtree(phi), "left")
            b.link(r2, copy_subtree(psi), "right")
            b.link(x, r2, "formula")
            return and_
        if k == "F":
            phi = children[n]["formula"]
            or_ = b.fresh("Or")
            x = b.fresh("X")
            f2 = b.fresh("F")
            b.link(or_, walk(phi), "left")
            b.link(or_, x, "right")
            b.link(f2, copy_subtree(phi), "formula")
            b.link(x, f2, "formula")
            return or_
        if k == "G":
            phi = children[n]["formula"]
            and_ = b.fresh("And")
            x = b.fresh("X")
            g2 = b.fresh("G")
            b.link(and_, walk(phi), "left")
            b.link(and_, x, "right")
            b.link(g2, copy_subtree(phi), "formula")
            b.link(x, g2, "formula")
            return and_
        if k == "X":
            me = b.fresh(k)
            b.link(me, copy_subtree(children[n]["formula"]), "formula")
            return me
        if k == "Not":
            me = b.fresh(k)
            b.link(me, walk(children[n]["formula"]), "formula")
            return me
        if k in ("And", "Or", "Implication"):
            me = b.fresh(k)
            b.link(me, walk(children[n]["left"]), "left")
            b.link(me, walk(children[n]["right"]), "right")
            return me
        return copy_subtree(n)  # leaves

    if root is None:
        raise ValueError("no root formula")
    top = walk(root)
    del walk  # a closure that calls itself is a reference cycle: free it now
    r0 = b.fresh("Root")
    b.link(r0, top, "rootf")
    return b.finish()


def evaluate_atomics(system: System, model_name: str, snapshot: str) -> System:
    """Replace each atomic proposition outside the next-operator region by the
    truth of matching its embedded fragment against the snapshot."""
    model = system.find_model(model_name)
    kinds, children, root = _structure(system, model)
    b = _Builder(system, model)

    def protected_walk(n: str) -> str:  # under X: copy verbatim
        return _copy_any(b, model, kinds, children, n)

    def walk(n: str) -> str:
        k = kinds[n]
        if k == "Atomic":
            value = fragment_holds(system, model_name, n, snapshot)
            return b.fresh("True" if value else "False")
        if k == "X":
            me = b.fresh("X")
            b.link(me, protected_walk(children[n]["formula"]), "formula")
            return me
        if k in ("Not", "F", "G"):
            me = b.fresh(k)
            b.link(me, walk(children[n]["formula"]), "formula")
            return me
        if k in ("And", "Or", "Implication", "U", "R"):
            me = b.fresh(k)
            b.link(me, walk(children[n]["left"]), "left")
            b.link(me, walk(children[n]["right"]), "right")
            return me
        return _copy_any(b, model, kinds, children, n)

    top = walk(root)
    del walk  # a closure that calls itself is a reference cycle: free it now
    r0 = b.fresh("Root")
    b.link(r0, top, "rootf")
    return b.finish()


def _copy_any(b: _Builder, model, kinds, children, n: str) -> str:
    me = b.fresh(kinds[n], model.typings[n].own)
    if n in model.attr_values:
        b.attr_values[me] = model.attr_values[n]
    for slot in ("formula", "left", "right"):
        if slot in children.get(n, {}):
            b.link(me, _copy_any(b, model, kinds, children, children[n][slot]), slot)
    return me


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
# Simplification
# ---------------------------------------------------------------------------


def _fold(kinds, children, b, model, n: str, strip_x: bool) -> str:
    k = kinds[n]
    if k in ("Not", "F", "G", "X"):
        child = children[n]["formula"]
        if k == "X" and strip_x:
            return _fold(kinds, children, b, model, child, strip_x)
        sub = _fold(kinds, children, b, model, child, strip_x)
        sk = b.kind_of(sub)
        if k == "Not" and sk in ("True", "False"):
            return b.fresh("False" if sk == "True" else "True")
        if k == "F" and sk == "True":
            return b.fresh("True")
        if k == "G" and sk == "False":
            return b.fresh("False")
        me = b.fresh(k)
        b.link(me, sub, "formula")
        return me
    if k in ("And", "Or", "Implication", "U", "R"):
        l = _fold(kinds, children, b, model, children[n]["left"], strip_x)
        r = _fold(kinds, children, b, model, children[n]["right"], strip_x)
        lk, rk = b.kind_of(l), b.kind_of(r)
        if k == "And":
            if lk == "False" or rk == "False":
                return b.fresh("False")
            if lk == "True":
                return r
            if rk == "True":
                return l
        if k == "Or":
            if lk == "True" or rk == "True":
                return b.fresh("True")
            if lk == "False":
                return r
            if rk == "False":
                return l
        if k == "Implication":
            if lk == "False" or rk == "True":
                return b.fresh("True")
            if lk == "True":
                return r
            if rk == "False":
                me = b.fresh("Not")
                b.link(me, l, "formula")
                return me
        if k == "U":
            if rk == "True":
                return b.fresh("True")
            if rk == "False" and lk == "False":
                return b.fresh("False")
            if lk == "False":
                return r
        if k == "R":
            if rk == "False":
                return b.fresh("False")
            if lk == "True":
                return r
        me = b.fresh(k)
        b.link(me, l, "left")
        b.link(me, r, "right")
        return me
    return _copy_any(b, model, kinds, children, n)


def simplify_and_step(system: System, model_name: str) -> System:
    """Fold boolean constants, then strip every next operator so the residual
    is ready for the following snapshot."""
    model = system.find_model(model_name)
    kinds, children, root = _structure(system, model)
    b = _Builder(system, model)
    folded = _fold(kinds, children, b, model, root, strip_x=False)
    # second phase on the folded structure, which has no root marker yet:
    # strip X operators
    interim = b.finish()
    model2 = interim.find_model(model_name)
    b2 = _Builder(interim, model2)
    kinds2, children2, _ = _structure(interim, model2)
    stripped = _fold(kinds2, children2, b2, model2, folded, strip_x=True)
    r0 = b2.fresh("Root")
    b2.link(r0, stripped, "rootf")
    return b2.finish()


def monitor_step(system: System, model_name: str, snapshot: str) -> System:
    """One verification step against one snapshot: unroll, evaluate the atoms
    outside the next region, simplify, strip the next operators."""
    system = unroll(system, model_name)
    system = evaluate_atomics(system, model_name, snapshot)
    return simplify_and_step(system, model_name)


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
    kinds, children, root = _structure(system, model)
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
