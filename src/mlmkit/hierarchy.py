"""Multilevel hierarchies: models arranged in trees, element-wise typing that
may jump levels, potency and multiplicity bounds, inheritance, and validators
for each well-formedness condition.

A ``System`` bundles one application hierarchy with any number of
supplementary hierarchies and the fixed data-type hierarchy.  Levels are never
stored; they are derived from parent references.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator, Optional

from .graph import (
    Arrow,
    Graph,
    GraphMorphism,
    SubgraphRef,
    compose_partial,
    graph,
    partial_leq,
)

ROOT_MODEL = "root"
ROOT_NODE = "EClass"
ROOT_ARROW = Arrow("EReference", "EClass", "EClass")

APPLICATION = "application"
SUPPLEMENTARY = "supplementary"
DATA = "data-type"


def elem_str(e) -> str:
    return repr(e) if isinstance(e, Arrow) else str(e)


@dataclass(frozen=True)
class Potency:
    """min-max-depth potency interval; None stands for unbounded (*)."""

    min: int = 1
    max: Optional[int] = 1
    depth: Optional[int] = None

    def __str__(self) -> str:
        part = lambda v: "*" if v is None else str(v)
        return f"{self.min}-{part(self.max)}-{part(self.depth)}"

    def admits_distance(self, d: int) -> bool:
        return self.min <= d and (self.max is None or d <= self.max)

    def narrows(self, other: "Potency") -> bool:
        """True if self is at least as restrictive as other (pattern vs target)."""
        if self.min < other.min:
            return False
        if other.max is not None and (self.max is None or self.max > other.max):
            return False
        if other.depth is not None and (self.depth is None or self.depth > other.depth):
            return False
        return True


def parse_potency(text: str) -> Potency:
    parts = text.strip().split("-")
    if len(parts) != 3:
        raise ValueError(f"bad potency {text!r}")
    conv = lambda v: None if v == "*" else int(v)
    mn, mx = conv(parts[0]), conv(parts[1])
    if mn is None:
        raise ValueError("potency min cannot be *")
    if mx is not None and mn > mx:
        raise ValueError(f"bad potency {text}: min {mn} exceeds max {mx}")
    return Potency(mn, mx, conv(parts[2]))


DEFAULT_POTENCY = Potency(1, 1, None)
ROOT_POTENCY = Potency(0, None, None)


@dataclass(frozen=True)
class Multiplicity:
    min: int = 0
    max: Optional[int] = None

    def __str__(self) -> str:
        return f"{self.min}..{'*' if self.max is None else self.max}"

    def narrows(self, other: "Multiplicity") -> bool:
        """A more restrictive interval in a pattern matches a less restrictive
        one in the hierarchy: other.min <= self.min and self.max <= other.max."""
        if other.min > self.min:
            return False
        if other.max is not None and (self.max is None or self.max > other.max):
            return False
        return True


def parse_multiplicity(text: str) -> Multiplicity:
    """LO..HI with an integer LO and an integer or * HI, LO <= HI."""
    lo, _, hi = text.strip().partition("..")
    try:
        out = Multiplicity(int(lo), None if hi == "*" else int(hi))
    except ValueError:
        raise ValueError(f"bad multiplicity {text}") from None
    if out.max is not None and out.min > out.max:
        raise ValueError(f"bad multiplicity {text}: min {out.min} exceeds max {out.max}")
    return out


DEFAULT_MULTIPLICITY = Multiplicity(0, None)


@dataclass(frozen=True)
class TypeRef:
    """Reference to an element of a named model."""

    model: str
    elem: "str | Arrow"

    def __str__(self) -> str:
        return f"{elem_str(self.elem)}@{self.model}"


@dataclass(frozen=True)
class ElementTyping:
    """Per-element typing record: one type in the owning hierarchy, at most one
    per supplementary hierarchy, at most one data type."""

    own: Optional[TypeRef] = None
    supplementary: dict = field(default_factory=dict)  # hierarchy name -> TypeRef
    data: Optional[TypeRef] = None

    @cached_property
    def all_refs(self) -> tuple[tuple[str, TypeRef], ...]:
        """(dimension, type) pairs: the own type, the supplementary types by
        hierarchy name, then the data type."""
        refs = [("own", self.own)] if self.own else []
        refs += [(h, self.supplementary[h]) for h in sorted(self.supplementary)]
        if self.data:
            refs.append(("data", self.data))
        return tuple(refs)


ROOT_NODE_TYPING = ElementTyping(TypeRef(ROOT_MODEL, ROOT_NODE))
ROOT_ARROW_TYPING = ElementTyping(TypeRef(ROOT_MODEL, ROOT_ARROW))


@dataclass(frozen=True, eq=False)
class Model:
    """A named graph with its element records.  A value built whole: its
    dicts are never changed after construction, so the facts that read only
    the model are views derived once per value.  An element without an own
    type is typed by the root element of its kind."""

    name: str
    graph: Graph
    typings: dict = field(default_factory=dict)  # element -> ElementTyping
    potencies: dict = field(default_factory=dict)  # element -> Potency (declared)
    multiplicities: dict = field(default_factory=dict)  # Arrow -> Multiplicity
    abstract: frozenset = frozenset()  # node names
    inherit_arrows: frozenset = frozenset()  # specialisation arrows (child -> parent)
    attr_decls: dict = field(default_factory=dict)  # node -> {attr: datatype name}
    attr_values: dict = field(default_factory=dict)  # node -> {attr: literal}

    def __post_init__(self):
        rest = {}
        for e in (*self.graph.nodes, *self.graph.arrows):
            t = self.typings.get(e)
            if t is None or t.own is None:
                root = ROOT_ARROW_TYPING if isinstance(e, Arrow) else ROOT_NODE_TYPING
                rest[e] = root if t is None else replace(t, own=root.own)
        if rest:
            object.__setattr__(self, "typings", {**self.typings, **rest})

    @cached_property
    def plain_arrows(self) -> tuple[Arrow, ...]:
        """The arrows that are not specialisation arrows, sorted."""
        return tuple(sorted(a for a in self.graph.arrows if a not in self.inherit_arrows))

    @cached_property
    def _parents(self) -> dict:
        parents: dict = {}
        for a in self.inherit_arrows:
            parents.setdefault(a.src, []).append(a.tgt)
        return {node: tuple(sorted(ps)) for node, ps in parents.items()}

    def inheritance_parents(self, node: str) -> tuple[str, ...]:
        return self._parents.get(node, ())

    @cached_property
    def _ancestors(self) -> dict:
        out = {}
        for node in self._parents:
            seen, frontier = set(), [node]
            while frontier:
                for p in self.inheritance_parents(frontier.pop()):
                    if p not in seen:
                        seen.add(p)
                        frontier.append(p)
            out[node] = frozenset(seen)
        return out

    def ancestors(self, elem) -> frozenset:
        """The strict inheritance ancestors of an element, which include it
        only when it sits on an inheritance cycle; none for an arrow."""
        return self._ancestors.get(elem, frozenset())

    @cached_property
    def arrow_counts(self) -> dict:
        """(own type, source) -> the number of plain arrows with that own
        type and source: the direct-instance counts that upper multiplicity
        bounds limit."""
        counts: dict[tuple, int] = {}
        for a in self.plain_arrows:
            key = (self.typings[a].own, a.src)
            counts[key] = counts.get(key, 0) + 1
        return counts

    @cached_property
    def match_graph(self) -> Graph:
        """The plain-arrow graph that level matching searches."""
        return Graph(self.graph.nodes, frozenset(self.plain_arrows))

    @cached_property
    def pools(self) -> dict:
        """The sorted candidate pools of level matching per element kind."""
        return {"node": sorted(self.graph.nodes), "arrow": self.plain_arrows}

    def multiplicity(self, arrow: Arrow) -> Multiplicity:
        return self.multiplicities.get(arrow, DEFAULT_MULTIPLICITY)


ROOT = Model(
    ROOT_MODEL,
    graph([ROOT_NODE], [ROOT_ARROW]),
    potencies={ROOT_NODE: ROOT_POTENCY, ROOT_ARROW: ROOT_POTENCY},
)


@dataclass(frozen=True, eq=False)
class Hierarchy:
    """A tree of models with a single self-defining root, the shared ROOT
    model.  A value built whole: with_model returns a new hierarchy."""

    name: str
    dimension: str = APPLICATION
    models: dict = field(default_factory=dict)  # name -> Model
    parents: dict = field(default_factory=dict)  # model name -> parent name (root -> None)

    def __post_init__(self):
        if ROOT_MODEL not in self.models:
            object.__setattr__(self, "models", {ROOT_MODEL: ROOT, **self.models})
            object.__setattr__(self, "parents", {ROOT_MODEL: None, **self.parents})

    def with_model(self, model: Model, parent: str) -> "Hierarchy":
        """This hierarchy with one more model, under parent."""
        if model.name in self.models:
            raise ValueError(f"duplicate model {model.name}")
        if parent not in self.models:
            raise ValueError(f"unknown parent {parent}")
        return Hierarchy(
            self.name,
            self.dimension,
            {**self.models, model.name: model},
            {**self.parents, model.name: parent},
        )

    def __contains__(self, name: str) -> bool:
        return name in self.models

    def model(self, name: str) -> Model:
        return self.models[name]

    def level(self, name: str) -> int:
        lvl, cur = 0, name
        while self.parents[cur] is not None:
            cur = self.parents[cur]
            lvl += 1
        return lvl

    def max_level(self) -> int:
        return max(self.level(m) for m in self.models)

    def typing_chain(self, name: str) -> list[Model]:
        """[model, parent, ..., root]: the unique path up the tree."""
        if name not in self.models:
            raise KeyError(f"model {name} not in hierarchy {self.name}")
        chain, cur = [], name
        while cur is not None:
            chain.append(self.models[cur])
            cur = self.parents[cur]
        return chain

    def model_names(self) -> list[str]:
        """Model names in deterministic top-down order."""
        return sorted(self.models, key=lambda n: (self.level(n), n))


def _data_hierarchy() -> Hierarchy:
    """The fixed three-level data-type hierarchy (root, type kinds, concrete
    types with their operations)."""
    g1 = graph(
        ["DT", "DTDT", "Init", "Attributed"],
        [
            ("unop", "DT", "DT"),
            ("binop", "DTDT", "DT"),
            ("const", "Init", "DT"),
            ("param1", "DTDT", "DT"),
            ("param2", "DTDT", "DT"),
            ("value", "Attributed", "DT"),
        ],
    )
    potencies = {e: Potency(1, 1, 3) for e in g1.elements()}
    potencies["Attributed"] = Potency(2, 2, None)
    potencies[Arrow("value", "Attributed", "DT")] = Potency(2, 2, 2)
    dt1 = Model("dt1", g1, potencies=potencies)

    g2 = graph(
        ["Boolean", "Int", "String", "BooleanBoolean", "IntString", "I"],
        [
            ("and", "BooleanBoolean", "Boolean"),
            ("append", "IntString", "String"),
            ("succ", "Int", "Int"),
            ("zero", "I", "Int"),
            ("empty", "I", "String"),
            ("bb1", "BooleanBoolean", "Boolean"),
            ("bb2", "BooleanBoolean", "Boolean"),
            ("is1", "IntString", "Int"),
            ("is2", "IntString", "String"),
        ],
    )
    own = {
        "Boolean": "DT",
        "Int": "DT",
        "String": "DT",
        "BooleanBoolean": "DTDT",
        "IntString": "DTDT",
        "I": "Init",
    }
    arrow_own = {
        "and": "binop",
        "append": "binop",
        "succ": "unop",
        "zero": "const",
        "empty": "const",
        "bb1": "param1",
        "bb2": "param2",
        "is1": "param1",
        "is2": "param2",
    }
    dt1_arrows = {a.name: a for a in g1.arrows}
    typings = {n: ElementTyping(TypeRef("dt1", t)) for n, t in own.items()}
    for a in g2.arrows:
        typings[a] = ElementTyping(TypeRef("dt1", dt1_arrows[arrow_own[a.name]]))
    dt2 = Model("dt2", g2, typings, {e: Potency(1, 1, 2) for e in g2.elements()})
    return Hierarchy("data", DATA).with_model(dt1, ROOT_MODEL).with_model(dt2, "dt1")


DATA_HIERARCHY = _data_hierarchy()


@dataclass(eq=False)
class System:
    """One application hierarchy, optional supplementary hierarchies and the
    built-in data-type hierarchy.  Compared by identity; replace_model builds
    a fresh value.  Hierarchies are values that never change, so systems may
    share them: every system shares the one data-type hierarchy.

    The cache memoizes derived facts, each stored by remember with the models
    it was derived from (None: the whole system).  replace_model(X) carries
    over every fact none of whose models reach X through their typings, since
    such a fact never read X.  Validation is assembled from such facts, one
    per model and condition check, so after a rewrite only the parts that
    read the rewritten model are computed again.  Every model name but the
    root's is held by one hierarchy, so a name says which model a fact read."""

    application: Hierarchy
    supplementary: dict = field(default_factory=dict)  # name -> Hierarchy
    data: Hierarchy = DATA_HIERARCHY
    cache: dict = field(default_factory=dict, repr=False)  # key -> (value, about)

    def __post_init__(self):
        owners: dict = {}
        for h in self.hierarchies():
            for name in h.models:
                if name != ROOT_MODEL and owners.setdefault(name, h) is not h:
                    raise ValueError(
                        f"model {name} is held by hierarchies {owners[name].name} and {h.name}"
                    )

    def user_hierarchies(self) -> list[Hierarchy]:
        """The application hierarchy, then the supplementary ones by name."""
        return [self.application] + [self.supplementary[k] for k in sorted(self.supplementary)]

    def hierarchies(self) -> list[Hierarchy]:
        """Every hierarchy: the user hierarchies, then the data-type one."""
        return self.user_hierarchies() + [self.data]

    def hierarchy_of(self, model_name: str) -> Hierarchy:
        """The one hierarchy holding the model; for the root, which every
        hierarchy holds, the application hierarchy."""
        if model_name in self.application.models:
            return self.application
        for h in self.supplementary.values():
            if model_name in h.models:
                return h
        if model_name in self.data.models:
            return self.data
        raise KeyError(f"model {model_name} not in any hierarchy")

    def find_model(self, model_name: str) -> Model:
        return self.hierarchy_of(model_name).models[model_name]

    def remember(self, key, value, about: Optional[tuple]):
        """Memoize a fact derived from the models named in about (None: from
        the whole system); returns the value."""
        self.cache[key] = (value, about)
        return value

    def replace_model(self, model: Model) -> "System":
        """New system value with one model replaced (same tree position),
        keeping every fact that never read the replaced model."""
        h = self.hierarchy_of(model.name)
        new_h = Hierarchy(h.name, h.dimension, {**h.models, model.name: model}, h.parents)
        abouts = {about for _, about in self.cache.values() if about is not None}
        intact = {a for a in abouts if all(model.name not in reach(self, m) for m in a)}
        kept = {k: fact for k, fact in self.cache.items() if fact[1] in intact}
        if h is self.application:
            return System(new_h, self.supplementary, self.data, kept)
        if h is self.data:
            return System(self.application, self.supplementary, new_h, kept)
        supp = dict(self.supplementary)
        supp[h.name] = new_h
        return System(self.application, supp, self.data, kept)


def reach(system: System, model_name: str) -> frozenset:
    """The model and every model its typings reach, transitively (names that
    resolve to no model included, since a typing may dangle)."""
    ck = ("reach", model_name)
    hit = system.cache.get(ck)
    if hit is not None:
        return hit[0]
    seen, todo = {model_name}, [model_name]
    while todo:
        try:
            model = system.find_model(todo.pop())
        except KeyError:
            continue
        for t in model.typings.values():
            for _, ref in t.all_refs:
                if ref.model not in seen:
                    seen.add(ref.model)
                    todo.append(ref.model)
    return system.remember(ck, frozenset(seen), (model_name,))


# ---------------------------------------------------------------------------
# Typing walks
# ---------------------------------------------------------------------------


def jump_distance(system: System, from_model: str, ref: TypeRef) -> int:
    """Level difference covered by one typing step.  Within a hierarchy this is
    the difference of tree levels; a step into another dimension counts from
    one below that hierarchy's deepest level."""
    src_h = system.hierarchy_of(from_model)
    tgt_h = system.hierarchy_of(ref.model)
    if src_h is tgt_h:
        return src_h.level(from_model) - src_h.level(ref.model)
    return (tgt_h.max_level() - tgt_h.level(ref.model)) + 1


@dataclass(frozen=True)
class TypeEntry:
    model: str
    elem: "str | Arrow"
    distance: int  # accumulated level difference
    steps: int  # number of typing steps (inheritance adds none)


def type_closure(system: System, model_name: str, elem) -> list[TypeEntry]:
    """All (transitive) types of an element, including inheritance ancestors
    at each stage.  Entry with steps=0 is the element itself (and ancestors)."""
    ck = ("closure", model_name, elem)
    hit = system.cache.get(ck)
    if hit is not None:
        return hit[0]
    seen: set[tuple] = set()
    out: list[TypeEntry] = []
    # each entry carries the references on its path, so that a typing cycle
    # (reported by check_typing_structure) ends the walk instead of looping
    stack = [(TypeEntry(model_name, elem, 0, 0), frozenset())]
    while stack:
        entry, path = stack.pop()
        key = (entry.model, entry.elem, entry.distance, entry.steps)
        if key in seen:
            continue
        seen.add(key)
        out.append(entry)
        path = path | {(entry.model, entry.elem)}
        model = system.find_model(entry.model)
        # inheritance ancestors count as the same element for typing purposes
        if isinstance(entry.elem, str):
            for parent in model.inheritance_parents(entry.elem):
                stack.append((TypeEntry(entry.model, parent, entry.distance, entry.steps), path))
        typing = model.typings.get(entry.elem)
        if not typing:
            continue
        for _, ref in typing.all_refs:
            if entry.model == ROOT_MODEL:
                continue  # the root is self-defining; stop there
            if (ref.model, ref.elem) in path:
                continue
            try:
                d = jump_distance(system, entry.model, ref)
            except KeyError:
                continue  # an unknown model, which check_typing_structure reports
            stack.append(
                (TypeEntry(ref.model, ref.elem, entry.distance + d, entry.steps + 1), path)
            )
    out.sort(key=lambda t: (t.steps, t.distance, t.model, elem_str(t.elem)))
    return system.remember(ck, out, (model_name,))


def type_refs(
    system: System, model_name: str, elem, _path: tuple = (), _cut: Optional[list] = None
) -> frozenset:
    """The (model, element) pairs of the element's type closure, except the
    element itself as its own zero-step entry: its inheritance ancestors and,
    outside the root, each type with that type's references in turn.  A type
    already on the path (a typing cycle, which check_typing_structure
    reports) is not walked again.  Only walks that cut nothing are memoized:
    a walk cut at its path depends on that path."""
    ck = ("type-refs", model_name, elem)
    hit = system.cache.get(ck)
    if hit is not None:
        return hit[0]
    cut = [] if _cut is None else _cut  # the types this walk and the walks under it skipped
    cuts_before = len(cut)
    try:
        model = system.find_model(model_name)
    except KeyError:
        return frozenset()  # an unknown model, which check_typing_structure reports
    same = {elem, *model.ancestors(elem)}
    refs = {(model_name, x) for x in same if x != elem}
    if model_name != ROOT_MODEL:  # the root is self-defining
        path = _path + ((model_name, elem),)
        for x in same:
            typing = model.typings.get(x)
            if typing:
                for _, ref in typing.all_refs:
                    refs.add((ref.model, ref.elem))
                    if (ref.model, ref.elem) in path:
                        cut.append((ref.model, ref.elem))
                    else:
                        refs |= type_refs(system, ref.model, ref.elem, path, cut)
    if len(cut) > cuts_before:
        return frozenset(refs)
    return system.remember(ck, frozenset(refs), (model_name,))


def has_type(system: System, model_name: str, elem, ref: TypeRef) -> bool:
    """Element is a (transitive) instance of ref, inheritance included."""
    return (ref.model, ref.elem) in type_refs(system, model_name, elem)


def effective_potency(system: System, model_name: str, elem, _path=frozenset()) -> Potency:
    """Declared potency, or the default: 1-1 range with depth one less than the
    type's depth (unbounded stays unbounded).  Root elements default to 0-*-*.
    A type already on the path (a typing cycle, which check_typing_structure
    reports) adds no depth.  Only walks from an empty path are memoized: on a
    typing cycle, a walk that starts inside it depends on its path."""
    ck = ("effective-potency", model_name, elem)
    hit = None if _path else system.cache.get(ck)
    if hit is not None:
        return hit[0]
    model = system.find_model(model_name)
    declared = model.potencies.get(elem)
    if declared is not None:
        out = declared
    elif model_name == ROOT_MODEL:
        out = ROOT_POTENCY
    else:
        depths = []
        typing = model.typings.get(elem)
        if typing:
            path = _path | {(model_name, elem)}
            for _, ref in typing.all_refs:
                if (ref.model, ref.elem) in path:
                    continue
                try:
                    tp = effective_potency(system, ref.model, ref.elem, path)
                except KeyError:
                    continue  # an unknown model, which check_typing_structure reports
                if tp.depth is not None:
                    depths.append(tp.depth)
        # the most restrictive of all the types' depths, one less for the instance
        out = Potency(1, 1, min(depths) - 1 if depths else None)
    return out if _path else system.remember(ck, out, (model_name,))


# ---------------------------------------------------------------------------
# Domains of definition
# ---------------------------------------------------------------------------


def domain_of_definition(
    system: System, h: Hierarchy, j_model: str, i_model: str
) -> tuple[SubgraphRef, GraphMorphism]:
    """The subgraph of G_j of elements with a transitive type in G_i, together
    with the total typing morphism from it into G_i, for G_i strictly above
    G_j in h: the definedness of domain_between and that morphism."""
    if i_model not in [m.name for m in h.typing_chain(j_model)[1:]]:
        raise ValueError(f"{i_model} is not strictly above {j_model}")
    tau = domain_between(system, j_model, i_model)
    return tau.definedness(), tau


def transitive_types(system: System, model_name: str, elem) -> dict[str, object]:
    """Transitive types of an element across all dimensions, keyed by the model
    holding each type (no inheritance; pure typing steps)."""
    ck = ("transitive", model_name, elem)
    hit = system.cache.get(ck)
    if hit is not None:
        return hit[0]
    out: dict[str, object] = {}

    def walk(m: str, e):
        if m == ROOT_MODEL:
            return
        try:
            model = system.find_model(m)
        except KeyError:
            return  # an unknown model, which check_typing_structure reports
        t = model.typings.get(e)
        if not t:
            return
        for _, ref in t.all_refs:
            if ref.model not in out:
                out[ref.model] = ref.elem
                walk(ref.model, ref.elem)

    walk(model_name, elem)
    del walk  # a closure that calls itself is a reference cycle: free it now
    return system.remember(ck, out, (model_name,))


def domain_between(system: System, j_model: str, i_model: str) -> GraphMorphism:
    """Partial typing morphism from one model's graph into another model's
    graph, defined on the elements with a transitive type there, in any
    dimension."""
    ck = ("dom", j_model, i_model)
    hit = system.cache.get(ck)
    if hit is not None:
        return hit[0]
    mj = system.find_model(j_model)
    mi = system.find_model(i_model)
    nodes, arrows = {}, {}
    for n in sorted(mj.graph.nodes):
        t = transitive_types(system, j_model, n).get(i_model)
        if t is not None:
            nodes[n] = t
    for a in sorted(mj.graph.arrows):
        t = transitive_types(system, j_model, a).get(i_model)
        if t is not None:
            arrows[a] = t
    out = GraphMorphism(mj.graph, mi.graph, nodes, arrows)
    return system.remember(ck, out, (j_model, i_model))


def recover_direct_types(system: System, h: Hierarchy, model_name: str) -> dict:
    """Reconstruct individual typing from the family of partial typing
    morphisms: the type of e is taken at the maximal (least abstract) level
    where e is in the domain of definition."""
    chain = h.typing_chain(model_name)
    out: dict = {}
    for e in h.models[model_name].graph.elements():
        for above in chain[1:]:  # nearest level first
            dom, tau = domain_of_definition(system, h, model_name, above.name)
            if dom.has(e):
                out[e] = TypeRef(above.name, tau(e))
                break
    return out


# ---------------------------------------------------------------------------
# Validators
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Violation:
    condition: str
    model: str
    element: str
    message: str

    def __str__(self) -> str:
        return f"[{self.condition}] {self.model}/{self.element}: {self.message}"


Findings = Iterator[tuple[str, str]]  # (element text, fault) pairs about one model


def _user_models(h: Hierarchy) -> list[Model]:
    return [h.models[n] for n in h.model_names() if n != ROOT_MODEL]


def _per_model(system: System, condition: str, part, *args) -> list[Violation]:
    """One condition check as the concatenation, over user models, of each
    model's part.  A part yields (element, fault) findings about its model;
    this is the one place that makes them violations.  A part reads its
    model, the model's typing chain, the models their typings reach and the
    shape of the hierarchy tree, which replace_model keeps; so it is memoized
    about the typing chain, and a rewrite recomputes only the parts that read
    the rewritten model."""
    out: list[Violation] = []
    for h in system.hierarchies():
        for m in _user_models(h):
            ck = (condition, m.name, *args)
            found = system.cache.get(ck, (None,))[0]
            if found is None:
                about = tuple(x.name for x in h.typing_chain(m.name))
                found = tuple(
                    Violation(condition, m.name, e, fault) for e, fault in part(system, h, m, *args)
                )
                system.remember(ck, found, about)
            out += found
    return out


def check_typing_structure(system: System) -> list[Violation]:
    """Type references resolve, have the right kind, sit strictly above in the
    owning hierarchy, and cross-dimension targets live in their hierarchy."""
    return _per_model(system, "typing", _typing_part)


def _typing_part(system: System, h: Hierarchy, m: Model) -> Findings:
    chain_above = {x.name for x in h.typing_chain(m.name)[1:]}
    for e in m.graph.elements():
        for dim, ref in m.typings[e].all_refs:
            try:
                tgt_model = system.find_model(ref.model)
            except KeyError:
                yield elem_str(e), f"unknown model {ref.model}"
                continue
            if not tgt_model.graph.has(ref.elem):
                yield elem_str(e), f"unknown type {ref}"
                continue
            if isinstance(e, Arrow) != isinstance(ref.elem, Arrow):
                yield elem_str(e), f"kind mismatch with {ref}"
            if dim == "own" and ref.model not in chain_above:
                yield elem_str(e), f"type {ref} not strictly above in the typing chain"


def check_non_dangling(system: System) -> list[Violation]:
    """Every arrow's type has its source and target provided by transitive
    types of the arrow's endpoints at the same level difference."""
    return _per_model(system, "non-dangling", _non_dangling_part)


def _non_dangling_part(system: System, h: Hierarchy, m: Model) -> Findings:
    for a in m.plain_arrows:
        for _, ref in m.typings[a].all_refs:
            if not isinstance(ref.elem, Arrow):
                continue
            try:
                d = jump_distance(system, m.name, ref)
            except KeyError:
                continue  # an unknown model, which check_typing_structure reports
            ends = (("source", a.src, ref.elem.src), ("target", a.tgt, ref.elem.tgt))
            for end, x, type_x in ends:
                if not any(
                    t.model == ref.model and t.elem == type_x and t.distance == d
                    for t in type_closure(system, m.name, x)
                ):
                    yield elem_str(a), f"{end} {x} has no type {type_x}@{ref.model} at distance {d}"


def check_uniqueness(system: System) -> list[Violation]:
    """Composites of typing morphisms agree with the direct ones: for models
    i < j < k in one chain, tau_kj ; tau_ji is below tau_ki."""
    return _per_model(system, "uniqueness", _uniqueness_part)


def _uniqueness_part(system: System, h: Hierarchy, m: Model) -> Findings:
    chain = [x.name for x in h.typing_chain(m.name)]
    k = chain[0]
    for jdx in range(1, len(chain) - 1):
        j = chain[jdx]
        for i in chain[jdx + 1 :]:
            tau_kj = domain_between(system, k, j)
            tau_ji = domain_between(system, j, i)
            tau_ki = domain_between(system, k, i)
            composed = compose_partial(tau_kj, tau_ji)
            if not partial_leq(composed, tau_ki):
                bad = sorted(
                    elem_str(e)
                    for e in list(composed.nodes) + list(composed.arrows)
                    if tau_ki.get(e) != composed.get(e)
                )
                fault = f"composite typing via {j} disagrees with direct typing into {i}"
                yield ",".join(bad) or "?", fault


def check_potency(system: System) -> list[Violation]:
    """Potency ranges restrict direct-instance level differences, depths
    strictly decrease along instantiation, and abstract nodes have no direct
    instances."""
    return _per_model(system, "potency", _potency_part)


def _potency_part(system: System, h: Hierarchy, m: Model) -> Findings:
    for e in m.graph.elements():
        for _, ref in m.typings[e].all_refs:
            try:
                faults = instance_faults(system, m.name, ref)
            except KeyError:
                continue  # an unknown model, which check_typing_structure reports
            tpot = effective_potency(system, ref.model, ref.elem)
            if tpot.depth is not None:
                epot = effective_potency(system, m.name, e)
                if epot.depth is None or epot.depth >= tpot.depth:
                    faults.append(
                        f"depth {'*' if epot.depth is None else epot.depth} not strictly "
                        f"less than depth {tpot.depth} of type {ref}"
                    )
            for fault in faults:
                yield elem_str(e), fault


def instance_faults(system: System, model_name: str, ref: TypeRef) -> list[str]:
    """The potency faults of a direct instance of ref in the model that hold
    whatever the instance: the distance is outside the type's range, the
    type's depth is exhausted, or the type is abstract."""
    out = []
    d = jump_distance(system, model_name, ref)
    tpot = effective_potency(system, ref.model, ref.elem)
    if not tpot.admits_distance(d):
        out.append(
            f"instance of {ref} at distance {d} outside range "
            f"{tpot.min}-{'*' if tpot.max is None else tpot.max}"
        )
    if tpot.depth is not None and tpot.depth < 1:
        out.append(f"depth of type {ref} is exhausted")
    if isinstance(ref.elem, str) and ref.elem in system.find_model(ref.model).abstract:
        out.append(f"direct instance of abstract {ref}")
    return out


def check_inheritance(system: System) -> list[Violation]:
    """Specialisation is acyclic, relates nodes only, children agree with their
    parents on all typing morphisms and may not reuse parent arrow names."""
    return _per_model(system, "inheritance", _inheritance_part)


def _inheritance_part(system: System, h: Hierarchy, m: Model) -> Findings:
    for a in sorted(m.inherit_arrows):
        if a.src == a.tgt:
            yield elem_str(a), "self-inheritance"
    for start in sorted({a.src for a in m.inherit_arrows}):
        if start in m.ancestors(start):
            yield start, "inheritance cycle"
    chain = [x.name for x in h.typing_chain(m.name)]
    for a in sorted(m.inherit_arrows):
        x, y = a.src, a.tgt
        if x not in m.graph.nodes or y not in m.graph.nodes:
            continue
        for above in chain[1:]:
            # unequal images: defined on one side only, or typed differently
            tau = domain_between(system, m.name, above)
            if tau.get(x) != tau.get(y):
                yield x, f"typing into {above} differs from parent {y}"
        child_arrow_names = {b.name for b in m.plain_arrows if b.src == x}
        parent_arrow_names = {b.name for b in m.plain_arrows if b.src == y}
        for clash in sorted(child_arrow_names & parent_arrow_names):
            yield x, f"redefines parent arrow name {clash}"
        for clash in sorted(set(m.attr_decls.get(x, ())) & set(m.attr_decls.get(y, ()))):
            yield x, f"redefines parent attribute {clash}"


def check_multiplicity(system: System, strict: bool = False) -> list[Violation]:
    """Upper bounds always hold for direct arrow instances per source instance;
    lower bounds only under strict validation (intermediate rewrite states are
    legitimately incomplete)."""
    return _per_model(system, "multiplicity", _multiplicity_part, strict)


def _multiplicity_part(system: System, h: Hierarchy, m: Model, strict: bool) -> Findings:
    counts = m.arrow_counts
    for (ref, src), n in sorted(counts.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
        if not isinstance(ref.elem, Arrow):
            continue
        try:
            mult = system.find_model(ref.model).multiplicity(ref.elem)
        except KeyError:
            continue  # an unknown model, which check_typing_structure reports
        if mult.max is not None and n > mult.max:
            yield src, f"{n} direct instances of {ref} exceed max {mult.max}"
    if strict:
        for above in h.typing_chain(m.name)[1:]:
            for f in above.plain_arrows:
                mult = above.multiplicity(f)
                if mult.min == 0:
                    continue
                ref = TypeRef(above.name, f)
                src_ref = TypeRef(above.name, f.src)
                for x in sorted(m.graph.nodes):
                    if not has_type(system, m.name, x, src_ref):
                        continue
                    n = counts.get((ref, x), 0)
                    if n < mult.min:
                        yield x, f"{n} direct instances of {ref} below min {mult.min}"


def check_dimensions(system: System) -> list[Violation]:
    """Cross-dimension typing rules: extra types only on application-hierarchy
    elements, supplementary targets in their own hierarchy, combined depth is
    computed in the most restrictive manner (covered by the potency check)."""
    return _per_model(system, "dimensions", _dimensions_part)


def _dimensions_part(system: System, h: Hierarchy, m: Model) -> Findings:
    for e in m.graph.elements():
        typing = m.typings[e]
        if (typing.supplementary or typing.data) and h.dimension != APPLICATION:
            yield elem_str(e), "multi-typed element outside the application dimension"
        for hname, ref in typing.supplementary.items():
            if hname not in system.supplementary:
                yield elem_str(e), f"unknown supplementary hierarchy {hname}"
            elif ref.model not in system.supplementary[hname].models:
                yield elem_str(e), f"type {ref} outside supplementary hierarchy {hname}"
        if typing.data and typing.data.model not in system.data.models:
            yield elem_str(e), f"data type {typing.data} outside the data-type hierarchy"


@dataclass
class ValidationReport:
    """The violations found, without duplicates and in sorted order."""

    violations: list

    def __post_init__(self):
        self.violations = sorted(set(self.violations))

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        if self.ok:
            return "ok\n"
        return "\n".join(str(v) for v in self.violations) + "\n"


def validate_hierarchy(system: System, strict_multiplicity: bool = False) -> ValidationReport:
    """Run every condition check and aggregate the findings.  Each check is
    assembled from memoized per-model parts, so on a system value made by
    replace_model only the parts that read the replaced model are computed
    again; the report itself is a fact about the whole system."""
    ck = ("validate", strict_multiplicity)
    hit = system.cache.get(ck)
    if hit is not None:
        return hit[0]
    vs: list[Violation] = []
    vs += check_typing_structure(system)
    vs += check_non_dangling(system)
    vs += check_uniqueness(system)
    vs += check_potency(system)
    vs += check_inheritance(system)
    vs += check_multiplicity(system, strict=strict_multiplicity)
    vs += check_dimensions(system)
    return system.remember(ck, ValidationReport(vs), None)


# ---------------------------------------------------------------------------
# Attribute sugar
# ---------------------------------------------------------------------------


def expand_attributes(system: System, model_name: str) -> Model:
    """Expand `name : DataType` declarations and `name = value` instantiations
    into the explicit node-and-arrow encoding of the data-type dimension."""
    m = system.find_model(model_name)
    nodes = set(m.graph.nodes)
    arrows = set(m.graph.arrows)
    typings = dict(m.typings)
    for owner in sorted(m.attr_decls):
        for attr, dtype in sorted(m.attr_decls[owner].items()):
            anode = f"{owner}.{attr}"
            nodes.add(anode)
            val_arrow = Arrow(f"{owner}.{attr}.val", owner, anode)
            arrows.add(val_arrow)
            typings[anode] = ElementTyping(data=TypeRef("dt2", dtype))
            typings[val_arrow] = ElementTyping(
                data=TypeRef("dt1", Arrow("value", "Attributed", "DT"))
            )
            typings[owner] = replace(typings[owner], data=TypeRef("dt1", "Attributed"))
    for owner in sorted(m.attr_values):
        for attr, value in sorted(m.attr_values[owner].items()):
            vnode = f"{owner}.{attr}={value!r}"
            nodes.add(vnode)
            varrow = Arrow(f"{owner}.{attr}.val", owner, vnode)
            arrows.add(varrow)
            decl = _find_attr_decl(system, model_name, owner, attr)
            if decl is None:
                raise ValueError(f"no declaration for attribute {owner}.{attr}")
            decl_model, decl_owner = decl
            typings[vnode] = ElementTyping(TypeRef(decl_model, f"{decl_owner}.{attr}"))
            typings[varrow] = ElementTyping(
                TypeRef(
                    decl_model,
                    Arrow(f"{decl_owner}.{attr}.val", decl_owner, f"{decl_owner}.{attr}"),
                )
            )
    return replace(
        m,
        graph=Graph(frozenset(nodes), frozenset(arrows)),
        typings=typings,
        attr_decls={},
        attr_values={},
    )


def _find_attr_decl(system: System, model_name: str, owner, attr: str):
    """Locate the model and node declaring owner's attribute, via typing."""
    for entry in type_closure(system, model_name, owner):
        m = system.find_model(entry.model)
        if isinstance(entry.elem, str) and attr in m.attr_decls.get(entry.elem, {}):
            return entry.model, entry.elem
    return None


def collapse_attributes(system: System, model_name: str, expanded: Model) -> Model:
    """Inverse of expand_attributes for models produced by it."""
    decl_pairs = set()
    value_triples = []
    drop = set()
    for e in expanded.graph.elements():
        if isinstance(e, Arrow) or "." not in str(e):
            continue
        name = str(e)
        if "=" in name:
            owner_attr, _, raw = name.partition("=")
            owner, _, attr = owner_attr.rpartition(".")
            try:
                value = ast.literal_eval(raw)  # written with repr
            except SyntaxError:
                raise ValueError(f"attribute value of {name} is not a literal") from None
            value_triples.append((owner, attr, value))
            drop.add(e)
        else:
            owner, _, attr = name.rpartition(".")
            t = expanded.typings.get(e)
            if t and t.data:
                decl_pairs.add((owner, attr, t.data.elem))
                drop.add(e)
    nodes = {n for n in expanded.graph.nodes if n not in drop}
    arrows = {
        a for a in expanded.graph.arrows if a.src not in drop and a.tgt not in drop
    }
    attr_decls: dict = {}
    for owner, attr, dtype in sorted(decl_pairs):
        attr_decls.setdefault(owner, {})[attr] = dtype
    attr_values: dict = {}
    for owner, attr, value in sorted(value_triples, key=lambda t: (t[0], t[1], repr(t[2]))):
        attr_values.setdefault(owner, {})[attr] = value
    return replace(
        expanded,
        graph=Graph(frozenset(nodes), frozenset(arrows)),
        typings={
            k: v
            for k, v in expanded.typings.items()
            if (k in nodes) or (isinstance(k, Arrow) and k in arrows)
        },
        attr_decls=attr_decls,
        attr_values=attr_values,
    )
