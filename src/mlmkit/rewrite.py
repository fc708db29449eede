"""Rule execution: direct application of a coupled rule at one match, its
proliferation into plain two-level rules, and their application.

Both kinds of application rewrite the same way: the interface is glued in by
a pushout along the inclusion of the FROM graph, the FROM-only part is
deleted by final pullback complement, and the rewritten model keeps the
records of its surviving elements.  Created elements are typed by the
binding image of their pattern type (a coupled rule) or by the concrete type
that proliferation recorded (a two-level rule).  A post-filter then runs
every condition check of validate_hierarchy and rejects a result with any
violation the system did not have before.  Validation is assembled from
per-model facts that the new system value carries over, so the post-filter
recomputes only the parts that read the rewritten model.  The same
rewrite built as a pushout of inclusion chains followed by a reduct is the
reference construction that the tests check every shipped application
against.

Only the target model changes; everything above it is read-only.  Created
elements are named after their pattern variables with the smallest unused
``_k`` suffix, recorded in the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

from .graph import (
    Arrow,
    Graph,
    GraphMorphism,
    final_pullback_complement,
    inclusion,
    pushout_along_inclusion,
)
from .hierarchy import (
    APPLICATION,
    ROOT_ARROW,
    ROOT_MODEL,
    ROOT_NODE,
    ElementTyping,
    Model,
    System,
    TypeRef,
    elem_str,
    validate_hierarchy,
)
from .matching import Binding, LhsMatch, _target, bind_lhs, match_for_model, typed_matches
from .rules import McmtRule, PatternBlock, PatternElement, RuleError


class NotApplicable(Exception):
    """The match is valid but the rewrite result violates a constraint."""


@dataclass
class ApplicationResult:
    system: System
    model: str
    binding: Binding
    mu: dict
    created: list
    deleted: list
    preserved: list

    def summary(self) -> str:
        c = ",".join(sorted(map(elem_str, self.created)))
        d = ",".join(sorted(map(elem_str, self.deleted)))
        return f"created=[{c}] deleted=[{d}]"


# ---------------------------------------------------------------------------
# Fresh names
# ---------------------------------------------------------------------------


def _fresh_name(base: str, taken: set) -> str:
    k = 1
    while f"{base}_{k}" in taken:
        k += 1
    return f"{base}_{k}"


def _rename_created(rule, mu: dict, target: Graph) -> tuple[dict, dict]:
    """Fresh instance names for created elements: pattern name with the
    smallest unused numeric suffix, avoiding both target and pattern names."""
    iface = rule.interface()
    lhs_keys = set(rule.lhs.elements)
    node_names = set(target.nodes) | {el.name for el in iface.nodes()}
    arrow_names = {a.name for a in target.arrows} | {el.name for el in iface.arrows()}
    fresh_nodes: dict = {}
    for el in iface.nodes():
        if el.key in lhs_keys:
            continue
        fresh = _fresh_name(el.name, node_names)
        node_names.add(fresh)
        fresh_nodes[el.name] = fresh
    fresh_arrows: dict = {}
    for el in iface.arrows():
        if el.key in lhs_keys:
            continue
        fresh = _fresh_name(el.name, arrow_names)
        arrow_names.add(fresh)
        fresh_arrows[el.key] = fresh
    return fresh_nodes, fresh_arrows


def _instance_block_graph(rule, block: PatternBlock, fresh_nodes: dict, fresh_arrows: dict) -> Graph:
    """The block's graph with created elements under their fresh instance
    names; elements also present in the FROM block keep their pattern names
    (which makes the interface inclusion of the FROM graph literal)."""
    lhs_keys = set(rule.lhs.elements)
    lhs_node_names = {e.name for e in rule.lhs.nodes()}

    def node(name: str) -> str:
        return name if name in lhs_node_names else fresh_nodes[name]

    nodes = {fresh_nodes.get(el.name, el.name) for el in block.nodes()}
    arrows = set()
    for el in block.arrows():
        if el.key in lhs_keys:
            arrows.add(el.key)
        else:
            arrows.add(Arrow(fresh_arrows[el.key], node(el.src), node(el.tgt)))
    return Graph(frozenset(nodes), frozenset(arrows))


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------


def apply_rule(
    system: System,
    rule: McmtRule,
    model_name: str,
    lhs_match: LhsMatch,
    postfilter: bool = True,
) -> ApplicationResult:
    """Apply one rule at one match: glue in the interface by pushout, delete
    the FROM-only part by final pullback complement, type the created
    elements by the binding images of their pattern types, then post-filter:
    run every condition check of validate_hierarchy on the result and raise
    NotApplicable on any violation the system did not have before.  Callers
    that guarantee validity themselves may skip the post-filter."""
    if rule.params:
        raise RuleError(f"rule {rule.name} has unbound parameters")
    binding = lhs_match.binding
    return _rewrite(
        system,
        rule,
        model_name,
        binding,
        lhs_match.mu_map(),
        lambda el: _bound_type(rule, binding, el),
        postfilter,
    )


def _bound_type(rule: McmtRule, binding: Binding, el: PatternElement) -> Optional[TypeRef]:
    """The binding image of a pattern element's type (None: the root type)."""
    if el.type is None or el.type.level == 0:
        return None
    level = el.type.level
    return TypeRef(binding.model_at(level), binding.lookup(level, rule.type_key(el.type)))


def _rewrite(
    system: System,
    rule: McmtRule | TwoLevelRule,
    model_name: str,
    binding: Binding,
    mu: dict,
    type_of: Callable[[PatternElement], Optional[TypeRef]],
    postfilter: bool,
) -> ApplicationResult:
    """The co-span rewrite of the target model at match mu: pushout, final
    pullback complement, rebuild of the model around the surviving records,
    typing of the created elements by type_of, TO attribute effects and the
    optional post-filter."""
    model = system.find_model(model_name)
    target = model.graph
    fresh_nodes, fresh_arrows = _rename_created(rule, mu, target)
    t_graph = _glue_and_delete(rule, mu, target, fresh_nodes, fresh_arrows)
    inst = _instance_keys(rule, mu, fresh_nodes, fresh_arrows)

    new = _survivors(model, t_graph)
    for el in rule.interface().elements.values():
        if el.key not in rule.lhs.elements:
            _type_created(system, new, inst[el.key], type_of(el))
    _attribute_effects(rule, model, new, inst)
    new_system = system.replace_model(new)

    if postfilter:
        baseline = set(validate_hierarchy(system).violations)
        after = set(validate_hierarchy(new_system).violations)
        fresh_violations = sorted(after - baseline)
        if fresh_violations:
            raise NotApplicable("; ".join(str(v) for v in fresh_violations))

    preserved = sorted(t_graph.nodes & target.nodes) + sorted(t_graph.arrows & target.arrows)
    created = sorted(t_graph.nodes - target.nodes) + sorted(t_graph.arrows - target.arrows)
    deleted = sorted(target.nodes - t_graph.nodes) + sorted(target.arrows - t_graph.arrows)
    return ApplicationResult(new_system, model_name, binding, mu, created, deleted, preserved)


def _glue_and_delete(rule, mu: dict, target: Graph, fresh_nodes: dict, fresh_arrows: dict) -> Graph:
    """The rewritten graph: pushout of the interface along the inclusion of
    the FROM graph and the match, then final pullback complement of the TO
    graph's inclusion into the interface."""
    lhs_graph = rule.lhs.graph()
    i_graph = _instance_block_graph(rule, rule.interface(), fresh_nodes, fresh_arrows)
    r_graph = _instance_block_graph(rule, rule.rhs, fresh_nodes, fresh_arrows)
    mu_morph = GraphMorphism(
        lhs_graph,
        target,
        {el.name: mu[el.name] for el in rule.lhs.nodes()},
        {el.key: mu[el.key] for el in rule.lhs.arrows()},
    )
    po = pushout_along_inclusion(inclusion(lhs_graph, i_graph), mu_morph)
    return final_pullback_complement(inclusion(r_graph, i_graph), po.glued).graph


def _instance_keys(rule, mu: dict, fresh_nodes: dict, fresh_arrows: dict) -> dict:
    """Pattern key -> element of the rewritten model, for every interface
    element: FROM elements by the match, created ones by their fresh names."""
    lhs_node_names = {e.name for e in rule.lhs.nodes()}

    def node(name: str) -> str:
        return mu[name] if name in lhs_node_names else fresh_nodes[name]

    out = {}
    for el in rule.interface().elements.values():
        if el.key in rule.lhs.elements:
            out[el.key] = mu[el.key]
        elif el.kind == "node":
            out[el.key] = fresh_nodes[el.name]
        else:
            out[el.key] = Arrow(fresh_arrows[el.key], node(el.src), node(el.tgt))
    return out


def _survivors(model: Model, t_graph: Graph) -> Model:
    """The rewritten model over t_graph, with the typings, potencies,
    multiplicities and attributes of the elements that survive."""
    new = Model(model.name, t_graph)
    for e in t_graph.elements():
        if model.graph.has(e):
            if e in model.typings:
                old = model.typings[e]
                new.typings[e] = ElementTyping(old.own, dict(old.supplementary), old.data)
            if e in model.potencies:
                new.potencies[e] = model.potencies[e]
            if isinstance(e, Arrow) and e in model.multiplicities:
                new.multiplicities[e] = model.multiplicities[e]
    new.abstract = model.abstract & t_graph.nodes
    new.inherit_arrows = model.inherit_arrows & t_graph.arrows
    for owner, decls in model.attr_decls.items():
        if owner in t_graph.nodes:
            new.attr_decls[owner] = dict(decls)
    for owner, values in model.attr_values.items():
        if owner in t_graph.nodes:
            new.attr_values[owner] = dict(values)
    return new


def _type_created(system: System, new: Model, key, ref: Optional[TypeRef]):
    """Type a created element by ref, in the dimension of the hierarchy that
    holds ref; without ref, or outside the application dimension, its own
    type is the root type."""
    typing = new.typing(key)
    hier = None if ref is None else system.hierarchy_of(ref.model)
    if hier is not None and hier.dimension == APPLICATION:
        typing.own = ref
        return
    typing.own = TypeRef(ROOT_MODEL, ROOT_ARROW if isinstance(key, Arrow) else ROOT_NODE)
    if hier is system.data:
        typing.data = ref
    elif hier is not None:
        typing.supplementary[hier.name] = ref


def _attribute_effects(rule, model: Model, new: Model, inst: dict):
    """Apply the TO block's attribute assignments to the rewritten model;
    an increment reads the matched model and needs the attribute there."""
    for el in rule.rhs.elements.values():
        target_key = inst[el.key]
        for attr, clause in sorted(el.attrs.items()):
            if clause.kind == "any":
                continue
            if clause.kind == "lit":
                new.attr_values.setdefault(target_key, {})[attr] = clause.value
            elif clause.kind == "ref":
                base = model.attr_values.get(inst[clause.elem], {}).get(clause.attr)
                if base is None:
                    raise NotApplicable(
                        f"attribute {clause.elem}.{clause.attr} absent in the match"
                    )
                if not isinstance(clause.delta, int):
                    raise RuleError(f"unsubstituted parameter {clause.delta}")
                new.attr_values.setdefault(target_key, {})[attr] = base + clause.delta
            elif clause.kind == "param":
                raise RuleError(f"unsubstituted parameter {clause.value}")


# ---------------------------------------------------------------------------
# Application discovery
# ---------------------------------------------------------------------------


def list_applications(
    system: System, rules: list[McmtRule], model_name: str
) -> list[tuple[McmtRule, LhsMatch]]:
    """Every applicable (rule, match) pair for the model, canonically ordered
    and post-filtered by a dry-run application."""
    out = []
    for rule in rules:
        if rule.params:
            continue
        found, bindings = match_for_model(system, rule, model_name)
        for b in bindings:
            for m in bind_lhs(system, rule, b, model_name):
                try:
                    apply_rule(system, rule, model_name, m)
                except NotApplicable:
                    continue
                out.append((rule, m))
    out.sort(key=lambda rm: (rm[0].name, rm[1].sort_key()))
    return out


# ---------------------------------------------------------------------------
# Proliferation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoLevelRule:
    """A concrete rule over one flattened type graph, produced from a coupled
    rule and one binding by replacing variable types with their images."""

    name: str
    source: str
    binding: Binding
    lhs: PatternBlock
    rhs: PatternBlock
    types: dict  # pattern key -> TypeRef

    @cached_property
    def _interface(self) -> PatternBlock:
        out = dict(self.lhs.elements)
        for key, el in self.rhs.elements.items():
            out.setdefault(key, el)
        return PatternBlock(out)

    def interface(self) -> PatternBlock:
        return self._interface

    def type_graph(self) -> Graph:
        nodes, arrows = set(), set()
        for ref in self.types.values():
            if isinstance(ref.elem, Arrow):
                arrows.add(ref.elem)
                nodes.update((ref.elem.src, ref.elem.tgt))
            else:
                nodes.add(ref.elem)
        return Graph(frozenset(nodes), frozenset(arrows))


def proliferate(system: System, rule: McmtRule, model_name: str) -> list[TwoLevelRule]:
    """One two-level rule per complete binding: FROM/TO variable types are
    replaced by their binding images and the META block drops away."""
    found, bindings = match_for_model(system, rule, model_name)
    out = []
    for k, b in enumerate(bindings, start=1):
        types = {}
        ok = True
        for el in rule.interface().elements.values():
            if el.type is None or el.type.level == 0:
                continue
            bound = b.lookup(el.type.level, rule.type_key(el.type))
            if bound is None:
                ok = False
                break
            types[el.key] = TypeRef(b.model_at(el.type.level), bound)
        if not ok:
            continue
        out.append(
            TwoLevelRule(f"{rule.name}#{k}", rule.name, b, rule.lhs, rule.rhs, types)
        )
    return out


def render_two_level_rule(tlr: TwoLevelRule) -> str:
    """Print a proliferated rule in the rule grammar, with its flattened type
    graph as a single constant meta level."""
    tg = tlr.type_graph()
    lines = [f"rule {tlr.name} {{", "  meta {", "    mm1 {"]
    for n in sorted(tg.nodes):
        lines.append(f"      {n}$")
    for a in sorted(tg.arrows):
        lines.append(f"      {a.name}$ ({a.src} -> {a.tgt})")
    lines += ["    }", "  }"]
    for label, blk in (("from", tlr.lhs), ("to", tlr.rhs)):
        lines.append(f"  {label} {{")
        for el in blk.nodes() + blk.arrows():
            ref = tlr.types.get(el.key)
            tname = (
                (ref.elem.name if isinstance(ref.elem, Arrow) else ref.elem)
                if ref
                else None
            )
            txt = el.name
            if tname:
                txt += f" : {tname} @ mm1"
            if el.kind == "arrow":
                txt += f" ({el.src} -> {el.tgt})"
            lines.append(f"    {txt}")
        for el in blk.nodes() + blk.arrows():
            for attr in sorted(el.attrs):
                lines.append(f"    {el.name}.{attr} = {el.attrs[attr].render()}")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def two_level_matches(system: System, tlr: TwoLevelRule, model_name: str) -> list[dict]:
    """Matches of a proliferated rule's FROM block: the search of the coupled
    rule, with each element's type read from the rule's concrete types."""

    def type_of(el: PatternElement):
        ref = tlr.types.get(el.key)
        return None if ref is None else (ref.model, ref.elem)

    return typed_matches(system, tlr.lhs, model_name, type_of, attrs_matter=True)


def apply_two_level(
    system: System, tlr: TwoLevelRule, model_name: str, mu: dict
) -> ApplicationResult:
    """Apply a proliferated rule at match mu by the same rewrite as
    apply_rule, with created elements typed directly by the rule's concrete
    types, and always post-filtered."""
    return _rewrite(
        system, tlr, model_name, tlr.binding, mu, lambda el: tlr.types.get(el.key), True
    )


# ---------------------------------------------------------------------------
# Cardinality-driven expansion
# ---------------------------------------------------------------------------


def expand_cardinality_variants(
    system: System,
    rule: McmtRule,
    binding: Binding,
    model_name: str,
    cap: int = 8,
) -> list[McmtRule]:
    """Concretize counted patterns for one binding.

    A bottom meta-level arrow whose binding image carries a bounded
    multiplicity makes the instance elements of its target type replicate once
    per possible count (one rule variant per count when the bounds differ).
    A FROM/TO arrow with the symbolic [n] multiplicity replicates its target
    node per the count observed in the target model, capped."""
    jobs: list[tuple[set, list[int]]] = []
    if rule.depth:
        blk = rule.meta_level(rule.depth)
        for el in blk.arrows():
            bound = binding.lookup(rule.depth, el.key)
            if not isinstance(bound, Arrow):
                continue
            tmodel = system.find_model(binding.model_at(rule.depth))
            mult = tmodel.multiplicity(bound)
            if mult.max is None:
                continue
            counts = list(range(max(mult.min, 1), min(mult.max, cap) + 1))
            pivots = {
                e.name
                for b in (rule.lhs, rule.rhs)
                for e in b.nodes()
                if e.type is not None
                and e.type.level == rule.depth
                and e.type.name == el.tgt
            }
            if pivots and counts != [1]:
                jobs.append((pivots, counts))
    for el in list(rule.lhs.arrows()) + [
        a for a in rule.rhs.arrows() if a.key not in rule.lhs.elements
    ]:
        if isinstance(el.mult, str):
            n = min(_observed_count(system, rule, binding, model_name, el), cap)
            jobs.append(({el.tgt}, [max(n, 0)]))
    if not jobs:
        return [rule]
    variants = [rule]
    for pivots, counts in jobs:
        expanded = []
        for base_rule in variants:
            for c in counts:
                expanded.append(_replicate(base_rule, pivots, c))
        variants = expanded
    return variants


def _observed_count(system, rule, binding, model_name, el) -> int:
    """Resolve a symbolic [n] multiplicity: how many target elements could
    play the replicated endpoint, given the binding."""
    blk = rule.lhs if el.key in rule.lhs.elements else rule.rhs
    tgt_el = blk.by_name(el.tgt) or rule.interface().by_name(el.tgt)
    ref = None if tgt_el is None else _bound_type(rule, binding, tgt_el)
    if ref is None:
        return 1
    index = _target(system, model_name).by_type(system, "node")
    return len(index.get((ref.model, ref.elem), ()))


def _replicate(rule: McmtRule, pivots: set, copies: int) -> McmtRule:
    """Duplicate the pivot nodes of the FROM/TO blocks (and their incident
    pattern arrows) so the pattern demands exactly `copies` instances."""

    def copy_name(name: str, k: int) -> str:
        return f"{name}_{k}" if name in pivots else name

    def clone_block(blk: PatternBlock) -> PatternBlock:
        out = []
        for el in blk.nodes():
            out.append(el)
            if el.name in pivots:
                out += [replace(el, name=f"{el.name}_{k}") for k in range(2, copies + 1)]
        for el in blk.arrows():
            out.append(replace(el, mult=None) if isinstance(el.mult, str) else el)
            if el.src in pivots or el.tgt in pivots:
                out += [
                    replace(
                        el,
                        name=f"{el.name}_{k}",
                        src=copy_name(el.src, k),
                        tgt=copy_name(el.tgt, k),
                        mult=None,
                    )
                    for k in range(2, copies + 1)
                ]
        return PatternBlock.of(out)

    return replace(
        rule, name=f"{rule.name}x{copies}", lhs=clone_block(rule.lhs), rhs=clone_block(rule.rhs)
    )
