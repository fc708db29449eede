"""Binding discovery for coupled rules.

The meta pattern chain is matched level by level into the stack of models
above the target model (top-down recursion: a level's types must be bound
before the level itself).  Each level match is an injective, type-consistent
graph homomorphism found by a candidate-pruned backtracking search; a direct
typing edge in the pattern may match a transitive typing path in the target.
The left-hand side is then matched into the target model under the same
regime plus attribute constraints, and the whole family is re-checked for
type compatibility level by level.  Proliferated rules and the pattern
fragments of temporal formulas are matched by the same search, typed_matches,
with their element types read from their own concrete typings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .graph import Arrow, Graph, enumerate_homomorphisms
from .hierarchy import (
    ROOT_ARROW,
    ROOT_MODEL,
    ROOT_NODE,
    Model,
    Multiplicity,
    System,
    domain_between,
    effective_potency,
    elem_str,
    type_refs,
)
from .rules import McmtRule, PatternBlock, PatternElement, RuleError

ROOT_IDENTITY = {ROOT_NODE: ROOT_NODE, ROOT_ARROW: ROOT_ARROW}


@dataclass(frozen=True)
class Binding:
    """A complete match of a rule's meta chain into a stack of models: the
    strictly increasing level assignment plus one element map per level."""

    stack: tuple  # model names, position 0 = root
    f: tuple  # rule level -> stack position, f[0] = 0
    maps: tuple  # per rule level: tuple of sorted (pattern key, target key) pairs

    @cached_property
    def _level_maps(self) -> tuple:
        return tuple(dict(m) for m in self.maps)

    def level_map(self, i: int) -> dict:
        """The level's element map, built once per binding; read it only."""
        return self._level_maps[i]

    def model_at(self, i: int) -> str:
        return self.stack[self.f[i]]

    def lookup(self, level: int, key):
        return self.level_map(level).get(key)

    def sort_key(self):
        return (self.f, tuple(tuple((elem_str(k), elem_str(v)) for k, v in m) for m in self.maps))

    def digest(self) -> str:
        raw = repr(self.sort_key()).encode()
        return hashlib.sha256(raw).hexdigest()[:12]

    def render(self) -> str:
        lines = []
        for i in range(1, len(self.f)):
            pairs = ", ".join(f"{elem_str(k)} -> {elem_str(v)}" for k, v in self.maps[i])
            lines.append(f"mm{i} -> {self.model_at(i)}: {pairs}")
        return "\n".join(lines)


@dataclass(frozen=True)
class LhsMatch:
    binding: Binding
    mu: tuple  # sorted (pattern key, target key) pairs

    def mu_map(self) -> dict:
        return dict(self.mu)

    def sort_key(self):
        return (self.binding.sort_key(), tuple((elem_str(k), elem_str(v)) for k, v in self.mu))

    def digest(self) -> str:
        raw = repr(self.sort_key()).encode()
        return hashlib.sha256(raw).hexdigest()[:12]


def build_stack(system: System, model_name: str) -> list[str]:
    """The models a rule's meta chain may bind to, ordered from most to least
    abstract: the root, the data-type levels, supplementary hierarchies
    top-down, then the application chain strictly above the target model."""
    stack = [ROOT_MODEL]
    stack += [m for m in system.data.model_names() if m != ROOT_MODEL]
    for name in sorted(system.supplementary):
        h = system.supplementary[name]
        stack += [m for m in h.model_names() if m != ROOT_MODEL]
    h = system.hierarchy_of(model_name)
    chain = [m.name for m in h.typing_chain(model_name)]
    stack += list(reversed(chain[1:-1]))  # strictly above the model, below root
    return stack


# ---------------------------------------------------------------------------
# Level matching
# ---------------------------------------------------------------------------


class _Target:
    """A target model prepared for level matching: its plain-arrow graph, the
    sorted candidate pools per element kind and, built on first use, each
    pool indexed by every type its elements have, in pool order."""

    def __init__(self, model: Model):
        self.model = model
        self.graph = Graph(model.graph.nodes, frozenset(model.plain_arrows()))
        self.pools = {"node": sorted(self.graph.nodes), "arrow": sorted(self.graph.arrows)}
        self._by_type: dict = {}

    def by_type(self, system: System, kind: str) -> dict:
        index = self._by_type.get(kind)
        if index is None:
            index = self._by_type[kind] = {}
            for x in self.pools[kind]:
                for ref in type_refs(system, self.model.name, x):
                    index.setdefault(ref, []).append(x)
        return index


def _target(system: System, model_name: str) -> _Target:
    """The prepared target, memoized like the typing data it is derived from."""
    ck = ("match-target", model_name)
    hit = system.cache.get(ck)
    if hit is not None:
        return hit[0]
    return system.remember(ck, _Target(system.find_model(model_name)), (model_name,))


def _resolve_type(rule: McmtRule, el: PatternElement, partial_f: dict, partial_maps: dict):
    """The (model, element) the pattern element's type is bound to; None when
    the element is root-typed (matches anything), False when unresolvable."""
    if el.type is None or el.type.level == 0:
        return None
    lvl = el.type.level
    if lvl not in partial_maps:
        return False  # types must have been bound first
    bound = partial_maps[lvl].get(rule.type_key(el.type))
    if bound is None:
        return False
    return (partial_f[lvl], bound)


def _constraints_ok(system: System, model: Model, el: PatternElement, target_key) -> bool:
    if el.potency is not None:
        tpot = effective_potency(system, model.name, target_key)
        if not el.potency.narrows(tpot):
            return False
    if isinstance(el.mult, Multiplicity):
        if not isinstance(target_key, Arrow):
            return False
        if not el.mult.narrows(model.multiplicity(target_key)):
            return False
    return True


def _attrs_ok(model: Model, el: PatternElement, target_key) -> bool:
    for attr, clause in el.attrs.items():
        if clause.kind == "ref":
            continue  # assignments are applied, not matched
        if clause.kind == "param":
            raise RuleError(f"unsubstituted parameter {clause.value} at match time")
        have = model.attr_values.get(target_key, {})
        if attr not in have:
            return False
        if clause.kind == "lit" and have[attr] != clause.value:
            return False
    return True


def graph_match(
    system: System,
    rule: McmtRule,
    block: PatternBlock,
    target_model_name: str,
    partial_f: dict,
    partial_maps: dict,
    attrs_matter: bool = False,
    structural: bool = False,
) -> list[dict]:
    """All injective, constraint-respecting matches of one level of a coupled
    rule into one target model, its types resolved through the partial
    binding of the levels above."""
    return typed_matches(
        system,
        block,
        target_model_name,
        lambda el: _resolve_type(rule, el, partial_f, partial_maps),
        attrs_matter,
        structural,
    )


def typed_matches(
    system: System,
    block: PatternBlock,
    model_name: str,
    type_of: Callable[[PatternElement], object],
    attrs_matter: bool = False,
    structural: bool = False,
) -> list[dict]:
    """All injective, constraint-respecting matches of a pattern block into
    one model, in canonical order.  type_of gives the (model, element) an
    element's image must have as a transitive type, inheritance included:
    None for any, False for no candidate.  Structural mode keeps only the
    shape, constant and injectivity requirements (used for diagnostics)."""
    target = _target(system, model_name)
    model = target.model

    def candidates(el: PatternElement):
        pool = target.pools[el.kind]
        if not structural:
            ref = type_of(el)
            if ref is False:
                return []
            if ref is not None:
                pool = target.by_type(system, el.kind).get(ref, ())
        if el.plain:
            return pool
        out = []
        for x in pool:
            if el.constant and (x.name if isinstance(x, Arrow) else x) != el.name:
                continue
            if not structural:
                if not _constraints_ok(system, model, el, x):
                    continue
                if attrs_matter and not _attrs_ok(model, el, x):
                    continue
            out.append(x)
        return out

    node_candidates: dict[str, list] = {}
    for el in block.nodes():
        cands = candidates(el)
        if not cands:
            return []
        node_candidates[el.name] = cands

    node_sets = {k: set(v) for k, v in node_candidates.items()}
    arrow_candidates: dict[Arrow, list] = {}
    for el in block.arrows():
        # an image arrow must run between candidate images of its endpoints
        srcs = node_sets.get(el.src)
        tgts = node_sets.get(el.tgt)
        cands = [
            x
            for x in candidates(el)
            if (srcs is None or x.src in srcs) and (tgts is None or x.tgt in tgts)
        ]
        if not cands:
            return []
        arrow_candidates[el.key] = cands

    hits = enumerate_homomorphisms(
        block.graph(),
        target.graph,
        injective=True,
        node_candidates=node_candidates,
        arrow_candidates=arrow_candidates,
    )
    return [{**m.nodes, **m.arrows} for m in hits]


# ---------------------------------------------------------------------------
# The recursive meta-chain match
# ---------------------------------------------------------------------------


def match(
    system: System, rule: McmtRule, stack: list[str], structural: bool = False
) -> tuple[bool, list[Binding]]:
    """Find every complete binding of the rule's meta chain into the stack.

    Both indices advance together on descent; each meta level sweeps the
    remaining stack levels; partial bindings that cannot be completed are
    pruned.  Level 0 is always the identity on the root."""
    if stack[0] != ROOT_MODEL:
        raise ValueError("stack must start at the root model")
    results: list[Binding] = []

    def recur(mm_level: int, tg_level: int, partial_pos: dict, partial_maps: dict) -> bool:
        if mm_level > rule.depth:
            n = rule.depth
            f = tuple(partial_pos[i] for i in range(n + 1))
            maps = tuple(
                tuple(sorted(partial_maps[i].items(), key=lambda kv: elem_str(kv[0])))
                for i in range(n + 1)
            )
            results.append(Binding(tuple(stack), f, maps))
            return True
        found = False
        level = tg_level
        while level < len(stack):
            partial_f = {i: stack[p] for i, p in partial_pos.items()}
            maps = graph_match(
                system,
                rule,
                rule.meta_level(mm_level),
                stack[level],
                partial_f,
                partial_maps,
                structural=structural,
            )
            for m in maps:
                partial_pos[mm_level] = level
                partial_maps[mm_level] = m
                found = recur(mm_level + 1, level + 1, partial_pos, partial_maps) or found
                del partial_pos[mm_level]
                del partial_maps[mm_level]
            level += 1
        return found

    found = recur(1, 1, {0: 0}, {0: dict(ROOT_IDENTITY)})
    del recur  # a closure that calls itself is a reference cycle: free it now
    results.sort(key=lambda b: b.sort_key())
    return found, results


def meta_bindings(system: System, rule: McmtRule, model_name: str) -> tuple:
    """Every binding of the rule's meta chain into the stack above the model,
    memoized per target model and meta chain.  The match reads only the
    stack's models and what their typings reach, so the bindings outlive
    every replace_model of a model outside that reach, such as the target
    model itself or a sibling below the stack."""
    ck = ("meta", model_name, rule.meta_key)
    hit = system.cache.get(ck)
    if hit is not None:
        return hit[0]
    stack = build_stack(system, model_name)
    return system.remember(ck, tuple(match(system, rule, stack)[1]), tuple(stack))


def match_for_model(system: System, rule: McmtRule, model_name: str) -> tuple[bool, list[Binding]]:
    bindings = meta_bindings(system, rule, model_name)
    return bool(bindings), list(bindings)


# ---------------------------------------------------------------------------
# Left-hand-side matching
# ---------------------------------------------------------------------------


def bind_lhs(
    system: System,
    rule: McmtRule,
    binding: Binding,
    model_name: str,
    structural: bool = False,
) -> list[LhsMatch]:
    """All type-compatible matches of the FROM pattern into the target model
    under the given binding, verified level by level: the typing of a matched
    element must land inside the binding's image, allowing the target's domain
    of definition to be strictly larger."""
    partial_f = {i: binding.model_at(i) for i in range(len(binding.f))}
    partial_maps = {i: binding.level_map(i) for i in range(len(binding.f))}
    hits = graph_match(
        system,
        rule,
        rule.lhs,
        model_name,
        partial_f,
        partial_maps,
        attrs_matter=True,
        structural=structural,
    )
    if not hits:
        return []
    out = []
    sigma_l = None if structural else rule.sigma(rule.lhs)
    for mu in hits:
        if structural or _type_compatible(system, rule, binding, model_name, mu, sigma_l):
            out.append(
                LhsMatch(binding, tuple(sorted(mu.items(), key=lambda kv: elem_str(kv[0]))))
            )
    out.sort(key=lambda m: m.sort_key())
    return out


def _type_compatible(
    system: System,
    rule: McmtRule,
    binding: Binding,
    model_name: str,
    mu: dict,
    sigma_l: list,
) -> bool:
    for i in range(1, rule.depth + 1):
        beta = binding.level_map(i)
        tg_model = binding.model_at(i)
        sigma_s = domain_between(system, model_name, tg_model)
        sl = sigma_l[i - 1]
        for key in list(sl.nodes) + list(sl.arrows):
            target = mu[key]
            expected = beta.get(sl.get(key))
            actual = sigma_s.get(target)
            if expected is None or actual is None:
                return False
            if actual != expected and not _specialises(
                system, tg_model, actual, expected
            ):
                return False
    return True


def _specialises(system: System, model_name: str, elem, ancestor) -> bool:
    """elem is connected to ancestor by specialisation arrows in the model."""
    if isinstance(elem, Arrow) or isinstance(ancestor, Arrow):
        return False
    model = system.find_model(model_name)
    seen, frontier = {elem}, [elem]
    while frontier:
        cur = frontier.pop()
        for p in model.inheritance_parents(cur):
            if p == ancestor:
                return True
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    return False
