"""Independent reference constructions the implementation is checked against.

Everything here is deliberately written with different machinery than the
library: the pushout is a quotient of a disjoint sum, the final pullback
complement is found by enumerating all subgraphs, temporal rewriting runs on
plain tuples, and bindings are enumerated by unfiltered homomorphism search.
A rule application is rebuilt in the category of inclusion chains, with the
typing of every level carried along, as the paper's construction states it.
"""

from __future__ import annotations

import itertools

from mlmkit.chains import ChainMorphism, chain_pushout, inclusion_chain, reduct
from mlmkit.graph import (
    Arrow,
    Graph,
    GraphMorphism,
    SubgraphRef,
    enumerate_homomorphisms,
    enumerate_subgraphs,
    final_pullback_complement,
    inclusion,
)
from mlmkit.hierarchy import domain_between
from mlmkit.rewrite import _instance_block_graph, _rename_created


# ---------------------------------------------------------------------------
# Pushout by quotient of a disjoint sum
# ---------------------------------------------------------------------------


class _Union:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def quotient_pushout(phi: GraphMorphism, psi: GraphMorphism):
    """Pushout of K <-psi- G -phi-> H as a quotient of the disjoint union of
    H and K by the equivalence generated by phi(x) ~ psi(x).  Returns the
    graph and the two legs; element names are canonical class representatives.
    """
    g, h, k = phi.dom, phi.cod, psi.cod
    uf = _Union()
    for n in g.nodes:
        uf.union(("H", phi.nodes[n]), ("K", psi.nodes[n]))
    for a in g.arrows:
        uf.union(("H", phi.arrows[a]), ("K", psi.arrows[a]))
    for n in h.nodes:
        uf.find(("H", n))
    for n in k.nodes:
        uf.find(("K", n))
    for a in h.arrows:
        uf.find(("H", a))
    for a in k.arrows:
        uf.find(("K", a))

    def node_class(tag, n):
        root = uf.find((tag, n))
        members = sorted(
            f"{t}.{x}" for (t, x), _ in uf.parent.items() if uf.find((t, x)) == root and not isinstance(x, Arrow)
        )
        return "|".join(members)

    def arrow_class(tag, a):
        root = uf.find((tag, a))
        members = sorted(
            f"{t}.{x!r}"
            for (t, x), _ in uf.parent.items()
            if uf.find((t, x)) == root and isinstance(x, Arrow)
        )
        rep = next(
            (t, x) for (t, x), _ in uf.parent.items() if uf.find((t, x)) == root and isinstance(x, Arrow)
        )
        t, x = rep
        src = node_class(t, x.src)
        tgt = node_class(t, x.tgt)
        return Arrow("|".join(members), src, tgt)

    nodes = {node_class("H", n) for n in h.nodes} | {node_class("K", n) for n in k.nodes}
    arrows = {arrow_class("H", a) for a in h.arrows} | {arrow_class("K", a) for a in k.arrows}
    p = Graph(frozenset(nodes), frozenset(arrows))
    leg_h = GraphMorphism(
        h, p, {n: node_class("H", n) for n in h.nodes}, {a: arrow_class("H", a) for a in h.arrows}
    )
    leg_k = GraphMorphism(
        k, p, {n: node_class("K", n) for n in k.nodes}, {a: arrow_class("K", a) for a in k.arrows}
    )
    return p, leg_k, leg_h


def isomorphic(g1: Graph, g2: Graph) -> bool:
    if len(g1.nodes) != len(g2.nodes) or len(g1.arrows) != len(g2.arrows):
        return False
    hits = enumerate_homomorphisms(g1, g2, injective=True)
    return any(
        set(m.nodes.values()) == set(g2.nodes) and set(m.arrows.values()) == set(g2.arrows)
        for m in hits
    )


def pushout_isomorphism(p1, leg_k1, leg_h1, p2, leg_k2, leg_h2) -> bool:
    """Do the two cocones present the same pushout?  There must be an
    isomorphism commuting with both legs."""
    if len(p1.nodes) != len(p2.nodes) or len(p1.arrows) != len(p2.arrows):
        return False
    node_cands = {}
    for n in p1.nodes:
        want = set()
        for x, img in leg_k1.nodes.items():
            if img == n:
                want.add(leg_k2.nodes[x])
        for x, img in leg_h1.nodes.items():
            if img == n:
                want.add(leg_h2.nodes[x])
        if len(want) > 1:
            return False
        node_cands[n] = sorted(want) if want else sorted(p2.nodes)
    arrow_cands = {}
    for a in p1.arrows:
        want = set()
        for x, img in leg_k1.arrows.items():
            if img == a:
                want.add(leg_k2.arrows[x])
        for x, img in leg_h1.arrows.items():
            if img == a:
                want.add(leg_h2.arrows[x])
        if len(want) > 1:
            return False
        arrow_cands[a] = sorted(want) if want else sorted(p2.arrows)
    hits = enumerate_homomorphisms(
        p1, p2, injective=True, node_candidates=node_cands, arrow_candidates=arrow_cands
    )
    return any(
        set(m.nodes.values()) == set(p2.nodes) and set(m.arrows.values()) == set(p2.arrows)
        for m in hits
    )


def mediating_morphisms(p, leg_k, leg_h, x, cone_k, cone_h):
    """All morphisms p -> x commuting with both cocones; the universal
    property demands exactly one."""
    node_cands = {}
    for n in p.nodes:
        want = set()
        for a, img in leg_k.nodes.items():
            if img == n:
                want.add(cone_k.nodes[a])
        for a, img in leg_h.nodes.items():
            if img == n:
                want.add(cone_h.nodes[a])
        if len(want) > 1:
            return []
        node_cands[n] = sorted(want) if want else sorted(x.nodes)
    arrow_cands = {}
    for a in p.arrows:
        want = set()
        for b, img in leg_k.arrows.items():
            if img == a:
                want.add(cone_k.arrows[b])
        for b, img in leg_h.arrows.items():
            if img == a:
                want.add(cone_h.arrows[b])
        if len(want) > 1:
            return []
        arrow_cands[a] = sorted(want) if want else sorted(x.arrows)
    return enumerate_homomorphisms(
        p, x, node_candidates=node_cands, arrow_candidates=arrow_cands
    )


# ---------------------------------------------------------------------------
# Final pullback complement by exhaustive subgraph search
# ---------------------------------------------------------------------------


def fpbc_by_enumeration(rho: GraphMorphism, delta: GraphMorphism):
    """Largest subgraph T of D whose delta-preimage is exactly R (None when no
    subgraph qualifies)."""
    r, i, d = rho.dom, delta.dom, delta.cod
    best = None
    for sub in enumerate_subgraphs(d):
        pre_nodes = {n for n in i.nodes if delta.nodes[n] in sub.nodes}
        pre_arrows = {a for a in i.arrows if delta.arrows[a] in sub.arrows}
        if pre_nodes == set(r.nodes) and pre_arrows == set(r.arrows):
            if best is None or sub.to_graph().size > best.size:
                best = sub.to_graph()
    return best


# ---------------------------------------------------------------------------
# Temporal terms
# ---------------------------------------------------------------------------


def term_unroll(t):
    op = t[0]
    if op in ("const", "atom"):
        return t
    if op == "not":
        return ("not", term_unroll(t[1]))
    if op == "X":
        return t
    if op in ("and", "or", "impl"):
        return (op, term_unroll(t[1]), term_unroll(t[2]))
    if op == "F":
        return ("or", term_unroll(t[1]), ("X", t))
    if op == "G":
        return ("and", term_unroll(t[1]), ("X", t))
    if op == "U":
        return ("or", term_unroll(t[2]), ("and", term_unroll(t[1]), ("X", t)))
    if op == "R":
        return ("and", term_unroll(t[2]), ("or", term_unroll(t[1]), ("X", t)))
    raise ValueError(op)


def term_simplify(t):
    op = t[0]
    if op in ("const", "atom"):
        return t
    if op in ("not", "X", "F", "G"):
        s = term_simplify(t[1])
        if op == "not" and s[0] == "const":
            return ("const", not s[1])
        if op == "F" and s == ("const", True):
            return s
        if op == "G" and s == ("const", False):
            return s
        return (op, s)
    l, r = term_simplify(t[1]), term_simplify(t[2])
    if op == "and":
        if ("const", False) in (l, r):
            return ("const", False)
        if l == ("const", True):
            return r
        if r == ("const", True):
            return l
    if op == "or":
        if ("const", True) in (l, r):
            return ("const", True)
        if l == ("const", False):
            return r
        if r == ("const", False):
            return l
    if op == "impl":
        if l == ("const", False) or r == ("const", True):
            return ("const", True)
        if l == ("const", True):
            return r
        if r == ("const", False):
            return term_simplify(("not", l))
    if op == "U":
        if r == ("const", True):
            return ("const", True)
        if l == ("const", False):
            return r
    if op == "R":
        if r == ("const", False):
            return ("const", False)
        if l == ("const", True):
            return r
    return (op, l, r)


def term_strip_next(t):
    op = t[0]
    if op in ("const", "atom"):
        return t
    if op == "X":
        return term_strip_next(t[1])
    if op in ("not", "F", "G"):
        return (op, term_strip_next(t[1]))
    return (op, term_strip_next(t[1]), term_strip_next(t[2]))


def term_step(t):
    return term_simplify(term_strip_next(term_simplify(term_unroll(t))))


# ---------------------------------------------------------------------------
# Brute-force binding enumeration
# ---------------------------------------------------------------------------


def brute_force_bindings(system, rule, stack):
    """Every (f, beta family) built by unfiltered level assignment and
    injective homomorphism search, kept iff all binding requirements hold:
    constants by name, types through the earlier levels, narrowing bounds.
    Written against the same postconditions but via plain enumeration."""
    from mlmkit.hierarchy import Multiplicity, type_closure
    from mlmkit.matching import ROOT_IDENTITY

    n = rule.depth
    positions = range(1, len(stack))
    results = []
    for combo in itertools.combinations(positions, n):
        f = (0,) + combo
        level_maps = [dict(ROOT_IDENTITY)]
        families = [level_maps]
        ok_combo = True
        families = [[dict(ROOT_IDENTITY)]]
        for i in range(1, n + 1):
            blk = rule.meta_level(i)
            model = system.find_model(stack[f[i]])
            target = Graph(model.graph.nodes, frozenset(model.plain_arrows()))
            hits = enumerate_homomorphisms(blk.graph(), target, injective=True)
            level_options = []
            for m in hits:
                assignment = {}
                assignment.update(m.nodes)
                assignment.update(m.arrows)
                level_options.append(assignment)
            if not level_options:
                ok_combo = False
                break
            families = [fam + [opt] for fam in families for opt in level_options]
        if not ok_combo:
            continue
        for fam in families:
            if _binding_ok(system, rule, stack, f, fam):
                results.append((f, fam))
    return results


def _binding_ok(system, rule, stack, f, fam):
    from mlmkit.hierarchy import Multiplicity, type_closure

    for i in range(1, rule.depth + 1):
        blk = rule.meta_level(i)
        model = system.find_model(stack[f[i]])
        for el in blk.elements.values():
            img = fam[i][el.key]
            img_name = img.name if isinstance(img, Arrow) else img
            if el.constant and img_name != el.name:
                return False
            if el.type is not None and el.type.level > 0:
                tblk = rule.block(el.type.level)
                tel = tblk.by_name(el.type.name)
                bound = fam[el.type.level].get(tel.key)
                refs = {
                    (t.model, t.elem)
                    for t in type_closure(system, stack[f[i]], img)
                    if t.steps > 0 or (t.model, t.elem) != (stack[f[i]], img)
                }
                if (stack[f[el.type.level]], bound) not in refs:
                    return False
            if isinstance(el.mult, Multiplicity):
                if not isinstance(img, Arrow):
                    return False
                if not el.mult.narrows(model.multiplicity(img)):
                    return False
            if el.potency is not None:
                from mlmkit.hierarchy import effective_potency

                if not el.potency.narrows(effective_potency(system, stack[f[i]], img)):
                    return False
    return True


def brute_force_lhs(system, rule, binding, model_name):
    """Every FROM-pattern match under a binding: each pattern element's
    candidates come from a scan of the whole target model, typed through a
    direct type_closure walk, and the homomorphisms from unpruned enumeration.
    Only the final level-by-level type compatibility is the library's."""
    from mlmkit.hierarchy import Multiplicity, effective_potency, elem_str, type_closure
    from mlmkit.matching import LhsMatch, _type_compatible

    model = system.find_model(model_name)
    target = Graph(model.graph.nodes, frozenset(model.plain_arrows()))

    def admissible(el, x):
        if el.constant and (x.name if isinstance(x, Arrow) else x) != el.name:
            return False
        if el.type is not None and el.type.level > 0:
            tel = rule.block(el.type.level).by_name(el.type.name)
            want = (binding.model_at(el.type.level), binding.level_map(el.type.level).get(tel.key))
            refs = {
                (t.model, t.elem)
                for t in type_closure(system, model_name, x)
                if t.steps > 0 or (t.model, t.elem) != (model_name, x)
            }
            if want not in refs:
                return False
        if el.potency is not None:
            if not el.potency.narrows(effective_potency(system, model_name, x)):
                return False
        if isinstance(el.mult, Multiplicity):
            if not isinstance(x, Arrow) or not el.mult.narrows(model.multiplicity(x)):
                return False
        for attr, clause in el.attrs.items():
            if clause.kind == "ref":
                continue
            have = model.attr_values.get(x, {})
            if attr not in have or (clause.kind == "lit" and have[attr] != clause.value):
                return False
        return True

    node_cands = {
        el.name: [x for x in sorted(target.nodes) if admissible(el, x)] for el in rule.lhs.nodes()
    }
    arrow_cands = {
        el.key: [x for x in sorted(target.arrows) if admissible(el, x)] for el in rule.lhs.arrows()
    }
    hits = enumerate_homomorphisms(
        rule.lhs.graph(),
        target,
        injective=True,
        node_candidates=node_cands,
        arrow_candidates=arrow_cands,
    )
    sigma_l = rule.sigma(rule.lhs)
    out = []
    for m in hits:
        mu = {**m.nodes, **m.arrows}
        if _type_compatible(system, rule, binding, model_name, mu, sigma_l):
            out.append(LhsMatch(binding, tuple(sorted(mu.items(), key=lambda kv: elem_str(kv[0])))))
    return sorted(out, key=lambda m: m.sort_key())


# ---------------------------------------------------------------------------
# Rule application in the category of chains
# ---------------------------------------------------------------------------


def chain_rewrite(system, rule, model_name, lhs_match):
    """One rule application as a construction on inclusion chains: the typing
    chains of the target (over the binding's stack), of the FROM block and of
    the interface; the chain pushout along the match; and the reduct of the
    pushout chain along the final pullback complement.  Returns that reduct,
    whose base is the rewritten model graph.  The chain constructors raise if
    a level stops being a subgraph or a chain morphism stops being one."""
    binding = lhs_match.binding
    mu = lhs_match.mu_map()
    target = system.find_model(model_name).graph

    iface = rule.interface()
    lhs_graph = rule.lhs.graph()
    fresh_nodes, fresh_arrows = _rename_created(rule, mu, target)
    i_graph = _instance_block_graph(rule, iface, fresh_nodes, fresh_arrows)
    r_graph = _instance_block_graph(rule, rule.rhs, fresh_nodes, fresh_arrows)

    mu_morph = GraphMorphism(
        lhs_graph,
        target,
        {el.name: mu[el.name] for el in rule.lhs.nodes()},
        {el.key: mu[el.key] for el in rule.lhs.arrows()},
    )

    # typing chains over the binding's stack
    stack = list(binding.stack)
    sigma_s = [domain_between(system, model_name, stack[a]) for a in range(1, len(stack))]
    s_chain = inclusion_chain(target, [s.definedness().to_graph() for s in sigma_s])
    sigma_l = rule.sigma(rule.lhs)
    l_chain = inclusion_chain(lhs_graph, [s.definedness().to_graph() for s in sigma_l])
    i_levels = [
        _rename_level(rule, s.definedness(), fresh_nodes, fresh_arrows)
        for s in rule.sigma(iface)
    ]
    i_chain = inclusion_chain(i_graph, i_levels)

    lam = ChainMorphism(
        l_chain,
        i_chain,
        tuple(range(rule.depth + 1)),
        tuple(
            inclusion(l_chain.levels[i], i_chain.levels[i])
            for i in range(rule.depth + 1)
        ),
    )
    mu_phis = []
    for i in range(rule.depth + 1):
        sub = SubgraphRef(lhs_graph, l_chain.levels[i].nodes, l_chain.levels[i].arrows)
        mu_phis.append(mu_morph.restrict(sub).corestrict(s_chain.levels[binding.f[i]]))
    mu_cm = ChainMorphism(l_chain, s_chain, binding.f, tuple(mu_phis))

    po = chain_pushout(lam, mu_cm)
    delta = po.glued.phis[0]

    fpbc = final_pullback_complement(inclusion(r_graph, i_graph), delta)
    # the rewritten chain: every level of the pushout chain cut down to T
    return reduct(po.chain, tuple(range(len(stack))), fpbc.into_d)


def _rename_level(rule, sub, fresh_nodes: dict, fresh_arrows: dict) -> Graph:
    lhs_node_names = {e.name for e in rule.lhs.nodes()}
    lhs_keys = set(rule.lhs.elements)
    nodes = {n if n in lhs_node_names else fresh_nodes[n] for n in sub.nodes}
    arrows = set()
    for a in sub.arrows:
        if a in lhs_keys:
            arrows.add(a)
        else:
            src = a.src if a.src in lhs_node_names else fresh_nodes[a.src]
            tgt = a.tgt if a.tgt in lhs_node_names else fresh_nodes[a.tgt]
            arrows.add(Arrow(fresh_arrows[a], src, tgt))
    return Graph(frozenset(nodes), frozenset(arrows))


# ---------------------------------------------------------------------------
# Memoized facts derived afresh
# ---------------------------------------------------------------------------


def stale_facts(system, rules=()) -> list:
    """The cache keys of a system whose memoized facts differ from the same
    facts derived on a cache-free copy of it.  Prepared match targets compare
    by graph, pools and by-type index; meta bindings are derived again with
    the rule among `rules` whose meta chain they were matched for.  A model's
    part of a condition check is the violations of the whole check that name
    that model."""
    from mlmkit import hierarchy as hy
    from mlmkit.matching import _target, meta_bindings
    from mlmkit.mlhio import _model_text

    fresh = hy.System(system.application, system.supplementary, system.data)
    by_meta = {rule.meta_key: rule for rule in rules}
    checks = {
        "typing": hy.check_typing_structure,
        "non-dangling": hy.check_non_dangling,
        "uniqueness": hy.check_uniqueness,
        "potency": hy.check_potency,
        "inheritance": hy.check_inheritance,
        "multiplicity": hy.check_multiplicity,
        "dimensions": hy.check_dimensions,
    }
    derive = {
        "closure": hy.type_closure,
        "type-refs": hy.type_refs,
        "transitive": hy.transitive_types,
        "dom": hy.domain_between,
        "effective-potency": hy.effective_potency,
        "reach": hy.reach,
        "validate": hy.validate_hierarchy,
        "meta": lambda s, model, meta_key: meta_bindings(s, by_meta[meta_key], model),
        "saved": lambda s, model: _model_text(s, s.hierarchy_of(model), model),
    }
    for condition, check in checks.items():
        derive[condition] = lambda s, model, *args, check=check: tuple(
            v for v in check(s, *args) if v.model == model
        )
    out = []
    for key, (value, _) in list(system.cache.items()):
        kind, *args = key
        if kind == "match-target":
            want = _target(fresh, *args)
            same = (value.graph, value.pools) == (want.graph, want.pools) and all(
                value.by_type(system, k) == want.by_type(fresh, k) for k in ("node", "arrow")
            )
        else:
            same = value == derive[kind](fresh, *args)
        if not same:
            out.append(key)
    return out
