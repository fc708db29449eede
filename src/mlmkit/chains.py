"""Level-indexed graph chains and their morphisms.

A chain holds one graph per level (level 0 on top) and a family of partial
typing morphisms between levels, total into level 0.  Inclusion chains are
chains of subgraphs of a common base graph; a multilevel typing of a graph
refactors into an inclusion chain plus a chain morphism
(diagnose.refactoring_morphism).  A rewrite can be
stated here: a pushout of chains is computed level-wise over the base pushout
and extended over untouched levels, and deletion retypes its result by
reduct.  The rewrite module applies rules on graphs alone; the tests build
each application this way too and check that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import (
    Graph,
    GraphMorphism,
    SubgraphRef,
    compose_partial,
    identity,
    inclusion,
    is_pullback_square,
    partial_leq,
    pushout_along_inclusion,
    union_subgraphs,
)


@dataclass
class GraphChain:
    """Graphs [G_0 .. G_n] (0 = top) with partial typing morphisms tau[(j, i)]
    for i < j, total into level 0, satisfying the uniqueness condition."""

    levels: tuple
    taus: dict  # (j, i) -> GraphMorphism with dom levels[j], cod levels[i]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def graph(self, i: int) -> Graph:
        return self.levels[i]

    def tau(self, j: int, i: int) -> GraphMorphism:
        if (j, i) in self.taus:
            return self.taus[(j, i)]
        raise KeyError(f"no typing morphism from level {j} to {i}")

    def validate(self) -> list[str]:
        out = []
        n = self.depth
        for j in range(1, n + 1):
            t = self.taus.get((j, 0))
            if t is None or not t.is_total:
                out.append(f"typing into the top level not total from level {j}")
        for (j, i), t in sorted(self.taus.items()):
            if t.dom != self.levels[j] or t.cod != self.levels[i]:
                out.append(f"tau({j},{i}) has wrong endpoints")
            bad = t.validate()
            if bad:
                out.append(f"tau({j},{i}): " + "; ".join(bad))
        for k in range(2, n + 1):
            for j in range(1, k):
                for i in range(0, j):
                    comp = compose_partial(self.tau(k, j), self.tau(j, i))
                    if not partial_leq(comp, self.tau(k, i)):
                        out.append(f"uniqueness fails for levels {i}<{j}<{k}")
        return out


@dataclass
class InclusionChain(GraphChain):
    """A chain of subgraphs of a common base (level 0); the typing morphisms
    are the partial inclusions given by intersection."""

    @property
    def base(self) -> Graph:
        return self.levels[0]


def inclusion_chain(base: Graph, subs: Sequence[Graph]) -> InclusionChain:
    """Build the inclusion chain [base, subs...]; tau(j, i) is defined on the
    intersection of the two level graphs and is the identity there."""
    levels = [base] + [s for s in subs]
    for s in levels[1:]:
        if not (s.nodes <= base.nodes and s.arrows <= base.arrows):
            raise ValueError("level is not a subgraph of the base")
    taus = {}
    for j in range(1, len(levels)):
        for i in range(j):
            common_nodes = levels[j].nodes & levels[i].nodes
            common_arrows = levels[j].arrows & levels[i].arrows
            taus[(j, i)] = GraphMorphism(
                levels[j],
                levels[i],
                {n: n for n in common_nodes},
                {a: a for a in common_arrows},
            )
    return InclusionChain(tuple(levels), taus)


@dataclass
class ChainMorphism:
    """A level map f (monotone, f(0)=0) together with total graph morphisms
    phi_i : dom.levels[i] -> cod.levels[f(i)]."""

    dom: GraphChain
    cod: GraphChain
    f: tuple
    phis: tuple

    def phi(self, i: int) -> GraphMorphism:
        return self.phis[i]

    def validate(self) -> list[str]:
        out = []
        if len(self.f) != self.dom.depth + 1 or len(self.phis) != self.dom.depth + 1:
            return ["level map or morphism family has wrong length"]
        if self.f[0] != 0:
            out.append("level map must fix level 0")
        for i in range(len(self.f) - 1):
            if self.f[i] >= self.f[i + 1]:
                out.append("level map must be strictly increasing")
        for i, phi in enumerate(self.phis):
            if not phi.is_total:
                out.append(f"phi_{i} is not total")
            if phi.dom != self.dom.levels[i] or phi.cod != self.cod.levels[self.f[i]]:
                out.append(f"phi_{i} has wrong endpoints")
            bad = phi.validate()
            if bad:
                out.append(f"phi_{i}: " + "; ".join(bad))
        return out


def identity_chain_morphism(c: GraphChain) -> ChainMorphism:
    return ChainMorphism(
        c, c, tuple(range(c.depth + 1)), tuple(identity(g) for g in c.levels)
    )


def compose_chain(c1: ChainMorphism, c2: ChainMorphism) -> ChainMorphism:
    """Level-wise composition restricted along c1's level map."""
    if c1.cod is not c2.dom and c1.cod != c2.dom:
        raise ValueError("chains do not compose")
    f = tuple(c2.f[c1.f[i]] for i in range(len(c1.f)))
    phis = tuple(
        compose_partial(c1.phis[i], c2.phis[c1.f[i]]) for i in range(len(c1.f))
    )
    return ChainMorphism(c1.dom, c2.cod, f, phis)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairDiagnostic:
    """Outcome of checking one level pair of a chain morphism."""

    i: int
    j: int
    status: str  # "equality" | "strict-inclusion" | "fail"
    pullback: bool
    offenders: tuple

    @property
    def ok(self) -> bool:
        return self.status != "fail"


def classify_pair(
    tau_dom: GraphMorphism,
    phi_j: GraphMorphism,
    phi_i: GraphMorphism,
    tau_cod: GraphMorphism,
    check_pullback: bool = False,
) -> PairDiagnostic:
    """Compare tau_dom;phi_i with phi_j;tau_cod: classify their domains as
    equal or strictly included and check pointwise agreement; optionally also
    decide whether the definedness square is a pullback."""
    lhs = compose_partial(tau_dom, phi_i)
    rhs = compose_partial(phi_j, tau_cod)
    offenders = []
    for e in list(lhs.nodes) + list(lhs.arrows):
        if rhs.get(e) is None:
            offenders.append(e)
        elif rhs.get(e) != lhs.get(e):
            offenders.append(e)
    if offenders:
        status = "fail"
    elif set(lhs.nodes) == set(rhs.nodes) and set(lhs.arrows) == set(rhs.arrows):
        status = "equality"
    else:
        status = "strict-inclusion"
    pb = False
    if check_pullback and status != "fail":
        dom_sub = tau_dom.definedness()
        cod_sub = tau_cod.definedness()
        if _maps_into(phi_j, dom_sub, cod_sub):
            top = phi_j.restrict(dom_sub).corestrict(cod_sub.to_graph())
            left = inclusion(dom_sub.to_graph(), phi_j.dom)
            right = inclusion(cod_sub.to_graph(), phi_j.cod)
            pb = is_pullback_square(top, left, right, phi_j)
    return PairDiagnostic(0, 0, status, pb, tuple(sorted(map(repr, offenders))))


def _maps_into(phi: GraphMorphism, sub: SubgraphRef, target: SubgraphRef) -> bool:
    return all(phi.nodes[n] in target.nodes for n in sub.nodes) and all(
        phi.arrows[a] in target.arrows for a in sub.arrows
    )


def check_chain_morphism(cm: ChainMorphism, check_pullback: bool = True) -> list[PairDiagnostic]:
    """Diagnose every level pair of a chain morphism: commutativity with the
    typing morphisms (allowing the domain inclusion to be strict) and, when
    asked, the pullback property of the definedness squares."""
    out = []
    structural = cm.validate()
    if structural:
        raise ValueError("; ".join(structural))
    n = cm.dom.depth
    for j in range(1, n + 1):
        for i in range(j):
            d = classify_pair(
                cm.dom.tau(j, i),
                cm.phis[j],
                cm.phis[i],
                cm.cod.tau(cm.f[j], cm.f[i]),
                check_pullback=check_pullback,
            )
            out.append(PairDiagnostic(i, j, d.status, d.pullback, d.offenders))
    return out


# ---------------------------------------------------------------------------
# Reduct
# ---------------------------------------------------------------------------


def reduct(target: InclusionChain, f: Sequence[int], phi0: GraphMorphism) -> InclusionChain:
    """Pull every level of an inclusion chain back along a base morphism: the
    level-i graph of the result is the phi0-preimage of target level f(i)."""
    if phi0.cod != target.base:
        raise ValueError("phi0 must land in the chain's base graph")
    subs = []
    for i in range(1, len(f)):
        lvl = target.levels[f[i]]
        sub = phi0.preimage(SubgraphRef(target.base, lvl.nodes, lvl.arrows))
        subs.append(sub.to_graph())
    return inclusion_chain(phi0.dom, subs)


# ---------------------------------------------------------------------------
# Pushout of inclusion chains
# ---------------------------------------------------------------------------


@dataclass
class ChainPushout:
    chain: InclusionChain  # the rewritten chain over the pushout base
    kept: ChainMorphism  # S-chain -> result, level-wise inclusions, identity level map
    glued: ChainMorphism  # I-chain -> result, level map f


def chain_pushout(lam: ChainMorphism, mu: ChainMorphism) -> ChainPushout:
    """Pushout of I-chain <-lam- L-chain -mu-> S-chain in two steps: level-wise
    pushouts over the base pushout at the levels hit by mu's level map, then
    extension by the untouched levels of the S-chain.

    lam must be a level-wise inclusion with identity level map; the canonical
    representative at each level is the union of the images of the two legs,
    which keeps every level a subgraph of the base pushout.
    """
    if list(lam.f) != list(range(lam.dom.depth + 1)):
        raise ValueError("lam must have the identity level map")
    for phi in lam.phis:
        if not phi.is_inclusion():
            raise ValueError("lam must be a level-wise inclusion")
    if lam.dom is not mu.dom and lam.dom != mu.dom:
        raise ValueError("span feet differ")

    l_chain, i_chain, s_chain = lam.dom, lam.cod, mu.cod
    f = mu.f
    n, m = l_chain.depth, s_chain.depth

    base = pushout_along_inclusion(lam.phis[0], mu.phis[0])
    p = base.graph
    kept0, glued0 = base.kept, base.glued

    f_image = {f[i]: i for i in range(n + 1)}
    levels: list[Graph] = []
    for a in range(1, m + 1):
        s_lvl = s_chain.levels[a]
        sub = SubgraphRef(p, s_lvl.nodes, s_lvl.arrows)  # kept is an inclusion
        if a in f_image:
            i_lvl = i_chain.levels[f_image[a]]
            img = glued0.image(SubgraphRef(i_chain.levels[0], i_lvl.nodes, i_lvl.arrows))
            sub = union_subgraphs(sub, SubgraphRef(p, img.nodes, img.arrows))
        levels.append(sub.to_graph())
    result = inclusion_chain(p, levels)

    kept = ChainMorphism(
        s_chain,
        result,
        tuple(range(m + 1)),
        tuple(inclusion(s_chain.levels[a], result.levels[a]) for a in range(m + 1)),
    )
    glued = ChainMorphism(
        i_chain,
        result,
        f,
        tuple(
            glued0.restrict(
                SubgraphRef(
                    i_chain.levels[0], i_chain.levels[i].nodes, i_chain.levels[i].arrows
                )
            ).corestrict(result.levels[f[i]])
            for i in range(n + 1)
        ),
    )
    for cm in (kept, glued):
        bad = cm.validate()
        if bad:
            raise ValueError("; ".join(bad))
    return ChainPushout(result, kept, glued)
