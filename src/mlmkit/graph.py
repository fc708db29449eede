"""Directed multigraphs, partial homomorphisms and the categorical constructions
(pushout along an inclusion, final pullback complement, pullback squares) that
the rest of the kernel is built on.

Elements are identified by name: node names are unique within a graph, arrow
names may repeat as long as source or target differ, so the identity of an
arrow is the triple (name, source, target).  All operations are pure functions
of immutable values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional

SIZE_CAP = 64  # the most elements an exhaustive enumeration walks


class SizeCapExceeded(Exception):
    """Raised when an exhaustive enumeration would exceed SIZE_CAP."""


@dataclass(frozen=True, order=True)
class Arrow:
    """An arrow is identified by (name, src, tgt); parallel arrows must differ
    in at least the name."""

    name: str
    src: str
    tgt: str

    def __repr__(self) -> str:
        return f"{self.name}:{self.src}->{self.tgt}"


@dataclass(frozen=True)
class Graph:
    nodes: frozenset[str]
    arrows: frozenset[Arrow]

    def __repr__(self) -> str:
        ns = ",".join(sorted(self.nodes))
        es = ",".join(repr(a) for a in sorted(self.arrows))
        return f"Graph({{{ns}}}, {{{es}}})"

    @property
    def size(self) -> int:
        return len(self.nodes) + len(self.arrows)

    def elements(self) -> Iterator[str | Arrow]:
        yield from sorted(self.nodes)
        yield from sorted(self.arrows)

    def has(self, elem) -> bool:
        if isinstance(elem, Arrow):
            return elem in self.arrows
        return elem in self.nodes

    @cached_property
    def search_plan(self) -> tuple:
        """How enumerate_homomorphisms walks this graph as a pattern, derived
        once: the sorted arrows, the node order (connected nodes early, so
        arrow constraints prune the search) and, per node position, the
        arrows whose endpoints are both placed there."""
        arrows = sorted(self.arrows)
        remaining = set(self.nodes)
        nodes: list[str] = []
        while remaining:
            scored = sorted(
                remaining,
                key=lambda n: (
                    -sum(1 for a in arrows if {a.src, a.tgt} <= set(nodes) | {n}),
                    n,
                ),
            )
            pick = scored[0]
            nodes.append(pick)
            remaining.discard(pick)
        position = {n: k for k, n in enumerate(nodes)}
        checks_at: dict[int, list[Arrow]] = {k: [] for k in range(len(nodes))}
        for a in arrows:
            checks_at[max(position[a.src], position[a.tgt])].append(a)
        return arrows, nodes, checks_at


def graph(nodes: Iterable[str] = (), arrows: Iterable = ()) -> Graph:
    """Build a graph from node names and (name, src, tgt) triples or Arrows."""
    arrs = frozenset(a if isinstance(a, Arrow) else Arrow(*a) for a in arrows)
    return Graph(frozenset(nodes), arrs)


EMPTY = graph()


def validate_graph(g: Graph) -> list[str]:
    """Check graph invariants; violations name the offending element."""
    out = []
    for a in sorted(g.arrows):
        if a.src not in g.nodes:
            out.append(f"dangling source {a!r}")
        if a.tgt not in g.nodes:
            out.append(f"dangling target {a!r}")
    return out


@dataclass(frozen=True)
class SubgraphRef:
    """A subgraph of a fixed parent graph, closed under source and target."""

    parent: Graph
    nodes: frozenset[str]
    arrows: frozenset[Arrow]

    def validate(self) -> list[str]:
        out = []
        if not self.nodes <= self.parent.nodes:
            out.append(f"nodes not in parent: {sorted(self.nodes - self.parent.nodes)}")
        if not self.arrows <= self.parent.arrows:
            out.append("arrows not in parent")
        for a in sorted(self.arrows):
            if a.src not in self.nodes or a.tgt not in self.nodes:
                out.append(f"arrow {a!r} not closed in subgraph")
        return out

    def to_graph(self) -> Graph:
        return Graph(self.nodes, self.arrows)

    def has(self, elem) -> bool:
        if isinstance(elem, Arrow):
            return elem in self.arrows
        return elem in self.nodes

    def __le__(self, other: "SubgraphRef") -> bool:
        return self.nodes <= other.nodes and self.arrows <= other.arrows


def subgraph(parent: Graph, nodes: Iterable[str] = (), arrows: Iterable = ()) -> SubgraphRef:
    arrs = frozenset(a if isinstance(a, Arrow) else Arrow(*a) for a in arrows)
    ref = SubgraphRef(parent, frozenset(nodes), arrs)
    bad = ref.validate()
    if bad:
        raise ValueError("; ".join(bad))
    return ref


def full_subgraph(g: Graph) -> SubgraphRef:
    return SubgraphRef(g, g.nodes, g.arrows)


def closed_subgraph(parent: Graph, elems: Iterable) -> SubgraphRef:
    """Smallest valid subgraph containing the given elements (adds endpoints)."""
    nodes, arrows = set(), set()
    for e in elems:
        if isinstance(e, Arrow):
            arrows.add(e)
            nodes.update((e.src, e.tgt))
        else:
            nodes.add(e)
    return subgraph(parent, nodes, arrows)


def intersect_subgraphs(a: SubgraphRef, b: SubgraphRef) -> SubgraphRef:
    if a.parent != b.parent:
        raise ValueError("subgraphs of different parents")
    return SubgraphRef(a.parent, a.nodes & b.nodes, a.arrows & b.arrows)


def union_subgraphs(a: SubgraphRef, b: SubgraphRef) -> SubgraphRef:
    if a.parent != b.parent:
        raise ValueError("subgraphs of different parents")
    return subgraph(a.parent, a.nodes | b.nodes, a.arrows | b.arrows)


@dataclass
class GraphMorphism:
    """A partial graph morphism: node and arrow maps that are total exactly on
    the definedness subgraph of the domain and preserve source/target there."""

    dom: Graph
    cod: Graph
    nodes: dict[str, str]
    arrows: dict[Arrow, Arrow]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GraphMorphism)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.nodes == other.nodes
            and self.arrows == other.arrows
        )

    def definedness(self) -> SubgraphRef:
        return SubgraphRef(self.dom, frozenset(self.nodes), frozenset(self.arrows))

    @property
    def is_total(self) -> bool:
        return len(self.nodes) == len(self.dom.nodes) and len(self.arrows) == len(self.dom.arrows)

    def __call__(self, elem):
        if isinstance(elem, Arrow):
            return self.arrows[elem]
        return self.nodes[elem]

    def get(self, elem):
        if isinstance(elem, Arrow):
            return self.arrows.get(elem)
        return self.nodes.get(elem)

    def is_inclusion(self) -> bool:
        return all(k == v for k, v in self.nodes.items()) and all(
            k == v for k, v in self.arrows.items()
        )

    def is_injective(self) -> bool:
        return len(set(self.nodes.values())) == len(self.nodes) and len(
            set(self.arrows.values())
        ) == len(self.arrows)

    def validate(self) -> list[str]:
        out = []
        for n, img in sorted(self.nodes.items()):
            if n not in self.dom.nodes:
                out.append(f"node {n} not in domain")
            if img not in self.cod.nodes:
                out.append(f"image {img} of {n} not in codomain")
        for a, img in sorted(self.arrows.items()):
            if a not in self.dom.arrows:
                out.append(f"arrow {a!r} not in domain")
                continue
            if img not in self.cod.arrows:
                out.append(f"image {img!r} of {a!r} not in codomain")
                continue
            if a.src not in self.nodes or a.tgt not in self.nodes:
                out.append(f"definedness not closed at {a!r}")
                continue
            if self.nodes[a.src] != img.src:
                out.append(f"source not preserved at {a!r}")
            if self.nodes[a.tgt] != img.tgt:
                out.append(f"target not preserved at {a!r}")
        return out

    def image(self, sub: Optional[SubgraphRef] = None) -> SubgraphRef:
        """Image of the definedness region (or of a subgraph of it) in the codomain."""
        if sub is None:
            ns, ars = self.nodes.keys(), self.arrows.keys()
        else:
            ns, ars = sub.nodes, sub.arrows
        return closed_subgraph(
            self.cod,
            itertools.chain(
                (self.nodes[n] for n in ns if n in self.nodes),
                (self.arrows[a] for a in ars if a in self.arrows),
            ),
        )

    def preimage(self, sub: SubgraphRef) -> SubgraphRef:
        nodes = frozenset(n for n, v in self.nodes.items() if v in sub.nodes)
        arrows = frozenset(a for a, v in self.arrows.items() if v in sub.arrows)
        return SubgraphRef(self.dom, nodes, arrows)

    def restrict(self, sub: SubgraphRef) -> "GraphMorphism":
        return GraphMorphism(
            sub.to_graph(),
            self.cod,
            {n: v for n, v in self.nodes.items() if n in sub.nodes},
            {a: v for a, v in self.arrows.items() if a in sub.arrows},
        )

    def corestrict(self, cod: Graph) -> "GraphMorphism":
        m = GraphMorphism(self.dom, cod, dict(self.nodes), dict(self.arrows))
        if m.validate():
            raise ValueError("image not contained in new codomain")
        return m


def morphism(dom: Graph, cod: Graph, nodes: Mapping[str, str], arrows=None) -> GraphMorphism:
    """Build a morphism; if the arrow map is omitted it is inferred wherever a
    unique compatible codomain arrow (same name preferred) exists."""
    nodes = dict(nodes)
    if arrows is None:
        arrows = {}
        for a in sorted(dom.arrows):
            if a.src not in nodes or a.tgt not in nodes:
                continue
            cands = [
                b
                for b in sorted(cod.arrows)
                if b.src == nodes[a.src] and b.tgt == nodes[a.tgt]
            ]
            named = [b for b in cands if b.name == a.name]
            pick = named or cands
            if len(pick) == 1:
                arrows[a] = pick[0]
            elif len(pick) > 1:
                raise ValueError(f"ambiguous arrow image for {a!r}")
    else:
        arrows = {
            (k if isinstance(k, Arrow) else Arrow(*k)): (v if isinstance(v, Arrow) else Arrow(*v))
            for k, v in dict(arrows).items()
        }
    m = GraphMorphism(dom, cod, nodes, arrows)
    bad = m.validate()
    if bad:
        raise ValueError("; ".join(bad))
    return m


def identity(g: Graph) -> GraphMorphism:
    return GraphMorphism(g, g, {n: n for n in g.nodes}, {a: a for a in g.arrows})


def inclusion(sub: Graph, sup: Graph) -> GraphMorphism:
    if not (sub.nodes <= sup.nodes and sub.arrows <= sup.arrows):
        raise ValueError("not a subgraph")
    return GraphMorphism(sub, sup, {n: n for n in sub.nodes}, {a: a for a in sub.arrows})


def empty_morphism(dom: Graph, cod: Graph) -> GraphMorphism:
    return GraphMorphism(dom, cod, {}, {})


def compose_partial(phi: GraphMorphism, psi: GraphMorphism) -> GraphMorphism:
    """Composition of partial morphisms; the definedness of the result is the
    inverse image of psi's definedness under phi, intersected with phi's."""
    if phi.cod != psi.dom:
        raise ValueError("codomain/domain mismatch")
    nodes = {n: psi.nodes[v] for n, v in phi.nodes.items() if v in psi.nodes}
    arrows = {a: psi.arrows[v] for a, v in phi.arrows.items() if v in psi.arrows}
    return GraphMorphism(phi.dom, psi.cod, nodes, arrows)


def partial_leq(phi: GraphMorphism, psi: GraphMorphism) -> bool:
    """phi <= psi: phi's definedness is included in psi's and they agree there."""
    if phi.dom != psi.dom or phi.cod != psi.cod:
        return False
    return all(psi.nodes.get(n) == v for n, v in phi.nodes.items()) and all(
        psi.arrows.get(a) == v for a, v in phi.arrows.items()
    )


# ---------------------------------------------------------------------------
# Pushout along an inclusion
# ---------------------------------------------------------------------------


def _fresh(name: str, taken: set[str]) -> str:
    if name not in taken:
        return name
    k = 1
    while f"{name}#{k}" in taken:
        k += 1
    return f"{name}#{k}"


@dataclass
class PushoutResult:
    graph: Graph
    kept: GraphMorphism  # K -> P, inclusion
    glued: GraphMorphism  # H -> P


def pushout_along_inclusion(phi: GraphMorphism, psi: GraphMorphism) -> PushoutResult:
    """Pushout of K <-psi- G -phi-> H for an inclusion phi and total psi.

    P keeps K verbatim and adds the part of H outside G; sources and targets of
    added arrows that lie in G are redirected through psi.  Name clashes with K
    are resolved by a deterministic ``#k`` suffix, recorded in the glued map.
    """
    if not phi.is_inclusion():
        raise ValueError("phi must be an inclusion")
    if not phi.is_total:
        raise ValueError("phi must be total")
    if not psi.is_total:
        raise ValueError("psi must be total")
    if phi.dom != psi.dom:
        raise ValueError("span feet differ")
    g, h, k = phi.dom, phi.cod, psi.cod

    node_names = set(k.nodes)
    new_nodes: dict[str, str] = {}
    for n in sorted(h.nodes - g.nodes):
        fresh = _fresh(n, node_names)
        node_names.add(fresh)
        new_nodes[n] = fresh

    glued_nodes = {n: psi.nodes[n] for n in g.nodes}
    glued_nodes.update(new_nodes)

    p_nodes = set(k.nodes) | set(new_nodes.values())
    p_arrows = set(k.arrows)
    glued_arrows: dict[Arrow, Arrow] = {a: psi.arrows[a] for a in g.arrows}
    for a in sorted(h.arrows - g.arrows):
        src = glued_nodes[a.src]
        tgt = glued_nodes[a.tgt]
        name = a.name
        if Arrow(name, src, tgt) in p_arrows:
            kk = 1
            while Arrow(f"{name}#{kk}", src, tgt) in p_arrows:
                kk += 1
            name = f"{name}#{kk}"
        img = Arrow(name, src, tgt)
        p_arrows.add(img)
        glued_arrows[a] = img

    p = Graph(frozenset(p_nodes), frozenset(p_arrows))
    kept = inclusion(k, p)
    glued = GraphMorphism(h, p, glued_nodes, glued_arrows)
    return PushoutResult(p, kept, glued)


# ---------------------------------------------------------------------------
# Final pullback complement
# ---------------------------------------------------------------------------


@dataclass
class FpbcResult:
    graph: Graph
    into_d: GraphMorphism  # T -> D, inclusion
    from_r: GraphMorphism  # R -> T


def final_pullback_complement(rho: GraphMorphism, delta: GraphMorphism) -> FpbcResult:
    """Final pullback complement of R -rho-> I -delta-> D.

    T is the largest subgraph of D whose pullback along delta is exactly R:
    D minus the delta-images of I outside R, minus arrows left dangling by
    node deletion.  delta must not identify a kept element of R with a
    deleted element of I, otherwise no complement exists.
    """
    if not rho.is_inclusion() or not rho.is_total:
        raise ValueError("rho must be a total inclusion")
    if not delta.is_total:
        raise ValueError("delta must be total")
    if rho.cod != delta.dom:
        raise ValueError("rho codomain must be delta domain")
    r, i, d = rho.dom, delta.dom, delta.cod

    del_nodes = {delta.nodes[n] for n in i.nodes - r.nodes}
    del_arrows = {delta.arrows[a] for a in i.arrows - r.arrows}
    kept_node_imgs = {delta.nodes[n] for n in r.nodes}
    kept_arrow_imgs = {delta.arrows[a] for a in r.arrows}
    if kept_node_imgs & del_nodes or kept_arrow_imgs & del_arrows:
        raise ValueError("delta identifies a kept element with a deleted one")

    t_nodes = d.nodes - frozenset(del_nodes)
    t_arrows = frozenset(
        a
        for a in d.arrows
        if a not in del_arrows and a.src in t_nodes and a.tgt in t_nodes
    )
    t = Graph(t_nodes, t_arrows)
    nu = GraphMorphism(
        r, t, {n: delta.nodes[n] for n in r.nodes}, {a: delta.arrows[a] for a in r.arrows}
    )
    bad = nu.validate()
    if bad:
        raise ValueError("no final pullback complement: " + "; ".join(bad))
    return FpbcResult(t, inclusion(t, d), nu)


# ---------------------------------------------------------------------------
# Exhaustive homomorphism enumeration (the brute-force oracle)
# ---------------------------------------------------------------------------


def enumerate_homomorphisms(
    g: Graph,
    h: Graph,
    injective: bool = False,
    node_candidates: Optional[Mapping[str, Iterable[str]]] = None,
    arrow_candidates: Optional[Mapping[Arrow, Iterable[Arrow]]] = None,
) -> list[GraphMorphism]:
    """All total homomorphisms g -> h, duplicate-free, in canonical order.

    Optional candidate maps restrict the images of individual elements.
    Exhaustive; guarded by a size cap on the pattern.
    """
    if g.size > SIZE_CAP:
        raise SizeCapExceeded(f"pattern has {g.size} elements, cap is {SIZE_CAP}")

    arrows, nodes, checks_at = g.search_plan
    ncands = {
        n: sorted(
            set(node_candidates[n]) & h.nodes if node_candidates and n in node_candidates else h.nodes
        )
        for n in nodes
    }
    acands: dict[Arrow, list[Arrow]] = {}
    for a in arrows:
        pool = (
            set(a2 if isinstance(a2, Arrow) else Arrow(*a2) for a2 in arrow_candidates[a])
            if arrow_candidates and a in arrow_candidates
            else h.arrows
        )
        acands[a] = sorted(set(pool) & h.arrows)

    results: list[GraphMorphism] = []

    # forward checking: once both endpoints of a pattern arrow are assigned,
    # some candidate image between the chosen endpoints must exist
    def assign_arrows(nmap: dict[str, str], idx: int, amap: dict[Arrow, Arrow], used: set[Arrow]):
        if idx == len(arrows):
            results.append(GraphMorphism(g, h, dict(nmap), dict(amap)))
            return
        a = arrows[idx]
        for b in acands[a]:
            if b.src != nmap[a.src] or b.tgt != nmap[a.tgt]:
                continue
            if injective and b in used:
                continue
            amap[a] = b
            used.add(b)
            assign_arrows(nmap, idx + 1, amap, used)
            del amap[a]
            used.discard(b)

    def assign_nodes(idx: int, nmap: dict[str, str], used: set[str]):
        if idx == len(nodes):
            assign_arrows(nmap, 0, {}, set())
            return
        n = nodes[idx]
        for v in ncands[n]:
            if injective and v in used:
                continue
            nmap[n] = v
            ok = True
            for a in checks_at[idx]:
                if not any(
                    b.src == nmap[a.src] and b.tgt == nmap[a.tgt] for b in acands[a]
                ):
                    ok = False
                    break
            if ok:
                used.add(v)
                assign_nodes(idx + 1, nmap, used)
                used.discard(v)
            del nmap[n]

    assign_nodes(0, {}, set())
    del assign_nodes, assign_arrows  # self-calling closures: free their cycle now
    results.sort(key=lambda m: (sorted(m.nodes.items()), sorted(m.arrows.items())))
    return results


def enumerate_subgraphs(g: Graph) -> Iterator[SubgraphRef]:
    """All valid subgraphs of g (closure-respecting), largest-last not guaranteed."""
    if g.size > SIZE_CAP:
        raise SizeCapExceeded(f"graph has {g.size} elements, cap is {SIZE_CAP}")
    nodes = sorted(g.nodes)
    for r in range(len(nodes) + 1):
        for ns in itertools.combinations(nodes, r):
            nset = frozenset(ns)
            closed = [a for a in sorted(g.arrows) if a.src in nset and a.tgt in nset]
            for ar in range(len(closed) + 1):
                for asel in itertools.combinations(closed, ar):
                    yield SubgraphRef(g, nset, frozenset(asel))


def pullback(f: GraphMorphism, g: GraphMorphism) -> tuple[Graph, GraphMorphism, GraphMorphism]:
    """Canonical pullback of the cospan A -f-> C <-g- B in the category of
    graphs and total morphisms; objects are pairs encoded as "a|b" names."""
    if f.cod != g.cod or not f.is_total or not g.is_total:
        raise ValueError("need total morphisms with a common codomain")
    node_pairs = [
        (a, b) for a in sorted(f.dom.nodes) for b in sorted(g.dom.nodes) if f.nodes[a] == g.nodes[b]
    ]
    name = {p: f"{p[0]}|{p[1]}" for p in node_pairs}
    arrow_pairs = [
        (a, b)
        for a in sorted(f.dom.arrows)
        for b in sorted(g.dom.arrows)
        if f.arrows[a] == g.arrows[b]
    ]
    arrows = {}
    for a, b in arrow_pairs:
        arrows[(a, b)] = Arrow(f"{a.name}|{b.name}", name[(a.src, b.src)], name[(a.tgt, b.tgt)])
    p = Graph(frozenset(name.values()), frozenset(arrows.values()))
    pa = GraphMorphism(
        p, f.dom, {name[pr]: pr[0] for pr in node_pairs}, {arrows[pr]: pr[0] for pr in arrow_pairs}
    )
    pb = GraphMorphism(
        p, g.dom, {name[pr]: pr[1] for pr in node_pairs}, {arrows[pr]: pr[1] for pr in arrow_pairs}
    )
    return p, pa, pb


def is_pullback_square(
    top: GraphMorphism, left: GraphMorphism, right: GraphMorphism, bottom: GraphMorphism
) -> bool:
    """Check that P -top-> B, P -left-> A, A -bottom-> C, B -right-> C is a
    pullback: the square commutes and the comparison into the canonical
    pullback is an isomorphism."""
    if compose_partial(left, bottom) != compose_partial(top, right):
        return False
    q, qa, qb = pullback(bottom, right)
    # mediator P -> Q
    med_nodes = {}
    for n in top.dom.nodes:
        med_nodes[n] = f"{left.nodes[n]}|{top.nodes[n]}"
    med_arrows = {}
    for a in top.dom.arrows:
        la, ta = left.arrows[a], top.arrows[a]
        med_arrows[a] = Arrow(f"{la.name}|{ta.name}", med_nodes[a.src], med_nodes[a.tgt])
    med = GraphMorphism(top.dom, q, med_nodes, med_arrows)
    if med.validate():
        return False
    return (
        med.is_injective()
        and set(med_nodes.values()) == q.nodes
        and set(med_arrows.values()) == q.arrows
    )
