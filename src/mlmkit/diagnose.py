"""Chain diagnostics: replays the level-pair square checks behind matching.

Two kinds of report: the refactoring report checks, for a model, that its
multilevel typing forms an inclusion chain whose squares against the stack are
pullbacks; the binding report takes structure-only candidate matches of a rule
and classifies every level pair as equality, strict inclusion (still a valid
match) or failure, naming the offending elements.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import (
    ChainMorphism,
    GraphChain,
    check_chain_morphism,
    inclusion_chain,
)
from .graph import Arrow, Graph, GraphMorphism
from .hierarchy import ROOT_ARROW, ROOT_MODEL, ROOT_NODE, System, domain_between
from .matching import Binding, bind_lhs, build_stack, match
from .rules import McmtRule


def stack_chain(system: System, stack: list[str]) -> GraphChain:
    """The stack's graphs with their cross-level typing morphisms."""
    graphs = [system.find_model(m).graph for m in stack]
    taus = {}
    for j in range(1, len(stack)):
        for i in range(j):
            taus[(j, i)] = domain_between(system, stack[j], stack[i])
    return GraphChain(tuple(graphs), taus)


def refactoring_morphism(system: System, stack: list[str], model_name: str) -> ChainMorphism:
    """The model's multilevel typing refactored into an inclusion chain plus a
    chain morphism into the stack chain."""
    model = system.find_model(model_name)
    sigmas = [domain_between(system, model_name, m) for m in stack]
    dom = inclusion_chain(model.graph, [s.definedness().to_graph() for s in sigmas[1:]])
    cod = stack_chain(system, stack)
    phis = tuple(
        GraphMorphism(dom.levels[k], cod.levels[k], dict(sigmas[k].nodes), dict(sigmas[k].arrows))
        for k in range(len(stack))
    )
    return ChainMorphism(dom, cod, tuple(range(len(stack))), phis)


def refactoring_report(system: System, model_name: str) -> str:
    return refactoring_check(system, model_name)[0]


def refactoring_check(system: System, model_name: str) -> tuple[str, bool]:
    """The refactoring report of the model, and whether every level pair
    passed."""
    h = system.hierarchy_of(model_name)
    chain = [m.name for m in h.typing_chain(model_name)]
    stack = list(reversed(chain))  # root first, the model itself last
    cm = refactoring_morphism(system, stack[:-1], model_name)
    diags = check_chain_morphism(cm, check_pullback=True)
    lines = [f"refactoring {model_name} over [{', '.join(stack[:-1])}]"]
    for d in sorted(diags, key=lambda d: (d.j, d.i)):
        verdict = "ok" if d.ok and d.pullback else "FAIL"
        detail = d.status + ("" if d.pullback else ", not a pullback")
        off = f" offenders={','.join(d.offenders)}" if d.offenders else ""
        lines.append(f"  pair ({d.i},{d.j}): {verdict} ({detail}){off}")
    return "\n".join(lines) + "\n", all(d.ok and d.pullback for d in diags)


# ---------------------------------------------------------------------------
# Binding diagnostics
# ---------------------------------------------------------------------------


def _rule_chain(rule: McmtRule, root_graph: Graph) -> GraphChain:
    """The rule's pattern levels [root, mm1..mmn, FROM] as a graph chain with
    the declared typing as partial morphisms: the total map into the root,
    and the rule's own typing morphisms into the meta levels above."""
    blocks = [*rule.meta, rule.lhs]
    graphs = (root_graph, *(b.graph() for b in blocks))
    taus = {}
    for j, blk in enumerate(blocks, start=1):
        nodes = {el.name: ROOT_NODE for el in blk.nodes()}
        arrows = {el.key: ROOT_ARROW for el in blk.arrows()}
        taus[(j, 0)] = GraphMorphism(graphs[j], root_graph, nodes, arrows)
        for i, sigma in enumerate(rule.sigma(blk)[: j - 1], start=1):
            taus[(j, i)] = sigma
    return GraphChain(graphs, taus)


def binding_report(system: System, rule: McmtRule, model_name: str) -> str:
    """Structure-only candidate bindings of the rule around the model, with
    every level pair classified; a pair fails when the typing paths disagree
    or the pattern's domain is not reflected in the target."""
    return binding_check(system, rule, model_name)[0]


def binding_check(system: System, rule: McmtRule, model_name: str) -> tuple[str, bool]:
    """The binding report, and whether every level pair of every candidate
    passed."""
    stack = build_stack(system, model_name)
    found, bindings = match(system, rule, stack, structural=True)
    lines = [f"binding {rule.name} into {model_name}"]
    cod = stack_chain(system, stack + [model_name])
    dom = _rule_chain(rule, system.find_model(ROOT_MODEL).graph)
    k, ok = 0, True
    for b in bindings:
        for m in bind_lhs(system, rule, b, model_name, structural=True):
            k += 1
            lines.append(f" candidate {k}:")
            f = tuple(list(b.f) + [len(stack)])
            phis = []
            for i in range(rule.depth + 1):
                beta = b.level_map(i)
                tg = cod.levels[b.f[i]]
                phis.append(
                    GraphMorphism(
                        dom.levels[i],
                        tg,
                        {x: y for x, y in beta.items() if isinstance(x, str)},
                        {x: y for x, y in beta.items() if isinstance(x, Arrow)},
                    )
                )
            mu = m.mu_map()
            phis.append(
                GraphMorphism(
                    dom.levels[rule.depth + 1],
                    cod.levels[-1],
                    {x: y for x, y in mu.items() if isinstance(x, str)},
                    {x: y for x, y in mu.items() if isinstance(x, Arrow)},
                )
            )
            cm = ChainMorphism(dom, cod, f, tuple(phis))
            diags = check_chain_morphism(cm, check_pullback=False)
            ok = ok and all(d.ok for d in diags)
            for d in sorted(diags, key=lambda d: (d.j, d.i)):
                verdict = d.status if d.ok else "FAIL"
                off = f" offenders={','.join(d.offenders)}" if d.offenders else ""
                lines.append(f"  pair ({d.i},{d.j}): {verdict}{off}")
    if not k:
        lines.append("  no structural candidates")
    return "\n".join(lines) + "\n", ok
