import random

import pytest

from mlmkit import rewrite, simulate
from mlmkit.graph import Arrow
from mlmkit.hierarchy import System, transitive_types, validate_hierarchy
from mlmkit.ltl import formula_system, rewrite_with_rules
from mlmkit.matching import bind_lhs, match_for_model
from mlmkit.mlhio import load_hierarchy, save_hierarchy
from mlmkit.rewrite import (
    NotApplicable,
    apply_rule,
    apply_two_level,
    expand_cardinality_variants,
    list_applications,
    proliferate,
    render_two_level_rule,
    two_level_matches,
)
from mlmkit.rules import parse_rules
from mlmkit.simulate import SeededChoice, Trace, parse_layers

from conftest import FIXTURES, load_fixture
from oracles import chain_rewrite
from test_acceptance import _random_term


def first_match(system, rule, model, pick=None):
    _, bindings = match_for_model(system, rule, model)
    for b in bindings:
        if pick and not pick(b):
            continue
        for m in bind_lhs(system, rule, b, model):
            return m
    return None


def test_identity_rule_is_identity(fragment_system):
    (rule,) = parse_rules(
        """
rule Id {
  meta { mm1 { Task$ } mm2 { X : Task @ mm1 } }
  from { x : X @ mm2 }
  to { x : X @ mm2 }
}
"""
    )
    m = first_match(fragment_system, rule, "robot_1_run_1")
    assert m is not None
    res = apply_rule(fragment_system, rule, "robot_1_run_1", m)
    before = fragment_system.find_model("robot_1_run_1")
    after = res.system.find_model("robot_1_run_1")
    assert after.graph == before.graph
    assert res.created == [] and res.deleted == []


def test_start_rule_fires_initial_transition(robolang_system, robolang_rules):
    start = robolang_rules["Start"]
    m = first_match(robolang_system, start, "robot_1_run_1")
    res = apply_rule(robolang_system, start, "robot_1_run_1", m)
    snap = res.system.find_model("robot_1_run_1")
    assert "i" in res.deleted and Arrow("a1", "t1", "i") in res.deleted
    created_nodes = [e for e in res.created if not isinstance(e, Arrow)]
    assert len(created_nodes) == 1
    gf_instance = created_nodes[0]
    assert transitive_types(res.system, "robot_1_run_1", gf_instance).get("legolang") == "GoForward"
    arrows = [a for a in snap.graph.arrows if a.src == "t1" and a.tgt == gf_instance]
    assert len(arrows) == 1
    assert validate_hierarchy(res.system).ok


def test_fire_then_delete_keeps_single_task(robolang_system, robolang_rules):
    system = robolang_system
    for rule_name, pick in (
        ("Start", None),
        ("InsertEffectiveInput", lambda b: dict(b.maps[2]).get("I") == "Obstacle"),
        ("FireTransition", None),
        ("DeleteTask", None),
    ):
        rule = robolang_rules[rule_name]
        m = first_match(system, rule, "robot_1_run_1", pick)
        assert m is not None, rule_name
        system = apply_rule(system, rule, "robot_1_run_1", m).system
    snap = system.find_model("robot_1_run_1")
    tasks = [
        n
        for n in snap.graph.nodes
        if transitive_types(system, "robot_1_run_1", n).get("robolang") == "Task"
    ]
    assert len(tasks) == 1
    assert validate_hierarchy(system).ok


def test_apply_rejects_second_firing(robolang_system, robolang_rules):
    system = robolang_system
    for rule_name, pick in (
        ("Start", None),
        ("InsertEffectiveInput", lambda b: dict(b.maps[2]).get("I") == "Obstacle"),
        ("FireTransition", None),
    ):
        rule = robolang_rules[rule_name]
        m = first_match(system, rule, "robot_1_run_1", pick)
        system = apply_rule(system, rule, "robot_1_run_1", m).system
    ft = robolang_rules["FireTransition"]
    m = first_match(system, ft, "robot_1_run_1")
    if m is not None:
        with pytest.raises(NotApplicable):
            apply_rule(system, ft, "robot_1_run_1", m)


def test_preserved_elements_keep_names_and_types(robolang_system, robolang_rules):
    start = robolang_rules["Start"]
    m = first_match(robolang_system, start, "robot_1_run_1")
    res = apply_rule(robolang_system, start, "robot_1_run_1", m)
    before = robolang_system.find_model("robot_1_run_1")
    after = res.system.find_model("robot_1_run_1")
    for e in res.preserved:
        assert after.typings[e].own == before.typings[e].own


def test_apply_never_touches_upper_levels(robolang_system, robolang_rules):
    start = robolang_rules["Start"]
    m = first_match(robolang_system, start, "robot_1_run_1")
    res = apply_rule(robolang_system, start, "robot_1_run_1", m)
    for name in ("robolang", "legolang", "robot_1", "root"):
        assert res.system.find_model(name).graph == robolang_system.find_model(name).graph


def test_list_applications_initial_snapshot(robolang_system, robolang_rules):
    apps = list_applications(
        robolang_system, list(robolang_rules.values()), "robot_1_run_1"
    )
    names = sorted({r.name for r, _ in apps})
    assert names == ["InsertInput", "Start"]
    # deadlock: no rules apply on an empty ruleset
    assert list_applications(robolang_system, [], "robot_1_run_1") == []


def test_list_applications_canonical_order(robolang_system, robolang_rules):
    apps1 = list_applications(robolang_system, list(robolang_rules.values()), "robot_1_run_1")
    apps2 = list_applications(robolang_system, list(robolang_rules.values()), "robot_1_run_1")
    assert [(r.name, m.digest()) for r, m in apps1] == [(r.name, m.digest()) for r, m in apps2]


# ---------------------------------------------------------------------------
# Proliferation
# ---------------------------------------------------------------------------


def _two_level_signature(tlr):
    """Signature invariant under variable renaming."""
    sig = []
    iface = tlr.interface()
    for el in iface.elements.values():
        ref = tlr.types.get(el.key)
        tname = None
        if ref is not None:
            tname = ref.elem.name if isinstance(ref.elem, Arrow) else ref.elem
        role = (el.key in tlr.lhs.elements, el.key in tlr.rhs.elements)
        if el.kind == "node":
            sig.append(("node", role, tname))
        else:
            src_ref = tlr.types.get(iface.by_name(el.src).key) if iface.by_name(el.src) else None
            tgt_ref = tlr.types.get(iface.by_name(el.tgt).key) if iface.by_name(el.tgt) else None
            s = src_ref.elem if src_ref else None
            t = tgt_ref.elem if tgt_ref else None
            sig.append(("arrow", role, tname, s, t))
    return sorted(map(repr, sig))


EXPECTED_PROLIFERATED = [
    # firing the obstacle transition
    {
        "nodes": {
            (False, True): ["GB1", "T2"],
            (True, True): ["GF", "Obstacle"],
        },
        "arrows": {(False, True): ["in2", "o2", "out2"]},
    },
    # firing the edge transition
    {
        "nodes": {
            (False, True): ["GB2", "T3"],
            (True, True): ["Edge", "GF"],
        },
        "arrows": {(False, True): ["b3", "in3", "out3"]},
    },
]


def test_proliferation_fragment_golden(fragment_system, robolang_rules):
    """One concrete two-level rule per match, with variable types replaced by
    the bound elements; each is alpha-equivalent to the hand-written rule for
    its transition."""
    out = proliferate(fragment_system, robolang_rules["FireTransition"], "robot_1_run_1")
    assert [t.name for t in out] == ["FireTransition#1", "FireTransition#2"]
    seen = []
    for tlr in out:
        nodes: dict = {}
        arrows: dict = {}
        for el in tlr.interface().elements.values():
            ref = tlr.types[el.key]
            tname = ref.elem.name if isinstance(ref.elem, Arrow) else ref.elem
            role = (el.key in tlr.lhs.elements, el.key in tlr.rhs.elements)
            (nodes if el.kind == "node" else arrows).setdefault(role, []).append(tname)
        seen.append(
            (
                tuple(sorted((k, tuple(sorted(v))) for k, v in nodes.items())),
                tuple(sorted((k, tuple(sorted(v))) for k, v in arrows.items())),
            )
        )
    expected = [
        (
            tuple(sorted((k, tuple(sorted(v))) for k, v in spec["nodes"].items())),
            tuple(sorted((k, tuple(sorted(v))) for k, v in spec["arrows"].items())),
        )
        for spec in EXPECTED_PROLIFERATED
    ]
    assert sorted(seen) == sorted(expected)


def test_proliferated_rule_prints_in_rule_grammar(fragment_system, robolang_rules):
    out = proliferate(fragment_system, robolang_rules["FireTransition"], "robot_1_run_1")
    text = render_two_level_rule(out[0])
    reparsed = parse_rules(text)
    assert len(reparsed) == 1 and reparsed[0].depth == 1


def test_unmatched_rule_proliferates_to_nothing(fragment_system):
    (rule,) = parse_rules("rule R { meta { mm1 { Missing$ } } from { } to { } }")
    assert proliferate(fragment_system, rule, "robot_1_run_1") == []


def test_full_model_proliferation_count_golden(robolang_system, robolang_rules):
    """The full robot yields one rule per transition that has an attached
    input: six.  The narrative count of seven assumed an input on the initial
    transition as well; the enumeration arbitrates (see the golden file)."""
    from conftest import FIXTURES

    out = proliferate(robolang_system, robolang_rules["FireTransition"], "robot_1_run_1")
    golden = (FIXTURES / "golden" / "fire_transition_full_count.txt").read_text()
    recorded = int(golden.splitlines()[0].split("=")[1])
    assert len(out) == recorded == 6


# ---------------------------------------------------------------------------
# Proliferation / direct-application equivalence
# ---------------------------------------------------------------------------


# a subtype instance `x` and a plain instance `y` of `Task`: a rule typed by
# `Task` matches both, and one that asks for potency 2-2-2 matches neither
SUBTYPED = """
hierarchy application h {
  model lang : root {
    node Task
    node Sub
    inherit sub : Sub -> Task
  }
  model run : lang {
    node x : Sub@lang
    node y : Task@lang
  }
}
"""

SUBTYPED_RULES = """
rule CopyTask {
  meta { mm1 { Task$ } }
  from { t : Task @ mm1 }
  to {
    t : Task @ mm1
    u : Task @ mm1
  }
}

rule CopyDeepTask {
  meta { mm1 { Task$ } }
  from { t : Task @ mm1 pot 2-2-2 }
  to {
    t : Task @ mm1
    u : Task @ mm1
  }
}
"""


def _shipped_pairs(robolang_system, fragment_system, pls_system, robolang_rules, pls_rules):
    yield robolang_system, robolang_rules, "robot_1_run_1"
    yield fragment_system, robolang_rules, "robot_1_run_1"
    yield pls_system, pls_rules, "hammer_config"
    yield pls_system, pls_rules, "stool_config"
    yield load_hierarchy(SUBTYPED), {r.name: r for r in parse_rules(SUBTYPED_RULES)}, "run"


def test_proliferated_equals_direct_application(
    robolang_system, fragment_system, pls_system, robolang_rules, pls_rules
):
    for system, rules, model in _shipped_pairs(
        robolang_system, fragment_system, pls_system, robolang_rules, pls_rules
    ):
        for rule in rules.values():
            if rule.params:
                continue
            _, bindings = match_for_model(system, rule, model)
            for binding in bindings:
                tlrs = [t for t in proliferate(system, rule, model) if t.binding == binding]
                assert len(tlrs) == 1
                tlr = tlrs[0]
                matches = bind_lhs(system, rule, binding, model)
                mus = two_level_matches(system, tlr, model)
                assert len(matches) == len(mus)
                assert {frozenset(m.mu) for m in matches} == {
                    frozenset(mu.items()) for mu in mus
                }, (rule.name, binding.render())
                for m in matches:
                    try:
                        direct = apply_rule(system, rule, model, m)
                    except NotApplicable:
                        direct = None
                    try:
                        via_tlr = apply_two_level(system, tlr, model, m.mu_map())
                    except NotApplicable:
                        via_tlr = None
                    if direct is None:
                        assert via_tlr is None
                        continue
                    assert via_tlr is not None
                    assert save_hierarchy(direct.system) == save_hierarchy(via_tlr.system)


CLOCK_WITHOUT_TIME = """
hierarchy application clocked {
  model sys_lang : root {
    node Sys
    attr Sys.time : Int
  }
  model sys_run : sys_lang {
    node c : Sys@sys_lang
  }
}
"""

TICK = """
rule Tick {
  meta { mm1 { Sys$ } }
  from { s : Sys @ mm1 }
  to {
    s : Sys @ mm1
    s.time = s.time + 1
  }
}
"""


def test_increment_of_absent_attribute_rejected_by_both_applications():
    """The FROM block does not ask for s.time, so the rule matches a clock
    without one; both kinds of application then refuse the increment."""
    system = load_hierarchy(CLOCK_WITHOUT_TIME)
    (rule,) = parse_rules(TICK)
    m = first_match(system, rule, "sys_run")
    assert m is not None
    with pytest.raises(NotApplicable, match=r"attribute s\.time absent in the match"):
        apply_rule(system, rule, "sys_run", m)
    (tlr,) = proliferate(system, rule, "sys_run")
    with pytest.raises(NotApplicable, match=r"attribute s\.time absent in the match"):
        apply_two_level(system, tlr, "sys_run", m.mu_map())


def test_increment_applies_alike_both_ways(clock_system):
    (rule,) = parse_rules(TICK)
    m = first_match(clock_system, rule, "sys_run")
    direct = apply_rule(clock_system, rule, "sys_run", m)
    (tlr,) = proliferate(clock_system, rule, "sys_run")
    via_tlr = apply_two_level(clock_system, tlr, "sys_run", m.mu_map())
    assert direct.system.find_model("sys_run").attr_values["c"]["time"] == 1
    assert save_hierarchy(direct.system) == save_hierarchy(via_tlr.system)


# ---------------------------------------------------------------------------
# The rewrite against its construction in the category of chains
# ---------------------------------------------------------------------------


def _shipped_applications(
    robolang_system, fragment_system, pls_system, robolang_rules, pls_rules
):
    for system, rules, model in _shipped_pairs(
        robolang_system, fragment_system, pls_system, robolang_rules, pls_rules
    ):
        for rule in rules.values():
            if rule.params:
                continue
            _, bindings = match_for_model(system, rule, model)
            for binding in bindings:
                for m in bind_lhs(system, rule, binding, model):
                    yield system, rule, model, m


def _formula_applications(ltl_rules, monkeypatch):
    """The applications that rule-driven rewriting makes on the first
    criterion 8 formulas."""
    seen = []
    plain = rewrite.apply_rule

    def recording(system, rule, model, m, postfilter=True):
        seen.append((system, rule, model, m))
        return plain(system, rule, model, m, postfilter)

    monkeypatch.setattr(rewrite, "apply_rule", recording)
    rng = random.Random(42)
    for _ in range(6):
        t = _random_term(rng, rng.randint(1, 4))
        rewrite_with_rules(formula_system(t), "property", ltl_rules)
    monkeypatch.undo()
    return seen


def test_rewrite_agrees_with_chain_construction(
    robolang_system,
    fragment_system,
    pls_system,
    robolang_rules,
    pls_rules,
    ltl_rules,
    monkeypatch,
):
    """Every application is also built as a chain pushout and reduct: that
    construction goes through, and its base is the rewritten model graph."""
    shipped = list(
        _shipped_applications(
            robolang_system, fragment_system, pls_system, robolang_rules, pls_rules
        )
    )
    formulas = _formula_applications(ltl_rules, monkeypatch)
    assert len(shipped) > 10 and len(formulas) > 10
    for system, rule, model, m in shipped + formulas:
        t_chain = chain_rewrite(system, rule, model, m)
        res = apply_rule(system, rule, model, m, postfilter=False)
        assert t_chain.base == res.system.find_model(model).graph, rule.name


# ---------------------------------------------------------------------------
# Cardinality-driven expansion
# ---------------------------------------------------------------------------


def test_assemble_replicates_legs(pls_system, pls_rules):
    asm = pls_rules["Assemble"]
    _, bindings = match_for_model(pls_system, asm, "stool_config")
    pick = [
        b
        for b in bindings
        if dict(b.maps[2]).get("P1") == "Leg" and dict(b.maps[2]).get("P2") == "Seat"
    ][0]
    variants = expand_cardinality_variants(pls_system, asm, pick, "stool_config")
    assert len(variants) == 1
    v = variants[0]
    legs = [e.name for e in v.lhs.nodes() if e.name.startswith("p1")]
    seats = [e.name for e in v.lhs.nodes() if e.name.startswith("p2")]
    assert len(legs) == 3 and len(seats) == 1
    m = first_match(pls_system, v, "stool_config", lambda b: b == pick)
    res = apply_rule(pls_system, v, "stool_config", m)
    snap = res.system.find_model("stool_config")
    stools = [
        n
        for n in snap.graph.nodes
        if transitive_types(res.system, "stool_config", n).get("stool_plant") == "Stool"
    ]
    assert len(stools) == 1
    assert not any(
        transitive_types(res.system, "stool_config", n).get("stool_plant") == "Leg"
        for n in snap.graph.nodes
    )


def test_bounded_range_gives_one_variant_per_count(pls_system, pls_rules):
    system = pls_system
    plant = system.find_model("stool_plant")
    from mlmkit.hierarchy import Multiplicity

    plant.multiplicities[Arrow("hasLeg", "Stool", "Leg")] = Multiplicity(1, 2)
    system.cache.clear()
    asm = pls_rules["Assemble"]
    _, bindings = match_for_model(system, asm, "stool_config")
    pick = [
        b
        for b in bindings
        if dict(b.maps[2]).get("P1") == "Leg" and dict(b.maps[2]).get("P2") == "Seat"
    ][0]
    variants = expand_cardinality_variants(system, asm, pick, "stool_config")
    assert [v.name for v in variants] == ["Assemblex1", "Assemblex2"]


def test_exact_one_multiplicity_is_identity_expansion(pls_system, pls_rules):
    tp = pls_rules["TransferPart"]
    _, bindings = match_for_model(pls_system, tp, "hammer_config")
    variants = expand_cardinality_variants(pls_system, tp, bindings[0], "hammer_config")
    assert len(variants) == 1 and variants[0].lhs.elements.keys() == tp.lhs.elements.keys()


def test_symbolic_count_resolved_from_target(pls_system):
    (rule,) = parse_rules(
        """
rule Spread {
  meta {
    mm1 { Machine$ ; Container$ ; out$ (Machine -> Container) }
    mm2 { M1 : Machine @ mm1 ; C1 : Container @ mm1 }
  }
  from { m : M1 @ mm2 }
  to {
    m : M1 @ mm2
    c : C1 @ mm2
    o[n] : out @ mm1 (m -> c)
  }
}
"""
    )
    _, bindings = match_for_model(pls_system, rule, "stool_config")
    pick = [b for b in bindings if dict(b.maps[2]).get("M1") == "Gluer"][0]
    variants = expand_cardinality_variants(pls_system, rule, pick, "stool_config")
    assert len(variants) == 1
    created_cs = [e for e in variants[0].rhs.nodes() if e.name.startswith("c")]
    # one box instance exists in the configuration
    assert len(created_cs) == 1


def test_postfilter_with_carried_facts_agrees_with_a_cold_validation(monkeypatch, robolang_rules):
    """Every apply_rule attempted in criterion 7 seeds 0 and 1, accepted or
    rejected, ends alike on the system value the simulation carried its facts
    into and on a cache-free copy of it, down to the NotApplicable text."""
    config = parse_layers((FIXTURES / "robolang.layers").read_text(encoding="utf-8"))
    original = rewrite.apply_rule
    accepted = []

    def outcome(system, *args):
        try:
            res = original(system, *args)
        except NotApplicable as e:
            return None, str(e)
        model = res.system.find_model(res.model)
        return res, (res.created, res.deleted, res.preserved, model.graph, model.typings)

    def checked(system, *args):
        res, got = outcome(system, *args)
        cold = System(system.application, system.supplementary, system.data)
        assert got == outcome(cold, *args)[1]
        accepted.append(res is not None)
        if res is None:
            raise NotApplicable(got)
        return res

    monkeypatch.setattr(rewrite, "apply_rule", checked)
    monkeypatch.setattr(simulate, "apply_rule", checked)
    model = "robot_1_run_1"
    for seed in (0, 1):
        system, chooser, trace = load_fixture("robolang.mlh"), SeededChoice(seed), Trace(seed)
        for k in range(1, 11):
            system, _ = simulate.step(system, model, robolang_rules, config, chooser, trace, k)
            list_applications(system, [robolang_rules["DeleteTask"]], model)
    assert True in accepted and False in accepted
