import pytest

from mlmkit.graph import Arrow, GraphMorphism, graph
from mlmkit.hierarchy import Multiplicity
from mlmkit.matching import bind_lhs, match_for_model
from mlmkit.rewrite import expand_cardinality_variants, proliferate
from mlmkit.rules import (
    RuleError,
    parse_rules,
    render_rule,
    render_rules,
    substitute_parameters,
)

from conftest import FIXTURES, load_fixture, load_rule_file


def test_fire_transition_shape(robolang_rules):
    ft = robolang_rules["FireTransition"]
    assert ft.depth == 2
    assert {e.name for e in ft.lhs.nodes()} == {"x", "i"}
    assert len(ft.lhs.elements) == 2
    # the creating block re-declares the kept variables plus the fired parts
    assert len(ft.rhs.elements) == 7
    assert {e.name for e in ft.rhs.nodes()} == {"x", "i", "t", "y"}
    assert {e.name for e in ft.rhs.arrows()} == {"in", "out", "inputs"}
    assert ft.preserved() == {"x", "i"}
    assert ft.deleted() == set()


def test_meta_constants_marked(robolang_rules):
    ft = robolang_rules["FireTransition"]
    mm1 = ft.meta_level(1)
    assert all(el.constant for el in mm1.elements.values())
    mm2 = ft.meta_level(2)
    assert not any(el.constant for el in mm2.elements.values())


def test_empty_from_to_valid():
    text = "rule Tiny { meta { mm1 { N$ } } from { } to { } }"
    (rule,) = parse_rules(text)
    assert rule.depth == 1 and not rule.lhs.elements and not rule.rhs.elements


def test_meta_required():
    with pytest.raises(RuleError):
        parse_rules("rule Bad { meta { } from { } to { } }")


def test_duplicate_declaration_rejected():
    with pytest.raises(RuleError):
        parse_rules("rule Bad { meta { mm1 { N$ N$ } } from { } to { } }")


def test_unknown_meta_reference_rejected():
    with pytest.raises(RuleError) as err:
        parse_rules("rule Bad { meta { mm1 { N$ } } from { x : Missing @ mm1 } to { } }")
    assert "unknown type" in str(err.value)


def test_syntax_error_carries_position():
    with pytest.raises(RuleError) as err:
        parse_rules("rule Bad {\n  meta ( mm1 { N$ } }\n}")
    assert "2:" in str(err.value)


def test_to_arrow_with_unknown_endpoint_rejected():
    text = """
rule Bad {
  meta { mm1 { N$ ; e$ (N -> N) } }
  from { a : N @ mm1 }
  to { a : N @ mm1 ; f : e @ mm1 (a -> ghost) }
}
"""
    with pytest.raises(RuleError) as err:
        parse_rules(text)
    assert "unknown target" in str(err.value)


def test_meta_typed_from_below_rejected():
    text = """
rule Bad {
  meta { mm1 { A : B @ mm2 } mm2 { B$ } }
  from { }
  to { }
}
"""
    with pytest.raises(RuleError) as err:
        parse_rules(text)
    assert "not above" in str(err.value)


def test_parse_print_parse_fixpoint_on_fixture_files():
    for name in ("robolang.mcmt", "pls.mcmt", "pls_prefix.mcmt", "ltl.mcmt"):
        rules = parse_rules((FIXTURES / name).read_text())
        printed = render_rules(rules)
        reparsed = parse_rules(printed)
        assert render_rules(reparsed) == printed


def test_interface_union_and_identity(robolang_rules, pls_rules):
    delete_input = robolang_rules["DeleteInput"]
    iface = delete_input.interface()
    assert set(iface.elements) == set(delete_input.lhs.elements)  # TO empty: I = L
    ft = robolang_rules["FireTransition"]
    iface = ft.interface()
    assert {e.name for e in iface.nodes()} == {"x", "i", "t", "y"}
    assert len(iface.arrows()) == 3


def test_interface_conflicting_declarations_rejected():
    text = """
rule Bad {
  meta { mm1 { A$ ; B$ } }
  from { x : A @ mm1 }
  to { x : B @ mm1 }
}
"""
    with pytest.raises(RuleError):
        parse_rules(text)


def test_parameter_substitution(robolang_rules):
    st = robolang_rules["StepTime"]
    assert st.params == ["x"]
    bound = substitute_parameters(st, {"x": 1})
    assert not bound.params
    clause = bound.rhs.by_name("s").attrs["time"]
    assert clause.kind == "ref" and clause.delta == 1
    zero = substitute_parameters(st, {"x": 0})
    assert zero.rhs.by_name("s").attrs["time"].delta == 0
    with pytest.raises(RuleError):
        substitute_parameters(st, {})
    # rules without parameters are unchanged
    ft = robolang_rules["FireTransition"]
    again = substitute_parameters(ft, {})
    assert render_rule(again) == render_rule(ft)


def test_multiplicity_and_symbolic_suffixes():
    text = """
rule M {
  meta { mm1 { A$ ; e$ (A -> A) } }
  from {
    x : A @ mm1
    y : A @ mm1
    f[1..2] : e @ mm1 (x -> y)
    g[n] : e @ mm1 (y -> x)
  }
  to { }
}
"""
    (rule,) = parse_rules(text)
    f = rule.lhs.by_name("f")
    assert f.mult == Multiplicity(1, 2)
    assert rule.lhs.by_name("g").mult == "n"
    assert "f[1..2]" in render_rule(rule)
    assert "g[n]" in render_rule(rule)


def test_potency_constraint_parses():
    text = """
rule P {
  meta { mm1 { A$ } }
  from { x : A @ mm1 pot 1-2-* }
  to { }
}
"""
    (rule,) = parse_rules(text)
    assert str(rule.lhs.by_name("x").potency) == "1-2-*"
    assert "pot 1-2-*" in render_rule(rule)


def test_sigma_families_are_valid_partial_morphisms(robolang_rules, pls_rules):
    for rule in list(robolang_rules.values()) + list(pls_rules.values()):
        for block in (rule.lhs, rule.rhs, rule.interface()):
            for sig in rule.sigma(block):
                assert sig.validate() == []


def test_type_compatibility_of_interface_inclusions(robolang_rules):
    # the typing of FROM equals the interface typing restricted to FROM
    for rule in robolang_rules.values():
        sig_l = rule.sigma(rule.lhs)
        sig_i = rule.sigma(rule.interface())
        for sl, si in zip(sig_l, sig_i):
            for key, value in sl.nodes.items():
                assert si.nodes.get(key) == value
            for key, value in sl.arrows.items():
                assert si.arrows.get(key) == value


def test_self_typed_meta_element_is_reported():
    text = "rule R { meta { mm1 { A : A @ mm1 ; f : f @ mm1 (A -> A) } } from { } to { } }"
    with pytest.raises(RuleError, match="A typed from level mm1, which is not above it"):
        parse_rules(text)


def test_duplicate_rule_names_rejected():
    text = "rule A { meta { mm1 { N$ } } from { } to { } }\n" * 2
    with pytest.raises(RuleError):
        parse_rules(text)


def test_interface_typing_restricts_exactly(robolang_rules, pls_rules):
    """Both directions of the compatibility equations: the FROM/TO typings are
    exactly the interface typing restricted to their elements."""
    for rules in (robolang_rules, pls_rules):
        for rule in rules.values():
            iface = rule.interface()
            sig_i = rule.sigma(iface)
            for blk in (rule.lhs, rule.rhs):
                sig_b = rule.sigma(blk)
                for sb, si in zip(sig_b, sig_i):
                    for key in blk.elements:
                        assert sb.get(key) == si.get(key)


# ---------------------------------------------------------------------------
# Compiled views
# ---------------------------------------------------------------------------


def _scan(block, name):
    hits = [e for e in block.elements.values() if e.name == name]
    return hits[0] if len(hits) == 1 else None


def _key(el):
    return Arrow(el.name, el.src, el.tgt) if el.kind == "arrow" else el.name


def _fresh_graph(block):
    els = list(block.elements.values())
    return graph(
        (e.name for e in els if e.kind == "node"),
        ((e.name, e.src, e.tgt) for e in els if e.kind == "arrow"),
    )


def _fresh_search_order(g):
    """Connected nodes first, then by name; each arrow checked where its
    later endpoint is placed."""
    arrows = sorted(g.arrows)
    nodes, remaining = [], set(g.nodes)
    while remaining:
        pick = min(
            remaining,
            key=lambda n: (-sum(1 for a in arrows if {a.src, a.tgt} <= set(nodes) | {n}), n),
        )
        nodes.append(pick)
        remaining.discard(pick)
    checks = {
        k: [a for a in arrows if max(nodes.index(a.src), nodes.index(a.tgt)) == k]
        for k in range(len(nodes))
    }
    return arrows, nodes, checks


def _check_block(block):
    els = list(block.elements.values())
    assert list(block.nodes()) == sorted(
        (e for e in els if e.kind == "node"), key=lambda e: e.name
    )
    assert list(block.arrows()) == sorted(
        (e for e in els if e.kind == "arrow"), key=lambda e: (e.name, e.src, e.tgt)
    )
    assert block.graph() == _fresh_graph(block)
    assert block.graph().search_plan == _fresh_search_order(_fresh_graph(block))
    assert block.text == repr(block)
    for name in {e.name for e in els} | {"no-such-element"}:
        assert block.by_name(name) is _scan(block, name)
    for key, el in block.elements.items():
        assert el.key == _key(el) == key
        assert el.plain == (
            not el.constant and el.potency is None and el.mult is None and not el.attrs
        )


def _fresh_sigma(rule, block):
    out = []
    for i in range(1, rule.depth + 1):
        nodes, arrows = {}, {}
        for el in block.elements.values():
            chain, cur = {}, el
            while cur is not None and cur.type is not None and cur.type.level != 0:
                tel = _scan(rule.meta[cur.type.level - 1], cur.type.name)
                if tel is None:
                    break
                chain[cur.type.level] = _key(tel)
                cur = tel
            if i in chain:
                if el.kind == "node":
                    nodes[el.name] = chain[i]
                else:
                    arrows[_key(el)] = chain[i]
        meta_graph = _fresh_graph(rule.meta[i - 1])
        out.append(GraphMorphism(_fresh_graph(block), meta_graph, nodes, arrows))
    return out


def _fresh_interface(rule):
    out = {_key(el): el for el in rule.lhs.elements.values()}
    for el in rule.rhs.elements.values():
        out.setdefault(_key(el), el)
    return out


def _check_rule(rule):
    iface = rule.interface()
    assert iface.elements == _fresh_interface(rule)
    assert rule.interface() is iface
    for block in (*rule.meta, rule.lhs, rule.rhs, iface):
        _check_block(block)
        assert list(rule.sigma(block)) == _fresh_sigma(rule, block)
    assert rule.from_kinds == {
        el.type.name
        for el in rule.lhs.elements.values()
        if el.kind == "node" and el.type is not None and el.type.level == 1
    }
    assert rule.meta_key == tuple(repr(block) for block in rule.meta)


def test_rules_with_one_meta_chain_share_one_key(ltl_rules):
    """The parser gives the rules of ltl.mcmt one meta chain, so their keys
    are equal and hold the same strings: the text of a meta block is taken
    once, not once per rule."""
    first, *rest = ltl_rules.values()
    assert len(first.meta_key) == first.depth
    for rule in rest:
        assert rule.meta_key == first.meta_key
        assert all(a is b for a, b in zip(rule.meta_key, first.meta_key))


# every pairing of hierarchy and rule file, with the models rules are applied to
COMPILED_PAIRINGS = [
    ("robolang.mlh", "robolang.mcmt", ("robot_1_run_1",)),
    ("robolang_ltl.mlh", "ltl.mcmt", ("robot_1_run_1",)),
    ("pls.mlh", "pls.mcmt", ("hammer_config", "stool_config")),
    ("pls.mlh", "pls_prefix.mcmt", ("hammer_config", "stool_config")),
    ("agents.mlh", "agents.mcmt", ("duo_run",)),
]


def test_compiled_views_equal_a_fresh_derivation():
    """Every rule of the fixtures, and every rule made from one (parameter
    substitution, cardinality replication, proliferation), after being
    matched: each view it keeps equals the view derived afresh by linear
    scans, in the same order."""
    seen = {"rules": 0, "substituted": 0, "replicated": 0, "proliferated": 0}
    for hier, rule_file, models in COMPILED_PAIRINGS:
        system = load_fixture(hier)
        for rule in load_rule_file(rule_file).values():
            seen["rules"] += 1
            if rule.params:
                rule = substitute_parameters(rule, {p: 1 for p in rule.params})
                seen["substituted"] += 1
            for model in models:
                _, bindings = match_for_model(system, rule, model)
                for b in bindings:
                    bind_lhs(system, rule, b, model)
                    for variant in expand_cardinality_variants(system, rule, b, model):
                        if variant is not rule:
                            seen["replicated"] += 1
                            for vb in match_for_model(system, variant, model)[1]:
                                bind_lhs(system, variant, vb, model)
                            _check_rule(variant)
                for tlr in proliferate(system, rule, model):
                    seen["proliferated"] += 1
                    for block in (tlr.lhs, tlr.rhs, tlr.interface()):
                        _check_block(block)
                    assert tlr.interface().elements == _fresh_interface(tlr)
            _check_rule(rule)
    shipped = ("robolang.mcmt", "pls.mcmt", "pls_prefix.mcmt", "agents.mcmt", "ltl.mcmt")
    assert seen["rules"] == sum(len(load_rule_file(f)) for f in shipped)
    assert seen["substituted"] and seen["replicated"] and seen["proliferated"]
