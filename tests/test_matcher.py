import pytest

from mlmkit.graph import Arrow
from mlmkit.hierarchy import elem_str, validate_hierarchy
from mlmkit.ltl import formula_system, parse_formula, unroll
from mlmkit.matching import (
    Binding,
    bind_lhs,
    build_stack,
    graph_match,
    match,
    match_for_model,
)
from mlmkit.mlhio import load_hierarchy
from mlmkit.rewrite import apply_rule
from mlmkit.rules import parse_rules

from conftest import load_fixture, load_rule_file
from oracles import brute_force_bindings, brute_force_lhs


GOLDEN_MATCHES = [
    {
        "X": "GF",
        "Y": "GB1",
        "T": "T2",
        "I": "Obstacle",
        "in": "in2",
        "out": "out2",
        "inputs": "o2",
    },
    {
        "X": "GF",
        "Y": "GB2",
        "T": "T3",
        "I": "Edge",
        "in": "in3",
        "out": "out3",
        "inputs": "b3",
    },
]


def _level_assignment(binding, level):
    out = {}
    for k, v in binding.maps[level]:
        out[k.name if isinstance(k, Arrow) else k] = v.name if isinstance(v, Arrow) else v
    return out


def test_fragment_stack_produces_the_two_recorded_matches(fragment_system, robolang_rules):
    ft = robolang_rules["FireTransition"]
    found, bindings = match_for_model(fragment_system, ft, "robot_1_run_1")
    assert found and len(bindings) == 2
    level1 = {
        "Task": "Task",
        "Transition": "Transition",
        "Input": "Input",
        "in": "in",
        "out": "out",
        "inputs": "inputs",
    }
    tables = []
    for b in bindings:
        assert b.model_at(1) == "robolang"
        assert b.model_at(2) == "robot_1"
        assert _level_assignment(b, 1) == level1
        tables.append(_level_assignment(b, 2))
    canon = lambda ts: sorted(tuple(sorted(t.items())) for t in ts)
    assert canon(tables) == canon(GOLDEN_MATCHES)


def test_language_level_matches_nowhere_else(fragment_system, robolang_rules):
    """The top pattern level fits neither the refinement level (no arrows)
    nor the robot level (in and out would have to share a target)."""
    ft = robolang_rules["FireTransition"]
    for target in ("legolang", "robot_1"):
        hits = graph_match(
            fragment_system,
            ft,
            ft.meta_level(1),
            target,
            {0: "root"},
            {0: {"EClass": "EClass", Arrow("EReference", "EClass", "EClass"): Arrow("EReference", "EClass", "EClass")}},
        )
        assert hits == []


def test_empty_pattern_level_matches_once(fragment_system, robolang_rules):
    from mlmkit.rules import PatternBlock

    hits = graph_match(
        fragment_system,
        robolang_rules["FireTransition"],
        PatternBlock(),
        "robolang",
        {0: "root"},
        {0: {}},
    )
    assert hits == [{}]


def test_root_only_rule_binds_identically(fragment_system):
    (rule,) = parse_rules(
        "rule R { meta { mm1 { Task$ } } from { } to { } }"
    )
    found, bindings = match_for_model(fragment_system, rule, "robot_1_run_1")
    assert found and len(bindings) == 1
    assert bindings[0].model_at(1) == "robolang"


def test_rule_without_match_reports_not_found(fragment_system):
    (rule,) = parse_rules("rule R { meta { mm1 { Nothing$ } } from { } to { } }")
    found, bindings = match_for_model(fragment_system, rule, "robot_1_run_1")
    assert not found and bindings == []


def test_full_model_count_matches_oracle(robolang_system, robolang_rules):
    ft = robolang_rules["FireTransition"]
    stack = build_stack(robolang_system, "robot_1_run_1")
    found, bindings = match(robolang_system, ft, stack)
    oracle = brute_force_bindings(robolang_system, ft, stack)
    assert len(bindings) == len(oracle) == 6
    got = {(b.f, tuple(sorted((elem_str(k), elem_str(v)) for k, v in b.maps[2]))) for b in bindings}
    want = {
        (
            f,
            tuple(sorted((elem_str(k), elem_str(v)) for k, v in fam[2].items())),
        )
        for f, fam in oracle
    }
    assert got == want


def test_fragment_completeness_vs_oracle(fragment_system, robolang_rules):
    for rule_name in ("FireTransition", "DeleteTask", "InsertEffectiveInput"):
        rule = robolang_rules[rule_name]
        stack = build_stack(fragment_system, "robot_1_run_1")
        found, bindings = match(fragment_system, rule, stack)
        oracle = brute_force_bindings(fragment_system, rule, stack)
        assert len(bindings) == len(oracle), rule_name
        got = {
            (b.f, tuple(tuple(sorted((elem_str(k), elem_str(v)) for k, v in b.maps[i])) for i in range(len(b.f))))
            for b in bindings
        }
        want = {
            (
                f,
                tuple(
                    tuple(sorted((elem_str(k), elem_str(v)) for k, v in fam[i].items()))
                    for i in range(len(f))
                ),
            )
            for f, fam in oracle
        }
        assert got == want, rule_name


def test_pruned_partials_have_no_oracle_completion(fragment_system, robolang_rules):
    """Early-exit soundness: the recorded binding set equals the oracle set,
    so nothing prunable could have been completed."""
    ft = robolang_rules["FireTransition"]
    stack = build_stack(fragment_system, "robot_1_run_1")
    _, bindings = match(fragment_system, ft, stack)
    oracle = brute_force_bindings(fragment_system, ft, stack)
    assert len(bindings) == len(oracle)


def test_bind_lhs_empty_from(fragment_system, robolang_rules):
    ii = robolang_rules["InsertInput"]
    _, bindings = match_for_model(fragment_system, ii, "robot_1_run_1")
    assert bindings
    hits = bind_lhs(fragment_system, ii, bindings[0], "robot_1_run_1")
    assert len(hits) == 1 and hits[0].mu == ()


# C inherits from P but is typed by another language node, which breaks the
# inheritance condition
CHILD_TYPED_APART = """
hierarchy application h {
  model lang : root {
    node A
    node B
  }
  model inst : lang {
    node P : A@lang
    node C : B@lang
    inherit s : C -> P
  }
}
"""


def test_type_compatibility_drops_a_child_typed_apart_from_its_parent():
    """The typed search finds C under its parent P's type A; the level by
    level re-check of bind_lhs reads C's own type B and keeps P alone."""
    system = load_hierarchy(CHILD_TYPED_APART)
    (rule,) = parse_rules("rule R { meta { mm1 { T } } from { x : T @ mm1 } to { x : T @ mm1 } }")
    (b,) = [b for b in match_for_model(system, rule, "inst")[1] if dict(b.maps[1]) == {"T": "A"}]
    partial_f = {i: b.model_at(i) for i in range(len(b.f))}
    partial_maps = {i: b.level_map(i) for i in range(len(b.f))}
    hits = graph_match(system, rule, rule.lhs, "inst", partial_f, partial_maps)
    assert sorted(mu["x"] for mu in hits) == ["C", "P"]
    assert [m.mu_map() for m in bind_lhs(system, rule, b, "inst")] == [{"x": "P"}]
    assert validate_hierarchy(system).render() == (
        "[inheritance] inst/C: typing into lang differs from parent P\n"
    )


def test_bind_lhs_requires_place_for_every_variable(robolang_system, robolang_rules):
    ft = robolang_rules["FireTransition"]
    _, bindings = match_for_model(robolang_system, ft, "robot_1_run_1")
    obstacle = [b for b in bindings if _level_assignment(b, 2)["I"] == "Obstacle"][0]
    # the initial snapshot has no input instance yet
    assert bind_lhs(robolang_system, ft, obstacle, "robot_1_run_1") == []


def test_bind_lhs_after_preparation(robolang_system, robolang_rules):
    system = robolang_system
    start = robolang_rules["Start"]
    _, bs = match_for_model(system, start, "robot_1_run_1")
    system = apply_rule(
        system, start, "robot_1_run_1", bind_lhs(system, start, bs[0], "robot_1_run_1")[0]
    ).system
    iei = robolang_rules["InsertEffectiveInput"]
    _, bs = match_for_model(system, iei, "robot_1_run_1")
    chosen = [b for b in bs if _level_assignment(b, 2).get("I") == "Obstacle"][0]
    system = apply_rule(
        system, iei, "robot_1_run_1", bind_lhs(system, iei, chosen, "robot_1_run_1")[0]
    ).system
    ft = robolang_rules["FireTransition"]
    _, bs = match_for_model(system, ft, "robot_1_run_1")
    hits = [
        (b, m) for b in bs for m in bind_lhs(system, ft, b, "robot_1_run_1")
    ]
    assert len(hits) == 1
    mu = hits[0][1].mu_map()
    snap = system.find_model("robot_1_run_1")
    from mlmkit.hierarchy import transitive_types

    assert transitive_types(system, "robot_1_run_1", mu["x"]).get("legolang") == "GoForward"
    assert transitive_types(system, "robot_1_run_1", mu["i"]).get("legolang") == "Obstacle"


def test_alpha_invariance(fragment_system, robolang_rules):
    """Consistently renaming pattern variables yields a bijection on
    bindings."""
    from dataclasses import replace

    from mlmkit.rules import PatternBlock

    ft = robolang_rules["FireTransition"]
    renaming = {"X": "Alpha", "Y": "Beta", "T": "Theta", "I": "Iota"}

    def rename_block(blk):
        out = []
        for el in list(blk.nodes()) + list(blk.arrows()):
            c = el
            if not c.constant:
                c = replace(c, name=renaming.get(c.name, c.name))
            if c.src:
                c = replace(c, src=renaming.get(c.src, c.src))
            if c.tgt:
                c = replace(c, tgt=renaming.get(c.tgt, c.tgt))
            if c.type is not None and c.type.level > 0:
                renamed_type = renaming.get(c.type.name, c.type.name)
                c = replace(c, type=type(c.type)(c.type.level, renamed_type))
            out.append(c)
        return PatternBlock.of(out)

    renamed = type(ft)(
        "Renamed",
        [],
        [rename_block(b) for b in ft.meta],
        rename_block(ft.lhs),
        rename_block(ft.rhs),
    )
    _, b1 = match_for_model(fragment_system, ft, "robot_1_run_1")
    _, b2 = match_for_model(fragment_system, renamed, "robot_1_run_1")
    assert len(b1) == len(b2)
    images1 = sorted(
        tuple(sorted(v if isinstance(v, str) else v.name for _, v in b.maps[2])) for b in b1
    )
    images2 = sorted(
        tuple(sorted(v if isinstance(v, str) else v.name for _, v in b.maps[2])) for b in b2
    )
    assert images1 == images2


def test_determinism_of_match_output(fragment_system, robolang_rules):
    ft = robolang_rules["FireTransition"]
    runs = [match_for_model(fragment_system, ft, "robot_1_run_1")[1] for _ in range(3)]
    digests = [[b.digest() for b in r] for r in runs]
    assert digests[0] == digests[1] == digests[2]


def test_binding_digest_and_render(fragment_system, robolang_rules):
    ft = robolang_rules["FireTransition"]
    _, bindings = match_for_model(fragment_system, ft, "robot_1_run_1")
    b = bindings[0]
    assert len(b.digest()) == 12
    assert "mm1 -> robolang" in b.render()


def _as_bindings(system, stack, oracle):
    """brute_force_bindings results as Binding values, in the matcher's order."""
    out = [
        Binding(
            tuple(stack),
            f,
            tuple(
                tuple(sorted(fam[i].items(), key=lambda kv: elem_str(kv[0])))
                for i in range(len(f))
            ),
        )
        for f, fam in oracle
    ]
    return sorted(out, key=lambda b: b.sort_key())


def _lhs_matches_agree(system, rule, bindings, model_name) -> int:
    found = 0
    for b in bindings:
        got = bind_lhs(system, rule, b, model_name)
        assert got == brute_force_lhs(system, rule, b, model_name), rule.name
        found += len(got)
    return found


@pytest.mark.parametrize(
    "fixture, rule_file, model",
    [
        ("robolang_fragment.mlh", "robolang.mcmt", "robot_1_run_1"),
        ("agents.mlh", "agents.mcmt", "duo_run"),
    ],
)
def test_indexed_lhs_matching_agrees_with_oracles(fixture, rule_file, model):
    system = load_fixture(fixture)
    stack = build_stack(system, model)
    found = 0
    for name, rule in sorted(load_rule_file(rule_file).items()):
        if rule.params:
            continue
        bindings = _as_bindings(system, stack, brute_force_bindings(system, rule, stack))
        assert match_for_model(system, rule, model)[1] == bindings, name
        found += _lhs_matches_agree(system, rule, bindings, model)
    assert found > 0


def test_indexed_lhs_matching_agrees_with_oracles_on_formulas(ltl_rules):
    # the logic meta chain is too large for unpruned binding enumeration, so
    # the bindings here are the matcher's; the FROM matches face the oracle
    found = 0
    for text in ("a U b", "G(p -> X q)", "(true & a) | (false R b)", "F(!a) & X(b U c)"):
        system = formula_system(parse_formula(text))
        for state in (system, unroll(system, "property")):
            for rule in ltl_rules.values():
                _, bindings = match_for_model(state, rule, "property")
                found += _lhs_matches_agree(state, rule, bindings, "property")
    assert found > 0
