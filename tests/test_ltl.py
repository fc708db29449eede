import dataclasses
import gc
import random

import pytest

from mlmkit import ltl, matching
from mlmkit.graph import graph
from mlmkit.hierarchy import System, TypeRef, validate_hierarchy
from mlmkit.ltl import (
    NODE_TO_OP,
    formula_system,
    fragment_holds,
    monitor_step,
    parse_formula,
    render_term,
    rewrite_with_rules,
    simplify_and_step,
    to_term,
    unroll,
    verdict,
)
from mlmkit.matching import bind_lhs, match_for_model
from mlmkit.mlhio import load_hierarchy
from mlmkit.rewrite import apply_rule

from oracles import term_simplify, term_step, term_strip_next, term_unroll


def test_parse_and_render():
    t = parse_formula("G(obs -> X(!obs U to))")
    assert t == (
        "G",
        ("impl", ("atom", "obs"), ("X", ("U", ("not", ("atom", "obs")), ("atom", "to")))),
    )
    assert parse_formula(render_term(t)) == t
    assert parse_formula("true & false | a") == ("or", ("and", ("const", True), ("const", False)), ("atom", "a"))
    with pytest.raises(ValueError):
        parse_formula("a U")


def test_formula_system_validates():
    system = formula_system(parse_formula("G(p -> X q)"))
    assert validate_hierarchy(system).ok


def test_atomic_only_formula_unrolls_unchanged():
    system = formula_system(parse_formula("p & !q"))
    assert to_term(unroll(system, "property"), "property") == to_term(system, "property")


def test_until_unroll_golden():
    system = formula_system(parse_formula("a U b"))
    unrolled = unroll(system, "property")
    assert to_term(unrolled, "property") == (
        "or",
        ("atom", "b"),
        ("and", ("atom", "a"), ("X", ("U", ("atom", "a"), ("atom", "b")))),
    )


def test_property_unroll_matches_term_oracle():
    for text in (
        "G(obs -> X(!obs U to))",
        "F(a & b)",
        "(a U b) R c",
        "X(a U b)",
    ):
        t = parse_formula(text)
        system = formula_system(t)
        assert to_term(unroll(system, "property"), "property") == term_unroll(t)


def test_simplify_examples():
    for text, expected in (
        ("X a", ("atom", "a")),
        ("true & b", ("atom", "b")),
        ("!true", ("const", False)),
        ("a -> false", ("not", ("atom", "a"))),
    ):
        system = formula_system(parse_formula(text))
        out = simplify_and_step(system, "property")
        assert to_term(out, "property") == expected


def test_constants_are_fixpoints():
    for text in ("true", "false"):
        system = formula_system(parse_formula(text))
        for _ in range(3):
            system = monitor_step(system, "property", "property")
            assert to_term(system, "property") == parse_formula(text)


def test_monitoring_globally_never_false_when_atom_holds():
    system = formula_system(parse_formula("G p"))  # empty fragment: always true
    for _ in range(5):
        system = monitor_step(system, "property", "property")
        assert verdict(system, "property") is None
        assert to_term(system, "property") == ("G", ("atom", "p"))


def test_eventually_concludes_true():
    system = formula_system(parse_formula("F p"))
    system = monitor_step(system, "property", "property")
    assert verdict(system, "property") is True


def test_fragment_evaluation_against_snapshots(combined_system, robolang_rules):
    system = combined_system
    assert not fragment_holds(system, "moving_obstacle", "obs1", "robot_1_run_1")
    # run the behaviour until an obstacle instance exists
    start = robolang_rules["Start"]
    _, bs = match_for_model(system, start, "robot_1_run_1")
    system = apply_rule(
        system, start, "robot_1_run_1", bind_lhs(system, start, bs[0], "robot_1_run_1")[0]
    ).system
    iei = robolang_rules["InsertEffectiveInput"]
    _, bs = match_for_model(system, iei, "robot_1_run_1")
    chosen = [b for b in bs if dict(b.maps[2]).get("I") == "Obstacle"][0]
    system = apply_rule(
        system, iei, "robot_1_run_1", bind_lhs(system, iei, chosen, "robot_1_run_1")[0]
    ).system
    assert fragment_holds(system, "moving_obstacle", "obs1", "robot_1_run_1")


def test_monitor_step_on_property_model(combined_system):
    # no obstacle in the initial snapshot: the implication holds vacuously
    out = monitor_step(combined_system, "moving_obstacle", "robot_1_run_1")
    assert verdict(out, "moving_obstacle") is None  #残 residual awaits later states
    t = to_term(out, "moving_obstacle")
    assert t[0] == "G"


def test_empty_fragment_always_holds():
    system = formula_system(parse_formula("p"))
    assert fragment_holds(system, "property", "n1", "property")


SUBTYPED_SNAPSHOTS = """
hierarchy application h {
  model lang : root {
    node Task
    node Sub
    inherit sub : Sub -> Task
  }
  model run : lang {
    node x : Sub@lang
  }
  model idle : lang { }
}
"""


def test_a_fragment_holds_on_an_instance_of_a_subtype():
    loaded = load_hierarchy(SUBTYPED_SNAPSHOTS)
    system = System(loaded.application, {"ltl": ltl.make_ltl_hierarchy()}, loaded.data)
    fragments = {"busy": TypeRef("lang", "Task")}
    system.application.add_model(
        ltl.build_formula_model(parse_formula("busy"), "property", fragments), "lang"
    )
    assert fragment_holds(system, "property", "n1", "run")
    assert not fragment_holds(system, "property", "n1", "idle")


def test_formula_steps_leave_no_reference_cycles(combined_system, ltl_rules):
    """Building, unfolding and stepping formulas, by the library and by the
    rules, free everything they made as soon as it is unused: the collector
    finds nothing."""
    terms = [parse_formula("G(p -> X(!p U q)) & F(r R p)"), parse_formula("F X true")]
    gc.collect()
    gc.disable()
    try:
        for term in terms:
            system = formula_system(term)
            to_term(system, "property")
            to_term(monitor_step(system, "property", "property"), "property")
            to_term(rewrite_with_rules(system, "property", ltl_rules), "property")
        monitor_step(combined_system, "moving_obstacle", "robot_1_run_1")
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


CRITERION_8_OPS = ["const", "not", "and", "or", "impl", "X", "U", "F", "G"]
WITH_ATOMS_OPS = CRITERION_8_OPS + ["atom", "R"]


def _random_term(rng, depth, ops=CRITERION_8_OPS):
    if depth == 0:
        return ("const", rng.random() < 0.5)
    op = rng.choice(ops)
    if op == "const":
        return ("const", rng.random() < 0.5)
    if op == "atom":
        return ("atom", rng.choice("abc"))
    if op in ("not", "X", "F", "G"):
        return (op, _random_term(rng, depth - 1, ops))
    return (op, _random_term(rng, depth - 1, ops), _random_term(rng, depth - 1, ops))


def _fault_shape(t, inside=False, direct=False, under_f=False) -> bool:
    """The two shapes the rules path gets wrong (FOUND in CHANGES.md): a
    temporal operator reached from an enclosing one through some other
    operator, or, inside an F, an X whose operand folds to true."""
    op = t[0]
    if op in ("const", "atom"):
        return False
    if op == "X" and under_f and term_simplify(term_strip_next(t[1])) == ("const", True):
        return True
    if op in ("F", "G", "U", "R"):
        if inside and not direct:
            return True
        return any(_fault_shape(s, True, True, under_f or op == "F") for s in t[1:])
    return any(_fault_shape(s, inside, False, under_f) for s in t[1:])


def _unreachable(system, model_name="property") -> set:
    """Nodes of the formula model that no root marker reaches."""
    model = system.find_model(model_name)
    todo = [n for n in model.graph.nodes if model.typings[n].supplementary["ltl"].elem == "Root"]
    seen = set(todo)
    while todo:
        n = todo.pop()
        for a in model.graph.arrows:
            if a.src == n and a.tgt not in seen:
                seen.add(a.tgt)
                todo.append(a.tgt)
    return set(model.graph.nodes) - seen


def test_step_pipeline_matches_term_oracle_random_sample():
    rng = random.Random(2024)
    for _ in range(40):
        t = _random_term(rng, rng.randint(1, 4))
        system = formula_system(t)
        out = simplify_and_step(unroll(system, "property"), "property")
        assert to_term(out, "property") == term_step(t)


def test_rule_driven_rewriting_matches_library_sample(ltl_rules):
    rng = random.Random(77)
    for _ in range(8):
        t = _random_term(rng, rng.randint(1, 3))
        system = formula_system(t)
        via_rules = rewrite_with_rules(system, "property", ltl_rules)
        via_lib = simplify_and_step(unroll(system, "property"), "property")
        assert to_term(via_rules, "property") == to_term(via_lib, "property")
        assert validate_hierarchy(via_rules).ok


def test_meta_bindings_carried_through_rewriting_equal_fresh_ones(ltl_rules, monkeypatch):
    fresh_match = matching.match
    calls = []
    monkeypatch.setattr(
        matching, "match", lambda *args, **kw: calls.append(args) or fresh_match(*args, **kw)
    )
    system = formula_system(parse_formula("G(p -> X(q U r))"))
    out = rewrite_with_rules(system, "property", ltl_rules)
    assert out is not system
    assert len(calls) == 1  # the 100 rules share one meta chain, matched once for the run
    cold = System(out.application, out.supplementary, out.data)
    for rule in ltl_rules.values():
        carried = matching.meta_bindings(out, rule, "property")
        assert carried == tuple(match_for_model(cold, rule, "property")[1]), rule.name
    assert len(calls) == 2

    # a system whose logic model was replaced matches afresh, whether the
    # change matters to the bindings or not
    ltl = out.find_model("ltl")
    grown = dataclasses.replace(ltl, graph=graph(ltl.graph.nodes | {"Extra"}, ltl.graph.arrows))
    shrunk = dataclasses.replace(
        ltl,
        graph=graph(
            ltl.graph.nodes - {"R"}, (a for a in ltl.graph.arrows if "R" not in (a.src, a.tgt))
        ),
        inherit_arrows=frozenset(a for a in ltl.inherit_arrows if a.src != "R"),
    )
    unroll_u = ltl_rules["UnrollU_rootf"]
    for changed, found in ((grown, True), (shrunk, False)):
        system = out.replace_model(changed)
        assert not any(key[0] == "meta" for key in system.cache)
        calls.clear()
        got = matching.meta_bindings(system, unroll_u, "property")
        assert len(calls) == 1 and bool(got) is found
        cold = System(system.application, system.supplementary, system.data)
        assert got == tuple(match_for_model(cold, unroll_u, "property")[1])


def test_rewriting_that_does_not_converge_names_where_it_stopped(ltl_rules):
    system = formula_system(parse_formula("G a & F b"))
    with pytest.raises(RuntimeError) as err:
        rewrite_with_rules(system, "property", ltl_rules, cap=1)
    assert str(err.value) == (
        "formula rewriting did not converge within 1 rule applications "
        "(phase Unroll, last rule UnrollG_left): ((a & X(G(a))) & (b | X(F(b))))"
    )


def test_rewriting_leaves_only_the_live_formula(ltl_rules):
    rng = random.Random(88)
    texts = ["G (b & G a)", "F X true", "G(p -> X(q U r))", "(a U b) R c"]
    terms = [parse_formula(x) for x in texts] + [
        _random_term(rng, rng.randint(1, 4), WITH_ATOMS_OPS) for _ in range(20)
    ]
    for t in terms:
        out = rewrite_with_rules(formula_system(t), "property", ltl_rules)
        assert not _unreachable(out), render_term(t)
        assert validate_hierarchy(out).ok, render_term(t)


def test_rules_agree_with_the_term_oracle_on_formulas_with_atoms_and_release(ltl_rules):
    rng = random.Random(8)
    terms = [_random_term(rng, rng.randint(1, 4), WITH_ATOMS_OPS) for _ in range(80)]
    kept = [t for t in terms if not _fault_shape(t)]
    assert len(kept) == 70 and any("R" in repr(t) and "atom" in repr(t) for t in kept)
    for t in kept:
        system = formula_system(t)
        via_rules = to_term(rewrite_with_rules(system, "property", ltl_rules), "property")
        via_lib = to_term(simplify_and_step(unroll(system, "property"), "property"), "property")
        assert via_rules == via_lib == term_step(t), render_term(t)


@pytest.mark.xfail(
    strict=True,
    reason="FOUND in CHANGES.md: the unroll rules share the operand between the "
    "now-copy and the next-state copy, so the inner G is unrolled in both",
)
def test_nested_temporal_operator_stays_raw_in_the_next_state_copy(ltl_rules):
    t = parse_formula("G (b & G a)")
    out = rewrite_with_rules(formula_system(t), "property", ltl_rules)
    assert to_term(out, "property") == term_step(t)


@pytest.mark.xfail(
    strict=True,
    reason="FOUND in CHANGES.md: both operands of the Or are one shared True node, "
    "which no injective FoldOr match can fold",
)
def test_eventually_next_true_folds_to_true(ltl_rules):
    t = parse_formula("F X true")
    out = rewrite_with_rules(formula_system(t), "property", ltl_rules)
    assert to_term(out, "property") == term_step(t) == ("const", True)


def test_kind_check_skips_only_rules_without_a_match(ltl_rules, monkeypatch):
    """At every sweep of the rule-driven rewriting, each rule whose FROM
    nodes need a concrete logic kind that no live node has gives no match,
    so skipping it changes nothing: criterion 8's 100 formulas and 100
    draws of the generator with atoms and release."""
    live = ltl._live
    tally = {"sweeps": 0, "skipped": 0}

    def checked(system, model_name):
        out = live(system, model_name)
        system, kinds_here = out[0], out[1]
        concrete = ltl._concrete_kinds(system, model_name)
        assert concrete == {"Root", "Atomic", "True", "False"} | set(NODE_TO_OP)
        tally["sweeps"] += 1
        for rule in ltl_rules.values():
            if rule.from_kinds & concrete <= kinds_here:
                continue
            tally["skipped"] += 1
            for b in matching.meta_bindings(system, rule, model_name):
                assert bind_lhs(system, rule, b, model_name) == [], rule.name
        return out

    monkeypatch.setattr(ltl, "_live", checked)
    criterion_8, with_atoms = random.Random(42), random.Random(9)
    terms = [_random_term(criterion_8, criterion_8.randint(1, 4)) for _ in range(100)]
    terms += [
        _random_term(with_atoms, with_atoms.randint(1, 4), WITH_ATOMS_OPS) for _ in range(100)
    ]
    for t in terms:
        rewrite_with_rules(formula_system(t), "property", ltl_rules)
    assert tally["skipped"] > tally["sweeps"]
