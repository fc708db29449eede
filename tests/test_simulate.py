import io
from collections import Counter

import pytest

from mlmkit import mlhio, simulate
from mlmkit.hierarchy import System, transitive_types
from mlmkit.matching import bind_lhs, match_for_model
from mlmkit.mlhio import save_hierarchy
from mlmkit.rewrite import apply_rule
from mlmkit.rules import RuleError
from mlmkit.simulate import (
    BudgetExceeded,
    InteractiveChoice,
    ScriptedChoice,
    SeededChoice,
    Trace,
    Layer,
    LayerConfig,
    parse_layers,
    render_layers,
    run,
    step,
)

from conftest import FIXTURES


def layers():
    return parse_layers((FIXTURES / "robolang.layers").read_text())


def test_layer_config_parses_modes_and_params():
    config = layers()
    assert [l.mode for l in config.layers] == ["exhaust", "choose-one", "once", "exhaust"]
    assert config.layers[2].entries == (("StepTime", (("x", 1),)),)
    assert render_layers(parse_layers(render_layers(config))) == render_layers(config)


def test_layer_config_rejects_unknown_rule(robolang_rules):
    config = parse_layers("layer once { Missing }")
    with pytest.raises(RuleError):
        config.resolve(robolang_rules)
    config = parse_layers("layer once { StepTime(x=1, zz=3) }")
    with pytest.raises(RuleError, match="^rule StepTime has no parameter zz$"):
        config.resolve(robolang_rules)


def test_layer_config_rejects_bad_line():
    with pytest.raises(RuleError):
        parse_layers("layer sometimes { A }")
    with pytest.raises(RuleError):
        parse_layers("")
    with pytest.raises(RuleError, match=r"^StepTime\(x=abc\): 'abc' is not an integer$"):
        parse_layers("layer once { StepTime(x=abc) }")
    with pytest.raises(RuleError, match=r"^StepTime\(x\): expected NAME=INTEGER$"):
        parse_layers("layer once { StepTime(x) }")
    # junk and a parameter list apart from its rule name are refused where they stand
    with pytest.raises(RuleError, match=r"^1:21: expected ident, found '42'$"):
        parse_layers("layer once { Start; 42 }")
    with pytest.raises(RuleError, match=r"^1:24: unexpected character '!'$"):
        parse_layers("layer once { Start; 42 !! }")
    with pytest.raises(RuleError, match=r"^1:23: expected ident, found '\('$"):
        parse_layers("layer once { StepTime (x=1) }")
    with pytest.raises(RuleError, match=r"^2:7: expected a layer mode"):
        parse_layers("layer once { A }\nlayer choose - one { B }")


def test_layer_fixtures_parse_to_their_configs():
    read = lambda name: parse_layers((FIXTURES / name).read_text(encoding="utf-8"))
    assert read("robolang.layers") == LayerConfig(
        (
            Layer("exhaust", (("DeleteTask", ()), ("Start", ()), ("FireTransition", ()))),
            Layer(
                "choose-one",
                (("InsertInput", ()), ("InsertEffectiveInput", ()), ("DeleteInput", ())),
            ),
            Layer("once", (("StepTime", (("x", 1),)),)),
            Layer("exhaust", (("DeleteTask", ()),)),
        )
    )
    assert read("agents.layers") == LayerConfig(
        (
            Layer("exhaust", (("FireForAgent", ()),)),
            Layer("choose-one", (("SenseBump", ()),)),
            Layer("exhaust", (("ClearActiveMark", ()),)),
        )
    )


def test_resolve_substitutes_each_parameterised_rule_once(robolang_rules):
    """Every pass resolves the config again; a rule with parameters is the
    same value each time, so its derived views are kept."""
    config = layers()
    first, again = config.resolve(robolang_rules), config.resolve(robolang_rules)
    assert all(a is b for x, y in zip(first, again) for (_, a), (_, b) in zip(x, y))
    (_, step_time), = first[2]
    assert step_time is not robolang_rules["StepTime"] and not step_time.params


def _tasks(system, model):
    snap = system.find_model(model)
    return sorted(
        n
        for n in snap.graph.nodes
        if transitive_types(system, model, n).get("robolang") == "Task"
    )


def test_step_without_applicable_rules_is_fixpoint(robolang_system, robolang_rules):
    config = parse_layers("layer once { DeleteTask }")
    trace = Trace(0)
    out, applied = step(
        robolang_system, "robot_1_run_1", robolang_rules, config, SeededChoice(0), trace, 1
    )
    assert not applied and trace.entries == []
    assert save_hierarchy(out) == save_hierarchy(robolang_system)


def test_run_zero_steps_is_identity(robolang_system, robolang_rules):
    out, trace = run(robolang_system, "robot_1_run_1", robolang_rules, layers(), steps=0)
    assert save_hierarchy(out) == save_hierarchy(robolang_system)
    assert trace.entries == []


def test_seed_determinism(robolang_system, robolang_rules):
    out1, t1 = run(robolang_system, "robot_1_run_1", robolang_rules, layers(), steps=6, seed=11)
    out2, t2 = run(robolang_system, "robot_1_run_1", robolang_rules, layers(), steps=6, seed=11)
    assert t1.render() == t2.render()
    assert save_hierarchy(out1) == save_hierarchy(out2)
    out3, t3 = run(robolang_system, "robot_1_run_1", robolang_rules, layers(), steps=6, seed=12)
    assert t3.render() != t1.render()  # different seed, different trace header at least


def test_three_seeded_steps_keep_single_task(robolang_system, robolang_rules):
    system = robolang_system
    trace = Trace(5)
    chooser = SeededChoice(5)
    for k in range(1, 4):
        system, _ = step(system, "robot_1_run_1", robolang_rules, layers(), chooser, trace, k)
        assert len(_tasks(system, "robot_1_run_1")) == 1


def test_scripted_choice_forces_obstacle_then_firing(robolang_system, robolang_rules):
    """Forcing the effective-obstacle insertion makes the next pass fire the
    obstacle transition and leave a go-back task."""
    system = robolang_system
    trace = Trace(None)
    config = layers()
    # candidates in layer 2 are canonically ordered; find the index of the
    # obstacle insertion by dry inspection
    from mlmkit.simulate import _candidates

    resolved = config.resolve(robolang_rules)
    system1, _ = step(
        system, "robot_1_run_1", robolang_rules, config, ScriptedChoice([1]), trace, 1
    )
    cands = _candidates(system1, resolved[1], "robot_1_run_1")
    labels = []
    for name, (rule, m), digest in cands:
        beta = dict(m.binding.maps[2]) if len(m.binding.maps) > 2 else {}
        labels.append((name, beta.get("I")))
    target = next(
        k for k, (name, typ) in enumerate(labels) if name == "InsertEffectiveInput" and typ == "Obstacle"
    )
    trace2 = Trace(None)
    system2, _ = step(
        system, "robot_1_run_1", robolang_rules, config, ScriptedChoice([target + 1]), trace2, 1
    )
    system3, _ = step(
        system2, "robot_1_run_1", robolang_rules, config, ScriptedChoice([0]), trace2, 2
    )
    tasks = _tasks(system3, "robot_1_run_1")
    assert len(tasks) == 1
    assert (
        transitive_types(system3, "robot_1_run_1", tasks[0]).get("legolang") == "GoBack"
    )
    assert any(e.rule == "FireTransition" for e in trace2.entries)


def test_interactive_single_candidate_autoconfirms(robolang_system, robolang_rules):
    config = parse_layers("layer choose-one { Start }")
    out = io.StringIO()
    chooser = InteractiveChoice(io.StringIO(""), out)
    system, trace = run(
        robolang_system, "robot_1_run_1", robolang_rules, config, steps=1, chooser=chooser
    )
    assert any(e.rule == "Start" for e in trace.entries)
    assert "only candidate" in out.getvalue()


def test_interactive_scripted_selection_and_eof(robolang_system, robolang_rules):
    config = parse_layers("layer choose-one { InsertInput }")
    out = io.StringIO()
    chooser = InteractiveChoice(io.StringIO("2\n"), out)
    system, trace = run(
        robolang_system, "robot_1_run_1", robolang_rules, config, steps=1, chooser=chooser
    )
    assert len([e for e in trace.entries if not e.rule.endswith("!rejected")]) == 1
    # end of input aborts the pass without changes
    out2 = io.StringIO()
    chooser2 = InteractiveChoice(io.StringIO(""), out2)
    system2, trace2 = run(
        robolang_system, "robot_1_run_1", robolang_rules, config, steps=1, chooser=chooser2
    )
    assert save_hierarchy(system2) == save_hierarchy(robolang_system)
    assert "aborted" in out2.getvalue()


def test_interactive_invalid_input_reprompts(robolang_system, robolang_rules):
    config = parse_layers("layer choose-one { InsertInput }")
    out = io.StringIO()
    chooser = InteractiveChoice(io.StringIO("nope\n99\n1\n"), out)
    system, trace = run(
        robolang_system, "robot_1_run_1", robolang_rules, config, steps=1, chooser=chooser
    )
    assert "enter a number" in out.getvalue()
    assert "out of range" in out.getvalue()
    assert any(not e.rule.endswith("!rejected") for e in trace.entries)


def test_budget_guard_reports_runaway(robolang_system, robolang_rules):
    # inserting inputs forever never terminates; the budget must trip
    config = parse_layers("layer exhaust { InsertInput }")
    trace = Trace(0)
    with pytest.raises(BudgetExceeded):
        step(
            robolang_system,
            "robot_1_run_1",
            robolang_rules,
            config,
            SeededChoice(0),
            trace,
            1,
            budget=5,
        )


def test_exhaust_layers_terminate_on_fixture(robolang_system, robolang_rules):
    # the shipped configuration stays well under the budget for ten passes
    out, trace = run(
        robolang_system, "robot_1_run_1", robolang_rules, layers(), steps=10, seed=1
    )
    assert len(trace.entries) < 200


def test_trace_lines_are_tab_separated(robolang_system, robolang_rules):
    _, trace = run(robolang_system, "robot_1_run_1", robolang_rules, layers(), steps=2, seed=0)
    for line in trace.render().splitlines()[1:]:
        parts = line.split("\t")
        assert len(parts) == 5
        assert parts[0].isdigit() and parts[1].isdigit()


def test_agent_flags_rise_and_clear():
    """Every behavioural application raises the acting agent's flag and the
    sweep layer lowers every flag before the pass ends."""
    from conftest import load_fixture, load_rule_file

    system = load_fixture("agents.mlh")
    rules = load_rule_file("agents.mcmt")
    config = parse_layers((FIXTURES / "agents.layers").read_text())
    chooser = SeededChoice(0)
    trace = Trace(0)
    for k in range(1, 6):
        system, _ = step(system, "duo_run", rules, config, chooser, trace, k)
        snap = system.find_model("duo_run")
        flags = [v.get("active") for v in snap.attr_values.values() if "active" in v]
        assert flags and all(f is False for f in flags)
    fired = [e for e in trace.entries if e.rule == "FireForAgent"]
    cleared = [e for e in trace.entries if e.rule == "ClearActiveMark"]
    assert fired and len(cleared) >= len(fired)
    for f in fired:
        assert any(c.step == f.step for c in cleared)


def test_agent_behaviour_blocked_while_flag_raised():
    from conftest import load_fixture, load_rule_file
    from mlmkit.matching import bind_lhs, match_for_model
    from mlmkit.rewrite import apply_rule

    system = load_fixture("agents.mlh")
    rules = load_rule_file("agents.mcmt")
    # sense an input, fire once: the flag is now raised
    for name in ("SenseBump", "FireForAgent"):
        rule = rules[name]
        _, bs = match_for_model(system, rule, "duo_run")
        hit = next(
            m for b in bs for m in bind_lhs(system, rule, b, "duo_run")
        )
        system = apply_rule(system, rule, "duo_run", hit).system
    acting = [n for n, v in system.find_model("duo_run").attr_values.items() if v.get("active")]
    assert len(acting) == 1
    # the same agent cannot act again within the pass
    rule = rules["FireForAgent"]
    _, bs = match_for_model(system, rule, "duo_run")
    remaining = [
        m.mu_map()["a"] for b in bs for m in bind_lhs(system, rule, b, "duo_run")
    ]
    assert acting[0] not in remaining


def test_snapshot_hash_serializes_again_only_the_rewritten_model(
    robolang_system, robolang_rules, monkeypatch
):
    """A trace entry hashes the text of the whole hierarchy, but each model's
    block of text is a fact about that model: over ten passes every other
    model is serialized once, the rewritten model once per new value of it,
    and every hash equals the hash taken on a cache-free copy."""
    text_of, hash_of = mlhio._model_text, simulate.snapshot_hash
    serialized, fresh = Counter(), []

    def counted(system, h, name):
        if not fresh:
            serialized[name] += 1
        return text_of(system, h, name)

    def checked(system):
        got = hash_of(system)
        fresh.append(System(system.application, system.supplementary, system.data))
        assert got == hash_of(fresh[-1])
        fresh.pop()
        return got

    monkeypatch.setattr(mlhio, "_model_text", counted)
    monkeypatch.setattr(simulate, "snapshot_hash", checked)
    _, trace = run(robolang_system, "robot_1_run_1", robolang_rules, layers(), steps=10, seed=1)
    applied = [e for e in trace.entries if not e.rule.endswith("!rejected")]
    saved = [robolang_system.application, *robolang_system.supplementary.values()]
    others = {name for h in saved for name in h.model_names()} - {"robot_1_run_1", "root"}
    assert applied and others
    assert {name: serialized[name] for name in others} == {name: 1 for name in others}
    assert serialized["robot_1_run_1"] <= len(applied) + 1
