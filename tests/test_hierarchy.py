import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from mlmkit import rewrite
from mlmkit.graph import Arrow, Graph, graph
from mlmkit.hierarchy import (
    APPLICATION,
    ROOT_ARROW,
    ROOT_MODEL,
    SUPPLEMENTARY,
    ElementTyping,
    Hierarchy,
    Model,
    Multiplicity,
    Potency,
    System,
    TypeRef,
    check_dimensions,
    check_inheritance,
    check_multiplicity,
    check_non_dangling,
    check_potency,
    check_typing_structure,
    check_uniqueness,
    collapse_attributes,
    domain_between,
    domain_of_definition,
    effective_potency,
    expand_attributes,
    parse_multiplicity,
    parse_potency,
    reach,
    recover_direct_types,
    transitive_types,
    type_closure,
    type_refs,
    validate_hierarchy,
)
from mlmkit.graph import compose_partial, partial_leq
from mlmkit.ltl import formula_system, parse_formula, rewrite_with_rules
from mlmkit.matching import bind_lhs, meta_bindings
from mlmkit.mlhio import load_hierarchy, save_hierarchy
from mlmkit.simulate import SeededChoice, Trace, parse_layers, run, step

from conftest import CYCLE_WITH_ARROWS, FIXTURES, edited, load_fixture, retyped
from tests_condition_fixtures import two_handles
from oracles import stale_facts
from test_acceptance import _random_term


def intro_system():
    """Three-node robot over the two language levels, with level-jumping."""
    robolang = Model(
        "robolang",
        graph(
            ["Task", "Trn"],
            [("in", "Trn", "Task"), ("out", "Trn", "Task")],
        ),
        potencies={
            "Trn": parse_potency("1-2-*"),
            Arrow("in", "Trn", "Task"): parse_potency("1-2-*"),
            Arrow("out", "Trn", "Task"): parse_potency("1-2-*"),
        },
    )
    legolang = Model(
        "legolang",
        graph(["Initial", "GoForward"]),
        {
            "Initial": ElementTyping(TypeRef("robolang", "Task")),
            "GoForward": ElementTyping(TypeRef("robolang", "Task")),
        },
    )
    robot = Model(
        "robot_1",
        graph(["I", "GF", "T"], [("in", "T", "I"), ("out", "T", "GF")]),
        {
            "I": ElementTyping(TypeRef("legolang", "Initial")),
            "GF": ElementTyping(TypeRef("legolang", "GoForward")),
            "T": ElementTyping(TypeRef("robolang", "Trn")),
            Arrow("in", "T", "I"): ElementTyping(TypeRef("robolang", Arrow("in", "Trn", "Task"))),
            Arrow("out", "T", "GF"): ElementTyping(
                TypeRef("robolang", Arrow("out", "Trn", "Task"))
            ),
        },
    )
    h = (
        Hierarchy("demo", APPLICATION)
        .with_model(robolang, ROOT_MODEL)
        .with_model(legolang, "robolang")
        .with_model(robot, "legolang")
    )
    return System(h)


def test_typing_chain_examples(robolang_system, pls_system):
    h = robolang_system.application
    assert [m.name for m in h.typing_chain(ROOT_MODEL)] == [ROOT_MODEL]
    assert [m.name for m in h.typing_chain("robot_1")] == [
        "robot_1",
        "legolang",
        "robolang",
        ROOT_MODEL,
    ]
    hp = pls_system.application
    assert len(hp.typing_chain("hammer_config")) == 4


def test_typing_chain_unknown_model(robolang_system):
    with pytest.raises(KeyError):
        robolang_system.application.typing_chain("nowhere")


def test_domain_of_definition_intro():
    system = intro_system()
    h = system.application

    # oracle: exhaustive transitive-type walk per element
    def oracle(j, i):
        out = {}
        for e in h.models[j].graph.elements():
            tt = transitive_types(system, j, e)
            if i in tt:
                out[e] = tt[i]
        return out

    dom, tau = domain_of_definition(system, h, "robot_1", "legolang")
    assert dom.nodes == {"I", "GF"}
    assert dom.arrows == frozenset()
    assert dict(tau.nodes) == {k: v for k, v in oracle("robot_1", "legolang").items() if isinstance(k, str)}

    dom0, tau0 = domain_of_definition(system, h, "robot_1", ROOT_MODEL)
    assert tau0.is_total  # every element has a root type


def test_domain_of_definition_matches_oracle_everywhere(robolang_system, pls_system):
    for system in (robolang_system, pls_system):
        h = system.application
        for m in h.model_names():
            chain = [x.name for x in h.typing_chain(m)]
            for above in chain[1:]:
                dom, tau = domain_of_definition(system, h, m, above)
                for e in h.models[m].graph.elements():
                    tt = transitive_types(system, m, e)
                    assert dom.has(e) == (above in tt)
                    if dom.has(e):
                        assert tau(e) == tt[above]


def test_domain_requires_chain_relation(pls_system):
    with pytest.raises(ValueError):
        domain_of_definition(pls_system, pls_system.application, "hammer_config", "stool_plant")


def test_non_dangling_fixture_and_violation():
    system = intro_system()
    assert check_non_dangling(system) == []
    # retype the in-arrow so its source type no longer matches
    robot = system.find_model("robot_1")
    changes = {
        Arrow("in", "T", "I"): {"own": TypeRef("robolang", Arrow("out", "Trn", "Task"))},
        # out: Trn -> Task: source fits but the worked example breaks on target types
        "I": {"own": TypeRef("robolang", "Trn")},
    }
    system = edited(system, "robot_1", typings=retyped(robot, changes))
    bad = check_non_dangling(system)
    assert any(v.condition == "non-dangling" for v in bad)


def test_uniqueness_ok_and_violation(robolang_system):
    assert check_uniqueness(robolang_system) == []
    # seed a disagreeing 2-jump typing: T1 is declared a direct instance of
    # a robolang element whose chain disagrees with its legolang route
    system = load_fixture("robolang.mlh")
    robot = system.find_model("robot_1")
    gf = {"GF": {"own": TypeRef("legolang", "GoForward")}}
    system = edited(system, "robot_1", typings=retyped(robot, gf))
    # make the composite disagree by retyping GoForward's own chain target
    legolang = system.find_model("legolang")
    go_forward = {"GoForward": {"own": TypeRef("robolang", "Input")}}
    system = edited(system, "legolang", typings=retyped(legolang, go_forward))
    # GF -> GoForward -> Input, but arrows typed in@robolang still expect Task
    bad = validate_hierarchy(system).violations
    assert any(v.condition == "non-dangling" for v in bad)


def test_uniqueness_violation_constructed():
    system = intro_system()
    # declare a direct 2-jump type that differs from the composed route
    legolang = system.find_model("legolang")
    system = edited(
        system,
        "legolang",
        graph=graph(["Initial", "GoForward", "Strange"]),
        typings=retyped(legolang, {"Strange": {"own": TypeRef("robolang", "Task")}}),
    )
    robot = system.find_model("robot_1")
    gf = {"GF": {"own": TypeRef("legolang", "GoForward")}}
    system = edited(system, "robot_1", typings=retyped(robot, gf))
    h = system.application
    # GF's composed 2-step type is Task; now claim T as its direct robolang type
    k, j, i = "robot_1", "legolang", "robolang"
    _, tau_kj = domain_of_definition(system, h, k, j)
    _, tau_ji = domain_of_definition(system, h, j, i)
    _, tau_ki = domain_of_definition(system, h, k, i)
    assert partial_leq(compose_partial(tau_kj, tau_ji), tau_ki)
    # any 2-level hierarchy has no triple at all
    two = Hierarchy("two", APPLICATION).with_model(Model("only", graph(["N"])), ROOT_MODEL)
    assert check_uniqueness(System(two)) == []


def test_potency_range(robolang_system):
    assert check_potency(robolang_system) == []
    # T1 jumps two levels; shrinking Transition's potency to 1-1-* must break it
    system = load_fixture("robolang.mlh")
    robolang = system.find_model("robolang")
    narrower = {**robolang.potencies, "Transition": parse_potency("1-1-*")}
    system = edited(system, "robolang", potencies=narrower)
    bad = check_potency(system)
    assert any(v.element == "T1" and "outside range" in v.message for v in bad)


def test_potency_depth_strictly_decreasing():
    system = intro_system()
    robolang = system.find_model("robolang")
    task = {**robolang.potencies, "Task": parse_potency("1-1-2")}
    system = edited(system, "robolang", potencies=task)
    # depth defaults: Initial gets 1, I gets 0: fine
    assert check_potency(system) == []
    # force a depth violation: instance depth not smaller than the type's
    legolang = system.find_model("legolang")
    initial = {**legolang.potencies, "Initial": parse_potency("1-1-2")}
    system = edited(system, "legolang", potencies=initial)
    bad = check_potency(system)
    assert any(v.element == "Initial" and "depth" in v.message for v in bad)


def test_potency_data_type_attribute_levels(clock_system):
    # attributes expand to nodes typed two levels into the data hierarchy
    expanded = expand_attributes(clock_system, "sys_lang")
    system = clock_system.replace_model(expanded)
    assert validate_hierarchy(system).ok


def test_potency_attribute_depth_exhausted(clock_system):
    # values instantiate the depth-1 attribute node; instantiating a value
    # once more exhausts the data-type depth
    run = expand_attributes(clock_system, "sys_run")
    lang = expand_attributes(clock_system, "sys_lang")
    system = clock_system.replace_model(run).replace_model(lang)
    assert validate_hierarchy(system).ok
    value_node = next(n for n in run.graph.nodes if "=" in n)
    deeper = Model(
        "sys_run_run", graph(["v2"]), {"v2": ElementTyping(TypeRef("sys_run", value_node))}
    )
    app = system.application.with_model(deeper, "sys_run")
    system = System(app, system.supplementary, system.data)
    bad = check_potency(system)
    assert any(v.element == "v2" and "exhausted" in v.message for v in bad)


def test_abstract_nodes_cannot_be_instantiated(combined_system):
    assert check_potency(combined_system) == []
    prop = combined_system.find_model("moving_obstacle")
    changes = {"g1": {"supplementary": {"ltl": TypeRef("ltl", "Unary")}}}
    system = edited(combined_system, "moving_obstacle", typings=retyped(prop, changes))
    bad = check_potency(system)
    assert any("abstract" in v.message and v.element == "g1" for v in bad)


def test_inheritance_fixture_and_violations(combined_system):
    assert check_inheritance(combined_system) == []
    ltl = combined_system.supplementary["ltl"].models["ltl"]
    # self-inheritance; the new arrow gets the root arrow type at construction
    system = edited(
        combined_system,
        "ltl",
        graph=graph(ltl.graph.nodes, list(ltl.graph.arrows) + [("s_self", "Not", "Not")]),
        inherit_arrows=ltl.inherit_arrows | {Arrow("s_self", "Not", "Not")},
    )
    bad = check_inheritance(system)
    assert any("self-inheritance" in v.message for v in bad)


def test_inheritance_child_typed_differently():
    system = intro_system()
    lego = system.find_model("legolang")
    system = edited(
        system,
        "legolang",
        graph=graph(["Initial", "GoForward"], [("s", "Initial", "GoForward")]),
        inherit_arrows=frozenset({Arrow("s", "Initial", "GoForward")}),
        # s gets the root arrow type at construction; Initial's parent says Task
        typings=retyped(lego, {"Initial": {"own": TypeRef("robolang", "Trn")}}),
    )
    bad = check_inheritance(system)
    assert any(v.condition == "inheritance" and "differs from parent" in v.message for v in bad)


def test_inheritance_name_clash():
    m = Model(
        "m",
        graph(
            ["A", "B"],
            [("s", "A", "B"), ("f", "A", "A"), ("f", "B", "B")],
        ),
        inherit_arrows=frozenset({Arrow("s", "A", "B")}),
    )
    h = Hierarchy("demo", APPLICATION).with_model(m, ROOT_MODEL)
    bad = check_inheritance(System(h))
    assert any("redefines parent arrow name f" in v.message for v in bad)


def test_multiplicity_upper_bound(pls_system):
    assert check_multiplicity(pls_system) == []
    # a hammer with two handles violates the 1..1 bound
    system = two_handles(load_fixture("pls.mlh"))
    bad = check_multiplicity(system)
    assert any(
        v.element == "h1" and "exceed max 1" in v.message for v in bad
    )


def test_multiplicity_lower_bound_only_strict(pls_system):
    # hammer p1 has no handle at all: fine by default, flagged under strict
    assert check_multiplicity(pls_system, strict=False) == []
    bad = check_multiplicity(pls_system, strict=True)
    assert any("below min" in v.message and v.element == "p1" for v in bad)


def test_dimensions_fixture_and_violation(combined_system):
    assert check_dimensions(combined_system) == []
    # a supplementary-hierarchy element must not itself be double-typed
    ltl = combined_system.supplementary["ltl"].models["ltl"]
    changes = {"Not": {"data": TypeRef("dt2", "Boolean")}}
    system = edited(combined_system, "ltl", typings=retyped(ltl, changes))
    bad = check_dimensions(system)
    assert any("outside the application dimension" in v.message for v in bad)


def test_validate_hierarchy_aggregates(robolang_system):
    report = validate_hierarchy(robolang_system)
    assert report.ok
    assert report.render() == "ok\n"
    # root-only system validates
    empty = System(Hierarchy("empty", APPLICATION))
    assert validate_hierarchy(empty).ok


def _one_model_system(typings: dict, inherit=(), attr_decls=None) -> System:
    """Model m under lang (nodes T and U, arrow e: T -> U) with the given
    typings, next to a supplementary hierarchy s holding model s1.  Built
    by hand, since the loader refuses the faults the tests below seed."""
    lang = Model("lang", graph(["T", "U"], [("e", "T", "U")]))
    arrows = [(a.name, a.src, a.tgt) for a in inherit]
    m = Model(
        "m",
        graph(list(typings), arrows),
        typings,
        inherit_arrows=frozenset(inherit),
        attr_decls=attr_decls or {},
    )
    h = Hierarchy("h", APPLICATION).with_model(lang, ROOT_MODEL).with_model(m, "lang")
    s1 = Model("s1", graph(["S"]))
    return System(h, {"s": Hierarchy("s", SUPPLEMENTARY).with_model(s1, ROOT_MODEL)})


def _typed(elem, **extra) -> ElementTyping:
    return ElementTyping(TypeRef("lang", elem), **extra)


@pytest.mark.parametrize(
    "system, text",
    [
        (
            lambda: _one_model_system({"a": _typed("Nope")}),
            "[typing] m/a: unknown type Nope@lang",
        ),
        (
            lambda: _one_model_system({"b": _typed(Arrow("e", "T", "U"))}),
            "[typing] m/b: kind mismatch with e:T->U@lang",
        ),
        (
            lambda: _one_model_system(
                {"c": _typed("T", supplementary={"nosuch": TypeRef("s1", "S")})}
            ),
            "[dimensions] m/c: unknown supplementary hierarchy nosuch",
        ),
        (
            lambda: _one_model_system(
                {"c": _typed("T", supplementary={"s": TypeRef("lang", "U")})}
            ),
            "[dimensions] m/c: type U@lang outside supplementary hierarchy s",
        ),
        (
            lambda: _one_model_system({"d": _typed("T", data=TypeRef("lang", "U"))}),
            "[dimensions] m/d: data type U@lang outside the data-type hierarchy",
        ),
        (
            lambda: _one_model_system(
                {"c": _typed("T"), "p": _typed("T")},
                inherit=[Arrow("inh", "c", "p")],
                attr_decls={"c": {"x": "Int"}, "p": {"x": "Int"}},
            ),
            "[inheritance] m/c: redefines parent attribute x",
        ),
    ],
    ids=["unknown-type", "kind-mismatch", "unknown-supplementary", "outside-supplementary",
         "data-type-outside", "parent-attribute"],
)
def test_violation_texts_of_hand_built_systems(system, text):
    assert validate_hierarchy(system()).render() == text + "\n"


def test_uniqueness_violation_through_a_data_typing():
    """The walk behind the typing morphisms takes e's own type into lang
    first, so a data typing into mid, whose type sits at another lang node,
    makes the composite through mid disagree with the direct typing."""
    lang = Model("lang", graph(["Z", "W"]))
    mid = Model("mid", graph(["Y"]), {"Y": ElementTyping(TypeRef("lang", "W"))})
    m = Model(
        "m", graph(["e"]), {"e": ElementTyping(TypeRef("lang", "Z"), data=TypeRef("mid", "Y"))}
    )
    h = Hierarchy("h", APPLICATION).with_model(lang, ROOT_MODEL).with_model(mid, "lang")
    assert validate_hierarchy(System(h.with_model(m, "mid"))).render() == (
        "[dimensions] m/e: data type Y@mid outside the data-type hierarchy\n"
        "[potency] m/e: instance of Z@lang at distance 2 outside range 1-1\n"
        "[uniqueness] m/e: composite typing via mid disagrees with direct typing into lang\n"
    )


def test_validation_skips_a_reference_to_an_unknown_model():
    """Only the typing check reports a type in a model the system does not
    hold; the checks that walk typings skip that reference, also where it
    sits next to a known type (c, whose type T has a depth to inherit)."""
    e = Arrow("e", "T", "T")
    lang = Model(
        "lang",
        graph(["T"], [("e", "T", "T")]),
        potencies={"T": Potency(1, 1, 2)},
        multiplicities={e: Multiplicity(1, 2)},
    )
    m = Model(
        "m",
        graph(["a", "b", "c"], [("e", "a", "b"), ("g", "b", "b")]),
        {
            "a": ElementTyping(TypeRef("nowhere", "X")),
            "b": ElementTyping(TypeRef("lang", "T")),
            "c": ElementTyping(TypeRef("lang", "T"), data=TypeRef("nowhere", "X")),
            Arrow("e", "a", "b"): ElementTyping(TypeRef("lang", e)),
            Arrow("g", "b", "b"): ElementTyping(TypeRef("nowhere", Arrow("g", "X", "X"))),
        },
    )
    h = Hierarchy("h", APPLICATION).with_model(lang, ROOT_MODEL).with_model(m, "lang")
    dimensions = "[dimensions] m/c: data type X@nowhere outside the data-type hierarchy\n"
    rest = (
        "[non-dangling] m/e:a->b: source a has no type T@lang at distance 1\n"
        "[typing] m/a: unknown model nowhere\n"
        "[typing] m/c: unknown model nowhere\n"
        "[typing] m/g:b->b: unknown model nowhere\n"
    )
    assert validate_hierarchy(System(h)).render() == dimensions + rest
    assert validate_hierarchy(System(h), strict_multiplicity=True).render() == (
        dimensions
        + "[multiplicity] m/b: 0 direct instances of e:T->T@lang below min 1\n"
        + "[multiplicity] m/c: 0 direct instances of e:T->T@lang below min 1\n"
        + rest
    )


def test_reconstruction_round_trip(robolang_system, pls_system):
    for system in (robolang_system, pls_system):
        h = system.application
        for m in h.model_names():
            if m == ROOT_MODEL:
                continue
            recovered = recover_direct_types(system, h, m)
            model = h.models[m]
            for e, ref in recovered.items():
                assert model.typings[e].own == ref


def test_domain_nesting(robolang_system):
    # Dom(tau_kj ; tau_ji) is included in Dom(tau_ki) on every valid chain
    h = robolang_system.application
    for m in h.model_names():
        chain = [x.name for x in h.typing_chain(m)]
        for jdx in range(1, len(chain) - 1):
            for idx in range(jdx + 1, len(chain)):
                _, tau_kj = domain_of_definition(robolang_system, h, chain[0], chain[jdx])
                _, tau_ji = domain_of_definition(robolang_system, h, chain[jdx], chain[idx])
                _, tau_ki = domain_of_definition(robolang_system, h, chain[0], chain[idx])
                assert partial_leq(compose_partial(tau_kj, tau_ji), tau_ki)


def test_potency_monotonicity(robolang_system):
    """Tightening an element's potency never repairs a violation."""
    base = validate_hierarchy(robolang_system).violations
    system = load_fixture("robolang.mlh")
    robolang = system.find_model("robolang")
    tighter = {**robolang.potencies, "Transition": Potency(1, 1, None)}  # tighter than 1-2-*
    system = edited(system, "robolang", potencies=tighter)
    tightened = validate_hierarchy(system).violations
    assert set(base) <= set(tightened)


def test_attribute_sugar_round_trip(clock_system):
    expanded = expand_attributes(clock_system, "sys_run")
    assert any("time" in n for n in expanded.graph.nodes)
    collapsed = collapse_attributes(clock_system, "sys_run", expanded)
    original = clock_system.find_model("sys_run")
    assert collapsed.graph == original.graph
    assert collapsed.attr_values == original.attr_values
    # declarations round-trip on the language model
    exp2 = expand_attributes(clock_system, "sys_lang")
    col2 = collapse_attributes(clock_system, "sys_lang", exp2)
    assert col2.attr_decls == clock_system.find_model("sys_lang").attr_decls


@pytest.mark.parametrize("name", ['o.a=__import__("os").getpid()', "o.a=1 2"])
def test_attribute_sugar_reads_values_as_literals_only(clock_system, name):
    expanded = expand_attributes(clock_system, "sys_run")
    named = dataclasses.replace(
        expanded, graph=Graph(expanded.graph.nodes | {name}, expanded.graph.arrows)
    )
    with pytest.raises(ValueError):
        collapse_attributes(clock_system, "sys_run", named)


def test_attribute_sugar_leaves_the_system_it_reads_unchanged(clock_system):
    before = save_hierarchy(clock_system)
    for name in ("sys_lang", "sys_run"):
        collapse_attributes(clock_system, name, expand_attributes(clock_system, name))
        # a system without the remembered text serializes the models again
        cold = System(clock_system.application, clock_system.supplementary, clock_system.data)
        assert save_hierarchy(cold) == before, name


def test_models_typings_and_hierarchies_are_frozen(combined_system):
    model = combined_system.find_model("moving_obstacle")
    h = combined_system.application
    for value, field in (
        (model, "graph"),
        (model, "typings"),
        (model.typings["g1"], "own"),
        (model.typings["g1"], "supplementary"),
        (h, "models"),
        (h, "parents"),
    ):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, getattr(value, field))
    assert not hasattr(model, "typing") and not hasattr(model, "type_rest_by_root")
    assert not hasattr(h, "add_model")
    # a hierarchy gains a model only as a new value, which the system checks
    extra = Model("a", graph(["X"]))
    grown = h.with_model(extra, ROOT_MODEL)
    assert "a" in grown and "a" not in h
    supp = Hierarchy("s", SUPPLEMENTARY).with_model(extra, ROOT_MODEL)
    with pytest.raises(ValueError, match="model a is held by hierarchies"):
        System(grown, {"s": supp})


def test_an_element_without_an_own_type_is_typed_by_the_root():
    m = Model(
        "m",
        graph(["X", "Y"], [("f", "X", "Y")]),
        {"Y": ElementTyping(data=TypeRef("dt2", "Int"))},
    )
    assert m.typings["X"] == ElementTyping(TypeRef(ROOT_MODEL, "EClass"))
    assert m.typings["Y"] == ElementTyping(TypeRef(ROOT_MODEL, "EClass"), {}, TypeRef("dt2", "Int"))
    assert m.typings[Arrow("f", "X", "Y")].own == TypeRef(ROOT_MODEL, ROOT_ARROW)


def test_effective_potency_defaults(robolang_system):
    # user elements default to 1-1 with depth one less than the type's
    pot = effective_potency(robolang_system, "robot_1", "T1")
    assert (pot.min, pot.max) == (1, 1)
    root_pot = effective_potency(robolang_system, ROOT_MODEL, "EClass")
    assert (root_pot.min, root_pot.max, root_pot.depth) == (0, None, None)


def test_parse_helpers():
    assert str(parse_potency("1-2-*")) == "1-2-*"
    assert str(parse_multiplicity("0..*")) == "0..*"
    assert parse_multiplicity("1..1") == Multiplicity(1, 1)
    with pytest.raises(ValueError):
        parse_potency("*-1-1")


def test_domain_intersection_nesting(robolang_system):
    """Deeper domains of definition nest inside shallower ones, so their
    intersection is the deeper domain."""
    from mlmkit.graph import intersect_subgraphs

    h = robolang_system.application
    dom_32, _ = domain_of_definition(robolang_system, h, "robot_1", "legolang")
    dom_31, _ = domain_of_definition(robolang_system, h, "robot_1", "robolang")
    assert intersect_subgraphs(dom_32, dom_31) == dom_32


def _all_type_refs(system) -> dict:
    names = {n for h in system.hierarchies() for n in h.models}
    out = {}
    for name in sorted(names):
        g = system.find_model(name).graph
        for x in sorted(g.nodes) + sorted(g.arrows):
            out[(name, x)] = type_refs(system, name, x)
    return out


def test_type_refs_are_the_type_closure_without_the_element():
    systems = [
        load_fixture(f)
        for f in ("robolang.mlh", "pls.mlh", "agents.mlh", "clock.mlh", "robolang_ltl.mlh")
    ]
    systems += [intro_system(), formula_system(parse_formula("G(p -> X(q U r))"))]
    for system in systems:
        for (name, x), refs in _all_type_refs(system).items():
            want = {
                (t.model, t.elem)
                for t in type_closure(system, name, x)
                if t.steps > 0 or (t.model, t.elem) != (name, x)
            }
            assert refs == want, (name, x)


@st.composite
def inheritance_models(draw):
    """A model over a few nodes with random specialisation arrows, self-loops
    and cycles included, beside one plain arrow."""
    nodes = ["a", "b", "c", "d", "e"]
    pairs = draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)), max_size=8))
    inherits = {Arrow(f"s{k}", src, tgt) for k, (src, tgt) in enumerate(pairs)}
    plain = Arrow("f", "a", "b")
    return Model("m", graph(nodes, [plain, *inherits]), inherit_arrows=frozenset(inherits))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(inheritance_models())
def test_ancestors_are_the_transitive_closure_of_specialisation(model):
    closure = {(a.src, a.tgt) for a in model.inherit_arrows}
    while True:
        more = closure | {(x, z) for x, y in closure for y2, z in closure if y == y2}
        if more == closure:
            break
        closure = more
    for n in model.graph.nodes:
        assert model.ancestors(n) == {y for x, y in closure if x == n}, n
    assert model.ancestors(Arrow("f", "a", "b")) == frozenset()
    assert model.plain_arrows == (Arrow("f", "a", "b"),)


def _views(model: Model) -> tuple:
    nodes = sorted(model.graph.nodes)
    return (
        model.plain_arrows,
        [model.inheritance_parents(n) for n in nodes],
        [model.ancestors(n) for n in nodes],
        model.arrow_counts,
        model.match_graph,
        model.pools,
        {e: t.all_refs for e, t in model.typings.items()},
    )


def test_views_of_a_rewritten_model_equal_those_of_its_fresh_load(
    monkeypatch, robolang_rules, ltl_rules
):
    """Every model that a criterion 7 simulation and the first criterion 8
    formulas build, post-filter rejections included, against the same model
    loaded again from its saved text."""
    system, built = None, []
    survivors = rewrite._survivors

    def recorded(*args):
        built.append((system, survivors(*args)))
        return built[-1][1]

    monkeypatch.setattr(rewrite, "_survivors", recorded)
    config = parse_layers((FIXTURES / "robolang.layers").read_text(encoding="utf-8"))
    system = load_fixture("robolang.mlh")
    run(system, "robot_1_run_1", robolang_rules, config, steps=10, seed=0)
    rng = random.Random(42)
    for _ in range(4):
        system = formula_system(_random_term(rng, rng.randint(1, 4)))
        rewrite_with_rules(system, "property", ltl_rules)
    assert {m.name for _, m in built} == {"robot_1_run_1", "property"}
    for system, model in built:
        fresh = load_hierarchy(save_hierarchy(system.replace_model(model)))
        assert _views(model) == _views(fresh.find_model(model.name))


CHECK_PARTS = {
    "typing",
    "non-dangling",
    "uniqueness",
    "potency",
    "inheritance",
    "multiplicity",
    "dimensions",
}
FACT_KINDS = {
    "closure",
    "type-refs",
    "transitive",
    "dom",
    "effective-potency",
    "reach",
    "validate",
    "meta",
    "match-target",
} | CHECK_PARTS


def _derive_every_fact(system, rules, model_name):
    validate_hierarchy(system)
    validate_hierarchy(system, strict_multiplicity=True)
    for name, x in _all_type_refs(system):
        type_closure(system, name, x)
        transitive_types(system, name, x)
        effective_potency(system, name, x)
        reach(system, name)
    for h in system.hierarchies():
        for j in h.models:
            for above in h.typing_chain(j)[1:]:
                domain_of_definition(system, h, j, above.name)
    names = sorted({n for h in system.hierarchies() for n in h.models})
    for j in names:
        for i in names:
            domain_between(system, j, i)
    for rule in rules:
        if not rule.params:
            for b in meta_bindings(system, rule, model_name):
                bind_lhs(system, rule, b, model_name)


def test_facts_carried_by_replace_model_stay_exact(robolang_system, robolang_rules):
    system = robolang_system
    _derive_every_fact(system, robolang_rules.values(), "robot_1_run_1")
    assert {key[0] for key in system.cache} == FACT_KINDS
    # retype one language element: everything typed through it must change
    legolang = system.find_model("legolang")
    typings = dict(legolang.typings)
    typings["GoForward"] = ElementTyping(TypeRef("robolang", "Input"))
    new = system.replace_model(dataclasses.replace(legolang, typings=typings))
    for key, (_, about) in new.cache.items():
        assert about is not None, key
        assert not {"legolang", "robot_1", "robot_1_run_1"} & set(about), key
    # robolang, the one model left that does not reach legolang, is only
    # ever matched by root-typed pattern levels, so it is never indexed by type
    assert {key[0] for key in new.cache} == FACT_KINDS - {"validate", "meta", "match-target"}
    assert ("type-refs", "robolang", "Task") in new.cache
    # every model had its part of every check; only robolang's survive
    names = {"robolang", "legolang", "robot_1", "robot_1_run_1"}
    parts_before = {key[:2] for key in system.cache if key[0] in CHECK_PARTS}
    parts_after = {key[:2] for key in new.cache if key[0] in CHECK_PARTS}
    assert {(c, n) for c in CHECK_PARTS for n in names} <= parts_before
    assert {(c, n) for c, n in parts_after if n in names} == {(c, "robolang") for c in CHECK_PARTS}
    assert stale_facts(new, robolang_rules.values()) == []
    assert ("robolang", "Input") in type_refs(new, "robot_1", "GF")
    assert ("robolang", "Input") not in type_refs(system, "robot_1", "GF")


def test_every_replace_model_keeps_only_exact_facts(monkeypatch, robolang_rules, ltl_rules):
    """Two criterion 7 simulations and the first criterion 8 formulas: each
    fact carried into a new system value equals the fact derived afresh."""
    config = parse_layers((FIXTURES / "robolang.layers").read_text(encoding="utf-8"))
    rules = [rule for layer in config.resolve(robolang_rules) for _, rule in layer]
    rules += ltl_rules.values()
    replace = System.replace_model
    carried = set()

    def checked(self, model):
        new = replace(self, model)
        assert stale_facts(new, rules) == [], model.name
        carried.update((model.name, key[0]) for key in new.cache)
        return new

    monkeypatch.setattr(System, "replace_model", checked)
    for seed in (0, 1):
        system, chooser, trace = load_fixture("robolang.mlh"), SeededChoice(seed), Trace(seed)
        for k in range(1, 11):
            system, _ = step(system, "robot_1_run_1", robolang_rules, config, chooser, trace, k)
    rng = random.Random(42)
    for _ in range(4):
        term = _random_term(rng, rng.randint(1, 4))
        rewrite_with_rules(formula_system(term), "property", ltl_rules)
    kinds = ("meta", "match-target", "type-refs", "closure")
    assert {("robot_1_run_1", kind) for kind in kinds} <= carried
    # the logic models are matched only by root-typed levels, so the one
    # by-type index is the formula model's own, which its rewrite drops
    assert ("property", "meta") in carried


def test_typing_walks_end_on_a_typing_cycle():
    system = load_hierarchy(CYCLE_WITH_ARROWS)
    assert reach(system, "b") == reach(system, "a") == {"a", "b", ROOT_MODEL}
    assert ("b", "Y") in type_refs(system, "a", "X")
    assert ("a", "X") in type_refs(system, "b", "Y")
    assert ("a", Arrow("e", "X", "P")) in type_refs(system, "b", Arrow("f", "Y", "Q"))


# a typing cycle whose potency walks meet a depth: started at b.Y, the walk
# reaches the depth through a.X; started at a.X, it never walks b.Y's types
CYCLE_WITH_DEPTH = """
hierarchy application h {
  model a : root {
    node X : Y@b & D@s
  }
  model b : a {
    node Y : X@a
  }
}
hierarchy supplementary s {
  model s : root {
    node D pot 1-1-3
  }
}
"""


@pytest.mark.parametrize("text", [CYCLE_WITH_ARROWS, CYCLE_WITH_DEPTH], ids=["arrows", "depth"])
def test_memoized_potencies_and_validation_agree_warm_and_cold_on_a_typing_cycle(text):
    """On a typing cycle a potency walk that starts inside the cycle depends
    on its path, and so does a type-reference walk cut at its path; memoized
    walks and reports must not carry that into the values read from a cold
    system."""
    warm = load_hierarchy(text)
    elements = [
        (name, x)
        for name in ("a", "b")
        for x in sorted(warm.find_model(name).graph.elements(), key=str)
    ]
    # warm every walk from each end of the cycle, in both orders
    for name, x in elements + elements[::-1]:
        effective_potency(warm, name, x)
        type_refs(warm, name, x)
    for name, x in elements:
        assert effective_potency(warm, name, x) == effective_potency(load_hierarchy(text), name, x)
        assert type_refs(warm, name, x) == type_refs(load_hierarchy(text), name, x), (name, x)
    checks = (
        check_typing_structure,
        check_non_dangling,
        check_uniqueness,
        check_potency,
        check_inheritance,
        check_multiplicity,
        check_dimensions,
    )
    for check in checks:
        assert check(warm) == check(load_hierarchy(text)), check.__name__
    for strict in (False, True):
        assert validate_hierarchy(warm, strict) == validate_hierarchy(load_hierarchy(text), strict)
        assert not validate_hierarchy(warm, strict).ok


def test_a_system_refuses_a_model_name_two_hierarchies_hold():
    app = Hierarchy("h", APPLICATION).with_model(Model("a", graph(["X"], [])), ROOT_MODEL)
    supp = Hierarchy("s", SUPPLEMENTARY).with_model(Model("a", graph(["Y"], [])), ROOT_MODEL)
    with pytest.raises(ValueError, match="model a is held by hierarchies h and s"):
        System(app, {"s": supp})
    data_named = Hierarchy("h", APPLICATION).with_model(Model("dt2", graph(["X"], [])), ROOT_MODEL)
    with pytest.raises(ValueError, match="model dt2 is held by hierarchies h and data"):
        System(data_named)
    assert System(app).hierarchy_of("a") is app  # the root is in every hierarchy
