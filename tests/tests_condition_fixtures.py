"""Per-condition fixture pairs for the validator coverage criterion: each
well-formedness condition gets at least one passing fixture and one seeded
violation that must be detected with the right identity."""

from mlmkit.chains import GraphChain
from mlmkit.graph import Arrow, GraphMorphism, graph
from mlmkit.hierarchy import (
    APPLICATION,
    ROOT_MODEL,
    ElementTyping,
    Hierarchy,
    Model,
    System,
    TypeRef,
    check_dimensions,
    check_inheritance,
    check_multiplicity,
    check_non_dangling,
    check_potency,
    check_uniqueness,
    parse_potency,
)

from conftest import edited, load_fixture, retyped


def _non_dangling():
    ok_system = load_fixture("robolang.mlh")
    passing = check_non_dangling(ok_system) == []
    lang = Model("lang", graph(["A", "B"], [("f", "A", "B")]))
    inst = Model(
        "inst",
        graph(["x", "y"], [("g", "x", "y")]),
        {
            "x": ElementTyping(TypeRef("lang", "B")),  # source type does not fit f
            "y": ElementTyping(TypeRef("lang", "B")),
            Arrow("g", "x", "y"): ElementTyping(TypeRef("lang", Arrow("f", "A", "B"))),
        },
    )
    h = Hierarchy("d", APPLICATION).with_model(lang, ROOT_MODEL).with_model(inst, "lang")
    bad = check_non_dangling(System(h))
    seeded = any(v.condition == "non-dangling" and "g" in v.element for v in bad)
    return passing, seeded, f"{len(bad)} violation(s)"


def _uniqueness():
    ok_system = load_fixture("robolang.mlh")
    passing = check_uniqueness(ok_system) == []
    # derived typing cannot disagree, so the seeded violation is a raw chain
    # whose declared two-step morphism contradicts the composite
    g2 = graph(["z"])
    g1 = graph(["m", "n"])
    g0 = graph(["p", "q"])
    taus = {
        (1, 0): GraphMorphism(g1, g0, {"m": "p", "n": "q"}, {}),
        (2, 1): GraphMorphism(g2, g1, {"z": "m"}, {}),
        (2, 0): GraphMorphism(g2, g0, {"z": "q"}, {}),  # composite gives p
    }
    chain = GraphChain((g0, g1, g2), taus)
    problems = chain.validate()
    seeded = any("uniqueness" in p for p in problems)
    return passing, seeded, "; ".join(problems)


def _potency():
    ok_system = load_fixture("robolang.mlh")
    passing = check_potency(ok_system) == []
    # range: a two-level jump against a 1-1 potency
    system = load_fixture("robolang.mlh")
    robolang = system.find_model("robolang")
    narrower = {**robolang.potencies, "Transition": parse_potency("1-1-*")}
    system = edited(system, "robolang", potencies=narrower)
    range_bad = check_potency(system)
    range_hit = any(v.element == "T1" and "outside range" in v.message for v in range_bad)
    # depth: instance depth not strictly below the type's
    system2 = load_fixture("robolang.mlh")
    for name, elem in (("legolang", "GoForward"), ("robot_1", "GF")):
        pots = {**system2.find_model(name).potencies, elem: parse_potency("1-1-3")}
        system2 = edited(system2, name, potencies=pots)
    depth_bad = check_potency(system2)
    depth_hit = any(v.element == "GF" and "strictly" in v.message for v in depth_bad)
    # abstract types cannot be instantiated directly
    system3 = load_fixture("robolang_ltl.mlh")
    prop = system3.find_model("moving_obstacle")
    changes = {"g1": {"supplementary": {"ltl": TypeRef("ltl", "Formula")}}}
    system3 = edited(system3, "moving_obstacle", typings=retyped(prop, changes))
    abstract_hit = any(
        "abstract" in v.message for v in check_potency(system3)
    )
    return passing, range_hit and depth_hit and abstract_hit, "range+depth+abstract"


def _inheritance():
    ok_system = load_fixture("robolang_ltl.mlh")
    passing = check_inheritance(ok_system) == []
    m = Model(
        "m",
        graph(["A", "B"], [("s", "A", "B")]),
        inherit_arrows=frozenset({Arrow("s", "A", "B")}),
    )
    base = System(Hierarchy("d", APPLICATION).with_model(m, ROOT_MODEL))
    base_ok = check_inheritance(base) == []
    # child typed differently from its parent
    lang = Model("lang", graph(["T", "U"]))
    inst = Model(
        "inst",
        graph(["a", "b"], [("s", "a", "b")]),
        {"a": ElementTyping(TypeRef("lang", "T")), "b": ElementTyping(TypeRef("lang", "U"))},
        inherit_arrows=frozenset({Arrow("s", "a", "b")}),
    )
    h2 = Hierarchy("d2", APPLICATION).with_model(lang, ROOT_MODEL).with_model(inst, "lang")
    bad = check_inheritance(System(h2))
    seeded = any(v.condition == "inheritance" and v.element == "a" for v in bad)
    return passing and base_ok, seeded, f"{len(bad)} violation(s)"


def two_handles(system):
    """The pls system with a hammer h1 that has two handles."""
    cfg = system.find_model("hammer_config")
    changes = {
        n: {"own": TypeRef("hammer_plant", t)}
        for n, t in (("h1", "Hammer"), ("hd1", "Handle"), ("hd2", "Handle"))
    }
    for name, tgt in (("hh1", "hd1"), ("hh2", "hd2")):
        changes[Arrow(name, "h1", tgt)] = {
            "own": TypeRef("hammer_plant", Arrow("hasHandle", "Hammer", "Handle"))
        }
    return edited(
        system,
        "hammer_config",
        graph=graph(
            list(cfg.graph.nodes) + ["h1", "hd1", "hd2"],
            [(a.name, a.src, a.tgt) for a in cfg.graph.arrows]
            + [("hh1", "h1", "hd1"), ("hh2", "h1", "hd2")],
        ),
        typings=retyped(cfg, changes),
    )


def _multiplicity():
    ok_system = load_fixture("pls.mlh")
    passing = check_multiplicity(ok_system) == []
    system = two_handles(load_fixture("pls.mlh"))
    bad = check_multiplicity(system)
    seeded = any(v.element == "h1" and "exceed max 1" in v.message for v in bad)
    # intermediate states stay legal without strict mode
    relaxed_ok = check_multiplicity(ok_system, strict=False) == []
    strict_fires = any(
        "below min" in v.message for v in check_multiplicity(ok_system, strict=True)
    )
    return passing and relaxed_ok, seeded and strict_fires, "upper+lower"


def _dimensions():
    ok_system = load_fixture("robolang_ltl.mlh")
    passing = check_dimensions(ok_system) == []
    system = load_fixture("robolang_ltl.mlh")
    ltl = system.supplementary["ltl"].models["ltl"]
    changes = {"Not": {"data": TypeRef("dt2", "Boolean")}}
    system = edited(system, "ltl", typings=retyped(ltl, changes))
    bad = check_dimensions(system)
    seeded = any(
        v.element == "Not" and "application dimension" in v.message for v in bad
    )
    return passing, seeded, f"{len(bad)} violation(s)"


def run_all():
    out = []
    for name, fn in (
        ("non-dangling", _non_dangling),
        ("uniqueness", _uniqueness),
        ("potency", _potency),
        ("inheritance", _inheritance),
        ("multiplicity", _multiplicity),
        ("dimensions", _dimensions),
    ):
        passing, seeded, detail = fn()
        out.append((name, passing and seeded, detail))
    return out
