import subprocess
import sys

import pytest

from mlmkit.cli import main
from mlmkit.hierarchy import ROOT_MODEL, validate_hierarchy
from mlmkit.mlhio import LoadError, export_dot, load_hierarchy, save_hierarchy
from mlmkit.simulate import ScriptedChoice, parse_layers, run

from conftest import CYCLE_WITH_ARROWS, FIXTURES, load_fixture

ALL_FIXTURES = [
    "robolang.mlh",
    "robolang_fragment.mlh",
    "robolang_ltl.mlh",
    "pls.mlh",
    "clock.mlh",
    "agents.mlh",
]


def test_every_fixture_loads_validates_and_round_trips():
    for name in ALL_FIXTURES:
        system = load_fixture(name)
        assert validate_hierarchy(system).ok, name
        text = save_hierarchy(system)
        again = save_hierarchy(load_hierarchy(text))
        assert text == again, name


def test_empty_document_is_root_only():
    system = load_hierarchy("")
    assert list(system.application.models) == [ROOT_MODEL]
    assert validate_hierarchy(system).ok


def test_dangling_type_reference_is_a_load_error():
    text = """
hierarchy application a {
  model m : root {
    node N : Ghost@root
  }
}
"""
    with pytest.raises(LoadError) as err:
        load_hierarchy(text)
    assert "Ghost" in str(err.value)


def test_unknown_parent_is_a_load_error():
    with pytest.raises(LoadError):
        load_hierarchy("hierarchy application a { model m : ghost { node N } }")


def test_two_application_hierarchies_rejected():
    text = (
        "hierarchy application a { model m : root { node N } }\n"
        "hierarchy application b { model k : root { node M } }\n"
    )
    with pytest.raises(LoadError):
        load_hierarchy(text)


# a supplementary model `a`; beside an application model `a`, every by-name
# lookup would resolve `Y@a` to the application model
SUPPLEMENTARY_A = """
hierarchy supplementary s {
  model a : root {
    node Y pot 1-1-1
  }
  model b : a {
    node Z : Y@a pot 1-1-3
  }
}
"""


@pytest.mark.parametrize(
    "text, where",
    [
        (
            "hierarchy application h { model a : root { node Y pot 1-1-5 } }" + SUPPLEMENTARY_A,
            "3:3: model a already exists in hierarchy h",
        ),
        (
            "hierarchy application h { model a : root { } model a : root { } }",
            "1:46: model a already exists in hierarchy h",
        ),
        (
            "hierarchy application h { model root : root { } }",
            "1:27: model root already exists in every hierarchy",
        ),
        (
            "hierarchy application h { model dt2 : root { node X } }",
            "1:27: model dt2 already exists in hierarchy data",
        ),
        (
            "hierarchy supplementary s { model a : root { node Y } }\n"
            "hierarchy supplementary s { model b : root { node Z : Y@a } }\n",
            "2:1: hierarchy s already exists",
        ),
    ],
    ids=["two-hierarchies", "one-hierarchy", "root", "data-type-model", "two-supplementary"],
)
def test_a_model_name_held_twice_is_one_line_exit_two(tmp_path, capsys, text, where):
    with pytest.raises(LoadError) as err:
        load_hierarchy(text)
    assert str(err.value) == where
    path = tmp_path / "twice.mlh"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert _one_error_line(capsys) == f"error: {where}"


def test_a_renamed_application_model_shows_what_a_held_name_hid(tmp_path, capsys):
    path = tmp_path / "renamed.mlh"
    text = "hierarchy application h { model c : root { node Y pot 1-1-5 } }" + SUPPLEMENTARY_A
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "[potency] b/Z: depth 3 not strictly less than depth 1 of type Y@a" in out


def test_export_dot_empty_model():
    system = load_hierarchy("hierarchy application a { model m : root { } }")
    dot = export_dot(system, "m")
    assert dot.startswith("digraph")
    assert '"m/' not in dot  # no elements inside the cluster


def test_export_dot_robot_node_count(robolang_system):
    dot = export_dot(robolang_system, "robot_1")
    labels = [line for line in dot.splitlines() if line.strip().startswith('"robot_1/') and "->" not in line]
    assert len(labels) == 16
    assert any("T1:Transition@2" in line for line in labels)


def test_export_dot_full_hierarchy_clusters(robolang_system):
    dot = export_dot(robolang_system)
    for model in ("robolang", "legolang", "robot_1", "robot_1_run_1"):
        assert f'subgraph "cluster_{model}"' in dot
    assert "style=dashed" in dot  # tree edges between clusters
    assert export_dot(robolang_system) == dot  # deterministic


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def run_cli(*argv, capsys=None):
    return main(list(argv))


def test_cli_validate_ok(capsys):
    code = main(["validate", str(FIXTURES / "robolang.mlh")])
    assert code == 0
    assert capsys.readouterr().out == "ok\n"


def test_cli_validate_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.mlh"
    bad.write_text(
        """
hierarchy application a {
  model m : root {
    node T pot 1-1-*
  }
  model n : m {
    node x : T@m
    node y : x@n
  }
}
"""
    )
    code = main(["validate", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "typing" in out or "potency" in out


def test_cli_match_prints_bindings(capsys):
    code = main(
        [
            "match",
            str(FIXTURES / "robolang_fragment.mlh"),
            str(FIXTURES / "robolang.mcmt"),
            "--rule",
            "FireTransition",
            "--model",
            "robot_1_run_1",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "2 binding(s)" in out
    assert "I -> Obstacle" in out and "I -> Edge" in out


def test_cli_match_not_found_exits_one(capsys, tmp_path):
    rules = tmp_path / "r.mcmt"
    rules.write_text("rule R { meta { mm1 { Ghost$ } } from { } to { } }")
    code = main(
        [
            "match",
            str(FIXTURES / "robolang_fragment.mlh"),
            str(rules),
            "--rule",
            "R",
            "--model",
            "robot_1_run_1",
        ]
    )
    assert code == 1


def test_cli_usage_error_is_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_cli_missing_file_is_exit_two(capsys):
    assert main(["validate", "definitely-missing.mlh"]) == 2


def test_cli_apply_and_dry_run(capsys, tmp_path):
    args = [
        "apply",
        str(FIXTURES / "robolang.mlh"),
        str(FIXTURES / "robolang.mcmt"),
        "--rule",
        "Start",
        "--model",
        "robot_1_run_1",
        "--binding",
        "1",
    ]
    code = main(args + ["--dry-run"])
    out = capsys.readouterr().out
    assert code == 0 and "created=" in out and "hierarchy" not in out
    outfile = tmp_path / "out.mlh"
    code = main(args + ["--output", str(outfile)])
    assert code == 0
    saved = load_hierarchy(outfile.read_text())
    assert validate_hierarchy(saved).ok


def test_cli_simulate_writes_trace(tmp_path, capsys):
    trace = tmp_path / "run.trace"
    out = tmp_path / "final.mlh"
    code = main(
        [
            "simulate",
            str(FIXTURES / "robolang.mlh"),
            str(FIXTURES / "robolang.mcmt"),
            "--layers",
            str(FIXTURES / "robolang.layers"),
            "--model",
            "robot_1_run_1",
            "--steps",
            "3",
            "--seed",
            "4",
            "--trace",
            str(trace),
            "--output",
            str(out),
        ]
    )
    assert code == 0
    assert trace.read_text().startswith("# seed=4")
    assert validate_hierarchy(load_hierarchy(out.read_text())).ok


def test_cli_check_chain_exit_codes(capsys):
    code = main(
        [
            "check-chain",
            str(FIXTURES / "pls.mlh"),
            str(FIXTURES / "pls.mcmt"),
            "--rule",
            "TransferPart",
            "--model",
            "hammer_config",
        ]
    )
    capsys.readouterr()
    assert code == 1  # the swapped structural candidate is reported as failing
    code = main(["check-chain", str(FIXTURES / "robolang.mlh"), "--model", "robot_1_run_1"])
    out = capsys.readouterr().out
    assert code == 0 and "refactoring robot_1_run_1" in out


def test_cli_proliferate_to_directory(tmp_path, capsys):
    code = main(
        [
            "proliferate",
            str(FIXTURES / "robolang_fragment.mlh"),
            str(FIXTURES / "robolang.mcmt"),
            "--rule",
            "FireTransition",
            "--model",
            "robot_1_run_1",
            "-o",
            str(tmp_path),
        ]
    )
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "FireTransition_1.mcmt",
        "FireTransition_2.mcmt",
    ]


INSERT_INPUT_MENU = (
    "1) InsertInput 6e17e3cbfbcf\n"
    "2) InsertInput 8a40e97ee145\n"
    "3) InsertInput 4497c626ea11\n"
    "4) InsertInput 9b3f3105af77\n"
    "5) InsertInput 82c536729526\n"
    "6) InsertInput 6c4a9bfdc1a7\n"
    "select (0 = random): "
)


@pytest.mark.parametrize("answers, passes", [("1\n", 2), ("", 1)])
def test_cli_simulate_interactive_reads_piped_stdin(tmp_path, robolang_rules, answers, passes):
    """Each pass prompts on stdout; an answer applies its candidate, and end
    of input aborts the pass, which ends the run with the model as it is."""
    layers = tmp_path / "insert.layers"
    layers.write_text("layer choose-one { InsertInput }\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "mlmkit.cli", "simulate", str(FIXTURES / "robolang.mlh"),
         str(FIXTURES / "robolang.mcmt"), "--layers", str(layers), "--model", "robot_1_run_1",
         "--steps", "2", "--interactive"],
        input=answers,
        capture_output=True,
        text=True,
    )
    system = load_fixture("robolang.mlh")
    if answers:
        config = parse_layers(layers.read_text(encoding="utf-8"))
        system, _ = run(
            system, "robot_1_run_1", robolang_rules, config, steps=1, chooser=ScriptedChoice([0])
        )
    assert proc.returncode == 0
    assert proc.stdout == INSERT_INPUT_MENU * passes + "\naborted\n" + save_hierarchy(system)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mlmkit.cli", "validate", str(FIXTURES / "clock.mlh")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "ok\n"


def _one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_cli_non_utf8_input_is_one_line_exit_two(tmp_path, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("hierarchy application h { model m : root { node Caf\xe9 } }\n".encode("latin-1"))
    robolang = str(FIXTURES / "robolang.mlh")
    rules = str(FIXTURES / "robolang.mcmt")
    for argv in (
        ["validate", str(bad)],
        ["match", robolang, str(bad), "--rule", "Start", "--model", "robot_1_run_1"],
        ["simulate", robolang, rules, "--layers", str(bad), "--model", "robot_1_run_1"],
    ):
        assert main(argv) == 2, argv
        assert "not UTF-8" in _one_error_line(capsys)


def test_cli_unknown_model_is_one_line_exit_two(capsys):
    robolang = str(FIXTURES / "robolang.mlh")
    rules = str(FIXTURES / "robolang.mcmt")
    layers = str(FIXTURES / "robolang.layers")
    with_rule = ["--rule", "Start", "--model", "nope"]
    for argv in (
        ["match", robolang, rules] + with_rule,
        ["proliferate", robolang, rules] + with_rule,
        ["apply", robolang, rules] + with_rule,
        ["simulate", robolang, rules, "--layers", layers, "--model", "nope"],
        ["check-chain", robolang, "--model", "nope"],
        ["check-chain", robolang, rules] + with_rule,
        ["export-dot", robolang, "--model", "nope"],
    ):
        assert main(argv) == 2, argv
        assert _one_error_line(capsys) == f"error: {robolang}: unknown model nope"


@pytest.mark.parametrize(
    "text",
    [
        """
hierarchy application h {
  model a : root { node X : Y@b }
  model b : a { node Y : X@a }
}
""",
        """
hierarchy application h {
  model a : root {
    node X : Y@b
    node Z : W@b
    arrow r : X -> Z : s@b
  }
  model b : a {
    node Y : X@a
    node W : Z@a
    arrow s : Y -> W : r@a
  }
}
""",
    ],
)
def test_cli_validate_reports_typing_cycle(tmp_path, capsys, text):
    cyclic = tmp_path / "cycle.mlh"
    cyclic.write_text(text)
    code = main(["validate", str(cyclic)])
    out = capsys.readouterr().out
    assert code == 1
    assert "[typing] a/X: type Y@b not strictly above in the typing chain" in out.splitlines()


def test_cli_validate_prints_the_whole_typing_cycle_report(tmp_path, capsys):
    cyclic = tmp_path / "cycle.mlh"
    cyclic.write_text(CYCLE_WITH_ARROWS)
    for strict in ([], ["--strict"]):
        assert main(["validate", str(cyclic)] + strict) == 1
        assert capsys.readouterr().out == (
            "[non-dangling] a/e:X->P: source X has no type EClass@root at distance 1\n"
            "[potency] a/X: instance of Y@b at distance -1 outside range 1-1\n"
            "[typing] a/X: type Y@b not strictly above in the typing chain\n"
        )


def test_commands_that_walk_typings_report_a_typing_cycle(tmp_path, capsys):
    cyclic = tmp_path / "cycle.mlh"
    cyclic.write_text(CYCLE_WITH_ARROWS)
    rules = tmp_path / "r.mcmt"
    rules.write_text("rule R { meta { mm1 { X } } from { x : X@mm1 } to { x : X@mm1 } }")
    layers = tmp_path / "r.layers"
    layers.write_text("layer exhaust { R }\n")
    h, r = str(cyclic), str(rules)
    with_rule = ["--rule", "R", "--model", "b"]
    for argv in (
        ["match", h, r] + with_rule,
        ["check-chain", h],
        ["check-chain", h, "--model", "b"],
        ["check-chain", h, r] + with_rule,
        ["proliferate", h, r] + with_rule,
        ["apply", h, r] + with_rule,
        ["simulate", h, r, "--layers", str(layers), "--model", "b"],
    ):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == "[typing] a/X: type Y@b not strictly above in the typing chain\n"


@pytest.mark.parametrize(
    "param, message",
    [
        ("x=abc", "error: --param x=abc: 'abc' is not an integer\n"),
        ("x", "error: --param x: expected NAME=INTEGER\n"),
        ("zz=3", "error: rule StepTime has no parameter zz\n"),
    ],
)
def test_cli_bad_param_is_one_line_and_exit_two(capsys, param, message):
    code = main(
        [
            "match",
            str(FIXTURES / "robolang.mlh"),
            str(FIXTURES / "robolang.mcmt"),
            "--rule",
            "StepTime",
            "--model",
            "robot_1_run_1",
            "--param",
            param,
        ]
    )
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", message)


# a model whose every element is a candidate for a pattern of many elements
SELF_LOOP = """
hierarchy application h {
  model lang : root {
    node T
    arrow e : T -> T
  }
  model run : lang {
    node a : T@lang
    arrow l : a -> a : e@lang
  }
}
"""


def test_cli_pattern_over_the_size_cap_is_one_line_exit_two(tmp_path, capsys):
    chain = [f"x{k} : T @ mm1" for k in range(1, 41)]
    chain += [f"e{k} : e @ mm1 (x{k} -> x{k + 1})" for k in range(1, 40)]
    body = "\n    ".join(chain)
    hierarchy, rules = tmp_path / "loop.mlh", tmp_path / "chain.mcmt"
    hierarchy.write_text(SELF_LOOP)
    rules.write_text(
        f"rule Long {{\n  meta {{ mm1 {{ T$ e$ (T -> T) }} }}\n"
        f"  from {{\n    {body}\n  }}\n  to {{\n    {body}\n  }}\n}}\n"
    )
    code = main(["match", str(hierarchy), str(rules), "--rule", "Long", "--model", "run"])
    assert code == 2
    assert _one_error_line(capsys) == "error: pattern has 79 elements, cap is 64"


@pytest.mark.parametrize(
    "name, text, message",
    [
        (
            "h.mlh",
            "hierarchy application h {\n  model lang : root {\n    node T\n"
            "    arrow e : T -> T mult x..2\n  }\n}\n",
            "error: 4:27: bad multiplicity x..2",
        ),
        (
            "r.mcmt",
            "rule R {\n  meta { mm1 { T$ e$ (T -> T) } }\n"
            "  from { x : T @ mm1  f[1..x] : e @ mm1 (x -> x) }\n  to { x : T @ mm1 }\n}\n",
            "error: 3:25: bad multiplicity 1..x",
        ),
        ("l.layers", "layer once { StepTime(x=abc) }\n", "error: StepTime(x=abc): 'abc' is not an integer"),
        ("l.layers", "layer once { StepTime(x) }\n", "error: StepTime(x): expected NAME=INTEGER"),
        ("l.layers", "layer once { StepTime(x=1, zz=3) }\n", "error: rule StepTime has no parameter zz"),
        (
            "h.mlh",
            "hierarchy application h {\n  model lang : root {\n    node T\n"
            "    arrow e : T -> T mult 5..2\n  }\n}\n",
            "error: 4:27: bad multiplicity 5..2: min 5 exceeds max 2",
        ),
        (
            "h.mlh",
            "hierarchy application h {\n  model lang : root {\n    node T pot 3-1-*\n  }\n}\n",
            "error: 3:16: bad potency 3-1-*: min 3 exceeds max 1",
        ),
        (
            "r.mcmt",
            "rule R {\n  meta { mm1 { T$ e$ (T -> T) } }\n"
            "  from { x : T @ mm1  f[5..2] : e @ mm1 (x -> x) }\n  to { x : T @ mm1 }\n}\n",
            "error: 3:25: bad multiplicity 5..2: min 5 exceeds max 2",
        ),
        (
            "r.mcmt",
            "rule R {\n  meta { mm1 { T$ e$ (T -> T) } }\n"
            "  from { x : T @ mm1 pot 3-1-* }\n  to { x : T @ mm1 }\n}\n",
            "error: 3:26: bad potency 3-1-*: min 3 exceeds max 1",
        ),
        ("l.layers", "layer once { StepTime (x=1) }\n", "error: 1:23: expected ident, found '('"),
        ("l.layers", "layer once { Start; 42 !! }\n", "error: 1:24: unexpected character '!'"),
    ],
    ids=[
        "mlh-multiplicity",
        "mcmt-multiplicity",
        "layers-value",
        "layers-pair",
        "layers-name",
        "mlh-inverted-multiplicity",
        "mlh-inverted-potency",
        "mcmt-inverted-multiplicity",
        "mcmt-inverted-potency",
        "layers-detached-parameters",
        "layers-junk",
    ],
)
def test_cli_bad_value_is_one_line_and_exit_two(tmp_path, capsys, name, text, message):
    """Each value kind is read in one place, so a bad one is a positioned
    one-line error in every format."""
    path = tmp_path / name
    path.write_text(text)
    files = {"h.mlh": str(FIXTURES / "robolang.mlh"), "r.mcmt": str(FIXTURES / "robolang.mcmt")}
    files[name] = str(path)
    if name == "l.layers":
        argv = ["simulate", files["h.mlh"], files["r.mcmt"], "--layers", str(path)]
    else:
        argv = ["match", files["h.mlh"], files["r.mcmt"], "--rule", "R"]
    assert main(argv + ["--model", "robot_1_run_1"]) == 2
    assert _one_error_line(capsys) == message
