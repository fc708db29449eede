import dataclasses
from pathlib import Path

import pytest

from mlmkit.hierarchy import ElementTyping
from mlmkit.mlhio import load_hierarchy
from mlmkit.rules import parse_rules

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# a typing cycle between two models, with an arrow pair typed across it
CYCLE_WITH_ARROWS = """
hierarchy application h {
  model a : root {
    node X : Y@b
    node P
    arrow e : X -> P
  }
  model b : a {
    node Y : X@a
    node Q : P@a
    arrow f : Y -> Q : e@a
  }
}
"""


def load_fixture(name: str):
    return load_hierarchy((FIXTURES / name).read_text(encoding="utf-8"))


def edited(system, name: str, **fields):
    """The system with one model rebuilt with some fields changed."""
    return system.replace_model(dataclasses.replace(system.find_model(name), **fields))


def retyped(model, changes: dict) -> dict:
    """The model's typings with some slots changed: changes maps an element
    to its changed slots, such as {"own": ref}."""
    out = dict(model.typings)
    for key, slots in changes.items():
        out[key] = dataclasses.replace(out.get(key, ElementTyping()), **slots)
    return out


def load_rule_file(name: str):
    return {r.name: r for r in parse_rules((FIXTURES / name).read_text(encoding="utf-8"))}


@pytest.fixture()
def robolang_system():
    return load_fixture("robolang.mlh")


@pytest.fixture()
def fragment_system():
    return load_fixture("robolang_fragment.mlh")


@pytest.fixture()
def pls_system():
    return load_fixture("pls.mlh")


@pytest.fixture()
def clock_system():
    return load_fixture("clock.mlh")


@pytest.fixture()
def combined_system():
    return load_fixture("robolang_ltl.mlh")


@pytest.fixture(scope="session")
def robolang_rules():
    return load_rule_file("robolang.mcmt")


@pytest.fixture(scope="session")
def pls_rules():
    return load_rule_file("pls.mcmt")


@pytest.fixture(scope="session")
def ltl_rules():
    return load_rule_file("ltl.mcmt")
