"""The benchmark's workloads: inputs made from a seed, the operations that
are timed, and the checks of their outputs.

Building a workload is its set-up: it reads and parses the workload's
fixtures.  `round(r)` then gives round r, a list of operations made from the
seed and r alone.  A run repeats whole rounds, so every run attempts the same
operations in the same proportions whatever its length.

The program is called through its module attributes (`simulate.step`, not a
name imported from it), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from mlmkit import diagnose, hierarchy, ltl, matching, mlhio, rewrite, rules, simulate

import checks
import oracles

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _read(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def _rule_table(name: str) -> dict:
    return {r.name: r for r in rules.parse_rules(_read(name))}


@dataclass
class Round:
    """Operations of one round.  `observe` turns an operation's output into
    the record its check needs, right after the operation and outside its
    timing; `verdicts` checks the records of the whole round.  The indices in
    `known_faults` are operations that fail on a fault of the program."""

    ops: list
    verdicts: object
    observe: object = lambda out: out
    known_faults: frozenset = field(default_factory=frozenset)


# ---------------------------------------------------------------------------
# robolang_sim
# ---------------------------------------------------------------------------

ROBOT = "robot_1_run_1"
PASSES = 10


def robolang_type(system, model_name: str, node):
    """The `robolang` type a node reaches through its own typings, or None:
    a walk over the typing data, apart from the library's type closure."""
    for _ in range(16):
        typing = system.find_model(model_name).typings.get(node)
        if typing is None or typing.own is None:
            return None
        model_name, node = typing.own.model, typing.own.elem
        if model_name == "robolang":
            return node
    return None


class _Simulation:
    def __init__(self, workload, chooser_seed: int):
        self.workload = workload
        base = workload.base
        # a cache-free copy: every simulation starts cold, as criterion 7 does
        # with its fresh load per seed, while the parse stays in the set-up
        self.system = hierarchy.System(base.application, base.supplementary, base.data)
        self.chooser = simulate.SeededChoice(chooser_seed)
        self.trace = simulate.Trace(chooser_seed)

    def step(self, k: int):
        wl = self.workload
        self.system, _ = simulate.step(
            self.system, ROBOT, wl.rules, wl.config, self.chooser, self.trace, k
        )
        return self.system


class RobolangSim:
    """Seeded simulation of `robolang.mlh` on `robot_1_run_1` with
    `robolang.mcmt` and `robolang.layers`, post-filter on: the traffic of
    acceptance criterion 7.  One operation is one `simulate.step` pass.

    The simulations come from a pool of `POOL` chooser seeds drawn from a
    fixed generator seed; the workload seed orders the pool afresh in every
    cycle of `POOL // SIMS` rounds, and a round is the next `SIMS`
    simulations of `PASSES` passes.  A pass's cost depends heavily on the
    chooser seed, so a fixed pool keeps the share of heavy passes the same
    in every run."""

    POOL = 20
    SIMS = 5

    def __init__(self, seed: int):
        self.seed = seed
        self.base = mlhio.load_hierarchy(_read("robolang.mlh"))
        self.rules = _rule_table("robolang.mcmt")
        self.config = simulate.parse_layers(_read("robolang.layers"))
        rng = random.Random("robolang_sim/pool")
        self.pool = [rng.randrange(2**32) for _ in range(self.POOL)]

    def chooser_seeds(self, r: int) -> list:
        cycle, k = divmod(r, self.POOL // self.SIMS)
        order = list(self.pool)
        random.Random(f"robolang_sim/{self.seed}/{cycle}").shuffle(order)
        return order[k * self.SIMS : (k + 1) * self.SIMS]

    def round(self, r: int) -> Round:
        sims = [_Simulation(self, s) for s in self.chooser_seeds(r)]
        ops = [partial(sim.step, k) for sim in sims for k in range(1, PASSES + 1)]

        def verdicts(records):
            out = [checks.sim_pass_ok(*rec) for rec in records]
            for i, sim in enumerate(sims):
                fired = [e.rule for e in sim.trace.entries]
                if not checks.sim_trace_ok(fired):
                    out[i * PASSES : (i + 1) * PASSES] = [False] * PASSES
            return out

        return Round(ops, verdicts, observe=self.observe)

    def observe(self, system):
        """Active tasks and leftover `DeleteTask` applications after a pass,
        read from a copy with an empty cache, so the check leaves nothing
        behind that the next pass could reuse."""
        fresh = hierarchy.System(system.application, system.supplementary, system.data)
        model = fresh.find_model(ROBOT)
        tasks = sum(1 for n in model.graph.nodes if robolang_type(fresh, ROBOT, n) == "Task")
        leftovers = rewrite.list_applications(fresh, [self.rules["DeleteTask"]], ROBOT)
        return tasks, len(leftovers)


# ---------------------------------------------------------------------------
# ltl_rewrite
# ---------------------------------------------------------------------------

FORMULA_OPS = ("const", "atom", "not", "and", "or", "impl", "X", "U", "R", "F", "G")
TEMPORAL = ("F", "G", "U", "R")


def random_formula(rng: random.Random, depth: int):
    """The criterion 8 generator with atoms (a, b, c) and release added:
    an operator of depth `depth` at most, constants and atoms at the leaves."""
    op = rng.choice(FORMULA_OPS) if depth > 0 else "leaf"
    if op in ("const", "atom", "leaf"):
        if rng.random() < 0.5:
            return ("const", rng.random() < 0.5)
        return ("atom", rng.choice("abc"))
    if op in ("not", "X", "F", "G"):
        return (op, random_formula(rng, depth - 1))
    return (op, random_formula(rng, depth - 1), random_formula(rng, depth - 1))


def formula_pool(per_depth: int) -> list:
    """`per_depth` raw draws of the generator for each depth 1 to 4, from a
    fixed generator seed.  Nothing is redrawn: the pool keeps the generator's
    mix, the shapes the rules path gets wrong included."""
    rng = random.Random("ltl_rewrite/pool")
    return [random_formula(rng, depth) for depth in (1, 2, 3, 4) for _ in range(per_depth)]


def _folds_to_true(t) -> bool:
    return oracles.term_simplify(oracles.term_strip_next(t)) == ("const", True)


def fault_shape(t, inside: bool = False, direct: bool = False, under_f: bool = False) -> bool:
    """Whether the term has one of the two shapes the rules path gets wrong
    (see CHANGES.md): a temporal operator reached from an enclosing temporal
    operator through at least one other operator (the inner one is also
    unrolled inside the residual next-state copy), or, inside an `F`, an `X`
    whose operand folds to true (the result can keep `true | true`)."""
    op = t[0]
    if op in ("const", "atom"):
        return False
    if op == "X" and under_f and _folds_to_true(t[1]):
        return True
    if op in TEMPORAL:
        if inside and not direct:
            return True
        return any(fault_shape(s, True, True, under_f or op == "F") for s in t[1:])
    return any(fault_shape(s, inside, False, under_f) for s in t[1:])


def library_step(t):
    """The library path: unroll, then fold and strip the next operators."""
    system = ltl.formula_system(t)
    return ltl.to_term(ltl.simplify_and_step(ltl.unroll(system, "property"), "property"), "property")


class LtlRewrite:
    """`ltl.rewrite_with_rules` with the 100 rules of `ltl.mcmt` on random
    formulas.  One operation is one formula: build its system, rewrite it by
    the rules, read the term back.  A round is the whole pool of
    `formula_pool(PER_DEPTH)` in an order drawn from the seed and the round.

    The pool itself does not depend on the seed: which formulas fail on a
    fault of the program then does not either, so `failed` is the same share
    of `attempted` in every run.  Formulas of a fault shape are known faults:
    they count as failed when wrong, without making the run incorrect."""

    PER_DEPTH = 25

    def __init__(self, seed: int):
        self.seed = seed
        self.rules = _rule_table("ltl.mcmt")
        self.pool = formula_pool(self.PER_DEPTH)
        self._expected: dict = {}

    def formulas(self, r: int) -> list:
        out = list(self.pool)
        random.Random(f"ltl_rewrite/{self.seed}/{r}").shuffle(out)
        return out

    def rewrite(self, t):
        system = ltl.formula_system(t)
        return ltl.to_term(ltl.rewrite_with_rules(system, "property", self.rules), "property")

    def expected(self, t) -> tuple:
        """The oracle's term and the library path's, computed once per formula."""
        if t not in self._expected:
            self._expected[t] = (oracles.term_step(t), library_step(t))
        return self._expected[t]

    def round(self, r: int) -> Round:
        formulas = self.formulas(r)

        def verdicts(results):
            return [checks.formula_ok(res, *self.expected(t)) for t, res in zip(formulas, results)]

        ops = [partial(self.rewrite, t) for t in formulas]
        known = frozenset(k for k, t in enumerate(formulas) if fault_shape(t))
        return Round(ops, verdicts, known_faults=known)


# ---------------------------------------------------------------------------
# model_queries
# ---------------------------------------------------------------------------

QUERIES = (
    ("robolang.mlh", "robolang.mcmt", "robot_1_run_1"),
    ("robolang_fragment.mlh", "robolang.mcmt", "robot_1_run_1"),
    ("pls.mlh", "pls.mcmt", "hammer_config"),
    ("pls.mlh", "pls.mcmt", "stool_config"),
    ("agents.mlh", "agents.mcmt", "duo_run"),
)
REPORT = ("pls.mlh", "pls.mcmt", "hammer_config", "TransferPart")


def golden_fire_transition_count() -> int:
    text = _read("golden/fire_transition_full_count.txt")
    return int(text.splitlines()[0].split("=")[1])


class ModelQueries:
    """Read-only queries shaped like the command line: each loads its fixture
    afresh, validates it and, for every parameter-free rule, runs
    `match_for_model`, `bind_lhs` on each binding and `proliferate`; the
    report query runs `diagnose.binding_report` instead.  One operation is
    one query; a round is every query `REPEATS` times, in seeded order."""

    REPEATS = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.texts = {fx: _read(fx) for fx, _, _ in QUERIES}
        self.rules = {rf: _rule_table(rf) for rf in sorted({rf for _, rf, _ in QUERIES})}
        self.golden = golden_fire_transition_count()
        self._expected: dict = {}

    def order(self, r: int) -> list:
        out = [q for q in QUERIES + (REPORT,) for _ in range(self.REPEATS)]
        random.Random(f"model_queries/{self.seed}/{r}").shuffle(out)
        return out

    def query(self, q) -> dict:
        fixture, rule_file, model = q[:3]
        system = mlhio.load_hierarchy(self.texts[fixture])
        answer = {"valid": hierarchy.validate_hierarchy(system).ok}
        if q == REPORT:
            rule = self.rules[rule_file][q[3]]
            answer["report"] = diagnose.binding_report(system, rule, model)
            return answer
        for rule in self.rules[rule_file].values():
            if rule.params:
                continue
            _, bindings = matching.match_for_model(system, rule, model)
            lhs = sum(len(matching.bind_lhs(system, rule, b, model)) for b in bindings)
            answer[rule.name] = (len(bindings), lhs, len(rewrite.proliferate(system, rule, model)))
        return answer

    def expected(self, q) -> dict:
        """Reference counts from the brute-force oracles on a fresh load: a
        binding count each, the left-hand-side matches found by unpruned
        enumeration, and one proliferated rule per binding."""
        if q not in self._expected:
            fixture, rule_file, model = q
            system = mlhio.load_hierarchy(self.texts[fixture])
            stack = matching.build_stack(system, model)
            out = {"valid": True}
            for rule in self.rules[rule_file].values():
                if rule.params:
                    continue
                n = len(oracles.brute_force_bindings(system, rule, stack))
                _, bindings = matching.match_for_model(system, rule, model)
                lhs = sum(len(oracles.brute_force_lhs(system, rule, b, model)) for b in bindings)
                out[rule.name] = (n, lhs, n)
            self._expected[q] = out
        return self._expected[q]

    def verdict(self, q, answer) -> bool:
        if q == REPORT:
            return answer["valid"] and checks.transfer_report_ok(answer["report"])
        ok = answer == self.expected(q)
        if q[0] == "robolang.mlh":
            ok = ok and answer["FireTransition"][0] == self.golden
        return ok

    def round(self, r: int) -> Round:
        order = self.order(r)

        def verdicts(answers):
            return [self.verdict(q, a) for q, a in zip(order, answers)]

        return Round([partial(self.query, q) for q in order], verdicts)


WORKLOADS = {
    "robolang_sim": RobolangSim,
    "ltl_rewrite": LtlRewrite,
    "model_queries": ModelQueries,
}
