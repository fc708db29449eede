#!/usr/bin/env python3
"""Write the command-line output corpus of the fixtures into one directory,
so that two versions of mlmkit can be compared with `diff -r`.

    PYTHONPATH=src python scripts/golden_outputs.py OUTDIR

Each command runs in this process through `mlmkit.cli.main`, so the
mlmkit found on the import path is the one measured.  Every file holds the
command line, its standard output, its standard error and its exit code:

- `validate`, plain and `--strict`, `export-dot` and `check-chain` for every
  hierarchy, and `export-dot` and `check-chain --model` for every model;
- `match`, `proliferate`, `check-chain --rule` and `apply --binding 1..4` for
  every rule of every pairing of hierarchy and rule file below, around every
  model of the application hierarchy (`match` alone for `ltl.mcmt`; a rule
  parameter is bound to 1);
- `simulate` on robolang and agents, seeds 0-3, 10 steps, with the `--trace`
  file beside it;
- the output of `run_robolang_sim.py` and `check_pls_chains.py`;
- `ltl-rewrite_*.txt`: the term `ltl.rewrite_with_rules` gives with the
  rules of `ltl.mcmt`, one line per formula, for criterion 8's 100 formulas
  (`Random(42)`) and for 300 seeded draws of the same generator with atoms
  and release added.
"""

import contextlib
import io
import random
import subprocess
import sys
from pathlib import Path

from mlmkit.cli import main as cli_main
from mlmkit.hierarchy import ROOT_MODEL
from mlmkit.ltl import formula_system, render_term, rewrite_with_rules, to_term
from mlmkit.mlhio import load_hierarchy
from mlmkit.rules import parse_rules

SCRIPTS = Path(__file__).resolve().parent
FIXTURES = SCRIPTS.parent / "fixtures"

HIERARCHIES = [
    "robolang.mlh",
    "robolang_fragment.mlh",
    "robolang_ltl.mlh",
    "pls.mlh",
    "clock.mlh",
    "agents.mlh",
]
# (hierarchy, rule file, commands run for each rule)
FULL = ("match", "proliferate", "check-chain", "apply")
PAIRINGS = [
    ("robolang.mlh", "robolang.mcmt", FULL),
    ("robolang_fragment.mlh", "robolang.mcmt", FULL),
    ("robolang_ltl.mlh", "robolang.mcmt", FULL),
    ("robolang_ltl.mlh", "ltl.mcmt", ("match",)),
    ("pls.mlh", "pls.mcmt", FULL),
    ("pls.mlh", "pls_prefix.mcmt", FULL),
    ("agents.mlh", "agents.mcmt", FULL),
]
SIMULATIONS = [
    ("robolang.mlh", "robolang.mcmt", "robolang.layers", "robot_1_run_1"),
    ("agents.mlh", "agents.mcmt", "agents.layers", "duo_run"),
]


CRITERION_8_OPS = ["const", "not", "and", "or", "impl", "X", "U", "F", "G"]
WITH_ATOMS_OPS = CRITERION_8_OPS + ["atom", "R"]


def _random_term(rng, depth, ops):
    """Criterion 8's generator (tests/test_acceptance.py) over `ops`; an
    "atom" draw gives one of a, b, c."""
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


def _rewritten_terms(outdir: Path, name: str, rng, count: int, ops) -> None:
    rules = {r.name: r for r in parse_rules((FIXTURES / "ltl.mcmt").read_text(encoding="utf-8"))}
    lines = []
    for _ in range(count):
        t = _random_term(rng, rng.randint(1, 4), ops)
        try:
            system = rewrite_with_rules(formula_system(t), "property", rules)
            out = render_term(to_term(system, "property"))
        except RuntimeError as e:
            out = f"error: {e}"
        lines.append(f"{render_term(t)} => {out}\n")
    (outdir / f"ltl-rewrite_{name}.txt").write_text("".join(lines), encoding="utf-8")


def _run(outdir: Path, name: str, argv: list) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
    # paths shown by file name, so that corpora written elsewhere compare equal
    shown = " ".join(Path(a).name if a.startswith("/") else a for a in argv)
    text = f"$ mlmkit {shown}\n{out.getvalue()}--- stderr\n{err.getvalue()}--- exit {code}\n"
    (outdir / f"{name}.txt").write_text(text, encoding="utf-8")


def _models(hierarchy: str) -> list:
    system = load_hierarchy((FIXTURES / hierarchy).read_text(encoding="utf-8"))
    return [n for n in system.application.model_names() if n != ROOT_MODEL]


def write_corpus(outdir: Path) -> None:
    outdir = outdir.resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    f = lambda name: str(FIXTURES / name)
    run = lambda name, argv: _run(outdir, name, argv)

    for hier in HIERARCHIES:
        stem = Path(hier).stem
        run(f"validate_{stem}", ["validate", f(hier)])
        run(f"validate_{stem}_strict", ["validate", f(hier), "--strict"])
        run(f"export-dot_{stem}", ["export-dot", f(hier)])
        run(f"check-chain_{stem}", ["check-chain", f(hier)])
        for model in _models(hier):
            run(f"export-dot_{stem}_{model}", ["export-dot", f(hier), "--model", model])
            run(f"check-chain_{stem}_{model}", ["check-chain", f(hier), "--model", model])

    for hier, rules_file, commands in PAIRINGS:
        rules = parse_rules((FIXTURES / rules_file).read_text(encoding="utf-8"))
        for model in _models(hier):
            for rule in rules:
                base = f"{Path(hier).stem}_{Path(rules_file).stem}_{model}_{rule.name}"
                tail = ["--rule", rule.name, "--model", model]
                for p in rule.params:
                    tail += ["--param", f"{p}=1"]
                if "match" in commands:
                    run(f"match_{base}", ["match", f(hier), f(rules_file)] + tail)
                if "proliferate" in commands:
                    run(f"proliferate_{base}", ["proliferate", f(hier), f(rules_file)] + tail)
                if "check-chain" in commands:
                    run(f"check-chain-rule_{base}", ["check-chain", f(hier), f(rules_file)] + tail)
                if "apply" in commands:
                    for k in range(1, 5):
                        argv = ["apply", f(hier), f(rules_file), "--binding", str(k)] + tail
                        run(f"apply{k}_{base}", argv)

    for hier, rules_file, layers, model in SIMULATIONS:
        for seed in range(4):
            name = f"simulate_{Path(hier).stem}_seed{seed}"
            trace = outdir / f"{name}.trace"
            argv = ["simulate", f(hier), f(rules_file), "--layers", f(layers), "--model", model]
            run(name, argv + ["--steps", "10", "--seed", str(seed), "--trace", str(trace)])

    _rewritten_terms(outdir, "criterion8", random.Random(42), 100, CRITERION_8_OPS)
    _rewritten_terms(outdir, "atoms", random.Random("ltl-rewrite/atoms"), 300, WITH_ATOMS_OPS)

    for script in ("run_robolang_sim.py", "check_pls_chains.py"):
        done = subprocess.run(
            [sys.executable, str(SCRIPTS / script)], capture_output=True, text=True, check=False
        )
        text = f"{done.stdout}--- stderr\n{done.stderr}--- exit {done.returncode}\n"
        (outdir / f"script_{Path(script).stem}.txt").write_text(text, encoding="utf-8")


def main():
    if len(sys.argv) != 2:
        sys.stderr.write("usage: golden_outputs.py OUTDIR\n")
        sys.exit(2)
    outdir = Path(sys.argv[1])
    write_corpus(outdir)
    print(f"{sum(1 for _ in outdir.iterdir())} files in {outdir}")


if __name__ == "__main__":
    main()
