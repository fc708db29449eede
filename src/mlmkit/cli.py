"""The mlmkit command line: validate, match, proliferate, apply, simulate,
check-chain and export-dot over hierarchy (.mlh) and rule (.mcmt) files.

Exit codes: 0 success, 1 validation or match failure, 2 usage errors.
All outputs are byte-deterministic for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .diagnose import binding_report, refactoring_report
from .graph import SizeCapExceeded
from .hierarchy import ROOT_MODEL, ValidationReport, check_typing_structure, validate_hierarchy
from .matching import bind_lhs, match_for_model
from .mlhio import LoadError, export_dot, load_hierarchy, save_hierarchy
from .rewrite import (
    NotApplicable,
    apply_rule,
    proliferate,
    render_two_level_rule,
)
from .rules import RuleError, parse_param, parse_rules, substitute_parameters
from .simulate import InteractiveChoice, SeededChoice, parse_layers, run


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise LoadError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def _load_system(path: str, model: str | None = None):
    """Load a hierarchy file; a model named on the command line must be in it."""
    system = load_hierarchy(_read(path))
    if model is not None and not any(model in h for h in system.hierarchies()):
        raise LoadError(f"{path}: unknown model {model}")
    return system


class _IllTyped(Exception):
    """Typing violations that leave nothing for a matching command to walk."""


def _load_typed(path: str, model: str | None = None):
    """Load a hierarchy for a command that walks its typings: a typing
    violation, such as a typing cycle, ends the command the way validate
    reports it."""
    system = _load_system(path, model)
    found = check_typing_structure(system)
    if found:
        raise _IllTyped(ValidationReport(sorted(set(found))).render())
    return system


def _load_rules(path: str):
    return {r.name: r for r in parse_rules(_read(path))}


def _pick_rule(rules: dict, name: str, params: list):
    if name not in rules:
        raise RuleError(f"unknown rule {name}")
    rule = rules[name]
    bound = dict(parse_param(p, f"--param {p}") for p in params or [])
    if rule.params or bound:
        rule = substitute_parameters(rule, bound)
    return rule


def cmd_validate(args) -> int:
    system = _load_system(args.hierarchy)
    report = validate_hierarchy(system, strict_multiplicity=args.strict)
    sys.stdout.write(report.render())
    return 0 if report.ok else 1


def cmd_match(args) -> int:
    system = _load_typed(args.hierarchy, args.model)
    rule = _pick_rule(_load_rules(args.rules), args.rule, args.param)
    found, bindings = match_for_model(system, rule, args.model)
    # every match before any output, so that an error leaves stdout empty
    matches = [bind_lhs(system, rule, b, args.model) for b in bindings]
    for k, (b, lhs) in enumerate(zip(bindings, matches), start=1):
        sys.stdout.write(f"binding {k} [{b.digest()}]\n")
        for line in b.render().splitlines():
            sys.stdout.write("  " + line + "\n")
        for m in lhs:
            pairs = ", ".join(f"{a} -> {bb}" for a, bb in ((str(x), str(y)) for x, y in m.mu))
            sys.stdout.write(f"  lhs [{m.digest()}]: {pairs}\n")
    sys.stdout.write(f"{len(bindings)} binding(s)\n")
    return 0 if found else 1


def cmd_proliferate(args) -> int:
    system = _load_typed(args.hierarchy, args.model)
    rule = _pick_rule(_load_rules(args.rules), args.rule, args.param)
    out = proliferate(system, rule, args.model)
    if args.outdir:
        outdir = Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        for tlr in out:
            (outdir / f"{tlr.name.replace('#', '_')}.mcmt").write_text(
                render_two_level_rule(tlr), encoding="utf-8"
            )
    else:
        for tlr in out:
            sys.stdout.write(render_two_level_rule(tlr))
            sys.stdout.write("\n")
    sys.stdout.write(f"{len(out)} rule(s)\n")
    return 0 if out else 1


def cmd_apply(args) -> int:
    system = _load_typed(args.hierarchy, args.model)
    rule = _pick_rule(_load_rules(args.rules), args.rule, args.param)
    found, bindings = match_for_model(system, rule, args.model)
    matches = [
        (b, m) for b in bindings for m in bind_lhs(system, rule, b, args.model)
    ]
    if not matches:
        sys.stdout.write("no matches\n")
        return 1
    if not 1 <= args.binding <= len(matches):
        sys.stdout.write(f"binding index out of range 1..{len(matches)}\n")
        return 1
    b, m = matches[args.binding - 1]
    try:
        result = apply_rule(system, rule, args.model, m)
    except NotApplicable as e:
        sys.stdout.write(f"not applicable: {e}\n")
        return 1
    sys.stdout.write(result.summary() + "\n")
    if not args.dry_run:
        text = save_hierarchy(result.system)
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    return 0


def cmd_simulate(args) -> int:
    system = _load_typed(args.hierarchy, args.model)
    rules = _load_rules(args.rules)
    config = parse_layers(_read(args.layers))
    chooser = None
    if args.interactive:
        chooser = InteractiveChoice(sys.stdin, sys.stdout, SeededChoice(args.seed))
    system, trace = run(
        system, args.model, rules, config, steps=args.steps, seed=args.seed, chooser=chooser
    )
    if args.trace:
        Path(args.trace).write_text(trace.render(), encoding="utf-8")
    text = save_hierarchy(system)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_check_chain(args) -> int:
    system = _load_typed(args.hierarchy, args.model)
    if args.rule:
        if not args.rules or not args.model:
            sys.stderr.write("check-chain --rule needs <rules> and --model\n")
            return 2
    out = []
    if args.model and not args.rule:
        out.append(refactoring_report(system, args.model))
    elif not args.rule:
        for h in system.user_hierarchies():
            for name in h.model_names():
                if name != ROOT_MODEL:
                    out.append(refactoring_report(system, name))
    if args.rule:
        rule = _pick_rule(_load_rules(args.rules), args.rule, args.param)
        out.append(refactoring_report(system, args.model))
        out.append(binding_report(system, rule, args.model))
    text = "\n".join(out)
    sys.stdout.write(text)
    return 0 if "FAIL" not in text else 1


def cmd_export_dot(args) -> int:
    system = _load_system(args.hierarchy, args.model)
    text = export_dot(system, args.model)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="mlmkit")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run every condition check on a hierarchy file")
    p.add_argument("hierarchy")
    p.add_argument("--strict", action="store_true", help="also enforce multiplicity lower bounds")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("match", help="list bindings of a rule around a model")
    p.add_argument("hierarchy")
    p.add_argument("rules")
    p.add_argument("--rule", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--param", action="append", help="name=value", default=[])
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("proliferate", help="emit one two-level rule per binding")
    p.add_argument("hierarchy")
    p.add_argument("rules")
    p.add_argument("--rule", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--param", action="append", default=[])
    p.add_argument("-o", "--outdir")
    p.set_defaults(func=cmd_proliferate)

    p = sub.add_parser("apply", help="apply one match of a rule")
    p.add_argument("hierarchy")
    p.add_argument("rules")
    p.add_argument("--rule", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--binding", type=int, default=1, help="1-based match index")
    p.add_argument("--param", action="append", default=[])
    p.add_argument("--dry-run", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("simulate", help="run the layered simulation driver")
    p.add_argument("hierarchy")
    p.add_argument("rules")
    p.add_argument("--layers", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--interactive", action="store_true")
    p.add_argument("--trace")
    p.add_argument("--output")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check-chain", help="level-pair square diagnostics")
    p.add_argument("hierarchy")
    p.add_argument("rules", nargs="?")
    p.add_argument("--rule")
    p.add_argument("--model")
    p.add_argument("--param", action="append", default=[])
    p.set_defaults(func=cmd_check_chain)

    p = sub.add_parser("export-dot", help="deterministic DOT rendering")
    p.add_argument("hierarchy")
    p.add_argument("--model")
    p.add_argument("--output")
    p.set_defaults(func=cmd_export_dot)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _IllTyped as e:
        sys.stdout.write(str(e))
        return 1
    except (LoadError, RuleError, SizeCapExceeded) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except FileNotFoundError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
