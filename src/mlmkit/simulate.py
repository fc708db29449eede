"""Layered rule coordination: ordered priority layers with per-layer modes,
seeded or scripted or interactive choice, and replayable traces.

One step runs every layer once, in order: an ``exhaust`` layer applies the
first applicable candidate in canonical order until none is left, a
``choose-one`` layer applies exactly one candidate picked by the choice
source, a ``once`` layer applies its first candidate a single time.  A pass
that applies nothing is a fixpoint.  A candidate that apply_rule rejects,
by its application conditions before the build or by the post-filter after
it, falls through to the next canonical candidate; ``choose-one`` and
``once`` layers record it in the trace as ``!rejected``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Optional

from .hierarchy import System
from .matching import bind_lhs, meta_bindings
from .mlhio import save_hierarchy
from .rewrite import NotApplicable, apply_rule
from .rules import Cursor, McmtRule, RuleError, Token, parse_param

DEFAULT_STEP_BUDGET = 10_000

MODES = ("exhaust", "choose-one", "once")


class BudgetExceeded(Exception):
    """An exhaust layer did not terminate within the step budget."""


@dataclass(frozen=True)
class Layer:
    mode: str
    entries: tuple  # (rule name, params tuple of (name, value))


@dataclass(frozen=True)
class LayerConfig:
    layers: tuple

    def resolve(self, rules: dict) -> list[list[tuple[str, McmtRule]]]:
        """Per layer, the rule objects in listing order with parameters
        substituted; unknown rules and unbound or undeclared parameters fail
        here."""
        out = []
        for layer in self.layers:
            entry_rules = []
            for name, params in layer.entries:
                if name not in rules:
                    raise RuleError(f"unknown rule {name} in layer config")
                rule = rules[name]
                if rule.params or params:
                    rule = rule.substituted(params)
                entry_rules.append((name, rule))
            out.append(entry_rules)
        return out


def parse_layers(text: str) -> LayerConfig:
    """`layer <mode> { Rule Rule(x=1) ... }` statements in priority order,
    read by the rule format's cursor: a parameter list touches its rule name,
    and each parameter is a NAME=INTEGER pair."""
    cur = Cursor(text)
    layers = []
    while cur.peek().kind != "eof":
        start = cur.expect("layer")
        mode = _mode(cur)
        cur.expect("{")
        entries = []
        while cur.peek().text != "}":
            if cur.peek().text == ";":
                cur.next()
                continue
            name = cur.expect_kind("ident")
            glued = cur.peek().text == "(" and _touches(name, cur.peek())
            entries.append((name.text, _params(cur, name) if glued else ()))
        cur.expect("}")
        if not entries:
            raise RuleError("empty layer", start.line, start.col)
        layers.append(Layer(mode, tuple(entries)))
    if not layers:
        raise RuleError("no layers defined")
    return LayerConfig(tuple(layers))


def _touches(a: Token, b: Token) -> bool:
    """b starts right where a ends."""
    return a.line == b.line and b.col == a.col + len(a.text)


def _mode(cur: Cursor) -> str:
    """A layer mode; `choose-one` is read as the three tokens it lexes to."""
    first = last = cur.expect_kind("ident")
    mode = first.text
    while cur.peek().text == "-" and _touches(last, cur.peek()):
        dash = cur.next()
        if not _touches(dash, cur.peek()):
            break
        last = cur.next()
        mode += dash.text + last.text
    if mode not in MODES:
        raise RuleError(
            f"expected a layer mode ({', '.join(MODES)}), found {mode!r}", first.line, first.col
        )
    return mode


def _params(cur: Cursor, name: Token) -> tuple:
    """The (NAME, INTEGER) pairs of a parenthesised, comma-separated list,
    each read by parse_param from its source text."""
    prev = cur.expect("(")
    texts = [""]
    while cur.peek().text not in (")", ""):
        t = cur.next()
        gap = " " * (t.col - prev.col - len(prev.text)) if t.line == prev.line else " "
        if t.text == ",":
            texts.append("")
        else:
            texts[-1] += gap + t.text
        prev = t
    cur.expect(")")
    label = f"{name.text}({','.join(texts)})"
    return tuple(parse_param(p, label) for p in texts if p.strip())


def render_layers(config: LayerConfig) -> str:
    lines = []
    for layer in config.layers:
        names = []
        for name, params in layer.entries:
            if params:
                names.append(name + "(" + ",".join(f"{k}={v}" for k, v in params) + ")")
            else:
                names.append(name)
        lines.append(f"layer {layer.mode} {{ {' '.join(names)} }}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceEntry:
    step: int
    layer: int
    rule: str
    digest: str
    snapshot: str

    def line(self) -> str:
        return f"{self.step}\t{self.layer}\t{self.rule}\t{self.digest}\t{self.snapshot}"


@dataclass
class Trace:
    seed: Optional[int]
    entries: list = field(default_factory=list)

    def render(self) -> str:
        head = f"# seed={self.seed}\n" if self.seed is not None else ""
        return head + "".join(e.line() + "\n" for e in self.entries)


def snapshot_hash(system: System) -> str:
    return hashlib.sha256(save_hierarchy(system).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Choice sources
# ---------------------------------------------------------------------------


class SeededChoice:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def pick(self, candidates: list) -> int:
        return self.rng.randrange(len(candidates))


class ScriptedChoice:
    """Fixed 1-based selections; 0 delegates to a seeded fallback."""

    def __init__(self, picks: list, fallback: Optional[SeededChoice] = None):
        self.picks = list(picks)
        self.fallback = fallback or SeededChoice(0)

    def pick(self, candidates: list) -> int:
        if not self.picks:
            return self.fallback.pick(candidates)
        sel = self.picks.pop(0)
        if sel == 0:
            return self.fallback.pick(candidates)
        if not 1 <= sel <= len(candidates):
            raise ValueError(f"scripted choice {sel} out of range 1..{len(candidates)}")
        return sel - 1


class InteractiveChoice:
    """Prompts on the given streams; re-prompts on bad input, 0 delegates to
    the seeded fallback, end of input aborts the pass cleanly."""

    def __init__(self, infile, outfile, fallback: Optional[SeededChoice] = None):
        self.infile = infile
        self.outfile = outfile
        self.fallback = fallback or SeededChoice(0)

    def pick(self, candidates: list) -> Optional[int]:
        if len(candidates) == 1:
            self.outfile.write(f"only candidate: {candidates[0][0]} {candidates[0][2]}\n")
            return 0
        for k, (rule, _, digest) in enumerate(candidates, start=1):
            self.outfile.write(f"{k}) {rule} {digest}\n")
        while True:
            self.outfile.write("select (0 = random): ")
            self.outfile.flush()
            line = self.infile.readline()
            if line == "":
                self.outfile.write("\naborted\n")
                return None
            line = line.strip()
            if not line.isdigit():
                self.outfile.write("enter a number from the list\n")
                continue
            sel = int(line)
            if sel == 0:
                return self.fallback.pick(candidates)
            if 1 <= sel <= len(candidates):
                return sel - 1
            self.outfile.write("out of range\n")


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------


def _candidates(system: System, entry_rules, model: str):
    """(rule name, match, digest) in canonical order: rule listing order
    first, then match order."""
    out = []
    for name, rule in entry_rules:
        if rule.params:
            continue
        for b in meta_bindings(system, rule, model):
            for m in bind_lhs(system, rule, b, model):
                out.append((name, (rule, m), m.digest()))
    return out


def step(
    system: System,
    model: str,
    rules: dict,
    config: LayerConfig,
    chooser,
    trace: Trace,
    step_index: int,
    budget: int = DEFAULT_STEP_BUDGET,
) -> tuple[System, bool]:
    """One full pass over all layers; returns the new state and whether any
    rule was applied."""
    resolved = config.resolve(rules)
    applied_any = False
    spent = 0
    for layer_idx, entry_rules in enumerate(resolved, start=1):
        mode = config.layers[layer_idx - 1].mode
        if mode == "exhaust":
            while True:
                cands = _candidates(system, entry_rules, model)
                applied = False
                for name, (rule, m), digest in cands:
                    try:
                        res = apply_rule(system, rule, model, m)
                    except NotApplicable:
                        continue
                    system = res.system
                    spent += 1
                    applied = applied_any = True
                    trace.entries.append(
                        TraceEntry(step_index, layer_idx, name, digest, snapshot_hash(system))
                    )
                    break
                if not applied:
                    break
                if spent > budget:
                    raise BudgetExceeded(f"layer {layer_idx} exceeded {budget} applications")
        elif mode in ("choose-one", "once"):
            cands = _candidates(system, entry_rules, model)
            if mode == "once":
                order = list(range(len(cands)))
            else:
                if not cands:
                    continue
                first = chooser.pick(cands)
                if first is None:
                    return system, applied_any  # interactive abort
                order = [first] + [k for k in range(len(cands)) if k != first]
            for k in order:
                name, (rule, m), digest = cands[k]
                try:
                    res = apply_rule(system, rule, model, m)
                except NotApplicable:
                    trace.entries.append(
                        TraceEntry(
                            step_index, layer_idx, name + "!rejected", digest, snapshot_hash(system)
                        )
                    )
                    continue
                system = res.system
                spent += 1
                applied_any = True
                trace.entries.append(
                    TraceEntry(step_index, layer_idx, name, digest, snapshot_hash(system))
                )
                break
        else:  # pragma: no cover
            raise RuleError(f"unknown layer mode {mode}")
    return system, applied_any


def run(
    system: System,
    model: str,
    rules: dict,
    config: LayerConfig,
    steps: int,
    seed: int = 0,
    chooser=None,
    budget: int = DEFAULT_STEP_BUDGET,
) -> tuple[System, Trace]:
    """n passes (or until a fixpoint pass applies nothing); the trace replays
    byte-identically for the same inputs and seed."""
    trace = Trace(seed)
    chooser = chooser or SeededChoice(seed)
    for k in range(1, steps + 1):
        system, applied = step(system, model, rules, config, chooser, trace, k, budget)
        if not applied:
            break
    return system, trace
