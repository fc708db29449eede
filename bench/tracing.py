"""Spans around the program's public functions, recorded from outside it.

`Tracer.install` wraps each function named in `LAYERS` and rebinds every
attribute of an `mlmkit` module that holds it: the defining module and each
module that imported the function by name (`mlmkit.simulate.bind_lhs` as well
as `mlmkit.matching.bind_lhs`), so every caller's lookup reaches the wrapper.
Nothing in the program changes; `uninstall` puts the originals back.

A span is `[name, start, end, parent, outcome, op]`: `parent` is the index of
the enclosing span (None at the top), `outcome` is "value", "empty" (a falsy
result, such as no left-hand-side match) or "raised <Exception>", and `op`
is the operation the span belongs to (None in the set-up).  Spans are
kept in memory while recording is on and written out at the end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

LAYERS = {
    "mlhio": ("load_hierarchy",),
    "rules": ("parse_rules",),
    "simulate": ("step",),
    "matching": ("match_for_model", "meta_bindings", "bind_lhs", "graph_match"),
    "rewrite": ("apply_rule", "proliferate"),
    "chains": ("chain_pushout", "reduct"),
    "graph": ("pushout_along_inclusion", "final_pullback_complement", "enumerate_homomorphisms"),
    "hierarchy": (
        "validate_hierarchy",
        "check_typing_structure",
        "check_non_dangling",
        "check_uniqueness",
        "check_potency",
        "check_inheritance",
        "check_multiplicity",
        "check_dimensions",
        "type_closure",
        "type_refs",
        "transitive_types",
        "domain_between",
    ),
    "ltl": ("rewrite_with_rules",),
    "diagnose": ("binding_report",),
}

FUNCTIONS = tuple(f"{mod}.{name}" for mod, names in LAYERS.items() for name in names)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.open: list = []  # indices of the spans not yet ended
        self.recording = False
        self.op = None  # the operation now running, shared by its spans
        self._patches: list = []  # (module, attribute, original)

    def _wrap(self, name: str, fn):
        spans, open_ = self.spans, self.open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, open_[-1] if open_ else None, "value", self.op]
            open_.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = "raised " + type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                open_.pop()
            if not out:
                span[4] = "empty"
            return out

        return traced

    def install(self) -> None:
        """Wrap every function of LAYERS wherever an mlmkit module holds it;
        nothing happens if the wrappers are in place already."""
        if self._patches:
            return
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "mlmkit"]
        for mod_name, names in LAYERS.items():
            home = sys.modules[f"mlmkit.{mod_name}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{mod_name}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def take(self) -> list:
        """The spans recorded so far; the tracer starts afresh."""
        out = list(self.spans)
        self.spans.clear()
        return out


def summarize(spans: list) -> dict:
    """Per function: calls, self time (its spans' duration minus the time its
    child spans cover) and outcome counts; plus the total covered by the
    top-level spans, which the self times partition."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {f: {"calls": 0, "self_s": 0.0, "outcomes": {}} for f in FUNCTIONS}
    top = 0.0
    for k, (name, start, end, parent, outcome, _) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[k]
        entry["outcomes"][outcome] = entry["outcomes"].get(outcome, 0) + 1
        if parent is None:
            top += end - start
    return {"functions": out, "top_s": top}


def write_spans(path, spans: list) -> None:
    """One JSON object per span, in start order."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for k, (name, start, end, parent, outcome, op) in enumerate(spans):
            record = {"id": k, "op": op, "name": name, "start": start, "end": end}
            record.update(parent=parent, outcome=outcome)
            fh.write(json.dumps(record) + "\n")
