"""Plain-text serialization of hierarchies (`.mlh`) and DOT export.

The format is line-oriented inside nested blocks, `//` comments, UTF-8, LF.
Parsing and printing are mutually inverse on canonical output::

    hierarchy application main {
      model robolang : root {
        node Task
        node Transition pot 1-2-*
        arrow in : Transition -> Task pot 1-2-*
        arrow hasHandle : Hammer -> Handle mult 1..1
        inherit s1 : Not -> Unary
        attr Sys.time : Int
        attr c.time = 0
        node o : Obstacle@robot_1 & Atomic@ltl
        node F abstract
      }
    }

The data-type hierarchy and the root model are built in and never written.
A type reference names the model that holds the type; the dimension slot is
inferred from the hierarchy that model belongs to.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .graph import Arrow, graph
from .hierarchy import (
    APPLICATION,
    ROOT_ARROW,
    ROOT_MODEL,
    ROOT_NODE,
    SUPPLEMENTARY,
    DEFAULT_MULTIPLICITY,
    Hierarchy,
    Model,
    Multiplicity,
    System,
    TypeRef,
    elem_str,
    make_data_hierarchy,
    parse_potency,
)
from .rules import RuleError, Token, _lex


class LoadError(Exception):
    pass


@dataclass
class _Cursor:
    toks: list
    i: int = 0

    def peek(self) -> Token:
        j = self.i
        while self.toks[j].kind == "nl":
            j += 1
        return self.toks[j]

    def peek_same_line(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        while self.toks[self.i].kind == "nl":
            self.i += 1
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise LoadError(f"{t.line}:{t.col}: expected {text!r}, found {t.text!r}")
        return t

    def ident(self) -> str:
        t = self.next()
        if t.kind != "ident":
            raise LoadError(f"{t.line}:{t.col}: expected name, found {t.text!r}")
        return t.text


def load_hierarchy(text: str) -> System:
    """Parse a hierarchy document into a System; unknown references and
    malformed statements raise LoadError naming the offending line."""
    try:
        cur = _Cursor(_lex(text))
    except RuleError as e:
        raise LoadError(str(e))
    app: Hierarchy | None = None
    supp: dict[str, Hierarchy] = {}
    # first pass collects the raw model statements; resolution needs them all
    pending: list[tuple[Hierarchy, str, str, list]] = []
    data = make_data_hierarchy()
    owners = {m: data.name for m in data.models if m != ROOT_MODEL}  # model -> its hierarchy
    while cur.peek().kind != "eof":
        cur.expect("hierarchy")
        dim = cur.ident()
        name = cur.ident()
        if dim == "application":
            h = Hierarchy(name, APPLICATION)
            if app is not None:
                raise LoadError("there cannot be two application hierarchies in one system")
            app = h
        elif dim == "supplementary":
            h = Hierarchy(name, SUPPLEMENTARY)
            supp[name] = h
        else:
            raise LoadError(f"unknown dimension {dim!r}")
        cur.expect("{")
        while cur.peek().text != "}":
            at = cur.expect("model")
            mname = cur.ident()
            if mname in owners or mname == ROOT_MODEL:
                where = f"hierarchy {owners[mname]}" if mname in owners else "every hierarchy"
                raise LoadError(f"{at.line}:{at.col}: model {mname} already exists in {where}")
            owners[mname] = name
            cur.expect(":")
            parent = cur.ident()
            cur.expect("{")
            stmts = []
            while cur.peek().text != "}":
                stmts.append(_parse_statement(cur))
            cur.expect("}")
            pending.append((h, mname, parent, stmts))
        cur.expect("}")
    if app is None:
        app = Hierarchy("main", APPLICATION)
    system = System(app, supp, data)
    for h, mname, parent, stmts in pending:
        model = _build_model(mname, stmts)
        if parent not in h.models:
            raise LoadError(f"model {mname}: unknown parent {parent}")
        h.add_model(model, parent)
    # resolve typings now that every model exists
    for h, mname, parent, stmts in pending:
        _resolve(system, h.models[mname], stmts)
    return system


def _parse_statement(cur: _Cursor) -> tuple:
    kw = cur.next()
    line = kw.line
    if kw.text == "node":
        name = cur.ident()
        types, pot, mult, flags = _trailing(cur, arrow=False)
        return ("node", name, None, None, types, pot, None, flags, line)
    if kw.text == "arrow" or kw.text == "inherit":
        name = cur.ident()
        cur.expect(":")
        src = cur.ident()
        cur.expect("->")
        tgt = cur.ident()
        types, pot, mult, flags = ([], None, None, set())
        if kw.text == "arrow":
            types, pot, mult, flags = _trailing(cur, arrow=True)
        kind = "inherit" if kw.text == "inherit" else "arrow"
        return (kind, name, src, tgt, types, pot, mult, flags, line)
    if kw.text == "attr":
        owner = cur.ident()
        cur.expect(".")
        aname = cur.ident()
        t = cur.next()
        if t.text == ":":
            dtype = cur.ident()
            return ("attrdecl", owner, aname, dtype, line)
        if t.text == "=":
            v = cur.next()
            if v.kind == "num":
                value: object = int(v.text)
            elif v.kind == "str":
                value = v.text[1:-1]
            elif v.text in ("true", "false"):
                value = v.text == "true"
            else:
                raise LoadError(f"{v.line}:{v.col}: bad attribute value {v.text!r}")
            return ("attrval", owner, aname, value, line)
        raise LoadError(f"{t.line}:{t.col}: expected : or = after attribute name")
    raise LoadError(f"{kw.line}:{kw.col}: unknown statement {kw.text!r}")


def _trailing(cur: _Cursor, arrow: bool):
    """Optional `: TYPE@MODEL [@d] [& ...]`, `pot P`, `mult LO..HI`, `abstract`."""
    types: list[tuple[str, str]] = []
    pot = None
    mult = None
    flags: set[str] = set()
    if cur.peek().text == ":":
        cur.next()
        while True:
            tname = cur.ident()
            cur.expect("@")
            tmodel = cur.ident()
            if cur.peek().text == "@":  # optional explicit level distance, ignored
                cur.next()
                cur.next()
            types.append((tname, tmodel))
            if cur.peek().text == "&":
                cur.next()
                continue
            break
    while True:
        t = cur.peek()
        if t.text == "pot":
            cur.next()
            p = cur.next()
            if p.kind != "pot":
                raise LoadError(f"{p.line}:{p.col}: bad potency {p.text!r}")
            pot = parse_potency(p.text)
        elif t.text == "mult" and arrow:
            cur.next()
            lo = cur.next()
            cur.expect("..")
            hi = cur.next()
            mult = Multiplicity(int(lo.text), None if hi.text == "*" else int(hi.text))
        elif t.text == "abstract":
            cur.next()
            flags.add("abstract")
        else:
            break
    return types, pot, mult, flags


def _build_model(name: str, stmts: list) -> Model:
    nodes, arrows, inherits = [], [], []
    for st in stmts:
        if st[0] == "node":
            nodes.append(st[1])
        elif st[0] == "arrow":
            arrows.append(Arrow(st[1], st[2], st[3]))
        elif st[0] == "inherit":
            inherits.append(Arrow(st[1], st[2], st[3]))
    g = graph(nodes, arrows + inherits)
    bad = []
    for a in sorted(g.arrows):
        if a.src not in g.nodes:
            bad.append(f"arrow {a!r} references unknown node {a.src}")
        if a.tgt not in g.nodes:
            bad.append(f"arrow {a!r} references unknown node {a.tgt}")
    if bad:
        raise LoadError(f"model {name}: " + "; ".join(bad))
    return Model(name, g, inherit_arrows=frozenset(inherits))


def _resolve(system: System, model: Model, stmts: list):
    explicit_own: set = set()
    for st in stmts:
        kind = st[0]
        if kind in ("node", "arrow"):
            _, name, src, tgt, types, pot, mult, flags, line = st
            key = name if kind == "node" else Arrow(name, src, tgt)
            for tname, tmodel in types:
                try:
                    target = system.find_model(tmodel)
                except KeyError:
                    raise LoadError(
                        f"line {line}: model {model.name}: unknown type model {tmodel}"
                    )
                telem = _find_elem(target, tname, kind)
                if telem is None:
                    raise LoadError(
                        f"line {line}: model {model.name}: unknown type "
                        f"{tname}@{tmodel} for {elem_str(key)}"
                    )
                hier = system.hierarchy_of(tmodel)
                slot = model.typing(key)
                if hier is system.data:
                    if slot.data is not None:
                        raise LoadError(
                            f"model {model.name}: {elem_str(key)} has two data types"
                        )
                    slot.data = TypeRef(tmodel, telem)
                elif hier.dimension == SUPPLEMENTARY:
                    if hier.name in slot.supplementary:
                        raise LoadError(
                            f"model {model.name}: {elem_str(key)} has two types in "
                            f"hierarchy {hier.name}"
                        )
                    slot.supplementary[hier.name] = TypeRef(tmodel, telem)
                else:
                    if key in explicit_own:
                        raise LoadError(
                            f"model {model.name}: {elem_str(key)} has two types in "
                            f"its own hierarchy"
                        )
                    explicit_own.add(key)
                    slot.own = TypeRef(tmodel, telem)
            if pot is not None:
                model.potencies[key] = pot
            if mult is not None:
                model.multiplicities[key] = mult
            if "abstract" in flags:
                model.abstract = model.abstract | {name}
        elif kind == "attrdecl":
            _, owner, aname, dtype, line = st
            if owner not in model.graph.nodes:
                raise LoadError(f"line {line}: model {model.name}: attribute on unknown node {owner}")
            if dtype not in system.data.models["dt2"].graph.nodes:
                raise LoadError(f"line {line}: model {model.name}: unknown data type {dtype}")
            model.attr_decls.setdefault(owner, {})[aname] = dtype
        elif kind == "attrval":
            _, owner, aname, value, line = st
            if owner not in model.graph.nodes:
                raise LoadError(f"line {line}: model {model.name}: attribute on unknown node {owner}")
            model.attr_values.setdefault(owner, {})[aname] = value


def _find_elem(model: Model, name: str, kind: str):
    if kind == "node":
        return name if name in model.graph.nodes else None
    hits = [a for a in sorted(model.graph.arrows) if a.name == name]
    return hits[0] if hits else None


# ---------------------------------------------------------------------------
# Saving
# ---------------------------------------------------------------------------


def _type_suffix(system: System, model: Model, key) -> str:
    t = model.typings.get(key)
    if not t:
        return ""
    refs = []
    default = TypeRef(ROOT_MODEL, ROOT_NODE if not isinstance(key, Arrow) else ROOT_ARROW)
    if t.own and t.own != default:
        refs.append(t.own)
    for h in sorted(t.supplementary):
        refs.append(t.supplementary[h])
    if t.data:
        refs.append(t.data)
    if not refs:
        return ""
    return " : " + " & ".join(
        f"{r.elem.name if isinstance(r.elem, Arrow) else r.elem}@{r.model}" for r in refs
    )


def save_hierarchy(system: System) -> str:
    """Canonical text for every non-built-in hierarchy of the system.  Each
    model's block of text is a fact about that model, so a rewritten
    system serializes again only the models the rewrite replaced."""
    out: list[str] = []
    hs = [system.application] + [system.supplementary[k] for k in sorted(system.supplementary)]
    for h in hs:
        dim = "application" if h.dimension == APPLICATION else "supplementary"
        out.append(f"hierarchy {dim} {h.name} {{")
        for mname in h.model_names():
            if mname == ROOT_MODEL:
                continue
            hit = system.cache.get(("saved", mname))
            out.append(hit[0] if hit else _model_text(system, h, mname))
        out.append("}")
    return "\n".join(out) + "\n"


def _model_text(system: System, h: Hierarchy, name: str) -> str:
    """One model's block of the saved text, remembered as a fact about that
    model: the block reads only the model and the name of its parent."""
    m = h.models[name]
    out = [f"  model {name} : {h.parents[name]} {{"]
    for n in sorted(m.graph.nodes):
        line = f"    node {n}" + _type_suffix(system, m, n)
        if n in m.potencies:
            line += f" pot {m.potencies[n]}"
        if n in m.abstract:
            line += " abstract"
        out.append(line)
    for a in sorted(m.graph.arrows):
        if a in m.inherit_arrows:
            continue
        line = f"    arrow {a.name} : {a.src} -> {a.tgt}" + _type_suffix(system, m, a)
        if a in m.potencies:
            line += f" pot {m.potencies[a]}"
        if a in m.multiplicities and m.multiplicities[a] != DEFAULT_MULTIPLICITY:
            line += f" mult {m.multiplicities[a]}"
        out.append(line)
    for a in sorted(m.inherit_arrows):
        out.append(f"    inherit {a.name} : {a.src} -> {a.tgt}")
    for owner in sorted(m.attr_decls):
        for aname in sorted(m.attr_decls[owner]):
            out.append(f"    attr {owner}.{aname} : {m.attr_decls[owner][aname]}")
    for owner in sorted(m.attr_values):
        for aname in sorted(m.attr_values[owner]):
            v = m.attr_values[owner][aname]
            if isinstance(v, bool):
                lit = "true" if v else "false"
            elif isinstance(v, str):
                lit = f'"{v}"'
            else:
                lit = str(v)
            out.append(f"    attr {owner}.{aname} = {lit}")
    out.append("  }")
    return system.remember(("saved", name), "\n".join(out), (name,))


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def _dot_label(system: System, model: Model, key) -> str:
    from .hierarchy import jump_distance

    t = model.typings.get(key)
    name = key.name if isinstance(key, Arrow) else key
    if not t or not t.own:
        return name
    d = jump_distance(system, model.name, t.own)
    tn = t.own.elem.name if isinstance(t.own.elem, Arrow) else t.own.elem
    label = f"{name}:{tn}@{d}"
    pot = model.potencies.get(key)
    if pot is not None:
        label += f"\\n{pot}"
    return label


def export_dot_model(system: System, model: Model) -> list[str]:
    lines = [f'  subgraph "cluster_{model.name}" {{', f'    label="{model.name}";']
    for n in sorted(model.graph.nodes):
        lines.append(f'    "{model.name}/{n}" [label="{_dot_label(system, model, n)}"];')
    for a in sorted(model.graph.arrows):
        style = ' style=dotted arrowhead="empty"' if a in model.inherit_arrows else ""
        lines.append(
            f'    "{model.name}/{a.src}" -> "{model.name}/{a.tgt}" '
            f'[label="{_dot_label(system, model, a)}"{style}];'
        )
    lines.append("  }")
    return lines


def export_dot(system: System, model_name: str | None = None) -> str:
    """Deterministic DOT text: one cluster per model, dashed tree edges."""
    lines = ["digraph hierarchy {"]
    if model_name:
        lines += export_dot_model(system, system.find_model(model_name))
    else:
        for h in [system.application] + [
            system.supplementary[k] for k in sorted(system.supplementary)
        ]:
            for mname in h.model_names():
                if mname == ROOT_MODEL:
                    continue
                lines += export_dot_model(system, h.models[mname])
            for mname in h.model_names():
                parent = h.parents[mname]
                if parent and parent != ROOT_MODEL:
                    a = sorted(h.models[mname].graph.nodes)
                    b = sorted(h.models[parent].graph.nodes)
                    if a and b:
                        lines.append(
                            f'  "{mname}/{a[0]}" -> "{parent}/{b[0]}" '
                            f"[style=dashed, ltail=cluster_{mname}, lhead=cluster_{parent}];"
                        )
    lines.append("}")
    return "\n".join(lines) + "\n"
