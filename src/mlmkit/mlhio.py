"""Plain-text serialization of hierarchies (`.mlh`) and DOT export.

The format is one statement per line inside nested blocks, `//` comments,
UTF-8, LF.  It is read with the tokens, the cursor and the literal, potency
and multiplicity readers of the rule format (rules.Cursor), and its
literals print as rule literals do.  Parsing and printing are mutually
inverse on canonical output::

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

from .graph import Arrow, Graph, graph
from .hierarchy import (
    APPLICATION,
    DATA,
    DATA_HIERARCHY,
    ROOT,
    ROOT_ARROW_TYPING,
    ROOT_MODEL,
    ROOT_NODE_TYPING,
    SUPPLEMENTARY,
    DEFAULT_MULTIPLICITY,
    ElementTyping,
    Hierarchy,
    Model,
    System,
    TypeRef,
    elem_str,
)
from .rules import Cursor, RuleError, render_literal


class LoadError(Exception):
    pass


def load_hierarchy(text: str) -> System:
    """Parse a hierarchy document into a System; unknown references and
    malformed statements raise LoadError naming the offending line.  Each
    model and hierarchy is built once, whole, and the system last."""
    try:
        blocks = _parse_blocks(Cursor(text))
    except RuleError as e:
        raise LoadError(str(e)) from None
    graphs: dict = {}  # model name -> (graph, specialisation arrows)
    for _, _, pending in blocks:
        known = {ROOT_MODEL}
        for mname, parent, stmts in pending:
            graphs[mname] = _build_graph(mname, stmts)
            if parent not in known:
                raise LoadError(f"model {mname}: unknown parent {parent}")
            known.add(mname)
    # what a type reference reads: model name -> (dimension, hierarchy, graph)
    places = {m: (DATA, None, model.graph) for m, model in DATA_HIERARCHY.models.items()}
    places[ROOT_MODEL] = (APPLICATION, None, ROOT.graph)
    for name, dim, pending in blocks:
        places.update((m, (dim, name, graphs[m][0])) for m, _, _ in pending)
    app, supplementary = Hierarchy("main", APPLICATION), {}
    for name, dim, pending in blocks:
        models = {m: _resolve(m, *graphs[m], stmts, places) for m, _, stmts in pending}
        h = Hierarchy(name, dim, models, {m: p for m, p, _ in pending})
        if dim == APPLICATION:
            app = h
        else:
            supplementary[name] = h
    return System(app, supplementary, DATA_HIERARCHY)


def _parse_blocks(cur: Cursor) -> list:
    """(hierarchy name, dimension, [(model, parent, statements)]) per block,
    in document order."""
    blocks: list[tuple[str, str, list]] = []
    owners = {m: DATA_HIERARCHY.name for m in DATA_HIERARCHY.models if m != ROOT_MODEL}
    while cur.peek().kind != "eof":
        at = cur.expect("hierarchy")
        dim = cur.expect_kind("ident").text
        name = cur.expect_kind("ident").text
        if dim not in (APPLICATION, SUPPLEMENTARY):
            raise RuleError(f"unknown dimension {dim!r}")
        if dim == APPLICATION and any(d == APPLICATION for _, d, _ in blocks):
            raise RuleError("there cannot be two application hierarchies in one system")
        if dim == SUPPLEMENTARY and any(n == name and d == dim for n, d, _ in blocks):
            raise RuleError(f"hierarchy {name} already exists", at.line, at.col)
        pending: list = []
        blocks.append((name, dim, pending))
        cur.expect("{")
        while cur.peek().text != "}":
            at = cur.expect("model")
            mname = cur.expect_kind("ident").text
            if mname in owners or mname == ROOT_MODEL:
                where = f"hierarchy {owners[mname]}" if mname in owners else "every hierarchy"
                raise RuleError(f"model {mname} already exists in {where}", at.line, at.col)
            owners[mname] = name
            cur.expect(":")
            parent = cur.expect_kind("ident").text
            cur.expect("{")
            stmts = []
            while cur.peek().text != "}":
                stmts.append(_parse_statement(cur))
            cur.expect("}")
            pending.append((mname, parent, stmts))
        cur.expect("}")
    return blocks


def _parse_statement(cur: Cursor) -> tuple:
    kw = cur.next()
    line = kw.line
    if kw.text == "node":
        name = cur.expect_kind("ident").text
        types, pot, mult, flags = _trailing(cur, arrow=False)
        return ("node", name, None, None, types, pot, None, flags, line)
    if kw.text == "arrow" or kw.text == "inherit":
        name = cur.expect_kind("ident").text
        cur.expect(":")
        src = cur.expect_kind("ident").text
        cur.expect("->")
        tgt = cur.expect_kind("ident").text
        if kw.text == "inherit":
            return ("inherit", name, src, tgt, [], None, None, set(), line)
        types, pot, mult, flags = _trailing(cur, arrow=True)
        return ("arrow", name, src, tgt, types, pot, mult, flags, line)
    if kw.text == "attr":
        owner = cur.expect_kind("ident").text
        cur.expect(".")
        aname = cur.expect_kind("ident").text
        t = cur.next()
        if t.text == ":":
            return ("attrdecl", owner, aname, cur.expect_kind("ident").text, line)
        if t.text == "=":
            return ("attrval", owner, aname, cur.literal(), line)
        raise RuleError("expected : or = after attribute name", t.line, t.col)
    raise RuleError(f"unknown statement {kw.text!r}", kw.line, kw.col)


def _trailing(cur: Cursor, arrow: bool):
    """Optional `: TYPE@MODEL [@d] [& ...]`, `pot P`, `mult LO..HI`, `abstract`."""
    types: list[tuple[str, str]] = []
    pot = None
    mult = None
    flags: set[str] = set()
    if cur.peek().text == ":":
        cur.next()
        while True:
            tname = cur.expect_kind("ident").text
            cur.expect("@")
            tmodel = cur.expect_kind("ident").text
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
            pot = cur.potency()
        elif t.text == "mult" and arrow:
            cur.next()
            mult = cur.multiplicity(cur.next())
        elif t.text == "abstract":
            cur.next()
            flags.add("abstract")
        else:
            break
    return types, pot, mult, flags


def _build_graph(name: str, stmts: list) -> tuple[Graph, frozenset]:
    """The model's graph and its specialisation arrows."""
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
    return g, frozenset(inherits)


def _resolve(name: str, g: Graph, inherits: frozenset, stmts: list, places: dict) -> Model:
    """The model: each element's own, supplementary and data types, looked
    up in places (model name -> dimension, hierarchy name and graph), its
    potencies, multiplicities, abstract nodes and attributes."""
    own, supp, data = {}, {}, {}
    potencies, multiplicities, abstract = {}, {}, set()
    attr_decls: dict = {}
    attr_values: dict = {}
    for st in stmts:
        kind = st[0]
        if kind in ("node", "arrow"):
            _, ename, src, tgt, types, pot, mult, flags, line = st
            key = ename if kind == "node" else Arrow(ename, src, tgt)
            for tname, tmodel in types:
                if tmodel not in places:
                    raise LoadError(f"line {line}: model {name}: unknown type model {tmodel}")
                dim, hname, target = places[tmodel]
                telem = _find_elem(target, tname, kind)
                if telem is None:
                    raise LoadError(
                        f"line {line}: model {name}: unknown type "
                        f"{tname}@{tmodel} for {elem_str(key)}"
                    )
                if dim == DATA:
                    if key in data:
                        raise LoadError(f"model {name}: {elem_str(key)} has two data types")
                    data[key] = TypeRef(tmodel, telem)
                elif dim == SUPPLEMENTARY:
                    slot = supp.setdefault(key, {})
                    if hname in slot:
                        raise LoadError(
                            f"model {name}: {elem_str(key)} has two types in hierarchy {hname}"
                        )
                    slot[hname] = TypeRef(tmodel, telem)
                else:
                    if key in own:
                        raise LoadError(
                            f"model {name}: {elem_str(key)} has two types in its own hierarchy"
                        )
                    own[key] = TypeRef(tmodel, telem)
            if pot is not None:
                potencies[key] = pot
            if mult is not None:
                multiplicities[key] = mult
            if "abstract" in flags:
                abstract.add(ename)
        elif kind == "attrdecl":
            _, owner, aname, dtype, line = st
            if owner not in g.nodes:
                raise LoadError(f"line {line}: model {name}: attribute on unknown node {owner}")
            if dtype not in DATA_HIERARCHY.models["dt2"].graph.nodes:
                raise LoadError(f"line {line}: model {name}: unknown data type {dtype}")
            attr_decls.setdefault(owner, {})[aname] = dtype
        elif kind == "attrval":
            _, owner, aname, value, line = st
            if owner not in g.nodes:
                raise LoadError(f"line {line}: model {name}: attribute on unknown node {owner}")
            attr_values.setdefault(owner, {})[aname] = value
    typings = {
        k: ElementTyping(own.get(k), supp.get(k, {}), data.get(k)) for k in {**own, **supp, **data}
    }
    return Model(
        name,
        g,
        typings,
        potencies,
        multiplicities,
        frozenset(abstract),
        inherits,
        attr_decls,
        attr_values,
    )


def _find_elem(g: Graph, name: str, kind: str):
    if kind == "node":
        return name if name in g.nodes else None
    hits = [a for a in sorted(g.arrows) if a.name == name]
    return hits[0] if hits else None


# ---------------------------------------------------------------------------
# Saving
# ---------------------------------------------------------------------------


def _type_suffix(system: System, model: Model, key) -> str:
    t = model.typings[key]
    refs = []
    if t.own != (ROOT_ARROW_TYPING if isinstance(key, Arrow) else ROOT_NODE_TYPING).own:
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
    for h in system.user_hierarchies():
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
            out.append(f"    attr {owner}.{aname} = {render_literal(m.attr_values[owner][aname])}")
    out.append("  }")
    return system.remember(("saved", name), "\n".join(out), (name,))


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def _dot_label(system: System, model: Model, key) -> str:
    from .hierarchy import jump_distance

    t = model.typings[key]
    name = key.name if isinstance(key, Arrow) else key
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
        for h in system.user_hierarchies():
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
