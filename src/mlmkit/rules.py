"""Coupled transformation rules and their textual form.

A rule has a META block (a chain of pattern levels above the implicit root),
a FROM pattern and a TO pattern; the interface is the union of FROM and TO,
with preserved elements identified by name.  Pattern elements may be
constants (matched by name), may carry potency or multiplicity constraints,
attribute constraints (FROM) and attribute assignments (TO), and integer
parameters substituted before matching.

Rules, pattern blocks and pattern elements are frozen values, built once by
the parser (or by substitution and replication, which build new ones).  Each
keeps its compiled view, derived on first use: an element its key and
whether it carries any clause, a block its sorted nodes and arrows, its
graph (which keeps its own search plan) and its name index, a rule its
interface and the typing morphisms of its blocks.  The matcher and the
rewrite read these on every call instead of deriving them again.

Grammar (two-space indent, ``//`` comments, ``;`` or newline separators)::

    rule NAME {
      param x;
      meta {
        mm1 { DECLS }
        mm2 { DECLS }
      }
      from { DECLS CLAUSES }
      to { DECLS CLAUSES }
    }

    node decl:   x : Task @ mm1          constants:  x$   or   x : Task$ @ mm1
    arrow decl:  f : in @ mm1 (t -> x)   bare arrow: f (t -> x)
    multiplicity suffix on the name:  f[1..2] : ...   or   f[n]
    potency constraint:  ... pot 1-2-*
    attribute clause:  x.attr = 5 | x.attr = ? | x.attr = p | x.attr = x.attr + 1

The lexer and the token cursor, with its one reader per value kind
(literal, potency, multiplicity), also read the hierarchy format and the
layer format.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Union

from .graph import Arrow, Graph, GraphMorphism, graph
from .hierarchy import Multiplicity, Potency, parse_multiplicity, parse_potency

ROOT_LEVEL = 0


class RuleError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line, self.col = line, col
        super().__init__(f"{line}:{col}: {message}" if line else message)


@dataclass(frozen=True)
class TypeExpr:
    """Reference to a pattern element at a meta level (0 = the root)."""

    level: int
    name: str
    constant_marker: bool = False  # the `$` sits after the type name


@dataclass(frozen=True)
class AttrValue:
    """Right-hand side of an attribute clause."""

    kind: str  # "lit" | "any" | "param" | "ref"
    value: object = None
    elem: str = ""
    attr: str = ""
    delta: object = 0  # int or parameter name

    def render(self) -> str:
        if self.kind == "any":
            return "?"
        if self.kind == "lit":
            return render_literal(self.value)
        if self.kind == "param":
            return str(self.value)
        out = f"{self.elem}.{self.attr}"
        if self.delta:
            out += f" + {self.delta}"
        return out


def render_literal(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return f'"{v}"'
    return str(v)


@dataclass(frozen=True)
class PatternElement:
    name: str
    kind: str  # "node" | "arrow"
    constant: bool = False
    type: Optional[TypeExpr] = None
    src: Optional[str] = None
    tgt: Optional[str] = None
    potency: Optional[Potency] = None
    mult: Union[Multiplicity, str, None] = None  # Multiplicity or the symbolic "n"
    attrs: dict = field(default_factory=dict)  # attr name -> AttrValue

    @cached_property
    def key(self):
        if self.kind == "arrow":
            return Arrow(self.name, self.src, self.tgt)
        return self.name

    @cached_property
    def plain(self) -> bool:
        """No constant, potency, multiplicity or attribute clause: every
        target element of the right type is a candidate."""
        return not (self.constant or self.attrs) and self.potency is None and self.mult is None


def _declare(elements: dict, el: PatternElement):
    if el.key in elements:
        raise RuleError(f"duplicate declaration {el.name}")
    elements[el.key] = el


@dataclass(frozen=True)
class PatternBlock:
    """One pattern level.  Its sorted elements, graph and name index are
    derived on first use and kept."""

    elements: dict = field(default_factory=dict)  # key -> PatternElement

    @classmethod
    def of(cls, elements) -> PatternBlock:
        out: dict = {}
        for el in elements:
            _declare(out, el)
        return cls(out)

    @cached_property
    def _nodes(self) -> tuple:
        return tuple(
            sorted((e for e in self.elements.values() if e.kind == "node"), key=lambda e: e.name)
        )

    @cached_property
    def _arrows(self) -> tuple:
        return tuple(
            sorted(
                (e for e in self.elements.values() if e.kind == "arrow"),
                key=lambda e: (e.name, e.src, e.tgt),
            )
        )

    @cached_property
    def _graph(self) -> Graph:
        return graph((e.name for e in self._nodes), (e.key for e in self._arrows))

    @cached_property
    def _names(self) -> dict:
        """name -> its element; None for a name that two elements share."""
        out: dict = {}
        for e in self.elements.values():
            out[e.name] = None if e.name in out else e
        return out

    def nodes(self) -> tuple[PatternElement, ...]:
        return self._nodes

    def arrows(self) -> tuple[PatternElement, ...]:
        return self._arrows

    def graph(self) -> Graph:
        return self._graph

    def by_name(self, name: str) -> Optional[PatternElement]:
        return self._names.get(name)

    @cached_property
    def text(self) -> str:
        """The block as text, taken once per block value."""
        return repr(self)


@dataclass(frozen=True)
class McmtRule:
    """A parsed rule: an immutable value whose interface, typing chains and
    typing morphisms are derived on first use and kept, so matching and
    rewriting read them instead of deriving them again."""

    name: str
    params: list = field(default_factory=list)
    meta: tuple = ()  # PatternBlock per level, index 0 = mm1
    lhs: PatternBlock = field(default_factory=PatternBlock)
    rhs: PatternBlock = field(default_factory=PatternBlock)

    def __post_init__(self):
        object.__setattr__(self, "meta", tuple(self.meta))

    @property
    def depth(self) -> int:
        """Number of meta levels (the root above them is implicit level 0)."""
        return len(self.meta)

    @cached_property
    def meta_key(self) -> tuple:
        """The meta chain as the text of its blocks: rules with equal keys
        have equal meta matches, and rules that share their meta blocks share
        the strings of their key."""
        return tuple(blk.text for blk in self.meta)

    @cached_property
    def from_kinds(self) -> frozenset:
        """The mm1 types of the FROM nodes, taken once per rule: the logic
        kinds a formula rule's match needs."""
        return frozenset(
            el.type.name for el in self.lhs.nodes() if el.type is not None and el.type.level == 1
        )

    def meta_level(self, k: int) -> PatternBlock:
        """Meta pattern at level k, 1-based like the mmK syntax."""
        return self.meta[k - 1]

    def block(self, level: int) -> Optional[PatternBlock]:
        if 1 <= level <= self.depth:
            return self.meta[level - 1]
        return None

    def bottom_level(self) -> int:
        return self.depth + 1

    # -- interface ---------------------------------------------------------

    @cached_property
    def _interface(self) -> PatternBlock:
        out = dict(self.lhs.elements)
        for el in self.rhs.elements.values():
            prev = out.setdefault(el.key, el)
            if (prev.type, prev.constant) != (el.type, el.constant):
                raise RuleError(f"element {el.name} declared differently in from and to blocks")
        return PatternBlock(out)

    def interface(self) -> PatternBlock:
        """Union of FROM and TO; shared names identify preserved elements.
        Derived on first use, so that validate_rule reports FROM and TO
        declarations that disagree."""
        return self._interface

    def preserved(self) -> set:
        return set(self.lhs.elements) & set(self.rhs.elements)

    def created(self) -> set:
        return set(self.rhs.elements) - set(self.lhs.elements)

    def deleted(self) -> set:
        return set(self.lhs.elements) - set(self.rhs.elements)

    # -- rule-internal typing ----------------------------------------------

    def type_key(self, t: TypeExpr):
        """Key of the meta element a type expression names; None for the
        root type and for a name its level lacks or holds twice."""
        blk = self.block(t.level)
        el = None if blk is None else blk.by_name(t.name)
        return None if el is None else el.key

    def type_chain(self, el: Optional[PatternElement]) -> dict:
        """Transitive pattern types of an element: meta level -> element key,
        following declared types up to (but excluding) the root."""
        out: dict = {}
        t = None if el is None else el.type
        while t is not None and t.level != ROOT_LEVEL and t.level not in out:
            key = self.type_key(t)
            if key is None:
                break
            out[t.level] = key
            t = self.meta[t.level - 1].elements[key].type
        return out

    @cached_property
    def _sigmas(self) -> dict:
        return {}  # id(block) -> (block, morphisms)

    @cached_property
    def _substitutions(self) -> dict:
        return {}  # params tuple -> the rule with them substituted

    def substituted(self, params: tuple) -> "McmtRule":
        """The rule with its parameters bound by params, a tuple of (name,
        value) pairs: substituted once per tuple, the same value after."""
        hit = self._substitutions.get(params)
        if hit is None:
            hit = self._substitutions[params] = substitute_parameters(self, dict(params))
        return hit

    def sigma(self, block: PatternBlock) -> tuple[GraphMorphism, ...]:
        """Partial typing morphisms from a block's graph into each meta level
        graph, mm1 first (the root typing is left implicit as names); derived
        once per block."""
        hit = self._sigmas.get(id(block))
        if hit is None or hit[0] is not block:
            chains = [(el, self.type_chain(el)) for el in block.elements.values()]
            out = []
            for i, mblk in enumerate(self.meta, start=1):
                nodes = {el.name: c[i] for el, c in chains if i in c and el.kind == "node"}
                arrows = {el.key: c[i] for el, c in chains if i in c and el.kind == "arrow"}
                out.append(GraphMorphism(block.graph(), mblk.graph(), nodes, arrows))
            hit = self._sigmas[id(block)] = (block, tuple(out))
        return hit[1]


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_rule(rule: McmtRule) -> list[str]:
    out = []
    if not rule.meta or all(not blk.elements for blk in rule.meta):
        out.append("meta block must contain a non-empty pattern")
    blocks = [(f"mm{k}", rule.meta[k - 1], k) for k in range(1, rule.depth + 1)]
    bottom = rule.bottom_level()
    try:
        iface = rule.interface()
    except RuleError as e:
        return out + [str(e)]
    blocks += [("from", rule.lhs, bottom), ("to", rule.rhs, bottom), ("interface", iface, bottom)]
    for label, blk, level in blocks:
        for el in blk.elements.values():
            if el.kind == "arrow":
                if el.src not in {n.name for n in blk.nodes()}:
                    out.append(f"{label}: arrow {el.name} has unknown source {el.src}")
                if el.tgt not in {n.name for n in blk.nodes()}:
                    out.append(f"{label}: arrow {el.name} has unknown target {el.tgt}")
            if el.type is not None and el.type.level != ROOT_LEVEL:
                if el.type.level >= level:
                    out.append(
                        f"{label}: {el.name} typed from level mm{el.type.level}, "
                        f"which is not above it"
                    )
                    continue
                blk_t = rule.block(el.type.level)
                tel = blk_t.by_name(el.type.name) if blk_t else None
                if tel is None:
                    out.append(f"{label}: {el.name} has unknown type {el.type.name}@mm{el.type.level}")
                elif (tel.kind == "arrow") != (el.kind == "arrow"):
                    out.append(f"{label}: {el.name} typed by a different kind of element")
    # rule-internal non-dangling: the endpoints of a typed arrow must at least
    # be typed at the same level (exact agreement can rest on target-side
    # specialisation, which only match-time type consistency can see)
    for label, blk, level in blocks:
        if label == "interface":
            continue
        for el in blk.arrows():
            if el.type is None or el.type.level == ROOT_LEVEL:
                continue
            tblk = rule.block(el.type.level)
            tel = tblk.by_name(el.type.name) if tblk else None
            if tel is None or tel.kind != "arrow":
                continue
            src_chain = rule.type_chain(blk.by_name(el.src))
            tgt_chain = rule.type_chain(blk.by_name(el.tgt))
            if src_chain.get(el.type.level) is None:
                out.append(f"{label}: arrow {el.name} dangles at source over {tel.name}")
            if tgt_chain.get(el.type.level) is None:
                out.append(f"{label}: arrow {el.name} dangles at target over {tel.name}")
    return out


# ---------------------------------------------------------------------------
# Parameter substitution
# ---------------------------------------------------------------------------


def parse_param(text: str, label: str) -> tuple[str, int]:
    """One NAME=INTEGER parameter binding; an error names it by label."""
    name, eq, value = (part.strip() for part in text.partition("="))
    if not eq:
        raise RuleError(f"{label}: expected NAME=INTEGER")
    try:
        return name, int(value)
    except ValueError:
        raise RuleError(f"{label}: {value!r} is not an integer") from None


def substitute_parameters(rule: McmtRule, bindings: dict) -> McmtRule:
    """Replace every parameter occurrence with its integer value."""
    for name in bindings:
        if name not in rule.params:
            raise RuleError(f"rule {rule.name} has no parameter {name}")
    missing = [p for p in rule.params if p not in bindings]
    if missing:
        raise RuleError(f"unbound parameters: {', '.join(missing)}")

    def subst_value(v: AttrValue) -> AttrValue:
        if v.kind == "param":
            return AttrValue("lit", bindings[v.value])
        if v.kind == "ref" and isinstance(v.delta, str):
            return replace(v, delta=bindings[v.delta])
        return v

    def subst_block(blk: PatternBlock) -> PatternBlock:
        return PatternBlock(
            {
                key: replace(el, attrs={a: subst_value(v) for a, v in el.attrs.items()})
                for key, el in blk.elements.items()
            }
        )

    return replace(
        rule,
        params=[],
        meta=[subst_block(b) for b in rule.meta],
        lhs=subst_block(rule.lhs),
        rhs=subst_block(rule.rhs),
    )


# ---------------------------------------------------------------------------
# Lexer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>//[^\n]*)
  | (?P<nl>\n)
  | (?P<pot>\d+-(?:\d+|\*)-(?:\d+|\*))
  | (?P<arrowsep>->)
  | (?P<dotdot>\.\.)
  | (?P<num>-?\d+)
  | (?P<str>"[^"]*")
  | (?P<ident>[A-Za-z_][A-Za-z_0-9#]*)
  | (?P<sym>[{}()\[\]:;=@$?.+*&,-])
""",
    re.VERBOSE,
)


@dataclass(slots=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def _lex(text: str) -> list[Token]:
    """The tokens of a text, ending in "eof"; whitespace, comments and
    newlines only move the line and column that each token keeps."""
    out, line, line_start, pos = [], 1, 0, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise RuleError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            line_start = m.end()
        elif kind != "ws" and kind != "comment":
            out.append(Token(kind, m.group(), line, pos - line_start + 1))
        pos = m.end()
    out.append(Token("eof", "", line, pos - line_start + 1))
    return out


class Cursor:
    """A position in the tokens of a text, shared by the rule parser, the
    hierarchy loader and the layer reader, with one reader per value kind of
    the formats."""

    def __init__(self, text: str):
        self.toks = _lex(text)
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise RuleError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def expect_kind(self, kind: str) -> Token:
        t = self.next()
        if t.kind != kind:
            raise RuleError(f"expected {kind}, found {t.text!r}", t.line, t.col)
        return t

    def literal(self) -> Union[int, str, bool]:
        """An int, a "string", true or false."""
        t = self.next()
        if t.kind == "num":
            return int(t.text)
        if t.kind == "str":
            return t.text[1:-1]
        if t.text in ("true", "false"):
            return t.text == "true"
        raise RuleError(f"bad attribute value {t.text!r}", t.line, t.col)

    def potency(self) -> Potency:
        """A min-max-depth potency, read by parse_potency."""
        t = self.next()
        if t.kind != "pot":
            raise RuleError(f"expected min-max-depth potency, found {t.text!r}", t.line, t.col)
        try:
            return parse_potency(t.text)
        except ValueError as e:
            raise RuleError(str(e), t.line, t.col) from None

    def multiplicity(self, lo: Token) -> Multiplicity:
        """A LO..HI multiplicity from its first token on, read by
        parse_multiplicity."""
        text = lo.text
        if self.peek().text == "..":
            text += self.next().text + self.next().text
        try:
            return parse_multiplicity(text)
        except ValueError as e:
            raise RuleError(str(e), lo.line, lo.col) from None


class _Parser(Cursor):
    def __init__(self, text: str):
        super().__init__(text)
        self.metas: dict = {}  # meta block tokens -> the first chain parsed from them

    def level(self) -> int:
        """The K of an mmK level name."""
        t = self.expect_kind("ident")
        if not re.fullmatch(r"mm\d+", t.text):
            raise RuleError(f"expected mm<level>, found {t.text!r}", t.line, t.col)
        return int(t.text[2:])

    # -- grammar -----------------------------------------------------------

    def parse_rules(self) -> list[McmtRule]:
        rules = []
        while self.peek().kind != "eof":
            rules.append(self.parse_rule())
        return rules

    def parse_rule(self) -> McmtRule:
        self.expect("rule")
        name = self.expect_kind("ident").text
        self.expect("{")
        params, meta = [], []
        while self.peek().text == "param":
            self.next()
            params.append(self.expect_kind("ident").text)
            if self.peek().text == ";":
                self.next()
        start = self.i
        self.expect("meta")
        self.expect("{")
        while self.peek().text != "}":
            t = self.peek()
            if self.level() != len(meta) + 1:
                raise RuleError(f"meta levels must be consecutive, found {t.text}", t.line, t.col)
            self.expect("{")
            meta.append(self._parse_block_body())
        self.expect("}")
        tokens = tuple(t.text for t in self.toks[start : self.i])
        meta = self.metas.setdefault(tokens, tuple(meta))
        self.expect("from")
        self.expect("{")
        lhs = self._parse_block_body()
        self.expect("to")
        self.expect("{")
        rhs = self._parse_block_body()
        self.expect("}")
        return McmtRule(name, params, meta, lhs, rhs)

    def _parse_block_body(self) -> PatternBlock:
        elements: dict = {}  # key -> PatternElement, in declaration order
        while self.peek().text != "}":
            if self.peek().text == ";":
                self.next()
                continue
            self._parse_statement(elements)
        self.expect("}")
        return PatternBlock(elements)

    def _parse_statement(self, elements: dict):
        name_tok = self.expect_kind("ident")
        name = name_tok.text
        # attribute clause?
        if self.peek().text == ".":
            self.next()
            attr = self.expect_kind("ident").text
            self.expect("=")
            value = self._parse_attr_value()
            hits = [e for e in elements.values() if e.name == name]
            if len(hits) != 1:
                raise RuleError(f"attribute on undeclared element {name}", name_tok.line, name_tok.col)
            elements[hits[0].key] = replace(hits[0], attrs={**hits[0].attrs, attr: value})
            return
        constant = False
        mult: Union[Multiplicity, str, None] = None
        if self.peek().text == "$":
            self.next()
            constant = True
        if self.peek().text == "[":
            self.next()
            first = self.next()
            if first.kind == "ident" and self.peek().text == "]":
                mult = first.text  # symbolic count
            else:
                mult = self.multiplicity(first)
            self.expect("]")
        type_expr = None
        if self.peek().text == ":":
            self.next()
            tname = self.expect_kind("ident").text
            marker = False
            if self.peek().text == "$":
                self.next()
                marker = True
                constant = True
            level = ROOT_LEVEL
            if self.peek().text == "@":
                self.next()
                level = self.level()
            type_expr = TypeExpr(level, tname, marker)
        potency = None
        if self.peek().text == "pot":
            self.next()
            potency = self.potency()
        if self.peek().text == "(":
            self.next()
            src = self.expect_kind("ident").text
            self.expect("->")
            tgt = self.expect_kind("ident").text
            self.expect(")")
            if potency is None and self.peek().text == "pot":
                self.next()
                potency = self.potency()
            _declare(
                elements,
                PatternElement(name, "arrow", constant, type_expr, src, tgt, potency, mult),
            )
        else:
            if mult is not None:
                raise RuleError(f"multiplicity on node {name}", name_tok.line, name_tok.col)
            _declare(
                elements, PatternElement(name, "node", constant, type_expr, None, None, potency)
            )

    def _parse_attr_value(self) -> AttrValue:
        t = self.peek()
        if t.text == "?":
            self.next()
            return AttrValue("any")
        if t.kind != "ident" or t.text in ("true", "false"):
            return AttrValue("lit", self.literal())
        self.next()
        if self.peek().text != ".":
            return AttrValue("param", t.text)
        self.next()
        attr = self.expect_kind("ident").text
        delta: object = 0
        if self.peek().text == "+":
            self.next()
            delta = self.literal() if self.peek().kind == "num" else self.next().text
        return AttrValue("ref", None, t.text, attr, delta)


def parse_rules(text: str) -> list[McmtRule]:
    """Parse a rule file; raises RuleError with line/column on bad input."""
    rules = _Parser(text).parse_rules()
    seen = set()
    for r in rules:
        if r.name in seen:
            raise RuleError(f"duplicate rule {r.name}")
        seen.add(r.name)
        problems = validate_rule(r)
        if problems:
            raise RuleError(f"rule {r.name}: " + "; ".join(problems))
    return rules


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def _render_element(el: PatternElement) -> str:
    out = el.name
    if el.constant and el.type is None:
        out += "$"
    if isinstance(el.mult, str):
        out += f"[{el.mult}]"
    elif isinstance(el.mult, Multiplicity):
        out += f"[{el.mult}]"
    if el.type is not None:
        out += f" : {el.type.name}"
        if el.constant:
            out += "$"
        if el.type.level != ROOT_LEVEL:
            out += f" @ mm{el.type.level}"
    if el.kind == "arrow":
        out += f" ({el.src} -> {el.tgt})"
    if el.potency is not None:
        out += f" pot {el.potency}"
    return out


def _render_block(blk: PatternBlock, indent: str) -> list[str]:
    lines = []
    for el in blk.nodes() + blk.arrows():
        lines.append(indent + _render_element(el))
    for el in blk.nodes() + blk.arrows():
        for attr in sorted(el.attrs):
            lines.append(indent + f"{el.name}.{attr} = {el.attrs[attr].render()}")
    return lines


def render_rule(rule: McmtRule) -> str:
    lines = [f"rule {rule.name} {{"]
    for p in sorted(rule.params):
        lines.append(f"  param {p};")
    lines.append("  meta {")
    for k, blk in enumerate(rule.meta, start=1):
        lines.append(f"    mm{k} {{")
        lines += _render_block(blk, "      ")
        lines.append("    }")
    lines.append("  }")
    lines.append("  from {")
    lines += _render_block(rule.lhs, "    ")
    lines.append("  }")
    lines.append("  to {")
    lines += _render_block(rule.rhs, "    ")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_rules(rules: list[McmtRule]) -> str:
    return "\n".join(render_rule(r) for r in rules)
