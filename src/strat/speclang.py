"""The .ars document language: parsing, validation, canonical serialization.

A document declares exactly one reduction system plus named label orders,
named accepting conditions, named strategies and a query list:

    ars {
      objects: a, b, c, d;
      labels: phi1, phi2, phi3, phi4;
      steps:
        (a, phi1, b),
        (b, phi3, a);
    }
    order asc { phi1 < phi2; }
    accept ev = word(phi1* phi2);
    strategy gm = greatmost(asc);
    query apply gm from a depth 3;

Comments run from '#' to end of line. Identifiers are an ASCII letter
followed by letters, digits or underscores; keywords are reserved and cannot
name symbols. Names must be declared before use and there is exactly one ars
section per document.

serialize emits the canonical form: LF line endings, two-space indentation,
steps and order pairs sorted by symbol index, orders and strategies sorted
by name, accepting conditions and queries kept in declaration order (accepts
may reference earlier accepts), label sets sorted and deduplicated. On valid
documents parse(serialize(doc)) equals doc structurally and serialization is
idempotent. Every parse failure raises SpecLangError carrying at least one
Diagnostic with a 1-based line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from . import rational
from .ars import Ars
from .errors import StratError, UnknownSymbol
from .intensional import (
    AcceptFiltered,
    Alternate,
    Fail,
    Greatmost,
    Intersect,
    LabelOrder,
    MaxLen,
    RestrictLabels,
    Strategy,
    UnionCommitted,
    UnionPointwise,
    Universal,
)
from .logic import (
    AcceptCondition,
    And,
    AtObject,
    LabelWordIn,
    LenAtLeast,
    LenAtMost,
    LenEq,
    Not,
    Or,
)
from .rational import Token

KEYWORDS = frozenset(
    """
    ars objects labels steps order strategy accept query
    universal fail greatmost maxlen alternate restrict intersect unionP unionC
    word len at and or not
    enumerate apply check witness depth from horizon
    prefix factor composition closed
    """.split()
)


@dataclass(frozen=True)
class Diagnostic:
    """One positioned problem; positions are 1-based."""

    line: int
    col: int
    message: str
    expected: tuple[str, ...] = ()

    def render(self) -> str:
        return f"{self.line}:{self.col}: error: {self.message}"


class SpecLangError(StratError):
    def __init__(self, diagnostics: tuple[Diagnostic, ...]):
        self.diagnostics = diagnostics
        head = diagnostics[0].render() if diagnostics else "invalid document"
        more = f" (+{len(diagnostics) - 1} more)" if len(diagnostics) > 1 else ""
        super().__init__(head + more)


class _SyntaxFail(Exception):
    def __init__(self, diag: Diagnostic):
        self.diag = diag


# -- surface syntax trees ---------------------------------------------------------


@dataclass(frozen=True)
class SUniversal:
    pass


@dataclass(frozen=True)
class SFail:
    pass


@dataclass(frozen=True)
class SGreatmost:
    order: str


@dataclass(frozen=True)
class SMaxLen:
    bound: int


@dataclass(frozen=True)
class SAlternate:
    first: tuple[str, ...]
    second: tuple[str, ...]


@dataclass(frozen=True)
class SRestrict:
    labels: tuple[str, ...]


@dataclass(frozen=True)
class SIntersect:
    children: tuple[object, ...]


@dataclass(frozen=True)
class SUnionP:
    left: object
    right: object


@dataclass(frozen=True)
class SUnionC:
    left: object
    right: object


@dataclass(frozen=True)
class SAccept:
    child: object
    condition: object


@dataclass(frozen=True)
class AWord:
    expr: object


@dataclass(frozen=True)
class ALen:
    op: str
    bound: int


@dataclass(frozen=True)
class AAt:
    obj: str


@dataclass(frozen=True)
class AAnd:
    parts: tuple[object, ...]


@dataclass(frozen=True)
class AOr:
    parts: tuple[object, ...]


@dataclass(frozen=True)
class ANot:
    part: object


@dataclass(frozen=True)
class ARef:
    name: str


@dataclass(frozen=True)
class QEnumerate:
    strategy: str | None
    depth: int
    source: str | None


@dataclass(frozen=True)
class QApply:
    strategy: str
    source: str
    depth: int


@dataclass(frozen=True)
class QCheck:
    prop: str
    strategy: str
    depth: int


@dataclass(frozen=True)
class QWitness:
    strategy: str
    horizon: int


CHECK_PROPS = ("prefix", "factor", "composition", "closed")


@dataclass(frozen=True)
class SpecDocument:
    """A parsed, validated document in canonical shape."""

    objects: tuple[str, ...]
    labels: tuple[str, ...]
    steps: tuple[tuple[str, str, str], ...]
    orders: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    accepts: tuple[tuple[str, object], ...]
    strategies: tuple[tuple[str, object], ...]
    queries: tuple[object, ...]
    positions: dict = field(compare=False, repr=False, default_factory=dict)

    def get_order(self, name: str) -> tuple[tuple[str, str], ...]:
        for n, pairs in self.orders:
            if n == name:
                return pairs
        raise UnknownSymbol(name)

    def get_accept(self, name: str) -> object:
        for n, node in self.accepts:
            if n == name:
                return node
        raise UnknownSymbol(name)

    def get_strategy(self, name: str) -> object:
        for n, node in self.strategies:
            if n == name:
                return node
        raise UnknownSymbol(name)

    def has_strategy(self, name: str) -> bool:
        return any(n == name for n, _ in self.strategies)


# -- lexing ---------------------------------------------------------------------


_PATTERN = re.compile(
    r"(?P<skip>[ \t\r\n]+)|(?P<comment>#[^\n]*)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<int>[0-9]+)|(?P<punct><=|>=|[{}(),;:=<>|*+?])|(?P<error>.)",
    re.S,
)


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _lex(text: str) -> list[Token]:
    tokens = rational.lex(text, _PATTERN)
    bad = tokens[-1]
    if bad.kind == "error":
        line, col = _line_col(text, bad.offset)
        raise _SyntaxFail(Diagnostic(line, col, f"unexpected character {bad.text!r}"))
    return tokens


# -- parsing ---------------------------------------------------------------------


class _DocParser(rational.Grammar):
    def __init__(self, text: str):
        super().__init__(_lex(text))
        self.text = text
        self.diags: list[Diagnostic] = []
        self.ars_seen = False
        self.objects: list[str] = []
        self.labels: list[str] = []
        self.steps: list[tuple[str, str, str]] = []
        self.orders: list[tuple[str, list[tuple[str, str]]]] = []
        self.accepts: list[tuple[str, object]] = []
        self.strategies: list[tuple[str, object]] = []
        self.queries: list[object] = []
        self.positions: dict = {}
        self._object_set: set[str] = set()
        self._label_set: set[str] = set()

    # token plumbing

    def where(self, tok: Token) -> tuple[int, int]:
        return _line_col(self.text, tok.offset)

    def _found(self, tok: Token) -> str:
        return "end of input" if tok.kind == "eof" else repr(tok.text)

    def fail(self, tok: Token, desc: str, expected: tuple[str, ...] = ()) -> _SyntaxFail:
        line, col = self.where(tok)
        return _SyntaxFail(
            Diagnostic(line, col, f"expected {desc}, found {self._found(tok)}", expected)
        )

    def expect_keyword(self, k: str) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text != k:
            raise self.fail(tok, f"'{k}'", (k,))
        return self.take()

    def expect_ident(self, desc: str) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.fail(tok, desc)
        return self.take()

    def expect_int(self, desc: str = "an integer") -> tuple[int, Token]:
        tok = self.peek()
        if tok.kind != "int":
            raise self.fail(tok, desc)
        self.take()
        return int(tok.text), tok

    def diag(self, tok: Token, message: str) -> None:
        line, col = self.where(tok)
        self.diags.append(Diagnostic(line, col, message))

    def nested(self, head: Token, parse: Callable[[], object]) -> object:
        """parse(), with nesting too deep to parse or compile reported at head."""
        try:
            return parse()
        except RecursionError:
            line, col = self.where(head)
            raise _SyntaxFail(Diagnostic(line, col, "expression nesting too deep")) from None

    # name handling

    def declared_name(self, desc: str) -> Token:
        tok = self.expect_ident(desc)
        if tok.text in KEYWORDS:
            self.diag(tok, f"reserved word {tok.text!r} cannot be used as a name")
        return tok

    def check_label(self, tok: Token) -> None:
        if not self.ars_seen:
            self.diag(tok, f"label {tok.text!r} used before the ars section")
        elif tok.text not in self._label_set:
            self.diag(tok, f"unknown label {tok.text!r}")

    label = check_label  # the rational grammar's hook; word(...) labels are checked here

    def check_object(self, tok: Token) -> None:
        if not self.ars_seen:
            self.diag(tok, f"object {tok.text!r} used before the ars section")
        elif tok.text not in self._object_set:
            self.diag(tok, f"unknown object {tok.text!r}")

    def check_ref(self, tok: Token, pool: list, kind: str) -> None:
        if not any(n == tok.text for n, _ in pool):
            self.diag(tok, f"unknown {kind} {tok.text!r}")

    # document structure

    def parse_document(self) -> None:
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "ident":
                raise self.fail(tok, "a section ('ars', 'order', 'accept', 'strategy' or 'query')")
            if tok.text == "ars":
                self.parse_ars()
            elif tok.text == "order":
                self.parse_order()
            elif tok.text == "strategy":
                self.parse_strategy()
            elif tok.text == "accept":
                self.parse_accept()
            elif tok.text == "query":
                self.parse_query()
            else:
                raise self.fail(
                    tok, "a section ('ars', 'order', 'accept', 'strategy' or 'query')"
                )
        if not self.ars_seen:
            self.diags.append(Diagnostic(1, 1, "document declares no ars section"))

    def parse_ars(self) -> None:
        head = self.take()
        if self.ars_seen:
            self.diag(head, "document declares more than one ars section")
        objects: list[str] = []
        labels: list[str] = []
        self.expect_punct("{")
        self.expect_keyword("objects")
        self.expect_punct(":")
        self._id_list(objects, "an object name", set())
        self.expect_punct(";")
        self.expect_keyword("labels")
        self.expect_punct(":")
        self._id_list(labels, "a label name", set(objects))
        self.expect_punct(";")
        was_seen = self.ars_seen
        if not was_seen:
            self.objects = objects
            self.labels = labels
            self._object_set = set(objects)
            self._label_set = set(labels)
            self.ars_seen = True
        self.expect_keyword("steps")
        self.expect_punct(":")
        functional: dict[tuple[str, str], tuple[str, Token]] = {}
        steps: list[tuple[str, str, str]] = []
        if self.at_punct("("):
            self._step(steps, functional)
            while self.at_punct(","):
                self.take()
                self._step(steps, functional)
        self.expect_punct(";")
        self.expect_punct("}")
        if not was_seen:
            self.steps = steps
            self.positions[("ars",)] = self.where(head)

    def _id_list(self, into: list[str], desc: str, clashes: set[str]) -> None:
        seen: set[str] = set()
        while True:
            tok = self.declared_name(desc)
            if tok.text in seen:
                self.diag(tok, f"duplicate symbol {tok.text!r}")
            elif tok.text in clashes:
                self.diag(tok, f"{tok.text!r} is declared both as an object and as a label")
            else:
                seen.add(tok.text)
                into.append(tok.text)
            if not self.at_punct(","):
                return
            self.take()

    def _step(
        self,
        into: list[tuple[str, str, str]],
        functional: dict[tuple[str, str], tuple[str, Token]],
    ) -> None:
        open_tok = self.expect_punct("(")
        src = self.expect_ident("an object name")
        self.check_object(src)
        self.expect_punct(",")
        lab = self.expect_ident("a label name")
        self.check_label(lab)
        self.expect_punct(",")
        tgt = self.expect_ident("an object name")
        self.check_object(tgt)
        self.expect_punct(")")
        prior = functional.get((src.text, lab.text))
        if prior is not None and prior[0] != tgt.text:
            self.diag(
                open_tok,
                f"two steps from {src.text!r} with label {lab.text!r} "
                f"reach {prior[0]!r} and {tgt.text!r}",
            )
            return
        functional[(src.text, lab.text)] = (tgt.text, open_tok)
        into.append((src.text, lab.text, tgt.text))

    def parse_order(self) -> None:
        head = self.take()
        name = self.declared_name("an order name")
        if any(n == name.text for n, _ in self.orders):
            self.diag(name, f"duplicate order {name.text!r}")
        self.expect_punct("{")
        pairs: list[tuple[str, str]] = []
        while True:
            a = self.expect_ident("a label name")
            self.check_label(a)
            self.expect_punct("<")
            b = self.expect_ident("a label name")
            self.check_label(b)
            self.expect_punct(";")
            pairs.append((a.text, b.text))
            if self.at_punct("}"):
                break
        self.expect_punct("}")
        try:
            LabelOrder.from_pairs(pairs)
        except StratError as exc:
            self.diag(head, f"order {name.text!r} is not a strict order: {exc}")
        self.orders.append((name.text, pairs))
        self.positions[("order", name.text)] = self.where(head)

    def parse_strategy(self) -> None:
        head = self.take()
        name = self.declared_name("a strategy name")
        if any(n == name.text for n, _ in self.strategies):
            self.diag(name, f"duplicate strategy {name.text!r}")
        self.expect_punct("=")
        node = self.nested(head, self.parse_sexpr)
        self.expect_punct(";")
        self.strategies.append((name.text, node))
        self.positions[("strategy", name.text)] = self.where(head)

    def parse_accept(self) -> None:
        head = self.take()
        name = self.declared_name("an accepting-condition name")
        if any(n == name.text for n, _ in self.accepts):
            self.diag(name, f"duplicate accepting condition {name.text!r}")
        self.expect_punct("=")
        node = self.nested(head, self.parse_aexpr)
        self.expect_punct(";")
        self.accepts.append((name.text, node))
        self.positions[("accept", name.text)] = self.where(head)

    def parse_query(self) -> None:
        head = self.take()
        tok = self.expect_ident("a query form ('enumerate', 'apply', 'check' or 'witness')")
        if tok.text == "enumerate":
            q = self._query_enumerate()
        elif tok.text == "apply":
            q = self._query_apply()
        elif tok.text == "check":
            q = self._query_check()
        elif tok.text == "witness":
            q = self._query_witness()
        else:
            raise self.fail(tok, "a query form ('enumerate', 'apply', 'check' or 'witness')")
        self.expect_punct(";")
        self.positions[("query", len(self.queries))] = self.where(head)
        self.queries.append(q)

    def _strategy_ref(self) -> Token:
        tok = self.expect_ident("a strategy name")
        self.check_ref(tok, self.strategies, "strategy")
        return tok

    def _depth(self, minimum: int, what: str) -> int:
        value, tok = self.expect_int()
        if value < minimum:
            self.diag(tok, f"{what} must be at least {minimum}")
        return value

    def _query_enumerate(self) -> QEnumerate:
        name: str | None = None
        tok = self.peek()
        if tok.kind == "ident" and tok.text != "depth":
            name = self._strategy_ref().text
        self.expect_keyword("depth")
        depth = self._depth(1, "depth")
        source: str | None = None
        if self.peek().kind == "ident" and self.peek().text == "from":
            self.take()
            src = self.expect_ident("an object name")
            self.check_object(src)
            source = src.text
        return QEnumerate(name, depth, source)

    def _query_apply(self) -> QApply:
        name = self._strategy_ref()
        self.expect_keyword("from")
        src = self.expect_ident("an object name")
        self.check_object(src)
        self.expect_keyword("depth")
        depth = self._depth(1, "depth")
        return QApply(name.text, src.text, depth)

    def _query_check(self) -> QCheck:
        tok = self.expect_ident("a property ('prefix', 'factor', 'composition' or 'closed')")
        if tok.text not in CHECK_PROPS:
            raise self.fail(tok, "a property ('prefix', 'factor', 'composition' or 'closed')")
        name = self._strategy_ref()
        self.expect_keyword("depth")
        depth = self._depth(1, "depth")
        return QCheck(tok.text, name.text, depth)

    def _query_witness(self) -> QWitness:
        name = self._strategy_ref()
        self.expect_keyword("horizon")
        horizon = self._depth(2, "horizon")
        return QWitness(name.text, horizon)

    # strategy expressions

    def parse_sexpr(self) -> object:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.fail(tok, "a strategy expression")
        t = tok.text
        if t == "universal":
            self.take()
            return SUniversal()
        if t == "fail":
            self.take()
            return SFail()
        if t == "greatmost":
            self.take()
            self.expect_punct("(")
            name = self.expect_ident("an order name")
            self.check_ref(name, self.orders, "order")
            self.expect_punct(")")
            return SGreatmost(name.text)
        if t == "maxlen":
            self.take()
            self.expect_punct("(")
            bound, _ = self.expect_int()
            self.expect_punct(")")
            return SMaxLen(bound)
        if t == "alternate":
            self.take()
            self.expect_punct("(")
            first = self._label_set_lit()
            self.expect_punct(";")
            second = self._label_set_lit()
            self.expect_punct(")")
            return SAlternate(first, second)
        if t == "restrict":
            self.take()
            self.expect_punct("(")
            labels = self._label_set_lit()
            self.expect_punct(")")
            return SRestrict(labels)
        if t == "intersect":
            self.take()
            self.expect_punct("(")
            parts = [self.parse_sexpr()]
            self.expect_punct(",")
            parts.append(self.parse_sexpr())
            while self.at_punct(","):
                self.take()
                parts.append(self.parse_sexpr())
            self.expect_punct(")")
            return SIntersect(tuple(parts))
        if t in ("unionP", "unionC"):
            self.take()
            self.expect_punct("(")
            left = self.parse_sexpr()
            self.expect_punct(",")
            right = self.parse_sexpr()
            self.expect_punct(")")
            return SUnionP(left, right) if t == "unionP" else SUnionC(left, right)
        if t == "accept":
            self.take()
            self.expect_punct("(")
            child = self.parse_sexpr()
            self.expect_punct(",")
            cond = self.parse_aexpr()
            self.expect_punct(")")
            return SAccept(child, cond)
        raise self.fail(tok, "a strategy expression")

    def _label_set_lit(self) -> tuple[str, ...]:
        self.expect_punct("{")
        names: list[str] = []
        if not self.at_punct("}"):
            while True:
                tok = self.expect_ident("a label name")
                self.check_label(tok)
                names.append(tok.text)
                if not self.at_punct(","):
                    break
                self.take()
        self.expect_punct("}")
        return tuple(names)

    # accepting-condition expressions

    def parse_aexpr(self) -> object:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.fail(tok, "an accepting condition")
        t = tok.text
        if t == "word":
            self.take()
            self.expect_punct("(")
            expr = self.parse_alt()
            self.expect_punct(")")
            rational.compile_expr(expr)  # deep nesting fails here, not at the first match
            return AWord(expr)
        if t == "len":
            self.take()
            op = self.peek()
            if op.kind != "punct" or op.text not in ("<", "<=", "=", ">=", ">"):
                raise self.fail(op, "a comparison ('<', '<=', '=', '>=' or '>')")
            self.take()
            bound, _ = self.expect_int()
            return ALen(op.text, bound)
        if t == "at":
            self.take()
            self.expect_punct("(")
            obj = self.expect_ident("an object name")
            self.check_object(obj)
            self.expect_punct(")")
            return AAt(obj.text)
        if t in ("and", "or"):
            self.take()
            self.expect_punct("(")
            parts = [self.parse_aexpr()]
            self.expect_punct(",")
            parts.append(self.parse_aexpr())
            while self.at_punct(","):
                self.take()
                parts.append(self.parse_aexpr())
            self.expect_punct(")")
            return AAnd(tuple(parts)) if t == "and" else AOr(tuple(parts))
        if t == "not":
            self.take()
            self.expect_punct("(")
            part = self.parse_aexpr()
            self.expect_punct(")")
            return ANot(part)
        if t not in KEYWORDS:
            self.take()
            self.check_ref(tok, self.accepts, "accepting condition")
            return ARef(tok.text)
        raise self.fail(tok, "an accepting condition")


def parse(text: str) -> SpecDocument:
    """Parse and validate a document; raises SpecLangError with diagnostics."""
    parser: _DocParser | None = None
    try:
        parser = _DocParser(text)
        parser.parse_document()
    except _SyntaxFail as fail:
        diags = parser.diags if parser is not None else []
        raise SpecLangError((*diags, fail.diag)) from None
    if parser.diags:
        raise SpecLangError(tuple(parser.diags))
    return _canonical(parser)


def _canonical(p: _DocParser) -> SpecDocument:
    oi = {name: i for i, name in enumerate(p.objects)}
    li = {name: i for i, name in enumerate(p.labels)}.__getitem__

    def canon_sexpr(node: object) -> object:
        if isinstance(node, SAlternate):
            return SAlternate(_sorted_labels(node.first, li), _sorted_labels(node.second, li))
        if isinstance(node, SRestrict):
            return SRestrict(_sorted_labels(node.labels, li))
        if isinstance(node, SIntersect):
            return SIntersect(tuple(canon_sexpr(c) for c in node.children))
        if isinstance(node, SUnionP):
            return SUnionP(canon_sexpr(node.left), canon_sexpr(node.right))
        if isinstance(node, SUnionC):
            return SUnionC(canon_sexpr(node.left), canon_sexpr(node.right))
        if isinstance(node, SAccept):
            return SAccept(canon_sexpr(node.child), node.condition)
        return node

    orders = tuple(
        sorted(
            (
                (name, tuple(sorted(set(pairs), key=lambda pr: (li(pr[0]), li(pr[1])))))
                for name, pairs in p.orders
            ),
            key=lambda kv: kv[0],
        )
    )
    strategies = tuple(
        sorted(((name, canon_sexpr(node)) for name, node in p.strategies), key=lambda kv: kv[0])
    )
    return SpecDocument(
        objects=tuple(p.objects),
        labels=tuple(p.labels),
        steps=tuple(sorted(set(p.steps), key=lambda s: (oi[s[0]], li(s[1])))),
        orders=orders,
        accepts=tuple(p.accepts),
        strategies=strategies,
        queries=tuple(p.queries),
        positions=p.positions,
    )


def _sorted_labels(names: tuple[str, ...], li: Callable[[str], int]) -> tuple[str, ...]:
    return tuple(sorted(set(names), key=li))


# -- serialization ----------------------------------------------------------------


def serialize(doc: SpecDocument) -> str:
    """Canonical text of a valid document; parse(serialize(doc)) == doc."""
    lines: list[str] = []
    lines.append("ars {")
    lines.append(f"  objects: {', '.join(doc.objects)};")
    lines.append(f"  labels: {', '.join(doc.labels)};")
    if doc.steps:
        lines.append("  steps:")
        for i, (src, lab, tgt) in enumerate(doc.steps):
            mark = ";" if i == len(doc.steps) - 1 else ","
            lines.append(f"    ({src}, {lab}, {tgt}){mark}")
    else:
        lines.append("  steps: ;")
    lines.append("}")
    for name, pairs in doc.orders:
        lines.append(f"order {name} {{")
        for a, b in pairs:
            lines.append(f"  {a} < {b};")
        lines.append("}")
    for name, node in doc.accepts:
        lines.append(f"accept {name} = {_render_aexpr(node)};")
    for name, node in doc.strategies:
        lines.append(f"strategy {name} = {_render_sexpr(node)};")
    for q in doc.queries:
        lines.append(_render_query(q))
    return "\n".join(lines) + "\n"


def _render_label_set(names: tuple[str, ...]) -> str:
    return "{" + ", ".join(names) + "}"


def _render_sexpr(node: object) -> str:
    if isinstance(node, SUniversal):
        return "universal"
    if isinstance(node, SFail):
        return "fail"
    if isinstance(node, SGreatmost):
        return f"greatmost({node.order})"
    if isinstance(node, SMaxLen):
        return f"maxlen({node.bound})"
    if isinstance(node, SAlternate):
        return (
            f"alternate({_render_label_set(node.first)}; {_render_label_set(node.second)})"
        )
    if isinstance(node, SRestrict):
        return f"restrict({_render_label_set(node.labels)})"
    if isinstance(node, SIntersect):
        return f"intersect({', '.join(_render_sexpr(c) for c in node.children)})"
    if isinstance(node, SUnionP):
        return f"unionP({_render_sexpr(node.left)}, {_render_sexpr(node.right)})"
    if isinstance(node, SUnionC):
        return f"unionC({_render_sexpr(node.left)}, {_render_sexpr(node.right)})"
    if isinstance(node, SAccept):
        return f"accept({_render_sexpr(node.child)}, {_render_aexpr(node.condition)})"
    raise TypeError(f"not a strategy expression node: {node!r}")


def _render_aexpr(node: object) -> str:
    if isinstance(node, AWord):
        return f"word({rational.render(node.expr)})"
    if isinstance(node, ALen):
        return f"len {node.op} {node.bound}"
    if isinstance(node, AAt):
        return f"at({node.obj})"
    if isinstance(node, AAnd):
        return f"and({', '.join(_render_aexpr(x) for x in node.parts)})"
    if isinstance(node, AOr):
        return f"or({', '.join(_render_aexpr(x) for x in node.parts)})"
    if isinstance(node, ANot):
        return f"not({_render_aexpr(node.part)})"
    if isinstance(node, ARef):
        return node.name
    raise TypeError(f"not an accepting-condition node: {node!r}")


def _render_query(q: object) -> str:
    if isinstance(q, QEnumerate):
        name = f" {q.strategy}" if q.strategy else ""
        source = f" from {q.source}" if q.source else ""
        return f"query enumerate{name} depth {q.depth}{source};"
    if isinstance(q, QApply):
        return f"query apply {q.strategy} from {q.source} depth {q.depth};"
    if isinstance(q, QCheck):
        return f"query check {q.prop} {q.strategy} depth {q.depth};"
    if isinstance(q, QWitness):
        return f"query witness {q.strategy} horizon {q.horizon};"
    raise TypeError(f"not a query node: {q!r}")


# -- building core values from a document ------------------------------------------


def build_ars(doc: SpecDocument) -> Ars:
    return Ars(doc.objects, doc.labels, doc.steps)


def build_order(doc: SpecDocument, name: str) -> LabelOrder:
    return LabelOrder.from_pairs(doc.get_order(name))


def build_accept(doc: SpecDocument, node: object) -> AcceptCondition:
    """Resolve an accepting-condition node (or a name) to a condition value."""
    if isinstance(node, str):
        node = doc.get_accept(node)
    if isinstance(node, AWord):
        return LabelWordIn(node.expr)
    if isinstance(node, ALen):
        return _len_condition(node.op, node.bound)
    if isinstance(node, AAt):
        return AtObject(node.obj)
    if isinstance(node, AAnd):
        return And(tuple(build_accept(doc, x) for x in node.parts))
    if isinstance(node, AOr):
        return Or(tuple(build_accept(doc, x) for x in node.parts))
    if isinstance(node, ANot):
        return Not(build_accept(doc, node.part))
    if isinstance(node, ARef):
        return build_accept(doc, node.name)
    raise TypeError(f"not an accepting-condition node: {node!r}")


def _len_condition(op: str, bound: int) -> AcceptCondition:
    if op == "<":
        return LenAtMost(bound - 1)
    if op == "<=":
        return LenAtMost(bound)
    if op == "=":
        return LenEq(bound)
    if op == ">=":
        return LenAtLeast(bound)
    return LenAtLeast(bound + 1)


def build_strategy(doc: SpecDocument, node: object, ars: Ars | None = None) -> Strategy:
    """Resolve a strategy-expression node (or a name) to a strategy value."""
    if isinstance(node, str):
        node = doc.get_strategy(node)
    if ars is None:
        ars = build_ars(doc)
    if isinstance(node, SUniversal):
        return Universal()
    if isinstance(node, SFail):
        return Fail()
    if isinstance(node, SGreatmost):
        return Greatmost(build_order(doc, node.order))
    if isinstance(node, SMaxLen):
        return MaxLen(node.bound)
    if isinstance(node, SAlternate):
        first = frozenset(s for s in ars.steps if s.label in set(node.first))
        second = frozenset(s for s in ars.steps if s.label in set(node.second))
        return Alternate(first, second)
    if isinstance(node, SRestrict):
        return RestrictLabels(frozenset(node.labels))
    if isinstance(node, SIntersect):
        return Intersect(tuple(build_strategy(doc, c, ars) for c in node.children))
    if isinstance(node, SUnionP):
        return UnionPointwise(
            (build_strategy(doc, node.left, ars), build_strategy(doc, node.right, ars))
        )
    if isinstance(node, SUnionC):
        return UnionCommitted(
            (build_strategy(doc, node.left, ars), build_strategy(doc, node.right, ars))
        )
    if isinstance(node, SAccept):
        return AcceptFiltered(
            build_strategy(doc, node.child, ars), build_accept(doc, node.condition)
        )
    raise TypeError(f"not a strategy expression node: {node!r}")
