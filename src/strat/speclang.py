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
section per document. A strategy or accept section nests at most MAX_NESTING
strategy and condition levels, counting the levels of the accepts it names.

serialize emits the canonical form: LF line endings, two-space indentation,
steps and order pairs sorted by symbol index, orders and strategies sorted
by name, accepting conditions and queries kept in declaration order (accepts
may reference earlier accepts), label sets sorted and deduplicated. On valid
documents parse(serialize(doc)) equals doc structurally and serialization is
idempotent. Every parse failure raises SpecLangError carrying at least one
Diagnostic with a 1-based line and column.

The fast read lexes a document with one findall (_fast_lex), which skips
space and comments inside the match of the token after them and gives the
lists after `objects:`, `labels:` and `steps:` in chunks of up to 65 items.
The bound matters: sre keeps a backtracking record per repetition of a
group, so one match of a group repeated without bound holds memory that
grows with the list (about 2 MiB per 3,000 steps), and the possessive repeat
that would not is Python 3.11 syntax. The parser builds a chunk's Steps,
three names each, as they are, and checks a chunk of names only for a
reserved word or a name given twice; the rest is checked by the Ars that
parse builds once from the lists (which keeps the Steps and sorts them) and
keeps on the document. The fast read keeps no offsets: at its first problem
of any kind, parse reads the text again token by token (rational.lex), which
gives every diagnostic at its line and column, so there is one validator. A
document's positions come from that read the first time they are asked for.

Each strategy, condition and query kind is defined once, by one node class:
the `_node` decorator gives the class its keyword, its syntax template
(words and punctuation as strings, one argument kind per field, and optional
groups of one argument) and its builder, and registers it in `_STRATEGIES`,
`_CONDITIONS` or `_QUERIES`. Reading (which sorts label sets as it goes),
writing and building all walk that one template: adding a kind is adding a
class.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import compress, count, repeat
from operator import contains, methodcaller
from typing import Callable, NamedTuple

from . import rational
from .ars import Ars, Step
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
from .rational import LETTERS
from .value import Value

MAX_NESTING = 100  # strategy and condition levels of one section, named accepts included


class Diagnostic(Value):
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


# -- lexing ---------------------------------------------------------------------

# Patterns are compiled through re's cache when the first document is read, not at import.
_SPACE = " \t\r\n"  # the lexer's space: any other character it does not expect is an error
_WS = f"[{_SPACE}]"
_NAME = r"[A-Za-z][A-Za-z0-9_]*"
_DIGITS = frozenset("0123456789")
_SEPARATORS = str.maketrans("(),", "   ")  # between the names of a chunk
# the token-by-token read (rational.lex): one token per name, number and punctuation mark
_PATTERN = (
    rf"(?P<skip>{_WS}+)|(?P<comment>#[^\n]*)|(?P<ident>{_NAME})"
    r"|(?P<int>[0-9]+)|(?P<punct><=|>=|[{}(),;:=<>|*+?])|(?P<error>.)"
)
# the fast read: a match is a token with the space and comments before it (each
# comment kept whole, so that no backtracking starts a token inside one)
_SKIP = rf"{_WS}*(?:#[^\n]*(?![^\n]){_WS}*)*"
_STEP = rf"\({_WS}*{_NAME}{_WS}*,{_WS}*{_NAME}{_WS}*,{_WS}*{_NAME}{_WS}*\)"


def _chunk(item: str) -> str:
    """Up to 65 items between commas; then the comma after them, if whitespace and an item follow it."""
    return rf"{item}(?:{_WS}*,{_WS}*{item}){{0,64}}(?:{_WS}*,(?={_SKIP}(?<={_WS}){item}))?"


_FAST = (
    rf"(?<=[:{_SPACE}]){_SKIP}(?:{_chunk(_STEP)}|{_chunk(_NAME)})(?:(?<=,){_SKIP})?"
    rf"|{_SKIP}(?:{_NAME}|[0-9]+|<=|>=|[^{_SPACE}#])|{_SKIP}\Z"
)


def _fast_lex(text: str) -> list[str]:
    """The fast read's tokens, by one findall: names, numbers, punctuation marks
    and each character the lexer rejects, "" at the end, and the lists after
    `objects:`, `labels:` and `steps:` in chunks. A chunk starts right after ':'
    or after the whitespace that a chunk ending with a comma took; no other
    match ends in whitespace, so no chunk starts inside a label set or a list of
    strategies, and a chunk ends with that whitespace just when it took the
    comma. The pattern has no group, which would cost sre a save per
    repetition in a chunk: a match is cut to its token by stripping the space
    and comments before it, which copies no chunk but the first of a list."""
    tokens = list(map(str.lstrip, re.compile(_FAST).findall(text), repeat(_SPACE)))
    if "#" in text:
        for i in compress(count(), map(contains, tokens, repeat("#"))):
            tokens[i] = re.sub("#[^\n]*", "", tokens[i]).lstrip(_SPACE)
    return tokens


def _chunk_names(chunk: str) -> list[str]:
    """The names of a chunk, in order: it holds only names, space, commas and parentheses."""
    return chunk.translate(_SEPARATORS).split()


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _lex(text: str) -> tuple[list[str], list[int]]:
    """The token-by-token read's tokens and offsets; lexing is eager, so the
    first character the lexer rejects is reported before anything is parsed."""
    tokens, offsets = rational.lex(text, re.compile(_PATTERN))
    if tokens[-1]:
        line, col = _line_col(text, offsets[-1])
        raise _SyntaxFail(Diagnostic(line, col, f"unexpected character {tokens[-1]!r}"))
    return tokens, offsets


# -- parsing ---------------------------------------------------------------------


class _DocParser(rational.Grammar):
    def __init__(self, text: str, tokens: list[str], offsets: list[int] | None):
        super().__init__(tokens, offsets)
        self.text = text
        self.diags: list[Diagnostic] = []
        self.ars_seen = False
        self.objects: list[str] = []
        self.labels: list[str] = []
        self.steps: list[Step] = []
        self.orders: list[tuple[str, list[tuple[str, str]]]] = []
        self.accepts: list[tuple[str, object]] = []
        self.strategies: list[tuple[str, object]] = []
        self.queries: list[object] = []
        self.positions: dict = {}  # the index of each section's keyword, by the section's key
        self._object_set: set[str] = set()
        self._label_index: dict[str, int] = {}
        self.head = 0  # index of the keyword of the section being read
        self.level = 0  # strategy and condition nodes open in that section
        self.deepest = 0
        self.accept_levels: dict[str, int] = {}

    # token plumbing

    def where(self, i: int) -> tuple[int, int]:
        """Line and column of token i. The fast read keeps no offsets: it ends at
        the first problem, which the token-by-token read then reports."""
        if self.offsets is None:
            raise ValueError("left to the token-by-token read")
        return _line_col(self.text, self.offsets[i])

    def fail(self, desc: str, expected: tuple[str, ...] = ()) -> _SyntaxFail:
        line, col = self.where(self.pos)
        tok = self.tokens[self.pos]
        found = repr(tok) if tok else "end of input"
        return _SyntaxFail(Diagnostic(line, col, f"expected {desc}, found {found}", expected))

    def expect_ident(self, desc: str) -> int:
        """Passes the identifier at the cursor; returns its index."""
        if self.tokens[self.pos][:1] not in LETTERS:
            raise self.fail(desc)
        self.pos += 1
        return self.pos - 1

    def diag(self, i: int, message: str) -> None:
        line, col = self.where(i)
        self.diags.append(Diagnostic(line, col, message))

    def too_deep(self) -> _SyntaxFail:
        line, col = self.where(self.head)
        return _SyntaxFail(Diagnostic(line, col, "expression nesting too deep"))

    def reach(self, level: int) -> None:
        if level > MAX_NESTING:
            raise self.too_deep()
        self.deepest = max(self.deepest, level)

    # name handling

    def declared_name(self, desc: str) -> int:
        i = self.expect_ident(desc)
        if self.tokens[i] in KEYWORDS:
            self.diag(i, f"reserved word {self.tokens[i]!r} cannot be used as a name")
        return i

    def check_label(self, i: int) -> None:
        name = self.tokens[i]
        if not self.ars_seen:
            self.diag(i, f"label {name!r} used before the ars section")
        elif name not in self._label_index:
            self.diag(i, f"unknown label {name!r}")

    label = check_label  # the rational grammar's hook; word(...) labels are checked here

    def check_object(self, i: int) -> None:
        name = self.tokens[i]
        if not self.ars_seen:
            self.diag(i, f"object {name!r} used before the ars section")
        elif name not in self._object_set:
            self.diag(i, f"unknown object {name!r}")

    # document structure

    def parse_document(self) -> None:
        while tok := self.peek():
            section = _SECTIONS.get(tok)
            if section is None:
                raise self.fail(_SECTION_DESC)
            section(self)
        if not self.ars_seen:
            self.diags.append(Diagnostic(1, 1, "document declares no ars section"))

    def parse_ars(self) -> None:
        head = self.pos
        self.take()
        if self.ars_seen:
            self.diag(head, "document declares more than one ars section")
        self.expect("{")
        objects = self._id_list("objects", "an object name", set())
        labels = self._id_list("labels", "a label name", set(objects))
        was_seen = self.ars_seen
        if not was_seen:
            self.objects, self._object_set = objects, set(objects)
            self.labels, self._label_index = labels, {name: i for i, name in enumerate(labels)}
            self.ars_seen = True
        self.expect("steps")
        self.expect(":")
        targets: dict[tuple[str, str], str] = {}
        steps: list[Step] = []
        chunks: list[str] = []
        if self.peek()[:1] == "(":  # a step, or a chunk of them
            self.items(lambda: self._steps(steps, targets, chunks))
        names = _chunk_names(" ".join(chunks))  # at once: Ars read Steps built chunk by chunk 10% slower
        steps += map(tuple.__new__, repeat(Step), zip(names[0::3], names[1::3], names[2::3]))
        self.expect(";")
        self.expect("}")
        if not was_seen:
            self.steps = steps
            self.positions[("ars",)] = head

    def items(self, read: Callable[[], None]) -> None:
        """`item, ...`, each item read by read; a chunk of the fast read that ends
        with whitespace took the comma after its last item."""
        read()
        while self.tokens[self.pos - 1][-1] in _SPACE or self.at(",") and self.take():
            read()

    def _id_list(self, keyword: str, desc: str, clashes: set[str]) -> list[str]:
        """`keyword: name, ...;` with each name declared once.

        A chunk of the fast read is split into its names, which are checked
        only for a reserved word or a name given twice: a name on both lists
        is left to Ars. Either fault ends the fast read.
        """
        self.expect(keyword)
        self.expect(":")
        names: dict[str, None] = {}  # in declaration order

        def name() -> None:
            tok = self.peek()
            if "," in tok[1:] and tok[0] in LETTERS:  # a chunk of two names or more
                chunk = _chunk_names(tok)
                known = len(names)
                names.update(dict.fromkeys(chunk))
                if len(names) - known < len(chunk) or not KEYWORDS.isdisjoint(chunk):
                    raise ValueError("a reserved or repeated name")
                self.pos += 1
                return
            i = self.declared_name(desc)
            if self.tokens[i] in names:
                self.diag(i, f"duplicate symbol {self.tokens[i]!r}")
            elif self.tokens[i] in clashes:
                self.diag(i, f"{self.tokens[i]!r} is declared both as an object and as a label")
            else:
                names[self.tokens[i]] = None

        self.items(name)
        self.expect(";")
        return list(names)

    def _steps(self, into: list[Step], targets: dict[tuple[str, str], str], chunks: list[str]) -> None:
        """One step, or a chunk of the fast read.

        A chunk is kept in chunks, whose steps parse_ars takes as they are: the
        Ars that parse builds checks their symbols and functionality. A step read
        token by token has each name checked as it is read, then is checked
        against the earlier steps read that way (_add_step).
        """
        tok = self.peek()
        if len(tok) > 1 and tok[0] == "(":
            chunks.append(tok)
            self.pos += 1
            return
        at = self.pos
        self.expect("(")
        src = self.object_name()
        self.expect(",")
        lab = self.label_name()
        self.expect(",")
        tgt = self.object_name()
        self.expect(")")
        self._add_step(into, targets, Step(src, lab, tgt), at)

    def _add_step(self, into: list, targets: dict, step: Step, at: int) -> None:
        """Keeps a step unless an earlier one from its source by its label reaches
        another target; at is the index of its '('."""
        src, lab, tgt = step
        prior = targets.setdefault((src, lab), tgt)
        if prior != tgt:
            self.diag(at, f"two steps from {src!r} with label {lab!r} reach {prior!r} and {tgt!r}")
        else:
            into.append(step)

    def parse_order(self) -> None:
        head = self.pos
        self.take()
        i = self.declared_name("an order name")
        name = self.tokens[i]
        if any(n == name for n, _ in self.orders):
            self.diag(i, f"duplicate order {name!r}")
        self.expect("{")
        pairs: list[tuple[str, str]] = []
        while True:
            a = self.label_name()
            self.expect("<")
            b = self.label_name()
            self.expect(";")
            pairs.append((a, b))
            if self.at("}"):
                break
        self.expect("}")
        try:
            LabelOrder.from_pairs(pairs)
        except StratError as exc:
            self.diag(head, f"order {name!r} is not a strict order: {exc}")
        self.orders.append((name, pairs))
        self.positions[("order", name)] = head

    def parse_strategy(self) -> None:
        self.definition(self.strategies, "a strategy name", "strategy", STRATEGY)

    def parse_accept(self) -> None:
        desc = "an accepting-condition name"
        name = self.definition(self.accepts, desc, "accepting condition", CONDITION)
        self.accept_levels[name] = self.deepest

    def definition(self, pool: list, name_desc: str, what: str, kind: _Kind) -> str:
        """One `strategy` or `accept` section, whose expression is of kind; returns its name."""
        self.head = head = self.pos
        self.take()
        i = self.declared_name(name_desc)
        name = self.tokens[i]
        if any(n == name for n, _ in pool):
            self.diag(i, f"duplicate {what} {name!r}")
        self.expect("=")
        self.level = self.deepest = 0
        try:
            node = kind.read(self)
        except RecursionError:  # a word(...) too deep to parse or compile
            raise self.too_deep() from None
        self.expect(";")
        pool.append((name, node))
        self.positions[(self.tokens[head], name)] = head
        return name

    def parse_query(self) -> None:
        head = self.pos
        self.take()
        q = self.node(_QUERIES, _QUERY_DESC)
        self.expect(";")
        self.positions[("query", len(self.queries))] = head
        self.queries.append(q)

    # nodes: a keyword of a table, then the values its template reads

    def node(self, table: dict, desc: str) -> object:
        tok = self.peek()
        cls = table.get(tok)
        if cls is None:
            if table is not _CONDITIONS or tok[:1] not in LETTERS or tok in KEYWORDS:
                raise self.fail(desc)
            name = self.reference(desc, "accepts", "accepting condition")
            self.reach(self.level + self.accept_levels.get(name, 1))
            return ARef(name)
        self.pos += 1
        self.level += 1
        if self.level > self.deepest:
            self.reach(self.level)
        node = cls(*self.values(cls.syntax))
        self.level -= 1
        return node

    def values(self, syntax: tuple) -> list:
        """The values of a template's arguments, read by walking it as _written
        writes it; its words and punctuation are checked here."""
        values = []
        for i, piece in enumerate(syntax):
            if piece.__class__ is str:
                self.expect(piece)
            elif piece.__class__ is _Optional:
                # a group opens with its own word, or else with any word but the next piece
                tok, first = self.peek(), piece.syntax[0]
                opens = tok == first if isinstance(first, str) else tok not in syntax[i + 1 : i + 2]
                values.append(self.values(piece.syntax)[0] if tok[:1] in LETTERS and opens else None)
            else:
                values.append(piece.read(self))
        return values

    # template arguments

    def several(self, table: dict, desc: str) -> tuple:
        parts = [self.node(table, desc)]
        while len(parts) < 2 or self.at(","):
            self.expect(",")
            parts.append(self.node(table, desc))
        return tuple(parts)

    def label_name(self) -> str:
        i = self.expect_ident("a label name")
        self.check_label(i)
        return self.tokens[i]

    def object_name(self) -> str:
        i = self.expect_ident("an object name")
        self.check_object(i)
        return self.tokens[i]

    def label_set(self) -> tuple[str, ...]:
        """`{label, ...}`, in canonical form: sorted by label index, each label once."""
        self.expect("{")
        names: set[str] = set()
        if not self.at("}"):
            names.add(self.label_name())
            while self.at(","):
                self.take()
                names.add(self.label_name())
        self.expect("}")
        return tuple(sorted(names, key=lambda name: self._label_index.get(name, -1)))

    def reference(self, desc: str, pool: str, kind: str) -> str:
        i = self.expect_ident(desc)
        name = self.tokens[i]
        if not any(n == name for n, _ in getattr(self, pool)):
            self.diag(i, f"unknown {kind} {name!r}")
        return name

    def at_least(self, minimum: int, what: str) -> int:
        i = self.pos
        if self.tokens[i][:1] not in _DIGITS:
            raise self.fail("an integer")
        self.pos += 1
        value = int(self.tokens[i])
        if value < minimum:
            self.diag(i, f"{what} must be at least {minimum}")
        return value

    def choice(self, words, desc: str) -> str:
        tok = self.peek()
        if tok not in words:
            raise self.fail(desc)
        self.pos += 1
        return tok


# -- the generic walks over node templates ------------------------------------------

_TIGHT = frozenset("(),;")  # written without a space before them


def _render(node: object) -> str:
    """The node's keyword, then its template with the field values written in."""
    if node.__class__ is ARef:
        return node.name
    text = node.keyword
    for word in _written(node.syntax, iter([getattr(node, f) for f, _ in node.arguments])):
        text += word if word in _TIGHT or text[-1] == "(" else " " + word
    return text


def _written(syntax: tuple, values) -> object:
    for piece in syntax:
        if isinstance(piece, str):
            yield piece
        elif isinstance(piece, _Optional):
            value = next(values)
            if value is not None:
                yield from _written(piece.syntax, iter([value]))
        else:
            yield piece.render(next(values))


def _build(doc: SpecDocument, ars: Ars | None, node: object) -> object:
    cls = node.__class__
    if cls is ARef:
        return _build(doc, ars, doc.get_accept(node.name))
    return cls.build(*[kind.build(doc, ars, getattr(node, f)) for f, kind in cls.arguments])


# -- argument kinds and templates ------------------------------------------------------


class _Kind(NamedTuple):
    """An argument kind: how a template reads, writes and builds it."""

    read: Callable  # _DocParser -> value
    render: Callable[[object], str] = str
    build: Callable = lambda doc, ars, value: value  # (doc, ars, value) -> built value


class _Optional(NamedTuple):
    """A group of a template that holds one argument and may be left out."""

    syntax: tuple


def _several(one: _Kind, table: dict, desc: str) -> _Kind:
    """Two or more of one, separated by commas."""
    return _Kind(
        methodcaller("several", table, desc),
        lambda values: ", ".join(map(one.render, values)),
        lambda doc, ars, values: tuple(one.build(doc, ars, v) for v in values),
    )


def _one_of(what: str, words) -> str:
    quoted = [f"'{w}'" for w in words]
    return f"{what} ({', '.join(quoted[:-1])} or {quoted[-1]})"


_STRATEGIES: dict[str, type] = {}
_CONDITIONS: dict[str, type] = {}
_QUERIES: dict[str, type] = {}
_STRATEGY_DESC, _CONDITION_DESC = "a strategy expression", "an accepting condition"
_LENGTHS = {
    "<": lambda n: LenAtMost(n - 1),
    "<=": LenAtMost,
    "=": LenEq,
    ">=": LenAtLeast,
    ">": lambda n: LenAtLeast(n + 1),
}
CHECK_PROPS = ("prefix", "factor", "composition", "closed")

STRATEGY = _Kind(methodcaller("node", _STRATEGIES, _STRATEGY_DESC), _render, _build)
STRATEGIES = _several(STRATEGY, _STRATEGIES, _STRATEGY_DESC)
CONDITION = _Kind(methodcaller("node", _CONDITIONS, _CONDITION_DESC), _render, _build)
CONDITIONS = _several(CONDITION, _CONDITIONS, _CONDITION_DESC)
LABEL_SET = _Kind(
    methodcaller("label_set"),
    lambda names: "{" + ", ".join(names) + "}",
    lambda doc, ars, names: frozenset(names),
)
STEP_SET = LABEL_SET._replace(  # the label set built once, not once per step
    build=lambda doc, ars, names: frozenset(s for kept in [set(names)] for s in ars.steps if s.label in kept)
)
ORDER = _Kind(
    methodcaller("reference", "an order name", "orders", "order"),
    build=lambda doc, ars, name: build_order(doc, name),
)
INTEGER = _Kind(methodcaller("at_least", 0, "an integer"))
OBJECT = _Kind(methodcaller("object_name"))
WORD = _Kind(methodcaller("parse_alt"), rational.render)
COMPARISON = _Kind(methodcaller("choice", _LENGTHS, _one_of("a comparison", _LENGTHS)))
STRATEGY_NAME = _Kind(methodcaller("reference", "a strategy name", "strategies", "strategy"))
PROPERTY = _Kind(methodcaller("choice", CHECK_PROPS, _one_of("a property", CHECK_PROPS)))
DEPTH = _Kind(methodcaller("at_least", 1, "depth"))
HORIZON = _Kind(methodcaller("at_least", 2, "horizon"))


def _flat(syntax: tuple):
    for piece in syntax:
        yield from _flat(piece.syntax) if isinstance(piece, _Optional) else (piece,)


def _node(table: dict, keyword: str, *syntax, build: Callable | None = None):
    """Class decorator: a frozen node of keyword, read and written by syntax, built by build."""

    def define(cls: type) -> type:
        kinds = [piece for piece in _flat(syntax) if not isinstance(piece, str)]
        cls.keyword, cls.syntax, cls.build = keyword, syntax, build
        cls.arguments = tuple(zip(cls.__match_args__, kinds, strict=True))
        table[keyword] = cls
        return cls

    return define


# -- surface syntax trees ---------------------------------------------------------


@_node(_STRATEGIES, "universal", build=Universal)
class SUniversal(Value):
    pass


@_node(_STRATEGIES, "fail", build=Fail)
class SFail(Value):
    pass


@_node(_STRATEGIES, "greatmost", "(", ORDER, ")", build=Greatmost)
class SGreatmost(Value):
    order: str


@_node(_STRATEGIES, "maxlen", "(", INTEGER, ")", build=MaxLen)
class SMaxLen(Value):
    bound: int


@_node(_STRATEGIES, "alternate", "(", STEP_SET, ";", STEP_SET, ")", build=Alternate)
class SAlternate(Value):
    first: tuple[str, ...]
    second: tuple[str, ...]


@_node(_STRATEGIES, "restrict", "(", LABEL_SET, ")", build=RestrictLabels)
class SRestrict(Value):
    labels: tuple[str, ...]


@_node(_STRATEGIES, "intersect", "(", STRATEGIES, ")", build=Intersect)
class SIntersect(Value):
    children: tuple[object, ...]


@_node(
    _STRATEGIES, "unionP", "(", STRATEGY, ",", STRATEGY, ")",
    build=lambda left, right: UnionPointwise((left, right)),
)
class SUnionP(Value):
    left: object
    right: object


@_node(
    _STRATEGIES, "unionC", "(", STRATEGY, ",", STRATEGY, ")",
    build=lambda left, right: UnionCommitted((left, right)),
)
class SUnionC(Value):
    left: object
    right: object


@_node(_STRATEGIES, "accept", "(", STRATEGY, ",", CONDITION, ")", build=AcceptFiltered)
class SAccept(Value):
    child: object
    condition: object


@_node(_CONDITIONS, "word", "(", WORD, ")", build=LabelWordIn)
class AWord(Value):
    expr: object

    def __post_init__(self) -> None:
        rational.compile_expr(self.expr)  # deep nesting fails here, not at the first match


@_node(_CONDITIONS, "len", COMPARISON, INTEGER, build=lambda op, bound: _LENGTHS[op](bound))
class ALen(Value):
    op: str
    bound: int


@_node(_CONDITIONS, "at", "(", OBJECT, ")", build=AtObject)
class AAt(Value):
    obj: str


@_node(_CONDITIONS, "and", "(", CONDITIONS, ")", build=And)
class AAnd(Value):
    parts: tuple[object, ...]


@_node(_CONDITIONS, "or", "(", CONDITIONS, ")", build=Or)
class AOr(Value):
    parts: tuple[object, ...]


@_node(_CONDITIONS, "not", "(", CONDITION, ")", build=Not)
class ANot(Value):
    part: object


class ARef(Value):
    """The name of an earlier accept, where a condition goes."""

    name: str


@_node(
    _QUERIES, "enumerate", _Optional((STRATEGY_NAME,)), "depth", DEPTH, _Optional(("from", OBJECT))
)
class QEnumerate(Value):
    strategy: str | None
    depth: int
    source: str | None


@_node(_QUERIES, "apply", STRATEGY_NAME, "from", OBJECT, "depth", DEPTH)
class QApply(Value):
    strategy: str
    source: str
    depth: int


@_node(_QUERIES, "check", PROPERTY, STRATEGY_NAME, "depth", DEPTH)
class QCheck(Value):
    prop: str
    strategy: str
    depth: int


@_node(_QUERIES, "witness", STRATEGY_NAME, "horizon", HORIZON)
class QWitness(Value):
    strategy: str
    horizon: int


_SECTIONS = {
    "ars": _DocParser.parse_ars,
    "order": _DocParser.parse_order,
    "accept": _DocParser.parse_accept,
    "strategy": _DocParser.parse_strategy,
    "query": _DocParser.parse_query,
}
_SECTION_DESC = _one_of("a section", _SECTIONS)
_QUERY_DESC = _one_of("a query form", _QUERIES)
KEYWORDS = frozenset(
    [*_SECTIONS, "objects", "labels", "steps", *_STRATEGIES, *_CONDITIONS, *_QUERIES, *CHECK_PROPS]
    + [
        piece
        for table in (_STRATEGIES, _CONDITIONS, _QUERIES)
        for cls in table.values()
        for piece in _flat(cls.syntax)
        if isinstance(piece, str) and piece.isalpha()
    ]
)


class SpecDocument(Value):
    """A parsed, validated document in canonical shape."""

    objects: tuple[str, ...]
    labels: tuple[str, ...]
    steps: tuple[tuple[str, str, str], ...]
    orders: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    accepts: tuple[tuple[str, object], ...]
    strategies: tuple[tuple[str, object], ...]
    queries: tuple[object, ...]

    @cached_property
    def positions(self) -> dict:
        """(line, column) of each section of a parsed document, by its key; not a
        field. The fast read keeps no offsets, so a document it gave reads its
        text again, token by token, the first time they are asked for."""
        text = self.__dict__.get("_text")
        return {} if text is None else _read(text).positions

    @cached_property
    def ars(self) -> Ars:
        """The document's system, built once; parse keeps the one it checked the document with."""
        return Ars(self.objects, self.labels, self.steps)

    def get_order(self, name: str) -> tuple[tuple[str, str], ...]:
        return _named(self.orders, name)

    def get_accept(self, name: str) -> object:
        return _named(self.accepts, name)

    def get_strategy(self, name: str) -> object:
        return _named(self.strategies, name)

    def has_strategy(self, name: str) -> bool:
        return any(n == name for n, _ in self.strategies)


def _named(pairs: tuple, name: str) -> object:
    for n, value in pairs:
        if n == name:
            return value
    raise UnknownSymbol(name)


def parse(text: str) -> SpecDocument:
    """Parse and validate a document; raises SpecLangError with diagnostics.
    A text the fast read leaves is read again token by token, which reports every problem."""
    return _fast_read(text) or _read(text)


def _fast_read(text: str) -> SpecDocument | None:
    """The document, read from _fast_lex's tokens; None at the first problem of any kind."""
    try:
        parser = _DocParser(text, _fast_lex(text), None)
        parser.parse_document()
        if not parser.diags:
            return _canonical(parser)
    except (StratError, ValueError):
        pass
    return None


def _read(text: str) -> SpecDocument:
    """The token-by-token read, which gives every diagnostic at its line and column."""
    parser: _DocParser | None = None
    try:
        parser = _DocParser(text, *_lex(text))
        parser.parse_document()
    except _SyntaxFail as fail:
        diags = parser.diags if parser is not None else []
        raise SpecLangError((*diags, fail.diag)) from None
    if parser.diags:
        raise SpecLangError(tuple(parser.diags))
    return _canonical(parser)


def _canonical(p: _DocParser) -> SpecDocument:
    ars = Ars(p.objects, p.labels, p.steps)
    li = p._label_index.__getitem__
    orders = tuple(
        sorted(
            (
                (name, tuple(sorted(set(pairs), key=lambda pr: (li(pr[0]), li(pr[1])))))
                for name, pairs in p.orders
            ),
            key=lambda kv: kv[0],
        )
    )
    strategies = tuple(sorted(p.strategies, key=lambda kv: kv[0]))
    doc = SpecDocument(
        ars.objects, ars.labels, ars.steps, orders, tuple(p.accepts), strategies, tuple(p.queries)
    )
    if p.offsets is None:
        doc.__dict__.update(ars=ars, _text=p.text)
    else:
        doc.__dict__.update(ars=ars, positions={key: p.where(i) for key, i in p.positions.items()})
    return doc


# -- serialization ----------------------------------------------------------------


def serialize(doc: SpecDocument) -> str:
    """Canonical text of a valid document; parse(serialize(doc)) == doc."""
    lines = ["ars {", f"  objects: {', '.join(doc.objects)};"]
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
        lines.append(f"accept {name} = {_render(node)};")
    for name, node in doc.strategies:
        lines.append(f"strategy {name} = {_render(node)};")
    for q in doc.queries:
        lines.append(f"query {_render(q)};")
    return "\n".join(lines) + "\n"


# -- building core values from a document ------------------------------------------


def build_ars(doc: SpecDocument) -> Ars:
    return doc.ars


def build_order(doc: SpecDocument, name: str) -> LabelOrder:
    return LabelOrder.from_pairs(doc.get_order(name))


def build_accept(doc: SpecDocument, node: object) -> AcceptCondition:
    """Resolve an accepting-condition node (or a name) to a condition value."""
    if isinstance(node, str):
        node = doc.get_accept(node)
    return _build(doc, None, node)


def build_strategy(doc: SpecDocument, node: object, ars: Ars | None = None) -> Strategy:
    """Resolve a strategy-expression node (or a name) to a strategy value."""
    if isinstance(node, str):
        node = doc.get_strategy(node)
    return _build(doc, build_ars(doc) if ars is None else ars, node)
