"""Rational expressions over label words.

Surface syntax: juxtaposition concatenates, `|` alternates, postfix `*`, `+`,
`?` repeat, parentheses group; atoms are label identifiers and whitespace is
insignificant. Expressions compile position-wise into an epsilon-free
nondeterministic automaton (state 0 is the start; the other states are the
symbol occurrences), and matching is whole-word. lex is the package's one
lexer loop: speclang's token-by-token read of .ars documents uses it too.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from .errors import StratError
from .value import Value


class ParseError(StratError):
    def __init__(self, position: int, expected: str) -> None:
        super().__init__(f"parse error at offset {position}: expected {expected}")
        self.position = position
        self.expected = expected


class UnknownLabel(StratError):
    def __init__(self, name: str, position: int = -1) -> None:
        super().__init__(f"unknown label {name!r}")
        self.name = name
        self.position = position


class Sym(Value):
    label: str


class Concat(Value):
    parts: tuple


class Alt(Value):
    parts: tuple


class Star(Value):
    item: object


class Plus(Value):
    item: object


class Opt(Value):
    item: object


def concat(parts: Sequence) -> object:
    flat: list = []
    for p in parts:
        flat.extend(p.parts if isinstance(p, Concat) else [p])
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


def alternation(parts: Sequence) -> object:
    flat: list = []
    for p in parts:
        flat.extend(p.parts if isinstance(p, Alt) else [p])
    if len(flat) == 1:
        return flat[0]
    return Alt(tuple(flat))


# -- parsing --------------------------------------------------------------------


def lex(text: str, pattern: re.Pattern) -> tuple[list[str], list[int]]:
    """The texts and offsets of pattern's tokens; its named groups cover every character.

    "skip" and "comment" matches are dropped. The lists end with "" (the end
    of input, placed at the start of a comment that runs to the end of the
    text), or else with the first "error" match.
    """
    texts, offsets, end = [], [], len(text)
    for m in pattern.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        if kind == "comment":
            if m.end() == len(text):
                end = m.start()
            continue
        texts.append(m.group())
        offsets.append(m.start())
        if kind == "error":
            return texts, offsets
    texts.append("")
    offsets.append(end)
    return texts, offsets


_PATTERN = re.compile(
    r"(?P<skip>\s+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<punct>[|*+?()])|(?P<error>.)", re.S
)
_POSTFIX = {"*": Star, "+": Plus, "?": Opt}


# the first character of an identifier, and of no other token
LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")


class Grammar:
    """Recursive descent over token texts, shared by every expression reader.

    The texts end with "", the end of input; a token's kind comes from its
    text. offsets holds each token's offset in the text it was read from, or
    is None where the reader keeps none. A subclass supplies two hooks:
    fail(desc, expected) builds the exception for a syntax error at the
    current token, and label(i) checks the identifier at index i used as a
    label.
    """

    def __init__(self, tokens: list[str], offsets: list[int] | None):
        self.tokens = tokens
        self.offsets = offsets
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos]

    def take(self) -> str:
        tok = self.tokens[self.pos]
        if tok:
            self.pos += 1
        return tok

    def at(self, p: str) -> bool:
        return self.tokens[self.pos] == p

    def expect(self, p: str) -> None:
        if self.tokens[self.pos] != p:
            raise self.fail(f"'{p}'", (p,))
        self.pos += 1

    def parse_alt(self):
        parts = [self.parse_cat()]
        while self.at("|"):
            self.take()
            parts.append(self.parse_cat())
        return alternation(parts)

    def parse_cat(self):
        parts = [self.parse_post()]
        while self.peek()[:1] in LETTERS or self.at("("):
            parts.append(self.parse_post())
        return concat(parts)

    def parse_post(self):
        node = self.parse_atom()
        while self.peek() in _POSTFIX:
            node = _POSTFIX[self.take()](node)
        return node

    def parse_atom(self):
        tok = self.peek()
        if tok[:1] in LETTERS:
            self.label(self.pos)
            self.pos += 1
            return Sym(tok)
        if self.at("("):
            self.take()
            inner = self.parse_alt()
            self.expect(")")
            return inner
        raise self.fail("a label or '('")


class _Parser(Grammar):
    def __init__(self, tokens: list[str], offsets: list[int], alphabet: frozenset[str] | None):
        super().__init__(tokens, offsets)
        self.alphabet = alphabet

    def fail(self, desc: str, expected: tuple[str, ...] = ()) -> ParseError:
        return ParseError(self.offsets[self.pos], desc)

    def label(self, i: int) -> None:
        if self.alphabet is not None and self.tokens[i] not in self.alphabet:
            raise UnknownLabel(self.tokens[i], self.offsets[i])


def parse(text: str, alphabet: Iterable[str] | None = None) -> object:
    """Parse a rational expression; labels outside the alphabet are rejected."""
    alpha = frozenset(alphabet) if alphabet is not None else None
    tokens, offsets = lex(text, _PATTERN)
    if tokens[-1]:
        raise ParseError(offsets[-1], "a label, an operator or a parenthesis")
    parser = _Parser(tokens, offsets, alpha)
    try:
        node = parser.parse_alt()
        if parser.peek():
            raise parser.fail("end of expression")
        compile_expr(node)  # so every tree returned can be matched and rendered
    except RecursionError:
        raise parser.fail("fewer nested groups") from None
    return node


# -- rendering ------------------------------------------------------------------

_PREC_ALT, _PREC_CAT, _PREC_POST = 0, 1, 2


def render(node, prec: int = _PREC_ALT) -> str:
    if isinstance(node, Sym):
        return node.label
    if isinstance(node, Alt):
        body = " | ".join(render(p, _PREC_CAT) for p in node.parts)
        return f"({body})" if prec > _PREC_ALT else body
    if isinstance(node, Concat):
        body = " ".join(render(p, _PREC_POST) for p in node.parts)
        return f"({body})" if prec > _PREC_CAT else body
    for cls, mark in ((Star, "*"), (Plus, "+"), (Opt, "?")):
        if isinstance(node, cls):
            return render(node.item, _PREC_POST + 1) + mark
    raise TypeError(f"not a rational expression node: {node!r}")


# -- compilation (position automaton) --------------------------------------------


class Nfa(Value):
    """Epsilon-free automaton: states 0..state_count-1, 0 is the start."""

    state_count: int
    transitions: tuple[tuple[int, str, int], ...]
    accepting: frozenset[int]

    def step_map(self) -> dict[tuple[int, str], frozenset[int]]:
        table: dict[tuple[int, str], set[int]] = {}
        for src, label, dst in self.transitions:
            table.setdefault((src, label), set()).add(dst)
        return {k: frozenset(v) for k, v in table.items()}

    @cached_property
    def _subsets(self) -> dict[tuple[frozenset[int], str], frozenset[int]]:
        return {}

    @cached_property
    def table(self) -> dict[tuple[int, str], frozenset[int]]:
        """step_map, built once per automaton."""
        return self.step_map()

    def step(self, states: frozenset[int], label: str) -> frozenset[int]:
        """The states reached from `states` by one label: a lazily built subset automaton."""
        key = (states, label)
        nxt = self._subsets.get(key)
        if nxt is None:
            table = self.table
            nxt = frozenset().union(*(table.get((s, label), ()) for s in states))
            self._subsets[key] = nxt
        return nxt

    def accepts(self, states: frozenset[int]) -> bool:
        return not self.accepting.isdisjoint(states)

    def run(self, word: Sequence[str]) -> bool:
        """Whole-word membership, by stepping the state set from START."""
        states = START
        for label in word:
            states = self.step(states, label)
            if not states:
                return False
        return self.accepts(states)


START = frozenset([0])


@lru_cache(maxsize=512)
def compile_expr(node) -> Nfa:
    """Position construction: one state per symbol occurrence plus a start."""
    symbol_of: dict[int, str] = {}
    counter = [0]

    def analyze(n) -> tuple[bool, frozenset[int], frozenset[int], list[tuple[int, int]]]:
        # returns (nullable, first, last, follow pairs)
        if isinstance(n, Sym):
            counter[0] += 1
            p = counter[0]
            symbol_of[p] = n.label
            only = frozenset([p])
            return (False, only, only, [])
        if isinstance(n, Alt):
            nullable = False
            first: frozenset[int] = frozenset()
            last: frozenset[int] = frozenset()
            follow: list[tuple[int, int]] = []
            for part in n.parts:
                pn, pf, pl, pfol = analyze(part)
                nullable = nullable or pn
                first |= pf
                last |= pl
                follow.extend(pfol)
            return (nullable, first, last, follow)
        if isinstance(n, Concat):
            nullable = True
            first: frozenset[int] = frozenset()
            last: frozenset[int] = frozenset()
            follow: list[tuple[int, int]] = []
            for part in n.parts:
                pn, pf, pl, pfol = analyze(part)
                follow.extend(pfol)
                follow.extend((q, r) for q in last for r in pf)
                if nullable:
                    first |= pf
                last = pl | (last if pn else frozenset())
                nullable = nullable and pn
            return (nullable, first, last, follow)
        if isinstance(n, (Star, Plus, Opt)):
            pn, pf, pl, pfol = analyze(n.item)
            follow = list(pfol)
            if isinstance(n, (Star, Plus)):
                follow.extend((q, r) for q in pl for r in pf)
            nullable = True if isinstance(n, (Star, Opt)) else pn
            return (nullable, pf, pl, follow)
        raise TypeError(f"not a rational expression node: {n!r}")

    nullable, first, last, follow = analyze(node)
    transitions = [(0, symbol_of[p], p) for p in sorted(first)]
    transitions.extend((q, symbol_of[r], r) for q, r in sorted(set(follow)))
    accepting = set(last)
    if nullable:
        accepting.add(0)
    return Nfa(counter[0] + 1, tuple(transitions), frozenset(accepting))


def matches(node, word: Sequence[str]) -> bool:
    """Whole-word membership of a label word in the expression's language."""
    return compile_expr(node).run(word)
