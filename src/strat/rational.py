"""Rational expressions over label words.

Surface syntax: juxtaposition concatenates, `|` alternates, postfix `*`, `+`,
`?` repeat, parentheses group; atoms are label identifiers and whitespace is
insignificant. Expressions compile position-wise into an epsilon-free
nondeterministic automaton (state 0 is the start; the other states are the
symbol occurrences), and matching is whole-word. lex is the package's one
lexer loop: speclang reads .ars documents with it too, a list as one token.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Sequence

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


class Token(NamedTuple):
    kind: str  # a group name of the lexer's pattern, or "eof"
    text: str
    offset: int


def lex(text: str, pattern: re.Pattern, runs: dict | None) -> list[Token]:
    """Tokens of pattern, whose named groups cover every character.

    "skip" and "comment" matches are dropped. The first "error" match ends
    the list; otherwise it ends with an "eof" token, placed at the start of a
    comment that runs to the end of the text.

    runs, if given, maps (identifier, kind of the next token) to (run kind,
    pattern of the first item or None if it is that token, pattern of up to
    64 more items): the token right after `identifier :` then starts a run,
    which is one token of the run kind, and the pass restarts where it ends.
    """
    tokens = []
    end, pos, word = len(text), 0, None  # word: the identifier of `identifier :`, just lexed
    while pos is not None:
        matches, pos = pattern.finditer(text, pos), None
        for m in matches:
            kind = m.lastgroup
            if kind == "skip":
                continue
            if kind == "comment":
                if m.end() == len(text):
                    end = m.start()
                continue
            start = m.start()
            if word is not None:
                run, word = runs.get((word, kind)), None
                pos = run and _run_end(text, m, *run[1:])
                if pos:
                    tokens.append(Token(run[0], text[start:pos], start))
                    break
            tokens.append(Token(kind, found := m.group(), start))
            if kind == "error":
                return tokens
            if found == ":" and runs and len(tokens) > 1 and tokens[-2].kind == "ident":
                word = tokens[-2].text
    tokens.append(Token("eof", "", end))
    return tokens


def _run_end(text: str, m: re.Match, first: str | None, more: str) -> int | None:
    """Where the run that starts at m's token ends, or None if no well-formed item starts
    there; more items are matched in chunks, in bounded memory (see speclang)."""
    if first is not None and (m := re.compile(first).match(text, m.start())) is None:
        return None
    pos, more = m.end(), re.compile(more).match
    while (chunk := more(text, pos)) is not None:
        pos = chunk.end()
    return pos


_PATTERN = re.compile(
    r"(?P<skip>\s+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<punct>[|*+?()])|(?P<error>.)", re.S
)
_POSTFIX = {"*": Star, "+": Plus, "?": Opt}


class Grammar:
    """Recursive descent over a token cursor, shared by every expression reader.

    A subclass supplies two hooks: fail(tok, desc, expected) builds the
    exception for a syntax error at tok, and label(tok) checks an identifier
    used as a label.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_punct(self, p: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "punct" and tok.text == p

    def expect_punct(self, p: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "punct" or tok.text != p:
            raise self.fail(tok, f"'{p}'", (p,))
        self.pos += 1
        return tok

    def parse_alt(self):
        parts = [self.parse_cat()]
        while self.at_punct("|"):
            self.take()
            parts.append(self.parse_cat())
        return alternation(parts)

    def parse_cat(self):
        parts = [self.parse_post()]
        while self.peek().kind == "ident" or self.at_punct("("):
            parts.append(self.parse_post())
        return concat(parts)

    def parse_post(self):
        node = self.parse_atom()
        while any(self.at_punct(mark) for mark in _POSTFIX):
            node = _POSTFIX[self.take().text](node)
        return node

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "ident":
            self.take()
            self.label(tok)
            return Sym(tok.text)
        if self.at_punct("("):
            self.take()
            inner = self.parse_alt()
            self.expect_punct(")")
            return inner
        raise self.fail(tok, "a label or '('")


class _Parser(Grammar):
    def __init__(self, tokens: list[Token], alphabet: frozenset[str] | None):
        super().__init__(tokens)
        self.alphabet = alphabet

    def fail(self, tok: Token, desc: str, expected: tuple[str, ...] = ()) -> ParseError:
        return ParseError(tok.offset, desc)

    def label(self, tok: Token) -> None:
        if self.alphabet is not None and tok.text not in self.alphabet:
            raise UnknownLabel(tok.text, tok.offset)


def parse(text: str, alphabet: Iterable[str] | None = None) -> object:
    """Parse a rational expression; labels outside the alphabet are rejected."""
    alpha = frozenset(alphabet) if alphabet is not None else None
    tokens = lex(text, _PATTERN, None)
    if tokens[-1].kind == "error":
        raise ParseError(tokens[-1].offset, "a label, an operator or a parenthesis")
    parser = _Parser(tokens, alpha)
    try:
        node = parser.parse_alt()
        if parser.peek().kind != "eof":
            raise parser.fail(parser.peek(), "end of expression")
        compile_expr(node)  # so every tree returned can be matched and rendered
    except RecursionError:
        raise parser.fail(parser.peek(), "fewer nested groups") from None
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
