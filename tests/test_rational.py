"""Rational expressions: syntax, rendering, and the position automaton."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from strat.rational import (
    Alt,
    Concat,
    Nfa,
    Opt,
    ParseError,
    Plus,
    Star,
    Sym,
    UnknownLabel,
    alternation,
    compile_expr,
    concat,
    matches,
    parse,
    render,
)

ALPHABET = ("x", "y", "z")


class TestParsing:
    def test_precedence(self):
        assert parse("x y | z*") == Alt((Concat((Sym("x"), Sym("y"))), Star(Sym("z"))))
        assert parse("x y z") == Concat((Sym("x"), Sym("y"), Sym("z")))
        assert parse("x | y | z") == Alt((Sym("x"), Sym("y"), Sym("z")))

    def test_grouping_and_postfix(self):
        assert parse("(x | y) z") == Concat((Alt((Sym("x"), Sym("y"))), Sym("z")))
        assert parse("x y*") == Concat((Sym("x"), Star(Sym("y"))))
        assert parse("(x y)*") == Star(Concat((Sym("x"), Sym("y"))))
        assert parse("x*?") == Opt(Star(Sym("x")))
        assert parse("((x))") == Sym("x")

    def test_whitespace_is_insignificant(self):
        assert parse(" x\n|\ty ") == parse("x|y")

    def test_error_positions(self):
        with pytest.raises(ParseError) as err:
            parse("x |")
        assert err.value.position == 3
        with pytest.raises(ParseError) as err:
            parse("x ) y")
        assert err.value.position == 2 and "end of expression" in str(err.value)
        with pytest.raises(ParseError) as err:
            parse("(x y")
        assert err.value.position == 4 and "')'" in str(err.value)
        with pytest.raises(ParseError) as err:
            parse("x & y")
        assert err.value.position == 2

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse("(" * 2000 + "x" + ")" * 2000)
        assert "nested" in str(err.value)

    def test_long_postfix_chain_is_a_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse("x" + "*" * 3000)
        assert "fewer nested groups" in str(err.value)

    def test_parsed_postfix_chain_matches_and_renders(self):
        node = parse("x" + "*" * 400)
        assert matches(node, ["x", "x"]) and not matches(node, ["y"])
        assert render(node) == "x" + "*" * 400

    def test_alphabet_check(self):
        assert parse("w1 w2", None) == Concat((Sym("w1"), Sym("w2")))
        with pytest.raises(UnknownLabel) as err:
            parse("x w y", ALPHABET)
        assert err.value.name == "w" and err.value.position == 2


class TestRendering:
    @pytest.mark.parametrize(
        "text",
        [
            "x",
            "x y",
            "x | y",
            "x y | z*",
            "(x | y) z",
            "(x y)* z",
            "x*?",
            "(x | y | z)*",
            "(x? y)+ | (z x)*",
        ],
    )
    def test_render_parse_is_stable(self, text):
        node = parse(text)
        out = render(node)
        assert parse(out) == node
        assert render(parse(out)) == out

    def test_smart_constructors_flatten(self):
        assert concat([Concat((Sym("x"), Sym("y"))), Sym("z")]) == parse("x y z")
        assert alternation([Alt((Sym("x"), Sym("y"))), Sym("z")]) == parse("x | y | z")
        assert concat([Sym("x")]) == Sym("x")
        assert alternation([Sym("x")]) == Sym("x")


class TestMatching:
    def test_empty_word_needs_nullability(self):
        assert matches(parse("x*"), ())
        assert matches(parse("x?"), ())
        assert not matches(parse("x+"), ())
        assert not matches(parse("x"), ())
        assert matches(parse("x* y?"), ())

    def test_basic_memberships(self):
        node = parse("(x y)* z")
        assert matches(node, ("z",))
        assert matches(node, ("x", "y", "z"))
        assert matches(node, ("x", "y", "x", "y", "z"))
        assert not matches(node, ("x", "z"))
        assert not matches(node, ("x", "y"))
        assert not matches(node, ("x", "y", "z", "z"))

    def test_plus_requires_one_round(self):
        node = parse("(x y)+")
        assert not matches(node, ())
        assert matches(node, ("x", "y"))
        assert matches(node, ("x", "y", "x", "y"))
        assert not matches(node, ("x",))

    def test_automaton_shape(self):
        nfa = compile_expr(parse("x y"))
        assert isinstance(nfa, Nfa)
        assert nfa.state_count == 3
        assert nfa.accepting == frozenset({2})
        assert nfa.transitions == ((0, "x", 1), (1, "y", 2))
        assert compile_expr(parse("x y")) is nfa  # cached

    def test_dead_states_cut_early(self):
        assert not matches(parse("x"), ("y", "x"))

    def test_step_table_built_once_per_expression(self, monkeypatch):
        builds = []
        build = Nfa.step_map
        monkeypatch.setattr(Nfa, "step_map", lambda nfa: builds.append(nfa) or build(nfa))
        node = parse("once_x (once_y | once_x)*")
        for word in helpers.all_words(("once_x", "once_y"), 3):
            matches(node, word)
        assert len(builds) == 1


def _trees():
    leaves = st.sampled_from([Sym(c) for c in ALPHABET])
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Star, inner),
            st.builds(Plus, inner),
            st.builds(Opt, inner),
            st.lists(inner, min_size=2, max_size=3).map(lambda ps: Concat(tuple(ps))),
            st.lists(inner, min_size=2, max_size=3).map(lambda ps: Alt(tuple(ps))),
        ),
        max_leaves=8,
    )


class TestAgainstDerivativeOracle:
    @settings(max_examples=60, deadline=None)
    @given(_trees())
    def test_random_trees_match_oracle(self, node):
        for word in helpers.all_words(ALPHABET, 3):
            assert matches(node, word) == helpers.brute_match(node, word)

    @settings(max_examples=60, deadline=None)
    @given(_trees())
    def test_render_parse_round_trip_on_random_trees(self, node):
        text = render(node)
        reparsed = parse(text, ALPHABET)
        for word in helpers.all_words(ALPHABET, 3):
            assert matches(reparsed, word) == helpers.brute_match(node, word)
