"""The .ars document language: lexing, validation, canonical form, builders."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from strat import (
    AcceptFiltered,
    Alternate,
    And,
    Ars,
    AtObject,
    Fail,
    Greatmost,
    Intersect,
    LabelWordIn,
    LenAtLeast,
    LenAtMost,
    LenEq,
    MaxLen,
    Not,
    RestrictLabels,
    SpecLangError,
    Step,
    UnionCommitted,
    UnionPointwise,
    Universal,
    UnknownSymbol,
    speclang,
)
from strat.cli import main
from strat.speclang import (
    ALen,
    ARef,
    Diagnostic,
    QApply,
    QCheck,
    QEnumerate,
    QWitness,
    SAccept,
    SRestrict,
    build_accept,
    build_ars,
    build_order,
    build_strategy,
    parse,
    serialize,
)

CANONICAL = """ars {
  objects: a, b;
  labels: l1, l2;
  steps:
    (a, l1, b),
    (b, l2, a);
}
order o {
  l1 < l2;
}
accept short = len <= 2;
strategy all = universal;
query enumerate all depth 3;
"""


def _col(text: str, needle: str, occurrence: int = 1) -> int:
    """1-based column of a substring in a single-line document."""
    pos = -1
    for _ in range(occurrence):
        pos = text.index(needle, pos + 1)
    return pos + 1


def _diags(text: str) -> tuple[Diagnostic, ...]:
    with pytest.raises(SpecLangError) as err:
        parse(text)
    return err.value.diagnostics


MINI = "ars { objects: a, b; labels: l1, l2; steps: (a, l1, b), (b, l2, a); }"


class TestParsing:
    def test_document_contents(self):
        doc = parse(CANONICAL)
        assert doc.objects == ("a", "b")
        assert doc.labels == ("l1", "l2")
        assert doc.steps == (("a", "l1", "b"), ("b", "l2", "a"))
        assert doc.orders == (("o", (("l1", "l2"),)),)
        assert doc.accepts == (("short", ALen("<=", 2)),)
        assert doc.strategies[0][0] == "all"
        assert doc.queries == (QEnumerate("all", 3, None),)

    def test_comments_and_whitespace(self):
        text = "# heading\nars { # inline\n objects: a; labels: l; steps: ; }\n"
        doc = parse(text)
        assert doc.objects == ("a",) and doc.steps == ()

    def test_positions_recorded(self):
        doc = parse(CANONICAL)
        assert doc.positions[("ars",)] == (1, 1)
        assert doc.positions[("order", "o")][0] == 8

    def test_equality_ignores_layout(self):
        squashed = " ".join(CANONICAL.split())
        assert parse(squashed) == parse(CANONICAL)


class TestCanonicalForm:
    def test_serialize_golden(self):
        assert serialize(parse(CANONICAL)) == CANONICAL

    def test_round_trip_identity(self):
        doc = parse(MINI + " strategy s = restrict({l2, l1});")
        assert parse(serialize(doc)) == doc

    def test_empty_steps_render(self):
        doc = parse("ars { objects: a; labels: l; steps: ; }")
        assert serialize(doc) == "ars {\n  objects: a;\n  labels: l;\n  steps: ;\n}\n"

    def test_steps_sorted_by_symbol_indices(self):
        doc = parse("ars { objects: a, b; labels: l1, l2; steps: (b, l2, a), (a, l1, b); }")
        assert doc.steps == (("a", "l1", "b"), ("b", "l2", "a"))

    def test_label_sets_sorted_and_deduped(self):
        doc = parse(MINI + " strategy s = restrict({l2, l1, l2});")
        assert doc.get_strategy("s") == SRestrict(("l1", "l2"))

    def test_order_pair_canonicalisation(self):
        text = (
            "ars { objects: a; labels: l1, l2, l3; steps: ; }"
            " order o { l2 < l3; l1 < l2; l1 < l2; }"
        )
        doc = parse(text)
        assert doc.get_order("o") == (("l1", "l2"), ("l2", "l3"))

    def test_strategies_sorted_accepts_kept_in_declaration_order(self):
        text = (
            MINI
            + " accept zz = len < 3; accept aa = not(zz);"
            + " strategy z = universal; strategy a = fail;"
        )
        doc = parse(text)
        assert [n for n, _ in doc.accepts] == ["zz", "aa"]
        assert [n for n, _ in doc.strategies] == ["a", "z"]
        assert parse(serialize(doc)) == doc


class TestDiagnostics:
    def test_unknown_label_position(self):
        text = "ars { objects: a; labels: l; steps: (a, zz, a); }"
        (diag,) = _diags(text)
        assert (diag.line, diag.col) == (1, _col(text, "zz"))
        assert diag.message == "unknown label 'zz'"

    def test_unknown_object_position(self):
        text = "ars { objects: a; labels: l; steps: (a, l, zz); }"
        (diag,) = _diags(text)
        assert (diag.line, diag.col) == (1, _col(text, "zz"))
        assert diag.message == "unknown object 'zz'"

    def test_functionality_violation(self):
        text = "ars { objects: a, b; labels: l; steps: (a, l, a), (a, l, b); }"
        (diag,) = _diags(text)
        assert diag.col == _col(text, "(", 2)
        assert "reach 'a' and 'b'" in diag.message

    def test_duplicate_and_overlapping_symbols(self):
        (diag,) = _diags("ars { objects: a, a; labels: l; steps: ; }")
        assert diag.message == "duplicate symbol 'a'"
        (diag,) = _diags("ars { objects: a; labels: a; steps: ; }")
        assert diag.message == "'a' is declared both as an object and as a label"

    def test_reserved_words_rejected_as_names(self):
        (diag,) = _diags(MINI + " strategy word = universal;")
        assert diag.message == "reserved word 'word' cannot be used as a name"

    def test_cyclic_order(self):
        text = MINI + " order o { l1 < l2; l2 < l1; }"
        (diag,) = _diags(text)
        assert diag.col == _col(text, "order")
        assert "not a strict order" in diag.message

    def test_duplicate_sections_and_names(self):
        diags = _diags(MINI + " " + MINI)
        assert any("more than one ars section" in d.message for d in diags)
        (diag,) = _diags(MINI + " strategy s = fail; strategy s = universal;")
        assert diag.message == "duplicate strategy 's'"

    def test_missing_ars_section(self):
        (diag,) = _diags("strategy s = universal;")
        assert (diag.line, diag.col) == (1, 1)
        assert diag.message == "document declares no ars section"

    def test_use_before_ars_section(self):
        text = "strategy s = restrict({l1}); " + MINI
        diags = _diags(text)
        assert diags[0].message == "label 'l1' used before the ars section"

    def test_unknown_references(self):
        (diag,) = _diags(MINI + " strategy s = greatmost(nope);")
        assert diag.message == "unknown order 'nope'"
        (diag,) = _diags(MINI + " query apply nope from a depth 2;")
        assert diag.message == "unknown strategy 'nope'"
        (diag,) = _diags(MINI + " strategy s = accept(universal, nope);")
        assert diag.message == "unknown accepting condition 'nope'"

    def test_bound_validation(self):
        text = MINI + " strategy s = universal; query enumerate s depth 0;"
        (diag,) = _diags(text)
        assert diag.message == "depth must be at least 1"
        assert diag.col == _col(text, "0;")
        text = MINI + " strategy s = universal; query witness s horizon 1;"
        (diag,) = _diags(text)
        assert diag.message == "horizon must be at least 2"

    def test_syntax_errors_carry_expectations(self):
        text = "ars { objects: a labels: l; steps: ; }"
        (diag,) = _diags(text)
        assert diag.col == _col(text, "labels")
        assert "expected ';'" in diag.message and diag.expected == (";",)

    def test_unexpected_character(self):
        text = MINI + " $"
        (diag,) = _diags(text)
        assert diag.message == "unexpected character '$'"
        assert diag.col == len(text)

    def test_semantic_diagnostics_accumulate(self):
        text = "ars { objects: a; labels: l; steps: (a, u1, a), (a, u2, a); }"
        diags = _diags(text)
        assert [d.message for d in diags] == ["unknown label 'u1'", "unknown label 'u2'"]

    def test_semantic_diagnostics_survive_syntax_abort(self):
        text = "ars { objects: a; labels: l; steps: (a, u1, a); "
        diags = _diags(text)
        assert diags[0].message == "unknown label 'u1'"
        assert "expected" in diags[-1].message

    @pytest.mark.parametrize(
        "expr, rendered, expected",
        [
            ("l1 zz", "1:90: error: unknown label 'zz'", ()),
            ("l1 |", "1:91: error: expected a label or '(', found ')'", ()),
            ("(l1", "1:91: error: expected ')', found ';'", (")",)),
        ],
    )
    def test_word_expression_diagnostics(self, expr, rendered, expected):
        (diag,) = _diags(MINI + f" accept w = word({expr});")
        assert (diag.render(), diag.expected) == (rendered, expected)

    def test_deep_nesting_is_reported_not_crashed(self):
        bomb = MINI + " accept w = word(" + "(" * 8000 + "l1" + ")" * 8000 + ");"
        with pytest.raises(SpecLangError) as err:
            parse(bomb)
        assert any("nesting too deep" in d.message for d in err.value.diagnostics)

    def test_error_rendering(self):
        diag = Diagnostic(3, 7, "boom")
        assert diag.render() == "3:7: error: boom"
        err = SpecLangError((diag, Diagnostic(4, 1, "again")))
        assert str(err) == "3:7: error: boom (+1 more)"


class TestQueries:
    def test_query_forms(self):
        text = (
            MINI
            + " strategy s = universal;"
            + " query enumerate depth 2;"
            + " query enumerate s depth 3 from a;"
            + " query apply s from b depth 4;"
            + " query check prefix s depth 2;"
            + " query check closed s depth 2;"
            + " query witness s horizon 2;"
        )
        doc = parse(text)
        assert doc.queries == (
            QEnumerate(None, 2, None),
            QEnumerate("s", 3, "a"),
            QApply("s", "b", 4),
            QCheck("prefix", "s", 2),
            QCheck("closed", "s", 2),
            QWitness("s", 2),
        )

    def test_bad_check_property(self):
        with pytest.raises(SpecLangError) as err:
            parse(MINI + " strategy s = universal; query check bogus s depth 2;")
        assert "'prefix', 'factor', 'composition' or 'closed'" in str(err.value)


class TestBuilders:
    def test_build_ars(self):
        ars = build_ars(parse(MINI))
        assert ars.objects == ("a", "b")
        assert [s.label for s in ars.steps] == ["l1", "l2"]

    def test_length_condition_mapping(self):
        doc = parse(MINI)
        assert build_accept(doc, ALen("<", 3)) == LenAtMost(2)
        assert build_accept(doc, ALen("<=", 3)) == LenAtMost(3)
        assert build_accept(doc, ALen("=", 3)) == LenEq(3)
        assert build_accept(doc, ALen(">=", 3)) == LenAtLeast(3)
        assert build_accept(doc, ALen(">", 3)) == LenAtLeast(4)

    def test_build_accept_resolves_references(self):
        text = MINI + " accept base = at(a); accept both = and(base, not(len > 5));"
        doc = parse(text)
        built = build_accept(doc, "both")
        assert built == And((AtObject("a"), Not(LenAtLeast(6))))
        assert build_accept(doc, doc.get_accept("base")) == AtObject("a")

    def test_build_strategies(self):
        text = (
            MINI
            + " order o { l1 < l2; }"
            + " strategy g = greatmost(o);"
            + " strategy m = maxlen(4);"
            + " strategy alt = alternate({l1}; {l2});"
            + " strategy r = restrict({l1});"
            + " strategy i = intersect(universal, restrict({l1}));"
            + " strategy up = unionP(universal, fail);"
            + " strategy uc = unionC(universal, fail);"
            + " strategy acc = accept(universal, len <= 2);"
        )
        doc = parse(text)
        ars = build_ars(doc)
        assert build_strategy(doc, "g") == Greatmost(build_order(doc, "o"))
        assert build_strategy(doc, "m") == MaxLen(4)
        assert build_strategy(doc, "alt") == Alternate(
            frozenset({ars.step("a", "l1")}), frozenset({ars.step("b", "l2")})
        )
        assert build_strategy(doc, "r") == RestrictLabels(frozenset({"l1"}))
        assert build_strategy(doc, "i") == Intersect(
            (Universal(), RestrictLabels(frozenset({"l1"})))
        )
        assert build_strategy(doc, "up") == UnionPointwise((Universal(), Fail()))
        assert build_strategy(doc, "uc") == UnionCommitted((Universal(), Fail()))
        assert build_strategy(doc, "acc") == AcceptFiltered(Universal(), LenAtMost(2))

    def test_build_word_condition_matches(self):
        doc = parse(MINI + " accept w = word((l1 l2)* l1);")
        cond = build_accept(doc, "w")
        assert isinstance(cond, LabelWordIn)
        ars = build_ars(doc)
        assert cond.accepts(ars.derivation("a", "l1"))
        assert not cond.accepts(ars.derivation("a", "l1", "l2"))

    def test_unknown_names_raise(self):
        doc = parse(MINI)
        with pytest.raises(UnknownSymbol):
            doc.get_strategy("missing")
        with pytest.raises(UnknownSymbol):
            build_accept(doc, ARef("missing"))
        assert not doc.has_strategy("missing")


class TestTokenFuzz:
    def test_single_token_deletion_points_at_a_real_token(self):
        tokens = speclang._lex(CANONICAL)[0][:-1]
        flat = " ".join(tokens)
        assert parse(flat) == parse(CANONICAL)
        errors = 0
        for i in range(len(tokens)):
            remaining = tokens[:i] + tokens[i + 1 :]
            cols = []
            c = 1
            for t in remaining:
                cols.append(c)
                c += len(t) + 1
            eof_col = (cols[-1] + len(remaining[-1])) if remaining else 1
            rebuilt = " ".join(remaining)
            try:
                parse(rebuilt)
            except SpecLangError as err:
                errors += 1
                diag = err.diagnostics[0]
                assert diag.line == 1
                assert diag.col in set(cols) | {eof_col}, (i, tokens[i], diag)
        # every deletion except the optional enumerate strategy name must break parsing
        assert errors == len(tokens) - 1


class TestFrontEnd:
    """Positions and canonical steps that the lexer and the canonical form must keep."""

    def test_tab_counts_as_one_column(self):
        (diag,) = _diags("ars {\tobjects: a;\tlabels: l;\tsteps: (a, zz, a); }")
        assert diag.render() == "1:41: error: unknown label 'zz'"

    def test_crlf_line_ends(self):
        text = "ars {\r\n  objects: a;\r\n  labels: l;\r\n  steps: (a, zz, a);\r\n}\r\n"
        (diag,) = _diags(text)
        assert diag.render() == "4:14: error: unknown label 'zz'"

    def test_error_on_the_line_after_a_comment(self):
        (diag,) = _diags("ars { # objects follow\n  objects a; labels: l; steps: ; }\n")
        assert (diag.render(), diag.expected) == ("2:11: error: expected ':', found 'a'", (":",))

    def test_end_of_input_inside_a_trailing_comment(self):
        text = "ars {\n  objects: a;\n  labels: l;\n  steps: ;   # no closing brace"
        (diag,) = _diags(text)
        assert (diag.render(), diag.expected) == (
            "4:14: error: expected '}', found end of input",
            ("}",),
        )

    def test_non_ascii_letter(self):
        (diag,) = _diags("ars {\n  objects: a, été;\n  labels: l;\n  steps: ;\n}\n")
        assert diag.render() == "2:15: error: unexpected character 'é'"

    def test_repeated_step_kept_once(self):
        doc = parse("ars { objects: a; labels: l; steps: (a, l, a), (a, l, a); }")
        assert doc.steps == (("a", "l", "a"),)

    @pytest.fixture
    def built(self, monkeypatch):
        """Every Ars constructed while the test runs, in order."""
        built = []
        init = Ars.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Ars, "__init__", counting)
        return built

    def test_a_load_builds_one_ars(self, built, capsys, samples_dir):
        # parse builds the document's system to check and sort its steps, and
        # keeps it: the command then reads that one, not a second copy
        path = str(samples_dir / "a_lc.ars")
        argv = ["--machine", "check", "-f", path, "-s", "eventually_c", "--prop", "prefix", "--depth", "3"]
        assert main(argv) == 3 and capsys.readouterr().out.startswith('{"kind": "check"')
        assert len(built) == 1
        doc = parse(CANONICAL)
        assert build_ars(doc) is build_ars(doc) is built[-1]
        assert doc.steps == (("a", "l1", "b"), ("b", "l2", "a"))
        assert hash(doc.steps) == hash((("a", "l1", "b"), ("b", "l2", "a")))

    @pytest.mark.parametrize(
        "argv, code, kind, verdict",
        [
            ("witness -f {a_lc} -s eventually_c --horizon 4", 3, "witness", "found"),
            ("apply -f {a_lc} -s eventually_c --from c --depth 3", 0, "apply", "fails"),
            ("apply -f {a_lc} -s eventually_c --from b --depth 1", 0, "apply", "indeterminate"),
            ("scenario traffic --queue-bound 1 --depth 2 --check safety", 0, "scenario", "ok"),
            ("scenario traffic --queue-bound 1 --depth 2 --check safety --strategy universal",
             3, "scenario", "violation"),
        ],
        ids=["witness", "apply-fails", "apply-indeterminate", "safety-ok", "safety-violation"],
    )
    def test_a_search_on_a_sub_system_builds_one_ars(self, built, capsys, samples_dir, argv, code, kind, verdict):
        # the witness, apply and safety searches read a memoryless strategy's
        # sub-system off its transitions, not off a restricted copy of the system
        assert main(["--machine", *argv.format(a_lc=samples_dir / "a_lc.ars").split()]) == code
        record = json.loads(capsys.readouterr().out)
        assert (record["kind"], record["verdict"]) == (kind, verdict)
        assert len(built) == 1

    def test_only_a_failed_fast_read_is_read_again(self, monkeypatch):
        lexed = []
        fast, by_tokens = speclang._fast_lex, speclang._lex
        monkeypatch.setattr(speclang, "_fast_lex", lambda text: lexed.append("fast") or fast(text))
        monkeypatch.setattr(speclang, "_lex", lambda text: lexed.append("tokens") or by_tokens(text))
        doc = parse(MINI)
        assert lexed == ["fast"]
        # the fast read keeps no offsets: the positions are read token by token, once, when asked for
        assert doc.positions == {("ars",): (1, 1)} and doc.positions is doc.positions
        assert lexed == ["fast", "tokens"]
        for fault in ("strategy s = greatmost(nosuch);", "ars { objects: c; labels: k; steps: ; }"):
            lexed.clear()
            with pytest.raises(SpecLangError):
                parse(f"{MINI}\n{fault}\n")
            assert lexed == ["fast", "tokens"]

    @pytest.mark.parametrize("read", [parse, helpers.parse_by_tokens], ids=["fast", "by-tokens"])
    def test_each_step_is_built_once(self, monkeypatch, read):
        # the parser hands Ars Steps, which it keeps, not triples it would copy into Steps
        given = []

        def recording(objects, labels, steps):
            given.extend(steps)
            return Ars(objects, labels, steps)

        monkeypatch.setattr(speclang, "Ars", recording)
        # the fast read takes the first step in a chunk and the second, a comment inside it, token by token
        text = MINI.replace("(b, l2, a)", "(b, # a comment inside the step\n    l2, a)")
        assert speclang._fast_lex(text)[12:14] == ["(a, l1, b)", ","]
        doc = read(text)
        assert doc.steps == (("a", "l1", "b"), ("b", "l2", "a"))
        assert {type(step) for step in given} == {Step}
        assert {id(step) for step in doc.steps} <= {id(step) for step in given}


def _fast_kinds(text: str) -> list[str]:
    """The kind of each token of the fast read: "steps" or "names" for a chunk
    (a chunk of one name is an identifier), else "ident", "int", "punct" or "eof"."""

    def kind(tok: str) -> str:
        if len(tok) > 1 and tok[0] == "(":
            return "steps"
        if "," in tok[1:]:
            return "names"
        return "eof" if not tok else "ident" if tok[0].isalpha() else "int" if tok.isdigit() else "punct"

    return [kind(tok) for tok in speclang._fast_lex(text)]


def _same_as_tokens(text: str) -> object:
    """The outcome of parse, checked against the token loop's; a valid document
    must come from the fast read itself."""
    outcome = helpers.parse_outcome(parse, text)
    assert outcome == helpers.parse_outcome(helpers.parse_by_tokens, text)
    if not isinstance(outcome, list):
        assert speclang._fast_read(text) == outcome[0]
    return outcome


SPACES = st.sampled_from(["", " ", "  ", "\n    ", "\t", "\r\n  ", " \n"])
EDITS = "(),;:#ao0l1_z \t\n\r\x0b\x0c\u00a0é"
# list lengths around the chunks' bound of 65 items, and what may follow the comma after a full chunk
LONG = [63, 64, 65, 66, 129, 130, 131]
AFTER_FULL = ["", " ", "\t", "\r\n", " # after a full chunk\n", "#\r\n\t"]
# sections after the ars section: name lists and (a, b, c) triples inside strategy,
# order and query sections, where no chunk may start, and misplaced lists after ':'
TAILS = [
    "",
    "strategy s = universal;\n",
    "ars { objects: o0; labels: l0; steps: (o0, l0, o0); }\n",
    "strategy s = intersect(universal, fail, universal);\nquery apply s from o0 depth 2;\n",
    "accept a = len <= 2;\naccept b = or(a, a,a);\nstrategy s = accept(restrict({l0, l0,\tl0}), b);\n",
    "order o { l0 < l1; }\nstrategy s = greatmost(o);\nquery enumerate s depth 2 from o0;\n",
    "strategy s = alternate({l0, l1}; {l0});\nquery check prefix s depth 2;\n",
    "order o { (l0, l0, l0) < l1; }\n",
    "strategy s = universal;\nquery check prefix (o0, l0, o0) depth 2;\n",
    "strategy s: o0, o1, o2;\n",
    "strategy s = universal;\nquery apply s from o0, o1, o2 depth 2;\n",
]


def _separated(draw, items: list[str]) -> str:
    """items joined by commas laid out at random: a short list with comments
    between items, a long one with a comment, CRLF or tab among what may follow
    the comma after a full chunk."""
    comments = st.sampled_from(["", " # between\n"] if len(items) <= 6 else [""])
    body = ""
    for i, item in enumerate(items):
        if i % 65 == 0 and i:
            body += draw(SPACES) + "," + draw(st.sampled_from(AFTER_FULL))
        elif i:
            body += draw(SPACES) + "," + draw(comments) + draw(SPACES)
        body += item
    return body


def _edited(draw, text: str, start: int, end: int) -> str:
    """text with at most one character inserted, deleted or replaced near text[start:end]."""
    edit = draw(st.sampled_from(["none", "insert", "delete", "replace"]))
    if edit != "none":
        at = draw(st.integers(max(0, start - 3), min(len(text) - 1, end + 3)))
        char = draw(st.sampled_from(EDITS)) if edit != "delete" else ""
        text = text[:at] + char + text[at + (edit != "insert") :]
    return text


@st.composite
def steps_documents(draw):
    """A document whose steps list is laid out at random: a short list over a
    few names or a long one around the chunks' bound, then a drawn tail, with
    at most one character inserted, deleted or replaced in or around the list."""
    size = draw(st.one_of(st.integers(0, 6), st.sampled_from(LONG)))

    def sp() -> str:
        return draw(SPACES)

    if size > 6:
        objects, labels = [f"o{i}" for i in range(size)], ["l0", "l1"]
        triples = [f"(o{i}, l{i % 2},{sp()}o{(i + 1) % size})" for i in range(size)]
    else:
        objects = [f"o{i}" for i in range(draw(st.integers(1, 4)))]
        labels = [f"l{i}" for i in range(draw(st.integers(1, 3)))]
        objs, labs = st.sampled_from(objects * 4 + ["zz"]), st.sampled_from(labels * 4 + ["o0"])
        triples = [
            f"({sp()}{draw(objs)}{sp()},{sp()}{draw(labs)}{sp()},{sp()}{draw(objs)}{sp()})"
            for _ in range(size)
        ]
    text = f"ars {{\n  objects: {', '.join(objects)};\n  labels: {', '.join(labels)};\n  "
    start = len(text)
    text += f"steps:{sp()}{_separated(draw, triples)}{sp()};"
    end = len(text)
    text += "\n}\n" + draw(st.sampled_from(TAILS))
    return _edited(draw, text, start, end)


@st.composite
def names_documents(draw):
    """A document whose objects and labels lists are laid out at random, then a
    drawn tail. The lists are drawn apart from the tail: in two documents of
    three they are well formed and left as drawn; in the third their names may
    repeat, be reserved or be on both lists, and at most one character is
    inserted, deleted or replaced in or around them. Either way a list is short
    or long around the chunks' bound."""
    edited = draw(st.integers(0, 2)) == 0

    def name_list(keyword: str, pool: list[str], valid: list[str]) -> str:
        size = draw(st.one_of(st.integers(1, 6), st.sampled_from(LONG)))
        if size > 6:
            names = [f"{keyword[0]}{i}" for i in range(size)]
            if edited and draw(st.integers(0, 3)) == 0:
                names[draw(st.integers(0, size - 1))] = draw(st.sampled_from(pool))
        elif edited:
            names = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
        else:
            names = draw(st.permutations(valid))
        return f"{keyword}:{draw(SPACES)}{_separated(draw, names)}{draw(SPACES)};"

    objects = name_list(
        "objects", ["o0", "o1", "o2", "o_3", "o0", "l0", "steps", "depth", "(o0, l0, o1)"], ["o0", "o1", "o2", "o_3"]
    )
    labels = name_list("labels", ["l0", "l1", "l0", "o1", "universal", "l_2"], ["l0", "l1", "l_2"])
    text = f"ars {{\n  {objects}\n  {labels}"
    start, end = len("ars {\n  "), len(text)
    text += "\n  steps: (o0, l0, o1), (o1, l1, o0);\n}\n" + draw(st.sampled_from(TAILS))
    return _edited(draw, text, start, end) if edited else text


class TestNamesReader:
    """A well-formed list of names is read in chunks; their names give what the token loop gives."""

    @settings(max_examples=300, deadline=None)
    @given(names_documents())
    def test_edited_documents_agree_with_the_token_loop(self, text):
        _same_as_tokens(text)

    def test_reserved_word_in_the_objects_list(self):
        text = "ars { objects: a, depth, b; labels: l; steps: ; }"
        diag = f"1:{_col(text, 'depth')}: error: reserved word 'depth' cannot be used as a name"
        assert _same_as_tokens(text) == [(diag, ())]

    def test_duplicate_name(self):
        text = "ars { objects: a, b, a; labels: l, m, l; steps: ; }"
        assert _same_as_tokens(text) == [
            (f"1:{_col(text, 'a;')}: error: duplicate symbol 'a'", ()),
            (f"1:{_col(text, 'l;')}: error: duplicate symbol 'l'", ()),
        ]

    def test_name_both_object_and_label(self):
        text = "ars { objects: a, b; labels: l, b; steps: ; }"
        diag = f"1:{_col(text, 'b;', 2)}: error: 'b' is declared both as an object and as a label"
        assert _same_as_tokens(text) == [(diag, ())]

    def test_comment_inside_the_list(self):
        # a comment after a comma ends a chunk, which takes the comma; the next chunk starts after it
        text = "ars { objects: a, b, # first two\n  c, a; labels: l; steps: ; }"
        assert speclang._fast_lex(text)[4:6] == ["a, b, \n  ", "c, a"]
        assert _same_as_tokens(text) == [("2:6: error: duplicate symbol 'a'", ())]
        assert _same_as_tokens(text.replace("c, a;", "c;"))[0].objects == ("a", "b", "c")

    def test_empty_list(self):
        text = "ars { objects: ; labels: l; steps: ; }"
        diag = f"1:{_col(text, ';')}: error: expected an object name, found ';'"
        assert _same_as_tokens(text) == [(diag, ())]

    def test_trailing_comma(self):
        text = "ars { objects: a, b,; labels: l; steps: ; }"
        diag = f"1:{_col(text, ';')}: error: expected an object name, found ';'"
        assert _same_as_tokens(text) == [(diag, ())]

    def test_no_chunk_starts_inside_a_section(self):
        # only the lists after ':' are chunked; label sets, argument lists and a
        # continuation-like `, name, name` after them are read token by token
        text = (
            "ars { objects: a, b, c; labels: l1, l2; steps: (a, l1, b), (b, l2, c); }\n"
            "accept p = len <= 2;\naccept q = or(p, p, p);\n"
            "strategy s = intersect(restrict({l1, l2}), accept(universal, q), alternate({l1,l2}; {l2}));\n"
        )
        assert _fast_kinds(text).count("names") == 2 and _fast_kinds(text).count("steps") == 1
        assert _same_as_tokens(text)[0] == speclang._fast_read(text)

    def test_a_chunk_of_steps_where_names_go(self):
        # a list of steps after `objects:` or `labels:` is one chunk, but not one of names
        text = "ars { objects: (a, b, c); labels: l; steps: ; }"
        assert _fast_kinds(text).count("steps") == 1
        assert _same_as_tokens(text) == [(f"1:{_col(text, '(')}: error: expected an object name, found '('", ())]
        text = "ars { objects: a; labels: l, (m, n, k); steps: ; }"
        assert _same_as_tokens(text) == [(f"1:{_col(text, '(')}: error: expected a label name, found '('", ())]

    def test_missing_semicolon_before_steps(self):
        # the chunk takes `steps` as a name; the ':' after it ends the list
        text = "ars { objects: a,\n  steps: (a, l, a); }"
        assert speclang._fast_lex(text)[4:6] == ["a,\n  steps", ":"]
        assert _same_as_tokens(text) == [
            ("2:3: error: reserved word 'steps' cannot be used as a name", ()),
            ("2:8: error: expected ';', found ':'", (";",)),
        ]

    def test_a_long_list_is_read_in_chunks(self):
        objects = ", ".join(f"x{i}" for i in range(1000))
        text = f"ars {{ objects: {objects}; labels: l0, l1; steps: (x0, l0, x999); }}"
        kinds = _fast_kinds(text)
        assert kinds.count("names") == 17 and kinds.count("ident") == 4
        chunks = [tok for tok in speclang._fast_lex(text) if "," in tok[1:] and tok[0] != "("]
        assert [len(speclang._chunk_names(tok)) for tok in chunks] == [65] * 15 + [25, 2]
        doc = _same_as_tokens(text)[0]
        assert len(doc.objects) == 1000 and doc.labels == ("l0", "l1")
        text = text.replace("x500,", "x499,")
        assert _same_as_tokens(text) == [(f"1:{_col(text, 'x499', 2)}: error: duplicate symbol 'x499'", ())]


_RUN_MEMORY = """
import sys
sys.path.insert(0, sys.argv[1])
from strat import speclang

def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

text = "ars { objects: " + "o, " * 9999 + "o; labels: l;\\n  steps: " + "(o, l, o), " * 29999 + "(o, l, o); }"
speclang._fast_lex("ars { objects: a, b; labels: l; steps: (a, l, a), (b, l, b); }")
before = peak_kib()
tokens = speclang._fast_lex(text)
chunks = [speclang._chunk_names(tok) for tok in tokens if "," in tok[1:]]
print(peak_kib() - before, sum(map(len, chunks)), max(map(len, chunks)), len(tokens) - len(chunks))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the peak resident size from /proc")
def test_long_runs_are_lexed_in_bounded_memory():
    # sre keeps a backtracking record per repetition of a group repeated without
    # bound, about 2 MiB per 3,000 steps in one match; the lists are matched in
    # chunks of at most 65 items, so lexing 30,000 steps adds next to nothing.
    # The peak is the process's own (VmHWM): its ru_maxrss would start at the
    # peak of the test process that started it, which Linux folds in at exec.
    src = os.path.dirname(os.path.dirname(speclang.__file__))
    proc = subprocess.run([sys.executable, "-I", "-c", _RUN_MEMORY, src], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    growth_kib, names, largest, others = map(int, proc.stdout.split())
    # every name and step is in a chunk: 10,000 object names and 30,000 steps of three
    assert (names, largest, others) == (10000 + 3 * 30000, 3 * 65, 14)
    assert growth_kib < 4096


class TestStepsReader:
    """A well-formed list of steps is read in chunks; their steps give what the token loop gives."""

    def test_a_well_formed_list_is_one_token(self):
        kinds = _fast_kinds(MINI)
        assert kinds.count("steps") == 1 and kinds.count("names") == 2 and kinds.count("punct") == 8
        assert _same_as_tokens(MINI)[0].steps == (("a", "l1", "b"), ("b", "l2", "a"))

    @settings(max_examples=300, deadline=None)
    @given(steps_documents())
    def test_edited_documents_agree_with_the_token_loop(self, text):
        _same_as_tokens(text)

    @pytest.mark.parametrize("space", ["\x0b", "\x0c", "\u00a0"])
    @pytest.mark.parametrize("steps", ["(a, l, a),{}(a, l, a)", "(a, l, a), (a,{}l, a)", "(a, l, a){}, (a, l, a)"])
    def test_space_the_lexer_rejects_in_or_between_steps(self, steps, space):
        text = f"ars {{ objects: a; labels: l;\n  steps: {steps.format(space)}; }}"
        col = text.index(space) - text.index("\n")
        assert _same_as_tokens(text) == [(f"2:{col}: error: unexpected character {space!r}", ())]

    @pytest.mark.parametrize("sep", [";", ":", "x", " "])
    def test_steps_not_separated_by_a_comma(self, sep):
        text = f"ars {{ objects: a; labels: l; steps: (a, l, a){sep}(a, l, a); }}"
        (diag,) = _same_as_tokens(text)
        assert "error: expected" in diag[0]

    def test_comment_inside_the_list(self):
        text = "ars { objects: a, b; labels: l;\n  steps: (a, l, b), # first\n  (b, l, a); }"
        assert _same_as_tokens(text)[0].steps == (("a", "l", "b"), ("b", "l", "a"))

    def test_crlf_and_tabs(self):
        text = "ars {\r\n\tobjects: a, b;\r\n\tlabels: l;\r\n\tsteps:\r\n"
        text += "\t\t(a,\tl, b),\r\n\t\t(b, l,\tzz);\r\n}\r\n"
        assert _same_as_tokens(text) == [("6:10: error: unknown object 'zz'", ())]

    def test_duplicate_and_clashing_steps(self):
        text = "ars { objects: a, b; labels: l; steps: (a, l, b), (a, l, b), (a, l, a); }"
        assert _same_as_tokens(text) == [
            (f"1:{_col(text, '(a, l, a)')}: error: two steps from 'a' with label 'l' reach 'b' and 'a'", ())
        ]
        assert _same_as_tokens(text.replace(", (a, l, a)", ""))[0].steps == (("a", "l", "b"),)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_unknown_names_at_the_nth_step(self, n):
        steps = ["(a, l, b)"] * 5
        steps[n - 1] = "(zz, l, b)"
        text = f"ars {{ objects: a, b; labels: l; steps: {', '.join(steps)}; }}"
        assert _same_as_tokens(text) == [(f"1:{_col(text, 'zz')}: error: unknown object 'zz'", ())]
        text = text.replace("(zz, l, b)", "(a, m, zz)")
        assert _same_as_tokens(text) == [
            (f"1:{_col(text, 'm,')}: error: unknown label 'm'", ()),
            (f"1:{_col(text, 'zz')}: error: unknown object 'zz'", ()),
        ]

    def test_a_run_step_and_a_later_step_clash(self):
        # the chunk's steps reach Ars unchecked; its fault sends the text to the token loop.
        # The comment inside the second step ends the chunk before it.
        text = "ars { objects: a, b; labels: l;\n  steps: (a, l, b),\n  (a, # second\n l, a); }"
        assert _fast_kinds(text).count("steps") == 1 and speclang._fast_lex(text)[13:15] == [",", "("]
        assert _same_as_tokens(text) == [("3:3: error: two steps from 'a' with label 'l' reach 'b' and 'a'", ())]

    def test_a_sound_ars_section_then_a_later_fault(self):
        text = f"{MINI}\nstrategy s = greatmost(nosuch);\n"
        assert _same_as_tokens(text) == [("2:24: error: unknown order 'nosuch'", ())]

    def test_second_ars_section(self):
        text = f"{MINI}\nars {{ objects: c; labels: k; steps: (c, k, c), (a, l1, b); }}"
        assert _same_as_tokens(text) == [
            ("2:1: error: document declares more than one ars section", ()),
            ("2:38: error: unknown object 'c'", ()),
            ("2:41: error: unknown label 'k'", ()),
            ("2:44: error: unknown object 'c'", ()),
        ]

    def test_a_long_list_with_a_comment(self):
        # the comment ends a chunk, which takes the comma before it; chunks go on after it
        steps = [f"(x{i}, l{i % 3}, x{(i + 1) % 1000})" for i in range(1000)]
        steps[600] = "(zz, l0, x1)"
        body = ",\n  ".join(steps[:900]) + ", # a comment\n" + ", ".join(steps[900:])
        objects = ", ".join(f"x{i}" for i in range(1000))
        text = f"ars {{ objects: {objects}; labels: l0, l1, l2;\n steps: {body}; }}"
        kinds = _fast_kinds(text)
        assert kinds.count("steps") == 16 and "(" not in speclang._fast_lex(text)
        assert _same_as_tokens(text) == [("602:4: error: unknown object 'zz'", ())]
        text = text.replace("(zz, l0, x1)", "(x600, l0, x601)")
        assert len(_same_as_tokens(text)[0].steps) == 1000

    def test_empty_list(self):
        assert _same_as_tokens("ars { objects: a; labels: l; steps: ; }")[0].steps == ()

    def test_trailing_comma(self):
        text = "ars { objects: a; labels: l; steps: (a, l, a),; }"
        diag = f"1:{_col(text, ';', 3)}: error: expected '(', found ';'"
        assert _same_as_tokens(text) == [(diag, ("(",))]
