"""Lexer, parser and printer: tokens, recovery, spans, round trips."""

import glob
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import lexer_oracle
from conftest import CORPUS, DATA, REPO
from fuzz_edits import EDITS, edited, token_units
from stt.lexer import LexError, tokenize
from stt.parser import parse_module, parse_term
from stt.printer import print_term
from stt.syntax import (
    App, Cube0, Cube1, Extension, Fst, IdType, Interval, JElim, Join, Lam,
    Meet, Pair, Pi, ProdCube, RecBot, RecOr, Refl, ShapeTy, Sigma, Snd,
    TOP, TopeEq, TopeLeq, TopeOr, TypedBinder, Universe, UnitCube, Var,
    alpha_eq,
)


class TestTokenize:
    def test_lambda_ident_dot(self):
        kinds = [tok.kind for tok in tokenize("λ t . b")][:-1]
        assert kinds == ["LAMBDA", "IDENT", "DOT", "IDENT"]

    def test_shape_braces_with_leq(self):
        kinds = [tok.kind for tok in tokenize("{(t,s) : I × I | s ≤ t}")][:-1]
        assert kinds == [
            "LBRACE", "LPAREN", "IDENT", "COMMA", "IDENT", "RPAREN", "COLON",
            "CUBE_I", "STAR", "CUBE_I", "BAR", "IDENT", "TOPE_LEQ", "IDENT",
            "RBRACE",
        ]

    def test_endpoint_constants_are_keywords(self):
        kinds = [tok.kind for tok in tokenize("0 ≡ 1")][:-1]
        assert kinds == ["CUBE_ZERO", "TOPE_EQ", "CUBE_ONE"]

    def test_ascii_and_unicode_agree(self):
        a = [tok.kind for tok in tokenize(r"\ t . x /\ y \/ z <= w == v |-> u -> s * r")]
        b = [tok.kind for tok in tokenize("λ t . x ∧ y ∨ z ≤ w ≡ v ↦ u → s × r")]
        assert a == b

    def test_tokens_cover_input_with_spans(self):
        src = "def f (x : I) : U := {t : I | t == 0};"
        toks = tokenize(src)
        for tok in toks[:-1]:
            assert src[tok.span[0]:tok.span[1]] == tok.text

    def test_comments_dropped_and_nested(self):
        toks = tokenize("a -- line comment\nb {- block {- nested -} still -} c")
        assert [t.text for t in toks[:-1]] == ["a", "b", "c"]

    def test_unterminated_comment(self):
        with pytest.raises(LexError) as e:
            tokenize("{- never closed")
        assert e.value.diagnostic.code == "LEX"

    def test_illegal_character(self):
        with pytest.raises(LexError) as e:
            tokenize("a ? b")
        assert e.value.diagnostic.code == "LEX"

    def test_primes_and_scripts_in_identifiers(self):
        toks = tokenize("b' b′ x₁ ∂Δ¹ σ")
        assert all(t.kind == "IDENT" for t in toks[:-1])
        assert len(toks) == 6

    def test_determinism(self):
        src = open(os.path.join(CORPUS, "hom.stt")).read()
        assert tokenize(src) == tokenize(src)

    def test_a_universe_takes_ascii_digits_only(self):
        toks = tokenize("U U0 U12 U₁ U1² U١ Ux")[:-1]
        assert [t.kind for t in toks] == ["UNIVERSE"] * 3 + ["IDENT"] * 4

    @pytest.mark.parametrize("src", ["x 2", "x ²", "x 0a", "x Ⅻ", "x ١"])
    def test_a_name_starts_with_a_letter_underscore_or_partial(self, src):
        with pytest.raises(LexError) as e:
            tokenize(src)
        assert e.value.diagnostic.span == (2, 3)
        assert e.value.diagnostic.message.startswith(f"illegal character {src[2]!r}")


def _lexed(lex, source: str):
    """The tokens of ``source`` as ``(kind, text, span)``, or the message and
    span of its lex error."""
    try:
        return [(t.kind, t.text, t.span) for t in lex(source, "m.stt")]
    except (LexError, lexer_oracle.LexError) as e:
        return e.diagnostic.message, e.diagnostic.span


# a piece of each token class, and characters each class must not take in
LEX_PIECES = [
    *"λΠΣ→≤≡∧∨↦×⊤⊥", *"'′″‴∂", *"₀²¹", "U", "1", "0", "U1", "--", "{-", "-}",
    "|->", *"\t\r\x0b\n ", "Ⅻ", "١", *"abIx_", *"(){}<>|,:;.*\\/=-?",
    "def", "fst", "TOP",
]
MODULES = sorted(glob.glob(os.path.join(CORPUS, "*.stt"))) + sorted(
    glob.glob(os.path.join(DATA, "**", "*.stt"), recursive=True))
LEX_SEEDS = [token_units(path) for path in MODULES
             if not os.path.basename(path).startswith("lex_")]


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_lexer_agrees_with_the_oracle_on_every_module(path):
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    assert _lexed(tokenize, source) == _lexed(lexer_oracle.tokenize, source)


@pytest.mark.parametrize("source", [
    "{-" * 20_000 + "-}" * 20_000, "{-" * 20_000 + "-}" * 19_999,
    "{-}-}", "{-}", "{--}x", "{-{-}-} y", "a{-b-}c--d\ne",
], ids=["deep", "deep-unterminated", "open-close", "open-only", "dashes",
        "nested", "mixed"])
def test_lexer_agrees_with_the_oracle_on_comments(source):
    assert _lexed(tokenize, source) == _lexed(lexer_oracle.tokenize, source)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(LEX_PIECES), max_size=30).map("".join),
    st.text(max_size=30),
    st.builds(edited, st.sampled_from(LEX_SEEDS), EDITS),
))
def test_lexer_agrees_with_the_oracle(source):
    assert _lexed(tokenize, source) == _lexed(lexer_oracle.tokenize, source)


def _parse_pin(path: str) -> dict:
    """The spans a parse of the module at ``path`` gives: each span-table
    entry as ``start, end`` by node class, sorted, and each declaration's
    name, span, name span and identifiers."""
    with open(path, encoding="utf-8") as fh:
        mod, _ = parse_module(fh.read(), path)
    nodes = {id(n): n for n in mod.spanned}
    spans = {}
    for cls, start, end in sorted((type(nodes[k]).__name__, *span)
                                  for k, span in mod.span_table.items()):
        spans.setdefault(cls, []).extend((start, end))
    return {"spans": spans, "declarations": [
        [d.name, list(d.span), list(d.name_span), list(d.idents)]
        for d in mod.declarations]}


def test_spans_match_the_pinned_parse():
    """`data/parse_spans.json` holds `_parse_pin` of every corpus and test
    module, as the parser with one function per operator level gave it."""
    with open(os.path.join(DATA, "parse_spans.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    relative = [os.path.relpath(path, REPO).replace(os.sep, "/") for path in MODULES]
    assert sorted(pinned) == sorted(relative)
    for rel in relative:
        assert _parse_pin(os.path.join(REPO, rel)) == pinned[rel], rel


class TestParse:
    def test_single_definition(self):
        mod, diags = parse_module(
            "def idfun (A : U) : A -> A := \\x . x;", "m.stt")
        assert not diags
        assert len(mod.declarations) == 1
        assert mod.declarations[0].name == "idfun"
        assert mod.declarations[0].kind == "definition"

    def test_hom_body_is_extension(self):
        src = (r"def hom (B : U) (b b' : B) : U := "
               r"<Pi (t : {u : I | TOP}) -> B | t == 0 \/ t == 1 "
               r"|-> recOR (t == 0 |-> b , t == 1 |-> b')>;")
        mod, diags = parse_module(src, "m.stt")
        assert not diags
        assert isinstance(mod.declarations[0].body, Extension)

    def test_recovery_at_next_declaration(self):
        src = "def broken : :=;\ndef fine (A : U) : A -> A := \\x . x;"
        mod, diags = parse_module(src, "m.stt")
        assert len(diags) == 1 and diags[0].code == "PARSE"
        assert [d.name for d in mod.declarations] == ["fine"]

    def test_duplicate_declaration(self):
        src = "def a : U := {t : I | TOP};\ndef a : U := {t : I | TOP};"
        mod, diags = parse_module(src, "m.stt")
        assert len(diags) == 1 and diags[0].code == "PARSE"
        assert "duplicate" in diags[0].message

    def test_imports(self):
        mod, diags = parse_module("import alpha;\nimport beta;\n", "m.stt")
        assert not diags
        assert [i for i, _ in mod.imports] == ["alpha", "beta"]

    def test_every_node_has_a_span(self):
        src = "def f (x : I) {x == 0} : U := {t : I | t <= x};"
        mod, diags = parse_module(src, "m.stt")
        assert not diags
        body = mod.declarations[0].body
        span = mod.span_of(body)
        assert span is not None and src[span[0]:span[1]].startswith("{t")

    def test_no_node_made_after_a_parse_has_a_span(self):
        """The parse of shapes.stt backtracks past nodes it spanned; no node
        made later may take one of their ids and with it a span.  A fresh
        interpreter makes the allocations the same from run to run."""
        proc = subprocess.run([sys.executable, "-c", (
            "from stt.parser import parse_module\n"
            "from stt.syntax import App, Universe, Var\n"
            f"with open({os.path.join(CORPUS, 'shapes.stt')!r}) as fh:\n"
            "    mod, _ = parse_module(fh.read(), 'shapes.stt')\n"
            "made = [n for _ in range(20_000)\n"
            "        for n in (Var('x'), App(Var('f'), Var('y')), Universe(0))]\n"
            "print(sum(mod.span_of(n) is not None for n in made))")],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.path.join(REPO, "src")))
        assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr

    def test_declarations_list_their_identifiers(self):
        mod, _ = parse_module(
            "def f (x : A) : B x := g x (\\y . y) x;", "m.stt")
        assert mod.declarations[0].idents == ("f", "x", "A", "B", "g", "y")

    def test_postulate_has_no_body(self):
        mod, diags = parse_module("postulate X : U := U;", "m.stt")
        assert diags and diags[0].code == "PARSE"

    def test_telescope_tope_binder(self):
        mod, diags = parse_module(
            "def f (t : I) {t == 0} : U := {s : I | s <= t};", "m.stt")
        assert not diags
        assert len(mod.declarations[0].telescope) == 2


ROUND_TRIP_CASES = [
    r"\t . b",
    r"(A : U) -> A -> A",
    r"Sigma (x : A) . ((y : A) -> Id A x y)",
    r"<Pi (t : {s : I | s == 0 \/ s == 1}) -> B | t == 0 |-> b>",
    r"{(t,s) : I * I | s <= t}",
    r"{p : (I * I) * I | fst (fst p) <= snd p}",
    r"f (t /\ s) \/ u 0",
    r"idJ (\w q . Id A x w) p q",
    r"(a , b , c)",
    r"A * B * (C -> D)",
    r"fst p q",
    r"recOR (t == 0 |-> a , t == 1 |-> b)",
    r"recBOT",
    r"refl (f x)",
    r"U1",
    r"\x . \x . x",
    r"{t : 1 | TOP}",
]


@pytest.mark.parametrize("src", ROUND_TRIP_CASES)
def test_print_parse_round_trip(src):
    ast = parse_term(src)
    printed = print_term(ast)
    assert alpha_eq(parse_term(printed), ast), printed


def test_round_trip_all_corpus_files():
    for name in sorted(os.listdir(CORPUS)):
        if not name.endswith(".stt"):
            continue
        src = open(os.path.join(CORPUS, name)).read()
        mod, diags = parse_module(src, name)
        assert not diags, (name, [d.message for d in diags])
        for decl in mod.declarations:
            for term in filter(None, [decl.stated_type, decl.body]):
                again = parse_term(print_term(term))
                assert alpha_eq(again, term), (name, decl.name)


# random AST generator shared with the acceptance suite; hypothesis drives
# the seeds
_idents = st.sampled_from(["a", "b", "f", "g", "x", "y", "zz", "b'"])


def _terms():
    leaves = st.one_of(
        _idents.map(Var),
        st.just(Cube0()),
        st.just(Cube1()),
        st.sampled_from([Universe(0), Universe(1)]),
        st.just(RecBot()),
    )

    def extend(sub):
        sorts = st.sampled_from([Interval(), UnitCube(), ProdCube(Interval(), Interval())])
        topes = st.one_of(
            st.just(TOP),
            st.tuples(sub, sub).map(lambda p: TopeEq(p[0], p[1])),
            st.tuples(sub, sub).map(lambda p: TopeLeq(p[0], p[1])),
            st.tuples(sub, sub, sub, sub).map(
                lambda p: TopeOr(TopeEq(p[0], p[1]), TopeLeq(p[2], p[3]))),
        )
        return st.one_of(
            st.tuples(sub, sub).map(lambda p: App(p[0], p[1])),
            st.tuples(_idents, sub).map(lambda p: Lam(p[0], p[1])),
            st.tuples(_idents, sub, sub).map(lambda p: Pi(p[0], p[1], p[2])),
            st.tuples(_idents, sub, sub).map(lambda p: Sigma(p[0], p[1], p[2])),
            st.tuples(sub, sub).map(lambda p: Pair(p[0], p[1])),
            sub.map(Fst),
            sub.map(Snd),
            st.tuples(sub, sub, sub).map(lambda p: IdType(p[0], p[1], p[2])),
            sub.map(Refl),
            st.tuples(sub, sub, sub).map(lambda p: JElim(p[0], p[1], p[2])),
            st.tuples(sub, sub).map(lambda p: Meet(p[0], p[1])),
            st.tuples(sub, sub).map(lambda p: Join(p[0], p[1])),
            st.tuples(_idents, sorts, topes).map(
                lambda p: ShapeTy(p[0], p[1], p[2])),
            st.tuples(_idents, sorts, topes, sub, sub).map(
                lambda p: Extension(p[0], ShapeTy(p[0], p[1], TOP), p[2], p[3], p[4])),
            st.tuples(topes, topes, sub, sub).map(
                lambda p: RecOr(p[0], p[1], p[2], p[3])),
        )

    return st.recursive(leaves, extend, max_leaves=20)


@settings(max_examples=400, deadline=None)
@given(_terms())
def test_round_trip_random_asts(term):
    printed = print_term(term)
    reparsed = parse_term(printed)
    assert alpha_eq(reparsed, term), printed


def test_round_trip_seeded_bulk():
    import random as _random
    from genterms import random_term
    rng = _random.Random(1234)
    for _ in range(2000):
        term = random_term(rng, rng.randrange(1, 4))
        printed = print_term(term)
        assert alpha_eq(parse_term(printed), term), printed
