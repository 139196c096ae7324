"""Recursive-descent parser for `.stt` modules.

Error recovery is declaration-synchronized: a parse failure records a
diagnostic and skips to the next `def`/`postulate`/`import`, so a single
run reports many errors.  Every AST node is registered in the module's
span table.

Operator precedence, loosest to tightest:
    terms:  `->` (right)  <  `*` (right)  <  `\\/`  <  `/\\`  <  application;
    topes:  `\\/`  <  `/\\`  <  relations.
`->` keeps its own rule, since binder groups may stand before it.  Every
other binary operator is one row of `_TERM_OPERATORS` or `_TOPE_OPERATORS`,
which `Parser.binary` reads by precedence climbing (Pratt, "Top down
operator precedence", POPL 1973).  Relation operands inside topes are
atoms; compound cube terms there take parentheses.
"""

from __future__ import annotations

import re
from typing import Optional

from .diagnostics import Diagnostic
from .lexer import LexError, Token, tokenize
from .syntax import (
    App, Cube0, Cube1, CubeSort, CubeStar, Declaration, Extension, Fst, IdType,
    Interval, JElim, Join, Lam, Meet, Pair, Pi, ProdCube, RecBot, RecOr,
    Refl, ShapeTy, Sigma, Snd, SourceModule, Term, Tope, TopeAnd, TopeBinder,
    TopeBot, TopeEq, TopeLeq, TopeOr, TopeTop, TypedBinder, Universe,
    UnitCube, Var, allow_deep_recursion, fresh_name, subst,
)

_DIRECTIVE_RE = re.compile(r"^\s*--@(\w+)\s*(.*?)\s*$", re.MULTILINE)

_SYNC_KINDS = {"DEF", "POSTULATE", "IMPORT", "EOF"}

# the most digits a universe level may have: the kernel prints levels, and
# Python converts at most 4,300 digits between int and str
MAX_LEVEL_DIGITS = 100

# binary operators by token kind: (precedence, right associative, node),
# a higher precedence binding tighter
_TERM_OPERATORS = {
    "STAR": (0, True, lambda left, right: Sigma("_", left, right)),
    "JOIN": (1, False, Join),
    "MEET": (2, False, Meet),
}
_TOPE_OPERATORS = {"JOIN": (0, False, TopeOr), "MEET": (1, False, TopeAnd)}

# atoms that are a keyword and a fixed number of atom arguments
_PREFIX_ATOMS = {
    "CUBE_ZERO": (Cube0, 0), "CUBE_ONE": (Cube1, 0), "CUBE_STAR": (CubeStar, 0),
    "RECBOT": (RecBot, 0), "FST": (Fst, 1), "SND": (Snd, 1), "REFL": (Refl, 1),
    "ID": (IdType, 3), "IDJ": (JElim, 3),
}


class ParseError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


class Parser:
    def __init__(self, tokens: list[Token], path: str, module: SourceModule):
        self.toks = tokens
        self.pos = 0
        self.path = path
        self.module = module
        allow_deep_recursion()

    # -- token plumbing ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    # `EOF` is the last token and `next` never moves past it, so `pos`
    # always indexes a token
    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, *kinds: str) -> bool:
        return self.toks[self.pos].kind in kinds

    def expect(self, kind: str, what: Optional[str] = None) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != kind:
            raise self.error(f"expected {what or kind}", {kind})
        return self.next()

    def error(self, message: str, expected: set[str]) -> ParseError:
        tok = self.peek()
        found = tok.text or "end of file"
        exp = ", ".join(sorted(expected))
        return ParseError(Diagnostic(
            "error", "PARSE", f"{message}, found {found!r} (expected: {exp})",
            self.path, tok.span))

    def spanned(self, node, start: int, end: Optional[int] = None):
        end_pos = self.toks[max(0, (end if end is not None else self.pos) - 1)].span[1]
        self.module.span_table[id(node)] = (self.toks[start].span[0], end_pos)
        self.module.spanned.append(node)
        return node

    def binary(self, operators: dict, operand, loosest: int = 0):
        """Operands read by ``operand``, joined by the operators of
        ``operators`` whose precedence is at least ``loosest``."""
        start = self.pos
        left = operand()
        while True:
            row = operators.get(self.toks[self.pos].kind)
            if row is None or row[0] < loosest:
                return left
            precedence, right_assoc, node = row
            self.pos += 1
            right = self.binary(operators, operand,
                                precedence if right_assoc else precedence + 1)
            left = self.spanned(node(left, right), start)

    # -- cube sorts ----------------------------------------------------------

    def cube_sort(self) -> CubeSort:
        left = self.cube_sort_atom()
        if self.at("STAR"):
            self.next()
            return ProdCube(left, self.cube_sort())
        return left

    def cube_sort_atom(self) -> CubeSort:
        if self.at("CUBE_I"):
            self.next()
            return Interval()
        if self.at("CUBE_ONE"):
            self.next()
            return UnitCube()
        if self.at("LPAREN"):
            self.next()
            sort = self.cube_sort()
            self.expect("RPAREN")
            return sort
        raise self.error("expected a cube sort", {"CUBE_I", "CUBE_ONE", "LPAREN"})

    # -- topes ---------------------------------------------------------------

    def tope(self) -> Tope:
        return self.binary(_TOPE_OPERATORS, self.tope_atom)

    def tope_atom(self) -> Tope:
        start = self.pos
        if self.at("TOPE_TOP"):
            self.next()
            return self.spanned(TopeTop(), start)
        if self.at("TOPE_BOT"):
            self.next()
            return self.spanned(TopeBot(), start)
        if self.at("LPAREN"):
            save = self.pos
            self.next()
            try:
                inner = self.tope()
                self.expect("RPAREN")
                return inner
            except ParseError:
                self.pos = save  # fall through to a relation over a cube atom
        lhs = self.atom()
        if self.at("TOPE_LEQ"):
            self.next()
            rhs = self.atom()
            return self.spanned(TopeLeq(lhs, rhs), start)
        if self.at("TOPE_EQ"):
            self.next()
            rhs = self.atom()
            return self.spanned(TopeEq(lhs, rhs), start)
        raise self.error("expected a tope relation", {"TOPE_LEQ", "TOPE_EQ"})

    # -- terms ---------------------------------------------------------------

    def term(self) -> Term:
        return self.arrow()

    def arrow(self) -> Term:
        start = self.pos
        # one or more binder groups followed by ->
        if self.at("LPAREN") and self._binder_group_ahead():
            groups = [self.binder_group()]
            while self.at("LPAREN") and self._binder_group_ahead():
                groups.append(self.binder_group())
            self.expect("ARROW", "'->' after binder group")
            body = self.arrow()
            for names, dom in reversed(groups):
                for name in reversed(names):
                    body = self.spanned(Pi(name, dom, body), start)
            return body
        left = self.binary(_TERM_OPERATORS, self.app_chain)
        if self.at("ARROW"):
            self.next()
            right = self.arrow()
            return self.spanned(Pi("_", left, right), start)
        return left

    def _binder_group_ahead(self) -> bool:
        # LPAREN IDENT+ COLON introduces a binder group
        i = 1
        if self.peek(i).kind != "IDENT":
            return False
        while self.peek(i).kind == "IDENT":
            i += 1
        return self.peek(i).kind == "COLON"

    def binder_group(self) -> tuple[list[str], Term]:
        self.expect("LPAREN")
        names = [self.expect("IDENT").text]
        while self.at("IDENT"):
            names.append(self.next().text)
        self.expect("COLON")
        dom = self.binder_domain()
        self.expect("RPAREN")
        return names, dom

    def binder_domain(self) -> Term:
        """A binder's domain: a cube sort (sugar for a full shape) or a term.
        Only sorts mentioning I are unambiguous here; unit-only cubes (`1`,
        `1 * 1`) read as terms and bind through a brace shape instead."""
        start = self.pos
        # a cube sort starts with one of these: trying only then spares the
        # ParseError of a failed try on every other domain
        if self.at("CUBE_I", "CUBE_ONE", "LPAREN"):
            try:
                sort = self.cube_sort()
                if self.at("RPAREN") and _mentions_interval(sort):
                    x = fresh_name("t")
                    return self.spanned(ShapeTy(x, sort, TopeTop()), start)
            except ParseError:
                pass
            self.pos = start
        return self.term()

    def app_chain(self) -> Term:
        start = self.pos
        if self.at("LAMBDA"):
            return self.lam()
        if self.at("SIGMA"):
            return self.sigma()
        head = self.atom()
        # `{` only opens a shape here; `{-` comments were dropped by the lexer
        while self.toks[self.pos].kind in self._ATOM_STARTS:
            arg = self.atom()
            head = self.spanned(App(head, arg), start)
        return head

    _ATOM_STARTS = {
        "IDENT", "CUBE_ZERO", "CUBE_ONE", "CUBE_STAR", "UNIVERSE", "LPAREN",
        "LBRACE", "LANGLE", "FST", "SND", "REFL", "ID", "IDJ", "RECOR",
        "RECBOT",
    }

    def lam(self) -> Term:
        start = self.pos
        self.expect("LAMBDA")
        names = [self.expect("IDENT", "a binder name").text]
        while self.at("IDENT"):
            names.append(self.next().text)
        self.expect("DOT", "'.' after lambda binders")
        body = self.term()
        for name in reversed(names):
            body = self.spanned(Lam(name, body), start)
        return body

    def sigma(self) -> Term:
        start = self.pos
        self.expect("SIGMA")
        names, dom = self.binder_group()
        self.expect("DOT", "'.' after Sigma binder")
        body = self.term()
        for name in reversed(names):
            body = self.spanned(Sigma(name, dom, body), start)
        return body

    def atom(self) -> Term:
        start = self.pos
        tok = self.toks[self.pos]
        if tok.kind in _PREFIX_ATOMS:
            node, arity = _PREFIX_ATOMS[tok.kind]
            self.pos += 1
            return self.spanned(node(*[self.atom() for _ in range(arity)]), start)
        match tok.kind:
            case "IDENT":
                self.next()
                return self.spanned(Var(tok.text), start)
            case "UNIVERSE":
                if len(tok.text) > 1 + MAX_LEVEL_DIGITS:
                    raise ParseError(Diagnostic(
                        "error", "PARSE", "universe level too large", self.path,
                        tok.span))
                self.next()
                return self.spanned(Universe(int(tok.text[1:] or "0")), start)
            case "RECOR":
                self.next()
                return self.rec_or(start)
            case "LPAREN":
                self.next()
                inner = self.term()
                if self.at("COMMA"):
                    parts = [inner]
                    while self.at("COMMA"):
                        self.next()
                        parts.append(self.term())
                    self.expect("RPAREN")
                    node = parts[-1]
                    for part in reversed(parts[:-1]):
                        node = self.spanned(Pair(part, node), start)
                    return node
                self.expect("RPAREN")
                return inner
            case "LBRACE":
                return self.shape(start)
            case "LANGLE":
                return self.extension(start)
        raise self.error("expected a term", self._ATOM_STARTS)

    def rec_or(self, start: int) -> Term:
        self.expect("LPAREN", "'(' after recOR")
        arms: list[tuple[Tope, Term]] = []
        while True:
            tope = self.tope()
            self.expect("MAPSTO", "'|->' in recOR arm")
            body = self.term()
            arms.append((tope, body))
            if self.at("COMMA"):
                self.next()
                continue
            break
        self.expect("RPAREN")
        if len(arms) < 2:
            raise self.error("recOR takes at least two arms", {"COMMA"})

        def build(items: list[tuple[Tope, Term]]) -> Term:
            if len(items) == 2:
                (p1, t1), (p2, t2) = items
                return self.spanned(RecOr(p1, p2, t1, t2), start)
            (p1, t1) = items[0]
            rest = items[1:]
            rest_tope = rest[0][0]
            for p, _ in rest[1:]:
                rest_tope = TopeOr(rest_tope, p)
            return self.spanned(RecOr(p1, rest_tope, t1, build(rest)), start)

        return build(arms)

    def shape(self, start: int) -> Term:
        """{ pat : cube-sort | tope }; tuple patterns bind one product
        variable, components become projections in the tope."""
        self.expect("LBRACE")
        pat = self.shape_pattern()
        self.expect("COLON", "':' in shape")
        sort = self.cube_sort()
        self.expect("BAR", "'|' before the shape tope")
        tope = self.tope()
        self.expect("RBRACE")
        if isinstance(pat, str):
            return self.spanned(ShapeTy(pat, sort, tope), start)
        x = fresh_name("p")
        for name, proj in self._pattern_projections(pat, Var(x)):
            tope = subst(tope, name, proj)
        return self.spanned(ShapeTy(x, sort, tope), start)

    def shape_pattern(self):
        if self.at("IDENT"):
            return self.next().text
        self.expect("LPAREN", "a shape pattern")
        left = self.shape_pattern()
        self.expect("COMMA", "',' in shape pattern")
        right = self.shape_pattern()
        self.expect("RPAREN")
        return (left, right)

    def _pattern_projections(self, pat, base: Term):
        if isinstance(pat, str):
            yield pat, base
            return
        left, right = pat
        yield from self._pattern_projections(left, Fst(base))
        yield from self._pattern_projections(right, Snd(base))

    def extension(self, start: int) -> Term:
        self.expect("LANGLE")
        self.expect("PI", "'Pi' opening an extension type")
        self.expect("LPAREN", "'(' around the extension binder")
        name = self.expect("IDENT", "the extension binder").text
        self.expect("COLON")
        dom = self.binder_domain()
        self.expect("RPAREN")
        self.expect("ARROW", "'->' after the extension binder")
        family = self.term()
        self.expect("BAR", "'|' before the subtope")
        subtope = self.tope()
        self.expect("MAPSTO", "'|->' before the partial section")
        partial = self.term()
        self.expect("RANGLE", "'>' closing the extension type")
        return self.spanned(Extension(name, dom, subtope, family, partial), start)

    # -- declarations --------------------------------------------------------

    def declaration(self) -> Declaration:
        start = self.pos
        kw = self.next()
        kind = "definition" if kw.kind == "DEF" else "postulate"
        name_tok = self.expect("IDENT", "a declaration name")
        telescope: list = []
        while True:
            if self.at("LPAREN") and self._binder_group_ahead():
                names, dom = self.binder_group()
                telescope.extend(TypedBinder(n, dom) for n in names)
                continue
            if self.at("LBRACE"):
                self.next()
                tope = self.tope()
                self.expect("RBRACE")
                telescope.append(TopeBinder(tope))
                continue
            break
        self.expect("COLON", "':' before the declared type")
        stated = self.term()
        body = None
        if self.at("DEFEQ"):
            self.next()
            body = self.term()
        if kind == "definition" and body is None:
            raise self.error("definition requires ':=' and a body", {"DEFEQ"})
        if kind == "postulate" and body is not None:
            raise self.error("postulate cannot have a body", {"SEMI"})
        semi = self.expect("SEMI", "';' ending the declaration")
        return Declaration(
            name=name_tok.text,
            kind=kind,
            telescope=telescope,
            stated_type=stated,
            body=body,
            span=(kw.span[0], semi.span[1]),
            name_span=name_tok.span,
            idents=tuple(dict.fromkeys(
                t.text for t in self.toks[start:self.pos] if t.kind == "IDENT")),
        )

    def synchronize(self) -> None:
        while not self.at(*_SYNC_KINDS):
            self.next()


def parse_module(
    source: str, path: str = "<input>", name: Optional[str] = None
) -> tuple[SourceModule, list[Diagnostic]]:
    """Parse a module; returns the (possibly partial) module and diagnostics."""
    modname = name if name is not None else _stem(path)
    module = SourceModule(path=path, name=modname, source=source)
    for m in _DIRECTIVE_RE.finditer(source):
        module.directives.setdefault(m.group(1), []).append(m.group(2))
    diags: list[Diagnostic] = []
    try:
        tokens = tokenize(source, path)
    except LexError as e:
        diags.append(e.diagnostic)
        return module, diags
    p = Parser(tokens, path, module)
    while p.at("IMPORT"):
        try:
            p.next()
            tok = p.expect("IDENT", "a module name")
            p.expect("SEMI", "';' after import")
            module.imports.append((tok.text, tok.span))
        except ParseError as e:
            diags.append(e.diagnostic)
            p.synchronize()
    seen: dict[str, Declaration] = {}
    while not p.at("EOF"):
        if not p.at("DEF", "POSTULATE"):
            diags.append(Diagnostic(
                "error", "PARSE",
                f"expected a declaration, found {p.peek().text!r}",
                path, p.peek().span))
            p.next()
            p.synchronize()
            continue
        head = p.peek()
        try:
            decl = p.declaration()
        except ParseError as e:
            diags.append(e.diagnostic)
            p.synchronize()
            continue
        except RecursionError:
            diags.append(Diagnostic(
                "error", "PARSE", "nesting too deep", path, head.span))
            p.synchronize()
            continue
        if decl.name in seen:
            diags.append(Diagnostic(
                "error", "PARSE",
                f"duplicate declaration of {decl.name!r}",
                path, decl.name_span,
                notes=[(seen[decl.name].name_span, "first declared here")]))
            continue
        seen[decl.name] = decl
        module.declarations.append(decl)
    return module, diags


def parse_term(source: str) -> Term:
    """Parse a standalone term (testing helper); raises on failure."""
    module = SourceModule(path="<term>", name="<term>", source=source)
    p = Parser(tokenize(source, "<term>"), "<term>", module)
    t = p.term()
    if not p.at("EOF"):
        raise p.error("trailing input after term", {"EOF"})
    return t


def _mentions_interval(sort: CubeSort) -> bool:
    match sort:
        case Interval():
            return True
        case ProdCube(l, r):
            return _mentions_interval(l) or _mentions_interval(r)
    return False


def _stem(path: str) -> str:
    base = path.replace("\\", "/").rsplit("/", 1)[-1]
    return base[:-4] if base.endswith(".stt") else base
