"""Recursive-descent parser for `.stt` modules.

Error recovery is declaration-synchronized: a parse failure records a
diagnostic and skips to the next `def`/`postulate`/`import`, so a single
run reports many errors.  Every AST node is registered in the module's
span table.

Operator precedence, loosest to tightest:
    `->` (right)  <  `*` (right)  <  `\\/`  <  `/\\`  <  application.
Relation operands inside topes are atoms; compound cube terms there take
parentheses.
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

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, *kinds: str) -> bool:
        return self.peek().kind in kinds

    def expect(self, kind: str, what: Optional[str] = None) -> Token:
        tok = self.peek()
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

    # -- cube sorts ----------------------------------------------------------

    def try_cube_sort(self) -> Optional[CubeSort]:
        """Backtracking parse of a cube sort (I, 1 and products)."""
        save = self.pos
        try:
            return self.cube_sort()
        except ParseError:
            self.pos = save
            return None

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
        start = self.pos
        left = self.tope_and()
        while self.at("JOIN"):
            self.next()
            right = self.tope_and()
            left = self.spanned(TopeOr(left, right), start)
        return left

    def tope_and(self) -> Tope:
        start = self.pos
        left = self.tope_atom()
        while self.at("MEET"):
            self.next()
            right = self.tope_atom()
            left = self.spanned(TopeAnd(left, right), start)
        return left

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
        left = self.prod()
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
        sort = self.try_cube_sort()
        if sort is not None and self.at("RPAREN") and _mentions_interval(sort):
            x = fresh_name("t")
            return self.spanned(ShapeTy(x, sort, TopeTop()), start)
        self.pos = start
        return self.term()

    def prod(self) -> Term:
        start = self.pos
        left = self.join_term()
        if self.at("STAR"):
            self.next()
            right = self.prod()
            return self.spanned(Sigma("_", left, right), start)
        return left

    def join_term(self) -> Term:
        start = self.pos
        left = self.meet_term()
        while self.at("JOIN"):
            self.next()
            right = self.meet_term()
            left = self.spanned(Join(left, right), start)
        return left

    def meet_term(self) -> Term:
        start = self.pos
        left = self.app_chain()
        while self.at("MEET"):
            self.next()
            right = self.app_chain()
            left = self.spanned(Meet(left, right), start)
        return left

    def app_chain(self) -> Term:
        start = self.pos
        if self.at("LAMBDA"):
            return self.lam()
        if self.at("SIGMA"):
            return self.sigma()
        head = self.atom()
        while self._atom_ahead():
            arg = self.atom()
            head = self.spanned(App(head, arg), start)
        return head

    _ATOM_STARTS = {
        "IDENT", "CUBE_ZERO", "CUBE_ONE", "CUBE_STAR", "UNIVERSE", "LPAREN",
        "LBRACE", "LANGLE", "FST", "SND", "REFL", "ID", "IDJ", "RECOR",
        "RECBOT",
    }

    def _atom_ahead(self) -> bool:
        if not self.at(*self._ATOM_STARTS):
            return False
        # `{` only opens a shape here; `{-` comments were dropped by the lexer
        return True

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
        tok = self.peek()
        match tok.kind:
            case "IDENT":
                self.next()
                return self.spanned(Var(tok.text), start)
            case "CUBE_ZERO":
                self.next()
                return self.spanned(Cube0(), start)
            case "CUBE_ONE":
                self.next()
                return self.spanned(Cube1(), start)
            case "CUBE_STAR":
                self.next()
                return self.spanned(CubeStar(), start)
            case "UNIVERSE":
                self.next()
                level = int(tok.text[1:]) if len(tok.text) > 1 else 0
                return self.spanned(Universe(level), start)
            case "FST":
                self.next()
                return self.spanned(Fst(self.atom()), start)
            case "SND":
                self.next()
                return self.spanned(Snd(self.atom()), start)
            case "REFL":
                self.next()
                return self.spanned(Refl(self.atom()), start)
            case "ID":
                self.next()
                amb = self.atom()
                lhs = self.atom()
                rhs = self.atom()
                return self.spanned(IdType(amb, lhs, rhs), start)
            case "IDJ":
                self.next()
                motive = self.atom()
                base = self.atom()
                path = self.atom()
                return self.spanned(JElim(motive, base, path), start)
            case "RECBOT":
                self.next()
                return self.spanned(RecBot(), start)
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
