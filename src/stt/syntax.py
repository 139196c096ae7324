"""Abstract syntax shared by the parser, the tope solver and the kernel.

Three layers share one term language:

  * cube terms: points of the strict cube layer (endpoints, variables,
    connections, pairing and projections),
  * topes: coherent formulas over cube terms,
  * terms: the dependent layer (Pi/Sigma/Id/universes, extension types,
    shape types and the two tope eliminators).

Cube terms are ordinary `Term`s restricted to the cube formers; the kernel
decides from types which reading applies, so substitution and reduction
stay uniform across layers.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field, fields
from typing import Optional, Union, get_args


# ---------------------------------------------------------------------------
# cube sorts


@dataclass(frozen=True)
class Interval:
    def __str__(self) -> str:
        return "I"


@dataclass(frozen=True)
class UnitCube:
    def __str__(self) -> str:
        return "1"


@dataclass(frozen=True)
class ProdCube:
    left: "CubeSort"
    right: "CubeSort"

    def __str__(self) -> str:
        return f"{self.left} * {self.right}"


CubeSort = Union[Interval, UnitCube, ProdCube]

INTERVAL = Interval()
UNIT_CUBE = UnitCube()


# ---------------------------------------------------------------------------
# terms

_TERM_KW = dict(frozen=True, eq=False, repr=False)


@dataclass(**_TERM_KW)
class Var:
    name: str


@dataclass(**_TERM_KW)
class Universe:
    level: int = 0


@dataclass(**_TERM_KW)
class Pi:
    binder: str
    domain: "Term"
    codomain: "Term"


@dataclass(**_TERM_KW)
class Lam:
    binder: str
    body: "Term"


@dataclass(**_TERM_KW)
class App:
    fn: "Term"
    arg: "Term"


@dataclass(**_TERM_KW)
class Sigma:
    binder: str
    fst_type: "Term"
    snd_type: "Term"


@dataclass(**_TERM_KW)
class Pair:
    fst: "Term"
    snd: "Term"


@dataclass(**_TERM_KW)
class Fst:
    pair: "Term"


@dataclass(**_TERM_KW)
class Snd:
    pair: "Term"


@dataclass(**_TERM_KW)
class IdType:
    ambient: "Term"
    lhs: "Term"
    rhs: "Term"


@dataclass(**_TERM_KW)
class Refl:
    arg: "Term"


@dataclass(**_TERM_KW)
class JElim:
    motive: "Term"
    base: "Term"
    path: "Term"


@dataclass(**_TERM_KW)
class ShapeTy:
    """A shape coerced to a type: one cube binder constrained by a tope."""

    binder: str
    sort: CubeSort
    tope: "Tope"


@dataclass(**_TERM_KW)
class Extension:
    """Sections of ``family`` over a shape, judgmentally equal to
    ``partial`` on the subtope.  ``domain`` is a term that must reduce to a
    shape type; ``binder`` scopes over ``subtope``, ``family`` and
    ``partial``."""

    binder: str
    domain: "Term"
    subtope: "Tope"
    family: "Term"
    partial: "Term"


@dataclass(**_TERM_KW)
class RecOr:
    """Glue two sections along a tope disjunction; requires judgmental
    agreement on the overlap."""

    left_tope: "Tope"
    right_tope: "Tope"
    left: "Term"
    right: "Term"


@dataclass(**_TERM_KW)
class RecBot:
    pass


@dataclass(**_TERM_KW)
class Cube0:
    pass


@dataclass(**_TERM_KW)
class Cube1:
    pass


@dataclass(**_TERM_KW)
class CubeStar:
    """The point of the terminal cube."""


@dataclass(**_TERM_KW)
class Meet:
    left: "Term"
    right: "Term"


@dataclass(**_TERM_KW)
class Join:
    left: "Term"
    right: "Term"


Term = Union[
    Var, Universe, Pi, Lam, App, Sigma, Pair, Fst, Snd, IdType, Refl, JElim,
    ShapeTy, Extension, RecOr, RecBot, Cube0, Cube1, CubeStar, Meet, Join,
]


# ---------------------------------------------------------------------------
# topes

_TOPE_KW = dict(frozen=True, eq=False, repr=False)


@dataclass(**_TOPE_KW)
class TopeTop:
    pass


@dataclass(**_TOPE_KW)
class TopeBot:
    pass


@dataclass(**_TOPE_KW)
class TopeEq:
    lhs: Term
    rhs: Term


@dataclass(**_TOPE_KW)
class TopeLeq:
    lhs: Term
    rhs: Term


@dataclass(**_TOPE_KW)
class TopeAnd:
    left: "Tope"
    right: "Tope"


@dataclass(**_TOPE_KW)
class TopeOr:
    left: "Tope"
    right: "Tope"


Tope = Union[TopeTop, TopeBot, TopeEq, TopeLeq, TopeAnd, TopeOr]

TOP = TopeTop()
BOT = TopeBot()


# ---------------------------------------------------------------------------
# declarations and modules


@dataclass(eq=False)
class TypedBinder:
    name: str
    type: Term


@dataclass(eq=False)
class TopeBinder:
    tope: Tope


Binder = Union[TypedBinder, TopeBinder]


@dataclass(eq=False)
class Declaration:
    name: str
    kind: str  # "definition" | "postulate"
    telescope: list[Binder]
    stated_type: Term
    body: Optional[Term]
    span: tuple[int, int]
    name_span: tuple[int, int]
    # the identifiers of the declaration's text, each once, in order
    idents: tuple[str, ...] = ()


@dataclass(eq=False)
class SourceModule:
    path: str
    name: str
    source: str
    imports: list[tuple[str, tuple[int, int]]] = field(default_factory=list)
    declarations: list[Declaration] = field(default_factory=list)
    span_table: dict[int, tuple[int, int]] = field(default_factory=dict)
    directives: dict[str, list[str]] = field(default_factory=dict)
    # every node of span_table, alive as long as the module, so that no
    # other object takes its id: a parse that backtracks drops nodes it spanned
    spanned: list = field(default_factory=list)

    def span_of(self, node: object) -> Optional[tuple[int, int]]:
        return self.span_table.get(id(node))

    @property
    def tier(self) -> Optional[str]:
        """The module's ``--@tier``: the first one it gives, if any."""
        return (self.directives.get("tier") or [None])[0]


# ---------------------------------------------------------------------------
# recursion depth

# Parsing, checking, printing and substitution recurse on the term tree, so a
# deeply nested term needs far more frames than Python's default of 1000.
RECURSION_LIMIT = 100_000


def allow_deep_recursion() -> None:
    """Raise the interpreter's recursion limit to ``RECURSION_LIMIT``; called
    where parsing and checking begin, so that every entry point gets it."""
    if sys.getrecursionlimit() < RECURSION_LIMIT:
        sys.setrecursionlimit(RECURSION_LIMIT)


# ---------------------------------------------------------------------------
# fresh names, free variables, substitution

_fresh_counter = itertools.count(1)


def fresh_name(base: str) -> str:
    """A name guaranteed distinct from every surface identifier ('$' cannot
    be lexed)."""
    return f"{base_name(base)}${next(_fresh_counter)}"


def base_name(name: str) -> str:
    return name.split("$", 1)[0] or "x"


def free_vars(t: Union[Term, Tope]) -> frozenset[str]:
    """Free variables, cached on the node itself (terms are immutable, so
    the set never goes stale; the attribute is not a dataclass field)."""
    try:
        return t._fv
    except AttributeError:
        pass
    out: set[str] = set()
    _free_vars(t, out)
    result = frozenset(out)
    try:
        object.__setattr__(t, "_fv", result)
    except (AttributeError, TypeError):
        pass
    return result


def _free_vars(t, out: set[str]) -> None:
    match t:
        case Var(name):
            out.add(name)
        case Pi(x, dom, cod) | Sigma(x, dom, cod):
            out |= free_vars(dom)
            out |= free_vars(cod) - {x}
        case Lam(x, body):
            out |= free_vars(body) - {x}
        case App(f, a):
            out |= free_vars(f)
            out |= free_vars(a)
        case Pair(a, b) | Meet(a, b) | Join(a, b):
            out |= free_vars(a)
            out |= free_vars(b)
        case Fst(p) | Snd(p) | Refl(p):
            out |= free_vars(p)
        case IdType(amb, l, r):
            out |= free_vars(amb)
            out |= free_vars(l)
            out |= free_vars(r)
        case JElim(c, d, p):
            out |= free_vars(c)
            out |= free_vars(d)
            out |= free_vars(p)
        case ShapeTy(x, _, tope):
            out |= free_vars(tope) - {x}
        case Extension(x, dom, phi, fam, part):
            out |= free_vars(dom)
            sub: set[str] = set()
            for piece in (phi, fam, part):
                sub |= free_vars(piece)
            sub.discard(x)
            out |= sub
        case RecOr(lt, rt, l, r):
            out |= free_vars(lt)
            out |= free_vars(rt)
            out |= free_vars(l)
            out |= free_vars(r)
        case TopeEq(l, r) | TopeLeq(l, r):
            out |= free_vars(l)
            out |= free_vars(r)
        case TopeAnd(l, r) | TopeOr(l, r):
            out |= free_vars(l)
            out |= free_vars(r)
        case _:
            pass


def subst(t, name: str, value: Term):
    """Capture-avoiding substitution of ``value`` for ``name`` in a term or
    tope: `subst_many` with one name.  Renaming ``name`` to itself returns
    ``t``, not a copy."""
    if name not in free_vars(t) or (type(value) is Var and value.name == name):
        return t
    return _subst(t, {name: value}, free_vars(value))


def subst_many(t, sigma: dict[str, Term]):
    """Capture-avoiding simultaneous substitution of ``sigma[x]`` for every
    free ``x`` in a term or tope, in one walk that rebuilds each node once.
    Names that ``sigma`` renames to themselves are left out."""
    sigma = {x: v for x, v in sigma.items() if not (type(v) is Var and v.name == x)}
    return _subst(t, sigma, _values_fv(sigma))


def _values_fv(sigma) -> frozenset[str]:
    return frozenset().union(*map(free_vars, sigma.values()))


def _subst(t, sigma, fvs):
    """The substitution walk.  ``fvs`` is the union of the free variables
    of ``sigma``'s values.  It is recomputed only where ``sigma`` changes,
    so that substituting one name costs what a walk made for one name
    would."""
    try:
        fv = t._fv
    except AttributeError:
        fv = free_vars(t)
    if fv.isdisjoint(sigma):
        return t
    if type(t) is Var:
        return sigma[t.name]
    if len(sigma) > 1 and not fv.issuperset(sigma):
        sigma = {x: v for x, v in sigma.items() if x in fv}
        fvs = _values_fv(sigma)
    out = _rebuild(t, sigma, fvs)
    # every name of ``sigma`` is free in ``t`` and renaming a binder changes
    # no free variable, so the result's free variables need no walk
    object.__setattr__(out, "_fv", fv.difference(sigma) | fvs)
    return out


def _bind(x: str, pieces: list, sigma, fvs):
    """Push ``sigma`` under a binder ``x`` that scopes over ``pieces``.  A
    name that ``x`` shadows drops out; if ``x`` would capture a free
    variable of a value, the same walk renames it."""
    if x in sigma:
        sigma = {y: v for y, v in sigma.items() if y != x}
        fvs = _values_fv(sigma)
    if x in fvs:
        x2 = fresh_name(x)
        sigma = {**sigma, x: Var(x2)}
        fvs = fvs | {x2}
        x = x2
    return x, [_subst(p, sigma, fvs) for p in pieces]


def _rebuild(t, sigma, fvs):
    """One step of `_subst` on a compound node in which every name of
    ``sigma`` occurs free.  It dispatches on the exact class, as the
    kernel's hottest function: a chain of class patterns costs an
    isinstance test per case tried."""
    cls = type(t)
    step = _STEP.get(cls)
    if step is not None:
        return step(t, sigma, fvs)
    if cls is Lam:
        x2, [body2] = _bind(t.binder, [t.body], sigma, fvs)
        return Lam(x2, body2)
    if cls is Pi or cls is Sigma:
        x, dom, cod = (
            (t.binder, t.domain, t.codomain) if cls is Pi
            else (t.binder, t.fst_type, t.snd_type))
        dom2 = _subst(dom, sigma, fvs)
        x2, [cod2] = _bind(x, [cod], sigma, fvs)
        return cls(x2, dom2, cod2)
    if cls is ShapeTy:
        x2, [tope2] = _bind(t.binder, [t.tope], sigma, fvs)
        return ShapeTy(x2, t.sort, tope2)
    if cls is Extension:
        dom2 = _subst(t.domain, sigma, fvs)
        x2, pieces = _bind(t.binder, [t.subtope, t.family, t.partial], sigma, fvs)
        return Extension(x2, dom2, *pieces)
    raise AssertionError(f"free variables {sorted(sigma)} in a {cls.__name__}")


# `_rebuild` on each node class that binds nothing (``s`` is ``sigma`` and
# ``f`` is ``fvs``)
_STEP = {
    App: lambda t, s, f: App(_subst(t.fn, s, f), _subst(t.arg, s, f)),
    Pair: lambda t, s, f: Pair(_subst(t.fst, s, f), _subst(t.snd, s, f)),
    Fst: lambda t, s, f: Fst(_subst(t.pair, s, f)),
    Snd: lambda t, s, f: Snd(_subst(t.pair, s, f)),
    Refl: lambda t, s, f: Refl(_subst(t.arg, s, f)),
    IdType: lambda t, s, f: IdType(
        _subst(t.ambient, s, f), _subst(t.lhs, s, f), _subst(t.rhs, s, f)),
    JElim: lambda t, s, f: JElim(
        _subst(t.motive, s, f), _subst(t.base, s, f), _subst(t.path, s, f)),
    RecOr: lambda t, s, f: RecOr(_subst(t.left_tope, s, f), _subst(t.right_tope, s, f),
                                 _subst(t.left, s, f), _subst(t.right, s, f)),
    Meet: lambda t, s, f: Meet(_subst(t.left, s, f), _subst(t.right, s, f)),
    Join: lambda t, s, f: Join(_subst(t.left, s, f), _subst(t.right, s, f)),
    TopeEq: lambda t, s, f: TopeEq(_subst(t.lhs, s, f), _subst(t.rhs, s, f)),
    TopeLeq: lambda t, s, f: TopeLeq(_subst(t.lhs, s, f), _subst(t.rhs, s, f)),
    TopeAnd: lambda t, s, f: TopeAnd(_subst(t.left, s, f), _subst(t.right, s, f)),
    TopeOr: lambda t, s, f: TopeOr(_subst(t.left, s, f), _subst(t.right, s, f)),
}


# ---------------------------------------------------------------------------
# alpha equality


def alpha_eq(a, b) -> bool:
    """Structural equality of terms/topes up to renaming of bound variables."""
    return _alpha(a, b, {}, {})


def _under(x, y, pieces_a, pieces_b, fwd: dict[str, str], bwd: dict[str, str]) -> bool:
    """`_alpha` on pieces under binders ``x`` and ``y``: the two maps gain
    ``x -> y`` for the walk and get their old values back after it."""
    old_x, old_y = fwd.get(x), bwd.get(y)
    fwd[x] = y
    bwd[y] = x
    equal = all(_alpha(pa, pb, fwd, bwd) for pa, pb in zip(pieces_a, pieces_b))
    if old_x is None:
        del fwd[x]
    else:
        fwd[x] = old_x
    if old_y is None:
        del bwd[y]
    else:
        bwd[y] = old_y
    return equal


def _alpha(a, b, fwd: dict[str, str], bwd: dict[str, str]) -> bool:
    if type(a) is not type(b):
        return False

    match a, b:
        case Var(n1), Var(n2):
            return fwd.get(n1, n1) == n2 and bwd.get(n2, n2) == n1
        case Universe(l1), Universe(l2):
            return l1 == l2
        case Pi(x, d1, c1), Pi(y, d2, c2):
            return _alpha(d1, d2, fwd, bwd) and _under(x, y, [c1], [c2], fwd, bwd)
        case Sigma(x, d1, c1), Sigma(y, d2, c2):
            return _alpha(d1, d2, fwd, bwd) and _under(x, y, [c1], [c2], fwd, bwd)
        case Lam(x, b1), Lam(y, b2):
            return _under(x, y, [b1], [b2], fwd, bwd)
        case App(f1, a1), App(f2, a2):
            return _alpha(f1, f2, fwd, bwd) and _alpha(a1, a2, fwd, bwd)
        case Pair(l1, r1), Pair(l2, r2):
            return _alpha(l1, l2, fwd, bwd) and _alpha(r1, r2, fwd, bwd)
        case Fst(p1), Fst(p2):
            return _alpha(p1, p2, fwd, bwd)
        case Snd(p1), Snd(p2):
            return _alpha(p1, p2, fwd, bwd)
        case IdType(m1, l1, r1), IdType(m2, l2, r2):
            return (
                _alpha(m1, m2, fwd, bwd)
                and _alpha(l1, l2, fwd, bwd)
                and _alpha(r1, r2, fwd, bwd)
            )
        case Refl(a1), Refl(a2):
            return _alpha(a1, a2, fwd, bwd)
        case JElim(c1, d1, p1), JElim(c2, d2, p2):
            return (
                _alpha(c1, c2, fwd, bwd)
                and _alpha(d1, d2, fwd, bwd)
                and _alpha(p1, p2, fwd, bwd)
            )
        case ShapeTy(x, s1, t1), ShapeTy(y, s2, t2):
            return s1 == s2 and _under(x, y, [t1], [t2], fwd, bwd)
        case Extension(x, d1, p1, f1, a1), Extension(y, d2, p2, f2, a2):
            return _alpha(d1, d2, fwd, bwd) and _under(
                x, y, [p1, f1, a1], [p2, f2, a2], fwd, bwd)
        case RecOr(lt1, rt1, l1, r1), RecOr(lt2, rt2, l2, r2):
            return all(
                _alpha(p, q, fwd, bwd)
                for p, q in ((lt1, lt2), (rt1, rt2), (l1, l2), (r1, r2))
            )
        case (RecBot(), RecBot()) | (Cube0(), Cube0()) | (Cube1(), Cube1()):
            return True
        case (CubeStar(), CubeStar()) | (TopeTop(), TopeTop()) | (TopeBot(), TopeBot()):
            return True
        case Meet(l1, r1), Meet(l2, r2):
            return _alpha(l1, l2, fwd, bwd) and _alpha(r1, r2, fwd, bwd)
        case Join(l1, r1), Join(l2, r2):
            return _alpha(l1, l2, fwd, bwd) and _alpha(r1, r2, fwd, bwd)
        case TopeEq(l1, r1), TopeEq(l2, r2):
            return _alpha(l1, l2, fwd, bwd) and _alpha(r1, r2, fwd, bwd)
        case TopeLeq(l1, r1), TopeLeq(l2, r2):
            return _alpha(l1, l2, fwd, bwd) and _alpha(r1, r2, fwd, bwd)
        case TopeAnd(l1, r1), TopeAnd(l2, r2):
            return _alpha(l1, l2, fwd, bwd) and _alpha(r1, r2, fwd, bwd)
        case TopeOr(l1, r1), TopeOr(l2, r2):
            return _alpha(l1, l2, fwd, bwd) and _alpha(r1, r2, fwd, bwd)
        case _:
            return False


# ---------------------------------------------------------------------------
# a flat JSON form


def _layout(cls) -> tuple[type, tuple[str, ...], tuple[type, ...], tuple[str, ...]]:
    """A node class, the names and types of its leading name and level
    fields, and the names of its node fields, which follow them."""
    names = [f.name for f in fields(cls)]
    types = []
    for f in fields(cls):
        if f.type not in ("str", "int"):
            break
        types.append(str if f.type == "str" else int)
    return cls, tuple(names[:len(types)]), tuple(types), tuple(names[len(types):])


# every node class, by name: the only classes a stored form can make
_LAYOUT = {
    cls.__name__: _layout(cls)
    for cls in get_args(Term) + get_args(Tope) + get_args(CubeSort)
}


def encode_term(t) -> list:
    """A term, tope or cube sort as a flat list of rows, children before
    parents: a node's row is its class name followed by its names and
    levels, after the rows of its node fields.  Being flat, the form nests
    no deeper in JSON than one row, however deep the term."""
    rows = []
    stack = [t]
    # parents before children, the last child first; reversed at the end
    while stack:
        t = stack.pop()
        name = type(t).__name__
        _, atoms, _, children = _LAYOUT[name]
        rows.append([name, *(getattr(t, a) for a in atoms)])
        stack.extend(getattr(t, c) for c in children)
    rows.reverse()
    return rows


def decode_term(rows: list, renamed: dict[str, str]):
    """The node that `encode_term` wrote as ``rows``.  A generated name (one
    with a ``$``) becomes a fresh name of this process, the same one for the
    same name: ``renamed`` holds the names given so far, and callers share
    it between the terms in which a name must stay the same.  A row whose
    class, names or children do not fit raises an exception."""
    stack: list = []
    for row in rows:
        cls, _, kinds, children = _LAYOUT[row[0]]
        arity = len(children)
        if len(row) != len(kinds) + 1 or len(stack) < arity:
            raise ValueError(f"a malformed {cls.__name__} row")
        args = []
        for value, kind in zip(row[1:], kinds):
            if type(value) is not kind:
                raise ValueError(f"a {cls.__name__} row holds {value!r}")
            if kind is str and "$" in value:
                if value not in renamed:
                    renamed[value] = fresh_name(value)
                value = renamed[value]
            args.append(value)
        if arity:
            args += stack[-arity:]
            del stack[-arity:]
        stack.append(cls(*args))
    if len(stack) != 1:
        raise ValueError("rows that make no single node")
    return stack[0]
