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
from dataclasses import dataclass, field
from typing import Optional, Union


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


@dataclass(eq=False)
class SourceModule:
    path: str
    name: str
    source: str
    imports: list[tuple[str, tuple[int, int]]] = field(default_factory=list)
    declarations: list[Declaration] = field(default_factory=list)
    span_table: dict[int, tuple[int, int]] = field(default_factory=dict)
    directives: dict[str, list[str]] = field(default_factory=dict)

    def span_of(self, node: object) -> Optional[tuple[int, int]]:
        return self.span_table.get(id(node))


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
    root = base.split("$", 1)[0] or "x"
    return f"{root}${next(_fresh_counter)}"


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
    tope.  Renaming ``name`` to itself returns ``t``, not a copy."""
    if name not in free_vars(t) or _renames_to_itself(name, value):
        return t
    return _subst(t, name, value, free_vars(value))


def _renames_to_itself(name: str, value: Term) -> bool:
    return type(value) is Var and value.name == name


def _open_binder(x: str, pieces, name: str, value, fvs):
    """Rename binder x if it would capture a free variable of value."""
    if x in fvs:
        x2 = fresh_name(x)
        pieces = [subst(p, x, Var(x2)) for p in pieces]
        return x2, pieces
    return x, pieces


def _subst(t, name, value, fvs):
    try:
        fv = t._fv
    except AttributeError:
        fv = free_vars(t)
    if name not in fv:
        return t
    if type(t) is Var:
        return value
    out = _rebuild(t, name, value, fvs)
    # ``name`` occurs free in ``t``, so the result's free variables follow
    # without a walk (renaming a binder does not change them)
    object.__setattr__(out, "_fv", (fv - {name}) | fvs)
    return out


def _rebuild(t, name, value, fvs):
    """One step of `_subst` on a node in which ``name`` occurs free.  It
    dispatches on the exact class, as the kernel's hottest function: a
    chain of class patterns costs an isinstance test per case tried.  A
    binder equal to ``name`` can only be on Pi, Sigma or Extension, whose
    domains sit outside the binder's scope."""
    cls = type(t)
    if cls in _BINARY:
        a, b = _BINARY[cls](t)
        return cls(_subst(a, name, value, fvs), _subst(b, name, value, fvs))
    if cls is Lam:
        x2, [body2] = _open_binder(t.binder, [t.body], name, value, fvs)
        return Lam(x2, _subst(body2, name, value, fvs))
    if cls is Pi or cls is Sigma:
        x, dom, cod = (
            (t.binder, t.domain, t.codomain) if cls is Pi
            else (t.binder, t.fst_type, t.snd_type))
        dom2 = _subst(dom, name, value, fvs)
        if x == name:
            return cls(x, dom2, cod)
        x2, [cod2] = _open_binder(x, [cod], name, value, fvs)
        return cls(x2, dom2, _subst(cod2, name, value, fvs))
    if cls is Fst or cls is Snd:
        return cls(_subst(t.pair, name, value, fvs))
    if cls is Refl:
        return Refl(_subst(t.arg, name, value, fvs))
    if cls is IdType:
        return IdType(
            _subst(t.ambient, name, value, fvs),
            _subst(t.lhs, name, value, fvs),
            _subst(t.rhs, name, value, fvs),
        )
    if cls is JElim:
        return JElim(
            _subst(t.motive, name, value, fvs),
            _subst(t.base, name, value, fvs),
            _subst(t.path, name, value, fvs),
        )
    if cls is ShapeTy:
        x2, [tope2] = _open_binder(t.binder, [t.tope], name, value, fvs)
        return ShapeTy(x2, t.sort, _subst(tope2, name, value, fvs))
    if cls is Extension:
        x = t.binder
        dom2 = _subst(t.domain, name, value, fvs)
        if x == name:
            return Extension(x, dom2, t.subtope, t.family, t.partial)
        x2, [phi2, fam2, part2] = _open_binder(
            x, [t.subtope, t.family, t.partial], name, value, fvs
        )
        return Extension(
            x2,
            dom2,
            _subst(phi2, name, value, fvs),
            _subst(fam2, name, value, fvs),
            _subst(part2, name, value, fvs),
        )
    if cls is RecOr:
        return RecOr(
            _subst(t.left_tope, name, value, fvs),
            _subst(t.right_tope, name, value, fvs),
            _subst(t.left, name, value, fvs),
            _subst(t.right, name, value, fvs),
        )
    raise AssertionError(f"free variable {name!r} in a {cls.__name__}")


def subst_many(t, sigma: dict[str, Term]):
    """Capture-avoiding simultaneous substitution of ``sigma[x]`` for every
    free ``x`` in a term or tope.  One walk rebuilds each node once, where
    a `subst` per name would rebuild the nodes above every name again.
    Names that ``sigma`` renames to themselves are left out; where a single
    name is left it is `subst`'s walk."""
    return _subst_many(t, {x: v for x, v in sigma.items()
                           if not _renames_to_itself(x, v)})


def _subst_many(t, sigma):
    try:
        fv = t._fv
    except AttributeError:
        fv = free_vars(t)
    if fv.isdisjoint(sigma):
        return t
    live = fv.intersection(sigma)
    if len(live) == 1:
        (x,) = live
        value = sigma[x]
        return _subst(t, x, value, free_vars(value))
    if len(live) < len(sigma):
        sigma = {x: sigma[x] for x in live}
    # a Var has one free name, so t is a compound node here
    out = _rebuild_many(t, sigma)
    object.__setattr__(out, "_fv", (fv - live).union(*map(free_vars, sigma.values())))
    return out


def _bind_many(x: str, pieces: list, sigma):
    """Push ``sigma`` under a binder ``x`` that scopes over ``pieces``.  The
    names that ``x`` shadows drop out; if ``x`` would capture a free
    variable of a value substituted in its scope, the same walk renames it."""
    pfv = frozenset().union(*map(free_vars, pieces))
    inner = {y: v for y, v in sigma.items() if y != x and y in pfv}
    if not inner:
        return x, pieces
    if any(x in free_vars(v) for v in inner.values()):
        x2 = fresh_name(x)
        inner[x] = Var(x2)
        x = x2
    return x, [_subst_many(p, inner) for p in pieces]


def _rebuild_many(t, sigma):
    """One step of `subst_many` on a node in which two or more names of
    ``sigma`` occur free."""
    cls = type(t)
    if cls in _BINARY:
        a, b = _BINARY[cls](t)
        return cls(_subst_many(a, sigma), _subst_many(b, sigma))
    if cls is Lam:
        x2, [body2] = _bind_many(t.binder, [t.body], sigma)
        return Lam(x2, body2)
    if cls is Pi or cls is Sigma:
        x, dom, cod = (
            (t.binder, t.domain, t.codomain) if cls is Pi
            else (t.binder, t.fst_type, t.snd_type))
        dom2 = _subst_many(dom, sigma)
        x2, [cod2] = _bind_many(x, [cod], sigma)
        return cls(x2, dom2, cod2)
    if cls is Fst or cls is Snd:
        return cls(_subst_many(t.pair, sigma))
    if cls is Refl:
        return Refl(_subst_many(t.arg, sigma))
    if cls is IdType:
        return IdType(_subst_many(t.ambient, sigma), _subst_many(t.lhs, sigma),
                      _subst_many(t.rhs, sigma))
    if cls is JElim:
        return JElim(_subst_many(t.motive, sigma), _subst_many(t.base, sigma),
                     _subst_many(t.path, sigma))
    if cls is ShapeTy:
        x2, [tope2] = _bind_many(t.binder, [t.tope], sigma)
        return ShapeTy(x2, t.sort, tope2)
    if cls is Extension:
        dom2 = _subst_many(t.domain, sigma)
        x2, [phi2, fam2, part2] = _bind_many(
            t.binder, [t.subtope, t.family, t.partial], sigma)
        return Extension(x2, dom2, phi2, fam2, part2)
    if cls is RecOr:
        return RecOr(_subst_many(t.left_tope, sigma), _subst_many(t.right_tope, sigma),
                     _subst_many(t.left, sigma), _subst_many(t.right, sigma))
    raise AssertionError(f"free variables {sorted(sigma)} in a {cls.__name__}")


# the two children of each node class that has two and binds nothing
_BINARY = {
    App: lambda t: (t.fn, t.arg),
    Pair: lambda t: (t.fst, t.snd),
    Meet: lambda t: (t.left, t.right),
    Join: lambda t: (t.left, t.right),
    TopeEq: lambda t: (t.lhs, t.rhs),
    TopeLeq: lambda t: (t.lhs, t.rhs),
    TopeAnd: lambda t: (t.left, t.right),
    TopeOr: lambda t: (t.left, t.right),
}


# ---------------------------------------------------------------------------
# alpha equality


def alpha_eq(a, b, env: Optional[dict[str, str]] = None) -> bool:
    """Structural equality of terms/topes up to renaming of bound variables."""
    env = env or {}
    return _alpha(a, b, env, {v: k for k, v in env.items()})


def _alpha(a, b, fwd: dict[str, str], bwd: dict[str, str]) -> bool:
    if type(a) is not type(b):
        return False

    def under(x, y, pieces_a, pieces_b):
        fwd2 = dict(fwd)
        bwd2 = dict(bwd)
        fwd2[x] = y
        bwd2[y] = x
        return all(_alpha(pa, pb, fwd2, bwd2) for pa, pb in zip(pieces_a, pieces_b))

    match a, b:
        case Var(n1), Var(n2):
            return fwd.get(n1, n1) == n2 and bwd.get(n2, n2) == n1
        case Universe(l1), Universe(l2):
            return l1 == l2
        case Pi(x, d1, c1), Pi(y, d2, c2):
            return _alpha(d1, d2, fwd, bwd) and under(x, y, [c1], [c2])
        case Sigma(x, d1, c1), Sigma(y, d2, c2):
            return _alpha(d1, d2, fwd, bwd) and under(x, y, [c1], [c2])
        case Lam(x, b1), Lam(y, b2):
            return under(x, y, [b1], [b2])
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
            return s1 == s2 and under(x, y, [t1], [t2])
        case Extension(x, d1, p1, f1, a1), Extension(y, d2, p2, f2, a2):
            return _alpha(d1, d2, fwd, bwd) and under(x, y, [p1, f1, a1], [p2, f2, a2])
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
