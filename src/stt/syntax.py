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

Every node is a frozen dataclass, and its fields are its schema: the
leading ``str`` and ``int`` fields are atoms (names and levels), the rest
are children (terms, topes and cube sorts), and a binding class names in
its class attribute ``scope`` the children its ``binder`` scopes over.
Free variables, substitution, α-equality and the stored form are each one
walk over the table of these rows, `_LAYOUT`.
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
    """The interval sort ``I``."""


@dataclass(frozen=True)
class UnitCube:
    """The unit cube sort ``1``."""


@dataclass(frozen=True)
class ProdCube:
    left: "CubeSort"
    right: "CubeSort"


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
    scope = ("codomain",)


@dataclass(**_TERM_KW)
class Lam:
    binder: str
    body: "Term"
    scope = ("body",)


@dataclass(**_TERM_KW)
class App:
    fn: "Term"
    arg: "Term"


@dataclass(**_TERM_KW)
class Sigma:
    binder: str
    fst_type: "Term"
    snd_type: "Term"
    scope = ("snd_type",)


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
    scope = ("tope",)


@dataclass(**_TERM_KW)
class Extension:
    """Sections of ``family`` over a shape, judgmentally equal to
    ``partial`` on the subtope.  ``domain`` is a term that must reduce to a
    shape type."""

    binder: str
    domain: "Term"
    subtope: "Tope"
    family: "Term"
    partial: "Term"
    scope = ("subtope", "family", "partial")


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
# the node table


def _layout(cls) -> tuple[type, tuple[str, ...], tuple[type, ...], tuple[str, ...],
                          tuple[bool, ...]]:
    """A node class's row of the node table: the class; the names and types
    of its leading ``str`` and ``int`` fields, its atoms; the names of the
    fields that follow them, its children; and for each child whether it
    lies under the class's ``binder``, that is, is named in its ``scope``.
    A binding class's ``binder`` is its first field, and the children under
    it follow those outside it."""
    names = [f.name for f in fields(cls)]
    types = []
    for f in fields(cls):
        if f.type not in ("str", "int"):
            break
        types.append(str if f.type == "str" else int)
    children = tuple(names[len(types):])
    scope = getattr(cls, "scope", ())
    return (cls, tuple(names[:len(types)]), tuple(types), children,
            tuple(c in scope for c in children))


# every node class, with its row: the walks below dispatch on the exact
# class, and these are the only classes a stored form can make
_LAYOUT = {
    cls: _layout(cls) for cls in get_args(Term) + get_args(Tope) + get_args(CubeSort)
}
_BY_NAME = {cls.__name__: row for cls, row in _LAYOUT.items()}


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
    if type(t) is Var:
        result = frozenset((t.name,))
    else:
        _, _, _, children, under = _LAYOUT[type(t)]
        out: set[str] = set()
        bound: set[str] = set()
        for c, u in zip(children, under):
            (bound if u else out).update(free_vars(getattr(t, c)))
        if bound:
            bound.discard(t.binder)
            out |= bound
        result = frozenset(out)
    object.__setattr__(t, "_fv", result)
    return result


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
    would.  A binder that ``sigma`` would capture is renamed in the same
    walk."""
    try:
        fv = t._fv
    except AttributeError:
        fv = free_vars(t)
    if fv.isdisjoint(sigma):
        return t
    cls = type(t)
    if cls is Var:
        return sigma[t.name]
    if len(sigma) > 1 and not fv.issuperset(sigma):
        sigma = {x: v for x, v in sigma.items() if x in fv}
        fvs = _values_fv(sigma)
    _, atoms, _, children, under = _LAYOUT[cls]
    args = [getattr(t, a) for a in atoms] if atoms else []
    inner, inner_fvs = sigma, fvs
    for c, u in zip(children, under):
        if u and inner is sigma:
            # the binder, after the children outside it, since renaming it
            # draws a fresh name: a name it shadows drops out, and it is
            # renamed if it would capture a free variable of a value; either
            # makes ``inner`` a new dict, and if neither does, this step at
            # the next child changes nothing
            x = args[0]
            if x in inner:
                inner = {y: v for y, v in inner.items() if y != x}
                inner_fvs = _values_fv(inner)
            if x in inner_fvs:
                args[0] = fresh_name(x)
                inner = {**inner, x: Var(args[0])}
                inner_fvs = inner_fvs | {args[0]}
        args.append(_subst(getattr(t, c), inner, inner_fvs))
    out = cls(*args)
    # every name of ``sigma`` is free in ``t`` and renaming a binder changes
    # no free variable, so the result's free variables need no walk
    object.__setattr__(out, "_fv", fv.difference(sigma) | fvs)
    return out


# ---------------------------------------------------------------------------
# alpha equality


def alpha_eq(a, b) -> bool:
    """Structural equality of terms/topes up to renaming of bound variables."""
    return _alpha(a, b, {}, {})


def _alpha(a, b, fwd: dict[str, str], bwd: dict[str, str]) -> bool:
    """``fwd`` maps each binder of ``a`` in scope to the binder of ``b`` at
    the same place, and ``bwd`` back."""
    cls = type(a)
    if cls is not type(b):
        return False
    if cls is Var:
        return fwd.get(a.name, a.name) == b.name and bwd.get(b.name, b.name) == a.name
    _, atoms, _, children, under = _LAYOUT[cls]
    binds = True in under
    for n in atoms[1:] if binds else atoms:  # binder names are not compared
        if getattr(a, n) != getattr(b, n):
            return False
    if binds:
        # the children under the binders are compared with ``x -> y`` in
        # the two maps, whose old values come back after the walk
        x, y = a.binder, b.binder
        old_x, old_y = fwd.get(x), bwd.get(y)
    equal = True
    for c, u in zip(children, under):
        if u:
            fwd[x] = y
            bwd[y] = x
        if not _alpha(getattr(a, c), getattr(b, c), fwd, bwd):
            equal = False
            break
    if binds:
        if old_x is None:
            fwd.pop(x, None)
        else:
            fwd[x] = old_x
        if old_y is None:
            bwd.pop(y, None)
        else:
            bwd[y] = old_y
    return equal


# ---------------------------------------------------------------------------
# a flat JSON form


def encode_term(t) -> list:
    """A term, tope or cube sort as a flat list of rows, children before
    parents: a node's row is its class name followed by its atoms, after
    the rows of its children.  Being flat, the form nests no deeper in
    JSON than one row, however deep the term."""
    rows = []
    stack = [t]
    # parents before children, the last child first; reversed at the end
    while stack:
        t = stack.pop()
        cls, atoms, _, children, _ = _LAYOUT[type(t)]
        rows.append([cls.__name__, *(getattr(t, a) for a in atoms)])
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
        cls, _, kinds, children, _ = _BY_NAME[row[0]]
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
