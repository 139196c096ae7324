"""Decision procedure for tope entailment over the strict interval.

The semantics is classical satisfaction over finite chains:
``entails(ctx, hyps, goal)`` holds iff every weak ordering (ordered set
partition) of the interval atoms together with the endpoints 0 < 1, 0 least
and 1 greatest, that satisfies ``hyps`` also satisfies ``goal``.
Connections evaluate as min/max, ``==`` and ``<=`` through the ordering.

Product cubes are flattened to tuples of interval atoms before solving;
projections compute away on pair literals and otherwise select component
atoms of a variable.  The flattener is the one place that decides cube
sorts: the sort of a cube term is the shape of its value tree (a pair is
a product, the unit point is ``1``, anything else is ``I``), flattening
raises every ``SortError``, and it sort-checks both sides of ``==``.

No ordering is enumerated.  ``hyps`` and the negation of ``goal`` are put
in negation normal form over order literals ``p <= q`` and ``p < q``
between atoms and endpoints: min and max distribute into disjunctions and
conjunctions of literals, and ``not (p <= q)`` is ``q < p``.  A DPLL-style
search adds literals to per-point bitmask closures of ``<=`` and ``<``,
which start from 0 <= x <= 1 and 0 < 1, and splits on an undecided literal
and its negation.  A branch dies when a strict cycle appears, and the
entailment holds iff no branch survives.  A set of order literals without a
strict cycle always has a model, so a branch that survives gives a
counter-model.

The trace reports ``branches``, the number of models of the query's k
atoms: 4 * Fubini(k) - 1 for k >= 1 and 1 for k = 0.  It depends on k only.
The independent oracle, which evaluates formulas over a numeric grid, is a
test oracle and lives in ``tests/tope_oracle.py``.  So does the test
helper for shapes, a cube telescope with a tope over it, that decides
subshape inclusion with ``Solver.entails``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import comb
from typing import Callable, Optional

from .syntax import (
    INTERVAL, UNIT_CUBE, CubeSort, Cube0, Cube1, CubeStar, Fst, Interval,
    Join, Meet, Pair, ProdCube, Snd, Tope, TopeAnd, TopeBot, TopeEq, TopeLeq,
    TopeOr, TopeTop, Term, UnitCube, Var,
)


class TopeError(Exception):
    """A query the solver refuses; ``code`` is the diagnostic code it is
    reported under."""

    code: str


class SortError(TopeError):
    """A cube term or tope is ill-sorted in its cube context."""

    code = "SORT"


class CapacityError(TopeError):
    """The flattened query exceeds the configured interval-variable bound."""

    code = "CAPACITY"


# ---------------------------------------------------------------------------
# flattening product cubes to interval atoms

# flattened cube values are trees: ("atom", i) | ("const", 0|1) |
# ("min"|"max", l, r) | ("pair", l, r) | ("unit",)


def _atoms_of_sort(prefix: str, sort: CubeSort, table: list[str]):
    match sort:
        case Interval():
            table.append(prefix)
            return ("atom", len(table) - 1)
        case UnitCube():
            return ("unit",)
        case ProdCube(l, r):
            a = _atoms_of_sort(prefix + ".1", l, table)
            b = _atoms_of_sort(prefix + ".2", r, table)
            return ("pair", a, b)
    raise SortError(f"unknown cube sort {sort}")


class _Flattener:
    def __init__(self, ctx: tuple[tuple[str, CubeSort], ...]):
        self.atoms: list[str] = []
        self.env: dict[str, tuple] = {}
        for name, sort in ctx:
            if name in self.env:
                raise SortError(f"duplicate cube variable {name}")
            self.env[name] = _atoms_of_sort(name, sort, self.atoms)

    def sort_of(self, t: Term) -> CubeSort:
        """The sort of a cube term: the shape of its value tree."""
        return _tree_sort(self.flatten(t))

    # flatten and formula dispatch on the exact class, not on class
    # patterns: every entailment query walks its hypotheses and goal here

    def flatten(self, t: Term) -> tuple:
        cls = type(t)
        if cls is Var:
            try:
                return self.env[t.name]
            except KeyError:
                raise SortError(f"unbound cube variable {t.name}") from None
        if cls is Meet or cls is Join:
            # an ill-sorted left side is reported before anything in the right
            fa = self.flatten(t.left)
            if _interval_tree(fa):
                fb = self.flatten(t.right)
                if _interval_tree(fb):
                    return ("min" if cls is Meet else "max", fa, fb)
            raise SortError("connections apply to interval terms only")
        if cls is Cube0:
            return ("const", 0)
        if cls is Cube1:
            return ("const", 1)
        if cls is CubeStar:
            return ("unit",)
        if cls is Pair:
            return ("pair", self.flatten(t.fst), self.flatten(t.snd))
        if cls is Fst or cls is Snd:
            inner = self.flatten(t.pair)
            if inner[0] != "pair":
                raise SortError(
                    f"{'fst' if cls is Fst else 'snd'} applied to a non-product cube term")
            return inner[1] if cls is Fst else inner[2]
        raise SortError(f"not a cube term: {cls.__name__}")

    # formulas: ("top",) ("bot",) ("and", l, r) ("or", l, r)
    # ("leq", v, v) ("eq", v, v) with v interval-valued trees

    def formula(self, tope: Tope) -> tuple:
        cls = type(tope)
        if cls is TopeAnd:
            return ("and", self.formula(tope.left), self.formula(tope.right))
        if cls is TopeOr:
            return ("or", self.formula(tope.left), self.formula(tope.right))
        if cls is TopeEq:
            return self._eq(self.flatten(tope.lhs), self.flatten(tope.rhs))
        if cls is TopeLeq:
            fl, fr = self.flatten(tope.lhs), self.flatten(tope.rhs)
            if not (_interval_tree(fl) and _interval_tree(fr)):
                raise SortError("<= relates interval terms only")
            return ("leq", fl, fr)
        if cls is TopeTop:
            return ("top",)
        if cls is TopeBot:
            return ("bot",)
        raise SortError(f"not a tope: {cls.__name__}")

    def _eq(self, a: tuple, b: tuple) -> tuple:
        # componentwise on products, trivial on the unit cube
        if a[0] == "pair" or b[0] == "pair":
            if a[0] != "pair" or b[0] != "pair":
                raise SortError("== relates terms of one sort")
            return ("and", self._eq(a[1], b[1]), self._eq(a[2], b[2]))
        if a[0] == "unit" or b[0] == "unit":
            if a[0] != b[0]:
                raise SortError("== relates terms of one sort")
            return ("top",)
        return ("eq", a, b)


def _interval_tree(tree: tuple) -> bool:
    return tree[0] in ("atom", "const", "min", "max")


def _tree_sort(tree: tuple) -> CubeSort:
    tag = tree[0]
    if tag == "pair":
        return ProdCube(_tree_sort(tree[1]), _tree_sort(tree[2]))
    return UNIT_CUBE if tag == "unit" else INTERVAL


# ---------------------------------------------------------------------------
# the decision: case split over order literals
#
# Points are the k atoms, the endpoint 0 (point k) and the endpoint 1
# (point k+1).  Formulas in negation normal form are True, False, literals
# (_LE, p, q) for p <= q and (_LT, p, q) for p < q, and (_AND | _OR, parts).

_LE, _LT, _AND, _OR = 0, 1, 2, 3


def _connect(tag: int, left, right):
    """The conjunction or disjunction of two formulas, folding the constants
    and flattening nested parts of the same connective."""
    unit = tag == _AND
    if left is unit:
        return right
    if right is unit:
        return left
    if left is (not unit) or right is (not unit):
        return not unit
    return (tag, (left[1] if left[0] == tag else (left,))
            + (right[1] if right[0] == tag else (right,)))


def _fold(v: tuple, k: int):
    """An interval value with its leaves as points and the endpoint laws
    applied: 0 absorbs min and is the unit of max, dually for 1."""
    tag = v[0]
    if tag == "atom":
        return v[1]
    if tag == "const":
        return k + v[1]
    a, b = _fold(v[1], k), _fold(v[2], k)
    absorbing, unit = (k, k + 1) if tag == "min" else (k + 1, k)
    if a == absorbing or b == absorbing:
        return absorbing
    if a == unit or a == b:
        return b
    if b == unit:
        return a
    return (tag, a, b)


def _compare(a, b, strict: bool, k: int):
    """a <= b (a < b if strict) for folded values: min(a,b) <= c iff
    a <= c or b <= c, c <= min(a,b) iff c <= a and c <= b, dually for max."""
    if type(a) is tuple:
        return _connect(_OR if a[0] == "min" else _AND,
                        _compare(a[1], b, strict, k), _compare(a[2], b, strict, k))
    if type(b) is tuple:
        return _connect(_AND if b[0] == "min" else _OR,
                        _compare(a, b[1], strict, k), _compare(a, b[2], strict, k))
    if strict:
        if a == b or a == k + 1 or b == k:
            return False
        return True if a == k and b == k + 1 else (_LT, a, b)
    if a == b or a == k or b == k + 1:
        return True
    return False if a == k + 1 and b == k else (_LE, a, b)


def _nnf(f: tuple, positive: bool, k: int):
    """f (not f unless positive) in negation normal form over literals, with
    not (p <= q) iff q < p."""
    tag = f[0]
    if tag == "top":
        return positive
    if tag == "bot":
        return not positive
    if tag == "and" or tag == "or":
        both = _AND if (tag == "and") == positive else _OR
        return _connect(both, _nnf(f[1], positive, k), _nnf(f[2], positive, k))
    a, b = _fold(f[1], k), _fold(f[2], k)
    if tag == "leq":
        return _compare(a, b, False, k) if positive else _compare(b, a, True, k)
    if positive:
        return _connect(_AND, _compare(a, b, False, k), _compare(b, a, False, k))
    return _connect(_OR, _compare(b, a, True, k), _compare(a, b, True, k))


def _assert(le: list[int], lt: list[int], lit: tuple) -> bool:
    """Add a literal to the closures; False if it closes a strict cycle.

    Bit q of le[p] records p <= q, bit q of lt[p] records p < q; both are
    transitively closed, and lt[p] is a subset of le[p]."""
    strict, p, q = lit
    if strict:
        if lt[p] >> q & 1:
            return True
        if le[q] >> p & 1:
            return False
    else:
        if le[p] >> q & 1:
            return True
        if lt[q] >> p & 1:
            return False
    up, up_strict, bit = le[q], lt[q], 1 << p
    for x in range(len(le)):
        if le[x] & bit:
            le[x] |= up
            lt[x] |= up if strict or lt[x] & bit else up_strict
    return True


def _simplify(f, le: list[int], lt: list[int]):
    """f with the literals the closures decide replaced by True or False."""
    tag = f[0]
    if tag == _LE:
        if le[f[1]] >> f[2] & 1:
            return True
        return False if lt[f[2]] >> f[1] & 1 else f
    if tag == _LT:
        if lt[f[1]] >> f[2] & 1:
            return True
        return False if le[f[2]] >> f[1] & 1 else f
    unit = tag == _AND
    kept = []
    for part in f[1]:
        r = _simplify(part, le, lt)
        if r is True or r is False:
            if r is unit:
                continue
            return r
        kept.extend(r[1] if r[0] == tag else (r,))
    if not kept:
        return unit
    return kept[0] if len(kept) == 1 else (tag, tuple(kept))


def _satisfiable(f, le: list[int], lt: list[int]) -> bool:
    """Some total order of the points satisfies f and every relation that
    the closures record.

    Literals that f asserts outright are added first; then a branch adds
    the first undecided literal and the other branch adds its negation, so
    the branches split the models and every branch stays consistent."""
    while True:
        f = _simplify(f, le, lt)
        if f is True or f is False:
            return f
        if f[0] == _AND:
            units = [part for part in f[1] if part[0] <= _LT]
        else:
            units = [f] if f[0] <= _LT else []
        if units:
            if not all(_assert(le, lt, lit) for lit in units):
                return False
            continue
        lit = f
        while lit[0] > _LT:
            lit = lit[1][0]
        left_le, left_lt = le[:], lt[:]
        if _assert(left_le, left_lt, lit) and _satisfiable(f, left_le, left_lt):
            return True
        # not (p <= q) is q < p, and not (p < q) is q <= p
        if not _assert(le, lt, (1 - lit[0], lit[2], lit[1])):
            return False


def _decide(k: int, hf: tuple, gf: tuple) -> bool:
    """hf entails gf iff hf and not gf have no model: no total order of the
    points with 0 least, 1 greatest and 0 < 1 satisfies both."""
    f = _connect(_AND, _nnf(hf, True, k), _nnf(gf, False, k))
    if f is True or f is False:
        return not f
    one = k + 1
    le = [1 << x | 1 << one for x in range(k)] + [(1 << (k + 2)) - 1, 1 << one]
    lt = [0] * k + [1 << one, 0]
    return not _satisfiable(f, le, lt)


@cache
def _model_count(k: int) -> int:
    """Models of k atoms: weak orderings of the atoms and 0 < 1 with 0's
    block least and 1's block greatest, 4 * Fubini(k) - 1 for k >= 1."""
    if k == 0:
        return 1
    fubini = [1]
    for m in range(1, k + 1):
        fubini.append(sum(comb(m, i) * fubini[m - i] for i in range(1, m + 1)))
    return 4 * fubini[k] - 1


# ---------------------------------------------------------------------------
# canonical memo keys


def _canon_value(tree: tuple, rename: dict[int, int]) -> tuple:
    match tree[0]:
        case "atom":
            if tree[1] not in rename:
                rename[tree[1]] = len(rename)
            return ("a", rename[tree[1]])
        case "const":
            return ("c", tree[1])
        case _:
            return (tree[0], _canon_value(tree[1], rename), _canon_value(tree[2], rename))


def _canon_formula(f: tuple, rename: dict[int, int]) -> tuple:
    match f[0]:
        case "top" | "bot":
            return f
        case "and" | "or":
            return (f[0], _canon_formula(f[1], rename), _canon_formula(f[2], rename))
        case _:
            return (f[0], _canon_value(f[1], rename), _canon_value(f[2], rename))


# ---------------------------------------------------------------------------
# the solver


@dataclass
class Solver:
    """Entailment solver with a memo table and optional query tracing."""

    capacity: int = 8
    trace: Optional[Callable[[str], None]] = None
    memo: dict = field(default_factory=dict)
    # the cube context of the last call to `flattener`, and its flattener
    _last: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def flattener(self, ctx: tuple[tuple[str, CubeSort], ...]) -> _Flattener:
        """The flattener of a cube context, made again only when ``ctx`` is
        not the very tuple of the last call: the kernel's contexts hand out
        one tuple for each cube context."""
        last, fl = self._last
        if ctx is not last:
            fl = _Flattener(ctx)
            self._last = (ctx, fl)
        return fl

    def entails(
        self,
        ctx: tuple[tuple[str, CubeSort], ...],
        hyps: Tope,
        goal: Tope,
    ) -> bool:
        """Decide ctx | hyps |- goal over all finite total orders."""
        ctx = tuple(ctx)
        fl = self.flattener(ctx)
        # a hypothesis keeps its flattened and canonical forms on the node,
        # as terms keep their free variables, with the cube context they
        # were computed under; they are reused under that very tuple only
        try:
            seen = hyps._flat
        except AttributeError:
            seen = None
        if seen is not None and seen[0] is ctx:
            _, hf, hkey, hrename = seen
        else:
            hf = fl.formula(hyps)
            hrename = {}
            hkey = _canon_formula(hf, hrename)
            object.__setattr__(hyps, "_flat", (ctx, hf, hkey, hrename))
        gf = fl.formula(goal)
        k = len(fl.atoms)
        if k > self.capacity:
            raise CapacityError(
                f"{k} interval variables exceed the entailment bound {self.capacity}"
            )
        rename = dict(hrename)
        key = (k, hkey, _canon_formula(gf, rename))
        cached = self.memo.get(key)
        if cached is not None:
            result, branches = cached
        else:
            result, branches = _decide(k, hf, gf), _model_count(k)
            self.memo[key] = (result, branches)
        if self.trace is not None:
            from .printer import print_cube_context, print_tope

            self.trace(
                "ENTAILS [%s] |- %s => %s : %s (branches=%d)"
                % (
                    print_cube_context(ctx),
                    print_tope(hyps),
                    print_tope(goal),
                    "true" if result else "false",
                    branches,
                )
            )
        return result
