"""Decision procedure for tope entailment over the strict interval.

The reference semantics is classical satisfaction over finite chains:
``entails(ctx, hyps, goal)`` holds iff every weak ordering (ordered set
partition) of the interval atoms together with the endpoints 0 < 1
satisfying ``hyps`` also satisfies ``goal``.  Connections evaluate as
min/max, ``==`` and ``<=`` through the ordering.

Product cubes are flattened to tuples of interval atoms before solving;
projections compute away on pair literals and otherwise select component
atoms of a variable.  ``oracle_entails`` is an independent check that
evaluates formulas over the grid {0, 1} | {i/(k+1)} instead; both must
agree wherever the oracle is defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from .syntax import (
    CubeSort, Cube0, Cube1, CubeStar, Fst, Interval, Join, Meet, Pair,
    ProdCube, Snd, Tope, TopeAnd, TopeBot, TopeEq, TopeLeq, TopeOr, TopeTop,
    Term, UnitCube, Var,
)


class SortError(Exception):
    """A cube term or tope is ill-sorted in its cube context."""


class CapacityError(Exception):
    """The flattened query exceeds the configured interval-variable bound."""


@dataclass(frozen=True)
class Shape:
    """A cube telescope together with a tope over it."""

    cube_context: tuple[tuple[str, CubeSort], ...]
    tope: Tope


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
        self.sorts: dict[str, CubeSort] = {}
        for name, sort in ctx:
            if name in self.env:
                raise SortError(f"duplicate cube variable {name}")
            self.env[name] = _atoms_of_sort(name, sort, self.atoms)
            self.sorts[name] = sort

    def sort_of(self, t: Term) -> CubeSort:
        match t:
            case Var(n):
                if n not in self.sorts:
                    raise SortError(f"unbound cube variable {n}")
                return self.sorts[n]
            case Cube0() | Cube1():
                return Interval()
            case CubeStar():
                return UnitCube()
            case Meet(a, b) | Join(a, b):
                if isinstance(self.sort_of(a), Interval) and isinstance(
                    self.sort_of(b), Interval
                ):
                    return Interval()
                raise SortError("connections apply to interval terms only")
            case Pair(a, b):
                return ProdCube(self.sort_of(a), self.sort_of(b))
            case Fst(p):
                s = self.sort_of(p)
                if isinstance(s, ProdCube):
                    return s.left
                raise SortError("fst applied to a non-product cube term")
            case Snd(p):
                s = self.sort_of(p)
                if isinstance(s, ProdCube):
                    return s.right
                raise SortError("snd applied to a non-product cube term")
        raise SortError(f"not a cube term: {type(t).__name__}")

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
            fa, fb = self.flatten(t.left), self.flatten(t.right)
            if not (_interval_tree(fa) and _interval_tree(fb)):
                raise SortError("connections apply to interval terms only")
            return ("min" if cls is Meet else "max", fa, fb)
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


def _sort_key(sort: CubeSort):
    match sort:
        case Interval():
            return "I"
        case UnitCube():
            return "1"
        case ProdCube(l, r):
            return (_sort_key(l), _sort_key(r))


# ---------------------------------------------------------------------------
# model enumeration

_weak_order_cache: dict[int, list[np.ndarray]] = {}
_CHUNK = 1 << 15


def _weak_orderings(n: int) -> Iterator[np.ndarray]:
    """All weak orderings of n elements as level vectors, in chunks."""
    if n == 0:
        yield np.zeros((1, 0), dtype=np.int8)
        return
    if n in _weak_order_cache:
        yield from _weak_order_cache[n]
        return
    chunks: list[np.ndarray] = []
    buf: list[list[int]] = []

    def emit(levels: list[int]):
        buf.append(list(levels))
        if len(buf) >= _CHUNK:
            chunks.append(np.array(buf, dtype=np.int8))
            buf.clear()

    def place(i: int, levels: list[int], nlevels: int):
        if i == n:
            emit(levels)
            return
        for lv in range(nlevels):  # join an existing block
            levels.append(lv)
            place(i + 1, levels, nlevels)
            levels.pop()
        for gap in range(nlevels + 1):  # open a new block at any gap
            bumped = [lv + 1 if lv >= gap else lv for lv in levels]
            bumped.append(gap)
            place(i + 1, bumped, nlevels + 1)

    place(0, [], 0)
    if buf:
        chunks.append(np.array(buf, dtype=np.int8))
    if n <= 8:
        _weak_order_cache[n] = chunks
    yield from chunks


_entail_model_cache: dict[int, list[np.ndarray]] = {}
_grid_model_cache: dict[int, list[np.ndarray]] = {}


def _entail_models(k: int) -> Iterator[np.ndarray]:
    """Level assignments for k atoms plus columns for 0 and 1.  The endpoints
    interpret the chain's distinguished bottom and top, so 0's block is the
    least, 1's block the greatest, and they are strictly apart.  Column k is
    the endpoint 0, column k+1 is 1."""
    cached = _entail_model_cache.get(k)
    if cached is not None:
        yield from cached
        return
    chunks: list[np.ndarray] = []
    for chunk in _weak_orderings(k + 2):
        sel = (
            (chunk[:, k] < chunk[:, k + 1])
            & (chunk[:, k] == chunk.min(axis=1))
            & (chunk[:, k + 1] == chunk.max(axis=1))
        )
        if sel.any():
            chunks.append(np.ascontiguousarray(chunk[sel].T))
    if k <= 6:
        _entail_model_cache[k] = chunks
    yield from chunks


def _grid_models(k: int) -> Iterator[np.ndarray]:
    """The oracle's grid: atoms range over k+2 levels freely; endpoints are
    pinned to the extremes."""
    cached = _grid_model_cache.get(k)
    if cached is not None:
        yield from cached
        return
    if k == 0:
        grids = np.zeros((1, 0), dtype=np.int8)
    else:
        axes = np.meshgrid(*[np.arange(k + 2, dtype=np.int8)] * k, indexing="ij")
        grids = np.stack([a.reshape(-1) for a in axes], axis=1)
    zero = np.zeros((grids.shape[0], 1), dtype=np.int8)
    one = np.full((grids.shape[0], 1), k + 1, dtype=np.int8)
    chunks = [np.ascontiguousarray(np.concatenate([grids, zero, one], axis=1).T)]
    if k <= 6:
        _grid_model_cache[k] = chunks
    yield from chunks


def _eval_value(tree: tuple, rows: np.ndarray, k: int) -> np.ndarray:
    match tree[0]:
        case "atom":
            return rows[tree[1]]
        case "const":
            return rows[k + tree[1]]
        case "min":
            return np.minimum(_eval_value(tree[1], rows, k), _eval_value(tree[2], rows, k))
        case "max":
            return np.maximum(_eval_value(tree[1], rows, k), _eval_value(tree[2], rows, k))
    raise SortError(f"non-interval value in formula: {tree[0]}")


def _eval_formula(f: tuple, rows: np.ndarray, k: int) -> np.ndarray:
    match f[0]:
        case "top":
            return np.ones(rows.shape[1], dtype=bool)
        case "bot":
            return np.zeros(rows.shape[1], dtype=bool)
        case "and":
            return _eval_formula(f[1], rows, k) & _eval_formula(f[2], rows, k)
        case "or":
            return _eval_formula(f[1], rows, k) | _eval_formula(f[2], rows, k)
        case "leq":
            return _eval_value(f[1], rows, k) <= _eval_value(f[2], rows, k)
        case "eq":
            return _eval_value(f[1], rows, k) == _eval_value(f[2], rows, k)
    raise AssertionError(f[0])


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
    queries: int = 0

    def entails(
        self,
        ctx: tuple[tuple[str, CubeSort], ...],
        hyps: Tope,
        goal: Tope,
    ) -> bool:
        """Decide ctx | hyps |- goal over all finite total orders."""
        self.queries += 1
        fl = _Flattener(tuple(ctx))
        hf = fl.formula(hyps)
        gf = fl.formula(goal)
        k = len(fl.atoms)
        if k > self.capacity:
            raise CapacityError(
                f"{k} interval variables exceed the entailment bound {self.capacity}"
            )
        rename: dict[int, int] = {}
        key = (k, _canon_formula(hf, rename), _canon_formula(gf, rename))
        cached = self.memo.get(key)
        if cached is not None:
            result, branches = cached
        else:
            result, branches = self._decide(k, hf, gf)
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

    @staticmethod
    def _decide(k: int, hf: tuple, gf: tuple) -> tuple[bool, int]:
        branches = 0
        for rows in _entail_models(k):
            branches += rows.shape[1]
            h = _eval_formula(hf, rows, k)
            if not h.any():
                continue
            g = _eval_formula(gf, rows, k)
            if not (g | ~h).all():
                return False, branches
        return True, branches

    # -- derived operations --------------------------------------------------

    def shape_included(self, sub: Shape, sup: Shape) -> bool:
        """sub is a subshape of sup: identical cube telescope (up to renaming)
        and the sub tope entails the sup tope."""
        if len(sub.cube_context) != len(sup.cube_context):
            raise MismatchError("shape cube contexts differ in length")
        tope = sup.tope
        for (n1, s1), (n2, s2) in zip(sub.cube_context, sup.cube_context):
            if _sort_key(s1) != _sort_key(s2):
                raise MismatchError("shape cube contexts differ in sorts")
            if n1 != n2:
                from .syntax import subst

                tope = subst(tope, n2, Var(n1))
        return self.entails(sub.cube_context, sub.tope, tope)

    def cube_equal(
        self,
        ctx: tuple[tuple[str, CubeSort], ...],
        hyps: Tope,
        a: Term,
        b: Term,
    ) -> bool:
        """a == b under hyps, decomposing product sorts componentwise."""
        fl = _Flattener(tuple(ctx))
        if _sort_key(fl.sort_of(a)) != _sort_key(fl.sort_of(b)):
            raise SortError("== relates terms of one sort")
        return self.entails(ctx, hyps, TopeEq(a, b))

    def inconsistent(self, ctx, hyps: Tope) -> bool:
        return self.entails(ctx, hyps, TopeBot())


class MismatchError(Exception):
    """Shapes compared over incompatible cube contexts."""


def oracle_entails(
    ctx: tuple[tuple[str, CubeSort], ...],
    hyps: Tope,
    goal: Tope,
    capacity: int = 4,
) -> bool:
    """Independent oracle: evaluate hyps -> goal over every assignment of the
    atoms into the chain 0 < 1/(k+1) < ... < k/(k+1) < 1."""
    fl = _Flattener(tuple(ctx))
    hf = fl.formula(hyps)
    gf = fl.formula(goal)
    k = len(fl.atoms)
    if k > capacity:
        raise CapacityError(f"{k} interval variables exceed the oracle bound {capacity}")
    for rows in _grid_models(k):
        h = _eval_formula(hf, rows, k)
        g = _eval_formula(gf, rows, k)
        if not (g | ~h).all():
            return False
    return True
