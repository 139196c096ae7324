"""Independent oracle for tope entailment, used by the tests only.

``oracle_entails`` flattens a query with the solver's own ``_Flattener``
and evaluates hyps -> goal with numpy over the grid {0, 1} | {i/(k+1)}:
every assignment of the k atoms into the chain 0 < 1/(k+1) < ... < 1.
It shares no decision code with ``stt.topes.Solver``.

``Shape`` and ``shape_included`` are the tests' subshape inclusion, decided
with the solver: a cube telescope with a tope over it is included in
another when the telescopes agree up to renaming and the tope entails the
other's.

``reference_sort_of`` and ``sort_key`` are the sort rule as a walk of its
own over cube terms, and sorts as comparable tuples; the solver reads a
term's sort off its flattened value instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from stt.syntax import (
    CubeSort, Cube0, Cube1, CubeStar, Fst, Interval, Join, Meet, Pair, ProdCube,
    Snd, Term, Tope, UnitCube, Var, subst,
)
from stt.topes import CapacityError, Solver, SortError, _Flattener

_grid_model_cache: dict[int, list[np.ndarray]] = {}


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


# ---------------------------------------------------------------------------
# shapes


@dataclass(frozen=True)
class Shape:
    """A cube telescope together with a tope over it."""

    cube_context: tuple[tuple[str, CubeSort], ...]
    tope: Tope


class MismatchError(Exception):
    """Shapes compared over incompatible cube contexts."""


def shape_included(solver: Solver, sub: Shape, sup: Shape) -> bool:
    """sub is a subshape of sup: identical cube telescope (up to renaming)
    and the sub tope entails the sup tope."""
    if len(sub.cube_context) != len(sup.cube_context):
        raise MismatchError("shape cube contexts differ in length")
    tope = sup.tope
    for (n1, s1), (n2, s2) in zip(sub.cube_context, sup.cube_context):
        if s1 != s2:
            raise MismatchError("shape cube contexts differ in sorts")
        if n1 != n2:
            tope = subst(tope, n2, Var(n1))
    return solver.entails(sub.cube_context, sub.tope, tope)


# ---------------------------------------------------------------------------
# the sort rule, walked on its own


def reference_sort_of(ctx: tuple[tuple[str, CubeSort], ...], t: Term) -> CubeSort:
    """The sort of a cube term in a duplicate-free cube context; SortError
    with the solver's messages if it is ill-sorted."""
    sorts = dict(ctx)

    def sort_of(t: Term) -> CubeSort:
        match t:
            case Var(n):
                if n not in sorts:
                    raise SortError(f"unbound cube variable {n}")
                return sorts[n]
            case Cube0() | Cube1():
                return Interval()
            case CubeStar():
                return UnitCube()
            case Meet(a, b) | Join(a, b):
                if isinstance(sort_of(a), Interval) and isinstance(sort_of(b), Interval):
                    return Interval()
                raise SortError("connections apply to interval terms only")
            case Pair(a, b):
                return ProdCube(sort_of(a), sort_of(b))
            case Fst(p):
                s = sort_of(p)
                if isinstance(s, ProdCube):
                    return s.left
                raise SortError("fst applied to a non-product cube term")
            case Snd(p):
                s = sort_of(p)
                if isinstance(s, ProdCube):
                    return s.right
                raise SortError("snd applied to a non-product cube term")
        raise SortError(f"not a cube term: {type(t).__name__}")

    return sort_of(t)


def sort_key(sort: CubeSort):
    """A sort as nested tuples of ``"I"`` and ``"1"``."""
    match sort:
        case Interval():
            return "I"
        case UnitCube():
            return "1"
        case ProdCube(l, r):
            return (sort_key(l), sort_key(r))
