"""The benchmark's own tope entailment evaluator.

It reads the ``stt.syntax`` tope tree directly and evaluates hyps -> goal
over every assignment of the k interval atoms into the chain
0 < 1/(k+1) < ... < k/(k+1) < 1, which has n = k + 2 points.  It shares no
code with ``stt.topes``: that module's oracle reuses the solver's own
flattening and evaluation, so it could not catch a fault in them.

All assignments are evaluated at once.  Bit ``a`` of a Python int stands
for assignment ``a``, whose atom ``i`` sits at point ``(a // n**i) % n``.
An interval value is held as its threshold masks ``le[v]`` (value <= point
v) for v = 0..n-1; then min(x, y) <= v iff x <= v or y <= v, max
likewise with and, and x <= y iff for every v, y <= v implies x <= v.
"""

from __future__ import annotations

from stt.syntax import (
    Cube0, Cube1, Fst, Interval, Join, Meet, Pair, ProdCube, Snd, TopeAnd,
    TopeBot, TopeEq, TopeLeq, TopeOr, TopeTop, UnitCube, Var,
)

_atoms_cache: dict[int, list[list[int]]] = {}


def _atom_thresholds(k: int) -> list[list[int]]:
    """le[i][v]: the assignments that put atom i at point v or below."""
    if k not in _atoms_cache:
        n = k + 2
        total = n ** k
        table = []
        for i in range(k):
            block = n ** i          # run of equal digits at position i
            period = block * n      # the digit pattern repeats with this period
            repeat = ((1 << total) - 1) // ((1 << period) - 1)
            run = (1 << block) - 1
            at = [(run << (v * block)) * repeat for v in range(n)]
            table.append([sum(at[:v + 1]) for v in range(n)])
        _atoms_cache[k] = table
    return _atoms_cache[k]


class _Evaluator:
    def __init__(self, ctx):
        self.env: dict[str, object] = {}
        k = 0
        for name, sort in ctx:
            self.env[name], k = self._bind(sort, k)
        self.k = k
        self.n = k + 2
        self.all = (1 << (self.n ** k)) - 1
        self.atoms = _atom_thresholds(k)

    @staticmethod
    def _bind(sort, k):
        """Give a cube variable of this sort its atoms, numbered from k."""
        if isinstance(sort, Interval):
            return ("atom", k), k + 1
        if isinstance(sort, UnitCube):
            return ("unit",), k
        if isinstance(sort, ProdCube):
            left, k = _Evaluator._bind(sort.left, k)
            right, k = _Evaluator._bind(sort.right, k)
            return ("pair", left, right), k
        raise ValueError(f"unknown cube sort {sort!r}")

    def point(self, t):
        """A cube term as ("atom", i), ("le", threshold masks),
        ("pair", left, right) or ("unit",)."""
        if isinstance(t, Var):
            return self.env[t.name]
        if isinstance(t, Cube0):
            return ("le", [self.all] * self.n)
        if isinstance(t, Cube1):
            return ("le", [0] * (self.n - 1) + [self.all])
        if isinstance(t, Pair):
            return ("pair", self.point(t.fst), self.point(t.snd))
        if isinstance(t, (Fst, Snd)):
            p = self.point(t.pair)
            if p[0] != "pair":
                raise ValueError("projection of a non-product cube term")
            return p[1] if isinstance(t, Fst) else p[2]
        if isinstance(t, (Meet, Join)):
            a, b = self.le(self.point(t.left)), self.le(self.point(t.right))
            if isinstance(t, Meet):
                return ("le", [x | y for x, y in zip(a, b)])
            return ("le", [x & y for x, y in zip(a, b)])
        raise ValueError(f"not a cube term: {t!r}")

    def le(self, p) -> list[int]:
        if p[0] == "atom":
            return self.atoms[p[1]]
        if p[0] == "le":
            return p[1]
        raise ValueError("an interval term was expected")

    def leq(self, a: list[int], b: list[int]) -> int:
        # every value is <= the top point, so the last threshold says nothing
        out = self.all
        for x, y in zip(a[:-1], b[:-1]):
            out &= ~y | x
        return out & self.all

    def equal(self, a, b) -> int:
        if a[0] == "pair" or b[0] == "pair":
            if a[0] != "pair" or b[0] != "pair":
                raise ValueError("== relates terms of one sort")
            return self.equal(a[1], b[1]) & self.equal(a[2], b[2])
        if a[0] == "unit" or b[0] == "unit":
            if a[0] != b[0]:
                raise ValueError("== relates terms of one sort")
            return self.all
        x, y = self.le(a), self.le(b)
        return self.leq(x, y) & self.leq(y, x)

    def holds(self, tope) -> int:
        """The set of assignments that satisfy the tope."""
        if isinstance(tope, TopeTop):
            return self.all
        if isinstance(tope, TopeBot):
            return 0
        if isinstance(tope, TopeAnd):
            return self.holds(tope.left) & self.holds(tope.right)
        if isinstance(tope, TopeOr):
            return self.holds(tope.left) | self.holds(tope.right)
        if isinstance(tope, TopeLeq):
            return self.leq(self.le(self.point(tope.lhs)),
                            self.le(self.point(tope.rhs)))
        if isinstance(tope, TopeEq):
            return self.equal(self.point(tope.lhs), self.point(tope.rhs))
        raise ValueError(f"not a tope: {tope!r}")


def entails(ctx, hyps, goal) -> bool:
    """Every assignment of the atoms into the chain that satisfies hyps
    satisfies goal."""
    ev = _Evaluator(ctx)
    return (ev.holds(hyps) & ~ev.holds(goal) & ev.all) == 0
