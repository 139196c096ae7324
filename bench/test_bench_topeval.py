"""Tests of the benchmark's own tope evaluator and of its verdict check."""

import itertools
import random

import pytest

import topeval
import topegen
from run import wrong_verdicts
from stt.syntax import (
    Cube0, Cube1, Interval, Join, Meet, TopeAnd, TopeBot, TopeEq, TopeLeq,
    TopeOr, TopeTop, Var,
)

I = Interval()
TOP, BOT = TopeTop(), TopeBot()
x, y, z, t, s = (Var(n) for n in "xyzts")
C1 = (("x", I),)
C2 = (("x", I), ("y", I))
C3 = (("x", I), ("y", I), ("z", I))


# -- a plain evaluator, one assignment at a time, as the reference -----------

def _brute_entails(q) -> bool:
    ctx, hyps, goal = q
    atoms = [(name, part) for name, sort in ctx
             for part in (("",) if sort == "I" else ("fst", "snd"))]
    slot = {atom: i for i, atom in enumerate(atoms)}
    n = len(atoms) + 2

    # each expression becomes a function of one point (a tuple of atom values)
    def value(e):
        tag = e[0]
        if tag == "0":
            return lambda p: 0
        if tag == "1":
            return lambda p: n - 1
        if tag in ("var", "fst", "snd"):
            i = slot[(e[1], "")] if tag == "var" else slot[(e[1][1], tag)]
            return lambda p: p[i]
        a, b = value(e[1]), value(e[2])
        if tag == "meet":
            return lambda p: min(a(p), b(p))
        return lambda p: max(a(p), b(p))

    def components(e):
        if e[0] == "pair":
            a, b = value(e[1]), value(e[2])
            return lambda p: (a(p), b(p))
        if e[0] == "var" and (e[1], "fst") in slot:
            i, j = slot[(e[1], "fst")], slot[(e[1], "snd")]
            return lambda p: (p[i], p[j])
        a = value(e)
        return lambda p: (a(p),)

    def holds(e):
        tag = e[0]
        if tag == "top":
            return lambda p: True
        if tag == "bot":
            return lambda p: False
        if tag in ("and", "or"):
            a, b = holds(e[1]), holds(e[2])
            if tag == "and":
                return lambda p: a(p) and b(p)
            return lambda p: a(p) or b(p)
        if tag == "leq":
            a, b = value(e[1]), value(e[2])
            return lambda p: a(p) <= b(p)
        a, b = components(e[1]), components(e[2])
        return lambda p: a(p) == b(p)

    h, g = holds(hyps), holds(goal)
    return not any(h(p) and not g(p)
                   for p in itertools.product(range(n), repeat=len(atoms)))


def test_agrees_with_one_assignment_at_a_time():
    rng = random.Random(7)
    verdicts = set()
    for k in (1, 2, 3, 4):
        for _ in range(150):
            q = topegen.query(rng, k)
            want = _brute_entails(q)
            assert topeval.entails(*topegen.decode(q)) == want, q
            verdicts.add(want)
    assert verdicts == {True, False}


# -- the facts of the tope axiom suite --------------------------------------------

def test_order_axioms():
    e = topeval.entails
    assert e(C1, TOP, TopeLeq(x, x))
    assert e(C3, TopeAnd(TopeLeq(x, y), TopeLeq(y, z)), TopeLeq(x, z))
    assert e(C2, TopeAnd(TopeLeq(x, y), TopeLeq(y, x)), TopeEq(x, y))
    assert e(C2, TOP, TopeOr(TopeLeq(x, y), TopeLeq(y, x)))
    assert e(C1, TOP, TopeLeq(Cube0(), x))
    assert e(C1, TOP, TopeLeq(x, Cube1()))
    assert e((), TopeEq(Cube0(), Cube1()), BOT)
    assert not e(C2, TOP, TopeLeq(x, y))
    assert not e((), TOP, BOT)


LATTICE = [
    (Meet(x, y), Meet(y, x)),
    (Join(x, y), Join(y, x)),
    (Meet(Meet(x, y), z), Meet(x, Meet(y, z))),
    (Join(Join(x, y), z), Join(x, Join(y, z))),
    (Meet(x, Join(x, y)), x),
    (Join(x, Meet(x, y)), x),
    (Meet(x, x), x),
    (Join(x, x), x),
    (Meet(x, Join(y, z)), Join(Meet(x, y), Meet(x, z))),
    (Join(x, Meet(y, z)), Meet(Join(x, y), Join(x, z))),
    (Meet(x, Cube1()), x),
    (Join(x, Cube0()), x),
]


@pytest.mark.parametrize("lhs,rhs", LATTICE)
def test_lattice_identities(lhs, rhs):
    assert topeval.entails(C3, TOP, TopeEq(lhs, rhs))


def test_lattice_identities_are_not_vacuous():
    assert not topeval.entails(C3, TOP, TopeEq(Meet(x, y), Join(x, y)))
    assert not topeval.entails(C3, TOP, TopeEq(Meet(x, Cube0()), x))


TS = (("t", I), ("s", I))
BD1 = TopeOr(TopeEq(t, Cube0()), TopeEq(t, Cube1()))
D2 = TopeLeq(s, t)
L21 = TopeOr(TopeEq(s, Cube0()), TopeEq(t, Cube1()))
BD2 = TopeOr(TopeEq(s, t), TopeOr(TopeEq(s, Cube0()), TopeEq(t, Cube1())))


@pytest.mark.parametrize("ctx,sub,sup", [
    ((("t", I),), BD1, TOP),     # boundary of Delta^1 in Delta^1
    (TS, L21, D2),               # horn Lambda^2_1 in Delta^2
    (TS, BD2, D2),               # boundary of Delta^2 in Delta^2
])
def test_inclusions_and_false_converses(ctx, sub, sup):
    assert topeval.entails(ctx, sub, sup)
    assert not topeval.entails(ctx, sup, sub)


# -- verdict checking ----------------------------------------------------------------

def test_flipped_verdict_is_a_failed_operation():
    rng = random.Random(3)
    queries = topegen.round_of_queries(rng, 2)
    expected = [topeval.entails(*topegen.decode(q)) for q in queries]
    assert wrong_verdicts(queries, list(expected), expected) == []
    flipped = list(expected)
    flipped[5] = not flipped[5]
    wrong = wrong_verdicts(queries, flipped, expected)
    assert len(wrong) == 1 and wrong[0].startswith("query 5 ")
    assert len(wrong_verdicts(queries, expected[:-1], expected)) == 1
