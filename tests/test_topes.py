"""Tope solver: worked examples, order and lattice axioms, oracle agreement."""

import time
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from stt.syntax import (
    Cube0, Cube1, CubeStar, Fst, INTERVAL, Interval, Join, Meet, Pair, ProdCube,
    Snd, TOP, BOT, TopeAnd, TopeEq, TopeLeq, TopeOr, UNIT_CUBE, Universe, Var,
)
from stt.topes import CapacityError, Solver, SortError
from tope_oracle import (
    MismatchError, Shape, oracle_entails, reference_sort_of, shape_included, sort_key,
)

I = INTERVAL
t, s, x, y, z = Var("t"), Var("s"), Var("x"), Var("y"), Var("z")
CTX_T = (("t", I),)
CTX_TS = (("t", I), ("s", I))
CTX_XY = (("x", I), ("y", I))
CTX_XYZ = (("x", I), ("y", I), ("z", I))


@pytest.fixture
def solver():
    return Solver()


def eq(a, b):
    return TopeEq(a, b)


def leq(a, b):
    return TopeLeq(a, b)


class TestEntails:
    def test_horn_included_in_simplex(self, solver):
        hyps = TopeOr(eq(s, Cube0()), eq(t, Cube1()))
        assert solver.entails(CTX_TS, hyps, leq(s, t))

    def test_totality(self, solver):
        assert solver.entails(CTX_XY, TOP, TopeOr(leq(x, y), leq(y, x)))

    def test_no_excluded_middle_on_endpoints(self, solver):
        # counter-model: t strictly between 0 and 1 in a 3-element chain
        assert not solver.entails(CTX_T, TOP, TopeOr(eq(t, Cube0()), eq(t, Cube1())))

    def test_antisymmetry(self, solver):
        assert solver.entails(CTX_XY, TopeAnd(leq(x, y), leq(y, x)), eq(x, y))

    def test_meet_is_lower_bound(self, solver):
        assert solver.entails(CTX_TS, TOP, leq(Meet(t, s), s))

    def test_reflexivity_transitivity(self, solver):
        assert solver.entails(CTX_T, TOP, leq(t, t))
        hyps = TopeAnd(leq(x, y), leq(y, z))
        assert solver.entails(CTX_XYZ, hyps, leq(x, z))

    def test_endpoint_bounds(self, solver):
        assert solver.entails(CTX_T, TOP, leq(Cube0(), t))
        assert solver.entails(CTX_T, TOP, leq(t, Cube1()))

    def test_endpoints_distinct(self, solver):
        assert solver.entails((), eq(Cube0(), Cube1()), BOT)
        assert not solver.entails((), TOP, BOT)

    def test_monotonicity(self, solver):
        # entails(h, g) and entails(h', h) imply entails(h', g)
        h = TopeOr(eq(s, Cube0()), eq(t, Cube1()))
        hp = eq(s, Cube0())
        g = leq(s, t)
        assert solver.entails(CTX_TS, h, g)
        assert solver.entails(CTX_TS, hp, h)
        assert solver.entails(CTX_TS, hp, g)

    def test_capacity(self):
        solver = Solver(capacity=2)
        ctx = (("a", I), ("b", I), ("c", I))
        with pytest.raises(CapacityError):
            solver.entails(ctx, TOP, leq(Var("a"), Var("c")))

    def test_sort_errors(self, solver):
        with pytest.raises(SortError):
            solver.entails(CTX_T, TOP, leq(t, Pair(t, t)))
        with pytest.raises(SortError):
            solver.entails(CTX_T, TOP, eq(Fst(t), Cube0()))
        with pytest.raises(SortError):
            solver.entails((), TOP, leq(Var("free"), Cube1()))

    def test_sort_error_before_capacity_error(self):
        solver = Solver(capacity=1)
        bad = leq(t, Pair(t, s))
        with pytest.raises(SortError):
            solver.entails(CTX_TS, bad, TOP)
        with pytest.raises(SortError):
            solver.entails(CTX_TS, TOP, bad)
        with pytest.raises(SortError):
            solver.entails((("t", I), ("t", I)), TOP, TOP)
        hyps = leq(t, s)
        with pytest.raises(CapacityError):
            solver.entails(CTX_TS, hyps, TOP)
        # hyps' flattened form is now kept for CTX_TS; the goal still
        # decides the error
        with pytest.raises(SortError):
            solver.entails(CTX_TS, hyps, bad)

    def test_one_hypothesis_under_several_cube_contexts(self, solver):
        # the atoms of t and s differ from one context to the next, so a
        # flattened hypothesis reused under another context gives the
        # wrong verdict
        hyps = leq(t, s)
        contexts = [CTX_TS, (("s", I), ("t", I)), (("r", I), ("s", I), ("t", I)),
                    (("p", ProdCube(I, I)), ("t", I), ("s", I))]
        for ctx in contexts + contexts[::-1]:
            assert solver.entails(ctx, hyps, leq(t, s))
            assert not solver.entails(ctx, hyps, leq(s, t))
            assert solver.entails(ctx, hyps, leq(Meet(t, s), t))

    def test_product_flattening(self, solver):
        ctx = (("p", ProdCube(I, I)),)
        p = Var("p")
        assert solver.entails(ctx, eq(p, Pair(Cube0(), Cube1())), eq(Fst(p), Cube0()))
        assert solver.entails(ctx, eq(p, Pair(Cube0(), Cube1())), eq(Snd(p), Cube1()))
        # componentwise equality reassembles the pair
        assert solver.entails(
            ctx, TOP, eq(p, Pair(Fst(p), Snd(p))))

    def test_seven_and_eight_atoms_are_cheap(self):
        # the join of the atoms is one of them: refuting the negation needs
        # case splits over every pair of atoms
        start = time.perf_counter()
        for k in (7, 8):
            xs = [Var(f"v{i}") for i in range(k)]
            ctx = tuple((f"v{i}", I) for i in range(k))
            join = reduce(Join, xs)
            solver = Solver()
            assert solver.entails(ctx, TOP, reduce(TopeOr, [eq(join, v) for v in xs]))
            assert not solver.entails(
                ctx, TOP, reduce(TopeOr, [eq(join, v) for v in xs[1:]]))
        assert time.perf_counter() - start < 2.0

    def test_branches_count_models(self):
        # weak orderings of k atoms and 0 < 1, 0 least and 1 greatest
        lines = []
        solver = Solver(trace=lines.append)
        for k in range(7):
            solver.entails(tuple((f"v{i}", I) for i in range(k)), TOP, TOP)
        assert [int(line.rsplit("branches=", 1)[1].rstrip(")")) for line in lines] == [
            1, 3, 11, 51, 299, 2163, 18731]

    def test_memo_and_trace(self):
        lines = []
        solver = Solver(trace=lines.append)
        goal = TopeOr(leq(x, y), leq(y, x))
        assert solver.entails(CTX_XY, TOP, goal)
        assert solver.entails(CTX_XY, TOP, goal)
        assert len(lines) == 2
        assert lines[0] == lines[1]
        assert lines[0].startswith("ENTAILS [x : I, y : I] |- TOP => ")
        assert lines[0].endswith(lines[1][len("ENTAILS"):]) or lines[0] == lines[1]
        assert "branches=" in lines[0]


LATTICE_IDENTITIES = [
    ("meet-comm", Meet(x, y), Meet(y, x)),
    ("join-comm", Join(x, y), Join(y, x)),
    ("meet-assoc", Meet(Meet(x, y), z), Meet(x, Meet(y, z))),
    ("join-assoc", Join(Join(x, y), z), Join(x, Join(y, z))),
    ("meet-absorb", Meet(x, Join(x, y)), x),
    ("join-absorb", Join(x, Meet(x, y)), x),
    ("meet-idem", Meet(x, x), x),
    ("join-idem", Join(x, x), x),
    ("meet-distrib", Meet(x, Join(y, z)), Join(Meet(x, y), Meet(x, z))),
    ("join-distrib", Join(x, Meet(y, z)), Meet(Join(x, y), Join(x, z))),
    ("meet-unit", Meet(x, Cube1()), x),
    ("join-unit", Join(x, Cube0()), x),
]


@pytest.mark.parametrize("name,lhs,rhs", LATTICE_IDENTITIES, ids=[c[0] for c in LATTICE_IDENTITIES])
def test_lattice_identity(name, lhs, rhs):
    solver = Solver()
    assert solver.entails(CTX_XYZ, TOP, TopeEq(lhs, rhs))


class TestShapes:
    D1 = Shape(CTX_T, TOP)
    BD1 = Shape(CTX_T, TopeOr(eq(t, Cube0()), eq(t, Cube1())))
    D2 = Shape(CTX_TS, leq(s, t))
    L21 = Shape(CTX_TS, TopeOr(eq(s, Cube0()), eq(t, Cube1())))
    BD2 = Shape(CTX_TS, TopeOr(eq(s, t), TopeOr(eq(s, Cube0()), eq(t, Cube1()))))

    def test_named_inclusions(self, solver):
        assert shape_included(solver, self.BD1, self.D1)
        assert shape_included(solver, self.L21, self.D2)
        assert shape_included(solver, self.BD2, self.D2)

    def test_false_converses(self, solver):
        assert not shape_included(solver, self.D1, self.BD1)
        assert not shape_included(solver, self.D2, self.L21)
        assert not shape_included(solver, self.D2, self.BD2)

    def test_reflexive(self, solver):
        assert shape_included(solver, self.L21, self.L21)

    def test_alpha_renaming(self, solver):
        renamed = Shape(
            (("a", I), ("b", I)),
            TopeOr(eq(Var("b"), Cube0()), eq(Var("a"), Cube1())))
        assert shape_included(solver, renamed, Shape((("a", I), ("b", I)), leq(Var("b"), Var("a"))))

    def test_mismatch(self, solver):
        with pytest.raises(MismatchError):
            shape_included(solver, self.D1, self.D2)
        with pytest.raises(MismatchError):
            shape_included(
                solver, Shape((("t", ProdCube(I, I)),), TOP), Shape(CTX_T, TOP))


class TestCubeEqual:
    def test_by_assumption(self, solver):
        assert solver.entails(CTX_T, eq(t, Cube0()), TopeEq(t, Cube0()))

    def test_meet_top(self, solver):
        assert solver.entails(CTX_T, TOP, TopeEq(Meet(t, Cube1()), t))

    def test_distinct_variables(self, solver):
        assert not solver.entails(CTX_TS, TOP, TopeEq(t, s))

    def test_componentwise_pairs(self, solver):
        assert solver.entails(
            CTX_TS, TOP, TopeEq(Pair(Meet(t, Cube1()), s), Pair(t, Join(s, Cube0()))))

    def test_sides_of_two_sorts(self, solver):
        with pytest.raises(SortError, match="^== relates terms of one sort$"):
            solver.entails(CTX_TS, TOP, TopeEq(t, Pair(t, s)))


# random cube sorts, and cube terms over a context of up to three of them;
# the leaves are unbound names, a non-cube term and every cube constant

_sorts = st.recursive(
    st.sampled_from([INTERVAL, UNIT_CUBE]),
    lambda sub: st.builds(ProdCube, sub, sub), max_leaves=4)


def _sorted_terms(names):
    leaves = st.sampled_from(
        [Cube0(), Cube1(), CubeStar(), Universe(0)] + [Var(n) for n in names])
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Meet, sub, sub), st.builds(Join, sub, sub),
            st.builds(Pair, sub, sub), st.builds(Fst, sub), st.builds(Snd, sub)),
        max_leaves=8)


def _sort_or_error(sort_of, t):
    try:
        return sort_of(t)
    except SortError as e:
        return str(e)


@settings(max_examples=1000, deadline=None)
@given(st.lists(_sorts, max_size=3), _sorted_terms("abcd"))
def test_sort_of_agrees_with_the_reference(sorts, term):
    """The sort the flattener reads off a value tree is the sort the
    reference walk finds, or both raise the same SortError."""
    ctx = tuple(zip("abc", sorts))
    got = _sort_or_error(Solver().flattener(ctx).sort_of, term)
    expected = _sort_or_error(lambda t: reference_sort_of(ctx, t), term)
    assert got == expected
    if not isinstance(got, str):
        assert sort_key(got) == sort_key(expected)


@settings(max_examples=300, deadline=None)
@given(_sorts, _sorts)
def test_sort_equality_is_key_equality(s1, s2):
    assert (s1 == s2) == (sort_key(s1) == sort_key(s2))


class TestOracle:
    def test_agrees_on_spec_examples(self):
        solver = Solver()
        cases = [
            (CTX_TS, TopeOr(eq(s, Cube0()), eq(t, Cube1())), leq(s, t)),
            (CTX_XY, TOP, TopeOr(leq(x, y), leq(y, x))),
            (CTX_T, TOP, TopeOr(eq(t, Cube0()), eq(t, Cube1()))),
        ]
        for ctx, h, g in cases:
            assert solver.entails(ctx, h, g) == oracle_entails(ctx, h, g)

    def test_mixed_connection(self):
        assert oracle_entails(CTX_XYZ, leq(x, y), leq(Meet(x, z), Join(y, z)))
        assert Solver().entails(CTX_XYZ, leq(x, y), leq(Meet(x, z), Join(y, z)))

    def test_vacuous(self):
        assert oracle_entails(CTX_T, BOT, eq(Cube0(), Cube1()))

    def test_capacity(self):
        ctx = tuple((f"v{i}", I) for i in range(5))
        with pytest.raises(CapacityError):
            oracle_entails(ctx, TOP, TOP)


# random formulas over up to 6 interval variables
_names = ["x", "y", "z", "w", "u", "v"]


def _cube_terms(var_count):
    leaves = st.sampled_from(
        [Cube0(), Cube1()] + [Var(n) for n in _names[:var_count]])
    return st.recursive(
        leaves,
        lambda sub: st.tuples(st.booleans(), sub, sub).map(
            lambda p: Meet(p[1], p[2]) if p[0] else Join(p[1], p[2])),
        max_leaves=6)


def _topes(var_count):
    atoms = st.one_of(
        st.just(TOP),
        st.just(BOT),
        st.tuples(st.booleans(), _cube_terms(var_count), _cube_terms(var_count)).map(
            lambda p: TopeEq(p[1], p[2]) if p[0] else TopeLeq(p[1], p[2])),
    )
    return st.recursive(
        atoms,
        lambda sub: st.tuples(st.booleans(), sub, sub).map(
            lambda p: TopeAnd(p[1], p[2]) if p[0] else TopeOr(p[1], p[2])),
        max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_oracle_agreement_random(data):
    k = data.draw(st.integers(min_value=1, max_value=4))
    ctx = tuple((n, I) for n in _names[:k])
    hyps = data.draw(_topes(k))
    goal = data.draw(_topes(k))
    solver = Solver()
    assert solver.entails(ctx, hyps, goal) == oracle_entails(ctx, hyps, goal)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_oracle_agreement_five_and_six_atoms(data):
    k = data.draw(st.integers(min_value=5, max_value=6))
    ctx = tuple((n, I) for n in _names[:k])
    hyps = data.draw(_topes(k))
    goal = data.draw(_topes(k))
    assert Solver().entails(ctx, hyps, goal) == oracle_entails(
        ctx, hyps, goal, capacity=6)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_monotonicity_random(data):
    k = data.draw(st.integers(min_value=1, max_value=3))
    ctx = tuple((n, I) for n in _names[:k])
    h = data.draw(_topes(k))
    hp = data.draw(_topes(k))
    g = data.draw(_topes(k))
    solver = Solver()
    if solver.entails(ctx, h, g) and solver.entails(ctx, hp, h):
        assert solver.entails(ctx, hp, g)
