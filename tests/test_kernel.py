"""Kernel: reduction, definitional equality, checking, declarations."""

import collections
import dataclasses
import os
import random
import subprocess
import sys
import typing

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import CORPUS, REPO
from genterms import NAMES, random_term
import subst_replay
from kernel_oracle import (
    _SCOPES, InnermostChecker, check_boundary, debruijn, is_node, reference_subst,
    reference_subst_many, rename_binders,
)
from stt import syntax
from stt.kernel import (
    Checker, Ctx, EnvEntry, KernelError, _split_tope, build_env, check_module,
    dump_entries,
)
from stt.parser import parse_module, parse_term
from stt.syntax import (
    App, Cube0, Cube1, Interval, Lam, Pair, TOP, TopeAnd, TopeEq, TopeLeq,
    TopeOr, UnitCube, Var, alpha_eq, decode_term, encode_term, fresh_name,
    free_vars, subst, subst_many,
)
from stt.topes import Solver


HEADER = r"""
def Delta1 : U := {t : I | TOP};
def hom (B : U) (b : B) (b' : B) : U
  := <Pi (t : Delta1) -> B | t == 0 \/ t == 1
       |-> recOR (t == 0 |-> b , t == 1 |-> b')>;
postulate B : U;
postulate b : B;
postulate b' : B;
postulate u : hom B b b';
"""


def check_src(src, expect_ok=True):
    mod, diags = parse_module(src, "test.stt")
    assert not diags, [d.message for d in diags]
    report, env = check_module(mod, {}, Solver())
    if expect_ok:
        assert report.status == "ok", [
            (d.code, d.message) for d in report.diagnostics]
    return report, env


def make_checker(src=HEADER, checker=Checker):
    _, env = check_src(src)
    return checker(env, solver=Solver())


def _subterms(t):
    yield t
    for f in dataclasses.fields(t):
        child = getattr(t, f.name)
        if dataclasses.is_dataclass(child):
            yield from _subterms(child)


def assert_cached_free_vars_are_walked(t):
    """Every free-variable set cached under t, those a substitution set on
    the nodes it rebuilt included, is the one a fresh walk finds."""
    free_vars(t)
    nodes = list(_subterms(t))
    cached = [vars(n).pop("_fv", None) for n in nodes]
    for n, fv in zip(nodes, cached):
        assert fv is None or free_vars(n) == fv


class TestSubstMany:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(2, 4))
    def test_agrees_with_sequential_substitution(self, seed, depth, n):
        # genterms draws every name from a pool of eight, so terms have
        # binders that capture a value's free variables and binders that
        # shadow a substituted name
        rng = random.Random(seed)
        t = random_term(rng, depth)
        sigma = {x: random_term(rng, rng.randrange(3)) for x in rng.sample(NAMES, n)}
        expected = reference_subst_many(t, sigma)
        out = subst_many(t, sigma)
        assert alpha_eq(out, expected)
        assert_cached_free_vars_are_walked(out)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.sampled_from(NAMES))
    def test_one_name_agrees_with_the_reference_walk(self, seed, depth, x):
        rng = random.Random(seed)
        t = random_term(rng, depth)
        v = random_term(rng, rng.randrange(3))
        out = subst(t, x, v)
        assert alpha_eq(out, reference_subst(t, x, v))
        assert_cached_free_vars_are_walked(out)

    def test_renaming_to_itself_is_no_substitution(self):
        t = parse_term(r"\z . x (y z) x")
        assert subst(t, "x", Var("x")) is t
        out = subst_many(t, {"x": Var("x"), "y": Var("b")})
        assert alpha_eq(out, parse_term(r"\z . x (b z) x"))
        assert subst_many(t, {"x": Var("x"), "y": Var("y")}) is t


def _relabel(t, rng: random.Random, p: float):
    """A copy of ``t`` in which each binder and each variable occurrence
    keeps its name or, with probability ``p``, takes one drawn from NAMES.
    The copy may or may not be α-equal to ``t``."""
    if not is_node(t):
        return t
    fields = {}
    for f in dataclasses.fields(t):
        v = getattr(t, f.name)
        if f.name in ("binder", "name") and rng.random() < p:
            v = rng.choice(NAMES)
        fields[f.name] = _relabel(v, rng, p)
    return type(t)(**fields)


class TestAlphaEq:
    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 4))
    def test_agrees_with_de_bruijn_forms(self, seed, depth):
        # genterms draws every name from a pool of eight, so relabelled
        # copies shadow, capture and swap names at random
        rng = random.Random(seed)
        a = random_term(rng, depth)
        for b in (_relabel(a, rng, 0.15), _relabel(a, rng, 0.5),
                  random_term(rng, depth)):
            assert alpha_eq(a, b) == (debruijn(a) == debruijn(b))
            assert alpha_eq(b, a) == alpha_eq(a, b)

    def test_relabelled_pairs_are_not_vacuous(self):
        outcomes = collections.Counter()
        for seed in range(300):
            rng = random.Random(seed)
            a = random_term(rng, 3)
            outcomes[alpha_eq(a, _relabel(a, rng, 0.15))] += 1
        assert outcomes[True] >= 50 and outcomes[False] >= 50, outcomes

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 4))
    def test_renamed_binders_are_equal(self, seed, depth):
        a = random_term(random.Random(seed), depth)
        b = rename_binders(a)
        assert alpha_eq(a, b) and alpha_eq(b, a)
        assert debruijn(a) == debruijn(b)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.data())
    def test_a_changed_free_name_is_not_equal(self, seed, depth, data):
        a = random_term(random.Random(seed), depth)
        assume(free_vars(a))
        x = data.draw(st.sampled_from(sorted(free_vars(a))))
        b = reference_subst(a, x, Var("w"))  # "w" is not in NAMES
        assert not alpha_eq(a, b) and not alpha_eq(b, a)
        assert debruijn(a) != debruijn(b)


def _node_classes():
    return [c for c in vars(syntax).values()
            if isinstance(c, type) and c.__module__ == syntax.__name__
            and is_node(c)]


def _instance(cls, other_literal=None):
    """One ``cls`` node: its binder named ``x``, every child the free
    variable ``y`` (a tope child ``y == 0``), a level 0 and a sort ``I``.
    The field named ``other_literal`` gets level 1 or sort ``1`` instead."""
    fields = {}
    for f in dataclasses.fields(cls):
        kind = f.type.strip("'\"")
        fields[f.name] = {
            "str": "x" if f.name == "binder" else "y",
            "int": 1 if f.name == other_literal else 0,
            "CubeSort": UnitCube() if f.name == other_literal else Interval(),
            "Term": Var("y"),
            "Tope": TopeEq(Var("y"), Cube0()),
        }[kind]
    return cls(**fields)


class TestNodeClasses:
    """Every walk over the syntax knows every node class: a class that
    one of them misses fails here rather than at run time."""

    def test_the_node_classes_are_the_terms_and_topes(self):
        assert set(_node_classes()) == (
            set(typing.get_args(syntax.Term)) | set(typing.get_args(syntax.Tope)))

    @pytest.mark.parametrize("cls", _node_classes(), ids=lambda c: c.__name__)
    def test_walks(self, cls):
        t = _instance(cls)
        assert alpha_eq(t, _instance(cls))
        assert debruijn(t) == debruijn(_instance(cls))
        for f in dataclasses.fields(cls):
            if f.type.strip("'\"") in ("int", "CubeSort"):
                assert not alpha_eq(t, _instance(cls, other_literal=f.name))
        fv = free_vars(_instance(cls))  # a fresh node: nothing cached yet
        if not fv:
            assert not any(is_node(getattr(t, f.name)) for f in dataclasses.fields(t))
            assert subst(t, "y", Var("z")) is t
            return
        assert fv == {"y"}
        for value in ("z", "x"):  # "x" would be captured by the binder
            out = subst(t, "y", Var(value))
            assert type(out) is cls
            assert free_vars(out) == {value}
            assert_cached_free_vars_are_walked(out)
            assert not alpha_eq(t, out)
            assert debruijn(out) == debruijn(reference_subst(t, "y", Var(value)))

    @pytest.mark.parametrize("cls", _node_classes(), ids=lambda c: c.__name__)
    def test_scope_is_the_oracle_scope(self, cls):
        # the walks read a binder's scope from the class; the oracle keeps
        # its own copy
        scope = getattr(cls, "scope", ())
        assert scope == _SCOPES.get(cls, ())
        names = [f.name for f in dataclasses.fields(cls)]
        nodes = [f.name for f in dataclasses.fields(cls)
                 if f.type.strip("'\"") in ("Term", "Tope")]
        assert ("binder" in names) == bool(scope)
        assert set(scope) <= set(nodes)
        if scope:  # the layout the walks rely on
            assert names[0] == "binder" and names[-len(scope):] == list(scope)

    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 4))
    def test_free_vars_are_the_free_leaves_of_the_de_bruijn_form(self, seed, depth):
        t = random_term(random.Random(seed), depth)
        assert free_vars(t) == _free_leaves(debruijn(t))


def _free_leaves(form) -> set[str]:
    """The names of the ``("free", name)`` leaves of a `debruijn` form."""
    if type(form) is not tuple:
        return set()  # a universe level, a cube sort or a bound index
    if form[0] == "free":
        return {form[1]}
    return set().union(*map(_free_leaves, form[1:]))


def _names_in(t) -> set[str]:
    """Every binder and variable name in a term, bound or free."""
    return {v for row in encode_term(t) for v in row[1:] if type(v) is str}


class TestStoredForm:
    """`encode_term` and `decode_term`: the flat JSON form of the terms in
    a cache's env entries."""

    @pytest.mark.parametrize("cls", _node_classes(), ids=lambda c: c.__name__)
    def test_every_node_class_round_trips(self, cls):
        for t in [_instance(cls)] + [
                _instance(cls, other_literal=f.name) for f in dataclasses.fields(cls)]:
            out = decode_term(encode_term(t), {})
            assert type(out) is cls
            assert debruijn(out) == debruijn(t)
            assert _names_in(out) == _names_in(t)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 5))
    def test_generated_names_become_fresh_ones(self, seed, depth):
        a = rename_binders(random_term(random.Random(seed), depth))
        stored = {n for n in _names_in(a) if "$" in n}
        renamed: dict[str, str] = {}
        b = decode_term(encode_term(a), renamed)
        assert alpha_eq(a, b) and debruijn(a) == debruijn(b)
        assert set(renamed) == stored
        assert len(set(renamed.values())) == len(renamed)  # one to one
        assert not (_names_in(b) & stored)
        assert fresh_name("x") not in _names_in(b)

    def test_a_deep_term_stays_one_row_deep(self):
        t = Var("A")
        for _ in range(30_000):
            t = App(Var("f"), t)
        rows = encode_term(t)
        assert not any(isinstance(v, list) for row in rows for v in row)
        assert encode_term(decode_term(rows, {})) == rows

    @pytest.mark.parametrize("rows", [
        [["NoSuchNode"]],
        [["Var"]],
        [["Var", 5]],
        [["Universe", "0"]],
        [["Var", "x"], ["App"]],
        [["Var", "x"], ["Var", "y"]],
        [],
        5,
        [5],
    ], ids=repr)
    def test_a_damaged_form_raises(self, rows):
        with pytest.raises(Exception):
            decode_term(rows, {})

    def test_entries_round_trip_with_one_map_each(self):
        x = fresh_name("x")
        shared = Lam(x, Var(x))
        entries = [
            EnvEntry("f", shared, shared, "definition", "m"),
            EnvEntry("g", shared, None, "postulate", "m"),
        ]
        env = build_env(dump_entries(entries), {"h": entries[0]})
        assert list(env) == ["h", "f", "g"]
        f, g = env["f"], env["g"]
        assert (f.kind, f.module, g.value) == ("definition", "m", None)
        # within an entry a name keeps one fresh name; entries do not share
        assert f.type.binder == f.value.binder != g.type.binder
        assert x not in {f.type.binder, g.type.binder}
        assert alpha_eq(f.type, shared) and alpha_eq(g.type, shared)


class TestCorpusReplay:
    """Every substitution and every α-equality test of a cold check of the
    corpus, against the references of ``kernel_oracle``."""

    @pytest.fixture(scope="class")
    def recorded(self):
        return subst_replay.record()

    def test_substitutions_agree_with_the_reference(self, recorded):
        substs, _ = recorded
        assert sum(len(call) == 3 for call, _ in substs) > 1000
        assert sum(len(call) == 2 for call, _ in substs) > 1000
        for call, out in substs:
            expected = (reference_subst(*call) if len(call) == 3
                        else reference_subst_many(*call))
            assert debruijn(out) == debruijn(expected)

    def test_alpha_eq_verdicts_agree_with_de_bruijn_forms(self, recorded):
        _, alphas = recorded
        verdicts = collections.Counter(v for _, v in alphas)
        assert verdicts[True] > 100 and verdicts[False] > 100
        for (a, b), verdict in alphas:
            assert verdict == (debruijn(a) == debruijn(b))


class TestWhnf:
    def test_beta(self):
        ck = make_checker()
        t = ck.whnf(Ctx(), parse_term(r"(\x . x) b"))
        assert alpha_eq(t, Var("b"))

    def test_projection(self):
        ck = make_checker()
        t = ck.whnf(Ctx(), Pair(Var("b"), Var("b'")))
        assert alpha_eq(ck.whnf(Ctx(), parse_term("fst (b , b')")), Var("b"))
        assert alpha_eq(ck.whnf(Ctx(), parse_term("snd (b , b')")), Var("b'"))

    def test_boundary_computation_on_neutral(self):
        # u : hom B b b' applied at an endpoint computes to the endpoint
        ck = make_checker()
        assert alpha_eq(ck.whnf(Ctx(), parse_term("u 0")), Var("b"))
        assert alpha_eq(ck.whnf(Ctx(), parse_term("u 1")), Var("b'"))

    def test_boundary_computation_under_constraint(self):
        ck = make_checker()
        ctx = Ctx().bind_cube("t", Interval()).constrain(
            TopeEq(Var("t"), Cube0()))
        assert alpha_eq(ck.whnf(ctx, App(Var("u"), Var("t"))), Var("b"))

    def test_stuck_without_constraint(self):
        ck = make_checker()
        ctx = Ctx().bind_cube("t", Interval())
        out = ck.whnf(ctx, App(Var("u"), Var("t")))
        assert isinstance(out, App)

    def test_unfold_definition(self):
        ck = make_checker(HEADER + "def bb : B := b;\n")
        assert alpha_eq(ck.whnf(Ctx(), Var("bb")), Var("b"))

    def test_j_on_refl(self):
        ck = make_checker()
        t = parse_term(r"idJ (\w q . B) b (refl b)")
        assert alpha_eq(ck.whnf(Ctx(), t), Var("b"))

    @pytest.mark.parametrize(
        "checker", [Checker, InnermostChecker], ids=["leftmost", "innermost"])
    def test_spines(self, checker):
        ck = make_checker(checker=checker)
        ctx = Ctx().bind_var("x", None).bind_var("y", None).bind_var("z", None)
        for src, expected in [
            # the arguments swap names: one substitution after the other,
            # without renaming, would give x x
            (r"(\x . \y . x y) y x", "y x"),
            # the inner binder shadows the outer one: x is the second argument
            (r"(\x . \x . x) b b'", "b'"),
            # over-applied: the result of the beta step takes b
            (r"(\x . x) (\y . y) b", "b"),
            # under-applied, and the argument z would be captured by the
            # remaining binder z
            (r"(\x . \y . \z . x y z) z y", r"\w . z y w"),
            # the head becomes a lambda only once fst computes
            (r"fst ((\x . \y . x) , b) b' b", "b'"),
        ]:
            out = ck.whnf(ctx, parse_term(src))
            assert alpha_eq(out, parse_term(expected)), src

    @pytest.mark.parametrize("src", [r"(\x . x) ((\y . y) b)", r"(\x . b) ((\y . y) b')"])
    def test_reference_reduces_arguments_first(self, src):
        # the confluence tests compare two orders only if they differ: the
        # reference normalizes the argument before the beta step, whnf
        # substitutes it unreduced and never normalizes it on its own.  The
        # second beta step drops its argument, so only a reference that
        # reduces arguments first normalizes it at all.
        t = parse_term(src)
        for checker, calls_on_arg in [(Checker, 0), (InnermostChecker, 1)]:
            calls = []

            class Counting(checker):
                def whnf(self, ctx, u):
                    calls.append(u)
                    return super().whnf(ctx, u)

            ck = make_checker(checker=Counting)
            assert alpha_eq(ck.whnf(Ctx(), t), Var("b")), checker
            assert sum(alpha_eq(u, t.arg) for u in calls) == calls_on_arg, checker

    def test_strategies_confluent_on_samples(self):
        left = make_checker()
        right = make_checker(checker=InnermostChecker)
        for src in [r"(\x . x) ((\y . y) b)", "u 0",
                    r"fst ((\x . x) (b , b'))",
                    r"idJ (\w q . B) ((\x . x) b) (refl b)"]:
            t = parse_term(src)
            a = left.whnf(Ctx(), t)
            bb = right.whnf(Ctx(), t)
            assert left.def_equal(Ctx(), None, a, bb), src


def _telescope(ctx):
    """A context's entries, outermost first."""
    entries = []
    while ctx.parent is not None:
        entries.append(ctx.entry)
        ctx = ctx.parent
    return tuple(reversed(entries))


def _reference_facts(entries):
    """The cube context, hypotheses and split of a telescope, computed from
    its entries alone."""
    cubes = tuple((e[1], e[2]) for e in entries if e[0] == "cube")
    hyps = None
    for e in entries:
        if e[0] == "tope":
            hyps = e[1] if hyps is None else TopeAnd(hyps, e[1])
    split = None
    for i, e in enumerate(entries):
        if e[0] == "tope" and _split_tope(e[1]) is not None:
            split = [entries[:i] + (("tope", part),) + entries[i + 1:]
                     for part in _split_tope(e[1])]
            break
    return cubes, TOP if hyps is None else hyps, split


def _same_entries(a, b):
    return len(a) == len(b) and all(
        e[:2] == f[:2] and (alpha_eq(e[1], f[1]) if e[0] == "tope" else e[2] is f[2])
        for e, f in zip(a, b))


class TestCtx:
    def test_lookup_returns_the_latest_binding(self):
        ctx = Ctx().bind_var("x", Var("A")).bind_cube("y", Interval())
        assert ctx.lookup("x")[2].name == "A"
        ctx2 = ctx.bind_cube("x", UnitCube())
        assert ctx2.lookup("x") == ("cube", "x", UnitCube())
        ctx3 = ctx2.bind_var("x", Var("B"))
        assert ctx3.lookup("x")[2].name == "B"
        # the parents keep their own bindings
        assert ctx.lookup("x")[2].name == "A"
        assert ctx2.lookup("x")[0] == "cube"
        assert ctx3.lookup("z") is None
        assert set(ctx3.names()) == {"x", "y"}

    def test_cached_facts_equal_a_recomputation(self):
        t, s = Var("t"), Var("s")
        steps = [
            lambda c: c.bind_cube("t", Interval()),
            lambda c: c.constrain(TopeLeq(t, Cube1())),
            lambda c: c.bind_var("b", Var("B")),
            lambda c: c.constrain(TopeOr(TopeEq(t, Cube0()), TopeEq(t, Cube1()))),
            lambda c: c.bind_cube("s", Interval()),
            lambda c: c.constrain(TopeAnd(TopeLeq(s, t), TopeOr(TopeEq(s, Cube0()),
                                                                TopeLeq(t, s)))),
            lambda c: c.bind_var("t", None),
        ]
        ctx = Ctx()
        for step in steps:
            parent, ctx = ctx, step(ctx)
            cubes, hyps, split = _reference_facts(_telescope(ctx))
            # asked twice: computed once, then read back
            for _ in range(2):
                assert ctx.cube_context() == cubes
                assert alpha_eq(ctx.hyps(), hyps)
                got = ctx.split()
                assert (got is None) == (split is None)
                if split is not None:
                    assert all(_same_entries(_telescope(c), e) for c, e in zip(got, split))
                    for c in got:
                        assert c.cube_context() == cubes
                        assert alpha_eq(c.hyps(), _reference_facts(_telescope(c))[1])
            if ctx.entry[0] != "cube":
                # the solver recognises a cube context by identity
                assert ctx.cube_context() is parent.cube_context()


    def test_lookups_follow_each_telescope_in_any_order(self):
        """Contexts of one family share a rerooted index: asked in a random
        order, each still sees exactly its own telescope."""
        rng = random.Random(5)
        ctxs = [Ctx()]
        for i in range(3000):
            parent, name, kind = rng.choice(ctxs), rng.choice("xyzw"), rng.random()
            if kind < 0.6:
                ctxs.append(parent.bind_var(name, Var(f"T{i}")))
            elif kind < 0.8:
                ctxs.append(parent.bind_cube(name, Interval()))
            else:
                ctxs.append(parent.constrain(TopeEq(Var(name), Cube0())))
            probe = rng.choice(ctxs)
            expected = {e[1]: e for e in _telescope(probe) if e[0] != "tope"}
            assert all(probe.lookup(n) is expected.get(n) for n in "xyzwv")
            assert set(probe.names()) == set(expected)

    def test_checking_is_linear_in_binder_depth(self):
        """A context extends its parent's name index rather than rebuilding
        it: n chained arrows check in time about linear in n (a quadratic
        cost would make the ratio 16).  Timed in a fresh interpreter, whose
        garbage collector does not walk the objects of earlier tests, and
        each run starts from a full collection."""
        script = (
            "import gc, time\n"
            "from stt.kernel import check_module\n"
            "from stt.parser import parse_module\n"
            "def seconds(n):\n"
            "    mod, _ = parse_module(\n"
            "        'def x : U1 := ' + ' -> '.join(['U'] * n) + ';', 'deep.stt')\n"
            "    best = float('inf')\n"
            "    for _ in range(7):\n"
            "        gc.collect()\n"
            "        start = time.perf_counter()\n"
            "        report, _ = check_module(mod, {})\n"
            "        best = min(best, time.perf_counter() - start)\n"
            "    assert report.status == 'ok'\n"
            "    return best\n"
            "print(seconds(10_000) / seconds(2_500))\n")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.path.join(REPO, "src")))
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 6


class TestDefEqual:
    def test_reflexive(self):
        ck = make_checker()
        t = parse_term(r"\x . u x")
        assert ck.def_equal(Ctx(), None, t, t)

    def test_distinct_normal_forms(self):
        ck = make_checker()
        # \t.b versus \t.b' at Delta1 -> B
        ty = parse_term("Delta1 -> B")
        assert not ck.def_equal(Ctx(), ty, parse_term(r"\t . b"), parse_term(r"\t . b'"))

    def test_eta_pi_and_sigma(self):
        ck = make_checker()
        assert ck.def_equal(Ctx(), parse_term("B -> B"),
                            parse_term(r"\x . u 0"), parse_term(r"\y . b"))

    def test_inconsistent_collapse(self):
        ck = make_checker()
        ctx = Ctx().constrain(TopeEq(Cube0(), Cube1()))
        assert ck.def_equal(ctx, Var("B"), Var("b"), Var("b'"))

    def test_disjunction_splitting(self):
        ck = make_checker()
        ctx = Ctx().bind_cube("t", Interval()).constrain(
            TopeOr(TopeEq(Var("t"), Cube0()), TopeEq(Var("t"), Cube1())))
        glued = parse_term("recOR (t == 0 |-> b , t == 1 |-> b')")
        assert ck.def_equal(ctx, Var("B"), App(Var("u"), Var("t")), glued)

    def test_cube_arguments_compared_by_solver(self):
        ck = make_checker()
        ctx = Ctx().bind_cube("t", Interval())
        lhs = App(Var("u"), parse_term(r"t /\ 1"))
        rhs = App(Var("u"), Var("t"))
        assert ck.def_equal(ctx, Var("B"), lhs, rhs)

    def test_equivalence_relation_on_well_typed_terms(self):
        ck = make_checker(HEADER + r"""
def idf (A : U) : A -> A := \x . x;
def f1 : B -> B := \x . x;
def f2 : B -> B := \x . idf B x;
def f3 : B -> B := \x . u 0;
def f4 : B -> B := \x . b;
def f5 : B -> B := f1;
""")
        ty = parse_term("B -> B")
        terms = [parse_term(n) for n in ["f1", "f2", "f3", "f4", "f5"]]
        rel = [[ck.def_equal(Ctx(), ty, a, b) for b in terms] for a in terms]
        n = len(terms)
        for i in range(n):
            assert rel[i][i]  # reflexive
            for j in range(n):
                assert rel[i][j] == rel[j][i]  # symmetric
                for k in range(n):
                    if rel[i][j] and rel[j][k]:
                        assert rel[i][k]  # transitive
        assert rel[0][1] and rel[0][4] and rel[2][3] and not rel[0][2]


class TestCheckBoundary:
    def test_identity_arrow(self):
        ck = make_checker()
        dom = Var("Delta1")
        phi = TopeOr(TopeEq(Var("t"), Cube0()), TopeEq(Var("t"), Cube1()))
        body = parse_term(r"\t . b")
        partial = parse_term(r"\t . recOR (t == 0 |-> b , t == 1 |-> b)")
        # the shape binder in Delta1 is named t as well; open under fresh names
        assert check_boundary(ck, Ctx(), dom, phi, body, partial)

    def test_mismatched_endpoint(self):
        ck = make_checker()
        phi = TopeOr(TopeEq(Var("t"), Cube0()), TopeEq(Var("t"), Cube1()))
        body = parse_term(r"\t . b")
        partial = parse_term(r"\t . recOR (t == 0 |-> b , t == 1 |-> b')")
        assert not check_boundary(ck, Ctx(), Var("Delta1"), phi, body, partial)

    def test_vacuous_boundary(self):
        ck = make_checker()
        from stt.syntax import BOT
        assert check_boundary(
            ck, Ctx(), Var("Delta1"), BOT,
            parse_term(r"\t . b"), parse_term(r"\t . b'"))


class TestCheckInfer:
    def test_unannotated_lambda_not_inferable(self):
        ck = make_checker()
        with pytest.raises(KernelError) as e:
            ck.infer(Ctx(), parse_term(r"\x . x"))
        assert e.value.code == "INFER"

    def test_ext_app_infers_family(self):
        ck = make_checker()
        ty = ck.whnf(Ctx(), ck.infer(Ctx(), parse_term("u 0")))
        assert alpha_eq(ty, Var("B"))

    def test_shape_type_is_small(self):
        ck = make_checker()
        from stt.syntax import Universe
        ty = ck.infer(Ctx(), parse_term("{(t,s) : I * I | s <= t}"))
        assert isinstance(ty, Universe) and ty.level == 0

    def test_check_identity_arrow(self):
        check_src(HEADER + "def idar : hom B b b := \\t . b;\n")

    def test_check_wrong_boundary_fails(self):
        report, _ = check_src(
            HEADER + "def bad : hom B b b' := \\t . b;\n", expect_ok=False)
        assert report.status == "failed"
        assert report.diagnostics[0].code == "CHECK"

    def test_refl_intro(self):
        check_src(HEADER + "def r : Id B b b := refl b;\n")

    def test_cube_argument_outside_shape(self):
        report, _ = check_src(
            HEADER
            + "def f (g : (t : {s : I | s == 0}) -> B) (t : I) : B := g t;\n",
            expect_ok=False)
        assert report.diagnostics[0].code == "CHECK"

    def test_an_ill_sorted_connection_is_one_error_in_terms_and_topes(self):
        # a connection whose left side is no interval term is reported as
        # such, in a cube term and in a tope alike, before its right side
        report, _ = check_src(
            "def x : {s : I | TOP} := unitpt /\\ fst 0;\n"
            "def y : U := {t : I | (unitpt /\\ fst 0) <= t};\n"
            "def z : U := {t : I | (fst 0 /\\ unitpt) <= t};\n",
            expect_ok=False)
        assert [(d.code, d.message) for d in report.diagnostics] == [
            ("SORT", "in 'x': connections apply to interval terms only"),
            ("SORT", "in 'y': connections apply to interval terms only"),
            ("SORT", "in 'z': fst applied to a non-product cube term"),
        ]


class TestDeclarations:
    def test_postulate_extends_env(self):
        _, env = check_src("postulate X : U;\npostulate x0 : X;\n")
        assert env["X"].value is None and env["x0"].kind == "postulate"

    def test_failed_declaration_leaves_env(self):
        report, env = check_src(
            "postulate X : U;\ndef bad : X := X;\ndef ok (x : X) : X := x;\n",
            expect_ok=False)
        assert "bad" not in env and "ok" in env
        assert report.declarations_checked == 2

    def test_recursive_definition_rejected(self):
        report, _ = check_src("def loop : U := loop;\n", expect_ok=False)
        assert report.diagnostics[0].code == "CHECK"
        assert "recursive" in report.diagnostics[0].message

    def test_empty_module(self):
        report, env = check_src("")
        assert report.status == "ok" and report.declarations_checked == 0

    def test_tier_rule(self):
        for tier in ("T1", "P"):
            mod, _ = parse_module(
                f"--@tier {tier}\npostulate sneaky : U;\n", "t.stt")
            report, _ = check_module(mod, {}, Solver())
            assert report.status == "failed", tier
            assert [d.code for d in report.diagnostics] == ["TIER"], tier

    def test_import_collision(self):
        _, env = check_src("def a : U := {t : I | TOP};\n")
        mod, _ = parse_module("def a : U := {t : I | TOP};\n", "m2.stt")
        report, _ = check_module(mod, env, Solver())
        assert report.diagnostics[0].code == "IMPORT"


def test_corpus_prelude_confluence_both_strategies():
    """Normalizing corpus definition bodies in either redex order yields
    definitionally equal results."""
    src = open(os.path.join(CORPUS, "prelude.stt")).read()
    mod, diags = parse_module(src, "prelude.stt")
    assert not diags
    solver = Solver()
    report, env = check_module(mod, {}, solver)
    assert report.status == "ok"
    left = Checker(env, solver=solver)
    right = InnermostChecker(env, solver=solver)
    for decl in mod.declarations:
        if decl.body is None or decl.telescope:
            continue
        a = left.whnf(Ctx(), decl.body)
        b = right.whnf(Ctx(), decl.body)
        assert left.def_equal(Ctx(), None, a, b), decl.name
