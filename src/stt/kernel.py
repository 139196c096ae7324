"""Bidirectional type checker for the dependent layer.

Judgmental equality is reflexivity (α-equal sides are equal at once,
without unfolding either) plus untyped weak-head normalization and
type-directed eta (for Pi, Sigma and extension types), with three
tope-sensitive rules:

  * boundary computation: applying a neutral of extension type reduces to
    the partial section whenever the context topes entail the subtope at
    the argument,
  * disjunction splitting: equality under a disjunctive tope constraint is
    checked in both strengthened contexts,
  * collapse: under an inconsistent tope context any two terms of the same
    type are equal.

Weak-head normalization reduces an application spine at once: a head
that normalizes to n nested lambdas takes its n arguments in one walk of
`subst_many`; every other substitution is `subst`, the same walk.

Checking is pure per module; a shared solver memo table is the only cross
module state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, TypeVar

from . import topes
from .diagnostics import CheckReport, Diagnostic
from .printer import print_sort, print_term, print_tope
from .syntax import (
    BOT, INTERVAL, TOP, UNIT_CUBE, App, Cube0, Cube1, CubeSort, CubeStar,
    Declaration, Extension, Fst, IdType, JElim, Join, Lam, Meet, Pair, Pi,
    RecBot, RecOr, Refl, ShapeTy, Sigma, Snd, SourceModule, Term, Tope,
    TopeAnd, TopeBinder, TopeBot, TopeEq, TopeLeq, TopeOr, TypedBinder,
    Universe, Var, allow_deep_recursion, alpha_eq, decode_term, encode_term,
    free_vars, fresh_name, subst, subst_many,
)

T = TypeVar("T")


class KernelError(Exception):
    def __init__(self, code: str, message: str, span: Optional[tuple[int, int]] = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.span = span


class CannotSynth(Exception):
    """A neutral term's type cannot be reconstructed (non-fatal)."""


# ---------------------------------------------------------------------------
# contexts


class _Names:
    """One version of a family of name indexes, after Baker's rerooting
    (Conchon and Filliâtre, "A persistent union-find data structure", ML
    Workshop 2007).  The versions of a family share one dict, which holds
    the bindings of the version that used it last; every other version
    holds the one change that leads from it to a neighbour.  Making a
    version current reverses the changes on the path to it, so a context
    that extends the one used last, as checking a chain of binders does,
    binds and looks up in constant time."""

    __slots__ = ("data",)

    def __init__(self, data: dict):
        self.data = data  # the dict, or (name, entry or None, neighbour)

    def index(self) -> dict:
        """The shared dict, made to hold this version's bindings."""
        path = []
        v = self
        while type(v.data) is not dict:
            path.append(v)
            v = v.data[2]
        index = v.data
        for u in reversed(path):
            name, entry, neighbour = u.data
            neighbour.data = (name, index.get(name), u)
            if entry is None:
                del index[name]
            else:
                index[name] = entry
            u.data = index
        return index

    def bind(self, name: str, entry: tuple) -> "_Names":
        index = self.index()
        child = _Names(index)
        self.data = (name, index.get(name), child)
        index[name] = entry
        return child


class Ctx:
    """Interleaved telescope of cube variables, tope constraints and typed
    variables: the empty context, or a parent context and one more entry.

    A context is immutable.  It makes its name index, cube context and
    hypothesis conjunction from its parent's when it is made, so that a
    chain of binders costs time linear in its length: the name index is a
    version of its parent's (`_Names`), and only a cube binder copies its
    parent's cube context; any other context shares it, since the solver
    recognises a cube context it has seen by identity.  Its first
    disjunctive split is made from its parent's, once, on first use."""

    __slots__ = ("parent", "entry", "_names", "_cubes", "_conj", "_split")

    def __init__(self) -> None:
        self.parent: Optional[Ctx] = None
        self.entry: Optional[tuple] = None
        self._names = _Names({})
        self._cubes: tuple[tuple[str, CubeSort], ...] = ()
        self._conj: Optional[Tope] = None
        self._split: Optional[tuple[Ctx, Ctx]] = None

    def bind_var(self, name: str, ty: Optional[Term]) -> "Ctx":
        return self._extend(("var", name, ty))

    def bind_cube(self, name: str, sort: CubeSort) -> "Ctx":
        return self._extend(("cube", name, sort))

    def constrain(self, tope: Tope) -> "Ctx":
        return self._extend(("tope", tope))

    def _extend(self, entry: tuple, like: Optional["Ctx"] = None) -> "Ctx":
        """This context and ``entry``; given ``like``, a context with the
        same names and cubes, they are ``like``'s."""
        ctx = object.__new__(Ctx)
        ctx.parent = self
        ctx.entry = entry
        kind = entry[0]
        if like is not None:
            ctx._names, ctx._cubes = like._names, like._cubes
        else:
            ctx._names = (
                self._names if kind == "tope" else self._names.bind(entry[1], entry))
            ctx._cubes = (
                self._cubes + ((entry[1], entry[2]),) if kind == "cube" else self._cubes)
        if kind == "tope":
            conj = self._conj
            ctx._conj = entry[1] if conj is None else TopeAnd(conj, entry[1])
        else:
            ctx._conj = self._conj
        return ctx

    def lookup(self, name: str):
        names = self._names
        index = names.data
        if type(index) is not dict:
            index = names.index()
        return index.get(name)

    def names(self):
        """The bound names, as a set-like view that holds until another
        context is asked."""
        return self._names.index().keys()

    def cube_context(self) -> tuple[tuple[str, CubeSort], ...]:
        return self._cubes

    def hyps(self) -> Tope:
        return self._conj if self._conj is not None else TOP

    def split(self) -> Optional[tuple["Ctx", "Ctx"]]:
        """Split the first disjunctive tope constraint, if any.  Below that
        constraint, each half extends the half of the parent's split."""
        pending = []
        ctx = self
        while not hasattr(ctx, "_split"):
            pending.append(ctx)
            ctx = ctx.parent
        for ctx in reversed(pending):
            parent, entry = ctx.parent, ctx.entry
            found = None
            if parent._split is not None:
                found = tuple(half._extend(entry, ctx) for half in parent._split)
            elif entry[0] == "tope":
                parts = _split_tope(entry[1])
                if parts is not None:
                    found = tuple(
                        parent._extend(("tope", part), ctx) for part in parts)
            ctx._split = found
        return self._split


def _split_tope(t: Tope) -> Optional[tuple[Tope, Tope]]:
    match t:
        case TopeOr(l, r):
            return l, r
        case TopeAnd(l, r):
            sub = _split_tope(l)
            if sub is not None:
                return TopeAnd(sub[0], r), TopeAnd(sub[1], r)
            sub = _split_tope(r)
            if sub is not None:
                return TopeAnd(l, sub[0]), TopeAnd(l, sub[1])
    return None


@dataclass(eq=False)
class EnvEntry:
    name: str
    type: Term
    value: Optional[Term]
    kind: str  # "definition" | "postulate"
    module: str


# ---------------------------------------------------------------------------
# the checker


class Checker:
    def __init__(
        self,
        env: dict[str, EnvEntry],
        solver: Optional[topes.Solver] = None,
        module: Optional[SourceModule] = None,
    ):
        self.env = env
        self.solver = solver if solver is not None else topes.Solver()
        self.module = module
        self.queries = 0
        self._span_stack: list[tuple[int, int]] = []
        self._bounds = (0, 0)  # the span of the declaration being checked
        allow_deep_recursion()

    # -- spans ----------------------------------------------------------------

    def _push_span(self, node) -> bool:
        """Push the span of a node of the declaration being checked.  A node
        of an earlier declaration, reached by unfolding it, has none, so a
        declaration's diagnostics point into its own text only."""
        if self.module is not None:
            sp = self.module.span_of(node)
            if sp is not None and self._bounds[0] <= sp[0] and sp[1] <= self._bounds[1]:
                self._span_stack.append(sp)
                return True
        return False

    def current_span(self) -> Optional[tuple[int, int]]:
        return self._span_stack[-1] if self._span_stack else None

    def fail(self, code: str, message: str) -> KernelError:
        raise KernelError(code, message, self.current_span())

    # -- solver bridge ---------------------------------------------------------

    def solve(self, query: Callable[[], T]) -> T:
        """The answer to a solver query; a query the solver refuses is a
        KernelError of the refusal's code at the current span."""
        try:
            return query()
        except topes.TopeError as e:
            raise KernelError(e.code, str(e), self.current_span())

    def entails(self, ctx: Ctx, hyps: Tope, goal: Tope) -> bool:
        self.queries += 1
        return self.solve(lambda: self.solver.entails(ctx.cube_context(), hyps, goal))

    def inconsistent(self, ctx: Ctx) -> bool:
        return self.entails(ctx, ctx.hyps(), BOT)

    def cube_equal(self, ctx: Ctx, a: Term, b: Term) -> bool:
        return self.entails(ctx, ctx.hyps(), TopeEq(a, b))

    def check_sorted(self, ctx: Ctx, tope: Tope) -> None:
        self.solve(lambda: self.solver.flattener(ctx.cube_context()).formula(tope))

    def expect_sort(self, ctx: Ctx, t: Term, sort: CubeSort, what: str) -> None:
        """A SORT error naming ``what`` unless the cube term t has ``sort``."""
        got = self.solve(lambda: self.solver.flattener(ctx.cube_context()).sort_of(t))
        if got != sort:
            raise self.fail(
                "SORT", f"{what} has sort {print_sort(got)}, expected {print_sort(sort)}")

    # -- cube reading -----------------------------------------------------------

    def read_cube(self, ctx: Ctx, t: Term) -> Term:
        """Normalize a term into pure cube syntax; SORT error otherwise."""
        t = self.whnf(ctx, t)
        match t:
            case Var(n):
                e = ctx.lookup(n)
                if e is None or e[0] != "cube":
                    raise KernelError(
                        "SORT", f"{n} is not a cube variable", self.current_span())
                return t
            case Cube0() | Cube1() | CubeStar():
                return t
            case Meet(a, b):
                return Meet(self.read_cube(ctx, a), self.read_cube(ctx, b))
            case Join(a, b):
                return Join(self.read_cube(ctx, a), self.read_cube(ctx, b))
            case Pair(a, b):
                return Pair(self.read_cube(ctx, a), self.read_cube(ctx, b))
            case Fst(p):
                return Fst(self.read_cube(ctx, p))
            case Snd(p):
                return Snd(self.read_cube(ctx, p))
        raise KernelError(
            "SORT", f"expected a cube term, found {print_term(t)}", self.current_span())

    def read_tope(self, ctx: Ctx, tope: Tope) -> Tope:
        """Normalize the cube terms inside a tope (unfolding definitions)."""
        match tope:
            case TopeAnd(l, r):
                return TopeAnd(self.read_tope(ctx, l), self.read_tope(ctx, r))
            case TopeOr(l, r):
                return TopeOr(self.read_tope(ctx, l), self.read_tope(ctx, r))
            case TopeEq(l, r):
                return TopeEq(self.read_cube(ctx, l), self.read_cube(ctx, r))
            case TopeLeq(l, r):
                return TopeLeq(self.read_cube(ctx, l), self.read_cube(ctx, r))
        return tope

    # -- shapes ------------------------------------------------------------------

    def resolve_shape(self, ctx: Ctx, dom: Term) -> ShapeTy:
        d = self.whnf(ctx, dom)
        if isinstance(d, ShapeTy):
            return d
        raise KernelError(
            "CHECK", f"expected a shape, found {print_term(d)}", self.current_span())

    def open_binder(self, ctx: Ctx, name: str, pieces: list) -> tuple[str, list]:
        """Freshen a binder whose name is already bound, keeping contexts
        duplicate-free for the solver."""
        if name in ctx.names() or name in self.env:
            name2 = fresh_name(name)
            return name2, [subst(p, name, Var(name2)) for p in pieces]
        return name, pieces

    # -- weak-head normalization ---------------------------------------------------

    def whnf(self, ctx: Ctx, t: Term) -> Term:
        # dispatches on the exact class rather than a chain of class
        # patterns: whnf is called some 400k times on a corpus check
        while True:
            cls = type(t)
            if cls is App:
                args = []
                while type(t) is App:
                    args.append(t.arg)
                    t = t.fn
                args.reverse()
                head = self.whnf(ctx, t)
                if type(head) is Lam:
                    # beta: one Lam per argument, one substitution for all
                    sigma = {}
                    used = 0
                    while type(head) is Lam and used < len(args):
                        sigma[head.binder] = args[used]
                        head = head.body
                        used += 1
                    t = subst_many(head, sigma)
                else:
                    # a neutral head takes its arguments one at a time,
                    # each through boundary computation
                    for used, a in enumerate(args, 1):
                        t = self._boundary_reduce(ctx, head, a)
                        if t is not None:
                            break
                        head = App(head, a)
                    else:
                        return head
                for a in args[used:]:
                    t = App(t, a)
                continue
            if cls is Var:
                n = t.name
                if ctx.lookup(n) is not None:
                    return t
                entry = self.env.get(n)
                if entry is not None and entry.value is not None:
                    t = entry.value
                    continue
                return t
            if cls is Fst or cls is Snd:
                pw = self.whnf(ctx, t.pair)
                if type(pw) is Pair:
                    t = pw.fst if cls is Fst else pw.snd
                    continue
                return cls(pw)
            if cls is JElim:
                pw = self.whnf(ctx, t.path)
                if type(pw) is Refl:
                    t = t.base
                    continue
                return JElim(t.motive, t.base, pw)
            if cls is RecOr:
                hyps = ctx.hyps()
                if self.entails(ctx, hyps, self.read_tope(ctx, t.left_tope)):
                    t = t.left
                    continue
                if self.entails(ctx, hyps, self.read_tope(ctx, t.right_tope)):
                    t = t.right
                    continue
                return t
            if cls is Pi:
                dw = self.whnf(ctx, t.domain)
                if type(dw) is ShapeTy:
                    return Extension(t.binder, dw, BOT, t.codomain, RecBot())
                return t
            return t

    def _boundary_reduce(self, ctx: Ctx, neutral: Term, arg: Term) -> Optional[Term]:
        """ext_app on a neutral head: reduce to the partial section when the
        context topes entail the subtope at the argument."""
        try:
            ty = self.whnf(ctx, self.neutral_type(ctx, neutral))
        except CannotSynth:
            return None
        if not isinstance(ty, Extension):
            return None
        if isinstance(ty.subtope, TopeBot):
            return None
        try:
            ca = self.read_cube(ctx, arg)
            phi = self.read_tope(ctx, subst(ty.subtope, ty.binder, ca))
            if self.entails(ctx, ctx.hyps(), phi):
                return subst(ty.partial, ty.binder, arg)
        except KernelError:
            return None
        return None

    def neutral_type(self, ctx: Ctx, t: Term) -> Term:
        match t:
            case Var(n):
                e = ctx.lookup(n)
                if e is not None:
                    if e[0] == "cube":
                        x = fresh_name("t")
                        return ShapeTy(x, e[2], TOP)
                    if e[2] is not None:
                        return e[2]
                    raise CannotSynth
                entry = self.env.get(n)
                if entry is not None:
                    return entry.type
                raise CannotSynth
            case App(f, a):
                fty = self.whnf(ctx, self.neutral_type(ctx, f))
                match fty:
                    case Pi(x, _, cod):
                        return subst(cod, x, a)
                    case Extension(x, _, _, fam, _):
                        return subst(fam, x, a)
                raise CannotSynth
            case Fst(p):
                pty = self.whnf(ctx, self.neutral_type(ctx, p))
                if isinstance(pty, Sigma):
                    return pty.fst_type
                raise CannotSynth
            case Snd(p):
                pty = self.whnf(ctx, self.neutral_type(ctx, p))
                if isinstance(pty, Sigma):
                    return subst(pty.snd_type, pty.binder, Fst(p))
                raise CannotSynth
            case JElim(c, _, p):
                pty = self.whnf(ctx, self.neutral_type(ctx, p))
                if isinstance(pty, IdType):
                    return App(App(c, pty.rhs), p)
                raise CannotSynth
        raise CannotSynth

    # -- definitional equality ------------------------------------------------------

    def def_equal(self, ctx: Ctx, ty: Optional[Term], a: Term, b: Term) -> bool:
        sp = ctx.split()
        if sp is not None:
            return self.def_equal(sp[0], ty, a, b) and self.def_equal(sp[1], ty, a, b)
        if self.inconsistent(ctx):
            return True
        if a is b or alpha_eq(a, b):
            return True
        if ty is not None:
            tyw = self.whnf(ctx, ty)
            match tyw:
                case Pi(x, dom, cod):
                    x2, [cod2] = self.open_binder(ctx, x, [cod])
                    ctx2 = ctx.bind_var(x2, dom)
                    return self.def_equal(ctx2, cod2, App(a, Var(x2)), App(b, Var(x2)))
                case Extension(x, dom, _, fam, _):
                    sh = self.resolve_shape(ctx, dom)
                    x2, [fam2] = self.open_binder(ctx, x, [fam])
                    ctx2 = ctx.bind_cube(x2, sh.sort).constrain(
                        subst(sh.tope, sh.binder, Var(x2)))
                    return self.def_equal(ctx2, fam2, App(a, Var(x2)), App(b, Var(x2)))
                case Sigma(x, dom, cod):
                    if not self.def_equal(ctx, dom, Fst(a), Fst(b)):
                        return False
                    return self.def_equal(ctx, subst(cod, x, Fst(a)), Snd(a), Snd(b))
                case ShapeTy(x, _, _):
                    try:
                        return self.cube_equal(ctx, self.read_cube(ctx, a),
                                               self.read_cube(ctx, b))
                    except KernelError:
                        return False
        aw = self.whnf(ctx, a)
        bw = self.whnf(ctx, b)
        # stuck disjunction glue: split along the eliminator's topes
        for side, other in ((aw, bw), (bw, aw)):
            if isinstance(side, RecOr):
                lt = self.read_tope(ctx, side.left_tope)
                rt = self.read_tope(ctx, side.right_tope)
                return (
                    self.def_equal(ctx.constrain(lt), ty, side, other)
                    and self.def_equal(ctx.constrain(rt), ty, side, other)
                )
        return self._struct_equal(ctx, aw, bw)

    def _struct_equal(self, ctx: Ctx, a: Term, b: Term) -> bool:
        # cube-layer terms compare through the solver
        if _cube_former(a) or _cube_former(b):
            try:
                return self.cube_equal(ctx, self.read_cube(ctx, a),
                                       self.read_cube(ctx, b))
            except KernelError:
                return False
        match a, b:
            case Universe(l1), Universe(l2):
                return l1 == l2
            case Pi(x, d1, c1), Pi(y, d2, c2):
                if not self.def_equal(ctx, None, d1, d2):
                    return False
                x2, [c1b] = self.open_binder(ctx, x, [c1])
                c2b = subst(c2, y, Var(x2))
                return self.def_equal(ctx.bind_var(x2, d1), None, c1b, c2b)
            case Sigma(x, d1, c1), Sigma(y, d2, c2):
                if not self.def_equal(ctx, None, d1, d2):
                    return False
                x2, [c1b] = self.open_binder(ctx, x, [c1])
                c2b = subst(c2, y, Var(x2))
                return self.def_equal(ctx.bind_var(x2, d1), None, c1b, c2b)
            case Lam(x, b1), Lam(y, b2):
                x2, [b1b] = self.open_binder(ctx, x, [b1])
                b2b = subst(b2, y, Var(x2))
                return self.def_equal(ctx.bind_var(x2, None), None, b1b, b2b)
            case (Lam(x, b1), _) if _neutralish(b):
                x2, [b1b] = self.open_binder(ctx, x, [b1])
                return self.def_equal(ctx.bind_var(x2, None), None, b1b, App(b, Var(x2)))
            case (_, Lam(y, b2)) if _neutralish(a):
                y2, [b2b] = self.open_binder(ctx, y, [b2])
                return self.def_equal(ctx.bind_var(y2, None), None, App(a, Var(y2)), b2b)
            case Pair(f1, s1), Pair(f2, s2):
                return (self.def_equal(ctx, None, f1, f2)
                        and self.def_equal(ctx, None, s1, s2))
            case (Pair(f1, s1), _) if _neutralish(b):
                return (self.def_equal(ctx, None, f1, Fst(b))
                        and self.def_equal(ctx, None, s1, Snd(b)))
            case (_, Pair(f2, s2)) if _neutralish(a):
                return (self.def_equal(ctx, None, Fst(a), f2)
                        and self.def_equal(ctx, None, Snd(a), s2))
            case IdType(m1, l1, r1), IdType(m2, l2, r2):
                return (self.def_equal(ctx, None, m1, m2)
                        and self.def_equal(ctx, m1, l1, l2)
                        and self.def_equal(ctx, m1, r1, r2))
            case Refl(a1), Refl(a2):
                return self.def_equal(ctx, None, a1, a2)
            case ShapeTy(x, s1, t1), ShapeTy(y, s2, t2):
                if s1 != s2:
                    return False
                x2, [t1b] = self.open_binder(ctx, x, [t1])
                t2b = subst(t2, y, Var(x2))
                ctx2 = ctx.bind_cube(x2, s1)
                return self._tope_iff(ctx2, t1b, t2b)
            case Extension(x, d1, p1, f1, a1), Extension(y, d2, p2, f2, a2):
                sh1 = self.resolve_shape(ctx, d1)
                sh2 = self.resolve_shape(ctx, d2)
                if sh1.sort != sh2.sort:
                    return False
                x2, [p1b, f1b, a1b] = self.open_binder(ctx, x, [p1, f1, a1])
                p2b, f2b, a2b = (subst(p, y, Var(x2)) for p in (p2, f2, a2))
                st1 = subst(sh1.tope, sh1.binder, Var(x2))
                st2 = subst(sh2.tope, sh2.binder, Var(x2))
                ctx_cube = ctx.bind_cube(x2, sh1.sort)
                if not self._tope_iff(ctx_cube, st1, st2):
                    return False
                ctx_sh = ctx_cube.constrain(st1)
                if not self._tope_iff(ctx_sh, p1b, p2b):
                    return False
                if not self.def_equal(ctx_sh, None, f1b, f2b):
                    return False
                ctx_part = ctx_sh.constrain(self.read_tope(ctx_sh, p1b))
                return self.def_equal(ctx_part, f1b, a1b, a2b)
            case RecBot(), RecBot():
                return True
            case _:
                res = self._eq_neutral(ctx, a, b)
                return res is not False

    def _tope_iff(self, ctx: Ctx, t1: Tope, t2: Tope) -> bool:
        r1 = self.read_tope(ctx, t1)
        r2 = self.read_tope(ctx, t2)
        hyps = ctx.hyps()
        return (self.entails(ctx, TopeAnd(hyps, r1), r2)
                and self.entails(ctx, TopeAnd(hyps, r2), r1))

    def _eq_neutral(self, ctx: Ctx, a: Term, b: Term):
        """Spine comparison; returns False or (True-ish) the synthesized type
        of both sides (None when unknown)."""
        match a, b:
            case Var(n1), Var(n2):
                if n1 != n2:
                    return False
                try:
                    return self.neutral_type(ctx, a)
                except CannotSynth:
                    return None
            case App(f1, a1), App(f2, a2):
                head = self._eq_neutral(ctx, f1, f2)
                if head is False:
                    return False
                fty = self.whnf(ctx, head) if head is not None else None
                match fty:
                    case Pi(x, dom, cod):
                        if not self.def_equal(ctx, dom, a1, a2):
                            return False
                        return subst(cod, x, a1)
                    case Extension(x, _, _, fam, _):
                        try:
                            if not self.cube_equal(
                                ctx, self.read_cube(ctx, a1), self.read_cube(ctx, a2)
                            ):
                                return False
                        except KernelError:
                            # binders opened without a type (untyped eta)
                            # cannot be read as cube terms; fall back
                            if not self.def_equal(ctx, None, a1, a2):
                                return False
                        return subst(fam, x, a1)
                    case _:
                        if not self.def_equal(ctx, None, a1, a2):
                            return False
                        return None
            case Fst(p1), Fst(p2):
                head = self._eq_neutral(ctx, p1, p2)
                if head is False:
                    return False
                hty = self.whnf(ctx, head) if head is not None else None
                if isinstance(hty, Sigma):
                    return hty.fst_type
                return None
            case Snd(p1), Snd(p2):
                head = self._eq_neutral(ctx, p1, p2)
                if head is False:
                    return False
                hty = self.whnf(ctx, head) if head is not None else None
                if isinstance(hty, Sigma):
                    return subst(hty.snd_type, hty.binder, Fst(p1))
                return None
            case JElim(c1, d1, p1), JElim(c2, d2, p2):
                if not (self.def_equal(ctx, None, c1, c2)
                        and self.def_equal(ctx, None, d1, d2)
                        and self.def_equal(ctx, None, p1, p2)):
                    return False
                try:
                    return self.neutral_type(ctx, a)
                except CannotSynth:
                    return None
            case _:
                return False

    # -- checking and inference ---------------------------------------------------------

    def infer_universe(self, ctx: Ctx, t: Term) -> int:
        ty = self.whnf(ctx, self.infer(ctx, t))
        if isinstance(ty, Universe):
            return ty.level
        raise self.fail("CHECK", f"expected a type, found a term of type {print_term(ty)}")

    def infer(self, ctx: Ctx, t: Term) -> Term:
        pushed = self._push_span(t)
        try:
            return self._infer(ctx, t)
        finally:
            if pushed:
                self._span_stack.pop()

    def _infer(self, ctx: Ctx, t: Term) -> Term:
        match t:
            case Var(n):
                e = ctx.lookup(n)
                if e is not None:
                    if e[0] == "cube":
                        return ShapeTy(fresh_name("t"), e[2], TOP)
                    if e[2] is None:
                        raise self.fail("INFER", f"cannot infer the type of {n}")
                    return e[2]
                entry = self.env.get(n)
                if entry is not None:
                    return entry.type
                raise self.fail("CHECK", f"unknown identifier {n!r}")
            case Universe(l):
                return Universe(l + 1)
            case Pi(x, dom, cod):
                dw = self.whnf(ctx, dom)
                if isinstance(dw, ShapeTy):
                    x2, [cod2] = self.open_binder(ctx, x, [cod])
                    ctx2 = ctx.bind_cube(x2, dw.sort).constrain(
                        subst(dw.tope, dw.binder, Var(x2)))
                    return Universe(self.infer_universe(ctx2, cod2))
                lu = self.infer_universe(ctx, dom)
                x2, [cod2] = self.open_binder(ctx, x, [cod])
                lv = self.infer_universe(ctx.bind_var(x2, dom), cod2)
                return Universe(max(lu, lv))
            case Sigma(x, dom, cod):
                dw = self.whnf(ctx, dom)
                if isinstance(dw, ShapeTy):
                    raise self.fail("INFER", "Sigma over a shape is not supported")
                lu = self.infer_universe(ctx, dom)
                x2, [cod2] = self.open_binder(ctx, x, [cod])
                lv = self.infer_universe(ctx.bind_var(x2, dom), cod2)
                return Universe(max(lu, lv))
            case Lam(_, _):
                raise self.fail("INFER", "cannot infer the type of an unannotated lambda")
            case App(f, a):
                fty = self.whnf(ctx, self.infer(ctx, f))
                match fty:
                    case Pi(x, dom, cod):
                        self.check(ctx, a, dom)
                        return subst(cod, x, a)
                    case Extension(x, dom, _, fam, _):
                        sh = self.resolve_shape(ctx, dom)
                        ca = self.read_cube(ctx, a)
                        self.expect_sort(ctx, ca, sh.sort, "cube argument")
                        tope = self.read_tope(ctx, subst(sh.tope, sh.binder, ca))
                        if not self.entails(ctx, ctx.hyps(), tope):
                            raise self.fail(
                                "CHECK",
                                f"cube argument {print_term(ca)} is not inside the "
                                f"shape {print_term(sh)}")
                        return subst(fam, x, a)
                raise self.fail(
                    "INFER", f"cannot apply a term of type {print_term(fty)}")
            case Pair(_, _):
                raise self.fail("INFER", "cannot infer the type of a bare pair")
            case Fst(p):
                pty = self.whnf(ctx, self.infer(ctx, p))
                if isinstance(pty, Sigma):
                    return pty.fst_type
                raise self.fail("INFER", f"fst of a non-pair type {print_term(pty)}")
            case Snd(p):
                pty = self.whnf(ctx, self.infer(ctx, p))
                if isinstance(pty, Sigma):
                    return subst(pty.snd_type, pty.binder, Fst(p))
                raise self.fail("INFER", f"snd of a non-pair type {print_term(pty)}")
            case IdType(amb, l, r):
                lu = self.infer_universe(ctx, amb)
                self.check(ctx, l, amb)
                self.check(ctx, r, amb)
                return Universe(lu)
            case Refl(x):
                ty = self.infer(ctx, x)
                return IdType(ty, x, x)
            case JElim(c, d, p):
                pty = self.whnf(ctx, self.infer(ctx, p))
                if not isinstance(pty, IdType):
                    raise self.fail(
                        "INFER", f"idJ expects a path, found {print_term(pty)}")
                amb, lhs = pty.ambient, pty.lhs
                y = fresh_name("y")
                q = fresh_name("q")
                motive_ty = Pi(y, amb, Pi(q, IdType(amb, lhs, Var(y)), Universe(0)))
                self.check(ctx, c, motive_ty)
                self.check(ctx, d, App(App(c, lhs), Refl(lhs)))
                return App(App(c, pty.rhs), p)
            case ShapeTy(x, sort, tope):
                x2, [tope2] = self.open_binder(ctx, x, [tope])
                ctx2 = ctx.bind_cube(x2, sort)
                self.check_sorted(ctx2, self.read_tope(ctx2, tope2))
                return Universe(0)
            case Extension(x, dom, phi, fam, part):
                sh = self.resolve_shape(ctx, dom)
                x2, [phi2, fam2, part2] = self.open_binder(ctx, x, [phi, fam, part])
                stope = subst(sh.tope, sh.binder, Var(x2))
                ctx_sh = ctx.bind_cube(x2, sh.sort).constrain(stope)
                rphi = self.read_tope(ctx_sh, phi2)
                self.check_sorted(ctx_sh, rphi)
                ctx_phi_only = ctx.bind_cube(x2, sh.sort).constrain(rphi)
                if not self.entails(
                    ctx_phi_only, ctx_phi_only.hyps(), self.read_tope(ctx_sh, stope)
                ):
                    raise self.fail(
                        "CHECK",
                        f"subtope {print_tope(rphi)} is not included in the shape "
                        f"tope {print_tope(stope)}")
                lu = self.infer_universe(ctx_sh, fam2)
                ctx_part = ctx_sh.constrain(rphi)
                self.check(ctx_part, part2, fam2)
                return Universe(lu)
            case RecOr(_, _, _, _):
                raise self.fail("INFER", "recOR is checked against a type")
            case RecBot():
                raise self.fail("INFER", "recBOT is checked against a type")
            case Cube0() | Cube1():
                return ShapeTy(fresh_name("t"), INTERVAL, TOP)
            case CubeStar():
                return ShapeTy(fresh_name("t"), UNIT_CUBE, TOP)
            case Meet(_, _) | Join(_, _):
                self.expect_sort(ctx, self.read_cube(ctx, t), INTERVAL, "cube term")
                return ShapeTy(fresh_name("t"), INTERVAL, TOP)
        raise self.fail("INFER", f"no inference rule for {type(t).__name__}")

    def check(self, ctx: Ctx, t: Term, ty: Term) -> None:
        pushed = self._push_span(t)
        try:
            self._check(ctx, t, ty)
        finally:
            if pushed:
                self._span_stack.pop()

    def _check(self, ctx: Ctx, t: Term, ty: Term) -> None:
        tyw = self.whnf(ctx, ty)
        match t, tyw:
            case Lam(x, body), Pi(y, dom, cod):
                x2, [body2] = self.open_binder(ctx, x, [body])
                ctx2 = ctx.bind_var(x2, dom)
                self.check(ctx2, body2, subst(cod, y, Var(x2)))
                return
            case Lam(x, body), Extension(y, dom, phi, fam, part):
                sh = self.resolve_shape(ctx, dom)
                x2, [body2] = self.open_binder(ctx, x, [body])
                stope = subst(sh.tope, sh.binder, Var(x2))
                ctx2 = ctx.bind_cube(x2, sh.sort).constrain(stope)
                fam2 = subst(fam, y, Var(x2))
                self.check(ctx2, body2, fam2)
                phi2 = self.read_tope(ctx2, subst(phi, y, Var(x2)))
                ctx3 = ctx2.constrain(phi2)
                part2 = subst(part, y, Var(x2))
                if not self.def_equal(ctx3, fam2, body2, part2):
                    raise self.fail(
                        "CHECK",
                        "boundary mismatch: the body does not restrict to the "
                        f"partial section on {print_tope(phi2)}")
                return
            case Pair(a, b), Sigma(y, dom, cod):
                self.check(ctx, a, dom)
                self.check(ctx, b, subst(cod, y, a))
                return
            case Refl(x), IdType(amb, lhs, rhs):
                self.check(ctx, x, amb)
                if not (self.def_equal(ctx, amb, x, lhs)
                        and self.def_equal(ctx, amb, x, rhs)):
                    raise self.fail(
                        "CHECK",
                        f"refl {print_term(x)} does not prove "
                        f"{print_term(lhs)} = {print_term(rhs)}")
                return
            case RecOr(lt, rt, l, r), _:
                rlt = self.read_tope(ctx, lt)
                rrt = self.read_tope(ctx, rt)
                self.check_sorted(ctx, rlt)
                self.check_sorted(ctx, rrt)
                if not self.entails(ctx, ctx.hyps(), TopeOr(rlt, rrt)):
                    raise self.fail(
                        "CHECK",
                        f"recOR requires {print_tope(TopeOr(rlt, rrt))} to hold here")
                self.check(ctx.constrain(rlt), l, tyw)
                self.check(ctx.constrain(rrt), r, tyw)
                if not self.def_equal(ctx.constrain(TopeAnd(rlt, rrt)), tyw, l, r):
                    raise self.fail(
                        "CHECK", "recOR branches disagree on the overlap")
                return
            case RecBot(), _:
                if not self.inconsistent(ctx):
                    raise self.fail(
                        "CHECK", "recBOT requires an inconsistent tope context")
                return
            case Lam(_, _), _:
                raise self.fail(
                    "CHECK", f"lambda checked against {print_term(tyw)}")
            case Pair(_, _), _:
                raise self.fail(
                    "CHECK", f"pair checked against {print_term(tyw)}")
            case _, ShapeTy(y, sort, tope):
                ca = self.read_cube(ctx, t)
                self.expect_sort(ctx, ca, sort, "cube term")
                rtope = self.read_tope(ctx, subst(tope, y, ca))
                if not self.entails(ctx, ctx.hyps(), rtope):
                    raise self.fail(
                        "CHECK",
                        f"cube term {print_term(ca)} does not satisfy "
                        f"{print_tope(rtope)}")
                return
            case _, _:
                inferred = self.infer(ctx, t)
                if not self.def_equal(ctx, None, inferred, tyw):
                    raise self.fail(
                        "CHECK",
                        f"expected {print_term(tyw)}, inferred {print_term(inferred)}")
                return

    # -- declarations ----------------------------------------------------------------

    def check_declaration(self, decl: Declaration) -> EnvEntry:
        self._bounds = decl.span
        if decl.name in self.env:
            raise KernelError(
                "IMPORT",
                f"{decl.name!r} is already declared in module "
                f"{self.env[decl.name].module!r}",
                decl.name_span)
        ctx = Ctx()
        binfos: list[tuple] = []  # ("cube", x, sort, tope) | ("var", x, ty)
        for b in decl.telescope:
            match b:
                case TypedBinder(x, bty):
                    if x in ctx.names() or x in self.env:
                        raise KernelError(
                            "CHECK", f"telescope rebinds {x!r}", decl.span)
                    dw = self.whnf(ctx, bty)
                    if isinstance(dw, ShapeTy):
                        stope = subst(dw.tope, dw.binder, Var(x))
                        ctx = ctx.bind_cube(x, dw.sort).constrain(stope)
                        binfos.append(["cube", x, dw.sort, stope])
                    else:
                        self.infer_universe(ctx, bty)
                        ctx = ctx.bind_var(x, bty)
                        binfos.append(["var", x, bty])
                case TopeBinder(tope):
                    rtope = self.read_tope(ctx, tope)
                    self.check_sorted(ctx, rtope)
                    target = next(
                        (bi for bi in reversed(binfos) if bi[0] == "cube"), None)
                    if target is None:
                        raise KernelError(
                            "CHECK",
                            "tope binder without a preceding cube binder",
                            decl.span)
                    target[3] = TopeAnd(target[3], rtope)
                    ctx = ctx.constrain(rtope)
        self.infer_universe(ctx, decl.stated_type)
        if decl.body is not None:
            if decl.name in free_vars(decl.body):
                raise KernelError(
                    "CHECK",
                    f"{decl.name!r} mentions itself; recursive definitions "
                    "are rejected",
                    decl.name_span)
            self.check(ctx, decl.body, decl.stated_type)
        closed_ty = decl.stated_type
        closed_val = decl.body
        for bi in reversed(binfos):
            if bi[0] == "cube":
                _, x, sort, stope = bi
                closed_ty = Pi(x, ShapeTy(x, sort, stope), closed_ty)
            else:
                _, x, bty = bi
                closed_ty = Pi(x, bty, closed_ty)
            if closed_val is not None:
                closed_val = Lam(bi[1], closed_val)
        return EnvEntry(
            name=decl.name,
            type=closed_ty,
            value=closed_val,
            kind=decl.kind,
            module=self.module.name if self.module else "<none>",
        )


# the global axiom manifest: the only postulates a T1 or P unit may declare.
# `relfunext` packages relative function extensionality at the inclusions
# the corpus uses; the walking bi-invertible arrow is postulated with its
# universal property, its endpoint inclusions pinned by two evaluation
# identities.
ALLOWED_POSTULATES = frozenset({
    "relfunext",
    "walking_biinv",
    "walking_biinv_ump",
    "walking_biinv_i0",
    "walking_biinv_i1",
    "walking_biinv_ev0",
    "walking_biinv_ev1",
})


def check_module(
    module: SourceModule,
    env: dict[str, EnvEntry],
    solver: Optional[topes.Solver] = None,
    declarations: Optional[list[Declaration]] = None,
) -> tuple[CheckReport, dict[str, EnvEntry]]:
    """Fold declaration checking over ``declarations``, by default all of
    the module's.

    ``env`` is the environment the first declaration sees; the returned dict
    extends it with the declarations that checked.  Deterministic given the
    declarations and environment; each declaration's diagnostics point into
    its own text.  In a module whose ``--@tier`` is ``T1`` or ``P``, a
    postulate outside ``ALLOWED_POSTULATES`` is a ``TIER`` error.  A
    declaration too deeply nested for the interpreter's recursion limit is a
    ``CHECK`` error at its keyword, and the declarations after it are still
    checked.
    """
    solver = solver if solver is not None else topes.Solver()
    start = time.perf_counter()
    checker = Checker(dict(env), solver=solver, module=module)
    report = CheckReport(module=module.name, status="ok")
    tier = module.tier
    for decl in module.declarations if declarations is None else declarations:
        if (
            tier in ("T1", "P")
            and decl.kind == "postulate"
            and decl.name not in ALLOWED_POSTULATES
        ):
            report.diagnostics.append(Diagnostic(
                "error", "TIER",
                f"postulate {decl.name!r} is not in the axiom manifest but "
                f"appears in a {tier} unit",
                module.path, decl.name_span))
            continue
        try:
            entry = checker.check_declaration(decl)
        except KernelError as e:
            span = e.span if e.span is not None else decl.span
            report.diagnostics.append(Diagnostic(
                "error", e.code, f"in {decl.name!r}: {e.message}",
                module.path, span))
            continue
        except RecursionError:
            keyword = "def" if decl.kind == "definition" else "postulate"
            report.diagnostics.append(Diagnostic(
                "error", "CHECK", f"in {decl.name!r}: nesting too deep to check",
                module.path, (decl.span[0], decl.span[0] + len(keyword))))
            continue
        checker.env[decl.name] = entry
        report.declarations_checked += 1
    if any(d.severity == "error" for d in report.diagnostics):
        report.status = "failed"
    report.solver_queries = checker.queries
    report.wall_time = time.perf_counter() - start
    return report, checker.env


def dump_entries(entries: Iterable[EnvEntry]) -> list:
    """The JSON form of environment entries, in order, for `build_env`."""
    return [
        [e.name, e.kind, e.module, encode_term(e.type),
         None if e.value is None else encode_term(e.value)]
        for e in entries
    ]


def build_env(data: list, env: dict[str, EnvEntry]) -> dict[str, EnvEntry]:
    """``env`` extended with the entries of a module that checked, from
    their JSON form (`dump_entries`).  Each entry's generated names become
    fresh names of this process, through one map for its type and value,
    so that none can meet a name this process generates.  Damaged data
    raises an exception."""
    env = dict(env)
    for name, kind, module, ty, value in data:
        if not (type(name) is type(kind) is type(module) is str):
            raise ValueError(f"an entry named {name!r} is malformed")
        renamed: dict[str, str] = {}
        env[name] = EnvEntry(
            name=name,
            type=decode_term(ty, renamed),
            value=None if value is None else decode_term(value, renamed),
            kind=kind,
            module=module,
        )
    return env


def _cube_former(t: Term) -> bool:
    return isinstance(t, (Cube0, Cube1, CubeStar, Meet, Join))


def _neutralish(t: Term) -> bool:
    return isinstance(t, (Var, App, Fst, Snd, JElim))
