"""Kernel helpers that only the tests use.

``InnermostChecker`` is a reference normalizer for the confluence tests.
It reduces every argument to weak head normal form before the β-step or
the boundary computation that consumes it, and substitutes one argument at
a time.  ``Checker.whnf`` substitutes a whole spine of unreduced arguments
at once; the tests compare the two.

``check_boundary`` compares two sections over a shape under a subtope, the
comparison the kernel makes when it checks a term against an extension
type.

``UnfoldingChecker`` is the kernel as it was before `Checker.def_equal`
tested reflexivity: it reduces and compares both sides even when they are
α-equal.  The tests pin the solver queries of both and check that they
reach the same verdicts.

``reference_subst`` substitutes one name in its own walk, renaming a
capturing binder by a separate substitution before it descends; the tests
compare `subst` with it, and `subst_many` with ``reference_subst_many``,
which makes a simultaneous substitution of it one name at a time.

``debruijn`` writes a term with de Bruijn indices for its bound variables,
the reference `alpha_eq` is tested against.  ``rename_binders`` gives every
binder of a term a name that occurs nowhere else.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from stt.kernel import Checker, Ctx, KernelError
from stt.syntax import (
    App, Extension, Fst, IdType, JElim, Join, Lam, Meet, Pair, Pi, RecOr, Refl,
    ShapeTy, Sigma, Snd, Term, Tope, TopeAnd, TopeEq, TopeLeq, TopeOr, Var,
    free_vars, fresh_name, subst,
)


class InnermostChecker(Checker):
    def whnf(self, ctx: Ctx, t: Term) -> Term:
        match t:
            case App(fn, arg):
                head = self.whnf(ctx, fn)
                arg = self.whnf(ctx, arg)
                if isinstance(head, Lam):
                    return self.whnf(ctx, subst(head.body, head.binder, arg))
                reduced = self._boundary_reduce(ctx, head, arg)
                return App(head, arg) if reduced is None else self.whnf(ctx, reduced)
            case Var(n) if ctx.lookup(n) is None:
                entry = self.env.get(n)
                if entry is not None and entry.value is not None:
                    return self.whnf(ctx, entry.value)
                return t
            case Fst(p) | Snd(p):
                pw = self.whnf(ctx, p)
                if isinstance(pw, Pair):
                    return self.whnf(ctx, pw.fst if isinstance(t, Fst) else pw.snd)
                return type(t)(pw)
            case JElim(motive, base, path):
                pw = self.whnf(ctx, path)
                if isinstance(pw, Refl):
                    return self.whnf(ctx, base)
                return JElim(motive, base, pw)
            case RecOr(left_tope, right_tope, left, right):
                for tope, branch in ((left_tope, left), (right_tope, right)):
                    if self.entails(ctx, ctx.hyps(), self.read_tope(ctx, tope)):
                        return self.whnf(ctx, branch)
                return t
        # the other cases never take a further step on the result
        return super().whnf(ctx, t)


class UnfoldingChecker(Checker):
    def def_equal(self, ctx: Ctx, ty: Optional[Term], a: Term, b: Term) -> bool:
        sp = ctx.split()
        if sp is not None:
            return self.def_equal(sp[0], ty, a, b) and self.def_equal(sp[1], ty, a, b)
        if self.inconsistent(ctx):
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


def check_boundary(
    ck: Checker, ctx: Ctx, domain: Term, phi: Tope, body: Term, partial: Term
) -> bool:
    """body and partial are sections over the shape ``domain``; compare them
    under the subtope ``phi``."""
    sh = ck.resolve_shape(ctx, domain)
    x = fresh_name(sh.binder)
    ctx2 = (
        ctx.bind_cube(x, sh.sort)
        .constrain(subst(sh.tope, sh.binder, Var(x)))
        .constrain(subst(phi, sh.binder, Var(x)))
    )
    return ck.def_equal(ctx2, None, App(body, Var(x)), App(partial, Var(x)))


def reference_subst(t, name: str, value: Term):
    """Capture-avoiding substitution of ``value`` for ``name`` in a term or
    tope.  Renaming ``name`` to itself returns ``t``, not a copy."""
    if name not in free_vars(t) or _renames_to_itself(name, value):
        return t
    return _subst(t, name, value, free_vars(value))


def reference_subst_many(t, sigma: dict[str, Term]):
    """Simultaneous substitution of ``sigma`` in ``t`` by `reference_subst`
    alone: each name goes first to a fresh name, then each fresh name to
    its value, so that no value is substituted into another."""
    fresh = {x: fresh_name("z") for x in sigma}
    for x, z in fresh.items():
        t = reference_subst(t, x, Var(z))
    for x, z in fresh.items():
        t = reference_subst(t, z, sigma[x])
    return t


def _renames_to_itself(name: str, value: Term) -> bool:
    return type(value) is Var and value.name == name


def _open_binder(x: str, pieces, name: str, value, fvs):
    """Rename binder x if it would capture a free variable of value."""
    if x in fvs:
        x2 = fresh_name(x)
        pieces = [reference_subst(p, x, Var(x2)) for p in pieces]
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
    """One step of `_subst` on a node in which ``name`` occurs free.  A
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


# the fields that each binding node class scopes its binder over; every
# other field of such a node lies outside the binder
_SCOPES = {
    Lam: ("body",),
    Pi: ("codomain",),
    Sigma: ("snd_type",),
    ShapeTy: ("tope",),
    Extension: ("subtope", "family", "partial"),
}


def is_node(v) -> bool:
    """A term or tope node: the frozen dataclasses without value equality
    (cube sorts compare by value)."""
    params = getattr(v, "__dataclass_params__", None)
    return params is not None and params.frozen and not params.eq


def debruijn(t, bound: tuple = ()):
    """``t`` as nested tuples, each bound variable replaced by the number of
    binders between it and its own, and binder names left out.  Two terms
    are α-equal exactly when these forms are equal."""
    cls = type(t)
    if cls is Var:
        if t.name in bound:
            return ("bound", bound.index(t.name))
        return ("free", t.name)
    scope = _SCOPES.get(cls, ())
    inner = (t.binder, *bound) if scope else bound
    out = [cls.__name__]
    for f in dataclasses.fields(t):
        if scope and f.name == "binder":
            continue
        v = getattr(t, f.name)
        if is_node(v):
            v = debruijn(v, inner if f.name in scope else bound)
        out.append(v)  # a universe level or a cube sort stays as it is
    return tuple(out)


def rename_binders(t, renaming: Optional[dict[str, str]] = None):
    """A copy of ``t`` in which every binder takes a fresh name, and every
    occurrence bound by it follows."""
    renaming = renaming or {}
    cls = type(t)
    if cls is Var:
        return Var(renaming.get(t.name, t.name))
    scope = _SCOPES.get(cls, ())
    if scope:
        new = fresh_name(t.binder)
        inner = {**renaming, t.binder: new}
    fields = {}
    for f in dataclasses.fields(t):
        v = getattr(t, f.name)
        if scope and f.name == "binder":
            v = new
        elif is_node(v):
            v = rename_binders(v, inner if f.name in scope else renaming)
        fields[f.name] = v
    return cls(**fields)
