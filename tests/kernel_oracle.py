"""Kernel helpers that only the tests use.

``InnermostChecker`` is a reference normalizer for the confluence tests.
It reduces every argument to weak head normal form before the β-step or
the boundary computation that consumes it, and substitutes one argument at
a time.  ``Checker.whnf`` substitutes a whole spine of unreduced arguments
at once; the tests compare the two.

``check_boundary`` compares two sections over a shape under a subtope, the
comparison the kernel makes when it checks a term against an extension
type.

``reference_subst`` substitutes one name in its own walk, renaming a
capturing binder by a separate substitution before it descends; the tests
compare `subst` and `subst_many` with it.
"""

from __future__ import annotations

from stt.kernel import Checker, Ctx
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
