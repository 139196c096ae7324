"""Kernel helpers that only the tests use.

``InnermostChecker`` is a reference normalizer for the confluence tests.
It reduces every argument to weak head normal form before the β-step or
the boundary computation that consumes it, and substitutes one argument at
a time.  ``Checker.whnf`` substitutes a whole spine of unreduced arguments
at once; the tests compare the two.

``check_boundary`` compares two sections over a shape under a subtope, the
comparison the kernel makes when it checks a term against an extension
type.
"""

from __future__ import annotations

from stt.kernel import Checker, Ctx
from stt.syntax import (
    App, Fst, JElim, Lam, Pair, RecOr, Refl, Snd, Term, Tope, Var, fresh_name,
    subst,
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
