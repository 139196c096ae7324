"""Replay the substitutions and α-equality tests of a corpus check against
two implementations.

Usage:
    PYTHONPATH=src python tests/subst_replay.py BASELINE_SRC [--reps N]

Records every `subst`, `subst_many` and `alpha_eq` call the kernel makes
while it checks ``corpus/all.stt`` without a cache, then times the same
calls, in one process, against this tree's ``stt.syntax`` and against the
``stt/syntax.py`` found under ``BASELINE_SRC`` (the ``src`` directory of
another checkout, for instance one made with
``git archive REV src | tar -x -C DIR``).  The repetitions alternate which
implementation runs first, and the cyclic garbage collector is paused
inside each timed pass.  Before timing, one pass checks that the two agree
on every call: substitutions up to alpha-equivalence, `alpha_eq` verdicts
exactly.  Times are CPU seconds.  `record` is also the recorder of the
corpus replay test in ``tests/test_kernel.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import importlib.util
import io
import os
import statistics
import sys
import time

import stt.kernel
from stt import syntax
from stt.cli import RunConfig, run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def record() -> tuple[list[tuple], list[tuple]]:
    """The substitutions and the α-equality tests of a cold check of the
    corpus, in order, each as its arguments and its result: ``(t, x, v)``
    for `subst`, ``(t, sigma)`` for `subst_many`, ``(a, b)`` for
    `alpha_eq`."""
    substs, alphas = [], []
    one, many, alpha = stt.kernel.subst, stt.kernel.subst_many, stt.kernel.alpha_eq

    def rec_one(t, x, v):
        out = one(t, x, v)
        substs.append(((t, x, v), out))
        return out

    def rec_many(t, sigma):
        out = many(t, sigma)
        substs.append(((t, dict(sigma)), out))
        return out

    def rec_alpha(a, b):
        out = alpha(a, b)
        alphas.append(((a, b), out))
        return out

    stt.kernel.subst, stt.kernel.subst_many, stt.kernel.alpha_eq = (
        rec_one, rec_many, rec_alpha)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = run(RunConfig(targets=[os.path.join(ROOT, "corpus", "all.stt")],
                                 no_cache=True))
    finally:
        stt.kernel.subst, stt.kernel.subst_many, stt.kernel.alpha_eq = one, many, alpha
    if code != 0:
        raise SystemExit(f"the corpus check exited {code}")
    return substs, alphas


def load_baseline(src: str):
    spec = importlib.util.spec_from_file_location(
        "baseline_syntax", os.path.join(src, "stt", "syntax.py"))
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses looks the module up
    spec.loader.exec_module(mod)
    return mod


def converter(mod):
    """Map a term onto the classes of ``mod``, keeping shared subterms
    shared."""
    memo: dict[int, object] = {}

    def conv(t):
        if not dataclasses.is_dataclass(t):
            return t
        out = memo.get(id(t))
        if out is None:
            args = [conv(getattr(t, f.name)) for f in dataclasses.fields(t)]
            out = memo[id(t)] = getattr(mod, type(t).__name__)(*args)
        return out

    return conv


def convert_call(mod, conv, call):
    """``call`` over the classes of ``mod``, with the free variables cached
    on its terms, as the kernel's terms have them."""
    if len(call) == 3:
        t, x, v = call
        out = (conv(t), x, conv(v))
        terms = (out[0], out[2])
    else:
        t, sigma = call
        out = (conv(t), {x: conv(v) for x, v in sigma.items()})
        terms = (out[0], *out[1].values())
    for term in terms:
        mod.free_vars(term)
    return out


def replay(mod, calls) -> list:
    one, many = mod.subst, mod.subst_many
    return [one(*c) if len(c) == 3 else many(*c) for c in calls]


def replay_alpha(mod, pairs) -> list:
    alpha = mod.alpha_eq
    return [alpha(a, b) for a, b in pairs]


def timed(reps: int, sides: list) -> dict[str, list[float]]:
    """CPU seconds of ``reps`` passes of each ``(name, thunk)`` in
    ``sides``, alternating which runs first."""
    times = {name: [] for name, _ in sides}
    for rep in range(reps):
        for name, thunk in (sides if rep % 2 == 0 else sides[::-1]):
            gc.collect()
            gc.disable()
            start = time.process_time()
            thunk()
            times[name].append(time.process_time() - start)
            gc.enable()
    return times


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline_src")
    ap.add_argument("--reps", type=int, default=11)
    args = ap.parse_args()
    syntax.allow_deep_recursion()
    substs, alphas = record()
    calls = [c for c, _ in substs]
    pairs = [c for c, _ in alphas]
    base = load_baseline(args.baseline_src)
    conv = converter(base)
    base_calls = [convert_call(base, conv, c) for c in calls]
    base_pairs = [(conv(a), conv(b)) for a, b in pairs]
    back = converter(syntax)
    mismatches = sum(
        not syntax.alpha_eq(a, back(b))
        for a, b in zip(replay(syntax, calls), replay(base, base_calls)))
    verdicts = replay_alpha(syntax, pairs)
    alpha_mismatches = sum(
        x != y for x, y in zip(verdicts, replay_alpha(base, base_pairs)))
    singles = sum(len(c) == 3 for c in calls)
    print(f"{len(calls)} substitutions ({singles} single-name, "
          f"{len(calls) - singles} simultaneous), {mismatches} results not "
          f"alpha-equal")
    print(f"{len(pairs)} alpha_eq calls ({sum(verdicts)} true), "
          f"{alpha_mismatches} verdicts that differ")
    for what, sides in (
        ("subst", [("current", lambda: replay(syntax, calls)),
                   ("baseline", lambda: replay(base, base_calls))]),
        ("alpha_eq", [("current", lambda: replay_alpha(syntax, pairs)),
                      ("baseline", lambda: replay_alpha(base, base_pairs))]),
    ):
        for name, ts in timed(args.reps, sides).items():
            print(f"{what:8s} {name:9s} median {statistics.median(ts):.3f} s  "
                  f"runs {' '.join(f'{t:.3f}' for t in ts)}")
    return 0 if mismatches == alpha_mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
