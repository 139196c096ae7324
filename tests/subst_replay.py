"""Replay the substitutions of a corpus check against two implementations.

Usage:
    PYTHONPATH=src python tests/subst_replay.py BASELINE_SRC [--reps N]

Records every `subst` and `subst_many` call the kernel makes while it
checks ``corpus/all.stt`` without a cache, then times the same calls, in
one process, against this tree's ``stt.syntax`` and against the
``stt/syntax.py`` found under ``BASELINE_SRC`` (the ``src`` directory of
another checkout, for instance one made with
``git archive REV src | tar -x -C DIR``).  The repetitions alternate which
implementation runs first, and the cyclic garbage collector is paused
inside each timed pass.  Before timing, one pass checks that the two agree
up to alpha-equivalence on every call.  Times are CPU seconds.
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


def record() -> list[tuple]:
    calls = []
    one, many = stt.kernel.subst, stt.kernel.subst_many

    def rec_one(t, x, v):
        calls.append((t, x, v))
        return one(t, x, v)

    def rec_many(t, sigma):
        calls.append((t, dict(sigma)))
        return many(t, sigma)

    stt.kernel.subst, stt.kernel.subst_many = rec_one, rec_many
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = run(RunConfig(targets=[os.path.join(ROOT, "corpus", "all.stt")],
                                 no_cache=True))
    finally:
        stt.kernel.subst, stt.kernel.subst_many = one, many
    if code != 0:
        raise SystemExit(f"the corpus check exited {code}")
    return calls


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


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline_src")
    ap.add_argument("--reps", type=int, default=11)
    args = ap.parse_args()
    syntax.allow_deep_recursion()
    calls = record()
    base = load_baseline(args.baseline_src)
    conv = converter(base)
    base_calls = [convert_call(base, conv, c) for c in calls]
    back = converter(syntax)
    mismatches = sum(
        not syntax.alpha_eq(a, back(b))
        for a, b in zip(replay(syntax, calls), replay(base, base_calls)))
    singles = sum(len(c) == 3 for c in calls)
    print(f"{len(calls)} calls ({singles} single-name, {len(calls) - singles} "
          f"simultaneous), {mismatches} results not alpha-equal")
    times = {"current": [], "baseline": []}
    sides = [("current", syntax, calls), ("baseline", base, base_calls)]
    for rep in range(args.reps):
        for name, mod, cs in (sides if rep % 2 == 0 else sides[::-1]):
            gc.collect()
            gc.disable()
            start = time.process_time()
            replay(mod, cs)
            times[name].append(time.process_time() - start)
            gc.enable()
    for name, ts in times.items():
        print(f"{name:9s} median {statistics.median(ts):.3f} s  "
              f"runs {' '.join(f'{t:.3f}' for t in ts)}")
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
