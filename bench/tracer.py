"""Tracing from outside the program: wrap public functions of the stt modules.

A traced child process calls ``install()`` after importing ``stt``.  Every
wrapped call at a layer boundary records a span (id, parent, name, start,
end) in memory; self time is a span's duration minus the time its wrapped
children cover.  Two kernel functions that recurse heavily (``whnf`` and
``def_equal``) are counted instead of spanned: their time stays in the
kernel's self time and is also reported inclusive, for the outermost call.

A wrapped function that a later version of the program no longer has is
skipped and listed in ``missing``; its metrics then read 0.  The entry
points a workload calls itself are not wrapped here, so their absence
still fails the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (span name, defining module, attribute path, modules whose binding is replaced).
# ``None`` replaces the binding in every loaded stt module that holds the same
# function object (``from .parser import parse_module`` in ``stt.cli``, say).
# The substitution is counted only where the kernel calls it, through
# ``stt.kernel.subst``: the recursion inside ``stt.syntax`` is not counted.
SPANS = (
    ("cli.run", "stt.cli", "run", None),
    ("cli.resolve", "stt.cli", "resolve", None),
    ("parser.parse_module", "stt.parser", "parse_module", None),
    ("lexer.tokenize", "stt.lexer", "tokenize", None),
    ("cache.module_key", "stt.cache", "module_key", None),
    ("cache.load", "stt.cache", "Cache.load", None),
    ("cache.store", "stt.cache", "Cache.store", None),
    ("kernel.check_module", "stt.kernel", "check_module", None),
    ("kernel.build_env", "stt.kernel", "build_env", None),
    ("syntax.subst", "stt.kernel", "subst", ("stt.kernel",)),
    ("topes.entails", "stt.topes", "Solver.entails", None),
)

COUNTED = (
    ("kernel.whnf", "stt.kernel", "Checker.whnf"),
    ("kernel.def_equal", "stt.kernel", "Checker.def_equal"),
)


def _cube_atoms(sort) -> int:
    """Interval atoms of a cube sort: I has one, 1 none, a product the sum."""
    name = type(sort).__name__
    if name == "Interval":
        return 1
    if name == "ProdCube":
        return _cube_atoms(sort.left) + _cube_atoms(sort.right)
    return 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.inclusive_ns: dict[str, int] = {}
        self.entails_ns = {"hit": 0, "miss": 0}
        self.missing: list[str] = []
        # stack of [span id, ns covered by wrapped children]
        self._stack: list[list[int]] = [[0, 0]]
        self._next_id = 1
        self._depth: dict[str, int] = {}

    # -- recording -------------------------------------------------------------

    def _name_index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def spanned(self, name: str, fn, before=None, after=None):
        idx = self._name_index(name)
        self.self_ns.setdefault(name, 0)
        self.calls.setdefault(name, 0)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0]
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stack[-1][1] += dur
                self.self_ns[name] += dur - frame[1]
                self.calls[name] += 1
                spans.append((sid, parent, idx, t0, t1))
            if after is not None:
                after(state, args, result, dur)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        self.calls.setdefault(name, 0)
        self.inclusive_ns.setdefault(name, 0)
        self._depth[name] = 0
        depth = self._depth
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if depth[name]:
                return fn(*args, **kwargs)
            depth[name] = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.inclusive_ns[name] += clock() - t0
                depth[name] = 0

        wrapper.__wrapped__ = fn
        return wrapper

    def root(self, name: str, fn, *args):
        """Run the operation itself as the root span of this process."""
        return self.spanned(name, fn)(*args)

    # -- observations at each boundary ---------------------------------------------

    def _observers(self):
        def tokens(_s, _a, result, _d):
            self.count("lexer.tokens", len(result))

        def declarations(_s, _a, result, _d):
            self.count("parser.declarations", len(result[0].declarations))

        def modules(_s, _a, result, _d):
            self.count("cli.modules", len(result))

        def load(_s, _a, result, _d):
            self.count("cache.hits" if result is not None else "cache.misses")

        def checked(_s, _a, result, _d):
            self.count("kernel.declarations_checked",
                       result[0].declarations_checked)

        def memo_size(args):
            memo = getattr(args[0], "memo", None)
            return memo if isinstance(memo, dict) else None, (
                len(memo) if isinstance(memo, dict) else 0)

        def entails(state, args, _result, dur):
            memo, size = state
            ctx = args[1] if len(args) > 1 else ()
            atoms = sum(_cube_atoms(sort) for _name, sort in ctx)
            if atoms > self.counts.get("topes.max_atoms", 0):
                self.counts["topes.max_atoms"] = atoms
            if memo is not None and len(memo) > size:
                self.count("topes.memo_misses")
                self.entails_ns["miss"] += dur
                value = next(reversed(memo.values()))
                if isinstance(value, tuple) and len(value) == 2:
                    self.count("topes.models_evaluated", int(value[1]))
            else:
                self.entails_ns["hit"] += dur

        return {
            "lexer.tokenize": (None, tokens),
            "parser.parse_module": (None, declarations),
            "cli.resolve": (None, modules),
            "cache.load": (None, load),
            "kernel.check_module": (None, checked),
            "topes.entails": (memo_size, entails),
        }

    def install(self) -> None:
        observers = self._observers()
        for name, module, attr, where in SPANS:
            before, after = observers.get(name, (None, None))
            self._patch(name, module, attr, where,
                        lambda fn, n=name, b=before, a=after:
                        self.spanned(n, fn, b, a))
        for name, module, attr in COUNTED:
            self._patch(name, module, attr, None,
                        lambda fn, n=name: self.counted(n, fn))

    def _patch(self, name, module_name, attr, where, make) -> None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(name)
            return
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, fn_name, None) if owner is not None else None
        if not callable(original):
            self.missing.append(name)
            return
        wrapped = make(original)
        if owner_name:
            setattr(owner, fn_name, wrapped)
            return
        holders = ([sys.modules[m] for m in where if m in sys.modules]
                   if where is not None else
                   [m for n, m in list(sys.modules.items())
                    if (n == "stt" or n.startswith("stt.")) and m is not None])
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)

    # -- output --------------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer figures of this process, in seconds and counts."""
        def s(ns: int) -> float:
            return ns / 1e9

        c = self.counts
        calls = self.calls
        entails_calls = calls.get("topes.entails", 0)
        misses = c.get("topes.memo_misses", 0)
        return {
            "lexer.tokenize_s": s(self.self_ns.get("lexer.tokenize", 0)),
            "lexer.tokens": c.get("lexer.tokens", 0),
            "parser.parse_module_self_s":
                s(self.self_ns.get("parser.parse_module", 0)),
            "parser.declarations": c.get("parser.declarations", 0),
            "cli.resolve_self_s": s(self.self_ns.get("cli.resolve", 0)),
            "cli.modules": c.get("cli.modules", 0),
            "cli.run_self_s": s(self.self_ns.get("cli.run", 0)),
            "cache.module_key_s": s(self.self_ns.get("cache.module_key", 0)),
            "cache.load_s": s(self.self_ns.get("cache.load", 0)),
            "cache.hits": c.get("cache.hits", 0),
            "cache.misses": c.get("cache.misses", 0),
            "cache.store_s": s(self.self_ns.get("cache.store", 0)),
            "cache.stores": calls.get("cache.store", 0),
            "kernel.check_module_self_s":
                s(self.self_ns.get("kernel.check_module", 0)),
            "kernel.declarations_checked":
                c.get("kernel.declarations_checked", 0),
            "kernel.whnf_calls": calls.get("kernel.whnf", 0),
            "kernel.whnf_s": s(self.inclusive_ns.get("kernel.whnf", 0)),
            "kernel.def_equal_calls": calls.get("kernel.def_equal", 0),
            "kernel.def_equal_s":
                s(self.inclusive_ns.get("kernel.def_equal", 0)),
            "kernel.build_env_s": s(self.self_ns.get("kernel.build_env", 0)),
            "syntax.subst_calls": calls.get("syntax.subst", 0),
            "syntax.subst_s": s(self.self_ns.get("syntax.subst", 0)),
            "topes.entails_calls": entails_calls,
            "topes.entails_hit_s": s(self.entails_ns["hit"]),
            "topes.entails_miss_s": s(self.entails_ns["miss"]),
            "topes.memo_misses": misses,
            "topes.memo_hit_ratio":
                (entails_calls - misses) / entails_calls if entails_calls else 0.0,
            "topes.models_evaluated": c.get("topes.models_evaluated", 0),
            "topes.max_atoms": c.get("topes.max_atoms", 0),
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "layers": self.summary(),
                "missing": self.missing,
                "names": self.names,
                "spans": self.spans,
            }, fh)
