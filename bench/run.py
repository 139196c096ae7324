"""Benchmark for stt: corpus checks and a tope-query stream, timed from outside.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md):
    corpus-cold   `stt check corpus/all.stt --no-cache`
    corpus-warm   the same check against a cache an earlier check filled
    corpus-edit   seeded edits on a copy of the corpus, each checked with the cache
    tope-queries  seeded entailment queries sent to `stt.topes.Solver.entails`

Every check or query round runs in a fresh process, one at a time.  Rounds
start until S seconds have passed.  Each output is checked against a
prediction made from the corpus text or against the benchmark's own tope
evaluator.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  A traced
run also writes its spans under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import corpus_model

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
PY = sys.executable or "python3"

WORKLOADS = ("corpus-cold", "corpus-warm", "corpus-edit", "tope-queries")
SETUP_SAMPLES = 5
QUERIES_PER_ATOM_COUNT = 500  # per round, for each atom count 1..6
CHILD_TIMEOUT_S = 120  # a run must end within 180 s, even if a child hangs

END_TO_END = {"setup_s": "s", "check_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "lexer.tokenize_s": "s", "lexer.tokens": "count",
    "parser.parse_module_self_s": "s", "parser.declarations": "count",
    "cli.resolve_self_s": "s", "cli.modules": "count", "cli.run_self_s": "s",
    "cache.module_key_s": "s", "cache.load_s": "s", "cache.hits": "count",
    "cache.misses": "count", "cache.store_s": "s", "cache.stores": "count",
    "cache.bytes_written": "bytes",
    "kernel.check_module_self_s": "s", "kernel.declarations_checked": "count",
    "kernel.whnf_calls": "count", "kernel.whnf_s": "s",
    "kernel.def_equal_calls": "count", "kernel.def_equal_s": "s",
    "kernel.build_env_s": "s",
    "syntax.subst_calls": "count", "syntax.subst_s": "s",
    "topes.entails_calls": "count", "topes.entails_hit_s": "s",
    "topes.entails_miss_s": "s", "topes.memo_misses": "count",
    "topes.memo_hit_ratio": "ratio", "topes.models_evaluated": "count",
    "topes.max_atoms": "count",
    "trace.op_s": "s",
}


class Fatal(Exception):
    """The program under test crashed or could not be run."""


@dataclass
class Proc:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    peak_rss_mb: float


@dataclass
class Op:
    """One measured operation: a check process, or a round of queries."""
    wall_s: float
    peak_rss_mb: float
    attempted: int = 1
    failed: int = 0
    round: int = 0
    layers: dict = field(default_factory=dict)
    spans: dict | None = None


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = WORK / f"{workload}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("STT_PATH", None)
        self.problems: list[str] = []
        self.latencies_ms: list[float] = []

    # -- processes -------------------------------------------------------------------

    def run(self, argv: list[str]) -> Proc:
        """Run one child to its end; wall time and peak RSS come from outside."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Proc(proc.returncode, out.read().decode("utf-8", "replace"),
                        err.read().decode("utf-8", "replace"), wall,
                        usage.ru_maxrss / 1024.0)

    def setup_s(self) -> float:
        """Median time of a fresh interpreter that imports stt.cli.  One
        unmeasured run first writes the bytecode caches."""
        probe = [PY, "-c", "import stt.cli; print(stt.cli.__file__)"]
        first = self.run(probe)
        if first.code != 0 or not first.stdout.strip().startswith(str(SRC)):
            raise Fatal(f"stt.cli does not import from {SRC}: "
                        f"{first.stdout.strip()} {first.stderr.strip()}")
        return statistics.median(self.run(probe).wall_s
                                 for _ in range(SETUP_SAMPLES))

    def check(self, target: Path, flags: list[str], traced: bool) -> tuple[Proc, dict]:
        """One `stt check --json` process, run through the benchmark's
        wrappers when traced.  A crash is fatal to the run: exit code 1
        with a traceback is not a check error."""
        args = ["check", str(target), "--json", *flags]
        trace_path = self.work / "trace.json"
        if traced:
            trace_path.unlink(missing_ok=True)
            proc = self.run([PY, str(BENCH / "check_child.py"), str(trace_path),
                             "--", *args])
        else:
            proc = self.run([PY, "-m", "stt.cli", *args])
        if proc.code not in (0, 1) or "Traceback (most recent call last)" in proc.stderr:
            raise Fatal(f"stt check exited {proc.code}:\n{proc.stderr[-3000:]}")
        if not traced:
            return proc, {}
        with open(trace_path, encoding="utf-8") as fh:
            return proc, json.load(fh)

    def checked_op(self, target: Path, flags: list[str], expected: dict,
                   cache: Path | None = None, traced: bool | None = None,
                   ) -> tuple[Op, Proc]:
        """Run a check, compare its report with the prediction, and turn it
        into an operation."""
        traced = self.trace if traced is None else traced
        before = _files(cache) if cache is not None else {}
        proc, trace_data = self.check(target, flags, traced)
        try:
            problems = corpus_model.compare(proc.stdout, expected)
        except (ValueError, KeyError, TypeError) as e:
            raise Fatal(f"unreadable --json report ({e}):\n"
                        f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}") from e
        want = corpus_model.exit_code(expected)
        if proc.code != want:
            problems.append(f"exit code {proc.code}, expected {want}")
        op = Op(proc.wall_s, proc.peak_rss_mb, failed=int(bool(problems)))
        self.problems += problems
        if trace_data:
            after = _files(cache) if cache is not None else {}
            _add_trace(op, trace_data)
            op.layers["cache.bytes_written"] = sum(
                size for path, (size, _) in after.items()
                if before.get(path) != after[path])
        return op, proc

    # -- workloads -------------------------------------------------------------------

    def rounds(self, one_round) -> list[Op]:
        """Run whole rounds until the run's seconds have passed."""
        ops: list[Op] = []
        deadline = time.perf_counter() + self.seconds
        r = 0
        while True:
            for op in one_round(r):
                op.round = r
                ops.append(op)
            r += 1
            if time.perf_counter() >= deadline:
                return ops

    def corpus_cold(self) -> list[Op]:
        expected = corpus_model.clean_prediction(corpus_model.scan(str(CORPUS)))
        target = CORPUS / "all.stt"
        flags = ["--no-cache", "--cache-dir", str(self.work / "unused-cache")]
        return self.rounds(
            lambda r: [self.checked_op(target, flags, expected)[0]])

    def corpus_warm(self) -> list[Op]:
        expected = corpus_model.clean_prediction(corpus_model.scan(str(CORPUS)))
        target = CORPUS / "all.stt"
        cache = self.work / "cache"
        flags = ["--cache-dir", str(cache)]
        _, fill = self.checked_op(target, flags, expected, traced=False)
        filled = _files(cache)

        def one(r):
            op, proc = self.checked_op(target, flags, expected, cache)
            stored = sum(1 for p, v in _files(cache).items() if filled.get(p) != v)
            problems = []
            if stored:
                problems.append(f"{stored} modules were checked again, not "
                                f"read from the cache")
            if proc.stdout != fill.stdout:
                problems.append("--json differs from the check that filled "
                                "the cache")
            self.problems += problems
            op.failed = max(op.failed, int(bool(problems)))
            return [op]

        return self.rounds(one)

    def corpus_edit(self) -> list[Op]:
        copy = self.work / "corpus"
        shutil.copytree(CORPUS, copy)
        units = corpus_model.scan(str(copy))
        target = copy / "all.stt"
        cache = self.work / "cache"
        flags = ["--cache-dir", str(cache)]
        self.checked_op(target, flags, corpus_model.clean_prediction(units),
                        traced=False)

        def one(r):
            # the same mix of edits in every round, in a seeded order
            order = list(corpus_model.EDIT_ROUND)
            self.rng.shuffle(order)
            ops = []
            for step, (unit, kind) in enumerate(order):
                text, added = corpus_model.apply_edit(
                    self.rng, units[unit]["text"], kind, f"{r}_{step}")
                _write(copy / f"{unit}.stt", text)
                expected = corpus_model.edit_prediction(units, unit, kind, added)
                ops.append(self.checked_op(target, flags, expected, cache)[0])
                _write(copy / f"{unit}.stt", units[unit]["text"])
            return ops

        return self.rounds(one)

    def tope_queries(self) -> list[Op]:
        import topeval
        import topegen

        queries_path = self.work / "queries.json"
        answers_path = self.work / "answers.json"
        trace_path = self.work / "trace.json"

        def one(r):
            queries = topegen.round_of_queries(self.rng, QUERIES_PER_ATOM_COUNT)
            expected = [topeval.entails(*topegen.decode(q)) for q in queries]
            with open(queries_path, "w", encoding="utf-8") as fh:
                json.dump(queries, fh)
            argv = [PY, str(BENCH / "query_child.py"), str(queries_path),
                    str(answers_path)]
            if self.trace:
                argv.append(str(trace_path))
            proc = self.run(argv)
            if proc.code != 0:
                raise Fatal(f"query process exited {proc.code}:\n"
                            f"{proc.stderr[-3000:]}")
            with open(answers_path, encoding="utf-8") as fh:
                answers = json.load(fh)
            wrong = wrong_verdicts(queries, answers["verdicts"], expected)
            self.problems += wrong[:5]
            self.latencies_ms += answers["latencies_ms"]
            op = Op(proc.wall_s, proc.peak_rss_mb, attempted=len(queries),
                    failed=len(wrong))
            if self.trace:
                with open(trace_path, encoding="utf-8") as fh:
                    _add_trace(op, json.load(fh))
            return [op]

        return self.rounds(one)

    # -- report --------------------------------------------------------------------

    def measure(self) -> dict:
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            setup = None if self.trace else self.setup_s()
            ops = getattr(self, self.workload.replace("-", "_"))()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            try:
                WORK.rmdir()
            except OSError:
                pass  # another run is still using it
        attempted = sum(op.attempted for op in ops)
        failed = sum(op.failed for op in ops)
        if self.trace:
            values = {name: per_round(ops, lambda op: op.layers.get(name, 0))
                      for name in PER_LAYER if name != "trace.op_s"}
            values["trace.op_s"] = per_round(ops, lambda op: op.wall_s)
            units = PER_LAYER
        else:
            values = {"setup_s": setup,
                      "check_s": per_round(ops, lambda op: op.wall_s),
                      "peak_rss_mb": statistics.median(op.peak_rss_mb for op in ops)}
            units = END_TO_END
        self.summarize(ops, values, units)
        if self.trace:
            self.write_spans(ops)
        for p in self.problems[:20]:
            print(f"FAILED: {p}", file=sys.stderr)
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units},
        }

    def summarize(self, ops: list[Op], values: dict, units: dict) -> None:
        walls = sorted(op.wall_s for op in ops)
        print(f"{self.workload} seed={self.seed} trace={int(self.trace)}: "
              f"{len(ops)} processes, wall min {walls[0]:.4f} s, "
              f"max {walls[-1]:.4f} s")
        if self.workload == "tope-queries" and not self.trace:
            lat = sorted(self.latencies_ms)
            n = len(lat)
            line = (f"  queries_per_s {n / sum(walls):.1f} 1/s (set-up included), "
                    f"query_median_ms {statistics.median(lat):.4f} ms")
            if n * 0.01 >= 10:
                line += f", query_p99_ms {lat[math.ceil(0.99 * n) - 1]:.4f} ms"
            print(line + f" (n={n})")
        for name, unit in units.items():
            print(f"  {name} {values[name]:.6g} {unit}")

    def write_spans(self, ops: list[Op]) -> None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{self.workload}-seed{self.seed}.spans.json"
        missing = sorted({m for op in ops for m in (op.spans or {}).get("missing", [])})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "format": "each span is [id, parent id, name index, start ns, end ns]",
                "workload": self.workload, "seed": self.seed,
                "missing": missing,
                "ops": [dict(op.spans or {}, wall_s=op.wall_s) for op in ops],
            }, fh, separators=(",", ":"))
        if missing:
            print(f"  not traced (absent from the program): {', '.join(missing)}")
        print(f"  spans written to {path.relative_to(ROOT)}")


def _add_trace(op: Op, traced: dict) -> None:
    """Attach what a traced child wrote: its per-layer figures and spans."""
    op.layers = dict(traced["layers"])
    op.spans = {k: traced[k] for k in ("names", "spans", "missing")}


def per_round(ops: list[Op], value) -> float:
    """Median over rounds of the mean over a round's processes.  A round of
    corpus-edit is a fixed mix of unlike edits, so its mean is the figure
    that stays put from run to run; every other round is one process."""
    rounds: dict[int, list[float]] = {}
    for op in ops:
        rounds.setdefault(op.round, []).append(value(op))
    return statistics.median(statistics.fmean(v) for v in rounds.values())


def wrong_verdicts(queries: list, verdicts: list, expected: list[bool]) -> list[str]:
    """One line per query whose verdict differs from the benchmark's own
    evaluator; a missing verdict counts as wrong."""
    wrong = []
    for i, want in enumerate(expected):
        got = verdicts[i] if i < len(verdicts) else None
        if got is not want:
            wrong.append(f"query {i} {json.dumps(queries[i])}: solver says "
                         f"{got}, evaluator says {want}")
    return wrong


def _files(root: Path) -> dict[str, tuple[int, int]]:
    """Size and mtime of every file under root."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            st = os.stat(os.path.join(dirpath, name))
            out[os.path.join(dirpath, name)] = (st.st_size, st.st_mtime_ns)
    return out


def _write(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (SRC / "stt" / "cli.py").is_file() or not (CORPUS / "all.stt").is_file():
        print(f"error: no stt source tree and corpus under {ROOT}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # topegen and topeval read stt.syntax trees
    # a terminated run still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = bench.measure()
    except Fatal as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
