"""Answer one round of tope queries through ``stt.topes.Solver.entails``.

Usage: python3 bench/query_child.py QUERIES OUT [TRACE_OUT]

QUERIES is a JSON list of queries in the form ``topegen`` writes.  OUT gets
each verdict and each query's latency in ms.  With TRACE_OUT the program's
public functions are wrapped first and the per-layer figures and spans are
written there.
"""

import json
import sys
import time

import topegen


def main() -> int:
    queries_path, out_path = sys.argv[1], sys.argv[2]
    trace_path = sys.argv[3] if len(sys.argv) > 3 else None
    from stt.topes import Solver

    tracer = None
    if trace_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with open(queries_path, encoding="utf-8") as fh:
        queries = [topegen.decode(q) for q in json.load(fh)]
    solver = Solver()
    verdicts, latencies = [], []

    def answer_all():
        clock = time.perf_counter
        for ctx, hyps, goal in queries:
            t0 = clock()
            verdict = solver.entails(ctx, hyps, goal)
            latencies.append((clock() - t0) * 1e3)
            verdicts.append(bool(verdict))

    if tracer is not None:
        tracer.root("queries", answer_all)
        tracer.write(trace_path)
    else:
        answer_all()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"verdicts": verdicts, "latencies_ms": latencies}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
