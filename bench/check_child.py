"""Traced `stt check`: wrap the program's public functions, then run the CLI.

Usage: python3 bench/check_child.py TRACE_OUT -- STT_CHECK_ARGS...

Prints what the CLI prints and exits with its code; the per-layer figures
and the spans of this process are written to TRACE_OUT when the check ends.
"""

import sys

from tracer import Tracer


def main() -> int:
    out, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        print("usage: check_child.py TRACE_OUT -- ARGS...", file=sys.stderr)
        return 2
    import stt.cli

    tracer = Tracer()
    tracer.install()
    code = tracer.root("cli.main", stt.cli.main, argv)
    sys.stdout.flush()
    tracer.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
