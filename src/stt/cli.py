"""Command-line driver: resolve imports, check modules, report diagnostics.

Exit codes: 0 all modules check, 1 check errors, 2 usage/IO/resolution
errors.  With ``--json`` one JSON object per module is emitted, ordered by
module name; human output is likewise flushed in module-name order so runs
are byte-stable.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from .cache import Cache, interface_hash, module_key, source_key
from .diagnostics import CheckReport, Diagnostic, render

if TYPE_CHECKING:
    from .syntax import SourceModule

# The parser, the kernel and the solver are imported where a module is
# parsed or checked, so a run whose reports all come from the cache loads
# none of them.


@dataclass
class RunConfig:
    targets: list[str]
    search_paths: list[str] = field(default_factory=list)
    json_output: bool = False
    trace_tope: bool = False
    capacity: int = 8
    no_cache: bool = False
    cache_dir: str = ".stt-cache"

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        if not self.no_cache and not self.cache_dir:
            raise ValueError("the cache directory must not be empty")


@dataclass(eq=False)
class ResolvedModule:
    name: str
    path: str
    source: str
    imports: list[str] = field(default_factory=list)
    key: Optional[str] = None  # the source key, when a cache is used
    module: Optional[SourceModule] = None
    parse_diagnostics: list[Diagnostic] = field(default_factory=list)

    def parse(self) -> SourceModule:
        """The parsed module; the source is parsed on the first call only."""
        if self.module is None:
            from .parser import parse_module

            self.module, self.parse_diagnostics = parse_module(
                self.source, self.path, name=self.name)
        return self.module


class ResolveError(Exception):
    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


def _find_module(name: str, search_paths: list[str]) -> Optional[str]:
    for d in search_paths:
        candidate = os.path.join(d, name + ".stt")
        if os.path.isfile(candidate):
            return candidate
    return None


def _warn_if_corrupt(cache: Cache, name: str, action: str) -> None:
    if cache.corrupt:
        print(f"warning: corrupt cache entry for {name}; {action}",
              file=sys.stderr)
        cache.corrupt = False


def resolve(
    targets: list[str], search_paths: list[str], cache: Optional[Cache] = None,
) -> dict[str, ResolvedModule]:
    """Load targets and their transitive imports; return them in dependency
    order (every module after its imports).  A module's imports come from
    the cache's header entry for its source, if there is one; otherwise the
    module is parsed here, and the header is written."""
    modules: dict[str, ResolvedModule] = {}
    queue: list[tuple[str, str]] = []
    for t in targets:
        if not os.path.isfile(t):
            raise ResolveError(f"no such file: {t}")
        queue.append((os.path.abspath(t), ""))
    while queue:
        path, wanted = queue.pop()
        name = os.path.splitext(os.path.basename(path))[0]
        if wanted and name != wanted:
            raise ResolveError(f"module {wanted!r} resolved to a file named {name!r}")
        if name in modules:
            if os.path.abspath(modules[name].path) != os.path.abspath(path):
                raise ResolveError(
                    f"module {name!r} found at both {modules[name].path} and {path}")
            continue
        try:
            with open(path, "r", encoding="utf-8-sig") as fh:
                source = fh.read()
        except OSError as e:
            raise ResolveError(f"cannot read {path}: {e}") from e
        except UnicodeDecodeError as e:
            raise ResolveError(
                f"cannot read {path}: not UTF-8 (byte {e.start})") from e
        resolved = ResolvedModule(name=name, path=path, source=source)
        header = None
        if cache is not None:
            resolved.key = source_key(
                name, path, source.encode(), cache.capacity)
            header = cache.load_imports(resolved.key)
            _warn_if_corrupt(cache, name, "reparsing")
        if header is not None:
            resolved.imports = header
        else:
            resolved.imports = [imp for imp, _ in resolved.parse().imports]
            if cache is not None:
                cache.store_imports(resolved.key, resolved.imports)
        modules[name] = resolved
        local_paths = [os.path.dirname(path)] + search_paths
        for imp in resolved.imports:
            found = _find_module(imp, local_paths)
            if found is None:
                raise ResolveError(
                    f"{path}: cannot resolve import {imp!r} on the search path")
            queue.append((os.path.abspath(found), imp))

    ordered: dict[str, ResolvedModule] = {}
    stack: list[str] = []

    def visit(name: str) -> None:
        if name in ordered:
            return
        if name in stack:
            cycle = " -> ".join(stack[stack.index(name):] + [name])
            raise ResolveError(f"import cycle: {cycle}")
        stack.append(name)
        for imp in sorted(modules[name].imports):
            visit(imp)
        stack.pop()
        ordered[name] = modules[name]

    for name in sorted(modules):
        visit(name)
    return ordered


def check_modules(
    modules: dict[str, ResolvedModule],
    capacity: int = 8,
    cache: Optional[Cache] = None,
    trace: Optional[Callable[[str], None]] = None,
) -> dict[str, CheckReport]:
    """Check modules given in dependency order, one at a time.

    A module with a failed import is not checked.  With a cache, a module
    whose report key hits is neither parsed nor checked: its report is
    reused.  A module that checks ``ok`` also stores its own environment
    entries under its report key, before its report.  A module checked
    later that imports one read from the cache loads that module's entries
    from there (`kernel.build_env`), without parsing it; entries that are
    missing or damaged are a corrupt entry, and that module is checked
    again, which stores them again.  The solver, with ``trace`` as its
    query log, is made for the first module checked.
    """
    reports: dict[str, CheckReport] = {}
    interfaces: dict[str, Optional[str]] = {}
    keys: dict[str, str] = {}
    envs: dict[str, dict] = {}
    solver = None

    def imported_env(resolved: ResolvedModule) -> dict:
        env: dict = {}
        for imp in resolved.imports:
            if imp not in envs:  # imp's report came from the cache
                envs[imp] = load_env(modules[imp])
            env.update(envs[imp])
        return env

    def load_env(resolved: ResolvedModule) -> dict:
        from .kernel import build_env

        env = imported_env(resolved)
        loaded = cache.load_env(
            keys[resolved.name], lambda entries: build_env(entries, env))
        _warn_if_corrupt(cache, resolved.name, "rechecking")
        if loaded is None:
            check(resolved)
            loaded = envs[resolved.name]
        return loaded

    def check(resolved: ResolvedModule) -> CheckReport:
        nonlocal solver
        from .kernel import check_module, dump_entries

        if solver is None:
            from .topes import Solver

            solver = Solver(capacity=capacity, trace=trace)
        name = resolved.name
        module = resolved.parse()
        env = imported_env(resolved)
        report, envs[name] = check_module(
            module, env, solver, parse_diagnostics=resolved.parse_diagnostics)
        if cache is not None:
            # check_module extends env with the module's own entries, in order
            own = list(itertools.islice(envs[name].values(), len(env), None))
            interfaces[name] = None
            if report.ok:
                interfaces[name] = interface_hash(
                    [interfaces[imp] for imp in resolved.imports], own)
                cache.store_env(keys[name], dump_entries(own))
            cache.store(keys[name], report, interfaces[name])
        return report

    for name, resolved in modules.items():
        failed_imports = sorted(
            imp for imp in resolved.imports if reports[imp].status != "ok")
        if failed_imports:
            report = CheckReport(module=name, status="failed")
            report.diagnostics.append(Diagnostic(
                "error", "IMPORT",
                f"imports failed to check: {', '.join(failed_imports)}",
                resolved.path, (0, 0)))
            reports[name] = report
            continue
        if cache is not None:
            keys[name] = module_key(
                resolved.key, [interfaces[imp] for imp in resolved.imports])
            hit = cache.load(keys[name])
            _warn_if_corrupt(cache, name, "rechecking")
            if hit is not None:
                reports[name], interfaces[name] = hit
                continue
        reports[name] = check(resolved)
    return reports


def run(config: RunConfig) -> int:
    """Check the target modules; return the process exit code."""
    out = sys.stdout
    cache = None if config.no_cache else Cache(config.cache_dir, config.capacity)
    trace_lines: list[str] = []
    try:
        modules = resolve(config.targets, config.search_paths, cache)
        reports = check_modules(
            modules, config.capacity, cache,
            trace_lines.append if config.trace_tope else None)
    except ResolveError as e:
        print(f"error[IMPORT]: {e.message}", file=sys.stderr)
        return 2
    except OSError as e:  # sources that cannot be read are ResolveErrors
        print(f"error: cannot write the cache directory {config.cache_dir}: "
              f"{e.strerror}", file=sys.stderr)
        return 2

    failed = False
    for name in sorted(reports):
        report = reports[name]
        if report.status != "ok":
            failed = True
        if config.json_output:
            print(json.dumps(report.to_json(), sort_keys=True), file=out)
        else:
            for d in report.diagnostics:
                print(render(d, modules[name].source), file=out)
            print(
                f"{name}: {report.status} "
                f"({report.declarations_checked} declarations, "
                f"{report.solver_queries} solver queries)",
                file=out)
    for line in trace_lines:
        print(line, file=out)
    return 1 if failed else 0


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "check":
        argv = argv[1:]
    ap = argparse.ArgumentParser(
        prog="stt", description="Check .stt proof modules.")
    ap.add_argument("targets", nargs="+", help="source files to check")
    ap.add_argument("--json", action="store_true", dest="json_output",
                    help="emit one JSON object per module")
    ap.add_argument("--trace-tope", action="store_true",
                    help="log every tope entailment query")
    ap.add_argument("--capacity", type=int, default=8, metavar="N",
                    help="interval-variable bound for the tope solver")
    ap.add_argument("--no-cache", action="store_true")
    ap.add_argument("--cache-dir", default=".stt-cache")
    ap.add_argument("--path", action="append", default=[], metavar="DIR",
                    help="additional module search directory (repeatable)")
    try:
        args = ap.parse_args(argv)
    except SystemExit:
        return 2
    search = list(args.path)
    env_path = os.environ.get("STT_PATH")
    if env_path:
        search.extend(p for p in env_path.split(os.pathsep) if p)
    try:
        config = RunConfig(
            targets=args.targets,
            search_paths=search,
            json_output=args.json_output,
            trace_tope=args.trace_tope,
            capacity=args.capacity,
            no_cache=args.no_cache,
            cache_dir=args.cache_dir,
        )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        code = run(config)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`stt check ... | head -1`): an I/O
        # error.  Output still buffered goes to the null device, so the
        # interpreter's own flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
