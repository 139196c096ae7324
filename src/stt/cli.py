"""Command-line driver: resolve imports, check modules, report diagnostics.

Exit codes: 0 all modules check, 1 check errors, 2 usage/IO/resolution
errors, 3 an internal error of the checker.  With ``--json`` one JSON
object per module is emitted, ordered by module name; human output is
likewise flushed in module-name order so runs are byte-stable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from .cache import (
    Cache, declaration_key, declaration_scope, interface_hash, make_record,
    merge_scopes, module_key, replay, source_key,
)
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
            resolved.key = source_key(name, path, source, cache.capacity)
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
    reused.  Any other module is parsed and its declarations taken in order.
    With a cache, a declaration whose key is in the module's record table is
    not checked: its record is replayed, rebased to where the declaration
    stands.  Every other declaration, and without a cache every declaration,
    is checked by `kernel.check_module`.  The kernel, the solver (with
    ``trace`` as its query log) and the decoded environments of the imports
    are loaded at the first declaration checked.  An import whose report
    came from the cache has its entries decoded from its record table
    (`kernel.build_env`): a table that is missing or damaged is a corrupt
    entry, and a table that a check of another version of the import
    overwrote is a plain miss; either way that import is checked again,
    which stores its table again.
    """
    reports: dict[str, CheckReport] = {}
    interfaces: dict[str, Optional[str]] = {}
    keys: dict[str, str] = {}
    # with a cache, the own (name, declaration key) pairs of each ok module,
    # and the entry hash of each name of its environment with its imports'
    # clash digest
    exports: dict[str, Optional[list]] = {}
    scopes: dict[str, tuple[dict[str, str], str]] = {}
    # the decoded environment of a module; or, not yet decoded, its
    # environment up to its last declaration checked (None: its imports') and
    # its own entries after that
    envs: dict[str, dict] = {}
    undecoded: dict[str, tuple[Optional[dict], list]] = {}
    solver = None

    def imports_scope(resolved: ResolvedModule) -> tuple[dict[str, str], str]:
        return merge_scopes([scope(imp) for imp in resolved.imports])

    def scope(name: str) -> tuple[dict[str, str], str]:
        if name not in scopes:
            names, digest = imports_scope(modules[name])
            names.update(exports[name])
            scopes[name] = names, digest
        return scopes[name]

    def imported_env(resolved: ResolvedModule) -> dict:
        env: dict = {}
        for imp in resolved.imports:
            env.update(module_env(modules[imp]))
        return env

    def module_env(resolved: ResolvedModule) -> dict:
        name = resolved.name
        while name not in envs:
            if name not in undecoded:  # its report came from the cache
                load_entries(resolved)
                continue
            env, entries = undecoded.pop(name)
            env = decode(resolved, entries,
                         imported_env(resolved) if env is None else env)
            if env is None:
                check(resolved, {})
            else:
                envs[name] = env
        return envs[name]

    def load_entries(resolved: ResolvedModule) -> None:
        """Read the entries of a module whose report came from the cache
        from its record table, or check the module again if the table has
        lost them."""
        wanted = [key for _, key in exports[resolved.name]]
        records = {}
        if wanted:
            records = cache.load_records(resolved.name, resolved.path)
            if records is None:  # an ok report's table is stored before it
                cache.corrupt, records = True, {}
            _warn_if_corrupt(cache, resolved.name, "rechecking")
        if all(key in records for key in wanted):
            undecoded[resolved.name] = (
                None, [records[key]["entry"] for key in wanted])
        else:
            check(resolved, records)

    def decode(resolved: ResolvedModule, entries: list, env: dict) -> Optional[dict]:
        from .kernel import build_env

        try:
            return build_env(entries, env)
        except Exception:  # a damaged record
            cache.corrupt = True
            _warn_if_corrupt(cache, resolved.name, "rechecking")
            return None

    def check(resolved: ResolvedModule, records: Optional[dict] = None) -> CheckReport:
        """Check a module, replaying what ``records`` (by default its record
        table) holds of it."""
        nonlocal solver
        name, module = resolved.name, resolved.parse()
        report = CheckReport(module=name, status="ok")
        report.diagnostics.extend(resolved.parse_diagnostics)
        if cache is not None:
            names, clashes = imports_scope(resolved)
            within = declaration_scope(
                name, resolved.path, capacity, module.tier, clashes)
            if records is None:
                records = cache.load_records(name, resolved.path) or {}
                _warn_if_corrupt(cache, name, "rechecking")
        table: dict[str, dict] = {}  # the records of this version
        own: list[tuple[str, str]] = []
        env = None
        replayed: list = []  # entries not yet in env
        for decl in module.declarations:
            start = decl.span[0]
            key = record = None
            if cache is not None:
                key = declaration_key(
                    within, module.source[start:decl.span[1]],
                    [names.get(n) for n in decl.idents])
                record = records.get(key)
            if record is None:
                from .kernel import check_module, dump_entries

                if solver is None:
                    from .topes import Solver

                    solver = Solver(capacity=capacity, trace=trace)
                if env is None:
                    env = imported_env(resolved)
                if replayed:
                    env = decode(resolved, replayed, env)
                    if env is None:
                        return check(resolved, {})
                    replayed = []
                part, env = check_module(module, env, solver, [decl])
                diagnostics = part.diagnostics
                queries = part.solver_queries
                entry = env[decl.name] if part.declarations_checked else None
                if key is not None:
                    table[key] = make_record(
                        start, queries, diagnostics,
                        entry and dump_entries([entry])[0])
            else:
                table[key] = record
                diagnostics = replay(record, start, resolved.path)
                queries, entry = record["queries"], record["entry"]
                if entry is not None:
                    replayed.append(entry)
            report.diagnostics.extend(diagnostics)
            report.solver_queries += queries
            if entry is not None:
                report.declarations_checked += 1
                if key is not None:
                    names[decl.name] = key
                    own.append((decl.name, key))
        if any(d.severity == "error" for d in report.diagnostics):
            report.status = "failed"
        undecoded[name] = env, replayed
        if cache is not None:
            interfaces[name] = exports[name] = None
            if report.ok:
                exports[name] = own
                interfaces[name] = interface_hash(
                    [interfaces[imp] for imp in resolved.imports],
                    [key for _, key in own])
                scopes[name] = names, clashes
            if table.keys() - records.keys():
                cache.store_records(name, resolved.path, table)
            cache.store(keys[name], report, interfaces[name], exports[name])
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
                reports[name], interfaces[name], exports[name] = hit
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
    except Exception as e:  # a fault of the checker, whatever the input
        print(f"error[INTERNAL]: {e!r}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
