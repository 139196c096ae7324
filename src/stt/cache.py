"""Content-hash build cache for check results, with early cutoff per module
and per declaration.

A module has three hashes, and each of its declarations a fourth:

* Its **source key** covers the tool version, the solver capacity, the
  module's name, its absolute path and its source bytes.  Under it a
  *header* entry records the names the module imports, in order, as the
  parse of those bytes found them, so that a later run resolves imports
  without parsing.
* Its **report key** (``module_key``) is the source key plus the interface
  hash of each import, in the order the module lists its imports.  Under it
  the *report* entry holds the module's report, with the notes of its
  diagnostics that ``--json`` leaves out, and, when the report is ``ok``,
  the module's interface hash and its *exports*: the name and declaration
  key of each of its own declarations that checked, in order.
* A **declaration key** (``declaration_key``) covers the version, the
  capacity, the module's name, path and ``--@tier``, the clash digest of
  its imports (below), the declaration's source text and, for each
  identifier in that text, the hash of the environment entry the name
  resolves to where the declaration stands, or a marker for none.  An
  entry's hash is the key of the declaration that made it, so the key
  covers everything unfolding the declaration's names can reach.  When
  two imports bring different entries under one name, the later one wins,
  and an entry that named the loser now unfolds to the winner; the *clash
  digest* of a module's imports, which covers each such winner and the
  imports' own digests, is in the key for that reason.  It is empty when
  there is no clash.
* Its **interface hash**, once it checks, covers what a dependent can
  observe of it: the interface hashes of its imports, in import order
  (which decides the winner of a name clash when their environments are
  merged), then its own declaration keys in order.

A module's *record table* is stored under a key of its identity (version,
capacity, name and path), and each check that misses a declaration
overwrites it, so one table per module is kept.  It holds a record per
declaration key: the declaration's diagnostics with spans relative to its
start, its solver-query count and, if it checked, its environment entry
(name, kind, module, type and value, each term in the flat JSON form of
``syntax.encode_term``).  A module whose report key misses replays the
record of each declaration whose key is in the table, rebased to where the
declaration now stands, and checks only the others.  Since the table is
written before the report, an ``ok`` report's exports are in it unless a
later check of another version of the module overwrote them.

A change that leaves a module's interface as it was (a comment, say) thus
rechecks that module only, by replay: its dependents' report keys stay the
same.  Two modules with the same bytes never share an entry, since the
module name and the diagnostic spans of a report name the file.  A
malformed entry is a miss and sets ``corrupt`` for the caller to report;
so does a missing record table beside an ``ok`` report with exports.  The
terms of a record are decoded by the kernel, through a fixed table of node
classes, so reading the cache runs no code it holds and this module loads
neither the parser nor the kernel.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from typing import Optional

from . import __version__
from .diagnostics import CheckReport, Diagnostic


# numbers the writes of this process, for their temporary names
_WRITES = itertools.count()


def _digest(*parts: str) -> str:
    """One hash of ``parts``, each length-prefixed so that no two lists of
    parts are hashed alike."""
    h = hashlib.sha256()
    for p in parts:
        b = p.encode()
        h.update(b"%d:" % len(b))
        h.update(b)
    return h.hexdigest()


def _identity(name: str, path: str, capacity: int) -> tuple[str, ...]:
    return (__version__, str(capacity), name, os.path.abspath(path))


def source_key(name: str, path: str, source: str, capacity: int) -> str:
    return _digest("source", *_identity(name, path, capacity), source)


def module_key(skey: str, import_interfaces: list[str]) -> str:
    """The report key: the source key ``skey`` and the imports' interface
    hashes."""
    return _digest("report", skey, *import_interfaces)


def interface_hash(import_interfaces: list[str], own_keys: list[str]) -> str:
    """The interface hash of a module that checked, from its imports'
    interface hashes and the keys of its own declarations that checked, in
    order."""
    return _digest("interface", str(len(import_interfaces)),
                   *import_interfaces, *own_keys)


def declaration_scope(name: str, path: str, capacity: int,
                      tier: Optional[str], clashes: str) -> str:
    """What every declaration key of a module covers besides the
    declaration: the module's identity, its tier and its clash digest."""
    return _digest("scope", *_identity(name, path, capacity), tier or "",
                   clashes)


def declaration_key(scope: str, text: str,
                    mentions: list[Optional[str]]) -> str:
    """The key of a declaration of source ``text`` in a module of
    ``declaration_scope`` ``scope``; ``mentions`` are the hashes of the
    entries its identifiers resolve to, None for a name with no entry."""
    return _digest("declaration", scope, text,
                   *(m or "-" for m in mentions))


def merge_scopes(scopes: list[tuple[dict[str, str], str]]
                 ) -> tuple[dict[str, str], str]:
    """Merge the environments of a module's imports, in import order, each
    given as the hash of the entry of each of its names and its clash
    digest.  Returns the same for the merged environment, in which the later
    of two entries under one name wins.  Its clash digest covers the
    imports' digests and the hash of each entry that won a clash; it is
    empty if these are."""
    merged: dict[str, str] = {}
    digests, winners = [], []
    for names, digest in scopes:
        digests.append(digest)
        winners += [names[n] for n in sorted(names.keys() & merged.keys())
                    if names[n] != merged[n]]
        merged.update(names)
    if not any(digests) and not winners:
        return merged, ""
    return merged, _digest("clashes", *digests, "", *winners)


def make_record(start: int, queries: int, diagnostics: list[Diagnostic],
                entry: Optional[list]) -> dict:
    """The record of a declaration that starts at offset ``start``: its
    solver-query count, its diagnostics with spans made relative to
    ``start``, and its entry in the form of ``kernel.dump_entries``, or None
    if it did not check."""
    return {"queries": queries, "entry": entry, "diagnostics": [
        [d.severity, d.code, d.message, d.span[0] - start, d.span[1] - start]
        for d in diagnostics]}


def replay(record: dict, start: int, path: str) -> list[Diagnostic]:
    """The diagnostics of a record, rebased to a declaration of ``path``
    that now starts at offset ``start``."""
    return [Diagnostic(severity, code, message, path, (start + lo, start + hi))
            for severity, code, message, lo, hi in record["diagnostics"]]


def _diagnostic(d: dict) -> Diagnostic:
    """A diagnostic of a stored report; ValueError if a field has the wrong
    type."""
    span = d["span"]
    text = (d["severity"], d["code"], d["message"], span["file"])
    notes = [((lo, hi), note) for lo, hi, note in d["notes"]]
    if not (all(type(t) is str for t in text)
            and type(span["start"]) is type(span["end"]) is int
            and all(type(lo) is type(hi) is int and type(note) is str
                    for (lo, hi), note in notes)):
        raise ValueError("a malformed diagnostic")
    return Diagnostic(*text, (span["start"], span["end"]), notes)


def _is_record(r: dict) -> bool:
    entry = r["entry"]
    return (type(r["queries"]) is int
            and all(type(s) is type(c) is type(m) is str
                    and type(a) is type(b) is int
                    for s, c, m, a, b in r["diagnostics"])
            and (entry is None or len(entry) == 5))


class Cache:
    """Header, report and record-table entries under ``root``, for one
    solver capacity.  ``hits`` and ``misses`` count report lookups."""

    def __init__(self, root: str, capacity: int):
        self.root = root
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.corrupt = False

    def _path(self, key: str, suffix: str) -> str:
        return os.path.join(self.root, key[:2], key + suffix)

    def _read(self, path: str):
        """The JSON at ``path``, or None if there is no such file.  A root
        that is not a directory holds no entries; writing one fails."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (FileNotFoundError, NotADirectoryError):
            return None

    def _write(self, path: str, data: dict) -> None:
        # one string from the C encoder: json.dump streams through the
        # pure-Python one
        text = json.dumps(data, sort_keys=True)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # a temporary name of this write alone, so that two writers of one
        # entry never replace each other's file
        tmp = f"{path}.{os.getpid()}.{next(_WRITES)}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)

    def load_imports(self, key: str) -> Optional[list[str]]:
        """The import names recorded under a source key, or None."""
        try:
            data = self._read(self._path(key, ".imports.json"))
            if data is None:
                return None
            imports = data["imports"]
            if not (isinstance(imports, list)
                    and all(isinstance(i, str) for i in imports)):
                raise ValueError("imports is not a list of names")
            return imports
        except Exception:  # any damaged entry is a miss
            self.corrupt = True
            return None

    def store_imports(self, key: str, imports: list[str]) -> None:
        self._write(self._path(key, ".imports.json"), {"imports": imports})

    def load(self, key: str
             ) -> Optional[tuple[CheckReport, Optional[str], Optional[list]]]:
        """The report under a report key and, if it is ``ok``, the module's
        interface hash and exports; None on a miss."""
        try:
            data = self._read(self._path(key, ".json"))
            if data is None:
                self.misses += 1
                return None
            stats = data["stats"]
            report = CheckReport(
                module=data["module"],
                status=data["status"],
                diagnostics=[_diagnostic(d) for d in data["diagnostics"]],
                declarations_checked=stats["declarations_checked"],
                solver_queries=stats["solver_queries"],
            )
            if not (type(report.module) is str
                    and report.status in ("ok", "failed")
                    and type(report.declarations_checked) is int
                    and type(report.solver_queries) is int):
                raise ValueError("a malformed report")
            interface = exports = None
            if report.ok:
                interface, exports = data["interface"], data["exports"]
                if not (isinstance(interface, str) and isinstance(exports, list)
                        and all(type(n) is type(k) is str for n, k in exports)):
                    raise ValueError("an ok report without its interface")
            self.hits += 1
            return report, interface, exports
        except Exception:  # any damaged entry is a miss
            self.misses += 1
            self.corrupt = True
            return None

    def store(self, key: str, report: CheckReport, interface: Optional[str],
              exports: Optional[list]) -> None:
        data = report.to_json()
        # the notes are stored here only: `--json` output has none
        for d, diagnostic in zip(data["diagnostics"], report.diagnostics):
            d["notes"] = [[lo, hi, note] for (lo, hi), note in diagnostic.notes]
        if interface is not None:
            data["interface"] = interface
            data["exports"] = exports
        self._write(self._path(key, ".json"), data)

    def _table(self, name: str, path: str) -> str:
        return self._path(
            _digest("records", *_identity(name, path, self.capacity)),
            ".records.json")

    def load_records(self, name: str, path: str) -> Optional[dict]:
        """The record table of a module: records made by `make_record`, by
        declaration key.  None if there is no table; empty, and ``corrupt``
        set, if it is damaged."""
        try:
            data = self._read(self._table(name, path))
            if data is None:
                return None
            records = data["records"]
            if not all(_is_record(r) for r in records.values()):
                raise ValueError("a malformed record")
            return records
        except Exception:  # any damaged entry is a miss
            self.corrupt = True
            return {}

    def store_records(self, name: str, path: str, records: dict) -> None:
        self._write(self._table(name, path), {"records": records})
