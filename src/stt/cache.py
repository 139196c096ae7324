"""Content-hash build cache for check results, with early cutoff.

A module has three hashes:

* Its **source key** covers the tool version, the solver capacity, the
  module's name, its absolute path and its source bytes.  Under it a
  *header* entry records the names the module imports, in order, as the
  parse of those bytes found them, so that a later run resolves imports
  without parsing.
* Its **report key** (``module_key``) is the source key plus the interface
  hash of each import, in the order the module lists its imports.  Under it
  the *report* entry holds the module's report and, when the report is
  ``ok``, the module's interface hash.  An ``ok`` report also has an *env*
  entry under the same key, written just before it: the module's own
  environment entries (name, kind, module, type and value), with each term
  in the flat JSON form of ``syntax.encode_term``.  A later run that checks
  a module importing this one loads them instead of parsing this module.
  Since the key covers the source and everything the module imports, the
  stored entries are the ones checking the module again would make, up to
  the generated names, which loading renames.
* Its **interface hash**, once it checks, covers what a dependent can
  observe of it: the interface hashes of its imports, in import order
  (which decides the winner of a name clash when their environments are
  merged), then its own declarations in order: name, kind, module, printed
  type and printed value.  Chaining the imports' hashes makes it cover the
  whole environment a dependent sees.  Printing renames generated names, so
  the hash does not depend on the fresh-name counter.

A change that leaves a module's interface as it was (a comment, say) thus
rechecks that module only: its dependents' report keys stay the same.  Two
modules with the same bytes never share an entry, since the module name and
the diagnostic spans of a report name the file.  A malformed entry is a
miss and sets ``corrupt`` for the caller to report; so does an env entry
that is missing beside its ``ok`` report.  The terms of an env entry are
decoded by the kernel, through a fixed table of node classes, so reading
the cache runs no code it holds and this module loads neither the parser
nor the kernel.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, Iterable, Optional

from . import __version__
from .diagnostics import CheckReport, Diagnostic


def source_key(name: str, path: str, source: bytes, capacity: int) -> str:
    h = hashlib.sha256()
    h.update(f"stt:{__version__}:capacity={capacity}".encode())
    h.update(b"\x00module\x00")
    h.update(name.encode())
    h.update(b"\x00path\x00")
    h.update(os.path.abspath(path).encode())
    h.update(b"\x00source\x00")
    h.update(source)
    return h.hexdigest()


def module_key(skey: str, import_interfaces: list[str]) -> str:
    """The report key: the source key ``skey`` and the imports' interface
    hashes."""
    h = hashlib.sha256(b"report\x00" + skey.encode())
    for i in import_interfaces:
        h.update(b"\x00import\x00")
        h.update(i.encode())
    return h.hexdigest()


def interface_hash(import_interfaces: list[str], entries: Iterable) -> str:
    """The interface hash of a module that checked, from its imports'
    interface hashes and its own environment entries in declaration order."""
    from .printer import print_term  # only a module just checked is hashed

    h = hashlib.sha256(b"interface")
    for i in import_interfaces:
        h.update(b"\x00import\x00")
        h.update(i.encode())
    for e in entries:
        value = "" if e.value is None else print_term(e.value)
        for part in (e.name, e.kind, e.module, print_term(e.type), value):
            h.update(b"\x00")
            h.update(part.encode())
    return h.hexdigest()


class Cache:
    """Header, report and env entries under ``root``, for one solver capacity.
    ``hits`` and ``misses`` count report lookups."""

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
        tmp = path + ".tmp"
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

    def load(self, key: str) -> Optional[tuple[CheckReport, Optional[str]]]:
        """The report under a report key and, if it is ``ok``, the module's
        interface hash; None on a miss."""
        try:
            data = self._read(self._path(key, ".json"))
            if data is None:
                self.misses += 1
                return None
            report = CheckReport(
                module=data["module"],
                status=data["status"],
                declarations_checked=data["stats"]["declarations_checked"],
                solver_queries=data["stats"]["solver_queries"],
            )
            for d in data["diagnostics"]:
                report.diagnostics.append(Diagnostic(
                    severity=d["severity"],
                    code=d["code"],
                    message=d["message"],
                    file=d["span"]["file"],
                    span=(d["span"]["start"], d["span"]["end"]),
                ))
            interface = data.get("interface") if report.ok else None
            if report.ok and not isinstance(interface, str):
                raise ValueError("an ok report without an interface hash")
            self.hits += 1
            return report, interface
        except Exception:  # any damaged entry is a miss
            self.misses += 1
            self.corrupt = True
            return None

    def load_env(self, key: str, build: Callable[[list], dict]) -> Optional[dict]:
        """What ``build`` makes of the environment entries stored under a
        report key; None, and ``corrupt`` set, if they are missing (an ``ok``
        report's entries are stored before it) or ``build`` raises."""
        try:
            data = self._read(self._path(key, ".env.json"))
            if data is None:
                raise ValueError("an ok report without its entries")
            return build(data["entries"])
        except Exception:  # any damaged entry is a miss
            self.corrupt = True
            return None

    def store_env(self, key: str, entries: list) -> None:
        self._write(self._path(key, ".env.json"), {"entries": entries})

    def store(self, key: str, report: CheckReport,
              interface: Optional[str]) -> None:
        data = report.to_json()
        if interface is not None:
            data["interface"] = interface
        self._write(self._path(key, ".json"), data)
