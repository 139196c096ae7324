"""Content-hash build cache for check results.

Keys cover the module's name, its absolute path and its source bytes, the
keys of everything it imports (so any transitive byte change invalidates
dependents), the tool version and the solver capacity.  Two modules with
the same bytes therefore never share a report, whose module name and
diagnostic spans name the file.  Corrupt entries degrade to misses and set
``corrupt`` for the caller to report.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Optional

from . import __version__
from .diagnostics import Diagnostic
from .kernel import CheckReport


def module_key(
    name: str, path: str, source: bytes, import_keys: list[str], capacity: int,
) -> str:
    h = hashlib.sha256()
    h.update(f"stt:{__version__}:capacity={capacity}".encode())
    h.update(b"\x00module\x00")
    h.update(name.encode())
    h.update(b"\x00path\x00")
    h.update(os.path.abspath(path).encode())
    h.update(b"\x00source\x00")
    h.update(source)
    for k in sorted(import_keys):
        h.update(b"\x00import\x00")
        h.update(k.encode())
    return h.hexdigest()


class Cache:
    def __init__(self, root: str):
        self.root = root
        self.hits = 0
        self.misses = 0
        self.corrupt = False

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def load(self, key: str) -> Optional[CheckReport]:
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                data = json.load(fh)
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
            self.hits += 1
            return report
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            self.misses += 1
            self.corrupt = True
            return None

    def store(self, key: str, report: CheckReport) -> None:
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, sort_keys=True)
        os.replace(tmp, path)
