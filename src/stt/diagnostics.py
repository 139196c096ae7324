"""Structured diagnostics with source spans and caret rendering, and the
report of one checked module.

This module imports nothing of the parser or the kernel, so a run whose
reports all come from the cache can hold and print them without loading
either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(eq=False)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str  # LEX PARSE SORT CAPACITY INFER CHECK IMPORT TIER
    message: str
    file: str
    span: tuple[int, int]
    notes: list[tuple[tuple[int, int], str]] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "span": {"file": self.file, "start": self.span[0], "end": self.span[1]},
        }


@dataclass(eq=False)
class CheckReport:
    module: str
    status: str  # "ok" | "failed"
    diagnostics: list[Diagnostic] = field(default_factory=list)
    declarations_checked: int = 0
    solver_queries: int = 0
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> dict:
        return {
            "module": self.module,
            "status": self.status,
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "stats": {
                "declarations_checked": self.declarations_checked,
                "solver_queries": self.solver_queries,
            },
        }


def line_of(source: str, offset: int) -> tuple[int, int, str]:
    """1-based line number, column and the line's text at a byte offset."""
    offset = max(0, min(offset, len(source)))
    start = source.rfind("\n", 0, offset) + 1
    end = source.find("\n", offset)
    if end < 0:
        end = len(source)
    return source.count("\n", 0, start) + 1, offset - start, source[start:end]


EXCERPT_COLUMNS = 120


def _clip(text: str, col: int) -> tuple[str, int, int]:
    """Cut a source line longer than ``EXCERPT_COLUMNS`` to a window of that
    many columns around ``col``, with ``...`` at each cut end.  Returns the
    excerpt, the column of ``col`` in it and the end of the source text it
    shows (before a trailing ``...``)."""
    if len(text) <= EXCERPT_COLUMNS:
        return text, col, len(text)
    lo = max(0, min(col - EXCERPT_COLUMNS // 2, len(text) - EXCERPT_COLUMNS))
    hi = lo + EXCERPT_COLUMNS
    head = "..." if lo > 0 else ""
    tail = "..." if hi < len(text) else ""
    lo += len(head)
    hi -= len(tail)
    return head + text[lo:hi] + tail, col - lo + len(head), hi - lo + len(head)


def render(diag: Diagnostic, source: Optional[str]) -> str:
    """Human-readable rendering with an excerpt and a caret underline."""
    out = []
    if source is not None:
        line, col, text = line_of(source, diag.span[0])
        out.append(f"{diag.file}:{line}:{col + 1}: {diag.severity}[{diag.code}]: {diag.message}")
        width = max(1, min(diag.span[1], len(source)) - diag.span[0])
        text, col, visible = _clip(text, col)
        out.append(f"    {text}")
        width = min(width, max(1, visible - col))
        out.append("    " + " " * col + "^" * width)
    else:
        out.append(f"{diag.file}: {diag.severity}[{diag.code}]: {diag.message}")
    for (nspan, ntext) in diag.notes:
        if source is not None:
            nline, ncol, _ = line_of(source, nspan[0])
            out.append(f"  note ({diag.file}:{nline}:{ncol + 1}): {ntext}")
        else:
            out.append(f"  note: {ntext}")
    return "\n".join(out)
