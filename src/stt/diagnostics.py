"""Structured diagnostics with source spans and caret rendering."""

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


def line_of(source: str, offset: int) -> tuple[int, int, str]:
    """1-based line number, column and the line's text at a byte offset."""
    offset = max(0, min(offset, len(source)))
    start = source.rfind("\n", 0, offset) + 1
    end = source.find("\n", offset)
    if end < 0:
        end = len(source)
    return source.count("\n", 0, start) + 1, offset - start, source[start:end]


def render(diag: Diagnostic, source: Optional[str]) -> str:
    """Human-readable rendering with an excerpt and a caret underline."""
    out = []
    if source is not None:
        line, col, text = line_of(source, diag.span[0])
        out.append(f"{diag.file}:{line}:{col + 1}: {diag.severity}[{diag.code}]: {diag.message}")
        out.append(f"    {text}")
        width = max(1, min(diag.span[1], len(source)) - diag.span[0])
        width = min(width, max(1, len(text) - col))
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
