"""The character-by-character tokenizer that `stt.lexer` replaced, kept as
the reference for `tests/test_surface.py`, which asserts that both give the
same tokens, or the same `LexError`, on the corpus and on random strings.

It is the earlier lexer with one change, which `stt.lexer` shares: a
universe is `U` followed by ASCII digits only, so `U₁` and `U1²` are
identifiers.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass

from stt.diagnostics import Diagnostic


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    span: tuple[int, int]


class LexError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


KEYWORDS = {
    "import": "IMPORT",
    "def": "DEF",
    "postulate": "POSTULATE",
    "Pi": "PI",
    "Sigma": "SIGMA",
    "fst": "FST",
    "snd": "SND",
    "Id": "ID",
    "refl": "REFL",
    "idJ": "IDJ",
    "recOR": "RECOR",
    "recBOT": "RECBOT",
    "TOP": "TOPE_TOP",
    "BOT": "TOPE_BOT",
    "I": "CUBE_I",
    "unitpt": "CUBE_STAR",
}

# multi-char operators first; longest match wins
_OPERATORS = [
    ("|->", "MAPSTO"),
    (":=", "DEFEQ"),
    ("->", "ARROW"),
    ("<=", "TOPE_LEQ"),
    ("==", "TOPE_EQ"),
    ("/\\", "MEET"),
    ("\\/", "JOIN"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
    ("{", "LBRACE"),
    ("}", "RBRACE"),
    ("<", "LANGLE"),
    (">", "RANGLE"),
    ("|", "BAR"),
    (",", "COMMA"),
    (":", "COLON"),
    (";", "SEMI"),
    (".", "DOT"),
    ("*", "STAR"),
    ("\\", "LAMBDA"),
]

_UNICODE_OPS = {
    "λ": "LAMBDA",   # λ
    "→": "ARROW",    # →
    "≤": "TOPE_LEQ", # ≤
    "≡": "TOPE_EQ",  # ≡
    "∧": "MEET",     # ∧
    "∨": "JOIN",     # ∨
    "↦": "MAPSTO",   # ↦
    "×": "STAR",     # ×
    "⊤": "TOPE_TOP", # ⊤
    "⊥": "TOPE_BOT", # ⊥
    "Π": "PI",       # Π
    "Σ": "SIGMA",    # Σ
}

_NAME_EXTRA = set("_'′″‴∂")  # primes and ∂
_SCRIPT_DIGITS = set("₀₁₂₃₄₅₆₇₈₉"
                     "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _name_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_" or ch == "∂"


def _name_cont(ch: str) -> bool:
    return (
        ch.isalnum()
        or ch in _NAME_EXTRA
        or ch in _SCRIPT_DIGITS
    )


def tokenize(source: str, path: str = "<input>") -> list[Token]:
    """Lex a whole source file; comments and whitespace are dropped.

    Raises LexError on unterminated comments or illegal characters.
    """
    toks: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if source.startswith("--", i):
            j = source.find("\n", i)
            i = n if j < 0 else j + 1
            continue
        if source.startswith("{-", i):
            depth = 1
            j = i + 2
            while j < n and depth > 0:
                if source.startswith("{-", j):
                    depth += 1
                    j += 2
                elif source.startswith("-}", j):
                    depth -= 1
                    j += 2
                else:
                    j += 1
            if depth > 0:
                raise LexError(Diagnostic(
                    "error", "LEX", "unterminated block comment", path, (i, n)))
            i = j
            continue
        if ch == "0" and not (i + 1 < n and _name_cont(source[i + 1])):
            toks.append(Token("CUBE_ZERO", "0", (i, i + 1)))
            i += 1
            continue
        if ch == "1" and not (i + 1 < n and _name_cont(source[i + 1])):
            toks.append(Token("CUBE_ONE", "1", (i, i + 1)))
            i += 1
            continue
        if ch in _UNICODE_OPS:
            toks.append(Token(_UNICODE_OPS[ch], ch, (i, i + 1)))
            i += 1
            continue
        if _name_start(ch):
            j = i + 1
            while j < n and _name_cont(source[j]) and source[j] not in _UNICODE_OPS:
                j += 1
            text = source[i:j]
            if text == "U" or (text[0] == "U" and text[1:].isascii()
                                and text[1:].isdigit()):
                toks.append(Token("UNIVERSE", text, (i, j)))
            else:
                toks.append(Token(KEYWORDS.get(text, "IDENT"), text, (i, j)))
            i = j
            continue
        for text, kind in _OPERATORS:
            if source.startswith(text, i):
                toks.append(Token(kind, text, (i, i + len(text))))
                i += len(text)
                break
        else:
            name = unicodedata.name(ch, hex(ord(ch)))
            raise LexError(Diagnostic(
                "error", "LEX", f"illegal character {ch!r} ({name})", path, (i, i + 1)))
    toks.append(Token("EOF", "", (n, n)))
    return toks
