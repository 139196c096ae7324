"""Tokenizer for `.stt` sources.

Every Unicode operator has an ASCII fallback that lexes to the same token
kind: `<=` for ≤, `/\\` `\\/` for ∧ ∨, `==` for ≡, `->` for →,
`|->` for ↦, `\\` for λ, `*` for ×, `TOP`/`BOT` for ⊤/⊥.  Line comments
start with `--`, block comments `{- -}` nest.  Identifiers admit primes and
sub-/superscript digits so names can mirror mathematical usage; a universe
is `U` and ASCII digits, so `U₁` is an identifier.  Each lexical rule is
one alternative of the master pattern `_TOKEN`, tried in order; Python
checks only the first character of a name and the nesting of comments.
"""

from __future__ import annotations

import re
import unicodedata
from typing import NamedTuple

from .diagnostics import Diagnostic


class Token(NamedTuple):
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

_UNICODE_OPS = {
    "λ": "LAMBDA",
    "→": "ARROW",
    "≤": "TOPE_LEQ",
    "≡": "TOPE_EQ",
    "∧": "MEET",
    "∨": "JOIN",
    "↦": "MAPSTO",
    "×": "STAR",
    "⊤": "TOPE_TOP",
    "⊥": "TOPE_BOT",
    "Π": "PI",
    "Σ": "SIGMA",
}

# multi-char operators first, so that the longest match wins
_ASCII_OPS = {
    "|->": "MAPSTO",
    ":=": "DEFEQ",
    "->": "ARROW",
    "<=": "TOPE_LEQ",
    "==": "TOPE_EQ",
    "/\\": "MEET",
    "\\/": "JOIN",
    "(": "LPAREN",
    ")": "RPAREN",
    "{": "LBRACE",
    "}": "RBRACE",
    "<": "LANGLE",
    ">": "RANGLE",
    "|": "BAR",
    ",": "COMMA",
    ":": "COLON",
    ";": "SEMI",
    ".": "DOT",
    "*": "STAR",
    "\\": "LAMBDA",
}

# the kind of every token whose text fixes it
_KINDS = {"0": "CUBE_ZERO", "1": "CUBE_ONE", **_UNICODE_OPS, **_ASCII_OPS}

# `\w` is `str.isalnum()` and `_`, which takes in the script digits; a name
# ends before a Unicode operator, since λ, Π and Σ are letters
_NAME_CHAR = r"[\w'′″‴∂]"
_UNICODE = "[" + "".join(_UNICODE_OPS) + "]"

_TOKEN = re.compile("|".join([
    r"(?P<skip>[ \t\r\n]+|--[^\n]*)",
    r"(?P<block>\{-)",
    rf"(?P<cube>[01](?!{_NAME_CHAR}))",
    rf"(?P<unicode>{_UNICODE})",
    rf"(?P<name>(?:(?!{_UNICODE}){_NAME_CHAR})+)",
    "(?P<ascii>" + "|".join(map(re.escape, _ASCII_OPS)) + ")",
]))

_UNIVERSE = re.compile("U[0-9]*")


def tokenize(source: str, path: str = "<input>") -> list[Token]:
    """Lex a whole source file; comments and whitespace are dropped.

    Raises LexError on unterminated comments or illegal characters.
    """
    toks: list[Token] = []
    match = _TOKEN.match
    i = 0
    n = len(source)
    while i < n:
        m = match(source, i)
        group = m and m.lastgroup
        if group == "skip":
            i = m.end()
        elif group == "block":
            i = _block_comment_end(source, i, path)
        elif group is None or (group == "name" and not (
                source[i].isalpha() or source[i] in "_∂")):
            ch = source[i]
            name = unicodedata.name(ch, hex(ord(ch)))
            raise LexError(Diagnostic(
                "error", "LEX", f"illegal character {ch!r} ({name})", path, (i, i + 1)))
        else:
            text = m.group()
            if group != "name":
                kind = _KINDS[text]
            elif _UNIVERSE.fullmatch(text):
                kind = "UNIVERSE"
            else:
                kind = KEYWORDS.get(text, "IDENT")
            j = m.end()
            toks.append(Token(kind, text, (i, j)))
            i = j
    toks.append(Token("EOF", "", (n, n)))
    return toks


def _block_comment_end(source: str, i: int, path: str) -> int:
    """The offset just past the block comment that opens at ``i``, in which
    `{- -}` pairs nest.  Each mark is searched for once, so the scan is
    linear however deep the nesting."""
    depth, j, closes = 1, i + 2, -1
    while depth:
        if closes < j:
            closes = source.find("-}", j)
            if closes < 0:
                raise LexError(Diagnostic(
                    "error", "LEX", "unterminated block comment", path, (i, len(source))))
        opens = source.find("{-", j, closes + 1)  # `{-}` opens
        if opens < 0:
            depth, j = depth - 1, closes + 2
        else:
            depth, j = depth + 1, opens + 2
    return j
