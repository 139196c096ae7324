"""Token-level mutations of `.stt` sources, shared by the fuzz tests of the
driver and the differential test of the lexer."""

from hypothesis import strategies as st

from stt.lexer import tokenize


def token_units(path: str):
    """The source at ``path`` as a list of its tokens, each with the text
    between it and the token before it, and the text after the last."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    units, end = [], 0
    for tok in tokenize(source, path):
        start, stop = tok.span
        units.append((source[end:start], source[start:stop]))
        end = stop
    return units, source[end:]


def edited(seed, edits) -> str:
    """A seed module after token deletions, duplications and swaps; each
    edit is ``(kind, i, j)``, with ``i`` and ``j`` taken modulo the number
    of tokens."""
    units, tail = seed
    units = list(units)
    for kind, i, j in edits:
        i, j = i % len(units), j % len(units)
        if kind == "delete" and len(units) > 1:
            del units[i]
        elif kind == "duplicate":
            units.insert(i + 1, units[i])
        elif kind == "swap":
            (gap_i, tok_i), (gap_j, tok_j) = units[i], units[j]
            units[i], units[j] = (gap_i, tok_j), (gap_j, tok_i)
    return "".join(gap + tok for gap, tok in units) + tail


# one to four edits, for `edited`
EDITS = st.lists(
    st.tuples(st.sampled_from(["delete", "duplicate", "swap"]),
              st.integers(0, 10**6), st.integers(0, 10**6)),
    min_size=1, max_size=4)
