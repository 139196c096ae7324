"""What the benchmark knows about the corpus, read from its text alone.

The import graph comes from the ``import`` lines and the declaration count
of each unit from its top-level ``def``/``postulate`` heads.  From these
the benchmark predicts every module's status, diagnostic codes and
declaration count for a clean corpus and for each seeded edit, and checks
the ``--json`` report of ``stt check`` against the prediction.
"""

from __future__ import annotations

import json
import os
import re

ENTRY = "all"
_IMPORT = re.compile(r"^import\s+([^\s;]+)\s*;", re.M)
_HEAD = re.compile(r"^(?:def|postulate)\b", re.M)

COMMENT, DECLARATION, BROKEN = "comment", "declaration", "broken"

# One round of corpus-edit: each kind of edit at two depths of the import
# DAG, in the middle and near the leaves.  A comment or declaration at the
# root rechecks the whole corpus, which corpus-cold already measures; this
# mix keeps a round near 12 s on the 2-vCPU machine the benchmark was
# written on.
EDIT_ROUND = (
    ("prelude", BROKEN), ("segal_rezk", BROKEN),
    ("inner", COMMENT), ("mates_appendix", COMMENT),
    ("cocart", DECLARATION), ("ext_laws", DECLARATION),
)

# Well-typed declarations that use only built-in formers; the binder names
# are not top-level names anywhere in the corpus.
WELL_TYPED = (
    "def {n} (A0 : U) (a0 : A0) : A0 := a0;",
    "def {n} (A0 : U) (B0 : U) (f0 : A0 -> B0) (a0 : A0) : B0 := f0 a0;",
    "def {n} (A0 : U) (a0 : A0) : Id A0 a0 a0 := refl a0;",
    "def {n} (A0 : U) (a0 : A0)\n  : <Pi (t : {{t : I | TOP}}) -> A0 | t == 0 |-> a0> := \\t . a0;",
    "def {n} (A0 : U) (B0 : A0 -> U) (a0 : A0) (b0 : B0 a0)\n  : Sigma (x0 : A0) . B0 x0 := (a0, b0);",
    "def {n} (A0 : U) (p0 : A0 * A0) : A0 := fst p0;",
    "def {n} (A0 : U) (a0 : A0) : (t : {{(t,s) : I * I | s <= t}}) -> A0 := \\t . a0;",
)

# Declarations that do not parse (but lex): each gives a PARSE diagnostic.
BROKEN_FORMS = (
    "def {n} : U := ;",
    "def {n} (A0 : U : A0 := A0;",
    "def {n} : := U;",
    "def {n} U;",
    "def {n} : U := (U;",
)


def scan(corpus_dir: str) -> dict[str, dict]:
    """Every unit of the corpus: its text, imports and declaration count."""
    units = {}
    for fname in sorted(os.listdir(corpus_dir)):
        if not fname.endswith(".stt"):
            continue
        with open(os.path.join(corpus_dir, fname), encoding="utf-8") as fh:
            text = fh.read()
        units[fname[:-4]] = {
            "text": text,
            "imports": _IMPORT.findall(text),
            "declarations": len(_HEAD.findall(text)),
        }
    return units


def importers(units: dict[str, dict], name: str) -> set[str]:
    """The units that import ``name``, directly or transitively."""
    out: set[str] = set()
    frontier = [name]
    while frontier:
        target = frontier.pop()
        for unit, info in units.items():
            if target in info["imports"] and unit not in out:
                out.add(unit)
                frontier.append(unit)
    return out


def clean_prediction(units: dict[str, dict]) -> dict[str, dict]:
    return {
        name: {"status": "ok", "codes": [], "declarations": info["declarations"]}
        for name, info in units.items()
    }


def edit_prediction(units: dict[str, dict], unit: str, kind: str,
                    added: int) -> dict[str, dict]:
    """The report an edit of ``unit`` must produce (declarations=None: not
    predicted).  A broken declaration fails its unit with PARSE, while the
    unit's other declarations still check, and fails every unit that
    imports it with IMPORT; any other edit keeps every module ok."""
    expected = clean_prediction(units)
    if kind != BROKEN:
        expected[unit]["declarations"] += added
        return expected
    expected[unit] = {"status": "failed", "codes": ["PARSE"],
                      "declarations": units[unit]["declarations"]}
    for name in importers(units, unit):
        expected[name] = {"status": "failed", "codes": ["IMPORT"],
                          "declarations": None}
    return expected


def exit_code(expected: dict[str, dict]) -> int:
    return 0 if all(e["status"] == "ok" for e in expected.values()) else 1


def compare(stdout: str, expected: dict[str, dict]) -> list[str]:
    """Differences between a ``--json`` report and the prediction."""
    got = {}
    for line in stdout.splitlines():
        if line.strip():
            record = json.loads(line)
            got[record["module"]] = record
    problems = []
    if sorted(got) != sorted(expected):
        problems.append(f"modules {sorted(got)} != {sorted(expected)}")
    for name in sorted(set(got) & set(expected)):
        record, want = got[name], expected[name]
        codes = sorted({d["code"] for d in record["diagnostics"]})
        if record["status"] != want["status"] or codes != want["codes"]:
            problems.append(f"{name}: {record['status']} {codes}, "
                            f"expected {want['status']} {want['codes']}")
        count = record["stats"]["declarations_checked"]
        if want["declarations"] is not None and count != want["declarations"]:
            problems.append(f"{name}: {count} declarations checked, "
                            f"expected {want['declarations']}")
    return problems


def apply_edit(rng, text: str, kind: str, tag: str) -> tuple[str, int]:
    """One seeded edit of a unit's text; returns the new text and the number
    of declarations it adds.  Comments go at any line boundary, declarations
    before a top-level head or at the end."""
    lines = text.split("\n")
    if kind == COMMENT:
        at = rng.randrange(len(lines) + 1)
        note = f"-- edit {tag}: {rng.getrandbits(48):012x}"
        return "\n".join(lines[:at] + [note] + lines[at:]), 0
    heads = [i for i, line in enumerate(lines) if _HEAD.match(line)]
    at = rng.choice(heads + [len(lines)])
    if kind == DECLARATION:
        count = rng.randint(1, 2)
        block = [rng.choice(WELL_TYPED).format(n=f"bench_{tag}_{j}")
                 for j in range(count)]
    else:
        count = 0
        block = [rng.choice(BROKEN_FORMS).format(n=f"bench_{tag}")]
    return "\n".join(lines[:at] + block + [""] + lines[at:]), count
