"""The shipped formalization corpus and its verification harness.

Units are `.stt` files under `corpus/`, one per topic, tiered:

  * T1: fully proved, using no postulates beyond the axiom manifest,
  * T2: statements elaborated as types (`def ... : U`), not proved,
  * P:  the axiom manifest itself (`AXIOMS.stt`).

Each file carries structured header comments parsed here: `--@tier`,
`--@thm <label>` (one per named statement the unit covers).  The tier
rule itself is enforced by `kernel.check_module`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from .cli import check_modules, resolve
from .kernel import ALLOWED_POSTULATES, CheckReport  # noqa: F401 (re-exported)


@dataclass(eq=False)
class CorpusUnit:
    file: str
    name: str
    tier: str  # "T1" | "T2" | "P"
    anchors: list[str] = field(default_factory=list)
    depends_on: list[str] = field(default_factory=list)


def corpus_root(base: Optional[str] = None) -> str:
    """Locate the corpus directory: explicit base, $STT_CORPUS, or the
    repository copy next to the installed package."""
    if base is not None:
        return base
    env = os.environ.get("STT_CORPUS")
    if env:
        return env
    here = os.path.dirname(os.path.abspath(__file__))
    for candidate in (
        os.path.join(os.getcwd(), "corpus"),
        os.path.normpath(os.path.join(here, "..", "..", "corpus")),
    ):
        if os.path.isdir(candidate):
            return candidate
    raise FileNotFoundError("corpus directory not found")


def corpus_manifest(base: Optional[str] = None) -> list[CorpusUnit]:
    """The units `all.stt` imports, in dependency order, with tier, anchors
    and imports read from each file."""
    modules = resolve([os.path.join(corpus_root(base), "all.stt")], [])
    return [
        CorpusUnit(
            file=m.path,
            name=m.name,
            tier=(m.parse().directives.get("tier") or ["T2"])[0],
            anchors=m.parse().directives.get("thm", []),
            depends_on=m.imports,
        )
        for m in modules.values() if m.name != "all"
    ]


def verify_corpus(units: list[CorpusUnit]) -> CheckReport:
    """Check the units and their imports with the driver `stt check` runs,
    and fold the module reports into one."""
    total = CheckReport(module="corpus", status="ok")
    modules = resolve([u.file for u in units], [])
    for report in check_modules(modules).values():
        total.diagnostics.extend(report.diagnostics)
        total.declarations_checked += report.declarations_checked
        total.solver_queries += report.solver_queries
        total.wall_time += report.wall_time
        if report.status != "ok":
            total.status = "failed"
    return total
