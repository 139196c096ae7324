"""The shipped formalization corpus, as the tests see it.

Units are `.stt` files under `corpus/`, one per topic, tiered:

  * T1: fully proved, using no postulates beyond the axiom manifest,
  * T2: statements elaborated as types (`def ... : U`), not proved,
  * P:  the axiom manifest itself (`AXIOMS.stt`).

Each file carries structured header comments read here: `--@tier` and
`--@thm <label>` (one per named statement the unit covers).  The tier
rule itself is enforced by `stt.kernel.check_module`; `stt check
corpus/all.stt` checks the corpus with the same driver.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from conftest import CORPUS
from stt.cli import check_modules, resolve
from stt.diagnostics import CheckReport


@dataclass(eq=False)
class CorpusUnit:
    file: str
    name: str
    tier: str  # "T1" | "T2" | "P"
    anchors: list[str] = field(default_factory=list)
    depends_on: list[str] = field(default_factory=list)


def corpus_manifest() -> list[CorpusUnit]:
    """The units `all.stt` imports, in dependency order, with tier, anchors
    and imports read from each file."""
    modules = resolve([os.path.join(CORPUS, "all.stt")], [])
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
