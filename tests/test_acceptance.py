"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 1 runs about
a minute of solver/oracle agreement; criterion 7 re-checks the corpus a
few hundred times and is the slow one.
"""

import json
import os
import random
import shutil
import time

import pytest

from conftest import CORPUS, NEGATIVE, DATA
from corpus_harness import corpus_manifest, verify_corpus
from stt.cli import main as cli_main
from stt.kernel import ALLOWED_POSTULATES
from stt.parser import parse_module, parse_term
from stt.printer import print_term
from stt.syntax import (
    Cube0, Cube1, INTERVAL, Join, Meet, TOP, BOT, TopeAnd, TopeEq, TopeLeq,
    TopeOr, Var, alpha_eq,
)
from stt.topes import Solver
from tope_oracle import Shape, oracle_entails, shape_included

I = INTERVAL


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"{criterion} failed: {detail}"


# -- criterion 1: solver vs oracle on 1e5 random queries ---------------------

def _random_query(rng):
    k = rng.randint(1, 4)
    names = [f"v{j}" for j in range(k)]
    leaves = [Cube0(), Cube1()] + [Var(n) for n in names]

    def cube(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(leaves)
        a, b = cube(depth - 1), cube(depth - 1)
        return Meet(a, b) if rng.random() < 0.5 else Join(a, b)

    def tope(depth):
        if depth == 0 or rng.random() < 0.3:
            r = rng.random()
            if r < 0.08:
                return TOP
            if r < 0.14:
                return BOT
            a, b = cube(2), cube(2)
            return TopeEq(a, b) if r < 0.55 else TopeLeq(a, b)
        a, b = tope(depth - 1), tope(depth - 1)
        return TopeAnd(a, b) if rng.random() < 0.5 else TopeOr(a, b)

    ctx = tuple((n, I) for n in names)
    return ctx, tope(5), tope(5)


def test_criterion_1_solver_oracle_agreement():
    rng = random.Random(20260809)
    solver = Solver()
    n = 100_000
    start = time.time()
    disagreements = 0
    for i in range(n):
        ctx, hyps, goal = _random_query(rng)
        if solver.entails(ctx, hyps, goal) != oracle_entails(ctx, hyps, goal):
            disagreements += 1
    elapsed = time.time() - start
    report(
        "1 solver/oracle agreement",
        disagreements == 0 and elapsed < 120.0,
        f"({n} queries, {disagreements} disagreements, {elapsed:.1f}s)")


# -- criterion 2: tope axiom suite -------------------------------------------

def test_criterion_2_tope_axiom_suite():
    s = Solver()
    x, y, z, t = Var("x"), Var("y"), Var("z"), Var("t")
    C1 = (("x", I),)
    C2 = (("x", I), ("y", I))
    C3 = (("x", I), ("y", I), ("z", I))
    checks = []
    checks.append(s.entails(C1, TOP, TopeLeq(x, x)))
    checks.append(s.entails(C3, TopeAnd(TopeLeq(x, y), TopeLeq(y, z)), TopeLeq(x, z)))
    checks.append(s.entails(C2, TopeAnd(TopeLeq(x, y), TopeLeq(y, x)), TopeEq(x, y)))
    checks.append(s.entails(C2, TOP, TopeOr(TopeLeq(x, y), TopeLeq(y, x))))
    checks.append(s.entails(C1, TOP, TopeLeq(Cube0(), x)))
    checks.append(s.entails(C1, TOP, TopeLeq(x, Cube1())))
    checks.append(s.entails((), TopeEq(Cube0(), Cube1()), BOT))
    lattice = [
        (Meet(x, y), Meet(y, x)),
        (Join(x, y), Join(y, x)),
        (Meet(Meet(x, y), z), Meet(x, Meet(y, z))),
        (Join(Join(x, y), z), Join(x, Join(y, z))),
        (Meet(x, Join(x, y)), x),
        (Join(x, Meet(x, y)), x),
        (Meet(x, x), x),
        (Join(x, x), x),
        (Meet(x, Join(y, z)), Join(Meet(x, y), Meet(x, z))),
        (Join(x, Meet(y, z)), Meet(Join(x, y), Join(x, z))),
        (Meet(x, Cube1()), x),
        (Join(x, Cube0()), x),
    ]
    assert len(lattice) == 12
    checks.extend(s.entails(C3, TOP, TopeEq(a, b)) for a, b in lattice)
    # the named inclusions and their false converses
    ts = (("t", I), ("s", I))
    sv = Var("s")
    d1 = Shape((("t", I),), TOP)
    bd1 = Shape((("t", I),), TopeOr(TopeEq(t, Cube0()), TopeEq(t, Cube1())))
    d2 = Shape(ts, TopeLeq(sv, t))
    l21 = Shape(ts, TopeOr(TopeEq(sv, Cube0()), TopeEq(t, Cube1())))
    bd2 = Shape(ts, TopeOr(TopeEq(sv, t), TopeOr(TopeEq(sv, Cube0()), TopeEq(t, Cube1()))))
    checks.append(shape_included(s, bd1, d1))
    checks.append(shape_included(s, l21, d2))
    checks.append(shape_included(s, bd2, d2))
    checks.append(not shape_included(s, d1, bd1))
    checks.append(not shape_included(s, d2, l21))
    checks.append(not shape_included(s, d2, bd2))
    report("2 tope axiom suite", all(checks),
           f"({len(checks)} checks: order axioms, 12 lattice identities, inclusions)")


# -- criterion 3: judgmental-equality golden suite ----------------------------

def test_criterion_3_judgmental_golden_suite(capsys):
    target = os.path.join(DATA, "golden_eq.stt")
    golden_path = os.path.join(DATA, "golden_eq.out")
    n_cases = sum(
        1 for line in open(target, encoding="utf-8")
        if line.startswith("def eq"))
    code1 = cli_main([target, "--no-cache", "--trace-tope"])
    out1 = capsys.readouterr().out
    code2 = cli_main([target, "--no-cache", "--trace-tope"])
    out2 = capsys.readouterr().out
    golden = open(golden_path, encoding="utf-8").read()
    ok = code1 == 0 and code2 == 0 and out1 == out2 == golden and n_cases >= 30
    report("3 judgmental golden suite", ok,
           f"({n_cases} cases, trace byte-stable)")


# -- criterion 4: the corpus ---------------------------------------------------

def test_criterion_4_corpus_checks():
    manifest = corpus_manifest()
    start = time.time()
    result = verify_corpus(manifest)
    elapsed = time.time() - start
    t1_units = [u for u in manifest if u.tier == "T1"]
    # T1 closure: no postulates outside the manifest file
    closure_ok = True
    for u in manifest:
        mod, _ = parse_module(open(u.file).read(), u.file, name=u.name)
        posts = {d.name for d in mod.declarations if d.kind == "postulate"}
        if u.tier == "T1" and posts:
            closure_ok = False
        if u.name == "AXIOMS" and posts != ALLOWED_POSTULATES:
            closure_ok = False
    names = set()
    for u in manifest:
        mod, _ = parse_module(open(u.file).read(), u.file, name=u.name)
        names |= {d.name for d in mod.declarations}
    proved = {"choice_equiv", "ext_char_equiv"} <= names
    stated = {
        "chevalley_lifting_statement", "chevalley_transport_statement",
        "cocart_closure_statement", "cocart_fun_char_statement",
        "cov_inner_statement", "encode_decode_statement",
        "yoneda_statement", "dep_yoneda_statement",
    } <= names
    ok = (result.status == "ok" and elapsed < 60.0 and len(manifest) >= 13
          and closure_ok and proved and stated and len(t1_units) >= 6)
    report("4 corpus check", ok,
           f"({len(manifest)} units, {result.declarations_checked} declarations, "
           f"{elapsed:.1f}s)")


# -- criterion 5: negative corpus ----------------------------------------------

NEGATIVE_EXPECTATIONS = [
    ("lex_illegal.stt", {"LEX"}, 1),
    ("lex_unterminated.stt", {"LEX"}, 1),
    ("parse_broken.stt", {"PARSE"}, 1),
    ("sort_bad_tope.stt", {"SORT"}, 1),
    ("sort_projection.stt", {"SORT"}, 1),
    ("capacity_blowup.stt", {"CAPACITY"}, 1),
    ("infer_lambda.stt", {"INFER"}, 1),
    ("check_mismatch.stt", {"CHECK"}, 1),
    ("boundary_wrong.stt", {"CHECK"}, 1),
    ("tier_stray_postulate.stt", {"TIER"}, 1),
    ("recor_overlap.stt", {"CHECK"}, 1),
    ("recbot_consistent.stt", {"CHECK"}, 1),
    ("subtope_outside.stt", {"CHECK"}, 1),
]


def test_criterion_5_negative_corpus(capsys):
    failures = []
    for name, want_codes, want_exit in NEGATIVE_EXPECTATIONS:
        code = cli_main([os.path.join(NEGATIVE, name), "--no-cache", "--json"])
        out = capsys.readouterr().out
        got_codes = {
            d["code"]
            for line in out.splitlines()
            for d in json.loads(line)["diagnostics"]
        }
        if code != want_exit or got_codes != want_codes:
            failures.append((name, code, got_codes))
    # resolution failures exit 2
    code = cli_main([os.path.join(NEGATIVE, "cycle_a.stt"), "--no-cache"])
    capsys.readouterr()
    if code != 2:
        failures.append(("cycle_a.stt", code, "expected exit 2"))
    code = cli_main([os.path.join(NEGATIVE, "missing_import.stt"), "--no-cache"])
    capsys.readouterr()
    if code != 2:
        failures.append(("missing_import.stt", code, "expected exit 2"))
    n = len(NEGATIVE_EXPECTATIONS) + 2
    report("5 negative corpus", not failures,
           f"({n} seeded errors){' ' + repr(failures) if failures else ''}")


# -- criterion 6: parser round trip ---------------------------------------------

def test_criterion_6_round_trip():
    checked = 0
    # every corpus file
    for name in sorted(os.listdir(CORPUS)):
        if not name.endswith(".stt"):
            continue
        src = open(os.path.join(CORPUS, name), encoding="utf-8").read()
        mod, diags = parse_module(src, name)
        assert not diags
        for decl in mod.declarations:
            for term in filter(None, [decl.stated_type, decl.body]):
                assert alpha_eq(parse_term(print_term(term)), term), (name, decl.name)
                checked += 1
    # 1e4 random ASTs
    from genterms import random_term
    rng = random.Random(99)
    n_random = 10_000
    for i in range(n_random):
        term = random_term(rng, rng.randrange(1, 4))
        printed = print_term(term)
        assert alpha_eq(parse_term(printed), term), printed
        checked += 1
    report("6 parser round trip", True,
           f"({checked} terms: corpus + {n_random} random ASTs)")


# -- criterion 7: cache soundness -------------------------------------------------

MUTATIONS = [
    "comment", "rename_ref", "break_decl", "drop_last", "flip_endpoint",
]


def _mutate(rng, text: str) -> str:
    kind = rng.choice(MUTATIONS)
    if kind == "comment":
        return text + f"\n-- mutation {rng.randrange(10**9)}\n"
    if kind == "rename_ref":
        return text.replace("isContr", "isContrX", 1) if "isContr" in text \
            else text + "\ndef zz_extra : U := no_such_name;\n"
    if kind == "break_decl":
        return text + "\ndef zz_broken : :=;\n"
    if kind == "drop_last":
        idx = text.rfind("\ndef ")
        return text[:idx] + "\n" if idx > 0 else text + "\n-- noop\n"
    if kind == "flip_endpoint":
        return text.replace("t == 0", "t == 1", 1) if "t == 0" in text \
            else text + f"\n-- flip {rng.randrange(100)}\n"
    return text


@pytest.mark.slow
def test_criterion_7_cache_soundness(tmp_path, capsys):
    work = tmp_path / "corpus"
    shutil.copytree(CORPUS, work)
    cache_dir = tmp_path / "cache"
    target = str(work / "all.stt")
    files = sorted(p for p in os.listdir(work) if p.endswith(".stt") and p != "all.stt")
    originals = {f: (work / f).read_text(encoding="utf-8") for f in files}
    rng = random.Random(7)
    # warm the cache
    cli_main([target, "--cache-dir", str(cache_dir)])
    capsys.readouterr()
    trials = 100
    mismatches = []
    start = time.time()
    for i in range(trials):
        victim = rng.choice(files)
        (work / victim).write_text(_mutate(rng, originals[victim]), encoding="utf-8")
        cached_exit = cli_main([target, "--cache-dir", str(cache_dir), "--json"])
        cached_out = capsys.readouterr().out
        fresh_exit = cli_main([target, "--no-cache", "--json"])
        fresh_out = capsys.readouterr().out
        if (cached_exit, cached_out) != (fresh_exit, fresh_out):
            mismatches.append((i, victim, cached_exit, fresh_exit))
        (work / victim).write_text(originals[victim], encoding="utf-8")
    elapsed = time.time() - start
    report("7 cache soundness", not mismatches,
           f"({trials} mutations, {elapsed:.0f}s)"
           + (f" mismatches={mismatches}" if mismatches else ""))
