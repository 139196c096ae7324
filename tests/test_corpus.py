"""The shipped corpus: manifest structure, tier rules, full verification."""

import os

import pytest

import corpus_harness
from conftest import CORPUS
from corpus_harness import CorpusUnit, corpus_manifest, verify_corpus
from kernel_oracle import check_boundary
from stt.cli import check_modules
from stt.kernel import ALLOWED_POSTULATES
from stt.parser import parse_module
from stt.topes import Solver


@pytest.fixture(scope="module")
def manifest():
    return corpus_manifest()


def test_manifest_size_and_tiers(manifest):
    assert len(manifest) >= 13
    tiers = {u.name: u.tier for u in manifest}
    assert [u for u in manifest if u.tier == "P"] == [
        u for u in manifest if u.name == "AXIOMS"]
    for t1 in ["prelude", "shapes", "hom", "segal_rezk", "ext_laws", "inner", "cocart"]:
        assert tiers[t1] == "T1"
    for t2 in ["orthogonality", "lari", "lari_appendix", "inner",
               "mates_appendix", "covariant", "yoneda"]:
        assert tiers[t2] in ("T1", "T2")


def test_manifest_names_every_corpus_file(manifest):
    files = {f[:-len(".stt")] for f in os.listdir(CORPUS) if f.endswith(".stt")}
    assert sorted(u.name for u in manifest) == sorted(files - {"all"})


def test_dependency_graph_acyclic(manifest):
    seen = set()
    for u in manifest:  # manifest order is a topological order
        assert all(d in seen for d in u.depends_on), u.name
        seen.add(u.name)


def test_anchors_present_and_unique(manifest):
    seen = set()
    for u in manifest:
        assert u.anchors, f"{u.name} has no statement labels"
        for a in u.anchors:
            assert a not in seen, f"label {a!r} repeated across units"
            seen.add(a)


def test_t1_units_postulate_only_manifest_axioms(manifest):
    for u in manifest:
        src = open(u.file, encoding="utf-8").read()
        mod, diags = parse_module(src, u.file, name=u.name)
        assert not diags, u.name
        postulates = {d.name for d in mod.declarations if d.kind == "postulate"}
        if u.tier == "T1":
            assert not postulates, f"{u.name} postulates {postulates}"
        if u.name == "AXIOMS":
            assert postulates == ALLOWED_POSTULATES


# declarations checked and solver queries made by each module on a cold
# check.  A change that must keep every step of the kernel and every query
# of the solver keeps these numbers.  CORPUS_COUNTS pins `Checker`, which
# stops at α-equal sides; UNFOLDING_CORPUS_COUNTS pins
# `kernel_oracle.UnfoldingChecker`, which reduces and compares them, and
# holds the figures the kernel made before it tested reflexivity.  The
# declarations checked are the same in both.
CORPUS_COUNTS = {
    "AXIOMS": (14, 63),
    "prelude": (25, 364),
    "shapes": (22, 59),
    "hom": (15, 745),
    "segal_rezk": (19, 962),
    "ext_laws": (20, 3200),
    "orthogonality": (24, 492),
    "lari": (9, 142),
    "lari_appendix": (16, 615),
    "mates_appendix": (10, 1722),
    "inner": (11, 148),
    "cocart": (48, 1955),
    "covariant": (15, 329),
    "yoneda": (12, 189),
}
UNFOLDING_CORPUS_COUNTS = {
    "AXIOMS": (14, 1109),
    "prelude": (25, 602),
    "shapes": (22, 59),
    "hom": (15, 930),
    "segal_rezk": (19, 5157),
    "ext_laws": (20, 7157),
    "orthogonality": (24, 1009),
    "lari": (9, 242),
    "lari_appendix": (16, 3954),
    "mates_appendix": (10, 11197),
    "inner": (11, 957),
    "cocart": (48, 19762),
    "covariant": (15, 687),
    "yoneda": (12, 2204),
}


def _check_corpus(manifest, monkeypatch):
    """The folded report of the corpus, and each module's (declarations
    checked, solver queries)."""
    reports = {}

    def recording_check_modules(modules):
        reports.update(check_modules(modules))
        return reports

    monkeypatch.setattr(corpus_harness, "check_modules", recording_check_modules)
    report = verify_corpus(manifest)
    assert report.status == "ok", [
        (d.code, d.file, d.message) for d in report.diagnostics]
    return report, {name: (r.declarations_checked, r.solver_queries)
                    for name, r in reports.items()}


def test_full_corpus_checks(manifest, monkeypatch):
    report, counts = _check_corpus(manifest, monkeypatch)
    assert counts == CORPUS_COUNTS
    assert (report.declarations_checked, report.solver_queries) == (260, 10_985)


def test_full_corpus_checks_unfolding(manifest, monkeypatch, unfolding_kernel):
    report, counts = _check_corpus(manifest, monkeypatch)
    assert counts == UNFOLDING_CORPUS_COUNTS
    assert (report.declarations_checked, report.solver_queries) == (260, 55_026)


def test_stray_postulate_rejected(tmp_path, manifest):
    bad = tmp_path / "bad_unit.stt"
    bad.write_text("--@tier T1\npostulate rogue : U;\n")
    units = [CorpusUnit(file=str(bad), name="bad_unit", tier="T1")]
    report = verify_corpus(units)
    assert report.status == "failed"
    assert [d.code for d in report.diagnostics] == ["TIER"]


def test_failed_dependency_gates_unit(tmp_path):
    broken = tmp_path / "broken.stt"
    broken.write_text("def x : U := missing_name;\n")
    user = tmp_path / "user.stt"
    user.write_text("import broken;\ndef y : U := {t : I | TOP};\n")
    units = [
        CorpusUnit(file=str(broken), name="broken", tier="T2"),
        CorpusUnit(file=str(user), name="user", tier="T2", depends_on=["broken"]),
    ]
    report = verify_corpus(units)
    assert report.status == "failed"
    assert any(d.code == "IMPORT" for d in report.diagnostics)


def test_empty_unit_list():
    report = verify_corpus([])
    assert report.status == "ok" and report.declarations_checked == 0


def test_key_results_present(manifest):
    """The proved laws and the stated theorems the corpus promises."""
    declared: dict[str, str] = {}
    kinds: dict[str, str] = {}
    for u in manifest:
        mod, _ = parse_module(open(u.file).read(), u.file, name=u.name)
        for d in mod.declarations:
            declared[d.name] = u.name
            kinds[d.name] = d.kind
    # proved (definition) layer
    for name in [
        "choice_equiv", "ext_char_equiv", "hep", "isSegal", "isRezk",
        "isDisc", "isInnerFam", "isIsoInnerFam", "isCocartArr", "isCocartFam",
        "isCocartFun", "isCocartSection", "free_cocart", "isCovFam",
        "idtoiso", "comp", "iso",
    ]:
        assert kinds.get(name) == "definition", name
    # statement layer (theorems recorded as types)
    for name in [
        "chevalley_lifting_statement", "chevalley_transport_statement",
        "cocart_closure_statement", "cocart_fun_char_statement",
        "cov_inner_statement", "encode_decode_statement",
        "yoneda_statement", "dep_yoneda_statement",
        "mates_correspondence_statement", "lari_characterization_statement",
    ]:
        assert kinds.get(name) == "definition", name
    # axioms
    for name in ["relfunext", "walking_biinv", "walking_biinv_ump"]:
        assert kinds.get(name) == "postulate" and declared[name] == "AXIOMS"


def test_subject_reduction_on_corpus():
    """For corpus definitions with inferable bodies, the inferred type is
    definitionally equal to the stated one."""
    from stt.kernel import Checker, Ctx
    from stt.syntax import Lam, Pair, RecOr, RecBot
    solver = Solver()
    manifest = corpus_manifest()
    envs: dict[str, dict] = {}
    from stt.kernel import check_module
    checked = 0
    for u in manifest:
        mod, _ = parse_module(open(u.file).read(), u.file, name=u.name)
        env: dict = {}
        for dep in u.depends_on:
            env.update(envs[dep])
        report, env_out = check_module(mod, env, solver)
        assert report.status == "ok", u.name
        envs[u.name] = env_out
        ck = Checker(env_out, solver=solver, module=mod)
        for decl in mod.declarations:
            if decl.body is None or decl.telescope:
                continue
            if isinstance(decl.body, (Lam, Pair, RecOr, RecBot)):
                continue
            inferred = ck.infer(Ctx(), decl.body)
            assert ck.def_equal(Ctx(), None, inferred, decl.stated_type), decl.name
            checked += 1
    assert checked >= 10


def test_boundary_soundness_on_corpus():
    """Re-running the boundary check on every checked extension-typed
    definition with a lambda body succeeds."""
    from stt.kernel import Checker, Ctx, check_module
    from stt.syntax import Extension, Lam
    solver = Solver()
    manifest = corpus_manifest()
    envs: dict[str, dict] = {}
    rechecked = 0
    for u in manifest:
        mod, _ = parse_module(open(u.file).read(), u.file, name=u.name)
        env: dict = {}
        for dep in u.depends_on:
            env.update(envs[dep])
        report, env_out = check_module(mod, env, solver)
        envs[u.name] = env_out
        ck = Checker(env_out, solver=solver, module=mod)
        for decl in mod.declarations:
            if decl.body is None or decl.telescope or not isinstance(decl.body, Lam):
                continue
            ty = ck.whnf(Ctx(), decl.stated_type)
            if not isinstance(ty, Extension):
                continue
            partial_fn = Lam(ty.binder, ty.partial)
            assert check_boundary(
                ck, Ctx(), ty.domain, ty.subtope, decl.body, partial_fn), decl.name
            rechecked += 1
    assert rechecked >= 3
