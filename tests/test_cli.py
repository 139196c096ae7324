"""CLI driver: exit codes, JSON output, resolution, cache behavior."""

import contextlib
import glob
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS, NEGATIVE, REPO
from fuzz_edits import EDITS, edited, token_units
from stt.syntax import allow_deep_recursion

GOLDEN_STT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden_eq.stt")
GOLDEN_OUT = os.path.join(os.path.dirname(GOLDEN_STT), "golden_eq.out")
GOLDEN_UNFOLDING_OUT = os.path.join(os.path.dirname(GOLDEN_STT), "golden_eq_unfolding.out")


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def record_stores(monkeypatch) -> list[str]:
    """The list to which each later `Cache.store` appends its module's
    name."""
    from stt.cache import Cache

    stored = []
    store = Cache.store

    def recording_store(self, key, report, *rest):
        stored.append(report.module)
        store(self, key, report, *rest)

    monkeypatch.setattr(Cache, "store", recording_store)
    return stored


def record_checks(monkeypatch) -> list[str]:
    """The list to which each later `Checker.check_declaration` appends the
    name of its declaration."""
    from stt.kernel import Checker

    checked = []
    check_declaration = Checker.check_declaration

    def recording_check(self, decl):
        checked.append(decl.name)
        return check_declaration(self, decl)

    monkeypatch.setattr(Checker, "check_declaration", recording_check)
    return checked


# well-typed declarations that mention no corpus name
WELL_TYPED = (
    "def {n} (A0 : U) (a0 : A0) : A0 := a0;",
    "def {n} (A0 : U) (a0 : A0) : Id A0 a0 a0 := refl a0;",
    "def {n} (A0 : U) (p0 : A0 * A0) : A0 := fst p0;",
    "def {n} (A0 : U) (a0 : A0) : (t : {{(t,s) : I * I | s <= t}}) -> A0 := \\t . a0;",
)
EDIT_TRIALS = 20


# `main` raises the recursion limit; raising it before any fuzz example
# runs keeps Hypothesis from warning that it stays raised
allow_deep_recursion()
# small corpus modules that import nothing, as token lists
FUZZ_SEEDS = [token_units(os.path.join(CORPUS, name))
              for name in ("shapes.stt", "prelude.stt")]

FUZZ_SOURCES = st.one_of(
    st.binary(max_size=300),
    st.builds(lambda seed, edits: edited(seed, edits).encode("utf-8"),
              st.sampled_from(FUZZ_SEEDS), EDITS),
)


def run_python(*args):
    """Run a fresh interpreter with the package on its path."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env)


class TestExitCodes:
    def test_ok_module(self, run_cli, tmp_path):
        f = write(tmp_path, "ok.stt", "def a : U := {t : I | TOP};\n")
        code, out, _ = run_cli(f)
        assert code == 0 and "ok: ok" in out

    def test_check_error(self, run_cli, tmp_path):
        f = write(tmp_path, "bad.stt",
                  "postulate X : U;\npostulate Y : U;\n"
                  "postulate y0 : Y;\ndef b : X := y0;\n")
        code, out, _ = run_cli(f)
        assert code == 1 and "error[CHECK]" in out

    def test_missing_file(self, run_cli, tmp_path):
        code, _, err = run_cli(str(tmp_path / "absent.stt"))
        assert code == 2 and "IMPORT" in err

    def test_import_cycle(self, run_cli):
        code, _, err = run_cli(os.path.join(NEGATIVE, "cycle_a.stt"))
        assert code == 2 and "cycle" in err

    def test_unresolvable_import(self, run_cli):
        code, _, err = run_cli(os.path.join(NEGATIVE, "missing_import.stt"))
        assert code == 2

    def test_bad_usage(self, run_cli):
        code, _, _ = run_cli("--capacity")
        assert code == 2

    def test_internal_error_exits_3(self, run_cli, tmp_path, monkeypatch):
        import stt.cli

        def broken(*args, **kwargs):
            raise RuntimeError("no such state\nat all")

        monkeypatch.setattr(stt.cli, "check_modules", broken)
        f = write(tmp_path, "ok.stt", "def a : U1 := U;\n")
        assert run_cli(f) == (
            3, "", "error[INTERNAL]: RuntimeError('no such state\\nat all')\n")

    def test_exit_code_matrix(self, run_cli, tmp_path):
        """Seeded files exercising the 0/1/2 contract together."""
        good = write(tmp_path, "g.stt", "def a : U := {t : I | TOP};\n")
        bad = write(tmp_path, "b.stt", "def broken : :=;\n")
        assert run_cli(good)[0] == 0
        assert run_cli(bad)[0] == 1
        assert run_cli(good, bad)[0] == 1
        assert run_cli(str(tmp_path / "none.stt"))[0] == 2


class TestRobustness:
    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["human", "json"])
    def test_deep_nesting_is_a_parse_error(self, tmp_path, flags):
        depth = 20_000
        f = write(tmp_path, "deep.stt",
                  "def a : U1 := U;\n"
                  "def x : U := " + "(" * depth + "U" + ")" * depth + ";\n")
        proc = run_python("-m", "stt.cli", "check", f, "--no-cache", *flags)
        assert proc.returncode == 1
        assert proc.stderr == ""
        if flags:
            (obj,) = [json.loads(line) for line in proc.stdout.splitlines()]
            assert [(d["code"], d["message"]) for d in obj["diagnostics"]] == [
                ("PARSE", "nesting too deep")]
            assert obj["stats"]["declarations_checked"] == 1
        else:
            assert "error[PARSE]: nesting too deep" in proc.stdout
            assert "deep: failed (1 declarations" in proc.stdout
            # the excerpt of the 40,015-column line is clipped to 120 columns
            after_header = proc.stdout.splitlines()[1:]
            assert max(len(line) for line in after_header) <= len("    ") + 120

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["human", "json"])
    def test_checking_too_deep_is_a_check_error(self, tmp_path, flags):
        arrows = 40_000
        f = write(tmp_path, "deep.stt",
                  "def x : U1 := " + "U -> " * arrows + "U;\n"
                  "def a : U1 := U;\n")
        proc = run_python("-m", "stt.cli", "check", f, "--no-cache", *flags)
        assert proc.returncode == 1
        assert proc.stderr == ""
        if flags:
            (obj,) = [json.loads(line) for line in proc.stdout.splitlines()]
            assert [(d["code"], d["message"], d["span"]["start"], d["span"]["end"])
                    for d in obj["diagnostics"]] == [
                ("CHECK", "in 'x': nesting too deep to check", 0, 3)]
            assert obj["stats"]["declarations_checked"] == 1
        else:
            assert "deep.stt:1:1: error[CHECK]: in 'x': nesting too deep to check" in proc.stdout
            assert proc.stdout.endswith("deep: failed (1 declarations, 1 solver queries)\n")

    @pytest.mark.parametrize("universe", ["U₁", "U1²", "U" + "7" * 5000],
                             ids=["subscript", "superscript", "5000-digits"])
    def test_universe_literals_end_in_diagnostics(self, run_cli, tmp_path, universe):
        """`U₁` and `U1²` are identifiers, and a level of more than
        `MAX_LEVEL_DIGITS` digits is a parse error at the literal."""
        f = write(tmp_path, "m.stt", f"def a : {universe} := U;\n")
        for flags in ([], ["--json"]):
            code, out, err = run_cli(f, *flags)
            assert (code, err) == (1, "")
            assert "INTERNAL" not in out
        (diag,) = json.loads(out)["diagnostics"]
        if len(universe) > 3:
            assert (diag["code"], diag["message"]) == ("PARSE", "universe level too large")
            assert (diag["span"]["start"], diag["span"]["end"]) == (8, 8 + len(universe))
        else:
            assert diag["message"] == f"in 'a': unknown identifier {universe!r}"

    def test_parser_alone_parses_deep_nesting(self):
        proc = run_python("-c", (
            "import stt.parser\n"
            "depth = 300\n"
            "src = 'def x : U := ' + '(' * depth + 'U' + ')' * depth + ';'\n"
            "module, diags = stt.parser.parse_module(src)\n"
            "print(len(module.declarations), len(diags))"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "0"]

    def test_deep_file_checks_with_cold_and_warm_cache(self, tmp_path):
        depth = 2_000
        f = write(tmp_path, "deep.stt",
                  "def x : U1 := " + "(" * depth + "U" + ")" * depth + ";\n")
        cache = str(tmp_path / "cache")
        for _ in ("cold", "warm"):
            proc = run_python("-m", "stt.cli", "check", f, "--cache-dir", cache)
            assert (proc.returncode, proc.stderr) == (0, "")
            assert proc.stdout.startswith("deep: ok (1 declarations")

    def test_undecodable_source_is_a_resolve_error(self, run_cli, tmp_path):
        f = tmp_path / "bad.stt"
        f.write_bytes(b"def a : U1 := U;\n-- \xff\xfe\n")
        code, out, err = run_cli(str(f))
        assert (code, out) == (2, "")
        assert err == f"error[IMPORT]: cannot read {f}: not UTF-8 (byte 20)\n"

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-file"])
    def test_cache_dir_that_is_not_a_directory_is_an_io_error(
            self, run_cli, tmp_path, sub):
        f = write(tmp_path, "ok.stt", "def a : U1 := U;\n")
        (tmp_path / "notadir").write_text("")
        cache_dir = os.path.join(tmp_path / "notadir", sub)
        code, out, err = run_cli(f, cache_dir=cache_dir)
        assert (code, out) == (2, "")
        assert err.startswith(
            f"error: cannot write the cache directory {cache_dir}: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_empty_cache_dir_is_a_usage_error(self, run_cli, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "ok.stt", "def a : U1 := U;\n")
        assert run_cli("ok.stt", cache_dir="") == (
            2, "", "error: the cache directory must not be empty\n")
        assert os.listdir(tmp_path) == ["ok.stt"]
        assert run_cli("ok.stt", "--no-cache", cache_dir="")[0] == 0
        assert os.listdir(tmp_path) == ["ok.stt"]

    def test_leading_byte_order_mark_is_accepted(self, run_cli, tmp_path):
        f = tmp_path / "bom.stt"
        f.write_bytes(b"\xef\xbb\xbfdef a : U1 := U;\n")
        assert run_cli(str(f)) == (0, "bom: ok (1 declarations, 1 solver queries)\n", "")

    @pytest.mark.parametrize("body,code", [("$", "LEX"), ("U", "CHECK")])
    def test_byte_order_mark_keeps_line_and_column(self, run_cli, tmp_path, body, code):
        src = f"def a : U1 := U;\ndef b : U := {body};\n".encode()
        outputs = []
        for bom, folder in [(b"", "plain"), (b"\xef\xbb\xbf", "bom")]:
            (tmp_path / folder).mkdir()
            f = tmp_path / folder / "m.stt"
            f.write_bytes(bom + src)
            exit_code, out, err = run_cli(str(f))
            assert (exit_code, err) == (1, "")
            outputs.append(out.replace(str(f), "m.stt"))
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith(f"m.stt:2:14: error[{code}]")

    def test_closed_stdout_exits_2_quietly(self):
        # the read end is closed before the checker writes, as `| head -1`
        # closes it after one line
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "stt.cli", "check", GOLDEN_STT,
                 "--no-cache", "--trace-tope"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH=os.path.join(REPO, "src")))
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (2, "")

    def test_importing_the_driver_loads_only_the_driver(self):
        """`import stt.cli` is the start-up of every run, so it loads the
        cache and the diagnostics but nothing that checks."""
        proc = run_python("-c", (
            "import sys, stt.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('stt')))"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == repr(
            ["stt", "stt.cache", "stt.cli", "stt.diagnostics"])

    def test_import_leaves_numpy_out(self):
        proc = run_python(
            "-c", "import sys, stt.cli; print('numpy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @settings(max_examples=200, deadline=None)
    @given(FUZZ_SOURCES)
    def test_fuzzed_sources_end_in_diagnostics(self, data):
        from stt.cli import main

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.stt")
            with open(path, "wb") as fh:
                fh.write(data)
            for flags in ([], ["--json"]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([path, "--no-cache", *flags])
                out, err = out.getvalue(), err.getvalue()
                assert code in (0, 1, 2), err
                assert "Traceback" not in out + err
                assert all(line.startswith(("error", "warning:"))
                           for line in err.splitlines()), err
                if flags:
                    for line in out.splitlines():
                        assert set(json.loads(line)) == {
                            "module", "status", "diagnostics", "stats"}


def test_the_package_version_has_one_source():
    """pyproject.toml reads the version from `stt.__version__`, which the
    cache keys hash, rather than repeating it."""
    import tomllib

    with open(os.path.join(REPO, "pyproject.toml"), "rb") as fh:
        config = tomllib.load(fh)
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "stt.__version__"}


class TestImports:
    def test_import_across_files(self, run_cli, tmp_path):
        write(tmp_path, "base.stt", "def X : U := {t : I | TOP};\n")
        f = write(tmp_path, "user.stt",
                  "import base;\ndef f (x : X) : X := x;\n")
        code, out, _ = run_cli(f)
        assert code == 0 and "base: ok" in out and "user: ok" in out

    def test_failed_import_gates_dependents(self, run_cli, tmp_path):
        write(tmp_path, "base.stt", "def broken : :=;\n")
        f = write(tmp_path, "user.stt", "import base;\ndef a : U := {t : I | TOP};\n")
        code, out, _ = run_cli(f)
        assert code == 1
        data = {}
        for line in out.splitlines():
            if line.startswith("base:") or line.startswith("user:"):
                data[line.split(":")[0]] = line
        assert "failed" in data["base"] and "failed" in data["user"]

    def test_search_path_flag(self, run_cli, tmp_path):
        libdir = tmp_path / "lib"
        libdir.mkdir()
        (libdir / "base.stt").write_text("def X : U := {t : I | TOP};\n")
        f = write(tmp_path, "user.stt", "import base;\ndef g (x : X) : X := x;\n")
        code, _, _ = run_cli(f, "--path", str(libdir))
        assert code == 0

    def test_stt_path_env(self, run_cli, tmp_path, monkeypatch):
        libdir = tmp_path / "lib2"
        libdir.mkdir()
        (libdir / "base.stt").write_text("def X : U := {t : I | TOP};\n")
        f = write(tmp_path, "user.stt", "import base;\ndef g (x : X) : X := x;\n")
        monkeypatch.setenv("STT_PATH", str(libdir))
        code, _, _ = run_cli(f)
        assert code == 0


class TestJson:
    def test_schema(self, run_cli, tmp_path):
        f = write(tmp_path, "bad.stt",
                  "postulate X : U;\npostulate Y : U;\n"
                  "postulate y0 : Y;\ndef b : X := y0;\n")
        code, out, _ = run_cli(f, "--json")
        assert code == 1
        objs = [json.loads(line) for line in out.splitlines()]
        assert len(objs) == 1
        obj = objs[0]
        assert set(obj) == {"module", "status", "diagnostics", "stats"}
        assert obj["status"] == "failed"
        d = obj["diagnostics"][0]
        assert set(d) == {"code", "severity", "message", "span"}
        assert set(d["span"]) == {"file", "start", "end"}
        assert set(obj["stats"]) == {"declarations_checked", "solver_queries"}

    def test_one_object_per_module_name_ordered(self, run_cli):
        code, out, _ = run_cli(os.path.join(CORPUS, "all.stt"), "--json")
        assert code == 0
        names = [json.loads(line)["module"] for line in out.splitlines()]
        assert names == sorted(names)
        assert len(names) == 15


class TestSortAndShapeMessages:
    """Shapes and sorts in diagnostics print as concrete syntax, with the
    parentheses a left-nested product needs."""

    @staticmethod
    def messages(run_cli, path) -> list[tuple[str, str]]:
        """(human line, --json message) of each diagnostic of a check."""
        code, out, _ = run_cli(path)
        assert code == 1
        human = [line for line in out.splitlines() if ": error[" in line]
        code, out, _ = run_cli(path, "--json")
        assert code == 1
        (obj,) = [json.loads(line) for line in out.splitlines()]
        found = [d["message"] for d in obj["diagnostics"]]
        assert len(human) == len(found)
        for line, message in zip(human, found):
            assert line.endswith(message)
        return found

    def test_a_shape_prints_as_a_term(self, run_cli, tmp_path):
        f = write(tmp_path, "shape.stt",
                  "def D2 : U := {(t,s) : I * I | s <= t}; postulate A : U; "
                  "postulate f : <Pi (p : D2) -> A | BOT |-> recBOT>; "
                  "def g (t : I) (s : I) : A := f (t , s);\n")
        assert self.messages(run_cli, f) == [
            "in 'g': cube argument (t , s) is not inside the shape "
            "{p : I * I | snd p <= fst p}"]

    def test_a_nested_product_sort_keeps_its_parentheses(self, run_cli, tmp_path):
        f = write(tmp_path, "nested.stt",
                  "def D3 : U := {p : (I * I) * I | TOP};\n"
                  "postulate A : U;\n"
                  "postulate f : <Pi (p : D3) -> A | BOT |-> recBOT>;\n"
                  "def g (t : I) (s : I) (r : I) : A := f (t , (s , r));\n"
                  "def h (q : I * (I * I)) : D3 := q;\n")
        assert self.messages(run_cli, f) == [
            "in 'g': cube argument has sort I * I * I, expected (I * I) * I",
            "in 'h': cube term has sort I * I * I, expected (I * I) * I",
        ]


class TestDeterminism:
    def test_stdout_byte_identical(self, run_cli, tmp_path):
        f = write(tmp_path, "m.stt",
                  "def a : U := {t : I | TOP};\ndef broken : :=;\n")
        out1 = run_cli(f)[1]
        out2 = run_cli(f)[1]
        assert out1 == out2


class TestTrace:
    def test_trace_lines_stable(self, run_cli, tmp_path):
        f = write(tmp_path, "m.stt",
                  "def D : U := {t : I | t == 0 \\/ t == 1};\n")
        out1 = run_cli(f, "--trace-tope")[1]
        out2 = run_cli(f, "--trace-tope")[1]
        assert out1 == out2
        assert any(line.startswith("ENTAILS ") for line in out1.splitlines())

    def test_golden_trace(self, run_cli):
        code, out, err = run_cli(GOLDEN_STT, "--trace-tope")
        assert code == 0
        golden = open(os.path.join(os.path.dirname(GOLDEN_STT), "golden_eq.out")).read()
        assert out + err == golden or out == golden

    def test_golden_trace_unfolding(self, run_cli, unfolding_kernel):
        code, out, err = run_cli(GOLDEN_STT, "--trace-tope")
        assert code == 0
        assert out == open(GOLDEN_UNFOLDING_OUT, encoding="utf-8").read()

    def test_trace_is_a_subsequence_of_the_unfolding_trace(self):
        """Stopping at α-equal sides only leaves queries out: every query of
        the golden trace comes, in the same order, in the trace of the
        kernel that unfolds them.  The first line is the summary."""
        def queries(path):
            return open(path, encoding="utf-8").read().splitlines()[1:]

        new, old = queries(GOLDEN_OUT), queries(GOLDEN_UNFOLDING_OUT)
        rest = iter(old)
        assert all(line in rest for line in new)
        assert (len(new), len(old)) == (756, 934)


class TestCache:
    def test_second_run_hits(self, run_cli, tmp_path):
        f = write(tmp_path, "m.stt", "def a : U := {t : I | TOP};\n")
        cache = tmp_path / "cache"
        code1, out1, _ = run_cli(f, cache_dir=cache)
        code2, out2, _ = run_cli(f, cache_dir=cache)
        assert (code1, out1) == (code2, out2)
        assert any(cache.rglob("*.json"))

    def test_mutation_invalidates_dependents(self, run_cli, tmp_path):
        base = tmp_path / "base.stt"
        base.write_text("def X : U := {t : I | TOP};\n")
        user = write(tmp_path, "user.stt", "import base;\ndef g (x : X) : X := x;\n")
        cache = tmp_path / "cache"
        assert run_cli(user, cache_dir=cache)[0] == 0
        base.write_text("def Y : U := {t : I | TOP};\n")
        code, out, _ = run_cli(user, cache_dir=cache)
        assert code == 1  # g now refers to a missing name

    def test_corrupt_cache_is_miss(self, run_cli, tmp_path):
        f = write(tmp_path, "m.stt", "def a : U := {t : I | TOP};\n")
        cache = tmp_path / "cache"
        run_cli(f, cache_dir=cache)
        for p in cache.rglob("*.json"):
            p.write_text("{ not json")
        code, out, err = run_cli(f, cache_dir=cache)
        assert code == 0
        assert "corrupt" in err

    DUPLICATE = "def a : U1 := U;\ndef a : U1 := U;\n"

    def test_a_cached_report_keeps_its_notes(self, run_cli, tmp_path):
        f = write(tmp_path, "m.stt", self.DUPLICATE)
        cache = tmp_path / "cache"
        fresh = run_cli(f)
        assert "note (" in fresh[1]
        assert run_cli(f, cache_dir=cache) == fresh
        assert run_cli(f, cache_dir=cache) == fresh
        assert run_cli(f, "--json", cache_dir=cache) == run_cli(f, "--json")

    @pytest.mark.parametrize("edit", [
        lambda r: r["diagnostics"][0]["span"].update(start="x"),
        lambda r: r["diagnostics"][0].update(severity=5),
        lambda r: r["diagnostics"][0]["span"].update(file=None),
        lambda r: r.update(module=7),
    ], ids=["start", "severity", "file", "module"])
    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["human", "json"])
    def test_a_mistyped_report_is_a_corrupt_miss(self, run_cli, tmp_path, edit, flags):
        f = write(tmp_path, "m.stt", self.DUPLICATE)
        cache = tmp_path / "cache"
        run_cli(f, *flags, cache_dir=cache)
        (report,) = [p for p in cache.rglob("*.json")
                     if not p.name.endswith((".imports.json", ".records.json"))]
        data = json.loads(report.read_text())
        edit(data)
        report.write_text(json.dumps(data))
        code, out, err = run_cli(f, *flags, cache_dir=cache)
        assert err == "warning: corrupt cache entry for m; rechecking\n"
        assert (code, out) == run_cli(f, *flags)[:2]

    def test_two_writers_of_one_entry_do_not_share_a_temporary_file(
            self, tmp_path, monkeypatch):
        """A second write of the same entry runs between the first write and
        its rename; both must succeed and leave one whole document."""
        import stt.cache

        cache = stt.cache.Cache(str(tmp_path), 8)
        path = str(tmp_path / "ab" / "entry.json")
        replace = os.replace
        second = {"writer": 2, "padding": "x" * 10_000}

        def interleaved(src, dst):
            monkeypatch.setattr(stt.cache.os, "replace", replace)
            cache._write(path, second)
            replace(src, dst)

        monkeypatch.setattr(stt.cache.os, "replace", interleaved)
        cache._write(path, {"writer": 1})
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == {"writer": 1}
        assert os.listdir(tmp_path / "ab") == ["entry.json"]

    def test_same_bytes_in_two_modules_do_not_share_an_entry(self, run_cli, tmp_path):
        a = write(tmp_path, "a.stt", "def x : U1 := U;\n")
        b = write(tmp_path, "b.stt", "def x : U1 := U;\n")
        cache = tmp_path / "cache"
        run_cli(a, "--json", cache_dir=cache)
        code, out, _ = run_cli(b, "--json", cache_dir=cache)
        assert code == 0
        assert json.loads(out)["module"] == "b"

    def test_comment_rechecks_only_its_module(self, run_cli, tmp_path, monkeypatch):
        base = tmp_path / "base.stt"
        base.write_text("def X : U := {t : I | TOP};\n")
        user = write(tmp_path, "user.stt", "import base;\ndef g (x : X) : X := x;\n")
        cache = tmp_path / "cache"
        first = run_cli(user, "--json", cache_dir=cache)
        stored = record_stores(monkeypatch)
        base.write_text(base.read_text() + "-- a comment\n")
        assert run_cli(user, "--json", cache_dir=cache) == first
        assert stored == ["base"]

    def test_interface_change_reaches_importers_of_importers(self, run_cli, tmp_path):
        a = tmp_path / "A.stt"
        a.write_text("def T : U := {t : I | TOP};\n")
        write(tmp_path, "B.stt", "import A;\ndef S : U := T;\n")
        c = write(tmp_path, "C.stt", "import B;\ndef c : S := 0;\n")
        cache = tmp_path / "cache"
        assert run_cli(c, "--json", cache_dir=cache)[0] == 0
        # B's own entry prints the same, but the T it names has changed
        a.write_text("def T : U := {t : I | t == 1};\n")
        cached = run_cli(c, "--json", cache_dir=cache)
        assert cached == run_cli(c, "--json")
        code, out, _ = cached
        reports = {r["module"]: r for r in map(json.loads, out.splitlines())}
        assert code == 1
        assert reports["B"]["status"] == "ok"
        assert [d["code"] for d in reports["C"]["diagnostics"]] == ["CHECK"]

    def test_malformed_header_is_miss(self, run_cli, tmp_path):
        write(tmp_path, "base.stt", "def X : U := {t : I | TOP};\n")
        user = write(tmp_path, "user.stt", "import base;\ndef g (x : X) : X := x;\n")
        cache = tmp_path / "cache"
        code, out, _ = run_cli(user, cache_dir=cache)
        headers = list(cache.rglob("*.imports.json"))
        assert len(headers) == 2
        for p in headers:
            p.write_text(json.dumps({"imports": 5}))
        code2, out2, err = run_cli(user, cache_dir=cache)
        assert code == code2 == 0 and out2 == out
        assert "corrupt" in err

    def test_warm_run_loads_neither_parser_nor_kernel(self, tmp_path):
        write(tmp_path, "base.stt", "def X : U := {t : I | TOP};\n")
        user = write(tmp_path, "user.stt", "import base;\ndef g (x : X) : X := x;\n")
        args = ["check", user, "--cache-dir", str(tmp_path / "cache")]
        assert run_python("-m", "stt.cli", *args).returncode == 0
        proc = run_python("-c", (
            "import sys, stt.cli\n"
            f"code = stt.cli.main({args!r})\n"
            "print(code, sorted(m for m in sys.modules if m.startswith('stt.')))"))
        assert proc.returncode == 0, proc.stderr
        code, loaded = proc.stdout.splitlines()[-1].split(" ", 1)
        assert code == "0"
        for heavy in ("parser", "lexer", "kernel", "topes", "syntax", "printer"):
            assert f"'stt.{heavy}'" not in loaded

    def test_entry_of_an_older_version_is_a_miss(self, run_cli, tmp_path, monkeypatch):
        """A report stored by 0.1.0, whose kernel made more solver queries,
        is checked again, not replayed."""
        import stt
        import stt.cache

        assert stt.__version__ != "0.1.0"
        f = write(tmp_path, "m.stt", "def a : U := {t : I | TOP};\n")
        cache = tmp_path / "cache"
        stored = record_stores(monkeypatch)
        with monkeypatch.context() as old_version:
            old_version.setattr(stt.cache, "__version__", "0.1.0")
            first = run_cli(f, "--json", cache_dir=cache)
            assert run_cli(f, "--json", cache_dir=cache) == first
            assert stored == ["m"]  # the second run under 0.1.0 hit
        assert run_cli(f, "--json", cache_dir=cache) == first
        assert stored == ["m", "m"]

    def chain(self, tmp_path):
        """base <- mid <- user, of which each test writes user; base's one
        declaration holds a generated name (a pair pattern binds one)."""
        write(tmp_path, "base.stt", "def D2 : U := {(t,s) : I * I | s <= t};\n")
        write(tmp_path, "mid.stt", "import base;\ndef E : U := D2;\n")
        return tmp_path / "user.stt", tmp_path / "cache"

    @staticmethod
    def record_tables(cache) -> dict:
        """The record table of each module, by the module of its entries."""
        tables = {}
        for p in cache.rglob("*.records.json"):
            records = json.loads(p.read_text())["records"].values()
            tables[next(r["entry"][2] for r in records if r["entry"])] = p
        return tables

    def test_an_edit_parses_only_the_edited_module(self, run_cli, tmp_path, monkeypatch):
        import stt.parser

        user, cache = self.chain(tmp_path)
        user.write_text("import mid;\ndef g (x : E) : E := x;\n")
        run_cli(str(user), cache_dir=cache)
        assert sorted(self.record_tables(cache)) == ["base", "mid", "user"]
        parsed = []
        parse_module = stt.parser.parse_module

        def recording_parse(source, path="<input>", name=None):
            parsed.append(name)
            return parse_module(source, path, name=name)

        monkeypatch.setattr(stt.parser, "parse_module", recording_parse)
        user.write_text(user.read_text() + "def h (x : E) : E := g x;\n")
        cached = run_cli(str(user), "--json", cache_dir=cache)
        assert parsed == ["user"]
        assert cached == run_cli(str(user), "--json")
        assert [json.loads(line)["stats"]["declarations_checked"]
                for line in cached[1].splitlines()] == [1, 1, 2]

    @pytest.mark.parametrize("damage", ["deleted", "entries", "class"])
    def test_a_missing_or_damaged_env_entry_is_a_corrupt_miss(
            self, run_cli, tmp_path, damage):
        user, cache = self.chain(tmp_path)
        user.write_text("import mid;\ndef g (x : E) : E := x;\n")
        run_cli(str(user), cache_dir=cache)
        mid = self.record_tables(cache)["mid"]
        if damage == "deleted":
            mid.unlink()
        elif damage == "entries":
            mid.write_text(json.dumps({"records": 5}))
        else:
            mid.write_text(mid.read_text().replace('["Var", "D2"]', '["NoSuchNode"]'))
        # a new declaration is checked, which loads the imports' entries
        user.write_text(user.read_text() + "def h (x : E) : E := g x;\n")
        code, out, err = run_cli(str(user), "--json", cache_dir=cache)
        assert (code, out) == run_cli(str(user), "--json")[:2]
        assert err == "warning: corrupt cache entry for mid; rechecking\n"
        # checking mid again stored its entries again
        user.write_text(user.read_text() + "-- a second edit\n")
        assert run_cli(str(user), "--json", cache_dir=cache) == (code, out, "")

    def test_loaded_entries_carry_no_stored_generated_name(self, run_cli, tmp_path):
        from stt.kernel import build_env
        from stt.syntax import encode_term, fresh_name

        user, cache = self.chain(tmp_path)
        user.write_text("import base;\ndef F : U := D2;\n")
        run_cli(str(user), cache_dir=cache)
        records = json.loads(self.record_tables(cache)["base"].read_text())["records"]
        data = [r["entry"] for r in records.values() if r["entry"]]
        stored = {v for entry in data for rows in entry[3:] if rows
                  for row in rows for v in row[1:] if "$" in str(v)}
        assert stored  # the pair pattern's binder

        def names(t):
            return {v for row in encode_term(t) for v in row[1:] if type(v) is str}

        loaded = set()
        for e in build_env(data, {}).values():
            loaded |= names(e.type) | (names(e.value) if e.value else set())
        assert {n for n in loaded if "$" in n} and not (loaded & stored)
        assert fresh_name("p") not in loaded

    def test_warm_and_uncached_runs_open_no_env_entry(self, run_cli, tmp_path, monkeypatch):
        from stt.cache import Cache

        user, cache = self.chain(tmp_path)
        user.write_text("import mid;\ndef F : U := E;\n")
        first = run_cli(str(user), "--json", cache_dir=cache)
        opened = []
        read, write_ = Cache._read, Cache._write
        monkeypatch.setattr(Cache, "_read", lambda self, p: opened.append(p) or read(self, p))
        monkeypatch.setattr(
            Cache, "_write", lambda self, p, d: opened.append(p) or write_(self, p, d))
        assert run_cli(str(user), "--json", cache_dir=cache) == first
        assert opened and not [p for p in opened if p.endswith(".records.json")]
        opened.clear()
        assert run_cli(str(user), "--json") == first
        assert opened == []

    def test_warm_and_uncached_runs_compute_no_declaration_key(
            self, run_cli, tmp_path, monkeypatch):
        import stt.cli

        user, cache = self.chain(tmp_path)
        user.write_text("import mid;\ndef F : U := E;\n")
        first = run_cli(str(user), "--json", cache_dir=cache)
        keyed = []
        key = stt.cli.declaration_key
        monkeypatch.setattr(
            stt.cli, "declaration_key", lambda *a: keyed.append(a) or key(*a))
        assert run_cli(str(user), "--json", cache_dir=cache) == first
        assert run_cli(str(user), "--json") == first
        assert keyed == []
        user.write_text("-- an edit\n" + user.read_text())
        assert run_cli(str(user), "--json", cache_dir=cache)[0] == 0
        assert len(keyed) == 1

    def test_no_cache_bypasses(self, run_cli, tmp_path):
        f = write(tmp_path, "m.stt", "def a : U := {t : I | TOP};\n")
        cache = tmp_path / "cache"
        run_cli(f, cache_dir=cache)
        code, out, _ = run_cli(f)  # --no-cache default in fixture
        assert code == 0

    # -- per-declaration early cutoff ---------------------------------------------

    @staticmethod
    def recheck(run_cli, target, cache, checked) -> list[str]:
        """Check ``target`` with the cache, and with a copy of it made first,
        with ``--json`` and in human form; assert that each output equals the
        ``--no-cache`` one.  Returns the declarations the first run checked."""
        twin = cache.parent / (cache.name + "-twin")
        shutil.rmtree(twin, ignore_errors=True)
        shutil.copytree(cache, twin)
        checked.clear()
        cached = run_cli(str(target), "--json", cache_dir=cache)
        rechecked = list(checked)
        assert cached == run_cli(str(target), "--json")
        assert run_cli(str(target), cache_dir=twin) == run_cli(str(target))
        return rechecked

    def test_a_comment_above_a_failing_declaration_rechecks_nothing(
            self, run_cli, tmp_path, monkeypatch):
        m = tmp_path / "m.stt"
        head = "postulate X : U;\npostulate Y : U;\npostulate y0 : Y;\n"
        m.write_text(head + "def bad : X := y0;\n")
        cache = tmp_path / "cache"
        code, out, _ = run_cli(str(m), "--json", cache_dir=cache)
        (before,) = json.loads(out)["diagnostics"]
        checked = record_checks(monkeypatch)
        comment = "-- a comment\n"
        m.write_text(head + comment + "def bad : X := y0;\n")
        assert self.recheck(run_cli, m, cache, checked) == []
        code, out, _ = run_cli(str(m), "--json", cache_dir=cache)
        (after,) = json.loads(out)["diagnostics"]
        assert code == 1 and after["code"] == before["code"] == "CHECK"
        assert after["span"]["start"] == before["span"]["start"] + len(comment)
        assert after["span"]["end"] == before["span"]["end"] + len(comment)

    def test_a_changed_body_rechecks_the_declarations_that_mention_it(
            self, run_cli, tmp_path, monkeypatch):
        base = tmp_path / "base.stt"
        rest = ("def B : A -> A := \\a . a;\n"
                "def C : U := X;\n")
        base.write_text("postulate X : U;\npostulate Y : U;\n"
                        "def A : U := X;\n" + rest)
        user = write(tmp_path, "user.stt",
                     "import base;\ndef D : A -> A := B;\ndef E : U := C;\n")
        cache = tmp_path / "cache"
        assert run_cli(user, cache_dir=cache)[0] == 0
        checked = record_checks(monkeypatch)
        base.write_text("postulate X : U;\npostulate Y : U;\n"
                        "def A : U := Y;\n" + rest)
        assert self.recheck(run_cli, user, cache, checked) == ["A", "B", "D"]

    def test_a_name_defined_later_in_an_import_rechecks_its_mention(
            self, run_cli, tmp_path, monkeypatch):
        base = tmp_path / "base.stt"
        base.write_text("postulate X : U;\n")
        user = write(tmp_path, "user.stt",
                     "import base;\ndef f : U := X;\ndef g : U := foo;\n")
        cache = tmp_path / "cache"
        assert run_cli(user, cache_dir=cache)[0] == 1
        checked = record_checks(monkeypatch)
        base.write_text("postulate X : U;\ndef foo : U := X;\n")
        assert self.recheck(run_cli, user, cache, checked) == ["foo", "g"]
        assert run_cli(user, cache_dir=cache)[0] == 0

    def test_a_new_clashing_import_declaration_matches_a_fresh_check(
            self, run_cli, tmp_path, monkeypatch):
        write(tmp_path, "a.stt", "postulate X : U;\ndef x : U := X;\n")
        b = tmp_path / "b.stt"
        b.write_text("postulate Y : U;\n")
        user = write(tmp_path, "user.stt",
                     "import a;\nimport b;\ndef u : U := x;\ndef y : U := Y;\n")
        cache = tmp_path / "cache"
        assert run_cli(user, cache_dir=cache)[0] == 0
        checked = record_checks(monkeypatch)
        # b, imported last, wins the name x: u now names a type of U1.  A
        # new clash is in the key of each declaration of user.
        b.write_text("postulate Y : U;\ndef x : U1 := U;\n")
        assert self.recheck(run_cli, user, cache, checked) == ["x", "u", "y"]
        # a name user declares
        b.write_text("postulate Y : U;\ndef x : U1 := U;\ndef y : U := Y;\n")
        assert self.recheck(run_cli, user, cache, checked) == ["y", "y"]
        reports = run_cli(user, "--json", cache_dir=cache)[1].splitlines()
        assert [(d["code"], d["message"]) for d in json.loads(reports[2])["diagnostics"]] == [
            ("CHECK", "in 'u': expected U, inferred U1"),
            ("IMPORT", "in 'y': 'y' is already declared in module 'b'")]

    def test_a_clash_reached_only_by_unfolding_is_in_the_key(
            self, run_cli, tmp_path, monkeypatch):
        """f names only A, which unfolds to B; the B it sees is c's, which
        wins the clash with base's, so a change of c's B reaches f."""
        write(tmp_path, "base.stt", "def B : U1 := U;\n")
        write(tmp_path, "mid.stt", "import base;\ndef A : U1 := B;\n")
        c = tmp_path / "c.stt"
        c.write_text("def B : U1 := U -> U;\n")
        user = write(tmp_path, "user.stt",
                     "import mid;\nimport c;\npostulate X : U;\ndef f : A := X;\n")
        cache = tmp_path / "cache"
        assert run_cli(user, cache_dir=cache)[0] == 1
        checked = record_checks(monkeypatch)
        c.write_text("def B : U1 := U;\n")
        assert self.recheck(run_cli, user, cache, checked) == ["B", "X", "f"]
        assert run_cli(user, cache_dir=cache)[0] == 0

    def test_a_tier_change_reports_a_stray_postulate(self, run_cli, tmp_path, monkeypatch):
        m = tmp_path / "m.stt"
        body = "def idfun (A : U) : A -> A := \\x . x;\npostulate sneaky : U;\n"
        m.write_text("--@tier T2\n" + body)
        cache = tmp_path / "cache"
        assert run_cli(str(m), cache_dir=cache)[0] == 0
        checked = record_checks(monkeypatch)
        m.write_text("--@tier T1\n" + body)
        assert self.recheck(run_cli, m, cache, checked) == ["idfun"]
        code, out, _ = run_cli(str(m), "--json", cache_dir=cache)
        assert code == 1
        assert [d["code"] for d in json.loads(out)["diagnostics"]] == ["TIER"]

    @pytest.mark.parametrize("damage", [
        "{ not json", json.dumps({"records": 5}),
        json.dumps({"records": {"k": {
            "queries": 1, "diagnostics": [["error", "CHECK", "m", 0]], "entry": None}}}),
    ], ids=["json", "records", "record"])
    def test_a_damaged_record_table_is_a_corrupt_miss(
            self, run_cli, tmp_path, monkeypatch, damage):
        m = tmp_path / "m.stt"
        m.write_text("postulate X : U;\ndef f : U := X;\n")
        cache = tmp_path / "cache"
        fresh = run_cli(str(m), "--json", cache_dir=cache)
        (table,) = cache.rglob("*.records.json")
        table.write_text(damage)
        checked = record_checks(monkeypatch)
        m.write_text(m.read_text() + "-- an edit\n")
        code, out, err = run_cli(str(m), "--json", cache_dir=cache)
        assert (code, out) == fresh[:2]
        assert err == "warning: corrupt cache entry for m; rechecking\n"
        assert checked == ["X", "f"]
        # the table was stored again
        m.write_text(m.read_text() + "-- a second edit\n")
        checked.clear()
        assert run_cli(str(m), "--json", cache_dir=cache) == fresh
        assert checked == []

    def test_a_comment_loads_neither_kernel_nor_solver(self, tmp_path):
        write(tmp_path, "base.stt", "def X : U := {t : I | TOP};\n")
        user = tmp_path / "user.stt"
        user.write_text("import base;\ndef g (x : X) : X := x;\n")
        args = ["check", str(user), "--json", "--cache-dir", str(tmp_path / "cache")]
        first = run_python("-m", "stt.cli", *args)
        assert first.returncode == 0, first.stderr
        user.write_text("-- a comment\n" + user.read_text())
        proc = run_python("-c", (
            "import sys, stt.cli\n"
            f"code = stt.cli.main({args!r})\n"
            "print(code, sorted(m for m in sys.modules if m.startswith('stt.')))"))
        assert proc.returncode == 0, proc.stderr
        *out, last = proc.stdout.splitlines()
        code, loaded = last.split(" ", 1)
        assert code == "0" and out == first.stdout.splitlines()
        assert "'stt.parser'" in loaded
        for heavy in ("kernel", "topes", "printer"):
            assert f"'stt.{heavy}'" not in loaded

    def test_edits_in_the_middle_of_corpus_files_match_a_fresh_check(
            self, run_cli, tmp_path):
        """Comments and well-typed declarations inserted between and inside
        the declarations of corpus files, some kept for later trials and
        some undone, so that record tables of other versions are met."""
        work = tmp_path / "corpus"
        shutil.copytree(CORPUS, work)
        cache = tmp_path / "cache"
        target = str(work / "all.stt")
        run_cli(target, cache_dir=cache)
        files = sorted(p.name for p in work.glob("*.stt") if p.name != "all.stt")
        originals = {f: (work / f).read_text() for f in files}
        rng = random.Random(19)
        for trial in range(EDIT_TRIALS):
            name = rng.choice(files)
            lines = (work / name).read_text().split("\n")
            heads = [i for i, line in enumerate(lines)
                     if line.startswith(("def ", "postulate "))]
            kind = rng.choice(["comment", "inner comment", "declaration"])
            if kind == "comment":
                at, new = rng.randrange(len(lines) + 1), [f"-- edit {trial}"]
            elif kind == "inner comment":
                at, new = rng.choice(heads) + 1, [f"  -- edit {trial}"]
            else:
                at = rng.choice(heads)
                new = [rng.choice(WELL_TYPED).format(n=f"edit_{trial}"), ""]
            (work / name).write_text("\n".join(lines[:at] + new + lines[at:]))
            cached = run_cli(target, "--json", cache_dir=cache)
            assert cached == run_cli(target, "--json"), (trial, name, kind)
            if rng.random() < 0.5:
                (work / name).write_text(originals[name])


EXPECTED_NEGATIVE = [
    ("lex_illegal.stt", "LEX", 1),
    ("lex_unterminated.stt", "LEX", 1),
    ("parse_broken.stt", "PARSE", 1),
    ("sort_bad_tope.stt", "SORT", 1),
    ("sort_projection.stt", "SORT", 1),
    ("capacity_blowup.stt", "CAPACITY", 1),
    ("infer_lambda.stt", "INFER", 1),
    ("check_mismatch.stt", "CHECK", 1),
    ("boundary_wrong.stt", "CHECK", 1),
    ("tier_stray_postulate.stt", "TIER", 1),
    ("recor_overlap.stt", "CHECK", 1),
    ("recbot_consistent.stt", "CHECK", 1),
    ("subtope_outside.stt", "CHECK", 1),
]


@pytest.mark.parametrize("name,code,exit_code", EXPECTED_NEGATIVE,
                         ids=[c[0] for c in EXPECTED_NEGATIVE])
def test_negative_corpus(run_cli, name, code, exit_code):
    rc, out, _ = run_cli(os.path.join(NEGATIVE, name), "--json")
    assert rc == exit_code
    codes = {
        d["code"]
        for line in out.splitlines()
        for d in json.loads(line)["diagnostics"]
    }
    assert codes == {code}


VERDICT_FILES = [
    os.path.join(CORPUS, "all.stt"),
    GOLDEN_STT,
    *sorted(glob.glob(os.path.join(NEGATIVE, "*.stt"))),
]


@pytest.mark.parametrize("path", VERDICT_FILES, ids=os.path.basename)
def test_reflexivity_keeps_every_verdict(run_cli, monkeypatch, path):
    """Stopping at α-equal sides changes no module's status, count of
    checked declarations or diagnostics, and no exit code: only the number
    of solver queries."""
    import stt.kernel
    from kernel_oracle import UnfoldingChecker

    def verdicts():
        code, out, err = run_cli(path, "--json")
        reports = [json.loads(line) for line in out.splitlines()]
        for r in reports:
            del r["stats"]["solver_queries"]
        return code, reports, err

    reflexive = verdicts()
    monkeypatch.setattr(stt.kernel, "Checker", UnfoldingChecker)
    assert verdicts() == reflexive
