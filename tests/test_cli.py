"""CLI driver: exit codes, JSON output, resolution, cache behavior."""

import glob
import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import CORPUS, NEGATIVE, REPO

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

    def recording_store(self, key, report, interface):
        stored.append(report.module)
        store(self, key, report, interface)

    monkeypatch.setattr(Cache, "store", recording_store)
    return stored


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

    def test_import_leaves_numpy_out(self):
        proc = run_python(
            "-c", "import sys, stt.cli; print('numpy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


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
    def env_files(cache) -> dict:
        """The env entry of each module, by module name."""
        return {json.loads(p.read_text())["entries"][0][2]: p
                for p in cache.rglob("*.env.json")}

    def test_an_edit_parses_only_the_edited_module(self, run_cli, tmp_path, monkeypatch):
        import stt.parser

        user, cache = self.chain(tmp_path)
        user.write_text("import mid;\ndef g (x : E) : E := x;\n")
        run_cli(str(user), cache_dir=cache)
        assert sorted(self.env_files(cache)) == ["base", "mid", "user"]
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
        mid = self.env_files(cache)["mid"]
        if damage == "deleted":
            mid.unlink()
        elif damage == "entries":
            mid.write_text(json.dumps({"entries": 5}))
        else:
            mid.write_text(mid.read_text().replace('["Var", "D2"]', '["NoSuchNode"]'))
        user.write_text(user.read_text() + "-- an edit\n")
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
        data = json.loads(self.env_files(cache)["base"].read_text())["entries"]
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
        assert opened and not [p for p in opened if p.endswith(".env.json")]
        opened.clear()
        assert run_cli(str(user), "--json") == first
        assert opened == []

    def test_no_cache_bypasses(self, run_cli, tmp_path):
        f = write(tmp_path, "m.stt", "def a : U := {t : I | TOP};\n")
        cache = tmp_path / "cache"
        run_cli(f, cache_dir=cache)
        code, out, _ = run_cli(f)  # --no-cache default in fixture
        assert code == 0


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
