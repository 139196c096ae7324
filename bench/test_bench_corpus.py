"""Tests of the corpus predictions and of the tracing wrappers."""

import json
import os
import random
import subprocess
import sys

import corpus_model as cm
from tracer import Tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")

UNITS = {
    "base": "--@unit base\n\ndef A1 (X : U) (x : X) : X := x;\n\ndef A2 : U1 := U;\n",
    "mid": "import base;\n\ndef B1 (X : U) (x : X) : X := A1 X x;\n",
    "leaf": "import mid;\nimport base;\n\npostulate C1 : U;\n",
    "side": "import base;\n\ndef D1 : U1 := U;\n",
    "all": "import leaf;\nimport side;\n",
}


def _corpus(tmp_path):
    for name, text in UNITS.items():
        (tmp_path / f"{name}.stt").write_text(text)
    return cm.scan(str(tmp_path))


def _report(module, status="ok", codes=(), declarations=0):
    return json.dumps({
        "module": module, "status": status,
        "diagnostics": [{"code": c} for c in codes],
        "stats": {"declarations_checked": declarations},
    })


def test_scan_reads_imports_and_heads(tmp_path):
    units = _corpus(tmp_path)
    assert units["leaf"]["imports"] == ["mid", "base"]
    assert [units[u]["declarations"] for u in ("base", "mid", "leaf", "all")] == [2, 1, 1, 0]
    assert cm.importers(units, "base") == {"mid", "leaf", "side", "all"}
    assert cm.importers(units, "mid") == {"leaf", "all"}


def test_broken_edit_predicts_parse_and_import(tmp_path):
    units = _corpus(tmp_path)
    expected = cm.edit_prediction(units, "mid", cm.BROKEN, 0)
    assert expected["mid"] == {"status": "failed", "codes": ["PARSE"], "declarations": 1}
    assert expected["leaf"]["codes"] == ["IMPORT"] and expected["all"]["codes"] == ["IMPORT"]
    assert expected["base"]["status"] == expected["side"]["status"] == "ok"
    assert cm.exit_code(expected) == 1
    good = "\n".join([
        _report("all", "failed", ["IMPORT"]), _report("base", declarations=2),
        _report("leaf", "failed", ["IMPORT"]), _report("mid", "failed", ["PARSE"], 1),
        _report("side", declarations=1)])
    assert cm.compare(good, expected) == []
    # a module that should have failed but checked is reported
    bad = good.replace(_report("leaf", "failed", ["IMPORT"]), _report("leaf", declarations=1))
    assert cm.compare(bad, expected) == ["leaf: ok [], expected failed ['IMPORT']"]


def test_declaration_edit_raises_the_count(tmp_path):
    units = _corpus(tmp_path)
    rng = random.Random(5)
    for step in range(20):
        text, added = cm.apply_edit(rng, units["base"]["text"], cm.DECLARATION, str(step))
        assert added in (1, 2)
        assert len(cm._HEAD.findall(text)) == units["base"]["declarations"] + added
        expected = cm.edit_prediction(units, "base", cm.DECLARATION, added)
        assert expected["base"]["declarations"] == 2 + added
        assert cm.exit_code(expected) == 0


def test_comment_and_broken_edits_add_no_declaration(tmp_path):
    units = _corpus(tmp_path)
    rng = random.Random(6)
    for kind in (cm.COMMENT, cm.BROKEN):
        text, added = cm.apply_edit(rng, units["mid"]["text"], kind, "0")
        assert added == 0 and text != units["mid"]["text"]
        assert text.count("\n") == units["mid"]["text"].count("\n") + (1 if kind == cm.COMMENT else 2)


def test_tracer_skips_a_function_the_program_no_longer_has():
    tracer = Tracer()
    tracer._patch("kernel.gone", "stt.kernel", "no_such_function", None, lambda fn: fn)
    tracer._patch("kernel.gone_method", "stt.kernel", "Checker.no_such_method", None,
                  lambda fn: fn)
    tracer._patch("gone.module", "stt.no_such_module", "f", None, lambda fn: fn)
    assert tracer.missing == ["kernel.gone", "kernel.gone_method", "gone.module"]
    assert tracer.summary()["syntax.subst_calls"] == 0


def test_traced_check_counts_each_layer(tmp_path):
    for name in ("base", "mid"):
        (tmp_path / f"{name}.stt").write_text(UNITS[name])
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "check_child.py"), str(trace), "--",
         "check", str(tmp_path / "mid.stt"), "--json", "--cache-dir", str(tmp_path / "c")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(trace.read_text())
    layers = data["layers"]
    assert data["missing"] == []
    assert layers["cli.modules"] == 2
    assert layers["parser.declarations"] == 3
    assert layers["kernel.declarations_checked"] == 3
    assert layers["cache.misses"] == 2 and layers["cache.stores"] == 2
    assert layers["kernel.whnf_calls"] > 0
    names = data["names"]
    roots = [sp for sp in data["spans"] if sp[1] == 0]
    assert [names[sp[2]] for sp in roots] == ["cli.main"]
    assert all(sp[3] <= sp[4] for sp in data["spans"])


def test_metric_tables_match_benchmark_json():
    import run

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
