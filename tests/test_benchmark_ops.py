"""The library ops of the benchmark (perfbench/op.py) and one of its CLI ops
still run on the package and print their recorded goldens byte for byte,
traced or not, the traced ops keep every span name they recorded, the
CLI start-up path of its sweep and its analyses stay free of numpy, and each
command loads only the layers it uses, on its error exits too."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fischerlab import cli

ROOT = Path(__file__).resolve().parent.parent


OPS = {
    "o5f3-graph": ["perfbench/op.py", "graph", "orthogonal-f3:dim=5"],
    "e8-graph": ["perfbench/op.py", "graph", "weyl:type=E,rank=8"],
    "e6-alpha-one": ["perfbench/op.py", "algebra", "weyl:type=E,rank=6", "1", "1"],
    "e6-alpha-half": ["perfbench/op.py", "algebra", "weyl:type=E,rank=6", "1/2", "1/2"],
    "o6m2-cold": ["-m", "fischerlab.cli", "analyze", "orthogonal-f2:dim=6,eps=-", "--json"],
}


def run(args):
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, timeout=300,
    )


@pytest.mark.parametrize("golden", OPS)
def test_op_matches_golden(golden):
    proc = run(OPS[golden])
    assert proc.returncode == 0, proc.stderr.decode()
    expected = (ROOT / "perfbench" / "goldens" / f"{golden}.json").read_bytes()
    assert proc.stdout == expected


# Every span name the traced op records.  op.py's tracer skips a layer call
# that no longer exists, so a call renamed or deleted in the package would
# drop its per-layer metric without an error.
TRACED = {
    "o5f3-graph": [
        "catalog.from_descriptor", "fischer.build_system", "fischer.components",
        "fischer.detect_H_triple", "fischer.extract_H", "fischer.to_dot",
        "fischer.valency", "groups.center", "groups.conjugacy_closure",
        "groups.generate",
    ],
    "e6-alpha-one": [
        "catalog.from_descriptor", "cli.positive_definite", "fischer.build_system",
        "fischer.components", "fischer.detect_H_triple", "fischer.valency",
        "groups.conjugacy_closure", "matsuo.gram_radical", "matsuo.miyamoto",
        "matsuo.quotient", "matsuo.spectra", "matsuo.unity", "matsuo.verify_axioms",
    ],
}


@pytest.mark.parametrize("golden", TRACED)
def test_traced_op_records_every_layer(golden, tmp_path):
    script, *args = OPS[golden]
    trace = tmp_path / "trace.json"
    proc = run([script, "--trace", str(trace), *args])
    assert proc.returncode == 0, proc.stderr.decode()
    expected = (ROOT / "perfbench" / "goldens" / f"{golden}.json").read_bytes()
    assert proc.stdout == expected
    spans = {span[0] for span in json.loads(trace.read_text())["spans"]}
    assert spans >= set(TRACED[golden]), set(TRACED[golden]) - spans


def test_cli_start_up_leaves_numpy_unloaded():
    code = (
        "import sys\n"
        "import fischerlab.cli\n"
        "assert 'numpy' not in sys.modules, 'import'\n"
        "assert fischerlab.cli.main(['sakuma', '3A', '--json']) == 0\n"
        "assert 'numpy' not in sys.modules, 'sakuma'\n"
    )
    proc = run(["-c", code])
    assert proc.returncode == 0, proc.stderr.decode()
    expected = (ROOT / "perfbench" / "goldens" / "sakuma-3a.json").read_bytes()
    assert proc.stdout == expected


# Each command with the golden of its benchmark op, and the package modules
# it may add to those loaded before it: fusion and sakuma use the Virasoro
# layer alone, catalog list the catalog alone.
START_UP = [
    ("fusion-grid", ["fusion", "--m", "3", "--grid", "--contains", "7/10", "--json"],
     ["fischerlab.virasoro"]),
    ("sakuma-3a", ["sakuma", "3A", "--json"], []),
    ("catalog-list", ["catalog", "list", "--json"], ["fischerlab.catalog"]),
]


def test_commands_import_only_their_layers():
    code = (
        "import contextlib, io, json, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('fischerlab.'))\n"
        "import fischerlab.cli\n"
        "assert loaded() == ['fischerlab.cli'], loaded()\n"
        "assert 'dataclasses' not in sys.modules, 'import'\n"
        "out = {}\n"
        f"for name, argv, added in {START_UP!r}:\n"
        "    before = loaded()\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as buf:\n"
        "        assert fischerlab.cli.main(argv) == 0\n"
        "    assert sorted(set(loaded()) - set(before)) == added, (name, loaded())\n"
        "    out[name] = buf.getvalue()\n"
        "with contextlib.redirect_stdout(io.StringIO()) as buf:\n"
        "    assert fischerlab.cli.main(['analyze', 'symmetric:n=4', '--json']) == 0\n"
        "assert 'dataclasses' not in sys.modules, 'analyze'\n"
        "out['s4-warm'] = buf.getvalue()\n"
        "print(json.dumps(out))\n"
    )
    proc = run(["-c", code])
    assert proc.returncode == 0, proc.stderr.decode()
    reports = json.loads(proc.stdout)
    assert list(reports) == [name for name, _, _ in START_UP] + ["s4-warm"]
    for name, text in reports.items():
        expected = (ROOT / "perfbench" / "goldens" / f"{name}.json").read_bytes()
        assert text.encode() == expected, name


# Error exits, each with its exit code, stderr and the package modules it may
# add to the command-line module: a fusion usage error loads the Virasoro
# layer alone, and an analysis that stops at the order cap loads only the
# catalog and group layers.
ERROR_EXITS = {
    "fusion-usage": (["fusion", "--m", "0", "--grid"], 2,
                     "error: --m must be >= 1, got 0\n", ["fischerlab.virasoro"]),
    "analyze-capped": (["analyze", "symmetric:n=10", "--max-order", "100000"], 3,
                       "error: group order 3628800 exceeds the order cap 100000\n",
                       ["fischerlab.catalog", "fischerlab.groups"]),
}


@pytest.mark.parametrize("name", ERROR_EXITS)
def test_error_exits_import_only_their_layers(name):
    argv, exit_code, message, added = ERROR_EXITS[name]
    code = (
        "import contextlib, io, sys\n"
        "import fischerlab.cli\n"
        "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
        f"    assert fischerlab.cli.main({argv!r}) == {exit_code}\n"
        f"assert err.getvalue() == {message!r}, err.getvalue()\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('fischerlab.'))\n"
        f"assert loaded == sorted(['fischerlab.cli', *{added!r}]), loaded\n"
    )
    proc = run(["-c", code])
    assert proc.returncode == 0, proc.stderr.decode()


# Analyses on the permutation, F2-matrix, F3-matrix and Weyl carriers with
# radical 0, and E6 at alpha = beta = 1 with radical 15, whose quotient runs
# the kernel check.
ANALYSES = {
    "s4-warm": ["symmetric:n=4"],
    "o6m2-cold": ["orthogonal-f2:dim=6,eps=-"],
    "o4f3-warm": ["orthogonal-f3:dim=4"],
    "d4-warm": ["weyl:type=D,rank=4"],
    "e6-alpha-one": ["weyl:type=E,rank=6", "--alpha", "1", "--beta", "1"],
}


def test_analysis_leaves_numpy_unloaded():
    code = (
        "import contextlib, io, json, sys\n"
        "import fischerlab.cli\n"
        "out = {}\n"
        f"for name, argv in {ANALYSES!r}.items():\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as buf:\n"
        "        assert fischerlab.cli.main(['analyze', *argv, '--json']) == 0\n"
        "    assert 'numpy' not in sys.modules, name\n"
        "    out[name] = buf.getvalue()\n"
        "print(json.dumps(out))\n"
    )
    proc = run(["-c", code])
    assert proc.returncode == 0, proc.stderr.decode()
    reports = json.loads(proc.stdout)
    assert list(reports) == list(ANALYSES)
    # The e6-alpha-one golden comes from op.py's algebra op, which skips the
    # group step and prints group_order and center_order as null.
    e6 = json.loads(reports["e6-alpha-one"])
    assert (e6["group_order"], e6["center_order"]) == (51840, 1)
    e6["group_order"] = e6["center_order"] = None
    reports["e6-alpha-one"] = cli._canonical_json(e6)
    for name, text in reports.items():
        expected = (ROOT / "perfbench" / "goldens" / f"{name}.json").read_bytes()
        assert text.encode() == expected, name
