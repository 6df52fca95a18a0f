"""The library ops of the benchmark (perfbench/op.py) still run on the package
and print their recorded goldens byte for byte."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


OPS = {
    "o5f3-graph": ["graph", "orthogonal-f3:dim=5"],
    "e8-graph": ["graph", "weyl:type=E,rank=8"],
    "e6-alpha-one": ["algebra", "weyl:type=E,rank=6", "1", "1"],
}


@pytest.mark.parametrize("golden", OPS)
def test_op_matches_golden(golden):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "perfbench/op.py", *OPS[golden]],
        cwd=ROOT, env=env, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    expected = (ROOT / "perfbench" / "goldens" / f"{golden}.json").read_bytes()
    assert proc.stdout == expected
