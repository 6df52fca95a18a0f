"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  It checks that

1. one flipped byte in a golden, or a wrong expected exit code, is counted
   as a failed op, both for a single op and end to end through run.py;
2. one run.py command prints every metric of BENCHMARK.json by name with
   its unit, for --trace 0 and --trace 1, and the correctness verdict;
3. the library sequence of perfbench/op.py, traced, prints the same bytes as
   ``fischerlab analyze --json`` for the same descriptor, with
   ``group_order`` and ``center_order`` null because it skips the group step;
4. run.py exits non-zero without printing a result in a directory that holds
   only BENCHMARK.json and perfbench/.

Exits 0 when every check passes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

FAILURES = []


def check(label, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {label}" + (f": {detail}" if detail and not ok else ""))
    if not ok:
        FAILURES.append(label)


def run_bench(*args, root=bench.ROOT):
    proc = subprocess.run([bench.PY, "perfbench/run.py", *args],
                          cwd=root, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


def injected_mismatches(tmp):
    run = bench.Run("cli-sweep", 0)
    try:
        op = next(o for o in run.ops if o["id"] == "sakuma-3a")
        golden = (bench.GOLDENS / "sakuma-3a.json").read_bytes()
        run.goldens = {op["id"]: golden}
        run.run_op(op)
        check("unchanged golden passes", not run.failures, run.failures)
        flipped = bytearray(golden)
        flipped[len(flipped) // 2] ^= 0x01
        run.goldens = {op["id"]: bytes(flipped)}
        run.run_op(op)
        check("flipped golden byte counts as a failed op", len(run.failures) == 1)
        run.goldens = {op["id"]: golden}
        run.run_op(dict(op, exit=1))
        check("wrong expected exit code counts as a failed op", len(run.failures) == 2)
        capped = next(o for o in run.ops if o["id"] == "s10-capped")
        run.warm_dir = run.fresh_dir("cache")
        run.run_op(dict(capped, exit=0))
        check("capped op expected to succeed counts as a failed op",
              len(run.failures) == 3)
        check("every attempt is counted", run.attempted == 4, run.attempted)
    finally:
        run.close()

    tree = copy_tree(tmp / "tree", with_package=True)
    path = tree / "perfbench" / "goldens" / "e8-graph.json"
    blob = bytearray(path.read_bytes())
    digit = max(i for i, b in enumerate(blob) if chr(b).isdigit())
    blob[digit] ^= 0x01  # still a digit, so the golden stays valid JSON
    path.write_bytes(bytes(blob))
    proc, result = run_bench("--workload", "cold-pipeline", "--seed", "1",
                             "--seconds", "1", "--trace", "0", root=tree)
    check("run.py reports the flipped golden as failed",
          result is not None and result["failed"] >= 1 and result["correct"] is False,
          proc.stderr[-2000:])


def metric_listing():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc, result = run_bench("--workload", "cold-pipeline", "--seed", "1",
                                 "--seconds", "1", "--trace", str(trace))
        if result is None:
            check(f"--trace {trace} prints a result", False, proc.stderr[-2000:])
            continue
        check(f"--trace {trace} result has exactly the contract keys",
              sorted(result) == ["attempted", "correct", "failed", "metrics"])
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(f"--trace {trace} prints every {section} metric with its unit",
              got == want, sorted(set(want.items()) ^ set(got.items())))
        check(f"--trace {trace} values are numbers",
              all(isinstance(v["value"], (int, float)) and not isinstance(v["value"], bool)
                  for v in result["metrics"].values()))
        listed = all(any(line.split()[:1] == [name] and line.split()[-1] == unit
                         for line in proc.stderr.splitlines())
                     for name, unit in want.items())
        check(f"--trace {trace} lists every metric by name and unit on stderr", listed)
        check(f"--trace {trace} states the correctness verdict",
              result["correct"] is True and "correct: True" in proc.stderr,
              proc.stderr[-2000:])


def copy_tree(dest, with_package):
    """BENCHMARK.json and perfbench/, and the package sources if asked."""
    skip = shutil.ignore_patterns("__pycache__")
    dest.mkdir()
    shutil.copy(bench.ROOT / "BENCHMARK.json", dest)
    shutil.copytree(bench.BENCH, dest / "perfbench", ignore=skip)
    if with_package:
        shutil.copytree(bench.SRC, dest / "src", ignore=skip)
    return dest


def traced_sequence_matches_cli(tmp):
    """The library op, traced, prints the CLI report without the group step."""
    env = bench.child_env(None)
    for descriptor, alpha in (("symmetric:n=5", "1/2"), ("orthogonal-f3:dim=4", "1/2"),
                              ("weyl:type=E,rank=6", "1")):
        lib = subprocess.run(
            [bench.PY, str(bench.OP), "--trace", str(tmp / "trace.json"), "algebra",
             descriptor, alpha, alpha],
            cwd=bench.ROOT, env=env, capture_output=True)
        cli = subprocess.run(
            [bench.PY, "-m", "fischerlab.cli", "analyze", descriptor,
             "--alpha", alpha, "--beta", alpha, "--json"],
            cwd=bench.ROOT, env=env, capture_output=True)
        ok = lib.returncode == cli.returncode == 0
        if ok:
            report = json.loads(cli.stdout)
            ok = canonical(report) == cli.stdout  # the CLI's own layout
            report["group_order"] = report["center_order"] = None
            ok = ok and lib.stdout == canonical(report)
        check(f"traced library sequence equals the CLI JSON for {descriptor} at {alpha}",
              ok, lib.stderr.decode()[-1000:])


def canonical(doc):
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def fails_without_package(tmp):
    bare = copy_tree(tmp / "bare", with_package=False)
    proc = subprocess.run([bench.PY, "perfbench/run.py", "--workload", "cold-pipeline",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    check("run.py fails without printing a result when the package is absent",
          proc.returncode != 0 and not proc.stdout.strip(), proc.stdout[-500:])


def main():
    bench.WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=bench.WORK))
    try:
        injected_mismatches(tmp)
        metric_listing()
        traced_sequence_matches_cli(tmp)
        fails_without_package(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{'FAILED' if FAILURES else 'OK'}: {len(FAILURES)} check(s) failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
