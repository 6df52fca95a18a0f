"""fischerlab benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-goldens

Run from the root of a checkout.  Every op runs in a fresh child process with
PYTHONPATH set to this checkout's ``src`` and FISCHER_LAB_CACHE_DIR set or
cleared by the workload, one op at a time (closed loop, one client).  A cycle
runs each op of the workload once, in an order drawn from the seed; cycles
repeat until ``--seconds`` have passed.  After each op, outside its timed
span, the exit code is checked, stdout is compared byte for byte with the
golden recorded in ``perfbench/goldens`` and the report is checked against
values that do not come from the code under test.

``--trace 0`` reports the end-to-end metrics: median cycle wall and CPU time,
the largest child peak RSS and the median set-up time.  ``--trace 1``
alternates untraced cycles with cycles whose ops run under
``perfbench/op.py --trace`` and reports per-layer self times and counters
(medians over traced cycles) plus the tracing overhead.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDENS = BENCH / "goldens"
OP = BENCH / "op.py"
WORK = ROOT / ".perfbench"
PY = sys.executable or "python3"
OP_TIMEOUT_S = 150


def cli(op_id, *args, cache=None, exit_code=0, golden=True, expect=None):
    return {"id": op_id, "kind": "cli", "args": list(args), "cache": cache,
            "exit": exit_code, "golden": golden, "expect": expect or {}}


def algebra(op_id, descriptor, alpha, expect=None):
    return {"id": op_id, "kind": "algebra", "args": [descriptor, alpha, alpha],
            "cache": None, "exit": 0, "golden": True, "expect": expect or {}}


def graph(op_id, descriptor, expect=None):
    return {"id": op_id, "kind": "graph", "args": [descriptor], "cache": None,
            "exit": 0, "golden": True, "expect": expect or {}}


# Independent values: group orders and class sizes from the isomorphisms
# O4-(2) = S5, S3 x S3 for the two commuting transvection triples of
# O4+(2), O6+(2) = S8, O6-(2) = W(E6), Sp4(2) = S6, W(A5) = S6, and
# the standard orders of the Weyl groups; class sizes count transpositions,
# non-singular vectors or positive roots; radical dimensions are the
# multiplicity of -4/alpha in the adjacency spectrum of the strongly regular
# Fischer graph.
def _facts(order, size, center=None):
    out = {"group_order": order, "class_size": size}
    if center is not None:
        out["center_order"] = center
    return out


SWEEP_ANALYZE = [
    ("s4", "symmetric:n=4", _facts(24, 6, 1)),
    ("s6", "symmetric:n=6", _facts(720, 15, 1)),
    ("s8", "symmetric:n=8", _facts(40320, 28, 1)),
    ("sp2", "symplectic-f2:n=1", _facts(6, 3, 1)),
    ("sp4", "symplectic-f2:n=2", _facts(720, 15, 1)),
    ("o4p2", "orthogonal-f2:dim=4,eps=+", _facts(36, 6)),
    ("o4m2", "orthogonal-f2:dim=4,eps=-", _facts(120, 10, 1)),
    ("o6p2", "orthogonal-f2:dim=6,eps=+", _facts(40320, 28, 1)),
    ("o3f3", "orthogonal-f3:dim=3", {}),
    ("o4f3", "orthogonal-f3:dim=4", {}),
    ("a5", "weyl:type=A,rank=5", _facts(720, 15, 1)),
    ("d4", "weyl:type=D,rank=4", _facts(192, 12)),
    ("d5", "weyl:type=D,rank=5", _facts(1920, 20)),
    ("d6", "weyl:type=D,rank=6", _facts(23040, 30)),
]

# Two closed-loop workloads; perfbench/README.md says why these ops.
WORKLOADS = {
    # Every compute layer with a cold cache: enumeration, center and the cache
    # write (groups), Matsuo checks (matsuo) and graph building (fischer).
    "cold-pipeline": {
        "setup_reps": 15,  # one short probe start per set-up
        "ops": [
            cli("o6m2-cold", "analyze", "orthogonal-f2:dim=6,eps=-", "--json",
                cache="fresh", expect=_facts(51840, 36, 1)),
            cli("s9-cold", "analyze", "symmetric:n=9", "--json",
                cache="fresh", expect=_facts(362880, 36, 1)),
            algebra("e6-alpha-one", "weyl:type=E,rank=6", "1", expect={
                "class_size": 36, "components.0.valency": 20,
                "matsuo.radical_dimension": 15, "matsuo.quotient_dimension": 21}),
            algebra("e6-alpha-half", "weyl:type=E,rank=6", "1/2", expect={
                "class_size": 36, "components.0.valency": 20,
                "matsuo.radical_dimension": 0, "matsuo.quotient_dimension": 36}),
            graph("o5f3-graph", "orthogonal-f3:dim=5", expect={
                "class_size": 45, "components.0.valency": 32,
                "h_triple.witness": [0, 4, 22], "h_triple.subgroup_order": 54}),
            graph("e8-graph", "weyl:type=E,rank=8", expect={
                "class_size": 120, "components.0.valency": 56,
                "h_triple.witness": None}),
        ],
    },
    # Short CLI processes on a warm cache: cache reads, process start-up,
    # catalog, virasoro and a capped exit.
    "cli-sweep": {
        "setup_reps": 3,  # each set-up also enumerates 14 groups
        "ops": [
            cli(f"{name}-warm", "analyze", desc, "--json", cache="warm", expect=facts)
            for name, desc, facts in SWEEP_ANALYZE
        ] + [
            cli("fusion-grid", "fusion", "--m", "3", "--grid", "--contains", "7/10",
                "--json", expect={"central_charge": "4/5"}),
            cli("fusion-product", "fusion", "--m", "5", "--left", "2,3",
                "--right", "3,4", "--json", expect={"m": 5}),
            cli("fusion-sector", "fusion", "--m", "4", "--sector", "--json",
                expect={"m": 4}),
            cli("sakuma-3a", "sakuma", "3A", "--json", expect={
                "0.type": "3A", "0.inner_product": "13/1024", "0.griess_dim": 4}),
            cli("sakuma-inner", "sakuma", "--inner", "1/256", "--json", expect={
                "0.type": "4B", "1.type": "3C"}),
            cli("catalog-list", "catalog", "list", "--json", expect={"4.family": "weyl"}),
            cli("s10-capped", "analyze", "symmetric:n=10", "--max-order", "100000",
                cache="warm", exit_code=3, golden=False),
        ],
        "warm": [desc for _, desc, _ in SWEEP_ANALYZE],
    },
}


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout


def child_env(cache_dir):
    env = {k: v for k, v in os.environ.items()
           if k not in ("FISCHER_LAB_CACHE_DIR", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    if cache_dir is not None:
        env["FISCHER_LAB_CACHE_DIR"] = str(cache_dir)
    return env


def spawn(argv, env, out_path, err_path):
    """Run one child to completion; wall from spawn to exit, plus rusage."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(OP_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except OpTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime, "rss_kb": usage.ru_maxrss}


def op_argv(op, trace_file=None):
    prefix = [PY, str(OP)] + (["--trace", str(trace_file)] if trace_file else [])
    if op["kind"] == "cli":
        if trace_file:
            return prefix + ["cli"] + op["args"]
        return [PY, "-m", "fischerlab.cli"] + op["args"]
    return prefix + [op["kind"]] + op["args"]


def _lookup(doc, path):
    for part in path.split("."):
        doc = doc[int(part)] if isinstance(doc, list) else doc[part]
    return doc


def check_output(op, code, stdout, golden):
    """Problems with one op's result; an empty list means correct."""
    problems = []
    if code != op["exit"]:
        problems.append(f"exit code {code}, expected {op['exit']}")
    if not op["golden"]:
        if stdout:
            problems.append("unexpected output")
        return problems
    if stdout != golden:
        problems.append("output differs from the golden bytes")
    try:
        doc = json.loads(stdout)
    except ValueError:
        return problems + ["output is not JSON"]
    for path, want in op["expect"].items():
        try:
            got = _lookup(doc, path)
        except (KeyError, IndexError, TypeError, ValueError):
            got = "<missing>"
        if got != want:
            problems.append(f"{path} = {got!r}, expected {want!r}")
    if isinstance(doc, dict) and "matsuo" in doc:
        problems += _check_spectra(doc)
    return problems


def _check_spectra(report):
    """Eigenspace dimensions 1, n-1-k/2 and k/2 for every component."""
    spectra = report["matsuo"]["spectra"]
    if spectra["verdict"] != "pass":
        return [f"spectra verdict {spectra['verdict']}"]
    n = report["class_size"]
    problems = []
    for entry in spectra["per_component"]:
        k = report["components"][entry["component"]]["valency"]
        want = {"2": 1, "0": n - 1 - k // 2, "alpha": k // 2}
        if entry["dims"] != want:
            problems.append(f"spectra dims {entry['dims']}, expected {want}")
    return problems


class Run:
    """One workload run: temporary directories, set-up and the op loop."""

    def __init__(self, name, seed):
        self.name = name
        self.workload = WORKLOADS[name]
        self.ops = self.workload["ops"]
        self.rng = random.Random(seed)
        WORK.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
        self.serial = 0
        self.attempted = 0
        self.failures = []
        self.goldens = {}
        self.warm_dir = None

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def fresh_dir(self, label):
        self.serial += 1
        path = self.tmp / f"{label}-{self.serial}"
        path.mkdir()
        return path

    def setup_once(self):
        """Load goldens, check the package imports from this checkout and,
        for a warm workload, fill a fresh cache directory."""
        t0 = time.perf_counter()
        goldens = {}
        for op in self.ops:
            if op["golden"]:
                blob = (GOLDENS / f"{op['id']}.json").read_bytes()
                json.loads(blob)
                goldens[op["id"]] = blob
        probe = spawn([PY, "-c", "import fischerlab.cli; print(fischerlab.__file__)"],
                      child_env(None), self.tmp / "probe.out", self.tmp / "probe.err")
        where = (self.tmp / "probe.out").read_text().strip()
        if probe["code"] != 0 or not Path(where).resolve().is_relative_to(SRC):
            raise RuntimeError(f"fischerlab does not import from {SRC}: {where!r}")
        warm_dir = self.warm_cache() if "warm" in self.workload else None
        return time.perf_counter() - t0, goldens, warm_dir

    def warm_cache(self):
        """A fresh cache directory holding every group the workload reads."""
        warm_dir = self.fresh_dir("cache")
        res = spawn([PY, str(OP), "warm"] + self.workload["warm"],
                    child_env(warm_dir), self.tmp / "warm.out", self.tmp / "warm.err")
        if res["code"] != 0:
            raise RuntimeError("warming the group cache failed: "
                               + (self.tmp / "warm.err").read_text()[-2000:])
        return warm_dir

    def setup(self):
        times = []
        for _ in range(self.workload["setup_reps"]):
            if self.warm_dir is not None:
                shutil.rmtree(self.warm_dir)
            elapsed, self.goldens, self.warm_dir = self.setup_once()
            times.append(elapsed)
        return statistics.median(times)

    def run_op(self, op, trace_file=None):
        cache = {"fresh": lambda: self.fresh_dir("cache"),
                 "warm": lambda: self.warm_dir}.get(op["cache"], lambda: None)()
        out, err = self.tmp / "op.out", self.tmp / "op.err"
        res = spawn(op_argv(op, trace_file), child_env(cache), out, err)
        if op["cache"] == "fresh":
            shutil.rmtree(cache)
        self.attempted += 1
        problems = check_output(op, res["code"], out.read_bytes(),
                                self.goldens.get(op["id"]))
        if problems:
            self.failures.append({"op": op["id"], "problems": problems,
                                  "stderr": err.read_text(errors="replace")[-1000:]})
        return res

    def cycle(self, traced=False):
        order = list(self.ops)
        self.rng.shuffle(order)
        results = []
        for op in order:
            trace_file = self.tmp / "trace.json" if traced else None
            res = self.run_op(op, trace_file)
            if traced:
                res["trace"] = json.loads(trace_file.read_text())
                trace_file.unlink()
            res["op"] = op["id"]
            results.append(res)
        return results


# -- trace summary ----------------------------------------------------------

SPAN_METRICS = {
    "catalog.from_descriptor": "catalog.from_descriptor_s",
    "groups.generate": "groups.generate_s",
    "groups.center": "groups.center_s",
    "groups.conjugacy_closure": "groups.conjugacy_closure_s",
    "fischer.build_system": "fischer.build_system_s",
    "fischer.components": "fischer.components_s",
    "fischer.detect_H_triple": "fischer.detect_H_triple_s",
    "fischer.extract_H": "fischer.extract_H_s",
    "fischer.to_dot": "fischer.to_dot_s",
    "matsuo.verify_axioms": "matsuo.verify_axioms_s",
    "matsuo.gram_radical": "matsuo.gram_radical_s",
    "matsuo.quotient": "matsuo.quotient_s",
    "matsuo.unity": "matsuo.unity_s",
    "matsuo.spectra": "matsuo.spectra_s",
    "matsuo.miyamoto": "matsuo.miyamoto_s",
    "virasoro.query": "virasoro.query_s",
    "cli.positive_definite": "cli.positive_definite_s",
}
LAYER_SELF = ("groups", "fischer", "matsuo", "cli")
COUNTERS = (
    "groups.generate_order", "groups.center_scanned", "groups.cache_hits",
    "groups.cache_misses", "groups.cache_bytes", "fischer.class_size",
    "fischer.build_system_key_muls", "fischer.edges", "matsuo.radical_dim",
    "matsuo.spectra_calls", "matsuo.miyamoto_maps",
)
# Every layer's self time plus the process overhead adds up to the op wall.
ACCOUNTED = ("catalog.from_descriptor_s", "groups.self_s", "fischer.self_s",
             "matsuo.self_s", "virasoro.query_s", "cli.self_s",
             "cli.process_overhead_s")


def summarize_op(trace, wall):
    """Self times by span name and layer, counters, and process overhead."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = dict.fromkeys(list(SPAN_METRICS.values())
                        + [f"{layer}.self_s" for layer in LAYER_SELF], 0.0)
    top = 0.0
    for (name, parent, start, end), inner in zip(spans, child_time):
        own = (end - start) - inner
        if name in SPAN_METRICS:
            out[SPAN_METRICS[name]] += own
        layer = name.split(".")[0]
        if layer in LAYER_SELF:
            out[f"{layer}.self_s"] += own
        if parent is None:
            top += end - start
    out["cli.process_overhead_s"] = wall - top
    for name in COUNTERS + ("groups.center_found",):
        out[name] = trace["counters"].get(name, 0)
    out["trace.spans"] = len(spans)
    return out


def summarize_cycle(results):
    total = {}
    for res in results:
        for key, value in summarize_op(res["trace"], res["wall"]).items():
            total[key] = total.get(key, 0) + value
    scanned = total.pop("groups.center_scanned")
    found = total.pop("groups.center_found")
    total["groups.center_scanned"] = scanned
    total["groups.center_useful_ratio"] = found / scanned if scanned else 0.0
    total["trace.op_wall_s"] = sum(res["wall"] for res in results)
    return total


# -- measuring ---------------------------------------------------------------

def load_metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure(name, seed, seconds, trace):
    end_to_end, per_layer = load_metric_specs()
    run = Run(name, seed)
    try:
        setup_s = run.setup()
        walls, cpus, rss, traced_cycles, traced_walls = [], [], [], [], []
        t0 = time.perf_counter()
        while True:
            results = run.cycle()
            walls.append(sum(r["wall"] for r in results))
            cpus.append(sum(r["cpu"] for r in results))
            rss += [r["rss_kb"] for r in results]
            if trace:
                results = run.cycle(traced=True)
                traced_cycles.append(results)
                traced_walls.append(sum(r["wall"] for r in results))
            if time.perf_counter() - t0 >= seconds:
                break
        print("untraced cycle walls (s): " + " ".join(f"{w:.3f}" for w in walls),
              file=sys.stderr)
        if trace:
            summaries = [summarize_cycle(c) for c in traced_cycles]
            values = {key: statistics.median(s[key] for s in summaries)
                      for key in summaries[0]}
            values["trace.overhead_s"] = (statistics.median(traced_walls)
                                          - statistics.median(walls))
            write_trace(name, seed, traced_cycles, summaries)
            units = per_layer
        else:
            values = {"wall_s": statistics.median(walls),
                      "cpu_s": statistics.median(cpus),
                      "peak_rss_mb": max(rss) / 1024,
                      "setup_s": setup_s}
            units = end_to_end
        report(run, values, units)
    finally:
        run.close()
    return 0


def write_trace(name, seed, cycles, summaries):
    """All spans of the traced cycles, tagged with op ids, plus summaries."""
    path = WORK / f"trace-{name}-seed{seed}.json"
    spans = []
    for c, results in enumerate(cycles):
        for res in results:
            op_id = f"{c}:{res['op']}"
            spans += [{"op": op_id, "name": s[0], "parent": s[1], "start": s[2],
                       "end": s[3]} for s in res["trace"]["spans"]]
    unaccounted = [s["trace.op_wall_s"] - sum(s[k] for k in ACCOUNTED) for s in summaries]
    path.write_text(json.dumps({"workload": name, "seed": seed, "spans": spans,
                                "cycles": summaries, "unaccounted_s": unaccounted},
                               indent=1))
    print(f"trace written to {path.relative_to(ROOT)}; op wall not covered by layer "
          f"self times and process overhead: {max(map(abs, unaccounted)):.2e} s",
          file=sys.stderr)


def report(run, values, units):
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    for failure in run.failures:
        print(f"FAILED {failure['op']}: {'; '.join(failure['problems'])}\n"
              f"{failure['stderr']}", file=sys.stderr)
    for key in units:
        print(f"{key:32} {values[key]:>16.6f} {units[key]}", file=sys.stderr)
    failed = len(run.failures)
    print(f"correct: {failed == 0} ({failed} of {run.attempted} ops failed)",
          file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }))


def record_goldens():
    """Write each op's stdout as its golden; run once at a trusted commit."""
    GOLDENS.mkdir(exist_ok=True)
    bad = 0
    for name in WORKLOADS:
        run = Run(name, 0)
        try:
            if "warm" in run.workload:
                run.warm_dir = run.warm_cache()
            for op in run.ops:
                res = run.run_op(op)
                stdout = (run.tmp / "op.out").read_bytes()
                if op["golden"] and res["code"] == 0:
                    (GOLDENS / f"{op['id']}.json").write_bytes(stdout)
                problems = check_output(op, res["code"], stdout, stdout)
                bad += bool(problems)
                print(f"{name:14} {op['id']:16} {res['wall']:7.2f}s "
                      f"{'; '.join(problems) or 'ok'}", file=sys.stderr)
        finally:
            run.close()
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "fischerlab" / "__init__.py").is_file():
        print(f"error: no fischerlab package under {SRC}", file=sys.stderr)
        return 2
    if args.record_goldens:
        return record_goldens()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
