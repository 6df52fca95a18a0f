"""Run one benchmark op in this process, optionally traced.

Usage (from the checkout root, with PYTHONPATH=src):

    python3 perfbench/op.py [--trace FILE] cli ARG...
    python3 perfbench/op.py [--trace FILE] algebra DESCRIPTOR ALPHA BETA
    python3 perfbench/op.py [--trace FILE] graph DESCRIPTOR
    python3 perfbench/op.py warm DESCRIPTOR...

``cli`` runs ``fischerlab.cli.main`` on the arguments.  ``algebra`` runs the
public calls of ``cli.cmd_analyze`` in the same order, skipping the group
enumeration, and prints the same canonical report with ``group_order`` and
``center_order`` null.  ``graph`` runs the
Fischer-graph calls alone.  ``warm`` enumerates each descriptor's group so
that ``FISCHER_LAB_CACHE_DIR`` holds its cache file.

With ``--trace FILE`` every public call into the package's layers is wrapped
from outside before the op starts.  Spans (name, parent, start, end) and
counters are kept in memory and written to FILE as JSON when the op ends.
"""
from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time
from collections.abc import Sequence
from fractions import Fraction

_now = time.perf_counter


class Tracer:
    """In-memory span recorder with counters taken at the same boundaries."""

    def __init__(self):
        self.spans = []  # [name, parent index or None, start, end]
        self.stack = []
        self.counters = {}
        self.systems = []

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, owner, attr, name, before=None, after=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            span = [name, self.stack[-1] if self.stack else None, _now(), None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                span[3] = _now()
                self.stack.pop()
                if after:
                    after(args, kwargs, result if ok else None, state)
            return result

        setattr(owner, attr, traced)

    def innermost(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def dump(self, path):
        for system in self.systems:
            self.count("fischer.edges",
                       sum(len(system.neighbors(i)) for i in range(system.size)) // 2)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def install(tracer):
    """Wrap the public calls of every layer; absent names are skipped."""
    from fischerlab import catalog, cli, fischer, groups, matsuo, virasoro

    w = tracer.wrap
    w(catalog, "from_descriptor", "catalog.from_descriptor")

    def cache_file(args, kwargs):
        cache_dir = kwargs.get("cache_dir") or os.environ.get("FISCHER_LAB_CACHE_DIR")
        path_of = getattr(groups, "_cache_path", None)
        if not cache_dir or path_of is None:
            return None
        gens = args[0]
        path = path_of(cache_dir, gens[0], sorted({g.key for g in gens}))
        return path, path.exists()

    def generated(args, kwargs, group, state):
        if group is not None:
            tracer.count("groups.generate_order", group.order)
        if state is None:
            return
        path, existed = state
        if existed:
            tracer.count("groups.cache_hits")
        else:
            tracer.count("groups.cache_misses")
        if path.exists():
            tracer.count("groups.cache_bytes", path.stat().st_size)

    class ScannedKeys(Sequence):
        """A group's element keys, counting each key that is read."""

        def __init__(self, keys):
            self.keys = keys
            self.read = 0

        def __len__(self):
            return len(self.keys)

        def __getitem__(self, index):
            items = self.keys[index]
            self.read += len(items) if isinstance(index, slice) else 1
            return items

        def __iter__(self):
            for key in self.keys:
                self.read += 1
                yield key

    def scanning(args, kwargs):
        group = args[0]
        scanned = group.element_keys = ScannedKeys(group.element_keys)
        return group, scanned

    def centered(args, kwargs, result, state):
        group, scanned = state
        group.element_keys = scanned.keys
        tracer.count("groups.center_scanned", scanned.read)
        if result is not None:
            tracer.count("groups.center_found", len(result))

    w(groups, "generate", "groups.generate", before=cache_file, after=generated)
    w(groups, "center", "groups.center", before=scanning, after=centered)
    w(groups, "conjugacy_closure", "groups.conjugacy_closure")

    # Key multiplications made by build_system itself; the conjugacy closure
    # it calls is a span of its own and is not counted.
    def counting_key_mul(key_mul):
        @functools.wraps(key_mul)
        def wrapped(self):
            mul = key_mul(self)
            if tracer.innermost() != "fischer.build_system":
                return mul

            def counted(a, b):
                tracer.count("fischer.build_system_key_muls")
                return mul(a, b)
            return counted
        return wrapped

    for carrier in (getattr(groups, "Permutation", None), getattr(groups, "FpMatrix", None)):
        if carrier is not None:
            carrier.key_mul = counting_key_mul(carrier.key_mul)

    def built(args, kwargs, system, state):
        if system is not None:
            tracer.count("fischer.class_size", system.size)
            tracer.systems.append(system)

    w(fischer, "build_system", "fischer.build_system", after=built)
    for attr in ("components", "valency", "detect_H_triple", "extract_H", "to_dot"):
        w(fischer, attr, f"fischer.{attr}")

    def counter(name, size=None):
        def after(args, kwargs, result, state):
            tracer.count(name, 1 if size is None or result is None else size(result))
        return after

    algebra = matsuo.MatsuoAlgebra
    w(algebra, "verify_axioms", "matsuo.verify_axioms")
    w(algebra, "gram_radical", "matsuo.gram_radical", after=counter("matsuo.radical_dim", len))
    w(algebra, "quotient", "matsuo.quotient")
    w(algebra, "unity", "matsuo.unity")
    w(algebra, "adjoint_spectrum", "matsuo.spectra", after=counter("matsuo.spectra_calls"))
    w(algebra, "miyamoto", "matsuo.miyamoto", after=counter("matsuo.miyamoto_maps"))

    for attr, value in list(vars(virasoro).items()):
        if (
            not attr.startswith("_")
            and callable(value)
            and not isinstance(value, type)
            and getattr(value, "__module__", None) == virasoro.__name__
        ):
            w(virasoro, attr, "virasoro.query")

    w(cli, "main", "cli.main")
    w(cli, "positive_definite", "cli.positive_definite")


def analyze_library(descriptor, alpha, beta):
    """The public-call sequence of ``cli.cmd_analyze`` without the group step,
    as a report dict with ``group_order`` and ``center_order`` null."""
    from fischerlab import catalog, cli, fischer, matsuo
    from fischerlab.matsuo import format_rational

    entry = catalog.from_descriptor(descriptor)
    system = fischer.build_system(entry.generators, entry.seed)
    comps = fischer.components(system)
    witness = fischer.detect_H_triple(system)
    h_order = fischer.extract_H(system, witness).order if witness else None

    algebra = matsuo.MatsuoAlgebra(system, alpha, beta)
    try:
        algebra.verify_axioms()
        axioms = cli._verdict("pass")
    except matsuo.VerificationError as exc:
        axioms = cli._verdict("fail", str(exc))
    radical = algebra.gram_radical()
    try:
        quotient_dim = algebra.quotient(radical).dim
        quotient_verdict = cli._verdict("pass")
    except matsuo.MatsuoError as exc:
        quotient_dim = None
        quotient_verdict = cli._verdict("fail", str(exc))
    try:
        for i in range(algebra.n):
            algebra.miyamoto(i)
        miyamoto_verdict = cli._verdict("pass")
    except matsuo.MatsuoError as exc:
        miyamoto_verdict = cli._verdict("fail", str(exc))

    return {
        "descriptor": entry.descriptor,
        "group_order": None,
        "center_order": None,
        "class_size": system.size,
        "connected": len(comps) == 1,
        "components": [{"size": len(c), "valency": fischer.valency(system, c)}
                       for c in comps],
        "three_transposition": cli._verdict("pass"),
        "h_triple": {
            "witness": list(witness) if witness else None,
            "subgroup_order": h_order,
            "type_verdict": "symplectic" if witness is None else
            "non-symplectic (H witness); finer type undetermined beyond H",
        },
        "matsuo": {
            "alpha": format_rational(algebra.alpha),
            "beta": format_rational(algebra.beta),
            "axioms": axioms,
            "unity": cli._unity_section(algebra, comps),
            "radical_dimension": len(radical),
            "quotient_dimension": quotient_dim,
            "quotient": quotient_verdict,
            "spectra": cli._spectra_section(algebra, comps),
            "miyamoto": miyamoto_verdict,
            "form_positive_definite": cli.positive_definite(algebra),
        },
    }


def graph_library(descriptor):
    """Fischer-graph calls alone: build, components, valency, H triple, DOT."""
    from fischerlab import catalog, fischer

    entry = catalog.from_descriptor(descriptor)
    system = fischer.build_system(entry.generators, entry.seed)
    comps = fischer.components(system)
    valencies = [fischer.valency(system, c) for c in comps]
    witness = fischer.detect_H_triple(system)
    h_order = fischer.extract_H(system, witness).order if witness else None
    dot = fischer.to_dot(system).encode()
    return {
        "descriptor": entry.descriptor,
        "class_size": system.size,
        "components": [{"size": len(c), "valency": k} for c, k in zip(comps, valencies)],
        "h_triple": {"witness": list(witness) if witness else None,
                     "subgroup_order": h_order},
        "dot_bytes": len(dot),
        "dot_sha256": hashlib.sha256(dot).hexdigest(),
    }


def warm(descriptors):
    from fischerlab import catalog, groups

    for descriptor in descriptors:
        groups.generate(catalog.from_descriptor(descriptor).generators)
    return 0


def run(argv):
    from fischerlab import cli

    if argv[0] == "cli":
        return cli.main(argv[1:])
    if argv[0] == "algebra":
        report = analyze_library(argv[1], Fraction(argv[2]), Fraction(argv[3]))
    elif argv[0] == "graph":
        report = graph_library(argv[1])
    elif argv[0] == "warm":
        return warm(argv[1:])
    else:
        raise SystemExit(f"unknown op kind {argv[0]!r}")
    sys.stdout.write(cli._canonical_json(report))
    return 0


def main(argv):
    tracer = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
        tracer = Tracer()
        install(tracer)
    code = run(argv)
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
