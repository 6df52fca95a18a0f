"""Command-line front end.

Exit codes: 0 success, 1 mathematical-verdict failure, 2 usage error (a
--max-order, --max-axes or --threads value below 1 included) or an output
file that cannot be written, 3 resource cap exceeded: the group order
is above --max-order or the class is larger than --max-axes (neither capped
unless given), 4 an internal-consistency error of the group or graph layer.  A
negative rational is written with '=', as in --alpha=-2/3, because argparse
reads a separate "-2/3" as an option.  All machine output serializes
rationals as "p/q" strings and uses canonical (sorted-key) JSON, so emitted
JSON round-trips byte-identically.  Timings appear only in the human-readable
text output.  Each command imports only the layers it uses, on an error exit
too, so a short query does not pay for loading the rest of the package; an
analyze stopped by --max-order loads only the catalog and group layers.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import format_rational

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _verdict(status, reason=""):
    return {"verdict": status, "reason": reason}


def _parse_fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}")


def _parse_label(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"label must be 'r,s', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"label must be integers 'r,s', got {text!r}")


class _Parser(argparse.ArgumentParser):
    """Says how to pass a negative rational when an option lacks its value:
    argparse reads "--alpha -2/3" as two options."""

    def error(self, message):
        if message.endswith("expected one argument"):
            option = message.split(":")[0].removeprefix("argument ")
            message += f" (write a negative value as {option}=-p/q)"
        super().error(message)


def build_parser():
    parser = _Parser(
        prog="fischerlab",
        description="3-transposition groups, Fischer graphs, Matsuo algebras "
        "and unitary-series fusion calculus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="catalog queries")
    p_cat.add_argument("action", choices=["list"])
    p_cat.add_argument("--json", action="store_true")
    p_cat.set_defaults(handler=cmd_catalog)

    p_an = sub.add_parser("analyze", help="full analysis of a catalog descriptor")
    p_an.add_argument("descriptor")
    p_an.add_argument("--alpha", type=_parse_fraction, default=Fraction(1, 2),
                      metavar="p/q", help="default 1/2; negative: --alpha=-2/3")
    p_an.add_argument("--beta", type=_parse_fraction, default=Fraction(1, 2),
                      metavar="p/q", help="default 1/2; negative: --beta=-1/5")
    p_an.add_argument("--max-order", type=int,
                      help="exit 3 when the group order is above this (no default)")
    p_an.add_argument("--max-axes", type=int,
                      help="exit 3 when the class is larger than this (no default)")
    p_an.add_argument("--threads", type=int, default=1)
    p_an.add_argument("--dot", metavar="FILE", help="export the Fischer graph as DOT")
    p_an.add_argument("--gram", metavar="FILE", help="export the Gram matrix as CSV")
    p_an.add_argument(
        "--json", nargs="?", const="-", metavar="FILE",
        help="emit the report as canonical JSON (to FILE, or stdout)",
    )
    p_an.set_defaults(handler=cmd_analyze)

    p_fu = sub.add_parser("fusion", help="unitary-series fusion queries")
    p_fu.add_argument("--m", type=int, required=True)
    p_fu.add_argument("--left", type=_parse_label)
    p_fu.add_argument("--right", type=_parse_label)
    p_fu.add_argument("--grid", action="store_true", help="list all module weights")
    p_fu.add_argument("--sector", action="store_true", help="show P_m and sigma signs")
    p_fu.add_argument("--contains", type=_parse_fraction, metavar="p/q",
                      help="with --grid: test membership of a weight; "
                      "negative: --contains=-1/5")
    p_fu.add_argument("--json", nargs="?", const="-", metavar="FILE")
    p_fu.set_defaults(handler=cmd_fusion)

    p_sa = sub.add_parser("sakuma", help="dihedral-subalgebra table lookups")
    p_sa.add_argument("tag", nargs="?")
    p_sa.add_argument("--inner", type=_parse_fraction, metavar="p/q")
    p_sa.add_argument("--json", nargs="?", const="-", metavar="FILE")
    p_sa.set_defaults(handler=cmd_sakuma)
    return parser


def _emit(payload, json_target, text):
    if json_target is None:
        sys.stdout.write(text)
        return
    blob = _canonical_json(payload)
    if json_target == "-":
        sys.stdout.write(blob)
    else:
        with open(json_target, "w") as fh:
            fh.write(blob)


# -- catalog -----------------------------------------------------------------


def cmd_catalog(args):
    from . import catalog

    rows = [
        {"family": name, "params": info["params"], "example": info["example"]}
        for name, info in sorted(catalog.FAMILIES.items())
    ]
    text = "".join(
        f"{row['family']:<16} {row['params']:<48} e.g. {row['example']}\n" for row in rows
    )
    _emit(rows, "-" if args.json else None, text)
    return EXIT_OK


# -- analyze -----------------------------------------------------------------


def _checked(check, *args):
    """Run an algebra check: its result, or None, and its section's verdict:
    pass, not-run for a DegenerateAlphaError, or fail with the witness of
    any other MatsuoError as its reason."""
    from .matsuo import DegenerateAlphaError, MatsuoError

    try:
        result = check(*args)
    except DegenerateAlphaError:
        return None, _verdict("not-run", "degenerate-alpha")
    except MatsuoError as exc:
        return None, _verdict("fail", str(exc))
    return result, _verdict("pass")


def _unity_section(algebra, components):
    out = []
    for idx, comp in enumerate(components):
        omega, verdict = _checked(algebra.unity, comp)
        entry = {"component": idx, "exists": True, "coefficient": None, **verdict}
        if omega is not None:
            entry["coefficient"] = format_rational(omega[comp[0]])
        elif verdict["verdict"] == "pass":
            entry.update(exists=False, **_verdict("not-run", "k*alpha+4 = 0"))
        out.append(entry)
    return out


def _spectra_section(algebra, components):
    _, verdict = _checked(algebra.verify_spectra)
    per_component = [
        {"component": idx, "axis": comp[0], "dims": dict(
            zip(("2", "0", "alpha"), algebra.adjoint_spectrum(comp[0]).sizes)
        )}
        for idx, comp in enumerate(components) if verdict["verdict"] == "pass"
    ]
    return {"per_component": per_component, **verdict}


def cmd_analyze(args):
    from . import catalog, groups

    t_start = time.perf_counter()
    entry = catalog.from_descriptor(args.descriptor)
    for flag, value in (("--threads", args.threads), ("--max-order", args.max_order),
                        ("--max-axes", args.max_axes)):
        if value is not None and value < 1:
            raise catalog.CatalogError(f"{flag} must be >= 1")

    # The order cap needs only the generators, so it is checked before the
    # graph layer is loaded.
    group_t0 = time.perf_counter()
    group_order = groups.group_order(entry.generators, args.max_order)
    from . import fischer

    sys_t0 = time.perf_counter()
    system = fischer.build_system(entry.generators, max_axes=args.max_axes)
    comps = fischer.components(system)
    witness = fischer.detect_H_triple(system)
    h_order = fischer.extract_H(system, witness).order if witness else None
    center_t0 = time.perf_counter()
    graph_seconds = center_t0 - sys_t0
    center_order = group_order // system.class_action_order()
    group_seconds = time.perf_counter() - center_t0 + (sys_t0 - group_t0)

    from . import matsuo

    alg_t0 = time.perf_counter()
    algebra = matsuo.MatsuoAlgebra(system, args.alpha, args.beta)
    _, axioms = _checked(algebra.verify_axioms)
    radical = algebra.gram_radical()
    quotient_dim, quotient_verdict = _checked(lambda: algebra.quotient(radical).dim)
    _, miyamoto_verdict = _checked(lambda: [algebra.miyamoto(i) for i in range(algebra.n)])
    algebra_seconds = time.perf_counter() - alg_t0

    report = {
        "descriptor": entry.descriptor,
        "group_order": group_order,
        "center_order": center_order,
        "class_size": system.size,
        "connected": len(comps) == 1,
        "components": [
            {"size": len(c), "valency": fischer.valency(system, c)} for c in comps
        ],
        "three_transposition": _verdict("pass"),
        "h_triple": {
            "witness": list(witness) if witness else None,
            "subgroup_order": h_order,
            "type_verdict": "symplectic" if witness is None else
            "non-symplectic (H witness); finer type undetermined beyond H",
        },
        "matsuo": {
            "alpha": format_rational(args.alpha),
            "beta": format_rational(args.beta),
            "axioms": axioms,
            "unity": _unity_section(algebra, comps),
            "radical_dimension": len(radical),
            "quotient_dimension": quotient_dim,
            "quotient": quotient_verdict,
            "spectra": _spectra_section(algebra, comps),
            "miyamoto": miyamoto_verdict,
            "form_positive_definite": positive_definite(algebra),
        },
    }

    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(fischer.to_dot(system))
    if args.gram:
        with open(args.gram, "w") as fh:
            fh.write(matsuo.export_gram_csv(algebra))

    total = time.perf_counter() - t_start
    text = _analysis_text(
        report, {"graph": graph_seconds, "group": group_seconds,
                 "algebra": algebra_seconds, "total": total}
    )
    _emit(report, args.json, text)
    m = report["matsuo"]
    sections = (m["axioms"], *m["unity"], m["quotient"], m["spectra"], m["miyamoto"])
    failed = any(section["verdict"] == "fail" for section in sections)
    return EXIT_VERDICT if failed else EXIT_OK


def positive_definite(algebra):
    """All leading principal minors of the Gram matrix positive."""
    minors = algebra.gram_elimination.minors
    return len(minors) == algebra.n and all(m > 0 for m in minors)


def _analysis_text(report, seconds):
    lines = [f"descriptor        {report['descriptor']}"]
    lines.append(f"group order       {report['group_order']}")
    lines.append(f"center order      {report['center_order']}")
    lines.append(f"class size |I|    {report['class_size']}")
    comps = ", ".join(
        f"size {c['size']} (k={c['valency']})" for c in report["components"]
    )
    lines.append(f"components        {comps}")
    h = report["h_triple"]
    if h["witness"] is None:
        lines.append("H triple          none -> symplectic type")
    else:
        lines.append(
            f"H triple          {tuple(h['witness'])} -> subgroup order "
            f"{h['subgroup_order']} (non-symplectic)"
        )
    m = report["matsuo"]
    lines.append(f"matsuo            alpha={m['alpha']} beta={m['beta']}")
    lines.append(f"  axioms          {m['axioms']['verdict']}")
    for u in m["unity"]:
        desc = f"coefficient {u['coefficient']}" if u["exists"] else "none (k*alpha+4=0)"
        lines.append(f"  unity[{u['component']}]        {desc} [{u['verdict']}]")
    lines.append(f"  radical dim     {m['radical_dimension']}")
    lines.append(
        f"  quotient dim    {m['quotient_dimension']} [{m['quotient']['verdict']}]"
    )
    lines.append(f"  spectra         {m['spectra']['verdict']}")
    for s in m["spectra"]["per_component"]:
        d = s["dims"]
        lines.append(
            f"    axis {s['axis']:<4} dims: 2 -> {d['2']}, 0 -> {d['0']}, "
            f"alpha -> {d['alpha']}"
        )
    lines.append(f"  miyamoto        {m['miyamoto']['verdict']}")
    lines.append(f"  form pos.def.   {m['form_positive_definite']}")
    lines.append(
        "timing            "
        + ", ".join(f"{phase} {value:.2f}s" for phase, value in seconds.items())
    )
    return "\n".join(lines) + "\n"


# -- fusion ------------------------------------------------------------------


def _label_line(row):
    """A fusion row as text: its label and weight, then its tau and sigma
    signs when it has them."""
    line = f"  ({row['r']},{row['s']})  h={row['weight']:<8}"
    if "tau_sign" in row:
        line += f" tau={row['tau_sign']:+d}"
    if row.get("sigma_sign") is not None:
        line += f" sigma={row['sigma_sign']:+d}"
    return line


def cmd_fusion(args):
    from . import virasoro

    m = args.m
    if m < 1:
        raise virasoro.VirasoroError(f"--m must be >= 1, got {m}")
    # Each query reads only its own flags; a flag it would drop is an error.
    if args.grid and args.sector:
        raise virasoro.VirasoroError("--sector cannot be combined with --grid")
    if args.contains is not None and not args.grid:
        raise virasoro.VirasoroError("--contains needs --grid")
    query = "--grid" if args.grid else "--sector" if args.sector else None
    for flag, label in (("--left", args.left), ("--right", args.right)):
        if query and label is not None:
            raise virasoro.VirasoroError(f"{flag} cannot be combined with {query}")

    fields = {
        "tau_sign": lambda label: virasoro.tau_sign(m, label),
        "in_sigma_sector": lambda label: virasoro.in_sigma_sector(m, label),
        "sigma_sign": lambda label: (
            virasoro.sigma_sign(m, label) if virasoro.in_sigma_sector(m, label) else None
        ),
    }

    def rows(labels, *names):
        return [
            {"r": r, "s": s, "weight": format_rational(virasoro.weight(m, r, s)),
             **{name: fields[name]((r, s)) for name in names}}
            for r, s in labels
        ]

    if args.grid:
        charge = format_rational(virasoro.central_charge(m))
        header, key = f"m={m}  c={charge}", "labels"
        payload = {"m": m, "central_charge": charge,
                   key: rows(virasoro.irreducibles(m), "tau_sign")}
    elif args.sector:
        header, key = f"P_{m}:", "sector"
        payload = {"m": m, key: rows(virasoro.sigma_sector(m), "sigma_sign")}
    else:
        if args.left is None or args.right is None:
            raise virasoro.VirasoroError("need --left and --right (or --grid / --sector)")
        (a, b), (c, d) = args.left, args.right
        header, key = f"({a},{b}) x ({c},{d}) at m={m}:", "product"
        payload = {"m": m, "left": [a, b], "right": [c, d], key: rows(
            virasoro.fuse(m, args.left, args.right),
            "tau_sign", "in_sigma_sector", "sigma_sign",
        )}
    lines = [header, *map(_label_line, payload[key])]
    if args.contains is not None:
        present = virasoro.weight_exists(m, args.contains)
        payload["contains"] = {"weight": format_rational(args.contains), "present": present}
        lines.append(f"  weight {format_rational(args.contains)}: "
                     f"{'present' if present else 'absent'}")
    _emit(payload, args.json, "\n".join(lines) + "\n")
    return EXIT_OK


# -- sakuma ------------------------------------------------------------------


def _record_jsonable(rec, ambiguous=False):
    out = {
        "type": rec.type_tag,
        "max_tau_order": rec.max_tau_order,
        "inner_product": format_rational(rec.inner_product),
        "inner_product_times_1024": rec.inner_product_times_1024,
        "griess_dim": rec.griess_dim,
        "ising_count": rec.ising_count,
        "miyamoto_kind": rec.miyamoto_kind,
    }
    if ambiguous:
        out["ambiguous"] = True
    return out


def cmd_sakuma(args):
    from . import virasoro

    if (args.tag is None) == (args.inner is None):
        raise virasoro.NotInTableError("give exactly one of a type tag or --inner p/q")
    if args.tag is not None:
        records = (virasoro.lookup_by_type(args.tag),)
    else:
        records = virasoro.lookup_by_inner_product(args.inner)
    ambiguous = len(records) > 1
    payload = [_record_jsonable(rec, ambiguous) for rec in records]
    lines = []
    if ambiguous:
        lines.append("ambiguous inner product; candidates:")
    for rec in records:
        lines.append(
            f"{rec.type_tag}: (e|f)={format_rational(rec.inner_product)} "
            f"(x1024: {rec.inner_product_times_1024}), dim={rec.griess_dim}, "
            f"axes={rec.ising_count}, max|tt'|={rec.max_tau_order}, "
            f"kind={rec.miyamoto_kind}"
        )
    _emit(payload, args.json, "\n".join(lines) + "\n")
    return EXIT_OK


# Each reported error class by module and name, with its exit code; a
# subclass comes before its base.
_EXIT_CODES = (
    ("fischerlab.fischer", "NotThreeTranspositionError", EXIT_VERDICT),
    ("fischerlab.groups", "EnumerationCapError", EXIT_CAP),
    ("fischerlab.groups", "GroupError", EXIT_INTERNAL),
    ("fischerlab.catalog", "CatalogError", EXIT_USAGE),
    ("fischerlab.virasoro", "VirasoroError", EXIT_USAGE),
    ("builtins", "OSError", EXIT_USAGE),
    ("fischerlab.matsuo", "MatsuoError", EXIT_VERDICT),
)


def _exit_code(exc):
    """The exit code for an error a command raised, or None for one that is
    not a reported error.  A layer that was never loaded cannot have raised,
    so only loaded layers are consulted and an error exit loads none."""
    for module, name, code in _EXIT_CODES:
        layer = sys.modules.get(module)
        if layer is not None and isinstance(exc, getattr(layer, name)):
            return code
    return None


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.handler(args)
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
