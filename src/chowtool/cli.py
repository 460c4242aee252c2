"""chowtool command line.

Subcommands: analyze, ehrhart, symmetry, triangulate, equations, catalog,
falsify.  Inputs are polytope JSON files or catalog names ("catalog:X6" or
a bare registered name).  Exit codes: 0 success, 1 input error, 2 when
analyze ends inconclusive (scripts can tell "proved nothing" from "error").
"""

import argparse
import os
import sys

from . import catalog as _catalog, ehrhart, jsonio, stability, symmetry, toricgen, triangulation
from .errors import ChowToolError, ParseError, UnknownName


def _load_input(spec):
    if spec.startswith("catalog:"):
        return _catalog.get(spec[len("catalog:") :]).polytope
    if os.path.exists(spec):
        return jsonio.load_polytope(spec)
    try:
        return _catalog.get(spec).polytope
    except UnknownName:
        raise ParseError(f"no such file or catalog entry: {spec}") from None


def cmd_analyze(args):
    P = _load_input(args.input)
    kmax = args.kmax if args.kmax is not None else P.dim + 3
    verdict = stability.classify(P, k_max=kmax)
    if args.json:
        print(jsonio.dump_json(jsonio.verdict_to_json(P, verdict)))
    else:
        print(f"{P.name or args.input}: {verdict.status}")
        for c in verdict.checks:
            mark = "ok" if c.passed else "--"
            print(f"  [{mark}] {c.name}: {c.detail}")
            for key, val in c.data:
                print(f"        {key} = {val}")
        if verdict.certificate is not None:
            c = verdict.certificate
            print(f"  certificate: {c.kind} at k = {c.k}, gap = {c.gap}")
    return 2 if verdict.status == stability.INCONCLUSIVE else 0


def cmd_ehrhart(args):
    P = _load_input(args.input)
    poly = ehrhart.ehrhart_polynomial(P)
    kmax = args.kmax if args.kmax is not None else P.dim + 3
    table = [(k, ehrhart.count(P, k)) for k in range(kmax + 1)]
    if args.json:
        print(
            jsonio.dump_json(
                {
                    "polytope": jsonio.polytope_to_json(P),
                    "coefficients": [jsonio.fraction_str(c) for c in poly.coefficients],
                    "counts": {str(k): int(v) for k, v in table},
                }
            )
        )
    else:
        print(f"chi(kP) = {poly}")
        for k, v in table:
            print(f"  k = {k:2d}: {v}")
    return 0


def cmd_symmetry(args):
    P = _load_input(args.input)
    auts = symmetry.automorphisms(P)
    sym = symmetry.is_symmetric(P)
    weakly, evidence = symmetry.is_weakly_symmetric(P)
    data = {
        "order": len(auts),
        "is_symmetric": sym,
        "is_weakly_symmetric": weakly,
    }
    if not weakly:
        data["fo_witness"] = {
            "coordinate": evidence.coordinate,
            "k": evidence.k,
            "value": jsonio.fraction_str(evidence.value),
        }
    if args.json:
        print(jsonio.dump_json({"polytope": jsonio.polytope_to_json(P), **data}))
    else:
        print(f"automorphism group order: {len(auts)}")
        print(f"symmetric: {sym}")
        print(f"weakly symmetric: {weakly}")
        if not weakly:
            print(f"  witness: {evidence.describe()}")
    return 0


def cmd_triangulate(args):
    P = _load_input(args.input)
    k = args.k
    user = jsonio.load_triangulation(args.triangulation) if args.triangulation else None
    if args.boundary or user is not None:
        T = user if user is not None else triangulation.boundary_triangulation(P, k)
        try:
            report = triangulation.verify_regular_boundary(P, T, k)
        except ValueError as exc:
            # only a supplied table can be of the wrong dimension
            raise ParseError(f"--triangulation: {exc}") from None
        payload = {
            "polytope": jsonio.polytope_to_json(P),
            "dilation": k,
            "cells": len(T),
            "relative_volume": jsonio.fraction_str(T.relative_volume()),
            "regular": report.regular,
            "max_incidence": report.max_incidence,
            "incidence_bound": report.incidence_bound,
            "coverage_ok": report.coverage_ok,
            "all_unimodular": report.all_unimodular,
            "face_compatible": report.face_compatible,
            "offenders": [list(p) for p in report.offenders],
        }
        if args.json:
            print(jsonio.dump_json(payload))
        else:
            print(report.summary())
            print(f"  coverage: {report.coverage_ok}, unimodular: {report.all_unimodular}")
            if report.offenders:
                print(f"  offenders: {list(report.offenders)[:6]}")
    else:
        T = triangulation.full_triangulation(P, k)
        payload = {
            "polytope": jsonio.polytope_to_json(P),
            "dilation": k,
            "cells": len(T),
            "relative_volume": jsonio.fraction_str(T.relative_volume()),
        }
        if args.json:
            print(jsonio.dump_json(payload))
        else:
            print(f"{len(T)} cells, total volume {jsonio.fraction_str(T.relative_volume())}")
    return 0


def cmd_equations(args):
    P = _load_input(args.input)
    if args.json:
        pts, eqs = toricgen.binomial_equations(P)
        print(
            jsonio.dump_json(
                {
                    "note": toricgen.KERNEL_BASIS_NOTE,
                    "points": [list(p) for p in pts],
                    "equations": [e.render() for e in eqs],
                    "z0_powers": [e.z0_power for e in eqs],
                }
            )
        )
    else:
        print(toricgen.render_equations(P, name=args.input))
    return 0


def cmd_catalog(args):
    if args.action == "list":
        rows = []
        for name, dim, expected in _catalog.listing():
            props = ", ".join(f"{k}={v}" for k, v in sorted(expected.items()))
            rows.append({"name": name, "dim": dim, "expected": props})
        if args.json:
            print(jsonio.dump_json(rows))
        else:
            for row in rows:
                print(f"{row['name']:24s} dim {row['dim']}  {row['expected']}")
        return 0
    entry = _catalog.get(args.name)
    if args.svg:
        svg = jsonio.render_svg(entry.polytope)
        with open(args.svg, "w") as fh:
            fh.write(svg)
        print(f"wrote {args.svg}")
        return 0
    payload = {
        "polytope": jsonio.polytope_to_json(entry.polytope),
        "expected": dict(entry.expected),
        "notes": entry.notes,
    }
    if args.json:
        print(jsonio.dump_json(payload))
    else:
        print(entry.name, "dim", entry.polytope.dim)
        print("vertices:", [list(v) for v in entry.polytope.vertices])
        for k, v in sorted(entry.expected.items()):
            print(f"  {k}: {v}")
        if entry.notes:
            print("  note:", entry.notes)
    return 0


def cmd_falsify(args):
    P = _load_input(args.input)
    cert = stability.falsify(P, args.k)
    if cert is None:
        print(f"no violation found at k = {args.k} (LP optimum <= 0)")
        return 0
    print(f"master inequality violated at k = {args.k}: gap = {cert.gap}")
    if args.json:
        values = [
            [list(p), jsonio.fraction_str(v)] for p, v in sorted(cert.function.values.items())
        ]
        gap = jsonio.fraction_str(cert.gap)
        print(jsonio.dump_json({"k": args.k, "gap": gap, "values": values}))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chowtool",
        description="exact lattice-polytope analysis and Chow stability verdicts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="polytope JSON file or catalog name")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("analyze", help="run the full verdict pipeline")
    common(p)
    p.add_argument("--kmax", type=int, default=None, help="dilation bound (default n+3)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("ehrhart", help="Ehrhart polynomial and count table")
    common(p)
    p.add_argument("--kmax", type=int, default=None)
    p.set_defaults(func=cmd_ehrhart)

    p = sub.add_parser("symmetry", help="automorphisms and FO invariants")
    common(p)
    p.set_defaults(func=cmd_symmetry)

    p = sub.add_parser("triangulate", help="build or verify triangulations")
    common(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--boundary", action="store_true", help="boundary triangulation + regularity report")
    p.add_argument("--triangulation", default=None, help="user-supplied boundary triangulation JSON")
    p.set_defaults(func=cmd_triangulate)

    p = sub.add_parser("equations", help="binomial equations of the toric variety")
    common(p)
    p.set_defaults(func=cmd_equations)

    p = sub.add_parser("catalog", help="list or show named polytopes")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--svg", default=None, help="write an SVG wireframe (dim <= 3)")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("falsify", help="LP search for a master-inequality violation")
    common(p)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=cmd_falsify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "catalog" and args.action == "show" and not args.name:
        parser.error("catalog show needs a name")
    try:
        if hasattr(args, "kmax") and args.kmax is not None and args.kmax < 1:
            raise ParseError("--kmax must be >= 1")
        if hasattr(args, "k") and args.k < 1:
            raise ParseError("--k must be >= 1")
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout (`catalog list | head -1`); as the Python
        # docs advise, send the unwritten rest to devnull so that the flush at
        # exit raises nothing, and report failure
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except ChowToolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# documented operation name: run(argv) -> exit status (output on stdout/stderr)
run = main


if __name__ == "__main__":
    sys.exit(main())
