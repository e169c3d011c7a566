"""Command line interface: `heckelab scan` runs a twist-family scan.

    heckelab scan --D -4 --P 5 13 --c-max 25 --tol 1e-8 [--out DIR]

The base character phi is built the same way for every fundamental D < 0,
on the finite part of canonical_epsilon.  The scan's deterministic JSON goes
to standard output, or with --out to DIR/scan.json, scan.csv and scan.log.
A domain error (a HeckeLabError) exits with EXIT_DOMAIN_ERROR.
"""

from __future__ import annotations

import argparse
import sys

from .characters import build_hecke_character, canonical_epsilon
from .errors import EXIT_DOMAIN_ERROR, HeckeLabError
from .family import save_scan, scan_report, scan_to_json
from .quadfield import make_field


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="heckelab")
    sub = ap.add_subparsers(dest="command", required=True)
    scan = sub.add_parser("scan", help="scan the ring-class twists of one base character")
    scan.add_argument("--D", type=int, required=True, help="fundamental discriminant < 0")
    scan.add_argument("--P", type=int, nargs="+", required=True, help="primes allowed in c")
    scan.add_argument("--c-max", type=int, required=True, help="largest twist conductor c")
    scan.add_argument("--tol", type=float, required=True, help="tolerance of the L-values")
    scan.add_argument("--out", help="write scan.json, scan.csv and scan.log here")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    P = tuple(args.P)
    try:
        field = make_field(args.D)
        phi = build_hecke_character(field, canonical_epsilon(field))
        records = scan_report(field, phi, P, args.c_max, tol=args.tol)
        if args.out is None:
            sys.stdout.write(scan_to_json(field, phi, P, args.c_max, args.tol, records))
        else:
            paths = save_scan(field, phi, P, args.c_max, args.tol, records, args.out)
            print(paths["json"])
    except HeckeLabError as exc:
        print(f"heckelab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
