"""One repetition of a workload, in a fresh interpreter so every cache starts cold.

    python3 perfbench/worker.py --spec '<json>' [--trace 0|1] [--setup-only]

`run.py` starts it with `src` on PYTHONPATH.  It times set-up (importing
heckelab, `make_field(D)`, building the base character phi), then the workload,
and prints one JSON object: the timings, the workload's result, and with
`--trace 1` the per-layer metrics of `spans`.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_scan(field, phi, spec):
    """scan_report plus scan_to_json; an operation is one orbit record."""
    from heckelab import HeckeLabError, family

    P, c_max, tol = tuple(spec["P"]), spec["c_max"], spec["tol"]
    try:
        records = family.scan_report(field, phi, P, c_max, tol=tol)
        text = family.scan_to_json(field, phi, P, c_max, tol, records)
    except HeckeLabError as exc:
        return {"error": _error(exc)}, 1, 1
    return json.loads(text), len(records), sum(r.error is not None for r in records)


def run_twists(field, phi, spec):
    """twist, root_number and central_value per character; an operation is one character."""
    from heckelab import HeckeLabError, characters, lseries, rootnumber

    out, failed = [], 0
    for c, exponents in spec["twists"]:
        row = {"c": c, "exponents": exponents}
        try:
            rho = characters.ring_class_character(field, c, tuple(exponents))
            chi = characters.twist(phi, rho)
            W = rootnumber.root_number(chi)
            sv = lseries.central_value(chi, int(1 - W) // 2, tol=spec["tol"], w=W)
            row.update(
                conductor_norm=chi.conductor_norm, W=int(W), L=sv.value, tail_bound=sv.tail_bound
            )
        except HeckeLabError as exc:
            failed += 1
            row["error"] = _error(exc)
        out.append(row)
    return {"tol": spec["tol"], "twists": out}, len(out), failed


RUNS = {"scan": run_scan, "twists": run_twists}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spec", required=True, help="workload inputs as JSON")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    spec = json.loads(args.spec)

    t0 = time.perf_counter()
    import heckelab
    from heckelab import characters, family, lseries, rootnumber  # noqa: F401  the workload's modules

    if not Path(heckelab.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"imported heckelab from {heckelab.__file__}, not from this checkout")
    field = heckelab.make_field(spec["D"])
    phi = characters.build_hecke_character(field, getattr(characters, spec["epsilon"])(field))
    out = {"setup_s": time.perf_counter() - t0}
    if args.setup_only:
        print(json.dumps(out))
        return

    import numpy
    import scipy

    out["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    if args.trace:
        import spans

        tracer = spans.Tracer()
        out["missing_layers"] = spans.install(tracer)
    cpu0, t1 = _cpu_s(), time.perf_counter()
    result, attempted, failed = RUNS[spec["kind"]](field, phi, spec)
    out["wall_s"] = time.perf_counter() - t1
    out["cpu_s"] = _cpu_s() - cpu0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.update(attempted=attempted, failed=failed, result=result)
    if args.trace:
        out["layers"] = tracer.metrics()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
