"""Correctness gate: a workload's result against its committed reference.

Scans: every integer and string field of every record matches exactly, `f`
too; `Lv`, `Lv_av` and `ratio` agree within `tol` plus the two records'
tail bounds (each value is within its own tail bound of the truth).
Twists: `conductor_norm` and `W` match exactly; the central value agrees
within `tol` plus the two tail bounds.  `check` returns the mismatches; an
empty list means the result passed.
"""

from __future__ import annotations

SCAN_HEADER = ("D", "P", "c_max", "tol", "base_character")
EXACT_FIELDS = ("c", "exponents", "n", "orbit_size", "f", "W", "v", "N_counts", "main_lemma", "verdict", "error")
CLOSE_FIELDS = ("Lv", "Lv_av", "ratio")


def _close(new, ref, slack) -> bool:
    # written so that NaN anywhere fails
    return abs(float(new) - float(ref)) <= slack


def check_scan(reference: dict, result: dict) -> list[str]:
    problems = [
        f"{key}: {result.get(key)!r} != {reference[key]!r}"
        for key in SCAN_HEADER
        if result.get(key) != reference[key]
    ]
    if "error" in result:
        problems.append(f"scan raised {result['error']}")
    ref_records, new_records = reference["records"], result.get("records", [])
    if len(new_records) != len(ref_records):
        problems.append(f"{len(new_records)} records, reference has {len(ref_records)}")
    tol = float(reference["tol"])
    for ref, new in zip(ref_records, new_records):
        where = f"record c={ref['c']} exponents={ref['exponents']}"
        for key in EXACT_FIELDS:
            if new.get(key) != ref[key]:
                problems.append(f"{where}: {key} {new.get(key)!r} != {ref[key]!r}")
        slack = tol + float(ref["tail_bound"]) + float(new.get("tail_bound", "nan"))
        for key in CLOSE_FIELDS:
            if not _close(new.get(key, "nan"), ref[key], slack):
                problems.append(f"{where}: {key} {new.get(key)} not within {slack:.3g} of {ref[key]}")
    return problems


def check_twists(reference: dict, result: dict) -> list[str]:
    def by_key(rows):
        return {(row["c"], tuple(row["exponents"])): row for row in rows}

    ref_rows, new_rows = by_key(reference["twists"]), by_key(result["twists"])
    problems = []
    if ref_rows.keys() != new_rows.keys():
        problems.append(f"characters {sorted(new_rows)} != reference {sorted(ref_rows)}")
    tol = float(reference["tol"])
    for key, ref in ref_rows.items():
        new = new_rows.get(key)
        if new is None:
            continue
        where = f"character c={key[0]} exponents={list(key[1])}"
        if "error" in new:
            problems.append(f"{where}: raised {new['error']}")
            continue
        for field in ("conductor_norm", "W"):
            if new[field] != ref[field]:
                problems.append(f"{where}: {field} {new[field]!r} != {ref[field]!r}")
        slack = tol + ref["tail_bound"] + new["tail_bound"]
        if not _close(new["L"], ref["L"], slack):
            problems.append(f"{where}: L {new['L']} not within {slack:.3g} of {ref['L']}")
    return problems


CHECKS = {"scan": check_scan, "twists": check_twists}


def check(kind: str, reference: dict, result: dict) -> list[str]:
    return CHECKS[kind](reference, result)
