"""A scan's twist values phi(P) rho^m(P) against the characters twist() builds.

scan_report evaluates phi once per prime ideal and reads every orbit
member's prime values off that table and the integer exponents of rho; the
tests here compare those values, through the theta-coefficient sieve, with
exact evaluation of the primitive characters that twist() builds.
"""

import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab import characters, family, lseries, rootnumber
from heckelab.arith import factorize
from heckelab.characters import (
    build_hecke_character,
    canonical_epsilon,
    evaluate_char,
    gaussian_epsilon,
)
from heckelab.lseries import theta_coeffs
from heckelab.quadfield import enumerate_ideals, make_field
from heckelab.rootnumber import fe_bound

# (D, P, c_max): two-member orbits over Q(i), an h = 3 field whose c = 1 orbits
# are class group characters, and Q(i) with 2 in P, where the conductor of
# phi rho^m drops below lcm(f(phi), cO) at (1+i)
FAMILIES = [(-4, (5, 13), 25), (-23, (2, 3), 8), (-4, (2, 5), 20)]


def _phi(D):
    field = make_field(D)
    return field, build_hecke_character(
        field, gaussian_epsilon(field) if D == -4 else canonical_epsilon(field)
    )


@pytest.fixture(scope="module")
def member_tables():
    """(family, c, m, orbit-path table, twist() table) for every member at its FE bound."""
    out = []
    for D, P, c_max in FAMILIES:
        field, phi = _phi(D)
        phi_values = functools.cache(lambda pr, phi=phi: evaluate_char(phi, pr).complex())
        for orbit in family.enumerate_twists(field, phi, P, c_max):
            members = family.orbit_characters(phi, orbit)
            rho = orbit.rho(field, orbit.members[0])
            sources = family.orbit_prime_values(phi_values, phi, rho, orbit, members)
            for m, chi, source in zip(orbit.members, members, sources):
                X = fe_bound(chi)
                tables = theta_coeffs(chi, X, source), theta_coeffs(chi, X)
                out.append(((D, P, c_max), orbit.c, m, *tables))
    return out


def test_orbit_tables_match_twisted_characters(member_tables):
    assert {fam for fam, *_ in member_tables} == set(FAMILIES)
    for fam, c, m, table, exact in member_tables:
        assert list(table) == list(exact), (fam, c, m)
        for n, a in exact.items():
            assert abs(table[n] - a) <= 1e-12 * max(1.0, abs(a)), (fam, c, m, n)


def _divisor_count(n):
    return math.prod(e + 1 for _, e in factorize(n)) if n > 1 else 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orbit_table_coefficient_bound_and_multiplicativity(member_tables, data):
    fam, c, m, table, _ = data.draw(st.sampled_from(member_tables))
    X = max(table)
    a = data.draw(st.integers(min_value=1, max_value=X))
    b = data.draw(st.integers(min_value=1, max_value=X // a))
    # the Ramanujan bound of a type (1,0) character: |a_n| <= d(n) sqrt(n)
    for n in (a, b, a * b):
        assert abs(table.get(n, 0j)) <= _divisor_count(n) * math.sqrt(n) * (1 + 1e-12)
    if math.gcd(a, b) == 1:
        want = table.get(a, 0j) * table.get(b, 0j)
        assert abs(table.get(a * b, 0j) - want) <= 1e-9 * max(1.0, abs(want)), (fam, c, m, a, b)


def test_phi_is_evaluated_once_per_prime_ideal_per_scan(monkeypatch):
    field, phi = _phi(-4)
    evaluate = characters.evaluate_char
    phi_calls = {}
    inside_mean_check = [False]

    def counted(char, ideal):
        if char == phi and ideal.factor() == {ideal: 1} and not inside_mean_check[0]:
            phi_calls[ideal] = phi_calls.get(ideal, 0) + 1
        return evaluate(char, ideal)

    check = family._check_orbit_mean

    def mean_check(*args):
        # the orbit-mean check evaluates twist()'s characters and phi on its own, by design
        inside_mean_check[0] = True
        try:
            return check(*args)
        finally:
            inside_mean_check[0] = False

    for module in (characters, family, lseries, rootnumber):
        if hasattr(module, "evaluate_char"):
            monkeypatch.setattr(module, "evaluate_char", counted)
    monkeypatch.setattr(family, "_check_orbit_mean", mean_check)
    records = family.scan_report(field, phi, (5, 13), 25)
    assert all(r.error is None for r in records)
    assert max(phi_calls.values()) == 1
    # the c = 25 record's FE bound is 2116: phi was read at every prime ideal below it
    primes = {pr for pr in enumerate_ideals(field, 2000) if pr.factor() == {pr: 1}}
    assert primes <= set(phi_calls)


def test_scan_leaves_scipy_special_unloaded():
    # the scan path needs no special functions; importing scipy.special costs more than a scan
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "from heckelab import family, make_field\n"
        "from heckelab.characters import build_hecke_character, gaussian_epsilon\n"
        "field = make_field(-4)\n"
        "phi = build_hecke_character(field, gaussian_epsilon(field))\n"
        "records = family.scan_report(field, phi, (5,), 5)\n"
        "assert records and all(r.error is None for r in records)\n"
        "print('scipy.special' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "False"
