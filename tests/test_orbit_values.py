"""The lattice theta tables of a scan's twists against a multiplicative sieve.

theta_coeffs sums Hecke's theta series over lattice points of the
characters twist() builds.  The tests here compare its tables with the
oracle module's prime sieve, fed two independent sources of chi_m(P):
exact evaluation of twist()'s characters, and phi(P) rho^m(P) from phi
and the integer exponents of rho.
"""

import cmath
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
from heckelab.quadfield import make_field
from heckelab.rootnumber import fe_bound
from oracles import sieve_theta_coeffs

# (D, P, c_max): two-member orbits over Q(i), an h = 3 field whose c = 1 orbits
# are class group characters, and Q(i) with 2 in P, where the conductor of
# phi rho^m drops below lcm(f(phi), cO) at (1+i)
FAMILIES = [(-4, (5, 13), 25), (-23, (2, 3), 8), (-4, (2, 5), 20)]


def _phi(D):
    field = make_field(D)
    return field, build_hecke_character(
        field, gaussian_epsilon(field) if D == -4 else canonical_epsilon(field)
    )


def _orbit_values(phi, rho, orbit, m, chi):
    """chi_m(P) as phi(P) zeta_n^{m k_P}, rho(P) = zeta_n^{k_P}, away from c N(f(phi)).

    At P over c N(f(phi)) the conductor of twist()'s chi_m can drop below
    lcm(f(phi), cO), so the value there is evaluate_char(chi_m, P).
    """
    if rho.is_trivial():
        return lambda P: evaluate_char(phi, P).complex()
    n, modulus = rho.order, rho.c * phi.conductor_norm

    def value(P):
        if math.gcd(P.norm, modulus) != 1:
            return evaluate_char(chi, P).complex()
        zeta = cmath.exp(2j * cmath.pi * m * rho.value_exponent(P) / n)
        return evaluate_char(phi, P).complex() * zeta

    return value


@pytest.fixture(scope="module")
def member_tables():
    """(family, c, m, lattice table, sieve tables) for every member at its FE bound.

    The sieve of the oracle module runs twice per member: on exact values of
    twist()'s character, and on phi(P) rho^m(P).
    """
    out = []
    for D, P, c_max in FAMILIES:
        field, phi = _phi(D)
        for orbit in family.enumerate_twists(field, phi, P, c_max):
            members = family.orbit_characters(phi, orbit)
            rho = orbit.rho(field, orbit.members[0])
            for m, chi in zip(orbit.members, members):
                X = fe_bound(chi)
                exact = lambda pr, chi=chi: evaluate_char(chi, pr).complex()
                sieves = (
                    sieve_theta_coeffs(field, X, exact),
                    sieve_theta_coeffs(field, X, _orbit_values(phi, rho, orbit, m, chi)),
                )
                out.append(((D, P, c_max), orbit.c, m, theta_coeffs(chi, X), sieves))
    return out


def test_orbit_tables_match_twisted_characters(member_tables):
    assert {fam for fam, *_ in member_tables} == set(FAMILIES)
    for fam, c, m, table, sieves in member_tables:
        for sieve in sieves:
            assert list(table) == list(sieve), (fam, c, m)
            for n, a in sieve.items():
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


def test_theta_coeffs_evaluates_no_character(monkeypatch):
    # every table of a scan, central values, FE root numbers and the orbit-mean
    # check's, is read off the finite parts' exponent arrays
    field, phi = _phi(-4)
    evaluate, theta = characters.evaluate_char, lseries.theta_coeffs
    depth, tables, inside = [0], [0], []

    def counted(char, ideal):
        if depth[0]:
            inside.append((char.descriptor(), ideal))
        return evaluate(char, ideal)

    def traced(chi, X):
        depth[0] += 1
        tables[0] += 1
        try:
            return theta(chi, X)
        finally:
            depth[0] -= 1

    for module in (characters, family, lseries, rootnumber):
        if hasattr(module, "evaluate_char"):
            monkeypatch.setattr(module, "evaluate_char", counted)
        if hasattr(module, "theta_coeffs"):
            monkeypatch.setattr(module, "theta_coeffs", traced)
    records = family.scan_report(field, phi, (5, 13), 25)
    assert all(r.error is None for r in records)
    # 7 FE tables, 15 central values and 15 orbit-mean tables
    assert tables[0] == 37
    assert inside == []


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
