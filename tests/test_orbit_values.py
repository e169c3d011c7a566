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
)
from heckelab.lseries import theta_coeffs, theta_lattice
from heckelab.quadfield import make_field
from heckelab.rootnumber import fe_bound
from oracles import sieve_theta_coeffs, table_dict

# (D, P, c_max): two-member orbits over Q(i), an h = 3 field whose c = 1 orbits
# are class group characters, and Q(i) with 2 in P, where c and f(phi) = (1+i)^3
# share (1+i), so lcm(f(phi), cO) properly divides f(phi) cO; every member of
# these families has conductor exactly that lcm
FAMILIES = [(-4, (5, 13), 25), (-23, (2, 3), 8), (-4, (2, 5), 20)]


def _phi(D):
    field = make_field(D)
    return field, build_hecke_character(field, canonical_epsilon(field))


def _orbit_values(phi, rho, orbit, m, chi):
    """chi_m(P) as phi(P) zeta_n^{m k_P}, rho(P) = zeta_n^{k_P}, away from c N(f(phi)).

    At P over c N(f(phi)) rho or phi has no value, so the value there is
    evaluate_char(chi_m, P); it is 0 while P divides the conductor of chi_m,
    which in the FAMILIES is lcm(f(phi), cO).
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
        for orbit in family.enumerate_twists(field, P, c_max):
            rho = orbit.rho
            members = characters.twist_orbit(phi, rho, orbit.members)
            for m, chi in zip(orbit.members, members):
                X = fe_bound(chi)
                exact = lambda pr, chi=chi: evaluate_char(chi, pr).complex()
                sieves = (
                    sieve_theta_coeffs(field, X, exact),
                    sieve_theta_coeffs(field, X, _orbit_values(phi, rho, orbit, m, chi)),
                )
                table = table_dict(theta_coeffs(chi, X, theta_lattice(chi, X)))
                out.append(((D, P, c_max), orbit.c, m, table, sieves))
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


@pytest.mark.parametrize(
    "D, P, c_max, calls",
    [
        # one table per member (15): the first member's is read by its FE root
        # number, and every member's by its central value and the orbit-mean
        # check; the tables are summed over one lattice per conductor (4)
        (-4, (5, 13), 25, {"theta_coeffs": 15, "theta_lattice": 4}),
        (-23, (2, 3), 8, {"theta_coeffs": 15, "theta_lattice": 4}),
    ],
    ids=["scan-gauss", "D-23"],
)
def test_theta_coeffs_evaluates_chi_once_per_lattice_class(D, P, c_max, calls, monkeypatch):
    # every table of a scan, central values, FE root numbers and the orbit-mean
    # check's, is read off the finite parts' exponent arrays and the weight
    # 1/chi(J) of each class ideal J of its lattice: evaluate_char runs once per
    # class per table, at that lattice's class ideals, and never for a lattice
    field, phi = _phi(D)
    evaluate = characters.evaluate_char
    inside, seen = [None], {name: [] for name in calls}

    def counted(char, ideal):
        if inside[0] is not None:
            inside[0].append((char, ideal))
        return evaluate(char, ideal)

    def traced(name):
        fn = getattr(lseries, name)

        def wrapper(chi, X, *shared):
            inside[0] = []
            try:
                return fn(chi, X, *shared)
            finally:
                seen[name].append((chi, shared, inside[0]))
                inside[0] = None

        return wrapper

    for module in (characters, family, lseries, rootnumber):
        if hasattr(module, "evaluate_char"):
            monkeypatch.setattr(module, "evaluate_char", counted)
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, traced(name))
    records = family.scan_report(field, phi, P, c_max, tol=1e-8)
    assert all(r.error is None for r in records)
    assert {name: len(found) for name, found in seen.items()} == calls
    assert all(evaluated == [] for *_, evaluated in seen["theta_lattice"])
    for chi, (lattice,), evaluated in seen["theta_coeffs"]:
        assert len(evaluated) == field.h
        assert all(char is chi for char, _ in evaluated)
        assert [ideal for _, ideal in evaluated] == [J for J, *_ in lattice.classes]
        assert evaluated[0][1].norm == 1


def test_scan_leaves_scipy_special_unloaded():
    # the scan path needs no special functions; importing scipy.special costs more than a scan
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "from heckelab import family, make_field\n"
        "from heckelab.characters import build_hecke_character, gaussian_epsilon\n"
        "field = make_field(-4)\n"
        "phi = build_hecke_character(field, gaussian_epsilon(field))\n"
        "records = family.scan_report(field, phi, (5,), 5, 1e-8)\n"
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
