from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from heckelab import characters, family
from heckelab.arith import factorize
from heckelab.characters import (
    build_hecke_character,
    canonical_epsilon,
    evaluate_char,
    finite_part,
    gaussian_epsilon,
)
from heckelab.errors import RestrictionMismatch
from heckelab.quadfield import class_group, make_field, principal_ideal
from heckelab.rootnumber import root_number


@pytest.fixture(scope="module")
def gauss():
    field = make_field(-4)
    return field, build_hecke_character(field, gaussian_epsilon(field))


def test_golden_family(gauss):
    field, phi = gauss
    records = family.scan_report(field, phi, (5, 13), 13)
    assert [(r.c, r.exponents, r.W) for r in records] == [
        (1, (), 1),
        (5, (1,), -1),
        (13, (1,), -1),
        (13, (2,), 1),
        (13, (3,), -1),
    ]
    for r in records:
        assert r.error is None
        assert r.verdict == "nonzero"


def test_scan_requires_property1(monkeypatch):
    field = make_field(-23)
    chi23 = build_hecke_character(field, canonical_epsilon(field))
    records = family.scan_report(field, chi23, (2,), 1)
    # c = 1: the trivial orbit and the order-3 class group characters (h = 3)
    assert [(r.c, r.n, r.error) for r in records] == [(1, 1, None), (1, 3, None)]
    # an order-22 finite part: unit consistent, but phi restricted to Q is not kappa_K
    broken = build_hecke_character(
        field, finite_part(field, principal_ideal(field, field.sqrt_D), (1,), M=22)
    )
    # the precondition runs before the first record is built
    monkeypatch.setattr(family, "enumerate_twists", lambda *args: pytest.fail("scan went on"))
    with pytest.raises(RestrictionMismatch):
        family.scan_report(field, broken, (2,), 1)


def test_dropdown_kernels_built_once_per_conductor_prime(gauss, monkeypatch):
    field, phi = gauss
    calls = Counter()
    kernel = family._dropdown_kernel

    def counted(field, c, p):
        calls[c, p] += 1
        return kernel(field, c, p)

    monkeypatch.setattr(family, "_dropdown_kernel", counted)
    orbits = family.enumerate_twists(field, phi, (5, 13), 25)
    assert len(orbits) == 7
    assert calls == {(c, p): 1 for c in (5, 13, 25) for p, _ in factorize(c)}


def test_root_number_routes_must_agree(gauss, monkeypatch):
    field, phi = gauss
    monkeypatch.setattr(family, "root_number_via_fe", lambda chi: -root_number(chi))
    records = family.scan_report(field, phi, (5,), 5)
    assert records
    for r in records:
        assert r.error.startswith("NumericalInstability")
    # the untwisted orbit has W = +1, the c = 5 orbit W = -1
    assert [r.c for r in records] == [1, 5]
    assert "Gauss sum W = +1" in records[0].error and "theta quotient W = -1" in records[0].error
    assert "Gauss sum W = -1" in records[1].error and "theta quotient W = 1" in records[1].error


def test_orbit_mean_is_checked(gauss, monkeypatch):
    field, phi = gauss

    def zero_average(phi, rho, a):
        return family.AverageValue(scale=Fraction(0), base=evaluate_char(phi, a))

    monkeypatch.setattr(family, "twist_average_value", zero_average)
    records = family.scan_report(field, phi, (5,), 5)
    assert records
    for r in records:
        assert r.error.startswith("NumericalInstability")
        assert "orbit mean" in r.error


def test_main_lemma_violation_is_recorded(gauss, monkeypatch):
    field, phi = gauss
    real_v_p = characters.v_p

    def v_p(n, p):
        # conductor norms here are 8 * 5^k; the local orders are 1 or powers of 5
        return 40 if n % 8 == 0 else real_v_p(n, p)

    monkeypatch.setattr(characters, "v_p", v_p)
    records = family.scan_report(field, phi, (5,), 5)
    assert [r.c for r in records] == [1, 5]
    for r in records:
        assert r.error.startswith("MainLemmaViolation")
        assert "m_p=40" in r.error


def test_inconsistent_ring_class_value_is_recorded(gauss, monkeypatch):
    field, phi = gauss

    def halves(field, c, ideal):
        # no integer class vector: rho's value is then no root of unity of its order
        return tuple(Fraction(1, 2) for _ in class_group(c * c * field.D).orders)

    monkeypatch.setattr(characters, "ring_class_dlog", halves)
    records = family.scan_report(field, phi, (5,), 5)
    # c = 1 has a trivial ring class group; the c = 5 orbit reads rho
    assert [(r.c, r.error is None) for r in records] == [(1, True), (5, False)]
    assert records[1].error.startswith("NoConsistentLift")
    assert "cannot take it" in records[1].error


def test_failed_unit_group_certificate_is_recorded(gauss, monkeypatch):
    field, phi = gauss
    structure = characters.abelian_group_structure

    def collapsed(elements, mul, identity):
        # a law sending every product to 1 fails the certificate on any group
        # larger than phi's (O/(1+i)^3)^x, such as the c = 5 twist's (O/m)^x
        if len(elements) > 4:
            mul = lambda u, v: np.full(np.broadcast(u, v).shape, identity)
        return structure(elements, mul, identity)

    monkeypatch.setattr(characters, "abelian_group_structure", collapsed)
    characters.unit_group_mod.cache_clear()
    records = family.scan_report(field, phi, (5,), 5)
    assert [(r.c, r.error is None) for r in records] == [(1, True), (5, False)]
    assert records[1].error.startswith("GroupStructureMismatch")


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, D, P, c_max",
    [
        # mixed-sign SignMismatch records and o_2 = 1, 2, 3
        ("scan_D-4_P2_c64.json", -4, (2,), 64),
        # class number 3: cube-root class values and root choices
        ("scan_D-23_P2-3_c8.json", -23, (2, 3), 8),
    ],
)
def test_scan_json_matches_golden(name, D, P, c_max):
    """A scan reproduces its committed JSON byte for byte.

    The files under tests/golden were written by scan_to_json, tol 1e-8, and
    pin every field of every record: conductors, signs, L-value strings,
    counts, Main Lemma entries and recorded errors.  A refactor must leave
    them as they are.  Regenerate them only in a change that alters scan
    results on purpose (such as deriving the Main Lemma's mu_p from Lemma 1),
    and say there which fields moved and why.
    """
    field = make_field(D)
    eps = gaussian_epsilon(field) if D == -4 else canonical_epsilon(field)
    phi = build_hecke_character(field, eps)
    records = family.scan_report(field, phi, P, c_max, tol=1e-8)
    assert family.scan_to_json(field, phi, P, c_max, 1e-8, records) == (GOLDEN / name).read_text()
