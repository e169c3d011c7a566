"""Each certificate of the root numbers, the central values and the twist
orbit raises its HeckeLabError, and a scan keeps that error in the record
of each orbit it fails, with the FamilyRecord defaults in every field that
the failure kept from being computed.

Each case breaks one input of one certificate by monkeypatching and leaves
the rest of the computation as it is.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from heckelab import characters, family, lseries, rootnumber
from heckelab.characters import (
    build_hecke_character,
    canonical_epsilon,
    gaussian_epsilon,
    ring_class_character,
    twist_orbit,
)
from heckelab.errors import DegenerateQuotient, NumericalInstability
from heckelab.family import FamilyRecord, enumerate_twists, record_to_dict
from heckelab.lseries import central_value, theta_coeffs, theta_lattice
from heckelab.quadfield import KElt, make_field
from heckelab.rootnumber import fe_bound, root_number, root_number_via_fe


@pytest.fixture(scope="module")
def gauss():
    field = make_field(-4)
    return field, build_hecke_character(field, gaussian_epsilon(field))


@pytest.fixture(scope="module")
def pair(gauss):
    """Two twists of one conductor with W = +1, and their theta tables to the FE bound."""
    field, phi = gauss
    members = twist_orbit(phi, ring_class_character(field, 13, (2,)), (1, 2))
    X = fe_bound(members[0])
    lattice = theta_lattice(members[0], X)
    return members, [theta_coeffs(chi, X, lattice) for chi in members]


def _assert_failed(records, error, exact_fields=True):
    """Every record failed with an error that matches the regex error.

    With exact_fields the failure came after f, N_counts and main_lemma,
    which the record keeps; every other field but the orbit's own is its
    FamilyRecord default.
    """
    assert records
    for record in records:
        assert re.match(error, record.error), record.error
        kept = {}
        if exact_fields:
            kept = dict(f=record.f, N_counts=record.N_counts, main_lemma=record.main_lemma)
            assert record.f > 0 and record.N_counts and record.main_lemma is not None
        default = FamilyRecord(
            c=record.c,
            exponents=record.exponents,
            n=record.n,
            orbit_size=record.orbit_size,
            error=record.error,
            **kept,
        )
        assert record_to_dict(record) == record_to_dict(default)


def _scan(gauss):
    field, phi = gauss
    return family.scan_report(field, phi, (5,), 5, tol=1e-8)


def _with_coefficients(monkeypatch, change):
    """Give every theta table of a scan change(table) as its a_n."""

    def changed(chi, X, lattice):
        table = theta_coeffs(chi, X, lattice)
        return replace(table, a=change(table))

    monkeypatch.setattr(family, "theta_coeffs", changed)


def test_a_root_number_off_the_real_signs_is_refused(gauss, monkeypatch):
    monkeypatch.setattr(rootnumber, "gauss_sum_root_number", lambda chi, gauss: 1j)
    with pytest.raises(NumericalInstability, match="root number 1j is not a real sign"):
        root_number(gauss[1])
    _assert_failed(_scan(gauss), r"NumericalInstability: root number 1j is not a real sign$")


def test_a_gauss_sum_off_the_unit_circle_is_refused(gauss, monkeypatch):
    gauss_sum = rootnumber._gauss_sum
    monkeypatch.setattr(rootnumber, "_gauss_sum", lambda chi, data: 2 * gauss_sum(chi, data))
    with pytest.raises(NumericalInstability, match=r"\|W\| = (1\.99|2\.00)\d* strayed from 1"):
        root_number(gauss[1])
    _assert_failed(_scan(gauss), r"NumericalInstability: \|W\| = (1\.99|2\.00)\d* strayed from 1$")


def test_the_theta_quotient_steps_past_a_vanishing_probe(pair):
    # theta(1/t) = W t^2 theta(t) is linear in the table, so a combination of
    # two tables of one conductor and one W obeys it too; this one vanishes at
    # the first probe t = 1.3, and the quotient is read at the next two
    members, tables = pair
    chi = members[0]
    Af = chi.field.A * chi.f_value
    n, a0 = tables[0].upto(fe_bound(chi))
    a1 = tables[1].upto(fe_bound(chi))[1]
    at_first_probe = np.exp(-n * 1.3 / Af)
    a = complex(np.sum(a1 * at_first_probe)) * a0 - complex(np.sum(a0 * at_first_probe)) * a1
    scale = float(np.sum(np.abs(a) * np.exp(-n / (1.7 * Af))))
    assert abs(np.sum(a * at_first_probe)) < 1e-12 * (1.0 + scale)
    mixed = replace(tables[0], a=a)
    assert root_number(chi) == 1.0
    assert abs(root_number_via_fe(chi, mixed) - 1.0) < 1e-6


def test_a_theta_series_that_vanishes_at_every_probe_is_degenerate(gauss, pair, monkeypatch):
    members, tables = pair
    with pytest.raises(DegenerateQuotient, match="theta vanished at every probe point"):
        root_number_via_fe(members[0], replace(tables[0], a=np.zeros_like(tables[0].a)))
    _with_coefficients(monkeypatch, lambda table: np.zeros_like(table.a))
    _assert_failed(_scan(gauss), r"DegenerateQuotient: theta vanished at every probe point$")


def test_theta_quotients_that_disagree_are_refused(gauss, pair, monkeypatch):
    # theta(t) = a_1 e^{-t/Af} alone breaks the transformation law
    members, tables = pair
    first = replace(tables[0], a=np.where(tables[0].n == 1, tables[0].a, 0))
    with pytest.raises(NumericalInstability, match="theta quotients disagree"):
        root_number_via_fe(members[0], first)
    _with_coefficients(monkeypatch, lambda table: np.where(table.n == 1, table.a, 0))
    _assert_failed(_scan(gauss), r"NumericalInstability: theta quotients disagree: ")


def test_a_central_value_whose_tail_bound_misses_tol_is_refused(gauss, monkeypatch):
    # a truncation at 10 Af leaves a tail bound of 4 (Af + 1) e^-10
    monkeypatch.setattr(lseries, "truncation", lambda Af, tol: 10.0 * Af)
    phi = gauss[1]
    with pytest.raises(NumericalInstability, match=r"tail bound .* did not clear 1e-08"):
        central_value(phi, 0, tol=1e-8, w=root_number(phi))
    _assert_failed(_scan(gauss), r"NumericalInstability: tail bound .* did not clear 1e-08$")


def test_a_central_value_with_an_imaginary_residue_is_refused(gauss, monkeypatch):
    # i theta has the theta quotient of theta, so the FE route still agrees
    with pytest.raises(NumericalInstability, match="central value has imaginary residue"):
        lseries._real_part(np.array([1.0 + 1e-3j]))
    _with_coefficients(monkeypatch, lambda table: 1j * table.a)
    _assert_failed(_scan(gauss), r"NumericalInstability: central value has imaginary residue ")


def test_a_twisted_value_off_every_root_is_refused(monkeypatch):
    # phi at the class representatives, doubled, is no root of the twist's radicals
    field = make_field(-23)
    phi = build_hecke_character(field, canonical_epsilon(field))
    orbit = enumerate_twists(field, (2, 3), 8)[1]
    evaluate_char = characters.evaluate_char

    def doubled(char, a):
        value = evaluate_char(char, a)
        return replace(value, q=value.q * KElt(field, 2, 0))

    def skewed_orbit(phi, rho, members):
        with monkeypatch.context() as m:
            m.setattr(characters, "evaluate_char", doubled)
            return twist_orbit(phi, rho, members)

    with pytest.raises(NumericalInstability, match="twisted value .* from every root"):
        skewed_orbit(phi, orbit.rho, orbit.members)
    monkeypatch.setattr(family, "twist_orbit", skewed_orbit)
    records = family.scan_report(field, phi, (2, 3), 8, tol=1e-8)
    assert records[0].c == 1 and records[0].error is None  # phi itself is no twist
    _assert_failed(
        records[1:], r"NumericalInstability: twisted value .* from every root$", exact_fields=False
    )
