import itertools
import math
import sys
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import oracles
from oracles import finite_part
import pytest

from heckelab import characters, family, lseries, quadfield, rootnumber
from heckelab.characters import (
    MainLemmaEntry,
    MainLemmaReport,
    build_hecke_character,
    canonical_epsilon,
    evaluate_char,
    gaussian_epsilon,
    local_unit_groups,
    ring_class_character,
    twist,
    twist_orbit,
)
from heckelab.errors import (
    DomainError,
    GroupStructureMismatch,
    IdealSearchExhausted,
    NumericalInstability,
    RestrictionMismatch,
)
from heckelab.family import FamilyRecord
from heckelab.lseries import central_value, theta_coeffs, theta_lattice, truncation
from heckelab.quadfield import class_group, make_field, prime_ideals_above, principal_ideal
from heckelab.rootnumber import (
    fe_bound,
    gauss_data,
    gauss_sum_root_number,
    root_number,
    root_number_via_fe,
)


@pytest.fixture(scope="module")
def gauss():
    field = make_field(-4)
    return field, build_hecke_character(field, gaussian_epsilon(field))


def test_golden_family(gauss):
    field, phi = gauss
    records = family.scan_report(field, phi, (5, 13), 13, tol=1e-8)
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
    records = family.scan_report(field, chi23, (2,), 1, tol=1e-8)
    # c = 1: the trivial orbit and the order-3 class group characters (h = 3)
    assert [(r.c, r.n, r.error) for r in records] == [(1, 1, None), (1, 3, None)]
    # an order-22 finite part: unit consistent, but phi restricted to Q is not kappa_K
    broken = build_hecke_character(
        field, finite_part(field, principal_ideal(field, field.sqrt_D), (1,), M=22)
    )
    # the precondition runs before the first record is built
    monkeypatch.setattr(family, "enumerate_twists", lambda *args: pytest.fail("scan went on"))
    with pytest.raises(RestrictionMismatch):
        family.scan_report(field, broken, (2,), 1, tol=1e-8)


def test_exact_conductor_dlog_calls(monkeypatch):
    # per element 1 + (c/p)(x + omega) prime to c, x < p: its class at c, and
    # at c/p only when h(O_{c/p}) > 1 (D = -23 at c/p = 1 has h = 3)
    calls = [0]
    dlog = family.ring_class_dlog

    def counted(field, c, ideal):
        calls[0] += 1
        return dlog(field, c, ideal)

    monkeypatch.setattr(family, "ring_class_dlog", counted)
    families = ((-4, (5, 13), 25, 7, 24), (-23, (2, 3), 72, 42, 86), (-4, (101,), 101, 6, 99))
    for D, P, c_max, orbits, dlogs in families:
        calls[0] = 0
        assert len(family.enumerate_twists(make_field(D), P, c_max)) == orbits
        assert calls[0] == dlogs, (D, P, c_max)


# (D, P, c_max): D = -23 at c <= 72 is the 42-orbit family; its ideal
# search walks the ideal stream in under half a second.  The last two add
# ramified primes: 7 over Q(sqrt(-7)), where 2 splits, and 3 over
# Q(sqrt(-3)), where 2 is inert
KERNEL_FAMILIES = [
    (-23, (2, 3), 72),
    (-4, (2, 5), 40),
    (-7, (2, 3), 12),
    (-47, (2, 3), 12),
    (-7, (2, 7), 49),
    (-3, (2, 3), 54),
]


@pytest.mark.parametrize("D, P, c_max", KERNEL_FAMILIES)
def test_exact_conductor_matches_kernel_search(D, P, c_max):
    field = make_field(D)
    for c in family._supported_conductors(P, c_max):
        orders = class_group(c * c * D).orders
        vectors = list(itertools.product(*(range(h) for h in orders)))
        mask = family._exact_conductor(field, c, vectors)
        assert mask.tolist() == oracles.exact_conductor_by_search(field, c, vectors), c


def test_enumerate_twists_enumerates_no_ideals(monkeypatch):
    def fail(field, bound):
        raise AssertionError("enumerate_ideals called")

    def stepped(field, p):
        raise AssertionError("ideal stream stepped past the unit ideal")

    monkeypatch.setattr(quadfield, "enumerate_ideals", fail)
    monkeypatch.setattr(family, "enumerate_ideals", fail)
    # norm 2 is the stream's first step past the unit ideal; it needs the primes above 2
    monkeypatch.setattr(quadfield, "prime_ideals_above", stepped)
    # h = 3 and two primes: the widest of the reference families
    assert len(family.enumerate_twists(make_field(-23), (2, 3), 72)) == 42


def test_exact_conductor_certificates_raise(monkeypatch):
    # D = -23, c = 4: h(O_4) = 6 over h(O_2) = 3, so 3 characters have conductor exactly 4
    field = make_field(-23)
    vectors = [(t,) for t in range(6)]
    assert family._exact_conductor(field, 4, vectors).sum() == 3
    dlog = family.ring_class_dlog
    with monkeypatch.context() as m:
        # every element 1 + 2(x + omega) looks nontrivial in Pic(O_2)
        m.setattr(family, "ring_class_dlog", lambda f, c, a: (1,) if c == 2 else dlog(f, c, a))
        with pytest.raises(GroupStructureMismatch, match="nontrivial in Pic"):
            family._exact_conductor(field, 4, vectors)
    # the kernel looks trivial in Pic(O_4): all 6 characters factor through Pic(O_2)
    monkeypatch.setattr(family, "ring_class_dlog", lambda f, c, a: (0,) if c == 4 else dlog(f, c, a))
    with pytest.raises(GroupStructureMismatch, match="6 characters of Pic"):
        family._exact_conductor(field, 4, vectors)


def test_root_number_routes_must_agree(gauss, monkeypatch):
    field, phi = gauss
    monkeypatch.setattr(family, "root_number_via_fe", lambda chi, table=None: -root_number(chi))
    records = family.scan_report(field, phi, (5,), 5, tol=1e-8)
    assert records
    for r in records:
        assert r.error.startswith("NumericalInstability")
    # the untwisted orbit has W = +1, the c = 5 orbit W = -1
    assert [r.c for r in records] == [1, 5]
    assert "Gauss sum W = +1" in records[0].error and "theta quotient W = -1" in records[0].error
    assert "Gauss sum W = -1" in records[1].error and "theta quotient W = 1" in records[1].error


def test_orbit_mean_is_checked(gauss, monkeypatch):
    field, phi = gauss

    def zero_average(walk, rho, ideals):
        return np.zeros(len(ideals))

    monkeypatch.setattr(family, "_orbit_weights", zero_average)
    records = family.scan_report(field, phi, (5,), 5, tol=1e-8)
    assert records
    for r in records:
        assert r.error.startswith("NumericalInstability")
        assert "orbit mean" in r.error


def _orbit_mean_inputs(field, phi, orbit):
    """(walk, weights, tables, modulus, bound) of the orbit-mean check, as a scan builds them."""
    members = twist_orbit(phi, orbit.rho, orbit.members)
    bound = int(members[0].f_value ** max(family.T_EXPONENTS))
    walk = family._ScanWalk(phi, {orbit.c})
    weights = family._orbit_weights(walk, orbit.rho, walk.ideals(bound))
    tables = [family.theta_coeffs(chi, bound, theta_lattice(chi, bound)) for chi in members]
    return walk, weights, tables, orbit.c * phi.conductor_norm, bound


def test_orbit_mean_names_the_first_bad_n(gauss):
    field, phi = gauss
    (orbit,) = [o for o in family.enumerate_twists(field, (5,), 5) if o.c == 5]
    walk, weights, tables, modulus, bound = _orbit_mean_inputs(field, phi, orbit)
    exact = family._exact_mean(walk, modulus, weights, bound)
    family._check_orbit_mean(exact, tables, modulus)
    # n = 10 shares a factor with c N(f(phi)) = 40, where no exact average applies
    off_at_10 = [replace(t, a=np.where(t.n == 10, t.a + 1.0, t.a)) for t in tables]
    family._check_orbit_mean(exact, off_at_10, modulus)
    # the orbit weight off by 1e-6 at the ideals of norm 13 and 17, which moves
    # the exact average of a_n by 1e-6 (phi(a) + phi(conj a)) = 2e-6 Re phi(a),
    # with Re phi(a) odd: the error names n = 13
    perturbed = weights + 1e-6 * np.isin(walk.norms[: len(weights)], (13, 17))
    exact = family._exact_mean(walk, modulus, perturbed, bound)
    with pytest.raises(NumericalInstability, match=r"orbit mean of a_13 is"):
        family._check_orbit_mean(exact, tables, modulus)


def test_twist_average_value_off_the_moduli_is_a_domain_error(gauss):
    field, phi = gauss
    (two,) = prime_ideals_above(field, 2)
    five = prime_ideals_above(field, 5)[0]
    with pytest.raises(DomainError, match="twist modulus"):
        oracles.twist_average_value(evaluate_char(phi, five), 2, None)
    with pytest.raises(DomainError, match="base conductor"):
        oracles.twist_average_value(evaluate_char(phi, two), 2, 1)


# (D, P, c_max, failed records): the scan-gauss family to c = 65, the
# 42-orbit D = -23 family at h = 3, and D = -3 with its six roots of unity
EXACT_SIDE_FAMILIES = [(-4, (5, 13), 65, 1), (-23, (2, 3), 72, 0), (-3, (2, 5), 50, 1)]


@pytest.mark.parametrize("D, P, c_max, failed", EXACT_SIDE_FAMILIES)
def test_exact_side_matches_the_per_ideal_oracle(D, P, c_max, failed):
    """Every record's exact side against the per-ideal references of oracles.

    rho.value_exponents over the walk's classes of every record's prefix
    equals rho's exponent at each ideal, read in fractions (orbit_exponents).
    The scan's N_counts, failed records included, equal count_N_total over
    those exponents; the exact average of each a_n, from the record's orbit
    weights, is within 1e-12 of twist_average_value summed over the ideals
    of norm n.
    """
    field = make_field(D)
    phi = build_hecke_character(field, canonical_epsilon(field))
    orbits = family.enumerate_twists(field, P, c_max)
    records = family.scan_report(field, phi, P, c_max, tol=1e-8)
    assert sum(r.error is not None for r in records) == failed
    walk = family._ScanWalk(phi, {orbit.c for orbit in orbits})
    for orbit, record in zip(orbits, records, strict=True):
        where = (orbit.c, orbit.exponents)
        assert (record.c, record.exponents) == where
        walk.at_c(orbit.c)
        rho, f = orbit.rho, record.f
        bound = int(f ** max(family.T_EXPONENTS))
        ideals = walk.ideals(bound)
        ks = oracles.orbit_exponents(phi, rho, ideals)
        usable, classes = walk.dlogs(rho, ideals)
        exponents = rho.value_exponents(classes, ideals).tolist()
        assert [k if ok else None for k, ok in zip(exponents, usable)] == ks, where
        thresholds = [(alpha, f**alpha) for alpha in family.T_EXPONENTS]
        assert record.N_counts == {
            repr(alpha): {"t": int(t), "N": oracles.count_N_total(ideals, ks, rho.order, t)}
            for alpha, t in thresholds
        }, where
        weights = family._orbit_weights(walk, rho, ideals)
        exact = family._exact_mean(walk, rho.c * phi.conductor_norm, weights, bound)
        want = oracles.exact_orbit_mean(phi, rho, ideals, ks, bound)
        assert (abs(exact - want) <= 1e-12 * np.maximum(1.0, abs(want))).all(), where


def _halves(field, c, ideal):
    # no integer class vector: rho's value is then no root of unity of its order
    return tuple(Fraction(1, 2) for _ in class_group(c * c * field.D).orders)


def _half_read_error(ideal):
    """The error of a c = 5 record over Q(i) whose first class read, at
    ideal, is a half: rho of order 2 is zeta_2^(1/2) there."""
    return (
        f"NoConsistentLift: ring class value exponent 0.5 of {ideal!r} is not a multiple"
        " of 1, so rho of order 2 cannot take it"
    )


def test_family_side_class_read_is_certified(gauss, monkeypatch):
    # the exact side reads rho's classes itself: a doctored read there alone,
    # with twist_orbit's reads untouched, fails the one certificate of
    # RingClassCharacter.value_exponents at the first ideal the c = 5 record
    # reads, the unit ideal
    field, phi = gauss
    orbits = family.enumerate_twists(field, (5,), 5)
    monkeypatch.setattr(family, "enumerate_twists", lambda *args: orbits)
    monkeypatch.setattr(family, "ring_class_dlog", _halves)
    records = family.scan_report(field, phi, (5,), 5, tol=1e-8)
    # c = 1 has a trivial ring class group, so its classes are empty vectors
    assert [(r.c, r.error is None) for r in records] == [(1, True), (5, False)]
    assert records[1].error == _half_read_error(quadfield.unit_ideal(field))
    assert (records[1].N_counts, records[1].main_lemma) == ({}, None)


def test_scan_shares_orbit_work(gauss, monkeypatch):
    """Work a D=-4 P=(5,13) c<=25 scan does once per orbit or once per scan.

    phi is evaluated outside the Gauss sums at most once per ideal (33 of
    them reach the orbit-mean checks), the exact side reads each ideal's
    class in Pic(O_c) at most once per conductor c, for every orbit of c
    (51 reads), each of the three c = 13 orbits of 1, 2 and 2 members
    over m = (1+i)^3 P13 conj(P13) builds the levels of m's local groups
    once, for the conductor exponents of all its members, the records'
    Main Lemma quantities build none, and the ideal list is
    enumerated once, to the largest bound a record asks for:
    5000^(1.1/2), 85 ideals.
    """
    from functools import cached_property

    from heckelab import rootnumber

    field, phi = gauss
    phi_calls, in_gauss, level_builds, bounds = [], [0], [0], []
    class_reads, in_walk = [], [0]
    evaluate, gauss_root = characters.evaluate_char, rootnumber.gauss_sum_root_number
    dlog, walk_dlogs = family.ring_class_dlog, family._ScanWalk.dlogs
    levels, orbit_chars = characters.LocalUnitGroups.levels.func, family.twist_orbit
    lemma, enumerate_ideals_ = family.main_lemma_quantities, family.enumerate_ideals
    per_orbit, in_lemma = {}, []

    def counted_evaluate(char, ideal):
        if char is phi and not in_gauss[0]:
            phi_calls.append(ideal)
        return evaluate(char, ideal)

    def traced_gauss(chi, *args, **kwargs):
        in_gauss[0] += 1
        try:
            return gauss_root(chi, *args, **kwargs)
        finally:
            in_gauss[0] -= 1

    def counted_dlog(field, c, ideal):
        if in_walk[0]:
            class_reads.append((c, ideal))
        return dlog(field, c, ideal)

    def traced_dlogs(self, rho, ideals):
        in_walk[0] += 1
        try:
            return walk_dlogs(self, rho, ideals)
        finally:
            in_walk[0] -= 1

    def counted_levels(self):
        level_builds[0] += 1
        return levels(self)

    counted = cached_property(counted_levels)
    counted.__set_name__(characters.LocalUnitGroups, "levels")

    def traced_orbit(phi, rho, members):
        before = level_builds[0]
        out = orbit_chars(phi, rho, members)
        per_orbit[rho.c, rho.exponents] = (len(out), level_builds[0] - before)
        return out

    def traced_lemma(chi):
        before = level_builds[0]
        out = lemma(chi)
        in_lemma.append(level_builds[0] - before)
        return out

    def counted_enumerate(field, bound):
        bounds.append(bound)
        return enumerate_ideals_(field, bound)

    for module in (characters, family, rootnumber):
        monkeypatch.setattr(module, "evaluate_char", counted_evaluate)
    monkeypatch.setattr(rootnumber, "gauss_sum_root_number", traced_gauss)
    monkeypatch.setattr(characters.LocalUnitGroups, "levels", counted)
    monkeypatch.setattr(family, "twist_orbit", traced_orbit)
    monkeypatch.setattr(family, "main_lemma_quantities", traced_lemma)
    monkeypatch.setattr(family, "enumerate_ideals", counted_enumerate)
    monkeypatch.setattr(family, "ring_class_dlog", counted_dlog)
    monkeypatch.setattr(family._ScanWalk, "dlogs", traced_dlogs)
    records = family.scan_report(field, phi, (5, 13), 25, tol=1e-8)
    assert all(r.error is None for r in records)

    assert len(phi_calls) == len(set(phi_calls)) <= 33
    assert len(class_reads) == len(set(class_reads)) <= 51
    c13 = [(size, builds) for (c, _), (size, builds) in per_orbit.items() if c == 13]
    assert sorted(size for size, _ in c13) == [1, 2, 2]
    # one levels build per orbit, shared by its members' conductor exponents
    assert [builds for _, builds in c13] == [1, 1, 1]
    # the Main Lemma reads the levels its record's orbit built
    assert len(in_lemma) == len(records) and not any(in_lemma)
    assert bounds == [max(int(r.f ** max(family.T_EXPONENTS)) for r in records)] == [108]


def test_only_prime_powers_reach_unit_group_mod(monkeypatch):
    # scans and twists read (O/f)^x through its local groups (O/P^a)^x, so no
    # unit group of a composite modulus is built: scan-gauss, D = -23 at h = 3
    # and the two twist-deep characters, root numbers and central values included
    build, moduli = characters.unit_group_mod, []

    def counted(field, f):
        moduli.append(f)
        return build(field, f)

    monkeypatch.setattr(characters, "unit_group_mod", counted)
    for D, P, c_max in ((-4, (5, 13), 25), (-23, (2, 3), 8)):
        field = make_field(D)
        eps = canonical_epsilon(field)
        phi = build_hecke_character(field, eps)
        records = family.scan_report(field, phi, P, c_max, tol=1e-8)
        assert records and all(r.error is None for r in records)
    field = make_field(-4)
    phi = build_hecke_character(field, gaussian_epsilon(field))
    for c, t in ((43, 11), (67, 17)):
        chi = twist(phi, ring_class_character(field, c, (t,)))
        W = root_number(chi)
        central_value(chi, (1 - int(W)) // 2, 1e-10, W)
    assert [f for f in moduli if len(f.factor()) != 1] == []
    assert {f.norm for f in moduli} >= {8, 43**2, 67**2}


def test_scan_lists_ideals_only_for_the_walk(monkeypatch):
    """A D=-23 P=(2,3) c<=8 scan (h = 3) lists ideals only in its scan walk.

    The class representatives of every twist orbit walk the ideal stream to
    their first hits instead of listing ideals, so enumerate_ideals is
    called only by _ScanWalk.ideals, once, to the largest bound a record
    asks for.
    """
    field = make_field(-23)
    phi = build_hecke_character(field, canonical_epsilon(field))
    enumerate_ideals_, calls = quadfield.enumerate_ideals, []

    def counted_enumerate(field, bound):
        calls.append((sys._getframe(1).f_code.co_qualname, bound))
        return enumerate_ideals_(field, bound)

    monkeypatch.setattr(quadfield, "enumerate_ideals", counted_enumerate)
    monkeypatch.setattr(family, "enumerate_ideals", counted_enumerate)
    records = family.scan_report(field, phi, (2, 3), 8, tol=1e-8)
    assert records and all(r.error is None for r in records)
    assert {caller for caller, _ in calls} == {"_ScanWalk.ideals"}
    bounds = [bound for _, bound in calls]
    assert bounds == [max(int(r.f ** max(family.T_EXPONENTS)) for r in records)]


def test_scan_records_a_failed_ideal_enumeration(gauss, monkeypatch):
    # the walk enumerates inside the first record that reads it, so a failed
    # enumeration fails every record and raises nothing
    field, phi = gauss

    def exhausted(field, bound):
        raise IdealSearchExhausted(f"no ideals to norm {bound}")

    monkeypatch.setattr(family, "enumerate_ideals", exhausted)
    records = family.scan_report(field, phi, (5,), 5, tol=1e-8)
    assert [r.error for r in records] == ["IdealSearchExhausted: no ideals to norm 18"] * 2


def test_scan_walk_refuses_a_bound_past_the_scan(gauss):
    field, phi = gauss
    walk = family._ScanWalk(phi, {1, 5})  # m = (1+i)^3 (5) at c = 5: N(m) = 200
    assert walk.ideals(18)[-1].norm == 18  # int(200^0.55) = 18
    with pytest.raises(DomainError):
        walk.ideals(19)


def _scan_members(D, P, c_max):
    field = make_field(D)
    eps = canonical_epsilon(field)
    phi = build_hecke_character(field, eps)
    orbits = family.enumerate_twists(field, P, c_max)
    return phi, [(o.c, twist_orbit(phi, o.rho, o.members)) for o in orbits]


def _check_shared_reads(phi, groups, tol=1e-8):
    """Every read of a scan walk's shared data equals the standalone call, bit for bit.

    groups lists (c, characters) in scan order.  Each character asks for its
    table to the bounds a scan asks (the first of each group also to its FE
    bound), so a later character of a conductor reads the prefix of a
    lattice built for an earlier one, with that lattice's smoothing kernel,
    and the Gauss-sum data built for the first character of its conductor.
    Returns the number of characters that read data built for another.
    """
    walk = family._ScanWalk(phi, {c for c, _ in groups})
    built_by, borrowed = {}, 0
    for c, chars in groups:
        walk.at_c(c)
        for i, chi in enumerate(chars):
            T = int(truncation(chi.field.A * chi.f_value, tol))
            X = max(T, int(chi.f_value ** max(family.T_EXPONENTS)))
            for bound in (max(fe_bound(chi), X), X) if i == 0 else (X,):
                lattice = walk.lattice(chi, bound)
                shared = theta_coeffs(chi, bound, lattice)
                alone = theta_coeffs(chi, bound, theta_lattice(chi, bound))
                assert shared.n.tobytes() == alone.n.tobytes(), (chi.descriptor(), bound)
                assert shared.a.tobytes() == alone.a.tobytes(), (chi.descriptor(), bound)
            borrowed += built_by.setdefault(lattice, chi) is not chi
            gauss = walk.gauss(chi)
            assert gauss_sum_root_number(chi, gauss) == gauss_sum_root_number(chi, gauss_data(chi))
            W = root_number(chi, gauss)
            assert W == root_number(chi)
            v = (1 - int(W)) // 2
            assert central_value(chi, v, tol, W, shared) == central_value(chi, v, tol, W)
    return borrowed


def test_shared_data_reads_match_standalone_calls(gauss):
    # scan-gauss: 15 members of 7 orbits over 4 conductors
    phi, groups = _scan_members(-4, (5, 13), 25)
    assert sum(len(chars) for _, chars in groups) == 15
    assert _check_shared_reads(phi, groups) == 15 - 4
    # h = 3: an orbit of two members shares lattices of three classes
    phi, groups = _scan_members(-23, (2, 3), 8)
    pairs = [(c, chars) for c, chars in groups if len(chars) >= 2 and len(chars[0].class_reps)]
    assert pairs
    assert _check_shared_reads(phi, pairs[:1]) == len(pairs[0][1]) - 1
    # an orbit mixing conductors 8 and 8 13^2, keyed by conductor: listed in
    # reverse, its conductor-8 member (M = 12) builds that conductor's data to
    # a bound below phi's (M = 4) FE bound, so phi's lattice is built again
    # and read by that member in a third orbit
    field, phi = gauss
    base = twist(phi, ring_class_character(field, 13, (1,)))
    mixed = twist_orbit(base, ring_class_character(field, 13, (5,)), (1, 5))
    assert [chi.conductor_norm for chi in mixed] == [8, 8 * 13**2]
    assert mixed[0].M != phi.M
    groups = [(13, mixed[::-1]), (13, [phi]), (13, mixed[:1])]
    assert _check_shared_reads(phi, groups) == 1


def test_shared_data_of_another_conductor_or_bound_raises(gauss):
    field, phi = gauss
    chi = twist(phi, ring_class_character(field, 5, (1,)))
    other = twist(phi, ring_class_character(field, 13, (1,)))
    lattice = theta_lattice(chi, 200)
    with pytest.raises(DomainError):
        theta_coeffs(other, 200, lattice)
    with pytest.raises(DomainError):
        theta_coeffs(chi, 201, lattice)
    with pytest.raises(DomainError):
        root_number(other, gauss_data(chi))
    table = theta_coeffs(other, fe_bound(other), theta_lattice(other, fe_bound(other)))
    with pytest.raises(DomainError):
        central_value(chi, 0, 1e-8, 1.0, table)
    with pytest.raises(DomainError):
        root_number_via_fe(chi, table)


@pytest.mark.parametrize(
    "D, P, c_max, calls",
    [(-4, (5, 13), 25, 6), (-4, (2,), 64, 2), (-23, (2, 3), 72, 24), (-4, (3,), 243, 10)],
)
def test_scan_evaluates_each_kernel_once_per_lattice(D, P, c_max, calls, monkeypatch):
    # a member's central value reads I_v(n / Af) off the lattice its table was
    # summed over, so the members of one conductor at one c share one kernel_I
    # call per v
    kernel_I, seen = lseries.kernel_I, []

    def counted(v, u):
        seen.append(v)
        return kernel_I(v, u)

    monkeypatch.setattr(lseries, "kernel_I", counted)
    field = make_field(D)
    phi = build_hecke_character(field, canonical_epsilon(field))
    family.scan_report(field, phi, P, c_max, tol=1e-8)
    assert len(seen) == calls


def test_scan_records_a_failed_read_of_shared_data(gauss, monkeypatch):
    field, phi = gauss
    at_8 = gauss_data(phi)
    monkeypatch.setattr(family._ScanWalk, "gauss", lambda self, chi: at_8)
    records = family.scan_report(field, phi, (5,), 5, tol=1e-8)
    assert (records[0].c, records[0].error) == (1, None)
    assert records[1].error.startswith("DomainError: the Gauss-sum data of")
    monkeypatch.undo()
    monkeypatch.setattr(family._ScanWalk, "lattice", lambda self, chi, X: theta_lattice(chi, X - 1))
    records = family.scan_report(field, phi, (5,), 5, tol=1e-8)
    assert all(r.error.startswith("DomainError: the theta lattice reaches") for r in records)


def test_scan_builds_conductor_data_once_per_conductor(gauss, monkeypatch):
    # scan-gauss: 15 members, 4 conductors (N(f) = 8, 200, 1352 and 5000)
    field, phi = gauss
    seen = {"auxiliary_pair": [], "theta_lattice": []}
    auxiliary_pair, lattice = rootnumber.auxiliary_pair, family.theta_lattice

    def counted_auxiliary(field, f):
        seen["auxiliary_pair"].append(f.norm)
        return auxiliary_pair(field, f)

    def counted_lattice(chi, X):
        seen["theta_lattice"].append(chi.conductor_norm)
        return lattice(chi, X)

    monkeypatch.setattr(rootnumber, "auxiliary_pair", counted_auxiliary)
    monkeypatch.setattr(family, "theta_lattice", counted_lattice)
    records = family.scan_report(field, phi, (5, 13), 25, tol=1e-8)
    assert sum(r.orbit_size for r in records) == 15 and all(r.error is None for r in records)
    assert seen == {name: [8, 200, 1352, 5000] for name in seen}


def test_main_lemma_violation_is_recorded(gauss, monkeypatch):
    field, phi = gauss
    real_factorize = characters.factorize

    def factorize(n):
        # conductor norms here are 8 * 5^k: every m_p becomes 40
        return tuple((p, 40) for p, _ in real_factorize(n)) if n % 8 == 0 else real_factorize(n)

    monkeypatch.setattr(characters, "factorize", factorize)
    records = family.scan_report(field, phi, (5,), 5, tol=1e-8)
    assert [r.c for r in records] == [1, 5]
    for r in records:
        assert r.error.startswith("MainLemmaViolation")
        assert "m_p=40" in r.error


def test_level_count_mismatch_is_recorded(gauss, monkeypatch):
    # a levels build that finds one unit too few = 1 mod P^j raises
    # GroupStructureMismatch, on its own and inside a scan's twists
    field, phi = gauss
    assert all(r.error is None for r in family.scan_report(field, phi, (5,), 5, tol=1e-8))
    in_ideal = characters._in_ideal

    def one_short(xs, ys, g):
        mask = in_ideal(xs, ys, g)
        mask[np.flatnonzero(mask)[:1]] = False
        return mask

    # the unit groups are cached by the scan above, so only the levels see the patch
    monkeypatch.setattr(characters, "_in_ideal", one_short)
    with pytest.raises(GroupStructureMismatch, match="units = 1 mod"):
        local_unit_groups(field, phi.conductor).levels
    records = family.scan_report(field, phi, (5,), 5, tol=1e-8)
    # c = 1 is phi, whose levels its build read before the patch
    assert [(r.c, r.error is None) for r in records] == [(1, True), (5, False)]
    assert records[1].error.startswith("GroupStructureMismatch")


def test_inconsistent_ring_class_value_is_recorded(gauss, monkeypatch):
    # the twist side alone sees the doctored read: twist_orbit reads rho first
    # at (g) for the first generator g of (O/m)^x, m = lcm(f(phi), 5O), and
    # fails with the exact side's text, from the one certificate in src/
    field, phi = gauss
    monkeypatch.setattr(characters, "ring_class_dlog", _halves)
    records = family.scan_report(field, phi, (5,), 5, tol=1e-8)
    # c = 1 has a trivial ring class group; the c = 5 orbit reads rho
    assert [(r.c, r.error is None) for r in records] == [(1, True), (5, False)]
    m = characters.ideal_lcm(phi.conductor, quadfield.Ideal(field, 5, 0, 5))
    g = quadfield.KElt(field, *local_unit_groups(field, m).gens[0])
    assert records[1].error == _half_read_error(principal_ideal(field, g))
    src = Path(characters.__file__).parent
    assert sum(path.read_text().count("cannot take it") for path in src.glob("*.py")) == 1


def test_failed_unit_group_certificate_is_recorded(gauss, monkeypatch):
    field, phi = gauss
    structure = characters.abelian_group_structure

    def collapsed(elements, mul, identity):
        # a law sending every product to 1 fails the certificate on any group
        # of two or more elements; phi already holds its (O/(1+i)^3)^x, and
        # the c = 5 twist builds it anew (its prime parts (O/P)^x, of 4
        # elements each, are cyclic and do not come here)
        if len(elements) > 1:
            mul = lambda u, v: np.full(np.broadcast(u, v).shape, identity)
        return structure(elements, mul, identity)

    monkeypatch.setattr(characters, "abelian_group_structure", collapsed)
    characters.unit_group_mod.cache_clear()
    records = family.scan_report(field, phi, (5,), 5, tol=1e-8)
    assert [(r.c, r.error is None) for r in records] == [(1, True), (5, False)]
    assert records[1].error.startswith("GroupStructureMismatch")


def test_failed_prime_unit_group_certificate_is_recorded(gauss, monkeypatch):
    field, phi = gauss
    # a generator search that answers the identity: its powers reach one of
    # the 4 elements of each (O/P)^x, N(P) = 5, of the c = 5 twist
    monkeypatch.setattr(characters, "cyclic_generator", lambda candidates, mul, one, n: one)
    characters.unit_group_mod.cache_clear()
    records = family.scan_report(field, phi, (5,), 5, tol=1e-8)
    assert [(r.c, r.error is None) for r in records] == [(1, True), (5, False)]
    assert records[1].error == "GroupStructureMismatch: the powers do not reach each element exactly once"


def test_each_member_finite_part_is_built_once(monkeypatch):
    # twist_orbit builds member j as one FinitePart on m, which is its finite
    # part when f(chi) = m: one exponent table per local part and member,
    # where building the member's tables and then its FinitePart's made two
    calls = []
    unit_exponents = characters._unit_exponents

    def counted(ug, exps, M):
        calls.append(ug.f)
        return unit_exponents(ug, exps, M)

    monkeypatch.setattr(characters, "_unit_exponents", counted)
    for D, P, c_max, expected in ((-4, (5, 13), 25, 42), (-23, (2, 3), 8, 38)):
        field = make_field(D)
        eps = canonical_epsilon(field)
        phi = build_hecke_character(field, eps)
        calls.clear()
        family.scan_report(field, phi, P, c_max, tol=1e-8)
        assert len(calls) == expected, (D, P, c_max)
    # twist-deep's two characters, of conductor (1+i)^3 c with c = 43 and 67
    # inert: a twist, its root number and its central value read two parts
    field = make_field(-4)
    phi = build_hecke_character(field, gaussian_epsilon(field))
    calls.clear()
    for c, exponents in ((43, (11,)), (67, (17,))):
        chi = twist(phi, ring_class_character(field, c, exponents))
        W = root_number(chi)
        central_value(chi, int(1 - W) // 2, tol=1e-10, w=W)
    assert len(calls) == 4


def test_failed_finite_part_check_is_recorded(gauss, monkeypatch):
    field, phi = gauss
    local_unit_groups = characters.local_unit_groups

    def one_order_too_many(field, f):
        # every member's finite part on m then has one exponent too few
        units = local_unit_groups(field, f)
        return replace(units, orders=units.orders + (1,))

    monkeypatch.setattr(characters, "local_unit_groups", one_order_too_many)
    records = family.scan_report(field, phi, (5,), 5, tol=1e-8)
    assert [(r.c, r.error is None) for r in records] == [(1, True), (5, False)]
    assert records[1].error == "GroupStructureMismatch: need one exponent per unit group generator"


def test_members_that_disagree_on_vanishing_fail_the_record(gauss):
    # D=-4 P=(5,13) c = 65, exps (0,3) has order 4 and members m = 1, 3 with
    # central values -7e-17 and 1.833: the twist orbit joins two Galois
    # orbits, so no one verdict holds for it.  The order-2 twist (0,6)
    # vanishes as an orbit of one member and stays "zero".
    field, phi = gauss
    records = family.scan_report(field, phi, (5, 13), 65, tol=1e-8)
    records = {(r.c, r.exponents): r for r in records}
    assert [key for key, r in records.items() if r.error] == [(65, (0, 3))]
    failed = records[65, (0, 3)]
    assert failed.error == "SignMismatch: orbit 65:(0, 3) has mixed verdicts ['zero', 'nonzero']"
    assert failed.verdict == "indeterminate"
    assert records[65, (0, 6)].verdict == "zero"


# (D, h, p, c_max): fields where p is unramified, one for each h = 1, 2, 3, 4
# and each p.  A sweep of every fundamental D in (-400, -3] at P = (3,),
# c <= 9, and P = (2,), c <= 8, failed records only where p ramifies
UNRAMIFIED_FAMILIES = [
    (-4, 1, 3, 9),
    (-20, 2, 3, 9),
    (-23, 3, 3, 9),
    (-56, 4, 3, 9),
    (-7, 1, 2, 8),
    (-15, 2, 2, 8),
    (-23, 3, 2, 8),
    (-39, 4, 2, 8),
]


@pytest.mark.parametrize("D, h, p, c_max", UNRAMIFIED_FAMILIES)
def test_families_of_an_unramified_prime_fail_no_record(D, h, p, c_max):
    field = make_field(D)
    assert (field.h, field.kronecker(p) != 0) == (h, True)
    phi = build_hecke_character(field, canonical_epsilon(field))
    records = family.scan_report(field, phi, (p,), c_max, tol=1e-8)
    assert max(r.c for r in records) > 1
    assert [(r.c, r.exponents, r.error) for r in records if r.error] == []


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, D, P, c_max",
    [
        # mixed-sign SignMismatch records and o_2 = 1, 2, 3
        ("scan_D-4_P2_c64.json", -4, (2,), 64),
        # class number 3: cube-root class values and root choices
        ("scan_D-23_P2-3_c8.json", -23, (2, 3), 8),
        # the scan-gauss family: orbits of 1, 2 and 4 members over one modulus each
        ("scan_D-4_P5-13_c25.json", -4, (5, 13), 25),
        # base characters of the search alone: six roots of unity (f = (3),
        # M = 6), the even D = -8 with W(phi) = -1, and h = 2 at D = -15
        ("scan_D-3_P2-5_c20.json", -3, (2, 5), 20),
        ("scan_D-8_P3-5_c15.json", -8, (3, 5), 15),
        ("scan_D-15_P2-7_c14.json", -15, (2, 7), 14),
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
    eps = canonical_epsilon(field)
    phi = build_hecke_character(field, eps)
    records = family.scan_report(field, phi, P, c_max, tol=1e-8)
    assert family.scan_to_json(field, phi, P, c_max, 1e-8, records) == (GOLDEN / name).read_text()


@pytest.mark.parametrize("D, records_expected", [(-335, 24), (-143, 16)])
def test_scan_of_a_large_class_group_fails_no_record(D, records_expected):
    # the theta lattice sums over the least ideal of each class (of norm at
    # most 87 here), so its norms stay far inside int64 at h = 18 (D = -335)
    # and for the twists with c even at h = 10 (D = -143), whose class ideals
    # must avoid 2
    field = make_field(D)
    phi = build_hecke_character(field, canonical_epsilon(field))
    records = family.scan_report(field, phi, (2,), 8, tol=1e-8)
    assert len(records) == records_expected
    assert [r.error for r in records if r.error] == []


def test_save_scan_writes_the_csv_and_appends_one_log_line_per_record(gauss, tmp_path):
    field, phi = gauss
    records = family.scan_report(field, phi, (5, 13), 25, tol=1e-8)
    for calls in (1, 2):
        paths = family.save_scan(field, phi, (5, 13), 25, 1e-8, records, tmp_path)
        assert paths == {kind: tmp_path / f"scan.{kind}" for kind in ("json", "csv", "log")}
        assert paths["json"].read_text() == family.scan_to_json(
            field, phi, (5, 13), 25, 1e-8, records
        )
        rows = paths["csv"].read_text()
        assert rows == family.scan_to_csv(field, records)
        assert rows.splitlines()[0] == "D,c,n,f,W,v,Lv,Lv_av,ratio,verdict"
        assert len(rows.splitlines()) == 1 + len(records)
        log = paths["log"].read_text().splitlines()
        assert len(log) == calls * len(records)
        assert log[-len(records) :] == log[: len(records)]
        assert all(line.startswith("D=-4 c=") for line in log)


@pytest.fixture(scope="module")
def scan_p2(gauss):
    # 4 of its 6 records fail with SignMismatch, after their exact fields
    field, phi = gauss
    return family.scan_report(field, phi, (2,), 64, tol=1e-8)


def test_save_scan_matches_the_golden_files(gauss, scan_p2, tmp_path):
    # the CSV has NaN cells and the log the error suffix of the failed records
    field, phi = gauss
    paths = family.save_scan(field, phi, (2,), 64, 1e-8, scan_p2, tmp_path)
    for kind, path in paths.items():
        assert path.read_text() == (GOLDEN / f"scan_D-4_P2_c64.{kind}").read_text()


def test_every_record_field_reaches_the_json_through_the_dataclass(scan_p2):
    names = [f.name for f in fields(FamilyRecord)]
    floats = [f.name for f in fields(FamilyRecord) if f.type == "float"]
    entry_names = {f.name for f in fields(MainLemmaEntry)}
    assert floats and any(r.error for r in scan_p2) and not all(r.error for r in scan_p2)
    for record in scan_p2:
        d = family.record_to_dict(record)
        assert list(d) == names
        for name in floats:
            value = getattr(record, name)
            assert isinstance(d[name], str)
            assert float(d[name]) == value or (math.isnan(value) and math.isnan(float(d[name])))
        assert set(d["main_lemma"]) == {f.name for f in fields(MainLemmaReport)}
        assert d["main_lemma"]["entries"]
        assert all(set(entry) == entry_names for entry in d["main_lemma"]["entries"])


@pytest.mark.parametrize(
    "value, verdict",
    [
        (0.4999, "zero"),
        (-0.4999, "zero"),
        (0.5, "indeterminate"),
        (-0.5, "indeterminate"),
        (500.0, "indeterminate"),
        (-500.0, "indeterminate"),
        (500.001, "nonzero"),
        (-500.001, "nonzero"),
    ],
)
def test_verdict_thresholds(value, verdict):
    # zero below the tail bound, nonzero above 1e3 times it
    assert family._verdict(value, 0.5) == verdict


def test_an_indeterminate_record_is_written(gauss, monkeypatch):
    field, phi = gauss
    averaged = family.averaged_L

    def blurred(members, v, tol, w, tables):
        return [replace(x, tail_bound=abs(x.value)) for x in averaged(members, v, tol, w, tables)]

    monkeypatch.setattr(family, "averaged_L", blurred)
    records = family.scan_report(field, phi, (5,), 5, tol=1e-8)
    assert records
    for record in records:
        d = family.record_to_dict(record)
        assert (d["verdict"], d["error"]) == ("indeterminate", None)
        assert d["W"] in (-1, 1)
        assert d["tail_bound"] == repr(abs(record.Lv)) != "nan"
