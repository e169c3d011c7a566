import cmath
import math
import random

import pytest

from heckelab import quadfield, rootnumber
from heckelab.characters import (
    build_hecke_character,
    canonical_epsilon,
    finite_part,
    gaussian_epsilon,
    ring_class_character,
    twist,
)
from heckelab.errors import HeckeLabError, IdealSearchExhausted, NoCRTLift, PhaseOverflow
from heckelab.family import TwistOrbit, enumerate_twists, orbit_characters
from heckelab.quadfield import Ideal, KElt, coset_reps, make_field, prime_ideals_above, unit_ideal
from heckelab.rootnumber import (
    _auxiliary_for_ideal,
    _gauss_sum,
    _one_mod_f_in_c,
    auxiliary_pair,
    different_gen,
    gauss_sum_root_number,
    root_number,
    root_number_via_fe,
)
from oracles import lambda_value


@pytest.fixture(scope="module")
def chi4():
    f = make_field(-4)
    return build_hecke_character(f, gaussian_epsilon(f))


@pytest.fixture(scope="module")
def chi23():
    f = make_field(-23)
    return build_hecke_character(f, canonical_epsilon(f))


def test_different_generator():
    f4 = make_field(-4)
    d4 = different_gen(f4)
    assert abs(d4.complex() - 2j) < 1e-12
    assert d4.norm() == 4
    f23 = make_field(-23)
    d23 = different_gen(f23)
    assert abs(d23.complex() - 1j * math.sqrt(23)) < 1e-12
    # Tr(x / delta) is an integer for all integral x
    rng = random.Random(50)
    for field, delta in ((f4, d4), (f23, d23)):
        for _ in range(100):
            x = KElt(field, rng.randint(-30, 30), rng.randint(-30, 30))
            q = x / delta
            tr = 2 * q.x + field.D * q.y
            assert tr.denominator == 1


def test_auxiliary_pair_principal_conductor(chi4, chi23):
    c, b = auxiliary_pair(chi4)
    assert c == unit_ideal(chi4.field)
    assert abs(b.complex() - (2 + 2j)) < 1e-12  # canonical generator of (1+i)^3
    c23, b23 = auxiliary_pair(chi23)
    assert c23 == unit_ideal(chi23.field)
    assert abs(b23.complex() - 1j * math.sqrt(23)) < 1e-12


def test_auxiliary_pair_nonprincipal_ideal():
    field = make_field(-23)
    p2 = prime_ideals_above(field, 2)[0]
    c, b = _auxiliary_for_ideal(field, p2)
    assert c.norm == 2 and c != p2  # the conjugate prime, inverse class
    assert b.norm() == 4
    prod = p2 * c
    assert prod.contains(b) and b.norm() == prod.norm


def test_auxiliary_search_exhausted_is_a_domain_error(monkeypatch):
    # with no ideal but the unit ideal to search, the stream gives up past norm 10**7
    monkeypatch.setattr(quadfield, "enumerate_ideals", lambda field, bound: [unit_ideal(field)])
    field = make_field(-23)
    with pytest.raises(IdealSearchExhausted) as info:
        _auxiliary_for_ideal(field, Ideal(field, 2, 1, 1))
    assert isinstance(info.value, HeckeLabError)


def test_coset_reps_cardinality(chi4):
    f = chi4.conductor
    c, _ = auxiliary_pair(chi4)
    reps = list(coset_reps(c, f * c))
    assert len(reps) == f.norm
    # distinct modulo fc
    fc = f * c
    seen = {fc.reduce_element(w) for w in reps}
    assert len(seen) == f.norm
    with pytest.raises(ValueError):
        list(coset_reps(fc, c))


def test_gauss_root_numbers_canonical():
    for D in (-4, -7, -23, -47):
        field = make_field(D)
        eps = gaussian_epsilon(field) if D == -4 else canonical_epsilon(field)
        chi = build_hecke_character(field, eps)
        res = gauss_sum_root_number(chi)
        assert abs(abs(res.W_gauss) - 1) < 1e-8
        assert abs(res.W_gauss.imag) < 1e-8
        assert abs(res.W_gauss - root_number_via_fe(chi)) < 1e-6
        assert round(res.W_gauss.real) in (-1, 1)


def test_gauss_matches_known_sign(chi4, chi23):
    assert abs(gauss_sum_root_number(chi4).W_gauss - 1) < 1e-8
    assert abs(gauss_sum_root_number(chi23).W_gauss - 1) < 1e-8


def test_shifted_transversal_invariance(chi4):
    base = gauss_sum_root_number(chi4).W_gauss
    c, _ = auxiliary_pair(chi4)
    fc = chi4.conductor * c
    shift = KElt(chi4.field, fc.a, 0)  # an element of fc
    shifted = gauss_sum_root_number(chi4, shift=shift).W_gauss
    assert abs(base - shifted) < 1e-10


def test_twisted_family_signs(chi4):
    field = chi4.field
    found_odd = None
    for c in (5, 13, 25):
        pic_order = None
        rho = ring_class_character(field, c, (1,))
        chi = twist(chi4, rho)
        res = gauss_sum_root_number(chi)
        assert abs(abs(res.W_gauss) - 1) < 1e-8
        assert abs(res.W_gauss - root_number_via_fe(chi)) < 1e-6
        assert abs(res.W_gauss.imag) < 1e-8
        if round(res.W_gauss.real) == -1:
            found_odd = chi
    assert found_odd is not None
    # odd sign forces a central zero of the completed L-function
    lam = lambda_value(found_odd, 1.0, w=-1.0)
    Af = found_odd.field.A * found_odd.f_value
    assert abs(lam) <= 1e-8 * max(1.0, Af**2)


def test_gauss_sum_with_large_phase_modulus(chi4):
    # conductor norm 8 * 43^2: the phase modulus L = lcm(M, N(delta b)) exceeds 10^4
    chi = twist(chi4, ring_class_character(chi4.field, 43, (11,)))
    res = gauss_sum_root_number(chi)
    _, b = res.auxiliary
    assert math.lcm(chi.M, (res.delta * b).norm()) > 10**4
    assert abs(res.W_gauss - 1) < 1e-8
    assert abs(res.W_gauss - root_number_via_fe(chi)) < 1e-6


def test_root_number_scalar(chi4):
    assert root_number(chi4) == 1.0


def test_fe_route_alone(chi23):
    w = root_number_via_fe(chi23)
    assert abs(w - 1) < 1e-6


def _orbit_root_numbers(phi, c, exponents):
    """Gauss-sum W of every member phi rho^m of the Galois orbit of rho."""
    n = ring_class_character(phi.field, c, exponents).order
    members = tuple(m for m in range(1, n + 1) if math.gcd(m, n) == 1)
    orbit = TwistOrbit(c=c, exponents=exponents, order=n, members=members)
    chars = orbit_characters(phi, orbit)
    return [root_number(chi) for chi in chars], [gauss_sum_root_number(chi).W_gauss for chi in chars]


def test_orbit_constancy_order2(chi4):
    signs, ws = _orbit_root_numbers(chi4, 5, (1,))
    assert signs == [-1.0]
    assert abs(ws[0] + 1) < 1e-6


def test_orbit_constancy_order3(chi23):
    signs, ws = _orbit_root_numbers(chi23, 2, (1,))
    assert len(signs) == 2 and len(set(signs)) == 1
    assert max(abs(w - ws[0]) for w in ws) < 1e-6


def _transversal_gauss_sum(chi, c, b):
    """The Gauss sum term by term over the box transversal of c/fc: eps by a
    dlog lookup per residue, the phase from Tr(w conj(delta b)) directly."""
    fc = chi.conductor * c
    db = different_gen(chi.field) * b
    db_conj, N, M = db.conjugate(), db.norm(), chi.M
    L = math.lcm(M, N)
    counts = {}
    for w in coset_reps(c, fc):
        k = chi.eps.exponent_of(w)
        if k is None:
            continue  # eps extended by zero off the units mod f
        j = ((w * db_conj).trace() * (L // N) + k * (L // M)) % L
        counts[j] = counts.get(j, 0) + 1
    return sum(n * cmath.exp(2j * cmath.pi * j / L) for j, n in sorted(counts.items()))


def _gauss_oracle_characters():
    f4 = make_field(-4)
    phi4 = build_hecke_character(f4, gaussian_epsilon(f4))
    for orbit in enumerate_twists(f4, phi4, (5, 13), 25):
        for m, chi in zip(orbit.members, orbit_characters(phi4, orbit)):
            yield f"D=-4 c={orbit.c} {orbit.exponents} m={m}", chi
    yield "D=-4 c=43 (11,)", twist(phi4, ring_class_character(f4, 43, (11,)))
    # conductor a non-principal prime above 3: the auxiliary ideal is not O
    f23 = make_field(-23)
    for p3 in prime_ideals_above(f23, 3):
        yield f"D=-23 f={p3!r}", build_hecke_character(f23, finite_part(f23, p3, (1,)))


def test_gauss_sum_matches_transversal_oracle():
    checked = 0
    for label, chi in _gauss_oracle_characters():
        c, b = auxiliary_pair(chi)
        assert abs(_gauss_sum(chi, c, b) - _transversal_gauss_sum(chi, c, b)) < 1e-12, label
        checked += 1
    assert checked == 15 + 1 + 2


def test_one_mod_f_in_c_nontrivial():
    field = make_field(-23)
    for p3 in prime_ideals_above(field, 3):
        c, _ = _auxiliary_for_ideal(field, p3)
        assert c != unit_ideal(field)
        E = _one_mod_f_in_c(p3, c)
        assert E != field.one
        assert c.contains(E) and p3.contains(E - field.one)


def test_gauss_sum_rejects_lift_outside_coset(chi4, monkeypatch):
    # a shift outside fc moves E off 1 mod f
    with pytest.raises(NoCRTLift) as info:
        gauss_sum_root_number(chi4, shift=chi4.field.one)
    assert isinstance(info.value, HeckeLabError)
    # an auxiliary ideal sharing a prime with f has no E at all
    f = chi4.conductor
    monkeypatch.setattr(rootnumber, "auxiliary_pair", lambda chi: (f, KElt(chi.field, 8, 0)))
    with pytest.raises(NoCRTLift):
        gauss_sum_root_number(chi4)


def test_gauss_sum_phase_overflow_is_a_domain_error(chi4, monkeypatch):
    # N(delta b) scaled by 10^20 would push the phases past int64
    monkeypatch.setattr(rootnumber, "different_gen", lambda field: field.sqrt_D * 10**10)
    with pytest.raises(PhaseOverflow) as info:
        gauss_sum_root_number(chi4)
    assert isinstance(info.value, HeckeLabError)


def test_unit_exponent_overflow_is_a_domain_error(chi4):
    # dlog . exps is formed once per finite part, and an M near 2^62 on a group
    # of order 4 could leave int64 there
    eps = finite_part(chi4.field, chi4.conductor, (2**60,), M=2**62)
    with pytest.raises(PhaseOverflow) as info:
        eps.unit_exponents
    assert isinstance(info.value, HeckeLabError)
