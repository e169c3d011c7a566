import cmath
import math
import random

import pytest

from heckelab import quadfield, rootnumber
from heckelab.characters import (
    build_hecke_character,
    canonical_epsilon,
    gaussian_epsilon,
    ring_class_character,
    twist,
    twist_orbit,
)
from heckelab.errors import HeckeLabError, IdealSearchExhausted, NoCRTLift, PhaseOverflow
from heckelab.family import enumerate_twists
from heckelab.lseries import theta_coeffs, theta_lattice
from heckelab.quadfield import Ideal, KElt, make_field, prime_ideals_above, unit_ideal
from heckelab.rootnumber import (
    _gauss_sum,
    auxiliary_pair,
    fe_bound,
    gauss_data,
    gauss_sum_root_number,
    root_number,
    root_number_via_fe,
)
from oracles import (
    coset_reps,
    finite_part,
    global_gauss_sum,
    lambda_value,
    local_part_twists,
    one_mod_f_in_c_by_search,
)


def _fe(chi):
    """W by the theta quotient, over chi's theta table to fe_bound(chi)."""
    X = fe_bound(chi)
    return root_number_via_fe(chi, theta_coeffs(chi, X, theta_lattice(chi, X)))


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
    d4 = f4.sqrt_D
    assert abs(d4.complex() - 2j) < 1e-12
    assert d4.norm() == 4
    f23 = make_field(-23)
    d23 = f23.sqrt_D
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
    c, b = auxiliary_pair(chi4.field, chi4.conductor)
    assert c == unit_ideal(chi4.field)
    assert abs(b.complex() - (2 + 2j)) < 1e-12  # canonical generator of (1+i)^3
    c23, b23 = auxiliary_pair(chi23.field, chi23.conductor)
    assert c23 == unit_ideal(chi23.field)
    assert abs(b23.complex() - 1j * math.sqrt(23)) < 1e-12


def test_auxiliary_pair_nonprincipal_ideal():
    field = make_field(-23)
    p2 = prime_ideals_above(field, 2)[0]
    c, b = auxiliary_pair(field, p2)
    assert c.norm == 2 and c != p2  # the conjugate prime, inverse class
    assert b.norm() == 4
    prod = p2 * c
    assert prod.contains(b) and b.norm() == prod.norm


def test_auxiliary_search_exhausted_is_a_domain_error(monkeypatch):
    # with no ideal c that makes f*c principal, the stream gives up past its norm cap
    monkeypatch.setattr(quadfield, "_NORM_CAP", 64)
    monkeypatch.setattr(rootnumber, "ideal_class_of", lambda ideal: (1,))
    field = make_field(-23)
    with pytest.raises(IdealSearchExhausted) as info:
        auxiliary_pair(field, Ideal(field, 2, 1, 1))
    assert isinstance(info.value, HeckeLabError)


def test_coset_reps_cardinality(chi4):
    f = chi4.conductor
    c, _ = auxiliary_pair(chi4.field, chi4.conductor)
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
        eps = canonical_epsilon(field)
        chi = build_hecke_character(field, eps)
        w = gauss_sum_root_number(chi, gauss_data(chi))
        assert abs(abs(w) - 1) < 1e-8
        assert abs(w.imag) < 1e-8
        assert abs(w - _fe(chi)) < 1e-6
        assert round(w.real) in (-1, 1)


def test_gauss_matches_known_sign(chi4, chi23):
    assert abs(gauss_sum_root_number(chi4, gauss_data(chi4)) - 1) < 1e-8
    assert abs(gauss_sum_root_number(chi23, gauss_data(chi23)) - 1) < 1e-8


def test_shifted_transversal_invariance(chi4, monkeypatch):
    base = gauss_sum_root_number(chi4, gauss_data(chi4))
    c, _ = auxiliary_pair(chi4.field, chi4.conductor)
    fc = chi4.conductor * c
    t = KElt(chi4.field, fc.a, 0)  # an element of fc
    solve = rootnumber.idempotent
    monkeypatch.setattr(rootnumber, "idempotent", lambda f, c: solve(f, c) + t)
    assert abs(base - gauss_sum_root_number(chi4, gauss_data(chi4))) < 1e-10


def test_twisted_family_signs(chi4):
    field = chi4.field
    found_odd = None
    for c in (5, 13, 25):
        pic_order = None
        rho = ring_class_character(field, c, (1,))
        chi = twist(chi4, rho)
        w = gauss_sum_root_number(chi, gauss_data(chi))
        assert abs(abs(w) - 1) < 1e-8
        assert abs(w - _fe(chi)) < 1e-6
        assert abs(w.imag) < 1e-8
        if round(w.real) == -1:
            found_odd = chi
    assert found_odd is not None
    # odd sign forces a central zero of the completed L-function
    lam = lambda_value(found_odd, 1.0, w=-1.0)
    Af = found_odd.field.A * found_odd.f_value
    assert abs(lam) <= 1e-8 * max(1.0, Af**2)


def test_gauss_sum_with_large_phase_modulus(chi4):
    # conductor norm 8 * 43^2: the phase modulus L = lcm(M, N(delta b)) exceeds 10^4
    chi = twist(chi4, ring_class_character(chi4.field, 43, (11,)))
    gauss = gauss_data(chi)
    assert math.lcm(chi.M, (chi.field.sqrt_D * gauss.b).norm()) > 10**4
    w = gauss_sum_root_number(chi, gauss)
    assert abs(w - 1) < 1e-8
    assert abs(w - _fe(chi)) < 1e-6


def test_root_number_scalar(chi4):
    assert root_number(chi4) == 1.0


def test_fe_route_alone(chi23):
    w = _fe(chi23)
    assert abs(w - 1) < 1e-6


def _orbit_root_numbers(phi, c, exponents):
    """Gauss-sum W of every member phi rho^m of the Galois orbit of rho."""
    rho = ring_class_character(phi.field, c, exponents)
    members = tuple(m for m in range(1, rho.order + 1) if math.gcd(m, rho.order) == 1)
    chars = twist_orbit(phi, rho, members)
    return [root_number(chi) for chi in chars], [gauss_sum_root_number(chi, gauss_data(chi)) for chi in chars]


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
    db = chi.field.sqrt_D * b
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
    for orbit in enumerate_twists(f4, (5, 13), 25):
        for m, chi in zip(orbit.members, twist_orbit(phi4, orbit.rho, orbit.members)):
            yield f"D=-4 c={orbit.c} {orbit.exponents} m={m}", chi
    yield "D=-4 c=43 (11,)", twist(phi4, ring_class_character(f4, 43, (11,)))
    # conductor a non-principal prime above 3: the auxiliary ideal is not O
    f23 = make_field(-23)
    for p3 in prime_ideals_above(f23, 3):
        yield f"D=-23 f={p3!r}", build_hecke_character(f23, finite_part(f23, p3, (1,)))


def test_gauss_sum_matches_transversal_oracle():
    checked = 0
    for label, chi in _gauss_oracle_characters():
        gauss = gauss_data(chi)
        c, b = gauss.c, gauss.b
        assert (c, b) == auxiliary_pair(chi.field, chi.conductor), label
        assert abs(_gauss_sum(chi, gauss) - _transversal_gauss_sum(chi, c, b)) < 1e-12, label
        checked += 1
    assert checked == 15 + 1 + 2


def test_local_gauss_sums_match_the_global_sum():
    # the product of local sums over the (O/P^a)^x against one pass over the
    # global table of (O/f)^x, on every twist of the local-part families
    checked = 0
    for label, chi in local_part_twists():
        gauss = gauss_data(chi)
        want = global_gauss_sum(chi, gauss)
        assert abs(_gauss_sum(chi, gauss) - want) <= 1e-12 * abs(want), label
        assert len(gauss.phases) == len(chi.conductor.factor()), label
        checked += 1
    assert checked == 146


def _conductor_characters():
    """(label, chi): one member per conductor f of each of five twist
    families, then the two D=-23 characters whose conductor is a prime
    above 3, the only ones here whose auxiliary ideal c is not O."""
    for D, P, c_max in ((-4, (5, 13), 65), (-4, (2, 5), 40), (-23, (2, 3), 72), (-7, (2, 3), 24)):
        field = make_field(D)
        eps = canonical_epsilon(field)
        phi = build_hecke_character(field, eps)
        seen = set()
        for orbit in enumerate_twists(field, P, c_max):
            for chi in twist_orbit(phi, orbit.rho, orbit.members):
                if chi.conductor not in seen:
                    seen.add(chi.conductor)
                    yield f"D={D} c={orbit.c} f={chi.conductor!r}", chi
    f23 = make_field(-23)
    for p3 in prime_ideals_above(f23, 3):
        yield f"D=-23 f={p3!r}", build_hecke_character(f23, finite_part(f23, p3, (1,)))


def test_idempotent_E_matches_the_search():
    # gauss_data's E = idempotent(f, c) against the E the coset search finds:
    # they differ by an element of fc, and give the same phases and W
    nonprincipal = 0
    checked = 0
    for label, chi in _conductor_characters():
        gauss = gauss_data(chi)
        f, c = gauss.f, gauss.c
        E = quadfield.idempotent(f, c)
        assert (f * c).contains(E - one_mod_f_in_c_by_search(f, c)), label
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rootnumber, "idempotent", one_mod_f_in_c_by_search)
            searched = gauss_data(chi)
        assert (searched.c, searched.b) == (c, gauss.b), label
        assert [p.tobytes() for p in searched.phases] == [p.tobytes() for p in gauss.phases], label
        assert gauss_sum_root_number(chi, searched) == gauss_sum_root_number(chi, gauss), label
        nonprincipal += c != unit_ideal(chi.field)
        checked += 1
    assert nonprincipal == 2
    assert checked == 36 + 2


def test_gauss_sum_rejects_lift_outside_coset(chi4, monkeypatch):
    # an auxiliary ideal sharing a prime with f has no E at all
    f = chi4.conductor
    monkeypatch.setattr(rootnumber, "auxiliary_pair", lambda field, _: (f, KElt(field, 8, 0)))
    with pytest.raises(NoCRTLift) as info:
        gauss_sum_root_number(chi4, gauss_data(chi4))
    assert isinstance(info.value, HeckeLabError)


def test_gauss_sum_phase_overflow_is_a_domain_error(chi4, monkeypatch):
    # N(delta b) scaled by 10^20 would push the phases past int64
    pair = rootnumber.auxiliary_pair

    def scaled_pair(field, f):
        c, b = pair(field, f)
        return c, b * 10**10

    monkeypatch.setattr(rootnumber, "auxiliary_pair", scaled_pair)
    with pytest.raises(PhaseOverflow) as info:
        gauss_sum_root_number(chi4, gauss_data(chi4))
    assert isinstance(info.value, HeckeLabError)


def test_unit_exponent_overflow_is_a_domain_error(chi4):
    # dlog . exps is formed once per finite part, and an M near 2^62 on a group
    # of order 4 could leave int64 there
    eps = finite_part(chi4.field, chi4.conductor, (2**60,), M=2**62)
    with pytest.raises(PhaseOverflow) as info:
        eps.local_exponents
    assert isinstance(info.value, HeckeLabError)
