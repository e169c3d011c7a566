import math
import random

import pytest

from heckelab import quadfield
from heckelab.characters import (
    build_hecke_character,
    canonical_epsilon,
    finite_part,
    gaussian_epsilon,
)
from heckelab.errors import BadDiscriminant, NonFundamental, UnitCountMismatch
from heckelab.lseries import theta_coeffs
from heckelab.quadfield import (
    BinaryForm,
    FieldContext,
    Ideal,
    KElt,
    canonical_generator,
    class_group,
    class_representatives,
    enumerate_ideals,
    form_of_ideal,
    ideals_by_norm,
    ideal_class_of,
    is_principal_with_generator,
    make_field,
    minkowski_bound,
    prime_ideals_above,
    principal_form,
    principal_ideal,
    reduced_forms,
    ring_class_dlog,
    ring_class_number,
    unit_ideal,
)
from oracles import count_and_coeff_table

FIELDS = [-3, -4, -7, -8, -20, -23, -47, -84]


def rand_elt(field, rng, span=40):
    return KElt(field, rng.randint(-span, span), rng.randint(-span, span))


def rand_ideal(field, rng):
    while True:
        z = rand_elt(field, rng, 12)
        if z.norm() != 0:
            break
    ideal = principal_ideal(field, z)
    p = rng.choice([2, 3, 5, 7, 11, 13])
    for pr in prime_ideals_above(field, p):
        if rng.random() < 0.5:
            ideal = ideal * pr
    return ideal


def test_make_field_validation():
    with pytest.raises(BadDiscriminant):
        make_field(5)
    with pytest.raises(BadDiscriminant):
        make_field(-5)  # -5 = 3 mod 4
    with pytest.raises(NonFundamental):
        make_field(-12)  # 4 * (-3) with -3 = 1 mod 4
    with pytest.raises(NonFundamental):
        make_field(-100)
    for D in FIELDS:
        assert make_field(D).D == D


def test_omega_relations():
    for D in FIELDS:
        f = make_field(D)
        w = KElt(f, 0, 1)
        assert w.trace() == D and w.norm() == f.nm
        assert w * w == D * w - f.nm
        # complex embedding satisfies the same quadratic
        z = f.omega_complex
        assert abs(z * z - D * z + f.nm) < 1e-9
        assert w.conjugate() == D - w


def test_element_arithmetic():
    rng = random.Random(10)
    for D in FIELDS:
        f = make_field(D)
        for _ in range(50):
            a, b = rand_elt(f, rng), rand_elt(f, rng)
            assert a * a.conjugate() == a.norm()
            assert (a * b).norm() == a.norm() * b.norm()
            assert (a + b).trace() == a.trace() + b.trace()
            if b.norm():
                assert (a / b) * b == a
            za, zb = a.complex(), b.complex()
            assert abs((a * b).complex() - za * zb) < 1e-6


def test_units():
    assert len(make_field(-3).units()) == 6
    assert len(make_field(-4).units()) == 4
    assert len(make_field(-7).units()) == 2
    f = make_field(-4)
    i = KElt(f, 2, 1)  # omega + 2 embeds as i
    assert i * i == -1
    for D in FIELDS:
        for u in make_field(D).units():
            assert u.norm() == 1
    assert make_field(-4).units() is make_field(-4).units()  # built once per field


def test_unit_count_mismatch_raises():
    with pytest.raises(UnitCountMismatch):
        FieldContext(D=-4, nm=5, wK=6, h=1).units()


def test_principal_ideal_membership():
    rng = random.Random(11)
    for D in FIELDS:
        f = make_field(D)
        for _ in range(30):
            z = rand_elt(f, rng, 9)
            if z.norm() == 0:
                continue
            ideal = principal_ideal(f, z)
            assert ideal.norm == z.norm()
            assert ideal.contains(z)
            w = rand_elt(f, rng, 25)
            q = w / z
            from fractions import Fraction

            divisible = Fraction(q.x).denominator == 1 and Fraction(q.y).denominator == 1
            assert ideal.contains(w) == divisible


def test_ideal_multiplication_matches_elements():
    rng = random.Random(12)
    for D in FIELDS:
        f = make_field(D)
        for _ in range(25):
            z1, z2 = rand_elt(f, rng, 8), rand_elt(f, rng, 8)
            if z1.norm() == 0 or z2.norm() == 0:
                continue
            lhs = principal_ideal(f, z1) * principal_ideal(f, z2)
            assert lhs == principal_ideal(f, z1 * z2)


def test_ideal_norm_multiplicative_and_conjugate():
    rng = random.Random(13)
    for D in FIELDS:
        f = make_field(D)
        for _ in range(20):
            I, J = rand_ideal(f, rng), rand_ideal(f, rng)
            assert (I * J).norm == I.norm * J.norm
            n = I.norm
            assert I * I.conjugate() == Ideal(f, n, 0, n)


def test_prime_ideals():
    for D in FIELDS:
        f = make_field(D)
        for p in [2, 3, 5, 7, 11, 13, 17, 101]:
            primes = prime_ideals_above(f, p)
            k = f.kronecker(p)
            pO = Ideal(f, p, 0, p)
            if k == 1:
                assert len(primes) == 2 and primes[0] != primes[1]
                assert all(pr.norm == p for pr in primes)
                assert primes[0].conjugate() == primes[1]
                assert primes[0] * primes[1] == pO
            elif k == -1:
                (pr,) = primes
                assert pr == pO and pr.norm == p * p
            else:
                (pr,) = primes
                assert pr.norm == p and pr.conjugate() == pr
                assert pr * pr == pO


def test_ideal_counts_match_divisor_sums():
    # the number of ideals of norm n is sum over d | n of kronecker(D, d)
    for D in [-4, -20, -23, -47]:
        f = make_field(D)
        # the count column of the test-side sieve
        counts = count_and_coeff_table(f, 200, lambda pr: 1)[:, 0].real.tolist()
        # theta_coeffs keys its lattice table by the ideal norms, whatever the character
        if D == -4:
            eps = gaussian_epsilon(f)
        elif D == -20:
            eps = finite_part(f, prime_ideals_above(f, 5)[0], (1,), M=4)  # eps(-1) = -1
        else:
            eps = canonical_epsilon(f)
        keys = theta_coeffs(build_hecke_character(f, eps), 200).keys()
        for n in range(1, 201):
            expected = sum(f.kronecker(d) for d in range(1, n + 1) if n % d == 0)
            assert counts[n] == expected, (D, n)
            assert (n in keys) == (expected > 0), (D, n)


def test_enumerate_ideals_sorted_distinct():
    f = make_field(-23)
    ideals = enumerate_ideals(f, 300)
    assert len(set(ideals)) == len(ideals)
    keys = [I.sort_key() for I in ideals]
    assert keys == sorted(keys)
    assert ideals[0] == unit_ideal(f)


def test_ideal_factor_roundtrip():
    rng = random.Random(14)
    for D in [-4, -23, -84]:
        f = make_field(D)
        for _ in range(15):
            I = rand_ideal(f, rng)
            fac = I.factor()
            acc = unit_ideal(f)
            for pr, e in fac.items():
                acc = acc * pr**e
            assert acc == I


CLASS_NUMBERS = {-3: 1, -4: 1, -7: 1, -8: 1, -20: 2, -23: 3, -47: 5, -84: 4, -100: 2}


def test_class_numbers():
    for disc, h in CLASS_NUMBERS.items():
        assert class_group(disc).h == h, disc


def test_class_number_via_minkowski_ideals():
    # composition-free route: every class contains an ideal of norm below the
    # Minkowski bound, and distinct classes give distinct reduced forms
    for D in [-4, -23, -47, -84]:
        f = make_field(D)
        forms = {form_of_ideal(I) for I in enumerate_ideals(f, max(1, minkowski_bound(D)))}
        assert len(forms) == CLASS_NUMBERS[D]


def test_class_group_structure():
    assert class_group(-47).orders == (5,)
    assert sorted(class_group(-84).orders) == [2, 2]
    assert sorted(class_group(-23).orders) == [3]
    # the basis itself is pinned: character descriptors are written against it
    cg = class_group(-1472)
    assert cg.orders == (2, 6)
    assert [(g.a, g.b, g.c) for g in cg.gens] == [(16, 16, 27), (12, -4, 31)]


def test_form_composition_group_laws():
    rng = random.Random(15)
    for disc in [-23, -47, -84, -100, -400]:
        forms = reduced_forms(disc)
        e = principal_form(disc)
        for f1 in forms:
            assert f1.reduced() == f1 and f1.disc == disc
            assert f1.compose(e) == f1
            assert f1.compose(f1.inverse()) == e
        for _ in range(30):
            f1, f2, f3 = (rng.choice(forms) for _ in range(3))
            assert f1.compose(f2) == f2.compose(f1)
            assert f1.compose(f2).compose(f3) == f1.compose(f2.compose(f3))
            assert f1.compose(f2) in forms


def test_ideal_class_homomorphism():
    f = make_field(-23)
    cg = f.class_group()
    ideals = enumerate_ideals(f, 40)[1:]
    rng = random.Random(16)
    for _ in range(60):
        I, J = rng.choice(ideals), rng.choice(ideals)
        vi, vj, vij = ideal_class_of(I), ideal_class_of(J), ideal_class_of(I * J)
        assert vij == tuple((a + b) % o for a, b, o in zip(vi, vj, cg.orders))
    # principal ideals land in the identity class
    for _ in range(20):
        z = rand_elt(f, rng, 10)
        if z.norm() == 0:
            continue
        assert ideal_class_of(principal_ideal(f, z)) == (0,)


def test_is_principal_with_generator():
    f = make_field(-23)
    p2 = prime_ideals_above(f, 2)[0]
    assert is_principal_with_generator(p2) is None
    assert is_principal_with_generator(p2 * p2) is None
    g = is_principal_with_generator(p2**3)
    assert g is not None and principal_ideal(f, g) == p2**3
    rng = random.Random(17)
    for D in FIELDS:
        fld = make_field(D)
        for _ in range(10):
            z = rand_elt(fld, rng, 8)
            if z.norm() == 0:
                continue
            w = is_principal_with_generator(principal_ideal(fld, z))
            assert w is not None and (z / w).norm() == 1


def test_canonical_generator_deterministic():
    import cmath

    f = make_field(-4)
    p5 = prime_ideals_above(f, 5)[0]
    w = canonical_generator(p5)
    assert w is not None
    arg = cmath.phase(w.complex()) % (2 * math.pi)
    # every unit multiple has argument at least as large
    for u in f.units():
        assert cmath.phase((w * u).complex()) % (2 * math.pi) >= arg - 1e-12


def test_class_representatives():
    f = make_field(-23)
    reps = list(class_representatives(f, coprime_to=23 * 2).values())
    assert len(reps) == 3
    assert len({ideal_class_of(r) for r in reps}) == 3
    for r in reps:
        assert math.gcd(r.norm, 46) == 1


@pytest.mark.parametrize(
    "D, coprime_to, want",
    [
        (-84, 1, {(0, 0): (1, 0, 1), (0, 1): (2, 1, 1), (1, 0): (3, 0, 1), (1, 1): (5, 0, 1)}),
        (-84, 5, {(0, 0): (1, 0, 1), (0, 1): (2, 1, 1), (1, 0): (3, 0, 1), (1, 1): (6, 3, 1)}),
        (-23, 46, {(0,): (1, 0, 1), (1,): (3, 0, 1), (2,): (3, 2, 1)}),
    ],
)
def test_class_representatives_pinned(D, coprime_to, want):
    reps = class_representatives(make_field(D), coprime_to)
    assert {vec: (I.a, I.b, I.c) for vec, I in reps.items()} == want


def test_class_representatives_h1_enumerates_nothing(monkeypatch):
    def fail(field, bound):
        raise AssertionError("enumerate_ideals called")

    monkeypatch.setattr(quadfield, "enumerate_ideals", fail)
    f = make_field(-4)
    assert class_representatives(f, coprime_to=10) == {(): unit_ideal(f)}


@pytest.mark.parametrize("D", [-4, -23, -84])
def test_ideals_by_norm_matches_enumerate_ideals(D):
    # 300 lies past six doubling bounds of the stream (8, 16, ..., 256)
    f = make_field(D)
    want = enumerate_ideals(f, 300)
    stream = ideals_by_norm(f)
    assert [next(stream) for _ in want] == want


def test_compose_rejects_mixed_discriminants():
    with pytest.raises(BadDiscriminant):
        BinaryForm(1, 0, 1).compose(BinaryForm(1, 1, 6))


def test_ring_class_groups():
    f = make_field(-4)
    assert ring_class_number(f, 5) == 2   # disc -100
    assert ring_class_number(f, 1) == 1
    # contraction is a homomorphism on ideals coprime to the conductor
    c = 5
    ideals = [I for I in enumerate_ideals(f, 60) if math.gcd(I.norm, c) == 1 and I.norm > 1]
    cg = class_group(c * c * f.D)
    rng = random.Random(18)
    for _ in range(40):
        I, J = rng.choice(ideals), rng.choice(ideals)
        vi = ring_class_dlog(f, c, I)
        vj = ring_class_dlog(f, c, J)
        vij = ring_class_dlog(f, c, I * J)
        assert vij == tuple((a + b) % o for a, b, o in zip(vi, vj, cg.orders))
    # principal ideals with generator congruent to an integer mod c*O are trivial
    for z in [KElt(f, 7, 0), KElt(f, 2, 5), KElt(f, -3, 10), KElt(f, 1, -5)]:
        assert ring_class_dlog(f, c, principal_ideal(f, z)) == (0,)
    # and the map is onto: some coprime ideal hits the nontrivial class
    assert {ring_class_dlog(f, c, I) for I in ideals} == {(0,), (1,)}


def test_ring_class_dlog_kills_integer_scalings():
    # (n*z) and (z) have the same ring class for integers n coprime to c,
    # since (n) contracts to the principal order ideal n*O_c
    f = make_field(-7)
    c = 3
    rng = random.Random(19)
    for _ in range(40):
        z = rand_elt(f, rng, 12)
        n = rng.randint(1, 9)
        if z.norm() == 0 or math.gcd(z.norm() * n, c) != 1:
            continue
        vi = ring_class_dlog(f, c, principal_ideal(f, z))
        vni = ring_class_dlog(f, c, principal_ideal(f, n * z))
        assert vi == vni


def test_hnf_validation_rejects_bad_triples():
    f = make_field(-4)
    with pytest.raises(ValueError):
        Ideal(f, 4, 1, 2)  # c does not divide b
    with pytest.raises(ValueError):
        Ideal(f, 3, 1, 1)  # not closed under omega (3 is inert in Q(i))
    with pytest.raises(ValueError):
        Ideal(f, 2, 3, 1)  # b out of range


def test_form_of_ideal_discriminant():
    rng = random.Random(20)
    for D in FIELDS:
        f = make_field(D)
        for _ in range(15):
            I = rand_ideal(f, rng)
            form = form_of_ideal(I)
            assert form.disc == D
            assert form.is_primitive()
