import cmath
import functools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab import characters
from heckelab.arith import abelian_group_structure, factorize, is_prime
from heckelab.characters import (
    CharValue,
    _unit_exponents,
    build_hecke_character,
    canonical_epsilon,
    check_property1,
    evaluate_char,
    gaussian_epsilon,
    ideal_lcm,
    local_unit_groups,
    main_lemma_quantities,
    ring_class_character,
    twist,
    twist_orbit,
    unit_group_mod,
)
from heckelab.errors import (
    DomainError,
    ImprimitiveFinitePart,
    NoCRTLift,
    NoConsistentLift,
    RestrictionMismatch,
    UnitInconsistent,
)
from heckelab.family import enumerate_twists
from heckelab.quadfield import (
    Ideal,
    KElt,
    class_group,
    enumerate_ideals,
    ideal_class_of,
    idempotent,
    is_fundamental,
    make_field,
    prime_ideals_above,
    principal_ideal,
    unit_ideal,
)

import oracles
from oracles import finite_part


def coprime_ideals(field, char, bound):
    return [
        I
        for I in enumerate_ideals(field, bound)
        if I.norm > 1 and I.is_coprime(char.eps.f)
    ]


@pytest.fixture(scope="module")
def chi4():
    f = make_field(-4)
    return build_hecke_character(f, gaussian_epsilon(f))


@pytest.fixture(scope="module")
def chi7():
    f = make_field(-7)
    return build_hecke_character(f, canonical_epsilon(f))


@pytest.fixture(scope="module")
def chi23():
    f = make_field(-23)
    return build_hecke_character(f, canonical_epsilon(f))


@pytest.fixture(scope="module")
def chi47():
    f = make_field(-47)
    return build_hecke_character(f, canonical_epsilon(f))


def test_unit_group_examples():
    f4 = make_field(-4)
    one_plus_i = KElt(f4, 3, 1)
    f = principal_ideal(f4, one_plus_i) ** 3
    ug = unit_group_mod(f4, f)
    assert ug.order == 4  # N(f) * (1 - 1/2) = 8/2
    f23 = make_field(-23)
    ug23 = unit_group_mod(f23, principal_ideal(f23, f23.sqrt_D))
    assert ug23.orders == (22,)
    ug_triv = unit_group_mod(f4, unit_ideal(f4))
    assert ug_triv.order == 1 and ug_triv.gens == ()


@pytest.mark.parametrize(
    "n, gens, orders",
    [
        (25, ((16, 47), (93, 46), (12, 49)), (4, 20, 20)),
        (67, ((132, 133), (104, 27)), (4, 4488)),
        (32, ((34, 33), (0, 11), (0, 1)), (4, 32, 32)),
        (43, ((128, 43), (169, 6)), (4, 1848)),
    ],
)
def test_unit_group_basis_pinned(n, gens, orders):
    # character descriptors store exponents on these generators, so a change
    # of basis would change them
    f4 = make_field(-4)
    f = principal_ideal(f4, KElt(f4, 3, 1)) ** 3 * principal_ideal(f4, KElt(f4, n, 0))
    ug = unit_group_mod(f4, f)
    assert ug.gens == gens and ug.orders == orders


def _box_unit_residues(field, f):
    """Unit residues of the HNF box of f, point by point: y outer, x inner."""
    primes = list(f.factor())
    return [
        (x, y)
        for y in range(f.c)
        for x in range(f.a)
        if all(not pr.contains(KElt(field, x, y)) for pr in primes)
    ]


def _residue_examples():
    f4 = make_field(-4)
    cube = principal_ideal(f4, KElt(f4, 3, 1)) ** 3
    for n in (25, 43, 64, 67):
        yield f4, cube * principal_ideal(f4, KElt(f4, n, 0))
    f23 = make_field(-23)
    for p3 in prime_ideals_above(f23, 3):
        yield f23, principal_ideal(f23, f23.sqrt_D) * p3


def test_unit_group_residues_in_box_order():
    for field, f in _residue_examples():
        ug = unit_group_mod(field, f)
        residues = list(zip(ug.xs.tolist(), ug.ys.tolist()))
        assert residues == _box_unit_residues(field, f)
        # the exponent matrix is the dlog table, row by row
        assert ug.vecs.shape == (ug.order, len(ug.orders))
        # rows() reduces any representative into the box: moved by elements
        # of f, every residue finds its own row; elements of a prime get -1
        for s, t in ((0, 0), (3, 2), (-5, -1)):
            rows = ug.rows(ug.xs + s * f.a + t * f.b, ug.ys + t * f.c)
            assert rows.tolist() == list(range(ug.order))
        primes = list(f.factor())
        off_units = ug.rows([pr.b + 7 * pr.a for pr in primes], [pr.c for pr in primes])
        assert off_units.tolist() == [-1] * len(primes)


# Oracle for abelian_group_structure: the same Sylow split, greedy p-group
# basis and relation correction over hashable elements, one Python
# multiplication per product and a dict of discrete logs.


def _dict_adjoin(dlog, g, m, mul):
    """dlog extended by g of order m modulo the subgroup dlog maps: h g^j -> dlog[h] + (j,)."""
    out = {elt: vec + (0,) for elt, vec in dlog.items()}
    y = g
    for j in range(1, m):
        for elt, vec in dlog.items():
            out[mul(elt, y)] = vec + (j,)
        y = mul(y, g)
    return out


def _dict_pow(x, k, mul, identity):
    out = None
    while k:
        if k & 1:
            out = x if out is None else mul(out, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return identity if out is None else out


def _dict_p_group_basis(elements, mul, identity, p):
    gens, orders, dlog = [], [], {identity: ()}
    while len(dlog) < len(elements):
        best, best_m = None, 0
        for x in elements:
            m, y = 1, x
            while y not in dlog:
                m, y = m * p, _dict_pow(y, p, mul, identity)
            if m > best_m:
                best, best_m = x, m
        x, m = best, best_m
        g_new = x
        for g, o, e in zip(gens, orders, dlog[_dict_pow(x, m, mul, identity)]):
            assert e % m == 0
            g_new = mul(g_new, _dict_pow(g, (-(e // m)) % o, mul, identity))
        gens.append(g_new)
        orders.append(m)
        dlog = _dict_adjoin(dlog, g_new, m, mul)
    return gens, orders


def _dict_group_structure(elements, mul, identity):
    """(gens, orders, dlog) with Sylow candidates tried in repr order."""
    n = len(elements)
    if n == 1:
        return [], [], {identity: ()}
    sylow = []
    for p, a in factorize(n):
        q = p**a
        syl = set()
        for x in elements:
            syl.add(_dict_pow(x, n // q, mul, identity))
            if len(syl) == q:
                break
        sgens, sorders = _dict_p_group_basis(sorted(syl, key=repr), mul, identity, p)
        sylow.append(sorted(zip(sgens, sorders), key=lambda go: -go[1]))
    gens, orders = [], []
    for k in range(max(len(s) for s in sylow)):
        g, d = identity, 1
        for basis in sylow:
            if k < len(basis):
                g, d = mul(g, basis[k][0]), d * basis[k][1]
        gens.append(g)
        orders.append(d)
    gens.reverse()
    orders.reverse()
    dlog = {identity: ()}
    for g, d in zip(gens, orders):
        dlog = _dict_adjoin(dlog, g, d, mul)
    assert dlog.keys() == set(elements)
    return gens, orders, dlog


def _dict_unit_group(ug):
    """(O/f)^x through the dict oracle, with the unit residues (x, y) as elements."""
    field, f = ug.field, ug.f
    a, b, c, D, nm = f.a, f.b, f.c, field.D, field.nm

    def mul(u, v):
        (x1, y1), (x2, y2) = u, v
        x, y = x1 * x2 - nm * y1 * y2, x1 * y2 + x2 * y1 + D * y1 * y2
        return ((x - y // c * b) % a, y % c)

    one = f.reduce_element(field.one)
    return _dict_group_structure(list(zip(ug.xs.tolist(), ug.ys.tolist())), mul, (one.x, one.y))


def _oracle_moduli():
    for D in (-3, -4, -7, -23, -47):
        field = make_field(D)
        for f in enumerate_ideals(field, 300):
            yield field, f
    f4 = make_field(-4)
    cube = principal_ideal(f4, KElt(f4, 3, 1)) ** 3
    for n in (43, 67):
        yield f4, cube * principal_ideal(f4, KElt(f4, n, 0))


def test_unit_group_matches_dict_oracle():
    # the residues themselves are checked point by point in the next test
    bases = {}
    for field, f in _oracle_moduli():
        ug = unit_group_mod(field, f)
        gens, orders, dlog = _dict_unit_group(ug)
        assert (ug.gens, ug.orders) == (tuple(gens), tuple(orders)), (field.D, f)
        xs, ys = zip(*dlog)
        assert list(map(tuple, ug.vecs[ug.rows(xs, ys)].tolist())) == list(dlog.values())
        bases[field.D, f.a, f.b, f.c] = (ug.gens, ug.orders)
    assert len(bases) == 2062
    # the oracle's basis of the c = 43 twist-deep modulus is the pinned one
    assert bases[-4, 172, 86, 86] == (((128, 43), (169, 6)), (4, 1848))


def _unit_group_by_general_route(ug):
    """(gens, orders, vecs) of ug's group through abelian_group_structure:
    the residues' reprs rank the candidates, and products are read back
    through ug.rows."""
    field, xs, ys = ug.field, ug.xs, ug.ys

    def mul(u, v):
        x1, y1, x2, y2 = xs[u], ys[u], xs[v], ys[v]
        return ug.rows(x1 * x2 - field.nm * y1 * y2, x1 * y2 + x2 * y1 + field.D * y1 * y2)

    by_repr = sorted(range(ug.order), key=lambda i: repr((int(xs[i]), int(ys[i]))))
    keys = np.empty(ug.order, dtype=np.int64)
    keys[by_repr] = np.arange(ug.order)
    gens, orders, vecs = abelian_group_structure(keys, mul, int(ug.rows([1], [0])[0]))
    return tuple((int(xs[g]), int(ys[g])) for g in gens), tuple(orders), vecs


def test_prime_unit_groups_match_the_general_route():
    # (O/P)^x = F_q^x is read off one generator's powers; its basis and logs
    # are those of the general route, for every P over p <= 101 in 12 fields
    norms = []
    for D in (-3, -4, -7, -8, -11, -15, -20, -23, -24, -40, -67, -163):
        field = make_field(D)
        for p in filter(is_prime, range(102)):
            for P in prime_ideals_above(field, p):
                ug = unit_group_mod(field, P)
                gens, orders, vecs = _unit_group_by_general_route(ug)
                assert (ug.gens, ug.orders) == (gens, orders), (D, P)
                assert np.array_equal(ug.vecs, vecs), (D, P)
                norms.append(P.norm)
    # N(P) = 2 and 3 give the groups of one and two elements
    assert len(norms) == 444 and {2, 3, 4, 9} <= set(norms)


def test_local_parts_match_the_global_table():
    # eps read through its local parts (O/P^a)^x against the global table of
    # (O/f)^x at every unit residue: a random finite part on every composite
    # modulus of the dict oracle, and every twist of the local-part families
    rng = random.Random(45)
    composite = 0
    for field, f in _oracle_moduli():
        units = local_unit_groups(field, f)
        if len(units.parts) < 2:
            continue
        M = math.lcm(units.exponent, field.wK)
        exps = [rng.randrange(n) * (M // n) for n in units.orders]
        eps = finite_part(field, f, exps, M=M)
        # each lifted generator is 1 at every other part
        assert [eps.exponent_of(KElt(field, *g)) for g in units.gens] == exps, (field.D, f)
        assert oracles.local_matches_global(eps), (field.D, f)
        composite += 1
    assert composite == 1653
    twists = 0
    for label, chi in oracles.local_part_twists():
        assert oracles.local_matches_global(chi.eps), label
        twists += 1
    assert twists == 146


def test_crt_idempotents():
    # e_P = 1 mod P^a and e_P in f/P^a, with P and conj(P) both dividing f
    # over Q(i), the non-principal P2 P3 over D = -23 and the twist-deep moduli
    f4, f23 = make_field(-4), make_field(-23)
    cube = principal_ideal(f4, KElt(f4, 3, 1)) ** 3
    p5, q5 = prime_ideals_above(f4, 5)
    (p2,), (p3, _) = prime_ideals_above(f23, 2)[:1], prime_ideals_above(f23, 3)
    moduli = [(f4, cube * p5 * q5**2), (f23, p2 * p3)]
    moduli += [(f4, cube * principal_ideal(f4, KElt(f4, n, 0))) for n in (43, 67)]
    for field, f in moduli:
        units = local_unit_groups(field, f)
        assert len(units.factors) >= 2
        for (pr, a), e in zip(units.factors, units.idempotents):
            rest = unit_ideal(field)
            for other, b in units.factors:
                if other != pr:
                    rest = rest * other**b
            assert (pr**a).contains(e - field.one) and rest.contains(e), (f, pr)
    # one solve, no walk over residues: coprime ideals of norm 5^40 each
    e = idempotent(p5**40, q5**40)
    assert (p5**40).contains(e - f4.one) and (q5**40).contains(e)
    with pytest.raises(NoCRTLift):
        idempotent(p5 * q5, p5)


def test_unit_group_order_formula():
    rng = random.Random(40)
    for D in (-4, -7, -23):
        f = make_field(D)
        for _ in range(6):
            z = KElt(f, rng.randint(1, 9), rng.randint(0, 3))
            if z.norm() == 0 or z.norm() > 400:
                continue
            ideal = principal_ideal(f, z)
            ug = unit_group_mod(f, ideal)
            expected = ideal.norm
            for pr in ideal.factor():
                expected = expected * (pr.norm - 1) // pr.norm
            assert ug.order == expected


def test_canonical_epsilon_values():
    f23 = make_field(-23)
    eps = canonical_epsilon(f23)
    assert eps.exponent_of(KElt(f23, 2, 0)) == 0        # (2|23) = +1
    assert eps.exponent_of(KElt(f23, 22, 0)) == eps.M // 2  # eps(-1) = -1
    assert eps.is_unit_consistent()
    f7 = make_field(-7)
    eps7 = canonical_epsilon(f7)
    assert eps7.exponent_of(KElt(f7, 3, 0)) == eps7.M // 2  # (3|7) = -1
    assert eps7.is_unit_consistent()


def test_canonical_epsilon_beyond_the_prime_discriminants():
    # six roots of unity (D = -3), even D and even h: (N(f), M) of the first
    # finite part the search accepts
    for D, want in ((-3, (9, 6)), (-8, (32, 4)), (-15, (15, 4)), (-20, (40, 4)), (-84, (168, 12))):
        f = make_field(D)
        eps = canonical_epsilon(f)
        assert (eps.f.norm, eps.M) == want, D
        check_property1(build_hecke_character(f, eps))
    assert gaussian_epsilon is canonical_epsilon


# D = -4 and every D = -p, p prime = 3 mod 4, 7 <= p < 400
HAND_BUILT_FIELDS = [-4] + [-p for p in oracles.primes_up_to(400) if p % 4 == 3 and p > 3]


@pytest.mark.parametrize("D", HAND_BUILT_FIELDS)
def test_canonical_epsilon_matches_the_hand_built_finite_parts(D):
    field = make_field(D)
    eps = canonical_epsilon(field)
    by_hand = (oracles.gaussian_unit_epsilon if D == -4 else oracles.quadratic_residue_epsilon)(field)
    assert (eps.f, eps.M, eps.exps) == (by_hand.f, by_hand.M, by_hand.exps)


# every fundamental D in (-200, -3], and two fields of class number 18 and 19
BASE_FIELDS = [D for D in range(-3, -200, -1) if is_fundamental(D)] + [-335, -359]


def test_base_character_of_every_field_passes_property1():
    for D in BASE_FIELDS:
        field = make_field(D)
        # build_hecke_character checks unit consistency and primitivity
        check_property1(build_hecke_character(field, canonical_epsilon(field)))


def test_gaussian_epsilon_unit_consistent():
    f = make_field(-4)
    eps = gaussian_epsilon(f)
    assert eps.f.norm == 8
    assert eps.is_unit_consistent()
    # eps(i) * i = 1 spelled out
    i = KElt(f, 2, 1)
    k = eps.exponent_of(i)
    assert (cmath.exp(2j * cmath.pi * k / eps.M) * i.complex() - 1) == pytest.approx(0, abs=1e-12)


def test_unit_inconsistent_rejected():
    # the trivial eps on the conductor of D=-7 sends -1 to 1, breaking
    # eps(-1)*(-1) = 1
    f = make_field(-7)
    fid = principal_ideal(f, f.sqrt_D)
    eps = finite_part(f, fid, (0,))
    with pytest.raises(UnitInconsistent):
        build_hecke_character(f, eps)


def test_integer_ideal_values(chi4):
    # chi((n)) = kappa(n) * n for n coprime to the conductor
    f = chi4.field
    for n in (3, 5, 7, 9, 11, 13, 15):
        v = evaluate_char(chi4, principal_ideal(f, KElt(f, n, 0)))
        expected = f.kronecker(n) * n
        assert abs(v.complex() - expected) < 1e-10
        assert oracles.abs_squared(v) == n * n


def test_value_at_split_prime(chi4):
    f = chi4.field
    p5 = prime_ideals_above(f, 5)[0]
    v = evaluate_char(chi4, p5)
    assert oracles.abs_squared(v) == 5
    assert abs(abs(v.complex()) ** 2 - 5) < 1e-10


def test_value_zero_off_conductor(chi4, chi23):
    assert evaluate_char(chi4, chi4.eps.f).zero
    assert evaluate_char(chi4, chi4.eps.f).complex() == 0
    p23 = prime_ideals_above(chi23.field, 23)[0]
    assert evaluate_char(chi23, p23).zero


def test_missing_generator_raises(chi4, monkeypatch):
    import heckelab.characters as characters

    ideal = prime_ideals_above(chi4.field, 5)[0]
    monkeypatch.setattr(characters, "canonical_generator", lambda _ideal: None)
    with pytest.raises(NoConsistentLift):
        evaluate_char(chi4, ideal)


def test_abs_squared_exact(chi4, chi7, chi23, chi47):
    for chi in (chi4, chi7, chi23, chi47):
        for I in coprime_ideals(chi.field, chi, 300):
            v = evaluate_char(chi, I)
            assert oracles.abs_squared(v) == I.norm, (chi.field.D, I)
            z = v.complex()
            assert abs(abs(z) ** 2 - I.norm) <= 1e-10 * I.norm


def test_multiplicativity_exact(chi4, chi23, chi47):
    rng = random.Random(41)
    for chi in (chi4, chi23, chi47):
        pool = coprime_ideals(chi.field, chi, 200)
        for _ in range(150):
            I, J = rng.choice(pool), rng.choice(pool)
            vij = evaluate_char(chi, I * J)
            prod = oracles.value_product(evaluate_char(chi, I), evaluate_char(chi, J))
            assert oracles.equals_exact(vij, prod), (chi.field.D, I, J)
            assert abs(vij.complex() - prod.complex()) < 1e-9 * abs(vij.complex())


# D = -4, and D = -p for the primes p = 3 mod 4 above 3
PROPERTY_FIELDS = [-4] + [-p for p in oracles.primes_up_to(200) if p % 4 == 3 and p > 3]


@functools.lru_cache(maxsize=None)
def _base_and_ideals(D):
    f = make_field(D)
    eps = canonical_epsilon(f)
    return build_hecke_character(f, eps), enumerate_ideals(f, 200)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_values_have_exact_norms_and_multiply(data):
    """|chi(a)|^2 = N(a) (0 where a meets f) and chi(ab) = chi(a) chi(b), exactly,
    for random ideals a, b of norm <= 200 in random fields."""
    chi, ideals = _base_and_ideals(data.draw(st.sampled_from(PROPERTY_FIELDS)))
    a, b = data.draw(st.sampled_from(ideals)), data.draw(st.sampled_from(ideals))
    va, vb = evaluate_char(chi, a), evaluate_char(chi, b)
    for ideal, value in ((a, va), (b, vb)):
        assert oracles.abs_squared(value) == ideal.norm * ideal.is_coprime(chi.conductor)
    assert oracles.equals_exact(evaluate_char(chi, a * b), oracles.value_product(va, vb))


def test_conjugate_value_exact(chi23):
    rng = random.Random(42)
    pool = coprime_ideals(chi23.field, chi23, 250)
    for _ in range(60):
        I = rng.choice(pool)
        v = evaluate_char(chi23, I)
        vc = oracles.value_conjugate(v)
        assert abs(vc.complex() - v.complex().conjugate()) < 1e-10 * max(1, abs(v.complex()))


def equivariance_witness(chi, bound):
    """(first a with chi(conj a) != conj chi(a) exactly or None, ideals checked),
    over the ideals of norm <= bound coprime to the conductor.

    Property 1 holds exactly when chi is equivariant, so this sampled loop is
    the oracle for check_property1's exact restriction test.
    """
    checked = 0
    for ideal in coprime_ideals(chi.field, chi, bound):
        checked += 1
        va = evaluate_char(chi, ideal)
        at_conjugate = evaluate_char(chi, ideal.conjugate())
        if not oracles.equals_exact(at_conjugate, oracles.value_conjugate(va)):
            return ideal, checked
    return None, checked


def broken_chi23():
    # order-22 finite part on the D=-23 conductor: unit consistent (it sends
    # -1 to zeta_22^11 = -1) but the rational restriction has order > 2
    f = make_field(-23)
    eps = finite_part(f, principal_ideal(f, f.sqrt_D), (1,), M=22)
    assert eps.is_unit_consistent()
    return build_hecke_character(f, eps)


def test_property1_canonical(chi4, chi23):
    for chi in (chi4, chi23):
        check_property1(chi)
        witness, checked = equivariance_witness(chi, 400)
        assert witness is None
        assert checked > 50


def test_property1_broken_character():
    broken = broken_chi23()
    with pytest.raises(RestrictionMismatch, match="kappa_1"):
        check_property1(broken)
    witness, _ = equivariance_witness(broken, 200)
    assert witness is not None
    # the witness really is a counterexample
    v = evaluate_char(broken, witness)
    vc = evaluate_char(broken, witness.conjugate())
    assert abs(vc.complex() - v.complex().conjugate()) > 1e-6


def test_property1_vacuous(chi4):
    # below norm 2 the sampled side has nothing to check; the exact side needs no bound
    assert equivariance_witness(chi4, 1) == (None, 0)
    check_property1(chi4)


def test_imprimitive_finite_part_raises():
    # eps on P2 P3 over D=-23 that factors through (O/P3)^x: f is not its conductor
    f = make_field(-23)
    (p2, _), (p3, _) = prime_ideals_above(f, 2), prime_ideals_above(f, 3)
    eps = finite_part(f, p2 * p3, (1,))
    assert eps.is_unit_consistent()
    assert not eps.is_primitive()
    with pytest.raises(ImprimitiveFinitePart):
        build_hecke_character(f, eps)
    assert canonical_epsilon(f).is_primitive()


def _root_choices_are_class_group_twists(phi):
    """phi's h choices of root for its class value, one character each, after
    checking that they are exactly phi's c = 1 twists: the h twists by the
    characters of Pic(O_K) make h distinct root choices, keep phi's eps and
    its class representatives, and take the choice's values at every ideal."""
    field = phi.field
    (h,) = phi.class_orders
    twists = [twist(phi, ring_class_character(field, 1, (t,))) for t in range(h)]
    by_choice = {chi.root_choices: chi for chi in twists}
    assert sorted(by_choice) == [(j,) for j in range(h)]
    eps = [Fraction(k, phi.M) for k in phi.eps.exps]
    lifts = []
    for j in range(h):
        lift = oracles.character_from_descriptor(dict(phi.descriptor(), root_choices=[j]))
        chi = by_choice[(j,)]
        assert chi.conductor == phi.conductor and chi.class_reps == phi.class_reps
        assert [Fraction(k, chi.M) for k in chi.eps.exps] == eps
        for I in coprime_ideals(field, phi, 60):
            want = evaluate_char(lift, I).complex()
            assert abs(evaluate_char(chi, I).complex() - want) < 1e-9 * abs(want), (j, I)
        lifts.append(lift)
    return lifts


def test_galois_orbit_cube_roots(chi23):
    f = chi23.field
    lifts = _root_choices_are_class_group_twists(chi23)
    assert len(lifts) == 3
    assert len({l.conductor for l in lifts}) == 1
    zeta3 = cmath.exp(2j * cmath.pi / 3)
    for I in coprime_ideals(f, chi23, 60):
        vals = [evaluate_char(l, I).complex() for l in lifts]
        base = vals[0]
        assert all(abs(abs(v) - abs(base)) < 1e-10 * abs(base) for v in vals)
        ratios = [v / base for v in vals]
        if ideal_class_of(I) == (0,):
            assert all(abs(r - 1) < 1e-9 for r in ratios)
        else:
            # a non-principal class meets all three cube roots across lifts
            for root in (1, zeta3, zeta3**2):
                assert min(abs(r - root) for r in ratios) < 1e-9


def test_ring_class_character_basics():
    f = make_field(-4)
    rho = ring_class_character(f, 5, (1,))
    assert rho.order == 2
    p2 = prime_ideals_above(f, 2)[0]  # (1+i), lands in the nontrivial class
    assert rho.value_exponent(p2) == 1
    assert oracles.rho_value_complex(rho, p2) == pytest.approx(-1)
    # primitive convention: 0 on ideals sharing a factor with c
    p5 = prime_ideals_above(f, 5)[0]
    assert rho.value_exponent(p5) is None
    assert oracles.rho_value_complex(rho, p5) == 0
    trivial = ring_class_character(f, 5, (0,))
    assert trivial.is_trivial()


def test_ring_class_character_reads_its_class_group_once(monkeypatch):
    import heckelab.characters as characters

    f = make_field(-4)
    rho = ring_class_character(f, 13, (1,))
    lookups = []
    real = characters.class_group

    def counted(disc):
        lookups.append(disc)
        return real(disc)

    monkeypatch.setattr(characters, "class_group", counted)
    fresh = characters.RingClassCharacter(field=f, c=13, exponents=(1,))
    pool = [I for I in enumerate_ideals(f, 100) if math.gcd(I.norm, 13) == 1]
    values = [fresh.value_exponent(I) for I in pool]
    assert fresh.order == 6
    assert lookups == [13 * 13 * -4]
    # the cached order leaves equality and hashing to the fields
    assert fresh == rho and hash(fresh) == hash(rho)
    assert values == [rho.value_exponent(I) for I in pool]


def test_ring_class_character_anticyclotomic():
    rng = random.Random(43)
    f = make_field(-4)
    rho = ring_class_character(f, 13, (1,))
    pool = [I for I in enumerate_ideals(f, 300) if math.gcd(I.norm, 13) == 1 and I.norm > 1]
    for _ in range(100):
        I = rng.choice(pool)
        a = oracles.rho_value_complex(rho, I)
        b = oracles.rho_value_complex(rho, I.conjugate())
        assert abs(a * b - 1) < 1e-10


def test_exponent_vectors_of_the_wrong_length_are_rejected():
    # one exponent per generator: neither truncated nor padded
    f4 = make_field(-4)
    assert class_group(25 * -4).orders == (2,)
    ring_class_character(f4, 25, (1,))
    for exps in ((1, 3, 7), ()):
        with pytest.raises(ValueError):
            ring_class_character(f4, 5, exps)
    f = gaussian_epsilon(f4).f
    assert unit_group_mod(f4, f).orders == (4,)
    for exps in ((), (3, 1)):
        with pytest.raises(ValueError):
            finite_part(f4, f, exps)


def test_twist_trivial_is_identity(chi4):
    f = chi4.field
    rho = ring_class_character(f, 5, (0,))
    assert twist(chi4, rho) is chi4


def test_twist_by_ring_class(chi4):
    f = chi4.field
    rho = ring_class_character(f, 5, (1,))
    chi = twist(chi4, rho)
    assert chi.conductor_norm == 200  # (1+i)^3 * 5O
    assert chi.twist_data == (5, (1,))
    # chi agrees with phi * rho away from both conductors
    for I in enumerate_ideals(f, 150):
        if I.norm == 1 or not I.is_coprime(chi.eps.f):
            continue
        lhs = evaluate_char(chi, I).complex()
        rhs = evaluate_char(chi4, I).complex() * oracles.rho_value_complex(rho, I)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs)), I
    # still type (1,0) and equivariant
    for I in coprime_ideals(f, chi, 200):
        assert oracles.abs_squared(evaluate_char(chi, I)) == I.norm
    check_property1(chi)
    assert equivariance_witness(chi, 300)[0] is None


def test_twist_on_principal_ideals(chi4):
    # chi((w)) = eps_chi(w) * w exactly, for w coprime to the conductor
    f = chi4.field
    rho = ring_class_character(f, 5, (1,))
    chi = twist(chi4, rho)
    rng = random.Random(44)
    for _ in range(40):
        w = KElt(f, rng.randint(-9, 9), rng.randint(-9, 9))
        if w.norm() == 0:
            continue
        ideal = principal_ideal(f, w)
        if not ideal.is_coprime(chi.eps.f):
            continue
        k = chi.eps.exponent_of(w)
        v = evaluate_char(chi, ideal)
        expected = cmath.exp(2j * cmath.pi * k / chi.M) * w.complex()
        assert abs(v.complex() - expected) < 1e-9 * abs(expected)


def test_twist_builds_its_character_once(chi23, monkeypatch):
    import heckelab.characters as characters

    f = chi23.field
    assemblies = []
    assemble = characters._assemble

    def counted(*args, **kwargs):
        assemblies.append(args)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(characters, "_assemble", counted)
    for exps in ((1,), (2,), (3,)):
        assemblies.clear()
        chi = twist(chi23, ring_class_character(f, 4, exps))
        assert len(assemblies) == 1
        # the radicals set after the one assembly are those a fully checked
        # build with the chosen roots makes
        rebuilt = oracles.character_from_descriptor(chi.descriptor())
        assert rebuilt.radicals == chi.radicals and rebuilt.descriptor() == chi.descriptor()


# twist_orbit against the per-member oracle: the families of test_orbit_values,
# and Q(i) with 2 in P, where conductors drop below lcm(f(phi), cO) at (1+i)
ORACLE_FAMILIES = [
    (-4, (5, 13), 25),
    (-23, (2, 3), 8),
    (-4, (2, 5), 20),
    (-4, (2,), 64),
    (-4, (2, 5), 40),
]


def _base_character(D):
    field = make_field(D)
    return build_hecke_character(field, canonical_epsilon(field))


@pytest.mark.parametrize("D, P, c_max", ORACLE_FAMILIES)
def test_twist_orbit_matches_per_member_oracle(D, P, c_max):
    phi = _base_character(D)
    field = phi.field
    members_seen = 0
    for orbit in enumerate_twists(field, P, c_max):
        chars = twist_orbit(phi, orbit.rho, orbit.members)
        assert len(chars) == len(orbit.members)
        for m, chi in zip(orbit.members, chars):
            want = oracles.twist_per_member(phi, _member_rho(field, orbit, m))
            assert chi.descriptor() == want.descriptor(), (orbit, m)
            assert chi.radicals == want.radicals, (orbit, m)
            assert chi.conductor == want.conductor, (orbit, m)
            assert oracles.local_matches_global(chi.eps), (orbit, m)
            # the descent certified what build_hecke_character checks again
            assert chi.eps.is_primitive() and chi.eps.is_unit_consistent()
            members_seen += 1
    assert members_seen > 1


def test_twist_orbit_groups_members_by_conductor(chi4):
    # over phi' = phi rho_13, the orbit of rho_13^-1 holds phi' rho_13^-1 = phi,
    # of conductor (1+i)^3, and phi' rho_13^-5 = phi rho_13^2, of conductor (1+i)^3 13
    field = chi4.field
    phi = twist(chi4, ring_class_character(field, 13, (1,)))
    rho = ring_class_character(field, 13, (5,))
    chars = twist_orbit(phi, rho, (1, 5))
    assert [chi.conductor_norm for chi in chars] == [8, 8 * 13**2]
    # the same finite part as phi's, in mu_12 rather than mu_4, at every residue
    (_, k0), (_, k_phi) = (oracles.global_unit_exponents(chi.eps) for chi in (chars[0], chi4))
    assert (k0 * chi4.M == k_phi * chars[0].M).all()
    for j, chi in zip((1, 5), chars):
        want = oracles.twist_per_member(phi, ring_class_character(field, 13, (5 * j,)))
        assert chi.descriptor() == want.descriptor() and chi.radicals == want.radicals
        assert oracles.local_matches_global(chi.eps)
        assert chi.eps.is_primitive()


def test_twist_orbit_members_must_be_prime_to_the_order(chi4):
    rho = ring_class_character(chi4.field, 13, (1,))  # order 6
    with pytest.raises(DomainError):
        twist_orbit(chi4, rho, (1, 2))


def test_descent_certifies_primitivity(monkeypatch):
    # a descent that keeps one prime exponent above the conductor yields an
    # imprimitive finite part, which the fully checked build rejects
    phi = _base_character(-4)
    field = phi.field
    descent = oracles.conductor_descent
    kept = []

    def one_too_many(field, m, k, ug_m):
        local = descent(field, m, k, ug_m)
        full = m.factor()
        pr = next(pr for pr in local if local[pr] < full[pr])
        kept.append(pr)
        return {**local, pr: local[pr] + 1}

    # a rho of Pic(O_c) that factors through Pic(O_(c/p)) has a conductor
    # smaller than cO, and so has phi rho: the descent lowers an exponent
    rhos = [ring_class_character(field, c, (t,)) for c, t in ((8, 2), (16, 2), (16, 4), (25, 5))]
    dropped = [
        rho
        for rho in rhos
        if twist(phi, rho).conductor != ideal_lcm(phi.eps.f, Ideal(field, rho.c, 0, rho.c))
    ]
    assert len(dropped) == len(rhos)
    monkeypatch.setattr(oracles, "conductor_descent", one_too_many)
    for rho in dropped:
        with pytest.raises(ImprimitiveFinitePart):
            oracles.twist_per_member(phi, rho)
    assert len(kept) == len(dropped)


def test_conductor_exponents_match_the_descent_oracle():
    # powers chi^t of random finite parts on every prime power P^a of the
    # dict oracle's moduli, their conductors read off the levels against the
    # oracle's descent over the global table, one mask per step
    rng = random.Random(25)
    seen = set()
    for field, f in _oracle_moduli():
        units = local_unit_groups(field, f)
        if len(units.factors) != 1:
            continue
        ((pr, a),) = units.factors
        M = math.lcm(units.exponent, field.wK)
        powers = [t for t in range(1, units.exponent + 1) if units.exponent % t == 0]
        for t in rng.sample(powers, min(2, len(powers))):
            exps = [rng.randrange(n) * (M // n) * t for n in units.orders]
            eps = finite_part(field, f, exps, M=M)
            ug, k = oracles.global_unit_exponents(eps)
            (b,) = eps.conductor_exponents()
            assert oracles.conductor_descent(field, f, k, ug) == {pr: b}, (field.D, f, eps.exps)
            p = factorize(pr.norm)[0][0]
            kind = "inert" if pr.norm == p * p else "ramified" if field.D % p == 0 else "split"
            seen.add((kind, a >= 2, "full" if b == a else "lowered" if b else "trivial"))
    kinds, conductors = ("split", "inert", "ramified"), ("full", "lowered", "trivial")
    assert seen >= {(kind, True, b) for kind in kinds for b in conductors}


def test_lowered_conductor_is_certified_at_the_generators(chi4, monkeypatch):
    # rho_5 of order 2 twists chi4 to conductor (1+i)^3 P5 conj(P5); conductor
    # exponents that drop one P5 claim a modulus the twist does not factor
    # through, and eps_chi, read at (O/m)^x's generators, disagrees with eps_m
    field = chi4.field
    rho = ring_class_character(field, 5, (1,))
    assert twist(chi4, rho).eps.conductor_exponents() == (3, 1, 1)
    exponents = characters.FinitePart.conductor_exponents

    def one_too_low(self):
        *rest, last = exponents(self)
        return (*rest, last - 1)

    monkeypatch.setattr(characters.FinitePart, "conductor_exponents", one_too_low)
    with pytest.raises(NoConsistentLift, match="does not factor through"):
        twist(chi4, rho)


def test_exponent_of_fraction_off_the_conductor_is_a_domain_error(chi4):
    f = chi4.field
    with pytest.raises(DomainError, match="not coprime to the conductor"):
        chi4.eps.exponent_of_fraction(KElt(f, 2, 0))
    with pytest.raises(DomainError, match="not coprime to the conductor"):
        chi4.eps.exponent_of_fraction(KElt(f, 3, 0) / KElt(f, 2, 0))


def test_ideal_lcm():
    f = make_field(-4)
    a = principal_ideal(f, KElt(f, 3, 1)) * principal_ideal(f, KElt(f, 2, 0))
    b = principal_ideal(f, KElt(f, 2, 0)) ** 2
    l = ideal_lcm(a, b)
    assert l.norm == math.lcm(a.norm, b.norm) or l.norm % a.norm == 0


def test_main_lemma_untwisted(chi4):
    # N(f) = 8: 5 is not a prime of the conductor, so it has no entry
    rep = main_lemma_quantities(chi4)
    assert [e for e in rep.entries if e.p == 5] == []
    assert rep.q == 1


def test_main_lemma_twisted(chi4):
    f = chi4.field
    rho = ring_class_character(f, 5, (1,))
    chi = twist(chi4, rho)
    rep = main_lemma_quantities(chi)
    (e,) = [e for e in rep.entries if e.p == 5]
    assert e.m_p == 2  # Nf = 200 = 2^3 * 5^2
    assert e.o_p == 0  # 1 + 5^3 O dies at level 5O
    assert e.n_p == 0 and rep.q == 1
    from fractions import Fraction

    assert abs(Fraction(e.m_p, 2) - e.n_p) <= 3 + rep.mu + rep.h


# Oracles for twist() and main_lemma_quantities: the divisor search,
# generator lifts and coset loops that the masks over the local groups
# replaced, visiting one residue at a time of a global dlog table.


def _member_rho(field, orbit, m):
    """rho^m for the member m of a twist orbit."""
    return ring_class_character(field, orbit.c, tuple(m * t for t in orbit.exponents))


def _oracle_exponent(table, z):
    """eps(z) from a global table (ug, k) of eps at every row, None off the units."""
    ug, k = table
    r = ug.f.reduce_element(z)
    row = ug.box_row[r.y * ug.f.a + r.x]
    return None if row < 0 else int(k[row])


def _oracle_twist_finite_part(phi, rho):
    """(f, M, table) of twist(phi, rho)'s finite part, table = (ug, k) with
    ug = unit_group_mod(f) and k the finite part at its every row: the
    conductor is the gcd of every divisor g of m whose units 1 + t, t in g,
    the combined character kills; each generator mod f lifts by trial to a
    unit mod m."""
    field = phi.field
    m = ideal_lcm(phi.eps.f, Ideal(field, rho.c, 0, rho.c))
    Mc = math.lcm(phi.M, rho.order)
    ug_m = unit_group_mod(field, m)
    gen_exps = [oracles.combined_exponent(phi, rho, Mc, KElt(field, *g)) for g in ug_m.gens]
    eps_m = (ug_m, _unit_exponents(ug_m, gen_exps, Mc))

    divisors = [unit_ideal(field)]
    for pr, e in m.factor().items():
        divisors = [d * pr**j for d in divisors for j in range(e + 1)]
    admissible = [
        g
        for g in divisors
        if not any(
            _oracle_exponent(eps_m, field.one + t) for t in oracles.coset_reps(g, m)
        )
    ]
    f_chi = admissible[0]
    for g in admissible[1:]:
        f_chi = f_chi.add(g)
    assert f_chi in admissible

    ug_f = unit_group_mod(field, f_chi)
    exps = []
    for g in ug_f.gens:
        z = KElt(field, *g)
        ks = (_oracle_exponent(eps_m, z + t) for t in oracles.coset_reps(f_chi, m))
        exps.append(next(k for k in ks if k is not None))
    M = math.lcm(Mc, field.wK, ug_f.exponent)
    return f_chi, M, (ug_f, _unit_exponents(ug_f, [k * (M // Mc) % M for k in exps], M))


def _oracle_main_lemma(char, mu=2):
    """(p, m_p, o_p, n_p) per prime of N(f): the order of eps on the residues
    1 mod p^3 O + f_p, each lifted by trial to 1 mod the rest of f."""
    field, f = char.field, char.eps.f
    one, factors = unit_ideal(field), f.factor()
    table = oracles.global_unit_exponents(char.eps)
    out = []
    for p, m_p in factorize(f.norm):
        f_p = math.prod((pr**e for pr, e in factors.items() if pr.norm % p == 0), start=one)
        f_cop = math.prod((pr**e for pr, e in factors.items() if pr.norm % p), start=one)
        order = 1
        for t in oracles.coset_reps((Ideal(field, p, 0, p) ** 3).add(f_p), f_p):
            z = field.one + t
            lifts = (z + s for s in oracles.coset_reps(f_p, f))
            w = next(y for y in lifts if f_cop.contains(y - field.one))
            k = _oracle_exponent(table, w)
            order = math.lcm(order, char.M // math.gcd(char.M, k))
        o_p = round(math.log(order, p))
        assert order == p**o_p
        out.append((p, m_p, o_p, max(0, o_p - mu - field.h)))
    return out


@pytest.mark.parametrize("D, cs, o_ps", [(-4, (16, 32, 64), {1, 2, 3}), (-23, (16,), {0, 1})])
def test_twist_and_main_lemma_match_residue_oracles(D, cs, o_ps):
    # o_2 = 1, 2, 3 at c = 16, 32, 64 over D = -4, and h = 3 over D = -23;
    # the Main Lemma tests above only see o_p = 0
    field = make_field(D)
    eps = canonical_epsilon(field)
    phi = build_hecke_character(field, eps)
    seen_o = set()
    for orbit in enumerate_twists(field, (2,), max(cs)):
        if orbit.c not in cs:
            continue
        for m in orbit.members:
            rho = _member_rho(field, orbit, m)
            chi = twist(phi, rho)
            f_chi, M, (ug, k) = _oracle_twist_finite_part(phi, rho)
            assert (chi.eps.f, chi.eps.M) == (f_chi, M)
            # eps at every unit residue mod f_chi, through the local parts
            rows = chi.eps.unit_group.rows(ug.xs, ug.ys)
            assert (chi.eps.exponents_at(rows) % M).tobytes() == k.tobytes()
            entries = [(e.p, e.m_p, e.o_p, e.n_p) for e in main_lemma_quantities(chi).entries]
            assert entries == _oracle_main_lemma(chi)
            seen_o.update(e[2] for e in entries)
    assert seen_o == o_ps


def test_descriptor_roundtrip(chi4, chi23):
    # a scan's JSON names its base character by descriptor, which must pin it exactly
    f4 = chi4.field
    rho = ring_class_character(f4, 5, (1,))
    chars = [chi4, chi23, twist(chi4, rho)]
    for chi in chars:
        blob = json.dumps(chi.descriptor(), sort_keys=True)
        rebuilt = oracles.character_from_descriptor(json.loads(blob))
        assert json.dumps(rebuilt.descriptor(), sort_keys=True) == blob
        for I in coprime_ideals(chi.field, chi, 80):
            a = evaluate_char(chi, I)
            b = evaluate_char(rebuilt, I)
            assert oracles.equals_exact(a, b)
            assert a.complex() == b.complex()


def test_char_values_structure(chi47):
    # five lifts on D=-47, all sharing |values| with exact abs squared
    f = chi47.field
    lifts = _root_choices_are_class_group_twists(chi47)
    assert len(lifts) == 5
    for I in coprime_ideals(f, chi47, 50):
        for l in lifts:
            assert oracles.abs_squared(evaluate_char(l, I)) == I.norm
