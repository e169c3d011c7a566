import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab import lseries
from heckelab.arith import factorize
from heckelab.characters import (
    build_hecke_character,
    canonical_epsilon,
    evaluate_char,
    gaussian_epsilon,
    ideal_lcm,
    ring_class_character,
    twist,
)
from heckelab.errors import (
    DomainError,
    NoConsistentLift,
    NonPositiveArgument,
    NumericalInstability,
    PhaseOverflow,
    SignMismatch,
    UnitCountMismatch,
)
from heckelab.lseries import (
    central_value,
    dirichlet_L1,
    kernel_I,
    smoothed_kappa_sum,
    theta_coeffs,
    theta_lattice,
)
from heckelab.quadfield import (
    KElt,
    class_group,
    enumerate_ideals,
    is_fundamental,
    make_field,
    principal_ideal,
)
from heckelab.rootnumber import fe_bound, root_number_via_fe
from oracles import abs_squared, finite_part, incomplete_gamma, lambda_value, table_dict
from oracles import kernel_I as scalar_kernel_I


@pytest.fixture(scope="module")
def chi4():
    f = make_field(-4)
    return build_hecke_character(f, gaussian_epsilon(f))


@pytest.fixture(scope="module")
def chi23():
    f = make_field(-23)
    return build_hecke_character(f, canonical_epsilon(f))


def empirical_sign(chi):
    # theta-quotient probe: theta(1/t) / (t^2 theta(t)) tends to W
    Af = chi.field.A * chi.f_value
    X = int(60 * Af) + 60
    coeffs = table_dict(theta_coeffs(chi, X, theta_lattice(chi, X)))

    def theta(t):
        return sum(a * math.exp(-n * t / Af) for n, a in coeffs.items())

    t = 1.3
    w = theta(1.0 / t) / (t * t * theta(t))
    assert abs(abs(w.real) - 1) < 1e-6 and abs(w.imag) < 1e-6
    return round(w.real)


def test_kernel_basics():
    assert kernel_I(0, 1e-12) == pytest.approx(1.0)
    assert kernel_I(0, 2.5) == math.exp(-2.5)
    assert kernel_I(1, 1.0) == pytest.approx(0.2193839344, abs=1e-9)
    with pytest.raises(NonPositiveArgument):
        kernel_I(0, 0.0)
    with pytest.raises(NonPositiveArgument):
        kernel_I(1, -2.0)
    with pytest.raises(ValueError):
        kernel_I(2, 1.0)


def test_kernel_matches_exponential_integral():
    for u in (0.01, 0.1, 0.37, 0.9, 0.999, 1.0, 1.001, 2.0, 5.0, 17.3, 50.0):
        ref = float(mpmath.e1(u))
        assert abs(kernel_I(1, u) - ref) <= 1e-14 * max(abs(ref), 1e-300), u


def test_kernel_bounds():
    for u in (1.0, 1.5, 3.0, 10.0, 40.0):
        val = kernel_I(1, u)
        assert 0 < val <= math.exp(-u)
    # e^{-u} log(1/u) + C0 bound with C0 from quadrature
    c0 = float(mpmath.quad(lambda t: mpmath.e**-t * abs(mpmath.log(t)), [0, 1, mpmath.inf])) + 1
    for u in (0.01, 0.1, 0.5, 0.9, 2.0, 7.0):
        assert kernel_I(1, u) <= math.exp(-u) * abs(math.log(u)) + c0


# both sides of the series/continued-fraction split at u = 1.5, densely, and
# of the scalar oracle's split at u = 1
KERNEL_GRID = np.unique(
    np.concatenate(
        [np.geomspace(1e-9, 700.0, 1200), np.linspace(0.9, 1.1, 81), np.linspace(1.4, 1.6, 81)]
    )
)


def test_kernel_matches_mpmath_on_a_dense_grid():
    ref = np.array([float(mpmath.e1(u)) for u in KERNEL_GRID.tolist()])
    assert (abs(kernel_I(1, KERNEL_GRID) - ref) <= 1e-14 * ref).all()


def test_kernel_matches_the_scalar_oracle():
    # numpy's exp and math.exp may differ in the last bit
    for v, tol in ((0, 2.0**-52), (1, 2e-14)):
        ref = np.array([scalar_kernel_I(v, u) for u in KERNEL_GRID.tolist()])
        assert (abs(kernel_I(v, KERNEL_GRID) - ref) <= tol * ref).all(), v


def test_kernel_checks_the_whole_array(monkeypatch):
    with pytest.raises(NonPositiveArgument, match="got 0.0"):
        kernel_I(1, np.array([2.0, 0.5, 0.0, 3.0]))
    # a wrong constant term breaks the bracket 0 < E_1(u) <= e^{-u} (u >= 1) on the series side
    monkeypatch.setattr(lseries, "_EULER_GAMMA", lseries._EULER_GAMMA - 1.0)
    with pytest.raises(NumericalInstability, match=r"E_1\(1.2\)"):
        kernel_I(1, np.array([0.5, 1.2, 3.0]))
    monkeypatch.setattr(lseries, "_EULER_GAMMA", lseries._EULER_GAMMA + 30.0)
    with pytest.raises(NumericalInstability, match=r"E_1\(0.5\)"):
        kernel_I(1, np.array([0.5, 1.2, 3.0]))


def test_incomplete_gamma_oracle():
    assert incomplete_gamma(1.0, 0.7) == pytest.approx(math.exp(-0.7), rel=1e-14)
    assert incomplete_gamma(0.5, 1e-14) == pytest.approx(math.sqrt(math.pi), rel=1e-6)
    for s in (0.3, 0.9, 1.4, 1.9):
        for u in (0.05, 0.6, 1.0, 3.7, 12.0):
            ref = float(mpmath.gammainc(s, u))
            assert abs(incomplete_gamma(s, u) - ref) <= 1e-12 * max(abs(ref), 1e-280)


def test_incomplete_gamma_recurrence():
    # Gamma(s+1, u) = s Gamma(s, u) + u^s e^{-u}
    for s in (0.3, 0.55, 0.9):
        for u in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 40.0):
            lhs = incomplete_gamma(s + 1.0, u)
            rhs = s * incomplete_gamma(s, u) + u**s * math.exp(-u)
            assert abs(lhs - rhs) <= 1e-12 * max(1e-300, abs(lhs))


def test_incomplete_gamma_domain():
    with pytest.raises(DomainError):
        incomplete_gamma(2.0, 1.0)
    with pytest.raises(DomainError):
        incomplete_gamma(-0.5, 1.0)
    with pytest.raises(DomainError):
        incomplete_gamma(1.0, 0.0)


def test_theta_coeffs_examples(chi4):
    coeffs = table_dict(theta_coeffs(chi4, 100, theta_lattice(chi4, 100)))
    assert coeffs[1] == 1
    assert coeffs[2] == 0  # (1+i) divides the conductor
    assert 3 not in coeffs  # 3 inert: no ideal of norm 3
    assert abs(coeffs[5].imag) < 1e-12  # conjugate pair sums are real
    assert abs(coeffs[25].imag) < 1e-12


def test_theta_coeffs_bound(chi4, chi23):
    for chi in (chi4, chi23):
        coeffs = table_dict(theta_coeffs(chi, 400, theta_lattice(chi, 400)))
        for n, a in coeffs.items():
            d = math.prod(e + 1 for _, e in factorize(n))  # the number of divisors of n
            assert abs(a) <= d * math.sqrt(n) + 1e-9


def test_theta_coeffs_match_ideal_enumeration(chi4, chi23):
    # the lattice sum against a brute-force sum of chi over every ideal of norm <= X
    f47 = make_field(-47)
    chars = [
        chi4,
        chi23,
        build_hecke_character(f47, canonical_epsilon(f47)),
        twist(chi4, ring_class_character(chi4.field, 13, (1,))),
        twist(chi4, ring_class_character(chi4.field, 25, (1,))),  # order 10
        twist(chi23, ring_class_character(chi23.field, 6, (1,))),
    ]
    X = 600
    for chi in chars:
        brute: dict[int, complex] = {}
        for ideal in enumerate_ideals(chi.field, X):
            brute[ideal.norm] = brute.get(ideal.norm, 0j) + evaluate_char(chi, ideal).complex()
        coeffs = table_dict(theta_coeffs(chi, X, theta_lattice(chi, X)))
        assert coeffs.keys() == brute.keys(), chi.descriptor()
        for n, a in brute.items():
            assert abs(coeffs[n] - a) <= 1e-12, (chi.descriptor(), n)


def test_theta_coeffs_reads_eps_at_the_class_norms():
    # theta_coeffs weights each lattice class by 1/chi(J).  With Property 1,
    # eps(N J) = kappa(N J) = 1 at every class ideal J, so only a character
    # without it checks the chi(J) weights where eps(N J) != 1: here eps of
    # order 22 on (sqrt(-23)), where eps(2) != 1 and N(J) is 1, 2 and 2
    field = make_field(-23)
    eps = finite_part(field, principal_ideal(field, field.sqrt_D), (1,), M=22)
    chi = build_hecke_character(field, eps)
    assert eps.exponent_of(KElt(field, 2, 0)) != 0
    lattice = theta_lattice(chi, 300)
    assert sorted(J.norm for J, *_ in lattice.classes) == [1, 2, 2]
    brute: dict[int, complex] = {}
    for ideal in enumerate_ideals(field, 300):
        brute[ideal.norm] = brute.get(ideal.norm, 0j) + evaluate_char(chi, ideal).complex()
    coeffs = table_dict(theta_coeffs(chi, 300, lattice))
    assert coeffs.keys() == brute.keys()
    for n, a in brute.items():
        assert abs(coeffs[n] - a) <= 1e-12, n


RANDOM_FIELDS = [D for D in range(-3, -200, -1) if is_fundamental(D)]
PRIME_POWERS = [q for q in range(2, 14) if len(factorize(q)) == 1]


def _divisor_count(n):
    return math.prod(e + 1 for _, e in factorize(n))


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_random_field_twist_tables(data):
    D = data.draw(st.sampled_from(RANDOM_FIELDS), label="D")
    field = make_field(D)
    phi = build_hecke_character(field, canonical_epsilon(field))
    c = data.draw(st.sampled_from(PRIME_POWERS), label="c")
    exps = tuple(data.draw(st.integers(0, h - 1)) for h in class_group(c * c * D).orders)
    chi = twist(phi, ring_class_character(field, c, exps))
    # f(chi) divides lcm(f(phi), cO)
    modulus = ideal_lcm(phi.conductor, principal_ideal(field, KElt(field, c, 0)))
    # the HNF basis a, b + c omega of the modulus lies in f(chi)
    basis = (KElt(field, modulus.a, 0), KElt(field, modulus.b, modulus.c))
    assert all(chi.conductor.contains(z) for z in basis)
    X = 300
    table = table_dict(theta_coeffs(chi, X, theta_lattice(chi, X)))
    # the keys are the ideal norms: sum over d | n of kappa(d) counts the ideals of norm n
    counts = [sum(field.kronecker(d) for d in range(1, n + 1) if n % d == 0) for n in range(X + 1)]
    assert list(table) == [n for n in range(1, X + 1) if counts[n] > 0]
    a = data.draw(st.integers(1, X), label="m")
    b = data.draw(st.integers(1, X // a), label="n")
    for n in (a, b, a * b):
        assert abs(table.get(n, 0j)) <= _divisor_count(n) * math.sqrt(n) * (1 + 1e-12)
    if math.gcd(a, b) == 1:
        want = table.get(a, 0j) * table.get(b, 0j)
        assert abs(table.get(a * b, 0j) - want) <= 1e-9 * max(1.0, abs(want))
    coprime = [I for I in enumerate_ideals(field, X) if I.is_coprime(chi.conductor)]
    ideal = data.draw(st.sampled_from(coprime), label="ideal")
    assert abs_squared(evaluate_char(chi, ideal)) == ideal.norm


def test_central_value_self_consistency(chi4):
    w = empirical_sign(chi4)
    assert w == 1
    sv = central_value(chi4, 0, tol=1e-10, w=w)
    assert sv.tail_bound < 1e-10
    assert sv.value > 0
    # independent route: direct ideal enumeration at doubled truncation
    Af = sv.Af
    ref = 0.0
    for ideal in enumerate_ideals(chi4.field, int(2 * sv.T) + 1):
        val = evaluate_char(chi4, ideal).complex()
        ref += 2.0 * (val / ideal.norm * kernel_I(0, ideal.norm / Af)).real
    assert abs(sv.value - ref) <= 1e-10 * max(1.0, abs(ref)) + sv.tail_bound


def test_central_value_truncation_doubling(chi23):
    w = empirical_sign(chi23)
    v = (1 - w) // 2
    a = central_value(chi23, v, tol=1e-8, w=w)
    b = central_value(chi23, v, tol=1e-12, w=w)
    assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound


def test_theta_table_is_a_prefix_of_any_larger_table(chi4, chi23):
    # the lattice sum lists elements in the same order at every bound, so the
    # a_n for n <= T accumulate in the same order, bit for bit
    chars = [
        chi4,
        chi23,
        twist(chi4, ring_class_character(chi4.field, 25, (1,))),
        twist(chi23, ring_class_character(chi23.field, 6, (1,))),
    ]
    for chi in chars:
        for T in (37, 250):
            small = theta_coeffs(chi, T, theta_lattice(chi, T))
            for X in (T + 1, 3 * T, T + fe_bound(chi)):
                n, a = theta_coeffs(chi, X, theta_lattice(chi, X)).upto(T)
                assert n.tobytes() == small.n.tobytes(), (chi.descriptor(), T, X)
                assert a.tobytes() == small.a.tobytes(), (chi.descriptor(), T, X)


def test_shared_table_gives_the_same_values_and_must_reach_its_bound(chi23):
    chi = twist(chi23, ring_class_character(chi23.field, 6, (1,)))
    w = empirical_sign(chi)
    v = (1 - w) // 2
    T = lseries.truncation(chi.field.A * chi.f_value, 1e-8)
    X = max(fe_bound(chi), int(T))
    table = theta_coeffs(chi, X, theta_lattice(chi, X))
    assert central_value(chi, v, tol=1e-8, w=w, table=table) == central_value(chi, v, tol=1e-8, w=w)
    X = fe_bound(chi)
    alone = theta_coeffs(chi, X, theta_lattice(chi, X))
    assert root_number_via_fe(chi, table) == root_number_via_fe(chi, alone)
    X = min(fe_bound(chi), int(T)) - 1
    short = theta_coeffs(chi, X, theta_lattice(chi, X))
    with pytest.raises(ValueError, match="theta table reaches"):
        central_value(chi, v, tol=1e-8, w=w, table=short)
    with pytest.raises(ValueError, match="theta table reaches"):
        root_number_via_fe(chi, short)


def test_central_value_sign_gate(chi4):
    with pytest.raises(SignMismatch):
        central_value(chi4, 1, tol=1e-10, w=+1)
    with pytest.raises(SignMismatch):
        central_value(chi4, 0, tol=1e-10, w=-1)


def test_lambda_functional_equation(chi4, chi23):
    for chi in (chi4, chi23):
        w = empirical_sign(chi)
        for s in (1.3, 1.6, 1.4):
            lhs = lambda_value(chi, s, w=w)
            rhs = w * lambda_value(chi, 2.0 - s, w=w)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs)), (chi.field.D, s)


def test_lambda_domain(chi4):
    with pytest.raises(DomainError):
        lambda_value(chi4, 0.1, w=1)
    with pytest.raises(DomainError):
        lambda_value(chi4, 1.9, w=1)


def test_lambda_vanishes_for_odd_sign(chi4):
    # with w = -1 the two gamma terms cancel pairwise at s = 1
    assert lambda_value(chi4, 1.0, w=-1) == pytest.approx(0.0, abs=1e-13)


def test_lambda_matches_central(chi4):
    sv = central_value(chi4, 0, tol=1e-12, w=1)
    lam = lambda_value(chi4, 1.0, w=1)
    assert abs(lam / sv.Af - sv.value) <= 1e-8 * max(1.0, abs(lam / sv.Af))


def test_dirichlet_reference_values():
    assert dirichlet_L1(make_field(-4)) == pytest.approx(math.pi / 4, rel=1e-12)
    assert dirichlet_L1(make_field(-23)) == pytest.approx(3 * math.pi / math.sqrt(23), rel=1e-12)
    assert dirichlet_L1(make_field(-3)) == pytest.approx(2 * math.pi / (6 * math.sqrt(3)), rel=1e-12)


def test_smoothed_kappa_sum_converges():
    field = make_field(-4)
    target = math.pi / 4
    errs = [abs(smoothed_kappa_sum(field, x) - target) for x in (1e4, 1e6, 1e8)]
    assert errs[0] < 1e-3 and errs[2] < 1e-8
    assert errs[2] <= errs[0]


def test_dirichlet_series_route_at_four_D_squared():
    # kappa is odd and primitive mod |D|: at x = 4 D^2 the smoothed sum is L(1, kappa)
    # up to O(exp(-4 pi^2)), far below rounding; D = -2011 is the worst of (-2500, -3]
    for D in (-3, -4, -8, -23, -47, -163, -1019, -2011):
        field = make_field(D)
        exact = 2 * math.pi * field.h / (field.wK * math.sqrt(-D))
        assert abs(smoothed_kappa_sum(field, 4.0 * D * D) - exact) <= 1e-12 * exact, D


def test_twisted_central_value(chi4):
    rho = ring_class_character(chi4.field, 5, (1,))
    chi = twist(chi4, rho)
    w = empirical_sign(chi)
    v = (1 - w) // 2
    sv = central_value(chi, v, tol=1e-8, w=w)
    assert sv.tail_bound < 1e-8
    for s in (1.3, 1.6):
        lhs = lambda_value(chi, s, w=w)
        rhs = w * lambda_value(chi, 2.0 - s, w=w)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


def test_package_import_leaves_scipy_special_unloaded():
    # the package never imports scipy.special; only the test-side lambda_value oracle needs it
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, heckelab.cli, heckelab.family; print('scipy.special' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "False"


def test_theta_coeffs_certificates(chi4, chi23, monkeypatch):
    # int64 norms are refused before any array is formed
    with pytest.raises(PhaseOverflow):
        theta_lattice(chi4, 10**18)
    elements = lseries.ideal_elements
    # chi23 has h = 3: J is O for the principal class and of norm 2 or 4 for
    # the others, where the units +-1 do not belong
    units = (np.array([1, -1]), np.array([0, 0]))
    monkeypatch.setattr(lseries, "ideal_elements", lambda J, bound: units)
    with pytest.raises(NoConsistentLift):
        theta_coeffs(chi23, 50, theta_lattice(chi23, 50))
    # one generator short at one norm: its ideal would be counted 1 - 1/w_K times
    short = lambda J, bound: tuple(a[1:] for a in elements(J, bound))
    monkeypatch.setattr(lseries, "ideal_elements", short)
    with pytest.raises(UnitCountMismatch):
        theta_coeffs(chi4, 50, theta_lattice(chi4, 50))
