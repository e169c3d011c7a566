"""Smoothed L-values for type (1,0) characters.

The completed function Lambda(s) = Gamma(s) (Af)^s L(s, chi) with
A = sqrt(|D|)/(2 pi) and f = sqrt(N(conductor)) satisfies
Lambda(s) = W Lambda(2-s).  Unfolding the theta integral termwise gives

    L^(v)(1, chi) = 2 sum_a chi(a) Na^{-1} I_v(Na / (Af))

where I_0(u) = e^{-u} and I_1(u) = E_1(u) is the exponential integral.
Every sum here is truncated at a certified point: the coefficient bound
|a_n| <= d(n) sqrt(n) <= 2n turns the tail into a geometric series.
The coefficients a_n come from a multiplicative sieve over the primes up
to the truncation point, with chi evaluated only at prime ideals.

Those prime values come from a supplied source when the caller has one:
theta_coeffs, central_value and rootnumber.root_number_via_fe take
prime_values, a function from a prime ideal P to chi(P) as a complex
number, and then evaluate chi at no ideal themselves.  A family scan
supplies each twist's values as phi(P) rho^m(P) from one table of phi per
scan.  Without a source, chi is evaluated exactly at each P by
characters.evaluate_char.

All arithmetic is float64; math.fsum keeps the long sums compensated.
The stated tolerances (1e-8 functional equation, 1e-10 realness, 1e-14
kernels) sit comfortably inside that.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .arith import multiplicative_table
from .characters import HeckeCharacter, evaluate_char
from .errors import DomainError, NonPositiveArgument, NumericalInstability, SignMismatch
from .quadfield import FieldContext, Ideal, ideal_count_local, prime_ideals_above

# chi at a prime ideal P, as a complex number
PrimeValues = Callable[[Ideal], complex]

_EULER_GAMMA = 0.5772156649015328606


def kernel_I(v: int, u: float) -> float:
    """I_0(u) = e^{-u}; I_1(u) = E_1(u) = integral_u^inf e^{-t} dt/t.

    E_1 uses the alternating power series below u = 1 and a modified
    Lentz continued fraction above, both to 1e-14 relative.  The bound
    0 < I_1(u) <= e^{-u} is enforced for u >= 1.
    """
    if u <= 0:
        raise NonPositiveArgument(f"kernel argument must be positive, got {u}")
    if v == 0:
        return math.exp(-u)
    if v != 1:
        raise ValueError(f"kernel order must be 0 or 1, got {v}")
    if u < 1.0:
        # E_1(u) = -gamma - log u + sum_{k>=1} (-1)^{k+1} u^k / (k k!)
        acc = -_EULER_GAMMA - math.log(u)
        term = 1.0
        for k in range(1, 80):
            term *= -u / k
            delta = -term / k
            acc += delta
            if abs(delta) < 1e-18 * max(1.0, abs(acc)):
                break
        return acc
    # modified Lentz for E_1(u) = e^{-u} / (u + 1 - 1/(u + 3 - 4/(u + 5 - ...)))
    tiny = 1e-300
    b = u + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        a = -float(i * i)
        b += 2.0
        d = a * d + b
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    out = h * math.exp(-u)
    if not 0.0 < out <= math.exp(-u):
        raise NumericalInstability(f"E_1({u}) = {out} escaped its bracket")
    return out


def incomplete_gamma(s: float, u: float) -> float:
    """Upper incomplete Gamma(s, u) = integral_u^inf e^{-t} t^{s-1} dt, 0 < s < 2.

    scipy.special is imported here, at its only use, so that importing the
    package does not pay for it.
    """
    from scipy.special import gammaincc

    if not 0.0 < s < 2.0:
        raise DomainError(f"s must lie in (0, 2), got {s}")
    if u <= 0:
        raise DomainError(f"u must be positive, got {u}")
    return float(gammaincc(s, u)) * math.gamma(s)


def theta_coeffs(
    chi: HeckeCharacter, X: int, prime_values: PrimeValues | None = None
) -> dict[int, complex]:
    """a_n = sum over ideals of norm n of chi(a), for all n <= X with an ideal.

    The keys are exactly the n <= X that are the norm of some integral
    ideal, in ascending order; a_n is 0 at such n when every ideal of norm
    n meets the conductor.  a_n is multiplicative, so a sieve over the
    primes p <= X builds the table from the local factors a_{p^e}, which
    need chi only at the (at most two) prime ideals above p.  That costs
    O(X log log X) array updates plus at most 2 pi(X) reads of chi(P),
    from prime_values when given and otherwise by exact evaluation, and
    the sieve forms no Ideal products.  Inert p with p^2 > X lie under no
    ideal of norm <= X and are skipped.
    """
    if X < 1:
        raise ValueError("X must be at least 1")
    if prime_values is None:
        prime_values = lambda pr: evaluate_char(chi, pr).complex()
    table = _count_and_coeff_table(chi.field, X, prime_values)
    keys = np.flatnonzero(table[:, 0])
    return dict(zip(keys.tolist(), table[keys, 1].tolist()))


def _count_and_coeff_table(field: FieldContext, X: int, prime_values: PrimeValues) -> np.ndarray:
    """Rows (number of ideals of norm n, a_n) for n = 0..X, from one sieve."""

    def local(p, emax):
        counts = ideal_count_local(field, p, emax)
        return list(zip(counts, _local_coeffs(field, prime_values, p, emax)))

    return multiplicative_table(X, local, complex, 2)


def _local_coeffs(
    field: FieldContext, prime_values: PrimeValues, p: int, emax: int
) -> list[complex]:
    """a_{p^e} for e = 0..emax, from chi at the prime ideals above p."""
    primes = prime_ideals_above(field, p)
    if len(primes) == 2:
        # split: sum over i + j = e of chi(P)^i chi(conj P)^j
        x, y = (prime_values(pr) for pr in primes)
        out, ye = [1 + 0j], 1 + 0j
        for _ in range(emax):
            ye *= y
            out.append(x * out[-1] + ye)
        return out
    if field.kronecker(p) == -1:
        # inert: one ideal (p)^(e/2) of norm p^e for even e, none for odd e
        if emax < 2:
            return [1 + 0j, 0j]
        z = prime_values(primes[0])
        return [z ** (e // 2) if e % 2 == 0 else 0j for e in range(emax + 1)]
    # ramified: P^e is the one ideal of norm p^e
    z = prime_values(primes[0])
    out = [1 + 0j]
    for _ in range(emax):
        out.append(out[-1] * z)
    return out


@dataclass(frozen=True)
class SmoothedValue:
    """A truncated smoothed central value with its certificate."""

    value: float
    T: float
    tail_bound: float
    v: int
    f: float
    Af: float


def _scale(chi: HeckeCharacter) -> tuple[float, float]:
    f = chi.f_value
    return f, chi.field.A * f


def _truncation(Af: float, tol: float) -> float:
    # e^{-T/Af} <= tol / (8 (1+Af)^2) makes the geometric tail < tol/2
    return Af * max(40.0, math.log(8.0 / tol) + 2.0 * math.log(1.0 + Af))


def _require_sign(chi: HeckeCharacter, v: int, w: float | None) -> float:
    if w is None:
        from .rootnumber import root_number

        w = root_number(chi)
    if v not in (0, 1):
        raise ValueError(f"derivative order must be 0 or 1, got {v}")
    if (1 - round(w)) // 2 != v:
        raise SignMismatch(
            f"W = {w:+.0f} forces vanishing order {(1 - round(w)) // 2}, not v = {v}"
        )
    return float(round(w))


def _real_part(sums: list[complex], scale: float, what: str) -> float:
    re = math.fsum(z.real for z in sums)
    im = math.fsum(z.imag for z in sums)
    if abs(im) > 1e-10 * (1.0 + abs(re)) * max(1.0, scale):
        raise NumericalInstability(f"{what} has imaginary residue {im}")
    return re


def central_value(
    chi: HeckeCharacter,
    v: int,
    tol: float = 1e-10,
    w: float | None = None,
    prime_values: PrimeValues | None = None,
) -> SmoothedValue:
    """L(1, chi) for v = 0 or L'(1, chi) for v = 1, truncated with a tail bound.

    The requested v must match the root number: v = (1 - W)/2.  The other
    parity would sum to an uninformative 0.  prime_values, when given,
    supplies chi(P) to theta_coeffs.
    """
    _require_sign(chi, v, w)
    f, Af = _scale(chi)
    T = _truncation(Af, tol)
    coeffs = theta_coeffs(chi, int(T), prime_values)
    terms = [
        2.0 * a / n * kernel_I(v, n / Af) for n, a in sorted(coeffs.items()) if n <= T
    ]
    value = _real_part(terms, 1.0, "central value")
    tail = 4.0 * (Af + 1.0) * math.exp(-T / Af)
    if not tail < tol:
        raise NumericalInstability(f"tail bound {tail} did not clear {tol}")
    return SmoothedValue(value=value, T=T, tail_bound=tail, v=v, f=f, Af=Af)


def lambda_value(chi: HeckeCharacter, s: float, w: float | None = None) -> float:
    """Completed Lambda(s, chi) on 0.2 <= s <= 1.8 by termwise incomplete gammas."""
    if not 0.2 <= s <= 1.8:
        raise DomainError(f"s must lie in [0.2, 1.8], got {s}")
    if w is None:
        from .rootnumber import root_number

        w = root_number(chi)
    _, Af = _scale(chi)
    T = _truncation(Af, 1e-13) + 10.0 * Af
    coeffs = theta_coeffs(chi, int(T))
    terms = []
    for n, a in sorted(coeffs.items()):
        u = n / Af
        g = (Af / n) ** s * incomplete_gamma(s, u)
        gdual = (Af / n) ** (2.0 - s) * incomplete_gamma(2.0 - s, u)
        terms.append(a * (g + w * gdual))
    return _real_part(terms, Af**2, "completed L-value")


def smoothed_kappa_sum(field: FieldContext, x: float) -> float:
    """sum_{n >= 1} kappa(n) n^{-1} e^{-n^2/x}, vectorized; kappa = kronecker(D, .)."""
    if x <= 0:
        raise NonPositiveArgument(f"smoothing parameter must be positive, got {x}")
    N = math.isqrt(int(44.0 * x)) + 2
    period = abs(field.D)
    table = np.array([field.kronecker(r) for r in range(period)], dtype=np.float64)
    n = np.arange(1, N + 1, dtype=np.int64)
    kap = table[n % period]
    nf = n.astype(np.float64)
    return float(np.sum(kap / nf * np.exp(-(nf * nf) / x)))


def dirichlet_L1(field: FieldContext) -> float:
    """L(1, kappa) by the class number formula, cross-checked by the smoothed series.

    Route (i): 2 pi h / (w_K sqrt(|D|)).  Route (ii): the smoothed sum at
    x = 1e8, Richardson-corrected with the value at 2e8.  They must agree
    to 1e-8; the closed form is returned.
    """
    exact = 2.0 * math.pi * field.h / (field.wK * math.sqrt(abs(field.D)))
    x = 1e8
    series = 2.0 * smoothed_kappa_sum(field, 2.0 * x) - smoothed_kappa_sum(field, x)
    if abs(series - exact) > 1e-8 * max(1.0, exact):
        raise NumericalInstability(
            f"L(1, kappa) routes disagree: {exact} vs {series} for D = {field.D}"
        )
    return exact
