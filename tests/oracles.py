"""Reference routes the tests compare the package against.

* A multiplicative prime sieve for theta coefficients: a_n built from the
  local factors a_{p^e}, which need chi only at the (at most two) prime
  ideals above p.  The package sums Hecke's theta series over lattice
  points instead; this sieve is the independent route that tests feed with
  exact evaluate_char values or with phi(P) rho^m(P).
* The completed L-function Lambda(s, chi) by termwise incomplete gammas,
  the functional-equation reference for the central values.  It needs
  scipy.special, which the package itself never imports.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from heckelab.arith import primes_up_to
from heckelab.characters import HeckeCharacter
from heckelab.errors import DomainError
from heckelab.lseries import _real_part, _scale, _truncation, theta_coeffs
from heckelab.quadfield import FieldContext, Ideal, prime_ideals_above

# chi at a prime ideal P, as a complex number
PrimeValues = Callable[[Ideal], complex]


def multiplicative_table(bound: int, local, dtype, columns: int) -> np.ndarray:
    """Rows f(0), f(1), ..., f(bound) of multiplicative functions, one per column.

    Row f(n) holds `columns` values, each column a multiplicative function
    of its own, and f(0) is the zero row.  local(p, emax) lists the rows
    f(1), f(p), ..., f(p^emax) for the largest emax with p^emax <= bound;
    it is called once per prime p <= bound.  Each prime scales the rows of
    its multiples in place, so the sieve costs O(bound log log bound)
    array updates, and every column gets the products the one-column sieve
    would form, in the same order.
    """
    out = np.ones((bound + 1, columns), dtype=dtype)
    out[0] = 0
    for p in primes_up_to(bound):
        emax, q = 1, p
        while q * p <= bound:
            emax, q = emax + 1, q * p
        values = local(p, emax)
        if emax == 1:
            out[p::p] *= values[1]
            continue
        # factor for k*p is f(p^e) with e = v_p(k*p): the multiples of p^e
        # sit at indices p^(e-1) - 1, stepping by p^(e-1)
        factors = np.full((bound // p, columns), values[1], dtype=dtype)
        step = p
        for e in range(2, emax + 1):
            factors[step - 1 :: step] = values[e]
            step *= p
        out[p::p] *= factors
    return out


def ideal_count_local(field: FieldContext, p: int, emax: int) -> list[int]:
    """Number of ideals of norm p^e for e = 0..emax."""
    k = field.kronecker(p)
    if k == 1:
        return [e + 1 for e in range(emax + 1)]
    if k == 0:
        return [1] * (emax + 1)
    return [1 - e % 2 for e in range(emax + 1)]


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


def count_and_coeff_table(field: FieldContext, X: int, prime_values: PrimeValues) -> np.ndarray:
    """Rows (number of ideals of norm n, a_n) for n = 0..X, from one sieve."""

    def local(p, emax):
        counts = ideal_count_local(field, p, emax)
        return list(zip(counts, _local_coeffs(field, prime_values, p, emax)))

    return multiplicative_table(X, local, complex, 2)


def sieve_theta_coeffs(
    field: FieldContext, X: int, prime_values: PrimeValues
) -> dict[int, complex]:
    """theta_coeffs' table by the sieve: a_n at every n <= X that is an ideal norm."""
    table = count_and_coeff_table(field, X, prime_values)
    keys = np.flatnonzero(table[:, 0])
    return dict(zip(keys.tolist(), table[keys, 1].tolist()))


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


def lambda_value(chi: HeckeCharacter, s: float, w: float | None = None) -> float:
    """Completed Lambda(s, chi) on 0.2 <= s <= 1.8 by termwise incomplete gammas."""
    if not 0.2 <= s <= 1.8:
        raise DomainError(f"s must lie in [0.2, 1.8], got {s}")
    if w is None:
        from heckelab.rootnumber import root_number

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
