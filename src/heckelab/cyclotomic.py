"""Exact cyclotomic arithmetic, Galois traces to abelian subfields, Ramanujan sums.

Elements of Q(zeta_N) are stored on the redundant power basis {zeta_N^i},
canonicalized through the prime-power relations

    zeta_q^(phi(q)+t) = -(zeta_q^t + zeta_q^(p^(k-1)+t) + ... ),  q = p^k,

applied one prime at a time via the CRT tensor decomposition.  Canonical
vectors are unique, so equality of dicts is equality of field elements.
Galois action and conjugation are index permutations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .arith import euler_phi, factorize, kronecker, moebius
from .errors import SubfieldMismatch


@lru_cache(maxsize=None)
def _cyc_data(N: int):
    """Per prime power q = p^k || N: (p, q, phi(q), p^(k-1), N//q * inv(N//q, q))."""
    out = []
    for p, k in factorize(N):
        q = p**k
        cof = N // q
        out.append((p, q, (p - 1) * p ** (k - 1), p ** (k - 1), cof, pow(cof, -1, q)))
    return tuple(out)


def _expand_index(N: int, i: int):
    """Canonical expansion of zeta_N^i as ((index, sign), ...)."""
    if N == 1:
        return ((0, 1),)
    factors = []
    trivial = True
    for p, q, phi_q, pk1, cof, inv in _cyc_data(N):
        e = inv * i % q
        if e < phi_q:
            factors.append(((e * cof % N, 1),))
        else:
            trivial = False
            t = e - phi_q
            factors.append(tuple(((s * pk1 + t) * cof % N, -1) for s in range(p - 1)))
    if trivial:
        return ((i % N, 1),)
    out = []
    for combo in product(*factors):
        idx, sign = 0, 1
        for j, s in combo:
            idx += j
            sign *= s
        out.append((idx % N, sign))
    return tuple(out)


def canonicalize(N: int, coeffs: dict) -> dict:
    out: dict = {}
    for i, c in coeffs.items():
        if not c:
            continue
        for j, s in _expand_index(N, i % N):
            nc = out.get(j, 0) + (c if s > 0 else -c)
            if nc:
                out[j] = nc
            else:
                out.pop(j, None)
    return out


class CyclotomicElement:
    """Element of Q(zeta_N), canonical coefficient dict index -> rational."""

    __slots__ = ("N", "coeffs")

    def __init__(self, N: int, coeffs: dict, _canonical: bool = False):
        self.N = N
        self.coeffs = dict(coeffs) if _canonical else canonicalize(N, coeffs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeta(N: int, k: int = 1) -> "CyclotomicElement":
        return CyclotomicElement(N, {k % N: 1})

    @staticmethod
    def from_rational(r, N: int = 1) -> "CyclotomicElement":
        return CyclotomicElement(N, {0: Fraction(r)})

    # -- structure ---------------------------------------------------------

    def embed(self, M: int) -> "CyclotomicElement":
        if M == self.N:
            return self
        if M % self.N:
            raise ValueError(f"cannot embed conductor {self.N} into {M}")
        step = M // self.N
        return CyclotomicElement(M, {i * step: c for i, c in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return all(i == 0 for i in self.coeffs)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not rational")
        return Fraction(self.coeffs.get(0, 0))

    # -- arithmetic --------------------------------------------------------

    def _pair(self, other):
        if not isinstance(other, CyclotomicElement):
            other = CyclotomicElement.from_rational(other)
        L = math.lcm(self.N, other.N)
        return self.embed(L), other.embed(L)

    def __add__(self, other):
        a, b = self._pair(other)
        out = dict(a.coeffs)
        for i, c in b.coeffs.items():
            nc = out.get(i, 0) + c
            if nc:
                out[i] = nc
            else:
                out.pop(i, None)
        return CyclotomicElement(a.N, out, _canonical=True)

    def __neg__(self):
        return CyclotomicElement(self.N, {i: -c for i, c in self.coeffs.items()}, _canonical=True)

    def __sub__(self, other):
        a, b = self._pair(other)
        return a + (-b)

    def __mul__(self, other):
        a, b = self._pair(other)
        out: dict = {}
        for i, c in a.coeffs.items():
            for j, d in b.coeffs.items():
                k = (i + j) % a.N
                out[k] = out.get(k, 0) + c * d
        return CyclotomicElement(a.N, out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return CyclotomicElement.from_rational(other) - self

    def galois(self, a: int) -> "CyclotomicElement":
        """The automorphism zeta_N -> zeta_N^a, gcd(a, N) = 1."""
        if math.gcd(a, self.N) != 1:
            raise ValueError(f"{a} is not coprime to {self.N}")
        return CyclotomicElement(self.N, {i * a % self.N: c for i, c in self.coeffs.items()})

    def conjugate(self) -> "CyclotomicElement":
        return CyclotomicElement(self.N, {-i % self.N: c for i, c in self.coeffs.items()})

    def complex(self) -> complex:
        return sum(
            (float(c) * cmath.exp(2j * cmath.pi * i / self.N) for i, c in self.coeffs.items()),
            0j,
        )

    def __eq__(self, other):
        if not isinstance(other, CyclotomicElement):
            other = CyclotomicElement.from_rational(other)
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "cyc(0)"
        terms = "+".join(f"{c}*z{self.N}^{i}" for i, c in sorted(self.coeffs.items()))
        return f"cyc({terms})"


# ---------------------------------------------------------------------------
# Abelian subfields and traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbelianSubfield:
    """Fixed field of {sigma_a : a in H} inside Q(zeta_N); H a subgroup of (Z/N)*."""

    N: int
    H: tuple

    def __post_init__(self):
        Hs = {h % self.N for h in self.H}
        if 1 % self.N not in Hs:
            raise SubfieldMismatch("H does not contain 1")
        for h in Hs:
            if math.gcd(h, self.N) != 1:
                raise SubfieldMismatch(f"{h} is not a unit mod {self.N}")
            for g in Hs:
                if (h * g) % self.N not in Hs:
                    raise SubfieldMismatch("H is not closed under multiplication")
        object.__setattr__(self, "H", tuple(sorted(Hs)))

    @property
    def degree(self) -> int:
        """[F : Q]."""
        return euler_phi(self.N) // len(self.H)

    def galois_group_in(self, L: int) -> list[int]:
        """Residues a mod L with sigma_a fixing F, for N | L: Gal(Q(zeta_L)/F)."""
        if L % self.N:
            raise SubfieldMismatch(f"{self.N} does not divide ambient conductor {L}")
        Hs = set(self.H)
        return [a for a in range(1, L + 1) if math.gcd(a, L) == 1 and a % self.N in Hs]


def rationals() -> AbelianSubfield:
    return AbelianSubfield(1, (0,))


def gaussian_field() -> AbelianSubfield:
    """Q(i) as the fixed field of {1} inside Q(zeta_4)."""
    return AbelianSubfield(4, (1,))


def quadratic_subfield(D: int) -> AbelianSubfield:
    """The quadratic field of discriminant D inside Q(zeta_|D|), via ker of (D|.)."""
    N = abs(D)
    H = tuple(a for a in range(1, N + 1) if kronecker(D, a) == 1)
    return AbelianSubfield(N, H)


def trace_to_subfield(x: CyclotomicElement, F: AbelianSubfield) -> CyclotomicElement:
    """Tr from Q(zeta_L) down to F, L = lcm(conductor of x, conductor of F).

    Computed as the sum of sigma_a(x) over Gal(Q(zeta_L)/F).  The trace from
    F(x) to F is this divided by [Q(zeta_L) : F(x)], so exact vanishing is
    equivalent between the two.
    """
    L = math.lcm(x.N, F.N)
    xL = x.embed(L)
    out: dict = {}
    for a in F.galois_group_in(L):
        for i, c in xL.coeffs.items():
            j = i * a % L
            out[j] = out.get(j, 0) + c
    return CyclotomicElement(L, out)


def degree_over(L: int, F: AbelianSubfield) -> int:
    """[Q(zeta_L) : F] for F contained in Q(zeta_L)."""
    if L % F.N:
        raise SubfieldMismatch(f"{F.N} does not divide {L}")
    return euler_phi(L) // F.degree


# ---------------------------------------------------------------------------
# Ramanujan sums and the trace-vanishing search
# ---------------------------------------------------------------------------


def ramanujan_trace(n: int, k: int) -> int:
    """c_n(k) = sum of zeta_n^(k m) over units m, via the closed form."""
    if n == 1:
        return 1
    g = math.gcd(k % n, n)
    m = n // g
    mu = moebius(m)
    if mu == 0:
        return 0
    return mu * euler_phi(n) // euler_phi(m)


def ramanujan_trace_direct(n: int, k: int) -> int:
    """c_n(k) summed exactly in the cyclotomic field; independent of the formula."""
    out: dict = {}
    for m in range(1, n + 1):
        if math.gcd(m, n) == 1:
            j = k * m % n
            out[j] = out.get(j, 0) + 1
    elt = CyclotomicElement(n, out)
    return int(elt.rational_value())


def _order_trace_vanishes(F: AbelianSubfield, N: int) -> bool:
    """Exact check: Tr_{F(xi)/F}(xi) = 0 for every root of unity xi of order N."""
    L = math.lcm(N, F.N)
    step = L // N
    H_L = F.galois_group_in(L)
    # the trace of zeta_L^(step a) depends only on the coset a*Hbar mod N
    Hbar = {h % N for h in H_L}
    visited: set = set()
    for a in range(1, N + 1):
        if math.gcd(a, N) != 1 or a in visited:
            continue
        visited.update(a * h % N for h in Hbar)
        out: dict = {}
        for h in H_L:
            j = step * a * h % L
            out[j] = out.get(j, 0) + 1
        if CyclotomicElement(L, out).coeffs:
            return False
    return True


def lemma1_mu_search(F: AbelianSubfield, p: int, N_max: int) -> int:
    """Smallest mu with no counterexample in range: p^mu | N <= N_max forces
    Tr_{F(xi)/F}(xi) = 0 for xi of order N, checked exactly."""
    worst = 0
    for N in range(p, N_max + 1, p):
        if not _order_trace_vanishes(F, N):
            v = 0
            M = N
            while M % p == 0:
                v += 1
                M //= p
            worst = max(worst, v)
    return worst + 1
