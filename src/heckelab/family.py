"""Twist families: orbit enumeration, averaged L-values, counting, reports.

A family over a base character phi is indexed by ring class characters rho
with conductor supported in a fixed prime set P.  Twists are grouped into
Galois orbits {rho^m : m in (Z/n)^*}; the orbit average of chi = phi rho at
an ideal is exactly computable through Ramanujan sums:

    mean over m of (phi rho^m)(a) = phi(a) c_n(k) / eulerphi(n),
    where rho(a) = zeta_n^k.

This twist-orbit average is a deliberate stand-in for the full embedding
average over K(chi)/K: it avoids radical-degree computations, is exact,
and averages over the subgroup of embeddings fixing phi's values.

Each orbit carries the ring class character rho that enumerate_twists
built to read its order, and characters.twist_orbit builds its members
together.  Every coefficient table is lseries.theta_coeffs of a member,
to the larger of its truncation T and the check's bound
f^max(T_EXPONENTS), the first member's also to its FE bound; the theta
quotient, the central values and the orbit-mean check read prefixes of
these tables.  What depends only on c or on a member's conductor is
built once in a scan and shared through its _ScanWalk.  The exact side
of a record is one array, the orbit average c_n(k)/eulerphi(n) at each
ideal a to the record's bound, where rho(a) = zeta_n^k is read by
rho.value_exponents from a's class in Pic(O_c), with the pairing and
certificate of every other read of rho.  It gives the record's counts
and the exact side of its orbit-mean check.  The checks keep their
independence: the theta-quotient root number sums the first member's
table against the Gauss sum of its finite part, and the orbit-mean
check compares the members' tables, added into one dense array over n,
with phi(a) times the exact averages summed over the ideals of each
norm n.  Both sides read evaluate_char: the tables for each member at
the h class ideals of its lattice, the exact side for phi at every
ideal of norm prime to c N(f(phi)) that a record reaches.

A scan checks, in this order:

* once, before the first record: the inputs, a finite tol > 0, c_max >= 1
  and every p in P prime, else DomainError; then Property 1,
  phi|_Q = kappa_K, exactly over one period (characters.check_property1);
  a base character that breaks the theorem's hypothesis raises
  RestrictionMismatch;
* once per conductor c and prime p | c, while the twists are enumerated:
  each of the p elements 1 + (c/p)(x + omega) prime to c is trivial in
  Pic(O_{c/p}) (read when h(O_{c/p}) > 1), and exactly h(O_{c/p})
  characters of Pic(O_c) are trivial on all of them, else
  GroupStructureMismatch (_exact_conductor);

and per record, which keeps the first failure as its error:

* the twists are built once per orbit, each member as a finite part on
  m = lcm(f(phi), cO), which is a modulus by construction; every finite
  part must be unit consistent.  The conductor exponents, read off the
  levels of m's local groups, make f(chi) the least modulus, and a
  lowered f(chi) must agree with the member at every generator of
  (O/m)^x, which shows it is a modulus too (characters.twist_orbit);
* rho takes n-th roots of unity at the ideals to f^max(T_EXPONENTS) prime
  to c f(phi), else NoConsistentLift (RingClassCharacter.value_exponents);
  they are counted at every t = f^alpha;
* the Main Lemma bound |m_p/2 - n_p| <= 3 + mu + h, with the local orders
  on 1 + p^3 O powers of p;
* the Gauss-sum root number of every member is a clean sign, one sign
  across the orbit;
* every coefficient table passes the lattice certificates of
  theta_coeffs: N(J) divides the norm of every element summed, w_K
  divides the number of generators of each norm, and no int64
  intermediate can overflow;
* the first member's sign matches the theta-quotient route to 1e-6;
* every central value is real and its tail bound clears tol;
* at each n <= f^max(T_EXPONENTS) coprime to c N(f(phi)), the mean of a_n
  over the orbit equals the sum of the exact averages over the ideals of
  norm n;
* every member's central value gets a verdict, and the verdicts agree
  across the orbit, else SignMismatch.

Scan reports are deterministic: records are ordered by (c, exponents),
floats are serialized as repr decimal strings, and no timestamps appear.
The fields of FamilyRecord are the record: record_to_dict writes each of
them, and the CSV row and the log line are projections of that dict.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .arith import euler_phi, exponent_pairing, factorize, is_prime, ramanujan_trace
from .characters import (
    HeckeCharacter,
    MainLemmaReport,
    RingClassCharacter,
    check_property1,
    evaluate_char,
    main_lemma_quantities,
    ring_class_character,
    ring_class_weights,
    twist_orbit,
)
from .errors import (
    DomainError,
    GroupStructureMismatch,
    HeckeLabError,
    NumericalInstability,
    SignMismatch,
)
from .lseries import (
    SmoothedValue,
    ThetaLattice,
    ThetaTable,
    central_value,
    dirichlet_L1,
    theta_coeffs,
    theta_lattice,
    truncation,
)
from .quadfield import (
    FieldContext,
    Ideal,
    KElt,
    class_group,
    enumerate_ideals,
    principal_ideal,
    ring_class_dlog,
)
from .rootnumber import GaussData, fe_bound, gauss_data, root_number, root_number_via_fe

# exponents alpha of the counting thresholds t = f^alpha in every scan record
T_EXPONENTS = (0.9, 1.1)


# ---------------------------------------------------------------------------
# Twist enumeration
# ---------------------------------------------------------------------------


def _supported_conductors(P: tuple[int, ...], c_max: int) -> list[int]:
    out = [1]
    for p in sorted(set(P)):
        out = [c * p**e for c in out for e in range(40) if c * p**e <= c_max]
    return sorted(set(out))


def _exact_conductor(field: FieldContext, c: int, vectors: list[tuple[int, ...]]) -> np.ndarray:
    """Mask over exponent vectors of Pic(O_c): True where the character has conductor exactly c.

    A character has a smaller conductor when it factors through some
    Pic(O_{c/p}), i.e. is trivial on ker(Pic(O_c) -> Pic(O_{c/p})).  That
    kernel is the classes of alpha O with alpha in 1 + (c/p)O prime to c,
    rational integers being trivial (Cox, Primes of the Form x^2 + ny^2,
    Prop. 7.22).  If p^2 | c it is cyclic, generated by the class of
    1 + (c/p)omega; if p || c it is a quotient of (O/pO)^x / (Z/p)^x, whose
    nontrivial classes have representatives a + omega.  So the
    alpha_x = 1 + (c/p)(x + omega), 0 <= x < p, prime to c, reach every
    kernel class.  Raises GroupStructureMismatch unless every alpha_x is
    trivial in Pic(O_{c/p}), which is read only when h(O_{c/p}) > 1, and
    exactly h(O_{c/p}) characters are trivial on all of them, each kernel
    class paired with every vector's ring_class_weights.
    """
    weights, N = ring_class_weights(field, c, vectors)
    exact = np.ones(len(vectors), dtype=bool)
    for p, _ in factorize(c):
        sub = c // p
        want = class_group(sub * sub * field.D).h
        dlogs = []
        for x in range(p):
            alpha = KElt(field, 1 + sub * x, sub)
            if math.gcd(alpha.norm(), c) != 1:
                continue
            ideal = principal_ideal(field, alpha)
            # every class of a trivial Pic(O_sub) is trivial: no read to make
            if want > 1 and any(ring_class_dlog(field, sub, ideal)):
                raise GroupStructureMismatch(f"{alpha!r} is nontrivial in Pic(O_{sub})")
            dlogs.append(ring_class_dlog(field, c, ideal))
        # entries of dlogs and weights are below N: each sum is below rank N^2
        dlogs = np.array(dlogs, dtype=np.int64).reshape(len(dlogs), weights.shape[1])
        trivial = ~exponent_pairing(dlogs, weights, N).any(axis=0)
        found = int(trivial.sum())
        if found != want:
            raise GroupStructureMismatch(
                f"{found} characters of Pic(O_{c}) are trivial on its kernel to"
                f" Pic(O_{sub}), not h(O_{sub}) = {want}, D={field.D}"
            )
        exact &= ~trivial
    return exact


@dataclass(frozen=True)
class TwistOrbit:
    """A Galois orbit of twists: rho and its powers rho^m, m coprime to n."""

    c: int
    exponents: tuple[int, ...]
    order: int
    members: tuple[int, ...]  # the exponents m
    rho: RingClassCharacter


def enumerate_twists(field: FieldContext, P: tuple[int, ...], c_max: int) -> list[TwistOrbit]:
    """All ring-class twist orbits with conductor exactly c, supp(c) in P, c <= c_max."""
    orbits: list[TwistOrbit] = []
    for c in _supported_conductors(tuple(P), c_max):
        orders = class_group(c * c * field.D).orders
        vectors = list(itertools.product(*(range(h) for h in orders)))
        seen: set[tuple[int, ...]] = set()
        for exponents, exact in zip(vectors, _exact_conductor(field, c, vectors)):
            if not exact or exponents in seen:
                continue
            # product order reaches each orbit first at its least vector
            rho = ring_class_character(field, c, exponents)
            n = rho.order
            members = tuple(m for m in range(1, n + 1) if math.gcd(m, n) == 1)
            seen.update(tuple((m * t) % h for t, h in zip(exponents, orders)) for m in members)
            orbits.append(TwistOrbit(c=c, exponents=exponents, order=n, members=members, rho=rho))
    return orbits


# ---------------------------------------------------------------------------
# Exact orbit averages and counting
# ---------------------------------------------------------------------------


def _orbit_weights(walk: _ScanWalk, rho: RingClassCharacter, ideals: list[Ideal]) -> np.ndarray:
    """At each ideal a of a prefix of the walk's list, the mean of rho^m(a)
    over m prime to n = ord(rho): c_n(k)/eulerphi(n) with rho(a) = zeta_n^k,
    and 0 where a meets c or f(phi).  k is rho.value_exponents at the walk's
    classes, whose certificate raises NoConsistentLift."""
    n = rho.order
    usable, classes = walk.dlogs(rho, ideals)
    table = np.array([float(Fraction(ramanujan_trace(n, j), euler_phi(n))) for j in range(n)])
    return np.where(usable, table[rho.value_exponents(classes, ideals)], 0.0)


def count_N_total(walk: _ScanWalk, weights: np.ndarray, t: float) -> int:
    """Ideals with nonzero orbit average, a != conj(a), 1 < Na <= t, all classes,
    from the _orbit_weights of a prefix of the walk's list that reaches t."""
    norms, self_conjugate = walk.norms[: len(weights)], walk.self_conjugate[: len(weights)]
    return int(np.count_nonzero((weights != 0) & (norms > 1) & (norms <= t) & ~self_conjugate))


def _exact_mean(walk: _ScanWalk, modulus: int, weights: np.ndarray, bound: int) -> np.ndarray:
    """The exact orbit average of a_n at n <= bound coprime to modulus = c N(f(phi)),
    else 0: one bincount over the norms of phi(a) times the orbit weight of a."""
    norms = walk.norms[: len(weights)]
    on = np.gcd(norms, modulus) == 1
    terms, norms, size = walk.phi_values(on)[on] * weights[on], norms[on], bound + 1
    return np.bincount(norms, terms.real, size) + 1j * np.bincount(norms, terms.imag, size)


# ---------------------------------------------------------------------------
# Averaged L-values
# ---------------------------------------------------------------------------


def averaged_L(
    members: list[HeckeCharacter], v: int, tol: float, w: float, tables: list[ThetaTable]
) -> list[SmoothedValue]:
    """The central value of each orbit member, in member order; a record averages them.

    tables holds each member's theta table, read for its prefix and for the
    smoothing kernel of its lattice, which the members of a conductor share.
    """
    return [central_value(chi, v, tol=tol, w=w, table=table) for chi, table in zip(members, tables)]


class _ScanWalk:
    """The ideal list and the data that one scan's records share.

    The list is enumerated once per scan, by the first record that reads
    it, to the largest bound any record can ask for: a record asks for
    f(chi)^max(T_EXPONENTS), and f(chi) divides m = lcm(f(phi), cO), so
    the bound is the largest N(m)^(max(T_EXPONENTS)/2) over the scan's
    conductors c.  enumerate_ideals sorts by (norm, HNF), so each record
    reads a prefix.  With the list come its norms, its self-conjugate
    ideals, its ideals prime to f(phi) and phi's values, each evaluated
    once, when a record first reads it.  Per c the walk holds the ideals'
    classes in Pic(O_c), read once for every orbit of c, and per conductor
    f_chi one theta lattice (built again only to a larger bound), with its
    smoothing kernel, and one set of Gauss-sum data.  Orbits arrive sorted
    by c, so at_c drops this data when the scan moves on to the next c.
    """

    def __init__(self, phi: HeckeCharacter, conductors: set[int]):
        self.phi = phi
        f = phi.conductor
        # N(lcm(f, cO)) = N(f) N(cO) / N(f + cO), with cO = (c, 0, c) of norm c^2
        lcm_norms = [f.norm * c * c // f.add(Ideal(phi.field, c, 0, c)).norm for c in conductors]
        self._bound = max((int(math.sqrt(n) ** max(T_EXPONENTS)) for n in lcm_norms), default=0)
        self._ideals: list[Ideal] | None = None
        self._c = 0
        self._shared: dict = {}

    def ideals(self, bound: int) -> list[Ideal]:
        if bound > self._bound:
            raise DomainError(
                f"a record asks for ideals to norm {bound}, past the scan's bound {self._bound}"
            )
        if self._ideals is None:
            self._ideals = ideals = enumerate_ideals(self.phi.field, self._bound)
            f = self.phi.conductor
            self.norms = np.array([a.norm for a in ideals], dtype=np.int64)
            self.self_conjugate = np.array([a.is_self_conjugate() for a in ideals])
            coprime = [math.gcd(a.norm, f.norm) == 1 or a.is_coprime(f) for a in ideals]
            self.coprime_f = np.array(coprime)
            self._phi = np.full(len(ideals), np.nan, dtype=np.complex128)
        return self._ideals[: int(np.searchsorted(self.norms, bound, side="right"))]

    def phi_values(self, where: np.ndarray) -> np.ndarray:
        """phi's values on a prefix of the list, evaluated where asked and
        not before; an entry off where that no record asked for is NaN."""
        for i in np.flatnonzero(where & np.isnan(self._phi[: len(where)])).tolist():
            self._phi[i] = evaluate_char(self.phi, self._ideals[i]).complex()
        return self._phi[: len(where)]

    def dlogs(self, rho: RingClassCharacter, ideals: list[Ideal]) -> tuple[np.ndarray, np.ndarray]:
        """(usable, classes) over a prefix of the list: usable where an ideal
        is prime to c and f(phi), and there its class in Pic(O_c), else 0.
        The classes are float, so that a read that is no integer vector
        fails the certificate of rho.value_exponents."""
        count, rank, rows = len(ideals), len(rho.exponents), self._shared.setdefault("dlogs", [])
        usable = self.coprime_f[:count] & (np.gcd(self.norms[:count], rho.c) == 1)
        for a, ok in zip(ideals[len(rows) :], usable[len(rows) :].tolist()):
            rows.append(ring_class_dlog(self.phi.field, rho.c, a) if ok else (0,) * rank)
        return usable, np.array(rows[:count], dtype=float).reshape(count, rank)

    def at_c(self, c: int) -> None:
        if c != self._c:
            self._c, self._shared = c, {}

    def lattice(self, chi: HeckeCharacter, X: int) -> ThetaLattice:
        key = ("lattice", chi.conductor)
        lattice = self._shared.get(key)
        if lattice is None or lattice.X < X:
            lattice = self._shared[key] = theta_lattice(chi, X)
        return lattice

    def gauss(self, chi: HeckeCharacter) -> GaussData:
        key = ("gauss", chi.conductor)
        if key not in self._shared:
            self._shared[key] = gauss_data(chi)
        return self._shared[key]


def _check_orbit_mean(exact: np.ndarray, tables: list[ThetaTable], modulus: int) -> None:
    """Orbit mean of the members' a_n against exact, _exact_mean's array of
    exact orbit averages, at each n coprime to modulus up to its bound: the
    members' theta tables to that bound are added into one dense array."""
    mean = np.zeros_like(exact)
    for table in tables:
        n, a = table.upto(len(exact) - 1)
        mean[n] += a
    mean /= len(tables)
    n = np.arange(len(exact))
    coprime = (np.gcd(n, modulus) == 1) & (n > 0)
    bad = np.flatnonzero(coprime & (abs(mean - exact) > 1e-9 * np.maximum(1.0, abs(exact))))
    if bad.size:
        k = bad[0]
        raise NumericalInstability(
            f"orbit mean of a_{k} is {complex(mean[k])}, exact orbit average is {complex(exact[k])}"
        )


# ---------------------------------------------------------------------------
# Scan records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyRecord:
    """One twist orbit's record.  The defaults are a failed record's values,
    for the fields that its failure kept from being computed."""

    c: int
    exponents: tuple[int, ...]
    n: int
    orbit_size: int
    f: float = math.nan
    W: int = 0
    v: int = 0
    Lv: float = math.nan
    Lv_av: float = math.nan
    tail_bound: float = math.nan
    ratio: float = math.nan
    N_counts: dict = dataclasses.field(default_factory=dict)
    main_lemma: MainLemmaReport | None = None
    verdict: str = "indeterminate"
    error: str | None = None


def _verdict(value: float, tail: float) -> str:
    if abs(value) > 1e3 * tail:
        return "nonzero"
    if abs(value) < tail:
        return "zero"
    return "indeterminate"


def scan_report(
    field: FieldContext,
    phi: HeckeCharacter,
    P: tuple[int, ...],
    c_max: int,
    tol: float,
) -> list[FamilyRecord]:
    """One FamilyRecord per twist orbit; failures are recorded, not raised.

    The preconditions are the exception: malformed inputs raise DomainError
    and a phi that breaks Property 1 raises RestrictionMismatch, before any
    record is built.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be a positive finite number, not {tol}")
    if c_max < 1:
        raise DomainError(f"c_max must be at least 1, not {c_max}")
    if not all(is_prime(p) for p in P):
        raise DomainError(f"P must list primes, not {P}")
    check_property1(phi)
    L1 = dirichlet_L1(field)
    orbits = enumerate_twists(field, P, c_max)
    walk = _ScanWalk(phi, {orbit.c for orbit in orbits})
    records = []
    for orbit in orbits:
        walk.at_c(orbit.c)
        records.append(_orbit_record(field, phi, orbit, L1, tol, walk))
    return records


def _orbit_record(field, phi, orbit, L1, tol, walk) -> FamilyRecord:
    """The orbit's record.  A HeckeLabError becomes its error, with f, N_counts
    and main_lemma if all three were computed and the defaults elsewhere."""
    known = dict(c=orbit.c, exponents=orbit.exponents, n=orbit.order, orbit_size=len(orbit.members))
    rho = orbit.rho
    try:
        members = twist_orbit(phi, rho, orbit.members)
        chi = members[0]
        # exact fields first, as they need no W: one array of exact orbit
        # averages serves the counts and the orbit mean
        bound = int(chi.f_value ** max(T_EXPONENTS))
        weights = _orbit_weights(walk, rho, walk.ideals(bound))
        counts = {}
        for alpha in T_EXPONENTS:
            t = chi.f_value**alpha
            counts[repr(alpha)] = {"t": int(t), "N": count_N_total(walk, weights, t)}
        known.update(f=chi.f_value, N_counts=counts, main_lemma=main_lemma_quantities(chi))
        signs = [root_number(m, walk.gauss(m)) for m in members]
        if len(set(signs)) != 1:  # the twist orbit exceeds the value-field Galois orbit
            raise SignMismatch(f"orbit {orbit.c}:{orbit.exponents} has mixed signs {signs}")
        W = int(signs[0])
        # one table per member, to its truncation T and the check's bound;
        # the first member's also reaches the FE bound of its theta quotient
        Af = field.A * chi.f_value
        X = max(int(truncation(Af, tol)), bound)
        X1 = max(fe_bound(chi), X)
        tables = [theta_coeffs(chi, X1, walk.lattice(chi, X1))]
        W_fe = root_number_via_fe(chi, table=tables[0])
        if abs(W_fe - W) > 1e-6:
            raise NumericalInstability(
                f"root numbers disagree: Gauss sum W = {W:+d}, theta quotient W = {W_fe:.6g}"
            )
        v = (1 - W) // 2
        tables += [theta_coeffs(m, X, walk.lattice(m, X)) for m in members[1:]]
        values = averaged_L(members, v, tol=tol, w=float(W), tables=tables)
        modulus = orbit.c * phi.conductor_norm
        _check_orbit_mean(_exact_mean(walk, modulus, weights, bound), tables, modulus)
        verdicts = [_verdict(x.value, x.tail_bound) for x in values]
        if len(set(verdicts)) != 1:  # vanishing at s = 1 is Galois invariant
            raise SignMismatch(f"orbit {orbit.c}:{orbit.exponents} has mixed verdicts {verdicts}")
    except HeckeLabError as exc:
        return FamilyRecord(**known, error=f"{type(exc).__name__}: {exc}")
    Lv_av = math.fsum(x.value for x in values) / len(values)
    denom = 2.0 * L1 if v == 0 else 2.0 * L1 * math.log(Af)
    return FamilyRecord(
        **known,
        W=W,
        v=v,
        Lv=values[0].value,
        Lv_av=Lv_av,
        tail_bound=max(x.tail_bound for x in values),
        ratio=Lv_av / denom,
        verdict=verdicts[0],
    )


# ---------------------------------------------------------------------------
# Persistence: deterministic JSON / CSV / log
# ---------------------------------------------------------------------------


def _fstr(x: float) -> str:
    return repr(float(x))


def _json_value(value):
    """A record value as JSON: a float as its repr string, a tuple as a list,
    a dataclass as the dict of its fields, anything else as it is."""
    if isinstance(value, float):
        return _fstr(value)
    if isinstance(value, tuple):
        return [_json_value(x) for x in value]
    if hasattr(value, "__dataclass_fields__"):  # is_dataclass, without its call
        return {name: _json_value(x) for name, x in vars(value).items()}
    return value


def record_to_dict(record: FamilyRecord) -> dict:
    """The JSON record: every field of record, by _json_value."""
    return _json_value(record)


def scan_to_json(
    field: FieldContext,
    phi: HeckeCharacter,
    P: tuple[int, ...],
    c_max: int,
    tol: float,
    records: list[FamilyRecord],
) -> str:
    payload = {
        "D": field.D,
        "P": sorted(set(P)),
        "c_max": c_max,
        "tol": _fstr(tol),
        "base_character": phi.descriptor(),
        "records": [record_to_dict(r) for r in records],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# the CSV columns: D, then keys of record_to_dict
_CSV_COLUMNS = ("D", "c", "n", "f", "W", "v", "Lv", "Lv_av", "ratio", "verdict")


def scan_to_csv(field: FieldContext, records: list[FamilyRecord]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, _CSV_COLUMNS, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    writer.writerows({"D": field.D, **record_to_dict(r)} for r in records)
    return buf.getvalue()


def save_scan(
    field: FieldContext,
    phi: HeckeCharacter,
    P: tuple[int, ...],
    c_max: int,
    tol: float,
    records: list[FamilyRecord],
    outdir: str | Path,
) -> dict[str, Path]:
    """Write scan.json and scan.csv (deterministic) and append to scan.log."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {kind: outdir / f"scan.{kind}" for kind in ("json", "csv", "log")}
    paths["json"].write_text(scan_to_json(field, phi, P, c_max, tol, records))
    paths["csv"].write_text(scan_to_csv(field, records))
    with paths["log"].open("a") as fh:
        for d in map(record_to_dict, records):
            line = (
                f"D={field.D} c={d['c']} exps={d['exponents']} n={d['n']} W={d['W']} v={d['v']} "
                f"Lv={d['Lv']} verdict={d['verdict']}"
            )
            if d["error"]:
                line += f" error={d['error']}"
            fh.write(line + "\n")
    return paths
