"""Exact truncated formal power series and formal group laws.

Everything in this module is computed over exact rationals; floats are
deliberately rejected so that coefficient identities can serve as zero-tolerance
test oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import CompositionDomainError, NormalizationError
from .record import Record

Rational = Fraction | int | str


def _frac(value: Rational) -> Fraction:
    if type(value) is Fraction:  # immutable, so it is its own copy
        return value
    if isinstance(value, float):
        raise TypeError("floats are not allowed in exact series arithmetic")
    return Fraction(value)


# The exact kernel: a coefficient vector is held as integer numerators over one
# common denominator, so inner loops add and multiply plain ints and each
# result coefficient is normalised once, by one Fraction(numerator, denominator).
# Wherever a series is raised to successive powers, each power's content (the
# gcd of the denominator and every numerator) is divided out as the power is
# formed, so its denominator is the least common denominator of its reduced
# coefficients and does not grow with the exponent.


def _ints(coeffs: Iterable[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of ``coeffs`` over their least common denominator."""
    cs = list(coeffs)
    den = math.lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


def _content(nums: list[int], den: int) -> tuple[list[int], int]:
    """``nums / den`` with the content gcd(den, *nums) divided out of both sides."""
    g = math.gcd(den, *nums)
    if g == 1:
        return nums, den
    return [v // g for v in nums], den // g


def _mul(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """The product of two integer coefficient vectors, truncated at degree n."""
    out = [0] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if ai:
            for k, bj in enumerate(b[: n + 1 - i], i):
                out[k] += ai * bj
    return out


def _bimul(a: Mapping, b: Mapping, n: int) -> dict[tuple[int, int], int]:
    """The product of two integer dicts {(i, j): c}, truncated at total degree n; zeros dropped.

    Each term of ``a`` meets only the terms of ``b`` that fit within the
    truncation degree, still in ``b``'s order, so keys appear in the order of
    the full double loop while no pair past degree n is visited.
    """
    every = [(i2, j2, c2) for (i2, j2), c2 in b.items()]
    top = max(map(sum, b), default=0)
    fitting = {}  # room -> b's terms of total degree <= room, for room < top
    out: dict[tuple[int, int], int] = {}
    for (i1, j1), c1 in a.items():
        room = n - i1 - j1
        terms = every if room >= top else fitting.get(room)
        if terms is None:
            terms = fitting[room] = [(i2, j2, c2) for i2, j2, c2 in every if i2 + j2 <= room]
        for i2, j2, c2 in terms:
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def _fracs(nums: Iterable[int], den: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(v, den) for v in nums)


class TruncatedSeries(Record):
    """A univariate formal power series kept exactly up to a fixed order.

    ``coeffs[k]`` is the coefficient of ``s**k``; the series is truncated at
    ``order = len(coeffs) - 1``.  Binary operations truncate to the smaller
    order of the two operands, so results never claim more precision than
    their inputs carry.
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Rational]) -> None:
        coeffs = tuple(_frac(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a truncated series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[Rational], order: int | None = None) -> "TruncatedSeries":
        cs = [_frac(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be nonnegative")
            cs = (cs + [Fraction(0)] * (order + 1))[: order + 1]
        return cls(tuple(cs))

    @classmethod
    def identity(cls, order: int) -> "TruncatedSeries":
        """The series ``s`` truncated at ``order``."""
        return cls.from_coeffs([0, 1], order=order)

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k <= self.order else Fraction(0)

    def truncated(self, order: int) -> "TruncatedSeries":
        return TruncatedSeries.from_coeffs(self.coeffs, order=order)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(tuple(self[k] + other[k] for k in range(n + 1)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(tuple(self[k] - other[k] for k in range(n + 1)))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        a, da = _ints(self.coeffs[: n + 1])
        b, db = _ints(other.coeffs[: n + 1])
        return TruncatedSeries(_fracs(_mul(a, b, n), da * db))

    def scaled(self, factor: Rational) -> "TruncatedSeries":
        f = _frac(factor)
        return TruncatedSeries(tuple(c * f for c in self.coeffs))

    def derivative(self) -> "TruncatedSeries":
        if self.order == 0:
            return TruncatedSeries((Fraction(0),))
        return TruncatedSeries(tuple(k * self.coeffs[k] for k in range(1, self.order + 1)))

    def is_identity(self) -> bool:
        return self[0] == 0 and self[1] == 1 and all(c == 0 for c in self.coeffs[2:])

    def __str__(self) -> str:
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"


def series_from_b_sequence(b: Sequence[Rational], order: int) -> TruncatedSeries:
    """Build the series sum_i b_i s^(i+1)/(i+1) from its integral coefficients.

    ``b[0]`` must equal 1; missing coefficients beyond ``len(b)`` are treated
    as zero.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    bs = [_frac(v) for v in b]
    if not bs or bs[0] != 1:
        raise NormalizationError("the leading integral coefficient must be 1")
    coeffs = [Fraction(0)] * (order + 1)
    for i in range(min(len(bs), order)):
        coeffs[i + 1] = bs[i] / (i + 1)
    return TruncatedSeries(tuple(coeffs))


def integral_coefficients(f: TruncatedSeries) -> tuple[Fraction, ...]:
    """Read a series back in the s^(k+1)/(k+1) convention: a_k = (k+1) c_{k+1}."""
    return tuple((k + 1) * f[k + 1] for k in range(f.order))


def compose(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """The composition f(g(s)), exact to the shared truncation order."""
    if g[0] != 0:
        raise CompositionDomainError("inner series must have zero constant term")
    n = min(f.order, g.order)
    fs, df = _ints(f.coeffs[: n + 1])
    gs, dg = _ints(g.coeffs[: n + 1])
    # Horner over the outer coefficients; after the step for f_k the
    # accumulator holds sum_{i>=k} f_i g^(i-k) over den, a multiple of df.
    # Each product with g has its content divided out before f_k is added.
    acc, den = [fs[n]], df
    for k in range(n - 1, -1, -1):
        acc, den = _content(_mul(acc, gs, n), den * dg)
        scale = math.lcm(den, df) // den
        if scale != 1:
            acc, den = [v * scale for v in acc], den * scale
        acc[0] += fs[k] * (den // df)
    return TruncatedSeries(_fracs(acc, den))


def reversion(f: TruncatedSeries) -> TruncatedSeries:
    """The compositional inverse g with f(g(s)) = s up to the truncation order.

    Lagrange inversion: with h = s/f(s), the coefficient g_m = [s^(m-1)] h^m / m.
    h comes from one series division and h^m from successive integer
    convolutions, each with its content divided out: O(n^3) operations on
    integers the size of the reduced coefficients' denominators.
    """
    if f[0] != 0 or f[1] != 1:
        raise NormalizationError("reversion requires c_0 = 0 and c_1 = 1")
    n = f.order
    # f(s)/s = p/d with p_0 = d, so h = d/p: h_k = -sum_{i=1..k} p_i h_(k-i) / d.
    # With h_0..h_(k-1) content-free over den, the vector with h_k = x / (den d)
    # appended has content gcd(d, x): it is divided out as it arises.
    p, d = _ints(f.coeffs[1:])
    h, den = [1], 1
    for k in range(1, n):
        x = -sum(p[i] * h[k - i] for i in range(1, k + 1))
        content = math.gcd(d, x)
        scale = d // content
        if scale != 1:
            h = [v * scale for v in h]
            den *= scale
        h.append(x // content)
    g = [Fraction(0), Fraction(1)]
    power, pden = h, den  # h^m over pden, truncated at degree n - 1
    for m in range(2, n + 1):
        power, pden = _content(_mul(power, h, n - 1), pden * den)
        g.append(Fraction(power[m - 1], m * pden))
    return TruncatedSeries(tuple(g))


class BivariateTruncatedSeries(Record):
    """A two-variable polynomial truncated at a fixed total degree.

    ``coeffs`` maps exponent pairs ``(i, j)`` with ``i + j <= order`` to exact
    rationals; absent keys are zero.
    """

    __slots__ = ("coeffs", "order")
    coeffs: Mapping[tuple[int, int], Fraction]
    order: int

    def __init__(self, coeffs: Mapping[tuple[int, int], Rational], order: int) -> None:
        if order < 0:
            raise ValueError("order must be nonnegative")
        clean = {}
        for (i, j), c in coeffs.items():
            if i < 0 or j < 0 or i + j > order:
                raise ValueError(f"exponent pair {(i, j)} outside total degree {order}")
            c = _frac(c)
            if c != 0:
                clean[(i, j)] = c
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "order", order)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        return self.coeffs.get(key, Fraction(0))

    def monomials(self):
        """All exponent pairs up to the truncation order, in lexicographic order."""
        for i in range(self.order + 1):
            for j in range(self.order + 1 - i):
                yield (i, j)

    def __add__(self, other: "BivariateTruncatedSeries") -> "BivariateTruncatedSeries":
        n = min(self.order, other.order)
        out: dict[tuple[int, int], Fraction] = {}
        for key in set(self.coeffs) | set(other.coeffs):
            if key[0] + key[1] <= n:
                out[key] = self[key] + other[key]
        return BivariateTruncatedSeries(out, n)

    def __mul__(self, other: "BivariateTruncatedSeries") -> "BivariateTruncatedSeries":
        n = min(self.order, other.order)
        a, da = _ints(self.coeffs.values())
        b, db = _ints(other.coeffs.values())
        out = _bimul(dict(zip(self.coeffs, a)), dict(zip(other.coeffs, b)), n)
        return BivariateTruncatedSeries({key: Fraction(c, da * db) for key, c in out.items()}, n)

    def scaled(self, factor: Rational) -> "BivariateTruncatedSeries":
        f = _frac(factor)
        return BivariateTruncatedSeries({k: c * f for k, c in self.coeffs.items()}, self.order)


def group_law_from_G(g: TruncatedSeries, order: int) -> BivariateTruncatedSeries:
    """Expand G(G^{-1}(x) + G^{-1}(y)) as an exact bivariate polynomial.

    ``g`` must be normalized (zero constant term, unit linear term) and carry
    at least ``order`` coefficients; the result is truncated at total degree
    ``order`` and by construction starts with ``x + y``.  Each power of G^-1
    has its content divided out, and the law is summed over dg L^2, where dg
    is G's denominator and L the least common multiple of the powers'.
    """
    if g[0] != 0 or g[1] != 1:
        raise NormalizationError("group-law construction requires c_0 = 0 and c_1 = 1")
    if g.order < order:
        raise ValueError(f"series order {g.order} is below the requested expansion order {order}")
    gs, dg = _ints(g.coeffs[: order + 1])
    p, d = _ints(reversion(g.truncated(order)).coeffs)
    powers = [([1] + [0] * order, 1)]  # (G^-1)^j as (numerators, denominator)
    for _ in range(order):
        prev, den = powers[-1]
        powers.append(_content(_mul(prev, p, order), den * d))
    # With u = G^-1(x), v = G^-1(y): G(u + v) = sum_k G_k sum_j C(k, j) u^j v^(k-j),
    # so Phi_ab = sum_j P_j[a] T_j[b] over dg L^2, with P_j = powers[j] / D_j,
    # L = lcm(D) and T_j[b] = sum_k C(k, j) G_k (L/D_j) (L/D_(k-j)) P_(k-j)[b]
    # gathering the v-side per power of u.
    lcm_powers = math.lcm(*(den for _, den in powers))
    out: dict[tuple[int, int], int] = {}
    for j in range(order + 1):
        t = [0] * (order + 1 - j)
        scale = lcm_powers // powers[j][1]
        for k in range(j, order + 1):
            if gs[k]:
                pk, dk = powers[k - j]
                c = gs[k] * math.comb(k, j) * scale * (lcm_powers // dk)
                for b in range(k - j, order + 1 - j):
                    t[b] += c * pk[b]
        pj = powers[j][0]
        for a in range(j, order + 1):
            pa = pj[a]
            if pa:
                for b, tb in enumerate(t[: order + 1 - a]):
                    if tb:
                        out[(a, b)] = out.get((a, b), 0) + pa * tb
    den = dg * lcm_powers * lcm_powers
    return BivariateTruncatedSeries({key: Fraction(out[key], den) for key in sorted(out)}, order)


class GroupAxiomReport(Record):
    """Outcome of the coefficient-wise formal group axiom checks.

    ``first_failure`` records, per failed axiom, the first offending monomial
    and the coefficient(s) found there.
    """

    __slots__ = ("identity", "commutativity", "associativity", "first_failure")
    identity: bool
    commutativity: bool
    associativity: bool
    first_failure: dict

    def __init__(self, identity: bool, commutativity: bool, associativity: bool, first_failure: dict) -> None:
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "commutativity", commutativity)
        object.__setattr__(self, "associativity", associativity)
        object.__setattr__(self, "first_failure", first_failure)

    @property
    def all_pass(self) -> bool:
        return self.identity and self.commutativity and self.associativity


def verify_group_axioms(psi: BivariateTruncatedSeries) -> GroupAxiomReport:
    """Check identity, commutativity and associativity of a candidate group law.

    Associativity is checked by materializing both trivariate compositions
    truncated at the law's total degree, over one denominator: the law's
    times the least common multiple of its content-free powers'.
    """
    n = psi.order
    q, d = _ints(psi.coeffs.values())
    law = dict(zip(psi.coeffs, q))  # psi = law / d, so every check compares integers
    failures: dict = {}

    # the coefficients of x^k and of y^k are 1 at k = 1 and 0 elsewhere
    identity_ok = True
    for key in [(k, 0) for k in range(n + 1)] + [(0, k) for k in range(n + 1)]:
        if law.get(key, 0) != (d if sum(key) == 1 else 0):
            identity_ok = False
            failures["identity"] = (key, psi[key], Fraction(int(sum(key) == 1)))
            break

    commutative_ok = True
    for (i, j) in sorted({(max(i, j), min(i, j)) for (i, j) in law}):
        if law.get((i, j), 0) != law.get((j, i), 0):
            commutative_ok = False
            failures["commutativity"] = ((i, j), psi[(i, j)], psi[(j, i)])
            break

    # psi^i = powers[i] / dens[i], content divided out; every term of
    # psi(psi(x, y), z) and psi(x, psi(y, z)) is scaled to d lcm(dens).
    top = max((max(key) for key in law), default=0)
    powers, dens = [{(0, 0): 1}], [1]
    for _ in range(top):
        power = _bimul(powers[-1], law, n)
        nums, den = _content(list(power.values()), dens[-1] * d)
        powers.append(dict(zip(power, nums)))
        dens.append(den)
    lcm_powers = math.lcm(*dens)
    left: dict[tuple[int, int, int], int] = {}
    right: dict[tuple[int, int, int], int] = {}
    for (i, j), c in law.items():
        cl = c * (lcm_powers // dens[i])
        for (a, b), v in powers[i].items():
            if a + b + j <= n:
                left[(a, b, j)] = left.get((a, b, j), 0) + cl * v
        cr = c * (lcm_powers // dens[j])
        for (a, b), v in powers[j].items():
            if i + a + b <= n:
                right[(i, a, b)] = right.get((i, a, b), 0) + cr * v
    associative_ok = True
    for key in sorted(left.keys() | right.keys()):
        lv, rv = left.get(key, 0), right.get(key, 0)
        if lv != rv:
            associative_ok = False
            failures["associativity"] = (key, Fraction(lv, d * lcm_powers), Fraction(rv, d * lcm_powers))
            break

    return GroupAxiomReport(identity_ok, commutative_ok, associative_ok, failures)


class AbelCoefficients(Record):
    """Closed-form coefficients of the two-parameter exponential group law."""

    __slots__ = ("a", "b", "betas")
    a: Fraction
    b: Fraction
    betas: tuple[Fraction, ...]

    def __init__(self, a: Fraction, b: Fraction, betas: tuple[Fraction, ...]) -> None:
        if betas and betas[0] != a + b:
            raise ValueError("beta_1 must equal a + b")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "betas", betas)


def abel_group_coefficients(a: Rational, b: Rational, n: int) -> AbelCoefficients:
    """Bracket coefficients beta_1..beta_n of the Abel-exponential group law.

    beta_1 = a + b and, for m > 1,
    beta_m = (-1)^(m-1) / (m! (m-1)) * prod_{i+j=m-1, i,j>=0} (i a + j b).
    """
    if n < 1:
        raise ValueError("need at least one coefficient")
    af, bf = _frac(a), _frac(b)
    betas = [af + bf]
    for m in range(2, n + 1):
        prod = Fraction(1)
        for i in range(m):
            prod *= i * af + (m - 1 - i) * bf
        betas.append(Fraction((-1) ** (m - 1), math.factorial(m) * (m - 1)) * prod)
    return AbelCoefficients(af, bf, tuple(betas))


def identity_series(order: int) -> TruncatedSeries:
    """G(t) = t; carrier of the additive group law."""
    return TruncatedSeries.identity(order)


def tsallis_exp_series(q: Rational, order: int) -> TruncatedSeries:
    """Exact expansion of (e^((1-q) t) - 1)/(1-q) = G_{1-q,0}: carrier of x + y + (1-q) x y."""
    return abel_exp_series(1 - _frac(q), 0, order)


def kaniadakis_exp_series(k: Rational, order: int) -> TruncatedSeries:
    """Exact expansion of sinh(k t)/k = G_{k,-k}: carrier of the deformed-sum group law."""
    return abel_exp_series(_frac(k), -_frac(k), order)


def abel_exp_series(a: Rational, b: Rational, order: int) -> TruncatedSeries:
    """Exact expansion of G_{a,b}(t) = (e^(a t) - e^(b t))/(a - b).

    The coefficient of t^n/n! is the complete homogeneous symmetric polynomial
    h_n = sum_{i+j=n-1} a^i b^j = a h_(n-1) + b^(n-1), with h_0 = 0.  It stays
    well-defined at a = b, where G_{a,a}(t) = t e^(a t), the identity at a = 0.
    """
    af, bf = _frac(a), _frac(b)
    coeffs, h, b_pow = [Fraction(0)], Fraction(0), Fraction(1)
    for n in range(1, order + 1):
        h, b_pow = af * h + b_pow, b_pow * bf
        coeffs.append(h / math.factorial(n))
    return TruncatedSeries(tuple(coeffs))
