"""Exact truncated formal power series and formal group laws.

Everything in this module is computed over exact rationals; floats are
deliberately rejected so that coefficient identities can serve as zero-tolerance
test oracles.
"""

from __future__ import annotations

import math
import operator
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
# coefficients and does not grow with the exponent.  A two-exponential G
# (every registry carrier) takes no powers at all: ``group_law_from_G`` builds
# its law in closed form from s = a + b and p = ab, and ``reversion`` its G^-1
# from the same law's bracket series by one reciprocal and one integration.
# Any other G's law is built one power of y at a time by a linear recurrence
# from the invariant differential, each row's content divided out the same way.


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


def _powers(base: tuple[list[int], int], top: int, n: int) -> list[tuple[list[int], int]]:
    """base^0..base^top as (numerators, denominator), truncated at degree n, each with its content divided out."""
    out = [([1] + [0] * n, 1), base]
    for _ in range(top - 1):
        prev, den = out[-1]
        out.append(_content(_mul(prev, base[0], n), den * base[1]))
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


def _reciprocal(p: list[int], d: int) -> tuple[list[int], int]:
    """d/p to len(p) terms as (numerators, denominator), for integers p with p_0 = d.

    h_j = -sum_{i=1..j} p_i h_(j-i) / d.  With h_0..h_(j-1) content-free over
    den, the vector with h_j = x / (den d) appended has content gcd(d, x): it
    is divided out as it arises.
    """
    h, den = [1], 1
    for j in range(1, len(p)):
        x = -sum(map(operator.mul, p[1 : j + 1], reversed(h)))
        content = math.gcd(d, x)
        scale = d // content
        if scale != 1:
            h = [v * scale for v in h]
            den *= scale
        h.append(x // content)
    return h, den


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
        super().__init__(coeffs)

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

    An f that solves G'' = s G' - p G up to its order (``_two_exponential``:
    every registry carrier, and every f below order 4) is G_{a,b}, and its
    inverse l = G^-1 is the logarithm of the Abel law: l' = 1/D with
    D(x) = G'(l(x)) = 1 + sum_(m>=1) beta_m x^m, the law's bracket series
    (``_abel_betas``).  D is put over one integer denominator, inverted by one
    ``_reciprocal`` and integrated term by term, l_(k+1) = h_k / ((k + 1) den):
    O(n^2) integer work with no power and no product of series.

    Any other f takes Lagrange inversion: with h = s/f(s), the coefficient
    g_m = [s^(m-1)] h^m / m.  h comes from one series division.  Only one
    coefficient of each h^m is read, so the powers are split
    baby-step/giant-step (Brent and Kung, 1978): with k = isqrt(n) and
    m = qk + r, 0 <= r < k, g_m is one integer dot product of the baby power
    h^r and the giant power h^(qk).  Forming h^2..h^k and h^(2k)..h^((n//k)k)
    takes (k - 1) + (n//k - 1) <= 2k truncated convolutions instead of n - 1,
    each with its content divided out, on integers the size of the reduced
    coefficients' denominators.
    """
    if f[0] != 0 or f[1] != 1:
        raise NormalizationError("reversion requires c_0 = 0 and c_1 = 1")
    n = f.order
    roots = _two_exponential(f, n)
    if roots is not None:
        # D = 1 + beta_1 s + ... + beta_(n-1) s^(n-1), and 1/D = h / h_den
        h, h_den = _reciprocal(*_ints([Fraction(1), *_abel_betas(*roots, n - 1)]))
        return TruncatedSeries((Fraction(0), *(Fraction(v, (k + 1) * h_den) for k, v in enumerate(h))))
    # f(s)/s = p/d with p_0 = d, so h = d/p
    h, den = _reciprocal(*_ints(f.coeffs[1:]))
    k = math.isqrt(n)
    baby = _powers((h, den), k, n - 1)  # h^r, r = 0..k
    giant = _powers(baby[k], n // k, n - 1)  # h^(qk), q = 0..n//k
    g = [Fraction(0), Fraction(1)]
    for m in range(2, n + 1):
        q, r = divmod(m, k)
        (b, db), (c, dc) = baby[r], giant[q]
        g.append(Fraction(sum(map(operator.mul, b, c[m - 1 :: -1])), db * dc * m))
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
        super().__init__(clean, order)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        return self.coeffs.get(key, Fraction(0))

    def monomials(self):
        """All exponent pairs up to the truncation order, in lexicographic order."""
        for i in range(self.order + 1):
            for j in range(self.order + 1 - i):
                yield (i, j)

    def __mul__(self, other: "BivariateTruncatedSeries") -> "BivariateTruncatedSeries":
        n = min(self.order, other.order)
        a, da = _ints(self.coeffs.values())
        b, db = _ints(other.coeffs.values())
        out = _bimul(dict(zip(self.coeffs, a)), dict(zip(other.coeffs, b)), n)
        return BivariateTruncatedSeries({key: Fraction(c, da * db) for key, c in out.items()}, n)

    def scaled(self, factor: Rational) -> "BivariateTruncatedSeries":
        f = _frac(factor)
        return BivariateTruncatedSeries({k: c * f for k, c in self.coeffs.items()}, self.order)


def _abel_betas(s: Fraction, p: Fraction, n: int) -> list[Fraction]:
    """beta_1..beta_n of the Abel formal group law of G_{a,b}, from s = a + b and p = ab alone; none at n = 0.

    beta_1 = s and, for m > 1, beta_m = (-1)^(m-1) / (m! (m-1)) prod_{i+j=m-1} (i a + j b).
    The factors (i, j) and (j, i) multiply to ij s^2 + (i - j)^2 p, and for odd m
    the middle factor is ((m - 1)/2) s, so a and b may be irrational or complex.
    Each beta_m is one integer product over one denominator, normalised once.
    """
    sn, sd, pn, pd = s.numerator, s.denominator, p.numerator, p.denominator
    # ij s^2 + (i - j)^2 p = (ij ss + (i - j)^2 pp) / pair_den
    ss, pp, pair_den = sn * sn * pd, pn * sd * sd, sd * sd * pd
    betas, factorial = [s][:n], 1
    for m in range(2, n + 1):
        factorial *= m
        num, den = 1, factorial * (m - 1)
        for i in range(m // 2):  # the pairs i < j = m - 1 - i
            num *= i * (m - 1 - i) * ss + (m - 1 - 2 * i) ** 2 * pp
            den *= pair_den
        if m % 2:
            num *= (m - 1) // 2 * sn
            den *= sd
        betas.append(Fraction(num if m % 2 else -num, den))
    return betas


def _two_exponential(g: TruncatedSeries, order: int) -> tuple[Fraction, Fraction] | None:
    """(s, p) if g solves G'' = s G' - p G up to degree ``order``, else None.

    With g = nums / den, s = 2 c_2 and p = 4 c_2^2 - 6 c_3 make the recurrence
    (k + 2)(k + 1) c_(k+2) = s (k + 1) c_(k+1) - p c_k hold at k = 0 and 1; it is
    tested at k = 2..order-2, times den^3, on integers.  Every G_{a,b} passes, with
    s = a + b and p = ab; below order 4 every g does.
    """
    nums, den = _ints(g.coeffs[: order + 1])
    nums += [0] * (4 - len(nums))
    c2, c3 = nums[2], nums[3]
    s2 = 2 * c2 * den  # s den^2
    p3 = 4 * c2 * c2 - 6 * c3 * den  # p den^2
    for k in range(2, order - 1):
        if (k + 2) * (k + 1) * nums[k + 2] * den * den != s2 * (k + 1) * nums[k + 1] - p3 * nums[k]:
            return None
    return Fraction(2 * c2, den), Fraction(p3, den * den)


def group_law_from_G(g: TruncatedSeries, order: int) -> BivariateTruncatedSeries:
    """Expand G(G^{-1}(x) + G^{-1}(y)) as an exact bivariate polynomial.

    ``g`` must be normalized (zero constant term, unit linear term) and carry
    at least ``order`` coefficients, and ``order`` must be at least 1; the
    result is truncated at total degree ``order`` and by construction starts
    with ``x + y``.

    A g that solves G'' = s G' - p G up to degree ``order`` is a two-exponential
    G_{a,b} = (e^(at) - e^(bt))/(a - b) with s = a + b and p = ab (every registry
    carrier is one), and its law is the Abel formal group law (Tempesta, PRE 84
    (2011) 021121) psi = x + y + s xy + sum_(m>=2) beta_m (x^m y + x y^m), built
    from s and p in O(order^2) integer multiplies with no reversion.  It is
    symmetric by construction: psi_ij and psi_ji are one value.

    Any other g takes the row recurrence, one power of y at a time from the
    invariant differential (Hazewinkel, *Formal Groups and Applications*, 1978,
    ch. 1), with no power of G^-1: with l = G^-1, D = 1/l' and u, v = l(x),
    l(y), both D(x) d_x psi and D(y) d_y psi equal G'(u + v).  So psi = sum_j
    psi_j(x) y^j has psi_0 = x, psi_1 = D and (j + 1) psi_(j+1) = D psi_j' -
    sum_(i>=1) D_i (j + 1 - i) psi_(j+1-i), truncated at x-degree order - j - 1.
    Each row is integer numerators over one denominator with its content
    divided out, and only nonzero coefficients become Fractions.  Each
    coefficient is computed on its own, so the commutativity check still tests
    psi_ij against psi_ji.  The rows take O(order^3) integer multiply-adds at
    most, fewer where D and the rows have zero coefficients.

    Either way zero coefficients are dropped and keys are in sorted order.
    """
    if g[0] != 0 or g[1] != 1:
        raise NormalizationError("group-law construction requires c_0 = 0 and c_1 = 1")
    if order < 1:
        raise ValueError("order must be at least 1")
    if g.order < order:
        raise ValueError(f"series order {g.order} is below the requested expansion order {order}")
    roots = _two_exponential(g, order)
    if roots is not None:
        law: dict[tuple[int, int], Rational] = {(0, 1): 1, (1, 0): 1}
        betas = _abel_betas(*roots, order - 1)
        law.update(((1, m), beta) for m, beta in enumerate(betas, 1))
        law.update(((m, 1), beta) for m, beta in enumerate(betas[1:], 2))
        return BivariateTruncatedSeries(law, order)
    ell, ell_den = _ints(reversion(g.truncated(order)).coeffs[1:])  # l_(k+1) = ell[k] / ell_den
    d_nums, d_den = _reciprocal([k * v for k, v in enumerate(ell, 1)], ell_den)  # D = 1/l', degrees 0..order-1
    d_terms = [(i, c) for i, c in enumerate(d_nums) if c]
    # psi_j = sum_k v x^k / den over the nonzero (k, v) of rows[j] = (terms, den), k <= order - j
    rows = [([(1, 1)], 1), (d_terms, d_den)]
    lcm_rows = 1  # of the denominators of rows 1..j
    for j in range(1, order):
        m = order - j  # psi_(j+1) keeps x-degrees 0..m-1
        terms, den = rows[j]
        lcm_rows = math.lcm(lcm_rows, den)
        # acc = (j + 1) psi_(j+1) d_den lcm_rows: D psi_j' less each D_i (j + 1 - i) psi_(j+1-i)
        acc = [0] * m
        scale = lcm_rows // den
        for k, v in terms:
            v *= k * scale
            for i, c in d_terms:
                if i + k > m:
                    break
                acc[i + k - 1] += c * v
        for i, c in d_terms[1:]:
            if i > j:
                break
            r, r_den = rows[j + 1 - i]
            c *= (j + 1 - i) * (lcm_rows // r_den)
            for k, v in r:
                if k >= m:
                    break
                acc[k] -= c * v
        nums, den = _content(acc, d_den * lcm_rows * (j + 1))
        rows.append(([(k, v) for k, v in enumerate(nums) if v], den))
    by_key = sorted((i, j, v, den) for j, (terms, den) in enumerate(rows) for i, v in terms)
    return BivariateTruncatedSeries({(i, j): Fraction(v, den) for i, j, v, den in by_key}, order)


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

    @property
    def all_pass(self) -> bool:
        return self.identity and self.commutativity and self.associativity


def _differential_holds(law: dict, n: int) -> bool:
    """Whether D(x) d_x psi(x, y) = D(y) d_y psi(x, y) below total degree n, where D(u) = d_y psi(u, 0) and psi = law / d.

    With l' = 1/D and u, v = l(x), l(y) the two sides are d_u psi and d_v psi, so
    the identity says that psi is a function of l(x) + l(y) alone, which
    psi(x, 0) = x makes l^-1.  Conversely, differentiating associativity in z at
    z = 0 and integrating gives psi = l^-1(l(x) + l(y)) for an associative psi,
    which satisfies it.  So, given psi(x, 0) = x and psi(0, y) = y, it holds
    over Q exactly when psi is associative to total degree n.  Each side is a
    sum of products of one term of psi and one of D, compared over d^2: about
    |psi| deg D integer multiply-adds.
    """
    diff = sorted((i, c) for (i, j), c in law.items() if j == 1)  # D = diff / d
    gap: dict[tuple[int, int], int] = {}  # (D(x) d_x psi - D(y) d_y psi) d^2
    for (a, b), c in law.items():
        for i, e in diff:
            if a + b + i > n:  # degree a + b - 1 + i reaches n
                break
            if a:
                gap[(a - 1 + i, b)] = gap.get((a - 1 + i, b), 0) + a * c * e
            if b:
                gap[(a, b - 1 + i)] = gap.get((a, b - 1 + i), 0) - b * c * e
    return not any(gap.values())


def _trivariate_associativity(psi: BivariateTruncatedSeries) -> tuple | None:
    """The first monomial where psi(psi(x, y), z) and psi(x, psi(y, z)) differ, with both coefficients; None if none.

    Both compositions are materialized, truncated at the law's total degree,
    over one denominator: the law's times the least common multiple of its
    content-free powers'.
    """
    n = psi.order
    q, d = _ints(psi.coeffs.values())
    law = dict(zip(psi.coeffs, q))
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
    for key in sorted(left.keys() | right.keys()):
        lv, rv = left.get(key, 0), right.get(key, 0)
        if lv != rv:
            return key, Fraction(lv, d * lcm_powers), Fraction(rv, d * lcm_powers)
    return None


def verify_group_axioms(psi: BivariateTruncatedSeries) -> GroupAxiomReport:
    """Check identity, commutativity and associativity of a candidate group law.

    Once the identity holds, associativity is decided by the invariant
    differential (Hazewinkel, *Formal Groups and Applications*, 1978, ch. 1):
    with D(u) = d_y psi(u, 0), psi is associative to its total degree n
    exactly when D(x) d_x psi(x, y) = D(y) d_y psi(x, y) below degree n.
    That is linear in psi: one pass over the terms of psi times those of D,
    on integers, with no power or product of the law.  Only when the
    identity or that check fails are both trivariate compositions
    materialized, so a failure names the first monomial where
    psi(psi(x, y), z) and psi(x, psi(y, z)) differ.
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

    witness = None
    if not (identity_ok and _differential_holds(law, n)):
        witness = _trivariate_associativity(psi)
    if witness:
        failures["associativity"] = witness
    return GroupAxiomReport(identity_ok, commutative_ok, witness is None, failures)


class AbelCoefficients(Record):
    """Closed-form coefficients of the two-parameter exponential group law."""

    __slots__ = ("a", "b", "betas")
    a: Fraction
    b: Fraction
    betas: tuple[Fraction, ...]

    def __init__(self, a: Fraction, b: Fraction, betas: tuple[Fraction, ...]) -> None:
        if betas and betas[0] != a + b:
            raise ValueError("beta_1 must equal a + b")
        super().__init__(a, b, betas)


def abel_group_coefficients(a: Rational, b: Rational, n: int) -> AbelCoefficients:
    """Bracket coefficients beta_1..beta_n of the Abel-exponential group law.

    beta_1 = a + b and, for m > 1,
    beta_m = (-1)^(m-1) / (m! (m-1)) * prod_{i+j=m-1, i,j>=0} (i a + j b).
    """
    if n < 1:
        raise ValueError("need at least one coefficient")
    af, bf = _frac(a), _frac(b)
    return AbelCoefficients(af, bf, tuple(_abel_betas(af + bf, af * bf, n)))


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
