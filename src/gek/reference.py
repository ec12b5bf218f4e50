"""A 40-digit reference for the float G and its inverse, in stdlib ``decimal``.

It holds the two-exponential G_{a,b}(t) = (e^(at) - e^(bt))/(a - b), with its
a = b limit t e^(at), which covers every registry G (identity at a = b = 0,
tsallis at b = 0, kaniadakis at a = -b, abel elsewhere); its G'; G^-1 by
bisection, then Newton; and the root of a truncated series G on [-h, h].

Every float argument converts to Decimal exactly, and every result is a
Decimal at ``DIGITS`` significant digits; compare a float with it in Decimal.
No command imports this module: it is for tests and for measuring a float
path against the truth.
"""

from __future__ import annotations

import decimal
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Sequence

DIGITS = 40
_BISECTIONS = 60  # bisection steps before Newton: the bracket is then 2^-60 of its width
_NEWTON = 60


def _context() -> decimal.Context:
    return decimal.Context(prec=DIGITS, Emax=10**9, Emin=-(10**9), traps=[decimal.InvalidOperation])


def G(a: float, b: float, t: float | Decimal) -> Decimal:
    """G_{a,b}(t) = (e^(at) - e^(bt))/(a - b); t e^(at) at a = b."""
    with decimal.localcontext(_context()):
        a, b, t = Decimal(a), Decimal(b), Decimal(t)
        if a == b:
            return t * (a * t).exp()
        return ((a * t).exp() - (b * t).exp()) / (a - b)


def G_prime(a: float, b: float, t: float | Decimal) -> Decimal:
    """G'_{a,b}(t) = (a e^(at) - b e^(bt))/(a - b); (1 + at) e^(at) at a = b."""
    with decimal.localcontext(_context()):
        a, b, t = Decimal(a), Decimal(b), Decimal(t)
        if a == b:
            return (1 + a * t) * (a * t).exp()
        return (a * (a * t).exp() - b * (b * t).exp()) / (a - b)


def domain_floor(a: float, b: float) -> Decimal | None:
    """The t below which G_{a,b} decreases: ln(lo/hi)/(hi - lo) for 0 < lo < hi, -1/a for a = b > 0; else None,
    where G increases on the whole line."""
    lo, hi = min(a, b), max(a, b)
    if lo <= 0:
        return None
    with decimal.localcontext(_context()):
        lo, hi = Decimal(lo), Decimal(hi)
        return -1 / lo if lo == hi else (lo / hi).ln() / (hi - lo)


def _solve(f: Callable[[Decimal], Decimal], df: Callable[[Decimal], Decimal], lo: Decimal, hi: Decimal) -> Decimal:
    """The root of the increasing f on [lo, hi], f(lo) < 0 < f(hi): bisection, then Newton from the bracket's middle."""
    for _ in range(_BISECTIONS):
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    t = (lo + hi) / 2
    for _ in range(_NEWTON):
        step = f(t) / df(t)
        t -= step
        if not step or abs(step) <= abs(t).scaleb(-DIGITS):
            break
    return t


def G_inverse(a: float, b: float, s: float | Decimal) -> Decimal:
    """The t with G_{a,b}(t) = s, on G's increasing domain: a doubling bracket from 0, then ``_solve``."""
    with decimal.localcontext(_context()):
        s = Decimal(s)
        if not s:
            return Decimal(0)
        floor = domain_floor(a, b)
        if s > 0:
            lo, hi = Decimal(0), Decimal(1)
            while G(a, b, hi) < s:
                lo, hi = hi, 2 * hi
        elif floor is not None:
            if s <= G(a, b, floor):
                raise ValueError(f"{s} is at or below the infimum of G_{{{a},{b}}}")
            lo, hi = floor, Decimal(0)
        else:
            if min(a, b) == 0 and s <= -1 / Decimal(max(a, b)):  # G tends to -1/max(a, b) as t -> -inf
                raise ValueError(f"{s} is at or below the infimum of G_{{{a},{b}}}")
            lo, hi = Decimal(-1), Decimal(0)
            while G(a, b, lo) > s:
                lo, hi = 2 * lo, lo
        return _solve(lambda t: G(a, b, t) - s, lambda t: G_prime(a, b, t), lo, hi)


def series_value(coeffs: Sequence[Fraction], t: float | Decimal) -> Decimal:
    """sum_k c_k t^k for rational c_k, by Horner at 40 digits."""
    with decimal.localcontext(_context()):
        t, acc = Decimal(t), Decimal(0)
        for c in reversed(coeffs):
            c = Fraction(c)
            acc = acc * t + Decimal(c.numerator) / Decimal(c.denominator)
        return acc


def series_root(coeffs: Sequence[Fraction], s: float | Decimal, h: float) -> Decimal:
    """The t in [-h, h] with sum_k c_k t^k = s, for a series increasing on [-h, h] whose value at -h is below s
    and at h above it."""
    derivative = [k * Fraction(c) for k, c in enumerate(coeffs)][1:]
    with decimal.localcontext(_context()):
        s, h = Decimal(s), Decimal(h)
        if not series_value(coeffs, -h) < s < series_value(coeffs, h):
            raise ValueError(f"{s} is outside the series' values on [-{h}, {h}]")
        return _solve(lambda t: series_value(coeffs, t) - s, lambda t: series_value(derivative, t), -h, h)
