"""Generalized group logarithms and exponentials.

Each group function G is strictly increasing with G(0) = 0 and G'(0) = 1.
It induces the logarithm ln_G(x) = G(gamma * ln x), the exponential
exp_G(x) = e^(G^-1(x)/gamma), and the two-argument law
chi(x, y) = G(G^-1(x) + G^-1(y)) that ln_G obeys on products.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping

from .errors import ConvergenceError, DomainError, ParameterError, RangeError
from .record import Record

if TYPE_CHECKING:
    from .series import TruncatedSeries

_XTOL = 1e-15  # absolute root tolerance of the numeric G^-1
_RTOL = 8.9e-16  # relative root tolerance: about 4 machine epsilons, the least brentq accepts
_MAXITER = 100


def _brent(f: Callable[[float], float], lo: float, hi: float) -> float:
    """A root of f in [lo, hi] by Brent's method (Brent 1973, ch. 4).

    This mirrors scipy's ``brentq.c`` step for step: the same floating-point
    operations in the same order, so every root, and with it every CLI output
    that rests on a numeric G^-1, is bit-identical to the one ``brentq`` gave
    with the same tolerances.  A bracket whose ends have equal signs, a NaN
    value, or no convergence in _MAXITER steps raises ``ConvergenceError``.
    """
    xpre, xcur = lo, hi
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre != fpre or fcur != fcur:
        raise ConvergenceError(f"root finder: NaN value at the bracket [{lo}, {hi}]")
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):  # both nonzero and not NaN, so this is scipy's signbit test
        raise ConvergenceError(f"root finder: no sign change on [{lo}, {hi}]")
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate (inverse quadratic)
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # C divides an underflowed denominator to inf or nan, and so bisects
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if fcur != fcur:
            raise ConvergenceError(f"root finder: NaN value at {xcur}")
    raise ConvergenceError(f"root finder: no convergence in {_MAXITER} iterations on [{lo}, {hi}]")


def _brent_block(g: Callable[[list[float]], list[float]], s, xpre, xcur, gpre, gcur):
    """``_brent(lambda t: G(t) - s[i], xpre[i], xcur[i])`` for every i at once, or None.

    ``g`` maps a list of t to the list of G(t), as ``GroupFunction.eval_block``
    does.  The other arguments are float arrays, with ``gpre`` and ``gcur`` G
    at the two ends.  Each element takes ``_brent``'s IEEE operations in
    ``_brent``'s order, in numpy: its branches become masks and ``where``, and
    Python's ``min(a, b)`` is ``where(b < a, b, a)``, which keeps ``a`` when
    either is NaN.  Each iteration evaluates G at the new points of its live
    elements by one call of ``g``, which gives each element's scalar value.
    So every root is the one ``_brent`` returns.  Wherever ``_brent`` would
    raise, this returns None, and the caller runs the scalar path: a NaN
    value, ends of one sign, an error of G, or an element left after
    _MAXITER steps.
    """
    import numpy as np

    with np.errstate(all="ignore"):  # here and below: NaN and inf as Python's floats make them, silently
        fpre, fcur = gpre - s, gcur - s
    if np.isnan(fpre).any() or np.isnan(fcur).any():
        return None
    root = np.where(fpre == 0, xpre, xcur)  # an end where f is 0 is its root, the first end first
    live = np.flatnonzero((fpre != 0) & (fcur != 0))
    xpre, xcur, fpre, fcur, s = xpre[live], xcur[live], fpre[live], fcur[live], s[live]
    if np.any((fpre < 0) == (fcur < 0)):
        return None
    if not live.size:
        return root
    xblk = fblk = spre = scur = np.zeros(live.size)
    for _ in range(_MAXITER):
        with np.errstate(all="ignore"):
            flip = (fpre != 0) & (fcur != 0) & ((fpre < 0) != (fcur < 0))
            xblk, fblk, gap = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk), xcur - xpre
            spre, scur = np.where(flip, gap, spre), np.where(flip, gap, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
            fpre, fcur, fblk = np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)
            delta = (_XTOL + _RTOL * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            done = (fcur == 0) | (np.abs(sbis) < delta)
            if done.any():
                root[live[done]] = xcur[done]
                keep = ~done
                if not keep.any():
                    return root
                live, s, delta, sbis = live[keep], s[keep], delta[keep], sbis[keep]
                xpre, xcur, xblk, spre = xpre[keep], xcur[keep], xblk[keep], spre[keep]
                fpre, fcur, fblk, scur = fpre[keep], fcur[keep], fblk[keep], scur[keep]
            # no divisor of the branch an element takes is 0, so none of _brent's divisions raises: the first step
            # interpolates, with |fcur| < |fpre|; after it xpre is the last xcur, which a step of at least delta
            # moved; and xblk = xcur has ended the search above.  The other branch's lanes are discarded
            step = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            denom = dblk * dpre * (fblk - fpre)
            extrapolated = np.where(denom != 0, -fcur * (fblk * dblk - fpre * dpre) / denom, np.inf)
            stry = np.where(xpre == xblk, -fcur * (xcur - xpre) / (fcur - fpre), extrapolated)
            bound, least = np.abs(spre), 3 * np.abs(sbis) - delta
            short = step & (2 * np.abs(stry) < np.where(least < bound, least, bound))
            spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        try:
            gcur = np.array(g(xcur.tolist()), float)
        except Exception:
            return None
        with np.errstate(all="ignore"):
            fcur = gcur - s
        if np.isnan(fcur).any():
            return None
    return None


def _inverse_block(g: GroupFunction, s):
    """``GroupFunction.inverse`` of each element of the float array ``s`` for ``g``, or None.

    ``_bracket`` walks one of the two ladders of ``g._ladder`` for every s, so
    each is walked here once, as far as the farthest s needs, and each s takes
    the bracket of the first point that ``_bracket`` would stop at.  ``_brent_block`` then
    solves every element at once, evaluating G by ``g.eval_block``, one call
    per iteration.  It returns None wherever the scalar path could raise or
    leave this bracket: a non-finite s, an s at or below ``range_min``, a
    ladder point that overflows (which ``_bracket`` shrinks), an error of G,
    an end of the ladder, or an even bracket.
    """
    import numpy as np

    if not np.isfinite(s).all() or (s <= g.range_min).any():
        return None
    root, lo, hi, glo, ghi = (np.zeros(len(s)) for _ in range(5))
    up, down = np.flatnonzero(s > 0.0), np.flatnonzero(s < 0.0)
    if not up.size and not down.size:
        return root
    try:
        g0 = g.eval(0.0)
        if up.size:
            ts, gs, top = [0.0], [g0], s[up].max()
            for t, value in g._ladder(True):
                ts.append(t)
                gs.append(value)
                if value >= top:
                    break
            else:
                return None
            ts, gs = np.array(ts), np.array(gs, float)
            k = (gs[1:] >= s[up, None]).argmax(axis=1) + 1
            if np.isinf(gs[k]).any():
                return None
            lo[up], hi[up], glo[up], ghi[up] = ts[k - 1], ts[k], gs[k - 1], gs[k]
        if down.size:
            ts, gs, least = [], [], s[down].min()
            for t, value in g._ladder(False):
                ts.append(t)
                gs.append(value)
                if value <= least:
                    break
            else:
                return None
            ts, gs = np.array(ts), np.array(gs, float)
            k = (gs <= s[down, None]).argmax(axis=1)
            lo[down], glo[down], ghi[down] = ts[k], gs[k], g0
    except Exception:  # the scalar path raises it again
        return None
    solve = np.flatnonzero(s != 0.0)  # G^-1(0) is 0.0, of either zero
    lo, hi = lo[solve], hi[solve]
    if (lo == hi).any():
        return None
    roots = _brent_block(g.eval_block, s[solve], lo, hi, glo[solve], ghi[solve])
    if roots is None:
        return None
    root[solve] = roots
    return root


def _chi_scaled_block(g: GroupFunction, c: float, xs: list[float], ys: list[float]) -> list[float] | None:
    """``GroupFunction.chi_scaled(c, x, y)`` of each pair for ``g``, from one ``_inverse_block``; or None.

    G at the sums of two roots is one ``g.eval_block`` call.  It returns None
    wherever the scalar law could raise: at c = 0, where the inverse block
    hands back, or where G raises at a sum of two roots.
    """
    import numpy as np

    n = len(xs)
    if not c or len(ys) != n:
        return None
    with np.errstate(all="ignore"):  # an overflow is inf, as a Python float's is
        u = c * np.concatenate((np.asarray(xs, float), np.asarray(ys, float)))
    t = _inverse_block(g, u)
    if t is None:
        return None
    try:
        law = np.array(g.eval_block((t[:n] + t[n:]).tolist()), float)
    except Exception:
        return None
    with np.errstate(all="ignore"):
        return (law / c).tolist()


class GroupFunction:
    """Base class: an evaluatable G with closed-form or numeric inversion.

    Subclasses must provide ``eval``; the closed-form ones also give G' as
    ``deriv``, which the series-defined G does not.  The default ``inverse``
    and ``chi`` use monotone bracketing plus Brent root-finding (``_brent``,
    in-repo, following scipy's ``brentq``), and rely on ``domain_min`` /
    ``range_min`` for admissibility checks.  Every ``inverse``, closed form
    or numeric, starts with ``_check_finite``: G^-1 of nan, inf or -inf is a
    RangeError, never a non-finite value passed on.  So does every closed-form
    ``chi``, and every ``eval`` refuses nan by ``_check_domain`` or the horizon.
    """

    name = "group"
    domain_min = -math.inf  # evaluation domain is (domain_min, inf)
    range_min = -math.inf  # range is (range_min, inf)

    def eval(self, t: float) -> float:
        raise NotImplementedError

    def eval_block(self, ts: list[float]) -> list[float]:
        """``[self.eval(t) for t in ts]``: G at each t, or the first element's scalar error.

        It runs G's ``list_form`` with c = 1, which is exact, and the scalar
        map wherever that hands back.
        """
        values = self.list_form(ts, 1.0)
        return [self.eval(t) for t in ts] if values is None else values

    def list_form(self, ts: list[float], c: float, ln: bool = False, floor: float | None = None) -> list[float] | None:
        """``[self.eval(t) / c for t in ts]`` by one comprehension, or None where the caller must run the scalar map.

        With ``ln``, each t is ``math.log`` of its element.  It runs only for an
        instance of a registry class itself (``_LISTED``): a subclass, the base
        class and the series G have none.  The class's ``_terms(ts, c, floor)``
        is its comprehension, which makes the scalar path's ``math`` calls and
        IEEE operations in their order, so each value is the scalar one bit for
        bit, and drops each t not above ``floor`` (``domain_min`` by default;
        NaN is never above).  It hands back on a dropped t and on a ``math``
        error: a log of an element <= 0 or an overflow.  The caller then runs
        the scalar map outside the handler, so the error it raises, and the
        chain a traceback shows, are the scalar ones.
        """
        if type(self) not in _LISTED:
            return None
        try:
            out = self._terms(map(math.log, ts) if ln else ts, c, self.domain_min if floor is None else floor)
        except (ValueError, ArithmeticError):
            return None
        return out if len(out) == len(ts) else None

    def deriv(self, t: float) -> float:
        raise NotImplementedError

    def params(self) -> dict:
        return {}

    def _key(self) -> tuple:
        """What tells two G of one type apart: their parameters."""
        return tuple(self.params().items())

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self), self._key()))

    def _check_finite(self, s: float) -> None:
        if not math.isfinite(s):
            raise RangeError(f"{self.name}: cannot invert non-finite value {s}")

    def _check_domain(self, t: float) -> None:
        if not t > self.domain_min:  # fails closed: nan is outside every domain
            raise DomainError(
                f"{self.name}: argument {t} is outside the increasing domain (> {self.domain_min})"
            )

    def inverse(self, s: float) -> float:
        """Solve G(t) = s by bracketing from 0 and Brent's method.

        The Brent method is ``_brent`` in this module, which follows scipy's
        ``brentq`` step for step and returns the same float.  A bracket or root
        search that fails raises ``ConvergenceError``.
        """
        self._check_finite(s)
        if s <= self.range_min:
            raise RangeError(f"{self.name}: value {s} is at or below the range infimum {self.range_min}")
        if s == 0.0:
            return 0.0
        lo, hi = self._bracket(s)
        if lo == hi:
            return lo
        return _brent(lambda t: self.eval(t) - s, lo, hi)

    def _ladder(self, upward: bool) -> Iterator[tuple[float, float]]:
        """The (t, G(t)) points that ``_bracket`` walks from 0, at most 200, each evaluated when it is reached.

        Upward t = 1, 2, 4, ..., where a G(t) that overflows a float reads as
        inf; downward, halving the gap toward a finite domain floor (ending
        where t reaches it), else t = -1, -2, -4, ....
        """
        floor = self.domain_min
        finite = math.isfinite(floor)
        t = 1.0 if upward else 0.5 * floor if finite else -1.0
        for _ in range(200):
            if upward:
                try:
                    value = self.eval(t)
                except (OverflowError, RangeError):  # G(t) overflows a float
                    value = math.inf
                yield t, value
                t *= 2.0
            elif t <= floor:
                return
            else:
                yield t, self.eval(t)
                t = 0.5 * (t + floor) if finite else 2.0 * t

    def _bracket(self, s: float) -> tuple[float, float]:
        if s > 0.0:
            prev = 0.0
            for t, value in self._ladder(True):
                if value >= s:
                    if math.isinf(value):
                        # shrink back into the representable region
                        hi = t
                        for _ in range(200):
                            mid = 0.5 * (prev + hi)
                            try:
                                v = self.eval(mid)
                            except (OverflowError, RangeError):
                                v = math.inf
                            if math.isfinite(v) and v >= s:
                                return prev, mid
                            if math.isfinite(v):
                                prev = mid
                            else:
                                hi = mid
                        raise ConvergenceError(f"{self.name}: bracket shrink failed for {s}")
                    return prev, t
                prev = t
            raise ConvergenceError(f"{self.name}: upward bracket expansion failed for {s}")
        for t, value in self._ladder(False):
            if value <= s:
                return t, 0.0
        if math.isfinite(self.domain_min):
            raise ConvergenceError(f"{self.name}: bracket did not reach {s} near the domain floor")
        raise ConvergenceError(f"{self.name}: downward bracket expansion failed for {s}")

    def chi(self, x: float, y: float) -> float:
        """The group law G(G^-1(x) + G^-1(y)); overridden where a closed form exists."""
        return self.eval(self.inverse(x) + self.inverse(y))

    def eval_scaled(self, c: float, t: float) -> float:
        """G(c t)/c: the G of the group entropy of order alpha = 1 - c."""
        return self.eval(c * t) / c

    def chi_scaled(self, c: float, x: float, y: float) -> float:
        """chi(c x, c y)/c: the group law of G(c t)/c."""
        return self.chi(c * x, c * y) / c

    def chi_scaled_block(self, c: float, xs: list[float], ys: list[float]) -> list[float]:
        """``[self.chi_scaled(c, x, y) for x, y in zip(xs, ys)]``, by one block G^-1 where it is numeric.

        A class that keeps this base class's numeric ``inverse``, ``_bracket``,
        ``chi`` and ``chi_scaled`` (looked up when called) inverts every c x and
        c y at once, by ``_inverse_block``, and evaluates G on each list of
        points by one ``eval_block`` call, which gives each element's scalar
        ``eval``; each value is the scalar law's, bit for bit.  Where the
        block hands back, and for every other class, the scalar
        ``chi_scaled`` runs per pair, so its values and its first error are
        the scalar path's.
        """
        cls = type(self)
        if (cls.inverse is GroupFunction.inverse and cls._bracket is GroupFunction._bracket
                and cls.chi is GroupFunction.chi and cls.chi_scaled is GroupFunction.chi_scaled):
            law = _chi_scaled_block(self, c, xs, ys)
            if law is not None:
                return law
        return [self.chi_scaled(c, x, y) for x, y in zip(xs, ys)]

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params().items())
        return f"{self.name}({inner})" if inner else self.name


class IdentityGroup(GroupFunction):
    """G(t) = t: the additive law, standard logarithm and exponential."""

    name = "identity"

    def eval(self, t: float) -> float:
        self._check_domain(t)
        return t

    def deriv(self, t: float) -> float:
        return 1.0

    def _terms(self, ts: Iterable[float], c: float, floor: float) -> list[float]:
        return [t / c for t in ts if t > floor]

    def inverse(self, s: float) -> float:
        self._check_finite(s)
        return s

    def chi(self, x: float, y: float) -> float:
        self._check_finite(x)
        self._check_finite(y)
        return x + y

    # exact: scaling by c and dividing by c again would round
    def eval_scaled(self, c: float, t: float) -> float:
        self._check_domain(t)
        return t

    def chi_scaled(self, c: float, x: float, y: float) -> float:
        return x + y  # unchecked: a nan entropy value must fail its composability trial, not end the check


class MultiplicativeGroup(GroupFunction):
    """G(t) = (e^((1-q) t) - 1)/(1 - q): carrier of x + y + (1-q) x y.

    Induces the q-deformed logarithm (x^(1-q) - 1)/(1-q); expm1 and log1p keep G
    and G^-1 accurate for every float q != 1, however close to 1.
    """

    name = "multiplicative"

    def __init__(self, q: float):
        if q == 1 or not math.isfinite(q):  # fails closed: G is nan at q = nan and 0 at t = 0.1, q = inf
            raise ParameterError(f"multiplicative family requires a finite q != 1, got {q}")
        self.q = float(q)
        self.r = 1.0 - self.q
        if self.r > 0:
            self.range_min = -1.0 / self.r

    def params(self) -> dict:
        return {"q": self.q}

    def eval(self, t: float) -> float:
        self._check_domain(t)
        try:
            return math.expm1(self.r * t) / self.r
        except OverflowError:
            raise RangeError(f"multiplicative(q={self.q}): G({t}) overflows a float") from None

    def deriv(self, t: float) -> float:
        return math.exp(self.r * t)

    def _terms(self, ts: Iterable[float], c: float, floor: float) -> list[float]:
        r, expm1 = self.r, math.expm1
        return [expm1(r * t) / r / c for t in ts if t > floor]

    def inverse(self, s: float) -> float:
        self._check_finite(s)
        u = self.r * s
        if u <= -1.0:
            raise RangeError(f"multiplicative(q={self.q}): {s} outside range")
        return math.log1p(u) / self.r

    def chi(self, x: float, y: float) -> float:
        self._check_finite(x)
        self._check_finite(y)
        return x + y + self.r * x * y


class KaniadakisGroup(GroupFunction):
    """G(t) = sinh(k t)/k: carrier of x sqrt(1 + k^2 y^2) + y sqrt(1 + k^2 x^2)."""

    name = "kaniadakis"

    def __init__(self, k: float):
        if not -1.0 < k < 1.0 or k == 0:
            raise ParameterError("kaniadakis family requires -1 < k < 1, k != 0")
        self.k = float(k)

    def params(self) -> dict:
        return {"k": self.k}

    def eval(self, t: float) -> float:
        self._check_domain(t)
        try:
            return math.sinh(self.k * t) / self.k
        except OverflowError:
            raise RangeError(f"kaniadakis(k={self.k}): G({t}) overflows a float") from None

    def deriv(self, t: float) -> float:
        return math.cosh(self.k * t)

    def _terms(self, ts: Iterable[float], c: float, floor: float) -> list[float]:
        k, sinh = self.k, math.sinh
        return [sinh(k * t) / k / c for t in ts if t > floor]

    def inverse(self, s: float) -> float:
        self._check_finite(s)
        return math.asinh(self.k * s) / self.k

    def chi(self, x: float, y: float) -> float:
        self._check_finite(x)
        self._check_finite(y)
        k2 = self.k * self.k
        return x * math.sqrt(1.0 + k2 * y * y) + y * math.sqrt(1.0 + k2 * x * x)


class AbelGroup(GroupFunction):
    """G(t) = (e^(a t) - e^(b t))/(a - b), the two-parameter exponential.

    For min(a, b) > 0 the function is increasing only on an open half-line;
    evaluation outside it is a domain error.  Inversion is numeric.
    """

    name = "abel"

    def __init__(self, a: float, b: float):
        if not math.isfinite(a) or not math.isfinite(b):
            raise ParameterError(f"abel family requires finite a and b, got {a} and {b}")
        if a == b:
            raise ParameterError("abel family requires a != b")
        if max(a, b) <= 0:
            raise ParameterError("abel family requires max(a, b) > 0")
        self.a = float(a)
        self.b = float(b)
        hi, lo = max(self.a, self.b), min(self.a, self.b)
        if lo > 0:
            # lo / hi underflows to 0 only for extreme a, b; then log(lo / hi) is a difference of logs
            ratio = lo / hi
            self.domain_min = (math.log(ratio) if ratio > 0 else math.log(lo) - math.log(hi)) / (hi - lo)
            self.range_min = self.formula(self.domain_min)
        elif lo == 0:
            self.range_min = -1.0 / hi

    def params(self) -> dict:
        return {"a": self.a, "b": self.b}

    def formula(self, t: float) -> float:
        """G's defining expression at t, also where ``eval`` refuses t as outside the increasing domain."""
        try:
            return (math.exp(self.a * t) - math.exp(self.b * t)) / (self.a - self.b)
        except OverflowError:
            raise RangeError(f"abel: G({t}) overflows a float") from None

    def eval(self, t: float) -> float:
        self._check_domain(t)
        return self.formula(t)

    def _terms(self, ts: Iterable[float], c: float, floor: float) -> list[float]:
        """zab passes ``floor`` = -inf, since it evaluates ``formula`` also off the increasing domain."""
        a, b, d, exp = self.a, self.b, self.a - self.b, math.exp
        return [(exp(a * t) - exp(b * t)) / d / c for t in ts if t > floor]

    def deriv(self, t: float) -> float:
        return (self.a * math.exp(self.a * t) - self.b * math.exp(self.b * t)) / (self.a - self.b)


class SeriesGroup(GroupFunction):
    """A G defined by a truncated series, evaluated by Horner inside a horizon.

    Truncated series are only locally faithful, so evaluation is refused for
    |t| beyond the horizon and inversion is restricted to the corresponding
    value interval.
    """

    name = "series"

    def __init__(self, series: TruncatedSeries, horizon: float = 1.0):
        if series[0] != 0 or series[1] != 1:
            raise ParameterError("series-defined G requires c_0 = 0 and c_1 = 1")
        if not 0 < horizon < math.inf:  # fails closed: a nan horizon would never refuse a t
            raise ParameterError("horizon must be positive and finite")
        self.series = series
        self.horizon = float(horizon)
        self._coeffs = [float(c) for c in series.coeffs]

    def params(self) -> dict:
        return {"order": self.series.order, "horizon": self.horizon}

    def _key(self) -> tuple:
        return self.series, self.horizon

    def _check_horizon(self, t: float) -> None:
        if not abs(t) <= self.horizon:  # fails closed: nan is beyond every horizon
            raise DomainError(f"series G evaluated at {t} beyond horizon {self.horizon}")

    def eval(self, t: float) -> float:
        self._check_horizon(t)
        return _horner(self._coeffs, t)

    def inverse(self, s: float) -> float:
        lo, hi = self.eval(-self.horizon), self.eval(self.horizon)
        if not lo <= s <= hi:
            raise RangeError(f"series G: {s} outside the horizon-limited range [{lo}, {hi}]")
        if s == 0.0:
            return 0.0
        return _brent(lambda t: self.eval(t) - s, -self.horizon, self.horizon)


def _horner(coeffs: list[float], t: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


class GroupFamily(Record):
    """One family of group functions G: its names, parameter names, float G and exact carrier.

    ``build`` constructs and validates the float G, and ``carrier`` the exact
    truncated series of G, both from the parameters in ``params`` order
    (``carrier`` takes the series order as one more argument).  The carrier
    is held by its name in ``gek.series``, which loads on first use: the
    float commands never need it.
    """

    __slots__ = ("name", "aliases", "params", "build", "carrier_name")
    name: str
    aliases: tuple[str, ...]
    params: tuple[str, ...]
    build: Callable[..., GroupFunction]
    carrier_name: str

    @property
    def carrier(self) -> Callable[..., TruncatedSeries]:
        from . import series

        return getattr(series, self.carrier_name)

    def values(self, params: Mapping) -> tuple:
        """The parameter values in ``params`` order, after ``check_params``."""
        check_params(self.name, self.params, params)
        return tuple(params[w] for w in self.params)


_REGISTRY = (
    GroupFamily("id", ("identity",), (), IdentityGroup, "identity_series"),
    GroupFamily("tsallis", ("multiplicative",), ("q",), MultiplicativeGroup, "tsallis_exp_series"),
    GroupFamily("kaniadakis", (), ("k",), KaniadakisGroup, "kaniadakis_exp_series"),
    GroupFamily("abel", (), ("a", "b"), AbelGroup, "abel_exp_series"),
)
_LISTED = frozenset(family.build for family in _REGISTRY)  # the classes whose own instances run ``_terms``
_BY_NAME = {name: family for family in _REGISTRY for name in (family.name, *family.aliases)}


def check_params(owner: str, wanted: tuple[str, ...], params: Mapping) -> None:
    """Reject missing, unknown and non-finite parameters."""
    missing = [w for w in wanted if w not in params]
    extra = [p for p in params if p not in wanted]
    if missing or extra:
        raise ParameterError(f"{owner} expects parameters {wanted}; missing {missing}, unknown {extra}")
    bad = [k for k, v in params.items() if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise ParameterError(f"{owner}: parameters {bad} must be finite")


def group_family(name: str) -> GroupFamily:
    """Look up a group family by its name or an alias."""
    family = _BY_NAME.get(name.lower())
    if family is None:
        raise ParameterError(f"unknown group function {name!r}; choose from {sorted(_BY_NAME)}")
    return family


def group_function(name: str, **params) -> GroupFunction:
    """Construct a named closed-form group function, validating its parameters."""
    family = group_family(name)
    return family.build(*family.values(params))


class GroupLogarithm(Record):
    """ln_G(x) = G(gamma * ln x) together with its inverse exponential."""

    __slots__ = ("g", "gamma")
    g: GroupFunction
    gamma: float

    def __init__(self, g: GroupFunction, gamma: float = 1.0) -> None:
        if gamma == 0 or not math.isfinite(gamma):
            raise ParameterError(f"gamma must be nonzero and finite, got {gamma}")
        super().__init__(g, gamma)


def eval_ln_G(lg: GroupLogarithm, x: float) -> float:
    """The generalized logarithm at x > 0; vanishes at x = 1."""
    if not x > 0:  # fails closed: ln_G(nan) is refused, not nan
        raise DomainError(f"ln_G requires a positive argument, got {x}")
    return lg.g.eval(lg.gamma * math.log(x))


def eval_G_inverse(g: GroupFunction, s: float) -> float:
    """t with G(t) = s, via closed form where available, else bracketed root-finding."""
    return g.inverse(s)


def eval_exp_G(lg: GroupLogarithm, x: float) -> float:
    """The generalized exponential e^(G^-1(x)/gamma), inverse of eval_ln_G."""
    try:
        return math.exp(lg.g.inverse(x) / lg.gamma)
    except OverflowError:
        raise RangeError(f"exp_G({x}) overflows a float") from None


def chi(g: GroupFunction, x: float, y: float) -> float:
    """The composition law G(G^-1(x) + G^-1(y))."""
    return g.chi(x, y)


def check_concavity_condition(a_seq) -> bool:
    """Coefficient test guaranteeing a concave ln_G: a_k > 0 and a_k > (k+1) a_{k+1}."""
    seq = list(a_seq)
    if not seq:
        raise ValueError("need at least one coefficient")
    if not all(0 < a < math.inf for a in seq):  # a nan or infinite coefficient guarantees nothing
        return False
    return all(seq[k] > (k + 2) * seq[k + 1] for k in range(len(seq) - 1))
