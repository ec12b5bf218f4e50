"""Generalized group logarithms and exponentials.

Each group function G is strictly increasing with G(0) = 0 and G'(0) = 1.
It induces the logarithm ln_G(x) = G(gamma * ln x), the exponential
exp_G(x) = e^(G^-1(x)/gamma), and the two-argument law
chi(x, y) = G(G^-1(x) + G^-1(y)) that ln_G obeys on products.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from .errors import ConvergenceError, DomainError, ParameterError, RangeError
from .record import Record

if TYPE_CHECKING:
    from .series import TruncatedSeries

_RTOL = 2.0**-51  # a Newton or secant step of at most 2 eps |t|, 2 to 4 ulps of t, ends G^-1
_HTOL = 1e-6  # so does a Halley step below 1e-6 |t| with |q| < 1e-6: it leaves (q^2 + (step/t)^2) step < 1e-17 t
_MAXITER = 100


def _roots(name: str, jet: Callable[[float], tuple], rate: float, ss: Iterable[float], floor: float, least: float,
           top: float = math.inf, most: float | None = None) -> list[float]:
    """G^-1 of each s for an increasing G, by a safeguarded Halley iteration, or the first s's error.

    ``jet(t)`` gives (G(t), G'(t), G''(t)), G' or G'' possibly None; an OverflowError or RangeError reads as
    G = +-inf with t's sign.  The root of s > 0 lies in (0, top), G(top) = ``most``; that of s < 0 in (floor, 0),
    G(floor) = ``least`` where both are finite.  A non-finite s, or one at or below ``least``, is a RangeError.

    It starts from log1p(rate s)/rate, the root of the exponential with G's G'(0) and G''(0) = rate (else from s,
    or +-1).  Each step is Halley's on ln(G(t)/s), nearly linear where G grows exponentially (Newton's with no G'',
    on the bracket's secant with no G'), and narrows the bracket.  A step that leaves it, or is not half the step
    before last (Numerical Recipes' ``rtsafe``), is replaced by doubling t while the bracket is open, else by
    bisection.  It stops in ulps of t (``_RTOL``, ``_HTOL``), never at an absolute tolerance; at a bracket narrower
    than ``_RTOL`` |t|, or after ``_MAXITER`` steps, it takes the end nearer the root.  A NaN value of G, a bracket
    still open then, or a floor never reached raise ConvergenceError.
    """
    inf, log, log1p, rtol, htol, steps = math.inf, math.log, math.log1p, _RTOL, _HTOL, range(_MAXITER)
    roots = []
    for s in ss:
        if not -inf < s < inf:
            raise RangeError(f"{name}: cannot invert non-finite value {s}")
        if s <= least:
            raise RangeError(f"{name}: value {s} is at or below the range infimum {least}")
        if s > 0.0:
            lo, hi, flo, fhi = 0.0, top, -s, most - s if top < inf else None
        elif s < 0.0:
            lo, hi, flo, fhi = floor, 0.0, least - s if -inf < floor and -inf < least else None, -s
        else:
            roots.append(0.0)
            continue
        lo0, hi0, u = lo, hi, rate * s
        t = log1p(u) / rate if u > -0.5 and rate else s if -4.0 < s < 4.0 else math.copysign(1.0, s)
        if not lo < t < hi:  # rate s underflowed, or t passed a floor
            t = s if lo < s < hi else lo + 0.5 * (hi - lo)
        last = older = inf
        for _ in steps:
            try:
                g, g1, g2 = jet(t)
            except (OverflowError, RangeError):  # G(t) overflows a float
                g, g1, g2 = math.copysign(inf, t), None, None
            f = g - s
            if f < 0.0:
                lo, flo = t, f
            elif f > 0.0:
                hi, fhi = t, f
            elif f == 0.0:
                break
            else:
                raise ConvergenceError(f"root finder: NaN value at {t}")
            if g1 is None and flo is not None and fhi is not None:
                g1 = (fhi - flo) / (hi - lo)
            ratio = g / s
            if g1 and 0.0 < g1 < inf and 0.0 < ratio < inf:
                step, tol = log(ratio) * g / g1, rtol  # Newton's, negated
                if g2 is not None:
                    q = 0.5 * step * (g2 / g1 - g1 / g)
                    if -0.5 < q < 0.5:
                        step /= 1.0 - q
                        if -htol < q < htol:
                            tol = htol
                new = t - step
                if abs(step) <= tol * abs(t):
                    t = new
                    break
                if lo < new < hi and abs(step) <= 0.5 * abs(older):
                    older, last, t = last, -step, new
                    continue
            if hi == inf or lo == -inf:  # open on one side, where t has s's sign
                new = 2.0 * (lo if hi == inf else hi)
            else:
                new = lo + 0.5 * (hi - lo)
                if not lo < new < hi or hi - lo <= rtol * abs(new):
                    t = None
                    break
            older, last, t = last, new - t, new
        else:
            if hi == inf or lo == -inf:
                raise ConvergenceError(f"{name}: {'up' if hi == inf else 'down'}ward bracket expansion failed for {s}")
            t = None  # bisected at least every other step, the bracket is as narrow as G's rounding lets it get
        if t is None:  # the end of the bracket nearer the root
            if lo == lo0 and flo is None:  # the floor, never evaluated
                raise ConvergenceError(f"{name}: bracket did not reach {s} near the domain floor")
            t = hi if lo == lo0 or hi != hi0 and fhi < -flo else lo
        roots.append(t)
    return roots


def _inverse_list(g: GroupFunction, ss: Iterable[float]) -> list[float]:
    """``GroupFunction.inverse`` of each s: ``_roots`` on G's bracket from 0 to ``domain_min`` or +inf, with G, G'
    and G'' from the ``_jet`` of g's own class; any other G, a subclass that may override ``eval`` included, gives
    its ``eval``, its ``deriv`` where its class has one, and no G''."""
    if "_jet" in vars(type(g)):
        jet = g._jet
    else:
        deriv = None if type(g).deriv is GroupFunction.deriv else g.deriv

        def jet(t: float) -> tuple:
            return g.eval(t), deriv and deriv(t), None

    return _roots(g.name, jet, g._rate, ss, g.domain_min, g.range_min)


def _chi_scaled_block(g: GroupFunction, c: float, xs: list[float], ys: list[float]) -> list[float] | None:
    """``GroupFunction.chi_scaled(c, x, y)`` of each pair for ``g``, by one ``_inverse_list`` call and one
    ``g.eval_block`` at the sums of two roots, in the scalar law's float operations and order, so bit for bit; or
    None wherever the scalar law could raise: at c = 0, and where G^-1 or G at a sum of two roots raises."""
    n = len(xs)
    if not c or len(ys) != n:
        return None
    try:
        t = _inverse_list(g, [c * x for x in xs] + [c * y for y in ys])
        return [value / c for value in g.eval_block([u + v for u, v in zip(t, t[n:])])]
    except Exception:  # the scalar law raises it again
        return None


class GroupFunction:
    """Base class: an evaluatable G with closed-form or numeric inversion.

    Subclasses must provide ``eval``; the closed-form ones also give G' as ``deriv``.  The default ``inverse``
    and ``chi`` invert G by ``_roots``, a safeguarded Halley iteration on the bracket from 0 to ``domain_min`` or
    +inf, with G, G' and G'' from the class's ``_jet`` (abel's two ``expm1`` calls), else ``eval`` and ``deriv``.
    Every ``inverse``, closed form or numeric, refuses nan, inf and -inf with a RangeError, never passing a
    non-finite value on; so does every closed-form ``chi``, and every ``eval`` refuses nan by ``_check_domain`` or
    the horizon.
    """

    name = "group"
    domain_min = -math.inf  # evaluation domain is (domain_min, inf)
    range_min = -math.inf  # range is (range_min, inf)
    _rate = 0.0  # G''(0), which sets where the numeric G^-1 starts (``_roots``)

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
        """Solve G(t) = s to a few ulps of t: the one-element call of ``_inverse_list``.

        A non-finite s, or one at or below ``range_min``, is a RangeError; a
        bracket or root search that fails raises ``ConvergenceError``.
        """
        return _inverse_list(self, (s,))[0]

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
        """``[self.chi_scaled(c, x, y) for x, y in zip(xs, ys)]``, by one list G^-1 where it is numeric.

        A class that keeps this base class's ``inverse``, ``chi`` and
        ``chi_scaled`` (looked up when called) runs ``_chi_scaled_block``:
        every c x and c y in one ``_inverse_list`` call, of which the scalar
        ``inverse`` is the one-element call, and G at the sums by one
        ``eval_block``, so each value is the scalar law's bit for bit.  Where
        that hands back, and for every other class, the scalar
        ``chi_scaled`` runs per pair, so its first error is the scalar one.
        """
        cls = type(self)
        if (cls.inverse is GroupFunction.inverse and cls.chi is GroupFunction.chi
                and cls.chi_scaled is GroupFunction.chi_scaled):
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
        d, self._rate = self.a - self.b, self.a + self.b
        self._coefs = (self.a, self.b, d, self.a / d, self.b / d, self.a * self.a / d, self.b * self.b / d)
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

    def _jet(self, t: float) -> tuple[float, float, float]:
        """G, G' and G'' at t for ``_roots``, from two ``expm1`` calls, which keep G's digits at small |t|."""
        a, b, d, ad, bd, aad, bbd = self._coefs
        ea, eb = math.expm1(a * t), math.expm1(b * t)
        return (ea - eb) / d, 1.0 + ad * ea - bd * eb, self._rate + aad * ea - bbd * eb


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
        slope = series.derivative()
        self._slopes, self._bends = [float(c) for c in slope.coeffs], [float(c) for c in slope.derivative().coeffs]
        self._rate = self._bends[0]

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

    def _jet(self, t: float) -> tuple[float, float, float]:
        """G, G' and G'' at t for ``_roots``, by Horner on the series and its two derivative polynomials."""
        return _horner(self._coeffs, t), _horner(self._slopes, t), _horner(self._bends, t)

    def inverse(self, s: float) -> float:
        """G^-1(s) on [-horizon, horizon] by ``_roots``; an s outside G's values there is a RangeError."""
        lo, hi = self.eval(-self.horizon), self.eval(self.horizon)
        if not lo <= s <= hi:
            raise RangeError(f"series G: {s} outside the horizon-limited range [{lo}, {hi}]")
        if s == lo or s == hi:  # each end of the horizon is its own root
            return -self.horizon if s == lo else self.horizon
        return _roots(self.name, self._jet, self._rate, (s,), -self.horizon, lo, self.horizon, hi)[0]


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
    """t with G(t) = s, via closed form where available, else the safeguarded Halley iteration of ``_roots``."""
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
