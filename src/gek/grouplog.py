"""Generalized group logarithms and exponentials.

Each group function G is strictly increasing with G(0) = 0 and G'(0) = 1.
It induces the logarithm ln_G(x) = G(gamma * ln x), the exponential
exp_G(x) = e^(G^-1(x)/gamma), and the two-argument law
chi(x, y) = G(G^-1(x) + G^-1(y)) that ln_G obeys on products.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Mapping

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

    def _bracket(self, s: float) -> tuple[float, float]:
        if s > 0.0:
            t, prev = 1.0, 0.0
            for _ in range(200):
                try:
                    value = self.eval(t)
                except (OverflowError, RangeError):  # G(t) overflows a float
                    value = math.inf
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
                prev, t = t, 2.0 * t
            raise ConvergenceError(f"{self.name}: upward bracket expansion failed for {s}")
        if math.isfinite(self.domain_min):
            # halve the gap toward the open domain floor until G dips below s
            t = 0.5 * self.domain_min
            for _ in range(200):
                if t <= self.domain_min:
                    break
                if self.eval(t) <= s:
                    return t, 0.0
                t = 0.5 * (t + self.domain_min)
            raise ConvergenceError(f"{self.name}: bracket did not reach {s} near the domain floor")
        t = -1.0
        for _ in range(200):
            if self.eval(t) <= s:
                return t, 0.0
            t *= 2.0
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
