"""Growth laws W(N) and the extensivity check: scalar ``math`` only, no numpy.

A family that has one grows its phase space as W(N) with S(uniform over W(N))
~ lam * N: through G's inverse for the Z-entropies, W(N) = exp_G((1 - alpha)
lam N)^(1/(1 - alpha)), and as a power of N for the two-parameter trace-form
entropy.  Every value here is a scalar, so ``gek extensivity solve`` and the
extensivity suite of ``gek verify`` run without a vector library;
``gek.properties`` re-exports these names beside its sampled checks.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import DomainError, ParameterError, RangeError, check_horizon, check_rate
from .grouplog import GroupFunction, IdentityGroup
from .record import Record

if TYPE_CHECKING:
    from .entropy import EntropySpec


class PropertyReport(Record):
    """Outcome of one randomized property check."""

    __slots__ = ("name", "trials", "failures", "worst_residual", "seed", "skipped", "witness")

    def __init__(
        self, name: str, trials: int, failures: int, worst_residual: float, seed: int, skipped: int = 0,
        witness: dict | None = None,
    ) -> None:
        super().__init__(name, trials, failures, worst_residual, seed, skipped, {} if witness is None else witness)

    @property
    def passed(self) -> bool:
        # a report whose every trial was skipped evaluated nothing, so it fails closed
        return self.failures == 0 and self.skipped < self.trials

    def as_dict(self) -> dict:
        return {
            "property": self.name,
            "trials": self.trials,
            "failures": self.failures,
            "skipped": self.skipped,
            "worst_residual": self.worst_residual,
            "seed": self.seed,
            "witness": self.witness,
            "passed": self.passed,
        }


class GrowthLaw(Record):
    """Closed-form phase-space growth W(N), kept in log form to avoid overflow."""

    __slots__ = ("kind", "lam", "alpha", "group", "valid", "restricted")

    def __init__(
        self, kind: str, lam: float = 0.0, alpha: float | None = None, group: GroupFunction | None = None,
        valid: bool = True, restricted: bool = False,
    ) -> None:
        super().__init__(kind, lam, alpha, group, valid, restricted)  # kind: "exponential" | "group"

    def log_w(self, n: float) -> float:
        if not n >= 1:
            raise ValueError("the growth law is defined for N >= 1")
        if self.kind == "exponential":
            return self.lam * n
        c = 1.0 - self.alpha
        return self.group.inverse(c * self.lam * n) / c

    def w(self, n: float) -> float:
        lw = self.log_w(n)
        return math.exp(lw) if lw < 709 else math.inf

    def describe(self) -> str:
        if self.kind == "exponential":
            return f"W(N) = exp({self.lam} N)"
        return f"W(N) = exp_G({1 - self.alpha} * {self.lam} * N)^(1/{1 - self.alpha})"


def sample_grid(horizon: float, points: int) -> list[int]:
    """The distinct integers of ``points`` >= 2 log-spaced values from 1 to ``horizon``, rounded, ascending.

    The exponents are numpy's ``linspace(0, log10(horizon), points)``, i * step
    with the last one exactly log10(horizon), and each value is libm's
    ``10.0 ** e`` rounded half to even, so the grid is the same on every numpy
    dispatch tier (ROADMAP item 16).  It equals the distinct values of
    ``np.round(np.logspace(0, log10(horizon), points))`` at every integral
    horizon up to 1e5 and every power of ten up to 1e18, at 9 and 25 points.
    Above a horizon of about 3e13 a point can differ by one from that grid
    where numpy's AVX-512 ``power`` differs from libm's ``pow`` by an ulp: 1112
    points over 120,000 random grids, the smallest at a horizon of 3.0e13.
    """
    stop = math.log10(horizon)
    step = stop / (points - 1)
    return sorted({round(10.0 ** (i * step)) for i in range(points - 1)} | {round(10.0**stop)})


def solve_growth_law(spec: EntropySpec, lam: float, horizon: float = 1e4) -> GrowthLaw:
    """Solve S(uniform over W(N)) ~ lam * N for W(N) through the group exponential.

    The returned law carries a sampled validity flag: W real and increasing
    with divergent log up to the horizon.  A range failure of the exponential
    marks the law as restricted rather than raising.
    """
    check_rate(lam)
    check_horizon(horizon)
    if spec.growth != "group":
        raise ParameterError(f"family {spec.family} has no group exponential to solve a growth law with")
    g = spec.group
    kind = "exponential" if isinstance(g, IdentityGroup) else "group"
    law = GrowthLaw(kind, lam, spec.alpha, g)

    values = []
    restricted = False
    for n in sample_grid(horizon, 25):
        try:
            values.append(law.log_w(float(n)))
        except (RangeError, DomainError):
            restricted = True
            break
    increasing = all(a < b for a, b in zip(values, values[1:]))
    divergent = bool(values) and values[-1] > values[0] and values[-1] > 1.0
    valid = (not restricted) and increasing and divergent and all(map(math.isfinite, values))
    return GrowthLaw(kind, lam, spec.alpha, g, valid, restricted)


def round_trip_residual(spec: EntropySpec, law: GrowthLaw, n: float) -> float:
    """|S(uniform over W(N))/N - lam|, with S taken at the unrounded ln W(N).

    Rounding W to an integer would add its own error, up to 5e-4 at N = 1e4
    for some laws, and fail a law that holds.
    """
    return abs(spec.uniform_value_log(law.log_w(n)) / n - law.lam)


def tsallis_qstar(a: float, rho: float) -> float:
    """The deformation index making the two-parameter trace-form entropy extensive on W = N^rho."""
    if not a > 0:
        raise ParameterError("requires a > 0")
    if not rho > 1:
        raise ParameterError("requires rho > 1")
    return 1.0 - 1.0 / (a * rho)


def check_extensivity(
    spec: EntropySpec, lam: float = 1.0, tol: float = 1e-10, seed: int = 0
) -> list[PropertyReport]:
    """The growth law W(N) with S(uniform over W(N)) ~ lam * N, and how well it holds.

    A "group" family first reports the law's validity and, if valid, its round
    trip at N = 1e4 within max(tol, 1e-9).  The "power" family tsallis_aq
    (q < 1) grows as W = N^(1/(a(1 - q))) whatever lam.  Both then report the
    drift of S/N from N = 1e5 to 1e6, taken from ln W(N) in log space.  A
    family without a growth law, or a lam that is not positive and finite,
    raises ParameterError, and an exponent past float range RangeError.
    """
    if spec.growth is None:
        raise ParameterError(f"family {spec.family} has no growth law that makes it extensive")
    check_rate(lam)
    reports: list[PropertyReport] = []
    if spec.growth == "power":
        a, q = spec.params["a"], spec.params["q"]
        # admissibility, a(q - 1) + 1 > 0, makes rho > 1; a tiny a puts rho, or a(1 - q) at 0, past float range
        rho = 1.0 / (a * (1.0 - q)) if a * (1.0 - q) > 0 else math.inf
        if not math.isfinite(rho):
            raise RangeError(f"the growth exponent 1/(a(1 - q)) of {spec.describe()} is out of float range")
        log_w, witness = (lambda n: rho * math.log(n)), {"rho": rho, "qstar": tsallis_qstar(a, rho)}
    else:
        law = solve_growth_law(spec, lam)
        reports.append(
            PropertyReport(
                "extensivity-growth-law-valid", 1, 0 if law.valid else 1, 0.0 if law.valid else 1.0, seed,
                witness={"kind": law.kind, "description": law.describe(), "restricted": law.restricted},
            )
        )
        if not law.valid:
            return reports
        residual = round_trip_residual(spec, law, 1e4)
        reports.append(
            PropertyReport(
                "extensivity-round-trip", 1, 0 if residual <= max(tol, 1e-9) else 1, residual, seed,
                witness={"n": 1e4, "lam": lam},
            )
        )
        log_w, witness = law.log_w, {}
    rates = [spec.uniform_value_log(log_w(n)) / n for n in (1e5, 1e6)]
    drift = abs(rates[1] - rates[0]) / max(abs(rates[0]), 1e-300)
    reports.append(
        PropertyReport(
            "extensivity-rate-drift", 2, 0 if drift < 1e-3 else 1, drift, seed, witness={"rates": rates, **witness}
        )
    )
    return reports
