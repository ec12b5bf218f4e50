"""Randomized and deterministic verification of the entropy-family properties.

Every check returns one or more PropertyReports carrying the seed, trial
counts, worst residual and a witness for the worst case, so failures are
reproducible from the report alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .entropy import Distribution, EntropySpec, product_distribution
from .errors import DomainError, ParameterError, RangeError
from .grouplog import GroupFunction, IdentityGroup

# denominator used for exact majorization sampling; a power of two keeps the
# float conversion and its partial sums exact
_MASS_DENOM = 2**20


@dataclass
class PropertyReport:
    """Outcome of one randomized property check."""

    name: str
    trials: int
    failures: int
    worst_residual: float
    seed: int
    skipped: int = 0
    witness: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.failures == 0

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


def _random_distribution(rng, w: int) -> Distribution:
    return Distribution(rng.dirichlet(np.ones(w)))


def _interior_distribution(rng, w: int) -> Distribution:
    # keep every coordinate >= 1e-3 so alpha < 1 derivatives stay finite
    base = rng.dirichlet(np.ones(w))
    return Distribution(0.99 * base + 0.01 / w)


def check_composability(
    spec: EntropySpec,
    trials: int = 1000,
    tol: float = 1e-10,
    seed: int = 0,
    max_w: int = 8,
) -> PropertyReport:
    """Compare the entropy of independent products against the family's law.

    A trial fails when |S(p x r) - Phi(S(p), S(r))| exceeds tol * (1 + |S|).
    """
    rng = np.random.default_rng(seed)
    failures = 0
    worst = 0.0
    witness: dict = {}
    for _ in range(trials):
        wa = int(rng.integers(1, max_w + 1))
        wb = int(rng.integers(1, max_w + 1))
        p, r = _random_distribution(rng, wa), _random_distribution(rng, wb)
        joint = spec.value(product_distribution(p, r))
        combined = spec.phi(spec.value(p), spec.value(r))
        residual = abs(joint - combined) / (1.0 + abs(joint))
        if residual > worst:
            worst = residual
            witness = {"p": p.p.tolist(), "r": r.p.tolist(), "joint": joint, "combined": combined}
        if residual > tol:
            failures += 1
    return PropertyReport("composability", trials, failures, worst, seed, witness=witness)


def check_composability_on_uniform(
    spec: EntropySpec,
    trials: int = 200,
    tol: float = 1e-10,
    seed: int = 0,
    max_w: int = 40,
) -> PropertyReport:
    """Non-normative: the composition law restricted to uniform distributions.

    This is only an approximation of the weak-composability notion (which is
    defined by reference elsewhere); a pass here does not certify it.
    """
    rng = np.random.default_rng(seed)
    failures = 0
    worst = 0.0
    witness: dict = {}
    for _ in range(trials):
        wa = int(rng.integers(1, max_w + 1))
        wb = int(rng.integers(1, max_w + 1))
        joint = spec.uniform_value(wa * wb)
        combined = spec.phi(spec.uniform_value(wa), spec.uniform_value(wb))
        residual = abs(joint - combined) / (1.0 + abs(joint))
        if residual > worst:
            worst = residual
            witness = {"w_a": wa, "w_b": wb}
        if residual > tol:
            failures += 1
    return PropertyReport("composability-on-uniform", trials, failures, worst, seed, witness=witness)


def check_group_axioms_numeric(
    g: GroupFunction,
    alpha: float,
    trials: int = 1000,
    tol: float = 1e-10,
    seed: int = 0,
) -> PropertyReport:
    """Sampled symmetry, associativity and null-composability of the law of order alpha."""
    from .entropy import composition_phi

    rng = np.random.default_rng(seed)
    failures = skipped = 0
    worst = 0.0
    witness: dict = {}
    for _ in range(trials):
        x, y, z = rng.uniform(0.0, 3.0, size=3)
        try:
            sym = abs(composition_phi(g, alpha, x, y) - composition_phi(g, alpha, y, x))
            left = composition_phi(g, alpha, composition_phi(g, alpha, x, y), z)
            right = composition_phi(g, alpha, x, composition_phi(g, alpha, y, z))
            null = abs(composition_phi(g, alpha, x, 0.0) - x)
        except (RangeError, DomainError):
            skipped += 1
            continue
        residual = max(sym, abs(left - right), null) / (1.0 + abs(x) + abs(y) + abs(z))
        if residual > worst:
            worst = residual
            witness = {"x": x, "y": y, "z": z}
        if residual > tol:
            failures += 1
    return PropertyReport("group-axioms", trials, failures, worst, seed, skipped=skipped, witness=witness)


def check_sk_axioms(
    spec: EntropySpec,
    trials: int = 500,
    seed: int = 0,
    w_values: Sequence[int] = (2, 3, 4, 5, 6),
) -> list[PropertyReport]:
    """Continuity proxy, maximum on the uniform distribution, and expansibility.

    Continuity is reported as a sampled Lipschitz estimate and only fails on
    non-finite values; the other two sub-checks are asserted.
    """
    rng = np.random.default_rng(seed)

    lipschitz = 0.0
    cont_failures = 0
    cont_witness: dict = {}
    for _ in range(trials):
        w = int(rng.choice(w_values))
        p = _interior_distribution(rng, w)
        direction = rng.normal(size=w)
        direction -= direction.mean()
        norm = np.abs(direction).sum()
        if norm == 0:
            continue
        step = 1e-6
        shifted = p.p + step * direction / norm
        if np.any(shifted < 0):
            continue
        delta = abs(spec.raw_value(shifted) - spec.value(p))
        ratio = delta / step
        if not math.isfinite(ratio):
            cont_failures += 1
            cont_witness = {"p": p.p.tolist()}
        lipschitz = max(lipschitz, ratio)
    continuity = PropertyReport(
        "sk-continuity-proxy", trials, cont_failures, lipschitz, seed,
        witness=cont_witness or {"lipschitz_estimate": lipschitz},
    )

    max_failures = 0
    max_worst = -math.inf
    max_witness: dict = {}
    for _ in range(trials):
        w = int(rng.choice(w_values))
        p = _random_distribution(rng, w)
        gap = spec.value(p) - spec.uniform_value(w)
        if gap > max_worst:
            max_worst = gap
            max_witness = {"p": p.p.tolist(), "w": w}
        if gap > 1e-12:
            max_failures += 1
    maximum = PropertyReport("sk-maximum-on-uniform", trials, max_failures, max_worst, seed, witness=max_witness)

    exp_failures = 0
    exp_worst = 0.0
    exp_witness: dict = {}
    for _ in range(trials):
        w = int(rng.choice(w_values))
        p = _random_distribution(rng, w)
        residual = abs(spec.value(p.append_zero()) - spec.value(p))
        if residual > exp_worst:
            exp_worst = residual
            exp_witness = {"p": p.p.tolist()}
        if residual > 1e-14:
            exp_failures += 1
    expansibility = PropertyReport("sk-expansibility", trials, exp_failures, exp_worst, seed, witness=exp_witness)

    return [continuity, maximum, expansibility]


def majorizes(dominant: Sequence, dominated: Sequence, tol=0) -> bool:
    """Partial-sum dominance of the decreasingly sorted vectors (exact for rationals)."""
    a = sorted(dominant, reverse=True)
    b = sorted(dominated, reverse=True)
    if len(a) != len(b):
        raise ValueError("majorization compares vectors of equal length")
    run_a = run_b = 0
    for k in range(len(a) - 1):
        run_a += a[k]
        run_b += b[k]
        if run_a < run_b - tol:
            return False
    return abs(sum(a) - sum(b)) <= tol


@dataclass(frozen=True)
class MajorizationPair:
    """Two distributions with p majorized by r, validated on construction."""

    p: Distribution
    r: Distribution

    def __post_init__(self) -> None:
        if not majorizes(self.r.p.tolist(), self.p.p.tolist(), tol=1e-12):
            raise ValueError("r does not majorize p")


def generate_majorization_pair(w: int, steps: int, rng) -> MajorizationPair:
    """Robin-Hood transfers on an exact integer mass vector.

    Starting from a random r, each step moves mass from a larger to a smaller
    coordinate without letting them cross, so the result p is majorized by r.
    The masses live on a power-of-two grid, which keeps the float conversion
    and the dominance check exact.
    """
    if w < 2:
        raise ValueError("need at least two outcomes")
    masses_r = [int(m) for m in rng.multinomial(_MASS_DENOM, np.full(w, 1.0 / w))]
    masses_p = list(masses_r)
    for _ in range(steps):
        i, j = rng.choice(w, size=2, replace=False)
        if masses_p[i] == masses_p[j]:
            continue
        if masses_p[i] < masses_p[j]:
            i, j = j, i
        gap = masses_p[i] - masses_p[j]
        amount = int(rng.integers(0, gap // 2 + 1))
        masses_p[i] -= amount
        masses_p[j] += amount
    if not majorizes(masses_r, masses_p, tol=0):
        raise AssertionError("transfer chain violated dominance")  # pragma: no cover

    def to_dist(masses):
        return Distribution(np.array(masses, dtype=float) / _MASS_DENOM)

    return MajorizationPair(p=to_dist(masses_p), r=to_dist(masses_r))


def check_schur_concavity(
    spec: EntropySpec,
    trials: int = 200,
    seed: int = 0,
    w_values: Sequence[int] = (3, 4, 5, 6),
) -> list[PropertyReport]:
    """Majorization ordering plus the sampled derivative criterion.

    Sub-check one asserts S(p) >= S(r) - 1e-12 on generated pairs with p
    majorized by r; sub-check two asserts the pairwise criterion
    (p_i - p_j)(dS/dp_i - dS/dp_j) <= 1e-10 with central-difference gradients
    on interior distributions.
    """
    rng = np.random.default_rng(seed)

    order_failures = 0
    order_worst = -math.inf
    order_witness: dict = {}
    for _ in range(trials):
        w = int(rng.choice(w_values))
        pair = generate_majorization_pair(w, steps=int(rng.integers(1, 12)), rng=rng)
        gap = spec.value(pair.r) - spec.value(pair.p)
        if gap > order_worst:
            order_worst = gap
            order_witness = {"p": pair.p.p.tolist(), "r": pair.r.p.tolist()}
        if gap > 1e-12:
            order_failures += 1
    ordering = PropertyReport(
        "schur-majorization-ordering", trials, order_failures, order_worst, seed, witness=order_witness
    )

    crit_failures = 0
    crit_worst = -math.inf
    crit_witness: dict = {}
    for _ in range(trials):
        w = int(rng.choice(w_values))
        p = _interior_distribution(rng, w)
        grad = _central_gradient(spec, p.p)
        value = max(
            (p.p[i] - p.p[j]) * (grad[i] - grad[j])
            for i in range(w)
            for j in range(i + 1, w)
        )
        if value > crit_worst:
            crit_worst = value
            crit_witness = {"p": p.p.tolist()}
        if value > 1e-10:
            crit_failures += 1
    criterion = PropertyReport(
        "schur-ostrowski-criterion", trials, crit_failures, crit_worst, seed, witness=crit_witness
    )
    return [ordering, criterion]


def _central_gradient(spec: EntropySpec, arr: np.ndarray) -> np.ndarray:
    grad = np.empty_like(arr)
    for i in range(arr.size):
        h = 1e-6 * max(arr[i], 1e-3)
        plus, minus = arr.copy(), arr.copy()
        plus[i] += h
        minus[i] -= h
        grad[i] = (spec.raw_value(plus) - spec.raw_value(minus)) / (2 * h)
    return grad


@dataclass(frozen=True)
class GrowthLaw:
    """Closed-form phase-space growth W(N), kept in log form to avoid overflow."""

    kind: str  # "power" | "exponential" | "group"
    lam: float = 0.0
    rho: float = 0.0
    alpha: float | None = None
    group: GroupFunction | None = None
    valid: bool = True
    restricted: bool = False

    def log_w(self, n: float) -> float:
        if n < 1:
            raise ValueError("the growth law is defined for N >= 1")
        if self.kind == "power":
            return self.rho * math.log(n)
        if self.kind == "exponential":
            return self.lam * n
        c = 1.0 - self.alpha
        return self.group.inverse(c * self.lam * n) / c

    def w(self, n: float) -> float:
        lw = self.log_w(n)
        return math.exp(lw) if lw < 709 else math.inf

    def describe(self) -> str:
        if self.kind == "power":
            return f"W(N) = N^{self.rho}"
        if self.kind == "exponential":
            return f"W(N) = exp({self.lam} N)"
        return f"W(N) = exp_G({1 - self.alpha} * {self.lam} * N)^(1/{1 - self.alpha})"


def solve_growth_law(spec: EntropySpec, lam: float, horizon: float = 1e4) -> GrowthLaw:
    """Solve S(uniform over W(N)) ~ lam * N for W(N) through the group exponential.

    The returned law carries a sampled validity flag: W real and increasing
    with divergent log up to the horizon.  A range failure of the exponential
    marks the law as restricted rather than raising.
    """
    if lam <= 0:
        raise ParameterError("the extensivity constant must be positive")
    g = spec.group
    if g is None:
        raise ParameterError(f"family {spec.family} has no group exponential to solve a growth law with")
    kind = "exponential" if isinstance(g, IdentityGroup) else "group"
    law = GrowthLaw(kind=kind, lam=lam, alpha=spec.alpha, group=g)

    samples = np.unique(np.round(np.logspace(0, math.log10(horizon), 25)).astype(int))
    values = []
    restricted = False
    for n in samples:
        try:
            values.append(law.log_w(float(n)))
        except (RangeError, DomainError):
            restricted = True
            break
    increasing = all(a < b for a, b in zip(values, values[1:]))
    divergent = bool(values) and values[-1] > values[0] and values[-1] > 1.0
    valid = (not restricted) and increasing and divergent and all(map(math.isfinite, values))
    return GrowthLaw(
        kind=law.kind, lam=lam, alpha=spec.alpha, group=g, valid=valid, restricted=restricted
    )


def round_trip_residual(spec: EntropySpec, law: GrowthLaw, n: float) -> float:
    """|S(uniform over W(N))/N - lam| with W rounded to an integer while representable."""
    lw = law.log_w(n)
    if lw <= 53 * math.log(2):
        w = max(1.0, round(math.exp(lw)))
        value = spec.uniform_value(w)
    else:
        value = spec.uniform_value_log(lw)
    return abs(value / n - law.lam)


def tsallis_qstar(a: float, rho: float) -> float:
    """The deformation index making the two-parameter trace-form entropy extensive on W = N^rho."""
    if a <= 0:
        raise ParameterError("requires a > 0")
    if rho <= 1:
        raise ParameterError("requires rho > 1")
    return 1.0 - 1.0 / (a * rho)


def check_concavity_region_saq(a: float, q: float) -> bool:
    """The two concavity regions of the two-parameter trace-form entropy."""
    return (q < 1 and 0 < a < 1 / (1 - q)) or (q > 1 and a > 0)


def saq_concavity_counterexample_search(
    a: float, q: float, trials: int = 200, seed: int = 0, w: int = 4
) -> PropertyReport:
    """Report-only search for concavity violations of the raw two-parameter formula.

    Outside the concavity regions the defining exponent is nonpositive, so the
    formula is evaluated on strictly interior distributions only.  'failures'
    counts found violations; callers treat the report as documentation.
    """
    rng = np.random.default_rng(seed)
    exponent = a * (q - 1.0) + 1.0

    def raw(arr: np.ndarray) -> float:
        return (1.0 - float(np.sum(arr**exponent))) / (q - 1.0)

    found = 0
    worst = -math.inf
    witness: dict = {}
    for _ in range(trials):
        p1 = _interior_distribution(rng, w).p
        p2 = _interior_distribution(rng, w).p
        lam = rng.uniform(0.05, 0.95)
        mix = lam * p1 + (1 - lam) * p2
        violation = lam * raw(p1) + (1 - lam) * raw(p2) - raw(mix)
        if violation > worst:
            worst = violation
            witness = {"p1": p1.tolist(), "p2": p2.tolist(), "lambda": lam}
        if violation > 1e-12:
            found += 1
    return PropertyReport("saq-concavity-counterexample-search", trials, found, worst, seed, witness=witness)
