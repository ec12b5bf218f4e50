"""Randomized and deterministic verification of the entropy-family properties.

Every check returns one or more PropertyReports carrying the seed, trial
counts, worst residual and a witness for the worst case, so failures are
reproducible from the report alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from .entropy import Distribution, EntropySpec, _saq_concave, composition_phi, invalid_distributions
from .errors import DomainError, InputError, ParameterError, RangeError
from .grouplog import GroupFunction, IdentityGroup

# denominator used for exact majorization sampling; a power of two keeps the
# float conversion and its partial sums exact
_MASS_DENOM = 2**20
# trials a randomized check draws, validates and evaluates together; it bounds
# the memory of the stacked draws and never changes a report
_CHUNK = 256
# the largest growth-law horizon: the sampled N grid must fit in int64
MAX_HORIZON = 1e18


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


class _Worst:
    """Failures, worst value and its witness, folded over the trials in order.

    Fails closed: a value fails unless it is <= ``limit``, so NaN fails, and
    the first NaN becomes the worst case and the witness.
    """

    def __init__(self, worst: float, limit: float):
        self.worst, self.limit = worst, limit
        self.failures = 0
        self.witness: dict = {}

    def add(self, value: float, witness: Callable[[], dict]) -> None:
        if value > self.worst or (value != value and self.worst == self.worst):
            self.worst = value
            self.witness = witness()
        if not value <= self.limit:
            self.failures += 1

    def report(self, name: str, trials: int, seed: int, skipped: int = 0) -> PropertyReport:
        return PropertyReport(name, trials, self.failures, self.worst, seed, skipped, self.witness)


def _run_trials(spec: EntropySpec, trials: int, draw: Callable, judge: Callable) -> None:
    """Run ``trials`` trials in chunks of _CHUNK, each chunk in three phases.

    Draw: ``draw()`` once per trial, in the seeded order; it returns ``(rows,
    dists, extra)``, where the first ``dists`` of ``rows`` are checked as
    distributions.  Evaluate: those rows are validated together, and a bad one
    is handed to ``Distribution``, which raises its own error; then one
    ``spec.raw_values`` call gives every row's entropy.  Judge: ``judge(rows,
    values, extra)`` once per trial, in order.
    """
    for start in range(0, trials, _CHUNK):
        drawn = [draw() for _ in range(min(_CHUNK, trials - start))]
        checked = [row for rows, dists, _ in drawn for row in rows[:dists]]
        for row, bad in zip(checked, invalid_distributions(checked)):
            if bad:
                Distribution(row)
        values = iter(spec.raw_values([row for rows, _, _ in drawn for row in rows]))
        for rows, _, extra in drawn:
            judge(rows, list(islice(values, len(rows))), extra)


def _draw_w(rng, w_values: Sequence[int]) -> int:
    # the same draw as rng.choice(w_values), which costs about four times as much
    return int(w_values[rng.integers(len(w_values))])


def _flat_dirichlet(rng, w: int) -> np.ndarray:
    """The draw of rng.dirichlet(np.ones(w)), at a third of its cost.

    numpy draws each gamma(1) variate as a standard exponential and scales
    them by the reciprocal of their running sum; these are the same w draws
    and the same float operations.
    """
    e = rng.standard_exponential(w)
    return e * (1.0 / e.cumsum()[-1])


def _interior(rng, w: int) -> np.ndarray:
    # keep every coordinate >= 1e-3 so alpha < 1 derivatives stay finite
    return 0.99 * _flat_dirichlet(rng, w) + 0.01 / w


def check_composability(
    spec: EntropySpec,
    trials: int = 1000,
    tol: float = 1e-10,
    seed: int = 0,
    max_w: int = 8,
) -> PropertyReport:
    """Compare the entropy of independent products against the family's law.

    A trial fails when |S(p x r) - Phi(S(p), S(r))| exceeds tol * (1 + |S|),
    or is NaN.
    """
    rng = np.random.default_rng(seed)
    fold = _Worst(0.0, tol)

    def draw():
        wa = int(rng.integers(1, max_w + 1))
        wb = int(rng.integers(1, max_w + 1))
        p, r = _flat_dirichlet(rng, wa), _flat_dirichlet(rng, wb)
        return (p, r, np.outer(p, r).ravel()), 3, None

    def judge(rows, values, _):
        s_p, s_r, joint = values
        combined = spec.phi(s_p, s_r)
        residual = abs(joint - combined) / (1.0 + abs(joint))
        fold.add(residual, lambda: {
            "p": rows[0].tolist(), "r": rows[1].tolist(), "joint": joint, "combined": combined,
        })

    _run_trials(spec, trials, draw, judge)
    return fold.report("composability", trials, seed)


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
    fold = _Worst(0.0, tol)
    for _ in range(trials):
        wa = int(rng.integers(1, max_w + 1))
        wb = int(rng.integers(1, max_w + 1))
        joint = spec.uniform_value(wa * wb)
        combined = spec.phi(spec.uniform_value(wa), spec.uniform_value(wb))
        fold.add(abs(joint - combined) / (1.0 + abs(joint)), lambda: {"w_a": wa, "w_b": wb})
    return fold.report("composability-on-uniform", trials, seed)


def check_group_axioms_numeric(
    g: GroupFunction,
    alpha: float,
    trials: int = 1000,
    tol: float = 1e-10,
    seed: int = 0,
) -> PropertyReport:
    """Sampled symmetry, associativity and null-composability of the law of order alpha."""
    rng = np.random.default_rng(seed)
    fold = _Worst(0.0, tol)
    skipped = 0
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
        parts = (sym, abs(left - right), null)
        residual = max(parts) if all(v == v for v in parts) else math.nan
        fold.add(residual / (1.0 + abs(x) + abs(y) + abs(z)), lambda: {"x": x, "y": y, "z": z})
    return fold.report("group-axioms", trials, seed, skipped)


def check_sk_axioms(
    spec: EntropySpec,
    trials: int = 500,
    seed: int = 0,
    w_values: Sequence[int] = (2, 3, 4, 5, 6),
) -> list[PropertyReport]:
    """Continuity proxy, maximum on the uniform distribution, and expansibility.

    Continuity is reported as a sampled Lipschitz estimate and only fails on
    non-finite values; a trial with no admissible shifted vector counts as
    skipped.  The other two sub-checks are asserted, and fail on NaN.
    """
    rng = np.random.default_rng(seed)
    step = 1e-6
    lipschitz = 0.0
    cont_failures = cont_skipped = 0
    cont_witness: dict = {}

    def draw_continuity():
        w = _draw_w(rng, w_values)
        p = _interior(rng, w)
        direction = rng.normal(size=w)
        direction -= direction.mean()
        norm = np.abs(direction).sum()
        if norm > 0:
            shifted = p + step * direction / norm
            if not (shifted < 0).any():
                return (p, shifted), 1, None
        return (p,), 1, None  # no admissible shifted vector: the trial is skipped

    def judge_continuity(rows, values, _):
        nonlocal lipschitz, cont_failures, cont_skipped, cont_witness
        if len(rows) == 1:
            cont_skipped += 1
            return
        ratio = abs(values[1] - values[0]) / step
        if not math.isfinite(ratio):
            cont_failures += 1
            cont_witness = {"p": rows[0].tolist()}
        lipschitz = max(lipschitz, ratio)

    _run_trials(spec, trials, draw_continuity, judge_continuity)
    continuity = PropertyReport(
        "sk-continuity-proxy", trials, cont_failures, lipschitz, seed, cont_skipped,
        witness=cont_witness or {"lipschitz_estimate": lipschitz},
    )

    maximum = _Worst(-math.inf, 1e-12)

    def draw_maximum():
        w = _draw_w(rng, w_values)
        return (_flat_dirichlet(rng, w),), 1, w

    def judge_maximum(rows, values, w):
        gap = values[0] - spec.uniform_value(w)
        maximum.add(gap, lambda: {"p": rows[0].tolist(), "w": w})

    _run_trials(spec, trials, draw_maximum, judge_maximum)

    expansibility = _Worst(0.0, 1e-14)

    def draw_expansibility():
        p = _flat_dirichlet(rng, _draw_w(rng, w_values))
        return (p, np.append(p, 0.0)), 2, None

    def judge_expansibility(rows, values, _):
        expansibility.add(abs(values[1] - values[0]), lambda: {"p": rows[0].tolist()})

    _run_trials(spec, trials, draw_expansibility, judge_expansibility)

    return [
        continuity,
        maximum.report("sk-maximum-on-uniform", trials, seed),
        expansibility.report("sk-expansibility", trials, seed),
    ]


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


def _two_of(rng, w: int) -> tuple[int, int]:
    """Two distinct indices below w: the draw of rng.choice(w, size=2, replace=False), at half its cost.

    That call samples by Floyd's algorithm, an index below w - 1 and one below
    w that becomes w - 1 on a collision, and then shuffles the two with one
    more draw below 2; these are the same three bounded draws.
    """
    i, j = int(rng.integers(w - 1)), int(rng.integers(w))
    if j == i:
        j = w - 1
    return (j, i) if rng.integers(2) == 0 else (i, j)


def _majorization_masses(w: int, steps: int, rng) -> tuple[list[int], list[int]]:
    """Robin-Hood transfers on an exact integer mass vector: the masses of p and r, over _MASS_DENOM.

    Starting from a random r, each step moves mass from a larger to a smaller
    coordinate without letting them cross, so the result p is majorized by r;
    the integer dominance check is exact.
    """
    if w < 2:
        raise ValueError("need at least two outcomes")
    masses_r = [int(m) for m in rng.multinomial(_MASS_DENOM, np.full(w, 1.0 / w))]
    masses_p = list(masses_r)
    for _ in range(steps):
        i, j = _two_of(rng, w)
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
    return masses_p, masses_r


def generate_majorization_pair(w: int, steps: int, rng) -> MajorizationPair:
    """A validated pair with p majorized by r, from ``_majorization_masses``.

    The masses live on a power-of-two grid, which keeps the float conversion
    and the dominance check exact.
    """
    masses_p, masses_r = _majorization_masses(w, steps, rng)
    return MajorizationPair(
        p=Distribution(np.array(masses_p, dtype=float) / _MASS_DENOM),
        r=Distribution(np.array(masses_r, dtype=float) / _MASS_DENOM),
    )


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
    on interior distributions.  A NaN gap or criterion value fails.
    """
    rng = np.random.default_rng(seed)

    ordering = _Worst(-math.inf, 1e-12)

    def draw_ordering():
        w = _draw_w(rng, w_values)
        masses_p, masses_r = _majorization_masses(w, int(rng.integers(1, 12)), rng)
        return tuple(np.array([masses_r, masses_p], dtype=float) / _MASS_DENOM), 2, None

    def judge_ordering(rows, values, _):
        r, p = rows
        ordering.add(values[0] - values[1], lambda: {"p": p.tolist(), "r": r.tolist()})

    _run_trials(spec, trials, draw_ordering, judge_ordering)

    criterion = _Worst(-math.inf, 1e-10)

    def draw_criterion():
        p = _interior(rng, _draw_w(rng, w_values))
        h, shifted = _central_steps(p)
        return (p, *shifted), 1, h

    def judge_criterion(rows, values, h):
        # values[0] is S(p); rows 2i + 1 and 2i + 2 are p with h_i added to and subtracted from entry i
        grad = [(values[2 * i + 1] - values[2 * i + 2]) / (2 * hi) for i, hi in enumerate(h.tolist())]
        p, w = rows[0].tolist(), len(grad)
        products = [(p[i] - p[j]) * (grad[i] - grad[j]) for i in range(w) for j in range(i + 1, w)]
        value = max(products) if all(v == v for v in products) else math.nan
        criterion.add(value, lambda: {"p": p})

    _run_trials(spec, trials, draw_criterion, judge_criterion)
    return [
        ordering.report("schur-majorization-ordering", trials, seed),
        criterion.report("schur-ostrowski-criterion", trials, seed),
    ]


def _central_steps(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Steps h_i = 1e-6 max(p_i, 1e-3) and the 2w points of a central-difference gradient.

    Row 2i is arr with h_i added to entry i, row 2i + 1 with h_i subtracted.
    """
    h = 1e-6 * np.maximum(arr, 1e-3)
    shifted = np.tile(arr, (2 * arr.size, 1))
    i = np.arange(arr.size)
    shifted[2 * i, i] += h
    shifted[2 * i + 1, i] -= h
    return h, shifted


@dataclass(frozen=True)
class GrowthLaw:
    """Closed-form phase-space growth W(N), kept in log form to avoid overflow."""

    kind: str  # "exponential" | "group"
    lam: float = 0.0
    alpha: float | None = None
    group: GroupFunction | None = None
    valid: bool = True
    restricted: bool = False

    def log_w(self, n: float) -> float:
        if n < 1:
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


def solve_growth_law(spec: EntropySpec, lam: float, horizon: float = 1e4) -> GrowthLaw:
    """Solve S(uniform over W(N)) ~ lam * N for W(N) through the group exponential.

    The returned law carries a sampled validity flag: W real and increasing
    with divergent log up to the horizon.  A range failure of the exponential
    marks the law as restricted rather than raising.
    """
    if lam <= 0:
        raise ParameterError("the extensivity constant must be positive")
    if not 1 <= horizon <= MAX_HORIZON:
        raise InputError(f"the horizon must lie in [1, {MAX_HORIZON:g}]")
    if spec.growth != "group":
        raise ParameterError(f"family {spec.family} has no group exponential to solve a growth law with")
    g = spec.group
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
    return replace(law, valid=valid, restricted=restricted)


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


def check_extensivity(
    spec: EntropySpec, lam: float = 1.0, tol: float = 1e-10, seed: int = 0
) -> list[PropertyReport]:
    """The growth law W(N) with S(uniform over W(N)) ~ lam * N, and how well it holds.

    A "group" family reports the law's validity, then its round trip at N = 1e4
    within max(tol, 1e-9) and the drift of S/N from N = 1e5 to 1e6.  The "power"
    family tsallis_aq (q < 1) grows as W = N^(1/(a(1 - q))) whatever lam, and
    reports the drift alone, its rates taken in log space.  A family without a
    growth law raises ParameterError, and an exponent past float range RangeError.
    """

    def drift_report(rates: list[float], **witness) -> PropertyReport:
        drift = abs(rates[1] - rates[0]) / max(abs(rates[0]), 1e-300)
        return PropertyReport(
            "extensivity-rate-drift", 2, 0 if drift < 1e-3 else 1, drift, seed, witness={"rates": rates, **witness}
        )

    if spec.growth is None:
        raise ParameterError(f"family {spec.family} has no growth law that makes it extensive")
    if spec.growth == "power":
        a, q = spec.params["a"], spec.params["q"]
        # admissibility, a(q - 1) + 1 > 0, makes rho > 1; a tiny a puts rho, or a(1 - q) at 0, past float range
        rho = 1.0 / (a * (1.0 - q)) if a * (1.0 - q) > 0 else math.inf
        if not math.isfinite(rho):
            raise RangeError(f"the growth exponent 1/(a(1 - q)) of {spec.describe()} is out of float range")
        rates = [spec.uniform_value_log(rho * math.log(n)) / n for n in (1e5, 1e6)]
        return [drift_report(rates, rho=rho, qstar=tsallis_qstar(a, rho))]
    law = solve_growth_law(spec, lam)
    reports = [
        PropertyReport(
            "extensivity-growth-law-valid", 1, 0 if law.valid else 1, 0.0 if law.valid else 1.0, seed,
            witness={"kind": law.kind, "description": law.describe(), "restricted": law.restricted},
        )
    ]
    if law.valid:
        residual = round_trip_residual(spec, law, 1e4)
        reports.append(
            PropertyReport(
                "extensivity-round-trip", 1, 0 if residual <= max(tol, 1e-9) else 1, residual, seed,
                witness={"n": 1e4, "lam": lam},
            )
        )
        reports.append(drift_report([spec.uniform_value_log(law.log_w(n)) / n for n in (1e5, 1e6)]))
    return reports


def check_concavity_region_saq(a: float, q: float) -> bool:
    """The two concavity regions of the two-parameter trace-form entropy."""
    return _saq_concave(a, q)


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

    found = _Worst(-math.inf, 1e-12)
    for _ in range(trials):
        p1 = Distribution(_interior(rng, w)).p
        p2 = Distribution(_interior(rng, w)).p
        lam = rng.uniform(0.05, 0.95)
        mix = lam * p1 + (1 - lam) * p2
        violation = lam * raw(p1) + (1 - lam) * raw(p2) - raw(mix)
        found.add(violation, lambda: {"p1": p1.tolist(), "p2": p2.tolist(), "lambda": lam})
    return found.report("saq-concavity-counterexample-search", trials, seed)
