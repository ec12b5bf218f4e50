"""Randomized and deterministic verification of the entropy-family properties.

Every check returns one or more PropertyReports carrying the seed, trial
counts, worst residual and a witness for the worst case, so failures are
reproducible from the report alone.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .entropy import Distribution, EntropySpec, _check_alpha, _saq_concave, invalid_rows
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
# the l1 length of the continuity proxy's shift
_STEP = 1e-6


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


class _Row(NamedTuple):
    """One sampled property, a row of the table that ``_run_rows`` runs."""

    name: str  # the report's name
    draw: Callable  # (rng, w_values) -> (shape key, the trial's seeded variates)
    build: Callable  # (key, the variates of every trial of that shape) -> (blocks, extras); see _run_rows
    judge: Callable  # (spec, vectors, values, extra) -> (value, witness thunk), or None for a skipped trial
    dists: int  # how many leading blocks hold distributions
    worst: float  # the start of the row's _Worst fold
    limit: float | None = None  # the largest passing value; None is the check's tol


def _run_rows(spec: EntropySpec | None, rows, trials: int, seed: int, w_values, tol=None) -> list[PropertyReport]:
    """Run each row for ``trials`` trials, in row order on one rng seeded with ``seed``; one report per row.

    gek's only trial loop.  A row runs in chunks of _CHUNK trials.  Draw:
    ``row.draw`` once per trial, in the seeded order, keeps only the trial's
    variates and its shape key.  Build: ``row.build`` stacks the trials of one
    shape into blocks, one per vector slot, with the trials along the first
    axis and each vector along the last, and gives each trial's extra (or None
    for none).  A row with no vector slot builds no blocks, never reads
    ``spec`` (None if no row has a slot), and its judge reads only the extras.
    Validate and evaluate (``_chunk_sums``): every block is checked and reduced
    as a whole, then the scalar tail runs on every sum in trial order.  Judge:
    ``row.judge`` once per trial, in order, into the row's ``_Worst``.
    """
    if trials < 1:
        raise InputError(f"a sampled check needs at least one trial, got {trials}")
    rng = np.random.default_rng(seed)
    tail = None if spec is None else spec.from_row_sum
    reports = []
    for row in rows:
        fold, skipped = _Worst(row.worst, tol if row.limit is None else row.limit), 0
        for start in range(0, trials, _CHUNK):
            n = min(_CHUNK, trials - start)
            shapes: dict = {}
            for t in range(n):
                key, variates = row.draw(rng, w_values)
                shapes.setdefault(key, []).append((t, variates))
            chunk = []
            for key, members in shapes.items():
                ids, variates = zip(*members)
                chunk.append((ids, *row.build(key, variates)))
            values = [list(map(tail, s)) for s in _chunk_sums(spec, chunk, row.dists, n)]
            vectors, extras = [None] * n, [None] * n
            for ids, blocks, extra in chunk:
                for t, v, x in zip(ids, zip(*blocks) if blocks else repeat(()), extra or repeat(None)):
                    vectors[t], extras[t] = v, x
            for v, s, x in zip(vectors, values, extras):
                judged = row.judge(spec, v, s, x)
                if judged is None:
                    skipped += 1
                else:
                    fold.add(*judged)
        reports.append(fold.report(row.name, trials, seed, skipped))
    return reports


def _chunk_sums(spec: EntropySpec, chunk, dists: int, n: int) -> list[list[float]]:
    """Each of the chunk's ``n`` trials' family sums, slot after slot.

    The blocks of one slot and width are concatenated (several shapes share a
    width only where a key has two parts), so each is checked and reduced by
    a few numpy calls, with ``spec.block_sums``.  The first ``dists`` slots
    hold distributions: the first vector among them that is not one, in trial
    order, is handed to ``Distribution``, which raises its own error.
    """
    sums: list[list[float]] = [[] for _ in range(n)]
    bad = []
    for slot in range(len(chunk[0][1])):
        widths: dict = {}
        for ids, blocks, _ in chunk:
            members = widths.setdefault(blocks[slot].shape[1:], ([], []))
            members[0].extend(ids)
            members[1].append(blocks[slot])
        for ids, parts in widths.values():
            block = parts[0] if len(parts) == 1 else np.concatenate(parts)
            if slot < dists:
                flags = invalid_rows(block)
                if flags.any():
                    bad += [(ids[i], slot, block[i]) for i in np.flatnonzero(flags).tolist()]
            for t, s in zip(ids, spec.block_sums(block).reshape(len(ids), -1).tolist()):
                sums[t] += s
    if bad:
        Distribution(min(bad, key=lambda b: b[:2])[2])
    return sums


def _below(rng, n: int) -> int:
    """``int(rng.integers(n))`` for 1 <= n < 2**32: the same value, and the generator left in the same state.

    numpy draws an integer below n by Lemire's method (arXiv:1805.10941, its
    ``buffered_bounded_lemire_uint32``): m = x * n for a 32-bit output x,
    redrawn while the low word of m is below 2**32 % n, and the high word of m
    is the value; a one-value range draws nothing.  These are the same steps,
    with x read through the bit generator's ``next_uint32``, the C function
    (with its half-word buffer) that ``integers``, ``multinomial`` and
    ``standard_exponential`` read, so the calls interleave with theirs.  It
    skips the argument handling of ``Generator.integers``, most of a scalar
    call's cost.  Not thread-safe: it bypasses the generator's lock, so the
    generator must be used by one thread only, as each ``_run_rows`` owns its own.
    """
    if not 0 < n < 2**32:
        raise ValueError(f"the bound {n} is outside [1, 2**32)")
    if n == 1:
        return 0
    bits = rng.bit_generator.ctypes
    m = bits.next_uint32(bits.state) * n
    if m & 0xFFFFFFFF < n:
        threshold = 2**32 % n
        while m & 0xFFFFFFFF < threshold:
            m = bits.next_uint32(bits.state) * n
    return m >> 32


def _integral(w) -> bool:
    try:
        operator.index(w)
    except TypeError:
        return False
    return True


def _w_range(w_values: Sequence[int], least: int = 1) -> Sequence[int]:
    """``w_values``, checked before any draw: a sampled check needs one or more W, each an integer >= ``least``."""
    if not w_values or not all(map(_integral, w_values)) or min(w_values) < least:
        raise InputError(
            f"a sampled check needs one or more W values, each at least {least} and integral, got {list(w_values)}"
        )
    return w_values


def _w_upto(max_w: int) -> Sequence[int]:
    """W = 1, ..., ``max_w``, checked as ``_w_range`` checks it; a non-integral ``max_w`` never reaches ``range``."""
    return _w_range(range(1, max_w + 1) if _integral(max_w) else [max_w])


def _draw_w(rng, w_values: Sequence[int]) -> int:
    # the same draw as rng.choice(w_values), which costs about eight times as much
    return int(w_values[_below(rng, len(w_values))])


def _flat_dirichlet_rows(exponentials) -> np.ndarray:
    """Rows of rng.dirichlet(np.ones(w)), one from each row of w standard exponentials.

    numpy draws each gamma(1) variate as a standard exponential and scales
    them by the reciprocal of their running sum; these are the same float
    operations, row by row.
    """
    e = np.array(exponentials)
    return e * (1.0 / e.cumsum(axis=1)[:, -1:])


def _interior_rows(w: int, exponentials) -> np.ndarray:
    # keep every coordinate >= 1e-3 so alpha < 1 derivatives stay finite
    return 0.99 * _flat_dirichlet_rows(exponentials) + 0.01 / w


def _draw_simplex(rng, w_values):
    # the draws of one row of _flat_dirichlet_rows, or of _interior_rows, at w = _draw_w(rng, w_values)
    w = _draw_w(rng, w_values)
    return w, rng.standard_exponential(w)


def _draw_product(rng, w_values):
    wa, wb = _draw_w(rng, w_values), _draw_w(rng, w_values)
    return (wa, wb), (rng.standard_exponential(wa), rng.standard_exponential(wb))


def _build_product(key, variates):
    ea, eb = zip(*variates)
    p, r = _flat_dirichlet_rows(ea), _flat_dirichlet_rows(eb)
    # row i of the joint block is np.outer(p[i], r[i]).ravel()
    return (p, r, (p[:, :, None] * r[:, None, :]).reshape(len(p), -1)), None


def _judge_product(spec, vectors, values, _):
    s_p, s_r, joint = values
    combined = spec.phi(s_p, s_r)
    return abs(joint - combined) / (1.0 + abs(joint)), lambda: {
        "p": vectors[0].tolist(), "r": vectors[1].tolist(), "joint": joint, "combined": combined,
    }


_COMPOSABILITY = (_Row("composability", _draw_product, _build_product, _judge_product, 3, 0.0),)


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
    return _run_rows(spec, _COMPOSABILITY, trials, seed, _w_upto(max_w), tol)[0]


def _build_scalar(key, variates):
    # a row with no vector slot: each trial's variates are its extra
    return (), variates


def _draw_uniform_pair(rng, w_values):
    return None, (_draw_w(rng, w_values), _draw_w(rng, w_values))


def _judge_uniform_pair(spec, vectors, values, pair):
    wa, wb = pair
    joint = spec.uniform_value(wa * wb)
    combined = spec.phi(spec.uniform_value(wa), spec.uniform_value(wb))
    return abs(joint - combined) / (1.0 + abs(joint)), lambda: {"w_a": wa, "w_b": wb}


_ON_UNIFORM = (_Row("composability-on-uniform", _draw_uniform_pair, _build_scalar, _judge_uniform_pair, 0, 0.0),)


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
    return _run_rows(spec, _ON_UNIFORM, trials, seed, _w_upto(max_w), tol)[0]


def _draw_triple(rng, w_values):
    return None, rng.uniform(0.0, 3.0, size=3)


def _judge_axioms(spec, vectors, values, xyz):
    x, y, z = xyz
    phi = spec.phi
    try:
        parts = (abs(phi(x, y) - phi(y, x)), abs(phi(phi(x, y), z) - phi(x, phi(y, z))), abs(phi(x, 0.0) - x))
    except (RangeError, DomainError):
        return None
    residual = max(parts) if all(v == v for v in parts) else math.nan
    return residual / (1.0 + abs(x) + abs(y) + abs(z)), lambda: {"x": x, "y": y, "z": z}


_GROUP_AXIOMS = (_Row("group-axioms", _draw_triple, _build_scalar, _judge_axioms, 0, 0.0),)


def check_group_axioms_numeric(
    g: GroupFunction,
    alpha: float,
    trials: int = 1000,
    tol: float = 1e-10,
    seed: int = 0,
) -> PropertyReport:
    """Sampled symmetry, associativity and null-composability of the law of order alpha.

    A trial whose law leaves G's range or domain is skipped.
    """
    _check_alpha(alpha)  # before the spec's own check, which words a NaN alpha differently
    return _run_rows(EntropySpec("zg", {"alpha": alpha}, g), _GROUP_AXIOMS, trials, seed, (), tol)[0]


def _draw_continuity(rng, w_values):
    w, e = _draw_simplex(rng, w_values)
    return w, (e, rng.normal(size=w))


def _build_continuity(w, variates):
    e, direction = zip(*variates)
    p, direction = _interior_rows(w, e), np.array(direction)
    direction -= direction.mean(axis=1, keepdims=True)
    norm = np.abs(direction).sum(axis=1, keepdims=True)
    # a zero direction (w = 1) is divided by 1, not 0; p stands in for each shift that is not admissible
    shifted = p + _STEP * direction / np.where(norm > 0, norm, 1.0)
    admissible = (norm[:, 0] > 0) & ~(shifted < 0).any(axis=1)
    return (p, np.where(admissible[:, None], shifted, p)), admissible.tolist()


def _judge_continuity(spec, vectors, values, admissible):
    if not admissible:
        return None
    ratio = abs(values[1] - values[0]) / _STEP
    return ratio, lambda: ({"lipschitz_estimate": ratio} if math.isfinite(ratio) else {"p": vectors[0].tolist()})


def _build_maximum(w, variates):
    return (_flat_dirichlet_rows(variates),), None


def _judge_maximum(spec, vectors, values, _):
    w = vectors[0].size
    return values[0] - spec.uniform_value(w), lambda: {"p": vectors[0].tolist(), "w": w}


def _build_expansibility(w, variates):
    p = _flat_dirichlet_rows(variates)
    # row i of the second block is np.append(p[i], 0.0)
    return (p, np.concatenate((p, np.zeros((len(p), 1))), axis=1)), None


def _judge_expansibility(spec, vectors, values, _):
    return abs(values[1] - values[0]), lambda: {"p": vectors[0].tolist()}


_SK_AXIOMS = (
    _Row("sk-continuity-proxy", _draw_continuity, _build_continuity, _judge_continuity, 1, 0.0, sys.float_info.max),
    _Row("sk-maximum-on-uniform", _draw_simplex, _build_maximum, _judge_maximum, 1, -math.inf, 1e-12),
    _Row("sk-expansibility", _draw_simplex, _build_expansibility, _judge_expansibility, 2, 0.0, 1e-14),
)


def check_sk_axioms(
    spec: EntropySpec,
    trials: int = 500,
    seed: int = 0,
    w_values: Sequence[int] = (2, 3, 4, 5, 6),
) -> list[PropertyReport]:
    """Continuity proxy, maximum on the uniform distribution, and expansibility.

    Continuity reports a sampled Lipschitz estimate as its worst value and
    witness, and fails only on a non-finite ratio, whose first p becomes the
    witness; a trial with no admissible shifted vector counts as skipped.  The
    other two sub-checks are asserted, and fail on NaN.
    """
    return _run_rows(spec, _SK_AXIOMS, trials, seed, _w_range(w_values))


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
    """Two distinct indices below w: the draw of rng.choice(w, size=2, replace=False), at a third of its cost.

    That call samples by Floyd's algorithm, an index below w - 1 and one below
    w that becomes w - 1 on a collision, and then shuffles the two with one
    more draw below 2; these are the same three bounded draws.
    """
    i, j = _below(rng, w - 1), _below(rng, w)
    if j == i:
        j = w - 1
    return (j, i) if _below(rng, 2) == 0 else (i, j)


def _majorization_masses(w: int, steps: int, rng) -> tuple[list[int], list[int]]:
    """Robin-Hood transfers on an exact integer mass vector: the masses of p and r, over _MASS_DENOM.

    Starting from a random r, each step moves mass from a larger to a smaller
    coordinate without letting them cross, so the result p is majorized by r;
    the integer dominance check is exact.
    """
    if w < 2:
        raise ValueError("need at least two outcomes")
    masses_r = rng.multinomial(_MASS_DENOM, np.full(w, 1.0 / w)).tolist()
    masses_p = list(masses_r)
    for _ in range(steps):
        i, j = _two_of(rng, w)
        if masses_p[i] == masses_p[j]:
            continue
        if masses_p[i] < masses_p[j]:
            i, j = j, i
        gap = masses_p[i] - masses_p[j]
        amount = _below(rng, gap // 2 + 1)
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


def _draw_ordering(rng, w_values):
    w = _draw_w(rng, w_values)
    return w, _majorization_masses(w, 1 + _below(rng, 11), rng)


def _build_ordering(w, variates):
    masses = np.array(variates, dtype=float)  # trial, (p, r), entry
    return (masses[:, 1] / _MASS_DENOM, masses[:, 0] / _MASS_DENOM), None


def _judge_ordering(spec, vectors, values, _):
    r, p = vectors
    return values[0] - values[1], lambda: {"p": p.tolist(), "r": r.tolist()}


def _build_criterion(w, variates):
    """p, and the 2w points of its central-difference gradient with steps h_i = 1e-6 max(p_i, 1e-3).

    Point 2i is p with h_i added to entry i, point 2i + 1 with h_i subtracted.
    """
    p = _interior_rows(w, variates)
    h = 1e-6 * np.maximum(p, 1e-3)
    shifted = np.repeat(p[:, None, :], 2 * w, axis=1)
    i = np.arange(w)
    shifted[:, 2 * i, i] += h
    shifted[:, 2 * i + 1, i] -= h
    return (p, shifted), h.tolist()


def _judge_criterion(spec, vectors, values, h):
    # values[0] is S(p); values 2i + 1 and 2i + 2 are S at p with h_i added to and subtracted from entry i
    grad = [(values[2 * i + 1] - values[2 * i + 2]) / (2 * hi) for i, hi in enumerate(h)]
    p, w = vectors[0].tolist(), len(grad)
    products = [(p[i] - p[j]) * (grad[i] - grad[j]) for i in range(w) for j in range(i + 1, w)]
    return (max(products) if all(v == v for v in products) else math.nan), lambda: {"p": p}


_SCHUR = (
    _Row("schur-majorization-ordering", _draw_ordering, _build_ordering, _judge_ordering, 2, -math.inf, 1e-12),
    _Row("schur-ostrowski-criterion", _draw_simplex, _build_criterion, _judge_criterion, 1, -math.inf, 1e-10),
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
    return _run_rows(spec, _SCHUR, trials, seed, _w_range(w_values, least=2))


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


def sample_grid(horizon: float, points: int) -> list[int]:
    """The distinct integers of ``points`` log-spaced values from 1 to ``horizon``, rounded, ascending.

    ``sorted(set(...))`` and not ``np.unique``, which imports ``numpy.ma`` (about 15 ms of a cold command).
    """
    return sorted(set(np.round(np.logspace(0, math.log10(horizon), points)).astype(int).tolist()))


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

    samples = sample_grid(horizon, 25)
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
    """|S(uniform over W(N))/N - lam|, with S taken at the unrounded ln W(N).

    Rounding W to an integer would add its own error, up to 5e-4 at N = 1e4
    for some laws, and fail a law that holds.
    """
    return abs(spec.uniform_value_log(law.log_w(n)) / n - law.lam)


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

    A "group" family first reports the law's validity and, if valid, its round
    trip at N = 1e4 within max(tol, 1e-9).  The "power" family tsallis_aq
    (q < 1) grows as W = N^(1/(a(1 - q))) whatever lam.  Both then report the
    drift of S/N from N = 1e5 to 1e6, taken from ln W(N) in log space.  A
    family without a growth law raises ParameterError, and an exponent past
    float range RangeError.
    """
    if spec.growth is None:
        raise ParameterError(f"family {spec.family} has no growth law that makes it extensive")
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


def check_concavity_region_saq(a: float, q: float) -> bool:
    """The two concavity regions of the two-parameter trace-form entropy."""
    return _saq_concave(a, q)


def saq_concavity_counterexample_search(
    a: float, q: float, trials: int = 200, seed: int = 0, w: int = 4
) -> PropertyReport:
    """Report-only search for concavity violations of the raw two-parameter formula.

    Outside the concavity regions the defining exponent is nonpositive, so the
    formula is evaluated on strictly interior distributions only.  'failures'
    counts found violations; callers treat the report as documentation.  The
    search is a row with no vector slot: no EntropySpec takes an exponent
    <= 0, so its judge evaluates the raw formula itself, and it runs with no spec.
    """
    _w_range((w,))
    exponent = a * (q - 1.0) + 1.0

    def draw(rng, _):
        return None, (rng.standard_exponential(w), rng.standard_exponential(w), rng.uniform(0.05, 0.95))

    def judge(spec, vectors, values, variates):
        *e, lam = variates
        p1, p2 = (Distribution(v).p for v in _interior_rows(w, e))
        mix = lam * p1 + (1 - lam) * p2
        raw = ((1.0 - np.sum(np.array([p1, p2, mix]) ** exponent, axis=1)) / (q - 1.0)).tolist()
        return lam * raw[0] + (1 - lam) * raw[1] - raw[2], lambda: {"p1": p1.tolist(), "p2": p2.tolist(), "lambda": lam}

    row = _Row("saq-concavity-counterexample-search", draw, _build_scalar, judge, 0, -math.inf, 1e-12)
    return _run_rows(None, (row,), trials, seed, ())[0]
