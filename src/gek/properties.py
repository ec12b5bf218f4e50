"""Randomized and deterministic verification of the entropy-family properties.

Every check returns one or more PropertyReports carrying the seed, trial
counts, worst residual and a witness for the worst case, so failures are
reproducible from the report alone.  The growth law and the extensivity
suite are scalar; they live in ``gek.growth``, which loads no numpy, and are
re-exported here.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import repeat
from typing import Callable, NamedTuple, NoReturn, Sequence

import numpy as np

from .entropy import Distribution, EntropySpec, _check_alpha, _saq_concave, invalid_rows
from .errors import DomainError, InputError, RangeError, _integral, check_trials
from .grouplog import GroupFunction
from .growth import (  # noqa: F401  (re-exported)
    GrowthLaw, PropertyReport, check_extensivity, round_trip_residual, sample_grid, solve_growth_law, tsallis_qstar,
)
from .record import Record

# denominator used for exact majorization sampling; a power of two keeps the
# float conversion and its partial sums exact
_MASS_DENOM = 2**20
# trials a randomized check draws, validates and evaluates together; it bounds
# the memory of the stacked draws and never changes a report
_CHUNK = 256
# the l1 length of the continuity proxy's shift
_STEP = 1e-6
# the np.errstate of the block arithmetic of judges and folds, which makes NaN and inf as Python floats do,
# silently: a NaN residual is a failure, not a warning.  It covers no phi, tail or per-trial loop
_QUIET = {"invalid": "ignore", "over": "ignore", "divide": "ignore"}


class _Worst:
    """Failures, worst value and its witness, folded over the trials chunk by chunk in trial order.

    Fails closed: a value fails unless it is <= ``limit``, so NaN fails, and
    the first NaN becomes the worst case and the witness.
    """

    def __init__(self, worst: float, limit: float):
        self.worst, self.limit = worst, limit
        self.failures = 0
        self.witness: dict = {}

    def fold(self, values: np.ndarray, read: Callable[[int], tuple]) -> None:
        """Fold a chunk's ``values``, in trial order, as if one at a time; ``read(i)`` is (value i, its witness).

        The chunk's candidate is its first NaN, else its first largest value:
        the first index of ``argmax``, never ``max``, which may return 0.0 for
        [-0.0, 0.0].  It becomes the worst if it is larger, or a NaN over a
        number, so the first of equal values wins, as it did trial by trial.
        """
        if not values.size:
            return
        with np.errstate(**_QUIET):
            i = int(values.argmax())
            passed = int(np.count_nonzero(values <= self.limit))
        value = values.item(i)
        if value > self.worst or (value != value and self.worst == self.worst):
            self.worst, self.witness = read(i)
        self.failures += values.size - passed

    def report(self, name: str, trials: int, seed: int, skipped: int = 0) -> PropertyReport:
        return PropertyReport(name, trials, self.failures, self.worst, seed, skipped, self.witness)


class _Row(NamedTuple):
    """One sampled property, a row of the table that ``_run_rows`` runs."""

    name: str  # the report's name
    draw: Callable  # (rng, below, w_values) -> (shape key, the trial's seeded variates); below is _bounded(rng)
    build: Callable  # (key, the variates of every trial of that shape) -> (blocks, extras); see _run_rows
    judge: Callable  # (spec, blocks, values, extras) -> (residuals, skip mask or None, the witness's extras)
    witness: Callable  # (blocks, values, extras, i) -> the witness of the shape's trial i
    dists: int  # how many leading blocks hold distributions
    worst: float  # the start of the row's _Worst fold
    limit: float | None = None  # the largest passing value; None is the check's tol


def _run_rows(spec: EntropySpec | None, rows, trials: int, seed: int, w_values, tol=None) -> list[PropertyReport]:
    """Run each row for ``trials`` trials, in row order on one rng seeded with ``seed``; one report per row.

    gek's only trial loop.  A row runs in chunks of _CHUNK trials.  Draw:
    ``row.draw`` once per trial, in the seeded order, keeps only the trial's
    variates and its shape key, and reads every bounded draw through the one
    reader of the rng, ``_bounded(rng)``.  Build: ``row.build`` stacks the
    trials of one shape into blocks, one per vector slot, with the trials along
    the first axis and each vector along the last, and gives the shape's extras
    (one per trial, or None for none).  A row with no vector slot builds no
    blocks, never reads ``spec`` (None if no row has a slot), and its judge
    reads only the extras.  Validate and evaluate (``_chunk_values``): every
    block is checked and reduced as a whole, and the scalar tail maps each
    reduced block.  Judge: ``row.judge`` once per shape gives the residual of
    each of its k trials and which to skip, by numpy's IEEE operations, which
    round as Python's floats do.  Fold: the chunk's residuals, in trial
    order, into the row's ``_Worst``; ``row.witness`` runs only for a trial
    that becomes the worst.  An error ends the check as the one-trial-at-a-time
    loop ended it: a chunk whose judges raise is judged again one trial at a
    time, in trial order, to raise the first trial's error.
    """
    check_trials(trials)
    rng = np.random.default_rng(seed)
    below = _bounded(rng)
    reports = []
    for row in rows:
        fold, skipped = _Worst(row.worst, tol if row.limit is None else row.limit), 0
        for start in range(0, trials, _CHUNK):
            n = min(_CHUNK, trials - start)
            shapes: dict = {}
            for t in range(n):
                key, variates = row.draw(rng, below, w_values)
                shapes.setdefault(key, []).append((t, variates))
            chunk = []
            for key, members in shapes.items():
                ids, variates = zip(*members)
                chunk.append((ids, *row.build(key, variates)))
            values = _chunk_values(spec, chunk, row.dists)
            judged = _judge_chunk(spec, row.judge, chunk, values)
            skipped += _fold_chunk(fold, row.witness, chunk, values, judged, n)
        reports.append(fold.report(row.name, trials, seed, skipped))
    return reports


def _raise_first(chunk, per_trial: Callable[[int, int], object]) -> NoReturn:
    """Run ``per_trial(s, j)``, on trial j of shape s, for each trial of a chunk that raised, in trial order.

    The first trial that raises ends the run with its error, the one a
    one-trial-at-a-time loop raised.
    """
    order: list = [None] * sum(len(ids) for ids, *_ in chunk)
    for s, (ids, *_) in enumerate(chunk):
        for j, t in enumerate(ids):
            order[t] = (s, j)
    for s, j in order:
        per_trial(s, j)
    raise AssertionError("a chunk raised once but not again")  # pragma: no cover


def _judge_chunk(spec, judge, chunk, values) -> list[tuple]:
    """``judge`` on each shape of the chunk, or the error of the first trial, in trial order, whose judge raises."""
    try:
        return [judge(spec, blocks, v, extras) for (_, blocks, extras), v in zip(chunk, values)]
    except Exception:  # judged again below, outside this handler, so the error raised carries no other
        pass

    def judge_one(s: int, j: int) -> None:
        _, blocks, extras = chunk[s]
        judge(spec, tuple(b[j:j + 1] for b in blocks), values[s][j:j + 1], None if extras is None else extras[j:j + 1])

    _raise_first(chunk, judge_one)


def _fold_chunk(fold: _Worst, witness, chunk, values, judged, n: int) -> int:
    """Fold the chunk's residuals into ``fold`` in trial order, less the skipped trials; how many were skipped.

    The worst value is reported as the judge gave it: a Python float from an
    array of residuals, or the element itself from a list.
    """
    residuals, skip = np.empty(n), np.zeros(n, dtype=bool)
    for (ids, _, _), (r, s, _) in zip(chunk, judged):
        residuals[list(ids)] = r
        if s is not None:
            skip[list(ids)] = s
    kept = np.flatnonzero(~skip) if skip.any() else None

    def read(i: int) -> tuple:
        t = i if kept is None else int(kept[i])
        for (ids, blocks, _), v, (r, _, extras) in zip(chunk, values, judged):
            if t in ids:
                j = ids.index(t)
                return r.item(j) if isinstance(r, np.ndarray) else r[j], witness(blocks, v, extras, j)

    fold.fold(residuals if kept is None else residuals[kept], read)
    return 0 if kept is None else n - kept.size


def _chunk_values(spec: EntropySpec | None, chunk, dists: int) -> list[np.ndarray]:
    """Each shape's (k, m) array of its trials' values: the tail of each family sum, slot after slot.

    The blocks of one slot and width are concatenated (several shapes share a
    width only where a key has two parts), so each is checked and reduced by
    a few numpy calls, with ``spec.block_sums``.  The first ``dists`` slots
    hold distributions: the first vector among them that is not one, in trial
    order, is handed to ``Distribution``, which raises its own error.  Then
    the scalar tail maps each reduced block, and the values are sliced back
    per shape.  A tail that raises is run again on every sum in trial order,
    then slot order, so the error that ends the check is that of the first
    such sum.
    """
    if not chunk[0][1]:
        return [np.empty((len(ids), 0)) for ids, *_ in chunk]
    reduced, bad = [], []
    for slot in range(len(chunk[0][1])):
        widths: dict = {}
        for s, (_, blocks, _) in enumerate(chunk):
            widths.setdefault(blocks[slot].shape[1:], []).append(s)
        for shapes in widths.values():
            parts = [chunk[s][1][slot] for s in shapes]
            block = parts[0] if len(parts) == 1 else np.concatenate(parts)
            if slot < dists:
                flags = invalid_rows(block)
                if flags.any():
                    ids = [t for s in shapes for t in chunk[s][0]]
                    bad += [(ids[i], slot, block[i]) for i in np.flatnonzero(flags).tolist()]
            reduced.append((shapes, spec.block_sums(block).reshape(len(block), -1)))
    if bad:
        Distribution(min(bad, key=lambda b: b[:2])[2])
    tail = spec.from_row_sum
    try:
        tails = [np.fromiter(map(tail, s.ravel().tolist()), float, s.size).reshape(s.shape) for _, s in reduced]
    except Exception:  # run again below, outside this handler, so the error raised carries no other
        tails = None
    if tails is None:
        sums = _per_shape(chunk, reduced)
        _raise_first(chunk, lambda s, j: [list(map(tail, part[j].tolist())) for part in sums[s]])
    values = _per_shape(chunk, [(shapes, block) for (shapes, _), block in zip(reduced, tails)])
    return [v[0] if len(v) == 1 else np.concatenate(v, axis=1) for v in values]


def _per_shape(chunk, blocks) -> list[list[np.ndarray]]:
    """Each shape's rows of ``blocks``, slot by slot; a block is (its shapes, its rows, shape after shape)."""
    pieces: list[list[np.ndarray]] = [[] for _ in chunk]
    for shapes, block in blocks:
        at = 0
        for s in shapes:
            k = len(chunk[s][0])
            pieces[s].append(block[at:at + k])
            at += k
    return pieces


def _bounded(rng) -> Callable[[int], int]:
    """The bounded-draw reader of ``rng``: ``below(n)`` is ``int(rng.integers(n))`` for 1 <= n < 2**32.

    It gives the same value and leaves the generator in the same state.  numpy
    draws an integer below n by Lemire's method (arXiv:1805.10941, its
    ``buffered_bounded_lemire_uint32``): m = x * n for a 32-bit output x,
    redrawn while the low word of m is below 2**32 % n, and the high word of m
    is the value; a one-value range draws nothing.  These are the same steps,
    with x read through the bit generator's ``next_uint32``, the C function
    (with its half-word buffer) that ``integers``, ``multinomial`` and
    ``standard_exponential`` read, so the calls interleave with theirs.  It
    skips the argument handling of ``Generator.integers``, most of a scalar
    call's cost, and the C function and its state are looked up once per
    generator.  ``below`` checks no bound: outside [1, 2**32) its value is
    wrong or its loop never ends, so every caller draws below a count it has
    checked (``_w_range`` caps the number of W values), and ``_below`` checks.
    Not thread-safe: it bypasses the generator's lock, so the generator must be
    used by one thread only, as each ``_run_rows`` owns its own.
    """
    bits = rng.bit_generator.ctypes
    next_uint32, state = bits.next_uint32, bits.state

    def below(n: int) -> int:
        if n == 1:
            return 0
        m = next_uint32(state) * n
        if m & 0xFFFFFFFF < n:
            threshold = 2**32 % n
            while m & 0xFFFFFFFF < threshold:
                m = next_uint32(state) * n
        return m >> 32

    below.bit_generator = rng.bit_generator  # the state that next_uint32 writes lives as long as the reader
    return below


def _below(rng, n: int) -> int:
    """``_bounded(rng)(n)``, with n checked to lie in [1, 2**32)."""
    if not 0 < n < 2**32:
        raise ValueError(f"the bound {n} is outside [1, 2**32)")
    return _bounded(rng)(n)


def _w_range(w_values: Sequence[int], least: int = 1) -> Sequence[int]:
    """``w_values``, checked before any draw: a sampled check needs one or more W, each an integer >= ``least``.

    A draw picks one of them by a bounded draw, so there may be at most 2**32 - 1.
    """
    try:
        count = len(w_values)
    except OverflowError:  # a range longer than sys.maxsize has no len
        count = 2**32
    if count >= 2**32:
        raise InputError("a sampled check draws from at most 2**32 - 1 W values")
    if not w_values or not all(map(_integral, w_values)) or min(w_values) < least:
        raise InputError(
            f"a sampled check needs one or more W values, each at least {least} and integral, got {list(w_values)}"
        )
    return w_values


def _w_upto(max_w: int) -> Sequence[int]:
    """W = 1, ..., ``max_w``, checked as ``_w_range`` checks it; a non-integral ``max_w`` never reaches ``range``."""
    return _w_range(range(1, max_w + 1) if _integral(max_w) else [max_w])


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


# A draw picks W as int(w_values[below(len(w_values))]): the same draw as rng.choice(w_values), and on a
# range(1, k + 1) as rng.integers(1, k + 1), which cost about eight times as much.


def _draw_simplex(rng, below, w_values):
    # the draws of one row of _flat_dirichlet_rows, or of _interior_rows
    w = int(w_values[below(len(w_values))])
    return w, rng.standard_exponential(w)


def _draw_product(rng, below, w_values):
    n = len(w_values)
    wa, wb = int(w_values[below(n)]), int(w_values[below(n)])
    return (wa, wb), (rng.standard_exponential(wa), rng.standard_exponential(wb))


def _build_product(key, variates):
    ea, eb = zip(*variates)
    p, r = _flat_dirichlet_rows(ea), _flat_dirichlet_rows(eb)
    # row i of the joint block is np.outer(p[i], r[i]).ravel()
    return (p, r, (p[:, :, None] * r[:, None, :]).reshape(len(p), -1)), None


def _judge_product(spec, blocks, values, _):
    # values holds S(p), S(r) and S(p x r); the witness reads each trial's law value, so it never calls phi
    phi = spec.phi
    combined = [phi(s_p, s_r) for s_p, s_r in values[:, :2].tolist()]
    return _relative_gap(values[:, 2], combined), None, combined


def _relative_gap(joint: np.ndarray, combined) -> np.ndarray:
    """|joint - combined| / (1 + |joint|), elementwise: a composability residual."""
    with np.errstate(**_QUIET):
        return np.abs(joint - combined) / (1.0 + np.abs(joint))


def _witness_product(blocks, values, combined, i):
    return {"p": blocks[0][i].tolist(), "r": blocks[1][i].tolist(), "joint": values.item(i, 2), "combined": combined[i]}


_COMPOSABILITY = (_Row("composability", _draw_product, _build_product, _judge_product, _witness_product, 3, 0.0),)


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


def _witness_extra(fields: tuple) -> Callable:
    """The witness of a row with no vector slot: the trial's variates, by name."""
    return lambda blocks, values, extras, i: dict(zip(fields, extras[i]))


def _draw_uniform_pair(rng, below, w_values):
    n = len(w_values)
    return None, (int(w_values[below(n)]), int(w_values[below(n)]))


def _judge_uniform_pair(spec, blocks, values, pairs):
    uniform, phi = spec.uniform_value, spec.phi
    joint, combined = np.array([(uniform(a * b), phi(uniform(a), uniform(b))) for a, b in pairs]).T
    return _relative_gap(joint, combined), None, pairs


_ON_UNIFORM = (
    _Row("composability-on-uniform", _draw_uniform_pair, _build_scalar, _judge_uniform_pair,
         _witness_extra(("w_a", "w_b")), 0, 0.0),
)


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


def _draw_triple(rng, below, w_values):
    return None, rng.uniform(0.0, 3.0, size=3)


def _judge_axioms(spec, blocks, values, triples):
    # a refusal skips the trial: the law of a drawn pair may leave G's range or domain.  x, y and z are numpy
    # scalars, and so is each residual, which is why they stay a list
    phi, residuals, skip = spec.phi, [], []
    for x, y, z in triples:
        try:
            parts = (abs(phi(x, y) - phi(y, x)), abs(phi(phi(x, y), z) - phi(x, phi(y, z))), abs(phi(x, 0.0) - x))
        except (RangeError, DomainError):
            residuals.append(math.nan)
            skip.append(True)
            continue
        residual = max(parts) if all(v == v for v in parts) else math.nan
        residuals.append(residual / (1.0 + abs(x) + abs(y) + abs(z)))
        skip.append(False)
    return residuals, skip, triples


_GROUP_AXIOMS = (_Row("group-axioms", _draw_triple, _build_scalar, _judge_axioms, _witness_extra("xyz"), 0, 0.0),)


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


def _draw_continuity(rng, below, w_values):
    w, e = _draw_simplex(rng, below, w_values)
    return w, (e, rng.normal(size=w))


def _build_continuity(w, variates):
    e, direction = zip(*variates)
    p, direction = _interior_rows(w, e), np.array(direction)
    direction -= direction.mean(axis=1, keepdims=True)
    norm = np.abs(direction).sum(axis=1, keepdims=True)
    # a zero direction (w = 1) is divided by 1, not 0; p stands in for each shift that is not admissible
    shifted = p + _STEP * direction / np.where(norm > 0, norm, 1.0)
    admissible = (norm[:, 0] > 0) & ~(shifted < 0).any(axis=1)
    return (p, np.where(admissible[:, None], shifted, p)), admissible


def _judge_continuity(spec, blocks, values, admissible):
    with np.errstate(**_QUIET):
        return np.abs(values[:, 1] - values[:, 0]) / _STEP, ~admissible, admissible


def _witness_continuity(blocks, values, admissible, i):
    ratio = abs(values.item(i, 1) - values.item(i, 0)) / _STEP
    return {"lipschitz_estimate": ratio} if math.isfinite(ratio) else {"p": blocks[0][i].tolist()}


def _build_maximum(w, variates):
    return (_flat_dirichlet_rows(variates),), None


def _judge_maximum(spec, blocks, values, extras):
    uniform = spec.uniform_value(blocks[0].shape[1])
    with np.errstate(**_QUIET):
        return values[:, 0] - uniform, None, extras


def _witness_maximum(blocks, values, extras, i):
    return {"p": blocks[0][i].tolist(), "w": blocks[0].shape[1]}


def _build_expansibility(w, variates):
    p = _flat_dirichlet_rows(variates)
    # row i of the second block is np.append(p[i], 0.0)
    return (p, np.concatenate((p, np.zeros((len(p), 1))), axis=1)), None


def _judge_expansibility(spec, blocks, values, extras):
    with np.errstate(**_QUIET):
        return np.abs(values[:, 1] - values[:, 0]), None, extras


def _witness_p(blocks, values, extras, i):
    return {"p": blocks[0][i].tolist()}


_SK_AXIOMS = (
    _Row("sk-continuity-proxy", _draw_continuity, _build_continuity, _judge_continuity, _witness_continuity, 1, 0.0,
         sys.float_info.max),
    _Row("sk-maximum-on-uniform", _draw_simplex, _build_maximum, _judge_maximum, _witness_maximum, 1, -math.inf, 1e-12),
    _Row("sk-expansibility", _draw_simplex, _build_expansibility, _judge_expansibility, _witness_p, 2, 0.0, 1e-14),
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


class MajorizationPair(Record):
    """Two distributions with p majorized by r, validated on construction."""

    __slots__ = ("p", "r")

    def __init__(self, p: Distribution, r: Distribution) -> None:
        if not majorizes(r.p.tolist(), p.p.tolist(), tol=1e-12):
            raise ValueError("r does not majorize p")
        super().__init__(p, r)


@lru_cache(maxsize=64)
def _uniform_pvals(w: int) -> np.ndarray:
    # multinomial's pvals at w, built once; read-only, as every caller shares it
    pvals = np.full(w, 1.0 / w)
    pvals.setflags(write=False)
    return pvals


def _majorization_masses(w: int, steps: int, rng, below) -> tuple[list[int], list[int]]:
    """Robin-Hood transfers on an exact integer mass vector: the masses of p and r, over _MASS_DENOM.

    Starting from a random r, each step moves mass from a larger to a smaller
    coordinate without letting them cross, so the result p is majorized by r;
    the integer dominance check is exact.  ``below`` is ``_bounded(rng)``.
    A step's pair is the draw of rng.choice(w, size=2, replace=False), which
    samples by Floyd's algorithm: an index below w - 1 and one below w that
    becomes w - 1 on a collision, then one more draw below 2 that shuffles
    the two.  These are the same three bounded draws, at a third of that
    call's cost; the step orders the pair by mass, so the shuffle is drawn
    and not applied.
    """
    if w < 2:
        raise ValueError("need at least two outcomes")
    masses_r = rng.multinomial(_MASS_DENOM, _uniform_pvals(w)).tolist()
    masses_p = list(masses_r)
    last = w - 1
    for _ in range(steps):
        i, j = below(last), below(w)
        if j == i:
            j = last
        below(2)
        a, b = masses_p[i], masses_p[j]
        if a == b:
            continue
        if a < b:
            i, j, a, b = j, i, b, a
        amount = below((a - b) // 2 + 1)
        masses_p[i] = a - amount
        masses_p[j] = b + amount
    if not majorizes(masses_r, masses_p, tol=0):
        raise AssertionError("transfer chain violated dominance")  # pragma: no cover
    return masses_p, masses_r


def generate_majorization_pair(w: int, steps: int, rng) -> MajorizationPair:
    """A validated pair with p majorized by r, from ``_majorization_masses``.

    The masses live on a power-of-two grid, which keeps the float conversion
    and the dominance check exact.
    """
    masses_p, masses_r = _majorization_masses(w, steps, rng, _bounded(rng))
    return MajorizationPair(
        p=Distribution(np.array(masses_p, dtype=float) / _MASS_DENOM),
        r=Distribution(np.array(masses_r, dtype=float) / _MASS_DENOM),
    )


def _draw_ordering(rng, below, w_values):
    w = int(w_values[below(len(w_values))])
    return w, _majorization_masses(w, 1 + below(11), rng, below)


def _build_ordering(w, variates):
    masses = np.array(variates, dtype=float)  # trial, (p, r), entry
    return (masses[:, 1] / _MASS_DENOM, masses[:, 0] / _MASS_DENOM), None


def _judge_ordering(spec, blocks, values, extras):
    with np.errstate(**_QUIET):
        return values[:, 0] - values[:, 1], None, extras


def _witness_ordering(blocks, values, extras, i):
    return {"p": blocks[1][i].tolist(), "r": blocks[0][i].tolist()}


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
    return (p, shifted), h


def _judge_criterion(spec, blocks, values, h):
    # column 0 of values is S(p); columns 2i + 1 and 2i + 2 are S at p with h_i added to and subtracted from entry i
    i, j = np.triu_indices(h.shape[1], 1)  # the pairs i < j, in the order of the nested loop over i, then j
    p = blocks[0]
    with np.errstate(**_QUIET):
        grad = (values[:, 1::2] - values[:, 2::2]) / (2 * h)
        products = (p[:, i] - p[:, j]) * (grad[:, i] - grad[:, j])
    # each trial's first NaN, else its first largest product, as max() finds it; a row has at least one pair
    return products[np.arange(len(p)), products.argmax(axis=1)], None, h


_SCHUR = (
    _Row("schur-majorization-ordering", _draw_ordering, _build_ordering, _judge_ordering, _witness_ordering, 2,
         -math.inf, 1e-12),
    _Row("schur-ostrowski-criterion", _draw_simplex, _build_criterion, _judge_criterion, _witness_p, 1, -math.inf,
         1e-10),
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

    def draw(rng, below, w_values):
        return None, (rng.standard_exponential(w), rng.standard_exponential(w), rng.uniform(0.05, 0.95))

    def pair(variates):
        *e, lam = variates
        p1, p2 = (Distribution(v).p for v in _interior_rows(w, e))
        return p1, p2, lam

    def violation(variates):
        p1, p2, lam = pair(variates)
        mix = lam * p1 + (1 - lam) * p2
        raw = ((1.0 - np.sum(np.array([p1, p2, mix]) ** exponent, axis=1)) / (q - 1.0)).tolist()
        return lam * raw[0] + (1 - lam) * raw[1] - raw[2]

    def judge(spec, blocks, values, trials):
        return list(map(violation, trials)), None, trials

    def witness(blocks, values, trials, i):
        p1, p2, lam = pair(trials[i])
        return {"p1": p1.tolist(), "p2": p2.tolist(), "lambda": lam}

    row = _Row("saq-concavity-counterexample-search", draw, _build_scalar, judge, witness, 0, -math.inf, 1e-12)
    return _run_rows(None, (row,), trials, seed, ())[0]
