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
from typing import Callable, NamedTuple, Sequence

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
# trials a randomized check draws, validates and evaluates together, so a row of 1000 trials is one chunk.  It
# fixes the stream as well as the memory bound: a row draws each variate of a chunk in one numpy call per shape,
# so a seed gives the same reports only at the same _CHUNK, and it stays a constant.  The widest is
# check_composability(max_w=40) at 40 + 40 + 1600 = 1680 floats a trial: 1024 * 1680 * 8 B = 13.8 MB of blocks,
# held twice while concatenated
_CHUNK = 1024
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
        self.failures = self.skipped = 0
        self.witness: dict = {}

    def fold(self, chunk, order, values, judged, witness) -> None:
        """Fold a chunk as if one trial at a time, in trial order; a skipped trial is only counted.

        Each shape's residuals and skip mask go into trial order by its trial
        ids.  The candidate is the first NaN of the kept trials, else the first
        index of ``argmax``, never ``max``, which may return 0.0 for [-0.0, 0.0].
        It becomes the worst if it is larger, or a NaN over a number, so the
        first of equal values wins.  Its value is reported as the judge gave it:
        a Python float from an array of residuals, or the element of a list.
        """
        n = len(order)
        residuals, skip = np.empty(n), np.zeros(n, dtype=bool)
        for (ids, _, _), (r, s, _) in zip(chunk, judged):
            residuals[np.asarray(ids)] = r
            if s is not None:
                skip[np.asarray(ids)] = s
        kept = np.flatnonzero(~skip)
        self.skipped += n - kept.size
        if not kept.size:
            return
        residuals = residuals[kept]
        with np.errstate(**_QUIET):
            i = int(residuals.argmax())
            passed = int(np.count_nonzero(residuals <= self.limit))
        value = residuals.item(i)
        if value > self.worst or (value != value and self.worst == self.worst):
            s, j = order[kept.item(i)]
            r, _, extras = judged[s]
            self.worst = r.item(j) if isinstance(r, np.ndarray) else r[j]
            self.witness = witness(chunk[s][1], values[s], extras, j)
        self.failures += kept.size - passed

    def report(self, name: str, trials: int, seed: int) -> PropertyReport:
        return PropertyReport(name, trials, self.failures, self.worst, seed, self.skipped, self.witness)


class _Row(NamedTuple):
    """One sampled property, a row of the table that ``_run_rows`` runs."""

    name: str  # the report's name
    draw: Callable  # (rng, n, w_values) -> the chunk's shapes, each (key, its trial ids, its stacked variates)
    build: Callable  # (key, the stacked variates of that shape's trials) -> (blocks, extras); see _run_rows
    judge: Callable  # (spec, blocks, values, extras) -> (residuals, skip mask or None, the witness's extras)
    witness: Callable  # (blocks, values, extras, i) -> the witness of the shape's trial i
    dists: int  # how many leading blocks hold distributions
    worst: float  # the start of the row's _Worst fold
    limit: float | None = None  # the largest passing value; None is the check's tol
    law: Callable | None = None  # (spec, each shape's values) -> each shape's judge extras; once per chunk, replay too


def _run_rows(spec: EntropySpec | None, rows, trials: int, seed: int, w_values, tol=None) -> list[PropertyReport]:
    """Run each row for ``trials`` trials, in row order on one rng seeded with ``seed``; one report per row.

    gek's only trial loop.  A row runs in chunks of _CHUNK trials.  Draw:
    ``row.draw`` once per chunk gives its shapes in the order of their first
    trials, each with its key, its trial ids in ascending order and its seeded
    variates, stacked with the trials along the first axis; it draws each kind
    of variate in one numpy call per shape, so _CHUNK fixes the stream.
    ``order[t]`` is (s, j) for trial t, trial j of shape s.  Build:
    ``row.build`` turns the variates of one shape into blocks, one per vector
    slot, with the trials along the first axis and each vector along the
    last, and gives the shape's extras (one per trial, or
    None for none).  A row with no vector slot builds no blocks, never reads
    ``spec`` (None if no row has a slot), and its judge reads only the extras.
    Validate and evaluate (``_chunk_values``): every block is checked and
    reduced as a whole, and the family's scalar tail runs once per reduced
    block.  Judge: a row with a ``law`` first runs it once over the chunk's
    values, and each shape's judge gets its share as extras (the
    composability row's phi, which a block law pays for once per chunk);
    ``row.judge`` once per shape gives the residual of each of its k trials
    and which to skip, by numpy's IEEE operations, which round as Python's
    floats do.  Fold: ``_Worst.fold`` scatters the chunk's residuals
    and skip masks into trial order, counts the skipped trials, and folds the
    kept ones into the row's worst; ``row.witness`` runs only for a trial that
    becomes the worst.  An error ends the check as the one-trial-at-a-time
    loop ended it: a chunk with a bad vector, or one whose tails, law or
    judges raise, is run again on the same path one trial at a time, in trial
    order, each trial a one-trial chunk that is validated, evaluated, put
    through the law and judged before the next (``_evaluate``).  So the first
    trial that raises ends the check, and a law or judge error on an earlier
    trial wins over a value error on a later one, whatever the chunk size.
    """
    check_trials(trials)
    rng = np.random.default_rng(seed)
    reports = []
    for row in rows:
        fold = _Worst(row.worst, tol if row.limit is None else row.limit)
        for start in range(0, trials, _CHUNK):
            n = min(_CHUNK, trials - start)
            chunk, shape_of, row_of = [], np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
            for s, (key, ids, variates) in enumerate(row.draw(rng, n, w_values)):
                shape_of[ids], row_of[ids] = s, np.arange(len(ids))
                chunk.append((ids, *row.build(key, variates)))
            order = list(zip(shape_of.tolist(), row_of.tolist()))
            values, judged = _evaluate(spec, row, chunk, order)
            fold.fold(chunk, order, values, judged, row.witness)
        reports.append(fold.report(row.name, trials, seed))
    return reports


def _evaluate(spec, row, chunk, order) -> tuple[list, list]:
    """Each shape's values and its judge's (residuals, skip, extras); or the first trial's error, in trial order.

    ``_judged`` runs the whole chunk.  If anything raises, it runs again on
    each trial in ``order`` as a one-trial chunk, as the one-trial-at-a-time
    loop ran it (a one-row ``block_sums`` is the chunk's sum bit for bit), so
    the first trial that raises ends the check with its own error.
    """
    try:
        return _judged(spec, row, chunk)
    except Exception:  # run again below, outside this handler, so the error raised carries no other
        pass
    for s, j in order:
        _, blocks, extras = chunk[s]
        _judged(spec, row, [((0,), tuple(b[j:j + 1] for b in blocks), None if extras is None else extras[j:j + 1])])
    raise AssertionError("a chunk raised once but not again")  # pragma: no cover


def _judged(spec, row, chunk) -> tuple[list, list]:
    """Each shape's values (``_chunk_values``), then the row's law if it has one, then each shape's judge."""
    values = _chunk_values(spec, chunk, row.dists)
    extras = row.law(spec, values) if row.law else [extras for *_, extras in chunk]
    return values, [row.judge(spec, blocks, v, e) for (_, blocks, _), v, e in zip(chunk, values, extras)]


def _chunk_values(spec: EntropySpec | None, chunk, dists: int) -> list[np.ndarray]:
    """Each shape's (k, m) array of its trials' values: the tail of each family sum, slot after slot.

    The blocks of one slot and width are concatenated (several shapes share a
    width only where a key has two parts), so each is checked and reduced by
    a few numpy calls, with ``spec.block_sums``.  The first ``dists`` slots
    hold distributions: a block with a vector that ``invalid_rows`` rejects
    hands its first such vector to ``Distribution``, which raises its own
    error.  ``spec.from_row_sums`` runs the family's tail once per reduced
    block, and the values are sliced back per shape.
    """
    if not chunk[0][1]:
        return [np.empty((len(ids), 0)) for ids, *_ in chunk]
    values: list[list[np.ndarray]] = [[] for _ in chunk]
    for slot in range(len(chunk[0][1])):
        widths: dict = {}
        for s, (_, blocks, _) in enumerate(chunk):
            widths.setdefault(blocks[slot].shape[1:], []).append(s)
        for shapes in widths.values():
            parts = [chunk[s][1][slot] for s in shapes]
            block = parts[0] if len(parts) == 1 else np.concatenate(parts)
            if slot < dists and (bad := invalid_rows(block)).any():
                Distribution(block[bad.argmax()])
                raise AssertionError("Distribution accepts a vector that invalid_rows rejects")
            sums = spec.block_sums(block).reshape(len(block), -1)
            tails = np.array(spec.from_row_sums(sums.ravel().tolist()), float).reshape(sums.shape)
            at = 0
            for s in shapes:
                k = len(chunk[s][0])
                values[s].append(tails[at:at + k])
                at += k
    return [v[0] if len(v) == 1 else np.concatenate(v, axis=1) for v in values]


def _w_range(w_values: Sequence[int], least: int = 1) -> Sequence[int]:
    """``w_values``, checked before any draw: a sampled check needs one or more W, each an integer >= ``least``.

    There may be at most 2**32 - 1 of them: a draw picks one by its index,
    ``rng.integers(0, len(w_values))``, which numpy draws by its 32-bit method
    up to 2**32 values and by its 64-bit one past that, so the cap keeps every
    accepted range on one draw law.
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


def _flat_dirichlet_rows(exponentials: np.ndarray) -> np.ndarray:
    """Rows of a flat Dirichlet distribution: each row of standard exponentials over its sum."""
    return exponentials / exponentials.sum(axis=1, keepdims=True)


def _interior_rows(w: int, exponentials: np.ndarray) -> np.ndarray:
    # keep every coordinate >= 1e-3 so alpha < 1 derivatives stay finite
    return 0.99 * _flat_dirichlet_rows(exponentials) + 0.01 / w


def _shapes(keys: np.ndarray) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """(key, trial ids) of each distinct row of the (n, c) integer ``keys``, in the order of its first trial.

    Each shape's ids are ascending, so its trials keep their trial order.
    """
    order = np.lexsort(keys.T[::-1])  # stable
    ranked = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], (ranked[1:] != ranked[:-1]).any(axis=1))))
    ends = np.append(starts[1:], len(order))
    shapes = sorted(zip(order[starts].tolist(), ranked[starts].tolist(), starts.tolist(), ends.tolist()))
    return [(tuple(key), order[start:end]) for _, key, start, end in shapes]


def _w_shapes(rng, n: int, w_values: Sequence[int]) -> list[tuple[int, np.ndarray]]:
    """(W, trial ids) of each W that ``n`` trials draw, uniformly from ``w_values``, in the order of its first trial."""
    drawn = rng.integers(0, len(w_values), size=(n, 1))
    return [(int(w_values[i]), ids) for (i,), ids in _shapes(drawn)]


def _draw_simplex(rng, n, w_values):
    # one (k, w) block of standard exponentials per W: the rows of _flat_dirichlet_rows, or of _interior_rows
    return [(w, ids, (rng.standard_exponential((len(ids), w)),)) for w, ids in _w_shapes(rng, n, w_values)]


def _draw_product(rng, n, w_values):
    # the (W_a, W_b) pair of each trial, then per pair the exponentials of p, then those of r
    shapes = [((int(w_values[a]), int(w_values[b])), ids)
              for (a, b), ids in _shapes(rng.integers(0, len(w_values), size=(n, 2)))]
    return [(key, ids, tuple(rng.standard_exponential((len(ids), w)) for w in key)) for key, ids in shapes]


def _build_product(key, variates):
    p, r = map(_flat_dirichlet_rows, variates)
    # row i of the joint block is np.outer(p[i], r[i]).ravel()
    return (p, r, (p[:, :, None] * r[:, None, :]).reshape(len(p), -1)), None


def _law_product(spec, values):
    """Each shape's list of phi(S(p), S(r)), from one ``spec.phis`` over the whole chunk, in shape order.

    A block law pays its numpy calls once per chunk, not once per shape.
    """
    combined = spec.phis(np.concatenate([v[:, 0] for v in values]).tolist(),
                         np.concatenate([v[:, 1] for v in values]).tolist())
    ends = np.cumsum([len(v) for v in values]).tolist()
    return [combined[end - len(v):end] for v, end in zip(values, ends)]


def _judge_product(spec, blocks, values, combined):
    # values holds S(p), S(r) and S(p x r), and combined each trial's law value from _law_product, which the witness
    # reads too, so neither calls phi
    return _relative_gap(values[:, 2], combined), None, combined


def _relative_gap(joint: np.ndarray, combined) -> np.ndarray:
    """|joint - combined| / (1 + |joint|), elementwise: a composability residual."""
    with np.errstate(**_QUIET):
        return np.abs(joint - combined) / (1.0 + np.abs(joint))


def _witness_product(blocks, values, combined, i):
    return {"p": blocks[0][i].tolist(), "r": blocks[1][i].tolist(), "joint": values.item(i, 2), "combined": combined[i]}


_COMPOSABILITY = (
    _Row("composability", _draw_product, _build_product, _judge_product, _witness_product, 3, 0.0, law=_law_product),
)


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


def _one_shape(n: int, variates) -> list:
    """The one shape of a chunk of a row with no vector slot: every trial, with its variates."""
    return [(None, np.arange(n), variates)]


def _witness_extra(fields: tuple) -> Callable:
    """The witness of a row with no vector slot: the trial's variates, by name."""
    return lambda blocks, values, extras, i: dict(zip(fields, extras[i]))


def _draw_uniform_pair(rng, n, w_values):
    # the stream of a (W_a, W_b) pair per trial, each int(rng.integers(len(w_values))): one call for the chunk
    drawn = rng.integers(0, len(w_values), size=2 * n).tolist()
    return _one_shape(n, [(int(w_values[a]), int(w_values[b])) for a, b in zip(drawn[::2], drawn[1::2])])


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


def _draw_triple(rng, n, w_values):
    # the stream of rng.uniform(0.0, 3.0, size=3) per trial; each row's x, y and z are numpy scalars
    return _one_shape(n, rng.uniform(0.0, 3.0, size=(n, 3)))


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


def _draw_continuity(rng, n, w_values):
    # per W, the exponentials of p, then the normals of its shift's direction
    return [(w, ids, (rng.standard_exponential((len(ids), w)), rng.normal(size=(len(ids), w))))
            for w, ids in _w_shapes(rng, n, w_values)]


def _build_continuity(w, variates):
    e, direction = variates
    p = _interior_rows(w, e)
    direction = direction - direction.mean(axis=1, keepdims=True)
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
    return (_flat_dirichlet_rows(*variates),), None


def _judge_maximum(spec, blocks, values, extras):
    uniform = spec.uniform_value(blocks[0].shape[1])
    with np.errstate(**_QUIET):
        return values[:, 0] - uniform, None, extras


def _witness_maximum(blocks, values, extras, i):
    return {"p": blocks[0][i].tolist(), "w": blocks[0].shape[1]}


def _build_expansibility(w, variates):
    p = _flat_dirichlet_rows(*variates)
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


def _majorization_masses(rng, w: int, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Robin-Hood transfers on exact integer masses, one chain per entry of ``steps``: the (k, w) masses of p and r.

    Each r is a multinomial draw of _MASS_DENOM over w equal cells.  Chain t
    takes ``steps[t]`` steps, each of which moves mass from the larger to the
    smaller of two coordinates without letting them cross, so its p is
    majorized by its r; the integer dominance check is exact.  A step draws
    one pair for every chain, a uniform unordered pair by Floyd's draw (an
    index i below w - 1 and one below w that becomes w - 1 where it equals i,
    both read from one draw below w(w - 1); unshuffled, since the step orders
    the pair by mass), then an amount uniform below |a - b| // 2 + 1.  A chain
    past its own step count moves nothing: its amount is drawn below 1, which
    reads no bits, as for a pair of equal masses.
    """
    if w < 2:
        raise ValueError("need at least two outcomes")
    k = len(steps)
    masses_r = rng.multinomial(_MASS_DENOM, _uniform_pvals(w), size=k)
    masses_p = masses_r.copy()
    flat, rows = masses_p.reshape(-1), np.arange(0, k * w, w)  # the index of each chain's first mass in flat
    for step in range(int(steps.max(initial=0))):
        i, j = np.divmod(rng.integers(0, w * (w - 1), size=k), w)
        j[j == i] = w - 1
        i += rows
        j += rows
        gap = flat[i] - flat[j]
        amount = rng.integers(0, np.where(step < steps, np.abs(gap) // 2 + 1, 1)) * np.sign(gap)
        flat[i] -= amount
        flat[j] += amount
    run_r, run_p = (np.cumsum(-np.sort(-m, axis=1), axis=1) for m in (masses_r, masses_p))
    if not ((run_r[:, :-1] >= run_p[:, :-1]).all() and (run_r[:, -1] == run_p[:, -1]).all()):
        raise AssertionError("transfer chain violated dominance")  # pragma: no cover
    return masses_p, masses_r


def generate_majorization_pair(w: int, steps: int, rng) -> MajorizationPair:
    """A validated pair with p majorized by r: one chain of ``_majorization_masses``, of ``steps`` steps.

    The masses live on a power-of-two grid, which keeps the float conversion
    and the dominance check exact.  ``w`` and ``steps`` are integers, and
    ``steps`` is at least 0.
    """
    if not _integral(w):
        raise ValueError(f"the number of outcomes must be an integer, got {w!r}")
    if not (_integral(steps) and steps >= 0):
        raise ValueError(f"the number of transfer steps must be an integer at least 0, got {steps!r}")
    masses_p, masses_r = _majorization_masses(rng, int(w), np.array([steps]))
    return MajorizationPair(p=Distribution(masses_p[0] / _MASS_DENOM), r=Distribution(masses_r[0] / _MASS_DENOM))


def _draw_ordering(rng, n, w_values):
    # the W of each trial, then its step count, uniform on 1, ..., 11, then one block of chains per W
    shapes = _w_shapes(rng, n, w_values)
    steps = rng.integers(1, 12, size=n)
    return [(w, ids, (*_majorization_masses(rng, w, steps[ids]), steps[ids])) for w, ids in shapes]


def _build_ordering(w, variates):
    masses_p, masses_r, _ = variates  # the step counts are kept for the law test, not built
    return (masses_r / _MASS_DENOM, masses_p / _MASS_DENOM), None


def _judge_ordering(spec, blocks, values, extras):
    with np.errstate(**_QUIET):
        return values[:, 0] - values[:, 1], None, extras


def _witness_ordering(blocks, values, extras, i):
    return {"p": blocks[1][i].tolist(), "r": blocks[0][i].tolist()}


def _build_criterion(w, variates):
    """p, and the 2w points of its central-difference gradient with steps h_i = 1e-6 max(p_i, 1e-3).

    Point 2i is p with h_i added to entry i, point 2i + 1 with h_i subtracted.
    """
    p = _interior_rows(w, *variates)
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

    def draw(rng, n, w_values):
        # per trial, two rows of exponentials (p1, p2) and a mixing weight
        return _one_shape(n, list(zip(rng.standard_exponential((n, 2, w)), rng.uniform(0.05, 0.95, size=n).tolist())))

    def pair(variates):
        e, lam = variates
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
