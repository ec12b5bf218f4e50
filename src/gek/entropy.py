"""Classical entropy functionals over finite distributions, with their composition laws.

All families here are either members of the generalized-logarithm class
ln_G(sum_i p_i^alpha)/(1 - alpha) or trace-form companions (Boltzmann, the
two-parameter deformed entropy, Landsberg-Vedral).  Every family carries the
two-argument law its values obey on products of independent systems.

Entropies are reported in nats with the Boltzmann constant set to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InputError, ParameterError, RangeError
from .grouplog import GroupFunction, check_params, group_family, group_function

SUM_TOLERANCE = 1e-12


class Distribution:
    """A finite discrete probability vector: entries >= 0 summing to 1.

    Validation is strict by default (total within 1e-12); pass
    ``renormalize=True`` to divide by the total instead.
    """

    __slots__ = ("p",)

    def __init__(self, probs, renormalize: bool = False):
        arr = np.asarray(probs, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise InputError("a distribution must be a nonempty 1-D vector")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise InputError("probabilities must be finite and nonnegative")
        total = float(arr.sum())
        if renormalize:
            if total <= 0:
                raise InputError("cannot renormalize a zero vector")
            arr = arr / total
        elif abs(total - 1.0) > SUM_TOLERANCE:
            raise InputError(f"probabilities sum to {total!r}, not 1 within {SUM_TOLERANCE}")
        arr = arr.copy()
        arr.setflags(write=False)
        self.p = arr

    @property
    def size(self) -> int:
        return int(self.p.size)

    @classmethod
    def uniform(cls, w: int) -> "Distribution":
        if w < 1:
            raise InputError("uniform distribution needs at least one outcome")
        return cls(np.full(w, 1.0 / w))

    @classmethod
    def delta(cls, w: int, index: int = 0) -> "Distribution":
        if w < 1 or not 0 <= index < w:
            raise InputError("delta distribution needs 1 <= size and a valid index")
        arr = np.zeros(w)
        arr[index] = 1.0
        return cls(arr)

    def append_zero(self) -> "Distribution":
        return Distribution(np.append(self.p, 0.0))

    def __repr__(self) -> str:
        return f"Distribution({self.p.tolist()})"


def _stack_by_length(rows: Sequence[np.ndarray], indices) -> list[tuple[list[int], np.ndarray]]:
    """The rows at ``indices`` grouped by length: (their indices, the rows stacked as a 2-D array)."""
    groups: dict[int, list[int]] = {}
    for i in indices:
        groups.setdefault(len(rows[i]), []).append(i)
    return [(idx, np.array([rows[i] for i in idx], dtype=float)) for idx in groups.values()]


def invalid_distributions(rows: Sequence[np.ndarray]) -> list[bool]:
    """For each vector in ``rows``, whether ``Distribution`` would reject it (the same checks, batched)."""
    bad = [False] * len(rows)
    for idx, block in _stack_by_length(rows, range(len(rows))):
        # Distribution's total, np.sum of one row, equals sum(axis=1) bit for bit; an empty row sums to 0
        off_sum = np.abs(block.sum(axis=1) - 1.0) > SUM_TOLERANCE
        flags = (block < 0).any(axis=1) | ~np.isfinite(block).all(axis=1) | off_sum
        for i, flag in zip(idx, flags.tolist()):
            bad[i] = flag
    return bad


def _power_sums(exponent: float) -> Callable[[np.ndarray], np.ndarray]:
    """The one power-sum reduction: sum_i x_i^exponent over the last axis of an array of positive entries."""
    if exponent <= 0:
        raise ParameterError("power sums are defined for positive exponents only")
    return lambda positive: np.sum(positive**exponent, axis=-1)


def power_sum(p: Distribution, alpha: float) -> float:
    """sum_i p_i^alpha with the convention 0^alpha = 0."""
    return float(_power_sums(alpha)(p.p[p.p > 0]))


def product_distribution(p: Distribution, r: Distribution) -> Distribution:
    """Joint distribution of two independent systems (outer product, flattened)."""
    return Distribution(np.outer(p.p, r.p).ravel())


def _check_alpha(alpha: float) -> None:
    if alpha <= 0:
        raise ParameterError("alpha must be positive")
    if alpha == 1:
        raise ParameterError("alpha = 1 is excluded; use the Boltzmann entropy for the limit")


def boltzmann(p: Distribution) -> float:
    """sum_i p_i ln(1/p_i), with 0 ln(1/0) = 0."""
    return EntropySpec("boltzmann", {}).value(p)


def renyi(alpha: float, p: Distribution) -> float:
    """ln(sum_i p_i^alpha)/(1 - alpha)."""
    return entropy_spec("renyi", {"alpha": alpha}).value(p)


def z_entropy(g: GroupFunction, alpha: float, p: Distribution) -> float:
    """The group entropy G(ln sum_i p_i^alpha)/(1 - alpha)."""
    return EntropySpec("zg", {"alpha": alpha}, g).value(p)


def alt_z_entropy(g: GroupFunction, alpha: float, p: Distribution) -> float:
    """The companion form G(ln(sum_i p_i^alpha)/(1 - alpha)): G applied after the quotient."""
    return EntropySpec("altz", {"alpha": alpha}, g).value(p)


def tsallis_aq(a: float, q: float, p: Distribution) -> float:
    """The two-parameter deformed trace-form entropy (1 - sum_i p_i^(a(q-1)+1))/(q - 1)."""
    return EntropySpec("tsallis_aq", {"a": a, "q": q}).value(p)


def landsberg_vedral(q: float, p: Distribution) -> float:
    """The normalized deformed entropy S_q / sum_i p_i^q."""
    return EntropySpec("landsberg_vedral", {"q": q}).value(p)


def z_q_alpha(q: float, alpha: float, p: Distribution) -> float:
    """The deformed-logarithm member: ln_q(sum_i p_i^alpha)/(1 - alpha)."""
    return entropy_spec("zq", {"q": q, "alpha": alpha}).value(p)


def z_k_alpha(k: float, alpha: float, p: Distribution) -> float:
    """The deformed-sum member: ((sum p^alpha)^k - (sum p^alpha)^-k)/(2k(1 - alpha))."""
    return entropy_spec("zk", {"k": k, "alpha": alpha}).value(p)


def z_ab(a: float, b: float, alpha: float, p: Distribution) -> float:
    """The two-exponent member: ((sum p^alpha)^a - (sum p^alpha)^b)/((a-b)(1 - alpha))."""
    return entropy_spec("zab", {"a": a, "b": b, "alpha": alpha}).value(p)


def composition_phi(g: GroupFunction, alpha: float, x: float, y: float) -> float:
    """The composition law of the group entropy of order alpha for G."""
    _check_alpha(alpha)
    return g.chi_scaled(1.0 - alpha, x, y)


def _saq_concave(a: float, q: float) -> bool:
    """Whether (a, q) lies in one of the two concavity regions of the two-parameter trace-form entropy."""
    return (q < 1 and 0 < a < 1 / (1 - q)) or (q > 1 and a > 0)


class _Laws(NamedTuple):
    """A family's formulas, closed over its validated parameters and G when its spec is built."""

    reduce: Callable[[np.ndarray], np.ndarray]  # the family's sum over the last axis of positive entries
    tail: Callable[[float], float]  # the entropy from that sum, in scalar ``math`` only
    phi: Callable[[float, float], float]  # the composition law on products of independent systems
    uniform: Callable[[float], float]  # the value on the uniform distribution, from ln W
    concave: bool  # whether the supporting concavity theorems apply


def _positive(family: str, s: float) -> float:
    """``s``, which a logarithm or quotient needs > 0: a power sum that underflows to 0 is out of range."""
    if s <= 0.0:
        raise RangeError(f"the power sum of {family} underflows to 0, so its entropy is out of float range")
    return s


def _z_laws(family: str, p: Mapping[str, float], g: GroupFunction, formula: bool = False) -> _Laws:
    """G(ln sum p^alpha)/(1 - alpha), composing through chi_G scaled by 1 - alpha.

    ``formula`` (zab) evaluates G's expression also outside the increasing domain that zg with g=abel keeps to.
    """
    c = 1.0 - p["alpha"]
    at = g.formula if formula else g.eval
    uniform = (lambda ln_w: at(c * ln_w) / c) if formula else (lambda ln_w: g.eval_scaled(c, ln_w))
    return _Laws(
        _power_sums(p["alpha"]), lambda s: at(math.log(_positive(family, s))) / c,
        lambda x, y: g.chi_scaled(c, x, y), uniform, 0 < p["alpha"] < 1,
    )


def _zq_laws(family: str, p: Mapping[str, float], g: GroupFunction) -> _Laws:
    """The Z laws behind q > 0, which ln_q needs, while zg with g=tsallis takes any q != 1."""
    if p["q"] <= 0:
        raise ParameterError(f"family {family} requires q > 0")
    return _z_laws(family, p, g)


def _altz_laws(family: str, p: Mapping[str, float], g: GroupFunction) -> _Laws:
    """G(ln(sum p^alpha)/(1 - alpha)), composing through chi_G itself."""
    c = 1.0 - p["alpha"]
    tail = lambda s: g.eval(math.log(_positive(family, s)) / c)
    return _Laws(_power_sums(p["alpha"]), tail, g.chi, g.eval, 0 < p["alpha"] < 1)


def _boltzmann_laws(family: str, p: Mapping[str, float], g: GroupFunction | None) -> _Laws:
    """sum_i p_i ln(1/p_i), additive on products, ln W on W equal outcomes."""
    return _Laws(lambda x: -np.sum(x * np.log(x), axis=-1), lambda s: s, lambda x, y: x + y, lambda v: v, True)


def _control_laws(family: str, p: Mapping[str, float], g: GroupFunction | None) -> _Laws:
    """Deliberately non-composable: sum_i p_i^2 ln(1/p_i), paired with the additive law; ln W / W when uniform."""
    return _Laws(
        lambda x: -np.sum(x**2 * np.log(x), axis=-1), lambda s: s, lambda x, y: x + y,
        lambda ln_w: math.exp(-ln_w) * ln_w, False,
    )


def _tsallis_aq_laws(family: str, p: Mapping[str, float], g: GroupFunction | None) -> _Laws:
    """(1 - sum_i p_i^(a(q-1)+1))/(q - 1), composing as x + y + (1 - q) x y."""
    a, q = p["a"], p["q"]
    if a <= 0:
        raise ParameterError("requires a > 0")
    if q == 1:
        raise ParameterError("requires q != 1")
    if a * (q - 1) + 1 <= 0:
        raise ParameterError("requires a(q-1) + 1 > 0")
    return _Laws(
        _power_sums(a * (q - 1.0) + 1.0), lambda s: (1.0 - s) / (q - 1.0), lambda x, y: x + y + (1.0 - q) * x * y,
        lambda ln_w: -math.expm1(-a * (q - 1.0) * ln_w) / (q - 1.0), _saq_concave(a, q),
    )


def _landsberg_vedral_laws(family: str, p: Mapping[str, float], g: GroupFunction | None) -> _Laws:
    """S_q / sum_i p_i^q, composing as x + y + (q - 1) x y."""
    q = p["q"]
    if q == 1:
        raise ParameterError("requires q != 1")
    if q <= 0:
        raise ParameterError("requires q > 0")
    return _Laws(
        _power_sums(q), lambda s: (1.0 - s) / ((q - 1.0) * _positive(family, s)),
        lambda x, y: x + y + (q - 1.0) * x * y, lambda ln_w: math.expm1((q - 1.0) * ln_w) / (q - 1.0), False,
    )


class _Family(NamedTuple):
    """What gek decides per family: its parameter names, the builder of its laws, its G and its growth law."""

    params: tuple[str, ...]
    laws: Callable[[str, Mapping[str, float], GroupFunction | None], _Laws]
    group: str | None = None  # the fixed G of a zg alias, "given" if the caller supplies G, else None
    growth: str | None = None  # the W(N) making it extensive: "group" through G's inverse, "power", None


def _alias(g: str, laws=_z_laws) -> _Family:
    return _Family(group_family(g).params + ("alpha",), laws, g, "group")


_FAMILIES = {
    "renyi": _alias("id"),
    "zq": _alias("tsallis", _zq_laws),
    "zk": _alias("kaniadakis"),
    "zab": _alias("abel", partial(_z_laws, formula=True)),
    "zg": _Family(("alpha",), _z_laws, "given", "group"),
    "altz": _Family(("alpha",), _altz_laws, "given"),
    "boltzmann": _Family((), _boltzmann_laws),
    "tsallis_aq": _Family(("a", "q"), _tsallis_aq_laws, growth="power"),
    "landsberg_vedral": _Family(("q",), _landsberg_vedral_laws),
    "control": _Family((), _control_laws),
}
# the Z-entropies G(ln sum p^alpha)/(1 - alpha): exactly the families whose growth law comes from G
Z_FAMILIES = tuple(name for name, fam in _FAMILIES.items() if fam.growth == "group")


@dataclass(frozen=True)
class EntropySpec:
    """A validated entropy family tag plus parameter set.

    Bundles the functional itself, the two-argument law it satisfies on
    products, closed-form values on uniform distributions, and a raw
    (validation-free) evaluation used by derivative-based checks.  Every
    Z-family (Z_FAMILIES) carries its group function G in ``group``.
    """

    family: str
    params: Mapping[str, float]
    group: GroupFunction | None = field(default=None, compare=False)
    _laws: _Laws = field(init=False, repr=False, compare=False)  # the formulas, picked once per spec

    def __post_init__(self) -> None:
        fam = _FAMILIES.get(self.family)
        if fam is None:
            raise ParameterError(f"unknown entropy family {self.family!r}; choose from {sorted(_FAMILIES)}")
        check_params(f"family {self.family}", fam.params, self.params)
        # validate once, so bad parameters fail at build time; the laws builder checks its own
        p = self.params
        if "alpha" in p:
            _check_alpha(p["alpha"])
        if fam.group not in (None, "given"):
            gparams = {k: v for k, v in p.items() if k != "alpha"}
            object.__setattr__(self, "group", group_function(fam.group, **gparams))
        elif fam.group == "given" and self.group is None:
            raise ParameterError(f"family {self.family} needs a group function")
        object.__setattr__(self, "_laws", fam.laws(self.family, p, self.group))

    @property
    def alpha(self) -> float | None:
        return self.params.get("alpha")

    @property
    def growth(self) -> str | None:
        """The kind of growth law W(N) that makes this family extensive: "group", "power" or None.

        tsallis_aq with q > 1 is bounded by 1/(q - 1), so no W(N) makes it extensive.
        """
        growth = _FAMILIES[self.family].growth
        return None if growth == "power" and self.params["q"] > 1 else growth

    @property
    def regime(self) -> str:
        """Concavity regime tag: 'concave' where the supporting theorems apply."""
        return "concave" if self._laws.concave else "non-concave"

    def value(self, p: Distribution) -> float:
        return self._evaluate(p.p)

    def raw_value(self, arr: np.ndarray) -> float:
        """Evaluate the defining formula on any nonnegative vector (off-simplex allowed)."""
        return self._evaluate(np.asarray(arr, dtype=float))

    def raw_values(self, rows: Sequence[np.ndarray]) -> list[float]:
        """``raw_value`` of each vector in ``rows``, bit for bit, from one stacked reduction per length."""
        return [self.from_row_sum(s) for s in self.row_sums(rows)]

    def row_sums(self, rows: Sequence[np.ndarray]) -> list[float]:
        """The family's sum over each vector in ``rows`` (of any lengths), before the scalar tail.

        Equal-length rows share one power and one ``sum(axis=1)``, which sums
        each row in the same pairwise order as the 1-D path.  A row with an
        entry that is not > 0 is first filtered as ``raw_value`` filters it,
        since dropping entries changes that order.
        """
        rows = list(rows)
        sums = [0.0] * len(rows)

        def reduce(indices) -> list[int]:
            """Reduce the rows at ``indices`` whose entries are all > 0; return the others."""
            rest = []
            for idx, block in _stack_by_length(rows, indices):
                keep = (block > 0).all(axis=1)
                if not keep.all():
                    rest += [i for i, k in zip(idx, keep.tolist()) if not k]
                    idx, block = [i for i, k in zip(idx, keep.tolist()) if k], block[keep]
                for i, s in zip(idx, self._reduce(block).tolist()):
                    sums[i] = s
            return rest

        rest = reduce(range(len(rows)))
        for i in rest:
            row = np.asarray(rows[i], dtype=float)
            rows[i] = row[row > 0]
        reduce(rest)
        return sums

    def _evaluate(self, arr: np.ndarray) -> float:
        return self.from_row_sum(float(self._reduce(arr[arr > 0])))

    def _reduce(self, positive: np.ndarray):
        return self._laws.reduce(positive)

    def from_row_sum(self, s: float) -> float:
        """The entropy from the family's sum ``s`` (see ``row_sums``): scalar ``math`` only."""
        return self._laws.tail(s)

    def phi(self, x: float, y: float) -> float:
        """The composition law paired with this family."""
        return self._laws.phi(x, y)

    def uniform_value_log(self, ln_w: float) -> float:
        """Closed-form entropy of the uniform distribution with ln W = ln_w, also far beyond representable W."""
        return self._laws.uniform(ln_w)

    def uniform_value(self, w: float) -> float:
        if w < 1:
            raise InputError("uniform closed form needs W >= 1")
        return self.uniform_value_log(math.log(w))

    def describe(self) -> str:
        parts = [f"{k}={v}" for k, v in sorted(self.params.items())]
        if _FAMILIES[self.family].group == "given":
            parts.append(f"g={self.group.describe()}")
        return f"{self.family}({', '.join(parts)})"


def entropy_spec(family: str, params: Mapping[str, float] | None = None) -> EntropySpec:
    """Build an EntropySpec from a flat parameter mapping, as the CLI supplies it.

    For the group-parameterized families the mapping carries ``g`` (one of
    id, tsallis, kaniadakis, abel) plus that group's own parameters.
    """
    params = dict(params or {})
    family = family.lower()
    group = None
    if family in _FAMILIES and _FAMILIES[family].group == "given":
        gname = params.pop("g", None)
        if gname is None:
            raise ParameterError(f"family {family} needs g=<id|tsallis|kaniadakis|abel>")
        gparams = {k: params.pop(k) for k in group_family(str(gname)).params if k in params}
        group = group_function(str(gname), **gparams)
    return EntropySpec(family, params, group)
