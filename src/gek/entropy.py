"""Classical entropy functionals over finite distributions, with their composition laws.

All families here are either members of the generalized-logarithm class
ln_G(sum_i p_i^alpha)/(1 - alpha) or trace-form companions (Boltzmann, the
two-parameter deformed entropy, Landsberg-Vedral).  Every family carries the
two-argument law its values obey on products of independent systems.

Entropies are reported in nats with the Boltzmann constant set to 1.

numpy loads only where a vector is touched: ``Distribution``, ``invalid_rows``,
``all_valid_rows``, a reduction when it is called, and ``EntropySpec.raw_value``,
``row_sums`` and ``block_sums``.  The family table, the parameter checks, the
laws builders and everything scalar about a spec (its tail, ``phi`` and
uniform values) run without it, so a command that refuses its family or
parameters, or solves a growth law, never imports numpy.  Each of those
functions imports numpy itself: once numpy is loaded, that statement is a
lookup in ``sys.modules`` of about 0.2 us, where a module-level proxy would
add a Python call.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

from .errors import InputError, ParameterError, RangeError
from .grouplog import GroupFunction, check_params, group_family, group_function
from .record import Record

if TYPE_CHECKING:
    import numpy as np

SUM_TOLERANCE = 1e-12
# how many reductions ``_power_sums`` keeps, and how many sums one Distribution keeps
_MEMO_SIZE = 256


class Distribution:
    """A finite discrete probability vector: entries >= 0 summing to 1.

    Validation is strict by default (total within 1e-12); pass
    ``renormalize=True`` to divide by the total instead, which must be
    positive and finite.

    Since ``p`` is read-only, the positive support and each family's sum over
    it are computed once and kept (see ``reduced``): every entropy evaluated
    on one Distribution shares them.
    """

    __slots__ = ("p", "_support", "_sums")

    def __init__(self, probs, renormalize: bool = False):
        import numpy as np

        arr = np.asarray(probs, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise InputError("a distribution must be a nonempty 1-D vector")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise InputError("probabilities must be finite and nonnegative")
        with np.errstate(over="ignore"):  # a total that overflows is refused below, not warned of
            total = float(arr.sum())
        if renormalize:
            if total <= 0:
                raise InputError("cannot renormalize a zero vector")
            if total == math.inf:  # fails closed: dividing by it would give every entry 0
                raise InputError("cannot renormalize: the total of the entries overflows a float")
            arr = arr / total
        elif abs(total - 1.0) > SUM_TOLERANCE:
            raise InputError(f"probabilities sum to {total!r}, not 1 within {SUM_TOLERANCE}")
        arr = arr.copy()
        arr.setflags(write=False)
        self.p = arr
        self._support: np.ndarray | None = None
        self._sums: dict[Callable, float] = {}

    @property
    def size(self) -> int:
        return int(self.p.size)

    @classmethod
    def uniform(cls, w: int) -> "Distribution":
        if w < 1:
            raise InputError("uniform distribution needs at least one outcome")
        import numpy as np

        return cls(np.full(w, 1.0 / w))

    @classmethod
    def delta(cls, w: int, index: int = 0) -> "Distribution":
        if w < 1 or not 0 <= index < w:
            raise InputError("delta distribution needs 1 <= size and a valid index")
        import numpy as np

        arr = np.zeros(w)
        arr[index] = 1.0
        return cls(arr)

    def reduced(self, reduce: Callable[[np.ndarray], np.ndarray]) -> float:
        """``reduce`` over the entries > 0, computed once per reduction object; a failing one stores nothing."""
        s = self._sums.get(reduce)
        if s is None:
            if self._support is None:
                keep = self.p > 0
                self._support = self.p if keep.all() else self.p[keep]
            s = float(reduce(self._support))
            if len(self._sums) >= _MEMO_SIZE:
                del self._sums[next(iter(self._sums))]
            self._sums[reduce] = s
        return s

    def append_zero(self) -> "Distribution":
        import numpy as np

        return Distribution(np.append(self.p, 0.0))

    def __repr__(self) -> str:
        return f"Distribution({self.p.tolist()})"


def invalid_rows(block: np.ndarray) -> np.ndarray:
    """For each vector along the last axis of ``block``, whether ``Distribution`` would reject it.

    Distribution's total, np.sum of one vector, equals the sum over the last
    axis bit for bit; an empty vector sums to 0.  ``>= 0`` fails NaN, and an
    infinite entry makes the total miss 1.
    """
    import numpy as np

    nonnegative = np.logical_and.reduce(block >= 0, axis=-1)
    return ~(nonnegative & (np.abs(np.add.reduce(block, axis=-1) - 1.0) <= SUM_TOLERANCE))


def all_valid_rows(*blocks: np.ndarray) -> bool:
    """Whether ``Distribution`` accepts every vector along the last axis of each of one or more blocks.

    ``invalid_rows`` finds none in any block exactly when each block's least
    entry is ``>= 0`` (NaN fails it) and every sum over its last axis is
    within ``SUM_TOLERANCE`` of 1 (+inf misses it); the sums of all the blocks
    are tested together.  An empty block, whose least entry does not exist,
    is left to ``invalid_rows``.
    """
    import numpy as np

    if not all(block.size and np.minimum.reduce(block, axis=None) >= 0 for block in blocks):
        return False
    sums = np.concatenate([np.add.reduce(block, axis=-1).ravel() for block in blocks])
    return bool((np.abs(sums - 1.0) <= SUM_TOLERANCE).all())


def invalid_distributions(rows: Sequence[np.ndarray]) -> list[bool]:
    """For each vector in ``rows``, whether ``Distribution`` would reject it (the same checks)."""
    import numpy as np

    return [bool(invalid_rows(np.asarray(row, dtype=float))) for row in rows]


@lru_cache(maxsize=_MEMO_SIZE)
def _power_sums(exponent: float) -> Callable[[np.ndarray], np.ndarray]:
    """The one power-sum reduction: sum_i x_i^exponent over the last axis of an array of positive entries.

    One object per exponent, so every family of one order meets in a Distribution's memo.  Building it
    loads no numpy; calling it does, as every reduction here does, since only a vector needs numpy.
    """
    if not 0 < exponent < math.inf:  # fails closed: a nan exponent is rejected too
        raise ParameterError("power sums are defined for finite positive exponents only")

    def power_sums(positive: np.ndarray) -> np.ndarray:
        import numpy as np

        return np.add.reduce(positive**exponent, axis=-1)

    return power_sums


def _boltzmann_sums(positive: np.ndarray) -> np.ndarray:
    """sum_i x_i ln(1/x_i) over the last axis of an array of positive entries."""
    import numpy as np

    return -np.add.reduce(positive * np.log(positive), axis=-1)


def _control_sums(positive: np.ndarray) -> np.ndarray:
    """sum_i x_i^2 ln(1/x_i) over the last axis of an array of positive entries."""
    import numpy as np

    return -np.add.reduce(positive**2 * np.log(positive), axis=-1)


def power_sum(p: Distribution, alpha: float) -> float:
    """sum_i p_i^alpha with the convention 0^alpha = 0."""
    return p.reduced(_power_sums(alpha))


def product_distribution(p: Distribution, r: Distribution) -> Distribution:
    """Joint distribution of two independent systems (outer product, flattened)."""
    import numpy as np

    return Distribution(np.outer(p.p, r.p).ravel())


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha < math.inf:  # fails closed: a nan alpha is rejected too
        raise ParameterError(f"alpha must be positive and finite, got {alpha}")
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
    tail: Callable[[list[float]], list[float]]  # each sum's entropy in scalar ``math``; raises the first refused sum's
    phi: Callable[[float, float], float]  # the composition law on products of independent systems
    uniform: Callable[[float], float]  # the value on the uniform distribution, from ln W
    concave: bool  # whether the supporting concavity theorems apply
    phis: Callable[[list[float], list[float]], list[float]] | None = None  # phi of each pair of two lists, or None


def _underflow(family: str) -> RangeError:
    """The refusal of a sum <= 0, which a logarithm or quotient needs > 0: a power sum that underflowed to 0."""
    return RangeError(f"the power sum of {family} underflows to 0, so its entropy is out of float range")


def _positive(family: str, s: float) -> float:
    """``s``, which a logarithm or quotient needs > 0 (NaN passes, as it passes ``s <= 0``, and ln NaN is NaN)."""
    if s <= 0.0:
        raise _underflow(family)
    return s


def _z_laws(family: str, p: Mapping[str, float], g: GroupFunction, formula: bool = False) -> _Laws:
    """G(ln sum p^alpha)/(1 - alpha), composing through chi_G scaled by 1 - alpha.

    ``formula`` (zab) evaluates G's expression also outside the increasing domain that zg with g=abel keeps to.
    The tail is G's ``list_form`` over the sums, one comprehension for ln, G and the quotient; where it hands
    back, the scalar map runs sum by sum, so it raises the first refused sum's error.
    """
    c = 1.0 - p["alpha"]
    at, floor = (g.formula, -math.inf) if formula else (g.eval, None)
    uniform = (lambda ln_w: at(c * ln_w) / c) if formula else (lambda ln_w: g.eval_scaled(c, ln_w))

    def tail(sums: list[float]) -> list[float]:
        values = g.list_form(sums, c, True, floor)
        return [at(math.log(_positive(family, s))) / c for s in sums] if values is None else values

    return _Laws(
        _power_sums(p["alpha"]), tail, lambda x, y: g.chi_scaled(c, x, y), uniform, 0 < p["alpha"] < 1,
        lambda xs, ys: g.chi_scaled_block(c, xs, ys),
    )


def _zq_laws(family: str, p: Mapping[str, float], g: GroupFunction) -> _Laws:
    """The Z laws behind q > 0, which ln_q needs, while zg with g=tsallis takes any q != 1."""
    if p["q"] <= 0:
        raise ParameterError(f"family {family} requires q > 0")
    return _z_laws(family, p, g)


def _altz_laws(family: str, p: Mapping[str, float], g: GroupFunction) -> _Laws:
    """G(ln(sum p^alpha)/(1 - alpha)), composing through chi_G itself."""
    c = 1.0 - p["alpha"]
    tail = lambda sums: [g.eval(math.log(_positive(family, s)) / c) for s in sums]
    return _Laws(_power_sums(p["alpha"]), tail, g.chi, g.eval, 0 < p["alpha"] < 1)


def _boltzmann_laws(family: str, p: Mapping[str, float], g: GroupFunction | None) -> _Laws:
    """sum_i p_i ln(1/p_i), additive on products, ln W on W equal outcomes."""
    return _Laws(_boltzmann_sums, list, lambda x, y: x + y, lambda v: v, True)


def _control_laws(family: str, p: Mapping[str, float], g: GroupFunction | None) -> _Laws:
    """Deliberately non-composable: sum_i p_i^2 ln(1/p_i), paired with the additive law; ln W / W when uniform."""
    return _Laws(_control_sums, list, lambda x, y: x + y, lambda ln_w: math.exp(-ln_w) * ln_w, False)


def _tsallis_aq_laws(family: str, p: Mapping[str, float], g: GroupFunction | None) -> _Laws:
    """(1 - sum_i p_i^(a(q-1)+1))/(q - 1), composing as x + y + (1 - q) x y."""
    a, q = p["a"], p["q"]
    if a <= 0:
        raise ParameterError("requires a > 0")
    if q == 1:
        raise ParameterError("requires q != 1")
    if a * (q - 1) + 1 <= 0:
        raise ParameterError("requires a(q-1) + 1 > 0")
    d = q - 1.0
    return _Laws(
        _power_sums(a * (q - 1.0) + 1.0), lambda sums: [(1.0 - s) / d for s in sums],
        lambda x, y: x + y + (1.0 - q) * x * y,
        lambda ln_w: -math.expm1(-a * (q - 1.0) * ln_w) / (q - 1.0), _saq_concave(a, q),
    )


def _landsberg_vedral_laws(family: str, p: Mapping[str, float], g: GroupFunction | None) -> _Laws:
    """S_q / sum_i p_i^q, composing as x + y + (q - 1) x y."""
    q = p["q"]
    if q == 1:
        raise ParameterError("requires q != 1")
    if q <= 0:
        raise ParameterError("requires q > 0")
    d = q - 1.0
    return _Laws(
        _power_sums(q), lambda sums: [(1.0 - s) / (d * _positive(family, s)) for s in sums],
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


class EntropySpec(Record):
    """A validated entropy family tag plus parameter set.

    Bundles the functional itself, the two-argument law it satisfies on
    products, closed-form values on uniform distributions, and a raw
    (validation-free) evaluation used by derivative-based checks.  Every
    Z-family (Z_FAMILIES) carries its group function G in ``group``.

    A ``Record`` whose value is its family, params and group: equality, hash,
    repr, copy and pickle ignore ``_laws``, the formulas built once per spec.
    Building a spec, and everything scalar about it, loads no numpy.
    """

    __slots__ = ("family", "params", "group", "_laws")

    def __init__(self, family: str, params: Mapping[str, float], group: GroupFunction | None = None) -> None:
        fam = _FAMILIES.get(family)
        if fam is None:
            raise ParameterError(f"unknown entropy family {family!r}; choose from {sorted(_FAMILIES)}")
        check_params(f"family {family}", fam.params, params)
        # validate once, so bad parameters fail at build time; the laws builder checks its own
        if "alpha" in params:
            _check_alpha(params["alpha"])
        if fam.group == "given":
            if group is None:
                raise ParameterError(f"family {family} needs a group function")
        elif group is not None:  # fails closed: never swap or keep a G the family does not take
            raise ParameterError(f"family {family} takes no group function")
        elif fam.group is not None:
            group = group_function(fam.group, **{k: v for k, v in params.items() if k != "alpha"})
        super().__init__(family, params, group, fam.laws(family, params, group))

    def _fields(self) -> tuple:
        return self.family, self.params, self.group

    def __repr__(self) -> str:
        return f"EntropySpec(family={self.family!r}, params={self.params!r}, group={self.group!r})"

    def __reduce__(self):  # rebuilt from its arguments: an alias family derives its G from params again
        given = _FAMILIES[self.family].group == "given"
        return type(self), (self.family, self.params, self.group if given else None)

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
        """The entropy of ``p``, from the sum ``p`` keeps per reduction; the scalar tail runs per call."""
        return self.from_row_sum(p.reduced(self._laws.reduce))

    def raw_value(self, arr: np.ndarray) -> float:
        """Evaluate the defining formula on any nonnegative vector (off-simplex allowed): the 1-D path."""
        import numpy as np

        arr = np.asarray(arr, dtype=float)
        return self.from_row_sum(float(self._laws.reduce(arr[arr > 0])))

    def raw_values(self, rows: Sequence[np.ndarray]) -> list[float]:
        """``raw_value`` of each vector in ``rows``."""
        return list(map(self.raw_value, rows))

    def row_sums(self, rows: Sequence[np.ndarray]) -> list[float]:
        """The family's sum over each vector in ``rows``, before the scalar tail: ``raw_value``'s 1-D sum."""
        import numpy as np

        return [float(self._laws.reduce(v[v > 0])) for v in (np.asarray(row, dtype=float) for row in rows)]

    def block_sums(self, block: np.ndarray) -> np.ndarray:
        """The family's sum over each vector along the last axis of ``block``, before the scalar tail.

        Each sum equals ``raw_value``'s 1-D sum bit for bit: the sum over the
        last axis of a C-contiguous block adds each vector in the same pairwise
        order as the 1-D path.  A vector with an entry that is not > 0 is first
        filtered, as ``raw_value`` filters it, since dropping entries changes
        that order; the filtered vectors are reduced together by how many
        entries they keep.
        """
        import numpy as np

        if not block.size or np.minimum.reduce(block, axis=None) > 0:  # NaN fails the test, as it fails > 0
            return self._laws.reduce(block)
        flat = block.reshape(-1, block.shape[-1])
        keep = flat > 0
        counts = keep.sum(axis=1)
        sums = np.empty(len(flat))
        for c in set(counts.tolist()):
            rows = counts == c
            sums[rows] = self._laws.reduce(flat[rows][keep[rows]].reshape(int(rows.sum()), c))
        return sums.reshape(block.shape[:-1])

    def from_row_sum(self, s: float) -> float:
        """The entropy from the family's sum ``s`` (see ``block_sums``): scalar ``math`` only."""
        return self._laws.tail([s])[0]

    def from_row_sums(self, sums: list[float]) -> list[float]:
        """``from_row_sum`` of each sum in the list ``sums``, in order, by one call of the family's tail.

        The tail makes each sum's ``math`` calls in the scalar order, and checks
        each sum before it uses it, so each value is the one ``from_row_sum``
        gives and the error raised is the first refused sum's own.
        """
        return self._laws.tail(sums)

    def phi(self, x: float, y: float) -> float:
        """The composition law paired with this family."""
        return self._laws.phi(x, y)

    def phis(self, xs: list[float], ys: list[float]) -> list[float]:
        """``[phi(x, y) for x, y in zip(xs, ys)]``, the same floats and the same first error.

        A Z-family runs G's block law (``GroupFunction.chi_scaled_block``): one
        numeric G^-1 for every pair where G has no closed-form inverse.
        """
        phis = self._laws.phis
        return list(map(self._laws.phi, xs, ys)) if phis is None else phis(xs, ys)

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
