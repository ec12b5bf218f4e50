"""Quantum entropies on density matrices and exact symmetric-state block spectra.

The reduced block of an equal-amplitude symmetric state with fixed occupation
numbers is diagonal in the block-occupation basis with multivariate
hypergeometric weights; a dense full-space partial trace is kept alongside as
the validation oracle for that closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .entropy import EntropySpec, _power_sums, entropy_spec
from .errors import DomainError, InputError, ParameterError, RangeError

EIGENVALUE_CLAMP = 1e-12
_PSD_FLOOR = -1e-10
_HERMITIAN_TOL = 1e-12
_TRACE_TOL = 1e-10


class DensityMatrix:
    """A Hermitian, positive semi-definite, unit-trace matrix with cached spectrum."""

    __slots__ = ("entries", "spectrum")

    def __init__(self, entries):
        arr = np.asarray(entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InputError("a density matrix must be square and nonempty")
        arr = arr.astype(complex)
        if not np.isfinite(arr).all():
            raise InputError("density matrix entries must be finite")
        if np.max(np.abs(arr - arr.conj().T)) > _HERMITIAN_TOL:
            raise InputError("matrix is not Hermitian within 1e-12")
        trace = float(np.real(np.trace(arr)))
        if abs(trace - 1.0) > _TRACE_TOL:
            raise InputError(f"trace is {trace!r}, not 1 within {_TRACE_TOL}")
        lam = np.linalg.eigvalsh(arr)
        if lam.min() < _PSD_FLOOR:
            raise InputError(f"matrix has a negative eigenvalue {lam.min()!r}")
        lam = np.where(lam < EIGENVALUE_CLAMP, 0.0, lam)[::-1].copy()
        arr.setflags(write=False)
        lam.setflags(write=False)
        self.entries = arr
        self.spectrum = lam

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def diagonal(cls, values) -> "DensityMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))

    @classmethod
    def pure(cls, state) -> "DensityMatrix":
        psi = np.asarray(state, dtype=complex).ravel()
        if not np.isfinite(psi).all():
            raise InputError("state vector entries must be finite")
        norm = np.linalg.norm(psi)
        if norm == 0:
            raise InputError("cannot normalize the zero vector")
        psi = psi / norm
        return cls(np.outer(psi, psi.conj()))


def eigenvalues(rho: DensityMatrix) -> np.ndarray:
    """Nonincreasing real spectrum, clamped at zero."""
    return rho.spectrum


def trace_power(rho: DensityMatrix, alpha: float) -> float:
    """tr rho^alpha over the clamped spectrum, with 0^alpha = 0."""
    return float(_power_sums(alpha)(rho.spectrum[rho.spectrum > 0]))


def quantum_z_entropy(g, alpha: float, rho: DensityMatrix) -> float:
    """The group entropy G(ln tr rho^alpha)/(1 - alpha) of the spectrum."""
    return EntropySpec("zg", {"alpha": alpha}, g).raw_value(rho.spectrum)


def von_neumann(rho: DensityMatrix) -> float:
    """-tr rho ln rho with 0 ln 0 = 0."""
    return entropy_spec("boltzmann").raw_value(rho.spectrum)


def quantum_z_ab(a: float, b: float, alpha: float, rho: DensityMatrix) -> float:
    """((tr rho^alpha)^a - (tr rho^alpha)^b)/((a - b)(1 - alpha))."""
    return entropy_spec("zab", {"a": a, "b": b, "alpha": alpha}).raw_value(rho.spectrum)


# Desk-scale exactness bounds for the symmetric-state machinery.
_DICKE_MAX_SITES = {1: 14, 2: 10}


@dataclass(frozen=True)
class DickeSpec:
    """An equal-amplitude symmetric state with fixed occupations, split into a block.

    ``m + 1`` is the number of local levels, ``occupations`` the level counts
    over all ``n_sites`` sites, and ``block`` the number of sites kept by the
    partial trace.
    """

    m: int
    n_sites: int
    occupations: tuple[int, ...]
    block: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "occupations", tuple(int(k) for k in self.occupations))
        if self.m < 1:
            raise InputError("need at least two local levels (m >= 1)")
        if self.m not in _DICKE_MAX_SITES:
            raise InputError(f"supported level counts are m in {sorted(_DICKE_MAX_SITES)}")
        if self.n_sites > _DICKE_MAX_SITES[self.m]:
            raise InputError(
                f"m={self.m} is exact at desk scale only up to N={_DICKE_MAX_SITES[self.m]} sites"
            )
        if len(self.occupations) != self.m + 1:
            raise InputError(f"need exactly {self.m + 1} occupation numbers")
        if any(k < 0 for k in self.occupations) or sum(self.occupations) != self.n_sites:
            raise InputError("occupations must be nonnegative and sum to the number of sites")
        if not 1 <= self.block <= self.n_sites - 1:
            raise InputError("the block must keep between 1 and N-1 sites")


def _block_occupations(spec: DickeSpec):
    """All block occupation vectors l with 0 <= l_j <= k_j and sum(l) = block size."""
    ranges = [range(0, k + 1) for k in spec.occupations]
    for l in itertools.product(*ranges):
        if sum(l) == spec.block:
            yield l


def dicke_block_weights(spec: DickeSpec) -> dict[tuple[int, ...], Fraction]:
    """Exact reduced-block spectrum: multivariate hypergeometric weights.

    The weight of block occupation l is prod_j C(k_j, l_j) / C(N, L); the
    weights sum to 1 exactly.
    """
    denom = math.comb(spec.n_sites, spec.block)
    weights = {}
    for l in _block_occupations(spec):
        num = math.prod(math.comb(k, lj) for k, lj in zip(spec.occupations, l))
        weights[l] = Fraction(num, denom)
    return weights


def dicke_reduced_density(spec: DickeSpec) -> DensityMatrix:
    """The reduced block state, diagonal in the block-occupation basis.

    Basis order is the lexicographic order of the occupation vectors returned
    by dicke_block_weights.
    """
    weights = dicke_block_weights(spec)
    values = [float(weights[l]) for l in sorted(weights)]
    return DensityMatrix.diagonal(values)


def dicke_reduced_density_dense(spec: DickeSpec) -> DensityMatrix:
    """Validation oracle: build the full state vector and trace out N - L sites."""
    d = spec.m + 1
    if d**spec.n_sites > 600_000:
        raise InputError("dense oracle limited to (m+1)^N <= 600000")
    n, left = spec.n_sites, spec.block
    psi = np.zeros(d**n)
    hits = []
    for assignment in itertools.product(range(d), repeat=n):
        counts = [0] * d
        for level in assignment:
            counts[level] += 1
        if tuple(counts) == spec.occupations:
            index = 0
            for level in assignment:
                index = index * d + level
            hits.append(index)
    psi[hits] = 1.0 / math.sqrt(len(hits))
    block = psi.reshape(d**left, d ** (n - left))
    return DensityMatrix(block @ block.T)


@dataclass(frozen=True)
class LmgParams:
    """Inputs of the large-block asymptotic entanglement formula."""

    a: float
    m: int
    alpha: float
    gamma: float
    densities: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "densities", tuple(float(x) for x in self.densities))
        if self.m < 1:
            raise ParameterError("m must be at least 1")
        if len(self.densities) != self.m + 1:
            raise ParameterError(f"need exactly {self.m + 1} densities")
        if any(x < 0 for x in self.densities) or abs(sum(self.densities) - 1.0) > 1e-12:
            raise ParameterError("densities must be nonnegative and sum to 1")
        if not 0.0 < self.gamma < 1.0:
            raise ParameterError("the block ratio must lie strictly between 0 and 1")


def lmg_asymptotic_za0(params: LmgParams, block: float) -> float:
    """Leading large-block term of the order-(a, 0) entanglement entropy.

    Evaluates L^(a m (1-alpha)/2) / (a (1-alpha) alpha^(m a / 2)) times the
    density-dependent prefactor raised to the same exponent.  Zero densities
    make the prefactor vanish and the value is returned as-is; a value that
    overflows a float raises RangeError.
    """
    if params.a == 0:
        raise ParameterError("requires a != 0")
    if params.alpha == 1:
        raise ParameterError("requires alpha != 1")
    if params.alpha <= 0:
        raise DomainError("the asymptotic formula is undefined for alpha <= 0")
    if block <= 0:
        raise ParameterError("block size must be positive")
    a, m, alpha = params.a, params.m, params.alpha
    exponent = a * m * (1.0 - alpha) / 2.0
    density_product = math.prod(x ** (1.0 / m) for x in params.densities)
    try:
        prefactor = (2.0 * math.pi * (1.0 - params.gamma) * density_product) ** exponent
        value = block**exponent / (a * (1.0 - alpha) * alpha ** (m * a / 2.0)) * prefactor
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise RangeError(f"the asymptotic value at L={block:g} overflows a float")
    return value


def extensive_alpha(a: float, m: int) -> float:
    """The entropic order that makes the asymptotic block entropy linear in L."""
    if a * m == 0:
        raise ParameterError("requires a * m != 0")
    return 1.0 - 2.0 / (a * m)
