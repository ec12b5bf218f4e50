"""Spectral consistency, symmetric-block spectra and the asymptotic formula."""

import itertools
import math
import warnings

import numpy as np
import pytest

from gek.entropy import Distribution, z_ab, z_entropy
from gek.errors import DomainError, InputError, ParameterError, RangeError
from gek.grouplog import IdentityGroup, KaniadakisGroup, MultiplicativeGroup
from gek.quantum import (
    MAX_DENSE_BLOCK_WIDTH,
    DensityMatrix,
    DickeSpec,
    LmgParams,
    dicke_block_weights,
    dicke_reduced_density,
    dicke_reduced_density_dense,
    eigenvalues,
    extensive_alpha,
    lmg_asymptotic_za0,
    quantum_z_ab,
    quantum_z_entropy,
    trace_power,
    von_neumann,
)

RNG = np.random.default_rng(77)


def random_density(dim, rng=RNG, complex_entries=True):
    """rho = U diag(lam) U+ for a random unitary U and dirichlet spectrum lam."""
    lam = rng.dirichlet(np.ones(dim))
    shape = (dim, dim)
    gauss = rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_entries else 0)
    q, _ = np.linalg.qr(gauss)
    rho = (q * lam) @ q.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(rho), np.sort(lam)[::-1]


class TestDensityMatrix:
    def test_validation(self):
        with pytest.raises(InputError):
            DensityMatrix([[0.5, 0.3], [0.2, 0.5]])  # not Hermitian
        with pytest.raises(InputError):
            DensityMatrix([[0.9, 0.0], [0.0, 0.3]])  # trace 1.2
        with pytest.raises(InputError):
            DensityMatrix([[1.5, 0.0], [0.0, -0.5]])  # negative eigenvalue
        for entries in ([[0.5, 0.5]], np.zeros((0, 0)), [0.5, 0.5]):
            with pytest.raises(InputError, match="square and nonempty"):
                DensityMatrix(entries)
        with pytest.raises(InputError, match="zero vector"):
            DensityMatrix.pure([0.0, 0.0])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DensityMatrix([[math.nan, 0.0], [0.0, 1.0]]),
            lambda: DensityMatrix([[complex(1.0, math.nan), 0.0], [0.0, 0.0]]),
            lambda: DensityMatrix([[math.inf, 0.0], [0.0, 1.0]]),
            lambda: DensityMatrix([[math.nan, 1.0], [0.0, 1.0]]),  # not Hermitian either
            lambda: DensityMatrix.diagonal([math.nan, 1.0]),
            lambda: DensityMatrix.pure([math.nan, 1.0]),
            lambda: DensityMatrix.pure([math.inf, 1.0]),
        ],
        ids=["nan", "nan-imaginary", "inf", "nan-not-hermitian", "diagonal-nan", "pure-nan", "pure-inf"],
    )
    def test_non_finite_entries_rejected(self, build):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="must be finite"):
                build()

    @pytest.mark.parametrize(
        "build, dtype",
        [
            (lambda: DensityMatrix([[0.6, 0.2], [0.2, 0.4]]), np.float64),
            (lambda: DensityMatrix([[1, 0], [0, 0]]), np.float64),
            (lambda: DensityMatrix(np.eye(2, dtype=np.float32) / 2), np.float64),
            (lambda: DensityMatrix.diagonal([0.25] * 4), np.float64),
            (lambda: dicke_reduced_density_dense(DickeSpec(m=1, n_sites=6, occupations=(3, 3), block=3)), np.float64),
            (lambda: DensityMatrix([[0.5, 0.5j], [-0.5j, 0.5]]), np.complex128),
            (lambda: DensityMatrix.pure([1.0, 1j]), np.complex128),
            (lambda: DensityMatrix.pure([1.0, 1.0]), np.float64),
        ],
        ids=["float", "int", "float32", "diagonal", "dicke-dense", "complex", "pure", "real-pure"],
    )
    def test_only_complex_input_is_held_complex(self, build, dtype):
        assert build().entries.dtype == dtype

    def test_diagonal_spectrum(self):
        rho = DensityMatrix.diagonal([0.5, 0.5])
        assert eigenvalues(rho).tolist() == [0.5, 0.5]

    def test_pure_state_spectrum(self):
        rho = DensityMatrix.pure([1.0, 1.0, 0.0])
        lam = eigenvalues(rho)
        assert lam[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(lam[1:] == 0.0)

    def test_two_by_two_closed_form(self):
        rho = DensityMatrix([[0.6, 0.2], [0.2, 0.4]])
        # eigenvalues of [[a, c], [c, b]]: (a+b)/2 +- sqrt(((a-b)/2)^2 + c^2)
        root = math.sqrt(0.01 + 0.04)
        assert eigenvalues(rho) == pytest.approx([0.5 + root, 0.5 - root], abs=1e-14)

    def test_spectrum_sums_to_one(self):
        for dim in (2, 5, 16):
            rho, _ = random_density(dim)
            assert abs(eigenvalues(rho).sum() - 1.0) <= 1e-9


class TestTracePower:
    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_exponent_rejected(self, alpha):
        with pytest.raises(ParameterError, match="finite positive exponents"):
            trace_power(DensityMatrix.diagonal([0.5, 0.5]), alpha)

    def test_pure(self):
        rho = DensityMatrix.pure([0.0, 1.0])
        for alpha in (0.5, 2.0, 7.0):
            assert trace_power(rho, alpha) == 1.0

    def test_maximally_mixed(self):
        d = 4
        rho = DensityMatrix.diagonal([1 / d] * d)
        for alpha in (0.5, 2.0):
            assert trace_power(rho, alpha) == pytest.approx(d ** (1 - alpha), rel=1e-14)

    def test_direct_arithmetic(self):
        rho = DensityMatrix.diagonal([0.5, 0.3, 0.2])
        assert trace_power(rho, 2.0) == pytest.approx(0.38, abs=1e-15)


class TestQuantumEntropies:
    def test_pure_state_vanishes(self):
        rho = DensityMatrix.pure([1.0, 2.0, 2.0])
        assert von_neumann(rho) == pytest.approx(0.0, abs=1e-12)
        assert quantum_z_entropy(IdentityGroup(), 0.5, rho) == pytest.approx(0.0, abs=1e-12)
        assert quantum_z_ab(0.4, -0.3, 0.5, rho) == pytest.approx(0.0, abs=1e-12)

    def test_von_neumann_values(self):
        assert von_neumann(DensityMatrix.diagonal([0.25] * 4)) == pytest.approx(math.log(4))
        a = DensityMatrix.diagonal([0.5, 0.5])
        kron = np.kron(a.entries, a.entries)
        assert von_neumann(DensityMatrix(kron)) == pytest.approx(2 * math.log(2), rel=1e-13)

    def test_quantum_renyi_is_log_trace_power(self):
        rho, _ = random_density(6)
        alpha = 1.7
        expected = math.log(trace_power(rho, alpha)) / (1 - alpha)
        assert quantum_z_entropy(IdentityGroup(), alpha, rho) == expected

    def test_spectral_consistency(self):
        groups = [IdentityGroup(), MultiplicativeGroup(0.6), KaniadakisGroup(0.4)]
        for dim in (2, 3, 8, 16):
            rho, lam = random_density(dim)
            p = Distribution(lam)
            for g in groups:
                for alpha in (0.5, 2.0):
                    assert quantum_z_entropy(g, alpha, rho) == pytest.approx(
                        z_entropy(g, alpha, p), abs=1e-12
                    )
            assert quantum_z_ab(0.7, -0.2, 0.5, rho) == pytest.approx(
                z_ab(0.7, -0.2, 0.5, p), abs=1e-12
            )

    def test_additivity_on_products(self):
        for _ in range(10):
            ra, _ = random_density(3)
            rb, _ = random_density(4)
            joint = DensityMatrix(np.kron(ra.entries, rb.entries))
            alpha = 1.5
            g = IdentityGroup()
            total = quantum_z_entropy(g, alpha, joint)
            parts = quantum_z_entropy(g, alpha, ra) + quantum_z_entropy(g, alpha, rb)
            assert total == pytest.approx(parts, abs=1e-10)

    def test_quantum_tsallis_limit(self):
        rho, lam = random_density(5)
        alpha = 0.5
        tsallis = (1 - trace_power(rho, alpha)) / (alpha - 1)
        assert quantum_z_ab(1.0, 1e-9, alpha, rho) == pytest.approx(tsallis, abs=1e-5)

    def test_opposite_exponent_form(self):
        rho, _ = random_density(4)
        k, alpha = 0.3, 0.5
        s = trace_power(rho, alpha)
        expected = (s**k - s**-k) / (2 * k * (1 - alpha))
        assert quantum_z_ab(k, -k, alpha, rho) == pytest.approx(expected, abs=1e-14)

    def test_alpha_one_rejected(self):
        rho = DensityMatrix.diagonal([0.5, 0.5])
        with pytest.raises(ParameterError):
            quantum_z_entropy(IdentityGroup(), 1.0, rho)
        with pytest.raises(ParameterError):
            quantum_z_ab(0.5, 0.5, 0.3, rho)


def reference_dense(spec):
    """The dense oracle as first written: walk every assignment tuple and count its levels."""
    d = spec.m + 1
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


# The dense oracle's reduced block is (m+1)^L wide, a 1 GiB complex matrix at
# m = 1, L = 13, so the sweeps below keep L where that width is at most 512
# (the spectrum of a block and of its complement agree).
_MAX_BLOCK_WIDTH = 512


def all_specs(m, n):
    """Every DickeSpec with m + 1 levels on n sites and a block at most 512 wide."""
    for occupations in itertools.product(range(n + 1), repeat=m + 1):
        if sum(occupations) == n:
            for block in range(1, n):
                if (m + 1) ** block <= _MAX_BLOCK_WIDTH:
                    yield DickeSpec(m=m, n_sites=n, occupations=occupations, block=block)


# the three Dicke ops of the spectra-sweep benchmark: m = 1 at N = 14 on every
# block size, and m = 2 at N = 10 on block 4
CAP_SPECS = [
    *(DickeSpec(m=1, n_sites=14, occupations=(4, 10), block=b) for b in range(1, 8)),
    *(DickeSpec(m=1, n_sites=14, occupations=(11, 3), block=b) for b in range(1, 8)),
    DickeSpec(m=2, n_sites=10, occupations=(3, 3, 4), block=4),
]


def assert_dense_matches_closed(spec):
    exact = np.sort(eigenvalues(dicke_reduced_density(spec)))[::-1]
    dense = np.sort(eigenvalues(dicke_reduced_density_dense(spec)))[::-1]
    assert np.max(np.abs(dense[: exact.size] - exact)) <= 1e-12, spec
    assert np.all(dense[exact.size :] <= 1e-12), spec


def occupation_of_index(index, d, sites):
    counts = [0] * d
    for _ in range(sites):
        counts[index % d] += 1
        index //= d
    return tuple(counts)


class TestSymmetricBlocks:
    def test_two_site_singlet_like_case(self):
        spec = DickeSpec(m=1, n_sites=2, occupations=(1, 1), block=1)
        rho = dicke_reduced_density(spec)
        assert eigenvalues(rho).tolist() == [0.5, 0.5]

    def test_aligned_state_is_pure(self):
        spec = DickeSpec(m=1, n_sites=6, occupations=(6, 0), block=5)
        rho = dicke_reduced_density(spec)
        assert eigenvalues(rho).tolist() == [1.0]
        assert quantum_z_ab(0.5, -0.5, 0.5, rho) == 0.0

    def test_half_filled_block_weights(self):
        spec = DickeSpec(m=1, n_sites=8, occupations=(4, 4), block=4)
        weights = dicke_block_weights(spec)
        total = math.comb(8, 4)
        for l, weight in weights.items():
            expected = math.comb(4, l[0]) * math.comb(4, l[1])
            assert weight == pytest.approx(expected / total)
        assert sum(weights.values()) == 1

    def test_closed_form_matches_dense_su2(self):
        for n in range(2, 7):
            for k1 in range(n + 1):
                for block in range(1, n):
                    spec = DickeSpec(m=1, n_sites=n, occupations=(k1, n - k1), block=block)
                    exact = np.sort(eigenvalues(dicke_reduced_density(spec)))[::-1]
                    dense = np.sort(eigenvalues(dicke_reduced_density_dense(spec)))[::-1]
                    assert np.allclose(dense[: exact.size], exact, atol=1e-12)
                    assert np.all(dense[exact.size :] <= 1e-12)

    @pytest.mark.parametrize("n", range(7, 15))
    def test_closed_form_matches_dense_su2_up_to_the_cap(self, n):
        for spec in all_specs(1, n):
            assert_dense_matches_closed(spec)

    def test_closed_form_matches_dense_su3_sampled(self):
        cases = [
            DickeSpec(m=2, n_sites=5, occupations=(2, 2, 1), block=2),
            DickeSpec(m=2, n_sites=6, occupations=(3, 2, 1), block=3),
            DickeSpec(m=2, n_sites=7, occupations=(3, 3, 1), block=3),
            DickeSpec(m=2, n_sites=8, occupations=(3, 3, 2), block=4),
        ]
        for spec in cases:
            exact = np.sort(eigenvalues(dicke_reduced_density(spec)))[::-1]
            dense = np.sort(eigenvalues(dicke_reduced_density_dense(spec)))[::-1]
            assert np.allclose(dense[: exact.size], exact, atol=1e-12)
            assert np.all(dense[exact.size :] <= 1e-12)

    @pytest.mark.parametrize(
        "occupations", [(3, 3, 4), (0, 10, 0), (1, 2, 7), (5, 5, 0), (2, 4, 4), (10, 0, 0), (3, 2, 4)]
    )
    def test_closed_form_matches_dense_su3_at_the_cap(self, occupations):
        for spec in all_specs(2, 10):
            if spec.occupations == occupations:
                assert_dense_matches_closed(spec)

    @pytest.mark.parametrize("m, n", [*((1, n) for n in range(2, 11)), *((2, n) for n in range(2, 7))])
    def test_dense_is_bit_identical_to_the_reference_walk(self, m, n):
        for spec in all_specs(m, n):
            dense, reference = dicke_reduced_density_dense(spec), reference_dense(spec)
            assert np.array_equal(dense.entries, reference.entries), spec
            assert np.array_equal(dense.spectrum, reference.spectrum), spec

    @pytest.mark.parametrize("spec", CAP_SPECS, ids=lambda s: f"m{s.m}-{'-'.join(map(str, s.occupations))}-L{s.block}")
    def test_dense_is_bit_identical_to_the_reference_walk_at_the_caps(self, spec):
        dense, reference = dicke_reduced_density_dense(spec), reference_dense(spec)
        assert np.array_equal(dense.entries, reference.entries)
        assert np.array_equal(dense.spectrum, reference.spectrum)

    def test_dense_oracle_refuses_a_block_too_wide_to_build(self, monkeypatch):
        # (m+1)^L columns: 3^9 = 19683 would be a 6.2 GB complex matrix, 2^12 = 4096 a 256 MiB one
        wide = [
            DickeSpec(m=2, n_sites=10, occupations=(3, 3, 4), block=9),
            DickeSpec(m=1, n_sites=14, occupations=(7, 7), block=12),
        ]

        def no_allocation(*_args, **_kwargs):
            raise AssertionError("the dense oracle allocated before refusing")

        with monkeypatch.context() as patched:
            patched.setattr(np, "zeros", no_allocation)
            for spec in wide:
                with pytest.raises(InputError, match=f"at most {MAX_DENSE_BLOCK_WIDTH}"):
                    dicke_reduced_density_dense(spec)
        for spec in CAP_SPECS:
            assert (spec.m + 1) ** spec.block <= MAX_DENSE_BLOCK_WIDTH
            assert dicke_reduced_density_dense(spec).dim == (spec.m + 1) ** spec.block

    def test_dense_oracle_does_not_use_the_closed_form(self, monkeypatch):
        import gek.quantum

        def closed_form(*_args):
            raise AssertionError("the dense oracle called the closed form")

        spec = DickeSpec(m=2, n_sites=6, occupations=(3, 2, 1), block=3)
        expected = dicke_reduced_density(spec).spectrum
        for name in ("dicke_block_weights", "_block_occupations", "dicke_reduced_density"):
            monkeypatch.setattr(gek.quantum, name, closed_form)
        dense = dicke_reduced_density_dense(spec).spectrum
        assert np.max(np.abs(dense[: expected.size] - expected)) <= 1e-12

    def test_dense_block_is_occupation_diagonal(self):
        spec = DickeSpec(m=1, n_sites=6, occupations=(3, 3), block=3)
        rho = dicke_reduced_density_dense(spec)
        d, sites = 2, 3
        for x in range(rho.dim):
            for y in range(rho.dim):
                if occupation_of_index(x, d, sites) != occupation_of_index(y, d, sites):
                    assert abs(rho.entries[x, y]) <= 1e-12

    def test_spec_validation(self):
        with pytest.raises(InputError):
            DickeSpec(m=1, n_sites=16, occupations=(8, 8), block=4)  # beyond desk bound
        with pytest.raises(InputError):
            DickeSpec(m=2, n_sites=12, occupations=(4, 4, 4), block=4)
        with pytest.raises(InputError):
            DickeSpec(m=1, n_sites=4, occupations=(2, 1), block=2)  # bad sum
        with pytest.raises(InputError):
            DickeSpec(m=1, n_sites=4, occupations=(2, 2), block=4)  # block too big
        with pytest.raises(InputError):
            DickeSpec(m=3, n_sites=4, occupations=(1, 1, 1, 1), block=2)
        with pytest.raises(InputError, match="m >= 1"):
            DickeSpec(m=0, n_sites=4, occupations=(4,), block=2)
        with pytest.raises(InputError, match="exactly 2 occupation numbers"):
            DickeSpec(m=1, n_sites=4, occupations=(2, 1, 1), block=2)

    @pytest.mark.parametrize(
        "fields",
        [
            {"occupations": (6.5, 7.5), "n_sites": 13},  # int() once truncated these to (6, 7)
            {"occupations": (7.0, 7.0)},
            {"block": 3.5},
            {"block": 3.0},
            {"n_sites": 14.0},
            {"m": 1.0},
            {"occupations": ("7", "7")},
            {"occupations": 14},
            {"block": None},
        ],
        ids=["half-occupations", "float-occupations", "float-block", "integral-float-block",
             "float-sites", "float-m", "string-occupations", "scalar-occupations", "none-block"],
    )
    def test_non_integer_fields_rejected(self, fields):
        kwargs = {"m": 1, "n_sites": 14, "occupations": (7, 7), "block": 3, **fields}
        with pytest.raises(InputError, match="must be integers"):
            DickeSpec(**kwargs)

    def test_numpy_integers_accepted(self):
        spec = DickeSpec(m=np.int64(1), n_sites=np.int32(14), occupations=(np.int8(7), np.uint16(7)), block=np.int64(3))
        plain = DickeSpec(m=1, n_sites=14, occupations=(7, 7), block=3)
        assert spec == plain
        assert all(type(x) is int for x in (spec.m, spec.n_sites, spec.block, *spec.occupations))
        assert np.array_equal(dicke_reduced_density_dense(spec).entries, dicke_reduced_density_dense(plain).entries)
        assert np.array_equal(dicke_reduced_density(spec).spectrum, dicke_reduced_density(plain).spectrum)


class TestAsymptotics:
    def test_extensive_alpha(self):
        assert extensive_alpha(2.0, 1) == 0.0
        assert extensive_alpha(1.0, 2) == 0.0
        assert extensive_alpha(4.0, 1) == 0.5
        with pytest.raises(ParameterError):
            extensive_alpha(0.0, 1)

    def test_linear_in_block_at_extensive_order(self):
        a, m = 4.0, 1
        alpha = extensive_alpha(a, m)
        params = LmgParams(a=a, m=m, alpha=alpha, gamma=0.5, densities=(0.5, 0.5))
        base = lmg_asymptotic_za0(params, 1.0)
        for block in (10.0, 100.0, 1000.0):
            assert lmg_asymptotic_za0(params, block) / block == pytest.approx(base, rel=1e-14)

    def test_vanishing_block_ratio_complement(self):
        # at the extensive order the value is proportional to (1 - gamma)
        near_one = LmgParams(a=4.0, m=1, alpha=0.5, gamma=1.0 - 1e-6, densities=(0.5, 0.5))
        half = LmgParams(a=4.0, m=1, alpha=0.5, gamma=0.5, densities=(0.5, 0.5))
        ratio = lmg_asymptotic_za0(near_one, 100.0) / lmg_asymptotic_za0(half, 100.0)
        assert ratio == pytest.approx(1e-6 / 0.5, rel=1e-9)

    def test_arithmetic_cross_check(self):
        # independent re-derivation of the exponent arithmetic for
        # m=1, a=2, alpha=1/4, gamma=1/2, n=(1/2, 1/2)
        a, m, alpha, gamma = 2.0, 1, 0.25, 0.5
        params = LmgParams(a=a, m=m, alpha=alpha, gamma=gamma, densities=(0.5, 0.5))
        block = 50.0
        exponent = a * m * (1 - alpha) / 2  # = 0.75
        expected = (
            block**exponent
            * (2 * math.pi * 0.5 * 0.25) ** exponent
            / (a * (1 - alpha) * alpha ** (m * a / 2))
        )
        assert lmg_asymptotic_za0(params, block) == pytest.approx(expected, rel=1e-15)

    def test_domain_and_parameter_errors(self):
        params = LmgParams(a=2.0, m=1, alpha=0.5, gamma=0.5, densities=(0.5, 0.5))
        with pytest.raises(ParameterError):
            lmg_asymptotic_za0(LmgParams(a=2.0, m=1, alpha=0.5, gamma=0.5, densities=(0.5, 0.5)), 0.0)
        with pytest.raises(DomainError):
            lmg_asymptotic_za0(LmgParams(a=2.0, m=1, alpha=-0.5, gamma=0.5, densities=(0.5, 0.5)), 10.0)
        with pytest.raises(ParameterError):
            LmgParams(a=2.0, m=1, alpha=0.5, gamma=1.5, densities=(0.5, 0.5))
        with pytest.raises(ParameterError):
            LmgParams(a=2.0, m=1, alpha=0.5, gamma=0.5, densities=(0.7, 0.7))
        with pytest.raises(ParameterError, match="m must be at least 1"):
            LmgParams(a=2.0, m=0, alpha=0.5, gamma=0.5, densities=(1.0,))
        with pytest.raises(ParameterError, match="exactly 2 densities"):
            LmgParams(a=2.0, m=1, alpha=0.5, gamma=0.5, densities=(0.5, 0.25, 0.25))
        with pytest.raises(ParameterError, match="a != 0"):
            lmg_asymptotic_za0(LmgParams(a=0.0, m=1, alpha=0.5, gamma=0.5, densities=(0.5, 0.5)), 10.0)
        with pytest.raises(ParameterError, match="alpha != 1"):
            lmg_asymptotic_za0(LmgParams(a=2.0, m=1, alpha=1.0, gamma=0.5, densities=(0.5, 0.5)), 10.0)

    @pytest.mark.parametrize("densities", [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5), (-math.inf, 1.0)])
    def test_non_finite_densities_rejected(self, densities):
        with pytest.raises(ParameterError, match="densities"):
            LmgParams(a=2.0, m=1, alpha=0.5, gamma=0.5, densities=densities)

    @pytest.mark.parametrize("block", [math.nan, math.inf, -math.inf])
    def test_non_finite_block_rejected(self, block):
        params = LmgParams(a=2.0, m=1, alpha=0.5, gamma=0.5, densities=(0.5, 0.5))
        with pytest.raises(ParameterError, match="block size"):
            lmg_asymptotic_za0(params, block)

    @pytest.mark.parametrize(
        "a, alpha",
        [(math.inf, 0.5), (-math.inf, 0.5), (math.nan, 0.5), (2.0, math.inf), (2.0, -math.inf), (2.0, math.nan)],
    )
    def test_non_finite_a_or_alpha_rejected(self, a, alpha):
        params = LmgParams(a=a, m=1, alpha=alpha, gamma=0.5, densities=(0.5, 0.5))
        with pytest.raises(ParameterError, match="finite a and alpha"):
            lmg_asymptotic_za0(params, 7.0)

    @pytest.mark.parametrize("a, m", [(math.nan, 1), (math.inf, 1), (-math.inf, 2), (2.0, math.nan)])
    def test_extensive_alpha_rejects_non_finite(self, a, m):
        with pytest.raises(ParameterError, match="finite a and m"):
            extensive_alpha(a, m)

    def test_zero_density_vanishes(self):
        params = LmgParams(a=4.0, m=1, alpha=0.5, gamma=0.5, densities=(1.0, 0.0))
        assert lmg_asymptotic_za0(params, 10.0) == 0.0

    @pytest.mark.parametrize(
        "a, alpha, densities",
        [
            (1e300, 2.0, (0.5, 0.5)),  # the float powers overflow
            (1000.0, 0.5, (0.5, 0.5)),  # finite powers, but their quotient is inf
            (4.0, 2.0, (1.0, 0.0)),  # a zero density under a negative exponent
        ],
    )
    def test_overflow_is_a_range_error(self, a, alpha, densities):
        params = LmgParams(a=a, m=1, alpha=alpha, gamma=0.5, densities=densities)
        with pytest.raises(RangeError, match="overflows"):
            lmg_asymptotic_za0(params, 7.0)

    def test_desk_scale_trend_toward_linearity(self):
        # N=14 half-filled blocks: the per-site entropy rises monotonically
        # toward (but below) the asymptotic prediction taken at gamma = L/N
        a = 2.2
        alpha = extensive_alpha(a, 1)
        rates, ratios = [], []
        for block in range(2, 8):
            spec = DickeSpec(m=1, n_sites=14, occupations=(7, 7), block=block)
            exact = quantum_z_ab(a, 0.0, alpha, dicke_reduced_density(spec))
            params = LmgParams(a=a, m=1, alpha=alpha, gamma=block / 14, densities=(0.5, 0.5))
            asym = lmg_asymptotic_za0(params, float(block))
            rates.append(exact / block)
            ratios.append(exact / asym)
        assert all(x < y for x, y in zip(rates, rates[1:]))
        assert all(x < y for x, y in zip(ratios, ratios[1:]))
        assert all(0 < r < 1 for r in ratios)
