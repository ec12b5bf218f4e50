"""Value and composition-law checks for every classical entropy family."""

import copy
import math
import pickle
import warnings

import numpy as np
import pytest

from gek.entropy import (
    Distribution,
    EntropySpec,
    Z_FAMILIES,
    _FAMILIES,
    _MEMO_SIZE,
    _power_sums,
    _saq_concave,
    all_valid_rows,
    alt_z_entropy,
    boltzmann,
    composition_phi,
    entropy_spec,
    invalid_distributions,
    invalid_rows,
    landsberg_vedral,
    power_sum,
    product_distribution,
    renyi,
    tsallis_aq,
    z_ab,
    z_entropy,
    z_k_alpha,
    z_q_alpha,
)
from gek.errors import DomainError, InputError, ParameterError, RangeError
from gek.grouplog import AbelGroup, IdentityGroup, KaniadakisGroup, MultiplicativeGroup

RNG = np.random.default_rng(42)


def random_dist(w, rng=RNG):
    return Distribution(rng.dirichlet(np.ones(w)))


GROUPS = ("id", "tsallis", "kaniadakis", "abel")


def random_group_params(g, rng):
    """``g`` plus random admissible parameters of that G, as ``entropy_spec`` takes them."""
    if g == "tsallis":
        return {"g": g, "q": rng.uniform(0.2, 2.5)}
    if g == "kaniadakis":
        return {"g": g, "k": rng.uniform(0.05, 0.9) * rng.choice([-1, 1])}
    if g == "abel":
        return {"g": g, "a": rng.uniform(0.05, 0.9), "b": -rng.uniform(0.0, 0.9)}
    return {"g": g}


# Random admissible parameter draws keyed by family (zg and altz over the G named ``g``); used wherever a test
# wants "random parameters" rather than a pinned spec.
def random_spec(family, rng, g="id"):
    if family in ("boltzmann", "control"):
        return entropy_spec(family)
    alpha = rng.uniform(0.15, 0.9)
    if family in ("zg", "altz"):
        return entropy_spec(family, {**random_group_params(g, rng), "alpha": alpha})
    if family == "renyi":
        return entropy_spec("renyi", {"alpha": alpha})
    if family == "zq":
        return entropy_spec("zq", {"q": rng.uniform(0.2, 2.5), "alpha": alpha})
    if family == "zk":
        k = rng.uniform(0.05, 0.9) * rng.choice([-1, 1])
        return entropy_spec("zk", {"k": k, "alpha": alpha})
    if family == "zab":
        a = rng.uniform(0.05, 0.9)
        b = -rng.uniform(0.0, 0.9)
        return entropy_spec("zab", {"a": a, "b": b, "alpha": alpha})
    if family == "tsallis_aq":
        q = rng.uniform(0.2, 2.5)
        while q == 1:
            q = rng.uniform(0.2, 2.5)
        hi = 1 / (1 - q) if q < 1 else 3.0
        return entropy_spec("tsallis_aq", {"a": rng.uniform(0.1, 0.95) * hi, "q": q})
    if family == "landsberg_vedral":
        q = rng.choice([rng.uniform(0.2, 0.9), rng.uniform(1.1, 2.5)])
        return entropy_spec("landsberg_vedral", {"q": float(q)})
    raise ValueError(family)


class TestDistribution:
    def test_validates_total(self):
        with pytest.raises(InputError):
            Distribution([0.5, 0.6])
        Distribution([0.5, 0.6], renormalize=True)

    def test_renormalize_refuses_a_total_that_overflows(self):
        # each entry is finite, but their float total is inf: dividing by it would give p = [0.0, 0.0]
        with pytest.raises(InputError, match="^cannot renormalize: the total of the entries overflows a float$"):
            Distribution([1e308, 1e308], renormalize=True)
        with pytest.raises(InputError, match="^cannot renormalize a zero vector$"):
            Distribution([0.0, 0.0], renormalize=True)
        assert Distribution([1e308, 1e307], renormalize=True).p.tolist() == [1e308 / 1.1e308, 1e307 / 1.1e308]

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            Distribution([1.2, -0.2])

    def test_repr_lists_the_probabilities(self):
        assert repr(Distribution([0.25, 0.75])) == "Distribution([0.25, 0.75])"

    def test_product(self):
        p = Distribution([0.5, 0.5])
        r = Distribution([1 / 3, 2 / 3])
        joint = product_distribution(p, r)
        assert joint.p == pytest.approx([1 / 6, 1 / 3, 1 / 6, 1 / 3])
        assert product_distribution(Distribution.uniform(2), Distribution.uniform(3)).p == pytest.approx(
            np.full(6, 1 / 6)
        )

    def test_delta_product_reorders(self):
        p = random_dist(4)
        joint = product_distribution(Distribution.delta(1), p)
        assert joint.p == pytest.approx(p.p)


class TestPowerSum:
    def test_uniform(self):
        assert power_sum(Distribution.uniform(4), 2.0) == pytest.approx(0.25)

    def test_delta(self):
        for alpha in (0.3, 1.0, 2.7):
            assert power_sum(Distribution.delta(5), alpha) == 1.0

    def test_direct_arithmetic(self):
        p = Distribution([1 / 2, 1 / 3, 1 / 6])
        assert power_sum(p, 2.0) == pytest.approx(14 / 36)

    def test_zero_convention(self):
        with_zero = Distribution([0.5, 0.5, 0.0])
        without = Distribution([0.5, 0.5])
        assert power_sum(with_zero, 0.5) == power_sum(without, 0.5)

    def test_underflow_to_zero_is_a_range_error(self):
        # 2 * 0.5^1100 is below the smallest subnormal; its logarithm and 1/s are undefined
        half = Distribution([0.5, 0.5])
        for family, params in (("renyi", {"alpha": 1100.0}), ("landsberg_vedral", {"q": 1100.0})):
            with pytest.raises(RangeError, match="underflows"):
                entropy_spec(family, params).value(half)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_non_finite_or_nonpositive_exponent_rejected(self, alpha):
        # nan used to give nan and inf 0.0; a spec never gets here, since it rejects them first
        with pytest.raises(ParameterError, match="finite positive exponents"):
            power_sum(Distribution([0.5, 0.5]), alpha)

    def test_zero_sum_is_a_value_where_no_logarithm_is_taken(self):
        assert boltzmann(Distribution.delta(3)) == 0.0
        assert tsallis_aq(1100.0, 2.0, Distribution([0.5, 0.5])) == 1.0


class TestBoltzmann:
    def test_uniform(self):
        assert boltzmann(Distribution.uniform(2)) == pytest.approx(math.log(2))

    def test_delta(self):
        assert boltzmann(Distribution.delta(3)) == 0.0

    def test_direct(self):
        assert boltzmann(Distribution([0.5, 0.25, 0.25])) == pytest.approx(1.5 * math.log(2))


class TestZEntropy:
    def test_identity_gives_renyi_bitwise(self):
        g = IdentityGroup()
        for _ in range(50):
            w = int(RNG.integers(2, 9))
            p = random_dist(w)
            alpha = float(RNG.uniform(0.1, 3.0))
            if abs(alpha - 1) < 1e-3:
                continue
            assert z_entropy(g, alpha, p) == renyi(alpha, p)

    def test_uniform_is_log_w(self):
        for alpha in (0.3, 0.7, 2.0):
            assert renyi(alpha, Distribution.uniform(6)) == pytest.approx(math.log(6), rel=1e-13)

    def test_delta_vanishes_for_every_group(self):
        p = Distribution.delta(4)
        for g in (IdentityGroup(), MultiplicativeGroup(0.4), KaniadakisGroup(0.6), AbelGroup(0.5, -0.5)):
            assert z_entropy(g, 0.5, p) == pytest.approx(0.0, abs=1e-14)

    def test_multiplicative_group_matches_direct_formula(self):
        q = 0.7
        g = MultiplicativeGroup(q)
        for _ in range(100):
            p = random_dist(int(RNG.integers(2, 9)))
            alpha = float(RNG.uniform(0.1, 0.95))
            assert z_entropy(g, alpha, p) == pytest.approx(z_q_alpha(q, alpha, p), abs=1e-12)

    def test_alpha_one_rejected(self):
        with pytest.raises(ParameterError):
            z_entropy(IdentityGroup(), 1.0, Distribution.uniform(3))


class TestTsallisAq:
    def test_boltzmann_limit(self):
        p = random_dist(5)
        for q in (1 - 1e-7, 1 + 1e-7):
            assert tsallis_aq(1.0, q, p) == pytest.approx(boltzmann(p), abs=1e-5)

    def test_delta(self):
        assert tsallis_aq(1.5, 0.5, Distribution.delta(3)) == 0.0

    def test_rescaling_identity(self):
        # S_{a,q} = a S_{1,q'} with q' = a(q-1) + 1
        for _ in range(30):
            a = float(RNG.uniform(0.2, 3.0))
            q = float(RNG.uniform(0.2, 2.0))
            if q == 1 or a * (q - 1) + 1 <= 0:
                continue
            p = random_dist(int(RNG.integers(2, 8)))
            qprime = a * (q - 1) + 1
            if qprime == 1:
                continue
            assert tsallis_aq(a, q, p) == pytest.approx(a * tsallis_aq(1.0, qprime, p), abs=1e-12)

    def test_parameter_constraints(self):
        p = Distribution.uniform(2)
        with pytest.raises(ParameterError):
            tsallis_aq(-1.0, 0.5, p)
        with pytest.raises(ParameterError):
            tsallis_aq(1.0, 1.0, p)
        with pytest.raises(ParameterError):
            tsallis_aq(3.0, 0.5, p)  # a(q-1)+1 = -0.5


class TestLandsbergVedral:
    def test_delta(self):
        assert landsberg_vedral(2.0, Distribution.delta(4)) == 0.0

    def test_uniform_q2(self):
        for w in (2, 5, 9):
            assert landsberg_vedral(2.0, Distribution.uniform(w)) == pytest.approx(w - 1)

    def test_composition_law(self):
        q = 1.7
        for _ in range(100):
            p = random_dist(int(RNG.integers(1, 9)))
            r = random_dist(int(RNG.integers(1, 9)))
            sp, sr = landsberg_vedral(q, p), landsberg_vedral(q, r)
            joint = landsberg_vedral(q, product_distribution(p, r))
            expected = sp + sr + (q - 1) * sp * sr
            assert joint == pytest.approx(expected, abs=1e-10, rel=1e-10)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 1.1, 2.0, 3.3])
    def test_is_the_z_entropy_of_one_minus_exp(self, q):
        # (1 - 1/sum p^q)/(1 - q) is G(ln sum p^q)/(1 - q) for G(t) = 1 - e^-t, the tsallis G at q = 2
        lv = entropy_spec("landsberg_vedral", {"q": q})
        zg = entropy_spec("zg", {"g": "tsallis", "q": 2.0, "alpha": q})
        rng = np.random.default_rng(int(q * 10))
        for _ in range(20):
            p, r = (random_dist(int(rng.integers(1, 9)), rng) for _ in range(2))
            assert zg.value(p) == pytest.approx(lv.value(p), rel=1e-15, abs=0.0)
            x, y = lv.value(p), lv.value(r)
            assert zg.phi(x, y) == pytest.approx(lv.phi(x, y), rel=1e-13, abs=0.0)
        for ln_w in np.linspace(0.0, 30.0, 61):
            assert zg.uniform_value_log(ln_w) == lv.uniform_value_log(ln_w)


class TestZqAlpha:
    def test_renyi_limit(self):
        p = random_dist(6)
        for q in (1 - 1e-7, 1 + 1e-7):
            assert z_q_alpha(q, 0.5, p) == pytest.approx(renyi(0.5, p), abs=1e-5)

    def test_delta(self):
        assert z_q_alpha(0.5, 0.5, Distribution.delta(2)) == 0.0

    def test_composition_cross_term(self):
        q, alpha = 1.4, 0.6
        for _ in range(100):
            p = random_dist(int(RNG.integers(1, 9)))
            r = random_dist(int(RNG.integers(1, 9)))
            sp, sr = z_q_alpha(q, alpha, p), z_q_alpha(q, alpha, r)
            joint = z_q_alpha(q, alpha, product_distribution(p, r))
            expected = sp + sr + (1 - alpha) * (1 - q) * sp * sr
            assert joint == pytest.approx(expected, abs=1e-10, rel=1e-10)


class TestZkAlpha:
    def test_delta(self):
        assert z_k_alpha(0.3, 0.5, Distribution.delta(2)) == 0.0

    def test_small_k_approaches_renyi(self):
        p = random_dist(5)
        assert z_k_alpha(1e-7, 0.4, p) == pytest.approx(renyi(0.4, p), abs=1e-5)

    def test_composition_with_square_roots(self):
        k, alpha = 0.55, 0.3
        c = k * (1 - alpha)
        for _ in range(100):
            p = random_dist(int(RNG.integers(1, 9)))
            r = random_dist(int(RNG.integers(1, 9)))
            sp, sr = z_k_alpha(k, alpha, p), z_k_alpha(k, alpha, r)
            joint = z_k_alpha(k, alpha, product_distribution(p, r))
            expected = sp * math.sqrt(1 + c * c * sr * sr) + sr * math.sqrt(1 + c * c * sp * sp)
            assert joint == pytest.approx(expected, abs=1e-10, rel=1e-10)

    def test_k_zero_rejected(self):
        with pytest.raises(ParameterError):
            z_k_alpha(0.0, 0.5, Distribution.uniform(2))


class TestZab:
    def test_double_zero_limit_is_renyi(self):
        p = random_dist(5)
        assert z_ab(1e-7, -1e-7, 0.5, p) == pytest.approx(renyi(0.5, p), abs=1e-5)

    def test_b_to_zero_a_one_is_tsallis(self):
        p = random_dist(5)
        alpha = 0.5
        tsallis_of_alpha = (1 - power_sum(p, alpha)) / (alpha - 1)
        assert z_ab(1.0, 1e-9, alpha, p) == pytest.approx(tsallis_of_alpha, abs=1e-5)

    def test_opposite_exponents_equal_deformed_sum_member(self):
        k, alpha = 0.35, 0.5
        for _ in range(50):
            p = random_dist(int(RNG.integers(2, 9)))
            assert z_ab(k, -k, alpha, p) == pytest.approx(z_k_alpha(k, alpha, p), abs=1e-14)

    def test_equal_exponents_rejected(self):
        with pytest.raises(ParameterError):
            z_ab(0.5, 0.5, 0.3, Distribution.uniform(2))


class TestAltForm:
    def test_identity_is_renyi(self):
        p = random_dist(4)
        assert alt_z_entropy(IdentityGroup(), 0.5, p) == renyi(0.5, p)

    def test_delta(self):
        assert alt_z_entropy(MultiplicativeGroup(0.5), 0.5, Distribution.delta(3)) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_differs_from_main_form(self):
        # Regression pair: the two compositions of G with the quotient differ.
        g = MultiplicativeGroup(0.5)
        p = Distribution([0.5, 0.5])
        main = z_entropy(g, 0.5, p)
        alt = alt_z_entropy(g, 0.5, p)
        # power sum is sqrt(2); main = G(ln sqrt(2))/0.5 = 4(2^(1/4) - 1),
        # alt = G(ln sqrt(2)/0.5) = G(ln 2) = 2(sqrt(2) - 1)
        assert main == pytest.approx(4.0 * math.expm1(0.25 * math.log(2)))
        assert alt == pytest.approx(2.0 * math.expm1(0.5 * math.log(2)))
        assert abs(main - alt) > 0.05


class TestCompositionPhi:
    def test_null_composability(self):
        g = MultiplicativeGroup(0.6)
        for x in RNG.uniform(0, 5, size=20):
            assert composition_phi(g, 0.4, x, 0.0) == pytest.approx(x, abs=1e-12)

    def test_identity_additive(self):
        assert composition_phi(IdentityGroup(), 0.5, 2.0, 3.0) == pytest.approx(5.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        # nan used to pass both alpha checks, and the identity law returned x + y
        with pytest.raises(ParameterError, match="alpha must be positive and finite"):
            composition_phi(IdentityGroup(), alpha, 1.0, 2.0)

    def test_multiplicative_closed_form(self):
        q, alpha = 0.3, 0.6
        g = MultiplicativeGroup(q)
        for _ in range(50):
            x, y = RNG.uniform(0, 4, size=2)
            expected = x + y + (1 - alpha) * (1 - q) * x * y
            assert composition_phi(g, alpha, x, y) == pytest.approx(expected, rel=1e-12)


class TestEntropySpec:
    def test_round_trip_matches_functions(self):
        p = random_dist(5)
        cases = [
            (entropy_spec("renyi", {"alpha": 0.5}), renyi(0.5, p)),
            (entropy_spec("boltzmann"), boltzmann(p)),
            (entropy_spec("tsallis_aq", {"a": 1.5, "q": 0.7}), tsallis_aq(1.5, 0.7, p)),
            (entropy_spec("landsberg_vedral", {"q": 2.0}), landsberg_vedral(2.0, p)),
            (entropy_spec("zq", {"q": 0.7, "alpha": 0.5}), z_q_alpha(0.7, 0.5, p)),
            (entropy_spec("zk", {"k": 0.3, "alpha": 0.5}), z_k_alpha(0.3, 0.5, p)),
            (entropy_spec("zab", {"a": 0.3, "b": -0.2, "alpha": 0.5}), z_ab(0.3, -0.2, 0.5, p)),
        ]
        for spec, expected in cases:
            assert spec.value(p) == expected

    def test_group_backed_families(self):
        p = random_dist(4)
        spec = entropy_spec("zg", {"g": "kaniadakis", "k": 0.4, "alpha": 0.3})
        assert spec.value(p) == pytest.approx(z_entropy(KaniadakisGroup(0.4), 0.3, p), abs=1e-14)
        alt = entropy_spec("altz", {"g": "tsallis", "q": 0.5, "alpha": 0.3})
        assert alt.value(p) == pytest.approx(alt_z_entropy(MultiplicativeGroup(0.5), 0.3, p), abs=1e-14)
        # every Z-family alias is zg with its G, exactly
        aliases = [
            ("renyi", {}, "id"),
            ("zq", {"q": 0.7}, "tsallis"),
            ("zq", {"q": 2.5}, "tsallis"),
            ("zk", {"k": -0.45}, "kaniadakis"),
            ("zab", {"a": 0.3, "b": -0.2}, "abel"),
            ("zab", {"a": 0.9, "b": 0.4}, "abel"),
        ]
        rng = np.random.default_rng(8)
        for family, gparams, g in aliases:
            for alpha in (0.3, 0.5, 0.85, 1.7):
                alias = entropy_spec(family, {**gparams, "alpha": alpha})
                zg = entropy_spec("zg", {"g": g, **gparams, "alpha": alpha})
                for w in (1, 3, 6):
                    p = Distribution(rng.dirichlet(np.ones(w)))
                    assert alias.value(p) == zg.value(p), (family, alpha, p)
                # kept small so that abel with a, b > 0 stays inside its range at alpha > 1
                for x, y in rng.uniform(0.0, 0.5, size=(5, 2)):
                    assert alias.phi(x, y) == zg.phi(x, y), (family, alpha, x, y)
                for ln_w in (0.0, *rng.uniform(0.0, 2.0, size=6)):
                    assert alias.uniform_value_log(ln_w) == zg.uniform_value_log(ln_w), (family, alpha, ln_w)
        # zab is its formula at every argument; zg with g=abel stops at G's increasing domain
        zab = entropy_spec("zab", {"a": 2.0, "b": 1.0, "alpha": 2.0})
        zg = entropy_spec("zg", {"g": "abel", "a": 2.0, "b": 1.0, "alpha": 2.0})
        u4 = Distribution.uniform(4)
        assert zab.value(u4) == pytest.approx(0.1875, rel=1e-15)  # (4^-2 - 4^-1)/((2 - 1)(1 - 2))
        assert zab.uniform_value_log(math.log(4)) == pytest.approx(0.1875, rel=1e-15)
        with pytest.raises(DomainError):
            zg.value(u4)
        with pytest.raises(DomainError):
            zg.uniform_value_log(math.log(4))

    def test_uniform_closed_forms_match_direct_evaluation(self):
        families = ["renyi", "zq", "zk", "zab", "zg", "altz", "boltzmann", "control", "tsallis_aq",
                    "landsberg_vedral"]
        # a new family cannot land without its closed form checked against its reduction
        assert set(families) == _FAMILIES.keys()
        for family in families:
            for g in GROUPS if family in ("zg", "altz") else ("id",):
                for trial in range(10):
                    rng = np.random.default_rng(100 + trial)
                    spec = random_spec(family, rng, g)
                    w = int(rng.integers(2, 40))
                    direct = spec.value(Distribution.uniform(w))
                    assert spec.uniform_value(w) == pytest.approx(direct, rel=1e-12), spec.describe()

    def test_equality_and_repr_ignore_the_built_laws(self):
        # each spec builds its own closures, so comparing or printing them would break both
        spec = entropy_spec("zg", {"g": "tsallis", "q": 0.5, "alpha": 0.7})
        same = entropy_spec("zg", {"g": "tsallis", "q": 0.5, "alpha": 0.7})
        assert spec._laws is not same._laws
        assert spec == same
        assert spec != entropy_spec("zg", {"g": "tsallis", "q": 0.5, "alpha": 0.8})
        assert "_laws" not in repr(spec) and "<function" not in repr(spec)
        # the same alpha with another G is another entropy
        assert spec != entropy_spec("zg", {"g": "kaniadakis", "k": 0.3, "alpha": 0.7})
        assert spec != entropy_spec("zg", {"g": "tsallis", "q": 0.6, "alpha": 0.7})
        assert entropy_spec("zk", {"k": 0.3, "alpha": 0.7}) == entropy_spec("zk", {"k": 0.3, "alpha": 0.7})

    @pytest.mark.parametrize(
        "family, params",
        [("zk", {"k": 0.3, "alpha": 0.7}), ("zg", {"g": "abel", "a": 0.3, "b": -0.2, "alpha": 0.5}), ("boltzmann", {})],
    )
    def test_copy_and_pickle_rebuild_an_equal_spec(self, family, params):
        # a copy is built again from the spec's arguments, so an alias family derives its G once more
        spec = entropy_spec(family, params)
        dist = Distribution([0.5, 0.25, 0.25])
        for twin in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
            assert twin == spec and twin._laws is not spec._laws
            assert twin.value(dist) == spec.value(dist)

    def test_spec_is_immutable(self):
        spec = entropy_spec("renyi", {"alpha": 0.5})
        with pytest.raises(AttributeError):
            spec.family = "boltzmann"
        with pytest.raises(AttributeError):
            del spec._laws

    def test_uniform_value_needs_at_least_one_outcome(self):
        with pytest.raises(InputError, match="W >= 1"):
            entropy_spec("renyi", {"alpha": 0.5}).uniform_value(0.5)

    def test_regime_marker(self):
        assert entropy_spec("renyi", {"alpha": 0.5}).regime == "concave"
        assert entropy_spec("renyi", {"alpha": 2.0}).regime == "non-concave"
        # every admissible two-parameter trace-form spec lands in a concave region:
        # for q < 1 the a(q-1)+1 > 0 constraint coincides with the region bound
        assert entropy_spec("tsallis_aq", {"a": 1.5, "q": 0.5}).regime == "concave"
        assert entropy_spec("tsallis_aq", {"a": 4.0, "q": 1.5}).regime == "concave"
        # a=3, q=0.5 lies outside the concavity region, and so fails a(q-1) + 1 > 0 at build time
        assert not _saq_concave(3.0, 0.5)
        with pytest.raises(ParameterError):
            entropy_spec("tsallis_aq", {"a": 3.0, "q": 0.5})
        assert entropy_spec("boltzmann").regime == "concave"
        assert entropy_spec("control").regime == "non-concave"
        assert entropy_spec("landsberg_vedral", {"q": 0.5}).regime == "non-concave"
        assert entropy_spec("landsberg_vedral", {"q": 2.0}).regime == "non-concave"
        assert entropy_spec("altz", {"g": "tsallis", "q": 0.5, "alpha": 0.7}).regime == "concave"
        assert entropy_spec("altz", {"g": "tsallis", "q": 0.5, "alpha": 1.5}).regime == "non-concave"

    def test_bad_specs_rejected(self):
        with pytest.raises(ParameterError):
            entropy_spec("nope")
        with pytest.raises(ParameterError):
            entropy_spec("renyi", {"alpha": 1.0})
        with pytest.raises(ParameterError):
            entropy_spec("renyi", {"alpha": 0.5, "beta": 1.0})
        with pytest.raises(ParameterError):
            entropy_spec("zg", {"alpha": 0.5})
        with pytest.raises(ParameterError):
            entropy_spec("zk", {"k": 1.5, "alpha": 0.5})
        with pytest.raises(ParameterError):
            entropy_spec("renyi", {"alpha": math.nan})
        with pytest.raises(ParameterError):
            entropy_spec("zk", {"k": 0.3, "alpha": math.inf})
        with pytest.raises(ParameterError):
            entropy_spec("zg", {"g": "tsallis", "q": -math.inf, "alpha": 0.5})
        with pytest.raises(ParameterError):
            entropy_spec("zq", {"q": -0.5, "alpha": 0.5})  # zq alone requires q > 0
        for alpha in (0.0, -0.5):
            with pytest.raises(ParameterError, match="alpha must be positive and finite"):
                entropy_spec("renyi", {"alpha": alpha})
        with pytest.raises(ParameterError, match="q != 1"):
            entropy_spec("landsberg_vedral", {"q": 1.0})
        for q in (0.0, -0.5):
            with pytest.raises(ParameterError, match="q > 0"):
                entropy_spec("landsberg_vedral", {"q": q})
        entropy_spec("zg", {"g": "tsallis", "q": -0.5, "alpha": 0.5})

    def test_nonnegative_on_valid_distributions(self):
        for family in list(Z_FAMILIES[:-1]) + ["tsallis_aq", "landsberg_vedral"]:
            for trial in range(50):
                rng = np.random.default_rng(trial)
                spec = random_spec(family, rng)
                p = Distribution(rng.dirichlet(np.ones(int(rng.integers(1, 9)))))
                assert spec.value(p) >= -1e-12, spec.describe()


class TestExpansibility:
    def test_exact_for_all_families(self):
        p = random_dist(5)
        specs = [
            entropy_spec("boltzmann"),
            entropy_spec("renyi", {"alpha": 0.5}),
            entropy_spec("tsallis_aq", {"a": 1.2, "q": 1.8}),
            entropy_spec("landsberg_vedral", {"q": 0.5}),
            entropy_spec("zq", {"q": 2.0, "alpha": 0.3}),
            entropy_spec("zk", {"k": -0.4, "alpha": 0.7}),
            entropy_spec("zab", {"a": 0.8, "b": -0.1, "alpha": 0.4}),
            entropy_spec("zg", {"g": "abel", "a": 0.8, "b": -0.1, "alpha": 0.4}),
        ]
        extended = p.append_zero()
        for spec in specs:
            assert spec.value(extended) == spec.value(p), spec.describe()


# one spec per family and per G, at orders on both sides of 1
BATCH_SPECS = [
    entropy_spec("boltzmann"),
    entropy_spec("control"),
    entropy_spec("tsallis_aq", {"a": 0.8, "q": 0.5}),
    entropy_spec("tsallis_aq", {"a": 2.0, "q": 1.5}),
    entropy_spec("landsberg_vedral", {"q": 0.5}),
    entropy_spec("renyi", {"alpha": 0.5}),
    entropy_spec("renyi", {"alpha": 2.0}),
    entropy_spec("zq", {"q": 0.5, "alpha": 0.7}),
    entropy_spec("zk", {"k": 0.3, "alpha": 5.0}),
    entropy_spec("zab", {"a": 0.3, "b": -0.2, "alpha": 0.3}),
    entropy_spec("zab", {"a": 2.0, "b": 1.0, "alpha": 2.0}),
    entropy_spec("zg", {"g": "id", "alpha": 0.5}),
    entropy_spec("zg", {"g": "tsallis", "q": 1.5, "alpha": 0.5}),
    entropy_spec("zg", {"g": "kaniadakis", "k": 0.4, "alpha": 0.7}),
    entropy_spec("zg", {"g": "abel", "a": 2.0, "b": 1.0, "alpha": 0.5}),
    entropy_spec("altz", {"g": "tsallis", "q": 0.5, "alpha": 0.7}),
    entropy_spec("altz", {"g": "abel", "a": 0.3, "b": -0.2, "alpha": 0.5}),
]


def _batch_rows(rng):
    """Rows of every length 1-64: simplex points, off-simplex points, and rows with zeros."""
    rows = []
    for w in range(1, 65):
        rows.append(rng.dirichlet(np.ones(w)))
        rows.append(rng.dirichlet(np.ones(w)) * rng.uniform(0.5, 1.5))
        with_zeros = rng.dirichlet(np.ones(w))
        with_zeros[rng.integers(w, size=max(1, w // 3))] = 0.0
        if with_zeros.any():
            rows.append(with_zeros)
    rows.append(np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]))  # 9 entries, 2 positive
    rows.append([0.25, 0.0, 0.75])  # a plain list, as raw_value takes one
    return rows


class TestBatchedRows:
    @pytest.mark.parametrize("spec", BATCH_SPECS, ids=lambda s: s.describe())
    def test_raw_values_equal_raw_value_per_row(self, spec):
        rows = _batch_rows(np.random.default_rng(11))
        shuffled = [rows[i] for i in np.random.default_rng(12).permutation(len(rows))]
        for batch in (rows, shuffled):
            assert spec.raw_values(batch) == [spec.raw_value(row) for row in batch]

    @pytest.mark.parametrize("spec", BATCH_SPECS, ids=lambda s: s.describe())
    def test_block_sums_equal_the_1d_sum_per_row(self, spec):
        # the runner's stacked path against raw_value's: the rows stacked by length, and (k, 2w, w) blocks as the
        # Schur criterion builds them, once as built and once with zeroed entries
        from gek.properties import _build_criterion

        by_length = {}
        for row in _batch_rows(np.random.default_rng(11)):
            by_length.setdefault(len(row), []).append(row)
        blocks = [np.array(rows, dtype=float) for rows in by_length.values()]
        rng = np.random.default_rng(13)
        (_, points), _ = _build_criterion(9, (rng.standard_exponential((5, 9)),))
        zeroed = points.copy()
        zeroed[::2, 1::3, 4:7] = 0.0
        for block in blocks + [points, zeroed]:
            expected = spec.row_sums(block.reshape(-1, block.shape[-1]))
            assert spec.block_sums(block).ravel().tolist() == expected, block.shape

    def test_row_sums_and_tail_compose_to_value(self):
        spec = entropy_spec("zk", {"k": 0.3, "alpha": 0.5})
        p = Distribution([0.5, 0.25, 0.125, 0.125])
        (s,) = spec.row_sums([p.p])
        assert s == power_sum(p, 0.5)
        assert spec.from_row_sum(s) == spec.value(p)

    def test_invalid_distributions_match_the_constructor(self):
        rows = [
            np.array([0.5, 0.5]),
            np.array([0.5, 0.6]),
            np.array([1.2, -0.2]),
            np.array([0.5, np.nan]),
            np.array([np.inf, 0.0]),
            np.array([]),
            np.array([1.0]),
            np.full(10, 0.1),
        ]
        expected = []
        for row in rows:
            try:
                Distribution(row)
            except InputError:
                expected.append(True)
            else:
                expected.append(False)
        assert invalid_distributions(rows) == expected == [False, True, True, True, True, True, False, False]

    def test_the_whole_block_test_is_invalid_rows_on_every_block(self):
        # each bad row of the constructor's grid, alone and among valid rows, at the start, middle and end of 2-D
        # and 3-D blocks; an empty block in either axis; and sums each side of the tolerance.  Then lists of
        # blocks of several widths, as the trial loop passes a slot's: every block with a valid one of another
        # width before and after it, and each of the first blocks (valid, empty or with a bad row) before every
        # block
        rng = np.random.default_rng(24)
        good = rng.dirichlet(np.ones(4), 6)
        bad = [[0.5, 0.6, 0.0, 0.0], [1.2, -0.2, 0.0, 0.0], [0.5, np.nan, 0.5, 0.0], [np.inf, 0.0, 0.0, 0.0],
               [0.5, 0.5 + 2e-12, 0.0, 0.0], [-0.0, 0.5, 0.5, 0.0], [0.5, 0.5 + 5e-13, 0.0, 0.0], [-np.inf, 1, 1, 0]]
        blocks = [good, good.reshape(2, 3, 4), np.empty((0, 4)), np.empty((3, 0)), np.empty((0, 0))]
        for row in bad:
            for at in (0, 3, 6):
                block = np.insert(good, at, row, axis=0)
                blocks += [block, block[:, None, :], np.stack([block, block[::-1]])]
        verdicts = []
        for block in blocks:  # an empty block is left to invalid_rows
            verdicts.append(all_valid_rows(block))
            assert verdicts[-1] is (block.size > 0 and not invalid_rows(block).any()), block
        assert verdicts.count(True) == 2 + 2 * 9  # the two good blocks, and each with a row of -0.0 or 5e-13
        other = rng.dirichlet(np.ones(3), 5)
        firsts = blocks[:5] + [blocks[5 + 3 * 3 * k] for k in range(len(bad))]  # each bad row at the start
        lists = [[other, block] for block in blocks] + [[block, other[:, None, :], other] for block in blocks]
        lists += [[first, block] for first in firsts for block in blocks]
        for group in lists:
            expected = all(block.size > 0 and not invalid_rows(block).any() for block in group)
            assert all_valid_rows(*group) is expected, [block.shape for block in group]
        assert [all_valid_rows(first, other) for first in firsts] == [True, True, False, False, False] + [
            row in (bad[5], bad[6]) for row in bad]


def _tail_specs():
    """Every family, zg and altz over each registry G, at a seeded draw, plus fixed specs where G has a floor."""
    specs = [random_spec(family, np.random.default_rng(seed), g) for seed in range(2) for family in _FAMILIES
             for g in (GROUPS if family in ("zg", "altz") else ("id",))]
    return specs + [entropy_spec("zg", {"g": "abel", "a": 2.0, "b": 1.0, "alpha": 0.5}),
                    entropy_spec("altz", {"g": "abel", "a": 2.0, "b": 1.0, "alpha": 0.5}),
                    entropy_spec("zab", {"a": 2.0, "b": 1.0, "alpha": 0.3}),
                    entropy_spec("zq", {"q": 3.0, "alpha": 0.5})]


def _reference_tail(spec, s):
    """The entropy from the sum ``s`` by the family's formula, with G's scalar ``eval`` (``formula`` for zab)."""
    params, g = spec.params, spec.group
    if spec.family in ("boltzmann", "control"):
        return s
    if spec.family == "tsallis_aq":
        return (1.0 - s) / (params["q"] - 1.0)
    if spec.family == "landsberg_vedral":
        return (1.0 - s) / ((params["q"] - 1.0) * s)
    c = 1.0 - params["alpha"]
    if spec.family == "altz":
        return g.eval(math.log(s) / c)
    return (g.formula if spec.family == "zab" else g.eval)(math.log(s)) / c


def _first_error(call, xs):
    """The reprs of ``call`` on each x in turn, or the (type, message) of the first x it refuses."""
    values = []
    for x in xs:
        try:
            values.append(call(x))
        except Exception as error:  # the error itself is what is compared
            return type(error), str(error)
    return [repr(v) for v in values]


def _block_error(call, xs):
    """``_first_error`` of one call on the whole list ``xs``."""
    try:
        return [repr(v) for v in call(xs)]
    except Exception as error:
        return type(error), str(error)


class TestBlockTails:
    """``from_row_sums`` is ``from_row_sum`` on each sum: the same floats, and the first refused sum's error."""

    @pytest.mark.parametrize("spec", _tail_specs(), ids=lambda s: s.describe())
    def test_block_values_equal_the_scalar_tail_bit_for_bit(self, spec):
        # sums between e^-0.3 and e^3, above every floor of G at these parameters
        sums = np.exp(np.random.default_rng(21).uniform(-0.3, 3.0, 200)).tolist() + [1.0]
        block = spec.from_row_sums(sums)
        assert all(type(v) is float for v in block)
        assert [repr(v) for v in block] == [repr(spec.from_row_sum(s)) for s in sums]
        assert [repr(v) for v in block] == [repr(_reference_tail(spec, s)) for s in sums]

    @pytest.mark.parametrize(
        "spec",
        [entropy_spec("renyi", {"alpha": 0.5}), entropy_spec("zab", {"a": 800.0, "b": 0.0, "alpha": 0.5}),
         entropy_spec("zab", {"a": 0.3, "b": -0.2, "alpha": 0.5}), entropy_spec("zq", {"q": 0.5, "alpha": 0.5}),
         entropy_spec("zk", {"k": 0.3, "alpha": 0.5}),
         entropy_spec("zg", {"g": "abel", "a": 2.0, "b": 1.0, "alpha": 0.5}),
         entropy_spec("zg", {"g": "tsallis", "q": -2.0, "alpha": 0.5}),
         entropy_spec("altz", {"g": "kaniadakis", "k": 0.4, "alpha": 0.5}),
         entropy_spec("landsberg_vedral", {"q": 0.5})],
        ids=lambda s: s.describe(),
    )
    def test_a_refused_block_raises_the_first_scalar_error(self, spec):
        # 0 underflows, NaN leaves G's domain (zab's formula takes it), 1e10 overflows zab at a = 800 and zq at
        # q = -2, and 0.3 is below the floor of abel at a = 2, b = 1; each bad sum is tried before and after others
        good, bad = [1.5, 2.0, 1.0], [0.0, math.nan, 1e10, 0.3, -1.0]
        rng = np.random.default_rng(5)
        blocks = [[b] for b in bad] + [[1.5, b, 2.0] for b in bad]
        blocks += [[[*good, *bad][i] for i in rng.permutation(8).tolist()] for _ in range(40)]
        refused = 0
        for sums in blocks:
            expected = _first_error(spec.from_row_sum, sums)
            assert _block_error(spec.from_row_sums, sums) == expected, sums
            refused += isinstance(expected, tuple)
        assert refused > 0

    def test_the_scalar_errors_are_the_ones_verify_prints(self):
        cases = [
            (entropy_spec("renyi", {"alpha": 0.5}), 0.0, RangeError,
             "the power sum of renyi underflows to 0, so its entropy is out of float range"),
            (entropy_spec("renyi", {"alpha": 0.5}), math.nan, DomainError,
             "identity: argument nan is outside the increasing domain (> -inf)"),
            (entropy_spec("zab", {"a": 800.0, "b": 0.0, "alpha": 0.5}), 1e10, RangeError,
             "abel: G(23.025850929940457) overflows a float"),
            (entropy_spec("zg", {"g": "abel", "a": 2.0, "b": 1.0, "alpha": 0.5}), 0.3, DomainError,
             "abel: argument -1.2039728043259361 is outside the increasing domain (> -0.6931471805599453)"),
            (entropy_spec("landsberg_vedral", {"q": 0.5}), -1.0, RangeError,
             "the power sum of landsberg_vedral underflows to 0, so its entropy is out of float range"),
        ]
        for spec, s, kind, message in cases:
            with pytest.raises(kind) as scalar:
                spec.from_row_sum(s)
            with pytest.raises(kind) as block:
                spec.from_row_sums([1.5, s, 0.0])
            assert str(scalar.value) == str(block.value) == message
            # the chained error a traceback shows is the scalar one: none, or the OverflowError a G turned into a
            # RangeError
            for error in (scalar.value, block.value):
                assert error.__context__ is None or (error.__suppress_context__ and error.__cause__ is None)
            assert repr(block.value.__context__) == repr(scalar.value.__context__)

    @pytest.mark.parametrize(
        "g, override",
        [(g, override) for g in (IdentityGroup(), MultiplicativeGroup(0.5), KaniadakisGroup(0.4),
                                 AbelGroup(0.3, -0.2), AbelGroup(2.0, 1.0))
         for override in ("eval", "_check_domain", "formula") if override != "formula" or isinstance(g, AbelGroup)],
        ids=lambda v: v if isinstance(v, str) else v.describe(),
    )
    def test_a_subclass_override_runs_in_the_block_tail(self, g, override):
        base = type(g)
        if override == "_check_domain":
            def check(self, t):  # refuses t > 0.5 as well
                base._check_domain(self, t)
                if t > 0.5:
                    raise DomainError(f"refused {t!r}")

            body = {"_check_domain": check}
        else:
            body = {override: lambda self, t: getattr(base, override)(self, t) + 1.0}
        shifted = object.__new__(type(f"Shifted{base.__name__}", (base,), body))
        shifted.__dict__.update(vars(g))
        sums = [1.5, 1.25, 2.0, 1.125]  # ln 2 > 0.5: the overridden check refuses the third sum
        for family in ("zg", "altz"):
            spec = EntropySpec(family, {"alpha": 0.5}, shifted)
            plain = EntropySpec(family, {"alpha": 0.5}, g)
            expected = _first_error(lambda s: _reference_tail(spec, s), sums)
            assert _block_error(spec.from_row_sums, sums) == expected != _block_error(plain.from_row_sums, sums)
        if override == "_check_domain":
            assert expected[0] is DomainError and expected[1].startswith("refused")

    @pytest.mark.parametrize("spec", [s for s in _tail_specs() if s.family in Z_FAMILIES], ids=lambda s: s.describe())
    def test_a_z_tail_is_one_list_form_call(self, spec, monkeypatch):
        # ln, G and the quotient run in G's list form: no scalar eval, formula or domain test on an admissible list
        sums = np.exp(np.random.default_rng(23).uniform(-0.3, 3.0, 50)).tolist()
        expected = [repr(_reference_tail(spec, s)) for s in sums]
        calls, list_form = [], type(spec.group).list_form
        monkeypatch.setattr(type(spec.group), "list_form", lambda *a: calls.append(a[2:]) or list_form(*a))
        for name in ("eval", "formula", "_check_domain"):
            owner = next((k for k in type(spec.group).__mro__ if name in vars(k)), None)
            if owner is not None:
                monkeypatch.setattr(owner, name, lambda self, t: pytest.fail("scalar call"))
        assert [repr(v) for v in spec.from_row_sums(sums)] == expected
        assert calls == [(1.0 - spec.alpha, True, -math.inf if spec.family == "zab" else None)]

    def test_zab_takes_nan_and_the_off_domain_sums_and_keeps_its_overflow_message(self):
        spec = entropy_spec("zab", {"a": 2.0, "b": 1.0, "alpha": 0.5})
        sums = [1.5, 0.3, math.nan, 2.0]  # ln 0.3 is below abel's floor at (2, 1), which zab's formula takes
        values = spec.from_row_sums(sums)
        assert [repr(v) for v in values] == [repr(spec.group.formula(math.log(s)) / 0.5) for s in sums]
        assert math.isnan(values[2]) and spec.group.list_form(sums, 0.5, True, -math.inf) is None
        assert spec.group.list_form([0.3], 0.5, True, -math.inf) == [values[1]]
        spec = entropy_spec("zab", {"a": 800.0, "b": 0.0, "alpha": 0.5})
        assert spec.group.list_form([1.5, 1e10], 0.5, True, -math.inf) is None
        with pytest.raises(RangeError, match=r"^abel: G\(23.025850929940457\) overflows a float$") as got:
            spec.from_row_sums([1.5, 1e10])
        assert got.value.__cause__ is None and got.value.__suppress_context__


def _refused_block_specs():
    """The specs of ``TestBlockTails.test_a_refused_block_raises_the_first_scalar_error``, read from its marks."""
    (mark,) = [m for m in TestBlockTails.test_a_refused_block_raises_the_first_scalar_error.pytestmark
               if m.name == "parametrize"]
    return mark.args[1]


class TestOneTailCall:
    """A list that holds a refused sum takes one tail call, which raises the first refused sum's error itself."""

    @pytest.mark.parametrize("spec", _refused_block_specs(), ids=lambda s: s.describe())
    def test_a_refused_list_is_not_run_again(self, spec):
        spec = copy.copy(spec)  # a spec of its own, whose tail the spy replaces
        calls, tail = [], spec._laws.tail
        object.__setattr__(spec, "_laws", spec._laws._replace(tail=lambda sums: calls.append(list(sums)) or tail(sums)))
        refused = 0
        for bad in (0.0, math.nan, 1e10, 0.3, -1.0):
            for sums in ([bad], [1.5, bad, 2.0], [1.5, 2.0, 1.0, bad, 0.0]):
                expected = _first_error(spec.from_row_sum, sums)
                calls.clear()
                assert _block_error(spec.from_row_sums, sums) == expected, sums
                assert calls == [sums]
                refused += isinstance(expected, tuple)
        assert refused > 0


def _memo_specs():
    """Every _FAMILIES row (zg and altz over all four G) at three draws, plus fixed specs that share an exponent.

    ``random_spec`` draws alpha first, so the Z-families of one draw share their order.
    """
    specs = []
    for family in _FAMILIES:
        for g in GROUPS if family in ("zg", "altz") else ("id",):
            specs += [random_spec(family, np.random.default_rng(seed), g) for seed in range(3)]
    specs += [entropy_spec("tsallis_aq", {"a": 0.8, "q": 0.5}), entropy_spec("landsberg_vedral", {"q": 0.6}),
              entropy_spec("renyi", {"alpha": 0.6}), entropy_spec("zk", {"k": 0.3, "alpha": 0.6})]
    return specs


MEMO_VECTORS = {
    "with-zeros": lambda: Distribution(np.array([0.25, 0.0, 0.125, 0.0, 0.5, 0.125, 0.0])),
    "positive": lambda: random_dist(37, np.random.default_rng(8)),
    "uniform": lambda: Distribution.uniform(12),
}


def _spectra_sweep_specs():
    """The 35 specs that each distribution op of the spectra-sweep benchmark evaluates on one vector."""
    specs = [entropy_spec("boltzmann"), entropy_spec("tsallis_aq", {"a": 0.8, "q": 0.5}),
             entropy_spec("landsberg_vedral", {"q": 0.6})]
    for alpha in (0.3, 0.6, 1.5, 2.5):
        specs += [entropy_spec("renyi", {"alpha": alpha}), entropy_spec("zq", {"q": 0.5, "alpha": alpha}),
                  entropy_spec("zk", {"k": 0.3, "alpha": alpha}),
                  entropy_spec("zab", {"a": 0.3, "b": -0.2, "alpha": alpha})]
        specs += [entropy_spec(family, dict(gp, g=g, alpha=alpha)) for family, g, gp in (
            ("zg", "tsallis", {"q": 0.5}), ("zg", "kaniadakis", {"k": 0.4}), ("zg", "abel", {"a": 0.3, "b": -0.2}),
            ("altz", "kaniadakis", {"k": 0.4}))]
    return specs


class TestSharedSums:
    """A Distribution keeps its positive support and one sum per reduction; no value may move by it."""

    @pytest.mark.parametrize("vector", MEMO_VECTORS)
    def test_shared_values_equal_fresh_values(self, vector):
        shared = MEMO_VECTORS[vector]()
        specs = _memo_specs()
        order = np.random.default_rng(5).permutation(len(specs)).tolist()
        got = {i: specs[i].value(shared) for i in order}
        for i, spec in enumerate(specs):
            assert got[i] == spec.value(Distribution(shared.p)), spec.describe()
        # fewer sums than specs: the Z-families of one draw meet in one entry
        assert len(shared._sums) < len(specs)

    @pytest.mark.parametrize("vector", MEMO_VECTORS)
    def test_shared_power_sums_equal_fresh_power_sums(self, vector):
        shared = MEMO_VECTORS[vector]()
        exponents = [0.3, 0.6, 1.5, 2.5, 0.5, 7.0, 0.6, 0.3]
        for spec in _memo_specs()[::4]:  # warm the memo with the families' own reductions first
            spec.value(shared)
        for alpha in [exponents[i] for i in np.random.default_rng(6).permutation(len(exponents))]:
            assert power_sum(shared, alpha) == power_sum(Distribution(shared.p), alpha)

    def test_support_is_p_itself_when_every_entry_is_positive(self):
        positive, with_zeros = MEMO_VECTORS["positive"](), MEMO_VECTORS["with-zeros"]()
        for dist in (positive, with_zeros):
            power_sum(dist, 0.5)
        assert positive._support is positive.p
        assert with_zeros._support.tolist() == [0.25, 0.125, 0.5, 0.125]

    def test_spectra_sweep_specs_share_five_sums(self):
        specs = _spectra_sweep_specs()
        assert len(specs) == 35
        dist = MEMO_VECTORS["with-zeros"]()
        for spec in specs:
            spec.value(dist)
        # boltzmann, and the power sums of order 0.3, 0.6 (shared with tsallis_aq and landsberg_vedral), 1.5, 2.5
        assert len(dist._sums) == 5
        assert _power_sums(0.5) is _power_sums(0.5)
        assert entropy_spec("zk", {"k": 0.3, "alpha": 0.6})._laws.reduce is _power_sums(0.6)

    def test_sweep_at_fixed_alpha_keeps_one_sum(self):
        dist = MEMO_VECTORS["positive"]()
        for k in (0.1, 0.3, 0.5, 0.7, 0.9):
            entropy_spec("zk", {"k": k, "alpha": 0.5}).value(dist)
        assert list(dist._sums) == [_power_sums(0.5)]

    def test_failed_reduction_stores_nothing(self):
        # 1e-300 ** 2 underflows; with the warning raised as an error the reduction fails and nothing is kept
        dist = Distribution([1e-300, 1.0])
        spec = entropy_spec("renyi", {"alpha": 2.0})
        with np.errstate(under="warn"), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="underflow"):
                spec.value(dist)
        assert dist._sums == {}
        assert spec.value(dist) == spec.raw_value(dist.p) == 0.0

    def test_each_spec_still_raises_its_own_range_error(self):
        # the shared sum underflows to 0: renyi's logarithm is undefined, tsallis_aq's quotient is not
        half = Distribution([0.5, 0.5])
        with pytest.raises(RangeError, match="underflows"):
            entropy_spec("renyi", {"alpha": 1101.0}).value(half)
        assert entropy_spec("tsallis_aq", {"a": 1100.0, "q": 2.0}).value(half) == 1.0
        assert list(half._sums) == [_power_sums(1101.0)]

    def test_memo_is_bounded(self):
        dist = MEMO_VECTORS["positive"]()
        exponents = [0.5 + i / 64 for i in range(_MEMO_SIZE + 10)]
        for alpha in exponents:
            power_sum(dist, alpha)
        assert len(dist._sums) == _MEMO_SIZE
        assert power_sum(dist, exponents[0]) == power_sum(Distribution(dist.p), exponents[0])


class TestGivenGroupOnlyWhereTaken:
    """A G passed to a family that does not take one is refused, never swapped or kept."""

    @pytest.mark.parametrize("family", sorted(f for f, row in _FAMILIES.items() if row.group != "given"))
    def test_every_family_that_takes_no_g_refuses_one(self, family):
        # zk (a fixed G) used to swap the caller's G for its own, boltzmann (no G) to keep it as spec.group
        spec = random_spec(family, np.random.default_rng(7))
        with pytest.raises(ParameterError, match=f"family {family} takes no group function"):
            EntropySpec(family, spec.params, AbelGroup(1.0, -0.5))

    def test_given_g_family_needs_one(self):
        with pytest.raises(ParameterError, match="family zg needs a group function"):
            EntropySpec("zg", {"alpha": 0.5})


def test_renormalizing_a_zero_vector_is_refused():
    with pytest.raises(InputError, match="cannot renormalize a zero vector"):
        Distribution([0.0, 0.0], renormalize=True)
