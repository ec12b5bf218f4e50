"""Exact-arithmetic checks for the truncated series and group-law machinery."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gek import series as series_module
from gek.series import (
    BivariateTruncatedSeries,
    GroupAxiomReport,
    TruncatedSeries,
    abel_exp_series,
    abel_group_coefficients,
    compose,
    group_law_from_G,
    identity_series,
    integral_coefficients,
    kaniadakis_exp_series,
    reversion,
    series_from_b_sequence,
    tsallis_exp_series,
    verify_group_axioms,
)
from gek.errors import CompositionDomainError, NormalizationError

small_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=4)
rational = st.fractions(min_value=-7, max_value=7, max_denominator=40)


def series(*coeffs, order=None):
    return TruncatedSeries.from_coeffs(coeffs, order=order)


class TestFromBSequence:
    def test_identity_case(self):
        assert series_from_b_sequence([1], order=1) == series(0, 1)

    def test_term_by_term(self):
        # F(s) = s + b1 s^2/2 + b2 s^3/3 for b = (1, b1, b2)
        f = series_from_b_sequence([1, F(3, 5), F(-2, 7)], order=3)
        assert f.coeffs == (F(0), F(1), F(3, 10), F(-2, 21))

    def test_direct_substitution(self):
        assert series_from_b_sequence([1, 2], order=2) == series(0, 1, 1)

    def test_bad_normalization(self):
        with pytest.raises(NormalizationError):
            series_from_b_sequence([2, 1], order=2)

    def test_missing_coefficients_are_zero(self):
        f = series_from_b_sequence([1], order=3)
        assert f == series(0, 1, 0, 0)


class TestCompose:
    def test_outer_identity(self):
        g = series(0, 1, F(1, 2), F(5, 3))
        assert compose(TruncatedSeries.identity(3), g) == g

    def test_monomial_substitution(self):
        # f = s^2, g = 2s  ->  4 s^2
        assert compose(series(0, 0, 1), series(0, 2, 0)) == series(0, 0, 4)

    def test_nonzero_constant_rejected(self):
        with pytest.raises(CompositionDomainError):
            compose(series(0, 1), series(1, 1))

    def test_truncates_to_min_order(self):
        f = series(0, 1, 1, 1, 1)
        g = series(0, 1, 1)
        assert compose(f, g).order == 2


class TestReversion:
    def test_identity(self):
        assert reversion(TruncatedSeries.identity(4)) == TruncatedSeries.identity(4)

    def test_signed_catalan_coefficients(self):
        # s + s^2 inverts to s - s^2 + 2 s^3 - 5 s^4; round trip is exact.
        f = series(0, 1, 1, 0, 0)
        g = reversion(f)
        assert g == series(0, 1, -1, 2, -5)
        assert compose(f, g).is_identity()

    @pytest.mark.parametrize(
        "b1,b2",
        [(F(1), F(1)), (F(2), F(-1)), (F(1, 2), F(1, 3)), (F(-3, 4), F(5, 2)), (F(7), F(0))],
    )
    def test_integral_coefficient_relations(self, b1, b2):
        # Reverting sum b_i s^(i+1)/(i+1) gives a_0 = 1, a_1 = -b_1,
        # a_2 = (3/2) b_1^2 - b_2 in the same coefficient convention.
        f = series_from_b_sequence([1, b1, b2], order=3)
        a = integral_coefficients(reversion(f))
        assert a[0] == 1
        assert a[1] == -b1
        assert a[2] == F(3, 2) * b1**2 - b2

    def test_unnormalized_rejected(self):
        with pytest.raises(NormalizationError):
            reversion(series(0, 2, 1))
        with pytest.raises(NormalizationError):
            reversion(series(1, 1))

    @given(st.lists(small_fraction, min_size=0, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_exact(self, tail):
        f = TruncatedSeries.from_coeffs([0, 1] + tail)
        assert compose(f, reversion(f)).is_identity()
        assert compose(reversion(f), f).is_identity()


class TestGroupLaw:
    def test_additive(self):
        psi = group_law_from_G(identity_series(5), 5)
        assert psi.coeffs == {(1, 0): F(1), (0, 1): F(1)}
        assert verify_group_axioms(psi).all_pass

    @pytest.mark.parametrize("q", [F(0), F(1, 2), F(3), F(-2, 3)])
    def test_multiplicative_law_is_exactly_quadratic(self, q):
        psi = group_law_from_G(tsallis_exp_series(q, 7), 7)
        expected = {(1, 0): F(1), (0, 1): F(1)}
        if q != 1:
            expected[(1, 1)] = 1 - q
        assert psi.coeffs == expected

    def test_deformed_sum_expansion(self):
        k = F(1, 2)
        psi = group_law_from_G(kaniadakis_exp_series(k, 5), 5)
        assert psi.coeffs == {
            (1, 0): F(1),
            (0, 1): F(1),
            (2, 1): k**2 / 2,
            (1, 2): k**2 / 2,
            (4, 1): -(k**4) / 8,
            (1, 4): -(k**4) / 8,
        }

    def test_gamma_xy_family_passes_axioms(self):
        for gamma in (F(2), F(-1, 3), F(7, 5)):
            psi = BivariateTruncatedSeries(
                {(1, 0): F(1), (0, 1): F(1), (1, 1): gamma}, 6
            )
            assert verify_group_axioms(psi).all_pass

    def test_asymmetric_law_fails_commutativity(self):
        psi = BivariateTruncatedSeries({(1, 0): F(1), (0, 1): F(1), (2, 0): F(1)}, 4)
        report = verify_group_axioms(psi)
        assert not report.commutativity
        assert report.first_failure["commutativity"][0] == (2, 0)

    def test_broken_associativity_detected(self):
        psi = BivariateTruncatedSeries(
            {(1, 0): F(1), (0, 1): F(1), (1, 1): F(1), (2, 2): F(1)}, 5
        )
        report = verify_group_axioms(psi)
        assert report.identity and report.commutativity
        assert not report.associativity

    def test_requires_enough_coefficients(self):
        with pytest.raises(ValueError):
            group_law_from_G(identity_series(3), 5)

    @given(st.lists(small_fraction, min_size=0, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_construction_always_yields_group_law(self, tail):
        g = TruncatedSeries.from_coeffs([0, 1] + tail, order=6)
        psi = group_law_from_G(g, 6)
        assert verify_group_axioms(psi).all_pass


class TestAbelCoefficients:
    def test_beta1(self):
        assert abel_group_coefficients(1, 0, 1).betas == (F(1),)
        assert abel_group_coefficients(F(2, 3), F(1, 5), 1).betas[0] == F(2, 3) + F(1, 5)

    def test_beta2_product_formula(self):
        # m = 2: prod over (i, j) in {(0,1), (1,0)} gives b * a.
        got = abel_group_coefficients(1, 1, 2).betas[1]
        assert got == F(-1, 2)

    @pytest.mark.parametrize("a,b", [(F(1), F(1)), (F(2), F(1)), (F(1, 2), F(-1, 3)), (F(3), F(0))])
    def test_betas_match_expanded_group_law(self, a, b):
        # The bracket coefficient of x y^m in G(G^{-1}(x) + G^{-1}(y)) for the
        # two-parameter exponential equals the closed-form beta_m, m <= 5.
        order = 6
        psi = group_law_from_G(abel_exp_series(a, b, order), order)
        betas = abel_group_coefficients(a, b, 5).betas
        for m in range(1, 6):
            assert psi[(1, m)] == betas[m - 1], f"mismatch at m={m}"
            assert psi[(m, 1)] == betas[m - 1]

    def test_law_has_only_bracket_monomials(self):
        # Every monomial of the expanded law is linear in one of the variables.
        psi = group_law_from_G(abel_exp_series(F(2), F(1, 2), 6), 6)
        for (i, j), c in psi.coeffs.items():
            assert min(i, j) <= 1 and c != 0


class TestSeriesBasics:
    def test_min_order_truncation(self):
        a = series(0, 1, 2, 3)
        b = series(1, 1)
        assert (a + b).order == 1
        assert (a * b).order == 1

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            TruncatedSeries.from_coeffs([0, 1.5])

    def test_derivative(self):
        assert series(5, 1, 3, 2).derivative() == series(1, 6, 6)

    def test_derivative_of_a_constant_is_zero(self):
        assert series(5).derivative() == series(0)

    def test_scaled_by_a_rational(self):
        assert series(0, 1, F(1, 4)).scaled(F(2, 3)) == series(0, F(2, 3), F(1, 6))
        psi = BivariateTruncatedSeries({(1, 0): F(1), (1, 1): F(1, 2)}, 2)
        assert psi.scaled(F(-2, 3)).coeffs == {(1, 0): F(-2, 3), (1, 1): F(-1, 3)}


# ---------------------------------------------------------------------------
# Reference oracles: the algorithms gek.series used before its integer kernel,
# in plain Fraction arithmetic.  Series are coefficient lists, bivariate and
# trivariate polynomials dicts from exponent tuples to Fractions.


def ref_mul(a, b, n):
    out = [F(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def ref_compose(f, g):
    """Horner over the outer coefficients, every product truncated."""
    n = min(len(f), len(g)) - 1
    acc = [f[n]] + [F(0)] * n
    for k in range(n - 1, -1, -1):
        acc = ref_mul(acc, g, n)
        acc[0] += f[k]
    return acc


def ref_reversion(f):
    """Coefficient by coefficient: g_m = -[s^m] f(g with g_m = 0)."""
    n = len(f) - 1
    g = [F(0)] * (n + 1)
    g[1] = F(1)
    for m in range(2, n + 1):
        g[m] = -ref_compose(f[: m + 1], g[: m + 1])[m]
    return g


def ref_polymul(p, q, n):
    """Each term of p meets only the terms of q whose total degree fits beside it, in q's order."""
    fitting = {}  # room -> q's terms of total degree <= room
    out = {}
    for k1, v1 in p.items():
        room = n - sum(k1)
        if room not in fitting:
            fitting[room] = [(k2, v2) for k2, v2 in q.items() if sum(k2) <= room]
        for k2, v2 in fitting[room]:
            key = tuple(a + b for a, b in zip(k1, k2))
            out[key] = out.get(key, F(0)) + v1 * v2
    return {k: v for k, v in out.items() if v != 0}


def ref_group_law(g, order):
    """G(u + v) with u, v = G^-1(x), G^-1(y), by powers of u + v."""
    ginv = ref_reversion(g[: order + 1])
    w = {**{(k, 0): c for k, c in enumerate(ginv) if c}, **{(0, k): c for k, c in enumerate(ginv) if c}}
    out, power = {}, {(0, 0): F(1)}
    for k in range(order + 1):
        if k:
            power = ref_polymul(power, w, order)
        for key, c in power.items():
            out[key] = out.get(key, F(0)) + g[k] * c
    return {k: v for k, v in out.items() if v != 0}


def ref_tri_substitute(psi, first, second, order):
    """psi(first, second) with trivariate truncated arithmetic."""
    max_i = max((i for (i, _) in psi), default=0)
    max_j = max((j for (_, j) in psi), default=0)
    pow_first = [{(0, 0, 0): F(1)}]
    for _ in range(max_i):
        pow_first.append(ref_polymul(pow_first[-1], first, order))
    pow_second = [{(0, 0, 0): F(1)}]
    for _ in range(max_j):
        pow_second.append(ref_polymul(pow_second[-1], second, order))
    out = {}
    for (i, j), c in sorted(psi.items()):
        for key, v in ref_polymul(pow_first[i], pow_second[j], order).items():
            out[key] = out.get(key, F(0)) + c * v
    return {k: v for k, v in out.items() if v != 0}


def ref_axioms(psi: BivariateTruncatedSeries) -> GroupAxiomReport:
    failures = {}
    identity_ok = True
    for axis in (0, 1):
        for k in range(psi.order + 1):
            key = (k, 0) if axis == 0 else (0, k)
            expected = F(1) if k == 1 else F(0)
            if psi[key] != expected:
                identity_ok = False
                failures.setdefault("identity", (key, psi[key], expected))
                break
        if not identity_ok:
            break
    commutative_ok = True
    for (i, j) in sorted({(max(i, j), min(i, j)) for (i, j) in psi.coeffs}):
        if psi[(i, j)] != psi[(j, i)]:
            commutative_ok = False
            failures["commutativity"] = ((i, j), psi[(i, j)], psi[(j, i)])
            break
    n, law = psi.order, dict(psi.coeffs)
    left = ref_tri_substitute(law, {(i, j, 0): c for (i, j), c in law.items()}, {(0, 0, 1): F(1)}, n)
    right = ref_tri_substitute(law, {(1, 0, 0): F(1)}, {(0, i, j): c for (i, j), c in law.items()}, n)
    associative_ok = True
    for key in sorted(set(left) | set(right)):
        lv, rv = left.get(key, F(0)), right.get(key, F(0))
        if lv != rv:
            associative_ok = False
            failures["associativity"] = (key, lv, rv)
            break
    return GroupAxiomReport(identity_ok, commutative_ok, associative_ok, failures)


CARRIERS = {
    "tsallis+": lambda n: tsallis_exp_series(1 - F(5, 13), n),
    "tsallis-": lambda n: tsallis_exp_series(1 + F(5, 13), n),
    "kaniadakis+": lambda n: kaniadakis_exp_series(F(5, 13), n),
    "kaniadakis-": lambda n: kaniadakis_exp_series(F(-5, 13), n),
    "abel": lambda n: abel_exp_series(F(5, 13), F(-7, 11), n),
    "abel-a=b": lambda n: abel_exp_series(F(5, 13), F(5, 13), n),
}


@st.composite
def normalized_series(draw, max_order=14):
    order = draw(st.integers(0, max_order))
    tail = draw(st.lists(rational, min_size=max(order - 1, 0), max_size=max(order - 1, 0)))
    return TruncatedSeries.from_coeffs([0, 1] + tail, order=order)


@st.composite
def bivariate(draw, max_order=6):
    order = draw(st.integers(1, max_order))
    keys = [(i, j) for i in range(order + 1) for j in range(order + 1 - i)]
    coeffs = draw(st.dictionaries(st.sampled_from(keys), small_fraction, max_size=8))
    if draw(st.booleans()):  # start from x + y so that later axioms get checked too
        coeffs.update({(1, 0): F(1), (0, 1): F(1), (0, 0): F(0)})
    return BivariateTruncatedSeries(coeffs, order)


class TestKernelParity:
    """The integer kernel equals the Fraction algorithms it replaced, coefficient for coefficient."""

    @given(st.lists(rational, min_size=1, max_size=15), st.lists(rational, min_size=1, max_size=15))
    @settings(max_examples=80, deadline=None)
    def test_mul(self, a, b):
        got = TruncatedSeries.from_coeffs(a) * TruncatedSeries.from_coeffs(b)
        assert list(got.coeffs) == ref_mul(a + [F(0)] * 15, b + [F(0)] * 15, min(len(a), len(b)) - 1)

    @given(st.lists(rational, min_size=1, max_size=15), st.lists(rational, min_size=0, max_size=14))
    @settings(max_examples=80, deadline=None)
    def test_compose(self, f, g_tail):
        g = [F(0)] + g_tail
        got = compose(TruncatedSeries.from_coeffs(f), TruncatedSeries.from_coeffs(g))
        assert list(got.coeffs) == ref_compose(f, g)

    def test_compose_on_seeded_pairs(self):
        # compose divides content out of its accumulator; the plain Fraction Horner keeps every term reduced
        rng = random.Random(20)

        def rational():
            return F(rng.randint(-40, 40), rng.randint(1, 30))

        for _ in range(300):
            n = rng.randint(1, 20)
            f, g = [rational() for _ in range(n + 1)], [F(0)] + [rational() for _ in range(n)]
            got = compose(TruncatedSeries.from_coeffs(f), TruncatedSeries.from_coeffs(g))
            assert list(got.coeffs) == ref_compose(f, g), (f, g)

    @given(normalized_series())
    @settings(max_examples=120, deadline=None)
    def test_reversion(self, f):
        if f.order == 0:
            with pytest.raises(NormalizationError):
                reversion(f)
            return
        assert list(reversion(f).coeffs) == ref_reversion(list(f.coeffs))

    @pytest.mark.parametrize("order", [1, 2, 5, 13, 22])
    @pytest.mark.parametrize("carrier", sorted(CARRIERS))
    def test_reversion_of_carriers(self, carrier, order):
        g = CARRIERS[carrier](order)
        assert list(reversion(g).coeffs) == ref_reversion(list(g.coeffs))

    @pytest.mark.parametrize("order", [1, 2, 6, 9, 12])
    @pytest.mark.parametrize("carrier", sorted(CARRIERS))
    def test_group_law_of_carriers(self, carrier, order):
        g = CARRIERS[carrier](order + 2)
        psi = group_law_from_G(g, order)
        assert psi.order == order
        assert psi.coeffs == ref_group_law(list(g.coeffs), order)
        assert sorted(psi.coeffs) == list(psi.coeffs)

    @given(normalized_series(max_order=8))
    @settings(max_examples=40, deadline=None)
    def test_group_law(self, g):
        if g.order == 0:
            with pytest.raises(NormalizationError):
                group_law_from_G(g, 0)
            return
        assert group_law_from_G(g, g.order).coeffs == ref_group_law(list(g.coeffs), g.order)

    @pytest.mark.parametrize("perturb", [None, (3, 0), (2, 1), (2, 2), (0, 0)])
    @pytest.mark.parametrize("carrier", sorted(CARRIERS))
    def test_axioms_of_carrier_laws(self, carrier, perturb):
        coeffs = dict(group_law_from_G(CARRIERS[carrier](9), 9).coeffs)
        if perturb:
            coeffs[perturb] = coeffs.get(perturb, F(0)) + F(2, 7)
        psi = BivariateTruncatedSeries(coeffs, 9)
        assert verify_group_axioms(psi) == ref_axioms(psi)

    @given(bivariate())
    @settings(max_examples=80, deadline=None)
    def test_axioms(self, psi):
        assert verify_group_axioms(psi) == ref_axioms(psi)

    @given(bivariate(), bivariate())
    @settings(max_examples=60, deadline=None)
    def test_bivariate_mul(self, p, q):
        got = p * q
        assert got.order == min(p.order, q.order)
        assert got.coeffs == ref_polymul(dict(p.coeffs), dict(q.coeffs), got.order)
        assert list(got.coeffs) == list(ref_polymul(dict(p.coeffs), dict(q.coeffs), got.order))


trivariate_associativity = series_module._trivariate_associativity


@pytest.fixture
def trivariate_calls(monkeypatch):
    """The laws that ``verify_group_axioms`` hands to the trivariate helper, in call order."""
    calls = []
    monkeypatch.setattr(series_module, "_trivariate_associativity", lambda psi: calls.append(psi) or
                        trivariate_associativity(psi))
    return calls


def seeded_b_law(rng, order):
    b = [F(1)] + [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(order - 1)]
    return group_law_from_G(series_from_b_sequence(b, order), order)


ABEL_O10 = group_law_from_G(CARRIERS["abel"](10), 10)


class TestDifferentialAssociativity:
    """``verify_group_axioms`` decides associativity by the invariant differential; both trivariate
    compositions, through the helper and through ``ref_axioms``, must give the same report, and the
    helper runs only where the identity or associativity fails."""

    def check(self, psi, calls):
        calls.clear()
        got = verify_group_axioms(psi)
        assert len(calls) == (not (got.identity and got.associativity)), psi
        witness = trivariate_associativity(psi)
        failures = {key: v for key, v in got.first_failure.items() if key != "associativity"}
        if witness:
            failures["associativity"] = witness
        trivariate = GroupAxiomReport(got.identity, got.commutativity, witness is None, failures)
        assert repr(got) == repr(trivariate) == repr(ref_axioms(psi)), psi

    @pytest.mark.parametrize("order", [1, 2, 3, 6, 9, 12])
    @pytest.mark.parametrize("carrier", sorted(CARRIERS))
    def test_registry_laws(self, carrier, order, trivariate_calls):
        self.check(group_law_from_G(CARRIERS[carrier](order), order), trivariate_calls)

    @pytest.mark.parametrize("order", range(1, 21))
    def test_seeded_b_sequence_laws(self, order, trivariate_calls):
        self.check(seeded_b_law(random.Random(order), order), trivariate_calls)

    @pytest.mark.parametrize("commutative", [True, False], ids=["commutative", "non-commutative"])
    def test_every_single_coefficient_perturbation(self, commutative, trivariate_calls):
        # add 2/7 at x^i y^j, and for a commutative perturbation at x^j y^i too
        for i, j in ABEL_O10.monomials():
            if commutative and i > j or not commutative and i == j:
                continue
            coeffs = dict(ABEL_O10.coeffs)
            for key in {(i, j), (j, i)} if commutative else {(i, j)}:
                coeffs[key] = coeffs.get(key, F(0)) + F(2, 7)
            self.check(BivariateTruncatedSeries(coeffs, 10), trivariate_calls)

    @pytest.mark.parametrize(
        "coeffs, order",
        [({}, 0), ({(0, 0): F(1)}, 0), ({(0, 0): F(-2, 3)}, 0),
         ({}, 1), ({(1, 0): 1, (0, 1): 1}, 1), ({(1, 0): 2, (0, 1): 1}, 1), ({(1, 0): 1}, 1),
         ({(0, 0): F(1, 3), (1, 0): 1, (0, 1): 1}, 1), ({(1, 0): 1, (0, 1): F(-1, 2)}, 1)],
    )
    def test_orders_zero_and_one(self, coeffs, order, trivariate_calls):
        self.check(BivariateTruncatedSeries(coeffs, order), trivariate_calls)


class TestAssociativeLawsTakeNoProducts:
    """On an associative law with the identity, ``verify_group_axioms`` decides associativity by the
    linear identity alone: it calls neither the bivariate product nor the trivariate helper."""

    @pytest.fixture
    def products(self, monkeypatch, trivariate_calls):
        """The bivariate products and trivariate checks that ``verify_group_axioms`` runs, in call order."""
        bimul = series_module._bimul
        monkeypatch.setattr(series_module, "_bimul", lambda a, b, n: trivariate_calls.append(n) or bimul(a, b, n))
        return trivariate_calls

    def check(self, psi, calls):
        calls.clear()
        got = verify_group_axioms(psi)
        assert got.identity and got.associativity, psi
        assert calls == [], psi

    @pytest.mark.parametrize("order", [*range(1, 21), 40])
    @pytest.mark.parametrize("carrier", sorted(CARRIERS))
    def test_registry_laws(self, carrier, order, products):
        self.check(group_law_from_G(CARRIERS[carrier](order), order), products)

    @pytest.mark.parametrize("order", range(1, 21))
    def test_seeded_b_sequence_laws(self, order, products):
        self.check(seeded_b_law(random.Random(order), order), products)


def ref_reversion_power_loop(f):
    """Lagrange inversion with every power h^m of h = s/f(s) formed in full, n - 1 products in all."""
    n = f.order
    p, d = series_module._ints(f.coeffs[1:])
    h, den = [1], 1
    for k in range(1, n):
        x = -sum(p[i] * h[k - i] for i in range(1, k + 1))
        content = math.gcd(d, x)
        scale = d // content
        if scale != 1:
            h = [v * scale for v in h]
            den *= scale
        h.append(x // content)
    g = [F(0), F(1)]
    power, pden = h, den  # h^m over pden, truncated at degree n - 1
    for m in range(2, n + 1):
        power, pden = series_module._content(series_module._mul(power, h, n - 1), pden * den)
        g.append(F(power[m - 1], m * pden))
    return g


def seeded_series(rng, order, size, top, terms=None):
    """s plus seeded rationals p/q, |p| <= size, 1 <= q <= top, at ``terms`` random degrees (every degree if None)."""
    degrees = range(2, order + 1)
    if terms is not None:
        degrees = rng.sample(degrees, min(terms, len(degrees)))
    coeffs = [F(0)] * (order + 1)
    coeffs[1] = F(1)
    for k in degrees:
        coeffs[k] = F(rng.randint(-size, size), rng.randint(1, top))
    return TruncatedSeries(coeffs)


def over_polynomial(h, order):
    """s/h(s) for a polynomial h with h(0) = 1, so that h = s/f(s) keeps h's zero coefficients."""
    inv = [F(1)]
    for k in range(1, order):
        inv.append(-sum(h[i] * inv[k - i] for i in range(1, min(k, len(h) - 1) + 1)))
    return TruncatedSeries([F(0)] + inv)


# k^2 - 1, k^2 and k^2 + 1 for k = isqrt(order): where the baby/giant split changes shape
BLOCK_EDGES = sorted({k * k + e for k in range(2, 7) for e in (-1, 0, 1)})


class TestBabyGiantReversion:
    """``reversion`` reads each g_m off a baby power h^r and a giant power h^(qk); the full power loop is the reference."""

    @pytest.mark.parametrize("order", range(1, 41))
    def test_matches_power_loop_at_every_order(self, order):
        rng = random.Random(order)
        for f in (seeded_series(rng, order, 40, 30), seeded_series(rng, order, 40, 30, terms=2)):
            assert list(reversion(f).coeffs) == ref_reversion_power_loop(f), f

    @pytest.mark.parametrize("order", BLOCK_EDGES)
    def test_large_denominators(self, order):
        rng = random.Random(1000 + order)
        for f in (seeded_series(rng, order, 10**18, 10**18, terms=3), seeded_series(rng, min(order, 10), 10**9, 10**9)):
            assert list(reversion(f).coeffs) == ref_reversion_power_loop(f), f

    @pytest.mark.parametrize("order", BLOCK_EDGES + [40])
    @pytest.mark.parametrize(
        "h", [[1, 0, 0, F(-2, 3)], [1, 0, F(5, 13), 0, 0, 0, F(-7, 11)], [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, F(1, 9)]],
        ids=["s3", "s2-s6", "s10"],
    )
    def test_h_with_zero_coefficients(self, h, order):
        f = over_polynomial([F(c) for c in h], order)
        got = list(reversion(f).coeffs)
        assert got == ref_reversion_power_loop(f)
        if order <= 17:  # the term-by-term oracle is slow past that
            assert got == ref_reversion(list(f.coeffs))

    @pytest.mark.parametrize("order", BLOCK_EDGES)
    @pytest.mark.parametrize("carrier", sorted(CARRIERS))
    def test_carriers_at_block_edges(self, carrier, order):
        g = CARRIERS[carrier](order)
        assert list(reversion(g).coeffs) == ref_reversion_power_loop(g)

    @pytest.mark.parametrize("order", range(1, 41))
    def test_about_two_sqrt_n_products(self, order, monkeypatch):
        calls = []
        mul = series_module._mul
        monkeypatch.setattr(series_module, "_mul", lambda a, b, n: calls.append(n) or mul(a, b, n))
        g = CARRIERS["abel"](order)
        reversion(g)
        assert len(calls) <= 2 * math.isqrt(order)

    @pytest.mark.parametrize("order", range(1, 41))
    def test_about_two_sqrt_n_products_on_b_sequences(self, order, monkeypatch):
        # a registry carrier takes the closed form and no product, so the bound is held on a G outside it
        calls = []
        mul = series_module._mul
        monkeypatch.setattr(series_module, "_mul", lambda a, b, n: calls.append(n) or mul(a, b, n))
        reversion(seeded_b_series(random.Random(4000 + order), order))
        assert len(calls) <= 2 * math.isqrt(order)


def ref_group_law_by_powers(g, order):
    """The power-sum construction the row recurrence replaced: every power of G^-1, then a dense double sum."""
    gs, dg = series_module._ints(g.coeffs[: order + 1])
    powers = series_module._powers(series_module._ints(ref_reversion_power_loop(g.truncated(order))), order, order)
    # Phi_ab = sum_j P_j[a] T_j[b] over dg L^2, with P_j = powers[j] / D_j, L = lcm(D) and
    # T_j[b] = sum_k C(k, j) G_k (L/D_j) (L/D_(k-j)) P_(k-j)[b]
    lcm_powers = math.lcm(*(den for _, den in powers))
    out = {}
    for j in range(order + 1):
        t = [0] * (order + 1 - j)
        scale = lcm_powers // powers[j][1]
        for k in range(j, order + 1):
            if gs[k]:
                pk, dk = powers[k - j]
                c = gs[k] * math.comb(k, j) * scale * (lcm_powers // dk)
                for b in range(k - j, order + 1 - j):
                    t[b] += c * pk[b]
        pj = powers[j][0]
        for a in range(j, order + 1):
            pa = pj[a]
            if pa:
                for b, tb in enumerate(t[: order + 1 - a]):
                    if tb:
                        out[(a, b)] = out.get((a, b), 0) + pa * tb
    den = dg * lcm_powers * lcm_powers
    return BivariateTruncatedSeries({key: F(out[key], den) for key in sorted(out)}, order)


def seeded_b_series(rng, order):
    """A dense G from seeded b-sequence coefficients p/q, |p| <= 6, 1 <= q <= 6."""
    return series_from_b_sequence([F(1)] + [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(order - 1)], order)


LAW_CARRIERS = {"id": identity_series, **CARRIERS}


def two_exponential_series(s, p, order):
    """G'' = s G' - p G, G_{a,b} with a, b the roots of z^2 - s z + p: c_1 = 1, c_2 = s/2 and
    (k + 2)(k + 1) c_(k+2) = s (k + 1) c_(k+1) - p c_k."""
    c = [F(0), F(1), F(s) / 2]
    for k in range(1, order - 1):
        c.append((s * (k + 1) * c[k + 1] - p * c[k]) / ((k + 2) * (k + 1)))
    return TruncatedSeries(c[: order + 1])


def seeded_roots(seed):
    """(s, p) = (a + b, ab) for seeded rational roots a, b."""
    rng = random.Random(seed)
    a, b = (F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2))
    return a + b, a * b


# (s, p): complex roots, complex roots with s = 0, a repeated root, p = 0 (b = 0), s = 0 (b = -a), seeded rational roots
TWO_EXPONENTIALS = {
    "complex": (F(1), F(1)),
    "complex-s=0": (F(0), F(1)),
    "repeated": (F(2), F(1)),
    "p=0": (F(3, 7), F(0)),
    "s=0": (F(0), F(-4, 9)),
    **{f"seeded-{seed}": seeded_roots(seed) for seed in range(4)},
}


@pytest.fixture
def spy(monkeypatch):
    """The calls to ``reversion``, ``_powers`` and ``_bimul``, each with whether it ran inside ``reversion``."""
    calls, depth = [], []
    powers, bimul, inverse = series_module._powers, series_module._bimul, series_module.reversion

    def reversion_spy(f):
        calls.append(("reversion", bool(depth)))
        depth.append(f)
        try:
            return inverse(f)
        finally:
            depth.pop()

    monkeypatch.setattr(series_module, "reversion", reversion_spy)
    monkeypatch.setattr(series_module, "_powers", lambda *a: calls.append(("_powers", bool(depth))) or powers(*a))
    monkeypatch.setattr(series_module, "_bimul", lambda *a: calls.append(("_bimul", bool(depth))) or bimul(*a))
    return calls


class TestRowRecurrenceLaw:
    """``group_law_from_G`` builds a two-exponential G's law in closed form and any other G's row by row from the
    invariant differential; the sum over the powers of G^-1 is the reference for both, coefficient for coefficient
    and key for key."""

    def check(self, g, order):
        assert list(group_law_from_G(g, order).coeffs.items()) == list(ref_group_law_by_powers(g, order).coeffs.items())

    @pytest.mark.parametrize("order", range(1, 41))
    @pytest.mark.parametrize("carrier", sorted(LAW_CARRIERS))
    def test_registry_carriers_at_every_order(self, carrier, order):
        self.check(LAW_CARRIERS[carrier](order), order)

    @pytest.mark.parametrize("order", range(1, 41))
    def test_seeded_b_sequences_at_every_order(self, order):
        rng = random.Random(3000 + order)
        for _ in range(2):
            self.check(seeded_b_series(rng, order), order)

    @pytest.mark.parametrize("build", [CARRIERS["abel"], lambda n: seeded_b_series(random.Random(3064), n)],
                             ids=["abel", "b-sequence"])
    def test_order_64(self, build):
        self.check(build(64), 64)

    @pytest.mark.parametrize("order", range(1, 41))
    @pytest.mark.parametrize("roots", sorted(TWO_EXPONENTIALS))
    def test_two_exponentials_take_the_closed_form(self, roots, order, spy):
        g = two_exponential_series(*TWO_EXPONENTIALS[roots], order)
        law = group_law_from_G(g, order)
        assert spy == []
        assert list(law.coeffs.items()) == list(ref_group_law_by_powers(g, order).coeffs.items())

    @pytest.mark.parametrize("order", range(4, 25))
    def test_near_miss_abel_carriers_take_the_row_recurrence(self, order, spy):
        # the recurrence first constrains c_4, so moving any c_k with k >= 4 leaves the closed form's family
        for k in range(4, order + 1):
            coeffs = list(CARRIERS["abel"](order).coeffs)
            coeffs[k] += F(1, 997)
            g = TruncatedSeries(coeffs)
            spy.clear()
            law = group_law_from_G(g, order)
            assert spy[:1] == [("reversion", False)] and ("_bimul", False) not in spy, k
            assert list(law.coeffs.items()) == list(ref_group_law_by_powers(g, order).coeffs.items()), k

    @pytest.mark.parametrize("order", range(2, 41))
    @pytest.mark.parametrize("a, b", [(F(5, 13), F(-7, 11)), (F(5, 13), F(5, 13)), (F(0), F(0)), (F(3, 4), F(0))],
                             ids=str)
    def test_abel_coefficients_are_the_laws_brackets(self, a, b, order):
        law = ref_group_law_by_powers(abel_exp_series(a, b, order), order)
        betas = abel_group_coefficients(a, b, order - 1).betas
        assert [law[(1, m)] for m in range(1, order)] == list(betas)
        assert [law[(m, 1)] for m in range(2, order)] == list(betas[1:])

    @pytest.mark.parametrize("build, calls", [
        (CARRIERS["abel"], []),
        (lambda n: seeded_b_series(random.Random(3012), n),
         [("reversion", False), ("_powers", True), ("_powers", True)]),
    ], ids=["abel", "b-sequence"])
    def test_no_powers_of_the_inverse_and_no_bivariate_products(self, build, calls, spy):
        group_law_from_G(build(12), 12)
        assert spy == calls


@pytest.fixture
def kernel_calls(monkeypatch):
    """The names of the ``_powers`` and ``_mul`` calls made, in call order."""
    calls = []
    powers, mul = series_module._powers, series_module._mul
    monkeypatch.setattr(series_module, "_powers", lambda *a: calls.append("_powers") or powers(*a))
    monkeypatch.setattr(series_module, "_mul", lambda *a: calls.append("_mul") or mul(*a))
    return calls


REVERSION_CARRIERS = {
    **CARRIERS,
    **{f"two-exponential-{name}": lambda n, roots=roots: two_exponential_series(*roots, n)
       for name, roots in TWO_EXPONENTIALS.items()},
}


class TestClosedFormReversion:
    """``reversion`` of a two-exponential G integrates l' = 1/D, with D the Abel law's bracket series; the Lagrange
    power loop and the term-by-term oracle are the references, coefficient for coefficient."""

    @pytest.mark.parametrize("order", range(1, 41))
    @pytest.mark.parametrize("carrier", sorted(REVERSION_CARRIERS))
    def test_matches_power_loop_with_no_powers_or_products(self, carrier, order, kernel_calls):
        g = REVERSION_CARRIERS[carrier](order)
        got = list(reversion(g).coeffs)
        assert kernel_calls == []
        assert got == ref_reversion_power_loop(g)
        if order <= 17:  # the term-by-term oracle is slow past that
            assert got == ref_reversion(list(g.coeffs))

    def test_abel_at_order_64(self, kernel_calls):
        g = CARRIERS["abel"](64)
        got = list(reversion(g).coeffs)
        assert kernel_calls == []
        assert got == ref_reversion_power_loop(g)

    @pytest.mark.parametrize("order", range(4, 25))
    def test_near_miss_abel_carriers_take_lagrange_inversion(self, order, kernel_calls):
        # as in test_near_miss_abel_carriers_take_the_row_recurrence: one c_k, k >= 4, moved by 1/997
        for k in range(4, order + 1):
            coeffs = list(CARRIERS["abel"](order).coeffs)
            coeffs[k] += F(1, 997)
            g = TruncatedSeries(coeffs)
            kernel_calls.clear()
            got = list(reversion(g).coeffs)
            assert "_powers" in kernel_calls, k
            assert got == ref_reversion_power_loop(g), k


def ref_tsallis_exp_series(q, order):
    """(e^((1-q) t) - 1)/(1-q) by its closed-form coefficients r^(n-1)/n!, with its own q = 1 branch."""
    if q == 1:
        return [F(int(n == 1)) for n in range(order + 1)]
    return [F(0)] + [(1 - q) ** (n - 1) / math.factorial(n) for n in range(1, order + 1)]


def ref_kaniadakis_exp_series(k, order):
    """sinh(k t)/k by its closed-form coefficients k^(n-1)/n! at odd n, with its own k = 0 branch."""
    if k == 0:
        return ref_tsallis_exp_series(1, order)
    return [F(0)] + [k ** (n - 1) / math.factorial(n) if n % 2 else F(0) for n in range(1, order + 1)]


def ref_abel_exp_series(a, b, order):
    """(e^(a t) - e^(b t))/(a - b) by its coefficients sum_{i+j=n-1} a^i b^j / n!, each sum taken afresh."""
    coeffs = [sum(a**i * b ** (n - 1 - i) for i in range(n)) / math.factorial(n) for n in range(1, order + 1)]
    return [F(0)] + coeffs


class TestCarriersAreTwoExponentials:
    """Every registry carrier is G_{a,b} through one recurrence, equal to the closed forms it replaced."""

    ORDERS = range(41)

    @pytest.mark.parametrize("q", [F(1), 1 - F(5, 13), 1 + F(5, 13), F(2)], ids=str)
    def test_tsallis(self, q):
        for n in self.ORDERS:
            assert list(tsallis_exp_series(q, n).coeffs) == ref_tsallis_exp_series(q, n)

    @pytest.mark.parametrize("k", [F(0), F(5, 13), F(-5, 13)], ids=str)
    def test_kaniadakis(self, k):
        for n in self.ORDERS:
            assert list(kaniadakis_exp_series(k, n).coeffs) == ref_kaniadakis_exp_series(k, n)

    @pytest.mark.parametrize(
        "a, b",
        [(F(0), F(0)), (F(5, 13), F(5, 13)), (F(-2, 3), F(-2, 3)),
         (F(5, 13), F(-7, 11)), (F(2), F(1)), (F(0), F(3, 4))],
        ids=str,
    )
    def test_abel(self, a, b):
        for n in self.ORDERS:
            assert list(abel_exp_series(a, b, n).coeffs) == ref_abel_exp_series(a, b, n)

    def test_degenerate_points_are_the_identity(self):
        for n in self.ORDERS:
            identity = identity_series(n)
            assert tsallis_exp_series(1, n) == kaniadakis_exp_series(0, n) == abel_exp_series(0, 0, n) == identity


class TestExactLawMatchesFloatChi:
    """The float composition law chi agrees with the exact order-20 law at small arguments.

    The parameters are exactly representable, so the float G and the exact
    carrier are the same function; abel's chi runs through the numeric G^-1.
    The bound is absolute because the law nearly cancels at x = -y.
    """

    PARAMS = {"id": (), "tsallis": (F(1, 2),), "kaniadakis": (F(3, 8),), "abel": (F(1, 4), F(-1, 8))}
    POINTS = (F(1, 64), F(1, 32), F(-1, 64))

    @pytest.mark.parametrize("name", sorted(PARAMS))
    def test_exact_law_matches_chi(self, name):
        from gek.grouplog import group_family

        family, params = group_family(name), self.PARAMS[name]
        law = group_law_from_G(family.carrier(*params, 20), 20).coeffs
        g = family.build(*(float(v) for v in params))
        for x in self.POINTS:
            for y in self.POINTS:
                exact = float(sum(c * x**i * y**j for (i, j), c in law.items()))
                assert abs(exact - g.chi(float(x), float(y))) <= 2e-15, (x, y)


class TestErrorPaths:
    @pytest.mark.parametrize("coeffs", [{}, {(1, 0): 1, (0, 1): 1}])
    def test_negative_bivariate_order_is_rejected(self, coeffs):
        # an empty law at order -1 would otherwise pass all three axioms
        with pytest.raises(ValueError, match="order must be nonnegative"):
            BivariateTruncatedSeries(coeffs, -1)

    @pytest.mark.parametrize("coeffs", [[1, 1, 2], [0, 2, 1], [0, 0, 1], [0], [F(1, 2), 1]])
    def test_unnormalized_series_are_rejected(self, coeffs):
        f = TruncatedSeries.from_coeffs(coeffs)
        with pytest.raises(NormalizationError):
            reversion(f)
        with pytest.raises(NormalizationError):
            group_law_from_G(f, f.order)

    @pytest.mark.parametrize("order", [0, -1])
    def test_group_law_needs_order_at_least_one(self, order):
        # a normalized G was reported as unnormalized, because truncating it at order 0 drops c_1
        with pytest.raises(ValueError, match="order must be at least 1"):
            group_law_from_G(abel_exp_series(F(5, 13), F(-7, 11), 4), order)
        with pytest.raises(NormalizationError):  # the normalization check still comes first
            group_law_from_G(series(0, 2, 1), order)

    def test_inner_series_needs_zero_constant(self):
        with pytest.raises(CompositionDomainError):
            compose(series(0, 1, 2), series(F(1, 3), 1, 0))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: TruncatedSeries((F(0), 1.0)),
            lambda: TruncatedSeries.from_coeffs([0, 1, 0.5]),
            lambda: series(0, 1).scaled(0.5),
            lambda: BivariateTruncatedSeries({(1, 0): 1.0}, 2),
            lambda: BivariateTruncatedSeries({(1, 0): 1}, 2).scaled(2.0),
            lambda: tsallis_exp_series(0.5, 4),
            lambda: abel_exp_series(1, 0.5, 4),
            lambda: kaniadakis_exp_series(0.5, 4),
        ],
    )
    def test_floats_are_rejected(self, build):
        with pytest.raises(TypeError):
            build()


class TestOrderErrors:
    def test_from_coeffs_needs_a_nonnegative_order(self):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            TruncatedSeries.from_coeffs([0, 1], order=-1)

    def test_b_sequence_needs_order_at_least_one(self):
        with pytest.raises(ValueError, match="order must be at least 1"):
            series_from_b_sequence([1], 0)

    def test_abel_coefficients_need_at_least_one(self):
        with pytest.raises(ValueError, match="need at least one coefficient"):
            abel_group_coefficients(1, 2, 0)
