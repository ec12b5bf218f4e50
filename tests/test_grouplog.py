"""Round trips, functional equations and limits of the group log/exp layer."""

import decimal
import itertools
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from gek import reference
from gek.entropy import EntropySpec
from gek.errors import ConvergenceError, DomainError, ParameterError, RangeError
from gek.grouplog import (
    _LISTED,
    _REGISTRY,
    AbelGroup,
    GroupFunction,
    GroupLogarithm,
    IdentityGroup,
    KaniadakisGroup,
    MultiplicativeGroup,
    SeriesGroup,
    _chi_scaled_block,
    _inverse_list,
    _roots,
    check_concavity_condition,
    chi,
    eval_G_inverse,
    eval_exp_G,
    eval_ln_G,
    group_function,
)
from gek.series import TruncatedSeries, abel_exp_series, tsallis_exp_series

RNG = np.random.default_rng(20260810)

CLOSED_FORM_VARIANTS = [
    IdentityGroup(),
    MultiplicativeGroup(q=0.5),
    MultiplicativeGroup(q=1.7),
    KaniadakisGroup(k=0.4),
    KaniadakisGroup(k=-0.85),
    AbelGroup(a=0.7, b=-0.3),
    AbelGroup(a=2.0, b=1.0),
    AbelGroup(a=1.2, b=0.0),
]

# Parameters for which the induced logarithm is concave on (0, inf).  The
# two-parameter exponential needs one exponent in (0, 1] and the other <= 0;
# outside that region concavity genuinely fails and is only reported.
CONCAVE_VARIANTS = [
    IdentityGroup(),
    MultiplicativeGroup(q=0.5),
    MultiplicativeGroup(q=1.7),
    KaniadakisGroup(k=0.4),
    KaniadakisGroup(k=-0.85),
    AbelGroup(a=0.7, b=-0.3),
]


def logarithm(g):
    return GroupLogarithm(g)


class TestNormalization:
    @pytest.mark.parametrize("g", CLOSED_FORM_VARIANTS, ids=lambda g: g.describe())
    def test_vanishes_at_zero_with_unit_slope(self, g):
        assert abs(g.eval(0.0)) <= 1e-14
        assert abs(g.deriv(0.0) - 1.0) <= 1e-12

    @pytest.mark.parametrize("g", CLOSED_FORM_VARIANTS, ids=lambda g: g.describe())
    def test_sampled_monotonicity(self, g):
        lo = max(g.domain_min, -20.0)
        ts = np.linspace(lo + 1e-6, 20.0, 400)
        vals = [g.eval(t) for t in ts]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_ln_of_one_is_zero(self):
        for g in CLOSED_FORM_VARIANTS:
            assert eval_ln_G(logarithm(g), 1.0) == pytest.approx(0.0, abs=1e-14)


class TestClosedForms:
    def test_identity_is_log(self):
        lg = logarithm(IdentityGroup())
        for x in (0.1, 1.0, 7.3, 1e5):
            assert eval_ln_G(lg, x) == math.log(x)
            assert eval_exp_G(lg, math.log(x)) == pytest.approx(x, rel=1e-14)

    @pytest.mark.parametrize("q", [0.2, 0.5, 1.8, 3.0])
    def test_deformed_log_formula(self, q):
        lg = logarithm(MultiplicativeGroup(q))
        for x in (0.3, 1.0, 2.5, 40.0):
            expected = (x ** (1 - q) - 1) / (1 - q)
            assert eval_ln_G(lg, x) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("k", [0.15, 0.5, -0.7])
    def test_kaniadakis_log_formula(self, k):
        lg = logarithm(KaniadakisGroup(k))
        for x in (0.2, 1.7, 12.0):
            expected = (x**k - x**-k) / (2 * k)
            assert eval_ln_G(lg, x) == pytest.approx(expected, rel=1e-13)

    def test_abel_log_is_two_power_quotient(self):
        a, b = 0.6, -0.4
        lg = logarithm(AbelGroup(a, b))
        for x in (0.5, 3.0):
            expected = (x**a - x**b) / (a - b)
            assert eval_ln_G(lg, x) == pytest.approx(expected, rel=1e-13)

    def test_exp_closed_forms(self):
        lg = logarithm(MultiplicativeGroup(q=0.5))
        for x in (-1.5, 0.0, 2.0):
            expected = (1 + 0.5 * x) ** 2.0
            assert eval_exp_G(lg, x) == pytest.approx(expected, rel=1e-12)
        assert eval_exp_G(logarithm(IdentityGroup()), 3.0) == pytest.approx(math.exp(3.0))

    def test_exp_of_zero_is_one(self):
        for g in CLOSED_FORM_VARIANTS:
            assert eval_exp_G(logarithm(g), 0.0) == pytest.approx(1.0, abs=1e-13)


class TestInverse:
    def test_identity(self):
        assert eval_G_inverse(IdentityGroup(), 0.37) == 0.37

    @pytest.mark.parametrize("g", CLOSED_FORM_VARIANTS, ids=lambda g: g.describe())
    def test_round_trip(self, g):
        lo = max(g.domain_min, -8.0)
        for t in np.linspace(lo + 0.05, 8.0, 37):
            s = g.eval(t)
            assert abs(g.eval(g.inverse(s)) - s) <= 1e-12 * max(1.0, abs(s))

    def test_abel_round_trip_at_point(self):
        g = AbelGroup(2.0, 1.0)
        assert g.inverse(g.eval(0.3)) == pytest.approx(0.3, abs=1e-12)

    def test_multiplicative_range_error(self):
        g = MultiplicativeGroup(q=0.5)  # range (-2, inf)
        with pytest.raises(RangeError):
            g.inverse(-2.0)
        with pytest.raises(RangeError):
            g.inverse(-5.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "g",
        [group_function("id"), group_function("tsallis", q=0.5), group_function("tsallis", q=1.7),
         group_function("kaniadakis", k=0.4), group_function("abel", a=0.7, b=-0.3),
         group_function("abel", a=2.0, b=1.0)],
        ids=lambda g: g.describe(),
    )
    def test_non_finite_value_is_a_range_error_for_every_g(self, g, value):
        # one G^-1 contract: the closed forms used to return nan or +-inf here, and exp_G passed it on
        with pytest.raises(RangeError, match="non-finite"):
            g.inverse(value)
        with pytest.raises(RangeError, match="non-finite"):
            eval_G_inverse(g, value)
        with pytest.raises(RangeError, match="non-finite"):
            eval_exp_G(logarithm(g), value)

    def test_abel_positive_pair_has_domain_floor(self):
        g = AbelGroup(2.0, 1.0)
        assert math.isfinite(g.domain_min)
        with pytest.raises(DomainError):
            g.eval(g.domain_min - 0.5)
        with pytest.raises(RangeError):
            g.inverse(g.range_min - 1e-3)


class TestGroupLaw:
    def test_additive(self):
        assert chi(IdentityGroup(), 2.0, 3.0) == 5.0

    def test_multiplicative_point(self):
        assert chi(MultiplicativeGroup(q=0.5), 1.0, 1.0) == pytest.approx(2.5)

    @pytest.mark.parametrize(
        "g",
        [MultiplicativeGroup(q=0.3), KaniadakisGroup(k=0.5), KaniadakisGroup(k=-0.6)],
        ids=lambda g: g.describe(),
    )
    def test_closed_form_matches_numeric(self, g):
        numeric = GroupFunctionNumericView(g)
        for _ in range(300):
            x, y = RNG.uniform(-1.5, 4.0, size=2)
            try:
                expected = numeric.chi(x, y)
            except RangeError:
                continue
            assert g.chi(x, y) == pytest.approx(expected, abs=1e-10, rel=1e-10)

    def test_functional_equation_on_products(self):
        for g in CLOSED_FORM_VARIANTS:
            lg = logarithm(g)
            xs = RNG.uniform(1e-6, 1e6, size=1000)
            ys = RNG.uniform(1e-6, 1e6, size=1000)
            for x, y in zip(xs, ys):
                try:
                    lhs = eval_ln_G(lg, x * y)
                except DomainError:
                    continue
                rhs = chi(g, eval_ln_G(lg, x), eval_ln_G(lg, y))
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_exp_inverts_ln(self):
        for g in CLOSED_FORM_VARIANTS:
            lg = logarithm(g)
            for x in np.exp(RNG.uniform(math.log(1e-6), math.log(1e6), size=1000)):
                try:
                    v = eval_ln_G(lg, x)
                except DomainError:
                    continue
                assert eval_exp_G(lg, v) == pytest.approx(x, rel=1e-10)


class GroupFunctionNumericView:
    """Force the generic numeric chi path of a closed-form variant."""

    def __init__(self, g):
        self.g = g

    def chi(self, x, y):
        return self.g.eval(self.g.inverse(x) + self.g.inverse(y))


class TestLimitsAndReductions:
    def test_multiplicative_approaches_log_near_one(self):
        for q in (1 - 1e-6, 1 + 1e-6):
            lg = logarithm(MultiplicativeGroup(q))
            for x in (0.05, 0.9, 3.0, 800.0):
                assert eval_ln_G(lg, x) == pytest.approx(math.log(x), abs=1e-4)

    @pytest.mark.parametrize("q", [1 + 1e-12, 1 - 1e-12, 1 + 9e-10, 1 - 9e-10])
    def test_one_g_near_one(self, q):
        # no q -> 1 cutoff: eval, inverse and chi describe the same G, which is not the identity
        g = MultiplicativeGroup(q)
        assert g.eval(2.0) != 2.0 and g.eval(2.0) == pytest.approx(2.0 + 2.0 * g.r, rel=1e-14)
        assert g.inverse(g.eval(2.0)) == pytest.approx(2.0, rel=1e-14)
        for x, y in itertools.product((-3.0, -0.7, 1e-8, 0.3, 2.0, 40.0), repeat=2):
            assert g.chi(x, y) == pytest.approx(g.eval(g.inverse(x) + g.inverse(y)), rel=1e-14, abs=0)

    def test_abel_with_opposite_parameters_is_kaniadakis(self):
        k = 0.45
        ab = AbelGroup(a=k, b=-k)
        ka = KaniadakisGroup(k)
        for t in np.linspace(-6, 6, 101):
            assert ab.eval(t) == pytest.approx(ka.eval(t), abs=1e-12, rel=1e-12)


class TestConcavity:
    @pytest.mark.parametrize("g", CONCAVE_VARIANTS, ids=lambda g: g.describe())
    def test_sampled_second_differences(self, g):
        lg = logarithm(g)
        xs = np.linspace(0.01, 100.0, 200)
        h = 1e-4
        for x in xs:
            try:
                d2 = eval_ln_G(lg, x + h) - 2 * eval_ln_G(lg, x) + eval_ln_G(lg, x - h)
            except DomainError:
                continue
            assert d2 <= 1e-9

    def test_coefficient_condition(self):
        assert check_concavity_condition([1, 0.25, 0.05])
        assert not check_concavity_condition([1, 1])
        assert check_concavity_condition([1])
        assert not check_concavity_condition([1, -0.1])
        with pytest.raises(ValueError):
            check_concavity_condition([])

    @pytest.mark.parametrize("seq", [[math.nan], [math.inf], [math.inf, 1.0], [1.0, math.nan]],
                             ids=["nan", "inf", "inf-then-1", "1-then-nan"])
    def test_coefficient_condition_certifies_no_non_finite_coefficient(self, seq):
        # [nan], [inf] and [inf, 1] used to guarantee a concave ln_G
        assert check_concavity_condition(seq) is False


class TestSeriesDefined:
    def test_matches_closed_form_inside_horizon(self):
        g = SeriesGroup(tsallis_exp_series(Fraction(1, 2), 25), horizon=2.0)
        ref = MultiplicativeGroup(q=0.5)
        for t in np.linspace(-2, 2, 41):
            assert g.eval(t) == pytest.approx(ref.eval(t), abs=1e-12)
        s = ref.eval(1.3)
        assert g.inverse(s) == pytest.approx(1.3, abs=1e-10)

    def test_horizon_enforced(self):
        g = SeriesGroup(TruncatedSeries.from_coeffs([0, 1, "1/4"]), horizon=1.0)
        with pytest.raises(DomainError):
            g.eval(1.5)
        with pytest.raises(RangeError):
            g.inverse(50.0)

    def test_requires_normalized_series(self):
        with pytest.raises(ParameterError):
            SeriesGroup(TruncatedSeries.from_coeffs([0, 2]))

    def test_describe_names_order_and_horizon(self):
        g = SeriesGroup(TruncatedSeries.from_coeffs([0, 1, "1/4"]), horizon=1.5)
        assert g.describe() == "series(order=2, horizon=1.5)"

    def test_inverse_of_zero_is_exactly_zero(self):
        g = SeriesGroup(abel_exp_series(Fraction(3, 10), Fraction(-1, 5), 10), horizon=1.0)
        assert math.copysign(1.0, g.inverse(0.0)) == 1.0 and g.inverse(0.0) == 0.0


class TestEquality:
    def test_equal_type_and_parameters_make_equal_functions(self):
        assert MultiplicativeGroup(0.5) == group_function("tsallis", q=0.5)
        assert hash(AbelGroup(2.0, 1.0)) == hash(AbelGroup(2, 1))
        assert IdentityGroup() == IdentityGroup()
        assert len({KaniadakisGroup(0.3), KaniadakisGroup(0.3), KaniadakisGroup(-0.3)}) == 2

    def test_another_type_or_parameter_differs(self):
        assert MultiplicativeGroup(0.5) != MultiplicativeGroup(0.6)
        assert AbelGroup(2.0, 1.0) != AbelGroup(1.0, 2.0)
        # abel at a = -b is kaniadakis as a function, but another G in the registry
        assert AbelGroup(0.3, -0.3) != KaniadakisGroup(0.3)
        assert IdentityGroup() != MultiplicativeGroup(0.5)
        assert IdentityGroup() != "identity"

    def test_series_groups_compare_by_their_coefficients(self):
        quarter = SeriesGroup(TruncatedSeries.from_coeffs([0, 1, "1/4"]), horizon=1.0)
        assert quarter == SeriesGroup(TruncatedSeries.from_coeffs([0, 1, "1/4"]), horizon=1.0)
        # same order and horizon, so the same params(), but another G
        assert quarter != SeriesGroup(TruncatedSeries.from_coeffs([0, 1, "1/3"]), horizon=1.0)
        assert quarter != SeriesGroup(TruncatedSeries.from_coeffs([0, 1, "1/4"]), horizon=0.5)


class TestFactoryAndValidation:
    def test_factory_names(self):
        assert isinstance(group_function("id"), IdentityGroup)
        assert group_function("tsallis", q=0.5).q == 0.5
        assert group_function("kaniadakis", k=0.3).k == 0.3
        ab = group_function("abel", a=1.0, b=-1.0)
        assert (ab.a, ab.b) == (1.0, -1.0)

    def test_factory_rejects_bad_input(self):
        with pytest.raises(ParameterError):
            group_function("nope")
        with pytest.raises(ParameterError):
            group_function("tsallis", k=0.5)
        with pytest.raises(ParameterError):
            group_function("tsallis", q=1.0)
        with pytest.raises(ParameterError):
            group_function("kaniadakis", k=1.5)
        with pytest.raises(ParameterError):
            group_function("abel", a=1.0, b=1.0)
        with pytest.raises(ParameterError):
            group_function("abel", a=-1.0, b=-2.0)

    def test_ln_rejects_nonpositive(self):
        lg = GroupLogarithm(IdentityGroup())
        with pytest.raises(DomainError):
            eval_ln_G(lg, 0.0)
        with pytest.raises(DomainError):
            eval_ln_G(lg, -1.0)

    def test_gamma_scales_the_logarithm(self):
        lg = GroupLogarithm(IdentityGroup(), gamma=3.0)
        assert eval_ln_G(lg, 2.0) == pytest.approx(3.0 * math.log(2.0))
        assert eval_exp_G(lg, eval_ln_G(lg, 2.0)) == pytest.approx(2.0, rel=1e-12)
        with pytest.raises(ParameterError):
            GroupLogarithm(IdentityGroup(), gamma=0.0)


# the Abel G of the block-law grid: both signs of b, b = 0, exponents far below and far above 1
BLOCK_ABEL = [(0.3, -0.2), (2.0, 1.0), (0.6, 0.2), (1.2, -0.7), (0.5, 0.0), (1e-3, -2e-3), (5.0, -3.0)]
BLOCK_C = [0.7, 0.5, 0.3, -0.5, -1.5]
PARITY_ABEL = [(0.3, -0.2), (0.6, -0.3), (2.0, 1.0), (0.5, 0.0), (3.0, -2.0)]
# four (a, b, s) near G's overflow, where a ladder of brackets doubling from 0 met an overflowing G; started from 1
# (rate 0), the (800, b) iterations meet one, read G = inf there and bisect back
OVERFLOW_CASES = [((2.0, 1.0), 1e300), ((800.0, 0.0), 5.0), ((0.5, 0.0), 1e300), ((800.0, -3.0), 1e200)]
EPS = Decimal(sys.float_info.epsilon)


def _band_ratio(ab, s, t):
    """|t - t*| G'(t*) over G's own rounding band at the 40-digit root t*: 4 eps (e^(at*) + e^(bt*))/|a - b|, the
    rounding of the two exponentials, plus 2 ulp(t*) G'(t*), the rounding of t* itself."""
    a, b = ab
    root = reference.G_inverse(a, b, s)
    slope = reference.G_prime(a, b, root)
    with decimal.localcontext(reference._context()):
        a, b = Decimal(a), Decimal(b)
        band = 4 * EPS * ((a * root).exp() + (b * root).exp()) / abs(a - b) + 2 * Decimal(math.ulp(float(root))) * slope
        return abs(Decimal(t) - root) * slope / band


def _accuracy_grid(g, count=40):
    """Seeded s of both signs, |s| log-uniform on [1e-10, 1e8], and the values just above a finite range_min."""
    rng = np.random.default_rng(20261023)
    grid = (10.0 ** rng.uniform(-10.0, 8.0, count) * rng.choice([-1.0, 1.0], count)).tolist()
    if math.isfinite(g.range_min):
        grid += [g.range_min * (1.0 - 10.0 ** -k) for k in (1, 3, 6)]
    return [s for s in grid if s > g.range_min]


class TestAccuracy:
    """Every numeric G^-1 lies within G's own rounding band of the 40-digit root (``gek.reference``)."""

    @pytest.mark.parametrize("ab", list(dict.fromkeys(BLOCK_ABEL + PARITY_ABEL + [ab for ab, _ in OVERFLOW_CASES])),
                             ids=str)
    def test_abel_roots_lie_in_the_rounding_band(self, ab):
        # a root to brentq's absolute xtol of 1e-15 reached 31 and 41 times this band at (800, 0) and (800, -3)
        g = AbelGroup(*ab)
        grid = _accuracy_grid(g)
        assert any(s < 0 for s in grid) and any(s > 1e6 for s in grid) and any(0 < s < 1e-8 for s in grid)
        ratios = [_band_ratio(ab, s, t) for s, t in zip(grid, _inverse_list(g, grid))]
        assert max(ratios) <= 1, max(ratios)

    @pytest.mark.parametrize("ab, s", OVERFLOW_CASES, ids=str)
    def test_a_root_past_an_overflowing_g_lies_in_the_rounding_band(self, ab, s):
        g, seen = AbelGroup(*ab), []

        def jet(t):
            seen.append(t)
            return g._jet(t)

        (t,) = _roots(g.name, jet, 0.0, [s], g.domain_min, g.range_min)
        assert any(max(ab) * u > 709.8 for u in seen) == (max(ab) == 800.0)  # an iterate where e^(at) overflows
        assert _band_ratio(ab, s, t) <= 1
        assert _band_ratio(ab, s, g.inverse(s)) <= 1

    @pytest.mark.parametrize("ab, s", [((0.3, -0.2), -1e300), ((5.0, -3.0), -1e250)], ids=str)
    def test_a_large_negative_value_lies_in_the_rounding_band(self, ab, s):
        # an overflow of G below 0 reads as -inf, as it does above 0, so the iteration still brackets such an s
        assert _band_ratio(ab, s, AbelGroup(*ab).inverse(s)) <= 1

    def test_series_roots_lie_in_the_horner_band(self):
        series = abel_exp_series(Fraction(3, 10), Fraction(-1, 5), 10)
        g = SeriesGroup(series, horizon=1.0)
        grid = [0.37] + np.random.default_rng(20261024).uniform(g.eval(-1.0), g.eval(1.0), 30).tolist()
        slopes = [k * c for k, c in enumerate(series.coeffs)][1:]
        for s in grid:
            t = g.inverse(s)
            root = reference.series_root(series.coeffs, s, 1.0)
            slope = reference.series_value(slopes, root)
            with decimal.localcontext(reference._context()):
                # Horner over n + 1 coefficients rounds within 2 n eps sum |c_k t^k| (Higham, eq. 5.3)
                size = reference.series_value([abs(c) for c in series.coeffs], abs(root))
                band = 2 * series.order * EPS * size + 2 * Decimal(math.ulp(float(root))) * slope
                assert abs(Decimal(t) - root) * slope <= band, s


class TestOverflow:
    def test_abel_formula_overflow_is_a_range_error(self):
        with pytest.raises(RangeError):
            AbelGroup(800.0, 0.0).formula(1.0)

    @pytest.mark.parametrize("a, b", [(1e-300, 1e300), (1e300, 1e-300), (5e-324, 1.0)])
    def test_abel_domain_edge_when_the_parameter_ratio_underflows(self, a, b):
        # lo / hi underflows to 0, so the domain edge is log(lo) - log(hi) over hi - lo
        lo, hi = min(a, b), max(a, b)
        g = AbelGroup(a, b)
        assert g.domain_min == (math.log(lo) - math.log(hi)) / (hi - lo)
        assert math.isfinite(g.domain_min) and math.isfinite(g.range_min)

    @pytest.mark.parametrize("a, b", [(2.0, 1.0), (1e-150, 1e150), (0.3, 5e-324 * 2**60)])
    def test_abel_domain_edge_keeps_the_ratio_expression(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert lo / hi > 0
        assert AbelGroup(a, b).domain_min == math.log(lo / hi) / (hi - lo)


class _Tanh(GroupFunction):
    """G(t) = tanh(t): increasing with G(0) = 0 and G'(0) = 1, but bounded, so G^-1 of 2 or -2 has no bracket."""

    name = "tanh"

    def eval(self, t: float) -> float:
        return math.tanh(t)


class _FlooredTanh(_Tanh):
    domain_min = -1.0  # tanh stays above -0.77 on (-1, 0)


class _NanBandTanh(_Tanh):
    def eval(self, t: float) -> float:
        return math.nan if 0.4 < t < 0.6 else math.tanh(t)


class TestFailClosed:
    @pytest.mark.parametrize("horizon", [0, -1.0, math.nan, math.inf])
    def test_series_horizon_must_be_positive_and_finite(self, horizon):
        # a nan horizon was accepted, and then |t| > nan never refused a t
        with pytest.raises(ParameterError, match="horizon must be positive and finite"):
            SeriesGroup(TruncatedSeries.from_coeffs([0, 1, "1/4"]), horizon=horizon)

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    def test_multiplicative_q_must_be_finite(self, q):
        # q = nan made G nan everywhere, and q = inf gave G(0.1) = 0
        with pytest.raises(ParameterError, match="multiplicative family requires a finite q"):
            MultiplicativeGroup(q)

    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, -math.inf)],
                             ids=["a-nan", "a-inf", "b-nan", "b-minus-inf"])
    def test_abel_parameters_must_be_finite(self, a, b):
        # AbelGroup(1.0, nan) escaped as a bare ZeroDivisionError
        with pytest.raises(ParameterError, match="abel family requires finite a and b"):
            AbelGroup(a, b)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_gamma_must_be_finite(self, gamma):
        with pytest.raises(ParameterError, match="gamma must be nonzero"):
            GroupLogarithm(IdentityGroup(), gamma=gamma)

    def test_ln_g_refuses_nan(self):
        # ln_G(nan) returned nan
        with pytest.raises(DomainError, match="ln_G requires a positive argument"):
            eval_ln_G(GroupLogarithm(KaniadakisGroup(0.3)), math.nan)

    @pytest.mark.parametrize(
        "g, x",
        [(KaniadakisGroup(0.3), math.nan), (IdentityGroup(), math.nan), (MultiplicativeGroup(0.5), math.inf)],
        ids=["kaniadakis-nan", "identity-nan", "multiplicative-inf"],
    )
    def test_closed_form_chi_refuses_a_non_finite_argument(self, g, x):
        # returned nan, or inf, where the numeric chi and every inverse raise
        with pytest.raises(RangeError, match="cannot invert non-finite value"):
            chi(g, x, 1.0)
        with pytest.raises(RangeError, match="cannot invert non-finite value"):
            chi(g, 1.0, x)

    @pytest.mark.parametrize(
        "g",
        [
            IdentityGroup(),
            MultiplicativeGroup(0.5),
            KaniadakisGroup(0.3),
            AbelGroup(0.5, 0.2),
            SeriesGroup(TruncatedSeries.from_coeffs([0, 1, "1/4"]), horizon=1.0),
        ],
        ids=["identity", "multiplicative", "kaniadakis", "abel", "series"],
    )
    def test_eval_refuses_nan(self, g):
        # G(nan) was nan: nan slipped past `t <= domain_min` and `abs(t) > horizon`
        with pytest.raises(DomainError):
            g.eval(math.nan)

    def test_identity_eval_scaled_refuses_nan(self):
        with pytest.raises(DomainError):
            IdentityGroup().eval_scaled(0.5, math.nan)

    def test_the_root_finder_refuses_a_nan_inside_the_bracket(self):
        with pytest.raises(ConvergenceError, match="NaN value at"):
            _roots("nan", lambda t: (t if t in (-1.0, 1.0) else math.nan, 1.0, None), 0.0, [0.5], -1.0, -1.0, 1.0, 1.0)
        with pytest.raises(ConvergenceError, match="NaN value at 0.5"):
            _NanBandTanh().inverse(0.5)

    def test_upward_bracket_expansion_fails_closed(self):
        with pytest.raises(ConvergenceError, match="upward bracket expansion failed for 2.0"):
            _Tanh().inverse(2.0)

    def test_downward_bracket_expansion_fails_closed(self):
        with pytest.raises(ConvergenceError, match="downward bracket expansion failed for -2.0"):
            _Tanh().inverse(-2.0)

    def test_bracket_toward_the_domain_floor_fails_closed(self):
        with pytest.raises(ConvergenceError, match="bracket did not reach -0.9 near the domain floor"):
            _FlooredTanh().inverse(-0.9)

    def test_a_bracketed_value_is_still_inverted(self):
        assert _Tanh().inverse(0.5) == pytest.approx(math.atanh(0.5), rel=1e-14)
        assert _FlooredTanh().inverse(-0.5) == pytest.approx(math.atanh(-0.5), rel=1e-14)


def _scalar_outcomes(g, c, xs, ys):
    """Each pair's scalar ``chi_scaled`` as its repr, or the type and message of the error it raises."""
    out = []
    for x, y in zip(xs, ys):
        try:
            out.append(repr(g.chi_scaled(c, x, y)))
        except Exception as e:
            out.append((type(e), str(e)))
    return out


def _assert_block_hands_back(g, c, x, y, expected):
    """A pair whose scalar law raises: the list law returns no value, and the block law raises the scalar error."""
    assert _chi_scaled_block(g, c, [x], [y]) is None, (x, y)
    with pytest.raises(expected[0]) as got:
        g.chi_scaled_block(c, [x], [y])
    assert str(got.value) == expected[1]


class _AbelNanBand(AbelGroup):
    """An Abel G that is NaN on (1.2, 1.4): a root search there meets a NaN."""

    def eval(self, t: float) -> float:
        return math.nan if 1.2 < t < 1.4 else super().eval(t)


class TestListLaw:
    """The list law, one ``_inverse_list`` call for a whole list, equals the scalar ``chi_scaled`` of each pair by
    ``repr``, sign of zero included.

    Wherever the scalar law raises, the list law returns no value and hands back, so that the scalar law raises.
    """

    @pytest.mark.parametrize("c", BLOCK_C)
    @pytest.mark.parametrize("ab", BLOCK_ABEL, ids=str)
    def test_list_law_is_the_scalar_law(self, ab, c):
        g = AbelGroup(*ab)
        rng = np.random.default_rng(20261020)
        scales = np.repeat(10.0 ** np.arange(-6, 3), 30)  # exponential arguments at scales 1e-6 to 100
        xs = (scales * rng.standard_exponential(scales.size) * rng.choice([-1.0, 1.0], scales.size)).tolist()
        ys = (rng.permutation(scales) * rng.standard_exponential(scales.size)).tolist()
        outcomes = _scalar_outcomes(g, c, xs, ys)
        kept = [i for i, o in enumerate(outcomes) if isinstance(o, str)]
        assert len(kept) > scales.size // 2
        law = _chi_scaled_block(g, c, [xs[i] for i in kept], [ys[i] for i in kept])
        assert law is not None
        assert [repr(v) for v in law] == [outcomes[i] for i in kept]
        assert g.chi_scaled_block(c, [xs[i] for i in kept], [ys[i] for i in kept]) == law
        raised = [i for i, o in enumerate(outcomes) if not isinstance(o, str)]
        for i in raised:
            _assert_block_hands_back(g, c, xs[i], ys[i], outcomes[i])
        if raised:  # a list with a pair the scalar law refuses raises that pair's error, the first one's
            with pytest.raises(outcomes[raised[0]][0]) as got:
                g.chi_scaled_block(c, xs, ys)
            assert str(got.value) == outcomes[raised[0]][1]

    @pytest.mark.parametrize("c", BLOCK_C)
    @pytest.mark.parametrize("ab", BLOCK_ABEL, ids=str)
    def test_edge_inputs(self, ab, c):
        g = AbelGroup(*ab)
        edges = [0.0, -0.0, 5e-324, -5e-324, 1.0, math.nan, math.inf, -math.inf]
        if math.isfinite(g.range_min):  # c x at, just below and just above the range infimum
            floor = g.range_min
            edges += [floor / c, math.nextafter(floor, -math.inf) / c, math.nextafter(floor, math.inf) / c]
        for x, y in itertools.product(edges, [0.0, -0.0, 1.0, 5e-324]):
            (expected,) = _scalar_outcomes(g, c, [x], [y])
            if isinstance(expected, str):
                law = _chi_scaled_block(g, c, [x], [y])
                assert law is not None and repr(law[0]) == expected, (x, y)
            else:
                _assert_block_hands_back(g, c, x, y, expected)

    @pytest.mark.parametrize("ab", BLOCK_ABEL, ids=str)
    def test_the_list_inverse_is_the_scalar_inverse(self, ab):
        g = AbelGroup(*ab)
        ss = _accuracy_grid(g) + [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.0]
        ss = [s for s in ss if s > g.range_min]
        assert [repr(t) for t in _inverse_list(g, ss)] == [repr(g.inverse(s)) for s in ss]
        for s in [math.nan, math.inf, -math.inf, g.range_min, math.nextafter(g.range_min, -math.inf)]:
            if s == -math.inf and not math.isfinite(g.range_min):
                continue
            with pytest.raises(RangeError) as scalar:
                g.inverse(s)
            with pytest.raises(RangeError) as listed:
                _inverse_list(g, [0.5, s])
            assert str(listed.value) == str(scalar.value)

    @pytest.mark.parametrize("c", BLOCK_C)
    def test_a_g_that_overflows_at_1_is_solved_in_the_list(self, c):
        # G(1) = (e^800 - 1)/800 overflows a float: the list law still solves every pair, as the scalar law does
        g = AbelGroup(800.0, 0.0)
        xs, ys = [1e-3, 0.5, 2.0, 1.5343108444758409], [1e-4, 0.25, 1.0, 0.0]
        outcomes = _scalar_outcomes(g, c, xs, ys)
        assert (c > 0) == all(isinstance(o, str) for o in outcomes)  # c x < 0 is below abel (800, 0)'s range
        for x, y, expected in zip(xs, ys, outcomes):
            if isinstance(expected, str):
                assert repr(_chi_scaled_block(g, c, [x], [y])[0]) == expected
            else:
                _assert_block_hands_back(g, c, x, y, expected)

    def test_a_nan_inside_the_bracket_hands_back(self):
        # G is NaN on (1.2, 1.4): a root search that evaluates G there raises
        g = _AbelNanBand(0.3, -0.2)
        xs = np.linspace(0.05, 3.0, 60).tolist()
        outcomes = _scalar_outcomes(g, 0.5, xs, xs[::-1])
        assert any(isinstance(o, str) for o in outcomes) and not all(isinstance(o, str) for o in outcomes)
        for x, y, expected in zip(xs, xs[::-1], outcomes):
            if isinstance(expected, str):
                assert repr(_chi_scaled_block(g, 0.5, [x], [y])[0]) == expected
            else:
                assert expected[0] is ConvergenceError
                _assert_block_hands_back(g, 0.5, x, y, expected)

    def test_only_the_numeric_law_takes_the_list(self, monkeypatch):
        import gek.grouplog as grouplog

        calls = []
        monkeypatch.setattr(grouplog, "_chi_scaled_block", lambda *args: calls.append(args) or None)
        for g in CLOSED_FORM_VARIANTS[:5] + [SeriesGroup(abel_exp_series(Fraction(3, 10), Fraction(-1, 5), 10))]:
            assert g.chi_scaled_block(0.5, [0.1, 0.2], [0.3, 0.05]) == [g.chi_scaled(0.5, 0.1, 0.3),
                                                                        g.chi_scaled(0.5, 0.2, 0.05)]
        assert calls == []
        g = AbelGroup(0.3, -0.2)
        assert g.chi_scaled_block(0.5, [0.1], [0.3]) == [g.chi_scaled(0.5, 0.1, 0.3)]
        assert len(calls) == 1


def _eval_outcomes(g, ts):
    """Each t's scalar ``eval`` as its repr, or the type and message of the error it raises."""
    out = []
    for t in ts:
        try:
            out.append(repr(g.eval(t)))
        except Exception as e:
            out.append((type(e), str(e)))
    return out


# each registry G of the list-form grid: both signs of q - 1 and of k, and the Abel G of the block law
LIST_GROUPS = [IdentityGroup(), MultiplicativeGroup(0.5), MultiplicativeGroup(1.7), MultiplicativeGroup(-2.0),
               KaniadakisGroup(0.4), KaniadakisGroup(-0.85)] + [AbelGroup(*ab) for ab in BLOCK_ABEL + [(800.0, 0.0)]]


def _list_grid(g):
    """A seeded grid of t, the signed zeros and subnormals, NaN and the infinities, each side of a finite floor
    of the domain and of each point past which a term of G overflows a float."""
    rng = np.random.default_rng(20261021)
    ts = (10.0 ** rng.uniform(-6, 2.5, 400) * rng.choice([-1.0, 1.0], 400)).tolist()
    ts += [0.0, -0.0, 5e-324, -5e-324, 1.0, math.nan, math.inf, -math.inf]
    if math.isfinite(g.domain_min):
        ts += [g.domain_min, math.nextafter(g.domain_min, -math.inf), math.nextafter(g.domain_min, math.inf)]
    rates = {IdentityGroup: (), MultiplicativeGroup: ("r",), KaniadakisGroup: ("k",), AbelGroup: ("a", "b")}
    for rate in (getattr(g, name) for name in rates[type(g)]):
        for top in (709.782712893384, 710.4758600739439):  # the largest argument of exp, of sinh
            if rate:
                t = top / rate
                ts += [t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf), -t]
    return ts


def _owner(g, name):
    """The class in ``type(g)``'s MRO that defines ``name``."""
    return next(k for k in type(g).__mro__ if name in vars(k))


class TestEvalBlock:
    """A registry G's list evaluation is the scalar map ``[g.eval(t) for t in ts]``: its values by repr, its first
    error; ``list_form`` with a divisor c, and on the logs of a list, is the scalar ``g.eval(t) / c``, or None."""

    @pytest.mark.parametrize("g", LIST_GROUPS, ids=lambda g: g.describe())
    def test_eval_block_is_the_scalar_map(self, g, monkeypatch):
        ts = _list_grid(g)
        outcomes = _eval_outcomes(g, ts)
        kept = [t for t, o in zip(ts, outcomes) if isinstance(o, str)]
        raised = [(t, o) for t, o in zip(ts, outcomes) if not isinstance(o, str)]
        assert kept and raised
        if not isinstance(g, IdentityGroup):  # the grid reaches G's overflow
            assert any("overflows" in message for _, (_, message) in raised)
        values = [o for o in outcomes if isinstance(o, str)]
        assert [repr(v) for v in g.eval_block(kept)] == values
        assert g.eval_block([]) == []
        with pytest.raises(raised[0][1][0]) as got:
            g.eval_block(ts)
        assert str(got.value) == raised[0][1][1]
        for t, (kind, message) in raised:  # a refused t anywhere in an admissible list raises its scalar error
            for at in (0, len(kept) // 2, len(kept)):
                with pytest.raises(kind) as got:
                    g.eval_block(kept[:at] + [t] + kept[at:])
                assert str(got.value) == message
        # an admissible list takes no scalar call: the gate compares the patched methods with themselves
        for name in ("eval", "_check_domain", "formula"):
            if hasattr(g, name):
                monkeypatch.setattr(_owner(g, name), name, lambda self, t: pytest.fail("scalar call"))
        assert [repr(v) for v in g.eval_block(kept)] == values

    @pytest.mark.parametrize("g", LIST_GROUPS, ids=lambda g: g.describe())
    def test_list_form_divides_and_takes_logs_in_the_scalar_order(self, g):
        ts = _list_grid(g)
        outcomes = _eval_outcomes(g, ts)
        kept = [t for t, o in zip(ts, outcomes) if isinstance(o, str)]
        refused = [t for t, o in zip(ts, outcomes) if not isinstance(o, str)]
        sums = np.exp(np.random.default_rng(22).uniform(-3.0, 3.0, 200)).tolist() + [1.0, 5e-324, 1e300, math.inf]
        sums = [s for s in sums if isinstance(_eval_outcomes(g, [math.log(s)])[0], str)]
        for c in BLOCK_C + [1.0]:
            assert [repr(v) for v in g.list_form(kept, c)] == [repr(g.eval(t) / c) for t in kept]
            assert [repr(v) for v in g.list_form(sums, c, True)] == [repr(g.eval(math.log(s)) / c) for s in sums]
            assert g.list_form([], c) == [] and g.list_form([], c, True) == []
            for t in refused:  # a refused t hands back, wherever it stands
                assert g.list_form(kept + [t], c) is None and g.list_form([t] + kept, c) is None
            for s in (0.0, -0.0, -1.0, -math.inf, math.nan):  # ln refuses the first four, G the log of nan
                assert g.list_form(sums + [s], c, True) is None
        if isinstance(g, AbelGroup):  # zab's floor, -inf: formula's value also off the domain, NaN handed back
            off = [t for t in refused if t == t and t > -math.inf and "overflows" not in str(_eval_outcomes(g, [t]))]
            assert [repr(v) for v in g.list_form(kept + off, 0.5, floor=-math.inf)] == [
                repr(g.formula(t) / 0.5) for t in kept + off]
            assert g.list_form([math.nan], 0.5, floor=-math.inf) is None

    @pytest.mark.parametrize(
        "g, override",
        [(g, override) for g in LIST_GROUPS[::2] for override in ("eval", "_check_domain", "formula")
         if override != "formula" or isinstance(g, AbelGroup)],
        ids=lambda v: v if isinstance(v, str) else v.describe(),
    )
    def test_a_subclass_override_runs_the_scalar_map(self, g, override):
        base = _owner(g, override)
        if override == "_check_domain":
            def check(self, t):  # refuses t > 0.6 as well
                base._check_domain(self, t)
                if t > 0.6:
                    raise DomainError(f"refused {t!r}")

            body = {"_check_domain": check}
        else:
            body = {override: lambda self, t: getattr(base, override)(self, t) + 1.0}
        shifted = object.__new__(type(f"Shifted{type(g).__name__}", (type(g),), body))
        shifted.__dict__.update(vars(g))
        ts = [0.5, 0.25, 1.0, 0.125]
        if override == "_check_domain":
            with pytest.raises(DomainError, match="refused 1.0"):
                shifted.eval_block(ts)
            ts.remove(1.0)
        assert [repr(v) for v in shifted.eval_block(ts)] == [repr(shifted.eval(t)) for t in ts]
        assert (override == "_check_domain") == (shifted.eval_block(ts) == g.eval_block(ts))
        assert shifted.list_form(ts, 0.5) is None and shifted.list_form(ts, 0.5, True) is None


def _outcome(call, xs):
    """The reprs of ``call(xs)``, or the type and message of the error it raises."""
    try:
        return [repr(v) for v in call(xs)]
    except Exception as e:
        return type(e), str(e)


class TestOneListForm:
    """Only an instance of a registry class itself runs the list form; any subclass runs the scalar map."""

    def test_the_listed_classes_are_the_registry_classes(self):
        assert _LISTED == frozenset(family.build for family in _REGISTRY)
        assert _LISTED == {IdentityGroup, MultiplicativeGroup, KaniadakisGroup, AbelGroup}

    @pytest.mark.parametrize(
        "g, override", [(g, override) for g in LIST_GROUPS for override in ("inverse", "chi_scaled")],
        ids=lambda v: v if isinstance(v, str) else v.describe(),
    )
    def test_a_subclass_that_keeps_eval_has_no_list_form(self, g, override):
        # the override changes nothing the list form reads, and still the subclass takes the scalar map
        base = _owner(g, override)
        body = {override: lambda self, *args: getattr(base, override)(self, *args)}
        sub = object.__new__(type(f"Sub{type(g).__name__}", (type(g),), body))
        sub.__dict__.update(vars(g))
        ts = _list_grid(g)
        kept = [t for t, o in zip(ts, _eval_outcomes(g, ts)) if isinstance(o, str)]
        sums = np.exp(np.random.default_rng(24).uniform(-3.0, 3.0, 100)).tolist() + [1.0]
        sums = [s for s in sums if isinstance(_eval_outcomes(g, [math.log(s)])[0], str)]
        assert g.list_form(kept, 0.5) is not None and g.list_form(sums, 0.5, True) is not None
        assert sub.list_form(kept, 0.5) is None and sub.list_form(sums, 0.5, True) is None
        assert _outcome(sub.eval_block, kept) == _outcome(g.eval_block, kept)
        assert _outcome(sub.eval_block, ts) == _outcome(g.eval_block, ts)
        for family in ("zg", "altz"):
            plain, spec = EntropySpec(family, {"alpha": 0.5}, g), EntropySpec(family, {"alpha": 0.5}, sub)
            for bad in ([], [0.3], [1e10], [math.nan], [0.0], [-1.0]):  # each sum a logarithm or G may refuse
                assert _outcome(spec.from_row_sums, sums + bad) == _outcome(plain.from_row_sums, sums + bad)
