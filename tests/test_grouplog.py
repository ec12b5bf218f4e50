"""Round trips, functional equations and limits of the group log/exp layer."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from gek.errors import ConvergenceError, DomainError, ParameterError, RangeError
from gek.grouplog import (
    _RTOL,
    _XTOL,
    AbelGroup,
    GroupFunction,
    GroupLogarithm,
    IdentityGroup,
    KaniadakisGroup,
    MultiplicativeGroup,
    SeriesGroup,
    _brent,
    check_concavity_condition,
    chi,
    eval_G_inverse,
    eval_exp_G,
    eval_ln_G,
    group_function,
)
from gek.series import TruncatedSeries, abel_exp_series, kaniadakis_exp_series, tsallis_exp_series

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


# Numeric G^-1 roots recorded from scipy.optimize.brentq (xtol 1e-15, rtol
# 8.9e-16) on the bracket GroupFunction._bracket gives; the in-repo Brent
# method must return these exact floats.
PINNED_ROOTS = [
    ((0.3, -0.2), 2.5, "0x1.123341a4f22a7p+1"),
    ((0.6, -0.3), -1.7, "-0x1.0198a927b8700p+1"),
    ((2.0, 1.0), 40.0, "0x1.ec64e555bf62fp+0"),
    ((0.5, 0.0), -1.9, "-0x1.7f7427b73e38fp+2"),
    ((3.0, -2.0), 1e-3, "0x1.060343d38394ep-10"),
    ((3.0, -2.0), 7e5, "0x1.4174dd4ef2c5fp+2"),
]
PARITY_ABEL = [(0.3, -0.2), (0.6, -0.3), (2.0, 1.0), (0.5, 0.0), (3.0, -2.0)]


def _parity_cases():
    """(f, lo, hi) root problems: abel G^-1 on its brackets, series G^-1 on [-h, h], scaled cubics."""
    rng = np.random.default_rng(20261018)
    for a, b in PARITY_ABEL:
        g = AbelGroup(a, b)
        for s in np.concatenate([rng.uniform(-5.0, 5.0, 60), 10 ** rng.uniform(-10, 8, 60)]):
            s = float(s)
            if s <= g.range_min or s == 0.0:
                continue
            lo, hi = g._bracket(s)
            yield (lambda t, g=g, s=s: g.eval(t) - s), lo, hi
    for series in (
        abel_exp_series(Fraction(3, 10), Fraction(-1, 5), 10),
        kaniadakis_exp_series(Fraction(2, 5), 10),
        tsallis_exp_series(Fraction(1, 2), 10),
    ):
        g = SeriesGroup(series, horizon=1.0)
        for s in rng.uniform(g.eval(-1.0), g.eval(1.0), 60):
            yield (lambda t, g=g, s=float(s): g.eval(t) - s), -1.0, 1.0
    # values so small that the extrapolation denominator underflows to 0
    for scale in (1e-200, 1e-120, 1.0, 1e150):
        yield (lambda t, scale=scale: scale * (t**3 - 0.1)), -1.0, 2.0


class TestBrent:
    @pytest.mark.parametrize("ab, s, root", PINNED_ROOTS, ids=lambda v: str(v))
    def test_pinned_brentq_roots(self, ab, s, root):
        assert AbelGroup(*ab).inverse(s) == float.fromhex(root)

    def test_pinned_series_root(self):
        g = SeriesGroup(abel_exp_series(Fraction(3, 10), Fraction(-1, 5), 10), horizon=1.0)
        assert g.inverse(0.37) == float.fromhex("0x1.738ef0d421f2fp-2")

    def test_bit_identical_to_brentq(self):
        brentq = pytest.importorskip("scipy.optimize").brentq
        count = 0
        for f, lo, hi in _parity_cases():
            assert _brent(f, lo, hi) == brentq(f, lo, hi, xtol=_XTOL, rtol=_RTOL), (lo, hi)
            count += 1
        assert count > 700

    def test_underflowed_extrapolation_bisects(self):
        assert _brent(lambda t: 1e-200 * (t**3 - 0.1), -1.0, 2.0) == float.fromhex("0x1.db4c7760bcfedp-2")

    def test_sign_equal_bracket_raises(self):
        with pytest.raises(ConvergenceError):
            _brent(lambda t: t * t + 1.0, -1.0, 1.0)
        with pytest.raises(ConvergenceError):
            _brent(lambda t: math.nan, -1.0, 1.0)

    def test_no_convergence_in_maxiter_steps_raises(self):
        # a step has no root for Brent to close in on; bisecting [0, 1e300] down to 1e-15 needs ~1000 steps
        with pytest.raises(ConvergenceError, match="no convergence in 100 iterations"):
            _brent(lambda t: -1.0 if t < 1.0 else 1.0, 0.0, 1e300)

    def test_exact_zero_at_an_end_is_the_root(self):
        assert _brent(lambda t: t - 1.0, 1.0, 3.0) == 1.0
        assert _brent(lambda t: t - 3.0, 1.0, 3.0) == 3.0


class TestOverflow:
    def test_abel_formula_overflow_is_a_range_error(self):
        with pytest.raises(RangeError):
            AbelGroup(800.0, 0.0).formula(1.0)

    @pytest.mark.parametrize(
        "ab, s, root",
        [
            ((2.0, 1.0), 1e300, "0x1.5963447f87fb5p+8"),
            ((800.0, 0.0), 5.0, "0x1.53bc08fa1f6f0p-7"),
            ((0.5, 0.0), 1e300, "0x1.590a8b738c127p+10"),
            ((800.0, -3.0), 1e200, "0x1.2b02eda93c013p-1"),
        ],
    )
    def test_bracket_shrinks_out_of_overflow_to_the_same_root(self, ab, s, root):
        # the upward bracket meets an overflowing G and shrinks back; roots pinned before the RangeError
        assert AbelGroup(*ab).inverse(s) == float.fromhex(root)

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

    def test_brent_refuses_a_nan_inside_the_bracket(self):
        with pytest.raises(ConvergenceError, match="NaN value at"):
            _brent(lambda t: t - 0.5 if t in (0.0, 1.0) else math.nan, 0.0, 1.0)

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
