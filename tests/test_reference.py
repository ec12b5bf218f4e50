"""The 40-digit reference: G_{a,b}, G', G^-1 and the root of a truncated series, in stdlib decimal."""

import decimal
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from gek import reference
from gek.grouplog import AbelGroup, KaniadakisGroup, MultiplicativeGroup
from gek.series import abel_exp_series

CLOSE = Decimal(10) ** -(reference.DIGITS - 5)


def _close(x, y):
    return abs(x - y) <= CLOSE * max(1, abs(y))


@pytest.mark.parametrize("a, b", [(0.3, -0.2), (2.0, 1.0), (0.5, 0.0), (800.0, -3.0), (1e-3, -2e-3)], ids=str)
def test_the_reference_g_is_the_float_g_to_its_rounding(a, b):
    g = AbelGroup(a, b)
    for t in (-0.5, -1e-3, 1e-6, 0.01, 0.7, 3.0):
        if t > g.domain_min and abs(a * t) < 700:  # within the float G's rounding, of its terms and of a t and b t
            band = (4 + abs(a * t) + abs(b * t)) * 2.0**-52 * (math.exp(a * t) + math.exp(b * t)) / abs(a - b)
            assert float(reference.G(a, b, t)) == pytest.approx(g.eval(t), rel=1e-15, abs=band)
            assert float(reference.G_prime(a, b, t)) == pytest.approx(g.deriv(t), rel=1e-12)


def test_the_registry_points_of_g_ab():
    # identity at a = b = 0, tsallis at b = 0, kaniadakis at a = -b, and the limit t e^(at) at a = b
    assert reference.G(0.0, 0.0, 0.75) == Decimal("0.75")
    assert float(reference.G(0.5, 0.0, 1.3)) == pytest.approx(MultiplicativeGroup(0.5).eval(1.3), rel=1e-15)
    assert float(reference.G(0.4, -0.4, 2.0)) == pytest.approx(KaniadakisGroup(0.4).eval(2.0), rel=1e-15)
    with decimal.localcontext(reference._context()):
        a, t = Decimal(0.7), Decimal(1.5)
        assert _close(reference.G(0.7, 0.7, 1.5), t * (a * t).exp())
        assert _close(reference.G_prime(0.7, 0.7, 1.5), (1 + a * t) * (a * t).exp())
        assert abs(reference.G(0.7, 0.7 + 1e-12, 1.5) - t * (a * t).exp()) < Decimal("1e-10")


@pytest.mark.parametrize(
    "a, b, t",
    [(a, b, t) for a, b in [(0.3, -0.2), (2.0, 1.0), (0.5, 0.0), (0.7, 0.7), (800.0, -3.0)]
     for t in [-0.25, -1e-9, 1e-9, 0.004, 0.9, 6.0] if t > (reference.domain_floor(a, b) or -math.inf)],
)
def test_the_reference_inverse_inverts_the_reference_g(a, b, t):
    s = reference.G(a, b, t)
    assert _close(reference.G_inverse(a, b, s), Decimal(t))


def test_the_reference_inverse_refuses_a_value_below_the_range():
    floor = reference.domain_floor(2.0, 1.0)
    assert float(floor) == pytest.approx(math.log(0.5))
    with pytest.raises(ValueError, match="at or below the infimum"):
        reference.G_inverse(2.0, 1.0, -0.25)
    with pytest.raises(ValueError, match="at or below the infimum"):
        reference.G_inverse(0.5, 0.0, -2.0)


def test_the_series_root_inverts_the_series():
    coeffs = abel_exp_series(Fraction(3, 10), Fraction(-1, 5), 10).coeffs
    for t in ("-0.9", "-0.01", "0.37", "0.99"):
        s = reference.series_value(coeffs, Decimal(t))
        assert _close(reference.series_root(coeffs, s, 1.0), Decimal(t))
    with pytest.raises(ValueError, match="outside the series' values"):
        reference.series_root(coeffs, 50.0, 1.0)
