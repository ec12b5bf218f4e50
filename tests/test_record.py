"""The immutable records of ``gek``: what ``@dataclass(frozen=True)`` gave them.

Each record keeps value equality within its class, the hash of its field tuple, the
``Name(field=value, ...)`` repr (the series pin stores ``GroupAxiomReport`` reprs), an
``AttributeError`` on assignment and deletion, its validation, and copy and pickle round trips.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from gek.entropy import Distribution
from gek.errors import ParameterError
from gek.grouplog import GroupFamily, GroupLogarithm, IdentityGroup, MultiplicativeGroup, group_family
from gek.properties import MajorizationPair
from gek.quantum import DickeSpec, LmgParams
from gek.record import Record
from gek.series import AbelCoefficients, BivariateTruncatedSeries, GroupAxiomReport, TruncatedSeries

TSALLIS_G = MultiplicativeGroup(0.5)

# (record, an equal record built afresh, a record of the same class that differs, its repr or None)
RECORDS = {
    "TruncatedSeries": (
        TruncatedSeries((F(0), F(1), F(1, 2))),
        TruncatedSeries([0, 1, "1/2"]),
        TruncatedSeries((F(0), F(1), F(1, 3))),
        "TruncatedSeries(coeffs=(Fraction(0, 1), Fraction(1, 1), Fraction(1, 2)))",
    ),
    "BivariateTruncatedSeries": (
        BivariateTruncatedSeries({(1, 0): F(1), (0, 1): 1, (1, 1): "1/3", (2, 0): 0}, 2),
        BivariateTruncatedSeries({(1, 0): 1, (0, 1): 1, (1, 1): F(1, 3)}, 2),
        BivariateTruncatedSeries({(1, 0): 1, (0, 1): 1, (1, 1): F(1, 3)}, 3),
        "BivariateTruncatedSeries(coeffs={(1, 0): Fraction(1, 1), (0, 1): Fraction(1, 1), (1, 1): Fraction(1, 3)},"
        " order=2)",
    ),
    "GroupAxiomReport": (
        GroupAxiomReport(True, False, True, {"commutativity": ((2, 1), F(1), F(2))}),
        GroupAxiomReport(True, False, True, {"commutativity": ((2, 1), F(1), F(2))}),
        GroupAxiomReport(True, True, True, {}),
        "GroupAxiomReport(identity=True, commutativity=False, associativity=True,"
        " first_failure={'commutativity': ((2, 1), Fraction(1, 1), Fraction(2, 1))})",
    ),
    "AbelCoefficients": (
        AbelCoefficients(F(1), F(-1, 2), (F(1, 2), F(1, 4))),
        AbelCoefficients(F(1), F(-1, 2), (F(1, 2), F(1, 4))),
        AbelCoefficients(F(1), F(-1, 2), (F(1, 2),)),
        "AbelCoefficients(a=Fraction(1, 1), b=Fraction(-1, 2), betas=(Fraction(1, 2), Fraction(1, 4)))",
    ),
    "GroupLogarithm": (
        GroupLogarithm(TSALLIS_G, 2.0),
        GroupLogarithm(MultiplicativeGroup(0.5), gamma=2.0),
        GroupLogarithm(TSALLIS_G),
        None,  # holds a G, whose repr carries its address
    ),
    "GroupFamily": (
        group_family("tsallis"),
        GroupFamily("tsallis", ("multiplicative",), ("q",), MultiplicativeGroup, "tsallis_exp_series"),
        group_family("kaniadakis"),
        "GroupFamily(name='tsallis', aliases=('multiplicative',), params=('q',),"
        " build=<class 'gek.grouplog.MultiplicativeGroup'>, carrier_name='tsallis_exp_series')",
    ),
    "DickeSpec": (
        DickeSpec(m=1, n_sites=14, occupations=(7, 7), block=3),
        DickeSpec(1, 14, [7, 7], 3),
        DickeSpec(m=1, n_sites=14, occupations=(7, 7), block=4),
        "DickeSpec(m=1, n_sites=14, occupations=(7, 7), block=3)",
    ),
    "LmgParams": (
        LmgParams(a=2.0, m=1, alpha=0.5, gamma=0.5, densities=(0.5, 0.5)),
        LmgParams(2.0, 1, 0.5, 0.5, [0.5, 0.5]),
        LmgParams(a=2.0, m=1, alpha=0.5, gamma=0.25, densities=(0.5, 0.5)),
        "LmgParams(a=2.0, m=1, alpha=0.5, gamma=0.5, densities=(0.5, 0.5))",
    ),
}
UNHASHABLE = {"BivariateTruncatedSeries", "GroupAxiomReport"}  # they hold a dict, as the dataclasses did


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    return request.param, *RECORDS[request.param]


def test_equality_within_the_class(record):
    _name, x, same, other, _repr = record
    assert x == same and not x != same
    assert x != other
    assert x != x._fields() and x != object()


def test_hash_is_the_field_tuple_hash(record):
    name, x, same, _other, _repr = record
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(x)
    else:
        assert hash(x) == hash(same) == hash(x._fields())


def test_repr_names_every_field(record):
    name, x, _same, _other, expected = record
    if expected is None:
        expected = f"{name}(" + ", ".join(f"{f}={getattr(x, f)!r}" for f in type(x).__slots__) + ")"
    assert repr(x) == expected


def test_fields_cannot_be_assigned_or_deleted(record):
    _name, x, _same, _other, _repr = record
    for field in type(x).__slots__:
        before = getattr(x, field)
        with pytest.raises(AttributeError):
            setattr(x, field, before)
        with pytest.raises(AttributeError):
            delattr(x, field)
        assert getattr(x, field) is before
    with pytest.raises(AttributeError):
        x.extra = 1


def test_copy_and_pickle_round_trip(record):
    _name, x, _same, _other, _repr = record
    for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(clone) is type(x) and clone == x


class TestValidation:
    def test_series_reject_floats(self):
        with pytest.raises(TypeError, match="floats are not allowed"):
            TruncatedSeries((0, 1.0))
        with pytest.raises(TypeError, match="floats are not allowed"):
            TruncatedSeries.from_coeffs([0, 1, 0.5])
        with pytest.raises(TypeError, match="floats are not allowed"):
            BivariateTruncatedSeries({(1, 0): 1, (0, 1): 0.5}, 2)

    def test_series_shapes(self):
        with pytest.raises(ValueError, match="at least the constant coefficient"):
            TruncatedSeries(())
        with pytest.raises(ValueError, match=r"exponent pair \(2, 1\) outside total degree 2"):
            BivariateTruncatedSeries({(2, 1): 1}, 2)

    def test_abel_coefficients_need_beta_1_equal_to_a_plus_b(self):
        with pytest.raises(ValueError, match="beta_1 must equal a \\+ b"):
            AbelCoefficients(F(1), F(2), (F(4),))
        assert AbelCoefficients(F(1), F(2), ()).betas == ()

    def test_group_logarithm_needs_nonzero_gamma(self):
        with pytest.raises(ParameterError, match="gamma must be nonzero"):
            GroupLogarithm(IdentityGroup(), 0.0)
        assert GroupLogarithm(IdentityGroup()).gamma == 1.0

    def test_majorization_pair_holds_its_distributions(self):
        # Distribution compares by identity, so a pair equals only a pair of the same two objects
        p, r = Distribution([0.5, 0.5]), Distribution([0.75, 0.25])
        pair = MajorizationPair(p=p, r=r)
        assert (pair.p, pair.r) == (p, r) and pair == MajorizationPair(p, r)
        assert pair != MajorizationPair(p=p, r=p)
        with pytest.raises(AttributeError):
            pair.p = r
        with pytest.raises(ValueError, match="r does not majorize p"):
            MajorizationPair(p=r, r=p)

    def test_family_resolves_its_carrier_from_series(self):
        from gek import series

        assert group_family("abel").carrier is series.abel_exp_series
        assert group_family("id").carrier(3) == series.identity_series(3)


class _Pair(Record):
    __slots__ = ("left", "right")


class TestArity:
    """``Record.__init__`` takes exactly one value per field, in ``__slots__`` order."""

    def test_values_fill_the_fields_in_slot_order(self):
        pair = _Pair(1, "two")
        assert (pair.left, pair.right) == (1, "two")
        assert repr(pair) == "_Pair(left=1, right='two')"

    @pytest.mark.parametrize("values", [(), (1,), (1, 2, 3)])
    def test_too_few_or_too_many_values_build_nothing(self, values):
        pair = _Pair.__new__(_Pair)
        with pytest.raises(TypeError, match=rf"_Pair takes 2 values \('left', 'right'\), got {len(values)}"):
            pair.__init__(*values)
        assert not hasattr(pair, "left") and not hasattr(pair, "right")

    def test_records_without_their_own_init_check_the_count(self):
        with pytest.raises(TypeError, match="GroupAxiomReport takes 4 values"):
            GroupAxiomReport(True, True, True)
        with pytest.raises(TypeError, match="GroupFamily takes 5 values"):
            GroupFamily("tsallis", ("multiplicative",), ("q",), MultiplicativeGroup, "tsallis_exp_series", None)
