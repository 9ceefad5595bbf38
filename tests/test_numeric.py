"""Exact field arithmetic, refused floats, and geometric predicates."""

import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidlab.errors import (
    ConcentricCircles,
    MixedBackend,
    NegativeRadicand,
    NotRepresentable,
    UsageError,
)
from rigidlab.bq import bq_certify, gadget
from rigidlab.numeric import (
    SQRT3,
    Point,
    QScalar,
    circle_intersect,
    compare_deviation,
    deviation_value,
    dist2,
    format_scalar,
    is_unit,
    parse_scalar,
    point_to_float,
    points_equal,
    sqrt_diff_within,
    sqrt_exact,
    sqrt_value,
)
from rigidlab.plane import P0, P1
from rigidlab.product import trilaterate

fracs = st.fractions(min_value=-10, max_value=10, max_denominator=8)
qscalars = st.builds(QScalar, fracs, fracs)


class TestQScalarField:
    @given(qscalars, qscalars, qscalars)
    def test_ring_axioms(self, u, v, w):
        assert (u + v) + w == u + (v + w)
        assert u + v == v + u
        assert (u * v) * w == u * (v * w)
        assert u * v == v * u
        assert u * (v + w) == u * v + u * w

    @given(qscalars)
    def test_additive_inverse(self, u):
        assert u + (-u) == QScalar(0)

    @given(qscalars)
    def test_multiplicative_inverse(self, u):
        if u == QScalar(0):
            with pytest.raises(ZeroDivisionError):
                QScalar(1) / u
        else:
            assert u * (QScalar(1) / u) == QScalar(1)

    def test_conjugate_product(self):
        assert QScalar(1, 1) * QScalar(1, -1) == QScalar(-2)

    def test_sqrt3_bounds(self):
        # 1.732 < sqrt(3) < 1.736
        assert SQRT3 > QScalar(Fraction(433, 250))
        assert SQRT3 < QScalar(Fraction(434, 250))
        assert SQRT3 * SQRT3 == QScalar(3)

    @given(qscalars)
    def test_sign_matches_float(self, u):
        f = u.to_float()
        if abs(f) > 1e-6:
            assert u.sign() == (1 if f > 0 else -1)

    @given(qscalars, qscalars)
    def test_ordering_consistent_with_difference(self, u, v):
        assert (u < v) == ((v - u).sign() == 1)

    @given(qscalars)
    def test_floor_ceil(self, u):
        fl, ce = u.__floor__(), u.__ceil__()
        assert QScalar(fl) <= u < QScalar(fl + 1)
        assert QScalar(ce - 1) < u <= QScalar(ce)

    def test_rejects_bare_float(self):
        # every coefficient slot refuses a float, not only the rational one
        for args, kwargs in (((0.5,), {}), ((1, 0.5), {}), ((), {"ext": ((11, 0.5),)})):
            with pytest.raises(MixedBackend):
                QScalar(*args, **kwargs)

    def test_pow(self):
        assert QScalar(1, 1) ** 2 == QScalar(4, 2)
        assert QScalar(0, 1) ** -2 == QScalar(Fraction(1, 3))

    def test_hash_rational_matches_fraction(self):
        assert hash(QScalar(Fraction(3, 2))) == hash(Fraction(3, 2))


class TestSqrtExact:
    def test_frozen_values(self):
        assert sqrt_exact(QScalar(Fraction(3, 4))) == QScalar(0, Fraction(1, 2))
        assert sqrt_exact(QScalar(4)) == QScalar(2)
        assert sqrt_exact(QScalar(3)) == SQRT3
        assert sqrt_exact(QScalar(0)) == QScalar(0)
        # (1 + sqrt(3))^2 = 4 + 2 sqrt(3)
        assert sqrt_exact(QScalar(4, 2)) == QScalar(1, 1)

    def test_not_representable(self):
        with pytest.raises(NotRepresentable):
            sqrt_exact(QScalar(2))
        with pytest.raises(NotRepresentable):
            sqrt_exact(SQRT3)

    def test_negative(self):
        with pytest.raises(NegativeRadicand):
            sqrt_exact(QScalar(-1))

    def test_sqrt_value_of_rational_square(self):
        # sqrt(7/12) = sqrt(84)/12 = sqrt(21)/6 lies outside Q(sqrt(3))
        assert sqrt_value(QScalar(Fraction(7, 12))) == QScalar(ext=((21, Fraction(1, 6)),))
        assert isinstance(sqrt_value(QScalar(2, 1)), float)
        # the prime 2**61 - 1 is not factored by trial division
        root = sqrt_value(QScalar(2**61 - 1))
        assert isinstance(root, float) and root == math.sqrt(2**61 - 1)

    def test_report_float(self):
        # a length whose root leaves its field is reported as a plain float
        dev = deviation_value(QScalar(2, 1), QScalar(1))
        assert isinstance(dev, float) and dev == math.sqrt(2 + math.sqrt(3)) - 1
        # the spindle's B and G move apart by such a length
        g = gadget("moser-spindle")
        rep = bq_certify(g.points, g.labeled_index("B"), g.labeled_index("G"), 0)
        assert not rep.certified and isinstance(rep.max_deviation, float)
        assert re.fullmatch(r"\d+\.\d+", str(rep.max_deviation))

    @given(qscalars)
    def test_roundtrip_on_squares(self, u):
        r = sqrt_exact(u * u)
        assert r * r == u * u
        assert r.sign() >= 0


R11 = QScalar(ext=((11, 1),))
R33 = QScalar(ext=((33, 1),))
# coefficients of 1, sqrt(3), sqrt(11) and sqrt(33): all of Q(sqrt(3), sqrt(11))
mq_coeffs = st.tuples(fracs, fracs, fracs, fracs)


def _mq(coeffs):
    a, b, c, d = coeffs
    return QScalar(a, b) + c * R11 + d * R33


def _dec(coeffs):
    """60-digit decimal value of a + b sqrt(3) + c sqrt(11) + d sqrt(33)."""
    with localcontext() as ctx:
        ctx.prec = 60
        total = Decimal(0)
        for rad, f in zip((1, 3, 11, 33), coeffs):
            total += Decimal(f.numerator) / Decimal(f.denominator) * Decimal(rad).sqrt()
        return total


def _coeffs(q):
    ext = dict(q.ext)
    assert set(ext) <= {11, 33}
    return (q.a, q.b, ext.get(11, Fraction(0)), ext.get(33, Fraction(0)))


def _dec_sign(x):
    # nonzero values with these small coefficients are far above 1e-50
    if abs(x) < Decimal("1e-50"):
        return 0
    return 1 if x > 0 else -1


class TestMultiquadratic:
    """Q(sqrt(3), sqrt(11)) arithmetic against a 60-digit decimal oracle."""

    @given(mq_coeffs)
    def test_sign_matches_decimal(self, cu):
        u = _mq(cu)
        assert u.sign() == _dec_sign(_dec(cu))
        assert (u == 0) == (_dec_sign(_dec(cu)) == 0)

    @given(mq_coeffs, mq_coeffs)
    def test_ordering_matches_decimal(self, cu, cv):
        assert (_mq(cu) < _mq(cv)) == (_dec_sign(_dec(cv) - _dec(cu)) == 1)

    @given(mq_coeffs, mq_coeffs)
    def test_ring_matches_decimal(self, cu, cv):
        u, v = _mq(cu), _mq(cv)
        with localcontext() as ctx:
            ctx.prec = 60
            du, dv = _dec(cu), _dec(cv)
            for got, want in ((u + v, du + dv), (u - v, du - dv), (u * v, du * dv)):
                assert abs(_dec(_coeffs(got)) - want) < Decimal("1e-45")

    @given(mq_coeffs, mq_coeffs, mq_coeffs)
    @settings(max_examples=50)
    def test_ring_axioms(self, cu, cv, cw):
        u, v, w = _mq(cu), _mq(cv), _mq(cw)
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w
        assert u * v == v * u
        assert u - u == QScalar(0)

    @given(mq_coeffs)
    def test_multiplicative_inverse(self, cu):
        u = _mq(cu)
        if u == 0:
            with pytest.raises(ZeroDivisionError):
                1 / u
        else:
            assert u * (1 / u) == QScalar(1)

    def test_exact_zeros(self):
        zero = SQRT3 * R11 - R33
        assert zero == 0 and zero.sign() == 0 and not zero and zero.is_rational
        assert (R11 + SQRT3) * (R11 - SQRT3) == QScalar(8)
        assert 1 / (SQRT3 + R11) == (R11 - SQRT3) / 8
        assert R33 * R33 == 33 and hash(R11 * R11) == hash(Fraction(11))

    @given(mq_coeffs)
    def test_sqrt_within_field(self, cu):
        u = _mq(cu)
        assert sqrt_exact(u * u, (3, 11)) == abs(u)
        if u.ext:
            with pytest.raises(NotRepresentable):
                sqrt_exact(u * u)

    @given(mq_coeffs)
    def test_sqrt_squares_back(self, cu):
        u = _mq(cu)
        assert sqrt_exact(u * u * 3, (3, 11)) == abs(u) * SQRT3
        assert sqrt_exact(u * u * 11, (3, 11)) == abs(u) * R11
        try:
            s = sqrt_exact(abs(u), (3, 11))
        except NotRepresentable:
            return
        assert s >= 0 and s * s == abs(u)

    def test_field_is_spanned_by_its_radicands(self):
        assert sqrt_exact(QScalar(Fraction(11, 36)), (3, 11)) == R11 / 6
        assert sqrt_exact(QScalar(33), (3, 11)) == R33
        assert sqrt_exact(QScalar(11), (3, 33)) == R11
        with pytest.raises(NotRepresentable):
            sqrt_exact(QScalar(2), (3, 11))
        with pytest.raises(NotRepresentable):
            sqrt_exact(QScalar(11), (33,))
        # 34 + 2 sqrt(33) = (1 + sqrt(33))^2 has its root outside Q(sqrt(3))
        with pytest.raises(NotRepresentable):
            sqrt_exact((1 + R33) ** 2)
        assert sqrt_exact((1 + R33) ** 2, (3, 11)) == 1 + R33

    @given(mq_coeffs)
    def test_format_matches_decimal(self, cu):
        # each printed term 'c' or 'crN' is c*sqrt(N); their sum is the value
        text = format_scalar(_mq(cu))
        with localcontext() as ctx:
            ctx.prec = 60
            total = Decimal(0)
            for term in re.findall(r"[+-]?[^+-]+", text):
                body, _, rad = term.partition("r")
                c = Fraction({"": 1, "+": 1, "-": -1}.get(body, body))
                root = Decimal(int(rad)).sqrt() if rad else Decimal(1)
                total += Decimal(c.numerator) / Decimal(c.denominator) * root
            assert abs(total - _dec(cu)) < Decimal("1e-45")
        assert float(_mq(cu)) == pytest.approx(float(_dec(cu)), abs=1e-12)

    def test_parse_refuses_further_roots(self):
        assert format_scalar(R11 / 2 - R33) == "1/2r11-r33"
        for bad in ("r11", "1+r33", "1/2r11-r33"):
            with pytest.raises(UsageError):
                parse_scalar(bad)


# each exact entry point refuses a bare Python float rather than round it
FLOAT_REFUSALS = {
    "QScalar": lambda: QScalar(0.5),
    "QScalar arithmetic": lambda: QScalar(1) + 1.0,
    "Point": lambda: Point(QScalar(1), 1.0),
    "circle_intersect radius": lambda: circle_intersect(P0, 1, P1, 1.0),
    "sqrt_exact": lambda: sqrt_exact(2.0),
    "bq_certify epsilon": lambda: bq_certify(gadget("rhombus").points, 0, 3, 1.75),
    "trilaterate": lambda: trilaterate(0.0625, 1, 1),
}


@pytest.mark.parametrize("entry", sorted(FLOAT_REFUSALS))
def test_bare_float_refused(entry):
    with pytest.raises(MixedBackend):
        FLOAT_REFUSALS[entry]()


def test_float_compares_unequal():
    # equality with a float is False, not an error and not a rounding
    assert (QScalar(1) == 1.0) is False


class TestParseFormat:
    @pytest.mark.parametrize("text,expect", [
        ("1", QScalar(1)),
        ("-2/3", QScalar(Fraction(-2, 3))),
        ("r3", SQRT3),
        ("-r3", QScalar(0, -1)),
        ("1/2+3/2r3", QScalar(Fraction(1, 2), Fraction(3, 2))),
        ("2-r3", QScalar(2, -1)),
        ("1.5", QScalar(Fraction(3, 2))),
        ("0", QScalar(0)),
        ("1e3", QScalar(1000)),
        ("1e-3", QScalar(Fraction(1, 1000))),
        ("2.5E-2", QScalar(Fraction(1, 40))),
        ("1e-3+r3", QScalar(Fraction(1, 1000), 1)),
        ("-1e-3r3+2E+1", QScalar(20, Fraction(-1, 1000))),
    ])
    def test_parse(self, text, expect):
        assert parse_scalar(text) == expect

    @given(qscalars)
    def test_format_parse_roundtrip(self, u):
        assert parse_scalar(format_scalar(u)) == u

    def test_garbage(self):
        for bad in ("", "x", "1+r2", "1//2", "r3r3", "1e", "e-3", "1e+r3"):
            with pytest.raises(UsageError):
                parse_scalar(bad)


class TestPoint:
    def test_exact_construction(self):
        p = Point.exact("1/2", "r3")
        assert p.x == QScalar(Fraction(1, 2)) and p.y == SQRT3

    def test_bare_float_coordinate_rejected(self):
        with pytest.raises(MixedBackend):
            Point(0.5, QScalar(1))
        with pytest.raises(MixedBackend):
            Point.exact(0.5, 0)

    def test_mixed_coordinates_rejected(self):
        # an exact or integer coordinate does not carry a float one along
        for x in (QScalar(1), 1):
            with pytest.raises(MixedBackend):
                Point(x, 1.0)
        with pytest.raises(TypeError):
            Point(QScalar(1), "1")

    def test_dist2_and_unit(self):
        a = Point(QScalar(0), QScalar(0))
        b = Point(QScalar(1), QScalar(0))
        assert dist2(a, b) == QScalar(1)
        assert is_unit(a, b)

    def test_unit_has_no_tolerance(self):
        # a unit decision is exact: off by 1e-12 is not unit, sqrt(3)/2 is
        assert not is_unit(P0, Point(1 + Fraction(1, 10**12), 0))
        assert is_unit(P0, Point(QScalar(Fraction(1, 2)), QScalar(0, Fraction(1, 2))))

    def test_point_to_float(self):
        assert point_to_float(Point(QScalar(0), SQRT3)) == (0.0, math.sqrt(3))


class TestCircleIntersect:
    def test_two_hits_exact(self):
        a = Point(QScalar(0), QScalar(0))
        b = Point(QScalar(1), QScalar(0))
        hits = circle_intersect(a, QScalar(1), b, QScalar(1))
        assert len(hits) == 2
        ys = sorted(h.y for h in hits)
        assert ys[0] == QScalar(0, Fraction(-1, 2))
        assert ys[1] == QScalar(0, Fraction(1, 2))

    def test_tangent(self):
        a = Point(QScalar(0), QScalar(0))
        b = Point(QScalar(2), QScalar(0))
        hits = circle_intersect(a, QScalar(1), b, QScalar(1))
        assert len(hits) == 1
        assert points_equal(hits[0], Point(QScalar(1), QScalar(0)))

    def test_disjoint(self):
        a = Point(QScalar(0), QScalar(0))
        b = Point(QScalar(4), QScalar(0))
        assert circle_intersect(a, QScalar(1), b, QScalar(1)) == ()

    def test_concentric(self):
        a = Point(QScalar(0), QScalar(0))
        with pytest.raises(ConcentricCircles):
            circle_intersect(a, QScalar(1), a, QScalar(1))

    def test_nonpositive_radius(self):
        a = Point(QScalar(0), QScalar(0))
        b = Point(QScalar(1), QScalar(0))
        with pytest.raises(ValueError):
            circle_intersect(a, QScalar(0), b, QScalar(1))

    @given(st.sampled_from([1, 3, 4]), st.integers(-3, 3), st.integers(-3, 3))
    def test_unit_circles_closed_at_lattice_gaps(self, d2, a, b):
        """Unit circles around points at squared distance 1, 3, or 4 always
        intersect inside the field; those gaps never leave it."""
        from rigidlab.plane import lattice_point, P0
        q = lattice_point(a, b)
        if dist2(P0, q) != QScalar(d2):
            return
        hits = circle_intersect(P0, QScalar(1), q, QScalar(1))
        assert len(hits) >= 1
        for h in hits:
            assert dist2(P0, h) == QScalar(1)

    def test_mixed_backend_rejected(self):
        # either radius: a float or a non-scalar is no exact radius
        for r1, r2 in ((1.0, 1), ("1", 1)):
            with pytest.raises(MixedBackend):
                circle_intersect(P0, r1, P1, r2)

    def test_exact_hits_round_to_float_geometry(self):
        hits = circle_intersect(P0, 1, P1, 1)
        assert ([point_to_float(h) for h in hits]
                == [(0.5, -math.sqrt(3) / 2), (0.5, math.sqrt(3) / 2)])


class TestSqrtFreeComparisons:
    @given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 8))
    def test_sqrt_diff_within_matches_float_oracle(self, a2, b2, e):
        got = sqrt_diff_within(QScalar(a2), QScalar(b2), QScalar(e))
        want = abs(math.sqrt(a2) - math.sqrt(b2)) <= e + 1e-12
        assert got == want

    def test_negative_epsilon(self):
        assert not sqrt_diff_within(QScalar(1), QScalar(1), QScalar(-1))

    @given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40))
    def test_compare_deviation_matches_float_oracle(self, a2, c2, b2):
        got = compare_deviation(QScalar(a2), QScalar(c2), QScalar(b2))
        da = abs(math.sqrt(a2) - math.sqrt(b2))
        dc = abs(math.sqrt(c2) - math.sqrt(b2))
        if abs(da - dc) < 1e-12:
            assert got == 0
        else:
            assert got == (-1 if da < dc else 1)
