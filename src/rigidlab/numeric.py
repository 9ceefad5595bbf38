"""Exact scalars and the plane primitives every other module builds on.

``QScalar`` is the one number type: exact real numbers a + b*sqrt(3) +
sum of c_d*sqrt(d) over square-free integers d, with rational
coefficients, i.e. elements of a multiquadratic field Q(sqrt(3), sqrt(d1),
...).  Arithmetic, comparisons and (within a given field, by default
Q(sqrt(3))) square roots are exact, and an exact computation that leaves
its field raises NotRepresentable.  Plain ``int`` and ``Fraction`` values
coerce to it; a Python float raises MixedBackend wherever an exact scalar
is expected, instead of degrading precision.

Every decision is exact, and an exact value decides by itself: two
points are the same exactly when they are ``==``, and a scalar's sign is
its ``sign()``.  Floats only draw, sort and report: ``QScalar.to_float``,
``point_to_float`` (the one way out of a point) and a report length whose
root leaves its field (``sqrt_value``, ``deviation_value``).  Exact values
come in through one door, ``_normalize_coord``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    ConcentricCircles,
    MixedBackend,
    NegativeRadicand,
    NotRepresentable,
    UsageError,
)

# A field is named by the radicands whose square roots generate it.
Q_SQRT3 = (3,)

_EXACT_COERCIBLE = (int, Fraction)

# radicands are factored by trial division, so sqrt_value factors, and
# parse_scalar and scalar_from_json read, only integers up to this size
MAX_RADICAND = 10**9


def _fraction_sqrt(f: Fraction):
    """Exact square root of a nonnegative rational, or None if irrational."""
    if f < 0:
        return None
    num = math.isqrt(f.numerator)
    if num * num != f.numerator:
        return None
    den = math.isqrt(f.denominator)
    if den * den != f.denominator:
        return None
    return Fraction(num, den)


@lru_cache(maxsize=1024)
def _least_prime(d: int) -> int:
    """Smallest prime factor of an integer d >= 2."""
    p = 2
    while p * p <= d:
        if d % p == 0:
            return p
        p += 1
    return d


def _squarefree(n: int) -> tuple:
    """(m, d) with n = m*m*d and d square-free, for an integer n >= 1."""
    if n < 1:
        raise ValueError(f"radicand must be a positive integer, got {n}")
    m, d = 1, 1
    while n > 1:
        p = _least_prime(n)
        n //= p
        if n % p == 0:
            n //= p
            m *= p
        else:
            d *= p
    return m, d


def _sqmul(d1: int, d2: int) -> int:
    """Square-free part of d1*d2 for square-free d1 and d2."""
    g = math.gcd(d1, d2)
    return (d1 // g) * (d2 // g)


def _merge(e1: tuple, e2: tuple, s: int) -> tuple:
    """Extra terms of x + s*y, given those of x and y."""
    t = dict(e1)
    for d, c in e2:
        t[d] = t.get(d, 0) + s * c
    return tuple(sorted((d, c) for d, c in t.items() if c))


def _exact(a: Fraction, b: Fraction, ext: tuple = ()) -> "QScalar":
    """QScalar from coefficients that are already Fractions and extra terms
    already in canonical form, skipping the constructor's conversions."""
    q = object.__new__(QScalar)
    q.a, q.b, q.ext = a, b, ext
    return q


_ZERO = Fraction(0)


def _from_terms(terms: dict) -> "QScalar":
    """QScalar from a {square-free radicand: Fraction coefficient} dict,
    which it consumes."""
    a, b = terms.pop(1, _ZERO), terms.pop(3, _ZERO)
    return _exact(a, b, tuple(sorted((d, c) for d, c in terms.items() if c)))


def _mul_terms(s: dict, t: dict) -> dict:
    # sqrt(d1)*sqrt(d2) = g*sqrt(d1*d2/g^2) with g = gcd(d1, d2)
    out = {}
    for d1, c1 in s.items():
        for d2, c2 in t.items():
            g = math.gcd(d1, d2)
            d = (d1 // g) * (d2 // g)
            out[d] = out.get(d, 0) + c1 * c2 * g
    return out


class QScalar:
    """Element a + b*sqrt(3) + sum(c*sqrt(d) for d, c in ext) of the reals.

    Immutable by convention; every coefficient is a ``Fraction``, which
    keeps it in lowest terms with positive denominator.  ``ext`` holds the
    terms beyond Q(sqrt(3)) as (d, c) pairs sorted by d, where d is a
    square-free integer other than 1 and 3 and c is nonzero; it is empty
    for elements of Q(sqrt(3)), which keep the two-Fraction layout and
    arithmetic.  Square roots of distinct square-free integers are linearly
    independent over Q (Besicovitch 1940), so the representation is unique:
    equality is exact coefficient equality, and ordering is the true
    ordering of the real values, decided without any floating point.
    """

    __slots__ = ("a", "b", "ext")

    def __init__(self, a=0, b=0, ext=()):
        if isinstance(a, float) or isinstance(b, float):
            raise MixedBackend("QScalar coefficients must be rational, not float")
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.ext = ()
        if ext:
            terms = {1: self.a, 3: self.b}
            for n, c in ext:
                if isinstance(c, float):
                    raise MixedBackend("QScalar coefficients must be rational, not float")
                m, d = _squarefree(n)
                terms[d] = terms.get(d, 0) + m * Fraction(c)
            q = _from_terms(terms)
            self.a, self.b, self.ext = q.a, q.b, q.ext

    @staticmethod
    def _coerce(other):
        if isinstance(other, QScalar):
            return other
        if isinstance(other, _EXACT_COERCIBLE):
            return QScalar(other)
        if isinstance(other, float):
            raise MixedBackend("cannot mix exact and float scalars")
        return None

    def _terms(self) -> dict:
        t = dict(self.ext)
        if self.a:
            t[1] = self.a
        if self.b:
            t[3] = self.b
        return t

    @property
    def radicands(self) -> tuple:
        """Square-free d > 1 whose sqrt(d) has a nonzero coefficient."""
        return ((3,) if self.b else ()) + tuple(d for d, _ in self.ext)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ext = _merge(self.ext, o.ext, 1) if self.ext or o.ext else ()
        return _exact(self.a + o.a, self.b + o.b, ext)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ext = _merge(self.ext, o.ext, -1) if self.ext or o.ext else ()
        return _exact(self.a - o.a, self.b - o.b, ext)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.b and not o.ext:
            return self._scale(o.a)
        if not self.b and not self.ext:
            return o._scale(self.a)
        if self.ext or o.ext:
            return _from_terms(_mul_terms(self._terms(), o._terms()))
        return _exact(self.a * o.a + 3 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def _scale(self, k: Fraction) -> "QScalar":
        if not k:
            return _exact(k, k)
        ext = tuple((d, c * k) for d, c in self.ext) if self.ext else ()
        return _exact(self.a * k, self.b * k, ext)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by zero QScalar")
        if not o.b and not o.ext:
            return self._scale(1 / o.a)
        if o.ext:
            return self * o._inverse()
        # field norm a^2 - 3 b^2 vanishes only at zero since sqrt(3) is irrational
        n = o.a * o.a - 3 * o.b * o.b
        return self * _exact(o.a / n, -o.b / n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def _flip(self, p: int) -> "QScalar":
        """Image under the field automorphism sqrt(p) -> -sqrt(p), p prime."""
        return _exact(self.a, -self.b if p == 3 else self.b,
                      tuple((d, -c if d % p == 0 else c) for d, c in self.ext))

    def _inverse(self) -> "QScalar":
        # x * flip_p(x) is fixed by the flip, so it no longer involves
        # sqrt(p); one prime at a time the denominator becomes rational
        num, den = QScalar(1), self
        while not den.is_rational:
            conj = den._flip(_least_prime(den.radicands[-1]))
            num, den = num * conj, den * conj
        return num * QScalar(1 / den.a)

    def _split(self, p: int, g: int) -> tuple:
        """(beta, gamma) with self = beta + gamma*sqrt(g), for a square-free g
        and a prime p of g such that the terms whose radicand p divides are
        exactly the ones that involve sqrt(g)."""
        beta, gamma = {}, {}
        for d, c in self._terms().items():
            if d % p:
                beta[d] = c
            else:
                # sqrt(d) = (h/g) * sqrt(e) * sqrt(g), h = gcd(d, g)
                e = _sqmul(d, g)
                gamma[e] = gamma.get(e, 0) + c * math.gcd(d, g) / g
        return _from_terms(beta), _from_terms(gamma)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return 1 / (self ** (-exponent))
        out = QScalar(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __neg__(self):
        ext = tuple((d, -c) for d, c in self.ext) if self.ext else ()
        return _exact(-self.a, -self.b, ext)

    def __pos__(self):
        return self

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def sign(self) -> int:
        """Exact sign of the value: -1, 0 or 1."""
        if self.ext:
            return self._sign_ext()
        a, b = self.a, self.b
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        # mixed signs: |a| vs |b|*sqrt(3) decided by squaring, still exact
        lhs = a * a
        rhs = 3 * b * b
        if a > 0:
            return 1 if lhs > rhs else -1
        return 1 if rhs > lhs else -1

    def _sign_ext(self) -> int:
        coeffs = (self.a, self.b, *(c for _, c in self.ext))
        if all(c >= 0 for c in coeffs):
            return 1
        if all(c <= 0 for c in coeffs):
            return -1
        # self = beta + gamma*sqrt(p) with beta, gamma free of sqrt(p); with
        # opposite signs, squaring both sides decides which one dominates
        p = _least_prime(self.ext[-1][0])
        beta, gamma = self._split(p, p)
        sb, sg = beta.sign(), gamma.sign()
        if sg == 0 or sb == sg:
            return sb
        if sb == 0:
            return sg
        return sb * (beta * beta - gamma * gamma * p).sign()

    def _cmp(self, other):
        o = self._coerce(other)
        if o is None:
            return None
        return (self - o).sign()

    def __eq__(self, other):
        if isinstance(other, QScalar):
            return self.a == other.a and self.b == other.b and self.ext == other.ext
        if isinstance(other, _EXACT_COERCIBLE):
            return self.b == 0 and not self.ext and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.ext:
            return hash((self.a, self.b, self.ext))
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __lt__(self, other):
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c < 0

    def __le__(self, other):
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c >= 0

    def __bool__(self):
        return self.a != 0 or self.b != 0 or bool(self.ext)

    def __float__(self):
        return self.to_float()

    def to_float(self) -> float:
        f = float(self.a) + float(self.b) * math.sqrt(3.0)
        for d, c in self.ext:
            f += float(c) * math.sqrt(d)
        return f

    @property
    def is_rational(self) -> bool:
        return self.b == 0 and not self.ext

    def __floor__(self) -> int:
        est = math.floor(self.to_float())
        # the float estimate can be off near integers; repair exactly
        while (self - QScalar(est + 1)).sign() >= 0:
            est += 1
        while (self - QScalar(est)).sign() < 0:
            est -= 1
        return est

    def __ceil__(self) -> int:
        return -((-self).__floor__())

    def __repr__(self):
        if self.ext:
            ext = ", ".join(f"({d}, {c})" for d, c in self.ext)
            return f"QScalar({self.a}, {self.b}, ({ext},))"
        return f"QScalar({self.a}, {self.b})"

    def __str__(self):
        return format_scalar(self)


SQRT3 = QScalar(0, 1)


def _reduce(d: int, basis: tuple) -> int:
    """Square-free d divided by the basis radicands its pivots call for;
    1 exactly when sqrt(d) lies in the field."""
    for p, g in basis:
        if d % p == 0:
            d = _sqmul(d, g)
    return d


@lru_cache(maxsize=64)
def _field_basis(field: tuple) -> tuple:
    """Echelon basis ((pivot prime, radicand), ...) of the field's radicands
    modulo squares: each pivot prime divides its own radicand and no other."""
    basis = []
    for n in field:
        d = _reduce(_squarefree(n)[1], basis)
        if d == 1:
            continue
        p = _least_prime(d)
        basis = [(q, _sqmul(g, d) if g % p == 0 else g) for q, g in basis]
        basis.append((p, d))
    return tuple(basis)


def _field_name(field) -> str:
    return "Q(" + ", ".join(f"sqrt({d})" for d in field) + ")"


def _sqrt_in(u: QScalar, basis: tuple):
    """Nonnegative s with s*s == u in F = Q(sqrt(g) for _, g in basis), or
    None; u must lie in F."""
    if not basis:
        r = _fraction_sqrt(u.a) if u.is_rational else None
        return None if r is None else _exact(r, Fraction(0))
    (p, g), rest = basis[-1], basis[:-1]
    # u = beta + gamma*sqrt(g) and s = c + e*sqrt(g) over the smaller field:
    # c^2 + g e^2 = beta and 2 c e = gamma
    beta, gamma = u._split(p, g)
    root_g = _from_terms({g: Fraction(1)})
    if not gamma:
        # c = 0 or e = 0
        c = _sqrt_in(beta, rest)
        if c is not None:
            return c
        e = _sqrt_in(beta / g, rest)
        return None if e is None else e * root_g
    # (c^2 - g e^2)^2 = beta^2 - g gamma^2, so c^2 = (beta +- n) / 2 for a
    # root n of it, and then c != 0 since gamma != 0
    n = _sqrt_in(beta * beta - gamma * gamma * g, rest)
    if n is None:
        return None
    for c2 in ((beta + n) / 2, (beta - n) / 2):
        c = _sqrt_in(c2, rest)
        if c:
            s = c + gamma / (2 * c) * root_g
            return abs(s)
    return None


def sqrt_exact(u, field=Q_SQRT3) -> QScalar:
    """Exact square root within the field generated by the square roots of
    the radicands in `field`; the default is Q(sqrt(3)).

    Returns s >= 0 with s*s == u.  Raises NegativeRadicand for u < 0 and
    NotRepresentable when the root exists in the reals but not in the
    field; the caller names a larger field or refuses, never rounds.  A
    float u raises MixedBackend, any other non-scalar (a string) TypeError.
    """
    u = _normalize_coord(u)
    sg = u.sign()
    if sg < 0:
        raise NegativeRadicand(f"square root of negative value {u}")
    if sg == 0:
        return QScalar(0)
    basis = _field_basis(tuple(field))
    # a root in the field needs u in it; then every step stays inside
    inside = all(_reduce(d, basis) == 1 for d in u.radicands)
    s = _sqrt_in(u, basis) if inside else None
    if s is None:
        raise NotRepresentable(f"sqrt({u}) is not in {_field_name(field)}")
    return s


def sqrt_value(s2):
    """Length from an exact squared length; exact in Q(sqrt(3)) or, for a
    rational square, in Q(sqrt(3), sqrt(d)), else a float.

    A float square raises MixedBackend, any other non-scalar TypeError.
    Intended for report fields only.  Certification decisions go through
    sqrt_diff_within / compare_deviation, which never take square roots.
    """
    u = _normalize_coord(s2)
    try:
        return sqrt_exact(u)
    except NotRepresentable:
        pq = u.a.numerator * u.a.denominator
        # sqrt(p/q) = sqrt(p*q)/q, and sqrt(p*q) is an integer times sqrt(d);
        # p*q is factored by trial division, so only while that is quick
        if u.is_rational and pq <= MAX_RADICAND:
            return sqrt_exact(u, (3, _squarefree(pq)[1]))
        return math.sqrt(u.to_float())


def deviation_value(a2, b2):
    """|sqrt(a2) - sqrt(b2)| for exact squared lengths, as a reportable
    scalar: exact when both roots are (see sqrt_value), else a float."""
    sa = sqrt_value(a2)
    sb = sqrt_value(b2)
    if isinstance(sa, QScalar) and isinstance(sb, QScalar):
        return abs(sa - sb)
    return abs(float(sa) - float(sb))


def sqrt_diff_within(a2, b2, eps) -> bool:
    """Decide |sqrt(a2) - sqrt(b2)| <= eps using only ring operations.

    a2 and b2 are squared lengths (nonnegative), all three QScalars.
    Squaring twice keeps the decision inside the field even when the
    individual lengths have no exact square root.
    """
    if eps.sign() < 0:
        return False
    lhs = a2 + b2 - eps * eps
    # |sqrt a - sqrt b| <= e  <=>  a + b - e^2 <= 2*sqrt(a*b)
    if lhs.sign() <= 0:
        return True
    return (lhs * lhs - 4 * (a2 * b2)).sign() <= 0


def compare_deviation(a2, c2, b2) -> int:
    """Order |sqrt(a2)-sqrt(b2)| against |sqrt(c2)-sqrt(b2)|.

    Returns -1, 0 or 1 for QScalar squared lengths.  Tracks the largest
    deviation from a fixed base squared length b2 without computing square
    roots.
    """
    sa = (a2 - b2).sign()
    sc = (c2 - b2).sign()
    if sa == 0 and sc == 0:
        return 0
    if sa == 0:
        return -1
    if sc == 0:
        return 1
    if sa == sc:
        d = (a2 - c2).sign()
        return d if sa > 0 else -d
    if sa > 0:
        return _compare_mixed(a2, c2, b2)
    return -_compare_mixed(c2, a2, b2)


def _compare_mixed(hi2, lo2, b2) -> int:
    # hi2 > b2 > lo2: compare sqrt(hi2)+sqrt(lo2) against 2*sqrt(b2),
    # squaring once more to stay in the ring
    m = 4 * b2 - hi2 - lo2
    if m.sign() < 0:
        return 1
    return (4 * (hi2 * lo2) - m * m).sign()


@dataclass(frozen=True)
class Point:
    """Plane point with exact coordinates."""

    x: object
    y: object

    def __post_init__(self):
        object.__setattr__(self, "x", _normalize_coord(self.x))
        object.__setattr__(self, "y", _normalize_coord(self.y))

    @classmethod
    def exact(cls, x, y) -> "Point":
        return cls(parse_scalar(x) if isinstance(x, str) else x,
                   parse_scalar(y) if isinstance(y, str) else y)

    def __repr__(self):
        return f"Point({self.x}, {self.y})"


def _normalize_coord(v) -> QScalar:
    """v as a QScalar: the one way in for an exact scalar, be it a
    coordinate, a radius, an epsilon or a radicand.  A float raises
    MixedBackend, any other non-scalar TypeError."""
    if isinstance(v, QScalar):
        return v
    if isinstance(v, _EXACT_COERCIBLE):
        return QScalar(v)
    if isinstance(v, float):
        raise MixedBackend("bare float scalar: every value is exact")
    raise TypeError(f"not an exact scalar: {v!r}")


def point_to_float(p: Point) -> tuple:
    """(x, y) as floats: the one way out of a point, for drawing, sort keys
    and reports; no decision reads it."""
    return (float(p.x), float(p.y))


def dist2(p: Point, q: Point):
    """Exact squared Euclidean distance."""
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy


def is_unit(p: Point, q: Point) -> bool:
    """True when |p - q| = 1, compared on the squared distance."""
    return dist2(p, q) == 1


def circle_intersect(c1: Point, r1sq, c2: Point, r2sq, field=Q_SQRT3) -> tuple:
    """Intersection points of two circles given by center and squared radius.

    Returns a tuple of 0, 1 or 2 points, lexicographically ordered.  A
    single point means tangency.  A float radius raises MixedBackend, any
    other non-scalar TypeError.  Raises ConcentricCircles for equal
    centers and NotRepresentable when the result needs a square root
    outside `field` (radicands as for sqrt_exact; by default Q(sqrt(3))).
    """
    r1sq, r2sq = _normalize_coord(r1sq), _normalize_coord(r2sq)
    if r1sq.sign() <= 0 or r2sq.sign() <= 0:
        raise ValueError("circle radii must be positive")
    dx = c2.x - c1.x
    dy = c2.y - c1.y
    d2 = dx * dx + dy * dy
    if d2.sign() == 0:
        raise ConcentricCircles("circle centers coincide")
    # parameter along the center line, then squared perpendicular offset
    t = (d2 + r1sq - r2sq) / (2 * d2)
    s2 = r1sq / d2 - t * t
    ss = s2.sign()
    if ss < 0:
        return ()
    bx = c1.x + t * dx
    by = c1.y + t * dy
    if ss == 0:
        return (Point(bx, by),)
    s = sqrt_exact(s2, field)
    ox = -(dy * s)
    oy = dx * s
    pa = Point(bx + ox, by + oy)
    pb = Point(bx - ox, by - oy)
    if (pb.x, pb.y) < (pa.x, pa.y):
        pa, pb = pb, pa
    return (pa, pb)


# a term runs to the next sign that does not follow an exponent's e
_TERM_RE = re.compile(r"[+-]?(?:[eE][+-]|[^+-])+")


def parse_scalar(token: str) -> QScalar:
    """Parse tokens like '3', '-3/2', 'r3', '1/2r11' or '3/2+1/2r3-r33'.

    'r<d>' denotes sqrt(d) for an integer d in 2..MAX_RADICAND, so every
    token format_scalar prints reads back to its value; one '*' may join
    a coefficient to its root, as in '2*r3', and is refused anywhere
    else.  Decimal literals such as '1.5', '1e3' or '2.5E-2' are accepted
    and read exactly as rationals.
    """
    s = token.replace(" ", "")
    if not s:
        raise UsageError("empty scalar token")
    terms = _TERM_RE.findall(s)
    if "".join(terms) != s:
        raise UsageError(f"cannot parse scalar token {token!r}")
    a = Fraction(0)
    ext = []
    for term in terms:
        body, root, rad = term.partition("r")
        if body.endswith("*"):
            body = body[:-1]
            if not root or body in ("", "+", "-"):
                raise UsageError(f"cannot parse scalar token {token!r}")
        if body in ("", "+"):
            coeff = Fraction(1)
        elif body == "-":
            coeff = Fraction(-1)
        else:
            try:
                coeff = Fraction(body)
            except (ValueError, ZeroDivisionError) as exc:
                raise UsageError(f"cannot parse scalar token {token!r}") from exc
        if not root:
            a += coeff
        elif rad.isascii() and rad.isdigit() and 2 <= int(rad) <= MAX_RADICAND:
            ext.append((int(rad), coeff))
        else:
            raise UsageError(f"a root in {token!r} needs an integer radicand "
                             f"in 2..{MAX_RADICAND}")
    return QScalar(a, 0, ext)


def format_scalar(q: QScalar) -> str:
    """Inverse of parse_scalar: a term c*sqrt(d) prints as 'crd'."""
    parts = [] if q.a == 0 and not q.is_rational else [str(q.a)]
    for d, c in ((3, q.b), *q.ext):
        if c == 0:
            continue
        rad = "r" if c == 1 else ("-r" if c == -1 else f"{c}r")
        rad += str(d)
        parts.append("+" + rad if parts and not rad.startswith("-") else rad)
    return "".join(parts)
