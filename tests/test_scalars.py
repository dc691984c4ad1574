import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import at_m

from wittenres.scalars import P_ONE, PolyM, RatM, Scalar, poly_gcd

S_ZERO = Scalar.of(0)
S_M = Scalar.poly((0, 1))


def test_poly_arithmetic():
    p = PolyM((1, 2))        # 1 + 2m
    q = PolyM((0, 0, 3))     # 3m^2
    assert (p * q).c == (0, 0, 3, 6)
    assert (p + q).c == (1, 2, 3)
    assert (p - p).is_zero()
    assert p.evaluate(Fraction(5, 2)) == 6


def test_poly_divmod_and_gcd_cancellation():
    # m(m+1) / (4m(m+1)) reduces to 1/4
    num = PolyM((0, 1, 1))
    den = PolyM((0, 4, 4))
    r = RatM(num, den)
    assert r == RatM(PolyM((Fraction(1, 4),)))
    assert r.den == P_ONE


def test_rational_function_ops():
    r = RatM(PolyM((1,)), PolyM((0, 2)))   # 1/(2m)
    s = r * RatM(PolyM((0, 2)))            # times 2m
    assert s == RatM(P_ONE)
    assert r.num.evaluate(2) / r.den.evaluate(2) == Fraction(1, 4)
    assert RatM(PolyM((1, 1)), PolyM((0, 1))).den != P_ONE


def test_scalar_has_no_imaginary_half():
    # symbols are written in eta = i xi, so a coefficient is an element of
    # Q[m]: its numerators and one denominator, and nothing more
    assert Scalar.__slots__ == ("nums", "den")
    assert at_m(S_M * S_M, 3) == Fraction(9)


def test_real_poly_guards():
    assert Scalar.poly((1, -2)).real_poly() == PolyM((1, -2))


# the general route: cross-multiply, cancel an explicit gcd, make the
# denominator monic; it never goes through RatM.__init__
def _gcd_route(num: PolyM, den: PolyM):
    if num.is_zero():
        return (), (Fraction(1),)
    g = poly_gcd(num, den)
    num, _ = num.divmod(g)
    den, _ = den.divmod(g)
    lead = den.c[-1]
    return num.scale(1 / lead).c, den.monic().c


def _random_poly(rng, degree):
    return PolyM([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(degree + 1)])


def _random_ratm(rng):
    num = _random_poly(rng, rng.randint(0, 2))
    den = _random_poly(rng, rng.randint(1, 2)) if rng.random() < 0.4 \
        else PolyM((1,))
    if den.is_zero():
        den = PolyM((1,))
    return RatM(*map(PolyM, _gcd_route(num, den)))


def _pair(r: RatM):
    return r.num.c, r.den.c


def test_ratm_fast_paths_match_the_gcd_route():
    rng = random.Random(11)
    for _ in range(400):
        a, b = _random_ratm(rng), _random_ratm(rng)
        assert _pair(a + b) == _gcd_route(a.num * b.den + b.num * a.den,
                                          a.den * b.den)
        assert _pair(a - b) == _gcd_route(a.num * b.den - b.num * a.den,
                                          a.den * b.den)
        assert _pair(a * b) == _gcd_route(a.num * b.num, a.den * b.den)
        const = PolyM((Fraction(rng.randint(1, 5), rng.randint(1, 3)),))
        assert _pair(RatM(a.num, const)) == _gcd_route(a.num, const)


def test_constant_and_negation_fast_paths_match_the_coefficient_loop():
    rng = random.Random(13)
    for _ in range(300):
        a = _random_poly(rng, rng.randint(0, 3))
        b = _random_poly(rng, rng.randint(0, 1))  # a constant half the time
        want = [Fraction(0)] * max(len(a.c) + len(b.c) - 1, 0)
        for i, x in enumerate(a.c):
            for j, y in enumerate(b.c):
                want[i + j] += x * y
        assert (a * b).c == (b * a).c == PolyM(want).c
        assert (-a).c == PolyM([-x for x in a.c]).c
        r = _random_ratm(rng)
        assert _pair(-r) == _gcd_route(PolyM([-x for x in r.num.c]), r.den)


# Reference arithmetic in Q[m]: a value is (p, r), two lists of Fraction
# coefficients in ascending powers of m standing for p / r, with r a
# nonzero constant.  Nothing is reduced, so the kernel's int form is
# checked against plain cross multiplication.
def _strip(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _padd(a, b):
    n = max(len(a), len(b))
    return [(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0)
            for k in range(n)]


def _pmul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pneg(a):
    return [-x for x in a]


def _ref_add(x, y):
    (p1, r1), (p2, r2) = x, y
    return _padd(_pmul(p1, r2), _pmul(p2, r1)), _pmul(r1, r2)


def _ref_mul(x, y):
    (p1, r1), (p2, r2) = x, y
    return _pmul(p1, p2), _pmul(r1, r2)


def _ref_div(x, y):
    # 1 / (p / r) = r / p, for a constant p
    p, r = y
    return _ref_mul(x, (r, p))


def _ref_is_zero(x):
    return not _strip(x[0])


def _agrees(s: Scalar, x) -> bool:
    """s equals p / r: p d == a r for s = a / d."""
    p, r = x
    return _strip(_pmul(p, [s.den])) == _strip(_pmul(list(s.nums), r))


def _old_str(x) -> str:
    """The rendering Scalar had when it held a RatM: its reduced
    polynomial."""
    (r,) = _strip(x[1])
    return str(PolyM([c / r for c in x[0]]))


UNIT = [Fraction(1)]
_COEFF = st.fractions(min_value=-4, max_value=4, max_denominator=5)
_POLY = st.lists(_COEFF, max_size=3)
_VALUES = st.one_of(
    st.tuples(_POLY, st.just(UNIT)),  # a polynomial
    # a polynomial over a constant
    st.tuples(_POLY, st.lists(_COEFF.filter(bool), min_size=1, max_size=1)),
)


def _both_ways(x):
    """The kernel value of x built from its own coefficients, and again by
    arithmetic on polynomial scalars."""
    p, (r,) = x
    direct = Scalar.poly([c / r for c in p])
    built = Scalar.poly(p) / Scalar.of(r)
    return direct, built


def _is_constant(x):
    return len(_strip(x[0])) <= 1


@settings(max_examples=200, deadline=None)
@given(_VALUES, _VALUES)
# division by a negative and by a positive constant, by m and by zero
@example(([Fraction(1), Fraction(2)], UNIT), ([Fraction(-2, 3)], UNIT))
@example(([Fraction(1), Fraction(1, 2)], [Fraction(3)]),
         ([Fraction(-5, 2)], UNIT))
@example(([Fraction(1)], [Fraction(2)]), ([Fraction(0), Fraction(1)], UNIT))
@example(([Fraction(1)], UNIT), ([], [Fraction(2)]))
def test_scalar_kernel_matches_fraction_reference(x, y):
    sx, bx = _both_ways(x)
    sy, _ = _both_ways(y)
    # one value, one form: equal values are equal and hash equal
    assert sx == bx and hash(sx) == hash(bx)
    assert _agrees(sx, x) and _agrees(sy, y)
    assert sx.is_zero() == _ref_is_zero(x)
    assert str(sx) == _old_str(x)
    results = [(sx + sy, _ref_add(x, y)), (-sx, (_pneg(x[0]), x[1])),
               (sx - sy, _ref_add(x, (_pneg(y[0]), y[1]))),
               (sx * sy, _ref_mul(x, y))]
    if _ref_is_zero(y):
        with pytest.raises(ZeroDivisionError):
            sx / sy
    elif not _is_constant(y):  # the quotient would leave Q[m]
        with pytest.raises(ValueError):
            sx / sy
    else:
        results.append((sx / sy, _ref_div(x, y)))
        back = sx / sy * sy
        assert back == sx and hash(back) == hash(sx)
    for got, want in results:
        assert _agrees(got, want)
        assert got.is_zero() == _ref_is_zero(want)
        assert str(got) == _old_str(want)
    assert (sx + sy) == (sy + sx) and hash(sx * sy) == hash(sy * sx)
    assert (sx - sx).is_zero() and hash(sx - sx) == hash(Scalar.of(0))
    zero = sx - sx
    assert (zero.nums, zero.den) == ((), 1)
    again = (sx + sy) - sy
    assert again == sx and hash(again) == hash(sx)
    for s in (sx, sx * sy, sx + sy):
        coeffs = s.real_poly().c
        assert all(type(c) is Fraction for c in coeffs)
        assert _agrees(s, (coeffs, UNIT))
    if x[1] == UNIT:  # a polynomial
        assert list(sx.real_poly().c) == _strip(x[0])
