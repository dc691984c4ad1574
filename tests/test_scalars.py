import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import at_m

from wittenres.scalars import P_ONE, PolyM, RatM, S_I, S_ONE, Scalar, poly_gcd

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


def test_scalar_complex_ops():
    z = S_I * S_I
    assert z == Scalar.of(-1)
    w = (S_ONE + S_I) * (S_ONE - S_I)
    assert w == Scalar.of(2)
    q = S_I / S_I
    assert q == S_ONE
    assert at_m(S_M * S_M, 3) == (Fraction(9), Fraction(0))


def test_real_poly_guards():
    assert Scalar.poly((1, -2)).real_poly() == PolyM((1, -2))
    with pytest.raises(ValueError):
        S_I.real_poly()


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


def _split(z: Scalar):
    """The real and the imaginary part of z, each as a real Scalar."""
    return tuple(Scalar.poly([Fraction(x, z.den) for x in nums])
                 for nums in (z.nums, z.inums))


def _four_products(x: Scalar, y: Scalar) -> Scalar:
    (a, b), (c, d) = _split(x), _split(y)
    return (a * c - b * d) + S_I * (a * d + b * c)


def test_scalar_product_fast_paths_match_four_products():
    rng = random.Random(5)
    for _ in range(200):
        re1, im1, re2, im2 = (
            Scalar.poly(_random_poly(rng, rng.randint(0, 2)).c)
            for _ in range(4))
        cases = [(re1, re2), (re1, re2 + S_I * im2), (re1 + S_I * im1, re2),
                 (re1 + S_I * im1, re2 + S_I * im2),
                 (re1, S_ZERO), (S_ZERO, re2 + S_I * im2),
                 (S_I * im1, S_I * im2)]
        for x, y in cases:
            got, want = x * y, _four_products(x, y)
            assert got == want and hash(got) == hash(want)
        zero = (re1 + S_I * im1) - (re1 + S_I * im1)
        assert (zero.nums, zero.inums, zero.den) == ((), (), 1)


# Reference arithmetic in Q(i)[m]: a value is (p, q, r), three lists of
# Fraction coefficients in ascending powers of m standing for (p + i q) / r,
# with r a nonzero constant.  Nothing is reduced, so the kernel's int form
# is checked against plain cross multiplication.
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
    (p1, q1, r1), (p2, q2, r2) = x, y
    return (_padd(_pmul(p1, r2), _pmul(p2, r1)),
            _padd(_pmul(q1, r2), _pmul(q2, r1)), _pmul(r1, r2))


def _ref_mul(x, y):
    (p1, q1, r1), (p2, q2, r2) = x, y
    return (_padd(_pmul(p1, p2), _pneg(_pmul(q1, q2))),
            _padd(_pmul(p1, q2), _pmul(q1, p2)), _pmul(r1, r2))


def _ref_div(x, y):
    # 1 / ((p + i q) / r) = r (p - i q) / (p^2 + q^2)
    p, q, r = y
    return _ref_mul(x, (_pmul(r, p), _pmul(r, _pneg(q)),
                        _padd(_pmul(p, p), _pmul(q, q))))


def _ref_is_zero(x):
    return not _strip(x[0]) and not _strip(x[1])


def _agrees(s: Scalar, x) -> bool:
    """s equals (p + i q) / r: p d == a r and q d == b r for
    s = (a + i b) / d."""
    p, q, r = x
    return all(_strip(_pmul(ref, [s.den])) == _strip(_pmul(list(nums), r))
               for ref, nums in ((p, s.nums), (q, s.inums)))


def _old_str(x) -> str:
    """The rendering Scalar had when it held RatM parts: each part as its
    reduced polynomial."""
    (r,) = _strip(x[2])
    re, im = (PolyM([c / r for c in part]) for part in x[:2])
    if im.is_zero():
        return str(re)
    if re.is_zero():
        return f"i*({im})"
    return f"({re}) + i*({im})"


UNIT = [Fraction(1)]
_COEFF = st.fractions(min_value=-4, max_value=4, max_denominator=5)
_POLY = st.lists(_COEFF, max_size=3)
_VALUES = st.one_of(
    st.tuples(_POLY, st.just([]), st.just(UNIT)),  # real polynomial
    st.tuples(_POLY, _POLY, st.just(UNIT)),  # complex polynomial
    # a complex polynomial over a constant
    st.tuples(_POLY, _POLY, st.lists(_COEFF.filter(bool), min_size=1,
                                     max_size=1)),
)


def _both_ways(x):
    """The kernel value of x built from its parts' own coefficients, and
    again by arithmetic on polynomial scalars."""
    p, q, (r,) = x
    direct = (Scalar.poly([c / r for c in p])
              + S_I * Scalar.poly([c / r for c in q]))
    built = (Scalar.poly(p) + S_I * Scalar.poly(q)) / Scalar.of(r)
    return direct, built


def _is_constant(x):
    return len(_strip(x[0])) <= 1 and len(_strip(x[1])) <= 1


@settings(max_examples=200, deadline=None)
@given(_VALUES, _VALUES)
# division by an imaginary and by a real constant, by m and by zero
@example(([Fraction(1), Fraction(2)], [Fraction(3)], UNIT),
         ([], [Fraction(-2, 3)], UNIT))
@example(([Fraction(1)], [Fraction(1, 2)], [Fraction(3)]),
         ([Fraction(-5, 2)], [], UNIT))
@example(([Fraction(1)], [], [Fraction(2)]),
         ([Fraction(0), Fraction(1)], [], UNIT))
@example(([Fraction(1)], [], UNIT), ([], [], [Fraction(2)]))
def test_scalar_kernel_matches_fraction_reference(x, y):
    sx, bx = _both_ways(x)
    sy, _ = _both_ways(y)
    # one value, one form: equal values are equal and hash equal
    assert sx == bx and hash(sx) == hash(bx)
    assert _agrees(sx, x) and _agrees(sy, y)
    assert sx.is_zero() == _ref_is_zero(x)
    assert str(sx) == _old_str(x)
    results = [(sx + sy, _ref_add(x, y)), (-sx, (_pneg(x[0]), _pneg(x[1]),
                                                 x[2])),
               (sx - sy, _ref_add(x, (_pneg(y[0]), _pneg(y[1]), y[2]))),
               (sx * sy, _ref_mul(x, y))]
    if _ref_is_zero(y):
        with pytest.raises(ZeroDivisionError):
            sx / sy
    elif not _is_constant(y):  # the quotient would leave Q(i)[m]
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
    again = (sx + sy) - sy
    assert again == sx and hash(again) == hash(sx)
    for s in (sx, sx * sy, sx + sy):
        try:
            coeffs = s.real_poly().c
        except ValueError:
            continue
        assert all(type(c) is Fraction for c in coeffs)
        assert _agrees(s, (coeffs, [], UNIT))
    if not x[1] and x[2] == UNIT:  # a real polynomial
        assert list(sx.real_poly().c) == _strip(x[0])
