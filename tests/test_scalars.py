import random
from fractions import Fraction

import pytest
from oracle import at_m

from wittenres.scalars import (PolyM, R_ZERO, RatM, S_I, S_ONE, Scalar,
                               poly_gcd, vol_sphere_value)

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
    assert r == RatM.const(Fraction(1, 4))
    assert r.is_polynomial()


def test_rational_function_ops():
    r = RatM(PolyM((1,)), PolyM((0, 2)))   # 1/(2m)
    s = r * RatM.poly((0, 2))              # times 2m
    assert s == RatM.const(1)
    assert at_m(Scalar(r), 2) == (Fraction(1, 4), Fraction(0))
    assert not RatM(PolyM((1, 1)), PolyM((0, 1))).is_polynomial()


def test_scalar_complex_ops():
    z = S_I * S_I
    assert z == Scalar.of(-1)
    w = (S_ONE + S_I) * (S_ONE - S_I)
    assert w == Scalar.of(2)
    q = S_I / S_I
    assert q == S_ONE
    assert at_m(S_M * S_M, 3) == (Fraction(9), Fraction(0))


def test_real_poly_coeffs_guards():
    assert Scalar.poly((1, -2)).real_poly_coeffs() == [1, -2]
    with pytest.raises(ValueError):
        S_I.real_poly_coeffs()
    with pytest.raises(ValueError):
        Scalar(RatM(PolyM((1,)), PolyM((0, 1)))).real_poly_coeffs()


def test_vol_sphere_value():
    assert vol_sphere_value(2) == (Fraction(2), 2)    # 2 pi^2
    assert vol_sphere_value(3) == (Fraction(1), 3)    # pi^3
    with pytest.raises(ValueError):
        vol_sphere_value(0)


# the general route: cross-multiply, cancel an explicit gcd, make the
# denominator monic; it never goes through RatM.__init__
def _reduced(num: PolyM, den: PolyM):
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
    return RatM(*map(PolyM, _reduced(num, den)), _reduced=True)


def _pair(r: RatM):
    return r.num.c, r.den.c


def test_ratm_fast_paths_match_the_gcd_route():
    rng = random.Random(11)
    for _ in range(400):
        a, b = _random_ratm(rng), _random_ratm(rng)
        assert _pair(a + b) == _reduced(a.num * b.den + b.num * a.den,
                                        a.den * b.den)
        assert _pair(a - b) == _reduced(a.num * b.den - b.num * a.den,
                                        a.den * b.den)
        assert _pair(a * b) == _reduced(a.num * b.num, a.den * b.den)
        const = PolyM((Fraction(rng.randint(1, 5), rng.randint(1, 3)),))
        assert _pair(RatM(a.num, const)) == _reduced(a.num, const)


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
        r, s = _random_ratm(rng), _random_ratm(rng)
        assert _pair(-r) == _reduced(PolyM([-x for x in r.num.c]), r.den)
        real = Scalar(r)
        assert _parts(-real) == (_pair(-r), _pair(R_ZERO))
        assert _parts(real + Scalar(s)) == (_pair(r + s), _pair(R_ZERO))
        assert _parts(real + Scalar(s, r)) == (_pair(r + s), _pair(r))


def _four_products(x: Scalar, y: Scalar) -> Scalar:
    return Scalar(x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re)


def _parts(z: Scalar):
    return _pair(z.re), _pair(z.im)


def test_scalar_product_fast_paths_match_four_products():
    rng = random.Random(5)
    for _ in range(200):
        re1, im1, re2, im2 = (_random_ratm(rng) for _ in range(4))
        real1, real2 = Scalar(re1), Scalar(re2)
        cases = [(real1, real2), (real1, Scalar(re2, im2)),
                 (Scalar(re1, im1), real2), (Scalar(re1, im1),
                                             Scalar(re2, im2)),
                 (real1, S_ZERO), (S_ZERO, Scalar(re2, im2)),
                 (Scalar(R_ZERO, im1), Scalar(R_ZERO, im2))]
        for x, y in cases:
            assert _parts(x * y) == _parts(_four_products(x, y))
        zero = Scalar(re1, im1) - Scalar(re1, im1)
        assert _parts(zero) == (_pair(R_ZERO), _pair(R_ZERO))
