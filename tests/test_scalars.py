import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import at_m

from wittenres.scalars import S_ONE, RatM, Scalar, poly_gcd
from wittenres.sphere import moment_denominator

S_ZERO = Scalar.of(0)
S_M = Scalar.poly((0, 1))


def test_poly_arithmetic():
    p = Scalar.poly((1, 2))        # 1 + 2m
    q = Scalar.poly((0, 0, 3))     # 3m^2
    assert (p * q).coeffs() == [0, 0, 3, 6]
    assert (p + q).coeffs() == [1, 2, 3]
    assert (p - p).is_zero()
    assert p.evaluate(Fraction(5, 2)) == 6


def test_poly_divmod_and_gcd_cancellation():
    # m(m+1) / (4m(m+1)) reduces to 1/4
    num = Scalar.poly((0, 1, 1))
    den = Scalar.poly((0, 4, 4))
    r = RatM(num, den)
    assert r == RatM(Scalar.of(1, 4))
    assert r.den == S_ONE


def test_rational_function_ops():
    r = RatM(S_ONE, Scalar.poly((0, 2)))   # 1/(2m)
    s = r * RatM(Scalar.poly((0, 2)))      # times 2m
    assert s == RatM(S_ONE)
    assert r.num.evaluate(2) / r.den.evaluate(2) == Fraction(1, 4)
    assert RatM(Scalar.poly((1, 1)), S_M).den != S_ONE


def test_scalar_has_no_imaginary_half():
    # symbols are written in eta = i xi, so a coefficient is an element of
    # Q[m]: its numerators and one denominator, and nothing more
    assert Scalar.__slots__ == ("nums", "den")
    assert at_m(S_M * S_M, 3) == Fraction(9)


# the general route: cross-multiply, cancel an explicit gcd, divide both
# halves by the denominator's leading coefficient; it never goes through
# RatM.__init__
def _gcd_route(num: Scalar, den: Scalar):
    if num.is_zero():
        return (), (Fraction(1),)
    g = poly_gcd(num, den)
    num, _ = num.divmod(g)
    den, _ = den.divmod(g)
    lead = den.coeffs()[-1]
    return (tuple(x / lead for x in num.coeffs()),
            tuple(x / lead for x in den.coeffs()))


def _random_poly(rng, degree):
    return Scalar.poly([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                        for _ in range(degree + 1)])


def _random_ratm(rng):
    num = _random_poly(rng, rng.randint(0, 2))
    den = _random_poly(rng, rng.randint(1, 2)) if rng.random() < 0.4 \
        else S_ONE
    if den.is_zero():
        den = S_ONE
    return RatM(*map(Scalar.poly, _gcd_route(num, den)))


def _pair(r: RatM):
    return tuple(r.num.coeffs()), tuple(r.den.coeffs())


def test_ratm_fast_paths_match_the_gcd_route():
    rng = random.Random(11)
    for _ in range(400):
        a, b = _random_ratm(rng), _random_ratm(rng)
        assert _pair(a + b) == _gcd_route(a.num * b.den + b.num * a.den,
                                          a.den * b.den)
        assert _pair(a - b) == _gcd_route(a.num * b.den - b.num * a.den,
                                          a.den * b.den)
        assert _pair(a * b) == _gcd_route(a.num * b.num, a.den * b.den)
        const = Scalar.of(rng.randint(1, 5), rng.randint(1, 3))
        assert _pair(RatM(a.num, const)) == _gcd_route(a.num, const)


def test_constant_and_negation_fast_paths_match_the_coefficient_loop():
    rng = random.Random(13)
    for _ in range(300):
        a = _random_poly(rng, rng.randint(0, 3))
        b = _random_poly(rng, rng.randint(0, 1))  # a constant half the time
        ac, bc = a.coeffs(), b.coeffs()
        want = [Fraction(0)] * max(len(ac) + len(bc) - 1, 0)
        for i, x in enumerate(ac):
            for j, y in enumerate(bc):
                want[i + j] += x * y
        assert (a * b).coeffs() == (b * a).coeffs() == _strip(want)
        assert (-a).coeffs() == [-x for x in ac]
        r = _random_ratm(rng)
        assert _pair(-r) == _gcd_route(
            Scalar.poly([-x for x in r.num.coeffs()]), r.den)


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


def _ref_render(coeffs, latex=False) -> str:
    """Fraction coefficients, ascending in m, written in descending powers:
    "2/3*m^2 - 1" as text, "\\frac{2}{3} m^{2} - 1" as latex."""
    out = []
    for d in reversed(range(len(coeffs))):
        a = Fraction(coeffs[d])
        if not a:
            continue
        mag = abs(a)
        num = (f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}"
               if latex and mag.denominator > 1 else str(mag))
        power = ("" if d == 0 else "m" if d == 1
                 else f"m^{{{d}}}" if latex else f"m^{d}")
        body = (num if not power else power if mag == 1
                else f"{num}{' ' if latex else '*'}{power}")
        sign = "-" if a < 0 else "+"
        out.append(f"{sign} {body}" if out
                   else body if a > 0 else f"-{body}")
    return " ".join(out) or "0"


def _old_str(x) -> str:
    """The rendering of the reduced polynomial p / r."""
    (r,) = _strip(x[1])
    return _ref_render([c / r for c in x[0]])


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
        coeffs = s.coeffs()
        assert all(type(c) is Fraction for c in coeffs)
        assert _agrees(s, (coeffs, UNIT))
    if x[1] == UNIT:  # a polynomial
        assert sx.coeffs() == _strip(x[0])


def _ref_divmod(p, q):
    """Long division of Fraction coefficient lists, ascending in m."""
    rem = list(p)
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    for k in reversed(range(len(quot))):
        c = quot[k] = rem[k + len(q) - 1] / q[-1]
        for i, y in enumerate(q):
            rem[k + i] -= c * y
    return _strip(quot), _strip(rem)


def test_divmod_evaluate_and_render_match_a_fraction_reference():
    rng = random.Random(37)
    # the cosphere moments have leading coefficient 2^k; the random
    # divisors have negative and fractional leading coefficients
    divisors = [moment_denominator(k) for k in range(5)]
    divisors += [_random_poly(rng, rng.randint(0, 3)) for _ in range(60)]
    inexact = 0
    for q in divisors:
        if q.is_zero():
            with pytest.raises(ZeroDivisionError):
                S_ONE.divmod(q)
            continue
        for _ in range(8):
            lower = _random_poly(rng, max(q.degree() - 1, 0))
            exact = q * _random_poly(rng, rng.randint(0, 3))
            for p in (lower, exact, _random_poly(rng, rng.randint(0, 6))):
                quot, rem = p.divmod(q)
                assert p == q * quot + rem
                assert rem.degree() < q.degree() or rem.is_zero()
                assert (quot.coeffs(), rem.coeffs()) == _ref_divmod(
                    p.coeffs(), q.coeffs())
                inexact += not rem.is_zero()
                for m in (0, 2, -3, Fraction(5, 2)):
                    want = sum((c * Fraction(m) ** k
                                for k, c in enumerate(p.coeffs())),
                               Fraction(0))
                    got = p.evaluate(m)
                    assert type(got) is Fraction and got == want
                for latex in (False, True):
                    assert p.render(latex) == _ref_render(p.coeffs(), latex)
            assert exact.divmod(q)[1].is_zero()
    assert inexact > 100
    # a fractional coefficient, a negative lead, a constant, and zero
    cases = [((-1, 0, Fraction(2, 3)), "2/3*m^2 - 1",
              "\\frac{2}{3} m^{2} - 1"),
             ((1, Fraction(-1, 2), 0, -1), "-m^3 - 1/2*m + 1",
              "-m^{3} - \\frac{1}{2} m + 1"),
             ((Fraction(-3, 4),), "-3/4", "-\\frac{3}{4}"),
             ((0, 1), "m", "m"), ((), "0", "0")]
    for coeffs, text, latex in cases:
        s = Scalar.poly(coeffs)
        assert (str(s), s.render(), s.render(True)) == (text, text, latex)
        assert s.coeffs() == _strip(coeffs)
    assert S_ZERO.evaluate(7) == 0 and S_ZERO.degree() == -1
