"""Exact coefficient arithmetic.

Every coefficient in the engine lives in Q(i)(m): Gaussian rationals whose
real and imaginary parts are rational functions of the half-dimension
symbol m.  All arithmetic is exact (fractions.Fraction underneath); nothing
here ever touches floating point.

Most coefficients are polynomials with a real value, so the arithmetic has
fast paths for them that give the same reduced (num, den) pairs as the
general route: a RatM with a constant denominator is reduced without a
polynomial gcd, sums and products of two polynomials skip the cross
multiplication by denominators, a product with a constant polynomial
scales the coefficients in place, a Scalar product with a real factor
takes two RatM products (one when both are real) instead of four, and a
sum or negation of real Scalars keeps the zero imaginary part as it is.
Negation rebuilds nothing it need not: a negated polynomial has no new
trailing zero and a negated reduced fraction stays reduced.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


class PolyM:
    """Univariate polynomial in m, dense ascending coefficient tuple."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        c = [x if isinstance(x, Fraction) else Fraction(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.c = tuple(c)

    @staticmethod
    def const(x) -> "PolyM":
        return PolyM((Fraction(x),))

    @staticmethod
    def _raw(c: tuple) -> "PolyM":
        """The polynomial with coefficient tuple c, which must already be
        Fractions without trailing zeros: no conversion, no strip."""
        out = object.__new__(PolyM)
        out.c = c
        return out

    def is_zero(self) -> bool:
        return not self.c

    def degree(self) -> int:
        return len(self.c) - 1  # -1 for the zero polynomial

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        return isinstance(other, PolyM) and self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __add__(self, other):
        a, b = self.c, other.c
        n = max(len(a), len(b))
        return PolyM([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                      for i in range(n)])

    def __neg__(self):
        return PolyM._raw(tuple([-x for x in self.c]))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.c or not other.c:
            return PolyM()
        # a nonzero constant factor scales each coefficient in place and
        # keeps the leading one nonzero
        if len(other.c) == 1:
            k = other.c[0]
            return PolyM._raw(tuple([a * k for a in self.c]))
        if len(self.c) == 1:
            k = self.c[0]
            return PolyM._raw(tuple([k * b for b in other.c]))
        out = [Fraction(0)] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(other.c):
                    out[i + j] += a * b
        return PolyM(out)

    def scale(self, x) -> "PolyM":
        x = Fraction(x)
        return PolyM([a * x for a in self.c])

    def evaluate(self, m) -> Fraction:
        m = Fraction(m)
        acc = Fraction(0)
        for a in reversed(self.c):
            acc = acc * m + a
        return acc

    def divmod(self, other):
        if not other.c:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.c)
        den = other.c
        qdeg = len(rem) - len(den)
        if qdeg < 0:
            return PolyM(), PolyM(rem)
        quot = [Fraction(0)] * (qdeg + 1)
        lead = den[-1]
        for k in range(qdeg, -1, -1):
            coef = rem[k + len(den) - 1] / lead
            quot[k] = coef
            if coef:
                for i, d in enumerate(den):
                    rem[k + i] -= coef * d
        return PolyM(quot), PolyM(rem)

    def monic(self) -> "PolyM":
        if not self.c:
            return self
        lead = self.c[-1]
        return PolyM([x / lead for x in self.c])

    def render(self, latex=False) -> str:
        """Descending powers of m, as text ("2/3*m^2 - 1") or as latex
        ("\\frac{2}{3} m^{2} - 1")."""
        parts = []
        for d in range(len(self.c) - 1, -1, -1):
            a = self.c[d]
            if a == 0:
                continue
            mag = abs(a)
            if latex and mag.denominator != 1:
                mag = f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}"
            mono = ("" if d == 0 else "m" if d == 1
                    else f"m^{{{d}}}" if latex else f"m^{d}")
            if not mono:
                body = str(mag)
            elif abs(a) == 1:
                body = mono
            else:
                body = f"{mag}{' ' if latex else '*'}{mono}"
            if not parts:
                parts.append(body if a > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if a > 0 else f"- {body}")
        return " ".join(parts) or "0"

    def __str__(self):
        return self.render()

    __repr__ = __str__


P_ZERO = PolyM()
P_ONE = PolyM.const(1)
_ONE = P_ONE.c


def poly_gcd(a: PolyM, b: PolyM) -> PolyM:
    while b.c:
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic() if a.c else P_ONE


class RatM:
    """Rational function in m: num/den, den monic and gcd-free."""

    __slots__ = ("num", "den")

    def __init__(self, num: PolyM, den: PolyM = P_ONE, _reduced=False):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = P_ZERO, P_ONE
            return
        if not _reduced:
            # a constant denominator has no factor to cancel
            if den.degree() > 0:
                g = poly_gcd(num, den)
                if g.degree() > 0:
                    num, _ = num.divmod(g)
                    den, _ = den.divmod(g)
            lead = den.c[-1]
            if lead != 1:
                num = num.scale(Fraction(1, 1) / lead)
                den = den.monic()
        self.num, self.den = num, den

    @staticmethod
    def const(x) -> "RatM":
        return RatM(PolyM.const(x), P_ONE, _reduced=True)

    @staticmethod
    def poly(coeffs) -> "RatM":
        return RatM(PolyM(coeffs), P_ONE, _reduced=True)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        return (isinstance(other, RatM) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if self.den.c == _ONE and other.den.c == _ONE:
            return RatM(self.num + other.num, P_ONE, _reduced=True)
        return RatM(self.num * other.den + other.num * self.den,
                    self.den * other.den)

    def __neg__(self):
        # -num/den is reduced and monic when num/den is
        out = object.__new__(RatM)
        out.num, out.den = -self.num, self.den
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.den.c == _ONE and other.den.c == _ONE:
            return RatM(self.num * other.num, P_ONE, _reduced=True)
        return RatM(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatM(self.num * other.den, self.den * other.num)

    def is_polynomial(self) -> bool:
        return self.den == P_ONE

    def __str__(self):
        if self.den == P_ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


R_ZERO = RatM.const(0)


class Scalar:
    """Element of Q(i)(m): re + i*im with RatM parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RatM, im: RatM = R_ZERO):
        self.re, self.im = re, im

    @staticmethod
    def of(p, q=1) -> "Scalar":
        return Scalar(RatM.const(Fraction(p, q)))

    @staticmethod
    def poly(coeffs) -> "Scalar":
        return Scalar(RatM.poly(coeffs))

    @staticmethod
    def imag(x=1) -> "Scalar":
        return Scalar(R_ZERO, RatM.const(Fraction(x)))

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def is_real(self) -> bool:
        return self.im.is_zero()

    def __eq__(self, other):
        return (isinstance(other, Scalar) and self.re == other.re
                and self.im == other.im)

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        if self.im.is_zero() and other.im.is_zero():
            return Scalar(self.re + other.re)
        return Scalar(self.re + other.re, self.im + other.im)

    def __neg__(self):
        if self.im.is_zero():  # a real value keeps its zero imaginary part
            return Scalar(-self.re, self.im)
        return Scalar(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not other.im:
            if not self.im:
                return Scalar(self.re * other.re)
            return Scalar(self.re * other.re, self.im * other.re)
        if not self.im:
            return Scalar(self.re * other.re, self.re * other.im)
        return Scalar(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        n2 = other.re * other.re + other.im * other.im
        if n2.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        return Scalar((self.re * other.re + self.im * other.im) / n2,
                      (self.im * other.re - self.re * other.im) / n2)

    def real_poly_coeffs(self):
        """Ascending Fraction coefficients; requires a real polynomial value."""
        if not self.im.is_zero():
            raise ValueError(f"scalar has imaginary part: {self}")
        if not self.re.is_polynomial():
            raise ValueError(f"scalar is not polynomial in m: {self}")
        return list(self.re.num.c)

    def __str__(self):
        if self.im.is_zero():
            return str(self.re)
        if self.re.is_zero():
            return f"i*({self.im})"
        return f"({self.re}) + i*({self.im})"

    __repr__ = __str__


S_ONE = Scalar.of(1)
S_I = Scalar.imag(1)
S_N = Scalar.poly((0, 2))


def vol_sphere_value(m: int):
    """Exact Vol(S^{2m-1}) = 2*pi^m/(m-1)! as (rational, pi power)."""
    if m < 1:
        raise ValueError(f"half-dimension must be positive, got {m}")
    return Fraction(2, factorial(m - 1)), m
