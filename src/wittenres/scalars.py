"""Exact coefficient arithmetic.

Every coefficient in the engine is a Gaussian polynomial in the
half-dimension symbol m, an element of Q(i)[m].  All arithmetic is exact;
nothing here ever touches floating point.

A Scalar holds Python ints: the numerators of its real and its imaginary
coefficients over one shared positive denominator, in lowest terms, so
equal values compare and hash equal.  Sums, products and negations are int
list operations, kept lowest by one int gcd, and build no Fraction per
coefficient and no PolyM per operand.  The one denominator in m the engine
meets, the cosphere moment n (n+2) ... (n+2k-2), never enters a
coefficient: `sphere.integrate_term` counts pairings in units of the volume
over that polynomial, and `residue.wres_density` divides each density by it
once (`PolyM.divmod`).  `real_poly` gives a real value as the PolyM the
report prints.

PolyM, a polynomial in m with Fraction coefficients, carries the ledger
values, their sums and that one division.  RatM, a rational function of m,
and `poly_gcd` stay only because the benchmark in `bench/` wraps them by
name: nothing in the package builds a RatM.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class PolyM:
    """Univariate polynomial in m, dense ascending coefficient tuple."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        c = [x if isinstance(x, Fraction) else Fraction(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.c = tuple(c)

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
        return PolyM([-x for x in self.c])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.c or not other.c:
            return PolyM()
        # a constant factor scales each coefficient in place
        if len(other.c) == 1:
            k = other.c[0]
            return PolyM([a * k for a in self.c])
        if len(self.c) == 1:
            k = self.c[0]
            return PolyM([k * b for b in other.c])
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
P_ONE = PolyM((1,))


def poly_gcd(a: PolyM, b: PolyM) -> PolyM:
    """The monic gcd of two polynomials.  Only RatM calls it; it stays
    while `bench/verdict.py` wraps it by name."""
    while b.c:
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic() if a.c else P_ONE


class RatM:
    """Rational function in m: num/den, den monic and gcd-free.

    Nothing in the package builds one.  It stays, with its operators, while
    `bench/verdict.py` wraps them by name and `tests/test_bench_contract.py`
    checks that they exist.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: PolyM, den: PolyM = P_ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = P_ZERO, P_ONE
            return
        # a constant numerator or denominator has no factor to cancel
        if den.degree() > 0 and num.degree() > 0:
            # the first Euclid step: a denominator that divides the
            # numerator is the whole gcd
            quot, rem = num.divmod(den)
            if not rem:
                num, den = quot, P_ONE
            else:
                g = poly_gcd(den, rem)
                if g.degree() > 0:
                    num, _ = num.divmod(g)
                    den, _ = den.divmod(g)
        lead = den.c[-1]
        if lead != 1:
            num = num.scale(Fraction(1, 1) / lead)
            den = den.monic()
        self.num, self.den = num, den

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
        return RatM(self.num * other.den + other.num * self.den,
                    self.den * other.den)

    def __neg__(self):
        return RatM(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RatM(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatM(self.num * other.den, self.den * other.num)

    def __str__(self):
        if self.den == P_ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


def _conv(a, b) -> list:
    """The int coefficients of the product of two polynomials."""
    if not a or not b:
        return []
    if len(b) == 1:
        k = b[0]
        return [x * k for x in a]
    if len(a) == 1:
        k = a[0]
        return [k * y for y in b]
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                c[i + j] += x * y
    return c


def _plus(a, b) -> list:
    """The int coefficients of the sum of two polynomials."""
    if len(a) < len(b):
        a, b = b, a
    c = list(a)
    for k, y in enumerate(b):
        c[k] += y
    return c


def _lowest(re: list, im: list, den: int) -> "Scalar":
    """The Scalar (re + i*im) / den, from int coefficient lists that it may
    trim and den > 0, in lowest terms."""
    while re and not re[-1]:
        re.pop()
    while im and not im[-1]:
        im.pop()
    if not re and not im:
        return S_ZERO
    g = gcd(den, *re, *im)
    if g != 1:
        re, im, den = [x // g for x in re], [x // g for x in im], den // g
    out = object.__new__(Scalar)
    out.nums, out.inums, out.den = tuple(re), tuple(im), den
    return out


class Scalar:
    """Element of Q(i)[m], re + i*im with re and im real polynomials in m.

    It is held as int numerators over one positive int denominator `den`,
    in lowest terms: `nums` for the real part and `inums` for the imaginary
    one, each in ascending powers of m with no trailing zero.  Every value
    has one form, so equal values have equal fields and equal hashes.
    """

    __slots__ = ("nums", "inums", "den")

    @staticmethod
    def of(p, q=1) -> "Scalar":
        x = Fraction(p, q)
        return _lowest([x.numerator], [], x.denominator)

    @staticmethod
    def poly(coeffs) -> "Scalar":
        """The real polynomial with these rational coefficients, in
        ascending powers of m."""
        c = [Fraction(x) for x in coeffs]
        den = lcm(*[x.denominator for x in c])
        return _lowest([x.numerator * (den // x.denominator) for x in c], [],
                       den)

    def is_zero(self) -> bool:
        return self.nums == self.inums == ()

    def __bool__(self):
        return not self.is_zero()

    def is_real(self) -> bool:
        return not self.inums

    def __eq__(self, other):
        return (isinstance(other, Scalar) and self.nums == other.nums
                and self.inums == other.inums and self.den == other.den)

    def __hash__(self):
        return hash((self.nums, self.inums, self.den))

    def __add__(self, other):
        a, b, da = self.nums, self.inums, self.den
        c, d, db = other.nums, other.inums, other.den
        if da != db:
            g = gcd(da, db)
            sa, sb = db // g, da // g
            a, b = [x * sa for x in a], [x * sa for x in b]
            c, d = [x * sb for x in c], [x * sb for x in d]
            da *= sa
        return _lowest(_plus(a, c), _plus(b, d), da)

    def __neg__(self):
        return _lowest([-x for x in self.nums], [-x for x in self.inums],
                       self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b, c, d = self.nums, self.inums, other.nums, other.inums
        den = self.den * other.den
        if not b and not d:
            return _lowest(_conv(a, c), [], den)
        return _lowest(_plus(_conv(a, c), [-x for x in _conv(b, d)]),
                       _plus(_conv(a, d), _conv(b, c)), den)

    def __truediv__(self, other):
        """The quotient by a nonzero constant, real or not.  ValueError for
        a divisor in m, whose quotient would leave Q(i)[m]."""
        if len(other.nums) > 1 or len(other.inums) > 1:
            raise ValueError(f"division by a polynomial in m: {other}")
        if other.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        a, b, d = (other.nums or (0,))[0], (other.inums or (0,))[0], other.den
        # 1 / ((a + i b) / d) = d (a - i b) / (a^2 + b^2)
        return self * _lowest([d * a], [-d * b], a * a + b * b)

    def _poly(self, nums) -> PolyM:
        return PolyM([Fraction(x, self.den) for x in nums])

    def real_poly(self) -> PolyM:
        """The value as a PolyM; ValueError unless it is real."""
        if not self.is_real():
            raise ValueError(f"scalar has imaginary part: {self}")
        return self._poly(self.nums)

    def __str__(self):
        re, im = self._poly(self.nums), self._poly(self.inums)
        if not im:
            return str(re)
        if not re:
            return f"i*({im})"
        return f"({re}) + i*({im})"

    __repr__ = __str__


# the one zero, which `_lowest` returns, so it is built by hand
S_ZERO = object.__new__(Scalar)
S_ZERO.nums, S_ZERO.inums, S_ZERO.den = (), (), 1
S_ONE = Scalar.of(1)
S_I = _lowest([], [1], 1)
S_N = Scalar.poly((0, 2))
