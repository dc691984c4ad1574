"""Exact coefficient arithmetic.

Every coefficient in the engine is a `Scalar`, an element of Q[m], the
rational polynomials in the half-dimension symbol m: symbols are written in
eta = i xi (see `terms`), so none carries a power of i.  All arithmetic is
exact; nothing here ever touches floating point.

A Scalar holds Python ints: the numerators of its coefficients over one
positive denominator, in lowest terms, so equal values compare and hash
equal.  Sums, products and negations are int list operations, kept lowest
by one int gcd.  The one denominator in m the engine meets, the cosphere
moment n (n+2) ... (n+2k-2), never enters a coefficient:
`sphere.integrate_term` counts pairings in units of the volume over that
polynomial, and `residue.wres_density` divides each density by it once
(`Scalar.divmod`).  The ledger values, their sums and the stored references
are Scalars too, and `Scalar.render` is the one place a value becomes the
text or latex the report prints.

RatM, a rational function of m with Scalar halves, and `poly_gcd` are
bench-only: they stay because the benchmark in `bench/` wraps them by name
(ROADMAP item 17 deletes them), and nothing in the package builds a RatM.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


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


def _lowest(nums: list, den: int) -> "Scalar":
    """The Scalar nums / den in lowest terms (den > 0; nums is trimmed)."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return S_ZERO
    g = gcd(den, *nums)
    if g != 1:
        nums, den = [x // g for x in nums], den // g
    out = object.__new__(Scalar)
    out.nums, out.den = tuple(nums), den
    return out


class Scalar:
    """Element of Q[m], a polynomial in m with rational coefficients.

    It is held as int numerators `nums`, in ascending powers of m with no
    trailing zero, over one positive int denominator `den`, in lowest
    terms.  Every value has one form, so equal values have equal fields and
    equal hashes.
    """

    __slots__ = ("nums", "den")

    @staticmethod
    def of(p, q=1) -> "Scalar":
        x = Fraction(p, q)
        return _lowest([x.numerator], x.denominator)

    @staticmethod
    def poly(coeffs) -> "Scalar":
        """The polynomial with these rational coefficients, ascending in m."""
        c = [Fraction(x) for x in coeffs]
        den = lcm(*[x.denominator for x in c])
        return _lowest([x.numerator * (den // x.denominator) for x in c], den)

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        return (isinstance(other, Scalar) and self.nums == other.nums
                and self.den == other.den)

    def __hash__(self):
        return hash((self.nums, self.den))

    def __add__(self, other):
        a, c, da, db = self.nums, other.nums, self.den, other.den
        if da != db:
            g = gcd(da, db)
            sa, sb = db // g, da // g
            a, c = [x * sa for x in a], [x * sb for x in c]
            da *= sa
        return _lowest(_plus(a, c), da)

    def __neg__(self):
        return _lowest([-x for x in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return _lowest(_conv(self.nums, other.nums), self.den * other.den)

    def __truediv__(self, other):
        """The quotient by a nonzero constant.  ValueError for a divisor in
        m, whose quotient would leave Q[m]."""
        if len(other.nums) > 1:
            raise ValueError(f"division by a polynomial in m: {other}")
        if other.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        return self * Scalar.of(other.den, other.nums[0])

    def degree(self) -> int:
        return len(self.nums) - 1  # -1 for zero

    def divmod(self, other: "Scalar") -> tuple["Scalar", "Scalar"]:
        """(quot, rem) with self == other * quot + rem and rem of lower
        degree than other, which must be nonzero.

        Pseudo-division in ints: the dividend's numerators times
        |lead|^(d+1), for other's leading numerator lead and the degree gap
        d, leave an exact int quotient at every step.
        """
        b = other.nums
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        d = len(self.nums) - len(b)
        if d < 0:
            return S_ZERO, self
        lead = b[-1]
        scale = abs(lead) ** (d + 1)
        rem = [x * scale for x in self.nums]
        quot = [0] * (d + 1)
        for k in range(d, -1, -1):
            coef = quot[k] = rem[k + len(b) - 1] // lead
            for i, y in enumerate(b):
                rem[k + i] -= coef * y
        # scale * nums == quot * b + rem, with self = nums / den and
        # other = b / other.den
        den = scale * self.den
        return _lowest([x * other.den for x in quot], den), _lowest(rem, den)

    def evaluate(self, m) -> Fraction:
        """The value at the number m."""
        acc = 0
        for x in reversed(self.nums):
            acc = acc * m + x
        return Fraction(acc, self.den)

    def coeffs(self) -> list[Fraction]:
        """The rational coefficients, ascending in m; [] for zero."""
        return [Fraction(x, self.den) for x in self.nums]

    def render(self, latex=False) -> str:
        """Descending powers of m, as text ("2/3*m^2 - 1") or as latex
        ("\\frac{2}{3} m^{2} - 1")."""
        parts = []
        c = self.coeffs()
        for d in range(len(c) - 1, -1, -1):
            a = c[d]
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


# the one zero, which `_lowest` returns, so it is built by hand
S_ZERO = object.__new__(Scalar)
S_ZERO.nums, S_ZERO.den = (), 1
S_ONE = Scalar.of(1)
S_N = Scalar.poly((0, 2))


# Bench-only below: `bench/verdict.py` wraps poly_gcd and RatM's operators
# by name, and nothing in the package calls them (ROADMAP item 17).


def poly_gcd(a: Scalar, b: Scalar) -> Scalar:
    """The monic gcd of two polynomials.  Only RatM calls it."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    # times 1 over the leading coefficient
    return S_ONE if a.is_zero() else a * Scalar.of(a.den, a.nums[-1])


class RatM:
    """Rational function in m: num/den of Scalars, den monic and gcd-free.

    Nothing in the package builds one.  It stays, with its operators, while
    `bench/verdict.py` wraps them by name and `tests/test_bench_contract.py`
    checks that they exist.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Scalar, den: Scalar = S_ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = S_ZERO, S_ONE
            return
        # a constant numerator or denominator has no factor to cancel
        if den.degree() > 0 and num.degree() > 0:
            # the first Euclid step: a denominator that divides the
            # numerator is the whole gcd
            quot, rem = num.divmod(den)
            if rem.is_zero():
                num, den = quot, S_ONE
            else:
                g = poly_gcd(den, rem)
                if g.degree() > 0:
                    num, _ = num.divmod(g)
                    den, _ = den.divmod(g)
        inv = Scalar.of(den.den, den.nums[-1])  # 1 over den's lead
        self.num, self.den = num * inv, den * inv

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

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
        if self.den == S_ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__
