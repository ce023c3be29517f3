"""Exact polynomial arithmetic over the integers, plus rational functions.

Coefficients are stored ascending in degree with no trailing zeros, so the
zero polynomial is the empty tuple and ``coeffs[-1]`` is always the leading
coefficient of a nonzero polynomial.  All arithmetic runs on plain ``int``
coefficients: division is integer long division that refuses a quotient
outside Z[t], and gcds come from a primitive pseudo-remainder sequence in a
canonical scaling (primitive, positive leading coefficient).  Products of
rational functions cancel across the two factors before they multiply.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DomainError


def _trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


def _coerce_int(c):
    if isinstance(c, bool):
        raise DomainError(f"coefficient {c!r} is not an integer")
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        if c.denominator != 1:
            raise DomainError(f"coefficient {c} is not an integer")
        return c.numerator
    raise DomainError(f"coefficient {c!r} is not an integer")


class IntPolynomial:
    """Dense integer polynomial, coefficients ascending in degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs",
                           tuple(_trim([_coerce_int(c) for c in coeffs])))

    @property
    def degree(self):
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return IntPolynomial([-c for c in self.coeffs])

    def __add__(self, other):
        other = as_poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-as_poly(other))

    def __rsub__(self, other):
        return as_poly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        other = as_poly(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise DomainError("negative power of a polynomial")
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return IntPolynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def content(self):
        """gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        return g

    def normalized(self):
        """Primitive part with positive leading coefficient."""
        if self.is_zero:
            return self
        g = self.content()
        if self.leading < 0:
            g = -g
        return IntPolynomial([c // g for c in self.coeffs])

    @property
    def is_monic(self):
        return self.leading == 1

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "t" if k == 1 else f"t^{k}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"{'-' if c < 0 else '+'} {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)!r})"


ZERO = IntPolynomial()
ONE = IntPolynomial([1])
T = IntPolynomial([0, 1])


def as_poly(value):
    """Coerce an int or a coefficient sequence to an IntPolynomial."""
    if isinstance(value, IntPolynomial):
        return value
    if isinstance(value, int):
        return IntPolynomial([value])
    return IntPolynomial(value)


def poly_mul(p, q):
    """The product p * q; forwards to ``IntPolynomial.__mul__``."""
    return as_poly(p) * as_poly(q)


def poly_divmod(p, q):
    """Division with remainder in Q[t], restricted to integer results.

    Integer long division: each quotient coefficient is the leading
    remainder coefficient divided by the divisor's leading coefficient.
    When that division leaves a remainder, the quotient over Q has a
    non-integer coefficient and DomainError is raised instead of the
    result being silently rescaled; otherwise quotient and remainder are
    exactly those over Q.  A primitive divisor of an integer polynomial
    always divides it within Z[t] (Gauss), which covers every caller in
    this package.
    """
    p, q = as_poly(p), as_poly(q)
    if q.is_zero:
        raise DomainError("polynomial division by zero")
    den = q.coeffs
    db = len(den) - 1
    lead = den[-1]
    rem = list(p.coeffs)
    quot = [0] * max(len(rem) - db, 0)
    for k in range(len(rem) - 1, db - 1, -1):
        c, r = divmod(rem[k], lead)
        if r:
            raise DomainError(
                f"division of {p} by {q} is not exact over the integers")
        if c:
            quot[k - db] = c
            s = k - db
            rem[s:k] = [x - c * y for x, y in zip(rem[s:k], den)]
    return IntPolynomial(quot), IntPolynomial(rem[:db])


def exact_div(p, q):
    """p / q when q divides p exactly; DomainError otherwise."""
    quot, rem = poly_divmod(p, q)
    if not rem.is_zero:
        raise DomainError(f"{q} does not divide {p}")
    return quot


def _primitive(cs):
    """A nonzero int list divided by its content, leading entry positive."""
    g = gcd(*cs)
    if cs[-1] < 0:
        g = -g
    return cs if g == 1 else [c // g for c in cs]


def _pseudo_rem(a, b):
    """A positive integer multiple of a mod b, for int lists with
    len(a) >= len(b) > 1 and b's leading entry positive.  Each step scales
    the running remainder only by lead(b) / gcd(lead(b), leading term)."""
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    for k in range(len(r) - 1, db - 1, -1):
        c = r[k]
        if not c:
            continue
        g = gcd(c, lead)
        m, c = lead // g, c // g
        s = k - db
        r = [m * x for x in r[:s]] + \
            [m * x - c * y for x, y in zip(r[s:k], b)]
    return _trim(r[:db])


def poly_gcd(p, q):
    """gcd in Q[t], returned primitive with positive leading coefficient.

    Primitive pseudo-remainder sequence on the integer coefficients: (a, b)
    becomes (b, primitive part of a pseudo-remainder of a by b) until the
    remainder vanishes (the gcd is b) or is a constant (the gcd is 1).
    Removing the content at each step keeps the coefficients from growing
    the way a plain pseudo-remainder sequence lets them.
    """
    p, q = as_poly(p), as_poly(q)
    if p.is_zero or q.is_zero:
        return (q if p.is_zero else p).normalized()
    if p.degree == 0 or q.degree == 0:
        return ONE
    a, b = _primitive(p.coeffs), _primitive(q.coeffs)
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _pseudo_rem(a, b)
        if not r:
            return IntPolynomial(b)
        if len(r) == 1:
            return ONE
        a, b = b, _primitive(r)


def squarefree_decomposition(p):
    """Yun decomposition: pairwise-coprime squarefree factors with their
    multiplicities, reassembling to the input up to a rational unit."""
    p = as_poly(p)
    if p.is_zero:
        raise DomainError("zero polynomial has no squarefree decomposition")
    if p.degree == 0:
        return []
    a0 = p.normalized()
    deriv = a0.derivative()
    g = poly_gcd(a0, deriv)
    if g.degree == 0:
        return [(a0, 1)]
    c = exact_div(a0, g)
    d = exact_div(deriv, g) - c.derivative()
    out = []
    i = 1
    while c.degree > 0:
        a = poly_gcd(c, d)
        if a.degree > 0:
            out.append((a, i))
        c = exact_div(c, a)
        d = exact_div(d, a) - c.derivative()
        i += 1
    return out


class RationalFunction:
    """Quotient of integer polynomials in a canonical form: numerator and
    denominator coprime in Q[t] with coprime integer contents, denominator
    with positive leading coefficient.  The representation is unique."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num, den = as_poly(num), as_poly(den)
        if den.is_zero:
            raise DomainError("zero denominator in rational function")
        if not num.is_zero:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = exact_div(num, g), exact_div(den, g)
        settled = self._settled(num, den)
        object.__setattr__(self, "num", settled.num)
        object.__setattr__(self, "den", settled.den)

    @classmethod
    def _settled(cls, num, den):
        """num / den, given coprime in Q[t], with the canonical sign and
        integer content."""
        if num.is_zero:
            num, den = ZERO, ONE
        else:
            if den.leading < 0:
                num, den = -num, -den
            k = gcd(num.content(), den.content())
            if k > 1:
                num = IntPolynomial([c // k for c in num.coeffs])
                den = IntPolynomial([c // k for c in den.coeffs])
        out = cls.__new__(cls)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    @property
    def is_one(self):
        return self.num == ONE and self.den == ONE

    @property
    def is_polynomial(self):
        """True when the canonical denominator is the constant 1, i.e. the
        value lies in Z[t]."""
        return self.den == ONE

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __mul__(self, other):
        if isinstance(other, (IntPolynomial, int)):
            other = RationalFunction(other)
        # Cross-cancellation (Henrici): with both factors canonical, the
        # product's only common factors are these two gcds, so after
        # removing them the new numerator and denominator are coprime.
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        return RationalFunction._settled(
            exact_div(self.num, g1) * exact_div(other.num, g2),
            exact_div(self.den, g2) * exact_div(other.den, g1))

    __rmul__ = __mul__

    def inverse(self):
        if self.num.is_zero:
            raise DomainError("cannot invert the zero rational function")
        return RationalFunction._settled(self.den, self.num)

    def __pow__(self, n):
        base = self
        if n < 0:
            base, n = self.inverse(), -n
        out = RationalFunction(1)
        for _ in range(n):
            out = out * base
        return out

    def __str__(self):
        if self.den == ONE:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RationalFunction({list(self.num.coeffs)!r}, {list(self.den.coeffs)!r})"


RF_ONE = RationalFunction(1)


def ratfunc_mul(f, g):
    """The product f * g; forwards to ``RationalFunction.__mul__``."""
    return f * g


def ratfunc_inv(f):
    """The reciprocal 1 / f; forwards to ``RationalFunction.inverse``."""
    return f.inverse()
