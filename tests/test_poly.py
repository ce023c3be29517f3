import operator
import random
import re
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from conley import poly
from conley.errors import DomainError
from conley.linalg import RationalMatrix
from conley.poly import (ONE, T, ZERO, IntPolynomial, RationalFunction,
                         _pseudo_rem, poly_divmod, poly_gcd, poly_mul,
                         ratfunc_inv, ratfunc_mul, squarefree_decomposition)
from conley.report import build_jordan_report, build_zeta_report
from conley.system_io import system_from_dict

from oracles import poly_divmod_oracle, poly_gcd_oracle, pseudo_rem_oracle


def P(*coeffs):
    return IntPolynomial(coeffs)


class TestArithmetic:
    def test_mul_difference_of_squares(self):
        assert poly_mul(P(1, -1), P(1, 1)) == P(1, 0, -1)

    def test_mul_by_zero(self):
        assert poly_mul(P(1, 2, 3), ZERO) == ZERO
        assert P(1, 2, 3) * 0 == 0 * P(1, 2, 3) == ZERO

    def test_mul_by_int(self):
        p = P(1, -2, 3)
        assert p * 3 == 3 * p == p * P(3) == P(3, -6, 9)
        with pytest.raises(DomainError):
            p * True

    def test_trailing_zeros_trimmed(self):
        assert P(1, 2, 0, 0) == P(1, 2)
        assert P(0, 0).is_zero

    def test_degree_and_leading(self):
        assert P(1, -1, 1).degree == 2
        assert ZERO.degree == -1
        assert P(3, 5).leading == 5

    def test_evaluate(self):
        p = P(1, -1, 1)          # 1 - t + t^2
        assert p(0) == 1
        assert p(2) == 3
        assert p(-1) == 3

    def test_derivative(self):
        assert P(7, 3, 0, 2).derivative() == P(3, 0, 6)

    def test_str_ascending(self):
        assert str(P(1, -1, 1)) == "1 - t + t^2"
        assert str(P(0, 2, 0, -1)) == "2t - t^3"
        assert str(ZERO) == "0"

    def test_rejects_fractional_coefficients(self):
        with pytest.raises(DomainError):
            IntPolynomial([1.5])

    @pytest.mark.parametrize("bad, shown", [
        (True, "True"), (Fraction(1, 2), "1/2"), (Fraction(-7, 3), "-7/3"),
        ("1", "'1'"), (Fraction(10 ** 5000, 3), "<integer of 16610 bits>/3"),
    ], ids=["bool", "half", "negative", "string", "huge"])
    def test_public_constructor_checks_every_coefficient(self, bad, shown):
        # Results built inside the module skip this check; a caller's
        # coefficients do not, and a huge one is abbreviated, not str()-ed.
        with pytest.raises(DomainError, match=re.escape(
                f"coefficient {shown} is not an integer")):
            IntPolynomial([1, bad])

    def test_content_and_normalized(self):
        assert P(2, 4, -6).content() == 2
        assert P(-4, -6).content() == 2
        assert ZERO.content() == 0
        assert P(-2, -4).normalized() == P(1, 2)
        assert P(2, 4).normalized() == P(1, 2)


class TestDivmod:
    def test_synthetic_division(self):
        # t^2 - t + 1 = (t - 1) t + 1
        quot, rem = poly_divmod(P(1, -1, 1), P(-1, 1))
        assert quot == T
        assert rem == ONE

    def test_exact_division(self):
        quot, rem = poly_divmod(P(-1, 0, 1), P(-1, 1))
        assert (quot, rem) == (P(1, 1), ZERO)

    def test_divide_by_zero(self):
        with pytest.raises(DomainError):
            poly_divmod(P(1, 1), ZERO)

    def test_non_integral_result_is_refused(self):
        # t^2 / 2t = t/2 over the rationals; not an integer polynomial
        with pytest.raises(DomainError):
            poly_divmod(P(0, 0, 1), P(0, 2))

    def test_identity_holds(self):
        rng = random.Random(7)
        for _ in range(50):
            p = P(*[rng.randint(-4, 4) for _ in range(rng.randint(1, 6))])
            q_coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))]
            q = IntPolynomial(q_coeffs + [1])     # monic divisor
            quot, rem = poly_divmod(p, q)
            assert quot * q + rem == p
            assert rem.degree < q.degree


class TestGcd:
    def test_shared_root(self):
        assert poly_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)

    def test_primitive_positive_leading(self):
        assert poly_gcd(P(-2, 0, 2), P(-4, 4)) == P(-1, 1)
        assert poly_gcd(P(0, -3), P(0, 0, -6)) == P(0, 1)

    def test_gcd_with_zero(self):
        assert poly_gcd(ZERO, P(-2, 2)) == P(-1, 1)
        assert poly_gcd(ZERO, ZERO) == ZERO

    def test_coprime(self):
        assert poly_gcd(P(1, 0, 1), P(-1, 1)) == ONE

    def test_divides_both(self):
        rng = random.Random(11)
        for _ in range(40):
            g = IntPolynomial([rng.randint(-3, 3)
                               for _ in range(rng.randint(0, 2))] + [1])
            a = g * P(*[rng.randint(-3, 3) for _ in range(3)])
            b = g * P(*[rng.randint(-3, 3) for _ in range(3)])
            if a.is_zero or b.is_zero:
                continue
            d = poly_gcd(a, b)
            _, ra = poly_divmod(a, d)
            _, rb = poly_divmod(b, d)
            assert ra.is_zero and rb.is_zero
            assert d.content() == 1 and d.leading > 0


class TestSquarefree:
    def test_double_roots_grouped(self):
        # (t-1)^2 t^2 = t^4 - 2 t^3 + t^2
        parts = squarefree_decomposition(P(0, 0, 1, -2, 1))
        assert parts == [(P(0, -1, 1), 2)]

    def test_already_squarefree(self):
        assert squarefree_decomposition(P(1, 0, 1)) == [(P(1, 0, 1), 1)]

    def test_pure_power(self):
        assert squarefree_decomposition(P(0, 0, 0, 1)) == [(T, 3)]

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            squarefree_decomposition(ZERO)

    def test_constant_gives_empty(self):
        assert squarefree_decomposition(P(5)) == []

    def test_reassembles_up_to_unit(self):
        rng = random.Random(23)
        for _ in range(60):
            p = ONE
            for _ in range(rng.randint(1, 3)):
                factor = IntPolynomial(
                    [rng.randint(-2, 2) for _ in range(rng.randint(1, 2))]
                    + [1])
                p = p * factor ** rng.randint(1, 3)
            parts = squarefree_decomposition(p)
            product = ONE
            for factor, mult in parts:
                assert squarefree_decomposition(factor) == [(factor, 1)]
                product = product * factor ** mult
            assert product == p.normalized()
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    assert poly_gcd(parts[i][0], parts[j][0]) == ONE


class TestRationalFunction:
    def test_cancel_to_one(self):
        f = RationalFunction(1, P(1, -1))
        assert ratfunc_mul(f, RationalFunction(P(1, -1))).is_one

    def test_mixed_product(self):
        f = RationalFunction(1, P(1, -1))
        g = RationalFunction(P(1, -1, 1))
        assert ratfunc_mul(f, g) == RationalFunction(P(1, -1, 1), P(1, -1))

    def test_inverse_normalisation(self):
        # 2 / (1 - t) inverted: numerator 1 - t over denominator 2
        f = RationalFunction(P(2), P(1, -1))
        inv = ratfunc_inv(f)
        assert inv.num == P(1, -1)
        assert inv.den == P(2)

    def test_denominator_leading_positive(self):
        f = RationalFunction(1, P(1, -1))
        assert f.den.leading > 0
        assert f == RationalFunction(P(-1), P(-1, 1))

    def test_invert_zero(self):
        with pytest.raises(DomainError):
            ratfunc_inv(RationalFunction(0, ONE))

    def test_zero_denominator(self):
        with pytest.raises(DomainError):
            RationalFunction(ONE, ZERO)

    def test_is_polynomial(self):
        assert RationalFunction(P(2, 2), P(2)).is_polynomial
        assert not RationalFunction(ONE, P(2)).is_polynomial
        assert not RationalFunction(ONE, P(1, -1)).is_polynomial

    def test_group_property(self):
        rng = random.Random(41)
        for _ in range(60):
            num = IntPolynomial([rng.randint(-3, 3)
                                 for _ in range(rng.randint(1, 4))])
            den = IntPolynomial([rng.randint(-3, 3)
                                 for _ in range(rng.randint(0, 3))] + [1])
            if num.is_zero:
                continue
            f = RationalFunction(num, den)
            assert ratfunc_mul(f, ratfunc_inv(f)).is_one

    def test_powers(self):
        f = RationalFunction(P(1, -1))
        assert f ** 2 == RationalFunction(P(1, -2, 1))
        assert f ** -1 == RationalFunction(1, P(1, -1))
        assert (f ** 0).is_one

    def test_polynomial_operand_defers_to_the_rational_function(self):
        p, f = P(1, 1), RationalFunction(1, P(1, -1))
        assert p * f == f * p == RationalFunction(P(1, 1), P(1, -1))
        for op in (operator.add, operator.sub):
            with pytest.raises(TypeError, match="unsupported operand"):
                op(p, f)
            with pytest.raises(TypeError, match="unsupported operand"):
                op(f, p)

    @pytest.mark.parametrize("other", ["t", 1.5, Fraction(1, 2), [1, 1]])
    def test_product_with_an_unsupported_operand(self, other):
        f = RationalFunction(1, P(1, -1))
        with pytest.raises(TypeError):
            f * other
        with pytest.raises(TypeError):
            other * f


# (x, u, one) per type: x is raised to n = 0..12, the unit u to exponents
# past 2^1200, and one is what ``** 0`` gives.
_POWER_CASES = {
    "polynomial": (P(1, -1, 2), P(-1), ONE),
    "rational-function": (RationalFunction(P(1, 1), P(1, -2)),
                          RationalFunction(P(-1)), RationalFunction(1)),
    "matrix": (RationalMatrix.from_rows([[1, 2], [Fraction(1, 3), -1]]),
               -RationalMatrix.identity(2), RationalMatrix.identity(2)),
}


@pytest.mark.parametrize("kind", sorted(_POWER_CASES))
def test_power_is_square_and_multiply(kind, monkeypatch):
    x, unit, one = _POWER_CASES[kind]
    cls = type(x)
    mul = cls.__mul__
    products = []
    monkeypatch.setattr(cls, "__mul__",
                        lambda a, b: products.append(1) or mul(a, b))
    expected = one
    for n in range(13):
        products.clear()
        assert x ** n == expected
        # One squaring per bit of n after the first and one product by x
        # per further set bit: the products of (x^(n//2))^2 x^(n%2).
        assert len(products) == (n.bit_length() + bin(n).count("1") - 2
                                 if n else 0)
        if kind == "rational-function" and n:
            assert x ** -n == expected.inverse()
        expected = mul(expected, x)
    assert unit ** 2 ** 1200 == one
    assert unit ** (2 ** 1200 + 1) == unit


# Integer polynomials for the properties below: degree <= max_degree and
# coefficients in -5..5, so zero, constants and negative leading
# coefficients all come up.
def _polys(max_degree):
    return st.lists(st.integers(-5, 5),
                    max_size=max_degree + 1).map(IntPolynomial)


# Polynomials that are never zero: any lower coefficients under a nonzero,
# often non-unit, leading coefficient.
_NONZERO_LEADS = st.sampled_from([-3, -2, -1, 1, 2, 3])


def _nonzero_polys(max_degree):
    return st.tuples(st.lists(st.integers(-5, 5), max_size=max_degree),
                     _NONZERO_LEADS).map(
        lambda t: IntPolynomial(t[0] + [t[1]]))


_SCALES = st.sampled_from([1, -1, 2, -3, 6])


@st.composite
def _gcd_pairs(draw):
    """Two polynomials of degree <= 8 sharing a planted factor, each
    scaled by an integer that may make it non-primitive or flip its
    leading sign."""
    planted = draw(st.just(ONE) | _nonzero_polys(3))
    return tuple(draw(_polys(5)) * planted * draw(_SCALES)
                 for _ in range(2))


def _fractions(p):
    return [Fraction(c) for c in p.coeffs]


def _primitive_oracle(cs):
    """A nonzero Fraction list scaled to a primitive integer polynomial
    with positive leading coefficient."""
    den = lcm(*(c.denominator for c in cs))
    return IntPolynomial([int(c * den) for c in cs]).normalized()


@st.composite
def _remainder_pairs(draw):
    """(a, b) as _pseudo_rem takes them: len(a) >= len(b) > 1, b's leading
    entry positive and often above 1, and a with zeros inside, so steps
    are skipped and scale factors build up between the ones that run."""
    b = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    b.append(draw(st.integers(1, 6)))
    inner = st.one_of(st.just(0), st.integers(-9, 9))
    a = draw(st.lists(inner, min_size=len(b) - 1, max_size=10))
    a.append(draw(st.sampled_from([-6, -4, -1, 1, 3, 5])))
    return a, b


def _canonical_product(f, g):
    """(num, den) of f * g: multiplied out, cancelled by one gcd of the full
    products, divided by long division over Q, and scaled to a positive
    leading denominator and coprime integer contents."""
    num, den = f.num * g.num, f.den * g.den
    if num.is_zero:
        return ZERO, ONE
    common = _fractions(poly_gcd(num, den))
    num, den = (IntPolynomial(poly_divmod_oracle(_fractions(p), common)[0])
                for p in (num, den))
    if den.leading < 0:
        num, den = -num, -den
    k = gcd(num.content(), den.content())
    return (IntPolynomial([c // k for c in num.coeffs]),
            IntPolynomial([c // k for c in den.coeffs]))


# Five basic sets whose zeta factors 1 - t, 1 + t and 1 - t - t^2 recur
# across sets, so the running product both cancels and multiplies.
_ZETA_SYSTEM = {
    "basic_sets": [
        {"name": "a", "index": 1, "matrix": [[1, 1], [1, 0]]},
        {"name": "b", "index": 0, "matrix": [[1, 0], [0, -1]]},
        {"name": "c", "index": 1, "matrix": [[1]]},
        {"name": "d", "index": 2, "matrix": [[0, 1], [1, 1]]},
        {"name": "e", "index": 1, "matrix": [[-1]]},
    ],
    "ambient": {"dim": 2, "homology_maps": {}},
}


def test_zeta_product_divides_only_by_nonconstant_gcds(monkeypatch):
    divisors = []
    exact_div = poly.exact_div

    def recording(p, q):
        divisors.append(q)
        return exact_div(p, q)

    monkeypatch.setattr(poly, "exact_div", recording)
    report = build_zeta_report(system_from_dict(_ZETA_SYSTEM))
    assert report["product"]["display"] == "1"
    assert divisors
    assert all(q.degree > 0 for q in divisors)
    # Yun's loop in squarefree_decomposition: (t - 1)^3 has no factor of
    # multiplicity 1 or 2, so those steps' gcds are 1 and divide nothing.
    divisors.clear()
    report = build_jordan_report(system_from_dict({"basic_sets": [
        {"name": "j", "index": 1,
         "matrix": [[1, 1, 0], [0, 1, 1], [0, 0, 1]]}]}))
    assert report["basic_sets"][0]["jordan_profile"][0]["block_sizes"] == [3]
    assert divisors
    assert all(q.degree > 0 for q in divisors)


class TestIntegerLayerAgainstOracles:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_remainder_pairs())
    def test_pseudo_remainder_matches_whole_remainder_rescaling(self, pair):
        a, b = pair
        assert _pseudo_rem(a, b) == pseudo_rem_oracle(a, b)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_gcd_pairs())
    def test_gcd_matches_euclid_over_q(self, pair):
        a, b = pair
        if a.is_zero and b.is_zero:
            expected = ZERO
        else:
            expected = _primitive_oracle(
                poly_gcd_oracle(_fractions(a), _fractions(b)))
        assert poly_gcd(a, b) == expected
        assert poly_gcd(b, a) == expected

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.one_of(
        st.tuples(_polys(8), _nonzero_polys(4)),
        # p = q s + r with deg r < deg q: an integral result over Q.
        st.tuples(_nonzero_polys(4), _polys(4), _polys(3)).map(
            lambda t: (t[0] * t[1] + IntPolynomial(
                t[2].coeffs[:t[0].degree]), t[0]))))
    def test_divmod_matches_long_division_over_q(self, pair):
        p, q = pair
        quot, rem = poly_divmod_oracle(_fractions(p), _fractions(q))
        if all(c.denominator == 1 for c in quot + rem):
            assert poly_divmod(p, q) == (IntPolynomial(quot),
                                         IntPolynomial(rem))
        else:
            with pytest.raises(DomainError):
                poly_divmod(p, q)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_nonzero_polys(2), _nonzero_polys(2), _polys(3),
           _nonzero_polys(3), _polys(3), _nonzero_polys(3), _SCALES,
           _SCALES)
    def test_product_matches_reduction_of_full_product(
            self, h1, h2, n1, d1, n2, d2, s1, s2):
        # h1 is planted in f's numerator and g's denominator, h2 in g's
        # numerator and f's denominator, so both cross gcds can be
        # nontrivial; the scales give integer content to cancel.
        f = RationalFunction(n1 * h1 * s1, d1 * h2)
        g = RationalFunction(n2 * h2, d2 * h1 * s2)
        expected = RationalFunction(f.num * g.num, f.den * g.den)
        assert f * g == expected
        assert g * f == expected
        assert f * g.num == RationalFunction(f.num * g.num, f.den)
        # The same, with the canonical form built by hand from one gcd.
        for x, y in ((f, g), (g, f), (f, f)):
            product = x * y
            assert (product.num, product.den) == _canonical_product(x, y)
            assert poly_gcd_oracle(_fractions(product.num),
                                   _fractions(product.den)) == [1]
