"""Cyclotomic field arithmetic: worked values, oracles, and field axioms."""

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qident import special
from qident.coeff import (
    CycloNumber,
    _power_table,
    _powers,
    _times_table,
    csc_pi,
    cyclo_embed,
    cyclotomic_poly,
    euler_phi,
    lift_order,
    one,
    sin_pi,
    zero,
    zeta_power,
)
from qident.dsl import eval_expr, parse
from qident.errors import OrderMismatchError
from qident.series import Monomial, QSeries

from oracles import (
    carry_power_table,
    count_products,
    fraction_dot,
    schoolbook_mul,
    triple_loop_table,
)


def sympy_zeta_power(M, k):
    """Oracle: canonical coefficients of zeta_M^k via sympy polynomial rem."""
    x = sympy.Symbol("x")
    phi = sympy.cyclotomic_poly(M, x)
    rem = sympy.rem(x ** (k % M), phi, x)
    poly = sympy.Poly(rem, x)
    deg = sympy.degree(phi, x)
    out = [Fraction(0)] * deg
    for e, c in zip(poly.monoms(), poly.coeffs()):
        out[e[0]] = Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
    return tuple(out)


class TestCyclotomicPoly:
    def test_small_cases(self):
        assert cyclotomic_poly(1) == (-1, 1)
        assert cyclotomic_poly(2) == (1, 1)
        assert cyclotomic_poly(3) == (1, 1, 1)
        assert cyclotomic_poly(4) == (1, 0, 1)
        assert cyclotomic_poly(6) == (1, -1, 1)
        assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)

    @pytest.mark.parametrize("M", range(1, 40))
    def test_against_sympy(self, M):
        x = sympy.Symbol("x")
        ref = sympy.Poly(sympy.cyclotomic_poly(M, x), x).all_coeffs()[::-1]
        assert tuple(int(c) for c in ref) == cyclotomic_poly(M)

    def test_euler_phi(self):
        assert [euler_phi(m) for m in (1, 2, 3, 4, 5, 6, 12, 30)] == [
            1, 1, 2, 2, 4, 2, 4, 8,
        ]


class TestWorkedValues:
    def test_embed_vector(self):
        e = cyclo_embed(Fraction(-3, 2), 4)
        assert tuple(Fraction(int(c.numerator), int(c.denominator)) for c in e.coeffs) == (
            Fraction(-3, 2),
            Fraction(0),
        )
        with pytest.raises(ValueError, match="expected 4 coefficients for order 5"):
            CycloNumber(5, [1, 2])
        for build in (lambda: CycloNumber(0, []), lambda: cyclotomic_poly(0)):
            with pytest.raises(ValueError, match="order must be positive"):
                build()
        with pytest.raises(AttributeError, match="CycloNumber is immutable"):
            e.order = 3

    def test_zeta6_cubed_is_minus_one(self):
        assert zeta_power(6, 3) == -1
        assert zeta_power(6, 3).rational_value() == -1
        with pytest.raises(ValueError, match="is not rational"):
            zeta_power(5, 1).rational_value()

    def test_zeta3_plus_square_is_minus_one(self):
        z = zeta_power(3, 1)
        assert z + z * z == -1

    def test_inverse_of_one_minus_zeta3(self):
        w = one(3) - zeta_power(3, 1)
        got = w.inv()
        expected = (cyclo_embed(2, 3) + zeta_power(3, 1)) * cyclo_embed(
            Fraction(1, 3), 3
        )
        assert got == expected
        assert w * got == 1

    def test_lift_zeta3_into_order_12(self):
        assert lift_order(zeta_power(3, 1), 12) == zeta_power(12, 4)

    def test_sin_values(self):
        assert sin_pi(1, 2, 8) == 1
        assert sin_pi(1, 6, 12) == Fraction(1, 2)
        s = sin_pi(1, 4, 8)
        assert s * s == Fraction(1, 2)
        assert csc_pi(1, 6, 12) == 2

    def test_sin_precondition(self):
        with pytest.raises(ValueError):
            sin_pi(0, 3, 12)
        with pytest.raises(ValueError):
            sin_pi(3, 3, 12)
        with pytest.raises(ValueError):
            sin_pi(1, 3, 6)  # 6 not divisible by lcm(4, 6) = 12

    def test_order_mismatch_raises(self):
        with pytest.raises(OrderMismatchError):
            zeta_power(3, 1) + zeta_power(4, 1)
        # an operand that is no number: each operator gives NotImplemented
        z = zeta_power(3, 1)
        for op in (lambda: z + "x", lambda: z - "x", lambda: "x" - z, lambda: z * "x"):
            with pytest.raises(TypeError):
                op()
        assert z != "x"
        with pytest.raises(ValueError, match="coefficient field order mismatch"):
            QSeries(1, 5, {0: zeta_power(3, 1)}, 1)

    def test_lift_requires_divisibility(self):
        with pytest.raises(OrderMismatchError):
            lift_order(zeta_power(3, 1), 8)


class TestAgainstSympyOracle:
    @pytest.mark.parametrize("M", [3, 4, 5, 6, 8, 9, 12, 15, 16, 20, 24])
    def test_zeta_powers(self, M):
        for k in range(M):
            got = zeta_power(M, k)
            want = sympy_zeta_power(M, k)
            assert tuple(
                Fraction(int(c.numerator), int(c.denominator)) for c in got.coeffs
            ) == want, (M, k)

    @pytest.mark.parametrize("M", [5, 7, 8, 12])
    def test_products_reduce_like_sympy(self, M):
        x = sympy.Symbol("x")
        phi = sympy.cyclotomic_poly(M, x)
        for j in range(1, M):
            for k in range(1, M):
                got = zeta_power(M, j) * zeta_power(M, k)
                assert got == zeta_power(M, j + k), (M, j, k)
                rem = sympy.rem(x ** ((j + k) % M), phi, x)
                poly = sympy.Poly(rem, x)
                recon = sum(
                    (
                        cyclo_embed(
                            Fraction(int(sympy.numer(c)), int(sympy.denom(c))), M
                        )
                        * zeta_power(M, int(e[0]))
                        for e, c in zip(poly.monoms(), poly.coeffs())
                    ),
                    zero(M),
                )
                assert got == recon


rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=8
)


def cyclo_numbers(order):
    phi = euler_phi(order)
    return st.lists(rationals, min_size=phi, max_size=phi).map(
        lambda cs: CycloNumber(order, cs)
    )


@st.composite
def order_and_triples(draw):
    order = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]))
    a = draw(cyclo_numbers(order))
    b = draw(cyclo_numbers(order))
    c = draw(cyclo_numbers(order))
    return a, b, c


class TestFieldAxioms:
    @given(order_and_triples())
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, abc):
        a, b, c = abc
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero(a.order) == a
        assert a * one(a.order) == a
        assert a - a == zero(a.order)

    @given(order_and_triples())
    @settings(max_examples=40, deadline=None)
    def test_inverse_law(self, abc):
        a, _, _ = abc
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inv()
        else:
            assert a * a.inv() == one(a.order)

    @given(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 20, 24]),
           st.integers(min_value=-30, max_value=60))
    @settings(max_examples=80, deadline=None)
    def test_zeta_is_mth_root(self, M, k):
        assert zeta_power(M, k) ** M == one(M)
        assert zeta_power(M, k) == zeta_power(M, k % M)
        # a fractional power is refused
        with pytest.raises(TypeError, match="integer exponents"):
            zeta_power(M, k) ** Fraction(1, 2)

    @given(st.sampled_from([(3, 12), (4, 12), (6, 12), (2, 8), (5, 20), (8, 24)]),
           st.integers(min_value=0, max_value=11))
    @settings(max_examples=60, deadline=None)
    def test_lift_is_homomorphism(self, pair, k):
        m, m2 = pair
        a = zeta_power(m, k)
        b = zeta_power(m, k + 1)
        assert lift_order(a * b, m2) == lift_order(a, m2) * lift_order(b, m2)
        assert lift_order(a + b, m2) == lift_order(a, m2) + lift_order(b, m2)
        assert lift_order(a, m2) == zeta_power(m2, (k % m) * (m2 // m))


def lowest_terms(x: CycloNumber) -> bool:
    return len(x.num) == euler_phi(x.order) and x.den > 0 and gcd(x.den, *x.num) == 1


class TestCanonicalForm:
    @given(order_and_triples(), st.sampled_from([1, 5, 7, 11, 13]))
    @settings(max_examples=80, deadline=None)
    def test_results_in_lowest_terms(self, abc, t):
        a, b, _ = abc
        M = a.order
        results = [a + b, a - b, a * b, -a, lift_order(a, 2 * M), lift_order(b, 3 * M)]
        if a:
            results.append(a.inv())
        if gcd(t, M) == 1:
            results.append(a.galois(t))
        for r in results:
            assert lowest_terms(r), (r.num, r.den)
        assert (a - a).key() == (M, (0,) * euler_phi(M), 1)

    @given(order_and_triples())
    @settings(max_examples=80, deadline=None)
    def test_key_equal_exactly_when_elements_equal(self, abc):
        a, b, c = abc
        assert (a.key() == b.key()) == (a == b)
        assert ((a + b) - b).key() == a.key()
        assert ((a * c) + (b * c)).key() == ((a + b) * c).key()
        if b:
            assert ((a * b) * b.inv()).key() == a.key()


@st.composite
def product_inputs(draw):
    """M and two Fraction vectors, each now and then rational, denominators mixed."""
    M = draw(st.sampled_from([1, 3, 4, 5, 12]))
    phi = euler_phi(M)
    vec = st.one_of(
        st.lists(rationals, min_size=phi, max_size=phi),
        rationals.map(lambda r: [r] + [Fraction(0)] * (phi - 1)),
    )
    return M, draw(vec), draw(vec)


class TestProduct:
    @given(product_inputs())
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_oracle(self, inp):
        M, x, y = inp
        got = CycloNumber(M, x) * CycloNumber(M, y)
        assert got.coeffs == fraction_dot(M, [(x, y)])
        assert lowest_terms(got)


class TestTrig:
    @pytest.mark.parametrize("c", [2, 3, 4, 5, 6, 7, 8])
    def test_sin_csc_product(self, c):
        M = 4 * (2 * c) // gcd(4, 2 * c)
        for a in range(1, c):
            assert sin_pi(a, c, M) * csc_pi(a, c, M) == 1

    @pytest.mark.parametrize("c", [3, 4, 5, 6, 7])
    def test_reflection_symmetry(self, c):
        M = 4 * (2 * c) // gcd(4, 2 * c)
        for a in range(1, c):
            assert sin_pi(a, c, M) == sin_pi(c - a, c, M)

    def test_sin_against_sympy(self):
        for c in (3, 4, 5, 6, 8, 12):
            M = 4 * (2 * c) // gcd(4, 2 * c)
            for a in range(1, c):
                val = sin_pi(a, c, M)
                # numeric check through the complex embedding zeta -> exp(2*pi*i/M)
                z = sympy.exp(2 * sympy.pi * sympy.I / M)
                num = sum(
                    Fraction(int(co.numerator), int(co.denominator)) * z**k
                    for k, co in enumerate(val.coeffs)
                )
                diff = sympy.expand_complex(num - sympy.sin(sympy.pi * a / c))
                assert sympy.simplify(diff) == 0


class TestRationalInverse:
    @given(st.sampled_from([1, 2, 3, 4, 5, 12, 60]), rationals.filter(bool))
    @settings(max_examples=80, deadline=None)
    def test_matches_fraction_oracle(self, M, r):
        got = cyclo_embed(r, M).inv()
        assert got.coeffs == (1 / r,) + (Fraction(0),) * (euler_phi(M) - 1)
        assert lowest_terms(got)

    def test_needs_no_multiplication(self, monkeypatch):
        # the five factors 1 - q^(k-5) of poch(2*q, q, 5) each invert r = 1;
        # through the norm, that took two CycloNumber products apiece
        monkeypatch.setattr(special, "_theta_cache", {})
        products = count_products(monkeypatch)
        eval_expr(parse("poch(2*q, q, 5)"), 20)
        assert products[0] <= 1


# every field up to 60, and two primes, with phi(M) = 100 and 210
FIELDS = [*range(1, 61), 101, 211]


def dense_samples(M):
    """Two elements of Q(zeta_M) with every numerator nonzero."""
    rng = random.Random(M)
    return [CycloNumber(M, [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
                            for _ in range(euler_phi(M))]) for _ in range(2)]


def unit_samples(M):
    """(x, k, r) for x = r zeta_M^k, r = +-a/b, at k = 0, 1, M - 1 and one more,
    x built from the shift-and-carry table."""
    rng, out = random.Random(-M), []
    for k in (0, 1 % M, -1 % M, rng.randrange(M)):
        for sign in (1, -1):
            r = sign * Fraction(rng.randint(1, 9), rng.randint(1, 9))
            out.append((CycloNumber(M, [r * c for c in carry_power_table(M)[k]]), k, r))
    return out


class TestOneZetaStep:
    """Power tables, multiplication tables, products and inverses, each made
    by multiplying by zeta_M one step at a time, against the schoolbook
    product reduced by a shift-and-carry power table and the triple-loop
    table over it."""

    @pytest.mark.parametrize("M", FIELDS)
    def test_power_table(self, M):
        assert _power_table(M) == carry_power_table(M)

    @pytest.mark.parametrize("M", FIELDS)
    def test_times_table(self, M):
        for x in dense_samples(M) + [x for x, _, _ in unit_samples(M)]:
            assert _times_table(M, x.num, x.den) == triple_loop_table(M, x.num, x.den), (M, str(x))

    @pytest.mark.parametrize("M", FIELDS)
    def test_products(self, M):
        xs = dense_samples(M) + [x for x, _, _ in unit_samples(M)]
        for x, y in zip(xs, xs[1:] + xs[:2]):
            assert x * y == schoolbook_mul(x, y), (M, str(x), str(y))
        assert xs[0] * xs[0] == schoolbook_mul(xs[0], xs[0])

    @pytest.mark.parametrize("M", FIELDS)
    def test_inverses(self, M):
        # one dense inverse at M = 211: through the norm, each takes seconds
        for x in dense_samples(M)[:1 if M > 101 else 2]:
            assert schoolbook_mul(x, x.inv()).is_one(), (M, str(x))
        for x, k, r in unit_samples(M):
            want = CycloNumber(M, [c / r for c in carry_power_table(M)[-k % M]])
            assert x.inv() == want and lowest_terms(x.inv()), (M, k, r)


def naive_powers(x, lo, count):
    """(cols, den) of _powers(x, lo, count) from running CycloNumber
    products: x^(lo + j) at slot j over den = x.den^(lo + count - 1)."""
    den, p = x.den ** (lo + count - 1), x if lo else one(x.order)
    cols = [[] for _ in x.num]
    for _ in range(count):
        for col, v in zip(cols, p.num):
            col.append(v * (den // p.den))
        p = p * x
    return cols, den


class TestPowers:
    # counts below, at and past every period of +-zeta_M^k, M <= 12
    COUNTS = range(1, 28)

    @pytest.mark.parametrize("lo", [0, 1])
    @pytest.mark.parametrize("M", range(1, 13))
    def test_roots_of_unity_match_running_products(self, M, lo):
        for k in range(M):
            for x in (zeta_power(M, k), -zeta_power(M, k)):
                for count in self.COUNTS:
                    assert _powers(x, lo, count) == naive_powers(x, lo, count), (M, k, x, count)

    @pytest.mark.parametrize("lo", [0, 1])
    @pytest.mark.parametrize("x", [
        cyclo_embed(2, 1), cyclo_embed(Fraction(1, 2), 1), cyclo_embed(Fraction(-1, 2), 4),
        one(5) + zeta_power(5, 1), zeta_power(6, 1) * cyclo_embed(Fraction(1, 2), 6), zero(3),
    ], ids=["2", "1/2", "-1/2", "1+z5", "z6/2", "0"])
    def test_other_numbers_match_running_products(self, x, lo):
        # 1 + zeta_5 has norm 1 but infinite order, and zeta_6/2 has
        # numerators that repeat with period 6: neither repeats its powers
        for count in self.COUNTS:
            assert _powers(x, lo, count) == naive_powers(x, lo, count), (x, count)


class TestGalois:
    @pytest.mark.parametrize("M,t", [(5, 2), (5, 3), (7, 3), (8, 3), (12, 5), (12, 7)])
    def test_automorphism_on_products(self, M, t):
        a = zeta_power(M, 1) + cyclo_embed(Fraction(1, 2), M)
        b = zeta_power(M, 2) - cyclo_embed(3, M)
        assert (a * b).galois(t) == a.galois(t) * b.galois(t)
        assert (a + b).galois(t) == a.galois(t) + b.galois(t)
        assert zeta_power(M, 1).galois(t) == zeta_power(M, t)

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            zeta_power(6, 1).galois(2)


class TestPrinting:
    def test_rational_prints_plain(self):
        assert str(cyclo_embed(Fraction(-3, 2), 4)) == "-3/2"
        assert str(zero(12)) == "0"

    def test_polynomial_form(self):
        z = zeta_power(12, 1)
        assert str(z) == "z12"
        assert str(2 * z**2 - cyclo_embed(Fraction(1, 2), 12)) == "2*z12^2 - 1/2"
        assert str(-z) == "-z12"
        # a monomial c*q^e prints its coefficient in parentheses, a sign
        # alone when it is -1
        assert str(Monomial.make(-1, 1)) == "-q^(1/1)"
        assert str(Monomial(z, Fraction(1, 2))) == "(z12)*q^(1/2)"
