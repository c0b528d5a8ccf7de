"""Eulerian sums, bilateral Lambert series, and root-of-unity combinations."""

from fractions import Fraction as F
from functools import reduce
from math import lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qident.coeff import CycloNumber, cyclo_embed, lift_order, zeta_power
from qident.dsl import eval_expr, parse
from qident.errors import EvalError, NonGenericError
from qident.eulerian import f_c, has_pole
from qident.identity import check, make_case
from qident.series import (
    Monomial,
    series_add,
    series_div,
    series_eq_to_order,
    series_mul,
    series_neg,
    series_scale,
    series_shift,
    series_sub,
)
from qident import series
from qident.special import read_row

from oracles import (
    assert_series_matches,
    dict_mul,
    dict_truncate,
    exact,
    geom_inverse_bruteforce,
    inverse,
    pochhammer_bruteforce,
)

ORDER = F(40)


def mono(c, e=0):
    return Monomial.make(c, F(e))


def zmono(M, k, e=0):
    return Monomial(zeta_power(M, k), F(e))


OMEGAS = [mono(-1), zmono(3, 1), zmono(4, 1), zmono(5, 1)]
Z3, Z4, Z5 = zeta_power(3, 1), zeta_power(4, 1), zeta_power(5, 1)


def ev(source, order, **binding):
    """An Eulerian series, or any expression, through the expression language."""
    return eval_expr(parse(source), order, binding)


def check_eq(lhs, rhs, order):
    v = series_eq_to_order(lhs, rhs, order)
    assert v.status == "pass", v.detail()


def half_quotient(x, order):
    # J(1,2)^2 / (2 j(x;q))
    j12 = read_row("j", (mono(1, 1), 2), order)
    return series_scale(
        series_div(series_mul(j12, j12), read_row("j", (x, 1), order)), F(1, 2)
    )


def one_minus_root(w):
    one = cyclo_embed(F(1), w.field_order)
    return Monomial(one - w.coeff, F(0))


# ---------------------------------------------------------------------------
# Every product-form builder against its docstring, summed naively
# ---------------------------------------------------------------------------


def P(c, e, p, m):
    """(c q^e; q^p)_m as an exact polynomial, c rational or a CycloNumber."""
    return pochhammer_bruteforce(exact(c), F(e), F(p), m)


def naive_sum(term, order, start=0, stop=9):
    """The sum over start <= n < stop of c q^E prod(num) / prod(den) below
    q^order, for (c, E, num, den) = term(n), each c and each coefficient of
    num and den rational or in one cyclotomic field; the last term must
    already lie at or past q^order."""
    out = {}
    for n in range(start, stop):
        c, E, num, den = term(n)
        top = reduce(dict_mul, num, {F(0): F(1)})
        bottom = reduce(dict_mul, den, {F(0): F(1)})
        if not top:
            continue
        low = E + min(top) - min(bottom)
        assert n < stop - 1 or low >= order, (n, low)
        if low >= order:
            continue
        inv = geom_inverse_bruteforce(bottom, order - E - min(top))
        for e, v in dict_mul({F(E): exact(c)}, dict_mul(top, inv)).items():
            out[e] = out.get(e, F(0)) + v
    return dict_truncate({e: v for e, v in out.items() if v}, order)


def naive_g_sum(c, e, p, order):
    """x^(-1) (-1 + sum q^(p n^2) / ((x)_{n+1} (q^p/x)_n)) for x = c q^e."""
    s = naive_sum(lambda n: (1, p * n * n, [], [P(c, e, p, n + 1), P(inverse(c), p - e, p, n)]),
                  order + e)
    s[F(0)] = s.get(F(0), F(0)) - 1
    return {k - e: v * inverse(c) for k, v in s.items() if v}


PRODUCT_FORMS = [
    pytest.param(lambda o: ev("phi()", o), lambda o: naive_sum(
        lambda n: ((-1) ** n, n * n, [P(1, 1, 2, n)], [P(-1, 1, 1, 2 * n)]), o), id="phi"),
    pytest.param(lambda o: ev("sigma()", o), lambda o: naive_sum(
        lambda n: (1, F((n + 2) * (n + 1), 2), [P(-1, 1, 1, n)], [P(1, 1, 2, n + 1)]), o), id="sigma"),
    pytest.param(lambda o: ev("f3()", o), lambda o: naive_sum(
        lambda n: (1, n * n, [], [P(-1, 1, 1, n), P(-1, 1, 1, n)]), o), id="f3"),
    pytest.param(lambda o: ev("f0()", o), lambda o: naive_sum(
        lambda n: (1, n * n, [], [P(-1, 1, 1, n)]), o), id="f0"),
    # K'(1) has no pole: only w = q^(2k), k != 0, zeroes a denominator
    pytest.param(lambda o: ev("Kp(w)", o, w=mono(1)), lambda o: naive_sum(
        lambda n: ((-1) ** n, n * n, [P(1, 1, 2, n)], [P(1, 2, 2, n), P(1, 2, 2, n)]), o), id="Kp-1"),
    pytest.param(lambda o: ev("Kp(w)", o, w=mono(-2, F(1, 2))), lambda o: naive_sum(
        lambda n: ((-1) ** n, n * n, [P(1, 1, 2, n)],
                   [P(-2, F(5, 2), 2, n), P(F(-1, 2), F(3, 2), 2, n)]), o), id="Kp-2"),
    pytest.param(lambda o: ev("Kpp(w)", o, w=mono(3)), lambda o: naive_sum(
        lambda n: ((-1) ** n, n * n, [P(1, 1, 2, n - 1)], [P(3, 1, 2, n), P(F(1, 3), 1, 2, n)]),
        o, start=1), id="Kpp"),
    pytest.param(lambda o: ev("Hp(1,3,-1)", o), lambda o: naive_sum(
        lambda n: (1, F(n * (n + 1), 2), [P(-1, 1, 1, n)],
                   [P(-1, F(1, 3), 1, n + 1), P(-1, F(2, 3), 1, n + 1)]), o), id="Hp"),
    pytest.param(lambda o: ev("lambert_even(x)", o, x=mono(2)), lambda o: naive_sum(
        lambda n: ((-1) ** n, n * n, [P(1, 1, 2, n)], [P(2, 0, 2, n + 1), P(F(1, 2), 2, 2, n)]), o),
        id="lambert-even"),
    pytest.param(lambda o: ev("lambert_odd(x)", o, x=mono(F(-1, 3), F(1, 2))), lambda o: naive_sum(
        lambda n: ((-1) ** n, (n + 1) ** 2, [P(-3, F(-1, 2), 1, 1), P(1, 1, 2, n)],
                   [P(F(-1, 3), F(3, 2), 2, n + 1), P(-3, F(1, 2), 2, n + 1)]), o), id="lambert-odd"),
    pytest.param(lambda o: read_row("g", (mono(2), 1), o), lambda o: naive_sum(
        lambda n: (1, n * (n + 1), [], [P(2, 0, 1, n + 1), P(F(1, 2), 1, 1, n + 1)]), o), id="g"),
    pytest.param(lambda o: read_row("g", (mono(F(-1, 2), F(1, 3)), 2), o), lambda o: naive_sum(
        lambda n: (1, 2 * n * (n + 1), [],
                   [P(F(-1, 2), F(1, 3), 2, n + 1), P(-2, F(5, 3), 2, n + 1)]), o), id="g-base-2"),
    pytest.param(lambda o: ev("g_sum(x, q)", o, x=mono(2)), lambda o: naive_g_sum(2, 0, 1, o),
                 id="g_sum"),
    pytest.param(lambda o: ev("g_sum(x, q^2)", o, x=mono(F(-1, 2), F(1, 3))),
                 lambda o: naive_g_sum(F(-1, 2), F(1, 3), 2, o), id="g_sum-base-2"),
    # Euler: (x; q^p)_inf = sum (-c)^k q^(p binom(k,2) + ek) / (q^p; q^p)_k
    pytest.param(lambda o: read_row("poch", (mono(2, -1), 1, None), o), lambda o: naive_sum(
        lambda k: ((-2) ** k, F(k * (k - 1), 2) - k, [], [P(1, 1, 1, k)]), o), id="poch-inf"),
    pytest.param(lambda o: read_row("poch", (mono(F(-1, 3), F(1, 2)), 2, None), o), lambda o: naive_sum(
        lambda k: (F(1, 3) ** k, k * (k - 1) + F(k, 2), [], [P(1, 2, 2, k)]), o), id="poch-inf-base-2"),
    # q-binomial: (x; q^p)_n = sum c^k q^((e+pn)k) (q^(-pn); q^p)_k / (q^p; q^p)_k
    pytest.param(lambda o: read_row("poch", (mono(2, 1), 1, 5), o), lambda o: naive_sum(
        lambda k: (2 ** k, 6 * k, [P(1, -5, 1, k)], [P(1, 1, 1, k)]), o), id="poch-5"),
    pytest.param(lambda o: read_row("poch", (mono(F(-1, 3), F(1, 2)), 2, 3), o), lambda o: naive_sum(
        lambda k: (F(-1, 3) ** k, F(13, 2) * k, [P(1, -6, 2, k)], [P(1, 2, 2, k)]), o),
        id="poch-3-base-2"),
    # the same rows at roots of unity, whose sums run in Q(zeta_M)
    pytest.param(lambda o: ev("Kp(w)", o, w=zmono(5, 1)), lambda o: naive_sum(
        lambda n: ((-1) ** n, n * n, [P(1, 1, 2, n)], [P(Z5, 2, 2, n), P(inverse(Z5), 2, 2, n)]), o),
        id="Kp-zeta5"),
    pytest.param(lambda o: ev("Kpp(w)", o, w=zmono(3, 1)), lambda o: naive_sum(
        lambda n: ((-1) ** n, n * n, [P(1, 1, 2, n - 1)], [P(Z3, 1, 2, n), P(inverse(Z3), 1, 2, n)]),
        o, start=1), id="Kpp-zeta3"),
    pytest.param(lambda o: ev("Hp(1,3,w)", o, w=zmono(4, 1)), lambda o: naive_sum(
        lambda n: (1, F(n * (n + 1), 2), [P(-1, 1, 1, n)],
                   [P(Z4, F(1, 3), 1, n + 1), P(Z4, F(2, 3), 1, n + 1)]), o, stop=8), id="Hp-zeta4"),
    pytest.param(lambda o: read_row("g", (zmono(4, 1, F(1, 2)), 1), o), lambda o: naive_sum(
        lambda n: (1, n * (n + 1), [], [P(Z4, F(1, 2), 1, n + 1), P(inverse(Z4), F(1, 2), 1, n + 1)]), o),
        id="g-zeta4"),
    pytest.param(lambda o: ev("g_sum(x, q^2)", o, x=zmono(5, 2, F(1, 3))),
                 lambda o: naive_g_sum(zeta_power(5, 2), F(1, 3), 2, o), id="g_sum-zeta5"),
    pytest.param(lambda o: read_row("poch", (zmono(3, 1, 1), 1, None), o), lambda o: naive_sum(
        lambda k: ((-Z3) ** k, F(k * (k - 1), 2) + k, [], [P(1, 1, 1, k)]), o), id="poch-inf-zeta3"),
    pytest.param(lambda o: read_row("poch", (zmono(4, 1, F(1, 2)), 1, 4), o), lambda o: naive_sum(
        lambda k: (Z4 ** k, F(9, 2) * k, [P(1, -4, 1, k)], [P(1, 1, 1, k)]), o), id="poch-4-zeta4"),
    pytest.param(lambda o: ev("lambert_even(x)", o, x=zmono(5, 1)), lambda o: naive_sum(
        lambda n: ((-1) ** n, n * n, [P(1, 1, 2, n)], [P(Z5, 0, 2, n + 1), P(inverse(Z5), 2, 2, n)]), o),
        id="lambert-even-zeta5"),
    pytest.param(lambda o: ev("lambert_odd(x)", o, x=zmono(3, 1, F(1, 2))), lambda o: naive_sum(
        lambda n: ((-1) ** n, (n + 1) ** 2, [P(inverse(Z3), F(-1, 2), 1, 1), P(1, 1, 2, n)],
                   [P(Z3, F(3, 2), 2, n + 1), P(inverse(Z3), F(1, 2), 2, n + 1)]), o),
        id="lambert-odd-zeta3"),
]


class TestPartialSumOracles:
    def test_third_order_partial_sums(self):
        # sum q^(n^2)/(-q)_n^2 begins 1 + q - 2q^2 + 3q^3 - 3q^4
        s = ev("f3()", 10)
        assert_series_matches(
            s, {0: 1, 1: 1, 2: -2, 3: 3, 4: -3, 5: 3, 6: -5, 7: 7, 8: -6, 9: 6}, F(10)
        )

    def test_fifth_order_partial_sums(self):
        # sum q^(n^2)/(-q)_n begins 1 + q - q^2 + q^3 - q^6 + q^7
        s = ev("f0()", 14)
        assert_series_matches(
            s,
            {0: 1, 1: 1, 2: -1, 3: 1, 6: -1, 7: 1, 9: 1, 10: -2, 11: 1, 12: -1, 13: 2},
            F(14),
        )

    def test_constant_terms(self):
        assert ev("phi()", 1).coeff_at(F(0)) is not None
        assert_series_matches(ev("phi()", 1), {0: 1}, F(1))
        # sigma starts at q
        assert ev("sigma()", 2).valuation() == 1

    @pytest.mark.parametrize("build, naive", PRODUCT_FORMS)
    def test_direct_sums_match_running_terms(self, build, naive):
        order = F(20)
        assert_series_matches(build(order), naive(order), order)


@st.composite
def product_form(draw):
    """A term sum (c, E, factors, start) over Q or Q(zeta_M): each factor
    (r q^x; q^p)_(an+b)^s with r rational or a root of unity, x of either
    sign and a start + b >= 0; E has its vertex at n <= 1.  Roots of unity
    of orders 3 and 4 together make the sum lift its rows into Q(zeta_12)."""
    orders = draw(st.sampled_from([(1,), (3,), (4,), (5,), (3, 4)]))
    coeffs = [F(1), F(-1), F(2), F(-1, 2)] + [zeta_power(M, k) for M in orders for k in range(1, M)]
    start = draw(st.sampled_from([0, 1]))
    factors = []
    for _ in range(draw(st.integers(0, 2))):
        a = draw(st.sampled_from([0, 1]))
        b = draw(st.integers(-a * start, 2))
        x = F(draw(st.integers(-4, 4)), 2)
        y = Monomial.make(draw(st.sampled_from(coeffs)), x)
        factors.append((y, draw(st.sampled_from([1, 2])), a, b, draw(st.sampled_from([1, -1]))))
    c = draw(st.sampled_from(coeffs))
    e = (draw(st.sampled_from([1, F(3, 2), 2])), F(draw(st.integers(-4, 4)), 2), draw(st.sampled_from([0, F(1, 2)])))
    return c, e, tuple(factors), start


def naive_form(c, e, factors, start, order):
    """naive_sum of the product form up to the first n from which every term
    lies at or past q^order: E climbs from n = 1 on, and a numerator factor
    lowers a term's valuation by at most 3."""
    E = lambda n: e[0] * n * n + e[1] * n + e[2]
    M = lcm(c.order if isinstance(c, CycloNumber) else 1, *(y.field_order for y, *_ in factors))
    field = lambda x: lift_order(x, M) if M > 1 else x.rational_value()
    stop = start + 1
    while not all(E(n) - 6 >= order for n in (stop - 1, stop)):
        stop += 1

    def term(n):
        num, den = [], []
        for y, p, a, b, s in factors:
            (num if s > 0 else den).append(P(field(y.coeff), y.expo, p, a * n + b))
        return (field(c) if isinstance(c, CycloNumber) else c) ** n, E(n), num, den

    return naive_sum(term, order, start, stop)


@settings(max_examples=60, deadline=None)
@given(form=product_form())
# a factor 1 - 1 in the numerator of the first term, and one at f = 0 in a denominator
@example(form=(F(-1), (1, 0, 0), ((Monomial.make(1, 0), 1, 0, 1, 1),), 0))
@example(form=(Z4, (1, F(-3, 2), 0), ((Monomial(Z4, F(-1)), 1, 1, 0, -1),), 0))
# the first term lies in Q(zeta_3), the second lifts it into Q(zeta_12)
@example(form=(F(1), (1, 0, 0), ((Monomial(Z3, F(1, 2)), 1, 0, 1, -1), (Monomial(Z4, F(1)), 1, 1, 0, 1)), 0))
# the first term lies past q^4, the second dips back to q^(7/2)
@example(form=(F(1), (1, F(-3, 2), 0), ((mono(1, -1), 1, 0, 1, -1), (mono(1, -2), 1, 0, 2, -1)), 0))
def test_term_sum_matches_the_naive_sum(form):
    c, e, factors, start = form
    assume(not has_pole(factors))
    s = series.term_sum(c, e, factors, F(4), start)
    order = min(F(4), s.prec_order())
    assert_series_matches(s, naive_form(c, e, factors, start, order), order)


class TestAppellForms:
    def test_phi_as_appell(self):
        check_eq(
            ev("phi()", ORDER),
            series_scale(read_row("m", (mono(1, 1), 3, mono(-1)), ORDER), 2),
            ORDER,
        )

    def test_sigma_as_appell(self):
        check_eq(
            ev("sigma()", ORDER),
            series_neg(read_row("m", (mono(1, 2), 6, mono(1, 1)), ORDER)),
            ORDER,
        )

    def test_sixth_order_product_identity(self):
        # phi(q^2) + 2 sigma(q) = prod (1+q^(2n-1))^2 (1-q^(6n)) (1+q^(6n-3))^2
        lhs = series_add(
            ev("phi(q^2)", ORDER),
            series_scale(ev("sigma()", ORDER), 2),
        )
        p1 = read_row("poch", (mono(-1, 1), 2, None), ORDER)
        p2 = read_row("poch", (mono(1, 6), 6, None), ORDER)
        p3 = read_row("poch", (mono(-1, 3), 6, None), ORDER)
        rhs = series_mul(
            series_mul(series_mul(p1, p1), p2), series_mul(p3, p3)
        )
        check_eq(lhs, rhs, ORDER)

    def test_kprime_closed_combination(self):
        # K'(w) = (1-w) (m(-w,q,-1) + J(1,2)^2/(2 j(w;q)))
        for w in OMEGAS:
            inner = series_add(
                read_row("m", (-w, 1, mono(-1)), ORDER), half_quotient(w, ORDER)
            )
            rhs = series_shift(inner, one_minus_root(w))
            check_eq(ev("Kp(w)", ORDER, w=w), rhs, ORDER)

    def test_kprimeprime_closed_combination(self):
        # K''(w) = w/(1-w) (m(-w,q,-1) - J(1,2)^2/(2 j(w;q)))
        for w in OMEGAS:
            inner = series_sub(
                read_row("m", (-w, 1, mono(-1)), ORDER), half_quotient(w, ORDER)
            )
            c = w.coeff * one_minus_root(w).coeff.inv()
            rhs = series_shift(inner, Monomial(c, F(0)))
            check_eq(ev("Kpp(w)", ORDER, w=w), rhs, ORDER)


class TestLambertPairs:
    def test_theta_denominator_guard(self):
        # j(q; q) vanishes, so the even Lambert identity has no value at x = q
        case = make_case(
            "lambert-even-at-q",
            "lambert_even(x)",
            "m(-x, q, -1) + J(1,2)^2/(2*j(x; q))",
            ["x=q"],
            order=20,
        )
        assert check(case).status == "nongeneric"

    def test_eulerian_pole_guards(self):
        with pytest.raises(NonGenericError):
            ev("lambert_even(q^2)", 10)
        with pytest.raises(NonGenericError):
            ev("lambert_even(1)", 10)
        with pytest.raises(NonGenericError):
            ev("lambert_odd(q^(-3))", 10)
        # fractional or non-unit arguments are generic
        assert not ev("lambert_odd(q^(1/2))", 10).is_zero()

    def test_bilateral_pole_guards(self):
        with pytest.raises(NonGenericError):
            ev("bilateral_even(q^2)", 20)
        with pytest.raises(NonGenericError):
            ev("bilateral_odd(q^(-1))", 20)

    def test_regrouped_bilateral_as_two_appell_sums(self):
        # (1/JB(1,4)) sum q^(2n^2+n)/(1-w q^(2n))
        #   = m(-w^2 q, q^4, -q^3) + w q^-1 m(-w^2 q^-1, q^4, -q)
        for w in [zmono(3, 1), zmono(4, 1), zmono(5, 1)]:
            w2 = w * w
            rhs = series_add(
                read_row("m", (-w2.times_q(1), 4, mono(-1, 3)), ORDER),
                series_shift(
                    read_row("m", (-w2.times_q(-1), 4, mono(-1, 1)), ORDER + 2),
                    w.times_q(-1),
                ),
            )
            check_eq(ev("bilateral_even(w)", ORDER, w=w), rhs, ORDER)

    def test_regrouped_bilateral_final_form(self):
        # same bilateral sum = m(-w,q,-1) + J(1,2)^2/(2 j(w;q))
        for w in OMEGAS:
            rhs = series_add(
                read_row("m", (-w, 1, mono(-1)), ORDER), half_quotient(w, ORDER)
            )
            check_eq(ev("bilateral_even(w)", ORDER, w=w), rhs, ORDER)


class TestHabcLambertForm:
    def test_appell_plus_theta_quotient(self):
        # J(1,2) H(a,b,c) identity:
        # H = -q^(a/c-1) m(z_c^(2b) q^(2a/c-1), q^2, q)
        #     + z_c^(-b) Jm(2)^3 / (J(1,2) j(z_c^(2b) q^(2a/c);q^2))
        for a, b, c in [(1, 0, 2), (1, 1, 2), (1, 1, 3), (2, 1, 5), (3, 2, 7)]:
            lhs = ev(f"Habc({a},{b},{c})", ORDER)
            ac = F(a, c)
            zb2 = Monomial(zeta_power(c, (2 * b) % c), 2 * ac)
            m_arg = zb2.times_q(-1)
            part1 = series_shift(
                series_neg(read_row("m", (m_arg, 2, mono(1, 1)), ORDER + 2)),
                mono(1, ac - 1),
            )
            j2 = read_row("j", (mono(1, 2), 6), ORDER)
            num = series_mul(series_mul(j2, j2), j2)
            den = series_mul(read_row("j", (mono(1, 1), 2), ORDER), read_row("j", (zb2, 2), ORDER))
            part2 = series_shift(
                series_div(num, den), Monomial(zeta_power(c, (-b) % c), F(0))
            )
            check_eq(lhs, series_add(part1, part2), ORDER)

    def test_parameter_validation(self):
        with pytest.raises(EvalError, match="Habc: need 0 < a < c"):
            ev("Habc(3,1,2)", 10)


def tilde(name, a, c, order):
    return ev(f"{name}({a},{c})", order)


class TestTildeCombinations:
    PAIRS = [(1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 5)]

    def test_k_combination_equals_closed_form(self):
        for a, c in self.PAIRS:
            check_eq(tilde("Ktilde", a, c, ORDER), tilde("Ktilde_closed", a, c, ORDER), ORDER)

    def test_h_routes_agree(self):
        for a, c in self.PAIRS:
            closed = tilde("Htilde_closed", a, c, ORDER)
            check_eq(tilde("Htilde", a, c, ORDER), closed, ORDER)
            if c % 2 == 0:
                check_eq(tilde("Htilde_bilateral", a, c, ORDER), closed, ORDER)

    def test_bilateral_route_needs_even_denominator(self):
        with pytest.raises(EvalError, match="needs even c"):
            tilde("Htilde_bilateral", 1, 3, 10)

    def test_reflection_symmetry(self):
        check_eq(tilde("Ktilde", 1, 5, 30), tilde("Ktilde", 4, 5, 30), 30)
        check_eq(tilde("Ktilde", 1, 3, 30), tilde("Ktilde", 2, 3, 30), 30)
        check_eq(tilde("Htilde_closed", 1, 3, 30), tilde("Htilde_closed", 2, 3, 30), 30)

    def test_conjugation_carries_a_to_c_minus_a(self):
        a13 = tilde("Ktilde", 1, 3, 20)
        a23 = tilde("Ktilde", 2, 3, 20)
        assert a13.field_order == a23.field_order
        assert a13.denom == a23.denom
        for k in set(a13.terms) | set(a23.terms):
            e = F(k, a13.denom)
            assert a13.coeff_at(e).galois(-1) == a23.coeff_at(e)

    def test_leading_exponents(self):
        assert tilde("Ktilde", 1, 2, 10).valuation() == F(-1, 8)
        assert tilde("Ktilde", 1, 3, 10).valuation() == F(-1, 8)
        assert tilde("Htilde_closed", 1, 2, 10).valuation() == F(1, 4)

    def test_level_constant(self):
        assert [f_c(c) for c in (1, 2, 3, 4, 5, 8)] == [2, 2, 6, 2, 10, 4]


class TestDispatch:
    def test_spec_validates_fraction(self):
        with pytest.raises(EvalError, match="^Hp: need 0 < a < c$"):
            ev("Hp(3,2,1)", 10)

    def test_hprime_pole_guard(self):
        with pytest.raises(NonGenericError):
            ev("Hp(1,2,q^(-1/2))", 10)

    def test_kprime_pole_guard(self):
        with pytest.raises(NonGenericError):
            ev("Kp(q^(-2))", 10)
        with pytest.raises(NonGenericError):
            ev("Kpp(q)", 10)
        # omega = q^2 breaks the w^-1 Pochhammer row exactly
        with pytest.raises(NonGenericError):
            ev("Kp(q^2)", 10)


# ---------------------------------------------------------------------------
# The derived pole checks against independently stated pole sets
# ---------------------------------------------------------------------------


def naive_has_pole(factors, start):
    """Some 1 - y q^(pj), j < an + b, of a denominator factor is exactly 0
    for some n in [start, start + 12)."""
    one = mono(1)
    return any(y.times_q(p * j) == one
               for n in range(start, start + 12)
               for y, p, a, b, s in factors if s < 0
               for j in range(a * n + b))


@st.composite
def factor(draw):
    y = mono(draw(st.sampled_from([1, -1])), F(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 2, 3]))))
    a = draw(st.sampled_from([0, 1, 2]))
    b = draw(st.integers(0 if a == 0 else -1, 4))
    return y, draw(st.sampled_from([1, 2])), a, b, draw(st.sampled_from([1, -1]))


@settings(max_examples=300, deadline=None)
@given(factors=st.lists(factor(), min_size=1, max_size=3), start=st.sampled_from([0, 1]))
# (1; q)_(n+1) vanishes at every n, (q^-2; q^2)_1 never, (q^-2; q^2)_2 at every n
@example(factors=[(mono(1), 1, 1, 0, -1)], start=1)
@example(factors=[(mono(1, -2), 2, 0, 1, -1)], start=0)
@example(factors=[(mono(1, -2), 2, 0, 2, -1)], start=1)
def test_has_pole_matches_a_naive_scan(factors, start):
    assert has_pole(factors) == naive_has_pole(factors, start)


def is_q_power_of(w, p, keep=lambda k: True):
    """w = q^(pk) exactly, for an integer k with keep(k)."""
    k = w.expo / p
    return w.is_q_power() and k.denominator == 1 and keep(int(k))


# the pole sets the README states, each over w
POLE_SETS = {
    "Kp(w)": lambda w: is_q_power_of(w, 2, lambda k: k != 0),
    "Kpp(w)": lambda w: is_q_power_of(w.times_q(1), 2),
    "lambert_even(w)": lambda w: is_q_power_of(w, 2),
    "lambert_odd(w)": lambda w: is_q_power_of(w.times_q(1), 2),
    "bilateral_even(w)": lambda w: is_q_power_of(w, 2),
    "bilateral_odd(w)": lambda w: is_q_power_of(w.times_q(1), 2),
    "g(w)": lambda w: is_q_power_of(w, 1),
    "g(w, q^2)": lambda w: is_q_power_of(w, 2),
    "g_sum(w)": lambda w: is_q_power_of(w, 1),
    "g_sum(w, q^2)": lambda w: is_q_power_of(w, 2),
    "rjtp(w)": lambda w: is_q_power_of(w, 1),
    "rjtp(w, q^2)": lambda w: is_q_power_of(w, 2),
    # w = -q^k: the pole of the row m, after its theta check
    "m(w, q, -1)": lambda w: is_q_power_of(-w, 1),
    # w = +-q^k: j(w; q) vanishes at q^k, and 1 - q^(n-1) (-1) w at -q^k
    "m(-1, q, w)": lambda w: is_q_power_of(w, 1) or is_q_power_of(-w, 1),
    # a theta function is defined everywhere
    "j(w, q)": lambda w: False,
    # w = q^(-k-1/3) or q^(-k-2/3), k >= 0
    "Hp(1,3,w)": lambda w: any(is_q_power_of(w.times_q(F(r, 3)), 1, lambda k: k <= 0) for r in (1, 2)),
}
SIXTHS = [mono(c, F(k, 6)) for c in (1, -1) for k in range(-14, 15)]


@pytest.mark.parametrize("source", POLE_SETS)
def test_nongeneric_exactly_on_the_stated_pole_set(source):
    rejected = []
    for w in SIXTHS:
        try:
            ev(source, 3, w=w)
        except NonGenericError:
            rejected.append(w)
    assert rejected == [w for w in SIXTHS if POLE_SETS[source](w)]
