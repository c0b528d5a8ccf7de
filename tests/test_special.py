"""Theta products, Appell-Lerch sums, splittings: worked identities and oracles.

Deterministic checks pin the classical identities at order 40; the
randomized suites exercise the exact genericity predicates and the
sum-versus-product equivalence on small windows.
"""

from fractions import Fraction as F
from functools import partial
from math import ceil, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident import eval_expr, parse, series, special
from qident.coeff import cyclo_embed, lift_order, zeta_power
from qident.dsl import FUNCTIONS, Call, parse_bindings
from qident.errors import CapExceededError, EvalError, NonGenericError, QIdentError
from qident.eulerian import BILATERAL, FORMS, need_theta_nonzero
from qident.series import (
    Monomial,
    const_series,
    from_monomial,
    q_power,
    series_add,
    series_div,
    series_eq_to_order,
    series_invert,
    series_mul,
    series_neg,
    series_scale,
    series_shift,
    series_sub,
    series_truncate,
    zero_series,
)
from qident.special import read_row

from oracles import (
    assert_series_matches,
    count_fractions,
    count_pairs,
    count_products,
    dict_mul,
    dict_truncate,
    geom_inverse_bruteforce,
    lambert_bruteforce,
    pochhammer_bruteforce,
    theta_bruteforce,
)

ORDER = F(40)


def mono(c, e=0):
    return Monomial.make(c, F(e))


def zmono(M, k, e=0):
    return Monomial(zeta_power(M, k), F(e))


def check_eq(lhs, rhs, order):
    v = series_eq_to_order(lhs, rhs, order)
    assert v.status == "pass", v.detail()


# a side with a negative shift, two definitions and a division, and its binding
SIDE = parse("q^(-1)*Htilde(1, 4) + mcorr(x, q, -1, -q^(1/2))/j(x*q^(1/2), q)")
SIDE_BINDING = parse_bindings(["x=2*q"])


def _binom2(n):
    return n * (n - 1) // 2


def theta_vanishes(x, p):
    """Whether need_theta_nonzero rejects j(x; q^p), with its message."""
    try:
        need_theta_nonzero(x, p, "j(x; q^p)")
    except NonGenericError as exc:
        assert str(exc) == f"j(x; q^p) = j({x}; q^({p})) vanishes identically"
        return True
    return False


def count_work(monkeypatch, text, order):
    """CycloNumber products and series_mul and series_div term pairs of one
    cold evaluation, both counted from outside the program."""
    monkeypatch.setattr(special, "_theta_cache", {})
    products, pairs = count_products(monkeypatch), count_pairs(monkeypatch)
    eval_expr(parse(text), order)
    return products[0] + pairs[0]


class TestPochhammer:
    def test_empty_product_is_one(self):
        s = read_row("poch", (mono(2, 1), 1, 0), 10)
        assert_series_matches(s, {0: 1}, F(10))

    def test_finite_matches_bruteforce(self):
        for c, e, p, n in [(2, F(1), 1, 3), (-1, F(1, 2), F(1, 2), 4), (F(1, 3), F(0), 1, 5)]:
            s = read_row("poch", (mono(c, e), p, n), 20)
            want = pochhammer_bruteforce(F(c), e, F(p), n)
            assert_series_matches(s, want, F(20))

    def test_euler_product_pentagonal(self):
        # (q;q)_inf = sum (-1)^k q^(k(3k-1)/2) over all integers k
        s = read_row("poch", (mono(1, 1), 1, None), 40)
        want = {}
        for k in range(-10, 11):
            ex = F(k * (3 * k - 1), 2)
            if ex < 40:
                want[ex] = (-1) ** k
        assert_series_matches(s, want, F(40))

    def test_vanishing_factor_collapses(self):
        s = read_row("poch", (mono(1, 0), 1, None), 15)
        assert s.is_zero()
        s = read_row("poch", (mono(1, 0), 1, 3), 15)
        assert s.is_zero()

    @settings(max_examples=60, deadline=None)
    @given(
        c=st.sampled_from([F(2), F(-1), F(1, 2), F(3), F(-2, 3)]),
        e=st.fractions(min_value=0, max_value=3, max_denominator=3),
        m=st.integers(min_value=0, max_value=4),
        n=st.integers(min_value=0, max_value=4),
    )
    def test_product_splits_at_any_index(self, c, e, m, n):
        # (x;q)_{m+n} = (x;q)_m * (x q^m;q)_n
        x = mono(c, e)
        whole = read_row("poch", (x, 1, m + n), 12)
        left = read_row("poch", (x, 1, m), 12)
        right = read_row("poch", (x.times_q(m), 1, n), 12)
        check_eq(whole, series_mul(left, right), 12)


    def test_negative_exponent_matches_bruteforce(self):
        # factors with exponents up to the order plus the depth of the dip
        # still reach below q^order
        for c, e, p, n in [(2, F(-1), 1, None), (-1, F(-3, 2), 1, None), (2, F(-3), 2, None),
                           (3, F(-2), 1, 6), (2, F(-1, 2), F(1, 2), 5)]:
            want_n = n if n is not None else 40
            s = read_row("poch", (mono(c, e), p, n), 12)
            want = pochhammer_bruteforce(F(c), e, F(p), want_n)
            assert_series_matches(s, {k: v for k, v in want.items() if k < 12}, F(12))

    def test_order_below_first_term(self):
        # at order 0 the sum's first term, 1, lies outside the window, yet
        # the product reaches down to 2 q^(-1)
        s = read_row("poch", (mono(2, -1), 1, None), 0)
        assert s.prec_order() >= 0 and s.coeff_at(-1) == 2
        # and at an order far below it, the sum still runs its terms
        s = read_row("poch", (mono(2, -10), 1, None), -20)
        deep = read_row("poch", (mono(2, -10), 1, None), 1)
        assert s.prec_order() == -20 and s.terms == series_truncate(deep, -20).terms

    def test_euler_sum_dot_budget(self, monkeypatch):
        # Euler's sum runs on term rows at order 100: no CycloNumber product
        # and no series product or quotient; the product of binomials it
        # replaced took 17,920 coefficient products
        calls = count_work(monkeypatch, "poch(-q^(1/2), q, inf)", 100)
        assert calls < 3000, calls


class TestPaddingLimit:
    def test_deficit_beyond_limit_raises_at_once(self):
        works = []

        def build(work):
            works.append(work)
            return zero_series(work - special.PAD_LIMIT - 7)

        with pytest.raises(CapExceededError, match=f"deficit of {special.PAD_LIMIT + 7} "):
            special.ensure_prec(build, 5)
        assert works == [5]

    def test_deficit_within_limit_is_padded(self):
        works = []

        def build(work):
            works.append(work)
            return zero_series(work - 30)

        assert special.ensure_prec(build, 5).prec_order() == 5
        assert works == [5, 35]

    def test_retry_pads_at_least_one_power(self):
        # a builder whose precision only moves in whole powers of q
        works = []

        def build(work):
            works.append(work)
            return zero_series(ceil(work + F(1, 8)) - F(9, 8), 8)

        assert special.ensure_prec(build, 3).prec_order() >= 3
        assert works == [3, F(25, 8), F(33, 8)]

    def test_four_short_builds_raise(self):
        # a build on the grid 1/2 that always ends q^(1/2) short of q^10; on
        # the grid 1 grid_prec would round the shortfall away
        works = []

        def build(work):
            works.append(work)
            return zero_series(F(19, 2), 2)

        with pytest.raises(CapExceededError, match=r"could not reach precision 10 in four builds \(got 19/2\)"):
            special.ensure_prec(build, 10)
        assert works == [10, F(21, 2), F(23, 2), F(25, 2)]

    def test_term_cap_counts_from_the_lowest_valuation(self):
        # q^(binom(k,2)/2 - 30k) dips about 900 powers and takes some 120
        # terms to climb back past q^1, more than the cap of 110 at work 1
        s = series.term_sum(1, (F(1, 4), F(-121, 4), 0), (), F(1))
        assert -1000 < s.prec_order() < -800

    def test_a_term_past_the_order_does_not_end_a_sum_that_dips_back(self):
        # q^(n^2 - 3n + 2) puts its first term at q^2, past q^(3/2), and the
        # next two at q^0; the first term's loss shows as the sum's precision
        s = series.term_sum(1, (1, -3, 2), (), F(3, 2))
        assert s.prec_order() == 0
        s = special.ensure_prec(partial(series.term_sum, 1, (1, -3, 2), ()), F(3, 2))
        assert_series_matches(s, {0: 2}, F(3, 2))

    def test_term_cap_stops_a_flat_sum(self):
        with pytest.raises(CapExceededError, match="failed to grow"):
            series.term_sum(1, (0, 0, 0), (), F(1))

    def test_term_sum_stops_at_the_limit(self, monkeypatch):
        # (2q^(-10); q)_inf dips 55 powers below q^0; a limit of 20 ends its
        # sum at the first term past it
        monkeypatch.setattr(series, "PAD_LIMIT", 20)
        with pytest.raises(CapExceededError, match="padding limit 20"):
            read_row("poch", (mono(2, -10), 1, None), 10)


class TestTermRows:
    def test_term_sums_use_no_series_product_quotient_or_fused_dot(self, monkeypatch):
        # every binomial is a pass over integer rows, in every field: no
        # series product or quotient and no CycloNumber product
        rows = [(FORMS["phi"][1](F(1)), 100), (FORMS["Kp"][1](Monomial(zeta_power(5, 1), F(0))), 60)]
        pairs, products = count_pairs(monkeypatch), count_products(monkeypatch)
        for (c, e, factors, start), order in rows:
            assert not series.term_sum(c, e, factors, F(order), start).is_zero()
        assert (pairs[0], products[0]) == (0, 0)
        # the counters do see what calls them
        series.series_div(const_series(1, 5), series_sub(const_series(1, 5), q_power(1, 5)))
        assert pairs[0] > 0

    @pytest.mark.parametrize("cap, message", [("MAX_WINDOW", "exceeds MAX_WINDOW = 500"),
                                              ("MAX_GRID", "exceeds MAX_GRID = 6")])
    def test_row_past_a_cap_is_refused_before_it_is_allocated(self, monkeypatch, cap, message):
        # H'(1,7,1) sums on the grid 1/7: 700 slots at order 100
        monkeypatch.setattr(series, cap, 500 if cap == "MAX_WINDOW" else 6)
        sizes = []
        new = series._new

        def recorded(*args):
            sizes.append(len(args[4][0]))
            return new(*args)

        monkeypatch.setattr(series, "_new", recorded)
        c, e, factors, start = FORMS["Hp"][1](1, 7, Monomial.make(1))
        with pytest.raises(ValueError, match=message):
            series.term_sum(c, e, factors, F(100), start)
        assert sizes and max(sizes) <= 100


class TestThetaFunction:
    def test_sum_equals_triple_product(self):
        # j(x;q^p) = (x;q^p)_inf (q^p/x;q^p)_inf (q^p;q^p)_inf
        samples = [
            (mono(-1, 0), 1),
            (mono(2, 1), 1),
            (mono(1, F(1, 2)), 1),
            (zmono(3, 1), 1),
            (zmono(5, 2, F(1, 3)), 2),
            (mono(-1, 1), 3),
        ]
        for x, p in samples:
            lhs = read_row("j", (x, p), ORDER)
            prod = series_mul(
                series_mul(
                    read_row("poch", (x, p, None), ORDER),
                    read_row("poch", (x.inv().times_q(p), p, None), ORDER),
                ),
                read_row("poch", (Monomial.make(1, F(p)), p, None), ORDER),
            )
            check_eq(lhs, prod, ORDER)

    @settings(max_examples=60, deadline=None)
    @given(
        c=st.sampled_from([F(2), F(-1), F(1, 2), F(-3)]),
        e=st.fractions(min_value=F(-2), max_value=2, max_denominator=2),
    )
    def test_sum_matches_bruteforce_scan(self, c, e):
        x = mono(c, e)
        s = read_row("j", (x, 1), 10)
        assert_series_matches(s, theta_bruteforce(c, e, F(1), F(10)), F(10))

    def test_square_gap_expansion(self):
        # j(q;q^2) = sum (-1)^n q^(n^2)
        s = read_row("j", (mono(1, 1), 2), ORDER)
        want = {F(n * n): 2 * (-1) ** n for n in range(1, 7) if n * n < 40}
        want[F(0)] = 1
        assert_series_matches(s, want, ORDER)

    def test_unit_arguments_vanish(self):
        for x, p in [(mono(1, 0), 1), (mono(1, 1), 1), (mono(1, -2), 1), (mono(1, 6), 3)]:
            assert theta_vanishes(x, p)
            assert read_row("j", (x, p), 25).is_zero()

    def test_five_product_evaluations(self):
        j1 = read_row("j", (mono(1, 1), 3), ORDER)
        j2 = read_row("j", (mono(1, 2), 6), ORDER)
        j3 = read_row("j", (mono(1, 3), 9), ORDER)
        j4 = read_row("j", (mono(1, 4), 12), ORDER)
        j6 = read_row("j", (mono(1, 6), 18), ORDER)
        # JB(0,1) = 2 JB(1,4) = 2 J2^2/J1
        rhs = series_scale(series_div(series_mul(j2, j2), j1), 2)
        check_eq(read_row("j", (mono(-1, 0), 1), ORDER), rhs, ORDER)
        check_eq(series_scale(read_row("j", (mono(-1, 1), 4), ORDER), 2), rhs, ORDER)
        # JB(1,2) = J2^5 / (J1^2 J4^2)
        num = series_mul(series_mul(series_mul(series_mul(j2, j2), j2), j2), j2)
        den = series_mul(series_mul(j1, j1), series_mul(j4, j4))
        check_eq(read_row("j", (mono(-1, 1), 2), ORDER), series_div(num, den), ORDER)
        # J(1,2) = J1^2 / J2
        check_eq(read_row("j", (mono(1, 1), 2), ORDER), series_div(series_mul(j1, j1), j2), ORDER)
        # JB(1,3) = J2 J3^2 / (J1 J6)
        num = series_mul(j2, series_mul(j3, j3))
        check_eq(read_row("j", (mono(-1, 1), 3), ORDER), series_div(num, series_mul(j1, j6)), ORDER)
        # J(1,4) = J1 J4 / J2
        check_eq(read_row("j", (mono(1, 1), 4), ORDER), series_div(series_mul(j1, j4), j2), ORDER)

    def test_product_shorthand_consistency(self):
        check_eq(eval_expr(parse("Jm(2)"), ORDER), eval_expr(parse("J(2,6)"), ORDER), ORDER)
        check_eq(
            eval_expr(parse("Jm(1)"), ORDER), read_row("poch", (mono(1, 1), 1, None), ORDER), ORDER
        )

    @pytest.mark.parametrize(
        "x,p",
        [(mono(-1, F(1, 2)), 1), (zmono(5, 2, F(1, 3)), F(1, 2)), (mono(F(2, 3), -1), 2)],
    )
    def test_cache_serves_shallower_order(self, monkeypatch, x, p):
        monkeypatch.setattr(special, "_theta_cache", {})
        read_row("j", (x, p), 60)
        warm = read_row("j", (x, p), 41)
        assert len(special._theta_cache) == 1
        special._theta_cache.clear()
        cold = read_row("j", (x, p), 41)
        assert (warm.denom, warm.prec, warm.field_order) == (cold.denom, cold.prec, cold.field_order)
        assert warm.terms == cold.terms

    @pytest.mark.parametrize("read", [
        partial(FUNCTIONS["msplit"][5][1], [mono(2, 1), 1, mono(-1), mono(-1, 1), 2]),
        lambda order: eval_expr(SIDE, order, SIDE_BINDING),
    ], ids=["definition", "expression"])
    def test_cache_serves_shallower_order_of_a_definition_or_side(self, monkeypatch, read):
        # as test_cache_serves_shallower_order, for a definition read from
        # the registry and for a whole expression: the shallower read is
        # computed again, its rows served by cutting the kept ones, and
        # equals a cold read
        monkeypatch.setattr(special, "_theta_cache", {})
        read(60)
        warm = read(41)
        special._theta_cache.clear()
        cold = read(41)
        assert (warm.denom, warm.prec, warm.field_order) == (cold.denom, cold.prec, cold.field_order)
        assert warm.terms == cold.terms

    def test_bilateral_scan_dot_budget(self, monkeypatch):
        # the powers of the coefficient are integer rows: no CycloNumber
        # product; a running CycloNumber power took 40, a fresh power of
        # the coefficient per term 256
        calls = count_work(monkeypatch, "j(-q^(1/2); q)", 200)
        assert calls < 10, calls

    def test_memo_builds_a_miss_to_its_order(self, monkeypatch):
        # a build that reaches only work - loss falls short at 5, so
        # ensure_prec builds again at 5 + loss, and a loss past PAD_LIMIT
        # is refused; read_row keeps the row cut at 5, a shallower read is
        # a hit and builds nothing, and a refused build leaves no entry
        monkeypatch.setattr(special, "_theta_cache", {})
        monkeypatch.setattr(special, "memo_counts", {"hits": 0, "misses": 0})
        works = []

        def term_sum(loss, e, factors, work, start):
            works.append(work)
            return const_series(1, work - loss)

        assert special.ensure_prec(lambda work: term_sum(1, 0, (), work, 0), 5).prec_order() == 5
        assert works == [5, 6]
        with pytest.raises(CapExceededError):
            special.ensure_prec(lambda work: term_sum(2000, 0, (), work, 0), 5)
        works.clear()
        # two rows whose form hands its loss to term_sum as the coefficient
        monkeypatch.setattr(special, "term_sum", term_sum)
        monkeypatch.setitem(FORMS, "short", (("x",), lambda x: (1, 0, (), 0), None))
        monkeypatch.setitem(FORMS, "far", (("x",), lambda x: (2000, 0, (), 0), None))
        assert read_row("short", (mono(2, 1),), 5).prec_order() == 5
        assert works == [5, 6]
        assert [s.prec_order() for s in special._theta_cache.values()] == [5]
        assert read_row("short", (mono(2, 1),), 3).prec_order() == 3
        assert works == [5, 6]
        assert special.memo_counts == {"hits": 1, "misses": 1}
        with pytest.raises(CapExceededError):
            read_row("far", (mono(2, 1),), 5)
        assert [k[0] for k in special._theta_cache] == ["short"]

    def test_memo_evicts_the_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(special, "_theta_cache", {})
        monkeypatch.setattr(special, "MEMO_LIMIT", 2)
        monkeypatch.setattr(special, "memo_counts", {"hits": 0, "misses": 0})
        a, b, c = mono(-1, F(1, 2)), mono(2, 1), zmono(3, 1)
        read_row("j", (a, 1), 20)
        read_row("j", (b, 1), 20)
        read_row("j", (a, 1), 10)  # a hit makes a the most recently used
        read_row("j", (c, 1), 20)
        assert [k[1:] for k in special._theta_cache] == [
            (x.coeff.key(), x.expo, 1) for x in (a, c)
        ]
        assert special.memo_counts == {"hits": 1, "misses": 3}

    @settings(max_examples=120, deadline=None)
    @given(
        c=st.sampled_from(
            [F(1), F(2), F(-1), F(1, 2), F(-3, 2)]
        ),
        zk=st.sampled_from([(1, 0), (3, 1), (4, 1), (5, 2)]),
        e=st.fractions(min_value=F(-3), max_value=3, max_denominator=3),
    )
    def test_vanishing_predicate_is_exact(self, c, zk, e):
        # need_theta_nonzero agrees with the computed series on a finite window
        M, k = zk
        coeff = lift_order(cyclo_embed(c, 1), M) * zeta_power(M, k)
        if coeff.is_zero():
            return
        x = Monomial(coeff, e)
        assert read_row("j", (x, 1), 12).is_zero() == theta_vanishes(x, 1)


class TestThetaTransforms:
    bindings = [mono(2, 1), zmono(3, 1), mono(-1, F(1, 2))]

    def test_shift_by_integral_power(self):
        # j(q^n x;q) = (-1)^n q^(-n(n-1)/2) x^(-n) j(x;q)
        for x in self.bindings:
            base = read_row("j", (x, 1), ORDER + 8)
            for n in (-2, -1, 1, 2):
                lhs = read_row("j", (x.times_q(n), 1), ORDER)
                pref = Monomial.make(F((-1) ** n), F(-_binom2(n))) * (x ** (-n))
                check_eq(lhs, series_shift(base, pref), ORDER)

    def test_inversion_symmetry(self):
        # j(x;q) = j(q/x;q) = -x j(1/x;q)
        for x in self.bindings:
            a = read_row("j", (x, 1), ORDER)
            b = read_row("j", (x.inv().times_q(1), 1), ORDER)
            c = series_shift(read_row("j", (x.inv(), 1), ORDER + 4), -x)
            check_eq(a, b, ORDER)
            check_eq(a, c, ORDER)

    def test_base_refinement(self):
        # j(x;q) = J1 j(x;q^2) j(qx;q^2) / J2^2
        for x in self.bindings:
            lhs = read_row("j", (x, 1), ORDER)
            rhs = series_div(
                series_mul(
                    series_mul(read_row("j", (mono(1, 1), 3), ORDER), read_row("j", (x, 2), ORDER)),
                    read_row("j", (x.times_q(1), 2), ORDER),
                ),
                series_mul(*[read_row("j", (mono(1, 2), 6), ORDER)] * 2),
            )
            check_eq(lhs, rhs, ORDER)

    def test_quadratic_dissection(self):
        # j(z;q) = j(-qz^2;q^4) - z j(-q^3 z^2;q^4)
        for z in [mono(2, 1), zmono(5, 1), mono(-1, F(1, 3)), mono(3, 0)]:
            lhs = read_row("j", (z, 1), ORDER)
            z2 = z * z
            rhs = series_sub(
                read_row("j", (-z2.times_q(1), 4), ORDER),
                series_shift(read_row("j", (-z2.times_q(3), 4), ORDER + 4), z),
            )
            check_eq(lhs, rhs, ORDER)

    def test_square_argument_split(self):
        # j(x^2;q^2) = j(x;q) j(-x;q) / J(1,2)
        for x in [mono(2, 1), zmono(3, 1), mono(-1, F(1, 2)), mono(F(1, 2), F(1, 3))]:
            lhs = read_row("j", (x * x, 2), ORDER)
            rhs = series_div(
                series_mul(read_row("j", (x, 1), ORDER), read_row("j", (-x, 1), ORDER)),
                read_row("j", (mono(1, 1), 2), ORDER),
            )
            check_eq(lhs, rhs, ORDER)

    def test_two_theta_product_expansion(self):
        # j(x;q)j(y;q) = j(-xy;q^2)j(-q y/x;q^2) - x j(-qxy;q^2)j(-y/x;q^2)
        pairs = [
            (mono(2, 1), mono(-1, F(1, 2))),
            (zmono(3, 1), mono(3, 1)),
            (mono(-1, F(1, 3)), zmono(4, 1, 1)),
            (zmono(3, 1), zmono(3, 1)),
        ]
        for x, y in pairs:
            lhs = series_mul(read_row("j", (x, 1), ORDER), read_row("j", (y, 1), ORDER))
            xy = x * y
            yx = x.inv() * y
            rhs = series_sub(
                series_mul(
                    read_row("j", (-xy, 2), ORDER), read_row("j", (-yx.times_q(1), 2), ORDER)
                ),
                series_shift(
                    series_mul(
                        read_row("j", (-xy.times_q(1), 2), ORDER + 4),
                        read_row("j", (-yx, 2), ORDER + 4),
                    ),
                    x,
                ),
            )
            check_eq(lhs, rhs, ORDER)

    def test_reciprocal_theta_sum(self):
        # sum (-1)^n q^binom(n+1,2) / (1 - q^n z) = J1^3 / j(z;q)
        j1 = read_row("j", (mono(1, 1), 3), ORDER)
        cube = series_mul(series_mul(j1, j1), j1)
        for z in [mono(-1, 0), mono(2, 1), zmono(3, 1), mono(1, F(1, 2))]:
            lhs = eval_expr(parse("rjtp(z)"), ORDER, {"z": z})
            rhs = series_div(cube, read_row("j", (z, 1), ORDER))
            check_eq(lhs, rhs, ORDER)

    def test_reciprocal_sum_rejects_pole(self):
        with pytest.raises(NonGenericError):
            eval_expr(parse("rjtp(q)"), 20)


class TestAppellLerch:
    def test_z_translation_invariance(self):
        # m(x,q,z) = m(x,q,qz)
        samples = [
            (mono(2, 1), mono(-1, F(1, 2))),
            (zmono(3, 1), mono(-1, 0)),
            (mono(-1, F(1, 3)), zmono(5, 1, 1)),
            (mono(F(1, 2), 0), mono(2, F(1, 2))),
            (mono(-1, F(5, 2)), mono(1, F(1, 2))),
        ]
        for x, z in samples:
            a = read_row("m", (x, 1, z), ORDER)
            b = read_row("m", (x, 1, z.times_q(1)), ORDER)
            check_eq(a, b, ORDER)

    def test_x_translation_sends_m_to_one_minus_xm(self):
        # m(qx,q,z) = 1 - x m(x,q,z)
        samples = [
            (mono(2, 1), mono(-1, 0)),
            (zmono(3, 1, F(1, 2)), mono(-1, 0)),
            (mono(-3, 0), zmono(4, 1)),
            (mono(1, F(1, 3)), mono(-1, 1)),
            (mono(-1, -1), mono(-1, F(1, 2))),
        ]
        for x, z in samples:
            lhs = read_row("m", (x.times_q(1), 1, z), ORDER)
            rhs = series_sub(
                const_series(1, ORDER, denom=lhs.denom),
                series_shift(read_row("m", (x, 1, z), ORDER + 4), x),
            )
            check_eq(lhs, rhs, ORDER)

    def test_change_of_z_theta_quotient(self):
        # m(x,q,z1) - m(x,q,z0) = z0 J1^3 j(z1/z0;q) j(xz0z1;q)
        #                         / (j(z0;q) j(z1;q) j(xz0;q) j(xz1;q))
        samples = [
            (mono(2, 1), mono(-1, 0), mono(1, F(1, 2))),
            (zmono(3, 1, 1), mono(-1, 0), mono(-1, F(1, 3))),
            (mono(-1, 2), zmono(5, 1), mono(-1, F(1, 2))),
            (mono(3, 0), mono(2, 0), mono(-1, 1)),
            (mono(-1, -1), mono(2, 0), zmono(4, 1)),
        ]
        for x, z0, z1 in samples:
            lhs = series_sub(read_row("m", (x, 1, z1), ORDER), read_row("m", (x, 1, z0), ORDER))
            rhs = eval_expr(parse("mcorr(x, q, z0, z1)"), ORDER, {"x": x, "z0": z0, "z1": z1})
            check_eq(lhs, rhs, ORDER)

    def test_pole_location_is_exact(self):
        # the sum has a pole iff xz is an exact integral power of q
        with pytest.raises(NonGenericError):
            read_row("m", (mono(2, 0), 1, mono(F(1, 2), 1)), 10)
        with pytest.raises(NonGenericError):
            read_row("m", (mono(1, -1), 1, mono(1, 2)), 10)
        with pytest.raises(NonGenericError):
            read_row("m", (zmono(3, 1), 1, zmono(3, 2, 1)), 10)
        # near misses evaluate fine
        assert not read_row("m", (mono(2, 0), 1, mono(F(1, 3), 1)), 10).is_zero()
        assert not read_row("m", (mono(1, F(1, 3)), 1, mono(1, F(1, 3))), 10).is_zero()
        assert not read_row("m", (zmono(3, 1), 1, zmono(4, 1, 1)), 10).is_zero()

    def test_sixth_order_phi_expansion(self):
        # sum (-1)^n q^(n^2) (q;q^2)_n / (-q;q)_2n = 2 m(q,q^3,-1)
        acc = const_series(0, ORDER)
        n = 0
        while n * n <= ORDER:
            t = series_mul(
                q_power(n * n, ORDER + 2),
                series_div(
                    read_row("poch", (mono(1, 1), 2, n), ORDER + 2),
                    read_row("poch", (mono(-1, 1), 1, 2 * n), ORDER + 2),
                ),
            )
            if n % 2:
                t = series_neg(t)
            acc = series_add(acc, t)
            n += 1
        rhs = series_scale(read_row("m", (mono(1, 1), 3, mono(-1, 0)), ORDER), 2)
        check_eq(acc, rhs, ORDER)

    def test_sixth_order_sigma_expansion(self):
        # sum q^binom(n+2,2) (-q)_n / (q;q^2)_{n+1} = -m(q^2,q^6,q)
        acc = const_series(0, ORDER)
        n = 0
        while _binom2(n + 2) <= ORDER:
            t = series_mul(
                q_power(_binom2(n + 2), ORDER + 2),
                series_div(
                    read_row("poch", (mono(-1, 1), 1, n), ORDER + 2),
                    read_row("poch", (mono(1, 1), 2, n + 1), ORDER + 2),
                ),
            )
            acc = series_add(acc, t)
            n += 1
        rhs = series_neg(read_row("m", (mono(1, 2), 6, mono(1, 1)), ORDER))
        check_eq(acc, rhs, ORDER)

    def test_theta_quotient_product_budget(self, monkeypatch):
        # m is a Lambert sum divided by j(z;q) in one long division, 1,097
        # CycloNumber products and term pairs in all; inverting j(z;q) and
        # then multiplying takes 8,355
        monkeypatch.setattr(special, "_theta_cache", {})
        products, pairs = count_products(monkeypatch), count_pairs(monkeypatch)
        read_row("m", (mono(2, 1), 1, mono(-1, F(1, 2))), 60)
        assert products[0] + pairs[0] < 4000, (products[0], pairs[0])

    def test_lambert_scan_dot_budget(self, monkeypatch):
        # the division by j(z;q) takes 815 term pairs and the scan none; the
        # 2 CycloNumber products multiply the argument monomials.  Weight
        # rows read off geom_inverse took 236 pairs and running CycloNumber
        # powers 46 products, and dividing each term by its own
        # 1 - u q^F(n), as _bilateral_reference in test_series does, 542
        calls = count_work(monkeypatch, "m(2*q, q, -q^(1/2))", 60)
        assert calls < 850, calls

    def test_scans_make_no_term_pairs(self, monkeypatch):
        # the theta scan and m's Lambert scan neither multiply nor divide
        # series, and neither calls geom_inverse
        monkeypatch.setattr(special, "_theta_cache", {})
        pairs, inverses, geom = count_pairs(monkeypatch), [], series.geom_inverse
        monkeypatch.setattr(series, "geom_inverse", lambda *a: inverses.append(a) or geom(*a))
        eval_expr(parse("j(-q^(1/2); q)"), 200)
        c, e, u, f, _ = BILATERAL["m"][1](mono(2, 1), F(1), mono(-1, F(1, 2)))
        assert not series.bilateral_sum(c, e, F(60), u, f).is_zero()
        assert pairs[0] == 0 and not inverses

    @pytest.mark.parametrize("name,args", [
        ("j", (mono(-1, F(1, 2)), F(1))),
        ("m", (mono(2, 1), F(1), mono(-1, F(1, 2)))),
        ("Habc", (3, 2, 7)),
        ("phi", (F(1),)),
        ("Kp", (Monomial(zeta_power(5, 1), F(0)),)),
        ("Hp", (1, 7, Monomial.make(1))),
        ("poch", (mono(-1, F(1, 2)), F(1), None)),
    ])
    def test_scan_fractions_do_not_grow_with_the_order(self, monkeypatch, name, args):
        # the exponents are grid integers that series._grid reads off the
        # form on ints alone, so a bilateral scan or a term sum builds as
        # many Fractions at order 200 as at order 50 (after a first call
        # has filled the caches of field constants), and only a few: the
        # exponent arithmetic in Fractions built 33 to 62 in a bilateral
        # scan, and the grid read in Fractions 25 to 30 in a term sum
        if name in BILATERAL:
            c, e, u, f, _ = BILATERAL[name][1](*args)
            scan = partial(series.bilateral_sum, c, e, u=u, f=f)
        else:
            c, e, factors, start = FORMS[name][1](*args)
            scan = partial(series.term_sum, c, e, factors, start=start)
        scan(F(10))
        counts = []
        for order in (F(50), F(200)):
            made = count_fractions(monkeypatch)
            scan(order)
            counts.append(made[0])
            monkeypatch.undo()
        assert counts[0] == counts[1] < 8, counts


    def test_partition_inverse_product_budget(self, monkeypatch):
        # dividing by Jm(1) at 200 sums every c_n on integer rows; only the
        # powers of the theta terms' coefficients are CycloNumber products
        monkeypatch.setattr(special, "_theta_cache", {})
        products = count_products(monkeypatch)
        s = eval_expr(parse("1/Jm(1)"), 200)
        assert s.coeff_at(199) == 3646072432125  # p(199)
        assert products[0] < 300, products[0]


def msplit(x, z, zp, n, order):
    binding = {"x": x, "z": z, "zp": zp}
    return eval_expr(parse(f"msplit(x, q, z, zp, {n})"), order, binding)


class TestSplitting:
    def lhs(self, x, z, order):
        return read_row("m", (x, 1, z), order)

    def test_depth_one(self):
        samples = [
            (mono(2, 1), mono(-1, 0), mono(1, F(1, 2))),
            (zmono(3, 1), mono(-1, 0), mono(-1, F(1, 3))),
            (mono(3, 0), mono(2, 0), mono(-1, 1)),
            (mono(-1, F(1, 2)), zmono(4, 1), mono(-1, 0)),
            (mono(1, F(1, 3)), mono(-1, 0), mono(-1, 1)),
        ]
        for x, z, zp in samples:
            check_eq(self.lhs(x, z, ORDER), msplit(x, z, zp, 1, ORDER), ORDER)

    def test_depth_two(self):
        samples = [
            (-zmono(3, 1), mono(-1, 0), mono(-1, 1)),
            (-zmono(4, 1), mono(-1, 0), mono(-1, 1)),
            (-zmono(5, 1), mono(-1, 0), mono(-1, 1)),
            (mono(2, 1), mono(-1, 0), mono(-1, 1)),
            (mono(1, F(1, 2)), mono(2, 0), mono(-1, 1)),
        ]
        for x, z, zp in samples:
            check_eq(self.lhs(x, z, ORDER), msplit(x, z, zp, 2, ORDER), ORDER)

    def test_depth_three(self):
        samples = [
            (mono(2, 1), mono(-1, 0), mono(-1, 1)),
            (-zmono(3, 1), mono(-1, 0), mono(-1, 1)),
            (mono(1, F(1, 2)), mono(-1, 0), mono(2, 0)),
            (mono(-2, 0), zmono(3, 1), mono(-1, 1)),
            (zmono(5, 1, 1), mono(-1, 0), mono(-1, 2)),
        ]
        for x, z, zp in samples:
            check_eq(self.lhs(x, z, ORDER), msplit(x, z, zp, 3, ORDER), ORDER)

    def test_proof_step_specialization(self):
        # n=2, x=-w, z=-1, z'=-q reproduces the even/odd regrouping step
        for M in (3, 4, 5):
            w = zmono(M, 1)
            check_eq(
                self.lhs(-w, mono(-1, 0), ORDER),
                msplit(-w, mono(-1, 0), mono(-1, 1), 2, ORDER),
                ORDER,
            )

    def test_invalid_depth_rejected(self):
        with pytest.raises(EvalError, match="msplit: splitting depth"):
            msplit(mono(2, 1), mono(-1, 0), mono(-1, 1), 0, 10)


class TestUniversalMockSum:
    def test_three_constructions_agree(self):
        for x in [mono(-1, 0), zmono(3, 1), mono(2, 1), mono(1, F(1, 3))]:
            a = read_row("g", (x, 1), 25)
            b = eval_expr(parse("g_sum(x, q)"), 25, {"x": x})
            check_eq(a, b, 25)
        # the Appell-Lerch form g_appell needs x^2 away from integral powers of q
        for x in [zmono(3, 1), mono(2, 1), mono(1, F(1, 3))]:
            a = read_row("g", (x, 1), 25)
            c = eval_expr(parse("g_appell(x)"), 25, {"x": x})
            check_eq(a, c, 25)

    def test_third_order_mock_theta(self):
        # sum q^(n^2)/(-q)_n^2 = 2 - 2 g(-1,q)
        acc = const_series(0, ORDER)
        n = 0
        while n * n <= ORDER:
            den = read_row("poch", (mono(-1, 1), 1, n), ORDER + 2)
            acc = series_add(
                acc, series_div(q_power(n * n, ORDER + 2), series_mul(den, den))
            )
            n += 1
        rhs = series_sub(
            const_series(2, ORDER),
            series_scale(read_row("g", (mono(-1, 0), 1), ORDER), 2),
        )
        check_eq(acc, rhs, ORDER)

    def test_fifth_order_conjecture(self):
        # sum q^(n^2)/(-q)_n = -2q^2 g(q^2,q^10) + J(5,10)J(2,5)/J1
        acc = const_series(0, ORDER)
        n = 0
        while n * n <= ORDER:
            acc = series_add(
                acc,
                series_div(
                    q_power(n * n, ORDER + 2),
                    read_row("poch", (mono(-1, 1), 1, n), ORDER + 2),
                ),
            )
            n += 1
        quot = series_div(
            series_mul(read_row("j", (mono(1, 5), 10), ORDER), read_row("j", (mono(1, 2), 5), ORDER)),
            read_row("j", (mono(1, 1), 3), ORDER),
        )
        rhs = series_add(
            series_scale(
                series_shift(read_row("g", (mono(1, 2), 10), ORDER + 4), mono(1, 2)), -2
            ),
            quot,
        )
        check_eq(acc, rhs, ORDER)

    def test_single_quotient_rewriting(self):
        # the four-term expansion re-groups into two terms plus one theta quotient
        order = 60

        def m(ex, ez):
            return read_row("m", (mono(1, ex), 30, mono(1, ez)), order + 2)

        line1 = series_add(
            series_add(m(14, 14), m(14, 29)),
            series_shift(series_add(m(4, 4), m(4, 19)), mono(1, -2)),
        )
        quot = series_div(
            series_mul(
                read_row("j", (mono(1, 5), 10), order + 2), read_row("j", (mono(1, 2), 5), order + 2)
            ),
            read_row("j", (mono(1, 1), 3), order + 2),
        )
        line2 = series_add(
            series_add(
                series_scale(m(14, 4), 2),
                series_scale(series_shift(m(4, 4), mono(1, -2)), 2),
            ),
            quot,
        )
        check_eq(line1, line2, order)

    def test_pole_at_exact_power(self):
        with pytest.raises(NonGenericError):
            read_row("g", (mono(1, 2), 1), 10)
        with pytest.raises(NonGenericError):
            read_row("g", (mono(1, 0), 1), 10)
        with pytest.raises(NonGenericError):
            read_row("g", (mono(1, 10), 5), 10)


def _expand(text):
    return lambda order: eval_expr(parse(text), order)


@pytest.mark.parametrize("key, build", [
    ("m", lambda order: read_row("m", (mono(2, 1), 1, mono(-1, F(1, 2))), order)),
    ("m", lambda order: read_row("m", (zmono(3, 1, F(-1, 2)), 2, mono(-1, 1)), order)),
    ("g_euler", lambda order: read_row("g_euler", (zmono(3, 1), 1), order)),
    ("Kp", _expand("Kp(zeta(3,1))")),
    ("Habc", _expand("Habc(1,0,2)")),
    ("rjtp", _expand("rjtp(2*q)")),
    ("g", _expand("g(2*q)")),
])
def test_memo_keeps_one_entry_cut_at_its_order(monkeypatch, key, build):
    # keyed by the arguments alone: the shallower call is the deeper entry
    # cut, and equals what a cold call returns
    monkeypatch.setattr(special, "_theta_cache", {})
    build(30)
    warm = build(20)
    assert [k[0] for k in special._theta_cache].count(key) == 1
    special._theta_cache.clear()
    cold = build(20)
    assert (warm.denom, warm.prec, warm.field_order) == (cold.denom, cold.prec, cold.field_order)
    assert warm.terms == cold.terms


def _golden_row_calls():
    """(expression, bindings) of every golden expand call that is one call
    of a row of FORMS or BILATERAL, poch, j and m among them."""
    from test_golden import DEEP_CALLS, _calls

    out = []
    for expr, _, binds in (*_calls(), *DEEP_CALLS):
        # the name first: some golden calls are parse errors
        name = expr.split("(")[0]
        if (name in FORMS or name in BILATERAL) and isinstance(parse(expr), Call) and (expr, binds) not in out:
            out.append((expr, binds))
    return out


@pytest.mark.parametrize("order", [F(1, 2), F(1)])
@pytest.mark.parametrize("expr, binds", [*_golden_row_calls(), ("m(zeta(3,1)*q^(-3), q, 2*q^2)", "")])
def test_a_shallow_cold_read_is_the_deep_entry_cut(monkeypatch, expr, binds, order):
    # a sum's grid and field are its form's, not those of the terms a
    # shallow order happens to reach: Kp(zeta(5,1)) at order 1 once read Q
    # cold and Q(zeta_5) after an order-30 read, and so did
    # m(zeta(3,1)*q^(-3), q, 2*q^2), whose window is empty below q^1
    binding = parse_bindings(binds.split())

    def read(o):
        try:
            s = eval_expr(parse(expr), o, binding)
        except QIdentError as exc:
            return type(exc), str(exc)
        return s.denom, s.field_order, s.prec, s.sorted_terms()

    monkeypatch.setattr(special, "_theta_cache", {})
    cold = read(order)
    read(30)
    assert read(order) == cold


@pytest.mark.parametrize("name, args, want", [
    # j(-q^(1/3); q^(1/2)) = sum (-1)^n q^(binom(n,2)/2) (-q^(1/3))^n
    ("j", (mono(-1, F(1, 3)), F(1, 2)), lambda o: theta_bruteforce(F(-1), F(1, 3), F(1, 2), o)),
    # rjtp(z, q^(1/2)) = sum (-1)^n q^(binom(n+1,2)/2) / (1 - q^(n/2) z), on
    # the grid 1/2 at z = 2, whose own grid is 1/1
    ("rjtp", (mono(2), F(1, 2)),
     lambda o: lambert_bruteforce(-1, lambda n: F(n * (n + 1), 4), 2, lambda n: F(n, 2), o)),
    ("rjtp", (mono(2, F(1, 3)), F(1, 2)),
     lambda o: lambert_bruteforce(-1, lambda n: F(n * (n + 1), 4), 2, lambda n: F(n, 2) + F(1, 3), o)),
    # m(x, q^(1/2), z) = sum (-1)^n q^(binom(n,2)/2) z^n / (1 - q^((n-1)/2) x z)
    # over j(z; q^(1/2)), at x = 2 q^(1/2) and z = -q^(1/4)
    ("m", (mono(2, F(1, 2)), F(1, 2), mono(-1, F(1, 4))), lambda o: dict_truncate(dict_mul(
        lambert_bruteforce(1, lambda n: F(n * n, 4), -2, lambda n: F(n, 2) + F(1, 4), o + 5),
        geom_inverse_bruteforce(theta_bruteforce(F(-1), F(1, 4), F(1, 2), o + 5), o + 5)), o)),
], ids=["j", "rjtp-2", "rjtp-2q^(1/3)", "m"])
def test_rows_at_base_one_half_match_a_fraction_sum(monkeypatch, name, args, want):
    monkeypatch.setattr(special, "_theta_cache", {})
    assert_series_matches(read_row(name, args, F(8)), want(F(8)), F(8))


def _corpus_m_bindings():
    """(x, z) of every binding of a built-in stanza whose left side is m(x, q, z)."""
    from qident.identity import builtin_cases

    lhs = parse("m(x, q, z)")
    return [(b["x"], b["z"]) for case in builtin_cases() if case.lhs == lhs for b in case.sample_bindings]


@pytest.mark.parametrize("p", [1, 2])
def test_mj_matches_a_fraction_sum_at_the_corpus_m_bindings(monkeypatch, p):
    # mj(x, q^p, z) = sum (-1)^r q^(p binom(r,2)) z^r / (1 - q^(p(r-1)) x z),
    # over the fields Q(zeta_M), M in 1, 3, 4, 5, and the grids 1/1 to 1/3
    # of the corpus's bindings of m
    monkeypatch.setattr(special, "_theta_cache", {})
    order, fields, grids = F(12), set(), set()
    for x, z in _corpus_m_bindings():
        M, xz = lcm(x.coeff.order, z.coeff.order), x * z
        want = lambert_bruteforce(
            -lift_order(z.coeff, M), lambda r: p * _binom2(r) + z.expo * r,
            lift_order(xz.coeff, M), lambda r: p * (r - 1) + xz.expo, order)
        assert_series_matches(read_row("mj", (x, p, z), order), want, order)
        fields.add(M)
        grids.add(lcm(x.expo.denominator, z.expo.denominator))
    assert fields == {1, 3, 4, 5} and grids == {1, 2, 3}


@pytest.mark.parametrize("p", [1, 2])
def test_mj_is_m_times_its_theta(monkeypatch, p):
    monkeypatch.setattr(special, "_theta_cache", {})
    for x, z in _corpus_m_bindings():
        binding = {"x": x, "z": z}
        want = eval_expr(parse(f"m(x, q^{p}, z)*j(z, q^{p})"), ORDER, binding)
        check_eq(eval_expr(parse(f"mj(x, q^{p}, z)"), ORDER, binding), want, ORDER)


@pytest.mark.parametrize("x, p, z", [
    (mono(2), 1, mono(1)),
    (zmono(3, 1, F(1, 2)), 1, mono(1, -1)),
    (mono(-1, F(1, 3)), 2, mono(1, 4)),
])
def test_mj_is_defined_where_its_theta_vanishes(monkeypatch, x, p, z):
    # m refuses z a power of q^p; mj is the sum itself, and keeps
    # mj(x, q^p, q^p z) = -z^(-1) mj(x, q^p, z) there too
    monkeypatch.setattr(special, "_theta_cache", {})
    with pytest.raises(NonGenericError, match="vanishes identically"):
        read_row("m", (x, p, z), ORDER)
    s = read_row("mj", (x, p, z), ORDER + 4)
    assert not s.is_zero()
    check_eq(read_row("mj", (x, p, z.times_q(p)), ORDER), series_neg(series_shift(s, z.inv())), ORDER)


@pytest.mark.parametrize("x, p, z, r", [
    (mono(1, 1), 1, mono(1, -1), 1),
    (mono(1, F(1, 2)), 1, mono(1, F(1, 2)), 0),
    (zmono(3, 1, 3), 2, zmono(3, 2, 1), -1),
])
def test_mj_raises_its_pole(monkeypatch, x, p, z, r):
    # 1 - q^(p(r-1)) x z vanishes exactly at r; where j(z; q^p) does not
    # vanish, m raises the same message
    monkeypatch.setattr(special, "_theta_cache", {})
    message = f"Appell-Lerch denominator 1 - q^((r-1)p) x z vanishes at r = {r}"
    with pytest.raises(NonGenericError) as exc:
        read_row("mj", (x, p, z), 10)
    assert str(exc.value) == message
    if not theta_vanishes(z, p):
        with pytest.raises(NonGenericError) as exc:
            read_row("m", (x, p, z), 10)
        assert str(exc.value) == message


def test_a_read_one_grid_step_deeper_reaches_its_order(monkeypatch):
    # an entry cut at q^10 on the grid 1/2 does not serve q^(21/2): the
    # memo builds again, where a hit would return precision 10
    monkeypatch.setattr(special, "_theta_cache", {})
    x = mono(-1, F(1, 2))
    read_row("j", (x, 1), 10)
    assert read_row("j", (x, 1), F(21, 2)).prec_order() >= F(21, 2)


def test_a_memo_hit_builds_no_form(monkeypatch):
    # the key is looked up before the row's form is built: the j row's form
    # makes 4 Fractions, a hit only the one of the base
    monkeypatch.setattr(special, "_theta_cache", {})
    x = mono(-1, F(1, 2))
    special.read_row("j", (x, 1), 50)
    made = count_fractions(monkeypatch)
    special.read_row("j", (x, 1), 50)
    assert made[0] <= 1, made[0]


@pytest.mark.parametrize("name, args", [
    ("lambert_even", (mono(1),)),
    ("rjtp", (mono(1, 1), F(1))),
    ("Hp", (3, 2, mono(1))),
    ("poch", (mono(2), F(1), -1)),
])
def test_a_rejected_row_is_rejected_again(monkeypatch, name, args):
    # a pole or a bad argument never enters the memo
    monkeypatch.setattr(special, "_theta_cache", {})
    for _ in range(2):
        with pytest.raises((NonGenericError, ValueError)):
            special.read_row(name, args, 10)
    assert not special._theta_cache


@pytest.mark.parametrize("p", [0, -1])
@pytest.mark.parametrize("build", [
    lambda p: read_row("j", (mono(2, 1), p), 10),
    lambda p: read_row("j", (mono(1, 1), p), 10),
    lambda p: read_row("m", (mono(2, 1), p, mono(-1, F(1, 2))), 10),
    lambda p: read_row("g", (mono(2, 1), p), 10),
    lambda p: read_row("g_euler", (mono(2, 1), p), 10),
    lambda p: read_row("poch", (mono(2, 1), p, 3), 10),
], ids=["theta_j", "J", "appell_m", "g_universal", "g_euler", "pochhammer"])
def test_base_must_be_positive(build, p):
    with pytest.raises(ValueError, match="base exponent must be positive"):
        build(p)
