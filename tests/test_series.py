"""Series ring: worked examples, brute-force oracles, and property suites."""

from fractions import Fraction as F
from itertools import accumulate
from math import ceil, gcd, lcm, prod
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qident.coeff import CycloNumber, cyclo_embed, euler_phi, lift_order, zeta_power
from qident import series
from qident.dsl import eval_expr, parse
from qident.errors import InsufficientPrecisionError, NonGenericError
from qident.identity import builtin_cases
from qident.series import (
    Monomial,
    QSeries,
    align,
    bilateral_pole,
    bilateral_sum,
    const_series,
    from_monomial,
    geom_inverse,
    q_power,
    series_add,
    series_div,
    series_eq_to_order,
    series_invert,
    series_mul,
    series_neg,
    series_pow,
    series_scale,
    series_shift,
    series_sub,
    zero_series,
)

from oracles import (
    assert_series_matches,
    count_calls,
    dict_mul,
    dict_truncate,
    geom_inverse_bruteforce,
    long_division,
    pochhammer_bruteforce,
    series_dict,
)


def geometric(order):
    return series_invert(series_sub(const_series(1, order), q_power(1, order)))


class TestAddExamples:
    def test_one_minus_q_plus_q(self):
        a = series_sub(const_series(1, 10), q_power(1, 10))
        got = series_add(a, q_power(1, 10))
        assert_series_matches(got, {0: 1}, F(10))

    def test_add_zero_keeps_min_precision(self):
        a = geometric(10)
        z = zero_series(8)
        s = series_add(a, z)
        assert s.prec_order() == 8
        assert max(s.terms) < 8

    def test_cancellation_to_min_precision(self):
        a = geometric(10)
        b = series_neg(geometric(8))
        s = series_add(a, b)
        assert s.is_zero()
        assert s.prec_order() == 8


class TestMulExamples:
    def test_difference_of_squares(self):
        one = const_series(1, 12)
        a = series_sub(one, q_power(1, 12))
        b = series_add(one, q_power(1, 12))
        assert_series_matches(series_mul(a, b), {0: 1, 2: -1}, F(12))

    def test_fractional_grid_rebase(self):
        h = q_power(F(1, 2), 10)
        s = series_mul(h, h)
        assert s.denom == 2
        assert_series_matches(s, {1: 1}, F(10))
        assert h.rebase(6).denom == 6
        with pytest.raises(ValueError, match="2 does not divide 3"):
            h.rebase(3)

    def test_euler_pentagonal_partial_product(self):
        order = F(12)
        acc = const_series(1, order)
        want = {F(0): F(1)}
        for i in range(1, 13):
            acc = series_mul(
                acc, series_sub(const_series(1, order), q_power(i, order))
            )
            want = dict_mul(want, {F(0): F(1), F(i): F(-1)})
        expected = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1}
        assert_series_matches(acc, expected, order)
        assert_series_matches(acc, {e: c for e, c in want.items() if e < order}, order)

    def test_precision_rule_uses_valuation(self):
        # a known to q^10, b = q^3 * unit: product trustworthy to q^13
        a = geometric(10)
        b = series_shift(geometric(10), Monomial.make(1, 3))
        s = series_mul(a, b)
        assert s.prec_order() == 13


class TestInvertExamples:
    def test_geometric_series(self):
        inv = geometric(9)
        assert_series_matches(inv, {k: 1 for k in range(9)}, F(9))

    def test_invert_pure_monomial(self):
        s = series_invert(q_power(1, 12))
        assert_series_matches(s, {-1: 1}, F(10))
        assert s.prec_order() == 10

    def test_invert_zero_raises(self):
        with pytest.raises(NonGenericError):
            series_invert(zero_series(10))

    def test_inverse_law_with_cyclotomic_lead(self):
        z = zeta_power(3, 1)
        a = series_add(
            series_scale(q_power(2, 20), z), series_scale(q_power(7, 20), 2 * z + 1)
        )
        ia = series_invert(a)
        prod = series_mul(a, ia)
        v = series_eq_to_order(prod, const_series(1, 20), prod.prec_order())
        assert v.ok


class TestShift:
    def test_constant_shift(self):
        s = series_shift(const_series(1, 10), Monomial.make(-1, 1))
        assert_series_matches(s, {1: -1}, F(10))

    def test_eighth_grid(self):
        s = series_shift(geometric(4), Monomial.make(1, F(1, 8)))
        assert s.denom == 8
        assert repr(s) == "<QSeries D=8 M=1 P=33 terms=4>"
        assert_series_matches(
            s, {F(1, 8): 1, F(9, 8): 1, F(17, 8): 1, F(25, 8): 1}, F(33, 8)
        )

    def test_term_count_preserved(self):
        a = geometric(10)
        s = series_shift(a, Monomial.make(zeta_power(4, 1), F(-3, 2)))
        assert len(s.terms) == len(a.terms)

    def test_scale_by_zero_keeps_the_precision(self):
        s = series_scale(geometric(10), 0)
        assert s.is_zero() and s.prec_order() == 10


class TestGeomInverse:
    def test_positive_exponent(self):
        s = geom_inverse(Monomial.make(1, 1), 5)
        assert_series_matches(s, {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}, F(5))

    def test_zero_exponent_constant(self):
        s = geom_inverse(Monomial.make(2, 0), 5)
        assert_series_matches(s, {0: -1}, F(5))

    def test_negative_exponent(self):
        s = geom_inverse(Monomial.make(1, -1), 4)
        one_minus_u = series_sub(const_series(1, 6), q_power(-1, 6))
        prod = series_mul(s, one_minus_u)
        v = series_eq_to_order(prod, const_series(1, 6), prod.prec_order())
        assert v.ok
        assert s.valuation() == 1

    def test_pole_raises(self):
        with pytest.raises(NonGenericError):
            geom_inverse(Monomial.make(1, 0), 5)


class TestEqToOrder:
    def test_reflexive(self):
        a = geometric(12)
        assert series_eq_to_order(a, a, 12).ok

    def test_boundary_exponent(self):
        one = const_series(1, 10)
        other = series_add(const_series(1, 10), q_power(5, 10))
        assert series_eq_to_order(one, other, 5).ok
        v = series_eq_to_order(one, other, 6)
        assert v.status == "fail"
        assert v.first_bad_exponent == 5
        assert v.lhs_coeff == 0 and v.rhs_coeff == 1

    def test_insufficient_precision_raises(self):
        a = geometric(8)
        with pytest.raises(InsufficientPrecisionError) as err:
            series_eq_to_order(a, a, 9)
        assert err.value.deficit == 1
        with pytest.raises(InsufficientPrecisionError):
            a.coeff_at(8)

    def test_cross_grid_comparison(self):
        a = q_power(F(1, 2), 10)
        b = series_shift(const_series(1, F(19, 2)), Monomial.make(1, F(1, 2)))
        assert series_eq_to_order(a, b, F(19, 2)).ok

    @pytest.mark.parametrize("a, b, order, differences", [
        # two empty rows whose offsets differ: equal, with no difference built
        (series._new(1, 10, 1, 3, [[]], 1), zero_series(10), 10, 0),
        # 1 + 2q stored over 2, with the common factor left in, and in lowest terms
        (series._new(1, 10, 1, 0, [[2, 4]], 2), series_add(const_series(1, 10), series_scale(q_power(1, 10), 2)),
         10, 1),
        # rows that differ only at q^5, read below q^5
        (series_add(const_series(1, 10), q_power(5, 10)), series_add(const_series(1, 10), series_scale(q_power(5, 10), 2)),
         5, 1),
    ])
    def test_equal_values_stored_differently_pass(self, monkeypatch, a, b, order, differences):
        subs = count_calls(monkeypatch, "series_sub")
        assert series_eq_to_order(a, b, order).ok and series_eq_to_order(b, a, order).ok
        assert subs[0] == 2 * differences

    @pytest.mark.parametrize("a, b, e, lhs, rhs", [
        # the same offset and denominator, a mismatch past the first slot
        (series._new(1, 10, 1, 0, [[1, 1, 0, 0, 3]], 1), series._new(1, 10, 1, 0, [[1, 1, 0, 0, 2, 7]], 1), 4, 3, 2),
        # the same lists over different denominators: every slot differs
        (series._new(1, 10, 1, -1, [[1, 0, 1]], 2), series._new(1, 10, 1, -1, [[1, 0, 1]], 3), -1, F(1, 2), F(1, 3)),
        # an empty row against one whose only term lies below the order
        (zero_series(10), q_power(F(9, 2), 10), F(9, 2), 0, 1),
    ])
    def test_first_mismatch_below_the_order_is_reported(self, a, b, e, lhs, rhs):
        v = series_eq_to_order(a, b, 5)
        assert v.status == "fail" and v.first_bad_exponent == e
        assert (v.lhs_coeff, v.rhs_coeff) == (lhs, rhs)

    @pytest.mark.parametrize("stanza, binding", [("theta-invert", 0), ("m-shift-x", 4), ("kprime-form", 0)])
    def test_a_passing_check_compares_without_a_difference(self, monkeypatch, stanza, binding):
        # m-shift-x's fifth binding has both sides zero, as rows at different offsets
        case = next(c for c in builtin_cases() if c.id == stanza)
        order = F(case.default_order)
        lhs, rhs = (eval_expr(side, order, case.sample_bindings[binding]) for side in (case.lhs, case.rhs))
        subs = count_calls(monkeypatch, "series_sub")
        assert series_eq_to_order(lhs, rhs, order).ok
        assert subs[0] == 0


class TestBilateralSum:
    def test_theta_like_sum_matches_direct_scan(self):
        # sum over n of (-1)^n q^(n(n-1)/2) x^n with x = q^2
        order = F(30)

        def val(n):
            return F(n * (n - 1), 2) + 2 * n

        got = bilateral_sum(-1, (F(1, 2), F(3, 2), 0), order)
        want = {}
        for n in range(-40, 40):
            e = val(n)
            if e < order:
                want[e] = want.get(e, 0) + (-1) ** n
        assert_series_matches(got, {e: c for e, c in want.items() if c}, order)

    @pytest.mark.parametrize("e, f, denom", [
        ((F(1, 2), 0, 0), None, 2),
        # n(n+1)/4 is a multiple of 1/2 at every n, though its coefficients are quarters
        ((F(1, 4), F(1, 4), 0), None, 2),
        ((1, F(1, 3), 0), None, 3),
        ((1, 0, 0), (F(1, 3), F(2, 3)), 3),
        # the form of m(2 q^(1/2), q, -q^(1/2)), whose x and z share the denominator 2
        ((F(1, 2), 0, 0), (1, 0), 2),
        ((F(3, 2), F(1, 2), 0), (F(3, 4), F(1, 4)), 4),
    ], ids=["E=n^2/2", "E=n(n+1)/4", "E=n^2+n/3", "F=(n+2)/3", "m(2q^(1/2),q,-q^(1/2))", "F=(3n+1)/4"])
    def test_grid_is_the_coarsest_that_holds_every_exponent(self, e, f, denom):
        # E(-1), E(0), E(1), F(0) and F(1) fix it: no exponent is off it, and
        # the nonzero exponents of the sum do not all lie on a coarser one
        s = bilateral_sum(1, e, 10, None if f is None else cyclo_embed(2, 1), f or (0, 0))
        assert s.denom == denom
        assert gcd(denom, *s.terms) == 1

    @pytest.mark.parametrize("e2", [0, -1])
    def test_quadratic_must_be_positive(self, e2):
        with pytest.raises(ValueError, match="needs a positive quadratic exponent"):
            bilateral_sum(1, (e2, 1, 0), 10)

    def test_pole_outside_the_window_is_rejected(self):
        # the n = 10 term is q^100 / (1 - q^0), far past order 5
        with pytest.raises(NonGenericError):
            bilateral_sum(1, (1, 0, 0), 5, cyclo_embed(1, 1), (1, -10))

    @pytest.mark.parametrize("u, f, n", [
        (1, (1, -10), 10),
        (1, (2, F(3)), None),
        (1, (F(1, 2), F(-3, 2)), 3),
        (1, (0, 0), 0),
        (1, (0, 1), None),
        (-1, (1, 0), None),
        (zeta_power(3, 1), (1, 0), None),
    ])
    def test_bilateral_pole_is_the_integer_zero_of_f(self, u, f, n):
        u = u if isinstance(u, CycloNumber) else cyclo_embed(u, 1)
        assert bilateral_pole(u, f) == n


class TestGridCap:
    def test_grid_past_the_cap_is_rejected_as_it_is_built(self, monkeypatch):
        with pytest.raises(ValueError, match="grid denominator must be positive"):
            QSeries(0, 5, {}, 1)
        monkeypatch.setattr(series, "MAX_GRID", 6)
        assert from_monomial(Monomial.make(1, F(1, 6)), 3).denom == 6
        with pytest.raises(ValueError, match="exceeds MAX_GRID = 6"):
            from_monomial(Monomial.make(1, F(1, 7)), 3)
        a = from_monomial(Monomial.make(1, F(1, 2)), 3)
        with pytest.raises(ValueError, match="exceeds MAX_GRID = 6"):
            series_add(a, from_monomial(Monomial.make(1, F(1, 5)), 3))

    def test_grid_cap_covers_every_grid_in_use(self):
        # the finest grid of the golden expansions is 1/49
        assert series.MAX_GRID >= 49


# ---------------------------------------------------------------------------
# Property suites
# ---------------------------------------------------------------------------

small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def qseries(draw, min_prec=4, max_prec=18, fields=(1, 3, 4)):
    denom = draw(st.sampled_from([1, 2, 3, 4]))
    field = draw(st.sampled_from(fields))
    prec = draw(st.integers(min_value=min_prec, max_value=max_prec))
    n_terms = draw(st.integers(min_value=0, max_value=6))
    phi = euler_phi(field)
    terms = {}
    for _ in range(n_terms):
        k = draw(st.integers(min_value=-6, max_value=prec - 1))
        vec = draw(
            st.lists(small_rationals, min_size=phi, max_size=phi)
        )
        c = CycloNumber(field, vec)
        if not c.is_zero():
            terms[k] = c
    return QSeries(denom, prec, terms, field)


@given(qseries(), qseries(), qseries())
@settings(max_examples=120, deadline=None)
def test_ring_axioms(a, b, c):
    left = series_add(series_add(a, b), c)
    right = series_add(a, series_add(b, c))
    w = min(left.prec_order(), right.prec_order())
    assert series_eq_to_order(left, right, w).ok

    lm = series_mul(series_mul(a, b), c)
    rm = series_mul(a, series_mul(b, c))
    w = min(lm.prec_order(), rm.prec_order())
    assert series_eq_to_order(lm, rm, w).ok

    ld = series_mul(a, series_add(b, c))
    rd = series_add(series_mul(a, b), series_mul(a, c))
    w = min(ld.prec_order(), rd.prec_order())
    assert series_eq_to_order(ld, rd, w).ok

    wc = min(
        series_mul(a, b).prec_order(), series_mul(b, a).prec_order()
    )
    assert series_eq_to_order(series_mul(a, b), series_mul(b, a), wc).ok


@given(st.lists(qseries(min_prec=1), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_sum_in_place_is_the_add_fold(parts):
    # series.term_sum adds each term into one row of its own, which
    # starts empty at a precision above every term's
    fold = parts[0]
    for t in parts[1:]:
        fold = series_add(fold, t)
    d, m = lcm(*(s.denom for s in parts)), lcm(*(s.field_order for s in parts))
    rows = [s.rebase(d).lift_field(m) for s in parts]
    acc = series._zero(d, max(s.prec for s in rows), m)
    for t in rows:
        acc = series._add_into(acc, t)
    got = series._row(d, acc.prec, m, acc.off, acc.cols, acc.den)
    assert (got.denom, got.prec, got.field_order) == (fold.denom, fold.prec, fold.field_order)
    assert {k: c.key() for k, c in got.terms.items()} == {k: c.key() for k, c in fold.terms.items()}



def test_sum_accumulator_spans_only_its_terms(monkeypatch):
    # an empty total spans nothing, so adding q^0 and q^1 below q^5000
    # grows a row of 1 and then 2 slots, not one out to the precision
    lengths, add_into = [], series._add_into

    def recorded(total, t):
        acc = add_into(total, t)
        lengths.append(len(acc.cols[0]))
        return acc

    monkeypatch.setattr(series, "_add_into", recorded)
    s = series_add(q_power(0, 5000), q_power(1, 5000))
    assert lengths == [1, 2]
    assert (s.prec, s.off, s.cols) == (5000, 0, [[1, 1]])

@given(qseries(min_prec=6))
@settings(max_examples=120, deadline=None)
def test_inverse_law(a):
    if a.is_zero():
        with pytest.raises(NonGenericError):
            series_invert(a)
        return
    inv = series_invert(a)
    prod = series_mul(a, inv)
    one = const_series(1, prod.prec_order())
    assert series_eq_to_order(prod, one, prod.prec_order()).ok


@given(
    small_rationals.filter(lambda r: r != 0),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.sampled_from([1, 3, 4]),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=150, deadline=None)
def test_geom_inverse_three_case_law(c_rat, f, field, k):
    c = cyclo_embed(c_rat, field) * zeta_power(field, k)
    u = Monomial(c, f)
    if f == 0 and c == 1:
        with pytest.raises(NonGenericError):
            geom_inverse(u, 10)
        return
    g = geom_inverse(u, 10)
    one_minus_u = series_sub(const_series(1, 12), from_monomial(u, 12))
    prod = series_mul(g, one_minus_u)
    w = min(prod.prec_order(), F(10))
    assert series_eq_to_order(prod, const_series(1, 12), w).ok
    if f > 0:
        assert g.valuation() == 0
    elif f < 0:
        assert g.valuation() == -f


def _naive(s, field):
    """Terms of s lifted to the field, keyed by exponent."""
    return series_dict(s.lift_field(field))


def _val_or_prec(s):
    v = s.valuation()
    return s.prec_order() if v is None else v


@st.composite
def divisors(draw, fields=(1, 3, 4), windows=(1, 14)):
    """A divisor with a cyclotomic lead of valuation -3 .. 3 on a grid 1 .. 4,
    its window as many slots as windows allows, now and then zero to its
    precision; in Q(zeta_5) the lead may be 1 - zeta_5^k, of norm 5."""
    denom = draw(st.sampled_from([1, 2, 3, 4]))
    field = draw(st.sampled_from(fields))
    v = draw(st.integers(min_value=-3, max_value=3))
    prec = v + draw(st.integers(min_value=windows[0], max_value=windows[1]))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        return QSeries(denom, prec, {}, field)
    phi = euler_phi(field)
    lead = draw(
        st.one_of(
            st.just(cyclo_embed(F(1), field)),
            st.builds(
                lambda r, k: cyclo_embed(r, field) * zeta_power(field, k),
                small_rationals.filter(lambda r: r != 0),
                st.integers(min_value=0, max_value=field - 1),
            ),
            st.lists(small_rationals, min_size=phi, max_size=phi)
            .map(lambda vec: CycloNumber(field, vec))
            .filter(lambda c: not c.is_zero()),
            st.builds(
                lambda c, k: cyclo_embed(F(c), field) - zeta_power(field, k),
                st.integers(min_value=1, max_value=3),
                st.integers(min_value=1, max_value=4),
            ).filter(lambda c: not c.is_zero()),
        )
    )
    terms = {v: lead}
    n_tail = draw(st.integers(min_value=0, max_value=5)) if prec > v + 1 else 0
    for _ in range(n_tail):
        k = draw(st.integers(min_value=v + 1, max_value=prec - 1))
        terms[k] = CycloNumber(field, draw(st.lists(small_rationals, min_size=phi, max_size=phi)))
    return QSeries(denom, prec, terms, field)


@given(qseries(), divisors())
@settings(max_examples=200, deadline=None)
def test_div_matches_naive_product(a, b):
    _check_quotient(a, b)


@given(qseries(min_prec=60, max_prec=80, fields=(1, 5)), divisors(fields=(1, 5), windows=(60, 80)))
@settings(max_examples=40, deadline=None)
def test_div_over_long_windows_matches_naive_product(a, b):
    # walks of 60 slots and more, non-unit leads whose quotients' denominators
    # grow like a power of the lead's norm at each step
    _check_quotient(a, b)


@st.composite
def hard_divisors(draw, fields=(1, 5)):
    """A divisor of 60 to 80 slots whose tail ratios have composite
    denominators (6, 12, 36) anywhere, or the prime 1000003 only at offsets
    40 and more past an integral near tail, so that the quotient's scale
    has several bases, or one whose rate is small."""
    denom = draw(st.sampled_from([1, 2, 3]))
    field = draw(st.sampled_from(fields))
    phi = euler_phi(field)
    v = draw(st.integers(min_value=-3, max_value=3))
    prec = v + draw(st.integers(min_value=60, max_value=80))
    far = draw(st.booleans())
    terms = {v: cyclo_embed(draw(st.sampled_from([F(1), F(-1), F(2)])), field)}
    if far:
        terms[v + 1] = cyclo_embed(F(draw(st.sampled_from([-1, 1, 3]))), field)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        k = draw(st.integers(min_value=v + (40 if far else 1), max_value=prec - 1))
        nums = draw(st.lists(st.integers(min_value=-5, max_value=5), min_size=phi, max_size=phi).filter(any))
        dens = [1000003] if far else [6, 12, 36]
        terms[k] = CycloNumber(field, [F(x, draw(st.sampled_from(dens))) for x in nums])
    return QSeries(denom, prec, terms, field)


@given(qseries(min_prec=60, max_prec=80, fields=(1, 5)), hard_divisors())
@settings(max_examples=40, deadline=None)
def test_div_by_hard_divisors_matches_naive_product(a, b):
    # every slot of the walk is scaled by its own power of each base
    _check_quotient(a, b)


def test_div_with_a_large_prime_only_at_a_far_offset():
    b = {F(0): F(1), F(1): F(-1), F(50): F(1, 1000003)}
    divisor = QSeries(1, 200, {int(e): cyclo_embed(c, 1) for e, c in b.items()}, 1)
    assert series._scale([(1, 1), (50, 1000003)], 3)[0] == [(1000003, F(1, 50))]
    assert_series_matches(series_invert(divisor), geom_inverse_bruteforce(b, F(200)), F(200))


# Divisors as exponent -> coefficient maps in Q(zeta_M), from z = zeta_M and
# one = 1 there, and whether every ratio b_j / b_0 of each is integral.
DIVISORS = {
    # Jm(1) = (q; q)_inf below q^30 times z, a unit: every ratio is -1 or 1
    "euler-times-a-unit": (lambda z, one: {F(e): s * z for e, s in ((0, 1), (1, -1), (2, -1), (5, 1), (7, 1),
                                                                     (12, -1), (15, -1), (22, 1), (26, 1))}, True),
    # a lead -1 at q^-1 and integral cyclotomic tail terms
    "integral-cyclotomic-tail": (lambda z, one: {F(-1): -one, F(0): one + z, F(3): 3 * z * z, F(4): one}, True),
    # 1 - x with x = q/2: the rate 2
    "x-is-q-over-2": (lambda z, one: {F(0): one, F(1): -z * F(1, 2)}, False),
    # the lead 2 + z, of norm 3 in Q(zeta_3), 5 in Q(i), 31 in Q(zeta_5)
    "lead-2-plus-zeta": (lambda z, one: {F(0): 2 * one + z, F(1): one, F(3): z}, False),
    # tail offsets 2, 4 and 6, of gcd 2, one with a ratio of denominator 3
    "even-offsets": (lambda z, one: {F(0): one, F(2): -z, F(4): one * F(1, 3), F(6): 2 * z}, False),
    # a lead at q^-2 on the grid 1/2 and a ratio of denominator 2
    "half-grid": (lambda z, one: {F(-2): z, F(-1, 2): one * F(1, 2), F(3): -z}, False),
}


@pytest.mark.parametrize("field", [1, 3, 4, 5])
@pytest.mark.parametrize("name", sorted(DIVISORS))
@pytest.mark.parametrize("a_order, b_order", [(20, 30), (30, 12)])
def test_div_matches_long_division(monkeypatch, field, name, a_order, b_order):
    # integral ratios divide without a scale, the others through _scale;
    # a_order bounds the first quotients and b_order the second
    one, z = cyclo_embed(F(1), field), zeta_power(field, 1)
    build, integral = DIVISORS[name]
    terms = build(z, one)
    d = lcm(*(e.denominator for e in terms))
    b = QSeries(d, b_order * d, {int(e * d): c for e, c in terms.items()}, field)
    a = QSeries(1, a_order, {-1: one, 0: 2 * z, 3: one * F(-1, 2), 7: 5 * z, 8: z * z}, field)
    scales = count_calls(monkeypatch, "_scale")
    got = series_div(a, b)
    assert scales[0] == (not integral)
    v, va = b.valuation(), a.valuation()
    assert got.prec_order() == min(a.prec_order() - v, b.prec_order() - 2 * v + va)
    assert got.prec_order() == (a_order - v if a_order < b_order else b_order - 2 * v + va)
    assert_series_matches(got, long_division(series_dict(a), series_dict(b), got.prec_order()), got.prec_order())


@pytest.mark.parametrize("dens, rates, sigma", [
    # 2, 2^3 and 2^6 at offsets 1, 2 and 3: one base 2 at rate max(1, 3/2, 2)
    ([(1, 2), (2, 2**3), (3, 2**6)], [(2, F(2))], [1, 4, 16, 64, 256]),
    # a lone 36 at offset 2 is never factored
    ([(2, 36)], [(36, F(1, 2))], [1, 36, 36, 36**2, 36**2]),
    # 6 and 4 share 2, which splits 6 into the bases 2 and 3
    ([(1, 6), (2, 4)], [(2, F(1)), (3, F(1))], [1, 6, 36, 216, 1296]),
    # integral ratios: no base, and sigma is 1
    ([(1, 1), (3, 1)], [], [1, 1, 1, 1, 1]),
])
def test_scale_bases_rates_and_slot_scales(dens, rates, sigma):
    got, steps = series._scale(dens, 5)
    assert (got, list(accumulate(steps, mul, initial=1))) == (rates, sigma)


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=12),
                          st.lists(st.sampled_from([2, 3, 4, 6, 10, 12, 36, 1000003]), max_size=4)),
                max_size=6, unique_by=lambda d: d[0]))
@settings(max_examples=200, deadline=None)
def test_scale_divides_every_ratio_denominator(raw):
    dens = sorted((j, prod(fs)) for j, fs in raw)
    rates, steps = series._scale(dens, 16)
    # the running products of the steps, upward and from the top down, are
    # sigma(n) = prod b^ceil(kappa n) and sigma(15) / sigma(n)
    sig = [prod(b ** ceil(k * n) for b, k in rates) for n in range(16)]
    assert list(accumulate(steps, mul, initial=1)) == sig
    assert list(accumulate(reversed(steps), mul, initial=1))[::-1] == [sig[-1] // s for s in sig]
    bases = [b for b, _ in rates]
    assert all(gcd(x, y) == 1 for i, x in enumerate(bases) for y in bases[i + 1:])
    for j, r in dens:
        for b in bases:
            while r % b == 0:
                r //= b
        assert r == 1  # every denominator is a product of powers of the bases
    assert all(sig[n + 1] % sig[n] == 0 for n in range(15))
    assert all(sig[n] % (sig[n - j] * r) == 0 for j, r in dens for n in range(j, 16))


def _check_quotient(a, b):
    """series_div(a, b) has the stated precision and gives back a times b."""
    if b.is_zero():
        with pytest.raises(NonGenericError):
            series_div(a, b)
        return
    got = series_div(a, b)
    v, va = b.valuation(), _val_or_prec(a)
    assert got.prec_order() == min(a.prec_order() - v, b.prec_order() - 2 * v + va)
    assert all(e >= va - v for e in series_dict(got))
    # got * b must give back a wherever the product is known
    window = min(got.prec_order() + v, b.prec_order() + _val_or_prec(got))
    m = got.field_order
    back = dict_truncate(dict_mul(series_dict(got), _naive(b, m)), window)
    assert back == dict_truncate(_naive(a, m), window)


def _one_minus(u, order):
    """1 - u as a series exact below order."""
    return series_sub(const_series(1, order, u.expo.denominator), from_monomial(u, order))


@given(
    qseries(),
    small_rationals.filter(lambda r: r != 0),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.sampled_from([1, 3, 5]),
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=150, deadline=None)
def test_div_one_minus_is_exact_division(a, c_rat, f, field, k):
    u = Monomial(cyclo_embed(c_rat, field) * zeta_power(field, k), f)
    # 1 - u deep enough that only a bounds the quotient
    one_minus = _one_minus(u, a.prec_order() - _val_or_prec(a) + abs(f) + 1)
    if f == 0 and u.coeff == 1:
        with pytest.raises(NonGenericError):
            series_div(a, one_minus)
        return
    got = series_div(a, one_minus)
    # 1 - u is exact, so only a bounds the quotient: a q^f shift when f < 0
    assert got.prec_order() == a.prec_order() - min(f, 0)
    m = got.field_order
    one_minus_u = {F(0): cyclo_embed(F(1), m)}
    one_minus_u[f] = one_minus_u.get(f, cyclo_embed(F(0), m)) - lift_order(u.coeff, m)
    back = dict_truncate(dict_mul(series_dict(got), one_minus_u), a.prec_order())
    assert back == dict_truncate(_naive(a, m), a.prec_order())
    # and the row quotient of an Eulerian term by its one binomial 1 - u
    d = got.denom
    row = series._times(a.rebase(d).lift_field(m), cyclo_embed(F(1), m), 0,
                        [(lift_order(u.coeff, m), int(u.expo * d), -1)], got.prec_order() + 1)
    assert (row.denom, row.field_order, row.prec, row.terms) == (got.denom, got.field_order, got.prec, got.terms)


@given(qseries(), divisors(), st.sampled_from([2, 3, 8]))
@settings(max_examples=150, deadline=None)
def test_div_follows_grid_refinement(a, b, k):
    # on a k times finer grid every offset is a multiple of k, so the
    # division must step past the residue classes no exponent reaches
    if b.is_zero():
        return
    d = k * lcm(a.denom, b.denom)
    got = series_div(a.rebase(d), b.rebase(d))
    want = series_div(a, b).rebase(d)
    assert (got.denom, got.field_order, got.prec) == (want.denom, want.field_order, want.prec)
    assert got.terms == want.terms


@given(qseries(), st.sampled_from([2, 3, 8]), st.sampled_from([12, 24]))
@settings(max_examples=80, deadline=None)
def test_rebase_and_lift_transparency(a, mult, field):
    b = a.rebase(a.denom * mult).lift_field(a.field_order * (field // a.field_order) if field % a.field_order == 0 else a.field_order * field)
    assert {F(k, b.denom): str(c) for k, c in b.terms.items()} == {
        F(k, a.denom): str(lift_order(c, b.field_order)) for k, c in a.terms.items()
    }
    assert b.prec_order() == a.prec_order()


@given(qseries(), small_rationals.filter(lambda r: r != 0), st.fractions(min_value=-2, max_value=2, max_denominator=8))
@settings(max_examples=100, deadline=None)
def test_shift_is_monomial_mul(a, c, e):
    m = Monomial.make(c, e)
    left = series_shift(a, m)
    right = series_mul(a, from_monomial(m, a.prec_order() + e))
    w = min(left.prec_order(), right.prec_order())
    assert series_eq_to_order(left, right, w).ok
    assert len(left.terms) == len(a.terms)


@given(qseries(), st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_pow_matches_repeated_mul(a, n):
    # the chain a * a * ... * a, precision included: a negative valuation
    # costs no more than it does there
    got = series_pow(a, n)
    want = a if n else const_series(1, a.prec_order(), a.denom).lift_field(a.field_order)
    for _ in range(n - 1):
        want = series_mul(want, a)
    assert (got.denom, got.field_order, got.prec) == (want.denom, want.field_order, want.prec)
    assert got.terms == want.terms


@pytest.mark.parametrize("text", ["1 - 2*q^(1/2)", "2*q^(-1) - 1 + zeta(3,1)*q^(1/3)"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_negative_pow_is_the_inverse_of_the_power(text, n):
    # a^-n times a^n is 1 below the product's guaranteed precision; the
    # evaluator writes b^-n as 1 / b^n, so only this calls the branch
    a = eval_expr(parse(text), 20)
    got = series_mul(series_pow(a, -n), series_pow(a, n))
    w = got.prec_order()
    assert w >= 10 and series_eq_to_order(got, const_series(1, w).lift_field(got.field_order), w).ok


def _cyclo(draw):
    # fields 7 and 8 are the built-in corpus's Habc(3,2,7) and K-tilde fields
    field = draw(st.sampled_from([1, 3, 4, 5, 7, 8]))
    r = draw(small_rationals.filter(lambda r: r != 0))
    return cyclo_embed(r, field) * zeta_power(field, draw(st.integers(min_value=0, max_value=4)))


@st.composite
def bilateral_args(draw):
    """c, E, order, u, F: on the grid 1/D, E(n) is (A2 n(n-1)/2 + A1 n + A0)/D
    and F(n) is (B1 n + B0)/D, so F may be negative or zero, the sum's grid
    may be coarser than 1/D and the order may lie below every term."""
    d = draw(st.integers(min_value=1, max_value=4))
    a2 = draw(st.integers(min_value=1, max_value=3))
    a1, a0 = draw(st.integers(min_value=-6, max_value=6)), draw(st.integers(min_value=-8, max_value=8))
    e = (F(a2, 2 * d), F(2 * a1 - a2, 2 * d), F(a0, d))
    order = draw(st.fractions(min_value=-4, max_value=10, max_denominator=4))
    c = _cyclo(draw)
    if draw(st.booleans()):
        return c, e, order, None, (0, 0)
    b1, b0 = draw(st.integers(min_value=-3, max_value=3)), draw(st.integers(min_value=-6, max_value=6))
    u = cyclo_embed(1, 1) if draw(st.integers(min_value=0, max_value=5)) == 0 else _cyclo(draw)
    return c, e, order, u, (F(b1, d), F(b0, d))


def _bilateral_reference(c, e, order, u, f):
    """Term by term: each c^n q^E(n) a monomial series, divided by 1 - u q^F(n)
    with the general series_div, all added by series_add on the grid 1/D, D
    the lcm of the denominators of E(-1), E(0), E(1), F(0) and F(1), and
    over the field of c and u; a term whose denominator is exactly zero is
    a pole wherever it lies."""
    values = [e[0] * n * n + e[1] * n + e[2] for n in (-1, 0, 1)] + [f[1], f[0] + f[1]]
    total = zero_series(order, lcm(*(F(v).denominator for v in values)),
                        lcm(c.order, 1 if u is None else u.order))
    for n in range(-60, 61):
        en = e[0] * n * n + e[1] * n + e[2]
        t = from_monomial(Monomial(c**n, en), order)
        if u is not None:
            un = Monomial(u, f[0] * n + f[1])
            if un == Monomial.make(1):
                raise NonGenericError(f"pole at n = {n}")
            if en + max(0, -un.expo) >= order:
                continue
            t = series_div(t, _one_minus(un, order - en + abs(un.expo) + 1))
        elif en >= order:
            continue
        total = series_add(total, t)
    return total


@given(bilateral_args())
# F(n) = -n - 1 < 0 for n >= 0, where the weights -u^(-1-j) lie over a
# power of the denominator of 1/u, which is 2
@example((cyclo_embed(F(1, 3), 1), (F(1, 2), F(-1, 2), 0), F(8),
          cyclo_embed(2, 5) * zeta_power(5, 1), (F(-1), F(-1))))
@settings(max_examples=300, deadline=None)
def test_bilateral_sum_matches_term_by_term_reference(args):
    try:
        want = _bilateral_reference(*args)
    except NonGenericError:
        with pytest.raises(NonGenericError):
            bilateral_sum(*args)
        return
    got = bilateral_sum(*args)
    assert (got.denom, got.field_order, got.prec) == (want.denom, want.field_order, want.prec)
    assert got.terms == want.terms


@st.composite
def thetas(draw):
    """A lacunary divisor: the sum of c^n q^E(n) that bilateral_sum scans,
    on a grid that divides 1/4, 1/3 or 1/2 and in the field of c, its
    valuation of either sign; now and then zero to its precision, in a
    field of order 1 or that of c."""
    d, a2 = draw(st.integers(min_value=1, max_value=4)), draw(st.integers(min_value=1, max_value=3))
    a1, a0 = draw(st.integers(min_value=-4, max_value=4)), draw(st.integers(min_value=-6, max_value=6))
    e = (F(a2, 2 * d), F(2 * a1 - a2, 2 * d), F(a0, d))
    c = _cyclo(draw)
    order = draw(st.fractions(min_value=-2, max_value=10, max_denominator=4))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        return zero_series(order, d, draw(st.sampled_from([1, c.order])))
    return bilateral_sum(c, e, order)


@given(qseries(), thetas(), thetas())
@settings(max_examples=200, deadline=None)
def test_division_by_each_factor_is_division_by_the_product(a, b1, b2):
    # with v1, v2, va the valuations of b1, b2, a, both routes claim
    # min(a.prec - v1 - v2, b1.prec - 2 v1 - v2 + va, b2.prec - v1 - 2 v2 + va)
    if b1.is_zero() or b2.is_zero():
        with pytest.raises(NonGenericError):
            series_div(series_div(a, b1), b2)
        with pytest.raises(NonGenericError):
            series_div(a, series_mul(b1, b2))
        return
    got = series_div(series_div(a, b1), b2)
    want = series_div(a, series_mul(b1, b2))
    assert (got.denom, got.field_order, got.prec) == (want.denom, want.field_order, want.prec)
    assert got.terms == want.terms
