"""Series ring: worked examples, brute-force oracles, and property suites."""

from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qident.coeff import CycloNumber, cyclo_embed, euler_phi, lift_order, zeta_power
from qident import series
from qident.errors import InsufficientPrecisionError, NonGenericError
from qident import special
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
    series_sum,
    zero_series,
)

from oracles import assert_series_matches, dict_mul, dict_truncate, pochhammer_bruteforce, series_dict


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

    def test_cross_grid_comparison(self):
        a = q_power(F(1, 2), 10)
        b = series_shift(const_series(1, F(19, 2)), Monomial.make(1, F(1, 2)))
        assert series_eq_to_order(a, b, F(19, 2)).ok


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

    def test_exponent_off_the_grid_is_rejected(self):
        with pytest.raises(ValueError):
            bilateral_sum(1, (F(1, 2), 0, 0), 10)

    @pytest.mark.parametrize("e2", [0, -1])
    def test_quadratic_must_be_positive(self, e2):
        with pytest.raises(ValueError, match="needs a positive quadratic exponent"):
            bilateral_sum(1, (e2, 1, 0), 10)

    def test_pole_outside_the_window_is_rejected(self):
        # the n = 10 term is q^100 / (1 - q^0), far past order 5
        with pytest.raises(NonGenericError):
            bilateral_sum(1, (1, 0, 0), 5, 1, 1, cyclo_embed(1, 1), (1, -10))

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
    fold = parts[0]
    for t in parts[1:]:
        fold = series_add(fold, t)
    got = series_sum(parts[0], parts[1:])
    assert (got.denom, got.prec, got.field_order) == (fold.denom, fold.prec, fold.field_order)
    assert {k: c.key() for k, c in got.terms.items()} == {k: c.key() for k, c in fold.terms.items()}


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
    row = special._times(a.rebase(d).lift_field(m), cyclo_embed(F(1), m), 0,
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


def _cyclo(draw):
    # fields 7 and 8 are the built-in corpus's Habc(3,2,7) and K-tilde fields
    field = draw(st.sampled_from([1, 3, 4, 5, 7, 8]))
    r = draw(small_rationals.filter(lambda r: r != 0))
    return cyclo_embed(r, field) * zeta_power(field, draw(st.integers(min_value=0, max_value=4)))


@st.composite
def bilateral_args(draw):
    """c, E, order, D, field order, u, F: on the grid 1/D, E(n) is
    (A2 n(n-1)/2 + A1 n + A0)/D and F(n) is (B1 n + B0)/D, so F may be
    negative or zero and the order may lie below every term."""
    d = draw(st.integers(min_value=1, max_value=4))
    a2 = draw(st.integers(min_value=1, max_value=3))
    a1, a0 = draw(st.integers(min_value=-6, max_value=6)), draw(st.integers(min_value=-8, max_value=8))
    e = (F(a2, 2 * d), F(2 * a1 - a2, 2 * d), F(a0, d))
    order = draw(st.fractions(min_value=-4, max_value=10, max_denominator=4))
    c = _cyclo(draw)
    field_order = draw(st.sampled_from([1, c.order]))
    if draw(st.booleans()):
        return c, e, order, d, field_order, None, (0, 0)
    b1, b0 = draw(st.integers(min_value=-3, max_value=3)), draw(st.integers(min_value=-6, max_value=6))
    u = cyclo_embed(1, 1) if draw(st.integers(min_value=0, max_value=5)) == 0 else _cyclo(draw)
    return c, e, order, d, field_order, u, (F(b1, d), F(b0, d))


def _bilateral_reference(c, e, order, d, field_order, u, f):
    """Term by term: each c^n q^E(n) a monomial series, divided by 1 - u q^F(n)
    with the general series_div, all added by series_sum; a term whose
    denominator is exactly zero is a pole wherever it lies."""
    terms = []
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
        terms.append(t)
    return series_sum(zero_series(order, d, field_order), terms)


@given(bilateral_args())
# F(n) = -n - 1 < 0 for n >= 0, where the weights -u^(-1-j) lie over a
# power of the denominator of 1/u, which is 2
@example((cyclo_embed(F(1, 3), 1), (F(1, 2), F(-1, 2), 0), F(8), 1, 1,
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
    on a grid 1 .. 4 and in a field of order 1, 3, 4 or 5, its valuation of
    either sign; now and then zero to its precision."""
    d, a2 = draw(st.integers(min_value=1, max_value=4)), draw(st.integers(min_value=1, max_value=3))
    a1, a0 = draw(st.integers(min_value=-4, max_value=4)), draw(st.integers(min_value=-6, max_value=6))
    e = (F(a2, 2 * d), F(2 * a1 - a2, 2 * d), F(a0, d))
    c = _cyclo(draw)
    order = draw(st.fractions(min_value=-2, max_value=10, max_denominator=4))
    field = draw(st.sampled_from([1, c.order]))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        return zero_series(order, d, field)
    return bilateral_sum(c, e, order, d, field)


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
