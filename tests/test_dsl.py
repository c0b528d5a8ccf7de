"""Parser, printer, and evaluator for the expression language."""

from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident.dsl import (
    Add,
    Call,
    Div,
    Inf,
    Lit,
    Mul,
    Neg,
    Pow,
    Sub,
    Sym,
    eval_expr,
    fold_monomial,
    parse,
    parse_binding,
    print_expr,
)
from qident import series
from qident.errors import EvalError, NonGenericError, ParseError
from qident.series import Monomial, series_eq_to_order, series_mul
from oracles import assert_series_matches, count_pairs


def check_eq(lhs, rhs, order):
    v = series_eq_to_order(lhs, rhs, order)
    assert v.status == "pass", v.detail()


class TestParse:
    def test_application_shapes(self):
        e = parse("2*m(q, q^3, -1)")
        assert e == Mul(
            Lit(F(2)),
            Call("m", (Sym("q"), Pow(Sym("q"), F(3)), Neg(Lit(F(1))))),
        )

    def test_monomial_arguments(self):
        e = parse("m(-zeta(3,1)*q^(1/2), q, -1)")
        arg = e.args[0]
        assert arg == Mul(
            Neg(Call("zeta", (Lit(F(3)), Lit(F(1))))), Pow(Sym("q"), F(1, 2))
        )

    def test_semicolon_separator(self):
        assert parse("j(x; q^2)") == parse("j(x, q^2)")

    def test_precedence(self):
        assert parse("a + b*c") == Add(Sym("a"), Mul(Sym("b"), Sym("c")))
        assert parse("-a^2") == Neg(Pow(Sym("a"), F(2)))
        assert parse("-a*b") == Mul(Neg(Sym("a")), Sym("b"))
        assert parse("a - b - c") == Sub(Sub(Sym("a"), Sym("b")), Sym("c"))
        assert parse("a/b/c") == Div(Div(Sym("a"), Sym("b")), Sym("c"))

    def test_unknown_function_diagnostic(self):
        with pytest.raises(ParseError) as ei:
            parse("J(5,10)*J(2,5)/J1(1)")
        assert "J1" in str(ei.value)
        assert ei.value.col == 16

    def test_arity_diagnostic(self):
        with pytest.raises(ParseError) as ei:
            parse("m(q, q)")
        assert "3 argument" in str(ei.value)

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse("2q")

    def test_non_ascii_digit_is_a_parse_error(self):
        # '²' passes str.isdigit but not int()
        with pytest.raises(ParseError, match="unexpected character"):
            parse("2²")

    def test_position_reporting(self):
        with pytest.raises(ParseError) as ei:
            parse("1 +\n  @")
        assert (ei.value.line, ei.value.col) == (2, 3)

    def test_exponent_forms(self):
        assert parse("q^3") == Pow(Sym("q"), F(3))
        assert parse("q^-1") == Pow(Sym("q"), F(-1))
        assert parse("q^(-3/2)") == Pow(Sym("q"), F(-3, 2))
        with pytest.raises(ParseError):
            parse("x^(1/0)")
        with pytest.raises(ParseError):
            parse("x^2^3")

    def test_deep_nesting_is_diagnosed(self):
        with pytest.raises(ParseError):
            parse("(" * 500 + "1" + ")" * 500)


class TestPrint:
    def test_fraction_exponents_reduce(self):
        assert print_expr(parse("q^(2/4)")) == "q^(1/2)"

    def test_parens_preserved_where_needed(self):
        assert print_expr(parse("(a+b)*c")) == "(a + b)*c"
        assert print_expr(parse("a/(b*c)")) == "a/(b*c)"
        assert print_expr(parse("(-x)^2")) == "(-x)^2"
        assert print_expr(parse("a - (b - c)")) == "a - (b - c)"

    def test_corpus_style_round_trips(self):
        sources = [
            "q^(-2)*m(q^4, q^30, q^4)",
            "J(5,10)*J(2,5)/Jm(1)",
            "2 - 2*g(-1)",
            "poch(-q, q, inf)",
            "sinpi(1,4)*Ktilde(1,4) + cscpi(1,4)*q^(-1/8)*Kp(zeta(4,1))",
            "Htilde_bilateral(1, 2) - Htilde_closed(1, 2)",
            "mcorr(x, q, z0, z1) + msplit(x, q, z, zp, 2)",
            "rjtp(z) / lambert_even(x) * lambert_odd(x) - bilateral_even(w) + bilateral_odd(w)",
        ]
        for s in sources:
            e = parse(s)
            assert parse(print_expr(e)) == e


_names = st.sampled_from(["q", "x", "y", "z", "w", "a_1"])
_lits = st.integers(0, 12).map(lambda n: Lit(F(n)))
_expos = st.tuples(st.integers(-9, 9), st.integers(1, 4)).map(lambda t: F(*t))


def _extend(inner):
    pairs = st.tuples(inner, inner)
    return st.one_of(
        pairs.map(lambda t: Add(*t)),
        pairs.map(lambda t: Sub(*t)),
        pairs.map(lambda t: Mul(*t)),
        pairs.map(lambda t: Div(*t)),
        inner.map(Neg),
        st.tuples(inner, _expos).map(lambda t: Pow(*t)),
        inner.map(lambda a: Call("Jm", (a,))),
        pairs.map(lambda t: Call("J", t)),
        st.tuples(inner, inner, inner).map(lambda t: Call("m", t)),
        st.just(Call("phi", ())),
        st.tuples(inner, inner).map(lambda t: Call("poch", (t[0], t[1], Inf()))),
    )


_asts = st.recursive(st.one_of(_lits, _names.map(Sym)), _extend, max_leaves=25)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(_asts)
    def test_parse_print_identity(self, e):
        assert parse(print_expr(e)) == e

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="qxJjm()+-*/^,; 0123456789_\n\t", max_size=50))
    def test_parser_totality_ascii(self, s):
        try:
            e = parse(s)
        except ParseError:
            return
        assert parse(print_expr(e)) == e

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=30))
    def test_parser_totality_unicode(self, s):
        try:
            parse(s)
        except ParseError:
            pass


class TestEval:
    def test_named_sums_match_their_appell_forms(self):
        check_eq(
            eval_expr(parse("phi()"), 40),
            eval_expr(parse("2*m(q, q^3, -1)"), 40),
            40,
        )

    def test_theta_shorthand(self):
        check_eq(eval_expr(parse("J(1,2)"), 30), eval_expr(parse("j(q; q^2)"), 30), 30)
        # a monomial on the right of * shifts the series on its left
        check_eq(eval_expr(parse("J(1,2)*q"), 30), eval_expr(parse("q*J(1,2)"), 30), 30)

    def test_theta_base_left_out_means_q(self):
        for x in ("2*q", "zeta(3,1)", "-q^(1/2)"):
            short, full = (eval_expr(parse(t), 30) for t in (f"j({x})", f"j({x}, q)"))
            assert (short.denom, short.prec, short.terms) == (full.denom, full.prec, full.terms)

    def test_geometric_series(self):
        s = eval_expr(parse("1/(1-q)"), 9)
        assert_series_matches(s, {k: 1 for k in range(9)}, F(9))

    def test_eulerian_base_substitution(self):
        check_eq(
            eval_expr(parse("phi(q^2)"), 30),
            eval_expr(parse("2*m(q^2, q^6, -1)"), 30),
            30,
        )

    def test_fifth_order_expansion(self):
        s = eval_expr(parse("f0()"), 10)
        assert_series_matches(
            s, {0: 1, 1: 1, 2: -1, 3: 1, 6: -1, 7: 1, 9: 1}, F(10)
        )

    def test_binding_substitution(self):
        name, mono = parse_binding("x=-zeta(3,1)*q^(1/2)")
        assert name == "x"
        assert mono.expo == F(1, 2)
        lhs = eval_expr(parse("m(x, q, q*x)"), 20, {name: mono})
        rhs = eval_expr(parse("m(x, q, x)"), 20, {name: mono})
        check_eq(lhs, rhs, 20)

    def test_fractional_grid_output(self):
        s = eval_expr(parse("q^(1/2)/(1 - q^(1/2))"), 3)
        assert s.denom == 2
        assert s.valuation() == F(1, 2)

    def test_unbound_symbol(self):
        with pytest.raises(EvalError):
            eval_expr(parse("x + 1"), 5)

    def test_inf_outside_poch(self):
        with pytest.raises(EvalError):
            eval_expr(parse("1 + inf"), 5)

    def test_fractional_power_of_non_q(self):
        with pytest.raises(EvalError):
            eval_expr(parse("(1+q)^(1/2)"), 5)
        with pytest.raises(EvalError):
            eval_expr(parse("zeta(3,1)^(1/2)"), 5)

    def test_nongeneric_division(self):
        with pytest.raises(NonGenericError):
            eval_expr(parse("1/(q - q)"), 5)
        with pytest.raises(NonGenericError):
            eval_expr(parse("1/j(q; q)"), 5)

    def test_integer_arguments_must_be_literals(self):
        with pytest.raises(EvalError):
            eval_expr(parse("J(1+1, 2)"), 5)
        with pytest.raises(EvalError):
            eval_expr(parse("j(q^2; q^(1/2))"), 5)

    def test_monomial_power_paths(self):
        s = eval_expr(parse("(2*q)^-2"), 5)
        assert s.valuation() == -2
        assert s.coeff_at(F(-2)).rational_value() == F(1, 4)
        t = eval_expr(parse("(q^2)^(3/2)"), 5)
        assert t.valuation() == 3

    def test_zero_literal(self):
        s = eval_expr(parse("0*J(1,2) + 0"), 5)
        assert s.is_zero()

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 5),
        st.integers(0, 5),
        st.integers(1, 3),
        st.integers(0, 6),
    )
    def test_product_is_compositional(self, a, b, c, d):
        # eval(u*v) agrees with multiplying eval(u) and eval(v)
        u = parse(f"{a} + {c}*q^{b}")
        v = parse(f"poch(q, q, {c}) - q^({d}/2)")
        order = F(8)
        lhs = eval_expr(Mul(u, v), order)
        rhs = series_mul(eval_expr(u, order), eval_expr(v, order))
        check_eq(lhs, rhs, order)


# a theta quotient, its dividend and the factors of its divisor
SPARSE_QUOTIENTS = [
    # the quotient of the right side of habc-lambert-3-2-7
    ("Jm(2)^3/(J(1,2)*j(zeta(7,4)*q^(6/7); q^2))", "Jm(2)^3",
     ["J(1,2)", "j(zeta(7,4)*q^(6/7); q^2)"]),
    # z0 j(q; q^3)^3 j(z1/z0) j(x z0 z1) / (j(z0) j(z1) j(x z0) j(x z1))
    # at x = 2q, z0 = -1, z1 = -q^(1/2)
    ("mcorr(2*q, q, -1, -q^(1/2))", "-j(q, q^3)^3*j(q^(1/2), q)*j(2*q^(3/2), q)",
     ["j(-1, q)", "j(-q^(1/2), q)", "j(-2*q, q)", "j(-2*q^(3/2), q)"]),
    # 2 q^(3/16) J_2^3 / (J_{1,2} j(q^(1/2); q^2))
    ("Htilde_closed(1,4)", "2*q^(3/16)*Jm(2)^3", ["J(1,2)", "j(q^(1/2), q^2)"]),
]


@pytest.mark.parametrize("text, dividend, factors", SPARSE_QUOTIENTS)
def test_theta_quotient_divides_by_each_factor(monkeypatch, text, dividend, factors):
    # counted in term pairs of series_mul and series_div with a warm memo,
    # read off the operands, the same on every machine: a division by each
    # lacunary theta in turn takes at most half of what forming their
    # dense product and dividing by it takes
    order = 100

    def ev(t):
        return eval_expr(parse(t), order)

    ev(text)
    pairs = count_pairs(monkeypatch)
    got = ev(text)
    by_factor = pairs[0]
    want = series.series_div(ev(dividend), reduce(series.series_mul, map(ev, factors)))
    by_product = pairs[0] - by_factor
    check_eq(got, want, order)
    assert 2 * by_factor <= by_product, (by_factor, by_product)


class TestBindings:
    def test_reserved_names(self):
        with pytest.raises(EvalError):
            parse_binding("q=2*q")
        with pytest.raises(EvalError):
            parse_binding("inf=1")

    def test_shape_errors(self):
        with pytest.raises(EvalError):
            parse_binding("x")
        with pytest.raises(EvalError):
            parse_binding("1x=q")
        with pytest.raises(EvalError):
            parse_binding("x=1+q")

    def test_constant_folding(self):
        m = fold_monomial(parse("-2*zeta(8,3)*q^(-5/4)/q"))
        assert m.expo == F(-9, 4)
        assert m.field_order == 8
        m2 = fold_monomial(parse("cscpi(1,4)"))
        assert m2.expo == 0
