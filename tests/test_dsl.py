"""Parser, printer, and evaluator for the expression language."""

from fractions import Fraction as F
from functools import reduce
from math import gcd

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
from qident import dsl, series, special
from qident.errors import EvalError, NonGenericError, ParseError
from qident.eulerian import BILATERAL, FORMS
from qident.identity import builtin_cases, check, run_suite
from qident.series import Monomial, series_eq_to_order, series_mul
from oracles import assert_series_matches, count_builds, count_calls, count_fractions, count_pairs


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

    def test_non_expr_is_a_type_error(self, monkeypatch):
        # eval_expr refuses a non-Expr before it builds any key, and _ev
        # refuses one below an Expr root
        monkeypatch.setattr(special, "memo_counts", {"hits": 0, "misses": 0})
        for run in (lambda: print_expr(42), lambda: eval_expr(42, 1), lambda: eval_expr(("a",), 1)):
            with pytest.raises(TypeError, match="not an Expr: "):
                run()
        assert special.memo_counts == {"hits": 0, "misses": 0}
        with pytest.raises(TypeError, match="not an Expr: 42"):
            eval_expr(Add(Lit(F(1)), 42), 1)

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


def _forget_all_but_rows():
    """Drop every memo entry but the rows' of FORMS and BILATERAL, so that a
    second read builds its expression and its definitions again from warm rows."""
    for k in [k for k in special._theta_cache if k[0] not in FORMS and k[0] not in BILATERAL]:
        del special._theta_cache[k]


@pytest.mark.parametrize("text, dividend, factors", SPARSE_QUOTIENTS)
def test_theta_quotient_divides_by_each_factor(monkeypatch, text, dividend, factors):
    # counted in term pairs of series_mul and series_div with the rows
    # warm, read off the operands, the same on every machine: a division
    # by each lacunary theta in turn takes at most half of what forming
    # their dense product and dividing by it takes
    order = 100

    def ev(t):
        return eval_expr(parse(t), order)

    monkeypatch.setattr(special, "_theta_cache", {})
    ev(text)
    _forget_all_but_rows()
    pairs = count_pairs(monkeypatch)
    got = ev(text)
    by_factor = pairs[0]
    want = series.series_div(ev(dividend), reduce(series.series_mul, map(ev, factors)))
    by_product = pairs[0] - by_factor
    check_eq(got, want, order)
    assert 2 * by_factor <= by_product, (by_factor, by_product)


def test_msplit_multiplies_the_cube_in_before_it_divides(monkeypatch):
    # counted in term pairs with the rows warm: the lacunary cube
    # j(q^2; q^6)^3 times the two pieces, then the two shared theta
    # divisions and the one by j(z'; q^4), reads 4,094 pairs; dividing the
    # cube first made the quotient dense, and its dense product with the
    # pieces brought the count to 8,785
    text, order = "msplit(-zeta(5,1), q, -1, -q, 2)", 100
    monkeypatch.setattr(special, "_theta_cache", {})
    eval_expr(parse(text), order)
    _forget_all_but_rows()
    pairs = count_pairs(monkeypatch)
    eval_expr(parse(text), order)
    assert 0 < pairs[0] <= 5000, pairs[0]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("binds", [["x=2*q^(-1)", "z=-1", "zp=-q"], ["x=-zeta(3,1)", "z=2", "zp=3*q^(-6)"]])
def test_msplit_divides_once_by_each_shared_theta(monkeypatch, n, binds):
    # n pieces over their own j(q^r z; q^(pn)), their sum over the shared
    # j(-q^(p binom(n,2)) (-x)^n z'; q^(pn)) and j(xz; q^p), and the n
    # Appell-Lerch sums with the correction over the one j(z'; q^(p n^2)):
    # n + 3 divisions, not 3n + 2, at bindings that one build brings to
    # the order
    binding = dsl.parse_bindings(binds)
    monkeypatch.setattr(special, "_theta_cache", {})
    divisions = count_calls(monkeypatch, "series_div")
    got = eval_expr(parse(f"msplit(x, q, z, zp, {n})"), 40, binding)
    assert divisions[0] == n + 3
    check_eq(got, eval_expr(parse("m(x, q, z)"), 40, binding), 40)


@pytest.mark.parametrize("x", ["zeta(3,1)", "2*q", "q^(1/3)", "-q^(-1/2)"])
def test_g_appell_divides_once_by_its_theta(monkeypatch, x):
    # both Appell-Lerch sums share j(x^2; q^3): one division, not two
    binding = dsl.parse_bindings([f"x={x}"])
    monkeypatch.setattr(special, "_theta_cache", {})
    divisions = count_calls(monkeypatch, "series_div")
    got = eval_expr(parse("g_appell(x)"), 40, binding)
    assert divisions[0] == 1
    check_eq(got, eval_expr(parse("g(x)"), 40, binding), 40)


MSPLIT = "msplit(-zeta(3,1), q, -1, -q, 2)"


@pytest.mark.parametrize("second", [MSPLIT, f"-{MSPLIT}"], ids=["expression", "definition"])
def test_a_second_read_of_a_definition_divides_nothing(monkeypatch, second):
    # the same side's root is one memo entry, and so is the root of the
    # same definition's text inside another side: neither is built again
    # from its rows
    monkeypatch.setattr(special, "_theta_cache", {})
    first = eval_expr(parse(MSPLIT), 40)
    divisions = count_calls(monkeypatch, "series_div")
    again = eval_expr(parse(second), 40)
    assert divisions[0] == 0
    check_eq(again, first if second == MSPLIT else series.series_neg(first), 40)


def test_a_definition_text_is_parsed_once(monkeypatch):
    # msplit's text holds only its integer arguments, so m-split-3's five
    # bindings splice one text, tokenized once
    case = next(c for c in builtin_cases() if c.id == "m-split-3")
    monkeypatch.setattr(special, "_theta_cache", {})
    dsl._parsed.cache_clear()
    texts, tokenize = [], dsl._tokenize
    monkeypatch.setattr(dsl, "_tokenize", lambda t: texts.append(t) or tokenize(t))
    for i in range(len(case.sample_bindings)):
        assert check(case, i).status == "pass"
    b = case.sample_bindings[0]
    text = dsl._msplit(b["x"], 1, b["z"], b["zp"], 3)[0]
    assert len(case.sample_bindings) == 5 and texts.count(text) == 1


@pytest.mark.parametrize("text", ["1/j(q, q)", "m(2*q, q, -1) + msplit(1, q, -1, -q, 2)"])
def test_a_nongeneric_side_raises_again_and_leaves_no_entry(monkeypatch, text):
    # an exception is never stored: no expression node, the side's root
    # among them, enters the memo, only the rows read before the pole
    monkeypatch.setattr(special, "_theta_cache", {})
    e = parse(text)
    for _ in range(2):
        with pytest.raises(NonGenericError):
            eval_expr(e, 20)
    assert all(isinstance(k[0], str) for k in special._theta_cache)


def test_the_memo_holds_rows_and_expression_nodes_only(monkeypatch):
    # after a cold run of the corpus every key's head is a row's name or
    # an expression node: no definition name and no side keyed by its
    # binding; and the corpus leaves room, so nothing is evicted
    monkeypatch.setattr(special, "_theta_cache", {})
    run_suite()
    for head, *rest in special._theta_cache:
        if isinstance(head, str):
            assert head in FORMS or head in BILATERAL, head
        else:
            # a node's key goes on with its working order and asked order,
            # each an integer or a (numerator, denominator) pair in lowest
            # terms, never a Fraction, and its power
            assert isinstance(head, dsl.Expr), head
            assert type(rest[2]) is int, (print_expr(head), rest)
            for v in rest[:2]:
                assert type(v) is int or (type(v) is tuple and v[1] > 1 and gcd(*v) == 1), (print_expr(head), rest)
            assert not any(isinstance(v, F) for v in rest), (print_expr(head), rest)
    assert len(special._theta_cache) < special.MEMO_LIMIT


@pytest.mark.parametrize("order, counts", [
    (None, {"hits": 901, "misses": 1130, "entries": 1084}),
    (100, {"hits": 908, "misses": 1116, "entries": 1075}),
])
def test_a_cold_suite_reads_the_memo_as_often_as_ever(monkeypatch, order, counts):
    # a key that lost hits would raise misses and entries, and a key that
    # merged two distinct entries would lower them
    monkeypatch.setattr(special, "_theta_cache", {})
    monkeypatch.setattr(special, "memo_counts", {"hits": 0, "misses": 0})
    run_suite(order)
    assert dict(special.memo_counts, entries=len(special._theta_cache)) == counts


def test_a_cold_round_builds_few_fractions(monkeypatch):
    # the 172 checks of a round from an empty memo, after one round has
    # warmed the parse and table caches: exponent and order arithmetic
    # builds Fractions, memo keys, precision tests and rational scalars
    # build none (9,288 before they stopped; fewer on Pythons whose
    # Fraction arithmetic skips the constructor)
    work = [(c, i) for c in builtin_cases() for i in range(len(c.sample_bindings))]
    assert len(work) == 172
    monkeypatch.setattr(special, "_theta_cache", {})
    for c, i in work:
        check(c, i)
    special._theta_cache.clear()
    made = count_fractions(monkeypatch)
    for c, i in work:
        check(c, i)
    assert made[0] <= 6059, made[0]


def test_a_definition_runs_no_precision_loop_of_its_own(monkeypatch):
    # msplit at depth 4 falls short of order 40 on its first build: the
    # side's loop, the first, builds twice, and no other loop builds more
    # than once
    binding = dsl.parse_bindings(["x=2*q", "z=-1", "zp=-q"])
    monkeypatch.setattr(special, "_theta_cache", {})
    counts = count_builds(monkeypatch)
    eval_expr(parse("msplit(x, q, z, zp, 4)"), 40, binding)
    assert counts[0] == 2 and max(counts[1:]) == 1, counts


QUOTIENT = "J(1,2)^2/j(x, q)"


def test_a_quotient_two_sides_share_divides_once(monkeypatch):
    # the quotient inside both sides is one memo entry under one binding
    # of its symbol x and one working order, so the second side reuses it
    binding = dsl.parse_bindings(["x=2*q^(1/2)"])
    monkeypatch.setattr(special, "_theta_cache", {})
    eval_expr(parse("j(x, q) + J(1,2)"), 30, binding)  # the rows, warm
    divisions = count_calls(monkeypatch, "series_div")
    first = eval_expr(parse(f"1 + {QUOTIENT}"), 30, binding)
    second = eval_expr(parse(f"2*q*({QUOTIENT})"), 30, binding)
    assert divisions[0] == 1
    check_eq(second, series.series_shift(series.series_sub(first, eval_expr(parse("1"), 30)),
                                         Monomial.make(2, 1)), 30)


@pytest.mark.parametrize("binds, order", [(["x=3*q^(1/2)"], 30), (["x=2*q^(1/2)", "y=5"], 30),
                                          (["x=2*q^(1/2)"], 20)])
def test_a_quotient_divides_again_under_another_binding_or_order(monkeypatch, binds, order):
    # x's monomial and the working order are in the key; y, which the
    # quotient does not read, is not
    monkeypatch.setattr(special, "_theta_cache", {})
    eval_expr(parse(f"1 + {QUOTIENT}"), 30, dsl.parse_bindings(["x=2*q^(1/2)"]))
    binding = dsl.parse_bindings(binds)
    divisions = count_calls(monkeypatch, "series_div")
    got = eval_expr(parse(f"2 + {QUOTIENT}"), order, binding)
    assert divisions[0] == ("y" not in binding)
    want = series.series_add(eval_expr(parse("2"), order),
                             series.series_div(eval_expr(parse("J(1,2)^2"), order, binding),
                                               eval_expr(parse("j(x, q)"), order, binding)))
    check_eq(got, want, order)


def test_a_kept_power_does_not_pass_the_power_cap(monkeypatch):
    # x^600 kept at power 1 is not the x^600 inside (x^600)^2, which
    # counts as x^1200 and is refused
    binding = dsl.parse_bindings(["x=2*q"])
    monkeypatch.setattr(special, "_theta_cache", {})
    assert eval_expr(parse("1 + x^600"), 5, binding).prec_order() == 5
    with pytest.raises(EvalError, match="MAX_POWER"):
        eval_expr(parse("1 + (x^600)^2"), 5, binding)


@pytest.mark.parametrize("text, bind, order, deep", [
    # Kpp(x)^41 has valuation 164/3: the reference quotient needs its
    # operands past 3 + 2 * 164/3
    ("Habc(1,0,2)/Kpp(x)^41", "x=2*q^(-4/3)", 3, 120),
    # theta-refine's right side, which divided by Jm(2) twice
    ("Jm(1)*j(x; q^2)*j(q*x; q^2)/Jm(2)^2", "x=zeta(3,1)", 100, 100),
])
def test_a_divisor_power_is_one_division(monkeypatch, text, bind, order, deep):
    # b^k in a divisor is one factor, read as one power node: with the
    # rows warm, each build of the side makes one series_div, by b^k,
    # where it walked k divisions by b, 41 for Kpp(x)
    binding = dsl.parse_bindings([bind])
    monkeypatch.setattr(special, "_theta_cache", {})
    eval_expr(parse(text), order, binding)
    _forget_all_but_rows()
    divisions, builds = count_calls(monkeypatch, "series_div"), count_builds(monkeypatch)
    got = eval_expr(parse(text), order, binding)
    assert divisions[0] == builds[0] and len(builds) == 1, (divisions, builds)
    dividend, divisor = text.rsplit("/", 1)
    want = series.series_div(eval_expr(parse(dividend), deep, binding),
                             eval_expr(parse(divisor), deep, binding))
    check_eq(got, want, order)


def test_a_negative_power_is_one_over_the_power(monkeypatch):
    # b^-k divides 1 by the node b^k, so it inverts nothing, and the three
    # spellings agree
    monkeypatch.setattr(special, "_theta_cache", {})
    inverts = count_calls(monkeypatch, "series_invert")
    first = eval_expr(parse("Jm(1)^(-3)"), 200)
    for text in ("1/Jm(1)^3", "1/(Jm(1)*Jm(1)*Jm(1))"):
        check_eq(eval_expr(parse(text), 200), first, 200)
    assert inverts[0] == 0


def test_a_power_of_a_quotient_of_a_power_is_refused_before_either_is_expanded(monkeypatch):
    # (1/j(x)^30)^40 counts as j(x)^1200: refused before series_pow or
    # series_div runs
    binding = dsl.parse_bindings(["x=2*q"])
    monkeypatch.setattr(special, "_theta_cache", {})
    powers, divisions = count_calls(monkeypatch, "series_pow"), count_calls(monkeypatch, "series_div")
    with pytest.raises(EvalError, match="power 1200 exceeds MAX_POWER"):
        eval_expr(parse("(1/j(x; q)^30)^40"), 10, binding)
    assert powers[0] == divisions[0] == 0


def test_reuse_changes_no_value(monkeypatch):
    # every side of the built-in corpus at its stated order, in corpus
    # order through one memo, then each from an empty memo: the same rows,
    # or the same error
    def row(side, order, binding):
        try:
            s = eval_expr(side, order, binding)
        except (EvalError, NonGenericError) as exc:
            return type(exc), str(exc)
        return s.denom, s.prec, s.off, s.den, s.cols

    sides = [(side, F(c.default_order), b) for c in builtin_cases() for b in c.sample_bindings
             for side in (c.lhs, c.rhs)]
    monkeypatch.setattr(special, "_theta_cache", {})
    warm = [row(*side) for side in sides]
    for side, want in zip(sides, warm):
        special._theta_cache.clear()
        assert row(*side) == want, print_expr(side[0])


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
