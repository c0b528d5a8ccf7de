"""Precision audit: the ledger never claims a coefficient it has not computed.

For every function of the expression language, under generated monomial
bindings with negative, fractional and cyclotomic exponents and
coefficients, the result at order N must reach N and agree below q^N with
the result at a deeper order; test_identity.test_builtin_side_reaches_order
holds every side of every built-in stanza to the same.  A builder that
claims precision it lacks shows up as a coefficient that changes when the
same expression is evaluated deeper.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident.coeff import zeta_power
from qident.dsl import FUNCTIONS, eval_expr, parse
from qident.errors import NonGenericError
from qident.eulerian import FORMS
from qident.series import Monomial, series_eq_to_order

# integer arguments each function accepts (0 < a < c where it needs it)
INTS = {
    "J": [(1, 2), (1, 3), (2, 5), (1, 4)],
    "JB": [(1, 4), (0, 1), (1, 3)],
    "Jm": [(1,), (2,)],
    "msplit": [(1,), (2,), (3,)],
    "Hp": [(1, 2), (1, 3), (2, 5)],
    "Ktilde": [(1, 2), (1, 3), (2, 5)],
    "Ktilde_closed": [(1, 2), (1, 3), (2, 5)],
    "Htilde": [(1, 2), (1, 3), (1, 4)],
    "Htilde_closed": [(1, 2), (1, 3), (1, 4)],
    "Htilde_bilateral": [(1, 2), (1, 4), (3, 4)],
    "Habc": [(1, 0, 2), (3, 2, 7), (1, 1, 3)],
    "sinpi": [(1, 2), (2, 5)],
    "cscpi": [(1, 3), (2, 5)],
    "zeta": [(3, 1), (4, 1), (5, 2)],
}

ENTRIES = [(name, arity) for name in sorted(FUNCTIONS) for arity in sorted(FUNCTIONS[name])]

coefficients = st.one_of(
    st.sampled_from([1, -1, 2, -2]).map(lambda c: Monomial.make(c)),
    st.tuples(st.sampled_from([3, 4, 5]), st.integers(1, 4)).map(
        lambda mk: Monomial(zeta_power(mk[0], mk[1] % mk[0]), F(0))
    ),
)
exponents = st.tuples(st.sampled_from([1, 2, 3]), st.integers(-6, 6)).map(
    lambda dk: F(dk[1], dk[0])
).filter(lambda e: -2 <= e <= 2)
monomials = st.builds(lambda c, e: c.times_q(e), coefficients, exponents)


def _call(draw, name, arity, binding):
    """name(...) with drawn arguments, each monomial one a fresh symbol
    bound in binding."""
    kinds = FUNCTIONS[name][arity][0]
    ints = iter(draw(st.sampled_from(INTS[name])) if "i" in kinds else ())
    args = []
    for kind in kinds:
        if kind == "x":
            sym = f"x{len(binding)}"
            binding[sym] = draw(monomials)
            args.append(sym)
        elif kind == "p":
            args.append(draw(st.sampled_from(["q", "q^2"])))
        elif kind == "i":
            args.append(str(next(ints)))
        else:
            args.append(draw(st.sampled_from(["inf", "0", "1", "3", "5"])))
    return f"{name}({', '.join(args)})"


def _outer(draw, name, arity):
    binding = {}
    text = _call(draw, name, arity, binding)
    binding["s"] = draw(monomials)  # an outer factor whose shift costs precision
    return f"s*{text}", binding


def _assert_prefix(expr, order, deeper, binding):
    try:
        low = eval_expr(expr, order, binding)
        high = eval_expr(expr, deeper, binding)
    except NonGenericError:
        return
    assert low.prec_order() >= order
    v = series_eq_to_order(low, high, order)
    assert v.status == "pass", f"{v.detail()} at order {order} against {deeper}"


@pytest.mark.parametrize("name, arity", ENTRIES, ids=[f"{n}/{a}" for n, a in ENTRIES])
def test_generated_call_is_a_prefix(name, arity):
    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), order=st.integers(3, 7), k=st.integers(1, 3))
    def run(data, order, k):
        source, binding = data.draw(st.composite(lambda draw: _outer(draw, name, arity))())
        _assert_prefix(parse(source), F(order), F(order + k), binding)

    run()


# the theta functions and Eulerian series, the factors theta quotients are built from
FACTORS = [(n, a) for n, a in ENTRIES if n in FORMS or n in ("j", "J", "JB", "Jm")]


@settings(max_examples=80, deadline=None)
@given(data=st.data(), order=st.integers(3, 7), k=st.integers(1, 3), power=st.integers(1, 3))
def test_quotient_by_a_product_divisor_is_a_prefix(data, order, k, power):
    # one shift by the monomial m1 and one division per series factor, f2
    # divided by power times: the quotient must claim no more than it computed
    binding = {}
    a, f1, f2 = (_call(data.draw, *data.draw(st.sampled_from(FACTORS)), binding) for _ in range(3))
    binding.update(s=data.draw(monomials), m1=data.draw(monomials))
    source = f"s*{a}/({f1}*m1*{f2}^{power})"
    _assert_prefix(parse(source), F(order), F(order + k), binding)


@settings(max_examples=60, deadline=None)
@given(
    c=st.sampled_from([2, -2, -1, 3]),
    e=st.sampled_from([F(-1), F(-2), F(-3, 2), F(-1, 2), F(-1, 3)]),
    n=st.sampled_from(["inf", "2", "4", "7"]),
    p=st.sampled_from(["q", "q^2"]),
    order=st.integers(3, 9),
)
def test_negative_exponent_pochhammer_is_a_prefix(c, e, n, p, order):
    # the family where a product cut at its first factor past the order
    # claimed coefficients it had not computed
    x = Monomial.make(c, e)
    _assert_prefix(parse(f"poch(x, {p}, {n})"), F(order), F(order + 2), {"x": x})
