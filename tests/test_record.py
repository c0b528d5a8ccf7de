"""Records: per-type equality and hashing, immutability, pickling, and the
keyword construction, defaults and checks of each record type."""

import pickle
from fractions import Fraction as F

import pytest

from qident.coeff import zeta_power
from qident.dsl import Add, Call, Div, Inf, Lit, Mul, Neg, Pow, Sub, Sym, parse
from qident.identity import CheckRecord, IdentityCase, SuiteReport, make_case
from qident.series import Monomial
from qident.verdict import NONGENERIC, PASS, Verdict

A, B = Lit(F(2)), Sym("q")
CHECK = CheckRecord(case_id="c", binding="x=q", status="pass", detail="agrees", expect="pass",
                    seconds=0.5)
NODES = [A, B, Inf(), Call("j", (A, B)), Neg(A), Add(A, B), Sub(A, B), Mul(A, B), Div(A, B),
         Pow(B, F(3))]
RECORDS = NODES + [Monomial(zeta_power(5, 1), F(1, 2)), Verdict(PASS, F(10)), CHECK,
                   make_case("c", "j(x)", "-x*j(1/x)", binds=("x=2*q",)), SuiteReport([CHECK])]


def rebuilt(r):
    return type(r)(*(getattr(r, f) for f in r._fields))


@pytest.mark.parametrize("r", RECORDS, ids=lambda r: type(r).__name__)
def test_equal_to_a_copy_and_to_nothing_else(r):
    assert r == rebuilt(r) and not r != rebuilt(r)
    assert r != tuple(getattr(r, f) for f in r._fields)
    assert all(r != s for s in RECORDS if type(s) is not type(r))


def test_each_operator_is_its_own_type():
    ops = [Add(A, B), Sub(A, B), Mul(A, B), Div(A, B)]
    assert len({*ops}) == 4 and len({*ops, *(rebuilt(o) for o in ops)}) == 4
    assert Lit(F(2)) != Sym(F(2)) and Neg(A) != Pow(A, F(1))
    assert Add(A, B) != Add(B, A) and Call("j", (A,)) != Call("m", (A,))


@pytest.mark.parametrize("r", NODES + [CHECK], ids=lambda r: type(r).__name__)
def test_hash_follows_equality(r):
    assert hash(r) == hash(rebuilt(r))
    assert {r, rebuilt(r)} == {r}


def test_records_with_unhashable_fields_are_unhashable():
    # a CycloNumber has no hash, nor does a list
    for r in (Monomial(zeta_power(5, 1), F(1, 2)), SuiteReport([CHECK])):
        with pytest.raises(TypeError):
            hash(r)


@pytest.mark.parametrize("r", NODES + [CHECK], ids=lambda r: type(r).__name__)
def test_kept_hash_is_the_hash_of_the_key(r):
    # the first call keeps the hash; later calls, and a pickled copy, agree
    assert hash(r) == hash(r._key) == hash(r)
    assert hash(pickle.loads(pickle.dumps(r))) == hash(r)


def test_two_parses_of_one_text_hash_equal():
    text = "J(1,2)^2*j(-q*w^2, q^4)/(j(w, q)*j(-w, q))"
    a, b = parse(text), parse(text)
    assert a == b and a is not b and hash(a) == hash(b) == hash(a._key)


def test_a_record_with_dict_fields_refuses_hash_every_time():
    case = make_case("c", "j(x)", "-x*j(1/x)", binds=("x=2*q",))
    for _ in range(2):
        with pytest.raises(TypeError):
            hash(case)


@pytest.mark.parametrize("r", RECORDS, ids=lambda r: type(r).__name__)
def test_attribute_assignment_is_refused(r):
    for name in (*r._fields, "_key", "_hash", "extra"):
        with pytest.raises(AttributeError):
            setattr(r, name, None)
        if name != "extra":
            with pytest.raises(AttributeError):
                delattr(r, name)
    assert r == rebuilt(r)


@pytest.mark.parametrize(
    "r",
    [CHECK, Verdict(PASS, F(10)), Verdict(NONGENERIC, F(7, 2), note="nongeneric: j(1; q)"),
     parse("m(-zeta(3,1)*q^(1/2), q, -1) - J(1,2)^2/(2*q)")],
    ids=lambda r: type(r).__name__,
)
def test_pickle_round_trip(r):
    copy = pickle.loads(pickle.dumps(r))
    assert copy == r and type(copy) is type(r) and copy is not r


def test_keyword_construction_and_defaults():
    v = Verdict(status="pass", order_checked=F(3))
    assert (v.first_bad_exponent, v.lhs_coeff, v.rhs_coeff, v.note) == (None, None, None, "")
    case = IdentityCase(id="c", lhs=A, rhs=B)
    assert case.sample_bindings == ({},) and case.binding_sources == ("",)
    assert (case.default_order, case.genericity_note, case.expect) == (F(50), "", "pass")
    assert IdentityCase(id="c", lhs=A, rhs=B, sample_bindings=()) == case
    assert Monomial(zeta_power(5, 1), 2).expo == F(2) and type(Monomial.make(3, 1).expo) is F


def test_construction_checks():
    with pytest.raises(ValueError, match="nonzero"):
        Monomial(zeta_power(5, 1) - zeta_power(5, 1), F(0))
    with pytest.raises(ValueError, match="fail verdict"):
        Verdict("fail", F(1), F(0))
    with pytest.raises(ValueError, match="unknown verdict"):
        Verdict("maybe", F(1))
    with pytest.raises(ValueError, match="unknown expectation"):
        IdentityCase("c", A, B, expect="maybe")
    with pytest.raises(ValueError, match="out of step"):
        IdentityCase("c", A, B, sample_bindings=({}, {}))
    with pytest.raises(TypeError):
        Add(A)
    fields = dict(zip(CHECK._fields, CHECK._key))
    with pytest.raises(TypeError, match="CheckRecord"):
        CheckRecord(**fields, colour=1)  # unknown
    with pytest.raises(TypeError, match="CheckRecord"):
        CheckRecord(**{f: v for f, v in fields.items() if f != "seconds"})  # missing
    with pytest.raises(TypeError, match=r"\('a', 'b'\)"):
        Add(A, a=A, b=B)  # by position and again by name
    with pytest.raises(TypeError, match="Add"):
        Add(A, B, A)  # too many
    with pytest.raises(TypeError, match="Add"):
        Add(A, B, b=B)
    with pytest.raises(TypeError, match="Inf"):
        Inf(x=A)


def test_repr_names_every_field():
    assert repr(Add(A, B)) == "Add(a=Lit(value=Fraction(2, 1)), b=Sym(name='q'))"
    assert repr(Inf()) == "Inf()"
