"""Corpus file format, the checking engine, and suite reports."""

import concurrent.futures
import os
import pickle
from fractions import Fraction as F
from math import gcd, lcm

import pytest

from qident import Verdict, identity, special
from qident.coeff import zeta_power
from qident.dsl import eval_expr, parse, print_expr
from qident.errors import CapExceededError, EvalError, NonGenericError
from qident.identity import (
    DEFAULT_ORDER,
    IdentityCase,
    builtin_cases,
    builtin_corpus_text,
    check,
    make_case,
    parse_corpus,
    run_suite,
    serialize_case,
    serialize_corpus,
)
from qident.series import Monomial, QSeries, series_eq_to_order

from oracles import count_builds

SMALL = """\
# two easy stanzas
id: theta-quotient
lhs: J(1,2)
rhs: Jm(1)^2/Jm(2)
order: 30

id: shift
lhs: j(q*x; q)
rhs: -x^-1*j(x; q)
bind: x=2*q
bind: x=zeta(3,1)
order: 81/2
note: valid for every nonzero x
"""


class TestCorpusFormat:
    def test_parse_small_corpus(self):
        cases = parse_corpus(SMALL)
        assert [c.id for c in cases] == ["theta-quotient", "shift"]
        first, second = cases
        assert first.default_order == F(30)
        assert first.sample_bindings == ({},)
        assert second.default_order == F(81, 2)
        assert len(second.sample_bindings) == 2
        assert second.sample_bindings[0]["x"].expo == F(1)
        assert second.genericity_note == "valid for every nonzero x"
        assert all(c.expect == "pass" for c in cases)

    def test_comments_and_blank_runs_ignored(self):
        noisy = "# leading\n\n\n" + SMALL + "\n# trailing\n\n"
        assert len(parse_corpus(noisy)) == 2

    def test_bind_commas_respect_parentheses(self):
        case = parse_corpus("id: a\nlhs: x\nrhs: y\nbind: x=zeta(5,2), y=zeta(5,2)\n")[0]
        b = case.sample_bindings[0]
        assert set(b) == {"x", "y"} and b["x"] == b["y"]

    def test_serialize_parse_round_trip(self):
        cases = parse_corpus(SMALL)
        text = serialize_corpus(cases)
        again = parse_corpus(text)
        assert serialize_corpus(again) == text

    def test_serialization_omits_defaults(self):
        case = make_case("t", "J(1,2)", "J(1,2)")
        out = serialize_case(case)
        assert "order:" not in out and "expect:" not in out and "bind:" not in out

    def test_serialization_keeps_engineered_fields(self):
        case = make_case("t", "q", "q + 1", order=F(5, 2), expect="fail", note="why")
        out = serialize_case(case)
        assert "order: 5/2" in out and "expect: fail" in out and "note: why" in out

    def test_missing_required_key(self):
        with pytest.raises(ValueError, match="lacks rhs"):
            parse_corpus("id: a\nlhs: q\n")

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="key"):
            parse_corpus("id: a\nlhs: q\nrhs: q\nwhen: now\n")

    def test_duplicate_key_in_stanza(self):
        with pytest.raises(ValueError, match="duplicate lhs"):
            parse_corpus("id: a\nlhs: q\nlhs: q\nrhs: q\n")

    def test_duplicate_order_in_stanza(self):
        # a second order: is refused as any other single-valued key is,
        # not taken over the first
        with pytest.raises(ValueError, match="line 5: duplicate order:"):
            parse_corpus("id: a\nlhs: q\nrhs: q\norder: 5\norder: 7\n")

    def test_duplicate_case_id(self):
        text = "id: a\nlhs: q\nrhs: q\n\nid: a\nlhs: q\nrhs: q\n"
        with pytest.raises(ValueError, match="duplicate case id"):
            parse_corpus(text)

    def test_bad_order_value(self):
        with pytest.raises(ValueError, match="bad order"):
            parse_corpus("id: a\nlhs: q\nrhs: q\norder: soon\n")
        with pytest.raises(ValueError, match="default_order must be positive"):
            parse_corpus("id: a\nlhs: q\nrhs: q\norder: 0\n")

    def test_symbol_bound_twice(self):
        with pytest.raises(ValueError, match="bound twice"):
            parse_corpus("id: a\nlhs: x\nrhs: x\nbind: x=q, x=q^2\n")

    def test_bad_expectation_rejected(self):
        with pytest.raises(ValueError, match="expectation"):
            make_case("a", "q", "q", expect="maybe")


class TestCheck:
    def test_passing_verdict(self):
        case = make_case("t", "J(1,2)", "Jm(1)^2/Jm(2)", order=30)
        v = check(case)
        assert v.ok and v.order_checked == F(30)

    def test_engineered_exponent_reported(self):
        # rhs differs from lhs by exactly q^30
        case = make_case("t", "J(1,2)", "J(1,2) + q^30", order=40)
        v = check(case)
        assert v.status == "fail"
        assert v.first_bad_exponent == F(30)
        assert (v.rhs_coeff - v.lhs_coeff).is_one()

    def test_low_order_misses_late_mismatch(self):
        # the same perturbation is invisible below q^30
        case = make_case("t", "J(1,2)", "J(1,2) + q^30", order=40)
        assert check(case, order_override=20).ok

    def test_binding_index_selects_sample(self):
        case = make_case("t", "x", "2*q", binds=("x=2*q", "x=3*q"), order=10)
        assert check(case, binding_index=0).ok
        v = check(case, binding_index=1)
        assert v.status == "fail" and v.first_bad_exponent == F(1)

    def test_pole_becomes_nongeneric_verdict(self):
        case = make_case("t", "rjtp(z)", "Jm(1)^3/j(z; q)", binds=("z=q",), order=20)
        v = check(case)
        assert v.status == "nongeneric" and "pole" in v.note

    def test_precision_shortfall_triggers_padding(self):
        # both sides shift down by q^2, so a first pass at the requested
        # order comes up short and check() must recompute padded
        case = make_case("t", "q^(-2)*J(1,2)", "Jm(1)^2/(Jm(2)*q^2)", order=25)
        v = check(case)
        assert v.ok and v.order_checked == F(25)

    def test_unreachable_precision_becomes_verdict(self, monkeypatch):
        def short(*args):
            raise CapExceededError("could not reach precision 10")

        monkeypatch.setattr(identity, "eval_expr", short)
        case = make_case("t", "q", "q", order=10)
        v = check(case)
        assert v.status == "insufficient_precision" and "could not reach" in v.note
        report = run_suite(cases=[case])
        assert not report.ok()
        assert report.render().splitlines()[-1].endswith("/ insufficient_precision 1")

    def test_unbound_symbol_propagates(self):
        case = make_case("t", "x", "q", order=10)
        with pytest.raises(EvalError, match="unbound"):
            check(case)


class TestSuite:
    def make_cases(self):
        return [
            make_case("good", "J(1,2)", "Jm(1)^2/Jm(2)", order=15),
            make_case("bad", "q", "q + 1", order=15),
            make_case("trap", "q", "q + 1", order=15, expect="fail"),
            make_case("sing", "rjtp(q)", "rjtp(q)", order=15, expect="nongeneric"),
        ]

    def test_statuses_and_expectations(self):
        report = run_suite(cases=self.make_cases())
        statuses = {r.case_id: r.status for r in report.records}
        assert statuses == {
            "good": "pass",
            "bad": "fail",
            "trap": "fail",
            "sing": "nongeneric",
        }
        assert not report.ok()
        assert [r.case_id for r in report.unexpected()] == ["bad"]
        assert report.counts() == {
            "total": 4,
            "pass": 1,
            "fail": 2,
            "nongeneric": 1,
            "insufficient_precision": 0,
        }

    def test_parallel_matches_serial(self):
        cases = self.make_cases()
        serial = run_suite(cases=cases)
        parallel = run_suite(cases=cases, jobs=2)
        strip = lambda rs: [(r.case_id, r.binding, r.status, r.expect) for r in rs]
        assert strip(serial.records) == strip(parallel.records)

    def test_cases_and_verdicts_pickle(self):
        # what --jobs workers are sent and may send back: every built-in
        # case, bound monomials and all, and a fail verdict's coefficients
        for case in builtin_cases():
            assert pickle.loads(pickle.dumps(case)) == case
        v = Verdict("fail", F(3), F(1), zeta_power(5, 1), zeta_power(5, 2) - F(1, 2))
        back = pickle.loads(pickle.dumps(v))
        assert back == v and back.detail() == v.detail()

    def test_jobs_clamped_to_cpu_count(self, monkeypatch):
        # a stand-in pool: no worker process starts, whatever --jobs says
        workers = []

        class SerialPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        report = run_suite(jobs=64, cases=self.make_cases())
        assert workers == [2]
        assert len(report.records) == 4

    def test_one_cpu_runs_serially(self, monkeypatch):
        # a one-worker pool would only pickle every case: no pool starts
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a pool was started on one CPU")

        cases = self.make_cases()
        serial = run_suite(cases=cases)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        report = run_suite(jobs=4, cases=cases)
        strip = lambda rs: [(r.case_id, r.binding, r.status, r.detail, r.expect) for r in rs]
        assert strip(report.records) == strip(serial.records)

    def test_order_override_applies_everywhere(self):
        case = make_case("late", "J(1,2)", "J(1,2) + q^30", order=40, expect="fail")
        assert run_suite(cases=[case]).ok()
        assert not run_suite(order=20, cases=[case]).ok()

    def test_render_format(self):
        report = run_suite(cases=self.make_cases())
        lines = report.render().splitlines()
        assert lines[0].startswith("good\t-\tpass\t")
        assert "(expected)" in lines[2] and "(expected)" not in lines[1]
        assert lines[-1] == "total 4 / pass 1 / fail 2 / nongeneric 1"

    def test_every_binding_runs(self):
        case = make_case(
            "shift", "j(q*x; q)", "-x^-1*j(x; q)",
            binds=("x=2*q", "x=zeta(3,1)", "x=-q^(1/2)"), order=15,
        )
        report = run_suite(cases=[case])
        assert [r.binding for r in report.records] == ["x=2*q", "x=zeta(3,1)", "x=-q^(1/2)"]
        assert report.ok()


class TestBuiltinCorpus:
    def test_loads_and_ids_unique(self):
        cases = builtin_cases()
        ids = [c.id for c in cases]
        assert len(ids) == len(set(ids))
        assert len(cases) >= 70

    def test_round_trips_through_serializer(self):
        cases = builtin_cases()
        again = parse_corpus(serialize_corpus(cases))
        assert serialize_corpus(again) == serialize_corpus(cases)

    def test_functional_equation_sampling(self):
        by_id = {c.id: c for c in builtin_cases()}
        for cid in ("m-shift-z", "m-shift-x", "m-change-z",
                    "m-split-1", "m-split-2", "m-split-3"):
            case = by_id[cid]
            assert len(case.sample_bindings) >= 5, cid
            assert case.default_order >= F(40)

    def test_theorem_families_complete(self):
        ids = {c.id for c in builtin_cases()}
        pairs = ("1-2", "1-3", "2-3", "1-4", "3-4", "1-5")
        assert {f"ktilde-new-{p}" for p in pairs} <= ids
        assert {f"htilde-new-{p}" for p in pairs} <= ids
        assert {"htilde-even-1-2", "htilde-even-1-4", "htilde-even-3-4"} <= ids

    def test_chain_sampling(self):
        by_id = {c.id: c for c in builtin_cases()}
        roots = lambda cid: {s.split("=", 1)[1] for s in by_id[cid].binding_sources}
        full = {"-1", "zeta(3,1)", "zeta(4,1)", "zeta(5,1)"}
        for cid in ("bilateral-even", "bilateral-odd", "kprime-form",
                    "kprimeprime-form", "chain-square-product", "chain-end"):
            assert roots(cid) == full, cid
        for cid in ("chain-regroup", "chain-change-z", "chain-split",
                    "chain-collapse", "chain-regroup-quotients", "chain-dissect"):
            assert roots(cid) == full - {"-1"}, cid
        # the excluded sample point is pinned as a rejection case
        assert by_id["chain-regroup-pole"].expect == "nongeneric"
        assert by_id["m-split-regroup-pole"].expect == "nongeneric"

    def test_engineered_cases_marked(self):
        by_id = {c.id: c for c in builtin_cases()}
        assert by_id["canary"].expect == "fail"
        for cid in ("rjtp-pole", "bilateral-even-pole", "g-appell-pole",
                    "chain-regroup-pole", "m-split-regroup-pole"):
            assert by_id[cid].expect == "nongeneric", cid

    def test_spot_checks_run(self):
        by_id = {c.id: c for c in builtin_cases()}
        assert check(by_id["theta-eval-3"], order_override=15).ok
        canary = check(by_id["canary"], order_override=5)
        assert canary.status == "fail" and canary.first_bad_exponent == F(0)

    def test_text_is_commented(self):
        assert builtin_corpus_text().lstrip().startswith("#")


def _builtin_sides():
    for case in builtin_cases():
        order = min(case.default_order, F(12))
        for i, binding in enumerate(case.sample_bindings):
            for side in ("lhs", "rhs"):
                yield pytest.param(
                    getattr(case, side), order, binding, id=f"{case.id}-{side}-{i}"
                )


@pytest.mark.parametrize("expr, order, binding", list(_builtin_sides()))
def test_builtin_side_reaches_order(expr, order, binding):
    """eval_expr covers every exponent below the order it is asked for, and
    what it claims there agrees with an evaluation three powers deeper."""
    try:
        s = eval_expr(expr, order, binding)
        deeper = eval_expr(expr, order + 3, binding)
    except NonGenericError:
        pytest.skip("nongeneric side")
    assert s.prec_order() >= order
    v = series_eq_to_order(s, deeper, order)
    assert v.status == "pass", v.detail()


def _conjugate(s: QSeries, t: int) -> tuple:
    """sigma_t (zeta -> zeta^t) of every coefficient of s, with s's grid,
    precision and field; t = 1 gives s itself in this form."""
    return s.denom, s.prec, s.field_order, {k: c.galois(t) for k, c in s.terms.items()}


def _field(binding) -> int:
    """The order of the smallest Q(zeta_M) that holds every coefficient of a binding."""
    return lcm(*(m.coeff.order for m in binding.values()))


CYCLOTOMIC_CHECKS = [pytest.param(case, binding, id=f"{case.id}-{i}") for case in builtin_cases()
                     for i, binding in enumerate(case.sample_bindings) if _field(binding) > 1]


def test_cyclotomic_checks_move_only_their_bindings():
    # sigma_t moves a binding's roots of unity; a constant of the texts
    # (zeta, sin, csc, or the sines inside Ktilde, Htilde and Habc) would
    # move too, and the equivariance below would not hold as stated
    assert len(CYCLOTOMIC_CHECKS) == 73
    assert {_field(p.values[1]) for p in CYCLOTOMIC_CHECKS} == {3, 4, 5}
    for p in CYCLOTOMIC_CHECKS:
        case = p.values[0]
        text = print_expr(case.lhs) + print_expr(case.rhs)
        assert not any(w in text for w in ("zeta", "sinpi", "cscpi", "Ktilde", "Htilde", "Habc")), case.id


@pytest.mark.parametrize("case, binding", CYCLOTOMIC_CHECKS)
def test_builtin_side_is_galois_equivariant(case, binding):
    """A side evaluated at sigma_t(binding) is sigma_t of the side's series,
    for each t prime to the side's field order."""
    for side in (case.lhs, case.rhs):
        s = eval_expr(side, case.default_order, binding)
        for t in (t for t in range(2, s.field_order) if gcd(t, s.field_order) == 1):
            conj = {k: Monomial(m.coeff.galois(t), m.expo) for k, m in binding.items()}
            got = eval_expr(side, case.default_order, conj)
            assert _conjugate(got, 1) == _conjugate(s, t), (print_expr(side), t)


def test_theta_at_a_root_of_unity_near_the_field_cap_is_galois_equivariant():
    s = eval_expr(parse("j(zeta(997,1); q)"), 5)
    for t in (2, 500, 996):
        assert _conjugate(eval_expr(parse(f"j(zeta(997,{t}); q)"), 5), 1) == _conjugate(s, t), t


def test_builtin_corpus_evaluates_with_one_rebuild_at_most(monkeypatch):
    # negative shifts are padded up front, so only a product or quotient
    # of series with negative valuations (m-split-3 at x = q^(1/2)) can
    # still fall short of the order on the first build; from a cold memo,
    # which a side, a definition or a row read before would serve unbuilt;
    # every build counts, the rows' as well as the sides'
    monkeypatch.setattr(special, "_theta_cache", {})
    counts = count_builds(monkeypatch)
    for case in builtin_cases():
        for binding in case.sample_bindings:
            for side in (case.lhs, case.rhs):
                try:
                    eval_expr(side, case.default_order, binding)
                except NonGenericError:
                    pass
    assert len(counts) > 300
    assert sum(n - 1 for n in counts) <= 1, counts


@pytest.mark.parametrize("text", [
    "-q^(-4/7)*m(zeta(7,4)*q^(-1/7), q^2, q)",
    # the same shift written as a division by a monomial
    "-m(zeta(7,4)*q^(-1/7), q^2, q)/q^(4/7)",
])
def test_negative_shift_of_m_builds_once(monkeypatch, text):
    # every build once: the side, the m row and m's theta divisor, the row j
    monkeypatch.setattr(special, "_theta_cache", {})
    counts = count_builds(monkeypatch)
    eval_expr(parse(text), 40)
    assert counts == [1, 1, 1]


def test_division_by_monomial_matches_negative_shift():
    a = eval_expr(parse("q^(-3)*Jm(1)"), 20)
    b = eval_expr(parse("Jm(1)/q^3"), 20)
    assert series_eq_to_order(a, b, 20).status == "pass"
