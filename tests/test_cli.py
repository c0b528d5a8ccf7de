"""Command line behavior: output shapes and exit codes."""

import time

import pytest

from qident import cli, dsl, series
from qident.cli import main
from qident.coeff import MAX_FIELD_ORDER
from qident.errors import CapExceededError

F0_LINES = [
    "q^(0/1): 1",
    "q^(1/1): 1",
    "q^(2/1): -1",
    "q^(3/1): 1",
    "q^(6/1): -1",
    "q^(7/1): 1",
    "q^(9/1): 1",
]


class TestExpand:
    def test_eulerian_expansion(self, capsys):
        assert main(["expand", "f0()", "--order", "10"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("# terms below q^(10), grid 1/1")
        assert out[1:] == F0_LINES

    def test_fractional_grid_and_binding(self, capsys):
        code = main(["expand", "j(x; q)", "--order", "3", "--bind", "x=-q^(1/2)"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert "grid 1/2" in out[0]
        # n = 1 and n = -1 of the bilateral sum both land on q^(1/2)
        assert out[1] == "q^(0/2): 1"
        assert "q^(1/2): 2" in out

    def test_cyclotomic_coefficients_printed(self, capsys):
        assert main(["expand", "zeta(3,1) + q", "--order", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "Q(zeta_3)" in out[0]
        assert out[1] == "q^(0/1): z3"

    def test_negative_exponents_first(self, capsys):
        assert main(["expand", "q^(-2)*J(1,2)", "--order", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "q^(-2/1): 1"

    def test_negative_shift_reaches_order(self, capsys):
        # the shift by q^(-3) costs three powers of precision, which the
        # evaluation must win back: q^(-3)/Jm(1) = sum of p(n) q^(n-3)
        assert main(["expand", "q^(-3)/Jm(1)", "--order", "10"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("# terms below q^(10), grid 1/1")
        assert "q^(6/1): 30" in out

    @pytest.mark.parametrize("expr, order, line", [
        # (1 - 2q^-1)(1 - 2) prod_{k>=1} (1 - 2q^k), multiplied out by hand
        ("poch(2*q^(-1), q, inf)", "8", "q^(7/1): -14"),
        # an integer product over every factor that reaches below q^10
        ("poch(2*q^(-10), q, inf)", "10", "q^(9/1): -630110"),
    ])
    def test_negative_exponent_pochhammer(self, capsys, expr, order, line):
        assert main(["expand", expr, "--order", order]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith(f"# terms below q^({order}), grid 1/1")
        assert line in out

    @pytest.mark.parametrize("e", [-150, -300])
    def test_padding_beyond_limit_is_usage_error(self, capsys, e):
        # the sum dips below q^(-11000) (e = -150) before it grows; the
        # first term past the padding limit ends it after a few terms
        assert main(["expand", f"poch(2*q^({e}), q, inf)", "--order", "10"]) == 2
        err = capsys.readouterr().err
        assert "precision deficit of" in err and "padding limit 1000" in err

    @pytest.mark.parametrize("expr", [
        # a shift past the limit is not padded up front: one build at the
        # asked order shows the deficit
        "q^(-5000)*poch(2*q, q, inf)",
        "poch(2*q, q, inf)/q^5000",
        # nor are shifts that pass it together
        "q^(-600)*(q^(-600)*poch(2*q, q, inf))",
    ])
    def test_shift_beyond_limit_is_usage_error(self, capsys, expr):
        t0 = time.perf_counter()
        assert main(["expand", expr, "--order", "10"]) == 2
        assert time.perf_counter() - t0 < 2
        err = capsys.readouterr().err
        assert "precision deficit of" in err and "padding limit 1000" in err

    def test_monomial_shift_past_limit_is_exact(self, capsys):
        assert main(["expand", "q^(-5000)*q^5001", "--order", "3"]) == 0
        assert "q^(1/1): 1" in capsys.readouterr().out

    def test_unreachable_precision_is_usage_error(self, monkeypatch, capsys):
        def short(*args):
            raise CapExceededError("could not reach precision 4")

        monkeypatch.setattr(cli, "eval_expr", short)
        assert main(["expand", "q", "--order", "4"]) == 2
        assert "could not reach precision" in capsys.readouterr().err

    def test_parse_error_is_usage_error(self, capsys):
        assert main(["expand", "foo(1)", "--order", "4"]) == 2
        err = capsys.readouterr().err
        assert "unknown function" in err and "column 1" in err

    def test_nongeneric_input_is_usage_error(self, capsys):
        assert main(["expand", "rjtp(q)", "--order", "6"]) == 2
        assert "pole" in capsys.readouterr().err

    @pytest.mark.parametrize("expr", ["1/(j(q)*Jm(1))", "Jm(1)/(Jm(2)*j(1))", "1/(0*q*Jm(1))"])
    def test_zero_factor_of_a_divisor_is_usage_error(self, capsys, expr):
        # j(q) and j(1) vanish, and 0 is zero, in whichever place they stand
        assert main(["expand", expr, "--order", "10"]) == 2
        assert "cannot divide by a series that is zero to its precision" in capsys.readouterr().err

    @pytest.mark.parametrize("expr, same", [
        ("{A}/({B}^0)", "{A}"),
        ("{A}/{B}^2", "{A}/{B}/{B}"),
        ("{A}/(q^(-1)*{B})", "q*{A}/{B}"),
    ])
    def test_divisor_forms_print_the_same(self, capsys, expr, same):
        # B has valuation -1/2, so each division by it costs precision
        outs = []
        for text in (expr, same):
            text = text.format(A="m(2*q, q, -q^(1/2))", B="j(2*q^(-1/2))")
            assert main(["expand", text, "--order", "12"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("expr, name", [
        ("Ktilde(0,2)", "Ktilde"),
        ("Htilde(0,3)", "Htilde"),
        ("Htilde_bilateral(3,2)", "Htilde_bilateral"),
        ("Htilde_bilateral(1,3)", "Htilde_bilateral"),
        ("msplit(2*q, q, -1, -q, 0)", "msplit"),
        # raised inside the definition's expression, still under its name
        ("Ktilde_closed(1,0)", "Ktilde_closed"),
        ("Ktilde(1,600)", "Ktilde"),
    ])
    def test_bad_definition_argument_is_usage_error(self, capsys, expr, name):
        assert main(["expand", expr, "--order", "10"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {name}: ")

    @pytest.mark.parametrize("expr", ["zeta(100000,1)", "zeta(997,1)*zeta(991,1)"])
    def test_field_order_past_cap_is_usage_error(self, capsys, expr):
        # checked before Phi_M is built: Phi_988027 alone would take minutes
        t0 = time.perf_counter()
        assert main(["expand", expr, "--order", "3"]) == 2
        assert time.perf_counter() - t0 < 1
        assert f"exceeds MAX_FIELD_ORDER = {MAX_FIELD_ORDER}" in capsys.readouterr().err

    @pytest.mark.parametrize("expr", ["1/(1 - q^(1/997) - q^(1/991))",
                                      "j(q^(1/988027), q)/j(q^(2/988027), q)"])
    def test_grid_past_cap_is_usage_error(self, capsys, expr):
        # a window is order * D grid steps: on the grid 1/988027 the first
        # ran out of memory and the second ran for minutes
        t0 = time.perf_counter()
        assert main(["expand", expr, "--order", "20"]) == 2
        assert time.perf_counter() - t0 < 1
        assert f"exceeds MAX_GRID = {series.MAX_GRID}" in capsys.readouterr().err

    def test_lowered_grid_cap_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setattr(series, "MAX_GRID", 6)
        assert main(["expand", "1/(1 - q^(1/7))", "--order", "5"]) == 2
        assert "exceeds MAX_GRID = 6" in capsys.readouterr().err
        assert main(["expand", "1/(1 - q^(1/6))", "--order", "5"]) == 0

    @pytest.mark.parametrize("expr", ["1/(1 - q^(1/6))", "Hp(1,6,1)"])
    def test_lowered_window_cap_is_usage_error(self, monkeypatch, capsys, expr):
        # order times grid denominator: 84 * 6 = 504 steps, 83 * 6 = 498
        monkeypatch.setattr(series, "MAX_WINDOW", 500)
        assert main(["expand", expr, "--order", "84"]) == 2
        assert "exceeds MAX_WINDOW = 500" in capsys.readouterr().err
        assert main(["expand", expr, "--order", "83"]) == 0

    def test_window_cap_covers_every_window_in_use(self):
        # the corpus at order 100 reaches 2,504 steps, the golden calls 756
        assert series.MAX_WINDOW >= 2504

    def test_order_past_cap_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setattr(dsl, "MAX_ORDER", 50)
        assert main(["expand", "1/Jm(1)", "--order", "51"]) == 2
        assert "exceeds MAX_ORDER = 50" in capsys.readouterr().err
        assert main(["expand", "1/Jm(1)", "--order", "50"]) == 0

    def test_order_cap_covers_every_order_in_use(self):
        assert dsl.MAX_ORDER >= 200

    @pytest.mark.parametrize("expr", ["(3/2)^6*q", "cscpi(1,3)^6", "(2*q)^-6", "j(2^6*q)", "(1 - q)^6",
                                      "1/(1 - q)^6", "q/(2*q)^6"])
    def test_lowered_power_cap_is_usage_error(self, monkeypatch, capsys, expr):
        monkeypatch.setattr(dsl, "MAX_POWER", 5)
        assert main(["expand", expr, "--order", "10"]) == 2
        assert "exceeds MAX_POWER = 5" in capsys.readouterr().err
        assert main(["expand", expr.replace("6", "5"), "--order", "10"]) == 0

    def test_divisor_power_counts_its_nested_powers(self, monkeypatch, capsys):
        # a divisor is divided by each factor as often as the powers around it say
        monkeypatch.setattr(dsl, "MAX_POWER", 5)
        assert main(["expand", "1/((1 - q)^2)^3", "--order", "10"]) == 2
        assert "exceeds MAX_POWER = 5" in capsys.readouterr().err
        assert main(["expand", "1/((1 - q)^2)^2", "--order", "10"]) == 0

    @pytest.mark.parametrize("expr", ["q^7", "q^(-7)*j(q)", "(q^2)^-7*j(q)"])
    def test_power_cap_spares_pure_powers_of_q(self, monkeypatch, expr):
        monkeypatch.setattr(dsl, "MAX_POWER", 5)
        assert main(["expand", expr, "--order", "10"]) == 0

    @pytest.mark.parametrize(
        "expr", ["cscpi(1,3)^10000000", "(3/2)^300000*q", "(2*q)^100000000", "j(2^100000*q)",
                 "1/(1 - q)^100000000", "(((2+q)^1000)^1000)^1000"]
    )
    def test_huge_scalar_power_is_refused_at_once(self, capsys, expr):
        t0 = time.perf_counter()
        assert main(["expand", expr, "--order", "10"]) == 2
        assert time.perf_counter() - t0 < 1
        assert f"exceeds MAX_POWER = {dsl.MAX_POWER}" in capsys.readouterr().err

    def test_power_cap_covers_every_power_in_use(self):
        # the corpus and the golden calls raise nothing to a power past 30
        assert dsl.MAX_POWER >= 30

    def test_lowered_split_cap_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setattr(dsl, "MAX_SPLIT", 2)
        assert main(["expand", "msplit(2*q, q, -1, -q, 3)", "--order", "10"]) == 2
        assert "exceeds MAX_SPLIT = 2" in capsys.readouterr().err
        assert main(["expand", "msplit(2*q, q, -1, -q, 2)", "--order", "10"]) == 0

    @pytest.mark.parametrize("n", [300, 1000])
    def test_deep_split_is_refused_at_once(self, capsys, n):
        # n = 300 ran past a minute and n = 1000 ended in a RecursionError
        t0 = time.perf_counter()
        assert main(["expand", f"msplit(2*q, q, -1, -q, {n})", "--order", "10"]) == 2
        assert time.perf_counter() - t0 < 1
        assert f"exceeds MAX_SPLIT = {dsl.MAX_SPLIT}" in capsys.readouterr().err

    def test_split_cap_covers_every_split_in_use(self):
        # the corpus splits at most 3 ways and the golden calls 4
        assert dsl.MAX_SPLIT >= 4

    def test_duplicate_binding_rejected(self, capsys):
        code = main(["expand", "x", "--order", "4", "--bind", "x=q", "--bind", "x=q^2"])
        assert code == 2
        assert "bound twice" in capsys.readouterr().err

    def test_bad_order_rejected(self, capsys):
        for order, why in (("zero", "not an order"), ("0", "order must be positive"),
                           ("-1", "order must be positive")):
            with pytest.raises(SystemExit) as exc:
                main(["expand", "q", "--order", order])
            assert exc.value.code == 2
            assert why in capsys.readouterr().err


class TestVerify:
    def write(self, tmp_path, text):
        path = tmp_path / "cases.id"
        path.write_text(text)
        return str(path)

    def test_expected_failure_keeps_exit_zero(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            "id: ok\nlhs: J(1,2)\nrhs: Jm(1)^2/Jm(2)\norder: 12\n\n"
            "id: trip\nlhs: q\nrhs: q + 1\norder: 12\nexpect: fail\n",
        )
        assert main(["verify", path]) == 0
        out = capsys.readouterr().out
        assert "total 2 / pass 1 / fail 1 / nongeneric 0" in out
        assert "(expected)" in out

    def test_unexpected_failure_exits_one(self, tmp_path, capsys):
        path = self.write(tmp_path, "id: broken\nlhs: q\nrhs: q + 1\norder: 12\n")
        assert main(["verify", path]) == 1
        assert "first mismatch at q^(0/1)" in capsys.readouterr().out

    def test_order_override_flag(self, tmp_path):
        path = self.write(tmp_path, "id: late\nlhs: J(1,2)\nrhs: J(1,2) + q^30\norder: 40\nexpect: fail\n")
        assert main(["verify", path]) == 0
        # an override below the engineered exponent makes the canary pass,
        # which the expectation machinery reports as a surprise
        assert main(["verify", path, "--order", "20"]) == 1

    NEG_POCH = (
        "id: neg-poch\nlhs: poch(2*q^(-1), q, inf)\n"
        "rhs: -(1 - 2*q^(-1))*poch(2*q, q, inf){extra}\norder: 8\n"
    )

    def test_negative_exponent_pochhammer_true_identity_passes(self, tmp_path, capsys):
        assert main(["verify", self.write(tmp_path, self.NEG_POCH.format(extra=""))]) == 0
        assert "total 1 / pass 1 / fail 0" in capsys.readouterr().out

    def test_negative_exponent_pochhammer_false_identity_fails(self, tmp_path, capsys):
        # a product that left out the factors carried below q^8 by its
        # negative valuation verified this false identity
        path = self.write(tmp_path, self.NEG_POCH.format(extra=" + 4*q^7"))
        assert main(["verify", path]) == 1
        assert "first mismatch at q^(7/1)" in capsys.readouterr().out

    @pytest.mark.parametrize("order, code", [(51, 2), (50, 0)])
    def test_stanza_order_past_cap_is_usage_error(self, tmp_path, monkeypatch, capsys, order, code):
        monkeypatch.setattr(dsl, "MAX_ORDER", 50)
        path = self.write(tmp_path, f"id: deep\nlhs: J(1,2)\nrhs: Jm(1)^2/Jm(2)\norder: {order}\n")
        assert main(["verify", path]) == code
        assert ("exceeds MAX_ORDER = 50" in capsys.readouterr().err) == (code == 2)

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "nope.id")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_corpus_is_usage_error(self, tmp_path, capsys):
        path = self.write(tmp_path, "id: a\nlhs: q\n")
        assert main(["verify", path]) == 2
        assert "lacks rhs" in capsys.readouterr().err

    def test_parallel_flag(self, tmp_path):
        path = self.write(
            tmp_path,
            "id: a\nlhs: J(1,2)\nrhs: Jm(1)^2/Jm(2)\norder: 12\n\n"
            "id: b\nlhs: JB(0,1)\nrhs: 2*JB(1,4)\norder: 12\n",
        )
        assert main(["verify", path, "--jobs", "2"]) == 0


class TestSuite:
    def test_full_run_at_low_order(self, capsys):
        assert main(["suite", "--order", "10"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "# metadata: level constant f_c = 2c/gcd(c,4): f_2=2 f_3=6 f_4=2 f_5=10"
        assert out[-1] == "total 172 / pass 166 / fail 1 / nongeneric 5"

    def test_order_past_cap_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setattr(dsl, "MAX_ORDER", 50)
        assert main(["suite", "--order", "51"]) == 2
        assert "exceeds MAX_ORDER = 50" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
