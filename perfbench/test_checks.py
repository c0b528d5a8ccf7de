"""Tests of the benchmark's own checks: planted faults must be reported as
failed operations, so the checks are not vacuous.

    python3 -m pytest -q perfbench/test_checks.py
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as R  # noqa: E402
import run  # noqa: E402
from checks import check_expansion, parse_coefficient  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from workloads import Expansion, Workload  # noqa: E402


def _expand(source, order):
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    proc = subprocess.run([sys.executable, "-m", "qident", "expand", source, "--order", str(order)],
                          env=env, capture_output=True, text=True, check=True)
    return proc.stdout


def _expand_ops(source, order, ref, known=()):
    wl = Workload("t", "expand", expansions=(Expansion(source, order, ref, ""),),
                  known_faults=frozenset(known))
    return run.Ops(wl, 0)


def _failed(ops, problems):
    attempted, failed, unexpected = run._tally(ops, [{"problems": problems}])
    return failed, bool(unexpected)


J12 = lambda N: R.theta(R.Cyc.rat(1), 1, 2, N)  # noqa: E731


def test_correct_expansion_passes():
    ops = _expand_ops("J(1,2)", 20, J12)
    out = _expand("J(1,2)", 20)
    assert _failed(ops, {"J(1,2)": ops.judge_expand("J(1,2)", {"rc": 0, "out": out})}) == (0, False)


def test_wrong_coefficient_is_a_failed_operation():
    ops = _expand_ops("J(1,2)", 20, J12)
    lines = _expand("J(1,2)", 20).splitlines()
    k = lines.index("q^(4/1): 2")
    lines[k] = "q^(4/1): 3"
    probs = ops.judge_expand("J(1,2)", {"rc": 0, "out": "\n".join(lines)})
    assert any("coefficient of q^(4)" in p for p in probs)
    assert _failed(ops, {"J(1,2)": probs}) == (1, True)


def test_missing_and_extra_terms_are_caught():
    ref = J12(Fraction(20))
    lines = _expand("J(1,2)", 20).splitlines()
    assert not check_expansion("\n".join(lines), Fraction(20), ref)
    dropped = [ln for ln in lines if not ln.startswith("q^(9/1)")]
    assert check_expansion("\n".join(dropped), Fraction(20), ref)
    assert check_expansion("\n".join(lines + ["q^(2/1): 1"]), Fraction(20), ref)


def test_series_stopping_short_is_a_failed_operation():
    ref = lambda N: R.shift(R.inverse_partitions(N + 3), R.Cyc.rat(1), -3)  # noqa: E731
    ops = _expand_ops("q^(-3)/Jm(1)", 10, ref)
    probs = ops.judge_expand("q^(-3)/Jm(1)", {"rc": 0, "out": _expand("q^(-3)/Jm(1)", 10)})
    assert any(p.startswith("stops short") for p in probs)
    assert _failed(ops, {"q^(-3)/Jm(1)": probs}) == (1, True)
    # named as a known fault it still fails, but no longer makes the run incorrect
    ops = _expand_ops("q^(-3)/Jm(1)", 10, ref, known=("q^(-3)/Jm(1)",))
    assert _failed(ops, {"q^(-3)/Jm(1)": probs}) == (1, False)


def test_truncated_header_is_caught():
    lines = _expand("J(1,2)", 20).splitlines()
    short = [lines[0].replace("q^(20)", "q^(17)")]
    short += [ln for ln in lines[1:] if Fraction(ln[3:ln.index(")")]) < 17]
    assert any(p.startswith("stops short") for p in
               check_expansion("\n".join(short), Fraction(20), J12(Fraction(20))))


def _suite_ops(stanzas, sides=()):
    return run.Ops(Workload("t", "suite", stanzas=stanzas, sides=sides), 0)


def test_flipped_verdict_is_a_failed_operation():
    ops = _suite_ops(("canary", "theta-eval-3"))
    right = {"ops": [["canary", 0, "fail", 0.0], ["theta-eval-3", 0, "pass", 0.0]]}
    assert _failed(ops, ops.judge_suite(right)) == (0, False)
    for sid, status in (("canary", "pass"), ("theta-eval-3", "fail")):
        flipped = {"ops": [op if op[0] != sid else [sid, 0, status, 0.0] for op in right["ops"]]}
        assert _failed(ops, ops.judge_suite(flipped)) == (1, True)


def test_side_fault_fails_its_stanza():
    from workloads import Side

    side = Side("theta-eval-3", 0, "J(1,2)", (), J12)
    ops = _suite_ops(("theta-eval-3",), sides=(side,))
    out = _expand("J(1,2)", 40)
    good = {"ops": [["theta-eval-3", 0, "pass", 0.0]], "sides": [[0, out, ""]]}
    assert _failed(ops, ops.judge_suite(good)) == (0, False)
    bad = dict(good, sides=[[0, out.replace("q^(1/1): -2", "q^(1/1): 2"), ""]])
    assert _failed(ops, ops.judge_suite(bad)) == (1, True)


def test_coefficient_parser_reads_cyclotomic_output():
    c = parse_coefficient("-2*z12^3 + z12 - 1/2", 12)
    assert c == R.Cyc(12, [Fraction(-1, 2), 1, 0, -2])


def test_self_time_excludes_children_and_coefficient_work():
    lines = [
        {"proc": 1, "id": 0, "name": "dsl.eval_expr", "start": 0.0, "end": 10.0, "parent": -1,
         "op": 0, "err": False, "coeff_s": 1.0, "n": 0},
        {"proc": 1, "id": 1, "name": "series.mul", "start": 2.0, "end": 6.0, "parent": 0,
         "op": 0, "err": False, "coeff_s": 3.0, "n": 7},
        {"proc": 1, "counters": {"mul": 5, "mul_s": 4.0}},
    ]
    m = layer_metrics(lines)
    assert m["dsl.eval_expr.self_s"] == 5.0
    assert m["series.mul.self_s"] == 1.0
    assert m["series.mul.products"] == 7 and m["coeff.mul.calls"] == 5
