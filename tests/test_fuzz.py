"""Grammar fuzzer: every expression ends in exit 0 or exit 2.

Hypothesis draws expressions over dsl.FUNCTIONS, each call drawn by
test_audit's generators, mixed with operators, powers nested up to three
deep and extreme literals, and runs each through `qident expand` in this
process at a small order under a signal.alarm watchdog.  An exception that escapes the
command line, an exit code other than 0 or 2, or a run past the watchdog
fails.  MAX_SPLIT and MAX_WINDOW are lowered, so that a refused input is
refused at once, and the inputs that once ran without end or ended in a
traceback are pinned as examples.
"""

import io
import signal
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qident import dsl, series
from qident.cli import main
from qident.coeff import zeta_power

from test_audit import ENTRIES, _call

WATCHDOG = 10  # seconds for one run

LITERALS = ["0", "1", "-1", "2/3", "1000000007", "q", "q^(-3)", "q^(1/7)", "zeta(12,5)", "sinpi(1,3)"]
POWERS = ["0", "2", "3", "(-1)", "(-2)", "(1/2)", "7", "1000000"]


class Hang(Exception):
    """Raised by the watchdog; the command line lets it through."""


def _alarm(signum, frame):
    raise Hang(f"no exit within {WATCHDOG} s")


def _mono_text(m):
    """A monomial drawn by test_audit, as expression text: its coefficient
    is rational or a root of unity."""
    c = m.coeff
    if c.is_rational():
        coeff = f"({c.rational_value()})"
    else:
        coeff = f"zeta({c.order},{next(k for k in range(c.order) if zeta_power(c.order, k) == c)})"
    return f"{coeff}*q^({m.expo})"


@st.composite
def expressions(draw, binding, depth=0):
    kind = draw(st.sampled_from(["call", "call", "literal", "op", "power"] if depth < 2 else ["call", "literal"]))
    if kind == "literal":
        return draw(st.sampled_from(LITERALS))
    if kind == "call":
        return _call(draw, *draw(st.sampled_from(ENTRIES)), binding)
    a = draw(expressions(binding, depth + 1))
    if kind == "power":
        # up to three powers in a row, which count as one product
        for _ in range(draw(st.integers(1, 3))):
            a = f"({a})^{draw(st.sampled_from(POWERS))}"
        return a
    b = draw(expressions(binding, depth + 1))
    return f"({a}) {draw(st.sampled_from('+-*/'))} ({b})"


@st.composite
def commands(draw):
    binding = {}
    text = draw(expressions(binding))
    binds = [f"{name}={_mono_text(m)}" for name, m in binding.items()]
    return text, draw(st.sampled_from(["1", "3", "6", "7/2"])), binds


def _run(argv):
    """The exit code and standard output of the command line on argv."""
    out, err = io.StringIO(), io.StringIO()
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(WATCHDOG)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    return code, out.getvalue()


def _expand(text, order, binds):
    argv = ["expand", text, "--order", order]
    for b in binds:
        argv += ["--bind", b]
    return _run(argv)[0]


PROBES = [
    ("msplit(2*q, q, -1, -q, 1000)", "10", []),
    ("msplit(2*q, q, -1, -q, 300)", "10", []),
    ("msplit(2*q, q^2, -1, -q^(1/2), 5)", "10", []),
    ("cscpi(1,3)^10000000", "10", []),
    ("(3/2)^1000000*q", "10", []),
    ("(2*q)^100000000", "10", []),
    ("j(2^100000*q)", "10", []),
    ("(0) / ((0)^1000000)", "1", []),
    ("1/(1-q^(1/1000))", "10000", []),
    ("j(q^(1/988027), q)/j(q^(2/988027), q)", "20", []),
    ("(((2+q)^1000)^1000)^1000", "3", []),
    ("((2^1000)^1000)^1000", "3", []),
    ("((2+q)^1000)^15", "2", []),
    ("10^1000*10^1000*10^1000*10^1000*10^1000*q", "2", []),
]


def test_every_expansion_ends_in_exit_0_or_2(monkeypatch):
    monkeypatch.setattr(dsl, "MAX_SPLIT", 4)
    monkeypatch.setattr(series, "MAX_WINDOW", 5000)

    @settings(max_examples=60, deadline=None)
    @given(commands())
    def run(command):
        assert _expand(*command) in (0, 2), command

    for probe in PROBES:
        run = example(probe)(run)
    run()


# corpus stanzas whose verify once ended in CPython's message, with no
# report: a fail verdict's witness past its 4,300-digit limit on int to str
VERIFY_PROBES = [
    "id: big\nlhs: 10^1000*10^1000*10^1000*10^1000*10^1000*q\nrhs: q\norder: 3\n",
]


def test_every_verify_probe_prints_its_report(tmp_path):
    for i, stanza in enumerate(VERIFY_PROBES):
        path = tmp_path / f"probe{i}.id"
        path.write_text(stanza)
        code, out = _run(["verify", str(path)])
        lines = out.splitlines()
        assert code == 1 and len(lines) == 2 and "\tfail\t" in lines[0], out
