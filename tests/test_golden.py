"""Behaviour contract: `qident expand` output, byte for byte.

tests/golden/expand.txt holds one block per call: the command line, its
exit code, its stdout lines (prefixed "> ") and its stderr lines
(prefixed "! ").  Every entry of the expression language appears at
least once at orders 10-30; the derived combinations appear at several
(a, c) and under bindings, with their pole and bad-argument cases.
tests/golden/suite.txt is `run_suite().render()` at the stated orders
with the timing field stripped; test_acceptance compares it.  The deep
pair pins the same at depth: tests/golden/expand_deep.txt holds one block
per builder family at orders 40-200, and tests/golden/suite_deep.txt is
`run_suite(order=100).render()`, timing stripped.  tests/golden/sides.txt
pins the value of every side the suite evaluates: one line per (case,
binding, side) at the stated order and at order 100, giving the
precision reached, the grid, the field, the term count and a SHA-256 of
the coefficients in canonical form, or the class of the error the side
raises.

Regenerate all five files with

    PYTHONPATH=src python tests/test_golden.py

and list every changed line of any of them in CHANGES.md.
"""

import hashlib
import io
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

from qident.cli import main
from qident.dsl import FUNCTIONS, Call, eval_expr, parse
from qident.errors import ParseError, QIdentError
from qident.record import Record

GOLDEN = Path(__file__).parent / "golden"
TIMING = re.compile(r" \[\d+\.\d+s\]$", re.M)

_ROOTS = ("zeta(3,1)", "-1", "zeta(5,2)")
_M_BINDS = (
    "x=2*q z=-q^(1/2)",
    "x=zeta(3,1)*q^(1/2) z=-1",
    "x=-q^(-1) z=-q^(1/2)",
)
_MCORR_BINDS = (
    "x=2*q z0=-1 z1=q^(1/2)",
    "x=zeta(3,1)*q z0=-1 z1=-q^(1/3)",
    "x=-q^2 z0=zeta(5,1) z1=-q^(1/2)",
    "x=3 z0=2 z1=-q",
    "x=-q^(-1) z0=2 z1=zeta(4,1)",
    # poles: each theta factor of the denominator in turn
    "x=2*q z0=1 z1=-q",
    "x=2*q z0=-1 z1=q",
    "x=q^(-1) z0=q z1=-1",
    "x=q^(-1) z0=-1 z1=q^2",
)
_MSPLIT_BINDS = (
    "x=2*q z=-1 zp=-q",
    "x=zeta(3,1) z=-1 zp=-q^(1/3)",
    "x=q^(1/2) z=2 zp=-q",
    "x=-q^(-1) z=zeta(4,1) zp=-1",
    # poles: j(xz), j(z'), the shared denominator, j(q^r z)
    "x=q^(-1)*zeta(3,1) z=q*zeta(3,2) zp=-q",
    "x=2*q z=-1 zp=1",
    "x=1 z=-1 zp=-q",
    "x=2*q z=q^(-1) zp=-q",
)
_G_ARGS = ("zeta(3,1)", "2*q", "q^(1/3)", "-q^(-1/2)", "-1", "1", "q", "q^(3/2)")
_PAIRS = ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 5), (2, 5), (1, 6), (5, 6), (2, 7))
_BAD_PAIRS = ((0, 2), (2, 2), (3, 2), (-1, 3), (0, 3), (3, 3), (4, 3), (0, 4))


def _calls():
    """(expression, order, bindings) of every golden call."""
    out = []

    def add(expr, order=20, binds=""):
        out.append((expr, order, binds))

    for x in ("2*q", "zeta(3,1)*q^(1/2)", "-1", "q"):
        add("j(x, q)", 20, f"x={x}")
    add("j(x, q^2)", 15, "x=-q^(1/3)")
    add("j(x)", 20, "x=2*q")
    for a, m in ((1, 2), (1, 3), (2, 5)):
        add(f"J({a},{m})", 25)
    add("JB(1,4)")
    add("JB(0,1)", 10)
    add("Jm(1)", 30)
    add("Jm(2)")
    add("poch(x, q, inf)", 15, "x=2*q^(-1)")
    add("poch(q, q^2, 5)")
    add("poch(zeta(5,2)*q, q, 3)", 10)
    for b in _M_BINDS:
        add("m(x, q, z)", 20, b)
        add("m(x, q^2, z)", 15, b)
    add("m(q, q, q^(-1))", 10)
    add("m(2, q, 1)", 10)
    # j(z; q^p) m(x, q^p, z), defined also where j(z; q^p) vanishes
    for b in _M_BINDS:
        add("mj(x, q, z)", 20, b)
    add("mj(x, q^2, z)", 15, _M_BINDS[0])
    add("mj(2, q, 1)", 10)
    add("mj(q, q, q^(-1))", 10)
    for x in _G_ARGS:
        for name in ("g", "g_sum", "g_appell"):
            add(f"{name}(x)", 20, f"x={x}")
            add(f"{name}(x, q^2)", 12, f"x={x}")
    for name in ("phi", "sigma", "f3", "f0"):
        add(f"{name}()", 30)
        add(f"{name}(q^2)", 20)
    for w in _ROOTS + ("1", "q"):
        add("Kp(w)", 15, f"w={w}")
        add("Kpp(w)", 15, f"w={w}")
        add("bilateral_even(w)", 15, f"w={w}")
        add("bilateral_odd(w)", 15, f"w={w}")
        add("lambert_even(w)", 15, f"w={w}")
        add("lambert_odd(w)", 15, f"w={w}")
        add("rjtp(w)", 15, f"w={w}")
        add("rjtp(w, q^2)", 12, f"w={w}")
    add("Hp(1,3,w)", 15, "w=zeta(3,1)")
    add("Hp(1,2,-1)", 15)
    add("Hp(0,3,1)", 15)
    for args in ("1,0,2", "3,2,7", "1,1,3", "0,1,2"):
        add(f"Habc({args})", 15)
    add("sinpi(1,3)", 10)
    add("cscpi(2,5)", 10)
    add("sinpi(3,3)", 10)
    add("zeta(5,2)", 10)
    add("zeta(0,1)", 10)
    for a, c in _PAIRS + _BAD_PAIRS:
        for name in ("Ktilde", "Ktilde_closed", "Htilde", "Htilde_closed", "Htilde_bilateral"):
            add(f"{name}({a},{c})", 10 if c > 5 else 20)
    add("Ktilde(1,3)", 30)
    add("Htilde(1,4)", 30)
    add("Htilde_closed(2,5)", 30)
    add("q^(-1)*Ktilde(1,4) + Ktilde_closed(3,4)", 15)
    for base in ("q", "q^2"):
        for b in _MCORR_BINDS:
            add(f"mcorr(x, {base}, z0, z1)", 15, b)
        for n in range(5):
            for b in _MSPLIT_BINDS:
                add(f"msplit(x, {base}, z, zp, {n})", 10 if n > 2 else 15, b)
    add("msplit(-w, q, -1, -q, 2)", 20, "w=zeta(3,1)")
    add("msplit(-w, q, -1, -q, 2)", 20, "w=-1")
    add("msplit(x, q, z, zp, -1)", 10, "x=2*q z=-1 zp=-q")
    add("msplit(x, q, z, zp, 1/2)", 10, "x=2*q z=-1 zp=-q")
    add("msplit(x, 2, z, zp, 1)", 10, "x=2*q z=-1 zp=-q")
    add("msplit(x, q, z, zp)", 10, "x=2*q z=-1 zp=-q")
    add("mcorr(x, q, z0, 2*q + 1)", 10, "x=2*q z0=-1")
    add("g_appell(x, q^(1/2))", 10, "x=zeta(3,1)")
    add("-q^(-4/7)*m(zeta(7,4)*q^(-1/7), q^2, q)", 25)
    add("q^(-3)/Jm(1)", 10)
    for x in ("zeta(3,1)", "2*q", "q^(1/3)", "1"):
        add("g_euler(x)", 20, f"x={x}")
        add("g_euler(x, q^2)", 12, f"x={x}")
    # x and z share the denominator 2: the sum's grid is 1/2, not 1/4
    add("m(x, q, z)", 20, "x=2*q^(1/2) z=-q^(1/2)")
    return out


# one expression per builder family, each at the order it is pinned at
DEEP_CALLS = (
    ("j(-q^(1/2); q)", 200, ""),
    ("1/Jm(1)", 200, ""),
    ("q^(-3)/Jm(1)", 40, ""),
    ("poch(-q^(1/2), q, inf)", 100, ""),
    ("m(2*q, q, -q^(1/2))", 60, ""),
    ("g(zeta(3,1))", 40, ""),
    ("phi()", 200, ""),
    ("Kp(zeta(5,1))", 60, ""),
    ("Habc(3,2,7)", 40, ""),
    ("Ktilde(1,3)", 40, ""),
    ("Htilde(1,4)", 40, ""),
    ("msplit(2*q, q, -1, -q, 3)", 40, ""),
)

DEEP_ORDER = 100


def argv_of(expr, order, binds):
    argv = ["expand", expr, "--order", str(order)]
    for b in binds.split():
        argv += ["--bind", b]
    return argv


def expand_block(argv):
    """The golden block of one `qident expand` call, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    lines = [f"$ qident {shlex.join(argv)}", f"rc {rc}"]
    lines += [f"> {line}" for line in out.getvalue().splitlines()]
    lines += [f"! {line}" for line in err.getvalue().splitlines()]
    return lines


def golden_blocks(path):
    """[(argv, lines)] of a golden expand file."""
    blocks = []
    for line in path.read_text().splitlines():
        if line.startswith("$ qident "):
            blocks.append((shlex.split(line[len("$ qident "):]), [line]))
        else:
            blocks[-1][1].append(line)
    return blocks


def _called(e):
    """(name, arity) of every call in an expression tree."""
    if isinstance(e, Call):
        yield e.name, len(e.args)
    for field in e._fields:
        child = getattr(e, field)
        for c in child if isinstance(child, tuple) else (child,):
            if isinstance(c, Record):
                yield from _called(c)


def test_every_function_and_arity_has_a_golden_call():
    called = set()
    for expr, _, _ in _calls():
        try:
            called.update(_called(parse(expr)))
        except ParseError:  # the golden arity and syntax errors
            pass
    registry = {(name, arity) for name, arities in FUNCTIONS.items() for arity in arities}
    assert registry - called == set()


def _compare_expand(name, calls):
    blocks = golden_blocks(GOLDEN / name)
    assert [argv for argv, _ in blocks] == [argv_of(*call) for call in calls]
    bad = []
    for argv, want in blocks:
        got = expand_block(argv)
        if got != want:
            g, w = next((g, w) for g, w in zip_longest(got, want) if g != w)
            bad.append(f"{want[0]}: got {g!r}, want {w!r}")
    assert not bad, "\n".join(bad)


def test_expand_matches_golden():
    _compare_expand("expand.txt", _calls())


def test_deep_expand_matches_golden():
    _compare_expand("expand_deep.txt", DEEP_CALLS)


def test_deep_suite_matches_golden():
    from qident.identity import run_suite

    got = TIMING.sub("", run_suite(order=DEEP_ORDER).render())
    assert got.splitlines() == (GOLDEN / "suite_deep.txt").read_text().splitlines()


def _canonical(s):
    """The coefficients of s as text: each exponent a reduced fraction and
    each coefficient's entries over Q(zeta_M) in lowest terms, so a change
    of storage that keeps the value keeps the text."""
    return ";".join(f"{Fraction(k, s.denom)}:{','.join(map(str, c.coeffs))}"
                    for k, c in s.sorted_terms())


def side_lines():
    """One line per (case, binding, side) of the built-in corpus at its
    stated order and at DEEP_ORDER: the precision, grid, field, term count
    and a SHA-256 of the canonical coefficients, or the error's class."""
    from qident.identity import builtin_cases

    lines = []
    for case in builtin_cases():
        for binding, source in zip(case.sample_bindings, case.binding_sources):
            for order in (case.default_order, Fraction(DEEP_ORDER)):
                for side in ("lhs", "rhs"):
                    head = f"{case.id}\t{source or '-'}\t{side}\t{order}"
                    try:
                        s = eval_expr(getattr(case, side), order, binding)
                    except QIdentError as exc:
                        lines.append(f"{head}\traises {type(exc).__name__}")
                        continue
                    digest = hashlib.sha256(_canonical(s).encode()).hexdigest()
                    lines.append(f"{head}\tprec {s.prec_order()} grid {s.denom} field {s.field_order}"
                                 f" terms {s.term_count()} sha256 {digest}")
    return lines


def test_sides_match_golden():
    want = (GOLDEN / "sides.txt").read_text().splitlines()
    got = side_lines()
    assert len(got) == len(want)
    bad = [f"want {w}\ngot  {g}" for g, w in zip(got, want) if g != w]
    assert not bad, f"{len(bad)} sides differ:\n" + "\n".join(bad)


if __name__ == "__main__":
    from qident.identity import run_suite

    for name, calls in (("expand.txt", _calls()), ("expand_deep.txt", DEEP_CALLS)):
        lines = []
        for call in calls:
            lines += expand_block(argv_of(*call))
        (GOLDEN / name).write_text("\n".join(lines) + "\n")
    for name, order in (("suite.txt", None), ("suite_deep.txt", DEEP_ORDER)):
        suite = TIMING.sub("", run_suite(order=order).render())
        (GOLDEN / name).write_text(suite + "\n")
    (GOLDEN / "sides.txt").write_text("\n".join(side_lines()) + "\n")
