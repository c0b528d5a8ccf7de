"""Command line front end.

Three subcommands:

    qident expand "phi(q^2) + 2*sigma()" --order 20
    qident verify mycases.id --order 40 --jobs 4
    qident suite --order 50

expand prints one `q^(k/D): coefficient` line per term. verify and suite
print one report line per (case, binding) and a count summary; they exit 0
only when every verdict matches its expectation, so engineered failures in
a corpus (canaries, forced singularities) do not flip the exit code, while
any surprise does. Exit code 1 means a verification surprise, 2 a usage
problem (bad expression, unreadable file, malformed corpus).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import List, Optional

from .coeff import MAX_COEFF_BITS
from .dsl import DEFAULT_ORDER, eval_expr, parse, parse_bindings
from .errors import CapExceededError, QIdentError
from .eulerian import f_c


def _order_arg(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an order: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError("order must be positive")
    return value


def _field_name(order: int) -> str:
    return "Q" if order == 1 else f"Q(zeta_{order})"


def _cmd_expand(args: argparse.Namespace) -> int:
    binding = parse_bindings(args.bind)
    s = eval_expr(parse(args.expr), args.order, binding)
    bits = max(x.bit_length() for x in (s.den, *(x for col in s.cols for x in col)))
    if bits > MAX_COEFF_BITS:
        raise CapExceededError(f"a coefficient of {bits} bits exceeds MAX_COEFF_BITS = {MAX_COEFF_BITS}")
    print(f"# terms below q^({s.prec_order()}), grid 1/{s.denom}, coefficients in {_field_name(s.field_order)}")
    for k, c in s.sorted_terms():
        print(f"q^({k}/{s.denom}): {c}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """verify's corpus file, or suite's built-in corpus after its metadata line."""
    from .identity import parse_corpus, run_suite  # only here: expand needs no identity
    cases = None
    if args.command == "verify":
        with open(args.corpus, encoding="utf-8") as fh:
            cases = parse_corpus(fh.read())
    else:
        print("# metadata: level constant f_c = 2c/gcd(c,4): "
              + " ".join(f"f_{c}={f_c(c)}" for c in (2, 3, 4, 5)))
    report = run_suite(order=args.order, jobs=args.jobs, cases=cases)
    print(report.render())
    return 0 if report.ok() else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qident", description="exact q-series identity checker"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="print the truncated expansion of an expression")
    p.add_argument("expr", help="expression to expand")
    p.add_argument("--order", type=_order_arg, default=DEFAULT_ORDER,
                   help="exponent bound (integer or fraction, default %(default)s)")
    p.add_argument("--bind", action="append", default=[], metavar="SYM=MONO",
                   help="bind a free symbol to a monomial; repeatable")
    p.set_defaults(func=_cmd_expand)

    checks = argparse.ArgumentParser(add_help=False)
    checks.add_argument("--order", type=_order_arg, default=None,
                        help="override every case's order")
    checks.add_argument("--jobs", type=int, default=1, help="parallel workers, at most the CPU count")
    checks.set_defaults(func=_cmd_check)
    p = sub.add_parser("verify", parents=[checks], help="check every identity in a corpus file")
    p.add_argument("corpus", help="path to a corpus file")
    sub.add_parser("suite", parents=[checks], help="check the built-in identity corpus")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (QIdentError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
