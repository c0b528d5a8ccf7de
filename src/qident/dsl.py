"""Expression language for exact q-series work.

The surface syntax is plain infix arithmetic over rational literals, bound
symbols, and a fixed set of named functions (theta products, Appell-Lerch
sums, Eulerian series). Precedence is ^ then unary minus then * / then + -.
There is no implicit multiplication: write 2*q, not 2q. Exponents after ^
are integer literals, or parenthesized fractions when the base is a pure
power of q; a power of any other base counts with the powers around it,
and their product is at most MAX_POWER in size.

parse/print round-trip structurally; eval is bottom-up and keeps monomial
subexpressions exact for as long as possible so that function arguments
(which must be monomials) never pass through a truncated series.

The paper's fixed combinations (Ktilde, Htilde and their other forms,
mcorr, msplit, g_appell) and g_sum, g through its Eulerian sum, are
definitions: exact argument checks, then an expression over the core
functions with the integer arguments spliced into its text and the
monomial ones bound as its symbols, parsed once per text and evaluated
in place at the caller's order.  A side is evaluated under the one
precision loop, special.ensure_prec, and its root and each quotient and
power inside it, a definition's text included, are read through
special.memo_exact, so sides that share a node compute it once.
msplit and g_appell read their Appell-Lerch sums as the row mj, m without
its theta divisor, and divide each theta that several terms share once,
after the sum.  msplit's depth, the number of terms of its text, is at
most MAX_SPLIT.

The function registry holds every row of eulerian.FORMS and
eulerian.BILATERAL, each read by special.read_row, and J, JB and Jm,
which read the row j at q^a or -q^a, beside the constants and the
definitions; by one rule, an entry whose last argument is a base may
leave it out, meaning q.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial
from math import lcm, prod
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from .coeff import csc_pi, sin_pi, zeta_power
from .errors import EvalError, ParseError
from .eulerian import BILATERAL, FORMS, need_a_below_c, need_theta_nonzero
from .record import Record
from .series import (
    PAD_LIMIT,
    Monomial,
    QSeries,
    _as_frac,
    from_monomial,
    series_add,
    series_div,
    series_mul,
    series_neg,
    series_pow,
    series_shift,
    series_sub,
    series_truncate,
    zero_series,
)
from . import special
from .special import memo_exact, read_row

Rat = Union[int, Fraction]


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Lit(Record):
    __slots__, _fields = (), ("value",)


class Sym(Record):
    __slots__, _fields = (), ("name",)


class Inf(Record):
    __slots__ = ()


class Call(Record):
    __slots__, _fields = (), ("name", "args")


class Neg(Record):
    __slots__, _fields = (), ("a",)


class _Binary(Record):
    """a op b; each operator is its own type, so Add(a, b) != Sub(a, b)."""

    __slots__, _fields = (), ("a", "b")


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(Record):
    __slots__, _fields = (), ("base", "expo")


Expr = Union[Lit, Sym, Inf, Call, Neg, Add, Sub, Mul, Div, Pow]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------


_Tok = namedtuple("_Tok", "kind text line col")

_PUNCT = set("+-*/^(),;")
_DIGITS = set("0123456789")  # str.isdigit also admits digits int() rejects, such as '²'


def _tokenize(text: str) -> List[_Tok]:
    toks: List[_Tok] = []
    line, col, i, n = 1, 1, 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if ch in " \t\r":
            col, i = col + 1, i + 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            toks.append(_Tok("num", text[i:j], line, col))
            col, i = col + (j - i), j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("name", text[i:j], line, col))
            col, i = col + (j - i), j
            continue
        if ch in _PUNCT:
            toks.append(_Tok(ch, ch, line, col))
            col, i = col + 1, i + 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("end", "end of input", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_MAX_DEPTH = 100


class _Parser:
    def __init__(self, toks: List[_Tok]):
        self.toks = toks
        self.i = 0
        self.depth = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def advance(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text!r}", t.line, t.col)
        return self.advance()

    def expr(self) -> Expr:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            t = self.peek()
            raise ParseError("expression nested too deeply", t.line, t.col)
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        self.depth -= 1
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.unary()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def unary(self) -> Expr:
        if self.peek().kind == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind != "^":
            return base
        self.advance()
        node = Pow(base, self.exponent())
        t = self.peek()
        if t.kind == "^":
            raise ParseError("chained '^' needs parentheses", t.line, t.col)
        return node

    def exponent(self) -> Fraction:
        t = self.peek()
        if t.kind == "num":
            self.advance()
            return Fraction(int(t.text))
        if t.kind == "-":
            self.advance()
            u = self.expect("num")
            return -Fraction(int(u.text))
        if t.kind == "(":
            self.advance()
            sign = 1
            if self.peek().kind == "-":
                self.advance()
                sign = -1
            num = int(self.expect("num").text)
            den = 1
            if self.peek().kind == "/":
                slash = self.advance()
                den = int(self.expect("num").text)
                if den == 0:
                    raise ParseError("zero denominator in exponent", slash.line, slash.col)
            self.expect(")")
            return Fraction(sign * num, den)
        raise ParseError("expected an integer or (p/q) fraction after '^'", t.line, t.col)

    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "num":
            self.advance()
            return Lit(Fraction(int(t.text)))
        if t.kind == "name":
            self.advance()
            if self.peek().kind == "(":
                return self.call(t)
            if t.text == "inf":
                return Inf()
            return Sym(t.text)
        if t.kind == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        if t.kind == "end":
            raise ParseError("unexpected end of input", t.line, t.col)
        raise ParseError(f"unexpected {t.text!r}", t.line, t.col)

    def call(self, name: _Tok) -> Expr:
        if name.text not in FUNCTIONS:
            raise ParseError(f"unknown function {name.text!r}", name.line, name.col)
        self.expect("(")
        args: List[Expr] = []
        if self.peek().kind != ")":
            args.append(self.expr())
            while self.peek().kind in (",", ";"):
                self.advance()
                args.append(self.expr())
        self.expect(")")
        arities = sorted(FUNCTIONS[name.text])
        if len(args) not in arities:
            want = " or ".join(str(a) for a in arities)
            raise ParseError(
                f"{name.text} takes {want} argument(s), got {len(args)}",
                name.line,
                name.col,
            )
        return Call(name.text, tuple(args))


def parse(text: str) -> Expr:
    """Parse a source string into an Expr, or raise ParseError with position."""
    p = _Parser(_tokenize(text))
    e = p.expr()
    t = p.peek()
    if t.kind != "end":
        raise ParseError(f"unexpected trailing {t.text!r}", t.line, t.col)
    return e


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def _fmt_expo(v: Fraction) -> str:
    if v.denominator == 1 and v >= 0:
        return str(v.numerator)
    if v.denominator == 1:
        return f"({v.numerator})"
    return f"({v.numerator}/{v.denominator})"


def _render(e: Expr, level: int) -> str:
    s, p = _render_raw(e)
    return f"({s})" if p < level else s


def _render_raw(e: Expr) -> Tuple[str, int]:
    if isinstance(e, Lit):
        return str(e.value.numerator), 5
    if isinstance(e, Sym):
        return e.name, 5
    if isinstance(e, Inf):
        return "inf", 5
    if isinstance(e, Call):
        return f"{e.name}({', '.join(_render(a, 1) for a in e.args)})", 5
    if isinstance(e, Add):
        return f"{_render(e.a, 1)} + {_render(e.b, 2)}", 1
    if isinstance(e, Sub):
        return f"{_render(e.a, 1)} - {_render(e.b, 2)}", 1
    if isinstance(e, Mul):
        return f"{_render(e.a, 2)}*{_render(e.b, 3)}", 2
    if isinstance(e, Div):
        return f"{_render(e.a, 2)}/{_render(e.b, 3)}", 2
    if isinstance(e, Neg):
        return f"-{_render(e.a, 4)}", 3
    if isinstance(e, Pow):
        return f"{_render(e.base, 5)}^{_fmt_expo(e.expo)}", 4
    raise TypeError(f"not an Expr: {e!r}")


def print_expr(e: Expr) -> str:
    """Canonical source form; parse(print_expr(e)) == e."""
    return _render(e, 1)


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------

Value = Union[Monomial, QSeries]


def _to_series(v: Value, order: Fraction) -> QSeries:
    return v if isinstance(v, QSeries) else from_monomial(v, order)


def _as_int(name: str, idx: int, arg: Expr, ev: Callable[[Expr], Value]) -> int:
    sign = 1
    while isinstance(arg, Neg):
        sign, arg = -sign, arg.a
    if isinstance(arg, Lit) and arg.value.denominator == 1:
        return sign * int(arg.value)
    raise EvalError(f"argument {idx} of {name} must be an integer literal")


def _as_base(name: str, idx: int, arg: Expr, ev: Callable[[Expr], Value]) -> int:
    if isinstance(arg, Sym) and arg.name == "q":
        return 1
    if isinstance(arg, Pow) and isinstance(arg.base, Sym) and arg.base.name == "q":
        e = arg.expo
        if e.denominator == 1 and e > 0:
            return int(e)
    raise EvalError(f"argument {idx} of {name} must be q or q^p with p a positive integer")


def _as_monomial(name: str, idx: int, arg: Expr, ev: Callable[[Expr], Value]) -> Monomial:
    v = ev(arg)
    if isinstance(v, Monomial):
        return v
    raise EvalError(f"argument {idx} of {name} must reduce to a monomial")


# each argument kind's reader: (function name, argument index, argument,
# its evaluator) -> value; "n" is an integer or inf, read as None
_READERS: Dict[str, Callable[..., object]] = {
    "x": _as_monomial,
    "p": _as_base,
    "i": _as_int,
    "n": lambda name, idx, arg, ev: None if isinstance(arg, Inf) else _as_int(name, idx, arg, ev),
}


def _pad(order: Fraction, asked: Fraction, loss: Rat) -> Fraction:
    """order + loss, so a shift by q^(-loss) still covers order, while that
    stays within PAD_LIMIT of asked; order otherwise, which ensure_prec refuses."""
    if loss > 0 and order + loss - asked <= PAD_LIMIT:
        return order + loss
    return order


def _factors(e: Expr) -> List[Expr]:
    """The operands of a chain of *; any other expression, a power among
    them, is one factor."""
    if isinstance(e, Mul):
        return _factors(e.a) + _factors(e.b)
    return [e]


def _times(v: Value, m: Monomial) -> Value:
    """v times the monomial m, a monomial while v is one."""
    return v * m if isinstance(v, Monomial) else series_shift(v, m)


@lru_cache(maxsize=1024)
def _symbols(e: Expr) -> Tuple[str, ...]:
    """The names e reads from a binding, sorted; q is never bound."""
    if isinstance(e, Sym):
        return () if e.name == "q" else (e.name,)
    kids = e.args if isinstance(e, Call) else e._key
    return tuple(sorted({s for k in kids if isinstance(k, Record) for s in _symbols(k)}))


def _ev(e: Expr, order: Fraction, binding: Dict[str, Monomial], asked: Fraction, power: int = 1) -> Value:
    """The value of e below q^order, a monomial while it stays one; power
    is the product of the powers around e, which _check_power counts with
    each power inside it.  A quotient or power is read through _node,
    which keeps what _build makes of it."""
    if isinstance(e, Lit):
        if e.value == 0:
            return zero_series(order)
        return Monomial.make(e.value, 0)
    if isinstance(e, Sym):
        if e.name == "q":
            return Monomial.make(1, 1)
        if e.name in binding:
            return binding[e.name]
        raise EvalError(f"unbound symbol {e.name!r}")
    if isinstance(e, Inf):
        raise EvalError("'inf' is only valid as the last argument of poch")
    if isinstance(e, Neg):
        v = _ev(e.a, order, binding, asked, power)
        return -v if isinstance(v, Monomial) else series_neg(v)
    if isinstance(e, (Add, Sub)):
        return (series_add if isinstance(e, Add) else series_sub)(
            _to_series(_ev(e.a, order, binding, asked, power), order),
            _to_series(_ev(e.b, order, binding, asked, power), order),
        )
    if isinstance(e, Mul):
        va = _ev(e.a, order, binding, asked, power)
        # only a monomial on the left pads the series on its right
        vb = _ev(e.b, _pad(order, asked, -va.expo) if isinstance(va, Monomial) else order,
                 binding, asked, power)
        if isinstance(vb, Monomial):
            return _times(va, vb)
        return _times(vb, va) if isinstance(va, Monomial) else series_mul(va, vb)
    if isinstance(e, (Div, Pow)):
        return _node(e, order, binding, asked, power)
    if isinstance(e, Call):
        return _call(e, order, binding, asked)
    raise TypeError(f"not an Expr: {e!r}")


def _build(e: Expr, order: Fraction, binding: Dict[str, Monomial], asked: Fraction, power: int) -> Value:
    """The value of the quotient or power e, or of a side's root, as _ev
    gives it; _node keeps it.

    A / B shifts A by the product of B's monomial _factors, padded as _pad
    says, and divides it once by each series factor, the fewest terms
    first, so a factor b^k is one division by b^k: with v1, v2, va the
    valuations of b1, b2, a, series_div makes (a / b1) / b2 exact below
    min(a.prec - v1 - v2, b1.prec - 2 v1 - v2 + va, b2.prec - v1 - 2 v2 +
    va), just as it makes a / (b1 b2).  b^k, k >= 0, is a monomial's
    power or series_pow's, and b^-k is 1 / b^k, one division by b^k."""
    if isinstance(e, Div):
        vals = [_ev(f, order, binding, asked, power) for f in _factors(e.b)]
        monos = [v for v in vals if isinstance(v, Monomial)]
        out = _ev(e.a, _pad(order, asked, sum(m.expo for m in monos)), binding, asked, power)
        if monos:
            out = _times(out, prod(monos[1:], start=monos[0]).inv())
        for b in sorted((v for v in vals if isinstance(v, QSeries)), key=QSeries.term_count):
            out = series_div(_to_series(out, order), b)
        return out
    if isinstance(e, Pow) and e.expo.denominator == 1:
        if e.expo < 0:
            return _build(Div(Lit(Fraction(1)), Pow(e.base, -e.expo)), order, binding, asked, power)
        k = int(e.expo)
        v = _ev(e.base, order, binding, asked, power * max(k, 1))
        _check_power(v, power * k)
        return v**k if isinstance(v, Monomial) else series_pow(v, k)
    if isinstance(e, Pow):
        v = _ev(e.base, order, binding, asked, power)
        if isinstance(v, Monomial) and v.is_q_power():
            return Monomial.make(1, v.expo * e.expo)
        raise EvalError("a fractional exponent requires a pure power of q as base")
    return _ev(e, order, binding, asked, power)


def _node(e: Expr, order: Fraction, binding: Dict[str, Monomial], asked: Fraction, power: int) -> Value:
    """_build(e, ...) read through special.memo_exact, keyed by e, order,
    asked, power and the monomials bound to e's _symbols."""
    return memo_exact(e, (order, asked, power, *map(binding.get, _symbols(e))),
                      _build, e, order, binding, asked, power)


def _check_power(v: Value, k: int) -> None:
    """Refuse v^k for |k| past MAX_POWER unless v is a pure power of q, k
    being the product of v's own power and every power around it: nested
    powers count as one, a divisor's and a quotient's among them, and so
    refuse before the inner power is expanded."""
    if abs(k) > MAX_POWER and not (isinstance(v, Monomial) and v.is_q_power()):
        raise EvalError(f"power {k} exceeds MAX_POWER = {MAX_POWER} for a base other than q^e")


def _call(e: Call, order: Fraction, binding: Dict[str, Monomial], asked: Fraction) -> Value:
    kinds, fn = FUNCTIONS[e.name][len(e.args)]
    ev = partial(_ev, order=order, binding=binding, asked=asked)
    vals = [_READERS[kind](e.name, idx, arg, ev) for idx, (kind, arg) in enumerate(zip(kinds, e.args), 1)]
    try:
        return fn(vals, order)
    except ValueError as exc:
        raise EvalError(f"{e.name}: {exc}") from exc


# the order a check or an expansion runs at when none is given
DEFAULT_ORDER = Fraction(50)

# the deepest order an evaluation may be asked for; the deepest in use is 200
MAX_ORDER = 10000

# the largest |k| in ^k over a base that is not a pure power of q; the largest in use is 30
MAX_POWER = 1000

# the deepest msplit: its text holds n Appell-Lerch sums and n theta
# quotients; the deepest in use is 4
MAX_SPLIT = 16


def eval_expr(
    e: Expr, order: Rat, binding: Optional[Dict[str, Monomial]] = None
) -> QSeries:
    """Evaluate to a truncated series with every exponent below order covered.

    A / B divides once by each factor of B's chain of *, a power b^k being
    one factor, at the precision of one division by B, and b^-k is 1 / b^k
    (see _build); the right factor of c*q^v * B and the
    dividend of A / (c*q^-v * B), v < 0, are evaluated at order - v up front,
    within PAD_LIMIT (a monomial on the right of * is not: write it first);
    reruns at a deeper working order win back what other shifts and
    divisions cost.  An order past MAX_ORDER, or a power past MAX_POWER of
    anything but a pure power of q, nested powers multiplied, raises
    EvalError.

    Each build of special.ensure_prec, the side's one precision loop,
    reads the root through _node at its working order, as any node is
    read, and the result is cut at order, so a repeated evaluation of the
    same side under the same binding computes nothing again.
    """
    if not isinstance(e, Expr):
        raise TypeError(f"not an Expr: {e!r}")
    b, asked = dict(binding or {}), _as_frac(order)
    if asked > MAX_ORDER:
        raise EvalError(f"order {asked} exceeds MAX_ORDER = {MAX_ORDER}")
    return series_truncate(special.ensure_prec(
        lambda work: _to_series(_node(e, work, b, asked, 1), work), asked), asked)


def fold_monomial(e: Expr) -> Monomial:
    """Reduce a closed expression to an exact monomial, or raise EvalError."""
    v = _ev(e, Fraction(1), {}, Fraction(1))
    if isinstance(v, Monomial):
        return v
    raise EvalError("expression does not reduce to a monomial")


def parse_binding(text: str) -> Tuple[str, Monomial]:
    """Parse 'name=<monomial expression>' as used by bind: lines and --bind."""
    name, eq, val = text.partition("=")
    name = name.strip()
    if not eq:
        raise EvalError(f"binding {text!r} must look like name=monomial")
    if not name.isidentifier():
        raise EvalError(f"invalid symbol name {name!r}")
    if name in ("q", "inf"):
        raise EvalError(f"cannot bind reserved name {name!r}")
    return name, fold_monomial(parse(val))


def parse_bindings(items: Iterable[str]) -> Dict[str, Monomial]:
    """Parse 'name=<monomial expression>' items, as parse_binding does, into
    one binding; a name bound twice raises ValueError."""
    binding: Dict[str, Monomial] = {}
    for item in items:
        name, mono = parse_binding(item.strip())
        if name in binding:
            raise ValueError(f"symbol {name!r} bound twice")
        binding[name] = mono
    return binding


# ---------------------------------------------------------------------------
# Function registry
# ---------------------------------------------------------------------------


def _trig(fn: Callable, v: List[object]) -> Monomial:
    """sin or csc of pi a/c, whose own check refuses all but 0 < a < c."""
    a, c = v
    return Monomial(fn(a, c, lcm(4, 2 * c)), Fraction(0))


def _zeta(v: List[object], order: Fraction) -> Monomial:
    M, k = v
    if M < 1:
        raise EvalError("zeta(M, k) needs M >= 1")
    return Monomial(zeta_power(M, k), Fraction(0))


# ---------------------------------------------------------------------------
# Definitions: the paper's combinations as expressions over the core
# ---------------------------------------------------------------------------

Source = Tuple[str, Dict[str, Monomial]]


@lru_cache(maxsize=128)
def _parsed(text: str) -> Expr:
    """parse(text), once per definition text: a text holds only a
    definition's integer arguments, its monomial ones being bound."""
    return parse(text)


def _definition(name: str, source: Callable[..., Source]):
    """The function whose value is the expression source(*args) returns,
    evaluated in place at the caller's order after the checks source runs;
    a usage error from either names the definition."""

    def run(v: List[object], order: Fraction) -> Value:
        try:
            text, binding = source(*v)
            return _ev(_parsed(text), order, binding, order)
        except (EvalError, ValueError) as exc:
            raise EvalError(f"{name}: {exc}") from exc

    return run


def _q(e: Rat) -> str:
    return f"q^({e})"


def _ktilde(a: int, c: int) -> Source:
    """csc(pi a/c)/4 q^(-1/8) K'(zeta_c^a) + sin(pi a/c) q^(-1/8) K''(zeta_c^a)."""
    need_a_below_c(a, c)
    w = f"zeta({c},{a})"
    return f"cscpi({a},{c})/4*q^(-1/8)*Kp({w}) + sinpi({a},{c})*q^(-1/8)*Kpp({w})", {}


def _ktilde_closed(a: int, c: int) -> Source:
    """-(i zeta_2c^a / 2) q^(-1/8) J_{1,2}^2 / j(zeta_c^a; q)."""
    return f"-zeta(4,1)*zeta({2 * c},{a})/2*q^(-1/8)*(J(1,2)^2/j(zeta({c},{a}), q))", {}


def _htilde_shift(a: int, c: int) -> str:
    if c == 0:
        raise ValueError("need c != 0")
    ac = Fraction(a, c)
    return _q(ac * (1 - ac))


def _htilde(a: int, c: int) -> Source:
    """q^((a/c)(1-a/c)) (H'(a,c,1) + H'(a,c,-1)), the relative sign forced
    by agreement with the closed form."""
    need_a_below_c(a, c)
    return f"{_htilde_shift(a, c)}*(Hp({a},{c},1) + Hp({a},{c},-1))", {}


def _htilde_closed(a: int, c: int) -> Source:
    """2 q^((a/c)(1-a/c)) J_2^3 / (J_{1,2} j(q^(2a/c); q^2))."""
    return f"2*{_htilde_shift(a, c)}*(Jm(2)^3/(J(1,2)*j({_q(Fraction(2 * a, c))}, q^2)))", {}


def _htilde_bilateral(a: int, c: int) -> Source:
    """q^((a/c)(1-a/c)) (H(a,0,c) - H(a,c/2,c)), for even c."""
    if c % 2:
        raise ValueError("the split-difference route needs even c")
    need_a_below_c(a, c)
    return f"{_htilde_shift(a, c)}*(Habc({a},0,{c}) - Habc({a},{c // 2},{c}))", {}


def _mcorr(x: Monomial, p: int, z0: Monomial, z1: Monomial) -> Source:
    """m(x,q^p,z1) - m(x,q^p,z0) as one theta quotient, every theta at base q^p."""
    for mono, name in ((z0, "z0"), (z1, "z1"), (x * z0, "x z0"), (x * z1, "x z1")):
        need_theta_nonzero(mono, p, f"j({name}; q^p)")
    b = f"q^{p}"
    text = (f"z0*(j({b}, q^{3 * p})^3*j(z1/z0, {b})*j(x*z0*z1, {b})"
            f"/(j(z0, {b})*j(z1, {b})*j(x*z0, {b})*j(x*z1, {b})))")
    return text, {"x": x, "z0": z0, "z1": z1}


def _msplit(x: Monomial, p: int, z: Monomial, zp: Monomial, n: int) -> Source:
    """Right side of the n-way splitting of m(x, q^p, z): n Appell-Lerch
    sums at base q^(p n^2) plus a theta-quotient correction.  The comma in
    the source identity's theta denominator is read as a product.  A theta
    that several terms share divides their sum once: the n sums, read as
    mj, and the correction go over the one j(z'; q^(p n^2)), and the n
    pieces over the one j(-q^(p binom(n,2)) (-x)^n z'; q^(pn)), n + 3
    divisions in all.  The lacunary cube j(q^(pn); q^(3pn))^3 is multiplied
    into the sum of the pieces before the shared thetas divide it: dividing
    first would make the quotient dense and the product dense x dense."""
    if n < 1:
        raise ValueError("splitting depth must be at least 1")
    if n > MAX_SPLIT:
        raise ValueError(f"splitting depth {n} exceeds MAX_SPLIT = {MAX_SPLIT}")
    b, xn = n * (n - 1) // 2, (-x) ** n
    need_theta_nonzero(x * z, p, "j(xz; q^p)")
    need_theta_nonzero(zp, p * n * n, "j(z'; q^(p n^2))")
    need_theta_nonzero(
        (-(xn * zp)).times_q(p * b), p * n, "j(-q^(binom(n,2)) (-x)^n z'; q^(p n))"
    )
    for r in range(n):
        need_theta_nonzero(z.times_q(p * r), p * n, f"j(q^{r} z; q^(p n))")
    qn, qn2, pw = f"q^{p * n}", f"q^{p * n * n}", f"(-x)^{n}"
    split = " + ".join(
        f"{_q(-p * r * (r + 1) // 2)}*(-x)^{r}*mj(-{_q(p * (b - n * r))}*{pw}, {qn2}, zp)"
        for r in range(n)
    )
    pieces = " + ".join(
        f"{_q(p * r * (r - 1) // 2)}*(-x*z)^{r}*(j(-{_q(p * (b + r))}*{pw}*z*zp, {qn})"
        f"*j({_q(p * n * r)}*z^{n}/zp, {qn2})/j({_q(p * r)}*z, {qn}))"
        for r in range(n)
    )
    text = (f"({split} + zp*j({qn}, q^{3 * p * n})^3*({pieces})"
            f"/(j(-{_q(p * b)}*{pw}*zp, {qn})*j(x*z, q^{p})))/j(zp, {qn2})")
    return text, {"x": x, "z": z, "zp": zp}


def _g_sum(x: Monomial, p: int) -> Source:
    """g(x, q^p) = x^(-1) (-1 + g_euler(x, q^p)), g's Eulerian sum."""
    return f"x^(-1)*(-1 + g_euler(x, q^{p}))", {"x": x}


def _g_appell(x: Monomial, p: int) -> Source:
    """g(x, q^p) = -x^(-1) m(q^(2p) x^(-3), q^(3p), x^2) - x^(-2) m(q^p x^(-3), q^(3p), x^2),
    the two sums mj's over their one theta j(x^2; q^(3p)), which is checked
    up front with m's message."""
    need_theta_nonzero(x * x, 3 * p, "j(z; q^p)")
    text = (f"(-x^(-1)*mj(q^{2 * p}*x^(-3), q^{3 * p}, x^2)"
            f" - x^(-2)*mj(q^{p}*x^(-3), q^{3 * p}, x^2))/j(x^2, q^{3 * p})")
    return text, {"x": x}


Entry = Tuple[Tuple[str, ...], Callable[[List[object], Fraction], Value]]

# name: (argument kinds, (argument values, order) -> value), every row of
# FORMS and BILATERAL read by special.read_row among them; J(a, m) =
# j(q^a; q^m), JB(a, m) = j(-q^a; q^m) and Jm(m) = J(m, 3m) read the row j
# directly, with no text to parse
_ENTRIES: Dict[str, Entry] = {
    **{name: (kinds, partial(read_row, name))
       for table in (FORMS, BILATERAL) for name, (kinds, _, _) in table.items()},
    "J": (("i", "i"), lambda v, o: read_row("j", (Monomial.make(1, v[0]), v[1]), o)),
    "JB": (("i", "i"), lambda v, o: read_row("j", (Monomial.make(-1, v[0]), v[1]), o)),
    "Jm": (("i",), lambda v, o: read_row("j", (Monomial.make(1, v[0]), 3 * v[0]), o)),
    "mcorr": (("x", "p", "x", "x"), _definition("mcorr", _mcorr)),
    "msplit": (("x", "p", "x", "x", "i"), _definition("msplit", _msplit)),
    "g_sum": (("x", "p"), _definition("g_sum", _g_sum)),
    "g_appell": (("x", "p"), _definition("g_appell", _g_appell)),
    "Ktilde": (("i", "i"), _definition("Ktilde", _ktilde)),
    "Ktilde_closed": (("i", "i"), _definition("Ktilde_closed", _ktilde_closed)),
    "Htilde": (("i", "i"), _definition("Htilde", _htilde)),
    "Htilde_closed": (("i", "i"), _definition("Htilde_closed", _htilde_closed)),
    "Htilde_bilateral": (("i", "i"), _definition("Htilde_bilateral", _htilde_bilateral)),
    "sinpi": (("i", "i"), lambda v, o: _trig(sin_pi, v)),
    "cscpi": (("i", "i"), lambda v, o: _trig(csc_pi, v)),
    "zeta": (("i", "i"), _zeta),
}


def _arities(kinds: Tuple[str, ...], fn) -> Dict[int, Entry]:
    """fn by its arity, and when its last argument is a base, also without
    it, the base left out meaning q."""
    if kinds[-1:] != ("p",):
        return {len(kinds): (kinds, fn)}
    return {len(kinds): (kinds, fn), len(kinds) - 1: (kinds[:-1], lambda v, o: fn(v + [1], o))}


FUNCTIONS: Dict[str, Dict[int, Entry]] = {
    name: _arities(kinds, fn) for name, (kinds, fn) in _ENTRIES.items()
}
