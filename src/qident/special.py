"""Classical building blocks: the one reader of every row of
eulerian.FORMS and eulerian.BILATERAL, Pochhammer products, the theta
function j with its J specializations, the Appell-Lerch sum m(x,q,z) and
the universal mock theta function g in its two sums.

All arguments x, z are Monomials c*q^e; the base is a positive rational p
standing for q^p.  Every function takes a target order and returns a
QSeries whose guaranteed precision reaches that order; a construction
whose own division costs precision runs through ensure_prec, which
deepens its working order up to PAD_LIMIT.  An Eulerian series is its
product form, a table of Pochhammer factors that _term_sum turns into
rows, each one series_mul by prod(1 - u) and one series_div by
prod(1 - v), both polynomials built by _poly, and that has_pole reads
its poles off.  A bilateral series is its bilateral_sum form and theta
divisor, whose pole bilateral_pole finds.  read_row reads both kinds, j, m
and g among them, and keeps one memo entry per (row, arguments) in
_theta_cache, a least recently used cache of at most MEMO_LIMIT entries;
g_sum, g's Eulerian sum, shares the memo, and pochhammer, which rebases
its sum, is a term sum of its own.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import lcm
from typing import Callable, Optional, Sequence, Tuple, Union

from .coeff import CycloNumber
from .errors import CapExceededError, NonGenericError
from .eulerian import BILATERAL, FORMS
from .series import (
    Monomial,
    QSeries,
    bilateral_pole,
    bilateral_sum,
    const_series,
    from_monomial,
    grid_prec,
    series_div,
    series_mul,
    series_shift,
    series_sub,
    series_sum,
    series_truncate,
    zero_series,
)

Rat = Union[int, Fraction]


def _fr(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# The most a construction may pad its working order by, in powers of q.
PAD_LIMIT = 1000


def _too_deep(deficit: Fraction) -> CapExceededError:
    return CapExceededError(f"a precision deficit of {deficit} exceeds the padding limit {PAD_LIMIT}")


def ensure_prec(build: Callable[[Fraction], QSeries], order: Rat) -> QSeries:
    """Run a construction, deepening the working order until the result's
    guaranteed precision covers the request.

    Precision deficits come from fixed negative valuations (division,
    Laurent shifts), so they are independent of the working order and one
    retry normally suffices; four builds that all fall short, or a total
    padding beyond PAD_LIMIT, raise CapExceededError.
    """
    order = _fr(order)
    work = order
    for _ in range(4):
        s = build(work)
        if s.prec_order() >= order:
            return s
        # a later retry pads at least q^1, which no inner grid rounds away
        work = work + max(order - s.prec_order(), 0 if work == order else 1)
        if work - order > PAD_LIMIT:
            raise _too_deep(work - order)
    raise CapExceededError(
        f"could not reach precision {order} in four builds (got {s.prec_order()})"
    )


# A row (sign, e, ups, downs) stands for sign * q^e * prod(1 - u) / prod(1 - v)
# over the monomials u in ups and v in downs.
Row = Tuple[Union[Rat, CycloNumber], Rat, Sequence[Monomial], Sequence[Monomial]]


def _poly(sign, e: Rat, us: Sequence[Monomial], window: Fraction) -> QSeries:
    """sign q^e prod(1 - u) over the monomials u, exact below q^(e + window)."""
    s = from_monomial(Monomial.make(sign, e), e + window + sum(abs(u.expo) for u in us))
    for u in us:
        s = series_sub(s, series_shift(s, u))
    return s


def _times_row(t: QSeries, row: Row, work: Fraction) -> QSeries:
    sign, e, ups, downs = row
    # both polynomials exact past t's window, so only t bounds the product
    # and the quotient
    window = Fraction(t.prec - t.val_grid, t.denom) + 1
    t = series_mul(t, _poly(sign, e, ups, window))
    if downs:
        t = series_div(t, _poly(1, 0, downs, window))
    return series_truncate(t, work)


# A factor (y, p, a, b, s) stands for (y; q^p)_(an+b)^s, with a >= 0 and s = +-1.
Factor = Tuple[Monomial, Rat, int, int, int]


def _row(sign, e: Rat, factors: Sequence[Factor], ks: Callable[[int, int], range]) -> Row:
    """sign q^e times 1 - y q^(pk) for each factor (y, p, a, b, s) and k in
    ks(a, b), in ups when s = 1 and in downs when s = -1."""
    ups, downs = [], []
    for y, p, a, b, s in factors:
        (ups if s > 0 else downs).extend(y.times_q(p * k) for k in ks(a, b))
    return sign, e, ups, downs


def _term_sum(
    c: Union[Rat, CycloNumber], e: Tuple[Rat, Rat, Rat], factors: Sequence[Factor],
    work: Fraction, start: int = 0,
) -> QSeries:
    """The sum over n >= start of c^n q^E(n) prod (y; q^p)_(an+b)^s below
    q^work, with E(n) = e[0] n^2 + e[1] n + e[2] and one factor (y, p, a, b, s)
    per Pochhammer symbol.

    The first term is c^start q^E(start) times the binomials 1 - y q^(pk)
    for k < a start + b; the ratio t_n / t_{n-1} is c q^(E(n) - E(n-1)) times
    those for k in [a(n-1) + b, an + b) (Gasper and Rahman, section 1.3).
    Every term is carried as a truncated series, so each costs one pass per
    factor, and the quadratic exponent growth ends the loop.  The term cap
    counts from the lowest valuation, as a Pochhammer sum may dip first.
    """

    def E(n: int) -> Rat:
        return e[0] * n * n + e[1] * n + e[2]

    cap = 10 * (int(work) + 10)
    first = _row(c**start, E(start), factors, lambda a, b: range(a * start + b))
    t = _times_row(const_series(1, work), first, work)

    def terms(t: QSeries):
        n = deepest = start
        low = t.valuation()
        while not t.is_zero():
            yield t
            if t.valuation() < low:
                low, deepest = t.valuation(), n
            if n - deepest > cap:
                raise CapExceededError("q-hypergeometric term valuation failed to grow")
            if work - t.prec_order() > PAD_LIMIT:
                raise _too_deep(work - t.prec_order())
            n += 1
            ratio = _row(c, E(n) - E(n - 1), factors, lambda a, b: range(a * (n - 1) + b, a * n + b))
            t = _times_row(t, ratio, work)

    return series_sum(zero_series(work, t.denom, t.field_order), terms(t))


def has_pole(factors: Sequence[Factor]) -> bool:
    """Whether a denominator factor (y; q^p)_(an+b) is exactly zero in some
    term: 1 - y q^(pk) = 0 at the k that bilateral_pole finds, with k >= 0,
    and k < b when a = 0 (for a > 0 the length an + b outgrows every k,
    whatever the first n)."""
    for y, p, a, b, s in factors:
        k = bilateral_pole(y.coeff, (p, y.expo))
        if s < 0 and k is not None and k >= 0 and (a > 0 or k < b):
            return True
    return False


def _base(p: Rat) -> Fraction:
    p = _fr(p)
    if p <= 0:
        raise ValueError("base exponent must be positive")
    return p


# ---------------------------------------------------------------------------
# Pochhammer products
# ---------------------------------------------------------------------------


def pochhammer(x: Monomial, p: Rat, n: Optional[int], order: Rat) -> QSeries:
    """(x; q^p)_n for x = c q^e, with n = None meaning the infinite product:
    Euler's sum of (-c)^k q^(p binom(k,2) + ek) / (q^p; q^p)_k, or for finite
    n the q-binomial sum of c^k q^((e+pn)k) (q^(-pn); q^p)_k / (q^p; q^p)_k,
    which ends by itself at k = n + 1 (Gasper and Rahman, section 1.3).

    A vanishing factor (x*q^(kp) exactly 1) makes the whole product the
    zero series rather than an error.
    """
    p = _base(p)
    if n is not None and n < 0:
        raise ValueError("Pochhammer length must be nonnegative")
    c, e = x.coeff, x.expo
    d = lcm(e.denominator, p.denominator)
    qp = (Monomial.make(1, p), p, 1, 0, -1)
    if n is None:
        c, expo, factors = -c, (p / 2, e - p / 2, 0), (qp,)
    else:
        expo, factors = (0, e + p * n, 0), ((Monomial.make(1, -p * n), p, 1, 0, 1), qp)

    def build(work: Fraction) -> QSeries:
        return _term_sum(c, expo, factors, work).rebase(d).lift_field(x.field_order)

    # the first term, 1, must lie inside the window for the sum to start
    return ensure_prec(build, max(_fr(order), Fraction(1)))


# ---------------------------------------------------------------------------
# The rows of FORMS and BILATERAL, j, m and g among them
# ---------------------------------------------------------------------------


_theta_cache: dict[tuple, QSeries] = {}

# The most entries _theta_cache keeps; one run_suite() of the built-in
# corpus leaves about 360, so the corpus never evicts.
MEMO_LIMIT = 1024

memo_counts = {"hits": 0, "misses": 0}


def _memo(key: tuple, order: Rat, build: Callable[[], QSeries]) -> QSeries:
    """The series that build() makes for order, through _theta_cache.

    Each entry is stored cut at the order it was built for, so a shallower
    request, served by cutting the entry, gets what a cold call returns.
    The dict is kept in order of last use: a hit moves its entry to the
    end, and past MEMO_LIMIT entries the least recently used one goes.
    """
    hit = _theta_cache.pop(key, None)
    fresh = hit is None or hit.prec < grid_prec(order, hit.denom)
    memo_counts["misses" if fresh else "hits"] += 1
    _theta_cache[key] = s = series_truncate(build(), order) if fresh else hit
    while len(_theta_cache) > MEMO_LIMIT:
        del _theta_cache[next(iter(_theta_cache))]
    return series_truncate(s, order)


def _key(name: str, args: Sequence) -> tuple:
    """The memo key of name at args, each monomial c q^e flattened to c's key and e."""
    return (name, *(v for a in args for v in ((a.coeff.key(), a.expo) if isinstance(a, Monomial) else (a,))))


def read_row(name: str, args: Sequence, order: Rat) -> QSeries:
    """The row name of FORMS or BILATERAL at args, below q^order.

    Each base argument must be positive, and the row's form function runs
    the row's own argument checks.  A pole raises NonGenericError with the
    row's message: has_pole reads it off a product form's factors and
    bilateral_pole off a bilateral form.  A product form is summed by
    _term_sum; a bilateral form is scanned by bilateral_sum and divided by
    its theta divisor, read back as the row j.  The series is memoised
    under (name, args).
    """
    kinds, form, pole = FORMS[name] if name in FORMS else BILATERAL[name]
    args = tuple(_base(a) if k == "p" else a for k, a in zip(kinds, args))
    if name in FORMS:
        c, e, factors, start = form(*args)
        if has_pole(factors):
            raise NonGenericError(pole.format(*args))
        build = partial(_term_sum, c, e, factors, start=start)
    else:
        c, e, d, m, u, f, theta = form(*args)
        if (r := bilateral_pole(u, f)) is not None:
            raise NonGenericError(pole.format(*args, r=r))

        def build(work: Fraction) -> QSeries:
            s = bilateral_sum(c, e, work, d, m, u, f)
            return s if theta is None else series_div(s, read_row("j", theta, work))

    return _memo(_key(name, args), order, partial(ensure_prec, build, order))


def theta_j(x: Monomial, p: Rat, order: Rat) -> QSeries:
    """j(x; q^p), the row j: always well defined, and identically zero
    exactly when x is a power of q^p."""
    return read_row("j", (x, p), order)


def J(a: int, m: int, order: Rat) -> QSeries:
    """J_{a,m} = j(q^a; q^m)."""
    return theta_j(Monomial.make(1, a), m, order)


def JB(a: int, m: int, order: Rat) -> QSeries:
    """JB_{a,m} = j(-q^a; q^m)."""
    return theta_j(Monomial.make(-1, a), m, order)


def Jm(m: int, order: Rat) -> QSeries:
    """J_m = J_{m,3m}."""
    return J(m, 3 * m, order)


def appell_m(x: Monomial, p: Rat, z: Monomial, order: Rat) -> QSeries:
    """m(x, q^p, z), the row m; NonGenericError when j(z; q^p) vanishes or
    a denominator 1 - q^(p(n-1)) x z does, both decided exactly up front."""
    return read_row("m", (x, p, z), order)


def g_universal(x: Monomial, p: Rat, order: Rat) -> QSeries:
    """g(x, q^p) as its Lambert sum, the row g.  Its Eulerian form is
    g_sum, its Appell-Lerch form the expression-language definition g_appell."""
    return read_row("g", (x, p), order)


def g_sum(x: Monomial, p: Rat, order: Rat) -> QSeries:
    """g(x, q^p) as its Eulerian sum, Pochhammers at base q^p:
    x^(-1) (-1 + sum of q^(p n^2) / ((x)_{n+1} (q^p/x)_n)), rejected at the
    poles of the row g, which are its own."""
    p = _base(p)
    factors = ((x, p, 1, 1, -1), (x.inv().times_q(p), p, 1, 0, -1))
    if has_pole(factors):
        raise NonGenericError(FORMS["g"][2].format(x, p))

    def build(work: Fraction) -> QSeries:
        s = _term_sum(1, (p, 0, 0), factors, work)
        return series_shift(series_sub(s, const_series(1, work)), x.inv())

    return _memo(_key("g_sum", (x, p)), order, partial(ensure_prec, build, order))
