"""Classical building blocks through one entry point: read_row, the one
reader of every row of eulerian.FORMS and eulerian.BILATERAL, with the
term sum, the bilateral scan and the precision loop it runs.

All arguments x, z are Monomials c*q^e; the base is a positive rational p
standing for q^p.  read_row takes a target order and returns a QSeries
whose guaranteed precision reaches that order; a construction whose own
division costs precision runs through ensure_prec, which deepens its
working order up to PAD_LIMIT.  An Eulerian series is its product form, a
table of Pochhammer factors that has_pole reads its poles off and that
_term_sum sums term by term on the one grid and over the one field the
form fixes: each term is a QSeries, whose phi(M) integer lists each
binomial of a term ratio multiplies in one pass, with no series product
or quotient, and each term's lists are added into the sum's one row as
they come.  A bilateral series is its bilateral_sum form, whose grid and
field bilateral_sum reads off it as _term_sum does off a product form, and
its theta divisor; bilateral_pole finds its pole.  read_row reads both
kinds, j, m, g, g's Eulerian sum g_euler and poch among them, and keeps
one memo entry per (row, arguments) in _theta_cache, a least recently
used cache of at most MEMO_LIMIT entries, which it looks up before it
builds the row's form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import lcm
from typing import Callable, Optional, Sequence, Tuple, Union

from .coeff import CycloNumber, _times_table, cyclo_embed, euler_phi, lift_order
from .errors import CapExceededError, NonGenericError
from .eulerian import BILATERAL, FORMS
from .series import (
    Monomial,
    QSeries,
    _add_into,
    _apply,
    _new,
    _row,
    _zero,
    bilateral_pole,
    bilateral_sum,
    grid_prec,
    series_div,
    series_scale,
    series_truncate,
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


# A factor (y, p, a, b, s) stands for (y; q^p)_(an+b)^s, with a >= 0 and s = +-1.
Factor = Tuple[Monomial, Rat, int, int, int]


def _binomial(t: QSeries, r: CycloNumber, f: int, s: int) -> Optional[QSeries]:
    """t times 1 - r q^(f/denom) for s = 1 and over it for s = -1, which
    must not be zero, on t's lists padded out to its precision, r in t's
    field; None when the product is exactly zero.  For f < 0 the binomial
    is -r q^f (1 - r^-1 q^-f).  Times 1 - r q^f, f > 0, is one reverse pass
    t[i] -= r t[i-f], over it one forward pass t[i] += r t[i-f], and f = 0
    is a scaling.  For r with a denominator d the forward pass starts from
    t times d^ceil(len/f), after which every t[i-f] it reads is a multiple
    of d."""
    if f == 0:
        x = 1 - r
        if s > 0 and not x:
            return None
        return series_scale(t, x if s > 0 else x.inv())
    if f < 0:
        t = series_scale(t, -r if s > 0 else -r.inv())
        t, r, f = _new(t.denom, t.prec + s * f, t.field_order, t.off + s * f, t.cols, t.den), r.inv(), -f
    pairs, d = _times_table(t.field_order, r.num, r.den)
    n = max(t.prec - t.off, 0)
    tc = [col + [0] * (n - len(col)) for col in t.cols] if len(t.cols[0]) < n else t.cols
    if s > 0:
        cols = tc if d == 1 else [[d * v for v in col] for col in tc]
        cols = [a[:f] + [x - y for x, y in zip(a[f:], b)] for a, b in zip(cols, _apply(pairs, tc))]
        return _new(t.denom, t.prec, t.field_order, t.off, cols, t.den * d)
    w = d ** -(-n // f)
    cols = [[w * v for v in col] if w > 1 else list(col) for col in tc]
    if len(cols) == 1:
        (col,), ((_, c),) = cols, pairs[0]
        if c == d == 1:
            for j in range(min(f, n)):
                col[j::f] = accumulate(col[j::f])
        else:
            for i in range(f, n):
                col[i] += c * (col[i - f] // d)
    else:
        plan = [(col, [(cols[j], c) for j, c in ps]) for col, ps in zip(cols, pairs)]
        for i in range(f, n):
            for col, terms in plan:
                acc = 0
                for src, c in terms:
                    acc += c * (src[i - f] // d)
                col[i] += acc
    return _new(t.denom, t.prec, t.field_order, t.off, cols, t.den * w)


def _times(t: QSeries, sign: CycloNumber, k: int, binomials: Sequence[tuple], work: Fraction) -> Optional[QSeries]:
    """t times sign q^k and each binomial 1 - r q^f of the triples (r, f, s),
    or over it when s = -1, cut at q^work and in lowest terms: k and each f
    grid integers, sign and each r in t's field.  None when it is exactly
    zero."""
    for r, f, s in binomials:
        t = _binomial(t, r, f, s)
        if t is None:
            return None
    t = series_scale(t, sign)
    return _row(t.denom, min(t.prec + k, grid_prec(work, t.denom)), t.field_order, t.off + k, t.cols, t.den)


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
    The sum lives on one grid 1/D and over one field Q(zeta_M), both read
    off the form: D is the lcm of the denominators of E(start), E(start+1)
    and E(start+2) (a quadratic integral at three consecutive n is integral
    at every n) and of every factor's exponent and base, M the lcm of the
    orders of c and of every factor's coefficient.  So every exponent is a
    grid integer, c and each y's coefficient are lifted to Q(zeta_M) once,
    and no term is ever rebased or lifted: each term is a QSeries on
    (D, M), one pass over its lists per binomial and a scaling, and
    _add_into adds it into the sum's one row.

    Precision is a ledger: a ratio moves the precision index by
    (e + sum over ups of min(0, f) - sum over downs of min(0, f)) D for its
    binomials 1 - r q^f, and the term is then cut at q^work; the sum is
    exact below the lowest precision of its terms.  The quadratic exponent
    growth ends the loop, and a term that is zero (a factor 1 - 1 in a
    numerator) ends it at once.  A term whose lead lies at or past q^work
    still carries its lead and precision on to the next, and the loop ends
    there only when no later ratio can lower a lead: E and the numerator
    exponents no longer fall.  A later term that dips back below q^work
    without known coefficients lowers the precision of the sum.  The term
    cap counts from the lowest valuation, as a Pochhammer sum may dip first.
    """
    c = c if isinstance(c, CycloNumber) else cyclo_embed(c, 1)
    E = [_fr(e[0]) * n * n + e[1] * n + e[2] for n in range(start, start + 3)]
    D = lcm(*(x.denominator for x in E), *(_fr(v).denominator for y, p, *_ in factors for v in (y.expo, p)))
    M = lcm(c.order, *(y.field_order for y, *_ in factors))
    # E(start) and the first and second differences of E, on the grid
    e0, e1, e2 = (int(x * D) for x in (E[0], E[1] - E[0], E[2] - 2 * E[1] + E[0]))
    c = lift_order(c, M)
    factors = [(lift_order(y.coeff, M), int(y.expo * D), int(p * D), a, b, s) for y, p, a, b, s in factors]

    def binomials(n: int, first: bool) -> list:
        """(r, f, s) of the binomials of term n, or of its ratio to term n - 1."""
        return [(r, y + p * k, s) for r, y, p, a, b, s in factors
                for k in range(0 if first else a * (n - 1) + b, a * n + b)]

    # at least 100 terms past the lowest lead, a negative work included
    cap = 10 * (max(int(work), 0) + 10)
    top, floor = grid_prec(work, D), grid_prec(work - PAD_LIMIT, D)
    one = _new(D, top, M, 0, [[int(j == 0)] if top > 0 else [] for j in range(euler_phi(M))], 1)
    t, total = _times(one, c**start, e0, binomials(start, True), work), _zero(D, top, M)
    # a term not past q^work has its lead below top
    n = deepest = start
    low = top
    while t is not None:
        past = t.prec <= t.off and t.off >= top
        if not past:
            total = _add_into(total, t)
            if t.off < low:
                low, deepest = t.off, n
            if n - deepest > cap:
                raise CapExceededError("q-hypergeometric term valuation failed to grow")
            if t.prec < floor:
                raise _too_deep(work - Fraction(t.prec, D))
        n += 1
        k, ratio = e1 + (n - 1 - start) * e2, binomials(n, False)
        if past and e2 >= 0 and k >= 0 and all(f >= 0 for _, f, s in ratio if s > 0):
            break
        t = _times(t, c, k, ratio, work)
    return _row(D, total.prec, M, total.off, total.cols, total.den)


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

    Each base argument must be positive.  The series is memoised under
    (name, args), and only a miss builds the row's form, whose function
    runs the row's own argument checks: a key in the memo has passed them,
    and a pole never enters it.  A pole raises NonGenericError with the
    row's message: has_pole reads it off a product form's factors and
    bilateral_pole off a bilateral form.  A product form is summed by
    _term_sum; a bilateral form is scanned by bilateral_sum and divided by
    its theta divisor, read back as the row j.
    """
    kinds, form, pole = FORMS[name] if name in FORMS else BILATERAL[name]
    args = tuple(_base(a) if k == "p" else a for k, a in zip(kinds, args))

    def build() -> QSeries:
        if name in FORMS:
            c, e, factors, start = form(*args)
            if has_pole(factors):
                raise NonGenericError(pole.format(*args))
            return ensure_prec(partial(_term_sum, c, e, factors, start=start), order)
        c, e, u, f, theta = form(*args)
        if (r := bilateral_pole(u, f)) is not None:
            raise NonGenericError(pole.format(*args, r=r))

        def scan(work: Fraction) -> QSeries:
            s = bilateral_sum(c, e, work, u, f)
            return s if theta is None else series_div(s, read_row("j", theta, work))

        return ensure_prec(scan, order)

    return _memo(_key(name, args), order, build)
