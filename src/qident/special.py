"""Classical building blocks through one entry point: read_row, the one
reader of every row of eulerian.FORMS and eulerian.BILATERAL, with the
policy around the two scans of series: the precision loop and the memo.

All arguments x, z are Monomials c*q^e; the base is a positive rational p
standing for q^p.  read_row takes a target order and returns a QSeries
whose guaranteed precision reaches that order: it rejects the pole that
eulerian.has_pole or series.bilateral_pole finds, sums a product form
with series.term_sum or scans a bilateral form with series.bilateral_sum
and divides it by its theta divisor.

_theta_cache, a least recently used cache of at most MEMO_LIMIT entries,
is the one memo, and it holds two kinds of entry, each read one way.
read_row keeps one row per (row, arguments), built under ensure_prec,
which deepens the working order up to series.PAD_LIMIT, and cut at its
order: a shallower request cuts the entry and only a deeper one builds
it again.  memo_exact keeps each expression node dsl evaluates, a side's
root and every quotient and power below it, exactly as it was computed.
An entry's key is its head and its arguments with no Fraction in it:
each Fraction becomes its numerator when it is an integer and its
(numerator, denominator) pair otherwise, nested in the key, and each
monomial c q^e the two parts c.key() and e's, so a lookup hashes ints
and tuples in C and never runs Fraction.__hash__.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .errors import CapExceededError, NonGenericError
from .eulerian import BILATERAL, FORMS, has_pole
from .series import (
    PAD_LIMIT,
    Monomial,
    QSeries,
    _as_frac,
    bilateral_pole,
    bilateral_sum,
    grid_prec,
    series_div,
    series_truncate,
    term_sum,
    too_deep,
)

Rat = Union[int, Fraction]


def ensure_prec(build: Callable[[Fraction], QSeries], order: Rat) -> QSeries:
    """Run a construction, deepening the working order until the result's
    guaranteed precision covers the request.

    Precision deficits come from fixed negative valuations (division,
    Laurent shifts), so they are independent of the working order and one
    retry normally suffices; four builds that all fall short, or a total
    padding beyond PAD_LIMIT, raise CapExceededError.
    """
    work = order = _as_frac(order)
    for _ in range(4):
        s = build(work)
        if s.prec >= grid_prec(order, s.denom):
            return s
        # a later retry pads at least q^1, which no inner grid rounds away
        work = work + max(order - s.prec_order(), 0 if work == order else 1)
        if work - order > PAD_LIMIT:
            raise too_deep(work - order)
    raise CapExceededError(
        f"could not reach precision {order} in four builds (got {s.prec_order()})"
    )


def _base(p: Rat) -> Fraction:
    p = _as_frac(p)
    if p <= 0:
        raise ValueError("base exponent must be positive")
    return p


# ---------------------------------------------------------------------------
# The rows of FORMS and BILATERAL, j, m and g among them
# ---------------------------------------------------------------------------


_theta_cache: dict[tuple, object] = {}

# The most entries _theta_cache keeps; one run_suite() of the built-in
# corpus leaves 1,084, so the corpus never evicts.
MEMO_LIMIT = 2048

memo_counts = {"hits": 0, "misses": 0}


def memo_exact(head: object, args: Sequence, build: Callable[..., object], *params: object) -> object:
    """build(*params), read through _theta_cache under head and args and
    kept exactly as built, with no ensure_prec and no cut: a hit is the
    value the miss computed.  An exception is never stored."""
    return _read(head, args, None, build, *params)


def _read(head: object, args: Sequence, short: Optional[Callable[[object], bool]],
          build: Callable[..., object], *params: object) -> object:
    """The entry of _theta_cache under head and args, keyed as the module
    says, build(*params) anew when there is none or short, if given, says
    the one there falls short; either way it becomes the most recently
    used, and past MEMO_LIMIT entries the least recently used one goes.
    An integral Fraction is keyed by the int it equals, so it keys the
    entry an int argument would, as a Fraction itself did."""
    key = [head]
    for a in args:
        if isinstance(a, Monomial):
            key.append(a.coeff.key())
            a = a.expo
        if isinstance(a, Fraction):
            n, d = a.as_integer_ratio()
            a = n if d == 1 else (n, d)
        key.append(a)
    key = tuple(key)
    hit = _theta_cache.pop(key, None)
    fresh = hit is None or short is not None and short(hit)
    memo_counts["misses" if fresh else "hits"] += 1
    _theta_cache[key] = v = build(*params) if fresh else hit
    while len(_theta_cache) > MEMO_LIMIT:
        del _theta_cache[next(iter(_theta_cache))]
    return v


def read_row(name: str, args: Sequence, order: Rat) -> QSeries:
    """The row name of FORMS or BILATERAL at args, below q^order, kept in
    the memo under (name, args) as the module says: a shallower read cuts
    the entry, which gives what a cold call returns.

    Each base argument must be positive.  Each build runs the row's form,
    whose function runs the row's own argument checks: a key in the memo
    has passed them, and a pole never enters it.  A pole raises
    NonGenericError with the row's message: has_pole reads it off a
    product form's factors and bilateral_pole off a bilateral form.  A
    product form is summed by term_sum; a bilateral form is scanned by
    bilateral_sum and divided by its theta divisor, read back as the row j.
    """
    kinds, form, pole = FORMS[name] if name in FORMS else BILATERAL[name]
    args = tuple(_base(a) if k == "p" else a for k, a in zip(kinds, args))

    def build(work: Fraction) -> QSeries:
        if name in FORMS:
            c, e, factors, start = form(*args)
            if has_pole(factors):
                raise NonGenericError(pole.format(*args))
            return term_sum(c, e, factors, work, start=start)
        c, e, u, f, theta = form(*args)
        if (r := bilateral_pole(u, f)) is not None:
            raise NonGenericError(pole.format(*args, r=r))
        s = bilateral_sum(c, e, work, u, f)
        return s if theta is None else series_div(s, read_row("j", theta, work))

    return series_truncate(_read(name, args, lambda hit: hit.prec < grid_prec(order, hit.denom),
                                 lambda: series_truncate(ensure_prec(build, order), order)), order)
