"""Truncated Puiseux series with cyclotomic coefficients, on dense integer rows.

A QSeries is a window of the grid 1/D over Q(zeta_M): the coefficient of
q^(k/D) for off <= k < off + n is sum_j cols[j][k - off] zeta_M^j / den,
phi(M) lists of Python ints over one positive denominator (the storage
of FLINT's fmpq_poly); every other coefficient below the precision index
P is zero, and none at or past P is known.  Negative k is allowed.  Rows
are kept trimmed to their nonzero ends and in lowest terms; CycloNumbers
appear only at the edges: the checked constructor QSeries(D, P, {k: c}, M)
and the read-only views terms, sorted_terms and coeff_at.

Precision propagates by the min/valuation rules below, so a comparison
never silently reads coefficients outside the guaranteed window.  Every
operation is a pass over the lists: a product adds the denser row in at
each nonzero slot of the sparser one, a scalar multiplies through its
table (_times_table, applied by _apply), a field lift through that of the
embedding (_lift_table), and a power of q moves the offset.  Every
quotient is one long division, series_div, walking only the residue
classes its divisor reaches; series_invert and geom_inverse (1/(1 - u),
u a monomial) wrap it.  Every theta function and bilateral Lambert sum is
one integer-grid scan, bilateral_sum, on Python ints only, written
straight into a row.  QSeries has no operators.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Optional, Union

from .coeff import (
    CycloNumber,
    _lift_table,
    _make,
    _powers,
    _reduce_rows,
    _times_table,
    cyclo_embed,
    euler_phi,
    lift_order,
    one as cyclo_one,
    zero as cyclo_zero,
)
from .errors import InsufficientPrecisionError, NonGenericError
from .record import Record, set_key
from .verdict import FAIL, PASS, Verdict

Rat = Union[int, Fraction]


def _as_frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# Monomial: c * q^e, the shape of every specialized argument
# ---------------------------------------------------------------------------


class Monomial(Record):
    __slots__, _fields = (), ("coeff", "expo")

    def __init__(self, coeff: CycloNumber, expo: Fraction):
        if coeff.is_zero():
            raise ValueError("monomial coefficient must be nonzero")
        set_key(self, (coeff, expo if isinstance(expo, Fraction) else Fraction(expo)))

    @staticmethod
    def make(coeff: Union[CycloNumber, Rat], expo: Rat = 0) -> "Monomial":
        if not isinstance(coeff, CycloNumber):
            coeff = cyclo_embed(Fraction(coeff), 1)
        return Monomial(coeff, _as_frac(expo))

    @property
    def field_order(self) -> int:
        return self.coeff.order

    def is_q_power(self) -> bool:
        """True when the coefficient is exactly 1."""
        return self.coeff.is_rational() and self.coeff.rational_value() == 1

    def __mul__(self, other: "Monomial") -> "Monomial":
        a, b = self.coeff, other.coeff
        if a.order != b.order:
            m = a.order * b.order // gcd(a.order, b.order)
            a, b = lift_order(a, m), lift_order(b, m)
        return Monomial(a * b, self.expo + other.expo)

    def __neg__(self) -> "Monomial":
        return Monomial(-self.coeff, self.expo)

    def inv(self) -> "Monomial":
        return Monomial(self.coeff.inv(), -self.expo)

    def __pow__(self, n: int) -> "Monomial":
        return Monomial(self.coeff**n, self.expo * n)

    def times_q(self, e: Rat) -> "Monomial":
        return Monomial(self.coeff, self.expo + _as_frac(e))

    def __str__(self) -> str:
        c = self.coeff
        cs = str(c) if (c.is_rational() or c.order == 1) else f"({c})"
        if self.expo == 0:
            return cs
        qs = f"q^({self.expo.numerator}/{self.expo.denominator})"
        if c.is_rational() and c.rational_value() == 1:
            return qs
        if c.is_rational() and c.rational_value() == -1:
            return f"-{qs}"
        return f"{cs}*{qs}"


# ---------------------------------------------------------------------------
# QSeries
# ---------------------------------------------------------------------------


# The finest grid 1/D a series may be built on; the finest in use is 1/49.
MAX_GRID = 1000

# The most grid steps a window may span, from its lowest slot or q^0,
# whichever is lower, to its precision: order times D for most series.
MAX_WINDOW = 100000


def check_window(denom: int, steps: int) -> None:
    """Refuse a grid finer than 1/MAX_GRID or a window of more than
    MAX_WINDOW grid steps, before anything of that size is allocated."""
    if denom > MAX_GRID:
        raise ValueError(f"grid denominator {denom} exceeds MAX_GRID = {MAX_GRID}")
    if steps > MAX_WINDOW:
        raise ValueError(
            f"a window of {steps} steps on the grid 1/{denom} (order times grid denominator)"
            f" exceeds MAX_WINDOW = {MAX_WINDOW}"
        )


class QSeries:
    """A truncated series on one dense integer row; immutable by convention.

    The coefficient of q^(k/denom) for off <= k < off + len(cols[0]) is
    sum_j cols[j][k - off] zeta^j / den in Q(zeta_field_order), every
    other coefficient below prec is zero, and none at or past prec is
    known.  The lists are never changed once the series is built.
    """

    __slots__ = ("denom", "prec", "field_order", "off", "cols", "den")

    def __init__(self, denom: int, prec: int, terms: dict[int, CycloNumber], field_order: int):
        """The sum of c q^(k/denom) over the pairs (k, c) of terms below
        prec, every c in Q(zeta_field_order): the checked constructor."""
        if denom < 1:
            raise ValueError("grid denominator must be positive")
        terms = {k: c for k, c in terms.items() if k < prec and not c.is_zero()}
        if any(c.order != field_order for c in terms.values()):
            raise ValueError("coefficient field order mismatch")
        off = min(terms, default=prec)
        check_window(denom, prec - min(off, 0))
        den = lcm(1, *(c.den for c in terms.values()))
        cols = [[0] * (max(terms, default=off - 1) + 1 - off) for _ in range(euler_phi(field_order))]
        for k, c in terms.items():
            for col, v in zip(cols, c.num):
                col[k - off] = v * (den // c.den)
        self.denom, self.prec, self.field_order, self.off, self.cols, self.den = (
            denom, prec, field_order, off, cols, den)

    # -- queries --------------------------------------------------------------

    def is_zero(self) -> bool:
        """Zero to the guaranteed precision."""
        return not self.cols[0]

    def term_count(self) -> int:
        """The number of nonzero coefficients."""
        return sum(map(any, zip(*self.cols)))

    @property
    def val_grid(self) -> int:
        """Valuation in grid units; precision for a zero-to-order series."""
        return self.off if self.cols[0] else self.prec

    def valuation(self) -> Optional[Fraction]:
        """Least exponent with nonzero coefficient, None if zero to precision."""
        return Fraction(self.off, self.denom) if self.cols[0] else None

    def prec_order(self) -> Fraction:
        """Exponent bound below which coefficients are guaranteed."""
        return Fraction(self.prec, self.denom)

    def coeff_at(self, e: Rat) -> CycloNumber:
        """Coefficient of q^e; raises when e is outside the guaranteed window."""
        e = _as_frac(e)
        k = e * self.denom
        if e >= self.prec_order():
            raise InsufficientPrecisionError(e, self.prec_order())
        i = k - self.off
        if k.denominator != 1 or not 0 <= i < len(self.cols[0]):
            return cyclo_zero(self.field_order)
        return _make(self.field_order, [col[int(i)] for col in self.cols], self.den)

    def sorted_terms(self) -> list[tuple[int, CycloNumber]]:
        """(k, coefficient of q^(k/denom)) for every nonzero coefficient, k ascending."""
        M, den, off = self.field_order, self.den, self.off
        return [(off + i, _make(M, list(v), den)) for i, v in enumerate(zip(*self.cols)) if any(v)]

    @property
    def terms(self) -> dict[int, CycloNumber]:
        """A fresh map from k to the nonzero coefficient of q^(k/denom)."""
        return dict(self.sorted_terms())

    # -- rebasing -------------------------------------------------------------

    def rebase(self, new_denom: int) -> "QSeries":
        """Re-express on a finer grid; new_denom must be a multiple of denom."""
        if new_denom == self.denom:
            return self
        if new_denom % self.denom != 0:
            raise ValueError(f"{self.denom} does not divide {new_denom}")
        f = new_denom // self.denom
        check_window(new_denom, (self.prec - min(self.off, 0)) * f)
        cols = []
        for col in self.cols:
            new = [0] * ((len(col) - 1) * f + 1) if col else []
            new[::f] = col
            cols.append(new)
        return _new(new_denom, self.prec * f, self.field_order, self.off * f, cols, self.den)

    def lift_field(self, new_order: int) -> "QSeries":
        """Re-express over Q(zeta_new_order), which must contain the field."""
        if new_order == self.field_order:
            return self
        cols = _apply(_lift_table(self.field_order, new_order), self.cols)
        return _new(self.denom, self.prec, new_order, self.off, cols, self.den)

    # -- display ------------------------------------------------------------

    def __repr__(self) -> str:
        return (f"<QSeries D={self.denom} M={self.field_order} P={self.prec}"
                f" terms={self.term_count()}>")


_alloc = object.__new__


def _new(denom: int, prec: int, field: int, off: int, cols: list, den: int) -> QSeries:
    """The series of these fields, taken as they are."""
    check_window(denom, prec - min(off, 0))
    s = _alloc(QSeries)
    s.denom, s.prec, s.field_order, s.off, s.cols, s.den = denom, prec, field, off, cols, den
    return s


def _row(denom: int, prec: int, field: int, off: int, cols: list, den: int) -> QSeries:
    """The series of these fields cut at prec, trimmed to its first and
    last nonzero slot and brought to lowest terms.  An empty row keeps off,
    the lead of a term of special._term_sum that lies past its precision."""
    n, first = min(len(cols[0]), prec - off), 0
    while first < n and not any(c[first] for c in cols):
        first += 1
    while n > first and not any(c[n - 1] for c in cols):
        n -= 1
    if n <= first:
        return _new(denom, prec, field, off, [[] for _ in cols], 1)
    if first or n < len(cols[0]):
        cols, off = [c[first:n] for c in cols], off + first
    if den > 1:
        g = gcd(den, *chain.from_iterable(cols))
        if g > 1:
            cols, den = [[x // g for x in c] for c in cols], den // g
    return _new(denom, prec, field, off, cols, den)


def _zero(denom: int, prec: int, field: int) -> QSeries:
    return _new(denom, prec, field, prec, [[] for _ in range(euler_phi(field))], 1)


# ---------------------------------------------------------------------------
# Rows times scalars, and field lifts
# ---------------------------------------------------------------------------


def _apply(pairs: tuple, cols: list) -> list:
    """The list sum of c cols[j] over the pairs (j, c) of each entry of
    pairs, each a fresh list, which _add_into may add into."""
    out = []
    for ps in pairs:
        acc = None
        for j, c in ps:
            v = cols[j]
            acc = (list(v) if c == 1 else [c * x for x in v]) if acc is None else [a + c * b for a, b in zip(acc, v)]
        out.append([0] * len(cols[0]) if acc is None else acc)
    return out


# ---------------------------------------------------------------------------
# Alignment helpers
# ---------------------------------------------------------------------------


def align(a: QSeries, b: QSeries) -> tuple[QSeries, QSeries]:
    """Bring two series to a common grid denominator and coefficient field."""
    d, m = lcm(a.denom, b.denom), lcm(a.field_order, b.field_order)
    return a.rebase(d).lift_field(m), b.rebase(d).lift_field(m)


def grid_prec(order: Rat, denom: int) -> int:
    """Grid precision index covering all exponents strictly below order."""
    return -(-order.numerator * denom // order.denominator)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def _monomial_row(denom: int, prec: int, c: CycloNumber, k: int) -> QSeries:
    """c q^(k/denom) below prec."""
    if k >= prec or c.is_zero():
        return _zero(denom, prec, c.order)
    return _new(denom, prec, c.order, k, [[x] for x in c.num], c.den)


def zero_series(order: Rat, denom: int = 1, field_order: int = 1) -> QSeries:
    return _zero(denom, grid_prec(order, denom), field_order)


def const_series(
    value: Union[CycloNumber, Rat], order: Rat, denom: int = 1
) -> QSeries:
    if not isinstance(value, CycloNumber):
        value = cyclo_embed(_as_frac(value), 1)
    return _monomial_row(denom, grid_prec(order, denom), value, 0)


def from_monomial(m: Monomial, order: Rat) -> QSeries:
    d = m.expo.denominator
    return _monomial_row(d, grid_prec(order, d), m.coeff, int(m.expo * d))


def q_power(e: Rat, order: Rat) -> QSeries:
    return from_monomial(Monomial.make(1, e), order)


# ---------------------------------------------------------------------------
# Ring operations
# ---------------------------------------------------------------------------


def series_add(a: QSeries, b: QSeries) -> QSeries:
    return series_sum(a, (b,))


def series_sum(total: QSeries, terms: Iterable[QSeries]) -> QSeries:
    """total plus every series in terms, each row added into one.

    Every row is rebased to the finest grid and lifted to the largest
    field among them, as align does, and put over the lcm of their
    denominators; the precision is the minimum over all of them.
    """
    rows = [total, *terms]
    d, m = lcm(*(s.denom for s in rows)), lcm(*(s.field_order for s in rows))
    rows = [s.rebase(d).lift_field(m) for s in rows]
    acc = _zero(d, min(s.prec for s in rows), m)
    for s in rows:
        acc = _add_into(acc, s)
    return _row(d, acc.prec, m, acc.off, acc.cols, acc.den)


def _add_into(total: QSeries, t: QSeries) -> QSeries:
    """total plus t, both on one grid and over one field, with total's lists
    its own (series_sum's, or the sum of special._term_sum, which starts on
    its form's grid and field): t's lists below the lower precision are
    added into them, grown at either end as t needs, over the lcm of the
    two denominators.  The lists are cut at the precision only by _row."""
    acc, lo, den, p = total.cols, total.off, total.den, min(total.prec, t.prec)
    n = min(len(t.cols[0]), p - t.off)
    if n > 0:
        # an empty total's offset lies at or past its precision, so past t's
        g, start, end = lcm(den, t.den), min(lo, t.off), max(lo + len(acc[0]), t.off + n)
        if g != den or start < lo or end > lo + len(acc[0]):
            acc = [[0] * (lo - start) + [x * (g // den) for x in col] + [0] * (end - lo - len(col))
                   for col in acc]
        f, i = g // t.den, t.off - start
        for dst, col in zip(acc, t.cols):
            dst[i:i + n] = [x + f * y for x, y in zip(dst[i:i + n], col)]
        lo, den = start, g
    return _new(total.denom, p, total.field_order, lo, acc, den)


def series_neg(a: QSeries) -> QSeries:
    return _new(a.denom, a.prec, a.field_order, a.off, [[-x for x in c] for c in a.cols], a.den)


def series_sub(a: QSeries, b: QSeries) -> QSeries:
    return series_add(a, series_neg(b))


def series_scale(a: QSeries, c: Union[CycloNumber, Rat]) -> QSeries:
    """Multiply by an exact scalar; precision is unchanged, and a scalar 1
    returns a, lifted to c's field."""
    if not isinstance(c, CycloNumber):
        c = cyclo_embed(_as_frac(c), a.field_order)
    m = a.field_order
    if c.order != m:
        m = lcm(c.order, m)
        c = lift_order(c, m)
        a = a.lift_field(m)
    if c.is_one():
        return a
    if c.is_zero():
        return _zero(a.denom, a.prec, m)
    pairs, d = _times_table(m, c.num, c.den)
    return _row(a.denom, a.prec, m, a.off, _apply(pairs, a.cols), a.den * d)


def series_mul(a: QSeries, b: QSeries) -> QSeries:
    """a times b: for each nonzero slot of the factor with fewer nonzero
    coefficients, the other row times that slot's coefficient is added in
    at its offset, as unreduced products of the phi(M) lists, reduced mod
    Phi_M once at the end.  Each factor stays on its own grid and steps
    through the finer one; the product is exact below the lower of the
    two precisions each raised by the other's valuation."""
    m = lcm(a.field_order, b.field_order)
    a, b = a.lift_field(m), b.lift_field(m)
    d = lcm(a.denom, b.denom)
    fa, fb = d // a.denom, d // b.denom
    lo = a.val_grid * fa + b.val_grid * fb
    # unknown tail of one factor meets the leading term of the other
    p = min(a.prec * fa + b.val_grid * fb, b.prec * fb + a.val_grid * fa)
    if a.is_zero() or b.is_zero() or p <= lo:
        return _zero(d, p, m)
    if a.term_count() > b.term_count():
        a, b, fa, fb = b, a, fb, fa
    check_window(d, p - min(lo, 0))
    L, phi, ys = p - lo, len(a.cols), b.cols
    acc = [[0] * L for _ in range(2 * phi - 1)]
    for i, xs in enumerate(zip(*a.cols)):
        start = i * fa
        if start >= L:
            break
        if not any(xs):
            continue
        # the other row's slots that land below p, fb grid steps apart
        stop = start + (min(len(ys[0]), (L - start + fb - 1) // fb) - 1) * fb + 1
        for ia, x in enumerate(xs):
            if x:
                for dst, y in zip(acc[ia:], ys):
                    dst[start:stop:fb] = [u + x * v for u, v in zip(dst[start:stop:fb], y)]
    return _row(d, p, m, lo, _reduce_rows(m, acc), a.den * b.den)


def series_pow(a: QSeries, n: int) -> QSeries:
    """a^n by repeated squaring from a itself, so a^n has the precision of
    the chain a * a * ... * a; a^0 is 1 to a's precision."""
    if n < 0:
        return series_pow(series_invert(a), -n)
    if n < 2:
        return a if n else const_series(1, a.prec_order(), a.denom).lift_field(a.field_order)
    half = series_pow(series_mul(a, a), n // 2)
    return series_mul(half, a) if n & 1 else half


def series_shift(a: QSeries, m: Monomial) -> QSeries:
    """m.coeff * q^(m.expo) * a, rebasing the grid as needed; the power of
    q only moves the offset."""
    d = lcm(a.denom, m.expo.denominator)
    a = series_scale(a.rebase(d), m.coeff)
    s = int(m.expo * d)
    return _new(d, a.prec + s, a.field_order, a.off + s, a.cols, a.den)


def series_div(a: QSeries, b: QSeries) -> QSeries:
    """a / b by long division from the valuations:
    c_n = a_n / b_0 - sum over j >= 1 of (b_j / b_0) c_{n-j}.  c_n reads
    only c_{n-j} for the tail offsets j of b, so the walk climbs in steps
    of their gcd g through each residue class that holds an exponent of a
    and skips the rest (a monomial b has no tail: g spans the window).

    With 1/b_0 = N/delta, N integral, each ratio b_j / b_0 is an integer
    vector over its own denominator, and each c_n one over the lcm of the
    denominators of the terms it sums, brought to lowest terms; the row is
    put over the lcm of them all once, at the end.

    With v the valuation of b, c_n needs a at n + v and b as far past its
    lead as n is past the quotient's valuation val(a) - v, so the quotient
    is guaranteed below min(a.prec - v, b.prec - 2v + val(a)).  A divisor
    that is zero to its precision is a non-generic specialization and
    raises.
    """
    if b.is_zero():
        raise NonGenericError(
            f"cannot divide by a series that is zero to its precision O(q^({b.prec_order()}))"
        )
    a, b = align(a, b)
    v, va = b.off, a.val_grid
    lo = va - v
    p = min(a.prec - v, b.prec - 2 * v + va)
    M, L = a.field_order, p - lo
    if a.is_zero() or L <= 0:
        return _zero(a.denom, p, M)
    check_window(a.denom, p - min(lo, 0))
    inv = _make(M, [col[0] for col in b.cols], 1).inv()
    times_n, _ = _times_table(M, inv.num, 1)
    # each b_j / b_0 = (b_j N) / delta in lowest terms, as (j, products, denominator)
    tail = []
    for j, t in enumerate(zip(*_apply(times_n, b.cols))):
        if j and any(t):
            g = gcd(inv.den, *t)
            pairs = _times_table(M, tuple(x // g for x in t), 1)[0]
            tail.append((j, [(k, i, x) for k, ps in enumerate(pairs) for i, x in ps], inv.den // g))
    # a / b_0 = (a N) b.den / (a.den delta)
    g = gcd(b.den, inv.den)
    A, da, mult = _apply(times_n, a.cols), a.den * (inv.den // g), b.den // g
    step, A, zero = gcd(*(j for j, _, _ in tail)) or L, list(zip(*A)), (0,) * len(A)
    c, dc = [None] * L, [1] * L
    for r in {i % step for i, x in enumerate(A) if any(x)}:
        for n in range(r, L, step):
            s, d = [mult * x for x in (A[n] if n < len(A) else zero)], da
            for j, t, dj in tail:
                if j > n:
                    break
                y = c[n - j]
                if y is not None:
                    e = dc[n - j] * dj
                    if d % e:
                        f = e // gcd(d, e)
                        s, d = [f * x for x in s], d * f
                    f = d // e
                    for k, i, x in t:
                        s[k] -= f * x * y[i]
            if any(s):
                g = gcd(d, *s) if d > 1 else 1
                c[n], dc[n] = ([x // g for x in s], d // g) if g > 1 else (s, d)
    den = lcm(*dc)
    cols = [[y[k] * (den // e) if y else 0 for y, e in zip(c, dc)] for k in range(len(zero))]
    return _row(a.denom, p, M, lo, cols, den)


def series_invert(a: QSeries) -> QSeries:
    """1/a, guaranteed below a.prec - 2v for a of valuation v (grid units)."""
    one = const_series(1, Fraction(a.prec - a.val_grid, a.denom), a.denom)
    return series_div(one, a)


def series_truncate(a: QSeries, order: Rat) -> QSeries:
    """Discard terms at or beyond order and cap the precision there.

    Lowering precision is always sound; this keeps running products in
    adaptive summations from growing past the working window.
    """
    p = min(a.prec, grid_prec(order, a.denom))
    if p == a.prec:
        return a
    return _row(a.denom, p, a.field_order, a.off, a.cols, a.den)


def geom_inverse(u: Monomial, order: Rat) -> QSeries:
    """Expansion of 1/(1 - u) for a monomial u = c*q^f, below q^order.

    f > 0: sum of c^k q^(kf); f = 0, c != 1: the constant 1/(1-c);
    f < 0: -sum over k >= 1 of c^(-k) q^(-kf).  One series_div by 1 - u,
    exact below q^max(order, 1), which holds its lead and is as deep as
    the quotient needs.  A pole (f = 0, c = 1) is a non-generic
    specialization and raises.
    """
    if u.expo == 0 and u.coeff == 1:
        raise NonGenericError("pole 1/(1 - u) with u exactly 1")
    d, top = u.expo.denominator, max(_as_frac(order), Fraction(1))
    one_minus_u = series_sub(const_series(1, top, d), from_monomial(u, top))
    return series_truncate(series_div(const_series(1, order, d), one_minus_u), order)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def series_eq_to_order(a: QSeries, b: QSeries, order: Rat) -> Verdict:
    """Compare all coefficients with exponent strictly below order: the
    first nonzero slot of a - b, if it lies below order, is the mismatch.

    Raises InsufficientPrecisionError when either side's guaranteed window
    is too shallow for the request; the caller must recompute deeper.
    """
    order = _as_frac(order)
    a, b = align(a, b)
    short = min(a.prec, b.prec)
    if short < order * a.denom:
        raise InsufficientPrecisionError(order, Fraction(short, a.denom))
    diff = series_sub(a, b)
    if diff.is_zero() or diff.off >= order * a.denom:
        return Verdict(PASS, order)
    e = Fraction(diff.off, a.denom)
    return Verdict(FAIL, order, first_bad_exponent=e, lhs_coeff=a.coeff_at(e), rhs_coeff=b.coeff_at(e))


# ---------------------------------------------------------------------------
# Bilateral sums: theta functions and Lambert series
# ---------------------------------------------------------------------------


def bilateral_pole(u: CycloNumber, f: tuple[Rat, Rat]) -> Optional[int]:
    """The integer n with u q^F(n) = 1, F(n) = f[0] n + f[1], or None: the
    term of bilateral_sum whose denominator 1 - u q^F(n) is exactly zero."""
    n = Fraction(-f[1], f[0] or 1) if u == 1 else None
    return int(n) if n is not None and n.denominator == 1 and f[0] * n + f[1] == 0 else None


def bilateral_sum(
    c: Union[CycloNumber, Rat],
    e: tuple[Rat, Rat, Rat],
    order: Rat,
    denom: int = 1,
    field_order: int = 1,
    u: Optional[CycloNumber] = None,
    f: tuple[Rat, Rat] = (0, 0),
) -> QSeries:
    """The sum over all integers n of c^n q^E(n) / (1 - u q^F(n)) below
    q^order, E(n) = e2 n^2 + e1 n + e0 (e2 > 0) and F(n) = f1 n + f0 taking
    integer values on the grid 1/denom; without u (and F), the sum of c^n q^E(n).

    E(-1), E(0), E(1), F(0) and F(1), read off the inputs in one pass, fix
    every exponent as a grid integer.  A term's valuation E(n) + max(0, -F(n))
    is convex, so the scan walks out from its integer minimizer until it
    reaches the order on each side.  Term n is a geometric run of c^n times
    the weights u^j at E + jF when F > 0, -u^(-1-j) at E - (j+1)F when F < 0,
    1/(1 - u) at E when F = 0, added into the sum's row every |F| grid
    steps.  The powers of c, 1/c, u and 1/u are coeff._powers rows, and the
    sum's row is put over the lcm of their denominators once.  The field is
    field_order, lifted to those of c and u once a term falls below the
    order.  A term with a zero denominator raises, wherever it lies.
    """
    if u is not None and bilateral_pole(u, f) is not None:
        raise NonGenericError("pole 1/(1 - u) with u exactly 1")
    c = c if isinstance(c, CycloNumber) else cyclo_embed(c, 1)
    q = lcm(*(x.denominator for x in (*e, *f)))
    a2, a1, a0, b1, b0 = (x.numerator * (q // x.denominator) * denom for x in (*e, *f))
    ints = (a2 - a1 + a0, a0, a2 + a1 + a0, b0, b1 + b0)
    if bad := [x for x in ints if x % q]:
        raise ValueError(f"exponent {Fraction(bad[0], q * denom)} is off the grid 1/{denom}")
    em, ez, ep, fz, fp = (x // q for x in ints)
    s1, s2, fs, P = ep - em, ep - 2 * ez + em, fp - fz, grid_prec(order, denom)
    if s2 <= 0:
        raise ValueError("a bilateral sum needs a positive quadratic exponent")
    # the real minimizer is a vertex of E or of E - F, or the kink F = 0
    kinks = ((-s1, 2 * s2), (2 * fs - s1, 2 * s2), (-fz, fs or 1))
    n0 = min({m for a, b in kinks for m in (a // b, -(-a // b))},
             key=lambda n: ez + n * (s1 + n * s2) // 2 + max(0, -fz - n * fs))
    # (n, first slot, step, length, sign of F) of each term below P
    runs = []
    for n, step in ((n0, 1), (n0 - 1, -1)):
        while (a := ez + n * (s1 + n * s2) // 2) + max(0, -(b := fz + n * fs)) < P:
            first = a if b >= 0 else a - b
            runs.append((n, first, abs(b), (P - first - 1) // abs(b) + 1 if b else 1, (b > 0) - (b < 0)))
            n += step
    if not runs:
        return _zero(denom, P, field_order)
    M = lcm(field_order, c.order, 1 if u is None else u.order)
    c = lift_order(c, M)
    # c^n at slot n of one row for n >= 0, at slot ~n = -n-1 of the other for n < 0
    ns = [run[0] for run in runs]
    powers = _powers(c, 0, max(max(ns) + 1, 1)), _powers(c.inv(), 1, max(-min(ns), 1))
    rows = {}
    for sign in {run[4] for run in runs}:
        x = lift_order(u if sign > 0 else u.inv(), M) if sign else (
            cyclo_one(M) if u is None else (1 - lift_order(u, M)).inv())
        cols, wden = _powers(x, int(sign <= 0), max(run[3] for run in runs if run[4] == sign))
        rows[sign] = [(b, col) for b, col in enumerate(cols) if any(col)], wden
    lo = min(run[1] for run in runs)
    check_window(denom, P - min(lo, 0))
    den = lcm(*{powers[n < 0][1] * rows[sign][1] for n, _, _, _, sign in runs})
    acc = [[0] * (P - lo) for _ in range(2 * len(c.num) - 1)]
    for n, first, step, count, sign in runs:
        (cols, cden), (wcols, wden) = powers[n < 0], rows[sign]
        # (sign or 1): the weights of F < 0 are -u^(-1-j)
        f, i, step = den // (cden * wden) * (sign or 1), first - lo, step or 1
        stop = i + (count - 1) * step + 1
        for a, col in enumerate(cols):
            if y := f * col[max(n, ~n)]:
                for b, w in wcols:
                    dst = acc[a + b]
                    dst[i:stop:step] = [s + y * t for s, t in zip(dst[i:stop:step], w)]
    return _row(denom, P, M, lo, _reduce_rows(M, acc), den)


__all__ = [
    "Monomial",
    "QSeries",
    "align",
    "bilateral_pole",
    "bilateral_sum",
    "check_window",
    "const_series",
    "from_monomial",
    "geom_inverse",
    "grid_prec",
    "q_power",
    "series_add",
    "series_div",
    "series_eq_to_order",
    "series_invert",
    "series_mul",
    "series_neg",
    "series_pow",
    "series_scale",
    "series_shift",
    "series_sub",
    "series_sum",
    "zero_series",
]
