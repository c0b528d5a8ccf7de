"""Truncated Puiseux series with cyclotomic coefficients.

A QSeries stores finitely many terms c * q^(k/D) in a sparse map from the
integer grid index k to a nonzero CycloNumber c, together with the grid
denominator D, the shared coefficient field order M, and a precision P:
every coefficient with k < P is guaranteed correct, everything at or
beyond P is unknown.  Negative k is allowed (Laurent behavior).

Precision propagates through arithmetic by the min/valuation rules below,
so a comparison can never silently read coefficients outside the
guaranteed window.  Every quotient is one long division, series_div,
which walks only the residue classes its divisor reaches; series_invert
and geom_inverse (1/(1 - u), u a monomial) wrap it.
Every theta function and bilateral Lambert sum is one integer-grid scan,
bilateral_sum.  Each coefficient of a product, a quotient or a bilateral
sum is summed by one fused coeff.dot.  QSeries has no operators.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, gcd, lcm
from typing import Iterable, Optional, Union

from .coeff import CycloNumber, cyclo_embed, dot, lift_order, one as cyclo_one, zero as cyclo_zero
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

# The most grid steps a window may span: order times D for a series, and
# from its lowest slot to its order for a dense term row.
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
    """Sparse truncated series; immutable by convention."""

    __slots__ = ("denom", "prec", "terms", "field_order")

    def __init__(
        self,
        denom: int,
        prec: int,
        terms: dict[int, CycloNumber],
        field_order: int,
        _checked: bool = False,
    ):
        check_window(denom, prec)
        if not _checked:
            if denom < 1:
                raise ValueError("grid denominator must be positive")
            terms = {
                k: c for k, c in terms.items() if k < prec and not c.is_zero()
            }
            for k, c in terms.items():
                if c.order != field_order:
                    raise ValueError("coefficient field order mismatch")
        self.denom = denom
        self.prec = prec
        self.terms = terms
        self.field_order = field_order

    # -- queries --------------------------------------------------------------

    def is_zero(self) -> bool:
        """Zero to the guaranteed precision."""
        return not self.terms

    @property
    def val_grid(self) -> int:
        """Valuation in grid units; precision for a zero-to-order series."""
        return min(self.terms) if self.terms else self.prec

    def valuation(self) -> Optional[Fraction]:
        """Least exponent with nonzero coefficient, None if zero to precision."""
        if not self.terms:
            return None
        return Fraction(min(self.terms), self.denom)

    def prec_order(self) -> Fraction:
        """Exponent bound below which coefficients are guaranteed."""
        return Fraction(self.prec, self.denom)

    def coeff_at(self, e: Rat) -> CycloNumber:
        """Coefficient of q^e; raises when e is outside the guaranteed window."""
        e = _as_frac(e)
        k = e * self.denom
        if e >= self.prec_order():
            raise InsufficientPrecisionError(e, self.prec_order())
        if k.denominator != 1:
            return cyclo_zero(self.field_order)
        return self.terms.get(int(k), cyclo_zero(self.field_order))

    def sorted_terms(self) -> list[tuple[int, CycloNumber]]:
        return sorted(self.terms.items())

    # -- rebasing -------------------------------------------------------------

    def rebase(self, new_denom: int) -> "QSeries":
        """Re-express on a finer grid; new_denom must be a multiple of denom."""
        if new_denom == self.denom:
            return self
        if new_denom % self.denom != 0:
            raise ValueError(f"{self.denom} does not divide {new_denom}")
        f = new_denom // self.denom
        return QSeries(
            new_denom,
            self.prec * f,
            {k * f: c for k, c in self.terms.items()},
            self.field_order,
            _checked=True,
        )

    def lift_field(self, new_order: int) -> "QSeries":
        if new_order == self.field_order:
            return self
        return QSeries(
            self.denom,
            self.prec,
            {k: lift_order(c, new_order) for k, c in self.terms.items()},
            new_order,
            _checked=True,
        )

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return f"O(q^({self.prec_order()}))"
        bits = []
        for k, c in self.sorted_terms():
            e = Fraction(k, self.denom)
            cs = str(c) if c.is_rational() else f"({c})"
            if e == 0:
                bits.append(cs)
            else:
                qs = f"q^({e.numerator}/{e.denominator})"
                bits.append(qs if cs == "1" else f"-{qs}" if cs == "-1" else f"{cs}*{qs}")
        return " + ".join(bits) + f" + O(q^({self.prec_order()}))"

    def __repr__(self) -> str:
        return f"<QSeries D={self.denom} M={self.field_order} P={self.prec} terms={len(self.terms)}>"


# ---------------------------------------------------------------------------
# Alignment helpers
# ---------------------------------------------------------------------------


def align(a: QSeries, b: QSeries) -> tuple[QSeries, QSeries]:
    """Bring two series to a common grid denominator and coefficient field."""
    d = a.denom * b.denom // gcd(a.denom, b.denom)
    m = a.field_order * b.field_order // gcd(a.field_order, b.field_order)
    return a.rebase(d).lift_field(m), b.rebase(d).lift_field(m)


def grid_prec(order: Rat, denom: int) -> int:
    """Grid precision index covering all exponents strictly below order."""
    return ceil(_as_frac(order) * denom)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def zero_series(order: Rat, denom: int = 1, field_order: int = 1) -> QSeries:
    return QSeries(denom, grid_prec(order, denom), {}, field_order, _checked=True)


def const_series(
    value: Union[CycloNumber, Rat], order: Rat, denom: int = 1
) -> QSeries:
    if not isinstance(value, CycloNumber):
        value = cyclo_embed(_as_frac(value), 1)
    p = grid_prec(order, denom)
    terms = {} if (value.is_zero() or p <= 0) else {0: value}
    return QSeries(denom, p, terms, value.order, _checked=True)


def from_monomial(m: Monomial, order: Rat) -> QSeries:
    d = m.expo.denominator
    k = int(m.expo * d)
    p = grid_prec(order, d)
    terms = {k: m.coeff} if k < p else {}
    return QSeries(d, p, terms, m.field_order, _checked=True)


def q_power(e: Rat, order: Rat) -> QSeries:
    return from_monomial(Monomial.make(1, e), order)


# ---------------------------------------------------------------------------
# Ring operations
# ---------------------------------------------------------------------------


def series_add(a: QSeries, b: QSeries) -> QSeries:
    return series_sum(a, (b,))


def series_sum(total: QSeries, terms: Iterable[QSeries]) -> QSeries:
    """total plus every series in terms, accumulated in one dict owned by
    the loop rather than a copy of the running total per term.

    Each term is rebased to the total's grid and field as align does (the
    total first, when a term needs a finer grid or a larger field), and the
    precision is the minimum over all of them.
    """
    d, m, p = total.denom, total.field_order, total.prec
    out = dict(total.terms)
    for t in terms:
        if t.denom != d or t.field_order != m:
            d2, m2 = lcm(d, t.denom), lcm(m, t.field_order)
            if (d2, m2) != (d, m):
                acc = QSeries(d, p, out, m, _checked=True).rebase(d2).lift_field(m2)
                d, m, p, out = d2, m2, acc.prec, acc.terms
            t = t.rebase(d).lift_field(m)
        p = min(p, t.prec)
        for k, c in t.terms.items():
            s = out.get(k)
            if s is None:
                out[k] = c
            else:
                s = s + c
                if s:
                    out[k] = s
                else:
                    del out[k]
    return QSeries(d, p, {k: c for k, c in out.items() if k < p}, m, _checked=True)


def series_neg(a: QSeries) -> QSeries:
    return QSeries(
        a.denom,
        a.prec,
        {k: -c for k, c in a.terms.items()},
        a.field_order,
        _checked=True,
    )


def series_sub(a: QSeries, b: QSeries) -> QSeries:
    return series_add(a, series_neg(b))


def series_scale(a: QSeries, c: Union[CycloNumber, Rat]) -> QSeries:
    """Multiply by an exact scalar; precision is unchanged, and a scalar 1
    returns a, lifted to c's field."""
    if not isinstance(c, CycloNumber):
        c = cyclo_embed(_as_frac(c), a.field_order)
    m = a.field_order
    if c.order != m:
        m = c.order * m // gcd(c.order, m)
        c = lift_order(c, m)
        a = a.lift_field(m)
    if c.is_one():
        return a
    if c.is_zero():
        return QSeries(a.denom, a.prec, {}, m, _checked=True)
    return QSeries(
        a.denom, a.prec, {k: v * c for k, v in a.terms.items()}, m, _checked=True
    )


def series_mul(a: QSeries, b: QSeries) -> QSeries:
    a, b = align(a, b)
    # unknown tail of one factor meets the leading term of the other
    p = min(a.prec + b.val_grid, b.prec + a.val_grid)
    if len(a.terms) > len(b.terms):
        a, b = b, a
    bs = sorted(b.terms.items())
    pairs: dict[int, list] = {}
    for ka, ca in a.terms.items():
        top = p - ka
        for kb, cb in bs:
            if kb >= top:
                break
            pairs.setdefault(ka + kb, []).append((ca, cb))
    m = a.field_order
    out = {k: c for k, ps in pairs.items() if (c := dot(m, ps))}
    return QSeries(a.denom, p, out, m, _checked=True)


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
    """m.coeff * q^(m.expo) * a, rebasing the grid as needed."""
    d = a.denom * m.expo.denominator // gcd(a.denom, m.expo.denominator)
    a = series_scale(a.rebase(d), m.coeff)
    s = int(m.expo * d)
    return QSeries(
        d,
        a.prec + s,
        {k + s: c for k, c in a.terms.items()},
        a.field_order,
        _checked=True,
    )


def series_div(a: QSeries, b: QSeries) -> QSeries:
    """a / b by long division from the valuations:
    c_n = (a_n - sum over j >= 1 of b_j c_{n-j}) / b_0, with the b_j
    negated, and divided by b_0 unless b_0 is 1, once up front.  c_n reads
    only c_{n-j} for the tail offsets j of b, so the walk climbs in steps of
    their gcd g through each residue class that holds an exponent of a and
    skips the rest (a monomial b has no tail: g spans the whole window).

    With v the valuation of b, c_n needs a at n + v and b as far past its
    lead as n is past the quotient's valuation val(a) - v, so the quotient
    is guaranteed below min(a.prec - v, b.prec - 2v + val(a)).  A divisor
    that is zero to its precision is a non-generic specialization and
    raises.
    """
    if not b.terms:
        raise NonGenericError(
            f"cannot divide by a series that is zero to its precision O(q^({b.prec_order()}))"
        )
    a, b = align(a, b)
    v, va = b.val_grid, a.val_grid
    lo = va - v
    p = min(a.prec - v, b.prec - 2 * v + va)
    lead = b.terms[v]
    scale = None if lead.is_one() else lead.inv()
    tail = sorted(
        (k - v, -c if scale is None else -(c * scale)) for k, c in b.terms.items() if k != v
    )
    out: dict[int, CycloNumber] = {}
    m = a.field_order
    g = gcd(*(j for j, _ in tail)) or max(p - lo, 1)
    for n in (n for r in {(k - v - lo) % g for k in a.terms} for n in range(lo + r, p, g)):
        s = a.terms.get(n + v)
        if s is not None and scale is not None:
            s = s * scale
        pairs = []
        for j, c in tail:
            if j > n - lo:
                break
            t = out.get(n - j)
            if t is not None:
                pairs.append((c, t))
        if pairs:
            s = dot(m, pairs, s)
        if s:
            out[n] = s
    return QSeries(a.denom, p, out, m, _checked=True)


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
    return QSeries(
        a.denom,
        p,
        {k: c for k, c in a.terms.items() if k < p},
        a.field_order,
        _checked=True,
    )


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
    """Compare all coefficients with exponent strictly below order.

    Raises InsufficientPrecisionError when either side's guaranteed window
    is too shallow for the request; the caller must recompute deeper.
    """
    order = _as_frac(order)
    a, b = align(a, b)
    need = order * a.denom
    short = min(a.prec, b.prec)
    if short < need:
        raise InsufficientPrecisionError(order, Fraction(short, a.denom))
    diff_keys = set(a.terms) | set(b.terms)
    bad = None
    for k in diff_keys:
        if k >= need:
            continue
        if a.terms.get(k) != b.terms.get(k):
            if bad is None or k < bad:
                bad = k
    if bad is None:
        return Verdict(PASS, order)
    za = a.terms.get(bad, cyclo_zero(a.field_order))
    zb = b.terms.get(bad, cyclo_zero(b.field_order))
    return Verdict(
        FAIL,
        order,
        first_bad_exponent=Fraction(bad, a.denom),
        lhs_coeff=za,
        rhs_coeff=zb,
    )


# ---------------------------------------------------------------------------
# Bilateral sums: theta functions and Lambert series
# ---------------------------------------------------------------------------


def bilateral_pole(u: CycloNumber, f: tuple[Rat, Rat]) -> Optional[int]:
    """The integer n with u q^F(n) = 1, F(n) = f[0] n + f[1], or None: the
    term of bilateral_sum whose denominator 1 - u q^F(n) is exactly zero."""
    n = Fraction(-f[1], f[0] or 1)
    return int(n) if u == 1 and n.denominator == 1 and f[0] * n + f[1] == 0 else None


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

    A term's valuation E(n) + max(0, -F(n)) is convex, so the scan walks
    out from its integer minimizer until it reaches the order on each side,
    with c^n a running power.  Term n is a geometric run of (c^n, weight)
    pairs into one map: u^j at E + jF when F > 0, -u^(-1-j) at E - (j+1)F
    when F < 0, 1/(1 - u) at E when F = 0.  Each coefficient is one
    coeff.dot.  The field is field_order, lifted to those of c and u once
    a term falls below the order.  A term with a zero denominator raises,
    wherever it lies.
    """
    if u is not None and bilateral_pole(u, f) is not None:
        raise NonGenericError("pole 1/(1 - u) with u exactly 1")
    if not isinstance(c, CycloNumber):
        c = cyclo_embed(_as_frac(c), 1)

    def grid(x: Rat) -> int:
        if (_as_frac(x) * denom).denominator != 1:
            raise ValueError(f"exponent {x} is off the grid 1/{denom}")
        return int(x * denom)

    # integer values at -1, 0, 1 fix the grid exponents of E at every n
    em, ez, ep = (grid(e[0] * n * n + e[1] * n + e[2]) for n in (-1, 0, 1))
    s1, s2 = ep - em, ep - 2 * ez + em
    if s2 <= 0:
        raise ValueError("a bilateral sum needs a positive quadratic exponent")
    fz, fs = grid(f[1]), grid(f[0] + f[1]) - grid(f[1])

    def E(n: int) -> int:
        return ez + n * (s1 + n * s2) // 2

    def F(n: int) -> int:
        return fz + n * fs

    P = grid_prec(order, denom)
    # the real minimizer is a vertex of E or of E - F, or the kink F = 0
    kinks = [Fraction(-s1, 2 * s2), Fraction(2 * fs - s1, 2 * s2), Fraction(-fz, fs or 1)]
    n0 = min({m for x in kinks for m in (floor(x), ceil(x))}, key=lambda n: E(n) + max(0, -F(n)))

    M = lcm(field_order, c.order, 1 if u is None else u.order)
    c = lift_order(c, M)
    # each weight table with the ratio that extends it; F = 0 weighs 1 without u
    flat = ([cyclo_one(M)], None)
    if u is not None:
        u = lift_order(u, M)
        uinv = u.inv()
        up, down = ([cyclo_one(M)], u), ([-uinv], uinv)
        if u != 1:
            flat = ([(1 - u).inv()], None)
    pairs: dict[int, list] = {}
    cinv, start = c.inv(), c**n0
    for n, step, r, cn in ((n0, 1, c, start), (n0 - 1, -1, cinv, start * cinv)):
        while (a := E(n)) + max(0, -(b := F(n))) < P:
            if b > 0:
                keys, (ws, g) = range(a, P, b), up
            elif b < 0:
                keys, (ws, g) = range(a - b, P, -b), down
            else:
                keys, (ws, g) = (a,), flat
            while len(ws) < len(keys):
                ws.append(ws[-1] * g)
            for k, w in zip(keys, ws):
                pairs.setdefault(k, []).append((cn, w))
            n, cn = n + step, cn * r
    out = {k: s for k, ps in pairs.items() if (s := dot(M, ps))}
    return QSeries(denom, P, out, M if pairs else field_order, _checked=True)


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
