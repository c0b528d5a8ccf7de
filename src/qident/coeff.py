"""Exact arithmetic in cyclotomic fields Q(zeta_M).

A CycloNumber is a polynomial in zeta_M = exp(2*pi*i/M), reduced modulo the
M-th cyclotomic polynomial Phi_M, stored as phi(M) integer numerators `num`
over one positive denominator `den`, always in lowest terms, with zero
stored as (0, ..., 0)/1.  The representation is canonical: equality of
field elements is equality of (num, den) (after lifting to a common order),
and every sum and product is Python-int arithmetic followed by at most one
gcd.

Every product takes one step, _times_zeta (v -> v zeta_M: a shift of the
numerators, the top one folded back by Phi_M's coefficients): a product
sums x_a (y zeta^a), the power table is the orbit of 1, and column j of
a multiplication table is column j - 1 times zeta.  A rational times a
root of unity is inverted by finding its row in the power table; any
other number through its norm.

A CycloNumber is a scalar: a coefficient read out of a series, a
monomial's coefficient, a memo key, a verdict's witness.  Series store
their coefficients as integer rows and never build one per coefficient;
the row tables _times_table and _lift_table, a scalar's powers as rows
(_powers) and the reduction of rows mod Phi_M (_reduce_rows) live here.

All roots of unity, i = zeta_4, rational constants, and the exact values
sin(pi*a/c), csc(pi*a/c) live here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Sequence, Union

from .errors import OrderMismatchError

RatLike = Union[int, Fraction]


# ---------------------------------------------------------------------------
# Cyclotomic polynomials Phi_M over the integers
# ---------------------------------------------------------------------------


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (ascending coefficients)."""
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    quot = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = num[k + dd] // den[dd]
        quot[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return quot


# The largest M whose Phi_M is built: Phi_20000 alone takes seconds, and the
# built-in corpus needs M up to 20.
MAX_FIELD_ORDER = 1000

# The most bits a printed integer may have: under 4,300 digits, CPython's
# limit on converting an int to a string (which 3.10 before 3.10.7 lacks).
MAX_COEFF_BITS = 14000


@lru_cache(maxsize=None)
def cyclotomic_poly(M: int) -> tuple[int, ...]:
    """Coefficients of Phi_M, ascending degree, monic.

    Computed by dividing x^M - 1 by the Phi_d of all proper divisors d of M.
    """
    if M < 1:
        raise ValueError("order must be positive")
    if M > MAX_FIELD_ORDER:
        raise ValueError(f"field order {M} exceeds MAX_FIELD_ORDER = {MAX_FIELD_ORDER}")
    if M == 1:
        return (-1, 1)
    poly = [0] * (M + 1)
    poly[0], poly[M] = -1, 1
    for d in range(1, M):
        if M % d == 0:
            poly = _poly_div_exact(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def euler_phi(M: int) -> int:
    return len(cyclotomic_poly(M)) - 1


def _times_zeta(M: int, v: Sequence[int]) -> list[int]:
    """v * zeta_M: the numerators shifted up one place, the top one folded
    back by Phi_M (zeta^phi = -(c_0 + c_1 zeta + ...) for Phi_M's c_i)."""
    out, top = [0, *v[:-1]], v[-1]
    return [x - top * c for x, c in zip(out, cyclotomic_poly(M))] if top else out


@lru_cache(maxsize=None)
def _power_table(M: int) -> tuple[tuple[int, ...], ...]:
    """zeta_M^k for k = 0 .. max(M-1, 2*phi(M)-2): the orbit of 1 under _times_zeta."""
    rows, v = [], [1] + [0] * (euler_phi(M) - 1)
    for _ in range(max(M, 2 * len(v) - 1)):
        rows.append(tuple(v))
        v = _times_zeta(M, v)
    return tuple(rows)


# ---------------------------------------------------------------------------
# CycloNumber
# ---------------------------------------------------------------------------


class CycloNumber:
    """Element of Q(zeta_M): integer numerators num over den > 0, lowest terms.

    Immutable; arithmetic requires both operands to share the order M
    (use `lift_order` to rebase).  Mixed arithmetic with int / Fraction
    embeds the rational on the fly.  `coeffs` is the read-only Fraction
    view of the coefficient vector.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs: Sequence[RatLike]):
        if order < 1:
            raise ValueError("order must be positive")
        fr = [Fraction(c) for c in coeffs]
        if len(fr) != euler_phi(order):
            raise ValueError(f"expected {euler_phi(order)} coefficients for order {order}")
        den = lcm(*(f.denominator for f in fr))
        z = _make(order, [f.numerator * (den // f.denominator) for f in fr], den)
        _set_order(self, order)
        _set_num(self, z.num)
        _set_den(self, z.den)

    def __setattr__(self, name, value):
        raise AttributeError("CycloNumber is immutable")

    # -- basic queries ------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        """The value as a Fraction; raises if not rational."""
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def key(self) -> tuple:
        """Hashable identity for use as a cache key."""
        return (self.order, self.num, self.den)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloNumber):
            if other.order != self.order:
                raise OrderMismatchError(
                    f"field orders differ: {self.order} vs {other.order}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return cyclo_embed(other, self.order)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return _make(self.order, [x + y for x, y in zip(self.num, other.num)], da)
        return _make(
            self.order, [x * db + y * da for x, y in zip(self.num, other.num)], da * db
        )

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.order, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        M, x, y = self.order, self.num, other.num
        if not any(x[1:]):
            x, y = y, x
        if not any(y[1:]):  # a rational factor scales
            return _make(M, [v * y[0] for v in x], self.den * other.den)
        acc = [0] * len(x)
        for a in x:  # the sum of x_a (y zeta^a)
            if a:
                acc = [s + a * t for s, t in zip(acc, y)]
            y = _times_zeta(M, y)
        return _make(M, acc, self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "CycloNumber":
        """Multiplicative inverse.  A rational r times a power zeta^k, found
        among the rows of _power_table, inverts to zeta^-k / r; otherwise the
        product c of the other Galois conjugates makes self * c the norm, a
        nonzero rational."""
        M, num = self.order, self.num
        if not any(num):
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        g, powers = gcd(*num), _power_table(M)
        for r in (g, -g):
            unit = tuple(x // r for x in num)
            if unit in powers:  # self = (r / den) zeta^k, so 1/self = (den / r) zeta^-k
                k = powers.index(unit)
                return _make(M, [r // g * self.den * x for x in powers[-k % M]], g)
        c = one(M)
        for t in range(2, M):
            if gcd(t, M) == 1:
                c = c * self.galois(t)
        norm = self * c
        return c * cyclo_embed(Fraction(norm.den, norm.num[0]), M)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("cyclotomic powers take integer exponents")
        base = self if n >= 0 else self.inv()
        n = abs(n)
        result = one(self.order)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- equality (lifts to a common field), no hashing ----------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.num[0] == other * self.den
        if not isinstance(other, CycloNumber):
            return NotImplemented
        if self.order != other.order:
            m = lcm(self.order, other.order)
            self, other = lift_order(self, m), lift_order(other, m)
        return self.num == other.num and self.den == other.den

    __hash__ = None  # cross-order equality makes a consistent hash impractical

    # -- automorphisms --------------------------------------------------------

    def galois(self, t: int) -> "CycloNumber":
        """Image under zeta_M -> zeta_M^t (requires gcd(t, M) = 1)."""
        M = self.order
        t %= M
        if gcd(t, M) != 1:
            raise ValueError(f"zeta -> zeta^{t} is not an automorphism of Q(zeta_{M})")
        return _substitute(self, M, t)

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        coeffs = self.coeffs
        if self.is_rational():
            return str(coeffs[0])
        var = f"z{self.order}"
        parts: list[str] = []
        for k in range(len(coeffs) - 1, -1, -1):
            c = coeffs[k]
            if not c:
                continue
            if k == 0:
                mag = str(abs(c))
            else:
                zk = var if k == 1 else f"{var}^{k}"
                mag = zk if abs(c) == 1 else f"{abs(c)}*{zk}"
            if not parts:
                parts.append(mag if c > 0 else f"-{mag}")
            else:
                parts.append(f" + {mag}" if c > 0 else f" - {mag}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"CycloNumber({self.order}, {tuple(str(c) for c in self.coeffs)})"

    def __reduce__(self):
        return CycloNumber, (self.order, self.coeffs)  # rebuilt, so checked, by __init__


_new = object.__new__
_set_order = CycloNumber.order.__set__
_set_num = CycloNumber.num.__set__
_set_den = CycloNumber.den.__set__


def _raw(M: int, num: tuple[int, ...], den: int) -> CycloNumber:
    """A CycloNumber from numerators and a denominator already in lowest terms."""
    z = _new(CycloNumber)
    _set_order(z, M)
    _set_num(z, num)
    _set_den(z, den)
    return z


def _make(M: int, num: list[int], den: int) -> CycloNumber:
    """num / den (den > 0) brought to lowest terms, with one gcd."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    return _raw(M, tuple(num), den)


def _substitute(a: CycloNumber, M: int, step: int) -> CycloNumber:
    """a with zeta_{a.order} replaced by zeta_M^step, as an element of Q(zeta_M)."""
    table = _power_table(M)
    dense = [0] * euler_phi(M)
    for j, c in enumerate(a.num):
        if c:
            for i, r in enumerate(table[j * step % M]):
                if r:
                    dense[i] += c * r
    return _make(M, dense, a.den)


# ---------------------------------------------------------------------------
# Constructors and the functional API
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def zero(M: int) -> CycloNumber:
    return _raw(M, (0,) * euler_phi(M), 1)


@lru_cache(maxsize=None)
def one(M: int) -> CycloNumber:
    return cyclo_embed(1, M)


def cyclo_embed(r: RatLike, M: int) -> CycloNumber:
    """The rational constant r as an element of Q(zeta_M)."""
    r = Fraction(r)
    return _raw(M, (r.numerator,) + (0,) * (euler_phi(M) - 1), r.denominator)


def zeta_power(M: int, k: int) -> CycloNumber:
    """zeta_M^k in canonical form; depends only on k mod M."""
    return _raw(M, _power_table(M)[k % M], 1)


def lift_order(a: CycloNumber, new_order: int) -> CycloNumber:
    """Rewrite a in Q(zeta_{M'}) via zeta_M = zeta_{M'}^(M'/M); M must divide M'."""
    M = a.order
    if new_order == M:
        return a
    if new_order % M != 0:
        raise OrderMismatchError(f"{M} does not divide {new_order}")
    return _substitute(a, new_order, new_order // M)


@lru_cache(maxsize=1024)
def _times_table(M: int, num: tuple, den: int) -> tuple:
    """Multiplication by num/den in Q(zeta_M) as (pairs, den): component k of
    the product with v is the sum of c v_j over the pairs (j, c) of pairs[k].
    Column j, num zeta^j, is column j - 1 times zeta."""
    cols = [list(num)]
    for _ in num[1:]:
        cols.append(_times_zeta(M, cols[-1]))
    return tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in zip(*cols)), den


@lru_cache(maxsize=None)
def _lift_table(M: int, field: int) -> tuple:
    """The pairs of the embedding of Q(zeta_M) in Q(zeta_field), as _times_table's."""
    images = [lift_order(zeta_power(M, j), field).num for j in range(euler_phi(M))]
    return tuple(tuple((j, v[k]) for j, v in enumerate(images) if v[k]) for k in range(euler_phi(field)))


def _reduce_rows(M: int, acc: list) -> list:
    """The 2 phi(M) - 1 rows of the powers zeta_M^k, k < 2 phi(M) - 1, of
    an unreduced product brought mod Phi_M to phi(M) rows."""
    phi = (len(acc) + 1) // 2
    table = _power_table(M)
    for k in range(phi, len(acc)):
        if any(acc[k]):
            for t, r in enumerate(table[k]):
                if r:
                    acc[t] = [u + r * v for u, v in zip(acc[t], acc[k])]
    return acc[:phi]


def _powers(x: CycloNumber, lo: int, count: int) -> tuple:
    """(cols, den): x^(lo + j) at slot j < count, as phi(M) lists over
    den = x.den^(lo + count - 1): a running power of x's numerators, slot j
    scaled by x.den^(count - 1 - j).  When den is 1 and the power is back
    at x^lo after k steps, x^k = 1 (or x = 0 with lo = 1): the powers
    repeat with period k, and the k slots made are tiled out to count."""
    pairs, d = _times_table(x.order, x.num, 1)[0], x.den
    v = first = list(x.num) if lo else [1] + [0] * (len(x.num) - 1)
    cols, scale = [[] for _ in v], d ** (count - 1)
    for k in range(1, count + 1):
        for col, y in zip(cols, v):
            col.append(scale * y)
        v, scale = [sum([c * v[j] for j, c in ps]) for ps in pairs], scale // d
        if d == 1 and v == first:
            return [(col * -(-count // k))[:count] for col in cols], 1
    return cols, d ** (lo + count - 1)


def sin_pi(a: int, c: int, M: int) -> CycloNumber:
    """sin(pi*a/c) = (zeta_{2c}^a - zeta_{2c}^{-a}) / (2i), exactly.

    Requires 0 < a < c and lcm(4, 2c) | M.
    """
    if not 0 < a < c:
        raise ValueError("need 0 < a < c")
    need = lcm(4, 2 * c)
    if M % need != 0:
        raise ValueError(f"field order {M} not divisible by lcm(4, 2c) = {need}")
    s = zeta_power(M, a * (M // (2 * c)))
    i_unit = zeta_power(M, M // 4)
    return (s - s.inv()) * (i_unit * 2).inv()


def csc_pi(a: int, c: int, M: int) -> CycloNumber:
    """csc(pi*a/c) = 1 / sin(pi*a/c); nonzero for 0 < a < c."""
    return sin_pi(a, c, M).inv()
