"""Exact arithmetic in cyclotomic fields Q(zeta_M).

A CycloNumber is a polynomial in zeta_M = exp(2*pi*i/M), reduced modulo the
M-th cyclotomic polynomial Phi_M, with arbitrary-precision rational
coefficients.  The representation is canonical: equality of field elements
is equality of coefficient vectors (after lifting to a common order).

All roots of unity, i = zeta_4, rational constants, and the exact values
sin(pi*a/c), csc(pi*a/c) live here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from ._rat import Q, to_frac
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


@lru_cache(maxsize=None)
def cyclotomic_poly(M: int) -> tuple[int, ...]:
    """Coefficients of Phi_M, ascending degree, monic.

    Computed by dividing x^M - 1 by the Phi_d of all proper divisors d of M.
    """
    if M < 1:
        raise ValueError("order must be positive")
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


@lru_cache(maxsize=None)
def _power_table(M: int) -> tuple[tuple[int, ...], ...]:
    """x^k mod Phi_M for k = 0 .. max(M-1, 2*phi(M)-2), integer vectors."""
    phi = euler_phi(M)
    top = tuple(-c for c in cyclotomic_poly(M)[:phi])  # x^phi mod Phi_M
    rows = [tuple(1 if i == k else 0 for i in range(phi)) for k in range(phi)]
    for _ in range(phi, max(M, 2 * phi - 1)):
        prev = rows[-1]
        carry = prev[phi - 1]
        shifted = [0] + list(prev[:-1])
        if carry:
            shifted = [s + carry * t for s, t in zip(shifted, top)]
        rows.append(tuple(shifted))
    return tuple(rows)


def _reduce_poly(M: int, dense: Sequence) -> tuple:
    """Reduce an arbitrary-degree coefficient list modulo Phi_M."""
    phi = euler_phi(M)
    out = list(dense[:phi]) + [0] * max(0, phi - len(dense))
    if len(dense) > phi:
        table = _power_table(M)
        for k in range(phi, len(dense)):
            c = dense[k]
            if c:
                row = table[k]
                for i in range(phi):
                    if row[i]:
                        out[i] = out[i] + c * row[i]
    return tuple(Q(c) for c in out)


# ---------------------------------------------------------------------------
# CycloNumber
# ---------------------------------------------------------------------------


class CycloNumber:
    """Element of Q(zeta_M), canonical mod-Phi_M coefficient vector.

    Immutable; arithmetic requires both operands to share the order M
    (use `lift_order` to rebase).  Mixed arithmetic with int / Fraction
    embeds the rational on the fly.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence, _checked: bool = False):
        if not _checked:
            if order < 1:
                raise ValueError("order must be positive")
            coeffs = tuple(Q(c) for c in coeffs)
            if len(coeffs) != euler_phi(order):
                raise ValueError(
                    f"expected {euler_phi(order)} coefficients for order {order}"
                )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("CycloNumber is immutable")

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        """The value as a Fraction; raises if not rational."""
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return to_frac(self.coeffs[0])

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def key(self) -> tuple:
        """Hashable identity for use as a cache key."""
        return (self.order, self.coeffs)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloNumber):
            if other.order != self.order:
                raise OrderMismatchError(
                    f"field orders differ: {self.order} vs {other.order}"
                )
            return other
        if isinstance(other, (int, Fraction)) or type(other) is type(Q(0)):
            return cyclo_embed(other, self.order)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloNumber(
            self.order,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
            _checked=True,
        )

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber(self.order, tuple(-a for a in self.coeffs), _checked=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloNumber(
            self.order,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
            _checked=True,
        )

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        # rational scaling fast path (covers the vast majority of products)
        if not any(b[1:]):
            s = b[0]
            if not s:
                return zero(self.order)
            return CycloNumber(self.order, tuple(c * s for c in a), _checked=True)
        if not any(a[1:]):
            s = a[0]
            if not s:
                return zero(self.order)
            return CycloNumber(self.order, tuple(c * s for c in b), _checked=True)
        n = len(a)
        dense = [Q(0)] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        dense[i + j] += ai * bj
        return CycloNumber(self.order, _reduce_poly(self.order, dense), _checked=True)

    __rmul__ = __mul__

    def inv(self) -> "CycloNumber":
        """Multiplicative inverse via the extended Euclidean algorithm
        against Phi_M."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.is_rational():
            return cyclo_embed(Fraction(1) / to_frac(self.coeffs[0]), self.order)
        g, s = _xgcd_mod_phi(list(self.coeffs), self.order)
        # g is a nonzero constant; divide it out
        ginv = Q(1) / g
        dense = [c * ginv for c in s]
        return CycloNumber(self.order, _reduce_poly(self.order, dense), _checked=True)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

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
        if isinstance(other, (int, Fraction)) or type(other) is type(Q(0)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CycloNumber):
            return NotImplemented
        if self.order == other.order:
            return self.coeffs == other.coeffs
        m = self.order * other.order // gcd(self.order, other.order)
        return lift_order(self, m).coeffs == lift_order(other, m).coeffs

    __hash__ = None  # cross-order equality makes a consistent hash impractical

    # -- lifting and automorphisms -------------------------------------------

    def lift(self, new_order: int) -> "CycloNumber":
        return lift_order(self, new_order)

    def galois(self, t: int) -> "CycloNumber":
        """Image under zeta_M -> zeta_M^t (requires gcd(t, M) = 1)."""
        M = self.order
        t %= M
        if gcd(t, M) != 1:
            raise ValueError(f"zeta -> zeta^{t} is not an automorphism of Q(zeta_{M})")
        table = _power_table(M)
        phi = euler_phi(M)
        dense = [Q(0)] * phi
        for j, c in enumerate(self.coeffs):
            if c:
                row = table[(j * t) % M]
                for i in range(phi):
                    if row[i]:
                        dense[i] += c * row[i]
        return CycloNumber(M, tuple(dense), _checked=True)

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.coeffs[0])
        var = f"z{self.order}"
        parts: list[str] = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
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


def _xgcd_mod_phi(a: list, M: int):
    """Extended Euclid over Q[x]: returns (g, s) with s*a = g mod Phi_M,
    g a nonzero rational constant (Phi_M is irreducible over Q)."""

    def trim(p):
        while p and not p[-1]:
            p.pop()
        return p

    def divmod_poly(num, den):
        num = list(num)
        q = [Q(0)] * max(1, len(num) - len(den) + 1)
        inv_lead = Q(1) / den[-1]
        for k in range(len(num) - len(den), -1, -1):
            c = num[k + len(den) - 1] * inv_lead
            q[k] = c
            if c:
                for i, d in enumerate(den):
                    num[k + i] -= c * d
        return q, trim(num)

    r0 = [Q(c) for c in cyclotomic_poly(M)]
    r1 = trim([Q(c) for c in a])
    s0, s1 = [Q(0)], [Q(1)]
    while len(r1) > 1:
        quot, rem = divmod_poly(r0, r1)
        r0, r1 = r1, rem
        prod = [Q(0)] * (len(quot) + len(s1) - 1)
        for i, qi in enumerate(quot):
            if qi:
                for j, sj in enumerate(s1):
                    if sj:
                        prod[i + j] += qi * sj
        new_s = [Q(0)] * max(len(s0), len(prod))
        for i, c in enumerate(s0):
            new_s[i] += c
        for i, c in enumerate(prod):
            new_s[i] -= c
        s0, s1 = s1, trim(new_s)
    if not r1:
        raise ZeroDivisionError("element shares a factor with Phi_M (impossible)")
    return r1[0], s1


# ---------------------------------------------------------------------------
# Constructors and the functional API
# ---------------------------------------------------------------------------

_ZERO_CACHE: dict[int, CycloNumber] = {}
_ONE_CACHE: dict[int, CycloNumber] = {}


def zero(M: int) -> CycloNumber:
    z = _ZERO_CACHE.get(M)
    if z is None:
        z = CycloNumber(M, (Q(0),) * euler_phi(M), _checked=True)
        _ZERO_CACHE[M] = z
    return z


def one(M: int) -> CycloNumber:
    z = _ONE_CACHE.get(M)
    if z is None:
        z = cyclo_embed(1, M)
        _ONE_CACHE[M] = z
    return z


def cyclo_embed(r: RatLike, M: int) -> CycloNumber:
    """The rational constant r as an element of Q(zeta_M)."""
    phi = euler_phi(M)
    return CycloNumber(M, (Q(r),) + (Q(0),) * (phi - 1), _checked=True)


def zeta_power(M: int, k: int) -> CycloNumber:
    """zeta_M^k in canonical form; depends only on k mod M."""
    row = _power_table(M)[k % M]
    return CycloNumber(M, tuple(Q(c) for c in row), _checked=True)


def lift_order(a: CycloNumber, new_order: int) -> CycloNumber:
    """Rewrite a in Q(zeta_{M'}) via zeta_M = zeta_{M'}^(M'/M); M must divide M'."""
    M = a.order
    if new_order == M:
        return a
    if new_order % M != 0:
        raise OrderMismatchError(f"{M} does not divide {new_order}")
    if a.is_rational():
        return cyclo_embed(to_frac(a.coeffs[0]), new_order)
    step = new_order // M
    table = _power_table(new_order)
    phi = euler_phi(new_order)
    dense = [Q(0)] * phi
    for j, c in enumerate(a.coeffs):
        if c:
            row = table[j * step]
            for i in range(phi):
                if row[i]:
                    dense[i] += c * row[i]
    return CycloNumber(new_order, tuple(dense), _checked=True)


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
