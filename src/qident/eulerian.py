"""Eulerian q-hypergeometric sums and bilateral Lambert series.

Each Eulerian series is stated in its product form, the sum over n of
c^n q^E(n) times Pochhammer symbols (y; q^p)_(an+b)^(+-1), with E quadratic:
its builder passes c, the coefficients of E and a table of factors
(y, p, a, b, s) to special._term_sum, which reads the first term and the
term ratio off that table.  Each bilateral Lambert series is one
series.bilateral_sum scan.  Exact pole prechecks reject the parameter
values where a denominator factor vanishes identically.  The paper's
root-of-unity combinations of these series, K-tilde and H-tilde, are
expression-language definitions in dsl.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

from .coeff import zeta_power
from .errors import NonGenericError
from .series import Monomial, QSeries, bilateral_sum, series_div
from .special import J, JB, _term_sum, ensure_prec, theta_is_zero

Rat = Union[int, Fraction]


def _q(e: Rat, c: Rat = 1) -> Monomial:
    return Monomial.make(c, e)


def f_c(c: int) -> int:
    """Level constant 2c/gcd(c,4) attached to the modular rescalings.

    Surfaced only as report metadata; nothing in the series arithmetic
    depends on it.
    """
    return 2 * c // gcd(c, 4)


def _reject_pole(x: Monomial, parity: int, label: str):
    """Reject x = q^e with e an integer of the given parity (0 even, 1 odd)."""
    if theta_is_zero(x.times_q(-parity), 2):
        raise NonGenericError(f"{label} has a vanishing denominator at {x}")


# ---------------------------------------------------------------------------
# The individual series: (y, p, a, b, s) stands for (y; q^p)_(an+b)^s
# ---------------------------------------------------------------------------


def phi6(order: Rat) -> QSeries:
    """sum (-1)^n q^(n^2) (q;q^2)_n / (-q;q)_{2n}."""
    factors = ((_q(1), 2, 1, 0, 1), (_q(1, -1), 1, 2, 0, -1))
    return ensure_prec(lambda work: _term_sum(-1, (1, 0, 0), factors, work), order)


def sigma6(order: Rat) -> QSeries:
    """sum q^binom(n+2,2) (-q)_n / (q;q^2)_{n+1}."""
    factors = ((_q(1, -1), 1, 1, 0, 1), (_q(1), 2, 1, 1, -1))
    e = (Fraction(1, 2), Fraction(3, 2), 1)
    return ensure_prec(lambda work: _term_sum(1, e, factors, work), order)


def f3(order: Rat) -> QSeries:
    """sum q^(n^2) / (-q)_n^2."""
    factors = ((_q(1, -1), 1, 1, 0, -1),) * 2
    return ensure_prec(lambda work: _term_sum(1, (1, 0, 0), factors, work), order)


def f0_5(order: Rat) -> QSeries:
    """sum q^(n^2) / (-q)_n."""
    factors = ((_q(1, -1), 1, 1, 0, -1),)
    return ensure_prec(lambda work: _term_sum(1, (1, 0, 0), factors, work), order)


def kprime(omega: Monomial, order: Rat) -> QSeries:
    """sum (-1)^n q^(n^2) (q;q^2)_n / ((w q^2;q^2)_n (w^-1 q^2;q^2)_n)."""
    # the denominators vanish only at w = q^(2k), k != 0
    if omega != _q(0):
        _reject_pole(omega, 0, "Kprime")
    y0, y1 = omega.times_q(2), omega.inv().times_q(2)
    factors = ((_q(1), 2, 1, 0, 1), (y0, 2, 1, 0, -1), (y1, 2, 1, 0, -1))
    return ensure_prec(lambda work: _term_sum(-1, (1, 0, 0), factors, work), order)


def kprimeprime(omega: Monomial, order: Rat) -> QSeries:
    """sum_{n>=1} (-1)^n q^(n^2) (q;q^2)_{n-1} / ((w q;q^2)_n (w^-1 q;q^2)_n)."""
    _reject_pole(omega, 1, "Kprimeprime")
    y0, y1 = omega.times_q(1), omega.inv().times_q(1)
    factors = ((_q(1), 2, 1, -1, 1), (y0, 2, 1, 0, -1), (y1, 2, 1, 0, -1))
    return ensure_prec(lambda work: _term_sum(-1, (1, 0, 0), factors, work, start=1), order)


def hprime(a: int, c: int, omega: Monomial, order: Rat) -> QSeries:
    """sum q^(n(n+1)/2) (-q)_n / ((w q^(a/c))_{n+1} (w q^(1-a/c))_{n+1})."""
    if not 0 < a < c:
        raise ValueError("need 0 < a < c")
    u0, u1 = omega.times_q(Fraction(a, c)), omega.times_q(1 - Fraction(a, c))
    for u in (u0, u1):
        if u.is_q_power() and u.expo.denominator == 1 and u.expo <= 0:
            raise NonGenericError(f"Hprime has a vanishing denominator at {omega}")
    factors = ((_q(1, -1), 1, 1, 0, 1), (u0, 1, 1, 1, -1), (u1, 1, 1, 1, -1))
    e = (Fraction(1, 2), Fraction(1, 2), 0)
    return ensure_prec(lambda work: _term_sum(1, e, factors, work), order)


def lambert_even_lhs(x: Monomial, order: Rat) -> QSeries:
    """sum (-1)^n q^(n^2) (q;q^2)_n / ((x;q^2)_{n+1} (q^2/x;q^2)_n)."""
    _reject_pole(x, 0, "left side of the even Lambert identity")
    factors = ((_q(1), 2, 1, 0, 1), (x, 2, 1, 1, -1), (x.inv().times_q(2), 2, 1, 0, -1))
    return ensure_prec(lambda work: _term_sum(-1, (1, 0, 0), factors, work), order)


def lambert_odd_lhs(x: Monomial, order: Rat) -> QSeries:
    """(1/x; q)_1 sum (-1)^n q^((n+1)^2) (q;q^2)_n
    / ((xq;q^2)_{n+1} (q/x;q^2)_{n+1}), the factor 1 - 1/x a Pochhammer
    symbol of constant length."""
    _reject_pole(x, 1, "left side of the odd Lambert identity")
    factors = ((x.inv(), 1, 0, 1, 1), (_q(1), 2, 1, 0, 1),
               (x.times_q(1), 2, 1, 1, -1), (x.inv().times_q(1), 2, 1, 1, -1))
    return ensure_prec(lambda work: _term_sum(-1, (1, 2, 1), factors, work), order)


# ---------------------------------------------------------------------------
# Bilateral Lambert series
# ---------------------------------------------------------------------------


def _bilateral(omega: Monomial, k: int, order: Rat, label: str) -> QSeries:
    """(1/JB(1,4)) * sum over all n of q^(2n^2+(2k+1)n+k) / (1 - w q^(2n+k))."""
    _reject_pole(omega, k, label)
    e = omega.expo

    def build(work):
        s = bilateral_sum(1, (2, 2 * k + 1, k), work, e.denominator, omega.field_order, omega.coeff,
                          (2, k + e))
        return series_div(s, JB(1, 4, work))

    return ensure_prec(build, order)


def bilateral_even(omega: Monomial, order: Rat) -> QSeries:
    """(1/JB(1,4)) * sum over all n of q^(2n^2+n) / (1 - w q^(2n))."""
    return _bilateral(omega, 0, order, "even bilateral Lambert sum")


def bilateral_odd(omega: Monomial, order: Rat) -> QSeries:
    """(1/JB(1,4)) * sum over all n of q^(2n^2+3n+1) / (1 - w q^(2n+1))."""
    return _bilateral(omega, 1, order, "odd bilateral Lambert sum")


def habc_sum(a: int, b: int, c: int, order: Rat) -> QSeries:
    """(1/J(1,2)) * sum over all n of (-1)^n q^(n+a/c) q^(n(n+1))
    / (1 - zeta_c^b q^(n+a/c))."""
    if not 0 < a < c:
        raise ValueError("need 0 < a < c")
    ac = Fraction(a, c)
    zb = Monomial(zeta_power(c, b % c), ac)

    def build(work):
        s = bilateral_sum(-1, (1, 2, ac), work, ac.denominator, zb.field_order, zb.coeff, (1, ac))
        return series_div(s, J(1, 2, work))

    return ensure_prec(build, order)


__all__ = [
    "f0_5",
    "f3",
    "f_c",
    "hprime",
    "habc_sum",
    "kprime",
    "kprimeprime",
    "lambert_even_lhs",
    "lambert_odd_lhs",
    "phi6",
    "sigma6",
    "bilateral_even",
    "bilateral_odd",
]
