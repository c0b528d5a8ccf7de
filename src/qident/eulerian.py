"""Eulerian q-hypergeometric sums and bilateral Lambert series.

Each Eulerian series is summed by special._term_sum from two rows: its
first term and its term ratio t_n / t_{n-1}, each a signed power of q
times factors (1 - u q^(an+b))^(+-1).  Each bilateral Lambert series is
one series.bilateral_sum scan.  Exact pole prechecks reject the parameter
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
from .special import J, JB, Row, _term_sum, ensure_prec, theta_is_zero

Rat = Union[int, Fraction]

_ONE = (1, 0, (), ())  # the row of a first term equal to 1


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
# The individual series
# ---------------------------------------------------------------------------


def phi6(order: Rat) -> QSeries:
    """sum (-1)^n q^(n^2) (q;q^2)_n / (-q;q)_{2n}."""

    def ratio(n):
        return (-1, 2 * n - 1, [_q(2 * n - 1)], [_q(2 * n - 1, -1), _q(2 * n, -1)])

    return ensure_prec(lambda work: _term_sum(_ONE, ratio, work), order)


def sigma6(order: Rat) -> QSeries:
    """sum q^binom(n+2,2) (-q)_n / (q;q^2)_{n+1}."""

    def ratio(n):
        return (1, n + 1, [_q(n, -1)], [_q(2 * n + 1)])

    return ensure_prec(lambda work: _term_sum((1, 1, (), [_q(1)]), ratio, work), order)


def f3(order: Rat) -> QSeries:
    """sum q^(n^2) / (-q)_n^2."""

    def ratio(n):
        return (1, 2 * n - 1, (), [_q(n, -1), _q(n, -1)])

    return ensure_prec(lambda work: _term_sum(_ONE, ratio, work), order)


def f0_5(order: Rat) -> QSeries:
    """sum q^(n^2) / (-q)_n."""

    def ratio(n):
        return (1, 2 * n - 1, (), [_q(n, -1)])

    return ensure_prec(lambda work: _term_sum(_ONE, ratio, work), order)


def _k_sum(x: Monomial, k: int, first: Row, label: str, order: Rat) -> QSeries:
    """The sum from the row first (term k) on, term ratio -q^(2n-1) (1 - q^(2n-1-2k))
    / ((1 - x q^(2n-k)) (1 - q^(2n-k)/x)): K' and even Lambert k = 0, K'' and odd k = 1."""
    _reject_pole(x, k, label)
    xinv = x.inv()

    def ratio(n):
        d = 2 * n - k
        return (-1, 2 * n - 1, [_q(2 * n - 1 - 2 * k)], [x.times_q(d), xinv.times_q(d)])

    return ensure_prec(lambda work: _term_sum(first, ratio, work, start=k), order)


def kprime(omega: Monomial, order: Rat) -> QSeries:
    """sum (-1)^n q^(n^2) (q;q^2)_n / ((w q^2;q^2)_n (w^-1 q^2;q^2)_n)."""
    return _k_sum(omega, 0, _ONE, "Kprime", order)


def kprimeprime(omega: Monomial, order: Rat) -> QSeries:
    """sum_{n>=1} (-1)^n q^(n^2) (q;q^2)_{n-1} / ((w q;q^2)_n (w^-1 q;q^2)_n)."""
    first = (-1, 1, (), [omega.times_q(1), omega.inv().times_q(1)])
    return _k_sum(omega, 1, first, "Kprimeprime", order)


def hprime(a: int, c: int, omega: Monomial, order: Rat) -> QSeries:
    """sum q^(n(n+1)/2) (-q)_n / ((w q^(a/c))_{n+1} (w q^(1-a/c))_{n+1})."""
    if not 0 < a < c:
        raise ValueError("need 0 < a < c")
    u0, u1 = omega.times_q(Fraction(a, c)), omega.times_q(1 - Fraction(a, c))
    for u in (u0, u1):
        if u.is_q_power() and u.expo.denominator == 1 and u.expo <= 0:
            raise NonGenericError(f"Hprime has a vanishing denominator at {omega}")

    def ratio(n):
        return (1, n, [_q(n, -1)], [u0.times_q(n), u1.times_q(n)])

    return ensure_prec(lambda work: _term_sum((1, 0, (), [u0, u1]), ratio, work), order)


def lambert_even_lhs(x: Monomial, order: Rat) -> QSeries:
    """sum (-1)^n q^(n^2) (q;q^2)_n / ((x;q^2)_{n+1} (q^2/x;q^2)_n)."""
    return _k_sum(x, 0, (1, 0, (), [x]), "left side of the even Lambert identity", order)


def lambert_odd_lhs(x: Monomial, order: Rat) -> QSeries:
    """(1 - 1/x) sum (-1)^n (q;q^2)_n q^((n+1)^2)
    / ((xq;q^2)_{n+1} (q/x;q^2)_{n+1}); the factor (1 - 1/x) rides on the
    first term."""
    first = (1, 1, [x.inv()], [x.times_q(1), x.inv().times_q(1)])
    return _k_sum(x, 1, first, "left side of the odd Lambert identity", order)


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
