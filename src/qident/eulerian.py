"""Eulerian q-hypergeometric sums and their root-of-unity combinations.

Each Eulerian series is summed by special._term_sum from two rows: its
first term and its term ratio t_n / t_{n-1}, each a signed power of q
times factors (1 - u q^(an+b))^(+-1).  The bilateral Lambert series go
through special.lambert_sum.  Exact pole prechecks reject the parameter
values where a denominator factor vanishes identically.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Union

from .coeff import csc_pi, sin_pi, zeta_power
from .errors import NonGenericError
from .series import (
    Monomial,
    QSeries,
    series_add,
    series_div,
    series_mul,
    series_scale,
    series_shift,
    series_sub,
)
from .special import J, JB, Jm, _term_sum, ensure_prec, lambert_sum, theta_is_zero, theta_j

Rat = Union[int, Fraction]

_ONE = (1, 0, (), ())  # the row of a first term equal to 1


def _fr(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


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


def kprime(omega: Monomial, order: Rat) -> QSeries:
    """sum (-1)^n q^(n^2) (q;q^2)_n / ((w q^2;q^2)_n (w^-1 q^2;q^2)_n)."""
    _reject_pole(omega, 0, "Kprime")
    winv = omega.inv()

    def ratio(n):
        return (-1, 2 * n - 1, [_q(2 * n - 1)], [omega.times_q(2 * n), winv.times_q(2 * n)])

    return ensure_prec(lambda work: _term_sum(_ONE, ratio, work), order)


def kprimeprime(omega: Monomial, order: Rat) -> QSeries:
    """sum_{n>=1} (-1)^n q^(n^2) (q;q^2)_{n-1} / ((w q;q^2)_n (w^-1 q;q^2)_n)."""
    _reject_pole(omega, 1, "Kprimeprime")
    winv = omega.inv()
    first = (-1, 1, (), [omega.times_q(1), winv.times_q(1)])

    def ratio(n):
        return (
            -1, 2 * n - 1, [_q(2 * n - 3)],
            [omega.times_q(2 * n - 1), winv.times_q(2 * n - 1)],
        )

    return ensure_prec(lambda work: _term_sum(first, ratio, work, start=1), order)


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
    _reject_pole(x, 0, "left side of the even Lambert identity")
    xinv = x.inv()

    def ratio(n):
        return (-1, 2 * n - 1, [_q(2 * n - 1)], [x.times_q(2 * n), xinv.times_q(2 * n)])

    return ensure_prec(lambda work: _term_sum((1, 0, (), [x]), ratio, work), order)


def lambert_odd_lhs(x: Monomial, order: Rat) -> QSeries:
    """(1 - 1/x) sum (-1)^n (q;q^2)_n q^((n+1)^2)
    / ((xq;q^2)_{n+1} (q/x;q^2)_{n+1}); the factor (1 - 1/x) rides on the
    first term."""
    _reject_pole(x, 1, "left side of the odd Lambert identity")
    xinv = x.inv()
    first = (1, 1, [xinv], [x.times_q(1), xinv.times_q(1)])

    def ratio(n):
        return (-1, 2 * n + 1, [_q(2 * n - 1)], [x.times_q(2 * n + 1), xinv.times_q(2 * n + 1)])

    return ensure_prec(lambda work: _term_sum(first, ratio, work), order)


# ---------------------------------------------------------------------------
# Bilateral Lambert series
# ---------------------------------------------------------------------------


def _bilateral(omega: Monomial, k: int, order: Rat, label: str) -> QSeries:
    """(1/JB(1,4)) * sum over all n of q^(2n^2+(2k+1)n+k) / (1 - w q^(2n+k))."""
    _reject_pole(omega, k, label)
    e = omega.expo

    def build(work):
        s = lambert_sum(
            (Fraction(1), lambda n: 2 * n * n + (2 * k + 1) * n + k),
            lambda n: omega.times_q(2 * n + k),
            work,
            [Fraction(-(2 * k + 1), 4), -(e + k) / 2],
            e.denominator,
            omega.field_order,
        )
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
        s = lambert_sum(
            (Fraction(-1), lambda n: n * (n + 1) + n + ac),
            zb.times_q,
            work,
            [Fraction(-1), Fraction(0)],
            ac.denominator,
            zb.field_order,
        )
        return series_div(s, J(1, 2, work))

    return ensure_prec(build, order)


# ---------------------------------------------------------------------------
# Root-of-unity combinations and closed forms
# ---------------------------------------------------------------------------


def k_tilde(a: int, c: int, order: Rat) -> QSeries:
    """csc(pi a/c)/4 * q^(-1/8) Kprime(zeta_c^a)
    + sin(pi a/c) * q^(-1/8) Kprimeprime(zeta_c^a)."""
    order = _fr(order)
    M = lcm(4, 2 * c)
    w = Monomial(zeta_power(c, a), Fraction(0))
    kp = kprime(w, order + Fraction(1, 8))
    kpp = kprimeprime(w, order + Fraction(1, 8))
    pre1 = Monomial(csc_pi(a, c, M) * Fraction(1, 4), Fraction(-1, 8))
    pre2 = Monomial(sin_pi(a, c, M), Fraction(-1, 8))
    return series_add(series_shift(kp, pre1), series_shift(kpp, pre2))


def k_tilde_closed(a: int, c: int, order: Rat) -> QSeries:
    """-(i zeta_{2c}^a / 2) q^(-1/8) J(1,2)^2 / j(zeta_c^a;q)."""
    order = _fr(order)
    M = lcm(4, 2 * c)
    i = zeta_power(M, M // 4)
    half_zeta = zeta_power(M, (M // (2 * c)) * a)
    pre = Monomial(-(i * half_zeta) * Fraction(1, 2), Fraction(-1, 8))
    j12 = J(1, 2, order + Fraction(1, 8))
    quot = series_div(
        series_mul(j12, j12),
        theta_j(Monomial(zeta_power(c, a), Fraction(0)), 1, order + Fraction(1, 8)),
    )
    return series_shift(quot, pre)


def h_tilde(a: int, c: int, order: Rat, route: str = "eulerian") -> QSeries:
    """The normalized combination H-tilde, by any of three routes.

    eulerian: q^((a/c)(1-a/c)) (Hprime(a,c,1) + Hprime(a,c,-1)), the
    relative sign forced by agreement with the closed form; bilateral
    (even c only): same prefactor times (H_abc(a,0,c) - H_abc(a,c/2,c));
    closed: the theta quotient
    2 q^((a/c)(1-a/c)) Jm(2)^3 / (J(1,2) j(q^(2a/c);q^2)).
    """
    order = _fr(order)
    ac = Fraction(a, c)
    pre = Monomial.make(1, ac * (1 - ac))
    inner = order - pre.expo
    if route == "eulerian":
        hp = hprime(a, c, Monomial.make(1, 0), inner)
        hm = hprime(a, c, Monomial.make(-1, 0), inner)
        return series_shift(series_add(hp, hm), pre)
    if route == "bilateral":
        if c % 2:
            raise ValueError("the split-difference route needs even c")
        diff = series_sub(
            habc_sum(a, 0, c, inner), habc_sum(a, c // 2, c, inner)
        )
        return series_shift(diff, pre)
    if route == "closed":
        j2 = Jm(2, inner)
        num = series_scale(series_mul(series_mul(j2, j2), j2), 2)
        den = series_mul(
            J(1, 2, inner), theta_j(Monomial.make(1, 2 * ac), 2, inner)
        )
        return series_shift(series_div(num, den), pre)
    raise ValueError(f"unknown route {route!r}")


__all__ = [
    "f0_5",
    "f3",
    "f_c",
    "hprime",
    "h_tilde",
    "habc_sum",
    "k_tilde",
    "k_tilde_closed",
    "kprime",
    "kprimeprime",
    "lambert_even_lhs",
    "lambert_odd_lhs",
    "phi6",
    "sigma6",
    "bilateral_even",
    "bilateral_odd",
]
