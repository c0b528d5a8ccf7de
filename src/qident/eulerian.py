"""Pochhammer products, Eulerian q-hypergeometric sums, bilateral Lambert
series, the theta function j and the Appell-Lerch sum m.

Each Eulerian series, the Lambert and Eulerian sums of the universal
mock theta function g and the Pochhammer product among them, is one row
of FORMS: its product form, the sum over n >= start of c^n q^E(n) times
Pochhammer symbols (y; q^p)_(an+b)^(+-1) with E quadratic, as the table
(c, E, factors, start) that special.read_row sums and reads its poles
from, and the message that names a pole.  Each bilateral series, j and m
among them, is one row of BILATERAL: its form, the sum over all n of c^n
q^E(n) / (1 - u q^F(n)) with E quadratic and F linear, as
series.bilateral_sum takes it, the theta function it is divided by, and
the message that names a pole, which special.read_row raises where
series.bilateral_pole finds one.  need_theta_nonzero is the one exact
test for an identically vanishing theta function.  The paper's
root-of-unity combinations of these series, K-tilde and H-tilde, g from
its Eulerian sum (g_sum), and the theta shorthands J, JB and Jm are
expression-language entries over these rows in dsl.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Dict, Optional, Tuple, Union

from .coeff import zeta_power
from .errors import NonGenericError
from .series import Monomial, bilateral_pole

Rat = Union[int, Fraction]


def _q(e: Rat, c: Rat = 1) -> Monomial:
    return Monomial.make(c, e)


def f_c(c: int) -> int:
    """Level constant 2c/gcd(c,4) attached to the modular rescalings.

    Surfaced only as report metadata; nothing in the series arithmetic
    depends on it.
    """
    return 2 * c // gcd(c, 4)


def need_a_below_c(a: int, c: int):
    if not 0 < a < c:
        raise ValueError("need 0 < a < c")


def need_theta_nonzero(x: Monomial, p: Rat, label: str):
    """Raise NonGenericError naming label when j(x; q^p) vanishes
    identically: exactly when x is a power of q^p, that is when
    series.bilateral_pole finds the n with 1 - x q^(pn) = 0."""
    if bilateral_pole(x.coeff, (p, x.expo)) is not None:
        raise NonGenericError(f"{label} = j({x}; q^({p})) vanishes identically")


def _hp(a: int, c: int, w: Monomial) -> tuple:
    need_a_below_c(a, c)
    u0, u1 = w.times_q(Fraction(a, c)), w.times_q(1 - Fraction(a, c))
    return 1, (Fraction(1, 2), Fraction(1, 2), 0), (
        (_q(1, -1), 1, 1, 0, 1), (u0, 1, 1, 1, -1), (u1, 1, 1, 1, -1)), 0


def _poch(x: Monomial, p: Fraction, n: Optional[int]) -> tuple:
    """(x; q^p)_n for x = c q^e as Euler's sum of (-c)^k q^(p binom(k,2) + ek)
    / (q^p; q^p)_k for n = None, or for finite n as Cauchy's q-binomial sum
    of c^k q^((e+pn)k) (q^(-pn); q^p)_k / (q^p; q^p)_k, which ends by itself
    at k = n + 1 (Gasper and Rahman, section 1.3).  A vanishing factor
    (x q^(kp) exactly 1) makes the sum the zero series, not an error."""
    if n is not None and n < 0:
        raise ValueError("Pochhammer length must be nonnegative")
    qp = (_q(p), p, 1, 0, -1)
    if n is None:
        return -x.coeff, (p / 2, x.expo - p / 2, 0), (qp,), 0
    return x.coeff, (0, x.expo + p * n, 0), ((_q(-p * n), p, 1, 0, 1), qp), 0


_G_POLE = "g pole: Pochhammer factor vanishes for x = {0} a power of q^({1})"

# name: (argument kinds, arguments -> product form (c, E, factors, start),
# pole message over the arguments, None for a row without poles), a factor
# (y, p, a, b, s) standing for (y; q^p)_(an+b)^s.  An argument of kind "p"
# is a base q^p, one of kind "n" a length, None meaning infinite.
FORMS: Dict[str, Tuple[Tuple[str, ...], Callable[..., tuple], Optional[str]]] = {
    # (x; q^p)_n, whose denominators (q^p; q^p)_k never vanish
    "poch": (("x", "p", "n"), _poch, None),
    # sum (-1)^n q^(n^2) (q;q^2)_n / (-q;q)_{2n}
    "phi": (("p",), lambda p: (-1, (p, 0, 0), (
        (_q(p), 2 * p, 1, 0, 1), (_q(p, -1), p, 2, 0, -1)), 0),
        "phi has a vanishing denominator"),
    # sum q^binom(n+2,2) (-q)_n / (q;q^2)_{n+1}
    "sigma": (("p",), lambda p: (1, (Fraction(p, 2), Fraction(3 * p, 2), p), (
        (_q(p, -1), p, 1, 0, 1), (_q(p), 2 * p, 1, 1, -1)), 0),
        "sigma has a vanishing denominator"),
    # sum q^(n^2) / (-q)_n^2
    "f3": (("p",), lambda p: (1, (p, 0, 0), ((_q(p, -1), p, 1, 0, -1),) * 2, 0),
           "f3 has a vanishing denominator"),
    # sum q^(n^2) / (-q)_n
    "f0": (("p",), lambda p: (1, (p, 0, 0), ((_q(p, -1), p, 1, 0, -1),), 0),
           "f0 has a vanishing denominator"),
    # sum (-1)^n q^(n^2) (q;q^2)_n / ((w q^2;q^2)_n (w^-1 q^2;q^2)_n)
    "Kp": (("x",), lambda w: (-1, (1, 0, 0), (
        (_q(1), 2, 1, 0, 1), (w.times_q(2), 2, 1, 0, -1), (w.inv().times_q(2), 2, 1, 0, -1)), 0),
        "Kprime has a vanishing denominator at {0}"),
    # sum_{n>=1} (-1)^n q^(n^2) (q;q^2)_{n-1} / ((w q;q^2)_n (w^-1 q;q^2)_n)
    "Kpp": (("x",), lambda w: (-1, (1, 0, 0), (
        (_q(1), 2, 1, -1, 1), (w.times_q(1), 2, 1, 0, -1), (w.inv().times_q(1), 2, 1, 0, -1)), 1),
        "Kprimeprime has a vanishing denominator at {0}"),
    # sum q^(n(n+1)/2) (-q)_n / ((w q^(a/c))_{n+1} (w q^(1-a/c))_{n+1})
    "Hp": (("i", "i", "x"), _hp, "Hprime has a vanishing denominator at {2}"),
    # sum (-1)^n q^(n^2) (q;q^2)_n / ((x;q^2)_{n+1} (q^2/x;q^2)_n)
    "lambert_even": (("x",), lambda x: (-1, (1, 0, 0), (
        (_q(1), 2, 1, 0, 1), (x, 2, 1, 1, -1), (x.inv().times_q(2), 2, 1, 0, -1)), 0),
        "left side of the even Lambert identity has a vanishing denominator at {0}"),
    # (1/x; q)_1 sum (-1)^n q^((n+1)^2) (q;q^2)_n / ((xq;q^2)_{n+1} (q/x;q^2)_{n+1}),
    # the factor 1 - 1/x a Pochhammer symbol of constant length
    "lambert_odd": (("x",), lambda x: (-1, (1, 2, 1), (
        (x.inv(), 1, 0, 1, 1), (_q(1), 2, 1, 0, 1),
        (x.times_q(1), 2, 1, 1, -1), (x.inv().times_q(1), 2, 1, 1, -1)), 0),
        "left side of the odd Lambert identity has a vanishing denominator at {0}"),
    # the universal mock theta function g(x, q^p) as its Lambert sum,
    # sum q^(p n(n+1)) / ((x; q^p)_{n+1} (q^p/x; q^p)_{n+1}); its Eulerian
    # form is the definition g_sum over g_euler, its Appell-Lerch form the
    # definition g_appell
    "g": (("x", "p"), lambda x, p: (1, (p, p, 0), (
        (x, p, 1, 1, -1), (x.inv().times_q(p), p, 1, 1, -1)), 0), _G_POLE),
    # g's Eulerian sum, sum q^(p n^2) / ((x; q^p)_{n+1} (q^p/x; q^p)_n), with
    # g's poles: g(x, q^p) = x^(-1) (-1 + g_euler(x, q^p))
    "g_euler": (("x", "p"), lambda x, p: (1, (p, 0, 0), (
        (x, p, 1, 1, -1), (x.inv().times_q(p), p, 1, 0, -1)), 0), _G_POLE),
}


def _lambert(k: int) -> Callable[[Monomial], tuple]:
    """(1/JB(1,4)) sum over n of q^(2n^2+(2k+1)n+k) / (1 - w q^(2n+k))."""
    return lambda w: (1, (2, 2 * k + 1, k), w.expo.denominator, w.field_order, w.coeff,
                      (2, k + w.expo), (_q(1, -1), 4))


def _habc(a: int, b: int, c: int) -> tuple:
    need_a_below_c(a, c)
    ac, zb = Fraction(a, c), zeta_power(c, b % c)
    return -1, (1, 2, ac), ac.denominator, zb.order, zb, (1, ac), (_q(1), 2)


def _m(x: Monomial, p: Rat, z: Monomial) -> tuple:
    need_theta_nonzero(z, p, "j(z; q^p)")
    xz = x * z
    return (-z.coeff, (Fraction(p, 2), z.expo - Fraction(p, 2), 0),
            z.expo.denominator * x.expo.denominator * p.denominator, z.field_order,
            xz.coeff, (p, xz.expo - p), (z, p))


# name: (argument kinds, arguments -> bilateral form (c, e, denom, field, u, f,
# theta), pole message over the arguments and r), the form standing for the
# sum over all n of c^n q^E(n) / (1 - u q^F(n)) that series.bilateral_sum
# scans, without the denominator when u is None, divided by j(y; q^p) for
# theta = (y, p) unless theta is None.
BILATERAL: Dict[str, Tuple[Tuple[str, ...], Callable[..., tuple], Optional[str]]] = {
    # j(x; q^p) = sum (-1)^n q^(p binom(n,2)) x^n, which has no pole: it is
    # always well defined, and identically zero exactly when x is a power of q^p
    "j": (("x", "p"), lambda x, p: (
        -x.coeff, (Fraction(p, 2), x.expo - Fraction(p, 2), 0), x.expo.denominator * p.denominator,
        x.field_order, None, (0, 0), None), None),
    # m(x, q^p, z) = sum (-1)^n q^(p binom(n,2)) z^n / (1 - q^(p(n-1)) x z), over
    # j(z; q^p); NonGenericError when j(z; q^p) vanishes or a denominator
    # 1 - q^(p(n-1)) x z does, both decided exactly up front
    "m": (("x", "p", "x"), _m, "Appell-Lerch denominator 1 - q^((r-1)p) x z vanishes at r = {r}"),
    # sum (-1)^n q^(p binom(n+1,2)) / (1 - q^(pn) z)
    "rjtp": (("x", "p"), lambda z, p: (
        -1, (Fraction(p, 2), Fraction(p, 2), 0), z.expo.denominator, z.field_order, z.coeff,
        (p, z.expo), None),
        "Lambert denominator 1 - q^(pn) z has a pole: z = {0} is a power of q^({1})"),
    "bilateral_even": (("x",), _lambert(0),
                       "even bilateral Lambert sum has a vanishing denominator at {0}"),
    "bilateral_odd": (("x",), _lambert(1),
                      "odd bilateral Lambert sum has a vanishing denominator at {0}"),
    # (1/J(1,2)) sum (-1)^n q^(n+a/c) q^(n(n+1)) / (1 - zeta_c^b q^(n+a/c))
    "Habc": (("i", "i", "i"), _habc, "Habc has a vanishing denominator"),
}


__all__ = ["BILATERAL", "FORMS", "f_c"]
