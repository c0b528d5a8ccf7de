"""Independent reference computations for the benchmark's output checks.

Nothing here imports qident. Coefficients live in Q(zeta_M) as rational
vectors reduced modulo the cyclotomic polynomial that sympy supplies, and
inverses in the field come from sympy's polynomial inversion. Series are
dense truncated Laurent series over those coefficients, built from the
defining sums and products of each function, with no sparsity tricks and
no shared code with the program under test.

Every builder takes an exponent bound N and returns a series whose
coefficients are exact for every exponent below N.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, gcd
from typing import Callable, Optional, Sequence

import sympy
from sympy.functions.combinatorial.numbers import partition as _partition

_X = sympy.Symbol("x")


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


@lru_cache(maxsize=None)
def cyclotomic(M: int) -> tuple:
    """Coefficients of Phi_M in ascending degree, as Fractions."""
    poly = sympy.Poly(sympy.cyclotomic_poly(M, _X), _X)
    return tuple(Fraction(int(c)) for c in reversed(poly.all_coeffs()))


def _reduce(M: int, v: Sequence[Fraction]) -> tuple:
    phi = cyclotomic(M)
    d = len(phi) - 1
    v = list(v) + [Fraction(0)] * max(0, d - len(v))
    for k in range(len(v) - 1, d - 1, -1):
        c = v[k]
        if c:
            for i in range(d):
                v[k - d + i] -= c * phi[i]
            v[k] = Fraction(0)
    return tuple(v[:d])


class Cyc:
    """An element of Q(zeta_M): sum of v[i] zeta_M^i, reduced mod Phi_M."""

    __slots__ = ("M", "v")

    def __init__(self, M: int, v: Sequence):
        self.M = M
        self.v = _reduce(M, [Fraction(c) for c in v])

    @staticmethod
    def rat(r, M: int = 1) -> "Cyc":
        return Cyc(M, [Fraction(r)])

    def _other(self, o) -> "Cyc":
        if isinstance(o, Cyc):
            if o.M != self.M:
                raise ValueError(f"field orders differ: {self.M} vs {o.M}")
            return o
        return Cyc.rat(o, self.M)

    def __add__(self, o):
        o = self._other(o)
        return Cyc(self.M, [a + b for a, b in zip(self.v, o.v)])

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.M, [-a for a in self.v])

    def __sub__(self, o):
        return self + (-self._other(o))

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        o = self._other(o)
        out = [Fraction(0)] * (2 * len(self.v))
        for i, a in enumerate(self.v):
            if a:
                for j, b in enumerate(o.v):
                    if b:
                        out[i + j] += a * b
        return Cyc(self.M, out)

    __rmul__ = __mul__

    def inv(self) -> "Cyc":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        if not any(self.v[1:]):
            return Cyc.rat(1 / self.v[0], self.M)
        a = sympy.Poly(list(reversed(self.v)), _X, domain="QQ")
        m = sympy.Poly(list(reversed(cyclotomic(self.M))), _X, domain="QQ")
        coeffs = reversed(a.invert(m).all_coeffs())
        return Cyc(self.M, [Fraction(int(c.p), int(c.q)) for c in coeffs])

    def __pow__(self, n: int) -> "Cyc":
        base = self if n >= 0 else self.inv()
        out = Cyc.rat(1, self.M)
        for _ in range(abs(n)):
            out = out * base
        return out

    def __bool__(self) -> bool:
        return any(self.v)

    def lift(self, L: int) -> "Cyc":
        """The same number in Q(zeta_L); M must divide L."""
        if L % self.M:
            raise ValueError(f"{self.M} does not divide {L}")
        step = L // self.M
        out = [Fraction(0)] * (step * len(self.v))
        for i, c in enumerate(self.v):
            out[i * step] = c
        return Cyc(L, out)

    def __eq__(self, o) -> bool:
        if not isinstance(o, Cyc):
            o = Cyc.rat(o)
        L = _lcm(self.M, o.M)
        return self.lift(L).v == o.lift(L).v

    def __repr__(self) -> str:
        return f"Cyc({self.M}, {[str(c) for c in self.v]})"


def zeta(c: int, k: int, M: int) -> Cyc:
    """zeta_c^k as an element of Q(zeta_M); c must divide M."""
    if M % c:
        raise ValueError(f"{c} does not divide {M}")
    e = (k * (M // c)) % M
    return Cyc(M, [0] * e + [1])


# ---------------------------------------------------------------------------
# Dense truncated Laurent series
# ---------------------------------------------------------------------------


class Ser:
    """c[i] is the coefficient of q^((lo + i)/D); all coefficients with grid
    index below hi = lo + len(c) are exact, everything beyond is unknown."""

    __slots__ = ("D", "M", "lo", "c")

    def __init__(self, D: int, M: int, lo: int, c: list):
        self.D, self.M, self.lo, self.c = D, M, lo, c

    @property
    def hi(self) -> int:
        return self.lo + len(self.c)

    def exact_below(self) -> Fraction:
        return Fraction(self.hi, self.D)

    def terms(self) -> dict:
        """Nonzero coefficients keyed by their exponent."""
        return {Fraction(self.lo + i, self.D): c for i, c in enumerate(self.c) if c}

    def rebase(self, D: int) -> "Ser":
        if D % self.D:
            raise ValueError(f"{self.D} does not divide {D}")
        f = D // self.D
        zero = Cyc.rat(0, self.M)
        out = [zero] * (len(self.c) * f)
        for i, x in enumerate(self.c):
            out[i * f] = x
        return Ser(D, self.M, self.lo * f, out)

    def truncate(self, N: Fraction) -> "Ser":
        hi = min(self.hi, ceil(Fraction(N) * self.D))
        return Ser(self.D, self.M, self.lo, self.c[: max(0, hi - self.lo)])


def _grid(*xs: Fraction) -> int:
    d = 1
    for x in xs:
        d = _lcm(d, Fraction(x).denominator)
    return d


def _common(a: Ser, b: Ser):
    if a.M != b.M:
        raise ValueError("series fields differ")
    D = _lcm(a.D, b.D)
    return a.rebase(D), b.rebase(D)


def zero(N: Fraction, D: int, M: int) -> Ser:
    hi = ceil(Fraction(N) * D)
    lo = min(0, hi)
    return Ser(D, M, lo, [Cyc.rat(0, M)] * (hi - lo))


def mono(coef: Cyc, e: Fraction, N: Fraction, D: int = 1) -> Ser:
    """coef * q^e, exact below N, on the grid 1/lcm(D, denominator of e)."""
    e = Fraction(e)
    D = _lcm(D, e.denominator)
    out = zero(N, D, coef.M)
    k = int(e * D)
    if k < out.hi:
        if k < 0:
            out = Ser(D, coef.M, k, [Cyc.rat(0, coef.M)] * (out.hi - k))
        out.c[k - out.lo] = coef
    return out


def add(a: Ser, b: Ser) -> Ser:
    a, b = _common(a, b)
    lo, hi = min(a.lo, b.lo), min(a.hi, b.hi)
    out = [Cyc.rat(0, a.M)] * max(0, hi - lo)
    for s in (a, b):
        for i, x in enumerate(s.c):
            k = s.lo + i - lo
            if 0 <= k < len(out) and x:
                out[k] = out[k] + x
    return Ser(a.D, a.M, lo, out)


def scale(a: Ser, x) -> Ser:
    return Ser(a.D, a.M, a.lo, [c * x for c in a.c])


def neg(a: Ser) -> Ser:
    return scale(a, -1)


def sub(a: Ser, b: Ser) -> Ser:
    return add(a, neg(b))


def _valuation(a: Ser) -> Optional[int]:
    for i, x in enumerate(a.c):
        if x:
            return a.lo + i
    return None


def mul(a: Ser, b: Ser) -> Ser:
    """Schoolbook product; the unknown tail of each factor meets the lowest
    nonzero term of the other."""
    a, b = _common(a, b)
    va, vb = _valuation(a), _valuation(b)
    va = a.hi if va is None else va
    vb = b.hi if vb is None else vb
    hi = min(a.hi + vb, b.hi + va)
    lo = a.lo + b.lo
    out = [Cyc.rat(0, a.M)] * max(0, hi - lo)
    nb = [(j, y) for j, y in enumerate(b.c) if y]
    for i, x in enumerate(a.c):
        if not x:
            continue
        for j, y in nb:
            k = i + j
            if k >= len(out):
                break
            out[k] = out[k] + x * y
    return Ser(a.D, a.M, lo, out)


def shift(a: Ser, coef: Cyc, e: Fraction) -> Ser:
    """coef * q^e * a."""
    e = Fraction(e)
    D = _lcm(a.D, e.denominator)
    a = a.rebase(D)
    return Ser(D, a.M, a.lo + int(e * D), [c * coef for c in a.c])


def invert(a: Ser) -> Ser:
    """1/a by the coefficient recurrence; exact below hi - 2v."""
    v = _valuation(a)
    if v is None:
        raise ZeroDivisionError("series is zero to its precision")
    body = a.c[v - a.lo:]
    n = len(body)  # the inverse is exact at grid indices -v .. hi - 2v - 1
    inv0 = body[0].inv()
    nz = [(j, y) for j, y in enumerate(body) if y and j]
    out = []
    for i in range(max(0, n)):
        if i == 0:
            out.append(inv0)
            continue
        acc = Cyc.rat(0, a.M)
        for j, y in nz:
            if j > i:
                break
            acc = acc + y * out[i - j]
        out.append(-(acc * inv0))
    return Ser(a.D, a.M, -v, out)


def div(a: Ser, b: Ser) -> Ser:
    return mul(a, invert(b))


def times_binomial(a: Ser, u: Cyc, e: Fraction) -> Ser:
    """a * (1 - u q^e) for e >= 0."""
    return sub(a, shift(a, u, e))


def over_binomial(a: Ser, u: Cyc, e: Fraction) -> Ser:
    """a / (1 - u q^e) for e >= 0, by b_i = a_i + u b_(i-k)."""
    e = Fraction(e)
    if e < 0:
        raise ValueError("negative exponent")
    if e == 0:
        return scale(a, (1 - u).inv())
    D = _lcm(a.D, e.denominator)
    a = a.rebase(D)
    k = int(e * D)
    out = list(a.c)
    for i in range(k, len(out)):
        if out[i - k]:
            out[i] = out[i] + u * out[i - k]
    return Ser(D, a.M, a.lo, out)


def geom(u: Cyc, e: Fraction, N: Fraction) -> Ser:
    """1/(1 - u q^e) expanded in q: sum of u^k q^(ke) for e > 0, the constant
    1/(1-u) for e = 0, and -sum over k >= 1 of u^(-k) q^(-ke) for e < 0."""
    e = Fraction(e)
    if e == 0:
        return mono((1 - u).inv(), 0, N)
    D = e.denominator
    out = zero(N, D, u.M)
    step = abs(int(e * D))
    if e > 0:
        x, k = Cyc.rat(1, u.M), 0
        while k < out.hi:
            out.c[k] = x
            x, k = x * u, k + step
    else:
        w = u.inv()
        x, k = -w, step
        while k < out.hi:
            out.c[k] = x
            x, k = x * w, k + step
    return out


def deepen(build: Callable[[Fraction], Ser], N: Fraction) -> Ser:
    """Run build at a working bound raised until its result is exact below N."""
    N = Fraction(N)
    work = N
    for _ in range(6):
        s = build(work)
        if s.exact_below() >= N:
            return s.truncate(N)
        work += N - s.exact_below() + 1
    raise ArithmeticError(f"reference could not reach q^({N})")


def _window(a: Fraction, b: Fraction, N: Fraction) -> range:
    """Integers n outside which a n^2 - b |n| >= N (a > 0)."""
    R = int((float(b) + (float(b) ** 2 + 4 * float(a) * max(float(N), 0.0)) ** 0.5) / (2 * float(a)))
    return range(-R - 2, R + 3)


# ---------------------------------------------------------------------------
# Building blocks, each from its defining sum or product
# ---------------------------------------------------------------------------


def theta(x: Cyc, e: Fraction, p: Fraction, N: Fraction) -> Ser:
    """j(x q^e; q^p) as the naive bilateral sum of (-1)^n q^(p n(n-1)/2) (x q^e)^n."""
    e, p, N = Fraction(e), Fraction(p), Fraction(N)
    D = _grid(e, p)
    out = zero(N, D, x.M)
    for n in _window(p / 2, p / 2 + abs(e), N):
        expo = p * n * (n - 1) / 2 + n * e
        if expo < N:
            out = add(out, mono(x**n * (-1) ** n, expo, N, D))
    return out


def pochhammer(x: Cyc, e: Fraction, p: Fraction, n: Optional[int], N: Fraction) -> Ser:
    """(x q^e; q^p)_n as the product of its factors; n None is the infinite
    product, whose factors at or beyond q^N are 1 to this precision."""
    e, p = Fraction(e), Fraction(p)
    if n is None and e <= 0:
        raise ValueError("infinite product needs a positive first exponent")
    out = mono(Cyc.rat(1, x.M), 0, N, _grid(e, p))
    k = 0
    while (k < n) if n is not None else (e + k * p < N):
        out = times_binomial(out, x, e + k * p)
        k += 1
    return out


def inverse_partitions(N: Fraction, M: int = 1) -> Ser:
    """1/(q;q)_inf = sum of p(n) q^n, with p(n) from sympy."""
    return Ser(1, M, 0, [Cyc.rat(int(_partition(n)), M) for n in range(ceil(N))])


def appell_m(x: Cyc, ex: Fraction, p: Fraction, z: Cyc, ez: Fraction, N: Fraction) -> Ser:
    """m(x q^ex, q^p, z q^ez) = (1/j(z q^ez; q^p)) *
    sum over r of (-1)^r q^(p r(r-1)/2) (z q^ez)^r / (1 - q^(p(r-1)) x q^ex z q^ez)."""
    ex, ez, p = Fraction(ex), Fraction(ez), Fraction(p)

    def build(W: Fraction) -> Ser:
        D = _grid(ex, ez, p / 2)
        total = zero(W, D, x.M)
        for r in _window(p / 2, p / 2 + abs(ez), W):
            lead = p * r * (r - 1) / 2 + r * ez
            f = p * (r - 1) + ex + ez
            if lead + max(Fraction(0), -f) >= W:
                continue
            term = shift(geom(x * z, f, W - lead), z**r * (-1) ** r, lead)
            total = add(total, term)
        return div(total, theta(z, ez, p, W))

    return deepen(build, N)


def _eulerian(first_power: Callable[[int], Fraction], term: Callable[[int, Fraction], Ser],
              N: Fraction, start: int = 0) -> Ser:
    """Sum term(n) over n >= start until the power q^first_power(n), which
    bounds each term's valuation from below, reaches N."""
    total = None
    n = start
    while first_power(n) < N:
        t = term(n, N)
        total = t if total is None else add(total, t)
        n += 1
    return total


def phi6(N: Fraction) -> Ser:
    """sum (-1)^n q^(n^2) (q;q^2)_n / (-q;q)_(2n)."""
    def term(n, W):
        s = mono(Cyc.rat((-1) ** n), n * n, W)
        for k in range(n):
            s = times_binomial(s, Cyc.rat(1), 2 * k + 1)
        for k in range(1, 2 * n + 1):
            s = over_binomial(s, Cyc.rat(-1), k)
        return s
    return _eulerian(lambda n: n * n, term, Fraction(N))


def sigma6(N: Fraction) -> Ser:
    """sum q^((n+1)(n+2)/2) (-q;q)_n / (q;q^2)_(n+1)."""
    def term(n, W):
        s = mono(Cyc.rat(1), Fraction((n + 1) * (n + 2), 2), W)
        for k in range(1, n + 1):
            s = times_binomial(s, Cyc.rat(-1), k)
        for k in range(n + 1):
            s = over_binomial(s, Cyc.rat(1), 2 * k + 1)
        return s
    return _eulerian(lambda n: Fraction((n + 1) * (n + 2), 2), term, Fraction(N))


def f3(N: Fraction) -> Ser:
    """sum q^(n^2) / (-q;q)_n^2."""
    def term(n, W):
        s = mono(Cyc.rat(1), n * n, W)
        for k in range(1, n + 1):
            s = over_binomial(over_binomial(s, Cyc.rat(-1), k), Cyc.rat(-1), k)
        return s
    return _eulerian(lambda n: n * n, term, Fraction(N))


def f0(N: Fraction) -> Ser:
    """sum q^(n^2) / (-q;q)_n."""
    def term(n, W):
        s = mono(Cyc.rat(1), n * n, W)
        for k in range(1, n + 1):
            s = over_binomial(s, Cyc.rat(-1), k)
        return s
    return _eulerian(lambda n: n * n, term, Fraction(N))


def g(x: Cyc, ex: Fraction, N: Fraction) -> Ser:
    """g(x q^ex, q) = (x q^ex)^(-1) (-1 + sum q^(n^2) / ((x q^ex;q)_(n+1) (q^(1-ex)/x;q)_n))."""
    ex = Fraction(ex)
    if not 0 <= ex <= 1:
        raise ValueError("reference g needs 0 <= ex <= 1")
    xi = x.inv()

    def build(W: Fraction) -> Ser:
        def term(n, W):
            s = mono(Cyc.rat(1, x.M), n * n, W)
            for k in range(n + 1):
                s = over_binomial(s, x, ex + k)
            for k in range(n):
                s = over_binomial(s, xi, 1 - ex + k)
            return s
        total = _eulerian(lambda n: n * n, term, W)
        total = sub(total, mono(Cyc.rat(1, x.M), 0, W))
        return shift(total, xi, -ex)

    return deepen(build, N)


def kprime(w: Cyc, N: Fraction) -> Ser:
    """K'(w) = sum (-1)^n q^(n^2) (q;q^2)_n / ((w q^2;q^2)_n (w^-1 q^2;q^2)_n)."""
    wi = w.inv()

    def term(n, W):
        s = mono(Cyc.rat((-1) ** n, w.M), n * n, W)
        for k in range(n):
            s = times_binomial(s, Cyc.rat(1, w.M), 2 * k + 1)
            s = over_binomial(over_binomial(s, w, 2 * k + 2), wi, 2 * k + 2)
        return s
    return _eulerian(lambda n: n * n, term, Fraction(N))


def kprimeprime(w: Cyc, N: Fraction) -> Ser:
    """K''(w) = sum over n >= 1 of (-1)^n q^(n^2) (q;q^2)_(n-1) / ((w q;q^2)_n (w^-1 q;q^2)_n)."""
    wi = w.inv()

    def term(n, W):
        s = mono(Cyc.rat((-1) ** n, w.M), n * n, W)
        for k in range(n - 1):
            s = times_binomial(s, Cyc.rat(1, w.M), 2 * k + 1)
        for k in range(n):
            s = over_binomial(over_binomial(s, w, 2 * k + 1), wi, 2 * k + 1)
        return s
    return _eulerian(lambda n: n * n, term, Fraction(N), start=1)


def hprime(a: int, c: int, w: Cyc, N: Fraction) -> Ser:
    """H'(a,c,w) = sum q^(n(n+1)/2) (-q;q)_n / ((w q^(a/c);q)_(n+1) (w q^(1-a/c);q)_(n+1))."""
    ac = Fraction(a, c)

    def term(n, W):
        s = mono(Cyc.rat(1, w.M), Fraction(n * (n + 1), 2), W)
        for k in range(1, n + 1):
            s = times_binomial(s, Cyc.rat(-1, w.M), k)
        for k in range(n + 1):
            s = over_binomial(over_binomial(s, w, ac + k), w, 1 - ac + k)
        return s
    return _eulerian(lambda n: Fraction(n * (n + 1), 2), term, Fraction(N))


def h_tilde(a: int, c: int, N: Fraction) -> Ser:
    """q^((a/c)(1-a/c)) (H'(a,c,1) + H'(a,c,-1))."""
    pre = Fraction(a, c) * (1 - Fraction(a, c))
    inner = Fraction(N) - pre
    s = add(hprime(a, c, Cyc.rat(1), inner), hprime(a, c, Cyc.rat(-1), inner))
    return shift(s, Cyc.rat(1), pre)


def k_tilde(a: int, c: int, N: Fraction) -> Ser:
    """csc(pi a/c)/4 q^(-1/8) K'(zeta_c^a) + sin(pi a/c) q^(-1/8) K''(zeta_c^a),
    in Q(zeta_M) with M = lcm(4, 2c); sin(pi a/c) = (zeta_2c^a - zeta_2c^-a)/(2i)."""
    M = _lcm(4, 2 * c)
    w = zeta(c, a, M)
    s2c = zeta(2 * c, a, M)
    sin = (s2c - s2c.inv()) * (zeta(4, 1, M) * 2).inv()
    inner = Fraction(N) + Fraction(1, 8)
    first = shift(kprime(w, inner), sin.inv() * Fraction(1, 4), Fraction(-1, 8))
    second = shift(kprimeprime(w, inner), sin, Fraction(-1, 8))
    return add(first, second)


def habc(a: int, b: int, c: int, N: Fraction) -> Ser:
    """(1/J(1,2)) sum over n of (-1)^n q^(n+a/c) q^(n(n+1)) / (1 - zeta_c^b q^(n+a/c))."""
    ac = Fraction(a, c)
    u = zeta(c, b, c)

    def build(W: Fraction) -> Ser:
        total = zero(W, c, c)
        for n in _window(Fraction(1), Fraction(1), W):
            lead = n * (n + 1) + n + ac
            f = n + ac
            if n * (n + 1) + max(f, Fraction(0)) >= W:
                continue
            term = shift(geom(u, f, W - lead), Cyc.rat((-1) ** n, c), lead)
            total = add(total, term)
        return div(total, theta(Cyc.rat(1, c), 1, 2, W))

    return deepen(build, N)
