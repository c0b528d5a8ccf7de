"""Brute-force reference computations used to cross-check the engine.

Everything here is deliberately naive: dense dict arithmetic over exact
coefficients with no precision tracking, no sparsity tricks, and no shared
code with the package under test beyond CycloNumber, the coefficient type:
a coefficient is a Fraction, or a CycloNumber where a root of unity enters,
all CycloNumbers of one computation in one field.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import gcd

import sympy

from qident.coeff import CycloNumber, cyclo_embed, lift_order
from qident.series import QSeries


def exact(c):
    """c as an exact coefficient: a CycloNumber as it is, anything else a Fraction."""
    return c if isinstance(c, CycloNumber) else Fraction(c)


def inverse(c):
    """1/c for an exact coefficient c."""
    return c.inv() if isinstance(c, CycloNumber) else 1 / Fraction(c)


def series_dict(s: QSeries) -> dict[Fraction, CycloNumber]:
    """Terms of a QSeries keyed by exponent as a Fraction."""
    return {Fraction(k, s.denom): c for k, c in s.terms.items()}


def dict_mul(
    a: dict[Fraction, Fraction], b: dict[Fraction, Fraction]
) -> dict[Fraction, Fraction]:
    out: dict[Fraction, Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def dict_truncate(a: dict[Fraction, Fraction], order: Fraction) -> dict[Fraction, Fraction]:
    return {e: c for e, c in a.items() if e < order}


def pochhammer_bruteforce(c, e: Fraction, p: Fraction, n_factors: int) -> dict:
    """Partial product of (1 - c*q^(e + i*p)) for i = 0 .. n_factors-1."""
    acc = {Fraction(0): Fraction(1)}
    for i in range(n_factors):
        factor = {Fraction(0): Fraction(1)}
        key = e + i * p
        factor[key] = factor.get(key, Fraction(0)) - c
        acc = dict_mul(acc, factor)
    return acc


def geom_inverse_bruteforce(a: dict, order: Fraction) -> dict:
    """1/a below q^order for a nonzero a = c0 q^v (1 - u): c0^(-1) q^(-v)
    times the geometric series 1 + u + u^2 + ..., every power multiplied out."""
    v = min(a)
    inv0 = inverse(a[v])
    u = {e - v: -c * inv0 for e, c in a.items() if e != v}
    rel = order + v  # the geometric series is needed below q^(order + v)
    acc, power = {Fraction(0): Fraction(1)}, {Fraction(0): Fraction(1)}
    while power:
        power = dict_truncate(dict_mul(power, u), rel)
        for e, c in power.items():
            acc[e] = acc.get(e, Fraction(0)) + c
    return {e - v: c * inv0 for e, c in acc.items() if e < rel and c}


def long_division(a: dict, b: dict, order: Fraction) -> dict:
    """a / b below q^order for a nonzero b, by long division from the low
    end: the lowest term of the remainder, over b's lead, is the next term of
    the quotient, and that term times b is taken off the remainder, every
    exponent kept as a Fraction and every term below q^(order + val(b))."""
    v = min(b)
    inv0, top = inverse(b[v]), order + v
    rest, out = dict_truncate(a, top), {}
    while rest:
        e = min(rest)
        c = out[e - v] = rest[e] * inv0
        for eb, cb in b.items():
            if (x := e - v + eb) < top:
                rest[x] = rest.get(x, 0 * c) - c * cb
        rest = {x: y for x, y in rest.items() if y}
    return out


def theta_bruteforce(c: Fraction, e: Fraction, p: Fraction, order: Fraction) -> dict[Fraction, Fraction]:
    """Bilateral theta sum with rational x = c*q^e, scanned over a wide window."""
    out: dict[Fraction, Fraction] = {}
    for n in range(-200, 200):
        expo = p * Fraction(n * (n - 1), 2) + n * e
        if expo >= order:
            continue
        coeff = Fraction((-1) ** n) * c**n
        out[expo] = out.get(expo, Fraction(0)) + coeff
    return {e_: v for e_, v in out.items() if v}


def lambert_bruteforce(c, E, u, F, order: Fraction) -> dict[Fraction, Fraction]:
    """The sum over n of c^n q^E(n) / (1 - u q^F(n)) below q^order for exact
    c and u, rational or CycloNumbers of one field, scanned over a wide
    window: 1/(1 - u q^f) is the sum of u^j q^(jf) over j >= 0 for f > 0, of
    -u^(-j) q^(-jf) over j >= 1 for f < 0, and 1/(1 - u) for f = 0."""
    c, u = exact(c), exact(u)
    out: dict[Fraction, Fraction] = {}
    for n in range(-200, 200):
        t, e, f = c**n, E(n), F(n)
        if f == 0:
            out[e] = out.get(e, 0) + t * inverse(1 - u)
            continue
        j, sign, w = (0, 1, u) if f > 0 else (1, -1, inverse(u))
        while (x := e + j * abs(f)) < order:
            out[x] = out.get(x, 0) + sign * t * w**j
            j += 1
    return {e: v for e, v in out.items() if v and e < order}


def fraction_dot(M: int, pairs, extra=None) -> tuple[Fraction, ...]:
    """extra + sum of x*y for Fraction coefficient vectors in Q(zeta_M): every
    product expanded in full, then one long division by sympy's Phi_M."""
    x = sympy.Symbol("x")
    phi = [Fraction(int(c)) for c in sympy.Poly(sympy.cyclotomic_poly(M, x), x).all_coeffs()]
    deg = len(phi) - 1
    acc = [Fraction(0)] * (2 * deg - 1)
    for i, c in enumerate(extra or ()):
        acc[i] += c
    for a, b in pairs:
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                acc[i + j] += ai * bj
    # phi is monic and descending: cancel the top coefficient each step
    for top in range(len(acc) - 1, deg - 1, -1):
        c = acc[top]
        for i, p in enumerate(phi):
            acc[top - i] -= c * p
    return tuple(acc[:deg])


@lru_cache(maxsize=None)
def carry_power_table(M: int) -> tuple[tuple[int, ...], ...]:
    """zeta_M^k for k = 0 .. max(M-1, 2 phi(M)-2), by shift and carry with
    sympy's Phi_M: each row past the unit vectors is the one before shifted
    up one place, its top numerator carried back through
    zeta^phi = -(Phi_M's lower terms)."""
    x = sympy.Symbol("x")
    poly = [int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(M, x), x).all_coeffs())]
    phi = len(poly) - 1
    rows = [tuple(1 if i == k else 0 for i in range(phi)) for k in range(phi)]
    for _ in range(phi, max(M, 2 * phi - 1)):
        prev = rows[-1]
        rows.append(tuple(s - prev[-1] * c for s, c in zip((0,) + prev[:-1], poly)))
    return tuple(rows)


def schoolbook_mul(x: CycloNumber, y: CycloNumber) -> CycloNumber:
    """x * y as the full product of the numerator polynomials, each power
    zeta^k past phi(M) - 1 then replaced by its row of carry_power_table."""
    table, phi = carry_power_table(x.order), len(x.num)
    acc = [0] * (2 * phi - 1)
    for i, a in enumerate(x.num):
        for j, b in enumerate(y.num):
            acc[i + j] += a * b
    out = acc[:phi]
    for k in range(phi, len(acc)):
        out = [u + acc[k] * r for u, r in zip(out, table[k])]
    return CycloNumber(x.order, [Fraction(n, x.den * y.den) for n in out])


def triple_loop_table(M: int, num: tuple, den: int) -> tuple:
    """Multiplication by num/den as coeff._times_table's (pairs, den), by the
    triple loop: entry (k, j) sums x_a times numerator k of zeta^(a + j),
    over the numerators x_a of num and the nonzero entries of the table."""
    table, phi = carry_power_table(M), len(num)
    sparse = [[(k, t) for k, t in enumerate(r) if t] for r in table]
    rows = [[0] * phi for _ in range(phi)]
    for a, x in enumerate(num):
        if x:
            for j in range(phi):
                for k, t in sparse[a + j]:
                    rows[k][j] += x * t
    return tuple(tuple((j, c) for j, c in enumerate(r) if c) for r in rows), den


def assert_series_matches(s: QSeries, expected: dict, order: Fraction):
    """Compare a QSeries against a plain exponent->coefficient dict below order."""
    assert s.prec_order() >= order, (s.prec_order(), order)
    got = {e: c for e, c in series_dict(s).items() if e < order}
    want = {}
    for e, c in expected.items():
        if e >= order:
            continue
        if not isinstance(c, CycloNumber):
            c = cyclo_embed(Fraction(c), 1)
        want[Fraction(e)] = c
    assert set(got) == set(want), (sorted(set(got) ^ set(want)), "exponent sets differ")
    for e in got:
        a, b = got[e], want[e]
        m = a.order * b.order // __import__("math").gcd(a.order, b.order)
        assert lift_order(a, m) == lift_order(b, m), (e, str(a), str(b))


# ---------------------------------------------------------------------------
# Work counts, read off the operands from outside the program
# ---------------------------------------------------------------------------


def _grid_keys(s: QSeries, d: int) -> list[int]:
    """The exponents of the nonzero terms of s, ascending, on the grid 1/d."""
    return [k * (d // s.denom) for k, _ in s.sorted_terms()]


def mul_pairs(a: QSeries, b: QSeries) -> int:
    """Term pairs of a product: one term of each factor, their exponents
    summing below the product's precision (as perfbench/tracing.py counts)."""
    d = a.denom * b.denom // gcd(a.denom, b.denom)
    ka, kb = _grid_keys(a, d), _grid_keys(b, d)
    va = ka[0] if ka else a.prec * (d // a.denom)
    vb = kb[0] if kb else b.prec * (d // b.denom)
    p = min(a.prec * (d // a.denom) + vb, b.prec * (d // b.denom) + va)
    return sum(bisect_left(kb, p - k) for k in ka)


def div_pairs(b: QSeries, c: QSeries) -> int:
    """Term pairs of a quotient c = a / b: a term of b past its lead and a
    term of c, their exponents summing below c's precision."""
    kb, kc = _grid_keys(b, c.denom), _grid_keys(c, c.denom)
    tail = [k - kb[0] for k in kb[1:]]
    return sum(bisect_left(tail, c.prec - k) for k in kc)


def count_pairs(monkeypatch) -> list[int]:
    """Wrap series_mul and series_div wherever a qident module binds them;
    the one entry of the list returned counts the term pairs they read."""
    from qident import series

    mul, div, count = series.series_mul, series.series_div, [0]

    def counted_mul(a, b):
        count[0] += mul_pairs(a, b)
        return mul(a, b)

    def counted_div(a, b):
        c = div(a, b)
        count[0] += div_pairs(b, c)
        return c

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "qident":
            for attr, fn, wrapped in (("series_mul", mul, counted_mul), ("series_div", div, counted_div)):
                if getattr(mod, attr, None) is fn:
                    monkeypatch.setattr(mod, attr, wrapped)
    return count


def count_calls(monkeypatch, attr: str) -> list[int]:
    """Wrap the series function attr wherever a qident module binds it; the
    one entry of the list returned counts its calls."""
    from qident import series

    fn, count = getattr(series, attr), [0]

    def counted(*args):
        count[0] += 1
        return fn(*args)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "qident" and getattr(mod, attr, None) is fn:
            monkeypatch.setattr(mod, attr, counted)
    return count


def count_builds(monkeypatch) -> list[int]:
    """The builds of every special.ensure_prec loop from here on, the loop
    around a row's build and around a side, one count per loop at its own
    index, so a row built inside a side's build is not charged to that
    side."""
    from qident import special

    ensure_prec, counts = special.ensure_prec, []

    def counted(build, order):
        i = len(counts)
        counts.append(0)

        def run(work):
            counts[i] += 1
            return build(work)

        return ensure_prec(run, order)

    monkeypatch.setattr(special, "ensure_prec", counted)
    return counts


def count_products(monkeypatch) -> list[int]:
    """Count CycloNumber products from here on, in the one entry of the list returned."""
    mul, count = CycloNumber.__mul__, [0]

    def counted(self, other):
        count[0] += 1
        return mul(self, other)

    monkeypatch.setattr(CycloNumber, "__mul__", counted)
    return count


def count_fractions(monkeypatch) -> list[int]:
    """Count Fraction constructions from here on, in the one entry of the list returned."""
    new, count = Fraction.__new__, [0]

    def counted(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    return count
